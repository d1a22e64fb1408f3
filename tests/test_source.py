"""Static checks on the package source."""

import ast
from pathlib import Path

SOURCE = Path(__file__).parents[1] / "src" / "dcl0"


def unread_parameters(tree):
    """``(function, line, parameter)`` for every parameter of a function or
    lambda that its body never reads; ``self``, ``cls`` and names starting
    with ``_`` are exempt."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {name.id for stmt in body for name in ast.walk(stmt)
                if isinstance(name, ast.Name)
                and isinstance(name.ctx, ast.Load)}
        found += [(getattr(node, "name", "<lambda>"), node.lineno, param)
                  for param in params
                  if param not in read and param not in ("self", "cls")
                  and not param.startswith("_")]
    return found


def test_no_parameter_is_accepted_and_ignored():
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    unread = [(path.name, *hit) for path in paths
              for hit in unread_parameters(ast.parse(path.read_text()))]
    assert unread == []


def test_the_check_sees_unread_parameters():
    tree = ast.parse("def f(a, b, _c, *args, d=1, **kw):\n"
                     "    b = a\n"
                     "    return lambda x, y: x\n"
                     "class C:\n"
                     "    def m(self, v):\n"
                     "        def inner():\n"
                     "            return v\n"
                     "        return inner\n")
    assert unread_parameters(tree) == [("f", 1, "b"), ("f", 1, "d"),
                                       ("f", 1, "args"), ("f", 1, "kw"),
                                       ("<lambda>", 3, "y")]


def splu_calls(tree):
    """``(enclosing function, line)`` for every call of a function named
    ``splu``, plain or as an attribute; ``"<module>"`` at module level."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if name == "splu":
                found.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_one_factorization_setup():
    calls = [(path.name, owner) for path in sorted(SOURCE.glob("*.py"))
             for owner, _ in splu_calls(ast.parse(path.read_text()))]
    assert calls == [("ssn.py", "factor_spd")]


def test_the_check_sees_splu_calls():
    tree = ast.parse("import scipy.sparse.linalg as spla\n"
                     "from scipy.sparse.linalg import splu\n"
                     "lu = splu(a)\n"
                     "class C:\n"
                     "    def m(self, a):\n"
                     "        return spla.splu(a, panel_size=1)\n"
                     "def f(a):\n"
                     "    return a.splu_like(a)\n")
    assert splu_calls(tree) == [("<module>", 3), ("m", 6)]


#: methods whose call makes a copy of a sparse matrix
COPYING_METHODS = ("tocsc", "tocsr", "copy")


def copying_factor_calls(tree):
    """``(line, method)`` for every call of a function named ``factor_spd``,
    plain or as an attribute, that passes an expression calling one of
    :data:`COPYING_METHODS`: an exactly symmetric CSR matrix reaches the
    factorization as its CSC view ``.T``, not as a converted copy."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None)
        if name != "factor_spd":
            continue
        for arg in node.args + [kw.value for kw in node.keywords]:
            found += [(node.lineno, inner.func.attr)
                      for inner in ast.walk(arg)
                      if isinstance(inner, ast.Call)
                      and isinstance(inner.func, ast.Attribute)
                      and inner.func.attr in COPYING_METHODS]
    return found


def test_factorizations_take_views():
    found = [(path.name, *hit) for path in sorted(SOURCE.glob("*.py"))
             for hit in copying_factor_calls(ast.parse(path.read_text()))]
    assert found == []


def test_the_check_sees_copies_passed_to_factor_spd():
    tree = ast.parse("from dcl0.ssn import factor_spd\n"
                     "lu = factor_spd(A.tocsc())\n"
                     "lu = factor_spd(A[idx][:, idx].tocsr().T)\n"
                     "lu = ssn.factor_spd(csc=A.copy())\n"
                     "lu = factor_spd(A.T)\n"
                     "lu = other(A.tocsc())\n")
    assert copying_factor_calls(tree) == [(2, "tocsc"), (3, "tocsr"),
                                          (4, "copy")]
