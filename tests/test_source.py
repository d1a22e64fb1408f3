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


def calls_named(tree, name):
    """``(enclosing function, line)`` for every call of a function named
    ``name``, plain or as an attribute; ``"<module>"`` at module level."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            if called == name:
                found.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def source_calls(name):
    """``(module, enclosing function)`` for every call of ``name`` in the
    package source."""
    return [(path.name, owner) for path in sorted(SOURCE.glob("*.py"))
            for owner, _ in calls_named(ast.parse(path.read_text()), name)]


def test_one_factorization_setup():
    assert source_calls("splu") == [("ssn.py", "factor_spd")]


def test_one_gap():
    # the gap is the unselected sum, never the difference l1 - |w|_K
    assert source_calls("weighted_l1") == []
    assert source_calls("unselected_sum") == [("solver.py", "objective"),
                                              ("solver.py", "support_metrics")]


def grid_size_reads(tree):
    """Lines that name ``grid_n``: as an attribute, a keyword argument or a
    string (``getattr(mesh, "grid_n")``)."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if (isinstance(node, ast.Attribute)
                       and node.attr == "grid_n")
                   or (isinstance(node, ast.keyword) and node.arg == "grid_n")
                   or (isinstance(node, ast.Constant)
                       and node.value == "grid_n")})


def test_grid_is_known_in_fem_only():
    # fem's stencils trust grid_n; any other module asks
    # FemSystem.grid_solver() whether the mesh is the grid
    found = [path.name for path in sorted(SOURCE.glob("*.py"))
             if grid_size_reads(ast.parse(path.read_text()))]
    assert found == ["fem.py"]


def test_the_check_sees_grid_size_reads():
    tree = ast.parse("if mesh.grid_n is None:\n"
                     "    pass\n"
                     "n = system.mesh.grid_n + 1\n"
                     "m = TriMesh(nodes, tris, b, a, grid_n=4)\n"
                     "k = getattr(mesh, 'grid_n')\n"
                     "grid_n = 3\n"
                     "name = 'grid_n is n'\n")
    assert grid_size_reads(tree) == [1, 3, 4, 5]


def test_the_check_sees_splu_calls():
    tree = ast.parse("import scipy.sparse.linalg as spla\n"
                     "from scipy.sparse.linalg import splu\n"
                     "lu = splu(a)\n"
                     "class C:\n"
                     "    def m(self, a):\n"
                     "        return spla.splu(a, panel_size=1)\n"
                     "def f(a):\n"
                     "    return a.splu_like(a)\n")
    assert calls_named(tree, "splu") == [("<module>", 3), ("m", 6)]


def test_one_number_parser():
    # mesh and field text reach numpy's C parser through one block reader
    assert source_calls("fromstring") == [("fem.py", "_block_values")]


def test_the_check_sees_fromstring_calls():
    tree = ast.parse("values = np.fromstring(data, sep=' ')\n"
                     "def read(data):\n"
                     "    return fromstring(data, dtype=int, sep=' ')\n")
    assert calls_named(tree, "fromstring") == [("<module>", 1), ("read", 3)]


def reads_not_in_bytes(tree):
    """Lines of the calls of ``open`` that may read a file in a mode other
    than ``"rb"``: a text read decodes in the locale's encoding.  The mode
    is the second argument or ``mode=`` (``"r"`` without either); a mode
    that is not a string literal counts as a read."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "open"):
            continue
        modes = node.args[1:2] + [kw.value for kw in node.keywords
                                  if kw.arg == "mode"]
        mode = modes[0] if modes else ast.Constant("r")
        mode = mode.value if isinstance(mode, ast.Constant) else "r"
        if mode != "rb" and ("r" in mode or "+" in mode):
            found.append(node.lineno)
    return found


def test_files_are_read_as_bytes():
    assert reads_not_in_bytes(ast.parse((SOURCE / "fem.py").read_text())) == []


def test_the_check_sees_text_reads():
    tree = ast.parse("open(p)\n"
                     "open(p, 'r')\n"
                     "open(p, mode='rt')\n"
                     "open(p, 'rb')\n"
                     "open(p, 'w')\n"
                     "open(p, how)\n"
                     "open(p, 'w+b')\n"
                     "with open(p, mode='rb') as fh, open(q) as gh:\n"
                     "    pass\n")
    assert sorted(reads_not_in_bytes(tree)) == [1, 2, 3, 6, 7, 8]


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


#: exported names that no module of the package reads, each with its reason
UNREAD_EXPORTS = {
    ("fem.py", "export_mesh"): "the writer of the mesh format import_mesh reads",
    ("measures.py", "largest_k_relaxed"): "the upper bound that certifies a "
                                          "selection on irregular meshes",
    ("measures.py", "weighted_l1"): "the l1 of the criteria's gap scales, of "
                                    "the reference gap in tests/oracles.py "
                                    "and of perfbench's field check",
}


def exported_names(tree):
    """The string entries of the module's ``__all__`` list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__"
                for target in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def loaded_names(node):
    """Names that ``node`` reads, plain or as an attribute."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))
            and isinstance(sub.ctx, ast.Load)}


def unread_exports(trees):
    """``(module, name)`` for every name in a module's ``__all__`` that no
    module of ``trees`` (module -> parsed source) reads other than in the
    name's own top-level definition."""
    reads = [(stmt, loaded_names(stmt))
             for tree in trees.values() for stmt in tree.body]
    found = []
    for module, tree in trees.items():
        for name in exported_names(tree):
            own = [stmt for stmt in tree.body
                   if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef))
                   and stmt.name == name]
            if not any(name in names for stmt, names in reads
                       if stmt not in own):
                found.append((module, name))
    return found


def test_every_export_is_read():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SOURCE.glob("*.py"))}
    unread = unread_exports(trees)
    assert [hit for hit in unread if hit not in UNREAD_EXPORTS] == []
    # an allowed name that gained a reader leaves the list
    assert set(UNREAD_EXPORTS) <= set(unread)


def test_the_check_sees_unread_exports():
    trees = {
        "a.py": ast.parse("__all__ = ['f', 'g', 'h', 'C', 'D']\n"
                          "def f():\n"
                          "    return 1\n"
                          "def g(n):\n"
                          "    return g(n - 1)\n"
                          "def h():\n"
                          "    pass\n"
                          "class C:\n"
                          "    def m(self):\n"
                          "        return C\n"
                          "class D:\n"
                          "    pass\n"),
        "b.py": ast.parse("from a import f, h\n"
                          "import a\n"
                          "x = f()\n"
                          "y = a.D\n"),
    }
    assert unread_exports(trees) == [("a.py", "g"), ("a.py", "h"),
                                     ("a.py", "C")]


def unread_helpers(tree):
    """Private top-level functions and classes of a module that the module
    itself never reads outside their own definition."""
    defs = [stmt for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and stmt.name.startswith("_")]
    return [stmt.name for stmt in defs
            if not any(stmt.name in loaded_names(other)
                       for other in tree.body if other is not stmt)]


def test_every_helper_is_read_where_it_lives():
    # a private helper lives in the module that calls it, not in one that
    # only exports it to another
    unread = {path.name: unread_helpers(ast.parse(path.read_text()))
              for path in sorted(SOURCE.glob("*.py"))}
    assert {name: helpers for name, helpers in unread.items() if helpers} == {}


def test_the_check_sees_unread_helpers():
    tree = ast.parse("def _used():\n"
                     "    return 1\n"
                     "def _only_recursive(n):\n"
                     "    return _only_recursive(n - 1)\n"
                     "def _exported():\n"
                     "    pass\n"
                     "class _Kept:\n"
                     "    pass\n"
                     "x = _used() + len([_Kept])\n")
    assert unread_helpers(tree) == ["_only_recursive", "_exported"]
