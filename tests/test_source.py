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
