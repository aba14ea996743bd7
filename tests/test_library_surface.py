"""Every library definition is reached from the library itself.

A function, class or method that only tests call certifies nothing a
config can run, so it belongs in the tests, not in ``src/recurlab``. This
check parses every module of the package and fails on a definition whose
name appears in no module outside its own body: in no call, attribute,
bare name or import. Dunder methods, which Python calls, and ``main``,
which the console script calls, are exempt. Names in strings and
docstrings do not count.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "recurlab"
EXEMPT = {"main"}


def _references(tree):
    """(name, line) of every identifier the module uses or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node


def unreached_definitions():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    refs = {name: list(_references(tree)) for name, tree in trees.items()}
    unreached = []
    for module, tree in trees.items():
        for node in _definitions(tree):
            name = node.name
            if name in EXEMPT or (name.startswith("__") and name.endswith("__")):
                continue
            own = range(min([node.lineno] + [d.lineno for d in node.decorator_list]),
                        node.end_lineno + 1)
            if not any(ref == name and (mod != module or line not in own)
                       for mod, found in refs.items() for ref, line in found):
                unreached.append(f"{module}:{node.lineno} {name}")
    return unreached


def test_every_library_definition_is_named_by_the_library():
    assert unreached_definitions() == []
