"""Static guards on the package: no dead imports, no unreferenced objects.

Both read the source with the standard library's `ast`, so they need no
linter. A name counts as referenced when it is read as a variable, read as
an attribute, imported by name, or spelled out in a dotted string such as
"gl3osc.keyident.riemann_side" (the benchmark's layer trace wraps bindings
by those names). A mention in a docstring or comment does not count.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gl3osc"
# where a package object may be used from: the package, its tests, the
# demos and the benchmark driver
USERS = (PACKAGE, ROOT / "tests", ROOT / "demos", ROOT / "perfbench")


def _modules():
    return sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


DOTTED = re.compile(r"gl3osc(\.[A-Za-z_][A-Za-z0-9_]*)+")


def _reads(tree: ast.AST) -> set:
    """Every identifier the code reads, imports by name or names by a
    dotted string."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            names.update(node.value.split("."))
    return names


def _imported(tree: ast.Module) -> dict:
    """Names a module binds by import -> the line that binds them."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    return bound


def _used_locally(tree: ast.Module) -> set:
    """Names the module reads, counting the strings of its __all__ as reads."""
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def _definitions(tree: ast.Module) -> dict:
    """Module-level functions, classes and constants -> their line.

    Dunder names (__all__, __version__) are module protocol, not objects of
    the program, so they are not counted.
    """
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    return {name: line for name, line in defined.items()
            if not (name.startswith("__") and name.endswith("__"))}


def test_package_modules_read_every_name_they_import():
    dead = []
    for path in _modules():
        tree = _tree(path)
        used = _used_locally(tree)
        dead += [f"{path.name}:{line} imports {name}"
                 for name, line in _imported(tree).items() if name not in used]
    assert not dead, "imported but never read:\n" + "\n".join(dead)


def test_every_package_object_is_referenced():
    readers = {}
    for folder in USERS:
        for path in folder.glob("*.py"):
            readers[path] = _reads(_tree(path))
    orphans = []
    for path in _modules():
        tree = _tree(path)
        for name, line in _definitions(tree).items():
            if not any(name in reads for reads in readers.values()):
                orphans.append(f"{path.name}:{line} defines {name}")
    assert not orphans, "defined but referenced nowhere:\n" + "\n".join(orphans)
