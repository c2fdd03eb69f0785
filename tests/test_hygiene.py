"""Static guards on the package: no dead imports, no unreferenced objects,
no setting with a default that no call sets, no parameter that every call
sets alike, and no scipy import.

All read the source with the standard library's `ast`, so they need no
linter. A name counts as referenced when it is read as an attribute, spelled
out in a dotted string such as "gl3osc.keyident.riemann_side" (the
benchmark's layer trace wraps bindings by those names), imported by name
from the module that defines it, or read as a variable in that module. A
variable of the same name elsewhere (a local `e` in another module) does
not count, nor does a mention in a docstring or comment.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gl3osc"
# where a package object may be used or a setting set from: the package,
# the demos and perfbench/. An object only tests reach, or a knob only tests
# turn, is nothing a run of the program needs.
USERS = (PACKAGE, ROOT / "demos", ROOT / "perfbench")


def _modules():
    return sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


DOTTED = re.compile(r"gl3osc(\.[A-Za-z_][A-Za-z0-9_]*)+")


def _source_module(node: ast.ImportFrom, path: Path) -> str | None:
    """The package module (file stem) an import takes names from, if any."""
    if node.level:
        # `from . import m` (module None) takes a module, not a name
        return node.module if path.parent == PACKAGE else None
    parts = (node.module or "").split(".")
    if parts[0] != "gl3osc":
        return None
    return parts[1] if len(parts) > 1 else "__init__"


def _reads(path: Path) -> tuple[set, set]:
    """(names the file reads as an attribute or by a dotted string, which
    count for any module; (module, name) pairs it reads by a bare name:
    its own names if it is a package module, and each name it imports from
    a package module)."""
    anywhere, scoped = set(), set()
    own = path.stem if path.parent == PACKAGE else None
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            if own:
                scoped.add((own, node.id))
        elif isinstance(node, ast.Attribute):
            anywhere.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            source = _source_module(node, path)
            if source:
                scoped.update((source, alias.name) for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            anywhere.update(node.value.split("."))
    return anywhere, scoped


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
    anywhere, scoped = set(), set()
    for folder in USERS:
        for path in folder.glob("*.py"):
            names, pairs = _reads(path)
            anywhere |= names
            scoped |= pairs
    orphans = []
    for path in _modules():
        for name, line in _definitions(_tree(path)).items():
            if name not in anywhere and (path.stem, name) not in scoped:
                orphans.append(f"{path.name}:{line} defines {name}")
    assert not orphans, "defined but referenced nowhere:\n" + "\n".join(orphans)


# settings that keep their default at every call, each with its reason
UNSET_ALLOWED = {
    # the console script calls main() bare; tests inject argv through it
    "cli.main.argv",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _field_kind(value) -> str:
    """How a dataclass field's right-hand side makes it: "required",
    "default", or "derived" (field(init=False), which no caller passes)."""
    if value is None:
        return "required"
    if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field":
        given = {k.arg: k.value for k in value.keywords}
        if isinstance(given.get("init"), ast.Constant) and given["init"].value is False:
            return "derived"
        return "default" if {"default", "default_factory"} & set(given) else "required"
    return "default"


def _signature(fn, method: bool):
    """(names a call can pass by position, names with a default); a
    method's self or cls is not passed."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    static = any(getattr(d, "id", "") == "staticmethod" for d in fn.decorator_list)
    if method and not static:
        positional = positional[1:]
    return positional, defaulted


def _settable():
    """callee name -> list of (setting id, positional names, defaulted names)
    for every package function, method, class and dataclass."""
    out = {}

    def add(name, key, positional, defaulted):
        if defaulted:
            out.setdefault(name, []).append((key, positional, defaulted))

    for path in _modules():
        mod = path.stem
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                positional, defaulted = _signature(node, method=False)
                add(node.name, f"{mod}.{node.name}", positional, defaulted)
            elif isinstance(node, ast.ClassDef):
                fields, defaulted = [], []
                for item in node.body:
                    if (_is_dataclass(node) and isinstance(item, ast.AnnAssign)
                            and isinstance(item.target, ast.Name)):
                        kind = _field_kind(item.value)
                        if kind != "derived":
                            fields.append(item.target.id)
                        if kind == "default":
                            defaulted.append(item.target.id)
                    elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        positional, fn_defaults = _signature(item, method=True)
                        if item.name == "__init__":
                            add(node.name, f"{mod}.{node.name}", positional, fn_defaults)
                        else:
                            add(item.name, f"{mod}.{node.name}.{item.name}",
                                positional, fn_defaults)
                add(node.name, f"{mod}.{node.name}", fields, defaulted)
    return out


def _call_sites():
    """callee name -> (keywords passed, most positionals passed), over every
    call in USERS. A call with *args or **kwargs counts as passing every
    positional or keyword. `dataclasses.replace(obj, k=...)` passes k to
    every dataclass (under the name "replace"), `cls(...)` in a classmethod
    calls its class, and the benchmark's `_battery("x", k=...)` calls
    criteria.x_battery. Callees are matched by name alone, so a call can
    count for a setting it does not reach, never miss one it does."""
    keywords, positionals = {}, {}

    def record(name, args, kws):
        pos = sum(1 for a in args if not isinstance(a, ast.Starred))
        if any(isinstance(a, ast.Starred) for a in args):
            pos = 1 << 30
        positionals[name] = max(positionals.get(name, 0), pos)
        names = {k.arg for k in kws}
        if None in names:
            names.add("**")
        keywords.setdefault(name, set()).update(names)

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            scope = owner
            if isinstance(child, ast.ClassDef):
                scope = child.name
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                args = child.args
                if name == "cls" and owner is not None:
                    name = owner
                elif (name == "_battery" and args and isinstance(args[0], ast.Constant)
                      and isinstance(args[0].value, str)):
                    name, args = f"{args[0].value}_battery", args[1:]
                if name is not None:
                    record(name, args, child.keywords)
            visit(child, scope)

    for folder in USERS:
        for path in folder.glob("*.py"):
            visit(_tree(path), None)
    return keywords, positionals


def _unset_settings() -> set:
    """Every setting with a default that no call in USERS sets."""
    keywords, positionals = _call_sites()
    replaced = keywords.get("replace", set())
    unset = set()
    for name, entries in _settable().items():
        kws = keywords.get(name, set())
        for key, positional, defaulted in entries:
            for param in defaulted:
                at = positional.index(param) if param in positional else None
                if not (param in kws or "**" in kws or param in replaced
                            or (at is not None and positionals.get(name, 0) > at)):
                    unset.add(f"{key}.{param}")
    return unset


def test_every_setting_has_a_caller():
    unset = _unset_settings()
    assert not unset - UNSET_ALLOWED, (
        "settings with a default that no call in src/, demos/ or perfbench/ sets:\n"
        + "\n".join(sorted(unset - UNSET_ALLOWED)))
    # an allowance outlives its reason once its setting is gone or set
    assert not UNSET_ALLOWED - unset, (
        "UNSET_ALLOWED entries that name no unset setting:\n"
        + "\n".join(sorted(UNSET_ALLOWED - unset)))


def _top_level_bindings(path: Path, tree: ast.Module) -> dict:
    """Names bound at a file's top level -> what they name: "module.name"
    of an import's source, or "file:name" for a definition of the file."""
    bound = {name: f"{path}:{name}" for name in _definitions(tree)}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom):
            # relative imports appear in the package only
            source = ".".join(filter(None, ["gl3osc" if node.level else "", node.module]))
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{source}.{alias.name}"
    return bound


def _local_names(fn) -> set:
    """Every name a function binds anywhere in its body, nested scopes
    included: its parameters, assignments, loop targets, defs and imports."""
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and node is not fn:
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def _fixed_value(node, top: dict, local: set):
    """What an argument always is, or None: a literal, or a module-level
    name (or an attribute of one) that no enclosing function rebinds."""
    try:
        ast.literal_eval(node)
        return ("literal", ast.dump(node))
    except ValueError:
        pass
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in top and node.id not in local:
        return ("name", ".".join([top[node.id]] + attrs[::-1]))
    return None


def _signatures() -> dict:
    """callee name -> list of (setting id, parameter names by position,
    keyword-only names) for every package function, method and class
    __init__; a method's self or cls is not passed."""
    out = {}

    def add(name, key, fn, method):
        positional, _ = _signature(fn, method)
        keyword_only = [a.arg for a in fn.args.kwonlyargs]
        out.setdefault(name, []).append((key, positional, keyword_only))

    for path in _modules():
        mod = path.stem
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(node.name, f"{mod}.{node.name}", node, method=False)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        add(node.name if item.name == "__init__" else item.name,
                            f"{mod}.{node.name}.{item.name}", item, method=True)
    return out


def _passed_values() -> dict:
    """callee name -> per call in USERS, {parameter name or position:
    fixed value or None}, with "*" or "**" present when the call unpacks."""
    calls = {}

    def visit(node, top, local):
        for child in ast.iter_child_nodes(node):
            inner = local
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                inner = local | _local_names(child)
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name is not None:
                    given = {i: _fixed_value(a, top, inner) for i, a in enumerate(child.args)}
                    if any(isinstance(a, ast.Starred) for a in child.args):
                        given["*"] = None
                    for kw in child.keywords:
                        given[kw.arg if kw.arg is not None else "**"] = (
                            None if kw.arg is None else _fixed_value(kw.value, top, inner))
                    calls.setdefault(name, []).append(given)
            visit(child, top, inner)

    for folder in USERS:
        for path in folder.glob("*.py"):
            tree = _tree(path)
            visit(tree, _top_level_bindings(path, tree), set())
    return calls


def _single_valued_parameters() -> set:
    """Package parameters that every call, at least two of them, passes
    explicitly as one and the same literal or module-level name."""
    calls = _passed_values()
    fixed = set()
    for name, defs in _signatures().items():
        sites = calls.get(name, [])
        if len(sites) < 2:
            continue
        for key, positional, keyword_only in defs:
            for at, param in enumerate(positional + keyword_only):
                values = []
                for given in sites:
                    if "*" in given or "**" in given:
                        values.append(None)
                    elif at < len(positional) and at in given:
                        values.append(given[at])
                    else:
                        values.append(given.get(param))
                if values[0] is not None and values.count(values[0]) == len(values):
                    fixed.add(f"{key}.{param}")
    return fixed


# parameters that every call sets alike, each with its reason
FIXED_ALLOWED = {
    # both callers pass kahan_csum, but each through its own module's
    # binding: the benchmark's layer trace wraps gammafactor.kahan_csum to
    # count the contour's parity columns, and the mellin workload reaches
    # that binding only through this argument
    "cutoffs._line_trapezoid.add",
}


def test_no_parameter_takes_one_value_at_every_call():
    # a parameter every call sets alike is a constant spelled at each call
    fixed = _single_valued_parameters()
    assert not fixed - FIXED_ALLOWED, (
        "parameters that every call in src/, demos/ or perfbench/ passes as the "
        "same literal or module-level name:\n" + "\n".join(sorted(fixed - FIXED_ALLOWED)))
    assert not FIXED_ALLOWED - fixed, (
        "FIXED_ALLOWED entries that name no such parameter:\n"
        + "\n".join(sorted(FIXED_ALLOWED - fixed)))
    # the rule tells a module-level name from a local that shares it
    top = {"kahan_csum": "gl3osc.util.kahan_csum"}
    arg = ast.parse("kahan_csum", mode="eval").body
    assert _fixed_value(arg, top, set()) == ("name", "gl3osc.util.kahan_csum")
    assert _fixed_value(arg, top, {"kahan_csum"}) is None


def _scipy_imports(tree: ast.Module) -> list:
    """The line of each import from scipy, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        if any(m.split(".")[0] == "scipy" for m in modules):
            found.append(node.lineno)
    return found


def test_no_module_under_src_imports_scipy():
    # numpy is the package's one dependency; scipy is a test oracle only
    paths = sorted((ROOT / "src").rglob("*.py"))
    assert PACKAGE / "gammafactor.py" in paths
    stray = [f"{path.relative_to(ROOT)}:{line}"
             for path in paths for line in _scipy_imports(_tree(path))]
    assert not stray, "scipy imported under src/:\n" + "\n".join(stray)
    # the rule sees an import where there is one, so it is not vacuous
    assert _scipy_imports(ast.parse("def f():\n    from scipy.special import loggamma\n")) == [2]
