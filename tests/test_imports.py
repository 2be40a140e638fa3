"""Lints.  No module in src/, tests/ or perfbench/ imports a name it never
uses, and src/privcache keeps only definitions the program reaches: every
top-level function, class and non-dunder assigned name, and every non-dunder
method or property of those classes, is read somewhere in src/privcache, exported in
``privcache.__all__`` or one of the tracer's ``TARGETS`` (which it patches
by name).  Every name the tracer patches resolves in privcache, and no
privcache module reads another one's private (underscore-prefixed)
top-level names.  No exception-message template is raised from two
privcache modules: each message has one owner.  ``scheme.block_tables``,
the one enumerator of the scheme's randomness, has one caller,
``audit._view_counts``, so every exact audit walks its product through the
cover quotient and the atom check there; and every function of ``audit``
that walks through ``_view_counts`` charges its budget on an earlier
line.  The package runs in one process: no module of src/privcache imports
a concurrency module, at any depth."""

import ast
import importlib
from pathlib import Path

import privcache

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "privcache"


def unused_imports(path: Path) -> list[str]:
    """Names ``path`` binds by import and never reads.  A package's
    ``__all__`` counts as a use, and ``from __future__`` imports are exempt."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used.update(privcache.__all__)
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in bound.items() if name not in used]


def test_no_unused_imports():
    files = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "tests").rglob("*.py")),
             *sorted((ROOT / "perfbench").glob("*.py"))]
    assert {path.parent.name for path in files} >= {"privcache", "tests", "perfbench"}
    assert [hit for path in files for hit in unused_imports(path)] == []


def unused_definitions() -> list[str]:
    """``module.name`` and ``module.Class.name`` of every definition in
    src/privcache that nothing in the program reads and the tracer does not
    patch: top-level functions, classes and names bound by a module-level
    assignment (dunders exempt), and the classes' methods.  A top-level name
    is read by a bare name that loads it or an attribute access; a method
    only by an attribute access, so a local variable does not hide it."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    names, attrs = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    kept = set(privcache.__all__)
    traced = {f"{module}.{attr}" for module, attr in tracer_targets()}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                unused += [f"{module}.{target.id}" for target in targets if isinstance(target, ast.Name)
                           and not target.id.startswith("__") and target.id not in names | attrs | kept]
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in names | attrs | kept:
                unused.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                unused += [f"{module}.{node.name}.{item.name}" for item in node.body
                           if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                           and item.name not in attrs | kept]
    return [name for name in unused if name not in traced]


def test_every_definition_is_used_by_the_program():
    assert unused_definitions() == []


def tracer_targets() -> tuple[tuple[str, str], ...]:
    """``TARGETS`` of perfbench/tracer.py, read from its source, not run."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_tracer_target_resolves():
    """A renamed or deleted traced function breaks ``--trace 1``; here it
    fails the lint instead.  "Class.method" resolves attribute by attribute."""
    targets = tracer_targets()
    assert {("ucc", "encode"), ("ucc", "decode_linear"), ("ucc", "decode_structural")} <= set(targets)
    missing = []
    for module, attr in targets:
        obj = importlib.import_module(f"{privcache.__name__}.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert missing == []


def message_template(node: ast.expr) -> str | None:
    """The template of an exception message: a str constant as it is, an
    f-string as its constant parts with ``{}`` for each field, and None for
    any other expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in node.values)
    return None


def message_raisers() -> dict[str, list[str]]:
    """Each template of the first argument of a ``raise X(...)`` in
    src/privcache, with the ``module:line`` sites that raise it."""
    raisers: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                template = message_template(node.exc.args[0])
                if template is not None:
                    raisers.setdefault(template, []).append(f"{path.stem}:{node.lineno}")
    return raisers


def test_each_message_is_raised_from_one_line():
    raisers = message_raisers()
    assert {"need at least one file and one user", "x={} outside envelope domain [{}, {}]", "no solution"} <= set(raisers)
    assert {template: sites for template, sites in raisers.items() if len(sites) > 1} == {}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(path: Path) -> list[str]:
    """Underscore-prefixed top-level names of another privcache module that
    ``path`` reads: imported by ``from .m import _x`` (or ``from
    privcache.m import _x``), or read as ``m._x`` off a module bound by
    ``from . import m`` (under any alias).  Dunder names are exempt."""
    tree = ast.parse(path.read_text(), filename=str(path))
    own = path.stem
    modules: dict[str, str] = {}  # local name -> privcache module it binds
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            source = node.module
        elif node.level == 0 and node.module and node.module.split(".")[0] == PACKAGE.name:
            source = node.module.partition(".")[2] or None
        else:
            continue
        for alias in node.names:
            if source is None:
                modules[alias.asname or alias.name] = alias.name
            elif source != own and _is_private(alias.name):
                hits.append(f"{path.name}:{node.lineno}: from {source} import {alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and _is_private(node.attr):
            module = modules.get(node.value.id)
            if module is not None and module != own:
                hits.append(f"{path.name}:{node.lineno}: {module}.{node.attr}")
    return hits


def test_no_module_reads_another_modules_private_names():
    files = sorted(PACKAGE.glob("*.py"))
    assert {path.stem for path in files} >= {"audit", "scheme", "ucc"}
    assert [hit for path in files for hit in private_reads(path)] == []


def enumerator_readers() -> list[str]:
    """``module.function`` of each top-level definition in src/privcache that
    reads the name ``block_tables`` (bare, as an attribute or by import),
    once per read; a read outside any definition is listed as ``module``."""
    hits = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            owner = f"{path.stem}.{top.name}" if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else path.stem
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id == "block_tables" \
                        or isinstance(node, ast.Attribute) and node.attr == "block_tables" \
                        or isinstance(node, ast.alias) and node.name == "block_tables":
                    hits.append(owner)
    return hits


def test_block_tables_has_one_caller():
    assert callable(privcache.scheme.block_tables)
    assert not hasattr(privcache.scheme, "realizations")  # the per-atom generator is gone, not kept beside it
    assert enumerator_readers() == ["audit._view_counts"]


def uncharged_walks() -> tuple[list[str], list[str]]:
    """The top-level functions of audit.py that read ``_view_counts``, and
    those among them with no ``_check_budget`` call on an earlier line than
    their first read."""
    tree = ast.parse((PACKAGE / "audit.py").read_text())
    walkers, uncharged = [], []
    for top in tree.body:
        if not isinstance(top, ast.FunctionDef):
            continue
        reads = [node.lineno for node in ast.walk(top) if isinstance(node, ast.Name) and node.id == "_view_counts"]
        if not reads:
            continue
        walkers.append(top.name)
        charges = [node.lineno for node in ast.walk(top) if isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Name) and node.func.id == "_check_budget"]
        if not any(line < min(reads) for line in charges):
            uncharged.append(top.name)
    return walkers, uncharged


def test_every_walk_is_charged_first():
    walkers, uncharged = uncharged_walks()
    assert set(walkers) >= {"masked_demand_law", "verify_law_invariance", "exact_mutual_information"}
    assert uncharged == []


CONCURRENCY = ("concurrent", "multiprocessing", "threading", "subprocess")


def concurrency_imports(tree: ast.Module, name: str) -> list[str]:
    """``name:line: module`` for each import of a ``CONCURRENCY`` module or
    of one of their submodules anywhere in ``tree``, function bodies
    included."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        hits += [f"{name}:{node.lineno}: {module}" for module in modules if module.split(".")[0] in CONCURRENCY]
    return hits


def test_the_package_imports_no_concurrency_module():
    nested = ast.parse("def run():\n    from concurrent.futures import ProcessPoolExecutor\n    import threading\n")
    assert concurrency_imports(nested, "probe") == ["probe:2: concurrent.futures", "probe:3: threading"]
    files = sorted(PACKAGE.glob("*.py"))
    assert {path.stem for path in files} >= {"cli", "tradeoff"}
    assert [hit for path in files
            for hit in concurrency_imports(ast.parse(path.read_text(), filename=str(path)), path.name)] == []
