"""Source hygiene, read from the syntax trees of src/crtfi.

Every module-level import of a module is used in it, every private
(underscore) module-level name is referenced somewhere in the package,
every public module-level name somewhere in the package or its tests,
every public method of a package class is referenced outside that class, in
the package or its tests, and every attribute a package class stores on
self is read somewhere in the package or its tests, so no leftover import,
helper, method or memo survives the code that needed it. The modules form
layers, and each imports only from the layers below it. Every package
attribute that the benchmark's tracer wraps exists, so a refactor cannot
drop one unnoticed, and every private name that a docstring or comment
mentions is defined in the package, so prose cannot outlive the code it
describes.
"""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import crtfi

PACKAGE = Path(crtfi.__file__).parent
SOURCES = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
TREES = {name: ast.parse(text) for name, text in SOURCES.items()}
MODULES = {name: tree for name, tree in TREES.items() if name != "__init__.py"}
TEST_TREES = [ast.parse(path.read_text()) for path in sorted(Path(__file__).parent.glob("*.py"))]


def _bound_imports(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _loaded(tree: ast.AST) -> set[str]:
    """Names a tree reads: plain names, attribute names, imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def _module_defs(tree: ast.Module) -> list[str]:
    """Names a module defines at top level: functions, classes, assignments."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def test_every_module_level_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        used = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [f"{name}: {n}" for n in _bound_imports(tree) if n not in used]
    assert unused == []


def test_every_private_module_level_name_is_referenced():
    referenced = set().union(*(_loaded(tree) for tree in TREES.values()))
    orphans = [
        f"{name}: {n}" for name, tree in MODULES.items() for n in _module_defs(tree)
        if n.startswith("_") and not n.endswith("__") and n not in referenced
    ]
    assert orphans == []


def test_every_public_module_level_name_is_referenced():
    referenced = set().union(*map(_loaded, [*TREES.values(), *TEST_TREES]))
    orphans = [
        f"{name}: {n}" for name, tree in MODULES.items() for n in _module_defs(tree)
        if not n.startswith("_") and n not in referenced
    ]
    assert orphans == []


def test_every_public_method_is_referenced_outside_its_class():
    # each top-level statement's loaded names, read once
    loaded = {name: [_loaded(node) for node in tree.body] for name, tree in TREES.items()}
    in_tests = set().union(*map(_loaded, TEST_TREES))
    unused = []
    for name, tree in MODULES.items():
        others = in_tests.union(*(names for n, per in loaded.items() if n != name for names in per))
        for i, cls in enumerate(tree.body):
            if not isinstance(cls, ast.ClassDef):
                continue
            outside = others.union(*(names for j, names in enumerate(loaded[name]) if j != i))
            unused += [
                f"{name}: {cls.name}.{node.name}"
                for node in cls.body
                if isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_")
                and node.name not in outside
            ]
    assert unused == []


def _read_attributes(tree: ast.AST) -> set[str]:
    """Attribute names a tree reads; indexing one to store into it
    (self.memo[k] = v) is not a read."""
    stored_into = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load)
    }
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and id(node) not in stored_into
    }


def test_every_attribute_stored_on_self_is_read():
    read = set().union(*map(_read_attributes, [*TREES.values(), *TEST_TREES]))
    unread = [
        f"{name}: {cls.name}.{node.attr}"
        for name, tree in MODULES.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in ast.walk(cls)
        # assignment targets, tuple elements among them, and augmented ones
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
        and node.attr not in read
    ]
    assert unread == []


# the package's modules, lowest layer first
LAYERS = ("modmath", "keytools", "circuit", "transforms", "countermeasures", "faultengine", "cli")


def _package_imports(tree: ast.Module) -> set[str]:
    """The package modules a tree imports, at any depth. The package imports
    itself relatively; an absolute import of it is named "crtfi", which is
    no layer."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            out.update([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            out.update(n.split(".")[0] for n in names if n.split(".")[0] == "crtfi")
    return out


def test_each_module_imports_only_from_the_layers_below_it():
    assert sorted(f"{m}.py" for m in LAYERS) == sorted(MODULES)
    upward = [
        f"{m} imports {dep}"
        for i, m in enumerate(LAYERS)
        for dep in sorted(_package_imports(MODULES[f"{m}.py"]))
        if dep not in LAYERS[:i]
    ]
    assert upward == []


def test_every_attribute_the_benchmark_tracer_wraps_exists():
    """perfbench/tracing.py's WRAPPED rows name (owner, attribute, span):
    a module, or a class in one, and the attribute the tracer replaces.
    The table is read through ast, so perfbench is neither imported nor
    run."""
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "tracing.py").read_text())
    (table,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]
    ]
    rows = [(row.elts[0].value, row.elts[1].value) for row in table.elts]
    assert rows
    missing = []
    for owner_name, attr in rows:
        package, module, *inner = owner_name.split(".")
        owner = importlib.import_module(f"{package}.{module}")
        for name in inner:
            owner = getattr(owner, name, None)
        if not hasattr(owner, attr):
            missing.append(f"{owner_name}.{attr}")
    assert missing == []


def _bound(tree: ast.AST) -> set[str]:
    """Names a tree binds anywhere: definitions, assignment targets,
    attributes stored, parameters and import aliases."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            out.add(node.attr)
        elif isinstance(node, ast.arg):
            out.add(node.arg)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
    return out


def _prose(text: str, tree: ast.Module) -> list[str]:
    """A module's docstrings and comments."""
    docs = [
        ast.get_docstring(node, clean=False)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
    ]
    comments = [
        tok.string for tok in tokenize.generate_tokens(io.StringIO(text).readline) if tok.type == tokenize.COMMENT
    ]
    return [doc for doc in docs if doc] + comments


# the one private name prose may mention that the package does not define:
# CPython's random.Random._randbelow, whose redraws the samplers reproduce
FOREIGN_PRIVATE = {"_randbelow"}


def test_every_private_name_in_docstrings_and_comments_is_defined():
    bound = set().union(*map(_bound, TREES.values()))
    stale = sorted(
        {
            f"{name}: {word}"
            for name, text in SOURCES.items()
            for chunk in _prose(text, TREES[name])
            for word in re.findall(r"(?<!\w)_[A-Za-z]\w*", chunk)
            if word not in bound and word not in FOREIGN_PRIVATE
        }
    )
    assert stale == []
