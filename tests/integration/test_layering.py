"""Layering guard, checked on the source text (AST), not on imports at
run time: the engine/driver package ``repro.sqldb`` sits below the
paper's packages and must not reach up into them, and
``repro.core.connectors`` holds the connector family and nothing else —
retry, pooling and topology routing live in ``repro.sqldb.client`` — and
``repro.sqldb.faults`` holds the engine's one fault injector."""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent
UPPER_LAYERS = ("repro.core", "repro.inspection", "repro.pipelines")
CONNECTOR_FAMILY = {
    "DBConnector",
    "PostgresqlConnector",
    "UmbraConnector",
    "ProfileConnector",
    "RemoteConnector",
    "MultiEndpointConnector",
}


def imported_modules(path: pathlib.Path) -> set[str]:
    """Absolute dotted names of everything *path* imports, anywhere in
    the file (function-level imports included)."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"{path}: relative import"
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_sqldb_imports_nothing_from_the_layers_above():
    modules = sorted((SRC / "sqldb").glob("*.py"))
    assert modules
    offenders = {
        f"{path.name} -> {name}"
        for path in modules
        for name in imported_modules(path)
        if name.startswith(UPPER_LAYERS)
    }
    assert not offenders, sorted(offenders)


def _schedules_faults(cls: ast.ClassDef) -> bool:
    """True for a class with an ``arm`` method or a ``trace`` attribute
    (assigned on the class or on ``self``)."""
    for node in ast.walk(cls):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == "arm":
                return True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                name = getattr(target, "attr", getattr(target, "id", None))
                if name == "trace":
                    return True
    return False


def test_faults_module_holds_the_only_fault_injector():
    offenders = {
        f"{path.name}:{node.name}"
        for path in sorted((SRC / "sqldb").glob("*.py"))
        if path.name != "faults.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and _schedules_faults(node)
    }
    assert not offenders, sorted(offenders)


def test_connectors_module_defines_only_the_connector_family():
    tree = ast.parse((SRC / "core" / "connectors.py").read_text())
    classes = {
        node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    }
    assert classes == CONNECTOR_FAMILY
