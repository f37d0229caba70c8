"""Layering guard, checked on the source text (AST), not on imports at
run time: the engine/driver package ``repro.sqldb`` sits below the
paper's packages and must not reach up into them, and
``repro.core.connectors`` holds the connector family and nothing else —
retry, pooling and topology routing live in ``repro.sqldb.client`` —,
``repro.sqldb.faults`` holds the engine's one fault injector, and no
function outside ``ast_nodes`` and ``Planner.compile_expr`` branches on
SQL expression node types (the generic walk of ``ast_nodes`` serves
every other walker), and no module but ``catalog`` reads an index's key
or position arrays."""

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


#: SQL expression nodes only a hand-written tree walker (or the one
#: compiler) needs to tell apart
WALKER_NODES = {"Between", "InList", "Case", "IsNull"}


def _node_type_tests(tree: ast.AST):
    """``(function, line)`` of every ``isinstance(x, ...)`` or ``type(x)
    is ...`` naming one of :data:`WALKER_NODES`, by enclosing function
    (``Class.method`` for methods)."""

    def names(node):
        return {
            getattr(part, "attr", getattr(part, "id", None))
            for part in ast.walk(node)
        }

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                inner = f"{scope}.{child.name}" if scope else child.name
            tested = None
            if (
                isinstance(child, ast.Call)
                and getattr(child.func, "id", None) == "isinstance"
                and len(child.args) == 2
            ):
                tested = child.args[1]
            elif (
                isinstance(child, ast.Compare)
                and isinstance(child.left, ast.Call)
                and getattr(child.left.func, "id", None) == "type"
            ):
                tested = child.comparators[0]
            if tested is not None and names(tested) & WALKER_NODES:
                yield scope, child.lineno
            yield from visit(child, inner)

    yield from visit(tree, "")


def test_no_hand_written_expression_walkers():
    offenders = sorted(
        f"{path.relative_to(SRC)}:{line} in {function or '<module>'}"
        for path in SRC.rglob("*.py")
        if path.name != "ast_nodes.py"
        for function, line in _node_type_tests(ast.parse(path.read_text()))
        if (path.name, function) != ("planner.py", "Planner.compile_expr")
    )
    assert not offenders, offenders


def test_the_walker_rule_sees_a_walker():
    source = (
        "def walk(e):\n"
        "    if isinstance(e, (ast.BinaryOp, ast.Between)):\n"
        "        return e\n"
        "class Planner:\n"
        "    def compile_expr(self, e):\n"
        "        return type(e) is ast.Case\n"
    )
    assert list(_node_type_tests(ast.parse(source))) == [
        ("walk", 2),
        ("Planner.compile_expr", 6),
    ]


# -- one assignment rule -------------------------------------------------------

#: modules that assign values to storage classes and must do it through
#: the rule of ``repro.sqldb.vector`` (``CELL_RULES`` / ``assign``)
RULE_USERS = ("catalog.py", "engine.py", "executor.py", "functions.py",
              "ml_train.py", "planner.py")


def _type_name_sets(tree: ast.AST, names: set[str]):
    """Lines of every set, tuple, list or dict literal holding two or more
    of the SQL type *names*."""
    for node in ast.walk(tree):
        items = (
            node.keys if isinstance(node, ast.Dict)
            else getattr(node, "elts", None)
            if isinstance(node, (ast.Set, ast.Tuple, ast.List)) else None
        )
        if items is None:
            continue
        found = {
            item.value for item in items
            if isinstance(item, ast.Constant) and item.value in names
        }
        if len(found) >= 2:
            yield node.lineno


def test_storage_type_names_are_defined_once():
    from repro.sqldb.vector import STORAGE_CLASSES

    # the declared spellings, not the storage classes they map to
    names = set(STORAGE_CLASSES) - set(STORAGE_CLASSES.values())
    found = {
        path.name
        for path in (SRC / "sqldb").glob("*.py")
        if any(_type_name_sets(ast.parse(path.read_text()), names))
    }
    assert found == {"vector.py"}, sorted(found)


def _own_number_parses(tree: ast.AST):
    """Lines where a module parses numbers itself: a ``float(...)`` call
    under a ``try`` catching ``ValueError``/``TypeError``, or ``float``
    handed to a per-distinct kernel."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Try):
            caught = {
                getattr(part, "id", None)
                for handler in node.handlers if handler.type is not None
                for part in ast.walk(handler.type)
            }
            if caught & {"ValueError", "TypeError"}:
                for statement in node.body:
                    for call in ast.walk(statement):
                        if (
                            isinstance(call, ast.Call)
                            and getattr(call.func, "id", None) == "float"
                        ):
                            yield call.lineno
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in (
                "per_distinct", "per_distinct_cells"
            )
            and any(getattr(arg, "id", None) == "float" for arg in node.args)
        ):
            yield node.lineno


def test_no_module_parses_cells_beside_the_assignment_rule():
    offenders = sorted(
        f"{name}:{line}"
        for name in RULE_USERS
        for line in _own_number_parses(
            ast.parse((SRC / "sqldb" / name).read_text())
        )
    )
    assert not offenders, offenders


def test_the_rule_checks_see_their_targets():
    source = (
        "INTS = {'integer', 'bigint'}\n"
        "def coerce(raw):\n"
        "    try:\n"
        "        return int(float(raw))\n"
        "    except (TypeError, ValueError):\n"
        "        raise\n"
        "def cast(v, rows, out):\n"
        "    return per_distinct(float, [v], rows, out)\n"
    )
    tree = ast.parse(source)
    assert list(_type_name_sets(tree, {"integer", "bigint"})) == [1]
    assert sorted(_own_number_parses(tree)) == [4, 8]


#: the fields that hold an index's format, read only inside ``catalog``
INDEX_ARRAYS = {"key_arrays", "positions", "sorted_keys", "sorted_positions"}


def test_only_the_catalog_reads_index_arrays():
    """Other modules probe an index through its methods
    (``eq_positions``, ``in_positions``, ``range_positions``), so the
    index format lives behind one module."""
    offenders = sorted(
        f"{path.relative_to(SRC)}:{node.lineno} .{node.attr}"
        for path in SRC.rglob("*.py")
        if path.relative_to(SRC) != pathlib.Path("sqldb", "catalog.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in INDEX_ARRAYS
    )
    assert not offenders, offenders
