"""The package's import graph, read from the source with ast.

graphs, transport and curvature measure; mpnn measures features and walk
counts; diagnostics states and judges the bounds; rewiring acts on
curvature; emit renders every result as text, a report's shape included;
cli only wires them together. A lower layer that imports a higher one would
let a bound or a rewiring rule leak into a measurement, and a second
renderer would let the bytes drift.
Reports carried between profiles live only in a rewiring loop, so a
one-shot profile keeps nothing once it returns; walk rows and norms live
only as long as the graph or trial they were computed for, emit's render
caches only as long as the write_suite call that fills them, and a streamed
check only until its batch is written.
"""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orckit"


def package_imports(path):
    """The orckit modules the module at path imports, at any depth in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:  # from .x import y
                names = [node.module]
            elif node.level or node.module == "orckit":  # from . import x
                names = [alias.name for alias in node.names]
            elif (node.module or "").startswith("orckit."):
                names = [node.module.removeprefix("orckit.")]
            else:
                continue
        elif isinstance(node, ast.Import):
            prefixed = [alias.name for alias in node.names if alias.name.startswith("orckit.")]
            names = [name.removeprefix("orckit.") for name in prefixed]
        else:
            continue
        found |= {name.split(".")[0] for name in names}
    return found


def json_renders(path):
    """Whether the module at path calls json.dumps or imports json.encoder."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr == "dumps":
            if isinstance(node.value, ast.Name) and node.value.id == "json":
                return True
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("json"):
            if node.module == "json.encoder" or "dumps" in {a.name for a in node.names}:
                return True
        elif isinstance(node, ast.Import) and "json.encoder" in {a.name for a in node.names}:
            return True
    return False


IMPORTS = {path.stem: package_imports(path) for path in PACKAGE.glob("*.py")}


def test_reader_sees_the_cli_imports():
    assert {"curvature", "diagnostics", "graphs", "mpnn", "rewiring"} <= IMPORTS["cli"]


@pytest.mark.parametrize(
    "module, allowed",
    [("transport", {"graphs"}), ("mpnn", {"graphs"}), ("curvature", {"graphs", "transport"})],
)
def test_measurement_layers_import_only_below(module, allowed):
    assert IMPORTS[module] <= allowed


def test_only_cli_imports_diagnostics_and_rewiring():
    importers = {module for module, deps in IMPORTS.items() if deps & {"diagnostics", "rewiring"}}
    assert importers == {"cli", "emit"}


def test_only_cli_imports_emit():
    assert {module for module, deps in IMPORTS.items() if "emit" in deps} == {"cli"}


def test_only_emit_renders_json():
    renderers = {path.stem for path in PACKAGE.glob("*.py") if json_renders(path)}
    assert renderers == {"emit"}


def json_obj_owners(path):
    """The owner of each to_json_obj the module at path defines: the name of
    its class, or None for a function outside a class."""
    tree = ast.parse(path.read_text())
    owner = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    return [
        owner.get(id(node))
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "to_json_obj"
    ]


def savetxt_callers(path):
    """Whether the module at path calls savetxt (np.savetxt or a bare import)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            if getattr(func, "attr", None) == "savetxt" or getattr(func, "id", None) == "savetxt":
                return True
    return False


def test_only_emit_shapes_reports_and_writes_layers():
    """A report's JSON shape is built in emit from the data classes' fields,
    so no data class restates its fields in a to_json_obj; only Graph keeps
    one, beside the parsers of the graph formats it writes. Layer CSVs are
    written by emit alone."""
    owners = [(path.stem, owner) for path in PACKAGE.glob("*.py") for owner in json_obj_owners(path)]
    assert owners == [("graphs", "Graph")]
    assert {path.stem for path in PACKAGE.glob("*.py") if savetxt_callers(path)} == {"emit"}


def before_passers(path):
    """Whether the module at path calls edge_curvatures with a graph before
    an edit and its kappas."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "edge_curvatures":
            if len(node.args) > 1 or any(k.arg == "before" for k in node.keywords):
                return True
    return False


def test_only_rewiring_passes_before():
    assert {path.stem for path in PACKAGE.glob("*.py") if before_passers(path)} == {"rewiring"}


def test_curvature_keeps_no_module_level_state():
    """curvature binds only imports, classes and functions at module level,
    decorates no function with a cache and gives none a mutable default."""
    tree = ast.parse((PACKAGE / "curvature.py").read_text())
    definitions = (ast.Import, ast.ImportFrom, ast.ClassDef, ast.FunctionDef)
    body = tree.body[1:] if isinstance(tree.body[0], ast.Expr) else tree.body  # the docstring
    assert all(isinstance(node, definitions) for node in body)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            assert not any("cache" in ast.unparse(d) for d in node.decorator_list), node.name
            defaults = node.args.defaults + node.args.kw_defaults
            assert all(d is None or isinstance(d, ast.Constant) for d in defaults), node.name


@pytest.mark.parametrize("module", ["mpnn", "diagnostics", "emit"])
def test_walks_and_checks_keep_no_module_level_container(module):
    """A dict, list or set bound at module level is shared by every graph and
    every report in the process, so a cache kept there outlives the graphs
    it describes, its memory grows with the corpus, and a rendering cached
    for one report could be written into the next."""
    namespace = vars(importlib.import_module(f"orckit.{module}"))
    containers = (dict, list, set)
    held = [k for k, v in namespace.items() if not k.startswith("__") and isinstance(v, containers)]
    assert held == []


def functions(path):
    """Every function the module at path defines, methods and nested
    functions included, by qualified name ("Class.method")."""
    tree = ast.parse(path.read_text())
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if isinstance(child, ast.FunctionDef):
                    found[prefix + child.name] = child
                visit(child, f"{prefix}{child.name}.")

    visit(tree, "")
    return found


def spells_by_name(node):
    """Whether "by_name" occurs in node as a name or a string."""
    return any(
        getattr(n, "id", None) == "by_name" or getattr(n, "value", None) == "by_name"
        for n in ast.walk(node)
    )


def calls(node):
    """The names node calls, bare or as an attribute."""
    return {
        getattr(n.func, "id", None) or getattr(n.func, "attr", None)
        for n in ast.walk(node)
        if isinstance(n, ast.Call)
    }


def test_verify_streams_and_one_function_tallies():
    """cli writes the stream of `suite_checks` through emit.write_suite and
    holds no report of it. The summary tallies are built in one place, a
    diagnostics function whose only caller in the package is
    emit.write_suite, so every summary is the tally of a written stream;
    emit builds no by_name of its own."""
    assert {"suite_checks", "write_suite"} <= calls(ast.parse((PACKAGE / "cli.py").read_text()))
    builders = [
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        for name, node in functions(path).items()
        if spells_by_name(node)
    ]
    assert len(builders) == 1 and builders[0][0] == "diagnostics", builders
    tally = builders[0][1]
    callers = {path.stem for path in PACKAGE.glob("*.py") if tally in calls(ast.parse(path.read_text()))}
    assert callers == {"emit"}
    assert tally in calls(functions(PACKAGE / "emit.py")["write_suite"])
    assert not spells_by_name(ast.parse((PACKAGE / "emit.py").read_text()))


SOLVER_PARTS = {"_uniform_cost", "_min_cost_flow", "_edge_start", "_plan_cost"}


def referenced_names(path):
    """Every name the module at path reads, imports or takes as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.name.split(".")[-1] for alias in node.names}
    return names


def transport_imports(path):
    """The names the module at path imports from transport; "transport"
    itself when it imports the module whole."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module in ("transport", "orckit.transport"):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "orckit"):
            names |= {alias.name for alias in node.names if alias.name == "transport"}
        elif isinstance(node, ast.Import):
            names |= {"transport" for alias in node.names if alias.name == "orckit.transport"}
    return names


def test_one_solve_path():
    """Only transport touches the solver's parts, and curvature reaches a
    solve only through `edge_cost` or `wasserstein1`, so every edge's cost
    comes from one routine, with its plan check and its phase bound."""
    users = {path.stem for path in PACKAGE.glob("*.py") if referenced_names(path) & SOLVER_PARTS}
    assert users == {"transport"}
    assert transport_imports(PACKAGE / "curvature.py") == {"edge_cost", "wasserstein1"}


def test_one_step_record_builder():
    """Only `rewiring.rewire_loop` builds a RewireStep, so each step record
    is built once, by the one function that knows the graphs before and
    after the step."""
    builders = {
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        for name, node in functions(path).items()
        if "RewireStep" in calls(node)
    }
    assert builders == {("rewiring", "rewire_loop")}


def test_one_edge_front_door():
    """Only `graphs._edge_index`, the front door of every checked per-edge
    call, and `curvature._hub_edges`, the walks' grouping, build a
    NeighborIndex or put an edge's hub first, so an edge's hub is chosen,
    and a caller's index checked, in one place."""
    makers = {
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        for name, node in functions(path).items()
        if calls(node) & {"NeighborIndex", "_hub_first"}
    }
    assert makers == {("graphs", "_edge_index"), ("curvature", "_hub_edges")}
