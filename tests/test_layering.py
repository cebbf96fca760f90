"""The package's import graph, read from the source with ast.

graphs, transport and curvature measure; mpnn measures features and walk
counts; diagnostics states and judges the bounds; rewiring acts on
curvature; cli wires them together. A lower layer that imports a higher one
would let a bound or a rewiring rule leak into a measurement.
"""

import ast
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
    assert importers == {"cli"}
