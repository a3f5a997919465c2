"""Each module of the package keeps its private names to itself."""

import ast
import pathlib

import rkhsivp

SRC = pathlib.Path(rkhsivp.__file__).parent


def private_imports(path):
    """``(line, module, name)`` for each ``_``-prefixed name ``path`` imports from elsewhere."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        (node.lineno, node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_module_imports_a_private_name():
    found = {path.name: private_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert len(found) >= 9
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_check_sees_private_imports(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from .collocation import _quasiseparable_product, build_basis\n"
        "from rkhsivp.rhs_expr import _MAX_DEPTH as depth\n"
        "import numpy as _np\n",
        encoding="utf-8",
    )
    assert private_imports(module) == [
        (1, "collocation", "_quasiseparable_product"),
        (2, "rkhsivp.rhs_expr", "_MAX_DEPTH"),
    ]
