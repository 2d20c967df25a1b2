"""Every name the package exports is used by the package itself: a library
function that no command, verdict or other library code calls is dead
code, unless it is listed below with the reason it stays."""

import ast
from pathlib import Path

import lcwcheck

PACKAGE = Path(lcwcheck.__file__).parent

# Exports that no module of the package uses, each with why it stays.
KEPT = {
    "rotate_operator": "carries the equivariance test of the eigenflag verdict",
    "conformal_rescale": "carries the tests of the conformal transformation laws",
    "r_cross_surface_cy": "closed-form Cotton-York tensor that tests compare against",
    "eigenflag_residual": "the residual F(v) of the eigenflag condition as a public function",
    "snapshot_to_json": "the benchmark calls it",
    "random_metric_near_flat": "the benchmark calls it",
    "prescribe_curvature": "the library entry point of the curvature prescription; the benchmark calls it",
    "prescribe_cotton_york": "the library entry point of the Cotton-York prescription; the benchmark calls it",
}


def _exports():
    """Exported name -> the module it comes from, read from ``__init__``."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def _names_used(module):
    """Every name a module refers to: loads, attributes and imports (a
    ``def`` or ``class`` statement defines its name without referring
    to it)."""
    used = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_export_is_used_by_the_package_or_kept_for_a_reason():
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    used = set().union(*(_names_used(m) for m in modules))
    exports = _exports()
    unused = sorted(name for name in exports if name not in used and name not in KEPT)
    assert unused == [], f"exported but used nowhere in the package: {unused}"
    assert set(KEPT) <= set(exports), "a kept name is no longer exported"
    assert not set(KEPT) & used, "a kept name is now used by the package: drop it from KEPT"
