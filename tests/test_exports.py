"""Every public function, class and method of the package is used by the
package itself: one that no command, verdict or other library code calls
is dead code, unless it is listed below with the reason it stays."""

import ast
from pathlib import Path

import lcwcheck

PACKAGE = Path(lcwcheck.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

# Public names that no module of the package uses, each with why it stays;
# a method is written Class.method.
KEPT = {
    "rotate_operator": "carries the equivariance test of the eigenflag verdict",
    "conformal_rescale": "carries the tests of the conformal transformation laws",
    "r_cross_surface_cy": "closed-form Cotton-York tensor that tests compare against",
    "eigenflag_residual": "the residual F(v) of the eigenflag condition as a public function",
    "snapshot_to_json": "the benchmark calls it",
    "random_metric_near_flat": "the benchmark calls it",
    "prescribe_curvature": "the library entry point of the curvature prescription; the benchmark calls it",
    "prescribe_cotton_york": "the library entry point of the Cotton-York prescription; the benchmark calls it",
    "hodge_star_matrix": "test oracle: the Hodge star that the dim-4 split is checked against",
    "cp2_curvature": "test oracle: the Fubini-Study curvature table of the cp2_chart entry",
    "TensorSnapshot.check_invariants": "test oracle; its identities are the benchmark's reference",
    "CatalogEntry.sample_points": "the benchmark draws its catalog points with it",
}


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _names_used(module):
    """Every name a module refers to: loads, attributes and imports (a
    ``def`` or ``class`` statement defines its name without referring
    to it)."""
    used = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def _is_command(node):
    """A function registered as a click command (``@main.command(...)``)."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "command"
        for d in node.decorator_list
    )


def _public_definitions(module):
    """(name used to look it up, name written in KEPT) of each public
    module-level function and class and each public method of a public
    class; click commands are used by the command line."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    for node in _tree(module).body:
        if not isinstance(node, defs) or node.name.startswith("_") or _is_command(node):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs) and not member.name.startswith("_"):
                    yield member.name, f"{node.name}.{member.name}"


def test_every_public_definition_is_used_by_the_package_or_kept_for_a_reason():
    used = set().union(*(_names_used(m) for m in MODULES))
    defined = {kept: name for m in MODULES for name, kept in _public_definitions(m)}
    unused = sorted(kept for kept, name in defined.items() if name not in used and kept not in KEPT)
    assert unused == [], f"defined but used nowhere in the package: {unused}"
    assert set(KEPT) <= set(defined), "a kept name is no longer defined"
    assert not {k for k in KEPT if defined[k] in used}, "a kept name is now used by the package: drop it from KEPT"


def test_every_export_is_a_public_definition():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    exports = {a.asname or a.name for n in tree.body if isinstance(n, ast.ImportFrom) for a in n.names}
    defined = {name for m in MODULES for name, kept in _public_definitions(m) if name == kept}
    assert exports <= defined
