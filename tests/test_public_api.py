"""The package exports what the CLI, the tests and the benchmark use, and
nothing else.

Every name in `accesskit.__all__` must be read somewhere in
`src/accesskit/cli.py`, `tests/*.py` or `perfbench/**/*.py`, and every
name `perfbench/` reads off the package (`ak.X`, `accesskit.X`,
`from accesskit import X`) must be exported or be a submodule.  The
canonical form of `RationalFunction` is known to `ring.py` alone: no other
module names `_canonical`, `_raw` or a private `RationalFunction`
attribute.  The files are parsed with `ast`, never imported.
"""

import ast
import types

import accesskit
from conftest import ROOT

PACKAGE_ALIASES = {"ak", "accesskit"}


def _trees(paths):
    return [ast.parse(p.read_text(), filename=str(p)) for p in paths]


def _names_used(tree):
    """Every identifier a module reads: names, attributes, imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _read_off_package(tree):
    """Names taken from the package itself: `ak.X`, `accesskit.X` and
    `from accesskit import X`."""
    out = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in PACKAGE_ALIASES
        ):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "accesskit":
            out.update(alias.name for alias in node.names)
    return out


def _perfbench_trees():
    return _trees(sorted((ROOT / "perfbench").rglob("*.py")))


def test_every_export_is_used():
    here = ROOT / "tests" / "test_public_api.py"
    tests = [p for p in sorted((ROOT / "tests").glob("*.py")) if p != here]
    trees = _trees([ROOT / "src" / "accesskit" / "cli.py", *tests])
    used = set().union(*map(_names_used, trees + _perfbench_trees()))
    unused = sorted(set(accesskit.__all__) - used)
    assert not unused, f"exported but used by no client: {unused}"


def test_benchmark_reads_only_exports():
    read = set().union(*map(_read_off_package, _perfbench_trees()))
    missing = sorted(
        name
        for name in read
        if not (name.startswith("__") and name.endswith("__"))
        and not isinstance(getattr(accesskit, name, None), types.ModuleType)
        and name not in accesskit.__all__
    )
    assert not missing, f"read off the package but not exported: {missing}"


RING_PRIVATE = {"_canonical", "_raw"}


def _ring_private_lines(tree):
    """Lines that name ring's canonical-form helpers or a private attribute
    of RationalFunction."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            hit = node.id in RING_PRIVATE
        elif isinstance(node, ast.Attribute):
            hit = node.attr in RING_PRIVATE or (
                isinstance(node.value, ast.Name)
                and node.value.id == "RationalFunction"
                and node.attr.startswith("_")
            )
        elif isinstance(node, ast.ImportFrom):
            hit = any(alias.name in RING_PRIVATE for alias in node.names)
        else:
            continue
        if hit:
            out.append(node.lineno)
    return out


def test_canonical_form_stays_inside_ring():
    paths = sorted((ROOT / "src" / "accesskit").glob("*.py"))
    found = [
        f"{p.name}:{line}"
        for p, tree in zip(paths, _trees(paths))
        if p.name != "ring.py"
        for line in _ring_private_lines(tree)
    ]
    assert not found, f"ring's canonical form named outside ring.py: {found}"
