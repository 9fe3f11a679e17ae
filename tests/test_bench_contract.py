"""The names the benchmark's per-layer tracer wraps still exist.

`perfbench/layers.py` wraps `accesskit` functions by module and attribute
path for `perfbench/run.py --trace 1`, `perfbench/worker.py` reads the
size of `ring._GCD_CACHE`, and `perfbench/tests` checks that the wrapper
of `poly_gcd` replaces it in `ring`, `system` and `groebner` and calls
`ring._prs_gcd` directly.  The file is run from its source, not
imported, so no bytecode is written next to it.
"""

import importlib
import runpy

from conftest import ROOT


def test_every_traced_name_resolves():
    layers = runpy.run_path(str(ROOT / "perfbench" / "layers.py"))
    for module, path, _flag in layers["TARGETS"]:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(owner.__dict__.get(attr)), f"{module}.{path}"
    ring = importlib.import_module("accesskit.ring")
    assert isinstance(ring._GCD_CACHE, dict)
    for module in ("accesskit.system", "accesskit.groebner"):
        assert importlib.import_module(module).poly_gcd is ring.poly_gcd
    # the pair `perfbench/tests/test_bench.py` hands to `_prs_gcd`
    reg = ring.VariableRegistry(("x", "y"), ("u",))
    x, y = reg.var("x"), reg.var("y")
    g = (x + y + reg.one()) * (x - y * y)
    assert ring._prs_gcd(g * (x * y + x), g * (x - y)) == g.primitive()[0]
