"""The reduced κ engine against sympy on the benchmark's chain families:
each step Ī_k of `algorithm2`'s chain history equals Ī_k rederived by
sympy from the same system text, by two-way Groebner containment.  The
systems are draw 0 of seed 1 of each `poly-chain` shape and of
`rational-chain`'s `coil_reversed_bound`, whose walk runs on rational
entries; `perfbench/gen.py` is run from its source, not imported, so no
bytecode is written next to it.  fivestep and coil_reversed_bound stop at
k = 2: at k = 3 sympy alone takes seconds."""

import runpy

import pytest

from accesskit import algorithm2, parse_system, to_system_model
from accesskit.analysis import _state_free_denominators
from conftest import ROOT
from sympy_chain import same_ideal, sympy_chain_ideal


@pytest.mark.parametrize(
    "shape,max_k",
    [
        ("shift2", 3),
        ("shift3", 3),
        ("coil_bound", 3),
        ("fivestep", 2),
        ("coil_reversed_bound", 2),
    ],
)
def test_reduced_chain_history_matches_sympy(shape, max_k):
    sympy = pytest.importorskip("sympy")
    gen = runpy.run_path(str(ROOT / "perfbench" / "gen.py"))
    workload = "rational-chain" if shape == "coil_reversed_bound" else "poly-chain"
    text = gen["system_text"](workload, 1, shape, 0)
    model = to_system_model(parse_system(text))
    assert _state_free_denominators(model)
    history = algorithm2(model, max_k=max_k).chain.history
    assert history
    for k, basis in history:
        expected = sympy_chain_ideal(sympy, text, k)
        assert same_ideal(sympy, expected, basis), f"k = {k}:\n{text}"
