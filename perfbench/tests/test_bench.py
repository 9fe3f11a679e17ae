"""Tests of the benchmark itself: generator, checker, tracer and a short
run of every workload.

    python -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import gen  # noqa: E402
from layers import Tracer  # noqa: E402


def _key(d):
    return (d.kind, d.shape, d.text, d.point, d.k, d.on_set, d.known_fault)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    a = [_key(d) for d in gen.round_decisions(workload, 7, 3)]
    b = [_key(d) for d in gen.round_decisions(workload, 7, 3)]
    c = [_key(d) for d in gen.round_decisions(workload, 8, 3)]
    assert a == b
    assert a != c


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_no_input_repeats_within_a_run(workload):
    rounds = {"poly-chain": 5, "rational-chain": 3, "points": 80}[workload]
    keys = [_key(d) for r in range(rounds) for d in gen.round_decisions(workload, 7, r)]
    assert len(set(keys)) == len(keys)


def test_rounds_share_one_mix_and_the_known_fault_ignores_the_seed():
    def mix(seed, r):
        return sorted(d.shape for d in gen.round_decisions("rational-chain", seed, r))

    assert mix(1, 0) == mix(2, 5)
    faults = [
        {d.text for d in gen.round_decisions("rational-chain", seed, 4) if d.known_fault}
        for seed in (1, 2)
    ]
    assert faults[0] == faults[1] and len(faults[0]) == 1


def _first(workload, **want):
    for d in gen.round_decisions(workload, 1, 0):
        if all(getattr(d, k) == v for k, v in want.items()):
            return d
    raise LookupError(want)


ORIGIN = [["0", "0"]]


def test_checker_accepts_and_rejects_point_verdicts():
    on = _first("points", shape="fivestep", on_set=True)
    off = _first("points", shape="rational2d", on_set=False)
    assert check.check_decision(on, {"in_S_k": True, "undefined": False}) == []
    assert check.check_decision(off, {"in_S_k": False, "undefined": False}) == []
    # planted flipped verdicts
    assert check.check_decision(on, {"in_S_k": False, "undefined": False})
    assert check.check_decision(off, {"in_S_k": True, "undefined": False})


def test_checker_rejects_a_dropped_singular_point():
    d = _first("poly-chain", shape="coil_bound")
    good = {"kappa": 3, "kind": "points", "points": ORIGIN}
    assert check.check_decision(d, good) == []
    assert check.check_decision(d, dict(good, points=[], kind="empty"))
    # also where no hand-derived value applies
    d = _first("poly-chain", shape="shift2")
    good = {"kappa": 5, "kind": "points", "points": ORIGIN}
    assert check.check_decision(d, good) == []
    assert check.check_decision(d, dict(good, points=[], kind="empty"))


def test_checker_rejects_a_wrong_r_star_set():
    d = _first("rational-chain", shape="coil")
    good = {
        "kappa": 3,
        "kind": "points",
        "points": ORIGIN,
        "r_star": 3,
        "certified": False,
        "final": ["x2", "x1"],
    }
    assert check.check_decision(d, good) == []
    assert check.check_decision(d, dict(good, final=["x2", "x1 - 1"]))
    assert check.check_decision(d, dict(good, final=["x2"]))
    d = gen.Decision(gen.INDEX, "rational2d", gen.rational2d(Fraction(3), Fraction(-2), Fraction(1)))
    assert check.check_decision(d, dict(good, certified=True)) == []
    assert check.check_decision(d, dict(good, r_star=4))


def test_checker_reads_points_in_excluded_state_loci():
    sysc = check.CheckedSystem(
        "system s\nstates x\ninputs u\nx' = 1/(x - 1) + u\n"
    )
    with pytest.raises(ZeroDivisionError):
        sysc.symbolic_rank((Fraction(1),), 1)
    assert sysc.symbolic_rank((Fraction(2),), 1) == 1


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_nested_and_recursive_calls_is_counted_once():
    clock = _Clock()
    tr = Tracer(clock=clock)

    def inner():
        clock.t += 2

    def outer():
        clock.t += 1
        w_inner()
        clock.t += 3

    def rec(n):
        clock.t += 1
        if n:
            w_rec(n - 1)

    w_inner = tr.wrap("inner", inner)
    w_outer = tr.wrap("outer", outer)
    w_rec = tr.wrap("rec", rec)
    w_outer()
    w_rec(2)
    st = tr.stats
    assert (st["outer"].calls, st["outer"].self_s, st["outer"].total_s) == (1, 4, 6)
    assert (st["inner"].calls, st["inner"].self_s, st["inner"].total_s) == (1, 2, 2)
    assert (st["rec"].calls, st["rec"].self_s, st["rec"].total_s) == (3, 3, 6)
    # self times add up to the wall time of the top-level calls
    assert sum(s.self_s for s in st.values()) == clock.t


def test_install_rebinds_every_module_and_counts_gcd_recursion():
    import accesskit
    from accesskit import groebner, ring, system

    orig = ring.poly_gcd
    tr = Tracer()
    tr.install()
    try:
        assert ring.poly_gcd is system.poly_gcd is groebner.poly_gcd
        assert ring.poly_gcd.__wrapped__ is orig
        assert accesskit.poly_gcd is ring.poly_gcd
        reg = ring.VariableRegistry(("x", "y"), ("u",))
        x, y = reg.var("x"), reg.var("y")
        g = (x + y + reg.one()) * (x - y * y)
        assert ring._prs_gcd(g * (x * y + x), g * (x - y)).total_degree() == 3
        st = tr.stats["ring.poly_gcd"]
        assert st.calls >= 1 and st.self_s <= st.total_s
    finally:
        tr.uninstall()
    assert ring.poly_gcd is orig and system.poly_gcd is orig


def _bench(workload, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_short_run_of_each_workload_passes(workload):
    out = _bench(workload, 0)
    assert out["correct"] and out["attempted"] >= 1
    assert out["failed"] == (
        out["attempted"] // len(gen.round_decisions(workload, 3, 0))
        if workload == "rational-chain" else 0
    )
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_reports_every_layer_and_repeats_its_counts():
    a, b = _bench("points", 1, 2), _bench("points", 1, 2)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in a["metrics"].items()} == want
    counts = [
        {k: v["value"] for k, v in run["metrics"].items() if v["unit"] == "count"}
        for run in (a, b)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["system.jacobians.calls"] > 0
