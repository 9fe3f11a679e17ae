"""The benchmark's per-decision outputs stay as recorded.

`perfbench/worker.py` summarises each decision: kappa, the singular set
and, for `index` decisions, r*, certification and the final ideal of a
chain model; the status of a point.  This test replays the first
CHAIN_DECISIONS decisions of round 0 of each chain workload and all of
round 0 of `points`, on each of SEEDS, and compares their summaries with
`tests/bench_expected/` (`<workload>.json` for seed 1,
`<workload>-seed<n>.json` for the others).  A change that alters a verdict
re-records them:

    PYTHONPATH=src python tests/test_bench_outputs.py

`gen.py` and `worker.py` are run from their source, not imported, so no
bytecode is written next to them.
"""

import json
import runpy
import sys
import types

import pytest

import accesskit
from conftest import ROOT

EXPECTED = ROOT / "tests" / "bench_expected"
CHAIN_DECISIONS = 12
WORKLOADS = ("poly-chain", "rational-chain", "points")
SEEDS = (1, 2, 3)


def _stem(workload, seed):
    return workload if seed == 1 else f"{workload}-seed{seed}"


def _load_worker():
    """worker.py's namespace, its `import gen` served from gen.py's source."""
    gen = types.ModuleType("gen")
    gen.__dict__.update(runpy.run_path(str(ROOT / "perfbench" / "gen.py")))
    saved = sys.modules.get("gen")
    sys.modules["gen"] = gen
    try:
        return runpy.run_path(str(ROOT / "perfbench" / "worker.py"))
    finally:
        if saved is None:
            del sys.modules["gen"]
        else:
            sys.modules["gen"] = saved


def summaries(workload, seed):
    """Summaries of the pinned decisions of a workload, in their order."""
    worker = _load_worker()
    decisions = worker["gen"].round_decisions(workload, seed, 0)
    if workload != "points":
        decisions = decisions[:CHAIN_DECISIONS]
    models = {}
    out = []
    for d in decisions:
        if d.text not in models:
            models[d.text] = worker["build_model"](accesskit, d.text)
        result = worker["decide"](accesskit, models[d.text], d)
        out.append(worker["summarize"](d, result))
    return out


@pytest.mark.parametrize(
    ("workload", "seed"),
    [pytest.param(w, s, id=_stem(w, s)) for s in SEEDS for w in WORKLOADS],
)
def test_summaries_match_the_recording(workload, seed):
    expected = json.loads((EXPECTED / f"{_stem(workload, seed)}.json").read_text())
    assert summaries(workload, seed) == expected


if __name__ == "__main__":
    for seed in SEEDS:
        for workload in WORKLOADS:
            doc = json.dumps(summaries(workload, seed), indent=1) + "\n"
            (EXPECTED / f"{_stem(workload, seed)}.json").write_text(doc)
