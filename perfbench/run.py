"""accesskit benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload poly-chain --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  Each measurement runs in a fresh
single-threaded `worker.py` process that imports `accesskit` from `src/`:

* set-up: seven processes, three before and four after the run, each time
  `import accesskit` plus parsing and building the models of one round;
  `setup_s` is their median;
* `--trace 0`: one process runs a fixed number of whole rounds of seeded
  decisions, about `--seconds` long, untraced, and gives the end-to-end
  metrics;
* `--trace 1`: one untraced and one traced process run the same fixed
  number of rounds; the traced one gives the per-layer metrics and the
  difference between the two is the tracing overhead.

Every output is then checked by `check.py` (sympy, no `accesskit` code).
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Each run also leaves its raw records here (git-ignored), one file per
# workload, seed and trace mode, for attributing time to input shapes.
RESULTS = ROOT / ".bench_results"
# Set-up is measured in fresh processes, some before and some after the
# run, so that the median spans the run rather than one moment of it.
SETUP_BEFORE, SETUP_AFTER = 3, 4
WORKER_TIMEOUT_S = 150
# Wall time of one round on the reference machine (see README).  A run does
# round(seconds / this) rounds, a traced run floor(seconds / 2 / this) rounds
# twice: the work of a run depends on `--seconds` only, never on how fast
# the machine happens to be, so every run of a workload does the same work.
NOMINAL_ROUND_S = {"poly-chain": 9.0, "rational-chain": 9.0, "points": 0.5}

# Columns of a worker record: [round, index, wall s, reference s, output].
WALL, REF = 2, 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_s_p50": "s",
    "verdict_s_p90": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (tracer key, unit); see layers.py.
LAYER_METRICS = {
    "sysfile.parse_system.self_s": ("sysfile.parse_system.self_s", "s"),
    "sysfile.to_system_model.self_s": ("sysfile.to_system_model.self_s", "s"),
    "ring.poly_gcd.calls": ("ring.poly_gcd.calls", "count"),
    "ring.poly_gcd.self_s": ("ring.poly_gcd.self_s", "s"),
    "ring.poly_gcd.trivial": ("ring.poly_gcd.flagged", "count"),
    "ring.divexact.calls": ("ring.divexact.calls", "count"),
    "ring.divexact.self_s": ("ring.divexact.self_s", "s"),
    "ring.collect_by_class.calls": ("ring.collect_by_class.calls", "count"),
    "ring.collect_by_class.self_s": ("ring.collect_by_class.self_s", "s"),
    "system.build_M.self_s": ("system.build_M.self_s", "s"),
    "system.minor_determinants.self_s": ("system.minor_determinants.self_s", "s"),
    "system.bareiss_determinant.calls": ("system.bareiss_determinant.calls", "count"),
    "system.bareiss_determinant.self_s": ("system.bareiss_determinant.self_s", "s"),
    "system.jacobians.calls": ("system.jacobians.calls", "count"),
    "system.jacobians.self_s": ("system.jacobians.self_s", "s"),
    "system.symbolic_rank.calls": ("system.symbolic_rank.calls", "count"),
    "system.symbolic_rank.self_s": ("system.symbolic_rank.self_s", "s"),
    "groebner.normal_form.calls": ("groebner.normal_form.calls", "count"),
    "groebner.normal_form.self_s": ("groebner.normal_form.self_s", "s"),
    "groebner.Ideal.reduce.calls": ("groebner.Ideal.reduce.calls", "count"),
    "groebner.Ideal.contains.calls": ("groebner.Ideal.contains.calls", "count"),
    "groebner.Ideal.contains.new": ("groebner.Ideal.contains.flagged", "count"),
    "groebner.buchberger.calls": ("groebner.buchberger.calls", "count"),
    "groebner.buchberger.self_s": ("groebner.buchberger.self_s", "s"),
    "groebner.radical_heuristic.self_s": ("groebner.radical_heuristic.self_s", "s"),
    "groebner.solve_zero_dim.self_s": ("groebner.solve_zero_dim.self_s", "s"),
    "realroots.real_roots.self_s": ("realroots.real_roots.self_s", "s"),
    "analysis.algorithm2.s": ("analysis.algorithm2.total_s", "s"),
    "analysis.algorithm1.s": ("analysis.algorithm1.total_s", "s"),
    "analysis.point_status.s": ("analysis.point_status.total_s", "s"),
}


class BenchError(Exception):
    pass


def worker(*args):
    """Run worker.py in a fresh single-threaded process; its JSON output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[:2]} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:2]} failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values, q):
    """Nearest-rank quantile q of the values."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def check(workload, seed, doc):
    """Check every record against an independent computation; returns
    (attempted, failed, problems)."""
    import check as checker

    problems = []
    rounds = {}
    failed = 0
    for r, i, _wall, _ref, out in doc["records"]:
        if r not in rounds:
            rounds[r] = gen.round_decisions(workload, seed, r)
        d = rounds[r][i]
        failed += "error" in out
        for p in checker.check_decision(d, out, seed):
            problems.append(f"round {r} #{i} {d.shape}: {p}")
    return len(doc["records"]), failed, problems


def end_to_end(doc, setup, col=REF):
    """End-to-end metrics from the record times in column `col` (REF for
    reference seconds, WALL for the raw wall clock)."""
    done = [rec[col] for rec in doc["records"] if "error" not in rec[4]]
    timed = sum(rec[col] for rec in doc["records"])
    if not done:
        raise BenchError("no decision completed")
    scale = (lambda s: s["scale"]) if col == REF else (lambda s: 1.0)
    return {
        "setup_s": statistics.median(
            (s["import_s"] + s["models_s"]) * scale(s) for s in setup
        ),
        "verdicts_per_s": len(done) / timed,
        "verdict_s_p50": statistics.median(done),
        "verdict_s_p90": quantile(done, 0.9),
        "peak_rss_mb": doc["peak_rss_mb"],
    }


def per_layer(plain, traced, setup):
    """Per-layer metrics; times are scaled to reference seconds by the
    traced run's overall ratio of reference to wall time."""
    records = traced["records"]
    scale = sum(rec[REF] for rec in records) / sum(rec[WALL] for rec in records)
    layers = traced["layers"]
    out = {
        name: layers[key] * (scale if unit == "s" else 1)
        for name, (key, unit) in LAYER_METRICS.items()
    }
    out["accesskit.import_s"] = statistics.median(
        s["import_s"] * s["scale"] for s in setup
    )
    out["ring.gcd_cache.peak_entries"] = traced["gcd_cache_peak"]
    out["trace.decisions"] = len(traced["records"])
    ref = [sum(rec[REF] for rec in d["records"]) for d in (plain, traced)]
    out["trace.overhead_pct"] = 100.0 * (ref[1] / ref[0] - 1.0)
    return out


LAYER_UNITS = {name: unit for name, (_key, unit) in LAYER_METRICS.items()}
LAYER_UNITS.update(
    {
        "accesskit.import_s": "s",
        "ring.gcd_cache.peak_entries": "count",
        "trace.decisions": "count",
        "trace.overhead_pct": "%",
    }
)


def bench(workload, seed, seconds, trace):
    if not (ROOT / "src" / "accesskit").is_dir():
        raise BenchError(f"no accesskit sources under {ROOT / 'src'}")
    setup = [worker("setup", workload, seed) for _ in range(SETUP_BEFORE)]
    if trace:
        rounds = max(1, int(seconds / 2 / NOMINAL_ROUND_S[workload]))
        plain = worker("run", workload, seed, seconds, rounds, 0)
        doc = worker("run", workload, seed, seconds, rounds, 1)
        if [r[4] for r in plain["records"]] != [r[4] for r in doc["records"]]:
            raise BenchError("tracing changed an output")
    else:
        rounds = max(1, round(seconds / NOMINAL_ROUND_S[workload]))
        doc = worker("run", workload, seed, seconds, rounds, 0)
    setup += [worker("setup", workload, seed) for _ in range(SETUP_AFTER)]
    if trace:
        values, units = per_layer(plain, doc, setup), LAYER_UNITS
    else:
        values, units = end_to_end(doc, setup), END_TO_END_UNITS
    attempted, failed, problems = check(workload, seed, doc)
    for p in problems[:20]:
        print("CHECK FAILED:", p, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }
    RESULTS.mkdir(exist_ok=True)
    raw = dict(result, setup=setup, run=doc, problems=problems)
    if not trace:
        raw["wall_clock_metrics"] = end_to_end(doc, setup, WALL)
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(raw)
    )
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = bench(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
