"""One benchmark process: imports `accesskit` from the checkout's `src/`
and runs decisions for `run.py`, printing one JSON document.

    worker.py setup <workload> <seed>
        time `import accesskit` and building the models of round 0
    worker.py run <workload> <seed> <seconds> <rounds> <trace>
        run `rounds` whole rounds as a closed loop with one caller, or
        fewer if the run passes TIME_CAP times `seconds`

It is started fresh for every measurement, so `accesskit`'s process-wide
caches start empty each time.

The host's CPU speed drifts by up to 2x within a minute, for whole runs at
a time, and CPU time drifts with wall time.  So the worker also times a
fixed pure-Python `Fraction` loop (`calibrate`) between decisions, at
least every CALIBRATE_EVERY_S, and each decision's wall time is scaled by
REFERENCE_CAL_S over the mean of the calibrations just before and just
after it: seconds at the reference machine's median speed.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
CALIBRATE_EVERY_S = 0.1
# A run stops early, after a whole round, once it has taken this many times
# its nominal length: a far slower program still ends in time.
TIME_CAP = 2.0
# Median of `calibrate()` on the 2-core reference machine (see README).
REFERENCE_CAL_S = 0.00106


def calibrate():
    """Median of three timings of a fixed Fraction loop (each about 1 ms)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 400):
            acc += Fraction(1, i % 97 + 1)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_accesskit():
    t0 = time.perf_counter()
    import accesskit

    import_s = time.perf_counter() - t0
    src = (ROOT / "src").resolve()
    if src not in Path(accesskit.__file__).resolve().parents:
        raise SystemExit(f"accesskit imported from {accesskit.__file__}, not {src}")
    return accesskit, import_s


def build_model(ak, text):
    return ak.to_system_model(ak.parse_system(text))


def _points(report):
    s = report.singular_set
    return [[str(c) for c in p] for p in s.points] if s is not None else []


def decide(ak, model, d):
    """The timed call for one decision; returns what the summary needs."""
    if d.kind == gen.POINT:
        return ak.point_status(model, d.point, d.k)
    report = ak.algorithm2(model)
    if d.kind == gen.INDEX:
        return report, ak.algorithm1(model)
    return report, None


def summarize(d, result):
    if d.kind == gen.POINT:
        return {"in_S_k": result.in_S_k, "undefined": result.undefined}
    report, index = result
    out = {
        "kappa": report.kappa,
        "kind": report.singular_set.kind if report.singular_set else None,
        "points": _points(report),
    }
    if index is not None:
        r_star, final, certified = index
        out["r_star"] = r_star
        out["certified"] = certified
        out["final"] = [str(g) for g in final.groebner_basis()]
    return out


def run(ak, workload, seed, seconds, rounds, trace):
    from accesskit import ring

    tracer = None
    if trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    records = []
    cals = [calibrate()]  # records refer to the calibration before them
    last_cal = time.perf_counter()
    gcd_peak = 0
    start = time.perf_counter()
    r = 0
    while True:
        decisions = gen.round_decisions(workload, seed, r)
        models = {}  # the point models of the round
        for i, d in enumerate(decisions):
            # Built untimed just before use; a chain model (and the caches
            # its analysis fills) is dropped right after, so the heap does
            # not grow over a round and slow later decisions.
            model = models.get(d.text) or build_model(ak, d.text)
            if d.kind == gen.POINT:
                models[d.text] = model
            if time.perf_counter() - last_cal >= CALIBRATE_EVERY_S:
                cals.append(calibrate())
                last_cal = time.perf_counter()
            t0 = time.perf_counter()
            try:
                result = decide(ak, model, d)
            except Exception as exc:  # recorded as a failed decision
                dt = time.perf_counter() - t0
                out = {"error": f"{type(exc).__name__}: {exc}"}
            else:
                dt = time.perf_counter() - t0
                out = summarize(d, result)
            records.append([r, i, dt, len(cals) - 1, out])
            gcd_peak = max(gcd_peak, len(ring._GCD_CACHE))
        r += 1
        if r >= rounds or time.perf_counter() - start > TIME_CAP * seconds:
            break
    cals.append(calibrate())
    for rec in records:
        before, after = cals[rec[3]], cals[rec[3] + 1]
        rec[3] = rec[2] * REFERENCE_CAL_S / ((before + after) / 2)
    doc = {
        "rounds": r,
        # [round, index, wall seconds, reference seconds, output]
        "records": records,
        "calibrations": cals,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "gcd_cache_peak": gcd_peak,
    }
    if tracer is not None:
        tracer.uninstall()
        doc["layers"] = tracer.metrics()
    return doc


def main(argv):
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        before = calibrate()
        ak, import_s = import_accesskit()
        t0 = time.perf_counter()
        for text in gen.round_models(gen.round_decisions(workload, seed, 0)):
            build_model(ak, text)
        models_s = time.perf_counter() - t0
        scale = REFERENCE_CAL_S / ((before + calibrate()) / 2)
        doc = {"import_s": import_s, "models_s": models_s, "scale": scale}
    else:
        ak, _import_s = import_accesskit()
        seconds, rounds, trace = float(argv[3]), int(argv[4]), argv[5] == "1"
        doc = run(ak, workload, seed, seconds, rounds, trace)
    print(json.dumps(doc))


if __name__ == "__main__":
    main(sys.argv[1:])
