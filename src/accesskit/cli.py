"""Command-line interface.

Subcommands: check, index, singular, point, simulate, rank, scan1d,
backward.  Machine-readable JSON goes to standard output; diagnostics go
to standard error.  Exit codes: 0 success, 1 analysis failure (an error
raised by the analysis itself, not by its input), 2 parse or usage error
(reading the arguments, loading or binding the system file), 3 resource
budget exceeded, 4 pole/denominator degeneracy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys as _sys
import time
from fractions import Fraction
from functools import partial

from . import __version__
from .analysis import (
    algorithm1,
    algorithm2,
    backward_analysis,
    generic_accessibility,
    point_status,
)
from .errors import (
    AccessKitError,
    DegenerateDenominatorError,
    PoleError,
    ResourceBudgetError,
)
from .oracle import grid_scan_1d, jacobian_rank, simulate
from .sysfile import ParseError, parse_system, to_numeric_step, to_system_model
from .system import submersivity_check

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_POLE = 4

_MAX_GRID_POINTS = 10**6


def _load(path, binds):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise AccessKitError(f"cannot read {path}: {exc.strerror or exc}") from None
    spec = parse_system(text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    if spec.numeric_only:
        for name in binds:
            if name not in spec.params:
                raise ValueError(f"{name!r} is not a parameter of {spec.name}")
        return spec, None, digest
    model = to_system_model(spec)
    if binds:
        model = model.bind_params(binds)
    return spec, model, digest


def _parse_binds(items):
    out = {}
    for item in items or []:
        for piece in item.split(","):
            if not piece:
                continue
            name, _, value = piece.partition("=")
            if not _:
                raise AccessKitError(f"expected NAME=VALUE in --bind {piece!r}")
            out[name.strip()] = _rational(value, "--bind")
    return out


def _rational(text, flag):
    """One rational given to flag; a malformed one is an AccessKitError."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        message = f"{flag} needs rationals; {text!r} is not one"
        raise AccessKitError(message) from None


def _rat(x):
    f = Fraction(x)
    return str(f) if f.denominator != 1 else str(f.numerator)


def _singular_json(s):
    if s is None:
        return None
    return {
        "kind": s.kind,
        "points": [[_rat(c) for c in p] for p in s.points],
        "boxes": [[name, _rat(b.lo), _rat(b.hi)] for name, b in s.boxes],
        "generators": [str(g) for g in s.generators],
        "message": s.message,
    }


def _header(digest, binds, started, system, command=None):
    """The keys every JSON document shares (`backward` has no command).  A
    document made under --bind records the values bound, so two documents
    of one file tell an applied binding from none."""
    doc = {
        "tool": "accesskit",
        "version": __version__,
        "input_sha256": digest,
        "system": system,
        "elapsed_seconds": round(time.time() - started, 3),
    }
    if binds:
        doc["bindings"] = {name: _rat(v) for name, v in binds.items()}
    if command is not None:
        doc["command"] = command
    return doc


def _report_json(report, header, command=None):
    return {
        **header(report.system_name, command),
        "mode": report.mode,
        "submersive": report.submersive,
        "generically_accessible": report.generically_accessible,
        "kappa": report.kappa,
        "budget_exhausted": report.budget_exhausted,
        "r_star": report.r_star,
        "r_star_certified": report.r_star_certified,
        "certification": "exact",
        "singular_set": _singular_json(report.singular_set),
        "excluded_locus": [str(p) for p in report.excluded_locus],
        "chain": [
            {"k": k, "basis": [str(g) for g in gb], "certification": "exact"}
            for k, gb in (report.chain.history if report.chain else [])
        ],
    }


class _AnalysisFailure(Exception):
    """An AccessKitError or ValueError raised by the analysis itself."""


def _analyse(fn, *args, **kwargs):
    """Call one analysis step; budget and pole errors keep their own codes."""
    try:
        return fn(*args, **kwargs)
    except (ResourceBudgetError, PoleError, DegenerateDenominatorError):
        raise
    except (AccessKitError, ValueError) as exc:
        raise _AnalysisFailure(exc) from exc


def _emit(doc):
    json.dump(doc, _sys.stdout, indent=2, sort_keys=True)
    _sys.stdout.write("\n")


def _rationals(text, n, flag):
    """The n comma-separated rationals given to flag, as a tuple."""
    parts = [p for p in text.split(",") if p]
    if len(parts) != n:
        raise AccessKitError(f"{flag} needs {n} comma-separated rationals")
    return tuple(_rational(p, flag) for p in parts)


def _interval(text):
    """A 'lo,hi' range with finite ends and lo < hi, as (lo, hi)."""
    try:
        lo, hi = map(float, text.split(","))
    except ValueError:
        lo = hi = math.nan
    if not -math.inf < lo < hi < math.inf:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a range lo,hi with finite ends and lo < hi"
        )
    return lo, hi


def _nonnegative(text):
    """A finite float >= 0 (a tolerance or a threshold)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number >= 0")
    return value


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="accesskit",
        description="Forward-accessibility analysis of rational "
        "discrete-time control systems.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="system definition file")
        p.add_argument(
            "--bind",
            action="append",
            metavar="NAME=VALUE",
            help="substitute a rational value for a parameter "
            "(repeatable, comma-separable)",
        )
        return p

    common(sub.add_parser("check", help="submersivity and generic accessibility"))
    p = common(sub.add_parser("index", help="stabilization index and chain"))
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument(
        "--exact-radical",
        action="store_true",
        help="also run the radical-chain procedure for the accessibility index",
    )
    p = common(sub.add_parser("singular", help="singular-point set"))
    p.add_argument("--max-k", type=int, default=None)
    p = common(sub.add_parser("point", help="membership of a state in S_k"))
    p.add_argument("--x", required=True, help="comma-separated rational state")
    p.add_argument("--k", required=True, type=int)
    p = common(sub.add_parser("simulate", help="numeric trajectory"))
    p.add_argument("--x", required=True)
    p.add_argument(
        "--u",
        required=True,
        help="semicolon-separated input steps, comma-separated within a step",
    )
    p = common(sub.add_parser("rank", help="numeric input-Jacobian rank"))
    p.add_argument("--x", required=True)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--tol", type=_nonnegative, default=1e-8)
    p = common(sub.add_parser("scan1d", help="grid scan of a 1-D numeric map"))
    p.add_argument("--k", type=int, default=2)
    p.add_argument(
        "--grid",
        type=float,
        default=0.01,
        help=f"grid step; at most {_MAX_GRID_POINTS:,} grid points over --x-range",
    )
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--threshold", type=_nonnegative, default=1e-6)
    for name, default in (("--x-range", "0,2"), ("--u-range", "-1,1")):
        hint = f"range lo,hi; one that starts with '-' is written {name}=-1,1"
        p.add_argument(name, type=_interval, default=default, help=hint)
    p = sub.add_parser(
        "backward", help="backward accessibility via a supplied inverse system"
    )
    p.add_argument(
        "--inverse", required=True, help="definition file of the time-inverse system"
    )
    p.add_argument("--bind", action="append", metavar="NAME=VALUE")
    p.add_argument("--max-k", type=int, default=None)

    args = ap.parse_args(argv)
    if args.command in ("point", "rank", "scan1d") and args.k < 1:
        ap.error("argument --k: the horizon must be >= 1")
    if getattr(args, "max_k", None) is not None and args.max_k < 1:
        ap.error("argument --max-k: the horizon budget must be >= 1")
    if args.command in ("rank", "scan1d") and args.samples < 1:
        ap.error("argument --samples: the sample count must be >= 1")
    if args.command == "scan1d":
        if not 0 < args.grid < math.inf:
            ap.error("argument --grid: the grid step must be finite and > 0")
        # the scan visits round(span / grid) + 1 grid points
        span = args.x_range[1] - args.x_range[0]
        if not span / args.grid < _MAX_GRID_POINTS - 0.5:
            ap.error(
                f"argument --grid: more than {_MAX_GRID_POINTS:,} grid points "
                "over --x-range"
            )
    started = time.time()
    try:
        return _dispatch(args, started)
    except ParseError as exc:
        print(f"parse error: {exc}", file=_sys.stderr)
        return EXIT_PARSE
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=_sys.stderr)
        return EXIT_BUDGET
    except (PoleError, DegenerateDenominatorError) as exc:
        print(f"pole/degeneracy: {exc}", file=_sys.stderr)
        return EXIT_POLE
    except _AnalysisFailure as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_ANALYSIS
    except (AccessKitError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_PARSE


def _dispatch(args, started):
    binds = _parse_binds(getattr(args, "bind", None))
    cmd = args.command

    if cmd == "backward":
        spec, model, digest = _load(args.inverse, binds)
        if model is None:
            raise AccessKitError("backward analysis needs a symbolic system")
        report = _analyse(backward_analysis, model, max_k=args.max_k)
        _emit(_report_json(report, partial(_header, digest, binds, started)))
        return EXIT_BUDGET if report.budget_exhausted else EXIT_OK

    spec, model, digest = _load(args.file, binds)
    header = partial(_header, digest, binds, started)

    if cmd == "scan1d":
        step = to_numeric_step(spec, params=binds)
        sets = _analyse(
            grid_scan_1d,
            step,
            args.x_range,
            args.u_range,
            args.k,
            grid=args.grid,
            samples=args.samples,
            threshold=args.threshold,
        )
        _emit(
            {
                **header(spec.name, "scan1d"),
                "certification": "estimate",
                "levels": [
                    {"k": j + 1, "flagged": [round(x, 10) for x in pts]}
                    for j, pts in enumerate(sets)
                ],
            }
        )
        return EXIT_OK

    if model is None:
        raise AccessKitError(
            f"{cmd!r} needs an exact symbolic system (file is numeric-only)"
        )

    if cmd == "check":
        sub_ok = _analyse(submersivity_check, model)
        ga = sub_ok and _analyse(generic_accessibility, model)
        _emit(
            {
                **header(model.name, "check"),
                "submersive": sub_ok,
                "generically_accessible": ga,
                "verdict": (
                    "generically accessible"
                    if ga
                    else "not generically accessible; singular everywhere"
                ),
            }
        )
        return EXIT_OK

    if cmd in ("index", "singular"):
        report = _analyse(algorithm2, model, max_k=args.max_k)
        if cmd == "index" and args.exact_radical and report.generically_accessible:
            r_star, _ideal, certified = _analyse(algorithm1, model, max_k=args.max_k)
            report.r_star = r_star
            report.r_star_certified = certified
        _emit(_report_json(report, header, cmd))
        return EXIT_BUDGET if report.budget_exhausted else EXIT_OK

    if cmd == "point":
        x0 = _rationals(args.x, model.n, "--x")
        verdict = _analyse(point_status, model, x0, args.k)
        label = (
            "undefined (excluded denominator locus)"
            if verdict.undefined
            else (
                f"not accessible up to {args.k} steps (in S_{args.k})"
                if verdict.in_S_k
                else f"accessible (not in S_{args.k})"
            )
        )
        _emit(
            {
                **header(model.name, "point"),
                "point": [_rat(c) for c in x0],
                "k": verdict.k,
                "in_S_k": verdict.in_S_k,
                "undefined": verdict.undefined,
                "verdict": label,
            }
        )
        return EXIT_OK

    # simulate and rank: float runs of a fully bound model
    if model.params:
        raise AccessKitError(
            f"{cmd} needs values for parameters: {', '.join(model.params)}"
        )
    x0 = [float(c) for c in _rationals(args.x, model.n, "--x")]

    if cmd == "simulate":
        inputs = [
            [float(v) for v in _rationals(step, model.m, "every --u step")]
            for step in args.u.split(";")
            if step
        ]
        traj = _analyse(simulate, model, x0, inputs)
        _emit(
            {
                **header(model.name, "simulate"),
                "states": traj.states,
                "inputs": traj.inputs,
            }
        )
        return EXIT_OK

    if cmd == "rank":
        est = _analyse(
            jacobian_rank, model, x0, args.k, samples=args.samples, tol=args.tol
        )
        _emit(
            {
                **header(model.name, "rank"),
                "k": args.k,
                "rank": est.rank,
                "singular_values": est.singular_values,
                "tolerance": est.tolerance,
                "samples": est.samples,
                "certification": "sampled",
            }
        )
        return EXIT_OK

    raise AccessKitError(f"unknown command {cmd!r}")


if __name__ == "__main__":
    raise SystemExit(main())
