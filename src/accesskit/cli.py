"""Command-line interface.

Subcommands: check, index, singular, point, simulate, rank, scan1d,
backward.  Machine-readable JSON goes to standard output; diagnostics go
to standard error.  Each command reads and checks all it was given (the
arguments, the system file, --bind, --x, --u) before its analysis starts.
Exit codes: 0 success, 3 resource budget exceeded, 4 pole/denominator
degeneracy; any other error is sorted by phase: read before the analysis
starts: exit 2; raised by the analysis, float overflow included: exit 1.
A document holding a non-finite float is no JSON, so it exits 1 as well,
with nothing on standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys as _sys
import time
from fractions import Fraction

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


def _load(path):
    """The parsed system file at path and the SHA-256 of its text."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise AccessKitError(f"cannot read {path}: {exc.strerror or exc}") from None
    return parse_system(text), hashlib.sha256(text.encode()).hexdigest()


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


def _header(digest, binds, started, system, command):
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


def _report_json(report):
    return {
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


def _emit(doc):
    """Write doc as strict JSON (RFC 8259): a non-finite float raises
    ValueError before anything is written."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    _sys.stdout.write(text + "\n")


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

    def common(p, *file, help="system definition file", **how):
        p.add_argument(*file or ("file",), help=help, **how)
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
    p = common(
        sub.add_parser(
            "backward", help="backward accessibility via a supplied inverse system"
        ),
        "--inverse",
        dest="file",
        required=True,
        help="definition file of the time-inverse system",
    )
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
    failure = EXIT_PARSE  # an error before the analysis starts is the input's
    try:
        analyse = _prepare(args, started)
        failure = EXIT_ANALYSIS
        return analyse()
    except ParseError as exc:
        print(f"parse error: {exc}", file=_sys.stderr)
        return EXIT_PARSE
    except ResourceBudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=_sys.stderr)
        return EXIT_BUDGET
    except (PoleError, DegenerateDenominatorError) as exc:
        print(f"pole/degeneracy: {exc}", file=_sys.stderr)
        return EXIT_POLE
    except (AccessKitError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return failure


def _prepare(args, started):
    """Read and check everything the command was given: the system file,
    --bind, --x and --u.  Returns the command's zero-argument runner, which
    runs the analysis, writes the JSON document and returns the exit code."""
    cmd = args.command
    binds = _parse_binds(args.bind)
    spec, digest = _load(args.file)
    if cmd == "scan1d":
        step = to_numeric_step(spec, params=binds)
    else:
        model = to_system_model(spec)
        if binds:
            model = model.bind_params(binds)
    if cmd == "point":
        x0 = _rationals(args.x, model.n, "--x")
    elif cmd in ("simulate", "rank"):  # float runs of a fully bound model
        if model.params:
            raise AccessKitError(
                f"{cmd} needs values for parameters: {', '.join(model.params)}"
            )
        x0 = [float(c) for c in _rationals(args.x, model.n, "--x")]
    if cmd == "simulate":
        inputs = [
            [float(v) for v in _rationals(u, model.m, "every --u step")]
            for u in args.u.split(";")
            if u
        ]

    def analyse():
        code = EXIT_OK
        if cmd == "scan1d":
            sets = grid_scan_1d(
                step,
                args.x_range,
                args.u_range,
                args.k,
                grid=args.grid,
                samples=args.samples,
                threshold=args.threshold,
            )
            levels = [
                {"k": j + 1, "flagged": [round(x, 10) for x in pts]}
                for j, pts in enumerate(sets)
            ]
            body = {"certification": "estimate", "levels": levels}
        elif cmd == "check":
            sub_ok = submersivity_check(model)
            ga = sub_ok and generic_accessibility(model)
            body = {
                "submersive": sub_ok,
                "generically_accessible": ga,
                "verdict": (
                    "generically accessible"
                    if ga
                    else "not generically accessible; singular everywhere"
                ),
            }
        elif cmd == "point":
            verdict = point_status(model, x0, args.k)
            body = {
                "point": [_rat(c) for c in x0],
                "k": verdict.k,
                "in_S_k": verdict.in_S_k,
                "undefined": verdict.undefined,
                "verdict": (
                    "undefined (excluded denominator locus)"
                    if verdict.undefined
                    else (
                        f"not accessible up to {args.k} steps (in S_{args.k})"
                        if verdict.in_S_k
                        else f"accessible (not in S_{args.k})"
                    )
                ),
            }
        elif cmd == "simulate":
            traj = simulate(model, x0, inputs)
            body = {"states": traj.states, "inputs": traj.inputs}
        elif cmd == "rank":
            est = jacobian_rank(model, x0, args.k, samples=args.samples, tol=args.tol)
            body = {
                "k": args.k,
                "rank": est.rank,
                "singular_values": est.singular_values,
                "tolerance": est.tolerance,
                "samples": est.samples,
                "certification": "sampled",
            }
        else:  # index, singular and backward report one chain
            chain = backward_analysis if cmd == "backward" else algorithm2
            report = chain(model, max_k=args.max_k)
            if cmd == "index" and args.exact_radical and report.generically_accessible:
                r_star, _ideal, certified = algorithm1(model, max_k=args.max_k)
                report.r_star = r_star
                report.r_star_certified = certified
            body = _report_json(report)
            code = EXIT_BUDGET if report.budget_exhausted else EXIT_OK
        command = None if cmd == "backward" else cmd
        header = _header(digest, binds, started, spec.name, command)
        _emit({**header, **body})
        return code

    return analyse


if __name__ == "__main__":
    raise SystemExit(main())
