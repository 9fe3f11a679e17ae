"""Seeded inputs for the benchmark workloads.

Everything here is plain text and `random.Random`: the generator imports
neither `accesskit` nor sympy, so the program under test and the checker
both start from the same system text.

A run is a sequence of rounds.  Round `r` of workload `w` under seed `s`
is a fixed list of decisions (one per shape slot below), each on an input
no other decision of the run has (see POOLS), in an order shuffled by
`Random(f"{w}:{s}:{r}")`.  Every round of a workload has the same shape
mix, so the share of any operation, failing ones included, is the same
in every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

WORKLOADS = ("poly-chain", "rational-chain", "points")

# Decision kinds: "alg2" is one algorithm2 call; "index" is algorithm2 then
# algorithm1 on the same model (`index --exact-radical`); "point" is one
# point_status call.
ALG2, INDEX, POINT = "alg2", "index", "point"

# (shape, count) per round.  fivestep draws differ by up to +-30% in cost;
# the shift2/shift3 cluster keeps its share of a round near a third, and
# holds the 90th percentile of decision times, while the median falls in
# the coil_bound cluster.
POLY_CHAIN_MIX = (("fivestep", 1), ("shift2", 8), ("shift3", 4), ("coil_bound", 40))
# The clusters are sized so that the median decision falls inside the
# `coil` cluster and the 90th percentile inside the body of the
# `coil_reversed_bound` cluster, away from the edges where a quantile
# jumps between clusters.  rational2d is left out: its draws differ by
# +-30% in cost, and one of them, a fifth of a round, spread
# verdicts_per_s by about 0.1 between seeds.
RATIONAL_CHAIN_MIX = (
    ("coil_reversed", 1),
    ("coil_reversed_bound", 18),
    ("coil", 72),
    ("sevenpoint", 1),
)
CHAIN_MIX = {
    "poly-chain": (ALG2, POLY_CHAIN_MIX),
    "rational-chain": (INDEX, RATIONAL_CHAIN_MIX),
}
# points: one model per corpus shape per round, horizons 2..kappa+1, and at
# every horizon OFF_SET random points plus the origin, which lies on the
# singular set of every shape (a fixed point where the input Jacobian
# vanishes).  The on-set share is 1 / (OFF_SET + 1).
POINT_SHAPES = ("coil", "coil_reversed", "fivestep", "rational2d")
POINT_KAPPA = {"coil": 3, "coil_reversed": 3, "fivestep": 6, "rational2d": 3}
OFF_SET = 3


@dataclass
class Decision:
    """One timed call on one input."""

    kind: str
    shape: str
    text: str  # the system file
    point: tuple = ()  # exact state, as Fractions (kind "point")
    k: int = 0  # horizon (kind "point")
    on_set: bool = False  # the point was drawn on the singular set
    known_fault: bool = False  # fails today on every seed (see README)


def _q(c):
    """A rational coefficient as parser text."""
    c = Fraction(c)
    return f"({c.numerator}/{c.denominator})" if c.denominator != 1 else f"({c})"


def _header(states, inputs, params=()):
    lines = ["system bench"]
    if params:
        lines.append("params " + " ".join(params))
    lines.append("states " + " ".join(states))
    lines.append("inputs " + " ".join(inputs))
    return "\n".join(lines) + "\n"


def fivestep(c):
    return _header(("x1", "x2"), ("u",)) + (
        f"x1' = x2\nx2' = -x1 + x2 + u*(x2^2 - {_q(c)}*x2)\n"
    )


def shift2(c):
    return _header(("x1", "x2"), ("u",)) + (
        f"x1' = x2\nx2' = -x1 + u*(x2^2 - {_q(c)}*x2)\n"
    )


def shift3(a):
    return _header(("x1", "x2", "x3"), ("u",)) + (
        f"x1' = x2\nx2' = x3\nx3' = {_q(a)}*x1 + u*x3\n"
    )


def coil_bound(T, a, b):
    return _header(("x1", "x2"), ("u",)) + (
        f"x1' = x1 + {_q(T)}*x2\n"
        f"x2' = x2 + {_q(T)}*({_q(a)}*x1*u - {_q(b)}*x2)\n"
    )


def coil(c):
    """systems/coil.sys with x2 rescaled by c: the same system up to a
    diagonal change of state coordinates, so kappa and S carry over."""
    return _header(("x1", "x2"), ("u",), ("T", "a", "b")) + (
        f"x1' = x1 + {_q(c)}*T*x2\n"
        f"x2' = x2 + T*({_q(1 / Fraction(c))}*a*x1*u - b*x2)\n"
    )


def coil_reversed(c):
    """systems/coil_reversed.sys with z2 rescaled by c (same system up to a
    diagonal change of state coordinates)."""
    den = "(v*a*T^2 + b*T - 1)"
    return _header(("z1", "z2"), ("v",), ("T", "a", "b")) + (
        f"z1' = ((b*z1 + {_q(c)}*z2)*T - z1)/{den}\n"
        f"z2' = (v*{_q(1 / Fraction(c))}*z1*a*T - z2)/{den}\n"
    )


def coil_reversed_bound(T, a, b):
    den = f"(v*{_q(a)}*{_q(T)}^2 + {_q(b)}*{_q(T)} - 1)"
    return _header(("z1", "z2"), ("v",)) + (
        f"z1' = (({_q(b)}*z1 + z2)*{_q(T)} - z1)/{den}\n"
        f"z2' = (v*z1*{_q(a)}*{_q(T)} - z2)/{den}\n"
    )


def rational2d(c, d, e):
    """x1' = c*x2/(u + d*x1), x2' = e*x1 + x2: with x1 = a*y1, x2 = e*a*y2,
    u = d*a*w and a = c*e/d this is systems/rational2d.sys exactly, so its
    hand-derived values (kappa = 3, r* = 3, S = {(0,0)}) carry over."""
    return _header(("x1", "x2"), ("u",)) + (
        f"x1' = {_q(c)}*x2/(u + {_q(d)}*x1)\nx2' = {_q(e)}*x1 + x2\n"
    )


def sevenpoint(r):
    """x' = x + u*(x-r)(x-r-1)...(x-r-6): seven rational singular states."""
    factors = "*".join(f"(x - {r + i})" for i in range(7))
    return _header(("x",), ("u",)) + f"x' = x + u*{factors}\n"


def _rationals(top, dens):
    """The distinct nonzero rationals +-p/q with p <= top and q in dens."""
    return sorted({Fraction(s * p, q) for p in range(1, top + 1) for q in dens for s in (1, -1)})


# Coefficient pools per shape.  A run takes its draws for a shape without
# replacement from one seeded permutation of the pool, so no input repeats
# within a run (which would let the gcd cache answer it) until the pool is
# used up.  The pools are sized for the longest runs the benchmark makes.
_COIL_PARAMS = [
    # q prime above 5, p <= 3 and 1 <= a, b <= 5 keep b*T != 1 and a*T != 0,
    # away from the degenerate parameter values.
    (Fraction(p, q), Fraction(a), Fraction(b))
    for p in (1, 2, 3)
    for q in (7, 11, 13, 17, 19)
    for a in range(1, 6)
    for b in range(1, 6)
]
POOLS = {
    "fivestep": _rationals(9, (1, 2, 3, 5)),
    # a points run has about 70 rounds, one fivestep model each
    "fivestep_points": _rationals(20, (1, 2, 3, 5, 7)),
    "shift2": _rationals(9, (1, 2, 3, 5)),
    "shift3": _rationals(9, (1, 2, 3, 5)),
    "coil_bound": _COIL_PARAMS,
    "coil": _rationals(60, (1, 2, 3, 5, 7)),
    "coil_reversed": _rationals(60, (1, 2, 3, 5, 7)),
    "coil_reversed_bound": _COIL_PARAMS,
    # d and e stay integers: with d = 1/2 the same system takes 128 s
    # instead of 5 s (see CHANGES.md), which would swamp a run.
    "rational2d": [
        (c, d, e)
        for c in _rationals(5, (1, 2, 3))
        for d in _rationals(3, (1,))
        for e in _rationals(3, (1,))
    ],
}
TEXT_OF = {
    "fivestep": fivestep,
    "fivestep_points": fivestep,
    "shift2": shift2,
    "shift3": shift3,
    "coil_bound": lambda p: coil_bound(*p),
    "coil": coil,
    "coil_reversed": coil_reversed,
    "coil_reversed_bound": lambda p: coil_reversed_bound(*p),
    "rational2d": lambda p: rational2d(*p),
}


@lru_cache(maxsize=None)
def _permutation(workload, seed, pool):
    draws = list(POOLS[pool])
    random.Random(f"{workload}:{seed}:{pool}").shuffle(draws)
    return draws


def system_text(workload, seed, pool, n):
    """The n-th draw from a pool in a run."""
    draws = _permutation(workload, seed, pool)
    return TEXT_OF[pool](draws[n % len(draws)])


def _random_point(rng, n):
    return tuple(
        Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 5))
        for _ in range(n)
    )


def round_decisions(workload, seed, r):
    """The decisions of round r, in their seeded shuffled order."""
    rng = random.Random(f"{workload}:{seed}:{r}")
    out = []
    if workload in CHAIN_MIX:
        kind, mix = CHAIN_MIX[workload]
        for shape, count in mix:
            if shape == "sevenpoint":
                # Independent of the seed: fails on every seed today
                # (algorithm1 -> vanishing_ideal caps at 6 points).
                out.append(Decision(kind, shape, sevenpoint(r), known_fault=True))
                continue
            out.extend(
                Decision(kind, shape, system_text(workload, seed, shape, r * count + j))
                for j in range(count)
            )
    elif workload == "points":
        for shape in POINT_SHAPES:
            pool = "fivestep_points" if shape == "fivestep" else shape
            text = system_text(workload, seed, pool, r)
            for k in range(2, POINT_KAPPA[shape] + 2):
                out.append(Decision(POINT, shape, text, (Fraction(0),) * 2, k, True))
                points = set()
                while len(points) < OFF_SET:
                    points.add(_random_point(rng, 2))
                out.extend(Decision(POINT, shape, text, p, k) for p in sorted(points))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(out)
    return out


def round_models(decisions):
    """Distinct system texts of a round, in first-use order: the models a
    round needs to parse and build."""
    return list(dict.fromkeys(d.text for d in decisions))
