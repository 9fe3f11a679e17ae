"""Numeric brute-force oracle.

Floating-point counterparts of the symbolic pipeline: trajectory
simulation, sampled input-Jacobian rank estimation, and a grid scan for
one-dimensional numeric-only maps.  Verdicts here are evidence, not
certificates — only the symbolic path proves anything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .errors import PoleError, VerificationError
from .system import jacobians

POLE_GUARD = 1e-9
RANK_TOL = 1e-8


def _compile(rf):
    """Turn a RationalFunction into a fast numeric callable over a
    name -> float mapping."""
    reg = rf.reg
    names = reg.names()
    num_terms = [(exp, float(c)) for exp, c in rf.num.terms.items()]
    den_terms = [(exp, float(c)) for exp, c in rf.den.terms.items()]

    def ev(vals):
        def side(terms):
            total = 0.0
            for exp, c in terms:
                prod = c
                for i, e in enumerate(exp):
                    if e:
                        prod *= vals[names[i]] ** e
                total += prod
            return total

        den = side(den_terms)
        if abs(den) < POLE_GUARD:
            raise PoleError("denominator magnitude below pole guard")
        return side(num_terms) / den

    return ev


class _NumericSystem:
    """Cached numeric evaluators for phi, A and B of a SystemModel."""

    def __init__(self, sys):
        # names only: a reference to the model would make the cache entry
        # a cycle, and the model would wait for the cyclic GC
        self.states = sys.reg.states
        self.inputs = sys.reg.inputs
        self.phi = [_compile(f) for f in sys.phi]
        A, B = jacobians(sys)
        self.A = [[_compile(e) for e in row] for row in A]
        self.B = [[_compile(e) for e in row] for row in B]

    def bindings(self, x, u, params):
        vals = dict(params)
        for name, v in zip(self.states, x):
            vals[name] = float(v)
        for name, v in zip(self.inputs, u):
            vals[name] = float(v)
        return vals


def _numeric(sys):
    cache = sys._cache
    if "numeric" not in cache:
        cache["numeric"] = _NumericSystem(sys)
    return cache["numeric"]


@dataclass
class Trajectory:
    states: list
    inputs: list

    def __iter__(self):
        return iter(self.states)


def simulate(sys, x0, inputs, params=None):
    """Iterate the state-update map from x0 under the given input
    sequence.  Raises PoleError (with the step index) when a denominator
    magnitude falls below the pole guard."""
    num = _numeric(sys)
    params = {k: float(v) for k, v in (params or {}).items()}
    x = [float(v) for v in x0]
    states = [list(x)]
    for t, u in enumerate(inputs):
        vals = num.bindings(x, u, params)
        try:
            x = [f(vals) for f in num.phi]
        except PoleError as exc:
            raise PoleError(f"pole at simulation step {t}: {exc}") from None
        states.append(list(x))
    return Trajectory(states=states, inputs=[list(map(float, u)) for u in inputs])


def numeric_access_matrix(sys, x0, inputs, params=None):
    """Evaluate the k-step accessibility matrix at (x0, inputs)
    numerically, via the same column-block recursion used symbolically
    but with floating-point Jacobians along the simulated trajectory."""
    num = _numeric(sys)
    params = {k: float(v) for k, v in (params or {}).items()}
    traj = simulate(sys, x0, inputs, params)
    n, m = sys.n, sys.m
    M = None
    for t, u in enumerate(inputs):
        vals = num.bindings(traj.states[t], u, params)
        A = np.array([[f(vals) for f in row] for row in num.A])
        B = np.array([[f(vals) for f in row] for row in num.B])
        M = B if M is None else np.hstack([A @ M, B])
    if M is None:
        raise ValueError("at least one input step required")
    if M.shape != (n, len(inputs) * m):
        raise VerificationError(
            f"accessibility matrix of shape {M.shape}, expected {(n, len(inputs) * m)}"
        )
    return M


def finite_difference_jacobian(sys, x0, inputs, params=None, h=1e-6):
    """Central-difference Jacobian of the k-step end state with respect
    to the stacked input sequence; cross-check for the matrix recursion."""
    k = len(inputs)
    m = sys.m
    cols = []
    for t in range(k):
        for j in range(m):
            up = [list(u) for u in inputs]
            dn = [list(u) for u in inputs]
            up[t][j] += h
            dn[t][j] -= h
            xp = simulate(sys, x0, up, params).states[-1]
            xn = simulate(sys, x0, dn, params).states[-1]
            cols.append([(a - b) / (2 * h) for a, b in zip(xp, xn)])
    return np.array(cols).T


@dataclass
class RankEstimate:
    rank: int
    singular_values: list
    tolerance: float
    samples: int
    best_inputs: list = field(default_factory=list)


def _input_samples(k, m, count, rng, box=1.0):
    """Structured samples (zeros, unit impulses, all-ones) followed by
    uniform draws from the box."""
    out = [[[0.0] * m for _ in range(k)], [[1.0] * m for _ in range(k)]]
    for t in range(min(k, 3)):
        for j in range(m):
            seq = [[0.0] * m for _ in range(k)]
            seq[t][j] = 1.0
            out.append(seq)
    while len(out) < count:
        out.append(
            [[rng.uniform(-box, box) for _ in range(m)] for _ in range(k)]
        )
    return out[:count]


def jacobian_rank(sys, x0, k, samples=25, tol=RANK_TOL, params=None, rng=None):
    """Maximum numeric rank of the k-step input Jacobian over sampled
    input sequences.  Rank counts singular values above tol times the
    largest one.  Raises PoleError only if every sample hits a pole."""
    rng = rng or random.Random(0xACCE55)
    best = None
    ok = 0
    for seq in _input_samples(k, sys.m, samples, rng):
        try:
            M = numeric_access_matrix(sys, x0, seq, params)
        except PoleError:
            continue
        ok += 1
        sv = np.linalg.svd(M, compute_uv=False)
        smax = sv[0] if len(sv) else 0.0
        rank = int(np.sum(sv > tol * smax)) if smax > 0 else 0
        if best is None or rank > best.rank:
            best = RankEstimate(
                rank=rank,
                singular_values=[float(s) for s in sv],
                tolerance=tol,
                samples=samples,
                best_inputs=seq,
            )
            if rank == min(sys.n, k * sys.m):
                break
    if best is None:
        raise PoleError("all input samples hit the pole guard")
    best.samples = ok
    return best


def grid_scan_1d(
    step,
    x_interval,
    u_interval,
    k,
    grid=0.01,
    samples=64,
    threshold=1e-6,
    rng=None,
    h=1e-6,
):
    """Estimate the non-accessibility sets of a one-dimensional numeric
    map x' = step(x, u) on a grid.

    A grid point lands in the level-j set when, for every sampled input
    sequence, every partial derivative of x(1..j) with respect to every
    input is below the threshold in magnitude.  Returns a list of k
    sorted lists of flagged grid values.  This is an estimate — labelled
    verdicts, never certificates.
    """
    rng = rng or random.Random(0x5CA11)
    lo, hi = float(x_interval[0]), float(x_interval[1])
    ulo, uhi = float(u_interval[0]), float(u_interval[1])
    steps = int(round((hi - lo) / grid))
    points = [lo + i * grid for i in range(steps + 1)]
    seqs = [[0.0] * k, [uhi] * k, [ulo] * k]
    while len(seqs) < samples:
        seqs.append([rng.uniform(ulo, uhi) for _ in range(k)])
    seqs = seqs[:samples]

    def run(x0, us):
        x = x0
        out = []
        for u in us:
            x = step(x, u)
            out.append(x)
        return out

    flagged = [[] for _ in range(k)]
    for x0 in points:
        dead_upto = 0
        for j in range(1, k + 1):
            sensitive = False
            for us in seqs:
                for i in range(j):
                    up = list(us[:j])
                    dn = list(us[:j])
                    up[i] += h
                    dn[i] -= h
                    xs_up = run(x0, up)
                    xs_dn = run(x0, dn)
                    if abs(xs_up[j - 1] - xs_dn[j - 1]) / (2 * h) > threshold:
                        sensitive = True
                        break
                if sensitive:
                    break
            if sensitive:
                break
            dead_upto = j
        for j in range(dead_upto):
            flagged[j].append(x0)
    return flagged
