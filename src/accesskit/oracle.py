"""Numeric brute-force oracle.

Floating-point counterparts of the symbolic pipeline: trajectory
simulation, sampled input-Jacobian rank estimation, and a grid scan for
one-dimensional numeric-only maps.  Verdicts here are evidence, not
certificates — only the symbolic path proves anything.  numpy is
imported by the functions that compute with it, so importing the package
for a symbolic run does not load it.

The oracle takes bound models: give parameters values first with
`SystemModel.bind_params`.  A model with free parameters is refused.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .errors import PoleError
from .system import jacobians

POLE_GUARD = 1e-9
RANK_TOL = 1e-8
_H = 1e-6  # step of the central differences


def _compile(rf):
    """Turn a RationalFunction of a bound model into a fast numeric
    callable over the values of `_values`, in registry order."""
    num_terms = [(exp, float(c)) for exp, c in rf.num.terms.items()]
    den_terms = [(exp, float(c)) for exp, c in rf.den.terms.items()]

    def ev(vals):
        def side(terms):
            total = 0.0
            for exp, c in terms:
                prod = c
                for i, e in enumerate(exp):
                    if e:
                        prod *= vals[i] ** e
                total += prod
            return total

        den = side(den_terms)
        if abs(den) < POLE_GUARD:
            raise PoleError("denominator magnitude below pole guard")
        return side(num_terms) / den

    return ev


def _numeric(sys):
    """(phi, A, B) of a bound model as compiled functions, cached on it;
    they hold no reference to the model, which would make the entry a cycle."""
    cache = sys._cache
    if "numeric" not in cache:
        if sys.params:
            raise ValueError(
                "the numeric oracle needs values for parameters: "
                + ", ".join(sys.params)
            )
        A, B = jacobians(sys)
        cache["numeric"] = (
            [_compile(f) for f in sys.phi],
            [[_compile(e) for e in row] for row in A],
            [[_compile(e) for e in row] for row in B],
        )
    return cache["numeric"]


def _values(sys, x, u):
    """A state and an input step as one tuple of floats: states, then inputs."""
    if len(x) != sys.n or len(u) != sys.m:
        raise ValueError(
            f"{sys.name} takes {sys.n} state and {sys.m} input values, "
            f"got {len(x)} and {len(u)}"
        )
    return (*map(float, x), *map(float, u))


@dataclass
class Trajectory:
    states: list
    inputs: list


def simulate(sys, x0, inputs):
    """Iterate the state-update map from x0 under the given input
    sequence.  Raises PoleError (with the step index) when a denominator
    magnitude falls below the pole guard."""
    phi = _numeric(sys)[0]
    x = [float(v) for v in x0]
    states = [x]
    for t, u in enumerate(inputs):
        vals = _values(sys, x, u)
        try:
            x = [f(vals) for f in phi]
        except PoleError as exc:
            raise PoleError(f"pole at simulation step {t}: {exc}") from None
        states.append(x)
    return Trajectory(states=states, inputs=[list(map(float, u)) for u in inputs])


def numeric_access_matrix(sys, x0, inputs):
    """Evaluate the k-step accessibility matrix at (x0, inputs)
    numerically, via the same column-block recursion used symbolically
    but with floating-point Jacobians along the simulated trajectory."""
    import numpy as np
    _, A_fns, B_fns = _numeric(sys)
    traj = simulate(sys, x0, inputs)
    M = None
    for x, u in zip(traj.states, inputs):
        vals = _values(sys, x, u)
        A = np.array([[f(vals) for f in row] for row in A_fns])
        B = np.array([[f(vals) for f in row] for row in B_fns])
        M = B if M is None else np.hstack([A @ M, B])
    if M is None:
        raise ValueError("at least one input step required")
    return M


def finite_difference_jacobian(sys, x0, inputs):
    """Central-difference Jacobian of the k-step end state with respect
    to the stacked input sequence; cross-check for the matrix recursion."""
    import numpy as np
    k = len(inputs)
    m = sys.m
    cols = []
    for t in range(k):
        for j in range(m):
            up = [list(u) for u in inputs]
            dn = [list(u) for u in inputs]
            up[t][j] += _H
            dn[t][j] -= _H
            xp = simulate(sys, x0, up).states[-1]
            xn = simulate(sys, x0, dn).states[-1]
            cols.append([(a - b) / (2 * _H) for a, b in zip(xp, xn)])
    return np.array(cols).T


@dataclass
class RankEstimate:
    rank: int
    singular_values: list
    tolerance: float
    samples: int
    best_inputs: list = field(default_factory=list)


def _input_samples(k, m, count, rng):
    """The first count of: structured samples (zeros, all-ones, unit
    impulses), then uniform draws from [-1, 1], drawn one at a time."""
    structured = [[[0.0] * m for _ in range(k)], [[1.0] * m for _ in range(k)]]
    for t in range(min(k, 3)):
        for j in range(m):
            seq = [[0.0] * m for _ in range(k)]
            seq[t][j] = 1.0
            structured.append(seq)
    yield from structured[:count]
    for _ in range(count - len(structured)):
        yield [[rng.uniform(-1.0, 1.0) for _ in range(m)] for _ in range(k)]


def jacobian_rank(sys, x0, k, samples=25, tol=RANK_TOL):
    """Maximum numeric rank of the k-step input Jacobian over sampled
    input sequences.  Rank counts singular values above tol times the
    largest one.  Raises PoleError only if every sample hits a pole."""
    import numpy as np
    if samples < 1:
        raise ValueError("the sample count must be >= 1")
    rng = random.Random(0xACCE55)
    best = None
    ok = 0
    for seq in _input_samples(k, sys.m, samples, rng):
        try:
            M = numeric_access_matrix(sys, x0, seq)
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
    step, x_interval, u_interval, k, grid=0.01, samples=64, threshold=1e-6
):
    """Estimate the non-accessibility sets of a one-dimensional numeric
    map x' = step(x, u) on a grid.

    A grid point lands in the level-j set when, for every sampled input
    sequence, every partial derivative of x(1..j) with respect to every
    input is below the threshold in magnitude.  Returns a list of k
    sorted lists of flagged grid values.  This is an estimate — labelled
    verdicts, never certificates.
    """
    if samples < 1:
        raise ValueError("the sample count must be >= 1")
    if not 0 < grid < math.inf:
        raise ValueError("the grid step must be finite and > 0")
    lo, hi = float(x_interval[0]), float(x_interval[1])
    ulo, uhi = float(u_interval[0]), float(u_interval[1])

    def seqs():
        """The input sequences, drawn afresh from the one seed: the first
        structured sample is u = 0, clamped into the input range."""
        rng = random.Random(0x5CA11)
        yield from [[min(max(0.0, ulo), uhi)] * k, [uhi] * k, [ulo] * k][:samples]
        for _ in range(samples - 3):
            yield [rng.uniform(ulo, uhi) for _ in range(k)]

    def run(x, us):
        for u in us:
            x = step(x, u)
        return x

    def sensitive(x0, us, i):
        """Whether x(len(us)) moves faster than the threshold in us[i]."""
        up, dn = list(us), list(us)
        up[i] += _H
        dn[i] -= _H
        return abs(run(x0, up) - run(x0, dn)) / (2 * _H) > threshold

    # a point insensitive at level j is tested at level j + 1; the first
    # sensitive level ends its levels
    flagged = [[] for _ in range(k)]
    for x0 in (lo + i * grid for i in range(round((hi - lo) / grid) + 1)):
        for j in range(1, k + 1):
            if any(sensitive(x0, us[:j], i) for us in seqs() for i in range(j)):
                break
            flagged[j - 1].append(x0)
    return flagged
