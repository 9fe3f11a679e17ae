"""System model, forward-shift calculus and accessibility matrices.

The k-step accessibility matrix is built by the recursion
``M_1 = B``, ``M_k = [A<k-1> * M_{k-1} | B<k-1>]`` where A and B are the
state and input Jacobians of the transition map and ``<t>`` evaluates
them along the flow t steps ahead.  `access_steps` is the one
implementation; its callers choose the domain (symbolic, reduced modulo
an ideal, state pinned, or exact samples).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import combinations

from .ring import (
    Polynomial,
    RationalFunction,
    VariableRegistry,
    divexact,
    poly_gcd,
)


class SystemModel:
    """Rational discrete-time system x(t+1) = Phi(x(t), u(t))."""

    def __init__(self, states, inputs, phi, params=(), name="system"):
        self.reg = VariableRegistry(states, inputs, params, horizon=1)
        self.name = name
        comps = []
        for f in phi:
            if isinstance(f, Polynomial):
                f = RationalFunction(f)
            f = f.lift(self.reg) if f.reg != self.reg else f
            for i in f.num.variables_used() | f.den.variables_used():
                t = f.reg.input_time(i)
                if t not in (None, 0):
                    raise ValueError(
                        "transition map may only use current-time inputs"
                    )
            comps.append(f)
        if len(comps) != len(self.reg.states):
            raise ValueError("one transition component per state required")
        self.phi = tuple(comps)
        self._cache = {}

    @property
    def n(self):
        return len(self.reg.states)

    @property
    def m(self):
        return len(self.reg.inputs)

    @property
    def params(self):
        return self.reg.params

    def bind_params(self, values):
        """Substitute rational values for parameters; returns a new system."""
        values = {k: Fraction(v) for k, v in values.items()}
        for k in values:
            if k not in self.reg.params:
                raise ValueError(f"{k!r} is not a parameter of {self.name}")
        remaining = tuple(p for p in self.reg.params if p not in values)
        target = VariableRegistry(self.reg.states, self.reg.inputs, remaining, 1)
        bindings = {**values, **{v: target.var(v) for v in target.names()}}
        return SystemModel(
            self.reg.states,
            self.reg.inputs,
            [f.substitute(bindings) for f in self.phi],
            remaining,
            name=self.name,
        )

    def __repr__(self):
        return f"SystemModel({self.name}, n={self.n}, m={self.m})"


def shift(f, sys, t=1):
    """t-fold forward shift: states become the transition map, input times bump."""
    if t < 0:
        raise ValueError("shift count must be nonnegative")
    for _ in range(t):
        reg = f.reg
        h = max(reg.horizon, 1)
        target = reg.with_horizon(h + 1)
        bindings = {}
        for s, comp in zip(reg.states, sys.phi):
            bindings[s] = comp.lift(target) if comp.reg != target else comp
        for base in reg.inputs:
            for s in range(reg.horizon):
                name = base if s == 0 else f"{base}({s})"
                bindings[name] = target.var(f"{base}({s + 1})")
        f = f.lift(target).substitute(bindings)
    return f


def jacobians(sys):
    """(A, B): entrywise derivatives of the transition map in states/inputs.

    Computed once per model; the rows are tuples, so the cached pair
    cannot be changed through a caller's copy."""
    key = "J"
    if key not in sys._cache:
        sys._cache[key] = (
            tuple(tuple(f.diff(s) for s in sys.reg.states) for f in sys.phi),
            tuple(tuple(f.diff(u) for u in sys.reg.inputs) for f in sys.phi),
        )
    return sys._cache[key]


def flow_env(reg, x, t):
    """Step-t environment of the symbolic walk: the states bound to x and
    each input to its time-t copy, over the horizon-(t+1) registry."""
    target = reg.with_horizon(t + 1)
    env = {s: f.lift(target) for s, f in zip(reg.states, x)}
    for base in reg.inputs:
        env[base] = target.var(f"{base}({t})")
    return env


def access_steps(sys, x, bind, ev, reduce=None, t=0, M=None):
    """Walk x_{s+1} = Phi(x_s, u(s)) from the state x = x_t and yield
    (env_s, A<s>, M_{s+1}) for s = t, t+1, ...

    The caller supplies the domain: bind(x, s) builds the step-s
    environment, ev(f, env) evaluates a map or Jacobian entry in it, and
    reduce, when given, is applied to each entry of A<s> * M_s.  M is M_t
    when the walk resumes at t > 0.  A<0> is never formed (M_1 = B<0>),
    and the next state is evaluated only when the walk goes on.
    """
    A, B = jacobians(sys)
    while True:
        env = bind(x, t)
        B_t = [[ev(e, env) for e in row] for row in B]
        A_t = None
        if M is None:
            M = B_t
        else:
            A_t = [[ev(e, env) for e in row] for row in A]
            M = [
                [_dot(a_row, M, j, reduce) for j in range(len(M[0]))] + b_row
                for a_row, b_row in zip(A_t, B_t)
            ]
        yield env, A_t, M
        x = [ev(f, env) for f in sys.phi]
        t += 1


def _dot(row, M, j, reduce):
    terms = [a * m[j] for a, m in zip(row, M)]
    acc = sum(terms[1:], terms[0])
    return acc if reduce is None else reduce(acc)


def walk_matrix(sys, x, k, bind, ev, reduce=None):
    """M_k (k >= 1) along the walk from the state x."""
    if k < 1:
        raise ValueError("horizon must be >= 1")
    steps = access_steps(sys, x, bind, ev, reduce)
    for _ in range(k):
        _env, _A, M = next(steps)
    return M


def build_M(sys, k):
    """Accessibility matrix M_k over the rational functions (k >= 1): n
    rows of k*m RationalFunction entries.

    The walk is cached on the model as plain per-step data: M_k, A<k-1>
    (for `minor_determinants`) and the point to resume from."""
    if k < 1:
        raise ValueError("horizon must be >= 1")
    cache = sys._cache
    if ("M", k) not in cache:
        t, env, M = cache.get("walk", (0, None, None))
        if env is None:
            x = [RationalFunction(sys.reg.var(s)) for s in sys.reg.states]
        else:
            x = [f.substitute(env) for f in sys.phi]
        steps = access_steps(
            sys, x, partial(flow_env, sys.reg), RationalFunction.substitute, t=t, M=M
        )
        for t, (env, A_t, M) in enumerate(steps, t):
            cache["A", t] = A_t
            cache["M", t + 1] = M
            if t + 1 == k:
                break
        cache["walk"] = (k, env, M)
    return cache["M", k]


def bareiss_determinant(mat):
    """Fraction-free determinant of a square Polynomial matrix."""
    n = len(mat)
    if n == 0:
        raise ValueError("empty matrix")
    reg = mat[0][0].reg
    M = [row[:] for row in mat]
    sign = 1
    prev = reg.one()
    for r in range(n - 1):
        if M[r][r].is_zero:
            swap = next((i for i in range(r + 1, n) if not M[i][r].is_zero), None)
            if swap is None:
                return reg.zero()
            M[r], M[swap] = M[swap], M[r]
            sign = -sign
        for i in range(r + 1, n):
            for j in range(r + 1, n):
                M[i][j] = divexact(M[r][r] * M[i][j] - M[i][r] * M[r][j], prev)
            M[i][r] = reg.zero()
        prev = M[r][r]
    det = M[n - 1][n - 1]
    return det if sign > 0 else -det


def _det_rational(entries):
    """Determinant of a square RationalFunction matrix.

    When every column's entries share a single denominator (the common case
    for matrices built by the accessibility recursion), denominators are
    cleared per column, the numerator determinant is taken fraction-free,
    and the result is reduced against each small column factor separately —
    this avoids forming a gcd of large product denominators.  Otherwise the
    determinant is expanded with reduced rational arithmetic, which keeps
    intermediate fractions small through incremental cancellation.
    """
    n = len(entries)
    if n == 1:
        return entries[0][0]
    target = entries[0][0].reg
    for row in entries:
        for e in row:
            if e.reg.arity > target.arity:
                target = e.reg
    rows = [
        [e.lift(target) if e.reg != target else e for e in row] for row in entries
    ]
    col_dens = []
    shared = True
    for j in range(n):
        d = rows[0][j].den
        if any(rows[i][j].den.terms != d.terms for i in range(1, n)):
            shared = False
            break
        col_dens.append(d)
    if shared:
        det_poly = bareiss_determinant(
            [[rows[i][j].num for j in range(n)] for i in range(n)]
        )
        if det_poly.is_zero:
            return RationalFunction(target.zero(), target.one())
        num = det_poly
        den = target.one()
        for f in col_dens:
            if not f.is_constant:
                g = poly_gcd(num, f)
                if not g.is_constant:
                    num = divexact(num, g)
                    f = divexact(f, g)
            den = den * f
        return RationalFunction._reduced(num, den)
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    rows_poly = []
    den_total = target.one()
    for row in rows:
        # plain product of the row denominators (no lcm; sizes stay small)
        den = target.one()
        for e in row:
            den = den * e.den
        cleared = [e.num * divexact(den, e.den) for e in row]
        rows_poly.append(cleared)
        den_total = den_total * den
    det_poly = bareiss_determinant(rows_poly)
    return RationalFunction(det_poly, den_total)


def minor_determinants(sys, k):
    """Determinants of all n x n submatrices of M_k, keyed by column set.

    Minors drawn entirely from the A-propagated columns factor as
    det(A shifted) times the matching minor of M_{k-1}, which keeps the
    recursion cheap; only column sets touching the newest input block
    need a direct determinant.
    """
    key = ("minor_dets", k)
    if key in sys._cache:
        return sys._cache[key]
    M = build_M(sys, k)
    n, m = sys.n, sys.m
    out = {}
    if k * m >= n:
        old_cols = (k - 1) * m
        old = minor_determinants(sys, k - 1) if k > 1 and old_cols >= n else None
        det_a = None
        for colset in combinations(range(k * m), n):
            if old is not None and all(c < old_cols for c in colset):
                if det_a is None:
                    det_a = _det_rational(sys._cache["A", k - 1])
                out[colset] = det_a * old[colset]
            else:
                sub = [[M[i][j] for j in colset] for i in range(n)]
                out[colset] = _det_rational(sub)
    sys._cache[key] = out
    return out


def symbolic_rank(entries):
    """Rank of a matrix of RationalFunction or Fraction entries by exact
    elimination: the generic (maximal) rank for rational functions."""
    rows = [list(row) for row in entries]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        piv = next((i for i in range(rank, nrows) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, nrows):
            if rows[i][col] != 0:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def submersivity_check(sys):
    """True iff the combined state-input Jacobian has generic rank n."""
    A, B = jacobians(sys)
    full = [arow + brow for arow, brow in zip(A, B)]
    return symbolic_rank(full) == sys.n
