"""System model, Jacobians and accessibility matrices.

The k-step accessibility matrix is built by the recursion
``M_1 = B``, ``M_k = [A<k-1> * M_{k-1} | B<k-1>]`` where A and B are the
state and input Jacobians of the transition map and ``<t>`` evaluates
them along the flow t steps ahead.  `access_steps` is the one
implementation: it starts, steps and resumes every walk, and its callers
choose the domain (symbolic, reduced modulo an ideal, state pinned, or
residues modulo a prime).
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import combinations
from typing import NamedTuple

from .ring import (
    Polynomial,
    RationalFunction,
    VariableRegistry,
    divexact,
    poly_gcd,  # unused here; perfbench/tests checks that its tracer rebinds it
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
            comps.append(f.lift(self.reg) if f.reg != self.reg else f)
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
        """Substitute int or Fraction values for parameters; returns a new system."""
        for k, v in values.items():
            if k not in self.reg.params:
                raise ValueError(f"{k!r} is not a parameter of {self.name}")
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"{k!r} is a {type(v).__name__}, not int or Fraction")
        values = {k: Fraction(v) for k, v in values.items()}
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
        env[base] = target.var(f"{base}({t})" if t else base)
    return env


class WalkStep(NamedTuple):
    """One step of the walk: M_t, and the step-(t-1) environment env and
    A<t-1> it was formed with (A is None at t = 1, where M_1 = B<0>)."""

    t: int
    env: object
    A: list | None
    M: list


def access_steps(sys, start, bind, ev, reduce=None):
    """Walk x_{s+1} = Phi(x_s, u(s)) and yield the records
    WalkStep(t, env_{t-1}, A<t-1>, M_t) for t = 1, 2, ...

    start is the state x_0, or a record to resume from: the walk then goes
    on from Phi at the record's environment, and the record's M is first
    reduced when reduce is given.  The caller supplies the domain: bind(x,
    s) builds the step-s environment, ev(f, env) evaluates a map or
    Jacobian entry in it, and reduce, when given, is applied to each entry
    of A<s> * M_s.  The next state is evaluated only when the walk goes on.
    """
    A, B = jacobians(sys)
    if isinstance(start, WalkStep):
        t, env, _A, M = start
        x = [ev(f, env) for f in sys.phi]
        if reduce is not None:
            M = [[reduce(e) for e in row] for row in M]
    else:
        t, x, M = 0, start, None
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
        t += 1
        yield WalkStep(t, env, A_t, M)
        x = [ev(f, env) for f in sys.phi]


def _dot(row, M, j, reduce):
    terms = [a * m[j] for a, m in zip(row, M)]
    acc = sum(terms[1:], terms[0])
    return acc if reduce is None else reduce(acc)


def walk_matrix(sys, x, k, bind, ev, reduce=None):
    """M_k (k >= 1) along the walk from the state x."""
    if k < 1:
        raise ValueError("horizon must be >= 1")
    for step in access_steps(sys, x, bind, ev, reduce):
        if step.t == k:
            return step.M


def build_M(sys, k):
    """Accessibility matrix M_k over the rational functions (k >= 1): n
    rows of k*m RationalFunction entries.

    The walk is cached on the model as its list of step records, the
    step-t record at index t - 1; a longer horizon resumes from the last
    one, and `minor_determinants` reads A<k-1> from record k."""
    if k < 1:
        raise ValueError("horizon must be >= 1")
    walk = sys._cache.setdefault("walk", [])
    if len(walk) < k:
        x = [RationalFunction(sys.reg.var(s)) for s in sys.reg.states]
        bind, ev = partial(flow_env, sys.reg), RationalFunction.substitute
        for step in access_steps(sys, walk[-1] if walk else x, bind, ev):
            walk.append(step)
            if step.t == k:
                break
    return walk[k - 1].M


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
    """Determinant of a square RationalFunction matrix whose entries share
    one registry (`build_M` puts every entry of M_k and A<k-1> in the
    horizon-k registry).

    Two rules, chosen by the denominators:

    - every column shares one denominator (the shape of M_k): clear each
      column by it, take one fraction-free determinant, and divide by
      each non-constant one.  Clearing pays only here, where it brings no
      other column's factors into an entry, and one polynomial
      determinant costs far less than a rational expansion;
    - any other matrix, at any size: expand along the first row, skipping
      zero entries, in reduced rational arithmetic, which keeps every
      cofactor reduced.
    """
    col_dens = _shared_column_denominators(entries)
    if col_dens is None:
        terms = [
            (e if j % 2 == 0 else -e)
            * _det_rational([row[:j] + row[j + 1 :] for row in entries[1:]])
            for j, e in enumerate(entries[0])
            if not e.is_zero
        ]
        return sum(terms[1:], terms[0]) if terms else entries[0][0]
    det = RationalFunction(bareiss_determinant([[e.num for e in row] for row in entries]))
    for f in col_dens:
        if not f.is_constant:
            det = det / RationalFunction(f)
    return det


def _numerator_det(entries):
    """A polynomial multiple of the numerator of the determinant of a
    square RationalFunction matrix, by a factor of the product of its
    column denominators.

    When every column shares one denominator, the fraction-free
    determinant of the numerators is det * prod(column denominators);
    any other matrix gives the numerator of `_det_rational`."""
    if _shared_column_denominators(entries) is None:
        return _det_rational(entries).num
    return bareiss_determinant([[e.num for e in row] for row in entries])


def _shared_column_denominators(entries):
    """The denominator each column of a RationalFunction matrix shares, or
    None when some column has two."""
    dens = [e.den for e in entries[0]]
    if all(e.den.terms == d.terms for row in entries[1:] for e, d in zip(row, dens)):
        return dens
    return None


def minor_determinants(sys, k):
    """Determinants of all n x n submatrices of M_k, keyed by column set,
    as reduced RationalFunctions, cached on the model.

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
            if old is not None and colset[-1] < old_cols:
                if det_a is None:
                    det_a = _det_rational(sys._cache["walk"][k - 1].A)
                out[colset] = det_a * old[colset]
            else:
                sub = [[M[i][j] for j in colset] for i in range(n)]
                out[colset] = _det_rational(sub)
    sys._cache[key] = out
    return out


def symbolic_rank(entries):
    """Rank of a matrix of RationalFunction entries by exact elimination:
    the generic (maximal) rank."""
    rows = [list(row) for row in entries]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        piv = next((i for i in range(rank, nrows) if not rows[i][col].is_zero), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, nrows):
            if not rows[i][col].is_zero:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def submersivity_check(sys):
    """True iff the combined state-input Jacobian has generic rank n."""
    A, B = jacobians(sys)
    full = [arow + brow for arow, brow in zip(A, B)]
    return symbolic_rank(full) == sys.n
