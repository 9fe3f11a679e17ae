"""System model, forward-shift calculus and accessibility matrices.

The k-step accessibility matrix is built by the recursion
``M_1 = B``, ``M_k = [shift(A, k-1) * M_{k-1} | shift(B, k-1)]`` where A and
B are the state and input Jacobians of the transition map and the shift
substitutes the transition map for the states while bumping input time
indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .errors import ZeroPolynomialError
from .groebner import CERT_EXACT, Ideal, clear_param_content, to_state_ring
from .ring import (
    Polynomial,
    RationalFunction,
    VariableRegistry,
    collect_by_class,
    divexact,
    poly_gcd,
    square_free_part,
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
        new_phi = []
        for f in self.phi:
            g = f.substitute(values)
            num = Polynomial(
                target,
                {self._strip_exp(e, remaining): c for e, c in g.num.terms.items()},
                _clean=True,
            )
            den = Polynomial(
                target,
                {self._strip_exp(e, remaining): c for e, c in g.den.terms.items()},
                _clean=True,
            )
            new_phi.append(RationalFunction(num, den))
        return SystemModel(
            self.reg.states, self.reg.inputs, new_phi, remaining, name=self.name
        )

    def _strip_exp(self, e, remaining):
        reg = self.reg
        keep = [
            x
            for i, x in enumerate(e)
            if reg.kind(i) != "parameter" or reg.name(i) in remaining
        ]
        return tuple(keep)

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
                bindings[name] = RationalFunction(target.var(f"{base}({s + 1})"))
        f = f.lift(target).substitute(bindings)
    return f


def shifted_states(sys, t):
    """States after t steps as functions of x and u(0..t-1)."""
    key = ("X", t)
    if key in sys._cache:
        return sys._cache[key]
    if t == 0:
        out = [RationalFunction(sys.reg.var(s)) for s in sys.reg.states]
    else:
        prev = shifted_states(sys, t - 1)
        target = sys.reg.with_horizon(t)
        bindings = {s: f.lift(target) for s, f in zip(sys.reg.states, prev)}
        for base in sys.reg.inputs:
            name = base if t == 1 else f"{base}({t - 1})"
            bindings[base] = RationalFunction(target.var(name))
        out = [f.substitute(bindings) for f in sys.phi]
    sys._cache[key] = out
    return out


def shifted_jacobians(sys, t):
    """The state/input Jacobians evaluated along the t-shifted state."""
    key = ("AB", t)
    if key in sys._cache:
        return sys._cache[key]
    A, B = jacobians(sys)
    if t == 0:
        out = (A, B)
    else:
        xs = shifted_states(sys, t)
        target = sys.reg.with_horizon(t + 1)
        bindings = {s: f.lift(target) for s, f in zip(sys.reg.states, xs)}
        for base in sys.reg.inputs:
            bindings[base] = RationalFunction(target.var(f"{base}({t})"))
        out = (
            [[e.substitute(bindings) for e in row] for row in A],
            [[e.substitute(bindings) for e in row] for row in B],
        )
    sys._cache[key] = out
    return out


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


@dataclass
class AccessMatrix:
    """n x (k*m) matrix whose generic rank decides k-step accessibility."""

    k: int
    entries: list  # rows of RationalFunction

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0]) if self.entries else 0


def build_M(sys, k):
    """Accessibility matrix recursion up to horizon k (k >= 1)."""
    if k < 1:
        raise ValueError("horizon must be >= 1")
    key = ("M", k)
    if key in sys._cache:
        return sys._cache[key]
    A, B = jacobians(sys)
    if k == 1:
        M = AccessMatrix(1, [list(row) for row in B])
        sys._cache[key] = M
        return M
    prev = build_M(sys, k - 1)
    A_s, B_s = shifted_jacobians(sys, k - 1)
    n = sys.n
    rows = []
    for i in range(n):
        row = []
        for j in range(prev.cols):
            acc = None
            for l in range(n):
                term = A_s[i][l] * prev.entries[l][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        row.extend(B_s[i])
        rows.append(row)
    M = AccessMatrix(k, rows)
    sys._cache[key] = M
    return M


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


@dataclass
class Minor:
    """One n x n submatrix: column set, determinant numerator and its
    input-monomial decomposition (monomial -> state-coefficient)."""

    columns: tuple
    numerator: Polynomial
    coefficients: dict


@dataclass
class MinorDecomposition:
    k: int
    minors: list
    excluded_locus: list = field(default_factory=list)

    def all_coefficients(self):
        out = []
        for m in self.minors:
            out.extend(m.coefficients.values())
        return out


def state_only_content(p):
    """Largest factor of p free of input variables (content in the inputs)."""
    reg = p.reg
    ipos = [i for i in range(reg.arity) if reg.kind(i) == "input"]
    if not ipos:
        return p
    iset = set(ipos)
    groups = {}
    for e, c in p.terms.items():
        ie = tuple(e[i] for i in ipos)
        rest = tuple(0 if i in iset else x for i, x in enumerate(e))
        groups.setdefault(ie, {})[rest] = c
    cont = None
    for t in groups.values():
        cp = Polynomial(reg, t, _clean=True)
        cont = cp if cont is None else poly_gcd(cont, cp)
        if cont.is_constant:
            break
    return cont


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
    if M.cols >= n:
        old_cols = (k - 1) * m
        old = minor_determinants(sys, k - 1) if k > 1 and old_cols >= n else None
        det_a = None
        for colset in combinations(range(M.cols), n):
            if old is not None and all(c < old_cols for c in colset):
                if det_a is None:
                    A_s, _ = shifted_jacobians(sys, k - 1)
                    det_a = _det_rational(A_s)
                out[colset] = det_a * old[colset]
            else:
                sub = [[M.entries[i][j] for j in colset] for i in range(n)]
                out[colset] = _det_rational(sub)
    sys._cache[key] = out
    return out


def minors_and_coefficients(M, sys=None):
    """All C(k*m, n) minors of the accessibility matrix with the numerators
    decomposed into input monomials times state-coefficient polynomials."""
    n = M.rows
    cols = M.cols
    minors = []
    locus = []
    seen_locus = set()

    def note_locus(den):
        if den.is_constant:
            return
        cont = state_only_content(den)
        if cont is None or cont.is_constant:
            return
        sf = square_free_part(to_state_ring(cont))
        if sf.is_constant:
            return
        if sf not in seen_locus:
            seen_locus.add(sf)
            locus.append(sf)

    for row in M.entries:
        for e in row:
            note_locus(e.den)
    if cols < n:
        return MinorDecomposition(M.k, [], locus)
    dets = minor_determinants(sys, M.k) if sys is not None else None
    for colset in combinations(range(cols), n):
        if dets is not None:
            det = dets[colset]
        else:
            sub = [[M.entries[i][j] for j in colset] for i in range(n)]
            det = _det_rational(sub)
        note_locus(det.den)
        num = det.num
        coeffs = {}
        if not num.is_zero:
            for mono, coeff in collect_by_class(num, "input").items():
                coeffs[mono] = coeff
        minors.append(Minor(colset, num, coeffs))
    return MinorDecomposition(M.k, minors, locus)


def coefficient_ideal(dec, reg):
    """Ideal generated by all state-coefficient polynomials of the minors."""
    gens = [c for c in dec.all_coefficients() if not c.is_zero]
    return Ideal(reg, gens, certification=CERT_EXACT)


def symbolic_rank(entries):
    """Generic (maximal) rank of a RationalFunction matrix, exactly."""
    rows = [row[:] for row in entries]
    rank = 0
    col = 0
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    r = 0
    while r < nrows and col < ncols:
        piv = next((i for i in range(r, nrows) if not rows[i][col].is_zero), None)
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, nrows):
            if not rows[i][col].is_zero:
                factor = rows[i][col] / rows[r][col]
                rows[i] = [
                    a - factor * b for a, b in zip(rows[i], rows[r])
                ]
        rank += 1
        r += 1
        col += 1
    return rank


def submersivity_check(sys):
    """True iff the combined state-input Jacobian has generic rank n."""
    A, B = jacobians(sys)
    full = [arow + brow for arow, brow in zip(A, B)]
    return symbolic_rank(full) == sys.n
