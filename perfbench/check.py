"""Output checker that shares no code with `accesskit`.

It reads each system from its text with sympy and tests the program's
claims on the Jacobian of the composite k-step map
``(u_0, ..., u_{k-1}) -> x(k)`` with the state pinned at a point:

* non-accessible at horizon k: the pinned Jacobian has rank < n over the
  field QQ(inputs, parameters), computed exactly by sympy's DomainMatrix
  (cheap, because the composition collapses at such points);
* accessible at horizon k: the Jacobian has rank n at one exact rational
  input/parameter sample, computed by forward differentiation over
  Fractions; a sample can only lower the rank, so rank n is a proof.  If
  every sample falls short, the exact symbolic rank decides.

`check_decision` returns a list of problems, empty when the output holds.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

import sympy
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

SAMPLE_TRIES = 4
GRID = (-1, 0, 1)


class CheckedSystem:
    """States, inputs, parameters and update expressions from a .sys text."""

    def __init__(self, text):
        self.states, self.inputs, self.params = [], [], []
        updates = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line or line.startswith("system"):
                continue
            head, _, rest = line.partition(" ")
            if head in ("params", "states", "inputs"):
                getattr(self, head).extend(rest.split())
                continue
            lhs, _, rhs = line.partition("=")
            updates[lhs.strip().rstrip("'").strip()] = rhs.strip()
        names = self.states + self.inputs + self.params
        self.symbols = {s: sympy.Symbol(s) for s in names}
        self.phi = [
            sympy.sympify(updates[s].replace("^", "**"), locals=self.symbols)
            for s in self.states
        ]
        self.n = len(self.states)

    # -- evaluation of the update expressions over any field -------------

    def _eval(self, expr, env, const):
        """Evaluate a sympy expression tree with `env` for its symbols and
        `const(Fraction)` for its numbers, in whatever field they live."""
        if expr.is_Symbol:
            return env[expr.name]
        if expr.is_Rational:
            return const(Fraction(int(expr.p), int(expr.q)))
        if expr.is_Add or expr.is_Mul:
            vals = [self._eval(a, env, const) for a in expr.args]
            out = vals[0]
            for v in vals[1:]:
                out = out + v if expr.is_Add else out * v
            return out
        if expr.is_Pow and expr.exp.is_Integer:
            base = self._eval(expr.base, env, const)
            e = int(expr.exp)
            return base**e if e >= 0 else const(Fraction(1)) / base ** (-e)
        raise ValueError(f"unsupported expression {expr}")

    def step(self, state, inputs, env_extra, const):
        env = dict(env_extra)
        env.update(zip(self.states, state))
        env.update(zip(self.inputs, inputs))
        return [self._eval(f, env, const) for f in self.phi]

    # -- the pinned Jacobian ---------------------------------------------

    def symbolic_rank(self, x0, k):
        """Exact rank of the pinned k-step Jacobian over QQ(inputs, params).

        Raises ZeroDivisionError when a denominator vanishes identically
        along the pinned trajectory (the point is on the excluded locus)."""
        u = [f"{b}__{t}" for t in range(k) for b in self.inputs]
        K = QQ.frac_field(*[sympy.Symbol(s) for s in u + self.params])
        gens = dict(zip(u + self.params, K.gens))
        params = {p: gens[p] for p in self.params}

        def const(c):
            return K.one * QQ(c.numerator, c.denominator)

        x = [const(Fraction(c)) for c in x0]
        for t in range(k):
            ins = [gens[f"{b}__{t}"] for b in self.inputs]
            x = self.step(x, ins, params, const)
        rows = [[xi.diff(gens[s]) for s in u] for xi in x]
        return DomainMatrix(rows, (self.n, len(u)), K).rank()

    def sampled_rank(self, x0, k, rng):
        """Rank of the pinned k-step Jacobian at one rational sample of the
        inputs and parameters, by forward differentiation; None on a pole."""
        width = k * len(self.inputs)
        env = {p: _Dual(_draw(rng), width) for p in self.params}
        x = [_Dual(Fraction(c), width) for c in x0]
        try:
            for t in range(k):
                ins = []
                for j in range(len(self.inputs)):
                    d = _Dual(_draw(rng), width)
                    d.grad[t * len(self.inputs) + j] = Fraction(1)
                    ins.append(d)
                x = self.step(x, ins, env, lambda c: _Dual(c, width))
        except ZeroDivisionError:
            return None
        return _fraction_rank([xi.grad for xi in x])

    def accessible(self, x0, k, rng):
        """True iff the pinned k-step Jacobian has full generic rank n."""
        for _ in range(SAMPLE_TRIES):
            if self.sampled_rank(x0, k, rng) == self.n:
                return True
        return self.symbolic_rank(x0, k) == self.n

    def non_accessible(self, x0, k):
        return self.symbolic_rank(x0, k) < self.n


class _Dual:
    """Exact value with its gradient in the input samples."""

    __slots__ = ("val", "grad")

    def __init__(self, val, width, grad=None):
        self.val = Fraction(val)
        self.grad = grad if grad is not None else [Fraction(0)] * width

    @staticmethod
    def _lift(o, like):
        return o if isinstance(o, _Dual) else _Dual(o, len(like.grad))

    def __add__(self, o):
        o = self._lift(o, self)
        return _Dual(self.val + o.val, len(self.grad), [a + b for a, b in zip(self.grad, o.grad)])

    def __neg__(self):
        return _Dual(-self.val, len(self.grad), [-a for a in self.grad])

    def __sub__(self, o):
        return self + (-self._lift(o, self))

    def __mul__(self, o):
        o = self._lift(o, self)
        return _Dual(
            self.val * o.val,
            len(self.grad),
            [self.val * b + o.val * a for a, b in zip(self.grad, o.grad)],
        )

    def __truediv__(self, o):
        o = self._lift(o, self)
        if o.val == 0:
            raise ZeroDivisionError("pole at the sample")
        q = self.val / o.val
        return _Dual(q, len(self.grad), [(a - q * b) / o.val for a, b in zip(self.grad, o.grad)])

    def __pow__(self, e):
        out = _Dual(Fraction(1), len(self.grad))
        for _ in range(e):
            out = out * self
        return out


def _draw(rng):
    return Fraction(rng.randint(-29, 29), rng.randint(1, 11))


def _fraction_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@lru_cache(maxsize=64)
def parsed(text):
    return CheckedSystem(text)


def _points(strs):
    return {tuple(Fraction(c) for c in p) for p in strs}


def real_zeros(sysc, gens):
    """Real zeros of a finite set of polynomial generators given as text."""
    exprs = [sympy.sympify(g.replace("^", "**"), locals=sysc.symbols) for g in gens]
    syms = [sysc.symbols[s] for s in sysc.states]
    if any(e.is_number and e != 0 for e in exprs):
        return set()
    sols = sympy.solve(exprs, syms, dict=True)
    out = set()
    for s in sols:
        vals = [s.get(v) for v in syms]
        if any(v is None for v in vals):
            raise ValueError("positive-dimensional zero set")
        if all(v.is_real for v in vals):
            out.add(tuple(Fraction(str(v)) if v.is_Rational else v for v in vals))
    return out


# Values derived by hand in tests/test_acceptance.py, for every draw of the
# shape (each draw is the corpus system up to a change of coordinates or a
# generic binding of its parameters): kappa, with S = {origin}; and r*.
HAND_KAPPA = {"coil": 3, "coil_bound": 3, "rational2d": 3}
HAND_R_STAR = {"rational2d": 3}


def _check_singular_claims(sysc, shape, out, rng, problems):
    kappa = out["kappa"]
    if kappa is None:
        problems.append("no kappa")
        return
    if out["kind"] not in ("points", "empty"):
        problems.append(f"singular set of kind {out['kind']!r}")
        return
    pts = _points(out["points"])
    for p in pts:
        for k in (kappa, kappa + 1):
            if not sysc.non_accessible(p, k):
                problems.append(f"reported singular {p} accessible at k={k}")
    zero = (Fraction(0),) * sysc.n
    if shape in HAND_KAPPA and (kappa, pts) != (HAND_KAPPA[shape], {zero}):
        problems.append(f"hand-derived kappa, S missed: {kappa}, {pts}")
    probes = [tuple(Fraction(c) for c in g) for g in _grid(sysc.n)]
    probes += [tuple(_draw(rng) for _ in range(sysc.n)) for _ in range(2)]
    for p in probes:
        if p not in pts and not sysc.accessible(p, kappa, rng):
            problems.append(f"unreported {p} not accessible at kappa={kappa}")


def _grid(n):
    out = [()]
    for _ in range(n):
        out = [g + (c,) for g in out for c in GRID]
    return out


def check_decision(d, out, seed=0):
    """Problems with one decision's output (`d` as from gen, `out` the
    worker's summary).  A known-fault decision that failed is not checked."""
    if "error" in out:
        return [] if d.known_fault else [f"failed: {out['error']}"]
    sysc = parsed(d.text)
    rng = random.Random(f"check:{seed}:{d.text}:{d.point}:{d.k}")
    problems = []
    if d.kind == "point":
        if out["undefined"]:
            try:
                sysc.symbolic_rank(d.point, d.k)
                problems.append(f"undefined verdict at {d.point}, k={d.k}")
            except ZeroDivisionError:
                pass
        elif out["in_S_k"]:
            if not sysc.non_accessible(d.point, d.k):
                problems.append(f"{d.point} claimed in S_{d.k} but accessible")
        elif not sysc.accessible(d.point, d.k, rng):
            problems.append(f"{d.point} claimed accessible at k={d.k} but not")
        return problems
    _check_singular_claims(sysc, d.shape, out, rng, problems)
    if d.kind == "index":
        try:
            zeros = real_zeros(sysc, out["final"])
        except ValueError as exc:
            zeros = str(exc)
        if zeros != _points(out["points"]):
            problems.append(f"real zeros of the r* ideal {zeros} != S")
        if d.shape in HAND_R_STAR and out["r_star"] != HAND_R_STAR[d.shape]:
            problems.append(f"hand-derived r* missed: {out['r_star']}")
    return problems
