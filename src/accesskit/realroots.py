"""Exact real-root isolation for univariate polynomials with rational coefficients.

All polynomial arithmetic is `ring.py`'s: the square-free part is
`square_free_part`'s, the Sturm sequence is a primitive pseudo-remainder
sequence computed in the ring, and a rational root met on the way is divided
out with `divexact`.  Sturm bisection then isolates the real roots of the
square-free part, and each isolating interval is narrowed until at most one
rational that could be a root is left in it.  Rational roots come out as
exact Fractions, irrational ones as RootBox intervals no wider than 2^-48.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ring import _pseudo_rem, divexact, square_free_part

# Width below which an irrational root's isolating interval is reported.
_BOX_WIDTH = Fraction(1, 2**48)


@dataclass(frozen=True)
class RootBox:
    """Isolating interval for one simple real root (lo < root < hi)."""

    lo: Fraction
    hi: Fraction

    def midpoint(self):
        return (self.lo + self.hi) / 2


def _coeffs(p, i):
    """Coefficient list of p, univariate in x_i, from the constant term up."""
    coeffs = [Fraction(0)] * (p.degree_in(i) + 1)
    for e, c in p.terms.items():
        coeffs[e[i]] = Fraction(c)
    return coeffs


def _eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sturm_chain(p, i):
    """Coefficient lists of the Sturm sequence of a square-free p in x_i.

    Each element after p and p' is -prem(p_(j-1), p_j) over its positive
    content.  The divisor's leading coefficient is made positive first
    (rem(f, -g) = rem(f, g)), so each pseudo-remainder is a positive
    multiple of the true remainder and every Sturm count stays exact.  As
    p is square-free, the sequence ends in a nonzero constant.
    """
    seq = [p, p.diff(p.reg.name(i))]
    while not seq[-1].is_constant:
        g = seq[-1]
        r = _pseudo_rem(seq[-2], g if g.leading()[1] > 0 else -g, i)
        seq.append(r * Fraction(-1, r.content()))
    return [_coeffs(s, i) for s in seq]


def _sign_changes(chain, x):
    signs = []
    for p in chain:
        v = _eval(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    changes = 0
    for i in range(1, len(signs)):
        if signs[i] != signs[i - 1]:
            changes += 1
    return changes


def _ceil_log2(r):
    """The least integer t with 2^t >= r, for a positive Fraction r."""
    t = r.numerator.bit_length() - r.denominator.bit_length()
    return t if Fraction(2) ** t >= r else t + 1


def _root_bound(coeffs):
    """A power of two strictly above the modulus of every root.

    Fujiwara's bound 2·max(|a_(n-i)/a_n|^(1/i), |a_0/(2·a_n)|^(1/n)) with
    each term rounded up to a power of two, doubled once more so that no
    root lies on the bound itself.
    """
    n, lead = len(coeffs) - 1, coeffs[-1]
    exps = []
    for i in range(1, n + 1):
        r = abs(coeffs[n - i] / lead) / (2 if i == n else 1)
        if r:
            exps.append(-(-_ceil_log2(r) // i))
    return Fraction(2) ** (max(exps, default=0) + 2)


def real_roots(p):
    """All distinct real roots of a nonzero Polynomial in at most one variable.

    Returns a sorted list whose entries are exact Fractions for rational
    roots and RootBox isolating intervals, no wider than 2^-48, for
    irrational ones.  A nonzero constant has none.  The zero polynomial and
    a polynomial in more than one variable are rejected.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has every point as a root")
    used = p.variables_used()
    if len(used) > 1:
        raise ValueError(f"{p} is not univariate")
    if not used:
        return []
    (i,) = used
    sf = square_free_part(p)
    # sf is primitive with int coefficients and a positive leading one
    a = sf.leading()[1]
    x = sf.reg.var(sf.reg.name(i))
    chain = _sturm_chain(sf, i)
    bound = _root_bound(chain[0])
    roots = []
    stack = [(-bound, bound)]
    # Invariant: no interval end on the stack is a root of sf, so each
    # Sturm count is the number of roots strictly inside the interval.
    while stack:
        lo, hi = stack.pop()
        n = _sign_changes(chain, lo) - _sign_changes(chain, hi)
        if n == 1:
            roots.append(_refine(chain[0], lo, hi, a))
        elif n > 1:
            mid = (lo + hi) / 2
            if _eval(chain[0], mid) == 0:
                roots.append(mid)
                sf = divexact(sf, x - mid)
                chain = _sturm_chain(sf, i)
            stack.append((lo, mid))
            stack.append((mid, hi))
    return sorted(roots, key=lambda r: r.lo if isinstance(r, RootBox) else r)


def _bisect(sf, lo, hi, width):
    """Halve the isolating interval (lo, hi) of a simple root of sf until it
    is narrower than width; a midpoint that is the root is returned as is."""
    up = _eval(sf, lo) > 0
    while hi - lo >= width:
        mid = (lo + hi) / 2
        v = _eval(sf, mid)
        if v == 0:
            return mid
        if (v > 0) == up:
            lo = mid
        else:
            hi = mid
    return RootBox(lo, hi)


def _refine(sf, lo, hi, a):
    """The one root of sf in (lo, hi): a Fraction if rational, else a RootBox.

    A rational root p/q of sf has q | a, and two distinct rationals with
    denominators at most a lie at least 1/a^2 apart.  Once the interval is
    narrower than 1/(2a^2), the only rational in it that can be the root is
    the one nearest its midpoint with denominator at most a.
    """
    box = _bisect(sf, lo, hi, Fraction(1, 2 * a * a))
    if not isinstance(box, RootBox):
        return box
    cand = box.midpoint().limit_denominator(a)
    if box.lo < cand < box.hi and _eval(sf, cand) == 0:
        return cand
    return _bisect(sf, box.lo, box.hi, _BOX_WIDTH)
