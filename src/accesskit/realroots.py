"""Exact real-root finding for univariate polynomials with rational coefficients.

Rational roots come out exactly; the remaining real roots are isolated via
Sturm sequences and refined to tight bisection boxes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import VerificationError


@dataclass(frozen=True)
class RootBox:
    """Isolating interval for one simple real root (lo < root < hi)."""

    lo: Fraction
    hi: Fraction

    def midpoint(self):
        return (self.lo + self.hi) / 2


def _strip(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _deriv(coeffs):
    return [c * i for i, c in enumerate(coeffs)][1:]


def _rem(a, b):
    """Remainder of a / b over the rationals (coefficient lists)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and _strip(a):
        da, la = len(a) - 1, a[-1]
        if da < db:
            break
        q = la / lb
        for i in range(db + 1):
            a[da - db + i] -= q * b[i]
        _strip(a)
    return a


def _gcd(a, b):
    a, b = list(a), list(b)
    while _strip(b):
        a, b = b, _rem(a, b)
    return a


def _sturm_chain(coeffs):
    chain = [list(coeffs), _deriv(coeffs)]
    while _strip(chain[-1]):
        r = [-c for c in _rem(chain[-2], chain[-1])]
        if not _strip(r):
            break
        chain.append(r)
    return chain


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


def _root_bound(coeffs):
    lead = abs(coeffs[-1])
    b = max(abs(c) for c in coeffs[:-1]) / lead if len(coeffs) > 1 else Fraction(0)
    return b + 1


def _square_free(coeffs):
    g = _gcd(coeffs, _deriv(coeffs))
    if len(g) <= 1:
        return list(coeffs)
    # exact quotient coeffs / g
    a = list(coeffs)
    q = [Fraction(0)] * (len(a) - len(g) + 1)
    dg, lg = len(g) - 1, g[-1]
    while _strip(a) and len(a) - 1 >= dg:
        da, la = len(a) - 1, a[-1]
        c = la / lg
        q[da - dg] = c
        for i in range(dg + 1):
            a[da - dg + i] -= c * g[i]
    return _strip(q)


def _rational_roots(coeffs):
    """Exact rational roots of a square-free integer-coefficient polynomial."""

    def divisors(n):
        n = abs(n)
        out = []
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.append(d)
                out.append(n // d)
            d += 1
        return sorted(set(out))

    a0 = coeffs[0]
    an = coeffs[-1]
    if a0 == 0:
        return []  # caller strips zero roots first
    if abs(a0) > 10**12 or abs(an) > 10**12:
        return []
    roots = []
    for p in divisors(a0):
        for q in divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if _eval(coeffs, cand) == 0 and cand not in roots:
                    roots.append(cand)
    return sorted(roots)


def real_roots(coeffs, refine=Fraction(1, 2**48)):
    """All distinct real roots of a univariate rational-coefficient polynomial.

    `coeffs` lists coefficients from constant to leading term.  Returns a
    sorted list whose entries are exact Fractions or RootBox isolating
    intervals for irrational roots.  The zero polynomial is rejected.
    """
    coeffs = _strip([Fraction(c) for c in coeffs])
    if not coeffs:
        raise ValueError("zero polynomial has every point as a root")
    if len(coeffs) == 1:
        return []
    roots = []
    # factor out x^k
    k = 0
    while coeffs[k] == 0:
        k += 1
    if k:
        roots.append(Fraction(0))
        coeffs = coeffs[k:]
        if len(coeffs) == 1:
            return sorted(roots)
    sf = _square_free(coeffs)
    # clear to integers for rational-root search
    den_lcm = 1
    for c in sf:
        den_lcm = den_lcm * c.denominator // _igcd(den_lcm, c.denominator)
    ints = [int(c * den_lcm) for c in sf]
    g = 0
    for c in ints:
        g = _igcd(g, c)
    if g > 1:
        ints = [c // g for c in ints]
    for r in _rational_roots(ints):
        roots.append(r)
        sf = _deflate(sf, r)
    sf = _strip(sf)
    if len(sf) > 1:
        chain = _sturm_chain(sf)
        bound = _root_bound(sf)
        stack = [(-bound, bound)]
        while stack:
            lo, hi = stack.pop()
            n = _sign_changes(chain, lo) - _sign_changes(chain, hi)
            if n == 0:
                continue
            mid = (lo + hi) / 2
            if n == 1:
                if _eval(sf, mid) == 0:
                    roots.append(mid)
                    continue
                box = _refine(sf, lo, hi, refine)
                roots.append(box)
                continue
            if _eval(sf, mid) == 0:
                roots.append(mid)
                sf = _deflate(sf, mid)
                chain = _sturm_chain(sf)
                stack.append((lo, mid))
                stack.append((mid, hi))
                continue
            stack.append((lo, mid))
            stack.append((mid, hi))
    def keypt(r):
        return r.midpoint() if isinstance(r, RootBox) else r

    return sorted(roots, key=keypt)


def _refine(sf, lo, hi, width):
    flo = _eval(sf, lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        fm = _eval(sf, mid)
        if fm == 0:
            return RootBox(mid - width / 2, mid + width / 2)
        if (flo > 0) != (fm > 0):
            hi = mid
        else:
            lo, flo = mid, fm
    return RootBox(lo, hi)


def _deflate(coeffs, root):
    """Divide by (x - root) exactly (synthetic division)."""
    out = []
    carry = Fraction(0)
    for c in reversed(coeffs):
        carry = c + carry * root
        out.append(carry)
    if out[-1] != 0:
        raise VerificationError(f"deflation by a non-root {root}")
    return list(reversed(out[:-1]))


def _igcd(a, b):
    import math

    return math.gcd(int(a), int(b))
