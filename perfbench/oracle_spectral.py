"""Spectral oracle, written apart from etaflow.spectral.

It works from the closed-form Kunneth dimensions of (P^1)^n and from the
raw entries of a generated Laplacian table:

* Type 1 eigenvalue (-1)^q (k - r - delta (q - n/2)) vanishes at
  delta* = (k - r)/(q - n/2); the integer k with 0 < delta* < eps form an
  open interval, so no search window is needed.
* Type 2 branches vanish where Q(delta) = (B - C delta)^2 + 8 h delta - delta^2
  does, B = 2(k - r), C = 2q + 1 - n, h = mu^2/2.  Its roots come from
  sympy; the vulnerable branch is the + branch for even q and the - branch
  for odd q, so a fall of Q through zero is a positive-to-negative crossing
  for even q and the reverse for odd q.

Flows use the paper orientation: +1 per positive-to-negative crossing.
"""

from __future__ import annotations

import math
from fractions import Fraction

import sympy


def kunneth_h(n: int, q: int, k: int) -> int:
    """dim H^q((P^1)^n, K^{1/2} (x) L^k): K^{1/2} L^k has degree k - 1 on
    each factor, and H^1(O(d)) of P^1 has dimension -d - 1."""
    if not 0 <= q <= n:
        return 0
    d = k - 1
    h0 = d + 1 if d >= 0 else 0
    h1 = -d - 1 if d <= -2 else 0
    return math.comb(n, q) * h0 ** (n - q) * h1**q


def _open_int_range(lo: Fraction, hi: Fraction):
    """Integers strictly between lo and hi."""
    return range(math.floor(lo) + 1, math.ceil(hi))


def type1_flow(n: int, r: Fraction, eps: Fraction) -> int:
    total = 0
    for q in range(n + 1):
        s = Fraction(2 * q - n, 2)
        if s == 0:
            continue
        ends = sorted((r, r + eps * s))
        for k in _open_int_range(*ends):
            mult = kunneth_h(n, q, k)
            if mult:
                start = (-1) ** q * (k - r)
                total += (1 if start > 0 else -1) * mult
    return total


def type1_kernel(n: int, r: Fraction, eps: Fraction) -> int:
    total = 0
    for q in range(n + 1):
        k = r + eps * Fraction(2 * q - n, 2)
        if k.denominator == 1:
            total += kunneth_h(n, q, int(k))
    return total


def nakano_bound(n: int, q: int, k: int) -> Fraction:
    """Lower bound for mu^2/2 on (P^1)^n, where the Ricci bound is kappa = 2."""
    return Fraction(max(q * (k + 1), (n - q) * (1 - k)))


def nakano_kernel_is_decidable(n: int, r: Fraction, eps: Fraction) -> bool:
    """False when some (q, k) would have a Type 2 zero at eps for an
    eigenvalue mu^2/2 = h* > 0 that the Nakano bound does not exclude."""
    for q in range(n + 1):
        c = 2 * q + 1 - n
        # h* > 0 iff |2(k - r) - c eps| < eps
        lo = (2 * r + (c - 1) * eps) / 2
        hi = (2 * r + (c + 1) * eps) / 2
        for k in _open_int_range(lo, hi):
            b = 2 * (k - r)
            h_star = (eps * eps - (b - c * eps) ** 2) / (8 * eps)
            if h_star >= nakano_bound(n, q, k):
                return False
    return True


class ExplicitTable:
    """Generated table entries (q, k, h, mult) plus the Type 2 roots."""

    def __init__(self, n: int, entries):
        self.n = n
        self.entries = [(q, k, Fraction(h), m) for q, k, h, m in entries]
        levels = {}
        for q, k, h, m in self.entries:
            levels[(q, k, h)] = levels.get((q, k, h), 0) + m
        # alternating multiplicity e_q - e_(q-1) + ... of one eigenvalue
        self.alt = {
            (q, k, h): sum((-1) ** (q - j) * levels.get((j, k, h), 0)
                           for j in range(q + 1))
            for q, k, h, _ in self.entries
        }
        self._roots = {}

    def _quadratic(self, q, k, h, r):
        b = 2 * (k - r)
        c = 2 * q + 1 - self.n
        return Fraction(c * c - 1), 8 * h - 2 * b * c, b * b

    def type2_roots(self, r: Fraction):
        """[(delta*, direction, multiplicity)] over all delta* > 0."""
        if r in self._roots:
            return self._roots[r]
        x = sympy.Symbol("x")
        found = []
        for (q, k, h), d in self.alt.items():
            if d == 0:
                continue
            a2, a1, a0 = self._quadratic(q, k, h, r)
            if a2 == 0 and a1 == 0:
                continue
            # Q(0) = B^2 >= 0, so a positive sign change needs a1 < 0 or a2 < 0
            if a1 >= 0 and a2 >= 0:
                continue
            poly = sympy.Poly(
                sympy.Rational(a2) * x**2 + sympy.Rational(a1) * x
                + sympy.Rational(a0), x)
            parity = 1 if q % 2 == 0 else -1
            roots = poly.real_roots()
            for root in sorted(set(roots), key=lambda v: sympy.N(v, 30)):
                if roots.count(root) % 2 == 0 or not root > 0:
                    continue  # double root: a touch, not a crossing
                slope = poly.diff(x).eval(root)
                fall = 1 if slope < 0 else -1
                found.append((root, fall * parity, d))
        self._roots[r] = found
        return found

    def flow(self, r: Fraction, eps: Fraction) -> int:
        type2 = sum(direction * d for root, direction, d in self.type2_roots(r)
                    if root < sympy.Rational(eps))
        return type1_flow(self.n, r, eps) + type2

    def kernel(self, r: Fraction, eps: Fraction) -> int:
        total = type1_kernel(self.n, r, eps)
        for (q, k, h), d in self.alt.items():
            a2, a1, a0 = self._quadratic(q, k, h, r)
            if (a2 * eps + a1) * eps + a0 == 0:
                total += d
        return total


def exact_from_json(value):
    """A report's delta value ("p/q" or {"a", "b", "radicand"}) in sympy."""
    if isinstance(value, str):
        return sympy.Rational(value)
    return (sympy.Rational(value["a"])
            + sympy.Rational(value["b"]) * sympy.sqrt(sympy.Rational(value["radicand"])))
