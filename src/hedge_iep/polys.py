"""Dense univariate polynomials over an exact scalar ring.

Coefficients may be Fractions, integers, field extension elements or
multivariate polynomials; the only requirements are ring arithmetic and an
honest ``== 0`` test (so this type is not meant for floats).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm


class NonzeroRemainder(ArithmeticError):
    pass


class ZeroPolynomial(ValueError):
    pass


def _trim(coeffs: list) -> tuple:
    k = len(coeffs)
    while k > 0 and coeffs[k - 1] == 0:
        k -= 1
    return tuple(coeffs[:k])


@dataclass(frozen=True)
class PolyQ:
    """Polynomial with exact coefficients, ascending order."""

    coeffs: tuple

    @classmethod
    def of(cls, *coeffs) -> "PolyQ":
        return cls(_trim([Fraction(c) if isinstance(c, int) else c for c in coeffs]))

    @classmethod
    def const(cls, c) -> "PolyQ":
        return cls(_trim([c]))

    @classmethod
    def x_minus(cls, a) -> "PolyQ":
        return cls(_trim([-a, a * 0 + 1]))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "PolyQ") -> "PolyQ":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return PolyQ(_trim(out))

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        return self + (-other)

    def __neg__(self) -> "PolyQ":
        return PolyQ(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "PolyQ") -> "PolyQ":
        if self.is_zero() or other.is_zero():
            return PolyQ(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                # the product first: Fraction + int is Fraction's fast path
                out[i + j] = a * b + out[i + j]
        return PolyQ(_trim(out))

    def scale(self, s) -> "PolyQ":
        return PolyQ(_trim([c * s for c in self.coeffs]))

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "PolyQ":
        return PolyQ(_trim([i * c for i, c in enumerate(self.coeffs)][1:]))

    def divmod(self, other: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        """Division when leading coefficients divide exactly (fields, or a
        monic divisor over a ring)."""
        if other.is_zero():
            raise ZeroPolynomial("division by zero polynomial")
        rem = list(self.coeffs)
        q = [0] * max(0, len(rem) - len(other.coeffs) + 1)
        lc = other.leading()
        d = other.degree
        low = other.coeffs[:-1]
        for k in range(len(q) - 1, -1, -1):
            top = rem[k + d]
            if top == 0:
                continue
            factor = top / lc if lc != 1 else top
            q[k] = factor
            # the leading term cancels exactly, so rem[k + d] is left as is
            for i, c in enumerate(low):
                rem[k + i] = rem[k + i] - factor * c
        return PolyQ(_trim(q)), PolyQ(_trim(rem[:d]))

    def exact_div(self, other: "PolyQ") -> "PolyQ":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise NonzeroRemainder(f"remainder {r} in exact division")
        return q

    def monic(self) -> "PolyQ":
        if self.is_zero():
            return self
        lc = self.leading()
        return self.scale(1 / lc) if lc != 1 else self


def three_term_polys(a, b) -> list[PolyQ]:
    """Characteristic polynomials p_0..p_n of the trailing submatrices of the
    path matrix with diagonal a_1..a_n, superdiagonal products b_2..b_n and
    unit subdiagonal: p_k = (x - a_k) p_{k-1} - b_k p_{k-2}, over whatever
    exact ring the a_i live in (p_0 is that ring's one)."""
    if not a:
        return [PolyQ.of(1)]
    ps = [PolyQ.const(a[0] * 0 + 1), PolyQ.x_minus(a[0])]
    for k in range(2, len(a) + 1):
        ps.append(PolyQ.x_minus(a[k - 1]) * ps[k - 1] - PolyQ.const(b[k - 2]) * ps[k - 2])
    return ps


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """Monic gcd over a field (Fraction coefficients)."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a.monic() if not a.is_zero() else a


def poly_xgcd(a: PolyQ, b: PolyQ) -> tuple[PolyQ, PolyQ, PolyQ]:
    """Extended gcd: (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = a, b
    s0, s1 = PolyQ.of(1), PolyQ.of(0)
    t0, t1 = PolyQ.of(0), PolyQ.of(1)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lc = r0.leading()
    return r0.scale(1 / lc), s0.scale(1 / lc), t0.scale(1 / lc)


def sturm_sequence(p: PolyQ) -> list[PolyQ]:
    """Sturm chain of the squarefree part of p: the remainder chain of p and
    p', each member divided by the last one, gcd(p, p').  No point is a root
    of two consecutive members, so counts hold at multiple roots of p too."""
    seq = [p, p.derivative()]
    while not seq[-1].is_zero():
        rem = seq[-2].divmod(seq[-1])[1]
        if rem.is_zero():
            break
        seq.append(-rem)
    g = seq[-1]
    return seq if g.degree <= 0 else [q.exact_div(g) for q in seq]


def sign_at(p: PolyQ):
    """The exact sign (-1, 0 or 1) of a rational polynomial p as a function
    of a rational point.  The coefficients are scaled to integers once; at
    x = a/b with b > 0, integer Horner computes b^deg(p) * c * p(x) for the
    positive scale c, which has the sign of p(x)."""
    coeffs = [Fraction(c) for c in reversed(p.coeffs)]
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]

    def sign(x) -> int:
        a, b = x.numerator, x.denominator
        acc, bk = 0, 1
        for z in ints:
            acc = acc * a + z * bk
            bk *= b
        return (acc > 0) - (acc < 0)

    return sign


def _sign_changes(signs: list, x: Fraction) -> int:
    s = [v for v in (sign(x) for sign in signs) if v]
    return sum(1 for a, b in zip(s, s[1:]) if a != b)


def count_real_roots(p: PolyQ, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi] via Sturm's theorem."""
    signs = [sign_at(q) for q in sturm_sequence(p)]
    return _sign_changes(signs, Fraction(lo)) - _sign_changes(signs, Fraction(hi))


def bisect_root(lo: Fraction, hi: Fraction, eps: Fraction, side) -> tuple[Fraction, Fraction]:
    """Halve (lo, hi] around its one root until it is narrower than eps.
    ``side(m)`` is negative when the root lies in (lo, m], positive when it
    lies in (m, hi], and 0 when m is the root, which returns (m, m)."""
    while hi - lo >= eps:
        mid = (lo + hi) / 2
        s = side(mid)
        if s == 0:
            return mid, mid
        if s < 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def real_roots(p: PolyQ, lo: Fraction, hi: Fraction, eps: Fraction) -> list[Fraction]:
    """All distinct real roots in (lo, hi], isolated by Sturm bisection and
    refined to width below eps; returns midpoints.  Every root is a simple
    sign change of the squarefree part q, the chain's first member."""
    signs = [sign_at(q) for q in sturm_sequence(p)]
    sign_q = signs[0]

    def count(a: Fraction, b: Fraction) -> int:
        return _sign_changes(signs, a) - _sign_changes(signs, b)

    out: list[Fraction] = []
    stack = [(Fraction(lo), Fraction(hi))]
    while stack:
        a, b = stack.pop()
        c = count(a, b)
        if c == 0:
            continue
        if c == 1:
            fb = sign_q(b)
            if fb == 0:
                out.append(b)
                continue
            # q has the sign fb on (root, b] and -fb on (a, root)
            aa, bb = bisect_root(a, b, eps, lambda m: -fb * sign_q(m))
            out.append((aa + bb) / 2)
            continue
        mid = (a + b) / 2
        stack.append((a, mid))
        stack.append((mid, b))
    return sorted(out)


def is_squarefree(p: PolyQ) -> bool:
    return poly_gcd(p, p.derivative()).degree <= 0
