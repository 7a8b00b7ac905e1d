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

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if self.is_zero():
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other) -> "PolyQ":
        """Sum with a polynomial or a scalar."""
        if not isinstance(other, PolyQ):
            other = PolyQ.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return PolyQ(_trim(out))

    def __sub__(self, other) -> "PolyQ":
        return self + (-other)

    def __neg__(self) -> "PolyQ":
        return PolyQ(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "PolyQ":
        """Product with a polynomial or a scalar."""
        if not isinstance(other, PolyQ):
            return self.scale(other)
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


#: the indeterminate x
X = PolyQ.of(0, 1)


def level_values(a, b, x) -> list:
    """p_0(x)..p_n(x) for the path matrix with diagonal a_1..a_n (n >= 1),
    superdiagonal products b_2..b_n and unit subdiagonal, where
    p_k = (x - a_k) p_{k-1} - b_k p_{k-2} is the characteristic polynomial
    of its trailing k-by-k submatrix.  x is a point of any ring the a_i and
    b_i act on (Fraction, QXi), or an indeterminate: X over exact scalars,
    numpy's float Polynomial; p_0 = x * 0 + 1 is the one of x's ring."""
    ps = [x * 0 + 1, x - a[0]]
    for k in range(1, len(a)):
        ps.append((x - a[k]) * ps[k] - ps[k - 1] * b[k - 1])
    return ps


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """Monic gcd over a field (Fraction or QXi coefficients).  Each divisor
    is made monic first, so the division steps invert no coefficient."""
    while not b.is_zero():
        b = b.monic()
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


def _remainder_chain(p: PolyQ) -> list[PolyQ]:
    """p, p' and the negated remainders after them, down to the last nonzero
    one, gcd(p, p') up to a scalar."""
    seq = [p, p.derivative()]
    while not seq[-1].is_zero():
        rem = seq[-2].divmod(seq[-1])[1]
        if rem.is_zero():
            break
        seq.append(-rem)
    return seq


def sturm_sequence(p: PolyQ) -> list[PolyQ]:
    """Sturm chain of the squarefree part q of p: the remainder chain of p,
    or, when it ends in a nonconstant gcd(p, p'), that of q = p / gcd(p, p').
    Its last member is a nonzero constant, so no point is a root of two
    consecutive members, and counts hold at multiple roots of p too."""
    seq = _remainder_chain(p)
    g = seq[-1]
    return seq if g.degree <= 0 else _remainder_chain(p.exact_div(g))


def horner_enclosure(ints, lo, hi) -> tuple[int, int, int]:
    """Integers vlo, vhi and d > 0 with vlo / d <= p(x) <= vhi / d for all x
    in the rational interval [lo, hi], p with ascending integer coefficients
    ints: Horner's rule in integer interval arithmetic on lo = a / q and
    hi = b / q.  Each step keeps the least and greatest of the four end
    products, so it holds on any interval, and is exact at a point."""
    q = lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator)
    vlo, vhi, d = 0, 0, 1
    for c in reversed(ints):
        ends = (vlo * a, vlo * b, vhi * a, vhi * b)
        d *= q
        vlo, vhi = min(ends) + c * d, max(ends) + c * d
    return vlo, vhi, d


def sign_at(p: PolyQ):
    """The exact sign (-1, 0 or 1) of a rational polynomial p as a function
    of a rational point: the enclosure of its integer-scaled coefficients."""
    coeffs = [Fraction(c) for c in p.coeffs]
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]

    def sign(x) -> int:
        v = horner_enclosure(ints, x, x)[0]
        return (v > 0) - (v < 0)

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
