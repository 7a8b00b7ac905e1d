"""Exact arithmetic in Q[xi], where xi is the smallest positive root of

    x^6 - 3 x^5 - 11 x^4 + 24 x^3 - 6 x^2 - 48 x + 16.

An element is six integer numerators against 1, xi, ..., xi^5 over one
positive common denominator, in lowest terms, so the representation is
canonical.  A product is a 6x6 integer convolution, reduced in degrees
10..6 by the monic sextic's integer tail (xi^6 = 3 xi^5 + 11 xi^4
- 24 xi^3 + 6 xi^2 + 48 xi - 16), which needs no division, and then one
gcd; an inverse solves the 6x6 integer system of multiplication by the
element by fraction-free Gauss-Jordan elimination.  Signs, floats
and approximations refine the isolating interval of xi by bisection and
enclose the numerator polynomial on it with ``polys.horner_enclosure``, the
one exact evaluator, so comparisons are exact decisions, never float
guesses.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import gcd, lcm

from . import Frozen
from .polys import PolyQ, bisect_root, count_real_roots, horner_enclosure, sign_at

# ascending coefficients of the defining sextic
SEXTIC = PolyQ.of(16, -48, -6, 24, -11, -3, 1)

# xi^6 = sum(_TAIL[i] * xi^i): the monic sextic's lower coefficients, negated
_TAIL = tuple(-int(c) for c in SEXTIC.coeffs[:6])

# the seed isolating interval (lo, hi] of xi
XI_INTERVAL = (Fraction(1, 3), Fraction(17, 50))

_interval = list(XI_INTERVAL)
_sextic_sign = sign_at(SEXTIC)

if _sextic_sign(XI_INTERVAL[0]) * _sextic_sign(XI_INTERVAL[1]) >= 0:  # pragma: no cover
    raise AssertionError("the seed interval must bracket a sign change")


def verify_isolation() -> bool:
    """Sturm counts: no root of the sextic in (0, lo], exactly one in
    (lo, hi], so xi is the smallest positive root."""
    lo, hi = XI_INTERVAL
    return (
        count_real_roots(SEXTIC, Fraction(0), lo) == 0
        and count_real_roots(SEXTIC, lo, hi) == 1
    )


def refined_xi(eps: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink (and cache) the isolating interval to width below eps > 0."""
    if not eps > 0:
        raise ValueError(f"the interval width bound must be positive, got {eps}")
    sign_lo = _sextic_sign(_interval[0])
    _interval[:] = bisect_root(*_interval, eps, lambda m: sign_lo * _sextic_sign(m))
    return tuple(_interval)


def _reduced(nums, den: int) -> "QXi":
    """The element sum(nums[i] * xi^i) / den, den > 0, in lowest terms."""
    g = gcd(den, *nums)
    if g != 1:
        nums = [n // g for n in nums]
        den //= g
    return QXi(tuple(nums), den)


def _coerce(x) -> "QXi | None":
    if isinstance(x, QXi):
        return x
    if isinstance(x, (int, Fraction)):
        return QXi((x.numerator, 0, 0, 0, 0, 0), x.denominator)
    return None


@total_ordering
class QXi(Frozen):
    """sum(nums[i] * xi^i) / den, with six integer numerators, den > 0 and
    gcd(den, numerators) = 1 (so zero is all-zero over 1)."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: tuple[int, ...], den: int = 1) -> None:
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @classmethod
    def of(cls, *coords) -> "QXi":
        if len(coords) > 6:
            raise ValueError("need at most six coordinates")
        cs = [Fraction(c) for c in coords] + [Fraction(0)] * (6 - len(coords))
        den = lcm(*(c.denominator for c in cs))
        return _reduced([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def xi(cls) -> "QXi":
        return cls.of(0, 1)

    @classmethod
    def from_poly_coeffs(cls, coeffs, denom=1) -> "QXi":
        """Coordinates from descending xi^5..xi^0 coefficients over a common
        denominator (the layout the closed-form values are printed in)."""
        return cls.of(*(Fraction(c, denom) for c in reversed(list(coeffs))))

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The rational coordinates against (1, xi, ..., xi^5)."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return any(self.nums)

    def _add(self, other, sign: int):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        g = gcd(self.den, o.den)
        sa, sb = o.den // g, sign * (self.den // g)
        return _reduced([a * sa + b * sb for a, b in zip(self.nums, o.nums)], self.den * sa)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "QXi":
        return QXi(tuple(-n for n in self.nums), self.den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self)._add(other, 1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _reduced([n * other.numerator for n in self.nums], self.den * other.denominator)
        if not isinstance(other, QXi):
            return NotImplemented
        c = [0] * 11
        b = other.nums
        for i, x in enumerate(self.nums):
            if x:
                for j, y in enumerate(b, i):
                    c[j] += x * y
        for k in range(10, 5, -1):
            t = c[k]
            if t:
                for j, s in enumerate(_TAIL, k - 6):
                    c[j] += s * t
        return _reduced(c[:6], self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "QXi":
        """den / N(xi) for self = N(xi) / den: the solution v of M v = den e_0,
        where column j of the integer matrix M holds N(xi) xi^j reduced by the
        sextic, by fraction-free Gauss-Jordan elimination (E. H. Bareiss,
        Math. Comp. 22 (1968) 565-578).  Step k divides exactly by the
        previous pivot and leaves every diagonal entry so far equal to its
        own pivot, so the last pivot d is +-det M and v = (last column) / d."""
        if self.is_zero():
            raise ZeroDivisionError("zero element of Q[xi]")
        col = list(self.nums)
        cols = [col]
        for _ in range(5):
            top, col = col[5], [0, *col[:5]]
            if top:
                col = [c + s * top for c, s in zip(col, _TAIL)]
            cols.append(col)
        rows = [[c[i] for c in cols] + [0] for i in range(6)]
        rows[0][6] = self.den
        prev = 1
        for k in range(6):
            p = next((i for i in range(k, 6) if rows[i][k]), None)
            if p is None:
                raise ArithmeticError("element shares a factor with the sextic")
            rows[k], rows[p] = rows[p], rows[k]
            pivot_row = rows[k]
            pivot = pivot_row[k]
            for i, row in enumerate(rows):
                if i != k:
                    f = row[k]
                    for j in range(k + 1, 7):
                        row[j] = (pivot * row[j] - f * pivot_row[j]) // prev
            prev = pivot
        nums = [row[6] for row in rows]
        if prev < 0:
            nums, prev = [-n for n in nums], -prev
        return _reduced(nums, prev)

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int) -> "QXi":
        if k < 0:
            return self.inverse() ** (-k)
        out = QXi.of(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.nums == o.nums

    def __hash__(self) -> int:
        # a rational element hashes like the Fraction it equals
        if any(self.nums[1:]):
            return hash((self.nums, self.den))
        return hash(Fraction(self.nums[0], self.den))

    def _refine_until(self, decide):
        """Decide on the cached interval of xi, else refine it to 2^-8 of its
        width and retry until ``decide(vlo, vhi, d)`` returns non-None.  This
        ends: the sextic is irreducible, so an irrational element has an
        irrational value, which no sign or rounding boundary equals, and a
        rational element has a point value interval."""
        lo, hi = _interval
        while True:
            vlo, vhi, d = horner_enclosure(self.nums, lo, hi)
            if (out := decide(vlo, vhi, d * self.den)) is not None:
                return out
            lo, hi = refined_xi((hi - lo) / 2**8)

    def sign(self) -> int:
        """Exact sign via interval refinement; zero iff all coordinates are."""
        if self.is_zero():
            return 0
        return self._refine_until(lambda vlo, vhi, d: 1 if vlo > 0 else -1 if vhi < 0 else None)

    def __lt__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def approx(self, eps: Fraction = Fraction(1, 10**15)) -> Fraction:
        """A rational within eps/2 of the value: the midpoint of a value
        interval narrower than eps."""
        eps = Fraction(eps)
        if not eps > 0:
            raise ValueError(f"the approximation bound must be positive, got {eps}")
        return self._refine_until(
            lambda vlo, vhi, d: Fraction(vlo + vhi, 2 * d) if vhi - vlo < eps * d else None
        )

    def __float__(self) -> float:
        """Correctly rounded: both ends of the value interval round to the
        same float, whatever earlier calls did to the interval of xi (an
        int / int quotient is correctly rounded)."""
        return self._refine_until(
            lambda vlo, vhi, d: vlo / d if vlo / d == vhi / d else None
        )

    def __repr__(self) -> str:
        terms = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*xi")
            else:
                terms.append(f"{c}*xi^{i}")
        return " + ".join(terms) if terms else "0"
