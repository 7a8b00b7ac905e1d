"""Sparse polynomials over Q in the three free parameters left after the
shift-and-scale normalization (beta2 = -1, beta4 = 1): alpha1, alpha2, beta3.

Monomials are exponent triples.  A polynomial is stored as integer
numerators over one positive common denominator, in lowest terms, so the
representation is canonical and integer polynomials (denominator 1) do all
their arithmetic in Z.  Coefficients handed out (``leading``,
``constant_value``, ``content``, ``evaluate``) are Fractions.  Division is
exact multivariate division in lex order and raises when a claimed-exact
division leaves a remainder, which is how arithmetic bugs surface instead of
silently corrupting a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd


class InexactDivision(ArithmeticError):
    pass


VARS = ("alpha1", "alpha2", "beta3")

Monomial = tuple[int, int, int]


def _canonical(d: dict[Monomial, int], den: int) -> "MPolyQ":
    """The polynomial sum(d[m] * m) / den (den > 0) in lowest terms."""
    items = sorted(((m, n) for m, n in d.items() if n), reverse=True)
    if den != 1:
        g = gcd(den, *(n for _, n in items))
        if g != 1:
            items = [(m, n // g) for m, n in items]
            den //= g
    return MPolyQ(tuple(items), den)


@dataclass(frozen=True)
class MPolyQ:
    """sum(n * m for m, n in nums) / den, with nums sorted descending lex,
    no zero numerator, den > 0 and gcd(den, numerators) = 1."""

    nums: tuple[tuple[Monomial, int], ...]
    den: int = 1

    @classmethod
    def const(cls, c) -> "MPolyQ":
        c = Fraction(c)
        return cls((((0, 0, 0), c.numerator),), c.denominator) if c != 0 else cls(())

    @classmethod
    def var(cls, name: str) -> "MPolyQ":
        i = VARS.index(name)
        mono = tuple(1 if j == i else 0 for j in range(3))
        return cls(((mono, 1),))

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def is_constant(self) -> bool:
        return not self.nums or (len(self.nums) == 1 and self.nums[0][0] == (0, 0, 0))

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return Fraction(self.nums[0][1], self.den)

    def total_degree(self) -> int:
        return max((sum(m) for m, _ in self.nums), default=-1)

    def __len__(self) -> int:
        return len(self.nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPolyQ.const(other)
        if not isinstance(other, MPolyQ):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        # a constant hashes like the number it equals
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.nums, self.den))

    def _add(self, other, sign: int):
        if isinstance(other, (int, Fraction)):
            other = MPolyQ.const(other)
        if not isinstance(other, MPolyQ):
            return NotImplemented
        g = gcd(self.den, other.den)
        sa, sb = other.den // g, sign * (self.den // g)
        d = {m: n * sa for m, n in self.nums} if sa != 1 else dict(self.nums)
        get = d.get
        for m, n in other.nums:
            d[m] = get(m, 0) + n * sb
        return _canonical(d, self.den * sa)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "MPolyQ":
        return MPolyQ(tuple((m, -n) for m, n in self.nums), self.den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return _canonical(
                {m: n * c.numerator for m, n in self.nums}, self.den * c.denominator
            )
        if not isinstance(other, MPolyQ):
            return NotImplemented
        d: dict[Monomial, int] = {}
        get = d.get
        for (a1, a2, a3), c1 in self.nums:
            for (b1, b2, b3), c2 in other.nums:
                m = (a1 + b1, a2 + b2, a3 + b3)
                d[m] = get(m, 0) + c1 * c2
        return _canonical(d, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not self.nums:
                return self
            return self * (1 / Fraction(other))
        if isinstance(other, MPolyQ):
            return self.exact_div(other)
        return NotImplemented

    def leading(self) -> tuple[Monomial, Fraction]:
        m, n = self.nums[0]
        return m, Fraction(n, self.den)

    def divmod_lex(self, other: "MPolyQ") -> tuple["MPolyQ", "MPolyQ"]:
        """Lex division: repeatedly cancel the remainder's leading term while
        the divisor's leading monomial divides it, and stop at the first one
        it does not divide.  Runs on the integer numerators: whenever a
        leading coefficient is not a multiple of the divisor's, the quotient
        and remainder so far are scaled up to make it one."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        (l1, l2, l3), lc = other.nums[0]
        quo: dict[Monomial, int] = {}
        rem = dict(self.nums)
        scale = 1  # scale * self.nums == quo * other.nums + rem
        # negated monomials, so the heap's smallest is the lex-leading term;
        # entries whose term has cancelled are skipped when they surface
        heap = [(-a, -b, -c) for (a, b, c), _ in self.nums]  # ascending
        while heap:
            m = heap[0]
            c = rem.get((-m[0], -m[1], -m[2]))
            if c is None:
                heappop(heap)
                continue
            e1, e2, e3 = -m[0] - l1, -m[1] - l2, -m[2] - l3
            if e1 < 0 or e2 < 0 or e3 < 0:
                break  # everything below divides no further in lex order
            heappop(heap)
            q, r = divmod(c, lc)
            if r:
                f = abs(lc) // gcd(c, lc)
                scale *= f
                rem = {k: v * f for k, v in rem.items()}
                quo = {k: v * f for k, v in quo.items()}
                q = c * f // lc
            quo[(e1, e2, e3)] = q
            for (b1, b2, b3), c2 in other.nums:
                mm = (e1 + b1, e2 + b2, e3 + b3)
                v = rem.get(mm)
                if v is None:
                    rem[mm] = -q * c2
                    heappush(heap, (-mm[0], -mm[1], -mm[2]))
                else:
                    v -= q * c2
                    if v:
                        rem[mm] = v
                    else:
                        del rem[mm]
        # self = (quo / scale) * other * (other.den / self.den) + rem / (scale * self.den)
        if other.den != 1:
            quo = {k: v * other.den for k, v in quo.items()}
        return _canonical(quo, scale * self.den), _canonical(rem, scale * self.den)

    def exact_div(self, other: "MPolyQ") -> "MPolyQ":
        q, r = self.divmod_lex(other)
        if not r.is_zero():
            raise InexactDivision("claimed-exact division left a remainder")
        return q

    def diff(self, i: int) -> "MPolyQ":
        """The exact partial derivative with respect to ``VARS[i]``."""
        return _canonical(
            {m[:i] + (m[i] - 1,) + m[i + 1:]: n * m[i] for m, n in self.nums if m[i]},
            self.den,
        )

    def content(self) -> Fraction:
        if self.is_zero():
            return Fraction(1)
        return Fraction(gcd(*(n for _, n in self.nums)), self.den)

    def normalized(self) -> tuple["MPolyQ", Fraction]:
        """Divide out the rational content and make the lex-leading
        coefficient positive; returns (primitive, scalar) with
        self = scalar * primitive."""
        if self.is_zero():
            return self, Fraction(1)
        g = gcd(*(n for _, n in self.nums))
        if self.nums[0][1] < 0:
            g = -g
        return MPolyQ(tuple((m, n // g) for m, n in self.nums)), Fraction(g, self.den)

    def evaluate(self, a1, a2, b3):
        """Horner-free evaluation with cached power tables; the scalar type
        just needs ring arithmetic (floats, Fractions, field extensions).
        The terms are summed on the integer numerators, and the sum is
        divided by the denominator once."""
        d1 = max((m[0] for m, _ in self.nums), default=0)
        d2 = max((m[1] for m, _ in self.nums), default=0)
        d3 = max((m[2] for m, _ in self.nums), default=0)
        p1 = _powers(a1, d1)
        p2 = _powers(a2, d2)
        p3 = _powers(b3, d3)
        acc = a1 * 0
        for (e1, e2, e3), n in self.nums:
            acc = acc + p1[e1] * p2[e2] * p3[e3] * n
        return acc * Fraction(1, self.den)

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for m, n in self.nums:
            c = Fraction(n, self.den)
            mono = "*".join(
                f"{VARS[i]}^{e}" if e > 1 else VARS[i]
                for i, e in enumerate(m)
                if e > 0
            )
            parts.append(f"{c}*{mono}" if mono else str(c))
        return " + ".join(parts)


def _powers(x, d: int) -> list:
    out = [x * 0 + 1]
    for _ in range(d):
        out.append(out[-1] * x)
    return out


def bareiss_determinant(matrix: list[list]):
    """Fraction-free Gaussian elimination over any exact ring whose elements
    offer ``is_zero`` and ``exact_div`` (MPolyQ, PolyQ); every interior
    division is exact.  The first step divides by one, so it is skipped."""
    n = len(matrix)
    if n == 0:
        return MPolyQ.const(1)
    m = [row[:] for row in matrix]
    sign = 1
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return m[k][k]
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            head = row_i[k]
            for j in range(k + 1, n):
                num = row_i[j] * pivot - head * m[k][j]
                row_i[j] = num.exact_div(prev) if k else num
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det