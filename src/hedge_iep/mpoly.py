"""Sparse polynomials over Q in the three free parameters left after the
shift-and-scale normalization (beta2 = -1, beta4 = 1): alpha1, alpha2, beta3.

Monomials are exponent triples.  A polynomial is stored as integer
numerators over one positive common denominator, in lowest terms, so the
representation is canonical and integer polynomials (denominator 1) do all
their arithmetic in Z; products of large operands are one big-integer
product (Kronecker substitution, on ints alone, with no numpy).  Handed-out
coefficients (``leading``, ``constant_value``, ``content``, ``evaluate``)
are Fractions.  Division is exact multivariate division in lex order and
raises when a claimed-exact division leaves a remainder, which is how
arithmetic bugs surface instead of silently corrupting a certificate.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import gcd
from struct import iter_unpack

from . import Frozen
from .polys import PolyQ


class InexactDivision(ArithmeticError):
    pass


VARS = ("alpha1", "alpha2", "beta3")

Monomial = tuple[int, int, int]


#: products of at least this many term pairs run as one big-integer product
#: (``_kronecker_product``); smaller ones keep the dict loop, which is faster
#: below it.  The rigid chain's products stay below, the resultant scan's
#: large ones reach it.
KRONECKER_MIN_PAIRS = 256


def _canonical(d: dict[Monomial, int], den: int) -> "MPolyQ":
    """The polynomial sum(d[m] * m) / den (den > 0) in lowest terms."""
    return _lowest(sorted(((m, n) for m, n in d.items() if n), reverse=True), den)


def _lowest(items, den: int) -> "MPolyQ":
    """The polynomial with nonzero numerators ``items`` (descending lex) over
    den > 0, in lowest terms."""
    if den != 1:
        g = gcd(den, *(n for _, n in items))
        if g != 1:
            items = [(m, n // g) for m, n in items]
            den //= g
    return MPolyQ(tuple(items), den)


class MPolyQ(Frozen):
    """sum(n * m for m, n in nums) / den, with nums sorted descending lex,
    no zero numerator, den > 0 and gcd(den, numerators) = 1."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: tuple[tuple[Monomial, int], ...], den: int = 1) -> None:
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

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
        if len(self.nums) * len(other.nums) >= KRONECKER_MIN_PAIRS:
            return _lowest(_kronecker_product(self.nums, other.nums), self.den * other.den)
        d: dict[Monomial, int] = {}
        get = d.get
        for (a1, a2, a3), c1 in self.nums:
            for (b1, b2, b3), c2 in other.nums:
                m = (a1 + b1, a2 + b2, a3 + b3)
                d[m] = get(m, 0) + c1 * c2
        return _canonical(d, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MPolyQ":
        """The k-th power (k >= 0) as a repeated product."""
        if k < 0:
            raise ValueError("negative powers are not polynomials")
        if k == 0:
            return MPolyQ.const(1)
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

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
        and remainder so far are scaled up to make it one.  A one-term
        divisor cancels the leading term and adds no other, so its quotient
        is the leading run of terms it divides, shifted and scaled, and the
        remainder is the rest."""
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        (l1, l2, l3), lc = other.nums[0]
        if len(other.nums) == 1:
            items = self.nums
            j = 0
            for (a, b, c), _ in items:
                if a < l1 or b < l2 or c < l3:
                    break
                j += 1
            s = other.den if lc > 0 else -other.den
            quo = [((a - l1, b - l2, c - l3), n * s) for (a, b, c), n in items[:j]]
            return _lowest(quo, self.den * abs(lc)), _lowest(items[j:], self.den)
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

    def univariate(self, i: int) -> PolyQ:
        """The polynomial as one in ``VARS[i]`` whose coefficients are
        polynomials in the other two variables."""
        parts: dict[int, dict[Monomial, int]] = {}
        for m, n in self.nums:
            parts.setdefault(m[i], {})[m[:i] + (0,) + m[i + 1:]] = n
        top = max(parts, default=-1)
        return PolyQ(tuple(_canonical(parts.get(k, {}), self.den) for k in range(top + 1)))

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


def _kronecker_product(a, b) -> tuple[tuple[Monomial, int], ...]:
    """The integer numerators of the product of two nonzero numerator lists
    (descending lex), descending lex, from one integer multiplication.

    Each operand becomes the integer sum(n * Y^pos(m)) with Y = 2^(64 w) and
    pos(e1, e2, e3) = (e1 d2 + e2) d3 + e3, d_k = deg_k a + deg_k b + 1.
    Every product monomial lies in the degree box e_k < d_k, so pos is
    one-to-one there, adds over products of monomials and orders them as lex
    does: the digit of the product at pos(m) collects exactly the products
    landing on m.  Each such coefficient is at most sum|a| * max|b| (and
    sum|b| * max|a|), which w makes less than Y / 2.  So adding Y / 2 to
    every digit puts each one in [1, Y) with no carry, and flipping back the
    top bit of each base-Y digit leaves the coefficients in two's complement."""
    d2 = max(m[1] for m, _ in a) + max(m[1] for m, _ in b) + 1
    d3 = max(m[2] for m, _ in a) + max(m[2] for m, _ in b) + 1
    bound = min(
        sum(abs(n) for _, n in a) * max(abs(n) for _, n in b),
        sum(abs(n) for _, n in b) * max(abs(n) for _, n in a),
    )
    w = (bound.bit_length() + 64) // 64  # bound < 2^(64 w - 1) = Y / 2
    nb = 8 * w

    def pos(m: Monomial) -> int:
        return (m[0] * d2 + m[1]) * d3 + m[2]

    def pack(nums) -> int:
        # the positive and the negative numerators, each as base-Y digits
        size = (pos(nums[0][0]) + 1) * nb
        plus, minus = bytearray(size), bytearray(size)
        for m, n in nums:
            i = pos(m) * nb
            (plus if n > 0 else minus)[i:i + nb] = abs(n).to_bytes(nb, "little")
        return int.from_bytes(plus, "little") - int.from_bytes(minus, "little")

    slots = pos(a[0][0]) + pos(b[0][0]) + 1
    bias = int.from_bytes((bytes(nb - 1) + b"\x80") * slots, "little")
    buf = ((pack(a) * pack(b) + bias) ^ bias).to_bytes(slots * nb, "little")
    zero, d23, ints = bytes(nb), d2 * d3, int.from_bytes
    out = [
        ((k // d23, k % d23 // d3, k % d3), ints(s, "little", signed=True))
        for k, (s,) in enumerate(iter_unpack(f"{nb}s", buf))  # one digit per slot
        if s != zero
    ]
    return tuple(reversed(out))


def _powers(x, d: int) -> list:
    out = [x * 0 + 1]
    for _ in range(d):
        out.append(out[-1] * x)
    return out


def bareiss_determinant(matrix: list[list], one):
    """Fraction-free Gaussian elimination over any exact ring whose elements
    offer ``is_zero`` and ``exact_div`` (MPolyQ, PolyQ); every interior
    division is exact.  The first step divides by one, so it is skipped.
    ``one`` is the ring's one, the determinant of the empty matrix.  Its
    callers are ``numeric.char_poly_exact`` and the test suite's Sylvester
    resultant, the oracle for ``rigid.resultant``."""
    n = len(matrix)
    if n == 0:
        return one
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