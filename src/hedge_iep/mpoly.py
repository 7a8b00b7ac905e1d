"""Sparse polynomials over Q in the three free parameters left after the
shift-and-scale normalization (beta2 = -1, beta4 = 1): alpha1, alpha2, beta3.

Monomials are exponent triples; coefficients are Fractions.  Division is
exact multivariate division in lex order and raises when a claimed-exact
division leaves a remainder, which is how arithmetic bugs surface instead of
silently corrupting a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class InexactDivision(ArithmeticError):
    pass


VARS = ("alpha1", "alpha2", "beta3")

Monomial = tuple[int, int, int]


@dataclass(frozen=True)
class MPolyQ:
    terms: tuple[tuple[Monomial, Fraction], ...]  # sorted descending lex

    @classmethod
    def from_dict(cls, d: dict[Monomial, Fraction]) -> "MPolyQ":
        items = [(m, c) for m, c in d.items() if c != 0]
        items.sort(key=lambda t: t[0], reverse=True)
        return cls(tuple(items))

    @classmethod
    def const(cls, c) -> "MPolyQ":
        c = Fraction(c)
        return cls(((( 0, 0, 0), c),)) if c != 0 else cls(())

    @classmethod
    def var(cls, name: str) -> "MPolyQ":
        i = VARS.index(name)
        mono = tuple(1 if j == i else 0 for j in range(3))
        return cls(((mono, Fraction(1)),))

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == (0, 0, 0))

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms[0][1]

    def total_degree(self) -> int:
        return max((sum(m) for m, _ in self.terms), default=-1)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MPolyQ.const(other)
        if not isinstance(other, MPolyQ):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPolyQ.const(other)
        if not isinstance(other, MPolyQ):
            return NotImplemented
        d = dict(self.terms)
        for m, c in other.terms:
            v = d.get(m)
            if v is None:
                d[m] = c
            else:
                v = v + c
                if v == 0:
                    del d[m]
                else:
                    d[m] = v
        return MPolyQ.from_dict(d)

    __radd__ = __add__

    def __neg__(self) -> "MPolyQ":
        return MPolyQ(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPolyQ.const(other)
        if not isinstance(other, MPolyQ):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return MPolyQ(())
            return MPolyQ(tuple((m, cc * c) for m, cc in self.terms))
        if not isinstance(other, MPolyQ):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return MPolyQ(())
        d: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                v = d.get(m)
                if v is None:
                    d[m] = c1 * c2
                else:
                    v = v + c1 * c2
                    if v == 0:
                        del d[m]
                    else:
                        d[m] = v
        return MPolyQ.from_dict(d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return MPolyQ(tuple((m, cc / c) for m, cc in self.terms))
        if isinstance(other, MPolyQ):
            return self.exact_div(other)
        return NotImplemented

    def leading(self) -> tuple[Monomial, Fraction]:
        return self.terms[0]

    def divmod_lex(self, other: "MPolyQ") -> tuple["MPolyQ", "MPolyQ"]:
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        lm, lc = other.leading()
        quo: dict[Monomial, Fraction] = {}
        rem = dict(self.terms)
        while rem:
            m = max(rem)  # the lex-leading monomial
            exps = tuple(a - b for a, b in zip(m, lm))
            if any(e < 0 for e in exps):
                break  # everything below divides no further in lex order
            coeff = rem[m] / lc
            quo[exps] = quo.get(exps, Fraction(0)) + coeff
            for m2, c2 in other.terms:
                mm = (exps[0] + m2[0], exps[1] + m2[1], exps[2] + m2[2])
                v = rem.get(mm, Fraction(0)) - coeff * c2
                if v == 0:
                    rem.pop(mm, None)
                else:
                    rem[mm] = v
        return MPolyQ.from_dict(quo), MPolyQ.from_dict(rem)

    def exact_div(self, other: "MPolyQ") -> "MPolyQ":
        q, r = self.divmod_lex(other)
        if not r.is_zero():
            raise InexactDivision("claimed-exact division left a remainder")
        return q

    def diff(self, i: int) -> "MPolyQ":
        """The exact partial derivative with respect to ``VARS[i]``."""
        d: dict[Monomial, Fraction] = {}
        for m, c in self.terms:
            if m[i]:
                d[m[:i] + (m[i] - 1,) + m[i + 1:]] = c * m[i]
        return MPolyQ.from_dict(d)

    def content(self) -> Fraction:
        from math import gcd

        if self.is_zero():
            return Fraction(1)
        num = 0
        den = 1
        for _, c in self.terms:
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def normalized(self) -> tuple["MPolyQ", Fraction]:
        """Divide out the rational content and make the lex-leading
        coefficient positive; returns (primitive, scalar) with
        self = scalar * primitive."""
        if self.is_zero():
            return self, Fraction(1)
        scale = self.content()
        if self.leading()[1] < 0:
            scale = -scale
        return MPolyQ(tuple((m, c / scale) for m, c in self.terms)), scale

    def evaluate(self, a1, a2, b3):
        """Horner-free evaluation with cached power tables; the scalar type
        just needs ring arithmetic (floats, Fractions, field extensions)."""
        zero = a1 * 0
        d1 = max((m[0] for m, _ in self.terms), default=0)
        d2 = max((m[1] for m, _ in self.terms), default=0)
        d3 = max((m[2] for m, _ in self.terms), default=0)
        p1 = _powers(a1, d1)
        p2 = _powers(a2, d2)
        p3 = _powers(b3, d3)
        acc = zero
        for (e1, e2, e3), c in self.terms:
            acc = acc + p1[e1] * p2[e2] * p3[e3] * c
        return acc

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for m, c in self.terms:
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
