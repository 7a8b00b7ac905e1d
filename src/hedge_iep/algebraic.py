"""Exact arithmetic in Q[xi], where xi is the smallest positive root of

    x^6 - 3 x^5 - 11 x^4 + 24 x^3 - 6 x^2 - 48 x + 16.

Elements are rational coordinate vectors against 1, xi, ..., xi^5.  Ring
operations go through ``PolyQ``: a product is the polynomial product reduced
by the monic sextic through ``PolyQ.divmod``, and an inverse comes from
``poly_xgcd`` with the sextic.  Sign tests refine the isolating interval of
xi by bisection and bound the coordinate polynomial with interval
arithmetic, so comparisons are exact decisions, never float guesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering

from .polys import PolyQ, bisect_root, count_real_roots, poly_xgcd, sign_at

# ascending coefficients of the defining sextic
SEXTIC = PolyQ.of(16, -48, -6, 24, -11, -3, 1)

# the seed isolating interval (lo, hi] of xi
XI_INTERVAL = (Fraction(1, 3), Fraction(17, 50))

if not (SEXTIC(XI_INTERVAL[0]) > 0) != (SEXTIC(XI_INTERVAL[1]) > 0):  # pragma: no cover
    raise AssertionError("the seed interval must bracket a sign change")

_interval = list(XI_INTERVAL)
_sextic_sign = sign_at(SEXTIC)
_ZERO = Fraction(0)


def verify_isolation() -> bool:
    """Sturm counts: no root of the sextic in (0, lo], exactly one in
    (lo, hi], so xi is the smallest positive root."""
    lo, hi = XI_INTERVAL
    return (
        count_real_roots(SEXTIC, Fraction(0), lo) == 0
        and count_real_roots(SEXTIC, lo, hi) == 1
    )


def refined_xi(eps: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink (and cache) the isolating interval to width below eps."""
    sign_lo = _sextic_sign(_interval[0])
    _interval[:] = bisect_root(*_interval, eps, lambda m: sign_lo * _sextic_sign(m))
    return tuple(_interval)


def _coerce(x) -> "QXi | None":
    if isinstance(x, QXi):
        return x
    if isinstance(x, (int, Fraction)):
        return QXi((Fraction(x),) + (_ZERO,) * 5)
    return None


@total_ordering
@dataclass(frozen=True)
class QXi:
    """An element of Q[xi] as coordinates against (1, xi, ..., xi^5)."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != 6:
            raise ValueError("need exactly six coordinates")

    @classmethod
    def of(cls, *coords) -> "QXi":
        cs = [Fraction(c) for c in coords]
        cs += [Fraction(0)] * (6 - len(cs))
        return cls(tuple(cs))

    @classmethod
    def xi(cls) -> "QXi":
        return cls.of(0, 1)

    @classmethod
    def from_poly_coeffs(cls, coeffs, denom=1) -> "QXi":
        """Coordinates from descending xi^5..xi^0 coefficients over a common
        denominator (the layout the closed-form values are printed in)."""
        cs = [Fraction(c, denom) for c in reversed(list(coeffs))]
        return cls.of(*cs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return QXi(tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self) -> "QXi":
        return QXi(tuple(-a for a in self.coords))

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return QXi(tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def _poly(self) -> PolyQ:
        return PolyQ.of(*self.coords)

    @staticmethod
    def _of_poly(p: PolyQ) -> "QXi":
        # a PolyQ product leaves the positions it never adds to as int 0
        cs = tuple(c or _ZERO for c in p.coeffs)
        return QXi(cs + (_ZERO,) * (6 - len(cs)))

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return QXi._of_poly((self._poly() * o._poly()).divmod(SEXTIC)[1])

    __rmul__ = __mul__

    def inverse(self) -> "QXi":
        if self.is_zero():
            raise ZeroDivisionError("zero element of Q[xi]")
        g, s, _ = poly_xgcd(self._poly(), SEXTIC)
        if g.degree != 0:
            raise ArithmeticError("element shares a factor with the sextic")
        return QXi._of_poly(s)

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
        return self.coords == o.coords

    def __hash__(self) -> int:
        # a rational element hashes like the Fraction it equals
        return hash(self.coords[0]) if not any(self.coords[1:]) else hash(self.coords)

    def _interval_value(self, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
        # xi > 0, so monomial bounds are monotone in the endpoints
        vlo = vhi = Fraction(0)
        plo = phi = Fraction(1)
        for c in self.coords:
            a, b = c * plo, c * phi
            if a > b:
                a, b = b, a
            vlo += a
            vhi += b
            plo *= lo
            phi *= hi
        return vlo, vhi

    def _refine_until(self, decide):
        """Decide on the cached interval of xi, else refine it to 2^-8 of its
        width and retry until ``decide(vlo, vhi)`` returns non-None.  This
        ends: the sextic is irreducible, so an irrational element has an
        irrational value, which no sign or rounding boundary equals, and a
        rational element has a point value interval."""
        lo, hi = _interval
        while (out := decide(*self._interval_value(lo, hi))) is None:
            lo, hi = refined_xi((hi - lo) / 2**8)
        return out

    def sign(self) -> int:
        """Exact sign via interval refinement; zero iff all coordinates are."""
        if self.is_zero():
            return 0
        return self._refine_until(lambda vlo, vhi: 1 if vlo > 0 else -1 if vhi < 0 else None)

    def __lt__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def approx(self, eps: Fraction = Fraction(1, 10**15)) -> Fraction:
        """A rational within eps/2 of the value.  On (lo, hi] inside the seed
        interval the value interval is at most ``slope`` times as wide as
        (lo, hi], so one refinement of xi to eps / slope suffices."""
        hi = XI_INTERVAL[1]
        slope = sum(i * abs(c) * hi ** (i - 1) for i, c in enumerate(self.coords))
        vlo, vhi = self._interval_value(*refined_xi(Fraction(eps) / max(slope, 1)))
        return (vlo + vhi) / 2

    def __float__(self) -> float:
        """Correctly rounded: both ends of the value interval round to the
        same float, whatever earlier calls did to the interval of xi."""
        return self._refine_until(
            lambda vlo, vhi: float(vlo) if float(vlo) == float(vhi) else None
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
