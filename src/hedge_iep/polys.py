"""Dense univariate polynomials over an exact scalar ring, and the level
recurrence of a path matrix.

Coefficients may be Fractions, integers, field extension elements or
multivariate polynomials; the only requirements are ring arithmetic and an
honest ``== 0`` test (so this type is not meant for floats).  A sum or a
product is trimmed once, and its coefficients are whatever the coefficient
ring's own operations return, normalized there; a product takes the row of
a coefficient equal to 1 without a multiplication and starts each slot at
its first product, so the x p half of a level step costs nothing.  The level
recurrence also runs at float points: `level_spectra` solves every level of
a path matrix in pure Python from it and from the Sturm count
`level_counts`.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd, inf, lcm, sqrt

from . import Frozen


class NonzeroRemainder(ArithmeticError):
    pass


class ZeroPolynomial(ValueError):
    pass


def _trim(coeffs: list) -> tuple:
    k = len(coeffs)
    while k > 0 and coeffs[k - 1] == 0:
        k -= 1
    return tuple(coeffs[:k])


class PolyQ(Frozen):
    """Polynomial with exact coefficients, ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple) -> None:
        object.__setattr__(self, "coeffs", coeffs)

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
        """Product with a polynomial or a scalar.  The rows of the
        convolution come from the shorter factor, so the unit of x - a in a
        level step (x - a) p is a row whichever side it is on."""
        if not isinstance(other, PolyQ):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        out: list = []
        for i, x in enumerate(a):
            if x == 0:
                continue
            row = b if x == 1 else [x * y for y in b]
            out.extend([0] * (i - len(out)))  # the slots that zero rows skipped
            k = len(out) - i  # the slots that row shares with earlier rows
            for j in range(k):
                out[i + j] = row[j] + out[i + j]
            out.extend(row[k:])
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
        monic divisor over a ring).  Two int coefficients divide as a
        Fraction."""
        if other.is_zero():
            raise ZeroPolynomial("division by zero polynomial")
        rem = list(self.coeffs)
        q = [0] * max(0, len(rem) - len(other.coeffs) + 1)
        lc = other.leading()
        unit, int_lc = lc == 1, type(lc) is int
        d = other.degree
        low = other.coeffs[:-1]
        for k in range(len(q) - 1, -1, -1):
            top = rem[k + d]
            if top == 0:
                continue
            if unit:
                factor = top
            elif int_lc and type(top) is int:
                factor = Fraction(top, lc)
            else:
                factor = top / lc
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
        """The polynomial over its leading coefficient; an int one is
        inverted as a Fraction, as `divmod` divides ints."""
        if self.is_zero():
            return self
        lc = self.leading()
        if lc == 1:
            return self
        return self.scale(Fraction(1, lc) if type(lc) is int else 1 / lc)


#: the indeterminate x
X = PolyQ.of(0, 1)


def level_values(a, b, x) -> list:
    """p_0(x)..p_n(x) for the path matrix with diagonal a_1..a_n (n >= 1),
    superdiagonal products b_2..b_n and unit subdiagonal, where
    p_k = (x - a_k) p_{k-1} - b_k p_{k-2} is the characteristic polynomial
    of its trailing k-by-k submatrix.  x is a point of any ring the a_i and
    b_i act on (a QXi value in `rigid.certify_coincidences`), or the
    indeterminate X, with a_i and b_i in Fraction, QXi or the trivariate
    MPolyQ of `rigid.SYMBOLIC`; p_0 = x * 0 + 1 is the one of x's ring, and
    empty a and b give [p_0]."""
    ps = [x * 0 + 1, x - a[0]] if a else [x * 0 + 1]
    for k in range(1, len(a)):
        ps.append((x - a[k]) * ps[k] - ps[k - 1] * b[k - 1])
    return ps


def level_counts(a, b, q) -> list[int]:
    """The number of eigenvalues below q of each level k = 1..n of the path
    matrix of `level_values`, all from one pivot sweep: the Givens-Sturm
    count (W. Barth, R. S. Martin and J. H. Wilkinson, Numer. Math. 9 (1967)
    386-393).  Level k's A - qI has the LDL^T pivots d_1..d_k, where
    d_j = (a_j - q) - b_j / d_{j-1}, and by Sylvester's law of inertia as
    many eigenvalues below q as negative pivots.  A zero pivot stands for its
    limit as q rises to it, 0+, so the pivot after it is -inf, and the one
    after that is a_j - q, as b_j / -inf is 0.  Nothing is divided by -inf
    and an int q becomes a Fraction, so int and Fraction pivots stay exact,
    as in `weights.inertia`; float pivots stay floats."""
    if type(q) is int:
        q = Fraction(q)
    d = a[0] - q
    counts = [int(d < 0)]
    for aj, bj in zip(a[1:], b):
        if not d:
            d = -inf
        elif d == -inf:
            d = aj - q
        else:
            d = aj - q - bj / d
        counts.append(counts[-1] + (d < 0))
    return counts


#: Illinois steps before a bracket falls back to bisection on the count
_ILLINOIS_STEPS = 64


def _level_root(a, b, m: int, i: int, lo: float, hi: float, tol: float) -> float:
    """The eigenvalue of level m in (lo, hi), where level m has exactly i
    eigenvalues below lo: Illinois regula falsi on p_m (M. Dowell and
    P. Jarratt, BIT 11 (1971) 168-174) while p_m changes sign across the
    bracket and each step lands inside it, then bisection on the count."""
    a = a[:m]

    def p(q):
        return level_values(a, b, q)[-1]

    flo, fhi, side = p(lo), p(hi), 0
    for _ in range(_ILLINOIS_STEPS):
        if hi - lo <= tol:
            return (lo + hi) / 2
        if not (flo < 0 < fhi or fhi < 0 < flo):
            break
        # the secant point, at least tol from each end so that both ends
        # move; NaN, from a p_m that overflowed at both ends, stays NaN
        x = min(max(lo - flo * (hi - lo) / (fhi - flo), lo + tol), hi - tol)
        if not lo < x < hi:
            break
        fx = p(x)
        if fx == 0:
            return x
        # Illinois: an end that stays for a second step has its value halved
        if (fx < 0) == (flo < 0):
            lo, flo, fhi, side = x, fx, fhi / 2 if side > 0 else fhi, 1
        else:
            hi, fhi, flo, side = x, fx, flo / 2 if side < 0 else flo, -1
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            break
        if level_counts(a, b, mid)[-1] > i:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def level_spectra(a, b) -> list[list[float]]:
    """Sorted float spectra of levels 1..n, n = len(a), of the path matrix
    of `level_values` with every b_i > 0, in pure Python.  The a_i and b_i
    are rounded to floats once.  Since every b_i > 0, interlacing is strict:
    level k + 1 has one eigenvalue below level k's first, one between each
    two consecutive ones and one above its last; the outer ends come from
    the Gershgorin discs of C_n's symmetric form, with off-diagonal
    sqrt(b_i).  `_level_root` refines each eigenvalue in its bracket to
    about eps times the larger of the width and the reach from 0 of the
    discs' union."""
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    radius = [0.0] * len(a)
    for j, bj in enumerate(b):
        radius[j] += sqrt(bj)
        radius[j + 1] += sqrt(bj)
    lo = min(x - r for x, r in zip(a, radius))
    hi = max(x + r for x, r in zip(a, radius))
    # a disc's edge can be an eigenvalue, so the outer brackets reach past them
    lo, hi = lo - (hi - lo) / 64, hi + (hi - lo) / 64
    # at least one float spacing anywhere in [lo, hi]
    tol = sys.float_info.epsilon * max(hi - lo, -lo, hi)
    spectra = [a[:1]]
    for m in range(2, len(a) + 1):
        ends = [lo, *spectra[-1], hi]
        spectra.append([_level_root(a, b, m, i, ends[i], ends[i + 1], tol) for i in range(m)])
    return spectra


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """Monic gcd over a field (Fraction or QXi coefficients).  Each divisor
    is made monic first, so the division steps invert no coefficient."""
    while not b.is_zero():
        b = b.monic()
        a, b = b, a.divmod(b)[1]
    return a.monic() if not a.is_zero() else a


def _primitive(coeffs) -> tuple[int, ...]:
    """The integer coefficients, with gcd 1, of the positive rational multiple
    of the polynomial with rational coefficients ``coeffs`` (() for zero)."""
    cs = [Fraction(c) for c in coeffs]
    den = lcm(*(c.denominator for c in cs))
    ints = [c.numerator * (den // c.denominator) for c in cs]
    g = gcd(*ints)
    return tuple(n // g for n in ints)


def _negated_remainder(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The primitive positive multiple of -(a mod b), () when b divides a, for
    ascending integer coefficients with deg a >= deg b >= 1: the
    pseudo-remainder with multiplier at most |lc(b)|^(deg a - deg b + 1),
    over its content.  Each step with a nonzero leading term scales the
    remainder by |lc(b)| and cancels that term, so it stays integral and a
    positive multiple of the remainder over Q."""
    lc = b[-1]
    m = abs(lc)
    low = b[:-1] if lc > 0 else [-c for c in b[:-1]]
    r = list(a)
    for k in range(len(a) - len(b), -1, -1):
        top = r.pop()
        if top:
            r = [m * c for c in r]
            for i, c in enumerate(low, k):
                r[i] -= top * c
    while r and r[-1] == 0:
        r.pop()
    g = gcd(*r)
    return tuple(-c // g for c in r)


def _remainder_chain(p: PolyQ) -> list[PolyQ]:
    """Positive multiples of p, p' and the negated remainders after them,
    down to the last nonzero one, gcd(p, p') up to a scalar: each member is
    the primitive integer polynomial of its sign, so the chain is the
    primitive pseudo-remainder sequence (G. E. Collins, J. ACM 14 (1967)
    128-142), and its coefficients stay small."""
    a = _primitive(p.coeffs)
    seq = [a, _primitive([i * c for i, c in enumerate(a)][1:])]
    while len(seq[-1]) > 1:
        rem = _negated_remainder(seq[-2], seq[-1])
        if not rem:
            break
        seq.append(rem)
    return [PolyQ(c) for c in seq]


def sturm_sequence(p: PolyQ) -> list[PolyQ]:
    """Sturm chain of the squarefree part q of p != 0: the remainder chain
    of p, or, when it ends in a nonconstant gcd(p, p'), that of
    q = p / gcd(p, p').  Its members are positive multiples of those of the
    classical chain, with the same signs everywhere.  Its last member is a
    nonzero constant, so no point is a root of two consecutive members, and
    counts hold at multiple roots of p too."""
    if p.is_zero():
        raise ZeroPolynomial("the zero polynomial has no Sturm chain")
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
    ints = _primitive(p.coeffs)

    def sign(x) -> int:
        v = horner_enclosure(ints, x, x)[0]
        return (v > 0) - (v < 0)

    return sign


def _sign_changes(signs: list, x: Fraction) -> int:
    s = [v for v in (sign(x) for sign in signs) if v]
    return sum(1 for a, b in zip(s, s[1:]) if a != b)


def _interval(lo, hi) -> tuple[Fraction, Fraction]:
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError(f"the interval ({lo}, {hi}] has its ends reversed")
    return lo, hi


def count_real_roots(p: PolyQ, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p != 0 in (lo, hi], lo <= hi, via
    Sturm's theorem."""
    lo, hi = _interval(lo, hi)
    signs = [sign_at(q) for q in sturm_sequence(p)]
    return _sign_changes(signs, lo) - _sign_changes(signs, hi)


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


def root_multiplicities(p: PolyQ) -> tuple[int, ...]:
    """The multiplicities of the distinct complex roots of p != 0, descending,
    by Yun's squarefree decomposition: step i splits off those of multiplicity i."""
    g = poly_gcd(p, p.derivative())
    b, c, i, out = p.exact_div(g), p.derivative().exact_div(g), 1, []
    while b.degree > 0:
        d = c - b.derivative()
        a = poly_gcd(b, d)
        b, c, i, out = b.exact_div(a), d.exact_div(a), i + 1, [i] * a.degree + out
    return tuple(out)
