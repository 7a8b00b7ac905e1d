"""The exact rigidity engine: resultants of remainder polynomials, their
trivially-nonzero factor bookkeeping, the unique solution of the three
coincidence constraints, and the completely rigid multiplicity list.

The resultants come out of a factored subresultant PRS: the powers of the
trivially nonzero linear forms in its members are carried as exponents,
and every exact division in it is by a polynomial that no form divides.
It returns r_{a,b} apart into residual, removed forms and scalar
(`simplify_resultant`); `level_resultant` is the expansion of that product.

Everything runs after the shift-and-scale normalization beta2 = -1,
beta4 = 1, which leaves the three free parameters (alpha1, alpha2, beta3).
Two independent routes produce the solution, both exact in Q[xi].  Route B
evaluates the closed-form coordinates and must zero the three simplified
resultants r'_37, r'_48, r'_49 in region 1, so a solution exists.  Route A
eliminates: alpha1 from r'_37 and each of the other two, then alpha2, which
leaves a rational eliminant E in beta3 with exactly one root in (0, 1),
where every region-1 solution has its beta3.  Route B's beta3 zeroes E, so
it is that root; gcds over Q[xi] then leave one alpha2, one alpha1 and one
value for each engineered coincidence.  The routes must agree exactly, so
the solution in region 1 is unique.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from itertools import count, product
from math import gcd, inf, lcm, prod
from typing import TYPE_CHECKING

from . import Frozen
from .algebraic import QXi
from .lambdas import (
    NAMES,
    LambdaTuple,
    abc_closed_forms,
    level_names,
    region_of,
    remainder_of,
)
from .mpoly import MPolyQ
# unused here; perfbench/tests checks that its tracer rebinds this name
from .mpoly import bareiss_determinant  # noqa: F401
from .numeric import trailing_spectra
from .polys import (
    X,
    PolyQ,
    ZeroPolynomial,
    count_real_roots,
    level_spectra,
    level_values,
    poly_gcd,
)
from .tolerance import SPECTRUM_TOL, close, gap_clusters

if TYPE_CHECKING:
    from .trees import HedgeProfile


class RoutesDisagree(RuntimeError):
    pass


class UnexpectedCoincidence(RuntimeError):
    pass


A1 = MPolyQ.var("alpha1")
A2 = MPolyQ.var("alpha2")
B3 = MPolyQ.var("beta3")
BETA2 = MPolyQ.const(-1)
BETA4 = MPolyQ.const(1)
#: the normalized tuple with the three free parameters as ring elements
SYMBOLIC = LambdaTuple(A1, A2, BETA2, B3, BETA4)
#: the engineered coincidences: each value is a root of r_a and of r_b
COINCIDENCES = {"lambda_37": (3, 7), "lambda_48": (4, 8), "lambda_49": (4, 9)}

#: nonconstant linear forms that cannot vanish on the feasibility set: the
#: pairwise differences of the five distinguished values plus the sum form
TRIVIAL_FORMS: tuple[tuple[str, MPolyQ], ...] = (
    ("alpha1-alpha2", A1 - A2),
    ("alpha1-beta2", A1 + 1),
    ("alpha1-beta3", A1 - B3),
    ("alpha1-beta4", A1 - 1),
    ("alpha2-beta2", A2 + 1),
    ("alpha2-beta3", A2 - B3),
    ("alpha2-beta4", A2 - 1),
    ("beta2-beta3", B3 + 1),  # up to sign
    ("beta3-beta4", B3 - 1),
    ("alpha2+beta2-beta3-beta4", A2 - B3 - 2),
)
NO_FORMS = (0,) * len(TRIVIAL_FORMS)
ONE = MPolyQ.const(1)


@lru_cache(maxsize=None)
def char_poly_symbolic(n: int) -> PolyQ:
    """p_n as a polynomial in x with trivariate coefficients.  For n >= 2 it
    is one step of `level_values`, in its operand order, from the cached
    p_{n-1} and p_{n-2}, so levels up to n cost n steps in all."""
    if n < 0:
        raise ValueError("levels start at n = 0")
    a, b = abc_closed_forms(SYMBOLIC, n)
    if n < 2:
        return level_values(a, b, X)[n]
    return (X - a[-1]) * char_poly_symbolic(n - 1) - char_poly_symbolic(n - 2) * b[-1]


@lru_cache(maxsize=None)
def remainder_symbolic(n: int) -> PolyQ:
    """r_n = p_n / ((x - alpha_n)(x - beta_n)), exact over the parameter ring."""
    if n < 3:
        raise ValueError("remainder polynomials start at n = 3")
    return remainder_of(SYMBOLIC, n, char_poly_symbolic(n))


def _cleared(f: PolyQ) -> tuple[list[MPolyQ], int]:
    """The coefficients of c * f, descending, all with denominator 1, and
    the smallest such positive integer c."""
    coeffs = [x if isinstance(x, MPolyQ) else MPolyQ.const(x) for x in reversed(f.coeffs)]
    c = lcm(*(x.den for x in coeffs))
    return [x * c for x in coeffs], c


def _pseudo_remainder(a: list[MPolyQ], b: list[MPolyQ]) -> list[MPolyQ]:
    """lc(b)^(deg a - deg b + 1) a mod b for descending coefficient lists
    with deg a >= deg b >= 1, without its leading zeros: each step scales
    the remainder by lc(b) and cancels its leading term, so every
    coefficient stays in the ring.  An entry under b's tail becomes
    r[j] lc(b) - top b[j] in one `MPolyQ.mul_sub`."""
    lead, tail = b[0], b[1:]
    r = list(a)
    steps = len(a) - len(b) + 1
    for k in range(steps):
        top = r[k]
        for j, x in enumerate(tail, k + 1):
            r[j] = r[j].mul_sub(lead, top, x)
        for j in range(k + len(b), len(r)):
            r[j] = r[j] * lead
    r = r[steps:]
    while r and r[0].is_zero():
        r.pop(0)
    return r


def factored_resultant(f: PolyQ, g: PolyQ) -> tuple[MPolyQ, tuple[str, ...], Fraction]:
    """The resultant res(f, g), the determinant of the Sylvester matrix with
    the rows of f first, with its trivial factors apart: (residual, removed,
    scalar) with res = scalar * residual * prod(removed).  The residual is
    primitive (integral, content 1, positive lex-leading coefficient) and
    no form of `TRIVIAL_FORMS` divides it; removed names the forms that
    divide res, with multiplicity, in the order of `TRIVIAL_FORMS`.  A zero
    res has residual 0, nothing removed and scalar 1.

    The subresultant PRS (G. E. Collins, J. ACM 14 (1967); W. S. Brown and
    J. F. Traub, J. ACM 18 (1971)) runs on c f and d g, which clears every
    denominator.  Each member, lc and h is kept as s * prod F^e * P (`_split`):
    a rational s, an exponent e >= 0 per trivial form F, and a part P that
    no form divides.  A step (A, B) -> (B, R), delta = deg A - deg B, takes
    the pseudo-remainder of the parts, as prem(s A, t B) = s t^(delta+1)
    prem(A, B), splits it, and divides its part by the parts of lc and h,
    delta times; R = prem(A, B) / (lc h^delta) keeps e >= 0 and these
    divisions are exact because the forms are prime and the part of prem
    has no form common to all its coefficients.  Then lc = lc(B) and
    h = lc^delta / h^(delta-1), alike.  Once R is a constant, res =
    R^deg B / h^(deg B - 1) up to the sign of the row swaps; a zero R means
    a common factor, res = 0.  res(c f, d g) = c^deg g d^deg f res(f, g)
    undoes the scaling."""
    if f.is_zero() or g.is_zero():
        raise ZeroPolynomial("resultants need two nonzero polynomials")
    m, n = f.degree, g.degree
    a, c = _cleared(f)
    b, d = _cleared(g)
    sign = 1
    if m < n:
        a, b = b, a
        sign = (-1) ** (m * n)
    sa, ea, a = _split(a)
    sb, eb, b = _split(b)
    sl, el, lead = sh, eh, h = Fraction(1), NO_FORMS, ONE
    while len(b) > 1:
        delta = len(a) - len(b)
        if len(a) % 2 == 0 and len(b) % 2 == 0:  # both degrees odd
            sign = -sign
        r = _pseudo_remainder(a, b)
        if not r:
            return MPolyQ(()), (), Fraction(1)
        sr, er, r = _split(r)
        for div in (lead,) + (h,) * delta:
            if div != 1:
                r = [x.exact_div(div) for x in r]
        sr = sa * sb ** (delta + 1) * sr / (sl * sh**delta)
        er = tuple(
            x + (delta + 1) * y + z - u - delta * v for x, y, z, u, v in zip(ea, eb, er, el, eh)
        )
        sa, ea, a = sb, eb, b
        sb, eb, b = sr, er, r
        s, e, (lead,) = _split(a[:1])
        sl, el = sa * s, tuple(x + y for x, y in zip(ea, e))
        if delta == 1:
            sh, eh, h = sl, el, lead
        elif delta > 1:
            sh = sl**delta / sh ** (delta - 1)
            eh = tuple(delta * x - (delta - 1) * y for x, y in zip(el, eh))
            h = (lead**delta).exact_div(h ** (delta - 1))
    k = len(a) - 1  # res = lc(B)^k / h^(k-1)
    if k == 0:  # two constants
        return ONE, (), Fraction(1)
    p = b[0] ** k
    if k > 1 and h != 1:
        p = p.exact_div(h ** (k - 1))
    residual, scale = p.normalized()
    e = tuple(k * x - (k - 1) * y for x, y in zip(eb, eh))
    s = sb**k / sh ** (k - 1) * scale / (sign * c**n * d**m)
    return residual, _names(e), s


def _expand(residual: MPolyQ, removed: tuple[str, ...], scalar: Fraction) -> MPolyQ:
    """scalar * residual * prod(removed), res(f, g) from `factored_resultant`."""
    return residual * scalar * _form_product([removed.count(name) for name, _ in TRIVIAL_FORMS])


def resultant(f: PolyQ, g: PolyQ) -> MPolyQ:
    """The resultant res(f, g), expanded from `factored_resultant`."""
    return _expand(*factored_resultant(f, g))


@lru_cache(maxsize=None)
def simplify_resultant(a: int, b: int) -> tuple[MPolyQ, tuple[str, ...], Fraction]:
    """The eliminant r_{a,b} detecting a shared non-distinguished eigenvalue
    between levels a and b, with its trivial factors apart: (residual,
    removed, scalar), r_{a,b} = scalar * residual * prod(removed), in the
    convention of `factored_resultant`, which computes it.

    No solution in the open region 1 is lost: there beta2 = -1 < alpha1 <
    alpha2 < beta3 < 1 = beta4, so every difference form, which vanishes only
    where two distinguished values are equal, is nonzero, and the sum form
    alpha2 - beta3 - 2 is below -2.
    """
    if not (3 <= a < b):
        raise ValueError("need 3 <= a < b")
    return factored_resultant(remainder_symbolic(a), remainder_symbolic(b))


@lru_cache(maxsize=None)
def level_resultant(a: int, b: int) -> MPolyQ:
    """r_{a,b} in full, expanded from `simplify_resultant`."""
    return _expand(*simplify_resultant(a, b))


#: the first integer point `_form_content` restricts to: on each of its
#: three axis lines the forms have distinct roots, no form is a zero
#: constant, and every r_{a,b} with a < b <= 7, or a <= 5 and b = 8, or
#: a <= 4 and b = 9 is stripped at this first point
GRID_BASE = (2, -2, 3)
#: the step of the line GRID_BASE + k DIAGONAL that `_grid` takes turns
#: with: every coordinate moves along it, no linear form with coefficients
#: in {-1, 0, 1} is constant on it, and no two forms share a root on an
#: axis line through any of its points with k >= 0
DIAGONAL = (1, 2, 4)


def _grid():
    """GRID_BASE, then in turn a point GRID_BASE + k DIAGONAL, k = 1, 2, ...,
    and the next integer point GRID_BASE + (u, v, w), u, v, w >= 0, of the
    cube grid, shell by shell: every point of the cube [0, n]^3 comes before
    any point outside it.  A restriction to the x_i axis line does not
    depend on the point's x_i, and neighbouring cube points share two
    coordinates, so a diagonal point, where all three move, is the likelier
    to be lucky; the cube points make sure every cube is covered."""
    b0, b1, b2 = GRID_BASE
    d0, d1, d2 = DIAGONAL
    cube = (
        (b0 + u, b1 + v, b2 + w)
        for n in count()
        for u, v, w in product(range(n + 1), repeat=3)
        if max(u, v, w) == n
    )
    yield next(cube)
    for k in count(1):
        yield b0 + k * d0, b1 + k * d1, b2 + k * d2
        yield next(cube)


def _form_roots(point: tuple[int, int, int]) -> list[tuple[int, int]] | None:
    """(axis i, root t_F) of each form on the x_i axis line through point,
    or None where two forms that vary along the same axis share a root."""
    roots = []
    for _, form in TRIVIAL_FORMS:
        (lead, c), *rest = form.nums  # form = c x_i + (later variables), c = +-1
        i = lead.index(1)
        roots.append((i, -c * sum(n * (point[m.index(1)] if any(m) else 1) for m, n in rest)))
    return roots if len(set(roots)) == len(roots) else None


def _order_at(coeffs: list[int], t: int, cap) -> int:
    """The order of vanishing at t, or cap if that is smaller, of the
    nonzero integer polynomial with ascending coefficients ``coeffs``, by
    synthetic division by x - t."""
    k = 0
    while k < cap:
        acc, quo = 0, []
        for c in reversed(coeffs):
            acc = acc * t + c
            quo.append(acc)
        if quo.pop():
            return k
        coeffs = quo[::-1]
        k += 1
    return k


def _form_product(ks) -> MPolyQ:
    """prod F^k over the `TRIVIAL_FORMS` F and the exponents ks."""
    return prod((form**k for (_, form), k in zip(TRIVIAL_FORMS, ks) if k), start=ONE)


def _names(ks) -> tuple[str, ...]:
    return tuple(name for (name, _), k in zip(TRIVIAL_FORMS, ks) for _ in range(k))


def _form_content(coeffs: list[MPolyQ]) -> tuple[tuple[int, ...], list[MPolyQ]]:
    """The largest product g = prod F^m of powers of the `TRIVIAL_FORMS` that
    divides every polynomial of ``coeffs`` (not all zero), as its exponents
    m, and the polynomials divided by g.

    Each form F is x_i + l (up to sign) with l free of x_i, so on the line
    through an integer point p parallel to the x_i axis it is t - t_F for an
    integer t_F.  If F^m divides a polynomial r, (t - t_F)^m divides the
    restriction of r to that line, so F's order of vanishing there is an
    upper bound on m, and k, the least such order over the polynomials
    whose restriction is not identically zero and over the points tried so
    far, bounds F's exponent in g.  Where every k is 0, g = 1.  Otherwise
    one exact division of each polynomial by prod F^k shows that it divides
    them all, so m = k for every form at once.  A point where two forms that
    vary along the same axis share a root on that line is skipped, by
    integer work alone: there one factor would be counted for both forms.
    Where all restrictions to one line vanish identically, or a division
    leaves a remainder, the point is unlucky too (a cofactor vanishes
    there), and the next point of `_grid` is tried; one whose bounds are
    those of the last failed division is not divided again.  The unlucky
    points lie on a nonzero polynomial's zero set (two forms share a root on
    a line only on the plane where a nonzero linear form vanishes), which
    contains no whole cube of side above its degree (J. T. Schwartz, J. ACM
    27 (1980)), so the loop ends.
    """
    nonzero = sorted((x for x in coeffs if x), key=len)  # small ones first
    degs = [max(m[i] for x in nonzero for m, _ in x.nums) for i in range(3)]
    bound, failed = [inf] * len(TRIVIAL_FORMS), None
    for point in _grid():
        roots = _form_roots(point)
        if roots is None:
            continue
        p0, p1, p2 = ([x**e for e in range(d + 1)] for x, d in zip(point, degs))
        ks = bound = list(bound)
        for x in nonzero:
            lines = [[0] * (d + 1) for d in degs]
            c0, c1, c2 = lines
            for (e0, e1, e2), n in x.nums:
                c0[e0] += n * p1[e1] * p2[e2]
                c1[e1] += n * p0[e0] * p2[e2]
                c2[e2] += n * p0[e0] * p1[e1]
            nonvanishing = [any(c) for c in lines]
            for j, (i, t) in enumerate(roots):
                if ks[j] and nonvanishing[i]:
                    ks[j] = _order_at(lines[i], t, ks[j])
            if not any(ks):
                return NO_FORMS, coeffs
        if inf in ks or ks == failed:
            continue
        g = _form_product(ks)
        out = []
        for x in coeffs:
            q, rem = x.divmod_lex(g)
            if rem:
                failed = ks
                break
            out.append(q)
        else:
            return tuple(ks), out


def _split(coeffs: list[MPolyQ]) -> tuple[Fraction, tuple[int, ...], list[MPolyQ]]:
    """A polynomial with coefficients ``coeffs``, not all zero, as (s, e, P)
    with coeffs = s * prod F^e * P: P's coefficients are integral with gcd 1
    and share no trivial form."""
    ks, coeffs = _form_content(coeffs)
    s = Fraction(
        gcd(*(n for x in coeffs for _, n in x.nums)), lcm(*(x.den for x in coeffs))
    )
    return s, ks, coeffs if s == 1 else [x / s for x in coeffs]


def companion_double_root_entry() -> tuple[MPolyQ, MPolyQ, Fraction]:
    """The (2,1) entry of r_8 evaluated at the companion matrix of r_4,
    together with the printed five-factor product and the rational scalar
    relating them.  A nonzero entry rules out two shared roots."""
    r4 = remainder_symbolic(4)
    if r4.degree != 2 or r4.leading() != 1:
        raise AssertionError("r_4 must be a monic quadratic")
    # Cayley-Hamilton: with r_8 = q r_4 + u x + v, r_8(C) = u C + v I at the
    # companion matrix C of r_4, whose (2,1) entry is 1; so the entry is u
    entry = remainder_symbolic(8).divmod(r4)[1].coeffs[1]
    target = (B3 - 1) * (A1 + 1) * (BETA2 - A2) * (A1 - 1) * (A2 - B3 - 2)
    ep, es = entry.normalized()
    tp, ts = target.normalized()
    if ep != tp:
        raise AssertionError("companion entry does not match the printed product")
    return entry, target, es / ts


# ---------------------------------------------------------------------------
# the rigid solution


class RigidSolution(Frozen):
    """The unique (up to shift and scale) tuple with the three engineered
    coincidences, exactly in Q[xi], plus the float view of the values that
    the elimination route derives.  ``lam`` holds QXi scalars normalised to
    beta2 = -1 and beta4 = 1; ``lambda_37``, ``lambda_48`` and ``lambda_49``
    are the coincident values in Q[xi]; ``route_a`` maps names to floats."""

    __slots__ = ("xi", "lam", "lambda_37", "lambda_48", "lambda_49", "region", "route_a")

    def exact_values(self) -> dict[str, QXi]:
        return {
            "xi": self.xi,
            "alpha1": self.lam.alpha1,
            "alpha2": self.lam.alpha2,
            "beta3": self.lam.beta3,
            "lambda_37": self.lambda_37,
            "lambda_48": self.lambda_48,
            "lambda_49": self.lambda_49,
        }


def route_b_values() -> dict[str, QXi]:
    """The closed-form coordinates in Q[xi] (descending powers of xi over a
    common denominator)."""
    return {
        "xi": QXi.xi(),
        "alpha1": QXi.from_poly_coeffs([1, -4, -16, 49, 44, -74], 90),
        "alpha2": QXi.from_poly_coeffs([-3, 10, 30, -73, 24, 14], 30),
        "beta3": QXi.from_poly_coeffs([-1, 1, 25, -22, -134, 92], 60),
        "lambda_37": QXi.from_poly_coeffs([-5, 19, 35, -124, 182, -124], 60),
        "lambda_48": QXi.from_poly_coeffs([-2, -1, 41, 37, -124, -86], 90),
        "lambda_49": QXi.from_poly_coeffs([-2, 9, 11, -69, 80, -42], 30),
    }


def coincidence_residuals() -> list[MPolyQ]:
    """r'_37, r'_48 and r'_49, the residuals of the three coincidences."""
    return [simplify_resultant(a, b)[0] for a, b in COINCIDENCES.values()]


@lru_cache(maxsize=None)
def eliminate(f: MPolyQ, g: MPolyQ, h: MPolyQ) -> tuple[MPolyQ, MPolyQ, PolyQ]:
    """g1 = res_alpha1(f, g), g2 = res_alpha1(f, h) and the eliminant
    E = res_alpha2(g1, g2), a rational polynomial in beta3.  Where the
    leading coefficient of f in alpha1 is nonzero, every common zero of f,
    g and h zeroes g1 and g2, and its beta3 is a root of E."""
    f1 = f.univariate(0)
    g1 = resultant(f1, g.univariate(0))
    g2 = resultant(f1, h.univariate(0))
    e = resultant(g1.univariate(1), g2.univariate(1))
    return g1, g2, PolyQ.of(*(c.constant_value() for c in e.univariate(2).coeffs))


def eliminant() -> PolyQ:
    """E for r'_37, r'_48 and r'_49: degree 31, 27 terms, integral."""
    return eliminate(*coincidence_residuals())[2]


@lru_cache(maxsize=8)
def unit_interval_roots(p: PolyQ) -> int:
    """The number of distinct real roots of p in the open interval (0, 1);
    cached, so `derive` and a caller that reports E's count share one
    Sturm chain."""
    return count_real_roots(p, Fraction(0), Fraction(1)) - (p(Fraction(1)) == 0)


def derive(f: MPolyQ, g: MPolyQ, h: MPolyQ, beta3: QXi) -> dict[str, QXi]:
    """The one tuple that f = g = h = 0 can have in region 1, derived
    exactly from the candidate beta3, with its coincident eigenvalues.
    Raises RoutesDisagree when a step does not single it out.

    f must be alpha1 (alpha2 - beta3 - 1) - beta3, as r'_37 is.  In region 1,
    alpha2 < beta3 makes alpha2 - beta3 - 1 < -1, so alpha1 = beta3 /
    (alpha2 - beta3 - 1), and alpha1 < beta3 forces beta3 > 0; with
    beta3 < beta4 = 1, every solution has its beta3 at a root of E in
    (0, 1).  beta3 must zero E and lie in (0, 1), and E must have no other
    root there.  The solution's alpha2 is then a common root of g1 and g2
    at beta3, whose gcd must be linear, and each engineered value is the
    common root of the remainders of its two levels, whose gcd must be
    linear."""
    if f.univariate(0) != PolyQ((-B3, A2 - B3 - 1)):
        raise RoutesDisagree("r'_37 is not alpha1 (alpha2 - beta3 - 1) - beta3")
    g1, g2, e = eliminate(f, g, h)
    if not (e(beta3) == 0 and 0 < beta3 < 1):
        raise RoutesDisagree("beta3 is not a root of the eliminant in (0, 1)")
    roots = unit_interval_roots(e)
    if roots != 1:
        raise RoutesDisagree(f"the eliminant has {roots} roots in (0, 1), not one")
    zero = QXi.of(0)
    at_beta3 = [
        PolyQ(tuple(c.evaluate(zero, zero, beta3) for c in p.univariate(1).coeffs))
        for p in (g1, g2)
    ]
    d = poly_gcd(*at_beta3)
    if d.degree != 1:
        raise RoutesDisagree(f"gcd(g1, g2) at beta3 has degree {d.degree}, not 1")
    alpha2 = -d.coeffs[0]
    alpha1 = beta3 / (alpha2 - beta3 - 1)
    lam = LambdaTuple(alpha1, alpha2, QXi.of(-1), beta3, QXi.of(1))
    ps = level_values(*abc_closed_forms(lam, max(map(max, COINCIDENCES.values()))), X)
    out = {"xi": QXi.xi(), "alpha1": alpha1, "alpha2": alpha2, "beta3": beta3}
    for name, (a, b) in COINCIDENCES.items():
        d = poly_gcd(remainder_of(lam, a, ps[a]), remainder_of(lam, b, ps[b]))
        if d.degree != 1:
            raise RoutesDisagree(f"gcd(r_{a}, r_{b}) has degree {d.degree}, not 1")
        out[name] = -d.coeffs[0]
    return out


def solve_route_a() -> dict[str, QXi]:
    """Route A: the values that elimination derives from r'_37, r'_48 and
    r'_49, with route B's beta3 as the candidate root of E."""
    return derive(*coincidence_residuals(), route_b_values()["beta3"])


@lru_cache(maxsize=1)
def solve_rigid() -> RigidSolution:
    """Both routes: route A's values must equal route B's exactly, and
    route B's must zero the three residuals in region 1."""
    exact = route_b_values()
    residuals = coincidence_residuals()
    derived = solve_route_a()
    for key, val in exact.items():
        if derived[key] != val:
            raise RoutesDisagree(
                f"routes disagree on {key}: {float(derived[key])} vs {float(val)}"
            )
    lam = LambdaTuple(
        exact["alpha1"], exact["alpha2"], QXi.of(-1), exact["beta3"], QXi.of(1)
    )
    for (a, b), residual in zip(COINCIDENCES.values(), residuals):
        value = residual.evaluate(exact["alpha1"], exact["alpha2"], exact["beta3"])
        if not value.is_zero():
            raise RoutesDisagree(f"exact route does not zero r'_{a},{b}")
    region = region_of(
        (lam.alpha1, lam.alpha2, QXi.of(-1), lam.beta3, QXi.of(1))
    )
    if region != 1:
        raise RoutesDisagree("exact tuple left the expected region")
    return RigidSolution(
        exact["xi"],
        lam,
        exact["lambda_37"],
        exact["lambda_48"],
        exact["lambda_49"],
        region,
        {key: float(val) for key, val in derived.items()},
    )


# ---------------------------------------------------------------------------
# exact coincidence certificates and level spectra at the rigid point


def certify_coincidences() -> dict[str, bool]:
    """Exact: each engineered eigenvalue v is a root of r_n for both levels
    n of its pair.  The roots of p_n are simple (every b_k is positive), so
    that is p_n(v) = 0 with v neither alpha_n nor beta_n."""
    sol = solve_rigid()
    a, b = abc_closed_forms(sol.lam, max(map(max, COINCIDENCES.values())))
    out = {}
    for name, pair in COINCIDENCES.items():
        v = getattr(sol, name)
        ps = level_values(a, b, v)
        out[name] = all(
            ps[n].is_zero() and v not in (sol.lam.alpha(n), sol.lam.beta(n)) for n in pair
        )
    return out


def rigid_b_values(up_to: int = 41) -> list[QXi]:
    """The superdiagonal entries b_2..b_{up_to} at the rigid tuple, exactly."""
    return abc_closed_forms(solve_rigid().lam, up_to)[1]


@lru_cache(maxsize=8)
def rigid_level_spectra(max_level: int) -> tuple[tuple[float, ...], ...]:
    """Ascending float spectra of C_1..C_max at the rigid tuple (exact
    coefficients rounded once), solved once per max_level and shared by
    `level_figure_data` and `consecutive_interlacing_gap` as tuples of
    floats.  Where numpy is already loaded they come from LAPACK
    (`numeric.trailing_spectra`); otherwise from the pure-Python
    `polys.level_spectra`, which loads no numpy, as the rigid list does.
    The two solvers agree to a few eps times the width."""
    a, b = abc_closed_forms(solve_rigid().lam, max_level)
    # 40 levels: LAPACK 1.6 ms, polys.level_spectra 40 ms, a cold numpy import 145 ms
    if sys.modules.get("numpy") is not None:
        return tuple(tuple(s.tolist()) for s in trailing_spectra(a, b))
    return tuple(map(tuple, level_spectra(a, b)))


class RigidList(Frozen):
    """The ordered list and its (value, multiplicity, label) table."""

    __slots__ = ("ordered", "table")

    @property
    def total(self) -> int:
        return sum(self.ordered)


def rigid_multiplicity_list(prof: HedgeProfile) -> RigidList:
    """Ordered multiplicity list of the rigid construction on a lush hedge
    with the given profile (height >= 8), assembled from the level spectra
    of `polys.level_spectra` and clustered at SPECTRUM_TOL; no giant matrix
    is ever formed, and no numpy is loaded.

    Raises UnexpectedCoincidence if the level clustering shows a coincidence
    outside the periodic pattern and the three engineered ones.
    """
    if prof.height < 8:
        raise ValueError("the rigid list needs height >= 8")
    n = prof.height + 1
    certs = certify_coincidences()
    if not all(certs.values()):
        raise UnexpectedCoincidence("engineered coincidences failed exact checks")
    sol = solve_rigid()
    specs = level_spectra(*abc_closed_forms(sol.lam, n))
    points = sorted((v, level) for level, spec in enumerate(specs, 1) for v in spec)
    width = points[-1][0] - points[0][0]
    # (value, levels of its members) per cluster
    clusters = [
        (value, [points[i][1] for i in r])
        for value, r in gap_clusters([v for v, _ in points], SPECTRUM_TOL)
    ]
    # (value, levels) of each distinguished and each engineered eigenvalue
    named = {
        name: (
            float(getattr(sol.lam, name)),
            {i for i in range(1, n + 1) if name in level_names(i)},
        )
        for name in NAMES
    } | {name: (float(getattr(sol, name)), set(pair)) for name, pair in COINCIDENCES.items()}
    ordered = []
    table = []
    for value, cl in clusters:
        levels = frozenset(cl)
        if len(levels) != len(cl):
            raise UnexpectedCoincidence("two eigenvalues of one level clustered")
        label = ""
        for name, (target, _) in named.items():
            if close(value, target, SPECTRUM_TOL, max(1.0, width)):
                label = name
                break
        if len(levels) > 1:
            if not label:
                raise UnexpectedCoincidence(f"unlabelled coincidence at {value}")
            if levels != named[label][1]:
                raise UnexpectedCoincidence(
                    f"{label} appears at levels {sorted(levels)}"
                )
        mult = sum(prof.ell_at(level) for level in levels)
        ordered.append(mult)
        table.append((value, mult, label))
    return RigidList(tuple(ordered), tuple(table))


def level_figure_data(max_level: int = 40) -> list[tuple[int, int, float]]:
    """(level, index, eigenvalue) rows for the level diagram."""
    if max_level < 1 or max_level > 40:
        raise ValueError("max_level must be 1..40")
    specs = rigid_level_spectra(max_level)
    rows = []
    for level in range(1, max_level + 1):
        for idx, v in enumerate(specs[level - 1], start=1):
            rows.append((level, idx, v))
    return rows


def consecutive_interlacing_gap(max_level: int = 40) -> float:
    """Minimum gap between consecutive-level spectra after unit-width
    normalization.  As every b_i > 0, level k + 1's eigenvalues j and j + 1
    bracket level k's eigenvalue j; the gap to these two is signed, so a
    level that fails to interlace gives a negative gap."""
    specs = rigid_level_spectra(max_level)
    if len(specs) == 1:
        return inf  # no consecutive pair, and one level's width is 0
    width = max(s[-1] for s in specs) - min(s[0] for s in specs)
    gap = min(
        min(x - upper[j], upper[j + 1] - x)
        for lower, upper in zip(specs, specs[1:])
        for j, x in enumerate(lower)
    )
    return gap / width
