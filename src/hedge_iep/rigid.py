"""The exact rigidity engine: resultants of remainder polynomials, their
trivially-nonzero factor bookkeeping, the unique solution of the three
coincidence constraints, and the completely rigid multiplicity list.

Everything runs after the shift-and-scale normalization beta2 = -1,
beta4 = 1, which leaves the three free parameters (alpha1, alpha2, beta3).
Two independent routes produce the solution.  Route A runs a damped Newton
iteration on the three simplified resultants r'_37, r'_48, r'_49 from seeded
random starts, with the exact Jacobian from ``MPolyQ.diff``, and keeps only
simple roots inside the region box; they must all be one point.  The starts
advance through Newton as one batch, and the cross-check against the float
remainders runs once per distinct end point, not once per start.  Route B
evaluates the closed-form coordinates exactly in Q[xi].  The routes must
agree to nine decimals and route B must zero the three simplified
resultants identically.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .algebraic import SEXTIC, QXi
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
from .polys import X, PolyQ, ZeroPolynomial, level_values
from .tolerance import ROUTE_TOL, SPECTRUM_TOL, close, gap_clusters
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


@lru_cache(maxsize=None)
def char_poly_symbolic(n: int) -> PolyQ:
    """p_n as a polynomial in x with trivariate coefficients."""
    return level_values(*abc_closed_forms(SYMBOLIC, n), X)[n]


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
    coefficient stays in the ring."""
    lead, tail = b[0], b[1:]
    r = list(a)
    steps = len(a) - len(b) + 1
    for k in range(steps):
        top = r[k]
        for j in range(k + 1, len(r)):
            r[j] = r[j] * lead
        for j, x in enumerate(tail, k + 1):
            r[j] = r[j] - top * x
    r = r[steps:]
    while r and r[0].is_zero():
        r.pop(0)
    return r


def resultant(f: PolyQ, g: PolyQ) -> MPolyQ:
    """The resultant res(f, g), the determinant of the Sylvester matrix with
    the rows of f first, by the subresultant PRS (G. E. Collins, J. ACM 14
    (1967); W. S. Brown and J. F. Traub, J. ACM 18 (1971)).  It runs on
    c f and d g, which clears every denominator, so the sequence stays in
    Z[alpha1, alpha2, beta3]: each step (A, B) -> (B, R) takes the
    pseudo-remainder lc(B)^(delta+1) A mod B, delta = deg A - deg B, and
    divides it exactly by lead h^delta to get R; then lead = lc(B) and
    h = lead^delta / h^(delta-1).  Once R is a constant, res = R^deg B /
    h^(deg B - 1) up to the sign of the row swaps, and a zero R means a
    common factor, res = 0.  res(c f, d g) = c^deg g d^deg f res(f, g)
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
    lead = h = MPolyQ.const(1)
    while len(b) > 1:
        delta = len(a) - len(b)
        if len(a) % 2 == 0 and len(b) % 2 == 0:  # both degrees odd
            sign = -sign
        r = _pseudo_remainder(a, b)
        if not r:
            return MPolyQ(())
        div = lead * h**delta
        a, b = b, r if div == 1 else [x.exact_div(div) for x in r]
        lead = a[0]
        if delta == 1:
            h = lead
        elif delta > 1:
            h = (lead**delta).exact_div(h ** (delta - 1))
    res = b[0] ** (len(a) - 1)
    if len(a) > 2:
        res = res.exact_div(h ** (len(a) - 2))
    return res / (sign * c**n * d**m)


@lru_cache(maxsize=None)
def level_resultant(a: int, b: int) -> MPolyQ:
    """The eliminant r_{a,b} detecting a shared non-distinguished eigenvalue
    between levels a and b."""
    if not (3 <= a < b):
        raise ValueError("need 3 <= a < b")
    return resultant(remainder_symbolic(a), remainder_symbolic(b))


@lru_cache(maxsize=None)
def simplify_resultant(a: int, b: int) -> tuple[MPolyQ, tuple[str, ...], Fraction]:
    """Divide r_{a,b} by maximal powers of the trivially nonzero forms.

    Returns the primitive residual (positive leading coefficient, integral
    content 1), the removed factor names with multiplicity, and the rational
    scalar such that r_{a,b} = scalar * residual * prod(removed).

    No solution in the open region 1 is lost: there beta2 = -1 < alpha1 <
    alpha2 < beta3 < 1 = beta4, so every difference form, which vanishes only
    where two distinguished values are equal, is nonzero, and the sum form
    alpha2 - beta3 - 2 is below -2.
    """
    r = level_resultant(a, b)
    removed: list[str] = []
    for name, form in TRIVIAL_FORMS:
        while True:
            q, rem = r.divmod_lex(form)
            if rem.is_zero() and not q.is_zero():
                r = q
                removed.append(name)
            else:
                break
    residual, scale = r.normalized()
    return residual, tuple(removed), scale


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


@dataclass(frozen=True)
class RigidSolution:
    """The unique (up to shift and scale) tuple with the three engineered
    coincidences, exactly in Q[xi], plus the numerical route's values."""

    xi: QXi
    lam: LambdaTuple  # QXi scalars, beta2 = -1, beta4 = 1
    lambda_37: QXi
    lambda_48: QXi
    lambda_49: QXi
    region: int
    route_a: dict[str, float]

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


def _float_remainders(a1: float, a2: float, b3: float) -> dict[int, np.ndarray]:
    """r_3..r_9 at a float point as numpy coefficient arrays, highest power
    first: the level recurrence at numpy's float indeterminate."""
    # imported here: numpy.polynomial is not loaded with numpy, and only
    # route A needs it
    from numpy.polynomial import Polynomial

    lam = LambdaTuple(a1, a2, -1.0, b3, 1.0)
    ps = level_values(*abc_closed_forms(lam, 9), Polynomial([0.0, 1.0]))
    return {
        k: (ps[k] // Polynomial.fromroots([lam.alpha(k), lam.beta(k)])).coef[::-1]
        for k in range(3, 10)
    }


def _route_a_objective(rs: dict[int, np.ndarray]) -> np.ndarray:
    """r_7 at the root of r_3 and the products of r_8 and of r_9 over the
    two roots of r_4, from the float remainders at one point."""
    delta1 = -rs[3][1] / rs[3][0]
    rho = np.roots(rs[4])
    f1 = float(np.polyval(rs[7], delta1))
    f2 = float(np.real(np.polyval(rs[8], rho[0]) * np.polyval(rs[8], rho[1])))
    f3 = float(np.real(np.polyval(rs[9], rho[0]) * np.polyval(rs[9], rho[1])))
    return np.array([f1, f2, f3])


def _route_a_system():
    """F = (r'_37, r'_48, r'_49) and its exact Jacobian at every point of a
    float array whose last axis holds (alpha1, alpha2, beta3), from one
    float coefficient matrix over the union of the monomials of the three
    residuals and their nine partial derivatives.  The monomials are read
    from per-variable power tables by exponent."""
    polys = [simplify_resultant(a, b)[0] for (a, b) in COINCIDENCES.values()]
    polys += [p.diff(j) for p in polys for j in range(3)]
    monos = sorted({m for p in polys for m, _ in p.nums})
    column = {m: k for k, m in enumerate(monos)}
    coeffs = np.zeros((len(monos), len(polys)))
    for row, p in enumerate(polys):
        for m, n in p.nums:
            coeffs[column[m], row] = n / p.den  # rounds as float(Fraction(n, p.den))
    exps = np.array(monos)
    powers = np.arange(exps.max() + 1)
    variables = np.arange(3)

    def system(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        table = x.reshape(-1, 3, 1) ** powers  # table[i, j, e] = x_i[j]**e
        vals = np.prod(table[:, variables, exps], axis=2) @ coeffs
        return vals[:, :3].reshape(x.shape), vals[:, 3:].reshape(*x.shape, 3)

    return system


#: Newton steps per start; over seeds 0..39 the starts that reach the true
#: root settle there within 16 steps (within 1e-8 of it within 14)
NEWTON_STEPS = 50
#: a full step, then the halvings 2^-1 .. 2^-30 tried when it fails
STEP_SCALES = (np.ones(1), 0.5 ** np.arange(1, 31))
#: lstsq's rcond=None cutoff for a 3x3 system: eps * max(M, N)
PINV_RCOND = 3 * np.finfo(float).eps
#: a root whose Jacobian has sigma_min / sigma_max below this is not simple;
#: starts that creep toward the degenerate corner (alpha1, alpha2, beta3) =
#: (-1, 1, 1) end there, cost below 1e-24, ratio ~1e-9 (1.26e-2 at the root)
SIMPLE_ROOT_RATIO = 1e-6


def _damped_newton(system, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton from every row of the (N, 3) array x at once, halving any step
    that leaves the open box |x| < 1 or does not lower |F|.  Each iteration
    takes one batched least-squares step for the live starts, tries the full
    step for all of them in one evaluation, and every halving down to 2^-30
    for those it fails in a second; each start takes the first scale that
    helps, and stops when none does."""
    x = x.copy()
    f, jac = system(x)
    live = np.arange(len(x))
    for _ in range(NEWTON_STEPS):
        step = -(np.linalg.pinv(jac[live], PINV_RCOND) @ f[live, :, None])[..., 0]
        bound = np.linalg.norm(f[live], axis=1)
        moved = np.zeros(len(live), dtype=bool)
        for scales in STEP_SCALES:
            rows = np.flatnonzero(~moved)
            y = x[live[rows], None, :] + step[rows, None, :] * scales[:, None]
            inside = np.max(np.abs(y), axis=2) < 1.0
            fy, jy = system(np.where(inside[..., None], y, 0.0))
            helps = inside & (np.linalg.norm(fy, axis=2) < bound[rows, None])
            hit = helps.any(axis=1)
            first = helps.argmax(axis=1)[hit]
            done = live[rows[hit]]
            x[done], f[done], jac[done] = y[hit, first], fy[hit, first], jy[hit, first]
            moved[rows[hit]] = True
        live = live[moved]
        if not live.size:
            break
    return x, f, jac


def _route_a_rejection(x: np.ndarray, f: np.ndarray, jac: np.ndarray) -> str | None:
    """Why the end point of one start is not accepted, or None: the gates
    that need only the start's own end point, F and Jacobian."""
    a1, a2, b3 = (float(v) for v in x)
    if 0.5 * float(f @ f) > 1e-24:
        return "cost"
    if not (-1.0 < a1 < a2 < b3 < 1.0):
        return "order"
    if region_of((a1, a2, -1.0, b3, 1.0)) != 1:
        return "region"
    sigma = np.linalg.svd(jac, compute_uv=False)
    if sigma[-1] < SIMPLE_ROOT_RATIO * sigma[0]:
        return "not simple"
    return None


def _route_a_roots(
    x: np.ndarray, f: np.ndarray, jac: np.ndarray
) -> tuple[list[tuple[list[int], dict[int, np.ndarray]]], Counter[str]]:
    """Gate the end points of all starts.  Starts that pass the per-start
    gates are grouped by end point (within 1e-8 of the group's first start);
    each group's first end point must also zero the objective built from
    the float remainders.  Returns (the group's starts, the float remainders
    at its first end point) for each accepted group, and the rejection
    counts by reason."""
    rejected: Counter[str] = Counter()
    groups: list[list[int]] = []
    for i in range(len(x)):
        reason = _route_a_rejection(x[i], f[i], jac[i])
        if reason:
            rejected[reason] += 1
            continue
        for g in groups:
            if np.max(np.abs(x[i] - x[g[0]])) < 1e-8:
                g.append(i)
                break
        else:
            groups.append([i])
    roots = []
    for g in groups:
        rs = _float_remainders(*(float(v) for v in x[g[0]]))
        if np.max(np.abs(_route_a_objective(rs))) > 1e-8:
            rejected["objective"] += len(g)
        else:
            roots.append((g, rs))
    return roots, rejected


def solve_route_a(seed: int = 0, starts: int = 20) -> dict[str, float]:
    """Damped Newton on the simplified system r'_37 = r'_48 = r'_49 = 0 from
    random starts inside the region box -1 < alpha1 < alpha2 < beta3 < 1,
    all advancing as one batch; the accepted simple roots must coincide and
    must also zero the full resultants built independently from the
    characteristic-polynomial recursion, a check made once per distinct
    end point.

    The rejection counts by reason in a ``RoutesDisagree`` message are
    diagnostics, not a stable output: a start that wanders near the box
    edge can end at the root or elsewhere depending on float summation
    order, so another BLAS kernel may move it between reasons.  The
    solution itself does not depend on them."""
    x0 = np.sort(np.random.default_rng(seed).uniform(-0.99, 0.99, size=(starts, 3)), axis=1)
    x, f, jac = _damped_newton(_route_a_system(), x0)
    roots, rejected = _route_a_roots(x, f, jac)
    if not roots:
        raise RoutesDisagree(
            f"route A found no solution in the region box; rejected {dict(rejected)}"
        )
    if len(roots) != 1:
        points = [tuple(float(v) for v in x[g[0]]) for g, _ in roots]
        raise RoutesDisagree(
            f"route A found {len(roots)} distinct solutions {points}; "
            f"rejected {dict(rejected)}"
        )
    [(group, rrs)] = roots
    a1, a2, b3 = (float(v) for v in x[group[0]])
    # the coincident eigenvalues, numerically
    delta1 = a2 - 1.0 - b3  # root of r_3: alpha2 + beta2 - beta3
    # roots of r_4, labelled by which later remainder they annihilate
    rho = sorted(float(np.real(r)) for r in np.roots(rrs[4]))
    l48, l49 = sorted(rho, key=lambda r: abs(np.polyval(rrs[8], r)))
    sext = np.roots([float(c) for c in reversed(SEXTIC.coeffs)])
    xs = [float(np.real(r)) for r in sext if abs(np.imag(r)) < 1e-9]
    xi_a = min(x for x in xs if x > 0)
    return {
        "xi": xi_a,
        "alpha1": a1,
        "alpha2": a2,
        "beta3": b3,
        "lambda_37": delta1,
        "lambda_48": l48,
        "lambda_49": l49,
    }


@lru_cache(maxsize=1)
def solve_rigid() -> RigidSolution:
    """Both routes; exact substitution check; agreement within ROUTE_TOL."""
    exact = route_b_values()
    lam = LambdaTuple(
        exact["alpha1"], exact["alpha2"], QXi.of(-1), exact["beta3"], QXi.of(1)
    )
    for (a, b) in COINCIDENCES.values():
        residual, _, _ = simplify_resultant(a, b)
        value = residual.evaluate(exact["alpha1"], exact["alpha2"], exact["beta3"])
        if not value.is_zero():
            raise RoutesDisagree(f"exact route does not zero r'_{a},{b}")
    region = region_of(
        (lam.alpha1, lam.alpha2, QXi.of(-1), lam.beta3, QXi.of(1))
    )
    if region != 1:
        raise RoutesDisagree("exact tuple left the expected region")
    route_a = solve_route_a(0)
    for key, val in exact.items():
        if abs(route_a[key] - float(val)) > ROUTE_TOL:
            raise RoutesDisagree(
                f"routes disagree on {key}: {route_a[key]} vs {float(val)}"
            )
    return RigidSolution(
        exact["xi"],
        lam,
        exact["lambda_37"],
        exact["lambda_48"],
        exact["lambda_49"],
        region,
        route_a,
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


def rigid_level_spectra(max_level: int) -> list[np.ndarray]:
    """Float spectra of C_1..C_max at the rigid tuple (exact coefficients
    rounded once, then LAPACK)."""
    return trailing_spectra(*abc_closed_forms(solve_rigid().lam, max_level), max_level)


@dataclass(frozen=True)
class RigidList:
    ordered: tuple[int, ...]
    table: tuple[tuple[float, int, str], ...]  # (value, multiplicity, label)

    @property
    def total(self) -> int:
        return sum(self.ordered)


def rigid_multiplicity_list(prof: HedgeProfile, tol: float = SPECTRUM_TOL) -> RigidList:
    """Ordered multiplicity list of the rigid construction on a lush hedge
    with the given profile (height >= 8), assembled from level spectra; no
    giant matrix is ever formed.

    Raises UnexpectedCoincidence if the level clustering shows a coincidence
    outside the periodic pattern and the three engineered ones.
    """
    if prof.height < 8:
        raise ValueError("the rigid list needs height >= 8")
    n = prof.height + 1
    certs = certify_coincidences()
    if not all(certs.values()):
        raise UnexpectedCoincidence("engineered coincidences failed exact checks")
    specs = rigid_level_spectra(n)
    points = []
    for level in range(1, n + 1):
        for v in specs[level - 1]:
            points.append((float(v), level))
    points.sort()
    width = points[-1][0] - points[0][0]
    # (value, levels of its members) per cluster
    clusters = [
        (value, [points[i][1] for i in r])
        for value, r in gap_clusters([v for v, _ in points], tol)
    ]
    sol = solve_rigid()
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
            if close(value, target, tol, max(1.0, width)):
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
            rows.append((level, idx, float(v)))
    return rows


def consecutive_interlacing_gap(max_level: int = 40) -> float:
    """Minimum gap between consecutive-level spectra after unit-width
    normalization; strict interlacing keeps it positive.  The eigenvalue of
    the next level nearest to a given one is one of the two that bracket it
    in the next level's sorted spectrum; rounding is monotone, so no farther
    one comes out nearer."""
    specs = rigid_level_spectra(max_level)
    lo = min(s[0] for s in specs)
    hi = max(s[-1] for s in specs)
    width = hi - lo
    gap = np.inf
    for lower, upper in zip(specs, specs[1:]):
        above = np.searchsorted(upper, lower)
        below = np.maximum(above - 1, 0)
        above = np.minimum(above, len(upper) - 1)
        near = np.minimum(np.abs(upper[below] - lower), np.abs(upper[above] - lower))
        gap = min(gap, float(np.min(near)))
    return float(gap / width)
