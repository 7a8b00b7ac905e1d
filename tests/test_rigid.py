import contextlib
import hashlib
import itertools
import random
from fractions import Fraction
from math import gcd, inf, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hedge_iep
from hedge_iep.algebraic import SEXTIC, XI_INTERVAL, QXi, refined_xi, verify_isolation
from hedge_iep.lambdas import abc_closed_forms
from hedge_iep.mpoly import InexactDivision, MPolyQ, bareiss_determinant
from hedge_iep.numeric import trailing_spectra
from hedge_iep.polys import (
    X,
    PolyQ,
    ZeroPolynomial,
    count_real_roots,
    level_spectra,
    level_values,
    root_multiplicities,
)
from hedge_iep.rigid import (
    DIAGONAL,
    GRID_BASE,
    SYMBOLIC,
    TRIVIAL_FORMS,
    RigidSolution,
    RoutesDisagree,
    UnexpectedCoincidence,
    _cleared,
    _names,
    _pseudo_remainder,
    _split,
    certify_coincidences,
    char_poly_symbolic,
    coincidence_residuals,
    companion_double_root_entry,
    consecutive_interlacing_gap,
    derive,
    eliminant,
    eliminate,
    factored_resultant,
    level_figure_data,
    level_resultant,
    remainder_symbolic,
    resultant,
    rigid_b_values,
    rigid_level_spectra,
    rigid_multiplicity_list,
    route_b_values,
    simplify_resultant,
    solve_rigid,
    solve_route_a,
    unit_interval_roots,
)
from hedge_iep.trees import profile, smallest_lush_hedge

from conftest import numpy_blocked

A1 = MPolyQ.var("alpha1")
A2 = MPolyQ.var("alpha2")
B3 = MPolyQ.var("beta3")


# ---------------------------------------------------------------------------
# the number field


def test_xi_isolation():
    assert verify_isolation()
    lo, hi = XI_INTERVAL
    assert lo == Fraction(1, 3) and hi == Fraction(17, 50)
    assert root_multiplicities(SEXTIC) == (1,) * 6  # six simple roots
    # no other positive root below the interval
    assert count_real_roots(SEXTIC, Fraction(0), lo) == 0


@pytest.mark.parametrize(
    "interval",
    [(Fraction(1, 2), Fraction(1)), (Fraction(1, 4), Fraction(1, 3))],
    ids=["xi below the interval", "no root in it"],
)
def test_rigid_values_runs_the_isolation_proof(interval, monkeypatch, capsys):
    from hedge_iep.cli import main

    assert main(["repro", "rigid-values"]) == 0
    assert "[PASS] xi isolated by Sturm counts (exact)" in capsys.readouterr().out
    monkeypatch.setattr(hedge_iep.algebraic, "XI_INTERVAL", interval)
    assert main(["repro", "rigid-values"]) == 1
    assert "[FAIL] xi isolated by Sturm counts (exact)" in capsys.readouterr().out


def test_qxi_field_arithmetic():
    xi = QXi.xi()
    # the defining relation holds
    assert SEXTIC(xi).is_zero()
    a = QXi.of(1, -2, 0, 3)
    b = QXi.of(Fraction(1, 2), 5)
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a * b) / b == a
    assert (a / b) * b == a
    inv = a.inverse()
    assert (a * inv) == QXi.of(1)
    assert QXi.of(2).inverse() == Fraction(1, 2)
    assert xi**-2 * xi**2 == 1


def test_qxi_hash_agrees_with_equality():
    # a rational element equals, and so must hash like, its Fraction
    for q in (3, Fraction(-7, 2), 0):
        assert QXi.of(q) == q and hash(QXi.of(q)) == hash(q)
    assert len({QXi.of(3), 3, Fraction(3)}) == 1
    assert len({QXi.xi(), QXi.of(0, 1)}) == 1


def test_qxi_comparisons():
    xi = QXi.xi()
    assert QXi.of(0) < xi < QXi.of(1)
    third = QXi.of(Fraction(1, 3))
    assert third < xi  # xi = 0.3349... > 1/3
    assert xi < QXi.of(Fraction(17, 50))
    assert (xi - xi).sign() == 0
    assert xi <= xi and xi >= xi and not xi < xi and not xi > xi
    assert xi > third and xi >= third and not xi <= third
    assert 1 > xi and 0 <= xi and not 0 >= xi
    assert float(xi) == pytest.approx(0.334981556, abs=5e-10)


def test_qxi_float_is_correctly_rounded():
    values = route_b_values()
    before = {k: float(v) for k, v in values.items()}
    refined_xi(Fraction(1, 10**60))
    for k, v in values.items():
        assert float(v) == before[k] == float(v.approx(Fraction(1, 10**40)))


def test_qxi_approx_precision():
    xi = QXi.xi()
    approx = xi.approx(Fraction(1, 10**30))
    assert SEXTIC(approx) != 0  # xi is irrational
    lo, hi = refined_xi(Fraction(1, 10**30))
    assert lo <= approx <= hi
    # far below the ~10^-156 that 64 rounds of 2^-8 from the seed interval reach
    eps = Fraction(1, 10**200)
    for v in route_b_values().values():
        close = v.approx(eps)
        assert abs(close - v.approx(eps / 10**10)) <= eps
        assert float(close) == float(v)


def test_qxi_decides_tiny_values():
    # a nonzero element far below the precision of any earlier refinement
    xi = QXi.xi()
    tiny = xi - xi.approx(Fraction(1, 10**170))
    s = tiny.sign()
    assert s in (-1, 1)
    assert (tiny < 0) == (s < 0) and (tiny > 0) == (s > 0)
    assert (xi < xi - tiny) == (s < 0)
    f = float(tiny)
    assert 0 < abs(f) < 1e-170 and (f > 0) == (s > 0)


def test_sextic_is_irreducible():
    # the refinement loops end because a nonzero element of Q[xi] has a
    # nonzero, and unless rational an irrational, value
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    poly = sympy.Poly(sum(int(c) * x**i for i, c in enumerate(SEXTIC.coeffs)), x)
    assert poly.degree() == 6 and poly.is_irreducible


def test_refinement_needs_a_positive_width():
    # eps <= 0 used to bisect forever; the cached interval stays as it was
    before = refined_xi(Fraction(1))
    for eps in (Fraction(0), Fraction(-1)):
        with pytest.raises(ValueError):
            refined_xi(eps)
        with pytest.raises(ValueError):
            QXi.xi().approx(eps)
    assert refined_xi(Fraction(1)) == before


qxi_tests = settings(max_examples=200, deadline=None, derandomize=True)

# coordinates with mixed denominators, from small to wide numerators
coordinates = st.builds(
    Fraction,
    st.one_of(st.integers(-9, 9), st.integers(-(10**12), 10**12)),
    st.sampled_from([1, 2, 3, 30, 60, 90, 7**5, 2**40]),
)
qxis = st.lists(coordinates, max_size=6).map(lambda cs: QXi.of(*cs))


def canonical(x: QXi) -> QXi:
    """x, after checking that it is in lowest terms over a positive
    denominator, with zero over 1."""
    assert len(x.nums) == 6 and all(type(n) is int for n in x.nums)
    assert type(x.den) is int and x.den > 0
    assert gcd(x.den, *x.nums) == 1
    if x.is_zero():
        assert x.den == 1
    return x


def poly_xgcd(a: PolyQ, b: PolyQ) -> tuple[PolyQ, PolyQ, PolyQ]:
    """Extended gcd over Q: (g, s, t) with s*a + t*b = g, g monic; the
    cofactor s of an element against the sextic is its inverse."""
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


def assert_inverse_is_the_xgcd_cofactor(a: QXi):
    g, s, _ = poly_xgcd(PolyQ.of(*a.coords), SEXTIC)
    assert g == PolyQ.of(1)
    inv = canonical(a.inverse())
    assert inv == QXi.of(*s.coeffs) and inv.coords == s.coeffs + (0,) * (6 - len(s.coeffs))
    assert a * inv == 1


@qxi_tests
@given(qxis, qxis, coordinates)
def test_qxi_ring_operations_are_canonical(a, b, q):
    # the integer product kernel against the polynomial product reduced by
    # the sextic
    want = (PolyQ.of(*a.coords) * PolyQ.of(*b.coords)).divmod(SEXTIC)[1]
    assert canonical(a * b).coords == want.coeffs + (0,) * (6 - len(want.coeffs))
    assert canonical(a * q).coords == tuple(c * q for c in a.coords) == (q * a).coords
    assert canonical(a + b).coords == tuple(x + y for x, y in zip(a.coords, b.coords))
    assert canonical(a - b).coords == tuple(x - y for x, y in zip(a.coords, b.coords))
    assert canonical(q - a).coords == tuple(q * (i == 0) - x for i, x in enumerate(a.coords))
    assert canonical(-a).coords == tuple(-x for x in a.coords)
    assert QXi.of(*a.coords) == a and hash(QXi.of(*a.coords)) == hash(a)
    if a:
        assert_inverse_is_the_xgcd_cofactor(a)
        assert canonical(b / a) * a == b


@qxi_tests
@given(qxis)
def test_qxi_units_return_equal_values(a):
    one = QXi.of(1)
    for got in (a * 1, 1 * a, a * Fraction(1), a * one, one * a, a + 0, 0 + a):
        assert canonical(got) == a
    # the int comparison takes a short cut; it agrees with the Fraction one
    for n in (-1, 0, 1, 2):
        assert (a == n) == (a == Fraction(n)) == (a.coords == (n, 0, 0, 0, 0, 0))


def test_inverse_of_the_route_b_values_is_the_xgcd_cofactor():
    for v in route_b_values().values():
        assert_inverse_is_the_xgcd_cofactor(v)
        assert_inverse_is_the_xgcd_cofactor(v * v - 1)


def per_term_value(p: MPolyQ, a1, a2, b3):
    """p at a point, one Fraction coefficient per term."""
    return sum(
        (Fraction(n, p.den) * a1**e1 * a2**e2 * b3**e3 for (e1, e2, e3), n in p.nums),
        Fraction(0),
    )


def evaluation_points() -> list[tuple]:
    vals = route_b_values()
    xi = QXi.xi()
    return [
        (vals["alpha1"], vals["alpha2"], vals["beta3"]),
        (xi, 1 - xi**2 / 3, xi**3 / 7 - Fraction(2, 5)),
        (Fraction(1, 3), Fraction(-2), Fraction(5, 7)),
    ]


def test_evaluate_matches_per_term_sum_on_r49():
    residual, _, _ = simplify_resultant(4, 9)
    assert len(residual) == 130
    for point in evaluation_points():
        got = residual.evaluate(*point)
        assert got == per_term_value(residual, *point)
        if isinstance(got, QXi):
            canonical(got)


terms = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    coordinates.filter(bool),
    max_size=8,
)


@qxi_tests
@given(terms, st.sampled_from(evaluation_points()))
def test_evaluate_matches_per_term_sum(coeffs, point):
    p = MPolyQ.const(0)
    for m, c in coeffs.items():
        term = MPolyQ.const(c)
        for var, e in zip((A1, A2, B3), m):
            for _ in range(e):
                term = term * var
        p = p + term
    got = p.evaluate(*point)
    assert got == per_term_value(p, *point)
    if isinstance(got, QXi):
        canonical(got)


# ---------------------------------------------------------------------------
# resultants


@pytest.mark.parametrize("order", [range(11), range(10, -1, -1)], ids=["ascending", "descending"])
def test_char_poly_symbolic_is_the_level_recurrence(order):
    # each level is one step from the two cached below it: levels 0..10 are
    # eleven computes in either order, and each equals the full sweep's
    char_poly_symbolic.cache_clear()
    for n in order:
        assert char_poly_symbolic(n) == level_values(*abc_closed_forms(SYMBOLIC, n), X)[n]
    assert char_poly_symbolic.cache_info().misses == 11
    with pytest.raises(ValueError, match="levels start at n = 0"):
        char_poly_symbolic(-1)


def test_resultant_classical_linear():
    f = PolyQ((-A1, MPolyQ.const(1)))  # x - alpha1
    g = PolyQ((-A2, MPolyQ.const(1)))  # x - alpha2
    r = resultant(f, g)
    assert r in (A1 - A2, A2 - A1)


def _reference_resultant(f: PolyQ, g: PolyQ) -> MPolyQ:
    """The Sylvester determinant (rows of f first) by fraction-free Bareiss
    elimination, on c f and d g with every denominator cleared."""
    m, n = f.degree, g.degree
    zero = MPolyQ(())
    rows, scale = [], 1
    for p, copies in ((f, n), (g, m)):
        coeffs = [MPolyQ.const(x) if not isinstance(x, MPolyQ) else x for x in reversed(p.coeffs)]
        c = lcm(*(x.den for x in coeffs))
        scale *= c**copies
        for i in range(copies):
            rows.append([zero] * i + [x * c for x in coeffs] + [zero] * (m + n - len(coeffs) - i))
    return bareiss_determinant(rows, MPolyQ.const(1)) / scale


def _reference_prs(f: PolyQ, g: PolyQ) -> MPolyQ:
    """res(f, g) by the plain subresultant PRS on c f and d g, every member
    in full: each step divides the pseudo-remainder by lead and then by h,
    delta times, then lead = lc(B) and h = lead^delta / h^(delta-1)."""
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
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            sign = -sign
        r = _pseudo_remainder(a, b)
        if not r:
            return MPolyQ(())
        for div in (lead,) + (h,) * delta:
            r = [x.exact_div(div) for x in r]
        a, b = b, r
        lead = a[0]
        if delta == 1:
            h = lead
        elif delta > 1:
            h = (lead**delta).exact_div(h ** (delta - 1))
    res = b[0] ** (len(a) - 1)
    if len(a) > 2:
        res = res.exact_div(h ** (len(a) - 2))
    return res / (sign * c**n * d**m)


def _random_coefficient(rng: random.Random, nonconstant: bool = False):
    """A small MPolyQ with rational coefficients, or a Fraction."""
    if not nonconstant and rng.random() < 0.3:
        return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
    out = MPolyQ(())
    for _ in range(rng.randint(1, 3)):
        mono = A1 ** rng.randint(0, 2) * A2 ** rng.randint(0, 1) * B3 ** rng.randint(0, 1)
        out = out + mono * Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 5)))
    if nonconstant and out.is_constant():
        out = out + A1
    return out


def _random_poly(rng: random.Random, degree: int, monic: bool) -> PolyQ:
    coeffs = [_random_coefficient(rng) for _ in range(degree)]
    lead = MPolyQ.const(1) if monic else _random_coefficient(rng, nonconstant=degree > 0)
    while lead == 0:
        lead = _random_coefficient(rng)
    return PolyQ(tuple(coeffs) + (lead,))


#: every degree pair up to 3, and two where a first step with delta = 2 is
#: followed by more steps
DEGREE_PAIRS = [(m, n) for m in range(4) for n in range(4)] + [(4, 2), (2, 4)]


def _forms(rng: random.Random, lo: int, hi: int) -> MPolyQ:
    """A product of lo..hi trivial forms, drawn with repetition."""
    return prod((rng.choice(TRIVIAL_FORMS)[1] for _ in range(rng.randint(lo, hi))), start=MPolyQ.const(1))


def _with_forms(rng: random.Random, p: PolyQ, kind: str = "every") -> PolyQ:
    """p with trivial forms in its coefficients: each coefficient multiplied
    by a product of 1-3 forms of its own ("every"), all of them by one such
    product ("common"), or the leading one only ("lead")."""
    coeffs = list(p.coeffs)
    common = _forms(rng, 1, 3)
    for i in range(len(coeffs) - 1 if kind == "lead" else 0, len(coeffs)):
        coeffs[i] = (common if kind == "common" else _forms(rng, 1, 3)) * coeffs[i]
    return PolyQ(tuple(coeffs))


def _exact_divisors(monkeypatch, fn, *args) -> tuple:
    """fn(*args) and the divisor of each `MPolyQ.exact_div` call it made."""
    divisors = []
    exact_div = MPolyQ.exact_div
    monkeypatch.setattr(MPolyQ, "exact_div", lambda p, d: divisors.append(d) or exact_div(p, d))
    out = fn(*args)
    monkeypatch.undo()
    return out, divisors


def _assert_form_free(divisors: list[MPolyQ]) -> None:
    for d in divisors:
        assert all(d.divmod_lex(form)[1] for _, form in TRIVIAL_FORMS)


def _assert_factored_matches_the_references(
    monkeypatch, f: PolyQ, g: PolyQ, sylvester: bool = True
) -> None:
    """The factored PRS against the plain one, stripped, and the plain one
    against the Sylvester determinant, which is slow on the larger cases;
    the factored PRS divides by form-free polynomials only."""
    want = _reference_prs(f, g)
    if sylvester:
        assert want == _reference_resultant(f, g)
    got, divisors = _exact_divisors(monkeypatch, factored_resultant, f, g)
    _assert_form_free(divisors)
    assert got == _strip(want) == _reference_simplify(want)
    assert got[0] * got[2] * prod(dict(TRIVIAL_FORMS)[name] for name in got[1]) == want


@pytest.mark.parametrize("m,n", DEGREE_PAIRS)
def test_resultant_matches_the_sylvester_determinant(m, n):
    rng = random.Random(100 * m + n)
    for monic in (True, False):
        f, g = _random_poly(rng, m, monic), _random_poly(rng, n, not monic)
        want = _reference_resultant(f, g)
        assert resultant(f, g) == want
        assert resultant(g, f) == want * (-1) ** (m * n)


@pytest.mark.parametrize("m,n", DEGREE_PAIRS)
@pytest.mark.parametrize("kind", ["every", "common", "lead"])
def test_factored_resultant_with_trivial_forms_in_the_coefficients(m, n, kind, monkeypatch):
    # the forms in the coefficients are carried as exponents through every
    # step; a constant operand and two constants (res = 1) are among the
    # pairs
    rng = random.Random(1000 + 100 * m + n)
    f = _with_forms(rng, _random_poly(rng, m, True), kind)
    g = _with_forms(rng, _random_poly(rng, n, False), kind)
    _assert_factored_matches_the_references(monkeypatch, f, g, sylvester=m + n < 6)
    _assert_factored_matches_the_references(monkeypatch, g, f, sylvester=m + n < 6)


@pytest.mark.parametrize("seed", range(4))
def test_factored_resultant_with_trivial_forms_and_delta_two(seed, monkeypatch):
    # both steps have delta = 2, every coefficient carries forms
    rng = random.Random(seed)
    g = _with_forms(rng, _random_poly(rng, 3, False))
    f = g * _random_poly(rng, 2, True) + _with_forms(rng, _random_poly(rng, 1, False))
    _assert_factored_matches_the_references(monkeypatch, f, g, sylvester=False)
    _assert_factored_matches_the_references(monkeypatch, g, f, sylvester=False)


@pytest.mark.parametrize("m,n", [(0, 1), (1, 1), (2, 1), (1, 2)])
def test_factored_resultant_of_polynomials_with_a_common_factor(m, n, monkeypatch):
    rng = random.Random(10 * m + n)
    common = _with_forms(rng, _random_poly(rng, 1, False))
    f = common * _with_forms(rng, _random_poly(rng, m, False))
    g = common * _with_forms(rng, _random_poly(rng, n, True), "lead")
    for p, q in ((f, g), (g, f)):
        _assert_factored_matches_the_references(monkeypatch, p, q, sylvester=False)
        assert factored_resultant(p, q) == (MPolyQ(()), (), 1)


@pytest.mark.parametrize("seed", range(3))
def test_resultant_when_a_remainder_drops_two_degrees(seed):
    # f mod g has degree 1 < deg g - 1, so the second step has delta = 2
    rng = random.Random(seed)
    g = _random_poly(rng, 3, False)
    f = g * _random_poly(rng, 1, True) + _random_poly(rng, 1, False)
    assert resultant(f, g) == _reference_resultant(f, g)
    assert resultant(g, f) == _reference_resultant(g, f)


@pytest.mark.parametrize("seed", range(3))
def test_resultant_divides_by_lead_and_h_in_turn(seed, monkeypatch):
    # f mod g has degree 1 and deg f - deg g = 2, so both steps have
    # delta = 2 and divide by the parts of lead = lc(g) and of h = lead^2,
    # which no trivial form divides (the tests above plant forms)
    rng = random.Random(seed)
    g = _random_poly(rng, 3, False)
    f = g * _random_poly(rng, 2, True) + _random_poly(rng, 1, False)
    got, divisors = _exact_divisors(monkeypatch, resultant, f, g)
    assert got == _reference_resultant(f, g)
    assert any(not d.is_constant() for d in divisors)
    _assert_form_free(divisors)


@pytest.mark.parametrize("k,m,n", [(1, 0, 2), (1, 1, 1), (2, 1, 2), (1, 3, 2), (2, 1, 1)])
def test_resultant_of_polynomials_with_a_common_factor_is_zero(k, m, n):
    rng = random.Random(10 * k + m + n)
    common = _random_poly(rng, k, False)
    f = common * _random_poly(rng, m, False)
    g = common * _random_poly(rng, n, True)
    assert _reference_resultant(f, g) == 0
    assert resultant(f, g).is_zero() and resultant(g, f).is_zero()


def test_resultant_of_constants_and_zero():
    assert resultant(PolyQ.of(3), PolyQ.of(Fraction(1, 2))) == 1
    assert factored_resultant(PolyQ((A1 - A2,)), PolyQ((B3 + 1,))) == (1, (), 1)
    assert resultant(PolyQ((A1,)), PolyQ.of(-1, 0, 2)) == A1**2
    with pytest.raises(ZeroPolynomial):
        resultant(PolyQ(()), PolyQ.of(1, 1))


def test_resultant_numeric_oracle(rng):
    # the eliminant of r_3 and r_4 against the product of root differences
    r34 = level_resultant(3, 4)
    for _ in range(10):
        a1, a2, b3 = np.sort(rng.uniform(-0.9, 0.9, size=3))
        r3 = remainder_symbolic(3)
        r4 = remainder_symbolic(4)
        c3 = [float(c.evaluate(a1, a2, b3)) if isinstance(c, MPolyQ) else float(c) for c in r3.coeffs]
        c4 = [float(c.evaluate(a1, a2, b3)) if isinstance(c, MPolyQ) else float(c) for c in r4.coeffs]
        delta1 = -c3[0] / c3[1]
        rho = np.roots(list(reversed(c4)))
        want = float(np.real(np.prod([delta1 - r for r in rho])))
        got = float(r34.evaluate(a1, a2, b3))
        # both detect shared roots; compare up to the fixed sign convention
        assert abs(abs(got) - abs(want)) < 1e-6 * max(1.0, abs(want))


#: the 15 level pairs of the benchmark's resultant scan
SCAN_PAIRS = tuple((a, b) for a in range(3, 8) for b in range(a + 1, 8)) + (
    (3, 8), (4, 8), (5, 8), (3, 9), (4, 9),
)


def test_scan_resultants_golden_digests():
    # SHA-256 of the printed r_{a,b} and of their simplified forms, frozen
    # from the engine with Fraction coefficients
    text = "\n".join(f"{a},{b}:{level_resultant(a, b)!r}" for a, b in SCAN_PAIRS)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2091f6ef43c6ed183999f3af44f2d6fc32d99731a1334212390c40eea25c6dcb"
    )
    text = "\n".join(
        f"{a},{b}:{r!r}|{','.join(removed)}|{scale}"
        for a, b in SCAN_PAIRS
        for r, removed, scale in [simplify_resultant(a, b)]
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "02dcc1716cea139997c266298e5e0af52dda4f21e4fdd542a4a6dbbe874b9cc9"
    )


@pytest.mark.parametrize("a,b", [(3, 4), (3, 7), (4, 5)])
def test_resultant_matches_sympy(a, b):
    # sympy's Sylvester convention differs from ours by (-1)^(m n)
    sympy = pytest.importorskip("sympy")
    x, *params = sympy.symbols("x alpha1 alpha2 beta3")

    def to_sympy(p: MPolyQ):
        return sum(
            (sympy.Rational(n, p.den) * sympy.prod([v**e for v, e in zip(params, m)])
             for m, n in p.nums),
            sympy.Integer(0),
        )

    def poly_x(f: PolyQ):
        return sum(
            to_sympy(c if isinstance(c, MPolyQ) else MPolyQ.const(c)) * x**i
            for i, c in enumerate(f.coeffs)
        )

    f, g = remainder_symbolic(a), remainder_symbolic(b)
    got = sympy.Poly(sympy.resultant(poly_x(f), poly_x(g), x), *params)
    want = level_resultant(a, b) * (-1) ** (f.degree * g.degree)
    assert {m: Fraction(int(c.p), int(c.q)) for m, c in got.terms()} == {
        m: Fraction(n, want.den) for m, n in want.nums
    }


def test_r37_vanishes_exactly_at_rigid_point():
    vals = route_b_values()
    full = level_resultant(3, 7)
    out = full.evaluate(vals["alpha1"], vals["alpha2"], vals["beta3"])
    assert out.is_zero()


def test_simplified_r37_printed_form():
    residual, removed, scale = simplify_resultant(3, 7)
    want = A1 * A2 - A1 * B3 - B3 - A1
    assert residual == want
    assert len(removed) >= 1


def test_unit_residual_pairs():
    for (a, b) in ((3, 5), (3, 6), (4, 6), (4, 7), (4, 5)):
        residual, removed, scale = simplify_resultant(a, b)
        assert residual.is_constant() and residual.constant_value() == 1
        assert scale != 0


def _reference_simplify(r: MPolyQ) -> tuple[MPolyQ, tuple[str, ...], Fraction]:
    """Trial lex division by one trivial form at a time, until it fails."""
    removed = []
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


def _strip(r: MPolyQ) -> tuple[MPolyQ, tuple[str, ...], Fraction]:
    """r with its trivial factors apart, in the convention of
    `factored_resultant`, by the PRS's content step (`_split`) on r alone."""
    if r.is_zero():
        return r, (), Fraction(1)
    s, ks, (q,) = _split([r])
    residual, sign = q.normalized()
    return residual, _names(ks), s * sign


def _count_strip_paths(monkeypatch, first: tuple = ()) -> dict:
    """Count the grid points `_strip` tries, and record how many it had
    tried at each of its lex divisions; the points ``first`` are put in
    front of the grid."""
    counts = {"points": 0, "divided_at": []}
    grid, divmod_lex = hedge_iep.rigid._grid, MPolyQ.divmod_lex

    def counted_grid():
        for point in itertools.chain(first, grid()):
            counts["points"] += 1
            yield point

    def counted_divmod(p, d):
        counts["divided_at"].append(counts["points"])
        return divmod_lex(p, d)

    monkeypatch.setattr(hedge_iep.rigid, "_grid", counted_grid)
    monkeypatch.setattr(MPolyQ, "divmod_lex", counted_divmod)
    return counts


def _strip_checked(r: MPolyQ, monkeypatch, first: tuple = ()) -> tuple[tuple, dict]:
    """The stripped r, which must equal the reference, and the path counts."""
    want = _reference_simplify(r)
    counts = _count_strip_paths(monkeypatch, first)
    got = _strip(r)
    monkeypatch.undo()
    assert got == want
    return got, counts


@pytest.mark.parametrize("a,b", SCAN_PAIRS)
def test_strip_matches_the_reference_on_the_scan_pairs(a, b, monkeypatch):
    # the factored PRS against the plain one, stripped by `_strip`
    full = _reference_prs(remainder_symbolic(a), remainder_symbolic(b))
    assert level_resultant(a, b) == full
    got, counts = _strip_checked(full, monkeypatch)
    assert simplify_resultant(a, b) == got
    assert counts == {"points": 1, "divided_at": [1]}  # GRID_BASE is lucky for all 15


def _random_cofactor(rng: random.Random) -> MPolyQ:
    """A nonzero polynomial that no trivial form divides."""
    while True:
        out = MPolyQ(())
        for _ in range(rng.randint(1, 4)):
            mono = A1 ** rng.randint(0, 2) * A2 ** rng.randint(0, 2) * B3 ** rng.randint(0, 2)
            out = out + mono * Fraction(rng.randint(-9, 9), rng.choice((1, 2, 7)))
        if out and all(not out.divmod_lex(form)[1].is_zero() for _, form in TRIVIAL_FORMS):
            return out


@pytest.mark.parametrize("seed", range(40))
def test_strip_recovers_random_products(seed, monkeypatch):
    rng = random.Random(seed)
    ks = [rng.choice((0, 0, 1, 2, 3)) for _ in TRIVIAL_FORMS]
    cofactor = _random_cofactor(rng)
    r = cofactor * Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 30))
    for (_, form), k in zip(TRIVIAL_FORMS, ks):
        r = r * form**k
    (residual, removed, scale), _ = _strip_checked(r, monkeypatch)
    assert removed == tuple(name for (name, _), k in zip(TRIVIAL_FORMS, ks) for _ in range(k))
    assert residual == cofactor.normalized()[0]


def test_strip_skips_a_line_where_the_cofactor_vanishes(monkeypatch):
    # alpha2 - b1 is zero on the alpha1 line through GRID_BASE: the
    # restriction vanishes identically, and the point is skipped undivided
    _, b1, _ = GRID_BASE
    r = (A1 - A2) ** 2 * (B3 - 1) * (A2 - b1)
    (_, removed, _), counts = _strip_checked(r, monkeypatch)
    assert removed == ("alpha1-alpha2",) * 2 + ("beta3-beta4",)
    assert counts["divided_at"][0] > 1


def test_strip_retries_where_the_cofactor_vanishes_at_a_root(monkeypatch):
    # alpha1 - b1 vanishes where alpha1 - alpha2 does on the alpha1 line
    # through GRID_BASE, so k = 2 there, the division fails, and m = 1
    _, b1, _ = GRID_BASE
    r = (A1 - A2) * (A1 - b1) * (A2 + 1) * Fraction(-3, 4)
    (_, removed, _), counts = _strip_checked(r, monkeypatch)
    assert removed == ("alpha1-alpha2", "alpha2-beta2")
    # point 2, GRID_BASE + DIAGONAL, has alpha2 = b1 + 2, where k = 1
    assert counts["divided_at"] == [1, 2]


def test_strip_falls_back_to_the_cube_where_the_diagonal_is_unlucky(monkeypatch):
    # beta3 - 2 alpha2 - 7 is zero at GRID_BASE and all along the diagonal,
    # so the alpha1 lines through those points restrict r to 0; the cube
    # point after the first diagonal one, GRID_BASE + (0, 0, 1), decides
    assert [DIAGONAL[2] - 2 * DIAGONAL[1], GRID_BASE[2] - 2 * GRID_BASE[1]] == [0, 7]
    r = (A1 - A2) * (B3 - 2 * A2 - 7)
    (_, removed, _), counts = _strip_checked(r, monkeypatch)
    assert removed == ("alpha1-alpha2",)
    assert counts["divided_at"] == [3]


def test_strip_retries_where_two_forms_share_a_root(monkeypatch):
    # on the alpha1 line through (3, 0, 0), alpha1 - alpha2 and
    # alpha1 - beta3 both vanish at alpha1 = 0: a division there would fail,
    # so the point is skipped undivided and GRID_BASE divides once
    r = (A1 - A2) * (A1 + A2 + B3 + 5)
    (_, removed, _), counts = _strip_checked(r, monkeypatch, first=[(3, 0, 0)])
    assert removed == ("alpha1-alpha2",)
    assert counts == {"points": 2, "divided_at": [2]}


def test_strip_pure_products_and_zero(monkeypatch):
    r = (A1 - A2) ** 2 * (B3 + 1) * (A2 - B3 - 2) ** 3 * Fraction(-5, 3)
    (residual, removed, scale), counts = _strip_checked(r, monkeypatch)
    assert residual == 1 and scale == Fraction(-5, 3)
    assert removed == ("alpha1-alpha2",) * 2 + ("beta2-beta3",) + ("alpha2+beta2-beta3-beta4",) * 3
    assert counts == {"points": 1, "divided_at": [1]}
    got, counts = _strip_checked(MPolyQ(()), monkeypatch)
    assert got == (MPolyQ(()), (), 1) and counts == {"points": 0, "divided_at": []}


def test_grid_base_is_generic():
    # on each axis line through GRID_BASE, the forms that vary along it have
    # distinct roots, and every other form is a nonzero constant
    for i in range(3):
        roots = []
        for _, form in TRIVIAL_FORMS:
            at0, at1 = list(GRID_BASE), list(GRID_BASE)
            at0[i], at1[i] = 0, 1
            value = form.evaluate(*at0)
            slope = form.evaluate(*at1) - value
            if slope:
                roots.append(-value / slope)
            else:
                assert value != 0
        assert len(set(roots)) == len(roots)


def test_grid_interleaves_a_generic_diagonal_with_the_cube():
    # no linear form with coefficients in {-1, 0, 1} is constant along
    # DIAGONAL, and no point of it is skipped for a shared root
    assert all(
        sum(c * d for c, d in zip(cs, DIAGONAL))
        for cs in itertools.product((-1, 0, 1), repeat=3)
        if any(cs)
    )
    points = list(itertools.islice(hedge_iep.rigid._grid(), 2 * 4**3))
    diagonal = [tuple(b + k * d for b, d in zip(GRID_BASE, DIAGONAL)) for k in range(4**3 + 1)]
    assert points[0] == GRID_BASE and points[1::2] == diagonal[1:]
    assert all(hedge_iep.rigid._form_roots(p) is not None for p in diagonal)
    # the cube points come shell by shell: [0, 3]^3 first
    cube = {tuple(b + x for b, x in zip(GRID_BASE, u)) for u in itertools.product(range(4), repeat=3)}
    assert {points[0], *points[2::2]} == cube


def test_companion_entry_matches_product():
    entry, target, scalar = companion_double_root_entry()
    assert scalar != 0
    assert entry == target * scalar
    # nonzero at a random region point and at the rigid point
    val = entry.evaluate(-0.5, 0.2, 0.8)
    assert abs(val) > 1e-12
    vals = route_b_values()
    exact = entry.evaluate(vals["alpha1"], vals["alpha2"], vals["beta3"])
    assert not exact.is_zero()


def test_mpoly_exact_division_guard():
    with pytest.raises(InexactDivision):
        (A1 * A2 + 1).exact_div(A1)


# ---------------------------------------------------------------------------
# the rigid solution


def test_solve_rigid_reference_decimals():
    sol = solve_rigid()
    want = {
        "xi": 0.334981556,
        "alpha1": -0.604555194,
        "alpha2": 0.502965741,
        "beta3": 0.759864937,
        "lambda_37": -1.256899196,
        "lambda_48": -1.354063522,
        "lambda_49": -0.747525931,
    }
    for key, w in want.items():
        assert abs(float(sol.exact_values()[key]) - w) < 5e-10
        assert abs(sol.route_a[key] - w) < 1e-9
    assert sol.region == 1


def test_routes_agree_exactly():
    sol = solve_rigid()
    derived = solve_route_a()
    assert derived == route_b_values()
    assert sol.route_a == {key: float(v) for key, v in derived.items()}


def test_eliminant_golden_digest():
    # E = res_alpha2(res_alpha1(r'_37, r'_48), res_alpha1(r'_37, r'_49)),
    # its integer coefficients in ascending powers of beta3
    e = eliminant()
    assert e.degree == 31 and sum(1 for c in e.coeffs if c) == 27
    assert all(c.denominator == 1 for c in e.coeffs)
    text = ",".join(str(c.numerator) for c in e.coeffs)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "fe6a96b9185fc8aeb4bd0dbb237d7a4cbd6b754f49d86868e8e1826660d64116"
    )
    g1, g2, _ = eliminate(*coincidence_residuals())
    assert (len(g1), len(g2)) == (16, 66)


def test_eliminant_has_one_root_in_the_unit_interval():
    e = eliminant()
    # two roots in (0, 1], one of them at 1
    assert count_real_roots(e, Fraction(0), Fraction(1)) == 2 and e(Fraction(1)) == 0
    assert unit_interval_roots(e) == 1
    beta3 = route_b_values()["beta3"]
    assert e(beta3) == 0 and 0 < beta3 < 1


def test_eliminant_factorization_matches_sympy():
    sympy = pytest.importorskip("sympy")
    b = sympy.Symbol("b")
    got = sum(int(c) * b**i for i, c in enumerate(eliminant().coeffs))
    want = (
        -(2**28) * (b - 1) ** 3 * b**5 * (b + 1) ** 15 * (b**2 - 6 * b - 11)
        * (3 * b**6 + 10 * b**5 - 10 * b**4 - 112 * b**3 - 119 * b**2 + 58 * b + 74)
    )
    assert sympy.expand(got - want) == 0
    assert sympy.factor_list(got) == sympy.factor_list(want)


@pytest.mark.parametrize("k", range(6))
def test_a_moved_alpha2_numerator_fails_the_exact_match(monkeypatch, k):
    # route A derives alpha2 from route B's beta3 alone, so a route B
    # alpha2 whose xi^k numerator over 30 moved by 1 cannot agree with it
    values = route_b_values()
    assert values["alpha2"].den == 30
    moved = values | {"alpha2": values["alpha2"] + QXi.of(*[0] * k, Fraction(1, 30))}
    monkeypatch.setattr(hedge_iep.rigid, "route_b_values", lambda: moved)
    with pytest.raises(RoutesDisagree, match="routes disagree on alpha2"):
        solve_rigid.__wrapped__()


@pytest.mark.parametrize("k", [0, 64, 129])
def test_a_perturbed_r49_coefficient_fails_the_elimination(k):
    f, g, h = coincidence_residuals()
    moved = h + MPolyQ(((h.nums[k][0], 1),))
    e = eliminate(f, g, moved)[2]
    beta3 = route_b_values()["beta3"]
    assert e(beta3) != 0 or unit_interval_roots(e) != 1
    with pytest.raises(RoutesDisagree):
        derive(f, g, moved, beta3)


def test_the_eliminant_count_is_shared_with_derive(monkeypatch):
    import hedge_iep.repro as repro

    unit_interval_roots.cache_clear()
    chains = []
    count = hedge_iep.rigid.count_real_roots
    monkeypatch.setattr(hedge_iep.rigid, "count_real_roots", lambda *a: chains.append(1) or count(*a))
    derive(*coincidence_residuals(), route_b_values()["beta3"])
    report = repro.run_repro("rigid-values")
    detail = "eliminant of degree 31, roots in (0, 1): 1"
    assert ("unique in region 1 (exact)", True, detail) in report.checks
    assert len(chains) == 1


def test_elimination_needs_the_printed_r37():
    f, g, h = coincidence_residuals()
    with pytest.raises(RoutesDisagree, match="r'_37"):
        derive(f + A1 * A1, g, h, route_b_values()["beta3"])


def test_exact_substitution_zero():
    vals = route_b_values()
    for (a, b) in ((3, 7), (4, 8), (4, 9)):
        residual, _, _ = simplify_resultant(a, b)
        out = residual.evaluate(vals["alpha1"], vals["alpha2"], vals["beta3"])
        assert out.is_zero()


def test_coincidence_certificates():
    assert certify_coincidences() == {
        "lambda_37": True,
        "lambda_48": True,
        "lambda_49": True,
    }


@pytest.mark.parametrize(
    "name, moved",
    [
        # off the root of p_3 and p_7 by far less than any float could see
        ("lambda_37", lambda sol: sol.lambda_37 + Fraction(1, 10**40)),
        # p_4 and p_8 vanish at alpha2 = alpha_4 = alpha_8, but it is a
        # distinguished value, not a root of r_4 or r_8
        ("lambda_48", lambda sol: sol.lam.alpha2),
        # p_4 vanishes at beta4 = beta_4
        ("lambda_49", lambda sol: sol.lam.beta4),
    ],
    ids=["nudged", "alpha2", "beta4"],
)
def test_coincidence_certificate_rejects_a_moved_value(monkeypatch, name, moved):
    sol = solve_rigid()
    fields = {
        "xi": sol.xi,
        "lam": sol.lam,
        "lambda_37": sol.lambda_37,
        "lambda_48": sol.lambda_48,
        "lambda_49": sol.lambda_49,
        "region": sol.region,
        "route_a": sol.route_a,
    }
    moved_sol = RigidSolution(**{**fields, name: moved(sol)})
    monkeypatch.setattr(hedge_iep.rigid, "solve_rigid", lambda: moved_sol)
    certs = certify_coincidences()
    assert certs[name] is False
    assert all(ok for other, ok in certs.items() if other != name)


def test_b_positivity_through_level_41():
    bs = rigid_b_values(41)
    assert len(bs) == 40
    assert all(b.sign() == 1 for b in bs)


def test_interlacing_through_level_40():
    gap = consecutive_interlacing_gap(40)
    assert gap > 1e-9


def _reference_interlacing_gap(max_level):
    """The gap by comparing every eigenvalue of each level with the whole
    spectrum of the next."""
    specs = rigid_level_spectra(max_level)
    if max_level == 1:
        return inf
    width = max(s[-1] for s in specs) - min(s[0] for s in specs)
    gap = min(abs(y - x) for k in range(1, max_level) for x in specs[k - 1] for y in specs[k])
    return gap / width


@pytest.mark.parametrize("max_level", range(1, 41))
def test_interlacing_gap_matches_full_scan(max_level):
    # by LAPACK, with numpy loaded, and by polys.level_spectra without it
    assert consecutive_interlacing_gap(max_level) == _reference_interlacing_gap(max_level)
    with numpy_blocked():
        assert consecutive_interlacing_gap(max_level) == _reference_interlacing_gap(max_level)


def test_a_level_that_fails_to_interlace_gives_a_negative_gap(monkeypatch, capsys):
    from hedge_iep.cli import main

    real = rigid_level_spectra(40)
    # level 10's eigenvalue 4 moves past level 11's eigenvalue 5, its upper
    # bracket, halfway to level 10's eigenvalue 5: sorted still, not interlaced
    moved = list(real[9])
    moved[3] = (real[10][4] + real[9][4]) / 2
    specs = real[:9] + (tuple(moved),) + real[10:]
    monkeypatch.setattr(hedge_iep.rigid, "rigid_level_spectra", lambda max_level: specs[:max_level])
    assert consecutive_interlacing_gap(40) < 0
    assert main(["repro", "levels-40"]) == 1
    assert "[FAIL] consecutive levels stay disjoint: min gap -" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the rigid list and the level diagram


def test_rigid_multiplicity_list_t8():
    prof = profile(smallest_lush_hedge(8))
    rl = rigid_multiplicity_list(prof)
    assert rl.ordered == (
        1, 2, 6, 18, 54, 1, 164, 492, 18, 1, 1514, 6, 163, 18, 2, 2734,
        1640, 1, 6, 54, 2, 505, 168, 2, 1, 54, 18, 6, 2, 1,
    )
    assert rl.total == 7654
    by_label = {label: m for _, m, label in rl.table if label}
    assert by_label == {
        "alpha1": 2734,
        "alpha2": 1640,
        "beta2": 1514,
        "beta3": 505,
        "lambda_37": 492,
        "beta4": 168,
        "lambda_48": 164,
        "lambda_49": 163,
    }
    # repeated leftover blocks
    from collections import Counter

    counts = Counter(rl.ordered)
    assert counts[54] == 3 and counts[18] == 4 and counts[6] == 4
    assert counts[2] == 5 and counts[1] == 6


def test_rigid_list_rejects_height_below_8():
    with pytest.raises(ValueError):
        rigid_multiplicity_list(profile(smallest_lush_hedge(3)))


def test_rigid_list_merging_tolerance_raises(monkeypatch):
    prof = profile(smallest_lush_hedge(8))
    monkeypatch.setattr(hedge_iep.rigid, "SPECTRUM_TOL", 0.2)
    with pytest.raises(UnexpectedCoincidence):
        rigid_multiplicity_list(prof)


def test_level_figure_data():
    rows = level_figure_data(7)
    assert len(rows) == 7 * 8 // 2
    lvl1 = [v for level, _, v in rows if level == 1]
    sol = solve_rigid()
    assert lvl1 == pytest.approx([float(sol.lam.alpha1)])
    lvl2 = sorted(v for level, _, v in rows if level == 2)
    assert lvl2 == pytest.approx([-1.0, float(sol.lam.alpha2)])
    # levels 3 and 7 share alpha1 (periodic, odd levels) plus exactly one
    # engineered value
    lvl3 = [v for level, _, v in rows if level == 3]
    lvl7 = [v for level, _, v in rows if level == 7]
    shared = [x for x in lvl3 if min(abs(x - y) for y in lvl7) < 1e-9]
    a1 = float(sol.lam.alpha1)
    engineered = [x for x in shared if abs(x - a1) > 1e-9]
    assert len(engineered) == 1
    assert engineered[0] == pytest.approx(-1.256899196, abs=5e-10)


def test_build_c9_over_the_number_field():
    # the 9-by-9 path matrix at the rigid tuple, built through the generic
    # constructor with field scalars, eigendecomposes to the level-9 spectrum
    from hedge_iep.lambdas import build_C
    from hedge_iep.numeric import eigenvalues_sym

    sol = solve_rigid()
    c9 = build_C(sol.lam, 9)
    n = 9
    m = np.zeros((n, n))
    for i in range(n):
        m[i, i] = float(c9.entries[i][i])
    for i in range(n - 1):
        m[i, i + 1] = m[i + 1, i] = np.sqrt(float(c9.entries[i][i + 1]))
    vals = eigenvalues_sym(m)
    assert np.allclose(vals, rigid_level_spectra(9)[8], atol=1e-10)


def test_level_spectra_are_shared_read_only():
    """One tuple of tuples of floats per max_level on either route: LAPACK's
    spectra where numpy is loaded, polys.level_spectra's where it is not."""
    a, b = abc_closed_forms(solve_rigid().lam, 12)
    lapack = [s.tolist() for s in trailing_spectra(a, b)]
    pure = level_spectra(a, b)
    for blocked, fresh in ((contextlib.nullcontext(), lapack), (numpy_blocked(), pure)):
        with blocked:
            specs = rigid_level_spectra(12)
            assert rigid_level_spectra(12) is specs
            assert type(specs) is tuple and len(specs) == 12
            for got, want in zip(specs, fresh):
                assert type(got) is tuple and list(got) == want
                assert all(type(v) is float for v in got)
                with pytest.raises(TypeError):
                    got[0] = 0.0
            # a longer list solves the same levels to the same values
            assert rigid_level_spectra(40)[:12] == specs


def test_level_spectra_match_exact_values():
    sol = solve_rigid()
    specs = rigid_level_spectra(9)
    width = max(s[-1] for s in specs) - min(s[0] for s in specs)
    for level, names in {
        3: ("lambda_37",),
        4: ("lambda_48", "lambda_49"),
        7: ("lambda_37",),
        8: ("lambda_48",),
        9: ("lambda_49",),
    }.items():
        for name in names:
            target = float(sol.exact_values()[name])
            assert min(abs(x - target) for x in specs[level - 1]) < 1e-9 * width
