import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedge_iep.numeric import (
    NotSymmetric,
    char_poly_exact,
    cluster_multiplicities,
    eigenvalues_sym,
    numeric_nullity,
    trailing_spectra,
)
from hedge_iep.polys import (
    X,
    NonzeroRemainder,
    PolyQ,
    ZeroPolynomial,
    count_real_roots,
    horner_enclosure,
    level_values,
    root_multiplicities,
    sign_at,
)

from conftest import real_roots


def test_eigenvalues_sym_examples():
    c2 = np.array([[4.0, math.sqrt(3)], [math.sqrt(3), 2.0]])
    assert np.allclose(eigenvalues_sym(c2), [1, 5])
    assert np.allclose(eigenvalues_sym(np.eye(5)), np.ones(5))
    c3 = np.diag([8.0, 4.0, 2.0])
    c3[0, 1] = c3[1, 0] = math.sqrt(20)
    c3[1, 2] = c3[2, 1] = math.sqrt(3)
    assert np.allclose(eigenvalues_sym(c3), [0, 3, 11], atol=1e-9)


def test_eigenvalues_sym_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        eigenvalues_sym(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(NotSymmetric):
        eigenvalues_sym(np.ones((2, 3)))


def test_char_poly_exact_c3():
    entries = (
        (Fraction(8), Fraction(20), Fraction(0)),
        (Fraction(1), Fraction(4), Fraction(3)),
        (Fraction(0), Fraction(1), Fraction(2)),
    )
    p = char_poly_exact(entries)
    assert p == PolyQ.of(0, 33, -14, 1)
    assert p(Fraction(0)) == 0 and p(Fraction(3)) == 0 and p(Fraction(11)) == 0


def test_char_poly_exact_trivial():
    assert char_poly_exact(((Fraction(5),),)) == PolyQ.of(-5, 1)
    empty = char_poly_exact(())
    assert isinstance(empty, PolyQ) and empty == PolyQ.of(1)


def test_char_poly_exact_c3_prime():
    entries = (
        (Fraction(2), Fraction(20), Fraction(0)),
        (Fraction(1), Fraction(4), Fraction(3)),
        (Fraction(0), Fraction(1), Fraction(2)),
    )
    p = char_poly_exact(entries)
    # (x - 2)(x^2 - 6x - 15)
    assert p == PolyQ.of(-2, 1) * PolyQ.of(-15, -6, 1)


def test_char_poly_exact_star_vs_numpy():
    # a non-tridiagonal pattern exercises the determinant fallback
    entries = [[Fraction(0)] * 4 for _ in range(4)]
    for leaf in (2, 3, 4):
        entries[0][leaf - 1] = Fraction(1)
        entries[leaf - 1][0] = Fraction(1)
    p = char_poly_exact(entries)
    m = np.array([[float(x) for x in row] for row in entries])
    vals = np.sort(np.linalg.eigvalsh(m))
    assert p.degree == 4
    for v in vals:
        assert abs(p(float(v))) < 1e-9


def test_cluster_examples():
    spec = cluster_multiplicities([0.0, 1.0, 1.0 + 1e-12, 2.0], 1e-7)
    assert spec.ordered_multiplicities() == (1, 2, 1)
    table1 = [0, 1, 1, 2, 2, 2, 3, 5, 5, 11]
    assert cluster_multiplicities(table1).ordered_multiplicities() == (1, 2, 3, 1, 2, 1)


def test_cluster_of_equal_values_keeps_the_value():
    # the mean would round: sum([0.1] * 3) / 3 == 0.10000000000000002
    assert cluster_multiplicities([0.1] * 3).entries == ((0.1, 3),)


def test_eigensolver_vs_exact_roots(rng):
    # LAPACK against Sturm-bisected exact roots on random rational path
    # matrices
    for _ in range(200):
        n = int(rng.integers(2, 13))
        diag = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 3))) for _ in range(n)]
        sup = [Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 3))) for _ in range(n - 1)]
        p = level_values(diag[::-1], sup[::-1], X)[-1]
        lo = Fraction(-100)
        hi = Fraction(100)
        roots = real_roots(p, lo, hi, Fraction(1, 10**14))
        assert len(roots) == n  # positive products give simple real spectra
        m = np.diag([float(d) for d in diag])
        for i in range(n - 1):
            x = math.sqrt(float(sup[i]))
            m[i, i + 1] = m[i + 1, i] = x
        vals = eigenvalues_sym(m)
        scale = max(1.0, float(max(abs(r) for r in roots)))
        assert np.max(np.abs(vals - np.array([float(r) for r in roots]))) < 1e-10 * scale


rationals = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 7, 12, 2**30]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(-(10**6), 10**6), max_size=9),
    rationals,
    rationals,
    st.lists(st.fractions(0, 1, max_denominator=10**4), max_size=3),
)
def test_horner_enclosure_brackets_the_value(ints, x, y, ts):
    # negative intervals, intervals across 0 and points, against the exact
    # value of the same polynomial at the ends, the midpoint and inside
    p = PolyQ.of(*ints)
    lo, hi = min(x, y), max(x, y)
    vlo, vhi, d = horner_enclosure(ints, lo, hi)
    assert d > 0
    for t in (0, 1, Fraction(1, 2), *ts):
        assert Fraction(vlo, d) <= p(lo + (hi - lo) * t) <= Fraction(vhi, d)
    for z in (lo, hi, (lo + hi) / 2):
        vlo, vhi, d = horner_enclosure(ints, z, z)
        assert vlo == vhi and Fraction(vlo, d) == p(z)


def test_horner_enclosure_across_zero():
    # x^2 on [-1, 1]: a monomial bound from the ends alone gives [1, 1],
    # which misses the value 0 at x = 0
    vlo, vhi, d = horner_enclosure([0, 0, 1], Fraction(-1), Fraction(1))
    assert vlo <= 0 <= vhi and d > 0
    # point signs of (x - 1/3)(x + 2) at its roots, between and outside them
    sign = sign_at(PolyQ.of(Fraction(-2, 3), Fraction(5, 3), 1))
    assert [sign(Fraction(z)) for z in (-3, -2, 0, Fraction(1, 3), 1)] == [1, 0, -1, 0, 1]


def test_real_roots_double_root_on_a_bisection_point():
    # x (x + 7)^2 on (-12, 12]: narrowing around the double root lands on -7
    eps = Fraction(1, 10**6)
    roots = real_roots(PolyQ.of(0, 49, 14, 1), Fraction(-12), Fraction(12), eps)
    assert len(roots) == 2
    assert abs(roots[0] + 7) <= eps and abs(roots[1]) <= eps


def test_sturm_counts_at_a_multiple_root():
    x2x1 = PolyQ.of(0, 0, -1, 1)  # x^2 (x - 1): the lower end is a double root
    assert count_real_roots(x2x1, Fraction(0), Fraction(2)) == 1
    assert real_roots(x2x1, Fraction(0), Fraction(2), Fraction(1, 10**6)) == [1]
    assert count_real_roots(x2x1, Fraction(-1), Fraction(0)) == 1
    # (x - 1)(x - 3)^2 (x - 4) on (0, 3]: the upper end is a double root
    p = PolyQ.of(36, -69, 43, -11, 1)
    roots = real_roots(p, Fraction(0), Fraction(3), Fraction(1, 3))
    assert len(roots) == 2 and abs(roots[0] - 1) < Fraction(1, 3) and roots[1] == 3


def test_real_roots_with_multiplicities(rng):
    # products of (x - r)^m over small rationals r, sometimes times a
    # quadratic without real roots; an end of the interval is sometimes a root
    for _ in range(100):
        roots = {}
        for _ in range(int(rng.integers(1, 5))):
            r = Fraction(int(rng.integers(-8, 9)), int(rng.choice([1, 2, 3])))
            roots[r] = roots.get(r, 0) + int(rng.integers(1, 4))
        p = PolyQ.of(int(rng.integers(1, 5)), 0, 1) if rng.integers(0, 2) else PolyQ.of(1)
        for r, m in roots.items():
            for _ in range(m):
                p = p * (X - r)
        lo, hi = Fraction(int(rng.integers(-9, 1))), Fraction(int(rng.integers(1, 10)))
        if rng.integers(0, 3) == 0:
            r = list(roots)[int(rng.integers(0, len(roots)))]
            lo, hi = (r, hi) if r < hi else (lo, r)
        want = sorted(r for r in roots if lo < r <= hi)
        assert count_real_roots(p, lo, hi) == len(want)
        for eps in (Fraction(1, 10**14), Fraction(1, 3)):
            got = real_roots(p, lo, hi, eps)
            assert len(got) == len(want)
            assert all(abs(g - w) < eps for g, w in zip(got, want))


def test_root_multiplicities_of_known_products(rng):
    # (x - r)^m over distinct small rationals r, times 3 (x^2 - 2): two
    # simple irrational roots, and a leading coefficient other than 1
    for _ in range(50):
        rs = {Fraction(int(rng.integers(-8, 9)), int(rng.choice([1, 2, 3]))) for _ in range(4)}
        ms = {r: int(rng.integers(1, 5)) for r in rs}
        p = PolyQ.of(-6, 0, 3)
        for r, m in ms.items():
            for _ in range(m):
                p = p * (X - r)
        assert root_multiplicities(p) == tuple(sorted([*ms.values(), 1, 1], reverse=True))
    assert root_multiplicities(PolyQ.of(Fraction(5, 3))) == ()
    assert root_multiplicities(PolyQ.of(-15, -6, 1) * PolyQ.of(-15, -6, 1)) == (2, 2)
    with pytest.raises(ZeroPolynomial):
        root_multiplicities(PolyQ(()))


def test_trailing_interlacing(rng):
    from hedge_iep.lambdas import abc_coefficients, sample_in_region

    for _ in range(10):
        lam = sample_in_region(int(rng.integers(1, 13)), rng)
        specs = trailing_spectra(*abc_coefficients(lam, 8))
        for k in range(1, 8):
            small, big = specs[k - 1], specs[k]
            for i in range(k):
                assert big[i] < small[i] < big[i + 1]


def _reference_trailing_spectra(a, b, n):
    """A fresh k-by-k fill for each block."""
    af, bf, out = [float(x) for x in a], [float(x) for x in b], []
    for k in range(1, n + 1):
        m = np.diag(af[k - 1 :: -1])
        for i in range(k - 1):
            m[i, i + 1] = m[i + 1, i] = np.sqrt(bf[k - 2 - i])
        out.append(np.sort(np.linalg.eigvalsh(m)))
    return out


def test_trailing_spectra_are_the_per_block_fill_bitwise(rng):
    from hedge_iep.lambdas import abc_closed_forms
    from hedge_iep.rigid import solve_rigid

    paths = [abc_closed_forms(solve_rigid().lam, 41)]
    for n in range(1, 46):
        paths.append((rng.normal(size=n).tolist(), rng.uniform(0.01, 5.0, size=n - 1).tolist()))
        paths.append((
            [Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 9))) for _ in range(n)],
            [Fraction(int(rng.integers(1, 60)), int(rng.integers(1, 9))) for _ in range(n - 1)],
        ))
    for a, b in paths:
        got, want = trailing_spectra(a, b), _reference_trailing_spectra(a, b, len(a))
        assert len(got) == len(want) == len(a)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))


def test_numeric_nullity():
    m = np.diag([1.0, 0.0, 2.0, 0.0])
    assert numeric_nullity(m) == 2
    assert numeric_nullity(np.eye(3)) == 0


def test_exact_division_guard():
    with pytest.raises(NonzeroRemainder):
        PolyQ.of(1, 0, 1).exact_div(PolyQ.of(1, 1))
