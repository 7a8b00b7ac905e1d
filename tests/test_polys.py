"""Two kernels of `polys`.  The pure-Python level-spectrum kernel:
`polys.level_counts`, the Givens-Sturm count of every level of a path matrix
from one pivot sweep, and `polys.level_spectra`, which brackets each
eigenvalue of a level between those of the level below and refines it.  Its
oracles are LAPACK (`numeric.trailing_spectra`) and the same sweep run in
exact rationals.  The Sturm chain `polys.sturm_sequence`, on primitive
integer pseudo-remainders; its oracle is the chain of remainders over Q.
The product, whose unit rows skip their multiplications, against the plain
convolution, and `monic` and `poly_gcd` on int coefficients."""

import random
import sys
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedge_iep.algebraic import SEXTIC, QXi
from hedge_iep.lambdas import abc_closed_forms, abc_coefficients, path_weight, sample_in_region
from hedge_iep.mpoly import MPolyQ
from hedge_iep.numeric import trailing_spectra
from hedge_iep.polys import (
    X,
    PolyQ,
    ZeroPolynomial,
    _trim,
    count_real_roots,
    level_counts,
    level_spectra,
    poly_gcd,
    sign_at,
    sturm_sequence,
)
from hedge_iep.rigid import consecutive_interlacing_gap, eliminant, solve_rigid
from hedge_iep.weights import inertia

from conftest import numpy_blocked, real_roots

EPS = sys.float_info.epsilon


def _paths(rng):
    """200 random feasible tuples, float and Fraction, at n = 1..12, and the
    rigid tuple at n = 9 (the rigid list) and n = 41."""
    out = []
    for t in range(200):
        lam = sample_in_region(int(rng.integers(1, 13)), rng, exact=bool(t % 2))
        out.append(abc_coefficients(lam, int(rng.integers(1, 13))))
    return out + [abc_closed_forms(solve_rigid().lam, n) for n in (9, 41)]


def _scale(spectrum) -> float:
    """The larger of the width and the norm of a spectrum: both solvers'
    rounding errors are multiples of eps times it."""
    return max(spectrum[-1] - spectrum[0], abs(spectrum[0]), abs(spectrum[-1]))


def test_level_spectra_match_lapack(rng):
    # LAPACK alone sits up to about 4.5 eps * scale from a 40-digit solve;
    # the rigid tuple's 40 levels are `repro levels-40`'s, solved by either
    for a, b in _paths(rng) + [abc_closed_forms(solve_rigid().lam, 40)]:
        got, want = level_spectra(a, b), trailing_spectra(a, b)
        assert [len(s) for s in got] == list(range(1, len(a) + 1))
        tol = 8 * EPS * _scale(want[-1])
        assert all(np.max(np.abs(np.array(g) - w)) <= tol for g, w in zip(got, want))
    # and the interlacing gap it prints at .3e reads the same from both
    lapack = consecutive_interlacing_gap(40)
    with numpy_blocked():
        pure = consecutive_interlacing_gap(40)
    assert f"{pure:.3e}" == f"{lapack:.3e}"


def test_each_eigenvalue_is_strictly_inside_its_interlacing_bracket(rng):
    for a, b in _paths(rng):
        specs = level_spectra(a, b)
        for lower, upper in zip(specs, specs[1:]):
            assert all(upper[i] < v < upper[i + 1] for i, v in enumerate(lower))


def test_exact_counts_step_by_one_across_each_eigenvalue(rng):
    """At v -+ 2 eps * scale, the sweep run exactly on the rounded a_i and
    b_i counts i and i + 1 eigenvalues of v's level below: so the i-th
    eigenvalue lies within that distance of v, and no other does."""
    for a, b in _paths(rng):
        specs = level_spectra(a, b)
        exact_a = [Fraction(float(x)) for x in a]
        exact_b = [Fraction(float(x)) for x in b]
        delta = Fraction(2 * EPS * _scale(specs[-1]))
        for m, spec in enumerate(specs, 1):
            for i, v in enumerate(spec):
                below = level_counts(exact_a[:m], exact_b, Fraction(v) - delta)[-1]
                above = level_counts(exact_a[:m], exact_b, Fraction(v) + delta)[-1]
                assert (below, above) == (i, i + 1)


def test_one_sweep_counts_every_level(rng):
    for a, b in _paths(rng)[:50]:
        specs = trailing_spectra(a, b)
        q = float(rng.uniform(specs[-1][0] - 1, specs[-1][-1] + 1))
        want = [int(np.sum(s < q)) for s in specs]
        assert level_counts([float(x) for x in a], [float(x) for x in b], q) == want


def test_a_zero_pivot_counts_as_its_limit_from_below():
    # [[0, 1], [1, 0]] at q = 0: level 1 is {0}, level 2 is {-1, 1}
    assert level_counts([0.0, 0.0], [1.0], 0.0) == [0, 1]
    assert level_counts([Fraction(0)] * 3, [Fraction(1)] * 2, Fraction(0)) == [0, 1, 1]


def test_int_and_fraction_pivots_are_exact():
    # 4 is an eigenvalue of level 3: the last pivot is -6 + 6 = 0, which a
    # float pivot -2/3 misses by one rounding
    assert level_counts([1, 3, -2], [1, 4], 4) == [1, 2, 2]
    # after the zero pivot at level 1 and the -inf at level 2, level 3's
    # pivot is a_3 - q = -4, and level 6 meets the eigenvalue 2 exactly
    a, b = [2, 0, -2, 0, 0, -1], [1, 3, 2, 2, 2]
    want = [0, 1, 2, 3, 4, 4]
    assert level_counts(a, b, 2) == level_counts(a, b, Fraction(2)) == want
    assert level_counts([Fraction(x) for x in a], [Fraction(x) for x in b], Fraction(2)) == want
    # floats stay floats: the same path divides as before
    assert level_counts([1.0, 3.0, -2.0], [1.0, 4.0], 4.0) == [1, 2, 3]


def test_level_counts_of_int_paths_match_their_fraction_copies():
    """Small int paths, counted as ints, as Fraction copies and by the
    exact tree inertia of each level; many q are eigenvalues."""
    rng = random.Random(2023)
    zero_pivots = 0
    for _ in range(2000):
        n = rng.randint(2, 6)
        a = [rng.randint(-3, 3) for _ in range(n)]
        b = [rng.randint(1, 5) for _ in range(n - 1)]
        q = rng.randint(-4, 4)
        fa, fb = [Fraction(x) for x in a], [Fraction(x) for x in b]
        got = level_counts(a, b, q)
        assert got == level_counts(fa, fb, Fraction(q)), (a, b, q)
        exact = [inertia(path_weight(fa[:k], fb[: k - 1]), q) for k in range(1, n + 1)]
        assert got == [below for below, _, _ in exact], (a, b, q)
        zero_pivots += any(at for _, at, _ in exact)
    assert zero_pivots > 300


def test_eigenvalues_on_the_gershgorin_edge():
    # each eigenvalue of [[0, 1], [1, 0]] is on the edge of both discs
    assert level_spectra([0, 0], [1]) == [[0.0], [-1.0, 1.0]]


def test_nearly_equal_eigenvalues_stay_sorted_and_counted():
    # diagonal (1, 0, 1), couplings b: level 3 is {-2b, 1, 1 + 2b} to first
    # order, so two eigenvalues sit 1e-12 of the width apart
    b = 5e-13
    specs = level_spectra([1.0, 0.0, 1.0], [b, b])
    top = specs[-1]
    assert top[0] < top[1] < top[2]
    assert top[2] - top[1] == pytest.approx(2 * b, rel=1e-3)
    assert level_counts([1.0, 0.0, 1.0], [b, b], top[1] - b)[-1] == 1
    assert level_counts([1.0, 0.0, 1.0], [b, b], (top[1] + top[2]) / 2)[-1] == 2
    want = trailing_spectra([1.0, 0.0, 1.0], [b, b])
    assert all(np.max(np.abs(np.array(g) - w)) <= 4 * EPS for g, w in zip(specs, want))


@pytest.mark.parametrize("factor", [1e150, 1e-150])
def test_a_scaled_path_whose_p_n_overflows_or_underflows(factor):
    """Scaling a_i by c and b_i by c^2 scales every eigenvalue by c, but p_9
    at the bracket ends leaves the float range, so no regula falsi step is
    possible there and the count bisection finds each eigenvalue."""
    a, b = abc_closed_forms(solve_rigid().lam, 9)
    want = level_spectra(a, b)
    got = level_spectra([float(x) * factor for x in a], [float(x) * factor**2 for x in b])
    tol = 8 * EPS * _scale(want[-1])
    for g, w in zip(got, want):
        assert max(abs(x / factor - y) for x, y in zip(g, w)) <= tol


# ---------------------------------------------------------------------------
# the Sturm chain


def fraction_remainder_chain(p: PolyQ) -> list[PolyQ]:
    """p, p' and the negated remainders over Q after them, down to the last
    nonzero one."""
    seq = [p, p.derivative()]
    while not seq[-1].is_zero():
        rem = seq[-2].divmod(seq[-1])[1]
        if rem.is_zero():
            break
        seq.append(-rem)
    return seq


def fraction_sturm_sequence(p: PolyQ) -> list[PolyQ]:
    seq = fraction_remainder_chain(p)
    g = seq[-1]
    return seq if g.degree <= 0 else fraction_remainder_chain(p.exact_div(g))


def fraction_count(p: PolyQ, lo: Fraction, hi: Fraction) -> int:
    def changes(x):
        s = [v for v in (q(x) for q in fraction_sturm_sequence(p)) if v]
        return sum(1 for a, b in zip(s, s[1:]) if (a > 0) != (b > 0))

    return changes(lo) - changes(hi)


def assert_chain_matches_the_fraction_chain(p: PolyQ, points):
    got, want = sturm_sequence(p), fraction_sturm_sequence(p)
    assert len(got) == len(want)
    for q, r in zip(got, want):
        # q is the primitive integer polynomial of r's signs
        assert all(type(c) is int for c in q.coeffs) and gcd(*q.coeffs) in (0, 1)
        assert q.degree == r.degree
        if r.degree >= 0:
            scale = q.leading() / r.leading()
            assert scale > 0 and q.coeffs == tuple(scale * c for c in r.coeffs)
        sign = sign_at(q)
        for x in points:
            v = r(x)
            assert sign(x) == (v > 0) - (v < 0)
    for lo, hi in zip(points, points[1:]):
        lo, hi = min(lo, hi), max(lo, hi)
        assert count_real_roots(p, lo, hi) == fraction_count(p, lo, hi)


small_rationals = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 5]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=5).filter(any),
    st.lists(st.integers(-6, 6), min_size=2, max_size=3).filter(lambda cs: cs[-1] != 0),
    st.integers(1, 3),
    st.lists(small_rationals, min_size=2, max_size=6),
)
def test_integer_chain_matches_the_fraction_chain(f, g, k, points):
    # f g^(k + 1): g's roots are repeated, so the squarefree step runs
    p = PolyQ.of(*f)
    for _ in range(k + 1):
        p = p * PolyQ.of(*g)
    assert_chain_matches_the_fraction_chain(p, points)


def test_integer_chain_of_the_eliminant_and_the_sextic():
    points = [Fraction(n, 7) for n in range(-21, 22)] + [Fraction(1, 3), Fraction(17, 50)]
    for p in (eliminant(), SEXTIC):
        assert_chain_matches_the_fraction_chain(p, points)
    chain = sturm_sequence(eliminant())
    # E = b^5 (b - 1)^3 (b + 1)^15 times cofactors: its squarefree part has degree 11
    assert len(chain) == 12 and chain[0].degree == 11
    assert max(abs(c) for q in chain[1:] for c in q.coeffs).bit_length() < 128


def test_root_counts_reject_the_zero_polynomial_and_reversed_ends():
    eps = Fraction(1, 100)
    p = X * X - 1
    with pytest.raises(ValueError, match="reversed"):
        count_real_roots(p, Fraction(1), Fraction(0))
    with pytest.raises(ZeroPolynomial):
        count_real_roots(PolyQ(()), Fraction(0), Fraction(1))
    with pytest.raises(ZeroPolynomial):
        real_roots(PolyQ(()), Fraction(0), Fraction(1), eps)
    # a reversed interval used to split forever around the root 1
    with pytest.raises(ValueError, match="reversed"):
        real_roots(p, Fraction(2), Fraction(0), eps)
    # an empty interval (lo = hi) has no roots, and constants have none
    assert count_real_roots(p, Fraction(1), Fraction(1)) == 0
    assert real_roots(p, Fraction(1), Fraction(1), eps) == []
    assert count_real_roots(PolyQ.of(3), Fraction(-5), Fraction(5)) == 0


def test_divmod_of_int_coefficients_is_exact():
    # (1 + 2x) divmod 3x: the quotient 2/3 is a Fraction, not a float
    q, r = PolyQ((1, 2)).divmod(PolyQ((0, 3)))
    assert q.coeffs == (Fraction(2, 3),) and type(q.coeffs[0]) is Fraction
    assert r.coeffs == (1,)
    # x^2 - 1 over 2x + 2, int coefficients throughout, is exact too
    q, r = PolyQ((-1, 0, 1)).divmod(PolyQ((2, 2)))
    assert q.coeffs == (Fraction(-1, 2), Fraction(1, 2)) and r.is_zero()
    assert PolyQ((-1, 0, 1)).exact_div(PolyQ((2, 2))) * PolyQ((2, 2)) == PolyQ((-1, 0, 1))


def test_monic_and_gcd_of_int_coefficients_are_exact():
    # 2 + 4x over its leading 4 is 1/2 + x in Fractions, not 0.5 + 1.0 x
    half = (Fraction(1, 2), Fraction(1))
    for p in (PolyQ((2, 4)).monic(), poly_gcd(PolyQ((2, 4)), PolyQ((4, 8)))):
        assert p.coeffs == half and all(type(c) is Fraction for c in p.coeffs)
    g = poly_gcd(PolyQ((-1, 0, 1)), PolyQ((3, 3)))  # gcd(x^2 - 1, 3x + 3) = x + 1
    assert g.coeffs == (1, 1) and all(type(c) is not float for c in g.coeffs)
    assert PolyQ((3,)).monic().coeffs == (1,) and PolyQ(()).monic() == PolyQ(())


def _convolution(a: tuple, b: tuple) -> PolyQ:
    """The plain product: every slot starts at 0 and adds every term pair."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return PolyQ(_trim(out))


def _fraction(rng) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7)))


def _qxi(rng) -> QXi:
    return QXi.of(*(_fraction(rng) for _ in range(rng.randint(1, 6))))


def _mpoly(rng) -> MPolyQ:
    terms = (
        MPolyQ.var(rng.choice(("alpha1", "beta3"))) ** rng.randint(0, 2) * _fraction(rng)
        for _ in range(rng.randint(1, 4))
    )
    return sum(terms, MPolyQ(()))


#: per coefficient ring: its one, and a random element
RINGS = {"fraction": (Fraction(1), _fraction), "qxi": (QXi.of(1), _qxi), "mpoly": (MPolyQ.const(1), _mpoly)}


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_products_with_unit_coefficients_match_the_convolution(ring):
    one, draw = RINGS[ring]
    rng = random.Random(ring)
    with_units = 0
    for _ in range(150):
        # the int 1 and the ring's one both count as units
        a, b = (
            tuple(rng.choice((0, 1, one, one, draw(rng), draw(rng))) for _ in range(rng.randint(0, 5)))
            for _ in range(2)
        )
        with_units += any(c == 1 for c in a + b)
        assert PolyQ(a) * PolyQ(b) == _convolution(a, b) == PolyQ(b) * PolyQ(a)
    assert with_units > 100
    # the level step (x - c) p, with the unit in either factor
    p, c = PolyQ(tuple(draw(rng) for _ in range(6))), draw(rng)
    step = X - c
    assert step * p == _convolution(step.coeffs, p.coeffs) == p * step == X * p - p * c
