"""Two kernels of `polys`.  The pure-Python level-spectrum kernel:
`polys.level_counts`, the Givens-Sturm count of every level of a path matrix
from one pivot sweep, and `polys.level_spectra`, which brackets each
eigenvalue of a level between those of the level below and refines it.  Its
oracles are LAPACK (`numeric.trailing_spectra`) and the same sweep run in
exact rationals.  The Sturm chain `polys.sturm_sequence`, on primitive
integer pseudo-remainders; its oracle is the chain of remainders over Q."""

import sys
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedge_iep.algebraic import SEXTIC
from hedge_iep.lambdas import abc_closed_forms, abc_coefficients, sample_in_region
from hedge_iep.numeric import trailing_spectra
from hedge_iep.polys import (
    X,
    PolyQ,
    ZeroPolynomial,
    count_real_roots,
    level_counts,
    level_spectra,
    sign_at,
    sturm_sequence,
)
from hedge_iep.rigid import eliminant, solve_rigid

from conftest import real_roots

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
    # LAPACK alone sits up to about 4.5 eps * scale from a 40-digit solve
    for a, b in _paths(rng):
        got, want = level_spectra(a, b), trailing_spectra(a, b)
        assert [len(s) for s in got] == list(range(1, len(a) + 1))
        tol = 8 * EPS * _scale(want[-1])
        assert all(np.max(np.abs(np.array(g) - w)) <= tol for g, w in zip(got, want))


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
