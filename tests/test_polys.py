"""The pure-Python level-spectrum kernel: `polys.level_counts`, the
Givens-Sturm count of every level of a path matrix from one pivot sweep, and
`polys.level_spectra`, which brackets each eigenvalue of a level between
those of the level below and refines it.  Its oracles are LAPACK
(`numeric.trailing_spectra`) and the same sweep run in exact rationals."""

import sys
from fractions import Fraction

import numpy as np
import pytest

from hedge_iep.lambdas import abc_closed_forms, abc_coefficients, sample_in_region
from hedge_iep.numeric import trailing_spectra
from hedge_iep.polys import level_counts, level_spectra
from hedge_iep.rigid import solve_rigid

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
        got, want = level_spectra(a, b), trailing_spectra(a, b, len(a))
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
        specs = trailing_spectra(a, b, len(a))
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
    want = trailing_spectra([1.0, 0.0, 1.0], [b, b], 3)
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
