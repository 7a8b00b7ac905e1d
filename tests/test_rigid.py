import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hedge_iep
from hedge_iep.algebraic import SEXTIC, XI_INTERVAL, QXi, refined_xi, verify_isolation
from hedge_iep.mpoly import InexactDivision, MPolyQ
from hedge_iep.polys import PolyQ, count_real_roots, is_squarefree
from hedge_iep.rigid import (
    RoutesDisagree,
    UnexpectedCoincidence,
    certify_coincidences,
    companion_double_root_entry,
    consecutive_interlacing_gap,
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
)
from hedge_iep.trees import profile, smallest_lush_hedge

A1 = MPolyQ.var("alpha1")
A2 = MPolyQ.var("alpha2")
B3 = MPolyQ.var("beta3")


# ---------------------------------------------------------------------------
# the number field


def test_xi_isolation():
    assert verify_isolation()
    lo, hi = XI_INTERVAL
    assert lo == Fraction(1, 3) and hi == Fraction(17, 50)
    assert is_squarefree(SEXTIC)
    # no other positive root below the interval
    assert count_real_roots(SEXTIC, Fraction(0), lo) == 0


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


# ---------------------------------------------------------------------------
# resultants


def test_resultant_classical_linear():
    f = PolyQ((-A1, MPolyQ.const(1)))  # x - alpha1
    g = PolyQ((-A2, MPolyQ.const(1)))  # x - alpha2
    r = resultant(f, g)
    assert r in (A1 - A2, A2 - A1)


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


@pytest.mark.parametrize("seed", range(6))
def test_route_a_unique(seed):
    # seeds 0, 1, 3 and 5 each have a start that ends near the degenerate
    # corner (-1, 1, 1) with a tiny residual; only the simple-root gate
    # rejects it
    vals = solve_route_a(seed=seed, starts=20)
    sol = solve_rigid()
    for key in vals:
        assert abs(vals[key] - float(sol.exact_values()[key])) < 1e-9


def test_mpoly_partial_derivatives():
    p = A1 * A1 * B3 + A2 * 3 - 5
    assert p.diff(0) == A1 * B3 * 2
    assert p.diff(1) == MPolyQ.const(3)
    assert p.diff(2) == A1 * A1
    assert MPolyQ.const(7).diff(0).is_zero()


def test_package_import_needs_no_scipy():
    code = "import sys, hedge_iep; print([m for m in sys.modules if m.startswith('scipy')])"
    env = {**os.environ, "PYTHONPATH": str(Path(hedge_iep.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


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


def test_b_positivity_through_level_41():
    bs = rigid_b_values(41)
    assert len(bs) == 40
    assert all(b.sign() == 1 for b in bs)


def test_interlacing_through_level_40():
    gap = consecutive_interlacing_gap(40)
    assert gap > 1e-9


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


def test_rigid_list_merging_tolerance_raises():
    prof = profile(smallest_lush_hedge(8))
    with pytest.raises(UnexpectedCoincidence):
        rigid_multiplicity_list(prof, tol=0.2)


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
