import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedge_iep.algebraic import QXi
from hedge_iep.lambdas import (
    DegenerateSum,
    DuplicateValues,
    NAMES,
    LambdaTuple,
    NotInB,
    abc_coefficients,
    build_C,
    char_polys,
    in_B3,
    level_coefficients,
    level_names,
    path_weight,
    region_of,
    remainder_poly,
    sample_in_region,
    step_lemma_checks,
    step_lemma_checks_raw,
)
from hedge_iep.numeric import char_poly_exact, trailing_spectra
from hedge_iep.polys import PolyQ
from hedge_iep.pth import t31_lambda
from hedge_iep.trees import RootedTree
from hedge_iep.weights import WeightFn

from conftest import move_weight, relabel


def test_region_direct_examples():
    assert region_of((0, 1, -1, 2, 3)) == 1
    # the explicit height-3 family at x = 2/5, classified by hand:
    # beta3 < beta2 < beta4 < alpha1 < alpha2
    lam = t31_lambda(Fraction(2, 5))
    vals = (lam.alpha1, lam.alpha2, lam.beta2, lam.beta3, lam.beta4)
    assert vals[3] < vals[2] < vals[4] < vals[0] < vals[1]
    assert region_of(vals) == 5


def test_level_names_follow_the_two_ladders():
    lam = LambdaTuple(*NAMES)  # each value is its own name
    assert level_names(1) == ("alpha1",)
    for i in range(2, 42):
        alpha = "alpha1" if i % 2 == 1 else "alpha2"
        beta = ("beta2", "beta3", "beta4")[(i - 2) % 3]
        assert level_names(i) == (alpha, beta)
        assert (lam.alpha(i), lam.beta(i)) == (alpha, beta)
    assert lam.alpha(1) == "alpha1"
    with pytest.raises(ValueError):
        lam.beta(1)


def test_region_negation_is_shift_by_six(rng):
    for reg in range(1, 13):
        for _ in range(500):
            lam = sample_in_region(reg, rng)
            assert lam.region() == reg
            neg = lam.negated()
            assert neg.region() == (reg + 6 - 1) % 12 + 1


def test_region_duplicate_values():
    # QXi.of(-1) and -1 are one value: equal elements hash alike
    for values in ((0, 0, 1, 2, 3), (QXi.of(-1), QXi.of(0), -1, QXi.of(1), QXi.of(2))):
        with pytest.raises(DuplicateValues):
            region_of(values)


def test_region_boundary_gives_none():
    # order pattern of region 3 but with the auxiliary sum at equality
    a1, a2, b2, b3 = 0, 1, -1, 2
    b4 = a2 + b2 - b3  # gamma = beta3 boundary
    assert b4 < b2 < a1 < a2 < b3
    assert region_of((a1, a2, b2, b3, b4)) is None


def test_b4_closed_form_exact():
    lam = LambdaTuple(Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(3))
    a, b = abc_coefficients(lam, 4)
    want = (
        (lam.beta4 - lam.alpha1)
        * (lam.beta3 - lam.beta4)
        * (lam.alpha2 + lam.beta2 - lam.beta3 - lam.beta4)
        / (lam.beta4 - lam.beta2)
    )
    assert b[2] == want
    assert a == [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]


def test_c2_display():
    lam = LambdaTuple(Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(3))
    c2 = build_C(lam, 2)
    a1, a2, b2 = lam.alpha1, lam.alpha2, lam.beta2
    assert c2.entries[0][0] == -a1 + a2 + b2
    assert c2.entries[0][1] == (a1 - a2) * (b2 - a1)
    assert c2.entries[1][0] == 1
    assert c2.entries[1][1] == a1


def test_parametric_c4_display():
    # the displayed parametric matrix of the explicit family at x = 1/2
    x = Fraction(1, 2)
    lam = t31_lambda(x)
    c4 = build_C(lam, 4)
    den = 9 * (4 - 3 * x)
    assert c4.entries[0][0] == Fraction(28 - 30 * x, 1) / den
    assert c4.entries[0][1] == 4 * x * (1 - x) / (3 * (4 - 3 * x))
    assert c4.entries[1][1] == x
    assert c4.entries[1][2] == 2 * (8 - 9 * x) / (27 * (4 - 3 * x))
    assert c4.entries[2][2] == (27 * x * x - 75 * x + 40) / den
    assert c4.entries[2][3] == (3 * x - 1) * (27 * x * x - 66 * x + 28) / (27 * (4 - 3 * x))
    assert c4.entries[3][3] == x


def test_abc_n1():
    lam = LambdaTuple(Fraction(5))
    a, b = abc_coefficients(lam, 1)
    assert a == [Fraction(5)] and b == []


@pytest.mark.parametrize(
    "values",
    [
        (Fraction(0), None, Fraction(1), Fraction(2)),
        (0, 1, -1, None, 3),
        (None,),
        (None, 1, -1),
    ],
)
def test_lambda_tuple_rejects_a_value_after_a_missing_one(values):
    # a gap made abc_coefficients and region() fail later with a TypeError
    with pytest.raises(ValueError, match=r"^give alpha1 and the values after it in the order"):
        LambdaTuple(*values)


def test_abc_not_in_B():
    # alpha1 outside the (alpha2, beta2) interval makes b2 negative
    lam = LambdaTuple(Fraction(5), Fraction(1), Fraction(-1), Fraction(2), Fraction(3))
    with pytest.raises(NotInB):
        abc_coefficients(lam, 4)


def test_abc_degenerate_sum():
    lam = LambdaTuple(Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-2))
    with pytest.raises(DegenerateSum):
        abc_coefficients(lam, 4)


@pytest.mark.parametrize(
    "lam, n, message",
    [
        # every value a float in range, but (beta2 - alpha1)(alpha1 - alpha2) is not
        (LambdaTuple(0.0, 1e300, -1e300, 2e300), 3, "b_2 overflows a float: b_2 > 1.79769e+308"),
        (LambdaTuple(Fraction(0), Fraction(10**300), Fraction(-(10**300)), Fraction(2 * 10**300)), 3,
         "b_2 overflows a float: b_2 > 1.79769e+308"),
        (LambdaTuple(float("-inf")), 1, "a_1 overflows a float: a_1 < -1.79769e+308"),
        (LambdaTuple(Fraction(10**400)), 1, "a_1 overflows a float: a_1 > 1.79769e+308"),
    ],
)
def test_abc_beyond_the_float_range(lam, n, message):
    with pytest.raises(ValueError) as info:
        build_C(lam, n)
    assert str(info.value) == message


@pytest.mark.parametrize("sign", [1, -1])
def test_abc_at_the_float_range_boundary(sign):
    # the largest float is an integer: exactly it is in range, half above is not
    top = Fraction(int(sys.float_info.max))
    a, _ = abc_coefficients(LambdaTuple(sign * top), 1)
    assert a == [sign * top]
    for edge in (sign * int(sys.float_info.max), sign * sys.float_info.max):
        assert abc_coefficients(LambdaTuple(edge), 1)[0] == [edge]
    cmp = ">" if sign > 0 else "<"
    with pytest.raises(ValueError) as info:
        abc_coefficients(LambdaTuple(sign * (top + Fraction(1, 2))), 1)
    assert str(info.value) == f"a_1 overflows a float: a_1 {cmp} {sign * sys.float_info.max:.6g}"


def test_level_spectra_contain_distinguished(rng):
    for reg in (1, 5, 8):
        lam = sample_in_region(reg, rng)
        specs = trailing_spectra(*abc_coefficients(lam, 7))
        width = specs[-1][-1] - specs[-1][0]
        member = lambda x, s: np.min(np.abs(s - float(x))) < 1e-8 * width
        assert member(lam.alpha1, specs[0]) and len(specs[0]) == 1
        vals = [lam.alpha1, lam.alpha2, lam.beta2, lam.beta3, lam.beta4]
        for i in range(2, 8):
            inter = [v for v in vals if member(v, specs[i - 1])]
            assert set(map(float, inter)) == {float(lam.alpha(i)), float(lam.beta(i))}


def test_step_lemma_on_concrete_family():
    # the worked 3-level example: spec(C_2) = {1,5}, spec(C_3) = {0,3,11}
    bad = step_lemma_checks_raw([2.0, 4.0, 8.0], [3.0, 20.0])
    assert bad == []


def test_step_lemma_random_tuples(rng):
    for _ in range(20):
        reg = int(rng.integers(1, 13))
        lam = sample_in_region(reg, rng)
        assert step_lemma_checks(lam, 9) == []


def test_char_poly_recursion_vs_bareiss(rng):
    # char_poly_exact is Bareiss elimination alone, so this is a real oracle
    for low, high in ((2, 6), (7, 9)):
        for _ in range(10):
            reg = int(rng.integers(1, 13))
            lam = sample_in_region(reg, rng, exact=True)
            n = int(rng.integers(low, high + 1))
            ps = char_polys(lam, n)
            c = build_C(lam, n)
            oracle = char_poly_exact(c.entries)
            assert ps[n] == oracle


def test_remainder_poly_linear_root():
    lam = LambdaTuple(Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(3))
    r3 = remainder_poly(lam, 3)
    assert r3.degree == 1
    delta1 = lam.alpha2 + lam.beta2 - lam.beta3
    assert r3(delta1) == 0
    assert delta1 == Fraction(-2)


def test_remainder_poly_t31_pinned_roots():
    for x in (Fraction(2, 5), Fraction(1, 2), Fraction(17, 45)):
        lam = t31_lambda(x)
        assert remainder_poly(lam, 4) == PolyQ.of(0, -1, 1)


def test_trace_and_nonlinear_identities(rng):
    for _ in range(20):
        reg = int(rng.integers(1, 13))
        lam = sample_in_region(reg, rng, exact=True)
        r4 = remainder_poly(lam, 4)
        delta1 = lam.alpha2 + lam.beta2 - lam.beta3
        sum_d23 = -r4.coeffs[1]
        assert lam.alpha2 + lam.beta2 == lam.beta3 + delta1
        assert lam.alpha1 + lam.beta3 + delta1 == lam.beta4 + sum_d23
        lhs = (lam.beta2 - lam.beta4) * r4(lam.beta2)
        rhs = (
            (lam.beta2 - lam.alpha1)
            * (lam.beta2 - lam.beta3)
            * (lam.beta2 - delta1)
        )
        assert lhs == rhs


def _b_values_raw(vals, n):
    a1, a2, b2, b3, b4 = vals
    alphas = lambda i: a1 if i % 2 == 1 else a2
    betas = lambda i: (b2, b3, b4)[(i - 2) % 3]
    bs = []
    for i in range(2, n + 1):
        if i == 2:
            bs.append((b2 - a1) * (a1 - a2))
        elif i == 3:
            bs.append((b3 - a2) * (b3 - b2))
        elif i == 4:
            bs.append((b4 - a1) * (b3 - b4) * (a2 + b2 - b3 - b4) / (b4 - b2))
        else:
            bs.append((betas(i) - a1) * (betas(i) - a2))
    return bs


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=5, max_size=5, unique=True))
def test_positivity_iff_region(vals):
    vals = tuple(Fraction(v) for v in vals)
    a1, a2, b2, b3, b4 = vals
    if a2 + b2 == b3 + b4:
        return  # the quotient in b4 is undefined on this seam
    for n in (4, 7):
        positive = all(b > 0 for b in _b_values_raw(vals, n))
        inside = region_of(vals) is not None
        assert positive == inside


def test_in_B3():
    assert in_B3(LambdaTuple(Fraction(2), Fraction(5), Fraction(1), Fraction(-2)))
    assert not in_B3(LambdaTuple(Fraction(5), Fraction(1), Fraction(-1), Fraction(2)))


def test_level_coefficients_invert_path_weight(rng):
    for n in range(1, 8):
        for exact in (True, False):
            if exact:
                a = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5))) for _ in range(n)]
                b = [Fraction(int(rng.integers(1, 10)), int(rng.integers(1, 5))) for _ in range(n - 1)]
            else:
                a = rng.uniform(-3, 3, size=n).tolist()
                b = rng.uniform(0.1, 3, size=n - 1).tolist()
            w = path_weight(a, b)
            assert w.tree == RootedTree(tuple(range(n)))
            assert level_coefficients(w) == (a, b)
            # the same levels under any labels
            t, new = relabel(w.tree, rng)
            moved = move_weight(w, t, new)
            assert level_coefficients(moved) == (a, b)


def test_path_weights_of_one_length_share_the_tree_only():
    w1 = path_weight([Fraction(1), Fraction(2), Fraction(3)], [Fraction(4), Fraction(5)])
    w2 = path_weight([0.5, 1.5, 2.5], [3.5, 4.5])
    assert w1.tree is w2.tree
    assert w1.vertex_weight is not w2.vertex_weight and w1.edge_weight is not w2.edge_weight
    assert level_coefficients(w1) == ([1, 2, 3], [4, 5])
    assert level_coefficients(w2) == ([0.5, 1.5, 2.5], [3.5, 4.5])
    assert path_weight([1.0, 2.0], [3.0]).tree is not w1.tree


def test_level_coefficients_needs_a_path():
    star = RootedTree((0, 1, 1))
    w = WeightFn(star, {1: 0.0, 2: 1.0, 3: 2.0}, {(1, 2): 1.0, (1, 3): 1.0})
    with pytest.raises(ValueError):
        level_coefficients(w)


def test_build_C_is_the_path_weight_of_the_coefficients():
    lam = LambdaTuple(Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(3))
    a, b = abc_coefficients(lam, 6)
    c = build_C(lam, 6)
    assert c.diagonal == tuple(reversed(a))
    assert c.upper == tuple(reversed(b))
    assert level_coefficients(c.weight()) == (a, b)


def _branch_sampler(region, rng, exact=False):
    """The sampler as six hand-written branches, kept as the reference for
    the chart-driven one."""
    if region > 6:
        return _branch_sampler(region - 6, rng, exact).negated()
    if exact:
        raw = sorted(int(x) for x in rng.choice(np.arange(-60, 61), size=5, replace=False))
        den = 3 * int(rng.integers(1, 5))
        vals = [Fraction(x, den) for x in raw]
    else:
        vals = sorted(rng.uniform(-3.0, 3.0, size=5).tolist())
    v1, v2, v3, v4, v5 = vals
    if region == 1:
        return LambdaTuple(v2, v3, v1, v4, v5)
    if region == 2:
        return LambdaTuple(v3, v4, v1, v5, v2)
    if region == 3:
        return LambdaTuple(v2, v3, v1, v4, v3 + v1 - v5)
    if region == 4:
        return LambdaTuple(v4, v5, v3, v2, v5 + v3 - v1)
    if region == 5:
        return LambdaTuple(v4, v5, v2, v1, v3)
    return LambdaTuple(v4, v5, v3, v2, v1)


def test_sample_in_region_matches_the_branch_reference():
    for seed in range(200):
        for region in range(1, 7):
            for exact in (False, True):
                got = sample_in_region(region, np.random.default_rng(seed), exact)
                want = _branch_sampler(region, np.random.default_rng(seed), exact)
                assert got.values() == want.values()
                assert [type(x) for x in got.values()] == [type(x) for x in want.values()]
