import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedge_iep.covers import M_formula, Mhat_formula
from hedge_iep.lambdas import (
    LambdaTuple,
    abc_coefficients,
    build_C,
    path_weight,
    sample_in_region,
)
from hedge_iep.numeric import cluster_multiplicities, eigenvalues_sym
from hedge_iep.pth import (
    _critical_assignments,
    BadShape,
    HeightMismatch,
    HeightTooSmall,
    NotFromConstruction,
    WrongArity,
    critical_check,
    critical_thresholds,
    forced_fifth_eigenvalue,
    gap_vector,
    ph_construct,
    ph_spectrum,
    recognize,
    recognize_search,
    splitting_counterexample,
    t31_constraints_check,
    t31_exact_spectrum,
    t31_lambda,
    zero_one_counterexample_check,
)
from hedge_iep.lambdas import NotInB3
from hedge_iep.spectra import MultiplicityList, SingleEigenvalue, SpectrumMultiset
from hedge_iep.tolerance import SPECTRUM_TOL, WEIGHT_TOL
from hedge_iep.trees import (
    HedgeProfile,
    RootedTree,
    build_hedge,
    profile,
    smallest_lush_hedge,
    ten_vertex_hedge,
)
from hedge_iep.weights import DuplicationSplit, WeightFn, spectrum_of, symmetric_representative

from conftest import expanded, move_weight, random_lush_hedge, random_splits, relabel


def c3_weight() -> WeightFn:
    p3 = RootedTree((0, 1, 2))
    return WeightFn(
        p3,
        {1: Fraction(8), 2: Fraction(4), 3: Fraction(2)},
        {(1, 2): Fraction(20), (2, 3): Fraction(3)},
    )


def c3_prime_weight() -> WeightFn:
    p3 = RootedTree((0, 1, 2))
    return WeightFn(
        p3,
        {1: Fraction(2), 2: Fraction(4), 3: Fraction(2)},
        {(1, 2): Fraction(20), (2, 3): Fraction(3)},
    )


# ---------------------------------------------------------------------------
# forward construction


def test_ph_construct_structure(hedge10):
    w = ph_construct(c3_weight(), hedge10)
    hm = hedge10.height_map
    for v in hedge10.vertices:
        assert w.v(v) == {2: Fraction(8), 1: Fraction(4), 0: Fraction(2)}[hm[v]]
    for v in hedge10.vertices:
        kids = hedge10.children[v]
        if not kids:
            continue
        total = sum(w.e(v, u) for u in kids)
        assert total == {2: Fraction(20), 1: Fraction(3)}[hm[v]]


def test_ph_construct_on_path_is_identity():
    w = ph_construct(c3_weight(), RootedTree((0, 1, 2)))
    assert w == c3_weight()


def test_ph_construct_prime_variant(hedge10):
    w = ph_construct(c3_prime_weight(), hedge10)
    assert w.v(1) == Fraction(2)  # the root diagonal moves to 2


def test_ph_construct_errors(hedge10):
    with pytest.raises(HeightMismatch):
        ph_construct(c3_weight(), smallest_lush_hedge(3))
    # the spectrum formula needs the same number of levels
    for t in (smallest_lush_hedge(3), RootedTree((0, 1))):
        with pytest.raises(HeightMismatch, match="path has 3 vertices"):
            ph_spectrum(c3_weight(), profile(t))
    from hedge_iep.pth import BadSplit

    with pytest.raises(BadSplit):
        ph_construct(c3_weight(), hedge10, {1: (0.5, 0.5)})  # root has 3 children
    # DuplicationSplit's own checks raise the same BadSplit
    third, half = Fraction(1, 3), Fraction(1, 2)
    for bad, msg in (((Fraction(3, 2), -half), "strictly positive"), ((half, 0.4), "sum to 1")):
        splits = {1: (third,) * 3, 2: bad, 4: (half, half), 6: (half, half)}
        with pytest.raises(BadSplit, match=msg):
            ph_construct(c3_weight(), hedge10, splits)


def test_ph_construct_reads_any_path_labels(hedge10):
    # the path 1-3-2 (vertex 2 the leaf) is C_3 of Table 1 under new labels
    relabelled = WeightFn(
        RootedTree((0, 3, 1)),
        {1: Fraction(8), 3: Fraction(4), 2: Fraction(2)},
        {(1, 3): Fraction(20), (2, 3): Fraction(3)},
    )
    assert ph_construct(relabelled, hedge10) == ph_construct(c3_weight(), hedge10)
    assert ph_spectrum(relabelled, profile(hedge10)) == ph_spectrum(c3_weight(), profile(hedge10))


def _mixed_lush_hedge(rng, height: int) -> RootedTree:
    """A lush hedge of the given height with mixed arities: 3 or 4 children
    above height 1, 2 or 3 leaves below, under a random relabelling."""
    parent, level = [0], [1]
    for h in range(height, 0, -1):
        base = 3 if h >= 2 else 2
        nxt = []
        for v in level:
            for _ in range(base + int(rng.integers(0, 2))):
                parent.append(v)
                nxt.append(len(parent))
        level = nxt
    return relabel(build_hedge(parent), rng)[0]


def _feasible_lam(rng, n: int, exact: bool) -> LambdaTuple:
    """A random tuple, exact or rounded to floats, that admits n levels
    (the exact grid can hit a degenerate sum)."""
    while True:
        lam = sample_in_region(int(rng.integers(1, 13)), rng, exact=True)
        if not exact:
            lam = LambdaTuple(*[float(v) for v in lam.values()])
        try:
            abc_coefficients(lam, n)
            return lam
        except ValueError:
            continue


def test_uniform_splits_match_one_split_per_vertex(rng):
    for height in (2, 3, 4, 5):
        for exact in (True, False):
            t = _mixed_lush_hedge(rng, height)
            lam = _feasible_lam(rng, height + 1, exact)
            c = build_C(lam, height + 1)
            per_vertex = {
                v: DuplicationSplit.uniform(len(t.children[v]), exact=exact)
                for v in t.vertices if t.children[v]
            }
            got, want = ph_construct(c, t), ph_construct(c, t, per_vertex)
            for table, ref in ((got.vertex_weight, want.vertex_weight), (got.edge_weight, want.edge_weight)):
                assert table.keys() == ref.keys()
                for key, x in table.items():
                    assert type(x) is type(ref[key]) is (Fraction if exact else float)
                    assert (x == ref[key]) if exact else (x.hex() == ref[key].hex())


def test_uniform_splits_are_built_once_per_height_and_arity(monkeypatch):
    t = smallest_lush_hedge(8)
    hm = t.height_map
    kinds = {(hm[v], len(t.children[v])) for v in t.vertices if t.children[v]}
    calls = []
    uniform = DuplicationSplit.uniform.__func__

    def counting(cls, parts, exact=True):
        calls.append(parts)
        return uniform(cls, parts, exact)

    monkeypatch.setattr(DuplicationSplit, "uniform", classmethod(counting))
    lam = LambdaTuple(Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(3))
    w = ph_construct(build_C(lam, 9), t)
    assert w.is_exact() and t.n == 7654
    assert len(calls) <= len(kinds) == 8


def test_ph_construct_checks_the_recipe_on_the_values_it_writes(rng, monkeypatch, hedge10):
    def read_back(w):
        raise AssertionError("ph_construct read its member back through _levels")

    monkeypatch.setattr("hedge_iep.pth._levels", read_back)
    for exact in (True, False):
        t = _mixed_lush_hedge(rng, 3)
        c = build_C(_feasible_lam(rng, 4, exact), 4)
        ph_construct(c, t)
        ph_construct(c, t, random_splits(t, rng))
    p3 = RootedTree((0, 1, 2))
    nan_vertex = WeightFn(p3, {1: 8.0, 2: math.nan, 3: 2.0}, {(1, 2): 20.0, (2, 3): 3.0})
    inf_edge = WeightFn(p3, {1: 8.0, 2: 4.0, 3: 2.0}, {(1, 2): math.inf, (2, 3): 3.0})
    for c, detail in (
        (nan_vertex, "vertex 2: weight nan != a"),
        (inf_edge, "vertex 1: child edges sum beyond the float range"),
    ):
        with pytest.raises(AssertionError) as info:
            ph_construct(c, hedge10)
        assert str(info.value) == f"not a member of the family: {detail}"


def test_ph_spectrum_of_a_path_rooted_at_vertex_two():
    # root 2 carries a_2 = 7, leaf 1 carries a_1 = 5: on the star the root
    # gets 7 and the leaves 5, so the spectrum is {4, 5, 8}
    w = WeightFn(RootedTree((2, 0)), {1: Fraction(5), 2: Fraction(7)}, {(1, 2): Fraction(3)})
    star = RootedTree((0, 1, 1))
    member = ph_construct(w, star)
    assert member.vertex_weight == {1: 7, 2: 5, 3: 5}
    spec = ph_spectrum(w, profile(star))
    assert np.allclose(expanded(spec), [4, 5, 8], atol=1e-12)
    direct = eigenvalues_sym(symmetric_representative(member).to_numpy())
    assert np.allclose(direct, [4, 5, 8], atol=1e-12)


def test_relabelled_paths_give_the_same_member_and_spectrum(rng):
    for exact in (True, False):
        for _ in range(8):
            lam = sample_in_region(int(rng.integers(1, 13)), rng, exact=exact)
            t = random_lush_hedge(rng, max_n=40)
            pw = path_weight(*abc_coefficients(lam, t.height + 1))
            while True:
                p, new = relabel(pw.tree, rng)
                if p.root != 1:
                    break
            moved = move_weight(pw, p, new)
            splits = random_splits(t, rng)
            assert ph_construct(moved, t) == ph_construct(pw, t)
            assert ph_construct(moved, t, splits) == ph_construct(pw, t, splits)
            assert ph_spectrum(moved, profile(t)) == ph_spectrum(pw, profile(t))


def test_ph_spectrum_table1(hedge10):
    spec = ph_spectrum(c3_weight(), profile(hedge10))
    vals = expanded(spec)
    want = [0, 1, 1, 2, 2, 2, 3, 5, 5, 11]
    assert np.allclose(vals, want, atol=1e-8)


def test_ph_spectrum_table2(hedge10):
    spec = ph_spectrum(c3_prime_weight(), profile(hedge10))
    s6 = 2 * math.sqrt(6)
    want = sorted([3 - s6, 1, 1, 2, 2, 2, 2, 5, 5, 3 + s6])
    assert np.allclose(expanded(spec), want, atol=1e-8)
    assert spec.ordered_multiplicities() == (1, 2, 4, 2, 1)


def test_ph_spectrum_path_profile():
    prof = profile(RootedTree((0, 1, 2)))
    spec = ph_spectrum(c3_weight(), prof)
    assert np.allclose(expanded(spec), [0, 3, 11], atol=1e-9)


def test_ph_spectrum_matches_eigendecomposition(rng):
    for _ in range(25):
        reg = int(rng.integers(1, 13))
        lam = sample_in_region(reg, rng)
        t = random_lush_hedge(rng, max_n=60)
        c = build_C(
            LambdaTuple(*[float(v) for v in lam.values()]), t.height + 1
        )
        w = ph_construct(c, t, random_splits(t, rng))
        spec = ph_spectrum(c, profile(t))
        direct = eigenvalues_sym(symmetric_representative(w).to_numpy())
        got = expanded(spec)
        width = max(1.0, got[-1] - got[0])
        assert np.max(np.abs(got - direct)) <= 1e-8 * width


# ---------------------------------------------------------------------------
# critical lists


def test_critical_check_t31(t31):
    m = MultiplicityList((11, 7, 6, 2, 2, 1, 1, 1))
    wit = critical_check(t31, m)
    assert wit is not None
    assert wit.multiplicities == (11, 7, 6, 2, 1)
    assert wit.thresholds == (11, 7, 6, 2, 1)


def test_critical_check_hedge10_placeholder(hedge10):
    m = MultiplicityList((1, 2, 4, 2, 1))
    wit = critical_check(hedge10, m)
    assert wit is not None
    assert wit.indices[4] is None and wit.multiplicities[4] == 0


def test_critical_check_prefers_an_explicit_zero(hedge10):
    # at height 2 the last threshold is 0 and ell_3 = 1: an explicit zero
    # entry qualifies as the fifth and comes before the placeholder
    wit = critical_check(hedge10, MultiplicityList((1, 2, 4, 2, 1, 0)))
    assert wit.indices[4] == 5 and wit.multiplicities[4] == 0


def test_generic_multiplicities_are_the_cover_formulas(rng):
    # the level model of lambdas against the cover formulas M, Mhat
    for _ in range(2000):
        height = int(rng.integers(0, 12))
        ell = tuple(int(x) for x in rng.integers(1, 50, size=height)) + (1,)
        sizes = [1]
        for li in reversed(ell[:-1]):
            sizes.insert(0, sizes[0] + li)
        prof = HedgeProfile(height, tuple(sizes), ell)
        assert critical_thresholds(prof) == (
            M_formula(prof, 0),
            M_formula(prof, 1),
            Mhat_formula(prof, 1),
            Mhat_formula(prof, 2),
            Mhat_formula(prof, 3),
        )


def test_critical_check_split_list_still_critical(t31):
    m = MultiplicityList((11, 7, 6, 2, 1, 1, 1, 1, 1))
    assert critical_check(t31, m) is not None


def test_critical_check_rejects_low_lists(t31):
    assert critical_check(t31, MultiplicityList((5, 4, 3, 2, 1))) is None


def test_equality_in_first_two_thresholds(rng, hedge10, t31):
    # constructed lists meet the first two critical thresholds exactly
    for t in (hedge10, t31):
        prof = profile(t)
        lam = sample_in_region(1, rng)
        c = build_C(LambdaTuple(*[float(v) for v in lam.values()]), t.height + 1)
        spec = ph_spectrum(c, prof)
        thr = critical_thresholds(prof)
        mults = sorted(spec.ordered_multiplicities(), reverse=True)
        assert mults[0] == thr[0]
        assert mults[1] == thr[1]


# ---------------------------------------------------------------------------
# recognizer


def test_recognize_round_trip_float(rng):
    for _ in range(15):
        reg = int(rng.integers(1, 13))
        lam0 = sample_in_region(reg, rng)
        t = random_lush_hedge(rng)
        lam = LambdaTuple(*[float(v) for v in lam0.values()])
        c = build_C(lam, t.height + 1)
        w = ph_construct(c, t, random_splits(t, rng))
        res = recognize(w, lam)
        cw = c.weight()
        pw = res.path_weight
        for i in pw.tree.vertices:
            assert abs(float(pw.v(i)) - float(cw.v(i))) < 1e-9
        for u, v in pw.tree.edges:
            assert abs(float(pw.e(u, v)) - float(cw.e(u, v))) < 1e-9


def test_recognize_search_recovers_construction(rng):
    for _ in range(10):
        reg = int(rng.integers(1, 13))
        lam0 = sample_in_region(reg, rng)
        t = random_lush_hedge(rng)
        lam = LambdaTuple(*[float(v) for v in lam0.values()])
        c = build_C(lam, t.height + 1)
        w = ph_construct(c, t, random_splits(t, rng))
        res = recognize_search(w)
        # alpha1 is always pinned by the top multiplicity; at height 2 the
        # pair (alpha2, beta2) is recovered as a set (the level-2 data is
        # symmetric in them), from height 3 on they separate
        assert abs(res.lam.alpha1 - lam.alpha1) < 1e-9
        got_pair = sorted((res.lam.alpha2, res.lam.beta2))
        want_pair = sorted((lam.alpha2, lam.beta2))
        assert max(abs(a - b) for a, b in zip(got_pair, want_pair)) < 1e-9
        if t.height >= 3:
            assert abs(res.lam.alpha2 - lam.alpha2) < 1e-9
            assert abs(res.lam.beta2 - lam.beta2) < 1e-9
        got = res.target.weight()
        want = c.weight()
        for i in want.tree.vertices:
            assert abs(float(got.v(i)) - float(want.v(i))) < 1e-9
        for u, v in want.tree.edges:
            assert abs(float(got.e(u, v)) - float(want.e(u, v))) < 1e-9


# (values, parents) of near-coincident assignments; None builds smallest_lush_hedge(3)
NEAR_COINCIDENT = [
    # beta2 and beta4 lie 4e-5 apart in a spectrum about 1e3 wide; a
    # cluster gap of 1e-7 of the width merges them
    (
        (0.002020835158913492, 1.7046822355696492, -2.757355753477057,
         2.363338781372388, -2.7573164661183522),
        None,
    ),
    # alpha2 and beta3 nearly coincide; the b_i rebuilt from the
    # clustered eigenvalues carry about 1e-12 relative error
    (
        (1.9269621260654723, 2.1410431433299006, -2.5095255158963683,
         2.1602418280926425, 1.8794699523692895),
        (0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 6, 6, 6,
         7, 7, 8, 8, 8, 9, 9, 10, 10, 10, 11, 11, 11, 12, 12, 13, 13, 14,
         14, 14, 15, 15, 16, 16, 17, 17, 17, 18, 18, 18, 19, 19),
    ),
]


@pytest.mark.parametrize("values, parents", NEAR_COINCIDENT)
def test_recognize_search_near_coincident_values(values, parents):
    t = smallest_lush_hedge(3) if parents is None else build_hedge(parents)
    lam = LambdaTuple(*values)
    c = build_C(lam, t.height + 1)
    res = recognize_search(ph_construct(c, t))
    assert abs(res.lam.alpha1 - lam.alpha1) < 1e-9
    assert abs(res.lam.alpha2 - lam.alpha2) < 1e-9
    assert abs(res.lam.beta2 - lam.beta2) < 1e-9
    got = res.target.weight()
    want = c.weight()
    for i in want.tree.vertices:
        assert abs(float(got.v(i)) - float(want.v(i))) < 1e-9
    for u, v in want.tree.edges:
        assert abs(float(got.e(u, v)) - float(want.e(u, v))) < 1e-9


def test_recognize_exact_rational(t31):
    lam = LambdaTuple(Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(3))
    c = build_C(lam, 4)
    w = ph_construct(c, t31)
    res = recognize(w, lam)
    assert res.path_weight == c.weight()
    assert res.region == 1


def test_recognize_target_is_build_C(rng):
    for height in (2, 3, 4):
        t = _mixed_lush_hedge(rng, height)
        for exact in (True, False):
            lam = _feasible_lam(rng, height + 1, exact)
            c = build_C(lam, height + 1)
            got = recognize(ph_construct(c, t), lam).target
            assert got.tree == c.tree
            for row, ref in zip(got.entries, c.entries):
                assert list(map(type, row)) == list(map(type, ref)) and row == ref


def test_recognize_concrete_height2(hedge10):
    # the worked height-2 coincidence construction: diagonal (2,4,2),
    # edges (20,3); designated values (2, 5, 1, 3 - 2*sqrt(6))
    w = ph_construct(c3_prime_weight(), hedge10).as_float()
    lam = LambdaTuple(2.0, 5.0, 1.0, 3 - 2 * math.sqrt(6))
    res = recognize(w, lam)
    pw = res.path_weight
    assert np.allclose([pw.v(1), pw.v(2), pw.v(3)], [2, 4, 2])
    assert np.allclose([pw.e(1, 2), pw.e(2, 3)], [20, 3])
    # the search wrapper finds it from the spectrum alone
    res2 = recognize_search(w)
    assert np.allclose(
        [res2.path_weight.v(i) for i in (1, 2, 3)], [2, 4, 2], atol=1e-8
    )


def test_recognize_rejects_perturbation(rng):
    # a root-incident edge weight only shifts the free top-level eigenvalues
    # (the construction reabsorbs it), so the perturbation targets an edge
    # pinned by the cross-chain equality constraints
    lam0 = sample_in_region(1, rng)
    t = smallest_lush_hedge(3)
    lam = LambdaTuple(*[float(v) for v in lam0.values()])
    c = build_C(lam, 4)
    w = ph_construct(c, t, random_splits(t, rng))
    edges = sorted(e for e in w.edge_weight if t.root not in e)
    for _ in range(5):
        e = edges[int(rng.integers(0, len(edges)))]
        ew = dict(w.edge_weight)
        ew[e] = ew[e] * 1.01
        bad = WeightFn(w.tree, dict(w.vertex_weight), ew)
        with pytest.raises(NotFromConstruction):
            recognize_search(bad)


def test_recognize_accepts_root_edge_perturbation(rng):
    # moving one root edge weight moves the matrix to a neighbouring member
    # of the family (the free eigenvalue absorbs the change), which the
    # cascade correctly accepts with an adjusted tuple
    lam = LambdaTuple(0.0, 1.0, -1.0, 2.0, 3.0)
    t = smallest_lush_hedge(3)
    c = build_C(lam, 4)
    w = ph_construct(c, t)
    e = next(e for e in sorted(w.edge_weight) if t.root in e)
    ew = dict(w.edge_weight)
    ew[e] = ew[e] * 1.01
    moved = WeightFn(w.tree, dict(w.vertex_weight), ew)
    res = recognize_search(moved)
    assert abs(res.lam.alpha1 - lam.alpha1) < 1e-9


def test_recognize_rejects_wrong_assignment(rng, t31):
    lam0 = sample_in_region(1, rng)
    lam = LambdaTuple(*[float(v) for v in lam0.values()])
    c = build_C(lam, 4)
    w = ph_construct(c, t31, random_splits(t31, rng))
    swapped = LambdaTuple(lam.alpha2, lam.alpha1, lam.beta2, lam.beta3, lam.beta4)
    with pytest.raises(NotFromConstruction):
        recognize(w, swapped)


@pytest.mark.parametrize("base", [ten_vertex_hedge(), smallest_lush_hedge(3)], ids=["h10", "t31"])
def test_recognize_accepts_relabelled_hedges(base, rng):
    # membership does not depend on the labels: the image of a family member
    # under a relabelling is accepted, with the path weight of the original
    lam = LambdaTuple(Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(3))
    flam = LambdaTuple(*[float(v) for v in lam.values()])
    c, fc = build_C(lam, base.height + 1), build_C(flam, base.height + 1)
    # (member, its assignment, whether child-edge sums are order-free)
    members = [
        (ph_construct(c, base), lam, True),
        (ph_construct(fc, base), flam, True),
        (ph_construct(fc, base, random_splits(base, rng)), flam, False),
    ]
    for w, lam_w, order_free in members:
        want = recognize(w, lam_w).path_weight
        want_lam = recognize_search(w).lam.values()
        for _ in range(10):
            t, new = relabel(base, rng)
            moved = move_weight(w, t, new)
            if lam_w is lam:
                assert moved == ph_construct(c, t)
            found = recognize_search(moved)
            assert max(abs(x - y) for x, y in zip(found.lam.values(), want_lam)) < 1e-9
            for got in (recognize(moved, lam_w).path_weight, found.path_weight):
                if order_free:
                    assert got == want
                else:
                    assert got.tree == want.tree
                    assert all(abs(got.v(i) - want.v(i)) < 1e-12 for i in want.tree.vertices)
                    assert all(abs(got.e(*e) - want.e(*e)) < 1e-12 for e in want.tree.edges)


def test_recognize_reads_siblings_against_the_recipe(hedge10):
    # two sibling leaves each within WEIGHT_TOL of a_1 are accepted even when
    # they lie further apart than WEIGHT_TOL; beyond it they are rejected
    lam = LambdaTuple(0.0, 1.0, -1.0, 2.0, 3.0)
    w = ph_construct(build_C(lam, 3), hedge10)
    z = next(v for v in hedge10.vertices if hedge10.height_map[v] == 1)
    u1, u2 = hedge10.children[z][:2]
    for k, accepted in ((0.8, True), (1.2, False)):
        vw = dict(w.vertex_weight)
        vw[u1] += k * WEIGHT_TOL
        vw[u2] -= k * WEIGHT_TOL
        moved = WeightFn(hedge10, vw, dict(w.edge_weight))
        if accepted:
            assert recognize(moved, lam).lam == lam
        else:
            with pytest.raises(NotFromConstruction) as info:
                recognize(moved, lam)
            assert info.value.step == 1


def dense_search(w: WeightFn):
    """The oracle for recognize_search: candidates from one dense
    eigendecomposition of the whole weight, then the same loop; None when
    no candidate is accepted."""
    prof = profile(w.tree)
    spec = cluster_multiplicities(spectrum_of(w), SPECTRUM_TOL)
    vals = spec.values
    for idx in _critical_assignments(
        spec.ordered_multiplicities(), critical_thresholds(prof), prof.ell_at(3)
    ):
        try:
            return recognize(w, LambdaTuple(*(vals[i] for i in idx if i is not None)))
        except NotFromConstruction:
            continue
    return None


def agrees_with_dense_search(w: WeightFn):
    """recognize_search's answer, asserted equal to the oracle's: the same
    accept or reject and an assignment within 1e-9."""
    want = dense_search(w)
    try:
        got = recognize_search(w)
    except NotFromConstruction:
        got = None
    assert (got is None) == (want is None)
    if got is not None:
        assert max(abs(x - y) for x, y in zip(got.lam.values(), want.lam.values())) < 1e-9
    return got


def _float_member(rng, t: RootedTree) -> WeightFn:
    lam0 = sample_in_region(int(rng.integers(1, 13)), rng)
    lam = LambdaTuple(*[float(v) for v in lam0.values()])
    return ph_construct(build_C(lam, t.height + 1), t, random_splits(t, rng))


def test_search_matches_the_dense_oracle_on_members(rng):
    for k in range(20):
        t = smallest_lush_hedge(4) if k % 5 == 0 else random_lush_hedge(rng)
        w = _float_member(rng, t)
        assert agrees_with_dense_search(w) is not None
        moved_t, new = relabel(t, rng)
        assert agrees_with_dense_search(move_weight(w, moved_t, new)) is not None


@pytest.mark.parametrize("values, parents", NEAR_COINCIDENT)
def test_search_matches_the_dense_oracle_near_coincidences(values, parents):
    t = smallest_lush_hedge(3) if parents is None else build_hedge(parents)
    w = ph_construct(build_C(LambdaTuple(*values), t.height + 1), t)
    assert agrees_with_dense_search(w) is not None


def test_search_matches_the_dense_oracle_on_perturbations(rng):
    # a root edge moves the weight to a neighbouring member; a 1 % change of
    # any other edge leaves the family
    for _ in range(10):
        t = random_lush_hedge(rng)
        w = _float_member(rng, t)
        root_edges = sorted(e for e in w.edge_weight if t.root in e)
        pinned = sorted(e for e in w.edge_weight if t.root not in e)
        for edges, accepted in ((root_edges, True), (pinned, False)):
            ew = dict(w.edge_weight)
            e = edges[int(rng.integers(0, len(edges)))]
            ew[e] *= 1.01
            got = agrees_with_dense_search(WeightFn(t, dict(w.vertex_weight), ew))
            assert (got is not None) == accepted


def test_search_rejects_a_vertex_off_the_chain_with_its_step(rng):
    t = smallest_lush_hedge(3)
    w = _float_member(rng, t)
    v = next(v for v in t.vertices if t.height_map[v] == 2 and t.children[t.parent[v - 1]][0] != v)
    vw = dict(w.vertex_weight)
    vw[v] += 3 * WEIGHT_TOL
    with pytest.raises(NotFromConstruction) as info:
        recognize_search(WeightFn(t, vw, dict(w.edge_weight)))
    assert info.value.step == 3 and info.value.detail.startswith(f"vertex {v}: weight")


def test_search_rejects_exact_level_sums_beyond_the_float_range():
    t = smallest_lush_hedge(2)
    w = WeightFn(t, dict.fromkeys(t.vertices, Fraction(0)), dict.fromkeys(t.edges, Fraction(10**308)))
    with pytest.raises(NotFromConstruction) as info:
        recognize_search(w)
    assert info.value.step == "search" and "beyond the float range" in info.value.detail


def test_search_names_child_edge_sums_beyond_the_float_range():
    # each edge is in range; the root's three sum to inf, which no b is close to
    t = ten_vertex_hedge()
    w = WeightFn(t, dict.fromkeys(t.vertices, 0.0), dict.fromkeys(t.edges, 1e308))
    with pytest.raises(NotFromConstruction) as info:
        recognize_search(w)
    assert info.value.step == 3
    assert info.value.detail == (
        "vertex 1: child edges sum beyond the float range (read off the chain of smallest children)"
    )
    lam = LambdaTuple(0.0, 1.0, -1.0, 2.0, 3.0)
    with pytest.raises(NotFromConstruction, match="vertex 1: child edges sum beyond the float range$"):
        recognize(w, lam)


def _hedge_670() -> RootedTree:
    """A height-5 lush hedge of 670 vertices: 3 or 4 children above height
    1, 2 or 3 leaves below it, the larger count on the first half of each
    level."""
    parent, level = [0], [1]
    for h in range(5, 0, -1):
        base = 3 if h >= 2 else 2
        nxt = []
        for i, v in enumerate(level):
            for _ in range(base + (i < (len(level) + 1) // 2)):
                parent.append(v)
                nxt.append(len(parent))
        level = nxt
    return build_hedge(parent)


def test_search_forms_no_dense_matrix(rng, monkeypatch):
    t = _hedge_670()
    assert t.n == 670 and t.height == 5
    lam = LambdaTuple(*[float(v) for v in sample_in_region(1, rng).values()])
    w = ph_construct(build_C(lam, 6), t, random_splits(t, rng))

    def dense(*args, **kwargs):
        raise AssertionError("recognize_search formed an n-by-n matrix")

    for target in ("numeric.eigenvalues_sym", "weights.eigenvalues_sym", "pth.eigenvalues_sym",
                   "weights.spectrum_of", "weights.symmetric_representative",
                   "weights.WeightedMatrix.to_numpy"):
        monkeypatch.setattr(f"hedge_iep.{target}", dense)
    res = recognize_search(w)
    # beta4 enters only b_4 up to height 5, which two values of it can give
    (got_a, got_b), (want_a, want_b) = abc_coefficients(res.lam, 6), abc_coefficients(lam, 6)
    assert max(abs(x - y) for x, y in zip(got_a + got_b, want_a + want_b)) < 1e-9


# ---------------------------------------------------------------------------
# forced fifth eigenvalue, gap vectors, constraints


def test_forced_fifth_examples():
    s6 = 2 * math.sqrt(6)
    got = forced_fifth_eigenvalue((2.0, 5.0, 1.0, 3 - s6))
    assert abs(got - (3 + s6)) < 1e-12
    assert forced_fifth_eigenvalue(
        (Fraction(0), Fraction(1), Fraction(-1), Fraction(2))
    ) == Fraction(-2)
    lam = t31_lambda(Fraction(2, 5))
    got = forced_fifth_eigenvalue((lam.alpha1, lam.alpha2, lam.beta2, lam.beta3))
    assert got == Fraction(6, 7)
    with pytest.raises(NotInB3):
        forced_fifth_eigenvalue((Fraction(5), Fraction(1), Fraction(-1), Fraction(2)))


def test_gap_vectors_exact(t31):
    prof = profile(t31)
    p1 = gap_vector(t31_exact_spectrum(Fraction(2, 5), prof))
    assert p1.p == (
        Fraction(1, 9),
        Fraction(2, 9),
        Fraction(11, 315),
        Fraction(2, 63),
        Fraction(74, 315),
        Fraction(2, 9),
        Fraction(1, 7),
    )
    p2 = gap_vector(t31_exact_spectrum(Fraction(1, 2), prof))
    assert p2.p == (
        Fraction(1, 9),
        Fraction(2, 9),
        Fraction(7, 90),
        Fraction(4, 45),
        Fraction(7, 90),
        Fraction(2, 9),
        Fraction(1, 5),
    )


def test_gap_vector_trivial_and_errors():
    spec = SpectrumMultiset(((Fraction(0), 1), (Fraction(1), 1)))
    assert gap_vector(spec).p == (Fraction(1),)
    with pytest.raises(SingleEigenvalue):
        gap_vector(SpectrumMultiset(((Fraction(0), 3),)))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=-10, max_value=10),
)
def test_gap_vector_affine_invariance(mnum, b):
    prof = profile(smallest_lush_hedge(3))
    spec = t31_exact_spectrum(Fraction(2, 5), prof)
    m = Fraction(mnum, 7)
    moved = SpectrumMultiset(tuple((m * v + b, mult) for v, mult in spec.entries))
    assert gap_vector(moved).p == gap_vector(spec).p


def test_t31_constraints_on_endpoints(t31):
    prof = profile(t31)
    for x in (Fraction(2, 5), Fraction(1, 2)):
        res = t31_constraints_check(t31_exact_spectrum(x, prof).values)
        assert all(res.values())


def test_t31_constraints_midpoint_violates_cubic(t31):
    prof = profile(t31)
    s1 = t31_exact_spectrum(Fraction(2, 5), prof).values
    s2 = t31_exact_spectrum(Fraction(1, 2), prof).values
    mid = tuple((a + b) / 2 for a, b in zip(s1, s2))
    res = t31_constraints_check(mid)
    assert res["linear"] and res["trace"]
    assert not res["cubic"]


def test_t31_constraints_wrong_arity():
    with pytest.raises(WrongArity):
        t31_constraints_check((1, 2, 3))


def test_t31_sweep_interval(t31):
    prof = profile(t31)
    for k in range(1, 51):
        x = Fraction(1, 3) + Fraction(k, 250)
        res = t31_constraints_check(t31_exact_spectrum(x, prof).values)
        assert all(res.values())


def test_nonconvexity_along_the_segment(t31):
    prof = profile(t31)
    s1 = t31_exact_spectrum(Fraction(2, 5), prof).values
    s2 = t31_exact_spectrum(Fraction(1, 2), prof).values
    for tnum in (1, 3, 7):
        t = Fraction(tnum, 10)
        mid = tuple(t * a + (1 - t) * b for a, b in zip(s1, s2))
        assert not t31_constraints_check(mid)["cubic"]


# ---------------------------------------------------------------------------
# counterexamples


def test_splitting_counterexample_t31(t31):
    ce = splitting_counterexample(t31)
    assert ce.realizable == (11, 7, 6, 2, 2, 1, 1, 1)
    assert ce.not_realizable == (11, 7, 6, 2, 1, 1, 1, 1, 1)
    assert ce.forced_multiplicity == 2
    assert ce.max_distinct == 8


def test_splitting_counterexample_height4():
    t = smallest_lush_hedge(4)
    ce = splitting_counterexample(t)
    prof = profile(t)
    assert len(ce.realizable) == 5 + 4 * 3 // 2
    assert len(ce.not_realizable) == len(ce.realizable) + 1
    assert ce.forced_multiplicity == prof.ell_at(3)
    # realizability of the unsplit list by explicit construction
    c = build_C(ce.lam, 5)
    w = ph_construct(c, t)
    spec = cluster_multiplicities(
        eigenvalues_sym(symmetric_representative(w.as_float()).to_numpy())
    )
    got = tuple(sorted(spec.ordered_multiplicities(), reverse=True))
    assert got == ce.realizable


def test_splitting_counterexample_needs_height3(hedge10):
    with pytest.raises(HeightTooSmall):
        splitting_counterexample(hedge10)


def test_zero_one_check_fig7():
    t = RootedTree((0, 1, 2, 1, 4, 1, 6, 2, 4, 6, 6))
    res = zero_one_counterexample_check(t)
    assert res.contradiction
    assert sorted(res.child_counts.values()) == [2, 2, 3]
    assert res.critical_list == (5, 2, 2, 1, 1)


def test_zero_one_check_inconclusive(hedge10):
    res = zero_one_counterexample_check(hedge10)
    assert not res.contradiction


def test_zero_one_check_bad_shape(t31):
    with pytest.raises(BadShape):
        zero_one_counterexample_check(t31)
