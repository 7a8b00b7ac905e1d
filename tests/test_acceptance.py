"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines including wall times.
"""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from hedge_iep.covers import (
    M_formula,
    SubmatrixSingular,
    brute_force_path_cover,
    brute_force_zero_forcing,
    nullity_bound_check,
    path_cover_number,
    zero_forcing_number,
)
from hedge_iep.lambdas import LambdaTuple, build_C, sample_in_region
from hedge_iep.numeric import eigenvalues_sym
from hedge_iep.pth import (
    NotFromConstruction,
    gap_vector,
    ph_construct,
    ph_spectrum,
    recognize,
    recognize_search,
    t31_constraints_check,
    t31_exact_spectrum,
)
from hedge_iep.rigid import (
    certify_coincidences,
    companion_double_root_entry,
    consecutive_interlacing_gap,
    rigid_multiplicity_list,
    simplify_resultant,
    solve_rigid,
)
from hedge_iep.trees import (
    RootedTree,
    ten_vertex_hedge,
    profile,
    smallest_lush_hedge,
    subtree_chain,
)
from hedge_iep.weights import WeightFn, symmetric_representative

from conftest import expanded, random_lush_hedge, random_splits, random_tree


def _report(criterion: str, elapsed: float, budget: float) -> None:
    print(f"\n[PASS] {criterion} ({elapsed:.2f}s < {budget:.0f}s)")
    assert elapsed < budget


def _c3_weight(top: int) -> WeightFn:
    p3 = RootedTree((0, 1, 2))
    return WeightFn(
        p3,
        {1: Fraction(top), 2: Fraction(4), 3: Fraction(2)},
        {(1, 2): Fraction(20), (2, 3): Fraction(3)},
    )


def test_criterion_1_tables_reproduction():
    t0 = time.time()
    hedge10 = ten_vertex_hedge()
    prof = profile(hedge10)
    cases = [
        (_c3_weight(8), [0, 1, 1, 2, 2, 2, 3, 5, 5, 11]),
        (
            _c3_weight(2),
            sorted(
                [3 - 2 * math.sqrt(6), 1, 1, 2, 2, 2, 2, 5, 5, 3 + 2 * math.sqrt(6)]
            ),
        ),
    ]
    for wc, want in cases:
        formula = expanded(ph_spectrum(wc, prof))
        w = ph_construct(wc, hedge10)
        direct = eigenvalues_sym(symmetric_representative(w).to_numpy())
        want = np.array(want, dtype=float)
        width = want[-1] - want[0]
        assert np.max(np.abs(formula - want)) / width < 1e-9
        assert np.max(np.abs(direct - want)) / width < 1e-9
    _report("criterion 1: spectra of both worked constructions", time.time() - t0, 1.0)


def test_criterion_2_cover_oracles():
    t0 = time.time()
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(2)
    checked = 0
    for n in range(2, 11):
        for g in nx.nonisomorphic_trees(n):
            nodes = list(g.nodes)
            relabel = {v: i + 1 for i, v in enumerate(nodes)}
            parent = [0] * (n + 1)
            seen = {nodes[0]}
            stack = [nodes[0]]
            while stack:
                x = stack.pop()
                for y in g.neighbors(x):
                    if y not in seen:
                        seen.add(y)
                        parent[relabel[y]] = relabel[x]
                        stack.append(y)
            t = RootedTree(tuple(parent[1:]))
            p, _ = path_cover_number(t)
            z, _ = zero_forcing_number(t)
            assert p == z == brute_force_path_cover(t) == brute_force_zero_forcing(t)
            checked += 1
    assert checked >= 100
    for _ in range(200):
        t = random_tree(int(rng.integers(2, 21)), rng)
        p, _ = path_cover_number(t)
        z, _ = zero_forcing_number(t)
        assert p == z == brute_force_path_cover(t)
    hedges = [ten_vertex_hedge(), smallest_lush_hedge(3)] + [
        random_lush_hedge(rng) for _ in range(10)
    ]
    for t in hedges:
        prof = profile(t)
        chain = subtree_chain(t)
        for h in range(prof.height + 1):
            p, _ = path_cover_number(t, chain.vertices_at(h))
            assert p == M_formula(prof, h)
    _report(
        f"criterion 2: P = Z = brute force on {checked} shapes + 200 random trees, "
        "parity formula on lush hedges",
        time.time() - t0,
        60.0,
    )


def test_criterion_3_recognizer_round_trip():
    t0 = time.time()
    rng = np.random.default_rng(3)
    for trial in range(200):
        reg = int(rng.integers(1, 13))
        lam0 = sample_in_region(reg, rng)
        t = random_lush_hedge(rng)
        lam = LambdaTuple(*[float(v) for v in lam0.values()])
        c = build_C(lam, t.height + 1)
        w = ph_construct(c, t, random_splits(t, rng))
        res = recognize(w, lam)  # designated assignment certifies membership
        cw = c.weight()
        err = max(
            [abs(float(res.path_weight.v(i)) - float(cw.v(i))) for i in cw.tree.vertices]
            + [
                abs(float(res.path_weight.e(u, v)) - float(cw.e(u, v)))
                for u, v in cw.tree.edges
            ]
        )
        assert err < 1e-9
        search = recognize_search(w)
        assert abs(search.lam.alpha1 - lam.alpha1) < 1e-9
        pair = sorted((search.lam.alpha2, search.lam.beta2))
        want_pair = sorted((lam.alpha2, lam.beta2))
        assert max(abs(a - b) for a, b in zip(pair, want_pair)) < 1e-9
        gw = search.target.weight()
        err2 = max(
            [abs(float(gw.v(i)) - float(cw.v(i))) for i in cw.tree.vertices]
            + [abs(float(gw.e(u, v)) - float(cw.e(u, v))) for u, v in cw.tree.edges]
        )
        assert err2 < 1e-9
    rejected = 0
    for trial in range(50):
        reg = int(rng.integers(1, 13))
        lam0 = sample_in_region(reg, rng)
        t = random_lush_hedge(rng)
        lam = LambdaTuple(*[float(v) for v in lam0.values()])
        c = build_C(lam, t.height + 1)
        w = ph_construct(c, t, random_splits(t, rng))
        # perturb an edge pinned by the equality constraints (root edges
        # are reabsorbed into the free top-level eigenvalues)
        edges = sorted(e for e in w.edge_weight if t.root not in e)
        e = edges[int(rng.integers(0, len(edges)))]
        ew = dict(w.edge_weight)
        ew[e] = ew[e] * 1.01
        bad = WeightFn(w.tree, dict(w.vertex_weight), ew)
        try:
            recognize_search(bad)
        except NotFromConstruction:
            rejected += 1
    assert rejected == 50
    _report(
        "criterion 3: 200 round trips recover the construction, 50/50 "
        "perturbations rejected",
        time.time() - t0,
        30.0,
    )


def test_criterion_4_t31_constraints():
    t0 = time.time()
    prof = profile(smallest_lush_hedge(3))
    for k in range(1, 51):
        x = Fraction(1, 3) + Fraction(k, 250)
        res = t31_constraints_check(t31_exact_spectrum(x, prof).values)
        assert all(res.values()), (x, res)
    p1 = gap_vector(t31_exact_spectrum(Fraction(2, 5), prof))
    p2 = gap_vector(t31_exact_spectrum(Fraction(1, 2), prof))
    assert p1.p == (
        Fraction(1, 9), Fraction(2, 9), Fraction(11, 315), Fraction(2, 63),
        Fraction(74, 315), Fraction(2, 9), Fraction(1, 7),
    )
    assert p2.p == (
        Fraction(1, 9), Fraction(2, 9), Fraction(7, 90), Fraction(4, 45),
        Fraction(7, 90), Fraction(2, 9), Fraction(1, 5),
    )
    s1 = t31_exact_spectrum(Fraction(2, 5), prof).values
    s2 = t31_exact_spectrum(Fraction(1, 2), prof).values
    mid = tuple((a + b) / 2 for a, b in zip(s1, s2))
    resm = t31_constraints_check(mid)
    assert resm["linear"] and resm["trace"] and not resm["cubic"]
    _report(
        "criterion 4: 50 exact parameter points, frozen gap vectors, "
        "non-convex midpoint",
        time.time() - t0,
        10.0,
    )


def test_criterion_5_resultant_certifications():
    t0 = time.time()
    from hedge_iep.mpoly import MPolyQ

    A1 = MPolyQ.var("alpha1")
    A2 = MPolyQ.var("alpha2")
    B3 = MPolyQ.var("beta3")
    residual, _, _ = simplify_resultant(3, 7)
    assert residual == A1 * A2 - A1 * B3 - B3 - A1
    for (a, b) in ((3, 5), (3, 6), (4, 6), (4, 7)):
        res, _, _ = simplify_resultant(a, b)
        assert res.is_constant() and res.constant_value() == 1
    entry, target, scalar = companion_double_root_entry()
    assert scalar != 0 and entry == target * scalar
    _report(
        "criterion 5: printed simplified resultant, unit residuals, "
        "companion-matrix product",
        time.time() - t0,
        120.0,
    )


def test_criterion_6_rigid_solution():
    t0 = time.time()
    sol = solve_rigid()
    reference = {
        "xi": 0.334981556,
        "alpha1": -0.604555194,
        "alpha2": 0.502965741,
        "beta3": 0.759864937,
        "lambda_37": -1.256899196,
        "lambda_48": -1.354063522,
        "lambda_49": -0.747525931,
    }
    for key, want in reference.items():
        exact = float(sol.exact_values()[key])
        assert abs(exact - want) < 5e-10, key
        assert abs(exact - sol.route_a[key]) < 1e-9, key
    vals = sol.exact_values()
    for (a, b) in ((3, 7), (4, 8), (4, 9)):
        residual, _, _ = simplify_resultant(a, b)
        out = residual.evaluate(vals["alpha1"], vals["alpha2"], vals["beta3"])
        assert out.is_zero()
    _report(
        "criterion 6: routes agree to 1e-9 and the exact substitution "
        "vanishes in the number field",
        time.time() - t0,
        60.0,
    )


def test_criterion_7_rigid_list():
    t0 = time.time()
    prof = profile(smallest_lush_hedge(8))
    rl = rigid_multiplicity_list(prof, tol=1e-9)
    assert rl.ordered == (
        1, 2, 6, 18, 54, 1, 164, 492, 18, 1, 1514, 6, 163, 18, 2, 2734,
        1640, 1, 6, 54, 2, 505, 168, 2, 1, 54, 18, 6, 2, 1,
    )
    assert rl.total == 7654
    # every ell_i lands in exactly i of the multiplicities: re-derive the
    # per-level cluster memberships from the level spectra
    from hedge_iep.rigid import rigid_level_spectra

    specs = rigid_level_spectra(9)
    values = sorted((float(v), level) for level in range(1, 10) for v in specs[level - 1])
    width = values[-1][0] - values[0][0]
    clusters = [[values[0]]]
    for p in values[1:]:
        if p[0] - clusters[-1][-1][0] > 1e-9 * width:
            clusters.append([p])
        else:
            clusters[-1].append(p)
    assert len(clusters) == 30
    hits = Counter(level for cl in clusters for _, level in cl)
    assert all(hits[i] == i for i in range(1, 10))
    assert certify_coincidences() == {
        "lambda_37": True, "lambda_48": True, "lambda_49": True,
    }
    _report(
        "criterion 7: the 30-entry rigid list, sum 7654, exact coincidences",
        time.time() - t0,
        10.0,
    )


def test_criterion_8_property_suites():
    t0 = time.time()
    rng = np.random.default_rng(8)
    # duplication / collapse spectrum law, 500 random cases at 1e-8
    from hedge_iep.weights import DuplicationSplit, duplicate_branch, spectrum_of
    from hedge_iep.trees import induced_tree

    checked = 0
    while checked < 500:
        t = random_tree(int(rng.integers(2, 13)), rng)
        candidates = [u for u in t.vertices if t.children[u]]
        v = candidates[int(rng.integers(0, len(candidates)))]
        kids = t.children[v]
        b0 = kids[int(rng.integers(0, len(kids)))]
        vw = {u: float(rng.uniform(-2, 2)) for u in t.vertices}
        ew = {e: float(rng.uniform(0.2, 3.0)) for e in t.edges}
        w = WeightFn(t, vw, ew)
        s = int(rng.integers(1, 4))
        raw = rng.uniform(0.2, 1.0, size=s + 1)
        split = DuplicationSplit(tuple(float(x) for x in raw / raw.sum()))
        w2 = duplicate_branch(w, v, b0, split)
        sub_vs = t.subtree_vertices(b0)
        sub, back = induced_tree(t, sub_vs)
        wb = WeightFn(
            sub,
            {i: w.v(back[i]) for i in sub.vertices},
            {(x, y): w.e(back[x], back[y]) for x, y in sub.edges},
        )
        want = np.sort(np.concatenate([spectrum_of(w)] + [spectrum_of(wb)] * s))
        got = spectrum_of(w2)
        width = max(1.0, want[-1] - want[0])
        assert np.max(np.abs(got - want)) <= 1e-8 * width
        checked += 1

    # invertible-subtrees bound, 1000 valid random cases, never violated
    valid = 0
    attempts = 0
    while valid < 1000 and attempts < 20000:
        attempts += 1
        t = random_tree(int(rng.integers(2, 11)), rng)
        n = t.n
        m = np.zeros((n, n))
        for u in t.vertices:
            m[u - 1, u - 1] = rng.uniform(-2, 2)
        for u, v in t.edges:
            m[u - 1, v - 1] = rng.uniform(0.3, 2.0)
            m[v - 1, u - 1] = rng.uniform(0.3, 2.0)
        evals = np.real(np.linalg.eigvals(m))
        shift = float(evals[int(rng.integers(0, n))])
        shifted = m - shift * np.eye(n)
        keep = [u for u in t.vertices if rng.uniform() < 0.35]
        comps = []
        seen = set()
        for u in sorted(keep):
            if u in seen:
                continue
            comp = {u}
            stack = [u]
            while stack:
                x = stack.pop()
                for y in t.neighbors(x):
                    if y in keep and y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            comps.append(sorted(comp))
        try:
            assert nullity_bound_check(t, comps, shifted)
        except SubmatrixSingular:
            continue
        valid += 1
    assert valid == 1000

    # strict interlacing of consecutive spectra at the rigid point, 40 levels
    assert consecutive_interlacing_gap(40) > 1e-9
    _report(
        "criterion 8: 500 spectrum-law cases, 1000 nullity-bound cases, "
        "interlacing through level 40",
        time.time() - t0,
        600.0,
    )
