from fractions import Fraction

import numpy as np
import pytest

from hedge_iep import covers
from hedge_iep.covers import (
    ForcingState,
    M_formula,
    Mhat_formula,
    SubmatrixSingular,
    SubtreesNotIndependent,
    brute_force_path_cover,
    brute_force_zero_forcing,
    derived_set,
    forcing_process,
    nullity_bound_check,
    path_cover_number,
    sigma_counts,
    zero_forcing_number,
)
from hedge_iep.pth import ph_construct
from hedge_iep.trees import RootedTree, profile, smallest_lush_hedge, subtree_chain
from hedge_iep.weights import WeightFn, unit_lower_representative

from conftest import random_tree


def path(n: int) -> RootedTree:
    return RootedTree(tuple(range(0, n)))


def star(k: int) -> RootedTree:
    return RootedTree((0,) + (1,) * k)


def _check_cover(t, vertices, cover):
    vs = set(t.vertices) if vertices is None else set(vertices)
    seen = set()
    adj = {v: set(t.neighbors(v)) & vs for v in vs}
    for p in cover.paths:
        assert not (set(p) & seen)
        seen.update(p)
        for a, b in zip(p, p[1:]):
            assert b in adj[a]
        # induced: no chords (automatic in a tree, but check adjacency count)
        for v in p:
            assert len(adj[v] & set(p)) <= 2
    assert seen == vs


def test_path_cover_examples(hedge10):
    p, cover = path_cover_number(hedge10)
    assert p == 4
    _check_cover(hedge10, None, cover)
    assert path_cover_number(path(7))[0] == 1
    assert path_cover_number(star(4))[0] == 3


def test_path_cover_forest(hedge10):
    # deleting the root leaves three stars
    rest = set(hedge10.vertices) - {1}
    p, cover = path_cover_number(hedge10, rest)
    assert p == 3
    _check_cover(hedge10, rest, cover)


def test_zero_forcing_examples(hedge10):
    z, witness = zero_forcing_number(hedge10)
    assert z == 4
    assert derived_set(hedge10, witness) == set(hedge10.vertices)
    assert zero_forcing_number(path(9))[0] == 1
    assert zero_forcing_number(star(4))[0] == 3
    assert brute_force_zero_forcing(hedge10) == 4
    assert brute_force_zero_forcing(star(4)) == 3


def test_zero_forcing_simulates_the_partition_it_shares_with_p(hedge10, monkeypatch):
    shared = covers._partition
    assert zero_forcing_number(hedge10)[1] == {p[0] for p in shared(hedge10)}
    # one path fewer: Z - 1 vertices, too few to force the tree
    monkeypatch.setattr(covers, "_partition", lambda t, vertices=None: shared(t, vertices)[1:])
    with pytest.raises(AssertionError, match="constructed forcing set does not force the forest"):
        zero_forcing_number(hedge10)
    with pytest.raises(AssertionError, match="constructed forcing set does not force the forest"):
        zero_forcing_number(hedge10, set(hedge10.vertices) - {1})


def test_derived_set_examples(hedge10):
    assert derived_set(path(4), {1}) == {1, 2, 3, 4}
    assert derived_set(star(3), {1}) == {1}
    blue = {3, 5, 7, 8}  # a leaf under each height-1 vertex plus one sibling
    assert derived_set(hedge10, blue) == set(hedge10.vertices)


def test_forcing_chains_form_a_path_cover(rng):
    # when a forcing set colors the whole tree, its chains partition the
    # vertices into induced paths
    for _ in range(20):
        t = random_tree(int(rng.integers(2, 14)), rng)
        z, witness = zero_forcing_number(t)
        state = forcing_process(t, witness)
        assert state.blue == set(t.vertices)
        paths = state.chain_paths()
        assert len(paths) == z
        seen = set()
        for p in paths:
            assert not (set(p) & seen)
            seen.update(p)
            for a, b in zip(p, p[1:]):
                assert b in t.neighbors(a)
        assert seen == set(t.vertices)


def _reference_forcing_process(t, blue, vertices=None):
    """The color change rule by rescanning: after every force, the
    smallest-labelled blue vertex with exactly one white neighbor forces."""
    vs = set(t.vertices) if vertices is None else set(vertices)
    adj = {v: set(t.neighbors(v)) & vs for v in vs}
    b = set(blue)
    chains = {}
    changed = True
    while changed:
        changed = False
        for v in sorted(b):
            if v in chains:
                continue
            white = [w for w in adj[v] if w not in b]
            if len(white) == 1:
                chains[v] = white[0]
                b.add(white[0])
                changed = True
                break
    return ForcingState(frozenset(b), chains)


def test_forcing_process_matches_rescan(rng):
    # the heap of candidate forcers records the same smallest-label chains
    for _ in range(200):
        t = random_tree(int(rng.integers(1, 30)), rng)
        vertices = None
        if rng.uniform() < 0.5:
            vertices = [v for v in t.vertices if rng.uniform() < 0.7]
        vs = list(t.vertices) if vertices is None else vertices
        blue = [v for v in vs if rng.uniform() < rng.uniform(0.1, 0.6)]
        got = forcing_process(t, blue, vertices)
        assert got == _reference_forcing_process(t, blue, vertices)


def test_induced_subforests_vs_brute_force(rng):
    for _ in range(80):
        t = random_tree(int(rng.integers(2, 21)), rng)
        keep = {v for v in t.vertices if rng.uniform() < rng.uniform(0.4, 0.9)}
        p, cover = path_cover_number(t, keep)
        z, witness = zero_forcing_number(t, keep)
        assert p == z == brute_force_path_cover(t, keep)
        _check_cover(t, keep, cover)
        assert len(witness) == z
        assert derived_set(t, witness, keep) == keep


def test_formula_values(hedge10, t31):
    prof = profile(t31)
    values = (
        M_formula(prof, 0),
        M_formula(prof, 1),
        Mhat_formula(prof, 1),
        Mhat_formula(prof, 2),
        Mhat_formula(prof, 3),
    )
    assert values == (11, 7, 6, 2, 1)
    pbf = profile(hedge10)
    assert M_formula(pbf, 0) == 4
    assert M_formula(pbf, 1) == 2
    assert Mhat_formula(pbf, 1) == 2
    assert Mhat_formula(pbf, 2) == 1
    assert Mhat_formula(pbf, 3) == 0
    assert M_formula(pbf, pbf.height) == 1
    assert M_formula(pbf, pbf.height + 1) == 0


def test_formula_matches_peeling(rng, hedge10, t31):
    for t in (hedge10, t31, smallest_lush_hedge(6)):
        prof = profile(t)
        chain = subtree_chain(t)
        for h in range(prof.height + 1):
            p, _ = path_cover_number(t, chain.vertices_at(h))
            assert p == M_formula(prof, h)


def test_sigma_counts_hedge10(hedge10):
    assert sigma_counts(hedge10, 1) == (1, 2)
    # degenerate root path at h = H
    assert sigma_counts(hedge10, 2) == (0, 1)
    # brute-force derivation of the h = 1 pair: V-hat is empty on the
    # 7-vertex subtree, so only a pendent 2-path comes out
    sub = subtree_chain(hedge10).vertices_at(1)
    hm = hedge10.height_map
    v = min(u for u in sub if hm[u] == 1)
    two_path = {v, next(u for u in hedge10.children[v] if u in sub)}
    assert brute_force_path_cover(hedge10, sub - two_path) == 1
    assert brute_force_path_cover(hedge10, sub) == 2


def test_sigma_counts_h0_oracle(t31):
    # height-1 vertices with exactly two children keep the count at Mhat
    # when a leaf is deleted, so h = 0 gives (10, 10); cross-checked by
    # brute force on the residual forest
    assert sigma_counts(t31, 0) == (10, 10)
    hm = t31.height_map
    vhat = {v for v in t31.vertices if hm[v] >= 2 and (hm[v] - 2) % 3 == 0}
    leaf = min(v for v in t31.vertices if hm[v] == 0)
    rest = set(t31.vertices) - vhat - {leaf}
    assert brute_force_path_cover(t31, rest) == 10
    assert brute_force_path_cover(t31, set(t31.vertices) - vhat) == 10


def test_sigma_counts_formula_for_positive_h(rng, hedge10, t31):
    from conftest import random_lush_hedge

    for t in [hedge10, t31] + [random_lush_hedge(rng) for _ in range(5)]:
        prof = profile(t)
        for h in range(1, prof.height + 1):
            want = Mhat_formula(prof, h)
            assert sigma_counts(t, h) == (want - 1, want)


def test_exhaustive_small_trees(rng):
    nx = pytest.importorskip("networkx")
    count = 0
    for n in range(2, 9):
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
            p, cover = path_cover_number(t)
            z, witness = zero_forcing_number(t)
            assert p == z == brute_force_path_cover(t) == brute_force_zero_forcing(t)
            _check_cover(t, None, cover)
            count += 1
    assert count > 45


def test_random_trees_to_25(rng):
    for _ in range(100):
        t = random_tree(int(rng.integers(2, 26)), rng)
        p, _ = path_cover_number(t)
        z, _ = zero_forcing_number(t)
        assert p == z == brute_force_path_cover(t)


def test_path_cover_oracle_on_bushy_32_vertex_trees():
    # a root with 4, 5 or 6 children and the other leaves dealt among them:
    # the shapes on which the unmerged edge-subset search took seconds
    for kids in (4, 5, 6):
        parent = [0] + [1] * kids + [2 + j % kids for j in range(31 - kids)]
        t = RootedTree(tuple(parent))
        assert t.n == 32
        assert brute_force_path_cover(t) == path_cover_number(t)[0]


def test_cover_removal_decrement(rng):
    # removing one path of a minimal cover drops the cover number by one
    for _ in range(30):
        t = random_tree(int(rng.integers(3, 16)), rng)
        p, cover = path_cover_number(t)
        q = cover.paths[int(rng.integers(0, len(cover.paths)))]
        rest = set(t.vertices) - set(q)
        p2, _ = path_cover_number(t, rest)
        assert p2 == p - 1


def test_even_height_singletons(hedge10, t31):
    # every even-height vertex extends to a minimal cover as a singleton
    for t in (hedge10, t31):
        p, _ = path_cover_number(t)
        hm = t.height_map
        for v in t.vertices:
            if hm[v] % 2 == 0:
                rest = set(t.vertices) - {v}
                assert path_cover_number(t, rest)[0] == p - 1


def test_nullity_bound_random(rng):
    ok = 0
    for _ in range(100):
        t = random_tree(int(rng.integers(2, 11)), rng)
        n = t.n
        m = np.zeros((n, n))
        for v in t.vertices:
            m[v - 1, v - 1] = rng.uniform(-2, 2)
        for u, v in t.edges:
            m[u - 1, v - 1] = rng.uniform(0.3, 2.0)
            m[v - 1, u - 1] = rng.uniform(0.3, 2.0)
        # shift so the matrix is actually singular
        lamv = np.linalg.eigvals(m)
        shift = float(np.real(lamv[int(rng.integers(0, n))]))
        shifted = m - shift * np.eye(n)
        keep = [v for v in t.vertices if rng.uniform() < 0.3]
        comps = _components_of(t, keep)
        try:
            assert nullity_bound_check(t, comps, shifted)
            ok += 1
        except SubmatrixSingular:
            continue
    assert ok > 30


def _components_of(t, keep):
    keep = set(keep)
    comps = []
    seen = set()
    for v in sorted(keep):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in t.neighbors(u):
                if w in keep and w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(sorted(comp))
    return comps


def test_nullity_bound_table1_matrix(hedge10):
    # the worked 10-vertex construction: every leaf diagonal equals 2, so a
    # leaf singleton becomes singular after shifting by 2
    p3 = RootedTree((0, 1, 2))
    wc3 = WeightFn(
        p3,
        {1: Fraction(8), 2: Fraction(4), 3: Fraction(2)},
        {(1, 2): Fraction(20), (2, 3): Fraction(3)},
    )
    w = ph_construct(wc3, hedge10)
    a = unit_lower_representative(w.as_float()).to_numpy()
    shifted = a - 2.0 * np.eye(10)
    leaf = 3
    with pytest.raises(SubmatrixSingular):
        nullity_bound_check(hedge10, [[leaf]], shifted)
    # with no subtrees removed the bound is the full path cover number
    assert nullity_bound_check(hedge10, [], shifted)


def test_nullity_bound_p3_end():
    t = path(3)
    m = np.array([[1.0, 1, 0], [1, 0, 1], [0, 1, 5]])
    lam = 5.0
    shifted = m - lam * np.eye(3)
    # the end vertex {1} has diagonal 1 != 5, an invertible singleton
    assert nullity_bound_check(t, [[1]], shifted)


def test_independence_validation(hedge10):
    m = np.eye(10)
    with pytest.raises(SubtreesNotIndependent):
        nullity_bound_check(hedge10, [[1], [2]], m)  # 1-2 is an edge
    with pytest.raises(SubtreesNotIndependent):
        nullity_bound_check(hedge10, [[3], [3]], m)
