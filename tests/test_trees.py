import json

import pytest

from hedge_iep.trees import (
    CycleDetected,
    MultipleRoots,
    NotAHedge,
    RootedTree,
    ahu_encoding,
    ten_vertex_hedge,
    build_hedge,
    induced_tree,
    is_hedge,
    is_lush,
    pendent_paths,
    profile,
    smallest_lush_hedge,
    subtree_chain,
    tree_from_json,
    tree_to_json,
)

from conftest import random_lush_hedge, random_tree, relabel


def path(n: int) -> RootedTree:
    return RootedTree(tuple(range(0, n)))


def test_build_hedge_ten_vertex():
    t = build_hedge([0, 1, 2, 1, 4, 1, 6, 2, 4, 6])
    assert t.height == 2
    assert len(t.leaves) == 6
    assert t == ten_vertex_hedge()


def test_build_single_vertex():
    t = build_hedge([0])
    assert t.n == 1 and t.height == 0
    assert is_hedge(t) and is_lush(t)


def test_build_star():
    t = build_hedge([0, 1, 1, 1, 1])
    assert t.height == 1
    assert len(t.leaves) == 4


def test_build_rejects_cycle():
    with pytest.raises(CycleDetected):
        RootedTree((0, 3, 2, 2))


def test_build_rejects_two_roots():
    with pytest.raises(MultipleRoots):
        RootedTree((0, 0, 1))


def test_build_rejects_self_loop_non_root():
    # a second fixed point acts as a second root
    with pytest.raises(MultipleRoots):
        RootedTree((0, 2, 1))


def test_disconnected_like_cycle_detected():
    # vertices 3,4 form a 2-cycle unreachable from the root
    with pytest.raises(CycleDetected, match="vertex 3 does not reach the root"):
        RootedTree((0, 1, 4, 3))


def test_deep_path_builds():
    # validation is one walk from the root, so a long path is cheap
    assert RootedTree(tuple(range(20000))).height == 19999


def test_is_hedge_examples(hedge10):
    assert is_hedge(hedge10)
    assert is_hedge(path(5))
    # a leaf hanging off the root next to a 2-chain: leaves at distances 1, 2
    hat = RootedTree((0, 1, 1, 2))
    assert not is_hedge(hat)


def test_is_lush_examples(hedge10):
    assert is_lush(hedge10)
    # same ell profile as the minimal height-2 lush hedge, but one height-1
    # vertex has three children and another only one
    fig_b = RootedTree((0, 1, 1, 1, 2, 2, 2, 3, 4, 4))
    assert is_hedge(fig_b) and profile(fig_b).ell == (3, 2, 1)
    assert not is_lush(fig_b)
    # perfect binary tree: the root degree is only 2
    binary = RootedTree((0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7))
    assert is_hedge(binary) and not is_lush(binary)
    with pytest.raises(NotAHedge):
        is_lush(RootedTree((0, 1, 1, 2)))


def test_profile_examples(hedge10):
    assert profile(hedge10).ell == (3, 2, 1)
    h3 = smallest_lush_hedge(3)
    assert profile(h3).ell == (9, 6, 2, 1)
    assert h3.n == 31
    h8 = smallest_lush_hedge(8)
    p8 = profile(h8)
    assert p8.ell == (2187, 1458, 486, 162, 54, 18, 6, 2, 1)
    assert h8.n == 7654
    assert profile(path(1)).ell == (1,)


def test_smallest_lush_hedge_shape():
    # three children above height 1, leaf pairs, labelled level by level
    for height in range(10):
        t = smallest_lush_hedge(height)
        hm = t.height_map
        assert t.height == height and is_lush(t)
        for v in t.vertices:
            assert len(t.children[v]) == (0, 2, 3)[min(hm[v], 2)]
            assert t.depth[v] <= t.depth.get(v + 1, t.depth[v])
            assert t.parent[v - 1] < v


def test_subtree_chain_hedge10(hedge10):
    chain = subtree_chain(hedge10)
    assert [len(s) for s in chain.vertex_sets] == [10, 7, 3]
    t1, _ = induced_tree(hedge10, chain.vertices_at(1))
    spider = RootedTree((0, 1, 2, 1, 4, 1, 6))
    assert ahu_encoding(t1) == ahu_encoding(spider)
    t2, _ = induced_tree(hedge10, chain.vertices_at(2))
    assert ahu_encoding(t2) == ahu_encoding(path(3))


def test_subtree_chain_path_constant():
    p = path(4)
    chain = subtree_chain(p)
    assert all(s == frozenset(range(1, 5)) for s in chain.vertex_sets)


def test_subtree_chain_h3_level2():
    # T^(2) of the minimal height-3 lush hedge is spanned by 2 P_3 and a P_4
    h3 = smallest_lush_hedge(3)
    chain = subtree_chain(h3)
    t2, _ = induced_tree(h3, chain.vertices_at(2))
    assert t2.n == 10
    expected = RootedTree((0, 1, 1, 1, 2, 3, 4, 5, 6, 7))
    assert ahu_encoding(t2) == ahu_encoding(expected)


def test_pendent_paths_examples(hedge10):
    assert len(pendent_paths(hedge10, 1)) == 6
    # in the full tree every height-1 vertex has two leaf children, so no
    # hanging chain has length two
    assert pendent_paths(hedge10, 2) == []
    spider = RootedTree((0, 1, 2, 1, 4, 1, 6))
    twos = pendent_paths(spider, 2)
    assert [q.vertices for q in twos] == [(2, 3), (4, 5), (6, 7)]
    assert all(q.attach_point == 1 for q in twos)
    threes = pendent_paths(path(4), 3)
    assert len(threes) == 1 and threes[0].vertices == (2, 3, 4)
    assert threes[0].attach_point == 1


def _reference_height_map(t: RootedTree) -> dict[int, int]:
    """Heights with the vertices sorted deepest first."""
    h: dict[int, int] = {}
    for v in sorted(t.vertices, key=lambda u: -t.depth[u]):
        h[v] = 1 + max((h[c] for c in t.children[v]), default=-1)
    return h


def _reference_pendent_paths(t: RootedTree, k: int) -> list:
    """Every hanging chain walked to its end, then sorted."""
    out = []
    for v in t.vertices:
        for c in t.children[v]:
            chain, cur, ok = [c], c, True
            while True:
                ch = t.children[cur]
                if len(ch) > 1:
                    ok = False
                    break
                if not ch:
                    break
                cur = ch[0]
                chain.append(cur)
            if ok and len(chain) == k:
                out.append((v, tuple(chain)))
    return sorted(out)


def _reference_subtree_chain(t: RootedTree) -> tuple:
    """T^(h): the vertices of height >= h, plus h distinguished-child steps
    down from each vertex of height h."""
    h = _reference_height_map(t)
    star = {v: min(t.children[v]) for v in t.vertices if t.children[v]}
    sets = []
    for level in range(h[t.root] + 1):
        keep = {v for v in t.vertices if h[v] >= level}
        for v in list(keep):
            if h[v] == level:
                u = v
                for _ in range(level):
                    u = star[u]
                    keep.add(u)
        sets.append(frozenset(keep))
    return tuple(sets)


def test_tree_walks_match_the_sorting_references(rng):
    # height_map, pendent_paths and subtree_chain read the top-down order of
    # depth; the references sort instead
    shapes = [path(1), path(7), ten_vertex_hedge(), smallest_lush_hedge(3)]
    shapes += [random_tree(int(rng.integers(1, 40)), rng) for _ in range(60)]
    shapes += [relabel(random_lush_hedge(rng, 60), rng)[0] for _ in range(60)]
    for t in shapes:
        assert t.height_map == _reference_height_map(t)
        for k in range(1, 6):
            got = [(q.attach_point, q.vertices) for q in pendent_paths(t, k)]
            assert got == _reference_pendent_paths(t, k)
        if is_hedge(t):
            assert subtree_chain(t).vertex_sets == _reference_subtree_chain(t)


def test_pendent_paths_disjoint(rng):
    for _ in range(10):
        t = random_lush_hedge(rng)
        for k in (1, 2):
            qs = pendent_paths(t, k)
            seen = set()
            for q in qs:
                assert not (set(q.vertices) & seen)
                seen.update(q.vertices)


def test_level_count_identity(rng):
    # sum of i * ell_i telescopes to the vertex count
    for t in [ten_vertex_hedge(), smallest_lush_hedge(3), path(6)] + [
        random_lush_hedge(rng) for _ in range(10)
    ]:
        p = profile(t)
        assert sum(i * p.ell_at(i) for i in range(1, p.height + 2)) == t.n


def test_lush_ell_decay(rng):
    # branching numbers of a lush hedge decay at least geometrically
    for t in [ten_vertex_hedge(), smallest_lush_hedge(3), smallest_lush_hedge(4)] + [
        random_lush_hedge(rng) for _ in range(10)
    ]:
        p = profile(t)
        for i in range(2, p.height + 2):
            tail = sum(p.ell_at(j) for j in range(i + 1, p.height + 2))
            assert p.ell_at(i) >= 2 * tail


def test_chain_collapse_isomorphism(rng):
    # collapsing pendent (h+1)-paths in T^(h) gives a tree isomorphic to
    # T^(h+1); checked with a constant weight so every group is collapsible
    from hedge_iep.weights import WeightFn, collapse_pendent_k_paths

    for _ in range(8):
        t = random_lush_hedge(rng)
        chain = subtree_chain(t)
        for h in range(t.height):
            th, _ = induced_tree(t, chain.vertices_at(h))
            w = WeightFn(
                th, {v: 0 for v in th.vertices}, {e: 1 for e in th.edges}
            )
            collapsed = collapse_pendent_k_paths(w, h + 1).weight.tree
            tnext, _ = induced_tree(t, chain.vertices_at(h + 1))
            assert ahu_encoding(collapsed) == ahu_encoding(tnext)


def test_json_round_trip(hedge10, tmp_path):
    data = tree_to_json(hedge10)
    assert data["n"] == 10 and data["parent"][0] == 0
    again = tree_from_json(json.loads(json.dumps(data)))
    assert again == hedge10
