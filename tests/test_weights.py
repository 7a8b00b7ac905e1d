import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hedge_iep
from hedge_iep.cli import main
from hedge_iep.numeric import eigenvalues_sym
from hedge_iep.trees import RootedTree, save_tree, smallest_lush_hedge, ten_vertex_hedge
from hedge_iep.weights import (
    DuplicationSplit,
    BadSplit,
    NotABranch,
    NotCollapsible,
    NonPositiveEdgeWeight,
    WeightedMatrix,
    WeightFn,
    collapse_pendent_k_paths,
    collapsible_branches,
    duplicate_branch,
    load_weight,
    save_weight,
    spectrum_of,
    symmetric_representative,
    unit_lower_representative,
    weight_from_json,
    weight_to_json,
)

from conftest import random_lush_hedge, random_tree, random_weight, relabel


def c3_weight() -> WeightFn:
    p3 = RootedTree((0, 1, 2))
    return WeightFn(
        p3,
        {1: Fraction(8), 2: Fraction(4), 3: Fraction(2)},
        {(1, 2): Fraction(20), (2, 3): Fraction(3)},
    )


def c2_weight() -> WeightFn:
    p2 = RootedTree((0, 1))
    return WeightFn(p2, {1: Fraction(4), 2: Fraction(2)}, {(1, 2): Fraction(3)})


def test_symmetric_representative_c2():
    m = symmetric_representative(c2_weight()).to_numpy()
    assert np.allclose(m, [[4, math.sqrt(3)], [math.sqrt(3), 2]])
    assert np.allclose(eigenvalues_sym(m), [1, 5])


def test_symmetric_representative_path_adjacency():
    p3 = RootedTree((0, 1, 2))
    w = WeightFn(p3, {1: 0.0, 2: 0.0, 3: 0.0}, {(1, 2): 1.0, (2, 3): 1.0})
    vals = spectrum_of(w)
    assert np.allclose(vals, [-math.sqrt(2), 0, math.sqrt(2)])


def test_symmetric_representative_c3():
    assert np.allclose(spectrum_of(c3_weight()), [0, 3, 11], atol=1e-9)


def _eigensolver_calls(node) -> int:
    return sum(
        isinstance(n, ast.Call)
        and "eigenvalues_sym" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
        for n in ast.walk(node)
    )


def test_dense_eigensolver_has_one_caller():
    # every dense spectrum of a weight goes through weights.spectrum_of
    src = Path(hedge_iep.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in src.glob("*.py")}
    calls = {name: _eigensolver_calls(t) for name, t in trees.items()}
    assert {name: k for name, k in calls.items() if k} == {"weights.py": 1}
    (fn,) = [
        n for n in trees["weights.py"].body
        if isinstance(n, ast.FunctionDef) and n.name == "spectrum_of"
    ]
    assert _eigensolver_calls(fn) == 1


def test_nonpositive_edge_rejected():
    p2 = RootedTree((0, 1))
    with pytest.raises(NonPositiveEdgeWeight):
        WeightFn(p2, {1: 0.0, 2: 0.0}, {(1, 2): 0.0})


def test_unit_lower_c3_exact():
    m = unit_lower_representative(c3_weight())
    assert m.entries == (
        (Fraction(8), Fraction(20), Fraction(0)),
        (Fraction(1), Fraction(4), Fraction(3)),
        (Fraction(0), Fraction(1), Fraction(2)),
    )
    assert m.weight() == c3_weight()
    a = m.to_numpy()
    assert a.dtype == np.float64
    assert a.tolist() == [[8.0, 20.0, 0.0], [1.0, 4.0, 3.0], [0.0, 1.0, 2.0]]


def test_unit_lower_small():
    p1 = RootedTree((0,))
    w = WeightFn(p1, {1: Fraction(7)}, {})
    assert unit_lower_representative(w).entries == ((Fraction(7),),)
    p2 = RootedTree((0, 1))
    w2 = WeightFn(p2, {1: Fraction(0), 2: Fraction(0)}, {(1, 2): Fraction(4)})
    m2 = unit_lower_representative(w2)
    assert m2.entries == ((Fraction(0), Fraction(4)), (Fraction(1), Fraction(0)))
    assert np.allclose(eigenvalues_sym(symmetric_representative(w2.as_float()).to_numpy()), [-2, 2])


def _reference_dense(w: WeightFn, symmetric: bool) -> tuple:
    """The n-by-n nested-list builder of both representatives that the
    storage by nonzeros replaced, kept as its oracle."""
    t = w.tree
    zero = 0.0 if symmetric else w.v(t.root) * 0
    rows = [[zero] * t.n for _ in range(t.n)]
    for u in t.vertices:
        rows[u - 1][u - 1] = float(w.v(u)) if symmetric else w.v(u)
    for u, v in t.edges:
        if symmetric:
            rows[u - 1][v - 1] = rows[v - 1][u - 1] = math.sqrt(float(w.e(u, v)))
        else:
            rows[v - 1][u - 1] = zero + 1
            rows[u - 1][v - 1] = w.e(u, v)
    return tuple(tuple(r) for r in rows)


def _weight_of_dense(t: RootedTree, rows) -> WeightFn:
    vw = {u: rows[u - 1][u - 1] for u in t.vertices}
    ew = {(u, v): rows[u - 1][v - 1] * rows[v - 1][u - 1] for u, v in t.edges}
    return WeightFn(t, vw, ew)


def _pattern_trees(rng):
    yield from (random_tree(int(rng.integers(1, 16)), rng) for _ in range(12))
    for hedge in (ten_vertex_hedge(), smallest_lush_hedge(3), random_lush_hedge(rng)):
        yield relabel(hedge, rng)[0]
    for n in (1, 2, 9):
        yield RootedTree(tuple(range(n)))  # paths
        yield relabel(RootedTree((0,) + (1,) * n), rng)[0]  # stars


def test_nonzero_storage_matches_dense_reference(rng):
    for t in _pattern_trees(rng):
        for exact in (False, True):
            w = random_weight(t, rng, exact=exact)
            for rep, symmetric in ((symmetric_representative, True), (unit_lower_representative, False)):
                m = rep(w)
                ref = _reference_dense(w, symmetric)
                dense = np.array(ref, dtype=float)
                a = m.to_numpy()
                assert a.dtype == np.float64 and np.array_equal(a, dense)
                if symmetric:  # the array handed to the eigensolver, bit for bit
                    assert a.tobytes() == dense.tobytes()
                assert m.entries == ref
                assert m.weight() == _weight_of_dense(t, ref)
            assert unit_lower_representative(w).weight() == w


def test_package_never_reads_dense_entries(monkeypatch, tmp_path):
    def dense(self):
        raise AssertionError("WeightedMatrix.entries read")

    monkeypatch.setattr(WeightedMatrix, "entries", property(dense))
    tree, w_file = tmp_path / "t31.json", tmp_path / "w.json"
    save_tree(smallest_lush_hedge(3), tree)
    lam = ["--alpha1", "0", "--alpha2", "1", "--beta2", "-1", "--beta3", "2", "--beta4", "3"]
    for argv in (
        ["lambda", "build", *lam, "--n", "9"],
        ["pth", "construct", *lam, "--tree", str(tree), "--out", str(w_file)],
        ["weights", "spectrum", str(w_file)],
        ["pth", "recognize", str(w_file)],
        ["repro", "table1"],
    ):
        assert main(argv) == 0, argv
    # a dense table of this path would hold 4e8 entries
    n = 20000
    path = RootedTree(tuple(range(n)))
    w = WeightFn(path, {u: Fraction(u % 7) for u in path.vertices}, {e: Fraction(2) for e in path.edges})
    assert unit_lower_representative(w).weight() == w
    sym = symmetric_representative(w)
    assert sym.n == n and sym.weight().tree == path
    assert sym.upper == sym.lower == (math.sqrt(2),) * (n - 1)


def test_duplicate_branch_spectrum_law():
    w = c3_weight()
    split = DuplicationSplit((Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))
    w2 = duplicate_branch(w, 1, 2, split)
    assert w2.tree.n == 7
    got = spectrum_of(w2.as_float())
    want = sorted([0, 3, 11] + 2 * [1, 5])
    assert np.allclose(got, want, atol=1e-8)


def test_duplicate_identity():
    w = c3_weight()
    w2 = duplicate_branch(w, 1, 2, DuplicationSplit((Fraction(1),)))
    assert w2 == w


def test_duplicate_leaf_direct_eigen():
    p2 = RootedTree((0, 1))
    w = WeightFn(p2, {1: 1.0, 2: -1.0}, {(1, 2): 2.0})
    w2 = duplicate_branch(w, 1, 2, DuplicationSplit((0.5, 0.5)))
    direct = spectrum_of(w2)
    want = sorted(list(spectrum_of(w)) + [-1.0])
    assert np.allclose(direct, want, atol=1e-9)


def test_duplicate_errors():
    w = c3_weight()
    with pytest.raises(NotABranch):
        duplicate_branch(w, 1, 3, DuplicationSplit((Fraction(1),)))
    with pytest.raises(BadSplit):
        DuplicationSplit((Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(BadSplit):
        DuplicationSplit((Fraction(3, 2), Fraction(-1, 2)))


def test_collapsible_branches_ph_member(hedge10):
    from hedge_iep.pth import ph_construct

    w = ph_construct(c3_weight(), hedge10)
    groups = collapsible_branches(w, 2)
    assert groups == [[3, 8]]
    # at the root the three height-1 branches carry equal weights too
    assert collapsible_branches(w, 1) == [[2, 4, 6]]


def test_collapsible_branches_p4_internal():
    p4 = RootedTree((0, 1, 2, 3))
    w = WeightFn(
        p4,
        {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0},
        {(1, 2): 1.0, (2, 3): 1.0, (3, 4): 1.0},
    )
    assert collapsible_branches(w, 2) == [[3]]


def test_collapsible_unequal_vertex_weights():
    t = RootedTree((0, 1, 1))
    w = WeightFn(t, {1: 0.0, 2: 1.0, 3: 2.0}, {(1, 2): 1.0, (1, 3): 1.0})
    assert collapsible_branches(w, 1) == [[2], [3]]


def test_collapse_ph_leaves(hedge10):
    from hedge_iep.pth import ph_construct

    w = ph_construct(c3_weight(), hedge10)
    before = spectrum_of(w.as_float())
    res = collapse_pendent_k_paths(w, 1)
    assert res.removed_count == 3
    after = spectrum_of(res.weight.as_float())
    # three copies of the leaf diagonal value 2 disappear
    want = sorted(before.tolist())
    for _ in range(3):
        idx = int(np.argmin(np.abs(np.array(want) - 2.0)))
        want.pop(idx)
    assert np.allclose(after, want, atol=1e-8)


def test_collapse_not_collapsible():
    t = RootedTree((0, 1, 1))
    w = WeightFn(t, {1: 0.0, 2: 1.0, 3: 2.0}, {(1, 2): 1.0, (1, 3): 1.0})
    with pytest.raises(NotCollapsible):
        collapse_pendent_k_paths(w, 1)


def test_collapse_nan_weight_is_not_collapsible():
    t = RootedTree((0, 1, 1))
    w = WeightFn(t, {1: 0.0, 2: float("nan"), 3: 5.0}, {(1, 2): 1.0, (1, 3): 1.0})
    with pytest.raises(NotCollapsible):
        collapse_pendent_k_paths(w, 1)


def test_collapse_two_paths_internal_edge():
    """Two pendent 2-paths at the root that differ only in their internal edge."""
    t = RootedTree((0, 1, 2, 1, 4))

    def weight(e23, e45):
        num = type(e23)
        vw = {1: num(0), 2: num(1), 3: num(2), 4: num(1), 5: num(2)}
        return WeightFn(t, vw, {(1, 2): num(1), (2, 3): e23, (1, 4): num(2), (4, 5): e45})

    with pytest.raises(NotCollapsible):
        collapse_pendent_k_paths(weight(Fraction(1), Fraction(1) + Fraction(1, 10**12)), 2)
    with pytest.raises(NotCollapsible):
        collapse_pendent_k_paths(weight(1.0, 1.0 + 1e-6), 2)
    res = collapse_pendent_k_paths(weight(1.0, 1.0 + 1e-12), 2)
    assert res.removed_count == 1
    assert res.weight.tree == RootedTree((0, 1, 2))
    assert res.weight.e(1, 2) == 3.0 and res.weight.e(2, 3) == 1.0


def test_full_cascade_recovers_path(hedge10):
    from hedge_iep.pth import ph_construct

    w = ph_construct(c3_weight(), hedge10)
    r1 = collapse_pendent_k_paths(w, 1)
    r2 = collapse_pendent_k_paths(r1.weight, 2)
    assert r2.weight == c3_weight()
    assert (r1.removed_count, r2.removed_count) == (3, 2)


def test_round_trip_exact(rng):
    checked = 0
    for _ in range(60):
        t = random_tree(int(rng.integers(2, 10)), rng)
        w = random_weight(t, rng, exact=True)
        candidates = [v for v in t.vertices if t.children[v]]
        v = candidates[int(rng.integers(0, len(candidates)))]
        b0 = t.children[v][0]
        sub = t.subtree_vertices(b0)
        if any(len(t.children[u]) > 1 for u in sub):
            continue  # the branch must be a hanging chain
        k = len(sub)
        s = int(rng.integers(1, 4))
        parts = [Fraction(int(rng.integers(1, 5))) for _ in range(s + 1)]
        total = sum(parts)
        split = DuplicationSplit(tuple(p / total for p in parts))
        w2 = duplicate_branch(w, v, b0, split)
        try:
            back = collapse_pendent_k_paths(w2, k)
        except NotCollapsible:
            # some unrelated vertex carries k-chains of different weights;
            # the global collapse is then undefined by design
            continue
        if back.weight.tree.n != t.n:
            continue  # an unrelated equal-weight group also collapsed
        assert back.weight == w
        checked += 1
    assert checked >= 15


def test_spectrum_law_random(rng):
    checked = 0
    for _ in range(60):
        t = random_tree(int(rng.integers(2, 13)), rng)
        w = random_weight(t, rng)
        candidates = [u for u in t.vertices if t.children[u]]
        v = candidates[int(rng.integers(0, len(candidates)))]
        kids = t.children[v]
        b0 = kids[int(rng.integers(0, len(kids)))]
        s = int(rng.integers(1, 4))
        raw = rng.uniform(0.2, 1.0, size=s + 1)
        split = DuplicationSplit(tuple(float(x) for x in raw / raw.sum()))
        w2 = duplicate_branch(w, v, b0, split)
        got = spectrum_of(w2)
        sub = t.subtree_vertices(b0)
        branch_spec = spectrum_of(
            WeightFn(
                *_restrict(w, sub)
            )
        )
        want = np.sort(np.concatenate([spectrum_of(w)] + [branch_spec] * s))
        width = max(1.0, want[-1] - want[0])
        assert np.max(np.abs(got - want)) <= 1e-8 * width
        checked += 1
    assert checked >= 40


def _restrict(w, vertices):
    from hedge_iep.trees import induced_tree

    sub, back = induced_tree(w.tree, vertices)
    vw = {i: w.v(back[i]) for i in sub.vertices}
    ew = {(u, v): w.e(back[u], back[v]) for u, v in sub.edges}
    return sub, vw, ew


def test_representatives_cospectral(rng):
    for _ in range(10):
        t = random_tree(int(rng.integers(2, 10)), rng)
        w = random_weight(t, rng)
        sym = eigenvalues_sym(symmetric_representative(w).to_numpy())
        low = unit_lower_representative(w).to_numpy()
        vals = np.sort(np.real(np.linalg.eigvals(low)))
        assert np.allclose(sym, vals, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
def test_duplicate_keeps_original_spectrum(s, seed):
    # the original eigenvalues survive duplication as a sub-multiset
    rng = np.random.default_rng(seed)
    t = random_tree(int(rng.integers(2, 8)), rng)
    w = random_weight(t, rng)
    v = next(v for v in t.vertices if t.children[v]) if any(
        t.children[v] for v in t.vertices
    ) else None
    if v is None:
        return
    b0 = t.children[v][0]
    raw = rng.uniform(0.2, 1.0, size=s + 1)
    split = DuplicationSplit(tuple(float(x) for x in raw / raw.sum()))
    w2 = duplicate_branch(w, v, b0, split)
    before = spectrum_of(w)
    after = list(spectrum_of(w2))
    width = max(1.0, float(before[-1] - before[0]))
    for x in before:
        idx = int(np.argmin(np.abs(np.array(after) - x)))
        assert abs(after[idx] - x) <= 1e-8 * width
        after.pop(idx)


def test_json_round_trip(tmp_path):
    w = c3_weight()
    path_file = tmp_path / "w.json"
    save_weight(w, path_file)
    again = load_weight(path_file)
    assert again == w
    wf = w.as_float()
    assert weight_from_json(weight_to_json(wf)) == wf
