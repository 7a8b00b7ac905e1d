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
from hedge_iep.lambdas import build_C, path_weight, sample_in_region
from hedge_iep.numeric import char_poly_exact, eigenvalues_sym
from hedge_iep.polys import X, level_counts
from hedge_iep.pth import ph_construct
from hedge_iep.tolerance import WEIGHT_TOL, close
from hedge_iep.trees import (
    RootedTree,
    pendent_paths,
    smallest_lush_hedge,
    ten_vertex_hedge,
)
from hedge_iep.weights import (
    CollapseResult,
    DuplicationSplit,
    BadSplit,
    NotABranch,
    NotCollapsible,
    NonPositiveEdgeWeight,
    WeightedMatrix,
    WeightFn,
    char_poly_of,
    collapse_pendent_k_paths,
    duplicate_branch,
    inertia,
    load_weight,
    save_weight,
    spectrum_of,
    symmetric_representative,
    unit_lower_representative,
    weight_from_json,
    weight_to_json,
)

from conftest import random_lush_hedge, random_splits, random_tree, random_weight, relabel, save_tree


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
    for bad in (0.0, -0.0, -1.5, math.nan, 0, -2, Fraction(0), Fraction(-1, 3)):
        with pytest.raises(NonPositiveEdgeWeight):
            WeightFn(p2, {1: 0.0, 2: 0.0}, {(1, 2): bad})
    for good in (1e-300, 2, Fraction(1, 3)):
        assert WeightFn(p2, {1: 0, 2: 0}, {(1, 2): good}).e(1, 2) == good


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
        ["repro", "table2"],
        ["repro", "splitting-t31"],
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


def _reference_collapse(w: WeightFn, k: int) -> CollapseResult:
    """The collapse by recursive branch signatures and its own renumbering
    loop that the flat weight lists and induced_tree replaced, kept as its
    oracle."""

    def signature(u: int):
        subs = sorted((w.e(u, c), signature(c)) for c in w.tree.children[u])
        return (w.v(u), tuple(subs))

    def sig_close(s1, s2) -> bool:
        (v1, subs1), (v2, subs2) = s1, s2
        return (
            len(subs1) == len(subs2)
            and close(v1, v2, WEIGHT_TOL)
            and all(
                close(e1, e2, WEIGHT_TOL) and sig_close(c1, c2)
                for (e1, c1), (e2, c2) in zip(subs1, subs2)
            )
        )

    t = w.tree
    by_vertex: dict[int, list] = {}
    for q in pendent_paths(t, k):
        by_vertex.setdefault(q.attach_point, []).append(q)
    removed_vertices: set[int] = set()
    removed_count = 0
    new_edge_at = {}
    for v in sorted(by_vertex):
        rep, *rest = sorted(by_vertex[v], key=lambda q: q.vertices[0])
        rep_sig = signature(rep.vertices[0])
        total = w.e(v, rep.vertices[0])
        for q in rest:
            if not sig_close(rep_sig, signature(q.vertices[0])):
                raise NotCollapsible(
                    v, f"paths {rep.vertices} and {q.vertices} carry different weights"
                )
            total = total + w.e(v, q.vertices[0])
            removed_vertices.update(q.vertices)
        removed_count += len(rest)
        new_edge_at[(min(v, rep.vertices[0]), max(v, rep.vertices[0]))] = total
    keep = [u for u in t.vertices if u not in removed_vertices]
    old_to_new = {u: i + 1 for i, u in enumerate(keep)}
    parent = []
    for u in keep:
        p = t.parent[u - 1]
        parent.append(0 if p in (0, u) else old_to_new[p])
    vw = {old_to_new[u]: w.v(u) for u in keep}
    ew = {}
    for u, x in t.edges:
        if u in removed_vertices or x in removed_vertices:
            continue
        a, b = sorted((old_to_new[u], old_to_new[x]))
        ew[(a, b)] = new_edge_at.get((u, x), w.e(u, x))
    return CollapseResult(WeightFn(RootedTree(tuple(parent)), vw, ew), removed_count)


def _collapse_inputs(rng):
    """Random weights, the same with a hanging chain duplicated and then one
    weight of a copy moved by less or more than WEIGHT_TOL, and path-to-hedge
    members; exact and float."""
    from hedge_iep.pth import ph_construct

    for exact in (True, False):
        for _ in range(40):
            t = random_tree(int(rng.integers(1, 12)), rng)
            w = random_weight(t, rng, exact)
            yield w
            chains = [
                (v, c)
                for v in t.vertices
                for c in t.children[v]
                if all(len(t.children[u]) < 2 for u in t.subtree_vertices(c))
            ]
            if not chains:
                continue
            v, c = chains[int(rng.integers(0, len(chains)))]
            parts = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(2, 5)))]
            split = [Fraction(p, sum(parts)) if exact else p / sum(parts) for p in parts]
            w2 = duplicate_branch(w, v, c, DuplicationSplit(tuple(split)))
            yield w2
            copy = [u for u in w2.tree.vertices if u > t.n]  # the last copies
            u = copy[int(rng.integers(0, len(copy)))]
            for eps in (1e-12, 5e-10, 2e-9, 1e-6):
                step = Fraction(eps) if exact else eps
                vw = dict(w2.vertex_weight)
                ew = dict(w2.edge_weight)
                p = w2.tree.parent[u - 1]
                if rng.integers(0, 2) and p > t.n:  # an internal edge of the copy
                    ew[(min(u, p), max(u, p))] += step
                else:
                    vw[u] += step
                yield WeightFn(w2.tree, vw, ew)
        for hedge in (ten_vertex_hedge(), smallest_lush_hedge(3), random_lush_hedge(rng)):
            hedge = relabel(hedge, rng)[0]
            path = random_weight(RootedTree(tuple(range(hedge.height + 1))), rng, exact)
            yield ph_construct(path, hedge, "uniform" if exact else random_splits(hedge, rng))


def test_flat_collapse_matches_signature_reference(rng):
    def run(collapse, w, k):
        try:
            res = collapse(w, k)
        except NotCollapsible as exc:
            return "NotCollapsible", str(exc)
        return res.removed_count, res.weight, repr(weight_to_json(res.weight))

    collapsed = refused = 0
    for w in _collapse_inputs(rng):
        for k in (1, 2, 3):
            got = run(collapse_pendent_k_paths, w, k)
            assert got == run(_reference_collapse, w, k)
            collapsed += got[0] not in (0, "NotCollapsible")
            refused += got[0] == "NotCollapsible"
    assert collapsed >= 50 and refused >= 50


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


def _reference_duplicate(w: WeightFn, v: int, b0: int, split: DuplicationSplit) -> WeightFn:
    """Each copy in three passes over the branch: labels, then parents and
    vertex weights, then edge weights."""
    t = w.tree
    branch = t.subtree_vertices(b0)
    parent, vw, ew = list(t.parent), dict(w.vertex_weight), dict(w.edge_weight)
    base_edge = w.e(v, b0)
    ew[(min(v, b0), max(v, b0))] = split.t[0] * base_edge
    next_label = t.n + 1
    for k in range(1, len(split)):
        remap = {}
        for u in branch:
            remap[u] = next_label
            next_label += 1
        for u in branch:
            parent.append(v if u == b0 else remap[t.parent[u - 1]])
            vw[remap[u]] = w.v(u)
        for u in branch:
            p = t.parent[u - 1]
            if u != b0:
                ew[tuple(sorted((remap[u], remap[p])))] = w.e(u, p)
        ew[tuple(sorted((v, remap[b0])))] = split.t[k] * base_edge
    return WeightFn(RootedTree(tuple(parent)), vw, ew)


def test_duplicate_branch_matches_the_three_pass_reference(rng):
    shapes = [random_tree(int(rng.integers(2, 30)), rng) for _ in range(40)]
    shapes += [relabel(random_lush_hedge(rng, 60), rng)[0] for _ in range(40)]
    for i, t in enumerate(shapes):
        exact = i % 2 == 0
        w = random_weight(t, rng, exact=exact)
        v = [u for u in t.vertices if t.children[u]][int(rng.integers(0, t.n - len(t.leaves)))]
        b0 = t.children[v][int(rng.integers(0, len(t.children[v])))]
        split = DuplicationSplit.uniform(int(rng.integers(1, 5)))
        got, want = duplicate_branch(w, v, b0, split), _reference_duplicate(w, v, b0, split)
        assert got.tree == want.tree
        assert list(got.vertex_weight.items()) == list(want.vertex_weight.items())
        assert list(got.edge_weight.items()) == list(want.edge_weight.items())


def _restrict(w, vertices):
    from hedge_iep.trees import induced_tree

    sub, back = induced_tree(w.tree, vertices)
    vw = {i: w.v(back[i]) for i in sub.vertices}
    ew = {(u, v): w.e(back[u], back[v]) for u, v in sub.edges}
    return sub, vw, ew


@pytest.mark.parametrize("shape", ["vertex", "path", "star", "random", "lush"])
def test_char_poly_of_matches_bareiss(shape, rng):
    # Bareiss elimination on the dense table shares no step with the
    # leaves-up pass, so it is the oracle
    for _ in range(4):
        n = int(rng.integers(2, 9))
        t = {
            "vertex": lambda: RootedTree((0,)),
            "path": lambda: RootedTree(tuple(range(n))),
            "star": lambda: RootedTree((0,) + (1,) * (n - 1)),
            "random": lambda: random_tree(n, rng),
            "lush": lambda: random_lush_hedge(rng, max_n=20),
        }[shape]()
        w = random_weight(t, rng, exact=True)
        p = char_poly_of(w)
        assert p == char_poly_exact(unit_lower_representative(w).entries)
        assert p.degree == t.n and p.leading() == 1


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


# ---------------------------------------------------------------------------
# the inertia kernel


def _order_of_vanishing(p, q) -> int:
    k = 0
    while True:
        quo, rem = p.divmod(X - q)
        if not rem.is_zero():
            return k
        p, k = quo, k + 1


def _subtree(w: WeightFn, v: int) -> WeightFn:
    return WeightFn(*_restrict(w, w.tree.subtree_vertices(v)))


def _with_subtree_eigenvalue(w: WeightFn, v: int, q: Fraction) -> WeightFn | None:
    """w with a_v chosen so that q is an eigenvalue of the subtree at v, or
    None where q is an eigenvalue of a child's subtree.  The subtree's
    characteristic polynomial is (x - a_v) Q_v - S with Q_v the product of
    the children's, so a_v = q - S(q) / Q_v(q) = P(q) / Q_v(q) for the P
    of a_v = 0."""
    t = w.tree
    q_v = math.prod(char_poly_of(_subtree(w, c))(q) for c in t.children[v])
    if q_v == 0:
        return None
    zeroed = WeightFn(t, {**w.vertex_weight, v: Fraction(0)}, w.edge_weight)
    a_v = char_poly_of(_subtree(zeroed, v))(q) / q_v
    return WeightFn(t, {**w.vertex_weight, v: a_v}, w.edge_weight)


def _inertia_cases(rng):
    """Exact weights and rational points, with zero pivots: leaves that share
    a weight, vertices whose subtree has the point as an eigenvalue, and
    path-to-hedge members at their distinguished values."""
    for _ in range(30):
        t = random_tree(int(rng.integers(1, 11)), rng)
        w = random_weight(t, rng, exact=True)
        leaves = {v: Fraction(int(rng.integers(-1, 2))) for v in t.vertices if not t.children[v]}
        w = WeightFn(t, {**w.vertex_weight, **leaves}, w.edge_weight)
        points = [Fraction(int(rng.integers(-12, 13)), 3) for _ in range(6)] + [-1, 0, 1]
        yield w, points
        inner = [v for v in t.vertices if t.children[v]]
        if inner:
            q = Fraction(int(rng.integers(-12, 13)), 5)
            made = _with_subtree_eigenvalue(w, inner[int(rng.integers(len(inner)))], q)
            if made is not None:
                yield made, [q]
    for t in (ten_vertex_hedge(), random_lush_hedge(rng, max_n=20), smallest_lush_hedge(3)):
        lam = sample_in_region(1, rng, exact=True)
        member = ph_construct(build_C(lam, t.height + 1), t)
        yield member, list(lam.values())


def test_inertia_at_is_the_order_of_vanishing(rng):
    zero_pivots = 0
    for w, points in _inertia_cases(rng):
        p = char_poly_of(w)
        for q in points:
            at = inertia(w, q)[1]
            assert at == _order_of_vanishing(p, q)
            zero_pivots += at > 0
    assert zero_pivots > 30


def test_inertia_two_zero_children():
    # vertex 2 has three children at pivot 0 under q = 0: one pairs with 2,
    # the edge (1, 2) is cut, and the other two count as eigenvalues 0
    t = RootedTree((0, 1, 2, 2, 2))
    w = WeightFn(
        t,
        {1: Fraction(5), 2: Fraction(7), 3: Fraction(0), 4: Fraction(0), 5: Fraction(0)},
        {(1, 2): Fraction(2), (2, 3): Fraction(1), (2, 4): Fraction(3), (2, 5): Fraction(4)},
    )
    p = char_poly_of(w)
    assert _order_of_vanishing(p, 0) == 2
    assert inertia(w, Fraction(0)) == (1, 2, 2)
    eig = spectrum_of(w)
    assert sum(eig < -1e-9) == 1 and sum(eig > 1e-9) == 2


def test_inertia_of_int_weights_matches_their_fraction_copies(rng):
    # the path 1 - 2 - 3 with a = (1, 3, -2) and edge weights 1 and 4 has
    # the eigenvalue 4, which int pivots divided as floats missed
    w = WeightFn(RootedTree((0, 1, 2)), {1: 1, 2: 3, 3: -2}, {(1, 2): 1, (2, 3): 4})
    assert w.is_exact() and inertia(w, 4) == (2, 1, 0)
    zero_pivots = 0
    for _ in range(60):
        t = random_tree(int(rng.integers(1, 9)), rng)
        vw = {v: int(rng.integers(-2, 3)) for v in t.vertices}
        ew = {e: int(rng.integers(1, 5)) for e in t.edges}
        w = WeightFn(t, vw, ew)
        copy = WeightFn(
            t, {v: Fraction(x) for v, x in vw.items()}, {e: Fraction(x) for e, x in ew.items()}
        )
        for q in range(-3, 4):
            assert inertia(w, q) == inertia(copy, Fraction(q))
            # a leaf below the root with a_v = q has the pivot 0
            zero_pivots += sum(vw[v] == q for v in t.vertices[1:] if not t.children[v])
    assert zero_pivots > 100


def test_inertia_below_matches_lapack(rng):
    for _ in range(40):
        t = random_tree(int(rng.integers(1, 13)), rng)
        w = random_weight(t, rng, exact=True)
        eig = spectrum_of(w)
        for _ in range(8):
            q = Fraction(int(rng.integers(-300, 301)), 37)
            if np.min(np.abs(eig - float(q))) < 1e-6 * max(1.0, float(eig[-1] - eig[0])):
                continue  # too close to an eigenvalue to trust the float count
            below = int(np.sum(eig < float(q)))
            assert inertia(w, q) == (below, 0, t.n - below)


def test_inertia_matches_the_level_counts_on_paths(rng):
    for _ in range(40):
        n = int(rng.integers(1, 9))
        a = [Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4))) for _ in range(n)]
        b = [Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 4))) for _ in range(n - 1)]
        w = path_weight(a, b)
        points = [a[0], a[-1]] + [Fraction(int(rng.integers(-40, 41)), 7) for _ in range(6)]
        for q in points:
            assert inertia(w, q)[0] == level_counts(a, b, q)[-1]
