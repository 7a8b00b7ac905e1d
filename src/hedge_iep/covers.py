"""Path covers, zero forcing and the minimal-cover formulas for hedges.

Everything here works on induced subforests of a rooted tree, since the
combinatorial lemmas are applied to trees with level sets or pendent paths
deleted.  One greedy pass from the leaves up finds a minimum path cover,
and for forests Z = P: the first vertex of every path it builds is a
minimum zero forcing set.
"""

from __future__ import annotations

import heapq
from itertools import combinations

from . import Frozen, numeric
from .trees import (
    HedgeProfile,
    NotLush,
    PendentPath,
    RootedTree,
    induced_tree,
    is_lush,
    pendent_paths,
    subtree_chain,
)


class BadPath(ValueError):
    pass


class SubtreesNotIndependent(ValueError):
    pass


class SubmatrixSingular(ValueError):
    pass


Adjacency = dict[int, set[int]]


def _memo(t: RootedTree, name: str, build):
    """build(t) for the whole tree, computed once per tree and kept in the
    tree's memo (its `__dict__`, which stays out of its value) under name.
    The readers in this module share the value and never change it."""
    memo = t.__dict__
    if name not in memo:
        memo[name] = build(t)
    return memo[name]


def _induced_adjacency(t: RootedTree, vertices) -> Adjacency:
    vs = set(vertices)
    adj: Adjacency = {v: set() for v in vs}
    for u, v in t.edges:
        if u in vs and v in vs:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def _adjacency(t: RootedTree, vertices=None) -> Adjacency:
    """The adjacency of the induced subforest; the whole tree's is built once
    per tree."""
    if vertices is not None:
        return _induced_adjacency(t, vertices)
    return _memo(t, "covers.adjacency", lambda t: _induced_adjacency(t, t.vertices))


def _walk(adj: Adjacency) -> tuple[list[int], list[tuple[int, int]]]:
    """Depth-first walk of each component from its smallest vertex: the
    visiting order (each vertex after its parent) and the tree edges
    (parent, child) in the order they are found."""
    order: list[int] = []
    edges: list[tuple[int, int]] = []
    seen: set[int] = set()
    for root in sorted(adj):
        if root in seen:
            continue
        seen.add(root)
        stack = [root]
        while stack:
            u = stack.pop()
            order.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    edges.append((u, w))
                    stack.append(w)
    return order, edges


def _path_partition(adj: Adjacency) -> list[tuple[int, ...]]:
    """Minimum partition of a forest into induced paths, by one greedy pass
    from the leaves up (Boesch, Chen and McHugh, 1974).

    The `_walk` order is read backwards, so every vertex comes after its
    children.  A vertex joins the open paths of its first two children
    through itself and closes the rest, extends the one open path below it,
    or starts a new path.  Every path is listed from the vertex where it
    started; a joined path runs down the second child's branch after the
    join.
    """
    paths: list[list[int]] = []
    tails: dict[int, list[int]] = {}  # the open path ending at each key
    for v in reversed(_walk(adj)[0]):
        below = [tails.pop(w) for w in sorted(adj[v]) if w in tails]
        if len(below) >= 2:
            below[0] += [v] + below[1][::-1]
            paths.append(below[0])
            paths += below[2:]
        elif below:
            below[0].append(v)
            tails[v] = below[0]
        else:
            tails[v] = [v]
    return [tuple(p) for p in paths + list(tails.values())]


def _partition(t: RootedTree, vertices=None) -> tuple[tuple[int, ...], ...]:
    """The leaves-up partition of the induced subforest.  The whole tree's
    is computed once per tree, so P and Z share it."""
    if vertices is not None:
        return tuple(_path_partition(_adjacency(t, vertices)))
    return _memo(t, "covers.path_partition", lambda t: tuple(_path_partition(_adjacency(t))))


class PathCover(Frozen):
    """Vertex-disjoint induced paths, each a tuple of vertices."""

    __slots__ = ("paths",)

    def __len__(self) -> int:
        return len(self.paths)

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset(v for p in self.paths for v in p)


def _canonical_paths(paths) -> tuple[tuple[int, ...], ...]:
    out = []
    for p in paths:
        out.append(p if p[0] <= p[-1] else tuple(reversed(p)))
    return tuple(sorted(out))


def path_cover_number(t: RootedTree, vertices=None) -> tuple[int, PathCover]:
    """Minimum number of vertex-disjoint induced paths covering the induced
    subforest, with a witness cover."""
    cover = PathCover(_canonical_paths(_partition(t, vertices)))
    return len(cover), cover


def brute_force_path_cover(t: RootedTree, vertices=None) -> int:
    """Exact minimum by exhaustive search over edge subsets of maximum
    degree two (every such subset of a forest is a disjoint union of induced
    paths).  The edges are decided one at a time; what the undecided ones
    can add depends only on the degrees of the vertices with both decided
    and undecided edges, so subsets that agree there are merged, keeping
    the most edges.  Deciding the edges in depth-first order keeps those
    vertices few."""
    adj = _adjacency(t, vertices)
    edges = _walk(adj)[1]
    last = {}  # index of each vertex's last edge
    for i, (u, v) in enumerate(edges):
        last[u] = last[v] = i
    best = {(): 0}  # nonzero degrees of the open vertices -> most edges taken
    for i, (u, v) in enumerate(edges):
        step: dict[tuple, int] = {}
        for state, taken in best.items():
            deg = dict(state)
            du, dv = deg.get(u, 0), deg.get(v, 0)
            options = [(du, dv, taken)]
            if du < 2 and dv < 2:
                options.append((du + 1, dv + 1, taken + 1))
            for du, dv, count in options:
                d = {**deg, u: du, v: dv}
                key = tuple(sorted((x, k) for x, k in d.items() if k and last[x] > i))
                step[key] = max(step.get(key, 0), count)
        best = step
    return len(adj) - max(best.values())


class ForcingState(Frozen):
    """Final state of a forcing process: the derived blue set and the map
    recording who forced whom (each vertex forces at most once, and the
    forcing chains trace induced paths)."""

    __slots__ = ("blue", "chains")

    def chain_paths(self) -> tuple[tuple[int, ...], ...]:
        """The forcing chains as vertex paths, one per chain start."""
        targets = set(self.chains.values())
        paths = []
        for v in sorted(self.blue):
            if v in targets:
                continue
            chain = [v]
            while chain[-1] in self.chains:
                chain.append(self.chains[chain[-1]])
            paths.append(tuple(chain))
        return tuple(sorted(paths))


def forcing_process(t: RootedTree, blue, vertices=None) -> ForcingState:
    """Run the color change rule to a fixpoint, recording the forces.

    The derived set does not depend on the order of forces; the recorded
    chain map is the one obtained by always applying the smallest-labelled
    available force.
    """
    adj = _adjacency(t, vertices)
    b = set(blue)
    if not b <= set(adj):
        raise ValueError("blue set must be a subset of the vertex set")
    white = {v: sum(w not in b for w in adj[v]) for v in adj}
    # blue vertices with one white neighbor, by label.  A vertex enters once,
    # when it is blue and its white count is 1; counts only fall, so an entry
    # whose count has reached 0 is stale, and a vertex forces at most once
    heap = [v for v in b if white[v] == 1]
    heapq.heapify(heap)
    chains: dict[int, int] = {}
    while heap:
        v = heapq.heappop(heap)
        if not white[v]:
            continue
        w = next(x for x in adj[v] if x not in b)
        chains[v] = w
        b.add(w)
        for x in adj[w]:
            white[x] -= 1
            if white[x] == 1 and x in b:
                heapq.heappush(heap, x)
        if white[w] == 1:
            heapq.heappush(heap, w)
    return ForcingState(frozenset(b), chains)


def derived_set(t: RootedTree, blue, vertices=None) -> frozenset[int]:
    """Closure of a blue set under the color change rule (a blue vertex with
    exactly one white neighbor forces it)."""
    return forcing_process(t, blue, vertices).blue


def zero_forcing_number(t: RootedTree, vertices=None) -> tuple[int, frozenset[int]]:
    """Zero forcing number with a witness minimal forcing set.

    For forests Z equals the path cover number.  The witness is the first
    vertex of every path of the leaves-up cover: the end where the path
    started, deep in its branch, from which the chain forces up to the join
    and down the other branch.  The witness is still checked by simulation
    before it is returned: the forcing process is near-linear, and a fault
    in the pass, or in the partition it shares with `path_cover_number`,
    then raises instead of returning a set that does not force.
    """
    paths = _partition(t, vertices)
    blue = frozenset(p[0] for p in paths)
    if derived_set(t, blue, vertices) != set(t.vertices if vertices is None else vertices):
        raise AssertionError("constructed forcing set does not force the forest")
    return len(paths), blue


def brute_force_zero_forcing(t: RootedTree, vertices=None) -> int:
    """Exact Z by iterating vertex subsets in size order with early exit."""
    adj = _adjacency(t, vertices)
    vs = sorted(adj)
    full = set(vs)
    if not vs:
        return 0
    for size in range(1, len(vs) + 1):
        for blue in combinations(vs, size):
            if derived_set(t, blue, vertices) == full:
                return size
    raise AssertionError("unreachable: the full set always forces")


def M_formula(prof: HedgeProfile, h: int) -> int:
    """Path cover number of T^(h): the sum of ell_i over i >= h+1 with
    i = h+1 (mod 2); zero for h beyond the height."""
    return sum(prof.ell_at(i) for i in range(h + 1, prof.height + 2, 2))


def Mhat_formula(prof: HedgeProfile, h: int) -> int:
    """Same sum along the period-3 ladder: i >= h+1 with i = h+1 (mod 3)."""
    return sum(prof.ell_at(i) for i in range(h + 1, prof.height + 2, 3))


def sigma_counts(t: RootedTree, h: int, q: PendentPath | None = None) -> tuple[int, int]:
    """Path cover numbers (P(T^(h) minus (Q and V_hat)), P(T^(h) minus V_hat))
    where V_hat collects the vertices of height h+2 (mod 3), height >= h+2.

    For 1 <= h <= H these equal (Mhat(T^(h)) - 1, Mhat(T^(h))); at h = 0 the
    first count can exceed the formula when a height-1 vertex has exactly two
    children.  For h = H the degenerate root path is accepted as q.
    """
    if not is_lush(t):
        raise NotLush("sigma counts are stated for lush hedges")
    height = t.height
    if height < 2:
        raise NotLush("need height >= 2")
    if not 0 <= h <= height:
        raise BadPath(f"h must be in 0..{height}")
    chain = subtree_chain(t)
    tvs = chain.vertices_at(h)
    hm = t.height_map
    sub, back = induced_tree(t, tvs)
    available = [
        PendentPath(tuple(back[v] for v in p.vertices), back[p.attach_point])
        for p in pendent_paths(sub, h + 1)
    ]
    if h == height:
        available = [PendentPath(tuple(sorted(tvs)), 0)]  # degenerate root path
    if q is None:
        if not available:
            raise BadPath("no pendent path of the requested length in T^(h)")
        q = available[0]
    if set(q.vertices) not in [set(p.vertices) for p in available]:
        raise BadPath("q is not a pendent (h+1)-path of T^(h)")
    qset = set(q.vertices)
    vhat = {v for v in tvs if hm[v] >= h + 2 and (hm[v] - (h + 2)) % 3 == 0}
    p_without_q, _ = path_cover_number(t, tvs - vhat - qset)
    p_with_q, _ = path_cover_number(t, tvs - vhat)
    return p_without_q, p_with_q


def nullity_bound_check(t: RootedTree, subtrees, a) -> bool:
    """Invertible-subtrees bound: nullity(A) <= P(T minus the subtrees).

    ``subtrees`` is a list of vertex collections; they must be mutually
    independent (no edge of t between two of them) and each principal
    submatrix must be invertible, by ``numeric.numeric_nullity``.
    """
    import numpy as np

    m = np.asarray(a, dtype=float)
    subs = [sorted(set(s)) for s in subtrees]
    flat = [v for s in subs for v in s]
    if len(flat) != len(set(flat)):
        raise SubtreesNotIndependent("subtrees overlap")
    owner = {}
    for i, s in enumerate(subs):
        for v in s:
            owner[v] = i
    for u, v in t.edges:
        if u in owner and v in owner and owner[u] != owner[v]:
            raise SubtreesNotIndependent(f"edge {u}-{v} joins two subtrees")
    for s in subs:
        idx = [v - 1 for v in s]
        if numeric.numeric_nullity(m[np.ix_(idx, idx)]) > 0:
            raise SubmatrixSingular(f"submatrix on {s} is singular")
    rest = set(t.vertices) - set(flat)
    p, _ = path_cover_number(t, rest)
    return numeric.numeric_nullity(m) <= p
