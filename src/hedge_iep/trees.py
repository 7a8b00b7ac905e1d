"""Rooted trees, hedges and the pendent-path machinery.

Vertices are labelled 1..n and the root of a generated tree is vertex 1.
A hedge is a rooted tree whose leaves are all equidistant from the root;
the branching profile ``ell`` counts, per height, how many pendent paths
were duplicated to grow the hedge out of a bare path.
"""

from __future__ import annotations

import json
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from . import Frozen


class TreeError(ValueError):
    pass


class CycleDetected(TreeError):
    pass


class MultipleRoots(TreeError):
    pass


class NotAHedge(TreeError):
    pass


class NotLush(TreeError):
    pass


class RootedTree(Frozen):
    """Immutable rooted tree given by a 1-based parent array (root maps to 0)."""

    # the dict is the tree's memo: its cached properties, and what `covers`
    # keeps there.  Frozen compares, hashes and pickles the parent array
    # alone, so the memo never reaches ==, hash, repr or a copy
    __slots__ = ("parent", "__dict__")

    def __init__(self, parent: tuple[int, ...]) -> None:
        object.__setattr__(self, "parent", parent)
        n = len(self.parent)
        if n == 0:
            raise TreeError("empty vertex set")
        roots = [v for v in range(1, n + 1) if self.parent[v - 1] in (0, v)]
        if len(roots) > 1:
            raise MultipleRoots(f"vertices {roots} all claim to be the root")
        if not roots:
            raise CycleDetected("no root vertex")
        for v in range(1, n + 1):
            p = self.parent[v - 1]
            if not (0 <= p <= n):
                raise TreeError(f"parent of {v} out of range: {p}")
        # every vertex but the root has exactly one parent, so the array is a
        # tree iff the walk down from the root reaches all n vertices
        if len(self.depth) < n:
            lost = min(v for v in self.vertices if v not in self.depth)
            raise CycleDetected(f"vertex {lost} does not reach the root: its parent walk cycles")

    @property
    def n(self) -> int:
        return len(self.parent)

    @cached_property
    def root(self) -> int:
        for v in range(1, self.n + 1):
            if self.parent[v - 1] in (0, v):
                return v
        raise CycleDetected("no root")  # unreachable after validation

    @cached_property
    def children(self) -> dict[int, tuple[int, ...]]:
        ch: dict[int, list[int]] = {v: [] for v in self.vertices}
        for v, p in enumerate(self.parent, start=1):
            if p and p != v:
                ch[p].append(v)
        return {v: tuple(c) for v, c in ch.items()}  # appended in label order

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        pairs = enumerate(self.parent, start=1)
        return tuple(sorted([(p, v) if p < v else (v, p) for v, p in pairs if p and p != v]))

    @cached_property
    def depth(self) -> dict[int, int]:
        """Depth of every vertex, listed with each vertex after its parent:
        the tree walks read this order forwards or backwards, never sorted."""
        d = {self.root: 0}
        stack = [self.root]
        while stack:
            u = stack.pop()
            for c in self.children[u]:
                d[c] = d[u] + 1
                stack.append(c)
        return d

    @cached_property
    def leaves(self) -> tuple[int, ...]:
        if self.n == 1:
            return (self.root,)
        return tuple(v for v in self.vertices if not self.children[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        p = self.parent[v - 1]
        nb = list(self.children[v])
        if p not in (0, v):
            nb.append(p)
        return tuple(sorted(nb))

    @cached_property
    def height_map(self) -> dict[int, int]:
        """Height of every vertex (distance to the farthest leaf below it),
        read up `depth` from the leaves."""
        h: dict[int, int] = {}
        ch = self.children
        for v in reversed(self.depth):
            kids = ch[v]
            h[v] = 1 + max([h[c] for c in kids]) if kids else 0
        return h

    @property
    def height(self) -> int:
        return self.height_map[self.root]

    @cached_property
    def child_edges(self) -> dict[int, tuple[int, tuple[tuple[int, int], ...]]]:
        """(height, keys of the edges to the children in label order) of every
        vertex, in label order: the recipe tables read the child edge weights
        by these keys."""
        hm, ch = self.height_map, self.children
        return {
            v: (hm[v], tuple([(v, c) if v < c else (c, v) for c in ch[v]])) for v in self.vertices
        }

    @cached_property
    def _hedge(self) -> bool:
        if self.n == 1:
            return True
        return len({self.depth[v] for v in self.leaves}) == 1

    @cached_property
    def _lush(self) -> bool:
        _require_hedge(self)
        if self.n == 1:
            return True
        h = self.height_map
        for v in self.vertices:
            k = len(self.children[v])
            if k == 0:
                continue
            if h[v] == 1 and k < 2:
                return False
            if h[v] >= 2 and k < 3:
                return False
        return True

    @cached_property
    def _profile(self) -> "HedgeProfile":
        _require_hedge(self)
        h = self.height_map
        height = self.height
        sizes = [0] * (height + 1)
        for v in self.vertices:
            sizes[h[v]] += 1
        ell = [sizes[i - 1] - sizes[i] for i in range(1, height + 1)] + [1]
        return HedgeProfile(height, tuple(sizes), tuple(ell))

    def subtree_vertices(self, v: int) -> tuple[int, ...]:
        out = []
        stack = [v]
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(self.children[u])
        return tuple(sorted(out))


class HedgeProfile(Frozen):
    """Level statistics of a hedge: sizes |V_0|, ..., |V_H| and branching
    numbers ell_1, ..., ell_{H+1}."""

    __slots__ = ("height", "level_sizes", "ell")

    def __init__(self, height: int, level_sizes: tuple[int, ...], ell: tuple[int, ...]) -> None:
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "level_sizes", level_sizes)
        object.__setattr__(self, "ell", ell)

    def ell_at(self, i: int) -> int:
        """ell_i with the convention ell_i = 0 for i outside 1..H+1."""
        if 1 <= i <= self.height + 1:
            return self.ell[i - 1]
        return 0

    @property
    def n(self) -> int:
        return sum(self.level_sizes)


class PendentPath(Frozen):
    """An induced path hanging off the tree, attached at exactly one end;
    its vertices run from the attached end outwards."""

    __slots__ = ("vertices", "attach_point")

    def __init__(self, vertices: tuple[int, ...], attach_point: int) -> None:
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "attach_point", attach_point)

    def __len__(self) -> int:
        return len(self.vertices)


class SubtreeChain(Frozen):
    """The chain T = T^(0) >= T^(1) >= ... >= T^(H) = P_{H+1} of a hedge."""

    __slots__ = ("tree", "vertex_sets")

    def __init__(self, tree: RootedTree, vertex_sets: tuple[frozenset[int], ...]) -> None:
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "vertex_sets", vertex_sets)

    @property
    def height(self) -> int:
        return len(self.vertex_sets) - 1

    def vertices_at(self, h: int) -> frozenset[int]:
        return self.vertex_sets[h]


def is_hedge(t: RootedTree) -> bool:
    """True iff every leaf lies at the same depth; computed once per tree."""
    return t._hedge


def _require_hedge(t: RootedTree) -> None:
    if not is_hedge(t):
        raise NotAHedge("leaves are not equidistant from the root")


def is_lush(t: RootedTree) -> bool:
    """True iff every height-1 vertex has >= 2 children and every higher
    internal vertex has >= 3; computed once per tree."""
    return t._lush


def profile(t: RootedTree) -> HedgeProfile:
    """The level sizes and branching numbers of a hedge; computed once per
    tree."""
    return t._profile


def build_hedge(parents: Sequence[int]) -> RootedTree:
    """The tree of a parent array (the root maps to 0)."""
    return RootedTree(tuple(parents))


def smallest_lush_hedge(height: int) -> RootedTree:
    """Minimal lush hedge of the given height: three children at every
    internal vertex above height 1, leaf pairs below, labelled level by level."""
    parent = [0]
    level = [1]
    for depth in range(height):
        arity = 2 if depth == height - 1 else 3
        level_below = []
        for p in level:
            for _ in range(arity):
                parent.append(p)
                level_below.append(len(parent))
        level = level_below
    return RootedTree(tuple(parent))


def ten_vertex_hedge() -> RootedTree:
    """The 10-vertex height-2 lush hedge with profile (3, 2, 1)."""
    return RootedTree((0, 1, 2, 1, 4, 1, 6, 2, 4, 6))


def pendent_paths(t: RootedTree, k: int) -> list[PendentPath]:
    """All pendent k-paths, ordered by (attach point, first vertex): from
    each child, in label order, a walk down through single children that
    must end at a leaf after k vertices."""
    out = []
    for v in t.vertices:
        for c in t.children[v]:
            chain = [c]
            while len(chain) <= k and len(t.children[chain[-1]]) == 1:
                chain.append(t.children[chain[-1]][0])
            if len(chain) == k and not t.children[chain[-1]]:
                out.append(PendentPath(tuple(chain), v))
    return out


def subtree_chain(t: RootedTree) -> SubtreeChain:
    """Subtree chain of a hedge; the smallest-labelled child of each vertex
    is its distinguished one.  T^(h) is one top-down pass over `depth`: a
    vertex of height >= h, or the distinguished child of a kept one."""
    _require_hedge(t)
    h = t.height_map
    sets = []
    for level in range(t.height + 1):
        keep: set[int] = set()
        for v in t.depth:
            p = t.parent[v - 1]
            if h[v] >= level or (p in keep and v == t.children[p][0]):
                keep.add(v)
        sets.append(frozenset(keep))
    return SubtreeChain(t, tuple(sets))


def induced_tree(t: RootedTree, vertices: Iterable[int]) -> tuple[RootedTree, dict[int, int]]:
    """Relabel an induced connected-through-root subset as a RootedTree.

    Returns the new tree and the map new label -> old label.
    """
    vs = sorted(vertices)
    old_to_new = {v: i + 1 for i, v in enumerate(vs)}
    parent = []
    for v in vs:
        p = t.parent[v - 1]
        if p in (0, v) or p not in old_to_new:
            parent.append(0)
        else:
            parent.append(old_to_new[p])
    sub = RootedTree(tuple(parent))
    return sub, {i + 1: v for i, v in enumerate(vs)}


def ahu_encoding(t: RootedTree, root: int | None = None) -> str:
    """Canonical rooted-tree string; equal strings iff rooted-isomorphic."""
    if root is None:
        root = t.root

    def enc(v: int) -> str:
        return "(" + "".join(sorted(enc(c) for c in t.children[v])) + ")"

    return enc(root)


def tree_to_json(t: RootedTree) -> dict:
    parent = [0 if t.parent[v - 1] == v else t.parent[v - 1] for v in t.vertices]
    return {"n": t.n, "parent": parent}


def tree_from_json(data: dict) -> RootedTree:
    if not isinstance(data, dict) or not {"n", "parent"} <= set(data):
        raise TreeError("tree JSON needs 'n' and 'parent'")
    if not isinstance(data["parent"], list):
        raise TreeError("tree JSON 'parent' must be a list")
    n, parent = data["n"], tuple(data["parent"])
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in (n, *parent)):
        raise TreeError("tree JSON 'n' and 'parent' entries must be integers")
    if len(parent) != n:
        raise TreeError("parent array length disagrees with n")
    return RootedTree(parent)


def read_json(path: str | Path):
    """The JSON value in a file; nesting too deep to decode is malformed
    input (ValueError), not a crash."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def load_tree(path: str | Path) -> RootedTree:
    return tree_from_json(read_json(path))
