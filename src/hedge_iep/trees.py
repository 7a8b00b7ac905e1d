"""Rooted trees, hedges and the pendent-path machinery.

Vertices are labelled 1..n and the root of a generated tree is vertex 1.
A hedge is a rooted tree whose leaves are all equidistant from the root;
the branching profile ``ell`` counts, per height, how many pendent paths
were duplicated to grow the hedge out of a bare path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence


class TreeError(ValueError):
    pass


class CycleDetected(TreeError):
    pass


class Disconnected(TreeError):
    pass


class MultipleRoots(TreeError):
    pass


class NotAHedge(TreeError):
    pass


class NotLush(TreeError):
    pass


@dataclass(frozen=True)
class RootedTree:
    """Immutable rooted tree given by a 1-based parent array (root maps to 0)."""

    parent: tuple[int, ...]

    def __post_init__(self) -> None:
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
        for v in self.vertices:
            p = self.parent[v - 1]
            if p not in (0, v):
                ch[p].append(v)
        return {v: tuple(sorted(c)) for v, c in ch.items()}

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for v in self.vertices:
            p = self.parent[v - 1]
            if p not in (0, v):
                out.append((min(p, v), max(p, v)))
        return tuple(sorted(out))

    @cached_property
    def depth(self) -> dict[int, int]:
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
        """Height of every vertex (distance to the farthest leaf below it)."""
        h: dict[int, int] = {}
        for v in sorted(self.vertices, key=lambda u: -self.depth[u]):
            h[v] = 1 + max((h[c] for c in self.children[v]), default=-1)
        return h

    @property
    def height(self) -> int:
        return self.height_map[self.root]

    def subtree_vertices(self, v: int) -> tuple[int, ...]:
        out = []
        stack = [v]
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(self.children[u])
        return tuple(sorted(out))


@dataclass(frozen=True)
class HedgeProfile:
    """Level statistics of a hedge: sizes |V_i| and branching numbers ell_i."""

    height: int
    level_sizes: tuple[int, ...]  # |V_0|, ..., |V_H|
    ell: tuple[int, ...]  # ell_1, ..., ell_{H+1}

    def ell_at(self, i: int) -> int:
        """ell_i with the convention ell_i = 0 for i outside 1..H+1."""
        if 1 <= i <= self.height + 1:
            return self.ell[i - 1]
        return 0

    @property
    def n(self) -> int:
        return sum(self.level_sizes)


@dataclass(frozen=True)
class PendentPath:
    """An induced path hanging off the tree, attached at exactly one end."""

    vertices: tuple[int, ...]  # ordered from the attached end outwards
    attach_point: int

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class SubtreeChain:
    """The chain T = T^(0) >= T^(1) >= ... >= T^(H) = P_{H+1} of a hedge."""

    tree: RootedTree
    vertex_sets: tuple[frozenset[int], ...]
    star_child: dict[int, int]

    @property
    def height(self) -> int:
        return len(self.vertex_sets) - 1

    def vertices_at(self, h: int) -> frozenset[int]:
        return self.vertex_sets[h]


def is_hedge(t: RootedTree) -> bool:
    if t.n == 1:
        return True
    depths = {t.depth[v] for v in t.leaves}
    return len(depths) == 1


def _require_hedge(t: RootedTree) -> None:
    if not is_hedge(t):
        raise NotAHedge("leaves are not equidistant from the root")


def is_lush(t: RootedTree) -> bool:
    """True iff every height-1 vertex has >= 2 children and every higher
    internal vertex has >= 3."""
    _require_hedge(t)
    if t.n == 1:
        return True
    h = t.height_map
    for v in t.vertices:
        k = len(t.children[v])
        if k == 0:
            continue
        if h[v] == 1 and k < 2:
            return False
        if h[v] >= 2 and k < 3:
            return False
    return True


def profile(t: RootedTree) -> HedgeProfile:
    _require_hedge(t)
    h = t.height_map
    height = t.height
    sizes = [0] * (height + 1)
    for v in t.vertices:
        sizes[h[v]] += 1
    ell = [sizes[i - 1] - sizes[i] for i in range(1, height + 1)] + [1]
    return HedgeProfile(height, tuple(sizes), tuple(ell))


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
    """All pendent k-paths, ordered by (attach point, first vertex)."""
    if k < 1:
        return []
    out = []
    for v in t.vertices:
        for c in t.children[v]:
            chain = [c]
            cur = c
            ok = True
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
                out.append(PendentPath(tuple(chain), v))
    out.sort(key=lambda q: (q.attach_point, q.vertices))
    return out


def subtree_chain(t: RootedTree) -> SubtreeChain:
    """Subtree chain of a hedge; the smallest-labelled child of each vertex
    is its distinguished one."""
    _require_hedge(t)
    h = t.height_map
    height = t.height
    star = {v: min(t.children[v]) for v in t.vertices if t.children[v]}
    sets = []
    for level in range(height + 1):
        keep = {v for v in t.vertices if h[v] >= level}
        for v in list(keep):
            if h[v] == level:
                u = v
                for _ in range(level):
                    u = star[u]
                    keep.add(u)
        sets.append(frozenset(keep))
    return SubtreeChain(t, tuple(sets), star)


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


def save_tree(t: RootedTree, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(tree_to_json(t), fh)
        fh.write("\n")
