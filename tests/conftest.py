"""Shared fixtures and random generators for the suite."""

from __future__ import annotations

import heapq
from fractions import Fraction

import numpy as np
import pytest

from hedge_iep.trees import RootedTree, ten_vertex_hedge, smallest_lush_hedge


def random_tree(n: int, rng: np.random.Generator) -> RootedTree:
    """Uniform random labelled tree on n vertices (Pruefer), rooted at 1."""
    if n == 1:
        return RootedTree((0,))
    if n == 2:
        return RootedTree((0, 1))
    seq = [int(rng.integers(1, n + 1)) for _ in range(n - 2)]
    degree = {v: 1 for v in range(1, n + 1)}
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = [0] * (n + 1)
    seen = {1}
    stack = [1]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                parent[y] = x
                stack.append(y)
    return RootedTree(tuple(parent[1:]))


def random_lush_hedge(rng: np.random.Generator, max_n: int = 40) -> RootedTree:
    """Random lush hedge with at most max_n vertices (height 2 or 3)."""
    for _ in range(100):
        if max_n >= 31 and rng.integers(0, 4) == 0:
            return smallest_lush_hedge(3)
        k = int(rng.integers(3, 7))
        kids = [int(rng.integers(2, 5)) for _ in range(k)]
        n = 1 + k + sum(kids)
        if n > max_n:
            continue
        parent = [0] + [1] * k
        for i, c in enumerate(kids):
            parent += [2 + i] * c
        return RootedTree(tuple(parent))
    raise AssertionError("could not sample a lush hedge")


def relabel(t: RootedTree, rng: np.random.Generator) -> tuple[RootedTree, dict[int, int]]:
    """The tree under a uniform random relabelling, and the map old -> new."""
    new = {v: int(x) + 1 for v, x in zip(t.vertices, rng.permutation(t.n))}
    parent = [0] * t.n
    for v in t.vertices:
        p = t.parent[v - 1]
        parent[new[v] - 1] = 0 if p in (0, v) else new[p]
    return RootedTree(tuple(parent)), new


def move_weight(w, t: RootedTree, new: dict[int, int]):
    """The weight w carried onto t, the relabelled tree, by the map old -> new."""
    from hedge_iep.weights import WeightFn

    return WeightFn(
        t,
        {new[v]: x for v, x in w.vertex_weight.items()},
        {tuple(sorted((new[u], new[v]))): x for (u, v), x in w.edge_weight.items()},
    )


def random_splits(t: RootedTree, rng: np.random.Generator) -> dict[int, tuple]:
    out = {}
    for v in t.vertices:
        kids = t.children[v]
        if kids:
            raw = rng.uniform(0.2, 1.0, size=len(kids))
            out[v] = tuple(float(x) for x in raw / raw.sum())
    return out


def random_weight(t: RootedTree, rng: np.random.Generator, exact: bool = False):
    from hedge_iep.weights import WeightFn

    if exact:
        vw = {v: Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 4))) for v in t.vertices}
        ew = {e: Fraction(int(rng.integers(1, 12)), int(rng.integers(1, 4))) for e in t.edges}
    else:
        vw = {v: float(rng.uniform(-2, 2)) for v in t.vertices}
        ew = {e: float(rng.uniform(0.2, 3.0)) for e in t.edges}
    return WeightFn(t, vw, ew)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def hedge10() -> RootedTree:
    return ten_vertex_hedge()


@pytest.fixture
def t31() -> RootedTree:
    return smallest_lush_hedge(3)
