"""Weight functions on trees, branch duplication and the pendent-path collapse.

A weight function carries one real per vertex (a diagonal entry) and one
positive real per edge (the product of the two opposite off-diagonal
entries); it is exactly the data of a diagonal-similarity class in the set
of combinatorially symmetric matrices with the given tree pattern.  Weights
support two scalar backends, floats and exact scalars (Fractions, or Q[xi]
at the rigid tuple), with one spectral route each (`spectrum_of`,
`char_poly_of`); conversions are explicit.  On exact weights, `inertia`
counts the eigenvalues on either side of a rational point in one pass.

A concrete representative (`WeightedMatrix`) is stored by its 2n - 1
nonzeros, never as an n-by-n table: `to_numpy` is the one dense fill, and
`entries` is a dense view kept for the tests' exact checks.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from functools import cache
from itertools import groupby
from pathlib import Path
from typing import TYPE_CHECKING

from . import Frozen
from .numeric import eigenvalues_sym
from .polys import X, PolyQ
from .tolerance import ROUNDING_TOL, WEIGHT_TOL, close
from .trees import RootedTree, induced_tree, pendent_paths, read_json

if TYPE_CHECKING:
    import numpy as np


class NonPositiveEdgeWeight(ValueError):
    pass


class NotABranch(ValueError):
    pass


class BadSplit(ValueError):
    pass


class WeightFormatError(ValueError):
    pass


class NotCollapsible(ValueError):
    def __init__(self, vertex: int, detail: str):
        super().__init__(f"branches at vertex {vertex} are not collapsible: {detail}")
        self.vertex = vertex
        self.detail = detail


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class WeightFn(Frozen):
    __slots__ = ("tree", "vertex_weight", "edge_weight")

    def __init__(
        self,
        tree: RootedTree,
        vertex_weight: dict[int, object],
        edge_weight: dict[tuple[int, int], object],
    ) -> None:
        object.__setattr__(self, "tree", tree)
        object.__setattr__(self, "vertex_weight", vertex_weight)
        object.__setattr__(self, "edge_weight", edge_weight)
        t = self.tree
        if set(self.vertex_weight) != set(t.vertices):
            raise ValueError("vertex weights must cover exactly V(T)")
        if set(self.edge_weight) != set(t.edges):
            raise ValueError("edge weights must cover exactly E(T)")
        for e, w in self.edge_weight.items():
            # a Fraction's sign is its numerator's: Fraction's own comparison
            # costs most of this loop, through its numbers.Rational check
            if not (w.numerator > 0 if type(w) is Fraction else w > 0):
                raise NonPositiveEdgeWeight(f"edge {e} has weight {w}")

    def v(self, u: int):
        return self.vertex_weight[u]

    def e(self, u: int, v: int):
        return self.edge_weight[_edge_key(u, v)]

    def as_float(self) -> "WeightFn":
        return WeightFn(
            self.tree,
            {u: float(w) for u, w in self.vertex_weight.items()},
            {e: float(w) for e, w in self.edge_weight.items()},
        )

    def is_exact(self) -> bool:
        """No float anywhere: every weight is an int, a Fraction or a QXi."""
        tables = (self.vertex_weight, self.edge_weight)
        return not any(isinstance(w, float) for table in tables for w in table.values())


class WeightedMatrix(Frozen):
    """A concrete representative of a weight class, stored by its nonzeros:
    the diagonal (vertex u at index u - 1) and, for each edge (u, v) of
    ``tree.edges`` (u < v, in that order), the entries at (u, v) in
    ``upper`` and at (v, u) in ``lower``.  Entries stay exact when the
    weight is exact."""

    __slots__ = ("tree", "diagonal", "upper", "lower")

    @property
    def n(self) -> int:
        return self.tree.n

    @property
    def entries(self) -> tuple[tuple[object, ...], ...]:
        """The dense n-by-n view, rebuilt on each access in O(n^2); for
        exact checks in tests, never read by the package."""
        zero = self.lower[0] * 0 if self.lower else 0
        rows = [[zero] * self.n for _ in range(self.n)]
        for u, x in enumerate(self.diagonal):
            rows[u][u] = x
        for (u, v), x, y in zip(self.tree.edges, self.upper, self.lower):
            rows[u - 1][v - 1] = x
            rows[v - 1][u - 1] = y
        return tuple(tuple(r) for r in rows)

    def to_numpy(self) -> np.ndarray:
        """The dense float matrix: the one dense fill of a representative."""
        import numpy as np

        a = np.zeros((self.n, self.n))
        i = np.arange(self.n)
        a[i, i] = self.diagonal
        u, v = np.array(self.tree.edges, dtype=np.intp).reshape(-1, 2).T - 1
        a[u, v] = self.upper
        a[v, u] = self.lower
        return a

    def weight(self) -> WeightFn:
        t = self.tree
        vw = dict(zip(t.vertices, self.diagonal))
        ew = {e: x * y for e, x, y in zip(t.edges, self.upper, self.lower)}
        return WeightFn(t, vw, ew)


class DuplicationSplit(Frozen):
    __slots__ = ("t",)

    def __init__(self, t: tuple) -> None:
        object.__setattr__(self, "t", t)
        if any(not x > 0 for x in self.t):
            raise BadSplit("split entries must be strictly positive")
        s = sum(self.t)
        if not close(s, 1, ROUNDING_TOL):
            raise BadSplit(f"split must sum to 1, got {s}")

    @classmethod
    @cache
    def uniform(cls, parts: int) -> "DuplicationSplit":
        """Equal Fraction parts: times a float b a part gives (1.0 / parts) * b
        bit for bit, and times an exact b it stays exact.  Built once per
        number of parts, so a process that constructs many members with
        uniform splits validates each split once; the split is immutable."""
        return cls((Fraction(1, parts),) * parts)

    def __len__(self) -> int:
        return len(self.t)


def symmetric_representative(w: WeightFn) -> WeightedMatrix:
    """The symmetric matrix with off-diagonal entries sqrt(edge weight);
    cospectral with every member of the weight class.  Always float."""
    t = w.tree
    off = tuple(math.sqrt(float(w.edge_weight[e])) for e in t.edges)
    return WeightedMatrix(t, tuple(float(w.vertex_weight[u]) for u in t.vertices), off, off)


def unit_lower_representative(w: WeightFn) -> WeightedMatrix:
    """The representative with every lower-adjacent entry equal to 1, so the
    partner entry carries the full edge weight; exact for exact weights."""
    t = w.tree
    one = w.v(t.root) * 0 + 1
    return WeightedMatrix(
        t,
        tuple(w.vertex_weight[u] for u in t.vertices),
        tuple(w.edge_weight[e] for e in t.edges),
        (one,) * len(t.edges),
    )


def spectrum_of(w: WeightFn) -> np.ndarray:
    """Sorted float eigenvalues of the weight class: the one dense
    eigendecomposition of a weight."""
    return eigenvalues_sym(symmetric_representative(w).to_numpy())


def char_poly_of(w: WeightFn) -> PolyQ:
    """The exact characteristic polynomial P_root of an exact weight, from the
    leaves up (Jacobs-Trevisan in polynomial form): Q_v = prod_c P_c over the
    children c of v, P_v = (x - a_v) Q_v - sum_c w_vc Q_c (Q_v / P_c)."""
    t, P, Q = w.tree, {}, {}
    for v in reversed(t.depth):  # depth lists each vertex after its parent
        Q[v] = math.prod((P[c] for c in t.children[v]), start=PolyQ.of(1))
        down = (Q[c] * Q[v].exact_div(P[c]) * w.e(v, c) for c in t.children[v])
        P[v] = (X - w.v(v)) * Q[v] - sum(down, PolyQ(()))
    return P[t.root]


def inertia(w: WeightFn, q) -> tuple[int, int, int]:
    """(below, at, above): the numbers of eigenvalues of an exact weight
    below, equal to and above the rational q, from one leaves-first LDL^T
    pass on A - qI and Sylvester's law of inertia.  The pivots are
    d(v) = a_v - q - sum_c w_vc / d(c) over the children c of v.  For a zero
    child pivot, the rule of D. P. Jacobs and V. Trevisan (Linear Algebra
    Appl. 434 (2011) 81-88): the child gets 2, v gets -w_vc / 2, and v's
    edge to its parent is cut.  An int q becomes a Fraction, so no pivot
    of int weights is divided as a float."""
    t, d, cut = w.tree, {}, set()
    if type(q) is int:
        q = Fraction(q)
    for v in reversed(t.depth):  # depth lists each vertex after its parent
        kids = [c for c in t.children[v] if c not in cut]
        zero = next((c for c in kids if d[c] == 0), None)
        if zero is None:
            d[v] = w.v(v) - q - sum(w.e(v, c) / d[c] for c in kids)
        else:
            d[zero], d[v] = 2, Fraction(-1, 2) * w.e(v, zero)
            cut.add(v)
    below = sum(x < 0 for x in d.values())
    at = sum(x == 0 for x in d.values())
    return below, at, t.n - below - at


# ---------------------------------------------------------------------------
# duplication


def duplicate_branch(
    w: WeightFn, v: int, b0: int, split: DuplicationSplit
) -> WeightFn:
    """s-summand duplication of the branch below b0 at v, where s + 1 is the
    split length; attaching edge weights are the split fractions of the old
    one, so spectra gain s copies of the branch spectrum."""
    t = w.tree
    if b0 not in t.children[v]:
        raise NotABranch(f"{b0} is not a child of {v}")
    branch = t.subtree_vertices(b0)
    parent = list(t.parent)
    vw = dict(w.vertex_weight)
    ew = dict(w.edge_weight)
    base_edge = w.e(v, b0)
    ew[_edge_key(v, b0)] = split.t[0] * base_edge
    for k, tk in enumerate(split.t[1:]):
        # copy k + 1 takes the next len(branch) labels, in the branch's label order
        remap = {u: t.n + k * len(branch) + i for i, u in enumerate(branch, start=1)}
        for u in branch:
            p = t.parent[u - 1]
            parent.append(v if u == b0 else remap[p])
            vw[remap[u]] = w.v(u)
            if u != b0:
                ew[_edge_key(remap[u], remap[p])] = w.e(u, p)
        ew[_edge_key(v, remap[b0])] = tk * base_edge
    return WeightFn(RootedTree(tuple(parent)), vw, ew)


# ---------------------------------------------------------------------------
# collapsing


class CollapseResult(Frozen):
    """The collapsed weight function and how many pendent paths it deleted."""

    __slots__ = ("weight", "removed_count")


def collapse_pendent_k_paths(w: WeightFn, k: int) -> CollapseResult:
    """Collapse every family of pendent k-paths meeting a common vertex to a
    single representative (the smallest-labelled one, which is the branch
    containing the default distinguished child).

    All pendent k-paths at a common vertex must carry equal weights within
    WEIGHT_TOL (vertex weights, then internal edge weights, outwards);
    otherwise NotCollapsible is raised.  Attaching edge weights add up, so
    spectra lose one branch-spectrum copy per deleted path.
    """

    def flat(q):
        vs = q.vertices
        return [w.v(u) for u in vs] + [w.e(u, x) for u, x in zip(vs, vs[1:])]

    removed: set[int] = set()
    removed_count = 0
    attach: dict[tuple[int, int], object] = {}  # summed attaching edge weights
    for v, group in groupby(pendent_paths(w.tree, k), key=lambda q: q.attach_point):
        rep, *rest = group
        ref = flat(rep)
        total = w.e(v, rep.vertices[0])
        for q in rest:
            if not all(close(x, y, WEIGHT_TOL) for x, y in zip(ref, flat(q))):
                raise NotCollapsible(
                    v, f"paths {rep.vertices} and {q.vertices} carry different weights"
                )
            total = total + w.e(v, q.vertices[0])
            removed.update(q.vertices)
        removed_count += len(rest)
        attach[_edge_key(v, rep.vertices[0])] = total
    tree, old = induced_tree(w.tree, (u for u in w.tree.vertices if u not in removed))
    vw = {u: w.v(old[u]) for u in tree.vertices}
    ew = {(u, x): attach.get((old[u], old[x]), w.e(old[u], old[x])) for u, x in tree.edges}
    return CollapseResult(WeightFn(tree, vw, ew), removed_count)


# ---------------------------------------------------------------------------
# JSON round trip


def weight_to_json(w: WeightFn) -> dict:
    """The JSON form of w; ValueError names the first weight that is not an
    int, float or Fraction (a Q[xi] weight has no encoding)."""
    from .trees import tree_to_json

    def num(key, x):
        if isinstance(x, Fraction):
            return str(x)
        if isinstance(x, (int, float)):
            return x
        raise ValueError(f"the weight of {key} is {x!r}, not an int, float or Fraction")

    return {
        "tree": tree_to_json(w.tree),
        "vertexWeight": {
            str(u): num(f"vertex {u}", x) for u, x in sorted(w.vertex_weight.items())
        },
        "edgeWeight": {
            f"{u}-{v}": num(f"edge {u}-{v}", x) for (u, v), x in sorted(w.edge_weight.items())
        },
    }


def exact_number(s: str) -> Fraction:
    """The exact value of an integer, fraction or decimal string; ValueError
    unless it has a nonzero denominator and lies within the float range."""
    try:
        x = Fraction(s)
    except (ValueError, ZeroDivisionError):
        x = None
    if x is None or abs(x) > sys.float_info.max:
        raise ValueError(f"{s!r} is not a finite number within the float range")
    return x


def weight_from_json(data: dict) -> WeightFn:
    from .trees import tree_from_json

    def num(x):
        if isinstance(x, str):
            return exact_number(x)
        if isinstance(x, (int, float)) and not isinstance(x, bool):
            if abs(x) <= sys.float_info.max:
                return x
        raise WeightFormatError(f"weight {x!r} is not a finite number")

    def vertex(part: str, key: str) -> int:
        if not (part.isascii() and part.isdigit()):
            raise WeightFormatError(f"weight key {key!r} is not a vertex 'u' or an edge 'u-v'")
        return int(part)

    if not isinstance(data, dict) or not {"tree", "vertexWeight", "edgeWeight"} <= set(data):
        raise WeightFormatError("weight JSON needs 'tree', 'vertexWeight' and 'edgeWeight'")
    if not (isinstance(data["vertexWeight"], dict) and isinstance(data["edgeWeight"], dict)):
        raise WeightFormatError("'vertexWeight' and 'edgeWeight' must be objects")
    t = tree_from_json(data["tree"])
    vw = {vertex(u, u): num(x) for u, x in data["vertexWeight"].items()}
    ew = {}
    for key, x in data["edgeWeight"].items():
        u, _, v = key.partition("-")
        ew[_edge_key(vertex(u, key), vertex(v, key))] = num(x)
    return WeightFn(t, vw, ew)


def load_weight(path: str | Path) -> WeightFn:
    return weight_from_json(read_json(path))


def save_weight(w: WeightFn, path: str | Path) -> None:
    """Write w as JSON; a weight with no JSON form raises before the file is
    opened."""
    data = weight_to_json(w)
    with open(path, "w") as fh:
        json.dump(data, fh)
        fh.write("\n")
