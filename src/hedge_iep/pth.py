"""Path-to-hedge construction, its spectrum, critical lists and the
recognizer that inverts the construction.

The forward direction distributes a path matrix's edge weights over a hedge;
the spectrum is the union of level spectra weighted by the branching profile.
The recognizer checks the recipe once per vertex: a vertex at height h must
carry a_{h+1} and its child edges must sum to b_{h+1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .lambdas import (
    LambdaTuple,
    NotInB,
    NotInB3,
    abc_coefficients,
    build_C,
    generic_multiplicities,
    in_B3,
    remainder_poly,
)
from .numeric import cluster_multiplicities, trailing_spectra
# unused here; perfbench/tests checks that its tracer rebinds this name
from .numeric import eigenvalues_sym  # noqa: F401
from .polys import PolyQ, poly_gcd
from .spectra import GapVector, MultiplicityList, SpectrumMultiset, gap_vector
from .tolerance import ROUNDING_TOL, SPECTRUM_TOL, WEIGHT_TOL, close
from .trees import (
    HedgeProfile,
    NotLush,
    RootedTree,
    is_hedge,
    is_lush,
    profile,
)
from .weights import DuplicationSplit, WeightFn, WeightedMatrix, spectrum_of


class HeightMismatch(ValueError):
    pass


class BadSplit(ValueError):
    pass


class NotFromConstruction(ValueError):
    def __init__(self, step, detail: str):
        super().__init__(f"recognizer fails at step {step}: {detail}")
        self.step = step
        self.detail = detail


class WrongArity(ValueError):
    pass


class HeightTooSmall(ValueError):
    pass


class BadShape(ValueError):
    pass


# ---------------------------------------------------------------------------
# forward construction


def _path_weight(c) -> WeightFn:
    w = c.weight() if isinstance(c, WeightedMatrix) else c
    t = w.tree
    for v in t.vertices:
        if len(t.children[v]) > 1:
            raise HeightMismatch("the source matrix must live on a path")
    return w


def ph_construct(c, t: RootedTree, splits="uniform") -> WeightFn:
    """A member of the path-to-hedge family: vertex weights copied by height
    from the path, each path edge weight split over the children at the
    matching height."""
    w_c = _path_weight(c)
    if not is_hedge(t):
        raise HeightMismatch("target must be a hedge")
    height = t.height
    if w_c.tree.n != height + 1:
        raise HeightMismatch(
            f"path has {w_c.tree.n} vertices but the hedge needs {height + 1}"
        )
    hm = t.height_map
    path_at = {height - (i - 1): i for i in w_c.tree.vertices}  # height -> path vertex
    exact = w_c.is_exact()
    vw = {v: w_c.v(path_at[hm[v]]) for v in t.vertices}
    ew = {}
    for v in t.vertices:
        kids = t.children[v]
        if not kids:
            continue
        if splits == "uniform":
            split = DuplicationSplit.uniform(len(kids), exact=exact)
        else:
            if v not in splits:
                raise BadSplit(f"no split supplied for vertex {v}")
            raw = splits[v]
            split = raw if isinstance(raw, DuplicationSplit) else DuplicationSplit(tuple(raw))
            if len(split) != len(kids):
                raise BadSplit(f"split at {v} has {len(split)} parts for {len(kids)} children")
        i = path_at[hm[v]]
        base = w_c.e(i, i + 1)
        for tk, u in zip(split.t, kids):
            ew[(min(v, u), max(v, u))] = tk * base
    out = WeightFn(t, vw, ew)
    _assert_ph_member(out, w_c)
    return out


def _levels(w: WeightFn) -> dict[int, tuple]:
    """(height, vertex weight, sum of the child edge weights) of every vertex,
    the sum taken over the children in label order; None at a leaf."""
    t = w.tree
    hm = t.height_map
    out = {}
    for v in t.vertices:
        kids = t.children[v]
        total = w.e(v, kids[0]) if kids else None
        for u in kids[1:]:
            total = total + w.e(v, u)
        out[v] = (hm[v], w.v(v), total)
    return out


def _assert_ph_member(w: WeightFn, w_c: WeightFn) -> None:
    """Membership by definition: heights carry the path's vertex weights and
    children edge weights sum to the path's edge weight, each within
    ROUNDING_TOL relative to the path's value when a float takes part."""
    height = w.tree.height
    # max(1, |value|) of each path vertex and edge weight, converted once
    scale = {
        k: max(1.0, abs(float(y)))
        for k, y in [*w_c.vertex_weight.items(), *w_c.edge_weight.items()]
    }
    for v, (h, x, total) in _levels(w).items():
        i = height + 1 - h  # the path vertex at height h
        if not close(x, w_c.v(i), ROUNDING_TOL, scale[i]):
            raise AssertionError(f"vertex weight at {v} disagrees with the path")
        edge = (i, i + 1)
        if total is not None and not close(total, w_c.e(*edge), ROUNDING_TOL, scale[edge]):
            raise AssertionError(f"edge weights at {v} do not sum to the path weight")


def level_submatrix_spectra(c, n: int | None = None) -> list[np.ndarray]:
    """Float spectra of the trailing i-by-i submatrices of a path matrix."""
    w_c = _path_weight(c)
    m = w_c.tree.n
    a = [w_c.v(i) for i in range(m, 0, -1)]  # the bottom vertex carries a_1
    b = [w_c.e(i, i + 1) for i in range(m - 1, 0, -1)]
    return trailing_spectra(a, b, m if n is None else n)


def ph_spectrum(c, prof: HedgeProfile) -> SpectrumMultiset:
    """Spectrum of any member of the family: the union over levels i of
    ell_i copies of the trailing i-by-i submatrix spectrum."""
    specs = level_submatrix_spectra(c, prof.height + 1)
    values = []
    for i in range(1, prof.height + 2):
        li = prof.ell_at(i)
        if li == 0:
            continue
        for v in specs[i - 1]:
            values.extend([float(v)] * li)
    return cluster_multiplicities(values)


# ---------------------------------------------------------------------------
# critical lists


@dataclass(frozen=True)
class CriticalWitness:
    """Positions in a multiplicity list playing (m1, m2, n2, n3, n4); index
    None marks the zero-multiplicity placeholder for n4."""

    indices: tuple[int | None, ...]
    multiplicities: tuple[int, ...]
    thresholds: tuple[int, ...]


def critical_thresholds(prof: HedgeProfile) -> tuple[int, ...]:
    """(m1, m2, n2, n3, n4): the generic multiplicities of the five
    distinguished values."""
    return tuple(generic_multiplicities(prof).values())


def _critical_assignments(entries, thr: tuple[int, ...], ell3: int):
    """Index tuples (i1, ..., i5) of distinct entries meeting the thresholds,
    in index order; the fifth entry must also stay below ell3, and i5 = None,
    the zero placeholder, follows the real fifth entries when its threshold
    is zero."""
    pools = [[i for i, v in enumerate(entries) if v >= k] for k in thr]
    pools[4] = [i for i in pools[4] if entries[i] < ell3]
    if thr[4] == 0 and 0 < ell3:
        pools[4].append(None)
    for idx in product(*pools):
        real = [i for i in idx if i is not None]
        if len(set(real)) == len(real):
            yield idx


def critical_check(t: RootedTree, m: MultiplicityList) -> CriticalWitness | None:
    """First assignment (in index order) of five list entries meeting the
    critical thresholds, allowing an implicit zero placeholder for the last
    slot when its threshold is zero; None if no assignment works."""
    if not is_lush(t) or t.height < 2:
        raise NotLush("critical lists are defined for lush hedges of height >= 2")
    prof = profile(t)
    thr = critical_thresholds(prof)
    entries = m.ordered
    for idx in _critical_assignments(entries, thr, prof.ell_at(3)):
        mult5 = tuple(0 if i is None else entries[i] for i in idx)
        return CriticalWitness(idx, mult5, thr)
    return None


def forced_fifth_eigenvalue(lam4) -> object:
    """Four high multiplicities force a fifth one; its eigenvalue is
    alpha2 + beta2 - beta3."""
    a1, a2, b2, b3 = lam4
    lam = LambdaTuple(a1, a2, b2, b3)
    if not in_B3(lam):
        raise NotInB3("the four values do not admit the three-level family")
    return a2 + b2 - b3


# ---------------------------------------------------------------------------
# recognizer


@dataclass(frozen=True)
class RecognizeResult:
    lam: LambdaTuple
    region: int | None
    path_weight: WeightFn  # recovered weight of C_{H+1}
    target: WeightedMatrix  # C_{H+1}^Lambda built from the recipe


def recognize(w: WeightFn, lam: LambdaTuple) -> RecognizeResult:
    """Check the recipe for a designated eigenvalue assignment: every vertex
    at height h carries a_{h+1} and its child edges sum to b_{h+1}.

    Raises NotFromConstruction at the first vertex that disagrees, with step
    h + 1.  The recovered path weight is read off the root's chain of
    smallest children.
    """
    t = w.tree
    if not is_lush(t) or t.height < 2:
        raise NotLush("the recognizer runs on lush hedges of height >= 2")
    height = t.height

    try:
        a, b = abc_coefficients(lam, height + 1)
    except (NotInB, ValueError) as exc:
        raise NotFromConstruction(0, f"assignment is not feasible: {exc}") from exc

    levels = _levels(w)
    for v, (h, x, total) in levels.items():
        if not close(x, a[h], WEIGHT_TOL):
            raise NotFromConstruction(h + 1, f"vertex {v}: weight {x} != a")
        if total is not None and not close(total, b[h - 1], WEIGHT_TOL):
            raise NotFromConstruction(h + 1, f"vertex {v}: child edges sum to {total} != b")

    chain = [t.root]
    while t.children[chain[-1]]:
        chain.append(t.children[chain[-1]][0])
    path_weight = WeightFn(
        RootedTree(tuple(range(height + 1))),
        {i: levels[u][1] for i, u in enumerate(chain, start=1)},
        {(i, i + 1): levels[u][2] for i, u in enumerate(chain[:-1], start=1)},
    )
    return RecognizeResult(lam, lam.region(), path_weight, build_C(lam, height + 1))


def recognize_search(w: WeightFn) -> RecognizeResult:
    """Recover the eigenvalue assignment from the spectrum alone: enumerate
    the assignments consistent with the critical thresholds and return the
    first that the recognizer accepts."""
    t = w.tree
    if not is_lush(t) or t.height < 2:
        raise NotLush("the recognizer runs on lush hedges of height >= 2")
    prof = profile(t)
    spec = cluster_multiplicities(spectrum_of(w), SPECTRUM_TOL)
    vals = spec.values
    failures = []
    for idx in _critical_assignments(
        spec.ordered_multiplicities(), critical_thresholds(prof), prof.ell_at(3)
    ):
        lam = LambdaTuple(*(vals[i] for i in idx if i is not None))
        try:
            return recognize(w, lam)
        except (NotFromConstruction, NotInB) as exc:
            failures.append(str(exc))
    raise NotFromConstruction(
        "search",
        f"no eigenvalue assignment admits the recipe "
        f"({len(failures)} candidate(s) failed)" if failures
        else "the multiplicity list does not meet the critical thresholds",
    )


# ---------------------------------------------------------------------------
# the height-3 running example: explicit rational family


def t31_lambda(x: Fraction) -> LambdaTuple:
    """The parametric tuple with beta2 = 1/3, beta3 = 1/9 and the level-4
    remainder roots pinned at 0 and 1; valid on the stated x interval."""
    x = Fraction(x)
    if not (Fraction(1, 3) < x and 27 * x * x - 66 * x + 28 > 0 and x < 1):
        raise ValueError("x outside the admissible interval")
    den = 9 * (4 - 3 * x)
    return LambdaTuple(
        x,
        Fraction(28 - 30 * x, 1) / den,
        Fraction(1, 3),
        Fraction(1, 9),
        (-27 * x * x + 24 * x + 4) / den,
    )


def t31_exact_spectrum(x: Fraction, prof: HedgeProfile) -> SpectrumMultiset:
    """Exact spectrum of the family on a height-3 hedge with the given
    profile; checks that the level-4 remainder is x^2 - x."""
    if prof.height != 3:
        raise HeightMismatch("the explicit family lives on height-3 hedges")
    lam = t31_lambda(x)
    r4 = remainder_poly(lam, 4)
    if r4 != PolyQ.of(0, -1, 1):
        raise AssertionError("level-4 remainder is not x^2 - x")
    delta1 = lam.alpha2 + lam.beta2 - lam.beta3
    pairs = [(getattr(lam, name), m) for name, m in generic_multiplicities(prof).items()]
    # the remainder roots: delta_1 of r_3, then 0 and 1 of r_4
    l3, l4 = prof.ell_at(3), prof.ell_at(4)
    pairs += [(delta1, l3), (Fraction(0), l4), (Fraction(1), l4)]
    return SpectrumMultiset.from_pairs(pairs)


def t31_constraints_check(values) -> dict[str, bool]:
    """The two linear constraints, the cubic one and the derived
    combination, on eight distinct eigenvalues listed in increasing order."""
    vals = list(values)
    if len(vals) != 8 or len(set(vals)) != 8:
        raise WrongArity("need exactly eight distinct eigenvalues")
    l = dict(zip(range(1, 9), vals))
    lin1 = l[3] + l[6] == l[2] + l[7]
    lin2 = l[3] + l[5] + l[6] == l[1] + l[4] + l[8]
    cubic = (l[2] - l[3]) * (l[5] - l[3]) * (l[7] - l[3]) == (l[1] - l[3]) * (
        l[4] - l[3]
    ) * (l[8] - l[3])
    combo = l[5] + 3 * l[3] + 3 * l[6] == 2 * l[2] + 2 * l[7] + l[1] + l[4] + l[8]
    return {"linear": lin1, "trace": lin2, "cubic": cubic, "combined": combo}


# ---------------------------------------------------------------------------
# conjecture counterexamples


@dataclass(frozen=True)
class SplittingCounterexample:
    lam: LambdaTuple
    realizable: tuple[int, ...]  # unordered multiplicity list, descending
    not_realizable: tuple[int, ...]
    forced_eigenvalue: Fraction
    forced_multiplicity: int
    max_distinct: int

    def report(self) -> str:
        return (
            f"m  = {set_notation(self.realizable)} is realizable;\n"
            f"m' = {set_notation(self.not_realizable)} is critical but has "
            f"{len(self.not_realizable)} entries while any matrix achieving the five "
            f"critical multiplicities has at most {self.max_distinct} distinct "
            f"eigenvalues (the repeated eigenvalue {self.forced_eigenvalue} of "
            f"multiplicity {self.forced_multiplicity} cannot be split)."
        )


def set_notation(ms) -> str:
    return "{" + ", ".join(str(m) for m in ms) + "}"


def _generic_list(prof: HedgeProfile) -> tuple[int, ...]:
    """Unordered multiplicity list of a family member with no coincidences
    beyond the level pattern, descending: each distinguished value that
    occurs, then each of the i - 2 remainder roots of every level i >= 3."""
    entries = [m for m in generic_multiplicities(prof).values() if m]
    for i in range(3, prof.height + 2):
        entries.extend([prof.ell_at(i)] * (i - 2))
    return tuple(sorted(entries, reverse=True))


def _distinct_value_budget(height: int) -> int:
    # one new value at level 1, two at level 2, then i-2 remainder roots plus
    # the new beta at levels 3 and 4
    return 5 + (height - 1) * height // 2


def splitting_counterexample(
    t: RootedTree, lam: LambdaTuple | None = None
) -> SplittingCounterexample:
    """A realizable / non-realizable pair differing by one split multiplicity.

    The realizable list is the generic family list; the split list is still
    critical, so the converse theorem forces the whole spectrum, which has
    too few distinct values.  The genericity of the chosen tuple (no extra
    coincidences between levels) is certified by exact gcd computations.
    """
    if not is_lush(t):
        raise NotLush("need a lush hedge")
    prof = profile(t)
    height = prof.height
    if height < 3:
        raise HeightTooSmall("the split needs ell_3 >= 2, so height >= 3")
    if lam is None:
        lam = LambdaTuple(
            Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(3)
        )
    rs = {i: remainder_poly(lam, i) for i in range(3, height + 2)}
    # genericity: remainder roots never hit distinguished values ...
    all_distinguished = set(lam.values())
    for i, r in rs.items():
        for v in all_distinguished:
            if r(v) == 0:
                raise AssertionError(f"tuple is not generic: r_{i}({v}) = 0")
    # ... and remainder polynomials share no roots across levels
    for i in rs:
        for j in rs:
            if i < j and poly_gcd(rs[i], rs[j]).degree > 0:
                raise AssertionError(f"tuple is not generic: r_{i}, r_{j} share a root")
    delta1 = lam.alpha2 + lam.beta2 - lam.beta3
    forced_mult = prof.ell_at(3)
    m = _generic_list(prof)
    budget = _distinct_value_budget(height)
    if len(m) != budget:
        raise AssertionError("generic list length disagrees with the level budget")
    # split the delta_1 multiplicity (one of the ell_3 entries)
    entries_prime = list(m)
    entries_prime.remove(forced_mult)
    entries_prime.extend([forced_mult - 1, 1])
    m_prime = tuple(sorted(entries_prime, reverse=True))
    if critical_check(t, MultiplicityList(m_prime)) is None:
        raise AssertionError("split list lost the critical property")
    if len(m_prime) <= budget:
        raise AssertionError("split list does not exceed the distinct-value budget")
    return SplittingCounterexample(
        lam, m, m_prime, delta1, forced_mult, budget
    )


@dataclass(frozen=True)
class ZeroOneReport:
    child_counts: dict[int, int]
    critical_list: tuple[int, ...]
    contradiction: bool

    def report(self) -> str:
        if self.contradiction:
            return (
                f"height-1 child counts {sorted(self.child_counts.values())} are not "
                f"all equal, but a realization of {set_notation(self.critical_list)} "
                "with unit off-diagonal entries would force the squared path entry "
                "to equal every count at once"
            )
        return "all height-1 child counts agree; the zero-one test is inconclusive"


def zero_one_counterexample_check(t: RootedTree) -> ZeroOneReport:
    """Unit off-diagonal entries force |children(z)| to be the same for all
    height-1 vertices z; report the contradiction when the counts differ."""
    if not is_lush(t) or t.height != 2:
        raise BadShape("the zero-one test runs on lush hedges of height 2")
    prof = profile(t)
    hm = t.height_map
    counts = {v: len(t.children[v]) for v in t.vertices if hm[v] == 1}
    return ZeroOneReport(counts, _generic_list(prof), len(set(counts.values())) > 1)


# re-exported for API completeness
__all__ = [
    "BadShape",
    "BadSplit",
    "CriticalWitness",
    "GapVector",
    "HeightMismatch",
    "HeightTooSmall",
    "MultiplicityList",
    "NotFromConstruction",
    "RecognizeResult",
    "SpectrumMultiset",
    "SplittingCounterexample",
    "WrongArity",
    "ZeroOneReport",
    "critical_check",
    "critical_thresholds",
    "forced_fifth_eigenvalue",
    "gap_vector",
    "level_submatrix_spectra",
    "ph_construct",
    "ph_spectrum",
    "recognize",
    "recognize_search",
    "splitting_counterexample",
    "t31_constraints_check",
    "t31_exact_spectrum",
    "t31_lambda",
    "zero_one_counterexample_check",
]
