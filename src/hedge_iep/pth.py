"""Path-to-hedge construction, its spectrum, critical lists and the
recognizer that inverts the construction.

A path matrix enters through its level coefficients a_1..a_n and b_2..b_n,
read by the one map `lambdas.level_coefficients` (its inverse is
`lambdas.path_weight`), so the path may carry any labels.  The forward
direction distributes them over a hedge; the spectrum is the union of level
spectra weighted by the branching profile.  Construction and recognizer share
one recipe check: a vertex at height h must carry a_{h+1} and its child edges
must sum to b_{h+1}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import add

from . import Frozen
from .lambdas import (
    LambdaTuple,
    NotInB3,
    abc_coefficients,
    generic_multiplicities,
    in_B3,
    level_coefficients,
    path_weight,
    remainder_poly,
)
from .numeric import cluster_multiplicities, trailing_spectra
# unused here; perfbench/tests checks that its tracer rebinds these names
from .lambdas import build_C  # noqa: F401
from .numeric import eigenvalues_sym  # noqa: F401
from .polys import PolyQ, poly_gcd
from .spectra import MultiplicityList, SpectrumMultiset
# unused here; hedge_iep._EXPORTS["pth"] and the tests import it from pth
from .spectra import gap_vector  # noqa: F401
from .tolerance import CLUSTER_TOL, ROUNDING_TOL, SPECTRUM_TOL, WEIGHT_TOL, close
from .trees import (
    HedgeProfile,
    NotLush,
    RootedTree,
    is_hedge,
    is_lush,
    profile,
)
from .weights import (
    BadSplit,
    DuplicationSplit,
    WeightFn,
    WeightedMatrix,
    unit_lower_representative,
)


class HeightMismatch(ValueError):
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


def _path_levels(c, height: int) -> tuple[list, list]:
    """(a_1.., b_2..) of a path matrix with the height + 1 levels of a hedge."""
    w = c.weight() if isinstance(c, WeightedMatrix) else c
    try:
        a, b = level_coefficients(w)
    except ValueError:
        raise HeightMismatch("the source matrix must live on a path") from None
    if len(a) != height + 1:
        raise HeightMismatch(f"path has {len(a)} vertices but the hedge needs {height + 1}")
    return a, b


def ph_construct(c, t: RootedTree, splits="uniform") -> WeightFn:
    """A member of the path-to-hedge family: a vertex at height h carries
    the path's a_{h+1}, and the path's b_{h+1} is split over its child
    edges, each of which takes the scalar type of that b."""
    if not is_hedge(t):
        raise HeightMismatch("target must be a hedge")
    a, b = _path_levels(c, t.height)
    vw, ew = {}, {}
    levels = {}  # the _levels table of the member, from the values as written
    # (height, arity) -> the child edge weights of a uniform split and their sum
    shared = {}
    for v, (h, keys) in t.child_edges.items():
        vw[v] = a[h]
        if not keys:
            levels[v] = (h, a[h], None)
            continue
        if splits == "uniform":
            shape = (h, len(keys))
            if shape not in shared:
                split = DuplicationSplit.uniform(len(keys))
                values = [tk * b[h - 1] for tk in split.t]
                shared[shape] = values, reduce(add, values)
            values, total = shared[shape]
        else:
            if v not in splits:
                raise BadSplit(f"no split supplied for vertex {v}")
            raw = splits[v]
            split = raw if isinstance(raw, DuplicationSplit) else DuplicationSplit(tuple(raw))
            if len(split) != len(keys):
                raise BadSplit(f"split at {v} has {len(split)} parts for {len(keys)} children")
            values = [tk * b[h - 1] for tk in split.t]
            total = reduce(add, values)
        ew.update(zip(keys, values))
        levels[v] = (h, a[h], total)
    out = WeightFn(t, vw, ew)
    miss = _recipe_miss(levels, a, b, ROUNDING_TOL, relative=True)
    if miss is not None:
        raise AssertionError(f"not a member of the family: {miss[1]}")
    return out


def _levels(w: WeightFn) -> dict[int, tuple]:
    """(height, vertex weight, sum of the child edge weights) of every vertex,
    the sum taken over the children in label order; None at a leaf.  The
    edge weights are read by the keys of the tree's `child_edges` table."""
    vw, ew = w.vertex_weight, w.edge_weight
    out = {}
    for v, (h, keys) in w.tree.child_edges.items():
        total = ew[keys[0]] if keys else None
        for k in keys[1:]:
            total = total + ew[k]
        out[v] = (h, vw[v], total)
    return out


def _recipe_miss(
    levels: dict[int, tuple], a, b, tol: float, relative: bool = False
) -> tuple[int, str] | None:
    """The recipe check over _levels: (height, detail) of the first vertex,
    in label order, whose weight is not close to a[h] or whose child edges
    do not sum close to b[h - 1]; None when every vertex keeps the recipe.
    A float sum that overflows is named as such, since no b is close to it.
    With relative, tol is relative to max(1, |level value|)."""
    # each level's scale, converted once
    scale = lambda ys: [max(1.0, abs(float(y))) if relative else 1.0 for y in ys]
    sa, sb = scale(a), scale(b)
    for v, (h, x, total) in levels.items():
        if not close(x, a[h], tol, sa[h]):
            return h, f"vertex {v}: weight {x} != a"
        if total is None:
            continue
        if isinstance(total, float) and math.isinf(total):
            return h, f"vertex {v}: child edges sum beyond the float range"
        if not close(total, b[h - 1], tol, sb[h - 1]):
            return h, f"vertex {v}: child edges sum to {total} != b"
    return None


def _level_spectrum(a, b, prof: HedgeProfile, tol: float) -> SpectrumMultiset:
    """The level formula for the path (a_1.., b_2..): the union over levels
    i of ell_i copies of the spectrum of its trailing i-by-i block,
    clustered at tol."""
    specs = trailing_spectra(a, b)
    values = [float(v) for i, s in enumerate(specs, start=1) for v in s for _ in range(prof.ell_at(i))]
    return cluster_multiplicities(values, tol)


def ph_spectrum(c, prof: HedgeProfile) -> SpectrumMultiset:
    """Spectrum of any member of the family: the union over levels i of
    ell_i copies of the trailing i-by-i submatrix spectrum."""
    return _level_spectrum(*_path_levels(c, prof.height), prof, CLUSTER_TOL)


# ---------------------------------------------------------------------------
# critical lists


class CriticalWitness(Frozen):
    """Positions in a multiplicity list playing (m1, m2, n2, n3, n4); index
    None marks the zero-multiplicity placeholder for n4."""

    __slots__ = ("indices", "multiplicities", "thresholds")

    def __init__(
        self,
        indices: tuple[int | None, ...],
        multiplicities: tuple[int, ...],
        thresholds: tuple[int, ...],
    ) -> None:
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "multiplicities", multiplicities)
        object.__setattr__(self, "thresholds", thresholds)


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


class RecognizeResult(Frozen):
    """The recognized tuple and its region, the recovered weight of C_{H+1}
    (``path_weight``) and C_{H+1}^Lambda built from the recipe (``target``)."""

    __slots__ = ("lam", "region", "path_weight", "target")

    def __init__(
        self, lam: LambdaTuple, region: int | None, path_weight: WeightFn, target: WeightedMatrix
    ) -> None:
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "path_weight", path_weight)
        object.__setattr__(self, "target", target)


def _lush(t: RootedTree) -> RootedTree:
    if not is_lush(t) or t.height < 2:
        raise NotLush("the recognizer runs on lush hedges of height >= 2")
    return t


def _chain_path(t: RootedTree, levels: dict[int, tuple]) -> tuple[list, list]:
    """(a_1.., b_2..) read off the root's chain of smallest children: the
    chain vertex at height h gives a_{h+1} and its child-edge sum b_{h+1}."""
    chain = [t.root]
    while t.children[chain[-1]]:
        chain.append(t.children[chain[-1]][0])
    chain.reverse()
    return [levels[u][1] for u in chain], [levels[u][2] for u in chain[1:]]


def _accept(t: RootedTree, levels: dict[int, tuple], lam: LambdaTuple) -> RecognizeResult:
    """recognize on the _levels of a weight on the lush hedge t."""
    try:
        a, b = abc_coefficients(lam, t.height + 1)
    except ValueError as exc:
        raise NotFromConstruction(0, f"assignment is not feasible: {exc}") from exc
    miss = _recipe_miss(levels, a, b, WEIGHT_TOL)
    if miss is not None:
        raise NotFromConstruction(miss[0] + 1, miss[1])
    recovered = path_weight(*_chain_path(t, levels))
    target = unit_lower_representative(path_weight(a, b))  # build_C(lam, H + 1), from the checked a, b
    return RecognizeResult(lam, lam.region(), recovered, target)


def recognize(w: WeightFn, lam: LambdaTuple) -> RecognizeResult:
    """Check the recipe for a designated eigenvalue assignment: every vertex
    at height h carries a_{h+1} and its child edges sum to b_{h+1}.

    Raises NotFromConstruction at the first vertex that disagrees, with step
    h + 1.  The recovered path weight is read off the root's chain of
    smallest children.
    """
    return _accept(_lush(w.tree), _levels(w), lam)


def recognize_search(w: WeightFn) -> RecognizeResult:
    """Recover the eigenvalue assignment from the weight alone, without
    forming an n-by-n matrix.

    The path read off the root's chain of smallest children is C^Lambda for
    a member, so the level formula on it (ell_i copies of the spectrum of
    its trailing i-by-i block, clustered at SPECTRUM_TOL) is the member's
    spectrum.  The candidates are the assignments of those values that meet
    the critical thresholds; the first that `recognize` accepts is returned.
    As `recognize` wants every vertex within WEIGHT_TOL of one (a, b), a
    vertex more than 2 * WEIGHT_TOL from the chain's vertex at its height h
    is rejected first, with step h + 1.
    """
    t = _lush(w.tree)
    prof = profile(t)
    levels = _levels(w)
    a, b = _chain_path(t, levels)
    miss = _recipe_miss(levels, a, b, 2 * WEIGHT_TOL)
    if miss is not None:
        raise NotFromConstruction(miss[0] + 1, f"{miss[1]} (read off the chain of smallest children)")
    try:
        spec = _level_spectrum(a, b, prof, SPECTRUM_TOL)
    except OverflowError as exc:  # an exact chain value that no float candidate can match
        raise NotFromConstruction(
            "search", "a level value of the chain of smallest children lies beyond the float range"
        ) from exc
    vals = spec.values
    failures = []
    for idx in _critical_assignments(
        spec.ordered_multiplicities(), critical_thresholds(prof), prof.ell_at(3)
    ):
        lam = LambdaTuple(*(vals[i] for i in idx if i is not None))
        try:
            return _accept(t, levels, lam)
        except NotFromConstruction as exc:
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


class SplittingCounterexample(Frozen):
    """A realizable multiplicity list (unordered, descending) and a critical
    one that is not realizable, with the repeated eigenvalue that forbids it."""

    __slots__ = (
        "lam",
        "realizable",
        "not_realizable",
        "forced_eigenvalue",
        "forced_multiplicity",
        "max_distinct",
    )

    def __init__(
        self,
        lam: LambdaTuple,
        realizable: tuple[int, ...],
        not_realizable: tuple[int, ...],
        forced_eigenvalue: Fraction,
        forced_multiplicity: int,
        max_distinct: int,
    ) -> None:
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "realizable", realizable)
        object.__setattr__(self, "not_realizable", not_realizable)
        object.__setattr__(self, "forced_eigenvalue", forced_eigenvalue)
        object.__setattr__(self, "forced_multiplicity", forced_multiplicity)
        object.__setattr__(self, "max_distinct", max_distinct)

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


class ZeroOneReport(Frozen):
    __slots__ = ("child_counts", "critical_list", "contradiction")

    def __init__(
        self, child_counts: dict[int, int], critical_list: tuple[int, ...], contradiction: bool
    ) -> None:
        object.__setattr__(self, "child_counts", child_counts)
        object.__setattr__(self, "critical_list", critical_list)
        object.__setattr__(self, "contradiction", contradiction)

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
