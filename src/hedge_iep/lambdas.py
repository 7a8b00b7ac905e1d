"""The five distinguished eigenvalues, their feasibility regions and the
greedy tridiagonal family built from them.

A tuple (alpha1, alpha2, beta2, beta3, beta4) admits the full coefficient
recipe exactly when it falls in one of twelve disjoint order regions; the
first six are the reverses of the last six, so negating a tuple moves region
k to region k +- 6.  The matrices C_n carry alpha values with period two on
the diagonal and beta values with period three on the superdiagonal.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .numeric import trailing_spectra
from .polys import X, NonzeroRemainder, PolyQ, level_values
from .tolerance import SINGULAR_TOL, close
from .trees import HedgeProfile, RootedTree
from .weights import WeightedMatrix, WeightFn, unit_lower_representative

if TYPE_CHECKING:
    import numpy as np


#: the largest float, an integer: exact values compare with it without a
#: 1024-bit float-to-ratio conversion per comparison
_FLOAT_MAX_INT = int(sys.float_info.max)


class DuplicateValues(ValueError):
    pass


class NotInB(ValueError):
    pass


class NotInB3(NotInB):
    pass


class DegenerateSum(ValueError):
    pass


# ascending label chains; aux is the required sign of alpha2+beta2-beta3-beta4
_REGIONS: tuple[tuple[tuple[str, ...], int], ...] = (
    (("b2", "a1", "a2", "b3", "b4"), 0),
    (("b2", "b4", "a1", "a2", "b3"), 0),
    (("b4", "b2", "a1", "a2", "b3"), +1),
    (("b3", "b2", "a1", "a2", "b4"), -1),
    (("b3", "b2", "b4", "a1", "a2"), 0),
    (("b4", "b3", "b2", "a1", "a2"), 0),
    (("b4", "b3", "a2", "a1", "b2"), 0),
    (("b3", "a2", "a1", "b4", "b2"), 0),
    (("b3", "a2", "a1", "b2", "b4"), -1),
    (("b4", "a2", "a1", "b2", "b3"), +1),
    (("a2", "a1", "b4", "b2", "b3"), 0),
    (("a2", "a1", "b2", "b3", "b4"), 0),
)

_LABELS = ("a1", "a2", "b2", "b3", "b4")


def region_of(values) -> int | None:
    """Region index 1..12 of (alpha1, alpha2, beta2, beta3, beta4), or None.

    Boundary points of the auxiliary inequality in regions 3, 4, 9, 10 get
    None; membership is only claimed on the open regions.
    """
    if len(values) != 5:
        raise ValueError("need exactly five values")
    if len(set(values)) != 5:
        raise DuplicateValues("the five values must be pairwise distinct")
    named = dict(zip(_LABELS, values))
    chain = tuple(sorted(_LABELS, key=lambda k: named[k]))
    s = named["a2"] + named["b2"] - named["b3"] - named["b4"]
    for idx, (pattern, aux) in enumerate(_REGIONS, start=1):
        if chain != pattern:
            continue
        if aux == 0:
            return idx
        if aux > 0 and s > 0:
            return idx
        if aux < 0 and s < 0:
            return idx
        return None
    return None


#: the distinguished values in their canonical order
NAMES = ("alpha1", "alpha2", "beta2", "beta3", "beta4")


def level_names(i: int) -> tuple[str, ...]:
    """The distinguished values in the spectrum of C_i: alpha_i (alpha1 on
    odd levels, alpha2 on even ones) and, from level 2 on, beta_i (beta2,
    beta3, beta4 with period three)."""
    alpha = NAMES[0] if i % 2 == 1 else NAMES[1]
    return (alpha,) if i < 2 else (alpha, NAMES[2 + (i - 2) % 3])


def generic_multiplicities(prof: HedgeProfile) -> dict[str, int]:
    """Multiplicity of each distinguished value in a family member on a hedge
    with this profile: the sum of ell_i over the levels i whose C_i carries
    it (no coincidences beyond the level pattern)."""
    mult = dict.fromkeys(NAMES, 0)
    for i in range(1, prof.height + 2):
        for name in level_names(i):
            mult[name] += prof.ell_at(i)
    return mult


@dataclass(frozen=True)
class LambdaTuple:
    """The distinguished eigenvalues; beta4 (and beta3) may be omitted when
    only the short matrices C_1..C_3 are needed, but no value follows a
    missing one."""

    alpha1: object
    alpha2: object | None = None
    beta2: object | None = None
    beta3: object | None = None
    beta4: object | None = None

    def __post_init__(self) -> None:
        raw = (self.alpha1, self.alpha2, self.beta2, self.beta3, self.beta4)
        given = [x is not None for x in raw]
        if not given[0] or given != sorted(given, reverse=True):
            raise ValueError(f"give alpha1 and the values after it in the order {NAMES}")

    def values(self) -> tuple:
        out = [self.alpha1, self.alpha2, self.beta2, self.beta3, self.beta4]
        return tuple(v for v in out if v is not None)

    def full(self) -> bool:
        return self.beta4 is not None

    def region(self) -> int | None:
        if not self.full():
            return None
        return region_of((self.alpha1, self.alpha2, self.beta2, self.beta3, self.beta4))

    def alpha(self, i: int):
        """alpha_i: period two, alpha1 on odd indices."""
        return getattr(self, level_names(i)[0])

    def beta(self, i: int):
        """beta_i for i >= 2: period three extending (beta2, beta3, beta4)."""
        if i < 2:
            raise ValueError("beta_i is defined for i >= 2")
        return getattr(self, level_names(i)[1])

    def negated(self) -> "LambdaTuple":
        return LambdaTuple(*(-x for x in self.values()))


def in_B3(lam: LambdaTuple) -> bool:
    """Membership in the projection that drops beta4: four distinct values
    with b2 and b3 positive."""
    vals = (lam.alpha1, lam.alpha2, lam.beta2, lam.beta3)
    if any(v is None for v in vals) or len(set(vals)) != 4:
        return False
    return all(bi > 0 for bi in abc_closed_forms(lam, 3)[1])


def abc_closed_forms(lam: LambdaTuple, n: int) -> tuple[list, list]:
    """The diagonal entries a_1..a_n and superdiagonal entries b_2..b_n of
    the greedy family by the closed forms, over any scalar ring (floats,
    Fractions, Q[xi], polynomials in the free parameters); no checks."""
    a = [-lam.alpha1 + lam.alpha2 + lam.beta2 if i == 2 else lam.alpha(i) for i in range(1, n + 1)]
    b = []
    for i in range(2, n + 1):
        if i == 2:
            bi = (lam.beta2 - lam.alpha1) * (lam.alpha1 - lam.alpha2)
        elif i == 3:
            bi = (lam.beta3 - lam.alpha2) * (lam.beta3 - lam.beta2)
        elif i == 4:
            bi = (
                (lam.beta4 - lam.alpha1)
                * (lam.beta3 - lam.beta4)
                * (lam.alpha2 + lam.beta2 - lam.beta3 - lam.beta4)
            ) / (lam.beta4 - lam.beta2)
        else:
            bi = (lam.beta(i) - lam.alpha1) * (lam.beta(i) - lam.alpha2)
        b.append(bi)
    return a, b


def abc_coefficients(lam: LambdaTuple, n: int) -> tuple[list, list]:
    """The closed forms of abc_closed_forms for a feasible tuple: enough
    pairwise distinct values, no degenerate sum, every b_i positive and
    every a_i and b_i that is an int, a rational or a float within the
    float range."""
    if n < 1:
        raise ValueError("n must be >= 1")
    need = 1 if n == 1 else (3 if n == 2 else (4 if n == 3 else 5))
    vals = lam.values()
    if len(vals) < need:
        raise NotInB(f"n = {n} needs {need} distinguished values")
    if len(set(vals)) != len(vals):
        raise DuplicateValues("distinguished values must be pairwise distinct")
    if n >= 4 and lam.alpha2 + lam.beta2 == lam.beta3 + lam.beta4:
        raise DegenerateSum("alpha2 + beta2 = beta3 + beta4 breaks the recipe")
    a, b = abc_closed_forms(lam, n)
    for i, bi in enumerate(b, start=2):
        if not bi > 0:
            err = NotInB3 if n <= 3 else NotInB
            raise err(f"b_{i} = {bi} is not positive")
    for name, xs, start in (("b", b, 2), ("a", a, 1)):
        for i, x in enumerate(xs, start=start):
            limit = sys.float_info.max if isinstance(x, float) else _FLOAT_MAX_INT
            if isinstance(x, (int, float, Fraction)) and abs(x) > limit:
                cmp, bound = (">", sys.float_info.max) if x > 0 else ("<", -sys.float_info.max)
                raise ValueError(f"{name}_{i} overflows a float: {name}_{i} {cmp} {bound:.6g}")
    return a, b


@lru_cache(maxsize=64)
def _path_tree(n: int) -> RootedTree:
    """The path 1..n hanging from vertex 1, validated once per length;
    the tree is immutable, so every path weight of that length shares it."""
    return RootedTree(tuple(range(n)))


def path_weight(a, b) -> WeightFn:
    """The path weight with level coefficients a_1..a_n and b_2..b_n: the
    path 1..n hanging from vertex 1, where the vertex at height h carries
    a_{h+1} and the edge to its child carries b_{h+1}."""
    n = len(a)
    path = _path_tree(n)
    return WeightFn(
        path,
        {u: a[n - u] for u in path.vertices},
        {(u, u + 1): b[n - 1 - u] for u in range(1, n)},
    )


def level_coefficients(w: WeightFn) -> tuple[list, list]:
    """The inverse of path_weight: (a_1..a_n, b_2..b_n) read up a path
    weight from its leaf, whatever the labels."""
    t = w.tree
    chain = [t.root]
    while t.children[chain[-1]]:
        chain.append(t.children[chain[-1]][0])
    if len(chain) != t.n:
        raise ValueError("the weight does not live on a path")
    chain.reverse()
    return [w.v(u) for u in chain], [w.e(u, p) for u, p in zip(chain, chain[1:])]


def build_C(lam: LambdaTuple, n: int) -> WeightedMatrix:
    """The n-by-n greedy path matrix: unit subdiagonal, diagonal
    (a_n, ..., a_1), superdiagonal (b_n, ..., b_2)."""
    return unit_lower_representative(path_weight(*abc_coefficients(lam, n)))


def char_polys(lam: LambdaTuple, n: int) -> list[PolyQ]:
    """Exact characteristic polynomials p_0..p_n of the trailing submatrices,
    the level recurrence at the indeterminate; needs exact scalars."""
    return level_values(*abc_coefficients(lam, n), X)


def remainder_of(lam: LambdaTuple, n: int, p_n: PolyQ) -> PolyQ:
    """r_n = p_n / ((x - alpha_n)(x - beta_n)) over any exact scalar ring.
    Exact division; a nonzero remainder means the tuple is not eligible."""
    try:
        return p_n.exact_div((X - lam.alpha(n)) * (X - lam.beta(n)))
    except NonzeroRemainder as exc:
        raise NonzeroRemainder(
            f"p_{n} is not divisible by (x - alpha_{n})(x - beta_{n}): {exc}"
        ) from exc


def remainder_poly(lam: LambdaTuple, n: int) -> PolyQ:
    """r_n of a feasible tuple: the level-n eigenvalues that are not
    distinguished ones."""
    if n < 3:
        raise ValueError("remainder polynomials start at n = 3")
    return remainder_of(lam, n, char_polys(lam, n)[n])


def step_lemma_checks(lam: LambdaTuple, n: int) -> list[str]:
    """Check, on the built family, the subpath eigenvalue-step facts:
    consecutive spectra are disjoint, an eigenvalue of C_{k-2} recurs in C_k
    iff a_k equals it, and one of C_{k-3} recurs iff b_k matches the product
    rule.  Returns a list of violations (empty on success)."""
    if n < 4:
        raise ValueError("the checks need n >= 4")
    a, b = abc_coefficients(lam, n)
    return step_lemma_checks_raw([float(x) for x in a], [float(x) for x in b])


def step_lemma_checks_raw(a: list, b: list) -> list[str]:
    """Same checks for an arbitrary coefficient family (a_1.., b_2..), with
    eigenvalues equal within SINGULAR_TOL times max(1, width of spec C_n)."""
    import numpy as np

    n = len(a)
    specs = [np.array([])] + trailing_spectra(a, b)
    width = max(1.0, float(specs[n][-1] - specs[n][0]))
    cut = SINGULAR_TOL * width
    member = lambda x, spec: bool(np.min(np.abs(spec - x)) <= cut)
    bad = []
    for k in range(2, n + 1):
        gap = min(abs(x - y) for x in specs[k] for y in specs[k - 1])
        if gap <= cut:
            bad.append(f"spec(C_{k-1}) meets spec(C_{k})")
    for k in range(3, n + 1):
        for x in specs[k - 2]:
            if member(x, specs[k]) != close(a[k - 1], x, SINGULAR_TOL, width):
                bad.append(f"alpha-step fails at k={k}, value {x}")
    for k in range(4, n + 1):
        for x in specs[k - 3]:
            rule = close(b[k - 1 - 1], (x - a[k - 1]) * (x - a[k - 2]), SINGULAR_TOL, width)
            if member(x, specs[k]) != rule:
                bad.append(f"beta-step fails at k={k}, value {x}")
    return bad


# ---------------------------------------------------------------------------
# sampling


def sample_in_region(region: int, rng: np.random.Generator, exact: bool = False) -> LambdaTuple:
    """A random tuple in the given open region: five sorted draws laid on the
    region's label chain.  Regions with an auxiliary inequality are sampled
    through the gamma = alpha2+beta2-beta4 chart, gamma taking the place of
    beta4 above beta3 (sum positive) or below it (sum negative)."""
    import numpy as np

    if not 1 <= region <= 12:
        raise ValueError("region must be 1..12")
    if region > 6:
        return sample_in_region(region - 6, rng, exact).negated()
    if exact:
        raw = sorted(int(x) for x in rng.choice(np.arange(-60, 61), size=5, replace=False))
        den = 3 * int(rng.integers(1, 5))
        vals = [Fraction(x, den) for x in raw]
    else:
        vals = sorted(rng.uniform(-3.0, 3.0, size=5).tolist())
    chain, aux = _REGIONS[region - 1]
    if aux:
        rest = tuple(k for k in chain if k != "b4")
        chain = (*rest, "gamma") if aux > 0 else ("gamma", *rest)
    named = dict(zip(chain, vals))
    if aux:
        named["b4"] = (named["a2"] + named["b2"]) - named["gamma"]
    lam = LambdaTuple(*(named[k] for k in _LABELS))
    if region_of(lam.values()) != region:
        raise AssertionError("sampler produced a tuple outside its region")
    return lam
