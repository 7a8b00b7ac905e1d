"""Self-verifying reproduction runs for the worked examples.

Each run produces a RunReport with one pass/fail entry per assertion.  The
expected values are embedded in a manifest; each carries a provenance tag:
"analytic" for exact closed forms rederived here, "oracle" for values frozen
from an independent computation in the test suite, and "reference" for the
published decimal constants the rigid solution must reproduce.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from fractions import Fraction
from typing import TYPE_CHECKING

from . import Frozen, __version__
from .lambdas import LambdaTuple, build_C, level_coefficients, path_weight
# unused here; perfbench/tests checks that its tracer rebinds this name
from .numeric import eigenvalues_sym  # noqa: F401
from .polys import X, PolyQ, level_values, root_multiplicities
from .tolerance import SPECTRUM_TOL

if TYPE_CHECKING:
    from .weights import WeightFn


class UnknownExample(ValueError):
    pass


class RunReport(Frozen):
    """A run's pass/fail entries and outputs; filled in as the run goes, so
    mutable and unhashable."""

    __slots__ = ("example", "seed", "checks", "outputs", "wall_time")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        example: str,
        seed: int,
        checks: list[tuple[str, bool, str]] | None = None,
        outputs: dict | None = None,
        wall_time: float = 0.0,
    ) -> None:
        self.example = example
        self.seed = seed
        self.checks = [] if checks is None else checks
        self.outputs = {} if outputs is None else outputs
        self.wall_time = wall_time

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def to_json(self) -> dict:
        # the digest covers what determines the run
        inputs = {
            "example": self.example,
            "seed": self.seed,
            "manifest": MANIFEST.get(self.example),
            "version": __version__,
        }
        digest = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()[:16]
        return {
            "schema": "hedge-iep/1",
            "command": f"repro {self.example}",
            "inputs_digest": digest,
            "seed": self.seed,
            "checks": [
                {"name": n, "pass": ok, "detail": d} for n, ok, d in self.checks
            ],
            "outputs": self.outputs,
            "wall_time_s": round(self.wall_time, 4),
        }

    def print_lines(self) -> None:
        for name, ok, detail in self.checks:
            status = "PASS" if ok else "FAIL"
            line = f"[{status}] {name}"
            if detail:
                line += f": {detail}"
            print(line)
        print(f"{'ok' if self.passed else 'FAILED'} in {self.wall_time:.2f}s")


MANIFEST = {
    "table1": {
        "spectrum": [(0, 1), (1, 2), (2, 3), (3, 1), (5, 2), (11, 1)],
        "provenance": "analytic",
    },
    "table2": {
        # 3 - 2*sqrt(6), 1^2, 2^4, 5^2, 3 + 2*sqrt(6)
        "spectrum_str": ["3-2*sqrt6", "1^2", "2^4", "5^2", "3+2*sqrt6"],
        "provenance": "analytic",
    },
    "t31-constraints": {
        "p1": ["1/9", "2/9", "11/315", "2/63", "74/315", "2/9", "1/7"],
        "p2": ["1/9", "2/9", "7/90", "4/45", "7/90", "2/9", "1/5"],
        "provenance": "analytic",
    },
    "rigid-values": {
        "xi": 0.334981556,
        "alpha1": -0.604555194,
        "alpha2": 0.502965741,
        "beta3": 0.759864937,
        "lambda_37": -1.256899196,
        "lambda_48": -1.354063522,
        "lambda_49": -0.747525931,
        "provenance": "reference",
    },
    "rigid-t8-list": {
        "ordered": [
            1, 2, 6, 18, 54, 1, 164, 492, 18, 1, 1514, 6, 163, 18, 2, 2734,
            1640, 1, 6, 54, 2, 505, 168, 2, 1, 54, 18, 6, 2, 1,
        ],
        "total": 7654,
        "provenance": "reference",
    },
}


def _c3_weight(top: int) -> WeightFn:
    """The path weight of C_3 with diagonal (top, 4, 2) and edge weights
    20 and 3: top = 8 in Table 1, 2 in Table 2."""
    return path_weight([Fraction(2), Fraction(4), Fraction(top)], [Fraction(3), Fraction(20)])


def _check_hedge10(report: RunReport, wc: WeightFn, factors) -> None:
    """Check the member of the path weight wc on the ten-vertex hedge against
    prod f^m over the (f, m) factors: by the level formula and by elimination."""
    from . import pth
    from .trees import profile, ten_vertex_hedge
    from .weights import char_poly_of

    hedge10 = ten_vertex_hedge()
    prof = profile(hedge10)
    ps = level_values(*level_coefficients(wc), X)
    product = lambda pairs: math.prod((f for f, m in pairs for _ in range(m)), start=PolyQ.of(1))
    want = product(factors)
    levels = product((ps[i], prof.ell_at(i)) for i in range(1, prof.height + 2))
    report.check("level-formula spectrum", levels == want)
    report.check("direct eigendecomposition", char_poly_of(pth.ph_construct(wc, hedge10)) == want)


def repro_table1(report: RunReport, seed: int) -> None:
    expected = MANIFEST["table1"]["spectrum"]
    _check_hedge10(report, _c3_weight(8), [(X - v, m) for v, m in expected])
    report.outputs["spectrum"] = [(float(v), m) for v, m in expected]


def repro_table2(report: RunReport, seed: int) -> None:
    q = PolyQ.of(-15, -6, 1)  # its roots are 3 -+ 2 sqrt(6)
    _check_hedge10(report, _c3_weight(2), [(q, 1), (X - 1, 2), (X - 2, 4), (X - 5, 2)])
    # q < 0 at 1 and at 5 puts one root of q below 1 and the other above 5
    report.check("ordered multiplicities", q(1) < 0 and q(5) < 0)


def repro_bf_rs(report: RunReport, seed: int) -> None:
    """Realizations of the (1,2,4,2,1) list on the smallest height-2 lush
    hedge all satisfy gap1 = gap4, on 25 exact members.  Each spectrum is
    certified by inertia counts at five candidates, the four drawn values and
    the forced fifth eigenvalue: the counts at them must sum to 10, and the
    count below each must be the sum of the multiplicities before it."""
    import random

    from . import pth
    from .spectra import SpectrumMultiset, gap_vector
    from .trees import ten_vertex_hedge
    from .weights import inertia

    if seed < 0:
        raise ValueError("expected non-negative integer")
    hedge10 = ten_vertex_hedge()
    rng, den, draws = random.Random(seed), 1000, 25
    for _ in range(draws):
        # four distinct multiples of 1/den in (-3, 3)
        ks = rng.sample(range(1 - 3 * den, 3 * den), 4)
        b3, b2, a1, a2 = sorted(Fraction(k, den) for k in ks)
        member = pth.ph_construct(build_C(LambdaTuple(a1, a2, b2, b3), 3), hedge10)
        values = sorted((b3, b2, a1, a2, pth.forced_fifth_eigenvalue((a1, a2, b2, b3))))
        counts = [inertia(member, v) for v in values]
        mults = tuple(at for _, at, _ in counts)
        if sum(mults) != hedge10.n or any(
            below != sum(mults[:i]) for i, (below, _, _) in enumerate(counts)
        ):
            detail = f"(below, at, above) {counts} at {[str(v) for v in values]}"
            report.check("spectrum certified by inertia counts", False, detail)
            return
        if mults != (1, 2, 4, 2, 1):
            report.check("ordered list (1,2,4,2,1)", False, str(mults))
            return
        gv = gap_vector(SpectrumMultiset(tuple(zip(values, mults))))
        if gv.p[0] != gv.p[3]:
            report.check("gap1 = gap4", False, str([str(g) for g in gv.p]))
            return
    report.check("ordered list (1,2,4,2,1)", True, f"{draws} realizations")
    report.check("gap1 = gap4 on every realization", True, f"{draws} checked")


def repro_t31_constraints(report: RunReport, seed: int) -> None:
    from . import pth
    from .spectra import gap_vector
    from .trees import profile, smallest_lush_hedge

    prof = profile(smallest_lush_hedge(3))
    # the 50 interior points of the published sweep of [1/3, 273/500]
    lo, hi = Fraction(1, 3), Fraction(273, 500)
    xs = [lo + (hi - lo) * Fraction(k, 51) for k in range(1, 51)]
    all_hold = True
    for x in xs:
        spec = pth.t31_exact_spectrum(x, prof)
        res = pth.t31_constraints_check(spec.values)
        if not all(res.values()):
            all_hold = False
            report.check(f"constraints at x={x}", False, str(res))
    report.check("linear+trace+cubic hold exactly at 50 points", all_hold)
    p1 = gap_vector(pth.t31_exact_spectrum(Fraction(2, 5), prof))
    p2 = gap_vector(pth.t31_exact_spectrum(Fraction(1, 2), prof))
    want1 = tuple(Fraction(s) for s in MANIFEST["t31-constraints"]["p1"])
    want2 = tuple(Fraction(s) for s in MANIFEST["t31-constraints"]["p2"])
    report.check("gap vector at x=2/5", p1.p == want1, f"{[str(g) for g in p1.p]}")
    report.check("gap vector at x=1/2", p2.p == want2, f"{[str(g) for g in p2.p]}")


def repro_nonconvexity(report: RunReport, seed: int) -> None:
    from . import pth
    from .trees import profile, smallest_lush_hedge

    prof = profile(smallest_lush_hedge(3))
    s1 = pth.t31_exact_spectrum(Fraction(2, 5), prof)
    s2 = pth.t31_exact_spectrum(Fraction(1, 2), prof)
    mid = tuple((a + b) / 2 for a, b in zip(s1.values, s2.values))
    res1 = pth.t31_constraints_check(s1.values)
    res2 = pth.t31_constraints_check(s2.values)
    resm = pth.t31_constraints_check(mid)
    report.check("endpoints satisfy all constraints", all(res1.values()) and all(res2.values()))
    report.check("midpoint keeps the linear constraints", resm["linear"] and resm["trace"])
    report.check("midpoint violates the cubic", not resm["cubic"])


def repro_splitting_t31(report: RunReport, seed: int) -> None:
    from . import pth
    from .trees import smallest_lush_hedge
    from .weights import char_poly_of

    t31 = smallest_lush_hedge(3)
    ce = pth.splitting_counterexample(t31)
    report.check(
        "realizable list", ce.realizable == (11, 7, 6, 2, 2, 1, 1, 1), str(ce.realizable)
    )
    report.check(
        "split list", ce.not_realizable == (11, 7, 6, 2, 1, 1, 1, 1, 1),
        str(ce.not_realizable),
    )
    # certify realizability of m by an explicit construction
    got = root_multiplicities(char_poly_of(pth.ph_construct(build_C(ce.lam, 4), t31)))
    report.check("realizability by eigendecomposition", got == ce.realizable, str(got))
    report.check(
        "split list exceeds the distinct-eigenvalue budget",
        len(ce.not_realizable) > ce.max_distinct,
        f"{len(ce.not_realizable)} > {ce.max_distinct}",
    )
    report.outputs["report"] = ce.report()


def repro_zeroone_11(report: RunReport, seed: int) -> None:
    from . import pth
    from .trees import RootedTree

    # the 11-vertex tree: one extra leaf on a height-1 vertex of the
    # smallest height-2 lush hedge
    t = RootedTree((0, 1, 2, 1, 4, 1, 6, 2, 4, 6, 6))
    res = pth.zero_one_counterexample_check(t)
    report.check("child counts differ", res.contradiction, str(sorted(res.child_counts.values())))
    report.check("critical list", res.critical_list == (5, 2, 2, 1, 1), str(res.critical_list))
    report.outputs["report"] = res.report()


def repro_rigid_values(report: RunReport, seed: int) -> None:
    from . import algebraic, rigid

    # every sign in Q[xi] is decided on this interval, so it comes first
    lo, hi = algebraic.XI_INTERVAL
    report.check(
        "xi isolated by Sturm counts (exact)",
        algebraic.verify_isolation(),
        f"no root of the sextic in (0, {lo}], one in ({lo}, {hi}]",
    )
    sol = rigid.solve_rigid()
    want = MANIFEST["rigid-values"]
    for key in ("xi", "alpha1", "alpha2", "beta3", "lambda_37", "lambda_48", "lambda_49"):
        exact = float(sol.exact_values()[key])
        report.check(
            f"{key} matches reference decimals",
            abs(exact - want[key]) < 5e-10,
            f"{exact:.9f}",
        )
        report.check(f"{key} routes agree", exact == sol.route_a[key])
    certs = rigid.certify_coincidences()
    report.check("exact coincidences in the number field", all(certs.values()))
    e = rigid.eliminant()
    roots = rigid.unit_interval_roots(e)
    report.check(
        "unique in region 1 (exact)",
        roots == 1,
        f"eliminant of degree {e.degree}, roots in (0, 1): {roots}",
    )


def repro_rigid_t8_list(report: RunReport, seed: int) -> None:
    from . import rigid
    from .trees import profile, smallest_lush_hedge

    prof = profile(smallest_lush_hedge(8))
    rl = rigid.rigid_multiplicity_list(prof)
    want = tuple(MANIFEST["rigid-t8-list"]["ordered"])
    report.check("30-entry ordered list", rl.ordered == want, str(rl.ordered))
    report.check("sum", rl.total == MANIFEST["rigid-t8-list"]["total"], str(rl.total))
    report.outputs["ordered"] = list(rl.ordered)


def repro_levels_40(report: RunReport, seed: int) -> None:
    from . import rigid

    rows = rigid.level_figure_data(40)
    report.check("row count is 1+2+...+40", len(rows) == 820, str(len(rows)))
    bs = rigid.rigid_b_values(41)
    report.check("b_i > 0 up to level 41 (exact signs)", all(b.sign() == 1 for b in bs))
    gap = rigid.consecutive_interlacing_gap(40)
    report.check("consecutive levels stay disjoint", gap > SPECTRUM_TOL, f"min gap {gap:.3e}")
    report.outputs["rows"] = len(rows)


REPROS = {
    "table1": repro_table1,
    "table2": repro_table2,
    "bf-rs": repro_bf_rs,
    "t31-constraints": repro_t31_constraints,
    "nonconvexity": repro_nonconvexity,
    "splitting-t31": repro_splitting_t31,
    "zeroone-11": repro_zeroone_11,
    "rigid-values": repro_rigid_values,
    "rigid-t8-list": repro_rigid_t8_list,
    "levels-40": repro_levels_40,
}


def run_repro(example_id: str, seed: int = 0) -> RunReport:
    if example_id not in REPROS:
        raise UnknownExample(
            f"unknown example '{example_id}'; choose from {sorted(REPROS)}"
        )
    report = RunReport(example_id, seed)
    t0 = time.perf_counter()
    REPROS[example_id](report, seed)
    report.wall_time = time.perf_counter() - t0
    return report
