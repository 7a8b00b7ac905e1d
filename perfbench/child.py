"""The benchmark's work inside one child process: input generation, the
timed operations of each workload and the checks on their outputs.

run.py starts this file as

    python3 perfbench/child.py <task> --seed N [--seconds S] [--trace]

with ``src`` on PYTHONPATH and BLAS pinned to one thread.  The child prints
``READY <json>`` once it is set up (interpreter, ``import hedge_iep``, inputs)
and ``RESULT <json>`` when it is done; run.py times the gap between spawning
it and the READY line as set-up time.

Every operation reports the problems its checks found.  An operation that
raises is recorded with the exception and counts as failed; nothing is
swallowed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction

_t_import = time.perf_counter()
import hedge_iep  # noqa: E402  (the import itself is measured)

IMPORT_S = time.perf_counter() - _t_import

import numpy as np  # noqa: E402

from hedge_iep import (  # noqa: E402
    cli,
    covers,
    lambdas,
    numeric,
    pth,
    rigid,
    spectra,
    trees,
    weights,
)

import tracing  # noqa: E402
from run import check_repro_output  # noqa: E402

perf_counter = time.perf_counter

# ---------------------------------------------------------------------------
# expectations; tests replace fields to inject a wrong expectation


@dataclass(frozen=True)
class Expect:
    #: the paper's decimals for the rigid tuple (scaled so beta2 = -1, beta4 = 1)
    constants: dict = field(
        default_factory=lambda: {
            "xi": 0.334981556,
            "alpha1": -0.604555194,
            "alpha2": 0.502965741,
            "beta3": 0.759864937,
            "lambda_37": -1.256899196,
            "lambda_48": -1.354063522,
            "lambda_49": -0.747525931,
        }
    )
    constant_tol: float = 5e-10
    route_tol: float = 1e-9
    t8_list: tuple = (
        1, 2, 6, 18, 54, 1, 164, 492, 18, 1, 1514, 6, 163, 18, 2, 2734,
        1640, 1, 6, 54, 2, 505, 168, 2, 1, 54, 18, 6, 2, 1,
    )
    t8_total: int = 7654
    level_rows: int = 820
    #: the only level pairs whose simplified resultant vanishes at the rigid point
    coincident_pairs: frozenset = frozenset({(3, 7), (4, 8), (4, 9)})
    weight_tol: float = 1e-9
    spectrum_tol: float = 1e-8
    perturbation: float = 1.01


EXPECT = Expect()

SCAN_PAIRS = tuple((a, b) for a in range(3, 8) for b in range(a + 1, 8)) + (
    (3, 8), (4, 8), (5, 8), (3, 9), (4, 9),
)

# One pass of hedge-pipeline: (class, hedge height, region of the assignment).
# Every pass has the same shapes and region mix, so the work in a pass hardly
# depends on the seed; the seed draws labels, values, splits and the edge.
PASS_PLAN = (
    3 * [("small", h, r) for h in (2, 3) for r in range(1, 13)]
    + [("large", h, r) for h in (4, 5) for r in (1, 7)]
    + 2 * [("exact", h, r) for h in (2, 3, 4) for r in range(1, 13)]
)

# ---------------------------------------------------------------------------
# inputs


@dataclass(frozen=True)
class TripInput:
    kind: str  # small | large | exact
    parents: tuple
    lam: lambdas.LambdaTuple
    splits: object  # dict vertex -> split tuple, or "uniform"
    edge: tuple  # pinned edge perturbed for the rejection check
    x: Fraction  # t31 family parameter (exact class)


def hedge_parents(rng, height: int) -> tuple:
    """Lush hedge of the given height as a 1-based parent array, labelled
    breadth first.  Below height >= 2 a vertex has 3 or 4 children, below
    height 1 it has 2 or 3 leaves; on each level the larger count goes to a
    random half (rounded up), so the vertex count depends on the height only
    (15, 54, 191, 670 for heights 2-5)."""
    parent, level = [0], [1]
    for h in range(height, 0, -1):
        base = 3 if h >= 2 else 2
        more = set(rng.permutation(len(level))[: (len(level) + 1) // 2].tolist())
        nxt = []
        for i, v in enumerate(level):
            for _ in range(base + (i in more)):
                parent.append(v)
                nxt.append(len(parent))
        level = nxt
    return tuple(parent)


def make_trip(kind: str, height: int, region: int, rng) -> TripInput:
    exact = kind == "exact"
    parents = hedge_parents(rng, height)
    while True:
        lam = lambdas.sample_in_region(region, rng, exact=exact)
        if not exact:
            lam = lambdas.LambdaTuple(*[float(v) for v in lam.values()])
        try:  # exact grids can hit alpha2 + beta2 = beta3 + beta4, outside the recipe
            lambdas.abc_coefficients(lam, height + 1)
            break
        except ValueError:
            continue
    if exact:
        splits = "uniform"
    else:
        splits = {}
        for v in range(1, len(parents) + 1):
            k = parents.count(v)
            if k:
                raw = rng.uniform(0.2, 1.0, size=k)
                splits[v] = tuple(float(s) for s in raw / raw.sum())
    pinned = [(p, v) for v, p in enumerate(parents, start=1) if p not in (0, 1)]
    edge = pinned[int(rng.integers(0, len(pinned)))]
    x = Fraction(1, 3) + Fraction(int(rng.integers(1, 51)), 250)
    return TripInput(kind, parents, lam, splits, edge, x)


def hedge_inputs(seed: int) -> list[TripInput]:
    """One pass of hedge-pipeline inputs; the same seed gives the same list."""
    rng = np.random.default_rng(seed)
    return [make_trip(kind, h, r, rng) for kind, h, r in PASS_PLAN]


# ---------------------------------------------------------------------------
# operations; each returns (problems, sizes)


def _weight_err(a, b) -> float:
    t = b.tree
    errs = [abs(float(a.v(i)) - float(b.v(i))) for i in t.vertices]
    errs += [abs(float(a.e(u, v)) - float(b.e(u, v))) for u, v in t.edges]
    return max(errs)


def _spectra_agree(s1, s2, tol: float) -> bool:
    if s1.ordered_multiplicities() != s2.ordered_multiplicities():
        return False
    v1, v2 = s1.values, s2.values
    width = max(1.0, float(v1[-1] - v1[0]))
    return all(abs(float(a) - float(b)) <= tol * width for a, b in zip(v1, v2))


def float_trip(inp: TripInput, expect: Expect = EXPECT):
    problems = []
    t = trees.build_hedge(inp.parents)
    prof = trees.profile(t)
    c = lambdas.build_C(inp.lam, t.height + 1)
    cw = c.weight()
    w = pth.ph_construct(c, t, inp.splits)
    formula = pth.ph_spectrum(c, prof)
    dense = numeric.cluster_multiplicities(
        numeric.eigenvalues_sym(weights.symmetric_representative(w).to_numpy())
    )
    if not _spectra_agree(formula, dense, expect.spectrum_tol):
        problems.append("level-formula spectrum differs from the dense spectrum")
    res = pth.recognize(w, inp.lam)
    if _weight_err(res.path_weight, cw) > expect.weight_tol:
        problems.append("recognize recovered the wrong path weight")
    found = pth.recognize_search(w)
    lam = inp.lam
    if abs(found.lam.alpha1 - lam.alpha1) > expect.weight_tol or max(
        abs(x - y)
        for x, y in zip(sorted((found.lam.alpha2, found.lam.beta2)), sorted((lam.alpha2, lam.beta2)))
    ) > expect.weight_tol:
        problems.append("recognize_search did not recover the assignment")
    if _weight_err(found.target.weight(), cw) > expect.weight_tol:
        problems.append("recognize_search rebuilt the wrong path matrix")
    ew = dict(w.edge_weight)
    ew[inp.edge] = ew[inp.edge] * expect.perturbation
    try:
        pth.recognize_search(weights.WeightFn(t, dict(w.vertex_weight), ew))
        problems.append(f"perturbed edge {inp.edge} was accepted")
    except pth.NotFromConstruction:
        pass
    p, _ = covers.path_cover_number(t)
    z, _ = covers.zero_forcing_number(t)
    m = covers.M_formula(prof, 0)
    if not p == z == m:
        problems.append(f"P = {p}, Z = {z}, M = {m} differ")
    return problems, {"vertices": t.n}


def exact_trip(inp: TripInput, expect: Expect = EXPECT):
    problems = []
    t = trees.build_hedge(inp.parents)
    c = lambdas.build_C(inp.lam, t.height + 1)
    cw = c.weight()
    w = pth.ph_construct(c, t, inp.splits)
    res = pth.recognize(w, inp.lam)
    pw = res.path_weight
    if not (
        pw.is_exact()
        and all(pw.v(i) == cw.v(i) for i in cw.tree.vertices)
        and all(pw.e(u, v) == cw.e(u, v) for u, v in cw.tree.edges)
    ):
        problems.append("exact recognize did not return build_C's path weight")
    prof31 = trees.profile(trees.smallest_lush_hedge(3))
    spec = pth.t31_exact_spectrum(inp.x, prof31)
    held = pth.t31_constraints_check(spec.values)
    if not all(held.values()):
        problems.append(f"t31 constraints fail at x = {inp.x}: {held}")
    gv = spectra.gap_vector(spec)
    if sum(gv.p) != 1:
        problems.append("t31 gap vector does not sum to 1")
    return problems, {"vertices": t.n}


def chain_solve(prof8, expect: Expect = EXPECT):
    problems = []
    sol = rigid.solve_rigid()
    exact = sol.exact_values()
    for key, want in expect.constants.items():
        got = float(exact[key])
        if not abs(got - want) < expect.constant_tol:
            problems.append(f"{key} = {got:.12f}, reference {want}")
        if not abs(got - sol.route_a[key]) < expect.route_tol:
            problems.append(f"routes disagree on {key}")
    return problems, {}


def chain_certify(prof8, expect: Expect = EXPECT):
    ok = all(rigid.certify_coincidences().values())
    return ([] if ok else ["coincidence certificates failed"]), {}


def chain_companion(prof8, expect: Expect = EXPECT):
    entry, _, _ = rigid.companion_double_root_entry()
    return (["companion double-root entry vanishes"] if entry.is_zero() else []), {}


def chain_list(prof8, expect: Expect = EXPECT):
    rl = rigid.rigid_multiplicity_list(prof8)
    if rl.ordered != expect.t8_list or rl.total != expect.t8_total:
        return [f"rigid list {rl.ordered} (sum {rl.total})"], {}
    return [], {"list_entries": len(rl.ordered)}


def chain_levels(prof8, expect: Expect = EXPECT):
    rows = rigid.level_figure_data(40)
    return ([] if len(rows) == expect.level_rows else [f"{len(rows)} level rows"]), {}


def chain_b_values(prof8, expect: Expect = EXPECT):
    bs = rigid.rigid_b_values(41)
    ok = len(bs) == 40 and all(b.sign() == 1 for b in bs)
    return ([] if ok else ["some b_i <= 0 at the rigid point"]), {}


def chain_gap(prof8, expect: Expect = EXPECT):
    gap = rigid.consecutive_interlacing_gap(40)
    return ([] if gap > 1e-9 else [f"consecutive levels meet (gap {gap:.3e})"]), {}


#: the rigid chain, run in this order in one cold child; one operation per step
CHAIN = (
    ("solve_rigid", chain_solve),
    ("certify_coincidences", chain_certify),
    ("companion_entry", chain_companion),
    ("multiplicity_list", chain_list),
    ("level_figure", chain_levels),
    ("b_values", chain_b_values),
    ("interlacing_gap", chain_gap),
)


def scan_pair(a: int, b: int, point: dict, expect: Expect = EXPECT):
    residual, _, _ = rigid.simplify_resultant(a, b)
    value = residual.evaluate(point["alpha1"], point["alpha2"], point["beta3"])
    coincident = (a, b) in expect.coincident_pairs
    if value.is_zero() != coincident:
        return [f"r'_{a},{b} {'does not vanish' if coincident else 'vanishes'} at the rigid point"], {}
    return [], {}


def scan_sizes(pairs) -> dict:
    """Sizes read from the scan's outputs (cache hits after the scan)."""
    out = {}
    for a, b in pairs:
        r = rigid.level_resultant(a, b)
        order = rigid.remainder_symbolic(a).degree + rigid.remainder_symbolic(b).degree
        out[f"{a},{b}"] = {"terms": len(r), "total_degree": r.total_degree(), "sylvester_order": order}
    return out


# ---------------------------------------------------------------------------
# running operations

#: The host's speed drifts by 10-30 % from one second to the next.  A fixed
#: pure-Python kernel, timed between operations, measures that speed, and
#: in-process timings are also given in reference seconds:
#: seconds * KERNEL_REF_S / (kernel seconds around the operation).
KERNEL_REF_S = 0.012
KERNEL_GAP_S = 0.2  # at most this much work between two kernel samples


def kernel_seconds() -> float:
    t0 = perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 2000):
        acc += Fraction(i, i + 1)
        table[i % 97] = table.get(i % 97, 0) + i
    return perf_counter() - t0


class HostClock:
    """Kernel samples between operations; each operation is scaled by the
    mean of the samples just before and just after it."""

    def __init__(self):
        self.samples = [kernel_seconds()]
        self.last = perf_counter()
        self.pending: list[tuple[dict, int]] = []

    def record(self, op: dict, before: int) -> None:
        self.pending.append((op, before))
        if perf_counter() - self.last >= KERNEL_GAP_S:
            self.flush()

    def flush(self) -> None:
        self.samples.append(kernel_seconds())
        self.last = perf_counter()
        after = self.samples[-1]
        for op, before in self.pending:
            ref = (self.samples[before] + after) / 2
            op["kernel_s"] = ref
            op["t_ref"] = op["t"] * KERNEL_REF_S / ref
        self.pending.clear()


def run_op(tracer, clock: HostClock, kind: str, fn, *args) -> dict:
    """Time one operation inside a request span and record its checks."""
    before = len(clock.samples) - 1
    t0 = perf_counter()
    try:
        with tracer.request(kind):
            problems, sizes = fn(*args)
    except Exception as exc:  # recorded as a failed operation, with its traceback
        problems, sizes = [f"{type(exc).__name__}: {exc}", traceback.format_exc(limit=4)], {}
    dt = perf_counter() - t0
    op = {"kind": kind, "t": dt, "ok": not problems, "problems": problems, "sizes": sizes}
    clock.record(op, before)
    return op


def hedge_pass(tracer, clock: HostClock, inputs, expect: Expect = EXPECT) -> list[dict]:
    ops = []
    for inp in inputs:
        fn = exact_trip if inp.kind == "exact" else float_trip
        ops.append(run_op(tracer, clock, inp.kind, fn, inp, expect))
    clock.flush()
    return ops


def rigid_chain(tracer, clock: HostClock, prof8, expect: Expect = EXPECT) -> list[dict]:
    return [run_op(tracer, clock, "chain " + name, step, prof8, expect) for name, step in CHAIN]


def scan(tracer, clock: HostClock, pairs=SCAN_PAIRS, expect: Expect = EXPECT) -> list[dict]:
    point = rigid.route_b_values()
    return [run_op(tracer, clock, f"scan {a},{b}", scan_pair, a, b, point, expect)
            for a, b in pairs]


def repro_in_process(example: str, seed: int):
    """cli.main for one repro id with its output captured and checked."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["repro", example, "--json", "--seed", str(seed)])
    return check_repro_output(code, buf.getvalue()), {}


# ---------------------------------------------------------------------------
# entry point


def _emit(tag: str, payload: dict) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("task", choices=["setup", "repro", "chain", "scan", "hedge"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--example", help="repro id (task repro)")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out", help="file for the recorded spans")
    args = ap.parse_args(argv)

    import scipy

    ready = {
        "import_s": IMPORT_S,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    inputs = prof8 = None
    if args.task == "hedge":
        inputs = hedge_inputs(args.seed)
    elif args.task == "chain":
        prof8 = trees.profile(trees.smallest_lush_hedge(8))
    tracer = tracing.Tracer() if args.trace else tracing.NO_TRACE
    _emit("READY", ready)
    clock = HostClock()

    result: dict = {"passes": []}
    if args.task in ("repro", "chain", "scan"):
        with tracer.installed():
            if args.task == "scan":
                ops = scan(tracer, clock)
                result["scan_sizes"] = scan_sizes(SCAN_PAIRS)
            elif args.task == "chain":
                ops = rigid_chain(tracer, clock, prof8)
            else:
                ops = [run_op(tracer, clock, "repro." + args.example, repro_in_process,
                              args.example, args.seed)]
            clock.flush()
        result["passes"].append({"traced": args.trace, "ops": ops})
    elif args.task == "hedge":
        # closed loop: the next pass starts when the last one is done, while
        # it still fits in --seconds; a traced child alternates untraced and
        # traced passes, so the tracing overhead is measured in one process
        start = perf_counter()
        modes = (False, True) if args.trace else (False,)
        while True:
            t0 = perf_counter()
            for traced in modes:
                tr = tracer if traced else tracing.NO_TRACE
                with tr.installed():
                    result["passes"].append({"traced": traced, "ops": hedge_pass(tr, clock, inputs)})
            last = perf_counter() - t0
            if perf_counter() - start + last > args.seconds:
                break
    if args.trace:
        result["layers"] = tracer.summary()
        if args.spans_out:
            tracer.write(args.spans_out)
    _emit("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
