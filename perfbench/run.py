"""hedge-iep benchmark: one closed-loop client, one request at a time.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Workloads (see perfbench/DESIGN.md for why each was chosen):

* ``repro-cold``     every pass runs the ten ``repro <id> --json`` ids, each as
                     its own cold ``python -m hedge_iep`` process.
* ``rigid-exact``    every pass runs the rigid chain and the non-coincidence
                     scan, each in a fresh child (cold caches), timed after import.
* ``hedge-pipeline`` seeded random lush hedges through the path-to-hedge round
                     trip: small and large float hedges and exact hedges.

With ``--trace 0`` the last line of output is the end-to-end result; with
``--trace 1`` the package's public functions are wrapped from outside and the
last line carries the per-layer metrics.  Every child has BLAS pinned to one
thread, ``src`` on PYTHONPATH and no HEDGE_IEP_SEED; the seed is passed
explicitly.  Results, the environment record and recorded spans are also
written under perfbench/out/.  The exit code is 0 when every check passed,
1 when some check failed and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PY = sys.executable
CHILD_TIMEOUT_S = 170

BLAS_PIN = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}

REPRO_LIGHT = (
    "table1", "table2", "bf-rs", "t31-constraints", "nonconvexity",
    "splitting-t31", "zeroone-11",
)
REPRO_RIGID = ("rigid-values", "rigid-t8-list", "levels-40")
# Cold-start times (CLI calls, set-up) are scaled to a host where a cold
# `python -c "import numpy"` takes PROBE_REF_S (typical on a 2-core x86 VM).
PROBE_REF_S = 0.2

# suffix of a per-layer metric -> field of the merged span rows
SPAN_FIELDS = ((".self_s", "self_s"), (".calls", "calls"), ("_s", "total_s"))
CACHE_COUNTS = (".computes", ".cache_hits")
SPAN_NAMES = {name for name, _, _ in tracing.TARGETS}


def load_spec() -> dict:
    """Metric names and units: BENCHMARK.json at the repository root."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "HEDGE_IEP_SEED"}
    env.update(BLAS_PIN)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Run:
    """One benchmark run: settings, set-up samples, operation records and
    what traced children report."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.env = child_env()
        self.start = time.perf_counter()
        self.setup: list[float] = []  # spawn -> READY of each timed child
        self.imports: list[float] = []  # in-child `import hedge_iep` times
        self.ops: list[dict] = []
        self.layers: list[dict] = []  # tracer summaries of traced children
        self.scan_sizes: dict = {}
        self.probes: list[float] = []  # cold `import numpy` times
        self.ready: dict = {}
        self.children = 0

    def closed_loop(self, requests) -> list[dict]:
        """One client issues the requests of a pass one after another, pass
        after pass.  After the first full pass a request starts only if, by
        its last duration, it ends within --seconds.  A traced run repeats
        whole pairs of an untraced and a traced pass instead, so per-layer
        numbers are per pass and the tracing overhead is measured in one run.
        ``requests`` are (name, fn) with fn(traced) returning timed items."""
        passes: list[dict] = []
        if self.trace:
            while True:
                t0 = time.perf_counter()
                for traced in (False, True):
                    items = [item for _, fn in requests for item in fn(traced)]
                    passes.append({"traced": traced, "items": items})
                if self.elapsed() + time.perf_counter() - t0 > self.seconds:
                    return passes
        last: dict = {}
        while True:
            items = []
            for name, fn in requests:
                if passes and self.elapsed() + last[name] > self.seconds:
                    if items:
                        passes.append({"traced": False, "items": items})
                    return passes
                t0 = time.perf_counter()
                items += fn(False)
                last[name] = time.perf_counter() - t0
            passes.append({"traced": False, "items": items})

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def child(self, task: str, *extra: str, traced: bool = False,
              record_setup: bool = True) -> dict:
        """Run perfbench/child.py and return its RESULT payload with its wall
        time.  A child that crashes or hangs becomes one failed operation."""
        self.children += 1
        if record_setup:
            self.probe()  # the host's cold-start speed next to each set-up sample
        cmd = [PY, str(HERE / "child.py"), task, "--seed", str(self.seed), *extra]
        if traced:
            spans = OUT / f"spans-{self.workload}-s{self.seed}-{self.children}.jsonl"
            cmd += ["--trace", "--spans-out", str(spans)]
        with tempfile.TemporaryFile("w+", dir=OUT) as errfile:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, text=True,
                                    stdout=subprocess.PIPE, stderr=errfile)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                first = proc.stdout.readline()
                t_ready = time.perf_counter()
                out = proc.stdout.read()
                proc.wait()
            finally:
                watchdog.cancel()
                proc.stdout.close()
            wall = time.perf_counter() - t0
            errfile.seek(0)
            err = errfile.read()
        if first.startswith("READY "):
            self.ready = json.loads(first[len("READY "):])
            self.imports.append(self.ready["import_s"])
            if record_setup:
                self.setup.append(t_ready - t0)
        result = None
        for line in out.splitlines():
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        if proc.returncode != 0 or result is None:
            tail = err.strip().splitlines()[-3:]
            self.ops.append({"kind": task, "t": wall, "ok": False,
                             "problems": [f"child exited with {proc.returncode}", *tail]})
            return {"passes": [], "wall": wall}
        for p in result["passes"]:
            self.ops.extend(p["ops"])
        if "layers" in result:
            self.layers.append(result["layers"])
        self.scan_sizes.update(result.get("scan_sizes", {}))
        result["wall"] = wall
        return result

    def cli_repro(self, example: str) -> float:
        """One cold ``python -m hedge_iep repro <id> --json``; returns its wall time."""
        cmd = [PY, "-m", "hedge_iep", "repro", example, "--json", "--seed", str(self.seed)]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                                  capture_output=True, timeout=CHILD_TIMEOUT_S)
            wall = time.perf_counter() - t0
            problems = check_repro_output(proc.returncode, proc.stdout)
        except subprocess.TimeoutExpired:
            wall = time.perf_counter() - t0
            problems = [f"timed out after {CHILD_TIMEOUT_S} s"]
        self.ops.append({"kind": "cli." + example, "t": wall, "ok": not problems,
                         "problems": problems})
        return wall

    def probe(self) -> None:
        """Time a cold ``python -c "import numpy"``: how fast the host starts a
        process and loads a large extension package right now, with no
        package code involved."""
        t0 = time.perf_counter()
        subprocess.run([PY, "-c", "import numpy"], cwd=ROOT, env=self.env,
                       capture_output=True, timeout=CHILD_TIMEOUT_S)
        self.probes.append(time.perf_counter() - t0)

    def scipy_import_s(self) -> float:
        """Cumulative ``scipy.optimize`` import time from ``-X importtime``."""
        proc = subprocess.run([PY, "-X", "importtime", "-c", "import hedge_iep"],
                              cwd=ROOT, env=self.env, text=True, capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2] == "scipy.optimize":
                return int(parts[1]) / 1e6
        return 0.0


def check_repro_output(code: int, stdout: str) -> list[str]:
    """Exit code 0 and every ``checks[].pass`` true in the --json report."""
    problems = [] if code == 0 else [f"exit code {code}"]
    lines = stdout.splitlines()
    try:
        report = json.loads("\n".join(lines[lines.index("{"):]))
        if not report["checks"]:
            problems.append("report has no checks")
        problems += [f"check failed: {c['name']}" for c in report["checks"] if not c["pass"]]
    except (ValueError, KeyError) as exc:
        problems.append(f"no --json report: {exc}")
    return problems


# ---------------------------------------------------------------------------
# workloads.  Each pass lists its timed items as (part, item, seconds); a
# part's time is the sum over its items of the item's median over passes.
# The host this runs on changes speed by 10-30 % from one second to the next,
# so medians per item are much steadier than the sum of one pass.


def repro_cold(run: Run) -> list[dict]:
    def setup_probe(traced):
        if not traced:
            run.child("setup")  # one set-up sample per pass
        return []

    def repro(example):
        part = "light" if example in REPRO_LIGHT else "heavy"

        def request(traced):
            if traced:  # in-process cli.main in a cold child, wrapped
                wall = run.child("repro", "--example", example, traced=True,
                                 record_setup=False)["wall"]
            else:
                run.probe()
                wall = run.cli_repro(example)
            return [(part, example, wall, wall)]

        return request

    passes = run.closed_loop([("setup", setup_probe)]
                             + [(e, repro(e)) for e in REPRO_LIGHT + REPRO_RIGID])
    # the host's speed at starting processes drifts by up to 30 % between
    # runs; the probe's median over the run measures it
    scale = PROBE_REF_S / statistics.median(run.probes)
    for p in passes:
        p["items"] = [(part, item, raw * scale, raw) for part, item, _, raw in p["items"]]
    return passes


def rigid_exact(run: Run) -> list[dict]:
    def cold_child(task, part):
        def request(traced):
            res = run.child(task, traced=traced)
            return [(part, op["kind"], op["t_ref"], op["t"])
                    for p in res["passes"] for op in p["ops"]]

        return request

    return run.closed_loop([("chain", cold_child("chain", "light")),
                            ("scan", cold_child("scan", "heavy"))])


HEDGE_CHILDREN = 3  # each child is one set-up sample and loops over passes itself
# small and exact trips are bound by Python in the cascade, large ones by
# dense linear algebra and the cover oracles
HEDGE_PARTS = {"small": "light", "exact": "light", "large": "heavy"}


def hedge_pipeline(run: Run) -> list[dict]:
    passes = []
    for k in range(HEDGE_CHILDREN):
        budget = (run.seconds - (time.perf_counter() - run.start)) / (HEDGE_CHILDREN - k)
        res = run.child("hedge", "--seconds", f"{max(budget, 0.0):.3f}", traced=run.trace)
        for p in res["passes"]:
            passes.append({
                "traced": p["traced"],
                "items": [(HEDGE_PARTS[op["kind"]], f"{op['kind']} {i}", op["t_ref"], op["t"])
                          for i, op in enumerate(p["ops"])],
                "vertices": {kind: sum(op["sizes"].get("vertices", 0) for op in p["ops"]
                                       if op["kind"] == kind) for kind in HEDGE_PARTS},
            })
    return passes


WORKLOADS = {
    "repro-cold": repro_cold,
    "rigid-exact": rigid_exact,
    "hedge-pipeline": hedge_pipeline,
}

#: what the generic end-to-end metrics measure on each workload
PART_NAMES = {
    "repro-cold": {"light": "repro_light_s", "heavy": "repro_rigid_s"},
    "rigid-exact": {"light": "rigid_chain_s", "heavy": "resultant_scan_s"},
    "hedge-pipeline": {"light": "small and exact round trips", "heavy": "large round trips"},
}

# ---------------------------------------------------------------------------
# statistics and reporting


def timing(samples) -> dict:
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it (when there are at least twenty samples)."""
    xs = sorted(samples)
    out = {"median": statistics.median(xs), "n": len(xs)}
    if len(xs) >= 20:
        k = len(xs) - 10  # the k-th smallest has exactly ten samples above it
        out[f"p{100 * k // len(xs)}"] = xs[k - 1]
    return out


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def item_medians(passes: list[dict], raw: bool = False) -> dict:
    """(part, item) -> median seconds over the passes."""
    samples: dict = {}
    for p in passes:
        for part, item, seconds, raw_seconds in p["items"]:
            samples.setdefault((part, item), []).append(raw_seconds if raw else seconds)
    return {key: statistics.median(ts) for key, ts in samples.items()}


def part_times(passes: list[dict], raw: bool = False) -> dict:
    """Seconds per part: the sum over the part's items of their median."""
    out = {"light": 0.0, "heavy": 0.0}
    for (part, _), t in item_medians(passes, raw).items():
        out[part] += t
    return out


def setup_seconds(run: Run, raw: bool = False) -> float:
    """Median set-up time, scaled by the run's cold-start probe unless raw."""
    if not run.setup:
        return 0.0
    scale = 1.0 if raw else PROBE_REF_S / statistics.median(run.probes)
    return statistics.median(run.setup) * scale


def end_to_end(run: Run, passes: list[dict], spec: dict) -> dict:
    parts = part_times([p for p in passes if not p["traced"]])
    values = {
        "setup_s": setup_seconds(run),
        # largest peak resident set of any child this run waited for
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "light_s": parts["light"],
        "heavy_s": parts["heavy"],
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def merge_layers(summaries: list[dict]) -> dict:
    """Sum the tracer summaries of all traced children."""
    merged = {"layers": {}, "counts": Counter(), "unattributed_s": 0.0, "requests_s": 0.0}
    for s in summaries:
        for name, row in s["layers"].items():
            acc = merged["layers"].setdefault(name, {"in_parent": Counter()})
            for key, value in row.items():
                if key == "in_parent":
                    acc["in_parent"].update(value)
                else:
                    acc[key] = acc.get(key, 0) + value
        merged["counts"].update(s["counts"])
        merged["unattributed_s"] += s["unattributed_s"]
        merged["requests_s"] += s["requests_s"]
    return merged


EMPTY_ROW = {"total_s": 0.0, "self_s": 0.0, "calls": 0, "raised_s": 0.0, "raised_calls": 0,
             "in_parent": {}}


def layer_value(name: str, rows: dict, counts: Counter, n: int) -> float:
    """A per-layer metric read from span rows by its suffix, per traced pass."""
    if name.endswith(CACHE_COUNTS):
        if name.rsplit(".", 1)[0] not in SPAN_NAMES:
            raise KeyError(f"{name}: no traced function")
        return counts[name] / n
    for suffix, field in SPAN_FIELDS:
        if name.endswith(suffix) and name[: -len(suffix)] in SPAN_NAMES:
            return rows.get(name[: -len(suffix)], EMPTY_ROW)[field] / n
    raise KeyError(f"{name}: no traced function")


def per_layer(run: Run, passes: list[dict], spec: dict) -> dict:
    """Per-layer metrics from the traced passes, per traced pass."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    n = max(len(traced), 1)
    merged = merge_layers(run.layers)
    counts = merged["counts"]

    def row(name):
        return merged["layers"].get(name, EMPTY_ROW)

    traced_parts = part_times(traced)
    searches = row("pth.recognize_search")
    candidates = row("pth.recognize")["in_parent"].get("pth.recognize_search", 0)
    special = {
        "import.hedge_iep_s": statistics.median(run.imports),
        "import.scipy_optimize_s": run.scipy_import_s(),
        "repro.run_light_s": sum(row(f"request.repro.{e}")["total_s"] for e in REPRO_LIGHT) / n,
        "repro.run_rigid_s": sum(row(f"request.repro.{e}")["total_s"] for e in REPRO_RIGID) / n,
        "pth.recognize_search.accept_s": (searches["total_s"] - searches["raised_s"]) / n,
        "pth.recognize_search.reject_s": searches["raised_s"] / n,
        "pth.search_candidates.calls": candidates / n,
        "pth.search_useful_ratio": ratio(searches["calls"] - searches["raised_calls"], candidates),
        "numeric.eigen_order_sum": counts["numeric.eigen_order_sum"] / n,
        "mpoly.resultant_terms": sum(s["terms"] for s in run.scan_sizes.values()),
        "mpoly.resultant_max_total_degree":
            max((s["total_degree"] for s in run.scan_sizes.values()), default=0),
        "mpoly.sylvester_order_sum": sum(s["sylvester_order"] for s in run.scan_sizes.values()),
        "traced.light_s": traced_parts["light"],
        "traced.heavy_s": traced_parts["heavy"],
        "trace.overhead_ratio": ratio(sum(traced_parts.values()), sum(part_times(plain).values())),
        "trace.unattributed_s": merged["unattributed_s"] / n,
        "trace.unattributed_share": ratio(merged["unattributed_s"], merged["requests_s"]),
    }
    for kind in HEDGE_PARTS:
        special[f"hedge.{kind}_vertices"] = max(
            (p["vertices"][kind] for p in traced if "vertices" in p), default=0)
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        value = special[name] if name in special else layer_value(name, merged["layers"], counts, n)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def environment(run: Run) -> dict:
    env = {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
        "trace": run.trace, "loadavg_at_start": os.getloadavg(),
        "nproc": len(os.sched_getaffinity(0)), "blas_pin": BLAS_PIN,
        "src_sha256": src_digest(),
    }
    env.update(git_state())
    return env


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hedge_iep").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_state() -> dict:
    """The git sha and a dirty flag, when the checkout is a git repository."""
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}

    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30).stdout.strip()

    return {"git_sha": git("rev-parse", "HEAD"),
            "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def report(run: Run, env: dict, passes: list[dict], metrics: dict, failed: int) -> None:
    """Human-readable lines: environment, each metric by the name the
    workload gives it, per-operation timings and failures."""
    print(f"# env {json.dumps(env)}")
    for op in run.ops:
        if not op["ok"]:
            print(f"FAILED {op['kind']}: {op['problems'][0]}", file=sys.stderr)
    plain = [p for p in passes if not p["traced"]]
    parts, raw = part_times(plain), part_times(plain, raw=True)
    if run.setup:
        print(f"setup_s {setup_seconds(run)!r} s, raw {json.dumps(timing(run.setup))} s "
              "(spawn to ready)")
    if run.probes:
        print(f"probe_s {json.dumps(timing(run.probes))} s (cold python -c 'import numpy')")
    for part, name in PART_NAMES[run.workload].items():
        print(f"{part}_s = {name}: {parts[part]!r} s, raw {raw[part]!r} s "
              f"(sums of item medians over {len(plain)} passes)")
    if run.workload == "hedge-pipeline":
        for kind in HEDGE_PARTS:
            per_kind = {key: t for key, t in item_medians(plain).items()
                        if key[1].startswith(kind + " ")}
            print(f"{kind}_roundtrips_per_s {ratio(len(per_kind), sum(per_kind.values()))!r} 1/s "
                  f"({len(per_kind)} trips per pass)")
    for kind in sorted({op["kind"] for op in run.ops}):
        print(f"op {kind} {json.dumps(timing(op['t'] for op in run.ops if op['kind'] == kind))} s")
    attempted = len(run.ops)
    print(f"fail_ratio {failed / attempted if attempted else 1.0!r} "
          f"({failed} failed of {attempted} attempted)")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hedge_iep" / "__init__.py").is_file():
        print(f"error: no package sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment(run)
    run.child("setup", record_setup=False)  # untimed warm-up: byte-compile, file cache
    if not run.ready:
        print("error: the package does not import", file=sys.stderr)
        return 2
    env.update({k: run.ready[k] for k in ("python", "numpy", "scipy")})
    run.imports.clear()
    run.start = time.perf_counter()
    passes = WORKLOADS[args.workload](run)

    attempted = len(run.ops)
    failed = sum(not op["ok"] for op in run.ops)
    spec = load_spec()
    metrics = per_layer(run, passes, spec) if run.trace else end_to_end(run, passes, spec)
    report(run, env, passes, metrics, failed)
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    tag = f"{args.workload}-s{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"env": env, "result": result, "passes": passes, "ops": run.ops,
         "scan_sizes": run.scan_sizes, "probes": run.probes}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
