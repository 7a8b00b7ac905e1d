"""Command-line entry point.

Exit codes: 0 on success, 1 when an assertion or comparison fails, 2 on
usage errors and where a command needs numpy and cannot import it.  The
two randomized commands, `pth construct` and `repro`, take --seed (default
from HEDGE_IEP_SEED, else 0) and report the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import repro
from .lambdas import NAMES, LambdaTuple, build_C, region_of
from .numeric import cluster_multiplicities
# unused here; perfbench/tests checks that its tracer rebinds this name
from .numeric import eigenvalues_sym  # noqa: F401
from .tolerance import CLUSTER_TOL

#: the largest tree --oracle runs `covers.brute_force_path_cover` on, which
#: keeps the flag a cross-check on small trees; the search itself takes
#: milliseconds there (and 0.02 s on smallest_lush_hedge(4), 94 vertices)
ORACLE_MAX_VERTICES = 32
#: the largest tree --oracle runs `covers.brute_force_zero_forcing` on; it
#: tries vertex subsets in size order
ZF_ORACLE_MAX_VERTICES = 12


def _default_seed() -> int:
    raw = os.environ.get("HEDGE_IEP_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"HEDGE_IEP_SEED must be an integer, got {raw!r}") from None


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    return f"{float(x):.12g}"


class BadLambda(ValueError):
    pass


def _lambda_tuple(vals: dict) -> LambdaTuple:
    unknown = sorted(set(vals) - set(NAMES))
    if unknown:
        raise BadLambda(f"unknown value name(s) {unknown}; expected {NAMES}")
    return LambdaTuple(*(vals.get(k) for k in NAMES))


def _lambda_from_args(args) -> LambdaTuple:
    from .trees import read_json
    from .weights import exact_number

    if getattr(args, "lambda_file", None):
        data = read_json(args.lambda_file)
        if not isinstance(data, dict):
            raise BadLambda("the lambda file must hold a JSON object")
        vals = {
            k: exact_number(str(data[k]))
            for k in NAMES
            if k in data and data[k] is not None
        }
        return _lambda_tuple(vals)
    vals = {}
    for n in NAMES:
        v = getattr(args, n, None)
        if v is not None:
            vals[n] = exact_number(v)
    return _lambda_tuple(vals)


def cmd_hedge_info(args) -> int:
    from .trees import is_hedge, is_lush, load_tree, profile

    t = load_tree(args.treefile)
    print(f"vertices: {t.n}")
    print(f"hedge: {is_hedge(t)}")
    if not is_hedge(t):
        return 0
    p = profile(t)
    print(f"height: {p.height}")
    print(f"level sizes: {list(p.level_sizes)}")
    print(f"ell: {list(p.ell)}")
    print(f"lush: {is_lush(t)}")
    return 0


def cmd_covers(args) -> int:
    from . import covers
    from .trees import load_tree

    t = load_tree(args.treefile)
    if args.oracle and t.n > ORACLE_MAX_VERTICES:
        raise ValueError(
            f"--oracle runs an exhaustive search, limited to {ORACLE_MAX_VERTICES}"
            f" vertices; this tree has {t.n}"
        )
    p, cover = covers.path_cover_number(t)
    z, forcing = covers.zero_forcing_number(t)
    print(f"P = {p}")
    print(f"Z = {z}")
    print(f"witness cover: {list(cover.paths)}")
    print(f"witness forcing set: {sorted(forcing)}")
    if args.oracle:
        bf = covers.brute_force_path_cover(t)
        small = t.n <= ZF_ORACLE_MAX_VERTICES
        bz = covers.brute_force_zero_forcing(t) if small else None
        ok = bf == p and (bz is None or bz == z)
        print(f"brute-force P = {bf}" + (f", Z = {bz}" if bz is not None else ""))
        print("oracle agreement:", "ok" if ok else "MISMATCH")
        return 0 if ok else 1
    return 0


def cmd_weights_spectrum(args) -> int:
    from .weights import load_weight, spectrum_of

    w = load_weight(args.weightfile)
    spec = cluster_multiplicities(spectrum_of(w), args.cluster_tol)
    for v, m in spec.entries:
        print(f"{v:.12g}" + (f" (x{m})" if m > 1 else ""))
    return 0


def cmd_lambda_build(args) -> int:
    from .weights import weight_to_json

    lam = _lambda_from_args(args)
    c = build_C(lam, args.n)
    w = c.weight()
    data = weight_to_json(w)
    data["diagonal"] = [_fmt(x) for x in c.diagonal]
    data["superdiagonal"] = [_fmt(x) for x in c.upper]  # the path's edges (i, i + 1)
    data["schema"] = "hedge-iep/1"
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.out}")
    else:
        json.dump(data, sys.stdout, indent=1)
        print()
    return 0


def cmd_lambda_region(args) -> int:
    from .weights import exact_number

    vals = tuple(exact_number(v) for v in args.values)
    reg = region_of(vals)
    print(f"region: {reg if reg is not None else 'none'}")
    return 0


def cmd_pth_construct(args) -> int:
    import numpy as np

    from . import pth
    from .trees import load_tree, profile
    from .weights import save_weight

    lam = _lambda_from_args(args)
    t = load_tree(args.tree)
    c = build_C(lam, profile(t).height + 1)
    rng = np.random.default_rng(args.seed)
    if args.random_splits:
        splits = {}
        for v in t.vertices:
            kids = t.children[v]
            if kids:
                raw = rng.uniform(0.2, 1.0, size=len(kids))
                splits[v] = tuple(float(x) for x in raw / raw.sum())
        w = pth.ph_construct(c, t, splits)
    else:
        w = pth.ph_construct(c, t)
    save_weight(w, args.out)
    print(f"wrote {args.out} (seed {args.seed})")
    return 0


def cmd_pth_spectrum(args) -> int:
    from . import pth
    from .trees import load_tree, profile

    t = load_tree(args.tree)
    prof = profile(t)
    lam = _lambda_from_args(args)
    c = build_C(lam, prof.height + 1)
    spec = pth.ph_spectrum(c, prof)
    for v, m in spec.entries:
        print(f"{v:.12g}" + (f" (x{m})" if m > 1 else ""))
    return 0


def cmd_pth_recognize(args) -> int:
    from . import pth
    from .weights import exact_number, load_weight

    w = load_weight(args.weightfile).as_float()
    lam = None
    if args.assign:
        vals = {}
        for piece in args.assign.split(","):
            key, eq, sval = piece.partition("=")
            key = key.strip()
            if not eq:
                raise BadLambda(f"--assign piece {piece!r} is not name=value")
            if key in vals:
                raise BadLambda(f"--assign gives {key!r} twice")
            vals[key] = exact_number(sval.strip())
        lam = _lambda_tuple(vals)
    try:
        res = pth.recognize_search(w) if lam is None else pth.recognize(w, lam)
    except pth.NotFromConstruction as exc:
        print(f"rejected: {exc}")
        return 1
    print("recognized: matrix comes from the path-to-hedge construction")
    print(f"lambda: {tuple(_fmt(v) for v in res.lam.values())}")
    print(f"region: {res.region if res.region is not None else 'partial tuple'}")
    print("recovered path weight:")
    pw = res.path_weight
    print("  diagonal:", [_fmt(pw.v(i)) for i in pw.tree.vertices])
    print("  edges:", [_fmt(pw.e(u, v)) for u, v in pw.tree.edges])
    return 0


def cmd_pth_rs_sweep(args) -> int:
    import csv

    from . import pth
    from .spectra import gap_vector
    from .trees import load_tree, profile
    from .weights import exact_number

    t = load_tree(args.tree)
    prof = profile(t)
    lo, hi = exact_number(args.x_from), exact_number(args.x_to)
    if args.steps < 1:
        raise ValueError("--steps must be at least 1")
    xs = [lo + (hi - lo) * Fraction(k, args.steps + 1) for k in range(1, args.steps + 1)]

    rows = [[x] + list(gap_vector(pth.t31_exact_spectrum(x, prof)).p) for x in xs]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x"] + [f"gap{i}" for i in range(1, len(rows[0]))])
        for row in rows:
            writer.writerow([str(v) for v in row])
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def cmd_pth_counterexample(args) -> int:
    from . import pth
    from .trees import load_tree

    t = load_tree(args.treefile)
    if args.kind == "splitting":
        ce = pth.splitting_counterexample(t)
        print(ce.report())
        return 0
    res = pth.zero_one_counterexample_check(t)
    print(res.report())
    return 0 if res.contradiction else 1


def cmd_rigid_solve(args) -> int:
    from . import rigid

    sol = rigid.solve_rigid()
    print("unique rigid tuple (beta2 = -1, beta4 = 1), region", sol.region)
    for key, val in sol.exact_values().items():
        coords = ", ".join(str(c) for c in val.coords)
        print(f"{key} = {float(val):.12f}")
        print(f"    = [{coords}] in powers of xi")
    return 0


def cmd_rigid_list(args) -> int:
    from . import rigid
    from .trees import NotLush, is_lush, load_tree, profile

    t = load_tree(args.tree)
    if not is_lush(t):
        raise NotLush("the rigid list is stated for lush hedges")
    rl = rigid.rigid_multiplicity_list(profile(t))
    print("ordered multiplicity list:")
    print(list(rl.ordered))
    print(f"sum: {rl.total}")
    print("eigenvalue table (value, multiplicity, label):")
    for v, m, label in rl.table:
        print(f"  {v: .9f}  {m:5d}  {label or '-'}")
    return 0


def cmd_rigid_levels(args) -> int:
    import csv

    from . import rigid

    rows = rigid.level_figure_data(args.max)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["level", "index", "value"])
        for level, idx, v in rows:
            writer.writerow([level, idx, f"{v:.15g}"])
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def cmd_repro(args) -> int:
    report = repro.run_repro(args.example, seed=args.seed)
    report.print_lines()
    if args.json:
        print(json.dumps(report.to_json(), indent=1))
    return 0 if report.passed else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads every argument starting with a minus
    sign and a digit, or a minus sign, a point and a digit, as a value:
    argparse itself does so only for plain integers and decimals, so
    `lambda region 0 1 -1/3 2 3` or `--beta2 -1e300` would fail."""

    _NEGATIVE_NUMBER = re.compile(r"-\.?\d")

    def _parse_optional(self, arg_string):
        if self._NEGATIVE_NUMBER.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _add_lambda_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lambda-file", help="JSON file with alpha1..beta4")
    for name in NAMES:
        p.add_argument(f"--{name}", help="number or fraction, e.g. 2/5")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="hedge-iep",
        description="path-to-hedge constructions and spectral rigidity on trees",
    )
    seed_parent = argparse.ArgumentParser(add_help=False)
    seed_parent.add_argument("--seed", type=int, help="default: HEDGE_IEP_SEED, else 0")
    sub = ap.add_subparsers(dest="command", required=True)

    hedge = sub.add_parser("hedge", help="tree utilities").add_subparsers(
        dest="sub", required=True
    )
    info = hedge.add_parser("info", help="height, level sizes, ell vector, lush flag")
    info.add_argument("treefile")
    info.set_defaults(func=cmd_hedge_info)

    cov = sub.add_parser("covers", help="path cover and zero forcing numbers")
    cov.add_argument("treefile")
    cov.add_argument(
        "--oracle",
        action="store_true",
        help=f"run brute-force cross-check (at most {ORACLE_MAX_VERTICES} vertices)",
    )
    cov.set_defaults(func=cmd_covers)

    wts = sub.add_parser("weights", help="weight utilities").add_subparsers(
        dest="sub", required=True
    )
    spectrum = wts.add_parser("spectrum", help="eigenvalues with multiplicities")
    spectrum.add_argument("weightfile")
    spectrum.add_argument("--cluster-tol", type=float, default=CLUSTER_TOL)
    spectrum.set_defaults(func=cmd_weights_spectrum)

    lam = sub.add_parser("lambda", help="distinguished-eigenvalue tools").add_subparsers(
        dest="sub", required=True
    )
    lb = lam.add_parser("build", help="build the greedy path matrix")
    _add_lambda_options(lb)
    lb.add_argument("--n", type=int, required=True)
    lb.add_argument("--out")
    lb.set_defaults(func=cmd_lambda_build)
    lr = lam.add_parser("region", help="classify five values")
    lr.add_argument("values", nargs=5)
    lr.set_defaults(func=cmd_lambda_region)

    pthp = sub.add_parser("pth", help="path-to-hedge pipeline").add_subparsers(
        dest="sub", required=True
    )
    pc = pthp.add_parser("construct", parents=[seed_parent], help="build a family member on a hedge")
    _add_lambda_options(pc)
    pc.add_argument("--tree", required=True)
    pc.add_argument("--out", required=True)
    pc.add_argument("--random-splits", action="store_true")
    pc.set_defaults(func=cmd_pth_construct)
    psp = pthp.add_parser("spectrum", help="family spectrum by the level formula")
    _add_lambda_options(psp)
    psp.add_argument("--tree", required=True)
    psp.set_defaults(func=cmd_pth_spectrum)
    pr = pthp.add_parser("recognize", help="check a weight against the path-to-hedge recipe")
    pr.add_argument("weightfile")
    pr.add_argument("--assign", help="alpha1=..,alpha2=..,beta2=..,beta3=..[,beta4=..]")
    pr.set_defaults(func=cmd_pth_recognize)
    ps = pthp.add_parser("rs-sweep", help="gap-vector sweep of the explicit family")
    ps.add_argument("--tree", required=True)
    ps.add_argument("--from", dest="x_from", required=True)
    ps.add_argument("--to", dest="x_to", required=True)
    ps.add_argument("--steps", type=int, default=50)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_pth_rs_sweep)
    pce = pthp.add_parser("counterexample", help="conjecture counterexamples")
    pce.add_argument("kind", choices=["splitting", "zeroone"])
    pce.add_argument("treefile")
    pce.set_defaults(func=cmd_pth_counterexample)

    rg = sub.add_parser("rigid", help="exact rigidity engine").add_subparsers(
        dest="sub", required=True
    )
    rs = rg.add_parser("solve", help="the unique rigid tuple, both routes")
    rs.set_defaults(func=cmd_rigid_solve)
    rl = rg.add_parser("list", help="rigid ordered multiplicity list for a hedge")
    rl.add_argument("--tree", required=True)
    rl.set_defaults(func=cmd_rigid_list)
    rv = rg.add_parser("levels", help="level eigenvalue data as CSV")
    rv.add_argument("--max", type=int, default=40)
    rv.add_argument("--out", required=True)
    rv.set_defaults(func=cmd_rigid_levels)

    rp = sub.add_parser("repro", parents=[seed_parent], help="self-verifying worked-example runs")
    rp.add_argument("example", help=f"one of {sorted(repro.REPROS)}")
    rp.add_argument("--json", action="store_true")
    rp.set_defaults(func=cmd_repro)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if "seed" in args and args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print("error: this command needs numpy, which cannot be imported", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
