"""Tests of the benchmark itself: inputs, failure accounting and tracing.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import subprocess
import sys
from dataclasses import replace

import pytest

import child
import run
import tracing
from hedge_iep import rigid, trees


def test_inputs_are_deterministic_per_seed():
    a, b, other = child.hedge_inputs(5), child.hedge_inputs(5), child.hedge_inputs(6)
    assert a == b
    assert a != other
    assert [t.kind for t in a] == [t.kind for t in other]
    # shapes are fixed by the plan, so work per pass hardly depends on the seed
    sizes = {(t.kind, len(t.parents)) for t in a}
    assert sizes == {(t.kind, len(t.parents)) for t in other}
    assert {n for _, n in sizes} == {15, 54, 191, 670}
    for t in a:
        tree = trees.build_hedge(t.parents)
        assert trees.is_lush(tree)


def _small_trip():
    return next(t for t in child.hedge_inputs(1) if t.kind == "small")


def test_wrong_expectation_counts_as_failed_operation():
    clock = child.HostClock()
    good = child.run_op(tracing.NO_TRACE, clock, "small", child.float_trip, _small_trip())
    # a "perturbation" of 1.0 leaves the weight unchanged, so the expected
    # rejection cannot happen
    wrong = replace(child.EXPECT, perturbation=1.0)
    bad = child.run_op(tracing.NO_TRACE, clock, "small", child.float_trip, _small_trip(), wrong)
    clock.flush()
    assert good["ok"] and not good["problems"]
    assert not bad["ok"]
    assert any("was accepted" in p for p in bad["problems"])
    assert bad["t_ref"] > 0


def test_wrong_scan_pattern_counts_as_failed_operation():
    clock = child.HostClock()
    wrong = replace(child.EXPECT, coincident_pairs=frozenset({(3, 4), (3, 7)}))
    ops = child.scan(tracing.NO_TRACE, clock, pairs=((3, 4), (3, 5), (3, 7)), expect=wrong)
    assert [op["ok"] for op in ops] == [False, True, True]


def test_raising_operation_is_recorded_not_raised():
    clock = child.HostClock()
    trip = replace(_small_trip(), parents=(0, 1, 1))  # height 1: the cascade refuses it
    op = child.run_op(tracing.NO_TRACE, clock, "small", child.float_trip, trip)
    assert not op["ok"]
    assert "Traceback" in op["problems"][1]


def test_crashing_child_counts_as_failed_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    r = run.Run("rigid-exact", seed=1, seconds=1, trace=False)
    res = r.child("scan", "--no-such-flag")
    assert res["passes"] == []
    assert len(r.ops) == 1 and not r.ops[0]["ok"]


def test_repro_output_checks():
    report = {"checks": [{"name": "a", "pass": True}, {"name": "b", "pass": False}]}
    stdout = "[PASS] a\n[FAIL] b\n" + json.dumps(report, indent=1)
    assert run.check_repro_output(1, stdout) == ["exit code 1", "check failed: b"]
    assert run.check_repro_output(0, "no report") != []
    good = json.dumps({"checks": [{"name": "a", "pass": True}]}, indent=1)
    assert run.check_repro_output(0, good) == []


def _package_state():
    state = {}
    for m in tracing._package_modules():
        for key, value in vars(m).items():
            state[(m.__name__, key)] = value
    for modname, attr in [t[1:] for t in tracing.TARGETS if "." in t[2]]:
        cls_name, meth = attr.split(".")
        cls = getattr(sys.modules[modname], cls_name)
        state[(cls.__qualname__, meth)] = cls.__dict__[meth]
    return state


def test_tracer_rebinds_everywhere_and_restores():
    from hedge_iep import cli, mpoly, pth, repro
    from hedge_iep.mpoly import MPolyQ

    before = _package_state()
    orig_bareiss = mpoly.bareiss_determinant
    tracer = tracing.Tracer()
    with tracer.installed():
        assert rigid.bareiss_determinant is mpoly.bareiss_determinant
        assert rigid.bareiss_determinant is not orig_bareiss
        for mod in (pth, repro, cli):
            assert mod.eigenvalues_sym.__wrapped__ is before[("hedge_iep.numeric", "eigenvalues_sym")]
            assert mod.build_C.__wrapped__ is before[("hedge_iep.lambdas", "build_C")]
        assert MPolyQ.divmod_lex is not before[("MPolyQ", "divmod_lex")]
        changed = [k for k, v in _package_state().items() if before.get(k) is not v]
        assert len(changed) > len(tracing.TARGETS)
    after = _package_state()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_scan_computes_each_level_resultant_once():
    for fn in (rigid.level_resultant, rigid.simplify_resultant,
               rigid.remainder_symbolic, rigid.char_poly_symbolic):
        fn.cache_clear()
    pairs = ((3, 4), (3, 5), (4, 5), (3, 7))
    tracer = tracing.Tracer()
    clock = child.HostClock()
    with tracer.installed():
        ops = child.scan(tracer, clock, pairs=pairs)
        sizes = child.scan_sizes(pairs)
    assert all(op["ok"] for op in ops)
    summary = tracer.summary()
    assert summary["counts"]["rigid.level_resultant.computes"] == len(pairs)
    assert summary["counts"]["rigid.level_resultant.cache_hits"] == len(pairs)  # from the sizes
    assert summary["layers"]["rigid.level_resultant"]["calls"] == 2 * len(pairs)
    assert sizes["3,4"] == {"terms": 8, "total_degree": 3, "sylvester_order": 3}
    # one root span per request, each with its own run id
    roots = [s for s in tracer.spans if s[3] < 0 and s[0].startswith("request.")]
    assert [s[0] for s in roots] == [f"request.scan {a},{b}" for a, b in pairs]
    assert [s[4] for s in roots] == [1, 2, 3, 4]


def test_timing_percentile_has_ten_samples_beyond():
    stats = run.timing(range(100))
    assert stats["median"] == 49.5 and stats["n"] == 100 and stats["p90"] == 89
    assert set(run.timing(range(19))) == {"median", "n"}


def test_part_times_sum_item_medians():
    passes = [
        {"traced": False, "items": [("light", "a", 1.0, 1.0), ("heavy", "b", 5.0, 5.0)]},
        {"traced": False, "items": [("light", "a", 3.0, 3.0), ("heavy", "b", 7.0, 7.0)]},
        {"traced": False, "items": [("light", "a", 2.0, 2.0), ("heavy", "b", 9.0, 9.0)]},
    ]
    assert run.part_times(passes) == {"light": 2.0, "heavy": 7.0}


@pytest.mark.parametrize("pair", [(3, 7), (4, 8), (4, 9)])
def test_coincident_pairs_are_in_the_scan(pair):
    assert pair in child.SCAN_PAIRS
    assert len(set(child.SCAN_PAIRS)) == 15


def test_traced_run_prints_every_per_layer_metric(tmp_path):
    spec = run.load_spec()
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "hedge-pipeline",
         "--seed", "2", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["pth.ph_construct_s"] > 0 and m["covers.zero_forcing_number_s"] > 0
    assert m["mpoly.divmod_lex.calls"] == 0  # the predicted non-move
    assert m["hedge.small_vertices"] == 36 * (15 + 54)
    assert 0 <= m["trace.unattributed_share"] < 0.2
