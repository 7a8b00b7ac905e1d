import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedge_iep import pth, repro
from hedge_iep.cli import main
from hedge_iep.covers import ORACLE_MAX_VERTICES
from hedge_iep.lambdas import LambdaTuple, build_C
from hedge_iep.pth import forced_fifth_eigenvalue, ph_construct
from hedge_iep.trees import (
    RootedTree,
    ten_vertex_hedge,
    smallest_lush_hedge,
    tree_from_json,
    tree_to_json,
)
from hedge_iep.weights import WeightFn, save_weight, weight_to_json

from conftest import save_tree


@pytest.fixture
def hedge10_file(tmp_path):
    f = tmp_path / "hedge10.json"
    save_tree(ten_vertex_hedge(), f)
    return str(f)


@pytest.fixture
def t31_file(tmp_path):
    f = tmp_path / "t31.json"
    save_tree(smallest_lush_hedge(3), f)
    return str(f)


def test_hedge_info(hedge10_file, capsys):
    assert main(["hedge", "info", hedge10_file]) == 0
    out = capsys.readouterr().out
    assert "height: 2" in out
    assert "ell: [3, 2, 1]" in out
    assert "lush: True" in out


def test_hedge_info_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "parent": [0, 3, 2]}')
    assert main(["hedge", "info", str(bad)]) == 2


def test_covers_with_oracle(hedge10_file, capsys):
    assert main(["covers", hedge10_file, "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "P = 4" in out and "Z = 4" in out and "ok" in out


def test_covers_oracle_vertex_limit(t31_file, tmp_path, capsys):
    # the README's 31-vertex example stays within the limit
    assert main(["covers", t31_file, "--oracle"]) == 0
    big = tmp_path / "t4.json"
    save_tree(smallest_lush_hedge(4), big)
    assert main(["covers", str(big), "--oracle"]) == 2
    assert f"limited to {ORACLE_MAX_VERTICES} vertices" in capsys.readouterr().err
    # the formulas themselves run on any size
    assert main(["covers", str(big)]) == 0


def test_covers_on_a_deep_path(tmp_path, capsys):
    deep = tmp_path / "path.json"
    save_tree(RootedTree(tuple(range(20000))), deep)
    assert main(["covers", str(deep)]) == 0
    out = capsys.readouterr().out
    assert "P = 1\n" in out and "Z = 1\n" in out


@pytest.mark.parametrize(
    "table, key", [("edgeWeight", "1_2"), ("edgeWeight", "1-2-3"), ("vertexWeight", "a"),
                   ("vertexWeight", "1_2")]
)
def test_malformed_weight_key_is_named(tmp_path, capsys, table, key):
    data = {"tree": {"n": 2, "parent": [0, 1]}, "vertexWeight": {"1": "1", "2": "2"},
            "edgeWeight": {"1-2": "3"}}
    data[table][key] = "1"
    f = tmp_path / "w.json"
    f.write_text(json.dumps(data))
    assert main(["weights", "spectrum", str(f)]) == 2
    assert f"weight key {key!r}" in capsys.readouterr().err


def test_weights_spectrum(tmp_path, capsys):
    w = WeightFn(
        RootedTree((0, 1, 2)),
        {1: Fraction(8), 2: Fraction(4), 3: Fraction(2)},
        {(1, 2): Fraction(20), (2, 3): Fraction(3)},
    )
    f = tmp_path / "w.json"
    save_weight(w, f)
    assert main(["weights", "spectrum", str(f)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 3  # 0, 3, 11


def test_lambda_build_and_region(tmp_path, capsys):
    out_file = tmp_path / "c.json"
    rc = main(
        [
            "lambda", "build", "--alpha1", "0", "--alpha2", "1", "--beta2", "-1",
            "--beta3", "2", "--beta4", "3", "--n", "4", "--out", str(out_file),
        ]
    )
    assert rc == 0
    data = json.loads(out_file.read_text())
    assert data["schema"] == "hedge-iep/1"
    assert len(data["diagonal"]) == 4
    assert main(["lambda", "region", "0", "1", "-1", "2", "3"]) == 0
    assert "region: 1" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["-1", "-1/3", "-1e300", "-.5"])
def test_lambda_region_reads_negative_values(capsys, value):
    # a value with a minus sign is a value, not an option, with or without "--"
    for argv in (["0", "1", value, "2", "3"], ["--", "0", "1", value, "2", "3"]):
        assert main(["lambda", "region", *argv]) == 0
        out, err = capsys.readouterr()
        assert (out, err) == ("region: 1\n", "")
    with pytest.raises(SystemExit) as info:
        main(["lambda", "region", "--help"])
    assert info.value.code == 0
    assert "usage: hedge-iep lambda region" in capsys.readouterr().out


def test_lambda_build_long_path(capsys):
    # the dump reads the stored diagonal and edge entries, never a dense table
    argv = ["lambda", "build", "--alpha1", "0", "--alpha2", "1", "--beta2", "-1",
            "--beta3", "2", "--beta4", "3", "--n", "4000"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["diagonal"]) == 4000
    assert len(data["superdiagonal"]) == 3999


def test_pth_pipeline(tmp_path, t31_file, capsys):
    w_file = tmp_path / "w.json"
    rc = main(
        [
            "pth", "construct", "--alpha1", "0", "--alpha2", "1", "--beta2", "-1",
            "--beta3", "2", "--beta4", "3", "--tree", t31_file, "--out", str(w_file),
            "--random-splits",
        ]
    )
    assert rc == 0
    rc = main(["pth", "recognize", str(w_file)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "recognized" in out
    # explicit assignment
    rc = main(
        [
            "pth", "recognize", str(w_file),
            "--assign", "alpha1=0,alpha2=1,beta2=-1,beta3=2,beta4=3",
        ]
    )
    assert rc == 0


def test_pth_recognize_on_relabelled_hedge(tmp_path, capsys):
    # the ten-vertex hedge with labels 1 and 2 swapped: vertex 2 is the root
    tree_file, w_file = tmp_path / "swapped.json", tmp_path / "w.json"
    save_tree(RootedTree((2, 0, 1, 2, 4, 2, 6, 1, 4, 6)), tree_file)
    lam = ["--alpha1", "0", "--alpha2", "1", "--beta2", "-1", "--beta3", "2"]
    for splits in ([], ["--random-splits"]):
        argv = ["pth", "construct", *lam, "--tree", str(tree_file), "--out", str(w_file)]
        assert main(argv + splits) == 0
        assert main(["pth", "recognize", str(w_file)]) == 0
        assign = "alpha1=0,alpha2=1,beta2=-1,beta3=2"
        assert main(["pth", "recognize", str(w_file), "--assign", assign]) == 0
    assert capsys.readouterr().out.count("recognized:") == 4


@pytest.mark.parametrize(
    "assign, named",
    [
        # the last value used to win and the recipe check then rejected it
        ("alpha1=0,alpha1=1,alpha2=1,beta2=-1,beta3=2", "'alpha1' twice"),
        ("alpha1,alpha2=1,beta2=-1,beta3=2", "'alpha1' is not name=value"),
    ],
    ids=["repeated", "no-equals"],
)
def test_pth_recognize_assign_names_a_malformed_piece(tmp_path, capsys, assign, named):
    w = ph_construct(build_C(LambdaTuple(0, 1, -1, 2), 3), ten_vertex_hedge())
    save_weight(w, tmp_path / "w.json")
    assert main(["pth", "recognize", str(tmp_path / "w.json"), "--assign", assign]) == 2
    assert named in capsys.readouterr().err


def test_pth_recognize_rejects(tmp_path, t31_file, capsys):
    w_file = tmp_path / "w.json"
    main(
        [
            "pth", "construct", "--alpha1", "0", "--alpha2", "1", "--beta2", "-1",
            "--beta3", "2", "--beta4", "3", "--tree", t31_file, "--out", str(w_file),
        ]
    )
    data = json.loads(w_file.read_text())
    # perturb an edge away from the root so the equality constraints bite
    key = next(k for k in sorted(data["edgeWeight"]) if "1" not in k.split("-"))
    data["edgeWeight"][key] = str(Fraction(data["edgeWeight"][key]) * Fraction(101, 100))
    w_file.write_text(json.dumps(data))
    assert main(["pth", "recognize", str(w_file)]) == 1


@pytest.mark.parametrize("assign", [[], ["--assign", "alpha1=0,alpha2=1,beta2=-1,beta3=2"]])
def test_pth_recognize_names_child_edge_sums_beyond_the_float_range(tmp_path, capsys, assign):
    t = ten_vertex_hedge()
    w_file = tmp_path / "w.json"
    save_weight(WeightFn(t, dict.fromkeys(t.vertices, 0.0), dict.fromkeys(t.edges, 1e308)), w_file)
    assert main(["pth", "recognize", str(w_file), *assign]) == 1
    out = capsys.readouterr().out
    assert out.startswith("rejected: recognizer fails at step 3: vertex 1: child edges sum beyond the float range")
    assert "!=" not in out


def _unit_edge_weight_file(path, parent, vertex_weight) -> str:
    n = len(parent)
    data = {
        "tree": {"n": n, "parent": list(parent)},
        "vertexWeight": {str(v): vertex_weight(v) for v in range(1, n + 1)},
        "edgeWeight": {f"{p}-{v}": 1 for v, p in enumerate(parent, start=1) if p},
    }
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("parent", [(0, 1, 1), ten_vertex_hedge().parent])
@pytest.mark.parametrize("last", [1e308, -1e308])
def test_overflowing_clusters_exit_2(tmp_path, capsys, parent, last):
    # weights at the top of the float range: one cluster mean overflows to
    # inf, or (with a last weight of -1e308) the spectrum width does
    n = len(parent)
    w_file = _unit_edge_weight_file(tmp_path / "w.json", parent, lambda v: 1e308 if v < n else last)
    assert main(["weights", "spectrum", w_file]) == 2
    # the recognizer reads the level spectra of the chain of smallest
    # children; leaves at -1e308 under vertices at 1e308 keep every level
    # consistent, and the level spectra's width overflows
    leaves = set(range(1, n + 1)) - set(parent)
    level_file = _unit_edge_weight_file(
        tmp_path / "levels.json", parent, lambda v: -1e308 if v in leaves else 1e308
    )
    assert main(["pth", "recognize", level_file]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("error:") == 2


@pytest.mark.parametrize("last", [1e308, -1e308])
def test_huge_weights_off_the_recipe_are_rejected(tmp_path, capsys, last):
    # the ten-vertex inputs above are no family members at any precision:
    # all at 1e308 the level spectra hold one value, too few to assign, and
    # a last leaf at -1e308 differs from the other leaves
    parent = ten_vertex_hedge().parent
    n = len(parent)
    w_file = _unit_edge_weight_file(tmp_path / "w.json", parent, lambda v: 1e308 if v < n else last)
    assert main(["pth", "recognize", w_file]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out.count("rejected:") == 1 and out.startswith("rejected:")


@pytest.mark.parametrize("command", [["spectrum"], ["construct", "--out", "{out}"]])
def test_coefficient_beyond_the_float_range_exits_2(hedge10_file, tmp_path, capsys, command):
    # every value is a float, but b_2 = 1e600 and b_3 = 3e600 are not
    argv = ["pth", *command, "--tree", hedge10_file, "--alpha1=0", "--alpha2=1e300",
            "--beta2=-1e300", "--beta3=2e300"]
    assert main([a.format(out=tmp_path / "w.json") for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: b_2 overflows a float: b_2 > 1.79769e+308"]


def test_float_lambda_file_beyond_the_float_range_exits_2(hedge10_file, tmp_path, capsys):
    # JSON floats in a lambda file, each in range, whose b_2 = 1e600 is not
    lam_file = tmp_path / "lam.json"
    lam_file.write_text(json.dumps({"alpha1": 0.0, "alpha2": 1e300, "beta2": -1e300, "beta3": 2e300}))
    argv = ["pth", "spectrum", "--tree", hedge10_file, "--lambda-file", str(lam_file)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: b_2 overflows a float: b_2 > 1.79769e+308"]


def test_pth_spectrum_table2(hedge10_file, capsys):
    rc = main(
        [
            "pth", "spectrum", "--alpha1", "2", "--alpha2", "5", "--beta2", "1",
            "--beta3", str(3 - 2 * 6**0.5), "--tree", hedge10_file,
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "(x4)" in out  # the reinforced middle eigenvalue


def test_rs_sweep(tmp_path, t31_file, capsys):
    out_file = tmp_path / "points.csv"
    rc = main(
        [
            "pth", "rs-sweep", "--tree", t31_file,
            "--from", "1687/5000", "--to", "2733/5000", "--steps", "12",
            "--out", str(out_file),
        ]
    )
    assert rc == 0
    with open(out_file) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x"] + [f"gap{i}" for i in range(1, 8)]
    assert len(rows) == 13
    for row in rows[1:]:
        gaps = [Fraction(g) for g in row[1:]]
        assert sum(gaps) == 1
        assert all(g > 0 for g in gaps)


@pytest.mark.parametrize(
    "argv",
    [
        ["weights", "spectrum", "{no_tree}"],
        ["pth", "recognize", "{no_tree}"],
        ["hedge", "info", "{no_parent}"],
        ["lambda", "build", "--lambda-file", "{no_alpha1}", "--n", "3"],
        ["pth", "recognize", "{weight}", "--assign", "alpha9=1"],
        ["hedge", "info", "{scalar_parent}"],
        ["weights", "spectrum", "{list_vertex_weight}"],
        ["lambda", "build", "--alpha1", "1/0", "--n", "3"],
        ["lambda", "build", "--lambda-file", "{zero_den_lambda}", "--n", "3"],
        ["lambda", "region", "1/0", "1", "2", "3", "4"],
        ["weights", "spectrum", "{zero_den_weight}"],
        ["pth", "recognize", "{weight}", "--assign", "alpha1=1/0"],
        ["pth", "rs-sweep", "--tree", "{tree}", "--from", "1/0", "--to", "1/2", "--out", "{csv}"],
        ["pth", "rs-sweep", "--tree", "{tree}", "--from", "1687/5000", "--to", "2733/5000",
         "--steps", "0", "--out", "{csv}"],
        ["hedge", "info", "{float_parent}"],
        ["lambda", "build", "--alpha1", "0", "--alpha2", "1", "--beta3", "2", "--n", "2"],
        ["pth", "recognize", "{huge_weight}"],
        ["weights", "spectrum", "{weight3}", "--cluster-tol", "nan"],
        ["weights", "spectrum", "{weight3}", "--cluster-tol", "inf"],
        ["weights", "spectrum", "{weight3}", "--cluster-tol", "0"],
        ["weights", "spectrum", "{weight3}", "--cluster-tol", "-1"],
        ["hedge", "info", "{deep}"],
        ["weights", "spectrum", "{deep}"],
        ["lambda", "build", "--lambda-file", "{deep}", "--n", "3"],
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, argv):
    files = {
        "no_tree": {"vertexWeight": {"1": "1"}, "edgeWeight": {}},
        "no_parent": {"n": 2, "foo": [0, 1]},
        "no_alpha1": {"alpha2": 1, "beta2": -1},
        "scalar_parent": {"n": 1, "parent": 5},
        "list_vertex_weight": {
            "tree": {"n": 2, "parent": [0, 1]},
            "vertexWeight": ["1", "2"],
            "edgeWeight": {"1-2": "3"},
        },
        "zero_den_lambda": {"alpha1": "1/0"},
        "zero_den_weight": {
            "tree": {"n": 2, "parent": [0, 1]},
            "vertexWeight": {"1": "1/0", "2": "2"},
            "edgeWeight": {"1-2": "3"},
        },
        "float_parent": {"n": 2, "parent": [0, 1.5]},
        "huge_weight": {
            "tree": {"n": 2, "parent": [0, 1]},
            "vertexWeight": {"1": "1e400", "2": "2"},
            "edgeWeight": {"1-2": "3"},
        },
    }
    paths = {"tree": tmp_path / "t31.json", "csv": tmp_path / "points.csv"}
    save_tree(smallest_lush_hedge(3), paths["tree"])
    # deeper than the JSON decoder recurses
    paths["deep"] = tmp_path / "deep.json"
    paths["deep"].write_text("[" * 100000 + "]" * 100000)
    for name, data in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    paths["weight"] = tmp_path / "w.json"
    save_weight(
        WeightFn(RootedTree((0, 1)), {1: Fraction(1), 2: Fraction(2)}, {(1, 2): Fraction(3)}),
        paths["weight"],
    )
    # eigenvalues 0, 3 and 11
    paths["weight3"] = tmp_path / "w3.json"
    save_weight(
        WeightFn(
            RootedTree((0, 1, 2)),
            {1: Fraction(8), 2: Fraction(4), 3: Fraction(2)},
            {(1, 2): Fraction(20), (2, 3): Fraction(3)},
        ),
        paths["weight3"],
    )
    assert main([a.format(**paths) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["repro", "table1"],
        ["pth", "construct", "--alpha1", "0", "--alpha2", "1", "--beta2", "-1", "--beta3", "2",
         "--beta4", "3", "--tree", "{tree}", "--out", "{out}"],
    ],
)
def test_bad_seed_environment_exits_2(tmp_path, monkeypatch, capsys, argv):
    tree = tmp_path / "t31.json"
    save_tree(smallest_lush_hedge(3), tree)
    monkeypatch.setenv("HEDGE_IEP_SEED", "abc")
    assert main([a.format(tree=tree, out=tmp_path / "w.json") for a in argv]) == 2
    assert "HEDGE_IEP_SEED" in capsys.readouterr().err
    # an explicit --seed needs no environment value; other commands never read it
    assert main([a.format(tree=tree, out=tmp_path / "w.json") for a in argv] + ["--seed", "3"]) == 0
    assert main(["hedge", "info", str(tree)]) == 0


_LAMBDA_NAMES = ("alpha1", "alpha2", "beta2", "beta3", "beta4")
# fraction strings for command-line values, one in six with a zero denominator
_FRACTIONS = st.builds("{}/{}".format, st.integers(-6, 6), st.integers(0, 5))
_NUMBERS = st.builds("{}/{}".format, st.integers(-6, 6), st.integers(1, 5)) | st.integers(
    -4, 4
) | st.floats(-3, 3)
_POSITIVE = st.builds("{}/{}".format, st.integers(1, 6), st.integers(1, 5)) | st.integers(
    1, 4
) | st.floats(0.1, 3)
# edge weights within the float range whose sums over two or more children are not
_HUGE_EDGES = st.sampled_from([1e308, 9e307, "1e308", "17e307"])
_JUNK = st.sampled_from([True, None, [1], "1e400", "abc", "1/0", -1, 0])
_HEDGES = [tree_to_json(t) for t in (smallest_lush_hedge(2), smallest_lush_hedge(3), ten_vertex_hedge())]
# feasible tuples for path-to-hedge members (regions 1 and 7)
_MEMBER_LAMBDAS = [(0, 1, -1, 2, 3), (0, -1, 1, -2, -3)]
# the same scaled by 1e300: every value is a float, but the b_i overflow one
_HUGE_MEMBERS = [tuple(f"{v}e300" for v in lam) for lam in _MEMBER_LAMBDAS]
# --cluster-tol strings, finite and positive or not
_TOLS = st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1", "1e-7", "5e-324"]) | st.floats().map(repr)
# HEDGE_IEP_SEED values; None leaves the variable unset
_SEEDS = st.sampled_from([None, "", "abc", "1.5", " 2 ", "-3"]) | st.integers(-5, 2**40).map(str)


@st.composite
def _hedge_json(draw):
    """One of the lush hedges, under a random relabelling half of the time."""
    hedge = draw(st.sampled_from(_HEDGES))
    n, parent = hedge["n"], hedge["parent"]
    new = draw(st.permutations(range(1, n + 1))) if draw(st.booleans()) else range(1, n + 1)
    moved = [0] * n
    for v, p in enumerate(parent, start=1):
        moved[new[v - 1] - 1] = 0 if p == 0 else new[p - 1]
    return {"n": n, "parent": moved}


@st.composite
def _tree_json(draw):
    """Lush hedges, random trees, and random trees with one malformed entry."""
    kind = draw(st.sampled_from(["hedge", "hedge", "tree", "junk"]))
    if kind == "hedge":
        return draw(_hedge_json())
    n = draw(st.integers(1, 6))
    parent = [0] + [draw(st.integers(1, v - 1)) for v in range(2, n + 1)]
    if kind == "junk":
        parent[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-1, n + 1, 1.5, True, "1", None]))
        return {"n": draw(st.sampled_from([n, n + 1, 0, 2.0, "2"])), "parent": parent}
    return {"n": n, "parent": parent}


@st.composite
def _weight_json(draw):
    """Weights on a generated tree; some have one malformed value, some are
    path-to-hedge members, so that recognize reaches the recipe check, and
    some have child-edge sums beyond the float range."""
    kind = draw(st.sampled_from(["member"] * 2 + ["overflow"] + ["random"] * 5))
    if kind == "overflow":
        # one vertex weight, so that the recipe check reaches the sums; every
        # edge weight in range, but child-edge sums that pass it
        hedge, x = draw(_hedge_json()), draw(_NUMBERS)
        return {
            "tree": hedge,
            "vertexWeight": {str(v): x for v in range(1, hedge["n"] + 1)},
            "edgeWeight": {
                f"{p}-{v}": draw(_HUGE_EDGES) for v, p in enumerate(hedge["parent"], start=1) if p
            },
        }
    if kind == "member":
        t = tree_from_json(draw(_hedge_json()))
        lam = LambdaTuple(*map(Fraction, draw(st.sampled_from(_MEMBER_LAMBDAS))))
        splits = "uniform"
        if draw(st.booleans()):
            splits = {}
            for v in t.vertices:
                k = len(t.children[v])
                if k:
                    parts = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
                    splits[v] = tuple(Fraction(x, sum(parts)) for x in parts)
        return weight_to_json(ph_construct(build_C(lam, t.height + 1), t, splits))
    tree = draw(_tree_json())
    parent = tree["parent"]
    vertex_weight = {str(v): draw(_NUMBERS) for v in range(1, len(parent) + 1)}
    edge_weight = {
        f"{p}-{v}": draw(_POSITIVE)
        for v, p in enumerate(parent, start=1)
        if isinstance(p, int) and 0 < p < v
    }
    if draw(st.integers(0, 2)) == 0:
        table = draw(st.sampled_from([vertex_weight, edge_weight]))
        key = draw(st.sampled_from(sorted(table) + ["0", "x", "1-2-3"]))
        table[key] = draw(_JUNK)
    return {"tree": tree, "vertexWeight": vertex_weight, "edgeWeight": edge_weight}


@st.composite
def _lambda_values(draw, values):
    """Values for a prefix of the lambda names, sometimes with a gap, and
    sometimes a member tuple scaled by 1e300 (beta4 optional)."""
    if draw(st.integers(0, 4)) == 0:
        huge = draw(st.sampled_from(_HUGE_MEMBERS))
        return dict(zip(_LAMBDA_NAMES, huge[: draw(st.integers(4, 5))]))
    names = list(_LAMBDA_NAMES[: draw(st.integers(0, 5))])
    if names and draw(st.integers(0, 3)) == 0:
        names.pop(draw(st.integers(0, len(names) - 1)))
    return {name: draw(values) for name in names}


@st.composite
def _argv(draw, tmp: Path):
    """One command line over generated tree, weight and lambda files."""

    def write(name, data):
        (tmp / name).write_text(json.dumps(data))
        return str(tmp / name)

    command = draw(st.sampled_from(
        ["hedge info", "covers", "weights spectrum", "pth recognize", "lambda build",
         "lambda region", "pth rs-sweep", "rigid levels", "pth construct", "pth spectrum",
         "repro"]
    ))
    if command in ("hedge info", "covers"):
        return command.split() + [write("tree.json", draw(_tree_json()))]
    if command == "weights spectrum":
        argv = ["weights", "spectrum", write("w.json", draw(_weight_json()))]
        return argv + ([f"--cluster-tol={draw(_TOLS)}"] if draw(st.booleans()) else [])
    if command in ("pth construct", "repro"):
        if command == "repro":
            argv = ["repro", draw(st.sampled_from(["table1", "zeroone-11", "nonconvexity", "x"]))]
        else:
            lam = draw(_lambda_values(_FRACTIONS))
            argv = ["pth", "construct", "--tree", write("tree.json", draw(_tree_json())),
                    f"--out={tmp / 'w.json'}"] + [f"--{k}={v}" for k, v in lam.items()]
            argv += ["--random-splits"] if draw(st.booleans()) else []
        return argv + ([f"--seed={draw(st.integers(-3, 3))}"] if draw(st.booleans()) else [])
    if command == "pth spectrum":
        lam = draw(_lambda_values(_FRACTIONS))
        argv = ["pth", "spectrum", "--tree", write("tree.json", draw(_tree_json()))]
        return argv + [f"--{k}={v}" for k, v in lam.items()]
    if command == "lambda region":
        values = st.sampled_from(_HUGE_MEMBERS) | st.lists(_FRACTIONS, min_size=5, max_size=5)
        return ["lambda", "region", *draw(values)]
    if command == "pth recognize":
        argv = ["pth", "recognize", write("w.json", draw(_weight_json()))]
        if draw(st.booleans()):
            lam = draw(_lambda_values(_FRACTIONS))
            argv.append("--assign=" + ",".join(f"{k}={v}" for k, v in lam.items()))
        return argv
    if command == "lambda build":
        argv = ["lambda", "build", f"--n={draw(st.integers(-1, 8))}", f"--out={tmp / 'c.json'}"]
        if draw(st.booleans()):
            lam = draw(_lambda_values(_NUMBERS | _JUNK))
            return argv + ["--lambda-file", write("lam.json", lam)]
        return argv + [f"--{k}={v}" for k, v in draw(_lambda_values(_FRACTIONS)).items()]
    if command == "pth rs-sweep":
        bounds = _FRACTIONS | st.sampled_from(["1687/5000", "2733/5000"])
        return [
            "pth", "rs-sweep", "--tree", write("tree.json", draw(_tree_json())),
            f"--from={draw(bounds)}", f"--to={draw(bounds)}",
            f"--steps={draw(st.integers(-1, 3))}", f"--out={tmp / 'points.csv'}",
        ]
    return ["rigid", "levels", f"--max={draw(st.integers(-1, 12))}", f"--out={tmp / 'l.csv'}"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_exit_code_contract(data):
    """Any generated input ends in exit 0, 1 or 2, never in a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(_argv(Path(tmp)))
        seed = data.draw(_SEEDS)
        env = {k: v for k, v in os.environ.items() if k != "HEDGE_IEP_SEED"}
        env.update({} if seed is None else {"HEDGE_IEP_SEED": seed})
        with mock.patch.dict(os.environ, env, clear=True), contextlib.redirect_stdout(
            io.StringIO()
        ), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)


def test_counterexample_commands(t31_file, tmp_path, capsys):
    assert main(["pth", "counterexample", "splitting", t31_file]) == 0
    fig7 = tmp_path / "fig7.json"
    save_tree(RootedTree((0, 1, 2, 1, 4, 1, 6, 2, 4, 6, 6)), fig7)
    assert main(["pth", "counterexample", "zeroone", str(fig7)]) == 0
    out = capsys.readouterr().out
    assert "not" in out


def test_rigid_solve(capsys):
    assert main(["rigid", "solve"]) == 0
    out = capsys.readouterr().out
    assert "0.33498155" in out  # twelve digits are printed
    assert "region 1" in out
    # the whole printout, the exact coordinates of every value included
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1e6cf15a7a9ccaa770815bc1cdce019800b137858bc76f2ec1c63cb85de1a558"
    )


def test_rigid_levels(tmp_path, capsys):
    out_file = tmp_path / "levels.csv"
    assert main(["rigid", "levels", "--max", "10", "--out", str(out_file)]) == 0
    with open(out_file) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["level", "index", "value"]
    assert len(rows) == 1 + 55


def test_rigid_list(tmp_path, capsys):
    t8 = tmp_path / "t8.json"
    save_tree(smallest_lush_hedge(8), t8)
    assert main(["rigid", "list", "--tree", str(t8)]) == 0
    out = capsys.readouterr().out
    assert "7654" in out and "2734" in out


def test_rigid_list_needs_a_lush_hedge(tmp_path, capsys):
    # on a bare path every ell_i but the last is 0, so the list held zeros,
    # and a long path asked for hundreds of level spectra
    path = tmp_path / "path.json"
    save_tree(RootedTree(tuple(range(300))), path)
    assert main(["rigid", "list", "--tree", str(path)]) == 2
    assert "lush" in capsys.readouterr().err


def test_repro_unknown(capsys):
    assert main(["repro", "definitely-not-an-example"]) == 2
    # the same usage error as every other ValueError
    err = capsys.readouterr().err
    assert err.startswith("error: unknown example 'definitely-not-an-example'; choose from")


def test_repro_json(capsys):
    assert main(["repro", "table1", "--json"]) == 0
    out = capsys.readouterr().out
    payload = out[out.index("{"):]
    data = json.loads(payload)
    assert data["schema"] == "hedge-iep/1"
    assert all(c["pass"] for c in data["checks"])


def _moved_edge(w: WeightFn) -> WeightFn:
    """w with the weight of its edge (1, 2) moved by 1/1000."""
    return WeightFn(w.tree, w.vertex_weight, {**w.edge_weight, (1, 2): w.e(1, 2) + Fraction(1, 1000)})


@pytest.mark.parametrize("example", ["table1", "table2"])
def test_exact_table_checks_catch_a_moved_edge(monkeypatch, example):
    c3_weight = repro._c3_weight
    assert c3_weight(8).e(1, 2) == 20
    monkeypatch.setattr(repro, "_c3_weight", lambda top: _moved_edge(c3_weight(top)))
    checks = {name: ok for name, ok, _ in repro.run_repro(example).checks}
    assert not checks["level-formula spectrum"]
    assert not checks["direct eigendecomposition"]


def test_realizability_check_catches_a_moved_vertex_weight(monkeypatch):
    construct = pth.ph_construct

    def moved(c, t, *args):
        w = construct(c, t, *args)
        return WeightFn(t, {**w.vertex_weight, 1: w.v(1) + Fraction(1, 1000)}, w.edge_weight)

    monkeypatch.setattr(pth, "ph_construct", moved)
    checks = {name: ok for name, ok, _ in repro.run_repro("splitting-t31").checks}
    assert not checks["realizability by eigendecomposition"]
    assert checks["realizable list"] and checks["split list"]


def _bf_rs_json(capsys, *argv) -> tuple[int, dict]:
    code = main(["repro", "bf-rs", "--json", *argv])
    out = capsys.readouterr().out
    data = json.loads(out[out.index("{"):])
    del data["wall_time_s"]
    return code, data


def test_bf_rs_checks_25_realizations_on_every_seed(capsys):
    want = [
        {"name": "ordered list (1,2,4,2,1)", "pass": True, "detail": "25 realizations"},
        {"name": "gap1 = gap4 on every realization", "pass": True, "detail": "25 checked"},
    ]
    for seed in range(21):
        code, data = _bf_rs_json(capsys, "--seed", str(seed))
        assert code == 0 and data["checks"] == want and data["outputs"] == {}
    assert _bf_rs_json(capsys, "--seed", "7") == _bf_rs_json(capsys, "--seed", "7")


def test_bf_rs_rejects_a_negative_seed(capsys):
    assert main(["repro", "bf-rs", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: expected non-negative integer\n"


def test_run_repro_script_keeps_the_exit_code_contract():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_repro.py"), "--seed", "-1"],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "error: expected non-negative integer" in proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "FAILED: bf-rs" in proc.stdout


def test_run_repro_script_writes_untimed_reports(tmp_path, capsys):
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("run_repro", root / "scripts" / "run_repro.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.write_report("table1", 3, tmp_path) == 0
    assert capsys.readouterr().out == f"table1: exit 0, wrote {tmp_path / 'table1.json'}\n"
    want = json.loads(json.dumps(repro.run_repro("table1", seed=3).to_json()))
    del want["wall_time_s"]
    assert json.loads((tmp_path / "table1.json").read_text()) == want
    # an input error keeps the CLI's exit code 2 and writes no report
    assert script.write_report("bf-rs", -1, tmp_path) == 2
    assert capsys.readouterr().err == "bf-rs: error: expected non-negative integer\n"
    assert not (tmp_path / "bf-rs.json").exists()


def test_repro_reports_match_the_golden_files(tmp_path):
    # the ten untimed reports that `scripts/run_repro.py --json-dir` writes,
    # byte for byte against tests/golden/repro; after an intended change,
    # rewrite them with `python scripts/run_repro.py --json-dir tests/golden/repro`
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_repro.py"), "--json-dir", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    golden = root / "tests" / "golden" / "repro"
    names = sorted(f"{example}.json" for example in repro.REPROS)
    assert sorted(p.name for p in golden.iterdir()) == names
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_text() == (golden / name).read_text(), name


def _scaled_edge(c, t, *args):
    """The member of ph_construct with the weight of its edge (1, 2) doubled."""
    w = ph_construct(c, t, *args)
    return WeightFn(t, w.vertex_weight, {**w.edge_weight, (1, 2): 2 * w.e(1, 2)})


@pytest.mark.parametrize(
    "name,wrong",
    [
        ("ph_construct", _scaled_edge),
        ("forced_fifth_eigenvalue", lambda lam4: forced_fifth_eigenvalue(lam4) + Fraction(1, 1000)),
    ],
    ids=["scaled edge", "shifted fifth candidate"],
)
def test_bf_rs_certificate_catches_a_wrong_member(name, wrong, monkeypatch, capsys):
    monkeypatch.setattr(repro.pth, name, wrong)
    assert main(["repro", "bf-rs"]) == 1
    assert capsys.readouterr().out.startswith("[FAIL] spectrum certified by inertia counts: ")


def test_repro_inputs_digest_follows_the_seed(capsys):
    def digest(*extra):
        assert main(["repro", "table1", "--json", *extra]) == 0
        out = capsys.readouterr().out
        return json.loads(out[out.index("{"):])["inputs_digest"]

    first = digest("--seed", "1")
    assert digest("--seed", "1") == first
    assert digest("--seed", "2") != first
    with mock.patch("hedge_iep.repro.__version__", "0.0.0"):
        assert digest("--seed", "1") != first
