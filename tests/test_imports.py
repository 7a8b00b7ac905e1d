"""Import budget of a cold process, and the package's lazy public names.

A cold `hedge-iep repro <id>` is mostly import, and with no bytecode cache
each module it imports is compiled as well, so each command loads only the
modules it runs: `import hedge_iep` loads no submodule, no repro loads
numpy (the exact commands, `bf-rs` among them, the exact engine, the rigid
list and the 40 rigid levels of `levels-40` and `rigid levels`), and only
the rigid commands load the exact engine.  The rigid repros load
none of the path-to-hedge modules (`pth`, `weights`, `spectra`, `covers`),
and of them only `rigid-t8-list` loads `trees`; `t31-constraints` and
`nonconvexity` load no `weights`; `hedge info` loads `trees` but no
path-to-hedge module and no engine.  Only the `covers` command loads the
brute-force cover code, and no command loads `dataclasses`, whose import and
generated methods cost each process about 25 ms, or `inspect`.  The cold
cases run in a fresh interpreter and read its `sys.modules` at exit; the
cases without numpy block it there first, and a command that needs it
exits 2 with one `error:` line.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hedge_iep
from hedge_iep.cli import main
from hedge_iep.repro import REPROS
from hedge_iep.trees import smallest_lush_hedge, ten_vertex_hedge

from conftest import save_tree

SRC = str(Path(hedge_iep.__file__).parents[1])

#: every name `hedge_iep` exports, by defining submodule
PUBLIC = {
    "algebraic": "QXi",
    "covers": "ForcingState M_formula Mhat_formula PathCover brute_force_path_cover"
    " brute_force_zero_forcing derived_set forcing_process nullity_bound_check"
    " path_cover_number sigma_counts zero_forcing_number",
    "lambdas": "LambdaTuple abc_coefficients build_C region_of remainder_poly"
    " sample_in_region step_lemma_checks",
    "numeric": "char_poly_exact cluster_multiplicities eigenvalues_sym",
    "pth": "critical_check forced_fifth_eigenvalue gap_vector ph_construct ph_spectrum"
    " recognize recognize_search splitting_counterexample t31_constraints_check"
    " t31_exact_spectrum t31_lambda zero_one_counterexample_check",
    "rigid": "level_figure_data rigid_multiplicity_list simplify_resultant solve_rigid",
    "spectra": "GapVector MultiplicityList SpectrumMultiset",
    "trees": "HedgeProfile RootedTree ten_vertex_hedge build_hedge is_hedge is_lush"
    " pendent_paths profile smallest_lush_hedge subtree_chain",
    "weights": "DuplicationSplit WeightFn WeightedMatrix collapse_pendent_k_paths"
    " duplicate_branch symmetric_representative unit_lower_representative",
}
NAMES = [(mod, name) for mod, names in PUBLIC.items() for name in names.split()]

EXACT_IDS = (
    "table1", "table2", "bf-rs", "t31-constraints", "nonconvexity", "splitting-t31", "zeroone-11"
)
RIGID_IDS = ("rigid-values", "rigid-t8-list", "levels-40")
ENGINE = {"hedge_iep.rigid", "hedge_iep.mpoly", "hedge_iep.algebraic"}

# runs `python -m hedge_iep <argv>` and prints the loaded modules at exit
CLI_DRIVER = """
import atexit, json, runpy, sys
atexit.register(lambda: print(json.dumps(sorted(sys.modules)), file=sys.stderr))
sys.argv[0] = "hedge-iep"
runpy.run_module("hedge_iep", run_name="__main__", alter_sys=True)
"""


def _loaded_after(code: str, *argv: str, cwd=None) -> tuple[int, set[str]]:
    """Exit code and final `sys.modules` of a fresh interpreter running code."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, cwd=cwd, capture_output=True, text=True
    )
    return proc.returncode, set(json.loads(proc.stderr.splitlines()[-1]))


def _cli_loads(*argv: str, cwd=None) -> set[str]:
    code, modules = _loaded_after(CLI_DRIVER, *argv, cwd=cwd)
    assert code == 0
    return modules


def _heavy(modules: set[str]) -> set[str]:
    return {m for m in modules if m.split(".")[0] in ("numpy", "scipy")}


def test_package_import_loads_no_submodule():
    code = (
        "import json, sys, hedge_iep\n"
        "hedge_iep.__version__, dir(hedge_iep)\n"
        "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
    )
    _, modules = _loaded_after(code)
    assert {m for m in modules if m.startswith("hedge_iep")} == {"hedge_iep"}
    assert _heavy(modules) == set()


def test_a_name_loads_only_its_module():
    code = (
        "import json, sys\n"
        "from hedge_iep import RootedTree\n"
        "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
    )
    _, modules = _loaded_after(code)
    assert {m for m in modules if m.startswith("hedge_iep")} == {"hedge_iep", "hedge_iep.trees"}


def test_the_repro_ids_split_into_exact_float_and_rigid():
    # no light repro takes a float route any more
    assert sorted(REPROS) == sorted(EXACT_IDS + RIGID_IDS)


@pytest.mark.parametrize("example", EXACT_IDS)
def test_light_repro_loads_no_exact_engine(example):
    modules = _cli_loads("repro", example)
    assert modules & ENGINE == set()
    assert _heavy(modules) == set()


def test_rigid_repro_loads_the_exact_engine():
    # its 40 levels come from the pure-Python kernel in polys
    modules = _cli_loads("repro", "levels-40")
    assert ENGINE <= modules
    assert _heavy(modules) == set()


def test_rigid_values_loads_the_engine_but_no_numpy():
    # its answer is exact: the engine's Kronecker products unpack on ints
    modules = _cli_loads("repro", "rigid-values")
    assert ENGINE <= modules
    assert _heavy(modules) == set()


@pytest.mark.parametrize(
    "argv", [("repro", "rigid-t8-list"), ("rigid", "list", "--tree", "t8.json")], ids=" ".join
)
def test_rigid_list_loads_the_engine_but_no_numpy(argv, tmp_path):
    # its nine level spectra come from the pure-Python kernel in polys
    save_tree(smallest_lush_hedge(8), tmp_path / "t8.json")
    modules = _cli_loads(*argv, cwd=tmp_path)
    assert ENGINE <= modules
    assert _heavy(modules) == set()


NO_NUMPY = "import sys\nsys.modules['numpy'] = None\n" + CLI_DRIVER


def test_rigid_list_runs_where_numpy_cannot_load():
    code, modules = _loaded_after(NO_NUMPY, "repro", "rigid-t8-list", "--json")
    assert code == 0
    assert "hedge_iep.rigid" in modules


def test_bf_rs_runs_where_numpy_cannot_load():
    # its members are exact and certified by inertia counts
    code, modules = _loaded_after(NO_NUMPY, "repro", "bf-rs", "--json")
    assert code == 0
    assert "hedge_iep.pth" in modules and modules & ENGINE == set()


#: command run where numpy cannot load -> its exit code
NO_NUMPY_EXITS = {
    ("repro", "levels-40", "--json"): 0,
    ("rigid", "levels", "--max", "40", "--out", "levels.csv"): 0,
    # it seeds numpy's RNG before it reads its inputs
    ("pth", "construct", "--alpha1", "0", "--tree", "t.json", "--out", "w.json"): 2,
}


@pytest.mark.parametrize("argv", list(NO_NUMPY_EXITS), ids=" ".join)
def test_a_command_where_numpy_cannot_load_runs_or_exits_2(argv, tmp_path):
    save_tree(ten_vertex_hedge(), tmp_path / "t.json")
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY, *argv],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == NO_NUMPY_EXITS[argv], proc.stderr
    errors = proc.stderr.splitlines()[:-1]
    if proc.returncode == 0:
        assert errors == []
    else:
        assert errors == ["error: this command needs numpy, which cannot be imported"]


def test_the_exact_engine_loads_no_numpy():
    code = (
        "import json, sys, hedge_iep.mpoly\n"
        "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"
    )
    _, modules = _loaded_after(code)
    assert "hedge_iep.mpoly" in modules
    assert _heavy(modules) == set()


def test_hedge_info_loads_no_numpy(tmp_path):
    save_tree(ten_vertex_hedge(), tmp_path / "t.json")
    modules = _cli_loads("hedge", "info", "t.json", cwd=tmp_path)
    assert _heavy(modules) == set()
    assert modules & ENGINE == set()


#: the path-to-hedge side of the package, which the exact engine never calls
PATH_TO_HEDGE = {"hedge_iep.pth", "hedge_iep.weights", "hedge_iep.spectra", "hedge_iep.covers"}

#: cold command -> package modules it must not load, each a module it never runs
UNUSED = {
    ("repro", "rigid-values"): PATH_TO_HEDGE | {"hedge_iep.trees"},
    ("repro", "levels-40"): PATH_TO_HEDGE | {"hedge_iep.trees"},
    # the rigid list reads the profile of T^(8), so it adds `trees` alone
    ("repro", "rigid-t8-list"): PATH_TO_HEDGE,
    # the explicit height-3 family is exact polynomials and a profile
    ("repro", "t31-constraints"): {"hedge_iep.weights"},
    ("repro", "nonconvexity"): {"hedge_iep.weights"},
    ("hedge", "info", "t.json"): PATH_TO_HEDGE | ENGINE,
}


@pytest.mark.parametrize("argv", list(UNUSED), ids=" ".join)
def test_a_cold_command_loads_no_module_it_does_not_run(argv, tmp_path):
    save_tree(ten_vertex_hedge(), tmp_path / "t.json")
    assert _cli_loads(*argv, cwd=tmp_path) & UNUSED[argv] == set()


#: cold commands, each run with the ten-vertex hedge as t.json in its cwd
COLD = [("repro", example) for example in sorted(REPROS)] + [
    ("hedge", "info", "t.json"),
    ("covers", "t.json"),
    ("rigid", "solve"),
]


@pytest.mark.parametrize("argv", COLD, ids=" ".join)
def test_a_cold_command_generates_no_code(argv, tmp_path):
    # `dataclasses` (and the `inspect` it imports) cost every process about
    # 25 ms, most of it compiling each class's generated methods at import
    save_tree(ten_vertex_hedge(), tmp_path / "t.json")
    modules = _cli_loads(*argv, cwd=tmp_path)
    assert "dataclasses" not in modules
    assert "inspect" not in modules
    if argv[0] != "covers":
        assert "hedge_iep.covers" not in modules


# --------------------------------------------------------------------------
# lazy exports


def test_every_public_name_is_its_modules_object():
    ns = {}
    exec(f"from hedge_iep import {', '.join(name for _, name in NAMES)}", ns)
    for mod, name in NAMES:
        assert ns[name] is getattr(importlib.import_module(f"hedge_iep.{mod}"), name)


def test_dir_and_star_import_list_every_public_name():
    names = {name for _, name in NAMES}
    assert names <= set(dir(hedge_iep))
    assert "__version__" in dir(hedge_iep)
    ns = {}
    exec("from hedge_iep import *", ns)
    assert names <= set(ns)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        hedge_iep.no_such_name
    with pytest.raises(ImportError):
        exec("from hedge_iep import no_such_name", {})


# --------------------------------------------------------------------------
# help texts: the commands' lazy imports leave every --help unchanged

HELP = {
    (): """\
usage: hedge-iep [-h] {hedge,covers,weights,lambda,pth,rigid,repro} ...

path-to-hedge constructions and spectral rigidity on trees

positional arguments:
  {hedge,covers,weights,lambda,pth,rigid,repro}
    hedge               tree utilities
    covers              path cover and zero forcing numbers
    weights             weight utilities
    lambda              distinguished-eigenvalue tools
    pth                 path-to-hedge pipeline
    rigid               exact rigidity engine
    repro               self-verifying worked-example runs

options:
  -h, --help            show this help message and exit
""",
    ("covers",): """\
usage: hedge-iep covers [-h] [--oracle] treefile

positional arguments:
  treefile

options:
  -h, --help  show this help message and exit
  --oracle    run brute-force cross-check (at most 32 vertices)
""",
    ("repro",): """\
usage: hedge-iep repro [-h] [--seed SEED] [--json] example

positional arguments:
  example      one of ['bf-rs', 'levels-40', 'nonconvexity', 'rigid-t8-list',
               'rigid-values', 'splitting-t31', 't31-constraints', 'table1',
               'table2', 'zeroone-11']

options:
  -h, --help   show this help message and exit
  --seed SEED  default: HEDGE_IEP_SEED, else 0
  --json
""",
    ("rigid", "list"): """\
usage: hedge-iep rigid list [-h] --tree TREE

options:
  -h, --help   show this help message and exit
  --tree TREE
""",
}


@pytest.mark.parametrize("argv", list(HELP), ids=lambda a: " ".join(a) or "top")
def test_help_text(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main([*argv, "--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out == HELP[argv]
