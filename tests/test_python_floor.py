"""The package declares ``requires-python = ">=3.10"``: every module must
parse under the 3.10 grammar, which rejects ``except*``, ``type X = ...``
and PEP 695 generics, and every repro, as none needs numpy, must run on a
3.10 interpreter where one is installed."""

import ast
import functools
import json
import os
import shutil
import subprocess
from pathlib import Path

import pytest

from hedge_iep.repro import REPROS

ROOT = Path(__file__).resolve().parents[1]


def test_the_declared_floor_is_3_10():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "hedge_iep").glob("*.py")), ids=lambda p: p.name
)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


@functools.cache
def _floor_python() -> str | None:
    """A Python 3.10 interpreter: HEDGE_IEP_FLOOR_PYTHON, else python3.10 on
    PATH, else a pyenv 3.10; each candidate counts only if it runs and
    reports 3.10 (a pyenv shim can be on PATH with no version behind it)."""
    pyenv = sorted(Path.home().glob(".pyenv/versions/3.10.*/bin/python"))
    candidates = [os.environ.get("HEDGE_IEP_FLOOR_PYTHON"), shutil.which("python3.10"), *pyenv]
    for python in filter(None, candidates):
        try:
            probe = subprocess.run(
                [str(python), "-c", "import sys; print(sys.version_info[:2])"],
                capture_output=True,
                text=True,
                timeout=60,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0 and probe.stdout.strip() == "(3, 10)":
            return str(python)
    return None


@pytest.mark.parametrize("example", sorted(REPROS))
def test_numpy_free_repro_runs_at_the_floor(example, tmp_path):
    """The ten repros, none of which needs numpy, run on a 3.10 interpreter
    and report what tests/golden/repro holds, which catches a 3.11-only API
    that parsing cannot."""
    python = _floor_python()
    if python is None:
        pytest.skip("no Python 3.10 interpreter found")
    proc = subprocess.run(
        [python, "-m", "hedge_iep", "repro", example, "--json"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout[proc.stdout.index("{"):])
    del report["wall_time_s"]
    golden = ROOT / "tests" / "golden" / "repro" / f"{example}.json"
    assert json.dumps(report, indent=1) + "\n" == golden.read_text()
