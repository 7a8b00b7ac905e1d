"""The package declares ``requires-python = ">=3.10"``: every module must
parse under the 3.10 grammar, which rejects ``except*``, ``type X = ...``
and PEP 695 generics."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_the_declared_floor_is_3_10():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "hedge_iep").glob("*.py")), ids=lambda p: p.name
)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
