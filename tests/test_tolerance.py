import io
import tokenize
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import hedge_iep
from hedge_iep.algebraic import QXi
from hedge_iep.tolerance import close, gap_clusters

NAN = float("nan")


@pytest.mark.parametrize(
    "x, y, tol, expected",
    [
        # exact scalars compare exactly, whatever the tolerance
        (Fraction(1), Fraction(1) + Fraction(1, 10**15), 1e-9, False),
        (Fraction(1, 3), Fraction(2, 6), 1e-9, True),
        (3, Fraction(3), 1e-9, True),
        (QXi.xi(), QXi.xi() + QXi.of(Fraction(1, 10**20)), 1e-9, False),
        (QXi.xi() * QXi.xi(), QXi.xi() ** 2, 1e-9, True),
        # a float on either side compares within tol
        (1.0 + 1e-12, Fraction(1), 1e-9, True),
        (Fraction(1), 1.0 + 1e-6, 1e-9, False),
        (2.0, 2.0 + 1e-10, 1e-9, True),
        # NaN is never close, not even to itself or at an infinite tolerance
        (NAN, NAN, 1e-9, False),
        (NAN, 5.0, float("inf"), False),
        (Fraction(5), NAN, 1e-9, False),
    ],
)
def test_close_truth_table(x, y, tol, expected):
    assert close(x, y, tol) is expected
    assert close(y, x, tol) is expected


def test_close_scale():
    assert close(1000.0, 1000.0 + 1e-10, 1e-12, scale=1000.0)
    assert not close(1000.0, 1000.0 + 1e-10, 1e-12)


def test_gap_clusters():
    vals = [0.0, 1.0, 1.0 + 1e-12, 2.0]
    assert gap_clusters(vals, 1e-7) == [
        (0.0, range(0, 1)), ((1.0 + 1.0 + 1e-12) / 2, range(1, 3)), (2.0, range(3, 4))
    ]
    assert gap_clusters([], 1e-7) == []
    # equal values keep the first value, not a rounded mean
    assert gap_clusters([0.1] * 3, 1e-7) == [(0.1, range(3))]


@pytest.mark.parametrize("tol", [NAN, float("inf"), float("-inf"), 0.0, -1.0])
def test_gap_clusters_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError):
        gap_clusters([-1.0, 1.0, 2.0], tol)


# the gates that belong to one module stay there; any other
# tolerance literal belongs in tolerance.py
_ONE_MODULE_GATES = {
    # the reference decimals of the rigid constants
    "repro.py": Counter({"5e-10": 1}),
}


def test_tolerance_literals_live_in_one_module():
    src = Path(hedge_iep.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name == "tolerance.py":
            continue
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        found = Counter(
            tok.string for tok in tokens
            if tok.type == tokenize.NUMBER and "e-" in tok.string.lower()
        )
        extra = found - _ONE_MODULE_GATES.get(path.name, Counter())
        assert not extra, f"{path.name} has tolerance literals {sorted(extra)}"
