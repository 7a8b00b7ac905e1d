"""Dense symmetric eigensolving, exact characteristic polynomials and
multiplicity clustering.

The floating-point eigensolver is LAPACK via numpy, imported inside the
float routines, so the exact commands never load it; it returns ascending
eigenvalues, so none are sorted again.  `char_poly_exact` is the test
suite's oracle for the exact routes.  `trailing_spectra(a, b)` solves every
level of the path (a, b) for `rigid.level_figure_data`,
`rigid.consecutive_interlacing_gap`, `pth._level_spectrum` and
`lambdas.step_lemma_checks_raw`, where numpy is loaded anyway or the levels
are many; the rigid list, with nine levels on T^(8), solves them in pure
Python with `polys.level_spectra` and loads no numpy.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .polys import X, PolyQ
from .spectra import SpectrumMultiset
from .tolerance import CLUSTER_TOL, ROUNDING_TOL, SINGULAR_TOL, gap_clusters

if TYPE_CHECKING:
    import numpy as np


class NotSymmetric(ValueError):
    pass


class NoConvergence(RuntimeError):
    pass


def eigenvalues_sym(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a dense symmetric matrix, as LAPACK gives them."""
    import numpy as np

    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetric("matrix must be square")
    # a bit-symmetric matrix passes with no n-by-n temporary; any other one
    # (a NaN entry too) is held to the rounding tolerance
    if not np.array_equal(m, m.T):
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m - m.T)) > ROUNDING_TOL * scale:
            raise NotSymmetric("matrix is not symmetric within tolerance")
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc


def trailing_spectra(a, b) -> list[np.ndarray]:
    """Ascending float spectra of the trailing k-by-k submatrices,
    k = 1..n = len(a), of the path matrix with diagonal a_1..a_n (bottom to
    top), superdiagonal products b_2..b_n and unit subdiagonal, each solved
    in its symmetric form with off-diagonal sqrt(b_i).  C_n is filled once;
    each C_k is its trailing block, passed to LAPACK as a slice."""
    import numpy as np

    n = len(a)
    m = np.diag([float(x) for x in a][::-1])
    i = np.arange(n - 1)
    m[i, i + 1] = m[i + 1, i] = np.sqrt([float(x) for x in b[: n - 1]][::-1])
    return [np.linalg.eigvalsh(m[n - k :, n - k :]) for k in range(1, n + 1)]


def char_poly_exact(entries) -> PolyQ:
    """Exact characteristic polynomial det(xI - A) of a rational matrix, by a
    fraction-free Bareiss expansion over polynomials: no step is shared with
    the level recurrence or `weights.char_poly_of`, so it checks both."""
    from .mpoly import bareiss_determinant

    return bareiss_determinant(
        [
            [(X if i == j else PolyQ(())) - Fraction(x) for j, x in enumerate(row)]
            for i, row in enumerate(entries)
        ],
        PolyQ.of(1),
    )


def cluster_multiplicities(values, tol: float = CLUSTER_TOL) -> SpectrumMultiset:
    """Greedy gap clustering of the sorted values, gaps relative to the
    spectrum's width."""
    vals = sorted(float(v) for v in values)
    return SpectrumMultiset(tuple((mean, len(r)) for mean, r in gap_clusters(vals, tol)))


def numeric_nullity(m: np.ndarray) -> int:
    """Nullity as the count of singular values below SINGULAR_TOL * max(1, s_max)."""
    import numpy as np

    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    cut = SINGULAR_TOL * max(1.0, float(s[0]))
    return int(np.sum(s < cut))
