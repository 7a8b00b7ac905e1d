"""Dense symmetric eigensolving, exact characteristic polynomials and
multiplicity clustering.

The floating-point eigensolver is LAPACK via numpy; the exact routines act
as its independent oracle in the test suite.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .mpoly import bareiss_determinant
from .polys import X, PolyQ
from .spectra import SpectrumMultiset
from .tolerance import CLUSTER_TOL, ROUNDING_TOL, SINGULAR_TOL, gap_clusters


class NotSymmetric(ValueError):
    pass


class NoConvergence(RuntimeError):
    pass


def eigenvalues_sym(m: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of a dense symmetric matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetric("matrix must be square")
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.T)) > ROUNDING_TOL * scale:
        raise NotSymmetric("matrix is not symmetric within tolerance")
    try:
        return np.sort(np.linalg.eigvalsh(m))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(str(exc)) from exc


def trailing_spectra(a, b, n: int) -> list[np.ndarray]:
    """Sorted float spectra of the trailing k-by-k submatrices, k = 1..n, of
    the path matrix with diagonal a_1..a_n (bottom to top), superdiagonal
    products b_2..b_n and unit subdiagonal, each solved in its symmetric form
    with off-diagonal sqrt(b_i)."""
    af = [float(x) for x in a]
    bf = [float(x) for x in b]
    out = []
    for k in range(1, n + 1):
        m = np.diag(af[k - 1 :: -1])
        for i in range(k - 1):
            m[i, i + 1] = m[i + 1, i] = np.sqrt(bf[k - 2 - i])
        out.append(np.sort(np.linalg.eigvalsh(m)))
    return out


def char_poly_exact(entries) -> PolyQ:
    """Exact characteristic polynomial det(xI - A) of a rational matrix, by
    a fraction-free Bareiss expansion over polynomials; it shares no step
    with the level recurrence, so each checks the other."""
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
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    cut = SINGULAR_TOL * max(1.0, float(s[0]))
    return int(np.sum(s < cut))
