"""The tolerance policy: every shared float tolerance, the one exact-or-float
comparison and the one gap clustering.

Exact scalars (int, Fraction, QXi) always compare exactly; a tolerance
applies only where a float takes part.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: cluster gap, relative to the spectrum width (`--cluster-tol` default)
CLUSTER_TOL = 1e-7
#: eigenvalue coincidence, relative to the spectrum width (the search's level spectra, rigid list, repros)
SPECTRUM_TOL = 1e-9
#: weight equality, absolute: the recognizer against the recipe (the search first holds every
#: vertex to twice it of the chain's), and the pendent-path collapse
WEIGHT_TOL = 1e-9
#: float rounding, relative to max(1, |value|): membership, symmetry, sums to 1
ROUNDING_TOL = 1e-12
#: zero singular value or equal subpath eigenvalue, relative to max(1, s_max or width)
SINGULAR_TOL = 1e-8


def close(x, y, tol: float, scale: float = 1.0) -> bool:
    """x == y when neither side is a float; otherwise the two lie within
    tol * scale.  NaN is never close.  Two Fractions, which are kept in
    lowest terms, are equal when their numerators and denominators are."""
    if type(x) is Fraction and type(y) is Fraction:
        return x.numerator == y.numerator and x.denominator == y.denominator
    if isinstance(x, float) or isinstance(y, float):
        return abs(float(x) - float(y)) <= tol * scale
    return x == y


def gap_clusters(vals: list[float], tol: float) -> list[tuple[float, range]]:
    """Greedy clustering of a sorted float list: a cluster ends where the next
    value lies more than tol times the list's width above the last one.
    Returns each cluster's mean and index range; equal values form one
    cluster whose value is the first.  A width or mean that overflows a
    float raises ValueError rather than give inf or one merged cluster."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"cluster tolerance must be finite and positive, got {tol}")
    if not vals:
        return []
    width = vals[-1] - vals[0]
    if not math.isfinite(width):
        raise ValueError(f"the spectrum width {width} is not a finite float")
    if width == 0:
        return [(vals[0], range(len(vals)))]
    cuts = [i for i in range(1, len(vals)) if vals[i] - vals[i - 1] > tol * width]
    ranges = [range(s, e) for s, e in zip([0] + cuts, cuts + [len(vals)])]
    clusters = [(sum(vals[i] for i in r) / len(r), r) for r in ranges]
    if not all(math.isfinite(mean) for mean, _ in clusters):
        raise ValueError("a cluster mean overflows a float")
    return clusters
