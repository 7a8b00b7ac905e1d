"""The tolerance policy: every shared float tolerance, the one exact-or-float
comparison and the one gap clustering.

Exact scalars (int, Fraction, QXi) always compare exactly; a tolerance
applies only where a float takes part.
"""

from __future__ import annotations

import math

#: cluster gap, relative to the spectrum width (`--cluster-tol` default)
CLUSTER_TOL = 1e-7
#: eigenvalue coincidence, relative to the spectrum width (search, rigid list, repros)
SPECTRUM_TOL = 1e-9
#: weight equality, absolute: the recognizer against the recipe, and the pendent-path collapse
WEIGHT_TOL = 1e-9
#: float rounding, relative to max(1, |value|): membership, symmetry, sums to 1
ROUNDING_TOL = 1e-12
#: zero singular value or equal subpath eigenvalue, relative to max(1, s_max or width)
SINGULAR_TOL = 1e-8
#: agreement of the two routes to the rigid tuple, absolute
ROUTE_TOL = 1e-9


def close(x, y, tol: float, scale: float = 1.0) -> bool:
    """x == y when neither side is a float; otherwise the two lie within
    tol * scale.  NaN is never close."""
    if isinstance(x, float) or isinstance(y, float):
        return abs(float(x) - float(y)) <= tol * scale
    return x == y


def gap_clusters(vals: list[float], tol: float) -> list[tuple[float, range]]:
    """Greedy clustering of a sorted float list: a cluster ends where the next
    value lies more than tol times the list's width above the last one.
    Returns each cluster's mean and index range; equal values form one
    cluster whose value is the first."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"cluster tolerance must be finite and positive, got {tol}")
    if not vals:
        return []
    width = vals[-1] - vals[0]
    if width == 0:
        return [(vals[0], range(len(vals)))]
    cuts = [i for i in range(1, len(vals)) if vals[i] - vals[i - 1] > tol * width]
    ranges = [range(s, e) for s, e in zip([0] + cuts, cuts + [len(vals)])]
    return [(sum(vals[i] for i in r) / len(r), r) for r in ranges]
