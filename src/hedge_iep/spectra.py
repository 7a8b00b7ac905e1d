"""Spectra as multisets, multiplicity lists and gap vectors."""

from __future__ import annotations

from fractions import Fraction

from . import Frozen
from .tolerance import ROUNDING_TOL, close


class SingleEigenvalue(ValueError):
    pass


class SpectrumMultiset(Frozen):
    """Eigenvalues with multiplicities, strictly increasing values."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[object, int], ...]) -> None:
        object.__setattr__(self, "entries", entries)
        vals = [v for v, _ in self.entries]
        for a, b in zip(vals, vals[1:]):
            if not a < b:
                raise ValueError("eigenvalues must be strictly increasing")
        if any(m < 1 for _, m in self.entries):
            raise ValueError("multiplicities must be positive")

    @classmethod
    def from_pairs(cls, pairs) -> "SpectrumMultiset":
        merged: dict = {}
        for v, m in pairs:
            merged[v] = merged.get(v, 0) + m
        return cls(tuple(sorted(merged.items(), key=lambda p: p[0])))

    @property
    def values(self) -> tuple:
        return tuple(v for v, _ in self.entries)

    def ordered_multiplicities(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.entries)


class MultiplicityList(Frozen):
    """Ordered multiplicity list; explicit zero placeholders are allowed and
    excluded from sums."""

    __slots__ = ("ordered",)

    def __init__(self, ordered: tuple[int, ...]) -> None:
        object.__setattr__(self, "ordered", ordered)
        if any(m < 0 for m in self.ordered):
            raise ValueError("multiplicities must be >= 0")

    def __len__(self) -> int:
        return len(self.ordered)


class GapVector(Frozen):
    """Rescaled gaps between consecutive distinct eigenvalues; positive, sum 1."""

    __slots__ = ("p",)

    def __init__(self, p: tuple) -> None:
        object.__setattr__(self, "p", p)
        if any(not x > 0 for x in self.p):
            raise ValueError("gaps must be strictly positive")
        if not close(sum(self.p), 1, ROUNDING_TOL):
            raise ValueError("gaps must sum to 1")

    def __len__(self) -> int:
        return len(self.p)


def gap_vector(spectrum: SpectrumMultiset) -> GapVector:
    """The gaps over the width; an int spectrum gives Fractions, a float
    one floats."""
    vals = spectrum.values
    if len(vals) < 2:
        raise SingleEigenvalue("gap vector needs at least two distinct eigenvalues")
    width = vals[-1] - vals[0]
    if type(width) is int:
        width = Fraction(width)
    return GapVector(tuple((b - a) / width for a, b in zip(vals, vals[1:])))
