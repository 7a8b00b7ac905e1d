"""Spectra as multisets, multiplicity lists and gap vectors."""

from __future__ import annotations

from dataclasses import dataclass

from .tolerance import ROUNDING_TOL, close


class SingleEigenvalue(ValueError):
    pass


@dataclass(frozen=True)
class SpectrumMultiset:
    """Eigenvalues with multiplicities, strictly increasing values."""

    entries: tuple[tuple[object, int], ...]

    def __post_init__(self) -> None:
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

    def as_sorted_list(self) -> list:
        out = []
        for v, m in self.entries:
            out.extend([v] * m)
        return out


@dataclass(frozen=True)
class MultiplicityList:
    """Ordered multiplicity list; explicit zero placeholders are allowed and
    excluded from sums."""

    ordered: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(m < 0 for m in self.ordered):
            raise ValueError("multiplicities must be >= 0")

    def __len__(self) -> int:
        return len(self.ordered)


@dataclass(frozen=True)
class GapVector:
    """Rescaled gaps between consecutive distinct eigenvalues; positive, sum 1."""

    p: tuple

    def __post_init__(self) -> None:
        if any(not x > 0 for x in self.p):
            raise ValueError("gaps must be strictly positive")
        if not close(sum(self.p), 1, ROUNDING_TOL):
            raise ValueError("gaps must sum to 1")

    def __len__(self) -> int:
        return len(self.p)


def gap_vector(spectrum: SpectrumMultiset) -> GapVector:
    vals = spectrum.values
    if len(vals) < 2:
        raise SingleEigenvalue("gap vector needs at least two distinct eigenvalues")
    width = vals[-1] - vals[0]
    return GapVector(tuple((b - a) / width for a, b in zip(vals, vals[1:])))
