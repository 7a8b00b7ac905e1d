"""Path-to-hedge constructions and spectral rigidity on trees.

The public names load lazily (PEP 562): ``import hedge_iep`` imports no
submodule, and each name imports its defining module on first access, so
a cold process loads only what it uses.
"""

from importlib import import_module
from operator import attrgetter

__version__ = "0.1.0"


class Frozen:
    """Base of the package's immutable value records, with no generated code.

    A subclass lists its fields once, in ``__slots__`` (plus ``"__dict__"``
    if it caches properties).  It gets a constructor that takes them by
    position or by keyword, equality and a matching hash over the tuple of
    its fields, a ``Name(field=value, ...)`` repr and an AttributeError on
    assignment, as a frozen record of the standard library would; but
    nothing is compiled when a subclass is defined, so a cold process pays
    only for the class bodies.  A subclass writes its own ``__init__``
    (setting each field with ``object.__setattr__``) where it checks its
    fields or has defaults, and in the exact scalars ``PolyQ``, ``MPolyQ``
    and ``QXi``, which the exact engine builds in its inner loops."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        # each slot's own setter, which goes past the refusing __setattr__ below
        cls._setters = tuple(getattr(cls, f).__set__ for f in fields)
        get = attrgetter(*fields)  # the bare value when there is one field
        cls._values = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):  # bind as a call binds its arguments
            values = dict(zip(fields, args))
            if len(args) > len(fields) or kwargs.keys() & values or {*values, *kwargs} != {*fields}:
                raise TypeError(
                    f"{self.__class__.__qualname__}() takes {', '.join(fields)}; got {len(args)}"
                    f" by position and {', '.join(kwargs) or 'none'} by keyword"
                )
            args = tuple({**values, **kwargs}[f] for f in fields)
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: {self.__class__.__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {self.__class__.__name__} is frozen")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which rechecks the fields
        return self.__class__, self._values(self)


#: defining submodule -> the public names it exports through the package
_EXPORTS = {
    "algebraic": ("QXi",),
    "covers": (
        "ForcingState",
        "M_formula",
        "Mhat_formula",
        "PathCover",
        "brute_force_path_cover",
        "brute_force_zero_forcing",
        "derived_set",
        "forcing_process",
        "nullity_bound_check",
        "path_cover_number",
        "sigma_counts",
        "zero_forcing_number",
    ),
    "lambdas": (
        "LambdaTuple",
        "abc_coefficients",
        "build_C",
        "region_of",
        "remainder_poly",
        "sample_in_region",
        "step_lemma_checks",
    ),
    "numeric": ("char_poly_exact", "cluster_multiplicities", "eigenvalues_sym"),
    "pth": (
        "critical_check",
        "forced_fifth_eigenvalue",
        "gap_vector",
        "ph_construct",
        "ph_spectrum",
        "recognize",
        "recognize_search",
        "splitting_counterexample",
        "t31_constraints_check",
        "t31_exact_spectrum",
        "t31_lambda",
        "zero_one_counterexample_check",
    ),
    "rigid": (
        "level_figure_data",
        "rigid_multiplicity_list",
        "simplify_resultant",
        "solve_rigid",
    ),
    "spectra": ("GapVector", "MultiplicityList", "SpectrumMultiset"),
    "trees": (
        "HedgeProfile",
        "RootedTree",
        "ten_vertex_hedge",
        "build_hedge",
        "is_hedge",
        "is_lush",
        "pendent_paths",
        "profile",
        "smallest_lush_hedge",
        "subtree_chain",
    ),
    "weights": (
        "DuplicationSplit",
        "WeightFn",
        "WeightedMatrix",
        "collapse_pendent_k_paths",
        "duplicate_branch",
        "symmetric_representative",
        "unit_lower_representative",
    ),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
