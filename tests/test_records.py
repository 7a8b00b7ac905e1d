"""The package's value records are plain slotted classes on `Frozen`: they
compare, hash and print like the frozen dataclasses they replaced, refuse
assignment, and their constructors still run the old field checks."""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from hedge_iep import Frozen, covers
from hedge_iep.algebraic import QXi
from hedge_iep.covers import ForcingState, PathCover, path_cover_number
from hedge_iep.lambdas import LambdaTuple, build_C, sample_in_region
from hedge_iep.mpoly import MPolyQ
from hedge_iep.polys import PolyQ
from hedge_iep.pth import (
    CriticalWitness,
    RecognizeResult,
    SplittingCounterexample,
    ZeroOneReport,
    _levels,
    ph_construct,
)
from hedge_iep.repro import RunReport
from hedge_iep.rigid import RigidList, RigidSolution
from hedge_iep.spectra import GapVector, MultiplicityList, SpectrumMultiset
from hedge_iep.trees import (
    CycleDetected,
    HedgeProfile,
    PendentPath,
    RootedTree,
    SubtreeChain,
    is_lush,
    profile,
    ten_vertex_hedge,
)
from hedge_iep.weights import (
    BadSplit,
    CollapseResult,
    DuplicationSplit,
    NonPositiveEdgeWeight,
    WeightedMatrix,
    WeightFn,
)

HALF = Fraction(1, 2)
P2 = RootedTree((0, 1))


def _path_weight():
    return WeightFn(P2, {1: 0, 2: 1}, {(1, 2): 2})


#: class -> a function returning fresh constructor arguments, in field order
RECORDS = {
    PolyQ: lambda: ((1, 2),),
    LambdaTuple: lambda: (0, 1, -1, 2, 3),
    SpectrumMultiset: lambda: (((0, 1), (1, 2)),),
    MultiplicityList: lambda: ((2, 1, 0),),
    GapVector: lambda: ((HALF, HALF),),
    RootedTree: lambda: ((0, 1, 1),),
    HedgeProfile: lambda: (1, (1, 2), (2, 1)),
    PendentPath: lambda: ((3, 4), 1),
    SubtreeChain: lambda: (P2, (frozenset({1, 2}),)),
    WeightFn: lambda: (P2, {1: 0, 2: 1}, {(1, 2): 2}),
    WeightedMatrix: lambda: (P2, (0, 1), (2,), (2,)),
    DuplicationSplit: lambda: ((HALF, HALF),),
    CollapseResult: lambda: (_path_weight(), 0),
    PathCover: lambda: (((1, 2), (3,)),),
    ForcingState: lambda: (frozenset({1, 2}), {1: 2}),
    CriticalWitness: lambda: ((0, 1, None), (2, 1, 0), (1, 1, 0)),
    RecognizeResult: lambda: (LambdaTuple(0, 1), 1, _path_weight(), None),
    SplittingCounterexample: lambda: (LambdaTuple(0, 1), (2, 1), (1, 1), HALF, 2, 3),
    ZeroOneReport: lambda: ({1: 2}, (2, 1), False),
    RigidSolution: lambda: (QXi.of(1), LambdaTuple(0, 1), QXi.of(2), QXi.of(3), QXi.of(4), 1, {}),
    RigidList: lambda: ((2, 1), ((0.5, 2, "a"), (1.5, 1, "b"))),
}
#: the two exact scalars keep their own equality, hash and repr
SCALARS = {
    QXi: lambda: ((1, 2, 0, 0, 0, 0), 3),
    MPolyQ: lambda: ((((1, 0, 0), 2),), 3),
}
ALL = {**RECORDS, **SCALARS}


def _hashable(args) -> bool:
    try:
        hash(args)
    except TypeError:
        return False
    return True


def test_every_record_class_is_covered():
    classes = {c for c in Frozen.__subclasses__() if c.__module__.startswith("hedge_iep.")}
    assert classes == set(ALL) | {RunReport}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
def test_records_compare_hash_and_print_by_their_fields(cls):
    args = RECORDS[cls]()
    a, b = cls(*args), cls(*RECORDS[cls]())
    assert a == b and not a != b
    if _hashable(args):
        assert hash(a) == hash(b) == hash(args)
    else:  # a dict field, as in a frozen dataclass
        with pytest.raises(TypeError):
            hash(a)
    fields = cls._fields
    assert cls(**dict(zip(fields, args))) == a
    assert tuple(getattr(a, f) for f in fields) == args

    # a different class with the same fields and values is not equal
    twin = object.__new__(type(cls.__name__, (Frozen,), {"__slots__": fields}))
    for f, v in zip(fields, args):
        object.__setattr__(twin, f, v)
    assert a != twin and twin != a

    pairs = ", ".join(f"{f}={v!r}" for f, v in zip(fields, args))
    assert repr(a) == f"{cls.__name__}({pairs})"
    assert copy.copy(a) == a and copy.deepcopy(a) == a


@pytest.mark.parametrize("cls", list(ALL), ids=lambda c: c.__name__)
def test_records_refuse_assignment(cls):
    obj = cls(*ALL[cls]())
    first = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(obj, first, getattr(obj, first))
    with pytest.raises(AttributeError):
        delattr(obj, first)
    with pytest.raises(AttributeError):
        obj.not_a_field = 1


def test_a_rooted_tree_still_caches_its_properties():
    t = RootedTree((0, 1, 1))
    assert t.root == 1 and t.__dict__["root"] == 1
    assert t == RootedTree((0, 1, 1))


def test_the_tree_memo_stays_out_of_the_value():
    """What a round trip memoizes on a tree (its profile, lushness, child
    edge table, adjacency and path partition) changes none of its value
    semantics, and an equal tree computes its own."""
    t = ten_vertex_hedge()
    fresh = set(t.__dict__)
    before = (hash(t), repr(t), pickle.dumps(t))
    lam = LambdaTuple(*[float(x) for x in sample_in_region(1, np.random.default_rng(0)).values()])
    w = ph_construct(build_C(lam, 3), t)
    prof, lush, cover, levels = profile(t), is_lush(t), path_cover_number(t), _levels(w)
    # each structure is kept: asked again, the tree hands back the same object
    assert profile(t) is prof and t.child_edges is t.child_edges
    assert covers._adjacency(t) is covers._adjacency(t)
    assert covers._partition(t) is covers._partition(t)
    assert (hash(t), repr(t), pickle.dumps(t)) == before
    twin = RootedTree(t.parent)
    for other in (twin, copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert other == t and t == other and hash(other) == hash(t) and repr(other) == repr(t)
        assert set(other.__dict__) == fresh
    assert profile(twin) == prof and profile(twin) is not prof
    assert is_lush(twin) is lush and path_cover_number(twin) == cover
    assert twin.child_edges == t.child_edges and twin.child_edges is not t.child_edges
    assert covers._adjacency(twin) == covers._adjacency(t)
    assert covers._adjacency(twin) is not covers._adjacency(t)
    assert covers._partition(twin) == covers._partition(t)
    assert covers._partition(twin) is not covers._partition(t)
    assert _levels(WeightFn(twin, w.vertex_weight, w.edge_weight)) == levels


def test_the_run_report_stays_mutable_and_unhashable():
    report = RunReport("table1", 0)
    report.wall_time = 1.5
    report.check("ok", True)
    assert report.checks == [("ok", True, "")] and report.outputs == {}
    assert RunReport("table1", 0).checks is not RunReport("table1", 0).checks
    with pytest.raises(TypeError):
        hash(report)


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: RootedTree((2, 3, 1)), CycleDetected),
        (lambda: RootedTree((0, 3, 2)), CycleDetected),
        (lambda: LambdaTuple(0, None, -1), ValueError),
        (lambda: SpectrumMultiset(((1, 1), (0, 1))), ValueError),
        (lambda: WeightFn(P2, {1: 0, 2: 1}, {(1, 2): 0}), NonPositiveEdgeWeight),
        (lambda: DuplicationSplit((HALF, Fraction(1, 3))), BadSplit),
        (lambda: GapVector((HALF, Fraction(1, 3))), ValueError),
    ],
    ids=[
        "tree-no-root",
        "tree-cycle",
        "lambda-gap",
        "spectrum-order",
        "weight-edge",
        "split-sum",
        "gap-sum",
    ],
)
def test_constructors_keep_their_field_checks(make, error):
    with pytest.raises(error):
        make()
