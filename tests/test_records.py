"""The result records: every record class of the package.

Each derives from :class:`vacuum1d.errors.Record` with a written
``__init__``, and none is made by the ``dataclasses`` decorator.  Against
the dataclass that ``dataclasses.make_dataclass`` builds from the same
fields, each must construct, compare, hash, print, replace, match and
pickle the same way, and (all but the CLI's ``Table``) refuse to be
changed.  The dataclass protocol (``fields``, ``replace``, ``asdict``) is
built on first use.
"""

import copy
import dataclasses
import inspect
import math
import pickle
import sys

import numpy as np
import pytest

from vacuum1d import cylinder_kernel, energy_density_regularized, lattice_sum
from vacuum1d._reports import ApproximationReport, ApproximationRow, CylinderExpansion
from vacuum1d._reports import Theorem1Report
from vacuum1d.cli import Table
from vacuum1d.energy import EnergyBreakdown
from vacuum1d.errors import InvalidParameter, Record
from vacuum1d.kernels import KernelValue
from vacuum1d.orbits import DeltaAtom, GlobalDensity, LocalDensity
from vacuum1d.spectrum import DIRICHLET, NEUMANN, CountingDecomposition, HalfLine, Interval
from vacuum1d.spectrum import TwistedCircle
from vacuum1d.summation import SeriesControl, SeriesValue
from vacuum1d.verify import CheckResult

SV = SeriesValue(0.5 - 0.25j, 301, 2e-16, "abel")
ROW = ApproximationRow("total_energy", -0.125, -0.125, -0.0625)

# record type, field names in order, the defaults of today's fields,
# positional arguments (none equal to 9.0, the value the tests swap in)
CASES = [
    (
        EnergyBreakdown,
        ("weyl", "periodic", "boundary", "total_renormalized", "regulator_t", "note"),
        {"note": ""},
        (-0.25, 0.125, -0.5, -0.375, 0.1, "zero mode"),
    ),
    (KernelValue, ("value", "method", "terms_used", "truncation_bound"), {}, (0.75, "image-sum", 301, 1e-17)),
    (
        SeriesValue,
        ("value", "terms_used", "truncation_bound", "method_tag"),
        {},
        (0.5 - 0.25j, 301, 2e-16, "abel"),
    ),
    (
        SeriesControl,
        ("max_terms", "tol", "damping_t"),
        {"max_terms": 10_000, "tol": 1e-12, "damping_t": 0.0},
        (500, 1e-10, 0.25),
    ),
    (
        Interval,
        ("length", "left", "right"),
        {"left": DIRICHLET, "right": DIRICHLET},
        (2.0, NEUMANN, DIRICHLET),
    ),
    (HalfLine, ("condition",), {"condition": DIRICHLET}, (NEUMANN,)),
    (TwistedCircle, ("length", "theta"), {"theta": 0.0}, (2.0, 1.5)),
    (CountingDecomposition, ("omega", "weyl", "periodic", "boundary"), {}, (3.5, 2.2, 0.3, -0.5)),
    (DeltaAtom, ("weight", "location"), {"location": 0.0}, (0.25, 0.5)),
    (LocalDensity, ("average", "periodic", "boundary"), {}, (1 / math.pi, SV, SV)),
    (
        GlobalDensity,
        ("weyl", "periodic", "boundary", "boundary_atom"),
        {"boundary_atom": None},
        (1.0, SV, SV, DeltaAtom(0.25)),
    ),
    (CylinderExpansion, ("e", "d", "truncation_bound"), {}, ({0: 1.0, 2: 0.5}, 1, {0: 1e-16, 2: 1e-15})),
    (
        Theorem1Report,
        ("b0", "b1", "e0", "e1", "e2", "defect_e0", "defect_e1", "note"),
        {},
        (0.28, -0.5, 0.32, -0.5, 0.26, 1e-15, 2e-15, "e2 is invisible"),
    ),
    (
        ApproximationRow,
        ("quantity", "exact", "stationary_phase", "short_orbit"),
        {},
        ("density@0.25", -0.0625, -0.03125, -0.046875),
    ),
    (ApproximationReport, ("geometry", "xi", "rows"), {"rows": ()}, (Interval(1.0), 0.5, (ROW,))),
    (Table, ("meta", "columns", "rows"), {}, ({"command": "energy"}, ("x", "y"), [(1.0, 2.0)])),
    (
        CheckResult,
        ("name", "measured", "tolerance", "passed", "detail", "elapsed_s"),
        {},
        ("interval_dd_energy", 2e-16, 1e-12, True, "closed form vs mode sum", 0.01),
    ),
]
IDS = [case[0].__name__ for case in CASES]
FROZEN = [case for case in CASES if case[0] is not Table]


def generated(cls):
    """The dataclass that ``make_dataclass`` builds from the same fields."""
    fields = [
        (f.name, f.type) if f.default is dataclasses.MISSING else (f.name, f.type, f.default)
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=cls is not Table)


def hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def test_every_record_is_on_the_base():
    assert set(Record.__subclasses__()) == {case[0] for case in CASES} and len(CASES) == 17
    assert not dataclasses.is_dataclass(Record) and not hasattr(Record, "__dataclass_fields__")


@pytest.mark.parametrize("cls,names,defaults,args", CASES, ids=IDS)
def test_fields_types_defaults_and_signature(cls, names, defaults, args):
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(cls(*args))
    fields = dataclasses.fields(cls)
    assert tuple(f.name for f in fields) == names
    assert {f.name: f.type for f in fields} == cls.__annotations__
    assert {f.name: f.default for f in fields if f.default is not dataclasses.MISSING} == defaults
    assert all(f.default_factory is dataclasses.MISSING for f in fields)
    assert cls.__dataclass_params__.frozen is (cls is not Table)
    assert cls.__dataclass_params__.eq and not cls.__dataclass_params__.order
    params = inspect.signature(cls).parameters
    assert tuple(params) == names
    for f in fields:
        want = inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
        assert params[f.name].default == want
    ref = dataclasses.fields(generated(cls))
    assert [(f.name, f.type, f.default) for f in ref] == [(f.name, f.type, f.default) for f in fields]


@pytest.mark.parametrize("cls,names,defaults,args", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, names, defaults, args):
    rec, ref = cls(*args), generated(cls)(*args)
    assert rec == cls(**dict(zip(names, args)))
    assert tuple(getattr(rec, name) for name in names) == args
    assert dataclasses.astuple(rec) == dataclasses.astuple(ref)
    assert dataclasses.asdict(rec) == dataclasses.asdict(ref)


def test_defaults_fill_in():
    rec = EnergyBreakdown(1.0, 2.0, 3.0, 5.0, 0.1)
    assert rec.note == ""
    assert rec == EnergyBreakdown(1.0, 2.0, 3.0, 5.0, 0.1, "")
    assert EnergyBreakdown(1.0, 2.0, 3.0, 5.0, 0.1, note="x").note == "x"
    assert ApproximationReport(Interval(1.0), 0.5).rows == ()
    assert GlobalDensity(1.0, SV, SV).boundary_atom is None
    assert Interval(1.0) == Interval(1.0, DIRICHLET, DIRICHLET) and HalfLine().condition is DIRICHLET


@pytest.mark.parametrize("cls,names,defaults,args", CASES, ids=IDS)
def test_eq_hash_and_repr_match_the_generated_dataclass(cls, names, defaults, args):
    rec, ref = cls(*args), generated(cls)(*args)
    assert repr(rec) == repr(ref)
    assert rec == cls(*args)
    assert rec != cls(9.0, *args[1:])
    assert rec != ref  # a different class, as for any two dataclasses
    if cls is Table:
        assert cls.__hash__ is None and type(ref).__hash__ is None
    elif hashable(args):
        assert hash(rec) == hash(ref) == hash(args) == hash(cls(*args))
        assert len({rec, cls(*args)}) == 1
    else:  # a dict field, as CylinderExpansion's
        with pytest.raises(TypeError):
            hash(ref)
        with pytest.raises(TypeError):
            hash(rec)


def test_repr_is_pinned():
    assert repr(EnergyBreakdown(-0.25, 0.125, -0.5, -0.375, 0.1)) == (
        "EnergyBreakdown(weyl=-0.25, periodic=0.125, boundary=-0.5, "
        "total_renormalized=-0.375, regulator_t=0.1, note='')"
    )
    assert repr(KernelValue(0.75, "image-sum", 301, 1e-17)) == (
        "KernelValue(value=0.75, method='image-sum', terms_used=301, truncation_bound=1e-17)"
    )
    assert repr(SeriesValue(0.5, 3, 0.0, "raw")) == (
        "SeriesValue(value=0.5, terms_used=3, truncation_bound=0.0, method_tag='raw')"
    )
    assert repr(Interval(1.0)) == (
        "Interval(length=1.0, left=<BoundaryCondition.DIRICHLET: 'D'>, "
        "right=<BoundaryCondition.DIRICHLET: 'D'>)"
    )
    assert repr(HalfLine()) == "HalfLine(condition=<BoundaryCondition.DIRICHLET: 'D'>)"


@pytest.mark.parametrize("cls,names,defaults,args", CASES, ids=IDS)
def test_replace_makes_a_new_record(cls, names, defaults, args):
    rec = cls(*args)
    new = dataclasses.replace(rec, **{names[0]: 9.0})
    assert type(new) is cls
    assert getattr(new, names[0]) == 9.0 and getattr(rec, names[0]) == args[0]
    assert tuple(getattr(new, name) for name in names[1:]) == args[1:]
    assert rec.__replace__(**{names[0]: 9.0}) == new
    with pytest.raises(TypeError):
        dataclasses.replace(rec, no_such_field=1.0)
    with pytest.raises(TypeError):
        rec.__replace__(no_such_field=1.0)


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
@pytest.mark.parametrize("cls,names,defaults,args", CASES, ids=IDS)
def test_copy_replace_agrees_with_dataclasses_replace(cls, names, defaults, args):
    rec = cls(*args)
    assert copy.replace(rec, **{names[0]: 9.0}) == dataclasses.replace(rec, **{names[0]: 9.0})
    assert copy.replace(rec) == rec


def test_replace_runs_the_geometry_checks():
    with pytest.raises(InvalidParameter):
        dataclasses.replace(Interval(1.0), length=-1.0)
    with pytest.raises(InvalidParameter):
        Interval(1.0).__replace__(length=math.inf)
    with pytest.raises(InvalidParameter):
        dataclasses.replace(TwistedCircle(1.0), length=0.0)
    with pytest.raises(InvalidParameter):
        dataclasses.replace(SeriesControl(), tol=0.0)
    assert dataclasses.replace(TwistedCircle(1.0), theta=-1.0).theta == 2.0 * math.pi - 1.0
    assert dataclasses.replace(Interval(2.0), length=3)._domain == (0.0, 3.0)


@pytest.mark.parametrize("cls,names,defaults,args", FROZEN, ids=[case[0].__name__ for case in FROZEN])
def test_fields_cannot_be_set_or_deleted(cls, names, defaults, args):
    rec = cls(*args)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(rec, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(rec, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.extra = 1.0
    assert tuple(getattr(rec, name) for name in names) == args


def test_the_table_stays_mutable():
    table = Table({}, ("x",), [])
    table.rows = [(1.0,)]
    table.meta["command"] = "energy"
    assert table == Table({"command": "energy"}, ("x",), [(1.0,)])
    del table.rows
    assert not hasattr(table, "rows")


def test_a_subclass_keeps_the_record_fields():
    # as a dataclass's subclass without a decorator of its own does
    class Box(Interval):
        pass

    class Sheet(Table):
        pass

    rec = Box(2.0, NEUMANN)
    assert Box.__match_args__ == ("length", "left", "right")
    assert [f.name for f in dataclasses.fields(Box)] == ["length", "left", "right"]
    assert "__dataclass_fields__" not in Box.__dict__
    assert repr(rec) == f"{Box.__qualname__}{repr(Interval(2.0, NEUMANN))[len('Interval'):]}"
    assert rec == Box(2.0, NEUMANN) and rec != Box(3.0, NEUMANN) and rec != Interval(2.0, NEUMANN)
    assert hash(rec) == hash(Interval(2.0, NEUMANN)) and len({rec, Box(2.0, NEUMANN)}) == 1
    assert type(dataclasses.replace(rec, length=5.0)) is Box
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.length = 1.0
    sheet = Sheet({}, ("x",), [])
    sheet.rows = [(1.0,)]
    assert Sheet.__hash__ is None and sheet == Sheet({}, ("x",), [(1.0,)])


@pytest.mark.parametrize("cls,names,defaults,args", CASES, ids=IDS)
def test_pickle_round_trip(cls, names, defaults, args):
    rec = cls(*args)
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is cls and back == rec
    assert copy.copy(rec) == rec and copy.deepcopy(rec) == rec
    if hashable(args) and cls is not Table:
        assert hash(back) == hash(rec)


@pytest.mark.parametrize("cls,names,defaults,args", CASES, ids=IDS)
def test_match_args(cls, names, defaults, args):
    assert cls.__match_args__ == names == generated(cls).__match_args__
    match cls(*args):
        case cls(first):
            assert first == args[0]
        case _:
            raise AssertionError("no match")


def test_array_kernel_value_keeps_its_arrays():
    value, bound = np.linspace(0.0, 1.0, 5), np.full(5, 1e-16)
    rec = KernelValue(value, "mode-sum", 40, bound)
    assert rec.value is value and rec.truncation_bound is bound
    new = dataclasses.replace(rec, method="image-sum")
    assert new.value is value and new.truncation_bound is bound
    assert np.array_equal(rec.value, np.linspace(0.0, 1.0, 5))
    # and as the package builds them
    got = cylinder_kernel(Interval(1.0), 0.1, np.array([0.2, 0.4]), 0.5, method="image-sum")
    assert isinstance(got.value, np.ndarray) and got.value.shape == (2,)
    back = pickle.loads(pickle.dumps(got))
    assert np.array_equal(back.value, got.value) and np.array_equal(back.truncation_bound, got.truncation_bound)


def test_the_package_returns_the_records():
    assert type(energy_density_regularized(Interval(1.0), 0.1, 0.3)) is EnergyBreakdown
    assert type(cylinder_kernel(Interval(1.0), 0.1, 0.3, 0.5)) is KernelValue
    assert type(lattice_sum(1.0, 0.3, 0.05)) is SeriesValue
