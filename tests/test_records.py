"""The hot result records: EnergyBreakdown, KernelValue and SeriesValue.

Each is a frozen dataclass with a written ``__init__`` (cheaper than the
generated one).  Against the generated frozen dataclass of the same
fields, each must construct, compare, hash, print, replace and pickle
the same way, and refuse to be changed.
"""

import dataclasses
import inspect
import pickle

import numpy as np
import pytest

from vacuum1d import cylinder_kernel, energy_density_regularized, lattice_sum
from vacuum1d.energy import EnergyBreakdown
from vacuum1d.kernels import KernelValue
from vacuum1d.spectrum import Interval
from vacuum1d.summation import SeriesValue

# record type, field names in order, positional arguments
CASES = [
    (
        EnergyBreakdown,
        ("weyl", "periodic", "boundary", "total_renormalized", "regulator_t", "note"),
        (-0.25, 0.125, -0.5, -0.375, 0.1, "zero mode"),
    ),
    (KernelValue, ("value", "method", "terms_used", "truncation_bound"), (0.75, "image-sum", 301, 1e-17)),
    (SeriesValue, ("value", "terms_used", "truncation_bound", "method_tag"), (0.5 - 0.25j, 301, 2e-16, "abel")),
]
IDS = [case[0].__name__ for case in CASES]


def generated(cls):
    """The frozen dataclass that the decorator would have made, same fields."""
    fields = [
        (f.name, f.type) if f.default is dataclasses.MISSING else (f.name, f.type, f.default)
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


@pytest.mark.parametrize("cls,names,args", CASES, ids=IDS)
def test_fields_and_signature_are_unchanged(cls, names, args):
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    params = inspect.signature(cls).parameters
    assert tuple(params) == names
    for f in dataclasses.fields(cls):
        want = inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default
        assert params[f.name].default == want


@pytest.mark.parametrize("cls,names,args", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, names, args):
    rec = cls(*args)
    assert rec == cls(**dict(zip(names, args)))
    assert tuple(getattr(rec, name) for name in names) == args
    assert dataclasses.astuple(rec) == args
    assert dataclasses.asdict(rec) == dict(zip(names, args))


def test_energy_breakdown_note_defaults_to_empty():
    rec = EnergyBreakdown(1.0, 2.0, 3.0, 5.0, 0.1)
    assert rec.note == ""
    assert rec == EnergyBreakdown(1.0, 2.0, 3.0, 5.0, 0.1, "")
    assert EnergyBreakdown(1.0, 2.0, 3.0, 5.0, 0.1, note="x").note == "x"


@pytest.mark.parametrize("cls,names,args", CASES, ids=IDS)
def test_eq_hash_and_repr_match_the_generated_dataclass(cls, names, args):
    rec, ref = cls(*args), generated(cls)(*args)
    assert repr(rec) == repr(ref)
    assert hash(rec) == hash(ref) == hash(args)
    assert rec == cls(*args) and hash(rec) == hash(cls(*args))
    assert rec != cls(*(args[:2] + (args[2] * 2,) + args[3:]))
    assert rec != ref  # a different class, as for any two dataclasses
    assert len({rec, cls(*args)}) == 1


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


@pytest.mark.parametrize("cls,names,args", CASES, ids=IDS)
def test_replace_makes_a_new_record(cls, names, args):
    rec = cls(*args)
    new = dataclasses.replace(rec, **{names[0]: 9.0})
    assert type(new) is cls
    assert getattr(new, names[0]) == 9.0 and getattr(rec, names[0]) == args[0]
    assert dataclasses.astuple(new)[1:] == args[1:]
    with pytest.raises(TypeError):
        dataclasses.replace(rec, no_such_field=1.0)


@pytest.mark.parametrize("cls,names,args", CASES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, names, args):
    rec = cls(*args)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(rec, name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.extra = 1.0
    assert dataclasses.astuple(rec) == args


@pytest.mark.parametrize("cls,names,args", CASES, ids=IDS)
def test_pickle_round_trip(cls, names, args):
    rec = cls(*args)
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is cls and back == rec and hash(back) == hash(rec)


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
