"""The result records are named tuples with the fields, defaults, ``repr``
and hash of the frozen dataclasses they replaced; the three input specs are
plain classes that compare, hash, print and refuse assignment as those
dataclasses did.

A frozen dataclass costs about 1 ms of import time per class, because
``dataclasses`` compiles each generated method, so no class in the package
is one.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import rmcdp
from rmcdp.graphs import EnumerationResult, GreedyResult, GreedyStep, RmcdpGraph
from rmcdp.mip import MipModel, Row
from rmcdp.model import DEFAULT_GAMMA, DepotSpec, Instance, SiteSpec
from rmcdp.priority import PriorityResult, PrioritySearchStats
from rmcdp.schedule import (
    FeasibilityReport,
    ObjectiveReport,
    Schedule,
    SiteObjective,
    Violation,
)

from conftest import replace

#: Each record and its fields in the order the dataclass declared them.
RECORDS = [
    (Schedule, ("entries",)),
    (Violation, ("kind", "trips", "measured", "bound", "detail")),
    (FeasibilityReport, ("feasible", "violations")),
    (SiteObjective, ("first_wait", "inter_trip_wait", "truck_idle")),
    (ObjectiveReport, ("first_wait_total", "inter_trip_wait_total",
                       "truck_idle_total", "trucks_required", "per_site")),
    (RmcdpGraph, ("instance", "labels")),
    (GreedyStep, ("chosen_label", "costs")),
    (GreedyResult, ("sequence", "schedule", "report", "steps")),
    (EnumerationResult, ("schedule", "sequence", "objective", "visited",
                         "feasible_count", "states")),
    (PrioritySearchStats, ("permutations_created", "feasible_count",
                           "best_objective", "runtime", "states", "memo_hits")),
    (PriorityResult, ("schedule", "permutation", "sequence", "stats")),
    (Row, ("name", "cols", "coefs", "sense", "rhs")),
    (MipModel, ("horizon", "names", "first_binary", "objective", "rows")),
]

#: The only field default.  None is mutable: a named tuple would share one
#: default object between all its records.
DEFAULTS = {Violation: {"detail": ""}}


def sample(cls):
    """A record of ``cls`` whose fields are distinct hashable values."""
    return cls(*(f"v{i}" for i in range(len(cls._fields))))


@pytest.mark.parametrize("cls, names", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
class TestRecordContract:
    def test_field_order_and_defaults(self, cls, names):
        assert cls._fields == names
        assert cls._field_defaults == DEFAULTS.get(cls, {})

    def test_fields_are_read_only(self, cls, names):
        record = sample(cls)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        with pytest.raises(AttributeError):
            record.extra = 0

    def test_hash_is_the_tuple_hash(self, cls, names):
        record = sample(cls)
        assert hash(record) == hash(tuple(record))
        assert record == tuple(record)

    def test_repr_names_each_field(self, cls, names):
        record = sample(cls)
        assert repr(record).startswith(f"{cls.__name__}({names[0]}=")
        assert repr(record) == (
            f"{cls.__name__}("
            + ", ".join(f"{name}={value!r}" for name, value in zip(names, record))
            + ")"
        )


def test_no_class_is_a_dataclass():
    found = set()
    for info in pkgutil.iter_modules(rmcdp.__path__, "rmcdp."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                if dataclasses.is_dataclass(obj):
                    found.add(name)
    assert found == set()


def specs():
    """One of each input spec, every field set to a value of its own."""
    depot = DepotSpec(28800, 10, 120, 10, 18, 5400)
    site = SiteSpec(1, 50, 30, 60, 1500, 28800, 4800)
    return [depot, site, Instance(depot, (site,))]


def changed(spec):
    """``spec`` with one field changed, still valid."""
    if type(spec) is Instance:
        return replace(spec, depot=changed(spec.depot))
    return replace(spec, **{"truck_count": 17} if type(spec) is DepotSpec else {"demand": 40})


@pytest.mark.parametrize("spec", specs(), ids=lambda spec: type(spec).__name__)
class TestSpecContract:
    """Each spec behaves as the frozen dataclass of its fields, built here
    with ``dataclasses.make_dataclass``, on the same values."""

    def frozen_twin(self, spec):
        cls = dataclasses.make_dataclass(type(spec).__name__, spec._fields, frozen=True)
        return cls(*(getattr(spec, name) for name in spec._fields))

    def test_repr_and_hash_are_the_dataclass_ones(self, spec):
        twin = self.frozen_twin(spec)
        assert repr(spec) == repr(twin)
        assert hash(spec) == hash(twin)

    def test_equal_by_fields_and_class(self, spec):
        copy = replace(spec)
        assert copy is not spec and copy == spec and hash(copy) == hash(spec)
        assert spec != self.frozen_twin(spec)
        subclass = type("Sub", (type(spec),), {})
        assert spec != subclass(**{name: getattr(spec, name) for name in spec._fields})
        assert spec != tuple(getattr(spec, name) for name in spec._fields)
        assert changed(spec) != spec

    def test_fields_are_read_only(self, spec):
        for name in spec._fields:
            with pytest.raises(AttributeError):
                setattr(spec, name, 0)
            with pytest.raises(AttributeError):
                delattr(spec, name)
        with pytest.raises(AttributeError):
            spec.extra = 0
        assert not hasattr(spec, "extra")


def test_spec_defaults_and_keywords():
    depot = DepotSpec(start_time=0, plant_capacity=1, productivity=60, truck_capacity=1)
    assert (depot.truck_count, depot.gamma) == (None, DEFAULT_GAMMA)
    site = SiteSpec(id=1, demand=1, distance=0, speed=1, unload_time=60, proposed_start=0)
    assert site.gamma_override is None
    assert Instance(sites=(site,), depot=depot).sites == (site,)
