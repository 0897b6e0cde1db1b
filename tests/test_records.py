"""The result records are named tuples with the fields, defaults, ``repr``
and hash of the frozen dataclasses they replaced.

A frozen dataclass costs about 1 ms of import time per class, because
``dataclasses`` compiles each generated method, so only the three input
specs, which need ``__post_init__`` validation, stay dataclasses.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import rmcdp
from rmcdp.graphs import EnumerationResult, GreedyResult, GreedyStep, RmcdpGraph
from rmcdp.mip import MipModel, Row
from rmcdp.priority import PriorityResult, PrioritySearchStats
from rmcdp.schedule import (
    FeasibilityReport,
    ObjectiveReport,
    Schedule,
    SiteObjective,
    Violation,
)

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


def test_the_input_specs_are_the_only_dataclasses():
    found = set()
    for info in pkgutil.iter_modules(rmcdp.__path__, "rmcdp."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                if dataclasses.is_dataclass(obj):
                    found.add(name)
    assert found == {"DepotSpec", "SiteSpec", "Instance"}
