import hashlib
import random

import pytest

from rmcdp.io import instance_from_dict

from rmcdp.mip import (
    build_mip,
    default_horizon,
    emit_lp,
    encode_schedule,
    optimality_gap,
    validate_solution,
)
from rmcdp.model import Instance, ValidationError, total_trips
from rmcdp.priority import priority_solve
from rmcdp.schedule import TripId, expand_consecutive

from conftest import random_instance, reference_lp, replace

MIN = 60

#: Loading, haul, unload and requested start off the whole minute.
FRACTIONAL_MINUTES = {
    "depot": {"start": "7:35", "plant_capacity": 10, "productivity": 90,
              "truck_capacity": 10, "gamma": 90},
    "sites": [
        {"id": 1, "demand": 25, "distance": 12.5, "speed": 60, "unload": 12.5,
         "proposed_start": "8:10"},
        {"id": 2, "demand": 18, "distance": 7, "speed": 40, "unload": 20,
         "proposed_start": 490.5},
    ],
}


def one_minute_slots(instance: Instance, start: int) -> Instance:
    """``instance`` with 1-minute loading from a depot opening at ``start``
    (seconds), every requested start moved with the opening."""
    depot = replace(instance.depot, start_time=start, productivity=600)
    shift = start - instance.depot.start_time
    sites = tuple(
        replace(site, proposed_start=site.proposed_start + shift)
        for site in instance.sites
    )
    return Instance(depot=depot, sites=sites)


class TestBuildMip:
    def test_default_horizon_is_twice_trip_count(self, example1):
        model = build_mip(example1)
        assert model.horizon == default_horizon(example1) == 8

    def test_binary_and_row_counts(self, example1):
        model = build_mip(example1, horizon=6)
        assert model.binary_count == 24
        assert len(model.rows) == 30

    def test_large_instance_binary_count(self, instance1):
        model = build_mip(instance1, horizon=32)
        assert model.binary_count == 800

    def test_horizon_must_cover_all_trips(self, example1):
        with pytest.raises(ValidationError):
            build_mip(example1, horizon=total_trips(example1) - 1)

    def test_pour_window_row(self, example1):
        model = build_mip(example1, horizon=6)
        row = next(r for r in model.rows if r.name == "c_eq25_s1_j1")
        assert row.sense == "<="
        assert row.rhs == 90
        assert model.terms(row) == ((1, "T_s1_j1"),)

    def test_row_families_cover_every_trip(self, example1):
        model = build_mip(example1, horizon=6)
        names = [r.name for r in model.rows]
        # One row of each per-pair family for each consecutive trip pair,
        # one per-trip row for each remaining family, one slot row per slot
        # and one coverage row per trip.
        for fam in ("c_eq22", "c_eq23", "c_eq24", "c_eq25"):
            assert sum(n.startswith(fam) for n in names) == 2
        for fam in ("c_eq26", "c_eq27", "c_eq28"):
            assert sum(n.startswith(fam) for n in names) == 4
        assert sum(n.startswith("c_eq29") for n in names) == 6
        assert sum(n.startswith("c_eq30") for n in names) == 4

    def test_variable_names(self, example1):
        model = build_mip(example1, horizon=6)
        assert "ks_s1_j1" in model.continuous
        assert "kd_s2_j2" in model.continuous
        assert "Wf_s1" in model.continuous
        assert "X_t6_s2_j2" in model.binaries


class TestLpText:
    def test_section_order(self, example1):
        text = emit_lp(build_mip(example1, horizon=6))
        lines = [l for l in text.splitlines() if l and not l.startswith(" ")]
        assert lines == ["Minimize", "Subject To", "Bounds", "Binary", "End"]

    def test_emission_is_deterministic(self, example1):
        a = emit_lp(build_mip(example1, horizon=6))
        b = emit_lp(build_mip(example1, horizon=6))
        assert a == b

    def test_round_trip_on_large_instance(self, instance1):
        model = build_mip(instance1, horizon=32)
        assert emit_lp(model) == reference_lp(model)

    def test_round_trip_on_instance2(self, instance2):
        model = build_mip(instance2)
        assert emit_lp(model) == reference_lp(model)

    def test_fractional_minutes_round_trip(self):
        model = build_mip(instance_from_dict(FRACTIONAL_MINUTES))
        text = emit_lp(model)
        assert " c_eq27_s1_j1: ks_s1_j1 - kd_s1_j1 = 19.166666666666668\n" in text
        assert text == reference_lp(model)

    @pytest.mark.parametrize(
        "start, first_slots",
        [
            # Slot times 0 and 1 min: a coefficient the writer prints as "0",
            # then one it leaves out.
            (0, "0 X_t1_s1_j1 + X_t2_s1_j1 + 2 X_t3_s1_j1"),
            (60, "X_t1_s1_j1 + 2 X_t2_s1_j1 + 3 X_t3_s1_j1"),
            (23 * 3600, "1380 X_t1_s1_j1 + 1381 X_t2_s1_j1 + 1382 X_t3_s1_j1"),
        ],
    )
    def test_one_minute_slots_match_reference_writer(self, start, first_slots):
        instance = one_minute_slots(random_instance(random.Random(3)), start)
        model = build_mip(instance, total_trips(instance) + 2)
        text = emit_lp(model)
        assert f" c_eq28_s1_j1: {first_slots} + " in text
        assert text == reference_lp(model)

    def test_matches_reference_writer_on_drawn_instances(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None, database=None)
        @hypothesis.given(
            rng=st.randoms(use_true_random=False),
            extra=st.integers(0, 4),
            start=st.sampled_from((None, 0, 60, 23 * 3600)),
        )
        def matches(rng, extra, start):
            instance = random_instance(rng)
            if start is not None:
                instance = one_minute_slots(instance, start)
            model = build_mip(instance, total_trips(instance) + extra)
            text = emit_lp(model)
            assert text == reference_lp(model)

        matches()

    @pytest.mark.parametrize(
        "name, horizon, digest",
        [
            ("example-1", 6,
             "7e63cc60dff96a37ec79b512db2c5c3eaf33dc3b6a19061e9c985c0e17b55c6f"),
            ("instance-1", 32,
             "06db1232f7e0213f8250cf0f3bdf65848acfbdb0d89c58d52635644c3b851876"),
            ("instance-2", None,
             "2fe23dc65e2849eea6c899bc9a9015f32cdcdbbef3c8184e19750c1c503de534"),
            ("fractional-minutes", None,
             "19e3359d32e1e23de1740d5b90f99d838807fd025851e226192cb1e0b6b798fc"),
        ],
    )
    def test_lp_bytes_pinned(self, request, name, horizon, digest):
        # SHA-256 of the LP text as first written from exact fractions.
        if name == "fractional-minutes":
            instance = instance_from_dict(FRACTIONAL_MINUTES)
        else:
            instance = request.getfixturevalue(name.replace("-", ""))
        text = emit_lp(build_mip(instance, horizon))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestValidateSolution:
    def test_reference_schedule_is_feasible(self, example1):
        schedule = expand_consecutive(example1, (1, 2, 1, 2))
        assignment = encode_schedule(example1, 6, schedule)
        report, objective = validate_solution(example1, 6, assignment)
        assert report.feasible
        assert objective == 60 * MIN

    def test_golden_schedule_is_feasible(self, instance1, golden_schedule):
        assignment = encode_schedule(instance1, 32, golden_schedule)
        report, objective = validate_solution(instance1, 32, assignment)
        assert report.feasible
        assert objective == 195 * MIN

    def test_empty_assignment_reports_coverage(self, example1):
        schedule = expand_consecutive(example1, (1, 2, 1, 2))
        assignment = {k: 0.0 for k in encode_schedule(example1, 6, schedule)}
        report, objective = validate_solution(example1, 6, assignment)
        assert not report.feasible
        assert objective is None
        assert {v.kind for v in report.violations} == {"coverage"}

    def test_double_booked_slot_reported(self, example1):
        schedule = expand_consecutive(example1, (1, 2, 1, 2))
        assignment = encode_schedule(example1, 6, schedule)
        taken = [k for k, v in assignment.items()
                 if k.startswith("X_t") and v == 1.0]
        slot1 = taken[0].split("_")[1]
        other = next(k for k in taken if not k.startswith(f"X_{slot1}_"))
        assignment[other] = 0.0
        assignment[f"X_{slot1}_" + "_".join(other.split("_")[2:])] = 1.0
        report, _ = validate_solution(example1, 6, assignment)
        assert any(v.kind == "slot_conflict" for v in report.violations)

    def test_names_outside_the_model_ignored(self, example1):
        schedule = expand_consecutive(example1, (1, 2, 1, 2))
        assignment = encode_schedule(example1, 6, schedule)
        outside = ("X_t7_s1_j1", "X_t0_s1_j1", "X_t05_s1_j1", "X_t5_s9_j1",
                   "X_t5_s1_j3", "X_t5_s1", "X_t5_s1_j1_k1", "Y_t5_s1_j1")
        assignment.update({name: 1.0 for name in outside}, note="text")
        report, objective = validate_solution(example1, 6, assignment)
        assert report.feasible
        assert objective == 60 * MIN

    def test_short_horizon_rejected(self, example1):
        with pytest.raises(ValidationError, match="horizon"):
            validate_solution(example1, total_trips(example1) - 1, {})

    def test_trip_in_two_slots_reported(self, example1):
        schedule = expand_consecutive(example1, (1, 2, 1, 2))
        assignment = encode_schedule(example1, 6, schedule)
        assignment["X_t5_s1_j1"] = 1.0
        report, objective = validate_solution(example1, 6, assignment)
        assert objective is None
        assert [(v.kind, v.trips, v.measured) for v in report.violations] == [
            ("coverage", (TripId(1, 1),), 2)
        ]

    def test_dropped_trip_and_slot_clash_both_reported(self, example1):
        schedule = expand_consecutive(example1, (1, 2, 1, 2))
        assignment = encode_schedule(example1, 6, schedule)
        # Trip (2, 2) leaves slot 4 for slot 1, which trip (1, 1) holds, and
        # trip (1, 2) is dropped.
        assignment["X_t4_s2_j2"] = 0.0
        assignment["X_t1_s2_j2"] = 1.0
        assignment["X_t3_s1_j2"] = 0.0
        report, objective = validate_solution(example1, 6, assignment)
        assert objective is None
        assert [(v.kind, v.trips, v.measured) for v in report.violations] == [
            ("coverage", (TripId(1, 2),), 0),
            ("slot_conflict", (TripId(1, 1), TripId(2, 2)), 2),
        ]
        assert "c_eq30" in report.violations[0].detail
        assert "c_eq29" in report.violations[1].detail

    def test_gap_below_unloading_time_reported(self, example1):
        # Back-to-back loads 10 min apart at a site that unloads for 20:
        # check accepts the truck idling, the model's c_eq24 row does not.
        schedule = expand_consecutive(example1, (1, 1, 2, 2))
        assignment = encode_schedule(example1, 6, schedule)
        report, objective = validate_solution(example1, 6, assignment)
        assert objective is None
        found = [(v.kind, v.trips, v.measured, v.bound, v.detail) for v in report.violations]
        assert found == [
            ("model_row", (TripId(1, 1), TripId(1, 2)), 10 * MIN, 20 * MIN,
             "c_eq24_s1_j1: gap below unloading time"),
            ("model_row", (TripId(2, 1), TripId(2, 2)), 10 * MIN, 20 * MIN,
             "c_eq24_s2_j1: gap below unloading time"),
        ]

    @pytest.mark.parametrize("seed", range(10))
    def test_idle_free_schedules_always_validate(self, seed):
        rng = random.Random(seed)
        instance = random_instance(rng)
        result = priority_solve(instance)
        if result.schedule is None:
            return
        lt = instance.depot.loading_time
        max_slot = max(
            (e.depot_start - instance.depot.start_time) // lt + 1
            for e in result.schedule.entries
        )
        horizon = max(default_horizon(instance), max_slot)
        assignment = encode_schedule(instance, horizon, result.schedule)
        report, objective = validate_solution(instance, horizon, assignment)
        assert report.feasible
        assert objective == result.stats.best_objective


class TestOptimalityGap:
    def test_reference_gap(self):
        assert optimality_gap(869, 885) == pytest.approx(1.81, abs=0.01)

    def test_zero_gap(self):
        assert optimality_gap(100, 100) == 0.0
