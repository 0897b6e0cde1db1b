import hashlib
import random

import pytest

from rmcdp.io import instance_from_dict

from rmcdp.mip import build_mip, default_horizon, emit_lp
from rmcdp.model import Instance, ValidationError, total_trips
from rmcdp.schedule import check, evaluate, expand_consecutive

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

    def test_check_accepts_idle_the_model_forbids(self, example1):
        # Back-to-back loads 10 min apart at sites that unload for 20: check
        # accepts the trucks idling, the model's c_eq24 row does not.
        schedule = expand_consecutive(example1, (1, 1, 2, 2))
        assert check(example1, schedule).feasible
        assert evaluate(example1, schedule).truck_idle_total == 20 * MIN
        model = build_mip(example1, horizon=6)
        row = next(r for r in model.rows if r.name == "c_eq24_s1_j1")
        assert (model.terms(row), row.sense, row.rhs) == (((1, "T_s1_j1"),), ">=", 20)

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

