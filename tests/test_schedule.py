import random
from collections import Counter

import pytest

from rmcdp.model import InputError, ValidationError, trips_for_site
from rmcdp.schedule import (
    Schedule,
    ScheduleEntry,
    TripId,
    check,
    evaluate,
    expand_consecutive,
    schedule_from_slots,
    trucks_required,
)

from conftest import random_instance

MIN = 60


def delivered(entries):
    """Load of each trip: the steps of ``cumulative_delivered``."""
    cumulative = [e.cumulative_delivered for e in entries]
    return [b - a for a, b in zip([0.0] + cumulative, cumulative)]


class TestExpandConsecutive:
    def test_entries_follow_back_to_back_loading(self, example1):
        schedule = expand_consecutive(example1, (1, 2, 1, 2))
        lt = example1.depot.loading_time
        starts = sorted(e.depot_start for e in schedule.entries)
        assert starts == [
            example1.depot.start_time + k * lt for k in range(4)
        ]

    def test_arrival_and_departure(self, example1):
        schedule = expand_consecutive(example1, (1, 2, 1, 2))
        first = schedule.entries[0]
        site = example1.sites[0]
        assert first.site_arrival == first.depot_start + example1.depot.loading_time + site.haul_time
        assert first.site_departure == first.site_arrival + site.unload_time

    def test_delivered_amounts_cover_demand(self, example1):
        schedule = expand_consecutive(example1, (1, 2, 1, 2))
        for site in example1.sites:
            entries = schedule.by_site()[site.id]
            assert sum(delivered(entries)) == site.demand
            assert entries[-1].cumulative_delivered == site.demand

    def test_partial_final_load(self):
        rng = random.Random(0)
        for _ in range(20):
            instance = random_instance(rng)
            sequence = []
            for site in instance.sites:
                sequence += [site.id] * trips_for_site(
                    site.demand, instance.depot.truck_capacity
                )
            schedule = expand_consecutive(instance, tuple(sequence))
            for site in instance.sites:
                entries = schedule.by_site()[site.id]
                loads = delivered(entries)
                assert all(d == instance.depot.truck_capacity for d in loads[:-1])
                assert sum(loads) == site.demand

    def test_wrong_multiset_rejected(self, example1):
        with pytest.raises(InputError):
            expand_consecutive(example1, (1, 1, 1, 2))

    def test_unknown_site_rejected(self, example1):
        with pytest.raises(InputError):
            expand_consecutive(example1, (1, 2, 1, 7))

    def test_dispatch_sequence_round_trip(self, example1):
        schedule = expand_consecutive(example1, (2, 1, 2, 1))
        assert schedule.dispatch_sequence() == (2, 1, 2, 1)


class TestScheduleFromSlots:
    def test_slot_loads_at_depot_start_plus_loading_times(self, instance1):
        # Slots 1, 4, 7, ...: the first slot and slots with gaps between them.
        depot = instance1.depot
        slots = {trip: 3 * k + 1 for k, trip in enumerate(instance1.trips)}
        schedule = schedule_from_slots(instance1, slots)
        assert [e.trip for e in schedule.entries] == sorted(slots)
        for entry in schedule.entries:
            slot = slots[entry.trip]
            assert entry.depot_start == depot.start_time + (slot - 1) * depot.loading_time


class TestCheck:
    def test_feasible_sequence(self, example1):
        schedule = expand_consecutive(example1, (1, 2, 1, 2))
        report = check(example1, schedule)
        assert report.feasible
        assert report.violations == ()

    def test_gamma_violation_reports_gap(self, example1):
        # Consecutive same-site trips leave a 10-minute unattended gap at
        # site 1; a 20-minute on-site window cannot absorb the 30-minute
        # spacing between arrivals.
        schedule = expand_consecutive(example1, (1, 2, 2, 1))
        report = check(example1, schedule, gamma_override=20 * MIN)
        kinds = {v.kind for v in report.violations}
        assert not report.feasible
        assert "gamma_exceeded" in kinds
        violation = next(v for v in report.violations if v.kind == "gamma_exceeded")
        assert violation.measured == 30 * MIN
        assert violation.bound == 20 * MIN

    @pytest.mark.parametrize("gamma", [0, -MIN])
    def test_nonpositive_gamma_override_refused(self, example1, gamma):
        schedule = expand_consecutive(example1, (1, 2, 1, 2))
        with pytest.raises(
            ValidationError, match="^gamma_override: must be positive when given$"
        ):
            check(example1, schedule, gamma_override=gamma)

    def test_truck_limit_violation(self, instance1, golden_schedule):
        report = check(instance1, golden_schedule, truck_limit=16)
        assert not report.feasible
        assert any(v.kind == "truck_overrun" for v in report.violations)
        report17 = check(instance1, golden_schedule, truck_limit=17)
        assert report17.feasible

    def test_slot_conflict_detected(self, example1):
        base = expand_consecutive(example1, (1, 2, 1, 2))
        entries = list(base.entries)
        clash = entries[1]
        entries[1] = type(clash)(
            trip=clash.trip,
            depot_start=entries[0].depot_start,
            site_arrival=clash.site_arrival,
            site_departure=clash.site_departure,
            cumulative_delivered=clash.cumulative_delivered,
        )
        conflicted = type(base)(entries=tuple(entries))
        report = check(example1, conflicted)
        assert any(v.kind == "slot_conflict" for v in report.violations)

    def test_missing_trip_is_coverage_violation(self, example1):
        base = expand_consecutive(example1, (1, 2, 1, 2))
        truncated = type(base)(entries=base.entries[:-1])
        report = check(example1, truncated)
        assert any(v.kind == "coverage" for v in report.violations)


class TestEvaluate:
    def test_waits_for_interleaved_sequence(self, example1):
        schedule = expand_consecutive(example1, (1, 2, 1, 2))
        objective = evaluate(example1, schedule)
        assert objective.total_site_wait == 60 * MIN
        assert objective.truck_idle_total == 0

    def test_waits_for_blocked_sequence(self, example1):
        # Site order (1,1,2,2): the second trip to each site arrives only
        # 10 minutes after the first, so trucks idle while sites still wait
        # for their openings.
        schedule = expand_consecutive(example1, (1, 1, 2, 2))
        objective = evaluate(example1, schedule)
        assert objective.total_site_wait == 70 * MIN
        assert objective.truck_idle_total == 20 * MIN

    def test_first_wait_is_arrival_minus_proposed(self, example1):
        schedule = expand_consecutive(example1, (1, 2, 1, 2))
        objective = evaluate(example1, schedule)
        site1 = objective.per_site[1]
        entry = schedule.by_site()[1][0]
        assert site1.first_wait == entry.site_arrival - example1.sites[0].proposed_start

    def test_incomplete_schedule_rejected(self, example1):
        base = expand_consecutive(example1, (1, 2, 1, 2))
        truncated = type(base)(entries=base.entries[:2])
        with pytest.raises(InputError):
            evaluate(example1, truncated)


class TestTrucksRequired:
    def test_golden_schedule_needs_17(self, instance1, golden_schedule):
        assert trucks_required(instance1, golden_schedule) == 17

    def test_single_trip_needs_one_truck(self, example1):
        base = expand_consecutive(example1, (1, 2, 1, 2))
        single = type(base)(entries=base.entries[:1])
        assert trucks_required(example1, single) == 1

    def test_window_is_inclusive(self, example1):
        # Loadings exactly gamma apart share a truck-availability window.
        base = expand_consecutive(example1, (1, 2, 1, 2))
        assert trucks_required(example1, base) == 4


class TestTripId:
    def test_ordering(self):
        assert TripId(1, 2) < TripId(2, 1)
        assert TripId(1, 1) < TripId(1, 2)

    def test_hashable(self):
        assert len({TripId(1, 1), TripId(1, 1), TripId(2, 1)}) == 2


class TestRecordContract:
    """``TripId`` and ``ScheduleEntry`` are named tuples: they hash, order
    and print as records of their fields, are read-only, and equal plain
    tuples."""

    def test_trip_hash_is_its_tuple_hash(self):
        for site_id, index in ((1, 1), (3, 7), (12, 2), (10**20, 5)):
            trip = TripId(site_id, index)
            assert hash(trip) == hash((site_id, index))
            assert trip == (site_id, index)
            assert tuple(trip) == (site_id, index)

    def test_trips_order_by_site_then_index(self):
        rng = random.Random(0)
        pairs = [(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(200)]
        trips = [TripId(*pair) for pair in pairs]
        assert sorted(trips) == sorted(trips, key=lambda t: (t.site_id, t.trip_index))
        assert [tuple(t) for t in sorted(trips)] == sorted(pairs)

    def test_repr_text(self):
        trip = TripId(2, 3)
        entry = ScheduleEntry(trip, 28800, 30300, 31800, 10.0)
        assert repr(trip) == "TripId(site_id=2, trip_index=3)"
        assert repr(entry) == (
            "ScheduleEntry(trip=TripId(site_id=2, trip_index=3), depot_start=28800, "
            "site_arrival=30300, site_departure=31800, cumulative_delivered=10.0)"
        )

    def test_fields_are_read_only(self):
        trip = TripId(2, 3)
        entry = ScheduleEntry(trip, 28800, 30300, 31800, 10.0)
        for record, name in ((trip, "site_id"), (trip, "trip_index"),
                             (entry, "trip"), (entry, "depot_start")):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)

    def test_entry_reads_its_site_and_unpacks(self):
        entry = ScheduleEntry(
            trip=TripId(4, 1), depot_start=0, site_arrival=600,
            site_departure=1200, cumulative_delivered=7.5,
        )
        assert entry.site_id == 4
        trip, start, arrival, departure, delivered = entry
        assert (trip, start, arrival, departure, delivered) == ((4, 1), 0, 600, 1200, 7.5)
        assert hash(entry) == hash(((4, 1), 0, 600, 1200, 7.5))


def reference_coverage(instance, schedule):
    """Coverage violations as ``(trips, measured, bound, detail)``, worked
    out trip by trip with no shortcut for a schedule that covers every
    trip once."""
    found = []
    expected = set(instance.trips)
    actual = Counter(e.trip for e in schedule.entries)
    for trip, count in sorted(actual.items()):
        if trip not in expected:
            found.append(((trip,), count, 0, "unknown trip"))
        elif count > 1:
            found.append(((trip,), count, 1, "duplicated trip"))
    for trip in sorted(expected - set(actual)):
        found.append(((trip,), 0, 1, "missing trip"))
    for site_id, entries in schedule.by_site().items():
        starts = [e.depot_start for e in entries]
        if starts != sorted(starts):
            found.append((tuple(e.trip for e in entries), 0, 0,
                          f"site {site_id} trip order disagrees with depot times"))
    return found


class TestCoverage:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_trip_by_trip_reference(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            instance = random_instance(rng)
            sequence = [trip.site_id for trip in instance.trips]
            rng.shuffle(sequence)
            entries = list(expand_consecutive(instance, sequence).entries)
            for _ in range(rng.randrange(3)):
                edit, k = rng.randrange(4), rng.randrange(len(entries))
                if edit == 0 and len(entries) > 1:
                    del entries[k]
                elif edit == 1:
                    entries.append(entries[k])
                elif edit == 2:
                    trip = entries[k].trip
                    entries[k] = entries[k]._replace(
                        trip=TripId(trip.site_id, trip.trip_index + rng.choice((1, 5)))
                    )
                else:
                    entries[k] = entries[k]._replace(depot_start=rng.randrange(10**5))
            schedule = Schedule(tuple(entries))
            coverage = [
                (v.trips, v.measured, v.bound, v.detail)
                for v in check(instance, schedule).violations if v.kind == "coverage"
            ]
            assert coverage == reference_coverage(instance, schedule)
