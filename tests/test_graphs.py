import itertools
import random
from collections import Counter

import pytest

from rmcdp.graphs import (
    SizeCapError,
    build_graph,
    circuit_cost,
    enumerate_exact,
    greedy_solve,
    grid_exact,
)
from rmcdp.model import (
    DepotSpec,
    Instance,
    SiteSpec,
    ValidationError,
    default_horizon,
    solution_space_size,
    total_trips,
)
from rmcdp.priority import priority_solve
from rmcdp.schedule import (
    TripId,
    check,
    evaluate,
    expand_consecutive,
    schedule_from_slots,
    trucks_required,
)

from conftest import dispatch_sequences, random_instance, tight_gamma_instance

MIN = 60

TRUCK_LIMITS = (None, 1, 2, 3, 5)


def e11_shaped_instance():
    """Sites of 4, 4 and 3 trips on 10-minute loadings with a 70-minute
    window: 11,550 dispatch sequences."""
    rows = ((4, 25, 12, 20), (4, 15, 18, 35), (3, 20, 22, 10))
    sites = tuple(
        SiteSpec(id=sid, demand=10 * trips, distance=haul, speed=60,
                 unload_time=unload * MIN, proposed_start=8 * 3600 + requested * MIN)
        for sid, (trips, unload, haul, requested) in enumerate(rows, start=1)
    )
    depot = DepotSpec(start_time=8 * 3600, plant_capacity=10, productivity=60,
                      truck_capacity=10, gamma=70 * MIN)
    return Instance(depot=depot, sites=sites)


def reference_enumeration(instance, truck_limit):
    """Score every dispatch sequence from scratch with ``check`` and
    ``evaluate``: (objective, first optimal sequence, visited, feasible)."""
    best = None
    visited = feasible = 0
    for sequence in dispatch_sequences(instance):
        visited += 1
        schedule = expand_consecutive(instance, sequence)
        if not check(instance, schedule, truck_limit=truck_limit).feasible:
            continue
        feasible += 1
        wait = evaluate(instance, schedule).total_site_wait
        if best is None or wait < best[0]:
            best = (wait, sequence)
    objective, sequence = best if best else (None, None)
    return objective, sequence, visited, feasible


def assert_exact_matches_reference(instance, truck_limit):
    result = enumerate_exact(instance, truck_limit=truck_limit)
    assert (
        result.objective,
        result.sequence,
        result.visited,
        result.feasible_count,
    ) == reference_enumeration(instance, truck_limit)


def reference_grid(instance, horizon, truck_limit=None):
    """The grid search that rescores every leaf from scratch and prunes by
    nothing but the pour window: (objective, per-site depot starts).  With
    ``truck_limit``, leaves whose schedule needs more trucks are dropped."""
    trips = total_trips(instance)
    lt = instance.depot.loading_time
    start = instance.depot.start_time
    sites = list(instance.sites)
    remaining = [instance.trips_for(site) for site in sites]
    gammas = [instance.gamma_for(site) for site in sites]
    last_load = [None] * len(sites)
    slots = []
    best = None

    def leaf():
        nonlocal best
        if truck_limit is not None:
            seen = Counter()
            by_trip = {}
            for slot, i in slots:
                seen[i] += 1
                by_trip[TripId(sites[i].id, seen[i])] = slot
            schedule = schedule_from_slots(instance, by_trip)
            if trucks_required(instance, schedule) > truck_limit:
                return
        wait = 0
        last_arrival = {}
        for slot, i in slots:
            site = sites[i]
            arrival = start + slot * lt + site.haul_time
            if i in last_arrival:
                wait += max(0, arrival - last_arrival[i] - site.unload_time)
            else:
                wait += max(0, arrival - site.proposed_start)
            last_arrival[i] = arrival
        if best is None or (wait, tuple(slots)) < best:
            best = (wait, tuple(slots))

    def rec(slot, placed):
        if placed == trips:
            leaf()
            return
        if horizon - slot + 1 < trips - placed:
            return
        slot_time = start + (slot - 1) * lt
        for i, left in enumerate(remaining):
            if left and last_load[i] is not None and slot_time - last_load[i] > gammas[i]:
                return
        for i, left in enumerate(remaining):
            if left:
                remaining[i] -= 1
                previous, last_load[i] = last_load[i], slot_time
                slots.append((slot, i))
                rec(slot + 1, placed + 1)
                slots.pop()
                last_load[i] = previous
                remaining[i] += 1
        rec(slot + 1, placed)

    rec(1, 0)
    if best is None:
        return None, None
    starts = {}
    for slot, i in best[1]:
        starts.setdefault(sites[i].id, []).append(start + (slot - 1) * lt)
    return best[0], starts


class TestBuildGraph:
    def test_one_label_per_trip(self, example1):
        graph = build_graph(example1)
        assert graph.labels == (1, 1, 2, 2)

    def test_label_counts_match_trip_counts(self, instance1):
        graph = build_graph(instance1)
        counts = {}
        for label in graph.labels:
            counts[label] = counts.get(label, 0) + 1
        assert counts == {i: 5 for i in range(1, 6)}


class TestCircuitCost:
    def test_matches_evaluate_on_reference_sequences(self, example1):
        for sequence, expected in (
            ((1, 2, 1, 2), 60 * MIN),
            ((1, 1, 2, 2), 70 * MIN),
            ((2, 1, 2, 1), 60 * MIN),
        ):
            assert circuit_cost(example1, sequence) == expected
            schedule = expand_consecutive(example1, sequence)
            assert circuit_cost(example1, sequence) == evaluate(
                example1, schedule
            ).total_site_wait

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_evaluate_on_random_sequences(self, seed):
        rng = random.Random(seed)
        instance = random_instance(rng)
        for sequence in dispatch_sequences(instance):
            schedule = expand_consecutive(instance, sequence)
            assert circuit_cost(instance, sequence) == evaluate(
                instance, schedule
            ).total_site_wait


class TestGreedy:
    def test_reference_trace(self, example1):
        result = greedy_solve(example1)
        assert result.sequence == (1, 2, 1, 2)
        # Each step records the label costs recomputed after the pick; the
        # next pick is made from the previous step's map.
        expected_costs = [
            {1: 20 * MIN, 2: 0},
            {1: 10 * MIN, 2: 20 * MIN},
            {2: 10 * MIN},
            {},
        ]
        assert [step.chosen_label for step in result.steps] == [1, 2, 1, 2]
        assert [step.costs for step in result.steps] == expected_costs

    def test_objective_matches_evaluate(self, example1):
        result = greedy_solve(example1)
        assert result.objective.total_site_wait == 60 * MIN
        assert result.report.feasible

    def test_prefers_smallest_nonnegative_cost(self, example1):
        result = greedy_solve(example1)
        # After the first pick the costs are {1: 20 min, 2: 0}; the second
        # pick takes label 2, the cheapest non-negative option.
        assert result.steps[1].chosen_label == 2

    @pytest.mark.parametrize("seed", range(25))
    def test_never_beats_exact_optimum(self, seed):
        rng = random.Random(seed)
        instance = random_instance(rng)
        exact = enumerate_exact(instance)
        greedy = greedy_solve(instance)
        if greedy.report.feasible and exact.schedule is not None:
            assert greedy.objective.total_site_wait >= exact.objective


@pytest.mark.parametrize("truck_limit", [0, -1])
@pytest.mark.parametrize(
    "solve", [greedy_solve, enumerate_exact, grid_exact, priority_solve],
    ids=lambda solve: solve.__name__,
)
def test_non_positive_truck_limit_rejected(example1, solve, truck_limit):
    with pytest.raises(ValidationError, match="truck_limit"):
        solve(example1, truck_limit=truck_limit)


class TestDispatchSequences:
    def test_lexicographic_order(self, example1):
        sequences = list(dispatch_sequences(example1))
        assert sequences == [
            (1, 1, 2, 2),
            (1, 2, 1, 2),
            (1, 2, 2, 1),
            (2, 1, 1, 2),
            (2, 1, 2, 1),
            (2, 2, 1, 1),
        ]

    @pytest.mark.parametrize("seed", range(10))
    def test_count_equals_solution_space_size(self, seed):
        rng = random.Random(seed)
        instance = random_instance(rng)
        sequences = list(dispatch_sequences(instance))
        assert len(sequences) == solution_space_size(instance)
        assert len(set(sequences)) == len(sequences)
        assert sequences == sorted(sequences)


class TestEnumerateExact:
    def test_example_optimum(self, example1):
        result = enumerate_exact(example1)
        assert result.visited == 6
        assert result.sequence == (1, 2, 1, 2)
        assert result.objective == 60 * MIN

    def test_ties_resolved_lexicographically(self, example1):
        # (2, 1, 2, 1) also costs 60 minutes; the smaller sequence wins.
        assert circuit_cost(example1, (2, 1, 2, 1)) == 60 * MIN
        assert enumerate_exact(example1).sequence == (1, 2, 1, 2)

    def test_truck_limit_prunes_feasible_set(self, example1):
        unlimited = enumerate_exact(example1)
        limited = enumerate_exact(example1, truck_limit=3)
        assert limited.feasible_count <= unlimited.feasible_count

    def test_cap_raises(self, instance1):
        with pytest.raises(SizeCapError):
            enumerate_exact(instance1)

    @pytest.mark.parametrize("truck_limit", TRUCK_LIMITS)
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference_on_random_instances(self, seed, truck_limit):
        assert_exact_matches_reference(random_instance(random.Random(seed)), truck_limit)

    @pytest.mark.parametrize("truck_limit", TRUCK_LIMITS)
    def test_matches_reference_on_example(self, example1, truck_limit):
        assert_exact_matches_reference(example1, truck_limit)

    @pytest.mark.parametrize("truck_limit", (None, 1, 2, 3))
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference_under_tight_pour_windows(self, seed, truck_limit):
        assert_exact_matches_reference(tight_gamma_instance(random.Random(seed)), truck_limit)

    def test_tight_pour_windows_prune(self):
        # The family above must reach the pour-window prune: without a truck
        # limit, only a broken window makes a sequence infeasible.
        pruned = 0
        for seed in range(40):
            result = enumerate_exact(tight_gamma_instance(random.Random(seed)))
            pruned += result.feasible_count < result.visited
        assert pruned >= 10

    def test_memo_counts(self, example1):
        assert enumerate_exact(example1).states == 13
        result = enumerate_exact(e11_shaped_instance())
        assert (result.visited, result.feasible_count, result.states) == (
            11_550, 10_780, 1_379
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_feasible_count_bounded_by_space(self, seed):
        rng = random.Random(seed)
        instance = random_instance(rng)
        result = enumerate_exact(instance)
        assert result.visited == solution_space_size(instance)
        assert 0 <= result.feasible_count <= result.visited


class TestGridExact:
    def test_matches_enumeration_when_no_skips_help(self, example1):
        consecutive = enumerate_exact(example1)
        gridded = grid_exact(example1, horizon=8)
        assert gridded.objective <= consecutive.objective

    def test_horizon_defaults_to_twice_the_trips(self, example1):
        assert grid_exact(example1) == grid_exact(example1, default_horizon(example1))

    def test_search_counts_are_not_reported(self, example1):
        gridded = grid_exact(example1, horizon=8)
        assert gridded.visited is None
        assert gridded.feasible_count is None
        assert gridded.states is None

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_leaf_rescoring_reference(self, seed):
        rng = random.Random(seed)
        listed = random_instance(rng)
        # Sites listed out of id order: ties go by site position.
        shuffled = list(listed.sites)
        rng.shuffle(shuffled)
        shuffled = Instance(depot=listed.depot, sites=tuple(shuffled))
        trips = total_trips(listed)
        for instance, horizon, truck_limit in itertools.product(
            (listed, shuffled), (trips, trips + 2, min(24, trips + 4)), (None, 1, 2, 3)
        ):
            gridded = grid_exact(instance, horizon, truck_limit)
            objective, starts = reference_grid(instance, horizon, truck_limit)
            assert gridded.objective == objective
            if objective is None:
                assert gridded.schedule is None
                continue
            assert {
                site_id: [e.depot_start for e in entries]
                for site_id, entries in gridded.schedule.by_site().items()
            } == starts
            assert check(instance, gridded.schedule, truck_limit=truck_limit).feasible
            assert evaluate(instance, gridded.schedule).total_site_wait == objective

    @pytest.mark.parametrize("seed", range(15))
    def test_consecutive_without_truck_limit(self, seed):
        # Repacking loads onto the first slots lengthens no gap, so without
        # a fleet limit the grid optimum never leaves a slot idle.
        instance = random_instance(random.Random(seed), max_total_trips=9)
        trips = total_trips(instance)
        consecutive = enumerate_exact(instance)
        for horizon in range(trips, min(24, 2 * trips) + 1):
            gridded = grid_exact(instance, horizon)
            assert gridded.objective == consecutive.objective
            slots = {e.depot_start for e in gridded.schedule.entries}
            start, lt = instance.depot.start_time, instance.depot.loading_time
            assert slots == {start + slot * lt for slot in range(trips)}

    def test_truck_window_includes_its_end(self):
        # 10-minute loadings and a 90-minute window: a truck loaded in slot 1
        # is busy through slot 10, so one truck serves slots 1 and 11 only.
        sites = tuple(
            SiteSpec(id=i, demand=10, distance=0, speed=60, unload_time=10 * MIN,
                     proposed_start=8 * 3600)
            for i in (1, 2)
        )
        depot = DepotSpec(start_time=8 * 3600, plant_capacity=10, productivity=60,
                          truck_capacity=10)
        instance = Instance(depot=depot, sites=sites)
        assert grid_exact(instance, 10, truck_limit=1).schedule is None
        gridded = grid_exact(instance, 11, truck_limit=1)
        assert [e.depot_start for e in gridded.schedule.entries] == [
            8 * 3600, 8 * 3600 + 100 * MIN
        ]
        assert check(instance, gridded.schedule, truck_limit=1).feasible

    def test_caps_enforced(self, instance2):
        with pytest.raises(ValidationError):
            grid_exact(instance2, horizon=50)

    @pytest.mark.parametrize("seed", range(5))
    def test_never_worse_than_consecutive_enumeration(self, seed):
        rng = random.Random(seed)
        instance = random_instance(rng, max_total_trips=4)
        consecutive = enumerate_exact(instance)
        horizon = total_trips(instance) + 2
        gridded = grid_exact(instance, horizon=horizon)
        if consecutive.schedule is not None:
            assert gridded.schedule is not None
            assert gridded.objective <= consecutive.objective
