import itertools
import random
from collections import Counter

import pytest

from rmcdp.graphs import (
    GRID_MAX_HORIZON,
    SizeCapError,
    _slot_search,
    build_graph,
    enumerate_exact,
    greedy_solve,
    grid_exact,
)
from rmcdp.io import bundled_instance_path, load_instance
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

from conftest import (
    circuit_cost,
    dispatch_sequences,
    eight_oclock_depot,
    random_instance,
    tight_gamma_instance,
)

MIN = 60

TRUCK_LIMITS = (None, 1, 2, 3, 5)


def shaped_instance(rows, gamma_min):
    """Sites of ``(trips, unload, haul, requested)`` minutes from 8:00 on
    10-minute loadings with a ``gamma_min``-minute window."""
    sites = tuple(
        SiteSpec(id=sid, demand=10 * trips, distance=haul, speed=60,
                 unload_time=unload * MIN, proposed_start=8 * 3600 + requested * MIN)
        for sid, (trips, unload, haul, requested) in enumerate(rows, start=1)
    )
    depot = DepotSpec(start_time=8 * 3600, plant_capacity=10, productivity=60,
                      truck_capacity=10, gamma=gamma_min * MIN)
    return Instance(depot=depot, sites=sites)


def e11_shaped_instance():
    """Sites of 4, 4 and 3 trips with a 70-minute window: 11,550 dispatch
    sequences."""
    return shaped_instance(((4, 25, 12, 20), (4, 15, 18, 35), (3, 20, 22, 10)), 70)


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


def assert_grid_matches_reference(listed, rng, horizons):
    """``grid_exact`` equals :func:`reference_grid` on ``listed`` and on its
    sites shuffled by ``rng``, at each horizon and truck limit."""
    # Sites listed out of id order: ties go by site position.
    shuffled = list(listed.sites)
    rng.shuffle(shuffled)
    shuffled = Instance(depot=listed.depot, sites=tuple(shuffled))
    for instance, horizon, truck_limit in itertools.product(
        (listed, shuffled), horizons, (None, 1, 2, 3)
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
        assert evaluate(example1, result.schedule).total_site_wait == 60 * MIN
        assert result.report.feasible

    def test_prefers_smallest_nonnegative_cost(self, example1):
        result = greedy_solve(example1)
        # After the first pick the costs are {1: 20 min, 2: 0}; the second
        # pick takes label 2, the cheapest non-negative option.
        assert result.steps[1].chosen_label == 2

    @pytest.mark.parametrize(
        "name, sequence, wait_min",
        [
            ("example-1", (1, 2, 1, 2), 60),
            (
                "instance-1",
                (1, 2, 3, 4, 5, 1, 2, 3, 4, 1, 5, 2, 3, 1, 4, 2, 5, 3, 1, 2, 4, 3, 5, 4, 5),
                165,
            ),
            ("instance-2", (1, 2, 3, 4, 5) * 5 + (6, 7, 8, 9) * 5, 905),
        ],
        ids=["example-1", "instance-1", "instance-2"],
    )
    def test_bundled_instances_pinned(self, name, sequence, wait_min):
        instance = load_instance(bundled_instance_path(name))
        result = greedy_solve(instance)
        assert result.sequence == sequence
        assert result.report.feasible
        assert evaluate(instance, result.schedule).total_site_wait == wait_min * MIN

    def test_all_negative_costs_pick_the_largest(self):
        # With every remaining label negative the truck idles whatever is
        # picked; the least idle (largest cost) wins, ties to the lowest id.
        reached = 0
        for seed in range(200):
            steps = greedy_solve(random_instance(random.Random(seed))).steps
            for before, step in zip(steps, steps[1:]):
                if all(cost < 0 for cost in before.costs.values()):
                    reached += 1
                    largest = max(before.costs.values())
                    assert step.chosen_label == min(
                        l for l, cost in before.costs.items() if cost == largest
                    )
        assert reached >= 5

    @pytest.mark.parametrize("seed", range(25))
    def test_never_beats_exact_optimum(self, seed):
        rng = random.Random(seed)
        instance = random_instance(rng)
        exact = enumerate_exact(instance)
        greedy = greedy_solve(instance)
        if greedy.report.feasible and exact.schedule is not None:
            wait = evaluate(instance, greedy.schedule).total_site_wait
            assert wait >= exact.objective


@pytest.mark.parametrize("truck_limit", [0, -1])
@pytest.mark.parametrize(
    "solve", [greedy_solve, enumerate_exact, grid_exact, priority_solve],
    ids=lambda solve: solve.__name__,
)
def test_non_positive_truck_limit_rejected(example1, solve, truck_limit):
    with pytest.raises(ValidationError, match="truck_limit"):
        solve(example1, truck_limit=truck_limit)


def _check_golden(instance, truck_limit):
    return check(instance, priority_solve(instance).schedule, truck_limit=truck_limit)


@pytest.mark.parametrize(
    "truck_limit", [16.5, 17.0, "3", True, False], ids=["16.5", "17.0", "str", "True", "False"]
)
@pytest.mark.parametrize(
    "solve", [greedy_solve, enumerate_exact, grid_exact, priority_solve, _check_golden],
    ids=lambda solve: solve.__name__,
)
def test_truck_limit_must_be_an_int(example1, solve, truck_limit):
    # 16.5 once let priority return a schedule that check refused at the
    # same limit, "3" raised a bare TypeError and True counted as 1 truck.
    with pytest.raises(ValidationError) as err:
        solve(example1, truck_limit=truck_limit)
    assert str(err.value) == (
        f"truck_limit: must be an int of at least 1 when given, got {truck_limit!r}"
    )


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

    @pytest.mark.parametrize("seed", range(50))
    def test_always_feasible_without_fleet_limit(self, seed):
        # Loading each site's trips back to back keeps every gap at one
        # slot, which accessibility puts within every site's reach.
        for make in (random_instance, tight_gamma_instance):
            result = enumerate_exact(make(random.Random(seed)))
            assert result.schedule is not None
            assert result.feasible_count >= 1

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
        trips = total_trips(listed)
        assert_grid_matches_reference(
            listed, rng, (trips, trips + 2, min(24, trips + 4))
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_leaf_rescoring_reference_under_tight_pour_windows(self, seed):
        # Dead nodes (two sites due at once) beside idle children and load bits.
        rng = random.Random(seed)
        listed = tight_gamma_instance(rng, max_total_trips=6)
        trips = total_trips(listed)
        assert_grid_matches_reference(listed, rng, (trips, trips + 2))

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

    def test_node_counts_under_fleet_limits(self):
        # grid_exact reports no node count, so the slot DP's node partition
        # under a fleet limit, dead nodes included, is pinned here: feasible
        # count, least waiting and nodes at horizon 10.
        instance = shaped_instance(((2, 20, 10, 15), (2, 25, 15, 30), (2, 15, 20, 45)), 60)
        found = {}
        for limit in (None, 2, 3):
            feasible, objective, _, _, nodes = _slot_search(
                instance, instance.timings, 10, limit
            )
            found[limit] = feasible, objective, nodes
        assert found == {None: (90, 2100, 91), 2: (0, None, 365), 3: (18, 6600, 2102)}

    def test_limit_no_window_can_reach_runs_as_no_limit(self, example1):
        # A window holds at most min(T, gamma // L_t + 1) loadings, so a limit
        # that large refuses none: both exact searches give their no-limit
        # answer, and the slot DP at a spare horizon its no-limit node count
        # (example-1 at horizon 8: 13 nodes, not the 595 of the fleet digits).
        instances = [example1, shaped_instance(((2, 20, 10, 15), (2, 25, 15, 30)), 60)]
        instances += [random_instance(random.Random(seed)) for seed in range(10)]
        for instance in instances:
            trips = total_trips(instance)
            reach = min(trips, instance.depot.gamma // instance.depot.loading_time + 1)
            horizon = min(GRID_MAX_HORIZON, 2 * trips)
            free = _slot_search(instance, instance.timings, horizon, None)
            exact, grid = enumerate_exact(instance), grid_exact(instance, horizon)
            for limit in (reach, reach + 1):
                assert enumerate_exact(instance, limit) == exact
                assert grid_exact(instance, horizon, limit) == grid
                assert _slot_search(instance, instance.timings, horizon, limit) == free

    def test_node_counts_with_two_sites_due(self):
        # Pour windows of different reach let two open sites fall due in
        # one slot; each such dead node is one memo entry, counted once.
        instance = tight_gamma_instance(random.Random(27))
        found = {}
        for limit in (None, 2, 3):
            feasible, objective, _, _, nodes = _slot_search(
                instance, instance.timings, total_trips(instance) + 2, limit
            )
            found[limit] = feasible, objective, nodes
        assert found == {None: (242, 4320, 223), 2: (0, None, 105), 3: (0, None, 402)}

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

    def test_caps_enforced(self, instance2, example1):
        # Over a cap is too large for the search, not malformed input.
        with pytest.raises(SizeCapError, match="at most 3 sites, got 9"):
            grid_exact(instance2, horizon=50)
        ten_trips = Instance(
            depot=eight_oclock_depot(10),
            sites=tuple(
                SiteSpec(id=sid, demand=demand, distance=10, speed=60,
                         unload_time=20 * MIN, proposed_start=8 * 3600)
                for sid, demand in ((1, 40), (2, 30), (3, 30))
            ),
        )
        with pytest.raises(SizeCapError, match="at most 9 trips, got 10"):
            grid_exact(ten_trips)
        with pytest.raises(SizeCapError, match="at most 24 slots, got 25"):
            grid_exact(example1, horizon=25)
        assert grid_exact(example1, horizon=24).schedule is not None
        # A horizon outside the slot range stays malformed input.
        for horizon in (3, 289):
            with pytest.raises(ValidationError, match="horizon"):
                grid_exact(example1, horizon=horizon)

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
