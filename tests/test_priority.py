import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from rmcdp.io import bundled_instance_path, load_instance
from rmcdp.model import DepotSpec, Instance, InputError, SiteSpec, ValidationError
from rmcdp.priority import parse_beta, priority_solve
from rmcdp.schedule import check, evaluate

from conftest import random_instance, repeated_row_instance, replace, tight_gamma_instance

MIN = 60


START = 8 * 3600


def site(site_id, trips, unload=5 * MIN, proposed=START + 5 * MIN, gamma=None):
    """A site next to the depot; a first trip loaded at 8:00 arrives on time."""
    return SiteSpec(id=site_id, demand=10 * trips, distance=0, speed=60,
                    unload_time=unload, proposed_start=proposed,
                    gamma_override=gamma)


def five_minute_depot(*sites):
    """One loading every 5 minutes from 8:00, a 90-minute pour window."""
    depot = DepotSpec(start_time=START, plant_capacity=10, productivity=120,
                      truck_capacity=10, gamma=90 * MIN)
    return Instance(depot=depot, sites=sites)


def minutes_loaded(result):
    """Each site's depot loading times, in minutes after 8:00."""
    loaded = {}
    for entry in result.schedule.entries:
        loaded.setdefault(entry.site_id, []).append((entry.depot_start - START) // MIN)
    return loaded


class TestSlotGrid:
    """The booked-slot grid the priority search places sites on."""

    def test_slot_times(self):
        result = priority_solve(five_minute_depot(site(1, 2)))
        starts = [entry.depot_start for entry in result.schedule.entries]
        assert starts == [START, START + 5 * MIN]

    def test_slot_at_or_after_rounds_up(self):
        # The next trip aims beta * U after a loading; a target that falls
        # inside a slot moves to the following slot start.
        for unload, beta, second in ((5 * MIN, 1, 5), (5 * MIN + 1, 1, 10),
                                     (10 * MIN, 1, 10), (5 * MIN, "3/2", 10)):
            result = priority_solve(five_minute_depot(site(1, 2, unload)), beta=beta)
            assert minutes_loaded(result) == {1: [0, second]}

    def test_next_empty_slot_skips_occupied(self):
        # Site 1 first books slots 1-3, so site 2 skips from slot 2 to 4;
        # the other order makes site 1 wait 5 minutes.
        result = priority_solve(
            five_minute_depot(site(1, 3), site(2, 1, proposed=START + 20 * MIN))
        )
        assert result.permutation == (1, 2)
        assert minutes_loaded(result) == {1: [0, 5, 10], 2: [15]}
        assert result.stats.best_objective == 0

    def test_truck_load_blocks_slot(self):
        # A dispatched truck is busy for the whole inclusive gamma window,
        # gamma/slot + 1 = 19 slots, so a single truck next loads in slot 20.
        instance = five_minute_depot(site(1, 1), site(2, 1))
        one_truck = priority_solve(instance, truck_limit=1)
        assert minutes_loaded(one_truck) == {1: [0], 2: [95]}
        two_trucks = priority_solve(instance, truck_limit=2)
        assert minutes_loaded(two_trucks) == {1: [0], 2: [5]}


class TestPlaceSite:
    """Placing all trips of one site after the sites before it."""

    def test_back_to_back_when_unload_matches_slot(self):
        result = priority_solve(five_minute_depot(site(1, 3)))
        assert minutes_loaded(result) == {1: [0, 5, 10]}
        assert result.stats.best_objective == 0

    def test_occupied_slot_creates_wait(self):
        # Site 1 goes first and books slots 1 and 3; site 2 takes slot 2,
        # its next target (slot 3) is taken, and the 5-minute slide to
        # slot 4 is waiting.  The other order makes site 1 wait 10 minutes.
        result = priority_solve(five_minute_depot(
            site(1, 2, unload=10 * MIN), site(2, 2, proposed=START + 10 * MIN)
        ))
        assert result.permutation == (1, 2)
        assert minutes_loaded(result) == {1: [0, 10], 2: [5, 15]}
        assert result.stats.best_objective == 5 * MIN
        assert result.stats.feasible_count == 2

    def test_gap_beyond_gamma_is_infeasible(self):
        # With two trucks, site 2 placed after site 1 loads in slot 2 and
        # then waits for a truck until slot 20: a slide of 18 slots, exactly
        # its 90-minute window; an 85-minute window breaks that order.
        def feasible(gamma):
            instance = five_minute_depot(site(1, 1), site(2, 2, gamma=gamma))
            return priority_solve(instance, truck_limit=2).stats.feasible_count

        assert feasible(None) == 2
        assert feasible(85 * MIN) == 1

    def test_beta_stretches_target(self):
        result = priority_solve(five_minute_depot(site(1, 2)), beta=2)
        assert minutes_loaded(result) == {1: [0, 10]}
        assert result.stats.best_objective == 0

    def test_fractional_target_rounds_to_next_slot(self):
        # Target is 1.5 * 301 s after the first loading; the grid rounds up
        # to the 10-minute slot and books the 148.5 s delay as waiting,
        # counted in units of 1/2 second, after a 5-minute late first trip.
        late = site(1, 2, 5 * MIN + 1, proposed=START)
        result = priority_solve(five_minute_depot(late), beta="3/2")
        assert minutes_loaded(result) == {1: [0, 10]}
        assert result.stats.best_objective == 5 * MIN + 148.5


class TestPrioritySolve:
    def test_reference_instance_objective(self, instance1, golden_schedule):
        result = priority_solve(instance1)
        assert result.stats.best_objective == 195 * MIN
        assert result.stats.permutations_created == 120
        assert result.stats.feasible_count == 120
        assert result.schedule.entries == golden_schedule.entries

    def test_reference_dispatch_order(self, instance1):
        result = priority_solve(instance1)
        assert result.sequence == (
            1, 2, 3, 5, 4, 1, 2, 3, 5, 1, 2, 3, 4, 1, 2, 3, 5, 4,
            1, 2, 3, 5, 4, 5, 4,
        )

    def test_schedules_are_feasible(self, instance1):
        result = priority_solve(instance1)
        report = check(instance1, result.schedule)
        assert report.feasible

    def test_objective_matches_evaluate(self, instance1):
        result = priority_solve(instance1)
        objective = evaluate(instance1, result.schedule)
        assert objective.total_site_wait == result.stats.best_objective
        assert objective.truck_idle_total == 0

    def test_truck_limit_tightens_objective(self, instance1):
        objectives = [
            priority_solve(instance1, truck_limit=m).stats.best_objective
            for m in (12, 14, 17)
        ]
        assert objectives == sorted(objectives, reverse=True)
        assert objectives[-1] == 195 * MIN

    def test_beta_above_one_changes_pacing(self, example1):
        base = priority_solve(example1)
        slowed = priority_solve(example1, beta=2)
        assert slowed.stats.best_objective >= base.stats.best_objective

    def test_beta_below_one_rejected(self, example1):
        with pytest.raises(ValidationError):
            priority_solve(example1, beta=Fraction(1, 2))

    def test_beta_error_is_an_input_error(self, example1):
        with pytest.raises(InputError, match="beta: must be at least 1"):
            priority_solve(example1, beta="0.5")

    @pytest.mark.parametrize(
        "beta", ["abc", "nan", float("nan"), float("inf"), "1/0"],
        ids=["abc", "nan-text", "nan-float", "inf", "1/0"],
    )
    def test_non_numeric_beta_rejected(self, example1, beta):
        with pytest.raises(ValidationError, match="beta: not a number"):
            priority_solve(example1, beta=beta)

    @pytest.mark.parametrize("beta", ["1e20", "1e308"])
    @pytest.mark.parametrize("truck_limit", [None, 3, 17])
    def test_huge_beta_breaks_every_pour_window(self, instance1, beta, truck_limit):
        # A later trip aims about 10^20 slots past its previous one, far
        # beyond its reach: refused before the slot grid is searched there.
        result = priority_solve(instance1, beta=beta, truck_limit=truck_limit)
        assert result.schedule is None
        assert (result.stats.feasible_count, result.stats.states) == (0, 1)

    def test_beta_of_any_size_is_read_exactly(self, example1):
        # Past Python's 4,300-digit limit on writing an int out as text.
        assert parse_beta(10**5000) == 10**5000
        assert parse_beta(Fraction(10**5000 + 1, 10**5000)) > 1
        assert priority_solve(example1, beta=Fraction(10**5000)).schedule is None
        with pytest.raises(ValidationError, match="at least 1, got a number too long"):
            parse_beta(Fraction(1, 10**5000))
        with pytest.raises(ValidationError, match=r"at least 1, got '1e-5000'$"):
            parse_beta("1e-5000")
        with pytest.raises(ValidationError, match=r"not a number: 5000 characters$"):
            parse_beta("x" * 5000)

    def test_huge_beta_leaves_one_trip_sites_alone(self, example1):
        one_trip = Instance(
            depot=example1.depot,
            sites=tuple(replace(site, demand=10) for site in example1.sites),
        )
        paced = priority_solve(one_trip, beta="1e308", truck_limit=1)
        assert paced.schedule is not None
        assert paced.stats == priority_solve(one_trip, truck_limit=1).stats._replace(
            runtime=paced.stats.runtime
        )

    @pytest.mark.parametrize("truck_limit", [None, 3, 17])
    @pytest.mark.parametrize(
        "name, one_trip_sites, states, memo_hits",
        [("instance1", {2, 4}, 4, 1), ("example1", {1}, 2, 0)],
        ids=["instance-1", "example-1"],
    )
    def test_huge_beta_with_some_one_trip_sites(
        self, request, name, one_trip_sites, states, memo_hits, truck_limit
    ):
        # The one-trip sites can still be placed, the others never: every
        # order runs out of placeable sites before the last one.
        instance = request.getfixturevalue(name)
        mixed = Instance(depot=instance.depot, sites=tuple(
            replace(site, demand=10) if site.id in one_trip_sites else site
            for site in instance.sites
        ))
        result = priority_solve(mixed, beta="1e308", truck_limit=truck_limit)
        assert result.schedule is None
        assert result.stats.feasible_count == 0
        assert (result.stats.states, result.stats.memo_hits) == (states, memo_hits)

    @pytest.mark.parametrize("seed", range(15))
    def test_never_beats_exhaustive_grid(self, seed):
        rng = random.Random(seed)
        instance = random_instance(rng, max_total_trips=5)
        result = priority_solve(instance)
        if result.schedule is None:
            return
        report = check(instance, result.schedule)
        assert report.feasible
        objective = evaluate(instance, result.schedule)
        assert objective.total_site_wait == result.stats.best_objective
        # With the default pacing the solver never lets a truck idle.
        assert objective.truck_idle_total == 0

    @pytest.mark.parametrize(
        "name, states, memo_hits",
        [("example1", 3, 0), ("instance1", 34, 13), ("instance2", 63, 79)],
    )
    def test_memo_counts(self, request, name, states, memo_hits):
        # instance-2's 1,680 classes share 63 search nodes.
        stats = priority_solve(request.getfixturevalue(name)).stats
        assert (stats.states, stats.memo_hits) == (states, memo_hits)
        assert stats.states < 1680

    @pytest.mark.parametrize(
        "beta, truck_limit, states, memo_hits, feasible",
        [("1", None, 4131, 2054, 5040), ("1", 10, 2423, 60, 822),
         ("3/2", None, 6829, 877, 5040)],
    )
    def test_memo_counts_distinct_sites(self, beta, truck_limit, states, memo_hits, feasible):
        # No two sites share a class, so all 5,040 orders are searched.
        stats = priority_solve(distinct_sites_instance(), beta=beta, truck_limit=truck_limit).stats
        assert (stats.states, stats.memo_hits) == (states, memo_hits)
        assert (stats.feasible_count, stats.permutations_created) == (feasible, 5040)

    @pytest.mark.parametrize(
        "beta, truck_limit, permutation, best, sequence",
        [("1", None, (2, 3, 1, 6, 5, 7, 4), 11760,
          (2, 3, 1, 6, 5, 2, 1, 3, 6, 5, 2, 1, 7, 3, 6, 2, 1, 5, 7, 4, 1, 5, 4, 7, 4, 4, 7, 4)),
         ("1", 10, (2, 5, 6, 3, 4, 1, 7), 24960,
          (2, 5, 6, 3, 4, 2, 5, 6, 4, 3, 2, 5, 6, 2, 5, 3, 4, 1, 7, 4, 1, 4, 7, 1, 1, 7, 1, 7)),
         ("3/2", None, (1, 2, 5, 6, 3, 4, 7), 6210,
          (1, 2, 5, 6, 3, 4, 1, 7, 5, 2, 4, 6, 1, 3, 5, 4, 7, 2, 1, 6, 5, 4, 3, 1, 2, 4, 7, 7))],
    )
    def test_winner_distinct_sites(self, beta, truck_limit, permutation, best, sequence):
        result = priority_solve(distinct_sites_instance(), beta=beta, truck_limit=truck_limit)
        assert result.permutation == permutation
        assert result.stats.best_objective == best
        assert result.sequence == sequence

    def test_feasibility_rate(self, instance1):
        result = priority_solve(instance1)
        assert result.stats.feasibility_rate == 1.0


def assert_unbinding_fleet_changes_nothing(instance):
    # A fleet of as many trucks as trips never binds, so the one-OR booking
    # of a clear site must run under it and give what no limit gives.  The
    # node counts differ: a fleet limit keeps more of the grid in the key.
    for beta in ("1", "3/2"):
        free = priority_solve(instance, beta=beta)
        fleet = priority_solve(instance, beta=beta, truck_limit=len(instance.trips))
        assert fleet.permutation == free.permutation
        assert fleet.schedule == free.schedule
        assert fleet.stats.feasible_count == free.stats.feasible_count
        assert fleet.stats.best_objective == free.stats.best_objective


class TestFleetOfEveryTrip:
    @pytest.mark.parametrize("name", ["example-1", "instance-1", "instance-2"])
    def test_bundled(self, name):
        assert_unbinding_fleet_changes_nothing(load_instance(bundled_instance_path(name)))

    @pytest.mark.parametrize("seed", range(100))
    @pytest.mark.parametrize(
        "generate", [random_instance, tight_gamma_instance, repeated_row_instance],
        ids=lambda generate: generate.__name__,
    )
    def test_generated(self, generate, seed):
        assert_unbinding_fleet_changes_nothing(generate(random.Random(seed)))


def reference_order_wait(instance, order, beta, truck_limit):
    """Total waiting of one site order replayed from an empty grid, or None.

    An independent restatement of the placement rule with ``Fraction`` times
    and per-slot truck counts: the site in position ``r`` takes the first
    admissible slot from ``r``; each later trip aims ``beta * U`` after the
    previous loading, slides past booked or truck-starved slots, and fails
    if the slide breaks the site's pour window.
    """
    depot = instance.depot
    lt = depot.loading_time
    busy = depot.gamma // lt + 1
    taken, load = set(), Counter()

    def free(slot):
        while slot in taken or (truck_limit is not None and load[slot] >= truck_limit):
            slot += 1
        return slot

    def book(slot):
        taken.add(slot)
        load.update(range(slot, slot + busy))
        return depot.start_time + (slot - 1) * lt

    total = Fraction(0)
    for position, site in enumerate(order, start=1):
        previous = book(free(position))
        total += max(0, previous + lt + site.haul_time - site.proposed_start)
        for _ in range(instance.trips_for(site) - 1):
            target = previous + beta * site.unload_time
            slot = free(max(1, math.ceil((target - depot.start_time) / lt) + 1))
            when = depot.start_time + (slot - 1) * lt
            if when - previous > instance.gamma_for(site):
                return None
            total += max(0, when - target)
            previous = book(slot)
    return total


def reference_solve(instance, beta, truck_limit):
    """Best (wait, site ids) and feasible count over all n! site orders.

    Orders with the same sequence of site signatures share one replay; ties
    go to the first order in lexicographic position order.
    """
    beta = Fraction(beta)
    signature = [
        (instance.trips_for(s), s.unload_time, s.haul_time, s.proposed_start,
         instance.gamma_for(s))
        for s in instance.sites
    ]
    scores = {}
    feasible, best = 0, None
    for perm in itertools.permutations(range(len(instance.sites))):
        key = tuple(signature[p] for p in perm)
        if key not in scores:
            order = [instance.sites[p] for p in perm]
            scores[key] = reference_order_wait(instance, order, beta, truck_limit)
        wait = scores[key]
        if wait is None:
            continue
        feasible += 1
        if best is None or wait < best[0]:
            best = (wait, tuple(instance.sites[p].id for p in perm))
    return best, feasible


def assert_matches_reference(instance, beta="1", truck_limit=None):
    result = priority_solve(instance, beta=beta, truck_limit=truck_limit)
    best, feasible = reference_solve(instance, beta, truck_limit)
    assert result.stats.feasible_count == feasible
    if best is None:
        assert result.stats.best_objective is None
        assert result.permutation is None
        return
    assert result.stats.best_objective == best[0]
    assert result.permutation == best[1]
    # The search books only the slide past each beta * U target as waiting;
    # evaluate also counts the planned (beta - 1) * U gaps, which no
    # permutation changes.
    pacing = (Fraction(beta) - 1) * sum(
        (instance.trips_for(site) - 1) * site.unload_time for site in instance.sites
    )
    assert evaluate(instance, result.schedule).total_site_wait == best[0] + pacing


def distinct_sites_instance():
    """Seven sites that all differ: 5,040 classes, one permutation each."""
    rows = ((5, 20, 8, 0), (4, 25, 11, 10), (3, 30, 14, 20), (5, 15, 17, 30),
            (4, 20, 20, 40), (3, 25, 23, 50), (4, 30, 26, 60))
    sites = tuple(
        SiteSpec(id=i, demand=10 * trips, distance=haul, speed=60,
                 unload_time=unload * MIN, proposed_start=(8 * 60 + start) * MIN)
        for i, (trips, unload, haul, start) in enumerate(rows, start=1)
    )
    depot = DepotSpec(start_time=8 * 3600, plant_capacity=10, productivity=120,
                      truck_capacity=10)
    return Instance(depot=depot, sites=sites)


class TestMatchesReplayFromEmptyGrid:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_instances(self, seed):
        rng = random.Random(seed)
        instance = random_instance(rng, max_total_trips=rng.choice((5, 6, 8)))
        for beta in ("1", "3/2", "2"):
            for truck_limit in (None, 1, 2, 3):
                assert_matches_reference(instance, beta, truck_limit)

    @pytest.mark.parametrize("seed", range(40))
    def test_repeated_rows(self, seed):
        # Copies of one row differ only in position, so the best order must
        # take the next copy of each row by position, not by row.
        instance = repeated_row_instance(random.Random(seed))
        for beta in ("1", "3/2", "2"):
            for truck_limit in (None, 1, 2, 3, 5):
                assert_matches_reference(instance, beta, truck_limit)

    @pytest.mark.parametrize("seed", range(40))
    def test_tight_pour_windows(self, seed):
        # Interleaved trips break these windows, so many slides fail.
        instance = tight_gamma_instance(random.Random(seed))
        for beta in ("1", "3/2", "2"):
            for truck_limit in (None, 1, 2, 3, 5):
                assert_matches_reference(instance, beta, truck_limit)

    def test_example1(self, example1):
        assert_matches_reference(example1)

    @pytest.mark.parametrize("trucks", [None, *range(12, 19)])
    def test_instance1_truck_sweep(self, instance1, trucks):
        assert_matches_reference(instance1, truck_limit=trucks)

    def test_instance1_beta(self, instance1):
        assert_matches_reference(instance1, beta="1.5")

    def test_instance2(self, instance2):
        assert_matches_reference(instance2)

    def test_all_distinct_sites(self):
        # 10 trucks leave 822 of the 5,040 orders feasible.
        for trucks in (None, 10):
            assert_matches_reference(distinct_sites_instance(), truck_limit=trucks)


@pytest.mark.xfail(
    strict=True,
    reason="placement tests the truck limit only at the dispatch's own slot, "
    "not over its whole busy window",
)
@pytest.mark.parametrize("trucks", range(12, 16))
def test_truck_limited_schedule_passes_check(instance1, trucks):
    result = priority_solve(instance1, truck_limit=trucks)
    assert check(instance1, result.schedule, truck_limit=trucks).feasible
