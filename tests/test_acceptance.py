"""Acceptance gate: one test per reference result.

Each test pins the tolerances it uses.  The feasibility share of the large
nine-site instance is marked as a known-failing reproduction (strict
xfail): a counting argument over interchangeable sites shows the reference
figure cannot be produced by any deterministic rule of the documented form
(see the README's "Known deviations" section).
"""

import math
import random
import time

import pytest

from rmcdp.graphs import enumerate_exact, greedy_solve, grid_exact
from rmcdp.mip import build_mip, emit_lp
from rmcdp.model import solution_space_size, total_trips
from rmcdp.priority import priority_solve
from rmcdp.schedule import check, evaluate, expand_consecutive, trucks_required

from conftest import circuit_cost, random_instance, reference_lp

MIN = 60

REFERENCE_DISPATCH = (
    1, 2, 3, 5, 4, 1, 2, 3, 5, 1, 2, 3, 4, 1, 2, 3, 5, 4,
    1, 2, 3, 5, 4, 5, 4,
)


def test_1_five_site_instance_reproduces_reference_schedule(
    instance1, golden_schedule
):
    start = time.perf_counter()
    result = priority_solve(instance1)
    elapsed = time.perf_counter() - start
    assert result.stats.best_objective == 195 * MIN
    assert result.stats.permutations_created == 120
    assert len(result.schedule.entries) == 25
    assert result.schedule.entries == golden_schedule.entries
    assert result.sequence == REFERENCE_DISPATCH
    assert elapsed < 5.0


def test_2_nine_site_instance_best_waiting_and_search_size(instance2):
    start = time.perf_counter()
    result = priority_solve(instance2)
    elapsed = time.perf_counter() - start
    assert result.stats.best_objective == 885 * MIN
    assert result.stats.permutations_created == 362_880
    assert result.sequence[-5:] == (9, 9, 9, 9, 9)
    report = check(instance2, result.schedule)
    assert report.feasible
    assert elapsed < 120.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "reference feasibility share is not reproducible: the nine-site "
        "instance has three groups of three interchangeable sites, so any "
        "feasible-permutation count must be divisible by (3!)^3 = 216, and "
        "60160 is not (60160 mod 216 = 112); the search proves all 362880 "
        "permutations feasible"
    ),
)
def test_2b_nine_site_instance_reference_feasibility_share(instance2):
    result = priority_solve(instance2)
    assert result.stats.feasible_count == 60_160
    assert result.stats.feasibility_rate * 100 == pytest.approx(16.57, abs=0.01)


def test_2c_nine_site_waiting_lies_on_the_instance_time_grid(instance2):
    # Every loading starts at D + k * L_t and arrives L_t + h_i later, so a
    # first wait max(0, D + k * L_t + L_t + h_i - p_i) and a gap wait
    # max(0, g * L_t - U_i) are multiples of the gcd of L_t, every
    # L_t + h_i + D - p_i and every U_i, and so is any schedule's total.
    depot = instance2.depot
    lt, start = depot.loading_time, depot.start_time
    grid = math.gcd(
        lt,
        *(lt + site.haul_time + start - site.proposed_start for site in instance2.sites),
        *(site.unload_time for site in instance2.sites),
    )
    assert grid == 5 * MIN
    assert priority_solve(instance2).stats.best_objective == 885 * MIN
    assert 885 * MIN % grid == 0
    # The 869 min cited as the reference optimum is no total of this model.
    assert 869 * MIN % grid != 0
    rng = random.Random(869)
    labels = [trip.site_id for trip in instance2.trips]
    for _ in range(20):
        rng.shuffle(labels)
        schedule = expand_consecutive(instance2, labels)
        assert evaluate(instance2, schedule).total_site_wait % grid == 0


def test_3_two_site_example_waiting_and_feasibility_oracle(example1):
    blocked = expand_consecutive(example1, (1, 1, 2, 2))
    blocked_objective = evaluate(example1, blocked)
    assert blocked_objective.total_site_wait == 70 * MIN
    assert blocked_objective.truck_idle_total == 20 * MIN

    exact = enumerate_exact(example1)
    assert exact.visited == 6
    assert exact.sequence == (1, 2, 1, 2)
    assert exact.objective == 60 * MIN

    tight = check(
        example1,
        expand_consecutive(example1, (1, 2, 2, 1)),
        gamma_override=20 * MIN,
    )
    assert not tight.feasible
    violation = next(v for v in tight.violations if v.kind == "gamma_exceeded")
    assert violation.measured == 30 * MIN
    assert violation.bound == 20 * MIN


def test_4_greedy_walk_reproduces_reference_trace(example1):
    result = greedy_solve(example1)
    assert result.sequence == (1, 2, 1, 2)
    assert [step.costs for step in result.steps] == [
        {1: 20 * MIN, 2: 0},
        {1: 10 * MIN, 2: 20 * MIN},
        {2: 10 * MIN},
        {},
    ]
    assert evaluate(example1, result.schedule).total_site_wait == 60 * MIN


def test_5_solution_space_sizes(example1, instance1, instance2):
    assert solution_space_size(example1) == 6
    assert solution_space_size(instance1) == 623_360_743_125_120
    assert f"{float(solution_space_size(instance2)):.7e}" == "2.3183588e+37"


def test_6_fleet_size_sweep(instance1, golden_schedule):
    assert trucks_required(instance1, golden_schedule) == 17
    waits = []
    for trucks in range(12, 19):
        result = priority_solve(instance1, truck_limit=trucks)
        waits.append(result.stats.best_objective // MIN)
    assert waits == sorted(waits, reverse=True)
    assert waits[-2:] == [195, 195]  # 17 and 18 trucks
    assert waits[-3] > 195  # 16 trucks still pay extra waiting


def test_7_randomized_cross_validation():
    rng = random.Random(987654321)
    instances_checked = 0
    sequences_checked = 0
    while instances_checked < 200:
        instance = random_instance(rng, max_total_trips=5)
        instances_checked += 1

        exhaustive = enumerate_exact(instance)
        assert exhaustive.visited == solution_space_size(instance)

        for sequence in _sample_sequences(rng, instance, 5):
            schedule = expand_consecutive(instance, sequence)
            assert circuit_cost(instance, sequence) == evaluate(
                instance, schedule
            ).total_site_wait
            sequences_checked += 1

        result = priority_solve(instance)
        if result.schedule is not None:
            assert check(instance, result.schedule).feasible
            objective = evaluate(instance, result.schedule)
            assert objective.truck_idle_total == 0
            assert objective.total_site_wait == result.stats.best_objective

            trips = total_trips(instance)
            optimum = grid_exact(instance, horizon=min(24, trips + 4))
            if optimum.schedule is not None:
                assert result.stats.best_objective >= optimum.objective
    assert sequences_checked >= 1000


def _sample_sequences(rng, instance, count):
    trips = []
    for site in instance.sites:
        trips += [site.id] * -(-site.demand // instance.depot.truck_capacity)
    for _ in range(count):
        rng.shuffle(trips)
        yield tuple(trips)


def test_8_lp_export(example1, instance1):
    small = build_mip(example1, horizon=6)
    assert small.binary_count == 24
    assert len(small.rows) == 30
    row = next(r for r in small.rows if r.name == "c_eq25_s1_j1")
    assert row.sense == "<=" and row.rhs == 90

    text = emit_lp(small)
    assert emit_lp(build_mip(example1, horizon=6)) == text
    assert text == reference_lp(small)

    large = build_mip(instance1, horizon=32)
    assert large.binary_count == 800
