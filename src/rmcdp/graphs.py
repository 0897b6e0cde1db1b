"""Graph view of the dispatch problem and sequence-space solvers.

Trips are vertices of a complete graph (plus a depot vertex); every vertex
carries its site as a label.  A dispatch order is a Hamiltonian path from
the depot, its cost the total site waiting.  This module provides:

* ``circuit_cost`` -- vertex-cost evaluation of one path,
* ``greedy_solve`` -- cheapest-next-vertex heuristic with label-level
  dynamic edge costs,
* ``enumerate_exact`` -- exhaustive search over all distinct dispatch
  sequences (consecutive loading slots),
* ``grid_exact`` -- exhaustive search that may also leave loading slots
  empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .model import (
    Instance,
    InputError,
    ValidationError,
    solution_space_size,
    total_trips,
)
from .schedule import (
    FeasibilityReport,
    ObjectiveReport,
    Schedule,
    ScheduleEntry,
    TripId,
    check,
    evaluate,
    expand_consecutive,
)

ENUMERATION_CAP = 10_000_000


class SizeCapError(InputError):
    """The sequence space is too large for exhaustive enumeration."""


@dataclass(frozen=True)
class RmcdpGraph:
    """Complete graph over all trips with the depot as extra vertex 0."""

    instance: Instance
    labels: tuple[int, ...]  # site label of vertices 1..|K|

    @property
    def vertex_count(self) -> int:
        return len(self.labels) + 1


def build_graph(instance: Instance) -> RmcdpGraph:
    labels = []
    for site in instance.sites:
        labels.extend([site.id] * instance.trips_for(site))
    return RmcdpGraph(instance=instance, labels=tuple(labels))


def circuit_cost(instance: Instance, sequence: Sequence[int]) -> int:
    """Total vertex cost of a dispatch order, evaluated from first
    principles: loading starts follow each other by one loading time, a
    vertex costs the (clamped) delay it inflicts on its site."""
    lt = instance.depot.loading_time
    start = instance.depot.start_time
    last_load: dict[int, int] = {}
    cost = 0
    for position, site_id in enumerate(sequence):
        site = instance.site(site_id)
        load = start + position * lt
        if site_id in last_load:
            vertex_cost = load - (last_load[site_id] + site.unload_time)
        else:
            vertex_cost = (load + lt + site.haul_time) - site.proposed_start
        cost += max(0, vertex_cost)
        last_load[site_id] = load
    return cost


@dataclass(frozen=True)
class GreedyStep:
    chosen_label: int
    #: Edge cost per label for the *remaining* vertices after the update.
    costs: dict[int, int]


@dataclass(frozen=True)
class GreedyResult:
    sequence: tuple[int, ...]
    schedule: Schedule
    report: FeasibilityReport
    objective: ObjectiveReport
    steps: tuple[GreedyStep, ...]


def greedy_solve(
    graph: RmcdpGraph, truck_limit: int | None = None
) -> GreedyResult:
    """Append the cheapest remaining vertex until every trip is placed.

    Edge costs live on labels: after a vertex of label ``l`` is appended,
    the remaining ``l`` vertices cost one unloading time, and every label
    already visited gets one loading time knocked off.  Negative costs mean
    the truck would idle at the site, so non-negative candidates win first;
    ties go to the lowest site id.
    """
    instance = graph.instance
    lt = instance.depot.loading_time
    remaining = {
        site.id: instance.trips_for(site) for site in instance.sites
    }
    cost: dict[int, int] = {site.id: 0 for site in instance.sites}
    visited_labels: set[int] = set()
    sequence: list[int] = []
    steps: list[GreedyStep] = []

    def pick() -> int:
        candidates = [(cost[l], l) for l in sorted(remaining) if remaining[l] > 0]
        non_negative = [c for c in candidates if c[0] >= 0]
        if non_negative:
            return min(non_negative)[1]
        return max(candidates, key=lambda c: (c[0], -c[1]))[1]

    while any(remaining.values()):
        label = pick()
        remaining[label] -= 1
        sequence.append(label)
        for other in cost:
            if remaining[other] == 0:
                continue
            if other == label:
                cost[other] = instance.site(other).unload_time
            elif other in visited_labels:
                cost[other] -= lt
        visited_labels.add(label)
        steps.append(
            GreedyStep(
                chosen_label=label,
                costs={l: cost[l] for l in sorted(cost) if remaining[l] > 0},
            )
        )

    schedule = expand_consecutive(instance, sequence)
    return GreedyResult(
        sequence=tuple(sequence),
        schedule=schedule,
        report=check(instance, schedule, truck_limit=truck_limit),
        objective=evaluate(instance, schedule),
        steps=tuple(steps),
    )


def _multiset_permutations(
    values: Sequence[int], counts: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Distinct permutations of a multiset, in lexicographic order."""
    total = sum(counts)
    counts = list(counts)
    prefix: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
        if len(prefix) == total:
            yield tuple(prefix)
            return
        for i, value in enumerate(values):
            if counts[i] > 0:
                counts[i] -= 1
                prefix.append(value)
                yield from rec()
                prefix.pop()
                counts[i] += 1

    return rec()


def dispatch_sequences(instance: Instance) -> Iterator[tuple[int, ...]]:
    values = [site.id for site in sorted(instance.sites, key=lambda s: s.id)]
    counts = [instance.trips_for(instance.site(v)) for v in values]
    return _multiset_permutations(values, counts)


@dataclass(frozen=True)
class EnumerationResult:
    schedule: Schedule | None
    sequence: tuple[int, ...] | None
    objective: int | None
    visited: int
    feasible_count: int


def enumerate_exact(
    instance: Instance,
    truck_limit: int | None = None,
    cap: int = ENUMERATION_CAP,
) -> EnumerationResult:
    """Try every distinct dispatch sequence on consecutive loading slots."""
    size = solution_space_size(instance)
    if size > cap:
        raise SizeCapError(
            f"sequence space has {size} members, above the cap of {cap}"
        )

    lt = instance.depot.loading_time
    start = instance.depot.start_time
    sites = {site.id: site for site in instance.sites}
    gammas = {site.id: instance.gamma_for(site) for site in instance.sites}
    gamma_window = instance.depot.gamma

    best: tuple[int, tuple[int, ...]] | None = None
    visited = 0
    feasible_count = 0
    for sequence in dispatch_sequences(instance):
        visited += 1
        last_arrival: dict[int, int] = {}
        first_arrival: dict[int, int] = {}
        wait = 0
        feasible = True
        for position, site_id in enumerate(sequence):
            site = sites[site_id]
            arrival = start + position * lt + lt + site.haul_time
            if site_id in last_arrival:
                gap = arrival - last_arrival[site_id]
                if gap > gammas[site_id]:
                    feasible = False
                    break
                wait += max(0, gap - site.unload_time)
            else:
                first_arrival[site_id] = arrival
                wait += max(0, arrival - site.proposed_start)
            last_arrival[site_id] = arrival
        if feasible and truck_limit is not None:
            # Consecutive slots: peak fleet need is the number of loadings
            # inside one inclusive gamma window.
            peak = min(len(sequence), gamma_window // lt + 1)
            if peak > truck_limit:
                feasible = False
        if not feasible:
            continue
        feasible_count += 1
        if best is None or (wait, sequence) < best:
            best = (wait, sequence)

    if best is None:
        return EnumerationResult(None, None, None, visited, 0)
    schedule = expand_consecutive(instance, best[1])
    return EnumerationResult(
        schedule=schedule,
        sequence=best[1],
        objective=best[0],
        visited=visited,
        feasible_count=feasible_count,
    )


GRID_MAX_SITES = 3
GRID_MAX_TRIPS = 9
GRID_MAX_HORIZON = 24


def grid_exact(instance: Instance, horizon: int) -> EnumerationResult:
    """Exhaustive search over loading-slot assignments, allowing gaps.

    Unlike :func:`enumerate_exact` this explores schedules whose loadings
    are not back-to-back, at the price of a much larger search space; the
    instance size is therefore capped hard.
    """
    trips = total_trips(instance)
    if len(instance.sites) > GRID_MAX_SITES:
        raise ValidationError(
            f"grid search supports at most {GRID_MAX_SITES} sites"
        )
    if trips > GRID_MAX_TRIPS:
        raise ValidationError(
            f"grid search supports at most {GRID_MAX_TRIPS} trips"
        )
    if horizon > GRID_MAX_HORIZON:
        raise ValidationError(
            f"grid search supports a horizon of at most {GRID_MAX_HORIZON} slots"
        )
    if horizon < trips:
        raise ValidationError(
            f"horizon of {horizon} slots cannot hold {trips} trips"
        )

    lt = instance.depot.loading_time
    start = instance.depot.start_time
    sites = list(instance.sites)
    remaining = [instance.trips_for(site) for site in sites]
    gammas = [instance.gamma_for(site) for site in sites]
    last_load = [None] * len(sites)  # depot time of the site's last loading
    slots: list[tuple[int, int]] = []  # (slot index, site index)

    best: tuple[int, tuple[tuple[int, int], ...]] | None = None

    def leaf() -> None:
        nonlocal best
        wait = 0
        last_arrival: dict[int, int] = {}
        for slot, site_idx in slots:
            site = sites[site_idx]
            arrival = start + (slot - 1) * lt + lt + site.haul_time
            if site_idx in last_arrival:
                wait += max(0, arrival - last_arrival[site_idx] - site.unload_time)
            else:
                wait += max(0, arrival - site.proposed_start)
            last_arrival[site_idx] = arrival
        key = (wait, tuple(slots))
        if best is None or key < best:
            best = key

    def rec(slot: int, placed: int) -> None:
        if placed == trips:
            leaf()
            return
        if horizon - slot + 1 < trips - placed:
            return
        slot_time = start + (slot - 1) * lt
        # A site whose pour window already closed can never be finished.
        for i, left in enumerate(remaining):
            if left and last_load[i] is not None and slot_time - last_load[i] > gammas[i]:
                return
        for i, left in enumerate(remaining):
            if not left:
                continue
            remaining[i] -= 1
            previous = last_load[i]
            last_load[i] = slot_time
            slots.append((slot, i))
            rec(slot + 1, placed + 1)
            slots.pop()
            last_load[i] = previous
            remaining[i] += 1
        rec(slot + 1, placed)

    rec(1, 0)

    if best is None:
        return EnumerationResult(None, None, None, 0, 0)

    wait, assignment = best
    capacity = instance.depot.truck_capacity
    seen: dict[int, int] = {}
    poured: dict[int, float] = {site.id: 0.0 for site in sites}
    entries = []
    for slot, site_idx in assignment:
        site = sites[site_idx]
        seen[site.id] = seen.get(site.id, 0) + 1
        depot_start = start + (slot - 1) * lt
        arrival = depot_start + lt + site.haul_time
        delivered = min(capacity, site.demand - poured[site.id])
        poured[site.id] += delivered
        entries.append(
            ScheduleEntry(
                trip=TripId(site.id, seen[site.id]),
                depot_start=depot_start,
                site_arrival=arrival,
                site_departure=arrival + site.unload_time,
                delivered=delivered,
                cumulative_delivered=poured[site.id],
            )
        )
    entries.sort(key=lambda e: e.trip)
    schedule = Schedule(entries=tuple(entries), origin="grid")
    return EnumerationResult(
        schedule=schedule,
        sequence=schedule.dispatch_sequence(),
        objective=wait,
        visited=0,
        feasible_count=0,
    )
