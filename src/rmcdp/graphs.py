"""Graph view of the dispatch problem and sequence-space solvers.

Trips are vertices of a complete graph (plus a depot vertex); every vertex
carries its site as a label.  A dispatch order is a Hamiltonian path from
the depot, its cost the total site waiting.  This module provides:

* ``circuit_cost`` -- vertex-cost evaluation of one path,
* ``greedy_solve`` -- cheapest-next-vertex heuristic with label-level
  dynamic edge costs,
* ``enumerate_exact`` -- exact search over all distinct dispatch
  sequences (consecutive loading slots),
* ``grid_exact`` -- exact search over loading-slot assignments, which may
  leave a slot idle under a fleet limit.

Every search reads the integer site table ``Instance.timings``.  Both
exact searches run one dynamic programme over slot prefixes,
``_slot_search``, which prunes every schedule below a trip that breaks
its site's pour window and breaks ties towards the assignment smallest in
``(slot, site position)`` order.  It leaves a slot idle only under a
fleet limit: otherwise repacking the loads onto the first slots shortens
no gap, so an idle slot never lowers the waiting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import (
    Instance,
    InputError,
    ValidationError,
    check_truck_limit,
    slot_horizon,
    solution_space_size,
    total_trips,
)
from .schedule import (
    FeasibilityReport,
    ObjectiveReport,
    Schedule,
    TripId,
    check,
    evaluate,
    expand_consecutive,
    schedule_from_slots,
)

ENUMERATION_CAP = 10_000_000


class SizeCapError(InputError):
    """The sequence space is too large for exhaustive enumeration."""


@dataclass(frozen=True)
class RmcdpGraph:
    """Complete graph over all trips with the depot as extra vertex 0."""

    instance: Instance
    labels: tuple[int, ...]  # site label of vertices 1..|K|


def build_graph(instance: Instance) -> RmcdpGraph:
    labels = tuple(trip.site_id for trip in instance.trips)
    return RmcdpGraph(instance=instance, labels=labels)


def circuit_cost(instance: Instance, sequence: Sequence[int]) -> int:
    """Total vertex cost of a dispatch order, evaluated from first
    principles: loading starts follow each other by one loading time, a
    vertex costs the (clamped) delay it inflicts on its site."""
    rows = {row[0]: row for row in instance.timings}
    lt = instance.depot.loading_time
    start = instance.depot.start_time
    last_load: dict[int, int] = {}
    cost = 0
    for position, site_id in enumerate(sequence):
        if site_id not in rows:
            raise InputError(f"unknown site id {site_id}")
        _, _, offset, unload, _ = rows[site_id]
        load = start + position * lt
        if site_id in last_load:
            vertex_cost = load - last_load[site_id] - unload
        else:
            vertex_cost = load + offset
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
    instance: Instance, truck_limit: int | None = None
) -> GreedyResult:
    """Append the cheapest remaining vertex until every trip is placed.

    Edge costs live on labels: after a vertex of label ``l`` is appended,
    the remaining ``l`` vertices cost one unloading time, and every label
    already visited gets one loading time knocked off.  Negative costs mean
    the truck would idle at the site, so non-negative candidates win first;
    ties go to the lowest site id.
    """
    check_truck_limit(truck_limit)
    lt = instance.depot.loading_time
    remaining = {site_id: trips for site_id, trips, *_ in instance.timings}
    unloads = {site_id: unload for site_id, _, _, unload, _ in instance.timings}
    cost: dict[int, int] = {site_id: 0 for site_id in remaining}
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
                cost[other] = unloads[other]
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


@dataclass(frozen=True)
class EnumerationResult:
    schedule: Schedule | None
    sequence: tuple[int, ...] | None
    objective: int | None
    #: Sequences searched and feasible among them; ``None`` from :func:`grid_exact`.
    visited: int | None
    feasible_count: int | None
    #: Nodes of the :func:`enumerate_exact` dynamic programme; ``None`` from
    #: :func:`grid_exact`.
    states: int | None


#: What the search found below one node: feasible completions, their least
#: total waiting (``None`` when there is none), and the site index the best
#: completion loads next (the number of sites for an idle slot).
_Entry = tuple[int, int | None, int]


def _slot_search(
    instance: Instance,
    rows: Sequence[tuple[int, int, int, int, int]],
    horizon: int,
    truck_limit: int | None,
) -> tuple[int, int | None, Schedule | None, int]:
    """Least total waiting over assignments of the site table ``rows`` to
    ``horizon`` loading slots.

    Slot ``d`` (from 0) loads at ``start + d * L_t``, so below a prefix
    only each site's trips left and, for a site started but unfinished,
    its gap ``g`` (slots since its last load) matter: a next trip waits
    ``max(0, g * L_t - U_i)`` and breaks the pour window when
    ``g > gamma_i // L_t``, the site's reach.  A node is keyed by those two
    digits per site in one mixed-radix int and keeps its count of feasible
    completions, their least waiting and its best next choice: the first
    with strictly the least waiting, so ties go to the assignment smallest
    in ``(slot, row position)`` order.  A child whose open gap passes its
    reach is pruned, so the count stays exact.

    Without ``truck_limit`` no slot is left idle: repacking any
    assignment's loads onto slots 1..T in the same order keeps it
    feasible, lengthens no gap and delays no first trip, so it waits no
    more and is smaller in the tie-break order.  The optimum and its
    tie-break winner are consecutive, and ``horizon`` does not matter.

    With ``truck_limit`` an idle slot can free a truck, so each node also
    tries an idle child, after the sites to keep the tie-break.  The key
    gains a digit for the idle slots used (radix ``horizon - trips + 1``)
    and above it one bit per slot of the last ``gamma // L_t`` slots, set
    where a truck was loaded; a site loads only while fewer than
    ``truck_limit`` bits are set, the inclusive window
    :func:`trucks_required` counts.

    Returns the feasible count, the least waiting and the winning schedule
    (both ``None`` when there is none), and the nodes solved.
    """
    lt = instance.depot.loading_time
    start = instance.depot.start_time
    ids, left, offsets, unloads, gammas = map(list, zip(*rows))
    total = sum(left)
    # Accessibility (L_t + h_i + U_i <= gamma_i) makes every reach at least
    # one slot, so a site's own next slot never breaks its window.
    reaches = [gamma // lt for gamma in gammas]
    # Per site, a trips-left digit then a gap digit (0: unstarted or done).
    left_weights, gap_weights, radix = [], [], 1
    for trips, reach in zip(left, reaches):
        left_weights.append(radix)
        gap_weights.append(radix * (trips + 1))
        radix *= (trips + 1) * (reach + 1)
    spare = horizon - total  # idle slots the horizon leaves
    idle_weight, busy_weight = radix, radix * (spare + 1)
    busy_mask = (1 << instance.depot.gamma // lt) - 1 if truck_limit else 0
    idle = len(ids)
    sites = range(len(ids))
    last: list[int | None] = [None] * len(ids)  # slot of each site's last load
    memo: dict[int, _Entry] = {}

    def child(depth: int, k: int, key: int, opened: int) -> tuple[int, int, int]:
        """Load site ``k`` at ``depth``: its waiting, the child's key and the
        child's ``opened``, the sum of the open sites' gap weights."""
        previous = last[k]
        if previous is None:
            gap, cost = 0, start + depth * lt + offsets[k]
        else:
            gap = depth - previous
            cost = gap * lt - unloads[k]
        # Every open gap grows by one; k's own gap digit becomes 1 while it
        # has trips left after this one, else 0.
        delta = ((left[k] > 1) - (previous is not None)) * gap_weights[k]
        key += opened - left_weights[k] + delta - gap * gap_weights[k]
        return max(0, cost), key, opened + delta

    def walk(depth: int, key: int, opened: int) -> _Entry:
        if depth == total:
            return 1, 0, -1
        entry = memo.get(key)
        if entry is not None:
            return entry
        # An open site at the end of its reach loads now or never finishes.
        due = [
            i for i in sites
            if left[i] and last[i] is not None and last[i] + reaches[i] == depth
        ]
        # Two of them cannot both load now, so the node is dead.
        candidates = () if len(due) > 1 else due or sites
        count, best, choice = 0, None, -1
        for k in candidates:
            if not left[k]:
                continue
            cost, child_key, child_opened = child(depth, k, key, opened)
            previous = last[k]
            left[k] -= 1
            last[k] = depth
            below, wait, _ = walk(depth + 1, child_key, child_opened)
            last[k] = previous
            left[k] += 1
            if below:
                count += below
                if best is None or wait + cost < best:
                    best, choice = wait + cost, k
        entry = memo[key] = (count, best, choice)
        return entry

    def walk_limited(depth: int, key: int, opened: int, busy: int) -> _Entry:
        # walk with the fleet limit on the load bits and an idle child.
        if key % idle_weight == 0:  # no trips left and no open gap
            return 1, 0, -1
        node = key + busy * busy_weight
        entry = memo.get(node)
        if entry is not None:
            return entry
        due = [
            i for i in sites
            if left[i] and last[i] is not None and last[i] + reaches[i] == depth
        ]
        full = busy.bit_count() >= truck_limit  # every truck still out
        candidates = () if len(due) > 1 or full else due or sites
        loaded = (busy << 1 | 1) & busy_mask
        count, best, choice = 0, None, -1
        for k in candidates:
            if not left[k]:
                continue
            cost, child_key, child_opened = child(depth, k, key, opened)
            previous = last[k]
            left[k] -= 1
            last[k] = depth
            below, wait, _ = walk_limited(depth + 1, child_key, child_opened, loaded)
            last[k] = previous
            left[k] += 1
            if below:
                count += below
                if best is None or wait + cost < best:
                    best, choice = wait + cost, k
        if not due and key // idle_weight < spare:
            below, wait, _ = walk_limited(
                depth + 1, key + opened + idle_weight, opened, busy << 1 & busy_mask
            )
            if below:
                count += below
                if best is None or wait < best:
                    best, choice = wait, idle
        entry = memo[node] = (count, best, choice)
        return entry

    key = sum(trips * weight for trips, weight in zip(left, left_weights))
    if truck_limit is None:
        feasible, objective, _ = walk(0, key, 0)
    else:
        feasible, objective, _ = walk_limited(0, key, 0, 0)
    slots: dict[TripId, int] = {}
    depth = opened = busy = 0
    while feasible and len(slots) < total:
        k = memo[key + busy * busy_weight][2]
        if k == idle:
            key += opened + idle_weight
        else:
            _, key, opened = child(depth, k, key, opened)
            slots[TripId(ids[k], rows[k][1] - left[k] + 1)] = depth + 1
            left[k] -= 1
            last[k] = depth
        busy = (busy << 1 | (k != idle)) & busy_mask
        depth += 1
    schedule = schedule_from_slots(instance, slots) if feasible else None
    return feasible, objective, schedule, len(memo)


def enumerate_exact(
    instance: Instance, truck_limit: int | None = None
) -> EnumerationResult:
    """Try every distinct dispatch sequence on consecutive loading slots.

    The sites are searched in id order by :func:`_slot_search`, so ties go
    to the smallest sequence.  ``feasible_count`` counts the feasible
    sequences exactly, ``visited`` reports the whole space and ``states``
    is the number of nodes solved.
    """
    check_truck_limit(truck_limit)
    size = solution_space_size(instance)
    if size > ENUMERATION_CAP:
        raise SizeCapError(
            f"sequence space has {size} members, above the cap of {ENUMERATION_CAP}"
        )
    total = total_trips(instance)
    # Consecutive slots: peak fleet need is the number of loadings inside
    # one inclusive gamma window, the same for every sequence.
    lt = instance.depot.loading_time
    if truck_limit is not None and min(total, instance.depot.gamma // lt + 1) > truck_limit:
        return EnumerationResult(None, None, None, size, 0, 0)

    feasible, objective, schedule, states = _slot_search(
        instance, sorted(instance.timings), total, None
    )
    if schedule is None:
        return EnumerationResult(None, None, None, size, 0, states)
    return EnumerationResult(
        schedule, schedule.dispatch_sequence(), objective, size, feasible, states
    )


GRID_MAX_SITES = 3
GRID_MAX_TRIPS = 9
GRID_MAX_HORIZON = 24


def grid_exact(
    instance: Instance, horizon: int | None = None, truck_limit: int | None = None
) -> EnumerationResult:
    """Exact search over loading-slot assignments, allowing idle slots.

    :func:`_slot_search` with the sites in site-list order, so ties go by
    ``(slot, site position)``.  With ``truck_limit`` a slot is used only
    while fewer than that many loadings fall in the inclusive gamma window
    ending at it.  ``horizon`` is the number of loading slots, twice the
    trip count unless given; the instance size is capped hard.
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
    # Any horizon above the cap holds the capped trip count, so the order of
    # the two horizon checks does not matter.
    horizon = slot_horizon(instance, horizon)
    if horizon > GRID_MAX_HORIZON:
        raise ValidationError(
            f"grid search supports a horizon of at most {GRID_MAX_HORIZON} slots"
        )
    check_truck_limit(truck_limit)

    _, objective, schedule, _ = _slot_search(
        instance, instance.timings, horizon, truck_limit
    )
    if schedule is None:
        return EnumerationResult(None, None, None, None, None, None)
    return EnumerationResult(
        schedule, schedule.dispatch_sequence(), objective, None, None, None
    )
