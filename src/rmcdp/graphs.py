"""Graph view of the dispatch problem and sequence-space solvers.

Trips are vertices of a complete graph (plus a depot vertex); every vertex
carries its site as a label.  A dispatch order is a Hamiltonian path from
the depot, its cost the total site waiting.  This module provides:

* ``circuit_cost`` -- vertex-cost evaluation of one path,
* ``greedy_solve`` -- cheapest-next-vertex heuristic with label-level
  dynamic edge costs,
* ``enumerate_exact`` -- exact search over all distinct dispatch
  sequences (consecutive loading slots),
* ``grid_exact`` -- exhaustive search that may also leave loading slots
  empty.

Every search reads the integer site table ``Instance.timings``.
``enumerate_exact`` is a dynamic programme over sequence prefixes: on
consecutive slots the depth fixes the load time, so a prefix is summed up
by the trips each site has left and the slots since each open site's last
load, and prefixes that agree on those share one memo node.
``grid_exact`` is a depth-first walk over shared prefixes: each level
loads one trip at a depot time and carries the running waiting down, and
backtracking undoes it.  In both, a trip that breaks its site's pour
window prunes every schedule below it.  ``grid_exact`` also prunes a
prefix whose waiting already reaches the best found, so it counts neither
the schedules it visits nor the feasible ones; ``enumerate_exact`` does
not, and counts the feasible sequences exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

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
    rows = sorted(instance.timings)  # site-id order
    return _multiset_permutations([r[0] for r in rows], [r[1] for r in rows])


@dataclass(frozen=True)
class EnumerationResult:
    schedule: Schedule | None
    sequence: tuple[int, ...] | None
    objective: int | None
    #: Sequences searched and feasible among them; ``None`` from
    #: :func:`grid_exact`, whose search prunes by bound and counts neither.
    visited: int | None
    feasible_count: int | None
    #: Nodes of the :func:`enumerate_exact` dynamic programme; ``None`` from
    #: :func:`grid_exact`.
    states: int | None


#: What the search found below one node: feasible completions, their least
#: total waiting (``None`` when there is none), and the site index the best
#: completion loads next.
_Entry = tuple[int, int | None, int]


def enumerate_exact(
    instance: Instance, truck_limit: int | None = None
) -> EnumerationResult:
    """Try every distinct dispatch sequence on consecutive loading slots.

    The sequences are the prefixes of :func:`dispatch_sequences`, searched
    by dynamic programming.  Depth ``d`` loads at ``start + d * L_t``, so
    what happens below a prefix depends only on the trips each site has
    left and, for each started but unfinished site, the slots since its
    last load (its gap ``g``): a next trip waits ``max(0, g * L_t - U_i)``
    and breaks the pour window when ``g > gamma_i // L_t``, the site's
    reach.  A node is keyed by those two digits per site in one mixed-radix
    int; it keeps its count of feasible completions, their least waiting
    and the site loaded next on the way to it.  A child in which an open
    site's gap would pass its reach has no feasible completion and is
    pruned, so ``feasible_count`` still counts the feasible sequences
    exactly, while ``visited`` reports the whole space.  The best child is
    the first site, in id order, with strictly the least waiting, so ties
    go to the smallest sequence; the winner is read off the memo from the
    root.  ``states`` is the number of nodes solved.
    """
    check_truck_limit(truck_limit)
    size = solution_space_size(instance)
    if size > ENUMERATION_CAP:
        raise SizeCapError(
            f"sequence space has {size} members, above the cap of {ENUMERATION_CAP}"
        )

    lt = instance.depot.loading_time
    start = instance.depot.start_time
    ids, left, offsets, unloads, gammas = map(list, zip(*sorted(instance.timings)))
    total = sum(left)
    # Consecutive slots: peak fleet need is the number of loadings inside
    # one inclusive gamma window, the same for every sequence.
    if truck_limit is not None and min(total, instance.depot.gamma // lt + 1) > truck_limit:
        return EnumerationResult(None, None, None, size, 0, 0)

    # Accessibility (L_t + h_i + U_i <= gamma_i) makes every reach at least
    # one slot, so a site's own next slot never breaks its window.
    reaches = [gamma // lt for gamma in gammas]
    # Per site, a trips-left digit then a gap digit (0: unstarted or done).
    left_weights, gap_weights, radix = [], [], 1
    for trips, reach in zip(left, reaches):
        left_weights.append(radix)
        gap_weights.append(radix * (trips + 1))
        radix *= (trips + 1) * (reach + 1)
    sites = range(len(ids))
    last: list[int | None] = [None] * len(ids)  # depth of each site's last load
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

    key = sum(trips * weight for trips, weight in zip(left, left_weights))
    feasible, objective, _ = walk(0, key, 0)
    if not feasible:
        return EnumerationResult(None, None, None, size, 0, len(memo))
    sequence, opened = [], 0
    for depth in range(total):
        k = memo[key][2]
        _, key, opened = child(depth, k, key, opened)
        left[k] -= 1
        last[k] = depth
        sequence.append(ids[k])
    return EnumerationResult(
        schedule=expand_consecutive(instance, sequence),
        sequence=tuple(sequence),
        objective=objective,
        visited=size,
        feasible_count=feasible,
        states=len(memo),
    )


GRID_MAX_SITES = 3
GRID_MAX_TRIPS = 9
GRID_MAX_HORIZON = 24


def grid_exact(
    instance: Instance, horizon: int | None = None, truck_limit: int | None = None
) -> EnumerationResult:
    """Exhaustive search over loading-slot assignments, allowing gaps.

    Unlike :func:`enumerate_exact` this explores schedules whose loadings
    are not back-to-back, at the price of a much larger search space; the
    instance size is therefore capped hard.  ``horizon`` is the number of
    loading slots, twice the trip count unless given.  With ``truck_limit``
    a slot is used only while fewer than that many loadings fall in the
    inclusive gamma window ending at it, the window :func:`trucks_required`
    counts.
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

    lt = instance.depot.loading_time
    start = instance.depot.start_time
    # A loading still ties up its truck this many slots later.
    reach = instance.depot.gamma // lt
    ids, remaining, offsets, unloads, gammas = map(list, zip(*instance.timings))
    last_load = [None] * len(ids)  # depot time of the site's last loading
    slots: list[tuple[int, int]] = []  # (slot index, site index), ascending

    best: tuple[int, tuple[tuple[int, int], ...]] | None = None

    def rec(slot: int, placed: int, wait: int) -> None:
        nonlocal best
        # Waiting only grows, and leaves come in increasing (slot, site)
        # order, so a later leaf must wait strictly less to win.
        if best is not None and wait >= best[0]:
            return
        if placed == trips:
            best = (wait, tuple(slots))
            return
        if horizon - slot + 1 < trips - placed:
            return
        slot_time = start + (slot - 1) * lt
        # A site whose pour window already closed can never be finished.
        for i, left in enumerate(remaining):
            if left and last_load[i] is not None and slot_time - last_load[i] > gammas[i]:
                return
        # Every truck still out: this slot can only stay empty.
        if truck_limit is not None and truck_limit <= len(slots) and (
            slots[-truck_limit][0] >= slot - reach
        ):
            rec(slot + 1, placed, wait)
            return
        for i, left in enumerate(remaining):
            if not left:
                continue
            previous = last_load[i]
            if previous is None:
                cost = slot_time + offsets[i]
            else:
                cost = slot_time - previous - unloads[i]
            remaining[i] -= 1
            last_load[i] = slot_time
            slots.append((slot, i))
            rec(slot + 1, placed + 1, wait + max(0, cost))
            slots.pop()
            last_load[i] = previous
            remaining[i] += 1
        rec(slot + 1, placed, wait)

    rec(1, 0, 0)

    if best is None:
        return EnumerationResult(None, None, None, None, None, None)

    wait, assignment = best
    seen = [0] * len(ids)
    slots = {}
    for slot, i in assignment:
        seen[i] += 1
        slots[TripId(ids[i], seen[i])] = slot
    schedule = schedule_from_slots(instance, slots)
    return EnumerationResult(
        schedule=schedule,
        sequence=schedule.dispatch_sequence(),
        objective=wait,
        visited=None,
        feasible_count=None,
        states=None,
    )
