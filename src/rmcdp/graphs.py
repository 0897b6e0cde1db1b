"""Graph view of the dispatch problem and sequence-space solvers.

Trips are vertices of a complete graph (plus a depot vertex); every vertex
carries its site as a label.  A dispatch order is a Hamiltonian path from
the depot, its cost the total site waiting.  This module provides:

* ``greedy_solve`` -- cheapest-next-vertex heuristic with label-level
  dynamic edge weights,
* ``enumerate_exact`` -- exact search over all distinct dispatch
  sequences (consecutive loading slots),
* ``grid_exact`` -- exact search over loading-slot assignments, which may
  leave a slot idle under a fleet limit.

Every search reads the integer site table ``Instance.timings``.  Both
exact searches run one dynamic programme over slot prefixes,
``_slot_search``, whose one recursive walk prunes every schedule below a
trip that breaks its site's pour window and breaks ties towards the
assignment smallest in ``(slot, site position)`` order.  The walk looks
each child up before calling itself, so a leaf or a memo hit costs no call,
and keeps the slot by which each open site must load next.  Each memo
entry links to the entry of its best child, so the winner is read off by
following links from the root, slot by slot, which also gives the
dispatch sequence.  Its node keys also carry the idle slots used and the
recent loads, which a fleet limit needs, so the walk alone decides whether
a limit leaves anything feasible; without one both stay empty and no slot
is left idle, since repacking the loads onto the first slots shortens no
gap, so an idle slot never lowers the waiting.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .model import (
    SEARCH_MAX_DEPTH,
    Instance,
    SizeCapError,
    check_search_size,
    check_truck_limit,
    slot_horizon,
    solution_space_size,
    total_trips,
)
from .schedule import (
    FeasibilityReport,
    Schedule,
    TripId,
    check,
    expand_consecutive,
    schedule_from_slots,
)

ENUMERATION_CAP = 10_000_000


class RmcdpGraph(NamedTuple):
    """Complete graph over all trips with the depot as extra vertex 0."""

    instance: Instance
    labels: tuple[int, ...]  # site label of vertices 1..|K|


def build_graph(instance: Instance) -> RmcdpGraph:
    labels = tuple(trip.site_id for trip in instance.trips)
    return RmcdpGraph(instance=instance, labels=labels)


class GreedyStep(NamedTuple):
    chosen_label: int
    #: Edge cost per label for the *remaining* vertices after the update.
    costs: dict[int, int]


class GreedyResult(NamedTuple):
    sequence: tuple[int, ...]
    schedule: Schedule
    report: FeasibilityReport
    steps: tuple[GreedyStep, ...]


def greedy_solve(
    instance: Instance, truck_limit: int | None = None
) -> GreedyResult:
    """Append the cheapest remaining vertex until every trip is placed.

    Edge weights live on labels and follow from where each label last
    loaded: once the vertex at position ``placed`` is appended, a visited
    label ``l`` weighs ``U_l - L_t * (placed - latest[l])`` for its last
    position ``latest[l]``, and a label not yet visited weighs 0.  That is
    ``L_t`` minus the unclamped gap wait of a load at the next position.
    A negative weight means the truck would idle at the site, so the least
    non-negative weight wins, else the largest negative one; ties go to the
    lowest site id.
    """
    check_truck_limit(truck_limit)
    lt = instance.depot.loading_time
    remaining = {site_id: trips for site_id, trips, *_ in sorted(instance.timings)}
    unloads = {site_id: unload for site_id, _, _, unload, _ in instance.timings}
    latest: dict[int, int] = {}
    weights = dict.fromkeys(remaining, 0)
    sequence: list[int] = []
    steps: list[GreedyStep] = []
    while weights:
        label = min(weights, key=lambda l: (weights[l] < 0, abs(weights[l]), l))
        remaining[label] -= 1
        latest[label] = placed = len(sequence)
        sequence.append(label)
        weights = {
            l: unloads[l] - lt * (placed - latest[l]) if l in latest else 0
            for l, trips in remaining.items()
            if trips
        }
        steps.append(GreedyStep(chosen_label=label, costs=weights))

    schedule = expand_consecutive(instance, sequence)
    return GreedyResult(
        sequence=tuple(sequence),
        schedule=schedule,
        report=check(instance, schedule, truck_limit=truck_limit),
        steps=tuple(steps),
    )


class EnumerationResult(NamedTuple):
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
#: total waiting (``None`` when there is none), the site index the best
#: completion loads next (the number of sites for an idle slot) and the
#: entry of the child it leads to (``None`` when there is none).
_Entry = tuple[int, int | None, int, "_Entry | None"]
_LEAF: _Entry = (1, 0, -1, None)  # every node with nothing left to load
_DEAD: _Entry = (0, None, -1, None)  # a node with two sites due at once


def _slot_search(
    instance: Instance,
    rows: Sequence[tuple[int, int, int, int, int]],
    horizon: int,
    truck_limit: int | None,
) -> tuple[int, int | None, Schedule | None, tuple[int, ...] | None, int]:
    """Least total waiting over assignments of the site table ``rows`` to
    ``horizon`` loading slots.

    Slot ``d`` (from 0) loads at ``start + d * L_t``, so below a prefix
    only each site's trips left and, for a site started but unfinished,
    the slot of its last load matter: a next trip at ``d`` waits
    ``max(0, g * L_t - U_i)`` for the gap ``g`` since that load, and breaks
    the pour window when ``g > gamma_i // L_t``, the site's reach.  A node
    is keyed by two digits per site in one mixed-radix int: the trips left
    and the last-load slot plus one (radix ``horizon + 1``; 0 while
    unstarted or done).  The trips done and the idle slots used, both in
    the key, fix the node's depth, so the last-load slot and the gap carry
    the same information.  A node keeps its count of feasible completions,
    their least waiting, its best next choice (the first with strictly the
    least waiting, so ties go to the assignment smallest in ``(slot, row
    position)`` order) and the entry of that child; the winner is read off
    by following those links from the root.  A child whose gap would pass
    its reach is pruned, so the count stays exact: each open site keeps a
    deadline, its last-load digit plus its reach, and a site whose
    deadline is the node's depth plus one is the only one that may load.
    A node with two sites due at once stores the shared dead entry and
    returns.  The walk works out each child's key in its candidate loop
    and looks it up (a leaf, then the memo) before any call, so only a
    miss recurses.

    Below the site digits the key holds the fleet state: a digit for the
    idle slots used (radix ``horizon - trips + 1``) and under it one bit
    per slot of the last ``gamma // L_t`` slots, set where a truck was
    loaded.  A site loads only while fewer than ``truck_limit`` bits are
    set, the inclusive window :func:`trucks_required` counts, and each node
    tries an idle child after the sites, since an idle slot can free a
    truck.  A window holds at most ``min(T, gamma // L_t + 1)`` loadings of
    the ``T`` trips, so a limit that large refuses no load and runs as no
    limit.  Without a binding ``truck_limit`` both are empty and no slot is
    left idle: repacking any assignment's loads onto slots 1..T in the same
    order keeps it feasible, lengthens no gap and delays no first trip, so
    it waits no more and is smaller in the tie-break order.  The optimum
    and its tie-break winner are then consecutive, and ``horizon`` does not
    matter.  With a limit and one slot per trip no slot is spare, so no
    node idles and the load bits follow from the depth.

    Returns the feasible count, the least waiting, the winning schedule and
    its dispatch sequence (the last three ``None`` when there is none), and
    the nodes solved.  The read-off walks the winner slot by slot, so the
    sequence comes out in depot-time order.
    """
    lt = instance.depot.loading_time
    start, window = instance.depot.start_time, instance.depot.gamma // lt
    ids, left, offsets, unloads, gammas = map(list, zip(*rows))
    # Accessibility (L_t + h_i + U_i <= gamma_i) makes every reach at least
    # one slot, so a site's own next slot never breaks its window.
    reaches = [gamma // lt for gamma in gammas]
    # Load bits and idle slots: none without a fleet limit, nor under one at
    # least min(T, window + 1), the most loadings a window can hold.
    mask = spare = 0
    if truck_limit is not None and truck_limit < min(sum(left), window + 1):
        mask, spare = (1 << window) - 1, horizon - sum(left)
    idle_weight = mask + 1
    idle_cap = spare * idle_weight  # fleet digits of a node that may idle
    low = idle_weight * (spare + 1)  # radix of the fleet digits
    # Per site, above them, a trips-left digit then a last-load digit.
    left_weights, last_weights, radix = [], [], low
    for trips in left:
        left_weights.append(radix)
        last_weights.append(radix * (trips + 1))
        radix *= (trips + 1) * (horizon + 1)
    idle = len(ids)
    sites = range(len(ids))
    last = [0] * len(ids)  # each site's last-load slot plus one, 0 if none
    # Each open site's last-load digit plus its reach: the digit a load
    # must leave by; 0 while a site is unstarted or done.
    deadline = [0] * len(ids)
    memo: dict[int, _Entry] = {}
    memo_get = memo.get

    def walk(depth: int, key: int) -> _Entry:
        slot = depth + 1  # the last-load digit a load at ``depth`` leaves
        due = deadline.count(slot)
        if due > 1:  # two sites at the end of their reach cannot both load
            memo[key] = _DEAD
            return _DEAD
        # A site at the end of its reach loads now or never finishes.
        candidates = (deadline.index(slot),) if due else sites
        loaded = key  # the key with the load bits a load at ``depth`` leaves
        if mask:
            busy = key & mask
            if busy.bit_count() >= truck_limit:  # every truck still out
                candidates = ()
            loaded += ((busy << 1 | 1) & mask) - busy
        count, best, choice, link = 0, None, -1, None
        for k in candidates:
            trips = left[k]
            if not trips:
                continue
            previous = last[k]
            # k's last-load digit becomes this slot, or 0 when it is done.
            child = (
                loaded
                - left_weights[k]
                + ((slot if trips > 1 else 0) - previous) * last_weights[k]
            )
            if child < low:  # no trips left and no open site
                below = _LEAF
            else:
                below = memo_get(child)
                if below is None:
                    was = deadline[k]
                    left[k], last[k] = trips - 1, slot
                    deadline[k] = slot + reaches[k] if trips > 1 else 0
                    below = walk(slot, child)
                    left[k], last[k], deadline[k] = trips, previous, was
                if not below[0]:
                    continue
            count += below[0]
            if previous:
                cost = (slot - previous) * lt - unloads[k]
            else:
                cost = start + depth * lt + offsets[k]
            if cost < 0:
                cost = 0
            if best is None or below[1] + cost < best:
                best, choice, link = below[1] + cost, k, below
        # Idle after the sites, while the horizon spares a slot: never
        # without a fleet limit, where ``idle_cap`` is 0 and is tested
        # first.  The site digits stay as they are, so the idle child is
        # never a leaf.
        if idle_cap and not due and key % low < idle_cap:
            busy = key & mask
            child = key + idle_weight + (busy << 1 & mask) - busy
            below = memo_get(child)
            if below is None:
                below = walk(slot, child)
            if below[0]:
                count += below[0]
                if best is None or below[1] < best:
                    best, choice, link = below[1], idle, below
        entry = memo[key] = (count, best, choice, link)
        return entry

    entry = walk(0, sum(trips * weight for trips, weight in zip(left, left_weights)))
    feasible, objective = entry[:2]
    slots: dict[TripId, int] = {}  # filled in slot order
    depth, trip_id = 0, TripId._make
    while entry[3] is not None:
        k = entry[2]
        if k != idle:
            left[k] -= 1
            slots[trip_id((ids[k], rows[k][1] - left[k]))] = depth + 1
        depth += 1
        entry = entry[3]
    schedule = schedule_from_slots(instance, slots) if feasible else None
    sequence = tuple(trip.site_id for trip in slots) if feasible else None
    return feasible, objective, schedule, sequence, len(memo)


def enumerate_exact(
    instance: Instance, truck_limit: int | None = None
) -> EnumerationResult:
    """Try every distinct dispatch sequence on consecutive loading slots.

    The sites are searched in id order by :func:`_slot_search`, so ties go
    to the smallest sequence.  ``feasible_count`` counts the feasible
    sequences exactly, ``visited`` reports the whole space and ``states``
    is the number of nodes solved, also when nothing is feasible.  A space
    above ``ENUMERATION_CAP`` or more trips than ``SEARCH_MAX_DEPTH`` raises
    :class:`SizeCapError`.  Without a fleet limit some sequence is always
    feasible: loading each site's trips back to back keeps every gap at one
    slot, within the reach accessibility (``L_t + h_i + U_i <= gamma_i``)
    gives every site.

    ``truck_limit`` goes to the same search with one slot per trip, so no
    slot is spare and none is left idle: the load bits of a node then
    follow from its depth, and the DP's window test refuses a limit exactly
    when one inclusive gamma window of consecutive loadings holds more
    loads than the fleet, for every sequence alike.
    """
    check_truck_limit(truck_limit)
    size = solution_space_size(instance)
    if size > ENUMERATION_CAP:
        # The size itself can pass the digits str() of an int may print.
        raise SizeCapError(f"sequence space is above the cap of {ENUMERATION_CAP}")
    total = total_trips(instance)
    check_search_size("exact search", total, SEARCH_MAX_DEPTH, "trips")
    feasible, objective, schedule, sequence, states = _slot_search(
        instance, sorted(instance.timings), total, truck_limit
    )
    return EnumerationResult(schedule, sequence, objective, size, feasible, states)


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
    trip count unless given.  More sites, trips or slots than the
    ``GRID_MAX_*`` caps raise :class:`SizeCapError`; a horizon outside
    :func:`slot_horizon`'s range stays a :class:`ValidationError`.
    """
    check_search_size("grid search", len(instance.sites), GRID_MAX_SITES, "sites")
    check_search_size("grid search", total_trips(instance), GRID_MAX_TRIPS, "trips")
    horizon = slot_horizon(instance, horizon)
    check_search_size("grid search", horizon, GRID_MAX_HORIZON, "slots")
    check_truck_limit(truck_limit)

    _, objective, schedule, sequence, _ = _slot_search(
        instance, instance.timings, horizon, truck_limit
    )
    return EnumerationResult(schedule, sequence, objective, None, None, None)
