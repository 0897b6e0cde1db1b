"""Priority-rule search over site permutations, by dynamic programming.

Every permutation of the site list is turned into one schedule: the site in
position ``r`` gets the ``r``-th loading slot for its first trip, and each
following trip aims at ``beta * U_i`` after the previous one.  Occupied (or
truck-starved) slots push a trip to the next free slot; the delay is site
waiting.  A pushed trip that would land more than ``gamma`` after the
previous pour makes the permutation infeasible.  The best feasible
permutation wins; ties go to the lexicographically smallest permutation of
the instance's site list.

The search reads the integer site table ``Instance.timings``.  A site's
first trip loaded at depot time ``t`` waits ``max(0, t + offset)``.  When
``depot start + offset >= 0`` it cannot arrive early even at the opening, so
it waits ``t + offset`` wherever it goes: its offset is a constant of the
objective, added once to the winner, and feasibility never reads it.  Such a
site keys as ``(trips, 0, U_i, gamma_i)``; any other keys as ``(trips,
offset, U_i, gamma_i)``.  Sites of one key are interchangeable, so they form
one key group, the search runs over the distinct orderings of the groups
(classes) and fans each class out combinatorially.  Placing sites in
priority order is a walk down a tree whose level ``r`` places the site in
position ``r`` on the grid its parent left behind; a failed placement
prunes the whole subtree.  The grid is an integer bitmask of booked slots
(bit ``s`` set: slot ``s``, loaded at ``start + (s - 1) * L_t``, is taken),
and a slot is truck-starved when ``truck_limit`` loadings already fall in
the inclusive gamma window ending at it, ``busy`` slots long.

From level ``r`` down only slots from ``r + 1`` are tested, and a truck test
at slot ``s`` reads the grid back to ``s - busy + 1``, so nothing below a
node reads a bit under its frontier ``lo = r + 1``, or ``max(0, r + 2 -
busy)`` under a truck limit.  The walk is therefore memoised on the sites
left and the booked bits from ``lo`` up, the ``(sites left, slot frontier)``
dynamic programme the method is named for: Held-Karp over subsets of sites,
with the frontier as extra state.  A node's key is one int, the frontier
bits times the radix plus the sites left as a mixed-radix code with one
digit per key group.  Feasible counts add up over a node's children, and
its best completion is the least ``(wait, position)`` over them; different
key groups always offer different next positions, so that pair settles the
tie-break on the smallest site-position list exactly.

Each group's step to its next target slot (``ceil(beta * U_i / L_t)``), its
pour-window reach in slots (``gamma_i // L_t``) and its later trips' targets
as a bitmask are derived once per solve.  Every child's first trip is tested
on the node's own grid, so a node finds that shared first slot once, and it
scans only the groups with sites left, passed down the walk as the pending
rows.  A site whose later targets are all free, and whose trips leave the
node's loadings at or below the fleet, takes them with one OR; any other
site walks its later trips in one inline slot loop and fails when a slide
passes its reach.

The fleet rule lives in one local function, ``free``: the first slot from
a given one that is unbooked and has fewer than ``truck_limit`` loadings in
the window ending at it.  A grid of fewer loadings than the fleet cannot
fill a window, so the walk calls ``free`` only once the grid holds
``truck_limit`` loadings, and never without a limit; until then a slot is
found by hopping over booked bits alone.  When the window ending at a
tested slot is full by ``over`` loadings, every window up to its
``(over + 1)``-th lowest loading plus ``busy`` keeps ``truck_limit`` of
them, so ``free`` jumps there instead of stepping slot by slot.

Each child is looked up
before any call, so a memo hit or a leaf costs no recursion, and a site's
waiting is worked out only once its subtree turns out feasible.  Each node
keeps its count of feasible completions, their least waiting, the group
placed next on the way to it, the entry of that child and the slots that
site booked (the child's grid XOR the node's); the winner is read off those
links straight into the slot of each trip.  For ``beta = p/q`` all waiting
is summed in integer units of ``1/q`` seconds; ``Fraction`` only appears at
the API boundary.  The search runs in the calling process.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import NamedTuple

from .model import (
    SEARCH_MAX_DEPTH,
    Instance,
    ValidationError,
    _shown,
    check_search_size,
    check_truck_limit,
)
from .schedule import Schedule, TripId, schedule_from_slots


class PrioritySearchStats(NamedTuple):
    permutations_created: int
    feasible_count: int
    best_objective: int | None
    runtime: float
    states: int      # search nodes solved: (sites left, slot frontier) pairs
    memo_hits: int   # nodes reached again and answered from the memo

    @property
    def feasibility_rate(self) -> float:
        return self.feasible_count / self.permutations_created


class PriorityResult(NamedTuple):
    schedule: Schedule | None
    permutation: tuple[int, ...] | None  # site ids in priority order
    sequence: tuple[int, ...] | None     # dispatch order by depot time
    stats: PrioritySearchStats


#: What the search found below one node: feasible completions, their least
#: total waiting (units of ``1 / per`` s, ``None`` when there is none), the
#: key group whose next site the best completion places first, the entry of
#: the child it leads to (``None`` when there is none) and that site's slots
#: as a bitmask.
_Entry = tuple[int, int | None, int, "_Entry | None", int]
_LEAF: _Entry = (1, 0, -1, None, 0)  # every node with no site left to place


def parse_beta(beta: Fraction | int | float | str) -> Fraction:
    """The pacing factor as an exact fraction; it must be a number of at least 1.

    A bool is not a number, and text is read as the instance files are:
    ASCII, with no ``_`` between digits.
    """
    try:
        if isinstance(beta, (Fraction, int)) and not isinstance(beta, bool):
            value = Fraction(beta)  # taken as it is, never written out as digits
        else:
            text = str(beta)  # a bool reads "True" or "False": not a number
            if not text.isascii() or "_" in text:
                raise ValueError(text)
            value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"beta: not a number: {_shown(beta)}") from exc
    if value < 1:
        raise ValidationError(f"beta: must be at least 1, got {_shown(beta)}")
    return value


def priority_solve(
    instance: Instance,
    beta: Fraction | int | float | str = 1,
    truck_limit: int | None = None,
) -> PriorityResult:
    """The site permutation with the least total waiting, over all ``n!``.

    The permutations are searched as classes of interchangeable sites, by
    dynamic programming over ``(sites left, slot frontier)``; the stats
    report the ``n!`` permutations, how many are feasible, and the nodes
    solved (``states``) and answered again from the memo (``memo_hits``).
    More sites than ``SEARCH_MAX_DEPTH`` raise ``SizeCapError``.
    """
    beta = parse_beta(beta)
    check_truck_limit(truck_limit)
    check_search_size("priority search", len(instance.sites), SEARCH_MAX_DEPTH, "sites")

    started = time.perf_counter()
    depot = instance.depot
    lt = depot.loading_time
    pace, per = beta.numerator, beta.denominator
    created = math.factorial(len(instance.sites))

    rows = instance.timings
    # A site whose first trip cannot arrive early, even loaded at the
    # opening, waits ``t + offset`` wherever it goes: it keys with offset 0,
    # and the offsets it drops (``fixed``) are added once to the winner.
    members: dict[tuple[int, ...], list[int]] = {}
    opening, fixed = depot.start_time, 0
    for position, (_, trips, offset, unload, gamma) in enumerate(rows):
        if opening + offset >= 0:
            fixed, offset = fixed + offset, 0
        members.setdefault((trips, offset, unload, gamma), []).append(position)
    # One row per key group k that can be placed: k, its weight in the code
    # of the sites left, trips, first-trip offset, step, reach, the planned
    # ``(trips - 1) * beta * U_i`` in units of ``1 / per`` s, the positions of
    # its sites, its later trips' slots as offsets from the first (``tail``)
    # and the last one's offset, when none slides.  A site of several trips
    # whose step passes its reach can never be placed: its group gets no row
    # but keeps its digit, so a code that still counts it never reaches 0.
    left, placeable, radix = [], [], 1
    for k, ((trips, offset, unload, gamma), positions) in enumerate(members.items()):
        step, reach = -(-pace * unload // (lt * per)), gamma // lt
        if trips == 1 or step <= reach:
            placeable.append((
                k, radix, trips, offset, step, reach, (trips - 1) * pace * unload,
                positions, sum(1 << j * step for j in range(1, trips)), (trips - 1) * step,
            ))
        left.append(len(positions))
        radix *= len(positions) + 1
    multiplicity = math.prod(math.factorial(size) for size in left)

    # Slot s is loaded at depot time base + s * lt; a loading keeps its truck
    # busy for ``busy`` slots, its own included.
    base, unit, busy = depot.start_time - lt, lt * per, depot.gamma // lt + 1
    # A grid a trip is tested on holds fewer loadings than there are trips,
    # so a fleet of one truck per trip, as without a limit, never binds.
    fleet, window = truck_limit or len(instance.trips), (1 << busy) - 1
    memo: dict[int, _Entry] = {}
    memo_get, hits = memo.get, 0

    def free(grid: int, slot: int) -> int:
        """The first slot from ``slot`` that is unbooked and has fewer than
        ``truck_limit`` loadings in the window of ``busy`` slots ending at it."""
        while True:
            ahead = grid >> slot  # hop over the booked slots from ``slot`` up
            slot += (ahead ^ (ahead + 1)).bit_length() - 1
            loads = (grid << busy >> slot + 1) & window  # bit j: slot + 1 - busy + j
            over = loads.bit_count() - truck_limit
            if over < 0:
                return slot
            # Each window up to the (over + 1)-th lowest of these loadings
            # plus ``busy`` still holds ``truck_limit`` of them: jump past.
            for _ in range(over):
                loads &= loads - 1
            slot += (loads & -loads).bit_length()

    def walk(booked: int, level: int, code: int, node: int, pending: tuple) -> _Entry:
        nonlocal hits
        # The frontier of the children, one level down, and the loadings
        # the grid takes before a window can fill.
        if truck_limit is None:
            lo, room = level + 2, fleet
        else:
            lo, room = max(0, level + 3 - busy), fleet - booked.bit_count()
        # Every site's first trip is tested on this node's grid, so all of
        # them take the same first admissible slot from ``level + 1``.
        if room > 0:
            ahead = booked >> level + 1
            first = level + (ahead ^ (ahead + 1)).bit_length()
        else:
            first = free(booked, level + 1)
        opened, start = booked | 1 << first, base + first * lt
        count, best, lead, choice, link, taken = 0, None, 0, -1, None, 0
        for i, group in enumerate(pending):
            k, weight, trips, offset, step, reach, planned, positions, tail, span = group
            later = tail << first
            if trips <= room and not later & booked:
                # Every later trip lands on its own target: no slide, no wait.
                child, last = opened | later, first + span
            else:
                child, last, slot, todo = opened, first, first + step, trips - 1
                crowded = trips - room  # from this many trips left, a window can fill
                while todo:
                    if todo > crowded:
                        ahead = child >> slot
                        slot += (ahead ^ (ahead + 1)).bit_length() - 1
                    else:
                        slot = free(child, slot)
                    if slot > last + reach:
                        break
                    child |= 1 << slot
                    last, slot, todo = slot, slot + step, todo - 1
                if todo:  # a slide broke the pour window
                    continue
            rest = code - weight
            if not rest:
                below = _LEAF
            else:
                key = (child >> lo) * radix + rest
                below = memo_get(key)
                if below is None:
                    left[k] -= 1  # a group leaves ``pending`` with its last site
                    still = pending if left[k] else pending[:i] + pending[i + 1:]
                    below = walk(child, level + 1, rest, key, still)
                    left[k] += 1
                else:
                    hits += 1
                if not below[0]:
                    continue
            count += below[0]
            # Each slide past a target is waiting, and the slides telescope
            # to the span between first and last loading.
            early = start + offset
            wait = (early if early > 0 else 0) * per + (last - first) * unit - planned + below[1]
            position = positions[-left[k]]
            if best is None or wait < best or wait == best and position < lead:
                best, lead, choice, link, taken = wait, position, k, below, child ^ booked
        entry = memo[node] = (count, best, choice, link, taken)
        return entry

    entry = walk(0, 0, radix - 1, radix - 1, tuple(placeable))
    feasible_classes, wait = entry[:2]
    schedule = permutation = sequence = objective = None
    if wait is not None:
        positions, trip_id = list(members.values()), TripId._make
        slots, order = {}, []
        while entry[3] is not None:
            k, bits = entry[2], entry[4]
            site_id = rows[positions[k][-left[k]]][0]
            left[k] -= 1
            order.append(site_id)
            index = 0
            while bits:  # pop the site's booked slots, lowest first
                low = bits & -bits
                index += 1
                slots[trip_id((site_id, index))] = low.bit_length() - 1
                bits ^= low
            entry = entry[3]
        schedule = schedule_from_slots(instance, slots)
        permutation = tuple(order)
        sequence = schedule.dispatch_sequence()
        wait += fixed * per
        whole, rest = divmod(wait, per)
        objective = wait / per if rest else whole
    stats = PrioritySearchStats(
        permutations_created=created,
        feasible_count=feasible_classes * multiplicity,
        best_objective=objective,
        runtime=time.perf_counter() - started,
        states=len(memo),
        memo_hits=hits,
    )
    return PriorityResult(schedule, permutation, sequence, stats)
