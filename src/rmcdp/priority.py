"""Priority-rule search over site permutations.

Every permutation of the site list is turned into one schedule: the site in
position ``r`` gets the ``r``-th loading slot for its first trip, and each
following trip aims at ``beta * U_i`` after the previous one.  Occupied (or
truck-starved) slots push a trip to the next free slot; the delay is site
waiting.  A pushed trip that would land more than ``gamma`` after the
previous pour makes the permutation infeasible.  The best feasible
permutation wins; ties go to the lexicographically smallest permutation of
the instance's site list.

The search reads the integer site table ``Instance.timings``.  Sites whose
rows agree on everything but the id produce identical timings, so the search
runs over the distinct orderings of those rows (classes) and fans each class
out combinatorially.  Classes that share their first ``r`` rows share the
grid those ``r`` sites leave behind, so the search is one depth-first walk:
level ``r`` places the site in priority position ``r`` on its parent's grid,
and backtracking drops that placement.  A failed placement prunes the whole
subtree, since every class below it is infeasible too.  Each level keeps the
slots it booked, so the winner's schedule is read off the search instead of
being placed again.  The grid is an integer bitmask of booked slots, and for
``beta = p/q`` all waiting is summed in integer units of ``1/q`` seconds;
``Fraction`` only appears at the API boundary.  The search runs in the
calling process.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import Instance, ValidationError
from .schedule import Schedule, TripId, schedule_from_starts


class SlotGrid:
    """Loading slots of the single depot bay, in integers.

    Slot ``s`` (from 1) starts at ``start_time + (s - 1) * slot_length``.
    The booked slots are an ``int`` bitmask owned by the caller (bit ``s``
    set: slot ``s`` is taken).  Placing returns a new mask, so undoing a
    placement is going back to the mask before it.  A dispatched truck is
    busy for one inclusive gamma window, and a slot is truck-starved when
    ``truck_limit`` dispatches already fall in the window ending at it.
    Trip pacing is ``beta = pace / per``.
    """

    def __init__(
        self,
        start_time: int,
        slot_length: int,
        gamma: int,
        truck_limit: int | None = None,
        beta: Fraction = Fraction(1),
    ) -> None:
        self.start_time = start_time
        self.slot_length = slot_length
        #: Slots a dispatch keeps its truck busy for, endpoint included.
        self.busy_slots = gamma // slot_length + 1
        self.truck_limit = truck_limit
        self.pace = beta.numerator
        self.per = beta.denominator

    def slot_time(self, slot: int) -> int:
        return self.start_time + (slot - 1) * self.slot_length

    def step(self, unload_time: int) -> int:
        """Slots from one loading to the first slot at or after ``beta * U`` later."""
        return -(-self.pace * unload_time // (self.slot_length * self.per))

    def admissible(self, booked: int, slot: int) -> bool:
        if booked >> slot & 1:
            return False
        if self.truck_limit is None:
            return True
        low = max(0, slot - self.busy_slots + 1)
        return ((booked & ((2 << slot) - 1)) >> low).bit_count() < self.truck_limit

    def next_free(self, booked: int, slot: int) -> int:
        """First admissible slot at or after ``slot``."""
        while True:
            free = ~booked >> slot
            slot += (free & -free).bit_length() - 1
            if self.truck_limit is None or self.admissible(booked, slot):
                return slot
            slot += 1

    def place_site(
        self, booked: int, first_slot: int, trip_count: int, unload_time: int, gamma: int
    ) -> tuple[int, list[int], int] | None:
        """Book all trips of one site, or return None when a slide breaks ``gamma``.

        The first trip takes the first admissible slot at or after
        ``first_slot``; later trips aim ``beta * U`` after the previous
        loading and slide forward past inadmissible slots.  Returns the new
        mask, the booked slots and the inter-trip waiting in units of
        ``1 / per`` seconds: each slide past the target is waiting, and the
        slides telescope to the span between first and last loading.
        """
        step = self.step(unload_time)
        reach = gamma // self.slot_length
        slot = self.next_free(booked, first_slot)
        booked |= 1 << slot
        slots = [slot]
        for _ in range(trip_count - 1):
            previous = slot
            slot = self.next_free(booked, previous + step)
            if slot - previous > reach:
                return None
            booked |= 1 << slot
            slots.append(slot)
        wait = (slot - slots[0]) * self.slot_length * self.per - (
            trip_count - 1
        ) * self.pace * unload_time
        return booked, slots, wait


@dataclass(frozen=True)
class PrioritySearchStats:
    permutations_created: int
    feasible_count: int
    best_objective: int | None
    runtime: float

    @property
    def feasibility_rate(self) -> float:
        if not self.permutations_created:
            return 0.0
        return self.feasible_count / self.permutations_created


@dataclass(frozen=True)
class PriorityResult:
    schedule: Schedule | None
    permutation: tuple[int, ...] | None  # site ids in priority order
    sequence: tuple[int, ...] | None     # dispatch order by depot time
    stats: PrioritySearchStats


#: A row of ``Instance.timings`` without its id, and the positions of the
#: sites sharing it in the instance's site list.
_KeyGroup = tuple[tuple[int, int, int, int], list[int]]
#: Least total waiting (units of ``1 / per`` s), and each level's site
#: position with the slots it booked.
_Best = tuple[int, list[tuple[int, list[int]]]]


def _search(grid: SlotGrid, groups: Sequence[_KeyGroup]) -> tuple[int, _Best | None]:
    """Depth-first walk over all classes of the key groups.

    Returns the number of feasible classes and the best ``(wait, order)``;
    ties on waiting go to the smallest site-position list.  Equal positions
    in a shared prefix booked equal slots, so comparing ``order`` compares
    positions alone.
    """
    left = [len(positions) for _, positions in groups]
    level_count = sum(left)
    # Slot s is loaded at depot time base + s * L.
    base, lt, per = grid.start_time - grid.slot_length, grid.slot_length, grid.per
    order: list[tuple[int, list[int]]] = []
    feasible = 0
    best: _Best | None = None

    def walk(booked: int, level: int, wait: int) -> None:
        nonlocal feasible, best
        if level == level_count:
            feasible += 1
            if best is None or wait < best[0] or (wait == best[0] and order < best[1]):
                best = (wait, order[:])
            return
        for k in range(len(groups)):
            if not left[k]:
                continue
            (trips, offset, unload, gamma), positions = groups[k]
            placed = grid.place_site(booked, level + 1, trips, unload, gamma)
            if placed is None:
                continue
            child, slots, trip_wait = placed
            site_wait = max(0, base + slots[0] * lt + offset) * per + trip_wait
            order.append((positions[len(positions) - left[k]], slots))
            left[k] -= 1
            walk(child, level + 1, wait + site_wait)
            left[k] += 1
            order.pop()

    walk(0, 0, 0)
    return feasible, best


def priority_solve(
    instance: Instance,
    beta: Fraction | int | float | str = 1,
    truck_limit: int | None = None,
) -> PriorityResult:
    """Search all ``n!`` site permutations for the least total waiting."""
    beta = Fraction(str(beta))
    if beta < 1:
        raise ValidationError(f"beta: must be at least 1, got {beta}")
    if truck_limit is not None and truck_limit <= 0:
        raise ValidationError("truck_limit: must be positive when given")

    started = time.perf_counter()
    depot = instance.depot
    grid = SlotGrid(depot.start_time, depot.loading_time, depot.gamma, truck_limit, beta)
    created = math.factorial(len(instance.sites))

    rows = instance.timings
    members: dict[tuple[int, ...], list[int]] = {}
    for position, row in enumerate(rows):
        members.setdefault(row[1:], []).append(position)
    groups = list(members.items())
    multiplicity = math.prod(math.factorial(len(p)) for p in members.values())

    feasible_classes, best = _search(grid, groups)
    if best is None:
        stats = PrioritySearchStats(
            permutations_created=created,
            feasible_count=0,
            best_objective=None,
            runtime=time.perf_counter() - started,
        )
        return PriorityResult(None, None, None, stats)

    wait_units, order = best
    starts = {
        TripId(rows[position][0], index): grid.slot_time(slot)
        for position, slots in order
        for index, slot in enumerate(slots, start=1)
    }
    schedule = schedule_from_starts(instance, starts, "priority")
    wait = Fraction(wait_units, grid.per)
    objective = int(wait) if wait.denominator == 1 else float(wait)
    stats = PrioritySearchStats(
        permutations_created=created,
        feasible_count=feasible_classes * multiplicity,
        best_objective=objective,
        runtime=time.perf_counter() - started,
    )
    return PriorityResult(
        schedule=schedule,
        permutation=tuple(rows[position][0] for position, _ in order),
        sequence=schedule.dispatch_sequence(),
        stats=stats,
    )
