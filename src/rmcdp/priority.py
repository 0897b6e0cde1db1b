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
being placed again.  The grid is an integer bitmask of booked slots (bit
``s`` set: slot ``s``, loaded at ``start + (s - 1) * L_t``, is taken), and a
slot is truck-starved when ``truck_limit`` loadings already fall in the
inclusive gamma window ending at it.  Each site's step to its next target
slot and its pour-window reach in slots are derived once per solve.  For
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

from .model import DepotSpec, Instance, ValidationError, _fraction, check_truck_limit
from .schedule import Schedule, TripId, schedule_from_slots


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


#: One site-equivalence key: trips, first-trip offset, slots from a loading
#: to the next trip's target (``ceil(beta * U_i / L_t)``), pour-window reach
#: in slots (``gamma_i // L_t``), the planned ``(trips - 1) * beta * U_i`` in
#: units of ``1 / per`` s, and the positions of the sites sharing the key in
#: the instance's site list.
_KeyGroup = tuple[int, int, int, int, int, list[int]]
#: Least total waiting (units of ``1 / per`` s), and each level's site
#: position with the slots it booked.
_Best = tuple[int, list[tuple[int, list[int]]]]


def _search(
    depot: DepotSpec, truck_limit: int | None, per: int, groups: Sequence[_KeyGroup]
) -> tuple[int, _Best | None]:
    """Depth-first walk over all classes of the key groups.

    Level ``r`` books the first trip of a site in the first admissible slot
    at or after ``r``; each later trip takes the first admissible slot at or
    after ``step`` slots past the previous loading, and the site fails when
    that slide passes ``reach``.  Returns the number of feasible classes and
    the best ``(wait, order)``; ties on waiting go to the smallest
    site-position list.  Equal positions in a shared prefix booked equal
    slots, so comparing ``order`` compares positions alone.
    """
    left = [len(group[-1]) for group in groups]
    level_count = sum(left)
    lt = depot.loading_time
    # Slot s is loaded at depot time base + s * lt; a loading keeps its truck
    # busy for ``busy`` slots, its own included.
    base, unit, busy = depot.start_time - lt, lt * per, depot.gamma // lt + 1
    order: list[tuple[int, list[int]]] = []
    feasible = 0
    best: _Best | None = None

    def free(booked: int, slot: int) -> int:
        """First admissible slot at or after ``slot``."""
        while True:
            gaps = ~booked >> slot
            slot += (gaps & -gaps).bit_length() - 1
            if truck_limit is None or (
                (booked & ((2 << slot) - 1)) >> max(0, slot - busy + 1)
            ).bit_count() < truck_limit:
                return slot
            slot += 1

    def walk(booked: int, level: int, wait: int) -> None:
        nonlocal feasible, best
        if level == level_count:
            feasible += 1
            if best is None or wait < best[0] or (wait == best[0] and order < best[1]):
                best = (wait, order[:])
            return
        for k, (trips, offset, step, reach, planned, positions) in enumerate(groups):
            if not left[k]:
                continue
            first = slot = free(booked, level + 1)
            child = booked | 1 << slot
            slots = [slot]
            for _ in range(trips - 1):
                previous = slot
                slot = free(child, previous + step)
                if slot - previous > reach:
                    break
                child |= 1 << slot
                slots.append(slot)
            else:
                # Each slide past a target is waiting, and the slides
                # telescope to the span between first and last loading.
                site_wait = (
                    max(0, base + first * lt + offset) * per
                    + (slot - first) * unit
                    - planned
                )
                order.append((positions[len(positions) - left[k]], slots))
                left[k] -= 1
                walk(child, level + 1, wait + site_wait)
                left[k] += 1
                order.pop()

    walk(0, 0, 0)
    return feasible, best


def parse_beta(beta: Fraction | int | float | str) -> Fraction:
    """The pacing factor as an exact fraction; it must be a number of at least 1."""
    value = _fraction(beta, "beta")
    if value < 1:
        raise ValidationError(f"beta: must be at least 1, got {value}")
    return value


def priority_solve(
    instance: Instance,
    beta: Fraction | int | float | str = 1,
    truck_limit: int | None = None,
) -> PriorityResult:
    """Search all ``n!`` site permutations for the least total waiting."""
    beta = parse_beta(beta)
    check_truck_limit(truck_limit)

    started = time.perf_counter()
    depot = instance.depot
    lt = depot.loading_time
    pace, per = beta.numerator, beta.denominator
    created = math.factorial(len(instance.sites))

    rows = instance.timings
    members: dict[tuple[int, ...], list[int]] = {}
    for position, row in enumerate(rows):
        members.setdefault(row[1:], []).append(position)
    groups = [
        (
            trips,
            offset,
            -(-pace * unload // (lt * per)),
            gamma // lt,
            (trips - 1) * pace * unload,
            positions,
        )
        for (trips, offset, unload, gamma), positions in members.items()
    ]
    multiplicity = math.prod(math.factorial(len(p)) for p in members.values())

    feasible_classes, best = _search(depot, truck_limit, per, groups)
    if best is None:
        stats = PrioritySearchStats(
            permutations_created=created,
            feasible_count=0,
            best_objective=None,
            runtime=time.perf_counter() - started,
        )
        return PriorityResult(None, None, None, stats)

    wait_units, order = best
    slots = {
        TripId(rows[position][0], index): slot
        for position, booked in order
        for index, slot in enumerate(booked, start=1)
    }
    schedule = schedule_from_slots(instance, slots)
    whole, rest = divmod(wait_units, per)
    objective = wait_units / per if rest else whole
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
