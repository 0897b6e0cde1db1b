"""Schedules, feasibility checking and objective evaluation.

A schedule is a set of timed trips.  The checker collects every violation
instead of stopping at the first one; the evaluator computes site waiting
(first delivery later than requested, or a delivery gap wider than the
unloading time) and truck idling at sites (a delivery arriving before the
previous one has finished unloading).
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import Mapping, NamedTuple, Sequence

from .model import Instance, InputError, TripId, ValidationError, check_truck_limit


class ScheduleEntry(NamedTuple):
    """One timed trip.  As a named tuple it equals, hashes and unpacks as
    the plain tuple of its fields."""

    trip: TripId
    depot_start: int       # loading starts at the depot
    site_arrival: int      # pouring starts at the site
    site_departure: int    # pouring done, truck heads back
    cumulative_delivered: float  # m3 at the site after this trip

    @property
    def site_id(self) -> int:
        return self.trip.site_id


class Schedule(NamedTuple):
    entries: tuple[ScheduleEntry, ...]

    def by_site(self) -> dict[int, list[ScheduleEntry]]:
        grouped: dict[int, list[ScheduleEntry]] = {}
        for entry in self.entries:
            grouped.setdefault(entry.site_id, []).append(entry)
        for entries in grouped.values():
            entries.sort(key=attrgetter("trip"))  # one site: by trip index
        return grouped

    def dispatch_sequence(self) -> tuple[int, ...]:
        """Site ids ordered by depot loading time."""
        return tuple(e.site_id for e in sorted(self.entries, key=attrgetter("depot_start")))


class Violation(NamedTuple):
    kind: str
    trips: tuple[TripId, ...]
    measured: float
    bound: float
    detail: str = ""


class FeasibilityReport(NamedTuple):
    feasible: bool
    violations: tuple[Violation, ...]


class SiteObjective(NamedTuple):
    first_wait: int
    inter_trip_wait: int
    truck_idle: int


class ObjectiveReport(NamedTuple):
    first_wait_total: int
    inter_trip_wait_total: int
    truck_idle_total: int
    trucks_required: int
    per_site: Mapping[int, SiteObjective]

    @property
    def total_site_wait(self) -> int:
        return self.first_wait_total + self.inter_trip_wait_total


def expand_consecutive(instance: Instance, sequence: Sequence[int]) -> Schedule:
    """Expand a dispatch sequence into timed trips on consecutive slots.

    Trip ``i`` of the sequence takes slot ``i``.  The sequence must contain
    each site exactly as many times as it has trips.
    """
    expected = Counter(trip.site_id for trip in instance.trips)
    actual = Counter(sequence)
    if actual != expected:
        raise InputError(
            f"sequence multiset {dict(sorted(actual.items()))} does not match "
            f"required trips per site {dict(sorted(expected.items()))}"
        )

    seen: Counter[int] = Counter()
    slots, trip_id = {}, TripId._make
    for slot, site_id in enumerate(sequence, start=1):
        seen[site_id] += 1
        slots[trip_id((site_id, seen[site_id]))] = slot
    return schedule_from_slots(instance, slots)


def schedule_from_slots(instance: Instance, slots: Mapping[TripId, int]) -> Schedule:
    """Timed trips from each trip's loading slot.

    Slot ``s`` loads at ``D_s + (s - 1) * L_t``.  A trip arrives one loading
    and one haul after its start and pours for the site's unloading time.
    Loads are full trucks, taken in trip-index order, until the site's
    demand is met.  Sorted trips come site by site, so each site is looked
    up once; an unknown site id raises ``InputError``.
    """
    depot = instance.depot
    lt, capacity, opening = depot.loading_time, depot.truck_capacity, depot.start_time
    make, entries, site_id = ScheduleEntry._make, [], None
    for trip in sorted(slots):
        if trip[0] != site_id:
            site = instance.site(trip[0])
            site_id, haul, unload, demand = site.id, site.haul_time, site.unload_time, site.demand
            poured = 0.0
        start = opening + (slots[trip] - 1) * lt
        arrival = start + lt + haul
        rest = demand - poured
        poured += rest if rest < capacity else capacity  # min(capacity, rest), no call
        entries.append(make((trip, start, arrival, arrival + unload, poured)))
    return Schedule(tuple(entries))


def trucks_required(instance: Instance, schedule: Schedule) -> int:
    """Peak number of trucks simultaneously committed to a trip.

    A truck is tied up for one full cold-joint window (gamma, inclusive)
    from its loading start; with gamma covering load, both hauls and the
    pour for every accessible site, this is the window the fleet has to be
    sized for.
    """
    window = instance.depot.gamma
    starts = sorted(e.depot_start for e in schedule.entries)
    peak = 0
    lo = 0
    for hi, start in enumerate(starts):
        while starts[lo] < start - window:
            lo += 1
        peak = max(peak, hi - lo + 1)
    return peak


def _coverage_violations(
    instance: Instance, schedule: Schedule, grouped: dict[int, list[ScheduleEntry]]
) -> list[Violation]:
    """Coverage violations; ``grouped`` is ``schedule.by_site()``."""
    violations = []
    expected = set(instance.trips)
    actual = Counter(e.trip for e in schedule.entries)
    # One test settles the common case, each expected trip exactly once.
    if len(actual) != len(schedule.entries) or actual.keys() != expected:
        for trip, count in sorted(actual.items()):
            if trip not in expected:
                violations.append(
                    Violation("coverage", (trip,), count, 0, "unknown trip")
                )
            elif count > 1:
                violations.append(
                    Violation("coverage", (trip,), count, 1, "duplicated trip")
                )
        for trip in sorted(expected - set(actual)):
            violations.append(Violation("coverage", (trip,), 0, 1, "missing trip"))

    # Trip indices must follow depot time within each site.
    for site_id, entries in grouped.items():
        starts = [e.depot_start for e in entries]
        if starts != sorted(starts):
            violations.append(
                Violation(
                    "coverage",
                    tuple(e.trip for e in entries),
                    0,
                    0,
                    f"site {site_id} trip order disagrees with depot times",
                )
            )
    return violations


def check(
    instance: Instance,
    schedule: Schedule,
    gamma_override: int | None = None,
    truck_limit: int | None = None,
) -> FeasibilityReport:
    """Collect every constraint violation of a schedule."""
    check_truck_limit(truck_limit)
    if gamma_override is not None and gamma_override <= 0:
        raise ValidationError("gamma_override: must be positive when given")
    grouped = schedule.by_site()
    violations = _coverage_violations(instance, schedule, grouped)

    by_start: dict[int, list[TripId]] = {}
    for entry in schedule.entries:
        by_start.setdefault(entry.depot_start, []).append(entry.trip)
    for start, trips in sorted(by_start.items()):
        if len(trips) > 1:
            violations.append(
                Violation(
                    "slot_conflict",
                    tuple(sorted(trips)),
                    len(trips),
                    1,
                    f"{len(trips)} loadings at the same depot time",
                )
            )

    lt = instance.depot.loading_time
    for site in instance.sites:
        gamma = gamma_override if gamma_override is not None else instance.gamma_for(site)
        span = lt + site.haul_time + site.unload_time
        if span > gamma:
            violations.append(
                Violation(
                    "accessibility",
                    (TripId(site.id, 1),),
                    span,
                    gamma,
                    f"site {site.id} cannot be reached within the pour window",
                )
            )

    for site in instance.sites:
        entries = grouped.get(site.id, [])
        gamma = gamma_override if gamma_override is not None else instance.gamma_for(site)
        for prev, cur in zip(entries, entries[1:]):
            gap = cur.site_arrival - prev.site_arrival
            if gap > gamma:
                violations.append(
                    Violation(
                        "gamma_exceeded",
                        (prev.trip, cur.trip),
                        gap,
                        gamma,
                        f"site {site.id}: consecutive pours {gap // 60} min apart",
                    )
                )

    if truck_limit is not None and schedule.entries:
        peak = trucks_required(instance, schedule)
        if peak > truck_limit:
            violations.append(
                Violation(
                    "truck_overrun",
                    (),
                    peak,
                    truck_limit,
                    f"needs {peak} trucks, only {truck_limit} available",
                )
            )

    return FeasibilityReport(feasible=not violations, violations=tuple(violations))


def evaluate(instance: Instance, schedule: Schedule) -> ObjectiveReport:
    """Waiting and idle totals of a schedule that covers every trip."""
    grouped = schedule.by_site()
    coverage = _coverage_violations(instance, schedule, grouped)
    if coverage:
        raise InputError("; ".join(v.detail for v in coverage))

    per_site: dict[int, SiteObjective] = {}
    for site in instance.sites:
        entries = grouped[site.id]
        first_wait = max(0, entries[0].site_arrival - site.proposed_start)
        wait = 0
        idle = 0
        for prev, cur in zip(entries, entries[1:]):
            gap = cur.site_arrival - prev.site_arrival
            wait += max(0, gap - site.unload_time)
            idle += max(0, site.unload_time - gap)
        per_site[site.id] = SiteObjective(first_wait, wait, idle)

    return ObjectiveReport(
        first_wait_total=sum(s.first_wait for s in per_site.values()),
        inter_trip_wait_total=sum(s.inter_trip_wait for s in per_site.values()),
        truck_idle_total=sum(s.truck_idle for s in per_site.values()),
        trucks_required=trucks_required(instance, schedule),
        per_site=per_site,
    )
