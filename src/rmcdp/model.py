"""Problem data for single-depot ready-mixed-concrete delivery scheduling.

A depot with one loading bay serves ``n`` construction sites.  Every trip
uses a full truck load, so site ``i`` with demand ``q_i`` needs
``ceil(q_i / Q)`` trips.  Concrete must be poured within ``gamma`` minutes
of batching (the cold-joint window), which bounds the gap between
consecutive deliveries at the same site and also yields a per-site
accessibility condition ``L_t + h_i + U_i <= gamma``.

All times are stored as integer seconds from midnight.  Quantities that do
not come out as whole seconds (loading time, haul time) are rejected rather
than rounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

MINUTE = 60
HOUR = 3600
#: All loadings of an instance must fit in one day at the depot.
DAY = 24 * HOUR

#: Default cold-joint window: 90 minutes.
DEFAULT_GAMMA = 90 * MINUTE


class InputError(ValueError):
    """A runtime input (sequence, schedule, file, argument) is malformed."""


class ValidationError(InputError):
    """Instance data or a solver argument violates a structural invariant."""


def _fraction(value: float | int | str, what: str) -> Fraction:
    """Exact rational view of a JSON-ish number."""
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{what}: not a number: {value!r}") from exc


def _exact_seconds(hours: Fraction, what: str) -> int:
    seconds = hours * HOUR
    if seconds.denominator != 1:
        raise ValidationError(
            f"{what}: {float(seconds):.6f} is not a whole number of seconds"
        )
    return int(seconds)


def loading_time(truck_capacity: float, productivity: float) -> int:
    """Seconds needed to load one truck: Q / P_r expressed in time."""
    if truck_capacity <= 0:
        raise ValidationError("truck_capacity: must be positive")
    if productivity <= 0:
        raise ValidationError("productivity: must be positive")
    ratio = _fraction(truck_capacity, "truck_capacity") / _fraction(
        productivity, "productivity"
    )
    return _exact_seconds(ratio, "loading time")


def trips_for_site(demand: float, truck_capacity: float) -> int:
    """Number of full-truck trips for one site: ceil(demand / capacity)."""
    if demand <= 0:
        raise ValidationError("demand: must be positive")
    if truck_capacity <= 0:
        raise ValidationError("truck_capacity: must be positive")
    ratio = _fraction(demand, "demand") / _fraction(truck_capacity, "truck_capacity")
    return int(math.ceil(ratio))


@dataclass(frozen=True, order=True)
class TripId:
    site_id: int
    trip_index: int  # 1-based within the site


@dataclass(frozen=True)
class DepotSpec:
    start_time: int               # first loading start, seconds from midnight
    plant_capacity: float         # batching plant capacity, m3
    productivity: float           # batching rate P_r, m3/h
    truck_capacity: float         # Q, m3 per truck
    truck_count: int | None = None
    gamma: int = DEFAULT_GAMMA    # cold-joint window, seconds

    def __post_init__(self) -> None:
        if self.start_time < 0:
            raise ValidationError("depot.start: must be non-negative")
        if self.plant_capacity <= 0:
            raise ValidationError("depot.plant_capacity: must be positive")
        if self.productivity <= 0:
            raise ValidationError("depot.productivity: must be positive")
        if self.truck_capacity <= 0:
            raise ValidationError("depot.truck_capacity: must be positive")
        if self.truck_count is not None and self.truck_count <= 0:
            raise ValidationError("depot.trucks: must be positive when given")
        if self.gamma <= 0:
            raise ValidationError("depot.gamma: must be positive")

    @cached_property
    def loading_time(self) -> int:
        return loading_time(self.truck_capacity, self.productivity)


@dataclass(frozen=True)
class SiteSpec:
    id: int
    demand: float                 # m3
    distance: float               # km, one way
    speed: float                  # km/h
    unload_time: int              # U_i, seconds
    proposed_start: int           # requested first-delivery time, seconds
    gamma_override: int | None = None

    def __post_init__(self) -> None:
        # Messages name the field; the reader of the site list names the site.
        if self.id <= 0:
            raise ValidationError("id: must be positive")
        if self.demand <= 0:
            raise ValidationError("demand: must be positive")
        if self.distance < 0:
            raise ValidationError("distance: must be non-negative")
        if self.speed <= 0:
            raise ValidationError("speed: must be positive")
        if self.unload_time <= 0:
            raise ValidationError("unload: must be positive")
        if self.proposed_start < 0:
            raise ValidationError("proposed_start: must be non-negative")
        if self.gamma_override is not None and self.gamma_override <= 0:
            raise ValidationError("gamma_override: must be positive when given")

    @cached_property
    def haul_time(self) -> int:
        """One-way travel time d_i / v_i in seconds."""
        ratio = _fraction(self.distance, "distance") / _fraction(self.speed, "speed")
        return _exact_seconds(ratio, "haul time")


@dataclass(frozen=True)
class Instance:
    depot: DepotSpec
    sites: tuple[SiteSpec, ...]

    def __post_init__(self) -> None:
        if not self.sites:
            raise ValidationError("sites: at least one site is required")
        ids = sorted(s.id for s in self.sites)
        if ids != list(range(1, len(self.sites) + 1)):
            raise ValidationError(
                f"sites: ids must be exactly 1..{len(self.sites)}, got {ids}"
            )
        lt = self.depot.loading_time
        for index, site in enumerate(self.sites):
            try:
                span = lt + site.haul_time + site.unload_time
            except ValidationError as exc:
                raise ValidationError(f"sites[{index}]: {exc}") from None
            gamma = self.gamma_for(site)
            if span > gamma:
                raise ValidationError(
                    f"sites[{index}]: not accessible: loading + haul + unload "
                    f"= {span // MINUTE} min exceeds gamma = {gamma // MINUTE} min"
                )
        trips = 0
        for index, (_, count, *_) in enumerate(self.timings):
            trips += count
            if trips * lt > DAY:
                raise ValidationError(
                    f"sites[{index}].demand: the trips up to this site need more "
                    f"than 24 h of depot loading (at most {DAY // lt} trips of "
                    f"{lt} s fit)"
                )

    @cached_property
    def _sites_by_id(self) -> dict[int, SiteSpec]:
        return {site.id: site for site in self.sites}

    def site(self, site_id: int) -> SiteSpec:
        try:
            return self._sites_by_id[site_id]
        except KeyError:
            raise InputError(f"unknown site id {site_id}") from None

    def gamma_for(self, site: SiteSpec) -> int:
        return site.gamma_override if site.gamma_override is not None else self.depot.gamma

    def trips_for(self, site: SiteSpec) -> int:
        return trips_for_site(site.demand, self.depot.truck_capacity)

    @cached_property
    def timings(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """The site table every search reads: one row per site, in site-list
        order, of plain integers ``(id, trips, offset, U_i, gamma_i)``.

        ``offset = L_t + h_i - proposed_i``: a site's first trip loaded at
        depot time ``t`` waits ``max(0, t + offset)``.  A later trip loaded
        ``d`` after the site's previous one waits ``max(0, d - U_i)``, and
        breaks the pour window when ``d > gamma_i``.
        """
        lt = self.depot.loading_time
        return tuple(
            (
                site.id,
                self.trips_for(site),
                lt + site.haul_time - site.proposed_start,
                site.unload_time,
                self.gamma_for(site),
            )
            for site in self.sites
        )

    @cached_property
    def trips(self) -> tuple[TripId, ...]:
        """Every trip, in site-list order and then by trip index."""
        return tuple(
            TripId(site_id, j)
            for site_id, count, *_ in self.timings
            for j in range(1, count + 1)
        )


def trip_duration(instance: Instance, site: SiteSpec) -> int:
    """Round-trip time of one delivery: loading + both hauls + unloading."""
    return instance.depot.loading_time + 2 * site.haul_time + site.unload_time


def total_trips(instance: Instance) -> int:
    return len(instance.trips)


def default_horizon(instance: Instance) -> int:
    """Loading slots of a slot model when none are given: twice the trips."""
    return 2 * total_trips(instance)


def slot_horizon(instance: Instance, horizon: int | None = None) -> int:
    """The given number of loading slots, or the default; it must hold
    every trip and span at most 48 h of loading, which the default, twice
    the trips, always does: the trips fit in 24 h."""
    if horizon is None:
        return default_horizon(instance)
    trips, most = total_trips(instance), 2 * DAY // instance.depot.loading_time
    if not trips <= horizon <= most:
        raise ValidationError(
            f"horizon: {horizon} slots, need {trips} trips to {most} (48 h of loading)"
        )
    return horizon


def check_truck_limit(truck_limit: int | None) -> None:
    """Reject a fleet limit below one truck; ``None`` means no limit."""
    if truck_limit is not None and truck_limit <= 0:
        raise ValidationError("truck_limit: must be positive when given")


def truck_upper_bound(gamma: int, load_time: int) -> int:
    """Largest useful fleet size, floor(2 * gamma / L_t)."""
    if load_time <= 0:
        raise ValidationError("loading time must be positive")
    return (2 * gamma) // load_time


def solution_space_size(instance: Instance) -> int:
    """Number of distinct dispatch sequences: a multinomial coefficient."""
    counts = [row[1] for row in instance.timings]
    size = math.factorial(sum(counts))
    for count in counts:
        size //= math.factorial(count)
    return size
