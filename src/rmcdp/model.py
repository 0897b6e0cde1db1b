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
from decimal import Decimal
from functools import cached_property
from typing import NamedTuple

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


class SizeCapError(InputError):
    """The instance is too large for exhaustive search."""


#: Levels a recursive search may descend, one stack frame each: trips for
#: the exact search, sites for the priority search.  Python's default
#: recursion limit of 1,000 frames leaves room for the caller above it.
SEARCH_MAX_DEPTH = 500


def _ratio(value: float | int, what: str) -> tuple[int, int]:
    """A number as an exact integer ratio, denominator positive.  A float
    is read as its shortest decimal, as JSON wrote it; an int, ``Fraction``
    or ``Decimal`` gives its own ratio."""
    if type(value) is int:
        return value, 1
    try:
        if isinstance(value, float):
            return Decimal(str(value)).as_integer_ratio()
        if not isinstance(value, bool):
            return value.as_integer_ratio()
    except (ValueError, OverflowError, AttributeError):  # NaN, infinities, non-numbers
        pass
    raise ValidationError(f"{what}: not a number: {_shown(value)}")


def _shown(value: object) -> str:
    """A refused value for an error message: a string as its ``repr`` if it
    is at most 40 characters, else by its length; any other value as its
    ``repr`` if that is at most 40 characters, else by type and length."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 40 else f"{len(value)} characters"
    try:
        text = repr(value)
    except ValueError:  # an int past Python's limit on digits written out
        return "a number too long to write out"
    return text if len(text) <= 40 else f"a {type(value).__name__} {len(text)} characters long"


def _quotient(
    top: float, top_what: str, bottom: float, bottom_what: str
) -> tuple[int, int]:
    """``top / bottom`` as an integer ratio; ``bottom`` must be positive."""
    a, b = _ratio(top, top_what)
    c, d = _ratio(bottom, bottom_what)
    return a * d, b * c


def _exact_seconds(hours: tuple[int, int], what: str) -> int:
    num, den = hours
    seconds, rest = divmod(num * HOUR, den)
    if rest:
        raise ValidationError(
            f"{what}: {num * HOUR / den:.6f} is not a whole number of seconds"
        )
    return seconds


def _positive_ratio(value: float | int, what: str) -> tuple[int, int]:
    """:func:`_ratio` of a number that must be positive.  The number is read
    before its sign is tested, so a NaN is refused as not a number."""
    num, den = _ratio(value, what)
    if num <= 0:
        raise ValidationError(f"{what}: must be positive")
    return num, den


def loading_time(truck_capacity: float, productivity: float) -> int:
    """Seconds needed to load one truck: Q / P_r expressed in time."""
    a, b = _positive_ratio(truck_capacity, "truck_capacity")
    c, d = _positive_ratio(productivity, "productivity")
    return _exact_seconds((a * d, b * c), "loading time")


def trips_for_site(demand: float, truck_capacity: float) -> int:
    """Number of full-truck trips for one site: ceil(demand / capacity)."""
    a, b = _positive_ratio(demand, "demand")
    c, d = _positive_ratio(truck_capacity, "truck_capacity")
    return -(-(a * d) // (b * c))


def _haul_time(distance: float, speed: float) -> int:
    """Seconds of a one-way haul: distance / speed expressed in time."""
    return _exact_seconds(_quotient(distance, "distance", speed, "speed"), "haul time")


def _check_span(seconds: int, what: str) -> None:
    """Reject a clock or duration above 48 h, the span :func:`slot_horizon`
    allows for loading; the value itself may have too many digits to print."""
    if seconds > 2 * DAY:
        raise ValidationError(f"{what}: must be at most 48 h (2880 min)")


class TripId(NamedTuple):
    """A site's trip.  As a named tuple it hashes, compares and sorts as the
    plain tuple ``(site_id, trip_index)``, all in C."""

    site_id: int
    trip_index: int  # 1-based within the site


def _refuse_decimal_nan(spec, prefix: str) -> None:
    """Raise a ``ValidationError`` naming the first field of ``spec`` that
    holds a ``Decimal`` NaN, which signals when a guard compares it.  The
    ``not x > 0`` guards refuse a float NaN themselves."""
    for name in spec._fields:
        value = getattr(spec, name)
        if isinstance(value, Decimal) and value.is_nan():
            raise ValidationError(f"{prefix}{name}: not a number: {value!r}")


class _Spec:
    """A read-only record of the fields named in ``_fields``, which compares,
    hashes and prints as a frozen dataclass does.  Each subclass's
    ``__init__`` stores the fields in the instance ``__dict__``, where a
    ``cached_property`` also stores its value, and then calls
    ``self.__post_init__()``, looked up on the class so that a rebound
    hook runs on every construction."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class DepotSpec(_Spec):
    _fields = (
        "start_time", "plant_capacity", "productivity", "truck_capacity",
        "truck_count", "gamma",
    )

    def __init__(
        self,
        start_time: int,              # first loading start, seconds from midnight
        plant_capacity: float,        # batching plant capacity, m3
        productivity: float,          # batching rate P_r, m3/h
        truck_capacity: float,        # Q, m3 per truck
        truck_count: int | None = None,
        gamma: int = DEFAULT_GAMMA,   # cold-joint window, seconds
    ) -> None:
        fields = self.__dict__
        fields["start_time"] = start_time
        fields["plant_capacity"] = plant_capacity
        fields["productivity"] = productivity
        fields["truck_capacity"] = truck_capacity
        fields["truck_count"] = truck_count
        fields["gamma"] = gamma
        self.__post_init__()

    def __post_init__(self) -> None:
        try:
            if not self.start_time >= 0:
                raise ValidationError("depot.start: must be non-negative")
            if not self.plant_capacity > 0:
                raise ValidationError("depot.plant_capacity: must be positive")
            if not self.productivity > 0:
                raise ValidationError("depot.productivity: must be positive")
            if not self.truck_capacity > 0:
                raise ValidationError("depot.truck_capacity: must be positive")
            trucks = self.truck_count
            if trucks is not None:
                # A number is tested for sign first, so a NaN is refused as
                # not positive (a float's) or not a number (a ``Decimal``'s).
                if isinstance(trucks, (int, float, Decimal)) and not trucks > 0:
                    raise ValidationError("depot.trucks: must be positive when given")
                if type(trucks) is not int:
                    raise ValidationError(
                        f"depot.trucks: must be an int when given, got {_shown(trucks)}"
                    )
            if not self.gamma > 0:
                raise ValidationError("depot.gamma: must be positive")
        except ArithmeticError:
            _refuse_decimal_nan(self, "depot.")
            raise
        _check_span(self.start_time, "depot.start")
        _check_span(self.gamma, "depot.gamma")

    @cached_property
    def loading_time(self) -> int:
        return loading_time(self.truck_capacity, self.productivity)


class SiteSpec(_Spec):
    _fields = (
        "id", "demand", "distance", "speed", "unload_time", "proposed_start",
        "gamma_override",
    )

    def __init__(
        self,
        id: int,
        demand: float,                # m3
        distance: float,              # km, one way
        speed: float,                 # km/h
        unload_time: int,             # U_i, seconds
        proposed_start: int,          # requested first-delivery time, seconds
        gamma_override: int | None = None,
    ) -> None:
        fields = self.__dict__
        fields["id"] = id
        fields["demand"] = demand
        fields["distance"] = distance
        fields["speed"] = speed
        fields["unload_time"] = unload_time
        fields["proposed_start"] = proposed_start
        fields["gamma_override"] = gamma_override
        self.__post_init__()

    def __post_init__(self) -> None:
        # Messages name the field; the reader of the site list names the site.
        # A float NaN distance or speed passes here: haul_time's exact
        # reader, which every Instance calls, refuses it by name.
        try:
            if not self.id > 0:
                raise ValidationError("id: must be positive")
            if not self.demand > 0:
                raise ValidationError("demand: must be positive")
            if self.distance < 0:
                raise ValidationError("distance: must be non-negative")
            if self.speed <= 0:
                raise ValidationError("speed: must be positive")
            if not self.unload_time > 0:
                raise ValidationError("unload: must be positive")
            if not self.proposed_start >= 0:
                raise ValidationError("proposed_start: must be non-negative")
            if self.gamma_override is not None and not self.gamma_override > 0:
                raise ValidationError("gamma_override: must be positive when given")
        except ArithmeticError:
            _refuse_decimal_nan(self, "")
            raise
        _check_span(self.unload_time, "unload")
        _check_span(self.proposed_start, "proposed_start")
        if self.gamma_override is not None:
            _check_span(self.gamma_override, "gamma_override")

    @cached_property
    def haul_time(self) -> int:
        """One-way travel time d_i / v_i in seconds.  An ``Instance`` works it
        out as it is built and stores it here."""
        return _haul_time(self.distance, self.speed)


class Instance(_Spec):
    """A depot and its sites.  Building one validates it and works out, in
    one pass over the sites, the tables every solver reads:

    - ``timings``: one row per site, in site-list order, of plain integers
      ``(id, trips, offset, U_i, gamma_i)``.  ``offset = L_t + h_i -
      proposed_i``: a site's first trip loaded at depot time ``t`` waits
      ``max(0, t + offset)``.  A later trip loaded ``d`` after the site's
      previous one waits ``max(0, d - U_i)``, and breaks the pour window
      when ``d > gamma_i``.
    - ``trips``: every ``TripId``, in site-list order and then by trip index.
    - ``_sites_by_id``: each site by its id.

    The depot's loading time and each site's haul time are stored where
    ``DepotSpec.loading_time`` and ``SiteSpec.haul_time`` cache them.

    The pass raises at the first bad site in list order, naming it by its
    place.  Within a site it reads the haul time and the trip count, then
    tests the pour window, then the 24 h bound on the trips so far, before
    it lists that site's trips.
    """

    _fields = ("depot", "sites")

    def __init__(self, depot: DepotSpec, sites: tuple[SiteSpec, ...]) -> None:
        fields = self.__dict__
        fields["depot"] = depot
        fields["sites"] = sites
        self.__post_init__()

    def __post_init__(self) -> None:
        sites = self.sites
        if not sites:
            raise ValidationError("sites: at least one site is required")
        by_id = {site.id: site for site in sites}
        if sorted(by_id) != list(range(1, len(sites) + 1)):
            ids = sorted(s.id for s in sites)
            raise ValidationError(f"sites: ids must be exactly 1..{len(sites)}, got {ids}")
        depot = self.depot
        lt = depot.__dict__["loading_time"] = loading_time(
            depot.truck_capacity, depot.productivity
        )
        capacity, default_gamma = depot.truck_capacity, depot.gamma
        timings, trips, trip_id = [], [], TripId._make
        total = 0
        for index, site in enumerate(sites):
            try:
                haul = site.__dict__["haul_time"] = _haul_time(site.distance, site.speed)
                count = trips_for_site(site.demand, capacity)
            except ValidationError as exc:
                raise ValidationError(f"sites[{index}]: {exc}") from None
            unload = site.unload_time
            gamma = default_gamma if site.gamma_override is None else site.gamma_override
            span = lt + haul + unload
            if span > gamma:
                raise ValidationError(
                    f"sites[{index}]: not accessible: loading + haul + unload "
                    f"= {span // MINUTE} min exceeds gamma = {gamma // MINUTE} min"
                )
            total += count
            # Before this site's trips are listed: a huge count is never expanded.
            if total * lt > DAY:
                raise ValidationError(
                    f"sites[{index}].demand: the trips up to this site need more "
                    f"than 24 h of depot loading (at most {DAY // lt} trips of "
                    f"{lt} s fit)"
                )
            site_id = site.id
            timings.append((site_id, count, lt + haul - site.proposed_start, unload, gamma))
            trips += [trip_id((site_id, j)) for j in range(1, count + 1)]
        vars(self).update(timings=tuple(timings), trips=tuple(trips), _sites_by_id=by_id)

    def site(self, site_id: int) -> SiteSpec:
        try:
            return self._sites_by_id[site_id]
        except KeyError:
            raise InputError(f"unknown site id {site_id}") from None

    def gamma_for(self, site: SiteSpec) -> int:
        return site.gamma_override if site.gamma_override is not None else self.depot.gamma

    def trips_for(self, site: SiteSpec) -> int:
        return trips_for_site(site.demand, self.depot.truck_capacity)


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
    """Reject a fleet limit that is not an ``int`` of at least one truck (a
    ``bool`` included); ``None`` means no limit."""
    if truck_limit is not None and (
        not isinstance(truck_limit, int) or isinstance(truck_limit, bool) or truck_limit < 1
    ):
        raise ValidationError(
            f"truck_limit: must be an int of at least 1 when given, "
            f"got {_shown(truck_limit)}"
        )


def check_search_size(search: str, size: int, cap: int, unit: str) -> None:
    """Reject an exhaustive search over more than ``cap`` ``unit``."""
    if size > cap:
        raise SizeCapError(f"{search} supports at most {cap} {unit}, got {size}")


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
