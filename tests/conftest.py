"""Shared fixtures and a random-instance generator for property tests."""

from __future__ import annotations

import csv
import io
import math
import random
import re
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

import pytest

from rmcdp import io as rio
from rmcdp.model import DepotSpec, Instance, InputError, SiteSpec, ValidationError

MIN = 60


@pytest.fixture(scope="session")
def example1() -> Instance:
    return rio.load_instance(rio.bundled_instance_path("example-1"))


@pytest.fixture(scope="session")
def instance1() -> Instance:
    return rio.load_instance(rio.bundled_instance_path("instance-1"))


@pytest.fixture(scope="session")
def instance2() -> Instance:
    return rio.load_instance(rio.bundled_instance_path("instance-2"))


@pytest.fixture(scope="session")
def golden_schedule(instance1):
    return rio.read_schedule_csv(
        rio.bundled_schedule_path("instance-1-schedule"), instance1
    )


def replace(spec, **changes):
    """A copy of ``spec`` (a ``DepotSpec``, ``SiteSpec`` or ``Instance``) with
    ``changes``, rebuilt through its constructor so that it is validated,
    and its derived tables worked out, again."""
    fields = {name: getattr(spec, name) for name in spec._fields}
    return type(spec)(**{**fields, **changes})


def circuit_cost(instance: Instance, sequence: Sequence[int]) -> int:
    """Total vertex cost of a dispatch order, evaluated from first
    principles: loading starts follow each other by one loading time, a
    vertex costs the (clamped) delay it inflicts on its site.  The
    reference ``evaluate`` is checked against."""
    rows = {row[0]: row for row in instance.timings}
    lt = instance.depot.loading_time
    start = instance.depot.start_time
    last_load: dict[int, int] = {}
    cost = 0
    for position, site_id in enumerate(sequence):
        _, _, offset, unload, _ = rows[site_id]
        load = start + position * lt
        if site_id in last_load:
            vertex_cost = load - last_load[site_id] - unload
        else:
            vertex_cost = load + offset
        cost += max(0, vertex_cost)
        last_load[site_id] = load
    return cost


def _reference_fraction(value, what: str) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"{what}: not a number: {value!r}") from exc


def reference_hours_in_seconds(top, top_what, bottom, bottom_what, what) -> int:
    """Whole seconds in ``top / bottom`` hours, each number read as a
    ``Fraction`` of its ``str``: the first-principles reference for the
    integer reader behind ``loading_time`` and ``haul_time``."""
    seconds = (
        _reference_fraction(top, top_what) / _reference_fraction(bottom, bottom_what) * 3600
    )
    if seconds.denominator != 1:
        raise ValidationError(
            f"{what}: {float(seconds):.6f} is not a whole number of seconds"
        )
    return int(seconds)


def reference_trips(demand, truck_capacity) -> int:
    """``ceil(demand / capacity)`` over ``Fraction``s, as for
    :func:`reference_hours_in_seconds`."""
    ratio = _reference_fraction(demand, "demand") / _reference_fraction(
        truck_capacity, "truck_capacity"
    )
    return math.ceil(ratio)


def reference_minutes_in_seconds(minutes, what: str) -> int:
    """Whole seconds in a finite number of minutes, read as a ``Fraction``."""
    seconds = (minutes if isinstance(minutes, int) else _reference_fraction(minutes, what)) * 60
    if seconds % 1:
        raise InputError(f"{what}: {minutes!r} minutes is not a whole second count")
    return int(seconds)


def reference_read_text(path) -> str:
    """The file's text by a text-mode read, with the messages of the input
    error it raises: the reference that ``io._read_text`` must agree with."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def reference_read_schedule(path, instance: Instance) -> tuple[tuple, ...]:
    """The schedule CSV at ``path`` as plain tuples ``((site, trip),
    depot_start, site_arrival, site_departure, delivered)``, read row by row
    with ``csv`` and ``parse_time`` and a scan of the site list: the
    reference that ``read_schedule_csv`` must agree with, on its entries or
    on the text of the ``InputError`` it raises."""
    text = reference_read_text(path)
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise InputError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows or tuple(rows[0]) != rio.SCHEDULE_HEADER:
        raise InputError(f"{path}:1: expected header {','.join(rio.SCHEDULE_HEADER)}")
    start = instance.depot.start_time
    span = (len(instance.trips) + 2) * 48 * 3600
    entries = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        where = f"{path}:{line_no}"
        if len(row) != 6:
            raise InputError(f"{where}: expected 6 fields")
        try:
            if not all(re.fullmatch("[0-9]+", field) for field in row[:2]):
                raise ValueError("site and trip are plain ASCII digits")
            site_id, trip_index = int(row[0]), int(row[1])
        except ValueError:
            raise InputError(f"{where}: site and trip must be integers") from None
        if not any(site.id == site_id for site in instance.sites):
            raise InputError(f"{where}: unknown site {site_id}")
        clocks = []
        for column in (2, 3, 4):
            what = f"{where}: {rio.SCHEDULE_HEADER[column]}"
            clocks.append(rio.parse_time(row[column], what))
            if clocks[-1] - start > span:
                raise InputError(f"{what}: more than {span // 3600} h after the depot start")
        try:
            delivered = float(row[5])
        except ValueError:
            delivered = math.nan
        if not math.isfinite(delivered):
            raise InputError(f"{where}: delivery must be a finite number, got {row[5]!r}")
        entries.append(((site_id, trip_index), *clocks, delivered))
    entries.sort(key=lambda entry: entry[0])
    return tuple(entries)


def reference_format_time(seconds: int) -> str:
    """Seconds to 'H:MM' or 'H:MM:SS' by two ``divmod``s: the reference that
    ``format_time`` must agree with."""
    hours, rest = divmod(seconds, 3600)
    minutes, secs = divmod(rest, 60)
    if secs:
        return f"{hours}:{minutes:02d}:{secs:02d}"
    return f"{hours}:{minutes:02d}"


def reference_schedule_to_csv(schedule) -> str:
    """The schedule CSV written row by row through ``csv.writer``, which
    quotes any field that needs it: ``schedule_to_csv`` must produce the
    same bytes."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(rio.SCHEDULE_HEADER)
    for entry in sorted(schedule.entries, key=lambda entry: entry.trip):
        delivered = entry.cumulative_delivered
        writer.writerow(
            (
                entry.site_id,
                entry.trip.trip_index,
                reference_format_time(entry.depot_start),
                reference_format_time(entry.site_arrival),
                reference_format_time(entry.site_departure),
                str(int(delivered)) if float(delivered).is_integer() else repr(float(delivered)),
            )
        )
    return buffer.getvalue()


def _lp_number(value: float) -> str:
    whole = int(value)
    return str(whole) if whole == value else repr(value)


def _lp_terms(terms) -> str:
    parts: list[str] = []
    for coefficient, name in terms:
        if not parts:
            if coefficient == 1:
                parts.append(name)
            elif coefficient == -1:
                parts.append(f"- {name}")
            else:
                parts.append(f"{_lp_number(coefficient)} {name}")
            continue
        sign = "+" if coefficient > 0 else "-"
        magnitude = abs(coefficient)
        if magnitude == 1:
            parts.append(f"{sign} {name}")
        else:
            parts.append(f"{sign} {_lp_number(magnitude)} {name}")
    return " ".join(parts)


def reference_lp(model) -> str:
    """The LP text of a ``MipModel``, written term by term; ``emit_lp`` must
    produce the same bytes."""
    objective = ((1, model.names[col]) for col in model.objective)
    lines = ["Minimize", f" obj: {_lp_terms(objective)}", "Subject To"]
    for row in model.rows:
        lines.append(
            f" {row.name}: {_lp_terms(model.terms(row))} {row.sense} {_lp_number(row.rhs)}"
        )
    lines.append("Bounds")
    for name in model.continuous:
        lines.append(f" 0 <= {name}")
    lines.append("Binary")
    for name in model.binaries:
        lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


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
    """Every distinct dispatch sequence, in lexicographic order: the
    reference enumeration the exact search is checked against."""
    rows = sorted(instance.timings)  # site-id order
    return _multiset_permutations([r[0] for r in rows], [r[1] for r in rows])


def eight_oclock_depot(lt_min: int) -> DepotSpec:
    """A depot opening at 8:00 that loads a 10 m3 truck in ``lt_min`` minutes,
    with a 90-minute pour window."""
    return DepotSpec(
        start_time=8 * 3600,
        plant_capacity=10,
        productivity=600 // lt_min,  # m3/h
        truck_capacity=10,
        gamma=90 * MIN,
    )


def random_instance(rng: random.Random, max_total_trips: int = 6) -> Instance:
    """Small random instance: up to 3 sites, up to 3 trips per site.

    Loading and haul times are whole minutes and every site is accessible,
    so instances always validate.
    """
    lt_min = rng.choice((3, 5, 10))          # loading time, minutes
    n = rng.randint(1, 3)
    while True:
        trip_counts = [rng.randint(1, 3) for _ in range(n)]
        if sum(trip_counts) <= max_total_trips:
            break
    sites = []
    for sid, trips in enumerate(trip_counts, start=1):
        unload_min = lt_min * rng.randint(1, 3)
        max_haul = 90 - lt_min - unload_min
        haul_min = rng.randint(0, min(20, max_haul))
        demand = 10 * trips - rng.choice((0, 5))
        sites.append(
            SiteSpec(
                id=sid,
                demand=demand,
                distance=haul_min,  # speed 60 km/h: 1 km == 1 minute
                speed=60,
                unload_time=unload_min * MIN,
                proposed_start=(8 * 60 + rng.randint(0, 10)) * MIN,
                gamma_override=None,
            )
        )
    return Instance(depot=eight_oclock_depot(lt_min), sites=tuple(sites))


def repeated_row_instance(rng: random.Random, max_sites: int = 6) -> Instance:
    """2 to ``max_sites`` sites, each a copy of one of 1-4 random site rows.

    Sites that share a row are interchangeable, so the priority search must
    pick which copy goes next by site position; ``random_instance`` almost
    never repeats a row.
    """
    lt_min = rng.choice((3, 5, 10))
    pool = []
    for _ in range(rng.randint(1, 4)):
        trips = rng.randint(1, 3)
        unload_min = lt_min * rng.randint(1, 3)
        haul_min = rng.randint(0, min(20, 90 - lt_min - unload_min))
        pool.append(dict(
            demand=10 * trips - rng.choice((0, 5)),
            distance=haul_min,  # speed 60 km/h: 1 km == 1 minute
            speed=60,
            unload_time=unload_min * MIN,
            proposed_start=(8 * 60 + rng.randint(0, 20)) * MIN,
        ))
    sites = tuple(
        SiteSpec(id=sid, **rng.choice(pool))
        for sid in range(1, rng.randint(2, max_sites) + 1)
    )
    return Instance(depot=eight_oclock_depot(lt_min), sites=sites)


def tight_gamma_instance(rng: random.Random, max_total_trips: int = 8) -> Instance:
    """2 or 3 sites of up to 4 trips, each with a pour window of at most two
    loading times above the accessibility minimum ``L_t + h_i + U_i``.

    Interleaving other sites' trips then breaks a site's window, so many
    dispatch sequences are infeasible; ``random_instance``'s 90-minute
    window almost never does that.
    """
    lt_min = rng.choice((3, 5, 10))
    n = rng.randint(2, 3)
    while True:
        trip_counts = [rng.randint(1, 4) for _ in range(n)]
        if sum(trip_counts) <= max_total_trips:
            break
    sites = []
    for sid, trips in enumerate(trip_counts, start=1):
        unload_min = lt_min * rng.randint(1, 3)
        haul_min = rng.randint(0, min(20, 90 - lt_min - unload_min))
        slack_min = rng.randint(0, 2 * lt_min)
        sites.append(
            SiteSpec(
                id=sid,
                demand=10 * trips - rng.choice((0, 5)),
                distance=haul_min,  # speed 60 km/h: 1 km == 1 minute
                speed=60,
                unload_time=unload_min * MIN,
                proposed_start=(8 * 60 + rng.randint(0, 20)) * MIN,
                gamma_override=(lt_min + haul_min + unload_min + slack_min) * MIN,
            )
        )
    return Instance(depot=eight_oclock_depot(lt_min), sites=tuple(sites))
