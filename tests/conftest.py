"""Shared fixtures and a random-instance generator for property tests."""

from __future__ import annotations

import random
from typing import Iterator, Sequence

import pytest

from rmcdp import io as rio
from rmcdp.model import DepotSpec, Instance, SiteSpec

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
