"""Mixed-integer model of the dispatch problem and LP-format export.

The model assigns every trip to one loading slot on a discrete horizon
(binary ``X`` variables) and links slot times to site arrival times with
continuous variables.  The objective is total site waiting: first-delivery
delays plus delivery gaps beyond the unloading time.  Constraint names
embed the defining equation numbers (``c_eq22`` .. ``c_eq30``) so rows can
be traced back to the formulation.

All numbers in the emitted LP are minutes.  Each is built once from the
instance's integer seconds by one division by 60, so it is the correctly
rounded float of the exact value.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .model import Instance, InputError, slot_horizon
from .model import default_horizon  # noqa: F401 (re-exported)
from .schedule import (
    FeasibilityReport,
    Schedule,
    TripId,
    Violation,
    check,
    evaluate,
    schedule_from_slots,
)


@dataclass(frozen=True)
class Row:
    name: str
    terms: tuple[tuple[float, str], ...]
    sense: str  # "=", "<=" or ">="
    rhs: float


@dataclass(frozen=True)
class MipModel:
    horizon: int
    objective: tuple[tuple[float, str], ...]
    rows: tuple[Row, ...]
    continuous: tuple[str, ...]
    binaries: tuple[str, ...]

    @property
    def binary_count(self) -> int:
        return len(self.binaries)


def build_mip(instance: Instance, horizon: int | None = None) -> MipModel:
    horizon = slot_horizon(instance, horizon)

    lt = instance.depot.loading_time
    start = instance.depot.start_time
    slot_times = [(start + (t - 1) * lt) / 60 for t in range(1, horizon + 1)]
    slot_names = {
        trip: [f"X_t{t}_s{trip.site_id}_j{trip.trip_index}" for t in range(1, horizon + 1)]
        for trip in instance.trips
    }

    objective: list[tuple[float, str]] = []
    rows: list[Row] = []
    continuous: list[str] = []
    for site, (sid, trips, _, unload, gamma) in zip(instance.sites, instance.timings):
        for j in range(1, trips + 1):
            continuous += [f"ks_s{sid}_j{j}", f"kd_s{sid}_j{j}"]
        for j in range(1, trips):
            continuous += [f"T_s{sid}_j{j}", f"W_s{sid}_j{j}"]
            objective.append((1, f"W_s{sid}_j{j}"))
        continuous.append(f"Wf_s{sid}")
        objective.append((1, f"Wf_s{sid}"))

        ks, gap = f"ks_s{sid}_j", f"T_s{sid}_j"
        for j in range(1, trips):
            rows += [
                Row(f"c_eq22_s{sid}_j{j}",
                    ((1, f"{ks}{j + 1}"), (-1, f"{ks}{j}"), (-1, f"{gap}{j}")), "=", 0),
                Row(f"c_eq23_s{sid}_j{j}",
                    ((1, f"{gap}{j}"), (-1, f"W_s{sid}_j{j}")), "=", unload / 60),
                Row(f"c_eq24_s{sid}_j{j}", ((1, f"{gap}{j}"),), ">=", unload / 60),
                Row(f"c_eq25_s{sid}_j{j}", ((1, f"{gap}{j}"),), "<=", gamma / 60),
            ]
        for j in range(1, trips + 1):
            names = slot_names[TripId(sid, j)]
            rows += [
                Row(f"c_eq26_s{sid}_j{j}",
                    ((1, f"{ks}1"), (-1, f"Wf_s{sid}")), "=", site.proposed_start / 60),
                Row(f"c_eq27_s{sid}_j{j}",
                    ((1, f"{ks}{j}"), (-1, f"kd_s{sid}_j{j}")), "=",
                    (lt + site.haul_time) / 60),
                Row(f"c_eq28_s{sid}_j{j}",
                    (*zip(slot_times, names), (-1, f"kd_s{sid}_j{j}")), "=", 0),
            ]
    for t in range(horizon):
        rows.append(Row(
            f"c_eq29_t{t + 1}",
            tuple((1, names[t]) for names in slot_names.values()),
            "<=",
            1,
        ))
    for trip, names in slot_names.items():
        rows.append(Row(
            f"c_eq30_s{trip.site_id}_j{trip.trip_index}",
            tuple((1, name) for name in names),
            "=",
            1,
        ))

    return MipModel(
        horizon=horizon,
        objective=tuple(objective),
        rows=tuple(rows),
        continuous=tuple(continuous),
        binaries=tuple(names[t] for t in range(horizon) for names in slot_names.values()),
    )


def _number(value: float) -> str:
    whole = int(value)
    return str(whole) if whole == value else repr(value)


def _terms(terms: Iterable[tuple[float, str]]) -> str:
    parts: list[str] = []
    for coefficient, name in terms:
        if not parts:
            if coefficient == 1:
                parts.append(name)
            elif coefficient == -1:
                parts.append(f"- {name}")
            else:
                parts.append(f"{_number(coefficient)} {name}")
            continue
        sign = "+" if coefficient > 0 else "-"
        magnitude = abs(coefficient)
        if magnitude == 1:
            parts.append(f"{sign} {name}")
        else:
            parts.append(f"{sign} {_number(magnitude)} {name}")
    return " ".join(parts)


def emit_lp(model: MipModel) -> str:
    lines = ["Minimize", f" obj: {_terms(model.objective)}", "Subject To"]
    for row in model.rows:
        lines.append(f" {row.name}: {_terms(row.terms)} {row.sense} {_number(row.rhs)}")
    lines.append("Bounds")
    for name in model.continuous:
        lines.append(f" 0 <= {name}")
    lines.append("Binary")
    for name in model.binaries:
        lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _float(token: str) -> float | None:
    """``token`` as a finite number, or ``None`` when it is a name."""
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _parse_terms(text: str) -> tuple[tuple[float, str], ...]:
    terms: list[tuple[float, str]] = []
    sign = 1
    coefficient: float | None = None
    for token in text.split():
        if token == "+":
            sign = 1
        elif token == "-":
            sign = -1
        elif (value := _float(token)) is not None:
            coefficient = value
        else:
            terms.append((sign * (1 if coefficient is None else coefficient), token))
            sign = 1
            coefficient = None
    if coefficient is not None:
        raise InputError("dangling coefficient in LP expression")
    return tuple(terms)


def parse_lp(text: str) -> MipModel:
    """Parse an LP file produced by :func:`emit_lp` back into a model.

    The horizon is the highest slot among the ``X_t{slot}_...`` binaries.
    """
    section = None
    objective: tuple[tuple[float, str], ...] = ()
    rows: list[Row] = []
    continuous: list[str] = []
    binaries: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        lowered = line.lower()
        if lowered in {"minimize", "subject to", "bounds", "binary", "end"}:
            section = lowered
            continue
        if section == "minimize":
            _, _, expr = line.partition(":")
            objective = _parse_terms(expr)
        elif section == "subject to":
            name, _, body = line.partition(":")
            for sense in ("<=", ">=", "="):
                if f" {sense} " in body:
                    expr, _, rhs = body.partition(f" {sense} ")
                    value = _float(rhs)
                    if value is None:
                        raise InputError(f"right-hand side is not a number: {line}")
                    rows.append(Row(name.strip(), _parse_terms(expr), sense, value))
                    break
            else:
                raise InputError(f"constraint without relation: {line}")
        elif section == "bounds":
            continuous.append(line.split()[-1])
        elif section == "binary":
            binaries.append(line)
    try:
        horizon = max(
            (int(name.split("_")[1][1:]) for name in binaries if name.startswith("X_t")),
            default=0,
        )
    except ValueError:
        raise InputError("binary name without a slot number") from None
    return MipModel(
        horizon=horizon,
        objective=objective,
        rows=tuple(rows),
        continuous=tuple(continuous),
        binaries=tuple(binaries),
    )


def encode_schedule(
    instance: Instance, horizon: int, schedule: Schedule
) -> dict[str, float]:
    """Express a schedule as an assignment of the model's variables."""
    lt = instance.depot.loading_time
    start = instance.depot.start_time
    assignment: dict[str, float] = {}
    grouped = schedule.by_site()
    for site in instance.sites:
        entries = grouped.get(site.id, [])
        for entry in entries:
            offset = entry.depot_start - start
            if offset % lt:
                raise InputError(
                    f"trip {entry.trip} does not start on a loading slot"
                )
            slot = offset // lt + 1
            if not 1 <= slot <= horizon:
                raise InputError(f"trip {entry.trip} falls outside the horizon")
            j = entry.trip.trip_index
            assignment[f"X_t{slot}_s{site.id}_j{j}"] = 1.0
            assignment[f"kd_s{site.id}_j{j}"] = entry.depot_start / 60
            assignment[f"ks_s{site.id}_j{j}"] = entry.site_arrival / 60
        for j, (prev, cur) in enumerate(zip(entries, entries[1:]), start=1):
            gap = (cur.site_arrival - prev.site_arrival) / 60
            assignment[f"T_s{site.id}_j{j}"] = gap
            assignment[f"W_s{site.id}_j{j}"] = max(
                0.0, gap - site.unload_time / 60
            )
        if entries:
            assignment[f"Wf_s{site.id}"] = max(
                0.0, (entries[0].site_arrival - site.proposed_start) / 60
            )
    return assignment


def validate_solution(
    instance: Instance,
    horizon: int,
    assignment: Mapping[str, float],
) -> tuple[FeasibilityReport, int | None]:
    """Judge a solver's assignment by the schedule its binaries encode.

    The ``X`` variables are decoded into one slot per trip; a trip held by
    no slot or by several (``c_eq30``) and a slot held by several trips
    (``c_eq29``) are reported directly.  Otherwise the decoded schedule goes
    to :func:`check`, and a delivery gap below the unloading time is
    reported against ``c_eq24``.  Returns the violation report plus the
    objective (total site waiting, seconds) of that schedule, or ``None``
    when it is incomplete or infeasible.  Only the binaries of the model,
    ``X_t{slot}_s{site}_j{trip}`` within the horizon and the instance's
    trips, are read; other names are ignored.
    """
    horizon = slot_horizon(instance, horizon)
    expected = set(instance.trips)

    chosen: dict[TripId, int] = {}
    slot_users: dict[int, list[TripId]] = {}
    for name, value in assignment.items():
        try:
            _, t_part, s_part, j_part = name.split("_")
            slot, trip = int(t_part[1:]), TripId(int(s_part[1:]), int(j_part[1:]))
        except ValueError:
            continue
        if (
            name != f"X_t{slot}_s{trip.site_id}_j{trip.trip_index}"
            or not 1 <= slot <= horizon
            or trip not in expected
            or not value > 0.5
        ):
            continue
        chosen[trip] = slot
        slot_users.setdefault(slot, []).append(trip)

    violations: list[Violation] = []
    used = Counter(trip for users in slot_users.values() for trip in users)
    for trip in instance.trips:
        if used[trip] != 1:
            violations.append(
                Violation(
                    "coverage",
                    (trip,),
                    used[trip],
                    1,
                    f"trip assigned to {used[trip]} slots (c_eq30)",
                )
            )
    for slot, users in sorted(slot_users.items()):
        if len(users) > 1:
            violations.append(
                Violation(
                    "slot_conflict",
                    tuple(sorted(users)),
                    len(users),
                    1,
                    f"slot {slot} used {len(users)} times (c_eq29)",
                )
            )

    # Without a coverage or slot finding every trip holds a slot of its own.
    objective: int | None = None
    if not violations:
        schedule = schedule_from_slots(instance, chosen)
        structural = check(instance, schedule)
        violations.extend(structural.violations)
        grouped = schedule.by_site()
        for site in instance.sites:
            site_entries = grouped[site.id]
            for j, (prev, cur) in enumerate(
                zip(site_entries, site_entries[1:]), start=1
            ):
                gap = cur.site_arrival - prev.site_arrival
                if gap < site.unload_time:
                    violations.append(
                        Violation(
                            "model_row",
                            (prev.trip, cur.trip),
                            gap,
                            site.unload_time,
                            f"c_eq24_s{site.id}_j{j}: gap below unloading time",
                        )
                    )
        if not violations:
            objective = evaluate(instance, schedule).total_site_wait

    return (
        FeasibilityReport(feasible=not violations, violations=tuple(violations)),
        objective,
    )


def optimality_gap(lower_bound: float, upper_bound: float) -> float:
    """Relative gap in percent between a bound pair, taken on the upper."""
    if upper_bound <= 0:
        raise InputError("upper bound must be positive")
    return (upper_bound - lower_bound) / upper_bound * 100.0
