"""Mixed-integer model of the dispatch problem and LP-format export.

The model assigns every trip to one loading slot on a discrete horizon
(binary ``X`` variables) and links slot times to site arrival times with
continuous variables.  The objective is total site waiting: first-delivery
delays plus delivery gaps beyond the unloading time.  Each row holds column
indices into one tuple of variable names, so a solver can read the rows as
a sparse matrix.  Constraint names embed the defining equation numbers
(``c_eq22`` .. ``c_eq30``) so rows can be traced back to the formulation.

All numbers in the emitted LP are minutes.  Each is built once from the
instance's integer seconds by one division by 60, so it is the correctly
rounded float of the exact value.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from operator import itemgetter
from typing import Mapping, NamedTuple

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


class Row(NamedTuple):
    name: str
    cols: tuple[int, ...]  # indices into the model's names
    coefs: tuple[float, ...] | None  # one per column; None when all are 1
    sense: str  # "=", "<=" or ">="
    rhs: float


class MipModel(NamedTuple):
    horizon: int
    # The continuous variables, then from first_binary on the X binaries:
    # slot by slot, and within a slot in trip order.
    names: tuple[str, ...]
    first_binary: int
    objective: tuple[int, ...]  # columns summed with coefficient 1
    rows: tuple[Row, ...]

    @property
    def continuous(self) -> tuple[str, ...]:
        return self.names[: self.first_binary]

    @property
    def binaries(self) -> tuple[str, ...]:
        return self.names[self.first_binary :]

    @property
    def binary_count(self) -> int:
        return len(self.names) - self.first_binary

    def terms(self, row: Row) -> tuple[tuple[float, str], ...]:
        """The row as ``(coefficient, variable name)`` pairs."""
        names = map(self.names.__getitem__, row.cols)
        return tuple(zip(row.coefs or (1,) * len(row.cols), names))


#: A ``Row`` from the tuple of its fields, built in C: a named tuple's own
#: ``__new__`` is a Python function.
_row = partial(tuple.__new__, Row)


def build_mip(instance: Instance, horizon: int | None = None) -> MipModel:
    horizon = slot_horizon(instance, horizon)
    lt, start = instance.depot.loading_time, instance.depot.start_time
    count = len(instance.trips)
    # A site of n trips owns 4n - 1 continuous columns: ks and kd of each
    # trip, T and W of each consecutive pair, then Wf.  The binary of trip k
    # in slot t + 1 is column first_binary + t * count + k.
    first_binary = 4 * count - len(instance.sites)
    binaries = tuple(range(first_binary, first_binary + horizon * count))
    trip_slots = [binaries[k::count] for k in range(count)]
    slot_coefs = (*((start + t * lt) / 60 for t in range(horizon)), -1)

    names: list[str] = []
    objective: list[int] = []
    rows: list[Row] = []
    slots = iter(trip_slots)
    for site, (sid, n, _, unload, gamma) in zip(instance.sites, instance.timings):
        ks = len(names)  # ks_j is column ks + 2(j - 1) and kd_j the next one
        gap = ks + 2 * n  # T_j is column gap + 2(j - 1) and W_j the next one
        wf = gap + 2 * (n - 1)
        names += [f"{v}_s{sid}_j{j}" for j in range(1, n + 1) for v in ("ks", "kd")]
        names += [f"{v}_s{sid}_j{j}" for j in range(1, n) for v in ("T", "W")] + [f"Wf_s{sid}"]
        objective += [*range(gap + 1, wf, 2), wf]
        unload_min, gamma_min = unload / 60, gamma / 60
        for j, t in enumerate(range(gap, wf, 2), start=1):
            rows += [
                _row((f"c_eq22_s{sid}_j{j}", (ks + 2 * j, ks + 2 * j - 2, t), (1, -1, -1),
                      "=", 0)),
                _row((f"c_eq23_s{sid}_j{j}", (t, t + 1), (1, -1), "=", unload_min)),
                _row((f"c_eq24_s{sid}_j{j}", (t,), None, ">=", unload_min)),
                _row((f"c_eq25_s{sid}_j{j}", (t,), None, "<=", gamma_min)),
            ]
        proposed, travel = site.proposed_start / 60, (lt + site.haul_time) / 60
        for j, kd in enumerate(range(ks + 1, gap, 2), start=1):
            rows += [
                _row((f"c_eq26_s{sid}_j{j}", (ks, wf), (1, -1), "=", proposed)),
                _row((f"c_eq27_s{sid}_j{j}", (kd - 1, kd), (1, -1), "=", travel)),
                _row((f"c_eq28_s{sid}_j{j}", (*next(slots), kd), slot_coefs, "=", 0)),
            ]
    rows += [
        _row((f"c_eq29_t{t}", binaries[t * count - count : t * count], None, "<=", 1))
        for t in range(1, horizon + 1)
    ]
    trip_names = [f"_s{trip.site_id}_j{trip.trip_index}" for trip in instance.trips]
    rows += [_row((f"c_eq30{t}", c, None, "=", 1)) for t, c in zip(trip_names, trip_slots)]
    slot_names = [f"X_t{t}" for t in range(1, horizon + 1)]
    names += [slot + trip for slot in slot_names for trip in trip_names]
    return MipModel(horizon, tuple(names), first_binary, tuple(objective), tuple(rows))


def _number(value: float) -> str:
    whole = int(value)
    return str(whole) if whole == value else repr(value)


def _prefix(coefficient: float, first: bool) -> str:
    """The text before a variable's name in an LP expression."""
    if first:
        return {1: "", -1: "- "}.get(coefficient, f"{_number(coefficient)} ")
    sign, magnitude = " + " if coefficient > 0 else " - ", abs(coefficient)
    return sign if magnitude == 1 else f"{sign}{_number(magnitude)} "


def emit_lp(model: MipModel) -> str:
    names = model.names
    # Rows that share a coefficient tuple (every c_eq28 row shares the slot
    # times) share one list of the texts before each column's name, with a
    # slot after each for the name.
    heads: dict[tuple[float, ...], list[str]] = {}
    # Equal numbers have one text, so each right-hand side is written once.
    numbers: dict[float, str] = {}
    lines = ["Minimize", " obj: " + " + ".join([names[c] for c in model.objective])]
    lines.append("Subject To")
    for name, cols, coefs, sense, rhs in model.rows:
        # itemgetter of one index returns the bare name, not a tuple.
        picked = itemgetter(*cols)(names) if len(cols) > 1 else [names[c] for c in cols]
        if coefs is None:
            body = " + ".join(picked)
        else:
            if (parts := heads.get(coefs)) is None:
                parts = heads[coefs] = [
                    text for i, c in enumerate(coefs) for text in (_prefix(c, i == 0), "")
                ]
            parts = parts.copy()
            parts[1::2] = picked
            body = "".join(parts)
        if (number := numbers.get(rhs)) is None:
            number = numbers[rhs] = _number(rhs)
        lines.append(f" {name}: {body} {sense} {number}")
    lines.append("\n 0 <= ".join(("Bounds", *model.continuous)))
    lines.append("\n ".join(("Binary", *model.binaries)))
    lines.append("End\n")
    return "\n".join(lines)


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
    binaries = {
        f"X_t{slot}_s{trip.site_id}_j{trip.trip_index}": (slot, trip)
        for slot in range(1, slot_horizon(instance, horizon) + 1)
        for trip in instance.trips
    }

    chosen: dict[TripId, int] = {}
    slot_users: dict[int, list[TripId]] = {}
    for name, value in assignment.items():
        if name not in binaries or not value > 0.5:
            continue
        slot, trip = binaries[name]
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
