"""Mixed-integer model of the dispatch problem and LP-format export.

The model assigns every trip to one loading slot on a discrete horizon
(binary ``X`` variables) and links slot times to site arrival times with
continuous variables.  The objective is total site waiting: first-delivery
delays plus delivery gaps beyond the unloading time.  Each row holds column
indices into one tuple of variable names, so a solver can read the rows as
a sparse matrix.  Constraint names embed the defining equation numbers
(``c_eq22`` .. ``c_eq30``) so rows can be traced back to the formulation.

The module writes the model and reads nothing back: it knows instances,
not schedules.  A schedule a solver draws from the model is judged like
any other, by ``rmcdp check``.

All numbers in the emitted LP are minutes.  Each is built once from the
instance's integer seconds by one division by 60, so it is the correctly
rounded float of the exact value.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter
from typing import NamedTuple

from .model import Instance, slot_horizon
from .model import default_horizon  # noqa: F401 (re-exported)


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
