"""Broken copies of a feasible schedule CSV, one per kind of error.

Each mutant changes the fewest fields that make the schedule wrong in one
way, so a checker that accepts it has missed exactly that kind.
"""

from __future__ import annotations

import csv
import io
import random
from pathlib import Path

TIME_FIELDS = (2, 3, 4)  # depot_start, site_start, site_end


def _seconds(text: str) -> int:
    parts = [int(p) for p in text.split(":")]
    return parts[0] * 3600 + parts[1] * 60 + (parts[2] if len(parts) == 3 else 0)


def _clock(seconds: int) -> str:
    hours, rest = divmod(seconds, 3600)
    minutes, secs = divmod(rest, 60)
    return f"{hours}:{minutes:02d}" + (f":{secs:02d}" if secs else "")


def _shift(row: list[str], delta: int, fields=TIME_FIELDS) -> None:
    for index in fields:
        row[index] = _clock(_seconds(row[index]) + delta)


def _by_site(rows: list[list[str]]) -> dict[str, list[list[str]]]:
    grouped: dict[str, list[list[str]]] = {}
    for row in rows:
        grouped.setdefault(row[0], []).append(row)
    for trips in grouped.values():
        trips.sort(key=lambda r: int(r[1]))
    return grouped


def mutate(kind: str, rows: list[list[str]], info, rng: random.Random) -> list[list[str]]:
    """Return a mutated copy of the data rows (header excluded)."""
    rows = [list(row) for row in rows]
    grouped = _by_site(rows)
    if kind == "slot_clash":
        ordered = sorted(rows, key=lambda r: _seconds(r[2]))
        pairs = [(a, b) for a, b in zip(ordered, ordered[1:]) if a[0] != b[0]]
        earlier, later = rng.choice(pairs)
        _shift(later, _seconds(earlier[2]) - _seconds(later[2]))
    elif kind == "pour_window":
        site = rng.choice(sorted(s for s, trips in grouped.items() if len(trips) > 1))
        _shift(grouped[site][-1], info.gamma_s + info.load_s)
    elif kind == "dropped_row":
        del rows[rng.randrange(len(rows))]
    elif kind == "duplicated_row":
        index = rng.randrange(len(rows))
        rows.insert(index + 1, list(rows[index]))
    elif kind == "arrival":
        # Arrive a minute later than depot start + L_t + h_i allows; the
        # departure moves with it so unloading still takes U_i.
        site = rng.choice(sorted(grouped))
        _shift(grouped[site][0], 60, fields=(3, 4))
    elif kind == "departure":
        row = rng.choice(rows)
        _shift(row, -60, fields=(4,))
    elif kind == "delivered":
        site = rng.choice(sorted(grouped))
        last = grouped[site][-1]
        total = float(last[5]) - 1
        last[5] = str(int(total)) if total.is_integer() else repr(total)
    else:
        raise ValueError(f"unknown mutant kind {kind!r}")
    return rows


def write_mutants(info, csv_text: str, paths: dict[str, Path], rng: random.Random) -> None:
    header, *rows = list(csv.reader(io.StringIO(csv_text)))
    for kind, path in paths.items():
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(mutate(kind, rows, info, rng))
        path.write_text(buffer.getvalue())
