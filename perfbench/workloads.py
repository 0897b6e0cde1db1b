"""Seeded inputs and request lists for the four benchmark workloads.

Every workload starts from a fixed family of base instances.  The seed
applies only transformations that must leave every solver's answer and
its amount of work unchanged: a clock shift of the depot and all
requested starts, a different distance/speed pair for the same haul time,
a demand jitter inside the same trip count, a shuffled site order in the
file and, where no tie-break on site ids is measured, a relabelling of the
ids.  So the same seed gives byte-identical files, different seeds give
different files, and a metric that moves between runs moved because the
program did, not because the inputs got harder.

The program only ever sees the generated JSON and CSV files.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from mutants import write_mutants

#: One-line reason for each workload, printed with its results.
WHY = {
    "paper": "reference rows of the paper; priority search with heavy class "
    "sharing (1,680 classes stand for 362,880 permutations)",
    "distinct-sites": "priority search with no class sharing (5,040 classes "
    "per 7-site instance) on the 2-process path",
    "exact-oracle": "the graphs search kernels (exact on 11,550 and 4,200 "
    "sequences, grid-exact, greedy) do almost all the work here and almost "
    "none elsewhere",
    "roundtrip": "144 small requests a pass: JSON/CSV reads beside CSV/LP "
    "writes, so io, schedule, mip and cli are measured end to end",
}
WORKLOADS = tuple(WHY)

#: Mutant kinds ``check`` does not detect today.
KNOWN_CHECK_GAPS = ("arrival", "departure", "delivered")
MUTANT_KINDS = (
    "slot_clash",
    "pour_window",
    "dropped_row",
    "duplicated_row",
    "trucks_below_need",
) + KNOWN_CHECK_GAPS

#: Speeds (km/h) for which distance = speed * haul_minutes / 60 is a
#: decimal with one digit, so the haul time stays exact.
SPEEDS = (30, 36, 48, 60, 72, 90)

TRUCK_CAPACITY = 10


@dataclass(frozen=True)
class SiteRow:
    trips: int
    unload: int     # minutes
    haul: int       # minutes
    proposed: int   # minutes after the depot start


@dataclass(frozen=True)
class Base:
    name: str
    load: int       # loading time L_t, minutes
    gamma: int      # pour window, minutes
    sites: tuple[SiteRow, ...]


def _rows(*rows: tuple[int, int, int, int]) -> tuple[SiteRow, ...]:
    return tuple(SiteRow(*row) for row in rows)


# exact-oracle: back-to-back search spaces of 11,550 and 4,200 sequences,
# and a 6-trip instance small enough for grid-exact at horizon 10.  With
# L_t = 10 min and a 70 min pour window, part of the large spaces breaks the
# window while greedy still finds a feasible sequence.  A pass stays near
# 3 s so a run holds enough passes for a steady fastest time.
EXACT_BASES = (
    Base("e11", 10, 70, _rows((4, 25, 12, 20), (4, 15, 18, 35), (3, 20, 22, 10))),
    Base("e10", 10, 70, _rows((3, 20, 10, 15), (4, 25, 15, 30), (3, 15, 20, 45))),
    Base("s6", 10, 60, _rows((2, 20, 10, 15), (2, 25, 15, 30), (2, 15, 20, 45))),
)
GRID_HORIZON = 10

# distinct-sites: seven sites whose (trips, unload, haul, requested start)
# all differ, so no two sites share an equivalence class.
DISTINCT_BASES = (
    Base("d1", 5, 90, _rows(
        (5, 20, 8, 0), (4, 25, 11, 10), (3, 30, 14, 20), (5, 15, 17, 30),
        (4, 20, 20, 40), (3, 25, 23, 50), (4, 30, 26, 60))),
    Base("d2", 5, 90, _rows(
        (4, 15, 9, 5), (5, 25, 12, 15), (3, 20, 15, 25), (4, 30, 18, 35),
        (5, 20, 21, 45), (3, 15, 24, 55), (4, 25, 27, 65))),
)


def _roundtrip_bases() -> tuple[Base, ...]:
    """Twelve instances of 3 to 6 sites, drawn once from a fixed stream."""
    rng = random.Random(20181026)
    bases = []
    for index, n in enumerate((3, 4, 5, 6) * 3):
        rows = []
        for _ in range(n):
            trips = rng.randint(2, 4)
            unload = rng.choice((15, 20, 25, 30))
            haul = rng.randint(5, 25)
            rows.append(SiteRow(trips, unload, haul, rng.randrange(0, 61, 5)))
        bases.append(Base(f"r{index:02d}", 5, 90, tuple(rows)))
    return tuple(bases)


ROUNDTRIP_BASES = _roundtrip_bases()
PAPER_FILES = ("example-1", "instance-1", "instance-2")


@dataclass
class InstanceInfo:
    name: str
    path: Path
    trips: tuple[int, ...]
    load_s: int
    gamma_s: int
    start_s: int

    @property
    def sites(self) -> int:
        return len(self.trips)

    @property
    def total_trips(self) -> int:
        return sum(self.trips)


@dataclass
class Request:
    rid: int
    kind: str                       # solve | check | mutant | space | export
    instance: str
    argv: list[str]
    algorithm: str = ""
    mutant: str = ""
    trucks: int | None = None       # --trucks given to solve or check
    horizon: int | None = None      # --horizon given to export-mip
    expect_exit: int = 0
    ref: dict = field(default_factory=dict)
    #: Called after the request, untimed, with the request's stdout.
    after: Callable[[str], None] | None = None


@dataclass(frozen=True)
class Relation:
    """``objective(lo) <= objective(hi)``; a breach fails ``blame``."""

    lo: int
    hi: int
    blame: int
    label: str
    horizon: int | None = None      # only when hi's schedule fits it


@dataclass
class Plan:
    workload: str
    seed: int
    workdir: Path
    instances: dict[str, InstanceInfo]
    requests: list[Request]
    relations: list[Relation]
    digest: str


# ---------------------------------------------------------------- helpers


def clock(seconds: int) -> str:
    return f"{seconds // 3600}:{seconds % 3600 // 60:02d}"


def parse_clock(value: str) -> int:
    hours, minutes = value.split(":")
    return int(hours) * 3600 + int(minutes) * 60


def _number(value: Fraction):
    return int(value) if value.denominator == 1 else float(value)


def base_doc(base: Base) -> dict:
    productivity = Fraction(TRUCK_CAPACITY * 60, base.load)
    return {
        "depot": {
            "start": "8:00",
            "plant_capacity": TRUCK_CAPACITY,
            "productivity": _number(productivity),
            "truck_capacity": TRUCK_CAPACITY,
            "gamma": base.gamma,
        },
        "sites": [
            {
                "id": sid,
                "demand": row.trips * TRUCK_CAPACITY,
                "distance": row.haul,
                "speed": 60,
                "unload": row.unload,
                "proposed_start": clock(8 * 3600 + row.proposed * 60),
            }
            for sid, row in enumerate(base.sites, start=1)
        ],
    }


def transform(doc: dict, rng: random.Random, shuffle: bool, relabel: bool) -> dict:
    """Apply the answer-preserving seed transformations to an instance."""
    depot = dict(doc["depot"])
    shift = rng.randrange(-60, 121) * 60
    depot["start"] = clock(parse_clock(depot["start"]) + shift)
    capacity = Fraction(str(depot["truck_capacity"]))
    sites = []
    for site in doc["sites"]:
        site = dict(site)
        haul_min = Fraction(str(site["distance"])) / Fraction(str(site["speed"])) * 60
        speed = rng.choice(SPEEDS)
        site["speed"] = speed
        site["distance"] = _number(haul_min * speed / 60)
        trips = math.ceil(Fraction(str(site["demand"])) / capacity)
        site["demand"] = _number(trips * capacity - rng.randrange(int(capacity)))
        site["proposed_start"] = clock(parse_clock(site["proposed_start"]) + shift)
        sites.append(site)
    if shuffle:
        rng.shuffle(sites)
    if relabel:
        ids = list(range(1, len(sites) + 1))
        rng.shuffle(ids)
        for site, new_id in zip(sites, ids):
            site["id"] = new_id
    return {"depot": depot, "sites": sites}


def _info(name: str, path: Path, doc: dict) -> InstanceInfo:
    depot = doc["depot"]
    capacity = Fraction(str(depot["truck_capacity"]))
    load = capacity / Fraction(str(depot["productivity"])) * 3600
    return InstanceInfo(
        name=name,
        path=path,
        trips=tuple(
            math.ceil(Fraction(str(s["demand"])) / capacity) for s in doc["sites"]
        ),
        load_s=int(load),
        gamma_s=int(depot.get("gamma", 90)) * 60,
        start_s=parse_clock(depot["start"]),
    )


class _PlanWriter:
    def __init__(self, workload: str, seed: int, workdir: Path, validate) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.validate = validate
        self.rng = random.Random(f"{workload}:{seed}")
        self.instances: dict[str, InstanceInfo] = {}
        self.requests: list[Request] = []
        self.relations: list[Relation] = []
        self.written: list[Path] = []

    def instance(self, name: str, doc: dict, shuffle: bool, relabel: bool) -> InstanceInfo:
        doc = transform(doc, self.rng, shuffle, relabel)
        self.validate(doc)
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        self.written.append(path)
        info = _info(name, path, doc)
        self.instances[name] = info
        return info

    def add(self, kind: str, info: InstanceInfo, *args: str, **fields) -> Request:
        argv = {
            "solve": ["solve"],
            "check": ["check"],
            "mutant": ["check"],
            "space": ["space"],
            "export": ["export-mip"],
        }[kind] + [str(info.path), *args]
        request = Request(len(self.requests), kind, info.name, argv, **fields)
        self.requests.append(request)
        return request

    def solve(self, info: InstanceInfo, algorithm: str, *args: str, **fields) -> Request:
        return self.add(
            "solve", info, "--algorithm", algorithm, *args, algorithm=algorithm, **fields
        )

    def plan(self) -> Plan:
        digest = hashlib.sha256()
        for path in sorted(self.written):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        return Plan(
            self.workload,
            self.seed,
            self.workdir,
            self.instances,
            self.requests,
            self.relations,
            digest.hexdigest(),
        )


# -------------------------------------------------------------- workloads


def _paper(b: _PlanWriter, data_dir: Path) -> None:
    docs = {
        name: json.loads((data_dir / f"{name}.json").read_text())
        for name in PAPER_FILES
    }
    ex1, one, two = (b.instance(n, docs[n], True, True) for n in PAPER_FILES)
    threads = ("--threads", "1")
    b.solve(ex1, "exact", ref={"wait_min": 60, "visited": 6})
    b.solve(ex1, "greedy", ref={"wait_min": 60})
    b.solve(ex1, "priority", *threads, ref={"wait_min": 60, "permutations": 2})
    b.solve(one, "priority", *threads, ref={"wait_min": 195, "permutations": 120})
    sweep = {}
    for trucks in range(12, 19):
        ref = {"permutations": 120}
        if trucks >= 17:
            ref.update(wait_min=195)
        else:
            ref.update(wait_min_above=195)
        if trucks == 17:
            ref.update(trucks_required=17)
        sweep[trucks] = b.solve(
            one, "priority", "--trucks", str(trucks), *threads, trucks=trucks, ref=ref
        )
    for trucks in range(12, 18):
        more, fewer = sweep[trucks + 1].rid, sweep[trucks].rid
        b.relations.append(Relation(more, fewer, more, "truck sweep not monotone"))
    b.solve(one, "priority", "--beta", "1.5", *threads, ref={"permutations": 120})
    b.solve(two, "priority", *threads, ref={"wait_min": 885, "permutations": 362_880})
    b.add("export", one, "--horizon", "32", "--out", str(b.workdir / "instance-1.lp"),
          horizon=32, ref={"binaries": 800})
    b.add("export", two, "--out", str(b.workdir / "instance-2.lp"))


def _distinct_sites(b: _PlanWriter) -> None:
    # Site order in the file decides how the class list is split between
    # worker processes, so only the ids are permuted here.
    for base in DISTINCT_BASES:
        info = b.instance(base.name, base_doc(base), False, True)
        b.solve(info, "priority", "--threads", "2")


def _exact_oracle(b: _PlanWriter) -> None:
    # Greedy breaks ties on the lowest site id, so ids keep their sites.
    e11, e10, s6 = (b.instance(base.name, base_doc(base), True, False)
                    for base in EXACT_BASES)
    for info in (e11, e10):
        exact = b.solve(info, "exact")
        greedy = b.solve(info, "greedy")
        b.relations.append(Relation(exact.rid, greedy.rid, exact.rid, "exact > greedy"))
    grid = b.solve(s6, "grid-exact", "--horizon", str(GRID_HORIZON))
    exact = b.solve(s6, "exact")
    greedy = b.solve(s6, "greedy")
    priority = b.solve(s6, "priority", "--threads", "1")
    b.relations += [
        Relation(grid.rid, exact.rid, grid.rid, "grid > exact"),
        Relation(exact.rid, greedy.rid, exact.rid, "exact > greedy"),
        Relation(grid.rid, priority.rid, priority.rid, "priority < grid",
                 horizon=GRID_HORIZON),
    ]


def _roundtrip(b: _PlanWriter) -> None:
    for base in ROUNDTRIP_BASES:
        info = b.instance(base.name, base_doc(base), True, False)
        csv_path = b.workdir / f"{base.name}.csv"
        solve = b.solve(info, "greedy", "--out", str(csv_path))
        b.add("check", info, str(csv_path))
        mutant_paths = {}
        for kind in MUTANT_KINDS:
            if kind == "trucks_below_need":
                below = b.add("mutant", info, str(csv_path), mutant=kind, expect_exit=2)
                continue
            path = b.workdir / f"{base.name}.{kind}.csv"
            mutant_paths[kind] = path
            b.add("mutant", info, str(path), mutant=kind, expect_exit=2)
        b.add("space", info)
        b.add("export", info, "--out", str(b.workdir / f"{base.name}.lp"))
        solve.after = _after_roundtrip_solve(
            info, csv_path, mutant_paths, below, b.rng.getrandbits(32)
        )


def _after_roundtrip_solve(info, csv_path, mutant_paths, below, seed):
    """Write the mutants of a fresh solve and size the fleet-limit mutant."""
    base_argv = list(below.argv)

    def after(stdout: str) -> None:
        below.argv[:] = base_argv
        below.trucks = None
        try:
            need = json.loads(stdout)["objective"]["trucks_required"]
        except (ValueError, KeyError, TypeError):
            return  # the solve failed; the oracle reports it
        below.trucks = need - 1
        below.argv += ["--trucks", str(need - 1)]
        if csv_path.exists():
            write_mutants(info, csv_path.read_text(), mutant_paths, random.Random(seed))

    return after


def build(workload: str, seed: int, workdir: Path, data_dir: Path, validate) -> Plan:
    """Write the workload's inputs under ``workdir`` and list its requests.

    ``validate`` receives every generated instance document and must raise
    if the program would refuse it.
    """
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    writer = _PlanWriter(workload, seed, workdir, validate)
    if workload == "paper":
        _paper(writer, data_dir)
    elif workload == "distinct-sites":
        _distinct_sites(writer)
    elif workload == "exact-oracle":
        _exact_oracle(writer)
    else:
        _roundtrip(writer)
    return writer.plan()
