"""Per-request correctness oracle.

A request fails when it raised, returned an unexpected exit code, returned
a schedule that ``check`` rejects, reported an objective that ``evaluate``
disagrees with on its own CSV, broke a reference row of the paper, broke
the oracle order ``grid <= exact <= greedy`` (and ``priority >= grid``
where the priority schedule fits the grid horizon), or is a mutant that
``check`` accepted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import KNOWN_CHECK_GAPS, MUTANT_KINDS, Plan, Request

EPS = 1e-9
TRUCK_OVERRUN = "check rejects the schedule: truck_overrun"


@dataclass
class Outcome:
    code: int | None                # exit code, None when the call raised
    stdout: str
    error: str = ""


@dataclass
class Verdict:
    failures: dict[int, list[str]] = field(default_factory=dict)
    #: kind -> [attempted, caught]
    mutants: dict[str, list[int]] = field(
        default_factory=lambda: {kind: [0, 0] for kind in MUTANT_KINDS}
    )
    wait_min_total: float = 0.0

    def fail(self, rid: int, reason: str) -> None:
        self.failures.setdefault(rid, []).append(reason)

    def known(self, plan: Plan) -> dict[int, str]:
        """Failed requests explained entirely by a documented program defect."""
        return {
            rid: defect
            for rid, reasons in self.failures.items()
            if (defect := known_defect(plan.requests[rid], reasons))
        }


def known_defect(request: Request, reasons: list[str]) -> str:
    """Name of the documented defect behind a failure, or ''.

    These failures count in ``failed_share`` and are listed by name, but do
    not make a run incorrect: they are open defects of the program, each
    described in this directory's README, and a fix makes them disappear.
    """
    if request.mutant in KNOWN_CHECK_GAPS and reasons == ["mutant accepted"]:
        return f"check misses {request.mutant} errors"
    if (
        request.algorithm == "priority"
        and request.trucks is not None
        and reasons == [TRUCK_OVERRUN]
    ):
        return "priority schedule needs more trucks than --trucks"
    return ""


class Oracle:
    """Checks a pass of outcomes with the program's own ``check``/``evaluate``.

    ``rio`` and ``schedule`` are the program's ``rmcdp.io`` and
    ``rmcdp.schedule`` modules.
    """

    def __init__(self, plan: Plan, rio, schedule) -> None:
        self.plan = plan
        self.rio = rio
        self.check = schedule.check
        self.evaluate = schedule.evaluate
        self.loaded = {
            name: rio.load_instance(info.path) for name, info in plan.instances.items()
        }
        self.inline_csv = plan.workdir / "oracle.csv"

    def verify(self, outcomes: list[Outcome]) -> Verdict:
        verdict = Verdict()
        objectives: dict[int, float] = {}
        last_slots: dict[int, int] = {}
        for request, outcome in zip(self.plan.requests, outcomes):
            if request.kind == "mutant":
                tally = verdict.mutants[request.mutant]
                tally[0] += 1
                tally[1] += outcome.code == request.expect_exit
            if outcome.error:
                verdict.fail(request.rid, f"raised {outcome.error}")
                continue
            if request.kind == "mutant" and outcome.code == 0:
                verdict.fail(request.rid, "mutant accepted")
                continue
            if outcome.code != request.expect_exit:
                verdict.fail(
                    request.rid, f"exit {outcome.code}, expected {request.expect_exit}"
                )
                continue
            try:
                payload = json.loads(outcome.stdout)
                reasons = getattr(self, "_" + request.kind)(
                    request, payload, verdict, objectives, last_slots
                )
            except (ValueError, KeyError, TypeError, OSError) as exc:
                reasons = [f"unreadable output: {exc!r}"]
            for reason in reasons:
                verdict.fail(request.rid, reason)

        for rel in self.plan.relations:
            if rel.lo not in objectives or rel.hi not in objectives:
                continue  # one side already failed
            if rel.horizon is not None and last_slots[rel.hi] > rel.horizon:
                continue
            if objectives[rel.lo] > objectives[rel.hi] + EPS:
                verdict.fail(
                    rel.blame,
                    f"{rel.label}: {objectives[rel.lo]} > {objectives[rel.hi]}",
                )
        return verdict

    # ----------------------------------------------------------- per kind

    def _objective(self, request, payload, path):
        """Check the CSV at ``path``; return reasons, waiting (min), schedule."""
        instance = self.loaded[request.instance]
        schedule = self.rio.read_schedule_csv(path, instance)
        reasons = []
        report = self.check(instance, schedule, truck_limit=request.trucks)
        if not report.feasible:
            kinds = sorted({v.kind for v in report.violations})
            reasons.append(f"check rejects the schedule: {', '.join(kinds)}")
        wait = self.evaluate(instance, schedule).total_site_wait / 60
        reported = payload["objective"]["total_site_wait_min"]
        if abs(reported - wait) > EPS:
            reasons.append(f"objective {reported} min, evaluate gives {wait} min")
        return reasons, wait, schedule

    def _solve(self, request, payload, verdict, objectives, last_slots) -> list[str]:
        if payload.get("feasible") is not True:
            return ["no schedule returned"]
        if "schedule_csv" in payload:
            path = Path(payload["schedule_csv"])
        else:
            self.inline_csv.write_text("\n".join(payload["schedule"]) + "\n")
            path = self.inline_csv
        reasons, wait, schedule = self._objective(request, payload, path)
        verdict.wait_min_total += wait
        objectives[request.rid] = wait
        info = self.plan.instances[request.instance]
        last_start = max(e.depot_start for e in schedule.entries)
        last_slots[request.rid] = (last_start - info.start_s) // info.load_s + 1

        observed = {
            "wait_min": wait,
            "trucks_required": payload["objective"]["trucks_required"],
            "permutations": payload.get("stats", {}).get("permutations_created"),
            "visited": payload.get("visited"),
        }
        for key, expected in request.ref.items():
            if key == "wait_min_above":
                if wait <= expected:
                    reasons.append(f"reference row: {wait} min, expected above {expected}")
            elif observed[key] != expected:
                reasons.append(f"reference row {key}: {observed[key]}, expected {expected}")
        return reasons

    def _check(self, request, payload, verdict, objectives, last_slots) -> list[str]:
        if payload.get("feasible") is not True:
            return ["check rejects a solver's schedule"]
        return self._objective(request, payload, Path(request.argv[2]))[0]

    def _mutant(self, request, payload, verdict, objectives, last_slots) -> list[str]:
        if payload.get("feasible") is not False or not payload.get("violations"):
            return ["exit 2 without a violation"]
        return []

    def _space(self, request, payload, verdict, objectives, last_slots) -> list[str]:
        info = self.plan.instances[request.instance]
        size = math.factorial(info.total_trips)
        for trips in info.trips:
            size //= math.factorial(trips)
        expected = {
            "sites": info.sites,
            "total_trips": info.total_trips,
            "loading_time_min": info.load_s / 60,
            "solution_space_size": str(size),
            "truck_upper_bound": 2 * info.gamma_s // info.load_s,
        }
        return [
            f"space {key}: {payload[key]!r}, expected {value!r}"
            for key, value in expected.items()
            if payload[key] != value
        ]

    def _export(self, request, payload, verdict, objectives, last_slots) -> list[str]:
        info = self.plan.instances[request.instance]
        trips, sites = info.total_trips, info.sites
        horizon = request.horizon or 2 * trips
        binaries = horizon * trips
        # eq22-25 per consecutive pair, eq26-28 per trip, eq29 per slot,
        # eq30 per trip.
        rows = 4 * (trips - sites) + 3 * trips + horizon + trips
        reasons = []
        if payload["horizon"] != horizon:
            reasons.append(f"horizon {payload['horizon']}, expected {horizon}")
        if payload["binaries"] != binaries:
            reasons.append(f"LP binaries {payload['binaries']}, expected {binaries}")
        if payload["binaries"] != request.ref.get("binaries", payload["binaries"]):
            reasons.append(
                f"reference row: {payload['binaries']} binaries, "
                f"expected {request.ref['binaries']}"
            )
        if payload["constraints"] != rows:
            reasons.append(f"LP rows {payload['constraints']}, expected {rows}")
        sections: dict[str, int] = {}
        current = None
        for line in Path(payload["lp"]).read_text().splitlines():
            if line in ("Minimize", "Subject To", "Bounds", "Binary", "End"):
                current = line
                sections[current] = 0
            elif current:
                sections[current] += 1
        if sections.get("Subject To") != rows or sections.get("Binary") != binaries:
            reasons.append(f"LP file sections {sections} disagree with the model")
        return reasons
