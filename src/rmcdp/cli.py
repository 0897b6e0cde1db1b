"""Command-line interface.

Exit codes: 0 success / feasible, 1 stdout closed early (no traceback), 2
infeasible or no solution, 3 malformed input, 4 instance too large for
exhaustive enumeration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from pathlib import Path

from . import io as rio
from .graphs import SizeCapError, enumerate_exact, greedy_solve, grid_exact
from .mip import build_mip, emit_lp
from .model import (
    Instance,
    InputError,
    solution_space_size,
    total_trips,
    truck_upper_bound,
)
from .priority import parse_beta, priority_solve
from .schedule import Schedule, check, evaluate

EXIT_OK = 0
EXIT_STDOUT_CLOSED = 1
EXIT_INFEASIBLE = 2
EXIT_INPUT = 3
EXIT_TOO_LARGE = 4


def _objective_payload(instance: Instance, schedule: Schedule) -> dict:
    report = evaluate(instance, schedule)
    return {
        "total_site_wait_min": report.total_site_wait / 60,
        "first_wait_min": report.first_wait_total / 60,
        "inter_trip_wait_min": report.inter_trip_wait_total / 60,
        "truck_idle_min": report.truck_idle_total / 60,
        "trucks_required": report.trucks_required,
        "per_site": {
            str(site_id): {
                "first_wait_min": s.first_wait / 60,
                "inter_trip_wait_min": s.inter_trip_wait / 60,
                "truck_idle_min": s.truck_idle / 60,
            }
            for site_id, s in sorted(report.per_site.items())
        },
    }


def cmd_solve(args: argparse.Namespace) -> int:
    # --threads is accepted for compatibility and has no effect.
    if args.threads is not None and args.threads < 1:
        raise InputError(f"--threads: must be at least 1, got {args.threads}")
    if args.trucks is not None and args.trucks < 1:
        raise InputError(f"--trucks: must be at least 1, got {args.trucks}")
    beta = parse_beta(args.beta)
    instance = rio.load_instance(args.instance)
    truck_limit = args.trucks if args.trucks is not None else instance.depot.truck_count
    payload: dict = {"algorithm": args.algorithm}
    schedule: Schedule | None

    if args.algorithm == "priority":
        result = priority_solve(instance, beta=beta, truck_limit=truck_limit)
        schedule = result.schedule
        payload["stats"] = {
            "permutations_created": result.stats.permutations_created,
            "feasible": result.stats.feasible_count,
            "feasibility_rate": result.stats.feasibility_rate,
            "runtime_s": round(result.stats.runtime, 3),
            "states": result.stats.states,
            "memo_hits": result.stats.memo_hits,
        }
        if result.permutation:
            payload["priority_order"] = list(result.permutation)
    elif args.algorithm == "greedy":
        result = greedy_solve(instance, truck_limit=truck_limit)
        schedule = result.schedule if result.report.feasible else None
        payload["sequence"] = list(result.sequence)
        if not result.report.feasible:
            payload["violations"] = [v.detail for v in result.report.violations]
    elif args.algorithm == "exact":
        result = enumerate_exact(instance, truck_limit=truck_limit)
        schedule = result.schedule
        payload["visited"] = result.visited
        payload["states"] = result.states
    else:  # grid-exact
        result = grid_exact(instance, args.horizon, truck_limit)
        schedule = result.schedule

    if schedule is None:
        payload["feasible"] = False
        print(json.dumps(payload, indent=2))
        return EXIT_INFEASIBLE

    payload["feasible"] = True
    payload["dispatch_sequence"] = list(schedule.dispatch_sequence())
    payload["objective"] = _objective_payload(instance, schedule)
    if args.out:
        rio.write_schedule_csv(args.out, schedule)
        payload["schedule_csv"] = str(args.out)
    else:
        payload["schedule"] = rio.schedule_to_csv(schedule).splitlines()
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    instance = rio.load_instance(args.instance)
    schedule = rio.read_schedule_csv(args.schedule, instance)
    gamma = args.gamma * 60 if args.gamma is not None else None
    report = check(instance, schedule, gamma_override=gamma, truck_limit=args.trucks)
    payload = {
        "feasible": report.feasible,
        "violations": [
            {
                "kind": v.kind,
                "trips": [[t.site_id, t.trip_index] for t in v.trips],
                "measured": v.measured,
                "bound": v.bound,
                "detail": v.detail,
            }
            for v in report.violations
        ],
    }
    if report.feasible:
        payload["objective"] = _objective_payload(instance, schedule)
    print(json.dumps(payload, indent=2))
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_space(args: argparse.Namespace) -> int:
    instance = rio.load_instance(args.instance)
    lt = instance.depot.loading_time
    gamma = instance.depot.gamma
    payload = {
        "sites": len(instance.sites),
        "total_trips": total_trips(instance),
        "loading_time_min": lt / 60,
        "solution_space_size": str(solution_space_size(instance)),
        "truck_upper_bound": truck_upper_bound(gamma, lt),
        "trucks_per_window": gamma // lt,
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_export_mip(args: argparse.Namespace) -> int:
    instance = rio.load_instance(args.instance)
    model = build_mip(instance, args.horizon)
    text = emit_lp(model)
    stem = Path(args.instance).stem
    out = Path(args.out) if args.out else Path(f"{stem}_{model.horizon}.lp")
    rio.write_text(out, text)
    print(
        json.dumps(
            {
                "lp": str(out),
                "horizon": model.horizon,
                "binaries": model.binary_count,
                "constraints": len(model.rows),
            },
            indent=2,
        )
    )
    return EXIT_OK


def _bench_row(name: str, measured, expected, tolerance: float = 0.0) -> dict:
    if isinstance(measured, (int, float)) and isinstance(expected, (int, float)):
        ok = abs(measured - expected) <= tolerance
    else:
        ok = measured == expected
    return {"name": name, "measured": measured, "expected": expected, "ok": ok}


def cmd_bench(args: argparse.Namespace) -> int:
    rows: list[dict] = []

    example = rio.load_instance(rio.bundled_instance_path("example-1"))
    exact = enumerate_exact(example)
    rows.append(_bench_row("example-1 exact optimum (min)", exact.objective // 60, 60))
    rows.append(_bench_row("example-1 sequences visited", exact.visited, 6))
    greedy = greedy_solve(example)
    rows.append(
        _bench_row("example-1 greedy sequence", list(greedy.sequence), [1, 2, 1, 2])
    )
    prio = priority_solve(example)
    rows.append(
        _bench_row(
            "example-1 priority optimum (min)", prio.stats.best_objective // 60, 60
        )
    )

    one = rio.load_instance(rio.bundled_instance_path("instance-1"))
    result = priority_solve(one)
    rows.append(
        _bench_row("instance-1 best waiting (min)", result.stats.best_objective // 60, 195)
    )
    rows.append(
        _bench_row(
            "instance-1 permutations", result.stats.permutations_created, 120
        )
    )
    rows.append(
        _bench_row(
            "instance-1 feasibility (%)",
            round(result.stats.feasibility_rate * 100, 2),
            100.0,
        )
    )
    sweep = {}
    for trucks in range(12, 19):
        swept = priority_solve(one, truck_limit=trucks)
        sweep[trucks] = (
            swept.stats.best_objective // 60
            if swept.stats.best_objective is not None
            else None
        )
    rows.append(_bench_row("instance-1 waiting at 17 trucks (min)", sweep[17], 195))
    rows.append(_bench_row("instance-1 waiting at 18 trucks (min)", sweep[18], 195))
    values = [v for v in sweep.values() if v is not None]
    rows.append(
        _bench_row(
            "instance-1 truck sweep monotone",
            values == sorted(values, reverse=True),
            True,
        )
    )

    two = rio.load_instance(rio.bundled_instance_path("instance-2"))
    result2 = priority_solve(two)
    rows.append(
        _bench_row(
            "instance-2 best waiting (min)", result2.stats.best_objective // 60, 885
        )
    )
    rows.append(
        _bench_row(
            "instance-2 permutations", result2.stats.permutations_created, 362880
        )
    )
    rows.append(
        _bench_row(
            "instance-2 feasibility (%)",
            round(result2.stats.feasibility_rate * 100, 2),
            16.57,
            tolerance=0.01,
        )
    )
    rows.append(
        _bench_row(
            "instance-2 runtime under 120 s", result2.stats.runtime < 120.0, True
        )
    )

    payload = {"rows": rows, "deviations": [r["name"] for r in rows if not r["ok"]]}
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        width = max(len(r["name"]) for r in rows)
        for r in rows:
            flag = "ok " if r["ok"] else "DEV"
            print(f"{flag} {r['name']:<{width}} measured={r['measured']} expected={r['expected']}")
        if payload["deviations"]:
            print(f"{len(payload['deviations'])} deviation(s) from reference results")
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="rmcdp",
        description="Ready-mixed-concrete delivery scheduling for a single depot",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute a dispatch schedule")
    solve.add_argument("instance")
    solve.add_argument(
        "--algorithm",
        choices=("priority", "greedy", "exact", "grid-exact"),
        default="priority",
    )
    solve.add_argument("--beta", default="1", help="dispatch pacing factor (>= 1)")
    solve.add_argument("--trucks", type=int, default=None, help="fleet size limit")
    solve.add_argument("--threads", type=int, default=None, help="no effect")
    solve.add_argument("--horizon", type=int, default=None, help="slots for grid-exact")
    solve.add_argument("--out", default=None, help="write the schedule CSV here")
    solve.set_defaults(func=cmd_solve)

    chk = sub.add_parser("check", help="verify a schedule CSV against an instance")
    chk.add_argument("instance")
    chk.add_argument("schedule")
    chk.add_argument("--gamma", type=int, default=None, help="override, minutes")
    chk.add_argument("--trucks", type=int, default=None)
    chk.set_defaults(func=cmd_check)

    space = sub.add_parser("space", help="size of the dispatch-sequence space")
    space.add_argument("instance")
    space.set_defaults(func=cmd_space)

    export = sub.add_parser("export-mip", help="write the model as an LP file")
    export.add_argument("instance")
    export.add_argument("--horizon", type=int, default=None)
    export.add_argument("--out", default=None)
    export.set_defaults(func=cmd_export_mip)

    bench = sub.add_parser("bench", help="run the bundled reference instances")
    bench.add_argument("--json", action="store_true")
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_STDOUT_CLOSED


if __name__ == "__main__":
    sys.exit(main())
