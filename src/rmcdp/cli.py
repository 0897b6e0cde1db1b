"""Command-line interface.

Exit codes: 0 success / feasible, 1 stdout closed early (no traceback), 2
infeasible or no solution, 3 malformed input or usage, 4 instance too large
for exhaustive search (its sequence space or a search size is over its cap).
"""

from __future__ import annotations

import os
import sys
from decimal import Decimal
from functools import cache
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

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


def _at_least_one(args: SimpleNamespace, *flags: str) -> None:
    """Refuse a count flag given below 1, before any file is read."""
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise InputError(f"--{flag}: must be at least 1, got {value}")


def _named_out(args: SimpleNamespace) -> None:
    """Refuse an empty ``--out``, before any file is read."""
    if args.out == "":
        raise InputError("--out: must name a file, got ''")


def cmd_solve(args: SimpleNamespace) -> int:
    # --threads is accepted for compatibility and has no effect.
    _at_least_one(args, "threads", "trucks")
    _named_out(args)
    if args.horizon is not None and args.algorithm != "grid-exact":
        raise InputError(f"--horizon: only grid-exact reads it, not {args.algorithm}")
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
        print(rio.to_json(payload))
        return EXIT_INFEASIBLE

    payload["feasible"] = True
    payload["dispatch_sequence"] = list(result.sequence)
    payload["objective"] = _objective_payload(instance, schedule)
    if args.out is not None:
        rio.write_schedule_csv(args.out, schedule)
        payload["schedule_csv"] = str(args.out)
    else:
        payload["schedule"] = rio.schedule_to_csv(schedule).splitlines()
    print(rio.to_json(payload))
    return EXIT_OK


def cmd_check(args: SimpleNamespace) -> int:
    _at_least_one(args, "trucks", "gamma")
    instance = rio.load_instance(args.instance)
    schedule = rio.read_schedule_csv(args.schedule, instance)
    gamma = args.gamma * 60 if args.gamma is not None else None
    report = check(instance, schedule, gamma_override=gamma, truck_limit=args.trucks)
    payload = {
        "feasible": report.feasible,
        "violations": [
            {
                "kind": v.kind,
                "trips": [list(trip) for trip in v.trips],
                "measured": v.measured,
                "bound": v.bound,
                "detail": v.detail,
            }
            for v in report.violations
        ],
    }
    if report.feasible:
        payload["objective"] = _objective_payload(instance, schedule)
    print(rio.to_json(payload))
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_space(args: SimpleNamespace) -> int:
    instance = rio.load_instance(args.instance)
    lt = instance.depot.loading_time
    gamma = instance.depot.gamma
    payload = {
        "sites": len(instance.sites),
        "total_trips": total_trips(instance),
        "loading_time_min": lt / 60,
        # Decimal prints every digit; str() of an int stops at 4,300.
        "solution_space_size": str(Decimal(solution_space_size(instance))),
        "truck_upper_bound": truck_upper_bound(gamma, lt),
        "trucks_per_window": gamma // lt,
    }
    print(rio.to_json(payload))
    return EXIT_OK


def cmd_export_mip(args: SimpleNamespace) -> int:
    _named_out(args)
    instance = rio.load_instance(args.instance)
    model = build_mip(instance, args.horizon)
    text = emit_lp(model)
    stem = Path(args.instance).stem
    out = Path(args.out if args.out is not None else f"{stem}_{model.horizon}.lp")
    rio.write_text(out, text)
    payload = {
        "lp": str(out),
        "horizon": model.horizon,
        "binaries": model.binary_count,
        "constraints": len(model.rows),
    }
    print(rio.to_json(payload))
    return EXIT_OK


def cmd_bench(args: SimpleNamespace) -> int:
    example, one, two = (rio.load_instance(rio.bundled_instance_path(name))
                         for name in ("example-1", "instance-1", "instance-2"))
    exact = enumerate_exact(example)
    first, second = priority_solve(one).stats, priority_solve(two).stats
    sweep = {}  # minutes of waiting at each fleet size, None when nothing fits
    for trucks in range(12, 19):
        best = priority_solve(one, truck_limit=trucks).stats.best_objective
        sweep[trucks] = None if best is None else best // 60
    values = [v for v in sweep.values() if v is not None]
    # (name, measured, expected, tolerance); a tolerance of 0 asks for equality.
    table = [
        ("example-1 exact optimum (min)", exact.objective // 60, 60, 0),
        ("example-1 sequences visited", exact.visited, 6, 0),
        ("example-1 greedy sequence", list(greedy_solve(example).sequence), [1, 2, 1, 2], 0),
        ("example-1 priority optimum (min)",
         priority_solve(example).stats.best_objective // 60, 60, 0),
        ("instance-1 best waiting (min)", first.best_objective // 60, 195, 0),
        ("instance-1 permutations", first.permutations_created, 120, 0),
        ("instance-1 feasibility (%)", round(first.feasibility_rate * 100, 2), 100.0, 0),
        ("instance-1 waiting at 17 trucks (min)", sweep[17], 195, 0),
        ("instance-1 waiting at 18 trucks (min)", sweep[18], 195, 0),
        ("instance-1 truck sweep monotone", values == sorted(values, reverse=True), True, 0),
        ("instance-2 best waiting (min)", second.best_objective // 60, 885, 0),
        ("instance-2 permutations", second.permutations_created, 362880, 0),
        ("instance-2 feasibility (%)", round(second.feasibility_rate * 100, 2), 16.57, 0.01),
        ("instance-2 runtime under 120 s", second.runtime < 120.0, True, 0),
    ]
    rows = [
        {"name": name, "measured": measured, "expected": expected,
         "ok": abs(measured - expected) <= tolerance if tolerance else measured == expected}
        for name, measured, expected, tolerance in table
    ]
    payload = {"rows": rows, "deviations": [r["name"] for r in rows if not r["ok"]]}
    if args.json:
        print(rio.to_json(payload))
    else:
        width = max(len(r["name"]) for r in rows)
        for r in rows:
            flag = "ok " if r["ok"] else "DEV"
            print(f"{flag} {r['name']:<{width}} measured={r['measured']} expected={r['expected']}")
        if payload["deviations"]:
            print(f"{len(payload['deviations'])} deviation(s) from reference results")
    return EXIT_OK


class Option(NamedTuple):
    """One ``--flag`` of a command."""

    kind: type | tuple[str, ...]  # int, str, bool (a flag) or the choices
    default: object = None
    help: str | None = None


class Command(NamedTuple):
    """One command: what runs it, its help line, its file arguments and its
    flags."""

    handler: Callable[[SimpleNamespace], int]
    help: str
    positionals: tuple[str, ...]
    options: dict[str, Option]  # keyed by name, read as --name


#: Every command and flag, declared once: ``build_parser`` and ``_parse``
#: both read this table.
COMMANDS = {
    "solve": Command(cmd_solve, "compute a dispatch schedule", ("instance",), {
        "algorithm": Option(("priority", "greedy", "exact", "grid-exact"), "priority"),
        "beta": Option(str, "1", "dispatch pacing factor (>= 1)"),
        "trucks": Option(int, help="fleet size limit"),
        "threads": Option(int, help="no effect"),
        "horizon": Option(int, help="slots for grid-exact"),
        "out": Option(str, help="write the schedule CSV here"),
    }),
    "check": Command(
        cmd_check, "verify a schedule CSV against an instance", ("instance", "schedule"), {
            "gamma": Option(int, help="override, minutes"),
            "trucks": Option(int),
        },
    ),
    "space": Command(cmd_space, "size of the dispatch-sequence space", ("instance",), {}),
    "export-mip": Command(cmd_export_mip, "write the model as an LP file", ("instance",), {
        "horizon": Option(int),
        "out": Option(str),
    }),
    "bench": Command(cmd_bench, "run the bundled reference instances", (), {
        "json": Option(bool, False),
    }),
}


@cache
def build_parser():
    """The argparse tree of ``COMMANDS``, built on first use and shared by
    every call.  It parses what ``_parse`` leaves: help, ``--flag=value``,
    abbreviated flags and every usage error."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="rmcdp",
        description="Ready-mixed-concrete delivery scheduling for a single depot",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        cmd = sub.add_parser(name, help=command.help)
        for positional in command.positionals:
            cmd.add_argument(positional)
        for option_name, option in command.options.items():
            flag, kind = f"--{option_name}", option.kind
            if kind is bool:
                cmd.add_argument(flag, action="store_true", help=option.help)
            elif isinstance(kind, tuple):
                cmd.add_argument(flag, choices=kind, default=option.default, help=option.help)
            else:
                cmd.add_argument(flag, type=kind, default=option.default, help=option.help)
        cmd.set_defaults(func=command.handler)
    return parser


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of a plain command line, read straight off ``COMMANDS``.

    Plain means: an exact command name; exact full flags, each followed by
    a value that does not start with ``-`` (``--json`` takes none); int
    values that ``int()`` reads and choices among their choices; and
    exactly the command's positionals.  Any other ``argv`` gives ``None``,
    for argparse to parse or refuse.
    """
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    values = {name: option.default for name, option in command.options.items()}
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            positionals.append(token)
            continue
        name = token[2:] if token[:2] == "--" else None
        option = command.options.get(name)
        if option is None:
            return None
        kind = option.kind
        if kind is bool:
            values[name] = True
            continue
        value = next(tokens, "-")  # a flag with no value is not plain
        if value[:1] == "-":
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        values[name] = value
    if len(positionals) != len(command.positionals):
        return None
    values.update(zip(command.positionals, positionals))
    return SimpleNamespace(command=argv[0], func=command.handler, **values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    if args is None:
        try:
            args = SimpleNamespace(**vars(build_parser().parse_args(argv)))
        except SystemExit as exc:
            if exc.code != 2:  # --help exits 0
                raise
            return EXIT_INPUT  # argparse's usage error; 2 means infeasible here
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
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_STDOUT_CLOSED


if __name__ == "__main__":
    sys.exit(main())
