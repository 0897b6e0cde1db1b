"""Time single layers of rmcdp and print them as Markdown sections:
priority search at no limit and under a fleet limit, schedule replay,
request inputs and command-line parse.

    PYTHONPATH=src:tests python tools/layer_times.py

Every figure is the best of 5 repeats.  ``tests`` is on the path for the
distinct-sites instance of ``tests/test_priority.py``.
"""

import time

from rmcdp.cli import _parse, build_parser
from rmcdp.io import (bundled_instance_path, bundled_schedule_path, load_instance,
                      read_schedule_csv)
from rmcdp.priority import priority_solve
from rmcdp.schedule import schedule_from_slots
from test_priority import distinct_sites_instance


def best(call, calls):
    """Fastest of 5 repeats of ``calls`` calls, in µs per call."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        for _ in range(calls):
            call()
        times.append((time.perf_counter() - started) / calls)
    return min(times) * 1e6


def section(heading, lines):
    print(f"### {heading}\n```")
    for line in lines:
        print(line)
    print("```")


def no_limit():
    for name in ("example-1", "instance-1", "instance-2"):
        instance = load_instance(bundled_instance_path(name))
        stats = priority_solve(instance).stats
        ms = best(lambda: priority_solve(instance), 20) / 1e3
        yield f"{name}: {stats.states} states, {stats.memo_hits} memo hits, {ms:.3f} ms"


def truck_limited(one):
    cases = [("distinct_sites_instance", distinct_sites_instance(), 10)]
    cases += [("instance-1", one, trucks) for trucks in range(12, 19)]
    for name, instance, trucks in cases:
        stats = priority_solve(instance, truck_limit=trucks).stats
        ms = best(lambda: priority_solve(instance, truck_limit=trucks), 1) / 1e3
        yield (f"{name} at {trucks} trucks: {stats.states} states, "
               f"{stats.memo_hits} memo hits, {ms:.2f} ms")


def replay():
    for name in ("instance-1", "instance-2"):
        instance = load_instance(bundled_instance_path(name))
        depot, winner = instance.depot, priority_solve(instance).schedule
        slots = {e.trip: (e.depot_start - depot.start_time) // depot.loading_time + 1
                 for e in winner.entries}
        yield (f"{name}: schedule_from_slots on the priority winner "
               f"{best(lambda: schedule_from_slots(instance, slots), 200):.1f} us")


def request_inputs(one):
    path = bundled_instance_path("instance-1")
    csv_path = bundled_schedule_path("instance-1-schedule")
    yield f"instance-1: load_instance {best(lambda: load_instance(path), 500):.1f} us"
    yield (f"instance-1-schedule: read_schedule_csv "
           f"{best(lambda: read_schedule_csv(csv_path, one), 500):.1f} us")


def command_line():
    parser = build_parser()
    for argv in (["check", "instance-1.json", "instance-1-schedule.csv", "--trucks", "17"],
                 ["solve", "instance-1.json", "--algorithm", "priority", "--trucks", "14"]):
        yield (f"{' '.join(argv)}: _parse {best(lambda: _parse(argv), 2000):.1f} us, "
               f"argparse {best(lambda: parser.parse_args(argv), 2000):.1f} us")


one = load_instance(bundled_instance_path("instance-1"))
section("Priority search at no limit (best of 5)", no_limit())
section("Truck-limited priority search (best of 5)", truck_limited(one))
section("Schedule replay (best of 5, µs per call)", replay())
section("Request inputs (best of 5, µs per call)", request_inputs(one))
section("Command-line parse (best of 5, µs per call)", command_line())
