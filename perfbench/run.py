"""rmcdp benchmark: closed-loop CLI requests, checked, timed and traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper --seed 0 --seconds 10 --trace 0

One client sends one ``rmcdp`` CLI request at a time, in-process through
``rmcdp.cli.main(argv)`` with its output captured, and sends the next one
when it returns.  The workload's request list is repeated in passes until
``--seconds`` have gone by; each pass is checked by the oracle afterwards.
With ``--trace 0`` the last line of output holds the end-to-end metrics,
with times in reference seconds (see ``speed.py``); with ``--trace 1`` the
run measures untraced passes for half the time and traced passes for the
other half, and reports the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import tracing
from oracle import Oracle, Outcome
from speed import Speed
from workloads import KNOWN_CHECK_GAPS, WHY, build

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "rmcdp" / "data"
WORK = ROOT / ".perfbench"

#: Set-ups per run; setup_s is their median.
SETUPS = 5

#: name -> unit, in the order they are printed.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "ok_share": "share",
    "wait_min_total": "min",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{layer}.self_ms": "ms" for layer in tracing.LAYERS},
    "io.load_instance_ms": "ms",
    "io.csv_write_ms": "ms",
    "io.csv_read_ms": "ms",
    "model.derived_read_us": "us",
    "model.instance_build_ms": "ms",
    "priority.solve_ms": "ms",
    "priority.classes": "count",
    "priority.us_per_class": "us",
    "priority.parallel_efficiency": "share",
    "priority.feasible_share": "share",
    "graphs.exact_ms": "ms",
    "graphs.sequences": "count",
    "graphs.us_per_sequence": "us",
    "graphs.exact_feasible_share": "share",
    "graphs.grid_ms": "ms",
    "graphs.greedy_ms": "ms",
    "schedule.check_ms": "ms",
    "schedule.check_calls": "count",
    "schedule.evaluate_ms": "ms",
    "schedule.expand_ms": "ms",
    "schedule.mutants_caught_share": "share",
    "mip.build_ms": "ms",
    "mip.emit_ms": "ms",
    "mip.rows": "count",
    "mip.binaries": "count",
    "trace.overhead_s": "s",
    "trace.self_share": "share",
}


class Program:
    """A fresh import of the rmcdp package from this checkout's ``src``."""

    def __init__(self) -> None:
        for name in [n for n in sys.modules if n == "rmcdp" or n.startswith("rmcdp.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        self.cli = importlib.import_module("rmcdp.cli")
        self.io = importlib.import_module("rmcdp.io")
        self.schedule = importlib.import_module("rmcdp.schedule")
        origin = Path(sys.modules["rmcdp"].__file__).resolve()
        if SRC.resolve() not in origin.parents:
            raise RuntimeError(f"rmcdp imported from {origin}, not from {SRC}")


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


#: glibc's sysconf numbers for the data cache sizes, which ``os`` does not name.
CACHE_SYSCONF = {"l1d": 188, "l2": 191, "l3": 194}


def cache_sizes() -> dict[str, int]:
    sizes = {}
    for level, number in CACHE_SYSCONF.items():
        try:
            sizes[level] = os.sysconf(number)
        except (ValueError, OSError):
            pass
    return sizes


def environment(plan) -> dict:
    return {
        "workload": plan.workload,
        "why": WHY[plan.workload],
        "seed": plan.seed,
        "inputs_sha256": plan.digest,
        "requests_per_pass": len(plan.requests),
        "nproc": usable_cores(),
        "python": platform.python_version(),
        "caches_bytes": cache_sizes(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_request(cli_main, argv: list[str]) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a request that raises is a failed request
        return Outcome(None, out.getvalue(), f"{exc!r}\n{traceback.format_exc()}")
    return Outcome(code, out.getvalue())


def run_pass(plan, cli_main, speed: Speed, tracer=None):
    """One pass over the request list.

    Returns the measured pass time, each request's time in reference
    seconds, and the outcomes.
    """
    times, outcomes = [], []
    started = time.perf_counter()
    for request in plan.requests:
        speed.start()
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin_request(request.rid)
        try:
            outcome = run_request(cli_main, request.argv)
        finally:
            if tracer is not None:
                tracer.end_request()
        speed.add(times, time.perf_counter() - t0)
        outcomes.append(outcome)
        if request.after is not None:
            request.after(outcome.stdout)
    speed.close()
    return time.perf_counter() - started, times, outcomes


class Tally:
    """Pass results of one mode (traced or not)."""

    def __init__(self, plan) -> None:
        self.plan = plan
        self.walls: list[float] = []            # measured seconds
        self.times: list[list[float]] = []      # reference seconds
        self.verdicts = []
        self.marks: list[int] = []              # first span of each traced pass

    def add(self, wall, times, verdict) -> None:
        self.walls.append(wall)
        self.times.append(times)
        self.verdicts.append(verdict)

    def request_times(self) -> list[float]:
        """Each request's median time over the passes, in reference seconds."""
        return [statistics.median(column) for column in zip(*self.times)]

    def wall(self) -> float:
        """Time of the whole request list, each request at its median."""
        return sum(self.request_times())

    @property
    def attempted(self) -> int:
        return len(self.verdicts) * len(self.plan.requests)

    def failed(self, include_known: bool) -> int:
        total = 0
        for verdict in self.verdicts:
            failed = set(verdict.failures)
            if not include_known:
                failed -= set(verdict.known(self.plan))
            total += len(failed)
        return total

    def known(self) -> Counter:
        """Failures per documented defect, over all passes."""
        return Counter(
            defect for v in self.verdicts for defect in v.known(self.plan).values()
        )

    def mutants(self) -> dict[str, list[int]]:
        merged: dict[str, list[int]] = {}
        for verdict in self.verdicts:
            for kind, (attempted, caught) in verdict.mutants.items():
                entry = merged.setdefault(kind, [0, 0])
                entry[0] += attempted
                entry[1] += caught
        return merged


def measure(plan, program, oracle, speed, seconds, tracer=None) -> Tally:
    """Run passes until ``seconds`` have gone by; at least one."""
    tally = Tally(plan)
    if tracer is not None:
        tracer.install()
    try:
        started = time.perf_counter()
        while not tally.walls or time.perf_counter() - started < seconds:
            if tracer is not None:
                tally.marks.append(len(tracer.spans))
            gc.collect()  # every pass starts from the same heap state
            wall, times, outcomes = run_pass(plan, program.cli.main, speed, tracer)
            tally.add(wall, times, oracle.verify(outcomes))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return tally


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(tally: Tally, setups: list[float]) -> dict[str, float]:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": statistics.median(setups),
        "wall_s": tally.wall(),
        "request_ms_p50": 1000 * quantile(tally.request_times(), 50),
        "request_ms_p90": 1000 * quantile(tally.request_times(), 90),
        "ok_share": 1 - tally.failed(True) / tally.attempted,
        "wait_min_total": statistics.median(v.wait_min_total for v in tally.verdicts),
        "peak_rss_mb": (own + children) / 1024,
    }


def per_layer(tracer, traced: Tally, untraced: Tally, oracle) -> dict:
    bounds = traced.marks + [len(tracer.spans)]
    passes = [
        tracing.pass_metrics(tracer, bounds[index], bounds[index + 1], wall)
        for index, wall in enumerate(traced.walls)
    ]
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    mutants = traced.mutants()
    attempted = sum(a for a, _ in mutants.values())
    metrics["schedule.mutants_caught_share"] = (
        sum(c for _, c in mutants.values()) / attempted if attempted else 0.0
    )
    metrics["trace.overhead_s"] = traced.wall() - untraced.wall()
    metrics["model.derived_read_us"] = tracing.derived_read_us(list(oracle.loaded.values()))
    return metrics


def report(title: str, metrics: dict, units: dict, notes: dict) -> None:
    print(f"== {title}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:32s} {metrics[name]:>14.6g} {unit}{note}")


def print_mutants(tally: Tally) -> None:
    print("== check mutants (caught/attempted)")
    for kind, (attempted, caught) in tally.mutants().items():
        if attempted:
            gap = "  known checker gap" if kind in KNOWN_CHECK_GAPS else ""
            print(f"{kind:32s} {caught:>6d}/{attempted}{gap}")


def print_failures(plan, tally: Tally) -> None:
    """Each distinct failure once, apart from documented defects."""
    for defect, count in sorted(tally.known().items()):
        print(f"known defect: {defect}: {count} failed requests")
    shown = set()
    for verdict in tally.verdicts:
        known = verdict.known(plan)
        for rid, reasons in sorted(verdict.failures.items()):
            line = f"FAIL r{rid} rmcdp {' '.join(plan.requests[rid].argv)}: {'; '.join(reasons)}"
            if rid not in known and line not in shown:
                shown.add(line)
                print(line, file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rmcdp" / "cli.py").is_file():
        print(f"error: no rmcdp sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "distinct-sites" and usable_cores() < 2:
        print(
            f"error: distinct-sites runs two worker processes and needs 2 cores; "
            f"{usable_cores()} available, so it is not run",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))

    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        speed, setups = Speed(), []
        for index in range(SETUPS):
            speed.start()
            started = time.perf_counter()
            program = Program()
            plan = build(args.workload, args.seed, run_dir / f"setup-{index}", DATA,
                         program.io.instance_from_dict)
            speed.add(setups, time.perf_counter() - started)
            speed.close()
        oracle = Oracle(plan, program.io, program.schedule)
        info = environment(plan)
        print("perfbench " + json.dumps(info))

        if args.trace:
            untraced = measure(plan, program, oracle, speed, args.seconds / 2)
            tracer = tracing.Tracer()
            traced = measure(plan, program, oracle, speed, args.seconds / 2, tracer)
            metrics = per_layer(tracer, traced, untraced, oracle)
            tallies = (untraced, traced)
            tracer.write(WORK / f"trace-{args.workload}.jsonl")
            report("per-layer metrics (traced passes)", metrics, PER_LAYER, {})
            units = PER_LAYER
        else:
            untraced = measure(plan, program, oracle, speed, args.seconds)
            metrics = end_to_end(untraced, setups)
            tallies = (untraced,)
            samples = len(untraced.times[0])
            failed_share = 1 - metrics["ok_share"]
            report("end-to-end metrics (times in reference seconds)", metrics, END_TO_END, {
                "setup_s": f"median of {SETUPS} set-ups",
                "wall_s": f"{len(untraced.walls)} passes; measured median pass "
                f"{statistics.median(untraced.walls):.6g} s",
                "request_ms_p50": f"over {samples} requests",
                "request_ms_p90": f"over {samples} requests"
                + ("" if samples >= 100 else ", fewer than 100"),
                "ok_share": f"failed_share = {failed_share:.6g}",
            })
            units = END_TO_END
        print_mutants(untraced)
        for tally in tallies:
            print_failures(plan, tally)

        attempted = sum(t.attempted for t in tallies)
        failed = sum(t.failed(False) for t in tallies)
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
            },
        }
        record = {"environment": info, **result, "pass_times": untraced.times}
        (WORK / f"result-{args.workload}.json").write_text(json.dumps(record) + "\n")
        print(json.dumps(result))
        return 0
    finally:
        for child in multiprocessing.active_children():
            child.terminate()
            child.join()
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
