"""Spans around calls into the rmcdp modules, recorded from outside them.

The tracer rebinds a module's public function in every rmcdp module that
imported it, so calls from the CLI and between modules both pass through
it; nothing under ``src/rmcdp`` changes.  Only calls at layer boundaries
are wrapped: the search kernels' inner helpers (``place_site``, the time
parsers, the derived-time properties) run millions of times and wrapping
them would make tracing measure itself.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "io", "model", "schedule", "graphs", "priority", "mip")

TRACED = (
    ("io", "load_instance"),
    ("io", "instance_from_dict"),
    ("io", "read_schedule_csv"),
    ("io", "write_schedule_csv"),
    ("io", "schedule_to_csv"),
    ("schedule", "check"),
    ("schedule", "evaluate"),
    ("schedule", "expand_consecutive"),
    ("graphs", "build_graph"),
    ("graphs", "greedy_solve"),
    ("graphs", "enumerate_exact"),
    ("graphs", "grid_exact"),
    ("priority", "priority_solve"),
    ("mip", "build_mip"),
    ("mip", "emit_lp"),
)
REQUEST_SPAN = "cli.main"
INSTANCE_BUILD = "model.instance_build"


def _cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def priority_classes(instance) -> int:
    """Equivalence classes the priority search evaluates for ``instance``."""
    keys = Counter(
        (
            instance.trips_for(site),
            site.unload_time,
            site.haul_time,
            site.proposed_start,
            instance.gamma_for(site),
        )
        for site in instance.sites
    )
    classes = math.factorial(len(instance.sites))
    for count in keys.values():
        classes //= math.factorial(count)
    return classes


def _priority_facts(args, kwargs, result) -> dict:
    stats = result.stats
    return {
        "classes": priority_classes(args[0]),
        "permutations": stats.permutations_created,
        "feasible": stats.feasible_count,
        "threads": kwargs.get("threads", args[3] if len(args) > 3 else 1),
    }


#: Counts read off a call's arguments and result, after its span closed.
FACTS = {
    "priority.priority_solve": _priority_facts,
    "graphs.enumerate_exact": lambda args, kwargs, r: {
        "sequences": r.visited,
        "feasible": r.feasible_count,
    },
    "mip.build_mip": lambda args, kwargs, r: {
        "rows": len(r.rows),
        "binaries": r.binary_count,
    },
}


class Tracer:
    def __init__(self) -> None:
        #: [name, start, end, parent index, request id]
        self.spans: list[list] = []
        self.facts: dict[int, dict] = {}
        self.stack: list[int] = []
        self.request: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- recording

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def begin_request(self, rid: int) -> None:
        self.request = rid
        self.open(REQUEST_SPAN)

    def end_request(self) -> None:
        self.close(self.stack[0])
        self.request = None

    def _wrap(self, name: str, fn):
        tracer = self
        facts = FACTS.get(name)
        measure_cpu = name == "priority.priority_solve"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            cpu = _cpu_seconds() if measure_cpu else 0.0
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if facts is not None:
                tracer.facts[index] = facts(args, kwargs, result)
            if measure_cpu:
                tracer.facts[index]["cpu"] = _cpu_seconds() - cpu
            return result

        return traced

    # ------------------------------------------------------ installation

    def install(self, package: str = "rmcdp") -> None:
        """Rebind the traced functions in every loaded module of the package."""
        modules = [
            m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")
        ]
        for layer, attr in TRACED:
            original = getattr(sys.modules[f"{package}.{layer}"], attr)
            wrapper = self._wrap(f"{layer}.{attr}", original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
        instance_cls = sys.modules[f"{package}.model"].Instance
        post_init = instance_cls.__post_init__
        self._undo.append((instance_cls, "__post_init__", post_init))
        instance_cls.__post_init__ = self._wrap(INSTANCE_BUILD, post_init)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    # ---------------------------------------------------------- analysis

    def write(self, path) -> None:
        with open(path, "w") as out:
            for index, (name, start, end, parent, rid) in enumerate(self.spans):
                record = {"name": name, "start": start, "end": end,
                          "parent": parent, "request": rid}
                record.update(self.facts.get(index, {}))
                out.write(json.dumps(record) + "\n")


def self_times(spans: list[list], first: int, last: int) -> dict[str, float]:
    """Seconds each layer spent in its own code: span minus child spans."""
    child = defaultdict(float)
    for name, start, end, parent, _ in spans[first:last]:
        if parent is not None:
            child[parent] += end - start
    layers = {layer: 0.0 for layer in LAYERS}
    for index in range(first, last):
        name, start, end, _, _ = spans[index]
        layers[name.split(".")[0]] += end - start - child[index]
    return layers


def pass_metrics(tracer: Tracer, first: int, last: int, wall: float) -> dict[str, float]:
    """Per-layer figures of one traced pass: spans ``first`` to ``last``."""
    spans = tracer.spans
    durations: dict[str, list[float]] = defaultdict(list)
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for index in range(first, last):
        name, start, end, _, _ = spans[index]
        durations[name].append(end - start)
        for key, value in tracer.facts.get(index, {}).items():
            totals[name][key] += value
        totals[name]["seconds"] += end - start
        if name == "priority.priority_solve":
            totals[name]["core_seconds"] += (end - start) * tracer.facts[index]["threads"]

    def mean_ms(name: str) -> float:
        values = durations.get(name)
        return 1000 * statistics.fmean(values) if values else 0.0

    def ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return scale * numerator / denominator if denominator else 0.0

    selfs = self_times(spans, first, last)
    prio = totals["priority.priority_solve"]
    exact = totals["graphs.enumerate_exact"]
    mip = totals["mip.build_mip"]
    metrics = {f"{layer}.self_ms": 1000 * selfs[layer] for layer in LAYERS}
    metrics.update({
        "io.load_instance_ms": mean_ms("io.load_instance"),
        "io.csv_write_ms": mean_ms("io.schedule_to_csv"),
        "io.csv_read_ms": mean_ms("io.read_schedule_csv"),
        "model.instance_build_ms": mean_ms(INSTANCE_BUILD),
        "priority.solve_ms": mean_ms("priority.priority_solve"),
        "priority.classes": prio["classes"],
        "priority.us_per_class": ratio(prio["seconds"], prio["classes"], 1e6),
        "priority.parallel_efficiency": ratio(prio["cpu"], prio["core_seconds"]),
        "priority.feasible_share": ratio(prio["feasible"], prio["permutations"]),
        "graphs.exact_ms": mean_ms("graphs.enumerate_exact"),
        "graphs.sequences": exact["sequences"],
        "graphs.us_per_sequence": ratio(exact["seconds"], exact["sequences"], 1e6),
        "graphs.exact_feasible_share": ratio(exact["feasible"], exact["sequences"]),
        "graphs.grid_ms": mean_ms("graphs.grid_exact"),
        "graphs.greedy_ms": mean_ms("graphs.greedy_solve"),
        "schedule.check_ms": mean_ms("schedule.check"),
        "schedule.check_calls": len(durations.get("schedule.check", ())),
        "schedule.evaluate_ms": mean_ms("schedule.evaluate"),
        "schedule.expand_ms": mean_ms("schedule.expand_consecutive"),
        "mip.build_ms": mean_ms("mip.build_mip"),
        "mip.emit_ms": mean_ms("mip.emit_lp"),
        "mip.rows": mip["rows"],
        "mip.binaries": mip["binaries"],
        "trace.self_share": ratio(sum(selfs.values()), wall),
    })
    return metrics


def derived_read_us(instances, budget: float = 0.05) -> float:
    """Microseconds per read of one site's haul time plus the loading time."""
    pairs = 0
    started = time.perf_counter()
    while True:
        for instance in instances:
            depot = instance.depot
            for site in instance.sites:
                site.haul_time
                depot.loading_time
                pairs += 1
        elapsed = time.perf_counter() - started
        if elapsed >= budget:
            return 1e6 * elapsed / pairs
