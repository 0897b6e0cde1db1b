"""Tests of the benchmark itself: generators, mutants and the oracle.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from mutants import mutate  # noqa: E402
from oracle import Oracle, Outcome, known_defect  # noqa: E402
from speed import Speed  # noqa: E402


@pytest.fixture(scope="module")
def program():
    return run.Program()


def make_plan(program, workload, seed, directory):
    return workloads.build(
        workload, seed, directory, run.DATA, program.io.instance_from_dict
    )


def run_requests(program, plan, count):
    return [run.run_request(program.cli.main, r.argv) for r in plan.requests[:count]]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_files(program, tmp_path, workload):
    first = make_plan(program, workload, 7, tmp_path / "a")
    second = make_plan(program, workload, 7, tmp_path / "b")
    other = make_plan(program, workload, 8, tmp_path / "c")
    assert first.digest == second.digest
    assert first.digest != other.digest
    for path in sorted((tmp_path / "a").iterdir()):
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()
    assert [r.argv[0] for r in first.requests] == [r.argv[0] for r in other.requests]


def test_seed_transformations_keep_the_optimum(program, tmp_path):
    objectives = set()
    for seed in range(3):
        plan = make_plan(program, "exact-oracle", seed, tmp_path / str(seed))
        exact_s6 = next(
            r for r in plan.requests if r.instance == "s6" and r.algorithm == "exact"
        )
        outcome = run.run_request(program.cli.main, exact_s6.argv)
        objectives.add(json.loads(outcome.stdout)["objective"]["total_site_wait_min"])
    assert len(objectives) == 1


def test_paper_pass_prefix_passes_the_oracle(program, tmp_path):
    plan = make_plan(program, "paper", 1, tmp_path)
    outcomes = run_requests(program, plan, 4)
    verdict = Oracle(plan, program.io, program.schedule).verify(outcomes)
    assert verdict.failures == {}
    assert verdict.wait_min_total == 60 + 60 + 60 + 195


def test_tampered_objective_fails(program, tmp_path):
    plan = make_plan(program, "paper", 1, tmp_path)
    outcomes = run_requests(program, plan, 1)
    payload = json.loads(outcomes[0].stdout)
    payload["objective"]["total_site_wait_min"] -= 5
    outcomes[0].stdout = json.dumps(payload)
    verdict = Oracle(plan, program.io, program.schedule).verify(outcomes)
    assert any("evaluate gives" in r for r in verdict.failures[0])


def test_broken_reference_row_fails(program, tmp_path):
    plan = make_plan(program, "paper", 1, tmp_path)
    outcomes = run_requests(program, plan, 4)
    assert plan.requests[3].ref["permutations"] == 120
    payload = json.loads(outcomes[3].stdout)
    payload["stats"]["permutations_created"] = 119
    outcomes[3].stdout = json.dumps(payload)
    verdict = Oracle(plan, program.io, program.schedule).verify(outcomes)
    assert verdict.failures == {3: ["reference row permutations: 119, expected 120"]}


def test_accepted_mutant_fails_and_only_known_gaps_are_excused(program, tmp_path):
    plan = make_plan(program, "roundtrip", 1, tmp_path)
    oracle = Oracle(plan, program.io, program.schedule)
    outcomes = [Outcome(0, "{}") for _ in plan.requests]
    verdict = oracle.verify(outcomes)
    mutants = [r for r in plan.requests if r.kind == "mutant"]
    for request in mutants:
        assert "mutant accepted" in verdict.failures[request.rid]
    known = verdict.known(plan)
    assert {plan.requests[rid].mutant for rid in known} == set(
        workloads.KNOWN_CHECK_GAPS
    )
    assert not known_defect(plan.requests[0], ["mutant accepted"])


def test_roundtrip_pass_fails_only_on_known_checker_gaps(program, tmp_path):
    plan = make_plan(program, "roundtrip", 2, tmp_path)
    oracle = Oracle(plan, program.io, program.schedule)
    _, _, outcomes = run.run_pass(plan, program.cli.main, Speed())
    verdict = oracle.verify(outcomes)
    known = verdict.known(plan)
    assert set(verdict.failures) == set(known)
    for kind, (attempted, caught) in verdict.mutants.items():
        assert attempted == len(workloads.ROUNDTRIP_BASES)
        expected = 0 if kind in workloads.KNOWN_CHECK_GAPS else attempted
        assert caught == expected, kind


@pytest.mark.parametrize(
    "kind", [k for k in workloads.MUTANT_KINDS if k != "trucks_below_need"]
)
def test_each_mutant_changes_the_schedule(program, tmp_path, kind):
    plan = make_plan(program, "roundtrip", 3, tmp_path)
    solve = plan.requests[0]
    run.run_request(program.cli.main, solve.argv)
    header, *rows = Path(solve.argv[-1]).read_text().splitlines()
    rows = [line.split(",") for line in rows]
    info = plan.instances[solve.instance]
    assert mutate(kind, rows, info, random.Random(0)) != rows


def test_trace_self_times_stay_within_the_pass(program, tmp_path):
    import tracing

    plan = make_plan(program, "roundtrip", 4, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wall, _, _ = run.run_pass(plan, program.cli.main, Speed(), tracer)
    finally:
        tracer.uninstall()
    metrics = tracing.pass_metrics(tracer, 0, len(tracer.spans), wall)
    assert 0.5 < metrics["trace.self_share"] <= 1.0
    assert metrics["schedule.check_calls"] > 0
    assert program.cli.check is program.schedule.check  # uninstalled


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    for metric in spec["end_to_end"] + spec["per_layer"]:
        units = run.END_TO_END | run.PER_LAYER
        assert metric["unit"] == units[metric["name"]]
