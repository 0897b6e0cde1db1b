import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rmcdp.cli import COMMANDS, _parse, build_parser, main
from rmcdp.io import bundled_instance_path, bundled_schedule_path, parse_time

from test_io import LONG_CLOCKS

EXAMPLE1 = str(bundled_instance_path("example-1"))
INSTANCE1 = str(bundled_instance_path("instance-1"))
INSTANCE2 = str(bundled_instance_path("instance-2"))
GOLDEN = str(bundled_schedule_path("instance-1-schedule"))


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def uniform_sites(tmp_path, trips, sites=1, productivity=600):
    """An instance file of ``sites`` sites of ``trips`` trips each, loaded in
    ``36_000 // productivity`` s (one minute at the default)."""
    doc = {
        "depot": {"start": "0:00", "plant_capacity": 10, "productivity": productivity,
                  "truck_capacity": 10, "gamma": 90},
        "sites": [
            {"id": i, "demand": 10 * trips, "distance": 1, "speed": 60, "unload": 20,
             "proposed_start": "0:00"}
            for i in range(1, sites + 1)
        ],
    }
    path = tmp_path / f"{sites}x{trips}.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestSolve:
    def test_priority_on_reference_instance(self, capsys):
        code, out = run(capsys, "solve", INSTANCE1)
        payload = json.loads(out)
        assert code == 0
        assert payload["feasible"] is True
        assert payload["objective"]["total_site_wait_min"] == 195
        assert payload["objective"]["trucks_required"] == 17
        assert payload["stats"]["permutations_created"] == 120
        assert payload["stats"]["states"] == 34
        assert payload["stats"]["memo_hits"] == 13

    def test_exact_on_small_example(self, capsys):
        code, out = run(capsys, "solve", EXAMPLE1, "--algorithm", "exact")
        payload = json.loads(out)
        assert code == 0
        assert payload["dispatch_sequence"] == [1, 2, 1, 2]
        assert payload["objective"]["total_site_wait_min"] == 60
        assert (payload["visited"], payload["states"]) == (6, 13)

    def test_greedy(self, capsys):
        code, out = run(capsys, "solve", EXAMPLE1, "--algorithm", "greedy")
        payload = json.loads(out)
        assert code == 0
        assert payload["sequence"] == [1, 2, 1, 2]

    @pytest.mark.parametrize(
        "instance, algorithm",
        [(EXAMPLE1, algorithm) for algorithm in ("priority", "greedy", "exact", "grid-exact")]
        + [(INSTANCE1, "priority"), (INSTANCE1, "greedy"), (INSTANCE2, "priority")],
    )
    def test_dispatch_sequence_is_schedule_by_depot_start(self, capsys, instance, algorithm):
        # The CLI prints each solver's own sequence; it must be the schedule's
        # sites in loading order.
        code, out = run(capsys, "solve", instance, "--algorithm", algorithm)
        payload = json.loads(out)
        assert code == 0
        rows = sorted((parse_time(row.split(",")[2]), int(row.split(",")[0]))
                      for row in payload["schedule"][1:])
        assert payload["dispatch_sequence"] == [site_id for _, site_id in rows]

    def test_exact_size_cap_exit_code(self, capsys):
        code, _ = run(capsys, "solve", INSTANCE1, "--algorithm", "exact")
        assert code == 4

    def test_infeasible_truck_limit_exit_code(self, capsys):
        code, out = run(capsys, "solve", INSTANCE1, "--trucks", "3")
        assert code == 2
        assert json.loads(out)["feasible"] is False

    def test_missing_file_exit_code(self, capsys):
        code, _ = run(capsys, "solve", "/no/such/file.json")
        assert code == 3

    def test_writes_schedule_csv(self, capsys, tmp_path):
        out_path = tmp_path / "schedule.csv"
        code, out = run(capsys, "solve", INSTANCE1, "--out", str(out_path))
        assert code == 0
        assert out_path.read_text().startswith(
            "site,trip,depot_start,site_start,site_end,delivery"
        )
        assert json.loads(out)["schedule_csv"] == str(out_path)

    def test_threads_flag(self, capsys):
        code, out = run(capsys, "solve", INSTANCE1, "--threads", "2")
        assert code == 0
        assert json.loads(out)["objective"]["total_site_wait_min"] == 195

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_bad_threads_flag_rejected(self, capsys, value):
        code = main(["solve", INSTANCE1, "--threads", value])
        err = capsys.readouterr().err
        assert code == 3
        assert err == f"error: --threads: must be at least 1, got {value}\n"

    @pytest.mark.parametrize(
        "section, field, message",
        [("sites", "id", "sites[0].id"), ("depot", "trucks", "depot.trucks")],
    )
    def test_non_integer_count_exit_code(self, capsys, tmp_path, section, field, message):
        doc = json.loads(Path(EXAMPLE1).read_text())
        target = doc["sites"][0] if section == "sites" else doc["depot"]
        target[field] = 1.5
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps(doc))
        code = main(["solve", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert f"{message}: expected an integer, got 1.5" in captured.err

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "section, field",
        [("depot", f) for f in ("start", "plant_capacity", "productivity",
                                "truck_capacity", "trucks", "gamma")]
        + [("sites", f) for f in ("id", "demand", "distance", "speed", "unload",
                                  "proposed_start", "gamma_override")],
    )
    def test_non_finite_number_exit_code(self, capsys, tmp_path, section, field, value):
        # Python's json reads these literals as floats; no field takes them.
        doc = json.loads(Path(EXAMPLE1).read_text())
        target = doc["sites"][0] if section == "sites" else doc["depot"]
        target[field] = float(value)
        path = tmp_path / "non-finite.json"
        path.write_text(json.dumps(doc))
        assert value in path.read_text()
        code = main(["solve", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        where = "sites[0]" if section == "sites" else "depot"
        expected = "an integer" if field in ("id", "trucks") else "a finite number"
        assert f"{where}.{field}: expected {expected}, got" in captured.err

    def test_integer_with_too_many_digits_exit_code(self, capsys, tmp_path):
        # json.loads refuses to convert an integer of more than 4,300 digits.
        doc = json.loads(Path(EXAMPLE1).read_text())
        doc["sites"][0]["demand"] = "HUGE"
        path = tmp_path / "long-integer.json"
        path.write_text(json.dumps(doc).replace('"HUGE"', "1" + "0" * 5000))
        code = main(["solve", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")

    def test_clock_with_too_many_digits_exit_code(self, capsys, tmp_path):
        doc = json.loads(Path(EXAMPLE1).read_text())
        doc["depot"]["start"] = "1" + "0" * 5000 + ":00"
        path = tmp_path / "long-clock.json"
        path.write_text(json.dumps(doc))
        code = main(["solve", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: depot.start: expected 'H:MM', got 5004 characters\n"
        )

    @pytest.mark.parametrize("text", LONG_CLOCKS.values(), ids=LONG_CLOCKS.keys())
    def test_long_clock_exit_code(self, capsys, tmp_path, text):
        doc = json.loads(Path(EXAMPLE1).read_text())
        doc["depot"]["start"] = text
        path = tmp_path / "long-clock.json"
        path.write_text(json.dumps(doc))
        code = main(["solve", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        message = f"depot.start: expected 'H:MM', got {len(text)} characters"
        assert captured.err == f"error: {path}: {message}\n"
        assert len(message) < 100

    def test_clock_digit_int_cannot_read_exit_code(self, capsys, tmp_path):
        # '²'.isdigit() is true, but a clock takes ASCII digits only.
        doc = json.loads(Path(EXAMPLE1).read_text())
        doc["depot"]["start"] = "8:0\u00b2"
        path = tmp_path / "superscript-clock.json"
        path.write_text(json.dumps(doc))
        code = main(["solve", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == f"error: {path}: depot.start: expected 'H:MM', got '8:0²'\n"

    def test_deeply_nested_json_exit_code(self, capsys, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code = main(["solve", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"error: {path}: invalid JSON: nested too deeply\n"

    def test_unwritable_out_exit_code(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "schedule.csv"
        code = main(["solve", EXAMPLE1, "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith(f"error: {out_path}: ")

    @pytest.mark.parametrize("section, key", [("depot", "truck"), ("site", "gamma")])
    def test_unknown_field_exit_code(self, capsys, tmp_path, section, key):
        doc = json.loads(Path(EXAMPLE1).read_text())
        (doc["depot"] if section == "depot" else doc["sites"][0])[key] = 30
        path = tmp_path / "misspelt.json"
        path.write_text(json.dumps(doc))
        code = main(["solve", str(path)])
        captured = capsys.readouterr()
        where = "depot" if section == "depot" else "sites[0]"
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: {where}.{key}: unknown field (a {section} has ")

    def test_instance_not_utf8_exit_code(self, capsys, tmp_path):
        path = tmp_path / "latin-1.json"
        path.write_bytes(Path(EXAMPLE1).read_bytes().replace(b"{", b'{"note": "caf\xe9", ', 1))
        code = main(["solve", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"error: {path}: not UTF-8 text (byte 13)\n"

    @pytest.mark.parametrize("command", ["solve", "space", "export-mip"])
    def test_demand_beyond_a_day_of_loading_rejected(self, capsys, tmp_path, command):
        # 1e308 m3 is a finite number, but about 10^307 trips.
        doc = json.loads(Path(EXAMPLE1).read_text())
        doc["sites"][0]["demand"] = 1e308
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "sites[0].demand: the trips up to this site need more than 24 h" in captured.err

    @pytest.mark.parametrize("algorithm", ["priority", "greedy", "exact", "grid-exact"])
    def test_depot_trucks_bind_every_solver(self, capsys, tmp_path, algorithm):
        doc = json.loads(Path(EXAMPLE1).read_text())
        doc["depot"]["trucks"] = 1
        path = tmp_path / "one-truck.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "solve", str(path), "--algorithm", algorithm)
        assert code == 2
        assert json.loads(out)["feasible"] is False

    def test_grid_exact_honours_truck_flag(self, capsys):
        code, out = run(
            capsys, "solve", EXAMPLE1, "--algorithm", "grid-exact", "--trucks", "1"
        )
        assert code == 2
        assert json.loads(out)["feasible"] is False

    @pytest.mark.parametrize(
        "argv", [["solve", EXAMPLE1, "--algorithm", "grid-exact"], ["export-mip", EXAMPLE1]]
    )
    def test_zero_horizon_rejected(self, capsys, tmp_path, argv):
        code = main([*argv, "--horizon", "0", "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "horizon" in captured.err

    @pytest.mark.parametrize("algorithm", ["priority", "greedy", "exact"])
    def test_horizon_only_for_grid_exact(self, capsys, algorithm):
        code = main(["solve", EXAMPLE1, "--algorithm", algorithm, "--horizon", "8"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            f"error: --horizon: only grid-exact reads it, not {algorithm}\n"
        )

    @pytest.mark.parametrize(
        "algorithm, at_cap, over_cap, levels",
        [("exact", (500, 1), (501, 1), "trips"), ("priority", (1, 500), (1, 501), "sites")],
    )
    def test_search_depth_cap(self, capsys, tmp_path, algorithm, at_cap, over_cap, levels):
        # One recursion level per trip (exact) or per site (priority): the
        # cap solves, one more is refused before the search recurses.
        code, out = run(capsys, "solve", uniform_sites(tmp_path, *at_cap),
                        "--algorithm", algorithm)
        assert code == 0
        assert json.loads(out)["feasible"] is True
        code = main(["solve", uniform_sites(tmp_path, *over_cap), "--algorithm", algorithm])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == (
            f"error: {algorithm} search supports at most 500 {levels}, got 501\n"
        )

    def test_grid_caps_exit_code(self, capsys, tmp_path):
        # Over a grid cap is too large for exhaustive search (4), like the
        # exact and priority caps; a horizon outside 4..288 slots is
        # malformed input (3).
        doc = json.loads(Path(EXAMPLE1).read_text())
        doc["sites"].append({**doc["sites"][0], "id": 3})
        for site, demand in zip(doc["sites"], (40, 30, 30)):
            site["demand"] = demand
        ten_trips = tmp_path / "ten-trips.json"
        ten_trips.write_text(json.dumps(doc))
        for argv, code, message in [
            ([INSTANCE2], 4, "grid search supports at most 3 sites, got 9"),
            ([str(ten_trips)], 4, "grid search supports at most 9 trips, got 10"),
            ([EXAMPLE1, "--horizon", "25"], 4, "grid search supports at most 24 slots, got 25"),
            ([EXAMPLE1, "--horizon", "3"], 3, "horizon: 3 slots, need 4 trips to 288"),
            ([EXAMPLE1, "--horizon", "289"], 3, "horizon: 289 slots, need 4 trips to 288"),
        ]:
            assert main(["solve", *argv, "--algorithm", "grid-exact"]) == code, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {message}"), argv

    @pytest.mark.parametrize("beta", ["1e20", "1e308", "1e5000"])
    def test_huge_beta_under_fleet_limit_is_infeasible(self, capsys, beta):
        # 1e5000 has more digits than Python writes out of an int.
        code, out = run(capsys, "solve", INSTANCE1, "--beta", beta, "--trucks", "3")
        assert code == 2
        assert json.loads(out)["feasible"] is False

    def test_tiny_beta_rejected(self, capsys):
        code = main(["solve", EXAMPLE1, "--beta", "1e-5000"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: beta: must be at least 1, got '1e-5000'\n"

    def test_horizon_over_two_days_rejected(self, capsys, tmp_path):
        # 10-minute loadings: 288 slots are 48 h; 50 million would be built
        # as 200 million LP binaries.
        code = main(["export-mip", EXAMPLE1, "--horizon", "50000000",
                     "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "horizon" in captured.err and "48 h" in captured.err

    def test_closed_stdout_exits_quietly(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before anything is written
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "rmcdp.cli", "solve", EXAMPLE1],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert done.returncode == 1
        # No traceback, and no "Exception ignored" note from the exit flush.
        assert done.stderr == b""

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
    def test_closed_stdout_leaves_no_descriptor_open(self, monkeypatch):
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            read_end, write_end = os.pipe()
            os.close(read_end)  # stdout's reader is gone
            with open(write_end, "w") as stdout:
                monkeypatch.setattr(sys, "stdout", stdout)
                assert main(["space", EXAMPLE1]) == 1
        assert len(os.listdir("/proc/self/fd")) == before

    @pytest.mark.parametrize("algorithm", ["priority", "greedy", "exact", "grid-exact"])
    def test_bad_beta_or_trucks_rejected(self, capsys, algorithm):
        # Checked once for every algorithm, before the instance is read.
        for option in ("--beta=abc", "--beta=nan", "--beta=0.5",
                       "--trucks=0", "--trucks=-1"):
            code = main(["solve", EXAMPLE1, "--algorithm", algorithm, option])
            captured = capsys.readouterr()
            assert code == 3, option
            assert captured.out == ""
            assert option.split("=")[0].lstrip("-") in captured.err


def edited_example1(tmp_path, edit):
    """The path of a copy of ``example-1`` after ``edit(doc)``, or of what
    ``edit`` returns in its place."""
    doc = json.loads(Path(EXAMPLE1).read_text())
    replaced = edit(doc)
    doc = doc if replaced is None else replaced
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


def set_field(section, field, value):
    def edit(doc):
        (doc["sites"][0] if section == "sites" else doc["depot"])[field] = value
    return edit


class TestInstanceRejected:
    """Malformed instance data exits 3 and names the field."""

    @pytest.mark.parametrize(
        "section, field, value, message",
        [
            ("depot", "start", -5, "depot.start: must be non-negative"),
            ("depot", "plant_capacity", 0, "depot.plant_capacity: must be positive"),
            ("depot", "productivity", -1, "depot.productivity: must be positive"),
            ("depot", "truck_capacity", 0, "depot.truck_capacity: must be positive"),
            ("depot", "trucks", 0, "depot.trucks: must be positive when given"),
            ("sites", "id", 0, "sites[0].id: must be positive"),
            ("sites", "distance", -1, "sites[0].distance: must be non-negative"),
            ("sites", "speed", 0, "sites[0].speed: must be positive"),
            ("sites", "proposed_start", -1, "sites[0].proposed_start: must be non-negative"),
        ],
    )
    def test_field_out_of_range(self, capsys, tmp_path, section, field, value, message):
        path = edited_example1(tmp_path, set_field(section, field, value))
        code = main(["solve", path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: [], "instance: expected a JSON object"),
            (lambda doc: doc.update(depot=[1]), "depot: missing or not an object"),
            (lambda doc: doc.update(sites=[]), "sites: missing or empty"),
            (lambda doc: doc.update(sites=[5]), "sites[0]: expected an object"),
        ],
        ids=["top-level list", "depot not an object", "no sites", "site not an object"],
    )
    def test_document_shape(self, capsys, tmp_path, edit, message):
        path = edited_example1(tmp_path, edit)
        code = main(["solve", path])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "section, field, value, first_load",
        [
            ("depot", "start", 16.1, "0:16:06"),
            ("sites", "unload", 8.2, "8:00"),
            ("sites", "proposed_start", 4.1, "8:00"),
            ("sites", "gamma_override", 64.1, "8:00"),
        ],
    )
    def test_decimal_minutes_read_exactly(self, capsys, tmp_path, section, field, value, first_load):
        path = edited_example1(tmp_path, set_field(section, field, value))
        code, out = run(capsys, "solve", path)
        assert code == 0
        assert json.loads(out)["schedule"][1].split(",")[2] == first_load

    def test_minutes_off_the_second_rejected(self, capsys, tmp_path):
        path = edited_example1(tmp_path, set_field("sites", "unload", 0.016666666666666666))
        code = main(["solve", path])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == (
            f"error: {path}: sites[0].unload: 0.016666666666666666 minutes "
            "is not a whole second count\n"
        )

    @pytest.mark.parametrize(
        "section, field, at_bound, past_bound",
        [
            ("depot", "start", "48:00", "48:00:01"),
            ("sites", "proposed_start", "48:00", "48:00:01"),
            ("depot", "gamma", 2880, 2881),
            ("sites", "gamma_override", 2880, 2881),
        ],
    )
    def test_clocks_and_durations_bounded_at_48_hours(
        self, capsys, tmp_path, section, field, at_bound, past_bound
    ):
        code, _ = run(capsys, "solve", edited_example1(tmp_path, set_field(section, field, at_bound)))
        assert code == 0
        path = edited_example1(tmp_path, set_field(section, field, past_bound))
        code = main(["solve", path])
        captured = capsys.readouterr()
        where = "sites[0]" if section == "sites" else "depot"
        assert code == 3
        assert captured.err == f"error: {path}: {where}.{field}: must be at most 48 h (2880 min)\n"

    @pytest.mark.parametrize("command", ["solve", "export-mip"])
    @pytest.mark.parametrize(
        "section, field",
        [("depot", "start"), ("depot", "gamma"), ("sites", "proposed_start"),
         ("sites", "gamma_override"), ("sites", "unload")],
    )
    def test_huge_minutes_rejected(self, capsys, tmp_path, command, section, field):
        # An integer of 311 digits reads, but no float holds it.
        path = edited_example1(tmp_path, set_field(section, field, 10**310))
        code = main([command, path, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        where = "sites[0]" if section == "sites" else "depot"
        assert code == 3
        assert captured.err == f"error: {path}: {where}.{field}: must be at most 48 h (2880 min)\n"


def parsed_by_argparse(argv):
    """``vars()`` of argparse's namespace, or its exit code and printed text."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


def main_output(argv):
    """``main``'s exit code (``SystemExit`` included) and printed text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


#: Each ``rmcdp`` command line of the CI workflow, and one request of each
#: shape the benchmark sends.
PLAIN_ARGV = [
    ["bench", "--json"],
    ["solve", INSTANCE2],
    ["solve", INSTANCE1],
    ["check", INSTANCE1, "shifted.csv"],
    ["solve", EXAMPLE1, "--algorithm", "grid-exact", "--out", "out.csv"],
    ["check", EXAMPLE1, "out.csv"],
    ["solve", EXAMPLE1, "--algorithm", "exact", "--trucks", "3"],
    ["solve", EXAMPLE1, "--algorithm", "exact", "--trucks", "4", "--out", "out.csv"],
    ["check", EXAMPLE1, "out.csv", "--trucks", "4"],
    ["export-mip", INSTANCE2, "--out", "instance-2.lp"],
    ["solve", INSTANCE1, "--out", "/dev/null"],
    ["solve", INSTANCE1, "--algorithm", "priority", "--trucks", "14", "--threads", "1"],
    ["solve", INSTANCE1, "--algorithm", "priority", "--beta", "1.5", "--threads", "1"],
    ["solve", INSTANCE1, "--algorithm", "priority", "--threads", "2"],
    ["solve", INSTANCE1, "--algorithm", "grid-exact", "--horizon", "30"],
    ["solve", INSTANCE1, "--algorithm", "greedy", "--out", "a.csv"],
    ["check", INSTANCE1, GOLDEN],
    ["check", INSTANCE1, GOLDEN, "--trucks", "16"],
    ["space", INSTANCE1],
    ["export-mip", INSTANCE1, "--horizon", "32", "--out", "instance-1.lp"],
]


class TestParser:
    def test_built_once_and_options_do_not_leak(self, capsys):
        build_parser.cache_clear()
        code, out = run(capsys, "solve", EXAMPLE1, "--trucks", "1")
        assert code == 2
        assert json.loads(out)["feasible"] is False
        code, out = run(capsys, "solve", EXAMPLE1)
        assert code == 0
        assert json.loads(out)["feasible"] is True
        code, _ = run(capsys, "space", EXAMPLE1)
        assert code == 0
        assert build_parser.cache_info().misses == 0  # plain: no argparse tree
        assert main(["solve", EXAMPLE1, "--trucks", "abc"]) == 3
        with pytest.raises(SystemExit):
            main(["solve", "--help"])
        capsys.readouterr()
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        code, out = run(capsys, "solve", EXAMPLE1, "--trucks=1")
        assert code == 2
        code, out = run(capsys, "solve", EXAMPLE1)
        assert code == 0
        assert json.loads(out)["feasible"] is True

    @pytest.mark.parametrize(
        "argv", PLAIN_ARGV, ids=lambda argv: " ".join(Path(token).name for token in argv)
    )
    def test_plain_argv_read_from_the_table(self, argv):
        parsed = _parse(argv)
        assert parsed is not None
        assert vars(parsed) == parsed_by_argparse(argv)

    @pytest.mark.parametrize(
        "argv",
        [["solve", EXAMPLE1, "--trucks=3"], ["solve", EXAMPLE1, "--algo", "exact"],
         ["solve", EXAMPLE1, "--trucks", "-1"], ["solve", EXAMPLE1, "--out", "--json"],
         ["solve", EXAMPLE1, "--trucks", "abc"], ["solve", EXAMPLE1, "--algorithm", "nope"],
         ["solve", EXAMPLE1, "-trucks", "3"], ["solve", EXAMPLE1, "---trucks", "3"],
         ["solve", "--", EXAMPLE1],
         ["check", INSTANCE1, "--trucks", "3"], ["bench", "--json", "x"],
         ["solve", EXAMPLE1, "--trucks"], ["solve", EXAMPLE1, "--out"], ["solve", "-h"],
         ["sol", EXAMPLE1], []],
    )
    def test_other_argv_left_to_argparse(self, argv):
        assert _parse(argv) is None

    def test_matches_argparse_on_drawn_argv(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        flags = sorted({f"--{name}" for c in COMMANDS.values() for name in c.options})
        value = st.sampled_from(["3", "abc", "", " 5", "1_0", "\u0663", "nope", "priority",
                                 "grid-exact", "1.5", "a.json"])
        dashed = st.sampled_from(["-1", "-h", "--", "--json", "-"])

        def argv_of(command):
            # Mostly the command's own flags, each followed by a value, among
            # the right number of positionals; then abbreviated flags, flags
            # with one or three dashes, values that start with a dash,
            # ``--flag=value``, a flag with no value, help and ``--``.
            spec = COMMANDS.get(command, COMMANDS["solve"])
            own = st.sampled_from([f"--{name}" for name in spec.options] or flags)
            odd = (
                st.sampled_from(["--algo", "--tr", "--th", "--h", "--o", "--js", *flags])
                | own.map(lambda flag: flag[1:])
                | own.map("-{}".format)
            )
            pair = st.tuples(own, value)
            pieces = pair | pair | pair | st.tuples(odd, value) | st.tuples(own, dashed) | (
                st.tuples(own | dashed | st.builds("{}={}".format, own, value | dashed))
            )
            positional = value.map(lambda v: (v,))
            arity = len(spec.positionals)
            positionals = (
                st.lists(positional, min_size=arity, max_size=arity)
                | st.lists(positional, max_size=3)
            )
            return st.tuples(positionals, st.lists(pieces, max_size=3), st.randoms()).map(
                lambda drawn: [command] * bool(command) + shuffled(*drawn)
            )

        def shuffled(positionals, pieces, random):
            drawn = positionals + pieces
            random.shuffle(drawn)
            return [token for piece in drawn for token in piece]

        argvs = st.one_of([argv_of(command) for command in (*COMMANDS, "sol", "")])

        @hypothesis.settings(max_examples=500, deadline=None, database=None)
        @hypothesis.given(argvs)
        def matches(argv):
            parsed, expected = _parse(argv), parsed_by_argparse(argv)
            if parsed is not None:
                assert vars(parsed) == expected
            elif isinstance(expected, tuple):  # help or a usage error
                code, out, err = expected
                assert main_output(argv) == (0 if code == 0 else 3, out, err)

        matches()

    @pytest.mark.parametrize(
        "argv",
        [["solve", EXAMPLE1, "--trucks", "abc"],
         ["solve", EXAMPLE1, "--algorithm", "nope"],
         []],
        ids=["trucks-abc", "algorithm-nope", "no-command"],
    )
    def test_usage_error_exit_code(self, capsys, argv):
        # argparse's own message, but exit 3: its 2 means infeasible here.
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(argv)
        assert raised.value.code == 2
        usage = capsys.readouterr().err
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == usage
        assert "error:" in usage

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 0
        assert capsys.readouterr().out.startswith("usage: rmcdp")


class TestCheck:
    def test_golden_schedule_is_feasible(self, capsys):
        code, out = run(capsys, "check", INSTANCE1, GOLDEN)
        payload = json.loads(out)
        assert code == 0
        assert payload["feasible"] is True
        assert payload["objective"]["total_site_wait_min"] == 195

    def test_tight_gamma_fails(self, capsys):
        code, out = run(capsys, "check", INSTANCE1, GOLDEN, "--gamma", "10")
        payload = json.loads(out)
        assert code == 2
        assert payload["feasible"] is False
        assert any(v["kind"] == "gamma_exceeded" for v in payload["violations"])

    def test_truck_limit_fails(self, capsys):
        code, out = run(capsys, "check", INSTANCE1, GOLDEN, "--trucks", "16")
        payload = json.loads(out)
        assert code == 2
        assert any(v["kind"] == "truck_overrun" for v in payload["violations"])

    @pytest.mark.parametrize(
        "option, message",
        [(("--trucks", "0"), "--trucks: must be at least 1, got 0"),
         (("--gamma", "0"), "--gamma: must be at least 1, got 0"),
         (("--gamma", "-5"), "--gamma: must be at least 1, got -5")],
        ids=["trucks-0", "gamma-0", "gamma-minus-5"],
    )
    def test_non_positive_limit_rejected(self, capsys, option, message):
        # A fleet of no trucks or a closed pour window is a bad argument,
        # not an infeasible schedule.
        code = main(["check", INSTANCE1, GOLDEN, *option])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert message in captured.err

    def test_flag_checked_before_files(self, capsys, tmp_path):
        missing = str(tmp_path / "missing")
        code = main(["check", missing + ".json", missing + ".csv", "--gamma", "0"])
        assert code == 3
        assert capsys.readouterr().err == "error: --gamma: must be at least 1, got 0\n"

    @pytest.mark.parametrize(
        "old, new, detail",
        [
            ("\n1,5,9:40,", "\n1,9,9:40,", "unknown trip"),
            ("\n1,5,9:40,", "\n1,4,9:40,", "duplicated trip"),
            ("\n1,1,8:00,8:35,9:00,10\n1,2,8:25,",
             "\n1,2,8:00,8:35,9:00,10\n1,1,8:25,",
             "site 1 trip order disagrees with depot times"),
        ],
        ids=["unknown", "duplicated", "order"],
    )
    def test_edited_golden_coverage_violation(self, capsys, tmp_path, old, new, detail):
        text = Path(GOLDEN).read_text()
        assert old in text
        path = tmp_path / "edited.csv"
        path.write_text(text.replace(old, new))
        code, out = run(capsys, "check", INSTANCE1, str(path))
        assert code == 2
        violations = json.loads(out)["violations"]
        assert any(v["kind"] == "coverage" and v["detail"] == detail for v in violations)

    def test_schedule_not_utf8_exit_code(self, capsys, tmp_path):
        path = tmp_path / "latin-1.csv"
        path.write_bytes(Path(GOLDEN).read_bytes() + b"caf\xe9\n")
        code = main(["check", INSTANCE1, str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: not UTF-8 text (byte ")


    def test_schedule_field_over_csv_limit_exit_code(self, capsys, tmp_path):
        path = tmp_path / "long-field.csv"
        path.write_text(Path(GOLDEN).read_text() + "1,1," + "1" * 200_000 + ":00,8:00,8:30,10\n")
        code = main(["check", INSTANCE1, str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}:27: field larger than field limit")

    @pytest.mark.parametrize("text", LONG_CLOCKS.values(), ids=LONG_CLOCKS.keys())
    def test_schedule_long_clock_exit_code(self, capsys, tmp_path, text):
        header, first, rest = Path(GOLDEN).read_text().split("\n", 2)
        site, trip, _, tail = first.split(",", 3)
        path = tmp_path / "long-clock.csv"
        path.write_text(f"{header}\n{site},{trip},{text},{tail}\n{rest}")
        code = main(["check", INSTANCE1, str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        message = f"depot_start: expected 'H:MM', got {len(text)} characters"
        assert captured.err == f"error: {path}:2: {message}\n"
        assert len(message) < 100

    def test_clock_shifted_golden_exit_code(self, capsys, tmp_path):
        # 10^309 h puts every clock past what a float holds; the reader
        # refuses the first one instead of letting the objective overflow.
        shifted = re.sub(
            r"\b(\d+):(\d\d)\b",
            lambda m: f"{int(m[1]) + 10**309}:{m[2]}",
            Path(GOLDEN).read_text(),
        )
        path = tmp_path / "shifted.csv"
        path.write_text(shifted)
        code = main(["check", INSTANCE1, str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}:2: depot_start: more than 1296 h after the depot start\n"
        )

    def test_schedule_past_48_hours_reads_back(self, capsys, tmp_path):
        # 100 trips paced 40 min apart: priority's schedule ends 66 h 46 min
        # after the depot start, and check must accept what solve wrote.
        path = uniform_sites(tmp_path, 100, productivity=120)
        doc = json.loads(Path(path).read_text())
        doc["depot"]["gamma"] = 60
        doc["sites"][0]["unload"] = 40
        Path(path).write_text(json.dumps(doc))
        out = tmp_path / "long.csv"
        assert run(capsys, "solve", path, "--out", str(out))[0] == 0
        assert out.read_text().splitlines()[-1] == "1,100,66:00,66:06,66:46,1000"
        code, text = run(capsys, "check", path, str(out))
        assert code == 0
        assert json.loads(text)["feasible"] is True


class TestSpace:
    def test_size_over_int_print_limit(self, capsys, tmp_path):
        # 2,000 one-trip sites at 1-second loading: 2000! has 5,736 digits,
        # more than str() prints of an int.
        path = uniform_sites(tmp_path, 1, sites=2000, productivity=36_000)
        code, out = run(capsys, "space", path)
        assert code == 0
        size = json.loads(out)["solution_space_size"]
        assert (len(size), size[:6], size[-4:]) == (5736, "331627", "0000")
        code = main(["solve", path, "--algorithm", "exact"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err == "error: sequence space is above the cap of 10000000\n"

    def test_reference_instance(self, capsys):
        code, out = run(capsys, "space", INSTANCE1)
        payload = json.loads(out)
        assert code == 0
        assert payload["total_trips"] == 25
        assert payload["solution_space_size"] == "623360743125120"
        assert payload["truck_upper_bound"] == 36
        assert payload["trucks_per_window"] == 18
        assert payload["loading_time_min"] == 5

    def test_small_example(self, capsys):
        code, out = run(capsys, "space", EXAMPLE1)
        payload = json.loads(out)
        assert payload["solution_space_size"] == "6"
        assert payload["truck_upper_bound"] == 18


class TestExportMip:
    def test_default_output_name(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out = run(capsys, "export-mip", EXAMPLE1, "--horizon", "6")
        payload = json.loads(out)
        assert code == 0
        assert payload["lp"] == "example-1_6.lp"
        assert payload["binaries"] == 24
        assert payload["constraints"] == 30
        text = (tmp_path / "example-1_6.lp").read_text()
        assert text.startswith("Minimize")
        assert text.rstrip().endswith("End")

    def test_explicit_output_path(self, capsys, tmp_path):
        out_path = tmp_path / "model.lp"
        code, out = run(
            capsys, "export-mip", INSTANCE1, "--horizon", "32",
            "--out", str(out_path),
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["binaries"] == 800
        assert "c_eq25_s1_j1" in out_path.read_text()


    def test_unwritable_out_exit_code(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "model.lp"
        code = main(["export-mip", EXAMPLE1, "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith(f"error: {out_path}: ")


def _stale_tail(path: Path) -> None:
    """Fill ``path`` with 300 KB of filler, longer than any output here."""
    path.write_text("stale filler line\n" * 17_000)


#: The solve and export-mip requests that write an output file, by command.
WRITERS = {
    "solve": ["solve", INSTANCE1, "--algorithm", "greedy"],
    "export-mip": ["export-mip", INSTANCE1, "--horizon", "32"],
}


@pytest.mark.parametrize("command", sorted(WRITERS))
class TestOutFile:
    """``--out`` files are written in place and cut to length; only a
    regular file is cut."""

    def written(self, capsys, command, path) -> bytes:
        code, _ = run(capsys, *WRITERS[command], "--out", str(path))
        assert code == 0
        return path.read_bytes()

    def test_longer_file_keeps_only_the_new_bytes(self, capsys, tmp_path, command):
        fresh = self.written(capsys, command, tmp_path / "fresh")
        stale = tmp_path / "stale"
        _stale_tail(stale)
        assert stale.stat().st_size > len(fresh)
        assert self.written(capsys, command, stale) == fresh

    def test_rewrite_keeps_mode_inode_and_hard_link(self, capsys, tmp_path, command):
        path, link = tmp_path / "out", tmp_path / "link"
        _stale_tail(path)
        path.chmod(0o640)
        os.link(path, link)
        before = path.stat()
        text = self.written(capsys, command, path)
        after = path.stat()
        assert (after.st_mode, after.st_ino, after.st_nlink) == (
            before.st_mode, before.st_ino, 2
        )
        assert link.read_bytes() == text

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
    def test_null_device(self, capsys, command):
        # The null device refuses to be cut to length.
        code, out = run(capsys, *WRITERS[command], "--out", os.devnull)
        assert code == 0
        assert os.devnull in out

    @pytest.mark.parametrize(
        "where, message",
        [("dir", "Is a directory"), ("dir/missing/out", "No such file or directory")],
    )
    def test_unwritable_path_exit_code(self, capsys, tmp_path, command, where, message):
        (tmp_path / "dir").mkdir()
        path = tmp_path / where
        code = main([*WRITERS[command], "--out", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"

    def test_empty_out_refused_before_any_file_is_read(
        self, capsys, tmp_path, monkeypatch, command
    ):
        monkeypatch.chdir(tmp_path)
        argv = [command, "/no/such/instance.json", "--out", ""]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: --out: must name a file, got ''\n"
        # Nor is the instance read, or a schedule or LP written, when the
        # instance is there.
        assert main([*WRITERS[command], "--out", ""]) == 3
        assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []


class TestBench:
    def test_reports_known_deviation(self, capsys):
        code, out = run(capsys, "bench", "--json")
        payload = json.loads(out)
        rows = {row["name"]: row for row in payload["rows"]}
        assert rows["instance-1 best waiting (min)"]["ok"]
        assert rows["instance-2 best waiting (min)"]["measured"] == 885
        # The reference feasibility share of the large instance is not
        # reproducible (see README); bench flags it rather than hiding it.
        assert not rows["instance-2 feasibility (%)"]["ok"]
        assert payload["deviations"] == ["instance-2 feasibility (%)"]
        assert code == 0

    def test_text_report(self, capsys):
        _, out = run(capsys, "bench", "--json")
        rows = json.loads(out)["rows"]
        code, text = run(capsys, "bench")
        lines = text.splitlines()
        assert code == 0
        assert len(lines) == len(rows) + 1
        for row, line in zip(rows, lines):
            assert line.startswith("ok " if row["ok"] else "DEV")
            assert row["name"] in line
            assert f"measured={row['measured']} expected={row['expected']}" in line
        assert [line[:3] for line in lines[:-1]].count("DEV") == 1
        assert lines[-1] == "1 deviation(s) from reference results"
