import json
import math
import os
import random
import threading
from decimal import Decimal

import pytest

from rmcdp.io import (
    bundled_instance_path,
    format_time,
    instance_from_dict,
    load_instance,
    parse_duration,
    parse_time,
    read_schedule_csv,
    schedule_to_csv,
    to_json,
    write_schedule_csv,
    write_text,
)
from rmcdp import io as rio
from rmcdp.graphs import SizeCapError, enumerate_exact, greedy_solve, grid_exact
from rmcdp.io import bundled_schedule_path
from rmcdp.model import InputError, Instance
from rmcdp.priority import priority_solve
from rmcdp.schedule import expand_consecutive

from conftest import (
    random_instance,
    reference_format_time,
    reference_minutes_in_seconds,
    reference_read_schedule,
    reference_read_text,
    reference_schedule_to_csv,
    repeated_row_instance,
    replace,
    tight_gamma_instance,
)

MIN = 60
HEADER = "site,trip,depot_start,site_start,site_end,delivery"


#: A 4,000- to 7,000-character clock down each refusal path of ``parse_time``.
LONG_CLOCKS = {
    "not-digits": "a" * 5000 + ":00",
    "minute-past-59": "1" * 4000 + ":99",
    "too-many-parts": "1:2:3:4" * 1000,
    "too-many-digits": "1" + "0" * 5000 + ":00",
    "non-ascii-digits": "\uff18" * 5000 + ":00",
}


class TestParseTime:
    def test_clock_strings(self):
        assert parse_time("8:00") == 8 * 3600
        assert parse_time("13:05") == 13 * 3600 + 5 * MIN
        assert parse_time("8:00:30") == 8 * 3600 + 30

    def test_plain_minutes(self):
        assert parse_time(480) == 8 * 3600
        assert parse_time(480.5) == 8 * 3600 + 30

    def test_malformed(self):
        for bad in ("8", "8:61", "8:00:99", "a:b", True, None):
            with pytest.raises(InputError):
                parse_time(bad)

    @pytest.mark.parametrize(
        "text",
        ["\uff18:\uff10\uff10", "\u0668:00", "8:\u0663\u0660", "8:00:\uff13\uff10"],
        ids=["full-width", "arabic-indic-hour", "arabic-indic-minute", "full-width-second"],
    )
    def test_non_ascii_digits_refused(self, text):
        # str.isdigit() and int() take these digits; a clock does not.
        with pytest.raises(InputError) as err:
            parse_time(text, "start")
        assert str(err.value) == f"start: expected 'H:MM', got {text!r}"

    @pytest.mark.parametrize("text", LONG_CLOCKS.values(), ids=LONG_CLOCKS.keys())
    def test_long_clock_shown_by_length(self, text):
        with pytest.raises(InputError) as err:
            parse_time(text, "start")
        message = str(err.value)
        assert message == f"start: expected 'H:MM', got {len(text)} characters"
        assert len(message) < 100

    def test_fractional_second(self):
        with pytest.raises(InputError):
            parse_time(0.001)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_minutes_rejected(self, value):
        with pytest.raises(InputError, match="start: expected a finite number"):
            parse_time(value, "start")

    def test_overflowing_minutes_rejected(self):
        # 1e308 minutes is read exactly, a whole number of seconds; the 48 h
        # bound on every clock rejects it when the instance is built.
        assert parse_time(1e308, "start") == 60 * 10**308
        doc = example1_doc()
        doc["depot"]["start"] = 1e308
        with pytest.raises(InputError, match=r"^depot\.start: must be at most 48 h"):
            instance_from_dict(doc)


class TestExactMinutes:
    """A float of minutes is read as its shortest decimal, exactly."""

    @pytest.mark.parametrize(
        "minutes, seconds", [(8.2, 492), (64.1, 3846), (4.1, 246), (16.1, 966), (0.05, 3)]
    )
    def test_decimal_minutes_that_are_whole_seconds(self, minutes, seconds):
        assert parse_time(minutes) == seconds
        assert parse_duration(minutes, "unload") == seconds

    @pytest.mark.parametrize("minutes", [0.016666666666666666, 0.1 + 0.2, 8.21])
    def test_decimal_minutes_off_the_second_rejected(self, minutes):
        with pytest.raises(InputError, match="not a whole second count"):
            parse_duration(minutes, "unload")
        with pytest.raises(InputError, match="not a whole second count"):
            parse_time(minutes)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_fraction_reference(self, seed):
        rng = random.Random(seed)
        whole = 0
        for _ in range(500):
            if rng.randrange(4):
                minutes = float(f"{rng.randint(1, 10**5)}e-{rng.randint(0, 4)}")
            else:
                minutes = rng.randint(1, 10**5)
            try:
                expected = reference_minutes_in_seconds(minutes, "unload")
            except InputError as exc:
                with pytest.raises(InputError) as raised:
                    parse_duration(minutes, "unload")
                assert str(raised.value) == str(exc)
            else:
                seconds = parse_duration(minutes, "unload")
                assert type(seconds) is int and seconds == expected
                whole += 1
        assert 100 <= whole <= 400  # both branches are drawn

    def test_integers_stay_integers(self):
        for value in (480, 10**400):
            seconds = parse_time(value)
            assert type(seconds) is int and seconds == 60 * value


class TestParseDuration:
    def test_minutes(self):
        assert parse_duration(25, "unload") == 25 * MIN
        assert parse_duration(2.5, "unload") == 150

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            parse_duration(0, "unload")

    def test_rejects_fractional_second(self):
        with pytest.raises(InputError):
            parse_duration(0.0001, "unload")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_minutes_rejected(self, value):
        with pytest.raises(InputError, match="unload: expected a finite number"):
            parse_duration(value, "unload")


class TestFormatTime:
    def test_whole_minutes(self):
        assert format_time(8 * 3600) == "8:00"
        assert format_time(13 * 3600 + 5 * MIN) == "13:05"

    def test_off_minute_keeps_seconds(self):
        assert format_time(8 * 3600 + 30) == "8:00:30"

    def test_round_trip(self):
        for seconds in (0, 59, 60, 3600, 8 * 3600 + 25 * MIN, 86399):
            assert parse_time(format_time(seconds)) == seconds

    def test_matches_the_divmod_form_over_48_hours(self):
        # Every second from 0 to 48 h: whole minutes and off the minute.
        for seconds in range(2 * 86400 + 1):
            assert format_time(seconds) == reference_format_time(seconds)


class TestInstanceLoading:
    def test_bundled_instances_load(self):
        for name in ("example-1", "instance-1", "instance-2"):
            instance = load_instance(bundled_instance_path(name))
            assert instance.sites

    def test_unknown_bundled_name_refused(self):
        with pytest.raises(InputError, match="^no bundled instance named 'nope'$"):
            bundled_instance_path("nope")
        with pytest.raises(InputError, match="^no bundled schedule named 'nope'$"):
            bundled_schedule_path("nope")

    def test_missing_field_names_the_field(self, tmp_path):
        doc = {"depot": {"start": "8:00", "plant_capacity": 10,
                         "productivity": 120},
               "sites": [{"id": 1, "demand": 50, "distance": 30, "speed": 60,
                          "unload": 25, "proposed_start": "8:00"}]}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="truck_capacity"):
            load_instance(path)

    def test_bad_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"depot": ')
        with pytest.raises(InputError, match="broken.json"):
            load_instance(path)

    def test_site_field_errors_name_the_site(self):
        doc = {
            "depot": {"start": "8:00", "plant_capacity": 10,
                      "productivity": 120, "truck_capacity": 10},
            "sites": [{"id": 1, "demand": 50, "distance": 30,
                       "speed": 60, "proposed_start": "8:00"}],
        }
        with pytest.raises(InputError, match="unload"):
            instance_from_dict(doc)

    @staticmethod
    def _one_site_doc(site_id, trucks):
        return {
            "depot": {"start": "8:00", "plant_capacity": 10, "productivity": 120,
                      "truck_capacity": 10, "trucks": trucks},
            "sites": [{"id": site_id, "demand": 50, "distance": 30, "speed": 60,
                       "unload": 25, "proposed_start": "8:00"}],
        }

    @pytest.mark.parametrize("value", [1.5, 0.999, float("nan"), float("inf")])
    def test_non_integer_site_id_rejected(self, value):
        # int() would load 1.5 as site 1 instead of refusing the file.
        with pytest.raises(InputError, match=r"sites\[0\]\.id: expected an integer"):
            instance_from_dict(self._one_site_doc(value, 3))

    @pytest.mark.parametrize("value", [2.5, float("nan"), float("inf")])
    def test_non_integer_truck_count_rejected(self, value):
        with pytest.raises(InputError, match=r"depot\.trucks: expected an integer"):
            instance_from_dict(self._one_site_doc(1, value))

    def test_whole_valued_floats_load_as_integers(self):
        instance = instance_from_dict(self._one_site_doc(1.0, 3.0))
        assert instance.sites[0].id == 1
        assert instance.depot.truck_count == 3


def example1_doc():
    return json.loads(bundled_instance_path("example-1").read_text())


class TestInstanceErrors:
    """Each error names a bad site once, by its place in the site list."""

    def test_bad_site_field_named_by_position(self):
        doc = example1_doc()
        doc["sites"][0]["demand"] = 0
        with pytest.raises(InputError) as err:
            instance_from_dict(doc)
        assert str(err.value) == "sites[0].demand: must be positive"

    def test_inaccessible_site_named_by_position(self):
        doc = example1_doc()
        doc["sites"][0]["distance"] = 600
        with pytest.raises(InputError) as err:
            instance_from_dict(doc)
        assert str(err.value).startswith("sites[0]: not accessible: ")

    def test_fractional_haul_named_by_position(self):
        doc = example1_doc()
        doc["sites"][1]["distance"] = 1
        doc["sites"][1]["speed"] = 7
        with pytest.raises(InputError) as err:
            instance_from_dict(doc)
        assert str(err.value).startswith("sites[1]: haul time: ")

    @pytest.mark.parametrize(
        "section, field, where",
        [("depot", "start", "depot"), ("sites", "proposed_start", "sites[0]")],
    )
    @pytest.mark.parametrize("text", ["\uff18:\uff10\uff10", "\u0668:00"],
                             ids=["full-width", "arabic-indic"])
    def test_non_ascii_clock_refused(self, section, field, where, text):
        doc = example1_doc()
        (doc["depot"] if section == "depot" else doc["sites"][0])[field] = text
        with pytest.raises(InputError) as err:
            instance_from_dict(doc)
        assert str(err.value) == f"{where}.{field}: expected 'H:MM', got {text!r}"

    @pytest.mark.parametrize(
        "section, field",
        [("sites", "unload"), ("sites", "proposed_start"), ("depot", "start")],
    )
    def test_missing_field_reads_missing(self, section, field):
        doc = example1_doc()
        if section == "depot":
            del doc["depot"][field]
            expected = f"depot.{field}: missing"
        else:
            del doc["sites"][0][field]
            expected = f"sites[0].{field}: missing"
        with pytest.raises(InputError) as err:
            instance_from_dict(doc)
        assert str(err.value) == expected

    @pytest.mark.parametrize(
        "field, value, shown",
        [("unload", "a" * 5000, "5000 characters"),
         ("demand", list(range(2000)), "a list 10890 characters long"),
         ("proposed_start", list(range(2000)), "a list 10890 characters long"),
         ("demand", "a" * 40, repr("a" * 40)),
         ("demand", "a" * 41, "41 characters"),
         ("unload", [1, 2], "[1, 2]")],
        ids=["long-string", "long-list", "long-list-clock", "string-at-40",
             "string-past-40", "short-list"],
    )
    def test_refused_value_shown_up_to_40_characters(self, field, value, shown):
        doc = example1_doc()
        doc["sites"][0][field] = value
        with pytest.raises(InputError) as err:
            instance_from_dict(doc)
        message = str(err.value)
        assert message.startswith(f"sites[0].{field}: expected ")
        assert message.endswith(f", got {shown}")
        assert len(message) < 100


DEPOT_HAS = "a depot has start, plant_capacity, productivity, truck_capacity, trucks, gamma"
SITE_HAS = "a site has id, demand, distance, speed, unload, proposed_start, gamma_override"


class TestUnknownFields:
    """A depot or site key that is none of its fields is refused, before
    any field is read; keys beside ``depot`` and ``sites`` are free."""

    @pytest.mark.parametrize(
        "section, key, expected",
        [("depot", "truck", f"depot.truck: unknown field ({DEPOT_HAS})"),
         ("depot", "truck_count", f"depot.truck_count: unknown field ({DEPOT_HAS})"),
         ("sites", "gamma", f"sites[1].gamma: unknown field ({SITE_HAS})"),
         ("sites", "Demand", f"sites[1].Demand: unknown field ({SITE_HAS})"),
         ("sites", "a" * 40, f"sites[1].{'a' * 40}: unknown field ({SITE_HAS})"),
         ("sites", "a" * 5000, f"sites[1].5000 characters: unknown field ({SITE_HAS})"),
         ("sites", "a\nb", f"sites[1].'a\\nb': unknown field ({SITE_HAS})")],
        ids=["depot", "depot-dataclass-name", "site", "site-case", "key-at-40",
             "long-key", "unprintable-key"],
    )
    def test_refused_and_named(self, section, key, expected):
        doc = example1_doc()
        (doc["depot"] if section == "depot" else doc["sites"][1])[key] = 12
        with pytest.raises(InputError) as err:
            instance_from_dict(doc)
        assert str(err.value) == expected

    def test_first_unknown_key_named_before_a_bad_field(self):
        doc = example1_doc()
        doc["sites"][0].update(demand=0, gamma=30, trucks=2)
        with pytest.raises(InputError) as err:
            instance_from_dict(doc)
        assert str(err.value).startswith("sites[0].gamma: unknown field")

    def test_every_field_and_top_level_keys_accepted(self):
        doc = example1_doc()
        doc["depot"].update(trucks=18, gamma=90)
        doc["sites"][0]["gamma_override"] = 120
        doc["note"] = "free text"
        instance = instance_from_dict(doc)
        assert instance.depot.truck_count == 18
        assert instance.sites[0].gamma_override == 120 * MIN


#: Each reader of an instance field and the parser it falls back to.
FIELD_READERS = [
    (rio._read_number, rio._number),
    (rio._read_integer, rio._integer),
    (rio._read_duration, rio.parse_duration),
    (rio._read_clock, rio.parse_time),
]

#: Values an instance field may hold in JSON, or after a library caller
#: built the document: the readers' inline paths and every kind they pass on.
FIELD_VALUES = [
    0, 1, -1, 7, 90, 2880, 2881, -10**30, 10**30, True, False, None,
    0.0, -0.0, 0.5, 1.5, 16.0, 16.1, 4.5, 1e300, 1e-9, math.nan, math.inf, -math.inf,
    "8:00", "08:05", "0:00", "23:59", "8:60", "8:0", "8:000", "8:00:30", "48:00",
    "1234567:00", "999999:59", ":30", "8:", "", "abc", "8.5", "1e3", "\uff18:00",
    "8:\u0663\u0660", "\u0663:00", " 8:00", "-1:00", [], {}, Decimal("5"),
]


def field_outcome(read, *args):
    try:
        value = read(*args)
    except InputError as exc:
        return "error", str(exc)
    return type(value), value


class TestFieldReaders:
    """An instance field's reader takes ints, finite floats and plain
    ``H:MM`` straight from the document and hands everything else to its
    parser, so the values and messages are the parser's."""

    @pytest.mark.parametrize(
        "read, parse", FIELD_READERS, ids=[parse.__name__ for _, parse in FIELD_READERS]
    )
    def test_reader_matches_its_parser(self, read, parse):
        for value in FIELD_VALUES:
            doc = {"f": value}
            expected = field_outcome(rio._field, doc, "f", "where", parse)
            assert field_outcome(read, doc, "f", "where") == expected, value

    @pytest.mark.parametrize(
        "read, parse", FIELD_READERS, ids=[parse.__name__ for _, parse in FIELD_READERS]
    )
    def test_absent_field_reads_missing(self, read, parse):
        assert field_outcome(read, {}, "f", "where") == ("error", "where.f: missing")

    @pytest.mark.parametrize("read", [rio._read_integer, rio._read_duration])
    def test_absent_optional_field_takes_the_default(self, read):
        assert read({}, "f", "where", None) is None


class TestWriteText:
    def test_shorter_text_over_a_longer_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("stale\n" * 50_000)
        write_text(path, "site,trip\n1,1\n")
        assert path.read_bytes() == b"site,trip\n1,1\n"
        write_text(path, "")
        assert path.read_bytes() == b""

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_pipe_is_written_and_not_cut(self):
        read_end, write_end = os.pipe()
        try:
            write_text(f"/dev/fd/{write_end}", "End\n")
            assert os.read(read_end, 100) == b"End\n"
        finally:
            os.close(read_end)
            os.close(write_end)


def both_outcomes(monkeypatch, outcome, *args):
    """``outcome(*args)`` with ``io._read_text`` and with the text-mode
    reference read in its place."""
    ours = outcome(*args)
    with monkeypatch.context() as patch:
        patch.setattr(rio, "_read_text", reference_read_text)
        return ours, outcome(*args)


def newline_variants(text):
    """``text`` with LF, CRLF and lone-CR line ends."""
    return {"lf": text, "crlf": text.replace("\n", "\r\n"), "cr": text.replace("\n", "\r")}


#: Files whose bytes are not all UTF-8, each with the offset of its first
#: bad byte, past the first 8 KiB: a byte that never starts a character,
#: a multi-byte sequence cut at the end, a lone continuation byte.
NOT_UTF8 = {
    "late-bad-byte": (b" " * 9000 + b"\xff{}", 9000),
    "cut-sequence": (b'{"note": "' + b"x" * 10_000 + b"\xe2\x82", 10_010),
    "continuation": ("\u20ac".encode() * 3000 + b"\x80", 9000),
}


def write_to_fifo(path, data):
    """A thread that writes ``data`` into the FIFO at ``path`` once a reader
    opens it.  It is a daemon, so a reader that never opens the FIFO fails
    the test at ``join_writer`` instead of hanging the run."""
    def write():
        with open(path, "wb") as fifo:
            fifo.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return writer


def join_writer(writer):
    writer.join(10)
    assert not writer.is_alive(), "nothing read the FIFO to its end"


class TestReadText:
    """``io._read_text`` and the two readers built on it agree with a
    text-mode read (``Path.read_text``) on text, line numbers and every
    message."""

    @pytest.mark.parametrize("ends", ["lf", "crlf", "cr"])
    def test_line_ends_translated(self, tmp_path, ends):
        text = newline_variants("a\nb\r\n\rc\n\n")[ends] + "\r"
        path = tmp_path / "text"
        path.write_bytes(text.encode())
        outcome = field_outcome(rio._read_text, path)
        assert outcome == field_outcome(reference_read_text, path)
        assert "\r" not in outcome[1]

    @pytest.mark.parametrize("name", sorted(NOT_UTF8))
    def test_not_utf8_at_its_absolute_byte(self, tmp_path, name):
        data, byte = NOT_UTF8[name]
        path = tmp_path / "bad"
        path.write_bytes(data)
        outcome = field_outcome(rio._read_text, path)
        assert outcome == field_outcome(reference_read_text, path)
        assert outcome == ("error", f"{path}: not UTF-8 text (byte {byte})")

    def test_empty_file_directory_and_missing_file(self, tmp_path):
        empty = tmp_path / "empty"
        empty.write_bytes(b"")
        expected = {
            empty: (str, ""),
            tmp_path: ("error", f"{tmp_path}: Is a directory"),
            tmp_path / "missing": ("error", f"{tmp_path / 'missing'}: No such file or directory"),
        }
        for path, outcome in expected.items():
            assert field_outcome(rio._read_text, path) == outcome
            assert field_outcome(reference_read_text, path) == outcome

    def test_regular_file_takes_one_read(self, tmp_path, monkeypatch):
        path = tmp_path / "big"
        path.write_text("x" * 300_000 + "\n")
        sizes = []

        def counted_read(fd, size):
            sizes.append(size)
            return read(fd, size)

        read = os.read
        monkeypatch.setattr(os, "read", counted_read)
        assert rio._read_text(path) == "x" * 300_000 + "\n"
        assert sizes == [300_002]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_fifo_read_to_its_end(self, tmp_path):
        data = ("x" * 99 + "\r\n").encode() * 2000  # more than one 64 KiB read
        path = tmp_path / "fifo"
        os.mkfifo(path)
        for read in (rio._read_text, reference_read_text):
            writer = write_to_fifo(path, data)
            assert read(path) == ("x" * 99 + "\n") * 2000
            join_writer(writer)

    @pytest.mark.parametrize("ends", ["lf", "crlf", "cr"])
    def test_instance_line_ends(self, instance1, tmp_path, monkeypatch, ends):
        original = bundled_instance_path("instance-1").read_text()
        line = original[:original.index('"sites"')].count("\n") + 1
        text = newline_variants(original)[ends]
        broken = text.replace('"sites"', '"sites" :: ', 1)
        path = tmp_path / "instance.json"
        for body in (text, broken):
            path.write_bytes(body.encode())
            ours, reference = both_outcomes(monkeypatch, field_outcome, load_instance, path)
            assert ours == reference
        assert ours[1].startswith(f"{path}:{line}: invalid JSON")
        path.write_bytes(text.encode())
        assert field_outcome(load_instance, path) == (Instance, instance1)

    def test_instance_edge_files(self, tmp_path, monkeypatch):
        (tmp_path / "empty.json").write_bytes(b"")
        for name, (data, _) in NOT_UTF8.items():
            (tmp_path / f"{name}.json").write_bytes(data)
        paths = [*tmp_path.iterdir(), tmp_path, tmp_path / "missing.json"]
        for path in paths:
            ours, reference = both_outcomes(monkeypatch, field_outcome, load_instance, path)
            assert ours == reference
            assert ours[0] == "error"
        assert field_outcome(load_instance, tmp_path / "empty.json")[1] == (
            f"{tmp_path / 'empty.json'}:1: invalid JSON: Expecting value"
        )

    @pytest.mark.parametrize("ends", ["lf", "crlf", "cr"])
    def test_schedule_line_ends(self, instance1, golden_schedule, tmp_path, monkeypatch, ends):
        golden = bundled_schedule_path("instance-1-schedule").read_text()
        header, first, *rest = golden.splitlines()
        # A field holding a character that ``str.splitlines`` breaks on
        # but ``csv`` does not: the row stays one line.
        odd = first.rsplit(",", 1)[0] + ",\x0c10\x1c\u2028"
        path = tmp_path / "schedule.csv"
        cases = {
            "golden": [header, first, *rest],
            "short-row": [header, first, "1,x", *rest],
            "odd-field": [header, odd, *rest],
        }
        outcomes = {}
        for name, lines in cases.items():
            path.write_bytes(newline_variants("\n".join(lines) + "\n")[ends].encode())
            ours, reference = both_outcomes(monkeypatch, read_outcome, read_schedule_csv, path, instance1)
            assert ours == reference == reference_outcome(path, instance1)
            outcomes[name] = ours
        assert outcomes["golden"] == ("entries", tuple(map(tuple, golden_schedule.entries)))
        assert outcomes["short-row"] == ("InputError", f"{path}:3: expected 6 fields")
        assert outcomes["odd-field"] == (
            "InputError", f"{path}:2: delivery must be a finite number, got '\\x0c10\\x1c\\u2028'"
        )

    def test_schedule_edge_files(self, instance1, tmp_path, monkeypatch):
        (tmp_path / "empty.csv").write_bytes(b"")
        for name, (data, _) in NOT_UTF8.items():
            (tmp_path / f"{name}.csv").write_bytes(data)
        paths = [*tmp_path.iterdir(), tmp_path, tmp_path / "missing.csv"]
        for path in paths:
            ours, reference = both_outcomes(monkeypatch, read_outcome, read_schedule_csv, path, instance1)
            assert ours == reference
            assert ours[0] == "InputError"
        assert read_outcome(read_schedule_csv, tmp_path / "empty.csv", instance1)[1] == (
            f"{tmp_path / 'empty.csv'}:1: expected header {HEADER}"
        )

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_readers_on_a_fifo(self, instance1, tmp_path):
        path = tmp_path / "fifo"
        os.mkfifo(path)
        instance_bytes = bundled_instance_path("instance-1").read_bytes()
        writer = write_to_fifo(path, instance_bytes.replace(b"\n", b"\r\n"))
        assert load_instance(path) == instance1
        join_writer(writer)
        golden = bundled_schedule_path("instance-1-schedule")
        writer = write_to_fifo(path, golden.read_bytes())
        assert read_schedule_csv(path, instance1) == read_schedule_csv(golden, instance1)
        join_writer(writer)


class TestScheduleCsv:
    def test_header_and_row_count(self, example1):
        schedule = expand_consecutive(example1, (1, 2, 1, 2))
        lines = schedule_to_csv(schedule).splitlines()
        assert lines[0] == "site,trip,depot_start,site_start,site_end,delivery"
        assert len(lines) == 5

    def test_rows_sorted_by_site_then_trip(self, example1):
        schedule = expand_consecutive(example1, (2, 1, 2, 1))
        rows = [line.split(",")[:2]
                for line in schedule_to_csv(schedule).splitlines()[1:]]
        assert rows == [["1", "1"], ["1", "2"], ["2", "1"], ["2", "2"]]

    def test_times_render_as_clock(self, example1):
        schedule = expand_consecutive(example1, (1, 2, 1, 2))
        first = schedule_to_csv(schedule).splitlines()[1]
        assert first.split(",")[2] == "8:00"

    def test_delivery_column_is_cumulative(self, example1):
        schedule = expand_consecutive(example1, (1, 2, 1, 2))
        rows = schedule_to_csv(schedule).splitlines()[1:]
        site1 = [int(r.split(",")[5]) for r in rows if r.startswith("1,")]
        assert site1 == [10, 20]

    def test_write_read_round_trip(self, example1, tmp_path):
        schedule = expand_consecutive(example1, (1, 2, 1, 2))
        path = tmp_path / "schedule.csv"
        write_schedule_csv(path, schedule)
        loaded = read_schedule_csv(path, example1)
        assert loaded.entries == schedule.entries

    def test_golden_round_trip(self, instance1, golden_schedule, tmp_path):
        path = tmp_path / "golden.csv"
        write_schedule_csv(path, golden_schedule)
        assert read_schedule_csv(path, instance1).entries == golden_schedule.entries

    def test_unknown_site_rejected(self, example1, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "site,trip,depot_start,site_start,site_end,delivery\n"
            "9,1,8:00,8:20,8:40,10\n"
        )
        with pytest.raises(InputError):
            read_schedule_csv(path, example1)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", f":1: expected header {HEADER}"),
            ("site,trip,depot_start,site_start,site_end\n", f":1: expected header {HEADER}"),
            (f"{HEADER}\n1,1,8:00,8:20,8:40\n", ":2: expected 6 fields"),
            (f"{HEADER}\n\n1,1,8:00,8:20,8:40,10,x\n", ":3: expected 6 fields"),
            (f"{HEADER}\none,1,8:00,8:20,8:40,10\n", ":2: site and trip must be integers"),
            (f"{HEADER}\n1,1.5,8:00,8:20,8:40,10\n", ":2: site and trip must be integers"),
            # int() reads each of these, "1_0" as 10 and a full-width digit.
            (f"{HEADER}\n1,1_0,8:00,8:20,8:40,10\n", ":2: site and trip must be integers"),
            (f"{HEADER}\n\uff11,1,8:00,8:20,8:40,10\n", ":2: site and trip must be integers"),
            (f"{HEADER}\n 1,1,8:00,8:20,8:40,10\n", ":2: site and trip must be integers"),
            (f"{HEADER}\n1,+1,8:00,8:20,8:40,10\n", ":2: site and trip must be integers"),
            # str.isdigit() and int() take these clock digits too.
            (f"{HEADER}\n1,1,\uff18:00,8:20,8:40,10\n",
             ":2: depot_start: expected 'H:MM', got '\uff18:00'"),
            (f"{HEADER}\n1,1,8:00,8:\u0662\u0660,8:40,10\n",
             ":2: site_start: expected 'H:MM', got '8:\u0662\u0660'"),
        ],
        ids=["empty", "short-header", "short-row", "long-row", "site-text", "trip-fraction",
             "trip-underscore", "site-full-width", "site-space", "trip-plus",
             "clock-full-width", "clock-arabic-indic"],
    )
    def test_malformed_rows_rejected(self, example1, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InputError) as raised:
            read_schedule_csv(path, example1)
        assert str(raised.value) == f"{path}{message}"

    @pytest.mark.parametrize("delivery", ["nan", "inf", "-inf", "NaN", "Infinity", "ten"])
    def test_non_finite_delivery_rejected(self, example1, tmp_path, delivery):
        path = tmp_path / "bad.csv"
        path.write_text(
            "site,trip,depot_start,site_start,site_end,delivery\n"
            f"1,1,8:00,8:20,8:40,{delivery}\n"
        )
        with pytest.raises(InputError, match=f"{path}:2: delivery must be a finite number"):
            read_schedule_csv(path, example1)


def off_minute(instance):
    """``instance`` with the depot opening 30 s later, every requested start
    moved with it, and each demand 0.5 m3 lower: its clocks fall off the
    minute and each site's last delivery is fractional."""
    depot = replace(instance.depot, start_time=instance.depot.start_time + 30)
    sites = tuple(
        replace(site, demand=site.demand - 0.5, proposed_start=site.proposed_start + 30)
        for site in instance.sites
    )
    return replace(instance, depot=depot, sites=sites)


def solver_schedules(instance):
    """Every schedule the four solvers return on ``instance``; a search over
    its size cap is left out."""
    for solve in (priority_solve, greedy_solve, enumerate_exact, grid_exact):
        try:
            schedule = solve(instance).schedule
        except SizeCapError:
            continue
        if schedule is not None:
            yield schedule


class TestCsvWriterMatchesReference:
    """``schedule_to_csv`` writes the bytes of the ``csv.writer`` reference
    in ``conftest`` on every solver's schedule."""

    def test_bundled_instances(self, example1, instance1, instance2):
        written = 0
        for instance in (example1, instance1, instance2):
            for shifted in (instance, off_minute(instance)):
                for schedule in solver_schedules(shifted):
                    assert schedule_to_csv(schedule) == reference_schedule_to_csv(schedule)
                    written += 1
        assert written >= 10

    @pytest.mark.parametrize(
        "make", [random_instance, tight_gamma_instance, repeated_row_instance],
        ids=lambda make: make.__name__,
    )
    def test_random_families(self, make):
        off_clocks = fractional = 0
        for seed in range(12):
            instance = make(random.Random(seed))
            for shifted in (instance, off_minute(instance)):
                for schedule in solver_schedules(shifted):
                    text = schedule_to_csv(schedule)
                    assert text == reference_schedule_to_csv(schedule)
                    off_clocks += text.count(":30,")
                    fractional += text.count(".5\n")
        assert off_clocks and fractional


class TestToJson:
    """``to_json`` writes exactly what ``json.dumps(value, indent=2)`` does."""

    def test_matches_json_dumps_on_drawn_values(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # Any code point, control characters and lone surrogates included.
        text = st.text(st.characters(exclude_categories=()), max_size=8)
        scalars = (
            st.none() | st.booleans() | text
            | st.integers() | st.integers(2**64 - 2, 2**200) | st.integers(-(2**200), -(2**64))
            | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300])
        )
        values = st.recursive(
            scalars,
            lambda children: st.lists(children, max_size=5)
            | st.dictionaries(text, children, max_size=5),
            max_leaves=25,
        )

        @hypothesis.settings(max_examples=250, deadline=None, database=None)
        @hypothesis.given(values)
        @hypothesis.example({})
        @hypothesis.example([])
        @hypothesis.example({"": {}, "\x00\n\u00e9\u2028": [[], {}, None]})
        @hypothesis.example([math.nan, math.inf, -math.inf, 2**64, True, False, None])
        def matches(value):
            assert to_json(value) == json.dumps(value, indent=2)

        matches()

    @pytest.mark.parametrize(
        "value",
        [{1: "a"}, {None: 1}, {"a": {("b",): 1}}, {"a": (1, 2)}, [Decimal("1")], {1, 2},
         object(), [b"bytes"]],
        ids=["int-key", "none-key", "nested-tuple-key", "tuple", "decimal", "set",
             "object", "bytes"],
    )
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            to_json(value)


#: Clock strings that both inline ``H:MM`` readers must read, or refuse,
#: exactly as ``parse_time`` does.
CLOCK_CORPUS = ("8:00", "8:5", "8:60", "\uff18:00", "1234567:00", " 8:00", "8:00:30", "-1:00")


class TestInlineClockReaders:
    """The plain ``H:MM`` test is one helper, ``_plain_clock``, that
    ``_read_clock`` and the schedule CSV's clock loop each try before
    ``parse_time``; each reader agrees with ``parse_time``."""

    @pytest.mark.parametrize("text", CLOCK_CORPUS)
    def test_instance_reader(self, text):
        expected = field_outcome(parse_time, text, "start")
        if expected[0] == "error":
            expected = ("error", f"depot.{expected[1]}")
        assert field_outcome(rio._read_clock, {"start": text}, "start", "depot") == expected

    @pytest.mark.parametrize("text", CLOCK_CORPUS)
    def test_schedule_reader(self, example1, tmp_path, text):
        path = tmp_path / "schedule.csv"
        path.write_text(f"{HEADER}\n1,1,{text},8:20,8:40,10\n", encoding="utf-8")
        where = f"{path}:2: depot_start"
        expected = field_outcome(parse_time, text, where)
        read = field_outcome(lambda: read_schedule_csv(path, example1).entries[0].depot_start)
        latest = example1.depot.start_time + (len(example1.trips) + 2) * 48 * 3600
        if expected[0] is int and expected[1] > latest:  # 1234567 h
            expected = ("error", f"{where}: more than 288 h after the depot start")
        assert read == expected


def read_outcome(read, path, instance):
    """``read``'s entries as plain tuples, or the text of its ``InputError``."""
    try:
        return "entries", tuple(map(tuple, read(path, instance).entries))
    except InputError as exc:
        return "InputError", str(exc)


def reference_outcome(path, instance):
    try:
        return "entries", reference_read_schedule(path, instance)
    except InputError as exc:
        return "InputError", str(exc)


#: Clocks the reader must read, or refuse, exactly as ``parse_time`` does.
ODD_CLOCKS = (
    "8:00:30", "\u0668:\u0660\u0660", "\u00b2:00", "8:60", ":00", "8:5", "08:05",
    "0008:00", "8:00:60", "8:0a", " 8:00", "8:00 ", "+8:00", "1_0:00", "8",
    "8:00:", "8::00", "999999:00", "1000000:00", "9" * 5000 + ":00",
)


def over_span_clocks(instance):
    """The latest clock a schedule may hold, and two just past it."""
    latest = instance.depot.start_time + (len(instance.trips) + 2) * 48 * 3600
    return format_time(latest), format_time(latest + 60), format_time(latest + 1)


def edited_csv(text, instance, rng):
    """``text`` with one to three drawn edits: blank lines, wrong field
    counts, unknown sites, odd or over-span clocks, odd deliveries, moved
    or repeated rows."""
    header, *lines = text.splitlines()
    clocks = ODD_CLOCKS + over_span_clocks(instance)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(lines))
        fields = lines[k].split(",")
        edit = rng.randrange(8)
        if edit == 0:
            lines.insert(k, rng.choice(("", "  ", ",,,,,")))
        elif edit == 1:
            lines.insert(rng.randrange(len(lines)), lines[k])
        elif edit == 2:
            lines[k] = ",".join(fields[:rng.randrange(len(fields))])
        elif edit == 3:
            lines[k] += ",x"
        elif len(fields) != 6:
            continue
        elif edit == 4:
            fields[0] = str(rng.choice((0, -1, len(instance.sites) + 1, 10**30)))
        elif edit == 5:
            fields[rng.choice((2, 3, 4))] = rng.choice(clocks)
        elif edit == 6:
            fields[5] = rng.choice(("nan", "inf", "-inf", "1e400", "ten", " 7 ", "1_0", "-2.5"))
        else:
            fields[1] = rng.choice(("0", "9", "1.0", " 2"))
        if edit >= 4:
            lines[k] = ",".join(fields)
    return "\n".join([header, *lines]) + "\n"


class TestReaderMatchesReference:
    """``read_schedule_csv`` agrees with the plain row-by-row reference in
    ``conftest`` on every entry, or on the exact text of its error."""

    @pytest.fixture(scope="class")
    def schedules(self, example1, instance1, instance2):
        """``(instance, CSV text)`` of the golden schedule and solver output."""
        golden = bundled_schedule_path("instance-1-schedule").read_text()
        texts = [(instance1, golden)]
        for instance in (example1, instance1, instance2):
            texts.append((instance, schedule_to_csv(priority_solve(instance).schedule)))
        rng = random.Random(19)
        for _ in range(6):
            instance = random_instance(rng)
            texts.append((instance, schedule_to_csv(greedy_solve(instance).schedule)))
        return texts

    def test_golden_and_solver_schedules(self, schedules, tmp_path):
        path = tmp_path / "schedule.csv"
        for instance, text in schedules:
            path.write_text(text)
            outcome = read_outcome(read_schedule_csv, path, instance)
            assert outcome[0] == "entries"
            assert outcome == reference_outcome(path, instance)

    @pytest.mark.parametrize("column", [2, 3, 4])
    def test_odd_and_over_span_clocks(self, instance1, tmp_path, column):
        path = tmp_path / "schedule.csv"
        header, first, *rest = bundled_schedule_path("instance-1-schedule").read_text().splitlines()
        refused = 0
        for clock in ODD_CLOCKS + over_span_clocks(instance1):
            fields = first.split(",")
            fields[column] = clock
            path.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
            outcome = read_outcome(read_schedule_csv, path, instance1)
            assert outcome == reference_outcome(path, instance1), clock
            refused += outcome[0] == "InputError"
        assert 10 <= refused < len(ODD_CLOCKS) + 3  # both branches are drawn

    @pytest.mark.parametrize("seed", range(4))
    def test_drawn_edits(self, schedules, tmp_path, seed):
        rng = random.Random(seed)
        path = tmp_path / "schedule.csv"
        kinds = set()
        for _ in range(150):
            instance, text = rng.choice(schedules)
            path.write_text(edited_csv(text, instance, rng))
            outcome = read_outcome(read_schedule_csv, path, instance)
            assert outcome == reference_outcome(path, instance)
            kinds.add(outcome[1].split(": ")[1] if outcome[0] == "InputError" else "read")
        assert {"read", "expected 6 fields", "unknown site 0"} <= kinds
