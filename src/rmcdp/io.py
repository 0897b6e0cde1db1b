"""Instance and schedule file formats.

Instances are JSON documents::

    {"depot": {"start": "8:00", "plant_capacity": 10, "productivity": 120,
               "truck_capacity": 10, "trucks": 18, "gamma": 90},
     "sites": [{"id": 1, "demand": 50, "distance": 30, "speed": 60,
                "unload": 25, "proposed_start": "8:00"}, ...]}

Clock fields accept ``"H:MM"`` strings or plain minutes; ``gamma``,
``unload`` and ``gamma_override`` are durations in minutes.  Minutes must
come to whole seconds, read exactly, and at most 48 h.  A depot or site
key that is none of these fields is refused; keys beside ``depot`` and
``sites`` are free.  Schedules travel as CSV with one row per trip,
sorted by site then trip; a schedule clock may lie at most
``(trips + 2) * 48`` h after the depot start.

Files are read and written at the ``os`` level: an input in one
``os.read`` (a pipe or device until its end), decoded as UTF-8 with a
text-mode read's newline translation, and an output in one ``os.write``.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import os
import stat
from collections.abc import Mapping
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any

from .model import (
    DAY,
    DEFAULT_GAMMA,
    HOUR,
    MINUTE,
    DepotSpec,
    Instance,
    InputError,
    SiteSpec,
    ValidationError,
    _ratio,
    _shown,
    total_trips,
)
from .schedule import Schedule, ScheduleEntry, TripId

SCHEDULE_HEADER = ("site", "trip", "depot_start", "site_start", "site_end", "delivery")


def parse_time(value: Any, what: str = "time") -> int:
    """Clock value ("H:MM", "H:MM:SS" or minutes) to seconds.  A refused
    clock string is shown if it is at most 40 characters, else by length."""
    if isinstance(value, str):
        parts = value.split(":")
        try:
            # ASCII digits only: int() also reads full-width, Arabic-Indic
            # and other Unicode digits.
            if not (
                len(parts) in (2, 3) and value.isascii()
                and all(p.isdigit() for p in parts)
            ):
                raise ValueError
            hours, minutes = int(parts[0]), int(parts[1])
            seconds = int(parts[2]) if len(parts) == 3 else 0
            if minutes >= 60 or seconds >= 60:
                raise ValueError
        except ValueError:  # a bad shape or digit, too many digits, or past 59
            raise InputError(f"{what}: expected 'H:MM', got {_shown(value)}") from None
        return hours * 3600 + minutes * 60 + seconds
    return _seconds(value, what, "'H:MM' or minutes")


def parse_duration(value: Any, what: str) -> int:
    """Duration in minutes to seconds."""
    seconds = _seconds(value, what, "minutes")
    if seconds <= 0:
        raise InputError(f"{what}: must be positive")
    return seconds


def _seconds(value: Any, what: str, expected: str) -> int:
    """A finite number of minutes that is a whole number of seconds.  A
    float is read as its shortest decimal, exactly, like every other
    instance number; an int stays on integer arithmetic."""
    minutes = _number(value, what, expected)
    if isinstance(minutes, int):
        return minutes * 60
    num, den = _ratio(minutes, what)
    seconds, rest = divmod(num * 60, den)
    if rest:
        raise InputError(f"{what}: {value!r} minutes is not a whole second count")
    return seconds


_TWO_DIGITS = [f"{n:02d}" for n in range(60)]


def format_time(seconds: int) -> str:
    """Seconds from midnight to 'H:MM' (or 'H:MM:SS' off the minute)."""
    if not seconds % 60:
        minutes = seconds // 60
        return f"{minutes // 60}:{_TWO_DIGITS[minutes % 60]}"
    hours, rest = divmod(seconds, 3600)
    minutes, secs = divmod(rest, 60)
    return f"{hours}:{minutes:02d}:{secs:02d}"


_REQUIRED = object()


def _field(doc: Mapping[str, Any], field: str, what: str, parse, default=_REQUIRED):
    """``parse`` applied to ``doc[field]``.  An absent field takes ``default``,
    and without one it reads ``missing``.  A parse error names ``what.field``,
    which is formatted only then."""
    if field in doc:
        try:
            return parse(doc[field], field)
        except InputError as exc:
            raise InputError(f"{what}.{exc}") from None
    if default is _REQUIRED:
        raise InputError(f"{what}.{field}: missing")
    return default


def _number(value: Any, what: str, expected: str = "a number"):
    """A JSON number; ``NaN`` and the infinities, which ``json`` accepts,
    are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{what}: expected {expected}, got {_shown(value)}")
    if isinstance(value, float) and not math.isfinite(value):
        raise InputError(f"{what}: expected a finite number, got {value!r}")
    return value


def _integer(value: Any, what: str) -> int:
    if isinstance(value, float) and not value.is_integer():
        raise InputError(f"{what}: expected an integer, got {value!r}")
    return int(_number(value, what))


# The readers below take ints, finite floats and plain "H:MM" strings
# straight from the document; any other value goes through ``_field`` and
# the parser named there, which read it or refuse it with their message.


def _read_number(doc: Mapping[str, Any], field: str, what: str):
    value = doc.get(field)
    if type(value) is int or (type(value) is float and math.isfinite(value)):
        return value
    return _field(doc, field, what, _number)


def _read_integer(doc: Mapping[str, Any], field: str, what: str, default=_REQUIRED):
    value = doc.get(field)
    if type(value) is int:
        return value
    return _field(doc, field, what, _integer, default)


def _read_duration(doc: Mapping[str, Any], field: str, what: str, default=_REQUIRED):
    value = doc.get(field)
    if type(value) is int and value > 0:
        return value * MINUTE
    return _field(doc, field, what, parse_duration, default)


def _plain_clock(text: str) -> int | None:
    """The seconds of a plain ``H:MM`` of ASCII digits with at most six hour
    digits, or ``None`` for any other text, which ``parse_time`` reads or
    refuses."""
    hours, _, minutes = text.partition(":")
    if (
        len(minutes) == 2 and minutes < "60" and minutes.isdigit()
        and hours.isdigit() and len(hours) < 7 and text.isascii()
    ):
        return int(hours) * HOUR + int(minutes) * MINUTE
    return None


def _read_clock(doc: Mapping[str, Any], field: str, what: str) -> int:
    value = doc.get(field)
    if type(value) is int:
        return value * MINUTE
    if type(value) is str and (clock := _plain_clock(value)) is not None:
        return clock
    return _field(doc, field, what, parse_time)


#: The fields a depot and a site may have, in the order messages list them.
_DEPOT_FIELDS = ("start", "plant_capacity", "productivity", "truck_capacity", "trucks", "gamma")
_SITE_FIELDS = (
    "id", "demand", "distance", "speed", "unload", "proposed_start", "gamma_override"
)
_DEPOT_KEYS, _SITE_KEYS = frozenset(_DEPOT_FIELDS), frozenset(_SITE_FIELDS)


def _unknown_field(doc: Mapping[str, Any], what: str, kind: str, fields: tuple) -> InputError:
    """The refusal of ``doc``'s first key that is not one of ``fields``.
    A key is shown as it is if it is printable and at most 40 characters,
    else through ``_shown``."""
    key = next(key for key in doc if key not in fields)
    if not (type(key) is str and len(key) <= 40 and key.isprintable()):
        key = _shown(key)
    return InputError(f"{what}.{key}: unknown field (a {kind} has {', '.join(fields)})")


def instance_from_dict(doc: Mapping[str, Any]) -> Instance:
    """An ``Instance`` from a parsed instance document.  A key the depot or
    a site does not have is refused, so a misspelt field cannot silently
    change the model; keys beside ``depot`` and ``sites`` are free."""
    if not isinstance(doc, Mapping):
        raise InputError("instance: expected a JSON object")
    depot_doc = doc.get("depot")
    if not isinstance(depot_doc, Mapping):
        raise InputError("depot: missing or not an object")
    if not depot_doc.keys() <= _DEPOT_KEYS:
        raise _unknown_field(depot_doc, "depot", "depot", _DEPOT_FIELDS)
    sites_doc = doc.get("sites")
    if not isinstance(sites_doc, list) or not sites_doc:
        raise InputError("sites: missing or empty")

    depot = DepotSpec(
        _read_clock(depot_doc, "start", "depot"),
        _read_number(depot_doc, "plant_capacity", "depot"),
        _read_number(depot_doc, "productivity", "depot"),
        _read_number(depot_doc, "truck_capacity", "depot"),
        _read_integer(depot_doc, "trucks", "depot", None),
        _read_duration(depot_doc, "gamma", "depot", DEFAULT_GAMMA),
    )

    sites = []
    for index, site_doc in enumerate(sites_doc):
        where = f"sites[{index}]"
        if not isinstance(site_doc, Mapping):
            raise InputError(f"{where}: expected an object")
        if not site_doc.keys() <= _SITE_KEYS:
            raise _unknown_field(site_doc, where, "site", _SITE_FIELDS)
        try:
            sites.append(
                SiteSpec(
                    _read_integer(site_doc, "id", where),
                    _read_number(site_doc, "demand", where),
                    _read_number(site_doc, "distance", where),
                    _read_number(site_doc, "speed", where),
                    _read_duration(site_doc, "unload", where),
                    _read_clock(site_doc, "proposed_start", where),
                    _read_duration(site_doc, "gamma_override", where, None),
                )
            )
        except ValidationError as exc:
            raise InputError(f"{where}.{exc}") from exc

    return Instance(depot=depot, sites=tuple(sites))


def _read_text(path: Path) -> str:
    r"""The file's text, which must be UTF-8, as a text-mode read gives it:
    ``\r\n`` and a lone ``\r`` become ``\n``.

    The file is read with ``os.read``, in one call for a regular file: the
    first read asks for one byte more than ``fstat``'s size, so getting
    exactly that size is the end of the file.  A pipe, a FIFO or a device
    is read until ``os.read`` returns nothing.  Asking ``fstat`` keeps the
    buffer as small as the file; a fixed large buffer costs memory on
    every read."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            info = os.fstat(fd)
            data = os.read(fd, info.st_size + 1)
            if len(data) != info.st_size or not stat.S_ISREG(info.st_mode):
                chunks = [data]
                while data:
                    data = os.read(fd, 1 << 16)
                    chunks.append(data)
                data = b"".join(chunks)
        finally:
            os.close(fd)
        text = data.decode()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def load_instance(path: str | Path) -> Instance:
    path = Path(path)
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # an integer with more digits than int() reads
        raise InputError(f"{path}: invalid JSON: a number with too many digits") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: invalid JSON: nested too deeply") from exc
    try:
        return instance_from_dict(doc)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _bundled_path(name: str, suffix: str, kind: str) -> Path:
    path = Path(__file__).with_name("data") / f"{name}{suffix}"
    if not path.exists():
        raise InputError(f"no bundled {kind} named {name!r}")
    return path


def bundled_instance_path(name: str) -> Path:
    return _bundled_path(name, ".json", "instance")


def bundled_schedule_path(name: str) -> Path:
    return _bundled_path(name, ".csv", "schedule")


def schedule_to_csv(schedule: Schedule) -> str:
    # No field needs quoting: ids, clocks and numbers hold no comma, quote
    # or line break.
    lines = [",".join(SCHEDULE_HEADER)]
    for (site, trip), depot, arrival, departure, delivered in sorted(
        schedule.entries, key=itemgetter(0)
    ):
        lines.append(
            f"{site},{trip},{format_time(depot)},{format_time(arrival)},"
            f"{format_time(departure)},{_format_quantity(delivered)}"
        )
    lines.append("")
    return "\n".join(lines)


def _format_quantity(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def to_json(value: Any) -> str:
    """``json.dumps(value, indent=2)`` of the values the CLI prints: dicts
    with ``str`` keys, lists, strings, ints, floats, bools and ``None``.
    Any other type, a dict key among them, raises ``TypeError``.

    ``json`` runs its pure-Python encoder whenever ``indent`` is set; this
    writer escapes strings with the same C function and formats numbers the
    same way, at a fraction of the cost."""
    return _json(value, "\n")


_JSON_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _JSON_FLOAT_WORDS.get(text, text)


_encode_str = json.encoder.encode_basestring_ascii
#: Each scalar type and its writer, looked up by exact type.
_JSON_SCALARS = {
    str: _encode_str,
    int: int.__repr__,
    float: _json_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json(value: Any, newline: str) -> str:
    """``value`` as JSON, each nested line starting with ``newline``."""
    kind = type(value)
    scalar = _JSON_SCALARS.get(kind)
    if scalar is not None:
        return scalar(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        parts = []
        for key, item in value.items():
            scalar = _JSON_SCALARS.get(type(item))
            text = scalar(item) if scalar is not None else _json(item, inner)
            # _encode_str raises TypeError on a key that is not a str.
            parts.append(f"{_encode_str(key)}: {text}")
        return f"{{{inner}{(',' + inner).join(parts)}{newline}}}"
    if kind is list:
        if not value:
            return "[]"
        inner = newline + "  "
        # A list of one scalar type, as most lists here are, is written in C.
        kinds = set(map(type, value))
        scalar = _JSON_SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        if scalar is not None:
            parts = map(scalar, value)
        else:
            parts = [_json(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(parts)}{newline}]"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written is an
    input error naming it.

    The file is written in place and then cut to the new length, which
    keeps its inode, mode and links.  Opening with ``O_TRUNC`` instead
    makes ext4 flush the file on close, which costs several times the
    write.  Only a regular file is cut: ``/dev/null``, a pipe or a tty
    refuses it.  The write is not atomic: a reader may see it half done.
    """
    data = text.encode()
    try:
        fd = os.open(Path(path), os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc


def write_schedule_csv(path: str | Path, schedule: Schedule) -> None:
    write_text(path, schedule_to_csv(schedule))


def read_schedule_csv(path: str | Path, instance: Instance) -> Schedule:
    path = Path(path)
    reader = csv.reader(_io.StringIO(_read_text(path)))
    try:
        rows = list(reader)
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise InputError(f"{path}:{reader.line_num}: {exc}") from exc
    if not rows or tuple(rows[0]) != SCHEDULE_HEADER:
        raise InputError(
            f"{path}:1: expected header {','.join(SCHEDULE_HEADER)}"
        )
    # A solver loads each trip at most 48 h plus one loading time after the
    # latest loading before it (or in the first 24 h, which hold every
    # loading time), and a trip ends at most 48 h after its loading, so
    # every clock it writes lies within this span of the depot start.  A
    # clock past it is refused before any arithmetic meets it.
    span = (total_trips(instance) + 2) * 2 * DAY
    latest = instance.depot.start_time + span
    sites = instance._sites_by_id
    make_entry, make_trip, entries = ScheduleEntry._make, TripId._make, []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(SCHEDULE_HEADER):
            raise InputError(f"{path}:{line_no}: expected {len(SCHEDULE_HEADER)} fields")
        site_text, trip_text = row[0], row[1]
        try:
            # Plain ASCII digits only: int() would also read "1_0", " 1",
            # "+1" and full-width digits.
            if not (
                site_text.isdigit() and trip_text.isdigit()
                and (site_text + trip_text).isascii()
            ):
                raise ValueError
            site_id, trip_index = int(site_text), int(trip_text)
        except ValueError as exc:  # also a number with too many digits
            raise InputError(f"{path}:{line_no}: site and trip must be integers") from exc
        if site_id not in sites:
            raise InputError(f"{path}:{line_no}: unknown site {site_id}")
        clocks = []
        for column in (2, 3, 4):
            text = row[column]
            if (clock := _plain_clock(text)) is None:
                clock = parse_time(text, f"{path}:{line_no}: {SCHEDULE_HEADER[column]}")
            if clock > latest:
                raise InputError(
                    f"{path}:{line_no}: {SCHEDULE_HEADER[column]}: "
                    f"more than {span // HOUR} h after the depot start"
                )
            clocks.append(clock)
        try:
            cumulative = float(row[5])
        except ValueError:
            cumulative = math.nan
        if not math.isfinite(cumulative):
            raise InputError(
                f"{path}:{line_no}: delivery must be a finite number, got {row[5]!r}"
            )
        entries.append(make_entry((make_trip((site_id, trip_index)), *clocks, cumulative)))
    entries.sort(key=attrgetter("trip"))
    return Schedule(entries=tuple(entries))
