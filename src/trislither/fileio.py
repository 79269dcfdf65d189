"""Line-oriented text formats for edge sets and cycles.

Edge-set file::

    n 5
    edge 1 1 2 1
    edge 4 1 5 1

Cycle file: the same ``n`` header followed either by ``edge`` lines or by
a closed corner walk, one corner per ``walk x y`` line. Walk segments may
span several unit edges but must run along one of the three grid
directions. Saved files list edges in canonical index order, so saving a
loaded canonical file reproduces it byte for byte. Blank lines and lines
starting with ``#`` are skipped. The side is plain ASCII digits
(``[0-9]+``) and every field of an ``edge`` or ``walk`` record a plain
ASCII integer (``-?[0-9]+``).

The writer's layout is the ``n`` line, then one record a line with single
spaces, no comment or blank line, a final newline and no field longer
than 18 digits. Text in that layout is read in whole-text passes: one
regular-expression search finds nothing that breaks the layout, one
``np.fromstring`` call converts every field to int64, and
``TriGrid.edge_ids`` looks the edges up at once; a stable sort finds
repeats. Text in any other layout is split into lines and fields, put
back together in the writer's layout with each record's line number kept,
and read the same way. No ``Vertex`` or ``Edge`` object is built unless a
record is at fault. A file with several faults reports the one on its
earliest line, header faults first.

Every record before an edge file's first fault names a new edge, and
every corner before a walk's first fault adds a new edge, so the first
fault lies among the first ``num_edges + 2`` records; no more are split or
converted, and a walk's last corner, which must close it, is read on its
own. What the rest of a file can still hold (a second ``n`` line, a record
of another kind, a malformed walk record) is found by regular-expression
searches, so a file of millions of records is refused in memory that does
not grow with them.
"""

from __future__ import annotations

import os
import re
import sys
from collections import deque
from itertools import islice
from typing import Callable, NamedTuple

import numpy as np

from .cycles import Cycle, validate_cycle
from .errors import FileFormatError, InvalidEdgeError
from .evenalg import EdgeSet
from .grid import TriGrid, build_grid

# Largest grid side a file may declare. A side-256 grid takes 11-15 ms
# and a 15 MB peak to build, its neighbour table 1.6 MB more on first use,
# and every later step scales with the square of the side, so a larger
# side is refused before the build.
MAX_SIDE = 256


def dumps_edge_set(a: EdgeSet) -> str:
    xy = a.endpoint_xy()
    return f"n {a.grid.n}\n" + ("edge %d %d %d %d\n" * len(xy)) % tuple(xy.ravel().tolist())


def write_edge_set(path: str | os.PathLike, a: EdgeSet) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_edge_set(a))


_FIELD_COUNTS = {"edge": 4, "walk": 2}

# The regular expressions below are pattern strings, compiled on first use
# and then kept by the re module: compiling them takes about 4 ms, which a
# program that reads no file, or only the writer's layout, need not pay.


def _record_breaks(field: str) -> dict[str, str]:
    """Per record kind, a newline that neither ends the text nor starts a
    record of that kind: the kind and its fields, each matching ``field``,
    after single spaces, then a newline. A search that finds none checks a
    whole text of records without a regex repeat, whose backtracking state
    would grow with every record."""
    return {
        kind: rf"\n(?!{kind}{f' {field}' * count}\n|\Z)" for kind, count in _FIELD_COUNTS.items()
    }


# The writer's layout: after its n line, no field longer than 18 digits,
# so that every field is an exact int64.
_HEADER = r"n ([0-9]+)\n"
_LAYOUT_BREAKS = _record_breaks("-?[0-9]{1,18}")
_LONGEST_RECORD = len("edge") + 4 * len(" -999999999999999999") + 1
# Records put back together from another layout: any plain integers.
_RECORD_BREAKS = _record_breaks("-?[0-9]+")
_LONG_FIELD = r"-?[0-9]{19,}"

# Lines as str.splitlines ends them, words as str.split splits them.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_BLANK = rf"[^\S{_BREAKS}]"
# A whole line that is neither blank nor a comment.
_LINE = rf"(?<![^{_BREAKS}]){_BLANK}*[^\s#][^{_BREAKS}]*"
# The line break before an n line.
_N_LINE = rf"[{_BREAKS}]{_BLANK}*n(?!\S)"
# The line break before a line that is neither blank, a comment nor a record of the kind.
_OTHER_KIND = rf"[{_BREAKS}]{_BLANK}*(?!#|{{}}(?!\S))\S"

_NO_RECORDS = "cycle file has no edge or walk records"
_MIXED = "cycle file must contain only edge lines or only walk lines"


class _Records(NamedTuple):
    """The records of a file that a reader converts: its first
    ``grid.num_edges + 2``, which hold its first fault if it has one."""

    grid: TriGrid
    kind: str  # "edge" or "walk"
    text: str  # starts with those records in the writer's layout, up to one with a fault of form
    line: Callable[[int], tuple[int, list[str]]]  # record k -> its line number and words
    last: list[str] | None  # the words of the last record, if it is not among them
    error: FileFormatError | None  # the fault of form that ends ``text``, if any


def _read(path: str, text: str, kind: str | None) -> _Records:
    """The records of an edge-set file (``kind`` "edge") or of a cycle file
    (``kind`` None: edge or walk records, not both). Text in the writer's
    layout is read as it stands, any other text line by line; no text is
    read both ways."""
    m = re.compile(_HEADER).match(text)
    if m:
        layout = kind or ("walk" if text.startswith("walk", m.end()) else "edge")
        if not re.compile(_LAYOUT_BREAKS[layout]).search(text, m.end() - 1):
            return _layout_records(path, text, m, layout, cycle=kind is None)
    return _line_records(path, text, kind)


def _side(path: str, line_no: int, raw: str, digits: str) -> int:
    """The side of the n line ``raw``, which declares ``digits``."""
    if not (digits.isascii() and digits.isdecimal()):
        raise FileFormatError(path, line_no, f"malformed n line: {raw!r}")
    # The side as int() prints it, read without int() where it has more
    # digits than any side can: int() refuses thousands of digits.
    side = digits.lstrip("0") or "0"
    if len(side) > len(str(MAX_SIDE)) or not 1 <= int(side) <= MAX_SIDE:
        raise FileFormatError(path, line_no, f"grid side {side} is outside 1..{MAX_SIDE}")
    return int(side)


def _layout_records(path: str, text: str, m: re.Match, kind: str, cycle: bool) -> _Records:
    """The records of a text in the writer's layout, whose n line ``m`` matched."""
    g = build_grid(_side(path, 1, m[0][:-1], m[1]))
    start, limit = m.end(), g.num_edges + 2
    if cycle and start == len(text):
        raise FileFormatError(path, 0, _NO_RECORDS)
    head = text[start : start + limit * _LONGEST_RECORD]  # holds the first limit records
    last = None
    if kind == "walk" and text.count("\n", start) > limit:
        last = text[text.rfind("\n", 0, len(text) - 1) + 1 :].split()

    def line(k: int) -> tuple[int, list[str]]:
        return k + 2, head.split("\n", k + 1)[k].split()

    return _Records(g, kind, head, line, last, None)


def _line_no(text: str, pos: int) -> int:
    """The number of the line that starts at ``pos``."""
    return 1 + sum(text.count(c, 0, pos) for c in _BREAKS) - text.count("\r\n", 0, pos)


def _header(path: str, text: str) -> tuple[int, int]:
    """The side declared by the first line that is neither blank nor a
    comment, and the end of that line. Header faults come before any other,
    a second n line anywhere among them."""
    head = re.compile(_LINE).search(text)
    if head is None:
        raise FileFormatError(path, 0, "missing n line")
    raw, line_no = head.group(), _line_no(text, head.start())
    words = raw.split()
    if words[0] != "n":
        raise FileFormatError(path, line_no, "first line must declare n")
    side = _side(path, line_no, raw, words[1] if len(words) == 2 else "")
    second = re.compile(_N_LINE).search(text, head.end())
    if second:
        raise FileFormatError(path, _line_no(text, second.start() + 1), "duplicate n line")
    return side, head.end()


def _record_error(path: str, line_no: int, words: list[str], kind: str) -> FileFormatError:
    count = _FIELD_COUNTS[kind]
    if words[0] != kind:
        message = f"unexpected record {words[0]!r}"
    elif len(words) != count + 1:
        message = f"expected {count} integers: {' '.join(words)!r}"
    else:
        message = f"non-integer field: {' '.join(words)!r}"
    return FileFormatError(path, line_no, message)


def _line_records(path: str, text: str, kind: str | None) -> _Records:
    """The records of a text in any layout: the first ``num_edges + 2`` lines
    after the n line that are neither blank nor a comment, split into words
    and put back together in the writer's layout."""
    n, start = _header(path, text)
    g = build_grid(n)
    limit = g.num_edges + 2
    matches = islice(re.compile(_LINE).finditer(text, start), limit)
    lines = [(m.start(), m.group().split()) for m in matches]

    def line(k: int) -> tuple[int, list[str]]:
        return _line_no(text, lines[k][0]), lines[k][1]

    if kind is None:
        if not lines:
            raise FileFormatError(path, 0, _NO_RECORDS)
        kind = lines[0][1][0]
        if kind not in _FIELD_COUNTS or re.compile(_OTHER_KIND.format(kind)).search(text, start):
            raise FileFormatError(path, line(0)[0], _MIXED)
    last = None
    if kind == "walk":
        _check_walk_records(path, text, start)
        if len(lines) == limit:
            last = _last_line(text, lines[-1][0] + 1)
    body = "".join(["\n" + " ".join(words) for _, words in lines]) + "\n"
    fault = re.compile(_RECORD_BREAKS[kind]).search(body)
    end = fault.start() + 1 if fault else len(body)
    k = body.count("\n", 0, end) - 1
    error = _record_error(path, *line(k), kind) if k < len(lines) else None
    records = body[1:end]
    if kind == "edge":
        records = re.compile(_LONG_FIELD).sub(_int64_field, records)
    return _Records(g, kind, records, line, last, error)


def _int64_field(m: re.Match) -> str:
    """A field of 19 or more digits as int64 text: its value where that has
    at most 18 digits, else -1, which is off every grid."""
    field = m.group()
    digits = field.lstrip("-").lstrip("0") or "0"
    return field[: field.startswith("-")] + digits if len(digits) <= 18 else "-1"


def _walk_fault(max_digits: int) -> str:
    """The line break before a line that is neither blank, a comment nor a
    walk record whose fields int() converts (at most ``max_digits`` digits,
    any number if 0)."""
    field = rf"-?[0-9]{{1,{max_digits}}}" if max_digits else "-?[0-9]+"
    record = rf"walk(?:{_BLANK}+{field}){{2}}{_BLANK}*(?![^{_BREAKS}])"
    return rf"[{_BREAKS}]{_BLANK}*(?!#|{record})\S"


def _check_walk_records(path: str, text: str, start: int) -> None:
    """Raise the fault of form on the earliest walk record after ``start``
    that has one, or a field too long for int(): a walk's faults of form
    come before its faults as a walk, wherever they are."""
    fault = re.compile(_walk_fault(sys.get_int_max_str_digits())).search(text, start)
    if fault:
        line_no = _line_no(text, fault.start() + 1)
        words = re.compile(_LINE).match(text, fault.start() + 1).group().split()
        if not re.compile(_RECORD_BREAKS["walk"]).search("\n" + " ".join(words) + "\n"):
            _ints(path, line_no, words[1:])  # raises: a field is too long
        raise _record_error(path, line_no, words, "walk")


def _last_line(text: str, after: int) -> list[str] | None:
    """The words of the last line starting after ``after`` that is neither
    blank nor a comment, looked for in ever wider windows at the end."""
    window = 4096
    while True:
        lo = max(after, len(text) - window)
        last = deque(re.compile(_LINE).finditer(text, lo), maxlen=1)
        if last or lo == after:
            return last[0].group().split() if last else None
        window *= 16


def _fields(text: str, kind: str, limit: int) -> np.ndarray:
    """The fields of the first ``limit`` records of ``text`` (all if fewer),
    which starts with records in the writer's layout, as int64, one row a
    record."""
    count = _FIELD_COUNTS[kind]
    k = min(limit, text.count("\n"))
    values = np.fromstring(text.replace(kind, ""), dtype=np.int64, sep=" ", count=k * count)
    return values.reshape(k, count)


def _ints(path: str, line_no: int, fields: list[str]) -> list[int]:
    """The plain-integer ``fields`` of the record on ``line_no``. A field with
    more digits than ``int`` converts (``sys.get_int_max_str_digits``) is
    reported at that line."""
    values = []
    for field in fields:
        try:
            values.append(int(field))
        except ValueError:  # a plain integer, so too long
            digits = len(field.lstrip("-"))
            message = f"integer field too long: {digits} digits"
            raise FileFormatError(path, line_no, message) from None
    return values


def _first_fault(ids: np.ndarray) -> int:
    """Position of the first id that is -1 or repeats an earlier one, else len(ids)."""
    off = np.flatnonzero(ids < 0)
    head = ids[: off[0]] if off.size else ids
    order = np.argsort(head, kind="stable")
    repeats = order[1:][head[order[1:]] == head[order[:-1]]]
    if repeats.size:
        return int(repeats.min())
    return int(off[0]) if off.size else len(ids)


def _edge_set(path: str, records: _Records) -> EdgeSet:
    """The edge set of ``edge`` records, each naming a new edge of the grid.

    Of several faults the one on the earliest line is reported: a record
    that is not an edge record with integer fields ends the well-formed
    run, a pair that is no edge of the grid ends the run of edges, and a
    repeated edge is reported at its second line.
    """
    g = records.grid
    ids = g.edge_ids(*_fields(records.text, "edge", g.num_edges + 2).T)
    k = _first_fault(ids)
    if k < len(ids):
        line_no, words = records.line(k)
        x1, y1, x2, y2 = _ints(path, line_no, words[1:])
        try:
            edge = g.edge_between((x1, y1), (x2, y2))
        except InvalidEdgeError as exc:
            raise FileFormatError(path, line_no, str(exc)) from None
        raise FileFormatError(path, line_no, f"duplicate edge {edge}")
    if records.error is not None:
        raise records.error
    return EdgeSet(g, np.bincount(ids, minlength=g.num_edges) > 0)


def loads_edge_set(text: str, path: str = "<string>") -> EdgeSet:
    return _edge_set(path, _read(path, text, "edge"))


def read_edge_set(path: str | os.PathLike) -> EdgeSet:
    with open(path, "r", encoding="ascii") as fh:
        return loads_edge_set(fh.read(), path=str(path))


# -- cycles -------------------------------------------------------------------

def corner_walk_edges(g: TriGrid, corners: list[tuple[int, int]]) -> np.ndarray:
    """The edge indices of a closed corner walk's unit steps, in walk order.

    Each segment must run along one of the three grid directions; the walk
    must end where it started and may not reuse a unit edge. The first
    fault in walk order is raised as a ValueError.
    """
    if len(corners) < 2 or corners[0] != corners[-1]:
        raise ValueError("corner walk must be closed (first corner repeated at the end)")
    # Every step before the first fault is a new edge of g, so the first
    # fault is among the first num_edges + 1 steps; no more are taken.
    cap, total, units, steps, fault = g.num_edges + 1, 0, [], [], None
    for (x1, y1), (x2, y2) in zip(corners, corners[1:]):
        dx, dy = x2 - x1, y2 - y1
        if dx == dy == 0:
            fault = f"zero-length segment at corner ({x1},{y1})"
        elif dx and dy and dx != -dy:
            fault = f"segment ({x1},{y1})->({x2},{y2}) does not follow a grid direction"
        if fault or total == cap:
            break
        units.append(((dx > 0) - (dx < 0), (dy > 0) - (dy < 0)))
        steps.append(min(max(abs(dx), abs(dy)), cap - total))
        total += steps[-1]
    u = np.repeat(np.array(units, dtype=np.int64).reshape(-1, 2), steps, axis=0)
    # Where each step starts; from a start off the grid, the first step fails.
    start = corners[0] if g.has_vertex(*corners[0]) else (0, 0)
    p = np.array(start) + np.cumsum(u, axis=0) - u
    ids = g.edge_ids(*p.T, *(p + u).T)
    f = _first_fault(ids)
    if f < len(ids):
        a = corners[0] if f == 0 else tuple(p[f].tolist())
        b = (a[0] + int(u[f, 0]), a[1] + int(u[f, 1]))
        raise ValueError(f"walk reuses edge {g.edge_between(a, b)}")  # raises if off the grid
    if fault:
        raise ValueError(fault)
    return ids


def dumps_cycle(c: Cycle) -> str:
    return dumps_edge_set(c.edge_set)


def write_cycle(path: str | os.PathLike, c: Cycle) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_cycle(c))


def _corners(records: _Records) -> list[tuple[int, int]]:
    """The corners that ``corner_walk_edges`` reads of a walk: the first
    ``num_edges + 2``, and the last if there are more. Fields past int64,
    which only text of another layout holds, are converted by int()."""
    if re.compile(_LONG_FIELD).search(records.text):
        values = list(map(int, records.text.replace("walk", "").split()))
    else:
        values = _fields(records.text, "walk", records.grid.num_edges + 2).ravel().tolist()
    corners = list(zip(values[::2], values[1::2]))
    if records.last:
        corners.append((int(records.last[1]), int(records.last[2])))
    return corners


def loads_cycle(text: str, path: str = "<string>") -> Cycle:
    """The cycle of a cycle file."""
    records = _read(path, text, None)
    g, (first_line, _) = records.grid, records.line(0)
    if records.kind == "edge":
        a = _edge_set(path, records)
        try:
            return validate_cycle(g, a)
        except ValueError as exc:
            raise FileFormatError(path, first_line, str(exc)) from None
    try:
        ids = corner_walk_edges(g, _corners(records))
        return validate_cycle(g, EdgeSet(g, np.bincount(ids, minlength=g.num_edges) > 0))
    except ValueError as exc:
        raise FileFormatError(path, first_line, str(exc)) from None


def read_cycle(path: str | os.PathLike) -> Cycle:
    with open(path, "r", encoding="ascii") as fh:
        return loads_cycle(fh.read(), path=str(path))
