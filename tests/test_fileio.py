import functools
import random
import time

import numpy as np
import pytest

from trislither import EdgeSet, FileFormatError, basis_subset, build_grid, enumerate_cycles
from trislither.fileio import (
    corner_walk_edges,
    dumps_cycle,
    dumps_edge_set,
    loads_cycle,
    loads_edge_set,
    read_cycle,
    read_edge_set,
    write_cycle,
    write_edge_set,
)

from conftest import deadline
from oracles import reference_corner_walk_edges, reference_loads_cycle, reference_loads_edge_set
from refcycles import T5_WALK_A, cycle_from_walk


def test_edge_set_roundtrip(tmp_path, g5):
    a = basis_subset(g5, 2)
    path = tmp_path / "a.edges"
    write_edge_set(path, a)
    assert read_edge_set(path) == a


def test_canonical_save_is_stable(g5):
    a = basis_subset(g5, 1)
    text = dumps_edge_set(a)
    assert dumps_edge_set(loads_edge_set(text)) == text
    assert text.endswith("\n")


def test_empty_edge_set_roundtrip(g3):
    text = dumps_edge_set(EdgeSet.empty(g3))
    assert text == "n 3\n"
    assert loads_edge_set(text) == EdgeSet.empty(build_grid(3))


def test_comments_and_blank_lines_ignored():
    text = "# comment\n\nn 2\nedge 1 1 2 1\n"
    a = loads_edge_set(text)
    assert len(a) == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("edge 1 1 2 1\n", "declare n"),
        ("n x\n", "malformed n"),
        ("n \u00b2\n", "malformed n"),
        ("n \uff15\nedge 1 1 2 1\n", "<string>:1: malformed n line: 'n \uff15'"),
        ("n 0\n", "outside"),
        ("n 2\nn 3\n", "duplicate n"),
        ("n 2\nedge 1 1\n", "expected 4 integers"),
        ("n 2\nedge 1 1 2 a\n", "non-integer"),
        ("n 2\nedge 1 1 3 1\n", "not adjacent"),
        ("n 2\nedge 1 1 2 1\nedge 2 1 1 1\n", "duplicate edge"),
        ("n 2\nblob 1 1\n", "unexpected record"),
        ("", "missing n"),
        # Of several faults, the one on the earliest line is reported.
        ("n 2\nedge 1 1 3 1\nedge 1 1 2 a\n", "<string>:2: (1,1) and (3,1) are not adjacent"),
        ("n 2\nedge 1 1 2 a\nedge 1 1 3 1\n", "<string>:2: non-integer"),
        ("n 2\nblob\nedge 9 9 9 9\n", "<string>:2: unexpected record 'blob'"),
        ("n 2\nedge 1 1 2 1\nedge 1 1\nedge 1 1 2 1\n", "<string>:3: expected 4 integers"),
        ("n 2\nedge 9 9 9 9\nedge 1 1 2 1\nedge 1 1 2 1\n", "<string>:2: (9,9) and (9,9)"),
        ("n 2\nedge 1 1 2 1\nedge 2 1 1 1\nedge 9 9 9 9\n", "<string>:3: duplicate edge (1,1)-"),
        ("n 2\nedge 1 1 2 1\nedge 1 1 1 2\nedge 2 1 1 1\nblob\n", "<string>:4: duplicate edge"),
        ("n 2\nedge 1 1 2 a\nn 2\n", "<string>:3: duplicate n line"),
        # Fields are plain ASCII integers.
        ("n 2\nedge 1_0 1 2 1\n", "<string>:2: non-integer field: 'edge 1_0 1 2 1'"),
        ("n 2\nedge +1 1 2 1\n", "<string>:2: non-integer field"),
        ("n 2\nedge \u0661 1 2 1\n", "<string>:2: non-integer field"),
        ("n 2\nedge 1 1 2 1.0\n", "<string>:2: non-integer field"),
        ("n 2\nedge 99999999999999999999 1 2 1\n", "(99999999999999999999,1) and (2,1) are not"),
        # Values at the ends of int64 are off the grid; no difference overflows.
        ("n 2\nedge 1 1 -9223372036854775807 1\n", "(1,1) and (-9223372036854775807,1) are not"),
        ("n 2\nedge 0 1 -9223372036854775808 1\n", "(0,1) and (-9223372036854775808,1) are not"),
        ("n 2\nedge 9223372036854775807 1 1 1\n", "(9223372036854775807,1) and (1,1) are not"),
    ],
)
def test_edge_set_parse_errors(text, fragment):
    with pytest.raises(FileFormatError) as exc:
        loads_edge_set(text)
    assert fragment in str(exc.value)


_LONG = "1" * 5000  # more digits than int() converts by default (4300)


@pytest.mark.parametrize(
    "loads, text, fragment",
    [
        (loads_edge_set, f"n 5\nedge 1 1 {_LONG} 1\n", "<string>:2: integer field too long: 5000 digits"),
        (loads_edge_set, f"n 5\nedge 1 1 2 1\nedge 1 1 -{_LONG} 1\nblob\n", "<string>:3: integer field too long"),
        (loads_edge_set, f"n 5\nedge 1 1 3 1\nedge 1 1 {_LONG} 1\n", "<string>:2: (1,1) and (3,1) are not adjacent"),
        (loads_cycle, f"n 5\nedge 1 1 {_LONG} 1\n", "<string>:2: integer field too long: 5000 digits"),
        (loads_cycle, f"n 5\nwalk 1 1\nwalk {_LONG} 1\nwalk 1 1\n", "<string>:3: integer field too long: 5000 digits"),
        (loads_cycle, f"n 5\nwalk 1 1\nwalk 1 -{_LONG}\nwalk 1 1\nwalk 1\n", "<string>:3: integer field too long"),
        (loads_cycle, f"n 5\nwalk 1 1\nwalk 1 1 1\nwalk {_LONG} 1\n", "<string>:3: expected 2 integers"),
        (loads_edge_set, f"n {_LONG}\nedge 1 1 2 1\n", f"<string>:1: grid side {_LONG} is outside 1..256"),
        (loads_cycle, f"n 0{_LONG}\nwalk 1 1\n", f"<string>:1: grid side {_LONG} is outside 1..256"),
    ],
    ids=["edge", "edge-then-blob", "earlier-edge-fault", "cycle-edge", "walk", "walk-then-short",
         "short-walk-first", "side", "zero-padded-side"],
)
def test_fields_past_the_int_digit_limit(loads, text, fragment):
    """A field with more digits than int() converts is a format error at its
    line, not Python's digit-limit ValueError."""
    with pytest.raises(FileFormatError) as exc:
        loads(text)
    assert fragment in str(exc.value)


def test_long_zero_padded_fields_keep_their_value():
    pad = "0" * 5000
    assert loads_edge_set(f"n {pad}2\nedge 1 1 {pad}2 1\n") == loads_edge_set("n 2\nedge 1 1 2 1\n")
    with pytest.raises(FileFormatError) as exc:
        loads_edge_set(f"n 2\nedge 1 1 2 1\nedge 1 1 {pad}2 1\n")
    assert "<string>:3: integer field too long: 5001 digits" in str(exc.value)


def test_cycle_roundtrip(tmp_path, g5):
    c = cycle_from_walk(g5, T5_WALK_A)
    path = tmp_path / "c.cycle"
    write_cycle(path, c)
    assert read_cycle(path).edge_set == c.edge_set


def _walk_text(n, walk) -> str:
    return "".join([f"n {n}\n"] + [f"walk {x} {y}\n" for x, y in walk])


def test_cycle_from_walk_lines(g5):
    c = loads_cycle(_walk_text(5, T5_WALK_A))
    assert c.edge_set == cycle_from_walk(g5, T5_WALK_A).edge_set


def test_cycle_walk_errors():
    base = ["n 5", "walk 1 1", "walk 3 1", "walk 3 2"]
    with pytest.raises(FileFormatError) as exc:
        loads_cycle("\n".join(base) + "\n")
    assert "closed" in str(exc.value)

    diag = ["n 5", "walk 1 1", "walk 2 2", "walk 1 1"]
    with pytest.raises(FileFormatError) as exc:
        loads_cycle("\n".join(diag) + "\n")
    assert "grid direction" in str(exc.value)

    reuse = ["n 5", "walk 1 1", "walk 2 1", "walk 1 1"]
    with pytest.raises(FileFormatError) as exc:
        loads_cycle("\n".join(reuse) + "\n")
    assert "reuses edge" in str(exc.value)


@pytest.mark.parametrize("field", ["+1", "1_0", "\u0661", "0x1"])
def test_walk_fields_are_plain_integers(field):
    text = f"n 5\nwalk 1 1\nwalk 2 1\nwalk {field} 2\nwalk 1 1\n"
    with pytest.raises(FileFormatError) as exc:
        loads_cycle(text)
    assert f"<string>:4: non-integer field: 'walk {field} 2'" in str(exc.value)


def test_leading_zeros_and_minus_zero_are_integers():
    assert loads_edge_set("n 2\nedge 001 1 2 01\n") == loads_edge_set("n 2\nedge 1 1 2 1\n")
    with pytest.raises(FileFormatError) as exc:
        loads_edge_set("n 2\nedge -0 1 1 1\n")
    assert "(0,1) and (1,1) are not adjacent" in str(exc.value)


def test_cycle_file_must_be_one_form():
    text = "n 5\nwalk 1 1\nedge 1 1 2 1\n"
    with pytest.raises(FileFormatError) as exc:
        loads_cycle(text)
    assert "only edge lines or only walk lines" in str(exc.value)


def test_header_only_cycle_file():
    with pytest.raises(FileFormatError) as exc:
        loads_cycle("n 5\n# note\n")
    assert str(exc.value) == "<string>:0: cycle file has no edge or walk records"


def test_cycle_file_rejects_non_cycles():
    with pytest.raises(FileFormatError) as exc:
        loads_cycle("n 2\nedge 1 1 2 1\n")
    assert "odd-degree" in str(exc.value)


def test_corner_walk_multi_unit_segments(g5):
    walk = [(1, 1), (4, 1), (1, 4), (1, 1)]
    ids = corner_walk_edges(g5, walk)
    assert len(ids) == 9
    assert [g5.edges[i] for i in ids] == reference_corner_walk_edges(g5, walk)


@pytest.mark.parametrize(
    "walk,message",
    [
        # A segment of 10^12 steps fails at its first step off the grid.
        ([(1, 1), (10**12, 1), (1, 1)], "(6,1) and (7,1) are not adjacent in the side-5 grid"),
        ([(10**30, 1), (1, 1), (10**30, 1)], f"({10**30},1) and ({10**30 - 1},1) are not"),
        ([(1, -(10**30)), (1, 1), (1, -(10**30))], f"(1,{-(10**30)}) and (1,{1 - 10**30}) are"),
        ([(1, 1), (1, 3), (1, 1)], "walk reuses edge (1,2)-(1,3)"),
        # The earliest fault in walk order wins.
        ([(1, 1), (3, 1), (3, 1), (9, 9), (1, 1)], "zero-length segment at corner (3,1)"),
        ([(1, 1), (3, 1), (1, 1), (2, 2), (1, 1)], "walk reuses edge (2,1)-(3,1)"),
        ([(1, 1), (2, 2), (1, 1), (1, 1)], "segment (1,1)->(2,2) does not follow"),
        ([(1, 1), (2, 1)], "corner walk must be closed"),
    ],
)
def test_corner_walk_faults(g5, walk, message):
    t0 = time.perf_counter()
    with pytest.raises(ValueError) as exc:
        corner_walk_edges(g5, walk)
    assert time.perf_counter() - t0 < 1.0
    assert message in str(exc.value)
    with pytest.raises(ValueError) as ref:
        reference_corner_walk_edges(g5, walk)
    assert str(exc.value) == str(ref.value)


@pytest.mark.parametrize("form", ["edge", "walk"])
def test_cycle_reader_passes_program_errors_through(monkeypatch, g5, form):
    from trislither import fileio

    def broken(g, a):
        raise IndexError("injected")

    monkeypatch.setattr(fileio, "validate_cycle", broken)
    c = cycle_from_walk(g5, T5_WALK_A)
    text = dumps_cycle(c) if form == "edge" else _walk_text(5, T5_WALK_A)
    with pytest.raises(IndexError, match="injected"):
        loads_cycle(text)


def test_cycle_dump_is_edge_form(g5):
    c = cycle_from_walk(g5, T5_WALK_A)
    text = dumps_cycle(c)
    assert text.splitlines()[0] == "n 5"
    assert all(line.startswith("edge ") for line in text.splitlines()[1:])


def test_oversized_side_rejected_before_grid_build(monkeypatch):
    from trislither import fileio

    def no_build(n):
        raise AssertionError(f"built a side-{n} grid")

    monkeypatch.setattr(fileio, "build_grid", no_build)
    for loads in (loads_edge_set, loads_cycle):
        with pytest.raises(FileFormatError) as exc:
            loads(f"n {fileio.MAX_SIDE + 1}\nedge 1 1 2 1\n")
        assert "outside" in str(exc.value)


def test_edge_form_cycle_builds_one_grid(monkeypatch, g5):
    from trislither import fileio

    built = []
    build = fileio.build_grid
    monkeypatch.setattr(fileio, "build_grid", lambda n: built.append(n) or build(n))
    c = cycle_from_walk(g5, T5_WALK_A)
    assert loads_cycle(dumps_cycle(c)).edge_set == c.edge_set
    assert built == [5]


# -- the array reader against the line-by-line reference -----------------------

_JUNK = ["a", "2.5", "+1", "1_0", "\u0661", "0x1", "-", "--1", "1-", "1e3", "\uff11"]
_OFF_GRID = [
    "0", "-1", "-0", "9", "007", "99999999999999999999999", "-99999999999999999999999",
    "9223372036854775807", "-9223372036854775807", "-9223372036854775808",
]


def _edge_lines(rng, g) -> list[str]:
    """The edge records of a random subset of ``g``, in random order, each
    pair in either order."""
    idx = rng.sample(range(g.num_edges), rng.randint(0, g.num_edges))
    lines = []
    for i in idx:
        ends = [g.vertex_xy[g.u_of_edge[i]].tolist(), g.vertex_xy[g.v_of_edge[i]].tolist()]
        rng.shuffle(ends)
        lines.append("edge {} {} {} {}".format(*ends[0], *ends[1]))
    return lines


def _mutate(rng, lines: list[str], kind: str) -> None:
    """Apply one random fault, or one harmless change, in place."""
    k = rng.randrange(len(lines) + 1)
    choice = rng.randrange(11)
    if choice == 0:
        lines.insert(k, rng.choice(["", "   ", "# note", "\t# edge 1 1 2 1"]))
    elif choice == 1:
        lines.insert(k, rng.choice(["n 3", "n 2", "n x", "n"]))
    elif choice == 2 and lines:
        lines.insert(k, rng.choice(lines[: k or 1]))  # a repeat, mostly of an earlier line
    elif k == len(lines) or not lines[k].split():  # past the end, or a blank line
        lines.insert(k, f"{kind} 1 1 2 1")
    else:
        parts = lines[k].split()
        if choice == 3:
            parts[0] = rng.choice(["face", "Edge", "walk", "edge", "edges", "blob"])
        elif choice == 4 and len(parts) > 1:
            del parts[rng.randrange(1, len(parts))]
        elif choice == 5:
            parts.insert(rng.randrange(1, len(parts) + 1), "1")
        elif choice in (6, 7) and len(parts) > 1:
            parts[rng.randrange(1, len(parts))] = rng.choice(_JUNK)
        elif len(parts) > 1:
            parts[rng.randrange(1, len(parts))] = rng.choice(_OFF_GRID)
        lines[k] = rng.choice([" ", "\t", "  "]).join(parts)


def _outcome(load, text):
    try:
        a = load(text)
    except FileFormatError as exc:
        return str(exc)
    a = getattr(a, "edge_set", a)
    return a.grid.n, a.bits.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_edge_set_reader_matches_reference(seed):
    rng = random.Random(seed)
    for _ in range(150):
        g = build_grid(rng.randint(1, 6))
        lines = [f"n {g.n}"] + _edge_lines(rng, g)
        for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
            _mutate(rng, lines, "edge")
        text = "\n".join(lines) + rng.choice(["\n", "", "\r\n"])
        assert _outcome(loads_edge_set, text) == _outcome(reference_loads_edge_set, text), text


@pytest.mark.parametrize("seed", range(2))
def test_cycle_reader_matches_reference(seed):
    rng = random.Random(seed)
    g = build_grid(5)
    walk_lines = [f"walk {x} {y}" for x, y in T5_WALK_A]
    edge_lines = dumps_edge_set(cycle_from_walk(g, T5_WALK_A).edge_set).splitlines()[1:]
    for _ in range(150):
        kind = rng.choice(["walk", "edge"])
        lines = ["n 5"] + list(walk_lines if kind == "walk" else edge_lines)
        for _ in range(rng.choice([0, 1, 1, 2])):
            _mutate(rng, lines, kind)
        text = "\n".join(lines) + "\n"
        assert _outcome(loads_cycle, text) == _outcome(reference_loads_cycle, text), text


@functools.cache
def _cycle_walks(n: int) -> list[list[tuple[int, int]]]:
    """Every simple cycle of the side-n grid as a closed corner walk from
    its lowest vertex, one corner where the direction changes."""
    g = build_grid(n)
    walks = []
    for c in enumerate_cycles(g):
        nbrs = {}
        for e in np.flatnonzero(c.edge_set.bits).tolist():
            u, v = int(g.u_of_edge[e]), int(g.v_of_edge[e])
            nbrs.setdefault(u, []).append(v)
            nbrs.setdefault(v, []).append(u)
        order = [min(nbrs), nbrs[min(nbrs)][0]]
        while order[-1] != order[0]:
            a, b = nbrs[order[-1]]
            order.append(b if a == order[-2] else a)
        xy = [tuple(g.vertex_xy[v].tolist()) for v in order]

        def step(k):
            return xy[k + 1][0] - xy[k][0], xy[k + 1][1] - xy[k][1]

        turns = [k for k in range(1, len(xy) - 1) if step(k - 1) != step(k)]
        walks.append([xy[0]] + [xy[k] for k in turns] + [xy[0]])
    return walks


_FAR = [10**12, -(10**12), 99999999999999999999, -12345678901234567890, 10**30]


def _mutate_walk(rng, corners: list) -> None:
    """Apply one random walk fault, or one harmless change, in place to the
    corners of a closed walk, its closing corner left off."""
    k = rng.randrange(len(corners))
    x, y = corners[k]
    choice = rng.randrange(7)
    if choice == 0:
        corners.insert(k, (x, y))  # a zero-length segment
    elif choice == 1 and len(corners) > 1:
        del corners[k]  # often a segment off the grid directions
    elif choice == 2:
        dx, dy = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1), (-1, 1), (1, -1)])
        corners[k + 1:k + 1] = [(x + dx, y + dy), (x, y)]  # there and back: a reused edge
    elif choice == 3:
        # Stretch a segment far along its direction.
        nx, ny = corners[(k + 1) % len(corners)]
        dx, dy = nx - x, ny - y
        far = rng.choice(_FAR) // max(abs(dx), abs(dy), 1)
        corners[k + 1:k + 1] = [(x + far * dx, y + far * dy)]
    elif choice == 4:
        corners[k] = rng.choice([(rng.choice(_FAR), y), (x, rng.choice(_FAR))])
    elif choice == 5:
        corners[k] = (x + rng.randint(-2, 2), y + rng.randint(-2, 2))
    else:
        corners[:] = corners[k:] + corners[:k]  # start from another corner


def _walk_outcome(walk_edges, g, walk):
    try:
        edges = walk_edges(g, walk)
    except ValueError as exc:
        return type(exc), str(exc)
    return [g.edges[e] if isinstance(e, (int, np.integer)) else e for e in edges]


@pytest.mark.parametrize("seed", range(4))
def test_walk_reader_matches_reference(seed):
    rng = random.Random(seed)
    for _ in range(200):
        n = rng.choice([1, 2, 3, 3, 4, 4])
        g = build_grid(n)
        corners = rng.choice(_cycle_walks(n))[:-1]
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            _mutate_walk(rng, corners)
        walk = corners + corners[:1] if rng.random() < 0.9 else corners  # now and then open
        want = _walk_outcome(reference_corner_walk_edges, g, walk)
        assert _walk_outcome(corner_walk_edges, g, walk) == want, walk
        lines = _walk_text(n, walk).splitlines()
        if rng.random() < 0.3:
            _mutate(rng, lines, "walk")
        text = "\n".join(lines) + "\n"
        assert _outcome(loads_cycle, text) == _outcome(reference_loads_cycle, text), text


# -- the whole-text pass ------------------------------------------------------

_EDIT_CHARS = "0123456789 \t-#en\n\r"


def _edit(rng, text: str) -> str:
    """``text`` with one character inserted, deleted or substituted."""
    k = rng.randrange(len(text) + 1)
    c = rng.choice(_EDIT_CHARS)
    return rng.choice([text[:k] + c + text[k:], text[:k] + text[k + 1:], text[:k] + c + text[k + 1:]])


@pytest.mark.parametrize("n", [*range(1, 13), 48])
def test_single_character_edits_match_reference(n):
    """The writer's output with one character inserted, deleted or
    substituted is read as the references read it, whether it stays in the
    writer's layout or not: the same set or cycle, or the same error at the
    same line."""
    rng = random.Random(n)
    g = build_grid(n)
    subset = EdgeSet(g, np.array([rng.random() < 0.5 for _ in range(g.num_edges)]))
    walk = [(1, 1), (n + 1, 1), (1, n + 1), (1, 1)]
    forms = [
        (loads_edge_set, reference_loads_edge_set, dumps_edge_set(subset)),
        (loads_cycle, reference_loads_cycle, dumps_cycle(cycle_from_walk(g, walk))),
        (loads_cycle, reference_loads_cycle, _walk_text(n, walk)),
    ]
    for load, reference, text in forms:
        for _ in range(40):
            edited = _edit(rng, text)
            assert _outcome(load, edited) == _outcome(reference, edited), edited


def test_writer_layout_skips_the_line_split(monkeypatch, g5):
    """Text in the writer's layout, faulty or not, is read without
    splitting it into lines."""
    from trislither import fileio

    def no_split(path, text, kind):
        raise AssertionError("the text was split into lines")

    monkeypatch.setattr(fileio, "_line_records", no_split)
    for n in (2, 5, 48):
        a = basis_subset(build_grid(n), n // 2)
        assert loads_edge_set(dumps_edge_set(a)) == a
    assert loads_edge_set("n 3\n") == EdgeSet.empty(build_grid(3))
    c = cycle_from_walk(g5, T5_WALK_A)
    assert loads_cycle(dumps_cycle(c)).edge_set == c.edge_set
    assert loads_cycle(_walk_text(5, T5_WALK_A)).edge_set == c.edge_set
    for load, text, message in [
        (loads_edge_set, "n 5\nedge 1 1 2 1\nedge 2 1 1 1\n", "<string>:3: duplicate edge (1,1)-(2,1)"),
        (loads_edge_set, "n 5\nedge 1 1 -3 1\n", "<string>:2: (1,1) and (-3,1) are not adjacent"),
        (loads_edge_set, "n 300\nedge 1 1 2 1\n", "<string>:1: grid side 300 is outside 1..256"),
        (loads_cycle, "n 5\n", "<string>:0: cycle file has no edge or walk records"),
        (loads_cycle, "n 5\nwalk 1 1\nwalk 2 2\nwalk 1 1\n", "<string>:2: segment (1,1)->(2,2) does not"),
    ]:
        with pytest.raises(FileFormatError) as exc:
            load(text)
        assert str(exc.value).startswith(message)


@pytest.mark.parametrize(
    "load, record, message",
    [
        (loads_edge_set, "edge 1 1 2 1", "<string>:3: duplicate edge (1,1)-(2,1)"),
        (loads_edge_set, "edge\t1 1 2 1", "<string>:3: duplicate edge (1,1)-(2,1)"),
        (loads_cycle, "walk 1 1", "<string>:2: zero-length segment at corner (1,1)"),
    ],
    ids=["edge", "edge-after-tab", "walk"],
)
def test_a_million_repeated_records_fail_fast(load, record, message):
    """A file of a million repeated records is refused at its first fault
    within 2 s: no more than num_edges + 2 records are split or converted."""
    text = "n 5\n" + f"{record}\n" * 1_000_000
    with deadline(2), pytest.raises(FileFormatError) as exc:
        load(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("space", [" ", "\t"])
@pytest.mark.parametrize(
    "load, reference, record, tail",
    [
        (loads_edge_set, reference_loads_edge_set, "edge 1 1 2 1", "n 2"),
        (loads_edge_set, reference_loads_edge_set, "edge 1 1 2 1", "edge 1 1"),
        (loads_cycle, reference_loads_cycle, "edge 1 1 2 1", "walk 1 1"),
        (loads_cycle, reference_loads_cycle, "edge 1 1 2 1", "n 2"),
        (loads_cycle, reference_loads_cycle, "walk 1 1", "walk 1 x"),
        (loads_cycle, reference_loads_cycle, "walk 1 1", "edge 1 1 2 1"),
        (loads_cycle, reference_loads_cycle, "walk 1 1", "walk 2 1"),
        (loads_cycle, reference_loads_cycle, "walk 1 1", "walk 1 1\n# end"),
    ],
)
def test_faults_past_the_record_limit(space, load, reference, record, tail):
    """A second n line, a record of another kind, a malformed walk record
    and a walk's last corner count wherever they are, also after the first
    num_edges + 2 records (11 on the side-2 grid)."""
    text = "n 2\n" + f"{record}\n" * 30 + tail + "\n"
    text = text.replace(" ", space)
    assert _outcome(load, text) == _outcome(reference, text)


def test_a_too_long_walk_field_past_the_record_limit():
    text = "n 2\n" + "walk 1 1\n" * 30 + f"walk 1 {_LONG}\nwalk 1\n"
    with pytest.raises(FileFormatError) as exc:
        loads_cycle(text)
    assert str(exc.value) == "<string>:32: integer field too long: 5000 digits"
