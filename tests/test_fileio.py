import pytest

from trislither import EdgeSet, FileFormatError, basis_subset, build_grid
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
        ("n 0\n", "outside"),
        ("n 2\nn 3\n", "duplicate n"),
        ("n 2\nedge 1 1\n", "expected 4 integers"),
        ("n 2\nedge 1 1 2 a\n", "non-integer"),
        ("n 2\nedge 1 1 3 1\n", "not adjacent"),
        ("n 2\nedge 1 1 2 1\nedge 2 1 1 1\n", "duplicate edge"),
        ("n 2\nblob 1 1\n", "unexpected record"),
        ("", "missing n"),
    ],
)
def test_edge_set_parse_errors(text, fragment):
    with pytest.raises(FileFormatError) as exc:
        loads_edge_set(text)
    assert fragment in str(exc.value)


def test_cycle_roundtrip(tmp_path, g5):
    c = cycle_from_walk(g5, T5_WALK_A)
    path = tmp_path / "c.cycle"
    write_cycle(path, c)
    assert read_cycle(path).edge_set == c.edge_set


def test_cycle_from_walk_lines(g5):
    lines = ["n 5"] + [f"walk {x} {y}" for x, y in T5_WALK_A]
    c = loads_cycle("\n".join(lines) + "\n")
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


def test_cycle_file_must_be_one_form():
    text = "n 5\nwalk 1 1\nedge 1 1 2 1\n"
    with pytest.raises(FileFormatError) as exc:
        loads_cycle(text)
    assert "only edge lines or only walk lines" in str(exc.value)


def test_cycle_file_rejects_non_cycles():
    with pytest.raises(FileFormatError) as exc:
        loads_cycle("n 2\nedge 1 1 2 1\n")
    assert "odd-degree" in str(exc.value)


def test_corner_walk_multi_unit_segments(g5):
    edges = corner_walk_edges(g5, [(1, 1), (4, 1), (1, 4), (1, 1)])
    assert len(edges) == 9


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
