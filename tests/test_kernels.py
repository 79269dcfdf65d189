import time
import tracemalloc
from itertools import chain, islice

import numpy as np
import pytest

from conftest import deadline
from oracles import reference_alive_walk, reference_cycles_from_root, reference_neighbours
from trislither import InvalidParameterError, build_grid, census, enumerate_cycles
from trislither import _kernels
from trislither.evenalg import _int_bits


@pytest.mark.parametrize(
    "n, limits",
    [
        (1, (-1, 1, 2)),
        (2, (-1, 1, 2, 7)),
        (3, (-1, 1, 7, 50)),
        (4, (-1, 1, 7, 333, 1000)),
        (5, (-1, 1, 333, 2001)),
    ],
)
def test_dfs_matches_reference(n, limits):
    """Same rows in the same order as the unpruned DFS, for every root."""
    g = build_grid(n)
    with deadline(15):
        for limit in limits:
            for root in range(g.num_vertices):
                rows = list(islice(_kernels.walk_cycles(g, root), None if limit < 0 else limit))
                expected = reference_cycles_from_root(g, root, limit)
                assert all(type(row) is bytes and len(row) == g.num_edges for row in rows)
                assert len(rows) == expected.shape[0], (limit, root)
                assert b"".join(rows) == expected.tobytes(), (limit, root)


def _all_roots(walk, g):
    return chain.from_iterable(walk(g, root) for root in range(g.num_vertices))


@pytest.mark.parametrize("n, limit", [(6, 4000), (7, 4000), (9, 4000), (48, 2000)])
def test_shared_states_match_the_alive_walk(n, limit):
    """Sharing search states changes no row and no order: the chained
    stream of every root equals the walk that updates its alive set on
    every push."""
    g = build_grid(n)
    with deadline(10):
        got = list(islice(_all_roots(_kernels.walk_cycles, g), limit))
        expected = list(islice(_all_roots(reference_alive_walk, g), limit))
    assert len(got) == limit
    assert got == expected


def test_shared_states_match_the_alive_walk_at_every_root():
    g = build_grid(7)
    with deadline(10):
        for root in range(g.num_vertices):
            got = list(islice(_kernels.walk_cycles(g, root), 500))
            assert got == list(islice(reference_alive_walk(g, root), 500)), root


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cycle_masks_match_the_walks(n):
    """Listing each search state's cycles once, bottom-up, gives the walk's
    rows in the walk's order at every root."""
    g = build_grid(n)
    with deadline(30):
        for root in range(g.num_vertices):
            masks = _kernels.cycle_masks(g, root).tolist()
            got = [_int_bits(m, g.num_edges).tobytes() for m in masks]
            assert got == list(_kernels.walk_cycles(g, root)), root
            assert got == list(reference_alive_walk(g, root)), root


def test_cycle_masks_are_read_only_lanes_up_to_64_bits(monkeypatch):
    """The masks come as a read-only ``<u8`` array, empty at a root with no
    cycles; side 6 fills 63 bits of a lane, and side 7, whose masks would
    pass 64 bits, is refused before anything is listed."""
    g1 = build_grid(1)
    masks = _kernels.cycle_masks(g1, 0)
    assert masks.dtype == np.dtype("<u8") and masks.tolist() == [0b111]
    with pytest.raises(ValueError, match="read-only"):
        masks[0] = 0
    empty = _kernels.cycle_masks(g1, 2)
    assert empty.dtype == np.dtype("<u8") and empty.shape == (0,)
    assert not empty.flags.writeable
    g6 = build_grid(6)
    top = _kernels.cycle_masks(g6, g6.num_vertices - 3)  # the top unit triangle
    assert top.tolist() == [1 << 62 | 1 << 61 | 1 << 60]
    with monkeypatch.context() as m:
        m.setattr(_kernels, "_flood", lambda *args: pytest.fail("listed a cycle"))
        m.setattr(_kernels, "_enter", lambda *args: pytest.fail("listed a cycle"))
        message = "^edge masks past 64 bits fit no lane, got side 7$"
        with pytest.raises(InvalidParameterError, match=message):
            _kernels.cycle_masks(build_grid(7), 0)


def _bit(g, v):
    """Bit of vertex ``v`` in the kernel's padded row layout."""
    x, y = g.vertex_xy[v].tolist()
    return y * (g.n + 2) + x - 1


def _components(nbrs, vertices):
    """Connected components of the subgraph induced by ``vertices`` of the
    graph whose neighbour lists are ``nbrs``."""
    left, count = set(vertices), 0
    while left:
        count += 1
        stack = [left.pop()]
        while stack:
            v = stack.pop()
            for w in nbrs[v]:
                if w in left:
                    left.remove(w)
                    stack.append(w)
    return count


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ring_splits_exactly_when_the_neighbours_fall_apart(n):
    """A vertex is a local cut iff the chosen neighbours, as a subgraph of the
    grid, have two or more components; the ring code holds just those."""
    g = build_grid(n)
    every = [[w for w, _ in inc] for inc in reference_neighbours(g)]
    for v, nbrs in enumerate(every):
        for pick in range(1 << len(nbrs)):
            chosen = [w for k, w in enumerate(nbrs) if pick >> k & 1]
            mask = sum(1 << _bit(g, w) for w in chosen)
            code = _kernels._ring(mask | 1 << _bit(g, v), _bit(g, v), n + 2)
            assert bin(code).count("1") == len(chosen)
            assert _kernels._SPLITS[code] == (_components(every, chosen) >= 2), (v, chosen)


def test_flood_matches_search():
    g = build_grid(4)
    nbrs = [[w for w, _ in inc] for inc in reference_neighbours(g)]
    rng = np.random.default_rng(5)
    for _ in range(300):
        inside = set(np.flatnonzero(rng.random(g.num_vertices) < 0.6).tolist())
        seeds = [v for v in range(g.num_vertices) if rng.random() < 0.15]
        reach, stack = set(), [v for v in seeds if v in inside]
        while stack:
            v = stack.pop()
            if v not in reach:
                reach.add(v)
                stack.extend(w for w in nbrs[v] if w in inside)
        within = sum(1 << _bit(g, v) for v in inside)
        got = _kernels._flood(sum(1 << _bit(g, v) for v in seeds), within, g.n + 1)
        assert got == sum(1 << _bit(g, v) for v in reach)


@pytest.mark.parametrize("n, budget", [(8, 5), (48, 2)])
def test_budgeted_census_past_side_5_is_quick(n, budget):
    """Every vertex the DFS enters lies on a path to a cycle, so a small
    budget ends fast however large the grid (the unpruned DFS ran past 60 s)."""
    g = build_grid(n)
    with deadline(10):
        t0 = time.perf_counter()
        r = census(g, max_cycles=budget)
        elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    assert r.partial and r.total_cycles == budget


def test_unlimited_enumeration_streams():
    """An unlimited enumeration walks only as far as its consumer reads: the
    side-9 grid has far too many cycles to list, yet a slice of its first
    4,000 returns at once."""
    g = build_grid(9)
    with deadline(10):
        t0 = time.perf_counter()
        got = list(islice(enumerate_cycles(g), 0, 4000, 37))
        elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    expected = list(islice(islice(enumerate_cycles(g), 4000), 0, None, 37))
    assert len(got) == len(expected) == 109
    assert [c.edge_set for c in got] == [c.edge_set for c in expected]


def test_roots_near_the_apex_of_a_large_grid_are_cheap():
    """The step lists are built once per grid, not once per root (0.075-0.12 s
    a root at side 256). A vertex has a cycle through vertices above it
    unless it ends its row."""
    g = build_grid(256)
    g.nbr_steps  # built once here
    with deadline(10):
        t0 = time.perf_counter()
        found = [
            int(next(_kernels.walk_cycles(g, root), None) is not None)
            for root in range(g.num_vertices - 20, g.num_vertices)
        ]
        elapsed = time.perf_counter() - t0
    assert elapsed < 0.25
    x, y = g.vertex_xy[-20:].T
    assert found == (x < g.n + 2 - y).astype(int).tolist()


def test_signature_words_pack_two_bits_per_face():
    g = build_grid(3)
    rows = np.frombuffer(b"".join(_kernels.walk_cycles(g, 0)), bool).reshape(-1, g.num_edges)
    words = _kernels.signature_words(rows, g.face_edges_idx)
    for row, packed in zip(rows, words):
        expected = 0
        for f, face in enumerate(g.face_edges_idx):
            expected |= sum(int(row[e]) for e in face) << (2 * f)
        assert int.from_bytes(packed.tobytes(), "little") == expected


def test_signature_words_take_zero_rows():
    g = build_grid(3)
    rows = np.zeros((0, g.num_edges), dtype=bool)
    words = _kernels.signature_words(rows, g.face_edges_idx)
    assert words.shape == (0, (2 * g.num_faces + 7) // 8)
    r = census(g, max_cycles=0)
    assert r.partial and r.total_cycles == 0 and r.multiplicities == {}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mask_signatures_match_the_rows_at_every_root(n):
    """Summing the byte table over a mask gives the bytes that packing its
    row gives."""
    g = build_grid(n)
    for root in range(g.num_vertices):
        masks = _kernels.cycle_masks(g, root).tolist()
        got = _kernels.mask_signatures(np.array(masks, dtype="<u8"), g.mask_signature_table)
        rows = np.array([_int_bits(m, g.num_edges) for m in masks], bool).reshape(-1, g.num_edges)
        assert np.array_equal(got, _kernels.signature_words(rows, g.face_edges_idx)), root


def test_mask_signatures_match_the_rows_at_side_6(g6):
    """Side 6 is the largest side whose 63-edge masks fit 64 bits."""
    walked = b"".join(islice(_all_roots(_kernels.walk_cycles, g6), 5000))
    rows = np.frombuffer(walked, bool).reshape(-1, g6.num_edges)
    # 63 edge bits pack into one 8-byte word per row.
    words = np.packbits(rows, axis=1, bitorder="little").view("<u8").ravel()
    got = _kernels.mask_signatures(words, g6.mask_signature_table)
    assert got.shape == (5000, 9)
    assert np.array_equal(got, _kernels.signature_words(rows, g6.face_edges_idx))


def test_mask_signature_table_is_read_only_and_stops_at_64_bits():
    g = build_grid(6)
    table = g.mask_signature_table
    assert table.shape == (8, 256, 9) and table.dtype == np.uint8
    assert g.mask_signature_table is table
    with pytest.raises(ValueError):
        table[0, 1, 0] = 0
    with deadline(5):
        with pytest.raises(InvalidParameterError, match="^edge masks past 64 bits"):
            build_grid(7).mask_signature_table


def test_whole_census_traces_under_17_mb(g5):
    """A whole side-5 census holds its masks, one signature array, its keys
    and one multiplicity dict, but no cycle rows (with rows and a per-cycle
    dict count it traced 27.8 MiB, with a copy of the dict 17.9 MiB)."""
    g5.nbr_steps, g5.vertex_mask, g5.mask_signature_table  # built before tracing
    tracemalloc.start()
    try:
        r = census(g5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.total_cycles == 128967
    assert peak < 17 * 2**20


def test_budgeted_census_stops_enumerating_at_budget(monkeypatch, g5):
    enumerated = []
    walk = _kernels.walk_cycles

    def counting(*args):
        for row in walk(*args):
            enumerated.append(row)
            yield row

    monkeypatch.setattr(_kernels, "walk_cycles", counting)
    monkeypatch.setattr(_kernels, "cycle_masks", lambda *args: pytest.fail("listed every cycle"))
    r = census(g5, max_cycles=500)
    assert r.partial and r.total_cycles == 500
    assert len(enumerated) <= 501
