import sys
import threading
import tracemalloc
from math import comb

import numpy as np
import pytest

from trislither import (
    Dir,
    Edge,
    EdgeSet,
    Face,
    InvalidEdgeError,
    InvalidInputError,
    InvalidParameterError,
    Side,
    TriGrid,
    Vertex,
    build_grid,
    census,
    enumerate_cycles,
)
from trislither import grid as grid_module
from trislither.fileio import read_cycle, write_cycle

from oracles import reference_edge_index, reference_layout


@pytest.mark.parametrize(
    "n,nv,ne,nf",
    [(1, 3, 3, 1), (3, 10, 18, 9), (5, 21, 45, 25)],
)
def test_count_examples(n, nv, ne, nf):
    g = build_grid(n)
    assert g.num_vertices == nv
    assert g.num_edges == ne
    assert g.num_faces == nf


@pytest.mark.parametrize("n", range(1, 13))
def test_count_formulas(n):
    g = build_grid(n)
    assert g.num_vertices == comb(n + 2, 2)
    assert g.num_edges == 3 * comb(n + 1, 2)
    assert g.num_faces == n * n
    # An up face has its horizontal edge at its bottom, a down face at its top.
    fe = g.face_edges_idx
    y = g.edge_base_y[fe]
    ups = int(np.count_nonzero(y[g.edge_dir[fe] == Dir.E] == y.min(axis=1)))
    downs = g.num_faces - ups
    assert ups == n * (n + 1) // 2
    assert downs == n * (n - 1) // 2


def _faces(n):
    """Every face of the side-n grid: up faces at x + y <= n + 1, down faces at x + y <= n."""
    return [
        Face(Vertex(x, y), up)
        for y in range(1, n + 1) for x in range(1, n + 2 - y) for up in (True, False)
        if up or x + y <= n
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_incidence_consistency(n):
    g = build_grid(n)
    ends = list(zip(g.u_of_edge.tolist(), g.v_of_edge.tolist()))
    incident = [set(row) - {-1} for row in g.nbr_edge.tolist()]
    for v, es in enumerate(incident):
        for e in es:
            assert v in ends[e]
    fe = g.face_edges_idx.tolist()
    for e, (u, v) in enumerate(ends):
        assert e in incident[u] and e in incident[v]
        faces = [f for f, es in enumerate(fe) if e in es]
        assert len(faces) in (1, 2)
        assert len(faces) == g.edge_face_count[e]
    xy = [Vertex(*p) for p in g.vertex_xy.tolist()]
    assert len(_faces(n)) == g.num_faces
    for f in _faces(n):
        es = fe[g.face_index(f)]
        assert len(set(es)) == 3
        corners = set(f.corners)
        for e in es:
            assert {xy[v] for v in ends[e]} <= corners


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 20])
def test_degree_distribution(n):
    g = build_grid(n)
    deg = (g.nbr_edge >= 0).sum(axis=1)
    assert int(deg.sum()) == 2 * g.num_edges
    corners = {Vertex(1, 1), Vertex(n + 1, 1), Vertex(1, n + 1)}
    boundary_vertices = set()
    for s in Side:
        for e in g.side_edge_indices(s):
            boundary_vertices.update(g.edges[e].endpoints)
    for v in g.vertices:
        d = deg[g.vertex_index(v)]
        if v in corners:
            assert d == 2
        elif v in boundary_vertices:
            assert d == 4
        else:
            assert d == 6


def _ids(g, *pairs):
    return [int(g.edge_ids(*a, *b)) for a, b in pairs]


def test_side_edges_examples():
    g3 = build_grid(3)
    assert g3.side_edge_indices(Side.BOTTOM).tolist() == _ids(
        g3, ((1, 1), (2, 1)), ((2, 1), (3, 1)), ((3, 1), (4, 1))
    )
    assert g3.side_edge_indices(Side.RIGHT).tolist() == _ids(
        g3, ((4, 1), (3, 2)), ((3, 2), (2, 3)), ((2, 3), (1, 4))
    )
    g1 = build_grid(1)
    assert g1.side_edge_indices(Side.RIGHT).tolist() == _ids(g1, ((2, 1), (1, 2)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_sides_partition_boundary(n):
    g = build_grid(n)
    side_sets = [set(g.side_edge_indices(s).tolist()) for s in Side]
    for i in range(3):
        assert len(side_sets[i]) == n
        for j in range(i + 1, 3):
            assert not side_sets[i] & side_sets[j]
    boundary = set(np.flatnonzero(g.boundary_edge_mask).tolist())
    assert boundary == side_sets[0] | side_sets[1] | side_sets[2]


def test_reflect_examples(g5):
    perm = g5.reflect_eperm.tolist()
    for a, b in [(((2, 1), (3, 1)), ((4, 1), (5, 1))), (((1, 1), (1, 2)), ((6, 1), (5, 2)))]:
        i, j = _ids(g5, a, b)
        assert perm[i] == j and perm[j] == i
    middle = _ids(g5, ((3, 1), (4, 1)), ((2, 3), (3, 3)), ((1, 5), (2, 5)))
    assert g5.middle_edge_idx.tolist() == middle
    assert [perm[e] for e in middle] == middle


@pytest.mark.parametrize("n", [1, 2, 3, 6, 9])
def test_reflect_is_involution(n):
    g = build_grid(n)
    perm = g.reflect_eperm
    assert np.array_equal(perm[perm], np.arange(g.num_edges))
    assert sorted(perm) == list(range(g.num_edges))
    # The edges the mirror fixes are exactly those its axis crosses.
    assert np.array_equal(np.flatnonzero(perm == np.arange(g.num_edges)), g.middle_edge_idx)


def test_rotate_examples():
    g3 = build_grid(3)
    perm = g3.rotate_eperm
    bottom, left, right = (set(g3.side_edge_indices(s).tolist()) for s in Side)
    assert set(perm[list(bottom)].tolist()) == left
    assert set(perm[list(left)].tolist()) == right
    assert set(perm[list(right)].tolist()) == bottom


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_rotate_order_three(n):
    g = build_grid(n)
    perm = g.rotate_eperm
    assert np.array_equal(perm[perm[perm]], np.arange(g.num_edges))
    # The corners cycle (1,1) -> (1,n+1) -> (n+1,1), and so do their two edges.
    corners = [Vertex(1, 1), Vertex(1, n + 1), Vertex(n + 1, 1)]
    corner_edges = [set(g.nbr_edge[g.vertex_index(v)].tolist()) - {-1} for v in corners]
    for a, b in zip(corner_edges, corner_edges[1:] + corner_edges[:1]):
        assert set(perm[list(a)].tolist()) == b


@pytest.mark.parametrize("n", [*range(1, 13), 40])
def test_edge_maps_agree_with_vertex_maps(n):
    """The image of every edge joins the images of its endpoints."""

    def reflect(x, y):  # the mirror across the vertical axis through the apex
        return n + 3 - x - y, y

    def rotate(x, y):  # the 120-degree turn (1,1) -> (1,n+1) -> (n+1,1)
        return y, n + 3 - x - y

    g = build_grid(n)
    xy = [tuple(p) for p in g.vertex_xy.tolist()]
    ends = list(zip(g.u_of_edge.tolist(), g.v_of_edge.tolist()))
    for perm, vertex_map in ((g.reflect_eperm, reflect), (g.rotate_eperm, rotate)):
        for (u, v), image in zip(ends, perm.tolist()):
            assert {xy[w] for w in ends[image]} == {vertex_map(*xy[u]), vertex_map(*xy[v])}


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_symmetries_are_automorphisms(n):
    g = build_grid(n)
    face_triples = {tuple(sorted(t)) for t in g.face_edges_idx.tolist()}
    for perm in (g.reflect_eperm, g.rotate_eperm):
        assert np.array_equal(np.sort(perm), np.arange(g.num_edges))
        # Finite-face membership counts carry over to the image edge.
        assert np.array_equal(g.edge_face_count[perm], g.edge_face_count)
        for t in g.face_edges_idx:
            assert tuple(sorted(int(perm[e]) for e in t)) in face_triples


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetry_group_has_order_six(n):
    g = build_grid(n)
    ident = tuple(range(g.num_edges))
    r = tuple(int(x) for x in g.rotate_eperm)
    m = tuple(int(x) for x in g.reflect_eperm)

    def compose(p, q):
        return tuple(p[x] for x in q)

    group = {ident}
    frontier = [ident]
    while frontier:
        p = frontier.pop()
        for gen in (r, m):
            q = compose(gen, p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    assert len(group) == 6


def test_build_errors():
    # The side is checked before the cache is asked: True == 1 and 5.0 == 5
    # would find the grid just built.
    for last in (1, 5):
        build_grid(last)
        for bad in (True, 5.0, "5", 0, -1, -3):
            with pytest.raises(InvalidParameterError):
                build_grid(bad)


def _arrays(g):
    """(name, array) for every array a grid holds, its cached ones built first."""
    g.vertices, g.edges, g.vertex_bit, g.nbr_steps, g.sweep_order
    for name, value in vars(g).items():
        if isinstance(value, np.ndarray):
            yield name, value


def _assert_same_grid(g, fresh):
    got, want = dict(_arrays(g)), dict(_arrays(fresh))
    assert got.keys() == want.keys()
    for name, a in got.items():
        assert a.dtype == want[name].dtype and np.array_equal(a, want[name]), name
    assert g.nbr_steps == fresh.nbr_steps
    assert (g.vertices, g.edges) == (fresh.vertices, fresh.edges)


def test_build_grid_shares_the_last_grid():
    assert build_grid(5) is build_grid(5)
    assert build_grid(np.int64(5)) is build_grid(5)
    assert type(build_grid(np.int64(5)).n) is int
    assert TriGrid(5) is not build_grid(5)


@pytest.mark.parametrize("n", [*range(1, 13), 48])
def test_shared_grid_equals_a_fresh_one(n, tmp_path):
    g = build_grid(n)
    census(g, max_cycles=50)
    path = tmp_path / "c.cycle"
    write_cycle(path, next(enumerate_cycles(g)))
    assert read_cycle(path).grid is g
    _assert_same_grid(g, TriGrid(n))


def test_build_grid_keeps_one_grid():
    for n in range(1, 21):
        build_grid(n)
    assert grid_module._last_grid.cache_info().currsize == 1


def test_concurrent_builds_are_correct():
    build_grid(1)  # so that every thread misses the cache
    grids = [None] * 4
    barrier = threading.Barrier(len(grids))

    def build(k):
        barrier.wait(timeout=30)
        grids[k] = build_grid(48)

    threads = [threading.Thread(target=build, args=(k,)) for k in range(len(grids))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    fresh = TriGrid(48)
    for g in grids:
        _assert_same_grid(g, fresh)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_grid_arrays_are_read_only(n):
    """A grid is shared, so a write would change the next caller's grid."""
    arrays = dict(_arrays(build_grid(n)))
    assert {
        "vertex_xy", "nbr_edge", "bottom_edge_idx", "vertex_bit", "sweep_order",
        "edge_base_x", "edge_base_y",
    } <= arrays.keys()
    for name, a in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            a[...] = a


@pytest.mark.parametrize("n", [*range(1, 13), 48])
def test_sweep_order_layout(n):
    # Row y from the bottom has up faces x = 1 .. n+1-y; up face x holds the
    # E and NE edges of (x, y) and the NW edge of (x+1, y).
    index = reference_edge_index(n)
    want = []
    for y in range(1, n + 1):
        xs = range(1, n + 2 - y)
        want += [index[(x, y), (x + 1, y)] for x in xs]
        want += [index[(x, y), (x, y + 1)] for x in xs]
        want += [index[(x + 1, y), (x, y + 1)] for x in xs]
    g = TriGrid(n)
    assert "sweep_order" not in vars(g)  # built on first use, not by every grid
    assert g.sweep_order is g.sweep_order and g.sweep_order.dtype == np.int64
    assert g.sweep_order.tolist() == want
    assert sorted(want) == list(range(g.num_edges))


@pytest.mark.parametrize("n", [*range(1, 13), 48])
def test_neighbour_table_built_on_first_use(n):
    g = TriGrid(n)
    assert "nbr_edge" not in vars(g)  # built on first use, not by every grid
    a = g.nbr_edge
    assert a is g.nbr_edge and a is vars(g)["nbr_edge"]
    assert a.dtype == np.int64 and a.tolist() == reference_layout(n)["nbr_edge"]
    with pytest.raises(ValueError, match="read-only"):
        a[...] = a
    # One table, read by every caller: no neighbour or degree arrays beside it.
    assert not hasattr(g, "nbr") and not hasattr(g, "deg")


def test_neighbour_table_is_built_in_little_more_than_its_own_memory():
    """The table is filled one column at a time: at side 256 the 1.52 MiB
    table traced a 5.63 MiB peak when padded slots, stacked bases and
    their sum were built whole."""
    g = TriGrid(256)
    tracemalloc.start()
    try:
        table = g.nbr_edge
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes == 33153 * 6 * 8
    assert peak < 2 * table.nbytes


@pytest.mark.parametrize("n", [*range(1, 13), 40])
def test_nbr_steps_follow_rising_neighbour_index(n):
    """The walk branches to a vertex's neighbours in rising vertex index, as
    the reference layout's edge ends give them."""
    ref = reference_layout(n)
    xy = ref["vertex_xy"]
    incident = [[] for _ in xy]
    for k, (u, v) in enumerate(zip(ref["u_of_edge"], ref["v_of_edge"])):
        incident[u].append((v, k))
        incident[v].append((u, k))
    want = tuple(
        tuple((w, k, xy[w][1] * (n + 2) + xy[w][0] - 1) for w, k in sorted(inc))
        for inc in incident
    )
    assert TriGrid(n).nbr_steps == want


@pytest.mark.parametrize("n", [*range(1, 13), 48, 256])
def test_symmetry_maps_match_the_edge_lookup(n):
    """The closed-form maps agree with looking up the edge that joins the
    images of both ends, and are built with the grid."""
    g = TriGrid(n)
    assert {"reflect_eperm", "rotate_eperm"} <= vars(g).keys()
    ux, uy = g.edge_base_x, g.edge_base_y
    vx, vy = g.vertex_xy[g.v_of_edge].T
    for perm, vertex_map in (
        (g.reflect_eperm, grid_module._reflect),
        (g.rotate_eperm, grid_module._rotate),
    ):
        want = g.edge_ids(*vertex_map(n, ux, uy), *vertex_map(n, vx, vy))
        assert perm.dtype == np.int64 and np.array_equal(perm, want)
        assert not perm.flags.writeable


@pytest.mark.parametrize("n", [1, 2, 5, 48])
def test_edge_bases(n):
    g = build_grid(n)
    x, y = g.vertex_xy[g.u_of_edge].T
    assert np.array_equal(g.edge_base_x, x) and np.array_equal(g.edge_base_y, y)
    assert g.edge_base_x.dtype == g.edge_base_y.dtype == np.int64


def test_foreign_edge_rejected(g2, g5):
    foreign = g5.edge_between((5, 1), (6, 1))
    with pytest.raises(InvalidEdgeError, match=r"edge \(5,1\)-\(6,1\) is not in the side-2 grid"):
        g2.edge_index(foreign)
    with pytest.raises(InvalidEdgeError):
        g2.edge_between((1, 1), (3, 1))
    no_slot = Edge(Vertex(1, 1), Dir.NW)
    assert g2.edge_ids(1, 1, 0, 2) < 0 and g2.edge_ids(5, 1, 6, 1) < 0
    with pytest.raises(InvalidEdgeError, match=r"edge \(1,1\)-\(0,2\) is not in the side-2 grid"):
        g2.edge_index(no_slot)
    with pytest.raises(InvalidInputError, match=r"vertex \(9,9\) is not in the side-2 grid"):
        g2.vertex_index(Vertex(9, 9))
    with pytest.raises(InvalidInputError, match=r"vertex \(3,2\) is not in the side-2 grid"):
        g2.vertex_index(Vertex(3, 2))
    with pytest.raises(InvalidInputError, match=r"face up@\(9,9\) is not in the side-2 grid"):
        g2.face_index(Face(Vertex(9, 9), True))
    # The up-face at (1, 2) exists; the down-face there would poke out of the grid.
    assert g2.face_index(Face(Vertex(1, 2), True)) == 3
    with pytest.raises(InvalidInputError, match=r"face down@\(1,2\) is not in the side-2 grid"):
        g2.face_index(Face(Vertex(1, 2), False))


@pytest.mark.parametrize(
    "lookup, want",
    [
        (lambda g: g.vertex_index((1, 1)), r"^expected a Vertex, got \(1, 1\)$"),
        (lambda g: g.vertex_index(Face(Vertex(1, 1), True)), r"^expected a Vertex, got up@\(1,1\)$"),
        (lambda g: g.face_index((1, 1)), r"^expected a Face, got \(1, 1\)$"),
        (lambda g: g.face_index(Vertex(1, 1)), r"^expected a Face, got \(1,1\)$"),
    ],
    ids=["vertex-tuple", "vertex-face", "face-tuple", "face-vertex"],
)
def test_index_lookups_refuse_other_types(g2, lookup, want):
    """As ``edge_index`` refuses a non-Edge, ``vertex_index`` and
    ``face_index`` refuse what is no Vertex or Face, not with an
    AttributeError."""
    with pytest.raises(InvalidInputError, match=want):
        lookup(g2)


def test_edge_between_accepts_either_order(g5):
    e = g5.edge_between((3, 2), (2, 3))
    assert e == g5.edge_between((2, 3), (3, 2))
    assert e.dir == Dir.NW
    assert e == Edge(Vertex(3, 2), Dir.NW)


@pytest.mark.parametrize("c", [1.5, 1.0, np.float64(1.0), True, np.bool_(True)])
@pytest.mark.parametrize(
    "error,lookup",
    [
        (InvalidEdgeError, lambda g, c: g.edge_between((c, 1), (2, 1))),
        (InvalidEdgeError, lambda g, c: g.edge_between(Vertex(2, 1), Vertex(c, 1))),
        (InvalidEdgeError, lambda g, c: EdgeSet.from_pairs(g, [((1, 1), (2, 1)), ((c, 1), (2, 1))])),
        (InvalidEdgeError, lambda g, c: g.edge_index(Edge(Vertex(c, 1), Dir.E))),
        (InvalidEdgeError, lambda g, c: g.edge_ids(np.array([c]), 1, 2, 1).tolist()),
        (InvalidInputError, lambda g, c: g.vertex_index(Vertex(c, 1))),
        (InvalidInputError, lambda g, c: g.face_index(Face(Vertex(c, 1), True))),
    ],
)
def test_coordinates_that_are_not_integers_are_refused(g5, c, error, lookup):
    """A float or bool coordinate is refused, not truncated to the integer
    below it or read as 0 or 1; integers of any numpy kind are taken."""
    with pytest.raises(error):
        lookup(g5, c)
    assert lookup(g5, np.int8(1)) == lookup(g5, np.uint64(1)) == lookup(g5, 1)


@pytest.mark.parametrize(
    "lookup",
    [
        lambda g: EdgeSet.from_pairs(g, [(("1", 1), (2, 1))]),
        lambda g: g.edge_index(Edge(Vertex("1", 1), Dir.E)),
        lambda g: g.edge_index(Edge(Vertex(1, "1"), Dir.NE)),
        lambda g: g.edge_between(("1", 1), (2, 1)),
        lambda g: Edge(Vertex("1", 1), Dir.E).other,
        lambda g: Edge(Vertex(1, "1"), Dir.NW).endpoints,
    ],
    ids=["from_pairs", "edge_index-x", "edge_index-y", "edge_between", "other", "endpoints"],
)
def test_a_string_coordinate_is_an_edge_error(g5, lookup):
    with pytest.raises(InvalidEdgeError, match="^vertex coordinates must be integers, got '1'$"):
        lookup(g5)


@pytest.mark.parametrize(
    "error, build",
    [
        (InvalidEdgeError, lambda g: g.edge_index(Edge(Vertex(1, 1), 0))),
        (InvalidEdgeError, lambda g: Edge(Vertex(1, 1), None) in EdgeSet.empty(g)),
        (InvalidEdgeError, lambda g: repr(Edge(Vertex(1, 1), 0))),
        (InvalidEdgeError, lambda g: Edge((1, 1), Dir.E)),
        (InvalidEdgeError, lambda g: EdgeSet.from_edges(g, [Vertex(1, 1)])),
        (InvalidInputError, lambda g: Face(Vertex("1", 1), True).corners),
        (InvalidInputError, lambda g: Face((1, 1), True)),
        (InvalidInputError, lambda g: Face(Vertex(1, 1), 1)),
    ],
    ids=["int-dir", "none-dir", "repr", "tuple-base", "vertex-as-edge", "str-anchor",
         "tuple-anchor", "int-up"],
)
def test_malformed_edges_and_faces_are_refused_when_built(g5, error, build):
    with pytest.raises(error):
        build(g5)


def test_face_errors_show_the_anchor_coordinates():
    with pytest.raises(InvalidInputError, match=r"^face anchor coordinates must be integers, "
                                                r"got \('1',1\)$"):
        Face(Vertex("1", 1), True)


@pytest.mark.parametrize("n", [1, 2, 5, 48])
def test_edge_index_inverts_the_edge_order(n):
    g = build_grid(n)
    assert [g.edge_index(e) for e in g.edges] == list(range(g.num_edges))
    # Integers of any kind and size, on the grid or off it.
    assert g.edge_index(Edge(Vertex(np.uint64(1), np.int8(1)), Dir.NE)) == 1
    for base, d in (((n + 1, 1), Dir.E), ((1, 1), Dir.NW), ((0, 1), Dir.E),
                    ((10**30, 1), Dir.E), ((1, -(10**30)), Dir.NE), ((1, n + 1), Dir.NE)):
        with pytest.raises(InvalidEdgeError, match="is not in the side-"):
            g.edge_index(Edge(Vertex(*base), d))


# An overflow warning would reach a user's stderr.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_edge_ids_match_edge_between(n):
    g = build_grid(n)
    coords = range(-1, n + 4)
    pairs = [
        (ax, ay, ax + dx, ay + dy)
        for ax in coords for ay in coords for dx in range(-2, 3) for dy in range(-2, 3)
    ]
    # Pairs whose int64 differences would wrap around, and pairs past int64.
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    ends = [-(10**30), lo, lo + 1, -1, 1, 2, hi - 1, hi, 10**30]
    pairs += [(a, 1, b, 1) for a in ends for b in ends] + [(1, a, 1, b) for a in ends for b in ends]
    index = reference_edge_index(n)
    got = g.edge_ids(*np.array(pairs, dtype=object).T)
    assert got.dtype == np.int64
    for (ax, ay, bx, by), i in zip(pairs, got.tolist()):
        want = index.get(((ax, ay), (bx, by)), -1)
        assert i == want, (ax, ay, bx, by)
        assert g.edge_ids(ax, ay, bx, by) == want
        if want < 0:
            message = rf"^\({ax},{ay}\) and \({bx},{by}\) are not adjacent in the side-{n} grid$"
            with pytest.raises(InvalidEdgeError, match=message):
                g.edge_between((ax, ay), (bx, by))
        else:
            assert g.edge_between(Vertex(ax, ay), (bx, by)) == g.edges[want]


@pytest.mark.parametrize("n", [*range(1, 13), 40])
def test_layout_matches_reference(n):
    g = build_grid(n)
    ref = reference_layout(n)
    for name, want in ref.items():
        got = getattr(g, name)
        assert got.dtype == (bool if name == "boundary_edge_mask" else np.int64), name
        assert got.tolist() == want, name
    xy = ref["vertex_xy"]
    for e, u, v in zip(g.edges, ref["u_of_edge"], ref["v_of_edge"]):
        assert e.endpoints == (Vertex(*xy[u]), Vertex(*xy[v]))
