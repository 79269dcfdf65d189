from math import comb

import numpy as np
import pytest

from trislither import (
    Dir,
    Edge,
    Face,
    InvalidEdgeError,
    InvalidInputError,
    InvalidParameterError,
    Side,
    Vertex,
    build_grid,
)

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
    ups = sum(1 for f in g.faces if f.up)
    downs = g.num_faces - ups
    assert ups == n * (n + 1) // 2
    assert downs == n * (n - 1) // 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_incidence_consistency(n):
    g = build_grid(n)
    for v in g.vertices:
        for e in g.vertex_edges(v):
            assert v in e.endpoints
    for e in g.edges:
        u, v = e.endpoints
        assert e in g.vertex_edges(u) and e in g.vertex_edges(v)
        faces = g.edge_faces(e)
        assert len(faces) in (1, 2)
        for f in faces:
            assert e in g.face_edges(f)
    for f in g.faces:
        es = g.face_edges(f)
        assert len(set(es)) == 3
        corners = set(f.corners)
        for e in es:
            assert set(e.endpoints) <= corners


@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 20])
def test_degree_distribution(n):
    g = build_grid(n)
    assert int(g.deg.sum()) == 2 * g.num_edges
    corners = {Vertex(1, 1), Vertex(n + 1, 1), Vertex(1, n + 1)}
    boundary_vertices = set()
    for s in Side:
        for e in g.side_edges(s):
            boundary_vertices.update(e.endpoints)
    for v in g.vertices:
        d = g.deg[g.vertex_index(v)]
        if v in corners:
            assert d == 2
        elif v in boundary_vertices:
            assert d == 4
        else:
            assert d == 6


def test_side_edges_examples():
    g3 = build_grid(3)
    assert g3.side_edges(Side.BOTTOM) == [
        g3.edge_between((1, 1), (2, 1)),
        g3.edge_between((2, 1), (3, 1)),
        g3.edge_between((3, 1), (4, 1)),
    ]
    assert g3.side_edges(Side.RIGHT) == [
        g3.edge_between((4, 1), (3, 2)),
        g3.edge_between((3, 2), (2, 3)),
        g3.edge_between((2, 3), (1, 4)),
    ]
    g1 = build_grid(1)
    assert g1.side_edges(Side.RIGHT) == [g1.edge_between((2, 1), (1, 2))]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
def test_sides_partition_boundary(n):
    g = build_grid(n)
    side_sets = [set(g.side_edges(s)) for s in Side]
    for i in range(3):
        assert len(side_sets[i]) == n
        for j in range(i + 1, 3):
            assert not side_sets[i] & side_sets[j]
    boundary = {g.edges[i] for i in np.flatnonzero(g.boundary_edge_mask)}
    assert boundary == side_sets[0] | side_sets[1] | side_sets[2]


def test_reflect_examples(g5):
    assert g5.reflect_middle(g5.edge_between((2, 1), (3, 1))) == g5.edge_between((4, 1), (5, 1))
    assert g5.reflect_middle(g5.edge_between((1, 1), (1, 2))) == g5.edge_between((6, 1), (5, 2))
    for e in g5.middle_edges:
        assert g5.reflect_middle(e) == e


@pytest.mark.parametrize("n", [1, 2, 3, 6, 9])
def test_reflect_is_involution(n):
    g = build_grid(n)
    perm = g.reflect_eperm
    assert np.array_equal(perm[perm], np.arange(g.num_edges))
    assert sorted(perm) == list(range(g.num_edges))


def test_rotate_examples():
    g3 = build_grid(3)
    assert g3.rotate_vertex(Vertex(1, 1)) == Vertex(1, 4)
    bottom_image = {g3.rotate(e) for e in g3.side_edges(Side.BOTTOM)}
    assert bottom_image == set(g3.side_edges(Side.LEFT))


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_rotate_order_three(n):
    g = build_grid(n)
    perm = g.rotate_eperm
    assert np.array_equal(perm[perm[perm]], np.arange(g.num_edges))
    corners = [Vertex(1, 1), Vertex(1, n + 1), Vertex(n + 1, 1)]
    for a, b in zip(corners, corners[1:] + corners[:1]):
        assert g.rotate_vertex(a) == b


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
    with pytest.raises(InvalidParameterError):
        build_grid(0)
    with pytest.raises(InvalidParameterError):
        build_grid(-3)


def test_foreign_edge_rejected(g2, g5):
    foreign = g5.edge_between((5, 1), (6, 1))
    with pytest.raises(InvalidEdgeError):
        g2.reflect_middle(foreign)
    with pytest.raises(InvalidEdgeError):
        g2.rotate(foreign)
    with pytest.raises(InvalidEdgeError):
        g2.edge_between((1, 1), (3, 1))
    no_slot = Edge(Vertex(1, 1), Dir.NW)
    assert not g2.has_edge(no_slot) and not g2.has_edge(foreign)
    with pytest.raises(InvalidEdgeError, match=r"edge \(1,1\)-\(0,2\) is not in the side-2 grid"):
        g2.edge_index(no_slot)
    with pytest.raises(InvalidInputError, match=r"vertex \(9,9\) is not in the side-2 grid"):
        g2.vertex_index(Vertex(9, 9))
    with pytest.raises(InvalidInputError, match=r"vertex \(3,2\) is not in the side-2 grid"):
        g2.vertex_edges(Vertex(3, 2))
    with pytest.raises(InvalidInputError, match=r"face up@\(9,9\) is not in the side-2 grid"):
        g2.face_index(Face(Vertex(9, 9), True))
    # The up-face at (1, 2) exists; the down-face there would poke out of the grid.
    assert g2.face_index(Face(Vertex(1, 2), True)) == 3
    with pytest.raises(InvalidInputError, match=r"face down@\(1,2\) is not in the side-2 grid"):
        g2.face_edges(Face(Vertex(1, 2), False))


def test_edge_between_accepts_either_order(g5):
    e = g5.edge_between((3, 2), (2, 3))
    assert e == g5.edge_between((2, 3), (3, 2))
    assert e.dir == Dir.NW
    assert e == Edge(Vertex(3, 2), Dir.NW)


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
        if name == "vertex_edges_idx":
            assert all(row.dtype == np.int64 for row in got)
            assert [row.tolist() for row in got] == want
        else:
            assert got.dtype == (bool if name == "boundary_edge_mask" else np.int64), name
            assert got.tolist() == want, name
    xy = ref["vertex_xy"]
    for e, u, v in zip(g.edges, ref["u_of_edge"], ref["v_of_edge"]):
        assert e.endpoints == (Vertex(*xy[u]), Vertex(*xy[v]))
