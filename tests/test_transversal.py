import numpy as np
import pytest

from trislither import (
    ComponentKind,
    EdgeSet,
    InvalidInputError,
    alternation_check,
    basis_subset,
    build_grid,
    check_mod4,
    decompose_transversals,
    links_alternate,
    totally_even_subsets,
)

from trislither.transversal import face_links

from refcycles import t5_pair


def test_empty_subset_gives_empty_graph(g5):
    assert face_links(g5, EdgeSet.empty(g5).bits).shape == (0, 2)
    d = decompose_transversals(g5, EdgeSet.empty(g5))
    assert d == ()
    assert check_mod4(d)


def test_requires_totally_even(g5):
    with pytest.raises(InvalidInputError, match="^transversals are defined for totally even subsets$"):
        decompose_transversals(g5, EdgeSet.from_pairs(g5, [((1, 1), (2, 1))]))


def test_reference_subset_decomposition(g5):
    a = basis_subset(g5, 2)
    d = decompose_transversals(g5, a)
    assert sorted(c.node_count for c in d) == [4, 4, 4, 12]
    assert [c.kind for c in d].count(ComponentKind.CYCLE) == 1
    assert [c.kind for c in d].count(ComponentKind.PATH) == 3
    assert check_mod4(d)


def test_t2_hexagon_decomposition(g2):
    # The 6-edge boundary ring: only the three upward corner faces hold two
    # of its edges, so the midpoint graph splits into three 2-node paths.
    a = basis_subset(g2, 1)
    d = decompose_transversals(g2, a)
    assert sorted(c.node_count for c in d) == [2, 2, 2]
    assert all(c.kind is ComponentKind.PATH for c in d)
    assert not check_mod4(d)


@pytest.mark.parametrize("n", range(1, 9))
def test_node_degrees_match_face_counts(n):
    g = build_grid(n)
    for _, a in totally_even_subsets(g):
        links = face_links(g, a.bits)
        # One row (low, high) per linking face, the rows in (low, high) order.
        assert links.tolist() == sorted(map(sorted, links.tolist()))
        degrees = np.bincount(links.ravel(), minlength=g.num_edges)
        for node in np.flatnonzero(a.bits):
            # Under total evenness each finite face of a used edge holds
            # exactly two subset edges, so the node degree equals the
            # edge's finite-face count.
            assert degrees[node] == int(g.edge_face_count[node])
        for comp in decompose_transversals(g, a):
            if comp.kind is ComponentKind.PATH:
                ends = {comp.nodes[0], comp.nodes[-1]}
                for node in comp.nodes:
                    # Path endpoints are exactly the boundary edges.
                    assert bool(g.boundary_edge_mask[node]) == (node in ends)
            else:
                assert not any(g.boundary_edge_mask[node] for node in comp.nodes)


@pytest.mark.parametrize("n", range(1, 13))
def test_component_counts_sum_to_subset_size(n):
    g = build_grid(n)
    for _, a in totally_even_subsets(g):
        d = decompose_transversals(g, a)
        assert sum(c.node_count for c in d) == len(a)


def test_decomposition_deterministic(g5):
    a = basis_subset(g5, 2)
    d1 = decompose_transversals(g5, a)
    d2 = decompose_transversals(g5, a)
    assert d1 == d2
    firsts = [c.nodes[0] for c in d1]
    assert firsts == sorted(firsts)


def test_check_mod4_cases(g2, g5):
    good = decompose_transversals(g5, basis_subset(g5, 2))
    assert check_mod4(good)
    bad = decompose_transversals(g2, basis_subset(g2, 1))
    assert not check_mod4(bad)


def test_alternation_on_reference_pair(g5):
    c1, c2 = t5_pair(g5)
    a = c1.edge_set ^ c2.edge_set
    assert alternation_check(g5, a, c1, c2)
    assert alternation_check(g5, a, c2, c1)


def test_alternation_tallies_balance(g5):
    c1, c2 = t5_pair(g5)
    a = c1.edge_set ^ c2.edge_set
    only1 = c1.edge_set.difference(c2.edge_set)
    only2 = c2.edge_set.difference(c1.edge_set)
    for comp in decompose_transversals(g5, a):
        n1 = sum(1 for node in comp.nodes if only1.bits[node])
        n2 = sum(1 for node in comp.nodes if only2.bits[node])
        assert n1 == n2
        assert n1 % 2 == 0


def test_alternation_fails_on_corrupted_links(g5):
    c1, c2 = t5_pair(g5)
    a = c1.edge_set ^ c2.edge_set
    only1 = c1.edge_set.difference(c2.edge_set)
    only2 = c2.edge_set.difference(c1.edge_set)
    links = face_links(g5, a.bits).tolist()
    assert links_alternate(links, only1.bits, only2.bits)
    # Swap partners between two links whose first nodes sit on the same
    # side of the pair, producing a link that joins same-side edges.
    pick = None
    for i in range(len(links)):
        for j in range(i + 1, len(links)):
            (a1, b1), (a2, b2) = links[i], links[j]
            if len({a1, b1, a2, b2}) == 4 and only1.bits[a1] == only1.bits[a2]:
                pick = (i, j)
                break
        if pick:
            break
    assert pick is not None
    i, j = pick
    (a1, b1), (a2, b2) = links[i], links[j]
    links[i], links[j] = (a1, a2), (b1, b2)
    assert not links_alternate(links, only1.bits, only2.bits)


def test_alternation_precondition(g5):
    c1, c2 = t5_pair(g5)
    with pytest.raises(InvalidInputError):
        alternation_check(g5, EdgeSet.empty(g5), c1, c2)
