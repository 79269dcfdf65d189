"""Midpoint graph of a totally even subset, split into path and cycle
transversals, with the mod-4 and alternation checks.

Each finite face holding exactly two subset edges links the midpoints of
those edges; under total evenness every face holds zero or two, so the
pairing is unique and the midpoint graph is a disjoint union of paths and
cycles. Nodes are identified by edge index.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInputError
from .evenalg import EdgeSet, is_totally_even
from .grid import TriGrid


class ComponentKind(Enum):
    PATH = "path"
    CYCLE = "cycle"


@dataclass(frozen=True)
class TransversalComponent:
    kind: ComponentKind
    nodes: tuple[int, ...]

    @property
    def node_count(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class TransversalGraph:
    """Nodes are subset-edge indices; links pair the two subset edges of a
    face that contains exactly two of them."""

    nodes: tuple[int, ...]
    links: tuple[tuple[int, int], ...]


def build_transversal(g: TriGrid, a: EdgeSet) -> TransversalGraph:
    """Midpoint graph of a totally even subset."""
    links = sorted(map(tuple, _even_links(g, a).tolist()))
    return TransversalGraph(nodes=tuple(np.flatnonzero(a.bits).tolist()), links=tuple(links))


def _even_links(g: TriGrid, a: EdgeSet) -> np.ndarray:
    """``face_links`` of ``a``, which must be totally even."""
    if not is_totally_even(g, a):
        raise InvalidInputError("transversals are defined for totally even subsets")
    return face_links(g, a.bits)


def face_links(g: TriGrid, bits: np.ndarray) -> np.ndarray:
    """One row (low, high) per finite face holding exactly two set edges."""
    per_face = bits[g.face_edges_idx]
    two = per_face.sum(axis=1) == 2
    pairs = g.face_edges_idx[two][per_face[two]].reshape(-1, 2)
    return np.sort(pairs, axis=1)


def links_alternate(links, only1_bits: np.ndarray, only2_bits: np.ndarray) -> bool:
    """Does every link join an edge only in one cycle to one only in the other?

    Consecutive nodes of a transversal component are exactly the linked
    pairs, because two edges share at most one face, so checking every link
    checks that the nodes of every component alternate between the two sides.
    """
    links = np.asarray(links, dtype=np.int64).reshape(-1, 2)
    a, b = links[:, 0], links[:, 1]
    return bool(((only1_bits[a] & only2_bits[b]) | (only2_bits[a] & only1_bits[b])).all())


def _components(nodes, links) -> list[TransversalComponent]:
    """Components of a graph whose nodes have degree at most 2, each as a
    walk along it, in the order ``decompose_transversals`` documents."""
    adj: dict[int, list[int | None]] = {node: [] for node in nodes}
    for a, b in links:
        adj[a].append(b)
        adj[b].append(a)
    for node, nbrs in adj.items():
        if len(nbrs) > 2:
            raise RuntimeError(f"midpoint node {node} has degree {len(nbrs)} > 2")
        nbrs.sort()
        nbrs += [None] * (2 - len(nbrs))  # a path's end reads None

    def walk(head: int) -> list[int]:
        # Stops at a path's end, or on a cycle just before it reaches head again.
        order, prev, cur = [head], None, head
        while True:
            a, b = adj[cur]
            nxt = b if a == prev else a
            if nxt is None or nxt == head:
                return order
            order.append(nxt)
            prev, cur = cur, nxt

    seen: set[int] = set()
    components = []
    for start in sorted(nodes):
        if start in seen:
            continue
        order = walk(start)
        is_cycle = None not in adj[order[-1]]
        if not is_cycle and None not in adj[start]:
            # start is inside a path: walk the whole path from the end reached.
            order = walk(order[-1])
            if order[-1] < order[0]:
                order.reverse()
        seen.update(order)
        kind = ComponentKind.CYCLE if is_cycle else ComponentKind.PATH
        components.append(TransversalComponent(kind=kind, nodes=tuple(order)))
    return components


def decompose_transversals(t: TransversalGraph) -> tuple[TransversalComponent, ...]:
    """The tuple of maximal paths and cycles of the midpoint graph, in order.

    Components are listed by their smallest node; a path starts at its
    smaller endpoint, a cycle at its smallest node heading toward the
    smaller neighbour.
    """
    return tuple(_components(t.nodes, t.links))


def check_mod4(components: tuple[TransversalComponent, ...]) -> bool:
    """True iff every component meets a multiple of four subset edges.

    Holds whenever the subset is the symmetric difference of two cycles
    with the same signature; a general totally even subset may fail.
    """
    return all(c.node_count % 4 == 0 for c in components)


def alternation_check(g: TriGrid, a: EdgeSet, c1, c2) -> bool:
    """Along every transversal of a = c1 ^ c2, nodes must alternate between
    edges only in the first cycle and edges only in the second."""
    from .cycles import _check_same_signature

    if a != (c1.edge_set ^ c2.edge_set):
        raise InvalidInputError("subset must be the symmetric difference of the cycles")
    _check_same_signature(g, c1, c2)
    return links_alternate(
        _even_links(g, a),
        c1.edge_set.difference(c2.edge_set).bits,
        c2.edge_set.difference(c1.edge_set).bits,
    )
