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

    def degrees(self) -> dict[int, int]:
        deg = {node: 0 for node in self.nodes}
        for a, b in self.links:
            deg[a] += 1
            deg[b] += 1
        return deg


@dataclass(frozen=True)
class TransversalDecomposition:
    components: tuple[TransversalComponent, ...]

    @property
    def node_counts(self) -> list[int]:
        return [c.node_count for c in self.components]


def build_transversal(g: TriGrid, a: EdgeSet) -> TransversalGraph:
    """Midpoint graph of a totally even subset."""
    if not is_totally_even(g, a):
        raise InvalidInputError("transversals are defined for totally even subsets")
    nodes = tuple(int(i) for i in np.flatnonzero(a.bits))
    links = sorted(map(tuple, face_links(g, a.bits).tolist()))
    return TransversalGraph(nodes=nodes, links=tuple(links))


def face_links(g: TriGrid, bits: np.ndarray) -> np.ndarray:
    """One row (low, high) per finite face holding exactly two set edges."""
    per_face = bits[g.face_edges_idx]
    two = per_face.sum(axis=1) == 2
    pairs = g.face_edges_idx[two][per_face[two]].reshape(-1, 2)
    return np.sort(pairs, axis=1)


def links_alternate(links, only1_bits: np.ndarray, only2_bits: np.ndarray) -> bool:
    """Does every link join an edge only in one cycle to one only in the other?"""
    links = np.asarray(links, dtype=np.int64).reshape(-1, 2)
    a, b = links[:, 0], links[:, 1]
    return bool(((only1_bits[a] & only2_bits[b]) | (only2_bits[a] & only1_bits[b])).all())


def decompose_transversals(t: TransversalGraph) -> TransversalDecomposition:
    """Maximal paths and cycles of the midpoint graph, canonically ordered.

    Components are listed by their smallest node; a path starts at its
    smaller endpoint, a cycle at its smallest node heading toward the
    smaller neighbour.
    """
    adj: dict[int, list[int]] = {node: [] for node in t.nodes}
    for a, b in t.links:
        adj[a].append(b)
        adj[b].append(a)
    for node, nbrs in adj.items():
        if len(nbrs) > 2:
            raise RuntimeError(f"midpoint node {node} has degree {len(nbrs)} > 2")
        nbrs.sort()

    unseen = set(t.nodes)
    components = []
    for start in sorted(t.nodes):
        if start not in unseen:
            continue
        group = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v in adj[u]:
                if v not in group:
                    group.add(v)
                    frontier.append(v)
        unseen -= group
        endpoints = sorted(u for u in group if len(adj[u]) <= 1)
        if endpoints:
            kind = ComponentKind.PATH
            head = endpoints[0]
        else:
            kind = ComponentKind.CYCLE
            head = min(group)
        order = [head]
        prev = None
        cur = head
        while True:
            nxt = next((w for w in adj[cur] if w != prev), None)
            if nxt is None or nxt == head:
                break
            order.append(nxt)
            prev, cur = cur, nxt
        components.append(TransversalComponent(kind=kind, nodes=tuple(order)))
    return TransversalDecomposition(components=tuple(components))


def check_mod4(d: TransversalDecomposition) -> bool:
    """True iff every component meets a multiple of four subset edges.

    Holds whenever the subset is the symmetric difference of two cycles
    with the same signature; a general totally even subset may fail.
    """
    return all(c.node_count % 4 == 0 for c in d.components)


def transversal_alternates(
    t: TransversalGraph, only1_bits: np.ndarray, only2_bits: np.ndarray
) -> bool:
    """Do consecutive nodes alternate between the two cycle-only sides?

    Consecutive nodes of a component are exactly the linked pairs, because
    two edges share at most one face, so checking every link suffices.
    """
    return links_alternate(t.links, only1_bits, only2_bits)


def alternation_check(g: TriGrid, a: EdgeSet, c1, c2) -> bool:
    """Along every transversal of a = c1 ^ c2, nodes must alternate between
    edges only in the first cycle and edges only in the second."""
    from .cycles import signature

    if a != (c1.edge_set ^ c2.edge_set):
        raise InvalidInputError("subset must be the symmetric difference of the cycles")
    if signature(g, c1) != signature(g, c2):
        raise InvalidInputError("the two cycles must have equal signatures")
    only1 = c1.edge_set.difference(c2.edge_set)
    only2 = c2.edge_set.difference(c1.edge_set)
    t = build_transversal(g, a)
    return transversal_alternates(t, only1.bits, only2.bits)
