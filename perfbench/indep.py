"""Computations the benchmark checks the program against, made apart from it.

Nothing here imports trislither. The side-n triangular grid is rebuilt from
coordinates, cycles come from networkx, and parity, signatures, transversal
components and the paper's closed forms are recomputed from their
definitions. Edges are keyed by their sorted pair of (x, y) corners, faces
by (x, y, up).

Run as a script, ``python3 perfbench/indep.py 5`` prints the networkx
census of the side-5 grid as JSON (see ``cycle_census``); the benchmark
runs it in a child process so that networkx and the enumeration never
count toward the measured process's peak memory.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter

DIRECTIONS = ((1, 0), (0, 1), (-1, 1))


def edge_key(a, b):
    a, b = tuple(a), tuple(b)
    return (a, b) if a <= b else (b, a)


class Tri:
    """The side-n triangular grid: corners, unit edges and finite faces."""

    def __init__(self, n: int):
        self.n = n
        self.vertices = [(x, y) for y in range(1, n + 2) for x in range(1, n + 3 - y)]
        vs = set(self.vertices)
        self.edges = []
        for x, y in self.vertices:
            for dx, dy in DIRECTIONS:
                if (x + dx, y + dy) in vs:
                    self.edges.append(edge_key((x, y), (x + dx, y + dy)))
        self.edge_set = set(self.edges)
        self.faces = {}
        for y in range(1, n + 1):
            for x in range(1, n + 2 - y):
                a, b, c = (x, y), (x + 1, y), (x, y + 1)
                self.faces[(x, y, 1)] = (edge_key(a, b), edge_key(a, c), edge_key(b, c))
                if x + y <= n:
                    a, b, c = (x + 1, y), (x, y + 1), (x + 1, y + 1)
                    self.faces[(x, y, 0)] = (edge_key(a, b), edge_key(a, c), edge_key(b, c))
        self.faces_of_edge = {e: [] for e in self.edges}
        for f, es in self.faces.items():
            for e in es:
                self.faces_of_edge[e].append(f)

    def bottom(self, i: int):
        """Bottom-side edge i, counted from 1 at the left corner."""
        return edge_key((i, 1), (i + 1, 1))

    def face_counts(self, edges) -> Counter:
        counts = Counter()
        for e in edges:
            counts.update(self.faces_of_edge[e])
        return counts

    def parity_defect(self, edges) -> str | None:
        """None if every vertex and finite face meets ``edges`` evenly."""
        edges = set(edges)
        stray = edges - self.edge_set
        if stray:
            return f"edge {min(stray)} is not in the side-{self.n} grid"
        degree = Counter()
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        odd = sorted(v for v, d in degree.items() if d % 2)
        if odd:
            return f"vertex {odd[0]} has odd degree"
        bad = sorted(f for f, c in self.face_counts(edges).items() if c % 2)
        if bad:
            return f"face {bad[0]} holds an odd number of edges"
        return None

    def signature(self, edges) -> frozenset:
        """Per-face edge counts of a cycle, as a set of (face, count) pairs."""
        return frozenset(self.face_counts(edges).items())

    def left_indices(self, edges) -> list[int]:
        """Indices i <= n/2 whose bottom edge lies in ``edges``; by the paper
        they are the decomposition of a totally even subset."""
        return [i for i in range(1, self.n // 2 + 1) if self.bottom(i) in edges]

    def cycle_defect(self, edges) -> str | None:
        """None if ``edges`` is one simple cycle of this grid."""
        edges = set(edges)
        if not edges or not edges <= self.edge_set:
            return "empty or off the grid"
        adj = {}
        for a, b in edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        if any(len(nb) != 2 for nb in adj.values()):
            return "a vertex has degree other than 2"
        start = min(adj)
        seen, stack = {start}, [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return None if len(seen) == len(adj) else "disconnected"

    def transversal_sizes(self, edges) -> list[int]:
        """Node counts of the midpoint graph's components, sorted.

        Each finite face holding exactly two edges of the set links them.
        """
        edges = set(edges)
        parent = {e: e for e in edges}

        def find(e):
            while parent[e] != e:
                parent[e] = parent[parent[e]]
                e = parent[e]
            return e

        for es in self.faces.values():
            inside = [e for e in es if e in edges]
            if len(inside) == 2:
                parent[find(inside[0])] = find(inside[1])
        return sorted(Counter(find(e) for e in edges).values())

    def alternates(self, only1, only2) -> bool:
        """Every face holding two difference edges takes one from each cycle."""
        diff = set(only1) | set(only2)
        for es in self.faces.values():
            inside = [e for e in es if e in diff]
            if len(inside) == 2:
                a, b = inside
                if not ((a in only1 and b in only2) or (a in only2 and b in only1)):
                    return False
        return True


def basis_size(n: int, i: int) -> int:
    """The paper's size of basis subset i: 6 (n - 2i + 1) i."""
    return 6 * (n - 2 * i + 1) * i


def product_size(n: int, indices) -> int:
    """12 p q over the gap profile of ``indices``, padded with 0 below and
    (n+1)/2 above; p sums the gaps at even positions, q those at odd ones.

    Gaps are doubled to stay integral, so 12 p q = 3 P Q.
    """
    marks = [0] + [2 * i for i in indices] + [n + 1]
    gaps = [b - a for a, b in zip(marks, marks[1:])]
    return 3 * sum(gaps[0::2]) * sum(gaps[1::2])


def feasible(pattern) -> bool:
    """A bottom pattern has a totally even completion exactly when it is
    mirror-symmetric and, for odd n, leaves the middle edge clear."""
    n = len(pattern)
    pattern = [bool(b) for b in pattern]
    return pattern == pattern[::-1] and (n % 2 == 0 or not pattern[n // 2])


# -- files ----------------------------------------------------------------------


def edge_file_text(n: int, edges) -> str:
    """An edge-set file in the documented ``n`` / ``edge`` line format."""
    lines = [f"n {n}"]
    lines += [f"edge {a[0]} {a[1]} {b[0]} {b[1]}" for a, b in sorted(edges)]
    return "\n".join(lines) + "\n"


def walk_file_text(n: int, corners) -> str:
    """A cycle file as a closed corner walk (``walk x y`` lines)."""
    return "\n".join([f"n {n}"] + [f"walk {x} {y}" for x, y in corners]) + "\n"


def parse_edge_file(text: str):
    """(n, set of edge keys) from an edge-set file."""
    n = None
    edges = set()
    for raw in text.splitlines():
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "n":
            n = int(parts[1])
        elif parts[0] == "edge":
            x1, y1, x2, y2 = (int(p) for p in parts[1:])
            edges.add(edge_key((x1, y1), (x2, y2)))
        else:
            raise ValueError(f"unexpected record {parts[0]!r}")
    return n, edges


def corners_of(vertex_cycle):
    """Compress a closed vertex sequence into its turning corners, closed."""
    vs = list(vertex_cycle)
    k = len(vs)

    def step(a, b):
        return (b[0] - a[0], b[1] - a[1])

    start = next(
        j for j in range(k) if step(vs[j - 1], vs[j]) != step(vs[j], vs[(j + 1) % k])
    )
    vs = vs[start:] + vs[:start]
    corners = [vs[0]]
    for j in range(1, k):
        if step(vs[j - 1], vs[j]) != step(vs[j], vs[(j + 1) % k]):
            corners.append(vs[j])
    return corners + [vs[0]]


# -- cycles through networkx ---------------------------------------------------------


def graph(n: int):
    import networkx as nx

    g = nx.Graph()
    g.add_edges_from(Tri(n).edges)
    return g


def cycle_census(n: int) -> dict:
    """Every simple cycle of the side-n grid from networkx, grouped by
    signature: the count, the multiplicity histogram, the repeated
    signatures, and the same-signature pairs as closed vertex walks.

    Signatures are summed with numpy so that the side-5 grid's 128,967
    cycles take about a second.
    """
    import networkx as nx
    import numpy as np

    tri = Tri(n)
    faces = list(tri.faces)
    vid = {v: k for k, v in enumerate(tri.vertices)}
    eid = np.full((len(vid), len(vid)), -1, dtype=np.int64)
    for k, (a, b) in enumerate(tri.edges):
        eid[vid[a], vid[b]] = eid[vid[b], vid[a]] = k
    incidence = np.zeros((len(tri.edges), len(faces)), dtype=np.int32)
    for f, face in enumerate(tri.faces.values()):
        for a, b in face:
            incidence[eid[vid[a], vid[b]], f] = 1
    walks = list(nx.simple_cycles(nx.relabel_nodes(graph(n), vid)))
    lengths = np.array([len(c) for c in walks])
    flat = np.fromiter((v for c in walks for v in c), dtype=np.int64, count=lengths.sum())
    starts = np.cumsum(lengths) - lengths
    nxt = np.roll(flat, -1)
    nxt[starts + lengths - 1] = flat[starts]
    member = np.zeros((len(walks), len(tri.edges)), dtype=np.int32)
    member[np.repeat(np.arange(len(walks)), lengths), eid[flat, nxt]] = 1
    sigs, inverse, counts = np.unique(
        member @ incidence, axis=0, return_inverse=True, return_counts=True)
    groups = {}
    for r in np.flatnonzero(counts[inverse] > 1):
        groups.setdefault(int(inverse[r]), []).append([tri.vertices[v] for v in walks[r]])
    pairs = [
        [ms[a], ms[b]]
        for _, ms in sorted(groups.items())
        for a in range(len(ms))
        for b in range(a + 1, len(ms))
    ]
    return {
        "total": len(walks),
        "histogram": Counter(counts.tolist()),
        "repeated": {
            frozenset((faces[f], int(c)) for f, c in enumerate(sigs[u]) if c)
            for u in np.flatnonzero(counts > 1)
        },
        "pairs": pairs,
    }


def census_in_child(n: int) -> dict:
    """``cycle_census(n)`` computed by a child interpreter."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), str(n)],
        check=True, capture_output=True, text=True, timeout=150,
    ).stdout
    got = json.loads(out)
    return {
        "total": got["total"],
        "histogram": Counter({int(k): v for k, v in got["histogram"].items()}),
        "repeated": {frozenset(((x, y, up), c) for x, y, up, c in sig) for sig in got["repeated"]},
        "pairs": [[[tuple(v) for v in walk] for walk in pair] for pair in got["pairs"]],
    }


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: indep.py <n>")
    census = cycle_census(int(sys.argv[1]))
    census["repeated"] = [sorted([*face, c] for face, c in sig) for sig in census["repeated"]]
    json.dump(census, sys.stdout)
