"""Independent brute-force oracles.

These deliberately avoid the library's linear algebra and DFS: they filter
all 2^|E| edge subsets directly, so they only make sense for tiny grids.
"""

import numpy as np

from trislither import TriGrid
from trislither.grid import Dir


def edge_mask(edge_set) -> int:
    """Edge set -> integer bitmask over edge indices."""
    return int(sum(1 << int(i) for i in np.flatnonzero(edge_set.bits)))


def mask_bits(mask: int, n_edges: int) -> np.ndarray:
    return np.array([(mask >> e) & 1 for e in range(n_edges)], dtype=bool)


def all_even_subset_masks(g: TriGrid) -> set[int]:
    """Every subset meeting each vertex and finite face evenly."""
    n_edges = g.num_edges
    assert n_edges <= 20, "oracle is exponential in the edge count"
    masks = np.arange(1 << n_edges, dtype=np.int64)
    ok = np.ones(masks.shape, dtype=bool)
    constraints = [list(map(int, g.vertex_edges_idx[vi])) for vi in range(g.num_vertices)]
    constraints += [list(map(int, triple)) for triple in g.face_edges_idx]
    for edges in constraints:
        par = np.zeros(masks.shape, dtype=np.int8)
        for ei in edges:
            par ^= ((masks >> ei) & 1).astype(np.int8)
        ok &= par == 0
    return {int(m) for m in masks[ok]}


def _is_single_cycle(g: TriGrid, mask: int) -> bool:
    # Degrees already known to be 0 or 2; check one connected component.
    adj: dict[int, list[int]] = {}
    for ei in range(g.num_edges):
        if (mask >> ei) & 1:
            u, v = int(g.u_of_edge[ei]), int(g.v_of_edge[ei])
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
    start = min(adj)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(adj)


def simple_cycle_masks(g: TriGrid) -> set[int]:
    """Every simple cycle, by filtering all 2^|E| subsets."""
    n_edges = g.num_edges
    assert n_edges <= 20, "oracle is exponential in the edge count"
    masks = np.arange(1 << n_edges, dtype=np.int64)
    deg = np.zeros((masks.shape[0], g.num_vertices), dtype=np.int8)
    for ei in range(n_edges):
        bit = ((masks >> ei) & 1).astype(np.int8)
        deg[:, int(g.u_of_edge[ei])] += bit
        deg[:, int(g.v_of_edge[ei])] += bit
    candidates = masks[((deg == 0) | (deg == 2)).all(axis=1) & (masks != 0)]
    return {int(m) for m in candidates if _is_single_cycle(g, int(m))}


def reference_layout(n: int) -> dict:
    """Every index array of the side-n grid, from the layout rules in the
    ``trislither.grid`` docstring, with plain loops, dicts and sets."""
    verts = [(x, y) for y in range(1, n + 2) for x in range(1, n + 3 - y)]
    vid = {v: i for i, v in enumerate(verts)}
    steps = {Dir.E: (1, 0), Dir.NE: (0, 1), Dir.NW: (-1, 1)}
    slot = [-1] * (3 * len(verts))
    ends, dirs = [], []
    for i, (x, y) in enumerate(verts):
        for d in sorted(steps):
            tip = (x + steps[d][0], y + steps[d][1])
            if tip in vid:
                slot[3 * i + d] = len(ends)
                ends.append((i, vid[tip]))
                dirs.append(int(d))
    eid = {frozenset(e): k for k, e in enumerate(ends)}

    def edge(a, b):
        return eid[frozenset((vid[a], vid[b]))]

    faces = []
    for y in range(1, n + 1):
        for x in range(1, n + 2 - y):
            faces.append([(x, y), (x + 1, y), (x, y + 1)])
            if (x + 1, y + 1) in vid:
                faces.append([(x + 1, y), (x, y + 1), (x + 1, y + 1)])
    face_edges = [[edge(c[0], c[1]), edge(c[0], c[2]), edge(c[1], c[2])] for c in faces]
    count = [0] * len(ends)
    for triple in face_edges:
        for e in triple:
            count[e] += 1
    incident = [[] for _ in verts]
    for k, (u, v) in enumerate(ends):
        incident[u].append((v, k))
        incident[v].append((u, k))
    width = max(len(inc) for inc in incident)
    pad = [[-1] * (width - len(inc)) for inc in incident]

    def reflect(x, y):
        return (n + 3 - x - y, y)

    def rotate(x, y):
        return (y, n + 3 - x - y)

    def image(f):
        return [edge(f(*verts[u]), f(*verts[v])) for u, v in ends]

    return {
        "vertex_xy": [list(v) for v in verts],
        "edge_slot": slot,
        "u_of_edge": [u for u, _ in ends],
        "v_of_edge": [v for _, v in ends],
        "edge_dir": dirs,
        "face_edges_idx": face_edges,
        "edge_face_count": count,
        "boundary_edge_mask": [c == 1 for c in count],
        "nbr": [[w for w, _ in sorted(inc)] + p for inc, p in zip(incident, pad)],
        "nbr_edge": [[k for _, k in sorted(inc)] + p for inc, p in zip(incident, pad)],
        "deg": [len(inc) for inc in incident],
        "vertex_edges_idx": [sorted(k for _, k in inc) for inc in incident],
        "bottom_edge_idx": [edge((i, 1), (i + 1, 1)) for i in range(1, n + 1)],
        "reflect_eperm": image(reflect),
        "rotate_eperm": image(rotate),
        "middle_edge_idx": [k for k, (u, v) in enumerate(ends) if reflect(*verts[u]) == verts[v]],
    }
