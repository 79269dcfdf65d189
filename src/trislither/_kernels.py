"""Hot inner loops of the census: simple-cycle DFS and signature packing."""

import numpy as np

# There is one kernel path, plain numpy. perfbench/run.py reads this name to
# label the path in its results.
USING_NUMBA = False


def cycles_from_root(root, nbr, nbr_edge, deg, n_edges, limit):
    """Every simple cycle whose lowest vertex is ``root``, as boolean edge rows.

    Each cycle is emitted once: intermediate vertices must exceed root, and
    the walk must enter the cycle through the lower-indexed of root's two
    cycle neighbours. A ``limit`` >= 0 stops after that many cycles.
    """
    # (neighbour, edge) steps, keeping only the vertices a cycle rooted
    # here may visit.
    steps = [
        [(w, e) for w, e in zip(ws[:d], es[:d]) if w >= root]
        for ws, es, d in zip(nbr.tolist(), nbr_edge.tolist(), deg.tolist())
    ]
    out = np.zeros((256, n_edges), dtype=bool)
    count = 0
    on_path = [False] * len(steps)
    on_path[root] = True
    path_vertex = [root]
    # path_edge[d] is the edge walked into path_vertex[d + 1].
    path_edge: list[int] = []
    branches = [iter(steps[root])]
    while branches:
        for w, e in branches[-1]:
            if w == root:
                if len(path_vertex) >= 3 and path_vertex[1] < path_vertex[-1]:
                    if count == out.shape[0]:
                        out = np.concatenate([out, np.zeros_like(out)])
                    out[count, path_edge + [e]] = True
                    count += 1
                    if 0 <= limit <= count:
                        return out[:count]
            elif not on_path[w]:
                on_path[w] = True
                path_vertex.append(w)
                path_edge.append(e)
                branches.append(iter(steps[w]))
                break
        else:
            branches.pop()
            on_path[path_vertex.pop()] = False
            if path_edge:
                path_edge.pop()
    return out[:count]


def signature_words(rows, face_edges):
    """Per-face edge counts of each cycle row, packed two bits per face.

    Face f takes bits 2f and 2f+1 of the little-endian byte string of its
    row, so the rows compare as byte strings in the order of their packed
    counts.
    """
    counts = rows[:, face_edges].sum(axis=2, dtype=np.uint8)
    bits = np.stack([counts & 1, counts >> 1], axis=2).reshape(rows.shape[0], 2 * len(face_edges))
    return np.packbits(bits, axis=1, bitorder="little")
