"""Hot inner loops of the census: the simple-cycle walk, which yields one
edge row per cycle, and signature packing."""

import numpy as np

# There is one kernel path, plain numpy. perfbench/run.py reads this name to
# label the path in its results.
USING_NUMBA = False


# The six neighbours of a vertex in counter-clockwise order from east, as
# bits of the code ``_ring`` reads: 4 (x+1,y), 6 (x,y+1), 5 (x-1,y+1),
# 2 (x-1,y), 0 (x,y-1), 1 (x+1,y-1). Bit 3 would be the vertex itself.
_RING_ORDER = (4, 6, 5, 2, 0, 1)


def _arcs(code):
    """Runs of set bits of a ring code, taken round the ring."""
    bits = [code >> b & 1 for b in _RING_ORDER]
    return sum(bits[i] > bits[i - 1] for i in range(6)) or int(any(bits))


# Whether the set bits of a ring code form two or more arcs. Neighbours next
# to each other in ring order are adjacent in the grid; a neighbour missing at
# the boundary reads 0 and so breaks the ring.
_SPLITS = tuple(_arcs(c) >= 2 for c in range(128))


def _ring(mask, q, s2):
    """The ring code of the neighbours of bit ``q`` that are set in ``mask``."""
    near = mask >> q - s2
    return near & 3 | (near >> s2 - 1 & 5) << 2 | (near >> 2 * s2 - 1 & 3) << 5


def _flood(seeds, within, s1):
    """The bits of ``within`` joined to ``seeds`` through ``within``.

    Masks hold vertex (x, y) at bit y*(n+2) + x-1 (``TriGrid.vertex_bit``),
    so the six neighbour moves are shifts by 1, s1 = n+1 and n+2. Each row
    ends in a bit that is no vertex, so ``within`` stops a shift that would
    wrap between rows.
    """
    reach = seeds & within
    while True:
        up, down = reach | reach << 1, reach | reach >> 1
        grown = (up | down | up << s1 | down >> s1) & within
        if grown == reach:
            return reach
        reach = grown


def walk_cycles(g, root):
    """Yield every simple cycle of grid ``g`` whose lowest vertex is
    ``root``, each as a ``num_edges``-byte row holding 1 at its edges.

    Each cycle is yielded once: intermediate vertices must exceed root, and
    the walk must enter the cycle through the lower-indexed of root's two
    cycle neighbours, so it closes from a *target*, a neighbour of root
    above the path's first vertex. Branches are taken in index order.

    The walk enters a vertex only if it is *alive*: free (above root and
    off the path) and joined through free vertices to a free target. So
    every vertex entered lies on a path to a cycle, and the work between
    two cycles is bounded by the path length times one flood. The alive
    set is an int bitmask, computed by a shift-and-mask flood from the free
    targets. Entering a vertex w that is not a target and not a local cut
    (a vertex whose free neighbours, taken in cyclic order, form two or
    more arcs) leaves the alive set minus w, with no flood. That is exact:
    every small triangle of the grid is a face, so the free neighbours of
    such a w form one chain of adjacent vertices, and any free path through
    w can go round it along that chain. A pop restores the set by adding w
    back, or from the copy kept where the push flooded; so only flooded
    sets stay in memory, not one per path vertex.
    """
    s1, s2 = g.n + 1, g.n + 2
    above = np.zeros(s2 * s2, dtype=bool)
    above[g.vertex_bit[root + 1 :]] = True
    free = int.from_bytes(np.packbits(above, bitorder="little").tobytes(), "little")
    # (neighbour, edge, bit) steps. A step below root is never alive, so only
    # the first step needs to skip those.
    steps = g.nbr_steps
    # The path's edges as one byte each; a cycle is yielded as a copy.
    on_path = bytearray(g.num_edges)
    for first, first_edge, q in steps[root]:
        if first < root:
            continue  # free ^ 1 << q would set its bit
        targets = sum(1 << p for w, _, p in steps[root] if w > first)
        alive = _flood(targets, free ^ 1 << q, s1)
        if not _ring(alive, q, s2):  # no way on from first back to a target
            continue
        on_path[first_edge] = 1
        # One frame per path vertex v: its untried steps, v, the edge and
        # bit of v, and the alive set before v if entering v flooded.
        frames = [(iter(steps[first]), first, first_edge, q, None)]
        while frames:
            branch, v, _, _, _ = frames[-1]
            for w, e, q in branch:
                if w == root:
                    # v above first also means the path has two or more edges.
                    if v > first:
                        on_path[e] = 1
                        yield bytes(on_path)
                        on_path[e] = 0
                elif alive >> q & 1:
                    saved = alive
                    alive ^= 1 << q
                    # As w is alive, so are all its free neighbours.
                    if targets >> q & 1 or _SPLITS[_ring(saved, q, s2)]:
                        alive = _flood(targets & alive, alive, s1)
                    else:
                        saved = None
                    on_path[e] = 1
                    frames.append((iter(steps[w]), w, e, q, saved))
                    break
            else:
                _, _, e, q, saved = frames.pop()
                on_path[e] = 0
                alive = alive | 1 << q if saved is None else saved


def signature_words(rows, face_edges):
    """Per-face edge counts of each cycle row, packed two bits per face.

    Face f takes bits 2f and 2f+1 of the little-endian byte string of its
    row, so the rows compare as byte strings in the order of their packed
    counts.
    """
    counts = rows[:, face_edges].sum(axis=2, dtype=np.uint8)
    bits = np.stack([counts & 1, counts >> 1], axis=2).reshape(rows.shape[0], 2 * len(face_edges))
    return np.packbits(bits, axis=1, bitorder="little")
