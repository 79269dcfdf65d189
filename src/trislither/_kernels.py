"""Hot inner loops of the census: the simple-cycle walk, which yields one
edge row per cycle; the bottom-up listing, which gives a root's cycles as
a uint64 array of edge masks, each search state's list held as one int in
64-bit lanes; and signature packing. A budgeted census packs its walked
rows (``signature_words``); a whole census builds no rows and no int per
cycle, and sums each mask's signature from a byte table
(``mask_signatures``)."""

import numpy as np

from .errors import InvalidParameterError

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


def _above(g, root):
    """The vertices above ``root``, as a mask over ``TriGrid.vertex_bit``."""
    low = int(g.vertex_bit[root]) + 1
    return g.vertex_mask >> low << low


def _enter(alive, q, targets, s2):
    """The alive set after entering the vertex at bit ``q``, which ``alive``
    holds. Entering a target or a local cut floods from the targets again;
    entering any other vertex drops its bit."""
    inner = alive ^ 1 << q
    # As the vertex is alive, so are all its free neighbours.
    if targets >> q & 1 or _SPLITS[_ring(alive, q, s2)]:
        return _flood(targets & inner, inner, s2 - 1)
    return inner


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
    w can go round it along that chain.

    The walk runs over a DAG of search states, built as it goes and kept
    for one first step. A state is a vertex w with the alive set after
    entering w. Below a state the walk reads only that set, ``targets`` and
    whether w is above first, so the cycles below it, and their order, do
    not depend on the path that reached it. A state's node holds the edge
    that closes a cycle from w to root (or -1), w's alive steps in index
    order, and one child per step, filled the first time the walk takes
    that step. So a step out of a state is worked out, flood and all, once
    per first step, however many paths reach the state; after that the walk
    only follows the stored child and sets the path's edges. The memo keys
    a state by w and the bits that left the first step's alive set, a
    smaller int than the set itself.
    """
    s2 = g.n + 2
    free = _above(g, root)
    # (neighbour, edge, bit) steps. A step below root is never alive, so only
    # the first step needs to skip those.
    steps = g.nbr_steps
    # The path's edges as one byte each; a cycle is yielded as a copy.
    on_path = bytearray(g.num_edges)
    for first, first_edge, q in steps[root]:
        if first < root:
            continue  # free ^ 1 << q would set its bit
        targets = sum(1 << p for w, _, p in steps[root] if w > first)
        alive0 = _flood(targets, free ^ 1 << q, s2 - 1)
        # (w, alive ^ alive0) -> (closing edge, [edge, child, w, bit] per
        # alive step, alive ^ alive0).
        memo = {}

        def node(w, alive):
            key = (w, alive ^ alive0)
            state = memo.get(key)
            if state is None:
                close, arcs = -1, []
                for x, e, p in steps[w]:
                    if x == root:
                        if w > first:
                            close = e
                    elif alive >> p & 1:
                        arcs.append([e, None, x, p])
                state = memo[key] = (close, arcs, key[1])
            return state

        top = node(first, alive0)
        if not top[1]:  # no way on from first back to a target
            continue
        on_path[first_edge] = 1
        # One frame per path vertex v: its untried arcs, v's state and the
        # edge into v.
        frames = [(iter(top[1]), top, first_edge)]
        while frames:
            arcs, state, _ = frames[-1]
            for arc in arcs:
                e, child = arc[0], arc[1]
                if child is None:
                    inner = _enter(alive0 ^ state[2], arc[3], targets, s2)
                    child = arc[1] = node(arc[2], inner)
                on_path[e] = 1
                if child[0] >= 0:
                    on_path[child[0]] = 1
                    yield bytes(on_path)
                    on_path[child[0]] = 0
                if child[1]:
                    frames.append((iter(child[1]), child, e))
                    break
                on_path[e] = 0
            else:
                on_path[frames.pop()[2]] = 0


# Bit 0 of one lane, as its eight little-endian bytes.
_LANE_ONE = (1).to_bytes(8, "little")


def cycle_masks(g, root):
    """The cycles of ``walk_cycles(g, root)``, in the same order, as a
    read-only ``<u8`` array of edge masks (bit e for edge e).

    Built bottom-up over the walk's search states, one first step at a
    time, so a state reached by many paths is expanded once, not walked
    below once per path. ``visit`` gives a state's list: its closing mask
    (if any), then, for each alive step in index order, the child's list
    with that step's edge added. Root is below every alive vertex, so its
    step, and with it the closing mask, comes first. A closing mask holds
    the first edge too, so every mask is a whole cycle.

    A list is one int holding mask i in bits 64i .. 64i+63, a *lane*
    (broadword arithmetic, Knuth, TAOCP 4A 7.1.3). A child's k masks take
    the step's edge in every lane by one OR with ``ones(k) << e``, where
    ``ones(k)`` sets bit 0 of each of k lanes, and one shift puts them
    after the lists before them. No mask is 0, so a list holds
    ``ceil(bit_length / 64)`` masks and no count is kept. The root's list
    becomes the array through its little-endian bytes, with no int per
    mask. Each list is kept for the first step, keyed by the state, so
    this is for grids small enough to list every cycle of, and whose
    masks fit 64 bits (side 6 or below); ``walk_cycles`` holds only its
    path.
    """
    if g.num_edges > 64:
        raise InvalidParameterError(f"edge masks past 64 bits fit no lane, got side {g.n}")
    s2 = g.n + 2
    free = _above(g, root)
    steps = g.nbr_steps
    cycles = 0
    for first, first_edge, q in steps[root]:
        if first < root:
            continue
        targets = sum(1 << p for w, _, p in steps[root] if w > first)
        # ones[span] sets bit 0 of each lane of a list ``span`` bits wide;
        # like the memo, it is kept for one first step.
        memo, ones = {}, {}

        def visit(w, alive):
            lanes = memo.get((w, alive))
            if lanes is None:
                lanes = 0
                for x, e, p in steps[w]:
                    if x == root:
                        if w > first:
                            lanes = 1 << first_edge | 1 << e
                    elif alive >> p & 1:
                        child = visit(x, _enter(alive, p, targets, s2))
                        # A list is as wide as its lanes up to the top one.
                        span = child.bit_length() + 63 & -64
                        if span not in ones:
                            ones[span] = int.from_bytes(_LANE_ONE * (span // 64), "little")
                        lanes |= (child | ones[span] << e) << (lanes.bit_length() + 63 & -64)
                memo[w, alive] = lanes
            return lanes

        lanes = visit(first, _flood(targets, free ^ 1 << q, s2 - 1))
        cycles |= lanes << (cycles.bit_length() + 63 & -64)
    return np.frombuffer(cycles.to_bytes((cycles.bit_length() + 63 & -64) // 8, "little"), "<u8")


def mask_signatures(words, table):
    """Packed signatures of edge masks given as a uint64 array, the same
    bytes as ``signature_words`` gives for their rows.

    ``table`` is ``TriGrid.mask_signature_table``: one gather per mask byte
    reads that byte's packed face counts, and their bytewise sum is the
    mask's signature, since no face count passes 3 and so no field carries.
    """
    octets = words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    sums = table[0].take(octets[:, 0], axis=0)
    for b in range(1, len(table)):
        sums += table[b].take(octets[:, b], axis=0)
    return sums


def signature_words(rows, face_edges):
    """Per-face edge counts of each cycle row, packed two bits per face.

    Face f takes bits 2f and 2f+1 of the little-endian byte string of its
    row, so the rows compare as byte strings in the order of their packed
    counts. Each face's three edges are added one edge slot at a time into
    one count byte per face, padded to a multiple of four faces, so no
    temporary is wider than one byte per face.
    """
    faces = len(face_edges)
    counts = np.zeros((rows.shape[0], -(-faces // 4) * 4), dtype=np.uint8)
    for k in range(3):
        # ``take`` gives the gather in row-major order; ``rows[:, idx]``
        # comes back column-major and made this sum 4-5 times slower.
        counts[:, :faces] += rows.take(face_edges[:, k], axis=1)
    return counts[:, 0::4] | counts[:, 1::4] << 2 | counts[:, 2::4] << 4 | counts[:, 3::4] << 6
