"""Shared cycle fixtures, entered as closed corner walks.

T5_WALK_A and T5_WALK_B trace two distinct simple cycles on the side-5
grid that carry the same signature; their symmetric difference is the
basis subset for index 2. T6_HEX_RING_WALK traces the 18-edge hexagonal
ring on the side-6 grid, which is both a simple cycle and the basis
subset for index 3.
"""

from trislither import Cycle, EdgeSet, TriGrid, validate_cycle

from oracles import reference_corner_walk_edges

T5_WALK_A = [
    (1, 1), (3, 1), (3, 2), (4, 2), (5, 1), (6, 1), (4, 3), (3, 3),
    (2, 4), (2, 5), (1, 6), (1, 4), (2, 3), (2, 2), (1, 2), (1, 1),
]

T5_WALK_B = [
    (1, 1), (1, 3), (2, 3), (2, 4), (1, 5), (1, 6), (3, 4), (3, 3),
    (4, 2), (5, 2), (6, 1), (4, 1), (3, 2), (2, 2), (2, 1), (1, 1),
]

T6_HEX_RING_WALK = [
    (3, 1), (5, 1), (4, 2), (5, 2), (4, 3), (5, 3), (4, 4), (3, 5),
    (3, 4), (2, 5), (2, 4), (1, 5), (1, 3), (2, 3), (2, 2), (3, 2), (3, 1),
]


def cycle_from_walk(g: TriGrid, walk) -> Cycle:
    return validate_cycle(g, EdgeSet.from_edges(g, reference_corner_walk_edges(g, walk)))


def t5_pair(g5: TriGrid) -> tuple[Cycle, Cycle]:
    return cycle_from_walk(g5, T5_WALK_A), cycle_from_walk(g5, T5_WALK_B)
