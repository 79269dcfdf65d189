"""Command-line surface.

Exit codes: 0 = verified / true, 1 = verified false (e.g. a subset that is
not totally even, a failed mod-4 check), 2 = usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .cycles import MAX_WHOLE_CENSUS_SIDE, census, verify_pair
from .errors import InvalidParameterError, TrislitherError
from .evenalg import (
    basis_cardinality,
    basis_subset,
    check_symmetries,
    count_edges_closed_form,
    decompose,
    is_totally_even,
    max_basis_index,
    null_space_oracle,
    totally_even_violation,
)
from .fileio import MAX_SIDE, read_cycle, read_edge_set, write_cycle, write_edge_set
from .grid import TriGrid, build_grid
from .svgfig import render_svg
from .transversal import alternation_check, check_mod4, decompose_transversals


def _grid(n: int) -> TriGrid:
    if not 1 <= n <= MAX_SIDE:
        raise InvalidParameterError(f"--n must be in 1..{MAX_SIDE}, got {n}")
    return build_grid(n)


def _cmd_basis(args) -> int:
    g = _grid(args.n)
    a = basis_subset(g, args.i)
    write_edge_set(args.out, a)
    print(f"n: {g.n}")
    print(f"index: {args.i}")
    print(f"edges: {len(a)}")
    print(f"closed-form: {basis_cardinality(g.n, args.i)}")
    print(f"wrote: {args.out}")
    return 0


def _cmd_verify(args) -> int:
    a = read_edge_set(args.infile)
    g = a.grid
    print(f"n: {g.n}")
    print(f"edges: {len(a)}")
    reason = totally_even_violation(g, a)
    if reason is not None:
        print("totally-even: no")
        print(f"reason: {reason}")
        return 1
    print("totally-even: yes")
    indices = decompose(g, a)
    print(f"decomposition: {indices}")
    print(f"closed-form-size: {count_edges_closed_form(g.n, indices)}")
    rep = check_symmetries(g, a)
    print(f"mirror-invariant: {'yes' if rep.mirror_invariant else 'no'}")
    print(f"rotation-invariant: {'yes' if rep.rotation_invariant else 'no'}")
    print(f"middle-free: {'yes' if rep.middle_free else 'no'}")
    return 0


def _cmd_census(args) -> int:
    # Refused before the grid is built, as ``census`` would refuse it after.
    if args.max_cycles is None and args.n > MAX_WHOLE_CENSUS_SIDE:
        raise InvalidParameterError(
            f"a census past --n {MAX_WHOLE_CENSUS_SIDE} needs --max-cycles, got --n {args.n}"
        )
    # --out is made only if there are pairs, after the census; a file where it
    # or a parent of it would be is refused now, before any output.
    head = args.out
    while head and not os.path.exists(head):
        head = os.path.dirname(head)
    if head and not os.path.isdir(head):
        raise InvalidParameterError(f"--out {args.out}: {head} is not a directory")
    g = _grid(args.n)
    result = census(g, max_cycles=args.max_cycles)
    print(f"n: {g.n}")
    print(f"cycles: {result.total_cycles}")
    print(f"distinct-signatures: {result.distinct_signatures}")
    print(f"max-multiplicity: {result.max_multiplicity}")
    print(f"partial: {'yes' if result.partial else 'no'}")
    print(f"pairs: {len(result.pairs)}")
    for k, (c1, c2) in enumerate(result.pairs):
        rep = verify_pair(g, c1, c2)
        print(
            f"pair {k}: diff-size={rep.diff_size}"
            f" totally-even={'yes' if rep.diff_totally_even else 'no'}"
            f" divisible-by-12={'yes' if rep.divisible_by_12 else 'no'}"
            f" smallest-index-even={'yes' if rep.smallest_index_even else 'no'}"
            f" faces-alternate={'yes' if rep.faces_alternate else 'no'}"
        )
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            write_cycle(os.path.join(args.out, f"pair{k:03d}_a.cycle"), c1)
            write_cycle(os.path.join(args.out, f"pair{k:03d}_b.cycle"), c2)
    return 0


def _cmd_transversal(args) -> int:
    if (args.c1 is None) != (args.c2 is None):
        raise InvalidParameterError("--c1 and --c2 must be given together")
    a = read_edge_set(args.infile)
    g = a.grid
    # Both cycle files are read before any output, so a bad one prints nothing.
    if args.c1 is not None:
        c1 = read_cycle(args.c1)
        c2 = read_cycle(args.c2)
    d = decompose_transversals(g, a)
    # The figure is written before any output, so a refused path prints nothing.
    if args.svg_out:
        _write_svg(args.svg_out, render_svg(g, subset=a, transversals=True))
    sizes = [c.node_count for c in d]
    mod4 = check_mod4(d)
    if sizes:
        print("components: {" + ",".join(str(s) for s in sizes) + "}")
    else:
        print("components: none")
    print(f"mod4: {'OK' if mod4 else 'FAIL'}")
    ok = mod4
    if not mod4 and a:
        indices = decompose(g, a)
        if indices and indices[0] % 2 == 1:
            print(f"note: smallest decomposition index {indices[0]} is odd (obstructed)")
    if args.c1 is not None:
        alt = alternation_check(g, a, c1, c2)
        print(f"alternation: {'OK' if alt else 'FAIL'}")
        ok = ok and alt
    if args.svg_out:
        print(f"wrote: {args.svg_out}")
    return 0 if ok else 1


def _write_svg(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _cmd_svg(args) -> int:
    a = read_edge_set(args.infile)
    _write_svg(args.out, render_svg(a.grid, subset=a))
    print(f"wrote: {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    g = _grid(args.n)
    _, dim = null_space_oracle(g)
    expected = max_basis_index(g.n)
    print(f"n: {g.n}")
    print(f"dimension: {dim}")
    print(f"expected: {expected}")
    return 0 if dim == expected else 1


def _cmd_formula(args) -> int:
    if args.indices.strip():
        indices = [int(tok) for tok in args.indices.split(",")]
    else:
        indices = []
    total = count_edges_closed_form(args.n, indices)
    print(f"n: {args.n}")
    print(f"indices: {indices}")
    print(f"edges: {total}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused: building it
    takes far longer than a parse, and a parse leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="trislither",
        description="Totally even subsets and Slitherlink signatures on triangular grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="write one basis subset to a file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("verify", help="check a saved edge set for total evenness")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("census", help="enumerate cycles and group by signature")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-cycles", type=int, default=None)
    p.add_argument("--out", default=None, help="directory for same-signature pair dumps")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("transversal", help="decompose the midpoint graph of a subset")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--c1", default=None)
    p.add_argument("--c2", default=None)
    p.add_argument("--svg-out", default=None)
    p.set_defaults(func=_cmd_transversal)

    p = sub.add_parser("svg", help="render a saved edge set")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_svg)

    p = sub.add_parser("oracle", help="null-space dimension of the parity system")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("formula", help="evaluate the edge-count product")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--indices", default="", help="comma-separated decomposition indices")
    p.set_defaults(func=_cmd_formula)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (TrislitherError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
