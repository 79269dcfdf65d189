"""The three workloads: census, algebra and files.

A workload draws its inputs from the seed, builds what its rounds reuse
(``setup``, timed), computes what the outputs must be apart from the
program (``prepare``, untimed) and then runs whole rounds of the same
operations. Every operation goes through ``rec.op(kind, call, check)``:
only ``call`` is timed, and ``check`` returns None or the reason the output
is wrong. Program functions are looked up on their modules at call time,
so a tracer that replaces module attributes sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import sys
import xml.etree.ElementTree as ET
from collections import Counter

import indep


class Program:
    """The trislither modules the workloads call."""

    def __init__(self):
        import trislither.cli  # noqa: F401  (imports every other module)

        mods = sys.modules
        self.grid = mods["trislither.grid"]
        self.cycles = mods["trislither.cycles"]
        self.evenalg = mods["trislither.evenalg"]
        self.transversal = mods["trislither.transversal"]
        self.fileio = mods["trislither.fileio"]
        self.cli = mods["trislither.cli"]


def keys(edge_set) -> set:
    """An EdgeSet of the program as a set of independent edge keys."""
    return {indep.edge_key(a, b) for a, b in edge_set.vertex_pairs()}


def first_problem(*checks) -> str | None:
    """The first failed (condition, message) pair, or None."""
    return next((msg for ok, msg in checks if not ok), None)


def even_problem(tri, indices, edges) -> str | None:
    """Checks a totally even subset with the given decomposition against
    the parity definition, its bottom side and the 12pq size."""
    return first_problem(
        (tri.parity_defect(edges) is None, f"not totally even: {tri.parity_defect(edges)}"),
        (tri.left_indices(edges) == list(indices), "wrong left-half bottom edges"),
        (len(edges) == indep.product_size(tri.n, indices),
         f"{len(edges)} edges, 12pq gives {indep.product_size(tri.n, indices)}"),
    )


def basis_problem(tri, i, edges) -> str | None:
    return first_problem(
        (len(edges) == indep.basis_size(tri.n, i),
         f"basis {i} has {len(edges)} edges, want {indep.basis_size(tri.n, i)}"),
    ) or even_problem(tri, [i], edges)


# -- census ---------------------------------------------------------------------


class Census:
    """Whole-grid census at sides 3 and 4 plus a budgeted census at side 5.

    Cycle DFS, signature packing and grouping do nearly all the work. The
    seed orders each round and moves the budget by up to 25 cycles.
    """

    name = "census"
    tail_pct = 75

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.rng = random.Random(seed)
        if tiny:
            self.whole = {2: 1, 3: 8}
            self.budget_side, budgets = 4, (600,)
        else:
            # Of 10 calls a round (one at side 3, 8 at side 4 and one
            # budgeted), the median falls mid-way through the side-4 calls
            # and p75 in their upper part. Costs differ 3- to 40-fold
            # between sides, so ranks map to calls exactly. A side-3 call
            # varies more from run to run than a side-4 call does, so no
            # rank falls on it. From four rounds on, p75 has at least ten
            # samples above it.
            self.whole = {3: 1, 4: 8}
            self.budget_side, budgets = 5, (2000,)
        self.budgets = [b + self.rng.randint(-25, 25) for b in budgets]

    def setup(self, P) -> None:
        sides = sorted(self.whole) + [self.budget_side]
        self.grids = {n: P.grid.build_grid(n) for n in sides}

    def prepare(self, P) -> None:
        self.tri = {n: indep.Tri(n) for n in self.grids}
        self.expected = {n: indep.census_in_child(n) for n in self.whole}

    def warmup(self, P) -> None:
        P.cycles.census(self.grids[min(self.whole)])

    def round(self, P, rec) -> None:
        calls = [(n, None) for n, reps in self.whole.items() for _ in range(reps)]
        calls += [(self.budget_side, k) for k in self.budgets]
        self.rng.shuffle(calls)
        for n, budget in calls:
            g = self.grids[n]
            if budget is None:
                rec.op(f"census{n}", lambda: P.cycles.census(g), lambda r: self.check_whole(n, r))
            else:
                rec.op(
                    f"census{n}-budget{budget}",
                    lambda: P.cycles.census(g, max_cycles=budget),
                    lambda r: self.check_budget(n, budget, r),
                )

    def check_pairs(self, n, result, repeated) -> str | None:
        tri = self.tri[n]
        for c1, c2 in result.pairs:
            e1, e2 = keys(c1.edge_set), keys(c2.edge_set)
            problem = first_problem(
                (tri.cycle_defect(e1) is None and tri.cycle_defect(e2) is None,
                 "a pair member is not a simple cycle"),
                (e1 != e2, "a pair repeats one cycle"),
                (tri.signature(e1) == tri.signature(e2), "a pair's signatures differ"),
                (repeated is None or tri.signature(e1) in repeated,
                 "a pair's signature is not repeated in the networkx census"),
            )
            if problem:
                return problem
        return None

    def check_whole(self, n, result) -> str | None:
        exp = self.expected[n]
        found = {self.tri[n].signature(keys(c1.edge_set)) for c1, _ in result.pairs}
        return first_problem(
            (not result.partial, "a whole census reports partial"),
            (result.total_cycles == exp["total"],
             f"{result.total_cycles} cycles, networkx finds {exp['total']}"),
            (Counter(result.multiplicities.values()) == exp["histogram"],
             "multiplicity map differs from networkx"),
        ) or self.check_pairs(n, result, exp["repeated"]) or first_problem(
            (result.pair_cap_hit or found == exp["repeated"],
             "pairs do not cover the repeated signatures"),
        )

    def check_budget(self, n, budget, result) -> str | None:
        return first_problem(
            (result.partial, "a budgeted census does not report partial"),
            (result.total_cycles == budget,
             f"{result.total_cycles} cycles under a budget of {budget}"),
            (sum(result.multiplicities.values()) == budget,
             "multiplicities do not sum to the budget"),
        ) or self.check_pairs(n, result, None)


# -- algebra --------------------------------------------------------------------


class Algebra:
    """GF(2) algebra on fresh grids: the first bottom solve, later solves
    (half feasible, half not), recompose/decompose, basis subsets and the
    null-space oracle. The seed draws the patterns and index sets and
    orders each round."""

    name = "algebra"
    tail_pct = 95

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.rng = random.Random(seed)
        if tiny:
            self.later, self.oracle_max = {4: 1, 5: 1, 6: 2, 7: 2}, 6
        else:
            # Later feasible solves per side, each matched by an infeasible
            # one that is faster than any feasible solve. Sides 41 and 48
            # carry most of them, so that the median of the 131 operations
            # of a round falls mid-way through the side-32 feasible solves,
            # and p95 among the 117-159 ms side-41 and side-48 builds and
            # side-25 first solve and oracle. Odd sides exercise the
            # middle-edge rule; the oracle stops at 32 because its
            # elimination grows much faster than the solver's.
            self.later, self.oracle_max = {16: 2, 25: 2, 32: 5, 41: 20, 48: 20}, 32
        self.sides = tuple(self.later)
        self.inputs = {n: self._draw(n, later) for n, later in self.later.items()}

    def _symmetric(self, n):
        while True:
            half = [self.rng.random() < 0.5 for _ in range(n // 2)]
            if any(half):
                return half + [False] * (n % 2) + half[::-1]

    def _draw(self, n, later):
        feasible = [self._symmetric(n) for _ in range(later + 1)]
        infeasible = []
        for _ in range(later):
            p = self._symmetric(n)
            k = self.rng.randrange(n)
            p[k] = not p[k]
            infeasible.append(p)
        half = n // 2
        # recompose builds one basis subset per index, so every index set
        # has two indices and costs the same whatever the seed.
        index_sets = [sorted(self.rng.sample(range(1, half + 1), 2))]
        basis = [self.rng.randint(1, half) for _ in range(2)]
        return {"feasible": feasible, "infeasible": infeasible,
                "index_sets": index_sets, "basis": basis}

    def setup(self, P) -> None:
        # Every grid is built fresh in each round, so the first solve pays
        # for its elimination; setup reuses nothing of the program.
        pass

    def prepare(self, P) -> None:
        self.tri = {n: indep.Tri(n) for n in self.sides}

    def warmup(self, P) -> None:
        g = P.grid.build_grid(6)
        P.evenalg.propagate_from_bottom(g, [0, 1, 0, 0, 1, 0])
        P.evenalg.null_space_oracle(g)

    def round(self, P, rec) -> None:
        ev = P.evenalg
        order = list(self.sides)
        self.rng.shuffle(order)
        for n in order:
            tri, inp = self.tri[n], self.inputs[n]
            g = rec.op(f"build{n}", lambda: P.grid.build_grid(n), lambda r: self.check_grid(tri, r))
            if g is None:
                continue
            first, *later = inp["feasible"]
            rec.op(f"first-solve{n}", lambda: ev.propagate_from_bottom(g, first),
                   lambda r: self.check_solve(tri, first, r))
            steps = [("solve", j, p) for j, p in enumerate(later + inp["infeasible"])]
            steps += [("recompose", j, s) for j, s in enumerate(inp["index_sets"])]
            steps += [("basis", j, i) for j, i in enumerate(inp["basis"])]
            if n <= self.oracle_max:
                steps.append(("oracle", 0, None))
            self.rng.shuffle(steps)
            for kind, j, arg in steps:
                key = f"{kind}{n}:{j}"
                if kind == "solve":
                    rec.op(key, lambda: ev.propagate_from_bottom(g, arg),
                           lambda r: self.check_solve(tri, arg, r))
                elif kind == "recompose":
                    a = rec.op(key, lambda: ev.recompose(g, arg),
                               lambda r: even_problem(tri, arg, keys(r)))
                    if a is not None:
                        rec.op(f"decompose{n}:{j}", lambda: ev.decompose(g, a),
                               lambda r: first_problem((list(r) == arg, f"decompose gave {r}, want {arg}")))
                elif kind == "basis":
                    rec.op(key, lambda: ev.basis_subset(g, arg),
                           lambda r: basis_problem(tri, arg, keys(r)))
                else:
                    rec.op(key, lambda: ev.null_space_oracle(g),
                           lambda r: self.check_oracle(tri, r))

    @staticmethod
    def check_grid(tri, g) -> str | None:
        return first_problem(
            (g.n == tri.n, "wrong side"),
            (g.num_edges == len(tri.edges) and g.num_vertices == len(tri.vertices)
             and g.num_faces == len(tri.faces), "wrong vertex, edge or face count"),
        )

    @staticmethod
    def check_solve(tri, pattern, result) -> str | None:
        if not indep.feasible(pattern):
            return first_problem((result is None, "an infeasible pattern was solved"))
        if result is None:
            return "a feasible pattern was refused"
        edges = keys(result)
        bottom = [tri.bottom(i) in edges for i in range(1, tri.n + 1)]
        return first_problem((bottom == list(pattern), "bottom side differs from the pattern")) \
            or even_problem(tri, tri.left_indices(edges), edges)

    @staticmethod
    def check_oracle(tri, result) -> str | None:
        basis, dim = result
        return first_problem(
            (dim == tri.n // 2, f"dimension {dim}, want {tri.n // 2}"),
            (len(basis) == dim, "basis length differs from the dimension"),
            (all(b and tri.parity_defect(keys(b)) is None for b in basis),
             "an oracle basis vector is empty or not totally even"),
        )


# -- files ----------------------------------------------------------------------


def run_cli(P, argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = P.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def field(text: str, name: str) -> str | None:
    prefix = name + ": "
    return next((ln[len(prefix):] for ln in text.splitlines() if ln.startswith(prefix)), None)


def svg_counts(path: str) -> dict:
    """Counts of drawn elements by class in a well-formed SVG file."""
    root = ET.parse(path).getroot()
    counts = {}
    for el in root.iter():
        tag = el.tag.rsplit("}", 1)[-1]
        key = el.get("class", tag)
        counts[key] = counts.get(key, 0) + 1
    return counts


class Files:
    """File round trips through the CLI and the file readers and writers.

    Per side: ``basis``, a read/write round trip of its file, ``verify`` on
    a totally even and on a spoiled file, ``transversal`` and ``svg``. Per
    side-5 same-signature pair: reading both cycle files with
    ``verify_pair`` and ``alternation_check``, and ``transversal --c1 --c2
    --svg-out``. Malformed files must exit with code 2. The seed draws the
    basis indices, the index sets, the spoiled edge, the cycle file forms
    and the malformed details, and orders each round.
    """

    name = "files"
    tail_pct = 95

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.rng = random.Random(seed)
        self.dir = workdir
        # Of 72 calls a round, the median rank falls mid-way through the
        # 13 side-12 and pair CLI calls, and p95 among the side-48 calls.
        self.sides = (3, 4, 5) if tiny else (5, 12, 24, 30, 36, 42, 48)
        self.pair_side = 5
        self.index_sets = {
            n: sorted(self.rng.sample(range(1, n // 2 + 1), self.rng.randint(1, min(3, n // 2))))
            for n in self.sides
        }
        self.basis_index = {n: self.rng.randint(1, n // 2) for n in self.sides}
        self.spoil = {n: self.rng.random() for n in self.sides}
        self.walk_form = [self.rng.random() < 0.5 for _ in range(16)]
        self.malformed = self._malformed()
        self.digests: dict = {}  # SVG path -> digest of its first render

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def _malformed(self) -> dict:
        r = self.rng
        x = r.randint(1, 3)
        return {
            "no-n.edges": f"edge {x} 1 {x + 1} 1\n",
            "two-n.edges": f"n 5\nn 5\nedge {x} 1 {x + 1} 1\n",
            "bad-n.edges": f"n {r.choice(['five', '5x', '-5'])}\n",
            "zero-n.edges": "n 0\n",
            "short-edge.edges": f"n 5\nedge {x} 1 {x + 1}\n",
            "text-field.edges": f"n 5\nedge {x} 1 {r.choice(['a', '2.5', '?'])} 1\n",
            "far-edge.edges": f"n 5\nedge {x} 1 {x + 2} 1\n",
            "off-grid.edges": f"n 5\nedge {x} {7 - x} {x + 1} {7 - x}\n",
            "twice.edges": f"n 5\nedge {x} 1 {x + 1} 1\nedge {x + 1} 1 {x} 1\n",
            "record.edges": f"n 5\nface {x} 1\n",
            "open-walk.cycle": f"n 5\nwalk 1 1\nwalk {x + 2} 1\nwalk 1 {x + 2}\n",
            "mixed.cycle": "n 5\nwalk 1 1\nwalk 2 1\nwalk 1 2\nwalk 1 1\nedge 1 1 2 1\n",
            "two-loops.cycle": "n 5\nedge 1 1 2 1\nedge 1 1 1 2\nedge 2 1 1 2\n"
                               "edge 4 1 5 1\nedge 4 1 4 2\nedge 5 1 4 2\n",
            "bent-walk.cycle": f"n 5\nwalk 1 1\nwalk {x + 1} 2\nwalk 1 3\nwalk 1 1\n",
        }

    def setup(self, P) -> None:
        os.makedirs(self.dir, exist_ok=True)
        ev = P.evenalg
        for n in self.sides:
            g = P.grid.build_grid(n)
            even = keys(ev.recompose(g, self.index_sets[n]))
            edges = sorted(indep.Tri(n).edges)
            spoiled = even ^ {edges[int(self.spoil[n] * len(edges))]}
            self.write(f"even{n}.edges", indep.edge_file_text(n, even))
            self.write(f"odd{n}.edges", indep.edge_file_text(n, spoiled))
        for name, text in self.malformed.items():
            self.write(name, text)

    def write(self, name: str, text: str) -> None:
        with open(self.path(name), "w", encoding="ascii") as fh:
            fh.write(text)

    def read_keys(self, name: str) -> set:
        with open(self.path(name), encoding="ascii") as fh:
            return indep.parse_edge_file(fh.read())[1]

    def prepare(self, P) -> None:
        self.tri = {n: indep.Tri(n) for n in set(self.sides) | {self.pair_side}}
        self.even = {n: self.read_keys(f"even{n}.edges") for n in self.sides}
        for n in self.sides:
            tri, even = self.tri[n], self.even[n]
            if tri.parity_defect(even) or tri.left_indices(even) != self.index_sets[n]:
                raise RuntimeError(f"input even{n}.edges is not the subset it should be")
            if tri.parity_defect(self.read_keys(f"odd{n}.edges")) is None:
                raise RuntimeError(f"input odd{n}.edges is totally even")
        self.pairs = []
        tri = self.tri[self.pair_side]
        for k, walks in enumerate(indep.census_in_child(self.pair_side)["pairs"]):
            cycles = []
            for j, walk in enumerate(walks):
                edges = {indep.edge_key(a, b) for a, b in zip(walk, walk[1:] + walk[:1])}
                name = f"pair{k}{'ab'[j]}.cycle"
                if self.walk_form[(2 * k + j) % len(self.walk_form)]:
                    self.write(name, indep.walk_file_text(self.pair_side, indep.corners_of(walk)))
                else:
                    self.write(name, indep.edge_file_text(self.pair_side, edges))
                cycles.append(edges)
            only1, only2 = cycles[0] - cycles[1], cycles[1] - cycles[0]
            diff = only1 | only2
            self.write(f"pair{k}.edges", indep.edge_file_text(self.pair_side, diff))
            links = sum(
                1 for es in tri.faces.values() if sum(e in diff for e in es) == 2
            )
            self.pairs.append({"cycles": cycles, "diff": diff, "links": links, "sizes": tri.transversal_sizes(diff),
                               "alternates": tri.alternates(only1, only2)})
        if len(self.pairs) != 8:
            raise RuntimeError(f"networkx found {len(self.pairs)} side-5 pairs, not 8")

    def warmup(self, P) -> None:
        run_cli(P, ["verify", "--in", self.path(f"even{self.sides[0]}.edges")])

    def round(self, P, rec) -> None:
        groups = [("side", n) for n in self.sides]
        groups += [("pair", k) for k in range(len(self.pairs))]
        groups += [("malformed", name) for name in self.malformed]
        self.rng.shuffle(groups)
        for kind, arg in groups:
            if kind == "side":
                self.side_ops(P, rec, arg)
            elif kind == "pair":
                self.pair_ops(P, rec, arg)
            else:
                self.malformed_op(P, rec, arg)

    def cli_op(self, P, rec, key, argv, check):
        rec.op(key, lambda: run_cli(P, argv), check)

    def side_ops(self, P, rec, n) -> None:
        i = self.basis_index[n]
        tri = self.tri[n]
        basis, rt, svg = self.path(f"basis{n}.edges"), self.path(f"rt{n}.edges"), self.path(f"fig{n}.svg")
        even, odd = self.path(f"even{n}.edges"), self.path(f"odd{n}.edges")
        self.cli_op(P, rec, f"cli-basis{n}", ["basis", "--n", str(n), "--i", str(i), "--out", basis],
                    lambda r: self.check_basis(tri, i, r))
        rec.op(f"roundtrip{n}", lambda: P.fileio.write_edge_set(rt, P.fileio.read_edge_set(basis)),
               lambda r: self.check_same_bytes(basis, rt))
        self.cli_op(P, rec, f"cli-verify{n}", ["verify", "--in", even],
                    lambda r: self.check_verify(tri, self.even[n], r))
        self.cli_op(P, rec, f"cli-verify-spoiled{n}", ["verify", "--in", odd],
                    lambda r: first_problem((r[0] == 1 and field(r[1], "totally-even") == "no",
                                             f"a spoiled subset verified with exit {r[0]}")))
        self.cli_op(P, rec, f"cli-transversal{n}", ["transversal", "--in", even],
                    lambda r: self.check_transversal(tri.transversal_sizes(self.even[n]), r))
        argv = ["svg", "--in", basis, "--out", svg]
        self.cli_op(P, rec, f"cli-svg{n}", argv,
                    lambda r: self.check_svg(argv, tri, indep.basis_size(n, i), 0, r))

    def pair_ops(self, P, rec, k) -> None:
        pair = self.pairs[k]
        a, b = self.path(f"pair{k}a.cycle"), self.path(f"pair{k}b.cycle")
        diff, svg = self.path(f"pair{k}.edges"), self.path(f"pair{k}.svg")

        def check_pair():
            fio, cyc = P.fileio, P.cycles
            c1, c2 = fio.read_cycle(a), fio.read_cycle(b)
            g = c1.grid
            report = cyc.verify_pair(g, c1, c2)
            alternates = P.transversal.alternation_check(g, c1.edge_set ^ c2.edge_set, c1, c2)
            return c1, c2, report, alternates

        rec.op(f"pair{k}", check_pair, lambda r: self.check_pair(pair, r))
        argv = ["transversal", "--in", diff, "--c1", a, "--c2", b, "--svg-out", svg]
        self.cli_op(P, rec, f"cli-transversal-pair{k}", argv,
                    lambda r: self.check_transversal(pair["sizes"], r, alternation=True)
                    or self.check_svg(argv, self.tri[self.pair_side], len(pair["diff"]),
                                      pair["links"], r))

    def malformed_op(self, P, rec, name) -> None:
        if name.endswith(".cycle"):
            argv = ["transversal", "--in", self.path("pair0.edges"), "--c1", self.path(name),
                    "--c2", self.path("pair0b.cycle")]
        else:
            argv = ["verify", "--in", self.path(name)]
        self.cli_op(P, rec, f"malformed:{name}", argv,
                    lambda r: first_problem((r[0] == 2 and r[2].startswith("error:"),
                                             f"malformed {name} gave exit {r[0]}")))

    # -- checks --

    def check_basis(self, tri, i, r) -> str | None:
        code, out, _ = r
        if code != 0:
            return f"basis exited {code}"
        with open(self.path(f"basis{tri.n}.edges"), encoding="ascii") as fh:
            n, edges = indep.parse_edge_file(fh.read())
        return first_problem(
            (n == tri.n, "basis file declares the wrong side"),
            (field(out, "edges") == str(len(edges)), "basis reports another size than it wrote"),
        ) or basis_problem(tri, i, edges)

    @staticmethod
    def check_same_bytes(a, b) -> str | None:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return first_problem((fa.read() == fb.read(), "round trip changed the file"))

    @staticmethod
    def check_verify(tri, edges, r) -> str | None:
        code, out, _ = r
        idx = tri.left_indices(edges)
        size = indep.product_size(tri.n, idx)
        return first_problem(
            (code == 0, f"verify exited {code}"),
            (field(out, "totally-even") == "yes", "verify says not totally even"),
            (field(out, "decomposition") == str(idx), f"decomposition {field(out, 'decomposition')}, want {idx}"),
            (size == len(edges) and field(out, "closed-form-size") == str(size), "closed-form size is wrong"),
            (all(field(out, f) == "yes" for f in ("mirror-invariant", "rotation-invariant", "middle-free")),
             "a symmetry the paper proves is reported missing"),
        )

    @staticmethod
    def check_transversal(sizes, r, alternation=False) -> str | None:
        code, out, _ = r
        mod4 = all(s % 4 == 0 for s in sizes)
        shown = field(out, "components")
        got = [] if shown == "none" else sorted(int(s) for s in shown.strip("{}").split(","))
        return first_problem(
            (got == sizes, f"components {got}, want {sizes}"),
            (field(out, "mod4") == ("OK" if mod4 else "FAIL"), "wrong mod-4 verdict"),
            (not alternation or field(out, "alternation") == "OK", "pair transversals do not alternate"),
            (code == (0 if mod4 else 1), f"transversal exited {code}"),
        )

    def check_svg(self, argv, tri, subset_edges, links, r) -> str | None:
        """The SVG written by ``argv`` (its last argument) is well-formed,
        draws what it should, and has the same bytes as on the first call."""
        path = argv[-1]
        if r[0] not in (0, 1):
            return f"exit {r[0]}"
        try:
            counts = svg_counts(path)
        except ET.ParseError as exc:
            return f"SVG is not well-formed: {exc}"
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        first = self.digests.setdefault(path, digest)
        return first_problem(
            (digest == first, "SVG output changed between identical calls"),
            (counts.get("grid", 0) == len(tri.edges), "SVG draws the wrong number of grid edges"),
            (counts.get("subset", 0) == subset_edges, "SVG draws the wrong number of subset edges"),
            (counts.get("transversal", 0) == links, "SVG draws the wrong number of links"),
            (counts.get("circle", 0) == len(tri.vertices), "SVG draws the wrong number of corners"),
        )

    def check_pair(self, pair, r) -> str | None:
        c1, c2, report, alternates = r
        tri = self.tri[self.pair_side]
        diff = pair["diff"]
        idx = tri.left_indices(diff)
        return first_problem(
            ([keys(c1.edge_set), keys(c2.edge_set)] == pair["cycles"], "cycle files read back wrong"),
            (tri.parity_defect(diff) is None and report.diff_totally_even, "difference not totally even"),
            (report.diff_size == len(diff) and len(diff) % 12 == 0 and report.divisible_by_12,
             f"difference size {report.diff_size} is not {len(diff)} or not divisible by 12"),
            (bool(idx) and idx[0] % 2 == 0 and report.smallest_index_even
             and list(report.decomposition) == idx, f"smallest index not even: {idx}"),
            (all(s % 4 == 0 for s in pair["sizes"]), "a transversal is not a multiple of 4"),
            (pair["alternates"] and report.faces_alternate and alternates, "faces do not alternate"),
        )


WORKLOADS = {w.name: w for w in (Census, Algebra, Files)}
