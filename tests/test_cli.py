import os
import subprocess
import sys
import time

import pytest

import trislither
from trislither import EdgeSet, basis_subset, build_grid
from trislither import cli
from trislither import grid as grid_module
from trislither.cli import main
from trislither.fileio import MAX_SIDE, read_edge_set, write_cycle, write_edge_set

from refcycles import t5_pair


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_basis_command(tmp_path, capsys):
    out_path = tmp_path / "a.edges"
    code, out, _ = run(capsys, "basis", "--n", "5", "--i", "2", "--out", str(out_path))
    assert code == 0
    assert "edges: 24" in out
    assert "closed-form: 24" in out
    assert len(read_edge_set(out_path)) == 24


def test_basis_small_grid(tmp_path, capsys):
    out_path = tmp_path / "a.edges"
    code, out, _ = run(capsys, "basis", "--n", "2", "--i", "1", "--out", str(out_path))
    assert code == 0
    assert "edges: 6" in out


def test_basis_rejects_bad_index(tmp_path, capsys):
    code, _, err = run(capsys, "basis", "--n", "1", "--i", "1", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "out of range" in err


def test_verify_totally_even(tmp_path, capsys, g6):
    path = tmp_path / "a.edges"
    write_edge_set(path, basis_subset(g6, 3))
    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert code == 0
    assert "totally-even: yes" in out
    assert "decomposition: [3]" in out
    assert "edges: 18" in out
    assert "closed-form-size: 18" in out
    assert "mirror-invariant: yes" in out


def test_verify_empty_set(tmp_path, capsys, g3):
    path = tmp_path / "a.edges"
    write_edge_set(path, EdgeSet.empty(g3))
    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert code == 0
    assert "decomposition: []" in out


def test_verify_single_edge(tmp_path, capsys, g5):
    path = tmp_path / "a.edges"
    write_edge_set(path, EdgeSet.from_pairs(g5, [((1, 1), (2, 1))]))
    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert code == 1
    assert "totally-even: no" in out
    assert "vertex (1,1) has odd incidence" in out



def test_verify_odd_vertex_reason(tmp_path, capsys):
    path = tmp_path / "a.edges"
    # (2,2) is the first vertex that meets the set oddly, in three edges.
    path.write_text("n 4\nedge 2 2 3 2\nedge 2 2 1 3\nedge 2 2 2 3\n")
    grid_module._last_grid.cache_clear()
    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert code == 1
    assert out == "n: 4\nedges: 3\ntotally-even: no\nreason: vertex (2,2) has odd incidence (3)\n"
    # The reason is counted without the neighbour table.
    assert "nbr_edge" not in vars(build_grid(4))

def test_verify_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    for far in ("9 9", "-9223372036854775807 1"):
        path.write_text(f"n 2\nedge 1 1 {far}\n")
        code, _, err = run(capsys, "verify", "--in", str(path))
        assert code == 2
        assert f"bad.edges:2: (1,1) and ({far.replace(' ', ',')}) are not adjacent" in err


def test_verify_rejects_oversized_side_fast(tmp_path, capsys):
    path = tmp_path / "huge.edges"
    path.write_text("n 100000\nedge 1 1 2 1\nedge 2 1 3 1\n")
    t0 = time.perf_counter()
    code, _, err = run(capsys, "verify", "--in", str(path))
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert "huge.edges:1" in err


@pytest.mark.parametrize(
    "walk,message",
    [
        ("walk 1 1\nwalk 1000000000001 1\nwalk 1 1\n", "(49,1) and (50,1) are not adjacent"),
        (f"walk {10**29} 1\nwalk 1 1\nwalk {10**29} 1\n", f"({10**29},1) and ({10**29 - 1},1)"),
    ],
)
def test_hostile_walk_fails_fast(tmp_path, capsys, walk, message):
    a_path = tmp_path / "a.edges"
    write_edge_set(a_path, basis_subset(build_grid(48), 2))
    c_path = tmp_path / "c.cycle"
    c_path.write_text("n 48\n" + walk)
    t0 = time.perf_counter()
    argv = ["transversal", "--in", str(a_path), "--c1", str(c_path), "--c2", str(c_path)]
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert f"c.cycle:2: {message}" in err


def test_overlong_field_is_a_file_error(tmp_path, capsys, g5):
    long = "1" * 5000
    e_path = tmp_path / "long.edges"
    e_path.write_text(f"n 5\nedge 1 1 {long} 1\n")
    code, out, err = run(capsys, "verify", "--in", str(e_path))
    assert (code, out) == (2, "")
    assert "long.edges:2: integer field too long: 5000 digits" in err
    a_path = tmp_path / "a.edges"
    write_edge_set(a_path, basis_subset(g5, 2))
    c_path = tmp_path / "long.cycle"
    c_path.write_text(f"n 5\nwalk 1 1\nwalk {long} 1\nwalk 1 1\n")
    argv = ["transversal", "--in", str(a_path), "--c1", str(c_path), "--c2", str(c_path)]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "long.cycle:3: integer field too long: 5000 digits" in err


@pytest.fixture
def no_grid_build(monkeypatch):
    def refuse(n):
        raise AssertionError(f"a side-{n} grid was built")

    monkeypatch.setattr(cli, "build_grid", refuse)


@pytest.mark.parametrize("n", ["0", "-3", str(MAX_SIDE + 1), "100000"])
@pytest.mark.parametrize(
    "argv",
    [["basis", "--i", "1", "--out", "unused.edges"], ["census", "--max-cycles", "5"], ["oracle"]],
)
def test_side_out_of_range_rejected_before_grid_build(capsys, no_grid_build, argv, n):
    code, _, err = run(capsys, *argv, "--n", n)
    assert code == 2
    assert f"--n must be in 1..{MAX_SIDE}" in err


def test_whole_census_past_side_5_needs_budget(capsys, no_grid_build):
    code, _, err = run(capsys, "census", "--n", "6")
    assert code == 2
    assert "--max-cycles" in err


def test_budgeted_census_past_side_5(capsys):
    code, out, _ = run(capsys, "census", "--n", "6", "--max-cycles", "10")
    assert code == 0
    assert "cycles: 10" in out
    assert "partial: yes" in out


def test_budgeted_census_on_a_large_grid_exits_in_time():
    """The census DFS enters only vertices that can still close a cycle, so
    a small budget on a side-48 grid cannot hang between two cycles."""
    src = os.path.dirname(os.path.dirname(trislither.__file__))
    path = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-m", "trislither.cli", "census", "--n", "48", "--max-cycles", "2"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert "cycles: 2" in proc.stdout
    assert "partial: yes" in proc.stdout


def test_oversized_census_budget_exits_fast(capsys):
    """A budget whose cycle rows would pass the census bound (about 10 GB
    here) is a usage error, raised before the DFS starts."""
    t0 = time.perf_counter()
    code, out, err = run(capsys, "census", "--n", "256", "--max-cycles", "100000")
    elapsed = time.perf_counter() - t0
    assert code == 2
    assert out == ""
    assert err == "error: max_cycles must be <= 1359 at side 256, got 100000\n"
    assert elapsed < 1.0


def test_small_budget_on_the_largest_grid(capsys):
    code, out, _ = run(capsys, "census", "--n", str(MAX_SIDE), "--max-cycles", "2")
    assert code == 0
    assert "cycles: 2" in out
    assert "partial: yes" in out


def test_census_t1(capsys):
    code, out, _ = run(capsys, "census", "--n", "1")
    assert code == 0
    assert "cycles: 1" in out
    assert "distinct-signatures: 1" in out
    assert "partial: no" in out


def test_census_budget_flag(capsys):
    code, out, _ = run(capsys, "census", "--n", "3", "--max-cycles", "50")
    assert code == 0
    assert "cycles: 50" in out
    assert "partial: yes" in out


def test_census_pair_dump(tmp_path, capsys):
    out_dir = tmp_path / "pairs"
    code, out, _ = run(capsys, "census", "--n", "5", "--out", str(out_dir))
    assert code == 0
    assert "max-multiplicity: 2" in out
    assert "pairs: 8" in out
    assert "faces-alternate=yes" in out
    dumped = sorted(p.name for p in out_dir.iterdir())
    assert len(dumped) == 16
    assert dumped[0] == "pair000_a.cycle"


@pytest.mark.parametrize("out", ["taken", "taken/pairs"])
def test_census_out_under_a_file_is_refused_before_the_census(monkeypatch, tmp_path, capsys, out):
    (tmp_path / "taken").write_text("")
    monkeypatch.setattr(cli, "census", lambda *args, **kw: pytest.fail("the census ran"))
    code, stdout, err = run(capsys, "census", "--n", "5", "--out", str(tmp_path / out))
    assert (code, stdout) == (2, "")
    assert err == f"error: --out {tmp_path / out}: {tmp_path / 'taken'} is not a directory\n"
    assert (tmp_path / "taken").read_text() == ""


def test_census_out_is_made_only_for_pairs(tmp_path, capsys):
    code, out, _ = run(capsys, "census", "--n", "2", "--out", str(tmp_path / "a" / "b"))
    assert code == 0 and "pairs: 0" in out
    assert not (tmp_path / "a").exists()


def test_transversal_reference_subset(tmp_path, capsys, g5):
    path = tmp_path / "a.edges"
    write_edge_set(path, basis_subset(g5, 2))
    code, out, _ = run(capsys, "transversal", "--in", str(path))
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("components:"))
    sizes = sorted(int(tok) for tok in line.split("{")[1].rstrip("}").split(","))
    assert sizes == [4, 4, 4, 12]
    assert "mod4: OK" in out


def test_transversal_obstructed_subset(tmp_path, capsys, g2):
    path = tmp_path / "a.edges"
    write_edge_set(path, basis_subset(g2, 1))
    code, out, _ = run(capsys, "transversal", "--in", str(path))
    assert code == 1
    assert "mod4: FAIL" in out
    assert "smallest decomposition index 1 is odd" in out


def test_transversal_empty(tmp_path, capsys, g3):
    path = tmp_path / "a.edges"
    write_edge_set(path, EdgeSet.empty(g3))
    code, out, _ = run(capsys, "transversal", "--in", str(path))
    assert code == 0
    assert "components: none" in out


def test_transversal_with_pair_and_svg(tmp_path, capsys, g5):
    c1, c2 = t5_pair(g5)
    a_path = tmp_path / "a.edges"
    write_edge_set(a_path, c1.edge_set ^ c2.edge_set)
    c1_path = tmp_path / "c1.cycle"
    c2_path = tmp_path / "c2.cycle"
    write_cycle(c1_path, c1)
    write_cycle(c2_path, c2)
    svg_path = tmp_path / "fig.svg"
    code, out, _ = run(
        capsys,
        "transversal",
        "--in", str(a_path),
        "--c1", str(c1_path),
        "--c2", str(c2_path),
        "--svg-out", str(svg_path),
    )
    assert code == 0
    assert "alternation: OK" in out
    text = svg_path.read_text()
    # Three 4-node paths contribute 3 links each, the 12-node loop 12.
    assert text.count('class="transversal"') == 21


@pytest.mark.parametrize("other_side, built", [(5, [5, 5, 5]), (6, [5, 5, 6])])
def test_transversal_reads_the_cycles_onto_the_subset_grid(
    tmp_path, capsys, monkeypatch, g5, other_side, built
):
    from trislither import fileio
    from trislither.cycles import enumerate_cycles

    c1, c2 = t5_pair(g5)
    a_path = tmp_path / "a.edges"
    write_edge_set(a_path, c1.edge_set ^ c2.edge_set)
    if other_side != 5:
        c2 = next(enumerate_cycles(build_grid(other_side), limit=1))
    paths = [tmp_path / "c1.cycle", tmp_path / "c2.cycle"]
    for path, c in zip(paths, (c1, c2)):
        write_cycle(path, c)
    grids = []
    build = fileio.build_grid
    monkeypatch.setattr(fileio, "build_grid", lambda n: grids.append(build(n)) or grids[-1])
    argv = ["transversal", "--in", str(a_path), "--c1", str(paths[0]), "--c2", str(paths[1])]
    code, out, err = run(capsys, *argv)
    assert [g.n for g in grids] == built
    if other_side == 5:
        # The subset's grid is the last one built, so both cycles are read onto it.
        assert all(g is grids[0] for g in grids)
        assert (code, err) == (0, "")
        assert "alternation: OK" in out
    else:
        assert code == 2
        assert err == "error: edge sets live on different grids (n=5 vs n=6)\n"


def test_transversal_header_only_cycle_file(tmp_path, capsys, g5):
    c1, c2 = t5_pair(g5)
    a_path = tmp_path / "a.edges"
    write_edge_set(a_path, c1.edge_set ^ c2.edge_set)
    c1_path, c2_path = tmp_path / "c1.cycle", tmp_path / "c2.cycle"
    c1_path.write_text("n 5\n# note\n")
    write_cycle(c2_path, c2)
    argv = ["transversal", "--in", str(a_path), "--c1", str(c1_path), "--c2", str(c2_path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {c1_path}:0: cycle file has no edge or walk records\n"


@pytest.mark.parametrize("flag", ["--c1", "--c2"])
def test_transversal_lone_cycle_is_usage_error(tmp_path, capsys, g5, flag):
    c1, c2 = t5_pair(g5)
    a_path = tmp_path / "a.edges"
    write_edge_set(a_path, c1.edge_set ^ c2.edge_set)
    c_path = tmp_path / "c.cycle"
    write_cycle(c_path, c1)
    code, out, err = run(capsys, "transversal", "--in", str(a_path), flag, str(c_path))
    assert code == 2
    assert "--c1 and --c2 must be given together" in err
    assert out == ""


def test_svg_empty_grid(tmp_path, capsys, g3):
    path = tmp_path / "a.edges"
    write_edge_set(path, EdgeSet.empty(g3))
    out_path = tmp_path / "fig.svg"
    code, _, _ = run(capsys, "svg", "--in", str(path), "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.count("<circle") == 10
    assert text.count('class="grid"') == 18
    assert text.count('class="subset"') == 0


def test_svg_deterministic(tmp_path, capsys, g6):
    path = tmp_path / "a.edges"
    write_edge_set(path, basis_subset(g6, 3))
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(capsys, "svg", "--in", str(path), "--out", str(p1))[0] == 0
    assert run(capsys, "svg", "--in", str(path), "--out", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().count('class="subset"') == 18


def test_svg_unit_scale_changes_output(tmp_path, capsys, g3):
    path = tmp_path / "a.edges"
    write_edge_set(path, EdgeSet.empty(g3))
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    run(capsys, "svg", "--in", str(path), "--out", str(p1))
    run(capsys, "svg", "--in", str(path), "--out", str(p2), "--unit-px", "20")
    assert p1.read_bytes() != p2.read_bytes()


@pytest.mark.parametrize("unit", ["nan", "inf", "-5", "0"])
def test_svg_rejects_bad_unit(tmp_path, capsys, g3, unit):
    path = tmp_path / "a.edges"
    write_edge_set(path, EdgeSet.empty(g3))
    out_path = tmp_path / "fig.svg"
    code, _, err = run(capsys, "svg", "--in", str(path), "--out", str(out_path), "--unit-px", unit)
    assert code == 2
    assert "unit must be a finite length > 0" in err
    assert not out_path.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_svg_refuses_a_unit_too_large_to_draw(tmp_path, capsys, g5):
    path = tmp_path / "a.edges"
    write_edge_set(path, basis_subset(g5, 2))
    out_path = tmp_path / "fig.svg"
    for argv in (["svg", "--in", str(path), "--out", str(out_path)],
                 ["transversal", "--in", str(path), "--svg-out", str(out_path)]):
        code, out, err = run(capsys, *argv, "--unit-px", "1e308")
        assert code == 2
        assert err.startswith("error:") and "too large to draw" in err
        assert out == ""
        assert not out_path.exists()


def test_transversal_refuses_a_figure_path_before_reporting(tmp_path, capsys, g5):
    path = tmp_path / "a.edges"
    write_edge_set(path, basis_subset(g5, 2))
    svg_path = tmp_path / "missing_dir" / "x.svg"
    code, out, err = run(capsys, "transversal", "--in", str(path), "--svg-out", str(svg_path))
    assert code == 2
    assert err.startswith("error:")
    assert out == ""
    assert not svg_path.parent.exists()


def test_transversal_rejects_bad_unit_before_reporting(tmp_path, capsys, g5):
    path = tmp_path / "a.edges"
    write_edge_set(path, basis_subset(g5, 2))
    svg_path = tmp_path / "fig.svg"
    code, out, err = run(
        capsys, "transversal", "--in", str(path), "--svg-out", str(svg_path), "--unit-px", "nan"
    )
    assert code == 2
    assert "unit must be a finite length > 0" in err
    assert out == ""
    assert not svg_path.exists()


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--n", "6")
    assert code == 0
    assert "dimension: 3" in out


def test_formula_command(capsys):
    code, out, _ = run(capsys, "formula", "--n", "11", "--indices", "4,5")
    assert code == 0
    assert "edges: 60" in out


def test_formula_empty_indices(capsys):
    code, out, _ = run(capsys, "formula", "--n", "9", "--indices", "")
    assert code == 0
    assert "edges: 0" in out


def test_formula_malformed(capsys):
    code, _, err = run(capsys, "formula", "--n", "11", "--indices", "5,4")
    assert code == 2
    assert "strictly increasing" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_repeated_calls_match_fresh_parser(tmp_path, capsys, g5):
    c1, c2 = t5_pair(g5)
    for name, c in (("c1", c1), ("c2", c2)):
        write_cycle(tmp_path / f"{name}.cycle", c)
    write_edge_set(tmp_path / "d.edges", c1.edge_set ^ c2.edge_set)
    names = ("b.edges", "d.edges", "c1.cycle", "c2.cycle", "f.svg")
    p = {name: str(tmp_path / name) for name in names}
    calls = [
        ["basis", "--n", "6", "--i", "3", "--out", p["b.edges"]],
        ["verify", "--in", p["b.edges"]],
        ["svg", "--in", p["b.edges"], "--out", p["f.svg"], "--unit-px", "7.5"],
        ["transversal", "--in", p["d.edges"], "--c1", p["c1.cycle"], "--c2", p["c2.cycle"],
         "--svg-out", p["f.svg"]],
        ["transversal", "--in", p["b.edges"]],
        ["verify", "--in", p["c1.cycle"]],
        ["census", "--n", "3"],
        ["formula", "--n", "11", "--indices", "4,5"],
        ["oracle", "--n", "4"],
        ["basis", "--n", "0", "--i", "1", "--out", p["b.edges"]],
        ["transversal", "--in", p["d.edges"], "--c1", p["c1.cycle"]],
    ]

    def call(argv):
        result = run(capsys, *argv)
        with open(p["f.svg"] if "svg" in " ".join(argv) else p["b.edges"], "rb") as fh:
            return result, fh.read()

    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(call(argv))
    assert [call(argv) for argv in calls + calls] == fresh + fresh
