import numpy as np

from trislither import build_grid, census
from trislither import _kernels


def test_limit_truncates():
    g = build_grid(3)
    full = _kernels.cycles_from_root(0, g.nbr, g.nbr_edge, g.deg, g.num_edges, -1)
    assert full.shape[0] > 3
    cut = _kernels.cycles_from_root(0, g.nbr, g.nbr_edge, g.deg, g.num_edges, 3)
    assert cut.shape[0] == 3
    assert np.array_equal(cut, full[:3])


def test_signature_words_pack_two_bits_per_face():
    g = build_grid(3)
    rows = _kernels.cycles_from_root(0, g.nbr, g.nbr_edge, g.deg, g.num_edges, -1)
    words = _kernels.signature_words(rows, g.face_edges_idx)
    for row, packed in zip(rows, words):
        expected = 0
        for f, face in enumerate(g.face_edges_idx):
            expected |= sum(int(row[e]) for e in face) << (2 * f)
        assert int.from_bytes(packed.tobytes(), "little") == expected


def test_signature_words_take_zero_rows():
    g = build_grid(3)
    rows = np.zeros((0, g.num_edges), dtype=bool)
    words = _kernels.signature_words(rows, g.face_edges_idx)
    assert words.shape == (0, (2 * g.num_faces + 7) // 8)
    r = census(g, max_cycles=0)
    assert r.partial and r.total_cycles == 0 and r.multiplicities == {}


def test_budgeted_census_stops_enumerating_at_budget(monkeypatch, g5):
    enumerated = []
    dfs = _kernels.cycles_from_root

    def counting(*args):
        rows = dfs(*args)
        enumerated.append(rows.shape[0])
        return rows

    monkeypatch.setattr(_kernels, "cycles_from_root", counting)
    r = census(g5, max_cycles=500)
    assert r.partial and r.total_cycles == 500
    assert sum(enumerated) <= 501
