"""The benchmark's tracer patches slicesec's layer names; they must all exist.

`bench/tracing.py` is imported from its file, read-only, and installed once:
if any name it wraps were deleted or renamed, installing it would raise.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from slicesec import cli, infotheory, secrecy, slicing, svgplot

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
PATCHED = (cli, infotheory, secrecy, slicing, svgplot.Chart)


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def names():
    return [{name: id(value) for name, value in vars(m).items()} for m in PATCHED]


def test_tracer_installs_and_restores_every_name(tmp_path):
    tracing = load_tracing()
    before = names()
    with tracing.installed(tracing.Tracer(str(tmp_path))):
        during = names()
    assert during != before
    assert names() == before


def test_per_cell_layer_counts(tmp_path):
    # The bench's per-layer metrics rest on these layer boundaries: one
    # channel draw per cell, edges once per party per positioning, no
    # binary-search binning, and one label-table lookup per scheme.
    tracing = load_tracing()
    schemes = ["eqwidth:gray:3", "eqwidth:flfsr:5", "eqprob:binary:4", "eqprob:gray:4"]
    argv = ["sweep", "--samples", "3000", "--t", "0.3,0.6", "--workers", "1",
            "--schemes", ",".join(schemes), "--out", str(tmp_path / "sweep.csv")]
    with tracing.installed(tracing.Tracer(str(tmp_path))) as tracer:
        assert cli.main(argv) == 0
    cells = 2
    calls = tracer.calls
    assert calls["channel.transmit"] == cells
    # Three parties per positioning: 6 compute_edges calls per cell.
    assert calls["slicing.compute_edges.eqwidth"] == 3 * cells
    assert calls["slicing.compute_edges.eqprob"] == 3 * cells
    assert calls["slicing.assign_bins"] == 0
    assert calls["slicing.build_labels"] == len(schemes) * cells
    # Alice's samples and both noise draws, as the tracer reads off `sigma_vacuum`.
    assert tracer.counts["channel.normal_draws"] == 3 * 3000 * cells


def test_histograms_read_the_samples_once_per_cell_and_positioning(tmp_path, monkeypatch):
    # Each positioning's group counts its three pair
    # histograms from the N bin indices, and its (A, B, E) histogram only
    # when some depth's CMI is within capacity, at the deepest such depth.
    # Every other histogram comes from the one above in its depth chain:
    # its cells merge, weighted with their counts, where `_dense` allows
    # the coarse code space for the occupied cells, and otherwise the
    # shifted indices are counted again (a recount). No estimator reads the
    # samples.
    counted, merged = [], []
    build = infotheory._histogram

    def recording_histogram(fields, bits, weights=None):
        cells = build(fields, bits, weights)
        calls = counted if weights is None else merged
        calls.append((cells.ndim, int(cells.counts.sum()), cells.bits))
        return cells

    monkeypatch.setattr(infotheory, "_histogram", recording_histogram)
    schemes = [
        slicing.SlicingScheme("eqwidth", "gray", 3),
        slicing.SlicingScheme("eqwidth", "flfsr", 5),
        slicing.SlicingScheme("eqprob", "binary", 10),  # 2^30 CMI cells: no triple
        slicing.SlicingScheme("eqprob", "gray", 9),  # 2^18 codes for 3000 cells: recount
        slicing.SlicingScheme("eqprob", "binary", 4),  # CMI reported at 4 bits only
    ]
    n = 3000
    tracing = load_tracing()
    with tracing.installed(tracing.Tracer(str(tmp_path))) as tracer:
        table = secrecy.sweep([0.3, 0.6], schemes, secrecy.ChannelParams(0.5, samples=n, seed=1))
    cells = 2
    # (parties, samples, bits per coordinate) of every histogram read from
    # the N samples, per cell: the first of each chain, and the 9-bit recounts.
    per_cell = [(2, n, 5)] * 3 + [(2, n, 10)] * 3 + [(2, n, 9)] * 3 + [(3, n, 5), (3, n, 4)]
    assert Counter(counted) == Counter(per_cell * cells)
    # Merged from the cells above: the 3-bit depth's pairs and triple, and
    # the equal-probability group's 4-bit pairs, from the 9-bit ones.
    assert Counter(merged) == Counter(([(2, n, 3)] * 3 + [(3, n, 3)] + [(2, n, 4)] * 3) * cells)
    for name in ("mutual_information_symbols", "conditional_mi", "mutual_information_bitwise",
                 "bit_error_rate"):
        assert tracer.calls[f"infotheory.{name}"] == 0
    assert tracer.calls["slicing.assign_bins"] == 0
    reported = {str(r.scheme): r.cmi_ab_given_e is not None for r in table.rows}
    assert reported == {"eqwidth:gray:3": True, "eqwidth:flfsr:5": True,
                        "eqprob:binary:10": False, "eqprob:gray:9": False,
                        "eqprob:binary:4": True}
