"""The benchmark's tracer patches slicesec's layer names; they must all exist.

`bench/tracing.py` is imported from its file, read-only, and installed once:
if any name it wraps were deleted or renamed, installing it would raise.
"""

import importlib.util
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
