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
