"""Byte pins of `svgplot.Chart` on the chart shapes that no sweep's report draws."""

import hashlib

import pytest

from slicesec.svgplot import Chart, Series

T = [0.1, 0.3, 0.5, 0.7, 0.9]

CASES = {
    "one transmission": (
        Chart("one", "x", "y", [Series("a", [0.5], [0.25])]),
        "e095a28b3089e5cc8daf9ed2d5be381a2fb7667597be6feb2c6489c5b008ea52",
    ),
    "flat y": (
        Chart("flat", "x", "y", [Series("a", T, [0.3] * 5)]),
        "170677bf00b715ea368e3617a12943d7e3b0b468917f32b9e95ab2421a36e4a1",
    ),
    "y crosses 0": (
        Chart("cross", "x", "y", [Series("a", T, [-0.2, -0.05, 0.0, 0.15, 0.4])]),
        "65f75769d81ee9bd6293f890335683e99e310fa8c2c0a2d86cdf970b0d58338b",
    ),
    "step and dashed": (
        Chart("styles", "x", "y", [
            Series("step", T, [0.0, 1.0, 1.0, 2.0, 0.0], step=True),
            Series("dashed", T, [0.5, 0.6, 0.7, 0.8, 0.9], dashed=True),
            Series("both", T, [2.0, 1.5, 1.0, 0.5, 0.0], dashed=True, step=True),
        ]),
        "a6f4fe293a10eba379c149b9e8ce970934ec48ee95f21e8bc693f540f52b7e7f",
    ),
    "palette wraps": (
        Chart("twenty", "x", "y", [Series(f"s{i}", T, [i * t for t in T]) for i in range(20)]),
        "ba1063fcb326e53c266a582d3f7dc44592a9ce8a4edb68372955e1e801928f92",
    ),
    "escaped label": (
        Chart("a & <b>", "x & y", "<y>", [Series("I<&>J", T, [1.0, 2.0, 3.0, 2.0, 1.0])]),
        "3c388e6f835f29586793ad3049e84b71abfde6b5e52fbbd4d6a584abf794700f",
    ),
    "ticks inside the data": (
        Chart("ticks", "x", "y", [Series("a", T, [0.0, 4.0, 10.0, 6.0, 1.0])],
              y_ticks=[(2.0, "two"), (5.0, "five & <more>")]),
        "2abcaac9c818cd15362667706a7b34d82f9722476d7eb9a1d8a9449218ed2af5",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_chart_bytes_are_pinned(name):
    chart, digest = CASES[name]
    assert hashlib.sha256(chart.render().encode()).hexdigest() == digest
