"""Outside-in tracing of slicesec's layers for the benchmark's traced runs.

The tracer replaces the public names that `secrecy`, `slicing` and `cli` call
with timing wrappers. `secrecy` and `cli` use from-imports, so the names are
patched where the caller looks them up, not only in the defining module.
Each wrapper records one span; a span's self time is its duration minus the
time of the spans it encloses, so the self times of every span opened during
a command add up to that command's wall time.

With the `fork` start method, pool workers inherit the patched modules. The
wrapper around `secrecy._sweep_cell` notices it runs in a worker, traces that
worker on its own and writes the worker's totals to ``worker_dir`` after each
cell; `merge_workers` adds them to the parent's totals once the pool is gone.
Under `spawn` or `forkserver` the workers import unpatched modules and their
layers are not traced.
"""

from __future__ import annotations

import functools
import json
import math
import os
import pickle
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    """Per-process span totals: self seconds and calls per name, plus counters."""

    def __init__(self, worker_dir: str) -> None:
        self.worker_dir = worker_dir
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._open: list[float] = []  # child time accumulated by each open span

    @contextmanager
    def span(self, name: str):
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            self.self_s[name] += duration - self._open.pop()
            self.calls[name] += 1
            if self._open:
                self._open[-1] += duration

    def wrap(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of the call's arguments.

        ``after(result, *args)`` updates counters once the call has returned.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name(*args) if callable(name) else name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args)
            return result

        return traced

    def totals(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": dict(self.counts)}

    def merge(self, totals: dict) -> None:
        for name, value in totals["self_s"].items():
            self.self_s[name] += value
        self.calls.update(totals["calls"])
        self.counts.update(totals["counts"])

    def merge_workers(self) -> None:
        """Add the totals each pool worker wrote, then remove the files."""
        for entry in sorted(os.listdir(self.worker_dir)):
            path = os.path.join(self.worker_dir, entry)
            with open(path) as fh:
                self.merge(json.load(fh))
            os.remove(path)


@contextmanager
def installed(tracer: Tracer):
    """Patch slicesec's layer boundaries with ``tracer``'s wrappers; undo on exit."""
    from slicesec import cli, infotheory, secrecy, slicing, svgplot

    def count(key, amount):
        tracer.counts[key] += amount

    def conditional_mi(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except infotheory.AlphabetCapacityError:
                count("infotheory.conditional_mi.capacity_skips", 1)
                raise
        return traced

    parent_pid = os.getpid()

    def sweep_cell(fn):
        @functools.wraps(fn)
        def traced(args):
            if os.getpid() == parent_pid:
                return fn(args)
            if tracer.pid != os.getpid():  # first cell in this worker
                tracer.reset()
            try:
                return fn(args)
            finally:
                path = os.path.join(tracer.worker_dir, f"worker-{os.getpid()}.json")
                with open(path, "w") as fh:
                    json.dump(tracer.totals(), fh)
        return traced

    def after_transmit(real, params, *_):
        count("channel.normal_draws", params.samples * (3 if params.sigma_vacuum > 0 else 1))

    def after_sweep(table, *_):
        by_cell = defaultdict(list)
        for row in table.rows:
            by_cell[row.transmission].append(row)
        count("secrecy.result_bytes", sum(len(pickle.dumps(rows)) for rows in by_cell.values()))

    def patch(module, attr, name, after=None):
        return module, attr, tracer.wrap(name, getattr(module, attr), after)

    patches = [
        patch(secrecy, "transmit", "channel.transmit", after_transmit),
        patch(secrecy, "slice_samples", "slicing.slice_samples",
              lambda r, *_: count("slicing.bitmatrix_bytes", r.bits.nbytes)),
        patch(slicing, "compute_edges",
              lambda samples, scheme: f"slicing.compute_edges.{scheme.positioning.value}"),
        patch(slicing, "assign_bins", "slicing.assign_bins"),
        patch(slicing, "build_labels", "slicing.build_labels"),
        patch(secrecy, "build_labels", "slicing.build_labels"),
        patch(secrecy, "mutual_information_bitwise", "infotheory.mutual_information_bitwise",
              lambda r, a, b: count("infotheory.hist_cells", 4 * a.n_bits)),
        patch(secrecy, "bit_error_rate", "infotheory.bit_error_rate"),
        patch(secrecy, "mutual_information_symbols", "infotheory.mutual_information_symbols",
              lambda r, *_: count("infotheory.hist_cells", math.prod(r.alphabet_sizes))),
        (secrecy, "conditional_mi", tracer.wrap(
            "infotheory.conditional_mi", conditional_mi(secrecy.conditional_mi),
            lambda r, *_: count("infotheory.hist_cells", math.prod(r.alphabet_sizes)))),
        patch(secrecy, "evaluate_scheme", "secrecy.evaluate_scheme"),
        (secrecy, "_sweep_cell", sweep_cell(secrecy._sweep_cell)),
        patch(cli, "sweep", "secrecy.sweep", after_sweep),
        patch(cli, "emit_csv", "cli.emit_csv",
              lambda r, table, path: count("cli.csv_bytes", os.path.getsize(path))),
        patch(cli, "read_csv", "cli.read_csv"),
        patch(cli, "emit_plot", "cli.emit_plot"),
        patch(svgplot.Chart, "render", "svgplot.Chart.render",
              lambda svg, *_: count("svgplot.svg_bytes", len(svg.encode()))),
    ]
    saved = [(module, attr, module.__dict__[attr]) for module, attr, _ in patches]
    try:
        for module, attr, wrapper in patches:
            setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
