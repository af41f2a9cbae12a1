import dataclasses
import gc
import math
import os
import signal
import tempfile
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slicesec import (
    AlphabetCapacityError,
    ChannelParams,
    ChannelRealization,
    Numbering,
    Positioning,
    SlicingScheme,
    analytic_gaussian_mi,
    bin_indices,
    bit_error_rate,
    build_labels,
    conditional_mi,
    default_schemes,
    default_t_grid,
    evaluate_scheme,
    evaluate_schemes,
    mutual_information_bitwise,
    mutual_information_symbols,
    secrecy_deltas,
    slice_samples,
    sweep,
    transmit,
)
from slicesec import secrecy
from slicesec.cli import best_rows, emit_csv, read_csv
from slicesec.secrecy import (
    FLOAT_FORMAT,
    SecrecyReport,
    SweepTable,
    check_sweep,
    post_exchange_conditions,
    realization_for_cell,
)
from slicesec.infotheory import CMI_MAX_BITS, plugin_bias
from slicesec.slicing import MAX_BITS

SMALL_T = [0.2, 0.5, 0.8]
SMALL_SCHEMES = [
    SlicingScheme.parse("eqprob:binary:3"),
    SlicingScheme.parse("eqprob:gray:3"),
    SlicingScheme.parse("eqwidth:gray:3"),
    SlicingScheme.parse("eqwidth:flfsr:3"),
]
SMALL_BASE = ChannelParams(transmission=0.5, samples=8000, seed=17)
# Five cells: no worker count from 2 to 4 cuts them into equal blocks.
FIVE_T = [0.1, 0.3, 0.5, 0.7, 0.9]


@pytest.fixture(scope="module")
def small_table():
    return sweep(SMALL_T, SMALL_SCHEMES, SMALL_BASE)


@pytest.fixture(scope="module")
def five_table():
    return sweep(FIVE_T, SMALL_SCHEMES, SMALL_BASE)


def assert_no_child_left():
    # A parallel sweep reaps every child it forked, whichever way it ends.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TwoArgError(Exception):
    """Pickles, but unpickling calls it with its one message argument and fails."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


class TestDeltas:
    def test_arithmetic(self):
        assert secrecy_deltas(2.0, 1.5, 1.0) == (0.5, 1.0)
        assert secrecy_deltas(1.0, 1.0, 1.0) == (0.0, 0.0)

    def test_direct_can_fail_while_reverse_survives(self):
        direct, reverse = secrecy_deltas(0.8, 1.2, 0.3)
        assert direct == pytest.approx(-0.4)
        assert reverse == pytest.approx(0.5)


class TestEvaluateScheme:
    def test_perfect_transmission(self):
        r = transmit(ChannelParams(transmission=1.0, samples=200_000, seed=42))
        rep = evaluate_scheme(r, SlicingScheme.parse("eqprob:gray:4"))
        assert rep.ber_ab == 0.0
        assert rep.i_ab == pytest.approx(4.0, abs=0.01)
        assert rep.i_ae <= 0.01

    def test_half_transmission_symmetry(self):
        r = transmit(ChannelParams(transmission=0.5, samples=200_000, seed=42))
        rep = evaluate_scheme(r, SlicingScheme.parse("eqprob:gray:4"))
        assert abs(rep.i_ab - rep.i_ae) <= 0.02
        assert rep.delta_direct <= 0.02

    def test_delta_fields_are_definitional(self, small_table):
        for rep in small_table.rows:
            d, rr = secrecy_deltas(rep.i_ab, rep.i_ae, rep.i_be)
            assert rep.delta_direct == d
            assert rep.delta_reverse == rr
            assert min(rep.i_ab, rep.i_ae, rep.i_be) >= 0.0

    def test_a_report_holds_only_what_its_cell_measured(self, small_table):
        # A stored margin or collision count could disagree with the values it
        # is a function of, and `emit_csv` would print it as the cell's.
        assert {f.name for f in dataclasses.fields(SecrecyReport)} == {
            "transmission", "scheme", "i_ab", "i_ae", "i_be", "i_ab_sym", "i_ae_sym",
            "i_be_sym", "ber_ab", "ber_ae", "ber_be", "cmi_ab_given_e", "n", "seed",
        }
        rep = small_table.rows[0]
        for derived in ("delta_direct", "delta_reverse", "label_collisions"):
            with pytest.raises(TypeError):
                replace(rep, **{derived: 0})
        for rep in small_table.rows:
            assert rep.delta_direct == rep.i_ab - max(rep.i_ae, rep.i_be)
            assert rep.delta_reverse == rep.i_ab - rep.i_be
        for scheme in (SlicingScheme(p, n, b) for p in Positioning for n in Numbering
                       for b in range(1, MAX_BITS + 1)):
            assert scheme.label_collisions == build_labels(scheme.numbering, scheme.bits).collisions

    def test_cmi_present_at_small_alphabets(self, small_table):
        assert all(rep.cmi_ab_given_e is not None for rep in small_table.rows)
        assert all(rep.cmi_ab_given_e >= 0.0 for rep in small_table.rows)


# Mixed depths and both positionings, so the batched engine shifts deep bin
# indices down where evaluate_scheme bins directly.
MIXED_SCHEMES = [
    SlicingScheme(pos, num, bits)
    for pos in Positioning
    for num in Numbering
    for bits in (7, 1, 3)
]


@pytest.fixture(scope="module", params=[0.3, 0.9])
def mixed_realization(request):
    return transmit(ChannelParams(transmission=request.param, samples=4000, seed=5))


def bitmatrix_report(realization, scheme):
    """Independent reference: slice each party to an N x b BitMatrix and
    apply the BitMatrix estimators, one scheme at a time."""
    a, b, e = (slice_samples(x, scheme)
               for x in (realization.alice, realization.bob, realization.eve))
    i_ab, i_ae, i_be = (mutual_information_bitwise(x, y).value
                        for x, y in ((a, b), (a, e), (b, e)))
    try:
        cmi = conditional_mi(a.symbol_index, b.symbol_index, e.symbol_index).value
    except AlphabetCapacityError:
        cmi = None
    p = realization.params
    return SecrecyReport(
        transmission=p.transmission, scheme=scheme,
        i_ab=i_ab, i_ae=i_ae, i_be=i_be,
        i_ab_sym=mutual_information_symbols(a.symbol_index, b.symbol_index).value,
        i_ae_sym=mutual_information_symbols(a.symbol_index, e.symbol_index).value,
        i_be_sym=mutual_information_symbols(b.symbol_index, e.symbol_index).value,
        ber_ab=bit_error_rate(a, b), ber_ae=bit_error_rate(a, e), ber_be=bit_error_rate(b, e),
        cmi_ab_given_e=cmi, n=p.samples, seed=p.seed,
    )


# Groups at 12, 10 and 8 bits: at N = 5000 a 12-bit pair histogram is too
# sparse to merge into 2^20 codes, so the 10-bit pairs are counted again
# from the shifted bins, while the 8-bit pairs merge and the (A, B, E)
# histogram is built at 8 bits.
SPARSE_SCHEMES = [
    SlicingScheme(pos, num, bits)
    for pos in Positioning
    for num, bits in ((Numbering.GRAY, 12), (Numbering.FLFSR, 10), (Numbering.BINARY, 8))
]


class TestEvaluateSchemes:
    def test_batch_equals_one_scheme_at_a_time(self, mixed_realization):
        batch = evaluate_schemes(mixed_realization, MIXED_SCHEMES)
        assert batch == [evaluate_scheme(mixed_realization, s) for s in MIXED_SCHEMES]

    def test_batch_equals_one_scheme_at_a_time_when_a_depth_is_recounted(self):
        realization = transmit(ChannelParams(transmission=0.4, samples=5000, seed=8))
        batch = evaluate_schemes(realization, SPARSE_SCHEMES)
        assert batch == [evaluate_scheme(realization, s) for s in SPARSE_SCHEMES]

    def test_matches_bitmatrix_reference_exactly(self, mixed_realization):
        batch = evaluate_schemes(mixed_realization, MIXED_SCHEMES)
        assert batch == [bitmatrix_report(mixed_realization, s) for s in MIXED_SCHEMES]

    def test_one_label_call_per_group_and_depth(self, mixed_realization, monkeypatch):
        # One `label_bit_tables` call per (group, depth) serves all three
        # pairs and every numbering; a repeated scheme adds no codebook, so
        # a call takes at most three, and the pairs' label counts are one
        # array of one row per pair and codebook.
        calls = []
        label_bit_tables = secrecy.label_bit_tables

        def recording(pair_labels, marginals, tables):
            calls.append((pair_labels.shape, marginals.shape, tuple(t.bits for t in tables)))
            return label_bit_tables(pair_labels, marginals, tables)

        monkeypatch.setattr(secrecy, "label_bit_tables", recording)
        batch = evaluate_schemes(mixed_realization, MIXED_SCHEMES + MIXED_SCHEMES[:4])
        assert batch[-4:] == batch[:4]
        groups = 2
        assert sorted(calls) == sorted([((3, 3, 1 << d), (3, 1 << d), (d,) * 3)
                                        for d in (7, 1, 3)] * groups)


def test_failure_names_the_scheme_group():
    # Whole-unit values: equal-width bins still exist, but at 2^5 levels
    # many quantiles coincide, so the equal-probability group cannot bin.
    real = transmit(ChannelParams(transmission=0.5, samples=3000, seed=11))
    tied = ChannelRealization(
        alice=np.round(real.alice), bob=np.round(real.bob), eve=np.round(real.eve),
        params=real.params,
    )
    schemes = [SlicingScheme.parse("eqwidth:gray:5"), SlicingScheme.parse("eqprob:gray:5")]
    evaluate_schemes(tied, schemes[:1])
    with pytest.raises(
        ValueError,
        match=r"^quantile boundaries are not strictly increasing .*"
        r" \(alice at 5 bits, in eqprob group\)$",
    ):
        evaluate_schemes(tied, schemes)


@pytest.mark.parametrize("party", ["alice", "bob", "eve"])
def test_failure_names_the_failing_party(party):
    # Only this party's samples are whole-unit values, so only its 2^5
    # quantiles coincide.
    real = transmit(ChannelParams(transmission=0.5, samples=3000, seed=11))
    tied = replace(real, **{party: np.round(getattr(real, party))})
    with pytest.raises(
        ValueError,
        match=r"^quantile boundaries are not strictly increasing .*"
        rf" \({party} at 5 bits, in eqprob group\)$",
    ):
        evaluate_schemes(tied, [SlicingScheme.parse("eqprob:gray:5")])


def test_one_sort_per_party_per_cell(monkeypatch):
    # Three schemes in two groups, and still one argsort per party: every
    # group's bins are read off the ranks of the same sort.
    sorts = []
    argsort = np.argsort

    def counting(*args, **kwargs):
        sorts.append(len(args[0]))
        return argsort(*args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting)
    schemes = [
        SlicingScheme(Positioning.EQUAL_WIDTH, Numbering.GRAY, 4),
        SlicingScheme(Positioning.EQUAL_WIDTH, Numbering.BINARY, 3),
        SlicingScheme(Positioning.EQUAL_PROBABILITY, Numbering.FLFSR, 5),
    ]
    n = 3000
    table = sweep([0.3, 0.6], schemes, ChannelParams(transmission=0.5, samples=n, seed=4))
    assert len(table.rows) == 2 * len(schemes)
    assert sorts == [n] * 3 * 2


@pytest.mark.parametrize("text", [f"eqwidth:gray:{MAX_BITS}", f"eqprob:gray:{MAX_BITS}"])
def test_deepest_scheme_runs_on_sparse_histograms(text):
    # At MAX_BITS each pair spans 2^32 symbol pairs and the 3-way alphabet
    # 2^48 cells; only the occupied cells, at most N, are ever held. With
    # 2^16 bins and N = 70000, equal-probability edges are spaced about one
    # sample apart.
    scheme = SlicingScheme.parse(text)
    realization = transmit(ChannelParams(transmission=0.5, samples=70_000, seed=3))
    (report,) = evaluate_schemes(realization, [scheme])
    assert all(np.isfinite([report.i_ab_sym, report.i_ae_sym, report.i_be_sym]))
    assert report.cmi_ab_given_e is None


@settings(max_examples=120, deadline=None)
@example(positioning=Positioning.EQUAL_WIDTH, depths=[9, 8], t=1.0, extra=0, seed=0)
@example(positioning=Positioning.EQUAL_WIDTH, depths=[16], t=0.0, extra=0, seed=1)
@example(positioning=Positioning.EQUAL_PROBABILITY, depths=[16, 8, 9], t=0.5, extra=0, seed=2)
@given(
    positioning=st.sampled_from(list(Positioning)),
    depths=st.lists(st.integers(1, MAX_BITS), min_size=1, max_size=3, unique=True),
    t=st.sampled_from([0.0, 0.01, 0.3, 0.5, 0.99, 1.0]),
    extra=st.integers(0, 2000),
    seed=st.integers(0, 2**32 - 1),
)
def test_cmi_is_reported_by_depth_as_the_alphabet_product_rule_did(
    positioning, depths, t, extra, seed
):
    # CMI is reported up to CMI_MAX_BITS = 8 bits per party. The former rule
    # multiplied the parties' occupied alphabets and reported up to 2^24
    # cells; it agrees because each party's top bin at depth d is at least
    # 2^(d - 1), its largest sample being no less than the middle boundary.
    samples = (1 << max(depths)) + extra  # down to one sample per bin
    realization = transmit(ChannelParams(transmission=t, samples=samples, seed=seed))
    schemes = [SlicingScheme(positioning, Numbering.BINARY, d) for d in depths]
    for scheme, report in zip(schemes, evaluate_schemes(realization, schemes)):
        reported = scheme.bits <= CMI_MAX_BITS
        assert (report.cmi_ab_given_e is not None) == reported
        parties = (realization.alice, realization.bob, realization.eve)
        sizes = [int(bin_indices(v, scheme).max()) + 1 for v in parties]
        assert (math.prod(sizes) <= 1 << 24) == reported


class TestSweep:
    def test_row_count_and_order(self, small_table):
        assert len(small_table.rows) == len(SMALL_T) * len(SMALL_SCHEMES)
        keys = [(r.transmission, str(r.scheme)) for r in small_table.rows]
        expected = [(t, str(s)) for t in SMALL_T for s in SMALL_SCHEMES]
        assert keys == expected
        assert small_table.t_grid == tuple(SMALL_T)

    def test_deterministic_rerun(self, small_table):
        again = sweep(SMALL_T, SMALL_SCHEMES, SMALL_BASE)
        assert again == small_table

    @pytest.mark.parametrize("workers", [2, 3, 7])
    def test_parallel_matches_serial(self, five_table, workers):
        # Child k runs the k-th contiguous block of cells; the rows come back in t order.
        assert sweep(FIVE_T, SMALL_SCHEMES, SMALL_BASE, workers=workers) == five_table
        assert_no_child_left()

    def test_children_never_outnumber_the_cells(self, small_table, monkeypatch):
        # One child per block, and never more blocks than cells.
        forks = []
        fork = os.fork

        def counted_fork():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(secrecy.os, "fork", counted_fork)
        assert sweep(SMALL_T, SMALL_SCHEMES, SMALL_BASE, workers=10_000) == small_table
        assert forks == [os.getpid()] * len(SMALL_T)
        assert_no_child_left()

    def test_without_fork_the_cells_run_in_this_process(self, five_table, monkeypatch):
        monkeypatch.delattr(os, "fork")  # as on Windows
        monkeypatch.setattr(os, "pipe", None)  # so no child can be started either
        assert sweep(FIVE_T, SMALL_SCHEMES, SMALL_BASE, workers=2) == five_table

    @pytest.mark.parametrize("death, how", [
        (lambda: os._exit(3), "exited with status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
    ], ids=["exit", "signal"])
    def test_a_worker_that_dies_is_named_by_its_block(self, monkeypatch, death, how):
        sweep_cell = secrecy._sweep_cell

        def dying_cell(cell):
            if cell[1] == 0.5:
                death()
            return sweep_cell(cell)

        monkeypatch.setattr(secrecy, "_sweep_cell", dying_cell)
        # With 2 workers, the block of T = 0.5 is cells 2 to 4.
        with pytest.raises(RuntimeError) as info:
            sweep(FIVE_T, SMALL_SCHEMES, SMALL_BASE, workers=2)
        assert str(info.value) == f"T=0.5,0.7,0.9: sweep worker {how} before reporting"
        assert_no_child_left()

    def test_the_earliest_failing_cell_is_raised_unchanged(self, monkeypatch):
        def failing_cell(cell):
            if cell[1] >= 0.3:
                raise RuntimeError(f"T={cell[1]}")  # as `_sweep_cell` raises
            return []

        # Every cell from T = 0.3 (cell 1) on fails: with 3 workers, in blocks 1 and 2.
        monkeypatch.setattr(secrecy, "_sweep_cell", failing_cell)
        for workers in (1, 2, 3):
            with pytest.raises(RuntimeError, match="^T=0.3$"):
                sweep(FIVE_T, SMALL_SCHEMES, SMALL_BASE, workers=workers)
        assert_no_child_left()

    @pytest.mark.parametrize("error", [
        lambda t: type("LocalError", (Exception,), {})(f"no pickle at T={t}"),
        lambda t: TwoArgError("no unpickle", f"T={t}"),
    ], ids=["dumps-fails", "loads-fails"])
    def test_an_error_that_cannot_be_pickled_arrives_as_its_message(self, monkeypatch, error):
        def failing_cell(cell):
            raise error(cell[1])

        monkeypatch.setattr(secrecy, "_sweep_cell", failing_cell)
        with pytest.raises(RuntimeError) as info:
            sweep(FIVE_T, SMALL_SCHEMES, SMALL_BASE, workers=2)
        assert type(info.value) is RuntimeError
        assert str(info.value) == str(error(0.1))
        assert_no_child_left()

    def test_a_failing_block_does_not_wait_for_later_blocks(self, monkeypatch):
        def failing_cell(cell):
            if cell[2] == 0:
                raise RuntimeError("T=0.1: boom")
            if cell[2] >= 2:  # with 2 workers, the second block: cells 2 to 4
                time.sleep(60)
            return []

        monkeypatch.setattr(secrecy, "_sweep_cell", failing_cell)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="^T=0.1: boom$"):
            sweep(FIVE_T, SMALL_SCHEMES, SMALL_BASE, workers=2)
        assert time.perf_counter() - start < 30
        assert_no_child_left()

    @pytest.mark.parametrize("failure", [KeyboardInterrupt, OSError])
    def test_a_parent_that_fails_kills_and_reaps_every_child(self, monkeypatch, failure):
        sweep_cell = secrecy._sweep_cell

        def stuck_cell(cell):
            if cell[2]:  # with 3 workers, every block but the first outlasts the test
                time.sleep(60)
            return sweep_cell(cell)

        def failing_parent(status):
            raise failure("the parent fails after reaping its first child")

        monkeypatch.setattr(secrecy, "_sweep_cell", stuck_cell)
        # Only the parent reads exit statuses.
        monkeypatch.setattr(os, "waitstatus_to_exitcode", failing_parent)
        start = time.perf_counter()
        with pytest.raises(failure):
            sweep(FIVE_T, SMALL_SCHEMES, SMALL_BASE, workers=3)
        assert time.perf_counter() - start < 30
        assert_no_child_left()

    @pytest.mark.parametrize("error", [AssertionError, KeyboardInterrupt])
    def test_a_failed_fork_leaves_no_pipe_open(self, monkeypatch, error):
        def failing_fork():
            raise error("no fork")

        monkeypatch.setattr(secrecy.os, "fork", failing_fork)
        before = os.listdir("/proc/self/fd")
        # Recorded, a ResourceWarning from an unclosed pipe's collection cannot
        # escape into whichever later test the collector happens to run in.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(error, match="^no fork$"):
                sweep([0.3, 0.5], [SlicingScheme("eqprob", "gray", 2)],
                      replace(SMALL_BASE, samples=400), workers=2)
            gc.collect()
        assert len(os.listdir("/proc/self/fd")) == len(before)
        assert [w.message for w in caught] == []
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [0, -3, True, 2.5, 2.0])
    def test_rejects_a_worker_count_that_is_not_an_integer_of_at_least_one(self, workers):
        # Unchecked, 0, -3 and True would run serially and 2.5 would raise a TypeError.
        with pytest.raises(ValueError, match="workers must be"):
            sweep(SMALL_T, SMALL_SCHEMES, SMALL_BASE, workers=workers)

    def test_too_few_samples_are_rejected_before_any_cell_or_fork(self, monkeypatch):
        def ran(*args):
            raise AssertionError("a cell ran or a child was forked")

        monkeypatch.setattr(secrecy.os, "fork", ran)
        monkeypatch.setattr(secrecy, "_sweep_cell", ran)
        # 6 bits place 64 bins, so 40 samples cannot fill them.
        with pytest.raises(ValueError, match="^need at least 64 samples to place 64 bins, got 40$"):
            sweep([0.3, 0.5], [SlicingScheme("eqprob", "gray", 6)],
                  replace(SMALL_BASE, samples=40), workers=2)

    def test_symbol_mi_ignores_numbering(self, small_table):
        # eqprob:binary:3 and eqprob:gray:3 share positioning and bit depth,
        # hence identical bins and identical symbol-level MI on shared data
        for t in SMALL_T:
            cells = {
                str(r.scheme): r for r in small_table.rows if r.transmission == t
            }
            assert (cells["eqprob:binary:3"].i_ab_sym
                    == cells["eqprob:gray:3"].i_ab_sym)

    def test_rejects_empty_grids(self):
        with pytest.raises(ValueError):
            sweep([], SMALL_SCHEMES, SMALL_BASE)
        with pytest.raises(ValueError):
            sweep(SMALL_T, [], SMALL_BASE)
        with pytest.raises(ValueError):
            sweep([1.5], SMALL_SCHEMES, SMALL_BASE)

    def test_rejects_duplicates(self):
        # Streams are keyed by grid index, so a repeated T would get new data.
        with pytest.raises(ValueError, match="repeat"):
            sweep([0.5, 0.5], SMALL_SCHEMES, SMALL_BASE)
        with pytest.raises(ValueError, match="repeat"):
            sweep(SMALL_T, SMALL_SCHEMES[:1] * 2, SMALL_BASE)

    def test_grid_errors_name_the_value(self):
        with pytest.raises(ValueError, match=r"transmission 0\.5 repeats"):
            sweep([0.2, 0.5, 0.5], SMALL_SCHEMES, SMALL_BASE)
        with pytest.raises(ValueError, match="scheme eqprob:gray:3 repeats"):
            sweep(SMALL_T, SMALL_SCHEMES + SMALL_SCHEMES[1:2], SMALL_BASE)
        with pytest.raises(ValueError, match=r"transmission 1\.5 outside"):
            sweep([0.5, 1.5], SMALL_SCHEMES, SMALL_BASE)

    @pytest.mark.parametrize("point", [True, np.True_, "0.5"])
    def test_rejects_a_grid_point_that_is_not_a_number(self, point):
        # Each would pass once converted by float(): as T = 1.0 or 0.5.
        with pytest.raises(ValueError, match=f"transmission must be a number, got {point!r}"):
            sweep([0.2, point], SMALL_SCHEMES, SMALL_BASE)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 17])
    def test_base_with_out_of_range_seed_cannot_be_built(self, seed):
        # seed 2^64 + 17 would draw seed 17's samples under another name.
        with pytest.raises(ValueError, match="seed"):
            sweep(SMALL_T, SMALL_SCHEMES, replace(SMALL_BASE, seed=seed))

    def test_default_grids(self):
        assert len(default_t_grid()) == 19
        assert len(default_schemes()) == 18
        assert len({str(s) for s in default_schemes()}) == 18


def _row(t, scheme, delta_direct, delta_reverse, ber_ab=0.1):
    """The fields of a `read_csv` row that the winner rule reads."""
    return {
        "transmission": t, "scheme": scheme, "bits": SlicingScheme.parse(scheme).bits,
        "ber_ab": ber_ab, "delta_direct": delta_direct, "delta_reverse": delta_reverse,
    }


class TestBestMethod:
    """The one winner rule, `cli.best_rows`, behind `best` and `plot --plot-mode best_vs_t`."""

    def test_single_scheme_wins_everywhere(self, tmp_path):
        path = str(tmp_path / "one.csv")
        emit_csv(sweep(SMALL_T, SMALL_SCHEMES[:1], SMALL_BASE), path)
        winners = best_rows(read_csv(path), "direct")
        assert [s for _, s in winners] == [str(SMALL_SCHEMES[0])] * len(SMALL_T)

    def test_argmax_on_constructed_table(self):
        rows = [
            _row(0.9, "eqprob:gray:4", 0.5, 0.5),
            _row(0.9, "eqprob:flfsr:4", 0.3, 0.3),
            _row(0.3, "eqprob:gray:4", 0.1, 0.1),
            _row(0.3, "eqprob:flfsr:4", 0.2, 0.2),
        ]
        winners = dict(best_rows(rows, "direct"))
        assert winners[0.9] == "eqprob:gray:4"
        assert winners[0.3] == "eqprob:flfsr:4"

    def test_tie_breaks_toward_fewer_bits(self):
        rows = [
            _row(0.5, "eqprob:gray:6", 0.4, 0.4),
            _row(0.5, "eqprob:gray:4", 0.4, 0.4),
        ]
        winners = dict(best_rows(rows, "direct"))
        assert winners[0.5] == "eqprob:gray:4"

    def test_tie_breaks_toward_lower_ber(self):
        rows = [
            _row(0.5, "eqprob:gray:4", 0.4, 0.4, ber_ab=0.2),
            _row(0.5, "eqwidth:gray:4", 0.4, 0.4, ber_ab=0.1),
        ]
        winners = dict(best_rows(rows, "direct"))
        assert winners[0.5] == "eqwidth:gray:4"

    def test_shift_invariance(self):
        rows = [
            _row(0.5, "eqprob:gray:4", 0.4, 0.4),
            _row(0.5, "eqwidth:flfsr:4", 0.1, 0.1),
        ]
        shifted = [
            _row(0.5, "eqprob:gray:4", 0.4 + 2.5, 0.4),
            _row(0.5, "eqwidth:flfsr:4", 0.1 + 2.5, 0.1),
        ]
        assert best_rows(rows, "direct") == best_rows(shifted, "direct")

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            best_rows([_row(0.5, "eqprob:gray:4", 0.4, 0.4)], "sideways")

    def test_each_row_is_looked_up_a_bounded_number_of_times(self):
        lookups = 0

        class CountingRow(dict):
            def __getitem__(self, key):
                nonlocal lookups
                lookups += 1
                return super().__getitem__(key)

        # Scheme-major, so each transmission's two rows lie 500 rows apart;
        # the 4-bit scheme wins at odd i and the 5-bit one at even i.
        ts = [i / 1000 for i in range(500)]
        schemes = ("eqprob:gray:4", "eqwidth:binary:5")
        rows = [
            CountingRow(_row(t, s, float((i + k) % 2), 0.0))
            for k, s in enumerate(schemes) for i, t in enumerate(ts)
        ]
        assert best_rows(rows, "direct") == [(t, schemes[1 - i % 2]) for i, t in enumerate(ts)]
        assert lookups <= 10 * len(rows)  # a rescan per transmission makes it about 500


@pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
def test_post_exchange_conditions_are_the_engines_symbol_estimates(t):
    r = transmit(ChannelParams(transmission=t, samples=20_000, seed=3))
    for bits in (2, 4, 6, 8):
        scheme = SlicingScheme("eqprob", "binary", bits)
        report = evaluate_scheme(r, scheme)
        x, y, z = (bin_indices(v, scheme) for v in (r.alice, r.bob, r.eve))
        estimates = {name: value for name, (value, _) in post_exchange_conditions(r, bits).items()}
        assert estimates == {
            "I(X;Y)": report.i_ab_sym, "I(X;Z)": report.i_ae_sym,
            "I(X;Y|Z)": report.cmi_ab_given_e,
        }
        assert estimates == {
            "I(X;Y)": mutual_information_symbols(x, y).value,
            "I(X;Z)": mutual_information_symbols(x, z).value,
            "I(X;Y|Z)": conditional_mi(x, y, z).value,
        }
    with pytest.raises(AlphabetCapacityError):  # 9 bits, above CMI_MAX_BITS
        post_exchange_conditions(r, bits=9)


def _report(t, scheme):
    """A report of the (t, scheme) cell whose every measurement is t, as a sweep reports its scheme.

    The CMI is left out above `CMI_MAX_BITS` bits, and the sample count has
    room for the deepest scheme's bins; the margins are then 0.
    """
    values = dict.fromkeys(
        ("i_ab", "i_ae", "i_be", "i_ab_sym", "i_ae_sym", "i_be_sym", "ber_ab", "ber_ae",
         "ber_be", "cmi_ab_given_e"), t,
    )
    if scheme.bits > CMI_MAX_BITS:
        values["cmi_ab_given_e"] = None
    return SecrecyReport(transmission=t, scheme=scheme, n=1 << MAX_BITS, seed=1, **values)


_SCHEMES = st.builds(
    SlicingScheme, st.sampled_from(list(Positioning)), st.sampled_from(list(Numbering)),
    st.integers(1, MAX_BITS),
)


@settings(max_examples=200, deadline=None)
@given(
    t_grid=st.lists(st.floats(0.0, 1.0) | st.sampled_from([-0.0, 0.5, 0.5 + 1e-12]),
                    min_size=1, max_size=4),
    schemes=st.lists(_SCHEMES, min_size=1, max_size=4),
)
# Transmissions that print alike at 9 digits.
@example([0.5, 0.500000000001], [SlicingScheme("eqwidth", "gray", 4)])
@example([0.0, -0.0], [SlicingScheme("eqwidth", "gray", 4)])
def test_every_grid_check_sweep_accepts_reads_back(t_grid, schemes):
    try:  # enough samples for every scheme, so only the grid's rules can reject
        check_sweep(t_grid, schemes, replace(SMALL_BASE, samples=1 << MAX_BITS), 1)
    except ValueError:
        return
    rows = tuple(_report(t, s) for t in t_grid for s in schemes)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "sweep.csv")
        emit_csv(SweepTable(rows=rows), path)
        back = read_csv(path)
    assert [(r["transmission"], r["scheme"]) for r in back] == [
        (float(FLOAT_FORMAT % t), str(s)) for t in t_grid for s in schemes
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_symbol_mi_stays_below_the_continuous_channels(seed):
    # Data processing: binning the channel's outputs cannot add information,
    # so each 16-bin symbol MI lies below `analytic_gaussian_mi`, up to the
    # plug-in estimator's bias; these cells lose 0.02-0.09 bits to the bins.
    n = 200_000
    table = sweep([0.2, 0.5, 0.8], [SlicingScheme.parse("eqprob:binary:4")],
                  ChannelParams(0.5, samples=n, seed=seed))
    by_t = {r.transmission: r for r in table.rows}
    cells = [(0.5, "bob", by_t[0.5].i_ab_sym), (0.5, "eve", by_t[0.5].i_ae_sym),
             (0.8, "bob", by_t[0.8].i_ab_sym), (0.2, "eve", by_t[0.2].i_ae_sym)]
    for t, party, estimate in cells:
        analytic = analytic_gaussian_mi(ChannelParams(t), party)
        assert analytic - 0.1 <= estimate <= analytic + plugin_bias(16, 16, n), (t, party)


def test_post_exchange_conditions_hold_mid_transmission():
    r = transmit(ChannelParams(transmission=0.7, samples=50_000, seed=42))
    results = post_exchange_conditions(r, bits=4)
    for name, (estimate, threshold) in results.items():
        assert estimate > threshold, name


def test_cell_realization_shared_across_schemes():
    r1 = realization_for_cell(SMALL_BASE, 0.4, 3)
    r2 = realization_for_cell(SMALL_BASE, 0.4, 3)
    assert np.array_equal(r1.alice, r2.alice)
    assert np.array_equal(r1.bob, r2.bob)


# The 18 schemes of the benchmark's fine-slice grid: 8, 10 and 12 bits.
FINE_SCHEMES = [SlicingScheme(pos, num, bits)
                for pos in Positioning for num in Numbering for bits in (8, 10, 12)]


@pytest.mark.parametrize("schemes, n, budget", [
    (default_schemes(), 200_000, 46), (default_schemes(), 50_000, 51),
    (FINE_SCHEMES, 200_000, 76), (FINE_SCHEMES, 50_000, 89),
], ids=["paper_grid", "paper_grid_5e4", "fine_grid", "fine_grid_5e4"])
def test_one_cell_peak_bytes_per_sample(schemes, n, budget):
    # Every N-sample array of a cell dies at its last use and one histogram
    # is alive at a time, so one T = 0.5 cell peaks at 40 traced bytes per
    # sample on the paper grid at N = 2e5 and 44.7 at the benchmark's 5e4
    # (in the 6-bit CMI's `plugin_mi`), and on the fine grid at 66.3 at
    # N = 2e5 and 77.2 at 5e4, in the 8-bit CMI's `plugin_mi` (each budget
    # is that plus 15%). With the three pair histograms of a depth alive
    # together, and `plugin_mi` allocating each marginal code and gather
    # afresh, the fine grid's were 91.3 and 99.5 and the paper grid's 51.0
    # at 5e4; with every depth coarsened from the deepest, 132 and 152;
    # before that, with the realization, the other group's bins and the
    # (A, B, E) histogram alive past their use, 75 and 183 at 2e5.
    base = ChannelParams(transmission=0.5, samples=n, seed=1)
    sweep([0.5], schemes, replace(base, samples=5000))  # fills the codebook cache
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sweep([0.5], schemes, base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak / n <= budget
