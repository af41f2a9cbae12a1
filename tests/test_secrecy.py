from dataclasses import replace

import numpy as np
import pytest

from slicesec import (
    AlphabetCapacityError,
    ChannelParams,
    Numbering,
    Positioning,
    SlicingScheme,
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
from slicesec.cli import best_rows, emit_csv, read_csv
from slicesec.secrecy import (
    SecrecyReport,
    post_exchange_conditions,
    realization_for_cell,
)
from slicesec.slicing import MAX_BITS

SMALL_T = [0.2, 0.5, 0.8]
SMALL_SCHEMES = [
    SlicingScheme.parse("eqprob:binary:3"),
    SlicingScheme.parse("eqprob:gray:3"),
    SlicingScheme.parse("eqwidth:gray:3"),
    SlicingScheme.parse("eqwidth:flfsr:3"),
]
SMALL_BASE = ChannelParams(transmission=0.5, samples=8000, seed=17)


@pytest.fixture(scope="module")
def small_table():
    return sweep(SMALL_T, SMALL_SCHEMES, SMALL_BASE)


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

    def test_cmi_present_at_small_alphabets(self, small_table):
        assert all(rep.cmi_ab_given_e is not None for rep in small_table.rows)
        assert all(rep.cmi_ab_given_e >= 0.0 for rep in small_table.rows)


# Mixed depths, both positionings and two width multipliers, so the batched
# engine shifts deep bin indices down where evaluate_scheme bins directly.
MIXED_SCHEMES = [
    SlicingScheme(pos, num, bits, width)
    for pos, width in ((Positioning.EQUAL_WIDTH, 3.0), (Positioning.EQUAL_WIDTH, 2.0),
                       (Positioning.EQUAL_PROBABILITY, 3.0))
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
        delta_direct=i_ab - max(i_ae, i_be), delta_reverse=i_ab - i_be,
        cmi_ab_given_e=cmi,
        label_collisions=build_labels(scheme.numbering, scheme.bits).collisions,
        n=p.samples, seed=p.seed,
    )


class TestEvaluateSchemes:
    def test_batch_equals_one_scheme_at_a_time(self, mixed_realization):
        batch = evaluate_schemes(mixed_realization, MIXED_SCHEMES)
        assert batch == [evaluate_scheme(mixed_realization, s) for s in MIXED_SCHEMES]

    def test_matches_bitmatrix_reference_exactly(self, mixed_realization):
        batch = evaluate_schemes(mixed_realization, MIXED_SCHEMES)
        assert batch == [bitmatrix_report(mixed_realization, s) for s in MIXED_SCHEMES]


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


class TestSweep:
    def test_row_count_and_order(self, small_table):
        assert len(small_table.rows) == len(SMALL_T) * len(SMALL_SCHEMES)
        keys = [(r.transmission, str(r.scheme)) for r in small_table.rows]
        expected = [(t, str(s)) for t in SMALL_T for s in SMALL_SCHEMES]
        assert keys == expected

    def test_deterministic_rerun(self, small_table):
        again = sweep(SMALL_T, SMALL_SCHEMES, SMALL_BASE)
        assert again == small_table

    def test_parallel_matches_serial(self, small_table):
        parallel = sweep(SMALL_T, SMALL_SCHEMES, SMALL_BASE, workers=2)
        assert parallel == small_table

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
