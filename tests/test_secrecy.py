import numpy as np
import pytest

from slicesec import (
    AlphabetCapacityError,
    ChannelParams,
    Numbering,
    Positioning,
    SlicingScheme,
    best_method,
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
from slicesec.secrecy import (
    SecrecyReport,
    SweepTable,
    post_exchange_conditions,
    realization_for_cell,
)

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

    def test_default_grids(self):
        assert len(default_t_grid()) == 19
        assert len(default_schemes()) == 18
        assert len({str(s) for s in default_schemes()}) == 18


def _report(t, scheme, delta_direct, delta_reverse, bits=None, ber_ab=0.1):
    scheme = SlicingScheme.parse(scheme)
    return SecrecyReport(
        transmission=t, scheme=scheme,
        i_ab=max(delta_direct, 0.0) + 1.0, i_ae=1.0, i_be=1.0,
        i_ab_sym=0.0, i_ae_sym=0.0, i_be_sym=0.0,
        ber_ab=ber_ab, ber_ae=0.5, ber_be=0.5,
        delta_direct=delta_direct, delta_reverse=delta_reverse,
        cmi_ab_given_e=None, label_collisions=0, n=10, seed=0,
    )


def _table(rows):
    t_grid = tuple(sorted({r.transmission for r in rows}))
    schemes = tuple({str(r.scheme): r.scheme for r in rows}.values())
    return SweepTable(rows=tuple(rows), t_grid=t_grid, schemes=schemes,
                      base=ChannelParams(0.5, samples=10, seed=0))


class TestBestMethod:
    def test_single_scheme_wins_everywhere(self, small_table):
        one = sweep(SMALL_T, SMALL_SCHEMES[:1], SMALL_BASE)
        winners = best_method(one, "direct")
        assert [s for _, s in winners] == [SMALL_SCHEMES[0]] * len(SMALL_T)

    def test_argmax_on_constructed_table(self):
        rows = [
            _report(0.9, "eqprob:gray:4", 0.5, 0.5),
            _report(0.9, "eqprob:flfsr:4", 0.3, 0.3),
            _report(0.3, "eqprob:gray:4", 0.1, 0.1),
            _report(0.3, "eqprob:flfsr:4", 0.2, 0.2),
        ]
        winners = dict(best_method(_table(rows), "direct"))
        assert str(winners[0.9]) == "eqprob:gray:4"
        assert str(winners[0.3]) == "eqprob:flfsr:4"

    def test_tie_breaks_toward_fewer_bits(self):
        rows = [
            _report(0.5, "eqprob:gray:6", 0.4, 0.4),
            _report(0.5, "eqprob:gray:4", 0.4, 0.4),
        ]
        winners = dict(best_method(_table(rows), "direct"))
        assert winners[0.5].bits == 4

    def test_tie_breaks_toward_lower_ber(self):
        rows = [
            _report(0.5, "eqprob:gray:4", 0.4, 0.4, ber_ab=0.2),
            _report(0.5, "eqwidth:gray:4", 0.4, 0.4, ber_ab=0.1),
        ]
        winners = dict(best_method(_table(rows), "direct"))
        assert str(winners[0.5]) == "eqwidth:gray:4"

    def test_shift_invariance(self):
        rows = [
            _report(0.5, "eqprob:gray:4", 0.4, 0.4),
            _report(0.5, "eqwidth:flfsr:4", 0.1, 0.1),
        ]
        shifted = [
            _report(0.5, "eqprob:gray:4", 0.4 + 2.5, 0.4),
            _report(0.5, "eqwidth:flfsr:4", 0.1 + 2.5, 0.1),
        ]
        assert ([str(s) for _, s in best_method(_table(rows), "direct")]
                == [str(s) for _, s in best_method(_table(shifted), "direct")])

    def test_mode_validation(self, small_table):
        with pytest.raises(ValueError):
            best_method(small_table, "sideways")


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
