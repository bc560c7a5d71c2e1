import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from layered442 import qkd
from layered442.circuit import ALL_KETS, DIMS_442, make_psi442, noisy_psi442
from layered442.fixtures import load_measured_elements, load_measured_qkd_rows, qber_report_from_row
from layered442.qkd import (
    LAYERS,
    LayerSpec,
    QberReport,
    asymptotic_key_rate,
    binary_entropy,
    compute_qbers,
    key_map_ab,
    key_map_abc,
    qbers_from_counts,
    round_table,
    sample_x_rounds,
    sample_z_rounds,
)
from layered442.tomography import CountRecord, born_probabilities, count_tables, setting_outcomes
from layered442.witness import OFFDIAG_PAIRS

from conftest import choice_draws, empirical_mutual_information


V_EXP = 0.8493


class TestKeyMaps:
    def test_abc_map(self):
        assert key_map_abc(0) == 0 and key_map_abc(2) == 0
        assert key_map_abc(1) == 1 and key_map_abc(3) == 1

    def test_ab_map(self):
        assert key_map_ab(0) == 0 and key_map_ab(1) == 0
        assert key_map_ab(2) == 1 and key_map_ab(3) == 1

    def test_party_c_identity_on_qubit(self):
        assert key_map_abc(0) == 0
        assert key_map_abc(1) == 1

    def test_range(self):
        with pytest.raises(ValueError):
            key_map_abc(4)
        with pytest.raises(ValueError):
            key_map_ab(-1)


class TestLayers:
    def test_partition_of_signal_kets(self):
        signal = ("000", "111", "220", "331")
        abc_layers = [l for l in LAYERS if l.is_tripartite]
        ab_layers = [l for l in LAYERS if not l.is_tripartite]
        for ket in signal:
            in_abc = [l for l in abc_layers if ket in l.signal_kets]
            in_ab = [l for l in ab_layers if ket[:2] in l.signal_kets]
            assert len(in_abc) == 1
            assert len(in_ab) == 1

    def test_x_setting_labels(self):
        labels = {l.layer_id: l.x_setting_label for l in LAYERS}
        assert labels["ABC-layer-0"] == "X01-X01-X01"
        assert labels["ABC-layer-1"] == "X23-X23-X01"
        assert labels["AB-layer-0"] == "X02-X02-Z"
        assert labels["AB-layer-1"] == "X13-X13-Z"

    def test_derived_fields(self):
        # signal_kets names the CSV subspace column; the rest picks the sifted outcomes.
        fields = {l.layer_id: (l.kets, l.party_indices, l.participants, l.signal_kets,
                               l.digit_pairs) for l in LAYERS}
        assert fields == {
            "ABC-layer-0": (("000", "111"), (0, 1, 2), ("A", "B", "C"), ("000", "111"),
                            ((0, 1), (0, 1), (0, 1))),
            "ABC-layer-1": (("220", "331"), (0, 1, 2), ("A", "B", "C"), ("220", "331"),
                            ((2, 3), (2, 3), (0, 1))),
            "AB-layer-0": (("000", "220"), (0, 1), ("A", "B"), ("00", "22"), ((0, 2), (0, 2))),
            "AB-layer-1": (("111", "331"), (0, 1), ("A", "B"), ("11", "33"), ((1, 3), (1, 3))),
        }

    @pytest.mark.parametrize("kets", [("000", "221"), ("111", "000"), ("00", "22")])
    def test_layer_is_a_signal_pair(self, kets):
        message = f"layer 'bad' with kets {kets!r} is not one of the 4 layers of qkd.LAYERS"
        with pytest.raises(ValueError, match=re.escape(message)):
            LayerSpec("bad", kets)

    @pytest.mark.parametrize("layer_id, kets", [
        ("AB-layer-0", ("000", "111")),  # a layer's id on another layer's pair
        ("x", ("000", "331")),  # a signal pair that is no layer
    ], ids=["mislabelled", "no-layer"])
    def test_layer_is_one_of_the_four(self, layer_id, kets):
        # Both are signal pairs, so only the table of LAYERS can refuse them.
        assert kets in OFFDIAG_PAIRS
        message = f"layer {layer_id!r} with kets {kets!r} is not one of the 4 layers of qkd.LAYERS"
        with pytest.raises(ValueError, match=re.escape(message)):
            LayerSpec(layer_id, kets)
        assert all(LayerSpec(layer.layer_id, layer.kets) == layer for layer in LAYERS)

    def test_key_map_separates_every_signal_pair(self):
        # Every layer gives its two kets different key bits.
        for layer in LAYERS:
            key_map = key_map_abc if layer.is_tripartite else key_map_ab
            assert all(key_map(a) != key_map(b) for a, b in layer.digit_pairs)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_half(self):
        assert abs(binary_entropy(0.5) - 1.0) < 1e-15

    def test_published_qber_value(self):
        # frozen from a 50-digit bignum evaluation of -p lg p - (1-p) lg (1-p)
        assert abs(binary_entropy(0.069) - 0.36218071725715646) < 1e-12

    def test_against_bignum_oracle(self):
        with localcontext() as ctx:
            ctx.prec = 50
            for p in (0.069, 0.033, 0.023, 0.0001, 0.4999):
                q = Decimal(p)
                expect = -(q * q.ln() + (1 - q) * (1 - q).ln()) / Decimal(2).ln()
                assert abs(binary_entropy(p) - float(expect)) < 1e-12

    def test_range(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestKeyRate:
    def test_published_row_1(self):
        report = qber_report_from_row(load_measured_qkd_rows()[0])
        rate = asymptotic_key_rate(report)
        assert abs(rate.rate_mean - 0.4286) < 5e-4
        assert abs(rate.rate_mean - 0.428) <= 0.001

    def test_all_rows_within_band(self):
        for row in load_measured_qkd_rows():
            rate = asymptotic_key_rate(qber_report_from_row(row))
            assert abs(rate.rate_mean - row["key_per_round"]) < 0.06

    def test_zero_errors_give_unit_rate(self):
        report = QberReport("ABC-layer-0", 0, 0, 0, 0, 0, 0, 0, 0)
        rate = asymptotic_key_rate(report)
        assert rate.rate_mean == 1.0
        assert rate.rate_pessimistic == 1.0

    def test_half_qber_x_clamps_to_zero(self):
        report = QberReport("ABC-layer-0", 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert asymptotic_key_rate(report).rate_mean == 0.0

    def test_pessimistic_below_mean(self):
        for row in load_measured_qkd_rows():
            rate = asymptotic_key_rate(qber_report_from_row(row))
            assert rate.rate_pessimistic <= rate.rate_mean

    def test_monotone_in_each_qber(self):
        grid = np.linspace(0.0, 0.5, 11)
        base = dict(qber_z=0.0, qber_z_std=0.0, qber_x=0.02, qber_x_std=0.0,
                    qber_z_ab=0.02, qber_z_ab_std=0.0, qber_z_ac=0.02, qber_z_ac_std=0.0)
        for field in ("qber_x", "qber_z_ab", "qber_z_ac"):
            rates = []
            for q in grid:
                kwargs = dict(base)
                kwargs[field] = q
                rates.append(asymptotic_key_rate(QberReport("ABC-layer-0", **kwargs)).rate_mean)
            assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))

    def test_reference_party_selects_pairs(self):
        # A is the reference: a bad AC pair costs key, a bad BC pair does not
        pairs = dict(qber_z_ab=0.0, qber_z_ab_std=0.0, qber_z_ac=0.0, qber_z_ac_std=0.0,
                     qber_z_bc=0.0, qber_z_bc_std=0.0)
        bad_ac = QberReport("ABC-layer-0", 0.0, 0.0, 0.0, 0.0, **{**pairs, "qber_z_ac": 0.3})
        bad_bc = QberReport("ABC-layer-0", 0.0, 0.0, 0.0, 0.0, **{**pairs, "qber_z_bc": 0.3})
        assert asymptotic_key_rate(bad_ac).rate_mean == pytest.approx(1 - binary_entropy(0.3))
        assert asymptotic_key_rate(bad_bc).rate_mean == 1.0


class TestComputeQbers:
    def test_noiseless_layers(self):
        rho = make_psi442().density()
        z = sample_z_rounds(rho, 20000, seed=1)
        for layer in LAYERS:
            x = sample_x_rounds(rho, layer, 20000, seed=1)
            rep = compute_qbers({"Z": z, "X": x}, layer)
            assert rep.qber_z == 0.0
            assert rep.qber_x == 0.0
            if layer.is_tripartite:
                assert rep.qber_z_ab == 0.0 and rep.qber_z_ac == 0.0
            else:
                assert rep.qber_z_ab is None and rep.qber_z_ac is None
            rate = asymptotic_key_rate(rep)
            assert rate.rate_mean == 1.0

    def test_visibility_band(self):
        # white noise is only a stand-in for the experiment's noise: demand
        # order-of-magnitude agreement with the published 0.044
        rho = noisy_psi442(V_EXP)
        z = sample_z_rounds(rho, 60000, seed=2)
        x = sample_x_rounds(rho, LAYERS[0], 60000, seed=2)
        rep = compute_qbers({"Z": z, "X": x}, LAYERS[0])
        assert 0.01 < rep.qber_z < 0.12
        assert 0.01 < rep.qber_x < 0.12
        assert rep.qber_z_std > 0

    def test_exact_probability_counts_match_analytic(self):
        # feeding Born probabilities as counts gives the closed-form QBERs
        v = V_EXP
        rho = noisy_psi442(v)
        tables = {}
        for label in ("Z", LAYERS[0].x_setting_label):
            tables[label] = born_probabilities(rho, label)
        rep = qbers_from_counts(tables, LAYERS[0])
        qz_expect = (6 * (1 - v) / 32) / (v / 2 + 8 * (1 - v) / 32)
        qx_expect = (1 - v) / (2 * (v + 1))
        assert abs(rep.qber_z - qz_expect) < 1e-12
        assert abs(rep.qber_x - qx_expect) < 1e-12

    def test_fixture_rows_round_trip(self):
        for row in load_measured_qkd_rows():
            rep = qber_report_from_row(row)
            assert rep.qber_z == row["qber_z"][0]
            assert rep.qber_x == row["qber_x"][0]
            if "qber_z_ab" in row:
                assert rep.qber_z_ab == row["qber_z_ab"][0]

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            compute_qbers({"Z": np.empty(0), "X": np.empty(0)}, LAYERS[0])

    @pytest.mark.parametrize("basis, index, value, message", [
        ("Z", np.s_[:100], 32, r"Z rounds must be outcome indices in \[0, 32\) of setting Z"),
        ("Z", np.s_[:100], -1, r"Z rounds must be outcome indices in \[0, 32\) of setting Z"),
        ("Z", np.s_[-1:], 40, r"Z rounds must be outcome indices in \[0, 32\) of setting Z"),
        ("X", np.s_[:100], 9, r"\[0, 9\) of setting X01-X01-X01"),
        ("X", np.s_[:100], -1, r"\[0, 9\) of setting X01-X01-X01"),
    ])
    def test_malformed_rounds_rejected(self, basis, index, value, message):
        rho = noisy_psi442(V_EXP)
        samples = {"Z": sample_z_rounds(rho, 1000, seed=4),
                   "X": sample_x_rounds(rho, LAYERS[0], 1000, seed=4)}
        samples[basis][index] = value
        with pytest.raises(ValueError, match=message):
            compute_qbers(samples, LAYERS[0])

    def test_round_table_needs_no_layer(self):
        # A layer's X rounds bin by the setting label alone, as count_tables bins records.
        x = sample_x_rounds(noisy_psi442(V_EXP), LAYERS[1], 1000, seed=4)
        label = LAYERS[1].x_setting_label
        outcomes = setting_outcomes(label)
        records = [CountRecord(label, o, int(np.count_nonzero(x == k)))
                   for k, o in enumerate(outcomes)]
        assert np.array_equal(round_table(x, label), count_tables(records)[label])

    def test_unknown_setting_or_basis_rejected(self):
        # Rounds of a setting outside the standard plan, or under a key that is not a basis,
        # are refused by name, not dropped.
        rounds = sample_z_rounds(noisy_psi442(V_EXP), 100, seed=4)
        with pytest.raises(ValueError, match="setting 'Q' is not one of the 21 settings"):
            round_table(rounds, "Q")
        with pytest.raises(ValueError, match="samples key 'Q' is neither 'Z' nor 'X'"):
            compute_qbers({"Z": rounds, "Q": rounds}, LAYERS[0])

    def test_x_rounds_only_for_standard_layers(self):
        rho = noisy_psi442(V_EXP)
        for index, layer in enumerate(LAYERS):
            # each standard layer keeps its own stream
            drawn = choice_draws(rho, layer.x_setting_label, 500, 6, qkd._X_STREAM_BASE + index)
            assert np.array_equal(sample_x_rounds(rho, layer, 500, seed=6), drawn)
        # No other layer can be built, so none can be drawn.
        with pytest.raises(ValueError, match="'ABC-custom' with kets .* is not one of the 4 layers"):
            LayerSpec("ABC-custom", ("000", "331"))

    def test_sift_fractions_near_half(self):
        rho = make_psi442().density()
        z = sample_z_rounds(rho, 40000, seed=3)
        x = sample_x_rounds(rho, LAYERS[0], 40000, seed=3)
        rep = compute_qbers({"Z": z, "X": x}, LAYERS[0])
        assert abs(rep.sift_fraction_z - 0.5) < 0.02
        assert abs(rep.sift_fraction_x - 0.5) < 0.02

    @pytest.mark.parametrize("label, size, expected", [("Z", 31, 32), ("X01-X01-X01", 8, 9)])
    def test_counts_of_wrong_length_rejected(self, label, size, expected):
        tables = {"Z": np.ones(32), "X01-X01-X01": np.ones(9), label: np.ones(size)}
        with pytest.raises(ValueError, match=rf"'{label}' needs {expected} counts"):
            qbers_from_counts(tables, LAYERS[0])

    def test_counts_missing_setting(self):
        with pytest.raises(ValueError, match="X01-X01-X01"):
            qbers_from_counts({"Z": {"000": 10}}, LAYERS[0])


@st.composite
def outcome_weights(draw):
    """1 to 32 outcome weights: a single non-zero entry, cdf values exactly on the
    guide-table bucket edges k/4096 (leading and trailing zeros among them), or a
    mix of zeros, entries below 2**-12 and entries in [0, 1]."""
    k = draw(st.integers(1, 32))
    shape = draw(st.sampled_from(["single", "edges", "mixed"]))
    if shape == "single":
        p = np.zeros(k)
        p[draw(st.integers(0, k - 1))] = draw(st.floats(1e-300, 1e300))
    elif shape == "edges":
        cuts = sorted(draw(st.lists(st.integers(0, 4096), min_size=k - 1, max_size=k - 1)))
        p = np.diff([0, *cuts, 4096]) / 4096
    else:
        entry = st.one_of(st.just(0.0), st.floats(2.0**-40, 2.0**-12), st.floats(0.0, 1.0))
        p = np.array(draw(st.lists(entry, min_size=k, max_size=k)))
        assume(p.sum() > 0)
    return p


class TestOutcomeDraws:
    @settings(max_examples=300, deadline=None)
    @given(p=outcome_weights(), n=st.integers(1, 5000), seed=st.integers(0, 2**32 - 1))
    def test_equal_generator_choice_index_for_index(self, p, n, seed):
        expected = np.random.default_rng(seed).choice(p.size, size=n, p=p / p.sum())
        drawn = qkd._draw_indices(p, n, np.random.default_rng(seed), "Z")
        assert drawn.dtype == expected.dtype
        assert np.array_equal(drawn, expected)

    @pytest.mark.parametrize("p", [[0.5, np.nan, 0.5], [0.5, -0.1, 0.6], [0.0, 0.0],
                                   [0.5, np.inf]], ids=["nan", "negative", "all-zero", "infinite"])
    def test_invalid_probabilities_name_the_setting(self, p):
        with pytest.raises(ValueError, match=r"setting 'X01-X01-X01': outcome probabilities"):
            qkd._draw_indices(np.array(p), 10, np.random.default_rng(1), "X01-X01-X01")


class TestIdealCorrelations:
    def test_key_agreement_and_independence(self):
        rho = make_psi442().density()
        z = np.column_stack(np.unravel_index(sample_z_rounds(rho, 100000, seed=8), DIMS_442))
        abc_bits = np.vectorize(key_map_abc)(z)
        assert np.all(abc_bits[:, 0] == abc_bits[:, 1])
        assert np.all(abc_bits[:, 0] == abc_bits[:, 2])
        ab_bits = np.vectorize(key_map_ab)(z[:, :2])
        assert np.all(ab_bits[:, 0] == ab_bits[:, 1])
        mi = empirical_mutual_information(ab_bits[:, 0], z[:, 2])
        assert mi < 0.01

    def test_k_ab_uniform_given_c(self):
        rho = make_psi442().density()
        z = np.column_stack(np.unravel_index(sample_z_rounds(rho, 100000, seed=9), DIMS_442))
        bits = np.vectorize(key_map_ab)(z[:, 0])
        for c in (0, 1):
            sel = bits[z[:, 2] == c]
            assert abs(np.mean(sel) - 0.5) < 0.02

    def test_mutual_information_validation(self):
        with pytest.raises(ValueError):
            empirical_mutual_information([], [])
        with pytest.raises(ValueError):
            empirical_mutual_information([0, 1], [0])

    def test_mutual_information_of_copy_is_entropy(self, rng):
        x = rng.integers(0, 2, size=5000)
        mi = empirical_mutual_information(x, x)
        p = np.mean(x)
        assert abs(mi - binary_entropy(float(p))) < 1e-9


class TestPublishedElementRecord:
    """The published Z QBERs from the published diagonals, read as a ``Z`` count table."""

    @staticmethod
    def deviations(layer_id) -> dict[str, float]:
        # qbers_from_counts' own Z weights: sifted, error, then A's and B's pairings.
        layer = next(layer for layer in LAYERS if layer.layer_id == layer_id)
        diagonal = {e.bra: e.value for e in load_measured_elements()[0]}
        pair_keys, z_weights, _ = qkd._layer_weights(layer)
        total, error, *pair_errors = z_weights @ [diagonal[ket] for ket in ALL_KETS]
        predicted = {"qber_z": error / total}
        predicted |= {f"qber_z_{key}": e / total for key, e in zip(pair_keys, pair_errors)}
        row = next(row for row in load_measured_qkd_rows() if row["layer"] == layer_id)
        # In units of the published sigma; qber_z_bc has no published value.
        return {key: (predicted[key] - row[key][0]) / row[key][1]
                for key in ("qber_z", "qber_z_ab", "qber_z_ac") if key in row}

    @pytest.mark.parametrize("layer_id", ["ABC-layer-0", "ABC-layer-1"])
    def test_ghz_layers_reproduce_the_published_z_qbers(self, layer_id):
        deviations = self.deviations(layer_id)
        assert set(deviations) == {"qber_z", "qber_z_ab", "qber_z_ac"}
        assert all(abs(d) <= 1.0 for d in deviations.values()), deviations

    @pytest.mark.parametrize("layer_id, sigmas", [("AB-layer-0", 4.2), ("AB-layer-1", 2.0)])
    def test_ab_layers_sifted_on_a_and_b_only_stay_apart(self, layer_id, sigmas):
        # An open question, stated rather than hidden: sifted on A and B alone, whatever C
        # reads, the AB layers predict qber_z 0.0360 and 0.0222 against the published
        # 0.015 and 0.012 (sigma 0.005).  Sifting also on C's digit would bring both within
        # sigma, but changes every AB row of qkd's reports.
        deviations = self.deviations(layer_id)
        assert list(deviations) == ["qber_z"]
        assert round(deviations["qber_z"], 1) == sigmas
