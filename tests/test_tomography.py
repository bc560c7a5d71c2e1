import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layered442.circuit import make_psi442, noisy_psi442
from layered442.hilbert import DensityOperator, fidelity_pure, haar_random_state
from layered442.tomography import (
    ELEMENT_PLANS,
    MissingSettingError,
    born_probabilities,
    computational_setting,
    count_tables,
    estimate_elements,
    exact_records,
    monte_carlo_errors,
    parse_setting_label,
    records_from_json,
    records_to_json,
    setting_outcomes,
    simulate_counts,
    standard_plan,
    subspace_monte_carlo,
    CountRecord,
    ExperimentPlan,
)
from layered442.witness import OFFDIAG_PAIRS, fidelity_from_elements

from conftest import flat_index, random_density


class TestSettings:
    def test_plan_has_21_settings(self):
        plan = standard_plan()
        labels = [s.label for s in plan.settings]
        assert len(labels) == 21
        assert len(set(labels)) == 21
        assert labels[0] == "Z"

    def test_expected_labels_present(self):
        labels = {s.label for s in standard_plan().settings}
        for expected in ("X01-X01-X01", "Y01-Y01-X01", "X02-X02-Z", "Y13-Y13-Z",
                         "X23-X23-X01", "Y03-X03-Y01"):
            assert expected in labels

    def test_label_round_trip(self):
        for setting in standard_plan().settings:
            parsed = parse_setting_label(setting.label)
            assert parsed == setting

    def test_bad_labels(self):
        with pytest.raises(ValueError):
            parse_setting_label("X01-X01")
        with pytest.raises(ValueError):
            parse_setting_label("Q01-X01-X01")
        with pytest.raises(ValueError):
            parse_setting_label("X01-X01-X04")

    def test_outcome_orders(self):
        z = computational_setting()
        assert len(setting_outcomes(z)) == 32
        s = parse_setting_label("X01-X01-X01")
        outcomes = setting_outcomes(s)
        assert len(outcomes) == 9
        assert outcomes[0] == "+++" and outcomes[-1] == "rest"
        mixed = setting_outcomes(parse_setting_label("X02-X02-Z"))
        assert "++0" in mixed and "--1" in mixed and "rest" in mixed

    def test_outcome_orders_built_once_per_setting(self):
        plan = standard_plan()
        setting_outcomes.cache_clear()
        count_tables(exact_records(noisy_psi442(0.8), plan))
        assert setting_outcomes.cache_info().misses == len(plan.settings) == 21

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan(0.0, 1800.0, standard_plan().settings)


class TestBornProbabilities:
    def test_ideal_computational(self):
        probs = born_probabilities(make_psi442().density(), computational_setting())
        for ket in ("000", "111", "220", "331"):
            assert abs(probs[ket] - 0.25) < 1e-12
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
        assert probs["100"] == 0.0

    def test_maximally_mixed_uniform(self):
        rho = DensityOperator((4, 4, 2), np.eye(32) / 32)
        probs = born_probabilities(rho, computational_setting())
        assert all(abs(p - 1 / 32) < 1e-12 for p in probs.values())

    def test_sigma_x_parity_on_first_layer(self):
        # <sigma_x sigma_x sigma_x> on levels (0,1): parity sum is +1/2 of
        # the full population for the ideal state (dense-oracle value).
        probs = born_probabilities(make_psi442().density(), parse_setting_label("X01-X01-X01"))
        parity = sum(
            p * math.prod(1 if c == "+" else -1 for c in outcome)
            for outcome, p in probs.items() if outcome != "rest"
        )
        assert abs(parity - 0.5) < 1e-12
        assert abs(probs["rest"] - 0.5) < 1e-12

    def test_probabilities_sum_to_one(self, rng):
        rho = random_density((4, 4, 2), rng)
        for setting in standard_plan().settings:
            probs = born_probabilities(rho, setting)
            assert abs(sum(probs.values()) - 1.0) < 1e-10
            assert all(p >= 0 for p in probs.values())

    def test_invalid_setting_rejected(self, rng):
        rho = random_density((2, 2), rng)
        with pytest.raises(ValueError):
            born_probabilities(rho, parse_setting_label("X01-X01-X01"))


def oracle_ket(setting, outcome, dims=(4, 4, 2)) -> np.ndarray:
    """The measured ket of one outcome, one np.kron factor per party."""
    vec = np.ones(1, dtype=complex)
    for op, char, d in zip(setting.party_ops, outcome, dims):
        if op == ("Z",):
            ket = np.eye(d)[int(char)].astype(complex)
        else:
            axis, a, b = op
            ket = np.zeros(d, dtype=complex)
            ket[a] = 1.0
            ket[b] = (1.0 if axis == "X" else -1j) * (1.0 if char == "+" else -1.0)
            ket /= math.sqrt(2)
        vec = np.kron(vec, ket)
    return vec


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_born_probabilities_match_dense_oracle(seed):
    rho = random_density((4, 4, 2), np.random.default_rng(seed))
    for setting in standard_plan().settings:
        probs = born_probabilities(rho, setting)
        assert list(probs) == list(setting_outcomes(setting))
        expected = {o: np.vdot(oracle_ket(setting, o), rho.matrix @ oracle_ket(setting, o)).real
                    for o in probs if o != "rest"}
        if "rest" in probs:
            expected["rest"] = 1.0 - sum(expected.values())
        for outcome, p in probs.items():
            assert abs(p - expected[outcome]) < 1e-12, (setting.label, outcome)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_estimated_elements_stay_in_range(seed):
    rho = random_density((4, 4, 2), np.random.default_rng(seed))
    diag, off = estimate_elements(exact_records(rho, standard_plan()))
    value = {e.bra: e.value for e in diag}
    assert all(0.0 <= v <= 1.0 for v in value.values())
    for e in off:
        assert abs(e.value) <= math.sqrt(value[e.bra] * value[e.ket]) + 1e-12


class TestSimulateCounts:
    def test_reproducible(self):
        rho = noisy_psi442(0.8493)
        plan = standard_plan()
        a = simulate_counts(rho, plan, seed=11)
        b = simulate_counts(rho, plan, seed=11)
        assert a == b
        c = simulate_counts(rho, plan, seed=12)
        assert a != c

    def test_mean_counts_match_rate(self):
        # 0.66/s x 1800 s x 1/4 = 297 expected per signal outcome
        rho = make_psi442().density()
        plan = ExperimentPlan(0.66, 1800.0, (computational_setting(),))
        totals = np.zeros(4)
        n_seeds = 10000
        for seed in range(n_seeds):
            recs = simulate_counts(rho, plan, seed)
            table = {r.outcome: r.counts for r in recs}
            totals += [table[k] for k in ("000", "111", "220", "331")]
        means = totals / n_seeds
        assert np.all(np.abs(means - 297.0) < 0.01 * 297.0)
        assert abs(means.sum() - 1188.0) < 0.01 * 1188.0

    def test_zero_probability_outcome_never_fires(self):
        rho = make_psi442().density()
        plan = ExperimentPlan(0.66, 1800.0, (computational_setting(),))
        for seed in range(200):
            recs = simulate_counts(rho, plan, seed)
            assert all(r.counts == 0 for r in recs if r.outcome == "100")

    def test_time_doubles_counts(self):
        rho = noisy_psi442(0.9)
        short = exact_records(rho, ExperimentPlan(0.66, 1800.0, (computational_setting(),)))
        long = exact_records(rho, ExperimentPlan(0.66, 3600.0, (computational_setting(),)))
        for a, b in zip(short, long):
            assert abs(b.counts - 2 * a.counts) < 1e-9

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CountRecord("Z", "000", -1)

    def test_counts_beyond_the_poisson_sampler_rejected(self):
        # numpy's Poisson sampler draws 9.2e18 but raises "lam value too large" at 9.3e18.
        limit = 9.223372006484771e18
        np.random.default_rng(0).poisson(limit)
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(0).poisson(np.nextafter(limit, math.inf))
        CountRecord("Z", "000", limit)
        for count in (np.nextafter(limit, math.inf), 10**19, 10**400):
            with pytest.raises(ValueError, match="must be at most 9.223372006e\\+18"):
                CountRecord("Z", "000", count)

    def test_json_round_trip(self, tmp_path):
        rho = noisy_psi442(0.8493)
        recs = simulate_counts(rho, standard_plan(), seed=5)
        path = tmp_path / "counts.json"
        records_to_json(recs, path)
        again = records_from_json(path)
        assert recs == again
        raw = json.loads(path.read_text())
        assert isinstance(raw, list)
        assert set(raw[0]) == {"setting", "outcome", "counts"}

    def test_json_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"setting": "Z"}')
        with pytest.raises(ValueError):
            records_from_json(path)


class TestEstimation:
    def test_ideal_infinite_statistics(self):
        recs = exact_records(make_psi442().density(), standard_plan())
        diag, off = estimate_elements(recs)
        table = {e.bra: e.value for e in diag}
        for ket in ("000", "111", "220", "331"):
            assert abs(table[ket] - 0.25) < 1e-12
        for e in off:
            assert abs(e.value - 0.25) < 1e-12

    def test_visibility_fidelity_recovered(self):
        rho = noisy_psi442(0.8493)
        diag, off = estimate_elements(exact_records(rho, standard_plan()))
        f = fidelity_from_elements(diag, off)
        assert abs(f - 0.854009375) < 1e-9

    def test_estimator_consistency_random_states(self, rng):
        plan = standard_plan()
        psi = make_psi442()
        for _ in range(10):
            rho = random_density((4, 4, 2), rng)
            diag, off = estimate_elements(exact_records(rho, plan))
            f = fidelity_from_elements(diag, off)
            assert abs(f - fidelity_pure(rho, psi)) < 1e-9
            for e in off:
                direct = rho.matrix[flat_index(e.bra), flat_index(e.ket)].real
                assert abs(e.value - direct) < 1e-10

    def test_missing_setting_named(self):
        recs = exact_records(make_psi442().density(), standard_plan())
        partial = [r for r in recs if r.setting != "Y02-Y02-Z"]
        with pytest.raises(MissingSettingError, match="Y02-Y02-Z"):
            estimate_elements(partial)

    def test_missing_computational_setting(self):
        recs = exact_records(make_psi442().density(), standard_plan())
        partial = [r for r in recs if r.setting != "Z"]
        with pytest.raises(MissingSettingError, match="'Z'"):
            estimate_elements(partial)

    def test_all_missing_settings_listed(self):
        recs = exact_records(make_psi442().density(), standard_plan())
        partial = [r for r in recs if r.setting not in ("Y02-Y02-Z", "X13-X13-Z")]
        with pytest.raises(MissingSettingError) as err:
            estimate_elements(partial)
        assert "Y02-Y02-Z" in str(err.value) and "X13-X13-Z" in str(err.value)

    def test_zero_coherence_state_hits_gme_boundary(self):
        # visibility 0 has populations but no coherence: every subspace
        # fidelity sits exactly on the 1/2 boundary
        from layered442.witness import subspace_fidelity

        diag, off = estimate_elements(exact_records(noisy_psi442(0.0), standard_plan()))
        d = {e.bra: e.value for e in diag}
        for e in off:
            f = subspace_fidelity(d[e.bra], d[e.ket], e.value)
            assert abs(f - 0.5) < 1e-12

    def test_zero_count_diagonal_flagged(self):
        recs = [CountRecord("Z", k, 100) for k in ("000", "111", "220", "331")]
        recs += [CountRecord("Z", "100", 0)]
        for pair in OFFDIAG_PAIRS:
            for label, _, _ in ELEMENT_PLANS[pair]:
                setting = parse_setting_label(label)
                recs += [CountRecord(label, o, 10) for o in setting_outcomes(setting)]
        diag, off = estimate_elements(recs)
        table = {e.bra: e for e in diag}
        assert table["100"].value == 0.0
        assert table["100"].low_stats
        assert not table["000"].low_stats

    def test_low_statistics_setting_flagged(self):
        rho = noisy_psi442(0.8493)
        plan = ExperimentPlan(0.66, 2.0, standard_plan().settings)  # ~1 count/setting
        diag, off = estimate_elements(simulate_counts(rho, plan, seed=0))
        assert all(e.low_stats for e in off)


class TestMonteCarlo:
    def test_single_trial_degenerate(self):
        recs = simulate_counts(noisy_psi442(0.8493), standard_plan(), seed=1)
        result = monte_carlo_errors(recs, trials=1, seed=2)
        assert result.degenerate
        assert result.fidelity_std == 0.0

    def test_errors_shrink_with_counts(self):
        rho = noisy_psi442(0.8493)
        sigma = {}
        for factor in (1.0, 100.0):
            plan = standard_plan(rate=0.66, integration_time=1800.0 * factor)
            recs = simulate_counts(rho, plan, seed=21)
            sigma[factor] = monte_carlo_errors(recs, trials=400, seed=5).fidelity_std
        ratio = sigma[100.0] / sigma[1.0]
        assert 0.06 < ratio < 0.16  # ~x10 shrink for x100 counts

    def test_experiment_scale_sigma(self):
        recs = simulate_counts(noisy_psi442(0.8493), standard_plan(), seed=4)
        result = monte_carlo_errors(recs, trials=1000, seed=6)
        assert 0.004 <= result.fidelity_std <= 0.012
        assert abs(result.fidelity_mean - result.fidelity) < 5 * result.fidelity_std

    def test_reproducible(self):
        recs = simulate_counts(noisy_psi442(0.8493), standard_plan(), seed=4)
        a = monte_carlo_errors(recs, trials=50, seed=9)
        b = monte_carlo_errors(recs, trials=50, seed=9)
        assert a.fidelity_std == b.fidelity_std
        assert [e.std_dev for e in a.offdiagonals] == [e.std_dev for e in b.offdiagonals]

    def test_noiseless_pipeline_recovers_unit_fidelity(self):
        recs = simulate_counts(make_psi442().density(), standard_plan(), seed=17)
        result = monte_carlo_errors(recs, trials=400, seed=18)
        assert abs(result.fidelity - 1.0) <= 3 * result.fidelity_std

    def test_subspace_fidelities_near_one_for_ideal(self):
        plan = standard_plan(rate=0.66, integration_time=18000.0)
        recs = simulate_counts(make_psi442().density(), plan, seed=3)
        result = monte_carlo_errors(recs, trials=200, seed=3)
        for pair, (value, std) in result.subspace_fidelities.items():
            assert value == pytest.approx(1.0, abs=5e-2)

    @pytest.mark.parametrize("seed", [1234, 7, 99])
    def test_resampling_does_not_replay_simulation(self, seed):
        # Poisson(exact counts) on the simulation's own stream would redraw
        # the simulated counts, so one trial would reproduce its fidelity.
        rho = noisy_psi442(0.8493)
        plan = standard_plan()
        simulated = fidelity_from_elements(*estimate_elements(simulate_counts(rho, plan, seed)))
        resampled = monte_carlo_errors(exact_records(rho, plan), trials=1, seed=seed)
        assert resampled.fidelity_mean != simulated

    def test_sparse_subspace_spread_is_nan(self):
        # Few signal counts: some trials resample both populations of a pair
        # to zero, leaving fewer than two finite subspace fidelities.
        rho = haar_random_state((4, 4, 2), np.random.default_rng(0)).density()
        result = monte_carlo_errors(exact_records(rho, standard_plan()), trials=2, seed=3)
        spreads = [spread for _, spread in result.subspace_fidelities.values()]
        assert any(math.isnan(s) for s in spreads)
        assert all(math.isnan(s) or s >= 0 for s in spreads)

    def test_trials_validation(self):
        recs = simulate_counts(noisy_psi442(0.8493), standard_plan(), seed=1)
        with pytest.raises(ValueError):
            monte_carlo_errors(recs, trials=0, seed=1)
        with pytest.raises(ValueError):
            subspace_monte_carlo(recs, OFFDIAG_PAIRS[0], trials=0, seed=1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), trials=st.sampled_from([1, 2, 50]),
       integration_time=st.sampled_from([0.5, 2.0, 10.0, 100.0, 1800.0]))
def test_subspace_monte_carlo_equals_full_resampling(seed, trials, integration_time):
    # rate x time from 0.33 (most files fail the band check) to 1188 counts per setting.
    rho = random_density((4, 4, 2), np.random.default_rng(seed))
    recs = simulate_counts(rho, standard_plan(0.66, integration_time), seed)
    try:
        full = monte_carlo_errors(recs, trials, seed).subspace_fidelities
    except ValueError as exc:
        for pair in OFFDIAG_PAIRS:
            with pytest.raises(ValueError) as raised:
                subspace_monte_carlo(recs, pair, trials, seed)
            assert str(raised.value) == str(exc)
        return
    for pair in OFFDIAG_PAIRS:
        value, spread = subspace_monte_carlo(recs, pair, trials, seed)
        # Bitwise, so nan equals nan.
        assert np.array([value, spread]).tobytes() == np.array(full[pair]).tobytes(), pair
