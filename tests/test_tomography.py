import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layered442.circuit import ALL_KETS, make_psi442, noisy_psi442
from layered442.hilbert import DensityOperator, fidelity_pure, haar_random_state
from layered442.qkd import LAYERS
from layered442 import tomography
from layered442.tomography import (
    ELEMENT_PLANS,
    born_probabilities,
    count_tables,
    estimate_elements,
    exact_records,
    monte_carlo_errors,
    records_from_json,
    records_to_json,
    setting_outcomes,
    simulate_counts,
    standard_plan,
    subspace_monte_carlo,
    CountRecord,
    ExperimentPlan,
)
from layered442.witness import (
    OFFDIAG_PAIRS,
    fidelity_from_arrays,
    fidelity_from_elements,
    offdiag_from_correlators,
    offdiag_from_pair_correlators,
    subspace_fidelity,
)

from conftest import flat_index, random_density


class TestSettings:
    def test_plan_has_21_settings(self):
        plan = standard_plan()
        labels = plan.settings
        assert len(labels) == 21
        assert len(set(labels)) == 21
        assert labels[0] == "Z"

    def test_expected_labels_present(self):
        labels = set(standard_plan().settings)
        for expected in ("X01-X01-X01", "Y01-Y01-X01", "X02-X02-Z", "Y13-Y13-Z",
                         "X23-X23-X01", "Y03-X03-Y01"):
            assert expected in labels

    def test_each_correlator_setting_serves_one_pair(self):
        # So each setting has one eigenvalue per outcome, and one class map.
        labels = [label for pair in OFFDIAG_PAIRS for label, *_ in ELEMENT_PLANS[pair]]
        assert sorted(labels) == sorted(standard_plan().settings[1:])

    def test_label_round_trip(self):
        # Each setting's per-party ops spell its label back, one token per party, and
        # agree with a parse of the label.
        table = tomography._SETTING_OPS
        assert table["Z"] == (("Z",),) * 3
        for label in standard_plan().settings[1:]:
            assert "-".join("".join(map(str, op)) for op in table[label]) == label
            assert table[label] == label_ops(label)

    # Malformed labels, then well-formed labels that are not among the 21.
    @pytest.mark.parametrize("label", ["X01-X01", "Q01-X01-X01", "X01-X01-X04", "X00-X01-X01",
                                       "X10-X10-X10", "X02-Z-Z"])
    def test_label_outside_the_21_refused(self, label):
        # Every function that takes a label refuses it in one wording, by name.
        rho = noisy_psi442(0.8493)
        plan = ExperimentPlan(0.66, 1800.0, ("Z", label))
        calls = [lambda: setting_outcomes(label), lambda: born_probabilities(rho, label),
                 lambda: exact_records(rho, plan), lambda: simulate_counts(rho, plan, seed=5),
                 lambda: count_tables([CountRecord(label, "+++", 1)])]
        message = f"setting {label!r} is not one of the 21 settings of the standard plan"
        for call in calls:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()

    def test_outcome_orders(self):
        assert len(setting_outcomes("Z")) == 32
        outcomes = setting_outcomes("X01-X01-X01")
        assert len(outcomes) == 9
        assert outcomes[0] == "+++" and outcomes[-1] == "rest"
        mixed = setting_outcomes("X02-X02-Z")
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
        probs = born_probabilities(make_psi442().density(), "Z")
        for ket in ("000", "111", "220", "331"):
            assert abs(probs[flat_index(ket)] - 0.25) < 1e-12
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert probs[flat_index("100")] == 0.0

    def test_maximally_mixed_uniform(self):
        rho = DensityOperator((4, 4, 2), np.eye(32) / 32)
        probs = born_probabilities(rho, "Z")
        assert probs.shape == (32,)
        assert np.all(np.abs(probs - 1 / 32) < 1e-12)

    def test_sigma_x_parity_on_first_layer(self):
        # <sigma_x sigma_x sigma_x> on levels (0,1): parity sum is +1/2 of
        # the full population for the ideal state (dense-oracle value).
        *probs, rest = born_probabilities(make_psi442().density(), "X01-X01-X01")
        parity = sum(
            p * math.prod(1 if c == "+" else -1 for c in outcome)
            for outcome, p in zip(setting_outcomes("X01-X01-X01"), probs)
        )
        assert abs(parity - 0.5) < 1e-12
        assert abs(rest - 0.5) < 1e-12

    def test_probabilities_sum_to_one(self, rng):
        rho = random_density((4, 4, 2), rng)
        for label in standard_plan().settings:
            probs = born_probabilities(rho, label)
            assert abs(probs.sum() - 1.0) < 1e-10
            assert np.all(probs >= 0)

    def test_invalid_setting_rejected(self, rng):
        rho = random_density((2, 2), rng)
        with pytest.raises(ValueError, match=r"dims \(2, 2\) are not \(4, 4, 2\)"):
            born_probabilities(rho, "X01-X01-X01")


def label_ops(label) -> tuple:
    """Per-party ops, ("Z",) or (axis, a, b), read from the label itself, not from tomography."""
    if label == "Z":
        return (("Z",),) * 3
    return tuple(("Z",) if token == "Z" else (token[0], int(token[1]), int(token[2]))
                 for token in label.split("-"))


def oracle_ket(label, outcome, dims=(4, 4, 2)) -> np.ndarray:
    """The measured ket of one outcome, one np.kron factor per party."""
    vec = np.ones(1, dtype=complex)
    for op, char, d in zip(label_ops(label), outcome, dims):
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
    for label in standard_plan().settings:
        probs = born_probabilities(rho, label)
        outcomes = setting_outcomes(label)
        expected = [np.vdot(oracle_ket(label, o), rho.matrix @ oracle_ket(label, o)).real
                    for o in outcomes if o != "rest"]
        if outcomes[-1] == "rest":
            expected.append(1.0 - sum(expected))
        assert probs.shape == (len(outcomes),)
        for outcome, p, q in zip(outcomes, probs, expected):
            assert abs(p - q) < 1e-12, (label, outcome)


@pytest.mark.parametrize("label", list(dict.fromkeys(
    standard_plan().settings + tuple(layer.x_setting_label for layer in LAYERS))))
def test_born_array_order_is_setting_outcomes(label):
    """The state of one outcome's ket gives probability 1 at that outcome's position."""
    outcomes = setting_outcomes(label)
    for index, outcome in enumerate(outcomes):
        if outcome == "rest":
            # Party A is a sigma party of every correlator setting: a level
            # outside its pair puts the state outside the setting's subspace.
            _, a, b = label_ops(label)[0]
            ket = np.eye(32)[flat_index(f"{min({0, 1, 2, 3} - {a, b})}00")]
        else:
            ket = oracle_ket(label, outcome)
        rho = DensityOperator((4, 4, 2), np.outer(ket, ket.conj()))
        probs = born_probabilities(rho, label)
        assert np.all(np.abs(probs - np.eye(len(outcomes))[index]) < 1e-12), (label, outcome)


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
        plan = ExperimentPlan(0.66, 1800.0, ("Z",))
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
        plan = ExperimentPlan(0.66, 1800.0, ("Z",))
        for seed in range(200):
            recs = simulate_counts(rho, plan, seed)
            assert all(r.counts == 0 for r in recs if r.outcome == "100")

    def test_any_plan_draws_the_standard_plans_records(self):
        # Each setting draws on its standard-plan stream, whatever its position in the plan.
        rho = noisy_psi442(0.8493)
        plan = standard_plan()
        full = {}
        for r in simulate_counts(rho, plan, seed=5):
            full.setdefault(r.setting, []).append(r)
        reversed_plan = ExperimentPlan(plan.rate, plan.integration_time, plan.settings[::-1])
        plans = [reversed_plan,
                 ExperimentPlan(plan.rate, plan.integration_time, ("Y01-X01-Y01",))]
        for part in plans:
            got = {}
            for r in simulate_counts(rho, part, seed=5):
                got.setdefault(r.setting, []).append(r)
            assert got == {label: full[label] for label in got}
            assert list(got) == list(part.settings)

    def test_setting_outside_standard_plan_refused(self):
        rho = noisy_psi442(0.8493)
        plan = ExperimentPlan(0.66, 1800.0, ("Z", "X02-Z-Z"))
        # Neither drawn nor expected counts exist for it.
        for records in (lambda: simulate_counts(rho, plan, seed=5),
                        lambda: exact_records(rho, plan)):
            with pytest.raises(ValueError, match="setting 'X02-Z-Z' is not one of the 21 settings"):
                records()

    def test_time_doubles_counts(self):
        rho = noisy_psi442(0.9)
        short = exact_records(rho, ExperimentPlan(0.66, 1800.0, ("Z",)))
        long = exact_records(rho, ExperimentPlan(0.66, 3600.0, ("Z",)))
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

    # Labels that json must escape (quote, backslash, control, non-ASCII, lone surrogate).
    LABELS = st.one_of(st.sampled_from(["Z", "X01-Y23-Z", 'say "hi"', "back\\slash", "tab\t",
                                        "\u00fcber", "\u2603", "\ud800", ""]),
                       st.text(max_size=6))
    COUNTS = st.one_of(st.integers(0, 9 * 10**18), st.sampled_from([0.0, 1e-300, 9e18]),
                       st.floats(0.0, 9e18))

    @settings(max_examples=80, deadline=None)
    @given(records=st.lists(st.builds(CountRecord, LABELS, LABELS, COUNTS), max_size=5))
    @example(records=[])
    @example(records=[CountRecord('a"\\\u00e9', "\u2603", c) for c in (7, 0.0, 1e-300, 9e18)])
    def test_count_file_is_the_json_dump_bytes(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("counts")
        records_to_json(records, path / "new.json")
        with open(path / "dumped.json", "w") as fh:
            json.dump([vars(r) for r in records], fh, indent=1)
            fh.write("\n")
        assert (path / "new.json").read_bytes() == (path / "dumped.json").read_bytes()
        # Read back whole counts; the first record with a fraction is refused by name.
        fractional = [r for r in records if r.counts % 1]
        if not fractional:
            assert records_from_json(path / "new.json") == records
        else:
            with pytest.raises(ValueError) as refusal:
                records_from_json(path / "new.json")
            first = fractional[0]
            assert str(refusal.value) == (f"counts for setting {first.setting!r} outcome "
                                          f"{first.outcome!r} must be a whole number, "
                                          f"got {first.counts!r}")

    def test_whole_counts_read_as_written(self, tmp_path):
        # A whole-valued float is a whole count, read as written.
        path = tmp_path / "counts.json"
        path.write_text('[{"setting": "Z", "outcome": "000", "counts": 300.0},'
                        ' {"setting": "Z", "outcome": "001", "counts": 7}]')
        records = records_from_json(path)
        assert records == [CountRecord("Z", "000", 300.0), CountRecord("Z", "001", 7)]
        assert [type(r.counts) for r in records] == [float, int]

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
        with pytest.raises(ValueError, match="^missing measurement setting: 'Y02-Y02-Z'$"):
            estimate_elements(partial)

    def test_missing_computational_setting(self):
        recs = exact_records(make_psi442().density(), standard_plan())
        partial = [r for r in recs if r.setting != "Z"]
        with pytest.raises(ValueError, match="^missing measurement setting: 'Z'$"):
            estimate_elements(partial)

    def test_all_missing_settings_listed(self):
        recs = exact_records(make_psi442().density(), standard_plan())
        partial = [r for r in recs if r.setting not in ("Y02-Y02-Z", "X13-X13-Z")]
        with pytest.raises(ValueError,
                           match="^missing measurement settings: 'Y02-Y02-Z', 'X13-X13-Z'$"):
            estimate_elements(partial)

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
        # Every other Z outcome is listed with 0 counts: an absent record is refused.
        recs = [CountRecord("Z", k, 100 if k in ("000", "111", "220", "331") else 0)
                for k in ALL_KETS]
        for pair in OFFDIAG_PAIRS:
            for label, *_ in ELEMENT_PLANS[pair]:
                recs += [CountRecord(label, o, 10) for o in setting_outcomes(label)]
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
        for pair in OFFDIAG_PAIRS:
            value, _ = subspace_monte_carlo(recs, pair, trials=200, seed=3)
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
        recs = exact_records(rho, standard_plan())
        spreads = [subspace_monte_carlo(recs, pair, trials=2, seed=3)[1] for pair in OFFDIAG_PAIRS]
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
    # rate x time from 0.33 (most files total 0 Z counts in some trial) to 1188 per setting.
    rho = random_density((4, 4, 2), np.random.default_rng(seed))
    recs = simulate_counts(rho, standard_plan(0.66, integration_time), seed)
    try:
        _, (diag, off), (diag_samples, off_samples) = tomography._resampled_elements(
            recs, OFFDIAG_PAIRS, trials, seed)
    except ValueError as exc:
        for pair in OFFDIAG_PAIRS:
            with pytest.raises(ValueError) as raised:
                subspace_monte_carlo(recs, pair, trials, seed)
            assert str(raised.value) == str(exc)
        return
    for k, pair in enumerate(OFFDIAG_PAIRS):
        # The reference from all 21 settings' draws: an empty subspace is refused,
        # else the nanstd over finite trials (nan below two, 0 for one trial).
        i, j = flat_index(pair[0]), flat_index(pair[1])
        if not diag[i] + diag[j] > 0:
            with pytest.raises(ValueError) as raised:
                subspace_monte_carlo(recs, pair, trials, seed)
            assert str(raised.value) == (f"subspace ({pair[0]}, {pair[1]}) has zero population: "
                                         f"setting 'Z' has no counts of {pair[0]} or {pair[1]}")
            continue
        fsub = subspace_fidelity(diag_samples[:, i], diag_samples[:, j], off_samples[:, k])
        finite = np.count_nonzero(~np.isnan(fsub))
        want = [subspace_fidelity(diag[i], diag[j], off[k]),
                np.nanstd(fsub, ddof=1) if finite > 1 else 0.0 if trials == 1 else math.nan]
        value, spread = subspace_monte_carlo(recs, pair, trials, seed)
        # Bitwise, so nan equals nan.
        assert np.array([value, spread]).tobytes() == np.array(want).tobytes(), pair


def per_outcome_elements(tables):
    """Diagonals (..., 32) and off-diagonals (..., 6) read from every outcome's count.

    The per-outcome form of the estimator: a correlator expectation is the
    setting's counts times its outcome eigenvalues, over its total.
    """
    def expectation(label, sign, values, _):
        counts = tables[label]
        total = counts.sum(axis=-1)
        return sign * (counts @ values) / np.where(total > 0, total, 1.0)

    off = []
    for pair in OFFDIAG_PAIRS:
        terms = [expectation(*entry) for entry in ELEMENT_PLANS[pair]]
        formula = offdiag_from_correlators if len(terms) == 4 else offdiag_from_pair_correlators
        off.append(formula(*terms))
    z = tables["Z"]
    total = z.sum(axis=-1, keepdims=True)
    return z / np.where(total > 0, total, 1.0), np.stack(off, axis=-1)


def element_values(records):
    diag, off = estimate_elements(records)
    return np.array([e.value for e in diag]), np.array([e.value for e in off])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       integration_time=st.sampled_from([0.5, 2.0, 10.0, 100.0, 1800.0, 1.8e6]))
def test_class_sum_estimates_equal_per_outcome_oracle(seed, integration_time):
    rho = random_density((4, 4, 2), np.random.default_rng(seed))
    plan = standard_plan(0.66, integration_time)
    recs = simulate_counts(rho, plan, seed)
    # Sums of integer counts are exact, so the class sums change no bit.
    for got, want in zip(element_values(recs), per_outcome_elements(count_tables(recs))):
        assert got.tobytes() == want.tobytes()
    exact = exact_records(rho, plan)
    for got, want in zip(element_values(exact), per_outcome_elements(count_tables(exact))):
        assert np.max(np.abs(got - want)) <= 1e-15


ORACLE_TRIALS = 20000
# A sample std over n trials has a relative spread of about 1/sqrt(2 (n - 1)),
# 0.5% here; two independent estimates differ with a spread of about 0.71%,
# so 3% is over four of those.
ORACLE_RTOL = 6 / math.sqrt(2 * (ORACLE_TRIALS - 1))


@pytest.mark.parametrize("seed", [1234, 7])
def test_class_sum_resampling_matches_per_outcome_oracle(seed):
    recs = simulate_counts(noisy_psi442(0.8493), standard_plan(), seed)
    result = monte_carlo_errors(recs, ORACLE_TRIALS, seed)
    tables = count_tables(recs)

    # Z is still drawn outcome by outcome, on the stream (seed, 0, 1).
    z = np.random.default_rng([seed, 0, 1]).poisson(tables["Z"], size=(ORACLE_TRIALS, 32))
    z_diag = z / z.sum(axis=1, keepdims=True)
    assert [e.std_dev for e in result.diagonals] == [float(np.std(c, ddof=1)) for c in z_diag.T]

    # Every count of every setting drawn as Poisson(count), on a stream of its own.
    rng = np.random.default_rng([seed, 0, 2])
    diag, off = per_outcome_elements(
        {label: rng.poisson(c, size=(ORACLE_TRIALS, c.size)).astype(float)
         for label, c in tables.items()})
    want = [np.std(fidelity_from_arrays(diag, off), ddof=1)]
    got = [result.fidelity_std]
    for k, (e, pair) in enumerate(zip(result.offdiagonals, OFFDIAG_PAIRS)):
        i, j = flat_index(pair[0]), flat_index(pair[1])
        want += [np.std(off[:, k], ddof=1),
                 np.nanstd(subspace_fidelity(diag[:, i], diag[:, j], off[:, k]), ddof=1)]
        got += [e.std_dev, subspace_monte_carlo(recs, pair, ORACLE_TRIALS, seed)[1]]
    np.testing.assert_allclose(got, want, rtol=ORACLE_RTOL)


@pytest.mark.parametrize("seed", [1234, 7])
def test_resampled_errors_pinned_bit_for_bit(seed):
    # Class sums drawn on the streams (seed, plan index, 1), the witness formulas,
    # then one np.std per column: a change of stream, draw or reduction order shows.
    trials = 1000
    recs = simulate_counts(noisy_psi442(0.8493), standard_plan(), seed)
    result = monte_carlo_errors(recs, trials, seed)
    tables = count_tables(recs)
    labels = standard_plan().settings

    def draw(label, means):
        rng = np.random.default_rng([seed, labels.index(label), 1])
        return rng.poisson(means, size=(trials, means.size)).astype(float)

    z = draw("Z", tables["Z"])
    diag = z / z.sum(axis=1, keepdims=True)
    off = []
    for pair in OFFDIAG_PAIRS:
        terms = []
        for label, sign, values, _ in ELEMENT_PLANS[pair]:
            counts = tables[label]
            sums = [counts[values > 0].sum(), counts[values < 0].sum(), counts[values == 0].sum()]
            plus, minus, zero = draw(label, np.array(sums)).T
            terms.append(sign * (plus - minus) / (plus + minus + zero))
        formula = offdiag_from_correlators if len(terms) == 4 else offdiag_from_pair_correlators
        off.append(formula(*terms))
    off = np.stack(off, axis=-1)
    fidelity = fidelity_from_arrays(diag, off)

    want = [np.std(fidelity, ddof=1), np.mean(fidelity)] + [np.std(c, ddof=1) for c in diag.T]
    got = [result.fidelity_std, result.fidelity_mean] + [e.std_dev for e in result.diagonals]
    for k, (e, pair) in enumerate(zip(result.offdiagonals, OFFDIAG_PAIRS)):
        i, j = flat_index(pair[0]), flat_index(pair[1])
        want += [np.std(off[:, k], ddof=1),
                 np.nanstd(subspace_fidelity(diag[:, i], diag[:, j], off[:, k]), ddof=1)]
        got += [e.std_dev, subspace_monte_carlo(recs, pair, trials, seed)[1]]
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("trials", [1, 2, 1000])
def test_element_stds_equal_one_std_per_column(trials):
    # The 38 stds come from one pass over rows; each must equal its own column's np.std.
    recs = simulate_counts(noisy_psi442(0.8493), standard_plan(), 1234)
    result = monte_carlo_errors(recs, trials, 1234)
    _, _, (diag, off) = tomography._resampled_elements(recs, OFFDIAG_PAIRS, trials, 1234)
    want = [float(np.std(c, ddof=1)) if trials > 1 else 0.0 for c in np.hstack((diag, off)).T]
    got = [e.std_dev for e in result.diagonals + result.offdiagonals]
    assert len(got) == 38
    assert np.array_equal(got, want)
