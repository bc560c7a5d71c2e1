"""Property tests: every estimation path agrees with the one formula it calls."""

import dataclasses
import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layered442 import qkd
from layered442.circuit import make_psi442, noisy_psi442
from layered442.cli import RunConfig, _qkd_tables_simulated
from layered442.hilbert import DensityOperator, fidelity_pure
from layered442.qkd import (
    LAYERS,
    compute_qbers,
    qbers_from_counts,
    sample_x_rounds,
    sample_z_rounds,
)
from layered442.tomography import (
    CountRecord,
    count_tables,
    exact_records,
    monte_carlo_errors,
    setting_outcomes,
    simulate_counts,
    standard_plan,
    subspace_monte_carlo,
)
from layered442.witness import (
    OFFDIAG_PAIRS,
    RankVectorClass,
    search_class_overlap,
    subspace_fidelity,
)

from conftest import choice_draws, flat_index

PSI = make_psi442()
PLAN = standard_plan()
PROPERTY_SETTINGS = settings(max_examples=30, deadline=None)


@st.composite
def densities(draw):
    """Mixtures of the layered target with a Ginibre state of random rank."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, 32))
    weight = draw(st.floats(0.0, 1.0))
    g = rng.normal(size=(32, rank)) + 1j * rng.normal(size=(32, rank))
    noise = g @ g.conj().T
    mat = weight * PSI.density().matrix + (1.0 - weight) * noise / np.trace(noise).real
    return DensityOperator((4, 4, 2), mat)


@PROPERTY_SETTINGS
@given(rho=densities(), seed=st.integers(0, 2**16))
def test_monte_carlo_central_values_match_exact_state(rho, seed):
    records = exact_records(rho, PLAN)
    result = monte_carlo_errors(records, trials=2, seed=seed)
    assert abs(result.fidelity - fidelity_pure(rho, PSI)) < 1e-10
    m = rho.matrix
    for a, b in OFFDIAG_PAIRS:
        value, _ = subspace_monte_carlo(records, (a, b), trials=2, seed=seed)
        i, j = flat_index(a), flat_index(b)
        expected = subspace_fidelity(m[i, i].real, m[j, j].real, m[i, j].real)
        assert abs(value - expected) < 1e-10


RECORDS = simulate_counts(noisy_psi442(0.8493), PLAN, seed=4)
IN_PLAN_ORDER = monte_carlo_errors(RECORDS, trials=100, seed=1234)


@settings(max_examples=20, deadline=None)
@given(order=st.permutations(range(len(RECORDS))))
def test_monte_carlo_ignores_record_order(order):
    shuffled = [RECORDS[k] for k in order]
    assert monte_carlo_errors(shuffled, trials=100, seed=1234) == IN_PLAN_ORDER


def _binned_tables(z, x, layer):
    """Count tables of sampled Z and X outcome indices, binned through records.

    Every outcome gets a record, 0 for an outcome never drawn.
    """
    records = []
    for label, rounds in (("Z", z), (layer.x_setting_label, x)):
        outcomes = setting_outcomes(label)
        drawn = Counter(outcomes[index] for index in rounds.tolist())
        records += [CountRecord(label, outcome, drawn[outcome]) for outcome in outcomes]
    return count_tables(records)


@PROPERTY_SETTINGS
@given(rho=densities(), layer=st.sampled_from(LAYERS), rounds=st.integers(1, 3000),
       seed=st.integers(0, 2**16))
def test_round_qbers_equal_binned_count_qbers(rho, layer, rounds, seed):
    z = sample_z_rounds(rho, rounds, seed)
    x = sample_x_rounds(rho, layer, rounds, seed)
    tables = _binned_tables(z, x, layer)
    try:
        from_rounds = compute_qbers({"Z": z, "X": x}, layer)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            qbers_from_counts(tables, layer)
        return
    assert dataclasses.asdict(from_rounds) == dataclasses.asdict(qbers_from_counts(tables, layer))


@PROPERTY_SETTINGS
@given(rho=densities(), rounds=st.integers(1, 3000), seed=st.integers(0, 2**16))
def test_z_rounds_are_outcome_draws(rho, rounds, seed):
    draws = choice_draws(rho, "Z", rounds, seed, qkd._Z_STREAM)
    assert np.array_equal(sample_z_rounds(rho, rounds, seed), draws)


@PROPERTY_SETTINGS
@given(visibility=st.floats(0.0, 1.0), layer=st.sampled_from(LAYERS),
       rounds=st.integers(1, 3000), seed=st.integers(0, 2**16))
def test_cli_round_tables_equal_compute_qbers(visibility, layer, rounds, seed):
    cfg = RunConfig(seed=seed, visibility=visibility)
    rho = noisy_psi442(visibility)
    samples = {"Z": sample_z_rounds(rho, rounds, seed),
               "X": sample_x_rounds(rho, layer, rounds, seed)}
    tables = _qkd_tables_simulated(cfg, rounds)
    try:
        from_rounds = compute_qbers(samples, layer)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            qbers_from_counts(tables, layer)
        return
    assert dataclasses.asdict(qbers_from_counts(tables, layer)) == dataclasses.asdict(from_rounds)


@pytest.mark.parametrize("seed", [1, 7, 1234])
def test_cli_round_tables_equal_choice_draws(seed):
    cfg = RunConfig(seed=seed)
    rho = noisy_psi442(cfg.visibility)
    rounds = 100000
    expected = {"Z": np.bincount(choice_draws(rho, "Z", rounds, seed, qkd._Z_STREAM), minlength=32)}
    for index, layer in enumerate(LAYERS):
        label = layer.x_setting_label
        drawn = choice_draws(rho, label, rounds, seed, qkd._X_STREAM_BASE + index)
        n_outcomes = len(setting_outcomes(label))
        expected[label] = np.bincount(drawn, minlength=n_outcomes)
    tables = _qkd_tables_simulated(cfg, rounds)
    assert tables.keys() == expected.keys()
    assert all(np.array_equal(tables[label], counts) for label, counts in expected.items())


def _sifting_oracle(tables, layer):
    """Report fields of a layer, sifted and counted outcome by outcome."""
    total_z = err_z = 0.0
    pair_err = Counter()
    for ket, c in zip(setting_outcomes("Z"), tables["Z"]):
        digits = [int(ket[p]) for p in layer.party_indices]
        if not all(d in pair for d, pair in zip(digits, layer.digit_pairs)):
            continue
        bits = [pair.index(d) for d, pair in zip(digits, layer.digit_pairs)]
        total_z += c
        err_z += c * (len(set(bits)) > 1)
        if layer.is_tripartite:
            for (i, a), (j, b) in itertools.combinations(enumerate(bits), 2):
                pair_err[(layer.participants[i] + layer.participants[j]).lower()] += c * (a != b)
    x_label = layer.x_setting_label
    total_x = err_x = 0.0
    for outcome, c in zip(setting_outcomes(x_label), tables[x_label]):
        if outcome != "rest":
            total_x += c
            err_x += c * ([outcome[p] for p in layer.party_indices].count("-") % 2)
    rates = {"qber_z": (err_z / total_z, total_z), "qber_x": (err_x / total_x, total_x)}
    rates.update({f"qber_z_{key}": (err / total_z, total_z) for key, err in pair_err.items()})
    fields = {"n_z_sifted": int(total_z), "n_x_sifted": int(total_x),
              "sift_fraction_z": total_z / sum(tables["Z"]),
              "sift_fraction_x": total_x / sum(tables[x_label])}
    for name, (q, total) in rates.items():
        fields[name] = q
        fields[f"{name}_std"] = math.sqrt(q * (1 - q) / int(total))
    return fields


@PROPERTY_SETTINGS
@given(rho=densities())
def test_count_qbers_match_sifting_oracle(rho):
    tables = count_tables(exact_records(rho, PLAN))
    for layer in LAYERS:
        report = dataclasses.asdict(qbers_from_counts(tables, layer))
        del report["layer_id"]
        expected = _sifting_oracle(tables, layer)
        assert {k for k, v in report.items() if v is not None} == set(expected)
        for name, value in expected.items():
            assert abs(report[name] - value) <= 1e-12, name
        for name in ("qber_z", "qber_x", "qber_z_ab", "qber_z_ac", "qber_z_bc",
                     "sift_fraction_z", "sift_fraction_x"):
            assert report[name] is None or 0.0 <= report[name] <= 1.0, name


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_keyed_stream_draws_its_own_uniforms(seed):
    """Counts, resampling, QKD rounds and search starts never replay one another's draws."""
    rho, numpy_rng = noisy_psi442(0.9), np.random.default_rng
    opened = []

    def recording_rng(key):
        opened.append(tuple(key))
        return numpy_rng(key)

    consumers = [
        ("counts", lambda: simulate_counts(rho, PLAN, seed)),
        ("resampling", lambda: monte_carlo_errors(exact_records(rho, PLAN), 1, seed)),
        ("Z rounds", lambda: sample_z_rounds(rho, 1, seed)),
        *[(f"{layer.layer_id} rounds", lambda layer=layer: sample_x_rounds(rho, layer, 1, seed))
          for layer in LAYERS],
        # (1, 2, 3) has four members on (4, 4, 2), the most of any class.
        ("search", lambda: search_class_overlap(PSI, RankVectorClass((1, 2, 3)), 4, seed)),
    ]
    streams = set()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng", recording_rng)
        for name, consume in consumers:
            consume()
            streams |= {(name, key) for key in opened}
            opened.clear()
    assert len(streams) == 2 * len(PLAN.settings) + 1 + len(LAYERS) + 4
    assert len({tuple(numpy_rng(key).random(4)) for _, key in streams}) == len(streams)


SEEDED_ENTRY_POINTS = pytest.mark.parametrize("draw", [
    lambda seed: simulate_counts(noisy_psi442(0.9), PLAN, seed),
    lambda seed: monte_carlo_errors(exact_records(noisy_psi442(0.9), PLAN), 1, seed),
    lambda seed: subspace_monte_carlo(exact_records(noisy_psi442(0.9), PLAN),
                                      OFFDIAG_PAIRS[0], 1, seed),
    lambda seed: sample_z_rounds(noisy_psi442(0.9), 1, seed),
    lambda seed: sample_x_rounds(noisy_psi442(0.9), LAYERS[0], 1, seed),
    lambda seed: search_class_overlap(PSI, RankVectorClass((4, 3, 2)), 1, seed),
    # No constrained party: the seed is checked though nothing is drawn.
    lambda seed: search_class_overlap(PSI, RankVectorClass((4, 4, 2)), 1, seed),
], ids=["simulate_counts", "monte_carlo_errors", "subspace_monte_carlo", "sample_z_rounds",
        "sample_x_rounds", "search_class_overlap", "search_class_overlap-442"])


@SEEDED_ENTRY_POINTS
@pytest.mark.parametrize("seed", [2**32, -1, 7.5])
def test_seed_outside_one_word_refused(draw, seed):
    """A seed of 2**32 or more would replay another seed's streams; the CLI's message names it."""
    message = f"seed must lie in [0, 4294967295], got {seed}"
    with pytest.raises(ValueError, match=re.escape(message)):
        draw(seed)


@SEEDED_ENTRY_POINTS
def test_largest_seed_drawn(draw):
    draw(2**32 - 1)
