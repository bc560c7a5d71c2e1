"""Property tests: every estimation path agrees with the one formula it calls."""

import dataclasses
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layered442.circuit import make_psi442, noisy_psi442
from layered442.hilbert import DensityOperator, fidelity_pure
from layered442.qkd import (
    LAYERS,
    PARTY_NAMES,
    compute_qbers,
    qbers_from_counts,
    sample_x_rounds,
    sample_z_rounds,
)
from layered442.tomography import exact_records, monte_carlo_errors, simulate_counts, standard_plan
from layered442.witness import subspace_fidelity

from conftest import flat_index

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
    result = monte_carlo_errors(exact_records(rho, PLAN), trials=2, seed=seed)
    assert abs(result.fidelity - fidelity_pure(rho, PSI)) < 1e-10
    m = rho.matrix
    for (a, b), (value, _) in result.subspace_fidelities.items():
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
    """Count tables, in the counts-file format, of sampled Z and X rounds."""
    z_table = Counter("".join(map(str, row)) for row in z.tolist())
    x_table = Counter()
    for row in x.tolist():
        if 0 in row:
            x_table["rest"] += 1
            continue
        chars = ["0"] * len(PARTY_NAMES)
        for party, sign in zip(layer.party_indices, row):
            chars[party] = "+" if sign > 0 else "-"
        x_table["".join(chars)] += 1
    return {"Z": dict(z_table), layer.x_setting_label: dict(x_table)}


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
