import numpy as np
import pytest

from layered442.hilbert import DensityOperator
from layered442.tomography import born_probabilities


def random_density(dims, rng) -> DensityOperator:
    """Ginibre-random full-rank density operator."""
    n = int(np.prod(dims))
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    mat = g @ g.conj().T
    return DensityOperator(dims, mat / np.trace(mat).real)


def flat_index(ket: str, dims=(4, 4, 2)) -> int:
    idx = 0
    for ch, d in zip(ket, dims):
        idx = idx * d + int(ch)
    return idx


def choice_draws(rho, label, n, seed, stream):
    """Outcome indices of a setting drawn by ``Generator.choice`` on the stream (seed, stream, 2).

    The reference the round sampler must equal index for index.
    """
    p = born_probabilities(rho, label)
    return np.random.default_rng([seed, stream, 2]).choice(p.size, size=n, p=p / p.sum())


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)
