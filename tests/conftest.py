import math

import numpy as np
import pytest

from layered442.hilbert import DensityOperator, PureState
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


def basis_state(dims, digits) -> PureState:
    """Computational basis ket |digits> for the given dims."""
    amps = np.zeros(math.prod(dims), dtype=np.complex128)
    amps[flat_index("".join(map(str, digits)), dims)] = 1.0
    return PureState(dims, amps)


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Reduced state of the parties in ``keep`` (ascending): one einsum over the traced ones."""
    n = len(rho.dims)
    rows = list(range(n))
    cols = [n + p if p in keep else p for p in rows]
    reduced = np.einsum(rho.matrix.reshape(rho.dims * 2), rows + cols,
                        [rows[p] for p in keep] + [cols[p] for p in keep])
    d = math.prod(rho.dims[p] for p in keep)
    return DensityOperator(tuple(rho.dims[p] for p in keep), reduced.reshape(d, d))


def empirical_mutual_information(x, y) -> float:
    """Mutual information (bits) of two discrete sample sequences."""
    x = np.asarray(x)
    y = np.asarray(y)
    if x.shape != y.shape or x.size == 0:
        raise ValueError("x and y must be equal-length non-empty sequences")
    mi = 0.0
    for xv in np.unique(x):
        px = np.mean(x == xv)
        for yv in np.unique(y):
            pxy = np.mean((x == xv) & (y == yv))
            if pxy > 0:
                py = np.mean(y == yv)
                mi += pxy * math.log2(pxy / (px * py))
    return mi


def choice_draws(rho, label, n, seed, stream):
    """Outcome indices of a setting drawn by ``Generator.choice`` on the stream (seed, stream, 2).

    The reference the round sampler must equal index for index.
    """
    p = born_probabilities(rho, label)
    return np.random.default_rng([seed, stream, 2]).choice(p.size, size=n, p=p / p.sum())


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)
