"""Dense complex linear algebra for small multipartite Hilbert spaces.

States live on a composite space with per-party dimensions ``dims``.  The
flat index is mixed-radix and row-major: the first party is the most
significant digit, so for dims (4, 4, 2) the ket ``|ijk>`` sits at index
``(i*4 + j)*2 + k``.  All objects are immutable values and all operations
are pure functions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PureState",
    "DensityOperator",
    "SchmidtData",
    "as_dim_vector",
    "haar_random_state",
    "schmidt_decompose",
    "rank_vector",
    "fidelity_pure",
    "keyed_rng",
]

# Largest supported composite dimension; beyond this the dense
# representation stops being sensible.
MAX_TOTAL_DIM = 4096

NORM_TOL = 1e-12
HERM_TOL = 1e-12
EIG_TOL = 1e-10


def as_dim_vector(dims) -> tuple[int, ...]:
    """Validate and normalize a dimension vector (every entry >= 1)."""
    out = tuple(int(d) for d in dims)
    if len(out) == 0:
        raise ValueError("dimension vector must not be empty")
    if any(d < 1 for d in out):
        raise ValueError(f"party dimensions must be >= 1, got {out}")
    return out


def _total_dim(dims: tuple[int, ...]) -> int:
    total = math.prod(dims)
    if total > MAX_TOTAL_DIM:
        raise ValueError(f"total dimension {total} exceeds supported maximum {MAX_TOTAL_DIM}")
    return total


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over a multipartite Hilbert space."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = as_dim_vector(self.dims)
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1).copy()
        if amps.size != _total_dim(dims):
            raise ValueError(f"amplitude vector length {amps.size} does not match dims {dims}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        amps.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def num_parties(self) -> int:
        return len(self.dims)

    def density(self) -> "DensityOperator":
        """Projector |psi><psi| as a density operator."""
        return DensityOperator(self.dims, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite operator."""

    dims: tuple[int, ...]
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = as_dim_vector(self.dims)
        total = _total_dim(dims)
        mat = np.asarray(self.matrix, dtype=np.complex128).copy()
        if mat.shape != (total, total):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {dims}")
        if np.max(np.abs(mat - mat.conj().T)) > HERM_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        tr = np.trace(mat).real
        if abs(tr - 1.0) > NORM_TOL:
            raise ValueError(f"trace is {tr}, expected 1")
        lo = np.linalg.eigvalsh(mat)[0]
        if lo < -EIG_TOL:
            raise ValueError(f"matrix has negative eigenvalue {lo:.3e}")
        mat.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", mat)

    @property
    def num_parties(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class SchmidtData:
    """Schmidt decomposition of a pure state across one party and the rest.

    Coefficients are non-negative and sorted descending with sum of
    squares 1.  Column i of ``left_vectors`` is the i-th Schmidt vector of
    that party.
    """

    coefficients: np.ndarray = field(repr=False)
    left_vectors: np.ndarray = field(repr=False)


def haar_random_state(dims, rng: np.random.Generator) -> PureState:
    """Haar-random pure state (normalized complex Gaussian vector)."""
    dims = as_dim_vector(dims)
    n = _total_dim(dims)
    vec = rng.normal(size=n) + 1j * rng.normal(size=n)
    return PureState(dims, vec / np.linalg.norm(vec))


def _check_seed(seed) -> int:
    """``seed`` as an int; a ValueError unless it is an integer in [0, 2**32)."""
    if (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
            or not 0 <= seed < 2**32):
        raise ValueError(f"seed must lie in [0, {2**32 - 1}], got {seed}")
    return int(seed)


def keyed_rng(seed, *key) -> np.random.Generator:
    """The generator ``default_rng([seed, *key])``: every seeded draw of the package.

    The seed must be an integer in [0, 2**32): numpy's seed sequence splits
    an integer of 2**32 or more into 32-bit words, so ``[2**32 + 5, 1]``
    would draw what ``[5, 1, 1]`` draws.  The keys in use:

    =====================================  ==============================
    stream                                 key
    =====================================  ==============================
    simulated counts                       (seed, standard-plan index)
    Monte Carlo resampling                 (seed, standard-plan index, 1)
    QKD rounds                             (seed, stream, 2); stream 1 is
                                           ``Z``, 2 to 5 the X settings of
                                           the four ``qkd.LAYERS``
    class-overlap search starts            (seed, member index, 3)
    =====================================  ==============================

    A setting's standard-plan index is its position in
    ``tomography.standard_plan()``, whatever plan it is simulated or
    resampled in.  The third key word keeps the kinds apart at one seed:
    without it the resampling, and the rounds of stream s, would replay the
    counts of setting s.  The seed sequence ignores a trailing 0, so the
    tags are non-zero.
    """
    return np.random.default_rng([_check_seed(seed), *key])


def schmidt_decompose(psi: PureState, party: int) -> SchmidtData:
    """Schmidt decomposition of ``psi`` across ``party`` | the other parties."""
    if not 0 <= party < psi.num_parties:
        raise ValueError(f"party {party} out of range (have {psi.num_parties} parties)")
    rest = (p for p in range(psi.num_parties) if p != party)
    mat = psi.amplitudes.reshape(psi.dims).transpose(party, *rest).reshape(psi.dims[party], -1)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return SchmidtData(s, u)


def rank_vector(psi: PureState) -> tuple[int, ...]:
    """Per-party Schmidt ranks: coefficients above 1e-8 times the largest of each cut."""
    ranks = []
    for p in range(psi.num_parties):
        s = schmidt_decompose(psi, p).coefficients
        ranks.append(int(np.sum(s > 1e-8 * s[0])))
    return tuple(ranks)


def fidelity_pure(rho: DensityOperator, target: PureState) -> float:
    """Overlap <target|rho|target>, clamped to [0, 1]."""
    if rho.dims != target.dims:
        raise ValueError(f"dimension mismatch: {rho.dims} vs {target.dims}")
    val = np.vdot(target.amplitudes, rho.matrix @ target.amplitudes).real
    return float(min(1.0, max(0.0, val)))
