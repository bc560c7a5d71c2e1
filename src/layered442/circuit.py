"""Simulation of the layered-state photonic circuit.

Two polarization Bell pairs are fused on a polarizing beam splitter (PBS)
into a three-photon GHZ state, heralded by a trigger photon.  Two of the
photons then pass a beam-displacer interferometer that doubles their local
dimension: a BD maps polarization into path, half-wave plates at 22.5 deg
mix the polarizations in each path, and a PBS coincidence post-selects the
terms with equal polarizations.

The hybrid polarization-path levels are encoded as logical digits
2 * pol + path, with H = 0, V = 1 and upper = 0, lower = 1:

    0 = (H, upper)   1 = (H, lower)   2 = (V, upper)   3 = (V, lower)

A bare polarization qubit uses H = 0, V = 1, so a digit of a d-level party
is V-polarized iff digit >= d // 2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import DensityOperator, PureState, fidelity_pure

__all__ = [
    "CircuitOutcome",
    "PostSelectionError",
    "hwp_matrix",
    "bell_pair",
    "ghz_fuse",
    "pbs_coincidence",
    "dimension_double",
    "make_psi442",
    "circuit_psi442",
    "apply_white_noise",
    "visibility_for_fidelity",
    "noisy_psi442",
    "psi442_fidelity",
    "DIMS_442",
    "ALL_KETS",
    "SIGNAL_KETS",
]

#: Party dimensions of the layered state.
DIMS_442 = (4, 4, 2)

#: All computational kets of the (4, 4, 2) space in flat-index order.
ALL_KETS = tuple(f"{i}{j}{k}" for i, j, k in itertools.product(*map(range, DIMS_442)))

#: The kets the layered state is an equal superposition of.
SIGNAL_KETS = ("000", "111", "220", "331")


class PostSelectionError(ValueError):
    """No amplitude survives a post-selection step."""


@dataclass(frozen=True)
class CircuitOutcome:
    """Post-selected output state and its success probability."""

    state: PureState
    success_probability: float

    def __post_init__(self):
        p = float(self.success_probability)
        if not -1e-12 <= p <= 1 + 1e-12:
            raise ValueError(f"success probability {p} outside [0, 1]")
        object.__setattr__(self, "success_probability", min(1.0, max(0.0, p)))


def hwp_matrix(theta: float) -> np.ndarray:
    """Jones matrix of a half-wave plate with fast axis at ``theta``."""
    c, s = math.cos(2 * theta), math.sin(2 * theta)
    return np.array([[c, s], [s, -c]], dtype=np.complex128)


def _apply_local(psi: PureState, party: int, op: np.ndarray) -> PureState:
    """Apply a (possibly rectangular, norm-preserving) operator to one party."""
    if not 0 <= party < psi.num_parties:
        raise ValueError(f"party {party} out of range")
    d_in = psi.dims[party]
    if op.shape[1] != d_in:
        raise ValueError(f"operator expects dimension {op.shape[1]}, party has {d_in}")
    pre = math.prod(psi.dims[:party]) if party else 1
    post = math.prod(psi.dims[party + 1:]) if party + 1 < psi.num_parties else 1
    block = psi.amplitudes.reshape(pre, d_in, post)
    out = np.einsum("ij,ajb->aib", op, block)
    dims = psi.dims[:party] + (op.shape[0],) + psi.dims[party + 1:]
    return PureState(dims, out.reshape(-1))


# Beam displacer: polarization decides the output path.
_BD_ISOMETRY = np.zeros((4, 2), dtype=np.complex128)
_BD_ISOMETRY[0, 0] = 1.0  # H -> (H, upper) = digit 0
_BD_ISOMETRY[3, 1] = 1.0  # V -> (V, lower) = digit 3

# HWP at 22.5 deg on the polarization of both paths (digit = 2 * pol + path).
_HWP4 = np.kron(hwp_matrix(math.pi / 8), np.eye(2))


def bell_pair() -> PureState:
    """Polarization Bell pair (|HH> + |VV>)/sqrt(2)."""
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = amps[3] = 1 / math.sqrt(2)
    return PureState((2, 2), amps)


def _keep_equal_polarization(psi: PureState, parties: tuple[int, int]):
    """Zero the terms where the two parties' polarizations differ.

    Returns the kept amplitudes and their weight; raises
    :class:`PostSelectionError` when nothing survives.
    """
    # Each party's polarization, V iff digit >= d // 2, along its own axis.
    pol = np.meshgrid(*(np.arange(d) >= d // 2 for d in psi.dims), indexing="ij", sparse=True)
    i, j = parties
    kept = (psi.amplitudes.reshape(psi.dims) * (pol[i] == pol[j])).reshape(-1)
    prob = float(np.linalg.norm(kept) ** 2)
    if prob <= 1e-15:
        raise PostSelectionError("no amplitude survives PBS coincidence")
    return kept, prob


def pbs_coincidence(psi: PureState) -> CircuitOutcome:
    """PBS coincidence post-selection of parties A and B: one photon per output port.

    Both photons transmit (H, H) or both reflect (V, V); cross-polarized
    terms bunch into one port and are discarded.  The recorded probability
    is the squared norm of the kept component.
    """
    kept, prob = _keep_equal_polarization(psi, (0, 1))
    return CircuitOutcome(PureState(psi.dims, kept / math.sqrt(prob)), prob)


def ghz_fuse(pair1: PureState, pair2: PureState) -> CircuitOutcome:
    """Fuse two photon pairs on a PBS into a heralded three-photon state.

    Photons are ordered (1, 2) + (3, 4); the PBS interferes photons 2 and 3
    and coincidence keeps the equal-polarization terms.  Photon 3 is the
    trigger: it is projected onto the diagonal basis, with the minus
    outcome treated as phase-corrected by feed-forward, so the herald
    itself costs no probability.  With ideal Bell inputs the output is
    (|HHH> + |VVV>)/sqrt(2) on photons (1, 2, 4) and the success
    probability (the PBS coincidence weight) is 1/2.
    """
    if pair1.dims != (2, 2) or pair2.dims != (2, 2):
        raise ValueError("ghz_fuse expects two two-photon polarization states")
    joint = PureState(pair1.dims + pair2.dims, np.kron(pair1.amplitudes, pair2.amplitudes))
    kept, prob = _keep_equal_polarization(joint, (1, 2))
    # Project the trigger (axis 2) onto |+>; no cancellation is possible
    # because photon 2 carries the same polarization in every kept term.
    tensor = kept.reshape(2, 2, 2, 2)
    heralded = (tensor[:, :, 0, :] + tensor[:, :, 1, :]) / math.sqrt(2)
    amps = heralded.reshape(-1)
    amps /= np.linalg.norm(amps)
    return CircuitOutcome(PureState((2, 2, 2), amps), prob)


def dimension_double(psi: PureState) -> CircuitOutcome:
    """Double the local dimension of the polarization qubits A and B.

    BDs convert polarization into path, HWPs at 22.5 deg mix the
    polarizations within each path, and a PBS coincidence keeps the
    equal-polarization terms, turning a Bell input into the four-level
    maximally entangled state (|00> + |11> + |22> + |33>)/2 with
    probability 1/2.  Spectator parties pass through untouched; an A or B
    that is not a qubit is refused.
    """
    state = psi
    for op in (_BD_ISOMETRY, _HWP4):
        for p in (0, 1):
            state = _apply_local(state, p, op)
    return pbs_coincidence(state)


def make_psi442() -> PureState:
    """Closed-form layered state (|000> + |111> + |220> + |331>)/2, dims (4, 4, 2)."""
    amps = np.zeros(len(ALL_KETS), dtype=np.complex128)
    amps[[ALL_KETS.index(ket) for ket in SIGNAL_KETS]] = 0.5
    return PureState(DIMS_442, amps)


def circuit_psi442() -> tuple[CircuitOutcome, CircuitOutcome]:
    """Run the full chain: Bell pairs -> PBS fusion -> dimension doubling.

    Returns the GHZ-fusion outcome and the final layered-state outcome.
    The final state must match :func:`make_psi442` exactly.
    """
    fused = ghz_fuse(bell_pair(), bell_pair())
    layered = dimension_double(fused.state)
    return fused, layered


def apply_white_noise(psi: PureState, visibility: float) -> DensityOperator:
    """Mix a pure state with white noise: v |psi><psi| + (1 - v) I/D."""
    v = float(visibility)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {v}")
    d = psi.amplitudes.size
    mat = v * np.outer(psi.amplitudes, psi.amplitudes.conj()) + (1 - v) * np.eye(d) / d
    return DensityOperator(psi.dims, mat)


def visibility_for_fidelity(target_fidelity: float) -> float:
    """Invert F = v + (1 - v)/D, D = 32, for the white-noise visibility of the layered state."""
    if not 0.0 <= target_fidelity <= 1.0:
        raise ValueError("fidelity must lie in [0, 1]")
    dim = len(ALL_KETS)
    return (target_fidelity - 1.0 / dim) / (1.0 - 1.0 / dim)


def noisy_psi442(visibility: float) -> DensityOperator:
    """White-noise layered state, the standard simulation input."""
    return apply_white_noise(make_psi442(), visibility)


def psi442_fidelity(rho: DensityOperator) -> float:
    """Fidelity of a state with the ideal layered target."""
    return fidelity_pure(rho, make_psi442())
