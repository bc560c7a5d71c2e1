"""Dimensionality certification for the layered three-photon state.

A state is certified (4, 4, 2)-entangled when its fidelity with the ideal
layered target exceeds the best overlap any state of a lower dimensionality
class can reach.  The class bound follows from truncated Schmidt
decompositions across the single-party cuts; for the (4, 3, 2) class and
the layered target the bound is exactly 3/4.

Fidelity itself is assembled from 32 diagonal and 6 unique real
off-diagonal density-matrix elements, the off-diagonals being decomposed
into two-level sigma_x / sigma_y correlators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .circuit import ALL_KETS, SIGNAL_KETS
from .hilbert import PureState, haar_random_state, keyed_rng, schmidt_decompose

__all__ = [
    "OFFDIAG_PAIRS",
    "FMAX_BOUND",
    "GME_BOUND",
    "ElementEstimate",
    "RankVectorClass",
    "Certification",
    "class_bound_with_cuts",
    "fmax_class_bound",
    "fidelity_from_elements",
    "fidelity_from_arrays",
    "offdiag_from_correlators",
    "offdiag_from_pair_correlators",
    "subspace_fidelity",
    "ghz_witness_value",
    "gme_witnessed",
    "certify_dimensionality",
    "search_class_overlap",
]

#: The six unique coherence pairs of the layered target, bra < ket.
OFFDIAG_PAIRS = tuple(itertools.combinations(SIGNAL_KETS, 2))

_SIGNAL_INDICES = [ALL_KETS.index(k) for k in SIGNAL_KETS]

#: Maximal overlap of any (4,3,2)-class state with the layered target.
FMAX_BOUND = 0.75

#: Subspace fidelity above which genuine multipartite entanglement is witnessed.
GME_BOUND = 0.5

# Tolerance for renormalizing a diagonal set whose sum drifted from 1.
DIAG_SUM_TOL = 0.02

#: Most sweeps over the constrained parties per :func:`search_class_overlap` call.
SEESAW_SWEEPS = 10

#: Overlap rise up to which a sweep counts as converged, ending the search.
#: Converged sweeps move an overlap by at most 1.0e-15 (rounding).  Stopping at
#: the first sweep that raises none by more than 1e-12 agreed with all 10
#: sweeps within 8.9e-16 on psi442 (every class member on dims (4, 4, 2), 40
#: seeds, 50 restarts each) and within 5.1e-14 on Haar-random targets.
SEESAW_TOL = 1e-12

# Third key word of the search streams (see hilbert.keyed_rng).
_SEARCH_STREAM = 3


@dataclass(frozen=True)
class ElementEstimate:
    """One estimated density-matrix element (real part) with its error."""

    bra: str
    ket: str
    value: float
    std_dev: float = 0.0
    low_stats: bool = False

    def __post_init__(self):
        if self.std_dev < 0:
            raise ValueError("std_dev must be non-negative")
        if self.bra == self.ket and not -1e-9 <= self.value <= 1 + 1e-9:
            raise ValueError(f"diagonal element {self.value} outside [0, 1]")


@dataclass(frozen=True)
class RankVectorClass:
    """Dimensionality class given by per-party rank caps, e.g. (4, 3, 2).

    The certified set is the convex hull over all party permutations of
    the caps that remain compatible with the local dimensions; for caps
    (4, 3, 2) on dims (4, 4, 2) these are (4, 3, 2) and (3, 4, 2).
    """

    ranks: tuple[int, ...]

    def __post_init__(self):
        ranks = tuple(int(r) for r in self.ranks)
        if any(r < 1 for r in ranks):
            raise ValueError(f"rank caps must be >= 1, got {ranks}")
        object.__setattr__(self, "ranks", ranks)

    def members(self, dims) -> tuple[tuple[int, ...], ...]:
        dims = tuple(dims)
        if len(self.ranks) != len(dims):
            raise ValueError("rank vector length does not match party count")
        found = {
            perm
            for perm in itertools.permutations(self.ranks)
            if all(r <= d for r, d in zip(perm, dims))
        }
        if not found:
            raise ValueError(f"no permutation of {self.ranks} fits dims {dims}")
        return tuple(sorted(found))


@dataclass(frozen=True)
class Certification:
    """Outcome of comparing a measured fidelity against a class bound."""

    f_exp: float
    std_dev: float
    bound: float
    sigma_margin: float
    certified: bool


def class_bound_with_cuts(target: PureState, cls: RankVectorClass
                          ) -> tuple[float, dict[tuple[int, int], float]]:
    """Class bound of :func:`fmax_class_bound` and the cut overlaps it rests on.

    Returns ``(bound, cuts)``.  ``cuts[(p, cap)]``, for every cap some
    member puts on party p in member order, is the best overlap with
    ``target`` of any state whose Schmidt rank across party p is at most
    cap: the sum of the cap largest squared Schmidt coefficients of the
    target there.  Each party's Schmidt decomposition is computed once.
    """
    coefficients, cuts, best = {}, {}, 0.0
    for member in cls.members(target.dims):
        for p, cap in enumerate(member):
            if p not in coefficients:
                coefficients[p] = schmidt_decompose(target, p).coefficients
            cuts[(p, cap)] = float(min(1.0, np.sum(coefficients[p][:cap] ** 2)))
        best = max(best, min(cuts[(p, cap)] for p, cap in enumerate(member)))
    return best, cuts


def fmax_class_bound(target: PureState, cls: RankVectorClass) -> float:
    """Fidelity bound of a rank-vector class against ``target``.

    For each class member the overlap is limited by every single-party
    cut, so the member bound is the minimum over cuts; the class bound is
    the maximum over members.
    """
    return class_bound_with_cuts(target, cls)[0]


def fidelity_from_elements(diagonals, offdiagonals) -> float:
    """Assemble the target fidelity from measured matrix elements.

    Requires all 32 diagonal estimates and the 6 unique real off-diagonal
    parts; the arithmetic is :func:`fidelity_from_arrays`.
    """
    values = {tuple(sorted((e.bra, e.ket))): e.value for e in (*diagonals, *offdiagonals)}
    for ket in ALL_KETS:
        if (ket, ket) not in values:
            raise ValueError(f"missing diagonal element |{ket}><{ket}|")
    for pair in OFFDIAG_PAIRS:
        if pair not in values:
            raise ValueError(f"missing off-diagonal element |{pair[0]}><{pair[1]}|")
    return fidelity_from_arrays([values[(k, k)] for k in ALL_KETS],
                                [values[p] for p in OFFDIAG_PAIRS])


def _ordered_sum(values: np.ndarray):
    """Sum over the last axis, left to right like the builtin ``sum``.

    numpy's pairwise summation would round differently, and published
    fidelities must not change in the last bit.
    """
    return sum(np.moveaxis(values, -1, 0))


def fidelity_from_arrays(diagonals, offdiagonals):
    """Target fidelity from element arrays, broadcasting over leading axes.

    ``diagonals`` has shape (..., 32) in ``ALL_KETS`` order and
    ``offdiagonals`` shape (..., 6) in ``OFFDIAG_PAIRS`` order, so a
    leading trial axis gives one fidelity per trial.  Diagonals are
    renormalized to unit sum (allowed drift 2%, checked for every entry);
    off-diagonals are taken as measured, each already normalized within
    its own measurement setting.
    """
    diag = np.asarray(diagonals, dtype=float)
    total = _ordered_sum(diag)
    drift = np.abs(total - 1.0)
    if np.any(drift > DIAG_SUM_TOL):
        worst = np.ravel(total)[np.argmax(drift)]
        raise ValueError(f"diagonal elements sum to {worst:.4f}, outside the 2% band")
    diag_sum = _ordered_sum(diag[..., _SIGNAL_INDICES]) / total
    fidelity = (diag_sum + 2.0 * _ordered_sum(np.asarray(offdiagonals, dtype=float))) / 4.0
    return float(fidelity) if np.ndim(fidelity) == 0 else fidelity


def _check_expectation(name: str, value):
    bad = np.asarray(value)[~(np.abs(value) <= 1.0 + 1e-9)]  # NaN fails the comparison
    if bad.size:
        raise ValueError(f"expectation {name} = {bad[0]} outside [-1, 1]")


def offdiag_from_correlators(exp_xxx, exp_yyx, exp_yxy, exp_xyy):
    """Real part of a three-party coherence from four sigma correlators.

    The signed operator sum sigma_xxx - sigma_yyx - sigma_yxy - sigma_xyy
    on the two-level subspaces equals 4(|ijk><lmn| + |lmn><ijk|), so with
    expectation values taken over the full outcome distribution the real
    part carries a factor 1/8.  Array arguments broadcast, e.g. over a
    leading trial axis.
    """
    for name, val in (("xxx", exp_xxx), ("yyx", exp_yyx), ("yxy", exp_yxy), ("xyy", exp_xyy)):
        _check_expectation(name, val)
    return (exp_xxx - exp_yyx - exp_yxy - exp_xyy) / 8.0


def offdiag_from_pair_correlators(exp_xx, exp_yy):
    """Real part of a two-party coherence (third party diagonal).

    Here sigma_xx - sigma_yy = 2(|ij><lm| + |lm><ij|) on the relevant
    subspace, giving a factor 1/4.  Array arguments broadcast.
    """
    _check_expectation("xx", exp_xx)
    _check_expectation("yy", exp_yy)
    return (exp_xx - exp_yy) / 4.0


def subspace_fidelity(diag_ijk, diag_lmn, offdiag):
    """Fidelity with (|ijk> + |lmn>)/sqrt(2) inside its two-level subspace.

    The elements are divided by the subspace population, so the result
    refers to the state conditioned on the subspace.  Array arguments
    broadcast, giving one fidelity per entry (e.g. per Monte Carlo trial)
    and nan where the population is zero; scalar arguments of zero
    population raise.
    """
    pop = np.asarray(diag_ijk + diag_lmn)
    if pop.ndim == 0 and pop <= 0:
        raise ValueError("subspace population is zero, cannot renormalize")
    fidelity = (pop + 2.0 * offdiag) / (2.0 * np.where(pop > 0, pop, np.nan))
    return float(fidelity) if np.ndim(fidelity) == 0 else fidelity


def ghz_witness_value(fidelity: float) -> float:
    """Expectation of the witness operator I/2 - |target><target|.

    Returns 1/2 - F; a negative value witnesses genuine multipartite
    entanglement.  Reports should quote the margin F - 1/2 alongside the
    decision, which depends only on the side of 1/2.
    """
    if not -1e-9 <= fidelity <= 1 + 1e-9:
        raise ValueError(f"fidelity {fidelity} outside [0, 1]")
    return 0.5 - fidelity


def gme_witnessed(fidelity: float) -> bool:
    """True when the subspace fidelity exceeds the GME bound of 1/2."""
    return fidelity > GME_BOUND


def certify_dimensionality(f_exp: float, std: float, bound: float = FMAX_BOUND) -> Certification:
    """Compare a measured fidelity against a class bound in sigma units."""
    if not 0 < std < np.inf:
        raise ValueError("std must be a positive finite number")
    margin = (f_exp - bound) / std
    return Certification(f_exp, std, bound, margin, f_exp > bound)


# ---------------------------------------------------------------------------
# Stochastic verification of the class bound (test oracle, not the
# production certification path).
# ---------------------------------------------------------------------------


def _project(tensor: np.ndarray, isometries) -> np.ndarray:
    """Apply V^dagger to party p for every ``(p, V)``, V of shape (restarts, d_p, cap).

    The leading axis of ``tensor`` is the restart axis (length 1 broadcasts).
    """
    axes = list(range(tensor.ndim - 1))
    for p, v in isometries:
        out = axes[:p] + [len(axes)] + axes[p + 1:]
        tensor = np.einsum(tensor, [..., *axes], v.conj(), [..., p, len(axes)], [..., *out])
    return tensor


def _sweep(target: PureState, isometries):
    """One see-saw sweep: each ``(p, V)`` in turn becomes the best isometry for p.

    With the other isometries fixed, the best cap-dimensional subspace of
    party p is spanned by the top-cap eigenvectors of p's reduced operator
    of the projected target.  Returns the new isometries and the overlaps
    ||(P_S0 x P_S1 x ...)|target>||^2 they attain; no update lowers them.
    """
    tensor = target.amplitudes.reshape((1,) + target.dims)
    axes = list(range(len(target.dims)))
    isometries = list(isometries)
    overlaps = np.vdot(tensor, tensor).real  # no constrained party: ||target||^2
    for i, (p, v) in enumerate(isometries):
        rest = _project(tensor, isometries[:i] + isometries[i + 1:])
        bra = axes[:p] + [len(axes)] + axes[p + 1:]
        weights, vectors = np.linalg.eigh(
            np.einsum(rest, [..., *axes], rest.conj(), [..., *bra], [..., p, len(axes)]))
        cap = v.shape[-1]
        isometries[i] = (p, vectors[..., -cap:])
        overlaps = weights[..., -cap:].sum(axis=-1)
    return isometries, overlaps


def search_class_overlap(target: PureState, cls: RankVectorClass, restarts: int,
                         seed: int) -> np.ndarray:
    """See-saw search for the best class overlap with ``target``.

    Restart r runs member k = ``r % len(members)`` and starts each
    constrained party (rank cap below its dimension) on the top-cap left
    Schmidt vectors of a Haar-random state drawn from the stream
    ``keyed_rng(seed, k, 3)``.  A member with two or more constrained
    parties draws one start per restart, in restart order.  Sweeps,
    batched over its restarts, then raise the overlap of the class state
    supported on the local subspaces; they stop once no restart's overlap
    rises by more than ``SEESAW_TOL``, after at most ``SEESAW_SWEEPS``.
    A member with at most one constrained party projects the target by no
    other isometry, so its first sweep is the exact optimum whatever the
    start: it draws one start, runs one sweep and gives every one of its
    restarts that overlap.  Returns the per-restart overlaps, one per
    requested restart, so ``restarts`` in ``fmax_report.json`` still counts
    every one; none may exceed the analytic class bound.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    members = cls.members(target.dims)
    out = np.empty(restarts)
    for k, member in enumerate(members[:restarts]):
        rng = keyed_rng(seed, k, _SEARCH_STREAM)
        constrained = [(p, cap) for p, cap in enumerate(member) if cap < target.dims[p]]
        sweeps = SEESAW_SWEEPS if len(constrained) > 1 else 1
        count = len(range(k, restarts, len(members))) if sweeps > 1 else 1
        starts = [haar_random_state(target.dims, rng) for _ in range(count)]
        isometries = [(p, np.stack([schmidt_decompose(phi, p).left_vectors[:, :cap]
                                    for phi in starts]))
                      for p, cap in constrained]
        isometries, overlaps = _sweep(target, isometries)
        for _ in range(sweeps - 1):
            previous = overlaps
            isometries, overlaps = _sweep(target, isometries)
            if np.all(overlaps - previous <= SEESAW_TOL):
                break
        out[k::len(members)] = overlaps
    return out
