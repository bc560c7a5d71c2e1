"""Layered key extraction and asymptotic rate analysis.

Each key layer is a pair of the layered state's four signal kets, shared
by the parties on which the two kets differ: two three-party GHZ layers
(000/111 and 220/331) and two layers shared by A and B alone (000/220 and
111/331, which agree on C and read 00/22 and 11/33).  Each party maps
its outcome digit to a key bit; rounds outside a layer's subspace are
sifted away.  Error rates are quoted in the computational (Z) basis,
pairwise and three-way, and in the superposition (X) basis via sigma_x
parities on the layer's two-level subspaces.

The asymptotic secret key per post-selected round uses the one-way bound

    r = 1 - h(QBER_X) - max_i h(QBER_Z(A, i))

with h the binary entropy and the max running over party A's pairings
(the single pair itself for two-party layers).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import ALL_KETS, DIMS_442
from .hilbert import DensityOperator, keyed_rng
from .tomography import ELEMENT_PLANS, born_probabilities, setting_outcomes

__all__ = [
    "LayerSpec",
    "LAYERS",
    "QberReport",
    "LayerKeyReport",
    "key_map_abc",
    "key_map_ab",
    "binary_entropy",
    "round_table",
    "compute_qbers",
    "qbers_from_counts",
    "asymptotic_key_rate",
    "sample_z_rounds",
    "sample_x_rounds",
]

PARTY_NAMES = ("A", "B", "C")

# Round streams (seed, stream, 2), Z on stream 1 and layer k's X on 2 + k
# (see hilbert.keyed_rng).
_Z_STREAM = 1
_X_STREAM_BASE = 2
_ROUND_STREAM = 2


# The four key layers, each id with its signal pair: the only layers there are.
_LAYER_KETS = {
    "ABC-layer-0": ("000", "111"),
    "ABC-layer-1": ("220", "331"),
    "AB-layer-0": ("000", "220"),
    "AB-layer-1": ("111", "331"),
}


@dataclass(frozen=True)
class LayerSpec:
    """One of the four key layers of :data:`LAYERS`: its id and its signal pair.

    The participants are the parties on which the two kets differ; the
    rest follows from their digits there.
    """

    layer_id: str
    kets: tuple[str, str]

    def __post_init__(self):
        if _LAYER_KETS.get(self.layer_id) != self.kets:
            raise ValueError(f"layer {self.layer_id!r} with kets {self.kets!r} is not one of "
                             f"the {len(_LAYER_KETS)} layers of qkd.LAYERS")

    @property
    def party_indices(self) -> tuple[int, ...]:
        return tuple(p for p, (a, b) in enumerate(zip(*self.kets)) if a != b)

    @property
    def participants(self) -> tuple[str, ...]:
        return tuple(PARTY_NAMES[p] for p in self.party_indices)

    @property
    def signal_kets(self) -> tuple[str, str]:
        """The two kets on the participants alone, e.g. ("00", "22")."""
        return tuple("".join(ket[p] for p in self.party_indices) for ket in self.kets)

    @property
    def digit_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((int(a), int(b)) for a, b in zip(*self.signal_kets))

    @property
    def is_tripartite(self) -> bool:
        return len(self.party_indices) == 3

    @property
    def x_setting_label(self) -> str:
        """Correlator setting measuring sigma_x on each participant's two levels."""
        return ELEMENT_PLANS[self.kets][0][0]


LAYERS = tuple(LayerSpec(layer_id, kets) for layer_id, kets in _LAYER_KETS.items())


@dataclass(frozen=True)
class QberReport:
    """Per-layer error rates with binomial errors and sifting bookkeeping.

    The pairwise fields are None for two-party layers.  The key-rate bound
    reads only A's pairings; qber_z_bc completes the three-party picture.
    """

    layer_id: str
    qber_z: float
    qber_z_std: float
    qber_x: float
    qber_x_std: float
    qber_z_ab: float | None = None
    qber_z_ab_std: float | None = None
    qber_z_ac: float | None = None
    qber_z_ac_std: float | None = None
    qber_z_bc: float | None = None
    qber_z_bc_std: float | None = None
    n_z_sifted: int = 0
    n_x_sifted: int = 0
    sift_fraction_z: float = 1.0
    sift_fraction_x: float = 1.0

    def __post_init__(self):
        for name in ("qber_z", "qber_x", "qber_z_ab", "qber_z_ac", "qber_z_bc"):
            val = getattr(self, name)
            if val is not None and not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} = {val} outside [0, 1]")


@dataclass(frozen=True)
class LayerKeyReport:
    """Key bits per post-selected round, central and worst-case (+1 sigma)."""

    layer_id: str
    rate_mean: float
    rate_pessimistic: float

    def __post_init__(self):
        if self.rate_mean > 1 + 1e-12 or self.rate_pessimistic > self.rate_mean + 1e-12:
            raise ValueError("invalid key rates")


def key_map_abc(outcome_digit: int) -> int:
    """Three-party key bit: 0 for outcomes 0 and 2, 1 otherwise."""
    if not 0 <= outcome_digit <= 3:
        raise ValueError(f"outcome digit {outcome_digit} out of range")
    return 0 if outcome_digit in (0, 2) else 1


def key_map_ab(outcome_digit: int) -> int:
    """Two-party key bit: 0 for outcomes 0 and 1, 1 otherwise."""
    if not 0 <= outcome_digit <= 3:
        raise ValueError(f"outcome digit {outcome_digit} out of range")
    return 0 if outcome_digit in (0, 1) else 1


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2 (1-p), with h(0) = h(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def _binomial_std(q: float, n: int) -> float:
    if n <= 0:
        return 0.0
    return math.sqrt(max(q * (1.0 - q), 0.0) / n)


@functools.cache
def _layer_weights(layer: LayerSpec) -> tuple:
    """Read-only 0/1 weight rows that pick a layer's sifted and erroneous outcomes.

    Returns ``(pair_keys, z_weights, x_weights)``.  ``z_weights`` rows are
    sifted, error, then one pairwise error per key of ``pair_keys`` ("ab",
    "ac", "bc"; none for two-party layers), over the 32 computational
    outcomes in ``ALL_KETS`` order.  ``x_weights`` rows are sifted and
    error over the layer's X-setting outcomes, residual last.  A Z outcome
    is sifted when each participant's digit lies in its layer pair, an
    error when their key bits (:func:`key_map_abc` for three-party layers,
    :func:`key_map_ab` for two-party ones) differ; an X outcome is an error
    when an odd number of participants read ``-``.
    """
    digits = np.array([[int(ket[p]) for p in layer.party_indices] for ket in ALL_KETS])
    k0, k1 = np.array(layer.digit_pairs).T
    key_map = key_map_abc if layer.is_tripartite else key_map_ab
    sifted = ((digits == k0) | (digits == k1)).all(axis=1)
    bits = np.array([key_map(k) for k in range(max(DIMS_442))])[digits]
    pairs = ((0, 1), (0, 2), (1, 2)) if layer.is_tripartite else ()
    pair_keys = tuple((layer.participants[i] + layer.participants[j]).lower() for i, j in pairs)
    z_rows = [sifted, (bits != bits[:, :1]).any(axis=1)]
    z_rows += [bits[:, i] != bits[:, j] for i, j in pairs]
    x_outcomes = setting_outcomes(layer.x_setting_label)
    x_rows = [[o != "rest" for o in x_outcomes],
              [o != "rest" and sum(o[p] == "-" for p in layer.party_indices) % 2 == 1
               for o in x_outcomes]]
    z_weights = (np.array(z_rows) & sifted).astype(float)
    x_weights = np.array(x_rows, dtype=float)
    z_weights.flags.writeable = x_weights.flags.writeable = False
    return pair_keys, z_weights, x_weights


def round_table(rounds, label: str) -> np.ndarray:
    """Counts of one setting's per-round outcome indices, as ``tomography.count_tables`` gives them.

    ``rounds`` index ``tomography.setting_outcomes(label)``, as
    :func:`sample_z_rounds` ("Z") and :func:`sample_x_rounds` (a layer's X
    setting) draw them.  Empty rounds, an index out of range and a label
    outside the standard plan are rejected.
    """
    n_outcomes = len(setting_outcomes(label))
    rounds = np.asarray(rounds, dtype=int)
    if rounds.size == 0:
        raise ValueError("empty sample set")
    if rounds.ndim != 1 or rounds.min() < 0 or rounds.max() >= n_outcomes:
        raise ValueError(f"{label} rounds must be outcome indices in [0, {n_outcomes}) "
                         f"of setting {label}")
    return np.bincount(rounds, minlength=n_outcomes)


def compute_qbers(samples: dict, layer: LayerSpec) -> QberReport:
    """Error rates of per-round outcome indices, binned by :func:`round_table`.

    ``samples`` maps "Z" to computational rounds and "X" to rounds of
    ``layer``'s X setting; any other key is rejected.
    """
    labels = {"Z": "Z", "X": layer.x_setting_label}
    tables = {}
    for basis, rounds in samples.items():
        if basis not in labels:
            raise ValueError(f"samples key {basis!r} is neither 'Z' nor 'X'")
        tables[labels[basis]] = round_table(rounds, labels[basis])
    return qbers_from_counts(tables, layer)


def qbers_from_counts(count_tables: dict, layer: LayerSpec) -> QberReport:
    """Error rates from aggregated counts (computational + X settings).

    ``count_tables`` maps setting labels to counts in canonical outcome
    order, as :func:`layered442.tomography.count_tables` returns them; it
    must contain "Z" and the layer's X setting.  Every rate is a dot product
    of a table with the layer's weights.
    """
    if "Z" not in count_tables:
        raise ValueError("missing computational setting 'Z' in counts")
    x_label = layer.x_setting_label
    if x_label not in count_tables:
        raise ValueError(f"missing setting {x_label!r} for layer {layer.layer_id}")
    pair_keys, z_weights, x_weights = _layer_weights(layer)
    z_counts, x_counts = count_tables["Z"], count_tables[x_label]
    for label, counts, weights in (("Z", z_counts, z_weights), (x_label, x_counts, x_weights)):
        if np.shape(counts) != weights.shape[1:]:
            raise ValueError(f"setting {label!r} needs {weights.shape[1]} counts in canonical "
                             f"outcome order, got shape {np.shape(counts)}")
    total_z, err_z, *pair_errs = (z_weights @ z_counts).tolist()
    if total_z <= 0:
        raise ValueError(f"no Z counts in layer {layer.layer_id}")
    total_x, err_x = (x_weights @ x_counts).tolist()
    if total_x <= 0:
        raise ValueError(f"no X counts in layer {layer.layer_id}")
    qber_z = err_z / total_z
    qber_x = err_x / total_x
    extra = {}
    for key, err in zip(pair_keys, pair_errs):
        q = err / total_z
        extra[f"qber_z_{key}"] = q
        extra[f"qber_z_{key}_std"] = _binomial_std(q, int(total_z))

    return QberReport(
        layer_id=layer.layer_id,
        qber_z=qber_z,
        qber_z_std=_binomial_std(qber_z, int(total_z)),
        qber_x=qber_x,
        qber_x_std=_binomial_std(qber_x, int(total_x)),
        n_z_sifted=int(total_z),
        n_x_sifted=int(total_x),
        sift_fraction_z=total_z / float(z_counts.sum()),
        sift_fraction_x=total_x / float(x_counts.sum()),
        **extra,
    )


def asymptotic_key_rate(report: QberReport) -> LayerKeyReport:
    """Lower-bound key per round from a QBER report, clamped at zero.

    The entropy max runs over A's pairings, AB then AC (the layer's own Z
    rate for two-party layers).  The pessimistic rate plugs in value + 1
    sigma for every error rate, capped at 1/2 where the rate vanishes
    anyway.
    """

    def rate(qx, pair_qs):
        return max(0.0, 1.0 - binary_entropy(qx) - max(binary_entropy(q) for q in pair_qs))

    pairs = [(q, s) for q, s in ((report.qber_z_ab, report.qber_z_ab_std),
                                 (report.qber_z_ac, report.qber_z_ac_std)) if q is not None]
    if not pairs:
        pairs = [(report.qber_z, report.qber_z_std)]

    mean = rate(report.qber_x, [q for q, _ in pairs])
    worst = rate(
        min(report.qber_x + report.qber_x_std, 0.5),
        [min(q + s, 0.5) for q, s in pairs],
    )
    return LayerKeyReport(report.layer_id, mean, min(worst, mean))


# ---------------------------------------------------------------------------
# Round-by-round sampling.
# ---------------------------------------------------------------------------


def _draw_indices(p: np.ndarray, n: int, rng: np.random.Generator, label: str) -> np.ndarray:
    """n indices with weights ``p``, equal to ``rng.choice(p.size, size=n, p=p / p.sum())``.

    Index i is ``cdf.searchsorted(u[i], "right")`` of ``u = rng.random(n)``, as in
    ``Generator.choice``, read from a guide table of 4096 buckets (Chen and Asau, 1974);
    only u in a bucket that a cdf value splits (marked ``p.size``) are searched.
    Scaling by the power of two 4096 is exact, and so is its floor.
    """
    total = p.sum()
    if not ((p >= 0).all() and 0 < total < np.inf):
        raise ValueError(f"setting {label!r}: outcome probabilities must be non-negative "
                         f"with a positive finite sum, got {p.tolist()}")
    cdf = (p / total).cumsum()
    cdf /= cdf[-1]
    edges = np.arange(4097) / 4096
    lo = cdf.searchsorted(edges[:-1], "right")
    table = np.where(lo == cdf.searchsorted(edges[1:], "left"), lo, p.size)
    scaled = rng.random(n)
    scaled *= 4096
    # Small bucket and table types, and the uniforms freed before the int64 copy: a draw
    # holds at most one n-long 8-byte array (with two, glibc trims the heap every draw).
    idx = table.astype(np.min_scalar_type(p.size))[scaled.astype(np.uint16)]
    split = np.flatnonzero(idx == p.size)
    u_split = scaled[split] / 4096
    del scaled
    idx = idx.astype(np.int64)
    idx[split] = cdf.searchsorted(u_split, "right")
    return idx


def _draw_outcomes(rho: DensityOperator, label: str, n: int, seed: int, stream: int) -> np.ndarray:
    """n outcome indices of a setting, Born-rule draws from the stream (seed, stream, 2)."""
    p = born_probabilities(rho, label)
    return _draw_indices(p, n, keyed_rng(seed, stream, _ROUND_STREAM), label)


def sample_z_rounds(rho: DensityOperator, n: int, seed: int) -> np.ndarray:
    """Sample n computational outcome indices (into ``ALL_KETS``) from the state."""
    return _draw_outcomes(rho, "Z", n, seed, _Z_STREAM)


def sample_x_rounds(rho: DensityOperator, layer: LayerSpec, n: int, seed: int) -> np.ndarray:
    """Sample n outcome indices of the layer's X setting (the residual ``rest`` last).

    Each layer of ``LAYERS`` draws from its own stream.
    """
    return _draw_outcomes(rho, layer.x_setting_label, n, seed,
                          _X_STREAM_BASE + LAYERS.index(layer))
