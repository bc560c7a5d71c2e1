"""Layered key extraction and asymptotic rate analysis.

The four signal kets of the layered state split into four key layers:
two three-party GHZ layers ({000, 111} and {220, 331}) and two two-party
layers shared by A and B alone ({00, 22} and {11, 33}).  Each party maps
its outcome digit to a key bit; rounds outside a layer's subspace are
sifted away.  Error rates are quoted in the computational (Z) basis,
pairwise and three-way, and in the superposition (X) basis via sigma_x
parities on the layer's two-level subspaces.

The asymptotic secret key per post-selected round uses the one-way bound

    r = 1 - h(QBER_X) - max_i h(QBER_Z(ref, i))

with h the binary entropy and the max running over the reference party's
pairings (the single pair itself for two-party layers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import DensityOperator
from .tomography import born_probabilities, parse_setting_label

__all__ = [
    "LayerSpec",
    "LAYERS",
    "QberReport",
    "LayerKeyReport",
    "key_map_abc",
    "key_map_ab",
    "binary_entropy",
    "compute_qbers",
    "qbers_from_counts",
    "asymptotic_key_rate",
    "sample_z_rounds",
    "sample_x_rounds",
    "empirical_mutual_information",
]

PARTY_NAMES = ("A", "B", "C")

# RNG stream tags so Z and per-layer X samples never collide.
_Z_STREAM = 1
_X_STREAM_BASE = 2


@dataclass(frozen=True)
class LayerSpec:
    """One key layer: participants and their computational ket pair."""

    layer_id: str
    participants: tuple[str, ...]
    signal_kets: tuple[str, str]

    def __post_init__(self):
        if len(self.signal_kets[0]) != len(self.participants):
            raise ValueError("ket length must match participant count")

    @property
    def party_indices(self) -> tuple[int, ...]:
        return tuple(PARTY_NAMES.index(p) for p in self.participants)

    @property
    def digit_pairs(self) -> tuple[tuple[int, int], ...]:
        k0, k1 = self.signal_kets
        return tuple((int(a), int(b)) for a, b in zip(k0, k1))

    @property
    def is_tripartite(self) -> bool:
        return len(self.participants) == 3

    @property
    def x_setting_label(self) -> str:
        """Correlator setting measuring sigma_x on each layer subspace."""
        tokens = ["Z"] * len(PARTY_NAMES)
        for party, (a, b) in zip(self.party_indices, self.digit_pairs):
            tokens[party] = f"X{min(a, b)}{max(a, b)}"
        return "-".join(tokens)


LAYERS = (
    LayerSpec("ABC-layer-0", ("A", "B", "C"), ("000", "111")),
    LayerSpec("ABC-layer-1", ("A", "B", "C"), ("220", "331")),
    LayerSpec("AB-layer-0", ("A", "B"), ("00", "22")),
    LayerSpec("AB-layer-1", ("A", "B"), ("11", "33")),
)


@dataclass(frozen=True)
class QberReport:
    """Per-layer error rates with binomial errors and sifting bookkeeping.

    The pairwise fields are None for two-party layers; qber_z_bc is kept so
    the key-rate bound can anchor on any reference party.
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

    def pairwise(self) -> dict:
        """Available pairwise Z error rates as {"AB": (value, std), ...}."""
        out = {}
        for pair in ("ab", "ac", "bc"):
            val = getattr(self, f"qber_z_{pair}")
            if val is not None:
                out[pair.upper()] = (val, getattr(self, f"qber_z_{pair}_std"))
        return out


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


def _bin_rows(rows: np.ndarray, dims) -> list[tuple[tuple[int, ...], int]]:
    """Each distinct row of a non-negative digit array with its count."""
    bins = np.bincount(np.ravel_multi_index(rows.T, dims), minlength=math.prod(dims))
    occupied = np.flatnonzero(bins)
    digits = np.column_stack(np.unravel_index(occupied, dims))
    return list(zip(map(tuple, digits.tolist()), bins[occupied].tolist()))


def _x_outcome_signs(label: str, layer: LayerSpec) -> tuple[int, ...]:
    """Participant signs of an X-setting outcome label; all 0 for a lost round (``rest``)."""
    chars = [label[party] for party in layer.party_indices]
    if any(char not in "+-" for char in chars):
        return (0,) * len(chars)
    return tuple(1 if char == "+" else -1 for char in chars)


def _count_qbers(z_counts, x_counts, layer: LayerSpec) -> QberReport:
    """Sift, map to key bits and count errors.

    ``z_counts`` pairs per-party outcome digits with counts; ``x_counts``
    pairs participant sigma_x signs (0 for a lost round) with counts.
    All pairwise Z error rates are reported for tripartite layers.
    """
    pairs = layer.digit_pairs
    cols = layer.party_indices
    total_z = err_z = 0.0
    combos = tuple((i, j) for i in range(len(cols)) for j in range(i + 1, len(cols)))
    pair_err = {c: 0.0 for c in combos}
    grand_z = 0.0
    for ket, c in z_counts:
        grand_z += c
        digits = [ket[p] for p in cols]
        if any(d not in pairs[k] for k, d in enumerate(digits)):
            continue
        bits = [pairs[k].index(d) for k, d in enumerate(digits)]
        total_z += c
        if any(b != bits[0] for b in bits):
            err_z += c
        if layer.is_tripartite:
            for i, j in combos:
                if bits[i] != bits[j]:
                    pair_err[(i, j)] += c
    if total_z <= 0:
        raise ValueError(f"no Z counts in layer {layer.layer_id}")
    qber_z = err_z / total_z

    total_x = err_x = 0.0
    grand_x = 0.0
    for signs, c in x_counts:
        grand_x += c
        if 0 in signs:
            continue
        total_x += c
        if math.prod(signs) != 1:
            err_x += c
    if total_x <= 0:
        raise ValueError(f"no X counts in layer {layer.layer_id}")
    qber_x = err_x / total_x

    extra = {}
    if layer.is_tripartite:
        for (i, j), err in pair_err.items():
            q = err / total_z
            key = (layer.participants[i] + layer.participants[j]).lower()
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
        sift_fraction_z=total_z / grand_z,
        sift_fraction_x=total_x / grand_x,
        **extra,
    )


def compute_qbers(samples: dict, layer: LayerSpec) -> QberReport:
    """Error rates from per-round outcome tuples.

    ``samples["Z"]`` holds (n, 3) outcome digits; ``samples["X"]`` holds
    per-round sigma_x signs (+1/-1) for the layer's participants, with 0
    marking rounds lost outside the subspace.  The rounds are binned into
    counts and handed to the same sifting and error counting as
    :func:`qbers_from_counts`.
    """
    z = np.asarray(samples["Z"], dtype=int)
    x = np.asarray(samples["X"], dtype=int)
    if z.size == 0 or x.size == 0:
        raise ValueError("empty sample set")
    z_counts = _bin_rows(z, tuple(z.max(axis=0) + 1))
    x_counts = [(tuple(d - 1 for d in row), c)
                for row, c in _bin_rows(x + 1, (3,) * x.shape[1])]
    return _count_qbers(z_counts, x_counts, layer)


def qbers_from_counts(count_tables: dict, layer: LayerSpec) -> QberReport:
    """Error rates from aggregated counts (computational + X settings).

    ``count_tables`` maps setting labels to outcome->counts dicts; it must
    contain "Z" and the layer's X setting.
    """
    if "Z" not in count_tables:
        raise ValueError("missing computational setting 'Z' in counts")
    x_label = layer.x_setting_label
    if x_label not in count_tables:
        raise ValueError(f"missing setting {x_label!r} for layer {layer.layer_id}")
    z_counts = [(tuple(int(d) for d in ket), c) for ket, c in count_tables["Z"].items()]
    x_counts = [(_x_outcome_signs(outcome, layer), c)
                for outcome, c in count_tables[x_label].items()]
    return _count_qbers(z_counts, x_counts, layer)


def asymptotic_key_rate(report: QberReport, reference: str = "A") -> LayerKeyReport:
    """Lower-bound key per round from a QBER report, clamped at zero.

    The entropy max runs over the reference party's pairings (the layer's
    own Z rate for two-party layers).  The pessimistic rate plugs in
    value + 1 sigma for every error rate, capped at 1/2 where the rate
    vanishes anyway.
    """

    def rate(qx, pair_qs):
        return max(0.0, 1.0 - binary_entropy(qx) - max(binary_entropy(q) for q in pair_qs))

    pairwise = report.pairwise()
    if pairwise:
        pairs = [v for k, v in pairwise.items() if reference in k]
        if not pairs:
            raise ValueError(f"no pairwise error rates involve party {reference!r}")
    else:
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


def sample_z_rounds(rho: DensityOperator, n: int, seed: int) -> np.ndarray:
    """Sample (n, 3) computational outcome digits from the state."""
    probs = np.clip(rho.diagonal(), 0.0, None)
    probs /= probs.sum()
    rng = np.random.default_rng([int(seed), _Z_STREAM])
    flat = rng.choice(len(probs), size=n, p=probs)
    d_b, d_c = rho.dims[1], rho.dims[2]
    a, rem = np.divmod(flat, d_b * d_c)
    b, c = np.divmod(rem, d_c)
    return np.column_stack([a, b, c])


def sample_x_rounds(rho: DensityOperator, layer: LayerSpec, n: int, seed: int) -> np.ndarray:
    """Sample per-round sigma_x signs for a layer (0 marks lost rounds)."""
    setting = parse_setting_label(layer.x_setting_label)
    probs = born_probabilities(rho, setting)
    labels = list(probs)
    p = np.array([probs[lab] for lab in labels])
    p /= p.sum()
    layer_index = LAYERS.index(layer) if layer in LAYERS else 97
    rng = np.random.default_rng([int(seed), _X_STREAM_BASE + layer_index])
    drawn = rng.choice(len(labels), size=n, p=p)
    return np.array([_x_outcome_signs(lab, layer) for lab in labels])[drawn]


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
