"""Measurement settings, Poissonian count simulation and element estimation.

The witness needs one computational-basis setting plus twenty two-level
correlator settings.  Each correlator setting measures sigma_x or sigma_y
on a two-level subspace (a, b) of each four-level photon, with

    sigma_x(a,b) = |a><b| + |b><a|        eigenvectors (|a> +- |b>)/sqrt(2)
    sigma_y(a,b) = i|a><b| - i|b><a|      eigenvectors (|a> -+ i|b>)/sqrt(2)

and either a sigma or a computational projection on the two-level photon.
Photons falling outside a setting's subspace are recorded under a single
residual outcome, which counts toward the setting normalization but
carries eigenvalue 0.

Counts are Poissonian: every outcome of every setting is an independent
Poisson draw with mean rate x time x probability.  Count files are JSON
arrays of ``{"setting", "outcome", "counts"}`` records.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .hilbert import DensityOperator
from .witness import (
    ALL_KETS,
    OFFDIAG_PAIRS,
    ElementEstimate,
    fidelity_from_arrays,
    fidelity_from_elements,
    subspace_fidelity,
)

__all__ = [
    "DIMS_442",
    "LOW_STATS_THRESHOLD",
    "MeasurementSetting",
    "CountRecord",
    "ExperimentPlan",
    "MonteCarloResult",
    "MissingSettingError",
    "computational_setting",
    "parse_setting_label",
    "setting_outcomes",
    "born_probabilities",
    "standard_plan",
    "simulate_counts",
    "exact_records",
    "estimate_elements",
    "monte_carlo_errors",
    "records_to_json",
    "records_from_json",
    "count_tables",
    "required_settings",
]

DIMS_442 = (4, 4, 2)

# Settings with fewer total counts than this are flagged low-statistics.
LOW_STATS_THRESHOLD = 50

Z_LABEL = "Z"


class MissingSettingError(ValueError):
    """Required measurement settings are absent from the count records."""

    def __init__(self, labels):
        self.labels = (labels,) if isinstance(labels, str) else tuple(labels)
        noun = "setting" if len(self.labels) == 1 else "settings"
        super().__init__(f"missing measurement {noun}: {', '.join(map(repr, self.labels))}")


@dataclass(frozen=True)
class MeasurementSetting:
    """One projective configuration: per-party ("Z",) or (axis, a, b)."""

    label: str
    party_ops: tuple[tuple, ...]

    def __post_init__(self):
        for op in self.party_ops:
            if op == ("Z",):
                continue
            axis, a, b = op
            if axis not in ("X", "Y"):
                raise ValueError(f"unknown axis {axis!r}")
            if a == b or a < 0 or b < 0:
                raise ValueError(f"invalid level pair ({a}, {b})")


@dataclass(frozen=True)
class CountRecord:
    """Observed (or simulated) coincidence counts for one outcome.

    ``counts`` is an integer for sampled data; the infinite-statistics
    records produced by :func:`exact_records` carry float expectations.
    """

    setting: str
    outcome: str
    counts: float

    def __post_init__(self):
        c = self.counts
        if (isinstance(c, bool) or not isinstance(c, numbers.Real)
                or not math.isfinite(c) or c < 0):
            raise ValueError(f"counts for setting {self.setting!r} outcome {self.outcome!r} "
                             f"must be a finite non-negative number, got {c!r}")


@dataclass(frozen=True)
class ExperimentPlan:
    """Counting rate (1/s), integration time per setting (s), settings."""

    rate: float
    integration_time: float
    settings: tuple[MeasurementSetting, ...]

    def __post_init__(self):
        if self.rate <= 0 or self.integration_time <= 0:
            raise ValueError("rate and integration time must be positive")


def computational_setting(dims=DIMS_442) -> MeasurementSetting:
    return MeasurementSetting(Z_LABEL, tuple(("Z",) for _ in dims))


def _party_token(op) -> str:
    if op == ("Z",):
        return "Z"
    axis, a, b = op
    return f"{axis}{a}{b}"


def setting_label(party_ops) -> str:
    if all(op == ("Z",) for op in party_ops):
        return Z_LABEL
    return "-".join(_party_token(op) for op in party_ops)


def parse_setting_label(label: str, dims=DIMS_442) -> MeasurementSetting:
    """Parse a label such as ``Z`` or ``X01-Y01-Z`` into a setting."""
    if label == Z_LABEL:
        return computational_setting(dims)
    tokens = label.split("-")
    if len(tokens) != len(dims):
        raise ValueError(f"setting {label!r} does not match {len(dims)} parties")
    ops = []
    for token, d in zip(tokens, dims):
        if token == "Z":
            ops.append(("Z",))
            continue
        if len(token) != 3 or token[0] not in ("X", "Y"):
            raise ValueError(f"bad setting token {token!r}")
        a, b = int(token[1]), int(token[2])
        if not (0 <= a < d and 0 <= b < d):
            raise ValueError(f"levels of {token!r} exceed party dimension {d}")
        ops.append((token[0], a, b))
    return MeasurementSetting(label, tuple(ops))


def setting_outcomes(setting: MeasurementSetting, dims=DIMS_442) -> tuple[str, ...]:
    """Outcome labels in canonical order (residual last for sigma settings)."""
    if setting.label == Z_LABEL:
        return tuple("".join(str(d) for d in digits)
                     for digits in itertools.product(*(range(d) for d in dims)))
    per_party = []
    for op, d in zip(setting.party_ops, dims):
        per_party.append(("+", "-") if op != ("Z",) else tuple(str(k) for k in range(d)))
    labels = tuple("".join(chars) for chars in itertools.product(*per_party))
    return labels + ("rest",)


def _party_vectors(op, d: int):
    """Projection vectors (label, ket) for one party of a sigma setting."""
    if op == ("Z",):
        out = []
        for k in range(d):
            v = np.zeros(d, dtype=np.complex128)
            v[k] = 1.0
            out.append((str(k), v))
        return out
    axis, a, b = op
    plus = np.zeros(d, dtype=np.complex128)
    minus = np.zeros(d, dtype=np.complex128)
    plus[a] = minus[a] = 1 / math.sqrt(2)
    if axis == "X":
        plus[b], minus[b] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    else:
        plus[b], minus[b] = -1j / math.sqrt(2), 1j / math.sqrt(2)
    return [("+", plus), ("-", minus)]


def born_probabilities(rho: DensityOperator, setting: MeasurementSetting) -> dict[str, float]:
    """Outcome probabilities of a setting on ``rho`` (Born rule)."""
    dims = rho.dims
    if len(setting.party_ops) != len(dims):
        raise ValueError(f"setting {setting.label!r} does not match {len(dims)} parties")
    for op, d in zip(setting.party_ops, dims):
        if op != ("Z",) and max(op[1], op[2]) >= d:
            raise ValueError(f"setting {setting.label!r} exceeds party dimension {d}")
    if setting.label == Z_LABEL:
        diag = np.clip(rho.diagonal(), 0.0, None)
        labels = setting_outcomes(setting, dims)
        return {lab: float(p) for lab, p in zip(labels, diag)}
    vector_sets = [_party_vectors(op, d) for op, d in zip(setting.party_ops, dims)]
    probs = {}
    total = 0.0
    for combo in itertools.product(*vector_sets):
        label = "".join(lab for lab, _ in combo)
        vec = combo[0][1]
        for _, v in combo[1:]:
            vec = np.kron(vec, v)
        p = max(0.0, float(np.vdot(vec, rho.matrix @ vec).real))
        probs[label] = p
        total += p
    probs["rest"] = max(0.0, 1.0 - total)
    return probs


# ---------------------------------------------------------------------------
# Element -> settings routing.
# ---------------------------------------------------------------------------

# Signed operator sums on the two-level subspaces:
#   xxx - yyx - yxy - xyy = 4(|ijk><lmn| + h.c.)  -> divisor 8 on expectations
#   xx - yy (third party projected on its digit) = 2(...)  -> divisor 4
# sigma_y(b, a) = -sigma_y(a, b), so a descending digit pair flips the sign
# of every term that measures sigma_y on that party.
_TRIPLE_AXES = (("X", "X", "X"), ("Y", "Y", "X"), ("Y", "X", "Y"), ("X", "Y", "Y"))
_TRIPLE_SIGNS = (1.0, -1.0, -1.0, -1.0)


def element_plan(bra: str, ket: str) -> tuple:
    """Settings and signed weights that assemble Re[<bra|rho|ket>].

    Returns entries ``(setting_label, coefficient, digit_selector)`` where
    the selector pins the computationally measured parties to the element's
    digits (None when all parties carry sigma operators).
    """
    pairs = [(int(bra[p]), int(ket[p])) for p in range(len(bra))]
    diff = [p for p, (i, l) in enumerate(pairs) if i != l]
    if len(diff) == len(pairs):
        out = []
        for axes, sign in zip(_TRIPLE_AXES, _TRIPLE_SIGNS):
            tokens, flip = [], 1.0
            for axis, (i, l) in zip(axes, pairs):
                if axis == "Y" and i > l:
                    flip = -flip
                tokens.append(f"{axis}{min(i, l)}{max(i, l)}")
            out.append(("-".join(tokens), sign * flip / 8.0, None))
        return tuple(out)
    if len(diff) == len(pairs) - 1:
        fixed = next(p for p in range(len(pairs)) if p not in diff)
        selector = ((fixed, pairs[fixed][0]),)
        out = []
        for axis, sign in zip(("X", "Y"), (1.0, -1.0)):
            tokens, flip = [], 1.0
            for p, (i, l) in enumerate(pairs):
                if p == fixed:
                    tokens.append("Z")
                    continue
                if axis == "Y" and i > l:
                    flip = -flip
                tokens.append(f"{axis}{min(i, l)}{max(i, l)}")
            out.append(("-".join(tokens), sign * flip / 4.0, selector))
        return tuple(out)
    raise ValueError(f"element ({bra}, {ket}) differs on fewer than two parties")


ELEMENT_PLANS = {pair: element_plan(*pair) for pair in OFFDIAG_PAIRS}


def _outcome_values(setting: MeasurementSetting, selector, dims=DIMS_442) -> np.ndarray:
    """Eigenvalue products per outcome (0 for residual / unselected digits)."""
    labels = setting_outcomes(setting, dims)
    required = dict(selector) if selector else {}
    values = np.zeros(len(labels))
    for n, label in enumerate(labels):
        if label == "rest":
            continue
        val = 1.0
        for p, (char, op) in enumerate(zip(label, setting.party_ops)):
            if op == ("Z",):
                if p in required and required[p] != int(char):
                    val = 0.0
                    break
            else:
                val *= 1.0 if char == "+" else -1.0
        values[n] = val
    return values


def standard_plan(rate: float = 0.66, integration_time: float = 1800.0) -> ExperimentPlan:
    """The full witness plan: computational setting plus 20 correlators."""
    labels = [Z_LABEL]
    for pair in OFFDIAG_PAIRS:
        for label, _, _ in ELEMENT_PLANS[pair]:
            if label not in labels:
                labels.append(label)
    settings = tuple(parse_setting_label(lab) for lab in labels)
    return ExperimentPlan(rate, integration_time, settings)


# ---------------------------------------------------------------------------
# Count simulation and serialization.
# ---------------------------------------------------------------------------


def simulate_counts(rho: DensityOperator, plan: ExperimentPlan, seed: int) -> list[CountRecord]:
    """Draw Poissonian counts for every outcome of every setting.

    Each setting uses an RNG stream keyed by (seed, setting index), so
    records are reproducible regardless of how the plan is split up.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    records = []
    scale = plan.rate * plan.integration_time
    for index, setting in enumerate(plan.settings):
        probs = born_probabilities(rho, setting)
        rng = np.random.default_rng([int(seed), index])
        counts = rng.poisson(scale * np.array(list(probs.values())))
        for (outcome, _), c in zip(probs.items(), counts):
            records.append(CountRecord(setting.label, outcome, int(c)))
    return records


def exact_records(rho: DensityOperator, plan: ExperimentPlan) -> list[CountRecord]:
    """Expected counts (floats): the infinite-statistics limit."""
    records = []
    scale = plan.rate * plan.integration_time
    for setting in plan.settings:
        for outcome, p in born_probabilities(rho, setting).items():
            records.append(CountRecord(setting.label, outcome, scale * p))
    return records


def records_to_json(records, path):
    data = [
        {"setting": r.setting, "outcome": r.outcome, "counts": r.counts} for r in records
    ]
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def records_from_json(path) -> list[CountRecord]:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("count file must be a JSON array of records")
    records = []
    for index, d in enumerate(data):
        if not isinstance(d, dict):
            raise ValueError(f"count record {index} is not a JSON object: {d!r}")
        missing = [key for key in ("setting", "outcome", "counts") if key not in d]
        if missing:
            raise ValueError(f"count record {index} lacks {', '.join(map(repr, missing))}")
        records.append(CountRecord(str(d["setting"]), str(d["outcome"]), d["counts"]))
    return records


# ---------------------------------------------------------------------------
# Estimation.
# ---------------------------------------------------------------------------


def count_tables(records) -> dict[str, dict[str, float]]:
    """Counts as nested {setting: {outcome: counts}} dictionaries."""
    out = {}
    for label, counts in _count_arrays(records).items():
        order = setting_outcomes(parse_setting_label(label))
        out[label] = dict(zip(order, counts))
    return out


def _count_arrays(records) -> dict[str, np.ndarray]:
    """Counts per setting, aligned with the canonical outcome order."""
    by_setting: dict[str, dict[str, float]] = {}
    for r in records:
        table = by_setting.setdefault(r.setting, {})
        if r.outcome in table:
            raise ValueError(f"duplicate record for setting {r.setting!r} outcome {r.outcome!r}")
        table[r.outcome] = float(r.counts)
    arrays = {}
    for label, table in by_setting.items():
        setting = parse_setting_label(label)
        order = setting_outcomes(setting)
        unknown = set(table) - set(order)
        if unknown:
            raise ValueError(f"unknown outcomes {sorted(unknown)} for setting {label!r}")
        arrays[label] = np.array([table.get(o, 0.0) for o in order])
    return arrays


def _diagonal_values(z_counts: np.ndarray) -> np.ndarray:
    """counts / C_T along the last axis (trial axes broadcast through)."""
    total = z_counts.sum(axis=-1, keepdims=True)
    safe = np.where(total > 0, total, 1.0)
    return z_counts / safe


def _element_value(arrays, pair) -> np.ndarray:
    value = 0.0
    for label, coeff, selector in ELEMENT_PLANS[pair]:
        counts = arrays[label]
        weights = _outcome_values(parse_setting_label(label), selector)
        total = counts.sum(axis=-1)
        safe = np.where(total > 0, total, 1.0)
        value = value + coeff * (counts @ weights) / safe
    return value


def _element_arrays(arrays) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals (..., 32) and off-diagonals (..., 6); trial axes broadcast."""
    off = np.stack([_element_value(arrays, pair) for pair in OFFDIAG_PAIRS], axis=-1)
    return _diagonal_values(arrays[Z_LABEL]), off


def required_settings() -> tuple[str, ...]:
    """Labels every witness estimation needs."""
    return tuple(s.label for s in standard_plan().settings)


def estimate_elements(records) -> tuple[tuple[ElementEstimate, ...], tuple[ElementEstimate, ...]]:
    """Central estimates of the 32 diagonal and 6 off-diagonal elements.

    Diagonals are counts divided by the total of the computational
    setting; off-diagonals combine the per-setting expectation values with
    their signed weights.  Standard deviations are left at zero; use
    :func:`monte_carlo_errors` for error bars.
    """
    arrays = _count_arrays(records)
    missing = [label for label in required_settings() if label not in arrays]
    if missing:
        raise MissingSettingError(missing)
    z_counts = arrays[Z_LABEL]
    z_total = z_counts.sum()
    diag_vals, off_vals = _element_arrays(arrays)
    diagonals = tuple(
        ElementEstimate(
            ket, ket, float(v), 0.0,
            low_stats=bool(c == 0 or z_total < LOW_STATS_THRESHOLD),
        )
        for ket, v, c in zip(ALL_KETS, diag_vals, z_counts)
    )
    offdiagonals = tuple(
        ElementEstimate(
            pair[0], pair[1], float(v), 0.0,
            low_stats=any(arrays[label].sum() < LOW_STATS_THRESHOLD
                          for label, _, _ in ELEMENT_PLANS[pair]),
        )
        for pair, v in zip(OFFDIAG_PAIRS, off_vals)
    )
    return diagonals, offdiagonals


@dataclass(frozen=True)
class MonteCarloResult:
    """Element estimates with resampled errors, plus fidelity statistics."""

    diagonals: tuple[ElementEstimate, ...]
    offdiagonals: tuple[ElementEstimate, ...]
    fidelity: float
    fidelity_std: float
    fidelity_mean: float
    subspace_fidelities: dict
    trials: int
    degenerate: bool


def monte_carlo_errors(records, trials: int, seed: int) -> MonteCarloResult:
    """Propagate Poissonian counting errors by resampling the experiment.

    Every observed count is resampled as Poisson(count) per trial; all
    elements, the target fidelity and the six renormalized subspace
    fidelities are recomputed per trial, and the sample standard
    deviations become the quoted errors.  Each setting's resampling
    stream is keyed by (seed, index in :func:`standard_plan`), so the
    result does not depend on the order of ``records``.  Fewer than 100
    trials is allowed but flagged degenerate.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    central_diag, central_off = estimate_elements(records)
    fidelity = fidelity_from_elements(central_diag, central_off)
    arrays = _count_arrays(records)
    resampled = {}
    for index, label in enumerate(required_settings()):
        rng = np.random.default_rng([int(seed), index])
        resampled[label] = rng.poisson(arrays[label], size=(trials, arrays[label].size)).astype(float)
    diag_samples, off_samples = _element_arrays(resampled)
    fid_samples = fidelity_from_arrays(diag_samples, off_samples)

    def std(samples):
        return float(np.std(samples, ddof=1)) if trials > 1 else 0.0

    diagonals = tuple(
        ElementEstimate(e.bra, e.ket, e.value, std(samples), e.low_stats)
        for e, samples in zip(central_diag, diag_samples.T)
    )
    offdiagonals = tuple(
        ElementEstimate(e.bra, e.ket, e.value, std(samples), e.low_stats)
        for e, samples in zip(central_off, off_samples.T)
    )
    subspace = {}
    for e, samples in zip(central_off, off_samples.T):
        i, j = ALL_KETS.index(e.bra), ALL_KETS.index(e.ket)
        if central_diag[i].value + central_diag[j].value > 0:
            central = subspace_fidelity(central_diag[i].value, central_diag[j].value, e.value)
            fsub = subspace_fidelity(diag_samples[:, i], diag_samples[:, j], samples)
            spread = float(np.nanstd(fsub, ddof=1)) if trials > 1 else 0.0
            subspace[e.pair()] = (central, spread)
        else:
            subspace[e.pair()] = (float("nan"), float("nan"))

    return MonteCarloResult(
        diagonals=diagonals,
        offdiagonals=offdiagonals,
        fidelity=fidelity,
        fidelity_std=std(fid_samples),
        fidelity_mean=float(np.mean(fid_samples)),
        subspace_fidelities=subspace,
        trials=trials,
        degenerate=trials < 100,
    )
