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

import functools
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
    _checked_diagonal_sum,
    fidelity_from_arrays,
    fidelity_from_elements,
    offdiag_from_correlators,
    offdiag_from_pair_correlators,
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
    "subspace_monte_carlo",
    "records_to_json",
    "records_from_json",
    "count_tables",
    "required_settings",
]

DIMS_442 = (4, 4, 2)

# Settings with fewer total counts than this are flagged low-statistics.
LOW_STATS_THRESHOLD = 50

Z_LABEL = "Z"

# Third key word of the Monte Carlo resampling streams, so they never replay
# simulate_counts' (seed, index) streams; SeedSequence drops trailing zeros,
# so the tag must be non-zero.
_RESAMPLE_STREAM = 1

# numpy's Poisson sampler rejects means above this (int64 max - 10 sqrt(int64
# max)); a larger count could be read but never resampled.
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))


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
        where = f"counts for setting {self.setting!r} outcome {self.outcome!r}"
        # Compared, not converted: a huge int is finite but overflows a float.
        if isinstance(c, bool) or not isinstance(c, numbers.Real) or not 0 <= c < math.inf:
            raise ValueError(f"{where} must be a finite non-negative number, got {c!r}")
        if c > _POISSON_LAM_MAX:
            raise ValueError(f"{where} must be at most {_POISSON_LAM_MAX:.10g} "
                             f"to be resampled, got {c!r}")


@dataclass(frozen=True)
class ExperimentPlan:
    """Counting rate (1/s), integration time per setting (s), settings."""

    rate: float
    integration_time: float
    settings: tuple[MeasurementSetting, ...]

    def __post_init__(self):
        if not (0 < self.rate < math.inf and 0 < self.integration_time < math.inf):
            raise ValueError("rate and integration time must be positive and finite")


def computational_setting(dims=DIMS_442) -> MeasurementSetting:
    return MeasurementSetting(Z_LABEL, tuple(("Z",) for _ in dims))


@functools.cache
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


@functools.cache
def setting_outcomes(setting: MeasurementSetting, dims=DIMS_442) -> tuple[str, ...]:
    """Outcome labels in canonical order (residual last for sigma settings).

    Callers pass ``dims`` positionally: the cache keys ``f(s)`` and
    ``f(s, dims)`` apart, which would build every order twice.
    """
    per_party = [("+", "-") if op != ("Z",) else tuple(str(k) for k in range(d))
                 for op, d in zip(setting.party_ops, dims)]
    labels = tuple("".join(chars) for chars in itertools.product(*per_party))
    return labels if setting.label == Z_LABEL else labels + ("rest",)


def _party_kets(op, d: int) -> np.ndarray:
    """Measured kets of one party as rows: the basis for Z, else the +/- eigenvectors."""
    if op == ("Z",):
        return np.eye(d, dtype=np.complex128)
    axis, a, b = op
    kets = np.zeros((2, d), dtype=np.complex128)
    kets[:, a] = 1.0
    kets[:, b] = (1.0, -1.0) if axis == "X" else (-1j, 1j)
    return kets / math.sqrt(2)


def born_probabilities(rho: DensityOperator, setting: MeasurementSetting) -> dict[str, float]:
    """Outcome probabilities of a setting on ``rho`` (Born rule)."""
    dims = rho.dims
    if len(setting.party_ops) != len(dims):
        raise ValueError(f"setting {setting.label!r} does not match {len(dims)} parties")
    for op, d in zip(setting.party_ops, dims):
        if op != ("Z",) and max(op[1], op[2]) >= d:
            raise ValueError(f"setting {setting.label!r} exceeds party dimension {d}")
    kets = functools.reduce(np.kron, [_party_kets(op, d) for op, d in zip(setting.party_ops, dims)])
    probs = np.einsum("nj,jk,nk->n", kets.conj(), rho.matrix, kets).real.clip(0.0).tolist()
    labels = setting_outcomes(setting, dims)
    if labels[-1] == "rest":
        probs.append(max(0.0, 1.0 - sum(probs)))
    return dict(zip(labels, probs))


# ---------------------------------------------------------------------------
# Element -> settings routing.
# ---------------------------------------------------------------------------

# Correlator axes in the argument order of the witness coherence formulas:
# offdiag_from_correlators when all three parties differ,
# offdiag_from_pair_correlators when one party agrees and is measured in Z.
_CORRELATOR_AXES = {3: ("XXX", "YYX", "YXY", "XYY"), 2: ("XX", "YY")}


def _outcome_values(tokens, digits, dims=DIMS_442) -> np.ndarray:
    """Eigenvalue products per outcome; Z parties pinned to ``digits``, residual 0."""
    factors = [np.eye(d)[int(k)] if token == "Z" else np.array([1.0, -1.0])
               for token, k, d in zip(tokens, digits, dims)]
    return np.append(functools.reduce(np.kron, factors), 0.0)


def element_plan(bra: str, ket: str) -> tuple:
    """Settings whose expectations give Re[<bra|rho|ket>] through ``witness``.

    Returns entries ``(setting_label, sign, outcome_values)`` in the
    argument order of the witness formula; ``sign`` times the setting's
    expectation is the argument.  sigma_y(b, a) = -sigma_y(a, b), so a
    descending digit pair flips the sign of a term measuring sigma_y on it.
    """
    pairs = [(int(i), int(l)) for i, l in zip(bra, ket)]
    differing = sum(i != l for i, l in pairs)
    if differing < len(pairs) - 1:
        raise ValueError(f"element ({bra}, {ket}) differs on fewer than two parties")
    out = []
    for axes in _CORRELATOR_AXES[differing]:
        axes, tokens, sign = iter(axes), [], 1.0
        for i, l in pairs:
            if i == l:
                tokens.append("Z")
                continue
            axis = next(axes)
            if axis == "Y" and i > l:
                sign = -sign
            tokens.append(f"{axis}{min(i, l)}{max(i, l)}")
        out.append(("-".join(tokens), sign, _outcome_values(tokens, bra)))
    return tuple(out)


ELEMENT_PLANS = {pair: element_plan(*pair) for pair in OFFDIAG_PAIRS}

# The computational setting plus the 20 correlators, parsed once.
_STANDARD_SETTINGS = tuple(parse_setting_label(label) for label in dict.fromkeys(
    [Z_LABEL] + [label for pair in OFFDIAG_PAIRS for label, _, _ in ELEMENT_PLANS[pair]]))
_PLAN_INDEX = {s.label: index for index, s in enumerate(_STANDARD_SETTINGS)}


def standard_plan(rate: float = 0.66, integration_time: float = 1800.0) -> ExperimentPlan:
    """The full witness plan: computational setting plus 20 correlators."""
    return ExperimentPlan(rate, integration_time, _STANDARD_SETTINGS)


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


def count_tables(records) -> dict[str, np.ndarray]:
    """Counts per setting label, in the setting's canonical outcome order."""
    by_setting: dict[str, dict[str, float]] = {}
    for r in records:
        table = by_setting.setdefault(r.setting, {})
        if r.outcome in table:
            raise ValueError(f"duplicate record for setting {r.setting!r} outcome {r.outcome!r}")
        table[r.outcome] = float(r.counts)
    tables = {}
    for label, table in by_setting.items():
        order = setting_outcomes(parse_setting_label(label), DIMS_442)
        unknown = set(table) - set(order)
        if unknown:
            raise ValueError(f"unknown outcomes {sorted(unknown)} for setting {label!r}")
        tables[label] = np.array([table.get(o, 0.0) for o in order])
    return tables


def _diagonal_values(z_counts: np.ndarray) -> np.ndarray:
    """counts / C_T along the last axis (trial axes broadcast through)."""
    total = z_counts.sum(axis=-1, keepdims=True)
    safe = np.where(total > 0, total, 1.0)
    return z_counts / safe


def _element_value(arrays, pair) -> np.ndarray:
    """One coherence from the witness formula on signed expectations."""
    expectations = []
    for label, sign, values in ELEMENT_PLANS[pair]:
        counts = arrays[label]
        total = counts.sum(axis=-1)
        expectations.append(sign * (counts @ values) / np.where(total > 0, total, 1.0))
    formula = offdiag_from_correlators if len(expectations) == 4 else offdiag_from_pair_correlators
    return formula(*expectations)


def _element_arrays(arrays) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals (..., 32) and off-diagonals (..., 6); trial axes broadcast."""
    off = np.stack([_element_value(arrays, pair) for pair in OFFDIAG_PAIRS], axis=-1)
    return _diagonal_values(arrays[Z_LABEL]), off


def required_settings() -> tuple[str, ...]:
    """Labels every witness estimation needs."""
    return tuple(s.label for s in _STANDARD_SETTINGS)


def estimate_elements(records) -> tuple[tuple[ElementEstimate, ...], tuple[ElementEstimate, ...]]:
    """Central estimates of the 32 diagonal and 6 off-diagonal elements.

    Diagonals are counts divided by the total of the computational
    setting; off-diagonals combine the per-setting expectation values with
    their signed weights.  Standard deviations are left at zero; use
    :func:`monte_carlo_errors` for error bars.
    """
    arrays = count_tables(records)
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


def _resample(arrays, labels, trials: int, seed: int) -> dict[str, np.ndarray]:
    """Poisson(count) draws of each labelled setting, shape (trials, outcomes).

    Each setting draws from its own stream keyed by (seed, index in
    :func:`standard_plan`, 1), so a subset of the settings gets exactly the
    draws the full set would.
    """
    resampled = {}
    for label in labels:
        rng = np.random.default_rng([int(seed), _PLAN_INDEX[label], _RESAMPLE_STREAM])
        counts = arrays[label]
        resampled[label] = rng.poisson(counts, size=(trials, counts.size)).astype(float)
    return resampled


def _subspace_estimate(pair, central_diag, coherence, diag_samples, coherence_samples):
    """(value, spread) of one pair's subspace fidelity from central and resampled elements.

    Both are nan when the pair's central population is zero.  The spread
    is the std over the trials with non-zero population, nan below two
    such trials, and 0 for a single trial.
    """
    i, j = ALL_KETS.index(pair[0]), ALL_KETS.index(pair[1])
    if not central_diag[i].value + central_diag[j].value > 0:
        return float("nan"), float("nan")
    central = subspace_fidelity(central_diag[i].value, central_diag[j].value, coherence)
    fsub = subspace_fidelity(diag_samples[:, i], diag_samples[:, j], coherence_samples)
    finite = np.count_nonzero(~np.isnan(fsub))
    # Below two finite trials the spread is undefined (nanstd would warn).
    spread = (float(np.nanstd(fsub, ddof=1)) if finite > 1
              else 0.0 if len(fsub) == 1 else float("nan"))
    return central, spread


def monte_carlo_errors(records, trials: int, seed: int) -> MonteCarloResult:
    """Propagate Poissonian counting errors by resampling the experiment.

    Every observed count is resampled as Poisson(count) per trial; all
    elements, the target fidelity and the six renormalized subspace
    fidelities are recomputed per trial, and the sample standard
    deviations become the quoted errors.  Each setting's resampling
    stream is keyed by (seed, index in :func:`standard_plan`, 1), so the
    result does not depend on the order of ``records`` and never reuses
    the draws :func:`simulate_counts` made with the same seed.  Fewer than 100
    trials is allowed but flagged degenerate.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    central_diag, central_off = estimate_elements(records)
    fidelity = fidelity_from_elements(central_diag, central_off)
    resampled = _resample(count_tables(records), required_settings(), trials, seed)
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
    subspace = {
        pair: _subspace_estimate(pair, central_diag, e.value, diag_samples, samples)
        for pair, e, samples in zip(OFFDIAG_PAIRS, central_off, off_samples.T)
    }

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


def subspace_monte_carlo(records, pair, trials: int, seed: int) -> tuple[float, float]:
    """One pair's subspace fidelity and its Monte Carlo spread.

    Equal bit for bit to ``monte_carlo_errors(records, trials,
    seed).subspace_fidelities[pair]``, and rejects the same records with
    the same message, but resamples only the computational setting and the
    correlator settings of ``pair``, on the streams the full resampling
    gives them.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    central_diag, central_off = estimate_elements(records)
    _checked_diagonal_sum(np.array([e.value for e in central_diag]))
    labels = [Z_LABEL] + [label for label, _, _ in ELEMENT_PLANS[pair]]
    resampled = _resample(count_tables(records), labels, trials, seed)
    coherence_samples = _element_value(resampled, pair)
    diag_samples = _diagonal_values(resampled[Z_LABEL])
    _checked_diagonal_sum(diag_samples)
    coherence = central_off[OFFDIAG_PAIRS.index(pair)].value
    return _subspace_estimate(pair, central_diag, coherence, diag_samples, coherence_samples)
