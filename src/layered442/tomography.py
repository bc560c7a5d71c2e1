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
arrays of records with exactly the keys ``setting``, ``outcome`` and
``counts``, each count a whole number.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .circuit import ALL_KETS, DIMS_442
from .hilbert import DensityOperator, keyed_rng
from .witness import (
    OFFDIAG_PAIRS,
    ElementEstimate,
    fidelity_from_arrays,
    offdiag_from_correlators,
    offdiag_from_pair_correlators,
    subspace_fidelity,
)

__all__ = [
    "LOW_STATS_THRESHOLD",
    "ELEMENT_PLANS",
    "CountRecord",
    "ExperimentPlan",
    "MonteCarloResult",
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
]

# Settings with fewer total counts than this are flagged low-statistics.
LOW_STATS_THRESHOLD = 50

Z_LABEL = "Z"

# Third key word of the Monte Carlo resampling streams (see hilbert.keyed_rng).
_RESAMPLE_STREAM = 1

# numpy's Poisson sampler rejects means above this (int64 max - 10 sqrt(int64
# max)); a larger count could be read but never resampled.
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))


@dataclass(frozen=True)
class CountRecord:
    """Observed (or simulated) coincidence counts for one outcome.

    ``counts`` is a whole number for sampled data and for every count read
    by :func:`records_from_json`; the infinite-statistics records produced
    by :func:`exact_records` carry float expectations.
    """

    setting: str
    outcome: str
    counts: float

    def __post_init__(self):
        c = self.counts
        # Plain ints and floats skip the slower ABC check; a bool is an int but no count.
        real = type(c) in (int, float) or (not isinstance(c, bool) and isinstance(c, numbers.Real))
        # Compared, not converted: a huge int is finite but overflows a float.
        if not (real and 0 <= c < math.inf):
            raise self._invalid("a finite non-negative number")
        if c > _POISSON_LAM_MAX:
            raise self._invalid(f"at most {_POISSON_LAM_MAX:.10g} to be resampled")

    def _invalid(self, rule: str) -> ValueError:
        return ValueError(f"counts for setting {self.setting!r} outcome {self.outcome!r} "
                          f"must be {rule}, got {self.counts!r}")


@dataclass(frozen=True)
class ExperimentPlan:
    """Counting rate (1/s), integration time per setting (s), setting labels."""

    rate: float
    integration_time: float
    settings: tuple[str, ...]

    def __post_init__(self):
        if not (0 < self.rate < math.inf and 0 < self.integration_time < math.inf):
            raise ValueError("rate and integration time must be positive and finite")


@functools.cache
def setting_outcomes(label: str) -> tuple[str, ...]:
    """Outcome labels in canonical order (residual last for sigma settings)."""
    per_party = [("+", "-") if op != ("Z",) else tuple(str(k) for k in range(d))
                 for op, d in zip(_setting_ops(label), DIMS_442)]
    outcomes = tuple("".join(chars) for chars in itertools.product(*per_party))
    return outcomes if label == Z_LABEL else outcomes + ("rest",)


def _party_kets(op, d: int) -> np.ndarray:
    """Measured kets of one party as rows: the basis for Z, else the +/- eigenvectors."""
    if op == ("Z",):
        return np.eye(d, dtype=np.complex128)
    axis, a, b = op
    kets = np.zeros((2, d), dtype=np.complex128)
    kets[:, a] = 1.0
    kets[:, b] = (1.0, -1.0) if axis == "X" else (-1j, 1j)
    return kets / math.sqrt(2)


@functools.cache
def _outcome_kets(label: str) -> np.ndarray:
    """A setting's outcome kets as read-only rows: Kronecker products of the party kets."""
    ops = zip(_setting_ops(label), DIMS_442)
    kets = functools.reduce(np.kron, [_party_kets(op, d) for op, d in ops])
    kets.flags.writeable = False
    return kets


def born_probabilities(rho: DensityOperator, label: str) -> np.ndarray:
    """Outcome probabilities of a setting on ``rho`` (Born rule), in ``setting_outcomes`` order."""
    if rho.dims != DIMS_442:
        raise ValueError(f"state dims {rho.dims} are not {DIMS_442}")
    kets = _outcome_kets(label)
    probs = np.einsum("nj,jk,nk->n", kets.conj(), rho.matrix, kets).real.clip(0.0)
    if label == Z_LABEL:
        return probs
    # Summed left to right (Python's sum): np.sum's pairwise order would change the last bits.
    return np.append(probs, max(0.0, 1.0 - sum(probs.tolist())))


# ---------------------------------------------------------------------------
# Element -> settings routing.
# ---------------------------------------------------------------------------

# Correlator axes in the argument order of the witness coherence formulas:
# offdiag_from_correlators when all three parties differ,
# offdiag_from_pair_correlators when one party agrees and is measured in Z.
_CORRELATOR_AXES = {3: ("XXX", "YYX", "YXY", "XYY"), 2: ("XX", "YY")}


def _outcome_values(ops, digits) -> np.ndarray:
    """Eigenvalue products per outcome; Z parties pinned to ``digits``, residual 0."""
    factors = [np.eye(d)[int(k)] if op == ("Z",) else np.array([1.0, -1.0])
               for op, k, d in zip(ops, digits, DIMS_442)]
    return np.append(functools.reduce(np.kron, factors), 0.0)


def _element_plan(bra: str, ket: str) -> tuple:
    """Settings whose expectations give Re[<bra|rho|ket>] through ``witness``.

    Returns entries ``(setting_label, sign, outcome_values, ops)`` in the
    argument order of the witness formula; ``sign`` times the setting's
    expectation is the argument, and ``ops`` holds the per-party ops the
    label spells, ("Z",) or (axis, low, high).  sigma_y(b, a) =
    -sigma_y(a, b), so a descending digit pair flips the sign of a term
    measuring sigma_y on it.
    """
    pairs = [(int(i), int(l)) for i, l in zip(bra, ket)]
    differing = sum(i != l for i, l in pairs)
    if differing < len(pairs) - 1:
        raise ValueError(f"element ({bra}, {ket}) differs on fewer than two parties")
    out = []
    for axes in _CORRELATOR_AXES[differing]:
        axes, ops, sign = iter(axes), [], 1.0
        for i, l in pairs:
            op = ("Z",) if i == l else (next(axes), min(i, l), max(i, l))
            if op[0] == "Y" and i > l:
                sign = -sign
            ops.append(op)
        label = "-".join("".join(map(str, op)) for op in ops)
        out.append((label, sign, _outcome_values(ops, bra), tuple(ops)))
    return tuple(out)


ELEMENT_PLANS = {pair: _element_plan(*pair) for pair in OFFDIAG_PAIRS}

# Each correlator setting's 0/1 map, shape (3, outcomes), onto its +1, -1 and
# 0 eigenvalue classes: the estimator reads a setting only through these sums.
# Every setting serves one pair, so its values, and so its classes, are unique.
_CLASS_MAPS = {label: np.array([values > 0, values < 0, values == 0], dtype=float)
               for pair in OFFDIAG_PAIRS for label, _, values, _ in ELEMENT_PLANS[pair]}

# The only settings there are, in standard-plan order: the computational
# setting, then the 20 correlators, each with its per-party ops.
_SETTING_OPS = {Z_LABEL: (("Z",),) * len(DIMS_442)} | {
    label: ops for pair in OFFDIAG_PAIRS for label, _, _, ops in ELEMENT_PLANS[pair]}
_STANDARD_SETTINGS = tuple(_SETTING_OPS)
_PLAN_INDEX = {label: index for index, label in enumerate(_STANDARD_SETTINGS)}


def _setting_ops(label: str) -> tuple[tuple, ...]:
    """Per-party ops, ("Z",) or (axis, low, high), of one of the 21 settings of the standard plan.

    The one check of a setting label: any other label is refused.
    """
    try:
        return _SETTING_OPS[label]
    except KeyError:
        raise ValueError(f"setting {label!r} is not one of the {len(_SETTING_OPS)} "
                         "settings of the standard plan") from None


def standard_plan(rate: float = 0.66, integration_time: float = 1800.0) -> ExperimentPlan:
    """The full witness plan: computational setting plus 20 correlators."""
    return ExperimentPlan(rate, integration_time, _STANDARD_SETTINGS)


# ---------------------------------------------------------------------------
# Count simulation and serialization.
# ---------------------------------------------------------------------------


def _plan_records(rho: DensityOperator, plan: ExperimentPlan, counts) -> list[CountRecord]:
    """Records of every setting of ``plan``, in ``setting_outcomes`` order.

    ``counts(label, means)`` turns a setting's mean counts, rate x time x
    Born probabilities, into the array its records carry.
    """
    scale = plan.rate * plan.integration_time
    records = []
    for label in plan.settings:
        values = counts(label, scale * born_probabilities(rho, label))
        records += [CountRecord(label, outcome, c)
                    for outcome, c in zip(setting_outcomes(label), values.tolist())]
    return records


def simulate_counts(rho: DensityOperator, plan: ExperimentPlan, seed: int) -> list[CountRecord]:
    """Draw Poissonian counts for every outcome of every setting.

    Each setting draws on the stream keyed by (seed, its index in
    :func:`standard_plan`), whatever its position in ``plan``, so a setting
    gets the same counts from any plan that holds it.
    """
    def draw(label, means):
        if not means.max() <= _POISSON_LAM_MAX:
            raise ValueError(f"setting {label!r} has a mean count of {means.max():.10g}; "
                             f"numpy's Poisson sampler draws at most {_POISSON_LAM_MAX:.10g}")
        return keyed_rng(seed, _PLAN_INDEX[label]).poisson(means)

    return _plan_records(rho, plan, draw)


def exact_records(rho: DensityOperator, plan: ExperimentPlan) -> list[CountRecord]:
    """Expected counts (floats): the infinite-statistics limit."""
    return _plan_records(rho, plan, lambda label, means: means)


def records_to_json(records, path):
    """Write the bytes of ``json.dump([vars(r) for r in records], fh, indent=1)`` and a newline.

    The text is built first and written once.  Labels go through json's own
    string escaping; counts are written as json writes an int or a float.
    """
    quote = json.encoder.encode_basestring_ascii
    items = ",\n".join(
        f' {{\n  "setting": {quote(r.setting)},\n  "outcome": {quote(r.outcome)},\n  "counts": '
        f'{int.__repr__(r.counts) if isinstance(r.counts, int) else float.__repr__(r.counts)}\n }}'
        for r in records)
    with open(path, "w") as fh:
        fh.write(f"[\n{items}\n]\n" if items else "[]\n")


def _read_json(path, role: str):
    """The JSON value in the file at ``path``.

    A file that does not parse, or that repeats a key in one object, raises
    a ValueError that names it as ``role`` (e.g. "count file") and gives the
    cause.
    """
    def unique_keys(pairs):
        value = dict(pairs)
        if len(value) < len(pairs):
            seen = set()  # The first key met twice; set.add returns None.
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise ValueError(f"{role} {path} repeats the key {key!r} in one object")
        return value

    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except RecursionError:
        raise ValueError(f"{role} {path} nests JSON too deeply to parse") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{role} {path} is not valid JSON: {exc}") from None


_RECORD_KEYS = frozenset(("setting", "outcome", "counts"))


def records_from_json(path) -> list[CountRecord]:
    """The count records of a count file, in file order.

    Every count read from a file is a whole number of coincidences; a
    whole-valued float such as ``300.0`` is read as it is written.
    """
    data = _read_json(path, "count file")
    if not isinstance(data, list):
        raise ValueError("count file must be a JSON array of records")
    records = []
    for index, d in enumerate(data):
        if not isinstance(d, dict):
            raise ValueError(f"count record {index} is not a JSON object: {d!r}")
        if d.keys() != _RECORD_KEYS:
            missing = [key for key in ("setting", "outcome", "counts") if key not in d]
            cause = (f"lacks {', '.join(map(repr, missing))}" if missing
                     else f"has unknown keys {sorted(d.keys() - _RECORD_KEYS)}")
            raise ValueError(f"count record {index} {cause}")
        record = CountRecord(str(d["setting"]), str(d["outcome"]), d["counts"])
        if record.counts % 1:
            raise record._invalid("a whole number")
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# Estimation.
# ---------------------------------------------------------------------------


def count_tables(records) -> dict[str, np.ndarray]:
    """Counts per setting label, in the setting's canonical outcome order.

    A setting's records must list every one of its outcomes (0 counts
    allowed): an absent record is refused, not read as 0.
    """
    by_setting: dict[str, dict[str, float]] = {}
    for r in records:
        table = by_setting.setdefault(r.setting, {})
        if r.outcome in table:
            raise ValueError(f"duplicate record for setting {r.setting!r} outcome {r.outcome!r}")
        table[r.outcome] = float(r.counts)
    tables = {}
    for label, table in by_setting.items():
        order = setting_outcomes(label)
        unknown = set(table) - set(order)
        if unknown:
            raise ValueError(f"unknown outcomes {sorted(unknown)} for setting {label!r}")
        missing = [o for o in order if o not in table]
        if missing:
            raise ValueError(f"setting {label!r} has no record for outcomes {missing}; "
                             "a count file lists every outcome of a setting, 0 allowed")
        tables[label] = np.array([table[o] for o in order])
    return tables


def _elements(sums, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals (..., 32) and the coherences of ``pairs`` (..., len(pairs)); trial axes broadcast.

    A coherence is the witness formula on its settings' signed expectations.
    """
    z_counts = sums[Z_LABEL]
    z_total = z_counts.sum(axis=-1, keepdims=True)
    coherences = []
    for pair in pairs:
        expectations = []
        for label, sign, *_ in ELEMENT_PLANS[pair]:
            plus, minus, zero = np.moveaxis(sums[label], -1, 0)
            total = plus + minus + zero
            expectations.append(sign * (plus - minus) / np.where(total > 0, total, 1.0))
        formula = (offdiag_from_correlators if len(expectations) == 4
                   else offdiag_from_pair_correlators)
        coherences.append(formula(*expectations))
    return z_counts / np.where(z_total > 0, z_total, 1.0), np.stack(coherences, axis=-1)


def _class_sums(records) -> dict[str, np.ndarray]:
    """``Z`` counts, and each correlator setting's (+1, -1, 0) eigenvalue-class sums.

    Rejects a class sum the Poisson sampler could not resample, so every
    estimate can be given an error bar.
    """
    tables = count_tables(records)
    missing = [label for label in _STANDARD_SETTINGS if label not in tables]
    if missing:
        noun = "setting" if len(missing) == 1 else "settings"
        raise ValueError(f"missing measurement {noun}: {', '.join(map(repr, missing))}")
    sums = {Z_LABEL: tables[Z_LABEL]}
    for label, classes in _CLASS_MAPS.items():
        sums[label] = classes @ tables[label]
        for name, total in zip(("+1", "-1", "0"), sums[label]):
            if total > _POISSON_LAM_MAX:
                raise ValueError(f"eigenvalue {name} counts of setting {label!r} sum to "
                                 f"{total:.10g}; at most {_POISSON_LAM_MAX:.10g} "
                                 f"can be resampled")
    return sums


def _element_estimates(sums, diag, off, diag_std=(0.0,) * 32, off_std=(0.0,) * 6):
    """Central elements of all six pairs as :class:`ElementEstimate` tuples, stds default 0."""
    z_total = sums[Z_LABEL].sum()
    diagonals = tuple(
        ElementEstimate(ket, ket, float(v), s,
                        low_stats=bool(c == 0 or z_total < LOW_STATS_THRESHOLD))
        for ket, v, s, c in zip(ALL_KETS, diag, diag_std, sums[Z_LABEL])
    )
    offdiagonals = tuple(
        ElementEstimate(pair[0], pair[1], float(v), s,
                        low_stats=any(sums[label].sum() < LOW_STATS_THRESHOLD
                                      for label, *_ in ELEMENT_PLANS[pair]))
        for pair, v, s in zip(OFFDIAG_PAIRS, off, off_std)
    )
    return diagonals, offdiagonals


def estimate_elements(records) -> tuple[tuple[ElementEstimate, ...], tuple[ElementEstimate, ...]]:
    """Central estimates of the 32 diagonal and 6 off-diagonal elements.

    Diagonals are counts divided by the total of the computational
    setting; off-diagonals combine the per-setting expectation values with
    their signed weights.  Standard deviations are left at zero; use
    :func:`monte_carlo_errors` for error bars.
    """
    sums = _class_sums(records)
    return _element_estimates(sums, *_elements(sums, OFFDIAG_PAIRS))


@dataclass(frozen=True)
class MonteCarloResult:
    """Element estimates with resampled errors, plus fidelity statistics."""

    diagonals: tuple[ElementEstimate, ...]
    offdiagonals: tuple[ElementEstimate, ...]
    fidelity: float
    fidelity_std: float
    fidelity_mean: float
    trials: int
    degenerate: bool


def _resampled_elements(records, pairs, trials: int, seed: int):
    """``(sums, (diag, off), (diag_samples, off_samples))``: the one Monte Carlo resampling.

    Central elements cover all six pairs, resampled ones (trials first) only
    ``pairs``: ``Z`` and their settings are drawn, each on the stream (seed,
    index in :func:`standard_plan`, 1), so any subset of pairs gets the
    draws the full set would.  The checks do not depend on ``pairs``: a
    ``Z`` total of 0, central or in any trial, leaves the diagonals
    undefined and is refused.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    sums = _class_sums(records)
    resampled = {}
    for label in [Z_LABEL] + [label for pair in pairs for label, *_ in ELEMENT_PLANS[pair]]:
        rng = keyed_rng(seed, _PLAN_INDEX[label], _RESAMPLE_STREAM)
        resampled[label] = rng.poisson(sums[label], size=(trials, sums[label].size)).astype(float)
    z_total = sums[Z_LABEL].sum()
    empty = np.flatnonzero(resampled[Z_LABEL].sum(axis=1) == 0)
    if z_total == 0 or empty.size:
        where = ("the central estimate" if z_total == 0
                 else f"Monte Carlo trial {empty[0] + 1} of {trials}")
        raise ValueError(f"setting {Z_LABEL!r} totals 0 counts in {where} (central total "
                         f"{z_total:.10g}), so its diagonal elements are undefined")
    return sums, _elements(sums, OFFDIAG_PAIRS), _elements(resampled, pairs)


def monte_carlo_errors(records, trials: int, seed: int) -> MonteCarloResult:
    """Propagate Poissonian counting errors by resampling the experiment.

    Per trial, every ``Z`` count is resampled as Poisson(count) and each
    correlator setting's +1, -1 and 0 eigenvalue-class sums as Poisson(sum):
    the estimator reads a correlator only through those sums, and a sum of
    independent Poisson counts is Poisson with the summed mean, so this is
    exactly resampling every count.  All elements and the target fidelity
    are recomputed per trial, and the per-element sample standard
    deviations become the quoted errors.  Each setting's resampling stream
    is keyed by (seed, index in :func:`standard_plan`, 1), so the result
    does not depend on the order of ``records`` and never reuses the draws
    :func:`simulate_counts` made with the same seed.
    :func:`subspace_monte_carlo` runs the same resampling on one pair.
    Fewer than 100 trials is allowed but flagged degenerate.
    """
    sums, central, (diag_samples, off_samples) = _resampled_elements(
        records, OFFDIAG_PAIRS, trials, seed)
    fid_samples = fidelity_from_arrays(diag_samples, off_samples)
    # One element per contiguous row: one std pass, equal bit for bit to one np.std per column.
    rows = np.ascontiguousarray(np.hstack((diag_samples, off_samples)).T)
    stds = np.std(rows, axis=1, ddof=1).tolist() if trials > 1 else [0.0] * len(rows)
    n_diag = len(ALL_KETS)
    diagonals, offdiagonals = _element_estimates(sums, *central, stds[:n_diag], stds[n_diag:])
    return MonteCarloResult(
        diagonals=diagonals,
        offdiagonals=offdiagonals,
        fidelity=fidelity_from_arrays(*central),
        fidelity_std=float(np.std(fid_samples, ddof=1)) if trials > 1 else 0.0,
        fidelity_mean=float(np.mean(fid_samples)),
        trials=trials,
        degenerate=trials < 100,
    )


def subspace_monte_carlo(records, pair, trials: int, seed: int) -> tuple[float, float]:
    """One pair's subspace fidelity and its Monte Carlo spread: the one source of both.

    The resampling of :func:`monte_carlo_errors` draws here only the
    computational setting and the correlator settings of ``pair``, each on
    the stream the full resampling uses, so the trials are those of all 21
    settings, and the same records are rejected with the same message.
    A pair whose central population is zero (``Z`` has no counts of either
    ket) is refused with a ValueError.  The spread is the std over the
    trials with non-zero population, nan below two such trials, and 0 for
    a single trial.
    """
    _, (diag, off), (diag_samples, off_samples) = _resampled_elements(
        records, (pair,), trials, seed)
    i, j = ALL_KETS.index(pair[0]), ALL_KETS.index(pair[1])
    if not diag[i] + diag[j] > 0:
        raise ValueError(f"subspace ({pair[0]}, {pair[1]}) has zero population: "
                         f"setting {Z_LABEL!r} has no counts of {pair[0]} or {pair[1]}")
    value = subspace_fidelity(diag[i], diag[j], off[OFFDIAG_PAIRS.index(pair)])
    fsub = subspace_fidelity(diag_samples[:, i], diag_samples[:, j], off_samples[:, 0])
    finite = np.count_nonzero(~np.isnan(fsub))
    # Below two finite trials the spread is undefined (nanstd would warn).
    spread = (float(np.nanstd(fsub, ddof=1)) if finite > 1
              else 0.0 if len(fsub) == 1 else float("nan"))
    return value, spread
