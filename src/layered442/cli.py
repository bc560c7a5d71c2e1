"""Command-line driver for the layered-state pipeline.

Subcommands: gen-state, simulate-counts, estimate, witness, subspace, qkd,
fmax.  A JSON config file supplies defaults; command-line flags win over
file values.  Every report embeds the config (including the seed), and
outputs are byte-identical for identical configs apart from the timestamp
header, which ``--no-timestamp`` suppresses.

Exit codes: 0 success, 1 certification negative (output still valid),
2 usage or I/O error, 3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import circuit, fixtures, qkd, tomography, witness
from .hilbert import rank_vector

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

CIRCUIT_MATCH_TOL = 1e-12


@dataclass
class RunConfig:
    """Run parameters shared by all subcommands."""

    seed: int = 1234
    visibility: float = 0.8493
    rate: float = 0.66
    integration_time: float = 1800.0
    monte_carlo_trials: int = 1000
    out_dir: str = "out"
    no_timestamp: bool = False

    def __post_init__(self):
        for key in ("seed", "monte_carlo_trials"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        for key in ("visibility", "rate", "integration_time"):
            value = getattr(self, key)
            # NaN, infinities and integers too large for a float all fail the bound.
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not abs(value) <= sys.float_info.max):
                raise ValueError(f"{key} must be a finite number, got {value!r}")
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        if not isinstance(self.no_timestamp, bool):
            raise ValueError(f"no_timestamp must be true or false, got {self.no_timestamp!r}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.monte_carlo_trials < 1:
            raise ValueError("monte_carlo_trials must be >= 1")
        if self.rate <= 0 or self.integration_time <= 0:
            raise ValueError("rate and integration time must be positive")


def _load_config(args) -> RunConfig:
    values = {}
    if args.config:
        with open(args.config) as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError(f"config file must be a JSON object, got {type(file_values).__name__}")
        unknown = set(file_values) - set(RunConfig.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values.update(file_values)
    overrides = {
        "seed": args.seed,
        "visibility": args.visibility,
        "rate": args.rate,
        "integration_time": args.time,
        "monte_carlo_trials": args.trials,
        "out_dir": args.out,
    }
    for key, val in overrides.items():
        if val is not None:
            values[key] = val
    if args.no_timestamp:
        values["no_timestamp"] = True
    return RunConfig(**values)


def _out_dir(cfg: RunConfig) -> Path:
    path = Path(cfg.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(cfg: RunConfig, path: Path, payload: dict):
    payload = dict(payload)
    payload["config"] = asdict(cfg)
    if not cfg.no_timestamp:
        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(cfg: RunConfig, path: Path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(f"# seed: {cfg.seed}\n")
        if not cfg.no_timestamp:
            fh.write(f"# generated_at: {datetime.now(timezone.utc).isoformat()}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else _fmt(v) for v in row])


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.10g}"
    return value


def _element_dict(e: witness.ElementEstimate) -> dict:
    return {
        "bra": e.bra,
        "ket": e.ket,
        "value": e.value,
        "std_dev": e.std_dev,
        "low_stats": e.low_stats,
    }


def _noisy_state(cfg: RunConfig):
    return circuit.noisy_psi442(cfg.visibility)


def _records(cfg: RunConfig, counts_path) -> list[tomography.CountRecord]:
    """Count records from a counts file, or simulated with the config."""
    if counts_path:
        return tomography.records_from_json(counts_path)
    plan = tomography.standard_plan(cfg.rate, cfg.integration_time)
    return tomography.simulate_counts(_noisy_state(cfg), plan, cfg.seed)


def _monte_carlo(cfg: RunConfig, counts_path) -> tomography.MonteCarloResult:
    """Estimates with error bars from a counts file, or from counts simulated with the config."""
    return tomography.monte_carlo_errors(_records(cfg, counts_path), cfg.monte_carlo_trials,
                                         cfg.seed)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_gen_state(cfg: RunConfig) -> int:
    fused, layered = circuit.circuit_psi442()
    closed = circuit.make_psi442()
    mismatch = float(np.max(np.abs(layered.state.amplitudes - closed.amplitudes)))
    if mismatch >= CIRCUIT_MATCH_TOL:
        print(f"error: circuit and closed-form states differ by {mismatch:.3e}", file=sys.stderr)
        return EXIT_INTERNAL
    ranks = rank_vector(closed)
    noisy = _noisy_state(cfg)
    out = _out_dir(cfg)
    _write_json(cfg, out / "state.json", {
        "dims": list(closed.dims),
        "amplitudes_real": closed.amplitudes.real.tolist(),
        "amplitudes_imag": closed.amplitudes.imag.tolist(),
        "signal_kets": list(circuit.SIGNAL_KETS),
    })
    _write_json(cfg, out / "gen_state_report.json", {
        "rank_vector": list(ranks),
        "circuit_mismatch": mismatch,
        "fusion_success_probability": fused.success_probability,
        "doubling_success_probability": layered.success_probability,
        "fidelity_vs_ideal": circuit.psi442_fidelity(noisy),
        "reference": fixtures.REFERENCE_EXPERIMENT,
    })
    print(f"rank vector {ranks}, circuit mismatch {mismatch:.2e}, "
          f"fidelity at visibility {cfg.visibility}: {circuit.psi442_fidelity(noisy):.4f}")
    return EXIT_OK


def cmd_simulate_counts(cfg: RunConfig) -> int:
    plan = tomography.standard_plan(cfg.rate, cfg.integration_time)
    records = tomography.simulate_counts(_noisy_state(cfg), plan, cfg.seed)
    out = _out_dir(cfg)
    tomography.records_to_json(records, out / "counts.json")
    _write_json(cfg, out / "counts.meta.json", {
        "settings": [s.label for s in plan.settings],
        "records": len(records),
        "total_counts": sum(r.counts for r in records),
    })
    print(f"wrote {len(records)} count records for {len(plan.settings)} settings "
          f"to {out / 'counts.json'}")
    return EXIT_OK


def cmd_estimate(cfg: RunConfig, counts_path) -> int:
    result = _monte_carlo(cfg, counts_path)
    out = _out_dir(cfg)
    rows = [(e.bra, e.value, e.std_dev) for e in result.diagonals]
    rows += [(f"{e.bra}|{e.ket}", e.value, e.std_dev) for e in result.offdiagonals]
    _write_csv(cfg, out / "estimates.csv", ("label", "value", "std_dev"), rows)
    print(f"estimated 38 elements; fidelity {result.fidelity:.4f} "
          f"+/- {result.fidelity_std:.4f} ({result.trials} trials)")
    return EXIT_OK


def _consistency_warnings(diagonals, offdiagonals):
    """Flag coherences exceeding the geometric mean of their populations."""
    diag = {e.bra: e.value for e in diagonals}
    warnings = []
    for e in offdiagonals:
        bound = np.sqrt(max(diag[e.bra], 0.0) * max(diag[e.ket], 0.0))
        if abs(e.value) > bound + 3 * e.std_dev + 1e-12:
            warnings.append(f"|{e.bra}><{e.ket}| = {e.value:.4f} exceeds bound {bound:.4f}")
    return warnings


def cmd_witness(cfg: RunConfig, counts_path, use_fixture: bool) -> int:
    if use_fixture:
        diagonals, offdiagonals = fixtures.load_measured_elements()
        fidelity = witness.fidelity_from_elements(diagonals, offdiagonals)
        fidelity_std = fixtures.REFERENCE_EXPERIMENT["fidelity_std"]
        trials = 0
    else:
        result = _monte_carlo(cfg, counts_path)
        diagonals, offdiagonals = result.diagonals, result.offdiagonals
        fidelity, fidelity_std = result.fidelity, result.fidelity_std
        trials = result.trials
    try:
        cert = witness.certify_dimensionality(fidelity, fidelity_std)
    except ValueError as exc:
        raise ValueError(f"{exc}; fidelity std is {fidelity_std} "
                         f"after {trials} Monte Carlo trial(s)") from exc
    out = _out_dir(cfg)
    _write_json(cfg, out / "witness_report.json", {
        "elements": {
            "diagonal": [_element_dict(e) for e in diagonals],
            "offdiagonal": [_element_dict(e) for e in offdiagonals],
        },
        "fidelity": {"value": cert.f_exp, "std_dev": cert.std_dev},
        "bound": cert.bound,
        "sigma_margin": cert.sigma_margin,
        "certified": cert.certified,
        "monte_carlo_trials": trials,
        "consistency_warnings": _consistency_warnings(diagonals, offdiagonals),
        "reference": fixtures.REFERENCE_EXPERIMENT,
    })
    print(f"F = {cert.f_exp:.4f} +/- {cert.std_dev:.4f}, bound {cert.bound}, "
          f"margin {cert.sigma_margin:.1f} sigma, certified: {cert.certified}")
    return EXIT_OK if cert.certified else EXIT_NOT_CERTIFIED


def cmd_subspace(cfg: RunConfig, kets, counts_path, use_fixture: bool) -> int:
    pair = tuple(sorted(kets))
    if pair not in witness.OFFDIAG_PAIRS:
        print(f"error: {kets} is not a pair of distinct signal kets "
              f"{witness.SIGNAL_KETS}", file=sys.stderr)
        return EXIT_USAGE
    published = fixtures.load_measured_subspace_fidelities().get(pair)
    if use_fixture:
        value, std = published
    else:
        value, std = tomography.subspace_monte_carlo(_records(cfg, counts_path), pair,
                                                     cfg.monte_carlo_trials, cfg.seed)
        if math.isnan(value):
            raise ValueError(f"subspace ({pair[0]}, {pair[1]}) has zero population: "
                             f"setting 'Z' has no counts of {pair[0]} or {pair[1]}")
    witnessed = witness.gme_witnessed(value)
    out = _out_dir(cfg)
    _write_json(cfg, out / "subspace_report.json", {
        "kets": list(pair),
        "fidelity": {"value": value, "std_dev": std},
        "gme_bound": witness.GME_BOUND,
        "witness_expectation": witness.ghz_witness_value(min(value, 1.0)),
        "witnessed": witnessed,
        "reference_fidelity": list(published) if published else None,
    })
    print(f"subspace ({pair[0]}, {pair[1]}): F = {value:.4f} +/- {std:.4f}, "
          f"GME witnessed: {witnessed}")
    return EXIT_OK if witnessed else EXIT_NOT_CERTIFIED


def _qkd_rows_fixture():
    rows = []
    for row in fixtures.load_measured_qkd_rows():
        report = fixtures.qber_report_from_row(row)
        rate = qkd.asymptotic_key_rate(report)
        rows.append((row["subspace"], report, rate, row["key_per_round"]))
    return rows


def _qkd_rows_simulated(cfg: RunConfig, rounds: int):
    rho = _noisy_state(cfg)
    z = qkd.sample_z_rounds(rho, rounds, cfg.seed)
    rows = []
    for layer in qkd.LAYERS:
        x = qkd.sample_x_rounds(rho, layer, rounds, cfg.seed)
        report = qkd.compute_qbers({"Z": z, "X": x}, layer)
        rows.append(("/".join(layer.signal_kets), report, qkd.asymptotic_key_rate(report), None))
    return rows


def _qkd_rows_counts(counts_path):
    records = tomography.records_from_json(counts_path)
    tables = tomography.count_tables(records)
    rows = []
    for layer in qkd.LAYERS:
        report = qkd.qbers_from_counts(tables, layer)
        rows.append(("/".join(layer.signal_kets), report, qkd.asymptotic_key_rate(report), None))
    return rows


def cmd_qkd(cfg: RunConfig, counts_path, use_fixture: bool, rounds: int) -> int:
    if rounds < 1:
        raise ValueError(f"--rounds must be >= 1, got {rounds}")
    if use_fixture:
        rows = _qkd_rows_fixture()
    elif counts_path:
        rows = _qkd_rows_counts(counts_path)
    else:
        rows = _qkd_rows_simulated(cfg, rounds)
    header = ["subspace", "qber_z", "qber_x", "qber_z_ab", "qber_z_ac",
              "key_per_round_mean", "key_per_round_pessimistic",
              "key_per_round_published", "abs_discrepancy"]
    table = []
    for subspace, report, rate, published in rows:
        table.append([
            subspace,
            report.qber_z,
            report.qber_x,
            report.qber_z_ab,
            report.qber_z_ac,
            rate.rate_mean,
            rate.rate_pessimistic,
            published,
            abs(rate.rate_mean - published) if published is not None else None,
        ])
    out = _out_dir(cfg)
    _write_csv(cfg, out / "qkd_report.csv", header, table)
    for line in table:
        print(f"{line[0]:>8}: key/round {line[5]:.4f}"
              + (f" (published {line[7]}, |diff| {line[8]:.4f})" if line[7] is not None else ""))
    return EXIT_OK


def cmd_fmax(cfg: RunConfig, ranks, restarts: int) -> int:
    if restarts < 0:
        raise ValueError(f"--restarts must be >= 0 (0 skips the search), got {restarts}")
    target = circuit.make_psi442()
    cls = witness.RankVectorClass(tuple(ranks))
    bound = witness.fmax_class_bound(target, cls)
    per_cut = {
        f"party_{p}_rank_{cap}": witness.max_overlap_bounded_rank(target, (p,), cap)
        for member in cls.members(target.dims)
        for p, cap in enumerate(member)
    }
    payload = {
        "class_ranks": list(cls.ranks),
        "class_members": [list(m) for m in cls.members(target.dims)],
        "bound": bound,
        "per_cut_overlaps": per_cut,
        "reference_bound": fixtures.REFERENCE_EXPERIMENT["dimensionality_bound"],
    }
    status = EXIT_OK
    if restarts > 0:
        overlaps = witness.search_class_overlap(target, cls, restarts, cfg.seed)
        payload["search"] = {
            "restarts": restarts,
            "max_overlap": float(overlaps.max()),
            "min_overlap": float(overlaps.min()),
            "within_bound": bool(overlaps.max() <= bound + 1e-6),
            "restarts_at_bound": int(np.sum(np.abs(overlaps - bound) <= 1e-9)),
            "bound_gap": bound - float(overlaps.max()),
        }
        if not payload["search"]["within_bound"]:
            print("error: stochastic search exceeded the analytic bound", file=sys.stderr)
            status = EXIT_INTERNAL
    out = _out_dir(cfg)
    _write_json(cfg, out / "fmax_report.json", payload)
    print(f"class {tuple(cls.ranks)} bound: {bound:.6f}"
          + (f", search max over {restarts} restarts: {payload['search']['max_overlap']:.6f}"
             if restarts > 0 else ""))
    return status


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="layered442",
        description="Simulate, certify and analyze the layered three-photon (4,4,2) state.",
    )
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--seed", type=int, help="RNG seed (default 1234)")
    parser.add_argument("--visibility", type=float, help="white-noise visibility in [0,1]")
    parser.add_argument("--trials", type=int, help="Monte Carlo trials for error bars")
    parser.add_argument("--rate", type=float, help="coincidence rate per second")
    parser.add_argument("--time", type=float, help="integration time per setting (s)")
    parser.add_argument("--out", help="output directory (default ./out)")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit timestamps for byte-identical reruns")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gen-state", help="build the state, check circuit vs closed form")
    sub.add_parser("simulate-counts", help="simulate Poissonian counts for the witness plan")

    p = sub.add_parser("estimate", help="estimate density-matrix elements from counts")
    p.add_argument("--counts", help="counts JSON (default: simulate with the config)")

    p = sub.add_parser("witness", help="dimensionality witness report")
    p.add_argument("--counts", help="counts JSON (default: simulate with the config)")
    p.add_argument("--fixture", action="store_true", help="use the published element record")

    p = sub.add_parser("subspace", help="two-level subspace GHZ fidelity")
    p.add_argument("kets", nargs=2, help="two signal kets, e.g. 000 111")
    p.add_argument("--counts", help="counts JSON (default: simulate with the config)")
    p.add_argument("--fixture", action="store_true", help="use the published fidelities")

    p = sub.add_parser("qkd", help="per-layer QBERs and key rates")
    p.add_argument("--counts", help="counts JSON")
    p.add_argument("--fixture", action="store_true", help="use the published QKD table")
    p.add_argument("--rounds", type=int, default=100000, help="simulated rounds per basis")

    p = sub.add_parser("fmax", help="dimensionality class bound (and optional search)")
    p.add_argument("--ranks", type=int, nargs=3, default=(4, 3, 2), help="class rank caps")
    p.add_argument("--restarts", type=int, default=0, help="stochastic search restarts")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "gen-state":
            return cmd_gen_state(cfg)
        if args.command == "simulate-counts":
            return cmd_simulate_counts(cfg)
        if args.command == "estimate":
            return cmd_estimate(cfg, args.counts)
        if args.command == "witness":
            return cmd_witness(cfg, args.counts, args.fixture)
        if args.command == "subspace":
            return cmd_subspace(cfg, args.kets, args.counts, args.fixture)
        if args.command == "qkd":
            return cmd_qkd(cfg, args.counts, args.fixture, args.rounds)
        if args.command == "fmax":
            return cmd_fmax(cfg, args.ranks, args.restarts)
        parser.error(f"unknown command {args.command}")
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
