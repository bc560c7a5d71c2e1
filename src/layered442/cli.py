"""Command-line driver for the layered-state pipeline.

Subcommands: gen-state, simulate-counts, estimate, witness, subspace, qkd,
fmax.  A JSON config file supplies defaults; command-line flags win over
file values.  Every report embeds the config (including the seed) but not
the output directory, so outputs are byte-identical for identical configs
apart from the timestamp header, which ``--no-timestamp`` suppresses.

Exit codes: 0 success, 1 certification negative (output still valid),
2 usage or I/O error or an allocation the machine refuses, 3 internal
consistency failure.  Every exit-2 refusal is raised to :func:`main`.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import circuit, fixtures, qkd, tomography, witness
from .hilbert import _check_seed, rank_vector

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

CIRCUIT_MATCH_TOL = 1e-12


@dataclass
class RunConfig:
    """Run parameters shared by all subcommands."""

    seed: int = 1234
    visibility: float = fixtures.REFERENCE_EXPERIMENT["matched_visibility"]
    rate: float = fixtures.REFERENCE_EXPERIMENT["counting_rate_per_s"]
    integration_time: float = fixtures.REFERENCE_EXPERIMENT["integration_time_s"]
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
            # A config file's 900 and the flag's 900.0 make the same report bytes.
            setattr(self, key, float(value))
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        if not isinstance(self.no_timestamp, bool):
            raise ValueError(f"no_timestamp must be true or false, got {self.no_timestamp!r}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")
        _check_seed(self.seed)
        if self.monte_carlo_trials < 1:
            raise ValueError("monte_carlo_trials must be >= 1")
        if self.rate <= 0 or self.integration_time <= 0:
            raise ValueError("rate and integration time must be positive")


def _load_config(args) -> RunConfig:
    """The config file's values, overridden by each global flag given.

    Every global flag's ``dest`` is the name of the field it sets.
    """
    values = {}
    if args.config:
        values = tomography._read_json(args.config, "config file")
        if not isinstance(values, dict):
            raise ValueError(f"config file must be a JSON object, got {type(values).__name__}")
        unknown = set(values) - set(RunConfig.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    values.update({key: value for key, value in vars(args).items()
                   if key in RunConfig.__dataclass_fields__ and value is not None})
    return RunConfig(**values)


def _out_dir(cfg: RunConfig) -> Path:
    path = Path(cfg.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(cfg: RunConfig, path: Path, payload: dict):
    payload = dict(payload)
    payload["config"] = {k: v for k, v in asdict(cfg).items() if k != "out_dir"}
    if not cfg.no_timestamp:
        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    # Serialised before the file opens: a NaN or infinity raises and leaves no file.
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


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


def _records(cfg: RunConfig, counts_path) -> list[tomography.CountRecord]:
    """Count records from a counts file, or simulated with the config."""
    if counts_path:
        return tomography.records_from_json(counts_path)
    plan = tomography.standard_plan(cfg.rate, cfg.integration_time)
    return tomography.simulate_counts(circuit.noisy_psi442(cfg.visibility), plan, cfg.seed)


def _monte_carlo(cfg: RunConfig, counts_path) -> tomography.MonteCarloResult:
    """Estimates with error bars from a counts file, or from counts simulated with the config."""
    return tomography.monte_carlo_errors(_records(cfg, counts_path), cfg.monte_carlo_trials,
                                         cfg.seed)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_gen_state(cfg: RunConfig, args) -> int:
    fused, layered = circuit.circuit_psi442()
    closed = circuit.make_psi442()
    mismatch = float(np.max(np.abs(layered.state.amplitudes - closed.amplitudes)))
    if mismatch >= CIRCUIT_MATCH_TOL:
        print(f"error: circuit and closed-form states differ by {mismatch:.3e}", file=sys.stderr)
        return EXIT_INTERNAL
    ranks = rank_vector(closed)
    fidelity = circuit.psi442_fidelity(circuit.noisy_psi442(cfg.visibility))
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
        "fidelity_vs_ideal": fidelity,
        "reference": fixtures.REFERENCE_EXPERIMENT,
    })
    print(f"rank vector {ranks}, circuit mismatch {mismatch:.2e}, "
          f"fidelity at visibility {cfg.visibility}: {fidelity:.4f}")
    return EXIT_OK


def cmd_simulate_counts(cfg: RunConfig, args) -> int:
    records = _records(cfg, None)
    labels = tomography.standard_plan().settings
    out = _out_dir(cfg)
    tomography.records_to_json(records, out / "counts.json")
    _write_json(cfg, out / "counts.meta.json", {
        "settings": list(labels),
        "records": len(records),
        "total_counts": sum(r.counts for r in records),
    })
    print(f"wrote {len(records)} count records for {len(labels)} settings "
          f"to {out / 'counts.json'}")
    return EXIT_OK


def cmd_estimate(cfg: RunConfig, args) -> int:
    result = _monte_carlo(cfg, args.counts)
    out = _out_dir(cfg)
    rows = [(e.bra, e.value, e.std_dev) for e in result.diagonals]
    rows += [(f"{e.bra}|{e.ket}", e.value, e.std_dev) for e in result.offdiagonals]
    _write_csv(cfg, out / "estimates.csv", ("label", "value", "std_dev"), rows)
    print(f"estimated 38 elements; fidelity {result.fidelity:.4f} "
          f"+/- {result.fidelity_std:.4f} ({result.trials} trials)")
    return EXIT_OK


def _consistency_warnings(diagonals, offdiagonals):
    """Flag coherences above their bound sqrt(rho_ii rho_jj) by over 3 sigma of the difference."""
    diag = {e.bra: e for e in diagonals}
    warnings = []
    for e in offdiagonals:
        a, b = diag[e.bra], diag[e.ket]
        bound, bound_var = 0.0, 0.0
        if a.value > 0 and b.value > 0:
            bound = math.sqrt(a.value * b.value)
            # First-order error of the bound from the diagonal errors.
            bound_var = (b.value * a.std_dev**2 / a.value + a.value * b.std_dev**2 / b.value) / 4
        if abs(e.value) > bound + 3 * math.sqrt(e.std_dev**2 + bound_var) + 1e-12:
            warnings.append(f"|{e.bra}><{e.ket}| = {e.value:.4f} exceeds bound {bound:.4f}")
    return warnings


def _certify(what, value, std, trials, bound) -> witness.Certification:
    """The verdict of ``witness`` and ``subspace``: ``value`` +/- ``std`` against ``bound``.

    ``witness.certify_dimensionality`` decides; a spread it refuses is named as ``what``'s.
    """
    try:
        return witness.certify_dimensionality(value, std, bound)
    except ValueError as exc:
        raise ValueError(f"{what} spread is {std} after {trials} Monte Carlo trial(s); "
                         f"it must be a positive finite number") from exc


def cmd_witness(cfg: RunConfig, args) -> int:
    if args.fixture:
        diagonals, offdiagonals = fixtures.load_measured_elements()
        fidelity = witness.fidelity_from_elements(diagonals, offdiagonals)
        fidelity_std = fixtures.REFERENCE_EXPERIMENT["fidelity_std"]
        trials = 0
    else:
        result = _monte_carlo(cfg, args.counts)
        diagonals, offdiagonals = result.diagonals, result.offdiagonals
        fidelity, fidelity_std = result.fidelity, result.fidelity_std
        trials = result.trials
    cert = _certify("fidelity", fidelity, fidelity_std, trials, witness.FMAX_BOUND)
    out = _out_dir(cfg)
    _write_json(cfg, out / "witness_report.json", {
        "elements": {
            "diagonal": [dict(vars(e)) for e in diagonals],
            "offdiagonal": [dict(vars(e)) for e in offdiagonals],
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


def cmd_subspace(cfg: RunConfig, args) -> int:
    pair = tuple(sorted(args.kets))
    if pair not in witness.OFFDIAG_PAIRS:
        raise ValueError(f"{args.kets} is not a pair of distinct signal kets "
                         f"{circuit.SIGNAL_KETS}")
    published = fixtures.load_measured_subspace_fidelities().get(pair)
    if args.fixture:
        value, std = published
    else:
        value, std = tomography.subspace_monte_carlo(_records(cfg, args.counts), pair,
                                                     cfg.monte_carlo_trials, cfg.seed)
    witnessed = _certify(f"subspace ({pair[0]}, {pair[1]}) fidelity", value, std,
                         cfg.monte_carlo_trials, witness.GME_BOUND).certified
    out = _out_dir(cfg)
    _write_json(cfg, out / "subspace_report.json", {
        "kets": list(pair),
        "fidelity": {"value": value, "std_dev": std},
        "gme_bound": witness.GME_BOUND,
        "witness_expectation": witness.ghz_witness_value(min(max(value, 0.0), 1.0)),
        "witnessed": witnessed,
        "reference_fidelity": list(published) if published else None,
    })
    print(f"subspace ({pair[0]}, {pair[1]}): F = {value:.4f} +/- {std:.4f}, "
          f"GME witnessed: {witnessed}")
    return EXIT_OK if witnessed else EXIT_NOT_CERTIFIED


def _qkd_tables_simulated(cfg: RunConfig, rounds: int) -> dict:
    """Count tables of simulated rounds; each basis is drawn once and binned as soon as drawn."""
    rho = circuit.noisy_psi442(cfg.visibility)
    tables = {"Z": qkd.round_table(qkd.sample_z_rounds(rho, rounds, cfg.seed), "Z")}
    for layer in qkd.LAYERS:
        label = layer.x_setting_label
        tables[label] = qkd.round_table(qkd.sample_x_rounds(rho, layer, rounds, cfg.seed), label)
    return tables


def cmd_qkd(cfg: RunConfig, args) -> int:
    """Rows (subspace, QBER report, published rate) from one source, then one rate per row."""
    if args.fixture:
        rows = [(row["subspace"], fixtures.qber_report_from_row(row), row["key_per_round"])
                for row in fixtures.load_measured_qkd_rows()]
    else:
        if args.counts:
            tables = tomography.count_tables(tomography.records_from_json(args.counts))
        else:
            rounds = 100000 if args.rounds is None else args.rounds
            if rounds < 1:
                raise ValueError(f"--rounds must be >= 1, got {rounds}")
            tables = _qkd_tables_simulated(cfg, rounds)
        rows = [("/".join(layer.signal_kets), qkd.qbers_from_counts(tables, layer), None)
                for layer in qkd.LAYERS]
    header = ["subspace", "qber_z", "qber_x", "qber_z_ab", "qber_z_ac",
              "key_per_round_mean", "key_per_round_pessimistic",
              "key_per_round_published", "abs_discrepancy", "n_z_sifted", "n_x_sifted"]
    table = []
    for subspace, report, published in rows:
        rate = qkd.asymptotic_key_rate(report)
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
            *((None, None) if args.fixture else (report.n_z_sifted, report.n_x_sifted)),
        ])
    out = _out_dir(cfg)
    _write_csv(cfg, out / "qkd_report.csv", header, table)
    for line in table:
        print(f"{line[0]:>8}: key/round {line[5]:.4f}"
              + (f" (published {line[7]}, |diff| {line[8]:.4f})" if line[7] is not None else ""))
    return EXIT_OK


def cmd_fmax(cfg: RunConfig, args) -> int:
    if args.restarts < 0:
        raise ValueError(f"--restarts must be >= 0 (0 skips the search), got {args.restarts}")
    target = circuit.make_psi442()
    cls = witness.RankVectorClass(tuple(args.ranks))
    bound, cuts = witness.class_bound_with_cuts(target, cls)
    per_cut = {f"party_{p}_rank_{cap}": overlap for (p, cap), overlap in cuts.items()}
    payload = {
        "class_ranks": list(cls.ranks),
        "class_members": [list(m) for m in cls.members(target.dims)],
        "bound": bound,
        "per_cut_overlaps": per_cut,
        "reference_bound": fixtures.REFERENCE_EXPERIMENT["dimensionality_bound"],
    }
    status = EXIT_OK
    if args.restarts > 0:
        overlaps = witness.search_class_overlap(target, cls, args.restarts, cfg.seed)
        payload["search"] = {
            "restarts": args.restarts,
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
          + (f", search max over {args.restarts} restarts: "
             f"{payload['search']['max_overlap']:.6f}" if args.restarts > 0 else ""))
    return status


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: parsing reads it and changes none of its defaults."""
    parser = argparse.ArgumentParser(
        prog="layered442",
        description="Simulate, certify and analyze the layered three-photon (4,4,2) state.",
    )
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--seed", type=int, help="RNG seed (default 1234)")
    parser.add_argument("--visibility", type=float, help="white-noise visibility in [0,1]")
    parser.add_argument("--trials", dest="monte_carlo_trials", metavar="TRIALS", type=int,
                        help="Monte Carlo trials for error bars")
    parser.add_argument("--rate", type=float, help="coincidence rate per second")
    parser.add_argument("--time", dest="integration_time", metavar="TIME", type=float,
                        help="integration time per setting (s)")
    parser.add_argument("--out", dest="out_dir", metavar="OUT",
                        help="output directory (default ./out)")
    parser.add_argument("--no-timestamp", action="store_true", default=None,
                        help="omit timestamps for byte-identical reruns")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gen-state", help="build the state, check circuit vs closed form")
    sub.add_parser("simulate-counts", help="simulate Poissonian counts for the witness plan")

    p = sub.add_parser("estimate", help="estimate density-matrix elements from counts")
    p.add_argument("--counts", help="counts JSON (default: simulate with the config)")

    p = sub.add_parser("witness", help="dimensionality witness report")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--counts", help="counts JSON (default: simulate with the config)")
    source.add_argument("--fixture", action="store_true", help="use the published element record")

    p = sub.add_parser("subspace", help="two-level subspace GHZ fidelity")
    p.add_argument("kets", nargs=2, help="two signal kets, e.g. 000 111")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--counts", help="counts JSON (default: simulate with the config)")
    source.add_argument("--fixture", action="store_true", help="use the published fidelities")

    p = sub.add_parser("qkd", help="per-layer QBERs and key rates")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--counts", help="counts JSON")
    source.add_argument("--fixture", action="store_true", help="use the published QKD table")
    source.add_argument("--rounds", type=int, help="simulated rounds per basis (default 100000)")

    p = sub.add_parser("fmax", help="dimensionality class bound (and optional search)")
    p.add_argument("--ranks", type=int, nargs=3, default=(4, 3, 2), help="class rank caps")
    p.add_argument("--restarts", type=int, default=0, help="stochastic search restarts")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # Looked up by name on each call: the cached parser holds no command function.
    run = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return run(_load_config(args), args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
