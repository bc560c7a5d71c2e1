"""The benchmark's workloads: op arguments, the command lines an op runs, and output checks.

Every op runs real ``layered442`` command lines in-process through
``layered442.cli.main(argv)`` with the CLI defaults (visibility 0.8493,
rate 0.66/s, 1800 s per setting, 1000 Monte Carlo trials), stdout and
stderr captured, reports in a scratch directory, and ``--seed`` derived
from the workload seed and the op index.  An op fails on an unexpected
exit code or on a report that is wrong.

- ``certify``: one simulated experiment through the pipeline
  (gen-state, simulate-counts, witness, subspace, qkd --counts).  Most of
  its time is tomography; the class-overlap search never runs.
- ``fmax-search``: ``fmax --restarts 100``, the stochastic search that
  stress-tests the 3/4 class bound.  Almost all of it is witness and
  hilbert; tomography is never called.
- ``qkd-rounds``: ``qkd --rounds 100000``, round-by-round sampling and
  sifting in qkd, with only 4 Born-rule calls into tomography.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from layered442 import circuit, cli, qkd, tomography, witness

VISIBILITY = 0.8493
FMAX_RESTARTS = 100
QKD_ROUNDS = 100_000
SIGMAS = 5.0
FIDELITY_STD_RANGE = (0.004, 0.012)


def op_seed(workload_seed: int, index: int) -> int:
    """The ``--seed`` of op ``index``: a pure function of the workload seed."""
    return random.Random(f"{workload_seed}/{index}").randrange(2**31)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[int, int, Path], list[list[str]]]
    check: Callable[[Path, dict, int], list[str]]
    reference: Callable[[], dict] = dict
    sizes: dict = field(default_factory=dict)


def _base(seed: int, out: Path) -> list[str]:
    return ["--out", str(out), "--seed", str(seed), "--no-timestamp"]


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _read_qkd_rows(path: Path) -> dict[str, dict]:
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return {row["subspace"]: row for row in csv.DictReader(lines)}


def _key_rate_problems(rows: dict[str, dict]) -> list[str]:
    problems = []
    if len(rows) != len(qkd.LAYERS):
        problems.append(f"qkd report has {len(rows)} layers, expected {len(qkd.LAYERS)}")
    for name, row in rows.items():
        for column in ("key_per_round_mean", "key_per_round_pessimistic"):
            rate = float(row[column])
            if not 0.0 <= rate <= 1.0:
                problems.append(f"{name} {column} = {rate} outside [0, 1]")
    return problems


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _certify_pair(index: int) -> tuple[str, str]:
    return witness.OFFDIAG_PAIRS[index % len(witness.OFFDIAG_PAIRS)]


def certify_commands(seed: int, index: int, out: Path) -> list[list[str]]:
    base = _base(seed, out)
    counts = str(out / "counts.json")
    return [
        base + ["gen-state"],
        base + ["simulate-counts"],
        base + ["witness", "--counts", counts],
        base + ["subspace", *_certify_pair(index), "--counts", counts],
        base + ["qkd", "--counts", counts],
    ]


def certify_reference() -> dict:
    return {"fidelity": circuit.psi442_fidelity(circuit.noisy_psi442(VISIBILITY))}


def certify_check(out: Path, reference: dict, index: int) -> list[str]:
    problems = []
    mismatch = _read_json(out / "gen_state_report.json")["circuit_mismatch"]
    if not mismatch < cli.CIRCUIT_MATCH_TOL:
        problems.append(f"circuit mismatch {mismatch}")
    fidelity = _read_json(out / "witness_report.json")["fidelity"]
    value, std = fidelity["value"], fidelity["std_dev"]
    lo, hi = FIDELITY_STD_RANGE
    if not lo <= std <= hi:
        problems.append(f"fidelity std {std} outside [{lo}, {hi}]")
    elif not abs(value - reference["fidelity"]) <= SIGMAS * std:
        problems.append(f"fidelity {value} +/- {std} is more than {SIGMAS} sigma "
                        f"from {reference['fidelity']}")
    subspace = _read_json(out / "subspace_report.json")
    if tuple(subspace["kets"]) != _certify_pair(index):
        problems.append(f"subspace report is for {subspace['kets']}")
    if not subspace["fidelity"]["value"] > witness.GME_BOUND:
        problems.append(f"subspace fidelity {subspace['fidelity']['value']} <= 1/2")
    problems += _key_rate_problems(_read_qkd_rows(out / "qkd_report.csv"))
    return problems


# ---------------------------------------------------------------------------
# fmax-search
# ---------------------------------------------------------------------------


def fmax_commands(seed: int, index: int, out: Path) -> list[list[str]]:
    return [_base(seed, out) + ["fmax", "--restarts", str(FMAX_RESTARTS)]]


def fmax_check(out: Path, reference: dict, index: int) -> list[str]:
    report = _read_json(out / "fmax_report.json")
    problems = []
    if not abs(report["bound"] - witness.FMAX_BOUND) <= 1e-12:
        problems.append(f"class bound {report['bound']} is not {witness.FMAX_BOUND}")
    search = report.get("search", {})
    if search.get("restarts") != FMAX_RESTARTS:
        problems.append(f"search ran {search.get('restarts')} restarts")
    if search.get("within_bound") is not True:
        problems.append(f"search max {search.get('max_overlap')} exceeds the bound")
    return problems


# ---------------------------------------------------------------------------
# qkd-rounds
# ---------------------------------------------------------------------------


def qkd_commands(seed: int, index: int, out: Path) -> list[list[str]]:
    return [_base(seed, out) + ["qkd", "--rounds", str(QKD_ROUNDS)]]


def qkd_reference() -> dict:
    """Infinite-statistics QBERs and sift fractions per layer."""
    plan = tomography.standard_plan()
    records = tomography.exact_records(circuit.noisy_psi442(VISIBILITY), plan)
    tables = tomography.count_tables(records)
    return {"/".join(layer.signal_kets): qkd.qbers_from_counts(tables, layer)
            for layer in qkd.LAYERS}


def qkd_check(out: Path, reference: dict, index: int) -> list[str]:
    rows = _read_qkd_rows(out / "qkd_report.csv")
    problems = _key_rate_problems(rows)
    for name, exact in reference.items():
        row = rows.get(name)
        if row is None:
            problems.append(f"qkd report lacks layer {name}")
            continue
        for column, sift in (("qber_z", exact.sift_fraction_z),
                             ("qber_x", exact.sift_fraction_x),
                             ("qber_z_ab", exact.sift_fraction_z),
                             ("qber_z_ac", exact.sift_fraction_z)):
            q = getattr(exact, column)
            if q is None:
                continue
            sigma = math.sqrt(q * (1.0 - q) / (QKD_ROUNDS * sift))
            value = float(row[column])
            if not abs(value - q) <= SIGMAS * sigma:
                problems.append(f"{name} {column} = {value} is more than {SIGMAS} "
                                f"binomial sigma from {q:.6f}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify", certify_commands, certify_check, certify_reference,
                 {"commands": 5, "settings": len(tomography.standard_plan().settings),
                  "monte_carlo_trials": cli.RunConfig().monte_carlo_trials,
                  "monte_carlo_runs": 2}),
        Workload("fmax-search", fmax_commands, fmax_check,
                 sizes={"restarts": FMAX_RESTARTS}),
        Workload("qkd-rounds", qkd_commands, qkd_check, qkd_reference,
                 {"rounds": QKD_ROUNDS, "layers": len(qkd.LAYERS)}),
    )
}


def prepare(name: str, out: Path) -> dict:
    """Set up a workload's inputs: its scratch directory and reference values."""
    out.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name].reference()


def run_op(workload: Workload, reference: dict, workload_seed: int, index: int,
           out: Path) -> list[str]:
    """Run one op; return what was wrong with it (empty when it passed)."""
    for stale in out.iterdir():
        stale.unlink()
    captured = io.StringIO()
    try:
        for argv in workload.commands(op_seed(workload_seed, index), index, out):
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            if code != cli.EXIT_OK:
                return [f"{' '.join(argv)} exited {code}: {captured.getvalue().strip()}"]
        return workload.check(out, reference, index)
    except Exception:
        # An op that raises counts as failed; the run goes on.
        return [traceback.format_exc(limit=3)]
