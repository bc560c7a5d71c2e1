import csv
import json
import re

import numpy as np
import pytest

from layered442.circuit import apply_white_noise, noisy_psi442
from layered442.cli import RunConfig, _build_parser, _load_config, _write_json, main
from layered442.fixtures import REFERENCE_EXPERIMENT
from layered442.hilbert import PureState
from layered442 import cli, tomography
from layered442.qkd import LAYERS, qbers_from_counts
from layered442.tomography import (
    count_tables,
    monte_carlo_errors,
    records_from_json,
    records_to_json,
    simulate_counts,
    standard_plan,
    subspace_monte_carlo,
)

from conftest import flat_index


def run(tmp_path, *args):
    out = tmp_path / "out"
    return main(["--out", str(out), "--no-timestamp", *args]), out


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path) as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(rows))


BAD_COUNT = "counts for setting 'Z' outcome '000' must be a finite non-negative number,"

MALFORMED_COUNTS = pytest.mark.parametrize("edit, cause", [
    (lambda d: d[0].update(counts="7"), f"{BAD_COUNT} got '7'"),
    (lambda d: d[0].update(counts=None), f"{BAD_COUNT} got None"),
    (lambda d: d[0].update(counts=True), f"{BAD_COUNT} got True"),
    (lambda d: d[0].update(counts=float("nan")), f"{BAD_COUNT} got nan"),
    (lambda d: d[0].update(counts=float("inf")), f"{BAD_COUNT} got inf"),
    (lambda d: d.__setitem__(3, ["Z", "000", 3]), "count record 3 is not a JSON object"),
    (lambda d: d[5].pop("outcome"), "count record 5 lacks 'outcome'"),
    (lambda d: d[5].update(note="x"), "count record 5 has unknown keys ['note']"),
    (lambda d: d.append(dict(d[0])), "duplicate record for setting 'Z' outcome '000'"),
    (lambda d: d[0].update(setting="XAB-X01-X01"),
     "setting 'XAB-X01-X01' is not one of the 21 settings of the standard plan"),
    (lambda d: d[0].update(setting="X00-X01-X01"),
     "setting 'X00-X01-X01' is not one of the 21 settings of the standard plan"),
], ids=["string", "null", "bool", "nan", "infinity", "array-record", "missing-key",
        "unknown-key", "duplicate", "letter-levels", "equal-levels"])

# Reads Z, X02-X02-Z and Y02-Y02-Z only.
SUBSPACE_000_220 = ("subspace", "000", "220")


def edited_counts(tmp_path, edit):
    """Simulate counts, apply ``edit`` to the records in place, return the edited file."""
    code, out = run(tmp_path, "simulate-counts")
    assert code == 0
    data = read_json(out / "counts.json")
    edit(data)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return path


def prune(data, settings):
    data[:] = [r for r in data if r["setting"] not in settings]


def zero_counts(data, setting=None, keep=None):
    """Zero the counts of ``setting`` (all settings if None), except outcome ``keep`` -> 1."""
    for r in data:
        if setting in (None, r["setting"]):
            r["counts"] = 1 if r["outcome"] == keep else 0


def set_count(data, setting, outcome, count):
    for r in data:
        if (r["setting"], r["outcome"]) == (setting, outcome):
            r["counts"] = count


def rejected(tmp_path, capsys, counts, *command, report):
    """Exit code 2, no ``report`` written; returns stderr."""
    code, out = run(tmp_path, *command, "--counts", str(counts))
    assert code == 2
    assert not (out / report).exists()
    return capsys.readouterr().err


def assert_counts_and_fixture_refused(tmp_path, capsys, *command):
    """Usage error (exit 2) naming both flags; nothing runs, so the missing file is never read."""
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *command, "--counts", str(tmp_path / "nonexistent.json"), "--fixture")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--counts" in err and "--fixture" in err
    assert not (tmp_path / "out").exists()


class TestGenState:
    def test_default_run(self, tmp_path):
        code, out = run(tmp_path, "gen-state")
        assert code == 0
        report = read_json(out / "gen_state_report.json")
        assert report["rank_vector"] == [4, 4, 2]
        assert report["circuit_mismatch"] < 1e-12
        assert report["fusion_success_probability"] == pytest.approx(0.5, abs=1e-12)
        assert report["doubling_success_probability"] == pytest.approx(0.5, abs=1e-12)
        state = read_json(out / "state.json")
        assert state["dims"] == [4, 4, 2]
        assert len(state["amplitudes_real"]) == 32

    def test_unit_visibility_reports_unit_fidelity(self, tmp_path):
        code, out = run(tmp_path, "--visibility", "1.0", "gen-state")
        assert code == 0
        report = read_json(out / "gen_state_report.json")
        assert report["fidelity_vs_ideal"] == pytest.approx(1.0, abs=1e-12)

    def test_corrupt_output_path(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = main(["--out", str(blocker / "sub"), "gen-state"])
        assert code == 2

    def test_reports_do_not_record_out(self, tmp_path):
        runs = [run(tmp_path / side, "gen-state") for side in ("first", "second")]
        assert [code for code, _ in runs] == [0, 0]
        (_, first), (_, second) = runs
        for report in ("state.json", "gen_state_report.json"):
            assert (first / report).read_bytes() == (second / report).read_bytes()
            assert "out_dir" not in read_json(first / report)["config"]


class TestSimulateAndEstimate:
    def test_counts_schema(self, tmp_path):
        code, out = run(tmp_path, "simulate-counts")
        assert code == 0
        data = read_json(out / "counts.json")
        assert isinstance(data, list)
        assert set(data[0]) == {"setting", "outcome", "counts"}
        assert all(isinstance(r["counts"], int) and r["counts"] >= 0 for r in data)
        settings = {r["setting"] for r in data}
        assert len(settings) == 21
        meta = read_json(out / "counts.meta.json")
        assert meta["config"]["seed"] == 1234

    def test_estimate_csv(self, tmp_path):
        code, out = run(tmp_path, "simulate-counts")
        assert code == 0
        code = main(["--out", str(out), "--no-timestamp", "--trials", "200",
                     "estimate", "--counts", str(out / "counts.json")])
        assert code == 0
        rows = read_csv(out / "estimates.csv")
        assert len(rows) == 38
        assert set(rows[0]) == {"label", "value", "std_dev"}
        offdiag = [r for r in rows if "|" in r["label"]]
        assert len(offdiag) == 6
        assert all(float(r["std_dev"]) > 0 for r in offdiag)


class TestWitness:
    def test_fixture_certifies(self, tmp_path):
        code, out = run(tmp_path, "witness", "--fixture")
        assert code == 0
        report = read_json(out / "witness_report.json")
        assert abs(report["fidelity"]["value"] - 0.854) <= 0.001
        assert report["sigma_margin"] >= 14.0
        assert report["certified"] is True
        assert report["bound"] == 0.75
        assert len(report["elements"]["diagonal"]) == 32
        assert len(report["elements"]["offdiagonal"]) == 6

    def test_noiseless_simulation_certifies(self, tmp_path):
        code, out = run(tmp_path, "--visibility", "1.0", "--trials", "300", "witness")
        assert code == 0
        report = read_json(out / "witness_report.json")
        f, s = report["fidelity"]["value"], report["fidelity"]["std_dev"]
        assert abs(f - 1.0) <= 3 * max(s, 1e-6)

    def test_maximally_mixed_not_certified(self, tmp_path):
        code, out = run(tmp_path, "--visibility", "0.0", "--trials", "200", "witness")
        assert code == 1
        report = read_json(out / "witness_report.json")
        assert abs(report["fidelity"]["value"] - 1 / 32) < 0.05
        assert report["certified"] is False

    def test_incomplete_counts_rejected(self, tmp_path, capsys):
        counts = edited_counts(tmp_path, lambda d: prune(d, ("X03-X03-X01", "Y03-Y03-X01")))
        err = rejected(tmp_path, capsys, counts, "witness", report="witness_report.json")
        assert "X03-X03-X01" in err and "Y03-Y03-X01" in err

    def test_shuffled_counts_byte_identical(self, tmp_path):
        code, out = run(tmp_path, "simulate-counts")
        assert code == 0
        data = read_json(out / "counts.json")
        shuffled = tmp_path / "shuffled.json"
        shuffled.write_text(json.dumps(data[::-1]))
        reports = []
        for counts in (out / "counts.json", shuffled):
            code, _ = run(tmp_path, "--trials", "200", "witness", "--counts", str(counts))
            assert code == 0
            reports.append((out / "witness_report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_single_trial_not_certified(self, tmp_path, capsys):
        code, out = run(tmp_path, "--trials", "1", "witness")
        assert code == 2
        assert "1 Monte Carlo trial" in capsys.readouterr().err
        assert not (out / "witness_report.json").exists()

    @pytest.mark.filterwarnings("error")
    def test_all_zero_counts_rejected(self, tmp_path, capsys):
        counts = edited_counts(tmp_path, zero_counts)
        err = rejected(tmp_path, capsys, counts, "witness", report="witness_report.json")
        assert ("setting 'Z' totals 0 counts in the central estimate (central total 0), "
                "so its diagonal elements are undefined") in err

    @MALFORMED_COUNTS
    def test_malformed_counts_rejected(self, tmp_path, capsys, edit, cause):
        counts = edited_counts(tmp_path, edit)
        assert cause in rejected(tmp_path, capsys, counts, "witness", report="witness_report.json")

    def test_consistency_warnings_flag_excess_coherence(self):
        from layered442.cli import _consistency_warnings
        from layered442.circuit import ALL_KETS
        from layered442.witness import OFFDIAG_PAIRS, ElementEstimate

        diags = [ElementEstimate(k, k, 1 / 32) for k in ALL_KETS]
        offs = [ElementEstimate(a, b, 0.2 if (a, b) == ("000", "111") else 0.0)
                for a, b in OFFDIAG_PAIRS]
        warnings = _consistency_warnings(diags, offs)
        assert len(warnings) == 1 and "000" in warnings[0]

    @pytest.mark.parametrize("coherence, warned", [(0.05, False), (0.055, True)])
    def test_consistency_bound_carries_diagonal_error(self, coherence, warned):
        from layered442.cli import _consistency_warnings
        from layered442.circuit import ALL_KETS
        from layered442.witness import OFFDIAG_PAIRS, ElementEstimate

        # bound 1/32 with sigma_B = 0.01 / sqrt(2): the 3 sigma limit is 0.0527
        diags = [ElementEstimate(k, k, 1 / 32, 0.01) for k in ALL_KETS]
        offs = [ElementEstimate(a, b, coherence if (a, b) == ("000", "111") else 0.0, 0.001)
                for a, b in OFFDIAG_PAIRS]
        assert bool(_consistency_warnings(diags, offs)) is warned

    @pytest.mark.parametrize("visibility, seed", [(1.0, 0), (1.0, 12), (0.8493, 10)])
    def test_honest_runs_raise_no_consistency_warning(self, visibility, seed):
        # The coherence-only 3 sigma rule flagged each of these honest runs.
        from layered442.cli import _consistency_warnings

        records = simulate_counts(noisy_psi442(visibility), standard_plan(), seed)
        result = monte_carlo_errors(records, trials=200, seed=seed)
        assert _consistency_warnings(result.diagonals, result.offdiagonals) == []

    def test_deterministic_outputs(self, tmp_path):
        _, out1 = run(tmp_path / "a", "--trials", "100", "witness")
        _, out2 = run(tmp_path / "b", "--trials", "100", "witness")
        assert (out1 / "witness_report.json").read_bytes() == \
            (out2 / "witness_report.json").read_bytes()

    def test_counts_and_fixture_exclusive(self, tmp_path, capsys):
        assert_counts_and_fixture_refused(tmp_path, capsys, "witness")

    def test_byte_identical_reruns(self, tmp_path):
        code, out = run(tmp_path, "--trials", "100", "witness")
        assert code == 0
        first = (out / "witness_report.json").read_bytes()
        code, _ = run(tmp_path, "--trials", "100", "witness")
        assert code == 0
        assert (out / "witness_report.json").read_bytes() == first


class TestSubspace:
    def test_fixture_value(self, tmp_path):
        code, out = run(tmp_path, "subspace", "000", "111", "--fixture")
        assert code == 0
        report = read_json(out / "subspace_report.json")
        assert report["fidelity"]["value"] == 0.910
        assert report["witnessed"] is True
        assert report["gme_bound"] == 0.5

    def test_simulated_ideal(self, tmp_path):
        code, out = run(tmp_path, "--visibility", "1.0", "--trials", "300",
                        "subspace", "000", "111")
        assert code == 0
        report = read_json(out / "subspace_report.json")
        assert report["fidelity"]["value"] == pytest.approx(1.0, abs=0.05)

    def test_invalid_kets(self, tmp_path):
        code, _ = run(tmp_path, "subspace", "000", "012")
        assert code == 2
        code, _ = run(tmp_path, "subspace", "000", "000")
        assert code == 2

    # The witness rejection cases, on a pair that reads only 3 of the 21 settings.

    def test_incomplete_counts_rejected(self, tmp_path, capsys):
        counts = edited_counts(tmp_path, lambda d: prune(d, ("X03-X03-X01", "Y03-Y03-X01")))
        err = rejected(tmp_path, capsys, counts, *SUBSPACE_000_220, report="subspace_report.json")
        assert "X03-X03-X01" in err and "Y03-Y03-X01" in err

    @pytest.mark.filterwarnings("error")
    def test_all_zero_counts_rejected(self, tmp_path, capsys):
        counts = edited_counts(tmp_path, zero_counts)
        err = rejected(tmp_path, capsys, counts, *SUBSPACE_000_220, report="subspace_report.json")
        assert ("setting 'Z' totals 0 counts in the central estimate (central total 0), "
                "so its diagonal elements are undefined") in err

    @MALFORMED_COUNTS
    def test_malformed_counts_rejected(self, tmp_path, capsys, edit, cause):
        counts = edited_counts(tmp_path, edit)
        err = rejected(tmp_path, capsys, counts, *SUBSPACE_000_220, report="subspace_report.json")
        assert cause in err

    def test_nan_spread_rejected(self, tmp_path, capsys):
        # One of the two trials has no 111 or 220 count, so the spread is nan.
        code, out = run(tmp_path, "--time", "2", "--trials", "2", "subspace", "111", "220")
        assert code == 2
        assert not (out / "subspace_report.json").exists()
        assert ("subspace (111, 220) fidelity spread is nan after 2 Monte Carlo trial(s)"
                in capsys.readouterr().err)

    def test_single_trial_rejected(self, tmp_path, capsys):
        code, out = run(tmp_path, "--trials", "1", "subspace", "000", "111")
        assert code == 2
        assert not (out / "subspace_report.json").exists()
        assert ("subspace (000, 111) fidelity spread is 0.0 after 1 Monte Carlo trial(s)"
                in capsys.readouterr().err)

    def test_zero_population_rejected(self, tmp_path, capsys):
        def empty_pair(data):
            set_count(data, "Z", "000", 0)
            set_count(data, "Z", "111", 0)

        counts = edited_counts(tmp_path, empty_pair)
        err = rejected(tmp_path, capsys, counts, "subspace", "000", "111",
                       report="subspace_report.json")
        assert ("subspace (000, 111) has zero population: "
                "setting 'Z' has no counts of 000 or 111") in err

    def test_zero_population_refused_where_found(self, tmp_path):
        # The file above, read by the library: subspace_monte_carlo refuses the empty pair.
        def empty_pair(data):
            set_count(data, "Z", "000", 0)
            set_count(data, "Z", "111", 0)

        records = records_from_json(edited_counts(tmp_path, empty_pair))
        with pytest.raises(ValueError) as raised:
            subspace_monte_carlo(records, ("000", "111"), trials=1000, seed=1234)
        assert str(raised.value) == ("subspace (000, 111) has zero population: "
                                     "setting 'Z' has no counts of 000 or 111")

    def test_estimate_below_zero_not_witnessed(self, tmp_path):
        # (|000> - |111>)/sqrt(2) has no overlap with the + target; at seed 1
        # the raw estimate lands just below 0.
        amps = np.zeros(32)
        amps[flat_index("000")], amps[flat_index("111")] = 1 / np.sqrt(2), -1 / np.sqrt(2)
        rho = apply_white_noise(PureState((4, 4, 2), amps), 0.95)
        counts = tmp_path / "minus.json"
        records_to_json(simulate_counts(rho, standard_plan(), seed=1), counts)
        code, out = run(tmp_path, "--seed", "1", "subspace", "000", "111", "--counts", str(counts))
        assert code == 1
        report = read_json(out / "subspace_report.json")
        assert report["fidelity"]["value"] < 0
        assert report["witness_expectation"] == 0.5
        assert report["witnessed"] is False

    def test_counts_and_fixture_exclusive(self, tmp_path, capsys):
        assert_counts_and_fixture_refused(tmp_path, capsys, "subspace", "000", "111")


# Every command that resamples counts; subspace 000 220 does not read X01-X01-X01.
RESAMPLING_COMMANDS = pytest.mark.parametrize("command, report", [
    (("witness",), "witness_report.json"),
    (SUBSPACE_000_220, "subspace_report.json"),
    (("estimate",), "estimates.csv"),
], ids=["witness", "subspace", "estimate"])


@RESAMPLING_COMMANDS
@pytest.mark.filterwarnings("error")
def test_sparse_counts_rejected(tmp_path, capsys, command, report):
    # One Z count: the central total is 1, but a resampled trial draws 0.
    counts = edited_counts(tmp_path, lambda d: zero_counts(d, "Z", keep="000"))
    err = rejected(tmp_path, capsys, counts, *command, report=report)
    assert ("setting 'Z' totals 0 counts in Monte Carlo trial 2 of 1000 (central total 1), "
            "so its diagonal elements are undefined") in err


@RESAMPLING_COMMANDS
@pytest.mark.parametrize("count", [10**19, 1e19], ids=["int", "float"])
def test_unresamplable_count_rejected(tmp_path, capsys, command, report, count):
    counts = edited_counts(tmp_path, lambda d: set_count(d, "X01-X01-X01", "+++", count))
    err = rejected(tmp_path, capsys, counts, *command, report=report)
    assert (f"counts for setting 'X01-X01-X01' outcome '+++' must be at most "
            f"9.223372006e+18 to be resampled, got {count!r}") in err


@RESAMPLING_COMMANDS
def test_unresamplable_class_sum_rejected(tmp_path, capsys, command, report):
    # Each count alone can be resampled; their eigenvalue +1 class sum cannot.
    def edit(data):
        for outcome in ("+++", "+--"):
            set_count(data, "X01-X01-X01", outcome, 5.6e18)
    counts = edited_counts(tmp_path, edit)
    err = rejected(tmp_path, capsys, counts, *command, report=report)
    assert ("eigenvalue +1 counts of setting 'X01-X01-X01' sum to 1.12e+19; "
            "at most 9.223372006e+18 can be resampled") in err


# Every command that reads counts.
COUNT_COMMANDS = pytest.mark.parametrize("command, report", [
    (("witness",), "witness_report.json"),
    (SUBSPACE_000_220, "subspace_report.json"),
    (("estimate",), "estimates.csv"),
    (("qkd",), "qkd_report.csv"),
], ids=["witness", "subspace", "estimate", "qkd"])


@COUNT_COMMANDS
def test_absent_outcome_record_rejected(tmp_path, capsys, command, report):
    # Read as 0 counts, files with dropped records were certified.
    def drop(data):
        data[:] = [r for r in data if (r["setting"], r["outcome"]) != ("Z", "100")]
    counts = edited_counts(tmp_path, drop)
    err = rejected(tmp_path, capsys, counts, *command, report=report)
    assert "setting 'Z' has no record for outcomes ['100']" in err


@COUNT_COMMANDS
def test_repeated_counts_key_rejected(tmp_path, capsys, command, report):
    # The last of two values would win silently: here the Z/000 record's 0.
    code, out = run(tmp_path, "simulate-counts")
    assert code == 0
    counts = tmp_path / "repeated.json"
    counts.write_text(re.sub(r'"counts": (\d+)', r'"counts": \1, "counts": 0',
                             (out / "counts.json").read_text(), count=1))
    err = rejected(tmp_path, capsys, counts, *command, report=report)
    assert err == f"error: count file {counts} repeats the key 'counts' in one object\n"


# Every command that reads counts, with the 000/111 pair, which reads X01-X01-X01.
COUNT_COMMANDS_000_111 = pytest.mark.parametrize("command, report", [
    (("witness",), "witness_report.json"),
    (("subspace", "000", "111"), "subspace_report.json"),
    (("estimate",), "estimates.csv"),
    (("qkd",), "qkd_report.csv"),
], ids=["witness", "subspace", "estimate", "qkd"])


@COUNT_COMMANDS_000_111
def test_fractional_counts_rejected(tmp_path, capsys, command, report):
    # No experiment records half a coincidence: with 0.5 added to every count, the
    # seed-1234 file certified at F = 0.8545, 18.5 sigma.
    def add_half(data):
        for r in data:
            r["counts"] += 0.5
    counts = edited_counts(tmp_path, add_half)
    err = rejected(tmp_path, capsys, counts, *command, report=report)
    first = read_json(counts)[0]
    assert (first["setting"], first["outcome"]) == ("Z", "000")
    assert err == (f"error: counts for setting 'Z' outcome '000' must be a whole number, "
                   f"got {first['counts']!r}\n")


@COUNT_COMMANDS_000_111
def test_extra_setting_rejected(tmp_path, capsys, command, report):
    # X10-X10-X10 is X01-X01-X01, which the 000/111 pair reads, with its levels descending:
    # a copy under that label was read and never used.
    def extra(data):
        data += [dict(r, setting="X10-X10-X10") for r in data if r["setting"] == "X01-X01-X01"]
    counts = edited_counts(tmp_path, extra)
    err = rejected(tmp_path, capsys, counts, *command, report=report)
    assert err == ("error: setting 'X10-X10-X10' is not one of the 21 settings "
                   "of the standard plan\n")


def test_key_error_is_not_a_usage_error(tmp_path, monkeypatch):
    # Records are checked key by key, so a KeyError is a fault of the program: it propagates.
    def fault(cfg, args):
        raise KeyError("counts")

    monkeypatch.setattr(cli, "cmd_witness", fault)
    with pytest.raises(KeyError, match="counts"):
        run(tmp_path, "witness")


SPREAD_RULE = "it must be a positive finite number"


@pytest.mark.parametrize("args, report, line", [
    (("--trials", "1", "witness"), "witness_report.json",
     f"fidelity spread is 0.0 after 1 Monte Carlo trial(s); {SPREAD_RULE}"),
    (("--trials", "1", "subspace", "000", "111"), "subspace_report.json",
     f"subspace (000, 111) fidelity spread is 0.0 after 1 Monte Carlo trial(s); {SPREAD_RULE}"),
    (("subspace", "000", "000"), "subspace_report.json",
     "['000', '000'] is not a pair of distinct signal kets ('000', '111', '220', '331')"),
], ids=["witness-spread", "subspace-spread", "subspace-pair"])
def test_refusal_is_one_stderr_line(tmp_path, capsys, args, report, line):
    # witness and subspace word the spread refusal alike; every refusal is printed by main.
    code, out = run(tmp_path, *args)
    assert code == 2
    assert not (out / report).exists()
    assert capsys.readouterr().err == f"error: {line}\n"


def test_refused_allocation_exits_2(tmp_path, capsys, monkeypatch):
    # A refusal stands in for a real allocation, which an overcommitting host might attempt.
    message = ("Unable to allocate 2.33 TiB for an array with shape (10000000000, 32) "
               "and data type int64")

    def refuse(*args):
        raise MemoryError(message)

    monkeypatch.setattr(tomography, "monte_carlo_errors", refuse)
    code, out = run(tmp_path, "--trials", "10000000000", "witness")
    assert code == 2
    assert not (out / "witness_report.json").exists()
    assert capsys.readouterr().err == f"error: {message}\n"


class TestQkd:
    def test_fixture_table(self, tmp_path):
        code, out = run(tmp_path, "qkd", "--fixture")
        assert code == 0
        rows = read_csv(out / "qkd_report.csv")
        assert [r["subspace"] for r in rows] == ["000/111", "220/331", "00/22", "11/33"]
        assert float(rows[0]["key_per_round_mean"]) == pytest.approx(0.4286, abs=5e-4)
        # two-party layers leave the pairwise columns blank, like the table
        assert rows[2]["qber_z_ab"] == ""
        for r in rows:
            assert float(r["abs_discrepancy"]) < 0.06
            # the published table gives no sift counts
            assert r["n_z_sifted"] == r["n_x_sifted"] == ""

    def test_noiseless_simulation_unit_rates(self, tmp_path):
        code, out = run(tmp_path, "--visibility", "1.0", "qkd", "--rounds", "20000")
        assert code == 0
        rows = read_csv(out / "qkd_report.csv")
        assert all(float(r["key_per_round_mean"]) == 1.0 for r in rows)

    def test_counts_mode(self, tmp_path):
        code, out = run(tmp_path, "simulate-counts")
        assert code == 0
        code = main(["--out", str(out), "--no-timestamp", "qkd",
                     "--counts", str(out / "counts.json")])
        assert code == 0
        rows = read_csv(out / "qkd_report.csv")
        assert len(rows) == 4
        assert all(r["key_per_round_published"] == "" for r in rows)
        # the sift counts trail the published columns
        assert list(rows[0])[-4:] == ["key_per_round_published", "abs_discrepancy",
                                      "n_z_sifted", "n_x_sifted"]
        tables = count_tables(records_from_json(out / "counts.json"))
        for r, layer in zip(rows, LAYERS):
            report = qbers_from_counts(tables, layer)
            assert (int(r["n_z_sifted"]), int(r["n_x_sifted"])) == (report.n_z_sifted,
                                                                    report.n_x_sifted)

    def test_negative_rounds_rejected(self, tmp_path, capsys):
        code, out = run(tmp_path, "qkd", "--rounds", "-1")
        assert code == 2
        assert "--rounds must be >= 1" in capsys.readouterr().err
        assert not (out / "qkd_report.csv").exists()

    def test_counts_and_fixture_exclusive(self, tmp_path, capsys):
        assert_counts_and_fixture_refused(tmp_path, capsys, "qkd")

    @pytest.mark.parametrize("source", [["--counts", "nonexistent.json", "--rounds", "7"],
                                        ["--fixture", "--rounds", "0"]], ids=["counts", "fixture"])
    def test_rounds_excludes_other_sources(self, tmp_path, capsys, source):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "qkd", *source)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--rounds" in err and source[0] in err
        assert not (tmp_path / "out").exists()

    def test_rounds_default_to_100000(self, tmp_path):
        code, out = run(tmp_path, "qkd")
        assert code == 0
        explicit = tmp_path / "explicit"
        assert main(["--out", str(explicit), "--no-timestamp", "qkd", "--rounds", "100000"]) == 0
        assert (out / "qkd_report.csv").read_bytes() == (explicit / "qkd_report.csv").read_bytes()


class TestFmax:
    def test_bound_report(self, tmp_path):
        code, out = run(tmp_path, "fmax")
        assert code == 0
        report = read_json(out / "fmax_report.json")
        assert report["bound"] == pytest.approx(0.75, abs=1e-12)
        assert report["class_members"] == [[3, 4, 2], [4, 3, 2]]

    def test_search_within_bound(self, tmp_path):
        code, out = run(tmp_path, "fmax", "--restarts", "100")
        assert code == 0
        report = read_json(out / "fmax_report.json")
        assert report["search"]["within_bound"] is True
        assert report["search"]["max_overlap"] <= 0.75 + 1e-6

    def test_two_constrained_parties_stay_within_bound(self, tmp_path):
        code, out = run(tmp_path, "fmax", "--ranks", "2", "3", "2", "--restarts", "50")
        assert code == 0
        report = read_json(out / "fmax_report.json")
        assert report["bound"] == pytest.approx(0.5, abs=1e-12)
        assert report["search"]["max_overlap"] <= 0.5 + 1e-9

    def test_search_diagnostics(self, tmp_path):
        # Of the members of (2, 2, 1), only (2, 2, 1) itself reaches 1/2;
        # (1, 2, 2) and (2, 1, 2) top out at 1/4.  Restart r runs member r % 3.
        code, out = run(tmp_path, "fmax", "--ranks", "2", "2", "1", "--restarts", "50")
        assert code == 0
        report = read_json(out / "fmax_report.json")
        search = report["search"]
        assert report["class_members"] == [[1, 2, 2], [2, 1, 2], [2, 2, 1]]
        assert search["restarts_at_bound"] == 16
        assert search["bound_gap"] == report["bound"] - search["max_overlap"]
        assert abs(search["bound_gap"]) <= 1e-9
        assert search["min_overlap"] == pytest.approx(0.25, abs=1e-9)

    def test_negative_restarts_rejected(self, tmp_path, capsys):
        code, out = run(tmp_path, "fmax", "--restarts", "-5")
        assert code == 2
        assert "--restarts must be >= 0" in capsys.readouterr().err
        assert not (out / "fmax_report.json").exists()


def test_non_finite_json_value_leaves_no_file(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        _write_json(RunConfig(), path, {"value": float("nan")})
    assert not path.exists()


@pytest.mark.parametrize("args", [
    ("--config", "{path}", "witness"),
    ("witness", "--counts", "{path}"),
    ("qkd", "--counts", "{path}"),
], ids=["config", "witness-counts", "qkd-counts"])
def test_deeply_nested_json_rejected(tmp_path, capsys, args):
    # Python's JSON parser raises RecursionError, not a ValueError, on deep nesting.
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out = run(tmp_path, *(a.format(path=path) for a in args))
    assert code == 2
    assert f"{path} nests JSON too deeply to parse" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", [b'{"seed": 3,', b'{"seed": 3,}', b"\xff{}"],
                         ids=["cut-off", "trailing-comma", "byte-0xff"])
@pytest.mark.parametrize("args, role", [
    (("--config", "{path}", "witness"), "config file"),
    (("witness", "--counts", "{path}"), "count file"),
    (("subspace", "000", "111", "--counts", "{path}"), "count file"),
    (("qkd", "--counts", "{path}"), "count file"),
], ids=["config", "witness-counts", "subspace-counts", "qkd-counts"])
def test_unparsable_json_names_the_file(tmp_path, capsys, text, args, role):
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    code, out = run(tmp_path, *(a.format(path=path) for a in args))
    assert code == 2
    assert f"error: {role} {path} is not valid JSON: " in capsys.readouterr().err
    assert not out.exists()


def test_simulated_mean_above_poisson_limit_rejected(tmp_path, capsys):
    code, out = run(tmp_path, "--rate", "1e15", "--time", "1e5", "simulate-counts")
    assert code == 2
    assert not (out / "counts.json").exists()
    err = capsys.readouterr().err
    assert "setting 'Z' has a mean count of 2.17034375e+19; " in err
    assert "numpy's Poisson sampler draws at most 9.223372006e+18" in err


# Each global flag, its RunConfig field, the config file's value and the flag's value.
FLAG_KEYS = [
    ("--seed", "seed", 7, "11"),
    ("--visibility", "visibility", 0.3, "0.9"),
    ("--trials", "monte_carlo_trials", 50, "200"),
    ("--rate", "rate", 0.5, "0.25"),
    ("--time", "integration_time", 900.0, "60"),
    ("--out", "out_dir", "from-file", "from-flag"),
    ("--no-timestamp", "no_timestamp", False, None),
]


class TestConfig:
    @pytest.mark.parametrize("flag, key, file_value, flag_value", FLAG_KEYS,
                             ids=[flag for flag, *_ in FLAG_KEYS])
    def test_each_flag_overrides_its_config_key(self, tmp_path, flag, key, file_value,
                                                flag_value):
        cfg = tmp_path / "cfg.json"
        file_values = {k: v for _, k, v, _ in FLAG_KEYS}
        cfg.write_text(json.dumps(file_values))
        given = [flag] if flag_value is None else [flag, flag_value]
        loaded = _load_config(_build_parser().parse_args(["--config", str(cfg), *given, "fmax"]))
        expected = RunConfig(**file_values)
        setattr(expected, key, True if flag_value is None else type(file_value)(flag_value))
        assert loaded == expected

    def test_absent_no_timestamp_keeps_config_value(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_timestamp": True}))
        assert _load_config(_build_parser().parse_args(["--config", str(cfg), "fmax"])).no_timestamp

    def test_help_names_flag_values(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out
        for text in ("--time TIME", "--trials TRIALS", "--out OUT", "[--no-timestamp]"):
            assert text in usage

    def test_defaults_are_the_reference_operating_point(self):
        cfg, plan = RunConfig(), standard_plan()
        assert (cfg.visibility, cfg.rate, cfg.integration_time) == (
            REFERENCE_EXPERIMENT["matched_visibility"],
            REFERENCE_EXPERIMENT["counting_rate_per_s"],
            REFERENCE_EXPERIMENT["integration_time_s"])
        assert (plan.rate, plan.integration_time) == (cfg.rate, cfg.integration_time)

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"visibility": 0.3, "seed": 7}))
        out = tmp_path / "out"
        code = main(["--config", str(cfg), "--visibility", "0.9",
                     "--out", str(out), "--no-timestamp", "gen-state"])
        assert code == 0
        report = read_json(out / "gen_state_report.json")
        assert report["config"]["visibility"] == 0.9
        assert report["config"]["seed"] == 7

    def test_integer_config_values_write_the_flag_bytes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"integration_time": 900, "visibility": 1, "rate": 1}))
        _, from_file = run(tmp_path / "file", "--config", str(cfg), "gen-state")
        _, from_flags = run(tmp_path / "flags", "--time", "900", "--visibility", "1",
                            "--rate", "1", "gen-state")
        for name in ("state.json", "gen_state_report.json"):
            assert (from_file / name).read_bytes() == (from_flags / name).read_bytes()
        config = read_json(from_file / "gen_state_report.json")["config"]
        assert [type(config[k]) for k in ("integration_time", "visibility", "rate")] == [float] * 3

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nope": 1}))
        code = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "gen-state"])
        assert code == 2

    @pytest.mark.parametrize("config, flags, key", [
        ({"seed": "abc"}, [], "seed must be an integer, got 'abc'"),
        ({"seed": 1.5}, [], "seed must be an integer, got 1.5"),
        ({"seed": True}, [], "seed must be an integer, got True"),
        ({"monte_carlo_trials": 2.5}, [], "monte_carlo_trials must be an integer"),
        ({"visibility": "0.8"}, [], "visibility must be a finite number, got '0.8'"),
        ({"rate": 10**400}, [], "rate must be a finite number, got 1000"),
        ({"out_dir": 5}, [], "out_dir must be a string"),
        ({"no_timestamp": "yes"}, [], "no_timestamp must be true or false"),
        ([1, 2], [], "config file must be a JSON object, got list"),
        (None, ["--rate", "nan"], "rate must be a finite number, got nan"),
        (None, ["--rate", "inf"], "rate must be a finite number, got inf"),
        (None, ["--time", "nan"], "integration_time must be a finite number, got nan"),
        (None, ["--time", "inf"], "integration_time must be a finite number, got inf"),
    ], ids=["seed-string", "seed-float", "seed-bool", "trials-float", "visibility-string",
            "rate-huge-int", "out-dir-int", "no-timestamp-string", "array", "rate-nan", "rate-inf", "time-nan",
            "time-inf"])
    def test_malformed_config_rejected(self, tmp_path, monkeypatch, capsys, config, flags, key):
        monkeypatch.chdir(tmp_path)
        if config is not None:
            (tmp_path / "c.json").write_text(json.dumps(config))
            flags = ["--config", "c.json", *flags]
        assert main([*flags, "witness"]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_config_key_rejected(self, tmp_path, monkeypatch, capsys):
        # Read by the last value, this file would run with seed 7.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.json").write_text('{"seed": 4294967296, "seed": 7}')
        assert main(["--config", "c.json", "gen-state"]) == 2
        err = capsys.readouterr().err
        assert err == "error: config file c.json repeats the key 'seed' in one object\n"
        assert not (tmp_path / "out").exists()

    def test_invalid_visibility(self, tmp_path):
        code = main(["--visibility", "1.5", "--out", str(tmp_path / "o"), "gen-state"])
        assert code == 2

    @pytest.mark.parametrize("from_file", [False, True], ids=["flag", "config"])
    def test_seed_of_two_words_rejected(self, tmp_path, monkeypatch, capsys, from_file):
        # default_rng([2**32 + 5, 1]) draws what default_rng([5, 1, 1]) draws.
        monkeypatch.chdir(tmp_path)
        flags = ["--seed", "4294967296"]
        if from_file:
            (tmp_path / "c.json").write_text(json.dumps({"seed": 2**32}))
            flags = ["--config", "c.json"]
        assert main([*flags, "gen-state"]) == 2
        assert "seed must lie in [0, 4294967295], got 4294967296" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_largest_seed_accepted(self, tmp_path):
        code, out = run(tmp_path, "--seed", "4294967295", "gen-state")
        assert code == 0
        assert read_json(out / "gen_state_report.json")["config"]["seed"] == 2**32 - 1

    def test_seed_recorded_in_reports(self, tmp_path):
        code, out = run(tmp_path, "--seed", "77", "gen-state")
        assert code == 0
        assert read_json(out / "gen_state_report.json")["config"]["seed"] == 77
        with open(out / "gen_state_report.json") as fh:
            assert "generated_at" not in json.load(fh)


class TestParserReuse:
    """One parser serves every ``main`` call of a process; no call leaves a value in it."""

    # Each flag given, then left out, in one process.
    SEQUENCES = [
        ["--seed", "9", "--visibility", "0.5", "--trials", "20", "--rate", "2", "--time", "3",
         "--no-timestamp", "fmax", "--ranks", "3", "3", "2", "--restarts", "2"],
        ["subspace", "000", "111", "--fixture"],
        ["witness", "--fixture"],
        ["qkd", "--rounds", "5"],
        ["qkd", "--fixture"],
        ["estimate", "--counts", "missing.json"],
    ]
    PROBES = [["fmax"], ["witness"], ["subspace", "000", "220"], ["qkd"], ["estimate"],
              ["gen-state"]]

    def test_one_parser_per_process(self):
        assert _build_parser() is _build_parser()

    def test_ranks_do_not_carry_over(self, tmp_path):
        _, out = run(tmp_path, "fmax", "--ranks", "3", "3", "2")
        assert read_json(out / "fmax_report.json")["class_ranks"] == [3, 3, 2]
        _, out = run(tmp_path, "fmax")
        assert read_json(out / "fmax_report.json")["class_ranks"] == [4, 3, 2]

    def test_no_timestamp_does_not_carry_over(self, tmp_path):
        out = tmp_path / "out"
        assert main(["--out", str(out), "--no-timestamp", "fmax"]) == 0
        assert "generated_at" not in read_json(out / "fmax_report.json")
        assert main(["--out", str(out), "fmax"]) == 0
        assert "generated_at" in read_json(out / "fmax_report.json")

    def test_fixture_does_not_carry_over(self, tmp_path):
        code, out = run(tmp_path, "--trials", "50", "simulate-counts")
        assert code == 0
        counts = out / "counts.json"
        assert run(tmp_path, "witness", "--fixture")[0] == 0
        assert read_json(out / "witness_report.json")["monte_carlo_trials"] == 0
        run(tmp_path, "--trials", "50", "witness", "--counts", str(counts))
        report = read_json(out / "witness_report.json")
        assert report["monte_carlo_trials"] == 50
        want = monte_carlo_errors(records_from_json(counts), 50, 1234)
        assert report["fidelity"]["value"] == want.fidelity

    def test_parses_equal_a_fresh_parser_after_every_command(self, tmp_path, capsys):
        for argv in self.SEQUENCES:
            main(["--out", str(tmp_path / "out"), *argv])
        fresh = _build_parser.__wrapped__()
        for argv in self.PROBES:
            assert vars(_build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))
