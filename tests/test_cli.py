import csv
import json

import pytest

from layered442.cli import main


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
    (lambda d: d.append(dict(d[0])), "duplicate record for setting 'Z' outcome '000'"),
], ids=["string", "null", "bool", "nan", "infinity", "array-record", "missing-key",
        "duplicate"])

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
        assert "diagonal elements sum to 0.0000" in err

    @MALFORMED_COUNTS
    def test_malformed_counts_rejected(self, tmp_path, capsys, edit, cause):
        counts = edited_counts(tmp_path, edit)
        assert cause in rejected(tmp_path, capsys, counts, "witness", report="witness_report.json")

    def test_consistency_warnings_flag_excess_coherence(self):
        from layered442.cli import _consistency_warnings
        from layered442.witness import ALL_KETS, OFFDIAG_PAIRS, ElementEstimate

        diags = [ElementEstimate(k, k, 1 / 32) for k in ALL_KETS]
        offs = [ElementEstimate(a, b, 0.2 if (a, b) == ("000", "111") else 0.0)
                for a, b in OFFDIAG_PAIRS]
        warnings = _consistency_warnings(diags, offs)
        assert len(warnings) == 1 and "000" in warnings[0]

    def test_deterministic_outputs(self, tmp_path):
        _, out1 = run(tmp_path / "a", "--trials", "100", "witness")
        _, out2 = run(tmp_path / "b", "--trials", "100", "witness")
        a = read_json(out1 / "witness_report.json")
        b = read_json(out2 / "witness_report.json")
        a["config"].pop("out_dir")
        b["config"].pop("out_dir")
        assert a == b

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
        assert "diagonal elements sum to 0.0000" in err

    @MALFORMED_COUNTS
    def test_malformed_counts_rejected(self, tmp_path, capsys, edit, cause):
        counts = edited_counts(tmp_path, edit)
        err = rejected(tmp_path, capsys, counts, *SUBSPACE_000_220, report="subspace_report.json")
        assert cause in err

    def test_zero_population_rejected(self, tmp_path, capsys):
        def empty_pair(data):
            set_count(data, "Z", "000", 0)
            set_count(data, "Z", "111", 0)

        counts = edited_counts(tmp_path, empty_pair)
        err = rejected(tmp_path, capsys, counts, "subspace", "000", "111",
                       report="subspace_report.json")
        assert ("subspace (000, 111) has zero population: "
                "setting 'Z' has no counts of 000 or 111") in err


# Both commands that resample counts; subspace 000 220 does not read X01-X01-X01.
RESAMPLING_COMMANDS = pytest.mark.parametrize("command, report", [
    (("witness",), "witness_report.json"),
    (SUBSPACE_000_220, "subspace_report.json"),
], ids=["witness", "subspace"])


@RESAMPLING_COMMANDS
@pytest.mark.filterwarnings("error")
def test_sparse_counts_rejected(tmp_path, capsys, command, report):
    # One Z count: the central sum is 1, but a resampled trial draws 0.
    counts = edited_counts(tmp_path, lambda d: zero_counts(d, "Z", keep="000"))
    err = rejected(tmp_path, capsys, counts, *command, report=report)
    assert "diagonal elements sum to 0.0000" in err


@RESAMPLING_COMMANDS
@pytest.mark.parametrize("count", [10**19, 1e19], ids=["int", "float"])
def test_unresamplable_count_rejected(tmp_path, capsys, command, report, count):
    counts = edited_counts(tmp_path, lambda d: set_count(d, "X01-X01-X01", "+++", count))
    err = rejected(tmp_path, capsys, counts, *command, report=report)
    assert (f"counts for setting 'X01-X01-X01' outcome '+++' must be at most "
            f"9.223372006e+18 to be resampled, got {count!r}") in err


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

    def test_negative_rounds_rejected(self, tmp_path, capsys):
        code, out = run(tmp_path, "qkd", "--rounds", "-1")
        assert code == 2
        assert "--rounds must be >= 1" in capsys.readouterr().err
        assert not (out / "qkd_report.csv").exists()


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


class TestConfig:
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

    def test_invalid_visibility(self, tmp_path):
        code = main(["--visibility", "1.5", "--out", str(tmp_path / "o"), "gen-state"])
        assert code == 2

    def test_seed_recorded_in_reports(self, tmp_path):
        code, out = run(tmp_path, "--seed", "77", "gen-state")
        assert code == 0
        assert read_json(out / "gen_state_report.json")["config"]["seed"] == 77
        with open(out / "gen_state_report.json") as fh:
            assert "generated_at" not in json.load(fh)
