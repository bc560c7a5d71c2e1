"""Hostile count files as properties: every command that reads counts ends cleanly.

Each file is mutated from one honest simulated file and driven through
``cli.main`` for ``witness``, ``subspace 000 111``, ``estimate`` and
``qkd --counts``.  Whatever the file holds, a command exits 0, 1 or 2;
exit 2 prints an error and leaves no report; every report written parses
strictly; QBERs and key rates stay in [0, 1], with the pessimistic rate
at most the mean.  A count, or a correlator's eigenvalue-class sum, that
numpy's Poisson sampler cannot resample is refused by setting name, and so
is a setting whose records lack any of its outcomes, and so is a setting
that is not one of the 21 of the standard plan.  A record with a key
beyond ``setting``, ``outcome`` and ``counts`` is refused by that key, and
one whose count is not a whole number by its setting and outcome.
"""

import contextlib
import csv
import io
import json
import random
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layered442.circuit import noisy_psi442
from layered442.cli import main
from layered442.tomography import (
    ELEMENT_PLANS,
    setting_outcomes,
    simulate_counts,
    standard_plan,
)
from layered442.witness import OFFDIAG_PAIRS

HONEST = [vars(r) for r in simulate_counts(noisy_psi442(0.8493), standard_plan(), 1234)]
LABELS = standard_plan().settings

# numpy's Poisson sampler rejects a mean above int64 max - 10 sqrt(int64 max).
POISSON_LIMIT = float(np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max))

RECORD_KEYS = {"setting", "outcome", "counts"}

# Each command that reads counts and the report it writes.
COMMANDS = [
    (("witness",), "witness_report.json"),
    (("subspace", "000", "111"), "subspace_report.json"),
    (("estimate",), "estimates.csv"),
    (("qkd",), "qkd_report.csv"),
]
RESAMPLING = {"witness", "subspace", "estimate"}


def _on_outcome(kind, draw_value=st.just(None)):
    """(kind, setting, outcome, value) over every setting's own outcomes."""
    return st.sampled_from(LABELS).flatmap(
        lambda label: st.tuples(st.just(kind), st.just(label),
                                st.sampled_from(setting_outcomes(label)), draw_value))


MUTATIONS = st.one_of(
    st.tuples(st.just("zero"), st.sampled_from(LABELS)),
    _on_outcome("pile"),
    _on_outcome("one-hot"),
    st.tuples(st.just("scale"), st.floats(-4.0, 6.0).map(lambda e: 10.0**e)),
    st.tuples(st.just("fraction"), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("few"), st.integers(0, 2**32 - 1)),
    _on_outcome("spike", st.integers(10**12, 10**18)),
    _on_outcome("omit"),
    st.tuples(st.just("drop"), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("extra-key"), st.integers(0, 2**32 - 1),
              st.sampled_from(["note", "count", "Setting", ""])),
    st.tuples(st.just("relabel"), st.sampled_from(LABELS[1:]), st.integers(0, 2),
              st.sampled_from(["descending", "Z"])),
)


def mutated(mutations) -> list[dict]:
    """The honest records with ``mutations`` applied in order."""
    data = [dict(r) for r in HONEST]
    for kind, *args in mutations:
        if kind == "zero":
            for r in data:
                if r["setting"] == args[0]:
                    r["counts"] = 0
        elif kind == "pile":
            # All of a setting's counts on one outcome.
            label, outcome, _ = args
            own = [r for r in data if r["setting"] == label]
            total = sum(r["counts"] for r in own)
            for r in own:
                r["counts"] = total if r["outcome"] == outcome else 0
        elif kind == "one-hot":
            # One count on one outcome of a setting, none on the others.
            label, outcome, _ = args
            for r in data:
                if r["setting"] == label:
                    r["counts"] = int(r["outcome"] == outcome)
        elif kind == "few":
            # 0, 1 or 2 counts on every outcome.
            draw = random.Random(args[0])
            for r in data:
                r["counts"] = draw.randint(0, 2)
        elif kind == "scale":
            # Every count scaled and rounded to a whole number: low and high totals.
            for r in data:
                r["counts"] = round(r["counts"] * args[0])
        elif kind == "fraction":
            # Half a count added to one record.
            data[args[0] % len(data)]["counts"] += 0.5
        elif kind == "spike":
            label, outcome, count = args
            for r in data:
                if (r["setting"], r["outcome"]) == (label, outcome):
                    r["counts"] = count
        elif kind == "omit":
            # One record dropped.
            label, outcome, _ = args
            data = [r for r in data if (r["setting"], r["outcome"]) != (label, outcome)]
        elif kind == "extra-key":
            # One record gains a key that is not a record key.
            index, key = args
            data[index % len(data)][key] = 0
        elif kind == "relabel":
            # A correlator setting's records renamed to a label outside the 21: one of its
            # sigma tokens gets its levels descending (Y01 -> Y10) or turns into Z.
            label, index, into = args
            tokens = label.split("-")
            sigma = [k for k, token in enumerate(tokens) if token != "Z"]
            k = sigma[index % len(sigma)]
            tokens[k] = tokens[k][0] + tokens[k][:0:-1] if into == "descending" else "Z"
            for r in data:
                if r["setting"] == label:
                    r["setting"] = "-".join(tokens)
        else:
            # 30% of the records dropped.
            dropped = set(random.Random(args[0]).sample(range(len(data)), round(0.3 * len(data))))
            data = [r for k, r in enumerate(data) if k not in dropped]
    return data


def unresamplable(data) -> tuple[set, set]:
    """Settings with a count, and correlators with an eigenvalue-class sum, above the limit."""
    counts = {}
    for r in data:
        counts.setdefault(r["setting"], {})[r["outcome"]] = r["counts"]
    over_count = {r["setting"] for r in data if r["counts"] > POISSON_LIMIT}
    over_sum = set()
    for pair in OFFDIAG_PAIRS:
        for label, _, values, _ in ELEMENT_PLANS[pair]:
            table = np.array([counts.get(label, {}).get(o, 0)
                              for o in setting_outcomes(label)], float)
            if max(table[values > 0].sum(), table[values < 0].sum(),
                   table[values == 0].sum()) > POISSON_LIMIT:
                over_sum.add(label)
    return over_count, over_sum


def partial_settings(data) -> set:
    """Settings of the standard plan whose records lack some of their outcomes."""
    present = {}
    for r in data:
        present.setdefault(r["setting"], set()).add(r["outcome"])
    return {label for label, outcomes in present.items()
            if label in LABELS and outcomes != set(setting_outcomes(label))}


def first_record_refusal(data) -> str:
    """What names the first record refused for its keys or a fractional count; "" if none is.

    Records are read in file order, each checked for its keys, then for a count
    beyond the limit (named by ``unresamplable``), then for a fraction.
    """
    for r in data:
        if r.keys() != RECORD_KEYS:
            return f"has unknown keys {sorted(r.keys() - RECORD_KEYS)}"
        if r["counts"] > POISSON_LIMIT:
            return ""
        if r["counts"] % 1:
            return (f"counts for setting {r['setting']!r} outcome {r['outcome']!r} "
                    f"must be a whole number")
    return ""


def strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


def csv_rows(text) -> list[dict]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    rows = list(csv.reader(lines))
    assert rows and all(len(row) == len(rows[0]) for row in rows)
    return [dict(zip(rows[0], row)) for row in rows[1:]]


def check_report(command, path):
    text = path.read_text()
    if path.suffix == ".json":
        strict_json(text)
        return
    rows = csv_rows(text)
    if command == "qkd":
        for row in rows:
            # Two-party layers leave qber_z_ac empty.
            qbers = [row[k] for k in ("qber_z", "qber_x", "qber_z_ab", "qber_z_ac") if row[k]]
            assert all(0.0 <= float(q) <= 1.0 for q in qbers), row
            mean = float(row["key_per_round_mean"])
            pessimistic = float(row["key_per_round_pessimistic"])
            assert 0.0 <= pessimistic <= mean <= 1.0, row


@settings(max_examples=25, deadline=None)
@given(mutations=st.lists(MUTATIONS, min_size=1, max_size=3))
# Two counts that can each be resampled, whose eigenvalue +1 class sum cannot.
@example(mutations=[("spike", "X01-X01-X01", "+++", 5 * 10**12),
                    ("spike", "X01-X01-X01", "+--", 5 * 10**12), ("scale", 1e6)])
# A count beyond the limit.
@example(mutations=[("spike", "Y02-Y02-Z", "+-0", 10**18), ("scale", 10.0)])
# An absent outcome is named before a class sum beyond the limit.
@example(mutations=[("spike", "X01-X01-X01", "+++", 5 * 10**12),
                    ("spike", "X01-X01-X01", "+--", 5 * 10**12), ("scale", 1e6),
                    ("omit", "Z", "100", None)])
# A setting outside the 21, from a descending level pair or a sigma token turned into Z.
@example(mutations=[("relabel", "Y01-Y01-X01", 0, "descending")])
@example(mutations=[("relabel", "X02-X02-Z", 1, "Z"), ("scale", 10.0)])
# Half a count on one record is refused; doubled to a whole number again, it is read.
@example(mutations=[("fraction", 7)])
@example(mutations=[("fraction", 7), ("scale", 2.0)])
# A key is named before a count beyond the limit in a later record.
@example(mutations=[("extra-key", 0, "note"), ("spike", "Z", "111", 10**18),
                    ("scale", 10.0)])
def test_hostile_count_files_end_cleanly(mutations):
    data = mutated(mutations)
    refusal = first_record_refusal(data)
    over_count, over_sum = unresamplable(data)
    partial = partial_settings(data)
    foreign = {r["setting"] for r in data} - set(LABELS)
    complete = {r["setting"] for r in data} >= set(LABELS)
    with tempfile.TemporaryDirectory() as tmp:
        counts = Path(tmp) / "counts.json"
        counts.write_text(json.dumps(data))
        for command, report in COMMANDS:
            out = Path(tmp) / command[0]
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = main(["--out", str(out), "--no-timestamp", "--trials", "20",
                             *command, "--counts", str(counts)])
            err = stderr.getvalue()
            assert code in (0, 1, 2), (command, code, err)
            if code == 2:
                assert err.startswith("error: ") and not (out / report).exists(), (command, err)
            else:
                check_report(command[0], out / report)
            # Refused by name: records are read first, then each setting's label and
            # outcomes are checked, then class sums, before any other check.
            named = (over_count or partial | foreign
                     or (over_sum if complete and command[0] in RESAMPLING else set()))
            assert code == 2 or not foreign, (command, err)
            if refusal:
                assert code == 2 and refusal in err, (command, err)
            elif foreign and not (over_count or partial):
                assert any(f"setting {label!r} is not one of the 21 settings" in err
                           for label in foreign), (command, err)
            elif named:
                assert code == 2 and any(f"setting {label!r}" in err for label in named), (
                    command, err)
