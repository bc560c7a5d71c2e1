"""Self-tests of the benchmark harness: span arithmetic, output checks, determinism.

Run with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.import_package()
import tracer  # noqa: E402
import workloads  # noqa: E402
from layered442 import circuit, hilbert, qkd, tomography, witness  # noqa: E402


def span(name, layer, start, end, parent):
    return [name, layer, start, end, parent, 0]


def test_self_time_subtracts_what_children_cover():
    spans = [
        span("op", "bench", 0.0, 10.0, -1),
        span("a", "cli", 1.0, 4.0, 0),
        span("a.1", "hilbert", 2.0, 3.0, 1),
        span("b", "witness", 5.0, 9.0, 0),
        span("c", "witness", 8.0, 9.5, 0),  # overlaps b: covered once
        span("d", "qkd", 9.5, 11.0, 0),  # runs past its parent: clipped
    ]
    assert tracer.self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 1.5, 1.5])


def test_metrics_sum_self_time_per_layer():
    t = tracer.Tracer()
    t.spans = [
        span("op", "bench", 0.0, 0.010, -1),
        span("cli.main", "cli", 0.001, 0.009, 0),
        span("witness.search_class_overlap", "witness", 0.002, 0.008, 1),
        span("hilbert.schmidt_decompose", "hilbert", 0.003, 0.004, 2),
    ]
    m = t.metrics(ops=1)
    assert m["trace.op_ms"] == pytest.approx(10.0)
    assert m["bench.self_ms_per_op"] == pytest.approx(2.0)
    assert m["cli.self_ms_per_op"] == pytest.approx(2.0)
    assert m["witness.self_ms_per_op"] == pytest.approx(5.0)
    assert m["witness.search_class_overlap.self_ms_per_op"] == pytest.approx(5.0)
    assert m["hilbert.self_share_pct"] == pytest.approx(10.0)
    assert m["hilbert.schmidt_decompose.calls_per_op"] == 1


def test_tracer_wraps_every_binding_and_restores_them():
    originals = (witness.schmidt_decompose, qkd.born_probabilities, hilbert.PureState.__post_init__)
    target, cls = circuit.make_psi442(), witness.RankVectorClass((4, 3, 2))
    t = tracer.Tracer()
    t.install()
    try:
        assert witness.schmidt_decompose.__wrapped__ is originals[0]
        assert qkd.born_probabilities is tomography.born_probabilities
        t.run_op(0, witness.search_class_overlap, target, cls, 1, 0)
    finally:
        t.uninstall()
    assert (witness.schmidt_decompose, qkd.born_probabilities,
            hilbert.PureState.__post_init__) == originals
    layers = {s[tracer.NAME]: s[tracer.LAYER] for s in t.spans}
    assert layers["hilbert.schmidt_decompose"] == "hilbert"
    assert layers["hilbert.PureState"] == "hilbert"
    assert layers["witness.search_class_overlap"] == "witness"
    assert {s[tracer.OP] for s in t.spans} == {0}


def _corrupt(path: Path, edit):
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


@pytest.mark.parametrize("name, report, edit", [
    ("certify", "witness_report.json", lambda r: r["fidelity"].update(std_dev=0.0)),
    ("fmax-search", "fmax_report.json", lambda r: r["search"].update(within_bound=False)),
])
def test_corrupted_report_is_a_failed_op(tmp_path, name, report, edit):
    workload = workloads.WORKLOADS[name]
    reference = workloads.prepare(name, tmp_path)
    assert workloads.run_op(workload, reference, 3, 0, tmp_path) == []

    def corrupt_then_check(out, ref, index):
        _corrupt(out / report, edit)
        return workload.check(out, ref, index)

    broken = dataclasses.replace(workload, check=corrupt_then_check)
    loop = run.measure(lambda i: workloads.run_op(broken, reference, 3, i, tmp_path), 0, 0.0)
    assert len(loop.latencies) == 1
    assert len(loop.failures) == 1
    assert loop.ops_per_s == 0.0


def _reports(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_args_and_identical_reports(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    reference = workloads.prepare(name, tmp_path)

    def args(seed, index):
        return workload.commands(workloads.op_seed(seed, index), index, tmp_path)

    assert [args(5, i) for i in range(8)] == [args(5, i) for i in range(8)]
    assert args(5, 1) != args(6, 1)
    runs = []
    for _ in range(2):
        assert workloads.run_op(workload, reference, 5, 1, tmp_path) == []
        runs.append(_reports(tmp_path))
    assert runs[0] == runs[1]
    assert runs[0]
