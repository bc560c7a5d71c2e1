"""In-memory span tracing of the layered442 layers, installed from outside the package.

A layer is one module of the package: cli, circuit, hilbert, tomography,
witness and qkd.  ``Tracer.install`` wraps every public function of each
layer at every module namespace that binds it (``witness.schmidt_decompose``
is the hilbert function, ``qkd.born_probabilities`` the tomography one), and
wraps ``hilbert.PureState.__post_init__`` so constructions are counted and
their validation time lands in hilbert.  Private helpers are not wrapped,
so their time is self time of the public function that called them.

Each call becomes a span ``[name, layer, start, end, parent, op]`` kept in
a list; nothing is written until the run ends.  The program is
single-threaded and has no queue or lock, so spans nest strictly and no
layer has a waiting time to report.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "circuit", "hilbert", "tomography", "witness", "qkd")
PACKAGE = "layered442"
OP_SPAN = "op"
OP_LAYER = "bench"

NAME, LAYER, START, END, PARENT, OP = range(6)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children[index]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _bound_arg(fn, name):
    signature = inspect.signature(fn)

    def get(args, kwargs):
        return signature.bind(*args, **kwargs).arguments[name]

    return get


class Tracer:
    """Span recorder plus the counters measured at the layer boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int = -1
        self.counters: Counter = Counter()
        self.errors: Counter = Counter()
        self.names: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name, layer):
        parent = self.stack[-1] if self.stack else -1
        record = [name, layer, time.perf_counter(), 0.0, parent, self.op]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record, failed):
        record[END] = time.perf_counter()
        self.stack.pop()
        parent = record[PARENT]
        # An error counts once, at the layer that hands it to another layer.
        if failed and (parent < 0 or self.spans[parent][LAYER] != record[LAYER]):
            self.errors[record[LAYER]] += 1

    def wrap(self, name, layer, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(args, kwargs, result)`` counts."""

        def traced(*args, **kwargs):
            record = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(record, True)
                raise
            self._close(record, False)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def run_op(self, op, fn, *args):
        """Run one benchmark op as the root span that its layer spans share."""
        self.op = op
        try:
            return self.wrap(OP_SPAN, OP_LAYER, fn)(*args)
        finally:
            self.op = -1

    # -- installation -------------------------------------------------------

    def _hooks(self, modules):
        """Counters read from the arguments or results of a few functions."""
        count = self.counters
        restarts = _bound_arg(modules["witness"].search_class_overlap, "restarts")
        z_rounds = _bound_arg(modules["qkd"].sample_z_rounds, "n")
        x_rounds = _bound_arg(modules["qkd"].sample_x_rounds, "n")

        def sift(args, kwargs, report):
            count["qkd.reports"] += 1
            count["qkd.z_sift_fraction"] += report.sift_fraction_z
            count["qkd.x_sift_fraction"] += report.sift_fraction_x

        def postselect(args, kwargs, result):
            fused, layered = result
            count["circuit.runs"] += 1
            count["circuit.postselect_success"] += (
                fused.success_probability * layered.success_probability)

        return {
            ("witness", "search_class_overlap"):
                lambda a, k, r: count.update({"witness.restarts": restarts(a, k)}),
            ("qkd", "sample_z_rounds"):
                lambda a, k, r: count.update({"qkd.rounds_drawn": z_rounds(a, k)}),
            ("qkd", "sample_x_rounds"):
                lambda a, k, r: count.update({"qkd.rounds_drawn": x_rounds(a, k)}),
            ("qkd", "compute_qbers"): sift,
            ("qkd", "qbers_from_counts"): sift,
            ("circuit", "circuit_psi442"): postselect,
        }

    def install(self):
        """Wrap the public functions of every layer in every namespace binding them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        hooks = self._hooks(modules)
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    self.names.add(name)
                    wrappers[id(obj)] = self.wrap(name, layer, obj, hooks.get((layer, attr)))
        namespaces = [m for n, m in sys.modules.items()
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)].__wrapped__ is obj:
                    self._patch(module, attr, wrappers[id(obj)])
        pure_state = modules["hilbert"].PureState
        self.names.add("hilbert.PureState")
        self._patch(pure_state, "__post_init__",
                    self.wrap("hilbert.PureState", "hilbert", pure_state.__post_init__))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        """Restore every original binding."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ----------------------------------------------------------

    def write(self, path):
        """Write the spans as CSV rows once the run is over."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("name", "layer", "start_s", "end_s", "parent", "op"))
            writer.writerows(self.spans)

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-op figures over ``ops`` traced ops: per layer and per wrapped function."""
        ms = Counter()
        calls = Counter()
        op_ms = 0.0
        for span, own in zip(self.spans, self_times(self.spans)):
            if span[LAYER] == OP_LAYER:
                op_ms += (span[END] - span[START]) * 1e3
            for key in (span[LAYER], span[NAME]):
                ms[key] += own * 1e3
                calls[key] += 1
        per_op = 1.0 / max(ops, 1)
        out = {"trace.op_ms": op_ms * per_op,
               "trace.spans_per_op": len(self.spans) * per_op,
               "bench.self_ms_per_op": ms[OP_LAYER] * per_op}
        for layer in LAYERS:
            out[f"{layer}.self_ms_per_op"] = ms[layer] * per_op
            out[f"{layer}.self_share_pct"] = 100.0 * ms[layer] / op_ms if op_ms else 0.0
            out[f"{layer}.calls_per_op"] = calls[layer] * per_op
            out[f"{layer}.errors_per_op"] = self.errors[layer] * per_op
        names = self.names | {s[NAME] for s in self.spans if s[LAYER] != OP_LAYER}
        for name in names:
            out[f"{name}.self_ms_per_op"] = ms[name] * per_op
            out[f"{name}.calls_per_op"] = calls[name] * per_op
        out["hilbert.PureState.constructions_per_op"] = calls["hilbert.PureState"] * per_op
        c = self.counters
        out["witness.restarts_per_op"] = c["witness.restarts"] * per_op
        out["qkd.rounds_drawn_per_op"] = c["qkd.rounds_drawn"] * per_op
        reports = c["qkd.reports"]
        out["qkd.z_sift_fraction"] = c["qkd.z_sift_fraction"] / reports if reports else 0.0
        out["qkd.x_sift_fraction"] = c["qkd.x_sift_fraction"] / reports if reports else 0.0
        runs = c["circuit.runs"]
        out["circuit.postselect_success"] = c["circuit.postselect_success"] / runs if runs else 0.0
        return out
