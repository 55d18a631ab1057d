"""Outside-in tracing of rgcl for the benchmark's traced run.

Each public function of interest is wrapped at the place it is looked up
(``rgcl.training.attribute_nodes`` and ``rgcl.evaluation.attribute_nodes``
are two lookups of one function) and restored afterwards, so no file of the
program changes. A span is one call: name, start, end, parent span and the
operation (train step, eval pass or setup) it ran in. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import importlib
import time
from collections import defaultdict

# (module whose global is patched, attribute, span name). The span name is
# the defining module and function, whichever module looks it up.
PATCHES = (
    ("rgcl.training", "train_step", "training.train_step"),
    ("rgcl.training", "sample_selections", "training.sample_selections"),
    ("rgcl.training", "encode_views", "training.encode_views"),
    ("rgcl.training", "adam_update", "training.adam_update"),
    ("rgcl.training", "attribute_nodes", "rationale.attribute_nodes"),
    ("rgcl.training", "gumbel_top_k", "rationale.gumbel_top_k"),
    ("rgcl.training", "rationale_from_kept", "rationale.rationale_from_kept"),
    ("rgcl.training", "complement_from_kept", "rationale.complement_from_kept"),
    ("rgcl.training", "batch_graphs", "graphs.batch_graphs"),
    ("rgcl.training", "encode_graph", "encoder.encode_graph"),
    ("rgcl.training", "project", "losses.project"),
    ("rgcl.training", "rgcl_loss", "losses.rgcl_loss"),
    ("rgcl.training", "lift_params", "params.lift_params"),
    ("rgcl.rationale", "induced_subgraph", "graphs.induced_subgraph"),
    ("rgcl.rationale", "batch_graphs", "graphs.batch_graphs"),
    ("rgcl.rationale", "lift_params", "params.lift_params"),
    ("rgcl.encoder", "lift_params", "params.lift_params"),
    ("rgcl.losses", "lift_params", "params.lift_params"),
    ("rgcl.autodiff", "backward", "autodiff.backward"),
    ("rgcl.autodiff", "segment_sum", "autodiff.segment_sum"),
    ("rgcl.autodiff", "gather_rows", "autodiff.gather_rows"),
    ("rgcl.autodiff", "matmul", "autodiff.matmul"),
    ("rgcl.evaluation", "embed_graphs", "evaluation.embed_graphs"),
    ("rgcl.evaluation", "linear_probe", "evaluation.linear_probe"),
    ("rgcl.evaluation", "rationale_precision", "evaluation.rationale_precision"),
    ("rgcl.evaluation", "view_similarities", "evaluation.view_similarities"),
    ("rgcl.evaluation", "attribute_nodes", "rationale.attribute_nodes"),
    ("rgcl.evaluation", "encode_graph", "encoder.encode_graph"),
    ("rgcl.evaluation", "batch_graphs", "graphs.batch_graphs"),
    ("rgcl.evaluation", "sample_selections", "training.sample_selections"),
    ("rgcl.evaluation", "encode_views", "training.encode_views"),
    ("rgcl.datasets", "generate_planted_motif_dataset",
     "datasets.generate_planted_motif_dataset"),
)

STEP = "training.train_step"
EVAL_PASS = "bench.eval_pass"
SETUP = "bench.setup"
SPAN_NAMES = tuple(dict.fromkeys([name for _, _, name in PATCHES] + [EVAL_PASS]))

# A call to one of these starts a new operation; spans below it belong to it.
_OP_KIND = {STEP: "step"}

# Counts read from a call's arguments or result, keyed by span name.
_COUNTERS = {
    STEP: ("training.train_step.anchors", lambda args, result: len(args[1])),
    "autodiff.backward": ("autodiff.tape_records", lambda args, result: args[0].num_records),
    "evaluation.linear_probe": (
        "evaluation.linear_probe.iterations", lambda args, result: result.iterations
    ),
}

_WRAPPED = "__rgcl_bench_wrapped__"


def is_wrapper(fn) -> bool:
    return getattr(fn, _WRAPPED, False)


def current_targets() -> dict:
    """The object each patch site holds right now."""
    return {
        (mod, attr): getattr(importlib.import_module(mod), attr)
        for mod, attr, _ in PATCHES
    }


class Tracer:
    """Span recorder plus the patch/restore bookkeeping."""

    def __init__(self):
        # one row per call: [name, start, end, parent index, op tag, outermost]
        self.spans: list[list] = []
        self.counts: list[tuple[str, str | None, float]] = []
        self._stack: list[int] = []
        self._op: str | None = None
        self._op_seq: dict[str, int] = defaultdict(int)
        self._active: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, op_kind: str | None = None):
        prev_op = self._op
        if op_kind is not None:
            self._op = f"{op_kind}:{self._op_seq[op_kind]}"
            self._op_seq[op_kind] += 1
        idx = len(self.spans)
        row = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self._op, self._active[name] == 0]
        self.spans.append(row)
        self._stack.append(idx)
        self._active[name] += 1
        row[1] = time.perf_counter()
        try:
            yield row
        finally:
            row[2] = time.perf_counter()
            self._active[name] -= 1
            self._stack.pop()
            self._op = prev_op

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, self._op, float(value)))

    def _wrap(self, name: str, fn):
        op_kind = _OP_KIND.get(name)
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name, op_kind):
                result = fn(*args, **kwargs)
                if counter is not None:
                    self.count(counter[0], counter[1](args, result))
            return result

        traced.__wrapped__ = fn
        setattr(traced, _WRAPPED, True)
        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for mod_name, attr, name in PATCHES:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(name, original))

    def restore(self) -> None:
        """Put every patched attribute back and check that it took."""
        saved, self._saved = self._saved, []
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)
        for mod, attr, original in saved:
            if getattr(mod, attr) is not original:
                raise RuntimeError(f"{mod.__name__}.{attr} was not restored")

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- summaries -------------------------------------------------------

    def op_tags(self, kind: str) -> set[str]:
        return {row[4] for row in self.spans if row[4] and row[4].startswith(kind + ":")}

    def _child_time(self) -> list[float]:
        """Seconds covered by each span's direct children."""
        child_time = [0.0] * len(self.spans)
        for start, end, parent in ((r[1], r[2], r[3]) for r in self.spans):
            if parent >= 0:
                child_time[parent] += end - start
        return child_time

    def summarize(self, kind: str) -> dict[str, dict[str, float]]:
        """Per-operation totals over every op of ``kind``.

        ``ms`` is inclusive time, counting only the outermost call when a
        name nests inside itself; ``self_ms`` subtracts the time covered by
        child spans; ``calls`` counts every call.
        """
        tags = self.op_tags(kind)
        n_ops = max(len(tags), 1)
        child_time = self._child_time()
        out = {name: {"ms": 0.0, "self_ms": 0.0, "calls": 0.0} for name in SPAN_NAMES}
        for i, (name, start, end, _, op, outermost) in enumerate(self.spans):
            if op not in tags:
                continue
            entry = out.setdefault(name, {"ms": 0.0, "self_ms": 0.0, "calls": 0.0})
            entry["calls"] += 1
            entry["self_ms"] += (end - start - child_time[i]) * 1e3
            if outermost:
                entry["ms"] += (end - start) * 1e3
        for entry in out.values():
            for key in entry:
                entry[key] /= n_ops
        return out

    def coverage(self, root_name: str) -> float:
        """Share of the wall time of ``root_name`` spans that their direct
        child spans cover."""
        child_time = self._child_time()
        total = covered = 0.0
        for i, row in enumerate(self.spans):
            if row[0] == root_name:
                total += row[2] - row[1]
                covered += child_time[i]
        return covered / total if total > 0 else 0.0

    def counter_mean(self, name: str, kind: str) -> float:
        """Counter total over ops of ``kind``, divided by the number of ops."""
        tags = self.op_tags(kind)
        total = sum(v for n, op, v in self.counts if n == name and op in tags)
        return total / max(len(tags), 1)

    def write(self, path) -> None:
        """All spans as gzip CSV: index, name, start, end, parent, op."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "name", "start_s", "end_s", "parent", "op"])
            for i, (name, start, end, parent, op, _) in enumerate(self.spans):
                w.writerow([i, name, f"{start - t0:.7f}", f"{end - t0:.7f}", parent, op or ""])
