"""Print the time and call count of each autodiff op in an N = 32 training step
and in one eval pass.

Profiles the ``rgcl`` on ``PYTHONPATH``, so two source trees can be compared:

    PYTHONPATH=src python scripts/op_profile.py
    PYTHONPATH=/path/to/other/checkout/src python scripts/op_profile.py

Each op of ``rgcl.autodiff`` (a public function that makes tape nodes) is
wrapped from outside at every module that holds it, and so is each VJP that the
op records on the tape: the forward is timed when the op runs and the VJP when
``backward`` calls it. A forward time is self time: an op called inside another
op counts only for itself. No file of the package changes.

The run uses 500 planted-motif graphs (``PlantedMotifSpec(seed=1)``),
``TrainConfig(seed=1)`` (N = 32 anchors) and one BLAS thread. It takes the 15
full batches of one shuffle, steps through them once and runs one eval pass
(below) to build each graph's cached constants, then steps through them
``PASSES`` times unwrapped and ``PASSES`` times wrapped. It prints the median step time of both runs, the median minor page
faults of an unwrapped step and, per wrapped step, the tape records, the row
scatters (``_scatter_rows`` calls) and the ``_scatter_block`` calls they made
(more blocks than scatters means some scatter ran in column blocks),
``backward`` milliseconds, and each op's forward and VJP milliseconds and
calls.

It then runs one eval pass on the 500 graphs, as ``rgcl eval`` and the
benchmark's ``eval-planted`` do (``embed_graphs``, ``linear_probe``,
``rationale_precision``, ``view_similarities``), on the stepped state: once
unwrapped right after the unwrapped steps, as the benchmark's cycle runs its
eval passes after training, then once wrapped. Every op in it runs
value-only. It prints both pass times, the minor page faults of the unwrapped
pass, the tape records its ops made (none), its row scatters and
``_scatter_block`` calls, ``linear_probe``'s milliseconds and each op's forward
milliseconds and calls. Page faults (``ru_minflt``) count the pages the process
touched for the first time, among them the heap that a phase grows again after
the allocator gave it back.

Before it wraps anything, it traces the memory of one more N = 32 step and of
one more eval pass with ``tracemalloc``, each in its own untimed run (tracing
slows what it traces), and prints each run's traced peak: the most memory its
own allocations held at once. It then times the serializers the same way,
each as the median of ``IO_REPEATS`` runs and then once traced:
``dataset_hash`` on the 500 graphs, and ``save_checkpoint`` and
``load_checkpoint`` of the stepped state, in a temporary directory. A run
takes a few seconds.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import inspect  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import rgcl  # noqa: E402
import rgcl.autodiff as ad  # noqa: E402
from rgcl import evaluation  # noqa: E402
from rgcl.datasets import PlantedMotifSpec, generate_planted_motif_dataset  # noqa: E402
from rgcl.training import (  # noqa: E402
    TrainConfig, init_train_state, load_checkpoint, save_checkpoint, train_step,
)

GRAPHS = 500
SEED = 1
PASSES = 2
IO_REPEATS = 5
# public functions of rgcl.autodiff that make no tape node of their own
NOT_OPS = {"const", "backward"}


class OpProfile:
    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Zero every count and time; the installed wrappers stay."""
        self.fwd_s = defaultdict(float)
        self.fwd_calls = defaultdict(int)
        self.vjp_s = defaultdict(float)
        self.vjp_calls = defaultdict(int)
        self.scatters = 0
        self.scatter_blocks = 0
        self.recorded = 0  # op calls that appended a tape record
        self.records = 0
        self.backward_s = 0.0
        self._child_s = [0.0]  # time spent in nested ops, one slot per open op

    def op(self, name, fn):
        def wrapped(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = self._child_s.pop()
                self._child_s[-1] += elapsed
                self.fwd_s[name] += elapsed - nested
                self.fwd_calls[name] += 1
            tape = getattr(out, "tape", None)
            if tape is not None and tape._records and tape._records[-1][0] == out.node_id:
                self.recorded += 1
                out_id, inputs = tape._records[-1]
                tape._records[-1] = (
                    out_id, tuple((i, self.vjp(name, vjp)) for i, vjp in inputs)
                )
            return out

        return wrapped

    def vjp(self, name, fn):
        def wrapped(g):
            start = time.perf_counter()
            try:
                return fn(g)
            finally:
                self.vjp_s[name] += time.perf_counter() - start
                self.vjp_calls[name] += 1

        return wrapped

    def install(self) -> None:
        """Wrap each op at every rgcl module that holds it, and count
        ``_scatter_rows`` and ``_scatter_block`` calls and the records each
        ``backward`` replays."""
        ops = {
            name: fn for name, fn in vars(ad).items()
            if inspect.isfunction(fn) and fn.__module__ == ad.__name__
            and not name.startswith("_") and name not in NOT_OPS
        }
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "rgcl"]
        for module in modules:
            for attr, value in list(vars(module).items()):
                for name, fn in ops.items():
                    if value is fn:
                        setattr(module, attr, self.op(name, fn))
        scatter_rows, scatter_block, backward = ad._scatter_rows, ad._scatter_block, ad.backward

        def counted_scatter_rows(*args, **kwargs):
            self.scatters += 1
            return scatter_rows(*args, **kwargs)

        def counted_scatter_block(*args):
            self.scatter_blocks += 1
            return scatter_block(*args)

        def timed_backward(tape, loss):
            self.records += tape.num_records
            start = time.perf_counter()
            try:
                return backward(tape, loss)
            finally:
                self.backward_s += time.perf_counter() - start

        ad._scatter_rows, ad._scatter_block = counted_scatter_rows, counted_scatter_block
        ad.backward = timed_backward


def full_batches(dataset, config):
    """The full batches of one fixed shuffle of the dataset."""
    perm = np.random.default_rng(SEED).permutation(len(dataset))
    n = config.batch_size
    return [[dataset[int(i)] for i in perm[lo:lo + n]]
            for lo in range(0, len(perm) - n + 1, n)]


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def median_step(state, batches, config) -> tuple[float, float]:
    """The median milliseconds and minor page faults of a step over ``batches``."""
    times, faults = [], []
    for batch in batches:
        start, start_faults = time.perf_counter(), minor_faults()
        train_step(state, batch, config)
        times.append(time.perf_counter() - start)
        faults.append(minor_faults() - start_faults)
    return 1e3 * float(np.median(times)), float(np.median(faults))


def eval_pass(dataset, state, config) -> tuple[float, float, int]:
    """One eval pass: its seconds, those of its ``linear_probe`` and its minor
    page faults."""
    start, start_faults = time.perf_counter(), minor_faults()
    emb = evaluation.embed_graphs(dataset, state.encoder, config.encoder_config())
    probe_start = time.perf_counter()
    evaluation.linear_probe(emb, dataset.labels(), split_seed=config.seed)
    probe_s = time.perf_counter() - probe_start
    evaluation.rationale_precision(dataset, state.generator, config.generator_config())
    evaluation.view_similarities(dataset, state, config, sample_seed=config.seed)
    return time.perf_counter() - start, probe_s, minor_faults() - start_faults


def traced_peak_mib(run) -> float:
    """The traced peak of the allocations ``run()`` makes, in MiB."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def serializer_costs(dataset, state, config) -> tuple[dict[str, tuple[float, float]], int]:
    """The median milliseconds and the traced peak MiB of ``dataset_hash``,
    ``save_checkpoint`` and ``load_checkpoint``, and the checkpoint's bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "ckpt.json"
        runs = {
            "dataset_hash": lambda: rgcl.dataset_hash(dataset),
            "save_checkpoint": lambda: save_checkpoint(state, ckpt, config),
            "load_checkpoint": lambda: load_checkpoint(ckpt),
        }
        costs = {}
        for name, run in runs.items():
            times = []
            for _ in range(IO_REPEATS):
                start = time.perf_counter()
                run()
                times.append(time.perf_counter() - start)
            costs[name] = (1e3 * float(np.median(times)), traced_peak_mib(run))
        return costs, ckpt.stat().st_size


def print_ops(profile, per: float, vjps: bool) -> None:
    """Each op's forward (and VJP) milliseconds and calls, times ``per``."""
    names = sorted(profile.fwd_calls, key=lambda k: -(profile.fwd_s[k] + profile.vjp_s[k]))
    head = f"{'op':<16}{'fwd ms':>9}{'fwd calls':>11}"
    print(head + (f"{'vjp ms':>9}{'vjp calls':>11}" if vjps else ""))
    rows = [(name, profile.fwd_s[name], profile.fwd_calls[name], profile.vjp_s[name],
             profile.vjp_calls[name]) for name in names]
    rows.append(("all ops", sum(profile.fwd_s.values()), sum(profile.fwd_calls.values()),
                 sum(profile.vjp_s.values()), sum(profile.vjp_calls.values())))
    for name, fwd_s, fwd_calls, vjp_s, vjp_calls in rows:
        line = f"{name:<16}{1e3 * fwd_s * per:>9.3f}{fwd_calls * per:>11.1f}"
        if vjps:
            line += f"{1e3 * vjp_s * per:>9.3f}{vjp_calls * per:>11.1f}"
        print(line)


def main() -> int:
    dataset = generate_planted_motif_dataset(PlantedMotifSpec(seed=SEED), GRAPHS)
    config = TrainConfig(seed=SEED)
    batches = full_batches(dataset, config)
    state = init_train_state(config, dataset.feature_dim)
    median_step(state, batches, config)
    eval_pass(dataset, state, config)
    plain_ms, step_faults = median_step(state, batches * PASSES, config)
    plain_eval_s, _, eval_faults = eval_pass(dataset, state, config)
    step_peak = traced_peak_mib(lambda: train_step(state, batches[0], config))
    eval_peak = traced_peak_mib(lambda: eval_pass(dataset, state, config))
    io, ckpt_bytes = serializer_costs(dataset, state, config)
    profile = OpProfile()
    profile.install()
    wrapped_ms, _ = median_step(state, batches * PASSES, config)

    steps = len(batches) * PASSES
    per = 1.0 / steps
    print(f"rgcl {rgcl.__file__}")
    print(f"{GRAPHS} planted graphs, seed {SEED}, N = {config.batch_size}, "
          f"{steps} steps after one warm-up pass, one BLAS thread")
    print(f"step ms (median): unwrapped {plain_ms:.2f}, wrapped {wrapped_ms:.2f}")
    print(f"minor page faults (unwrapped): step (median) {step_faults:.0f}, "
          f"eval pass {eval_faults}")
    print(f"traced peak MiB (tracemalloc, one untimed run each): N = {config.batch_size} "
          f"step {step_peak:.2f}, eval pass {eval_peak:.2f}")
    print(f"serializers, ms (median of {IO_REPEATS}) / traced peak MiB: "
          + ", ".join(f"{name} {ms:.1f} / {peak:.2f}" for name, (ms, peak) in io.items())
          + f" ({ckpt_bytes} B checkpoint)")
    print(f"per wrapped step: {profile.records * per:.1f} tape records, "
          f"{profile.scatters * per:.1f} row scatters in "
          f"{profile.scatter_blocks * per:.1f} _scatter_block calls, "
          f"backward {1e3 * profile.backward_s * per:.3f} ms")
    print_ops(profile, per, vjps=True)

    profile.reset()
    wrapped_eval_s, probe_s, _ = eval_pass(dataset, state, config)
    print()
    print(f"eval pass on the {GRAPHS} graphs, value-only: unwrapped {1e3 * plain_eval_s:.1f} ms, "
          f"wrapped {1e3 * wrapped_eval_s:.1f} ms, {profile.recorded} tape records, "
          f"{profile.scatters} row scatters in {profile.scatter_blocks} _scatter_block calls")
    print(f"linear_probe {1e3 * probe_s:.1f} ms (wrapped pass)")
    print_ops(profile, 1.0, vjps=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
