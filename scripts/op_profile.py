"""Print the time and call count of each autodiff op in an N = 32 training step.

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
full batches of one shuffle, steps through them once to build each graph's
cached constants, then ``PASSES`` times unwrapped and ``PASSES`` times
wrapped. It prints the median step time of both runs and, per wrapped step,
the tape records, ``_scatter_block`` calls, ``backward`` milliseconds, and
each op's forward and VJP milliseconds and calls. A run takes a few seconds.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import inspect  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

import rgcl  # noqa: E402
import rgcl.autodiff as ad  # noqa: E402
from rgcl.datasets import PlantedMotifSpec, generate_planted_motif_dataset  # noqa: E402
from rgcl.training import TrainConfig, init_train_state, train_step  # noqa: E402

GRAPHS = 500
SEED = 1
PASSES = 2
# public functions of rgcl.autodiff that make no tape node of their own
NOT_OPS = {"const", "backward"}


class OpProfile:
    def __init__(self):
        self.fwd_s = defaultdict(float)
        self.fwd_calls = defaultdict(int)
        self.vjp_s = defaultdict(float)
        self.vjp_calls = defaultdict(int)
        self.scatter_blocks = 0
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
        ``_scatter_block`` calls and the records each ``backward`` replays."""
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
        scatter_block, backward = ad._scatter_block, ad.backward

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

        ad._scatter_block, ad.backward = counted_scatter_block, timed_backward


def full_batches(dataset, config):
    """The full batches of one fixed shuffle of the dataset."""
    perm = np.random.default_rng(SEED).permutation(len(dataset))
    n = config.batch_size
    return [[dataset[int(i)] for i in perm[lo:lo + n]]
            for lo in range(0, len(perm) - n + 1, n)]


def median_step_ms(state, batches, config) -> float:
    times = []
    for batch in batches:
        start = time.perf_counter()
        train_step(state, batch, config)
        times.append(time.perf_counter() - start)
    return 1e3 * float(np.median(times))


def main() -> int:
    dataset = generate_planted_motif_dataset(PlantedMotifSpec(seed=SEED), GRAPHS)
    config = TrainConfig(seed=SEED)
    batches = full_batches(dataset, config)
    state = init_train_state(config, dataset.feature_dim)
    median_step_ms(state, batches, config)
    plain_ms = median_step_ms(state, batches * PASSES, config)
    profile = OpProfile()
    profile.install()
    wrapped_ms = median_step_ms(state, batches * PASSES, config)

    steps = len(batches) * PASSES
    per = 1.0 / steps
    print(f"rgcl {rgcl.__file__}")
    print(f"{GRAPHS} planted graphs, seed {SEED}, N = {config.batch_size}, "
          f"{steps} steps after one warm-up pass, one BLAS thread")
    print(f"step ms (median): unwrapped {plain_ms:.2f}, wrapped {wrapped_ms:.2f}")
    print(f"per wrapped step: {profile.records * per:.1f} tape records, "
          f"{profile.scatter_blocks * per:.1f} _scatter_block calls, "
          f"backward {1e3 * profile.backward_s * per:.3f} ms")
    names = sorted(profile.fwd_calls, key=lambda k: -(profile.fwd_s[k] + profile.vjp_s[k]))
    print(f"{'op':<16}{'fwd ms':>9}{'fwd calls':>11}{'vjp ms':>9}{'vjp calls':>11}")
    for name in names:
        print(f"{name:<16}{1e3 * profile.fwd_s[name] * per:>9.3f}"
              f"{profile.fwd_calls[name] * per:>11.1f}"
              f"{1e3 * profile.vjp_s[name] * per:>9.3f}{profile.vjp_calls[name] * per:>11.1f}")
    fwd, vjp = sum(profile.fwd_s.values()), sum(profile.vjp_s.values())
    print(f"{'all ops':<16}{1e3 * fwd * per:>9.3f}{sum(profile.fwd_calls.values()) * per:>11.1f}"
          f"{1e3 * vjp * per:>9.3f}{sum(profile.vjp_calls.values()) * per:>11.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
