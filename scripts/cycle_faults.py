"""Count the minor page faults of every ``train_step`` and every eval pass in
the benchmark's own cycle, without changing the benchmark.

    python scripts/cycle_faults.py --root . --workload pretrain-planted --seed 1 --seconds 30
    python scripts/cycle_faults.py --root /path/to/other/checkout --workload eval-planted

Loads ``perfbench/harness.py`` and the ``rgcl`` of the checkout at ``--root``,
wraps ``rgcl.training.train_step`` and ``harness.BenchRun._eval_pass`` from
outside with a read of ``ru_minflt`` (the pages the process touched for the
first time) before and after each call, and runs one untraced
``run_workload``, as ``perfbench/run.py --trace 0`` does. It prints one JSON
object: the count, mean, median, 90th percentile and maximum of the faults
per step and per eval pass, and the run's ``peak_rss_mb``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def counted(fn, faults: list[int]):
    """``fn`` with the minor page faults of each call appended to ``faults``."""
    def wrapped(*args, **kwargs):
        start = minor_faults()
        try:
            return fn(*args, **kwargs)
        finally:
            faults.append(minor_faults() - start)
    return wrapped


def summary(faults: list[int]) -> dict:
    values = np.asarray(faults, dtype=np.float64)
    return {
        "calls": len(faults),
        "mean": float(values.mean()),
        "median": float(np.median(values)),
        "p90": float(np.percentile(values, 90)),
        "max": int(values.max()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, default=Path("."))
    parser.add_argument("--workload", default="pretrain-planted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import harness
    from rgcl import training

    steps, evals = [], []
    training.train_step = counted(training.train_step, steps)
    harness.BenchRun._eval_pass = counted(harness.BenchRun._eval_pass, evals)
    with tempfile.TemporaryDirectory() as tmp:
        record = harness.run_workload(harness.WORKLOADS[args.workload], args.seed,
                                      args.seconds, False, Path(tmp))
    print(json.dumps({
        "root": str(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "correct": record["correct"],
        "peak_rss_mb": record["end_to_end"]["peak_rss_mb"],
        "step_faults": summary(steps),
        "eval_faults": summary(evals),
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
