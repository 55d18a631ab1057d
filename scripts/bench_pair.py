"""Fold paired benchmark results of a parent and a change into one ``BENCH_<name>.json``.

Each input is a result file that ``perfbench/run.py`` writes under
``.perfbench_out/`` (copy it away after each run: the next run of the same
workload, seed and trace setting overwrites it). Give the files of each side in
the order they were run; the i-th parent file and the i-th change file of one
workload form a pair:

    python scripts/bench_pair.py --name fused_message_passing \\
        --parent runs/parent-*.json --change runs/change-*.json \\
        --out BENCH_fused_message_passing.json

For every workload and trace setting the output holds the pair count and, for
each metric, each side's median and quartiles [q1, q3] (linear interpolation),
the change median over the parent median, and the number of pairs the change
won, by the direction ``BENCHMARK.json`` gives the metric. It also holds the
machine context the runs share, each side's git commit, and the attempted and
failed operations. Files that disagree on the machine context, or a workload
with unequal parent and change counts, are refused.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# context fields that say what ran rather than where it ran
PER_RUN = ("git_commit", "workload", "workload_seed", "trace")


def load(paths: list[str]) -> dict[tuple, list[dict]]:
    """Result records grouped by (workload, seed, trace), in the given order."""
    groups: dict[tuple, list[dict]] = {}
    for path in paths:
        record = json.loads(Path(path).read_text(encoding="utf-8"))
        ctx = record["context"]
        groups.setdefault((ctx["workload"], ctx["workload_seed"], ctx["trace"]), []).append(record)
    return groups


def spread(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def fold(parent: list[dict], change: list[dict], directions: dict[str, str]) -> dict:
    """One workload's pairs: per-metric spreads, ratio and wins, plus op counts."""
    key = "per_layer" if parent[0]["context"]["trace"] else "end_to_end"
    metrics = {}
    for name in parent[0][key]:
        p = [float(r[key][name]) for r in parent]
        c = [float(r[key][name]) for r in change]
        lower = directions.get(name, "lower") == "lower"
        entry = {"parent": spread(p), "change": spread(c)}
        base = entry["parent"]["median"]
        entry["change_over_parent"] = entry["change"]["median"] / base if base else None
        entry["change_won"] = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        metrics[name] = entry
    return {
        "pairs": len(parent),
        "commits": {side: sorted({r["context"]["git_commit"] for r in runs})
                    for side, runs in (("parent", parent), ("change", change))},
        "correct": {"parent": all(r["correct"] for r in parent),
                    "change": all(r["correct"] for r in change)},
        "ops": {side: {"attempted": sum(r["attempted"] for r in runs),
                       "failed": sum(r["failed"] for r in runs)}
                for side, runs in (("parent", parent), ("change", change))},
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--name", required=True)
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load(args.parent), load(args.change)
    if parent.keys() != change.keys():
        print(f"parent runs cover {sorted(parent)}, change runs {sorted(change)}", file=sys.stderr)
        return 2
    machines = {
        json.dumps({k: v for k, v in r["context"].items() if k not in PER_RUN}, sort_keys=True)
        for runs in (*parent.values(), *change.values()) for r in runs
    }
    if len(machines) != 1:
        print(f"the runs come from {len(machines)} machine contexts", file=sys.stderr)
        return 2
    workloads = {}
    for key in sorted(parent):
        workload, seed, trace = key
        if len(parent[key]) != len(change[key]):
            print(f"{workload} seed {seed} trace {int(trace)}: {len(parent[key])} parent runs, "
                  f"{len(change[key])} change runs", file=sys.stderr)
            return 2
        label = f"{workload}-seed{seed}-trace{int(trace)}"
        workloads[label] = fold(parent[key], change[key], directions)
    out = {"name": args.name, "context": json.loads(machines.pop()), "workloads": workloads}
    Path(args.out).write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
