"""Interleaved in-process A/B of two ``rgcl`` source trees, one BLAS thread.

    python scripts/ab_inprocess.py --a /path/to/parent/src --b src --rounds 32

Each tree is imported from its own directory under its own package name
(``rgcl_a``, ``rgcl_b``); ``src/rgcl`` uses only relative imports, so the two
copies share nothing. Giving the same tree twice is an A/A run, which should
read a ratio of 1 within its interval.

Each tree builds the benchmark's input itself: 500 planted-motif graphs
(``PlantedMotifSpec(seed=1)``), ``TrainConfig(seed=1)`` (N = 32 anchors), a
one-epoch ``pretrain`` as the fixed state, and the full batches of one fixed
shuffle. After one untimed warm-up slot per tree, each round runs
``REPEATS`` slots on each tree, alternating A B A B ... (B first in every
other round). A slot is:

* ``step``: ``STEPS`` ``train_step`` calls, from a copy of the fixed state,
  on the first ``STEPS`` batches; the slot's value is the median step;
* ``eval``: one eval pass as ``rgcl eval`` and the benchmark's
  ``eval-planted`` run it (``embed_graphs``, ``linear_probe``,
  ``rationale_precision``, ``view_similarities``), timed whole and per part.

Every metric is read as wall time (``perf_counter``) and as process CPU time
(``process_time``), and a round keeps each side's least value of it over its
slots: on a shared VM, interference only ever adds time, and it comes in
bursts that a single slot can fall into. The two trees must give equal
fingerprints (the step losses and parameter bytes, the embeddings, probe,
precision and cosines) in every slot; the script exits 1 if they do not. It
prints, per metric, each side's median over rounds, the median over rounds
of the B / A ratio with a 95% bootstrap interval, and the rounds B won; then
the steal ticks ``/proc/stat`` counted in each round, and which side ran
first. ``--json`` also writes all of it to a file.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import copy  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

GRAPHS = 500
SEED = 1
STEPS = 8
REPEATS = 3
BOOTSTRAP = 2000
EVAL_PARTS = ("embed", "probe", "precision", "cosines")


def load_tree(src: Path, name: str):
    """The package ``<src>/rgcl`` imported as ``name``, with its submodules."""
    init = src / "rgcl" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class Tree:
    """One source tree, its own copy of the inputs and its fixed state."""

    def __init__(self, src: Path, name: str):
        load_tree(src, name)
        self.name, self.src = name, src
        self.datasets = importlib.import_module(f"{name}.datasets")
        self.evaluation = importlib.import_module(f"{name}.evaluation")
        self.params = importlib.import_module(f"{name}.params")
        self.training = importlib.import_module(f"{name}.training")
        spec = self.datasets.PlantedMotifSpec(seed=SEED)
        self.dataset = self.datasets.generate_planted_motif_dataset(spec, GRAPHS)
        self.config = self.training.TrainConfig(seed=SEED, epochs=1)
        self.state = self.training.pretrain(self.dataset, self.config)
        perm = np.random.default_rng(SEED).permutation(GRAPHS)
        n = self.config.batch_size
        self.batches = [[self.dataset[int(i)] for i in perm[lo:lo + n]]
                        for lo in range(0, n * STEPS, n)]

    def steps(self) -> tuple[dict, str]:
        """``STEPS`` steps from a copy of the fixed state: the median step's
        wall and CPU milliseconds, and a digest of the losses and parameters."""
        state = copy.deepcopy(self.state)
        wall, cpu, losses = [], [], []
        gc.collect()
        for batch in self.batches:
            w0, c0 = time.perf_counter(), time.process_time()
            state, report = self.training.train_step(state, batch, self.config)
            cpu.append(time.process_time() - c0)
            wall.append(time.perf_counter() - w0)
            losses.append(report.total)
        h = hashlib.sha256(np.asarray(losses).tobytes())
        for key, values in sorted(self.params.named_arrays(state.params).items()):
            h.update(key.encode())
            h.update(np.ascontiguousarray(values).tobytes())
        times = {"step.wall_ms": 1e3 * float(np.median(wall)),
                 "step.cpu_ms": 1e3 * float(np.median(cpu))}
        return times, h.hexdigest()

    def eval_pass(self) -> tuple[dict, str]:
        """One eval pass: wall and CPU milliseconds, whole and per part, and a
        digest of its results."""
        ev, ds, state, cfg = self.evaluation, self.dataset, self.state, self.config
        parts = {
            "embed": lambda: ev.embed_graphs(ds, state.encoder, cfg.encoder_config()),
            "probe": lambda: ev.linear_probe(emb, ds.labels(), split_seed=cfg.seed),
            "precision": lambda: ev.rationale_precision(ds, state.generator,
                                                        cfg.generator_config()),
            "cosines": lambda: ev.view_similarities(ds, state, cfg, sample_seed=cfg.seed),
        }
        times, results = {}, {}
        gc.collect()
        w_start, c_start = time.perf_counter(), time.process_time()
        for part in EVAL_PARTS:
            w0, c0 = time.perf_counter(), time.process_time()
            results[part] = parts[part]()
            times[f"eval.{part}.cpu_ms"] = 1e3 * (time.process_time() - c0)
            times[f"eval.{part}.wall_ms"] = 1e3 * (time.perf_counter() - w0)
            if part == "embed":
                emb = results[part]
        times["eval.cpu_ms"] = 1e3 * (time.process_time() - c_start)
        times["eval.wall_ms"] = 1e3 * (time.perf_counter() - w_start)
        probe, score = results["probe"], results["precision"]
        h = hashlib.sha256(np.ascontiguousarray(emb).tobytes())
        h.update(repr((probe.train_accuracy, probe.test_accuracy, probe.iterations,
                       np.float64(probe.grad_norm).tobytes(), score.mean_precision,
                       results["cosines"])).encode())
        return times, h.hexdigest()


def steal_ticks() -> int | None:
    """The machine's steal ticks so far, from the first line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 else None


def run_slot(tree) -> tuple[dict, tuple[str, str]]:
    step_times, step_digest = tree.steps()
    eval_times, eval_digest = tree.eval_pass()
    return {**step_times, **eval_times}, (step_digest, eval_digest)


def ratio_summary(a: list[float], b: list[float], rng) -> dict:
    """Each side's median, the median of the per-round B / A ratios with a
    bootstrap 95% interval over rounds, and the rounds B was faster."""
    a, b = np.asarray(a), np.asarray(b)
    ratios = b / a
    boots = np.median(rng.choice(ratios, size=(BOOTSTRAP, ratios.size)), axis=1)
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return {"a_median": float(np.median(a)), "b_median": float(np.median(b)),
            "ratio": float(np.median(ratios)), "ratio_ci95": [float(lo), float(hi)],
            "b_won": int((b < a).sum()), "rounds": int(ratios.size)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--a", required=True, help="the baseline tree's src directory")
    parser.add_argument("--b", required=True, help="the candidate tree's src directory")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--json", help="also write the summary and every round here")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")

    trees = [Tree(Path(args.a).resolve(), "rgcl_a"), Tree(Path(args.b).resolve(), "rgcl_b")]
    for tree in trees:  # warm-up: each graph's cached constants get built
        run_slot(tree)
    rounds = []
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        before = steal_ticks()
        slots = {0: [], 1: []}
        for _ in range(REPEATS):
            for i in order:
                slots[i].append(run_slot(trees[i]))
        after = steal_ticks()
        prints = {fp for side in slots.values() for _, fp in side}
        if len(prints) != 1:
            print(f"round {r}: the trees' fingerprints differ: {sorted(prints)}")
            return 1
        least = [{m: min(times[m] for times, _ in slots[i]) for m in slots[i][0][0]}
                 for i in (0, 1)]
        rounds.append({"first": "ab"[order[0]], "a": least[0], "b": least[1],
                       "steal_ticks": None if before is None else after - before})

    rng = np.random.default_rng(0)
    metrics = list(rounds[0]["a"])
    summary = {m: ratio_summary([x["a"][m] for x in rounds], [x["b"][m] for x in rounds], rng)
               for m in metrics}
    print(f"a = {trees[0].src}")
    print(f"b = {trees[1].src}")
    print(f"{GRAPHS} planted graphs, seed {SEED}, N = {trees[0].config.batch_size}, "
          f"{STEPS} steps and one eval pass per slot, {REPEATS} slots per tree per round, "
          f"{args.rounds} rounds, one BLAS thread; fingerprints equal in every slot")
    print(f"{'metric':<24}{'a median':>11}{'b median':>11}{'b/a':>8}  {'95% interval':<17}"
          f"{'b won':>6}")
    for m in metrics:
        s = summary[m]
        lo, hi = s["ratio_ci95"]
        print(f"{m:<24}{s['a_median']:>11.2f}{s['b_median']:>11.2f}{s['ratio']:>8.3f}  "
              f"[{lo:.3f}, {hi:.3f}]   {s['b_won']:>3}/{s['rounds']}")
    steals = [x["steal_ticks"] for x in rounds]
    print("steal ticks per round (and the side that ran first): "
          + " ".join(f"{s}({x['first']})" for s, x in zip(steals, rounds)))
    if args.json:
        out = {"a": str(trees[0].src), "b": str(trees[1].src), "graphs": GRAPHS,
               "seed": SEED, "steps_per_slot": STEPS, "slots_per_round": REPEATS,
               "summary": summary, "rounds": rounds}
        Path(args.json).write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
