"""rgcl benchmark: workloads, closed loops, correctness checks and metrics.

Every workload is a closed loop with one caller in one process: the next
``train_step`` or eval pass starts only after the previous one returned.
The workload seed sets both ``PlantedMotifSpec.seed`` and
``TrainConfig.seed``; rgcl only ever sees the generated inputs. The untraced
run times ``train_step`` from outside with a single clock wrapper and gives
the end-to-end metrics. The traced run (``--trace 1``) wraps the functions
listed in ``tracer.PATCHES`` and gives the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import rgcl
from rgcl import datasets, evaluation, losses, training

import tracer as tr

LOSS_MATCH_TOL = 1e-9
EXPECTED_PASSES_PER_ANCHOR = 3.0
# Cycles every run makes, however short: two pretrain calls to compare and,
# in a traced run, one untraced and one traced cycle.
MIN_CYCLES = 2


@dataclass(frozen=True)
class Workload:
    """One closed loop of cycles over ``count`` graphs of ``PlantedMotifSpec()``
    with ``TrainConfig()`` defaults (N = 32).

    A cycle is a setup, one ``pretrain`` from scratch for ``epochs``
    epochs, then ``passes`` eval passes. On a ``pretrain`` workload the
    setup generates the dataset and the passes evaluate the state that
    ``pretrain`` trained. On an ``eval`` workload the setup also trains
    the state with that ``pretrain`` and reloads its checkpoint, and the
    passes evaluate it. The machine's speed drifts over seconds to
    minutes, so every cycle runs every kind of operation: each metric then
    samples the whole run, not one stretch of it.
    """

    name: str
    why: str
    kind: str  # "pretrain" or "eval": which operations the per-layer metrics cover
    count: int
    epochs: int
    passes: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pretrain-planted",
            why="ROADMAP's headline config: 500 planted-motif graphs, N=32; the per-graph "
            "scorer and the per-anchor loss dominate a step",
            kind="pretrain",
            count=500,
            epochs=2,
            passes=1,
        ),
        Workload(
            name="eval-planted",
            why="repeated rgcl-eval passes (embed, probe, precision, cosines) over the 500 "
            "planted graphs: inference with one-off batches and no tape",
            kind="eval",
            count=500,
            epochs=1,
            passes=4,
        ),
    )
}

# (name, unit, better); failed_ops_share is printed too but travels as the
# result's attempted/failed counts, since it is 0 on a healthy run.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("epoch_s", "s", "lower"),
    ("step_ms_p50", "ms", "lower"),
    ("step_ms_p90", "ms", "lower"),
    ("eval_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_TRACE_EXTRAS = (
    ("training.train_step.anchors", "count", "higher"),
    ("encoder.passes_per_anchor", "count", "lower"),
    ("autodiff.tape_records", "count", "lower"),
    ("evaluation.linear_probe.iterations", "count", "lower"),
    ("trace.coverage", "share", "higher"),
    ("trace.overhead_share", "share", "lower"),
)

PER_LAYER = tuple(
    (f"{name}.{key}", unit, "lower")
    for name in tr.SPAN_NAMES
    for key, unit in (("ms", "ms"), ("self_ms", "ms"), ("calls", "count"))
) + _TRACE_EXTRAS


# ---------------------------------------------------------------------------
# machine context


def _blas_threads():
    """OpenBLAS's own thread count, read through its C API when reachable."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs_dir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path) -> str:
    """HEAD's commit read from .git files; "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_context(root: Path, workload: str, seed: int, trace: bool) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "workload_seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(root),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# measurement helpers


class StepClock:
    """Start/end of every ``train_step`` that ``pretrain`` makes.

    The one wrapper the untraced run installs; it takes two clock reads
    per step.
    """

    def __init__(self):
        self.marks: list[tuple[float, float]] = []

    @contextlib.contextmanager
    def installed(self):
        original = training.train_step

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.marks.append((start, time.perf_counter()))

        training.train_step = timed
        try:
            yield self
        finally:
            training.train_step = original


@dataclass
class Rep:
    """One pretrain call: its steps' clock marks, result and artifacts."""

    start: float
    marks: list[tuple[float, float]]
    state: object | None
    error: str | None
    metrics_bytes: bytes = b""
    traced: bool = False
    problems: list[str] = field(default_factory=list)

    @property
    def step_ms(self) -> list[float]:
        return [(b - a) * 1e3 for a, b in self.marks]


@dataclass
class EvalPass:
    seconds: float
    fingerprint: tuple | None
    traced: bool = False
    problems: list[str] = field(default_factory=list)


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# ---------------------------------------------------------------------------
# one benchmark run


class BenchRun:
    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.spec = datasets.PlantedMotifSpec(seed=seed)
        self.config = training.TrainConfig(seed=seed, epochs=workload.epochs)
        self.clock = StepClock()
        self.tracer = tr.Tracer() if trace else None
        self.pristine = tr.current_targets()
        self.setup_seconds: list[float] = []
        self.dataset_hashes: set[str] = set()
        self.reps: list[Rep] = []
        self.passes: list[EvalPass] = []
        self.problems: list[str] = []  # failed checks outside any op
        self.notes: list[str] = []  # reported findings that fail no op
        self.attempted = 0
        self.failed = 0

    # -- tracing on/off ----------------------------------------------------

    def _check_pristine(self, where: str) -> None:
        now = tr.current_targets()
        for key, fn in now.items():
            if fn is not self.pristine[key] or tr.is_wrapper(fn):
                raise RuntimeError(f"{key[0]}.{key[1]} is still patched {where}")

    def _traced(self, on: bool):
        if on and self.tracer is not None:
            return self.tracer.installed()
        return contextlib.nullcontext()

    def _region(self, name: str, op_kind: str, traced: bool):
        if traced and self.tracer is not None:
            return self.tracer.span(name, op_kind)
        return contextlib.nullcontext()

    # -- setup -------------------------------------------------------------

    def setup(self, cycle: int, traced: bool):
        """Build one cycle's inputs; returns ``(dataset, state to evaluate)``.

        Every cycle sets up afresh, so the setup samples spread over the
        run like the others. On an eval workload the setup also trains the
        evaluated state with a short ``pretrain`` and reloads its final
        checkpoint, as ``rgcl eval`` would; those steps are the run's
        training steps.
        """
        gc.collect()
        start = time.perf_counter()
        state = None
        with self._region(tr.SETUP, "setup", traced):
            dataset = datasets.generate_planted_motif_dataset(self.spec, self.wl.count)
            if self.wl.kind == "eval":
                tag = f"setup-{cycle}"
                rep = self._pretrain(dataset, tag, traced)
                if rep.error is None:
                    try:
                        state, _ = training.load_checkpoint(
                            self.workdir / tag / "ckpt_final.json", expected_config=self.config
                        )
                    except ValueError as exc:
                        self.problems.append(f"final checkpoint does not load: {exc}")
                        self.attempted += 1
                        self.failed += 1
        self.setup_seconds.append(time.perf_counter() - start)
        self.dataset_hashes.add(rgcl.dataset_hash(dataset))
        return dataset, state

    # -- pretrain repetitions ------------------------------------------------

    def _pretrain(self, dataset, tag: str, traced: bool = False) -> Rep:
        traced = traced and self.tracer is not None
        out_dir = self.workdir / tag
        first_mark = len(self.clock.marks)
        start = time.perf_counter()
        try:
            state = training.pretrain(dataset, self.config, output_dir=out_dir)
            error = None
        except Exception as exc:  # a failing step is counted, not fatal
            state, error = None, f"{type(exc).__name__}: {exc}"
        rep = Rep(start=start, marks=self.clock.marks[first_mark:], state=state,
                  error=error, traced=traced)
        metrics = out_dir / "metrics.jsonl"
        if metrics.is_file():
            rep.metrics_bytes = metrics.read_bytes()
        if error is None and not (out_dir / "ckpt_final.json").is_file():
            rep.problems.append("pretrain wrote no final checkpoint")
        self._check_rep(rep, len(dataset))
        self.reps.append(rep)
        return rep

    def _steps_per_epoch(self, m: int) -> int:
        return math.ceil(m / self.config.batch_size)

    def _check_rep(self, rep: Rep, m: int) -> None:
        p = rep.problems
        expected_steps = self.config.epochs * self._steps_per_epoch(m)
        if rep.error is not None:
            p.append(f"pretrain raised {rep.error}")
        else:
            losses_seen = rep.state.loss_history
            if len(losses_seen) != expected_steps or len(rep.marks) != expected_steps:
                p.append(f"expected {expected_steps} steps, saw {len(rep.marks)}")
            if not all(math.isfinite(v) for v in losses_seen):
                p.append("non-finite loss")
            q = max(1, len(losses_seen) // 4)
            if not np.mean(losses_seen[-q:]) < np.mean(losses_seen[:q]):
                p.append(f"loss did not fall: first quarter {np.mean(losses_seen[:q]):.4f}, "
                         f"last quarter {np.mean(losses_seen[-q:]):.4f}")
            passes = rep.state.encoder_passes.graphs / max(rep.state.anchors_seen, 1)
            if passes != EXPECTED_PASSES_PER_ANCHOR:
                p.append(f"passes_per_anchor {passes} != {EXPECTED_PASSES_PER_ANCHOR}")
            if rep.metrics_bytes.count(b"\n") != len(losses_seen):
                p.append("metrics.jsonl does not hold one line per step")
            ref = next((r for r in self.reps if r.error is None), None)
            if ref is not None and (
                losses_seen != ref.state.loss_history or rep.metrics_bytes != ref.metrics_bytes
            ):
                p.append("loss sequence differs from the run's first repetition")
        ops = max(len(rep.marks), expected_steps if rep.error is None else 1)
        self.attempted += ops
        if p:
            self.failed += ops

    # -- eval passes ---------------------------------------------------------

    def _eval_pass(self, dataset, state, traced: bool) -> EvalPass:
        traced = traced and self.tracer is not None
        cfg = self.config
        gc.collect()
        start = time.perf_counter()
        try:
            with self._region(tr.EVAL_PASS, "pass", traced):
                emb = evaluation.embed_graphs(dataset, state.encoder, cfg.encoder_config())
                finite = bool(np.isfinite(emb).all())
                probe = evaluation.linear_probe(emb, dataset.labels(), split_seed=cfg.seed)
                score = evaluation.rationale_precision(
                    dataset, state.generator, cfg.generator_config()
                )
                pos, comp = evaluation.view_similarities(
                    dataset, state, cfg, sample_seed=cfg.seed
                )
            error = None
        except Exception as exc:  # a failing pass is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if error is not None:
            ev = EvalPass(seconds, None, traced, [f"eval pass raised {error}"])
        else:
            fingerprint = (
                hashlib.sha256(np.ascontiguousarray(emb).tobytes()).hexdigest(),
                probe.train_accuracy, probe.test_accuracy, probe.iterations,
                score.mean_precision, score.random_baseline, pos, comp,
            )
            ev = EvalPass(seconds, fingerprint, traced)
            self._check_pass(ev, finite, probe, score, pos, comp)
        self.attempted += 1
        if ev.problems:
            self.failed += 1
        self.passes.append(ev)
        return ev

    def _check_pass(self, ev: EvalPass, finite, probe, score, pos, comp) -> None:
        p = ev.problems
        if not finite:
            p.append("embeddings are not finite")
        if not (0.0 <= probe.train_accuracy <= 1.0 and 0.0 <= probe.test_accuracy <= 1.0):
            p.append("probe accuracy outside [0, 1]")
        if not 0.0 <= score.mean_precision <= 1.0:
            p.append(f"rationale precision {score.mean_precision} outside [0, 1]")
        if not all(math.isfinite(c) and abs(c) <= 1.0 + 1e-9 for c in (pos, comp)):
            p.append(f"view cosines out of range: {pos}, {comp}")
        if not pos > comp:
            p.append(f"positive cosine {pos:.4f} <= complement cosine {comp:.4f}")
        ref = next((e for e in self.passes if e.fingerprint is not None), None)
        if ref is not None and ev.fingerprint != ref.fingerprint:
            p.append("eval results differ from the run's first pass")
        # Below-baseline precision after a short pretrain happens on about one
        # seed in five of the planted data (seeds 8, 13, 14, 18 and 19 of 1-24
        # stay below it through 4 epochs), so it is reported, not counted.
        if not score.mean_precision >= score.random_baseline:
            note = (f"rationale precision {score.mean_precision:.4f} is below the random "
                    f"baseline {score.random_baseline:.4f}")
            if note not in self.notes:
                self.notes.append(note)

    # -- post-loop check -------------------------------------------------------

    def batched_loss_check(self, dataset, state) -> None:
        """The batched loss on one fixed-seed batch against the per-anchor
        reference terms of ``rgcl.losses``. Counts as one operation."""
        cfg = self.config
        self.attempted += 1
        problem = None
        try:
            graphs = list(dataset.graphs[: cfg.batch_size])
            rng = np.random.default_rng(self.seed)
            sel = training.sample_selections(graphs, state.generator, cfg, rng)
            views = training.encode_views(
                graphs, sel, state.encoder, state.generator, state.projector, cfg
            )
            total, report = losses.rgcl_loss(views, cfg.tau, cfg.lam)
            n = views.num_anchors
            su = [losses.sufficiency_loss(views, i, cfg.tau).item() for i in range(n)]
            ind = [losses.independence_loss(views, i, cfg.tau).item() for i in range(n)]
            ref_total = sum(s + cfg.lam * x for s, x in zip(su, ind)) / n
            gaps = (
                abs(total.item() - ref_total),
                abs(report.l_su - sum(su) / n),
                abs(report.l_in - sum(ind) / n),
            )
            if not max(gaps) <= LOSS_MATCH_TOL:
                problem = f"batched loss differs from per-anchor reference by {max(gaps)}"
        except Exception as exc:  # a failing check is counted, not fatal
            problem = f"batched loss check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            self.problems.append(problem)
            self.failed += 1

    # -- the whole run -----------------------------------------------------------

    def run(self) -> None:
        self._check_pristine("before the run")
        deadline = time.perf_counter() + self.seconds
        dataset = state = None
        with self.clock.installed():
            i = 0
            while i < MIN_CYCLES or time.perf_counter() < deadline:
                # the traced run alternates untraced and traced cycles, so both
                # see the same machine state and their gap is the overhead
                traced = self.trace and i % 2 == 1
                with self._traced(traced):
                    dataset, state = self.setup(i, traced)
                    if self.wl.kind == "pretrain":
                        state = self._pretrain(dataset, f"rep-{i}", traced).state
                    for _ in range(self.wl.passes):
                        if state is None or (
                            i >= MIN_CYCLES and time.perf_counter() >= deadline
                        ):
                            break
                        self._eval_pass(dataset, state, traced)
                shutil.rmtree(self.workdir / f"setup-{i}", ignore_errors=True)
                shutil.rmtree(self.workdir / f"rep-{i}", ignore_errors=True)
                gc.collect()
                i += 1
        self._check_pristine("after the timed loop")
        if len(self.dataset_hashes) != 1:
            self.problems.append("setups generated different datasets for one seed")
        with self._traced(True):
            if state is not None:
                self.batched_loss_check(dataset, state)
            else:
                self.attempted += 1
                self.failed += 1
                self.problems.append("no trained state to check")
        self._check_pristine("after the run")

    # -- results --------------------------------------------------------------------

    def _epoch_seconds(self, reps: list[Rep]) -> list[float]:
        spe = self._steps_per_epoch(self.wl.count)
        out = []
        for rep in reps:
            if rep.error is not None or len(rep.marks) != spe * self.config.epochs:
                continue
            prev = rep.start
            for e in range(self.config.epochs):
                end = rep.marks[(e + 1) * spe - 1][1]
                out.append(end - prev)
                prev = end
        return out

    def end_to_end(self) -> tuple[dict, dict]:
        """Metric values and their sample counts, from untraced operations."""
        reps = [r for r in self.reps if not r.traced]
        steps = [ms for r in reps for ms in r.step_ms]
        epochs = self._epoch_seconds(reps)
        passes = [e.seconds for e in self.passes if not e.traced]
        nan = float("nan")
        values = {
            "setup_s": statistics.median(self.setup_seconds),
            "epoch_s": statistics.median(epochs) if epochs else nan,
            "step_ms_p50": _pct(steps, 50) if steps else nan,
            "step_ms_p90": _pct(steps, 90) if steps else nan,
            "eval_s": statistics.median(passes) if passes else nan,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = {
            "setup_s": len(self.setup_seconds),
            "epoch_s": len(epochs),
            "step_ms_p50": len(steps),
            "step_ms_p90": len(steps),
            "eval_s": len(passes),
            "peak_rss_mb": 1,
        }
        return values, samples

    def per_layer(self) -> dict:
        t = self.tracer
        primary = "step" if self.wl.kind == "pretrain" else "pass"
        summary = t.summarize(primary)
        setup = t.summarize("setup")
        values = {}
        for name in tr.SPAN_NAMES:
            entry = setup[name] if name == "datasets.generate_planted_motif_dataset" else summary[name]
            for key in ("ms", "self_ms", "calls"):
                values[f"{name}.{key}"] = entry[key]
        states = [r.state for r in self.reps if r.state is not None and r.state.anchors_seen]
        values["encoder.passes_per_anchor"] = (
            sum(s.encoder_passes.graphs for s in states) / sum(s.anchors_seen for s in states)
            if states else 0.0
        )
        values["training.train_step.anchors"] = t.counter_mean("training.train_step.anchors", primary)
        values["autodiff.tape_records"] = t.counter_mean("autodiff.tape_records", primary)
        values["evaluation.linear_probe.iterations"] = t.counter_mean(
            "evaluation.linear_probe.iterations", primary
        )
        values["trace.coverage"] = t.coverage(tr.STEP if primary == "step" else tr.EVAL_PASS)
        if self.wl.kind == "pretrain":
            ok = [r for r in self.reps if r.error is None]
            plain = [ms for r in ok if not r.traced for ms in r.step_ms]
            traced = [ms for r in ok if r.traced for ms in r.step_ms]
        else:
            plain = [e.seconds for e in self.passes if not e.traced]
            traced = [e.seconds for e in self.passes if e.traced]
        values["trace.overhead_share"] = (
            statistics.median(traced) / statistics.median(plain) - 1.0
            if plain and traced else float("nan")
        )
        return values

    @property
    def ok(self) -> bool:
        return self.failed == 0 and not self.problems


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run one workload and return the full record (context added by the caller)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix="tmp-") as tmp:
        run = BenchRun(workload, seed, seconds, trace, Path(tmp))
        run.run()
    e2e, samples = (None, None) if trace else run.end_to_end()
    record = {
        "correct": run.ok,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_ops_share": run.failed / run.attempted,
        "end_to_end": e2e,
        "samples": samples,
        "problems": run.problems
        + [p for r in run.reps for p in r.problems]
        + [p for e in run.passes for p in e.problems],
        "notes": run.notes,
        "per_layer": run.per_layer() if trace else None,
        "tracer": run.tracer,
    }
    return record


def result_line(record: dict, trace: bool) -> dict:
    """The last stdout line: exactly correct/attempted/failed/metrics."""
    table = PER_LAYER if trace else END_TO_END
    values = record["per_layer"] if trace else record["end_to_end"]
    return {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in table},
    }


def _report(record: dict, context: dict, trace: bool) -> None:
    print(f"rgcl benchmark: workload {context['workload']}, seed {context['workload_seed']}, "
          f"{'traced' if trace else 'untraced'}")
    print("context " + json.dumps(context, sort_keys=True))
    if trace:
        rows = [(n, record["per_layer"][n], u, "") for n, u, _ in PER_LAYER]
    else:
        rows = [(n, record["end_to_end"][n], u, f"n={record['samples'][n]}")
                for n, u, _ in END_TO_END]
    rows.append(("failed_ops_share", record["failed_ops_share"], "share",
                 f"{record['failed']}/{record['attempted']} ops"))
    width = max(len(r[0]) for r in rows)
    for name, value, unit, note in rows:
        print(f"  {name:<{width}}  {value:>12.4f}  {unit:<6} {note}")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")
    for note in record["notes"]:
        print(f"  note: {note}")


def main(argv, root: Path) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    src = (root / "src").resolve()
    if src not in Path(rgcl.__file__).resolve().parents:
        print(f"perfbench: rgcl was imported from {rgcl.__file__}, not {src}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    out_dir = root / ".perfbench_out"
    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, trace, out_dir)
    context = machine_context(root, args.workload, args.seed, trace)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if trace:
        record["tracer"].write(out_dir / f"{stem}-spans.csv.gz")
    saved = {k: v for k, v in record.items() if k != "tracer"}
    (out_dir / f"{stem}.json").write_text(
        json.dumps({"context": context, **saved}, indent=2, sort_keys=True) + "\n"
    )
    _report(record, context, trace)
    line = result_line(record, trace)
    missing = [k for k, v in line["metrics"].items() if not math.isfinite(v["value"])]
    if missing:
        print(f"perfbench: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0
