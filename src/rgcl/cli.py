"""Command-line front end: synth / pretrain / eval / rationale / sweep.

All commands read JSON configs, run deterministically for a given seed,
and overwrite their outputs identically when re-run. Exit codes: 0 on
success, 2 for configuration problems, 3 for dataset or artifact problems,
4 for numeric failures during training.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import itertools
import json
import os
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from .autodiff import NumericError
from .datasets import PlantedMotifSpec, generate_planted_motif_dataset, load_tu_dataset
from .evaluation import read_out, run_ablation, view_similarities
from .graphs import (
    GraphDataset, GraphFormatError, dataset_hash, load_dataset_json, read_json_object,
    require_int, save_dataset_json, write_text_atomic,
)
from .rationale import export_rationales
from .training import (
    CheckpointFormatError,
    TrainConfig,
    TrainState,
    load_checkpoint,
    normalize_variant,
    pretrain,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

DATASET_SOURCES = ("tu", "json", "synthetic")


class ConfigError(ValueError):
    """The run configuration is malformed; reported before any compute."""


def _spec_from_dict(d: dict) -> PlantedMotifSpec:
    try:
        return PlantedMotifSpec(**d)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"synthetic spec: {exc}") from exc


@dataclasses.dataclass(frozen=True)
class RunConfig:
    train: TrainConfig
    load_dataset: Callable[[], GraphDataset]  # the checked "dataset" entry's loader
    output_dir: Path


def _path_string(field: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{field} must be a path string, got {value!r}")
    return value


def _dataset_loader(source) -> Callable[[], GraphDataset]:
    """Check the "dataset" entry and bind the loader of its one source: the
    TU or JSON reader to its path, or the generator to its spec and count."""
    if not (isinstance(source, dict) and len(source) == 1 and set(source) <= set(DATASET_SOURCES)):
        raise ConfigError(f'"dataset" must name one source of {DATASET_SOURCES}, got {source!r}')
    [(kind, value)] = source.items()
    if kind != "synthetic":
        reader = load_tu_dataset if kind == "tu" else load_dataset_json
        return functools.partial(reader, _path_string(f"dataset.{kind}", value))
    if not isinstance(value, dict) or "count" not in value:
        raise ConfigError('synthetic source needs {"spec": {...}, "count": M}')
    spec = _spec_from_dict(value.get("spec", {}))
    try:
        count = require_int("count", value["count"])
    except ValueError as exc:
        raise ConfigError(f"synthetic {exc}") from exc
    if count < 1:
        raise ConfigError("synthetic count must be >= 1")
    return functools.partial(generate_planted_motif_dataset, spec, count)


def load_run_config(path) -> RunConfig:
    """Parse and fully validate a run config before any compute happens.

    The file holds training fields (JSON key "lambda" maps onto the
    keyword-safe field name), a single dataset source, and an output
    directory. The RGCL_SEED environment variable, when set, overrides the
    configured seed.
    """
    payload = read_json_object(path, ConfigError, "config")
    if "dataset" not in payload:
        raise ConfigError('config needs a "dataset" entry')
    load_dataset = _dataset_loader(payload.pop("dataset"))
    if "output_dir" not in payload:
        raise ConfigError('config needs an "output_dir" entry')
    output_dir = Path(_path_string("output_dir", payload.pop("output_dir")))

    if "lambda" in payload:
        payload["lam"] = payload.pop("lambda")
    env_seed = os.environ.get("RGCL_SEED")
    if env_seed is not None:
        try:
            payload["seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"RGCL_SEED must be an integer, got {env_seed!r}") from exc
    try:
        train = TrainConfig.from_dict(payload)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(train=train, load_dataset=load_dataset, output_dir=output_dir)


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    spec_dict = read_json_object(args.spec, ConfigError, "spec") if args.spec else {}
    spec = _spec_from_dict(spec_dict)
    if args.count < 1:
        raise ConfigError("--count must be >= 1")
    ds = generate_planted_motif_dataset(spec, args.count)
    out = Path(args.out)
    save_dataset_json(ds, out)
    print(f"wrote {len(ds)} graphs to {out}")
    print(f"dataset hash: {dataset_hash(ds)}")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    run = load_run_config(args.config)
    variant = normalize_variant(args.variant)
    dataset = run.load_dataset()
    state = pretrain(dataset, run.train, output_dir=run.output_dir, variant=variant)
    final = state.loss_history[-1] if state.loss_history else float("nan")
    print(f"pretrained {variant}: {state.step} steps, final loss {final:.6f}")
    print(f"artifacts in {run.output_dir}")
    return EXIT_OK


def _check_feature_width(dataset: GraphDataset, state: TrainState) -> None:
    """Refuse a dataset whose node features the checkpoint's networks cannot
    take, before any compute."""
    if dataset.feature_dim != state.input_dim:
        raise GraphFormatError(
            f"dataset feature width {dataset.feature_dim} does not match "
            f"the checkpoint's input width {state.input_dim}"
        )


def _summary_table(rows: list[tuple[str, str]]) -> str:
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def cmd_eval(args) -> int:
    run = load_run_config(args.config)
    variant = normalize_variant(args.variant)
    state, config = load_checkpoint(args.checkpoint, expected_config=run.train)
    dataset = run.load_dataset()
    _check_feature_width(dataset, state)
    probe, rationale = read_out(dataset, state, config)
    result = {
        "variant": variant,
        "seed": config.seed,
        "probe": probe.to_dict(),
        "rationale": None if rationale is None else rationale.to_dict(),
    }
    rows = [
        ("variant", variant),
        ("probe train acc", f"{probe.train_accuracy:.4f}"),
        ("probe test acc", f"{probe.test_accuracy:.4f}"),
    ]
    if rationale is not None:
        rows.append(("rationale precision", f"{rationale.mean_precision:.4f}"))
        rows.append(("random baseline", f"{rationale.random_baseline:.4f}"))
    if variant != "no_independence":
        pos, comp = view_similarities(
            dataset, state, config, sample_seed=config.seed, variant=variant
        )
        result["view_cosines"] = {"positive": pos, "complement": comp}
        rows.append(("view cosine r1*r2", f"{pos:.4f}"))
        rows.append(("view cosine r1*c", f"{comp:.4f}"))
    out_path = run.output_dir / "results.json"
    write_text_atomic(out_path, json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(_summary_table(rows))
    print(f"results written to {out_path}")
    return EXIT_OK


def cmd_rationale(args) -> int:
    state, config = load_checkpoint(args.checkpoint)
    src = Path(args.dataset)
    dataset = (load_tu_dataset if src.is_dir() else load_dataset_json)(src)
    _check_feature_width(dataset, state)
    records = export_rationales(
        dataset, state.generator, config.generator_config(), rho=config.rho
    )
    out = Path(args.out)
    write_text_atomic(out, json.dumps(records, indent=2) + "\n")
    print(f"exported per-node probabilities for {len(records)} graphs to {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    run = load_run_config(args.config)
    grid = read_json_object(args.grid, ConfigError, "grid")
    defaults = {"tau": run.train.tau, "lambda": run.train.lam, "rho": run.train.rho,
                "seeds": run.train.seed}
    unknown = set(grid) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown grid keys: {sorted(unknown)} (allowed: {sorted(defaults)})")
    axes = [grid.get(key, [default]) for key, default in defaults.items()]
    for key, values in zip(defaults, axes):
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid entry {key!r} must be a non-empty JSON list, got {values!r}")
    cells = []
    for tau, lam, rho, seed in itertools.product(*axes):
        try:
            cell_cfg = dataclasses.replace(run.train, tau=tau, lam=lam, rho=rho, seed=seed)
        except ValueError as exc:
            raise ConfigError(f"grid cell tau={tau} lambda={lam} rho={rho}: {exc}") from exc
        cells.append((tau, lam, rho, seed, cell_cfg))

    dataset = run.load_dataset()
    dataset.labels()  # unlabeled data fails here, before the first cell trains
    rows = []
    for tau, lam, rho, seed, cell_cfg in cells:
        cell_dir = run.output_dir / f"tau{tau}_lam{lam}_rho{rho}_seed{seed}"
        result = run_ablation("full", dataset, cell_cfg, output_dir=cell_dir)
        write_text_atomic(
            cell_dir / "results.json",
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n",
        )
        precision = "" if result.rationale is None else result.rationale.mean_precision
        rows.append([tau, lam, rho, seed, result.probe.test_accuracy, precision])
        print(
            f"cell tau={tau} lambda={lam} rho={rho} seed={seed}: "
            f"probe {result.probe.test_accuracy:.4f}"
        )

    csv_path = run.output_dir / "sweep.csv"
    table = io.StringIO()
    writer = csv.writer(table)
    writer.writerow(["tau", "lambda", "rho", "seed", "probe_test_acc", "rationale_precision"])
    writer.writerows(rows)
    write_text_atomic(csv_path, table.getvalue())
    print(f"aggregate written to {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rgcl",
        description="Rationale-aware graph contrastive learning at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted-motif dataset")
    p.add_argument("--spec", help="JSON file of generator knobs (optional)")
    p.add_argument("--count", type=int, required=True, help="number of graphs")
    p.add_argument("--out", required=True, help="output dataset JSON path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("pretrain", help="run self-supervised pre-training")
    p.add_argument("--config", required=True)
    p.add_argument("--variant", default="full",
                   help="full | no_rv | no_i (ablations)")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("eval", help="probe + rationale scores for a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--variant", default="full")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rationale", help="export per-node probabilities")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True,
                   help="dataset JSON file or TU-format directory")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rationale)

    p = sub.add_parser("sweep", help="grid over tau / lambda / rho")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", required=True)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # every inf or NaN these would warn about ends in a NumericError (exit 4)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except (GraphFormatError, CheckpointFormatError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:  # ConfigError among them
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
