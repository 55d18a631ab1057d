"""Print sha256 digests of the artifacts that the ``rgcl`` on ``PYTHONPATH`` produces.

Run it once per source tree and compare the two outputs to check that a change
keeps every artifact byte for byte:

    PYTHONPATH=src python scripts/fingerprint.py > after.txt
    PYTHONPATH=/path/to/other/checkout/src python scripts/fingerprint.py > before.txt
    diff before.txt after.txt

It covers:

* the dataset ``rgcl synth --count 200`` writes, and the hash it prints;
* for each of the variants ``full``, ``no_rv`` and ``no_i``, trained on those
  200 graphs with ``TrainConfig(seed=1, epochs=2)``: ``metrics.jsonl`` and
  ``ckpt_final.json`` from ``rgcl pretrain``, ``results.json`` from
  ``rgcl eval`` (probe, rationale precision, view cosines) and the
  ``rgcl rationale`` export;
* the same four artifacts for a ``swapped`` run: variant ``full`` with a GCN
  encoder, a GIN generator and mean pooling, so that each message-passing
  layer type runs both as the encoder and as the scorer, on the tape;
* each cell's ``results.json`` and the ``sweep.csv`` of a one-cell
  ``rgcl sweep`` (grid ``{"seeds": [1]}``) on the same 200 graphs, which
  runs ``evaluation.run_ablation``;
* the dataset hash of each seeded random TU directory that
  ``tests/oracles.py::write_random_tu`` writes (seeds 0-29);
* the dataset hash of the benchmark's own input: 500 graphs of
  ``PlantedMotifSpec(seed=1)``, which ``perfbench`` generates in each setup;
* on that input, after a one-epoch ``TrainConfig(seed=1)`` pretrain, the
  ``embed_graphs`` embeddings and the two ``view_similarities`` mean cosines
  (views drawn from the config's seed), as ``eval-planted`` computes them.
  Their 500-graph batches are the ones large enough to scatter edge messages
  in several column blocks;
* with that state's scorer, one ``sample_rationale`` and one
  ``sample_complement`` view of each of the first four of those graphs at
  rho 0.3 and 1.0, each drawn from ``default_rng(graph index)``: the kept
  nodes, the subgraph's arrays and the attribution bytes, in one digest.

The script and ``tests/oracles.py`` come from this checkout; only the package
comes from ``PYTHONPATH``. A run takes a few seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles import write_random_tu  # noqa: E402
from rgcl.cli import main  # noqa: E402
from rgcl.datasets import (  # noqa: E402
    PlantedMotifSpec, generate_planted_motif_dataset, load_tu_dataset,
)
from rgcl.evaluation import embed_graphs, view_similarities  # noqa: E402
from rgcl.graphs import dataset_hash  # noqa: E402
from rgcl.rationale import attribute_nodes, sample_complement, sample_rationale  # noqa: E402
from rgcl.training import TrainConfig, pretrain  # noqa: E402

# (run name, variant, TrainConfig fields set on top of seed=1, epochs=2)
RUNS = (
    ("full", "full", {}),
    ("no_rv", "no_rv", {}),
    ("no_i", "no_i", {}),
    ("swapped", "full", {"encoder_gnn": "gcn", "generator_gnn": "gin", "pooling": "mean"}),
)
TU_SEEDS = range(30)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def array_digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for values in arrays:
        h.update(np.ascontiguousarray(values).tobytes())
    return h.hexdigest()


def run(argv: list[str]) -> str:
    """Run one ``rgcl`` command and return its standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"rgcl {' '.join(argv)} exited {code}")
    return out.getvalue()


def fingerprint(tmp: Path) -> list[str]:
    lines = []
    data = tmp / "data.json"
    printed = run(["synth", "--count", "200", "--out", str(data)])
    lines.append(f"synth/data.json {digest(data)}")
    lines.append(f"synth/{printed.splitlines()[-1]}")
    for name, variant, fields in RUNS:
        out = tmp / name
        config = TrainConfig(seed=1, epochs=2, **fields).to_dict()
        config.update(dataset={"json": str(data)}, output_dir=str(out))
        config_path = tmp / f"{name}.json"
        config_path.write_text(json.dumps(config))
        ckpt = out / "ckpt_final.json"
        run(["pretrain", "--config", str(config_path), "--variant", variant])
        run(["eval", "--config", str(config_path), "--checkpoint", str(ckpt),
             "--variant", variant])
        export = out / "rationale.json"
        run(["rationale", "--checkpoint", str(ckpt), "--dataset", str(data),
             "--out", str(export)])
        for artifact in ("metrics.jsonl", "ckpt_final.json", "results.json", "rationale.json"):
            lines.append(f"{name}/{artifact} {digest(out / artifact)}")
    out = tmp / "sweep"
    config = TrainConfig(seed=1, epochs=2).to_dict()
    config.update(dataset={"json": str(data)}, output_dir=str(out))
    (tmp / "sweep.json").write_text(json.dumps(config))
    (tmp / "grid.json").write_text(json.dumps({"seeds": [1]}))
    run(["sweep", "--config", str(tmp / "sweep.json"), "--grid", str(tmp / "grid.json")])
    for cell in sorted(out.glob("*/results.json")):
        lines.append(f"sweep/{cell.parent.name}/results.json {digest(cell)}")
    lines.append(f"sweep/sweep.csv {digest(out / 'sweep.csv')}")
    for seed in TU_SEEDS:
        directory = tmp / "tu" / str(seed)
        write_random_tu(directory, seed)
        lines.append(f"tu/{seed} {dataset_hash(load_tu_dataset(directory))}")
    bench = generate_planted_motif_dataset(PlantedMotifSpec(seed=1), 500)
    lines.append(f"planted/seed1-500 {dataset_hash(bench)}")
    config = TrainConfig(seed=1, epochs=1)
    state = pretrain(bench, config)
    emb = embed_graphs(bench, state.encoder, config.encoder_config())
    cosines = np.array(view_similarities(bench, state, config, sample_seed=config.seed))
    lines.append(f"planted/seed1-500/embed_graphs {array_digest(emb)}")
    lines.append(f"planted/seed1-500/view_similarities {array_digest(cosines)}")
    for i, g in enumerate(bench.graphs[:4]):
        scores = attribute_nodes(g, state.generator, config.generator_config())
        for sample in (sample_rationale, sample_complement):
            for rho in (0.3, 1.0):
                view = sample(g, scores, rho, np.random.default_rng(i))
                sub = view.subgraph
                parts = (view.kept, sub.node_features, sub.edges, sub.rationale_mask,
                         view.attribution.values)
                name = f"planted/seed1-500/{i}/{sample.__name__}/rho{rho}"
                lines.append(f"{name} {array_digest(*parts)}")
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(fingerprint(Path(tmp))))
