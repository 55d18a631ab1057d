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
* the dataset hash of each seeded random TU directory that
  ``tests/oracles.py::write_random_tu`` writes (seeds 0-29).

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

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles import write_random_tu  # noqa: E402
from rgcl.cli import main  # noqa: E402
from rgcl.datasets import load_tu_dataset  # noqa: E402
from rgcl.graphs import dataset_hash  # noqa: E402
from rgcl.training import TrainConfig  # noqa: E402

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
    for seed in TU_SEEDS:
        directory = tmp / "tu" / str(seed)
        write_random_tu(directory, seed)
        lines.append(f"tu/{seed} {dataset_hash(load_tu_dataset(directory))}")
    return lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("\n".join(fingerprint(Path(tmp))))
