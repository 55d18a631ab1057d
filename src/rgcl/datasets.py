"""Dataset ingestion: TU-style benchmark directories and a synthetic
planted-motif benchmark with per-node ground truth.

The planted-motif generator builds graphs whose class is carried by a small
motif (both its wiring and a feature signature), embedded in an
Erdos-Renyi background of feature noise. Because the salient nodes are known
exactly, rationale extraction can be scored against ground truth instead of
eyeballed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import (
    Graph, GraphDataset, GraphFormatError, canonical_edges, check_field_types, read_text,
)


# ---------------------------------------------------------------------------
# TU-format loader
#
# Directory layout (1-based indices throughout):
#   <name>_A.txt               one "i, j" edge per line
#   <name>_graph_indicator.txt graph id for each node, one per line
#   <name>_graph_labels.txt    optional, one label per graph
#   <name>_node_labels.txt     optional, one integer label per node


def _read_int_rows(path: Path, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Parse each non-blank line of a TU text file as ``width`` integers separated by
    commas or whitespace. Returns the rows [k, width] and their 1-based line numbers."""
    rows, line_numbers = [], []
    for ln, raw in enumerate(read_text(path, GraphFormatError, "TU").splitlines(), start=1):
        parts = raw.replace(",", " ").split()
        if not parts:
            continue
        try:
            rows.append(np.array([int(p) for p in parts], dtype=np.int64).reshape(width))
        except (OverflowError, ValueError) as exc:
            raise GraphFormatError(
                f"{path.name} line {ln}: expected {width} integer(s), got {raw.strip()!r}"
            ) from exc
        line_numbers.append(ln)
    return np.array(rows, dtype=np.int64).reshape(-1, width), np.array(line_numbers)


def load_tu_dataset(directory) -> GraphDataset:
    """Load a TU-style dataset directory into a :class:`GraphDataset`.

    Node features are one-hot encodings of ``_node_labels.txt`` when present,
    otherwise a constant 1.0 per node. Graph labels, when present, are
    remapped to ``0..C-1`` in sorted order of the distinct raw values.
    """
    d = Path(directory)
    if not d.is_dir():
        raise GraphFormatError(f"not a directory: {d}")
    candidates = sorted(d.glob("*_A.txt"))
    if not candidates:
        raise GraphFormatError(f"missing <name>_A.txt edge file in {d}")
    edge_path = candidates[0]
    prefix = edge_path.name[: -len("_A.txt")]

    indicator_path = d / f"{prefix}_graph_indicator.txt"
    indicator = _read_int_rows(indicator_path, 1)[0][:, 0]
    if not indicator.size:
        raise GraphFormatError(f"{indicator_path.name}: graph indicator file is empty")
    present = np.unique(indicator)
    num_graphs = int(present.max())
    if present.min() < 1 or present.size != num_graphs:
        missing = sorted(set(range(1, num_graphs + 1)) - set(present.tolist()))
        raise GraphFormatError(
            f"{indicator_path.name}: graph ids must be contiguous from 1; missing {missing[:5]}"
        )

    def labels_of(name: str, count: int, what: str):
        """Distinct sorted values and each entry's index among them, or None if absent."""
        path = d / f"{prefix}_{name}.txt"
        if not path.exists():
            return None
        raw = _read_int_rows(path, 1)[0][:, 0]
        if raw.shape[0] != count:
            raise GraphFormatError(f"{path.name}: {raw.shape[0]} entries for {count} {what}")
        return np.unique(raw, return_inverse=True)

    num_nodes = indicator.shape[0]
    node_labels = labels_of("node_labels", num_nodes, "nodes")
    if node_labels is None:
        features = np.ones((num_nodes, 1))
    else:
        features = np.eye(node_labels[0].size)[node_labels[1]]
    graph_labels = labels_of("graph_labels", num_graphs, "graphs")

    # nodes must be grouped contiguously by graph id for the offset math
    if not np.all(np.diff(indicator) >= 0):
        raise GraphFormatError(f"{indicator_path.name}: graph ids must be non-decreasing")
    first_node = np.concatenate([[0], np.cumsum(np.bincount(indicator - 1))])

    pairs, line_numbers = _read_int_rows(edge_path, 2)
    pairs -= 1
    outside = ((pairs < 0) | (pairs >= num_nodes)).any(axis=1)
    if outside.any():
        ln = line_numbers[outside.argmax()]
        raise GraphFormatError(f"{edge_path.name} line {ln}: node id out of range")
    owner = indicator[pairs]
    across = owner[:, 0] != owner[:, 1]
    if across.any():
        i = across.argmax()
        raise GraphFormatError(
            f"{edge_path.name} line {line_numbers[i]}: edge joins graph {owner[i, 0]}"
            f" and graph {owner[i, 1]}"
        )
    # sorted by source node, and so by graph, since graphs own contiguous node ranges
    edges = canonical_edges(pairs, num_nodes)
    cuts = np.searchsorted(edges[:, 0], first_node)
    graphs = [
        Graph(
            node_features=features[first_node[gi]:first_node[gi + 1]],
            edges=edges[cuts[gi]:cuts[gi + 1]] - first_node[gi],
            label=None if graph_labels is None else int(graph_labels[1][gi]),
        )
        for gi in range(num_graphs)
    ]
    return GraphDataset(
        graphs=graphs,
        feature_dim=features.shape[1],
        num_classes=None if graph_labels is None else graph_labels[0].size,
    )


# ---------------------------------------------------------------------------
# planted-motif benchmark


@dataclass(frozen=True)
class PlantedMotifSpec:
    """Recipe for the synthetic benchmark.

    ``background_size_range`` bounds the total node count of each graph
    (motif included), so its lower end must cover the motif itself.
    """

    motif_size: int = 5
    background_size_range: tuple[int, int] = (15, 25)
    num_classes: int = 2
    feature_dim: int = 8
    noise_std: float = 0.8
    edge_prob_background: float = 0.2
    seed: int = 0

    def __post_init__(self):
        check_field_types(
            self,
            ints=("motif_size", "num_classes", "feature_dim", "seed"),
            floats=("noise_std", "edge_prob_background"),
            int_tuples=("background_size_range",),
        )
        if len(self.background_size_range) != 2:
            raise ValueError("background_size_range must be [min, max]")
        lo, hi = self.background_size_range
        if self.motif_size < 2:
            raise ValueError("motif_size must be >= 2")
        if lo < self.motif_size:
            raise ValueError("background_size_range.min must be >= motif_size")
        if lo > hi:
            raise ValueError("background_size_range must satisfy min <= max")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if not 0.0 <= self.edge_prob_background <= 1.0:
            raise ValueError("edge_prob_background must be in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _motif_edges(label: int, k: int) -> np.ndarray:
    """Class-specific wiring on nodes 0..k-1 as an int64 [E, 2] array: a ring,
    plus chords whose stride grows with the class index so wirings are
    pairwise distinct."""
    i = np.arange(k)
    ring = np.stack([i, (i + 1) % k], axis=1)
    if label == 0:
        return ring
    j = (i + 1 + label) % k
    chord = j != i
    return np.concatenate([ring, np.stack([i[chord], j[chord]], axis=1)])


def _signature(label: int, dim: int) -> np.ndarray:
    sig = np.zeros(dim)
    sig[label % dim] = 1.0
    return sig


def generate_planted_motif_dataset(spec: PlantedMotifSpec, count: int) -> GraphDataset:
    """Build ``count`` graphs; class ``i % num_classes`` for graph i.

    Each graph is one class motif (first ``motif_size`` nodes; wiring and
    feature signature both class-specific) attached to an Erdos-Renyi
    background, with i.i.d. Gaussian feature noise everywhere. The
    ``rationale_mask`` marks exactly the motif nodes. Deterministic:
    identical spec and count give byte-identical datasets.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.background_size_range
    k = spec.motif_size
    motifs = [_motif_edges(label, k) for label in range(min(spec.num_classes, count))]
    # background pairs (u, v > u) among nodes k..n-1 in row-major order, per node
    # count n; built on first use and dropped with this call
    pair_tables: dict[int, np.ndarray] = {}
    graphs = []
    for i in range(count):
        label = i % spec.num_classes
        n = int(rng.integers(lo, hi + 1))
        pairs = pair_tables.get(n)
        if pairs is None:
            pairs = pair_tables[n] = np.stack(np.triu_indices(n - k, 1), axis=1) + k
        # background wiring: one draw per pair, in the table's order
        parts = [motifs[label], pairs[rng.random(len(pairs)) < spec.edge_prob_background]]
        # attach the motif so the graph is not trivially split
        if n > k:
            parts.append(np.array([[rng.integers(0, k), rng.integers(k, n)]]))
        features = rng.normal(0.0, spec.noise_std, size=(n, spec.feature_dim))
        features[:k] += _signature(label, spec.feature_dim)
        mask = np.zeros(n, dtype=bool)
        mask[:k] = True
        graphs.append(
            Graph(
                node_features=features,
                edges=canonical_edges(np.concatenate(parts), n),
                label=label,
                rationale_mask=mask,
            )
        )
    return GraphDataset(
        graphs=graphs, feature_dim=spec.feature_dim, num_classes=spec.num_classes
    )
