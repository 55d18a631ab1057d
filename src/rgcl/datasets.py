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

from .graphs import Graph, GraphDataset, GraphFormatError, canonical_edges, check_field_types


# ---------------------------------------------------------------------------
# TU-format loader
#
# Directory layout (1-based indices throughout):
#   <name>_A.txt               one "i, j" edge per line
#   <name>_graph_indicator.txt graph id for each node, one per line
#   <name>_graph_labels.txt    optional, one label per graph
#   <name>_node_labels.txt     optional, one integer label per node


def _read_int_lines(path: Path, what: str) -> list[int]:
    out = []
    for ln, raw in enumerate(path.read_text().splitlines(), start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            out.append(int(raw))
        except ValueError as exc:
            raise GraphFormatError(f"{path.name} line {ln}: expected an integer, got {raw!r}") from exc
    if not out:
        raise GraphFormatError(f"{path.name}: {what} file is empty")
    return out


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
    prefix = candidates[0].name[: -len("_A.txt")]

    indicator_path = d / f"{prefix}_graph_indicator.txt"
    if not indicator_path.exists():
        raise GraphFormatError(f"missing {indicator_path.name} in {d}")
    indicator = np.array(_read_int_lines(indicator_path, "graph indicator"), dtype=np.int64)

    present = np.unique(indicator)
    num_graphs = int(present.max())
    if present.min() < 1 or present.size != num_graphs:
        missing = sorted(set(range(1, num_graphs + 1)) - set(present.tolist()))
        raise GraphFormatError(
            f"{indicator_path.name}: graph ids must be contiguous from 1; missing {missing[:5]}"
        )

    # node features
    node_labels_path = d / f"{prefix}_node_labels.txt"
    num_nodes = indicator.shape[0]
    if node_labels_path.exists():
        raw = np.array(_read_int_lines(node_labels_path, "node labels"), dtype=np.int64)
        if raw.shape[0] != num_nodes:
            raise GraphFormatError(
                f"{node_labels_path.name}: {raw.shape[0]} entries for {num_nodes} nodes"
            )
        values = np.unique(raw)
        lookup = {int(v): i for i, v in enumerate(values)}
        features = np.zeros((num_nodes, values.size))
        for i, v in enumerate(raw):
            features[i, lookup[int(v)]] = 1.0
    else:
        features = np.ones((num_nodes, 1))

    # graph labels
    labels_path = d / f"{prefix}_graph_labels.txt"
    labels = None
    num_classes = None
    if labels_path.exists():
        raw = np.array(_read_int_lines(labels_path, "graph labels"), dtype=np.int64)
        if raw.shape[0] != num_graphs:
            raise GraphFormatError(
                f"{labels_path.name}: {raw.shape[0]} entries for {num_graphs} graphs"
            )
        values = np.unique(raw)
        lookup = {int(v): i for i, v in enumerate(values)}
        labels = np.array([lookup[int(v)] for v in raw], dtype=np.int64)
        num_classes = values.size

    # edges, grouped by owning graph
    first_node = np.zeros(num_graphs + 1, dtype=np.int64)  # 0-based first node id per graph
    sizes = np.bincount(indicator - 1, minlength=num_graphs)
    first_node[1:] = np.cumsum(sizes)
    # nodes must be grouped contiguously by graph id for the offset math
    if not np.all(np.diff(indicator) >= 0):
        raise GraphFormatError(f"{indicator_path.name}: graph ids must be non-decreasing")

    per_graph_edges: list[list[tuple[int, int]]] = [[] for _ in range(num_graphs)]
    edge_path = d / f"{prefix}_A.txt"
    for ln, raw in enumerate(edge_path.read_text().splitlines(), start=1):
        raw = raw.strip()
        if not raw:
            continue
        parts = raw.replace(",", " ").split()
        if len(parts) != 2:
            raise GraphFormatError(f"{edge_path.name} line {ln}: expected 'i, j', got {raw!r}")
        try:
            u, v = int(parts[0]) - 1, int(parts[1]) - 1
        except ValueError as exc:
            raise GraphFormatError(f"{edge_path.name} line {ln}: non-integer endpoint") from exc
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise GraphFormatError(f"{edge_path.name} line {ln}: node id out of range")
        gu, gv = int(indicator[u]) - 1, int(indicator[v]) - 1
        if gu != gv:
            raise GraphFormatError(
                f"{edge_path.name} line {ln}: edge joins graph {gu + 1} and graph {gv + 1}"
            )
        off = first_node[gu]
        per_graph_edges[gu].append((u - off, v - off))

    graphs = []
    for gi in range(num_graphs):
        lo, hi = first_node[gi], first_node[gi + 1]
        graphs.append(
            Graph(
                node_features=features[lo:hi],
                edges=canonical_edges(per_graph_edges[gi], hi - lo),
                label=None if labels is None else int(labels[gi]),
            )
        )
    return GraphDataset(
        graphs=graphs, feature_dim=features.shape[1], num_classes=num_classes
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


def _motif_edges(label: int, k: int) -> list[tuple[int, int]]:
    """Class-specific wiring on nodes 0..k-1: a ring, plus chords whose
    stride grows with the class index so wirings are pairwise distinct."""
    edges = [(i, (i + 1) % k) for i in range(k)]
    if label > 0:
        stride = 1 + label
        for i in range(k):
            j = (i + stride) % k
            if j != i:
                edges.append((min(i, j), max(i, j)))
    return edges


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
    graphs = []
    for i in range(count):
        label = i % spec.num_classes
        n = int(rng.integers(lo, hi + 1))
        edges = list(_motif_edges(label, k))
        # background wiring among nodes k..n-1
        for u in range(k, n):
            for v in range(u + 1, n):
                if rng.random() < spec.edge_prob_background:
                    edges.append((u, v))
        # attach the motif so the graph is not trivially split
        if n > k:
            edges.append((int(rng.integers(0, k)), int(rng.integers(k, n))))
        features = rng.normal(0.0, spec.noise_std, size=(n, spec.feature_dim))
        features[:k] += _signature(label, spec.feature_dim)
        mask = np.zeros(n, dtype=bool)
        mask[:k] = True
        graphs.append(
            Graph(
                node_features=features,
                edges=canonical_edges(edges, n),
                label=label,
                rationale_mask=mask,
            )
        )
    return GraphDataset(
        graphs=graphs, feature_dim=spec.feature_dim, num_classes=spec.num_classes
    )
