"""Graph containers, induced subgraphs, disjoint-union batching, JSON interchange
with a content hash, and the JSON-object reader and atomic writer all modules share.

Undirected graphs are stored with every edge duplicated in both directions,
which keeps message passing a plain gather/scatter. Constructors that read
external data add every reverse edge and sort edge lists into a canonical order so that
serialization (and therefore the dataset hash) is reproducible byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .autodiff import const, gcn_propagate


class GraphFormatError(ValueError):
    """A graph file or payload violates the expected format."""


def require_int(name: str, value) -> int:
    """Return ``value`` as an int if it is an integer, else raise
    ``ValueError`` naming ``name``. bool is an int subclass, but a JSON
    true/false in an integer field is a typo, not a 1/0."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name}: must be an integer, got {value!r}")
    return int(value)


def check_field_types(obj, ints=(), floats=(), int_tuples=()) -> None:
    """Type-check the named fields of a frozen dataclass from its
    ``__post_init__``: integers by :func:`require_int`, floats as finite
    real numbers, and lists of integers, which are stored back as tuples.
    The first bad field raises ``ValueError`` naming it."""
    for name in ints:
        require_int(name, getattr(obj, name))
    for name in floats:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or (
            not math.isfinite(value)
        ):
            raise ValueError(f"{name}: must be a finite number, got {value!r}")
    for name in int_tuples:
        value = getattr(obj, name)
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name}: must be a list of integers, got {value!r}")
        object.__setattr__(obj, name, tuple(require_int(name, d) for d in value))


def require_object(value, error: type[Exception], what: str) -> dict:
    """Return ``value`` if it is a JSON object, else raise ``error``."""
    if not isinstance(value, dict):
        raise error(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def read_text(path, error: type[Exception], what: str) -> str:
    """Read the UTF-8 text file at ``path``. A file that is missing, a directory,
    unreadable or not UTF-8 raises ``error`` naming ``what`` and it."""
    p = Path(path)
    try:
        return p.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise error(f"{what} file not found: {p}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{what} file {p} cannot be read: {exc}") from exc


def read_json_object(path, error: type[Exception], what: str) -> dict:
    """Parse the file at ``path`` as one JSON object. A file that :func:`read_text`
    refuses, or that is not JSON or not an object, raises ``error`` naming ``what`` and it."""
    p = Path(path)
    try:
        payload = json.loads(read_text(p, error, what))
    except json.JSONDecodeError as exc:
        raise error(f"{what} file {p} is not valid JSON: {exc}") from exc
    return require_object(payload, error, f"{what} file {p}")


def make_dirs(directory, path=None) -> None:
    """Create ``directory`` and its missing parents for the output ``path`` (by
    default the directory itself). A regular file at ``directory`` or above it
    raises ``ValueError`` naming ``path``."""
    try:
        Path(directory).mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ValueError(
            f"output path {path or directory} is, or is under, a file that is not a directory"
        ) from exc


def write_text_atomic(path, text: str) -> None:
    """Create ``path``'s directory, write ``text`` to a sibling temp file and ``os.replace``
    it onto ``path``: a crash or a failed write leaves the old file whole. A ``path`` that
    is a directory, or one under a regular file, raises ``ValueError`` before anything
    is written."""
    path = Path(path)
    if path.is_dir():
        raise ValueError(f"output path {path} is a directory")
    make_dirs(path.parent, path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def check_edges(edges, num_nodes: int) -> np.ndarray:
    """``edges`` as an int64 [E, 2] array, unchanged in order and content (no copy
    when it already is one).

    ``edges`` must be an integer [E, 2] array or nested list, or empty; a float,
    bool or string endpoint, a flat list, rows that are not pairs, or an endpoint
    outside ``0..num_nodes-1`` raises :class:`GraphFormatError`.
    """
    try:
        arr = np.asarray(edges)
    except (OverflowError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"edges must be an [E, 2] list of integers: {exc}") from exc
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
        raise GraphFormatError(
            f"edges must be an [E, 2] list of integers, got {arr.dtype} values of shape {arr.shape}"
        )
    if arr.min() < 0 or arr.max() >= num_nodes:
        raise GraphFormatError(f"edge endpoint out of range for {num_nodes} nodes")
    return arr.astype(np.int64, copy=False)


def check_rationale_mask(mask, num_nodes: int) -> np.ndarray:
    """``mask`` as a bool [num_nodes] array (no copy when it already is one).

    ``mask`` must hold one bool, or one integer 0 or 1, per node; a float or
    string entry, another integer, or any other shape raises
    :class:`GraphFormatError`.
    """
    try:
        arr = np.asarray(mask)
    except (OverflowError, TypeError, ValueError) as exc:
        raise GraphFormatError(f"rationale mask must be a list of bools: {exc}") from exc
    if arr.shape != (num_nodes,) or arr.dtype.kind not in "biu" or (
        arr.dtype.kind != "b" and not ((arr == 0) | (arr == 1)).all()
    ):
        raise GraphFormatError(
            f"rationale mask must hold one bool (or 0/1) per node of {num_nodes}, "
            f"got {arr.dtype} values of shape {arr.shape}"
        )
    return arr.astype(bool, copy=False)


def canonical_edges(edges, num_nodes: int) -> np.ndarray:
    """Validate an edge list with :func:`check_edges`, add every reverse edge,
    deduplicate, and sort.

    Each directed pair (u, v) is encoded as the int64 key ``u * num_nodes + v``,
    so one 1-D sort of the keys gives the lexicographic (u, v) order; the keys
    need ``num_nodes**2 < 2**63``.
    """
    u, v = check_edges(edges, num_nodes).T
    keys = np.unique(np.concatenate([u * num_nodes + v, v * num_nodes + u]))
    return np.stack([keys // num_nodes, keys % num_nodes], axis=1)


@dataclass(frozen=True)
class Graph:
    """One undirected graph: features [n, d], directed-duplicated edges [E, 2].

    ``edges`` is taken as given, without adding reverse edges or sorting, and
    must pass :func:`check_edges` (a :class:`GraphFormatError`, so a
    ``ValueError``, otherwise).

    ``rationale_mask`` (optional) marks ground-truth salient nodes for
    benchmarks that plant them, and must pass :func:`check_rationale_mask`.
    """

    node_features: np.ndarray
    edges: np.ndarray
    label: int | None = None
    rationale_mask: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.node_features, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError(f"node_features must be [n>=1, d], got shape {x.shape}")
        object.__setattr__(self, "node_features", x)
        object.__setattr__(self, "edges", check_edges(self.edges, x.shape[0]))
        if self.rationale_mask is not None:
            object.__setattr__(
                self, "rationale_mask", check_rationale_mask(self.rationale_mask, x.shape[0])
            )

    @property
    def num_nodes(self) -> int:
        return self.node_features.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.node_features.shape[1]

    @cached_property
    def as_batch(self) -> "GraphBatch":
        """This graph as a one-graph batch, equal to ``batch_graphs([self])``, built on
        first use and kept with the graph, so the scorer that runs on each dataset
        graph every step reuses it and its cached edge constants. It shares the
        graph's feature and edge arrays instead of copying them; neither is ever
        written in place."""
        n = self.num_nodes
        return GraphBatch(node_features=self.node_features, edges=self.edges,
                          graph_id=np.zeros(n, dtype=np.int64),
                          sizes=np.array([n], dtype=np.int64))


@dataclass
class GraphDataset:
    """An ordered collection of graphs with a uniform feature dimension."""

    graphs: list[Graph]
    feature_dim: int
    num_classes: int | None = None

    def __post_init__(self):
        for i, g in enumerate(self.graphs):
            if g.feature_dim != self.feature_dim:
                raise ValueError(
                    f"graph {i} has feature dim {g.feature_dim}, expected {self.feature_dim}"
                )
            if self.num_classes is not None and g.label is not None:
                if not 0 <= g.label < self.num_classes:
                    raise ValueError(f"graph {i} label {g.label} out of range")

    def __len__(self) -> int:
        return len(self.graphs)

    def __getitem__(self, i: int) -> Graph:
        return self.graphs[i]

    def __iter__(self):
        return iter(self.graphs)

    def labels(self) -> np.ndarray:
        if any(g.label is None for g in self.graphs):
            raise GraphFormatError("dataset has unlabeled graphs; the probe needs labels")
        return np.array([g.label for g in self.graphs], dtype=np.int64)


@dataclass
class GraphBatch:
    """Disjoint union of graphs: shifted node indices, per-node graph ids."""

    node_features: np.ndarray
    edges: np.ndarray
    graph_id: np.ndarray
    sizes: np.ndarray

    @property
    def num_graphs(self) -> int:
        return len(self.sizes)

    @property
    def num_nodes(self) -> int:
        return self.node_features.shape[0]

    # Constants the message-passing layers over the batch read; each is
    # computed on first use and then shared by all layers and calls.

    @cached_property
    def src(self) -> np.ndarray:
        return np.ascontiguousarray(self.edges[:, 0])

    @cached_property
    def dst(self) -> np.ndarray:
        return np.ascontiguousarray(self.edges[:, 1])

    @cached_property
    def gcn_coefs(self) -> tuple[np.ndarray, np.ndarray]:
        """GCN's symmetric normalization with a self-loop on every node:
        ``(edge_coef [E, 1], self_coef [n, 1])``, where ``edge_coef`` of edge
        (u, v) is 1 / sqrt(deg u * deg v) and ``self_coef`` of v is 1 / deg v,
        deg counting in-edges plus the self-loop."""
        deg = 1.0 + np.bincount(self.dst, minlength=self.num_nodes)
        inv_sqrt = 1.0 / np.sqrt(deg)
        return (inv_sqrt[self.src] * inv_sqrt[self.dst])[:, None], (1.0 / deg)[:, None]

    @cached_property
    def gcn_features(self) -> np.ndarray:
        """The first GCN layer's propagation of the constant node features:
        ``gcn_propagate``'s value on them. No parameter enters it, so every
        scorer call on a dataset graph's ``as_batch`` reuses it."""
        return gcn_propagate(const(self.node_features), self.src, self.dst, *self.gcn_coefs).values


def batch_graphs(graphs: list[Graph]) -> GraphBatch:
    """Merge graphs into one disjoint union, preserving node and edge order."""
    if not graphs:
        raise ValueError("cannot batch an empty list of graphs")
    dims = {g.feature_dim for g in graphs}
    if len(dims) != 1:
        raise ValueError(f"graphs have mixed feature dims {sorted(dims)}")
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    features = np.concatenate([g.node_features for g in graphs], axis=0)
    edges = np.concatenate([g.edges + off for g, off in zip(graphs, offsets)], axis=0)
    graph_id = np.repeat(np.arange(len(graphs), dtype=np.int64), sizes)
    return GraphBatch(node_features=features, edges=edges, graph_id=graph_id, sizes=sizes)


def induced_subgraph(g: Graph, keep) -> Graph:
    """Node-induced subgraph; kept nodes are re-indexed densely in ascending
    original order, and an edge survives iff both endpoints are kept."""
    keep = np.unique(np.asarray(keep, dtype=np.int64))
    if keep.size == 0:
        raise ValueError("induced_subgraph requires at least one node")
    if keep.min() < 0 or keep.max() >= g.num_nodes:
        raise ValueError("keep index out of range")
    remap = -np.ones(g.num_nodes, dtype=np.int64)
    remap[keep] = np.arange(keep.size)
    inside = (remap[g.edges[:, 0]] >= 0) & (remap[g.edges[:, 1]] >= 0)
    return Graph(
        node_features=g.node_features[keep],
        edges=remap[g.edges[inside]],
        label=g.label,
        rationale_mask=None if g.rationale_mask is None else g.rationale_mask[keep],
    )


# ---------------------------------------------------------------------------
# JSON interchange


def dataset_to_json(ds: GraphDataset) -> dict:
    graphs = []
    for g in ds.graphs:
        item = {
            "x": [[float(v) for v in row] for row in g.node_features],
            "edges": [[int(u), int(v)] for u, v in g.edges],
        }
        if g.label is not None:
            item["y"] = int(g.label)
        if g.rationale_mask is not None:
            item["rationale"] = [bool(b) for b in g.rationale_mask]
        graphs.append(item)
    return {"graphs": graphs, "feature_dim": int(ds.feature_dim)}


def dataset_from_json(obj: dict) -> GraphDataset:
    if not isinstance(obj, dict) or not isinstance(obj.get("graphs"), list) or (
        "feature_dim" not in obj
    ):
        raise GraphFormatError("payload must contain a 'graphs' list and 'feature_dim'")
    graphs = []
    for i, item in enumerate(obj["graphs"]):
        try:
            x = np.asarray(item["x"], dtype=np.float64)
            if x.ndim == 1:
                x = x.reshape(-1, 1)
            if not np.isfinite(x).all():
                raise ValueError("node features must be finite (found NaN or inf)")
            edges = canonical_edges(item.get("edges", []), x.shape[0])
            graphs.append(
                Graph(
                    node_features=x,
                    edges=edges,
                    label=require_int("y", item["y"]) if "y" in item else None,
                    rationale_mask=item.get("rationale"),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphFormatError(f"graph {i}: {exc}") from exc
    labels = [g.label for g in graphs if g.label is not None]
    try:
        return GraphDataset(
            graphs=graphs,
            feature_dim=require_int("feature_dim", obj["feature_dim"]),
            num_classes=(max(labels) + 1) if labels else None,
        )
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def _canonical_json(ds: GraphDataset) -> str:
    """The bytes :func:`save_dataset_json` writes and :func:`dataset_hash` hashes."""
    return json.dumps(dataset_to_json(ds), sort_keys=True, separators=(",", ":"))


def save_dataset_json(ds: GraphDataset, path) -> None:
    write_text_atomic(path, _canonical_json(ds))


def load_dataset_json(path) -> GraphDataset:
    return dataset_from_json(read_json_object(path, GraphFormatError, "dataset"))


def dataset_hash(ds: GraphDataset) -> str:
    """sha256 over the canonical JSON serialization."""
    return hashlib.sha256(_canonical_json(ds).encode("utf-8")).hexdigest()
