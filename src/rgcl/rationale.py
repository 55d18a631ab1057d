"""Per-node attribution scoring and stochastic view sampling.

The scorer is a small GNN plus per-node MLP whose outputs are softmax
normalized over each graph, giving a probability p(v | g) that node v
carries the salient part of g. Views are drawn by weighted sampling without
replacement via the Gumbel-top-k trick: perturb log-weights with i.i.d.
Gumbel noise and keep the k largest keys. Rationale views use p itself as
the weight; complement views use 1 - p, so mass moves toward nodes the
scorer considers irrelevant.

The discrete node selection is not differentiable and is not meant to be:
gradients reach the scorer only through the attribution values attached to
each view, which multiply node embeddings before pooling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import EncoderConfig, EncoderParams, mlp_forward, node_embeddings
from .graphs import Graph, induced_subgraph
from .params import lift_params
# perfbench's tracer wraps rgcl.rationale.<name> for this, so the name stays importable here
from .graphs import batch_graphs  # noqa: F401

# Sampling weights (and complement attribution values) are clamped into this
# open interval before taking logs, so a saturated softmax cannot produce
# log(0) keys or out-of-range attribution.
WEIGHT_FLOOR = 1e-6
WEIGHT_CEIL = 1.0 - 1e-6


@dataclass
class AttributionScores:
    """Softmax-normalized per-node scores for one graph, shape [n, 1]."""

    probs: Tensor

    def __post_init__(self):
        v = self.probs.values
        if v.ndim != 2 or v.shape[1] != 1 or v.shape[0] < 1:
            raise ValueError(f"probs must be [n, 1], got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ad.NumericError("attribution scores are not finite")
        if abs(float(v.sum()) - 1.0) > 1e-9:
            raise ValueError("attribution probabilities must sum to 1")

    @property
    def num_nodes(self) -> int:
        return self.probs.shape[0]


@dataclass
class View:
    """A sampled subgraph plus the attribution rows for its kept nodes.

    ``kept`` holds original node indices in ascending order, matching the
    subgraph's dense re-indexing, so ``attribution[i]`` belongs to
    ``subgraph`` node i. A rationale view carries p per kept node; a
    complement view carries 1 - p, clamped into (0, 1).
    """

    subgraph: Graph
    kept: np.ndarray
    attribution: Tensor


def attribute_nodes(
    g: Graph, params: EncoderParams, config: EncoderConfig
) -> AttributionScores:
    """Score every node of one graph; softmax over the graph's nodes.

    ``params`` may hold raw arrays or tensors (value- or tape-lifted). Only
    a tree that still holds raw arrays is lifted here, so a caller scoring
    many graphs lifts once and passes the lifted tree.
    """
    if params.head is None:
        raise ValueError("attribution scorer requires head parameters")
    # lift_params never mixes arrays and tensors in one tree: one leaf tells
    if not isinstance(params.head.w1, Tensor):
        params = lift_params(params, None)
    h = node_embeddings(g.as_batch, params, config)
    scores = mlp_forward(h, params.head)
    if scores.shape != (g.num_nodes, 1):
        raise ValueError(
            f"scoring head must emit one scalar per node, got shape {scores.shape}"
        )
    return AttributionScores(probs=ad.softmax(scores, axis=0))


def view_size(num_nodes: int, rho: float) -> int:
    """Number of nodes kept per view: max(1, round(rho * n)), rounding half
    away from zero."""
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    return max(1, int(np.floor(rho * num_nodes + 0.5)))


def gumbel_top_k(weights: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Indices of a size-k weighted draw without replacement, sorted ascending.

    Adding Gumbel noise to log-weights and taking the top k is equivalent to
    sampling items one at a time with probability proportional to weight
    among those remaining.
    """
    w = np.clip(np.asarray(weights, dtype=np.float64), WEIGHT_FLOOR, WEIGHT_CEIL)
    if not 1 <= k <= w.size:
        raise ValueError(f"cannot keep {k} of {w.size} nodes")
    keys = np.log(w) + rng.gumbel(size=w.size)
    return np.sort(np.argpartition(keys, -k)[-k:])


def top_k_nodes(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` highest of the flat ``scores``, highest first,
    ties broken toward the lower node index."""
    return np.lexsort((np.arange(scores.size), -scores))[:k]


def rationale_from_kept(
    g: Graph, scores: AttributionScores, kept: np.ndarray, complement: bool = False
) -> View:
    """The view of ``g`` on an already-chosen node set, cut by a one-graph
    :func:`view_tower`; gradient reaches the scorer when ``scores`` are taped."""
    [subgraph], attribution = view_tower([g], scores.probs, [kept], complement)
    return View(subgraph=subgraph, kept=kept, attribution=attribution)


def complement_from_kept(g: Graph, scores: AttributionScores, kept: np.ndarray) -> View:
    """Assemble a complement view (weights 1 - p) for a chosen node set.

    The weights are clamped into (0, 1) so a single-node graph (p = 1)
    still carries a usable weight.
    """
    return rationale_from_kept(g, scores, kept, complement=True)


def view_tower(
    graphs: list[Graph], probs: Tensor, kept: list[np.ndarray], complement: bool = False
) -> tuple[list[Graph], Tensor]:
    """The one view cutter: the subgraphs induced on each graph's ``kept``
    nodes and their attribution column, one ``gather_rows`` from ``probs`` (the
    graphs' [n, 1] probabilities stacked in graph order), then 1 - p clamped into
    (0, 1) for a ``complement`` tower. Each ``kept`` must be strictly ascending,
    the order of the subgraph's nodes, so attribution row i is node i's."""
    sizes = np.array([g.num_nodes for g in graphs])
    if probs.shape[0] != sizes.sum():
        raise ValueError(f"probs has {probs.shape[0]} rows for {sizes.sum()} graph nodes")
    index = np.concatenate([k + off for k, off in zip(kept, np.cumsum(sizes) - sizes)])
    subgraphs = [induced_subgraph(g, k) for g, k in zip(graphs, kept, strict=True)]
    if not (np.diff(index) > 0).all():
        raise ValueError("kept node indices must be strictly ascending within each graph")
    attribution = ad.gather_rows(probs, index)
    if complement:
        ones = ad.const(np.ones((attribution.shape[0], 1)))
        attribution = ad.clip(ad.sub(ones, attribution), WEIGHT_FLOOR, WEIGHT_CEIL)
    return subgraphs, attribution


def sample_rationale(
    g: Graph, scores: AttributionScores, rho: float, rng: np.random.Generator
) -> View:
    """Draw one rationale view: nodes weighted by p(v | g)."""
    k = view_size(g.num_nodes, rho)
    kept = gumbel_top_k(scores.probs.values.reshape(-1), k, rng)
    return rationale_from_kept(g, scores, kept)


def sample_complement(
    g: Graph, scores: AttributionScores, rho: float, rng: np.random.Generator
) -> View:
    """Draw one complement view: nodes weighted by 1 - p(v | g)."""
    k = view_size(g.num_nodes, rho)
    p = scores.probs.values.reshape(-1)
    kept = gumbel_top_k(1.0 - p, k, rng)
    return complement_from_kept(g, scores, kept)


def uniform_scores(g: Graph) -> AttributionScores:
    """Flat attribution (1/n per node); the scorer-bypassed baseline."""
    n = g.num_nodes
    return AttributionScores(probs=ad.const(np.full((n, 1), 1.0 / n)))


def export_rationales(
    dataset, params: EncoderParams, config: EncoderConfig, rho: float = 0.8
) -> list[dict]:
    """Per-graph scores for external tools: probabilities and a top-k set.

    k is the planted-mask size when the graph has one, else the rationale
    view size for ``rho``; the top-k set is :func:`top_k_nodes`'s.
    """
    params = lift_params(params, None)
    out = []
    for i, g in enumerate(dataset):
        probs = attribute_nodes(g, params, config).probs.values.reshape(-1)
        if g.rationale_mask is not None:
            k = max(1, int(g.rationale_mask.sum()))
        else:
            k = view_size(g.num_nodes, rho)
        out.append(
            {
                "graph_index": i,
                "probs": [float(p) for p in probs],
                "topk": sorted(int(v) for v in top_k_nodes(probs, k)),
            }
        )
    return out
