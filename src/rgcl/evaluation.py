"""Downstream measurement of a pre-trained encoder.

Embeddings for evaluation come from the plain encoder: attribution
weighting is disabled (every node weighs 1) and the projection head is
discarded. Representation quality is read out three ways:

* a multinomial logistic probe on frozen embeddings (deterministic
  full-batch gradient descent, so results are exactly reproducible);
* precision of the scorer's top-k nodes against planted ground-truth
  rationale masks;
* the geometry of sampled views — how close the two rationale projections
  sit compared to the rationale/complement pair.

``read_out`` gives the first two for a trained state; ``run_ablation`` ties
it to pre-training for the three training variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NumericError
from .encoder import EncoderConfig, EncoderParams, encode_graph
from .graphs import Graph, GraphDataset, GraphFormatError, batch_graphs
from .params import lift_params
from .rationale import attribute_nodes, top_k_nodes
from .training import (
    TrainConfig,
    TrainState,
    encode_views,
    init_train_state,
    normalize_variant,
    pretrain,
    sample_selections,
)

PROBE_STOP_NORM = 1e-6
PROBE_MAX_ITERS = 5000


def _chunks(dataset: GraphDataset, config: EncoderConfig) -> list[list[Graph]]:
    """The dataset's graphs cut into consecutive chunks, each the longest run
    whose edge messages and node activations at the encoder's widest scatter
    each fit in one ``autodiff.SCATTER_BLOCK``, except that every chunk holds
    at least two graphs when the dataset does: a graph that alone exceeds the
    budget shares its chunk with one neighbour (its scatters run in column
    blocks), and a last graph left over joins the chunk before it.

    Encoding chunk by chunk bounds an eval pass's temporaries, and each graph's
    rows stay those of one batch of all the graphs bit for bit: every scatter
    bin adds its terms in edge order, pooling is per graph, and BLAS gives a
    row of a product with two or more rows and columns the same bits however
    many rows share it. A one-row product takes another BLAS path (gemv) with
    other bits, hence the two graphs."""
    graphs = list(dataset.graphs)
    width = max(dataset.feature_dim, *config.layer_dims)
    chunks, lo, edges, nodes = [], 0, 0, 0
    for i, g in enumerate(graphs):
        edges, nodes = edges + g.num_edges, nodes + g.num_nodes
        if lo + 1 < i < len(graphs) - 1 and max(edges, nodes) * width > ad.SCATTER_BLOCK:
            chunks.append(graphs[lo:i])
            lo, edges, nodes = i, g.num_edges, g.num_nodes
    return chunks + [graphs[lo:]]


def embed_graphs(
    dataset: GraphDataset, encoder_params: EncoderParams, config: EncoderConfig
) -> np.ndarray:
    """[M, d] full-graph embeddings: no attribution weighting, no projector.
    The graphs are encoded in consecutive chunks (:func:`_chunks`)."""
    if len(dataset) == 0:
        return np.zeros((0, config.output_dim))
    return np.concatenate([
        encode_graph(batch_graphs(chunk), encoder_params, config).values
        for chunk in _chunks(dataset, config)
    ])


@dataclass(frozen=True)
class ProbeResult:
    train_accuracy: float
    test_accuracy: float
    train_class_counts: dict[int, int]
    test_class_counts: dict[int, int]
    iterations: int
    grad_norm: float  # the gradient norm the stopping test last read

    @property
    def converged(self) -> bool:
        return self.grad_norm < PROBE_STOP_NORM

    def to_dict(self) -> dict:
        return {
            "train_accuracy": self.train_accuracy,
            "test_accuracy": self.test_accuracy,
            "train_class_counts": {str(k): v for k, v in self.train_class_counts.items()},
            "test_class_counts": {str(k): v for k, v in self.test_class_counts.items()},
            "iterations": self.iterations,
            "grad_norm": self.grad_norm,
            "converged": self.converged,
        }


def _class_indices(labels) -> np.ndarray:
    """``labels`` as int64 class indices; negative or fractional labels raise."""
    y = np.asarray(labels)
    if y.dtype.kind not in "biuf":
        raise ValueError(f"labels must be integer class indices, got dtype {y.dtype}")
    if y.dtype.kind == "f":
        fractional = ~(np.isfinite(y) & (y == np.trunc(y)))
        if fractional.any():
            raise ValueError(f"labels must be integer class indices, got {y[fractional][0]}")
    if (y < 0).any():
        raise ValueError(f"labels must be non-negative class indices, got {y.min()}")
    return y.astype(np.int64)


def _class_counts(y: np.ndarray, num_classes: int) -> dict[int, int]:
    counts = np.bincount(y, minlength=num_classes)
    return {int(c): int(counts[c]) for c in range(num_classes)}


def linear_probe(
    embeddings: np.ndarray,
    labels: np.ndarray,
    split_seed: int = 0,
    train_fraction: float = 0.8,
    l2: float = 1e-4,
) -> ProbeResult:
    """Multinomial logistic regression on frozen embeddings.

    Full-batch gradient descent with a fixed step of 1/L, where L bounds
    the loss curvature (sigma_max(X)^2 / (2M) for the softmax
    cross-entropy, plus the ridge term), run until the gradient norm drops
    below ``PROBE_STOP_NORM`` or ``PROBE_MAX_ITERS`` is hit. The L2 penalty applies to
    the weights only, not the intercept. Everything is deterministic given
    ``split_seed``. The result records the last gradient norm the stopping
    test read, and so whether the fit converged. Labels must be
    non-negative integer class indices. Only the classes present in the
    training split are fitted and predicted; the class counts cover every
    index up to the largest label.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    y = _class_indices(labels)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError(f"embeddings {x.shape} do not match labels {y.shape}")
    if not np.isfinite(x).all():
        raise ValueError("embeddings contain non-finite values")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    m = x.shape[0]
    n_train = int(round(train_fraction * m))
    if n_train < 1 or n_train >= m:
        raise GraphFormatError(f"split leaves an empty side ({n_train} train of {m})")
    perm = np.random.default_rng(split_seed).permutation(m)
    tr, te = perm[:n_train], perm[n_train:]
    # fit only the classes the training split holds: a class without
    # training rows has no optimum (its intercept falls without bound)
    fitted = np.unique(y[tr])
    if fitted.size < 2:
        raise GraphFormatError("train split contains a single class; cannot fit a probe")

    xa = np.hstack([x, np.ones((m, 1))])  # intercept column
    onehot = np.eye(fitted.size)[np.searchsorted(fitted, y[tr])]
    xt = xa[tr]
    lipschitz = np.linalg.norm(xt, 2) ** 2 / (2.0 * len(tr)) + l2
    step = 1.0 / lipschitz
    w = np.zeros((x.shape[1] + 1, fitted.size))
    ridge_mask = np.ones_like(w)
    ridge_mask[-1] = 0.0  # leave the intercept unpenalized
    ridge = l2 * ridge_mask
    # The loop runs the ops of the plain allocating loop in the same order,
    # into buffers allocated once: ``p`` holds the logits, then the
    # probabilities, then p - onehot. The row max is a running np.maximum
    # over the few class columns (a max is exact, so this equals
    # logits.max(axis=1)), and the row sum a running np.add: below 8 terms
    # numpy's row reduce adds left to right, so this equals p.sum(axis=1)
    # bit for bit; from 8 terms on it sums pairwise, so the reduce stays.
    # Each running op skips a reduce along the short class axis.
    n_tr, classes = len(tr), fitted.size
    xt_t = xt.T
    p = np.empty((n_tr, classes))
    row_max = np.empty((n_tr, 1))
    row_sum = np.empty((n_tr, 1))
    grad = np.empty_like(w)
    term = np.empty_like(w)  # ridge * w, then step * grad
    flat = grad.reshape(-1)
    iterations, grad_norm = 0, np.inf
    for iterations in range(1, PROBE_MAX_ITERS + 1):
        np.matmul(xt, w, out=p)
        np.maximum(p[:, :1], p[:, 1:2], out=row_max)
        for c in range(2, classes):
            np.maximum(row_max, p[:, c:c + 1], out=row_max)
        p -= row_max
        np.exp(p, out=p)
        if classes < 8:
            np.add(p[:, :1], p[:, 1:2], out=row_sum)
            for c in range(2, classes):
                np.add(row_sum, p[:, c:c + 1], out=row_sum)
        else:
            np.sum(p, axis=1, keepdims=True, out=row_sum)
        p /= row_sum
        p -= onehot
        np.matmul(xt_t, p, out=grad)
        grad /= n_tr
        np.multiply(ridge, w, out=term)
        grad += term
        grad_norm = np.sqrt(flat.dot(flat))  # what np.linalg.norm computes
        if grad_norm < PROBE_STOP_NORM:
            break
        np.multiply(step, grad, out=term)
        w -= term

    pred = fitted[(xa @ w).argmax(axis=1)]
    num_classes = int(y.max()) + 1
    return ProbeResult(
        train_accuracy=float((pred[tr] == y[tr]).mean()),
        test_accuracy=float((pred[te] == y[te]).mean()),
        train_class_counts=_class_counts(y[tr], num_classes),
        test_class_counts=_class_counts(y[te], num_classes),
        iterations=iterations,
        grad_norm=float(grad_norm),
    )


@dataclass(frozen=True)
class RationaleScore:
    per_graph: np.ndarray  # precision fraction for each graph
    mean_precision: float
    random_baseline: float  # mean over graphs of k / |V|

    def to_dict(self) -> dict:
        return {
            "mean_precision": self.mean_precision,
            "random_baseline": self.random_baseline,
            "per_graph": [float(v) for v in self.per_graph],
        }


def precision_at_k(probs: np.ndarray, mask: np.ndarray) -> float:
    """Fraction of the k highest-scoring nodes that fall inside the mask,
    with k = mask.sum() and ties broken toward the lower node index."""
    p = np.asarray(probs, dtype=np.float64).reshape(-1)
    m = np.asarray(mask, dtype=bool).reshape(-1)
    if p.shape != m.shape:
        raise ValueError(f"probs {p.shape} do not match mask {m.shape}")
    k = int(m.sum())
    if k < 1:
        raise ValueError("mask selects no nodes; precision undefined")
    return float(m[top_k_nodes(p, k)].sum() / k)


def rationale_precision(
    dataset: GraphDataset, generator_params: EncoderParams, config: EncoderConfig
) -> RationaleScore:
    """Score the attribution network's top-k nodes against ground truth."""
    generator_params = lift_params(generator_params, None)
    per_graph = []
    baseline_terms = []
    for i, g in enumerate(dataset.graphs):
        if g.rationale_mask is None:
            raise ValueError(f"graph {i} has no rationale_mask")
        probs = attribute_nodes(g, generator_params, config).probs.values
        per_graph.append(precision_at_k(probs, g.rationale_mask))
        baseline_terms.append(float(g.rationale_mask.sum()) / g.num_nodes)
    per_graph = np.asarray(per_graph)
    return RationaleScore(
        per_graph=per_graph,
        mean_precision=float(per_graph.mean()),
        random_baseline=float(np.mean(baseline_terms)),
    )


def view_similarities(
    dataset: GraphDataset,
    state: TrainState,
    config: TrainConfig,
    sample_seed: int = 0,
    variant: str = "full",
) -> tuple[float, float]:
    """Mean cosine of (r1, r2) and of (r1, complement) projections over the
    dataset, with views drawn fresh from ``sample_seed``.

    Projections are unit rows, so the cosine is a plain row dot product.
    The graphs are drawn and encoded in consecutive chunks (:func:`_chunks`),
    all drawn from one generator in graph order, so the views are those of a
    draw over all the graphs at once.
    """
    variant = normalize_variant(variant)
    if variant == "no_independence":
        raise ValueError("that variant draws no complements to compare against")
    rng = np.random.default_rng(sample_seed)
    pos, comp = [], []
    for chunk in _chunks(dataset, config.encoder_config()):
        selections = sample_selections(chunk, state.generator, config, rng, variant)
        views = encode_views(
            chunk, selections, state.encoder, state.generator, state.projector,
            config, variant,
        )
        pos.append(np.sum(views.r1.values * views.r2.values, axis=1))
        comp.append(np.sum(views.r1.values * views.c.values, axis=1))
    return float(np.concatenate(pos).mean()), float(np.concatenate(comp).mean())


@dataclass
class AblationResult:
    variant: str
    seed: int
    probe: ProbeResult
    rationale: RationaleScore | None
    passes_per_anchor: float
    loss_history: list[float]
    state: TrainState

    def to_dict(self) -> dict:
        return {
            "variant": self.variant,
            "seed": self.seed,
            "probe": self.probe.to_dict(),
            "rationale": None if self.rationale is None else self.rationale.to_dict(),
            "passes_per_anchor": self.passes_per_anchor,
            "final_loss": self.loss_history[-1] if self.loss_history else None,
        }


def random_init_probe(dataset: GraphDataset, config: TrainConfig) -> ProbeResult:
    """Probe accuracy from the untrained encoder — the no-pre-training arm."""
    state = init_train_state(config, dataset.feature_dim)
    emb = embed_graphs(dataset, state.encoder, config.encoder_config())
    return linear_probe(emb, dataset.labels(), split_seed=config.seed)


def read_out(
    dataset: GraphDataset, state: TrainState, config: TrainConfig
) -> tuple[ProbeResult, RationaleScore | None]:
    """The linear probe on the state's embeddings, then rationale precision
    when every graph has a ground-truth mask (else None). Non-finite
    embeddings raise ``NumericError``."""
    emb = embed_graphs(dataset, state.encoder, config.encoder_config())
    if not np.isfinite(emb).all():
        raise NumericError("the encoder produces non-finite embeddings")
    probe = linear_probe(emb, dataset.labels(), split_seed=config.seed)
    rationale = None
    if all(g.rationale_mask is not None for g in dataset.graphs):
        rationale = rationale_precision(dataset, state.generator, config.generator_config())
    return probe, rationale


def run_ablation(
    variant: str,
    dataset: GraphDataset,
    config: TrainConfig,
    output_dir=None,
) -> AblationResult:
    """Pre-train one variant and evaluate it.

    All variants share initialization and data order for a given seed, so
    cross-variant comparisons are paired. The scorer is evaluated with
    whatever parameters the run left it with — for the scorer-bypassed
    variant that means its untrained initialization.
    """
    variant = normalize_variant(variant)
    state = pretrain(dataset, config, output_dir=output_dir, variant=variant)
    probe, rationale = read_out(dataset, state, config)
    passes = (
        state.encoder_passes.graphs / state.anchors_seen if state.anchors_seen else 0.0
    )
    return AblationResult(
        variant=variant,
        seed=config.seed,
        probe=probe,
        rationale=rationale,
        passes_per_anchor=passes,
        loss_history=list(state.loss_history),
        state=state,
    )
