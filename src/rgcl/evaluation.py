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

from .autodiff import NumericError
from .encoder import EncoderConfig, EncoderParams, encode_graph
from .graphs import GraphDataset, batch_graphs
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


def embed_graphs(
    dataset: GraphDataset, encoder_params: EncoderParams, config: EncoderConfig
) -> np.ndarray:
    """[M, d] full-graph embeddings: no attribution weighting, no projector."""
    if len(dataset) == 0:
        return np.zeros((0, config.output_dim))
    batch = batch_graphs(list(dataset.graphs))
    return encode_graph(batch, encoder_params, config).values


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
        raise ValueError(f"split leaves an empty side ({n_train} train of {m})")
    perm = np.random.default_rng(split_seed).permutation(m)
    tr, te = perm[:n_train], perm[n_train:]
    # fit only the classes the training split holds: a class without
    # training rows has no optimum (its intercept falls without bound)
    fitted = np.unique(y[tr])
    if fitted.size < 2:
        raise ValueError("train split contains a single class; cannot fit a probe")

    xa = np.hstack([x, np.ones((m, 1))])  # intercept column
    onehot = np.eye(fitted.size)[np.searchsorted(fitted, y[tr])]
    xt = xa[tr]
    lipschitz = np.linalg.norm(xt, 2) ** 2 / (2.0 * len(tr)) + l2
    step = 1.0 / lipschitz
    w = np.zeros((x.shape[1] + 1, fitted.size))
    ridge_mask = np.ones_like(w)
    ridge_mask[-1] = 0.0  # leave the intercept unpenalized
    ridge = l2 * ridge_mask
    # Row max as a running np.maximum over the few class columns: a max is
    # exact, so this equals logits.max(axis=1) bit for bit, and it skips a
    # reduce along the short class axis, about a third of a step on [400, 2].
    row_max = np.empty((len(tr), 1))
    iterations, grad_norm = 0, np.inf
    for iterations in range(1, PROBE_MAX_ITERS + 1):
        logits = xt @ w
        np.maximum(logits[:, :1], logits[:, 1:2], out=row_max)
        for c in range(2, fitted.size):
            np.maximum(row_max, logits[:, c:c + 1], out=row_max)
        logits -= row_max
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        grad = xt.T @ (p - onehot) / len(tr) + ridge * w
        flat = grad.ravel()
        grad_norm = np.sqrt(flat.dot(flat))  # what np.linalg.norm computes
        if grad_norm < PROBE_STOP_NORM:
            break
        w -= step * grad

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
    """
    variant = normalize_variant(variant)
    if variant == "no_independence":
        raise ValueError("that variant draws no complements to compare against")
    graphs = list(dataset.graphs)
    rng = np.random.default_rng(sample_seed)
    selections = sample_selections(graphs, state.generator, config, rng, variant)
    views = encode_views(
        graphs, selections, state.encoder, state.generator, state.projector,
        config, variant,
    )
    pos = np.sum(views.r1.values * views.r2.values, axis=1)
    comp = np.sum(views.r1.values * views.c.values, axis=1)
    return float(pos.mean()), float(comp.mean())


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
