"""Message-passing encoders (GIN and GCN) with segment pooling.

The same machinery serves two roles: the backbone that embeds whole graphs
(or sampled views, optionally weighted by per-node attribution before
pooling), and the GNN trunk of the attribution scorer, which additionally
carries a small per-node MLP head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graphs import GraphBatch, check_field_types
from .params import lift_params

GNN_TYPES = ("gin", "gcn")
POOLINGS = ("add", "mean")


@dataclass(frozen=True)
class EncoderConfig:
    gnn_type: str = "gin"
    layer_dims: tuple[int, ...] = (32, 32, 32)
    pooling: str = "add"
    # optional per-node scoring head (hidden width, output width)
    head_dims: tuple[int, int] | None = None

    def __post_init__(self):
        if self.gnn_type not in GNN_TYPES:
            raise ValueError(f"gnn_type must be one of {GNN_TYPES}, got {self.gnn_type!r}")
        if self.pooling not in POOLINGS:
            raise ValueError(f"pooling must be one of {POOLINGS}, got {self.pooling!r}")
        check_field_types(self, int_tuples=("layer_dims",))
        if not self.layer_dims or any(d < 1 for d in self.layer_dims):
            raise ValueError(f"layer_dims must be positive, got {self.layer_dims}")
        if self.head_dims is not None:
            check_field_types(self, int_tuples=("head_dims",))
            if len(self.head_dims) != 2 or any(d < 1 for d in self.head_dims):
                raise ValueError(f"head_dims must be (hidden, out), got {self.head_dims}")

    @property
    def output_dim(self) -> int:
        return self.layer_dims[-1]


@dataclass
class MlpParams:
    """Two affine maps with one inner ReLU: every GIN layer's MLP, the scorer
    head and the projector."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class GinLayerParams(MlpParams):
    """Sum-aggregation layer: MLP((1 + eps) * h_v + sum of neighbor h_u)."""

    eps: np.ndarray  # learnable scalar, shape ()


@dataclass
class GcnLayerParams:
    w: np.ndarray
    b: np.ndarray


@dataclass
class EncoderParams:
    layers: list
    head: MlpParams | None = None


@dataclass
class PassCounter:
    """Counts encoder forward passes in units of graphs encoded."""

    graphs: int = 0

    def add(self, num_graphs: int) -> None:
        self.graphs += int(num_graphs)


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_mlp(rng: np.random.Generator, d_in: int, d_hidden: int, d_out: int) -> MlpParams:
    """Glorot-uniform ``w1`` then ``w2`` drawn from ``rng``, zero biases."""
    return MlpParams(
        w1=glorot(rng, d_in, d_hidden),
        b1=np.zeros(d_hidden),
        w2=glorot(rng, d_hidden, d_out),
        b2=np.zeros(d_out),
    )


def init_params(config: EncoderConfig, input_dim: int, seed: int) -> EncoderParams:
    """Glorot-uniform weights, zero biases, zero GIN epsilons; deterministic
    for a given seed. The layers draw in order, then the head."""
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    rng = np.random.default_rng(seed)
    layers = []
    d_prev = input_dim
    for d_out in config.layer_dims:
        if config.gnn_type == "gin":
            mlp = init_mlp(rng, d_prev, d_out, d_out)
            layers.append(GinLayerParams(**vars(mlp), eps=np.zeros(())))
        else:
            layers.append(GcnLayerParams(w=glorot(rng, d_prev, d_out), b=np.zeros(d_out)))
        d_prev = d_out
    head = None if config.head_dims is None else init_mlp(rng, d_prev, *config.head_dims)
    return EncoderParams(layers=layers, head=head)


def mlp_forward(x: Tensor, p: MlpParams) -> Tensor:
    hidden = ad.relu(ad.add_bias(ad.matmul(x, p.w1), p.b1))
    return ad.add_bias(ad.matmul(hidden, p.w2), p.b2)


def gin_layer(batch: GraphBatch, h: Tensor, p: GinLayerParams) -> Tensor:
    """(1 + eps) * h_v plus the neighbor sum, pushed through the layer MLP."""
    return mlp_forward(ad.gin_aggregate(h, p.eps, batch.src, batch.dst), p)


def gcn_layer(batch: GraphBatch, h: Tensor, p: GcnLayerParams) -> Tensor:
    """ReLU(normalized-adjacency @ h @ w + b), self-loops added here.

    With edges duplicated per direction, the in-degree count plus the
    implicit self-loop gives the usual symmetric normalization. The
    coefficients are computed once per batch (``GraphBatch.gcn_coefs``).
    """
    edge_coef, self_coef = batch.gcn_coefs
    pre = ad.gcn_propagate(h, batch.src, batch.dst, edge_coef, self_coef)
    return ad.relu(ad.add_bias(ad.matmul(pre, p.w), p.b))


def node_embeddings(batch: GraphBatch, params: EncoderParams, config: EncoderConfig) -> Tensor:
    """Stacked message-passing layers on a lifted tree; no pooling, no attribution."""
    if len(params.layers) != len(config.layer_dims):
        raise ValueError(
            f"params have {len(params.layers)} layers, config expects {len(config.layer_dims)}"
        )
    h = ad.const(batch.node_features)
    last = len(params.layers) - 1
    for i, layer in enumerate(params.layers):
        if config.gnn_type == "gin":
            h = gin_layer(batch, h, layer)
            if i < last:
                h = ad.relu(h)
        else:
            h = gcn_layer(batch, h, layer)
    return h


def encode_graph(
    batch: GraphBatch,
    params: EncoderParams,
    config: EncoderConfig,
    attribution: Tensor | None = None,
) -> Tensor:
    """Per-graph embeddings [num_graphs, d].

    When ``attribution`` (an [num_nodes, 1] column aligned with the batch) is
    given, node embeddings are scaled by it before pooling; this is the only
    path through which attribution receives gradient. ``attribution=None``
    behaves exactly like an all-ones column.
    """
    h = node_embeddings(batch, lift_params(params, None), config)
    if attribution is not None:
        if attribution.shape != (batch.num_nodes, 1):
            raise ValueError(
                f"attribution shape {attribution.shape} != ({batch.num_nodes}, 1)"
            )
        h = ad.mul(h, attribution)
    pool = ad.segment_sum if config.pooling == "add" else ad.segment_mean
    return pool(h, batch.graph_id, batch.num_graphs)
