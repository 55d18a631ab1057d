"""Self-supervised pre-training: the three-tower step, Adam, checkpoints.

Each step processes a batch of N anchor graphs. Phase A (no gradients)
scores every anchor and draws the discrete node selections for two
rationale views and one complement view. Phase B rebuilds attribution under
tape-lifted parameters, encodes the three view batches (so the encoder runs
exactly 3N graph-passes per step; 2N when the complement tower is ablated),
projects, and evaluates the contrastive loss. One tape, one backward, one
joint Adam update over encoder, scorer, and projector.

Ablation variants:
* ``no_rationale_views``: flat attribution and uniform sampling; the scorer
  is bypassed entirely (it receives zero gradient and never moves).
* ``no_independence``: the complement tower is skipped and only the
  sufficiency term trains.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import NumericError
from .encoder import (
    EncoderConfig,
    EncoderParams,
    MlpParams,
    PassCounter,
    encode_graph,
    init_mlp,
    init_params,
)
from .graphs import (
    Graph, GraphDataset, GraphFormatError, batch_graphs, check_field_types, make_dirs,
    read_json_object, require_int, require_object, write_text_atomic,
)
from .losses import BatchViews, LossReport, project, rgcl_loss
from .params import assign_arrays, lift_params, named_arrays, named_leaves
from .rationale import (
    WEIGHT_CEIL,
    WEIGHT_FLOOR,
    AttributionScores,
    attribute_nodes,
    uniform_scores,
    view_size,
    view_tower,
)
# perfbench's tracer wraps rgcl.training.<name> for these, so the names stay importable here
from .rationale import complement_from_kept, gumbel_top_k, rationale_from_kept  # noqa: F401

CHECKPOINT_VERSION = 3
ADAM_DECAYS = (0.9, 0.999)
ADAM_EPS = 1e-8
VARIANTS = ("full", "no_rationale_views", "no_independence")
_VARIANT_ALIASES = {"no_rv": "no_rationale_views", "no_i": "no_independence"}


class CheckpointFormatError(ValueError):
    """A checkpoint file is unreadable or inconsistent with the model."""


def normalize_variant(variant: str) -> str:
    v = _VARIANT_ALIASES.get(variant, variant)
    if v not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS} (or no_rv/no_i), got {variant!r}")
    return v


_INT_FIELDS = (
    "batch_size", "epochs", "seed", "projector_hidden", "projector_dim", "checkpoint_every",
)
_FLOAT_FIELDS = ("learning_rate", "tau", "lam", "rho")
_DIMS_FIELDS = ("encoder_dims", "generator_dims", "generator_head")


@dataclass(frozen=True)
class TrainConfig:
    """Everything that defines a pre-training run, minus the dataset."""

    batch_size: int = 32
    epochs: int = 20
    learning_rate: float = 0.01
    tau: float = 0.2
    lam: float = 0.1
    rho: float = 0.8
    seed: int = 0
    pooling: str = "add"
    encoder_gnn: str = "gin"
    encoder_dims: tuple[int, ...] = (32, 32, 32)
    generator_gnn: str = "gcn"
    generator_dims: tuple[int, ...] = (32, 32)
    generator_head: tuple[int, int] = (32, 1)
    projector_hidden: int = 32
    projector_dim: int = 32
    checkpoint_every: int = 100

    def __post_init__(self):
        def fail(field_name: str, constraint: str):
            raise ValueError(f"{field_name}: {constraint}")

        check_field_types(self, ints=_INT_FIELDS, floats=_FLOAT_FIELDS, int_tuples=_DIMS_FIELDS)

        if self.batch_size < 2:
            fail("batch_size", "must be >= 2")
        if self.epochs < 0:
            fail("epochs", "must be >= 0")
        if self.learning_rate <= 0:
            fail("learning_rate", "must be > 0")
        if self.tau <= 0:
            fail("tau", "must be > 0")
        if self.lam < 0:
            fail("lam", "must be >= 0")
        if self.seed < 0:
            fail("seed", "must be >= 0")
        if not 0.0 < self.rho <= 1.0:
            fail("rho", "must be in (0, 1]")
        if self.checkpoint_every < 1:
            fail("checkpoint_every", "must be >= 1")
        if self.generator_head[-1:] != (1,):
            fail("generator_head", "must end with an output width of 1")
        # these raise with a clear message if the combination is invalid
        self.encoder_config()
        self.generator_config()

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(
            gnn_type=self.encoder_gnn, layer_dims=self.encoder_dims, pooling=self.pooling
        )

    def generator_config(self) -> EncoderConfig:
        return EncoderConfig(
            gnn_type=self.generator_gnn,
            layer_dims=self.generator_dims,
            pooling=self.pooling,
            head_dims=self.generator_head,
        )

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        for k, v in d.items():
            if isinstance(v, tuple):
                d[k] = list(v)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)


@dataclass
class ModelParams:
    """The three jointly trained networks as one parameter tree.

    The field order fixes the order of the tape leaves and the flat names
    (``encoder.layers.0.w1``, ...) used by the optimizer and checkpoints.
    """

    encoder: EncoderParams
    generator: EncoderParams
    projector: MlpParams


@dataclass
class TrainState:
    params: ModelParams
    input_dim: int
    opt_m: dict[str, np.ndarray]
    opt_v: dict[str, np.ndarray]
    step: int
    rng: np.random.Generator
    # seeds the current epoch's shuffle; ``step`` fixes the epoch and the cursor
    epoch_perm_seed: int | None = None
    loss_history: list[float] = field(default_factory=list)
    encoder_passes: PassCounter = field(default_factory=PassCounter)
    anchors_seen: int = 0

    # the three trees inside ``params``, readable under their own names
    encoder = property(lambda self: self.params.encoder)
    generator = property(lambda self: self.params.generator)
    projector = property(lambda self: self.params.projector)


def init_train_state(config: TrainConfig, input_dim: int) -> TrainState:
    """Fresh parameters and optimizer state, fully determined by the seed."""
    seeds = np.random.SeedSequence(config.seed).generate_state(4)
    params = ModelParams(
        encoder=init_params(config.encoder_config(), input_dim, int(seeds[0])),
        generator=init_params(config.generator_config(), input_dim, int(seeds[1])),
        projector=init_mlp(
            np.random.default_rng(int(seeds[2])),
            config.encoder_dims[-1], config.projector_hidden, config.projector_dim,
        ),
    )
    flat = named_arrays(params)
    return TrainState(
        params=params,
        input_dim=int(input_dim),
        opt_m={k: np.zeros_like(v) for k, v in flat.items()},
        opt_v={k: np.zeros_like(v) for k, v in flat.items()},
        step=0,
        rng=np.random.default_rng(int(seeds[3])),
    )


def adam_update(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    m: dict[str, np.ndarray],
    v: dict[str, np.ndarray],
    lr: float,
    step: int,
):
    """One bias-corrected Adam step (``step`` is 1-based); returns new dicts."""
    if step < 1:
        raise ValueError("adam step index is 1-based")
    b1, b2 = ADAM_DECAYS
    new_p, new_m, new_v = {}, {}, {}
    for k, p in params.items():
        g = grads[k]
        new_m[k] = b1 * m[k] + (1.0 - b1) * g
        new_v[k] = b2 * v[k] + (1.0 - b2) * g * g
        m_hat = new_m[k] / (1.0 - b1**step)
        v_hat = new_v[k] / (1.0 - b2**step)
        new_p[k] = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_p, new_m, new_v


@dataclass(frozen=True)
class Selections:
    """Phase A's node choices, fixed before the tape forward: per tower, one
    ascending index array per anchor (``c`` is None without complements)."""

    r1: list[np.ndarray]
    r2: list[np.ndarray]
    c: list[np.ndarray] | None = None


def _node_scores(
    g: Graph, generator: EncoderParams, gen_cfg: EncoderConfig, variant: str
) -> AttributionScores:
    if variant == "no_rationale_views":
        return uniform_scores(g)
    return attribute_nodes(g, generator, gen_cfg)


def sample_selections(
    graphs: list[Graph],
    generator: EncoderParams,
    config: TrainConfig,
    rng: np.random.Generator,
    variant: str = "full",
) -> Selections:
    """Phase A: draw all node selections for a batch.

    Each anchor gets its own child generator split from the supplied
    stream, in anchor order, so the draws are reproducible anchor by
    anchor. The child draws the Gumbel noise of all the anchor's views at
    once, ``3 * n`` values (``2 * n`` without complements), which equal one
    ``n``-value draw per view in view order. One lexsort over (segment,
    -key) then keeps every view's top k for the whole batch, so the
    selections equal those of a :func:`gumbel_top_k` call per view.
    """
    variant = normalize_variant(variant)
    if not graphs:
        raise ValueError("sample_selections needs at least one graph")
    gen_cfg = config.generator_config()
    generator = lift_params(generator, None)
    num_views = 2 if variant == "no_independence" else 3
    weights, noise, sizes, ks = [], [], [], []
    for g in graphs:
        child = np.random.default_rng(int(rng.integers(2**63)))
        p = _node_scores(g, generator, gen_cfg, variant).probs.values.reshape(-1)
        weights += [p, p, 1.0 - p][:num_views]
        noise.append(child.gumbel(size=num_views * p.size))
        sizes.append(g.num_nodes)
        ks.append(view_size(g.num_nodes, config.rho))
    # gumbel_top_k's keys, segment by segment: anchor-major, then view
    w = np.clip(np.concatenate(weights), WEIGHT_FLOOR, WEIGHT_CEIL)
    keys = np.log(w) + np.concatenate(noise)
    seg_sizes = np.repeat(sizes, num_views)
    seg_ks = np.repeat(ks, num_views)
    starts = np.cumsum(seg_sizes) - seg_sizes
    seg = np.repeat(np.arange(seg_sizes.size), seg_sizes)
    # sorting keeps each segment's block in place, so slot j of the order
    # is rank j - starts[seg[j]] within its segment
    order = np.lexsort((-keys, seg))
    kept = np.zeros(keys.size, dtype=bool)
    kept[order[np.arange(keys.size) - starts[seg] < seg_ks[seg]]] = True
    flat = np.flatnonzero(kept)  # ascending: segment by segment, node by node
    nodes = np.split(flat - starts[seg[flat]], np.cumsum(seg_ks)[:-1])
    return Selections(*(nodes[v::num_views] for v in range(num_views)))


def encode_views(
    graphs: list[Graph],
    selections: Selections,
    encoder: EncoderParams,
    generator: EncoderParams,
    projector: MlpParams,
    config: TrainConfig,
    variant: str = "full",
) -> BatchViews:
    """The differentiable view forward given frozen selections.

    Parameters may be raw arrays (value-only evaluation) or tape-lifted
    tensors (training). The graphs' probabilities are stacked into one
    column, and :func:`rationale.view_tower` cuts the towers from it in the
    order r1, r2, c, which fixes the order of their tape records. ``c`` is
    drawn exactly when the variant has it (every variant but ``no_independence``).
    """
    variant = normalize_variant(variant)
    for kept in (selections.r1, selections.r2, selections.c):
        if kept is not None and len(kept) != len(graphs):
            raise ValueError(f"encode_views needs one selection per graph in each tower, "
                             f"got {len(graphs)} graphs and {len(kept)} selections")
    wants_c = variant != "no_independence"
    if (selections.c is not None) != wants_c:
        raise ValueError(
            f"variant {variant} {'needs' if wants_c else 'takes no'} complement selections"
        )
    gen_cfg = config.generator_config()
    enc_cfg = config.encoder_config()
    generator = lift_params(generator, None)
    probs = ad.concat_rows([_node_scores(g, generator, gen_cfg, variant).probs for g in graphs])

    def tower(kept, complement=False):
        subgraphs, attribution = view_tower(graphs, probs, kept, complement)
        pooled = encode_graph(batch_graphs(subgraphs), encoder, enc_cfg, attribution=attribution)
        return project(pooled, projector)

    return BatchViews(tower(selections.r1), tower(selections.r2),
                      tower(selections.c, complement=True) if wants_c else None)


def batch_views_loss(
    graphs: list[Graph],
    selections: Selections,
    encoder: EncoderParams,
    generator: EncoderParams,
    projector: MlpParams,
    config: TrainConfig,
    variant: str = "full",
):
    """Phase B: ``encode_views`` plus the contrastive loss; returns
    ``(total, report, views)``."""
    views = encode_views(graphs, selections, encoder, generator, projector, config, variant)
    total, report = rgcl_loss(views, config.tau, config.lam)
    return total, report, views


def train_step(
    state: TrainState,
    graphs: list[Graph],
    config: TrainConfig,
    variant: str = "full",
) -> tuple[TrainState, LossReport]:
    """One optimization step over a batch of anchor graphs (N >= 2)."""
    if len(graphs) < 2:
        raise ValueError(f"train_step needs at least 2 graphs, got {len(graphs)}")
    tape = ad.Tape()
    lifted = lift_params(state.params, tape)
    try:
        selections = sample_selections(graphs, state.generator, config, state.rng, variant)
        total, report, views = batch_views_loss(
            graphs, selections, lifted.encoder, lifted.generator, lifted.projector,
            config, variant,
        )
    except NumericError as exc:
        raise NumericError(f"step {state.step}: {exc}") from exc
    # one encoder pass per projected view row: 3N, or 2N without the complement
    rows = [t.shape[0] for t in (views.r1, views.r2, views.c) if t is not None]
    state.encoder_passes.add(sum(rows))
    if not (
        np.isfinite(report.total) and np.isfinite(report.l_su) and np.isfinite(report.l_in)
    ):
        raise NumericError(
            f"non-finite loss at step {state.step}: "
            f"l_su={report.l_su} l_in={report.l_in} total={report.total}"
        )

    store = ad.backward(tape, total)
    grads = {k: store[t] for k, t in named_leaves(lifted).items()}
    new_params, state.opt_m, state.opt_v = adam_update(
        named_arrays(state.params), grads, state.opt_m, state.opt_v,
        config.learning_rate, state.step + 1,
    )
    assign_arrays(state.params, new_params)
    state.step += 1
    state.anchors_seen += len(graphs)
    state.loss_history.append(report.total)
    return state, report


def pretrain(
    dataset: GraphDataset,
    config: TrainConfig,
    state: TrainState | None = None,
    output_dir=None,
    variant: str = "full",
) -> TrainState:
    """Run the pre-training loop until ``state.step`` reaches
    ``epochs * ceil(M / batch_size)``, with a fresh shuffle per epoch.

    The step count alone fixes the epoch and the batch within it. Passing a
    loaded ``state`` resumes exactly where it stopped (a mid-epoch one needs
    its ``epoch_perm_seed``); a resumed run reproduces the uninterrupted one
    step for step. With an ``output_dir``, per-step metrics go to
    ``metrics.jsonl`` and checkpoints are written every ``checkpoint_every``
    steps plus at the end. Resuming into the directory of the interrupted
    run first drops the metrics lines past the loaded step, so the file ends
    up byte-identical to that of a run that never stopped.
    """
    variant = normalize_variant(variant)
    if len(dataset) == 0:
        raise GraphFormatError("cannot pretrain on an empty dataset")
    if state is None:
        state = init_train_state(config, dataset.feature_dim)
    m_total = len(dataset)
    per_epoch = -(-m_total // config.batch_size)
    if state.step % per_epoch and state.epoch_perm_seed is None:
        raise ValueError(f"step {state.step} is mid-epoch but the state holds no epoch shuffle")

    out = None
    writer = None
    if output_dir is not None:
        out = Path(output_dir)
        make_dirs(out)
        metrics = out / "metrics.jsonl"
        if state.step > 0:
            _cut_metrics(metrics, state.step)
        writer = open(metrics, "a" if state.step > 0 else "w")

    try:
        while state.step < config.epochs * per_epoch:
            if state.step % per_epoch == 0:
                state.epoch_perm_seed = int(state.rng.integers(2**63))
            perm = np.random.default_rng(state.epoch_perm_seed).permutation(m_total)
            for cursor in range(state.step % per_epoch * config.batch_size, m_total,
                                config.batch_size):
                idx = perm[cursor : cursor + config.batch_size]
                if len(idx) == 1:
                    # a trailing singleton cannot form a contrastive batch;
                    # borrow the epoch's first graph to pair it up
                    idx = np.concatenate([idx, perm[:1]])
                graphs = [dataset[int(i)] for i in idx]
                state, report = train_step(state, graphs, config, variant)
                if writer is not None:
                    writer.write(json.dumps(report.metrics_line(state.step)) + "\n")
                    writer.flush()
                if out is not None and state.step % config.checkpoint_every == 0:
                    save_checkpoint(state, out / f"ckpt_{state.step:06d}.json", config)
        if out is not None:
            save_checkpoint(state, out / "ckpt_final.json", config)
    finally:
        if writer is not None:
            writer.close()
    return state


def _cut_metrics(path: Path, last_step: int) -> None:
    """Cut a resumed run's ``metrics.jsonl`` back to its complete lines up to
    ``last_step``, so the steps replayed after a crash are not written twice.
    The file is replaced atomically; a missing file is left alone."""
    if not path.exists():
        return
    kept = []
    for line in path.read_text().splitlines(keepends=True):
        if not line.endswith("\n") or json.loads(line)["step"] > last_step:
            break
        kept.append(line)
    write_text_atomic(path, "".join(kept))


# ---------------------------------------------------------------------------
# checkpoints


def _packed(v: np.ndarray) -> Iterator[str]:
    yield json.dumps({"shape": list(v.shape), "values": v.reshape(-1).tolist()})


def _pack_arrays(arrays: dict[str, np.ndarray]) -> dict[str, Iterator[str]]:
    """A section of named arrays, each encoded as ``{"shape": ..., "values": ...}`` only
    when :func:`_json_pieces` reaches it."""
    return {k: _packed(v) for k, v in arrays.items()}


def _json_pieces(obj) -> Iterator[str]:
    """The text of ``json.dumps(obj)`` in pieces. A dict (with ``str`` keys) is encoded one
    value at a time, an iterator (which ``json.dumps`` refuses) is taken as pieces of JSON
    text already, and any other value is one piece."""
    if isinstance(obj, dict):
        yield "{"
        for i, (k, v) in enumerate(obj.items()):
            yield (", " if i else "") + json.dumps(k) + ": "
            yield from _json_pieces(v)
        yield "}"
    elif isinstance(obj, Iterator):
        yield from obj
    else:
        yield json.dumps(obj)


def _unpack_section(payload, what: str, model: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Read one packed section; it must hold exactly ``model``'s names and shapes."""
    section = require_object(payload, CheckpointFormatError, f"{what} section")
    if section.keys() != model.keys():
        odd = sorted(section.keys() ^ model.keys())[:5]
        raise ValueError(f"{what} section does not hold the model's parameters: {odd}")
    out = {}
    for k, ref in model.items():
        try:
            arr = np.asarray(section[k]["values"], dtype=np.float64).reshape(section[k]["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointFormatError(f"bad {what} entry {k!r}: {exc}") from exc
        if arr.shape != ref.shape:
            raise ValueError(f"{what} entry {k!r} has shape {arr.shape}, not {ref.shape}")
        out[k] = arr
    return out


def save_checkpoint(state: TrainState, path, config: TrainConfig) -> None:
    """Versioned JSON snapshot; float64 values survive the round trip bit
    for bit (shortest-repr decimal serialization). The file is written one
    array at a time, with the bytes ``json.dumps`` gives the whole payload."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "config": config.to_dict(),
        "input_dim": state.input_dim,
        "step": state.step,
        "params": _pack_arrays(named_arrays(state.params)),
        "opt": {"m": _pack_arrays(state.opt_m), "v": _pack_arrays(state.opt_v)},
        "rng": {
            "master": state.rng.bit_generator.state,
            "epoch_perm_seed": state.epoch_perm_seed,
        },
    }
    write_text_atomic(path, _json_pieces(payload))


def load_checkpoint(path, expected_config: TrainConfig | None = None):
    """Rebuild ``(state, config)`` from a checkpoint file.

    When ``expected_config`` is given it overrides the stored one and every
    array shape is validated against it, so loading a checkpoint into a
    differently-sized model fails loudly. Errors leave no partial state
    behind.
    """
    p = Path(path)
    payload = read_json_object(p, CheckpointFormatError, "checkpoint")
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(
            f"{p}: unsupported checkpoint version {version!r}"
            f" (this build reads version {CHECKPOINT_VERSION})"
        )
    try:
        config = TrainConfig.from_dict(payload["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"bad checkpoint config: {exc}") from exc
    if expected_config is not None:
        config = expected_config

    try:
        state = init_train_state(config, require_int("input_dim", payload["input_dim"]))
        model = named_arrays(state.params)
        opt = require_object(payload["opt"], CheckpointFormatError, "opt section")
        assign_arrays(state.params, _unpack_section(payload["params"], "params", model))
        state.opt_m = _unpack_section(opt["m"], "opt.m", model)
        state.opt_v = _unpack_section(opt["v"], "opt.v", model)
        state.step = require_int("step", payload["step"], minimum=0)
        rng_info = require_object(payload["rng"], CheckpointFormatError, "rng section")
        state.rng.bit_generator.state = rng_info["master"]
        seed = rng_info["epoch_perm_seed"]
        state.epoch_perm_seed = None if seed is None else require_int(
            "rng.epoch_perm_seed", seed, minimum=0)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{p}: {exc}") from exc
    return state, config
