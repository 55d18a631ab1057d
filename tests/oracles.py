"""Independent reference implementations used to check the package.

Everything here is written the slow, obvious way (dense matrices, explicit
enumeration, arbitrary-precision arithmetic) and deliberately shares no code
with ``rgcl`` itself. The exceptions are the unfused chains of the fused
ops, built from the package's elementary tape ops, Phase A drawn one
``gumbel_top_k`` call per view, and each view cut by hand from
``induced_subgraph`` and elementary tape ops: the fused and batched forms
must match exactly those, bit for bit. The one-shot checkpoint text also
takes the package's names of the arrays (``rgcl.params.named_arrays``) and
its config dict, so that only how the text is encoded differs.
"""

from __future__ import annotations

import itertools
import json
import re
from pathlib import Path

import mpmath
import numpy as np


# ---------------------------------------------------------------------------
# gradients


def finite_difference(f, arrays, h: float = 1e-5):
    """Central-difference gradient of scalar ``f()`` w.r.t. each array.

    ``f`` must read the arrays in ``arrays`` (they are perturbed in place).
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_err(a, b, floor: float = 1e-3) -> float:
    """Worst relative disagreement, with an absolute floor for tiny entries."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b) / denom))


# ---------------------------------------------------------------------------
# dense message-passing references


def dense_adjacency(num_nodes: int, edges) -> np.ndarray:
    a = np.zeros((num_nodes, num_nodes))
    for u, v in edges:
        a[u, v] = 1.0
    return a


def gin_layer_dense(adj, h, w1, b1, w2, b2, eps) -> np.ndarray:
    """(1 + eps) * H + A @ H, then the two-affine MLP with an inner ReLU."""
    pre = (1.0 + eps) * h + adj @ h
    hidden = np.maximum(pre @ w1 + b1, 0.0)
    return hidden @ w2 + b2


def gcn_layer_dense(adj, h, w, b) -> np.ndarray:
    """ReLU(D^-1/2 (A + I) D^-1/2 H W + b) with self-loops added here."""
    n = adj.shape[0]
    a_hat = adj + np.eye(n)
    deg = a_hat.sum(axis=1)
    d_inv_sqrt = np.diag(1.0 / np.sqrt(deg))
    norm = d_inv_sqrt @ a_hat @ d_inv_sqrt
    return np.maximum(norm @ h @ w + b, 0.0)


def gin_aggregate_unfused(h, eps, src, dst):
    """``autodiff.gin_aggregate`` as the chain of elementary tape ops it fuses:
    gather the source rows, scatter them onto the destinations, and add
    ``h * (eps + 1)``."""
    import rgcl.autodiff as ad

    agg = ad.segment_sum(ad.gather_rows(h, src), dst, h.shape[0])
    scaled = ad.mul(h, ad.add(eps, ad.const(1.0)))
    return ad.add(scaled, agg)


def gcn_propagate_unfused(h, src, dst, edge_coef, self_coef):
    """``autodiff.gcn_propagate`` as the chain of elementary tape ops it fuses:
    the self term, the gathered rows times their edge weights, the scatter onto
    the destinations and the sum."""
    import rgcl.autodiff as ad

    self_term = ad.mul(h, ad.const(self_coef))
    msgs = ad.mul(ad.gather_rows(h, src), ad.const(edge_coef))
    return ad.add(ad.segment_sum(msgs, dst, h.shape[0]), self_term)


def affine_unfused(x, w, b, relu):
    """``autodiff.affine`` as the chain of elementary tape ops it fuses:
    ``matmul``, ``add_bias``, then ``relu`` when ``relu`` is true."""
    import rgcl.autodiff as ad

    out = ad.add_bias(ad.matmul(x, w), b)
    return ad.relu(out) if relu else out


def sample_selections_per_view(graphs, generator, config, rng, variant="full"):
    """``training.sample_selections`` with one ``gumbel_top_k`` call per view:
    each anchor splits a child generator off ``rng`` and draws r1, r2, then
    (unless the variant drops complements) c from it, weighting by p and
    1 - p. Returns ``(r1, r2, c)`` tuples, ``c`` None without complements."""
    from rgcl.rationale import attribute_nodes, gumbel_top_k, uniform_scores, view_size
    from rgcl.training import normalize_variant

    variant = normalize_variant(variant)
    out = []
    for g in graphs:
        child = np.random.default_rng(int(rng.integers(2**63)))
        if variant == "no_rationale_views":
            scores = uniform_scores(g)
        else:
            scores = attribute_nodes(g, generator, config.generator_config())
        p = scores.probs.values.reshape(-1)
        k = view_size(g.num_nodes, config.rho)
        r1 = gumbel_top_k(p, k, child)
        r2 = gumbel_top_k(p, k, child)
        c = None if variant == "no_independence" else gumbel_top_k(1.0 - p, k, child)
        out.append((r1, r2, c))
    return out


def view_per_view(g, scores, kept, complement=False):
    """One view cut by hand: ``induced_subgraph`` on the kept nodes and one
    ``gather_rows`` of their probabilities, then ``sub`` + ``clip`` for the
    clamped 1 - p of a complement view. Returns ``(subgraph, attribution)``."""
    import rgcl.autodiff as ad
    from rgcl.graphs import induced_subgraph
    from rgcl.rationale import WEIGHT_CEIL, WEIGHT_FLOOR

    rows = ad.gather_rows(scores.probs, kept)
    if complement:
        ones = ad.const(np.ones((rows.shape[0], 1)))
        rows = ad.clip(ad.sub(ones, rows), WEIGHT_FLOOR, WEIGHT_CEIL)
    return induced_subgraph(g, kept), rows


def encode_views_per_view(graphs, selections, encoder, generator, projector, config,
                          variant="full"):
    """``training.encode_views`` built view by view: each graph's scores, one
    :func:`view_per_view` per selection (the c tower's as complements), then
    per tower one ``batch_graphs`` of the subgraphs and one ``concat_rows`` of
    the views' attribution rows."""
    import rgcl.autodiff as ad
    from rgcl.encoder import encode_graph
    from rgcl.graphs import batch_graphs
    from rgcl.losses import BatchViews, project
    from rgcl.params import lift_params
    from rgcl.rationale import attribute_nodes, uniform_scores
    from rgcl.training import normalize_variant

    variant = normalize_variant(variant)
    generator = lift_params(generator, None)
    towers = [selections.r1, selections.r2] + ([] if selections.c is None else [selections.c])
    views = [[] for _ in towers]
    for i, g in enumerate(graphs):
        if variant == "no_rationale_views":
            scores = uniform_scores(g)
        else:
            scores = attribute_nodes(g, generator, config.generator_config())
        for t, kept in enumerate(towers):
            views[t].append(view_per_view(g, scores, kept[i], complement=t == 2))

    def tower(tower_views):
        batch = batch_graphs([sub for sub, _ in tower_views])
        attribution = ad.concat_rows([rows for _, rows in tower_views])
        pooled = encode_graph(batch, encoder, config.encoder_config(), attribution=attribution)
        return project(pooled, projector)

    return BatchViews(*[tower(tower_views) for tower_views in views])


def view_similarities_one_batch(dataset, state, config, sample_seed=0, variant="full"):
    """``evaluation.view_similarities`` over one batch of all the graphs: one
    ``sample_selections`` and one ``encode_views`` call, then the means of the
    (r1, r2) and (r1, c) row dot products."""
    from rgcl.training import encode_views, sample_selections

    graphs = list(dataset.graphs)
    rng = np.random.default_rng(sample_seed)
    selections = sample_selections(graphs, state.generator, config, rng, variant)
    views = encode_views(graphs, selections, state.encoder, state.generator, state.projector,
                         config, variant)
    pos = np.sum(views.r1.values * views.r2.values, axis=1)
    comp = np.sum(views.r1.values * views.c.values, axis=1)
    return float(pos.mean()), float(comp.mean())


def gcn_coefs_fresh(edges, num_nodes):
    """GCN's ``(edge_coef, self_coef)`` for one edge list, computed from scratch
    the way a GCN layer computes them for each call: the degree counts
    in-edges plus the self-loop."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    deg = 1.0 + np.bincount(edges[:, 1], minlength=num_nodes)
    inv_sqrt = 1.0 / np.sqrt(deg)
    return (inv_sqrt[edges[:, 0]] * inv_sqrt[edges[:, 1]])[:, None], (1.0 / deg)[:, None]


# ---------------------------------------------------------------------------
# weighted sampling without replacement


def inclusion_probabilities(weights, k: int) -> np.ndarray:
    """Exact per-item inclusion probability of a size-k draw without
    replacement, where at each step item i is taken with probability
    proportional to its weight among the remaining items.

    Enumerates every ordered k-sequence; only feasible for tiny n.
    """
    w = np.asarray(weights, dtype=np.float64)
    n = w.size
    incl = np.zeros(n)
    for seq in itertools.permutations(range(n), k):
        p = 1.0
        remaining = w.sum()
        for i in seq:
            p *= w[i] / remaining
            remaining -= w[i]
        for i in seq:
            incl[i] += p
    return incl


# ---------------------------------------------------------------------------
# contrastive losses in arbitrary precision


def _mp_dot(a, b):
    return mpmath.fsum(mpmath.mpf(float(x)) * mpmath.mpf(float(y)) for x, y in zip(a, b))


def sufficiency_loss_mp(r1, r2, n: int, tau: float) -> float:
    """-log of exp(pos/tau) over the sum of exp(sim/tau) for the 2(N-1)
    rationale rows of the other anchors. Computed with mpmath.
    """
    with mpmath.workdps(60):
        t = mpmath.mpf(float(tau))
        pos = _mp_dot(r1[n], r2[n]) / t
        denom = mpmath.mpf(0)
        for i in range(len(r1)):
            if i == n:
                continue
            denom += mpmath.e ** (_mp_dot(r1[n], r1[i]) / t)
            denom += mpmath.e ** (_mp_dot(r1[n], r2[i]) / t)
        return float(-(pos - mpmath.log(denom)))


def independence_loss_mp(r1, r2, c, n: int, tau: float) -> float:
    """-log[exp(pos/tau) / (exp(pos/tau) + sum_i exp(r1[n]. c[i] / tau))]."""
    with mpmath.workdps(60):
        t = mpmath.mpf(float(tau))
        pos = mpmath.e ** (_mp_dot(r1[n], r2[n]) / t)
        denom = pos
        for i in range(len(c)):
            denom += mpmath.e ** (_mp_dot(r1[n], c[i]) / t)
        return float(-mpmath.log(pos / denom))


# ---------------------------------------------------------------------------
# linear probe: the plain gradient-descent loop and a Newton solver


def linear_probe_reference(embeddings, labels, split_seed=0, train_fraction=0.8, l2=1e-4) -> dict:
    """``rgcl.evaluation.linear_probe`` as the plain allocating loop, with
    reduces for the row max and row sum, ``l2 * (w * ridge_mask)`` and
    ``np.linalg.norm``: the loop the package's buffered one must match bit
    for bit. It fits only the classes present in the training split and
    counts every class. Returns the probe's fields as a dict, ``grad_norm``
    being the last norm the stopping test read."""
    x = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    m = x.shape[0]
    n_train = int(round(train_fraction * m))
    perm = np.random.default_rng(split_seed).permutation(m)
    tr, te = perm[:n_train], perm[n_train:]
    num_classes = int(y.max()) + 1
    fitted = np.unique(y[tr])  # the classes with training rows
    xa = np.hstack([x, np.ones((m, 1))])
    onehot = np.eye(fitted.size)[np.searchsorted(fitted, y[tr])]
    xt = xa[tr]
    lipschitz = np.linalg.norm(xt, 2) ** 2 / (2.0 * len(tr)) + l2
    step = 1.0 / lipschitz
    w = np.zeros((x.shape[1] + 1, fitted.size))
    ridge_mask = np.ones_like(w)
    ridge_mask[-1] = 0.0
    for iterations in range(1, 5000 + 1):
        logits = xt @ w
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        grad = xt.T @ (p - onehot) / len(tr) + l2 * (w * ridge_mask)
        grad_norm = np.linalg.norm(grad)
        if grad_norm < 1e-6:
            break
        w -= step * grad

    def counts(labels_):
        return {c: int(np.sum(labels_ == c)) for c in range(num_classes)}

    pred = fitted[(xa @ w).argmax(axis=1)]
    return {
        "train_accuracy": float((pred[tr] == y[tr]).mean()),
        "test_accuracy": float((pred[te] == y[te]).mean()),
        "train_class_counts": counts(y[tr]),
        "test_class_counts": counts(y[te]),
        "iterations": iterations,
        "grad_norm": float(grad_norm),
    }


def probe_objective(w, x, y, l2):
    """Mean softmax cross-entropy of ``[x, 1] @ w`` plus ``l2 / 2`` times the
    squared weights (intercept row unpenalised), with its gradient."""
    xa = np.hstack([x, np.ones((x.shape[0], 1))])
    onehot = np.eye(w.shape[1])[y]
    mask = np.ones_like(w)
    mask[-1] = 0.0
    logits = xa @ w
    shift = logits.max(axis=1, keepdims=True)
    log_z = shift[:, 0] + np.log(np.exp(logits - shift).sum(axis=1))
    p = np.exp(logits - log_z[:, None])
    value = float(np.mean(log_z - logits[np.arange(len(y)), y]))
    value += 0.5 * l2 * float(np.sum((w * mask) ** 2))
    grad = xa.T @ (p - onehot) / len(y) + l2 * w * mask
    return value, grad


def newton_probe(x, y, num_classes, l2):
    """Minimise :func:`probe_objective` by damped Newton steps.

    The Hessian is assembled entry by entry from the per-row softmax
    covariances. Shifting every intercept by one constant leaves the
    objective unchanged, so the Hessian is singular along that direction;
    the step is the least-squares solution, which the gradient (orthogonal
    to that direction) permits. Stops at a gradient norm below 1e-10 or after 100 steps.
    Returns (weights, gradient norm, iterations).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    xa = np.hstack([x, np.ones((x.shape[0], 1))])
    d, c = xa.shape[1], num_classes
    mask = np.ones((d, c))
    mask[-1] = 0.0
    w = np.zeros((d, c))
    value, grad = probe_objective(w, x, y, l2)
    for it in range(101):
        norm = float(np.linalg.norm(grad))
        if norm < 1e-10 or it == 100:
            return w, norm, it
        logits = xa @ w
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        cov = np.einsum("ik,kl->ikl", p, np.eye(c)) - np.einsum("ik,il->ikl", p, p)
        hess = np.einsum("ia,ib,ikl->akbl", xa, xa, cov) / len(y)
        hess += l2 * np.einsum("ak,ab,kl->akbl", mask, np.eye(d), np.eye(c))
        hess = hess.reshape(d * c, d * c)
        direction = -np.linalg.lstsq(hess, grad.reshape(-1), rcond=None)[0].reshape(d, c)
        # Backtracking (Armijo) line search. Near the optimum the decrease
        # falls below the objective's rounding, so a step that shrinks the
        # gradient is taken as well.
        t = 1.0
        while True:
            new_value, new_grad = probe_objective(w + t * direction, x, y, l2)
            if (new_value <= value + 1e-4 * t * float(np.sum(grad * direction))
                    or np.linalg.norm(new_grad) < norm or t < 1e-12):
                break
            t *= 0.5
        w, value, grad = w + t * direction, new_value, new_grad


# ---------------------------------------------------------------------------
# misc small references


def canonical_edges_reference(edges) -> np.ndarray:
    """Every edge and its reverse, deduplicated and sorted by rows with
    ``np.unique(axis=0)``, which needs no bound on the node ids."""
    arr = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return np.unique(np.concatenate([arr, arr[:, ::-1]]), axis=0)


def induced_edges_bruteforce(edges, keep) -> list[tuple[int, int]]:
    """Edges surviving a node subset, relabeled by position in sorted keep."""
    keep = sorted(keep)
    pos = {v: i for i, v in enumerate(keep)}
    out = []
    for u, v in edges:
        if u in pos and v in pos:
            out.append((pos[u], pos[v]))
    return out


def topk_by_score(scores, k: int) -> list[int]:
    """Top-k indices by score, ties broken toward the lower index."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return sorted(order[:k])


def softmax_ref(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(x - x.max())
    return e / e.sum()


def log_gumbel_argmax_prob(weights, chosen) -> float:
    """P(argmax_i log w_i + G_i = chosen) = w_chosen / sum w (sanity helper)."""
    w = np.asarray(weights, dtype=np.float64)
    return float(w[chosen] / w.sum())


def jitter_params(params, seed, scale=0.3):
    """Shift every parameter (biases included) off zero so no ReLU sits at
    its kink during finite differencing."""
    from rgcl.params import named_arrays

    rng = np.random.default_rng(seed)
    for v in named_arrays(params).values():
        v += rng.normal(0.0, scale, v.shape)


# ---------------------------------------------------------------------------
# planted-motif generator


def planted_motif_reference(spec, count: int):
    """The planted-motif generator with its background wiring drawn pair by pair.

    ``spec`` is a ``PlantedMotifSpec``. Returns one ``(features, edges, label,
    mask)`` per graph, with the sorted distinct edges and every reverse added,
    drawing from ``default_rng(spec.seed)`` in the generator's order: the node
    count, one ``rng.random()`` per background pair (u < v, row by row), the
    attachment edge, then the feature noise.
    """
    rng = np.random.default_rng(spec.seed)
    lo, hi = spec.background_size_range
    k = spec.motif_size
    graphs = []
    for i in range(count):
        label = i % spec.num_classes
        n = int(rng.integers(lo, hi + 1))
        edges = [(j, (j + 1) % k) for j in range(k)]
        if label > 0:
            edges += [(j, (j + 1 + label) % k) for j in range(k) if (j + 1 + label) % k != j]
        for u in range(k, n):
            for v in range(u + 1, n):
                if rng.random() < spec.edge_prob_background:
                    edges.append((u, v))
        if n > k:
            edges.append((int(rng.integers(0, k)), int(rng.integers(k, n))))
        features = rng.normal(0.0, spec.noise_std, size=(n, spec.feature_dim))
        signature = np.zeros(spec.feature_dim)
        signature[label % spec.feature_dim] = 1.0
        features[:k] += signature
        both = sorted(set(edges) | {(v, u) for u, v in edges})
        graphs.append((features, both, label, [j < k for j in range(n)]))
    return graphs


# ---------------------------------------------------------------------------
# TU-format directories


def write_random_tu(directory, seed: int, min_graphs: int = 1) -> None:
    """Write a seeded random TU directory with prefix ``R``.

    It holds ``min_graphs``-5 graphs of 1-6 nodes. Edge lines are shuffled
    across graphs and include self-loops and blank lines, or the edge file is
    empty. The separator is a comma, a comma and space, a space or a tab. Each
    label file is present or absent.
    """
    rng = np.random.default_rng(seed)
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    sep = str(rng.choice([",", ", ", " ", "\t"]))
    sizes = [int(n) for n in rng.integers(1, 7, size=int(rng.integers(min_graphs, 6)))]
    edgeless = rng.random() < 0.25
    lines, offset = [], 0
    for n in sizes:
        for _ in range(0 if edgeless else int(rng.integers(0, 2 * n + 1))):
            u, v = (int(i) + offset + 1 for i in rng.integers(0, n, size=2))
            lines.append(f"{u}{sep}{v}")
        offset += n
    lines = [lines[i] for i in rng.permutation(len(lines))]
    if lines and rng.random() < 0.5:
        lines.insert(int(rng.integers(0, len(lines) + 1)), "")
    (d / "R_A.txt").write_text("".join(line + "\n" for line in lines))
    (d / "R_graph_indicator.txt").write_text(
        "".join(f"{g + 1}\n" for g, n in enumerate(sizes) for _ in range(n))
    )
    if rng.random() < 0.7:
        labels = rng.choice([-1, 1, 3, 7], size=len(sizes))
        (d / "R_graph_labels.txt").write_text("".join(f"{v}\n" for v in labels))
    if rng.random() < 0.7:
        labels = rng.integers(0, 4, size=offset)
        (d / "R_node_labels.txt").write_text("".join(f"{v}\n" for v in labels))


def tu_reference(directory):
    """Parse a valid TU directory line by line.

    Returns ``(graphs, num_classes)``. Each graph is ``(features, edges, label)``:
    feature rows (one-hot over the sorted distinct node labels, else ``[1.0]``),
    the sorted distinct local edges with every reverse added, and the graph
    label's index among the sorted distinct labels (``None`` without labels).
    """
    d = Path(directory)
    prefix = sorted(p.name for p in d.iterdir() if p.name.endswith("_A.txt"))[0][:-6]

    def rows(suffix):
        path = d / f"{prefix}_{suffix}.txt"
        if not path.exists():
            return None
        with open(path, encoding="utf-8") as f:
            return [[int(tok) for tok in re.split(r"[,\s]+", line.strip())]
                    for line in f if line.strip()]

    indicator = [r[0] for r in rows("graph_indicator")]
    node_labels = rows("node_labels")
    graph_labels = rows("graph_labels")
    edge_rows = rows("A")
    if node_labels is None:
        features = [[1.0] for _ in indicator]
    else:
        values = sorted({r[0] for r in node_labels})
        features = [[1.0 if r[0] == v else 0.0 for v in values] for r in node_labels]
    classes = None if graph_labels is None else sorted({r[0] for r in graph_labels})
    graphs = []
    for g in range(1, max(indicator) + 1):
        nodes = [i for i, x in enumerate(indicator) if x == g]
        local = {node: k for k, node in enumerate(nodes)}
        edges = set()
        for u, v in edge_rows:
            if u - 1 in local:
                a, b = local[u - 1], local[v - 1]
                edges |= {(a, b), (b, a)}
        label = None if classes is None else classes.index(graph_labels[g - 1][0])
        graphs.append(([features[i] for i in nodes], sorted(edges), label))
    return graphs, None if classes is None else len(classes)


# ---------------------------------------------------------------------------
# one-shot JSON writers


def dataset_json_one_shot(ds) -> str:
    """The canonical dataset text built whole: every value cast element by
    element into one document, then one ``json.dumps`` of it."""
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
    doc = {"graphs": graphs, "feature_dim": int(ds.feature_dim)}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def checkpoint_json_one_shot(state, config) -> str:
    """The checkpoint text built whole: the payload with every array packed
    into lists, then one ``json.dumps`` of it."""
    from rgcl.params import named_arrays

    def pack(arrays):
        return {k: {"shape": list(v.shape), "values": v.reshape(-1).tolist()}
                for k, v in arrays.items()}

    return json.dumps({
        "format_version": 3,
        "config": config.to_dict(),
        "input_dim": state.input_dim,
        "step": state.step,
        "params": pack(named_arrays(state.params)),
        "opt": {"m": pack(state.opt_m), "v": pack(state.opt_v)},
        "rng": {
            "master": state.rng.bit_generator.state,
            "epoch_perm_seed": state.epoch_perm_seed,
        },
    })
