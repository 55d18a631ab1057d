"""Embedding extraction, the linear probe, precision scoring, ablations."""

import dataclasses

import numpy as np
import pytest

import rgcl.autodiff as ad
import rgcl.evaluation
from oracles import (
    finite_difference,
    linear_probe_reference,
    max_rel_err,
    newton_probe,
    probe_objective,
    topk_by_score,
)
from rgcl.datasets import PlantedMotifSpec, generate_planted_motif_dataset
from rgcl.encoder import EncoderConfig, encode_graph, init_params
from rgcl.evaluation import (
    PROBE_MAX_ITERS,
    PROBE_STOP_NORM,
    embed_graphs,
    linear_probe,
    precision_at_k,
    random_init_probe,
    rationale_precision,
    read_out,
    run_ablation,
    view_similarities,
)
from rgcl.graphs import Graph, GraphDataset, batch_graphs, canonical_edges
from rgcl.params import named_arrays
from rgcl.training import TrainConfig, init_train_state, sample_selections
from rgcl.rationale import view_size


def tiny_config(**overrides):
    base = dict(
        batch_size=4,
        epochs=1,
        learning_rate=0.01,
        tau=0.2,
        lam=0.1,
        rho=0.8,
        seed=11,
        encoder_gnn="gin",
        encoder_dims=(8, 6),
        generator_gnn="gcn",
        generator_dims=(5,),
        generator_head=(4, 1),
        projector_hidden=5,
        projector_dim=4,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def small_dataset():
    spec = PlantedMotifSpec(
        motif_size=4, background_size_range=(8, 12), feature_dim=5, seed=3
    )
    return generate_planted_motif_dataset(spec, 12)


class TestEmbedGraphs:
    def test_matches_all_ones_attribution(self, small_dataset):
        cfg = EncoderConfig(gnn_type="gin", layer_dims=(6, 4), pooling="add")
        params = init_params(cfg, small_dataset.feature_dim, seed=0)
        emb = embed_graphs(small_dataset, params, cfg)
        batch = batch_graphs(list(small_dataset.graphs))
        ones = ad.const(np.ones((batch.num_nodes, 1)))
        direct = encode_graph(batch, params, cfg, attribution=ones).values
        np.testing.assert_array_equal(emb, direct)
        assert emb.shape == (len(small_dataset), 4)

    def test_node_permutation_leaves_embedding_unchanged(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 3))
        edges = canonical_edges([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]], 6)
        g = Graph(node_features=x, edges=edges)
        perm = rng.permutation(6)
        inv = np.argsort(perm)
        g2 = Graph(
            node_features=x[perm],
            edges=canonical_edges(inv[g.edges.reshape(-1)].reshape(-1, 2), 6),
        )
        cfg = EncoderConfig(gnn_type="gcn", layer_dims=(5, 4), pooling="mean")
        params = init_params(cfg, 3, seed=1)
        data = GraphDataset(graphs=[g, g2], feature_dim=3, num_classes=1)
        emb = embed_graphs(data, params, cfg)
        np.testing.assert_allclose(emb[0], emb[1], atol=1e-10)

    def test_empty_dataset_gives_empty_matrix(self):
        cfg = EncoderConfig(gnn_type="gin", layer_dims=(6, 4), pooling="add")
        params = init_params(cfg, 3, seed=0)
        empty = GraphDataset(graphs=[], feature_dim=3, num_classes=2)
        assert embed_graphs(empty, params, cfg).shape == (0, 4)

    def test_rows_do_not_depend_on_batch_composition(self, small_dataset):
        cfg = EncoderConfig(gnn_type="gin", layer_dims=(6, 4), pooling="add")
        params = init_params(cfg, small_dataset.feature_dim, seed=2)
        full = embed_graphs(small_dataset, params, cfg)
        solo = GraphDataset(
            graphs=[small_dataset[5]],
            feature_dim=small_dataset.feature_dim,
            num_classes=small_dataset.num_classes,
        )
        alone = embed_graphs(solo, params, cfg)
        np.testing.assert_allclose(full[5], alone[0], atol=1e-10)


class TestLinearProbe:
    def test_separable_clusters_reach_perfect_accuracy(self):
        rng = np.random.default_rng(0)
        n = 60
        y = np.repeat([0, 1], n // 2)
        x = rng.normal(scale=0.1, size=(n, 3))
        x[:, 0] += np.where(y == 0, -2.0, 2.0)
        res = linear_probe(x, y, split_seed=0)
        assert res.test_accuracy == 1.0
        assert res.train_accuracy == 1.0

    def test_random_labels_score_near_chance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(400, 6))
        y = rng.integers(0, 4, size=400)
        res = linear_probe(x, y, split_seed=3)
        assert abs(res.test_accuracy - 0.25) < 0.1

    def test_deterministic_given_split_seed(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(80, 4))
        y = rng.integers(0, 3, size=80)
        a = linear_probe(x, y, split_seed=9)
        b = linear_probe(x, y, split_seed=9)
        assert a == b

    def test_split_seed_changes_the_split(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(80, 4))
        y = rng.integers(0, 3, size=80)
        a = linear_probe(x, y, split_seed=0)
        b = linear_probe(x, y, split_seed=1)
        assert a.train_class_counts != b.train_class_counts

    def test_single_class_train_split_rejected(self):
        x = np.random.default_rng(0).normal(size=(20, 3))
        y = np.zeros(20, dtype=int)
        with pytest.raises(ValueError, match="single class"):
            linear_probe(x, y)

    def test_class_counts_cover_both_splits(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 3))
        y = rng.integers(0, 2, size=50)
        res = linear_probe(x, y, split_seed=1)
        assert sum(res.train_class_counts.values()) == 40
        assert sum(res.test_class_counts.values()) == 10

    def test_strong_ridge_converges_before_iteration_cap(self):
        """With separable data and a tiny ridge the optimum sits almost at
        infinity, so the iteration cap is the intended stop; a stronger
        ridge pulls the optimum in and the gradient tolerance is reached."""
        rng = np.random.default_rng(3)
        y = np.repeat([0, 1], 20)
        x = rng.normal(scale=0.05, size=(40, 2))
        x[:, 1] += np.where(y == 0, -3.0, 3.0)
        capped = linear_probe(x, y, split_seed=0)
        assert capped.iterations == 5000 and capped.test_accuracy == 1.0
        assert capped.converged is False
        assert capped.grad_norm >= PROBE_STOP_NORM
        res = linear_probe(x, y, split_seed=0, l2=0.1)
        assert res.iterations < 5000
        assert res.test_accuracy == 1.0
        assert res.converged is True
        assert res.grad_norm < PROBE_STOP_NORM

    @pytest.mark.parametrize("num_classes", [2, 3, 5, 9])
    @pytest.mark.parametrize("l2", [1e-4, 0.1])
    def test_matches_the_plain_loop_bit_for_bit(self, num_classes, l2):
        """Every field, the last gradient norm included, equals that of the
        loop written with a reduce for the row max and ``np.linalg.norm``.
        Embeddings are small integers, and with five or more classes
        classes 2 and 3 have no graphs, so only the classes present are
        fitted, and the counts still list 2 and 3 at zero."""
        rng = np.random.default_rng(num_classes)
        x = rng.integers(-3, 4, size=(80, 4)).astype(np.float64)
        present = [c for c in range(num_classes) if num_classes < 5 or c not in (2, 3)]
        y = np.asarray(present)[np.argmax(x @ rng.normal(size=(4, len(present))), axis=1)]
        res = linear_probe(x, y, split_seed=0, l2=l2)
        assert dataclasses.asdict(res) == linear_probe_reference(x, y, split_seed=0, l2=l2)
        # the cases cover both stops: the cap at l2 = 1e-4, and the gradient
        # tolerance at l2 = 0.1, which an empty class no longer keeps out of reach
        assert res.converged is (l2 == 0.1)
        assert res.converged is (res.iterations < PROBE_MAX_ITERS)

    def test_newton_oracle_reaches_the_stopping_tolerance(self):
        """Newton's method on the probe's objective (cross-entropy plus
        ridge on the weights, intercept free) converges where gradient
        descent hits its cap, and agrees with gradient descent where that
        converges."""
        rng = np.random.default_rng(3)
        y = np.repeat([0, 1], 20)
        x = rng.normal(scale=0.05, size=(40, 2))
        x[:, 1] += np.where(y == 0, -3.0, 3.0)
        w0 = rng.normal(size=(3, 2))
        numeric = finite_difference(lambda: probe_objective(w0, x, y, 0.1)[0], [w0])[0]
        assert max_rel_err(probe_objective(w0, x, y, 0.1)[1], numeric) < 1e-6

        perm = np.random.default_rng(0).permutation(40)
        tr, te = perm[:32], perm[32:]
        xa = np.hstack([x, np.ones((40, 1))])
        fits = {l2: newton_probe(x[tr], y[tr], 2, l2) for l2 in (1e-4, 0.1)}
        for _, norm, iterations in fits.values():
            assert norm < PROBE_STOP_NORM and iterations < 100
        probe = linear_probe(x, y, split_seed=0, l2=0.1)
        assert probe.converged
        pred = (xa @ fits[0.1][0]).argmax(axis=1)
        assert float((pred[tr] == y[tr]).mean()) == probe.train_accuracy
        assert float((pred[te] == y[te]).mean()) == probe.test_accuracy

    def test_negative_label_rejected(self):
        x = np.random.default_rng(0).normal(size=(20, 2))
        y = np.tile([0, 1], 10)
        y[3] = -1
        with pytest.raises(ValueError, match="non-negative class indices, got -1"):
            linear_probe(x, y)

    def test_fractional_label_rejected(self):
        x = np.random.default_rng(0).normal(size=(20, 2))
        y = np.tile([0.0, 1.0], 10)
        y[3] = 1.7
        with pytest.raises(ValueError, match="integer class indices, got 1.7"):
            linear_probe(x, y)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(train_fraction=0.0),
            dict(train_fraction=1.0),
            dict(train_fraction=0.001),
        ],
    )
    def test_bad_fractions_rejected(self, kwargs):
        x = np.zeros((30, 2))
        y = np.tile([0, 1], 15)
        with pytest.raises(ValueError):
            linear_probe(x, y, **kwargs)

    def test_non_finite_embeddings_rejected(self):
        x = np.zeros((20, 2))
        x[3, 1] = np.inf
        y = np.tile([0, 1], 10)
        with pytest.raises(ValueError, match="finite"):
            linear_probe(x, y)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="match"):
            linear_probe(np.zeros((5, 2)), np.zeros(4, dtype=int))


class TestPrecisionAtK:
    def test_matches_sort_based_reference_on_random_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = rng.integers(3, 12)
            probs = rng.random(n)
            k = int(rng.integers(1, n + 1))
            mask = np.zeros(n, dtype=bool)
            mask[rng.choice(n, size=k, replace=False)] = True
            top = topk_by_score(probs.tolist(), k)
            expected = sum(mask[i] for i in top) / k
            assert precision_at_k(probs, mask) == pytest.approx(expected, abs=1e-15)

    def test_oracle_scores_give_perfect_precision(self):
        mask = np.array([False, True, False, True, False])
        probs = np.where(mask, 0.4, 0.05)
        assert precision_at_k(probs, mask) == 1.0

    def test_uniform_scores_select_lowest_indices(self):
        probs = np.full(6, 1 / 6)
        mask = np.array([False, False, False, False, True, True])  # mask at the end
        assert precision_at_k(probs, mask) == 0.0
        front = np.array([True, True, False, False, False, False])
        assert precision_at_k(probs, front) == 1.0

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="no nodes"):
            precision_at_k(np.ones(4) / 4, np.zeros(4, dtype=bool))


class TestRationalePrecision:
    def test_zeroed_scorer_equals_index_order_selection(self, small_dataset):
        """All-zero scorer weights make the attribution exactly uniform, so
        the top-k set is the k lowest indices; planted masks sit on the
        first k nodes, hence precision 1.0 graph by graph."""
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        for arr in named_arrays(state.generator).values():
            arr[:] = 0.0
        score = rationale_precision(
            small_dataset, state.generator, cfg.generator_config()
        )
        assert score.mean_precision == 1.0
        expected_baseline = np.mean(
            [g.rationale_mask.sum() / g.num_nodes for g in small_dataset.graphs]
        )
        assert score.random_baseline == pytest.approx(expected_baseline, abs=1e-12)

    def test_missing_mask_rejected(self, small_dataset):
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        stripped = GraphDataset(
            graphs=[dataclasses.replace(small_dataset[0], rationale_mask=None)],
            feature_dim=small_dataset.feature_dim,
            num_classes=small_dataset.num_classes,
        )
        with pytest.raises(ValueError, match="rationale_mask"):
            rationale_precision(stripped, state.generator, cfg.generator_config())

    def test_per_graph_values_are_fractions(self, small_dataset):
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        score = rationale_precision(
            small_dataset, state.generator, cfg.generator_config()
        )
        assert score.per_graph.shape == (len(small_dataset),)
        assert np.all((0.0 <= score.per_graph) & (score.per_graph <= 1.0))


class TestViewSimilarities:
    def test_values_are_cosines_and_deterministic(self, small_dataset):
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        a = view_similarities(small_dataset, state, cfg, sample_seed=5)
        b = view_similarities(small_dataset, state, cfg, sample_seed=5)
        assert a == b
        for value in a:
            assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9

    def test_complement_free_variant_rejected(self, small_dataset):
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        with pytest.raises(ValueError, match="complement"):
            view_similarities(small_dataset, state, cfg, variant="no_independence")


def poison(state):
    """``state`` with one infinite encoder weight."""
    state.encoder.layers[-1].w2[0, 0] = np.inf
    return state


class TestReadOut:
    def test_is_the_probe_then_the_precision(self, small_dataset):
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        probe, rationale = read_out(small_dataset, state, cfg)
        emb = embed_graphs(small_dataset, state.encoder, cfg.encoder_config())
        assert probe == linear_probe(emb, small_dataset.labels(), split_seed=cfg.seed)
        expected = rationale_precision(small_dataset, state.generator, cfg.generator_config())
        assert rationale.to_dict() == expected.to_dict()

    def test_inf_encoder_weight_is_a_numeric_error(self, small_dataset):
        cfg = tiny_config()
        state = poison(init_train_state(cfg, small_dataset.feature_dim))
        with np.errstate(invalid="ignore"), pytest.raises(ad.NumericError, match="non-finite"):
            read_out(small_dataset, state, cfg)

    def test_run_ablation_reports_a_non_finite_state_as_numeric(self, small_dataset, monkeypatch):
        cfg = tiny_config()
        state = poison(init_train_state(cfg, small_dataset.feature_dim))
        monkeypatch.setattr(rgcl.evaluation, "pretrain", lambda *args, **kwargs: state)
        with np.errstate(invalid="ignore"), pytest.raises(ad.NumericError):
            run_ablation("full", small_dataset, cfg)


class TestRunAblation:
    def test_pass_ratios_and_result_shape(self, small_dataset):
        cfg = tiny_config()
        full = run_ablation("full", small_dataset, cfg)
        assert full.passes_per_anchor == 3.0
        assert full.rationale is not None
        assert 0.0 <= full.probe.test_accuracy <= 1.0
        two_tower = run_ablation("no_i", small_dataset, cfg)
        assert two_tower.variant == "no_independence"
        assert two_tower.passes_per_anchor == 2.0
        bypass = run_ablation("no_rv", small_dataset, cfg)
        assert bypass.passes_per_anchor == 3.0

    def test_repeat_runs_agree_exactly(self, small_dataset):
        cfg = tiny_config()
        a = run_ablation("full", small_dataset, cfg)
        b = run_ablation("full", small_dataset, cfg)
        assert a.to_dict() == b.to_dict()

    def test_bypass_variant_with_full_ratio_keeps_whole_graph(self, small_dataset):
        cfg = tiny_config(rho=1.0)
        state = init_train_state(cfg, small_dataset.feature_dim)
        graphs = [small_dataset[i] for i in range(3)]
        sels = sample_selections(
            graphs, state.generator, cfg, np.random.default_rng(0),
            variant="no_rationale_views",
        )
        for g, r1, r2 in zip(graphs, sels.r1, sels.r2, strict=True):
            np.testing.assert_array_equal(r1, np.arange(g.num_nodes))
            np.testing.assert_array_equal(r2, np.arange(g.num_nodes))
            assert view_size(g.num_nodes, 1.0) == g.num_nodes

    def test_unmasked_dataset_skips_rationale_scoring(self, small_dataset):
        cfg = tiny_config()
        stripped = GraphDataset(
            graphs=[
                dataclasses.replace(g, rationale_mask=None)
                for g in small_dataset.graphs
            ],
            feature_dim=small_dataset.feature_dim,
            num_classes=small_dataset.num_classes,
        )
        res = run_ablation("full", stripped, cfg)
        assert res.rationale is None
        assert res.to_dict()["rationale"] is None

    def test_random_init_probe_runs(self, small_dataset):
        cfg = tiny_config()
        res = random_init_probe(small_dataset, cfg)
        assert 0.0 <= res.test_accuracy <= 1.0
