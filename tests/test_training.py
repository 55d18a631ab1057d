"""Optimizer, single-step, loop, and checkpoint behavior.

Everything here runs on deliberately tiny models (widths 3-8, graphs of
8-12 nodes) so the whole module stays under a few seconds.
"""

import json

import numpy as np
import pytest

import rgcl.autodiff as ad
import rgcl.graphs as rgcl_graphs
from oracles import (
    encode_views_per_view,
    finite_difference,
    jitter_params,
    max_rel_err,
    sample_selections_per_view,
)
from rgcl.datasets import PlantedMotifSpec, generate_planted_motif_dataset
from rgcl.losses import rgcl_loss
from rgcl.rationale import attribute_nodes
from rgcl.training import (
    CheckpointFormatError,
    Selections,
    TrainConfig,
    adam_update,
    batch_views_loss,
    init_train_state,
    load_checkpoint,
    normalize_variant,
    pretrain,
    encode_views,
    sample_selections,
    save_checkpoint,
    train_step,
)
from rgcl.params import lift_params, named_arrays, named_leaves


def tiny_config(**overrides):
    base = dict(
        batch_size=4,
        epochs=2,
        learning_rate=0.01,
        tau=0.2,
        lam=0.1,
        rho=0.8,
        seed=7,
        encoder_gnn="gin",
        encoder_dims=(8, 6),
        generator_gnn="gcn",
        generator_dims=(5,),
        generator_head=(4, 1),
        projector_hidden=5,
        projector_dim=4,
        checkpoint_every=2,
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def small_dataset():
    # noise_std pinned: the finite-difference seeds below were verified
    # against exactly this data, and a different draw can park a relu
    # pre-activation inside the central-difference step.
    spec = PlantedMotifSpec(
        motif_size=4, background_size_range=(8, 12), feature_dim=5,
        noise_std=0.4, seed=3
    )
    return generate_planted_motif_dataset(spec, 10)


class TestAdam:
    def test_first_step_matches_bias_corrected_formula(self):
        """With zero moments, step 1 reduces to -lr * g / (|g| + eps)."""
        p = {"w": np.array([1.0, -2.0, 0.5])}
        g = {"w": np.array([0.3, -0.1, 2.0])}
        zeros = {"w": np.zeros(3)}
        new_p, new_m, new_v = adam_update(p, g, zeros, zeros, 0.05, 1)
        expected = p["w"] - 0.05 * g["w"] / (np.abs(g["w"]) + 1e-8)
        np.testing.assert_allclose(new_p["w"], expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(new_m["w"], 0.1 * g["w"], atol=1e-15)
        np.testing.assert_allclose(new_v["w"], 0.001 * g["w"] ** 2, atol=1e-15)

    def test_moment_recurrences_after_two_steps(self):
        p = {"w": np.array([0.0])}
        g1 = {"w": np.array([1.0])}
        g2 = {"w": np.array([-2.0])}
        zeros = {"w": np.zeros(1)}
        p1, m1, v1 = adam_update(p, g1, zeros, zeros, 0.01, 1)
        p2, m2, v2 = adam_update(p1, g2, m1, v1, 0.01, 2)
        assert m2["w"][0] == pytest.approx(0.9 * 0.1 + 0.1 * (-2.0), abs=1e-15)
        assert v2["w"][0] == pytest.approx(0.999 * 0.001 + 0.001 * 4.0, abs=1e-15)

    def test_quadratic_bowl_converges(self):
        """f(x) = |x|^2 from a far corner: gradient norm < 1e-3 within 600
        steps at lr 0.1."""
        p = {"x": np.array([5.0, -3.0, 2.0])}
        m = {"x": np.zeros(3)}
        v = {"x": np.zeros(3)}
        for t in range(1, 601):
            grads = {"x": 2.0 * p["x"]}
            p, m, v = adam_update(p, grads, m, v, 0.1, t)
        assert np.linalg.norm(2.0 * p["x"]) < 1e-3

    def test_zero_gradient_leaves_params_untouched(self):
        p = {"x": np.array([1.5])}
        zeros = {"x": np.zeros(1)}
        new_p, _, _ = adam_update(p, {"x": np.zeros(1)}, zeros, zeros, 0.1, 1)
        assert new_p["x"][0] == 1.5

    def test_step_index_is_one_based(self):
        zeros = {"x": np.zeros(1)}
        with pytest.raises(ValueError):
            adam_update({"x": np.zeros(1)}, {"x": np.zeros(1)}, zeros, zeros, 0.1, 0)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(batch_size=1),
            dict(epochs=-1),
            dict(learning_rate=0.0),
            dict(tau=0.0),
            dict(lam=-0.1),
            dict(rho=0.0),
            dict(rho=1.5),
            dict(checkpoint_every=0),
            dict(generator_head=(4, 2)),
            dict(pooling="max"),
            dict(encoder_gnn="gat"),
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ValueError):
            tiny_config(**overrides)

    @pytest.mark.parametrize(
        "field_name, value",
        [
            ("batch_size", 2.5),
            ("batch_size", 4.0),
            ("batch_size", True),
            ("epochs", "2"),
            ("seed", 1.5),
            ("projector_hidden", 5.0),
            ("projector_dim", None),
            ("checkpoint_every", False),
            ("learning_rate", "0.01"),
            ("tau", True),
            ("lam", float("nan")),
            ("rho", None),
            ("encoder_dims", (8, 6.5)),
            ("generator_dims", "55"),
            ("generator_head", (4, True)),
            ("generator_head", ()),
        ],
    )
    def test_rejects_wrong_types_with_the_field_name(self, field_name, value):
        with pytest.raises(ValueError, match=field_name):
            tiny_config(**{field_name: value})

    def test_negative_seed_is_named(self):
        """numpy used to refuse it at the first draw, naming no field."""
        with pytest.raises(ValueError, match="seed: must be >= 0"):
            tiny_config(seed=-1)
        assert tiny_config(seed=0).seed == 0

    def test_accepts_ints_for_float_fields_and_lists_for_dims(self):
        cfg = tiny_config(tau=1, lam=0, encoder_dims=[8, 6], seed=np.int64(3))
        assert cfg.encoder_dims == (8, 6)
        assert cfg.tau == 1

    def test_dict_round_trip(self):
        cfg = tiny_config(tau=0.35, encoder_dims=(7, 7, 7))
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_dict_rejects_unknown_fields(self):
        d = tiny_config().to_dict()
        d["momentum"] = 0.9
        with pytest.raises(ValueError, match="momentum"):
            TrainConfig.from_dict(d)

    def test_variant_normalization(self):
        assert normalize_variant("no_rv") == "no_rationale_views"
        assert normalize_variant("no_i") == "no_independence"
        assert normalize_variant("full") == "full"
        with pytest.raises(ValueError):
            normalize_variant("no_such_thing")


class TestInitialisation:
    @staticmethod
    def glorot_draw(rng, fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_arrays_follow_the_documented_draw_order(self, seed):
        """Encoder, generator and projector each draw from their own child
        seed: per layer w1 then w2 (GIN) or w (GCN), the scorer head after the
        layers; biases and GIN epsilons start at zero. The names and their
        order are the checkpoint's."""
        cfg = TrainConfig(seed=seed)
        assert (cfg.encoder_gnn, cfg.generator_gnn) == ("gin", "gcn")
        input_dim = 5
        seeds = np.random.SeedSequence(seed).generate_state(4)
        expected = {}

        def mlp(prefix, rng, d_in, hidden, d_out):
            expected[f"{prefix}.w1"] = self.glorot_draw(rng, d_in, hidden)
            expected[f"{prefix}.b1"] = np.zeros(hidden)
            expected[f"{prefix}.w2"] = self.glorot_draw(rng, hidden, d_out)
            expected[f"{prefix}.b2"] = np.zeros(d_out)

        rng, d = np.random.default_rng(int(seeds[0])), input_dim
        for i, width in enumerate(cfg.encoder_dims):
            mlp(f"encoder.layers.{i}", rng, d, width, width)
            expected[f"encoder.layers.{i}.eps"] = np.zeros(())
            d = width
        rng, d = np.random.default_rng(int(seeds[1])), input_dim
        for i, width in enumerate(cfg.generator_dims):
            expected[f"generator.layers.{i}.w"] = self.glorot_draw(rng, d, width)
            expected[f"generator.layers.{i}.b"] = np.zeros(width)
            d = width
        mlp("generator.head", rng, d, *cfg.generator_head)
        mlp("projector", np.random.default_rng(int(seeds[2])),
            cfg.encoder_dims[-1], cfg.projector_hidden, cfg.projector_dim)

        arrays = named_arrays(init_train_state(cfg, input_dim).params)
        assert list(arrays) == list(expected)
        for name, values in expected.items():
            np.testing.assert_array_equal(arrays[name], values, err_msg=name)


class TestTrainStep:
    def test_step_updates_counters_and_history(self, small_dataset):
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        graphs = [small_dataset[i] for i in range(4)]
        state, report = train_step(state, graphs, cfg)
        assert state.step == 1
        assert state.anchors_seen == 4
        assert state.loss_history == [report.total]
        assert np.isfinite(report.total)

    def test_all_three_param_groups_move(self, small_dataset):
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        before = {k: v.copy() for k, v in named_arrays(state.params).items()}
        graphs = [small_dataset[i] for i in range(4)]
        train_step(state, graphs, cfg)
        after = named_arrays(state.params)
        for prefix in ("encoder", "generator", "projector"):
            moved = any(
                not np.array_equal(before[k], after[k])
                for k in before
                if k.startswith(prefix + ".")
            )
            assert moved, f"{prefix} parameters never moved"

    def test_one_step_is_bitwise_deterministic(self, small_dataset):
        cfg = tiny_config()
        graphs = [small_dataset[i] for i in range(4)]
        results = []
        for _ in range(2):
            state = init_train_state(cfg, small_dataset.feature_dim)
            state, report = train_step(state, graphs, cfg)
            flat = named_arrays(state.params)
            results.append((report.total, {k: v.copy() for k, v in flat.items()}))
        assert results[0][0] == results[1][0]
        for k in results[0][1]:
            assert np.array_equal(results[0][1][k], results[1][1][k]), k

    @pytest.mark.parametrize(
        "variant,passes_per_anchor",
        [("full", 3), ("no_rationale_views", 3), ("no_independence", 2)],
    )
    def test_encoder_pass_accounting(self, small_dataset, variant, passes_per_anchor):
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        graphs = [small_dataset[i] for i in range(4)]
        train_step(state, graphs, cfg, variant=variant)
        assert state.encoder_passes.graphs == passes_per_anchor * 4

    def test_scorer_bypass_freezes_generator(self, small_dataset):
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        before = {
            k: v.copy() for k, v in named_arrays(state.generator, "generator").items()
        }
        graphs = [small_dataset[i] for i in range(4)]
        for _ in range(3):
            train_step(state, graphs, cfg, variant="no_rationale_views")
        after = named_arrays(state.generator, "generator")
        for k in before:
            assert np.array_equal(before[k], after[k]), k
        # the encoder must still have trained
        assert state.step == 3 and len(state.loss_history) == 3

    def test_zero_lambda_keeps_complement_tower_running(self, small_dataset):
        cfg = tiny_config(lam=0.0)
        state = init_train_state(cfg, small_dataset.feature_dim)
        graphs = [small_dataset[i] for i in range(4)]
        state, report = train_step(state, graphs, cfg)
        assert state.encoder_passes.graphs == 3 * 4
        assert report.l_in != 0.0
        assert report.total == pytest.approx(report.l_su, abs=1e-12)

    def test_view_functions_normalize_the_variant(self, small_dataset):
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        graphs = [small_dataset[i] for i in range(4)]

        def draw(variant):
            rng = np.random.default_rng(0)
            return sample_selections(graphs, state.generator, cfg, rng, variant)

        def loss(variant, selections):
            return batch_views_loss(
                graphs, selections, state.encoder, state.generator, state.projector,
                cfg, variant,
            )[0].item()

        assert draw("no_i").c is None
        alias, name = draw("no_rv"), draw("no_rationale_views")
        for a, b in ((alias.r1, name.r1), (alias.r2, name.r2), (alias.c, name.c)):
            assert len(a) == len(b) == 4
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert loss("no_rv", alias) == loss("no_rationale_views", alias)
        assert loss("no_rv", alias) != loss("full", alias)
        with pytest.raises(ValueError, match="variant"):
            draw("bogus")
        with pytest.raises(ValueError, match="variant"):
            loss("bogus", alias)

    def test_rejects_single_graph_batch(self, small_dataset):
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        with pytest.raises(ValueError, match="at least 2"):
            train_step(state, [small_dataset[0]], cfg)

    def test_poisoned_params_raise_numeric_error_with_step(self, small_dataset):
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        state.encoder.layers[0].w1[0, 0] = np.nan
        graphs = [small_dataset[i] for i in range(4)]
        with pytest.raises(ad.NumericError, match="step 0"):
            train_step(state, graphs, cfg)


class TestBatchedSelection:
    """Phase A's one noise draw per anchor and one lexsort over the batch
    equal a ``gumbel_top_k`` call per view, in every variant."""

    @staticmethod
    def graphs(dataset, n):
        """``n`` anchors cycling through the dataset, every fourth one a
        one-node graph."""
        rng = np.random.default_rng(n)
        lone = [rgcl_graphs.Graph(node_features=rng.standard_normal((1, dataset.feature_dim)),
                                  edges=np.zeros((0, 2))) for _ in range(n)]
        return [lone[i] if i % 4 == 3 else dataset[i % len(dataset)] for i in range(n)]

    @pytest.mark.parametrize("variant", ["full", "no_rv", "no_i"])
    @pytest.mark.parametrize("n", [2, 8, 32])
    @pytest.mark.parametrize("rho", [0.3, 0.8, 1.0])
    def test_equals_per_view_gumbel_top_k(self, small_dataset, variant, n, rho):
        cfg = tiny_config(rho=rho)
        state = init_train_state(cfg, small_dataset.feature_dim)
        graphs = self.graphs(small_dataset, n)
        for seed in range(3):
            got = sample_selections(graphs, state.generator, cfg, np.random.default_rng(seed),
                                    variant)
            want = sample_selections_per_view(graphs, state.generator, cfg,
                                              np.random.default_rng(seed), variant)
            assert len(got.r1) == len(got.r2) == n
            assert (got.c is None) == (variant == "no_i")
            for i, (r1, r2, c) in enumerate(want):
                pairs = [(got.r1[i], r1), (got.r2[i], r2)] + ([] if c is None else [(got.c[i], c)])
                for a, b in pairs:
                    assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_empty_batch_rejected(self, small_dataset):
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        with pytest.raises(ValueError, match="at least one graph"):
            sample_selections([], state.generator, cfg, np.random.default_rng(0))

    def test_encode_views_needs_one_selection_per_graph(self, small_dataset):
        """Eight graphs with five selections used to encode five anchors."""
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        graphs = [small_dataset[i] for i in range(8)]
        sel = sample_selections(graphs[:5], state.generator, cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="8 graphs and 5 selections"):
            encode_views(graphs, sel, state.encoder, state.generator, state.projector, cfg)

    @pytest.mark.parametrize("tower", ["r1", "r2", "c"])
    def test_encode_views_needs_one_selection_per_graph_in_each_tower(self, small_dataset,
                                                                      tower):
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        graphs = [small_dataset[i] for i in range(4)]
        sel = sample_selections(graphs, state.generator, cfg, np.random.default_rng(0))
        short = {name: getattr(sel, name)[: 3 if name == tower else 4]
                 for name in ("r1", "r2", "c")}
        with pytest.raises(ValueError, match="4 graphs and 3 selections"):
            encode_views(graphs, Selections(**short), state.encoder, state.generator,
                         state.projector, cfg)


class TestViewTowers:
    """``encode_views`` stacks the anchors' probabilities into one column and
    gathers each tower's attribution from it in one op; it equals the view by
    view forward of ``tests/oracles.py`` bit for bit."""

    SWAPPED = dict(encoder_gnn="gcn", generator_gnn="gin", pooling="mean")

    @staticmethod
    def anchors(dataset, n):
        """``n`` anchors cycling through the dataset, the last a one-node graph."""
        lone = rgcl_graphs.Graph(node_features=np.full((1, dataset.feature_dim), 0.5), edges=[])
        return [dataset[i % len(dataset)] for i in range(n - 1)] + [lone]

    @staticmethod
    def forward_backward(encode, graphs, selections, state, cfg, variant):
        """The view rows and every leaf gradient of the loss on a fresh tape."""
        tape = ad.Tape()
        lifted = lift_params(state.params, tape)
        views = encode(graphs, selections, lifted.encoder, lifted.generator, lifted.projector,
                       cfg, variant)
        total, _ = rgcl_loss(views, cfg.tau, cfg.lam)
        store = ad.backward(tape, total)
        rows = [t.values for t in (views.r1, views.r2, views.c) if t is not None]
        return rows, {k: store[t] for k, t in named_leaves(lifted).items()}

    @pytest.mark.parametrize("config", ["default", "swapped"])
    @pytest.mark.parametrize("variant", ["full", "no_rv", "no_i"])
    @pytest.mark.parametrize("n", [2, 8, 32])
    @pytest.mark.parametrize("rho", [0.3, 1.0])
    def test_equals_the_per_view_forward_bit_for_bit(self, small_dataset, config, variant, n,
                                                     rho):
        cfg = tiny_config(rho=rho, **(self.SWAPPED if config == "swapped" else {}))
        state = init_train_state(cfg, small_dataset.feature_dim)
        jitter_params(state.generator, n)
        graphs = self.anchors(small_dataset, n)
        selections = sample_selections(graphs, state.generator, cfg, np.random.default_rng(n),
                                       variant)
        got_rows, got_grads = self.forward_backward(encode_views, graphs, selections, state,
                                                    cfg, variant)
        want_rows, want_grads = self.forward_backward(encode_views_per_view, graphs, selections,
                                                      state, cfg, variant)
        assert len(got_rows) == len(want_rows) == (2 if variant == "no_i" else 3)
        for a, b in zip(got_rows, want_rows):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert got_grads.keys() == want_grads.keys()
        for name, g in got_grads.items():
            want = want_grads[name]
            assert g.shape == want.shape and g.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("variant", ["full", "no_i"])
    def test_only_the_scorer_records_grow_with_the_batch(self, small_dataset, variant):
        """Six records per scored anchor; the rest of the view forward records
        a fixed count: one ``concat_rows``, one ``gather_rows`` per tower, the
        complement's ``sub`` and ``clip``, and each tower's encoder and
        projector."""
        cfg = TrainConfig()
        state = init_train_state(cfg, small_dataset.feature_dim)
        tape = ad.Tape()
        attribute_nodes(small_dataset[0], lift_params(state.generator, tape),
                        cfg.generator_config())
        assert tape.num_records == 6
        fixed = set()
        for n in (2, 8, 32):
            graphs = self.anchors(small_dataset, n)
            sel = sample_selections(graphs, state.generator, cfg, np.random.default_rng(0),
                                    variant)
            tape = ad.Tape()
            lifted = lift_params(state.params, tape)
            encode_views(graphs, sel, lifted.encoder, lifted.generator, lifted.projector, cfg,
                         variant)
            fixed.add(tape.num_records - 6 * n)
        # per tower: 13 encoder records (three GIN layers, pooling) and 3 projector records
        towers = 3 if variant == "full" else 2
        assert fixed == {1 + towers * (1 + 13 + 3) + (2 if variant == "full" else 0)}

    @pytest.mark.parametrize("tower", ["r1", "r2", "c"])
    @pytest.mark.parametrize("fault", ["reversed", "duplicated"])
    def test_selections_must_be_strictly_ascending(self, small_dataset, tower, fault):
        """A reversed selection used to pair subgraph node i with another
        node's p; a repeated node failed later with a shape error."""
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        graphs = [small_dataset[i] for i in range(4)]
        sel = sample_selections(graphs, state.generator, cfg, np.random.default_rng(0))
        kept = list(getattr(sel, tower))
        kept[2] = kept[2][::-1] if fault == "reversed" else np.sort(np.r_[kept[2], kept[2][:1]])
        bad = Selections(**{"r1": sel.r1, "r2": sel.r2, "c": sel.c, tower: kept})
        with pytest.raises(ValueError, match="strictly ascending"):
            encode_views(graphs, bad, state.encoder, state.generator, state.projector, cfg)

    @pytest.mark.parametrize("variant, drawn, message", [
        ("no_i", "full", "variant no_independence takes no complement"),
        ("full", "no_i", "variant full needs complement"),
        ("no_rv", "no_i", "variant no_rationale_views needs complement"),
    ])
    def test_complements_must_match_the_variant(self, small_dataset, variant, drawn, message):
        """``no_i`` given complements used to train the independence term, and
        ``full`` without them silently dropped it."""
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        graphs = [small_dataset[i] for i in range(4)]
        sel = sample_selections(graphs, state.generator, cfg, np.random.default_rng(0), drawn)
        with pytest.raises(ValueError, match=message):
            batch_views_loss(graphs, sel, state.encoder, state.generator, state.projector, cfg,
                             variant)


class TestFullPipelineGradient:
    def test_loss_gradient_matches_finite_differences(self, small_dataset):
        """End to end: scorer -> frozen views -> weighted encoder -> projector
        -> contrastive loss, checked against central differences on every
        parameter of all three networks."""
        cfg = tiny_config(
            encoder_dims=(4, 3),
            generator_dims=(3,),
            generator_head=(3, 1),
            projector_hidden=3,
            projector_dim=3,
        )
        graphs = [small_dataset[i] for i in range(3)]
        for seed in range(3):
            state = init_train_state(cfg, small_dataset.feature_dim)
            jitter_params(state.encoder, 100 + seed)
            jitter_params(state.generator, 200 + seed)
            jitter_params(state.projector, 300 + seed)
            rng = np.random.default_rng(400 + seed)
            selections = sample_selections(graphs, state.generator, cfg, rng)

            tape = ad.Tape()
            lifted = lift_params(state.params, tape)
            total, _, _ = batch_views_loss(
                graphs, selections, lifted.encoder, lifted.generator, lifted.projector, cfg
            )
            store = ad.backward(tape, total)
            leaves = named_leaves(lifted)
            flat = named_arrays(state.params)

            names = sorted(flat)
            arrays = [flat[k] for k in names]

            def value():
                t, _, _ = batch_views_loss(
                    graphs, selections, state.encoder, state.generator,
                    state.projector, cfg,
                )
                return t.item()

            fd = finite_difference(value, arrays)
            for name, fd_grad in zip(names, fd):
                got = store[leaves[name]]
                assert max_rel_err(got, fd_grad) < 1e-4, name


class TestPretrainLoop:
    def test_step_count_and_metrics_lines(self, small_dataset, tmp_path):
        cfg = tiny_config()  # 10 graphs, batch 4 -> 3 steps/epoch, 2 epochs
        state = pretrain(small_dataset, cfg, output_dir=tmp_path / "run")
        assert state.step == 6
        assert state.epoch == 2
        lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 6
        for i, line in enumerate(lines, start=1):
            rec = json.loads(line)
            assert set(rec) == {"step", "l_su", "l_in", "total"}
            assert rec["step"] == i
            assert np.isfinite(rec["total"])

    def test_trailing_singleton_is_paired_up(self, tmp_path):
        spec = PlantedMotifSpec(
            motif_size=4, background_size_range=(8, 10), feature_dim=4, seed=5
        )
        data = generate_planted_motif_dataset(spec, 5)
        cfg = tiny_config(epochs=1)  # 5 graphs, batch 4 -> batches of 4 and 1+1
        state = pretrain(data, cfg)
        assert state.step == 2
        assert state.anchors_seen == 6  # the leftover graph was padded to 2

    def test_two_runs_identical_metrics(self, small_dataset, tmp_path):
        cfg = tiny_config()
        a = pretrain(small_dataset, cfg, output_dir=tmp_path / "a")
        b = pretrain(small_dataset, cfg, output_dir=tmp_path / "b")
        ta = (tmp_path / "a" / "metrics.jsonl").read_text()
        tb = (tmp_path / "b" / "metrics.jsonl").read_text()
        assert ta == tb
        assert a.loss_history == b.loss_history

    def test_zero_epochs_writes_empty_metrics(self, small_dataset, tmp_path):
        cfg = tiny_config(epochs=0)
        state = pretrain(small_dataset, cfg, output_dir=tmp_path / "run")
        assert state.step == 0
        assert (tmp_path / "run" / "metrics.jsonl").read_text() == ""

    def test_checkpoint_files_appear_on_schedule(self, small_dataset, tmp_path):
        cfg = tiny_config()  # 6 total steps, checkpoint_every=2
        pretrain(small_dataset, cfg, output_dir=tmp_path / "run")
        names = sorted(p.name for p in (tmp_path / "run").glob("ckpt_*.json"))
        assert names == [
            "ckpt_000002.json",
            "ckpt_000004.json",
            "ckpt_000006.json",
            "ckpt_final.json",
        ]

    def test_empty_dataset_rejected(self):
        from rgcl.graphs import GraphDataset

        empty = GraphDataset(graphs=[], feature_dim=3, num_classes=2)
        with pytest.raises(ValueError, match="empty"):
            pretrain(empty, tiny_config())


class TestCheckpoints:
    def test_round_trip_is_bit_exact(self, small_dataset, tmp_path):
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        graphs = [small_dataset[i] for i in range(4)]
        for _ in range(2):
            train_step(state, graphs, cfg)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path, cfg)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        assert loaded.step == state.step
        assert loaded.epoch == state.epoch
        assert loaded.epoch_cursor == state.epoch_cursor
        assert loaded.epoch_perm_seed == state.epoch_perm_seed
        assert loaded.rng.bit_generator.state == state.rng.bit_generator.state
        a, b = named_arrays(state.params), named_arrays(loaded.params)
        for k in a:
            assert np.array_equal(a[k], b[k]), k
        for k in state.opt_m:
            assert np.array_equal(state.opt_m[k], loaded.opt_m[k])
            assert np.array_equal(state.opt_v[k], loaded.opt_v[k])

    def test_loaded_state_continues_identically(self, small_dataset, tmp_path):
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        graphs = [small_dataset[i] for i in range(4)]
        train_step(state, graphs, cfg)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path, cfg)
        loaded, _ = load_checkpoint(path)
        state, ra = train_step(state, graphs, cfg)
        loaded, rb = train_step(loaded, graphs, cfg)
        assert ra.total == rb.total
        a, b = named_arrays(state.params), named_arrays(loaded.params)
        for k in a:
            assert np.array_equal(a[k], b[k]), k

    def test_resume_matches_uninterrupted_run(self, small_dataset, tmp_path):
        """Kill after step 2 (mid-epoch), reload, continue: the remaining
        metrics lines must match the uninterrupted run character for
        character."""
        cfg = tiny_config()  # 3 steps/epoch, so step 2 is mid-epoch
        pretrain(small_dataset, cfg, output_dir=tmp_path / "full")
        full_lines = (tmp_path / "full" / "metrics.jsonl").read_text().splitlines()

        state, _ = load_checkpoint(tmp_path / "full" / "ckpt_000002.json")
        assert state.step == 2
        assert state.epoch_cursor != 0  # genuinely mid-epoch
        pretrain(small_dataset, cfg, state=state, output_dir=tmp_path / "resumed")
        resumed = (tmp_path / "resumed" / "metrics.jsonl").read_text().splitlines()
        assert resumed == full_lines[2:]

    def test_resume_in_place_leaves_metrics_byte_identical(self, small_dataset, tmp_path):
        """Crash after step 5 (last checkpoint at step 4), resume in the same
        directory: the replayed step 5 must not appear twice, and every
        artifact must match the uninterrupted run's bytes."""
        cfg = tiny_config()  # 6 steps, checkpoints at 2, 4, 6
        pretrain(small_dataset, cfg, output_dir=tmp_path / "full")
        full = tmp_path / "full"
        crashed = tmp_path / "crashed"
        crashed.mkdir()
        lines = (full / "metrics.jsonl").read_text().splitlines(keepends=True)
        (crashed / "metrics.jsonl").write_text("".join(lines[:5]) + '{"step": 6, "l_')
        (crashed / "ckpt_000004.json").write_bytes((full / "ckpt_000004.json").read_bytes())

        state, _ = load_checkpoint(crashed / "ckpt_000004.json")
        pretrain(small_dataset, cfg, state=state, output_dir=crashed)
        for name in ("metrics.jsonl", "ckpt_000006.json", "ckpt_final.json"):
            assert (crashed / name).read_bytes() == (full / name).read_bytes(), name

    def test_resume_after_a_finished_run_rewrites_nothing_twice(self, small_dataset, tmp_path):
        cfg = tiny_config()
        run = tmp_path / "run"
        pretrain(small_dataset, cfg, output_dir=run)
        before = (run / "metrics.jsonl").read_bytes()
        state, _ = load_checkpoint(run / "ckpt_000004.json")
        pretrain(small_dataset, cfg, state=state, output_dir=run)
        assert (run / "metrics.jsonl").read_bytes() == before

    def test_input_dim_is_stored_and_a_gcn_encoder_round_trips(self, small_dataset, tmp_path):
        cfg = tiny_config(encoder_gnn="gcn", generator_gnn="gin")
        state = init_train_state(cfg, small_dataset.feature_dim)
        train_step(state, [small_dataset[i] for i in range(4)], cfg)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path, cfg)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 2
        assert payload["input_dim"] == small_dataset.feature_dim == 5
        assert "t" not in payload["opt"]
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg and loaded.input_dim == 5
        a, b = named_arrays(state.params), named_arrays(loaded.params)
        assert list(a) == list(b)
        for k in a:
            assert np.array_equal(a[k], b[k]), k

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: [],
            lambda p: dict(p, params=[1]),
            lambda p: dict(p, opt=[]),
            lambda p: dict(p, opt={"m": [], "v": {}}),
            lambda p: dict(p, rng=None),
            lambda p: dict(p, input_dim=2.5),
            lambda p: {k: v for k, v in p.items() if k != "input_dim"},
        ],
        ids=["list", "params-list", "opt-list", "opt-m-list",
             "rng-null", "input-dim-float", "input-dim-missing"],
    )
    def test_malformed_payload_raises_format_error(self, small_dataset, tmp_path, mutate):
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path, cfg)
        path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field_path, bad",
        [
            (("step",), lambda v: v + 0.7),
            (("rng", "epoch"), lambda v: True),
            (("rng", "epoch_cursor"), str),
            (("input_dim",), float),
        ],
        ids=["step-float", "epoch-bool", "epoch-cursor-string", "input-dim-whole-float"],
    )
    def test_non_integer_position_field_names_the_field(
        self, small_dataset, tmp_path, field_path, bad
    ):
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        train_step(state, [small_dataset[i] for i in range(4)], cfg)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path, cfg)
        payload = json.loads(path.read_text())
        *parents, name = field_path
        section = payload
        for key in parents:
            section = section[key]
        section[name] = bad(section[name])
        path.write_text(json.dumps(payload))
        named = f"{'.'.join(field_path)}: must be an integer"
        with pytest.raises(CheckpointFormatError, match=named):
            load_checkpoint(path)

    @pytest.mark.parametrize("moment", ["m", "v"])
    def test_moment_shape_mismatch_names_the_entry(self, small_dataset, tmp_path, moment):
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path, cfg)
        payload = json.loads(path.read_text())
        payload["opt"][moment]["encoder.layers.0.b1"] = {"shape": [1], "values": [0.0]}
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointFormatError, match=f"opt.{moment} entry 'encoder.layers.0.b1'"):
            load_checkpoint(path)

    def test_failed_save_leaves_the_previous_checkpoint_intact(
        self, small_dataset, tmp_path, monkeypatch
    ):
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path, cfg)
        first = path.read_bytes()
        train_step(state, [small_dataset[i] for i in range(4)], cfg)

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(rgcl_graphs.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(state, path, cfg)
        monkeypatch.undo()
        assert path.read_bytes() == first
        assert [f.name for f in tmp_path.iterdir()] == ["ckpt.json"]
        loaded, _ = load_checkpoint(path)
        assert loaded.step == 0

    @pytest.mark.parametrize("version", [1, 99])
    def test_version_mismatch_rejected(self, small_dataset, tmp_path, version):
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path, cfg)
        payload = json.loads(path.read_text())
        payload["format_version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointFormatError, match=f"version {version} .*reads version 2"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, small_dataset, tmp_path):
        cfg = tiny_config()
        state = init_train_state(cfg, small_dataset.feature_dim)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path, cfg)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointFormatError, match="JSON"):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointFormatError, match="not found"):
            load_checkpoint(tmp_path / "nope.json")

    def test_shape_mismatch_against_expected_config(self, small_dataset, tmp_path):
        cfg = tiny_config(encoder_dims=(6, 6))
        state = init_train_state(cfg, small_dataset.feature_dim)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path, cfg)
        wider = tiny_config(encoder_dims=(8, 8))
        with pytest.raises(CheckpointFormatError, match="shape"):
            load_checkpoint(path, expected_config=wider)
