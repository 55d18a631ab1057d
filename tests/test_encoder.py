"""Encoder checks against dense-matrix references, finite differences, and
the pooling/attribution contracts."""

import dataclasses

import numpy as np
import pytest

import rgcl.autodiff as ad
from oracles import (
    dense_adjacency,
    finite_difference,
    gcn_layer_dense,
    gin_layer_dense,
    jitter_params,
    max_rel_err,
)
from rgcl.encoder import (
    EncoderConfig,
    EncoderParams,
    GcnLayerParams,
    GinLayerParams,
    PassCounter,
    encode_graph,
    gcn_layer,
    gin_layer,
    glorot,
    init_params,
)
from rgcl.graphs import Graph, batch_graphs, canonical_edges
from rgcl.params import assign_arrays, lift_params, named_arrays, named_leaves


def random_graph(rng, n_min=3, n_max=9, dim=4) -> Graph:
    n = int(rng.integers(n_min, n_max + 1))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return Graph(node_features=rng.standard_normal((n, dim)),
                 edges=canonical_edges(pairs, n))


class TestInit:
    def test_glorot_bounds_4_to_8(self):
        w = glorot(np.random.default_rng(1), 4, 8)
        limit = np.sqrt(6.0 / 12.0)
        assert w.shape == (4, 8)
        assert np.all(np.abs(w) <= limit)

    def test_zero_biases_and_epsilons(self):
        p = init_params(EncoderConfig(gnn_type="gin", layer_dims=(5, 3)), 4, seed=0)
        for layer in p.layers:
            assert np.all(layer.b1 == 0) and np.all(layer.b2 == 0)
            assert layer.eps.shape == () and layer.eps == 0.0

    def test_deterministic_by_seed(self):
        cfg = EncoderConfig(gnn_type="gcn", layer_dims=(4, 4), head_dims=(3, 1))
        a = named_arrays(init_params(cfg, 2, seed=9))
        b = named_arrays(init_params(cfg, 2, seed=9))
        c = named_arrays(init_params(cfg, 2, seed=10))
        assert all(np.array_equal(a[k], b[k]) for k in a)
        assert any(not np.array_equal(a[k], c[k]) for k in a)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="gnn_type"):
            EncoderConfig(gnn_type="sage")
        with pytest.raises(ValueError, match="pooling"):
            EncoderConfig(pooling="max")
        with pytest.raises(ValueError, match="layer_dims"):
            EncoderConfig(layer_dims=())

    @pytest.mark.parametrize(
        "field_name, dims",
        [("layer_dims", (2.5,)), ("layer_dims", (4, True)), ("head_dims", (3.9, 1)),
         ("head_dims", "31")],
        ids=["layer-float", "layer-bool", "head-float", "head-string"],
    )
    def test_config_rejects_non_integer_widths(self, field_name, dims):
        with pytest.raises(ValueError, match=f"{field_name}: must be"):
            EncoderConfig(**{field_name: dims})

    def test_config_stores_width_lists_as_tuples(self):
        cfg = EncoderConfig(layer_dims=[4, 3], head_dims=[2, 1])
        assert cfg.layer_dims == (4, 3) and cfg.head_dims == (2, 1)


class TestGinLayer:
    def test_identity_mlp_is_h_plus_neighbor_sum(self):
        """Path 0-1-2 with identity MLP and eps=0: output row v is
        h_v + sum of neighbor rows."""
        g = Graph(node_features=np.array([[1.0, 0.5], [2.0, 1.0], [4.0, 2.0]]),
                  edges=canonical_edges([(0, 1), (1, 2)], 3))
        batch = batch_graphs([g])
        p = lift_params(
            GinLayerParams(w1=np.eye(2), b1=np.zeros(2), w2=np.eye(2),
                           b2=np.zeros(2), eps=np.zeros(())),
            None,
        )
        out = gin_layer(batch, ad.const(g.node_features), p)
        expected = np.array([[3.0, 1.5], [7.0, 3.5], [6.0, 3.0]])
        np.testing.assert_allclose(out.values, expected, atol=1e-12)

    def test_matches_dense_reference(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            g = random_graph(rng)
            batch = batch_graphs([g])
            raw = GinLayerParams(
                w1=rng.standard_normal((4, 3)), b1=rng.standard_normal(3),
                w2=rng.standard_normal((3, 3)), b2=rng.standard_normal(3),
                eps=np.asarray(rng.standard_normal(())),
            )
            out = gin_layer(batch, ad.const(g.node_features), lift_params(raw, None))
            adj = dense_adjacency(g.num_nodes, g.edges)
            expected = gin_layer_dense(adj, g.node_features, raw.w1, raw.b1,
                                       raw.w2, raw.b2, float(raw.eps))
            np.testing.assert_allclose(out.values, expected, atol=1e-10)

    def test_batched_equals_per_graph(self):
        rng = np.random.default_rng(4)
        graphs = [random_graph(rng) for _ in range(3)]
        raw = GinLayerParams(
            w1=rng.standard_normal((4, 5)), b1=np.zeros(5),
            w2=rng.standard_normal((5, 5)), b2=np.zeros(5), eps=np.asarray(0.3),
        )
        p = lift_params(raw, None)
        batch = batch_graphs(graphs)
        merged = gin_layer(batch, ad.const(batch.node_features), p).values
        offset = 0
        for g in graphs:
            single = gin_layer(batch_graphs([g]), ad.const(g.node_features), p).values
            np.testing.assert_allclose(
                merged[offset:offset + g.num_nodes], single, atol=1e-12
            )
            offset += g.num_nodes


class TestGcnLayer:
    def test_batched_equals_per_graph(self):
        rng = np.random.default_rng(5)
        graphs = [random_graph(rng) for _ in range(3)]
        graphs.append(Graph(node_features=rng.standard_normal((2, 4)), edges=np.zeros((0, 2))))
        p = lift_params(GcnLayerParams(w=rng.standard_normal((4, 5)), b=np.zeros(5)), None)
        batch = batch_graphs(graphs)
        merged = gcn_layer(batch, ad.const(batch.node_features), p).values
        offset = 0
        for g in graphs:
            single = gcn_layer(batch_graphs([g]), ad.const(g.node_features), p).values
            np.testing.assert_allclose(
                merged[offset:offset + g.num_nodes], single, atol=1e-12
            )
            offset += g.num_nodes

    def test_matches_dense_reference(self):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            g = random_graph(rng)
            batch = batch_graphs([g])
            raw_w = rng.standard_normal((4, 3))
            raw_b = rng.standard_normal(3)
            out = gcn_layer(batch, ad.const(g.node_features),
                            lift_params(GcnLayerParams(w=raw_w, b=raw_b), None))
            adj = dense_adjacency(g.num_nodes, g.edges)
            expected = gcn_layer_dense(adj, g.node_features, raw_w, raw_b)
            np.testing.assert_allclose(out.values, expected, atol=1e-10)

    def test_single_isolated_node(self):
        g = Graph(node_features=np.array([[2.0]]), edges=np.zeros((0, 2)))
        out = gcn_layer(batch_graphs([g]), ad.const(g.node_features),
                        lift_params(GcnLayerParams(w=np.array([[3.0]]), b=np.zeros(1)), None))
        # degree 1 self-loop only: relu(2 * 3) = 6
        np.testing.assert_allclose(out.values, [[6.0]], atol=1e-12)


class TestEncodeGraph:
    CFG = EncoderConfig(gnn_type="gin", layer_dims=(5, 4), pooling="add")

    def test_none_attribution_equals_all_ones(self):
        rng = np.random.default_rng(2)
        graphs = [random_graph(rng) for _ in range(3)]
        batch = batch_graphs(graphs)
        p = init_params(self.CFG, 4, seed=0)
        a = encode_graph(batch, p, self.CFG).values
        ones = ad.const(np.ones((batch.num_nodes, 1)))
        b = encode_graph(batch, p, self.CFG, attribution=ones).values
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_pooling_modes(self):
        g = Graph(node_features=np.array([[1.0], [3.0]]), edges=np.zeros((0, 2)))
        cfg_add = EncoderConfig(gnn_type="gin", layer_dims=(1,), pooling="add")
        p = EncoderParams(layers=[GinLayerParams(
            w1=np.eye(1), b1=np.zeros(1), w2=np.eye(1), b2=np.zeros(1),
            eps=np.zeros(()))])
        batch = batch_graphs([g])
        out_add = encode_graph(batch, p, cfg_add).values
        cfg_mean = dataclasses.replace(cfg_add, pooling="mean")
        out_mean = encode_graph(batch, p, cfg_mean).values
        np.testing.assert_allclose(out_add, [[4.0]], atol=1e-12)
        np.testing.assert_allclose(out_mean, [[2.0]], atol=1e-12)

    def test_permutation_invariance_of_pooled_embedding(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            g = random_graph(np.random.default_rng(seed))
            perm = rng.permutation(g.num_nodes)
            inv = np.argsort(perm)
            relabeled = Graph(
                node_features=g.node_features[perm],
                edges=canonical_edges([(inv[u], inv[v]) for u, v in g.edges], g.num_nodes),
            )
            p = init_params(self.CFG, 4, seed=seed)
            a = encode_graph(batch_graphs([g]), p, self.CFG).values
            b = encode_graph(batch_graphs([relabeled]), p, self.CFG).values
            np.testing.assert_allclose(a, b, atol=1e-9)

    def test_embedding_independent_of_batch_composition(self):
        rng = np.random.default_rng(12)
        graphs = [random_graph(rng) for _ in range(4)]
        p = init_params(self.CFG, 4, seed=3)
        together = encode_graph(batch_graphs(graphs), p, self.CFG).values
        for i, g in enumerate(graphs):
            alone = encode_graph(batch_graphs([g]), p, self.CFG).values
            np.testing.assert_allclose(together[i], alone[0], atol=1e-10)

    def test_attribution_shape_checked(self):
        g = random_graph(np.random.default_rng(0))
        p = init_params(self.CFG, 4, seed=0)
        with pytest.raises(ValueError, match="attribution shape"):
            encode_graph(batch_graphs([g]), p, self.CFG,
                         attribution=ad.const(np.ones((g.num_nodes + 1, 1))))

    def test_pass_counter_counts_graphs(self):
        rng = np.random.default_rng(5)
        graphs = [random_graph(rng) for _ in range(3)]
        p = init_params(self.CFG, 4, seed=0)
        counter = PassCounter()
        encode_graph(batch_graphs(graphs), p, self.CFG, counter=counter)
        encode_graph(batch_graphs(graphs[:2]), p, self.CFG, counter=counter)
        assert counter.graphs == 5

    def test_edgeless_graph_encodes(self):
        g = Graph(node_features=np.ones((3, 4)), edges=np.zeros((0, 2)))
        out = encode_graph(batch_graphs([g]), init_params(self.CFG, 4, 0), self.CFG)
        assert out.shape == (1, 4) and np.isfinite(out.values).all()


class TestEncoderGradients:
    def test_gin_stack_loss_matches_finite_differences(self):
        """Pooled two-layer GIN forward, quadratic loss, FD vs tape."""
        cfg = EncoderConfig(gnn_type="gin", layer_dims=(4, 3), pooling="add")
        for seed in range(5):
            rng = np.random.default_rng(seed)
            graphs = [random_graph(rng), random_graph(rng)]
            batch = batch_graphs(graphs)
            params = init_params(cfg, 4, seed=seed)
            jitter_params(params, 1000 + seed)
            flat = named_arrays(params)
            arrays = list(flat.values())

            def f():
                out = encode_graph(batch, params, cfg)
                return float((out.values ** 2).sum())

            numeric = finite_difference(f, arrays)
            tape = ad.Tape()
            lifted = lift_params(params, tape)
            out = encode_graph(batch, lifted, cfg)
            store = ad.backward(tape, ad.sum_all(ad.mul(out, out)))
            leaves = named_leaves(lifted)
            for (name, leaf), num in zip(leaves.items(), numeric):
                assert max_rel_err(store[leaf], num) < 1e-4, name

    def test_gcn_stack_loss_matches_finite_differences(self):
        cfg = EncoderConfig(gnn_type="gcn", layer_dims=(3, 3), pooling="mean")
        for seed in range(5):
            rng = np.random.default_rng(50 + seed)
            batch = batch_graphs([random_graph(rng), random_graph(rng)])
            params = init_params(cfg, 4, seed=seed)
            jitter_params(params, 2000 + seed)
            arrays = list(named_arrays(params).values())

            def f():
                out = encode_graph(batch, params, cfg)
                return float((out.values ** 2).sum())

            numeric = finite_difference(f, arrays)
            tape = ad.Tape()
            lifted = lift_params(params, tape)
            out = encode_graph(batch, lifted, cfg)
            store = ad.backward(tape, ad.sum_all(ad.mul(out, out)))
            for (name, leaf), num in zip(named_leaves(lifted).items(), numeric):
                assert max_rel_err(store[leaf], num) < 1e-4, name


class TestEdgelessBatch:
    """A batch with no edges at all still runs the gather/scatter message path."""

    @pytest.mark.parametrize("gnn_type, pooling", [("gin", "add"), ("gcn", "mean")])
    def test_stack_matches_dense_reference_and_finite_differences(self, gnn_type, pooling):
        cfg = EncoderConfig(gnn_type=gnn_type, layer_dims=(4, 3), pooling=pooling)
        rng = np.random.default_rng(7)
        graphs = [Graph(node_features=rng.standard_normal((n, 4)), edges=np.zeros((0, 2)))
                  for n in (1, 3, 2)]
        batch = batch_graphs(graphs)
        assert batch.edges.shape == (0, 2)
        params = init_params(cfg, 4, seed=3)
        jitter_params(params, 11)

        out = encode_graph(batch, params, cfg).values
        last = len(params.layers) - 1
        for row, g in zip(out, graphs):
            adj = np.zeros((g.num_nodes, g.num_nodes))
            h = g.node_features
            for i, layer in enumerate(params.layers):
                if gnn_type == "gin":
                    h = gin_layer_dense(adj, h, layer.w1, layer.b1, layer.w2, layer.b2,
                                        float(layer.eps))
                    h = np.maximum(h, 0.0) if i < last else h
                else:
                    h = gcn_layer_dense(adj, h, layer.w, layer.b)
            pooled = h.sum(axis=0) if pooling == "add" else h.mean(axis=0)
            np.testing.assert_allclose(row, pooled, atol=1e-12)

        def f():
            return float((encode_graph(batch, params, cfg).values ** 2).sum())

        numeric = finite_difference(f, list(named_arrays(params).values()))
        tape = ad.Tape()
        lifted = lift_params(params, tape)
        emb = encode_graph(batch, lifted, cfg)
        store = ad.backward(tape, ad.sum_all(ad.mul(emb, emb)))
        for (name, leaf), num in zip(named_leaves(lifted).items(), numeric):
            assert max_rel_err(store[leaf], num) < 1e-4, name


class TestParamHelpers:
    def test_named_lift_assign_round_trip(self):
        cfg = EncoderConfig(gnn_type="gin", layer_dims=(3, 2), head_dims=(4, 1))
        p = init_params(cfg, 5, seed=7)
        flat = named_arrays(p)
        assert "layers.0.w1" in flat and "head.w2" in flat
        doubled = {k: v * 2.0 for k, v in flat.items()}
        assign_arrays(p, doubled)
        np.testing.assert_array_equal(named_arrays(p)["layers.0.w1"],
                                      doubled["layers.0.w1"])

    def test_assign_shape_mismatch_rejected(self):
        p = init_params(EncoderConfig(gnn_type="gcn", layer_dims=(3,)), 2, seed=0)
        flat = named_arrays(p)
        flat["layers.0.w"] = np.zeros((9, 9))
        with pytest.raises(ValueError, match="shape mismatch"):
            assign_arrays(p, flat)

    def test_assign_missing_and_extra_names_rejected(self):
        p = init_params(EncoderConfig(gnn_type="gcn", layer_dims=(3,)), 2, seed=0)
        with pytest.raises(ValueError, match="missing"):
            assign_arrays(p, {})
        flat = named_arrays(p)
        flat["phantom"] = np.zeros(1)
        with pytest.raises(ValueError, match="unexpected"):
            assign_arrays(p, flat)
