"""Attribution scoring and Gumbel-top-k view sampling checks, including
distributional comparison against the exhaustive enumeration oracle."""

import numpy as np
import pytest

import rgcl.autodiff as ad
from oracles import (
    finite_difference, inclusion_probabilities, jitter_params, max_rel_err, topk_by_score,
    view_per_view,
)
from rgcl.encoder import EncoderConfig, init_params
from rgcl.graphs import Graph, canonical_edges
from rgcl.params import lift_params, named_arrays, named_leaves
from rgcl.rationale import (
    WEIGHT_FLOOR,
    AttributionScores,
    attribute_nodes,
    complement_from_kept,
    export_rationales,
    gumbel_top_k,
    rationale_from_kept,
    sample_complement,
    sample_rationale,
    top_k_nodes,
    uniform_scores,
    view_size,
    view_tower,
)

GEN_CFG = EncoderConfig(gnn_type="gcn", layer_dims=(4, 3), head_dims=(3, 1))


def triangle_same_features() -> Graph:
    return Graph(node_features=np.ones((3, 2)),
                 edges=canonical_edges([(0, 1), (1, 2), (0, 2)], 3))


def path_graph(n=5, dim=2, seed=0) -> Graph:
    rng = np.random.default_rng(seed)
    return Graph(node_features=rng.standard_normal((n, dim)),
                 edges=canonical_edges([(i, i + 1) for i in range(n - 1)], n))


def random_graph(n, dim=2, seed=0) -> Graph:
    """``n`` nodes, up to ``2 n`` random undirected edges, a random mask."""
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, n, size=(2 * n, 2))
    return Graph(node_features=rng.standard_normal((n, dim)),
                 edges=canonical_edges(pairs[pairs[:, 0] != pairs[:, 1]], n),
                 rationale_mask=rng.random(n) < 0.4)


def scores_from(p) -> AttributionScores:
    return AttributionScores(probs=ad.const(np.asarray(p, dtype=np.float64).reshape(-1, 1)))


class TestAttributeNodes:
    def test_symmetric_graph_gets_uniform_scores(self):
        """All-identical features on a vertex-transitive graph cannot be told
        apart, so the softmax must be flat."""
        params = init_params(GEN_CFG, 2, seed=4)
        scores = attribute_nodes(triangle_same_features(), params, GEN_CFG)
        np.testing.assert_allclose(scores.probs.values, np.full((3, 1), 1 / 3), atol=1e-9)

    def test_probs_are_normalized_and_positive(self):
        params = init_params(GEN_CFG, 2, seed=1)
        for seed in range(5):
            g = path_graph(6, seed=seed)
            p = attribute_nodes(g, params, GEN_CFG).probs.values
            assert p.shape == (6, 1)
            assert np.all(p > 0) and np.all(p < 1)
            assert abs(p.sum() - 1.0) < 1e-9

    def test_repeat_calls_reuse_the_graph_batch_bit_for_bit(self):
        """The second call reads the graph's cached batch; it and a call on an
        equal graph that has no cached batch yet give the same bits."""
        params = init_params(GEN_CFG, 2, seed=2)
        for seed in range(5):
            g = path_graph(7, seed=seed)
            first = attribute_nodes(g, params, GEN_CFG).probs.values
            batch = g.as_batch
            second = attribute_nodes(g, params, GEN_CFG).probs.values
            assert g.as_batch is batch
            twin = Graph(node_features=g.node_features.copy(), edges=g.edges.copy())
            fresh = attribute_nodes(twin, params, GEN_CFG).probs.values
            assert np.array_equal(first, second) and np.array_equal(first, fresh)

    def test_raw_and_lifted_trees_give_the_same_bits(self):
        """A raw tree, a value-lifted one and a tape-lifted one score alike."""
        params = init_params(GEN_CFG, 2, seed=3)
        for seed in range(3):
            g = path_graph(6, seed=seed)
            raw = attribute_nodes(g, params, GEN_CFG).probs.values
            lifted = attribute_nodes(g, lift_params(params, None), GEN_CFG).probs.values
            taped = attribute_nodes(g, lift_params(params, ad.Tape()), GEN_CFG).probs
            assert taped.tape is not None
            assert np.array_equal(raw, lifted) and np.array_equal(raw, taped.values)

    def test_one_forward_records_six_tape_nodes(self):
        """Two GCN layers and the head, then the softmax: the first layer's
        propagation is constant, and each affine map (with its ReLU) is one
        record."""
        params = init_params(GEN_CFG, 2, seed=3)
        tape = ad.Tape()
        lifted = lift_params(params, tape)
        for n in (1, 5, 9):
            before = tape.num_records
            attribute_nodes(path_graph(n), lifted, GEN_CFG)
            assert tape.num_records - before == 6

    def test_head_params_required(self):
        cfg = EncoderConfig(gnn_type="gcn", layer_dims=(4,))
        with pytest.raises(ValueError, match="head"):
            attribute_nodes(path_graph(), init_params(cfg, 2, 0), cfg)

    def test_scores_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            scores_from([0.5, 0.2])
        with pytest.raises(ad.NumericError):
            scores_from([np.nan, 1.0])


class TestViewSize:
    def test_rounding_half_away_from_zero(self):
        assert view_size(10, 0.25) == 3
        assert view_size(10, 0.8) == 8
        assert view_size(3, 0.5) == 2
        assert view_size(2, 0.25) == 1  # max(1, .) floor
        assert view_size(1, 1.0) == 1

    def test_rho_bounds(self):
        with pytest.raises(ValueError):
            view_size(5, 0.0)
        with pytest.raises(ValueError):
            view_size(5, 1.2)


class TestSampling:
    def test_rho_one_keeps_whole_graph(self):
        g = path_graph(6, seed=3)
        scores = scores_from(np.full(6, 1 / 6))
        view = sample_rationale(g, scores, 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(view.kept, np.arange(6))
        np.testing.assert_array_equal(view.subgraph.node_features, g.node_features)
        np.testing.assert_array_equal(view.subgraph.edges, g.edges)

    def test_kept_is_sorted_and_attribution_aligned(self):
        g = path_graph(8, seed=1)
        probs = np.random.default_rng(2).dirichlet(np.ones(8))
        scores = scores_from(probs)
        view = sample_rationale(g, scores, 0.5, np.random.default_rng(5))
        assert np.all(np.diff(view.kept) > 0)
        np.testing.assert_allclose(
            view.attribution.values.reshape(-1), probs[view.kept], atol=1e-12
        )

    def test_deterministic_given_rng_state(self):
        g = path_graph(7, seed=0)
        scores = scores_from(np.random.default_rng(1).dirichlet(np.ones(7)))
        a = sample_rationale(g, scores, 0.6, np.random.default_rng(42))
        b = sample_rationale(g, scores, 0.6, np.random.default_rng(42))
        np.testing.assert_array_equal(a.kept, b.kept)

    def test_single_node_graph(self):
        """Rationale and complement both keep the only node; the complement
        attribution 1 - p = 0 is clamped to the weight floor."""
        g = Graph(node_features=np.ones((1, 2)), edges=np.zeros((0, 2)))
        scores = scores_from([1.0])
        r = sample_rationale(g, scores, 0.8, np.random.default_rng(0))
        c = sample_complement(g, scores, 0.8, np.random.default_rng(0))
        np.testing.assert_array_equal(r.kept, [0])
        np.testing.assert_array_equal(c.kept, [0])
        np.testing.assert_allclose(c.attribution.values, [[WEIGHT_FLOOR]])

    def test_complement_attribution_is_one_minus_p(self):
        g = path_graph(6, seed=2)
        probs = np.random.default_rng(3).dirichlet(np.ones(6))
        c = sample_complement(g, scores_from(probs), 0.5, np.random.default_rng(1))
        np.testing.assert_allclose(
            c.attribution.values.reshape(-1), 1.0 - probs[c.kept], atol=1e-12
        )
        assert np.all(c.attribution.values > 0) and np.all(c.attribution.values < 1)

    def test_uniform_scores_helper(self):
        s = uniform_scores(path_graph(5))
        np.testing.assert_allclose(s.probs.values, np.full((5, 1), 0.2))


class TestOneViewCutter:
    """``rationale_from_kept`` and ``complement_from_kept`` are one-graph
    ``view_tower`` calls, and ``sample_rationale`` / ``sample_complement`` go
    through them. All four equal ``tests/oracles.py::view_per_view``, which
    cuts the view by hand, as bytes."""

    GRAPHS = {
        "one-node": lambda: Graph(node_features=np.full((1, 2), 0.5), edges=np.zeros((0, 2))),
        "path": lambda: path_graph(7, seed=4),
        **{f"random-{s}": (lambda s=s: random_graph(6 + 3 * s, seed=s)) for s in range(3)},
    }

    @staticmethod
    def cut(make_view, g, seed):
        """Scores ``g`` on a fresh tape and cuts one view with ``make_view``.
        Returns the bytes of the subgraph arrays, the kept nodes and the
        attribution, and of each scorer-leaf gradient of a weighted
        attribution sum."""
        params = init_params(GEN_CFG, 2, seed=seed)
        jitter_params(params, seed)
        tape = ad.Tape()
        lifted = lift_params(params, tape)
        subgraph, kept, attribution = make_view(attribute_nodes(g, lifted, GEN_CFG))
        weights = ad.const(np.arange(1.0, attribution.shape[0] + 1).reshape(-1, 1))
        store = ad.backward(tape, ad.sum_all(ad.mul(attribution, weights)))
        mask = subgraph.rationale_mask
        arrays = [subgraph.node_features, subgraph.edges, np.asarray(kept), attribution.values]
        return ([a.tobytes() for a in arrays] + [None if mask is None else mask.tobytes()],
                {k: store[t].tobytes() for k, t in named_leaves(lifted).items()})

    @pytest.mark.parametrize("graph", list(GRAPHS))
    @pytest.mark.parametrize("rho", [0.5, 1.0])
    @pytest.mark.parametrize("complement", [False, True])
    def test_single_views_equal_the_hand_cut_view(self, graph, rho, complement):
        g = self.GRAPHS[graph]()
        k = view_size(g.num_nodes, rho)
        sample = sample_complement if complement else sample_rationale
        from_kept = complement_from_kept if complement else rationale_from_kept

        def draw(scores, seed):
            p = scores.probs.values.reshape(-1)
            return gumbel_top_k(1.0 - p if complement else p, k, np.random.default_rng(seed))

        def fields(view):
            return view.subgraph, view.kept, view.attribution

        def by_hand(scores, seed):
            kept = draw(scores, seed)
            subgraph, attribution = view_per_view(g, scores, kept, complement)
            return subgraph, kept, attribution

        for seed in range(3):
            want = self.cut(lambda s: by_hand(s, seed), g, seed)
            assert self.cut(lambda s: fields(from_kept(g, s, draw(s, seed))), g, seed) == want
            sampled = self.cut(
                lambda s: fields(sample(g, s, rho, np.random.default_rng(seed))), g, seed
            )
            assert sampled == want


class TestOrderContract:
    """Each ``kept`` must be strictly ascending, the order in which the
    subgraph numbers its nodes. Another order, or a repeated node, is refused
    instead of pairing subgraph node i with another node's p."""

    CUTS = {
        "view_tower": lambda g, s, kept: view_tower([g], s.probs, [kept]),
        "view_tower-complement": lambda g, s, kept: view_tower([g], s.probs, [kept], True),
        "rationale_from_kept": rationale_from_kept,
        "complement_from_kept": complement_from_kept,
    }

    def test_node_3_is_no_longer_paired_with_subgraph_node_0(self):
        g = path_graph(5, seed=1)
        probs = scores_from(np.random.default_rng(0).dirichlet(np.ones(5))).probs
        with pytest.raises(ValueError, match="strictly ascending"):
            view_tower([g], probs, [np.array([3, 0, 1])])

    @pytest.mark.parametrize("cut", list(CUTS))
    @pytest.mark.parametrize("kept", [[4, 2, 1, 0], [0, 1, 1, 3], [2, 2]])
    def test_an_unsorted_or_repeated_kept_is_refused(self, cut, kept):
        g = path_graph(5, seed=2)
        scores = scores_from(np.random.default_rng(1).dirichlet(np.ones(5)))
        with pytest.raises(ValueError, match="strictly ascending"):
            self.CUTS[cut](g, scores, np.array(kept))

    def test_probs_must_hold_one_row_per_graph_node(self):
        """A column of the wrong length used to be gathered from silently."""
        graphs = [path_graph(4, seed=0), path_graph(5, seed=1)]
        probs = ad.concat_rows([uniform_scores(g).probs for g in graphs])
        with pytest.raises(ValueError, match="probs has 9 rows for 4 graph nodes"):
            view_tower(graphs[:1], probs, [np.array([0, 1])])
        with pytest.raises(ValueError, match="probs has 4 rows for 5 graph nodes"):
            rationale_from_kept(graphs[1], uniform_scores(graphs[0]), np.array([0, 1]))

    @pytest.mark.parametrize("second", [[3, 0], [1, 1]])
    def test_the_batched_cut_checks_every_graph(self, second):
        graphs = [path_graph(4, seed=0), path_graph(5, seed=1)]
        probs = ad.concat_rows([uniform_scores(g).probs for g in graphs])
        with pytest.raises(ValueError, match="strictly ascending"):
            view_tower(graphs, probs, [np.array([0, 3]), np.array(second)])

    def test_a_batch_may_restart_at_node_0_in_each_graph(self):
        """Offsets keep the flat index ascending across graph boundaries."""
        graphs = [path_graph(4, seed=0), path_graph(5, seed=1)]
        probs = ad.concat_rows([scores_from(np.full(g.num_nodes, 1 / g.num_nodes)).probs
                                for g in graphs])
        subgraphs, attribution = view_tower(graphs, probs, [np.array([3]), np.array([0, 4])])
        assert [sub.num_nodes for sub in subgraphs] == [1, 2]
        np.testing.assert_array_equal(attribution.values, [[0.25], [0.2], [0.2]])


class TestSamplingDistribution:
    def test_single_draw_matches_weights(self):
        """k=1 on weights [0.7, 0.1, 0.1, 0.1]: node 0 should appear with
        frequency 0.7 within 0.01 over 1e5 draws."""
        w = np.array([0.7, 0.1, 0.1, 0.1])
        rng = np.random.default_rng(123)
        hits = np.zeros(4)
        draws = 100_000
        for _ in range(draws):
            hits[gumbel_top_k(w, 1, rng)[0]] += 1
        freq = hits / draws
        expected = inclusion_probabilities(w, 1)
        np.testing.assert_allclose(expected, w, atol=1e-12)
        assert np.max(np.abs(freq - expected)) < 0.01

    def test_top_k_matches_enumeration_oracle(self):
        """Without-replacement inclusion frequencies for k=2 of 5."""
        w = np.array([0.45, 0.25, 0.15, 0.1, 0.05])
        expected = inclusion_probabilities(w, 2)
        rng = np.random.default_rng(7)
        hits = np.zeros(5)
        draws = 60_000
        for _ in range(draws):
            hits[gumbel_top_k(w, 2, rng)] += 1
        assert np.max(np.abs(hits / draws - expected)) < 0.012

    def test_inclusion_monotone_in_score(self):
        """Higher-scored nodes are kept at least as often."""
        w = np.array([0.4, 0.3, 0.15, 0.1, 0.05])
        rng = np.random.default_rng(11)
        hits = np.zeros(5)
        for _ in range(30_000):
            hits[gumbel_top_k(w, 3, rng)] += 1
        assert np.all(np.diff(hits) <= 0)

    def test_rationale_and_complement_draws_are_independent(self):
        """Inclusion indicators across the two draws must not covary."""
        g = path_graph(5, seed=9)
        probs = np.array([0.35, 0.3, 0.2, 0.1, 0.05])
        scores = scores_from(probs)
        rng = np.random.default_rng(17)
        draws = 20_000
        r_ind = np.zeros((draws, 5))
        c_ind = np.zeros((draws, 5))
        for t in range(draws):
            r_ind[t, sample_rationale(g, scores, 0.5, rng).kept] = 1
            c_ind[t, sample_complement(g, scores, 0.5, rng).kept] = 1
        # marginals agree with the enumeration oracle ...
        p_r = inclusion_probabilities(probs, 3)
        p_c = inclusion_probabilities(1.0 - probs, 3)
        assert np.max(np.abs(r_ind.mean(axis=0) - p_r)) < 0.012
        assert np.max(np.abs(c_ind.mean(axis=0) - p_c)) < 0.012
        # ... and the joint factorizes: sample covariance within 4 sigma of 0
        m_r, m_c = r_ind.mean(axis=0), c_ind.mean(axis=0)
        for u in range(5):
            for v in range(5):
                emp_cov = np.mean(r_ind[:, u] * c_ind[:, v]) - m_r[u] * m_c[v]
                sigma = np.sqrt(m_r[u] * (1 - m_r[u]) * m_c[v] * (1 - m_c[v]) / draws)
                assert abs(emp_cov) < 4.0 * sigma + 1e-4, (u, v)


class TestGradientPath:
    def test_scorer_gradient_flows_only_through_attribution(self):
        """With the node selection frozen, FD through the scorer matches the
        tape exactly; the discrete draw itself contributes nothing."""
        g = path_graph(6, dim=2, seed=21)
        params = init_params(GEN_CFG, 2, seed=8)
        for v in named_arrays(params).values():
            v += np.random.default_rng(99).normal(0, 0.2, v.shape)
        kept = gumbel_top_k(
            attribute_nodes(g, params, GEN_CFG).probs.values.reshape(-1),
            3, np.random.default_rng(5),
        )
        arrays = list(named_arrays(params).values())

        def f():
            p = attribute_nodes(g, params, GEN_CFG).probs.values
            return float(p[kept].sum())

        numeric = finite_difference(f, arrays)
        tape = ad.Tape()
        lifted = lift_params(params, tape)
        scores = attribute_nodes(g, lifted, GEN_CFG)
        loss = ad.sum_all(ad.gather_rows(scores.probs, kept))
        store = ad.backward(tape, loss)
        total_norm = 0.0
        for (name, leaf), num in zip(named_leaves(lifted).items(), numeric):
            assert max_rel_err(store[leaf], num) < 1e-4, name
            total_norm += float((store[leaf] ** 2).sum())
        assert total_norm > 0.0


class TestTopKNodes:
    def test_matches_the_oracle_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            scores = rng.integers(0, 4, size=n) / 4.0  # coarse values, many ties
            k = int(rng.integers(1, n + 1))
            top = top_k_nodes(scores, k)
            assert sorted(top.tolist()) == topk_by_score(scores.tolist(), k)
            # ranked: highest score first, ties in index order
            assert all((-scores[a], a) < (-scores[b], b) for a, b in zip(top, top[1:]))


class TestExport:
    def test_topk_ties_break_toward_lower_index(self):
        g = triangle_same_features()
        params = init_params(GEN_CFG, 2, seed=0)
        from rgcl.graphs import GraphDataset
        ds = GraphDataset(graphs=[g], feature_dim=2)
        out = export_rationales(ds, params, GEN_CFG, rho=0.8)
        # uniform scores on 3 nodes, k = round(0.8 * 3) = 2: indices 0 and 1
        assert out[0]["topk"] == [0, 1]
        assert len(out[0]["probs"]) == 3

    def test_mask_size_drives_k(self):
        g = Graph(node_features=np.ones((4, 2)), edges=np.zeros((0, 2)),
                  rationale_mask=np.array([True, True, False, False]))
        from rgcl.graphs import GraphDataset
        ds = GraphDataset(graphs=[g], feature_dim=2)
        out = export_rationales(ds, init_params(GEN_CFG, 2, 0), GEN_CFG)
        assert len(out[0]["topk"]) == 2
