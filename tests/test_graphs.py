"""Graph container, batching, induced-subgraph, and JSON round-trip checks."""

import numpy as np
import pytest

from rgcl.graphs import (
    Graph,
    GraphDataset,
    GraphFormatError,
    batch_graphs,
    canonical_edges,
    dataset_from_json,
    dataset_hash,
    induced_subgraph,
    load_dataset_json,
    save_dataset_json,
)
from oracles import canonical_edges_reference, gcn_coefs_fresh, induced_edges_bruteforce


def triangle() -> Graph:
    return Graph(
        node_features=np.array([[1.0], [2.0], [3.0]]),
        edges=canonical_edges([(0, 1), (1, 2), (0, 2)], 3),
        label=0,
    )


def random_graph(rng, max_nodes=12, dim=3, labeled=True) -> Graph:
    n = int(rng.integers(1, max_nodes + 1))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    return Graph(
        node_features=rng.standard_normal((n, dim)),
        edges=canonical_edges(pairs, n),
        label=int(rng.integers(0, 2)) if labeled else None,
        rationale_mask=rng.random(n) < 0.5,
    )


class TestGraph:
    def test_edges_stored_in_both_directions(self):
        g = triangle()
        assert g.num_edges == 6
        pairs = {tuple(e) for e in g.edges}
        assert (0, 1) in pairs and (1, 0) in pairs

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(node_features=np.ones((2, 1)), edges=np.array([[0, 5]]))

    def test_mask_length_must_match(self):
        with pytest.raises(ValueError):
            Graph(node_features=np.ones((3, 1)), edges=np.zeros((0, 2)),
                  rationale_mask=np.array([True, False]))

    def test_single_node_graph_is_legal(self):
        g = Graph(node_features=np.ones((1, 2)), edges=np.zeros((0, 2)))
        assert g.num_nodes == 1 and g.num_edges == 0

    @pytest.mark.parametrize("edges", [[[0, 1.7]], [[True, False]], [0, 1, 1, 2], [[0, 1, 2]]],
                             ids=["float", "bool", "flat", "triples"])
    def test_non_integer_or_non_pair_edges_rejected(self, edges):
        with pytest.raises(ValueError, match=r"\[E, 2\] list of integers"):
            Graph(node_features=np.ones((3, 1)), edges=edges)

    @pytest.mark.parametrize("edges", [[], np.zeros((0, 2))], ids=["list", "float-array"])
    def test_empty_edges_are_legal(self, edges):
        g = Graph(node_features=np.ones((2, 1)), edges=edges)
        assert g.edges.shape == (0, 2) and g.edges.dtype == np.int64

    def test_edges_are_kept_as_given(self):
        """The constructor checks but does not canonicalise: no reverse edges,
        no sort, and an int64 array is stored without a copy."""
        edges = np.array([[2, 0], [0, 1]])
        g = Graph(node_features=np.ones((3, 1)), edges=edges)
        assert g.edges is edges
        assert Graph(node_features=np.ones((3, 1)), edges=[[2, 0]]).edges.tolist() == [[2, 0]]


class TestCanonicalEdges:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "case", ["empty", "self-loops", "duplicates", "both-directions", "one-node", "tu-scale"]
    )
    def test_integer_keys_match_the_row_sort(self, case, seed):
        rng = np.random.default_rng(seed)
        n = {"one-node": 1, "tu-scale": 999_983}.get(case, 12)
        edges = rng.integers(0, n, size=(int(rng.integers(1, 3000 if n > 12 else 40)), 2))
        if case == "empty":
            edges = edges[:0]
        elif case == "self-loops":
            edges[::2, 1] = edges[::2, 0]
        elif case == "duplicates":
            edges = np.concatenate([edges, edges[::3]])
        elif case == "both-directions":
            edges = np.concatenate([edges, edges[:, ::-1]])
        elif case == "tu-scale":
            edges = np.concatenate([edges, [[n - 1, n - 1], [0, n - 1], [n - 2, 1]]])
        expected = canonical_edges_reference(edges)
        for given in (edges, edges.tolist()):
            got = canonical_edges(given, n)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            np.testing.assert_array_equal(got, expected)


class TestBatching:
    def test_two_graph_layout(self):
        """3-node + 2-node graphs: 5 merged nodes, second graph shifted by 3."""
        g1 = triangle()
        g2 = Graph(node_features=np.array([[9.0], [8.0]]),
                   edges=canonical_edges([(0, 1)], 2), label=1)
        batch = batch_graphs([g1, g2])
        assert batch.num_nodes == 5
        np.testing.assert_array_equal(batch.graph_id, [0, 0, 0, 1, 1])
        np.testing.assert_array_equal(batch.sizes, [3, 2])
        g2_edges = {tuple(e) for e in batch.edges if e[0] >= 3 or e[1] >= 3}
        assert g2_edges == {(3, 4), (4, 3)}

    def test_round_trip_exact(self):
        """Each graph's slice of the batch holds its features, its graph id
        and its edges shifted by the graph's node offset, in order."""
        rng = np.random.default_rng(7)
        for trial in range(20):
            graphs = [random_graph(rng) for _ in range(int(rng.integers(1, 6)))]
            batch = batch_graphs(graphs)
            node_lo = edge_lo = 0
            for i, g in enumerate(graphs):
                nodes = slice(node_lo, node_lo + g.num_nodes)
                np.testing.assert_array_equal(batch.node_features[nodes], g.node_features)
                np.testing.assert_array_equal(batch.graph_id[nodes], i)
                edges = batch.edges[edge_lo : edge_lo + g.num_edges]
                np.testing.assert_array_equal(edges - node_lo, g.edges)
                node_lo += g.num_nodes
                edge_lo += g.num_edges
            assert (node_lo, edge_lo) == (batch.num_nodes, len(batch.edges))
            np.testing.assert_array_equal(batch.sizes, [g.num_nodes for g in graphs])

    def test_mixed_feature_dims_rejected(self):
        g1 = Graph(node_features=np.ones((2, 2)), edges=np.zeros((0, 2)))
        g2 = Graph(node_features=np.ones((2, 3)), edges=np.zeros((0, 2)))
        with pytest.raises(ValueError, match="feature dims"):
            batch_graphs([g1, g2])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            batch_graphs([])


class TestCachedConstants:
    def test_edge_constants_equal_a_fresh_computation(self):
        rng = np.random.default_rng(12)
        for trial in range(20):
            batch = batch_graphs([random_graph(rng) for _ in range(int(rng.integers(1, 6)))])
            assert np.array_equal(batch.src, batch.edges[:, 0])
            assert np.array_equal(batch.dst, batch.edges[:, 1])
            assert batch.src.flags.c_contiguous and batch.dst.flags.c_contiguous
            edge_coef, self_coef = batch.gcn_coefs
            want_edge, want_self = gcn_coefs_fresh(batch.edges, batch.num_nodes)
            assert edge_coef.shape == (len(batch.edges), 1)
            assert self_coef.shape == (batch.num_nodes, 1)
            assert np.array_equal(edge_coef, want_edge) and np.array_equal(self_coef, want_self)
            assert batch.gcn_coefs is batch.gcn_coefs and batch.src is batch.src

    def test_one_graph_batch_is_built_once_and_equals_batch_graphs(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            g = random_graph(rng)
            cached, fresh = g.as_batch, batch_graphs([g])
            assert cached is g.as_batch
            assert cached.node_features is g.node_features and cached.edges is g.edges
            for name in ("node_features", "edges", "graph_id", "sizes"):
                assert np.array_equal(getattr(cached, name), getattr(fresh, name)), name


class TestInducedSubgraph:
    def test_triangle_keep_two(self):
        sub = induced_subgraph(triangle(), [0, 2])
        assert sub.num_nodes == 2
        assert {tuple(e) for e in sub.edges} == {(0, 1), (1, 0)}
        np.testing.assert_array_equal(sub.node_features, [[1.0], [3.0]])

    def test_keep_all_is_identity(self):
        g = triangle()
        sub = induced_subgraph(g, [0, 1, 2])
        np.testing.assert_array_equal(sub.node_features, g.node_features)
        np.testing.assert_array_equal(sub.edges, g.edges)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            g = random_graph(rng)
            k = int(rng.integers(1, g.num_nodes + 1))
            keep = rng.choice(g.num_nodes, size=k, replace=False)
            sub = induced_subgraph(g, keep)
            expected = set(induced_edges_bruteforce([tuple(e) for e in g.edges], keep))
            assert {tuple(e) for e in sub.edges} == expected
            np.testing.assert_array_equal(
                sub.node_features, g.node_features[np.sort(keep)]
            )

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            induced_subgraph(triangle(), [])



BAD_EDGES = {
    "float": [[0, 1.7]],
    "bool": [[True, False]],
    "string": [["0", "1"]],
    "flat": [0, 1, 1, 2],
    "too-large": [[0, 10**20]],
    "ragged": [[0, 1], [2]],
}


class TestJsonInterchange:
    def build_dataset(self, seed=5, n=6):
        rng = np.random.default_rng(seed)
        return GraphDataset(
            graphs=[random_graph(rng) for _ in range(n)],
            feature_dim=3,
            num_classes=2,
        )

    def test_round_trip_exact(self, tmp_path):
        ds = self.build_dataset()
        path = tmp_path / "ds.json"
        save_dataset_json(ds, path)
        back = load_dataset_json(path)
        assert len(back) == len(ds) and back.feature_dim == ds.feature_dim
        for a, b in zip(ds, back):
            np.testing.assert_array_equal(a.node_features, b.node_features)
            np.testing.assert_array_equal(a.edges, b.edges)
            assert a.label == b.label
            np.testing.assert_array_equal(a.rationale_mask, b.rationale_mask)

    def test_hash_stable_across_round_trip(self, tmp_path):
        ds = self.build_dataset()
        path = tmp_path / "ds.json"
        save_dataset_json(ds, path)
        assert dataset_hash(load_dataset_json(path)) == dataset_hash(ds)

    def test_hash_changes_with_content(self):
        a = self.build_dataset(seed=1)
        b = self.build_dataset(seed=2)
        assert dataset_hash(a) != dataset_hash(b)

    def test_one_directional_edges_are_symmetrized(self):
        obj = {"graphs": [{"x": [[1.0], [1.0]], "edges": [[0, 1]]}], "feature_dim": 1}
        ds = dataset_from_json(obj)
        assert {tuple(e) for e in ds[0].edges} == {(0, 1), (1, 0)}

    def test_missing_keys_raise_format_error(self):
        with pytest.raises(GraphFormatError):
            dataset_from_json({"graphs": []})

    def test_corrupt_file_raises_format_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(GraphFormatError):
            load_dataset_json(path)

    def test_missing_file_raises_format_error(self, tmp_path):
        with pytest.raises(GraphFormatError, match="not found"):
            load_dataset_json(tmp_path / "absent.json")

    def test_bad_graph_payload_names_graph(self):
        obj = {"graphs": [{"x": [[1.0]], "edges": [[0, 7]]}], "feature_dim": 1}
        with pytest.raises(GraphFormatError, match="graph 0"):
            dataset_from_json(obj)

    @pytest.mark.parametrize("edges", BAD_EDGES.values(), ids=BAD_EDGES.keys())
    def test_bad_edge_endpoints_name_the_graph(self, edges):
        obj = {"graphs": [{"x": [[1.0]]}, {"x": [[1.0], [1.0], [1.0]], "edges": edges}],
               "feature_dim": 1}
        with pytest.raises(GraphFormatError, match="graph 1: edges must be"):
            dataset_from_json(obj)

    @pytest.mark.parametrize("label", [1.7, True])
    def test_non_integer_label_raises_format_error(self, label):
        obj = {"graphs": [{"x": [[1.0]], "y": 0}, {"x": [[1.0]], "y": label}], "feature_dim": 1}
        with pytest.raises(GraphFormatError, match="graph 1: y: must be an integer"):
            dataset_from_json(obj)

    def test_save_creates_the_parent_directory(self, tmp_path):
        ds = self.build_dataset(seed=1)
        path = tmp_path / "a" / "b" / "data.json"
        save_dataset_json(ds, path)
        assert dataset_hash(load_dataset_json(path)) == dataset_hash(ds)
        assert [p.name for p in path.parent.iterdir()] == ["data.json"]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_features_raise_format_error(self, bad):
        obj = {"graphs": [{"x": [[1.0]]}, {"x": [[1.0], [bad]]}], "feature_dim": 1}
        with pytest.raises(GraphFormatError, match="graph 1: node features must be finite"):
            dataset_from_json(obj)


class TestGraphDataset:
    def test_feature_dim_enforced(self):
        g = Graph(node_features=np.ones((2, 2)), edges=np.zeros((0, 2)))
        with pytest.raises(ValueError):
            GraphDataset(graphs=[g], feature_dim=3)

    def test_labels_require_all_graphs_labeled(self):
        g = Graph(node_features=np.ones((2, 2)), edges=np.zeros((0, 2)))
        ds = GraphDataset(graphs=[g], feature_dim=2)
        with pytest.raises(GraphFormatError, match="unlabeled"):
            ds.labels()
