"""TU-directory parsing and planted-motif generator checks."""

import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

from oracles import planted_motif_reference, tu_reference, write_random_tu
from rgcl.datasets import (
    PlantedMotifSpec,
    _motif_edges,
    generate_planted_motif_dataset,
    load_tu_dataset,
)
from rgcl.graphs import Graph, GraphDataset, GraphFormatError, dataset_hash


def write_tiny_tu(d: Path, name="TINY", node_labels=True, graph_labels=True):
    """Graph 1: a labeled triangle. Graph 2: a single edge."""
    (d / f"{name}_A.txt").write_text(
        "1, 2\n2, 1\n2, 3\n3, 2\n1, 3\n3, 1\n4, 5\n5, 4\n"
    )
    (d / f"{name}_graph_indicator.txt").write_text("1\n1\n1\n2\n2\n")
    if graph_labels:
        (d / f"{name}_graph_labels.txt").write_text("1\n-1\n")
    if node_labels:
        (d / f"{name}_node_labels.txt").write_text("0\n1\n0\n2\n2\n")


class TestTuLoader:
    def test_two_graph_fixture_parses_exactly(self, tmp_path):
        write_tiny_tu(tmp_path)
        ds = load_tu_dataset(tmp_path)
        assert len(ds) == 2
        g1, g2 = ds[0], ds[1]
        assert g1.num_nodes == 3 and g1.num_edges == 6
        assert g2.num_nodes == 2 and g2.num_edges == 2
        assert {tuple(e) for e in g2.edges} == {(0, 1), (1, 0)}
        # node labels {0,1,2} -> 3-dim one-hot
        assert ds.feature_dim == 3
        np.testing.assert_array_equal(
            g1.node_features, [[1, 0, 0], [0, 1, 0], [1, 0, 0]]
        )
        np.testing.assert_array_equal(g2.node_features, [[0, 0, 1], [0, 0, 1]])
        # raw labels {-1, 1} -> {0, 1} in sorted order
        assert (g1.label, g2.label) == (1, 0)
        assert ds.num_classes == 2

    def test_single_direction_edge_list_is_symmetrized(self, tmp_path):
        (tmp_path / "T_A.txt").write_text("1, 2\n")
        (tmp_path / "T_graph_indicator.txt").write_text("1\n1\n")
        ds = load_tu_dataset(tmp_path)
        assert {tuple(e) for e in ds[0].edges} == {(0, 1), (1, 0)}

    def test_without_node_labels_features_are_constant(self, tmp_path):
        write_tiny_tu(tmp_path, node_labels=False)
        ds = load_tu_dataset(tmp_path)
        assert ds.feature_dim == 1
        np.testing.assert_array_equal(ds[0].node_features, np.ones((3, 1)))

    def test_without_graph_labels(self, tmp_path):
        write_tiny_tu(tmp_path, graph_labels=False)
        ds = load_tu_dataset(tmp_path)
        assert ds.num_classes is None and ds[0].label is None

    def test_missing_edge_file(self, tmp_path):
        with pytest.raises(GraphFormatError, match="_A.txt"):
            load_tu_dataset(tmp_path)

    def test_missing_indicator_file(self, tmp_path):
        (tmp_path / "X_A.txt").write_text("1, 2\n")
        with pytest.raises(GraphFormatError, match="graph_indicator"):
            load_tu_dataset(tmp_path)

    def test_non_contiguous_graph_ids_rejected(self, tmp_path):
        (tmp_path / "X_A.txt").write_text("1, 2\n")
        (tmp_path / "X_graph_indicator.txt").write_text("1\n1\n3\n")
        with pytest.raises(GraphFormatError, match="contiguous"):
            load_tu_dataset(tmp_path)

    def test_malformed_edge_line_rejected(self, tmp_path):
        (tmp_path / "X_A.txt").write_text("1, 2, 3\n")
        (tmp_path / "X_graph_indicator.txt").write_text("1\n1\n")
        with pytest.raises(GraphFormatError, match="line 1"):
            load_tu_dataset(tmp_path)

    def test_cross_graph_edge_rejected(self, tmp_path):
        (tmp_path / "X_A.txt").write_text("1, 3\n")
        (tmp_path / "X_graph_indicator.txt").write_text("1\n1\n2\n")
        with pytest.raises(GraphFormatError, match="joins graph"):
            load_tu_dataset(tmp_path)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_directory_matches_the_reference_parser(self, tmp_path, seed):
        write_random_tu(tmp_path, seed)
        ds = load_tu_dataset(tmp_path)
        graphs, num_classes = tu_reference(tmp_path)
        assert len(ds) == len(graphs) and ds.num_classes == num_classes
        for g, (features, edges, label) in zip(ds, graphs):
            np.testing.assert_array_equal(g.node_features, features)
            assert [tuple(e) for e in g.edges.tolist()] == edges
            assert g.label == label

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("kind", ["out-of-range", "zero-id", "cross-graph", "three-ids",
                                      "one-id", "not-a-number"])
    def test_bad_edge_line_names_the_file_and_line(self, tmp_path, seed, kind):
        write_random_tu(tmp_path, seed, min_graphs=2)
        num_nodes = len((tmp_path / "R_graph_indicator.txt").read_text().split())
        bad = {
            "out-of-range": f"1, {num_nodes + 1}",
            "zero-id": "0, 1",
            "cross-graph": f"1, {num_nodes}",  # first node of graph 1, last of the last graph
            "three-ids": "1, 2, 3",
            "one-id": "1",
            "not-a-number": "1, x",
        }[kind]
        path = tmp_path / "R_A.txt"
        lines = path.read_text().splitlines()
        at = int(np.random.default_rng(seed).integers(0, len(lines) + 1))
        lines.insert(at, bad)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GraphFormatError, match=f"R_A.txt line {at + 1}:"):
            load_tu_dataset(tmp_path)

    @pytest.mark.parametrize("name", ["graph_indicator", "graph_labels", "node_labels"])
    def test_bad_integer_line_names_the_file_and_line(self, tmp_path, name):
        write_tiny_tu(tmp_path, name="X")
        path = tmp_path / f"X_{name}.txt"
        lines = path.read_text().splitlines()
        lines[1] = "1.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GraphFormatError, match=f"X_{name}.txt line 2:"):
            load_tu_dataset(tmp_path)

    def test_mutag_when_available(self):
        """Checks the classic mutagenicity benchmark when a local copy exists."""
        candidates = [Path(__file__).resolve().parent.parent / "data" / "MUTAG"]
        if os.environ.get("RGCL_MUTAG_DIR"):
            candidates.insert(0, Path(os.environ["RGCL_MUTAG_DIR"]))
        directory = next((c for c in candidates if c.is_dir()), None)
        if directory is None:
            pytest.skip("MUTAG directory not present")
        ds = load_tu_dataset(directory)
        assert len(ds) == 188
        mean_nodes = np.mean([g.num_nodes for g in ds])
        assert abs(mean_nodes - 17.93) < 0.01


def reference_hash(spec, count: int) -> str:
    """``dataset_hash`` of ``tests/oracles.py``'s pair-by-pair generator."""
    return dataset_hash(GraphDataset(
        graphs=[
            Graph(node_features=features, edges=np.array(edges).reshape(-1, 2),
                  label=label, rationale_mask=np.array(mask))
            for features, edges, label, mask in planted_motif_reference(spec, count)
        ],
        feature_dim=spec.feature_dim,
        num_classes=spec.num_classes,
    ))


class TestPlantedMotif:
    SPEC = PlantedMotifSpec(
        motif_size=5, background_size_range=(15, 25), num_classes=2,
        feature_dim=8, noise_std=0.4, edge_prob_background=0.2, seed=3,
    )

    def test_deterministic_given_seed(self):
        a = generate_planted_motif_dataset(self.SPEC, 40)
        b = generate_planted_motif_dataset(self.SPEC, 40)
        assert dataset_hash(a) == dataset_hash(b)

    def test_a_call_keeps_no_state_for_the_next(self):
        # a table or memo kept across calls and keyed by the node count alone
        # would hand the second spec, whose motif shifts its pairs differently,
        # the first spec's tables
        other = dataclasses.replace(self.SPEC, motif_size=3, background_size_range=(3, 30))
        first = dataset_hash(generate_planted_motif_dataset(self.SPEC, 40))
        between = dataset_hash(generate_planted_motif_dataset(other, 40))
        assert dataset_hash(generate_planted_motif_dataset(self.SPEC, 40)) == first
        assert first == reference_hash(self.SPEC, 40)
        assert between == reference_hash(other, 40)

    def test_sizes_labels_and_masks(self):
        ds = generate_planted_motif_dataset(self.SPEC, 50)
        for i, g in enumerate(ds):
            assert 15 <= g.num_nodes <= 25
            assert g.label == i % 2
            assert g.rationale_mask.sum() == 5
            assert g.rationale_mask[:5].all()

    def test_zero_noise_makes_class_motif_features_identical(self):
        spec = PlantedMotifSpec(
            motif_size=4, background_size_range=(10, 14), num_classes=2,
            feature_dim=6, noise_std=0.0, edge_prob_background=0.3, seed=1,
        )
        ds = generate_planted_motif_dataset(spec, 12)
        by_class = {0: [], 1: []}
        for g in ds:
            by_class[g.label].append(g.node_features[:4])
        for label, feats in by_class.items():
            for f in feats[1:]:
                np.testing.assert_array_equal(f, feats[0])
        # ... and the two classes differ
        assert not np.array_equal(by_class[0][0], by_class[1][0])

    def test_same_class_graphs_differ_in_background(self):
        ds = generate_planted_motif_dataset(self.SPEC, 10)
        class0 = [g for g in ds if g.label == 0]
        assert any(
            g.num_nodes != class0[0].num_nodes
            or not np.array_equal(g.edges, class0[0].edges)
            for g in class0[1:]
        )

    def test_class_wirings_are_distinct(self):
        e0 = {tuple(sorted(e)) for e in _motif_edges(0, 5)}
        e1 = {tuple(sorted(e)) for e in _motif_edges(1, 5)}
        assert e0 != e1
        assert e0 < e1  # ring is a strict subset of ring-plus-chords

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="motif_size"):
            PlantedMotifSpec(motif_size=6, background_size_range=(5, 10))
        with pytest.raises(ValueError, match="min <= max"):
            PlantedMotifSpec(motif_size=3, background_size_range=(10, 5))
        with pytest.raises(ValueError, match="edge_prob"):
            PlantedMotifSpec(edge_prob_background=1.5)

    def test_graphs_are_valid_and_symmetric(self):
        ds = generate_planted_motif_dataset(self.SPEC, 8)
        for g in ds:
            pairs = {tuple(e) for e in g.edges}
            assert all((v, u) in pairs for u, v in pairs)
            assert g.edges.max() < g.num_nodes

    @pytest.mark.parametrize("fields", [
        {"seed": 0}, {"seed": 1}, {"seed": 2}, {"seed": 3}, {"seed": 4},
        {"edge_prob_background": 1.0, "num_classes": 3},
        {"background_size_range": (5, 5), "motif_size": 5},
        {"edge_prob_background": 0.0},
    ])
    def test_one_draw_wiring_matches_the_per_pair_loop(self, fields):
        spec = PlantedMotifSpec(**fields)
        reference = GraphDataset(
            graphs=[
                Graph(node_features=features, edges=np.array(edges).reshape(-1, 2),
                      label=label, rationale_mask=np.array(mask))
                for features, edges, label, mask in planted_motif_reference(spec, 60)
            ],
            feature_dim=spec.feature_dim,
            num_classes=spec.num_classes,
        )
        ds = generate_planted_motif_dataset(spec, 60)
        assert dataset_hash(ds) == dataset_hash(reference)
