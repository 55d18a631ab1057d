"""Tape/tensor engine checks: closed-form values, finite-difference
gradients for every op, and tape lifecycle rules."""

import tracemalloc

import numpy as np
import pytest

import rgcl.autodiff as ad
from oracles import (
    affine_unfused,
    finite_difference,
    gcn_propagate_unfused,
    gin_aggregate_unfused,
    max_rel_err,
    softmax_ref,
)
from rgcl.datasets import PlantedMotifSpec, generate_planted_motif_dataset
from rgcl.encoder import encode_graph
from rgcl.graphs import Graph, batch_graphs, canonical_edges
from rgcl.params import lift_params
from rgcl.rationale import attribute_nodes
from rgcl.training import TrainConfig, init_train_state

SEEDS = range(20)
TOL = 1e-4


def run_gradcheck(make_arrays, apply_op, seeds=SEEDS, tol=TOL):
    """Compare tape gradients of sum(op(x) * W) against central differences.

    The random projection W exercises the full Jacobian, not just the
    all-ones direction.
    """
    for seed in seeds:
        rng = np.random.default_rng(seed)
        arrays = make_arrays(rng)
        probe = apply_op([ad.const(a) for a in arrays])
        w = rng.standard_normal(probe.values.shape)

        def f():
            out = apply_op([ad.const(a) for a in arrays])
            return float((out.values * w).sum())

        numeric = finite_difference(f, arrays)

        tape = ad.Tape()
        leaves = [tape.leaf(a) for a in arrays]
        loss = ad.sum_all(ad.mul(apply_op(leaves), ad.const(w)))
        store = ad.backward(tape, loss)
        for leaf, num in zip(leaves, numeric):
            err = max_rel_err(store[leaf], num)
            assert err < tol, f"seed {seed}: rel err {err:.3e}"


class TestClosedFormValues:
    def test_softmax_quarter_three_quarters(self):
        """softmax([ln 1, ln 3]) must be exactly [0.25, 0.75]."""
        out = ad.softmax(ad.const(np.array([np.log(1.0), np.log(3.0)])), axis=0)
        np.testing.assert_allclose(out.values, [0.25, 0.75], atol=1e-12)

    def test_softmax_rows_match_reference(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 6))
        out = ad.softmax(ad.const(x), axis=1)
        for i in range(4):
            np.testing.assert_allclose(out.values[i], softmax_ref(x[i]), atol=1e-12)
        np.testing.assert_allclose(out.values.sum(axis=1), np.ones(4), atol=1e-12)

    def test_l2_normalize_three_four_five(self):
        out = ad.l2_normalize(ad.const(np.array([[3.0, 4.0]])))
        np.testing.assert_allclose(out.values, [[0.6, 0.8]], atol=1e-12)

    def test_l2_normalize_tiny_row_passes_through(self):
        x = np.array([[0.0, 0.0], [1e-13, 0.0], [3.0, 4.0]])
        out = ad.l2_normalize(ad.const(x))
        np.testing.assert_allclose(out.values[0], [0.0, 0.0])
        np.testing.assert_allclose(out.values[1], [1e-13, 0.0])
        np.testing.assert_allclose(out.values[2], [0.6, 0.8], atol=1e-12)

    def test_logsumexp_stable_at_large_magnitudes(self):
        out = ad.logsumexp(ad.const(np.array([1000.0, 1000.0])))
        np.testing.assert_allclose(out.values, 1000.0 + np.log(2.0), atol=1e-12)
        out = ad.logsumexp(ad.const(np.array([-1000.0, -1000.0])))
        np.testing.assert_allclose(out.values, -1000.0 + np.log(2.0), atol=1e-12)

    def test_segment_sum_values(self):
        vals = ad.const(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        out = ad.segment_sum(vals, np.array([0, 0, 2]), 3)
        np.testing.assert_allclose(out.values, [[4.0, 6.0], [0.0, 0.0], [5.0, 6.0]])

    def test_segment_mean_empty_segment_is_zero(self):
        vals = ad.const(np.array([[2.0], [4.0], [8.0]]))
        out = ad.segment_mean(vals, np.array([0, 0, 2]), 4)
        np.testing.assert_allclose(out.values, [[3.0], [0.0], [8.0], [0.0]])

    def test_sigmoid_matches_formula_and_is_stable(self):
        x = np.array([-800.0, -2.0, 0.0, 2.0, 800.0])
        out = ad.sigmoid(ad.const(x)).values
        assert out[0] == 0.0 and out[4] == 1.0
        np.testing.assert_allclose(out[1:4], 1.0 / (1.0 + np.exp(-x[1:4])), atol=1e-15)


class TestOpGradients:
    """Central finite differences (h=1e-5) vs the tape, 20 seeds per op."""

    def test_add_same_shape(self):
        run_gradcheck(lambda r: [r.standard_normal((3, 4)), r.standard_normal((3, 4))],
                      lambda t: ad.add(t[0], t[1]))

    def test_add_trailing_singleton(self):
        run_gradcheck(lambda r: [r.standard_normal((3, 4)), r.standard_normal((3, 1))],
                      lambda t: ad.add(t[0], t[1]))

    def test_add_scalar(self):
        run_gradcheck(lambda r: [r.standard_normal(()), r.standard_normal((3, 4))],
                      lambda t: ad.add(t[0], t[1]))

    def test_sub(self):
        run_gradcheck(lambda r: [r.standard_normal((4, 2)), r.standard_normal((4, 1))],
                      lambda t: ad.sub(t[0], t[1]))

    def test_mul_same_shape(self):
        run_gradcheck(lambda r: [r.standard_normal((3, 3)), r.standard_normal((3, 3))],
                      lambda t: ad.mul(t[0], t[1]))

    def test_mul_column_broadcast(self):
        """The attribution pattern: [n, d] features times an [n, 1] column."""
        run_gradcheck(lambda r: [r.standard_normal((5, 3)), r.standard_normal((5, 1))],
                      lambda t: ad.mul(t[0], t[1]))

    def test_mul_scalar_broadcast(self):
        run_gradcheck(lambda r: [r.standard_normal(()), r.standard_normal((2, 3))],
                      lambda t: ad.mul(t[0], t[1]))

    def test_scale(self):
        run_gradcheck(lambda r: [r.standard_normal((3, 2))],
                      lambda t: ad.scale(t[0], -1.7))

    def test_matmul(self):
        run_gradcheck(lambda r: [r.standard_normal((3, 4)), r.standard_normal((4, 2))],
                      lambda t: ad.matmul(t[0], t[1]))

    def test_transpose(self):
        run_gradcheck(lambda r: [r.standard_normal((3, 5))],
                      lambda t: ad.transpose(t[0]))

    def test_add_bias(self):
        run_gradcheck(lambda r: [r.standard_normal((5, 3)), r.standard_normal(3)],
                      lambda t: ad.add_bias(t[0], t[1]))

    def test_relu_away_from_kink(self):
        def make(r):
            return [r.uniform(0.2, 1.5, (4, 3)) * r.choice([-1.0, 1.0], (4, 3))]
        run_gradcheck(make, lambda t: ad.relu(t[0]))

    def test_sigmoid(self):
        run_gradcheck(lambda r: [r.standard_normal((3, 3))],
                      lambda t: ad.sigmoid(t[0]))

    def test_exp(self):
        run_gradcheck(lambda r: [r.standard_normal((2, 4))],
                      lambda t: ad.exp(t[0]))

    def test_log(self):
        run_gradcheck(lambda r: [r.uniform(0.5, 2.0, (3, 3))],
                      lambda t: ad.log(t[0]))

    def test_clip_mixed_regions(self):
        def make(r):
            # clearly inside [0.2, 0.8] or clearly outside; never near an edge
            vals = r.choice([0.05, 0.4, 0.6, 0.95], (4, 3))
            return [vals + r.uniform(-0.02, 0.02, (4, 3))]
        run_gradcheck(make, lambda t: ad.clip(t[0], 0.2, 0.8))

    def test_softmax_axis0(self):
        run_gradcheck(lambda r: [r.standard_normal((6, 1))],
                      lambda t: ad.softmax(t[0], axis=0))

    def test_softmax_axis1(self):
        run_gradcheck(lambda r: [r.standard_normal((3, 5))],
                      lambda t: ad.softmax(t[0], axis=1))

    def test_logsumexp(self):
        run_gradcheck(lambda r: [r.standard_normal((7, 1)) * 3.0],
                      lambda t: ad.logsumexp(t[0]))

    def test_sum_all(self):
        run_gradcheck(lambda r: [r.standard_normal((3, 4))],
                      lambda t: ad.sum_all(t[0]))

    def test_gather_rows_with_duplicates(self):
        idx = np.array([0, 2, 2, 1, 0])
        run_gradcheck(lambda r: [r.standard_normal((4, 3))],
                      lambda t: ad.gather_rows(t[0], idx))

    def test_concat_rows(self):
        run_gradcheck(lambda r: [r.standard_normal((2, 3)),
                                 r.standard_normal((1, 3)),
                                 r.standard_normal((4, 3))],
                      lambda t: ad.concat_rows(t))

    def test_segment_sum(self):
        ids = np.array([0, 0, 2, 1, 2])
        run_gradcheck(lambda r: [r.standard_normal((5, 3))],
                      lambda t: ad.segment_sum(t[0], ids, 4))

    def test_segment_mean(self):
        ids = np.array([1, 1, 1, 0, 3])
        run_gradcheck(lambda r: [r.standard_normal((5, 2))],
                      lambda t: ad.segment_mean(t[0], ids, 4))

    def test_l2_normalize(self):
        def make(r):
            x = r.standard_normal((4, 3))
            return [x + np.sign(x.sum(axis=1, keepdims=True)) * 0.5]
        run_gradcheck(make, lambda t: ad.l2_normalize(t[0]))

    def test_logsumexp_rows(self):
        # row 0 keeps a single entry, row 1 every entry
        mask = np.array([[0, 0, 1, 0, 0],
                         [1, 1, 1, 1, 1],
                         [1, 0, 1, 0, 1],
                         [0, 1, 1, 1, 0]], dtype=bool)
        run_gradcheck(lambda r: [r.standard_normal((4, 5)) * 3.0],
                      lambda t: ad.logsumexp_rows(t[0], mask))

    def test_logsumexp_rows_huge_value_range(self):
        """Entries hundreds apart: the weights are nearly one-hot and the
        shift by the row maximum must keep everything finite."""
        mask = np.array([[1, 1, 0, 1], [0, 1, 0, 0], [1, 1, 1, 1]], dtype=bool)
        run_gradcheck(lambda r: [r.uniform(-400.0, 400.0, (3, 4))],
                      lambda t: ad.logsumexp_rows(t[0], mask))

    def test_masked_row_sum(self):
        mask = np.array([[0, 1, 0, 0], [1, 1, 0, 1], [0, 0, 0, 1]], dtype=bool)
        run_gradcheck(lambda r: [r.standard_normal((3, 4))],
                      lambda t: ad.masked_row_sum(t[0], mask))


def add_at_rows(values, ids, num_rows):
    """The reference scatter: one unbuffered in-order add per row."""
    out = np.zeros((num_rows, values.shape[1]))
    np.add.at(out, ids, values)
    return out


def same_bits(got, want):
    """Equal shape, dtype and bytes: -0.0 differs from 0.0, a NaN equals itself."""
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def scatter_cases():
    """(values, ids, num_rows): duplicate ids, empty segments, d = 1, NaN and
    -0.0 input, no rows at all, a single node, seven columns, and two
    message-passing sized draws."""
    rng = np.random.default_rng(11)
    nan_vals = rng.standard_normal((6, 3))
    nan_vals[2, 1] = np.nan
    signed = np.array([[-0.0, 1.5, -0.0, 0.0], [-0.0, -0.0, -0.0, 2.5], [0.0, -0.0, -0.0, -0.0]])
    cases = [
        (rng.standard_normal((5, 3)), np.array([0, 0, 2, 1, 2]), 4),
        (rng.standard_normal((4, 2)), np.array([3, 3, 3, 3]), 6),
        (rng.standard_normal((3, 1)), np.array([9, 0, 9]), 10),
        (nan_vals, np.array([1, 1, 0, 0, 1, 3]), 4),
        (signed, np.array([0, 0, 1]), 3),
        (np.zeros((0, 3)), np.zeros(0, dtype=np.int64), 2),
        (rng.standard_normal((3, 7)), np.zeros(3, dtype=np.int64), 1),
        (rng.standard_normal((3, 7)), np.array([2, 0, 2]), 3),
    ]
    for e, n, d in ((600, 500, 32), (5000, 400, 32)):
        cases.append((rng.standard_normal((e, d)), rng.integers(0, n, e), n))
    return cases


# The module's own block budget, which scatters every case above in one
# block, and three small ones that split them into column blocks (see
# test_small_budgets_split_the_cases_into_blocks).
BUDGETS = {"default": None, "budget4": 4, "budget7": 7, "budget4096": 4096}


@pytest.fixture(params=list(BUDGETS.values()), ids=list(BUDGETS))
def budget(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(ad, "SCATTER_BLOCK", request.param)
    return ad.SCATTER_BLOCK


class TestScatterKernels:
    """The bincount scatter must reproduce np.add.at bit for bit, in one block
    or in several."""

    def test_segment_sum_bit_identical(self, budget):
        for vals, ids, n in scatter_cases():
            got = ad.segment_sum(ad.const(vals), ids, n).values
            assert same_bits(got, add_at_rows(vals, ids, n))

    def test_segment_mean_bit_identical(self, budget):
        for vals, ids, n in scatter_cases():
            got = ad.segment_mean(ad.const(vals), ids, n).values
            counts = np.bincount(ids, minlength=n).astype(np.float64)
            want = add_at_rows(vals, ids, n) / np.maximum(counts, 1.0)[:, None]
            assert same_bits(got, want)

    def test_gather_rows_vjp_bit_identical(self, budget):
        for upstream, idx, n in scatter_cases():
            tape = ad.Tape()
            a = tape.leaf(np.ones((n, upstream.shape[1])))
            loss = ad.sum_all(ad.mul(ad.gather_rows(a, idx), ad.const(upstream)))
            got = ad.backward(tape, loss)[a]
            assert same_bits(got, add_at_rows(upstream, idx, n))

    def test_small_budgets_split_the_cases_into_blocks(self, monkeypatch):
        """The block widths each budget gives: one block at the default, a last
        block narrower than the others, and width-1 blocks with more messages
        than the budget holds."""
        widths = []
        block = ad._scatter_block

        def spy(values, *rest):
            widths.append(values.shape[1])
            return block(values, *rest)

        monkeypatch.setattr(ad, "_scatter_block", spy)
        shapes = {}
        for name, size in BUDGETS.items():
            if size is not None:
                monkeypatch.setattr(ad, "SCATTER_BLOCK", size)
            shapes[name] = []
            for vals, ids, n in scatter_cases():
                widths.clear()
                ad.segment_sum(ad.const(vals), ids, n)
                shapes[name].append((ids.size, tuple(widths)))
        assert all(len(w) == 1 for _, w in shapes["default"])
        assert (3, (2, 2, 2, 1)) in shapes["budget7"]
        assert (5, (1, 1, 1)) in shapes["budget4"]
        assert (600, (6, 6, 6, 6, 6, 2)) in shapes["budget4096"]
        assert (5000, (1,) * 32) in shapes["budget4096"]


def message_passing_batches():
    """Graph batches for the fused ops: random batches in which some nodes have
    no edge, a single-node graph, and a batch with no edge at all."""
    rng = np.random.default_rng(31)

    def graph(n, edge_prob):
        # the last node never gets an edge
        pairs = [(u, v) for u in range(n - 1) for v in range(u + 1, n - 1)
                 if rng.random() < edge_prob]
        return Graph(node_features=rng.standard_normal((n, 3)),
                     edges=canonical_edges(pairs, n))

    batches = [
        batch_graphs([graph(int(rng.integers(2, 9)), 0.5) for _ in range(4)])
        for _ in range(4)
    ]
    batches.append(batch_graphs([graph(1, 0.5)]))
    batches.append(batch_graphs([graph(n, 0.0) for n in (1, 3, 2)]))
    assert batches[-1].edges.size == 0
    return batches


def gin_forms(batch):
    """The fused GIN aggregation and its unfused chain, as functions of (h, eps)."""
    return (lambda h, eps: ad.gin_aggregate(h, eps, batch.src, batch.dst),
            lambda h, eps: gin_aggregate_unfused(h, eps, batch.src, batch.dst))


def gcn_forms(batch):
    """The fused GCN propagation and its unfused chain, as functions of h."""
    edge_coef, self_coef = batch.gcn_coefs
    return (lambda h: ad.gcn_propagate(h, batch.src, batch.dst, edge_coef, self_coef),
            lambda h: gcn_propagate_unfused(h, batch.src, batch.dst, edge_coef, self_coef))


def value_and_grads(op, arrays, w):
    tape = ad.Tape()
    leaves = [tape.leaf(a) for a in arrays]
    out = op(*leaves)
    store = ad.backward(tape, ad.sum_all(ad.mul(out, ad.const(w))))
    return out.values, [store[leaf] for leaf in leaves], tape.num_records


def check_bit_identical(forms, arrays, rng):
    """The fused op's value and every gradient equal the unfused chain's, and
    it takes one record."""
    fused, unfused = forms
    w = rng.standard_normal(fused(*[ad.const(a) for a in arrays]).shape)
    value, grads, records = value_and_grads(fused, arrays, w)
    ref_value, ref_grads, _ = value_and_grads(unfused, arrays, w)
    assert np.array_equal(value, ref_value)
    for got, want in zip(grads, ref_grads):
        assert got.shape == want.shape and np.array_equal(got, want)
    assert records == 3  # the fused op, then mul and sum_all of the loss


class TestFusedMessagePassing:
    """Each fused op is one record whose value and VJPs equal the unfused
    gather / scatter / mul / add chain bit for bit."""

    def test_gin_aggregate_equals_unfused_chain(self):
        rng = np.random.default_rng(0)
        for batch in message_passing_batches():
            h = rng.standard_normal((batch.num_nodes, 4))
            check_bit_identical(gin_forms(batch), [h, np.asarray(rng.standard_normal())], rng)

    def test_gcn_propagate_equals_unfused_chain(self):
        rng = np.random.default_rng(1)
        for batch in message_passing_batches():
            h = rng.standard_normal((batch.num_nodes, 4))
            check_bit_identical(gcn_forms(batch), [h], rng)

    def test_untracked_inputs_give_untracked_values(self):
        batch = message_passing_batches()[0]
        h = ad.const(np.ones((batch.num_nodes, 2)))
        for forms, args in ((gin_forms(batch), (h, ad.const(0.5))), (gcn_forms(batch), (h,))):
            out, ref = (op(*args) for op in forms)
            assert out.tape is None and np.array_equal(out.values, ref.values)

    def test_cached_gcn_features_equal_the_propagation(self):
        """``GraphBatch.gcn_features`` is ``gcn_propagate`` (and its unfused
        chain) on the constant node features, computed once per batch."""
        for batch in message_passing_batches():
            h = ad.const(batch.node_features)
            fused, unfused = (op(h).values for op in gcn_forms(batch))
            assert np.array_equal(batch.gcn_features, fused)
            assert np.array_equal(batch.gcn_features, unfused)
            assert batch.gcn_features is batch.gcn_features

    def test_gin_aggregate_matches_finite_differences(self):
        for i, batch in enumerate(message_passing_batches()):
            def make_arrays(r, n=batch.num_nodes):
                return [r.standard_normal((n, 3)), np.asarray(r.standard_normal())]

            run_gradcheck(make_arrays, lambda t, op=gin_forms(batch)[0]: op(*t),
                          seeds=range(3 * i, 3 * i + 3))

    def test_gcn_propagate_matches_finite_differences(self):
        for i, batch in enumerate(message_passing_batches()):
            run_gradcheck(lambda r, n=batch.num_nodes: [r.standard_normal((n, 3))],
                          lambda t, op=gcn_forms(batch)[0]: op(*t),
                          seeds=range(3 * i, 3 * i + 3))


class TestBlockedMessagePassing:
    """With the block budget patched down, each fused op scatters its edge
    messages in column blocks; its value and VJPs still equal the unfused
    chain's at the module's budget, where every batch here takes one block."""

    @pytest.mark.parametrize("poisoned", [False, True], ids=["finite", "nan"])
    @pytest.mark.parametrize("op", ["gin", "gcn"])
    def test_blocked_equals_the_unblocked_chain(self, op, poisoned, monkeypatch):
        rng = np.random.default_rng(5)
        for batch in message_passing_batches():
            # seven columns, one of them all -0.0
            h = rng.standard_normal((batch.num_nodes, 7))
            h[:, 3] = -0.0
            if poisoned:
                h[0, 5] = np.nan
            fused, unfused = gin_forms(batch) if op == "gin" else gcn_forms(batch)
            arrays = [h, np.asarray(0.3)] if op == "gin" else [h]
            w = rng.standard_normal(h.shape)
            e = batch.src.size
            assert e * 7 <= ad.SCATTER_BLOCK
            want_value, want_grads, _ = value_and_grads(unfused, arrays, w)
            # width 1 (more edges than the budget), then 2 and 6: 2+2+2+1, 6+1
            for size in (1, 2 * e, 6 * e):
                with monkeypatch.context() as m:
                    m.setattr(ad, "SCATTER_BLOCK", size)
                    value, grads, _ = value_and_grads(fused, arrays, w)
                assert same_bits(value, want_value)
                for got, want in zip(grads, want_grads):
                    assert same_bits(got, want)

    def test_eval_batch_forward_memory_is_bounded_by_the_budget(self):
        """One forward of each op on the benchmark's 500-graph batch at d = 32,
        whose 30,102 directed edges take four blocks. Its traced peak may hold
        three [n, d] arrays (the result and its two terms) and four block-sized
        ones (the messages, their product with the edge weights, the int64
        index and the product it is built from). Built whole, the [E, d]
        messages and index made the traced peaks 20.5 MB (GIN) and 18.0 MB
        (GCN)."""
        dataset = generate_planted_motif_dataset(PlantedMotifSpec(seed=1), 500)
        batch = batch_graphs(list(dataset.graphs))
        n, d = batch.num_nodes, 32
        assert batch.src.size * d > 3 * ad.SCATTER_BLOCK
        h = ad.const(np.random.default_rng(0).standard_normal((n, d)))
        edge_coef, self_coef = batch.gcn_coefs
        eps = ad.const(0.1)
        bound = 8 * (3 * n * d + 4 * ad.SCATTER_BLOCK)
        forwards = {
            "gin": lambda: ad.gin_aggregate(h, eps, batch.src, batch.dst),
            "gcn": lambda: ad.gcn_propagate(h, batch.src, batch.dst, edge_coef, self_coef),
        }
        for name, forward in forwards.items():
            tracemalloc.start()
            try:
                forward()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, f"{name}: traced peak {peak} B, bound {bound} B"


def affine_forms(relu):
    """The fused affine op and its unfused chain, as functions of (x, w, b)."""
    return (lambda x, w, b: ad.affine(x, w, b, relu=relu),
            lambda x, w, b: affine_unfused(x, w, b, relu))


def affine_arrays(rng, n=6, d_in=3, d_out=5):
    return [rng.standard_normal((n, d_in)), rng.standard_normal((d_in, d_out)),
            rng.standard_normal(d_out)]


class TestFusedAffine:
    """``affine`` is one record whose value and VJPs equal the
    matmul / add_bias (/ relu) chain bit for bit."""

    @pytest.mark.parametrize("relu", [False, True])
    def test_equals_unfused_chain(self, relu):
        rng = np.random.default_rng(5)
        for n in (1, 6, 40):
            check_bit_identical(affine_forms(relu), affine_arrays(rng, n=n), rng)

    @pytest.mark.parametrize("relu", [False, True])
    def test_constant_input_equals_unfused_chain(self, relu):
        """A constant x (the first layer's features) records only w and b."""
        rng = np.random.default_rng(6)
        x, w, b = affine_arrays(rng)
        forms = tuple(lambda w, b, op=op: op(ad.const(x), w, b) for op in affine_forms(relu))
        check_bit_identical(forms, [w, b], rng)

    def test_untracked_inputs_give_untracked_values(self):
        arrays = [ad.const(a) for a in affine_arrays(np.random.default_rng(7))]
        for relu in (False, True):
            out, ref = (op(*arrays) for op in affine_forms(relu))
            assert out.tape is None and np.array_equal(out.values, ref.values)

    @pytest.mark.parametrize("relu", [False, True])
    def test_matches_finite_differences(self, relu):
        run_gradcheck(affine_arrays, lambda t: ad.affine(*t, relu=relu), seeds=range(5))

    def test_shape_mismatch(self):
        x, w, b = (ad.const(a) for a in affine_arrays(np.random.default_rng(8)))
        with pytest.raises(ValueError, match="matmul"):
            ad.affine(w, w, b)
        with pytest.raises(ValueError, match="add_bias"):
            ad.affine(x, w, ad.const(np.zeros(2)))


class TestMaskedRowOps:
    def test_logsumexp_rows_matches_per_row_logsumexp(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 7)) * 4.0
        mask = rng.random((5, 7)) < 0.5
        mask[:, 0] = True
        out = ad.logsumexp_rows(ad.const(x), mask).values
        assert out.shape == (5, 1)
        for i in range(5):
            ref = ad.logsumexp(ad.const(x[i, mask[i]])).item()
            assert abs(out[i, 0] - ref) < 1e-12

    def test_logsumexp_rows_stable_and_ignores_masked_entries(self):
        x = np.array([[1000.0, 1000.0, 1e308], [-1000.0, np.nan, -1000.0]])
        mask = np.array([[1, 1, 0], [1, 0, 1]], dtype=bool)
        out = ad.logsumexp_rows(ad.const(x), mask).values
        np.testing.assert_allclose(
            out[:, 0], [1000.0 + np.log(2.0), -1000.0 + np.log(2.0)], atol=1e-12
        )

    def test_logsumexp_rows_single_kept_entry_is_that_entry(self):
        x = np.array([[3.5, -7.0, 2.0]])
        out = ad.logsumexp_rows(ad.const(x), np.array([[0, 1, 0]], dtype=bool))
        assert out.values[0, 0] == -7.0

    def test_masked_row_sum_values(self):
        x = np.array([[1.0, 2.0, 4.0], [8.0, 16.0, 32.0]])
        mask = np.array([[1, 0, 1], [0, 0, 0]], dtype=bool)
        out = ad.masked_row_sum(ad.const(x), mask).values
        np.testing.assert_array_equal(out, [[5.0], [0.0]])

    def test_masked_out_entries_get_zero_gradient(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([[0.3, -1.2, 2.0], [0.5, 0.1, -0.4]]))
        mask = np.array([[1, 0, 1], [0, 1, 1]], dtype=bool)
        loss = ad.sum_all(ad.add(ad.logsumexp_rows(x, mask), ad.masked_row_sum(x, mask)))
        grad = ad.backward(tape, loss)[x]
        assert np.all(grad[~mask] == 0.0)
        # softmax weights sum to one, plus one per kept entry of the row sum
        np.testing.assert_allclose(grad.sum(axis=1), [3.0, 3.0], atol=1e-12)


class TestCompositeGradients:
    def test_quadratic_sum_gradient_is_two_w(self):
        """d/dw sum(w * w) = 2w."""
        rng = np.random.default_rng(0)
        w0 = rng.standard_normal((3, 4))
        tape = ad.Tape()
        w = tape.leaf(w0)
        loss = ad.sum_all(ad.mul(w, w))
        store = ad.backward(tape, loss)
        np.testing.assert_allclose(store[w], 2.0 * w0, atol=1e-12)

    def test_fanout_accumulates(self):
        """x feeds two consumers; gradients add: d/dx [sum(x*x) + sum(x)] = 2x + 1."""
        x0 = np.array([[1.0, -2.0], [0.5, 3.0]])
        tape = ad.Tape()
        x = tape.leaf(x0)
        loss = ad.add(ad.sum_all(ad.mul(x, x)), ad.sum_all(x))
        store = ad.backward(tape, loss)
        np.testing.assert_allclose(store[x], 2.0 * x0 + 1.0, atol=1e-12)

    def test_two_layer_mlp_matches_finite_differences(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((4, 3))
            arrays = [rng.standard_normal((3, 5)), rng.standard_normal(5),
                      rng.standard_normal((5, 2)), rng.standard_normal(2)]

            def f():
                h = np.maximum(x @ arrays[0] + arrays[1], 0.0)
                out = h @ arrays[2] + arrays[3]
                return float((out * out).sum())

            numeric = finite_difference(f, arrays)
            tape = ad.Tape()
            leaves = [tape.leaf(a) for a in arrays]
            h = ad.relu(ad.add_bias(ad.matmul(ad.const(x), leaves[0]), leaves[1]))
            out = ad.add_bias(ad.matmul(h, leaves[2]), leaves[3])
            store = ad.backward(tape, ad.sum_all(ad.mul(out, out)))
            for leaf, num in zip(leaves, numeric):
                assert max_rel_err(store[leaf], num) < TOL


class TestTapeLifecycle:
    def test_second_backward_rejected(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones((2, 2)))
        loss = ad.sum_all(x)
        ad.backward(tape, loss)
        with pytest.raises(RuntimeError, match="consumed"):
            ad.backward(tape, loss)

    def test_recording_on_consumed_tape_rejected(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones((2, 2)))
        ad.backward(tape, ad.sum_all(x))
        with pytest.raises(RuntimeError, match="consumed"):
            ad.relu(x)

    def test_backward_requires_scalar(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones((2, 2)))
        y = ad.mul(x, x)
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(tape, y)

    def test_backward_requires_tracked_loss(self):
        tape = ad.Tape()
        tape.leaf(np.ones(3))
        with pytest.raises(ValueError, match="not tracked"):
            ad.backward(tape, ad.const(1.0))

    def test_mixed_tapes_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        a = t1.leaf(np.ones((2, 2)))
        b = t2.leaf(np.ones((2, 2)))
        with pytest.raises(ValueError, match="different tapes"):
            ad.add(a, b)

    def test_constant_ops_stay_untracked(self):
        out = ad.relu(ad.add(ad.const(np.ones((2, 2))), ad.const(np.ones((2, 2)))))
        assert out.tape is None and out.node_id is None

    def test_unreached_leaf_gets_zero_gradient(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones((2, 3)))
        unused = tape.leaf(np.ones((4, 4)))
        store = ad.backward(tape, ad.sum_all(x))
        np.testing.assert_allclose(store[unused], np.zeros((4, 4)))

    def test_store_rejects_foreign_tensor(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones(2))
        store = ad.backward(tape, ad.sum_all(x))
        with pytest.raises(ValueError):
            store[ad.const(np.ones(2))]

    def test_store_answers_for_leaves_only(self):
        rng = np.random.default_rng(0)
        xv, wv = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        tape = ad.Tape()
        x, w = tape.leaf(xv), tape.leaf(wv)
        unused = tape.leaf(np.ones((2, 2)))
        y = ad.mul(x, w)
        loss = ad.sum_all(y)
        store = ad.backward(tape, loss)
        assert store[x].tobytes() == wv.tobytes() and store[w].tobytes() == xv.tobytes()
        assert store[unused].tobytes() == np.zeros((2, 2)).tobytes()
        for node in (y, loss):
            with pytest.raises(ValueError, match="not a leaf"):
                store[node]

    def test_a_leaf_loss_keeps_its_gradient(self):
        tape = ad.Tape()
        x = tape.leaf(np.array(2.5))
        assert float(ad.backward(tape, x)[x]) == 1.0

    def test_num_records_survives_backward(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones((2, 3)))
        tape.leaf(np.ones(3))
        loss = ad.sum_all(ad.relu(ad.mul(x, x)))
        assert tape.num_records == 3
        ad.backward(tape, loss)
        assert tape.num_records == 3

    def test_backward_frees_records_and_gradients_as_it_replays(self):
        """A chain of sigmoids over a 400 kB leaf: each record holds its
        forward output. Backward's traced peak above its start stays within
        a few arrays, whatever the chain's length, and the forward arrays the
        records held are freed by the time it returns."""
        links = 32
        tape = ad.Tape()
        x = tape.leaf(np.linspace(-1.0, 1.0, 200 * 250).reshape(200, 250))
        nbytes = x.values.nbytes
        tracemalloc.start()
        try:
            h = x
            for _ in range(links):
                h = ad.sigmoid(h)
            loss = ad.sum_all(h)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            store = ad.backward(tape, loss)
            end, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 4 * nbytes, f"backward peak {peak - start} B above its start"
        assert start - end > (links - 2) * nbytes, f"backward freed {start - end} B"
        assert store[x].shape == x.shape


class TestValidation:
    def test_softmax_nan_raises_numeric_error(self):
        with pytest.raises(ad.NumericError):
            ad.softmax(ad.const(np.array([0.0, np.nan])), axis=0)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.matmul(ad.const(np.ones((2, 3))), ad.const(np.ones((2, 3))))

    def test_unsupported_broadcast(self):
        with pytest.raises(ValueError, match="broadcast"):
            ad.add(ad.const(np.ones((2, 3))), ad.const(np.ones((3, 3))))

    def test_segment_id_out_of_range(self):
        with pytest.raises(ValueError):
            ad.segment_sum(ad.const(np.ones((2, 2))), np.array([0, 5]), 3)

    def test_logsumexp_rows_nan_in_kept_entry_raises_numeric_error(self):
        x = ad.const(np.array([[0.0, np.nan]]))
        with pytest.raises(ad.NumericError):
            ad.logsumexp_rows(x, np.array([[True, True]]))

    def test_logsumexp_rows_needs_a_kept_entry_per_row(self):
        with pytest.raises(ValueError, match="kept entry"):
            ad.logsumexp_rows(ad.const(np.ones((2, 3))),
                              np.array([[1, 0, 0], [0, 0, 0]], dtype=bool))

    def test_masked_ops_reject_mismatched_mask(self):
        for op in (ad.logsumexp_rows, ad.masked_row_sum):
            with pytest.raises(ValueError, match="mask"):
                op(ad.const(np.ones((2, 3))), np.ones((3, 2), dtype=bool))

    def test_gather_index_out_of_range(self):
        with pytest.raises(ValueError):
            ad.gather_rows(ad.const(np.ones((2, 2))), np.array([2]))


def value_only_cases():
    """(op, input arrays, the parent's allocating expression of the value) for
    each op that builds VJP state only when taped. Every input has a -0.0
    column, and every op that accepts NaN gets a NaN entry."""
    rng = np.random.default_rng(41)

    def signed(*shape, nan=True):
        a = rng.standard_normal(shape)
        a[:, 1] = -0.0
        if nan:
            a[2, 0] = np.nan
        return a

    def softmax_ref_expr(a, axis):
        e = np.exp(a - a.max(axis=axis, keepdims=True))
        return e / e.sum(axis=axis, keepdims=True)

    def logsumexp_rows_expr(a, mask):
        kept = np.where(mask, a, -np.inf)
        m = kept.max(axis=1, keepdims=True)
        return m + np.log(np.exp(kept - m).sum(axis=1, keepdims=True))

    mask = rng.random((6, 5)) < 0.6
    mask[:, 3] = True
    mask[2, 0] = False  # the NaN entry sits outside the mask
    batch = message_passing_batches()[0]
    n = batch.num_nodes
    edge_coef, self_coef = batch.gcn_coefs
    cases = {}
    for relu in (False, True):
        cases[f"affine-relu{int(relu)}"] = (
            lambda x, w, b, relu=relu: ad.affine(x, w, b, relu=relu),
            [signed(6, 3), rng.standard_normal((3, 5)), rng.standard_normal(5)],
            lambda x, w, b, relu=relu: np.maximum(x @ w + b, 0.0) if relu else x @ w + b,
        )
    cases["relu"] = (ad.relu, [signed(6, 4)], lambda a: np.maximum(a, 0.0))
    cases["clip"] = (lambda a: ad.clip(a, -0.5, 0.5), [signed(6, 4)],
                     lambda a: np.clip(a, -0.5, 0.5))
    for axis in (0, 1):
        cases[f"softmax-axis{axis}"] = (
            lambda a, axis=axis: ad.softmax(a, axis=axis), [signed(6, 4, nan=False)],
            lambda a, axis=axis: softmax_ref_expr(a, axis),
        )
    cases["logsumexp"] = (ad.logsumexp, [signed(6, 4, nan=False)],
                          lambda a: np.asarray(a.max() + np.log(np.exp(a - a.max()).sum())))
    cases["logsumexp_rows"] = (lambda a: ad.logsumexp_rows(a, mask), [signed(6, 5)],
                               lambda a: logsumexp_rows_expr(a, mask))
    cases["gin_aggregate"] = (
        gin_forms(batch)[0], [signed(n, 4), np.asarray(0.3)],
        lambda h, eps: gin_aggregate_unfused(ad.const(h), ad.const(eps), batch.src,
                                             batch.dst).values,
    )
    cases["gcn_propagate"] = (
        gcn_forms(batch)[0], [signed(n, 4)],
        lambda h: gcn_propagate_unfused(ad.const(h), batch.src, batch.dst, edge_coef,
                                        self_coef).values,
    )
    return cases


VALUE_ONLY_CASES = value_only_cases()


class TestValueOnlyForwards:
    """An op on untracked operands builds no VJP state and records nothing, and
    its value equals, byte for byte, both its taped value and the parent's
    allocating expression. No op writes into its inputs, taped or not."""

    @pytest.mark.parametrize("name", list(VALUE_ONLY_CASES))
    def test_value_only_equals_taped_and_allocating_forms(self, name, monkeypatch):
        op, arrays, expr = VALUE_ONLY_CASES[name]
        copies = [a.copy() for a in arrays]
        tape = ad.Tape()
        leaves = [tape.leaf(a) for a in arrays]
        taped = op(*leaves)
        ad.backward(tape, ad.sum_all(taped))
        with monkeypatch.context() as m:
            # a value-only forward never reaches the recording plumbing
            m.setattr(ad, "_emit", lambda *_: pytest.fail("value-only forward called _emit"))
            value_only = op(*[ad.const(a) for a in arrays])
        assert value_only.tape is None and taped.tape is tape
        assert same_bits(value_only.values, taped.values)
        assert same_bits(value_only.values, np.asarray(expr(*copies), dtype=np.float64))
        for a, before in zip(arrays, copies):
            assert same_bits(a, before)

    def test_cached_gcn_features_and_node_features_are_never_written(self):
        """Scoring a dataset graph reads its ``as_batch.gcn_features`` through
        ``affine``, value-only and taped; encoding a batch reads its node
        features through ``gin_aggregate``. Neither array changes."""
        dataset = generate_planted_motif_dataset(PlantedMotifSpec(seed=2), 3)
        config = TrainConfig(seed=2)
        state = init_train_state(config, dataset.feature_dim)
        g = dataset[0]
        features = g.as_batch.gcn_features
        before = (features.copy(), g.node_features.copy())
        attribute_nodes(g, state.generator, config.generator_config())
        tape = ad.Tape()
        probs = attribute_nodes(g, lift_params(state.generator, tape),
                                config.generator_config()).probs
        ad.backward(tape, ad.sum_all(ad.mul(probs, probs)))
        batch = batch_graphs(list(dataset.graphs))
        batch_before = batch.node_features.copy()
        encode_graph(batch, state.encoder, config.encoder_config())
        assert g.as_batch.gcn_features is features
        assert same_bits(features, before[0]) and same_bits(g.node_features, before[1])
        assert same_bits(batch.node_features, batch_before)
