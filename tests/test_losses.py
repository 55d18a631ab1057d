"""Contrastive loss checks: closed forms, arbitrary-precision oracle,
structural term counts, invariances, and gradient flow."""

import math

import numpy as np
import pytest

import rgcl.autodiff as ad
from oracles import (
    finite_difference,
    independence_loss_mp,
    max_rel_err,
    sufficiency_loss_mp,
)
from rgcl.encoder import init_mlp
from rgcl.losses import (
    BatchViews,
    independence_logits,
    independence_loss,
    other_rationales,
    project,
    rgcl_loss,
    sufficiency_loss,
)
from rgcl.params import lift_params, named_arrays


def unit_rows(rng, n, d) -> np.ndarray:
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def views_from(r1, r2, c=None) -> BatchViews:
    return BatchViews(
        r1=ad.const(r1), r2=ad.const(r2), c=None if c is None else ad.const(c)
    )


def random_views(seed, n=4, d=6, with_c=True) -> BatchViews:
    rng = np.random.default_rng(seed)
    return views_from(
        unit_rows(rng, n, d), unit_rows(rng, n, d),
        unit_rows(rng, n, d) if with_c else None,
    )


class TestClosedForms:
    def test_all_identical_rationales_give_log_two(self):
        """N=2, every rationale row the same unit vector: numerator and each
        of the two negative terms coincide, so the loss is ln 2 regardless
        of temperature."""
        row = np.array([[1.0, 0.0, 0.0]])
        views = views_from(np.repeat(row, 2, 0), np.repeat(row, 2, 0))
        for tau in (0.1, 0.2, 1.0, 5.0):
            for n in (0, 1):
                val = sufficiency_loss(views, n, tau).item()
                assert abs(val - math.log(2.0)) < 1e-9

    def test_perfect_positive_orthogonal_negatives(self):
        """N=2, tau=0.5: positive similarity 1, both negatives orthogonal to
        the query: loss = log 2 - 2."""
        r1 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        r2 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        val = sufficiency_loss(views_from(r1, r2), 0, tau=0.5).item()
        assert abs(val - (math.log(2.0) - 2.0)) < 1e-9

    def test_independence_single_anchor_orthogonal_complement(self):
        """N=1, tau=1, r1=r2, complement orthogonal: loss = log(1 + e^-1)."""
        r = np.array([[1.0, 0.0]])
        c = np.array([[0.0, 1.0]])
        val = independence_loss(views_from(r, r, c), 0, tau=1.0).item()
        assert abs(val - math.log1p(math.exp(-1.0))) < 1e-9


class TestAgainstHighPrecisionOracle:
    def test_sufficiency_matches_mpmath(self):
        for seed in range(8):
            views = random_views(seed, n=5, d=4)
            r1, r2 = views.r1.values, views.r2.values
            for n in range(5):
                mine = sufficiency_loss(views, n, tau=0.2).item()
                ref = sufficiency_loss_mp(r1, r2, n, tau=0.2)
                assert abs(mine - ref) < 1e-11

    def test_independence_matches_mpmath(self):
        for seed in range(8):
            views = random_views(100 + seed, n=5, d=4)
            r1, r2, c = views.r1.values, views.r2.values, views.c.values
            for n in range(5):
                mine = independence_loss(views, n, tau=0.2).item()
                ref = independence_loss_mp(r1, r2, c, n, tau=0.2)
                assert abs(mine - ref) < 1e-11


class TestStructure:
    def test_denominator_term_counts(self):
        """Sufficiency excludes the positive pair: 2(N-1) negative rows.
        Independence keeps it: N+1 logits."""
        for n_anchors in (2, 4, 8):
            views = random_views(n_anchors, n=n_anchors, d=5)
            for n in range(n_anchors):
                assert other_rationales(views, n).shape[0] == 2 * (n_anchors - 1)
                assert independence_logits(views, n, 0.2).shape == (n_anchors + 1, 1)

    def test_report_total_is_mean_of_components(self):
        for seed in range(6):
            views = random_views(seed)
            lam = 0.37
            total, report = rgcl_loss(views, tau=0.2, lam=lam)
            per_anchor = [
                sufficiency_loss(views, n, 0.2).item()
                + lam * independence_loss(views, n, 0.2).item()
                for n in range(views.num_anchors)
            ]
            assert abs(report.total - np.mean(per_anchor)) < 1e-12
            assert abs(total.item() - report.total) < 1e-15
            assert abs(report.total - (report.l_su + lam * report.l_in)) < 1e-12

    def test_lam_zero_total_is_mean_sufficiency(self):
        views = random_views(3)
        total, report = rgcl_loss(views, tau=0.2, lam=0.0)
        su = np.mean([sufficiency_loss(views, n, 0.2).item() for n in range(4)])
        assert report.total == pytest.approx(su, abs=1e-15)
        assert report.l_in != 0.0  # still measured, just not weighted

    def test_no_complements_reports_zero_independence(self):
        views = random_views(5, with_c=False)
        total, report = rgcl_loss(views, tau=0.2, lam=0.1)
        assert report.l_in == 0.0
        su = np.mean([sufficiency_loss(views, n, 0.2).item() for n in range(4)])
        assert abs(report.total - su) < 1e-15


def reference_loss(views, tau, lam):
    """The per-anchor reference: sum of sufficiency_loss + lam *
    independence_loss over anchors, as the tape total and the two means."""
    n = views.num_anchors
    su = [sufficiency_loss(views, i, tau) for i in range(n)]
    ind = [independence_loss(views, i, tau) for i in range(n)] if views.c is not None else []
    terms = [ad.add(s, ad.scale(x, lam)) for s, x in zip(su, ind)] if ind else su
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    l_in = float(np.mean([t.item() for t in ind])) if ind else 0.0
    return ad.scale(total, 1.0 / n), float(np.mean([t.item() for t in su])), l_in


def close(a, b, tol=1e-12):
    """|a - b| within tol, relative once the magnitude exceeds one (tau =
    1e-3 puts logits near 1e3, where one ulp is about 1e-13)."""
    return abs(a - b) <= tol * max(1.0, abs(b))


class TestBatchedLossAgainstReference:
    """rgcl_loss builds one similarity matrix; the per-anchor functions are
    its reference, in value and in gradient."""

    @staticmethod
    def rows(seed, n, d, with_c, zero_rows):
        rng = np.random.default_rng(seed)
        arrays = [unit_rows(rng, n, d) for _ in range(3 if with_c else 2)]
        if zero_rows:
            # a dead projection head emits exactly-zero rows
            arrays[0][0] = 0.0
            arrays[1][n - 1] = 0.0
            if with_c:
                arrays[2][n // 2] = 0.0
        return arrays

    @pytest.mark.parametrize("n", [2, 5, 32])
    @pytest.mark.parametrize("with_c", [True, False])
    @pytest.mark.parametrize("lam", [0.1, 0.0])
    @pytest.mark.parametrize("tau", [0.2, 1e-3])
    @pytest.mark.parametrize("zero_rows", [False, True])
    def test_value_and_gradients_match(self, n, with_c, lam, tau, zero_rows):
        arrays = self.rows(n * 7 + int(zero_rows), n, 6, with_c, zero_rows)

        def run(loss_fn):
            tape = ad.Tape()
            leaves = [tape.leaf(a) for a in arrays]
            views = BatchViews(*leaves) if with_c else BatchViews(*leaves, c=None)
            out = loss_fn(views)
            store = ad.backward(tape, out[0])
            return out, [store[leaf] for leaf in leaves]

        (total, report), grads = run(lambda v: rgcl_loss(v, tau, lam))
        (ref_total, ref_su, ref_in), ref_grads = run(lambda v: reference_loss(v, tau, lam))
        assert close(total.item(), ref_total.item())
        assert close(report.total, ref_total.item())
        assert close(report.l_su, ref_su)
        assert close(report.l_in, ref_in)
        if with_c:
            assert report.l_in != 0.0
        for got, want in zip(grads, ref_grads):
            scale = max(1.0, float(np.abs(want).max()))
            assert float(np.abs(got - want).max()) <= 1e-12 * scale

    def test_tape_records_do_not_grow_with_batch_size(self):
        counts = []
        for n in (2, 32):
            tape = ad.Tape()
            leaves = [tape.leaf(a) for a in self.rows(n, n, 6, True, False)]
            before = tape.num_records
            rgcl_loss(BatchViews(*leaves), 0.2, 0.1)
            counts.append(tape.num_records - before)
        assert counts[0] == counts[1]


class TestInvariances:
    def test_orthogonal_rotation_leaves_losses_unchanged(self):
        """Both losses depend on rows only through inner products."""
        rng = np.random.default_rng(0)
        for seed in range(5):
            views = random_views(seed, n=4, d=6)
            q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            rotated = views_from(
                views.r1.values @ q, views.r2.values @ q, views.c.values @ q
            )
            for n in range(4):
                assert abs(
                    sufficiency_loss(views, n, 0.2).item()
                    - sufficiency_loss(rotated, n, 0.2).item()
                ) < 1e-10
                assert abs(
                    independence_loss(views, n, 0.2).item()
                    - independence_loss(rotated, n, 0.2).item()
                ) < 1e-10

    def test_independence_decreases_as_complements_move_away(self):
        """Strictly lower query-complement similarity => strictly lower loss."""
        e1 = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])

        def comp(angle):
            return np.array([[np.cos(angle), np.sin(angle), 0.0],
                             [np.cos(angle), 0.0, np.sin(angle)]])

        angles = [0.3, 0.8, 1.4, 2.2, 3.0]
        for n in (0, 1):
            vals = [
                independence_loss(views_from(e1, e1, comp(a)), n, 0.2).item()
                for a in angles
            ]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_stable_at_tiny_temperature(self):
        views = random_views(9)
        for n in range(views.num_anchors):
            assert np.isfinite(sufficiency_loss(views, n, 1e-3).item())
            assert np.isfinite(independence_loss(views, n, 1e-3).item())


class TestGradients:
    def test_rgcl_loss_matches_finite_differences(self):
        """FD through unnormalized row parameters (normalization is part of
        the differentiable path)."""
        for seed in range(5):
            rng = np.random.default_rng(seed)
            arrays = [rng.standard_normal((3, 4)) + 0.1 for _ in range(3)]

            def build(tensors):
                return BatchViews(
                    r1=ad.l2_normalize(tensors[0]),
                    r2=ad.l2_normalize(tensors[1]),
                    c=ad.l2_normalize(tensors[2]),
                )

            def f():
                total, _ = rgcl_loss(build([ad.const(a) for a in arrays]), 0.2, 0.3)
                return total.item()

            numeric = finite_difference(f, arrays)
            tape = ad.Tape()
            leaves = [tape.leaf(a) for a in arrays]
            total, _ = rgcl_loss(build(leaves), 0.2, 0.3)
            store = ad.backward(tape, total)
            for leaf, num in zip(leaves, numeric):
                assert max_rel_err(store[leaf], num) < 1e-4

    def test_lam_zero_kills_complement_gradient(self):
        """With lam=0 the complement tower receives exactly zero gradient."""
        rng = np.random.default_rng(4)
        tape = ad.Tape()
        z = [tape.leaf(rng.standard_normal((3, 4)) + 0.1) for _ in range(3)]
        views = BatchViews(r1=ad.l2_normalize(z[0]), r2=ad.l2_normalize(z[1]),
                           c=ad.l2_normalize(z[2]))
        total, _ = rgcl_loss(views, tau=0.2, lam=0.0)
        store = ad.backward(tape, total)
        np.testing.assert_array_equal(store[z[2]], np.zeros((3, 4)))
        assert float(np.abs(store[z[0]]).sum()) > 0


class TestProjector:
    def test_identity_weights_preserve_nonnegative_unit_row(self):
        p = init_mlp(np.random.default_rng(0), 3, 3, 3)
        p.w1 = np.eye(3)
        p.w2 = np.eye(3)
        row = np.array([[0.6, 0.8, 0.0]])
        out = project(ad.const(row), lift_params(p, None))
        np.testing.assert_allclose(out.values, row, atol=1e-12)

    def test_output_rows_are_unit(self):
        rng = np.random.default_rng(2)
        raw = init_mlp(np.random.default_rng(1), 5, 4, 3)
        raw.b1 += 1.0  # keep hidden rows from collapsing to exact zero
        p = lift_params(raw, None)
        out = project(ad.const(rng.standard_normal((7, 5))), p)
        np.testing.assert_allclose(
            np.linalg.norm(out.values, axis=1), np.ones(7), atol=1e-10
        )

    def test_init_deterministic(self):
        a = named_arrays(init_mlp(np.random.default_rng(5), 4, 3, 2))
        b = named_arrays(init_mlp(np.random.default_rng(5), 4, 3, 2))
        assert all(np.array_equal(a[k], b[k]) for k in a)


class TestValidation:
    def test_non_unit_rows_rejected(self):
        bad = np.array([[1.0, 1.0]])
        with pytest.raises(ValueError, match="unit"):
            views_from(bad, bad)

    def test_sufficiency_needs_two_anchors(self):
        views = views_from(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError, match="N >= 2"):
            sufficiency_loss(views, 0, 0.2)

    def test_independence_needs_complements(self):
        views = random_views(0, with_c=False)
        with pytest.raises(ValueError, match="complement"):
            independence_loss(views, 0, 0.2)

    def test_temperature_must_be_positive(self):
        views = random_views(0)
        with pytest.raises(ValueError, match="temperature"):
            sufficiency_loss(views, 0, 0.0)
        with pytest.raises(ValueError, match="temperature"):
            rgcl_loss(views, tau=-1.0, lam=0.1)

    def test_batched_loss_needs_two_anchors(self):
        views = views_from(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]),
                           np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError, match="N >= 2"):
            rgcl_loss(views, tau=0.2, lam=0.1)

    def test_anchor_out_of_range(self):
        views = random_views(0)
        with pytest.raises(ValueError, match="anchor"):
            sufficiency_loss(views, 99, 0.2)

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            rgcl_loss(random_views(0), tau=0.2, lam=-0.5)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            BatchViews(r1=ad.const(unit_rows(rng, 3, 4)),
                       r2=ad.const(unit_rows(rng, 2, 4)))

    def test_degenerate_zero_row_accepted_and_loss_finite(self):
        """A projection head whose relu layer goes fully dead emits an
        exactly-zero row (zero biases at init make this reachable). Such
        rows pass validation and enter the loss with zero cosine against
        everything; anything between zero and unit norm still means the
        caller skipped projection."""
        rng = np.random.default_rng(5)
        c = unit_rows(rng, 3, 4)
        c[1] = 0.0
        views = views_from(unit_rows(rng, 3, 4), unit_rows(rng, 3, 4), c)
        total, report = rgcl_loss(views, tau=0.2, lam=0.1)
        assert np.isfinite(total.item())
        assert np.isfinite(report.l_in)

        half = unit_rows(rng, 3, 4)
        half[1] *= 0.5
        with pytest.raises(ValueError, match="unit"):
            views_from(unit_rows(rng, 3, 4), unit_rows(rng, 3, 4), half)
