"""Projection head and the two contrastive objectives.

Per anchor n the batch carries three projected, unit-normalized rows: two
independently sampled rationale views r1_n, r2_n and one complement view
c_n. Two losses are combined:

* sufficiency: instance discrimination over rationales. The positive pair
  is (r1_n, r2_n); the denominator sums ONLY over the 2(N-1) rationale rows
  of the other anchors (it does not re-add the positive term), so with all
  similarities equal the loss is log(2(N-1)) rather than log(2N-1).
* independence: push r1_n away from every complement in the batch. Here the
  denominator is the positive term plus all N complement similarities,
  N+1 terms in total.

Both use r1 as the query side only; there is no second term with r2 as the query.
The total is mean_n [ suff_n + lam * indep_n ]. ``rgcl_loss`` computes it for
the whole batch from one similarity matrix; the per-anchor functions below
are its reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NORM_EPS, Tensor
from .encoder import MlpParams, mlp_forward
from .params import lift_params

UNIT_ROW_TOL = 1e-10


def project(x: Tensor, params: MlpParams) -> Tensor:
    """The projector MLP on pooled embeddings, then row-wise L2 normalization
    onto the unit sphere."""
    return ad.l2_normalize(mlp_forward(x, lift_params(params, None)))


@dataclass
class BatchViews:
    """Projected view rows for one batch: r1, r2 are [N, d]; c is [N, d] or
    None when the complement tower is disabled."""

    r1: Tensor
    r2: Tensor
    c: Tensor | None = None

    def __post_init__(self):
        if len(self.r1.shape) != 2 or self.r1.shape != self.r2.shape:
            raise ValueError(
                f"r1/r2 must be matching [N, d] matrices, got {self.r1.shape} and {self.r2.shape}"
            )
        if self.c is not None and self.c.shape != self.r1.shape:
            raise ValueError(
                f"complement shape {self.c.shape} != rationale shape {self.r1.shape}"
            )
        for name, t in (("r1", self.r1), ("r2", self.r2), ("c", self.c)):
            if t is None:
                continue
            norms = np.sqrt((t.values ** 2).sum(axis=1))
            # A dead relu layer ahead of the projection can emit an exactly
            # zero row; the normalizer passes those through, and they take
            # part in the loss with zero cosine against everything. Anything
            # between "zero" and "unit" means the caller skipped projection.
            bad = (np.abs(norms - 1.0) > UNIT_ROW_TOL) & (norms >= NORM_EPS)
            if np.any(bad):
                raise ValueError(
                    f"{name} rows must be unit-normalized (or exactly zero "
                    f"for degenerate projections)"
                )

    @property
    def num_anchors(self) -> int:
        return self.r1.shape[0]


def _query(views: BatchViews, n: int) -> Tensor:
    return ad.gather_rows(views.r1, np.array([n]))


def _positive(views: BatchViews, n: int) -> Tensor:
    """r1_n . r2_n as a [1, 1] tensor."""
    key = ad.gather_rows(views.r2, np.array([n]))
    return ad.matmul(_query(views, n), ad.transpose(key))


def other_rationales(views: BatchViews, n: int) -> Tensor:
    """The 2(N-1) negative rows for anchor n: r1_i and r2_i for all i != n."""
    idx = np.array([i for i in range(views.num_anchors) if i != n])
    return ad.concat_rows(
        [ad.gather_rows(views.r1, idx), ad.gather_rows(views.r2, idx)]
    )


def sufficiency_loss(views: BatchViews, n: int, tau: float) -> Tensor:
    """Scalar loss for anchor n; requires at least two anchors."""
    _check_anchor(views, n, tau)
    if views.num_anchors < 2:
        raise ValueError("sufficiency loss needs N >= 2 anchors")
    pos = ad.sum_all(_positive(views, n))
    negs = ad.matmul(other_rationales(views, n), ad.transpose(_query(views, n)))
    return ad.sub(ad.logsumexp(ad.scale(negs, 1.0 / tau)), ad.scale(pos, 1.0 / tau))


def independence_logits(views: BatchViews, n: int, tau: float) -> Tensor:
    """The N+1 denominator terms for anchor n: the positive plus every
    complement similarity, already divided by tau. Shape [N+1, 1]."""
    if views.c is None:
        raise ValueError("independence loss requires complement views")
    sims = ad.matmul(views.c, ad.transpose(_query(views, n)))
    return ad.scale(ad.concat_rows([_positive(views, n), sims]), 1.0 / tau)


def independence_loss(views: BatchViews, n: int, tau: float) -> Tensor:
    """Scalar loss for anchor n; defined for N >= 1."""
    _check_anchor(views, n, tau)
    pos = ad.sum_all(_positive(views, n))
    return ad.sub(
        ad.logsumexp(independence_logits(views, n, tau)), ad.scale(pos, 1.0 / tau)
    )


def _check_anchor(views: BatchViews, n: int, tau: float) -> None:
    if not 0 <= n < views.num_anchors:
        raise ValueError(f"anchor {n} out of range for {views.num_anchors}")
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")


@dataclass(frozen=True)
class LossReport:
    """Batch-mean loss components; total = mean(suff + lam * indep)."""

    l_su: float
    l_in: float
    total: float

    def metrics_line(self, step: int) -> dict:
        return {"step": step, "l_su": self.l_su, "l_in": self.l_in, "total": self.total}


def rgcl_loss(views: BatchViews, tau: float, lam: float) -> tuple[Tensor, LossReport]:
    """Differentiable batch loss plus a float report, in matrix form.

    One similarity matrix S = r1 @ [r1; r2; c]^T / tau, [N, 3N] (or [N, 2N]
    without complements), holds every logit. Row n's positive is S[n, N+n];
    sufficiency takes a log-sum-exp over the r1 and r2 blocks minus columns n
    and N+n, independence over column N+n and the c block. The value equals
    ``sufficiency_loss`` and ``independence_loss`` summed per anchor, which
    stay as the reference.

    With complement views present, every anchor contributes
    suff_n + lam * indep_n (the lam = 0 case still builds the independence
    term so its value is reported, but it is scaled to zero and contributes
    no gradient). Without complements, the total is the mean sufficiency
    loss and the independence component is reported as 0.
    """
    if tau <= 0:
        raise ValueError(f"temperature must be positive, got {tau}")
    if lam < 0:
        raise ValueError(f"independence weight must be >= 0, got {lam}")
    n = views.num_anchors
    if n < 2:
        raise ValueError("sufficiency loss needs N >= 2 anchors")
    keys = [views.r1, views.r2] + ([] if views.c is None else [views.c])
    sims = ad.scale(
        ad.matmul(views.r1, ad.transpose(ad.concat_rows(keys))), 1.0 / tau
    )
    rows = np.arange(n)
    positive = np.zeros(sims.shape, dtype=bool)
    positive[rows, n + rows] = True
    pos = ad.masked_row_sum(sims, positive)

    su_mask = np.zeros(sims.shape, dtype=bool)
    su_mask[:, : 2 * n] = True
    su_mask[rows, rows] = False
    su_mask[rows, n + rows] = False
    su = ad.sub(ad.logsumexp_rows(sims, su_mask), pos)
    per_anchor = su
    ind = None
    if views.c is not None:
        in_mask = positive.copy()
        in_mask[:, 2 * n :] = True
        ind = ad.sub(ad.logsumexp_rows(sims, in_mask), pos)
        per_anchor = ad.add(su, ad.scale(ind, lam))
    total = ad.scale(ad.sum_all(per_anchor), 1.0 / n)
    report = LossReport(
        l_su=float(su.values.mean()),
        l_in=0.0 if ind is None else float(ind.values.mean()),
        total=total.item(),
    )
    return total, report
