"""Training objectives: translation cross-entropy and the Barlow Twins loss.

The Barlow Twins loss is computed on a d x d cross-correlation matrix between
two batches of projections. As in Barlow Twins, each batch is always
standardized column-wise with ``batch_norm_train`` first, giving zs and zt:

    C[i, j] = sum_b zs[b, i] * zt[b, j]
              / (sqrt(sum_b zs[b, i]^2) * sqrt(sum_b zt[b, j]^2))

    loss = sum_i (1 - C[i, i])^2  +  lambda * sum_i sum_{j != i} C[i, j]^2

Mean-centering is what matters; after it the correlation's own normalization
reduces to division by B.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics as N
from .errors import DegenerateInputError, NumericError, ShapeError
from .numerics import Tensor

CORRELATION_TOLERANCE = 1e-6
DENOM_EPS = 1e-9


@dataclass
class CrossCorrelation:
    """Empirical d x d cross-correlation; entries lie in [-1, 1] up to tolerance."""

    values: np.ndarray
    tensor: Tensor = field(repr=False, default=None)

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ShapeError(f"cross-correlation must be square, got {v.shape}")
        if np.abs(v).max() > 1.0 + CORRELATION_TOLERANCE:
            raise NumericError(
                f"cross-correlation entry out of [-1, 1]: max |C| = {np.abs(v).max()}"
            )


@dataclass
class CELossBreakdown:
    """Barlow Twins loss split into its two terms; ``loss`` carries the graph."""

    total: float
    invariance_term: float
    redundancy_term: float
    lam: float
    loss: Tensor = field(repr=False, default=None)
    correlation: CrossCorrelation = field(repr=False, default=None)


def translation_loss(logits: Tensor, target_ids: np.ndarray,
                     target_mask: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of gold tokens over unmasked positions.

    ``logits[b, j]`` scores the token that should appear at ``target_ids[b, j]``;
    the caller supplies the usual one-step shift (decoder fed positions < j).
    """
    target_ids = np.asarray(target_ids)
    target_mask = np.asarray(target_mask, dtype=bool)
    if logits.shape[:2] != target_ids.shape or target_ids.shape != target_mask.shape:
        raise ShapeError(
            f"logits {logits.shape} vs targets {target_ids.shape} vs mask {target_mask.shape}"
        )
    count = int(target_mask.sum())
    if count == 0:
        raise DegenerateInputError("translation loss: every target position is masked")
    logp = N.log_softmax(logits, axis=-1)
    picked = N.take_along_last(logp, target_ids)
    masked = picked * target_mask.astype(logits.dtype)
    return -(masked.sum() * (1.0 / count))


def _correlation_tensor(z_s: Tensor, z_t: Tensor, eps: float) -> Tensor:
    if z_s.shape != z_t.shape or len(z_s.shape) != 2:
        raise ShapeError(f"projection batches must share a (B, d) shape: {z_s.shape} vs {z_t.shape}")
    z_s = N.batch_norm_train(z_s)
    z_t = N.batch_norm_train(z_t)
    ss = (z_s * z_s).sum(axis=0)
    tt = (z_t * z_t).sum(axis=0)
    if eps == 0.0 and (np.minimum(ss.values, tt.values) == 0.0).any():
        raise NumericError("cross-correlation: zero-norm column with eps disabled")
    d = z_s.shape[1]
    ns = N.sqrt(ss + eps).reshape(d, 1)
    nt = N.sqrt(tt + eps).reshape(1, d)
    return N.matmul(z_s.transpose(), z_t) / (ns * nt)


def cross_correlation(z_s: Tensor, z_t: Tensor, eps: float = DENOM_EPS) -> CrossCorrelation:
    """Empirical cross-correlation of two batch-normalized projection batches.

    ``eps`` guards dead columns inside the denominator roots; with
    ``eps=0.0`` a zero-norm column raises ``NumericError``.
    """
    c = _correlation_tensor(z_s, z_t, eps)
    return CrossCorrelation(values=c.values.copy(), tensor=c)


def barlow_twins_loss(z_s: Tensor, z_t: Tensor, lam: float,
                      eps: float = DENOM_EPS) -> CELossBreakdown:
    """Invariance plus lambda-weighted redundancy, differentiable end to end.

    ``lam`` must be positive in training; zero is accepted as a diagnostic
    edge where the redundancy term cannot influence gradients.
    """
    if lam < 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    corr = cross_correlation(z_s, z_t, eps=eps)
    c = corr.tensor
    diag = N.diagonal(c)
    invariance = ((1.0 - diag) * (1.0 - diag)).sum()
    redundancy = (c * c).sum() - (diag * diag).sum()
    total = invariance + lam * redundancy
    return CELossBreakdown(
        total=total.item(),
        invariance_term=invariance.item(),
        redundancy_term=redundancy.item(),
        lam=lam,
        loss=total,
        correlation=corr,
    )
