"""Training objectives: translation cross-entropy and the Barlow Twins loss.

Each is one fused op of the numeric core: ``translation_loss`` is
``numerics.nll`` and ``barlow_twins_loss`` is ``numerics.barlow_twins`` on
the two projection batches, each first standardized column-wise with
``batch_norm_train`` as in Barlow Twins, giving zs and zt:

    C[i, j] = sum_b zs[b, i] * zt[b, j]
              / (sqrt(sum_b zs[b, i]^2) * sqrt(sum_b zt[b, j]^2))

    loss = sum_i (1 - C[i, i])^2  +  lambda * sum_i sum_{j != i} C[i, j]^2

Mean-centering is what matters; after it the correlation's own normalization
reduces to division by B. ``cross_correlation`` computes C the same way,
with no tape, for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics as N
from .errors import NumericError, ShapeError
from .model import check_bounds
from .numerics import Tensor

CORRELATION_TOLERANCE = 1e-6
DENOM_EPS = 1e-9


@dataclass
class CrossCorrelation:
    """Empirical d x d cross-correlation; entries lie in [-1, 1] up to tolerance."""

    values: np.ndarray

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
    loss: Tensor = field(repr=False, default=None)
    correlation: CrossCorrelation = field(repr=False, default=None)


def translation_loss(logits: Tensor, target_ids: np.ndarray,
                     target_mask: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of gold tokens over unmasked positions.

    ``logits[b, j]`` scores the token that should appear at ``target_ids[b, j]``;
    the caller supplies the usual one-step shift (decoder fed positions < j).
    """
    return N.nll(logits, target_ids, target_mask)


def cross_correlation(z_s: Tensor, z_t: Tensor, eps: float = DENOM_EPS) -> CrossCorrelation:
    """Empirical cross-correlation of two batch-normalized projection batches,
    computed as ``barlow_twins_loss`` computes it, with no tape.

    ``eps`` guards dead columns inside the denominator roots; with
    ``eps=0.0`` a zero-norm column raises ``NumericError``.
    """
    with N.no_grad():
        _, c, _, _ = N.barlow_twins(N.batch_norm_train(z_s), N.batch_norm_train(z_t), 0.0, eps)
    return CrossCorrelation(values=c)


def barlow_twins_loss(z_s: Tensor, z_t: Tensor, lam: float,
                      eps: float = DENOM_EPS) -> CELossBreakdown:
    """Invariance plus lambda-weighted redundancy, differentiable end to end.

    ``lam`` must meet ``model.BOUNDS["lam"]`` (else ``ConfigError``): finite
    and >= 0, zero being a diagnostic edge where the redundancy term cannot
    influence gradients.
    """
    check_bounds("lam", lam)
    loss, c, invariance, redundancy = N.barlow_twins(N.batch_norm_train(z_s),
                                                     N.batch_norm_train(z_t), lam, eps)
    return CELossBreakdown(
        total=loss.item(),
        invariance_term=invariance,
        redundancy_term=redundancy,
        loss=loss,
        correlation=CrossCorrelation(values=c),
    )
