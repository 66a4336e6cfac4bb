"""Independent brute-force oracles used by the tests.

These deliberately re-derive every quantity with explicit Python loops and
never import package internals beyond numpy, so they stay independent of the
code paths they check. ``greedy_decode_reference`` is the one exception: it
drives the package's uncached ``decode`` on the whole prefix at every step,
the plain greedy loop that incremental decoding must reproduce.
"""

import math

import numpy as np

from ce_nmt import model as M
from ce_nmt.data import BOS, EOS, PAD

BN_EPS = 1e-5
CORR_EPS = 1e-9


def bn_oracle(z: np.ndarray, eps: float = BN_EPS) -> np.ndarray:
    out = np.empty_like(np.asarray(z, dtype=np.float64))
    z = np.asarray(z, dtype=np.float64)
    B, d = z.shape
    for j in range(d):
        mu = sum(z[b, j] for b in range(B)) / B
        var = sum((z[b, j] - mu) ** 2 for b in range(B)) / B
        for b in range(B):
            out[b, j] = (z[b, j] - mu) / math.sqrt(var + eps)
    return out


def cross_correlation_oracle(zs: np.ndarray, zt: np.ndarray,
                             apply_bn: bool = True, eps: float = CORR_EPS) -> np.ndarray:
    zs = np.asarray(zs, dtype=np.float64)
    zt = np.asarray(zt, dtype=np.float64)
    if apply_bn:
        zs, zt = bn_oracle(zs), bn_oracle(zt)
    B, d = zs.shape
    C = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            num = sum(zs[b, i] * zt[b, j] for b in range(B))
            den_s = math.sqrt(sum(zs[b, i] ** 2 for b in range(B)) + eps)
            den_t = math.sqrt(sum(zt[b, j] ** 2 for b in range(B)) + eps)
            C[i, j] = num / (den_s * den_t)
    return C


def barlow_oracle(zs: np.ndarray, zt: np.ndarray, lam: float,
                  apply_bn: bool = True, eps: float = CORR_EPS):
    """Returns (total, invariance, redundancy) per explicit double loops."""
    C = cross_correlation_oracle(zs, zt, apply_bn=apply_bn, eps=eps)
    d = C.shape[0]
    invariance = sum((1.0 - C[i, i]) ** 2 for i in range(d))
    redundancy = sum(C[i, j] ** 2 for i in range(d) for j in range(d) if i != j)
    return invariance + lam * redundancy, invariance, redundancy


def nll_oracle(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray) -> float:
    """Per-token negative log-likelihood, averaged over unmasked positions."""
    logits = np.asarray(logits, dtype=np.float64)
    total, count = 0.0, 0
    B, t, V = logits.shape
    for b in range(B):
        for j in range(t):
            if not mask[b, j]:
                continue
            row = logits[b, j]
            probs = np.exp(row - row.max())
            probs = probs / probs.sum()
            total += -math.log(probs[targets[b, j]])
            count += 1
    return total / count


def greedy_decode_reference(encoder, decoder, cfg, src_ids, src_mask, max_len=None):
    """Greedy decoding that re-runs the decoder on the whole prefix per token."""
    max_len = max_len or cfg.max_len
    latent = M.encode(src_ids, src_mask, encoder, cfg)
    B = src_ids.shape[0]
    ys = np.full((B, 1), BOS, dtype=np.int64)
    done = np.zeros(B, dtype=bool)
    while ys.shape[1] < max_len and not done.all():
        logits = M.decode(latent, ys, ys != PAD, decoder, cfg)
        next_ids = logits.values[:, -1, :].argmax(axis=-1).astype(np.int64)
        next_ids[done] = PAD
        done |= next_ids == EOS
        ys = np.concatenate([ys, next_ids[:, None]], axis=1)
    outputs = []
    for row in ys:
        tokens = []
        for idx in row[1:]:
            if idx in (EOS, PAD):
                break
            tokens.append(int(idx))
        outputs.append(tokens)
    return outputs


def adam_step_reference(values, grads, m, v, step, lr, warmup,
                        beta1=0.9, beta2=0.98, eps=1e-9, clip_norm=1.0):
    """One Adam step written out with a new array per operation.

    ``values``, ``grads``, ``m`` and ``v`` are dicts of arrays keyed alike;
    none is modified. Returns the new (values, m, v) dicts.
    """
    sq_sum = 0.0
    for g in grads.values():
        sq_sum += float((g.astype(np.float64) ** 2).sum())
    norm = math.sqrt(sq_sum)
    scale = clip_norm / norm if norm > clip_norm else 1.0
    rate = lr * min(step / warmup, math.sqrt(warmup / step))
    bc1 = 1.0 - beta1 ** step
    bc2 = 1.0 - beta2 ** step
    new_values, new_m, new_v = {}, {}, {}
    for k, x in values.items():
        g = grads[k] * scale
        new_m[k] = beta1 * m[k] + (1.0 - beta1) * g
        new_v[k] = beta2 * v[k] + (1.0 - beta2) * g * g
        m_hat = new_m[k] / bc1
        v_hat = new_v[k] / bc2
        new_values[k] = x - (rate * m_hat / (np.sqrt(v_hat) + eps)).astype(x.dtype)
    return new_values, new_m, new_v
