"""Independent brute-force oracles used by the tests.

These deliberately re-derive every quantity with explicit Python loops and
never import package internals beyond numpy, so they stay independent of the
code paths they check. The exceptions are references that a faster package
path must reproduce bit for bit:

- ``greedy_decode_reference`` drives the package's uncached ``decode`` on
  the whole prefix at every step.
- ``linear_reference`` and ``attention_reference`` compose the generic tape
  ops that the fused ``numerics.linear`` and ``numerics.multi_head_attention``
  replace. Those ops (``matmul``, ``masked_softmax``, ``reshape``,
  ``transpose``, ``tsum`` and Tensor-by-Tensor ``mul``) live here, not in
  the package, because no model path runs them. They are built on the
  package's ``_result`` and ``_accumulate``, so their tape behaves like the
  package's own, and the tests also use them to build grad-check objectives.
- ``layer_norm_reference`` is layer norm with ``np.mean`` and ``np.var``.
- ``encode_reference`` is the encoder on the padded (B, t) layout, PAD rows
  included, that the packed ``model.encode`` replaces.
- ``build_vocab_reference`` is the per-sentence counting loop that the
  one-pass ``data.build_vocab`` replaces.

Two helpers that only tests need also live here: ``make_identity_corpus``,
the seeded copy-task corpus (target equals source), and ``params_equal``,
which compares two ``model.ParamGroup``s bit for bit.
"""

import collections
import math

import numpy as np

from ce_nmt import model as M
from ce_nmt import numerics as N
from ce_nmt.data import BOS, EOS, PAD, RESERVED_TOKENS, ParallelCorpus, SentencePair, Vocabulary
from ce_nmt.errors import ShapeError

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


def cross_correlation_oracle(zs: np.ndarray, zt: np.ndarray, eps: float = CORR_EPS) -> np.ndarray:
    """Correlation of the batch-normalized projections, per explicit loops."""
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


def barlow_oracle(zs: np.ndarray, zt: np.ndarray, lam: float, eps: float = CORR_EPS):
    """Returns (total, invariance, redundancy) per explicit double loops."""
    C = cross_correlation_oracle(zs, zt, eps=eps)
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


# -- generic tape ops ----------------------------------------------------------


def mul(a, b):
    """``a * b`` of two Tensors, with numpy broadcasting."""
    av, bv = a.values, b.values
    na, nb = a._node, b._node

    def backward(g):
        N._accumulate(na, N._unbroadcast(g * bv, na.shape))
        N._accumulate(nb, N._unbroadcast(g * av, nb.shape))

    return N._result(av * bv, (na, nb), backward)


def reshape(a, shape):
    na = a._node

    def backward(g):
        N._accumulate(na, g.reshape(na.shape))

    return N._result(a.values.reshape(shape), (na,), backward)


def transpose(a, axes=None):
    axes = tuple(reversed(range(a.values.ndim))) if axes is None else tuple(axes)
    inverse = tuple(np.argsort(axes))
    na = a._node

    def backward(g):
        N._accumulate(na, np.transpose(g, inverse))

    return N._result(np.transpose(a.values, axes), (na,), backward)


def tsum(a, axis=None, keepdims=False):
    na = a._node

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        N._accumulate(na, np.broadcast_to(g, na.shape).copy())

    return N._result(a.values.sum(axis=axis, keepdims=keepdims), (na,), backward)


def matmul(a, b):
    """Matrix product of 2-D Tensors, or batched product of 3-D Tensors."""
    av, bv = a.values, b.values
    if av.ndim != bv.ndim or av.ndim not in (2, 3):
        raise ShapeError(f"matmul expects two 2-D or two 3-D tensors, got {a.shape} and {b.shape}")
    if av.shape[-1] != bv.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    if av.ndim == 3 and av.shape[0] != bv.shape[0]:
        raise ShapeError(f"matmul batch dimensions disagree: {a.shape} x {b.shape}")
    na, nb = a._node, b._node

    def backward(g):
        N._accumulate(na, g @ bv.swapaxes(-1, -2))
        N._accumulate(nb, av.swapaxes(-1, -2) @ g)

    return N._result(av @ bv, (na, nb), backward)


def masked_softmax(a, mask, axis=-1):
    """Softmax where positions with ``mask == False`` get exactly zero
    weight, by the softmax helpers that attention runs."""
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), a.shape)
    out_values = N._softmax_values(a.values, mask, axis)
    na = a._node

    def backward(g):
        N._accumulate(na, N._softmax_grad(out_values, g, axis))

    return N._result(out_values, (na,), backward)


def linear_reference(x, w, b=None):
    """``x @ w + b`` as a chain of generic tape ops: reshape, matmul, add, reshape."""
    lead = x.shape[:-1]
    flat = reshape(x, (-1, x.shape[-1])) if len(x.shape) != 2 else x
    out = matmul(flat, w)
    if b is not None:
        out = out + b
    if len(lead) != 1:
        out = reshape(out, (*lead, w.shape[1]))
    return out


def attention_reference(q, k, v, mask, num_heads, capture=None):
    """Multi-head attention as a chain of generic tape ops: split heads,
    scores, scale, masked softmax, weighted sum, merge heads."""
    B, tq, h = q.shape
    tk = k.shape[1]
    hd = h // num_heads

    def split(x, t):
        heads = transpose(reshape(x, (B, t, num_heads, hd)), (0, 2, 1, 3))
        return reshape(heads, (B * num_heads, t, hd))

    q3, k3, v3 = split(q, tq), split(k, tk), split(v, tk)
    scores = matmul(q3, transpose(k3, (0, 2, 1))) * (1.0 / math.sqrt(hd))
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim == 2:
        mask = mask[:, None, :]
    full = np.broadcast_to(mask[:, None, :, :], (B, num_heads, tq, tk)).reshape(B * num_heads, tq, tk)
    weights = masked_softmax(scores, full, axis=-1)
    if capture is not None:
        capture.append(weights.values.reshape(B, num_heads, tq, tk).copy())
    merged = transpose(reshape(matmul(weights, v3), (B, num_heads, tq, hd)), (0, 2, 1, 3))
    return reshape(merged, (B, tq, h))


def layer_norm_reference(x, gain, bias, g, eps=1e-5):
    """Layer norm over the last axis with ``np.mean`` / ``np.var``, and its
    gradients for the upstream gradient ``g``: (out, d_x, d_gain, d_bias)."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    out = xhat * gain + bias
    gx = g * gain
    term = gx - gx.mean(axis=-1, keepdims=True) \
        - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
    lead = tuple(range(g.ndim - 1))
    return out, term * inv, (g * xhat).sum(axis=lead), g.sum(axis=lead)


def encode_reference(src_ids, src_mask, params, cfg, rng=None, capture=None):
    """The encoder computed on the padded (B, t, dim) layout: every position,
    PAD included, runs through the embedding, layer norms and feed-forward,
    and only attention masking and pooling keep PAD out of valid rows."""
    src_ids = np.asarray(src_ids)
    src_mask = np.asarray(src_mask, dtype=bool)
    emb = N.embedding_lookup(params["embed"], src_ids)
    x = N.linear(emb, params["in_w"], params["in_b"]) * math.sqrt(cfg.dim)
    x = x + M.sinusoidal_positions(src_ids.shape[1], cfg.dim, dtype=x.dtype)[None, :, :]
    x = M._dropout(x, cfg.dropout, rng)
    for i in range(cfg.depth):
        y = M._ln(x, params, f"layer{i}.ln1")
        attn_out = M._mha_layer(y, M._keys_values(y, params, f"layer{i}.attn"), params,
                                f"layer{i}.attn", src_mask, cfg, capture)
        x = x + M._dropout(attn_out, cfg.dropout, rng)
        ff_out = M._ff(M._ln(x, params, f"layer{i}.ln2"), params, f"layer{i}.ff")
        x = x + M._dropout(ff_out, cfg.dropout, rng)
    return M.LatentSequence(M._ln(x, params, "final_ln"), src_mask)


def build_vocab_reference(sentences, min_freq: int = 1, max_size: int = 50_000) -> Vocabulary:
    """``data.build_vocab`` as one ``Counter.update`` per sentence."""
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")
    if max_size <= 4:
        raise ValueError(f"max_size must exceed the 4 reserved entries, got {max_size}")
    counts: collections.Counter = collections.Counter()
    for sent in sentences:
        counts.update(t for t in sent if t not in RESERVED_TOKENS)
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_freq),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary(kept[: max_size - len(RESERVED_TOKENS)])


def make_identity_corpus(n_pairs, vocab_size=30, min_len=2, max_len=8, seed=0):
    """Copy task: target equals source; the easiest possible translation."""
    rng = np.random.default_rng(seed)
    words = [f"w{w:02d}" for w in range(vocab_size)]
    pairs = []
    for _ in range(n_pairs):
        length = int(rng.integers(min_len, max_len + 1))
        tokens = tuple(map(words.__getitem__, rng.integers(0, vocab_size, size=length).tolist()))
        pairs.append(SentencePair(tokens, tokens))
    return ParallelCorpus(pairs)


def params_equal(a, b):
    """True when two ``ParamGroup``s hold the same names with bitwise-equal values."""
    if a.tensors.keys() != b.tensors.keys():
        return False
    return all(np.array_equal(t.values, b.tensors[k].values) for k, t in a.tensors.items())
