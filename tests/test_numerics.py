import os
import signal
import sys
import threading
import zlib
from functools import partial

import numpy as np
import pytest

from _oracles import (
    attention_reference,
    batch_norm_reference,
    layer_norm_reference,
    linear_reference,
    masked_softmax,
    matmul,
    mul,
    reshape,
    transpose,
    tsum,
)
from ce_nmt import numerics as N
from ce_nmt.errors import (
    BatchTooSmallError,
    DegenerateInputError,
    NumericError,
    ShapeError,
)


def T(values, grad=True):
    return N.Tensor(np.asarray(values, dtype=np.float64), requires_grad=grad)


# -- matmul: the oracle copy that linear_reference and attention_reference run --

def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


def test_matmul_identity():
    a = T(np.eye(2))
    b = T([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(a, b).values, b.values)


def test_matmul_zero():
    a = T([[1.0, 0.0], [0.0, 1.0]])
    b = T([[0.0], [0.0]])
    assert np.array_equal(matmul(a, b).values, np.zeros((2, 1)))


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    got = matmul(T(a), T(b)).values
    assert np.max(np.abs(got - matmul_oracle(a, b))) < 1e-12


def test_matmul_shape_mismatch_reports_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(T(np.zeros((2, 3))), T(np.zeros((2, 3))))


# -- softmax: the softmax attention runs, with an all-true mask ------------------

def softmax(x, axis=-1):
    x = np.asarray(x, dtype=np.float64)
    return N._softmax_values(x, np.ones(x.shape, dtype=bool), axis)


def test_softmax_uniform():
    out = softmax([0.0, 0.0, 0.0, 0.0])
    assert np.max(np.abs(out - 0.25)) < 1e-15


def test_softmax_extreme_logits_stable():
    out = softmax([1000.0, 0.0])
    assert abs(out[0] - 1.0) < 1e-12
    assert abs(out[1]) < 1e-12


def test_softmax_matches_direct_formula():
    x = np.array([1.0, 2.0, 3.0])
    expected = np.exp(x) / np.exp(x).sum()
    assert np.max(np.abs(softmax(x) - expected)) < 1e-12


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 7)) * 10
    out = softmax(x, axis=-1)
    assert np.max(np.abs(out.sum(axis=-1) - 1.0)) < 1e-12
    shifted = softmax(x + 3.7, axis=-1)
    assert np.max(np.abs(out - shifted)) < 1e-12


# -- layer_norm ---------------------------------------------------------------

def test_layer_norm_constant_row_is_zero():
    out = N.layer_norm(T([[5.0, 5.0, 5.0]]), T(np.ones(3)), T(np.zeros(3))).values
    assert np.max(np.abs(out)) == 0.0


def test_layer_norm_already_normalized_row():
    out = N.layer_norm(T([[1.0, -1.0]]), T(np.ones(2)), T(np.zeros(2))).values
    assert np.max(np.abs(out - np.array([[1.0, -1.0]]) / np.sqrt(1.0 + N.NORM_EPS))) < 1e-12


def test_layer_norm_matches_direct_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 9))
    gain = rng.normal(size=9)
    bias = rng.normal(size=9)
    expected = (x - x.mean()) / np.sqrt(x.var() + N.NORM_EPS) * gain + bias
    got = N.layer_norm(T(x), T(gain), T(bias)).values
    assert np.max(np.abs(got - expected)) < 1e-10


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_layer_norm_matches_mean_var_formula_bitwise(dtype):
    rng = np.random.default_rng(6)
    x = (rng.normal(size=(3, 5, 7)) * 3.0 + 1.5).astype(dtype)
    gain, bias = rng.normal(size=7).astype(dtype), rng.normal(size=7).astype(dtype)
    upstream = rng.normal(size=(3, 5, 7)).astype(dtype)
    leaves = [N.Tensor(a.copy(), requires_grad=True) for a in (x, gain, bias)]
    out = N.layer_norm(*leaves)
    tsum(out * upstream).backward()
    got = [out.values] + [t.grad for t in leaves]
    for g, want in zip(got, layer_norm_reference(x, gain, bias, upstream)):
        assert g.dtype == dtype and g.tobytes() == want.astype(dtype).tobytes()


# -- fused linear and attention against their primitive-op chains ----------------

FUSED = {"linear": N.linear, "attention": N.multi_head_attention}
REFERENCE = {"linear": linear_reference}     # attention: ``attention_reference`` with a capture list


def _fused_and_reference(forward, arrays):
    """Run ``forward(ops, *leaves)`` with the fused ops and with the reference
    chains; per side, the bytes of the output, of every attention map and of
    every leaf's gradient after one weighted-sum backward. The fused side's
    maps are those ``N.attention_maps()`` records; the reference chain
    records none there and hands its own to its ``capture`` list."""
    sides = []
    for fused in (True, False):
        captured: list = []
        ops = FUSED if fused else {**REFERENCE, "attention": partial(attention_reference,
                                                                     capture=captured)}
        leaves = [N.Tensor(a.copy(), requires_grad=True) for a in arrays]
        with N.attention_maps() as recorded:
            out = forward(ops, *leaves)
        maps = recorded if fused else captured
        assert fused or recorded == []
        weight = np.random.default_rng(99).normal(size=out.shape)
        tsum(out * weight).backward()
        assert all(t.grad is not None for t in leaves)
        sides.append([out.values.tobytes()] + [m.tobytes() for m in maps]
                     + [t.grad.tobytes() for t in leaves])
    return sides


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(5, 6), (2, 4, 6)])
@pytest.mark.parametrize("bias", [True, False])
def test_linear_matches_reference_bitwise(dtype, shape, bias):
    rng = np.random.default_rng(len(shape) * 10 + bias)
    arrays = [rng.normal(size=shape), rng.normal(size=(6, 3)), rng.normal(size=(3, 4)),
              rng.normal(size=(6, 4))] + ([rng.normal(size=3)] if bias else [])

    def forward(ops, x, w1, w2, w3, *b1):
        hidden = ops["linear"](x, w1, *b1)
        return ops["linear"](hidden, w2) + ops["linear"](x, w3)   # x fans in twice

    fused, reference = _fused_and_reference(forward, [a.astype(dtype) for a in arrays])
    assert fused == reference


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("pattern", ["padding", "causal", "cross"])
def test_attention_matches_reference_bitwise(dtype, heads, pattern):
    rng = np.random.default_rng(heads * 7 + len(pattern))
    B, tq, h = 3, 5, 8
    tk = 7 if pattern == "cross" else tq
    lengths = np.array([tk, tk - 2, 1])
    mask = np.arange(tk)[None, :] < lengths[:, None]                 # (B, tk) key padding
    if pattern == "causal":
        mask = np.tril(np.ones((tq, tk), dtype=bool))[None] & mask[:, None, :]
    arrays = [rng.normal(size=(B, tq, h)), rng.normal(size=(B, tk, h))] \
        + [rng.normal(size=(h, h)) for _ in range(4)]

    def forward(ops, y, src, wq, wk, wv, wo):
        # Self-attention reads y three times, so y's gradient sums the q, k
        # and v contributions in tape order; the src term gives src a use.
        kv_in = src if pattern == "cross" else y
        q = ops["linear"](y, wq)
        k, v = ops["linear"](kv_in, wk), ops["linear"](kv_in, wv)
        out = ops["linear"](ops["attention"](q, k, v, mask, heads), wo)
        return out if pattern == "cross" else out + tsum(src, axis=1, keepdims=True)

    fused, reference = _fused_and_reference(forward, [a.astype(dtype) for a in arrays])
    assert len(fused) == 1 + 1 + len(arrays)
    assert fused == reference


def test_attention_checks_raw_scores_under_the_mask():
    # The second key overflows its score to inf but is masked, so softmax
    # would hide it; the raw scores are checked, as the scores Tensor of the
    # primitive chain was.
    big = 1e200
    q = T(np.full((1, 1, 2), big))
    k = T(np.array([[[0.0, 0.0], [big, big]]]))
    v = T(np.zeros((1, 2, 2)))
    mask = np.array([[True, False]])
    for attend in (N.multi_head_attention, attention_reference):
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            attend(q, k, v, mask, 1)
        with N.no_grad(), np.errstate(over="ignore"), pytest.raises(NumericError):
            attend(q, k, v, mask, 1)
    finite = T(np.array([[[0.0, 0.0], [1.0, 1.0]]]))
    assert np.array_equal(N.multi_head_attention(q, finite, v, mask, 1).values, np.zeros((1, 1, 2)))


def test_row_layout_packs_valid_rows_in_row_major_order():
    mask = np.array([[True, False, True], [False, False, False], [True, True, False]])
    rows = N.RowLayout(mask)
    assert rows.shape == (3, 3) and rows.n == 4
    assert rows.index.tolist() == [0, 2, 6, 7]
    x = T(np.arange(8.0).reshape(4, 2))
    padded = N.scatter_rows(x, rows)
    assert padded.shape == (3, 3, 2)
    assert np.array_equal(padded.values[mask], x.values)
    assert np.all(padded.values[~mask] == 0.0)
    assert np.array_equal(N.gather_rows(padded, rows).values, x.values)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("bias", [True, False])
def test_packed_linear_matches_padded_bitwise(dtype, bias):
    # Widths are multiples of 8: there a GEMM over a subset of rows gives
    # the bits of those rows of the full product. The padded side sees
    # arbitrary values at PAD rows but a zero gradient there, as the encoder
    # does; its weight and bias gradients must match the packed side's. At
    # these sizes (the benchmark's batch) a weight gradient reduced over the
    # packed rows alone would differ in its last bits.
    rng = np.random.default_rng(5 + bias)
    mask = rng.random((64, 12)) < 0.7
    rows = N.RowLayout(mask)
    arrays = [rng.normal(size=(64, 12, 64)), rng.normal(size=(64, 64)), rng.normal(size=64)]
    upstream = rng.normal(size=(64, 12, 64))
    sides = []
    for packed in (True, False):
        x, w, b = [T(a.astype(dtype)) for a in arrays]
        if packed:
            x_in = N.gather_rows(x, rows)
            out = N.scatter_rows(N.linear(x_in, w, b if bias else None, rows), rows)
        else:
            out = N.linear(x, w, b if bias else None)
        tsum(out * (upstream * mask[..., None])).backward()
        sides.append((out.values[mask], x.grad[mask], w.grad) + ((b.grad,) if bias else ()))
    for got, want in zip(*sides):
        assert got.tobytes() == want.tobytes()


def test_fused_ops_reject_bad_shapes():
    with pytest.raises(ShapeError):
        N.linear(T(np.zeros((2, 3))), T(np.zeros((4, 2))))
    with pytest.raises(ShapeError):
        N.multi_head_attention(T(np.zeros((1, 2, 4))), T(np.zeros((1, 3, 4))),
                               T(np.zeros((1, 2, 4))), np.ones((1, 3), dtype=bool), 2)
    with pytest.raises(ShapeError):
        N.multi_head_attention(T(np.zeros((1, 2, 4))), T(np.zeros((1, 3, 4))),
                               T(np.zeros((1, 3, 4))), np.ones((1, 3), dtype=bool), 3)
    rows = N.RowLayout(np.array([[True, True, False]]))
    with pytest.raises(ShapeError):
        N.linear(T(np.zeros((3, 2))), T(np.zeros((2, 2))), rows=rows)
    with pytest.raises(ShapeError):
        N.scatter_rows(T(np.zeros((3, 2))), rows)
    with pytest.raises(ShapeError):
        N.gather_rows(T(np.zeros((1, 2, 2))), rows)
    with pytest.raises(ShapeError):
        N.RowLayout(np.ones(3, dtype=bool))


# -- batch_norm_train -----------------------------------------------------------

def test_batch_norm_already_standardized():
    out = N.batch_norm_train(T([[1.0], [-1.0]])).values
    assert np.max(np.abs(out - np.array([[1.0], [-1.0]]) / np.sqrt(1.0 + N.NORM_EPS))) < 1e-12


def test_batch_norm_constant_column_zeroed():
    out = N.batch_norm_train(T([[5.0], [5.0], [5.0]])).values
    assert np.array_equal(out, np.zeros((3, 1)))


def test_batch_norm_output_statistics():
    rng = np.random.default_rng(3)
    x = rng.normal(loc=3.0, scale=2.5, size=(4, 3))
    out = N.batch_norm_train(T(x)).values
    assert np.max(np.abs(out.mean(axis=0))) < 1e-10
    var = x.var(axis=0)
    assert np.max(np.abs(out.var(axis=0) - var / (var + N.NORM_EPS))) < 1e-12


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_batch_norm_matches_mean_var_formula_bitwise(dtype):
    rng = np.random.default_rng(7)
    for B, d in [(2, 1), (3, 5), (17, 8), (64, 32), (129, 69)]:
        x = (rng.normal(size=(B, d)) * 3.0 + 1.5).astype(dtype)
        upstream = rng.normal(size=(B, d)).astype(dtype)
        leaf = N.Tensor(x.copy(), requires_grad=True)
        out = N.batch_norm_train(leaf)
        tsum(out * upstream).backward()
        for got, want in zip((out.values, leaf.grad), batch_norm_reference(x, upstream)):
            assert got.dtype == dtype and got.tobytes() == want.astype(dtype).tobytes()


def test_batch_norm_rejects_single_row():
    with pytest.raises(BatchTooSmallError):
        N.batch_norm_train(T([[1.0, 2.0]]))


def test_batch_norm_column_means_centered_property():
    rng = np.random.default_rng(4)
    for trial in range(20):
        B = int(rng.integers(2, 9))
        d = int(rng.integers(1, 6))
        out = N.batch_norm_train(T(rng.normal(size=(B, d)) * 5 + 1)).values
        assert np.max(np.abs(out.mean(axis=0))) < 1e-10


# -- relu / embedding_lookup ------------------------------------------------------

def test_relu_basic():
    assert np.array_equal(N.relu(T([-1.0, 0.0, 2.0])).values, [0.0, 0.0, 2.0])


def test_embedding_lookup_first_row():
    table = T(np.arange(12.0).reshape(4, 3))
    out = N.embedding_lookup(table, np.array([0]))
    assert np.array_equal(out.values, [[0.0, 1.0, 2.0]])


def test_embedding_lookup_out_of_range():
    table = T(np.zeros((4, 3)))
    with pytest.raises(IndexError):
        N.embedding_lookup(table, np.array([4]))


def test_embedding_repeated_ids_gradients_sum():
    table = T(np.arange(6.0).reshape(3, 2))
    out = N.embedding_lookup(table, np.array([1, 1]))
    weights = np.array([[1.0, 2.0], [10.0, 20.0]])
    loss = tsum(out * weights)
    loss.backward()
    assert np.array_equal(table.grad[1], weights.sum(axis=0))
    assert np.array_equal(table.grad[0], [0.0, 0.0])
    err = N.grad_check(
        lambda t: tsum(N.embedding_lookup(t, np.array([1, 1])) * weights),
        [T(np.arange(6.0).reshape(3, 2))],
    )
    assert err < 1e-8


def test_embedding_scatter_order_over_two_lookups():
    # Backward reaches the lookups in call order; the gradient must be the
    # one scatter over both id sets in that order, bit for bit. Summing one
    # buffer per lookup afterwards rounds differently.
    rng = np.random.default_rng(5)
    table = T(rng.normal(size=(4, 3)))
    ids = [rng.integers(0, 4, size=(6, 5)), rng.integers(0, 4, size=(7, 5))]
    weights = [rng.normal(size=(6, 5, 3)), rng.normal(size=(7, 5, 3))]
    loss = tsum(N.embedding_lookup(table, ids[0]) * weights[0]) \
        + tsum(N.embedding_lookup(table, ids[1]) * weights[1])
    loss.backward()
    expected = np.zeros((4, 3))
    np.add.at(expected, np.concatenate([i.reshape(-1) for i in ids]),
              np.concatenate([w.reshape(-1, 3) for w in weights]))
    assert table.grad.tobytes() == expected.tobytes()


# -- gradient ownership ---------------------------------------------------------------

def _tape(loss):
    """Every node on ``loss``'s tape, each once."""
    nodes, stack, seen = [], [loss._node], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node.parents)
    return nodes


def _record_handoffs(loss):
    """Wrap every backward function on ``loss``'s tape to keep each gradient
    it is handed, with a copy taken at hand-off."""
    handed = []

    def keep_copy(fn):
        def backward(g):
            handed.append((g, g.copy()))
            fn(g)
        return backward

    for node in _tape(loss):
        if node.backward_fn is not None:
            node.backward_fn = keep_copy(node.backward_fn)
    return handed


def test_gradients_are_never_written_in_place():
    from ce_nmt.training import AdamOptimizer

    rng = np.random.default_rng(2)
    x, w = T(rng.normal(size=(3, 4))), T(rng.normal(size=(4, 2)))
    table, ids = T(rng.normal(size=(5, 2))), np.array([0, 3, 0])

    def forward():
        y = matmul(x, w) + N.embedding_lookup(table, ids)
        z = y + y                      # add hands one array to both parents
        r = reshape(z, 6)              # reshape hands on a view
        return tsum(mul(r, r)) + tsum(mul(x, x))

    loss = forward()
    handed = _record_handoffs(loss)
    loss.backward()
    captured = [x.grad, w.grad, table.grad]
    snapshot = [g.copy() for g in captured]
    forward().backward()               # accumulates into the shared leaves
    for g, before in handed + list(zip(captured, snapshot)):
        assert g.tobytes() == before.tobytes()
    assert np.allclose(x.grad, 2.0 * snapshot[0], rtol=1e-14, atol=0.0)
    current = [x.grad, w.grad, table.grad]
    current_snapshot = [g.copy() for g in current]
    AdamOptimizer({"x": x, "w": w, "table": table}, lr=0.1, warmup=1).step()
    for g, before in handed + list(zip(captured + current, snapshot + current_snapshot)):
        assert g.tobytes() == before.tobytes()

    # A model step: encoder and decoder run the fused linear and attention
    # ops and layer norm. No backward function may write into the gradient it
    # is handed, and every array handed out and every leaf gradient must
    # survive a second backward into the same parameters and an optimizer
    # step.
    from ce_nmt import model as M
    from ce_nmt.losses import translation_loss

    cfg = M.ModelConfig(src_vocab=9, tgt_vocab=9, depth=1, dim=8, heads=2, ff_dim=16,
                        emb_dim=6, max_len=6)
    enc, dec = M.init_params(cfg, "encoder", rng), M.init_params(cfg, "decoder", rng)
    params = {f"{side}.{k}": t for side, group in (("enc", enc), ("dec", dec))
              for k, t in group.items()}
    src = np.array([[1, 4, 5, 2], [1, 6, 2, 0]])
    tgt = np.array([[1, 7, 8, 2], [1, 5, 2, 0]])

    def model_loss():
        latent = M.encode(src, src != 0, enc, cfg)
        logits = M.decode(latent, tgt[:, :-1], tgt[:, :-1] != 0, dec, cfg)
        return translation_loss(logits, tgt[:, 1:], tgt[:, 1:] != 0)

    loss = model_loss()
    tape = _tape(loss)
    handed = _record_handoffs(loss)
    loss.backward()
    assert len(handed) == len(tape) - len(params)   # once to every non-leaf node
    captured = [t.grad for t in params.values()]
    assert all(g is not None for g in captured)
    snapshot = [g.copy() for g in captured]
    model_loss().backward()
    AdamOptimizer(params, lr=0.1, warmup=1).step()
    for g, before in handed + list(zip(captured, snapshot)):
        assert g.tobytes() == before.tobytes()


def test_fan_in_of_three_consumers_sums_gradients():
    x = T(np.array([[1.0, -2.0], [3.0, 0.5]]))
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[-5.0, 0.25], [2.0, 8.0]])
    s = x + x                          # two of the three uses share one array
    loss = tsum(s * a) + tsum(x * b)
    handed = []
    s_backward = s._node.backward_fn

    def keep(g):
        handed.append((g, g.copy()))
        s_backward(g)

    s._node.backward_fn = keep
    loss.backward()
    assert np.array_equal(x.grad, a + a + b)
    (g, at_handoff), = handed
    assert np.array_equal(at_handoff, a)
    assert g.tobytes() == at_handoff.tobytes()   # the shared array was not added into


# -- the tape keeps nodes, not Tensors --------------------------------------------------

def test_second_backward_adds_exactly_one_more_copy():
    # Each leaf has one consumer, so the second pass must add the first
    # pass's gradient to it once more, bit for bit: no stale gradient of an
    # intermediate may be summed in again.
    rng = np.random.default_rng(11)
    x, w = T(rng.normal(size=(4, 3))), T(rng.normal(size=(3, 5)))
    gain, bias = T(rng.normal(size=5)), T(rng.normal(size=5))
    y = N.layer_norm(N.linear(x, w), gain, bias)
    loss = tsum(mul(N.relu(y), y)) + N.nll(y, np.array([0, 4, 2, 2]), np.ones(4, dtype=bool)) \
        + tsum(y)
    loss.backward()
    first = [t.grad.copy() for t in (x, w, gain, bias)]
    loss.backward()
    for t, g in zip((x, w, gain, bias), first):
        assert t.grad.tobytes() == (2.0 * g).tobytes()


def test_second_backward_on_a_model_step_matches_two_graphs():
    # Leaves with several consumers sum in tape order, so twice the first
    # gradient is not exact there; two passes over one graph must still
    # give the bits of one pass over each of two freshly built graphs.
    from ce_nmt import model as M
    from ce_nmt.losses import translation_loss

    cfg = M.ModelConfig(src_vocab=9, tgt_vocab=9, depth=1, dim=8, heads=2, ff_dim=16,
                        emb_dim=6, max_len=6)
    rng = np.random.default_rng(4)
    enc, dec = M.init_params(cfg, "encoder", rng), M.init_params(cfg, "decoder", rng)
    params = [*enc.tensors.values(), *dec.tensors.values()]
    src = np.array([[1, 4, 5, 4, 2], [1, 6, 2, 0, 0]])
    tgt = np.array([[1, 7, 8, 7, 2], [1, 5, 2, 0, 0]])

    def model_loss():
        latent = M.encode(src, src != 0, enc, cfg)
        logits = M.decode(latent, tgt[:, :-1], tgt[:, :-1] != 0, dec, cfg)
        return translation_loss(logits, tgt[:, 1:], tgt[:, 1:] != 0)

    model_loss().backward()
    model_loss().backward()
    fresh = [p.grad for p in params]
    for p in params:
        p.grad = None
    loss = model_loss()
    loss.backward()
    loss.backward()
    for p, g in zip(params, fresh):
        assert p.grad.tobytes() == g.tobytes()


def test_backward_keeps_gradients_on_leaves_only():
    rng = np.random.default_rng(12)
    x, w = T(rng.normal(size=(3, 4))), T(rng.normal(size=(4, 2)))
    h = N.linear(x, w)
    r = N.relu(h)
    s = tsum(mul(r, h))
    loss = s + tsum(x * 3.0)
    loss.backward()
    for t in (h, r, s, loss):
        assert t.grad is None
    assert x.grad is not None and w.grad is not None
    assert all(node.grad is None for node in _tape(loss) if node.backward_fn is not None)


# -- weight-gradient products on the worker ---------------------------------------------
#
# ``linear`` runs each ``xᵀ·g`` on the worker thread and the tape adds it to the
# weight's gradient when that node is next touched. The expected gradients
# below are the explicit numpy products, summed in tape order.

def _square_chain(seed, between=None):
    """x (4, 4) through three linears that share one weight w (4, 4). With
    ``between="add"``, w itself is added to the first linear's output, so
    another op adds to w's gradient between two products; with
    ``"lookup"``, rows of w looked up by id are added there, and the lookup's
    scatter comes after the first linear's product. Returns the leaves, the
    loss and the expected gradients of w and x."""
    rng = np.random.default_rng(seed)
    xv, wv, c = rng.normal(size=(4, 4)), rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    ids = np.array([2, 0, 2, 1])
    x, w = T(xv), T(wv)
    h1 = N.linear(x, w)
    s = {None: h1, "add": N.add(h1, w), "lookup": N.add(h1, N.embedding_lookup(w, ids))}[between]
    h3 = N.linear(N.linear(s, w), w)
    loss = tsum(N.mul(h3, c))
    h1v = xv @ wv
    sv = {None: h1v, "add": h1v + wv, "lookup": h1v + wv[ids]}[between]
    h2v = sv @ wv
    g3 = c                                   # tsum, then the constant factor
    g2 = g3 @ wv.T
    g1 = g2 @ wv.T
    expected = h2v.T @ g3 + sv.T @ g2
    if between == "add":
        expected = expected + g1
    expected = expected + xv.T @ g1
    if between == "lookup":
        np.add.at(expected, ids, g1)
    return x, w, loss, expected, g1 @ wv.T


@pytest.mark.parametrize("between", [None, "add", "lookup"])
def test_shared_weight_products_sum_in_tape_order(between):
    x, w, loss, expected_w, expected_x = _square_chain(31, between)
    loss.backward()
    assert w.grad.tobytes() == expected_w.tobytes()
    assert x.grad.tobytes() == expected_x.tobytes()


def test_non_leaf_weight_backward_reads_the_summed_products():
    rng = np.random.default_rng(32)
    xv, vv, c = rng.normal(size=(3, 4)), rng.normal(size=(4, 4)), rng.normal(size=(3, 4))
    x, v = T(xv), T(vv)
    w = N.mul(v, 2.0)                        # a weight that is not a leaf
    loss = tsum(N.mul(N.linear(N.linear(x, w), w), c))
    loss.backward()
    wv = vv * 2.0
    g1 = c @ wv.T
    assert v.grad.tobytes() == (((xv @ wv).T @ c + xv.T @ g1) * 2.0).tobytes()
    assert w.grad is None


def test_backward_that_raises_leaves_nothing_pending():
    x, w, loss, _, _ = _square_chain(33)
    tape = _tape(loss)
    first = next(node for node in tape if node.backward_fn is not None
                 and node.parents[0] is x._node)   # the first linear

    def boom(g):
        raise RuntimeError("boom")

    first.backward_fn = boom
    with pytest.raises(RuntimeError, match="boom"):
        loss.backward()
    assert all(node.pending is None for node in tape)
    assert isinstance(w.grad, np.ndarray) and x.grad is None
    x, w, loss, expected_w, expected_x = _square_chain(33)
    loss.backward()
    assert w.grad.tobytes() == expected_w.tobytes()
    assert x.grad.tobytes() == expected_x.tobytes()


def test_concurrent_backwards_get_their_own_gradients():
    # Three threads share the one worker, more than a two-core host has
    # cores, with thread switches forced often: each graph must still get
    # its own sums.
    seeds = (34, 35, 36)
    barrier = threading.Barrier(len(seeds))
    outcomes = {}

    def run(seed):
        barrier.wait(timeout=30)
        same = []
        for _ in range(20):
            x, w, loss, expected_w, expected_x = _square_chain(seed, "add" if seed % 2 else None)
            loss.backward()
            same.append(w.grad.tobytes() == expected_w.tobytes()
                        and x.grad.tobytes() == expected_x.tobytes())
        outcomes[seed] = same

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert outcomes == {seed: [True] * 20 for seed in seeds}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_child_forked_after_a_backward_gets_its_own_worker():
    # The parent's worker thread is not copied into a child; a child that
    # reused the parent's executor would wait on it for ever.
    _square_chain(37)[2].backward()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            signal.alarm(20)
            _, w, loss, expected_w, _ = _square_chain(37)
            loss.backward()
            os.write(write, b"ok" if w.grad.tobytes() == expected_w.tobytes() else b"no")
        finally:
            os._exit(0)
    os.close(write)
    _, status = os.waitpid(pid, 0)
    assert (os.read(read, 2), status) == (b"ok", 0)
    os.close(read)


def test_leaf_gradients_are_arrays_after_backward():
    from ce_nmt import model as M
    from ce_nmt.losses import translation_loss

    cfg = M.ModelConfig(src_vocab=9, tgt_vocab=9, depth=1, dim=8, heads=2, ff_dim=16,
                        emb_dim=6, max_len=6)
    rng = np.random.default_rng(36)
    enc, dec = M.init_params(cfg, "encoder", rng), M.init_params(cfg, "decoder", rng)
    src = np.array([[1, 4, 5, 2], [1, 6, 2, 0]])
    tgt = np.array([[1, 7, 8, 2], [1, 5, 2, 0]])
    latent = M.encode(src, src != 0, enc, cfg)
    logits = M.decode(latent, tgt[:, :-1], tgt[:, :-1] != 0, dec, cfg)
    loss = translation_loss(logits, tgt[:, 1:], tgt[:, 1:] != 0)
    loss.backward()
    assert all(type(p.grad) is np.ndarray for p in [*enc.tensors.values(), *dec.tensors.values()])
    assert all(node.pending is None for node in _tape(loss))


def _holds_tensor(obj, seen):
    """Whether ``obj``, or anything a closure, tuple or list in it reaches,
    is a Tensor."""
    if id(obj) in seen:
        return False
    seen.add(id(obj))
    if isinstance(obj, N.Tensor):
        return True
    if isinstance(obj, (tuple, list)):
        return any(_holds_tensor(item, seen) for item in obj)
    cells = getattr(obj, "__closure__", None) or ()
    return any(_holds_tensor(cell.cell_contents, seen) for cell in cells)


@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_backward_closures_hold_no_tensor(dropout):
    # Bench shapes: batch 64, width 64, depth 2, ff_dim 256, max_len 12; a
    # pretrain step and a context-enhancement step.
    from ce_nmt import model as M
    from ce_nmt.data import BOS, EOS, PAD
    from ce_nmt.losses import barlow_twins_loss, translation_loss

    cfg = M.ModelConfig(src_vocab=55, tgt_vocab=54, depth=2, dim=64, heads=4, ff_dim=256,
                        emb_dim=64, max_len=12, proj_dim=32, dropout=dropout)
    rng = np.random.default_rng(13)
    enc, dec = M.init_params(cfg, "encoder", rng), M.init_params(cfg, "decoder", rng)
    proj = M.init_params(cfg, "projection", rng)
    src, tgt = [], []
    for ids in (src, tgt):
        for L in rng.integers(3, 13, size=64):
            ids.append([BOS, *rng.integers(4, 54, size=L - 2), EOS] + [PAD] * (12 - L))
    src, tgt = np.array(src), np.array(tgt)
    latent = M.encode(src, src != PAD, enc, cfg, rng=rng)
    logits = M.decode(latent, tgt[:, :-1], tgt[:, :-1] != PAD, dec, cfg, rng=rng)
    pretrain = translation_loss(logits, tgt[:, 1:], tgt[:, 1:] != PAD)
    z_s, z_t = (M.project(M.pool(M.encode(ids, ids != PAD, enc, cfg, rng=rng), "mean"), proj)
                for ids in (src, tgt))
    ce = barlow_twins_loss(z_s, z_t, lam=5e-3).loss
    for loss in (pretrain, ce):
        tape = _tape(loss)
        assert len(tape) > 50
        for node in tape:
            assert all(isinstance(p, N._Node) for p in node.parents)
            assert not _holds_tensor(node.backward_fn, set()), node.backward_fn


def test_dropped_intermediate_values_are_freed():
    import gc
    import weakref

    x = T(np.array([1.0, -2.0, 3.0]))
    w = np.array([0.5, 4.0, -1.5])
    y = x * 2.0                        # no backward reads these values
    freed = weakref.ref(y.values)
    loss = tsum((y + 1.0) * w)
    del y
    gc.collect()
    assert freed() is None
    loss.backward()
    assert np.array_equal(x.grad, 2.0 * w)


# -- grad_check self-tests ----------------------------------------------------------

def test_grad_check_sum():
    x = T(np.array([0.3, -1.2, 4.0]))
    assert N.grad_check(tsum, [x]) < 1e-10
    assert np.array_equal(x.grad, np.ones(3))


def test_grad_check_sum_of_squares():
    x = T(np.array([1.0, 2.0]))
    err = N.grad_check(lambda t: tsum(mul(t, t)), [x])
    assert err < 1e-8
    assert np.max(np.abs(x.grad - np.array([2.0, 4.0]))) < 1e-12


def test_backward_requires_scalar():
    x = T(np.zeros(3))
    with pytest.raises(NumericError):
        (x * 2.0).backward()


# -- finiteness is an error surface ------------------------------------------------

def test_non_finite_values_rejected():
    with pytest.raises(NumericError):
        N.Tensor(np.array([1.0, np.nan]))
    with pytest.raises(NumericError):
        N.Tensor(np.array([np.inf]))


# -- no_grad ---------------------------------------------------------------------------

def test_no_grad_records_no_tape():
    rng = np.random.default_rng(3)
    x, w = T(rng.normal(size=(4, 3))), T(rng.normal(size=(3, 2)))
    with N.no_grad():
        hidden = N.relu(matmul(x, w))
        loss = tsum(mul(hidden, hidden))
        for out in (hidden, loss):
            assert not out.requires_grad
            assert out._node.parents == () and out._node.backward_fn is None
        loss.backward()
    assert x.grad is None and w.grad is None
    taped = tsum(mul(N.relu(matmul(x, w)), N.relu(matmul(x, w))))
    assert taped.requires_grad
    assert np.array_equal(loss.values, taped.values)


def test_no_grad_keeps_finiteness_check():
    big = T([np.finfo(np.float64).max])
    with N.no_grad(), np.errstate(over="ignore"):
        with pytest.raises(NumericError):
            N.add(big, big)


def test_no_grad_restores_state_after_exception_and_nesting():
    assert N.grad_enabled()
    with pytest.raises(RuntimeError):
        with N.no_grad():
            raise RuntimeError("inside the block")
    assert N.grad_enabled()
    with N.no_grad():
        with N.no_grad():
            assert not N.grad_enabled()
        assert not N.grad_enabled()
    assert N.grad_enabled()
    assert (T([1.0, 2.0]) * 3.0).requires_grad


def test_no_grad_is_per_thread():
    seen = []
    with N.no_grad():
        worker = threading.Thread(target=lambda: seen.append(N.grad_enabled()))
        worker.start()
        worker.join(timeout=30)
    assert not worker.is_alive()
    assert seen == [True]


# -- pooling primitives --------------------------------------------------------------

def test_masked_pools_exclude_padding():
    x = np.array([[[1.0, 3.0], [3.0, 1.0], [99.0, 99.0]]])
    mask = np.array([[True, True, False]])
    assert np.array_equal(N.masked_mean_pool(T(x), mask).values, [[2.0, 2.0]])
    assert np.array_equal(N.masked_max_pool(T(x), mask).values, [[3.0, 3.0]])


def test_masked_pools_keep_float32():
    x = N.Tensor(np.arange(12.0, dtype=np.float32).reshape(2, 3, 2), requires_grad=True)
    mask = np.array([[True, True, False], [True, False, False]])
    for pool in (N.masked_mean_pool, N.masked_max_pool):
        x.grad = None
        out = pool(x, mask)
        tsum(out * np.ones((2, 2), dtype=np.float32)).backward()
        assert out.dtype == np.float32 and x.grad.dtype == np.float32


def test_masked_pool_degenerate_row():
    x = T(np.zeros((1, 2, 3)))
    with pytest.raises(DegenerateInputError):
        N.masked_mean_pool(x, np.array([[False, False]]))
    with pytest.raises(DegenerateInputError):
        N.masked_max_pool(x, np.array([[False, False]]))


def test_masked_softmax_zero_weight_on_masked():
    x = np.array([[1.0, 50.0, 2.0]])
    mask = np.array([[True, False, True]])
    out = N._softmax_values(x, mask, -1)
    assert out[0, 1] == 0.0
    assert abs(out.sum() - 1.0) < 1e-12
    with pytest.raises(DegenerateInputError):
        N._softmax_values(x, np.zeros((1, 3), dtype=bool), -1)


# -- gradient property suite: every differentiable op, randomized trials ------------------

def _rand(rng, *shape):
    return N.Tensor(rng.normal(size=shape), requires_grad=True)


# Constant weighting arrays are sampled once, outside the closures: grad_check
# re-evaluates f repeatedly and requires it to be a pure function of its inputs.
# The cases of matmul, masked_softmax, reshape, transpose, tsum and
# Tensor-by-Tensor mul check the test oracles' copies of those ops.
def _case_add(rng):
    return (lambda a, b: tsum(a + b), [_rand(rng, 3, 4), _rand(rng, 3, 4)])


def _case_add_broadcast(rng):
    return (lambda a, b: tsum(a + b), [_rand(rng, 3, 4), _rand(rng, 4)])


def _case_mul(rng):
    return (lambda a, b: tsum(mul(mul(a, b), a)), [_rand(rng, 2, 5), _rand(rng, 2, 5)])


def _case_matmul(rng):
    return (lambda a, b: tsum(matmul(a, b)), [_rand(rng, 3, 4), _rand(rng, 4, 2)])


def _case_matmul_batched(rng):
    w = rng.normal(size=(2, 3, 2))
    return (lambda a, b: tsum(matmul(a, b) * w), [_rand(rng, 2, 3, 4), _rand(rng, 2, 4, 2)])


def _case_transpose_reshape(rng):
    w = np.arange(12.0).reshape(6, 2)
    return (lambda a: tsum(reshape(transpose(a, (1, 0, 2)), (6, 2)) * w), [_rand(rng, 2, 3, 2)])


def _case_sum_axis(rng):
    return (lambda a: tsum(tsum(a, axis=1) * np.arange(3.0)), [_rand(rng, 3, 4)])


def _case_relu(rng):
    w = rng.normal(size=(3, 4))
    return (lambda a: tsum(N.relu(a) * w), [_rand(rng, 3, 4)])


def _case_masked_softmax(rng):
    w = rng.normal(size=(3, 4))
    mask = np.array([[True, True, False, True]] * 3)
    return (lambda a: tsum(masked_softmax(a, mask) * w), [_rand(rng, 3, 4)])


def _case_layer_norm(rng):
    w = rng.normal(size=(3, 6))
    return (
        lambda x, g, b: tsum(N.layer_norm(x, g, b) * w),
        [_rand(rng, 3, 6), _rand(rng, 6), _rand(rng, 6)],
    )


def _case_batch_norm_train(rng):
    w = rng.normal(size=(5, 3))
    return (lambda x: tsum(N.batch_norm_train(x) * w), [_rand(rng, 5, 3)])


def _case_embedding_lookup(rng):
    ids = rng.integers(0, 6, size=(2, 3))
    w = rng.normal(size=(2, 3, 4))
    return (lambda t: tsum(N.embedding_lookup(t, ids) * w), [_rand(rng, 6, 4)])


def _case_nll(rng):
    ids = rng.integers(0, 5, size=(2, 3))
    mask = np.array([[True, True, False], [True, False, False]])
    return (lambda x: N.nll(x, ids, mask) * 2.5, [_rand(rng, 2, 3, 5)])


def _case_barlow_twins(rng):
    # Raw inputs, not batch-normalized: the formula is differentiable at any
    # batch whose columns are not zero. Both terms, and a zero-norm guard.
    lam, eps = float(rng.uniform(0.01, 1.0)), float(rng.choice([0.0, 1e-9]))
    return (lambda a, b: N.barlow_twins(a, b, lam, eps)[0], [_rand(rng, 5, 3), _rand(rng, 5, 3)])


def _case_masked_mean_pool(rng):
    mask = np.array([[True, True, False], [True, False, False]])
    w = rng.normal(size=(2, 4))
    return (lambda x: tsum(N.masked_mean_pool(x, mask) * w), [_rand(rng, 2, 3, 4)])


def _case_masked_max_pool(rng):
    mask = np.array([[True, True, True], [True, True, False]])
    w = rng.normal(size=(2, 4))
    return (lambda x: tsum(N.masked_max_pool(x, mask) * w), [_rand(rng, 2, 3, 4)])


def _case_linear(rng):
    w = rng.normal(size=(3, 2))
    return (lambda x, W, b: tsum(N.linear(x, W, b) * w),
            [_rand(rng, 3, 4), _rand(rng, 4, 2), _rand(rng, 2)])


def _case_linear_3d(rng):
    w = rng.normal(size=(2, 3, 2))
    return (lambda x, W: tsum(N.linear(x, W) * w), [_rand(rng, 2, 3, 4), _rand(rng, 4, 2)])


def _case_multi_head_attention(rng):
    mask = np.array([[True, True, False, True], [True, False, False, False]])
    w = rng.normal(size=(2, 3, 4))
    return (lambda q, k, v: tsum(N.multi_head_attention(q, k, v, mask, 2) * w),
            [_rand(rng, 2, 3, 4), _rand(rng, 2, 4, 4), _rand(rng, 2, 4, 4)])


_PACKED_MASK = np.array([[True, True, False], [True, False, False]])


def _case_scatter_rows(rng):
    rows = N.RowLayout(_PACKED_MASK)
    w = rng.normal(size=(2, 3, 4))
    return (lambda x: tsum(N.scatter_rows(x, rows) * w), [_rand(rng, 3, 4)])


def _case_gather_rows(rng):
    rows = N.RowLayout(_PACKED_MASK)
    w = rng.normal(size=(3, 4))
    return (lambda x: tsum(N.gather_rows(x, rows) * w), [_rand(rng, 2, 3, 4)])


def _case_linear_packed(rng):
    rows = N.RowLayout(_PACKED_MASK)
    w = rng.normal(size=(3, 2))
    return (lambda x, W, b: tsum(N.linear(x, W, b, rows) * w),
            [_rand(rng, 3, 4), _rand(rng, 4, 2), _rand(rng, 2)])


OP_CASES = {
    "add": _case_add,
    "add_broadcast": _case_add_broadcast,
    "mul": _case_mul,
    "matmul": _case_matmul,
    "matmul_batched": _case_matmul_batched,
    "linear": _case_linear,
    "linear_3d": _case_linear_3d,
    "linear_packed": _case_linear_packed,
    "scatter_rows": _case_scatter_rows,
    "gather_rows": _case_gather_rows,
    "multi_head_attention": _case_multi_head_attention,
    "transpose_reshape": _case_transpose_reshape,
    "sum_axis": _case_sum_axis,
    "relu": _case_relu,
    "masked_softmax": _case_masked_softmax,
    "layer_norm": _case_layer_norm,
    "batch_norm_train": _case_batch_norm_train,
    "embedding_lookup": _case_embedding_lookup,
    "nll": _case_nll,
    "barlow_twins": _case_barlow_twins,
    "masked_mean_pool": _case_masked_mean_pool,
    "masked_max_pool": _case_masked_max_pool,
}


@pytest.mark.parametrize("op_name", sorted(OP_CASES))
def test_grad_check_randomized(op_name):
    for trial in range(20):
        rng = np.random.default_rng(zlib.crc32(op_name.encode()) + trial)
        f, inputs = OP_CASES[op_name](rng)
        assert N.grad_check(f, inputs) < 1e-4, f"{op_name} trial {trial}"
