import threading

import numpy as np
import pytest

from ce_nmt import numerics as N
from ce_nmt.errors import (
    BatchTooSmallError,
    DegenerateInputError,
    NumericError,
    ShapeError,
)


def T(values, grad=True):
    return N.Tensor(np.asarray(values, dtype=np.float64), requires_grad=grad)


# -- matmul -------------------------------------------------------------------

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
    assert np.array_equal(N.matmul(a, b).values, b.values)


def test_matmul_zero():
    a = T([[1.0, 0.0], [0.0, 1.0]])
    b = T([[0.0], [0.0]])
    assert np.array_equal(N.matmul(a, b).values, np.zeros((2, 1)))


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    got = N.matmul(T(a), T(b)).values
    assert np.max(np.abs(got - matmul_oracle(a, b))) < 1e-12


def test_matmul_shape_mismatch_reports_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        N.matmul(T(np.zeros((2, 3))), T(np.zeros((2, 3))))


# -- softmax: masked_softmax with an all-true mask, the op attention runs -------

def softmax(x, axis=-1):
    return N.masked_softmax(x, np.ones(x.shape, dtype=bool), axis=axis)


def test_softmax_uniform():
    out = softmax(T([0.0, 0.0, 0.0, 0.0])).values
    assert np.max(np.abs(out - 0.25)) < 1e-15


def test_softmax_extreme_logits_stable():
    out = softmax(T([1000.0, 0.0])).values
    assert abs(out[0] - 1.0) < 1e-12
    assert abs(out[1]) < 1e-12


def test_softmax_matches_direct_formula():
    x = np.array([1.0, 2.0, 3.0])
    expected = np.exp(x) / np.exp(x).sum()
    assert np.max(np.abs(softmax(T(x)).values - expected)) < 1e-12


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(5, 7)) * 10
    out = softmax(T(x), axis=-1).values
    assert np.max(np.abs(out.sum(axis=-1) - 1.0)) < 1e-12
    shifted = softmax(T(x + 3.7), axis=-1).values
    assert np.max(np.abs(out - shifted)) < 1e-12


# -- layer_norm ---------------------------------------------------------------

def test_layer_norm_constant_row_is_zero():
    out = N.layer_norm(T([[5.0, 5.0, 5.0]]), T(np.ones(3)), T(np.zeros(3))).values
    assert np.max(np.abs(out)) == 0.0


def test_layer_norm_already_normalized_row():
    out = N.layer_norm(T([[1.0, -1.0]]), T(np.ones(2)), T(np.zeros(2)), eps=1e-12).values
    assert np.max(np.abs(out - np.array([[1.0, -1.0]]))) < 1e-9


def test_layer_norm_matches_direct_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 9))
    gain = rng.normal(size=9)
    bias = rng.normal(size=9)
    eps = 1e-5
    expected = (x - x.mean()) / np.sqrt(x.var() + eps) * gain + bias
    got = N.layer_norm(T(x), T(gain), T(bias), eps=eps).values
    assert np.max(np.abs(got - expected)) < 1e-10


# -- batch_norm_train -----------------------------------------------------------

def test_batch_norm_already_standardized():
    out = N.batch_norm_train(T([[1.0], [-1.0]]), eps=1e-12).values
    assert np.max(np.abs(out - np.array([[1.0], [-1.0]]))) < 1e-9


def test_batch_norm_constant_column_zeroed():
    out = N.batch_norm_train(T([[5.0], [5.0], [5.0]])).values
    assert np.array_equal(out, np.zeros((3, 1)))


def test_batch_norm_output_statistics():
    rng = np.random.default_rng(3)
    x = rng.normal(loc=3.0, scale=2.5, size=(4, 3))
    out = N.batch_norm_train(T(x), eps=1e-9).values
    assert np.max(np.abs(out.mean(axis=0))) < 1e-10
    assert np.max(np.abs(out.var(axis=0) - 1.0)) < 1e-6


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
    loss = (out * weights).sum()
    loss.backward()
    assert np.array_equal(table.grad[1], weights.sum(axis=0))
    assert np.array_equal(table.grad[0], [0.0, 0.0])
    err = N.grad_check(
        lambda t: (N.embedding_lookup(t, np.array([1, 1])) * weights).sum(),
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
    loss = (N.embedding_lookup(table, ids[0]) * weights[0]).sum() \
        + (N.embedding_lookup(table, ids[1]) * weights[1]).sum()
    loss.backward()
    expected = np.zeros((4, 3))
    np.add.at(expected, np.concatenate([i.reshape(-1) for i in ids]),
              np.concatenate([w.reshape(-1, 3) for w in weights]))
    assert table.grad.tobytes() == expected.tobytes()


# -- gradient ownership ---------------------------------------------------------------

def test_gradients_are_never_written_in_place():
    from ce_nmt.training import AdamOptimizer

    rng = np.random.default_rng(2)
    x, w = T(rng.normal(size=(3, 4))), T(rng.normal(size=(4, 2)))
    table, ids = T(rng.normal(size=(5, 2))), np.array([0, 3, 0])

    def forward():
        y = N.matmul(x, w) + N.embedding_lookup(table, ids)
        z = y + y                      # add hands one array to both parents
        r = z.reshape(6)               # reshape hands on a view
        return (r * r).sum() + (x * x).sum(), (y, z, r)

    loss, nodes = forward()
    loss.backward()
    tensors = (x, w, table, *nodes)
    captured = [t.grad for t in tensors]
    snapshot = [g.copy() for g in captured]
    forward()[0].backward()            # accumulates into the shared leaves
    for g, before in zip(captured, snapshot):
        assert g.tobytes() == before.tobytes()
    assert np.allclose(x.grad, 2.0 * snapshot[0], rtol=1e-14, atol=0.0)
    current = [x.grad, w.grad, table.grad]
    current_snapshot = [g.copy() for g in current]
    AdamOptimizer({"x": x, "w": w, "table": table}, lr=0.1, warmup=1).step()
    for g, before in zip(captured + current, snapshot + current_snapshot):
        assert g.tobytes() == before.tobytes()


def test_fan_in_of_three_consumers_sums_gradients():
    x = T(np.array([[1.0, -2.0], [3.0, 0.5]]))
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[-5.0, 0.25], [2.0, 8.0]])
    s = x + x                          # two of the three uses share one array
    loss = (s * a).sum() + (x * b).sum()
    loss.backward()
    assert np.array_equal(x.grad, a + a + b)
    assert np.array_equal(s.grad, a)   # the shared array was not added into


# -- grad_check self-tests ----------------------------------------------------------

def test_grad_check_sum():
    x = T(np.array([0.3, -1.2, 4.0]))
    assert N.grad_check(lambda t: t.sum(), [x]) < 1e-10
    assert np.array_equal(x.grad, np.ones(3))


def test_grad_check_sum_of_squares():
    x = T(np.array([1.0, 2.0]))
    err = N.grad_check(lambda t: (t * t).sum(), [x])
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
        hidden = N.relu(N.matmul(x, w))
        loss = (hidden * hidden).sum()
        for out in (hidden, loss):
            assert not out.requires_grad
            assert out._parents == () and out._backward_fn is None
        loss.backward()
    assert x.grad is None and w.grad is None
    taped = (N.relu(N.matmul(x, w)) * N.relu(N.matmul(x, w))).sum()
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


def test_masked_pool_degenerate_row():
    x = T(np.zeros((1, 2, 3)))
    with pytest.raises(DegenerateInputError):
        N.masked_mean_pool(x, np.array([[False, False]]))
    with pytest.raises(DegenerateInputError):
        N.masked_max_pool(x, np.array([[False, False]]))


def test_masked_softmax_zero_weight_on_masked():
    x = T(np.array([[1.0, 50.0, 2.0]]))
    mask = np.array([[True, False, True]])
    out = N.masked_softmax(x, mask).values
    assert out[0, 1] == 0.0
    assert abs(out.sum() - 1.0) < 1e-12
    with pytest.raises(DegenerateInputError):
        N.masked_softmax(x, np.zeros((1, 3), dtype=bool))


# -- gradient property suite: every differentiable op, randomized trials ------------------

def _rand(rng, *shape):
    return N.Tensor(rng.normal(size=shape), requires_grad=True)


# Constant weighting arrays are sampled once, outside the closures: grad_check
# re-evaluates f repeatedly and requires it to be a pure function of its inputs.
def _case_add(rng):
    return (lambda a, b: (a + b).sum(), [_rand(rng, 3, 4), _rand(rng, 3, 4)])


def _case_add_broadcast(rng):
    return (lambda a, b: (a + b).sum(), [_rand(rng, 3, 4), _rand(rng, 4)])


def _case_mul(rng):
    return (lambda a, b: (a * b * a).sum(), [_rand(rng, 2, 5), _rand(rng, 2, 5)])


def _case_div(rng):
    return (lambda a, b: (a / (b * b + 1.0)).sum(), [_rand(rng, 3, 3), _rand(rng, 3, 3)])


def _case_sqrt(rng):
    return (lambda a: N.sqrt(a * a + 2.0).sum(), [_rand(rng, 5)])


def _case_matmul(rng):
    return (lambda a, b: N.matmul(a, b).sum(), [_rand(rng, 3, 4), _rand(rng, 4, 2)])


def _case_matmul_batched(rng):
    w = rng.normal(size=(2, 3, 2))
    return (lambda a, b: (N.matmul(a, b) * w).sum(), [_rand(rng, 2, 3, 4), _rand(rng, 2, 4, 2)])


def _case_transpose_reshape(rng):
    w = np.arange(12.0).reshape(6, 2)
    return (lambda a: (a.transpose(1, 0, 2).reshape(6, 2) * w).sum(), [_rand(rng, 2, 3, 2)])


def _case_sum_axis(rng):
    return (lambda a: (a.sum(axis=1) * np.arange(3.0)).sum(), [_rand(rng, 3, 4)])


def _case_relu(rng):
    w = rng.normal(size=(3, 4))
    return (lambda a: (N.relu(a) * w).sum(), [_rand(rng, 3, 4)])


def _case_log_softmax(rng):
    w = rng.normal(size=(2, 6))
    return (lambda a: (N.log_softmax(a, axis=-1) * w).sum(), [_rand(rng, 2, 6)])


def _case_masked_softmax(rng):
    w = rng.normal(size=(3, 4))
    mask = np.array([[True, True, False, True]] * 3)
    return (lambda a: (N.masked_softmax(a, mask) * w).sum(), [_rand(rng, 3, 4)])


def _case_layer_norm(rng):
    w = rng.normal(size=(3, 6))
    return (
        lambda x, g, b: (N.layer_norm(x, g, b) * w).sum(),
        [_rand(rng, 3, 6), _rand(rng, 6), _rand(rng, 6)],
    )


def _case_batch_norm_train(rng):
    w = rng.normal(size=(5, 3))
    return (lambda x: (N.batch_norm_train(x) * w).sum(), [_rand(rng, 5, 3)])


def _case_embedding_lookup(rng):
    ids = rng.integers(0, 6, size=(2, 3))
    w = rng.normal(size=(2, 3, 4))
    return (lambda t: (N.embedding_lookup(t, ids) * w).sum(), [_rand(rng, 6, 4)])


def _case_take_along_last(rng):
    ids = rng.integers(0, 5, size=(3,))
    return (lambda x: (N.take_along_last(x, ids) * np.arange(1.0, 4.0)).sum(), [_rand(rng, 3, 5)])


def _case_diagonal(rng):
    return (lambda x: (N.diagonal(x) * np.arange(1.0, 5.0)).sum(), [_rand(rng, 4, 4)])


def _case_masked_mean_pool(rng):
    mask = np.array([[True, True, False], [True, False, False]])
    w = rng.normal(size=(2, 4))
    return (lambda x: (N.masked_mean_pool(x, mask) * w).sum(), [_rand(rng, 2, 3, 4)])


def _case_masked_max_pool(rng):
    mask = np.array([[True, True, True], [True, True, False]])
    w = rng.normal(size=(2, 4))
    return (lambda x: (N.masked_max_pool(x, mask) * w).sum(), [_rand(rng, 2, 3, 4)])


OP_CASES = {
    "add": _case_add,
    "add_broadcast": _case_add_broadcast,
    "mul": _case_mul,
    "div": _case_div,
    "sqrt": _case_sqrt,
    "matmul": _case_matmul,
    "matmul_batched": _case_matmul_batched,
    "transpose_reshape": _case_transpose_reshape,
    "sum_axis": _case_sum_axis,
    "relu": _case_relu,
    "log_softmax": _case_log_softmax,
    "masked_softmax": _case_masked_softmax,
    "layer_norm": _case_layer_norm,
    "batch_norm_train": _case_batch_norm_train,
    "embedding_lookup": _case_embedding_lookup,
    "take_along_last": _case_take_along_last,
    "diagonal": _case_diagonal,
    "masked_mean_pool": _case_masked_mean_pool,
    "masked_max_pool": _case_masked_max_pool,
}


@pytest.mark.parametrize("op_name", sorted(OP_CASES))
def test_grad_check_randomized(op_name):
    for trial in range(20):
        rng = np.random.default_rng(hash(op_name) % 2**32 + trial)
        f, inputs = OP_CASES[op_name](rng)
        assert N.grad_check(f, inputs) < 1e-4, f"{op_name} trial {trial}"
