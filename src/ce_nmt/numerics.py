"""Minimal differentiable numeric core.

A reverse-mode tape over numpy arrays, providing exactly the operations
the translation model and its two losses run. Correctness is anchored by
``grad_check``: every differentiable operation must match central finite
differences. The generic ops that the fused ones replaced (``matmul``,
``masked_softmax``, ``reshape``, ``transpose``, sums and Tensor-by-Tensor
products) are kept only as the tests' reference chains.

Conventions:
  - values are float32 or float64 numpy arrays (float64 in tests); every
    op keeps its inputs' dtype, constants included. ``add`` takes a Tensor
    or a constant, ``mul`` only a constant; ``embedding_lookup`` and ``nll``
    share one id-range check, the two pools one mask check,
  - non-finite values raise ``NumericError`` at construction time. The
    fused ops ``linear``, ``multi_head_attention``, ``nll`` and
    ``barlow_twins`` are one tape node each, so their output Tensor is
    checked; attention also checks its raw scores before masking, so an
    overflow hidden under the mask still raises,
  - attention is one forward core on head-major arrays (queries and
    values (B·heads, t, head_dim), keys transposed (B·heads, head_dim, t)),
    shared by two callers: ``multi_head_attention`` splits its Tensors into
    heads and adds the tape node and backward, and ``attend_cached``, for
    cached decoding under ``no_grad()``, splits only the queries and reads
    keys and values already stored head-major. So the attention arithmetic
    exists once and both give the same bits on the same keys and values,
  - ``layer_norm`` (last axis) and ``batch_norm_train`` (axis 0) run one
    standardization kernel, ``_standardize`` and its gradient, with the
    bits of ``np.mean`` and ``np.var``; both add ``NORM_EPS`` (1e-5) to the
    variance, and no caller sets another,
  - boolean masks are plain numpy arrays, never Tensors,
  - inside ``no_grad()`` operations record no tape: results have no parents,
  - the tape is made of nodes, not Tensors: a Tensor is its ``values`` plus
    a small ``_Node`` (gradient, ``requires_grad``, parent nodes, backward
    function, shape and dtype). A backward function holds the nodes it
    passes gradients to and only the arrays it reads (``linear`` its input
    rows and weight, layer norm its normalized input, attention its split
    heads and weights, ``relu`` its output, ``nll`` its softmax
    probabilities, ``barlow_twins`` its (B, d) inputs and its (d, d)
    correlation, numerator and denominator); lookups, gathers and pools
    keep shapes and indices only. So a training step keeps, of all the values it
    computes, just those arrays; the rest is freed as soon as model code
    drops the Tensor,
  - ``backward()`` releases each non-leaf node's gradient once its backward
    function has used it. Only leaves (parameters, and inputs created with
    ``requires_grad=True``) keep ``.grad``, and a second ``backward()`` on
    the same graph adds the same gradients to them once more,
  - gradients are passed by reference: a backward function may hand the
    same array (or a view of it) to several parents, and ``_accumulate``
    stores the first gradient a tensor receives as is. So once an array is
    stored in a ``.grad``, nothing writes into it in place: backward
    functions, ``embedding_lookup``'s scatter and the optimizer all build
    new arrays,
  - attention's softmax and the pools exclude masked positions exactly
    (weight 0),
    so mask-invariance holds bitwise at 64-bit,
  - packed rows: a ``RowLayout`` names the valid rows of a (B, t) mask, and
    ``gather_rows`` / ``scatter_rows`` move between the padded (B, t, d)
    layout and the packed (n, d) one (zero at the left-out rows).
    ``linear(..., rows=)`` runs its product and its input and bias
    gradients on the n packed rows, but its weight gradient stays one
    product over the zero-padded B·t rows: a product over the packed rows
    would change the reduction's length and order, and so its rounding
    (about 1e-15 relative).
"""

from __future__ import annotations

import contextlib
import math
import threading
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    BatchTooSmallError,
    DegenerateInputError,
    NumericError,
    ShapeError,
)

_FLOATS = (np.float32, np.float64)
NORM_EPS = 1e-5    # added to the variance in ``layer_norm`` and ``batch_norm_train``


class _ThreadState(threading.local):
    grad_enabled = True
    maps: list | None = None      # the list of the innermost ``attention_maps()`` block


_state = _ThreadState()


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Record no tape inside the block (also usable as a decorator).

    Operations still run every check, but return Tensors with no parents and
    no backward function. The previous state comes back on exit, on an
    exception too, so blocks nest. The state is per thread.
    """
    previous = _state.grad_enabled
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = previous


def grad_enabled() -> bool:
    """Whether operations record the tape (False inside ``no_grad()``)."""
    return _state.grad_enabled


@contextlib.contextmanager
def attention_maps() -> Iterator[list[np.ndarray]]:
    """Inside the block, every attention forward (``multi_head_attention``
    and ``attend_cached``) appends a copy of its weights (B, heads, tq, tk)
    to the yielded list, in call order. Blocks nest: the innermost one gets
    the maps, and the outer list resumes on exit, on an exception too.
    Outside any block nothing is copied. The state is per thread."""
    previous = _state.maps
    _state.maps = maps = []
    try:
        yield maps
    finally:
        _state.maps = previous


def _as_float_array(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype not in _FLOATS:
        arr = arr.astype(np.float64)
    return np.ascontiguousarray(arr)


def _check_finite(arr: np.ndarray) -> None:
    if not np.isfinite(arr).all():
        raise NumericError("non-finite values in tensor")


class _Node:
    """A Tensor's entry on the tape: everything ``backward`` needs of it but
    its values.

    ``parents`` are the nodes of the op's inputs, and ``backward_fn(g)``
    passes ``g`` on to them. ``shape`` and ``dtype`` are those of the
    Tensor's values, so a backward function can reduce and cast a gradient
    without holding the values.
    """

    __slots__ = ("grad", "requires_grad", "parents", "backward_fn", "shape", "dtype")

    def __init__(self, shape: tuple[int, ...], dtype, requires_grad: bool):
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.parents: tuple[_Node, ...] = ()
        self.backward_fn: Callable[[np.ndarray], None] | None = None
        self.shape = shape
        self.dtype = dtype


class Tensor:
    """Dense n-dimensional array with an optional gradient.

    A Tensor is its ``values`` plus a ``_Node`` on the tape. The tape links
    nodes, never Tensors, and each op's backward function holds only the
    nodes it passes gradients to and the arrays it reads. So an
    intermediate's values are freed once model code drops the Tensor, unless
    some backward saved that array.

    ``grad`` and ``requires_grad`` live on the node. ``backward()`` fills
    ``grad`` on every node that requires one, and drops it again from each
    non-leaf node once that node's backward function has used it: after
    ``backward()`` only leaves (parameters, and inputs created with
    ``requires_grad=True``) hold a gradient, matching ``values`` in shape.
    """

    __slots__ = ("values", "_node")

    def __init__(self, values, requires_grad: bool = False):
        arr = _as_float_array(values)
        _check_finite(arr)
        self.values = arr
        self._node = _Node(arr.shape, arr.dtype, bool(requires_grad))

    @property
    def grad(self) -> np.ndarray | None:
        return self._node.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        self._node.grad = g

    @property
    def requires_grad(self) -> bool:
        return self._node.requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def dtype(self):
        return self.values.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.values.reshape(()))

    # -- graph ------------------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar output through the recorded tape.

        Each non-leaf node's gradient is released as it is handed to the
        node's backward function, so a second ``backward()`` on the same
        graph adds exactly the same gradients to the leaves once more.
        """
        if self.values.size != 1:
            raise NumericError("backward() requires a scalar output")
        root = self._node
        topo: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        root.grad = np.ones_like(self.values)
        for node in reversed(topo):
            fn = node.backward_fn
            if fn is not None and node.grad is not None:
                g, node.grad = node.grad, None
                fn(g)

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)


def _result(values: np.ndarray, parents: tuple[_Node, ...],
            backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor(values)
    if _state.grad_enabled and any(p.requires_grad for p in parents):
        node = out._node
        node.requires_grad = True
        node.parents = parents
        node.backward_fn = backward_fn
    return out


def _accumulate(node: _Node, g: np.ndarray) -> None:
    """Add ``g`` to ``node.grad`` without writing into either array.

    The sum on fan-in is computed as ``node.grad + g`` and cast to the
    node's dtype, which rounds exactly like an in-place ``+=`` into a buffer
    of that dtype.
    """
    if not node.requires_grad:
        return
    if node.grad is None:
        node.grad = g if g.dtype == node.dtype else g.astype(node.dtype)
    else:
        node.grad = (node.grad + g).astype(node.dtype, copy=False)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to ``shape`` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- elementwise ------------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    """``a + b`` for a Tensor ``b`` or a constant (a number or an array, cast
    to ``a``'s dtype); ``a`` gets its gradient first."""
    if isinstance(b, Tensor):
        b_values, nodes = b.values, (a._node, b._node)
    else:
        b_values, nodes = np.asarray(b, dtype=a.dtype), (a._node,)
    out_values = a.values + b_values

    def backward(g):
        for node in nodes:
            _accumulate(node, _unbroadcast(g, node.shape))

    return _result(out_values, nodes, backward)


def mul(a: Tensor, b) -> Tensor:
    """``a`` times a constant: a number or an array, cast to ``a``'s dtype.
    No model path multiplies two Tensors, so ``b`` is never one."""
    const = np.asarray(b, dtype=a.dtype)
    out_values = a.values * const
    na = a._node

    def backward(g):
        _accumulate(na, _unbroadcast(g * const, na.shape))

    return _result(out_values, (na,), backward)


def relu(a: Tensor) -> Tensor:
    """``max(a, 0)``. The backward reads the output, not the input: for
    finite values ``out > 0`` exactly where ``a > 0``, and the layer after a
    ReLU saves that output anyway, so the pre-activation can be freed."""
    out_values = np.maximum(a.values, 0.0)
    na = a._node

    def backward(g):
        _accumulate(na, g * (out_values > 0))

    return _result(out_values, (na,), backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None,
           rows: RowLayout | None = None) -> Tensor:
    """``x @ w + b`` over the last axis of ``x`` (any number of leading axes).

    One tape node. Leading axes are flattened into one for a single 2-D
    product, the way a reshape / matmul / add / reshape chain computes it.

    With ``rows``, ``x`` is (n, in): the n valid rows of that layout, packed.
    The product, the input gradient and the bias gradient (a column sum, to
    which zero rows add nothing) run on those n rows. The weight gradient
    stays one product over the zero-padded B·t rows, so its reduction has
    the length and order, and the bits, of an unpacked call whose gradient
    is zero at the left-out rows.
    """
    xv, wv = x.values, w.values
    if wv.ndim != 2 or xv.ndim < 1 or xv.shape[-1] != wv.shape[0]:
        raise ShapeError(f"linear expects (..., n) x (n, m), got {x.shape} and {w.shape}")
    if rows is not None and (xv.ndim != 2 or xv.shape[0] != rows.n):
        raise ShapeError(f"linear with rows expects ({rows.n}, n) packed rows, got {x.shape}")
    flat = xv if xv.ndim == 2 else xv.reshape((-1, xv.shape[-1]))
    out_values = flat @ wv
    if b is not None:
        out_values = out_values + b.values
    flat_shape = out_values.shape
    if xv.ndim != 2:
        out_values = out_values.reshape((*xv.shape[:-1], wv.shape[1]))
    nx, nw = x._node, w._node
    nb = None if b is None else b._node

    def backward(g):
        if len(nx.shape) != 2:
            g = g.reshape(flat_shape)
        if nb is not None:
            _accumulate(nb, _unbroadcast(g, nb.shape))
        gx = g @ wv.swapaxes(-1, -2)
        xr, gr = (flat, g) if rows is None else (rows.pad(flat), rows.pad(g))
        _accumulate(nw, xr.swapaxes(-1, -2) @ gr)
        _accumulate(nx, gx if len(nx.shape) == 2 else gx.reshape(nx.shape))

    return _result(out_values, (nx, nw) if nb is None else (nx, nw, nb), backward)


# -- valid-row layout -----------------------------------------------------------


class RowLayout:
    """The valid rows of a boolean (B, t) mask.

    ``index`` holds their row-major positions among the B·t rows, ``n`` of
    them. A packed array holds those rows, in that order, as (n, d).
    """

    __slots__ = ("shape", "index")

    def __init__(self, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ShapeError(f"row layout expects a (B, t) mask, got shape {mask.shape}")
        self.shape: tuple[int, int] = mask.shape
        self.index = np.flatnonzero(mask)

    @property
    def n(self) -> int:
        return self.index.size

    def pack(self, padded: np.ndarray) -> np.ndarray:
        """The valid rows of a (B, t, d) or (B·t, d) array, as a new (n, d) array."""
        return np.take(padded.reshape((-1, padded.shape[-1])), self.index, axis=0)

    def pad(self, packed: np.ndarray) -> np.ndarray:
        """Packed (n, d) rows as a new (B·t, d) array, zero at the other rows."""
        out = np.zeros((self.shape[0] * self.shape[1], packed.shape[-1]), dtype=packed.dtype)
        out[self.index] = packed
        return out


def scatter_rows(x: Tensor, rows: RowLayout) -> Tensor:
    """Packed rows (n, d) into a (B, t, d) array that is exactly 0.0 at the
    rows the layout leaves out; the inverse of ``gather_rows``."""
    if x.values.ndim != 2 or x.shape[0] != rows.n:
        raise ShapeError(f"scatter_rows expects ({rows.n}, d) packed rows, got {x.shape}")
    out_values = rows.pad(x.values).reshape((*rows.shape, x.shape[1]))
    nx = x._node

    def backward(g):
        _accumulate(nx, rows.pack(g))

    return _result(out_values, (nx,), backward)


def gather_rows(x: Tensor, rows: RowLayout) -> Tensor:
    """The layout's valid rows of a (B, t, d) array, packed (n, d)."""
    if x.values.ndim != 3 or x.shape[:2] != rows.shape:
        raise ShapeError(f"gather_rows expects a ({rows.shape[0]}, {rows.shape[1]}, d) array, "
                         f"got {x.shape}")
    out_values = rows.pack(x.values)
    nx = x._node

    def backward(g):
        _accumulate(nx, rows.pad(g).reshape(nx.shape))

    return _result(out_values, (nx,), backward)


# -- attention ------------------------------------------------------------------


def _softmax_values(values: np.ndarray, mask: np.ndarray, axis: int) -> np.ndarray:
    """Softmax along ``axis`` with exactly zero weight where ``mask`` (of
    ``values``' shape) is False; a row with no valid position raises."""
    if not mask.any(axis=axis).all():
        raise DegenerateInputError("softmax: a row has no unmasked position")
    scores = np.where(mask, values, -np.inf)
    shifted = scores - scores.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=axis, keepdims=True)


def _softmax_grad(out: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    inner = (g * out).sum(axis=axis, keepdims=True)
    return out * (g - inner)


def split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    """(B, t, h) to the head-major (B·heads, t, h / heads), contiguous."""
    B, t, h = x.shape
    heads = np.transpose(x.reshape((B, t, num_heads, h // num_heads)), (0, 2, 1, 3))
    return np.ascontiguousarray(heads).reshape((B * num_heads, t, h // num_heads))


def _merge_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    """(B·heads, t, hd) back to (B, t, heads·hd); a strided view."""
    bh, t, hd = x.shape
    B = bh // num_heads
    return np.transpose(x.reshape((B, num_heads, t, hd)), (0, 2, 1, 3)).reshape((B, t, num_heads * hd))


def _attention_scale(q3: np.ndarray) -> np.ndarray:
    return np.asarray(1.0 / math.sqrt(q3.shape[2]), dtype=q3.dtype)


def _attention_forward(q3: np.ndarray, k3t: np.ndarray, v3: np.ndarray, mask: np.ndarray,
                       num_heads: int) -> tuple[np.ndarray, np.ndarray]:
    """The forward of attention on split heads, shared by the tape op and
    cached decoding: q3 (B·heads, tq, hd), keys already transposed k3t
    (B·heads, hd, tk), v3 (B·heads, tk, hd). Returns the merged output
    (B, tq, h) and the weights (B·heads, tq, tk); inside ``attention_maps()``
    it records a copy of the weights."""
    bh, tq, _ = q3.shape
    tk = k3t.shape[2]
    B = bh // num_heads
    scores = (q3 @ k3t) * _attention_scale(q3)
    _check_finite(scores)
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim == 2:
        mask = mask[:, None, :]
    full = np.broadcast_to(mask[:, None, :, :], (B, num_heads, tq, tk))
    weights = _softmax_values(scores.reshape((B, num_heads, tq, tk)), full, -1)
    if _state.maps is not None:
        _state.maps.append(weights.copy())
    weights = weights.reshape((bh, tq, tk))
    return np.ascontiguousarray(_merge_heads(weights @ v3, num_heads)), weights


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray,
                         num_heads: int) -> Tensor:
    """Scaled dot-product attention over ``num_heads`` heads, one tape node.

    q: (B, tq, h), k/v: (B, tk, h). ``mask`` is boolean, (B, tk) for key
    padding or (B, tq, tk) for a full pattern; masked keys get exactly zero
    weight. Inside ``attention_maps()`` the weights (B, heads, tq, tk) are
    recorded. The raw scores are checked for finiteness before the mask is
    applied. Heads are split (``split_heads``), scored, softmaxed
    and merged with the numpy calls and array layouts of the equivalent
    chain of primitive ops, and the backward hands out the same arrays, so
    results match it bitwise. The forward is the one ``attend_cached``
    runs.
    """
    qv, kv, vv = q.values, k.values, v.values
    if qv.ndim != 3 or kv.shape != vv.shape or kv.ndim != 3 \
            or qv.shape[0] != kv.shape[0] or qv.shape[2] != kv.shape[2]:
        raise ShapeError(f"attention expects q (B, tq, h) and k, v (B, tk, h), "
                         f"got {q.shape}, {k.shape}, {v.shape}")
    B, tq, h = qv.shape
    if h % num_heads != 0:
        raise ShapeError(f"model dim {h} not divisible by {num_heads} heads")
    q3, v3 = split_heads(qv, num_heads), split_heads(vv, num_heads)
    k3t = np.ascontiguousarray(np.transpose(split_heads(kv, num_heads), (0, 2, 1)))
    out_values, weights = _attention_forward(q3, k3t, v3, mask, num_heads)
    scale = _attention_scale(q3)
    nq, nk, nv = q._node, k._node, v._node

    def backward(g):
        # A reshape, not ``split_heads``: at B = 1 it stays a strided view,
        # and a contiguous copy would reach BLAS with another layout.
        g_heads = np.transpose(g.reshape((B, tq, num_heads, h // num_heads)), (0, 2, 1, 3))
        g_heads = g_heads.reshape(q3.shape)
        g_weights = g_heads @ v3.swapaxes(-1, -2)
        g_v3 = weights.swapaxes(-1, -2) @ g_heads
        g_scores = _softmax_grad(weights, g_weights, -1) * scale
        g_q3 = g_scores @ k3t.swapaxes(-1, -2)
        g_k3 = np.transpose(q3.swapaxes(-1, -2) @ g_scores, (0, 2, 1))
        _accumulate(nq, _merge_heads(g_q3, num_heads))
        _accumulate(nk, _merge_heads(g_k3, num_heads))
        _accumulate(nv, _merge_heads(g_v3, num_heads))

    return _result(out_values, (nq, nk, nv), backward)


def attend_cached(q: Tensor, k3t: np.ndarray, v3: np.ndarray, mask: np.ndarray,
                  num_heads: int) -> Tensor:
    """``multi_head_attention``'s forward against keys and values already in
    head-major layout: k3t (B·heads, hd, tk), transposed, and v3 (B·heads,
    tk, hd), both possibly views into larger buffers. Only ``q`` (B, tq, h)
    is split. Records no tape, so it runs only under ``no_grad()``.

    A key view is copied to a contiguous block first: as a view into a
    wider buffer it would reach BLAS with another leading dimension, and
    OpenBLAS rounds such small products differently (seen for tk <= 3), so
    the bits would no longer be ``multi_head_attention``'s. Value views
    keep the 2-D layout of a contiguous block and are read in place."""
    if _state.grad_enabled:
        raise NumericError("attend_cached records no tape: call it under no_grad()")
    out_values, _ = _attention_forward(split_heads(q.values, num_heads), np.ascontiguousarray(k3t),
                                       v3, mask, num_heads)
    return Tensor(out_values)


# -- normalization -------------------------------------------------------------


def _mean(a: np.ndarray, axis: int) -> np.ndarray:
    """``a.mean(axis=axis, keepdims=True)`` computed as ``np.mean`` and
    ``np.var`` compute it: a sum, then an in-place division by the
    ``np.intp`` count."""
    total = a.sum(axis=axis, keepdims=True)
    return np.true_divide(total, np.intp(a.shape[axis]), out=total, casting="unsafe")


def _standardize(values: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero mean and unit variance along ``axis``: (xhat, inv), where ``inv``
    is 1 / sqrt(var + NORM_EPS). The mean is computed once and ``values -
    mean`` serves both the variance and ``xhat``, with the bits of
    ``np.mean`` and ``np.var``."""
    centered = values - _mean(values, axis)
    inv = 1.0 / np.sqrt(_mean(np.square(centered), axis) + NORM_EPS)
    return np.multiply(centered, inv, out=centered), inv


def _standardize_grad(gx: np.ndarray, xhat: np.ndarray, inv: np.ndarray, axis: int) -> np.ndarray:
    """The input gradient of ``_standardize`` for the gradient ``gx`` of
    ``xhat``, written into ``gx``: the caller passes an array it owns."""
    mean_gx = _mean(gx, axis)
    prod = gx * xhat
    mean_prod = _mean(prod, axis)
    np.subtract(gx, mean_gx, out=gx)
    np.subtract(gx, np.multiply(xhat, mean_prod, out=prod), out=gx)
    return np.multiply(gx, inv, out=gx)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Standardize the last axis (``_standardize``), then gain and bias."""
    xhat, inv = _standardize(x.values, -1)
    gv = gain.values
    out_values = xhat * gv + bias.values
    nx, ngain, nbias = x._node, gain._node, bias._node

    def backward(g):
        _accumulate(nx, _standardize_grad(g * gv, xhat, inv, -1))
        lead = tuple(range(g.ndim - 1))
        _accumulate(ngain, (g * xhat).sum(axis=lead))
        _accumulate(nbias, g.sum(axis=lead))

    return _result(out_values, (nx, ngain, nbias), backward)


def batch_norm_train(x: Tensor) -> Tensor:
    """Standardize each column of a (B, d) batch with population statistics.

    No affine parameters, no running averages: outputs feed a loss directly
    and are never used at inference time.
    """
    if x.values.ndim != 2:
        raise ShapeError(f"batch_norm_train expects a (B, d) matrix, got {x.shape}")
    B = x.shape[0]
    if B < 2:
        raise BatchTooSmallError(f"batch_norm_train requires B >= 2, got B={B}")
    xhat, inv = _standardize(x.values, 0)
    nx = x._node

    def backward(g):
        _accumulate(nx, _standardize_grad(g.copy(), xhat, inv, 0))

    return _result(xhat, (nx,), backward)


# -- lookup / gather ------------------------------------------------------------


def _check_ids(ids: np.ndarray, V: int, what: str) -> None:
    """Raise ``IndexError`` unless every id of ``ids`` is in [0, V)."""
    if ids.size and (ids.min() < 0 or ids.max() >= V):
        raise IndexError(f"{what} id out of range [0, {V}): min={ids.min()}, max={ids.max()}")


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of ``table`` (V, n) by integer ids; gradients scatter-add."""
    ids = np.asarray(ids)
    _check_ids(ids, table.shape[0], "embedding")
    out_values = table.values[ids]
    nt = table._node

    def backward(g):
        # Scatter into a copy of the gradient so far: one buffer per lookup,
        # summed afterwards, would change the order of the additions.
        grad = np.zeros(nt.shape, dtype=nt.dtype) if nt.grad is None else nt.grad.copy()
        np.add.at(grad, ids.reshape(-1), g.reshape(-1, nt.shape[1]))
        nt.grad = grad

    return _result(out_values, (nt,), backward)


# -- mask-aware pooling ----------------------------------------------------------


def _pool_mask(x: Tensor, mask: np.ndarray, kind: str) -> np.ndarray:
    """``mask`` as a boolean (B, t) array with an unmasked position in every row."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != x.shape[:2]:
        raise ShapeError(f"pool mask shape {mask.shape} must match {x.shape[:2]}")
    if not mask.any(axis=1).all():
        raise DegenerateInputError(f"{kind} pool: a row has no unmasked position")
    return mask


def masked_mean_pool(x: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over unmasked time steps: (B, t, h) with mask (B, t) -> (B, h).
    The counts take ``x``'s dtype, so a float32 batch stays float32."""
    mask = _pool_mask(x, mask, "mean")
    counts = mask.sum(axis=1, dtype=x.dtype)
    m = mask[..., None].astype(x.dtype)
    out_values = (x.values * m).sum(axis=1) / counts[:, None]
    nx = x._node

    def backward(g):
        _accumulate(nx, m * (g / counts[:, None])[:, None, :])

    return _result(out_values, (nx,), backward)


def masked_max_pool(x: Tensor, mask: np.ndarray) -> Tensor:
    """Elementwise max over unmasked time steps; ties go to the earliest step."""
    mask = _pool_mask(x, mask, "max")
    guarded = np.where(mask[..., None], x.values, -np.inf)
    arg = guarded.argmax(axis=1)
    B, _, H = x.shape
    bi = np.arange(B)[:, None]
    hi = np.arange(H)[None, :]
    out_values = x.values[bi, arg, hi]
    nx = x._node

    def backward(g):
        full = np.zeros(nx.shape, dtype=nx.dtype)
        np.add.at(full, (bi, arg, hi), g)
        _accumulate(nx, full)

    return _result(out_values, (nx,), backward)


# -- losses ---------------------------------------------------------------------
#
# Each loss is one tape node whose forward and backward run the numpy calls,
# in the order and on the array layouts, of the chain of generic ops it
# replaces, including the order in which that chain summed the gradients of
# arrays it read more than once. So values and input gradients are that
# chain's bits. A constant that meets a 0-d value is cast to the inputs'
# dtype first, so float32 stays float32.


def nll(logits: Tensor, ids: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of ``ids`` under ``logits`` over the
    positions where ``mask`` holds: logits (..., V), ids and mask (...).

    Fuses the log-softmax over the last axis, the gather of the gold entries
    and the masked mean. The backward keeps the softmax probabilities.
    """
    ids = np.asarray(ids)
    mask = np.asarray(mask, dtype=bool)
    xv = logits.values
    if ids.shape != xv.shape[:-1] or mask.shape != ids.shape:
        raise ShapeError(f"nll expects logits (..., V) and ids and mask of its leading shape, "
                         f"got {logits.shape}, {ids.shape} and {mask.shape}")
    _check_ids(ids, xv.shape[-1], "nll")
    count = int(mask.sum())
    if count == 0:
        raise DegenerateInputError("nll: every target position is masked")
    shifted = xv - xv.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    weight = mask.astype(xv.dtype)
    scale = np.asarray(1.0 / count, dtype=xv.dtype)
    picked = np.take_along_axis(logp, ids[..., None], axis=-1)[..., 0]
    out_values = -((picked * weight).sum() * scale)
    soft = np.exp(logp)
    nx = logits._node

    def backward(g):
        g_logp = np.zeros(nx.shape, dtype=nx.dtype)
        np.add.at(g_logp, (*np.indices(ids.shape), ids), -g * scale * weight)
        _accumulate(nx, g_logp - soft * g_logp.sum(axis=-1, keepdims=True))

    return _result(out_values, (nx,), backward)


def barlow_twins(zs: Tensor, zt: Tensor, lam: float,
                 eps: float) -> tuple[Tensor, np.ndarray, float, float]:
    """The Barlow Twins loss of two batch-normalized (B, d) projection
    batches. Returns the loss Tensor, the (d, d) correlation and the
    invariance and redundancy terms:

        C[i, j] = sum_b zs[b, i] zt[b, j] / (sqrt(sum_b zs[b, i]^2 + eps)
                                             sqrt(sum_b zt[b, j]^2 + eps))
        loss = sum_i (1 - C[i, i])^2  +  lam * sum_{i != j} C[i, j]^2

    With ``eps=0.0`` a zero-norm column raises ``NumericError``. The
    backward keeps the inputs and the (d, d) and (d,) arrays of the forward.
    """
    sv, tv = zs.values, zt.values
    if sv.ndim != 2 or sv.shape != tv.shape:
        raise ShapeError(f"projection batches must share a (B, d) shape: {zs.shape} vs {zt.shape}")
    ss, tt = (sv * sv).sum(axis=0), (tv * tv).sum(axis=0)
    if eps == 0.0 and (np.minimum(ss, tt) == 0.0).any():
        raise NumericError("cross-correlation: zero-norm column with eps disabled")
    d = sv.shape[1]
    lam_c = np.asarray(lam, dtype=sv.dtype)
    rs, rt = np.sqrt(ss + eps), np.sqrt(tt + eps)
    ns, nt = rs.reshape(d, 1), rt.reshape(1, d)
    svt = np.ascontiguousarray(sv.T)
    m = svt @ tv
    den = ns * nt
    c = m / den
    diag = np.diagonal(c)
    off = 1.0 - diag
    invariance = (off * off).sum()
    redundancy = (c * c).sum() - (diag * diag).sum()
    out_values = invariance + redundancy * lam_c
    node_s, node_t = zs._node, zt._node

    def backward(g):
        g_red = g * lam_c
        g_off = -(g * off)                       # from each factor of (1 - C_ii)^2
        g_sq = -g_red * diag                     # from each factor of C_ii^2
        g_diag = g_off + g_off + g_sq + g_sq
        g_cc = g_red * c                         # from each factor of C_ij^2
        g_c = g_cc + g_cc + np.diag(g_diag)
        g_m = g_c / den
        g_den = -g_c * m / (den * den)
        g_ss = _unbroadcast(g_den * nt, ns.shape).reshape(d) * 0.5 / rs
        g_tt = _unbroadcast(g_den * ns, nt.shape).reshape(d) * 0.5 / rt
        # Each input reaches C through the product and through both factors
        # of its squared column norms, in this order.
        _accumulate(node_t, svt.T @ g_m)
        _accumulate(node_s, np.transpose(g_m @ tv.T))
        _accumulate(node_s, g_ss * sv)
        _accumulate(node_s, g_ss * sv)
        _accumulate(node_t, g_tt * tv)
        _accumulate(node_t, g_tt * tv)

    loss = _result(out_values, (node_s, node_t), backward)
    return loss, c, float(invariance), float(redundancy)


# -- gradient checking --------------------------------------------------------


def grad_check(f: Callable[..., Tensor], inputs: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Compare analytic gradients of a scalar function against central differences.

    Returns the max over all coordinates of
    ``|analytic - central| / max(1, |central|)``.
    """
    for t in inputs:
        t.grad = None
    out = f(*inputs)
    if out.values.size != 1:
        raise NumericError("grad_check requires a scalar-valued function")
    out.backward()
    analytic = [np.zeros_like(t.values) if t.grad is None else t.grad.copy() for t in inputs]

    worst = 0.0
    for t, ana in zip(inputs, analytic):
        flat = t.values.reshape(-1)
        ana_flat = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = f(*inputs).item()
            flat[i] = orig - eps
            f_minus = f(*inputs).item()
            flat[i] = orig
            central = (f_plus - f_minus) / (2.0 * eps)
            err = abs(ana_flat[i] - central) / max(1.0, abs(central))
            if err > worst:
                worst = err
    return worst
