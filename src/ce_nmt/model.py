"""Transformer encoder-decoder, mask-aware pooling, and the projection network.

Architecture choices fixed here:
  - pre-layer-norm blocks with a final layer norm after each stack,
  - sinusoidal (non-learned) positional encodings,
  - padding-masked (bidirectional) self-attention in the encoder,
    causal + padding-masked self-attention and padding-masked
    cross-attention in the decoder,
  - token embeddings of width ``emb_dim`` mapped into the model width by a
    learned input projection, scaled by sqrt(dim) before positions are added.

The encoder works on packed rows: it embeds only the valid source tokens,
runs the layer norms, feed-forward layers and residual adds on those (n,
dim) rows, and scatters each layer's normalized input into the zero-padded
(B, t, dim) layout only for self-attention (``numerics.RowLayout``). Its
latent is exactly 0.0 at PAD. The packed linear layers reduce their weight
gradients over the zero-padded rows, so at widths that are multiples of 8
the encoder gives the bits of the same computation on the padded layout.
Dropout masks are drawn on the padded shape, so the random stream does not
depend on where the padding sits. The decoder runs on the padded layout.

All forward passes are deterministic functions of (parameters, inputs) when
dropout is disabled. Masked positions carry exactly zero attention weight,
so any change confined to padding leaves unmasked outputs bitwise unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from . import numerics as N
from .data import BOS
from .errors import ConfigError
from .numerics import Tensor

# sentence pooling kind -> the masked pool of ``numerics`` it runs
POOLS = {"mean": N.masked_mean_pool, "max": N.masked_max_pool}
POOLING_KINDS = tuple(POOLS)

# a checkpoint stores each tensor dimension as a uint32
_MAX_SIZE = 2**32 - 1

# The one rule of each bounded config value, whether it comes from a flag, a
# config-file line, a ModelConfig or CEConfig field (a checkpoint header
# builds a ModelConfig) or the optimizer's arguments: field -> (lowest,
# highest, lowest excluded, highest excluded, allowed choices). None is no
# limit; a float that ends at an excluded math.inf must be finite.
# finetune_steps -1 means as many as steps, ff_dim 0 means 4*dim, and lam 0
# (the redundancy term off) is a diagnostic edge. max_len sizes the buffers
# a DecodeCache allocates up front and greedy decoding's output rows, so it
# is capped at 1024 positions: far past any sentence here, and a checkpoint
# header cannot ask for more than memory holds.
BOUNDS = {
    "seed": (0, None, False, False, ()),
    "steps": (0, None, False, False, ()),
    "finetune_steps": (-1, None, False, False, ()),
    "lr": (0, math.inf, True, True, ()),
    "warmup": (1, None, False, False, ()),
    "batch_size": (1, None, False, False, ()),
    "min_freq": (1, None, False, False, ()),
    "max_vocab": (5, None, False, False, ()),
    "src_vocab": (5, _MAX_SIZE, False, False, ()),
    "tgt_vocab": (5, _MAX_SIZE, False, False, ()),
    "depth": (1, 24, False, False, ()),
    "dim": (1, _MAX_SIZE, False, False, ()),
    "heads": (1, None, False, False, ()),
    "ff_dim": (0, _MAX_SIZE, False, False, ()),
    "emb_dim": (1, _MAX_SIZE, False, False, ()),
    "proj_dim": (1, _MAX_SIZE, False, False, ()),
    "max_len": (3, 1024, False, False, ()),
    "dropout": (0, 1, False, True, ()),
    "lam": (0, math.inf, False, True, ()),
    "epochs": (1, 1000, False, False, ()),
    "pooling": (None, None, False, False, POOLING_KINDS),
}


def describe_bounds(name: str) -> str:
    """``BOUNDS[name]`` in words, as ``--help`` and the errors give it."""
    lo, hi, lo_open, hi_open, choices = BOUNDS[name]
    if choices:
        return "one of " + ", ".join(map(repr, choices))
    low = f"{'>' if lo_open else '>='} {lo}"
    if hi is None:
        return low
    if hi == math.inf:
        return f"finite and {low}"
    return f"in {'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}"


def check_bounds(name: str, value) -> None:
    """Raise ``ConfigError("<name> must be <rule>, got <value>")`` unless
    ``value`` meets ``BOUNDS[name]``."""
    lo, hi, lo_open, hi_open, choices = BOUNDS[name]
    if choices:
        ok = value in choices
    else:
        ok = (value > lo if lo_open else value >= lo) \
            and (hi is None or (value < hi if hi_open else value <= hi))
    if not ok:
        raise ConfigError(f"{name} must be {describe_bounds(name)}, got {value!r}")


@dataclass(frozen=True)
class ModelConfig:
    src_vocab: int
    tgt_vocab: int
    depth: int = 2
    dim: int = 64
    heads: int = 4
    ff_dim: int = 0          # 0 means the 4*dim default
    proj_dim: int = 32
    pooling: str = "mean"
    emb_dim: int = 64
    dropout: float = 0.0
    max_len: int = 64

    def __post_init__(self):
        if self.ff_dim == 0:
            object.__setattr__(self, "ff_dim", 4 * self.dim)
        for f in fields(self):
            check_bounds(f.name, getattr(self, f.name))
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")


class ParamGroup:
    """Named parameter tensors in a fixed construction order."""

    def __init__(self, tensors: dict[str, Tensor]):
        self.tensors = dict(tensors)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self.tensors.items())

    def copy(self) -> "ParamGroup":
        return ParamGroup({k: Tensor(v.values.copy(), requires_grad=True)
                           for k, v in self.tensors.items()})


GROUPS = ("encoder", "decoder", "projection")


def _attn_layout(h: int, prefix: str) -> list:
    return [(f"{prefix}.{name}", (h, h), "glorot") for name in ("wq", "wk", "wv", "wo")]


def _ln_layout(h: int, prefix: str) -> list:
    return [(f"{prefix}_g", (h,), "ones"), (f"{prefix}_b", (h,), "zeros")]


def _ff_layout(h: int, ff: int, prefix: str) -> list:
    return [(f"{prefix}.w1", (h, ff), "glorot"), (f"{prefix}.b1", (ff,), "zeros"),
            (f"{prefix}.w2", (ff, h), "glorot"), (f"{prefix}.b2", (h,), "zeros")]


def param_layout(cfg: ModelConfig, group: str) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, init kind) of every parameter of ``group``, in order.

    The order is the construction order, which fixes both the random draws
    of the init and the tensor order of a checkpoint. Init kinds: "normal"
    (std emb_dim^-1/2), "glorot" (uniform), "ones", "zeros".
    """
    if group not in GROUPS:
        raise ConfigError(f"parameter group must be one of {GROUPS}, got {group!r}")
    h = cfg.dim
    if group == "projection":
        d = cfg.proj_dim
        return [("w1", (h, d), "glorot"), ("b1", (d,), "zeros"),
                ("w2", (d, d), "glorot"), ("b2", (d,), "zeros"),
                ("w3", (d, d), "glorot"), ("b3", (d,), "zeros")]
    vocab = cfg.src_vocab if group == "encoder" else cfg.tgt_vocab
    out = [("embed", (vocab, cfg.emb_dim), "normal"),
           ("in_w", (cfg.emb_dim, h), "glorot"), ("in_b", (h,), "zeros")]
    attn = ("attn",) if group == "encoder" else ("self", "cross")
    for i in range(cfg.depth):
        for j, kind in enumerate(attn, start=1):
            out += _ln_layout(h, f"layer{i}.ln{j}") + _attn_layout(h, f"layer{i}.{kind}")
        out += _ln_layout(h, f"layer{i}.ln{len(attn) + 1}") \
            + _ff_layout(h, cfg.ff_dim, f"layer{i}.ff")
    out += _ln_layout(h, "final_ln")
    if group == "decoder":
        out += [("out_w", (h, cfg.tgt_vocab), "glorot"), ("out_b", (cfg.tgt_vocab,), "zeros")]
    return out


def init_params(cfg: ModelConfig, group: str, rng: np.random.Generator, dtype=np.float64,
                embed_table: np.ndarray | None = None) -> ParamGroup:
    """Fresh parameters of ``group``, drawn from ``rng`` in ``param_layout``
    order; ``embed_table`` (src_vocab x emb_dim, encoder only) replaces the
    draw of ``embed``."""
    if embed_table is not None and group != "encoder":
        raise ConfigError(f"an embedding table seeds the encoder only, not the {group}")
    if embed_table is not None and embed_table.shape != (cfg.src_vocab, cfg.emb_dim):
        raise ConfigError(f"embedding table shape {embed_table.shape} does not match "
                          f"(src_vocab, emb_dim)=({cfg.src_vocab}, {cfg.emb_dim})")
    out: dict[str, Tensor] = {}
    for name, shape, kind in param_layout(cfg, group):
        if name == "embed" and embed_table is not None:
            values = embed_table.astype(dtype)     # a copy: training must not write the caller's table
        elif kind == "normal":
            values = rng.normal(0.0, shape[1] ** -0.5, size=shape).astype(dtype, copy=False)
        elif kind == "glorot":
            limit = math.sqrt(6.0 / (shape[0] + shape[1]))
            values = rng.uniform(-limit, limit, size=shape).astype(dtype, copy=False)
        else:
            values = (np.ones if kind == "ones" else np.zeros)(shape, dtype=dtype)
        out[name] = Tensor(values, requires_grad=True)
    return ParamGroup(out)


# -- representation records ------------------------------------------------------


@dataclass
class LatentSequence:
    """Per-token latent states (B, t, dim) with their validity mask (B, t)."""

    values: Tensor
    mask: np.ndarray


class DecodeCache:
    """What incremental ``decode`` calls on one batch carry between them.

    ``DecodeCache(latent, params, cfg)`` builds everything for the latent's
    batch of B rows, in the latent's dtype (a float32 run decodes in
    float32), and each ``decode`` call writes only its own positions into
    it:
      - ``length``: target positions decoded so far, 0 at first;
      - ``key_mask`` (B, max_len): the target key mask, valid up to ``length``;
      - ``positions`` (max_len, dim): the sinusoidal encodings;
      - ``self_kv``: per layer, self-attention keys (B·heads, head_dim,
        max_len) and values (B·heads, max_len, head_dim), filled up to
        ``length``;
      - ``cross_kv``: per layer, the latent's cross-attention keys (B·heads,
        head_dim, src_len) and values (B·heads, src_len, head_dim), split
        into heads here, once.
    Keys are stored transposed, so both are in the layouts the attention
    products read (``numerics.attend_cached``). Cached decoding runs under
    ``numerics.no_grad()``, so no gradient can flow through the cache.

    The head-major rows of batch row b are b·heads to b·heads + heads - 1,
    so ``narrow`` can drop the last rows of a batch without copying.
    """

    def __init__(self, latent: LatentSequence, params: ParamGroup, cfg: ModelConfig):
        B, hd, dtype = latent.values.shape[0], cfg.dim // cfg.heads, latent.values.dtype
        self.length = 0
        self.key_mask = np.zeros((B, cfg.max_len), dtype=bool)
        self.positions = sinusoidal_positions(cfg.max_len, cfg.dim, dtype)
        self.self_kv = [(np.empty((B * cfg.heads, hd, cfg.max_len), dtype),
                         np.empty((B * cfg.heads, cfg.max_len, hd), dtype))
                        for _ in range(cfg.depth)]
        self.cross_kv = [tuple(np.ascontiguousarray(a) for a in
                               _heads_kv(latent.values, params, f"layer{i}.cross", cfg.heads))
                         for i in range(cfg.depth)]

    def narrow(self, n: int) -> None:
        """Keep the first ``n`` batch rows: the key mask and every self- and
        cross-attention buffer become views of their first ``n`` (``n·heads``)
        rows. A first-axis slice of a C-contiguous array is contiguous, so
        nothing is copied, later calls write into the same buffers, and the
        attention products read the same layouts. Later ``decode`` calls
        must pass a batch of ``n`` rows."""
        heads = self.self_kv[0][0].shape[0] // self.key_mask.shape[0]
        self.key_mask = self.key_mask[:n]
        self.self_kv = [(k[:n * heads], v[:n * heads]) for k, v in self.self_kv]
        self.cross_kv = [(k[:n * heads], v[:n * heads]) for k, v in self.cross_kv]


# -- building blocks ---------------------------------------------------------------


def sinusoidal_positions(t: int, dim: int, dtype=np.float64) -> np.ndarray:
    pos = np.arange(t, dtype=np.float64)[:, None]
    idx = np.arange(dim, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, (2.0 * np.floor(idx / 2.0)) / dim)
    pe = np.where(idx % 2 == 0, np.sin(angles), np.cos(angles))
    return pe.astype(dtype)


def _dropout(x: Tensor, rate: float, rng: np.random.Generator | None,
             rows: N.RowLayout | None = None) -> Tensor:
    """Inverted dropout. For packed rows the mask is drawn on the padded
    (B, t, d) shape and then gathered, so the random stream does not depend
    on where the padding sits."""
    if rate <= 0.0 or rng is None:
        return x
    shape = x.shape if rows is None else (*rows.shape, x.shape[-1])
    keep = (rng.random(shape) >= rate).astype(x.dtype)
    if rows is not None:
        keep = rows.pack(keep)
    return x * (keep / (1.0 - rate))


def _keys_values(x: Tensor, params: ParamGroup, prefix: str) -> tuple[Tensor, Tensor]:
    return N.linear(x, params[f"{prefix}.wk"]), N.linear(x, params[f"{prefix}.wv"])


def _mha_layer(x_q: Tensor, kv: tuple, params: ParamGroup, prefix: str,
               mask: np.ndarray, cfg: ModelConfig, attend) -> Tensor:
    """Attention sublayer; ``kv`` are (B, tk, dim) Tensors for ``attend`` =
    ``N.multi_head_attention``, or head-major arrays for ``N.attend_cached``."""
    q = N.linear(x_q, params[f"{prefix}.wq"])
    return N.linear(attend(q, *kv, mask, cfg.heads), params[f"{prefix}.wo"])


def _heads_kv(x: Tensor, params: ParamGroup, prefix: str, heads: int) -> tuple[np.ndarray, np.ndarray]:
    """Keys (B·heads, head_dim, t), transposed, and values (B·heads, t, head_dim)."""
    k, v = _keys_values(x, params, prefix)
    return np.transpose(N.split_heads(k.values, heads), (0, 2, 1)), N.split_heads(v.values, heads)


def _ff(x: Tensor, params: ParamGroup, prefix: str, rows: N.RowLayout | None = None) -> Tensor:
    hidden = N.relu(N.linear(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"], rows))
    return N.linear(hidden, params[f"{prefix}.w2"], params[f"{prefix}.b2"], rows)


def _ln(x: Tensor, params: ParamGroup, prefix: str) -> Tensor:
    return N.layer_norm(x, params[f"{prefix}_g"], params[f"{prefix}_b"])


def _embed_inputs(ids: np.ndarray, pe: np.ndarray, params: ParamGroup, cfg: ModelConfig,
                  rng: np.random.Generator | None, rows: N.RowLayout | None = None) -> Tensor:
    """Embed ``ids`` and add the positional encodings ``pe`` (broadcast
    against them); with ``rows``, ``ids`` are that layout's packed valid ids."""
    emb = N.embedding_lookup(params["embed"], ids)
    x = N.linear(emb, params["in_w"], params["in_b"], rows) * math.sqrt(cfg.dim)
    x = x + pe.astype(x.dtype, copy=False)
    return _dropout(x, cfg.dropout, rng, rows)


def _ids_and_mask(ids, mask) -> tuple[np.ndarray, np.ndarray]:
    """``ids`` and a boolean ``mask`` as arrays, checked to be matching (B, t)."""
    ids, mask = np.asarray(ids), np.asarray(mask, dtype=bool)
    if ids.shape != mask.shape or ids.ndim != 2:
        raise ConfigError(f"ids shape {ids.shape} and mask shape {mask.shape} must match (B, t)")
    return ids, mask


def encode(src_ids: np.ndarray, src_mask: np.ndarray, params: ParamGroup,
           cfg: ModelConfig, rng: np.random.Generator | None = None) -> LatentSequence:
    """Map source token ids (B, t) to latent states (B, t, dim), exactly 0.0 at PAD.

    Self-attention is padding-masked only: every unmasked position sees every
    other unmasked position. The position-wise work (embedding, input
    projection, layer norms, feed-forward, residual adds) runs on the packed
    valid rows of ``src_mask``; each layer's attention sublayer runs on the
    zero-padded (B, t, dim) layout. PAD tokens never enter the arithmetic,
    so their ids are never read.
    """
    src_ids, src_mask = _ids_and_mask(src_ids, src_mask)
    t = src_ids.shape[1]
    if t > cfg.max_len:
        raise ConfigError(f"sequence length {t} exceeds max_len {cfg.max_len}")
    rows = N.RowLayout(src_mask)
    pe = sinusoidal_positions(t, cfg.dim)[rows.index % t]
    x = _embed_inputs(np.take(src_ids, rows.index), pe, params, cfg, rng, rows)
    for i in range(cfg.depth):
        y = N.scatter_rows(_ln(x, params, f"layer{i}.ln1"), rows)
        attn_out = _mha_layer(y, _keys_values(y, params, f"layer{i}.attn"), params,
                              f"layer{i}.attn", src_mask, cfg, N.multi_head_attention)
        x = x + _dropout(N.gather_rows(attn_out, rows), cfg.dropout, rng, rows)
        ff_out = _ff(_ln(x, params, f"layer{i}.ln2"), params, f"layer{i}.ff", rows)
        x = x + _dropout(ff_out, cfg.dropout, rng, rows)
    return LatentSequence(N.scatter_rows(_ln(x, params, "final_ln"), rows), src_mask)


def decode(latent: LatentSequence, tgt_ids: np.ndarray, tgt_mask: np.ndarray,
           params: ParamGroup, cfg: ModelConfig,
           rng: np.random.Generator | None = None,
           cache: DecodeCache | None = None) -> Tensor:
    """Causal decoding of a target prefix against an encoded source.

    Returns logits (B, t2, tgt_vocab). Logits at position j depend only on
    target positions <= j and on unmasked source positions.

    With a ``cache`` built on this latent (only under ``numerics.no_grad()``),
    ``tgt_ids`` and ``tgt_mask`` are the positions after the ``cache.length``
    already decoded ones. Each call writes its own positions' self-attention
    keys, values and key mask into the cache's buffers and attends to the
    head-major arrays there, the cross-attention keys and values the cache
    split at construction included, through ``numerics.attend_cached``, the
    forward of ``multi_head_attention`` (see ``DecodeCache``). Logits agree
    with one uncached call on the whole prefix to rounding, not bitwise.

    A prefix longer than ``cfg.max_len`` in all, cached or not, raises
    ``ConfigError``, as a longer source does in ``encode``; so does a
    cached call whose batch size is not the cache's.

    Each layer runs self-attention before cross-attention, so inside
    ``numerics.attention_maps()`` the maps alternate self, cross, layer by
    layer; ``evaluation.export_diagnostics`` relies on that order."""
    tgt_ids, tgt_mask = _ids_and_mask(tgt_ids, tgt_mask)
    B, t2 = tgt_ids.shape
    if B != latent.values.shape[0]:
        raise ConfigError(f"batch mismatch: latent has {latent.values.shape[0]} rows, target has {B}")
    if cache is not None and N.grad_enabled():
        raise ConfigError("decode with a cache must run under numerics.no_grad(): "
                          "the cache holds plain arrays, not the tape")
    start = 0 if cache is None else cache.length
    end = start + t2
    if end > cfg.max_len:
        raise ConfigError(f"target length {end} exceeds max_len {cfg.max_len}")
    if start == 0 and (tgt_ids[:, 0] != BOS).any():
        raise ConfigError("target prefix must begin with BOS")
    if cache is None:
        key_mask, pe = tgt_mask, sinusoidal_positions(t2, cfg.dim)
    else:
        if cache.key_mask.shape[0] != B:
            raise ConfigError(f"the cache serves a batch of {cache.key_mask.shape[0]} rows, "
                              f"this call has {B}")
        cache.key_mask[:, start:end] = tgt_mask
        key_mask, pe = cache.key_mask, cache.positions[start:end]
    # query j (position start + j) sees keys 0 .. start + j that are not PAD
    self_mask = np.tril(np.ones((t2, end), dtype=bool), k=start) & key_mask[:, None, :end]
    x = _embed_inputs(tgt_ids, pe, params, cfg, rng)
    attend = N.multi_head_attention if cache is None else N.attend_cached
    for i in range(cfg.depth):
        y = _ln(x, params, f"layer{i}.ln1")
        if cache is None:
            kv = _keys_values(y, params, f"layer{i}.self")
        else:
            keys, values = cache.self_kv[i]
            keys[:, :, start:end], values[:, start:end] = _heads_kv(y, params, f"layer{i}.self", cfg.heads)
            kv = keys[:, :, :end], values[:, :end]
        x = x + _dropout(_mha_layer(y, kv, params, f"layer{i}.self", self_mask, cfg, attend),
                         cfg.dropout, rng)
        y = _ln(x, params, f"layer{i}.ln2")
        if cache is None:
            kv = _keys_values(latent.values, params, f"layer{i}.cross")
        else:
            kv = cache.cross_kv[i]
        x = x + _dropout(_mha_layer(y, kv, params, f"layer{i}.cross", latent.mask, cfg, attend),
                         cfg.dropout, rng)
        x = x + _dropout(_ff(_ln(x, params, f"layer{i}.ln3"), params, f"layer{i}.ff"), cfg.dropout, rng)
    if cache is not None:
        cache.length = end
    x = _ln(x, params, "final_ln")
    return N.linear(x, params["out_w"], params["out_b"])


def pool(latent: LatentSequence, kind: str) -> Tensor:
    """Aggregate unmasked latent states into one vector per sentence: the
    sentence embeddings (B, dim), by the ``POOLS`` entry of ``kind``."""
    check_bounds("pooling", kind)
    return POOLS[kind](latent.values, latent.mask)


def project(sentences: Tensor, params: ParamGroup) -> Tensor:
    """Map pooled sentence embeddings (B, dim) to (B, proj_dim) through
    three linear layers; the first two are batch-normalized and rectified.

    The final layer is bare: the loss pipeline applies its own batch norm.
    """
    x = N.relu(N.batch_norm_train(N.linear(sentences, params["w1"], params["b1"])))
    x = N.relu(N.batch_norm_train(N.linear(x, params["w2"], params["b2"])))
    return N.linear(x, params["w3"], params["b3"])
