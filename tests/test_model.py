import threading

import numpy as np
import pytest

from _oracles import encode_reference, tsum
from ce_nmt import model as M
from ce_nmt import numerics as N
from ce_nmt.data import BOS, EOS, PAD
from ce_nmt.errors import BatchTooSmallError, ConfigError, DegenerateInputError, NumericError


def small_config(**overrides):
    base = dict(src_vocab=12, tgt_vocab=10, depth=2, dim=8, heads=2,
                ff_dim=16, proj_dim=4, pooling="mean", emb_dim=6, max_len=16)
    base.update(overrides)
    return M.ModelConfig(**base)


def random_batch(rng, cfg, B=3, t=5, vocab=None):
    vocab = vocab or cfg.src_vocab
    lengths = rng.integers(2, t + 1, size=B)
    ids = np.full((B, t), PAD, dtype=np.int64)
    for b, L in enumerate(lengths):
        ids[b, 0] = BOS
        ids[b, 1:L - 1] = rng.integers(4, vocab, size=L - 2)
        ids[b, L - 1] = EOS
    return ids, ids != PAD


@pytest.fixture
def setup():
    cfg = small_config()
    rng = np.random.default_rng(11)
    enc = M.init_params(cfg, "encoder", rng)
    dec = M.init_params(cfg, "decoder", rng)
    proj = M.init_params(cfg, "projection", rng)
    return cfg, rng, enc, dec, proj


# -- config validation --------------------------------------------------------

def test_config_rejects_bad_heads():
    with pytest.raises(ConfigError):
        small_config(dim=9, heads=2)


def test_config_rejects_bad_pooling():
    with pytest.raises(ConfigError):
        small_config(pooling="cls")


def test_config_rejects_depth_out_of_range():
    with pytest.raises(ConfigError):
        small_config(depth=25)


def test_init_params_follows_param_layout():
    cfg = small_config()
    for group in M.GROUPS:
        params = M.init_params(cfg, group, np.random.default_rng(0), np.float32)
        assert [(name, t.shape) for name, t in params.items()] == \
            [(name, shape) for name, shape, _ in M.param_layout(cfg, group)]
        assert all(t.dtype == np.float32 for _, t in params.items())


@pytest.mark.parametrize("group", ["pooler", "Decoder", ""])
def test_param_layout_rejects_unknown_group(group):
    cfg = small_config()
    with pytest.raises(ConfigError, match="group"):
        M.param_layout(cfg, group)
    with pytest.raises(ConfigError, match="group"):
        M.init_params(cfg, group, np.random.default_rng(0))


def test_init_params_embedding_table():
    cfg = small_config()
    table = np.arange(cfg.src_vocab * cfg.emb_dim, dtype=np.float64).reshape(cfg.src_vocab, -1)
    enc = M.init_params(cfg, "encoder", np.random.default_rng(0), embed_table=table)
    assert enc["embed"].values.tobytes() == table.tobytes()
    assert not np.shares_memory(enc["embed"].values, table)    # training must not write it
    with pytest.raises(ConfigError, match="does not match"):
        M.init_params(cfg, "encoder", np.random.default_rng(0), embed_table=table[:, 1:])
    with pytest.raises(ConfigError, match="encoder only"):
        M.init_params(cfg, "decoder", np.random.default_rng(0), embed_table=table)


def test_config_ff_dim_defaults_to_4x():
    cfg = M.ModelConfig(src_vocab=8, tgt_vocab=8, dim=16, heads=2, ff_dim=0)
    assert cfg.ff_dim == 64


# -- encode ---------------------------------------------------------------------

def test_encode_output_shape(setup):
    cfg, rng, enc, _, _ = setup
    ids, mask = random_batch(rng, cfg)
    latent = M.encode(ids, mask, enc, cfg)
    assert latent.values.shape == (3, 5, cfg.dim)


def test_encode_batch_equivariance(setup):
    cfg, rng, enc, _, _ = setup
    ids, mask = random_batch(rng, cfg, B=4)
    out = M.encode(ids, mask, enc, cfg).values.values
    perm = np.array([2, 0, 3, 1])
    out_perm = M.encode(ids[perm], mask[perm], enc, cfg).values.values
    assert np.array_equal(out[perm], out_perm)


def test_encode_pad_change_leaves_unmasked_outputs(setup):
    cfg, rng, enc, _, _ = setup
    ids, mask = random_batch(rng, cfg, B=2, t=6)
    assert not mask.all(), "need at least one PAD position"
    out = M.encode(ids, mask, enc, cfg).values.values
    altered = ids.copy()
    pads = np.argwhere(~mask)
    b, t = pads[0]
    altered[b, t] = 7  # arbitrary non-PAD id dropped into a masked slot
    out2 = M.encode(altered, mask, enc, cfg).values.values
    assert np.array_equal(out[mask], out2[mask])


def test_encode_deterministic_without_dropout(setup):
    cfg, rng, enc, _, _ = setup
    ids, mask = random_batch(rng, cfg)
    a = M.encode(ids, mask, enc, cfg).values.values
    b = M.encode(ids, mask, enc, cfg).values.values
    assert np.array_equal(a, b)


def test_encode_dropout_is_seeded():
    cfg = small_config(dropout=0.2)
    rng = np.random.default_rng(3)
    enc = M.init_params(cfg, "encoder", rng)
    ids, mask = random_batch(np.random.default_rng(0), cfg)
    a = M.encode(ids, mask, enc, cfg, rng=np.random.default_rng(5)).values.values
    b = M.encode(ids, mask, enc, cfg, rng=np.random.default_rng(5)).values.values
    c = M.encode(ids, mask, enc, cfg, rng=np.random.default_rng(6)).values.values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


# Source batches for the packed-encoder oracle tests, as row lengths of a
# (B, t) batch: no PAD at all, rows of only BOS and EOS, and a 60% PAD share.
PACKED_BATCHES = {
    "no_pad": (7, [7, 7, 7, 7]),
    "bos_eos_rows": (6, [2, 6, 2, 4, 2]),
    "pad_60": (10, [2, 2, 4, 6, 6]),
}


def batch_of_lengths(rng, vocab, t, lengths):
    ids = np.full((len(lengths), t), PAD, dtype=np.int64)
    for b, L in enumerate(lengths):
        ids[b, 0] = BOS
        ids[b, 1:L - 1] = rng.integers(4, vocab, size=L - 2)
        ids[b, L - 1] = EOS
    return ids, ids != PAD


def encode_and_grads(encoder_fn, ids, mask, enc, cfg, pooling, weight, dropout_seed=None):
    """Latent values and every encoder gradient through a pooled loss."""
    for p in enc.tensors.values():
        p.grad = None
    rng = None if dropout_seed is None else np.random.default_rng(dropout_seed)
    latent = encoder_fn(ids, mask, enc, cfg, rng=rng)
    tsum(M.pool(latent, pooling) * weight).backward()
    return latent.values.values, {k: p.grad for k, p in enc.items()}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("batch", sorted(PACKED_BATCHES))
@pytest.mark.parametrize("pooling", ["mean", "max"])
def test_encode_matches_padded_reference_bitwise(dtype, batch, pooling):
    # Every width is a multiple of 8: there a GEMM over the packed rows gives
    # the bits of those rows of the padded product.
    cfg = small_config(src_vocab=20, dim=16, heads=2, ff_dim=32, emb_dim=8)
    rng = np.random.default_rng(len(batch) + 10 * (dtype == np.float32))
    enc = M.init_params(cfg, "encoder", rng, dtype=dtype)
    t, lengths = PACKED_BATCHES[batch]
    ids, mask = batch_of_lengths(rng, cfg.src_vocab, t, lengths)
    weight = rng.normal(size=cfg.dim)
    got, got_grads = encode_and_grads(M.encode, ids, mask, enc, cfg, pooling, weight)
    want, want_grads = encode_and_grads(encode_reference, ids, mask, enc, cfg, pooling, weight)
    assert got.dtype == dtype
    assert np.array_equal(got[mask], want[mask])
    assert np.all(got[~mask] == 0.0) and not np.signbit(got[~mask]).any()
    for name, g in want_grads.items():
        assert np.array_equal(got_grads[name], g), name


def test_encode_dropout_matches_padded_reference():
    cfg = small_config(src_vocab=20, dim=16, heads=2, ff_dim=32, emb_dim=8, dropout=0.3)
    rng = np.random.default_rng(21)
    enc = M.init_params(cfg, "encoder", rng)
    ids, mask = batch_of_lengths(rng, cfg.src_vocab, *PACKED_BATCHES["pad_60"])
    weight = rng.normal(size=cfg.dim)
    got, got_grads = encode_and_grads(M.encode, ids, mask, enc, cfg, "mean", weight, 8)
    want, want_grads = encode_and_grads(encode_reference, ids, mask, enc, cfg, "mean", weight, 8)
    plain, _ = encode_and_grads(M.encode, ids, mask, enc, cfg, "mean", weight)
    assert not np.array_equal(got, plain)
    assert np.array_equal(got[mask], want[mask])
    for name, g in want_grads.items():
        assert np.array_equal(got_grads[name], g), name


# -- decode -----------------------------------------------------------------------

def test_decode_output_shape(setup):
    cfg, rng, enc, dec, _ = setup
    src_ids, src_mask = random_batch(rng, cfg)
    tgt_ids, tgt_mask = random_batch(rng, cfg, t=4, vocab=cfg.tgt_vocab)
    latent = M.encode(src_ids, src_mask, enc, cfg)
    logits = M.decode(latent, tgt_ids, tgt_mask, dec, cfg)
    assert logits.shape == (3, 4, cfg.tgt_vocab)


def test_decode_requires_bos(setup):
    cfg, rng, enc, dec, _ = setup
    src_ids, src_mask = random_batch(rng, cfg)
    latent = M.encode(src_ids, src_mask, enc, cfg)
    bad = np.full((3, 4), 5, dtype=np.int64)
    with pytest.raises(ConfigError, match="BOS"):
        M.decode(latent, bad, bad != PAD, dec, cfg)


def test_decode_causality(setup):
    cfg, rng, enc, dec, _ = setup
    src_ids, src_mask = random_batch(rng, cfg)
    latent = M.encode(src_ids, src_mask, enc, cfg)
    tgt_ids, tgt_mask = random_batch(rng, cfg, t=5, vocab=cfg.tgt_vocab)
    logits = M.decode(latent, tgt_ids, tgt_mask, dec, cfg).values
    for j in range(4):
        altered = tgt_ids.copy()
        altered[:, j + 1] = (altered[:, j + 1] % (cfg.tgt_vocab - 4)) + 4
        logits2 = M.decode(latent, altered, altered != PAD, dec, cfg).values
        assert np.array_equal(logits[:, : j + 1], logits2[:, : j + 1]), f"position {j}"


def test_decode_source_pad_invariance(setup):
    cfg, rng, enc, dec, _ = setup
    src_ids, src_mask = random_batch(rng, cfg, B=2, t=6)
    assert not src_mask.all()
    tgt_ids, tgt_mask = random_batch(rng, cfg, B=2, t=4, vocab=cfg.tgt_vocab)
    logits = M.decode(M.encode(src_ids, src_mask, enc, cfg), tgt_ids, tgt_mask, dec, cfg).values
    altered = src_ids.copy()
    b, t = np.argwhere(~src_mask)[0]
    altered[b, t] = 9
    logits2 = M.decode(M.encode(altered, src_mask, enc, cfg), tgt_ids, tgt_mask, dec, cfg).values
    assert np.array_equal(logits, logits2)


def _decode_in_chunks(latent, tgt_ids, tgt_mask, dec, cfg, cuts):
    """Logits of one cached ``decode`` call per chunk of the target, joined."""
    bounds = [0, *cuts, tgt_ids.shape[1]]
    with N.no_grad():
        cache = M.DecodeCache(latent, dec, cfg)
        parts = [M.decode(latent, tgt_ids[:, lo:hi], tgt_mask[:, lo:hi], dec, cfg,
                          cache=cache).values
                 for lo, hi in zip(bounds, bounds[1:])]
    assert cache.length == tgt_ids.shape[1]
    return np.concatenate(parts, axis=1)


def test_cached_decode_matches_full_decode_randomized_configs():
    rng = np.random.default_rng(21)
    for trial in range(12):
        heads = int(rng.choice([1, 2, 4]))
        cfg = small_config(depth=int(rng.integers(1, 3)), dim=4 * heads, heads=heads,
                           ff_dim=int(rng.integers(4, 17)))
        enc = M.init_params(cfg, "encoder", rng)
        dec = M.init_params(cfg, "decoder", rng)
        src_ids, src_mask = random_batch(rng, cfg, B=4, t=int(rng.integers(3, 7)))
        t = int(rng.integers(3, 8))
        tgt_ids, tgt_mask = random_batch(rng, cfg, B=4, t=t, vocab=cfg.tgt_vocab)
        latent = M.encode(src_ids, src_mask, enc, cfg)
        full = M.decode(latent, tgt_ids, tgt_mask, dec, cfg).values
        one_by_one = _decode_in_chunks(latent, tgt_ids, tgt_mask, dec, cfg, range(1, t))
        np.testing.assert_allclose(one_by_one[tgt_mask], full[tgt_mask], rtol=0, atol=1e-10)
        cuts = sorted(rng.choice(np.arange(1, t), size=min(2, t - 1), replace=False))
        chunked = _decode_in_chunks(latent, tgt_ids, tgt_mask, dec, cfg, cuts)
        np.testing.assert_allclose(chunked[tgt_mask], full[tgt_mask], rtol=0, atol=1e-10)


def test_cached_decode_checks(setup):
    cfg, rng, enc, dec, _ = setup
    src_ids, src_mask = random_batch(rng, cfg)
    latent = M.encode(src_ids, src_mask, enc, cfg)
    bos = np.full((3, 1), BOS, dtype=np.int64)
    with pytest.raises(ConfigError, match="no_grad"):
        M.decode(latent, bos, bos != PAD, dec, cfg, cache=M.DecodeCache(latent, dec, cfg))
    with N.no_grad():
        cache = M.DecodeCache(latent, dec, cfg)
        with pytest.raises(ConfigError, match="BOS"):
            M.decode(latent, bos + 4, bos != PAD, dec, cfg, cache=cache)
        M.decode(latent, bos, bos != PAD, dec, cfg, cache=cache)
        M.decode(latent, bos + 4, bos != PAD, dec, cfg, cache=cache)   # BOS only opens a prefix
    assert cache.length == 2
    bh, hd, src_len = 3 * cfg.heads, cfg.dim // cfg.heads, src_ids.shape[1]
    assert all(k.shape == (bh, hd, cfg.max_len) and v.shape == (bh, cfg.max_len, hd)
               for k, v in cache.self_kv)
    assert all(k.shape == (bh, hd, src_len) and v.shape == (bh, src_len, hd)
               for k, v in cache.cross_kv)


def test_decode_rejects_target_beyond_max_len(setup):
    cfg, rng, enc, dec, _ = setup
    src_ids, src_mask = random_batch(rng, cfg)
    latent = M.encode(src_ids, src_mask, enc, cfg)
    tgt = np.full((3, cfg.max_len + 1), 5, dtype=np.int64)
    tgt[:, 0] = BOS
    M.decode(latent, tgt[:, :-1], tgt[:, :-1] != PAD, dec, cfg)
    with pytest.raises(ConfigError, match="max_len"):
        M.decode(latent, tgt, tgt != PAD, dec, cfg)
    with N.no_grad():
        with pytest.raises(ConfigError, match="max_len"):
            M.decode(latent, tgt, tgt != PAD, dec, cfg, cache=M.DecodeCache(latent, dec, cfg))
        cache = M.DecodeCache(latent, dec, cfg)
        for j in range(cfg.max_len):
            M.decode(latent, tgt[:, j:j + 1], tgt[:, j:j + 1] != PAD, dec, cfg, cache=cache)
        with pytest.raises(ConfigError, match=f"length {cfg.max_len + 1} exceeds max_len"):
            M.decode(latent, tgt[:, -1:], tgt[:, -1:] != PAD, dec, cfg, cache=cache)
    assert cache.length == cfg.max_len


def test_cached_decode_rejects_another_batch_size(setup):
    cfg, rng, enc, dec, _ = setup
    src_ids, src_mask = random_batch(rng, cfg)
    bos = np.full((3, 1), BOS, dtype=np.int64)
    with N.no_grad():
        latent = M.encode(src_ids, src_mask, enc, cfg)
        cache = M.DecodeCache(latent, dec, cfg)
        M.decode(latent, bos, bos != PAD, dec, cfg, cache=cache)
        smaller = M.encode(src_ids[:2], src_mask[:2], enc, cfg)
        with pytest.raises(ConfigError, match=r"batch of 3 rows, this call has 2"):
            M.decode(smaller, bos[:2] + 4, bos[:2] != PAD, dec, cfg, cache=cache)
    assert cache.length == 1


# -- attention -----------------------------------------------------------------------

def test_attend_cached_matches_multi_head_attention_bitwise():
    """Keys and values read from wider head-major buffers, as cached decoding
    stores them, give ``multi_head_attention``'s bits at every key count."""
    rng = np.random.default_rng(5)
    B, heads, hd, width = 3, 2, 8, 9
    q = N.Tensor(rng.normal(size=(B, 1, heads * hd)))
    for tk in range(1, width + 1):
        k = N.Tensor(rng.normal(size=(B, tk, heads * hd)))
        v = N.Tensor(rng.normal(size=(B, tk, heads * hd)))
        mask = rng.random((B, tk)) < 0.8
        mask[:, 0] = True
        keys = np.zeros((B * heads, hd, width))
        values = np.zeros((B * heads, width, hd))
        keys[:, :, :tk] = np.transpose(N.split_heads(k.values, heads), (0, 2, 1))
        values[:, :tk] = N.split_heads(v.values, heads)
        with N.no_grad():
            got = N.attend_cached(q, keys[:, :, :tk], values[:, :tk], mask, heads)
        assert np.array_equal(got.values, N.multi_head_attention(q, k, v, mask, heads).values), tk
    with pytest.raises(NumericError, match="no_grad"):
        N.attend_cached(q, keys, values, mask, heads)


def test_attention_single_key_returns_value():
    rng = np.random.default_rng(0)
    q = N.Tensor(rng.normal(size=(1, 3, 4)))
    k = N.Tensor(rng.normal(size=(1, 1, 4)))
    v = N.Tensor(rng.normal(size=(1, 1, 4)))
    out = N.multi_head_attention(q, k, v, np.ones((1, 1), dtype=bool), num_heads=2)
    expected = np.repeat(v.values, 3, axis=1)
    assert np.max(np.abs(out.values - expected)) < 1e-12


def test_attention_all_but_one_masked():
    rng = np.random.default_rng(1)
    q = N.Tensor(rng.normal(size=(1, 2, 4)))
    k = N.Tensor(rng.normal(size=(1, 3, 4)))
    v = N.Tensor(rng.normal(size=(1, 3, 4)))
    mask = np.array([[False, True, False]])
    out = N.multi_head_attention(q, k, v, mask, num_heads=1)
    assert np.max(np.abs(out.values - v.values[:, 1:2, :])) < 1e-12


def test_attention_hand_case_matches_formula():
    q = N.Tensor(np.array([[[1.0, 0.0], [0.0, 1.0]]]))
    k = N.Tensor(np.array([[[1.0, 1.0], [0.0, 2.0]]]))
    v = N.Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
    out = N.multi_head_attention(q, k, v, np.ones((1, 2), dtype=bool), num_heads=1)
    scores = q.values[0] @ k.values[0].T / np.sqrt(2.0)
    w = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    expected = w @ v.values[0]
    assert np.max(np.abs(out.values[0] - expected)) < 1e-10


# -- attention maps ------------------------------------------------------------------


def test_attention_capture_weights(setup):
    cfg, rng, enc, _, _ = setup
    ids, mask = random_batch(rng, cfg)
    with N.attention_maps() as maps:
        M.encode(ids, mask, enc, cfg)
    assert len(maps) == cfg.depth
    assert maps[0].shape == (3, cfg.heads, 5, 5)
    sums = maps[0].sum(axis=-1)
    assert np.max(np.abs(sums - 1.0)) < 1e-12


def test_attention_maps_record_nothing_outside_a_block(setup):
    cfg, rng, enc, _, _ = setup
    ids, mask = random_batch(rng, cfg)
    with N.attention_maps() as maps:
        pass
    M.encode(ids, mask, enc, cfg)
    assert maps == []


def test_attention_maps_nested_block_restores_the_outer_list(setup):
    cfg, rng, enc, _, _ = setup
    ids, mask = random_batch(rng, cfg)
    with N.attention_maps() as outer:
        M.encode(ids, mask, enc, cfg)
        with N.attention_maps() as inner:
            M.encode(ids, mask, enc, cfg)
        with pytest.raises(RuntimeError):
            with N.attention_maps():
                raise RuntimeError("leaves the block")
        M.encode(ids, mask, enc, cfg)
    assert len(inner) == cfg.depth
    assert len(outer) == 2 * cfg.depth


def test_attention_maps_thread_started_in_a_block_records_nothing_into_it(setup):
    cfg, rng, enc, _, _ = setup
    ids, mask = random_batch(rng, cfg)
    latents = []
    with N.attention_maps() as maps:
        worker = threading.Thread(target=lambda: latents.append(M.encode(ids, mask, enc, cfg)))
        worker.start()
        worker.join(timeout=60)
    assert not worker.is_alive() and len(latents) == 1
    assert maps == []


def test_attention_maps_of_decode_alternate_self_and_cross(setup):
    cfg, rng, enc, dec, _ = setup
    src, src_mask = random_batch(rng, cfg, B=3, t=6)
    tgt, tgt_mask = random_batch(rng, cfg, B=3, t=4, vocab=cfg.tgt_vocab)
    latent = M.encode(src, src_mask, enc, cfg)
    with N.attention_maps() as maps:
        M.decode(latent, tgt, tgt_mask, dec, cfg)
    assert [m.shape for m in maps] == [(3, cfg.heads, 4, 4), (3, cfg.heads, 4, 6)] * cfg.depth
    causal = np.tril(np.ones((4, 4), dtype=bool))
    for self_map, cross_map in zip(maps[0::2], maps[1::2]):
        assert (self_map[:, :, ~causal] == 0.0).all()
        assert (cross_map * ~src_mask[:, None, None, :] == 0.0).all()
    # Cached decoding records through ``attend_cached``, in the same order.
    with N.no_grad(), N.attention_maps() as cached:
        cache = M.DecodeCache(latent, dec, cfg)
        M.decode(latent, tgt[:, :1], tgt_mask[:, :1], dec, cfg, cache=cache)
    assert [m.shape for m in cached] == [(3, cfg.heads, 1, 1), (3, cfg.heads, 1, 6)] * cfg.depth


# -- pool ----------------------------------------------------------------------------

def latent_of(values, mask):
    return M.LatentSequence(N.Tensor(np.asarray(values, dtype=np.float64)), np.asarray(mask, dtype=bool))


def test_pool_constant_sequence():
    lat = latent_of([[[2.0, -1.0]] * 3], [[True, True, True]])
    assert np.array_equal(M.pool(lat, "mean").values, [[2.0, -1.0]])
    assert np.array_equal(M.pool(lat, "max").values, [[2.0, -1.0]])


def test_pool_mean_max_arithmetic():
    lat = latent_of([[[1.0, 3.0], [3.0, 1.0]]], [[True, True]])
    assert np.array_equal(M.pool(lat, "mean").values, [[2.0, 2.0]])
    assert np.array_equal(M.pool(lat, "max").values, [[3.0, 3.0]])


def test_pool_ignores_appended_pad():
    base = latent_of([[[1.0, 3.0], [3.0, 1.0]]], [[True, True]])
    padded = latent_of([[[1.0, 3.0], [3.0, 1.0], [50.0, 50.0]]], [[True, True, False]])
    for kind in ("mean", "max"):
        assert np.array_equal(M.pool(base, kind).values, M.pool(padded, kind).values)


def test_pool_fully_masked_row_errors():
    lat = latent_of([[[1.0, 2.0]]], [[False]])
    with pytest.raises(DegenerateInputError):
        M.pool(lat, "mean")


# -- project ------------------------------------------------------------------------

def test_project_output_shape(setup):
    cfg, rng, _, _, proj = setup
    out = M.project(N.Tensor(rng.normal(size=(5, cfg.dim))), proj)
    assert out.shape == (5, cfg.proj_dim)


def test_project_zero_params_zero_output(setup):
    cfg, rng, _, _, _ = setup
    zero = M.ParamGroup({k: N.Tensor(np.zeros_like(v.values), requires_grad=True)
                         for k, v in M.init_params(cfg, "projection", rng).items()})
    sentences = N.Tensor(rng.normal(size=(4, cfg.dim)))
    assert np.array_equal(M.project(sentences, zero).values, np.zeros((4, cfg.proj_dim)))


def test_project_matches_layer_by_layer_oracle(setup):
    cfg, rng, _, _, proj = setup
    x = rng.normal(size=(6, cfg.dim))
    out = M.project(N.Tensor(x), proj).values

    def bn(z, eps=1e-5):
        return (z - z.mean(axis=0)) / np.sqrt(z.var(axis=0) + eps)

    p = {k: v.values for k, v in proj.items()}
    h1 = np.maximum(bn(x @ p["w1"] + p["b1"]), 0.0)
    h2 = np.maximum(bn(h1 @ p["w2"] + p["b2"]), 0.0)
    expected = h2 @ p["w3"] + p["b3"]
    assert np.max(np.abs(out - expected)) < 1e-10


def test_project_single_row_rejected(setup):
    cfg, rng, _, _, proj = setup
    with pytest.raises(BatchTooSmallError):
        M.project(N.Tensor(rng.normal(size=(1, cfg.dim))), proj)


# -- randomized mask/causality sweep (smaller sibling of the acceptance suite) ---------------

def test_mask_and_causality_randomized_configs():
    rng = np.random.default_rng(99)
    for trial in range(10):
        heads = int(rng.choice([1, 2, 4]))
        cfg = small_config(depth=int(rng.integers(1, 3)), dim=4 * heads, heads=heads,
                           ff_dim=int(rng.integers(4, 17)))
        enc = M.init_params(cfg, "encoder", rng)
        dec = M.init_params(cfg, "decoder", rng)
        src_ids, src_mask = random_batch(rng, cfg, B=3, t=int(rng.integers(4, 7)))
        tgt_ids, tgt_mask = random_batch(rng, cfg, B=3, t=4, vocab=cfg.tgt_vocab)
        latent = M.encode(src_ids, src_mask, enc, cfg)
        base = M.decode(latent, tgt_ids, tgt_mask, dec, cfg).values
        if not src_mask.all():
            altered = src_ids.copy()
            b, t = np.argwhere(~src_mask)[0]
            altered[b, t] = 4
            lat2 = M.encode(altered, src_mask, enc, cfg)
            assert np.array_equal(latent.values.values[src_mask], lat2.values.values[src_mask])
            assert np.array_equal(base, M.decode(lat2, tgt_ids, tgt_mask, dec, cfg).values)
        j = int(rng.integers(0, 3))
        altered_t = tgt_ids.copy()
        altered_t[:, j + 1] = (altered_t[:, j + 1] % (cfg.tgt_vocab - 4)) + 4
        out2 = M.decode(latent, altered_t, altered_t != PAD, dec, cfg).values
        assert np.array_equal(base[:, : j + 1], out2[:, : j + 1])
