import dataclasses
import functools
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ce_nmt import cli
from ce_nmt import model as M
from ce_nmt import training as TR
from ce_nmt.data import build_vocab
from ce_nmt.errors import CENMTError, CollapseError, ConfigError, DivergenceError, NumericError
from ce_nmt.numerics import Tensor
from ce_nmt.synthetic import make_cipher_corpus, write_parallel_files

from _oracles import adam_step_reference, make_identity_corpus, params_equal


def tiny_setup(n_pairs=24, depth=1, dim=8, heads=2):
    corpus = make_cipher_corpus(n_pairs, vocab_size=10, min_len=2, max_len=4, seed=3)
    sentences = [p.source for p in corpus] + [p.target for p in corpus]
    vocab_joint = build_vocab(sentences)
    vocab_tgt = build_vocab([p.target for p in corpus])
    cfg = M.ModelConfig(src_vocab=len(vocab_joint), tgt_vocab=len(vocab_tgt),
                        depth=depth, dim=dim, heads=heads, ff_dim=2 * dim,
                        proj_dim=4, emb_dim=dim, max_len=8)
    return cfg, corpus, vocab_joint, vocab_tgt


def ce_epoch_records(tmp_path, *args, **kwargs) -> list[dict]:
    """Run ``context_enhance(*args, **kwargs)`` and return its per-epoch metrics records."""
    metrics = TR.MetricsLog(tmp_path / "ce_metrics.jsonl")
    TR.context_enhance(*args, metrics=metrics, **kwargs)
    return [json.loads(line) for line in metrics.path.read_text().splitlines()]


def forward_probe(ckpt, corpus, vocab_src, vocab_tgt):
    """Deterministic forward output on a fixed probe batch."""
    from ce_nmt.data import batch_iter

    batch = next(batch_iter(corpus, vocab_src, vocab_tgt, 4, max_len=ckpt.config.max_len))
    latent = M.encode(batch.source_ids, batch.source_mask, ckpt.encoder, ckpt.config)
    if ckpt.decoder is None:
        return latent.values.values
    logits = M.decode(latent, batch.target_ids[:, :-1], batch.target_mask[:, :-1],
                      ckpt.decoder, ckpt.config)
    return logits.values


# -- optimizer -----------------------------------------------------------------

def test_adam_schedule_peaks_at_warmup():
    p = {"w": Tensor(np.zeros(2), requires_grad=True)}
    opt = TR.AdamOptimizer(p, lr=0.1, warmup=10)
    assert opt.rate(1) == pytest.approx(0.01)
    assert opt.rate(10) == pytest.approx(0.1)
    assert opt.rate(40) == pytest.approx(0.05)


def test_adam_moves_against_gradient():
    p = {"w": Tensor(np.array([1.0, -1.0]), requires_grad=True)}
    opt = TR.AdamOptimizer(p, lr=0.1, warmup=1)
    p["w"].grad = np.array([1.0, -1.0])
    opt.step()
    assert p["w"].values[0] < 1.0
    assert p["w"].values[1] > -1.0


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("grad_scale", [10.0, 1e-3], ids=["clipped", "unclipped"])
def test_adam_matches_reference_bitwise(dtype, grad_scale):
    rng = np.random.default_rng(4)
    shapes = {"w": (5, 3), "b": (3,), "e": (7, 2)}
    params = {k: Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
              for k, s in shapes.items()}
    opt = TR.AdamOptimizer(params, lr=0.05, warmup=3)
    values = {k: t.values.copy() for k, t in params.items()}
    m = {k: np.zeros(s, dtype=dtype) for k, s in shapes.items()}
    v = {k: np.zeros(s, dtype=dtype) for k, s in shapes.items()}
    for step in range(1, 7):
        grads = {k: (grad_scale * rng.normal(size=s)).astype(dtype) for k, s in shapes.items()}
        norm = np.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads.values()))
        assert (norm > TR.CLIP_NORM) == (grad_scale > 1.0)
        for k, t in params.items():
            t.grad = grads[k]
        given = {k: g.copy() for k, g in grads.items()}
        opt.step()
        values, m, v = adam_step_reference(values, grads, m, v, step, lr=0.05, warmup=3)
        for k, t in params.items():
            assert t.grad.tobytes() == given[k].tobytes(), "step wrote into a gradient"
            for got, want in ((t.values, values[k]), (opt.m[k], m[k]), (opt.v[k], v[k])):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_adam_non_finite_gradient_raises_before_any_update():
    params = {k: Tensor(np.ones(3), requires_grad=True) for k in ("a", "b")}
    opt = TR.AdamOptimizer(params, lr=0.1, warmup=1)
    params["a"].grad = np.ones(3)
    params["b"].grad = np.array([1.0, np.nan, 1.0])
    with pytest.raises(NumericError, match="parameter b"):
        opt.step()
    for k, t in params.items():
        assert np.array_equal(t.values, np.ones(3))
        assert not opt.m[k].any() and not opt.v[k].any()


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), -1.0, 0.0])
def test_adam_rejects_non_finite_or_non_positive_lr(tmp_path, lr):
    with pytest.raises(ConfigError, match="lr must be finite and > 0"):
        TR.AdamOptimizer({}, lr=lr, warmup=2)
    # A library run is refused before its first step, with nothing written.
    cfg, corpus, vs, vt = tiny_setup()
    with pytest.raises(ConfigError, match="lr must be"):
        TR.train_translation(cfg, corpus, vs, vt, seed=1, steps=3, batch_size=8, lr=lr,
                             warmup=2, out_dir=tmp_path / "pre")
    assert not (tmp_path / "pre").exists()


@pytest.fixture
def nan_in_one_gradient(monkeypatch):
    """Make every optimizer step see a NaN in one entry of its first gradient;
    the optimizer's check is the only finiteness check gradients get."""
    step = TR.AdamOptimizer.step

    def poisoned(self):
        t = next(iter(self.params.values()))
        g = t.grad.copy()
        g.flat[0] = np.nan
        t.grad = g
        step(self)

    monkeypatch.setattr(TR.AdamOptimizer, "step", poisoned)


def test_nan_gradient_raises_divergence_with_checkpoint(tmp_path, nan_in_one_gradient):
    cfg, corpus, vs, vt = tiny_setup()
    with pytest.raises(DivergenceError) as exc_info:
        TR.train_translation(cfg, corpus, vs, vt, seed=1, steps=3, batch_size=8,
                             warmup=2, out_dir=tmp_path / "pre")
    assert exc_info.value.checkpoint_path == tmp_path / "pre" / "diverged-0.ckpt"
    assert TR.load_checkpoint(exc_info.value.checkpoint_path).stage == "pretrain"
    start = TR.train_translation(cfg, corpus, vs, vt, seed=5, steps=0)
    ce_cfg = TR.CEConfig(lam=5e-3, epochs=1, batch_size=8, proj_dim=4)
    with pytest.raises(DivergenceError) as exc_info:
        TR.context_enhance(start, corpus, vs, ce_cfg, seed=6, out_dir=tmp_path / "ce")
    diag = TR.load_checkpoint(exc_info.value.checkpoint_path)
    assert exc_info.value.checkpoint_path == tmp_path / "ce" / "diverged-0.ckpt"
    assert diag.stage == "ce" and diag.decoder is not None and diag.projection is not None
    with pytest.raises(DivergenceError) as exc_info:
        TR.finetune_translation(TR.fresh_ce_start(cfg, seed=5), corpus, vs, vt, steps=3, seed=7,
                                batch_size=8, warmup=2, out_dir=tmp_path / "ft")
    diag = TR.load_checkpoint(exc_info.value.checkpoint_path)
    assert exc_info.value.checkpoint_path == tmp_path / "ft" / "diverged-0.ckpt"
    assert diag.stage == "finetune" and diag.projection is not None


# -- stage 1 --------------------------------------------------------------------

def test_train_translation_zero_steps_equals_init():
    cfg, corpus, vs, vt = tiny_setup()
    ckpt = TR.train_translation(cfg, corpus, vs, vt, seed=5, steps=0)
    rng = np.random.default_rng(5)
    enc = M.init_params(cfg, "encoder", rng)
    dec = M.init_params(cfg, "decoder", rng)
    assert params_equal(ckpt.encoder, enc)
    assert params_equal(ckpt.decoder, dec)
    assert ckpt.step == 0 and ckpt.stage == "pretrain"


def test_train_translation_deterministic_loss_trajectory(tmp_path):
    cfg, corpus, vs, vt = tiny_setup()
    logs = []
    for run in range(2):
        metrics = TR.MetricsLog(tmp_path / f"m{run}.jsonl")
        TR.train_translation(cfg, corpus, vs, vt, seed=7, steps=6, batch_size=8,
                             warmup=4, metrics=metrics)
        logs.append((tmp_path / f"m{run}.jsonl").read_bytes())
    assert logs[0] == logs[1]


def test_train_translation_loss_decreases_on_copy_task():
    corpus = make_identity_corpus(32, vocab_size=8, min_len=2, max_len=4, seed=1)
    vocab = build_vocab([p.source for p in corpus])
    cfg = M.ModelConfig(src_vocab=len(vocab), tgt_vocab=len(vocab), depth=1, dim=16,
                        heads=2, ff_dim=32, proj_dim=4, emb_dim=16, max_len=8)
    losses = []

    class Collect(TR.MetricsLog):
        def write(self, stage, step, loss, *a, **k):
            losses.append(loss)

    import tempfile
    with tempfile.TemporaryDirectory() as d:
        TR.train_translation(cfg, corpus, vocab, vocab, seed=2, steps=60, batch_size=16,
                             lr=3e-3, warmup=10, metrics=Collect(d + "/m.jsonl"))
    assert np.mean(losses[-5:]) < np.mean(losses[:5]) * 0.5


def test_train_translation_divergence_detected(tmp_path):
    cfg, corpus, vs, vt = tiny_setup()
    # An absurd rate overflows float64 activations within a couple of steps;
    # the overflow itself is the point, so numpy's warning is silenced.
    with pytest.raises(DivergenceError), np.errstate(over="ignore", invalid="ignore"):
        TR.train_translation(cfg, corpus, vs, vt, seed=1, steps=10, batch_size=8,
                             lr=1e200, warmup=1, out_dir=tmp_path)
    assert list(tmp_path.glob("diverged-*.ckpt")), "diagnostic checkpoint persisted"


# -- stage 2 ----------------------------------------------------------------------

def test_context_enhance_zero_like_edge_and_start_identity():
    cfg, corpus, vs, vt = tiny_setup()
    start = TR.train_translation(cfg, corpus, vs, vt, seed=5, steps=0)
    ce_cfg = TR.CEConfig(lam=5e-3, epochs=1, batch_size=8, pooling="mean", proj_dim=4)
    ckpt = TR.context_enhance(start, corpus, vs, ce_cfg, seed=6)
    assert ckpt.stage == "ce"
    assert ckpt.projection is not None


def test_context_enhance_never_touches_decoder():
    cfg, corpus, vs, vt = tiny_setup()
    start = TR.train_translation(cfg, corpus, vs, vt, seed=5, steps=3, batch_size=8, warmup=2)
    before = {k: v.values.copy() for k, v in start.decoder.items()}
    ce_cfg = TR.CEConfig(lam=5e-3, epochs=2, batch_size=8, proj_dim=4)
    ckpt = TR.context_enhance(start, corpus, vs, ce_cfg, seed=6)
    for k, v in ckpt.decoder.items():
        assert v.values.tobytes() == before[k].tobytes(), f"decoder param {k} changed"


def test_context_enhance_lambda_zero_reduces_to_invariance(tmp_path):
    cfg, corpus, vs, vt = tiny_setup()
    start = TR.train_translation(cfg, corpus, vs, vt, seed=5, steps=0)
    ce_cfg = TR.CEConfig(lam=0.0, epochs=1, batch_size=8, proj_dim=4)
    rec = ce_epoch_records(tmp_path, start, corpus, vs, ce_cfg, seed=6)[0]
    assert rec["loss"] == pytest.approx(rec["invariance_term"], abs=1e-12)


def test_context_enhance_lambda_zero_redundancy_has_no_gradient():
    """With lam=0 the redundancy term must not influence gradients: the
    gradient of the fused loss is that of the invariance term alone, by
    central differences, while a positive lam moves it."""
    from ce_nmt import losses as L
    from ce_nmt import numerics as N

    rng = np.random.default_rng(0)
    zs = N.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    zt = N.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    grads = {}
    for lam in (0.0, 0.5):
        zs.grad = zt.grad = None
        L.barlow_twins_loss(zs, zt, lam=lam).loss.backward()
        grads[lam] = zs.grad.copy()

    step = 1e-6
    flat = zs.values.reshape(-1)
    central = np.empty(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        terms = []
        for x in (orig + step, orig - step):
            flat[i] = x
            terms.append(L.barlow_twins_loss(zs, zt, lam=0.5).invariance_term)
        flat[i] = orig
        central[i] = (terms[0] - terms[1]) / (2.0 * step)
    assert np.max(np.abs(grads[0.0] - central.reshape(zs.shape))) < 1e-6
    assert np.max(np.abs(grads[0.5] - grads[0.0])) > 1e-3


def test_context_enhance_divergence_detected(tmp_path):
    cfg, corpus, vs, vt = tiny_setup()
    start = TR.train_translation(cfg, corpus, vs, vt, seed=5, steps=0)
    ce_cfg = TR.CEConfig(lam=5e-3, epochs=2, batch_size=8, proj_dim=4)
    with pytest.raises(DivergenceError) as exc_info, \
            np.errstate(over="ignore", invalid="ignore"):
        TR.context_enhance(start, corpus, vs, ce_cfg, seed=6, lr=1e200, warmup=1,
                           out_dir=tmp_path)
    path = exc_info.value.checkpoint_path
    assert path is not None and path.parent == tmp_path and path.name.startswith("diverged-")
    diag = TR.load_checkpoint(path)
    assert diag.stage == "ce"
    assert diag.decoder is not None and diag.projection is not None


def test_context_enhance_rejects_corpus_under_two_pairs(tmp_path):
    cfg, corpus, vs, vt = tiny_setup()
    start = TR.train_translation(cfg, corpus, vs, vt, seed=5, steps=0)
    ce_cfg = TR.CEConfig(lam=5e-3, epochs=1, batch_size=8, proj_dim=4)
    one_pair = make_cipher_corpus(1, vocab_size=10, min_len=2, max_len=4, seed=3)
    with pytest.raises(ConfigError, match="at least 2 pairs"):
        TR.context_enhance(start, one_pair, vs, ce_cfg, seed=6, out_dir=tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_context_enhance_improves_alignment(tmp_path):
    cfg, corpus, vs, vt = tiny_setup(n_pairs=48, dim=16)
    start = TR.train_translation(cfg, corpus, vs, vt, seed=5, steps=0)
    ce_cfg = TR.CEConfig(lam=5e-3, epochs=8, batch_size=16, proj_dim=4)
    records = ce_epoch_records(tmp_path, start, corpus, vs, ce_cfg, seed=6, lr=2e-3, warmup=5)
    assert records[-1]["invariance_term"] < records[0]["invariance_term"]


# -- stage 3 -----------------------------------------------------------------------

def test_finetune_requires_ce_checkpoint():
    cfg, corpus, vs, vt = tiny_setup()
    pre = TR.train_translation(cfg, corpus, vs, vt, seed=5, steps=0)
    with pytest.raises(ConfigError):
        TR.finetune_translation(pre, corpus, vs, vt, steps=1, seed=5)


def test_finetune_never_calls_projection(monkeypatch):
    cfg, corpus, vs, vt = tiny_setup()
    start = TR.train_translation(cfg, corpus, vs, vt, seed=5, steps=0)
    ce_ckpt = TR.context_enhance(start, corpus, vs, TR.CEConfig(lam=5e-3, epochs=1,
                                                                batch_size=8, proj_dim=4), seed=6)
    calls = {"n": 0}
    real_project = M.project

    def counting_project(*args, **kwargs):
        calls["n"] += 1
        return real_project(*args, **kwargs)

    monkeypatch.setattr(M, "project", counting_project)
    TR.finetune_translation(ce_ckpt, corpus, vs, vt, steps=3, seed=7, batch_size=8, warmup=2)
    assert calls["n"] == 0


def test_finetune_reuse_decoder_flag():
    cfg, corpus, vs, vt = tiny_setup()
    start = TR.train_translation(cfg, corpus, vs, vt, seed=5, steps=2, batch_size=8, warmup=2)
    ce_ckpt = TR.context_enhance(start, corpus, vs, TR.CEConfig(lam=5e-3, epochs=1,
                                                                batch_size=8, proj_dim=4), seed=6)
    reused = TR.finetune_translation(ce_ckpt, corpus, vs, vt, steps=0, seed=7, reuse_decoder=True)
    assert params_equal(reused.decoder, start.decoder)
    fresh = TR.finetune_translation(ce_ckpt, corpus, vs, vt, steps=0, seed=7)
    assert not params_equal(fresh.decoder, start.decoder)


def _params_with_grad(ckpt) -> list[str]:
    params = TR._flatten({"encoder": ckpt.encoder, "decoder": ckpt.decoder,
                          "projection": ckpt.projection})
    return [name for name, t in params.items() if t.grad is not None]


def test_stage_results_hold_no_gradients(tmp_path):
    cfg, corpus, vs, vt = tiny_setup()
    ce_cfg = TR.CEConfig(lam=5e-3, epochs=1, batch_size=8, proj_dim=4)
    pre = TR.train_translation(cfg, corpus, vs, vt, seed=5, steps=2, batch_size=8, warmup=2)
    ce = TR.context_enhance(pre, corpus, vs, ce_cfg, seed=6)
    ft = TR.finetune_translation(ce, corpus, vs, vt, steps=2, seed=7, batch_size=8, warmup=2)
    result = TR.run_pipeline(cfg, ce_cfg, corpus, vs, vt, seed=3, out_dir=tmp_path,
                             steps=2, finetune_steps=2, batch_size=8, warmup=2)
    for ckpt in [pre, ce, ft, *result.checkpoints.values()]:
        assert _params_with_grad(ckpt) == [], f"{ckpt.stage} result holds gradients"


def test_stages_leave_their_start_checkpoint_unchanged():
    cfg, corpus, vs, vt = tiny_setup()
    pre = TR.train_translation(cfg, corpus, vs, vt, seed=5, steps=2, batch_size=8, warmup=2)
    pre_bytes = TR.checkpoint_bytes(pre)
    ce = TR.context_enhance(pre, corpus, vs, TR.CEConfig(lam=5e-3, epochs=1, batch_size=8,
                                                         proj_dim=4), seed=6)
    ce_bytes = TR.checkpoint_bytes(ce)
    TR.finetune_translation(ce, corpus, vs, vt, steps=2, seed=7, batch_size=8, warmup=2,
                            reuse_decoder=True)
    assert TR.checkpoint_bytes(pre) == pre_bytes
    assert TR.checkpoint_bytes(ce) == ce_bytes


def _group_bytes(group) -> list[bytes]:
    return [t.values.tobytes() for _, t in group.items()]


def test_stages_carry_the_groups_they_do_not_train():
    cfg, corpus, vs, vt = tiny_setup()
    pre = TR.train_translation(cfg, corpus, vs, vt, seed=5, steps=2, batch_size=8, warmup=2)
    decoder_bytes = _group_bytes(pre.decoder)
    ce = TR.context_enhance(pre, corpus, vs, TR.CEConfig(lam=5e-3, epochs=1, batch_size=8,
                                                         proj_dim=4), seed=6)
    assert ce.decoder is pre.decoder
    assert _group_bytes(ce.decoder) == decoder_bytes
    projection_bytes = _group_bytes(ce.projection)
    for reuse_decoder in (False, True):
        ft = TR.finetune_translation(ce, corpus, vs, vt, steps=2, seed=7, batch_size=8,
                                     warmup=2, reuse_decoder=reuse_decoder)
        assert ft.projection is ce.projection
        assert ft.decoder is not ce.decoder      # trained, so copied
        assert _group_bytes(ft.projection) == projection_bytes
    assert _group_bytes(pre.decoder) == decoder_bytes


# -- collapse monitor -----------------------------------------------------------------

def test_collapse_monitor_flags_identical_rows():
    mon = TR.CollapseMonitor()
    tied = np.ones((16, 8))
    mon.observe(tied)
    report = mon.observe(tied)
    assert report.status == "collapsed"
    assert "rank" in report.reason


def test_collapse_monitor_isotropic_rank_in_range():
    rng = np.random.default_rng(0)
    mon = TR.CollapseMonitor()
    mon.observe(rng.normal(size=(256, 8)))
    report = mon.observe(rng.normal(size=(256, 8)))
    assert report.status == "ok"
    assert 6.0 <= report.effective_rank <= 8.0


def test_collapse_monitor_single_batch_insufficient():
    mon = TR.CollapseMonitor()
    report = mon.observe(np.random.default_rng(1).normal(size=(32, 4)))
    assert report.status == "insufficient data"


def test_collapse_monitor_relative_std_drop():
    rng = np.random.default_rng(2)
    mon = TR.CollapseMonitor()
    mon.observe(rng.normal(size=(32, 4)))
    report = mon.observe(rng.normal(size=(32, 4)) * 1e-5)
    assert report.status == "collapsed"
    assert "std" in report.reason


def test_context_enhance_aborts_on_collapse(tmp_path):
    cfg, corpus, vs, vt = tiny_setup()
    start = TR.train_translation(cfg, corpus, vs, vt, seed=5, steps=0)
    # Zero encoder output scale: tie every embedding row so pooled vectors collapse.
    for k, v in start.encoder.items():
        v.values[:] = 0.0
    ce_cfg = TR.CEConfig(lam=5e-3, epochs=2, batch_size=8, proj_dim=4)
    with pytest.raises(CollapseError) as exc_info:
        TR.context_enhance(start, corpus, vs, ce_cfg, seed=6, out_dir=tmp_path)
    assert exc_info.value.report.status == "collapsed"
    assert list(tmp_path.glob("collapsed-*.ckpt"))


# -- checkpoint serialization -----------------------------------------------------------

def test_checkpoint_round_trip_bytes_and_outputs(tmp_path):
    cfg, corpus, vs, vt = tiny_setup()
    ckpt = TR.train_translation(cfg, corpus, vs, vt, seed=9, steps=2, batch_size=8, warmup=2)
    path_a = TR.save_checkpoint(ckpt, tmp_path / "a.ckpt")
    loaded = TR.load_checkpoint(path_a)
    path_b = TR.save_checkpoint(loaded, tmp_path / "b.ckpt")
    assert path_a.read_bytes() == path_b.read_bytes()
    reloaded = TR.load_checkpoint(path_b)
    out_1 = forward_probe(loaded, corpus, vs, vt)
    out_2 = forward_probe(reloaded, corpus, vs, vt)
    assert np.array_equal(out_1, out_2)
    assert loaded.stage == ckpt.stage and loaded.seed == ckpt.seed and loaded.step == ckpt.step
    assert loaded.config == ckpt.config


def test_checkpoint_stage_constraints():
    cfg, corpus, vs, vt = tiny_setup()
    enc = M.init_params(cfg, "encoder", np.random.default_rng(0))
    with pytest.raises(ConfigError):
        TR.Checkpoint(cfg, "ce", 0, 0, enc)          # ce needs projection
    with pytest.raises(ConfigError):
        TR.Checkpoint(cfg, "pretrain", 0, 0, enc)    # pretrain needs decoder


def test_checkpoint_rejects_non_checkpoint_file(tmp_path):
    p = tmp_path / "junk.ckpt"
    p.write_bytes(b"not a checkpoint")
    with pytest.raises(ConfigError):
        TR.load_checkpoint(p)


@pytest.mark.parametrize("failing", ["fsync", "replace"])
def test_checkpoint_failed_write_keeps_previous_file(tmp_path, monkeypatch, failing):
    cfg, corpus, vs, vt = tiny_setup()
    first = TR.train_translation(cfg, corpus, vs, vt, seed=9, steps=0)
    second = TR.train_translation(cfg, corpus, vs, vt, seed=10, steps=0)
    path = TR.save_checkpoint(first, tmp_path / "model.ckpt")
    before = path.read_bytes()
    assert before == TR.checkpoint_bytes(first)

    def disk_full(*args):
        raise OSError("disk full")

    # fsync fails after the new bytes are written, replace when committing them.
    with monkeypatch.context() as patch:
        patch.setattr(TR.os, failing, disk_full)
        with pytest.raises(OSError, match="disk full"):
            TR.save_checkpoint(second, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
    TR.save_checkpoint(second, path)
    assert path.read_bytes() == TR.checkpoint_bytes(second)
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_checkpoint_format_v1_bytes_pinned():
    # A change to the v1 byte layout (header keys, tensor order, dtype) shows
    # here; the constant is the sha256 of this checkpoint in format v1.
    cfg, corpus, vs, vt = tiny_setup()
    ckpt = TR.train_translation(cfg, corpus, vs, vt, seed=9, steps=0)
    blob = TR.checkpoint_bytes(ckpt)
    assert len(blob) == 9726
    assert hashlib.sha256(blob).hexdigest() == \
        "75adfea6d6205d9c5b6f52069f43002eb74eb5de48c69b559704dc80395a00af"


@functools.cache
def _small_checkpoint_bytes():
    # Every group present, every tensor small: a few hundred loads a second.
    cfg = M.ModelConfig(src_vocab=6, tgt_vocab=5, depth=1, dim=4, heads=2, ff_dim=4,
                        proj_dim=2, emb_dim=2, max_len=4)
    rng = np.random.default_rng(0)
    ckpt = TR.Checkpoint(cfg, "finetune", 3, 7, M.init_params(cfg, "encoder", rng),
                         decoder=M.init_params(cfg, "decoder", rng),
                         projection=M.init_params(cfg, "projection", rng))
    return TR.checkpoint_bytes(ckpt)


def _set_header_field(blob: bytes, keys: tuple[str, ...], value) -> bytes:
    """``blob`` with the header entry at ``keys``, a path into its JSON, set to ``value``."""
    start = len(TR.CHECKPOINT_MAGIC) + 4
    size = int.from_bytes(blob[start:start + 4], "little")
    header = json.loads(blob[start + 4:start + 4 + size])
    parent = header
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:start] + len(encoded).to_bytes(4, "little") + encoded + blob[start + 4 + size:]


@pytest.mark.parametrize("field, value", [("heads", 0), ("heads", -4), ("dim", -8),
                                          ("depth", 0), ("max_len", 10**12)])
def test_checkpoint_header_out_of_bounds_raises_config_error(tmp_path, field, value):
    # The header builds its ModelConfig by the rule that checks the flag.
    # Unbounded, a max_len of 10**12 loaded, and eval's decode cache then
    # failed to allocate its buffers with a raw numpy error.
    blob = _set_header_field(_small_checkpoint_bytes(), ("config", field), value)
    with pytest.raises(ConfigError, match=rf"malformed checkpoint header: {field} must be"):
        TR.parse_checkpoint(blob)
    path = tmp_path / "bad.ckpt"
    path.write_bytes(blob)
    corpus = make_cipher_corpus(4, vocab_size=4, min_len=2, max_len=3, seed=0)
    write_parallel_files(corpus, tmp_path / "c.src", tmp_path / "c.tgt")
    assert cli.main(["eval", "--mode", "bleu", "--checkpoint", str(path),
                     "--source", str(tmp_path / "c.src"), "--target", str(tmp_path / "c.tgt"),
                     "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


HEADER_FIELDS = [("config", f.name) for f in dataclasses.fields(M.ModelConfig)] \
    + [(key,) for key in ("stage", "seed", "step", "groups", "optimizer")]


@given(keys=st.sampled_from(HEADER_FIELDS),
       value=st.one_of(st.integers(), st.floats(), st.booleans(), st.text()))
def test_checkpoint_header_mutation_loads_or_raises(keys, value):
    try:
        loaded = TR.parse_checkpoint(_set_header_field(_small_checkpoint_bytes(), keys, value))
    except CENMTError:
        return
    assert isinstance(loaded, TR.Checkpoint)


def test_checkpoint_truncated_at_every_offset_raises_config_error(tmp_path):
    blob = _small_checkpoint_bytes()
    for end in range(len(blob)):
        with pytest.raises(ConfigError):
            TR.parse_checkpoint(blob[:end])
    with pytest.raises(ConfigError):
        TR.parse_checkpoint(blob + b"\x00")
    path = tmp_path / "cut.ckpt"
    path.write_bytes(blob[:-1])
    with pytest.raises(ConfigError, match="cut.ckpt"):
        TR.load_checkpoint(path)
    path.write_bytes(blob)
    assert TR.checkpoint_bytes(TR.load_checkpoint(path)) == blob


def test_checkpoint_single_byte_flips_load_or_raise_config_error():
    blob = _small_checkpoint_bytes()
    loaded = 0
    for pos in range(len(blob)):
        for mask in (0x01, 0x20, 0x80, 0xFF):
            bad = bytearray(blob)
            bad[pos] ^= mask
            try:
                TR.parse_checkpoint(bytes(bad))
                loaded += 1
            except ConfigError:
                pass
    assert loaded > 0      # flips inside tensor values still load


def test_checkpoint_rejects_wrong_shape_and_non_finite_values(tmp_path):
    cfg, corpus, vs, vt = tiny_setup()
    ckpt = TR.train_translation(cfg, corpus, vs, vt, seed=9, steps=0)
    wider = dataclasses.replace(cfg, ff_dim=cfg.ff_dim + 1)
    path = tmp_path / "bad.ckpt"
    blob = TR.checkpoint_bytes(TR.Checkpoint(wider, "pretrain", 9, 0, ckpt.encoder,
                                             decoder=ckpt.decoder))
    path.write_bytes(blob)
    with pytest.raises(ConfigError, match="layer0.ff.w1"):
        TR.load_checkpoint(path)
    blob = bytearray(TR.checkpoint_bytes(ckpt))
    blob[-4:] = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigError, match="non-finite"):
        TR.load_checkpoint(path)


# -- pipeline ----------------------------------------------------------------------------

def test_run_pipeline_stage_tags_and_metrics_count(tmp_path):
    cfg, corpus, vs, vt = tiny_setup()
    ce_cfg = TR.CEConfig(lam=5e-3, epochs=2, batch_size=8, proj_dim=4)
    result = TR.run_pipeline(cfg, ce_cfg, corpus, vs, vt, seed=3, out_dir=tmp_path,
                             steps=4, finetune_steps=3, batch_size=8, warmup=2)
    assert [result.checkpoints[s].stage for s in ("pretrain", "ce", "finetune")] == \
        ["pretrain", "ce", "finetune"]
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 4 + 2 + 3
    for path in result.paths.values():
        assert path.exists()


def test_run_pipeline_skip_pretrain(tmp_path):
    cfg, corpus, vs, vt = tiny_setup()
    ce_cfg = TR.CEConfig(lam=5e-3, epochs=2, batch_size=8, proj_dim=4)
    result = TR.run_pipeline(cfg, ce_cfg, corpus, vs, vt, seed=3, out_dir=tmp_path,
                             steps=4, finetune_steps=2, batch_size=8, warmup=2,
                             skip_pretrain=True)
    assert set(result.checkpoints) == {"ce", "finetune"}
    assert len(list(tmp_path.glob("*.ckpt"))) == 2
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 2 + 2


def test_run_pipeline_metrics_byte_identical_at_64_bit(tmp_path):
    cfg, corpus, vs, vt = tiny_setup()
    ce_cfg = TR.CEConfig(lam=5e-3, epochs=1, batch_size=8, proj_dim=4)
    blobs = []
    for run in range(2):
        TR.run_pipeline(cfg, ce_cfg, corpus, vs, vt, seed=11,
                        out_dir=tmp_path / str(run), steps=3, finetune_steps=2,
                        batch_size=8, warmup=2)
        blobs.append((tmp_path / str(run) / "metrics.jsonl").read_bytes())
    assert blobs[0] == blobs[1]
    assert b'"wall_ms": null' in blobs[0]


def test_run_pipeline_float32_losses_reproducible(tmp_path):
    import json

    cfg, corpus, vs, vt = tiny_setup(dim=16)
    ce_cfg = TR.CEConfig(lam=5e-3, epochs=1, batch_size=8, proj_dim=4)
    runs = []
    for run in range(2):
        TR.run_pipeline(cfg, ce_cfg, corpus, vs, vt, seed=13,
                        out_dir=tmp_path / str(run), steps=3, finetune_steps=2,
                        batch_size=8, warmup=2, dtype=np.float32)
        metrics = tmp_path / str(run) / "metrics.jsonl"
        lines = [json.loads(l) for l in metrics.read_text().splitlines()]
        runs.append(lines)
    for a, b in zip(*runs):
        assert abs(a["loss"] - b["loss"]) < 1e-6
    # float32 is the timing mode: wall_ms carries real milliseconds
    assert all(isinstance(l["wall_ms"], int) for l in runs[0])


def test_metrics_log_schema(tmp_path):
    import json

    metrics = TR.MetricsLog(tmp_path / "m.jsonl", record_time=True)
    metrics.write("pretrain", 1, 2.5)
    metrics.write("ce", 0, 1.0, 0.7, 6.0, 5e-3)
    lines = [json.loads(l) for l in (tmp_path / "m.jsonl").read_text().splitlines()]
    assert list(lines[0]) == ["stage", "step_or_epoch", "loss", "invariance_term",
                              "redundancy_term", "lambda", "wall_ms"]
    assert lines[0]["invariance_term"] is None
    assert lines[1]["lambda"] == 5e-3
    assert isinstance(lines[0]["wall_ms"], int)


# -- memory ------------------------------------------------------------------------------

# tracemalloc peaks (MB) at the benchmark's shapes, pinned about 15% above the
# values measured once a step dropped the previous step's graph after its
# first encode (45.5 and 34.1 MB). While the previous graph lived until the
# next loss replaced it they read 63.5 and 43.1 MB, and while each tape node
# was a Tensor 136.5 and 105.5 MB.
PRETRAIN_PEAK_MB = 52.5
CE_PEAK_MB = 39.5


def _traced_peak_mb(run) -> float:
    import tracemalloc

    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_training_peak_memory_at_bench_shapes():
    # Batch 64, width 64, depth 2, ff_dim 256, max_len 12, float64: 3
    # pretrain steps, then 3 context-enhancement batches.
    cipher = dict(vocab_size=50, min_len=3, max_len=10, cipher_seed=12345)
    corpus = make_cipher_corpus(256, seed=7, **cipher)
    ce_corpus = make_cipher_corpus(192, seed=8, **cipher)
    vocab_joint = build_vocab([p.source for p in corpus] + [p.target for p in corpus])
    vocab_tgt = build_vocab([p.target for p in corpus])
    cfg = M.ModelConfig(src_vocab=len(vocab_joint), tgt_vocab=len(vocab_tgt), depth=2, dim=64,
                        heads=4, ff_dim=256, emb_dim=64, max_len=12, proj_dim=32)
    TR.train_translation(cfg, corpus, vocab_joint, vocab_tgt, seed=1, steps=1, batch_size=64)
    pretrain = _traced_peak_mb(lambda: TR.train_translation(
        cfg, corpus, vocab_joint, vocab_tgt, seed=1, steps=3, batch_size=64, warmup=200))
    start = TR.fresh_ce_start(cfg, seed=1)
    ce_cfg = TR.CEConfig(lam=5e-3, epochs=1, batch_size=64, proj_dim=32)
    ce = _traced_peak_mb(lambda: TR.context_enhance(start, ce_corpus, vocab_joint, ce_cfg, 1,
                                                    warmup=50))
    print(f"pretrain {pretrain:.1f} MB, ce {ce:.1f} MB")
    assert pretrain < PRETRAIN_PEAK_MB, f"3 pretrain steps peaked at {pretrain:.1f} MB"
    assert ce < CE_PEAK_MB, f"3 CE batches peaked at {ce:.1f} MB"
