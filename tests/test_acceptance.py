"""Acceptance criteria, one test per criterion.

Each test prints one ``[ACCEPTANCE nn] name: PASS/FAIL`` line (visible with
``pytest -s``). Criteria 5-9 share one end-to-end toy run built by the
module-scoped fixture: a substitution-cipher language pair (vocab 50 per
side, lengths 3-10, 2000 train / 200 test pairs) and a small transformer
(2 layers, width 64, 4 heads). Criteria 5-10 use that run and are marked
``slow``: ``pytest -m "not slow"`` skips them and the toy run.
"""

import json
import time
import zlib

import numpy as np
import pytest

from ce_nmt import evaluation as E
from ce_nmt import losses as L
from ce_nmt import model as M
from ce_nmt import numerics as N
from ce_nmt import training as TR
from ce_nmt.data import build_vocab, subtract_centroid
from ce_nmt.synthetic import make_cipher_corpus

from _oracles import barlow_oracle, cross_correlation_oracle
from test_numerics import OP_CASES

STAGE1_BUDGET_S = 30 * 60
CE_BUDGET_S = 15 * 60


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[ACCEPTANCE {num:02d}] {name}: {'PASS' if ok else 'FAIL'} :: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """One full pretrain -> ce -> finetune run on the toy cipher pair."""
    train = make_cipher_corpus(2000, vocab_size=50, min_len=3, max_len=10, seed=100)
    test = make_cipher_corpus(200, vocab_size=50, min_len=3, max_len=10, seed=101)
    sentences = [p.source for p in train] + [p.target for p in train]
    vocab_joint = build_vocab(sentences)
    vocab_tgt = build_vocab([p.target for p in train])
    cfg = M.ModelConfig(src_vocab=len(vocab_joint), tgt_vocab=len(vocab_tgt), depth=2,
                        dim=64, heads=4, ff_dim=256, proj_dim=32, pooling="mean",
                        emb_dim=64, max_len=12)
    refs = [list(p.target) for p in test]

    t0 = time.monotonic()
    pretrain = TR.train_translation(cfg, train, vocab_joint, vocab_tgt, seed=100,
                                    steps=800, batch_size=64, lr=1e-3, warmup=200)
    t_stage1 = time.monotonic() - t0
    bleu_pre = E.bleu(E.translate_corpus(pretrain, test, vocab_joint, vocab_tgt,
                                         batch_size=64), refs)

    metrics = TR.MetricsLog(tmp_path_factory.mktemp("toy") / "ce_metrics.jsonl")
    t0 = time.monotonic()
    ce = TR.context_enhance(pretrain, train, vocab_joint,
                            TR.CEConfig(lam=5e-3, epochs=40, batch_size=64,
                                        pooling="mean", proj_dim=32),
                            seed=101, lr=1e-3, warmup=50, metrics=metrics)
    t_ce = time.monotonic() - t0
    ce_epochs = [json.loads(line) for line in metrics.path.read_text().splitlines()]

    t0 = time.monotonic()
    finetune = TR.finetune_translation(ce, train, vocab_joint, vocab_tgt, steps=800,
                                       seed=102, batch_size=64, lr=1e-3, warmup=200)
    t_finetune = time.monotonic() - t0
    bleu_ft = E.bleu(E.translate_corpus(finetune, test, vocab_joint, vocab_tgt,
                                        batch_size=64), refs)

    base_emb, labels = E.corpus_probe_embeddings(pretrain, test, vocab_joint)
    enh_emb, _ = E.corpus_probe_embeddings(ce, test, vocab_joint)
    protocol = E.run_protocol(base_emb, enh_emb, labels, seed=100)

    return {
        "train": train, "test": test, "cfg": cfg,
        "vocab_joint": vocab_joint, "vocab_tgt": vocab_tgt,
        "pretrain": pretrain, "ce": ce, "finetune": finetune,
        "ce_epochs": ce_epochs, "t_stage1": t_stage1, "t_ce": t_ce,
        "t_finetune": t_finetune, "bleu_pre": bleu_pre, "bleu_ft": bleu_ft,
        "base_emb": base_emb, "enh_emb": enh_emb, "labels": labels,
        "protocol": protocol,
    }


def test_criterion_01_loss_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.monotonic()
    worst = 0.0
    batches = 0
    for lam in (5e-3, 0.1, 1.0):
        for _ in range(36):
            B = int(rng.integers(2, 9))
            d = int(rng.integers(1, 7))
            zs = rng.normal(size=(B, d)) * rng.uniform(0.5, 2.0) + rng.normal()
            zt = rng.normal(size=(B, d)) * rng.uniform(0.5, 2.0) + rng.normal()
            got = L.barlow_twins_loss(N.Tensor(zs), N.Tensor(zt), lam=lam)
            want_total, want_inv, want_red = barlow_oracle(zs, zt, lam)
            want_c = cross_correlation_oracle(zs, zt)
            got_c = L.cross_correlation(N.Tensor(zs), N.Tensor(zt)).values
            worst = max(worst,
                        abs(got.total - want_total),
                        abs(got.invariance_term - want_inv),
                        abs(got.redundancy_term - want_red),
                        float(np.max(np.abs(got_c - want_c))))
            batches += 1
    elapsed = time.monotonic() - t0
    _report(1, "loss oracle equivalence", worst < 1e-12 and elapsed < 10.0 and batches >= 100,
            f"{batches} batches, max |diff| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_analytic_fixed_points():
    hadamard = N.Tensor(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]))
    zero_loss = L.barlow_twins_loss(hadamard, hadamard, lam=5e-3, eps=0.0).total
    anti = L.barlow_twins_loss(N.Tensor([[1.0], [-1.0]]), N.Tensor([[-1.0], [1.0]]),
                               lam=5e-3, eps=0.0).total
    uniform = L.translation_loss(N.Tensor(np.zeros((2, 3, 7))),
                                 np.ones((2, 3), dtype=int),
                                 np.ones((2, 3), dtype=bool)).item()
    ok = (abs(zero_loss) < 1e-12 and abs(anti - 4.0) < 1e-12
          and abs(uniform - np.log(7)) < 1e-10)
    _report(2, "analytic fixed points", ok,
            f"hadamard {zero_loss:.2e}, anti |x-4| {abs(anti - 4.0):.2e}, "
            f"uniform |x-lnV| {abs(uniform - np.log(7)):.2e}")


def test_criterion_03_gradient_suite():
    t0 = time.monotonic()
    worst_op = 0.0
    for name, case in sorted(OP_CASES.items()):
        for trial in range(5):
            rng = np.random.default_rng(zlib.crc32(name.encode()) + 10_000 + trial)
            f, inputs = case(rng)
            worst_op = max(worst_op, N.grad_check(f, inputs))

    cfg = M.ModelConfig(src_vocab=10, tgt_vocab=10, depth=2, dim=8, heads=2,
                        ff_dim=16, proj_dim=3, emb_dim=6, max_len=8)
    # grad_check requires a point where the objective is differentiable; this
    # seed keeps every relu input at least 6e-3 from the kink (eps is 1e-5).
    rng = np.random.default_rng(37)
    enc = M.init_encoder_params(cfg, rng)
    proj = M.init_projection_params(cfg, rng)
    src = np.array([[1, 4, 5, 2], [1, 6, 2, 0], [1, 7, 8, 2], [1, 5, 9, 2]])
    tgt = np.array([[1, 6, 2, 0], [1, 4, 7, 2], [1, 8, 2, 0], [1, 4, 2, 0]])
    src_mask, tgt_mask = src != 0, tgt != 0
    tensors = list(enc.tensors.values()) + list(proj.tensors.values())

    def ce_objective(*_):
        zs = M.project(M.pool(M.encode(src, src_mask, enc, cfg), "mean"), proj)
        zt = M.project(M.pool(M.encode(tgt, tgt_mask, enc, cfg), "mean"), proj)
        return L.barlow_twins_loss(zs, zt, lam=5e-3).loss

    composed = N.grad_check(ce_objective, tensors)
    elapsed = time.monotonic() - t0
    ok = worst_op < 1e-4 and composed < 1e-4 and elapsed < 300.0
    _report(3, "gradient suite", ok,
            f"ops max err {worst_op:.2e}, composed CE objective err {composed:.2e} "
            f"({sum(t.values.size for t in tensors)} coords), {elapsed:.0f}s")


def test_criterion_04_mask_and_causality():
    rng = np.random.default_rng(4242)
    configs = 0
    for trial in range(50):
        heads = int(rng.choice([1, 2, 4]))
        cfg = M.ModelConfig(src_vocab=14, tgt_vocab=12, depth=int(rng.integers(1, 3)),
                            dim=heads * int(rng.choice([2, 4, 8])),
                            heads=heads, ff_dim=int(rng.integers(4, 20)),
                            proj_dim=3, emb_dim=int(rng.integers(4, 10)), max_len=10)
        enc = M.init_encoder_params(cfg, rng)
        dec = M.init_decoder_params(cfg, rng)

        def batch(t, vocab):
            lengths = rng.integers(2, t + 1, size=3)
            ids = np.zeros((3, t), dtype=np.int64)
            for b, Ln in enumerate(lengths):
                ids[b, 0] = 1
                ids[b, 1:Ln - 1] = rng.integers(4, vocab, size=Ln - 2)
                ids[b, Ln - 1] = 2
            return ids, ids != 0

        src_ids, src_mask = batch(int(rng.integers(4, 8)), cfg.src_vocab)
        tgt_ids, tgt_mask = batch(5, cfg.tgt_vocab)
        latent = M.encode(src_ids, src_mask, enc, cfg)
        logits = M.decode(latent, tgt_ids, tgt_mask, dec, cfg).values

        if not src_mask.all():
            altered = src_ids.copy()
            b, t = np.argwhere(~src_mask)[int(rng.integers(0, (~src_mask).sum()))]
            altered[b, t] = int(rng.integers(4, cfg.src_vocab))
            lat2 = M.encode(altered, src_mask, enc, cfg)
            assert np.array_equal(latent.values.values[src_mask], lat2.values.values[src_mask])
            assert np.array_equal(M.pool(latent, "mean").values,
                                  M.pool(lat2, "mean").values)
            assert np.array_equal(M.pool(latent, "max").values,
                                  M.pool(lat2, "max").values)
            assert np.array_equal(logits, M.decode(lat2, tgt_ids, tgt_mask, dec, cfg).values)

        for j in range(4):
            altered_t = tgt_ids.copy()
            altered_t[:, j + 1] = (altered_t[:, j + 1] % (cfg.tgt_vocab - 4)) + 4
            out2 = M.decode(latent, altered_t, altered_t != 0, dec, cfg).values
            assert np.array_equal(logits[:, : j + 1], out2[:, : j + 1])
        configs += 1
    _report(4, "mask invariance and causality", configs >= 50,
            f"{configs} randomized configurations, all exact at 64-bit")


@pytest.mark.slow
def test_criterion_05_toy_translation(toy):
    ok = toy["bleu_pre"] >= 95.0 and toy["t_stage1"] < STAGE1_BUDGET_S
    _report(5, "toy translation end-to-end", ok,
            f"stage-1 BLEU {toy['bleu_pre']:.2f} (need >= 95), "
            f"{toy['t_stage1']:.0f}s of {STAGE1_BUDGET_S}s budget")


@pytest.mark.slow
def test_criterion_06_ce_behavior(toy):
    first, last = toy["ce_epochs"][0], toy["ce_epochs"][-1]
    inv_ratio = last["invariance_term"] / first["invariance_term"]
    red_ratio = last["redundancy_term"] / first["redundancy_term"]
    ok = inv_ratio <= 0.1 and red_ratio <= 0.5 and toy["t_ce"] < CE_BUDGET_S
    _report(6, "context enhancement behavior", ok,
            f"invariance {first['invariance_term']:.3f} -> {last['invariance_term']:.5f} "
            f"(x{inv_ratio:.4f}, need <= 0.1), off-diagonal energy "
            f"{first['redundancy_term']:.1f} -> {last['redundancy_term']:.1f} "
            f"(x{red_ratio:.3f}, need <= 0.5), {toy['t_ce']:.0f}s of {CE_BUDGET_S}s")


@pytest.mark.slow
def test_criterion_07_agnosticism_probe(toy):
    res = toy["protocol"]
    ordering = "a2 < a3 < a1" if res.a2 < res.a3 < res.a1 else "not a2 < a3 < a1"
    ok = res.a1 >= 0.9 and res.a2 <= res.a1 - 0.1
    _report(7, "language-agnosticism probe", ok,
            f"a1 {res.a1:.3f} (need >= 0.9), a2 {res.a2:.3f} "
            f"(need <= a1 - 0.1), a3 {res.a3:.3f}; observed ordering: {ordering} "
            "(reported, not asserted)")


@pytest.mark.slow
def test_criterion_08_centroid_protocol(toy):
    rng = np.random.default_rng(8)
    rand_centered = subtract_centroid(rng.normal(size=(64, 16)) * 5 + 3)
    toy_centered = subtract_centroid(toy["base_emb"])
    norms = (float(np.linalg.norm(rand_centered.mean(axis=0))),
             float(np.linalg.norm(toy_centered.mean(axis=0))))
    sent = E.run_centroid_protocol(toy["base_emb"], toy["labels"], seed=100)
    w_emb, w_labels = E.word_probe_embeddings(toy["pretrain"], toy["test"], toy["vocab_joint"])
    word = E.run_centroid_protocol(w_emb, w_labels, seed=100)
    triples_ok = all(0.0 <= v <= 1.0 for r in (sent, word) for v in (r.a1, r.a2, r.a3))
    ok = max(norms) < 1e-8 and triples_ok and sent.variant == word.variant == "centroid"
    _report(8, "centroid protocol", ok,
            f"centered column-mean norms {norms[0]:.1e}/{norms[1]:.1e} (need < 1e-8); "
            f"sentence (a1',a2',a3') = ({sent.a1:.3f}, {sent.a2:.3f}, {sent.a3:.3f}); "
            f"word ({word.a1:.3f}, {word.a2:.3f}, {word.a3:.3f})")


@pytest.mark.slow
def test_criterion_09_no_regression_guard(toy):
    delta = toy["bleu_ft"] - toy["bleu_pre"]
    ok = abs(delta) <= 2.0
    _report(9, "fine-tune no-regression guard", ok,
            f"stage-1 BLEU {toy['bleu_pre']:.2f}, fine-tuned BLEU {toy['bleu_ft']:.2f}, "
            f"delta {delta:+.2f} (need within +/- 2; improvement logged, not asserted)")


@pytest.mark.slow
def test_criterion_10_determinism_and_persistence(toy, tmp_path):
    # (a) fixed-seed pipeline reruns: byte-identical 64-bit metrics logs
    corpus = make_cipher_corpus(30, vocab_size=12, min_len=2, max_len=4, seed=0)
    sentences = [p.source for p in corpus] + [p.target for p in corpus]
    vj = build_vocab(sentences)
    vt = build_vocab([p.target for p in corpus])
    cfg = M.ModelConfig(src_vocab=len(vj), tgt_vocab=len(vt), depth=1, dim=16, heads=2,
                        ff_dim=32, proj_dim=4, emb_dim=16, max_len=8)
    ce_cfg = TR.CEConfig(lam=5e-3, epochs=2, batch_size=8, proj_dim=4, pooling="mean")
    blobs = []
    for run in range(2):
        TR.run_pipeline(cfg, ce_cfg, corpus, vj, vt, seed=42,
                        out_dir=tmp_path / f"run{run}", steps=4,
                        finetune_steps=3, batch_size=8, warmup=2)
        blobs.append((tmp_path / f"run{run}" / "metrics.jsonl").read_bytes())
    logs_identical = blobs[0] == blobs[1] and len(blobs[0]) > 0

    # (b) checkpoint round-trip reproduces probe-batch outputs exactly
    from ce_nmt.data import batch_iter

    path_a = TR.save_checkpoint(toy["pretrain"], tmp_path / "probe.ckpt")
    loaded = TR.load_checkpoint(path_a)
    path_b = TR.save_checkpoint(loaded, tmp_path / "probe2.ckpt")
    reloaded = TR.load_checkpoint(path_b)
    probe = next(batch_iter(toy["test"], toy["vocab_joint"], toy["vocab_tgt"], 8, max_len=12))

    def outputs(ckpt):
        latent = M.encode(probe.source_ids, probe.source_mask, ckpt.encoder, ckpt.config)
        return M.decode(latent, probe.target_ids[:, :-1], probe.target_mask[:, :-1],
                        ckpt.decoder, ckpt.config).values

    bytes_identical = path_a.read_bytes() == path_b.read_bytes()
    outputs_identical = np.array_equal(outputs(loaded), outputs(reloaded))

    # (c) monitor flags all-rows-tied embeddings within one epoch of batches
    monitor = TR.CollapseMonitor()
    tied = np.ones((16, 8))
    flagged_at = None
    for obs in range(1, 11):       # one epoch's worth of batches
        if monitor.observe(tied).status == "collapsed":
            flagged_at = obs
            break
    monitor_ok = flagged_at is not None and flagged_at <= 10

    ok = logs_identical and bytes_identical and outputs_identical and monitor_ok
    _report(10, "determinism and persistence", ok,
            f"logs byte-identical: {logs_identical}; checkpoint bytes stable: "
            f"{bytes_identical}; probe outputs exact: {outputs_identical}; "
            f"tied-rows collapse flagged at observation {flagged_at}")
