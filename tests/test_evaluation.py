import collections
import math

import numpy as np
import pytest

from _oracles import greedy_decode_reference
from ce_nmt import evaluation as E
from ce_nmt import model as M
from ce_nmt import numerics as N
from ce_nmt import training as TR
from ce_nmt.data import BOS, EOS, PAD, build_vocab, source_batches
from ce_nmt.errors import ProtocolError
from ce_nmt.synthetic import make_cipher_corpus


def blobs(n_per_class=100, sep=8.0, h=6, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_per_class, h))
    b = rng.normal(size=(n_per_class, h))
    a[:, 0] += sep
    emb = np.vstack([a, b])
    labels = ["en"] * n_per_class + ["de"] * n_per_class
    return emb, labels


def holdout_accuracy(emb, labels, seed=0) -> float:
    """Holdout accuracy of a probe fit on a stratified split: ``a1`` of the protocol."""
    return E.run_protocol(emb, emb, labels, seed).a1


# -- probe ---------------------------------------------------------------------

def test_probe_separable_blobs():
    emb, labels = blobs()
    assert holdout_accuracy(emb, labels) >= 0.99


def test_probe_shuffled_labels_near_chance():
    emb, _ = blobs(n_per_class=500)
    rng = np.random.default_rng(1)
    labels = list(rng.permutation(["en"] * 500 + ["de"] * 500))
    assert 0.4 <= holdout_accuracy(emb, labels) <= 0.6


def test_probe_identical_embeddings_majority_rate():
    emb = np.ones((100, 4))
    labels = ["en"] * 60 + ["de"] * 40
    acc = holdout_accuracy(emb, labels)
    # Constant features force a constant prediction: the majority class.
    train_idx, test_idx = E.stratified_split(labels, 0)
    majority_rate = sum(1 for i in test_idx if labels[i] == "en") / len(test_idx)
    assert acc == pytest.approx(majority_rate)


def test_probe_single_language_rejected():
    with pytest.raises(ProtocolError):
        holdout_accuracy(np.ones((20, 3)), ["en"] * 20)


def test_probe_too_few_samples_rejected():
    with pytest.raises(ProtocolError):
        holdout_accuracy(np.ones((12, 3)), ["en"] * 9 + ["de"] * 3)


def test_probe_deterministic():
    emb, labels = blobs(seed=3)
    p1 = E.fit_probe(emb, labels, ["de", "en"])
    p2 = E.fit_probe(emb, labels, ["de", "en"])
    assert np.array_equal(p1.weights, p2.weights) and np.array_equal(p1.bias, p2.bias)
    assert holdout_accuracy(emb, labels, seed=5) == holdout_accuracy(emb, labels, seed=5)


def test_stratified_split_is_stratified():
    labels = ["en"] * 40 + ["de"] * 20
    train_idx, test_idx = E.stratified_split(labels, seed=2)
    assert len(train_idx) + len(test_idx) == 60
    test_labels = [labels[i] for i in test_idx]
    assert test_labels.count("en") == 8 and test_labels.count("de") == 4
    assert not set(train_idx) & set(test_idx)


# -- protocol -----------------------------------------------------------------------

def test_protocol_identity_enhanced():
    emb, labels = blobs(seed=4)
    res = E.run_protocol(emb, emb.copy(), labels, seed=1)
    assert res.a2 == res.a1
    assert res.a3 == res.a1
    assert res.variant == "ce"
    assert res.summary()["languages"] == ["de", "en"]


def test_protocol_zero_enhanced():
    emb, labels = blobs(n_per_class=200, seed=5)
    res = E.run_protocol(emb, np.zeros_like(emb), labels, seed=1)
    assert res.a1 >= 0.99
    assert 0.3 <= res.a2 <= 0.7          # frozen probe on zeros: constant prediction
    assert 0.3 <= res.a3 <= 0.7          # nothing to learn from identical rows


def test_protocol_row_misalignment_rejected():
    emb, labels = blobs()
    with pytest.raises(ProtocolError):
        E.run_protocol(emb, emb[:-1], labels, seed=0)


def test_centroid_protocol_already_centered():
    emb, labels = blobs(seed=7)
    centered = emb - emb.mean(axis=0)
    res = E.run_centroid_protocol(centered, labels, seed=3)
    assert res.a2 == res.a1
    assert res.variant == "centroid"


def test_centroid_protocol_preserves_between_language_separation():
    # Two language clusters differing only by a per-language offset: centroid
    # subtraction over ALL embeddings shifts everything equally.
    rng = np.random.default_rng(8)
    a = rng.normal(size=(150, 5)) + np.array([6.0, 0, 0, 0, 0])
    b = rng.normal(size=(150, 5)) - np.array([6.0, 0, 0, 0, 0])
    emb = np.vstack([a, b])
    labels = ["en"] * 150 + ["fr"] * 150
    res = E.run_centroid_protocol(emb, labels, seed=4)
    assert res.a1 >= 0.99
    assert abs(res.a2 - res.a1) <= 0.02


def test_centroid_protocol_single_language_rejected():
    with pytest.raises(ProtocolError):
        E.run_centroid_protocol(np.ones((30, 3)), ["en"] * 30, seed=0)


# -- BLEU ------------------------------------------------------------------------------

def test_bleu_identity_is_100():
    sents = [["the", "cat"], ["a", "dog", "runs", "fast"], ["hi"]]
    assert E.bleu(sents, sents) == pytest.approx(100.0)


def test_bleu_zero_overlap_small_after_smoothing():
    hyps = [[f"x{i}_{j}" for j in range(10)] for i in range(20)]
    refs = [[f"y{i}_{j}" for j in range(10)] for i in range(20)]
    score = E.bleu(hyps, refs)
    totals = [20 * (10 - n + 1) for n in range(1, 5)]
    expected = 100.0 * math.exp(sum(math.log(1.0 / (2 * t)) for t in totals) / 4)
    assert score == pytest.approx(expected, abs=1e-10)
    assert score < 1.0


def test_bleu_hand_case():
    score = E.bleu([["the", "cat", "sat"]], [["the", "cat", "sat", "down"]])
    # p1 = p2 = p3 = 1 (no 4-grams exist); BP = exp(1 - 4/3).
    assert score == pytest.approx(100.0 * math.exp(1.0 - 4.0 / 3.0), abs=1e-10)


def test_bleu_clips_repeated_ngrams():
    score = E.bleu([["the", "the", "the"]], [["the", "cat"]])
    # p1 = 1/3 (clipped); p2 smoothing 1/(2*2); p3 1/(2*1); BP: c=3 > r=2.
    expected = 100.0 * math.exp(
        (math.log(1.0 / 3.0) + math.log(1.0 / 4.0) + math.log(1.0 / 2.0)) / 3)
    assert score == pytest.approx(expected, abs=1e-10)


def test_bleu_permutation_invariant():
    rng = np.random.default_rng(9)
    hyps = [[f"w{rng.integers(0, 9)}" for _ in range(int(rng.integers(1, 8)))] for _ in range(12)]
    refs = [[f"w{rng.integers(0, 9)}" for _ in range(int(rng.integers(1, 8)))] for _ in range(12)]
    base = E.bleu(hyps, refs)
    perm = rng.permutation(12)
    assert E.bleu([hyps[i] for i in perm], [refs[i] for i in perm]) == base


def test_bleu_empty_corpus_rejected():
    with pytest.raises(ProtocolError):
        E.bleu([], [])


def test_bleu_count_mismatch_rejected():
    with pytest.raises(ProtocolError):
        E.bleu([["a"]], [["a"], ["b"]])


def test_bleu_all_empty_hypotheses_zero():
    assert E.bleu([[], []], [["a"], ["b"]]) == 0.0


# -- decode + diagnostics -----------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_toy():
    corpus = make_cipher_corpus(48, vocab_size=8, min_len=2, max_len=4, seed=2)
    sentences = [p.source for p in corpus] + [p.target for p in corpus]
    vocab_joint = build_vocab(sentences)
    vocab_tgt = build_vocab([p.target for p in corpus])
    cfg = M.ModelConfig(src_vocab=len(vocab_joint), tgt_vocab=len(vocab_tgt), depth=1,
                        dim=16, heads=2, ff_dim=32, proj_dim=4, emb_dim=16, max_len=8)
    pre = TR.train_translation(cfg, corpus, vocab_joint, vocab_tgt, seed=1, steps=40,
                               batch_size=16, lr=3e-3, warmup=10)
    ce = TR.context_enhance(pre, corpus, vocab_joint,
                            TR.CEConfig(lam=5e-3, epochs=1, batch_size=16, proj_dim=4), seed=2)
    full = TR.Checkpoint(cfg, "finetune", 1, pre.step, ce.encoder, decoder=pre.decoder,
                         projection=ce.projection)
    return corpus, vocab_joint, vocab_tgt, cfg, full


def test_greedy_decode_shapes_and_stop(trained_toy):
    corpus, vocab_joint, vocab_tgt, cfg, ckpt = trained_toy
    hyps = E.translate_corpus(ckpt, corpus, vocab_joint, vocab_tgt)
    assert len(hyps) == len(corpus)
    assert all(len(h) <= cfg.max_len for h in hyps)


def test_greedy_decode_matches_reference_on_trained_toy(trained_toy):
    corpus, vocab_joint, vocab_tgt, cfg, ckpt = trained_toy
    for src_ids in source_batches([p.source for p in corpus], vocab_joint, 16, cfg.max_len):
        args = (ckpt.encoder, ckpt.decoder, cfg, src_ids, src_ids != PAD)
        assert E.greedy_decode(*args) == greedy_decode_reference(*args)


def test_greedy_decode_matches_reference_on_random_models():
    lengths_seen = set()
    for seed in range(8):
        rng = np.random.default_rng(seed)
        heads = [1, 2, 4][seed % 3]
        cfg = M.ModelConfig(src_vocab=12, tgt_vocab=9, depth=1 + seed % 2, dim=4 * heads,
                            heads=heads, ff_dim=16, emb_dim=6, max_len=9)
        enc = M.init_encoder_params(cfg, rng)
        dec = M.init_decoder_params(cfg, rng)
        # Sharper outputs and a stronger pull from the source make rows of one
        # batch stop at different steps.
        for i in range(cfg.depth):
            dec[f"layer{i}.cross.wo"].values *= 6.0
        dec["out_w"].values *= 6.0
        src_ids = np.full((16, 6), PAD, dtype=np.int64)
        for b, length in enumerate(rng.integers(2, 7, size=16)):
            src_ids[b, 0], src_ids[b, length - 1] = BOS, EOS
            src_ids[b, 1:length - 1] = rng.integers(4, 12, size=length - 2)
        args = (enc, dec, cfg, src_ids, src_ids != PAD)
        got = E.greedy_decode(*args)
        assert got == greedy_decode_reference(*args), f"seed {seed}"
        lengths_seen.update(len(row) for row in got)
    # EOS at the first step, at later steps, and rows cut off at max_len
    assert {0, cfg.max_len - 1} < lengths_seen and len(lengths_seen) >= 4


def _random_decode_setup(seed, dtype=np.float64):
    """A tiny random model whose rows stop at different steps, and a source batch."""
    rng = np.random.default_rng(seed)
    heads = [1, 2, 4][seed % 3]
    cfg = M.ModelConfig(src_vocab=12, tgt_vocab=9, depth=1 + seed % 2, dim=4 * heads,
                        heads=heads, ff_dim=16, emb_dim=6, max_len=9)
    enc = M.init_encoder_params(cfg, rng, dtype)
    dec = M.init_decoder_params(cfg, rng, dtype)
    for i in range(cfg.depth):
        dec[f"layer{i}.cross.wo"].values *= 6.0
    dec["out_w"].values *= 6.0
    src_ids = np.full((16, 6), PAD, dtype=np.int64)
    for b, length in enumerate(rng.integers(2, 7, size=16)):
        src_ids[b, 0], src_ids[b, length - 1] = BOS, EOS
        src_ids[b, 1:length - 1] = rng.integers(4, 12, size=length - 2)
    return cfg, enc, dec, src_ids


def test_greedy_decode_float32_matches_reference_and_stays_float32():
    for seed in range(6):
        cfg, enc, dec, src_ids = _random_decode_setup(seed, np.float32)
        args = (enc, dec, cfg, src_ids, src_ids != PAD)
        assert E.greedy_decode(*args) == greedy_decode_reference(*args), f"seed {seed}"
        bos = np.full((16, 1), BOS, dtype=np.int64)
        with N.no_grad():
            latent = M.encode(src_ids, src_ids != PAD, enc, cfg)
            cache = M.DecodeCache()
            for step in range(3):
                logits = M.decode(latent, bos + step, bos != PAD, dec, cfg, cache=cache)
                assert logits.dtype == np.float32
        assert all(a.dtype == np.float32 for kv in cache.self_kv + cache.cross_kv for a in kv)


def test_greedy_decode_builds_cross_keys_once_a_batch(monkeypatch):
    cfg, enc, dec, src_ids = _random_decode_setup(1)
    calls = collections.Counter()
    names = {id(w): name for name, w in dec.items()}
    linear = N.linear

    def counted(x, w, *args, **kwargs):
        calls[names.get(id(w))] += 1
        return linear(x, w, *args, **kwargs)

    monkeypatch.setattr(N, "linear", counted)
    E.greedy_decode(enc, dec, cfg, src_ids, src_ids != PAD)
    assert calls["layer0.self.wk"] > 2           # several decode steps ran
    for i in range(cfg.depth):
        assert calls[f"layer{i}.cross.wk"] == calls[f"layer{i}.cross.wv"] == 1


def test_translate_leaves_training_bytes_unchanged(trained_toy, tmp_path):
    corpus, vocab_joint, vocab_tgt, cfg, ckpt = trained_toy

    def train(name):
        log = TR.MetricsLog(tmp_path / name)
        TR.train_translation(cfg, corpus, vocab_joint, vocab_tgt, seed=4, steps=6,
                             batch_size=16, lr=3e-3, warmup=2, metrics=log)
        return (tmp_path / name).read_bytes()

    before = train("before.jsonl")
    E.translate_corpus(ckpt, corpus, vocab_joint, vocab_tgt)
    assert N.grad_enabled()
    assert train("after.jsonl") == before


def test_corpus_probe_embeddings_shapes(trained_toy):
    corpus, vocab_joint, _, cfg, ckpt = trained_toy
    emb, labels = E.corpus_probe_embeddings(ckpt, corpus, vocab_joint)
    assert emb.shape == (2 * len(corpus), cfg.dim)
    assert labels.count("src") == len(corpus) and labels.count("tgt") == len(corpus)


def test_word_probe_embeddings_exclusive_tokens(trained_toy):
    corpus, vocab_joint, _, cfg, ckpt = trained_toy
    emb, labels = E.word_probe_embeddings(ckpt, corpus, vocab_joint)
    assert emb.shape[1] == cfg.emb_dim
    assert set(labels) == {"src", "tgt"}


def test_export_diagnostics_files(trained_toy, tmp_path):
    corpus, vocab_joint, vocab_tgt, cfg, ckpt = trained_toy
    files = E.export_diagnostics(ckpt, corpus, vocab_joint, tmp_path, vocab_tgt=vocab_tgt,
                                 batch_size=6)
    names = {f.name for f in files}
    attention = [n for n in names if n.startswith("attention_")]
    # encoder self + decoder self + decoder cross, per layer per head
    assert len(attention) == cfg.depth * cfg.heads * 3
    assert "sentence_embeddings.csv" in names
    assert "word_embeddings.csv" in names
    assert "correlation_batch0.csv" in names

    import csv as csv_mod

    with (tmp_path / attention[0]).open() as fh:
        rows = list(csv_mod.reader(fh))
    header, data = rows[0], rows[1:]
    assert all(abs(sum(map(float, row)) - 1.0) < 1e-5 for row in data)

    with (tmp_path / "correlation_batch0.csv").open() as fh:
        rows = list(csv_mod.reader(fh))
    loaded = np.array([[float(v) for v in row] for row in rows[1:]])
    assert loaded.shape == (cfg.proj_dim, cfg.proj_dim)
    assert np.abs(loaded).max() <= 1.0 + 1e-6
