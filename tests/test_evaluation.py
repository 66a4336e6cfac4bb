import collections
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from _oracles import greedy_decode_reference
from ce_nmt import evaluation as E
from ce_nmt import model as M
from ce_nmt import numerics as N
from ce_nmt import training as TR
from ce_nmt.data import BOS, EOS, PAD, Vocabulary, build_vocab, source_batches
from ce_nmt.errors import ProtocolError
from ce_nmt.synthetic import make_cipher_corpus

FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture"


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
    ids = np.array([lab == "en" for lab in labels], dtype=int)    # de 0, en 1
    train_idx, test_idx = E.stratified_split(ids, 0)
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
    ids = np.array([lab == "en" for lab in labels], dtype=int)    # de 0, en 1
    p1 = E.fit_probe(emb, ids, 2)
    p2 = E.fit_probe(emb, ids, 2)
    assert np.array_equal(p1.weights, p2.weights) and np.array_equal(p1.bias, p2.bias)
    assert holdout_accuracy(emb, labels, seed=5) == holdout_accuracy(emb, labels, seed=5)


def test_stratified_split_is_stratified():
    labels = ["en"] * 40 + ["de"] * 20
    ids = np.array([lab == "en" for lab in labels], dtype=int)    # de 0, en 1
    train_idx, test_idx = E.stratified_split(ids, seed=2)
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


def three_language_probe_data():
    """Rows of fr, de and en, their labels interleaved out of sorted order;
    de has exactly ``MIN_SAMPLES_PER_LANGUAGE`` rows. The clusters overlap,
    so no accuracy is 0 or 1, and ``enhanced`` halves their offsets."""
    rng = np.random.default_rng(21)
    left = {"fr": 19, "de": E.MIN_SAMPLES_PER_LANGUAGE, "en": 14}
    labels = []
    while any(left.values()):
        for lang in left:
            if left[lang]:
                labels.append(lang)
                left[lang] -= 1
    offset = {"fr": [1.5, 0.0, 0.0, 0.0], "de": [0.0, 1.5, 0.0, 0.0], "en": [0.0, 0.0, 1.5, 0.0]}
    shift = np.array([offset[lang] for lang in labels])
    noise = rng.normal(size=shift.shape)
    return noise + shift, noise + 0.5 * shift, labels


# The records of ``run_protocol`` and ``run_centroid_protocol`` on
# ``three_language_probe_data`` (seed 3). Accuracies are counts of test rows
# over their number, so they hold on any BLAS build that makes the same
# predictions.
PINNED_THREE_LANGUAGE = {
    "ce": {"variant": "ce", "a1": 6 / 9, "a2": 5 / 9, "a3": 5 / 9, "n_samples": 43,
           "languages": ["de", "en", "fr"]},
    "centroid": {"variant": "centroid", "a1": 6 / 9, "a2": 6 / 9, "a3": 6 / 9, "n_samples": 43,
                 "languages": ["de", "en", "fr"]},
}


def test_three_language_protocols_pinned():
    baseline, enhanced, labels = three_language_probe_data()
    assert labels[:4] == ["fr", "de", "en", "fr"]
    got = {"ce": E.run_protocol(baseline, enhanced, labels, seed=3).summary(),
           "centroid": E.run_centroid_protocol(baseline, labels, seed=3).summary()}
    assert got == PINNED_THREE_LANGUAGE


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


def _random_decode_setup(seed, dtype=np.float64):
    """A tiny random model whose rows stop at different steps, and a source batch."""
    rng = np.random.default_rng(seed)
    heads = [1, 2, 4][seed % 3]
    cfg = M.ModelConfig(src_vocab=12, tgt_vocab=9, depth=1 + seed % 2, dim=4 * heads,
                        heads=heads, ff_dim=16, emb_dim=6, max_len=9)
    enc = M.init_params(cfg, "encoder", rng, dtype)
    dec = M.init_params(cfg, "decoder", rng, dtype)
    # Sharper outputs and a stronger pull from the source make rows of one
    # batch stop at different steps.
    for i in range(cfg.depth):
        dec[f"layer{i}.cross.wo"].values *= 6.0
    dec["out_w"].values *= 6.0
    src_ids = np.full((16, 6), PAD, dtype=np.int64)
    for b, length in enumerate(rng.integers(2, 7, size=16)):
        src_ids[b, 0], src_ids[b, length - 1] = BOS, EOS
        src_ids[b, 1:length - 1] = rng.integers(4, 12, size=length - 2)
    return cfg, enc, dec, src_ids


def _decode_cases(dtype):
    """``greedy_decode`` arguments on random models: whole batches, one-row
    batches, and models biased so that every row emits EOS at the first
    step, or none emits it before ``max_len``."""
    for seed in range(8):
        cfg, enc, dec, src_ids = _random_decode_setup(seed, dtype)
        yield f"seed {seed}", (enc, dec, cfg, src_ids, src_ids != PAD)
        one = src_ids[seed:seed + 1]
        yield f"seed {seed}, one row", (enc, dec, cfg, one, one != PAD)
    for name, bias in (("EOS first", 1e3), ("no EOS", -1e3)):
        cfg, enc, dec, src_ids = _random_decode_setup(0, dtype)
        dec["out_b"].values[EOS] += bias
        yield name, (enc, dec, cfg, src_ids, src_ids != PAD)


def _prefix_events(src_mask, rows, max_len):
    """How the running prefix moves on one decoded batch."""
    lengths = np.count_nonzero(src_mask, axis=1)
    longest = int(np.argmax(lengths))
    events = set()
    if len(rows) == 1:
        events.add("one row")
    if all(not row for row in rows):
        events.add("every row stops at the first step")
    if any(len(row) == max_len - 1 for row in rows):
        events.add("a row runs to max_len")
    # The longest source's row leads the length order; when it stops
    # before another row, the prefix cannot shrink yet.
    if len(rows[longest]) < max(len(row) for row in rows):
        events.add("the longest source stops first")
    return events


def test_greedy_decode_matches_reference_on_random_models():
    lengths_seen, events = set(), set()
    for name, args in _decode_cases(np.float64):
        got = E.greedy_decode(*args)
        assert got == greedy_decode_reference(*args), name
        lengths_seen.update(len(row) for row in got)
        events |= _prefix_events(args[4], got, args[2].max_len)
    # EOS at the first step, at later steps, and rows cut off at max_len 9
    assert {0, 8} < lengths_seen and len(lengths_seen) >= 4
    assert events == {"one row", "every row stops at the first step",
                      "a row runs to max_len", "the longest source stops first"}


def test_greedy_decode_float32_matches_reference_and_stays_float32():
    for name, args in _decode_cases(np.float32):
        assert E.greedy_decode(*args) == greedy_decode_reference(*args), name
    for seed in range(6):
        cfg, enc, dec, src_ids = _random_decode_setup(seed, np.float32)
        bos = np.full((16, 1), BOS, dtype=np.int64)
        with N.no_grad():
            latent = M.encode(src_ids, src_ids != PAD, enc, cfg)
            cache = M.DecodeCache(latent, dec, cfg)
            for step in range(3):
                logits = M.decode(latent, bos + step, bos != PAD, dec, cfg, cache=cache)
                assert logits.dtype == np.float32
        assert all(a.dtype == np.float32 for kv in cache.self_kv + cache.cross_kv for a in kv)


def test_greedy_decode_feeds_only_the_running_prefix(monkeypatch):
    # On cipher data the bench fixture's output length follows source
    # length, so each row leaves the decoder right after its EOS: the rows
    # fed, summed over steps, are the tokens emitted plus one EOS a row.
    ckpt = TR.load_checkpoint(FIXTURE / "pretrain.ckpt")
    vocab_src = Vocabulary.load(FIXTURE / "vocab_src.txt")
    corpus = make_cipher_corpus(32, vocab_size=50, min_len=3, max_len=10, cipher_seed=12345,
                                seed=3)
    [src_ids] = source_batches([p.source for p in corpus], vocab_src, 32, ckpt.config.max_len)
    args = (ckpt.encoder, ckpt.decoder, ckpt.config, src_ids, src_ids != PAD)
    expected = greedy_decode_reference(*args)
    order = np.argsort(-np.count_nonzero(src_ids != PAD, axis=1), kind="stable")
    stops = [len(expected[i]) for i in order]
    assert stops == sorted(stops, reverse=True) and max(stops) < ckpt.config.max_len - 1
    fed = []
    decode = M.decode

    def counted(latent, tgt_ids, *rest, **kwargs):
        fed.append(tgt_ids.shape[0])
        return decode(latent, tgt_ids, *rest, **kwargs)

    monkeypatch.setattr(M, "decode", counted)
    assert E.greedy_decode(*args) == expected
    assert sum(fed) == sum(len(row) + 1 for row in expected)


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


# sha256 of every file ``export_diagnostics`` writes for a depth-2 float64 ce
# checkpoint that carries a decoder and a projection, taken before attention
# maps were recorded through ``numerics.attention_maps``. Swapping the
# decoder's self and cross maps, or two layers' maps, moves these.
DIAGNOSTICS_SHA256 = {
    "attention_decoder_cross_l0_h0.csv":
        "510b68139205f8772ca374aee9e221309d6a82357b56729c314c59c6e90d5d2e",
    "attention_decoder_cross_l0_h1.csv":
        "d711d8e503cb85ff7e1941cbf61b90f5380e56d528ee996ccc5230b512aa08db",
    "attention_decoder_cross_l1_h0.csv":
        "4602172806cd8a8334645df72191a83374f2e29522018041644d752ea7a3ce34",
    "attention_decoder_cross_l1_h1.csv":
        "d452497866c4fe1c9828a75bd928287289460ada300b3909e9ed4a7877595a01",
    "attention_decoder_self_l0_h0.csv":
        "34320b56fdefd06eaa4382ebe85497bf7d7d2e3e95e3d6cf3728da79011ddf78",
    "attention_decoder_self_l0_h1.csv":
        "542821b79a24acf099b86695ec2806754db02c409025c3ee3f1b7030b79bc1fb",
    "attention_decoder_self_l1_h0.csv":
        "f9d9c6ddb1cbba2df25bd0141ecd19386ad64b30ec5e68ad020a08c0d23be886",
    "attention_decoder_self_l1_h1.csv":
        "e3001d1cc570cef7305f9652b9205801566f04849a056d9941c13f12d108f93c",
    "attention_encoder_self_l0_h0.csv":
        "0d98033812c043e430b05e772f0a5488d6a737f2f92c1d80b22ac8e72c83a4b6",
    "attention_encoder_self_l0_h1.csv":
        "e97bbf04a67f2386351621087ded0f4a04dcc00230c550e12e5ed03e77d5d4ce",
    "attention_encoder_self_l1_h0.csv":
        "06d43e7f0f4e26e6be41d1fb1b13af24a60c0342d16ab3284b5ff3369d64dd65",
    "attention_encoder_self_l1_h1.csv":
        "d4c6490315e66ef6b225450e4e5e4930b68454341a848b0ffc22db8bf57c2760",
    "correlation_batch0.csv":
        "f27caffb717389af8dff4dbf12f92638de567b1baf84f3a2313e009a8b0f1764",
    "correlation_batch1.csv":
        "d2ca936b15efab393fffc64ae89a6a5984b0d7ead7d959bb2e2da70dd33e5b21",
    "sentence_embeddings.csv":
        "f77d977145baf3efc708eaf6fdb2770acb3cd4037844c27c81b8bd1ba0a5b60e",
    "word_embeddings.csv":
        "f58e28f3fd604d1f77524425382c76de42d8bcd5c9dc333b8a590a3ecb4944ad",
}


def test_export_diagnostics_bytes_pinned(tmp_path):
    corpus = make_cipher_corpus(48, vocab_size=8, min_len=2, max_len=5, seed=3)
    vocab_enc = build_vocab([p.source for p in corpus] + [p.target for p in corpus])
    vocab_tgt = build_vocab([p.target for p in corpus])
    cfg = M.ModelConfig(src_vocab=len(vocab_enc), tgt_vocab=len(vocab_tgt), depth=2,
                        dim=8, heads=2, ff_dim=16, proj_dim=4, emb_dim=8, max_len=8)
    pre = TR.train_translation(cfg, corpus, vocab_enc, vocab_tgt, seed=4, steps=10,
                               batch_size=16, lr=3e-3, warmup=5)
    ce = TR.context_enhance(pre, corpus, vocab_enc,
                            TR.CEConfig(epochs=1, batch_size=16, proj_dim=4), seed=5)
    files = E.export_diagnostics(ce, corpus, vocab_enc, tmp_path, vocab_tgt=vocab_tgt,
                                 batch_size=6)
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}
    assert got == DIAGNOSTICS_SHA256
