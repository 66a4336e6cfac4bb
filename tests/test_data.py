import hashlib

import numpy as np
import pytest
from _oracles import build_vocab_reference, make_cipher_corpus_reference, make_identity_corpus

from ce_nmt import data, synthetic
from ce_nmt.data import (
    BOS,
    EOS,
    PAD,
    UNK,
    ParallelCorpus,
    SentencePair,
    Vocabulary,
    batch_iter,
    build_vocab,
    encode_sentence,
    load_parallel_corpus,
    load_pretrained_embeddings,
    subtract_centroid,
    tokenize,
)
from ce_nmt.errors import CorpusFormatError, EmbeddingFormatError
from ce_nmt.synthetic import make_cipher_corpus, write_parallel_files


def make_corpus(pairs):
    return ParallelCorpus([SentencePair(tuple(s), tuple(t)) for s, t in pairs])


# -- tokenize -------------------------------------------------------------

def test_tokenize_lowercase():
    assert tokenize("Hello world") == ["hello", "world"]


def test_tokenize_collapses_whitespace():
    assert tokenize("  a  b ") == ["a", "b"]


def test_tokenize_tabs_and_spaces():
    assert tokenize("a\tb c") == ["a", "b", "c"]


# -- vocabulary -------------------------------------------------------------

def test_build_vocab_empty_corpus_is_reserved_only():
    v = build_vocab([])
    assert len(v) == 4
    assert v.tokens() == list(data.RESERVED_TOKENS)


def test_build_vocab_min_freq():
    v = build_vocab([["a", "a", "b"]], min_freq=2)
    assert v.tokens()[len(data.RESERVED_TOKENS):] == ["a"]
    assert v.id("b") == UNK


def test_build_vocab_tie_break_lexicographic():
    sentences = [["b", "a"]] * 3
    v = build_vocab(sentences, max_size=6)
    assert v.tokens()[len(data.RESERVED_TOKENS):] == ["a", "b"]


def test_build_vocab_truncates_to_max_size():
    sentences = [["a"] * 5, ["b"] * 4, ["c"] * 3]
    v = build_vocab(sentences, max_size=5)
    assert v.tokens()[len(data.RESERVED_TOKENS):] == ["a"]


def test_build_vocab_skips_reserved_token_strings():
    v = build_vocab([["<unk>", "a", "<pad>"], ["<eos>", "<bos>", "<unk>", "a"]])
    assert v.tokens()[len(data.RESERVED_TOKENS):] == ["a"]
    assert v.tokens()[:4] == list(data.RESERVED_TOKENS)


@pytest.mark.parametrize("seed", range(12))
def test_build_vocab_matches_per_sentence_reference(seed):
    # Small alphabets with reserved strings mixed in give equal-count ties,
    # reserved collisions and tokens on both sides of the min_freq and
    # max_size cuts.
    rng = np.random.default_rng(seed)
    alphabet = [f"w{i}" for i in range(int(rng.integers(1, 30)))] + list(data.RESERVED_TOKENS)
    sentences = [[alphabet[i] for i in rng.integers(0, len(alphabet), size=int(rng.integers(0, 9)))]
                 for _ in range(int(rng.integers(0, 60)))]
    for min_freq in (1, 2, 5):
        for max_size in (5, 9, 50_000):
            want = build_vocab_reference(sentences, min_freq=min_freq, max_size=max_size)
            assert build_vocab(sentences, min_freq=min_freq, max_size=max_size).tokens() \
                == want.tokens()
            got = build_vocab((tuple(s) for s in sentences), min_freq=min_freq, max_size=max_size)
            assert got.tokens() == want.tokens()


@pytest.mark.parametrize("kwargs", [dict(min_freq=0), dict(max_size=4)])
def test_build_vocab_rejects_bad_cuts(kwargs):
    with pytest.raises(ValueError):
        build_vocab([["a"]], **kwargs)


def test_vocab_reserved_ids_fixed():
    v = build_vocab([["x"]])
    assert (v.id("<pad>"), v.id("<bos>"), v.id("<eos>"), v.id("<unk>")) == (PAD, BOS, EOS, UNK)
    assert v.id("x") == 4


def test_vocab_save_load_round_trip(tmp_path):
    v = build_vocab([["gamma", "alpha", "beta"]])
    path = tmp_path / "vocab.txt"
    v.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.tokens() == v.tokens()


@pytest.mark.parametrize("body, line, what", [
    (["alpha", "beta", "alpha", "gamma"], 7, "repeats token 'alpha' of line 5"),
    (["alpha", "<unk>"], 6, "repeats token '<unk>' of line 4"),
    (["alpha", "", "beta"], 6, "empty token"),
    (["alpha", "   "], 6, "empty token"),
])
def test_vocab_load_rejects_repeated_or_empty_token(tmp_path, body, line, what):
    # Line number = id: a dropped line would shift every later id.
    path = tmp_path / "vocab.txt"
    path.write_text("\n".join(list(data.RESERVED_TOKENS) + body) + "\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=what) as exc_info:
        Vocabulary.load(path)
    assert exc_info.value.line == line


def test_vocab_load_bad_encoding_reports_file_and_lineno(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_bytes("\n".join(data.RESERVED_TOKENS).encode() + b"\nalpha\nbe\xfftta\n")
    with pytest.raises(CorpusFormatError, match=r"line 6: .*vocab\.txt is not valid UTF-8"):
        Vocabulary.load(path)


# -- encode_sentence ----------------------------------------------------------

def test_encode_empty():
    v = build_vocab([])
    assert encode_sentence([], v, 8) == [BOS, EOS]


def test_encode_known_token():
    v = build_vocab([["a"]])
    assert v.id("a") == 4
    assert encode_sentence(["a"], v, 8) == [BOS, 4, EOS]


def test_encode_truncation_keeps_eos():
    v = build_vocab([[f"w{i}" for i in range(10)]])
    ids = encode_sentence([f"w{i}" for i in range(10)], v, 5)
    assert len(ids) == 5
    assert ids[0] == BOS and ids[-1] == EOS


def test_encode_decode_identity_property():
    v = build_vocab([["alpha", "beta", "gamma"]])
    tokens = ["beta", "alpha", "gamma"]
    ids = encode_sentence(tokens, v, 16)
    decoded = [v.token(i) for i in ids if i not in (PAD, BOS, EOS)]
    assert decoded == tokens


# -- batching -------------------------------------------------------------------

def five_pair_corpus():
    return make_corpus([([f"s{i}"], [f"t{i}"]) for i in range(5)])


def test_batch_sizes_include_partial():
    v = build_vocab([[f"s{i}", f"t{i}"] for i in range(5)])
    sizes = [b.size for b in batch_iter(five_pair_corpus(), v, v, 2)]
    assert sizes == [2, 2, 1]


def test_batch_iter_deterministic_for_seed():
    v = build_vocab([[f"s{i}", f"t{i}"] for i in range(5)])
    a = [b.source_ids for b in batch_iter(five_pair_corpus(), v, v, 2, shuffle=True, seed=9)]
    b = [b.source_ids for b in batch_iter(five_pair_corpus(), v, v, 2, shuffle=True, seed=9)]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_batch_iter_no_shuffle_preserves_order():
    corpus = five_pair_corpus()
    v = build_vocab([p.source for p in corpus] + [list(p.target) for p in corpus])
    batches = list(batch_iter(corpus, v, v, 2))
    first = batches[0].source_ids
    assert v.token(first[0, 1]) == "s0"
    assert v.token(first[1, 1]) == "s1"


def test_batch_mask_matches_lengths():
    corpus = make_corpus([(["a"], ["x", "y", "z"]), (["b", "c"], ["w"])])
    v = build_vocab([["a", "b", "c", "x", "y", "z", "w"]])
    (batch,) = list(batch_iter(corpus, v, v, 2))
    assert batch.source_mask.sum(axis=1).tolist() == [3, 4]  # BOS + tokens + EOS
    assert batch.target_mask.sum(axis=1).tolist() == [5, 3]
    assert np.array_equal(batch.source_mask, batch.source_ids != PAD)


def test_batch_rows_contain_bos_eos():
    corpus = five_pair_corpus()
    v = build_vocab([p.source for p in corpus])
    for batch in batch_iter(corpus, v, v, 3):
        for row, mask in zip(batch.source_ids, batch.source_mask):
            real = row[mask]
            assert real[0] == BOS and real[-1] == EOS


def _blocks_sha256(blocks) -> str:
    """sha256 over the shape and the little-endian int64 ids of each block, in order."""
    h = hashlib.sha256()
    for block in blocks:
        h.update(np.array(block.shape, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(block, dtype="<i8").tobytes())
    return h.hexdigest()


def _pinned_batch_setup():
    # 23 cipher pairs, cut at max_len 8 (some sentences are truncated); the
    # target vocabulary sees only the first 15 targets, so later ones hold UNK.
    corpus = make_cipher_corpus(23, seed=5, **CIPHER)
    vocab_src = build_vocab([p.source for p in corpus] + [p.target for p in corpus])
    vocab_tgt = build_vocab([p.target for p in corpus.pairs[:15]])
    return corpus, vocab_src, vocab_tgt


# (batch size, shuffle, seed) -> sha256 of the source blocks, then of the
# target blocks, that ``batch_iter`` yields; 5 leaves a partial last batch of
# 3 rows, 64 is larger than the corpus.
PINNED_BATCHES = {
    (5, False, 0): ("6cf06a4a0acde4ec91b8765ed94295de6b28546874035850b2d751913515de94",
                    "f3fdd0c9d8868d03965a4c6086f4f254a9ccebd39da736fd1c37bd7f3596989c"),
    (5, True, 0): ("13240b031af93161589d53625be0ae6b5de60916212498cdda69bb7622bd7c52",
                   "df9e55a094dc88c44c18b75fd523b7d323aba6cd1df43311fa708c24d97e24db"),
    (5, True, 1): ("174db8f28a333767630f0a5a3e344e670e527b76fc388b9ea91485b0655c2a2f",
                   "2feed161cf3c207d04f72986a48cccd6a68e7f25bf3340d7172c2fce53d0f7ef"),
    (5, True, 2): ("7bbd740768622746a16a64c257f2f6db697a78bc44bcf7f5abdceb7da0521bfb",
                   "1a03dd32628c079b51a2f693b2a5331a2b42e3ba87b66a41b09bb45893f38d66"),
    (64, False, 0): ("2b9f698cfefc5d299d7e5291ca2a770f6d9268221c988c239447f376931d22f8",
                     "ce4410df2187b13e2a5ff5e5d1b38e798a60a9bf838b54dd28d4ac9088d7c1a6"),
    (64, True, 0): ("e4feb9422bc988f64ea7de468e1201287507b26320dcd989ed31e0742a5bd906",
                    "490863f35215a7958da955c727ac5f355f8cd66b7d2626220c18c8aa5a57510a"),
    (64, True, 1): ("0d91ec6fd30615a3fc0726174aab369a71ee5f5ce0a3301b37cb84275ad6c406",
                    "985748a655c8b6f421b79943a92bc9b77cf4951e096bd2ae5a43705a25b24c32"),
    (64, True, 2): ("f1ed1e859e2460bf9203c5d737048d2e89b97c1a6d79abbf0beb0e1c5bec804c",
                    "6f5e3528687613e0ea6df661f0c0ed059163d000f3abf000f83d57ccff56f41e"),
}


@pytest.mark.parametrize("batch_size, shuffle, seed", PINNED_BATCHES)
def test_batch_iter_blocks_pinned(batch_size, shuffle, seed):
    corpus, vocab_src, vocab_tgt = _pinned_batch_setup()
    batches = list(batch_iter(corpus, vocab_src, vocab_tgt, batch_size, max_len=8,
                              shuffle=shuffle, seed=seed))
    assert sum(b.size for b in batches) == len(corpus)
    got = (_blocks_sha256(b.source_ids for b in batches),
           _blocks_sha256(b.target_ids for b in batches))
    assert got == PINNED_BATCHES[batch_size, shuffle, seed]


# (side, batch size) -> sha256 of the blocks ``source_batches`` yields for
# the same sentences, in corpus order.
PINNED_SOURCE_BATCHES = {
    ("source", 5): "6cf06a4a0acde4ec91b8765ed94295de6b28546874035850b2d751913515de94",
    ("source", 64): "2b9f698cfefc5d299d7e5291ca2a770f6d9268221c988c239447f376931d22f8",
    ("target", 5): "f3fdd0c9d8868d03965a4c6086f4f254a9ccebd39da736fd1c37bd7f3596989c",
    ("target", 64): "ce4410df2187b13e2a5ff5e5d1b38e798a60a9bf838b54dd28d4ac9088d7c1a6",
}


@pytest.mark.parametrize("side, batch_size", PINNED_SOURCE_BATCHES)
def test_source_batches_blocks_pinned(side, batch_size):
    corpus, vocab_src, vocab_tgt = _pinned_batch_setup()
    vocab = vocab_src if side == "source" else vocab_tgt
    blocks = data.source_batches([getattr(p, side) for p in corpus], vocab, batch_size, 8)
    assert _blocks_sha256(blocks) == PINNED_SOURCE_BATCHES[side, batch_size]


# -- corpus loading -----------------------------------------------------------------

def test_load_parallel_corpus(tmp_path):
    (tmp_path / "s.txt").write_text("Hello world\nsecond line\n")
    (tmp_path / "t.txt").write_text("Bonjour monde\ndeuxieme ligne\n")
    corpus = load_parallel_corpus(tmp_path / "s.txt", tmp_path / "t.txt")
    assert len(corpus) == 2
    assert corpus.pairs[0].source == ("hello", "world")


def test_load_parallel_corpus_mismatch(tmp_path):
    (tmp_path / "s.txt").write_text("a\nb\nc\n")
    (tmp_path / "t.txt").write_text("x\ny\nz\nw\n")
    with pytest.raises(CorpusFormatError, match="3.*4"):
        load_parallel_corpus(tmp_path / "s.txt", tmp_path / "t.txt")


def test_load_parallel_corpus_empty_line_reports_lineno(tmp_path):
    (tmp_path / "s.txt").write_text("a\n\n")
    (tmp_path / "t.txt").write_text("x\ny\n")
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_parallel_corpus(tmp_path / "s.txt", tmp_path / "t.txt")


def test_load_parallel_corpus_bad_encoding_reports_lineno(tmp_path):
    (tmp_path / "s.txt").write_bytes(b"ok line\n\xff\xfe broken\n")
    (tmp_path / "t.txt").write_text("x\ny\n")
    with pytest.raises(CorpusFormatError, match="line 2"):
        load_parallel_corpus(tmp_path / "s.txt", tmp_path / "t.txt")


# -- pretrained embeddings -------------------------------------------------------------

def test_embeddings_full_coverage_round_trip(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("2 3\na 1.5 -0.25 0.125\nb 0.0 1.0 -2.0\n")
    vocab = build_vocab([["a", "b"]])
    table, report = load_pretrained_embeddings(path, vocab, 3, seed=1)
    assert report.hits == 2 and report.misses == 0 and report.coverage == 1.0
    assert np.array_equal(table[vocab.id("a")], [1.5, -0.25, 0.125])
    assert np.array_equal(table[vocab.id("b")], [0.0, 1.0, -2.0])


def test_embeddings_no_overlap_seeded_random(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("2 2\nx 1.0 0.0\ny 0.0 2.0\n")
    vocab = build_vocab([["a", "b"]])
    t1, report = load_pretrained_embeddings(path, vocab, 2, seed=5)
    t2, _ = load_pretrained_embeddings(path, vocab, 2, seed=5)
    assert report.hits == 0 and report.coverage == 0.0
    assert np.array_equal(t1, t2)
    assert np.abs(t1[4:]).sum() > 0


def test_embeddings_hand_case(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("2 3\na 1 0 0\nb 0 1 0\n")
    vocab = build_vocab([["a"]])
    table, report = load_pretrained_embeddings(path, vocab, 3, seed=0)
    assert np.array_equal(table[vocab.id("a")], [1.0, 0.0, 0.0])
    assert report.hits == 1 and report.misses == 0


def test_embeddings_dimension_mismatch(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("1 3\na 1 2 3\n")
    with pytest.raises(EmbeddingFormatError, match="dimension mismatch"):
        load_pretrained_embeddings(path, build_vocab([["a"]]), 4)


def test_embeddings_malformed_row_reports_lineno(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("2 2\na 1 2\nb 1 oops\n")
    with pytest.raises(EmbeddingFormatError, match="line 3"):
        load_pretrained_embeddings(path, build_vocab([["a", "b"]]), 2)


def test_embeddings_repeated_token_names_both_lines(tmp_path):
    # Keeping either row would hide the other, and skew the std used for
    # the rows the file lacks.
    path = tmp_path / "emb.txt"
    path.write_text("2 2\nfoo 1 2\nfoo 3 4\n")
    with pytest.raises(EmbeddingFormatError, match=r"line 3: token 'foo' repeats the row of line 2"):
        load_pretrained_embeddings(path, build_vocab([["foo"]]), 2)


def test_embeddings_bad_encoding_reports_file_and_lineno(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_bytes(b"2 2\na 1 2\n\xffb 1 2\n")
    with pytest.raises(EmbeddingFormatError, match=r"line 3: .*emb\.txt is not valid UTF-8"):
        load_pretrained_embeddings(path, build_vocab([["a", "b"]]), 2)


# -- centroid subtraction ------------------------------------------------------------------

def test_subtract_centroid_single_row():
    assert np.array_equal(subtract_centroid(np.array([[3.0, 4.0]])), [[0.0, 0.0]])


def test_subtract_centroid_already_centered():
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert np.array_equal(subtract_centroid(x), x)


def test_subtract_centroid_arithmetic():
    out = subtract_centroid(np.array([[2.0, 2.0], [0.0, 0.0]]))
    assert np.array_equal(out, [[1.0, 1.0], [-1.0, -1.0]])


def test_subtract_centroid_idempotent():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(6, 4)) * 3 + 1
    once = subtract_centroid(x)
    twice = subtract_centroid(once)
    assert np.max(np.abs(once - twice)) < 1e-12


# -- synthetic corpora ----------------------------------------------------


def _token_stream_sha256(corpus) -> str:
    text = "".join(" ".join(p.source) + "\t" + " ".join(p.target) + "\n" for p in corpus)
    return hashlib.sha256(text.encode()).hexdigest()


def test_synthetic_token_streams_pinned():
    # The bench's seed-1 corpus and a copy-task corpus: every seeded corpus
    # the bench digests and pinned-output tests rest on must stay the same.
    assert _token_stream_sha256(make_cipher_corpus(2000, seed=1_000_004)) \
        == "fed1c018ef94fd7b2dc6a329eae887edee44e981231d8dc1594a66be87e2be93"
    assert _token_stream_sha256(make_identity_corpus(300, seed=3)) \
        == "c9d83c70eaa81a43ef53458d8e515a093f53acb8982dc22f0f669f561a44606e"
    # The acceptance toy's and the bench fixture's training and held-out sets.
    assert _token_stream_sha256(make_cipher_corpus(2000, seed=100)) \
        == "793c6ead0f52592b24142f96a2ad1b99ddaf0476085d7c0ccf39481b2cce1192"
    assert _token_stream_sha256(make_cipher_corpus(200, seed=101)) \
        == "67c4ae164e8126d666194b951ba417d38e5194a5769909494a8c5d19b1dc9779"


@pytest.mark.parametrize("make", [make_cipher_corpus])
@pytest.mark.parametrize("kwargs", [dict(vocab_size=0), dict(min_len=0),
                                    dict(min_len=5, max_len=4), dict(n_pairs=-3),
                                    dict(seed=-1), dict(vocab_size=2**32),
                                    dict(min_len=1, max_len=2**32)])
def test_synthetic_rejects_bad_sizes(make, kwargs):
    # Zero pairs: the sizes are checked up front, not left to the first draw.
    # The message names the first argument given.
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        make(**{"n_pairs": 0, **kwargs})


CIPHER = dict(vocab_size=50, min_len=3, max_len=10, cipher_seed=12345)   # the bench's


def _pairs(corpus):
    return [(p.source, p.target) for p in corpus]


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("n_pairs", [0, 1, 7, 512, 2000])
def test_cipher_corpus_matches_per_pair_draws(seed, n_pairs):
    assert _pairs(make_cipher_corpus(n_pairs, seed=seed, **CIPHER)) \
        == _pairs(make_cipher_corpus_reference(n_pairs, seed=seed, **CIPHER))


def test_cipher_corpus_fixed_length_draws_no_length():
    # A one-value length range takes nothing from the stream; drawing a length
    # anyway would shift every word.
    kwargs = dict(vocab_size=50, min_len=4, max_len=4, seed=3)
    assert _pairs(make_cipher_corpus(40, **kwargs)) \
        == _pairs(make_cipher_corpus_reference(40, **kwargs))


def _rejected_draws(corpus, seed, min_len, max_len, vocab_size) -> int:
    """Raw 32-bit draws that per-pair ``Generator.integers`` calls threw away
    making ``corpus``: the stream they consumed less the values they kept."""
    rng = np.random.default_rng(seed)
    for pair in corpus:
        rng.integers(min_len, max_len + 1)
        rng.integers(0, vocab_size, size=len(pair.source))
    kept = sum(1 + len(p.source) for p in corpus)
    for rejected in range(10):
        raw = np.random.default_rng(seed)
        raw.integers(0, 2**32, size=kept + rejected, dtype=np.uint64)
        if raw.bit_generator.state == rng.bit_generator.state:
            return rejected
    raise AssertionError("the stream does not match kept plus fewer than 10 rejected draws")


@pytest.mark.parametrize("block", [None, 1, 2, 7])
def test_cipher_corpus_rejected_draw(monkeypatch, block):
    # At vocab 400009 a draw is rejected with chance about 1.6e-5; seed 35's
    # 300 pairs hold one. Tiny blocks put it and every sentence across refills.
    if block is not None:
        monkeypatch.setattr(synthetic, "BLOCK", block)
    kwargs = dict(vocab_size=400_009, min_len=3, max_len=10, seed=35)
    corpus = make_cipher_corpus(300, **kwargs)
    assert _pairs(corpus) == _pairs(make_cipher_corpus_reference(300, **kwargs))
    assert _rejected_draws(corpus, **kwargs) == 1


def test_cipher_corpus_crosses_block_refills():
    corpus = make_cipher_corpus(1500, seed=9, **CIPHER)
    assert sum(1 + len(p.source) for p in corpus) > 2 * synthetic.BLOCK
    assert _pairs(corpus) == _pairs(make_cipher_corpus_reference(1500, seed=9, **CIPHER))


def test_write_parallel_files_rejects_empty_corpus(tmp_path):
    src, tgt = tmp_path / "e.src", tmp_path / "e.tgt"
    with pytest.raises(ValueError, match="empty corpus"):
        write_parallel_files(make_cipher_corpus(0), src, tgt)
    assert not src.exists() and not tgt.exists()


def test_synthetic_single_word_and_fixed_length():
    corpus = make_cipher_corpus(4, vocab_size=1, min_len=2, max_len=2)
    assert [(p.source, p.target) for p in corpus] == [(("s00", "s00"), ("t00", "t00"))] * 4
