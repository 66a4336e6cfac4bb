"""Language-agnosticism probes, BLEU scoring, and diagnostic exports.

The probe protocol measures how much language identity a representation
carries:
  a1  holdout accuracy of a linear classifier trained on baseline embeddings,
  a2  accuracy of that frozen classifier on the enhanced embeddings
      (same holdout rows),
  a3  holdout accuracy of a fresh classifier trained on the enhanced
      embeddings.
The triple is reported, never asserted: a2 < a3 < a1 would indicate reduced
language-specific signal, but the harness only measures.
"""

from __future__ import annotations

import collections
import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import model as M
from .data import BOS, EOS, PAD, ParallelCorpus, Vocabulary, batch_iter, source_batches, \
    subtract_centroid
from .errors import ConfigError, ProtocolError
from .losses import cross_correlation
from .numerics import no_grad

MIN_SAMPLES_PER_LANGUAGE = 10
SOURCE_LANG, TARGET_LANG = "src", "tgt"    # probe labels of a corpus's two sides
PROBE_LR = 0.5
PROBE_EPOCHS = 300
PROBE_TRAIN_FRAC = 0.8
BLEU_MAX_N = 4
DIAGNOSTIC_CORRELATION_BATCHES = 2


# -- linear probe -----------------------------------------------------------------


@dataclass
class ProbeClassifier:
    """Linear softmax classifier over standardized features.

    Standardization statistics are estimated on the training split and frozen
    with the weights, so evaluating on other embeddings reuses them.
    """

    weights: np.ndarray
    bias: np.ndarray
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    languages: list[str]

    def _features(self, embeddings: np.ndarray) -> np.ndarray:
        return (np.asarray(embeddings, dtype=np.float64) - self.feature_mean) / self.feature_scale

    def predict(self, embeddings: np.ndarray) -> np.ndarray:
        logits = self._features(embeddings) @ self.weights + self.bias
        return logits.argmax(axis=1)

    def evaluate(self, embeddings: np.ndarray, labels) -> float:
        """Accuracy of the predicted languages against ``labels``."""
        idx = np.array([self.languages.index(l) for l in labels])
        return float((self.predict(embeddings) == idx).mean())


def _validate_probe_inputs(embeddings: np.ndarray, labels) -> list[str]:
    embeddings = np.asarray(embeddings)
    if embeddings.ndim != 2 or embeddings.shape[0] != len(labels):
        raise ProtocolError(
            f"embeddings {embeddings.shape} must be (M, h) row-aligned with {len(labels)} labels"
        )
    counts = collections.Counter(labels)
    if len(counts) < 2:
        raise ProtocolError(f"need at least 2 languages, got {sorted(counts)}")
    thin = {l: c for l, c in counts.items() if c < MIN_SAMPLES_PER_LANGUAGE}
    if thin:
        raise ProtocolError(f"need >= {MIN_SAMPLES_PER_LANGUAGE} samples per language, got {thin}")
    return sorted(counts)


def stratified_split(labels, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic per-language split, ``PROBE_TRAIN_FRAC`` of the rows to
    training, with at least one test row each."""
    rng = np.random.default_rng(seed)
    labels = np.asarray(labels, dtype=object)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for lang in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == lang)
        idx = idx[rng.permutation(len(idx))]
        n_test = max(1, int(round((1.0 - PROBE_TRAIN_FRAC) * len(idx))))
        test_idx.extend(idx[:n_test].tolist())
        train_idx.extend(idx[n_test:].tolist())
    return np.sort(np.array(train_idx)), np.sort(np.array(test_idx))


def fit_probe(embeddings: np.ndarray, labels, languages: list[str]) -> ProbeClassifier:
    """Full-batch gradient descent on softmax cross-entropy from zero weights."""
    X = np.asarray(embeddings, dtype=np.float64)
    y = np.array([languages.index(l) for l in labels])
    mean = X.mean(axis=0)
    scale = np.maximum(X.std(axis=0), 1e-8)
    Xs = (X - mean) / scale
    n, h = Xs.shape
    L = len(languages)
    W = np.zeros((h, L))
    b = np.zeros(L)
    onehot = np.zeros((n, L))
    onehot[np.arange(n), y] = 1.0
    for _ in range(PROBE_EPOCHS):
        logits = Xs @ W + b
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        delta = (probs - onehot) / n
        W -= PROBE_LR * (Xs.T @ delta)
        b -= PROBE_LR * delta.sum(axis=0)
    return ProbeClassifier(W, b, mean, scale, list(languages))


# -- protocols ----------------------------------------------------------------------


@dataclass
class ProtocolResult:
    """The accuracies a1, a2, a3 of one protocol run (see the module
    docstring); ``summary()`` is the record the CLI and the bench emit."""

    a1: float
    a2: float
    a3: float
    variant: str
    languages: list[str]
    n_samples: int

    def summary(self) -> dict:
        return {
            "variant": self.variant,
            "a1": self.a1,
            "a2": self.a2,
            "a3": self.a3,
            "n_samples": self.n_samples,
            "languages": self.languages,
        }


def run_protocol(baseline: np.ndarray, enhanced: np.ndarray, labels, seed: int,
                 variant: str = "ce") -> ProtocolResult:
    """Frozen-probe transfer: a1 on baseline, a2 frozen on enhanced, a3 retrained."""
    languages = _validate_probe_inputs(baseline, labels)
    baseline = np.asarray(baseline, dtype=np.float64)
    enhanced = np.asarray(enhanced, dtype=np.float64)
    if baseline.shape != enhanced.shape:
        raise ProtocolError(
            f"baseline {baseline.shape} and enhanced {enhanced.shape} must be row-aligned"
        )
    labels = list(labels)
    train_idx, test_idx = stratified_split(labels, seed)
    test_labels = [labels[i] for i in test_idx]

    c1 = fit_probe(baseline[train_idx], [labels[i] for i in train_idx], languages)
    a1 = c1.evaluate(baseline[test_idx], test_labels)
    a2 = c1.evaluate(enhanced[test_idx], test_labels)
    c2 = fit_probe(enhanced[train_idx], [labels[i] for i in train_idx], languages)
    a3 = c2.evaluate(enhanced[test_idx], test_labels)
    return ProtocolResult(a1, a2, a3, variant, languages, len(labels))


def run_centroid_protocol(embeddings: np.ndarray, labels, seed: int) -> ProtocolResult:
    """The same protocol with centroid subtraction as the enhancement."""
    return run_protocol(embeddings, subtract_centroid(embeddings), labels, seed,
                        variant="centroid")


# -- BLEU ------------------------------------------------------------------------------


def _ngram_counts(tokens, n: int) -> collections.Counter:
    return collections.Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(hypotheses, references) -> float:
    """Corpus-level tokenized BLEU in [0, 100].

    Geometric mean of modified n-gram precisions (n = 1..BLEU_MAX_N) times the
    brevity penalty. Smoothing rule, fixed: an order with zero matches scores
    1 / (2 * candidate n-gram count); orders with no candidate n-grams at all
    (every hypothesis shorter than n) are excluded from the mean. An
    all-empty hypothesis corpus scores 0.
    """
    hypotheses = [list(h) for h in hypotheses]
    references = [list(r) for r in references]
    if len(hypotheses) != len(references):
        raise ProtocolError(f"{len(hypotheses)} hypotheses vs {len(references)} references")
    if not hypotheses:
        raise ProtocolError("empty corpus")
    log_sum = 0.0
    orders = 0
    for n in range(1, BLEU_MAX_N + 1):
        total = 0
        matched = 0
        for hyp, ref in zip(hypotheses, references):
            counts = _ngram_counts(hyp, n)
            total += sum(counts.values())
            ref_counts = _ngram_counts(ref, n)
            matched += sum(min(c, ref_counts[g]) for g, c in counts.items())
        if total == 0:
            continue
        precision = matched / total if matched else 1.0 / (2.0 * total)
        log_sum += math.log(precision)
        orders += 1
    if orders == 0:
        return 0.0
    c = sum(len(h) for h in hypotheses)
    r = sum(len(ref) for ref in references)
    brevity = 1.0 if c >= r else math.exp(1.0 - r / c)
    return 100.0 * brevity * math.exp(log_sum / orders)


# -- decoding -----------------------------------------------------------------------------


@no_grad()
def greedy_decode(encoder, decoder, cfg: M.ModelConfig, src_ids: np.ndarray,
                  src_mask: np.ndarray) -> list[list[int]]:
    """Greedy decoding of up to ``cfg.max_len`` positions, BOS included;
    returns per-row token ids between BOS and EOS.

    Each step feeds only the newest token to the decoder. One
    ``model.DecodeCache`` serves the batch: the first step splits the
    cross-attention keys and values of the source into heads, and every
    step writes its token's self-attention keys and values into buffers
    sized to ``cfg.max_len``, so a step does only the newest token's work.
    """
    latent = M.encode(src_ids, src_mask, encoder, cfg)
    B = src_ids.shape[0]
    cache = M.DecodeCache()
    ys = np.full((B, 1), BOS, dtype=np.int64)
    done = np.zeros(B, dtype=bool)
    while ys.shape[1] < cfg.max_len and not done.all():
        newest = ys[:, -1:]
        logits = M.decode(latent, newest, newest != PAD, decoder, cfg, cache=cache)
        next_ids = logits.values[:, -1, :].argmax(axis=-1).astype(np.int64)
        next_ids[done] = PAD
        done |= next_ids == EOS
        ys = np.concatenate([ys, next_ids[:, None]], axis=1)
    outputs = []
    for row in ys:
        tokens: list[int] = []
        for idx in row[1:]:
            if idx in (EOS, PAD):
                break
            tokens.append(int(idx))
        outputs.append(tokens)
    return outputs


def translate_corpus(ckpt, corpus: ParallelCorpus, vocab_src: Vocabulary,
                     vocab_tgt: Vocabulary, batch_size: int = 32) -> list[list[str]]:
    """Greedy-translate every source sentence; returns token lists."""
    if ckpt.decoder is None:
        raise ConfigError(f"translation requires a decoder; stage {ckpt.stage!r} checkpoint has none")
    outputs: list[list[str]] = []
    for src_ids in source_batches([p.source for p in corpus], vocab_src, batch_size,
                                  ckpt.config.max_len):
        ids = greedy_decode(ckpt.encoder, ckpt.decoder, ckpt.config, src_ids, src_ids != PAD)
        outputs.extend([[vocab_tgt.token(i) for i in row] for row in ids])
    return outputs


# -- embedding extraction ---------------------------------------------------------------------


@no_grad()
def pool_sentence_embeddings(encoder, cfg: M.ModelConfig, sentences, vocab: Vocabulary,
                             batch_size: int = 64) -> np.ndarray:
    """Encode token sequences and pool them (``cfg.pooling``) into an (M, dim) matrix."""
    rows: list[np.ndarray] = []
    for ids in source_batches(sentences, vocab, batch_size, cfg.max_len):
        latent = M.encode(ids, ids != PAD, encoder, cfg)
        rows.append(M.pool(latent, cfg.pooling).values)
    return np.vstack(rows)


def corpus_probe_embeddings(ckpt, corpus: ParallelCorpus, vocab_enc: Vocabulary,
                            batch_size: int = 64) -> tuple[np.ndarray, list[str]]:
    """Sentence embeddings for both sides of a parallel corpus, with language labels.

    Both sides pass through the one shared encoder under the encoder
    vocabulary, mirroring the context-enhancement data path.
    """
    sources = [p.source for p in corpus]
    targets = [p.target for p in corpus]
    emb_src = pool_sentence_embeddings(ckpt.encoder, ckpt.config, sources, vocab_enc,
                                       batch_size=batch_size)
    emb_tgt = pool_sentence_embeddings(ckpt.encoder, ckpt.config, targets, vocab_enc,
                                       batch_size=batch_size)
    labels = [SOURCE_LANG] * len(sources) + [TARGET_LANG] * len(targets)
    return np.vstack([emb_src, emb_tgt]), labels


def word_probe_embeddings(ckpt, corpus: ParallelCorpus,
                          vocab_enc: Vocabulary) -> tuple[np.ndarray, list[str]]:
    """Embedding-table rows for tokens attributable to exactly one language.

    Tokens that occur on both sides of the corpus are ambiguous and skipped.
    """
    src_tokens = {t for p in corpus for t in p.source}
    tgt_tokens = {t for p in corpus for t in p.target}
    table = ckpt.encoder["embed"].values
    rows, labels = [], []
    for tok in sorted(src_tokens - tgt_tokens):
        if tok in vocab_enc:
            rows.append(table[vocab_enc.id(tok)])
            labels.append(SOURCE_LANG)
    for tok in sorted(tgt_tokens - src_tokens):
        if tok in vocab_enc:
            rows.append(table[vocab_enc.id(tok)])
            labels.append(TARGET_LANG)
    if not rows:
        raise ProtocolError("no language-exclusive tokens found in the vocabulary")
    return np.vstack(rows), labels


# -- diagnostics export -------------------------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _float_row(values) -> list[str]:
    return [repr(float(v)) for v in values]


@no_grad()
def export_diagnostics(ckpt, corpus: ParallelCorpus, vocab_enc: Vocabulary,
                       out_dir, vocab_tgt: Vocabulary | None = None,
                       batch_size: int = 8) -> list[Path]:
    """Dump correlation matrices, attention maps, and embedding tables as CSV.

    Written files (availability depends on which parameter groups the
    checkpoint holds):
      - correlation_batch<k>.csv          d x d matrix for each of the first
                                          DIAGNOSTIC_CORRELATION_BATCHES batches,
      - attention_encoder_self_l<i>_h<j>.csv and, with a decoder,
        attention_decoder_self_... / attention_decoder_cross_...
        one (B*tq) x tk block per layer and head,
      - sentence_embeddings.csv, word_embeddings.csv   labeled dumps.

    ``vocab_tgt`` is required to drive the decoder attention probe when the
    checkpoint carries decoder parameters.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = ckpt.config
    written: list[Path] = []

    if ckpt.projection is not None:
        for k, batch in enumerate(batch_iter(corpus, vocab_enc, vocab_enc, batch_size,
                                             max_len=cfg.max_len)):
            if k >= DIAGNOSTIC_CORRELATION_BATCHES:
                break
            if batch.size < 2:
                continue
            z_s = M.project(M.pool(M.encode(batch.source_ids, batch.source_mask,
                                            ckpt.encoder, cfg), cfg.pooling), ckpt.projection)
            z_t = M.project(M.pool(M.encode(batch.target_ids, batch.target_mask,
                                            ckpt.encoder, cfg), cfg.pooling), ckpt.projection)
            corr = cross_correlation(z_s, z_t)
            path = out_dir / f"correlation_batch{k}.csv"
            _write_csv(path, [f"c{j}" for j in range(cfg.proj_dim)],
                       (_float_row(row) for row in corr.values))
            written.append(path)

    probe_batch = next(batch_iter(corpus, vocab_enc, vocab_enc, batch_size, max_len=cfg.max_len))
    enc_capture: list = []
    latent = M.encode(probe_batch.source_ids, probe_batch.source_mask, ckpt.encoder, cfg,
                      capture=enc_capture)
    captures = {"encoder_self": enc_capture}
    if ckpt.decoder is not None:
        if vocab_tgt is None:
            raise ConfigError("vocab_tgt is required to export decoder attention maps")
        dec_batch = next(batch_iter(corpus, vocab_enc, vocab_tgt, batch_size, max_len=cfg.max_len))
        self_capture: list = []
        cross_capture: list = []
        M.decode(latent, dec_batch.target_ids, dec_batch.target_mask, ckpt.decoder, cfg,
                 self_capture=self_capture, cross_capture=cross_capture)
        captures["decoder_self"] = self_capture
        captures["decoder_cross"] = cross_capture
    for kind, layers in captures.items():
        for layer_idx, weights in enumerate(layers):
            B, heads, tq, tk = weights.shape
            for head in range(heads):
                path = out_dir / f"attention_{kind}_l{layer_idx}_h{head}.csv"
                block = weights[:, head].reshape(B * tq, tk)
                _write_csv(path, [f"k{j}" for j in range(tk)],
                           (_float_row(row) for row in block))
                written.append(path)

    emb, labels = corpus_probe_embeddings(ckpt, corpus, vocab_enc, batch_size=batch_size)
    path = out_dir / "sentence_embeddings.csv"
    _write_csv(path, ["language", "sentence"] + [f"e{j}" for j in range(emb.shape[1])],
               ([lab, i] + _float_row(row) for i, (lab, row) in enumerate(zip(labels, emb))))
    written.append(path)

    try:
        word_emb, word_labels = word_probe_embeddings(ckpt, corpus, vocab_enc)
    except ProtocolError:
        word_emb, word_labels = None, None
    if word_emb is not None:
        path = out_dir / "word_embeddings.csv"
        _write_csv(path, ["language", "row"] + [f"e{j}" for j in range(word_emb.shape[1])],
                   ([lab, i] + _float_row(row) for i, (lab, row) in enumerate(zip(word_labels, word_emb))))
        written.append(path)
    return written
