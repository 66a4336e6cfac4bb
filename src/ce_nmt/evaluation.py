"""Language-agnosticism probes, BLEU scoring, and diagnostic exports.

The probe protocol measures how much language identity a representation
carries:
  a1  holdout accuracy of a linear classifier trained on baseline embeddings,
  a2  accuracy of that frozen classifier on the enhanced embeddings
      (same holdout rows),
  a3  holdout accuracy of a fresh classifier trained on the enhanced
      embeddings.
The triple is reported, never asserted: a2 < a3 < a1 would indicate reduced
language-specific signal, but the harness only measures. ``run_protocol``
maps the labels once to their sorted languages and a language id per row;
the split, the probe and its accuracy work on those ids.
"""

from __future__ import annotations

import collections
import csv
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import model as M
from .data import BOS, EOS, PAD, UNK, ParallelCorpus, Vocabulary, batch_iter, source_batches, \
    subtract_centroid
from .errors import ConfigError, ProtocolError
from .losses import cross_correlation
from .numerics import Tensor, attention_maps, no_grad

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

    def evaluate(self, embeddings: np.ndarray, ids: np.ndarray) -> float:
        """Accuracy of the predicted language ids against ``ids``."""
        features = (np.asarray(embeddings, dtype=np.float64) - self.feature_mean) \
            / self.feature_scale
        predicted = (features @ self.weights + self.bias).argmax(axis=1)
        return float((predicted == ids).mean())


def _language_ids(embeddings: np.ndarray, labels) -> tuple[list, np.ndarray]:
    """The sorted languages of ``labels`` and each row's index into them;
    needs (M, h) ``embeddings`` and 2 languages of enough rows each."""
    embeddings = np.asarray(embeddings)
    if embeddings.ndim != 2 or embeddings.shape[0] != len(labels):
        raise ProtocolError(
            f"embeddings {embeddings.shape} must be (M, h) row-aligned with {len(labels)} labels"
        )
    labels = list(labels)
    _, first, ids, counts = np.unique(labels, return_index=True, return_inverse=True,
                                      return_counts=True)
    languages = [labels[i] for i in first]     # the labels themselves, not numpy's copies
    if len(languages) < 2:
        raise ProtocolError(f"need at least 2 languages, got {languages}")
    thin = {lang: int(c) for lang, c in zip(languages, counts) if c < MIN_SAMPLES_PER_LANGUAGE}
    if thin:
        raise ProtocolError(f"need >= {MIN_SAMPLES_PER_LANGUAGE} samples per language, got {thin}")
    return languages, ids


def stratified_split(ids: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic per-language split of rows with language ``ids``,
    ``PROBE_TRAIN_FRAC`` of the rows to training, with at least one test row
    each; languages are visited in id order."""
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for lang in np.unique(ids):
        idx = np.flatnonzero(ids == lang)
        idx = idx[rng.permutation(len(idx))]
        n_test = max(1, int(round((1.0 - PROBE_TRAIN_FRAC) * len(idx))))
        test_idx.extend(idx[:n_test].tolist())
        train_idx.extend(idx[n_test:].tolist())
    return np.sort(np.array(train_idx)), np.sort(np.array(test_idx))


def fit_probe(embeddings: np.ndarray, ids: np.ndarray, n_languages: int) -> ProbeClassifier:
    """Full-batch gradient descent on softmax cross-entropy from zero weights,
    over ``n_languages`` classes; row i is of language ``ids[i]``."""
    X = np.asarray(embeddings, dtype=np.float64)
    mean = X.mean(axis=0)
    scale = np.maximum(X.std(axis=0), 1e-8)
    Xs = (X - mean) / scale
    n, h = Xs.shape
    W = np.zeros((h, n_languages))
    b = np.zeros(n_languages)
    onehot = np.zeros((n, n_languages))
    onehot[np.arange(n), ids] = 1.0
    for _ in range(PROBE_EPOCHS):
        logits = Xs @ W + b
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        delta = (probs - onehot) / n
        W -= PROBE_LR * (Xs.T @ delta)
        b -= PROBE_LR * delta.sum(axis=0)
    return ProbeClassifier(W, b, mean, scale)


# -- protocols ----------------------------------------------------------------------


@dataclass
class ProtocolResult:
    """The accuracies a1, a2, a3 of one protocol run (see the module
    docstring); ``summary()`` is the record the CLI and the bench emit,
    its keys in field order."""

    variant: str
    a1: float
    a2: float
    a3: float
    n_samples: int
    languages: list[str]

    def summary(self) -> dict:
        return asdict(self)


def run_protocol(baseline: np.ndarray, enhanced: np.ndarray, labels, seed: int,
                 variant: str = "ce") -> ProtocolResult:
    """Frozen-probe transfer: a1 on baseline, a2 frozen on enhanced, a3 retrained."""
    languages, ids = _language_ids(baseline, labels)
    baseline = np.asarray(baseline, dtype=np.float64)
    enhanced = np.asarray(enhanced, dtype=np.float64)
    if baseline.shape != enhanced.shape:
        raise ProtocolError(
            f"baseline {baseline.shape} and enhanced {enhanced.shape} must be row-aligned"
        )
    train_idx, test_idx = stratified_split(ids, seed)

    c1 = fit_probe(baseline[train_idx], ids[train_idx], len(languages))
    a1 = c1.evaluate(baseline[test_idx], ids[test_idx])
    a2 = c1.evaluate(enhanced[test_idx], ids[test_idx])
    c2 = fit_probe(enhanced[train_idx], ids[train_idx], len(languages))
    a3 = c2.evaluate(enhanced[test_idx], ids[test_idx])
    return ProtocolResult(variant, a1, a2, a3, len(ids), languages)


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
    returns per-row token ids between BOS and EOS, in the caller's row order.

    Each step feeds only the newest token to the decoder. The source is
    encoded in the caller's order, then the latent rows are ordered by
    source length, longest first (ties keep their order), and one
    ``model.DecodeCache`` is built on that latent: it splits the
    cross-attention keys and values of the source into heads once, and
    every step writes its token's self-attention keys and values into
    buffers sized to ``cfg.max_len``, so a step does only the newest
    token's work.

    Each step decodes only the running prefix: the rows up to the last one
    that has not emitted EOS. When that prefix shrinks, the latent and the
    cache narrow to it as views (``DecodeCache.narrow``), with no copy. A
    row that stops inside the prefix stays and is fed PAD, as in a
    full-batch loop, so every row's output is the one a full batch gives;
    the saving is largest when output length follows source length.
    """
    latent = M.encode(src_ids, src_mask, encoder, cfg)
    order = np.argsort(-np.count_nonzero(latent.mask, axis=1), kind="stable")
    latent = M.LatentSequence(Tensor(latent.values.values[order]), latent.mask[order])
    n = len(order)
    cache = M.DecodeCache(latent, decoder, cfg)
    ys = np.full((n, cfg.max_len), PAD, dtype=np.int64)
    ys[:, 0] = BOS
    done = np.zeros(n, dtype=bool)
    for t in range(1, cfg.max_len):
        newest = ys[:n, t - 1:t]
        logits = M.decode(latent, newest, newest != PAD, decoder, cfg, cache=cache)
        next_ids = logits.values[:, -1, :].argmax(axis=-1)
        next_ids[done[:n]] = PAD
        done[:n] |= next_ids == EOS
        ys[:n, t] = next_ids
        running = np.flatnonzero(~done[:n])
        if not running.size:
            break
        if running[-1] < n - 1:
            n = running[-1] + 1
            cache.narrow(n)
            latent = M.LatentSequence(Tensor(latent.values.values[:n]), latent.mask[:n])
    outputs = []
    for row in ys[np.argsort(order)]:
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
def corpus_probe_embeddings(ckpt, corpus: ParallelCorpus, vocab_enc: Vocabulary,
                            batch_size: int = 64) -> tuple[np.ndarray, list[str]]:
    """Sentence embeddings for both sides of a parallel corpus, sources
    first, pooled by ``cfg.pooling``, with language labels.

    Both sides pass through the one shared encoder under the encoder
    vocabulary, mirroring the context-enhancement data path. Each side is
    batched on its own, so no batch mixes the two.
    """
    cfg = ckpt.config
    rows = [M.pool(M.encode(ids, ids != PAD, ckpt.encoder, cfg), cfg.pooling).values
            for side in ([p.source for p in corpus], [p.target for p in corpus])
            for ids in source_batches(side, vocab_enc, batch_size, cfg.max_len)]
    labels = [SOURCE_LANG] * len(corpus) + [TARGET_LANG] * len(corpus)
    return np.vstack(rows), labels


def word_probe_embeddings(ckpt, corpus: ParallelCorpus,
                          vocab_enc: Vocabulary) -> tuple[np.ndarray, list[str]]:
    """Embedding-table rows for tokens attributable to exactly one language.

    Tokens that occur on both sides of the corpus are ambiguous and skipped,
    and so are tokens outside ``vocab_enc`` and corpus text that spells a
    reserved token (``<pad>`` and the like), whose rows are not a word's.
    """
    src_tokens = {t for p in corpus for t in p.source}
    tgt_tokens = {t for p in corpus for t in p.target}
    kept = [(tok, lang) for exclusive, lang in ((src_tokens - tgt_tokens, SOURCE_LANG),
                                                (tgt_tokens - src_tokens, TARGET_LANG))
            for tok in sorted(exclusive) if vocab_enc.id(tok) > UNK]
    if not kept:
        raise ProtocolError("no language-exclusive tokens found in the vocabulary")
    table = ckpt.encoder["embed"].values
    return np.vstack([table[vocab_enc.id(tok)] for tok, _ in kept]), [lang for _, lang in kept]


# -- diagnostics export -------------------------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows) -> Path:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _float_row(values) -> list[str]:
    return [repr(float(v)) for v in values]


@no_grad()
def export_diagnostics(ckpt, corpus: ParallelCorpus, vocab_enc: Vocabulary,
                       out_dir, *, vocab_tgt: Vocabulary, batch_size: int = 8) -> list[Path]:
    """Dump correlation matrices, attention maps, and embedding tables as CSV.

    Written files (availability depends on which parameter groups the
    checkpoint holds):
      - correlation_batch<k>.csv          d x d matrix for each of the first
                                          DIAGNOSTIC_CORRELATION_BATCHES batches,
      - attention_encoder_self_l<i>_h<j>.csv and, with a decoder,
        attention_decoder_self_... / attention_decoder_cross_...
        one (B*tq) x tk block per layer and head,
      - sentence_embeddings.csv, word_embeddings.csv   labeled dumps.

    The probe batch for the attention maps reads its targets under
    ``vocab_tgt``, the decoder's vocabulary.
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
            z_s, z_t = (M.project(M.pool(M.encode(ids, ids != PAD, ckpt.encoder, cfg),
                                         cfg.pooling), ckpt.projection)
                        for ids in (batch.source_ids, batch.target_ids))
            written.append(_write_csv(out_dir / f"correlation_batch{k}.csv",
                                      [f"c{j}" for j in range(cfg.proj_dim)],
                                      (_float_row(row) for row in cross_correlation(z_s, z_t).values)))

    probe_batch = next(batch_iter(corpus, vocab_enc, vocab_tgt, batch_size, max_len=cfg.max_len))
    with attention_maps() as encoder_maps:
        latent = M.encode(probe_batch.source_ids, probe_batch.source_mask, ckpt.encoder, cfg)
    maps = {"encoder_self": encoder_maps}
    if ckpt.decoder is not None:
        with attention_maps() as decoder_maps:
            M.decode(latent, probe_batch.target_ids, probe_batch.target_mask, ckpt.decoder, cfg)
        # ``decode`` runs each layer's self-attention before its cross-attention.
        maps["decoder_self"], maps["decoder_cross"] = decoder_maps[0::2], decoder_maps[1::2]
    for kind, layers in maps.items():
        for layer_idx, weights in enumerate(layers):
            B, heads, tq, tk = weights.shape
            for head in range(heads):
                block = weights[:, head].reshape(B * tq, tk)
                written.append(_write_csv(out_dir / f"attention_{kind}_l{layer_idx}_h{head}.csv",
                                          [f"k{j}" for j in range(tk)],
                                          (_float_row(row) for row in block)))

    # (file name, row column, (embeddings, labels)); no word dump without exclusive tokens
    dumps = [("sentence", "sentence",
              corpus_probe_embeddings(ckpt, corpus, vocab_enc, batch_size=batch_size))]
    try:
        dumps.append(("word", "row", word_probe_embeddings(ckpt, corpus, vocab_enc)))
    except ProtocolError:
        pass
    for name, column, (emb, labels) in dumps:
        written.append(_write_csv(
            out_dir / f"{name}_embeddings.csv",
            ["language", column] + [f"e{j}" for j in range(emb.shape[1])],
            ([lab, i] + _float_row(row) for i, (lab, row) in enumerate(zip(labels, emb)))))
    return written
