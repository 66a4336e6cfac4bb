"""Parallel-corpus ingestion, vocabulary, batching, and embedding loading.

External formats:
  - parallel corpus: two line-aligned UTF-8 files, one sentence per line,
  - embedding file: header "<count> <dim>", then one "<token> <v1> ... <vdim>"
    row per token with space-separated decimal floats,
  - vocabulary file: one token per line, line number = id; the first four
    lines are the reserved tokens, and no line is empty or repeated.

Readers report 1-based line numbers in errors.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import CorpusFormatError, EmbeddingFormatError

PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")


def tokenize(line: str) -> list[str]:
    """Lowercase, then split on Unicode whitespace; never returns empty tokens."""
    return line.lower().split()


class Vocabulary:
    """Token/id bijection with fixed reserved ids PAD=0, BOS=1, EOS=2, UNK=3."""

    def __init__(self, tokens: Sequence[str] = ()):
        self._id_to_token: list[str] = list(RESERVED_TOKENS)
        self._token_to_id: dict[str, int] = {t: i for i, t in enumerate(RESERVED_TOKENS)}
        for tok in tokens:
            self.add(tok)

    def add(self, token: str) -> int:
        if token in self._token_to_id:
            return self._token_to_id[token]
        idx = len(self._id_to_token)
        self._id_to_token.append(token)
        self._token_to_id[token] = idx
        return idx

    def id(self, token: str) -> int:
        return self._token_to_id.get(token, UNK)

    def __contains__(self, token: str) -> bool:
        return token in self._token_to_id

    def token(self, idx: int) -> str:
        return self._id_to_token[idx]

    def __len__(self) -> int:
        return len(self._id_to_token)

    def tokens(self) -> list[str]:
        return list(self._id_to_token)

    def save(self, path) -> None:
        Path(path).write_text("\n".join(self._id_to_token) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Read a vocabulary file; an empty or repeated token line is an error,
        since it would shift every later id off its line number."""
        lines = read_utf8_lines(path)
        if tuple(lines[:4]) != RESERVED_TOKENS:
            raise CorpusFormatError(f"vocabulary file {path} does not start with reserved tokens", line=1)
        vocab = cls()
        for lineno, token in enumerate(lines[4:], start=len(RESERVED_TOKENS) + 1):
            if not token.strip():
                raise CorpusFormatError(f"vocabulary file {path} has an empty token", line=lineno)
            if token in vocab:
                raise CorpusFormatError(f"vocabulary file {path} repeats token {token!r} "
                                        f"of line {vocab.id(token) + 1}", line=lineno)
            vocab.add(token)
        return vocab


class SentencePair(NamedTuple):
    source: tuple[str, ...]
    target: tuple[str, ...]


@dataclass
class ParallelCorpus:
    pairs: list[SentencePair]

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[SentencePair]:
        return iter(self.pairs)


def read_utf8_lines(path, error=CorpusFormatError) -> list[str]:
    """The lines of a UTF-8 text file, decoded one at a time so that a bad
    byte raises ``error`` naming the file and its 1-based line."""
    lines = Path(path).read_bytes().splitlines()
    decoded = []
    for i, raw in enumerate(lines, start=1):
        try:
            decoded.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise error(f"{path} is not valid UTF-8: {exc}", line=i) from exc
    return decoded


def load_parallel_corpus(source_path, target_path) -> ParallelCorpus:
    """Read two line-aligned files into a corpus of tokenized pairs.

    Empty sides (after tokenization) and line-count mismatches are errors.
    """
    src_lines = read_utf8_lines(source_path)
    tgt_lines = read_utf8_lines(target_path)
    if len(src_lines) != len(tgt_lines):
        raise CorpusFormatError(
            f"line counts differ: {source_path} has {len(src_lines)}, {target_path} has {len(tgt_lines)}"
        )
    if not src_lines:
        raise CorpusFormatError("empty corpus")
    pairs = []
    for i, (s, t) in enumerate(zip(src_lines, tgt_lines), start=1):
        src_tok = tokenize(s)
        tgt_tok = tokenize(t)
        if not src_tok or not tgt_tok:
            raise CorpusFormatError("empty sentence after tokenization", line=i)
        pairs.append(SentencePair(tuple(src_tok), tuple(tgt_tok)))
    return ParallelCorpus(pairs)


def build_vocab(sentences, min_freq: int = 1, max_size: int = 50_000) -> Vocabulary:
    """Frequency-sorted vocabulary, ties broken lexicographically.

    ``max_size`` includes the 4 reserved entries. Tokens that collide with
    the reserved token strings are skipped.
    """
    if min_freq < 1:
        raise ValueError(f"min_freq must be >= 1, got {min_freq}")
    if max_size <= 4:
        raise ValueError(f"max_size must exceed the 4 reserved entries, got {max_size}")
    counts = collections.Counter(itertools.chain.from_iterable(sentences))
    for tok in RESERVED_TOKENS:
        counts.pop(tok, None)
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_freq),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary(kept[: max_size - len(RESERVED_TOKENS)])


def encode_sentence(tokens: Sequence[str], vocab: Vocabulary, max_len: int) -> list[int]:
    """BOS + token ids (UNK for unknown) + EOS, truncated with EOS kept last."""
    if max_len < 3:
        raise ValueError(f"max_len must be >= 3, got {max_len}")
    body = [vocab.id(t) for t in tokens][: max_len - 2]
    return [BOS, *body, EOS]


@dataclass
class Batch:
    """Padded id matrices with validity masks; mask is True exactly off PAD."""

    source_ids: np.ndarray
    target_ids: np.ndarray
    source_mask: np.ndarray = field(init=False)
    target_mask: np.ndarray = field(init=False)

    def __post_init__(self):
        self.source_mask = self.source_ids != PAD
        self.target_mask = self.target_ids != PAD

    @property
    def size(self) -> int:
        return self.source_ids.shape[0]


def _pad_block(rows: list[list[int]]) -> np.ndarray:
    width = max(len(r) for r in rows)
    block = np.full((len(rows), width), PAD, dtype=np.int64)
    for i, r in enumerate(rows):
        block[i, : len(r)] = r
    return block


def source_batches(sentences: Sequence[Sequence[str]], vocab: Vocabulary, batch_size: int,
                   max_len: int) -> Iterator[np.ndarray]:
    """Encode sentences in order and yield PAD-padded id blocks of up to
    ``batch_size`` rows, each padded to its longest row."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    for start in range(0, len(sentences), batch_size):
        yield _pad_block([encode_sentence(s, vocab, max_len)
                          for s in sentences[start:start + batch_size]])


def batch_iter(corpus: ParallelCorpus, vocab_src: Vocabulary, vocab_tgt: Vocabulary,
               batch_size: int, max_len: int = 64, shuffle: bool = False,
               seed: int = 0) -> Iterator[Batch]:
    """Yield batches padded to the longest sequence in each batch: the
    ``source_batches`` blocks of the ordered pairs' sources and targets.

    Order is deterministic for a fixed seed; the final partial batch is kept.
    """
    order = np.arange(len(corpus))
    if shuffle:
        np.random.default_rng(seed).shuffle(order)
    pairs = [corpus.pairs[i] for i in order]
    sources = source_batches([p.source for p in pairs], vocab_src, batch_size, max_len)
    targets = source_batches([p.target for p in pairs], vocab_tgt, batch_size, max_len)
    for src, tgt in zip(sources, targets):
        yield Batch(src, tgt)


@dataclass
class CoverageReport:
    hits: int
    misses: int

    @property
    def coverage(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def load_pretrained_embeddings(path, vocab: Vocabulary, dim: int,
                               seed: int = 0) -> tuple[np.ndarray, CoverageReport]:
    """Load a text embedding file into a (V, dim) table aligned with ``vocab``.

    Rows for in-vocabulary tokens are copied verbatim. Tokens absent from the
    file (reserved ids included) are drawn from a seeded normal scaled by the
    file's per-dimension standard deviation, so loaded and initialized rows
    are statistically comparable. Coverage counts non-reserved entries only.
    A token that has a second row is an error naming both lines.
    """
    lines = read_utf8_lines(path, EmbeddingFormatError)
    if not lines:
        raise EmbeddingFormatError("empty embedding file", line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise EmbeddingFormatError(f"header must be '<count> <dim>', got {lines[0]!r}", line=1)
    try:
        count, file_dim = int(header[0]), int(header[1])
    except ValueError as exc:
        raise EmbeddingFormatError(f"non-integer header {lines[0]!r}", line=1) from exc
    if file_dim != dim:
        raise EmbeddingFormatError(f"dimension mismatch: file has {file_dim}, expected {dim}", line=1)
    if count != len(lines) - 1:
        raise EmbeddingFormatError(f"header declares {count} rows, file has {len(lines) - 1}", line=1)

    file_rows: dict[str, np.ndarray] = {}
    row_line: dict[str, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != dim + 1:
            raise EmbeddingFormatError(
                f"expected token + {dim} values, got {len(parts)} fields", line=lineno
            )
        try:
            vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise EmbeddingFormatError(f"malformed float in row: {exc}", line=lineno) from exc
        if parts[0] in file_rows:
            raise EmbeddingFormatError(f"token {parts[0]!r} repeats the row of line "
                                       f"{row_line[parts[0]]}", line=lineno)
        file_rows[parts[0]] = vec
        row_line[parts[0]] = lineno

    stacked = np.stack(list(file_rows.values())) if file_rows else np.zeros((1, dim))
    per_dim_std = stacked.std(axis=0)
    rng = np.random.default_rng(seed)
    table = np.zeros((len(vocab), dim), dtype=np.float64)
    hits = misses = 0
    for idx, tok in enumerate(vocab.tokens()):
        if tok in file_rows:
            table[idx] = file_rows[tok]
            if idx >= len(RESERVED_TOKENS):
                hits += 1
        else:
            table[idx] = rng.standard_normal(dim) * per_dim_std
            if idx >= len(RESERVED_TOKENS):
                misses += 1
    return table, CoverageReport(hits, misses)


def subtract_centroid(embeddings: np.ndarray) -> np.ndarray:
    """Subtract the column-wise mean; output columns have zero mean."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2 or embeddings.shape[0] < 1:
        raise ValueError(f"expected a nonempty (M, n) matrix, got shape {embeddings.shape}")
    return embeddings - embeddings.mean(axis=0, keepdims=True)
