"""Synthetic parallel corpora for demos and tests.

The substitution-cipher pair maps each source token one-to-one onto a target
token (same order, same length), so a small model can learn the task exactly
while the two languages share no surface forms.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .data import ParallelCorpus, SentencePair


def make_cipher_corpus(n_pairs: int, vocab_size: int = 50, min_len: int = 3,
                       max_len: int = 10, seed: int = 0, cipher_seed: int = 12345) -> ParallelCorpus:
    """Random sentences over ``vocab_size`` source words, ciphered per token.

    The token mapping depends only on ``cipher_seed``, so train and test
    splits drawn with different ``seed`` values share one language pair.
    """
    if vocab_size < 1:
        raise ValueError(f"vocab_size must be >= 1, got {vocab_size}")
    if min_len < 1:
        raise ValueError(f"min_len must be >= 1, got {min_len}")
    if min_len > max_len:
        raise ValueError(f"min_len must be <= max_len, got {min_len} > {max_len}")
    rng = np.random.default_rng(seed)
    cipher = np.random.default_rng(cipher_seed).permutation(vocab_size)
    source_words = [f"s{w:02d}" for w in range(vocab_size)]
    target_words = [f"t{c:02d}" for c in cipher.tolist()]
    pairs = []
    for _ in range(n_pairs):
        length = int(rng.integers(min_len, max_len + 1))
        word_ids = rng.integers(0, vocab_size, size=length).tolist()
        pairs.append(SentencePair(tuple(map(source_words.__getitem__, word_ids)),
                                  tuple(map(target_words.__getitem__, word_ids))))
    return ParallelCorpus(pairs)


def write_parallel_files(corpus: ParallelCorpus, source_path, target_path) -> None:
    """Write one sentence a line to each side; ``ValueError`` on an empty
    corpus, whose files ``data.load_parallel_corpus`` could not read back."""
    if len(corpus) == 0:
        raise ValueError("cannot write an empty corpus")
    Path(source_path).write_text(
        "\n".join(" ".join(p.source) for p in corpus) + "\n", encoding="utf-8")
    Path(target_path).write_text(
        "\n".join(" ".join(p.target) for p in corpus) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write a synthetic cipher parallel corpus.")
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--pairs", type=int, default=2000)
    parser.add_argument("--test-pairs", type=int, default=200)
    parser.add_argument("--vocab-size", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for flag, value in (("--pairs", args.pairs), ("--test-pairs", args.test_pairs),
                        ("--vocab-size", args.vocab_size)):
        if value < 1:
            print(f"error: {flag} must be >= 1, got {value}", file=sys.stderr)
            return 2  # the input-error exit code of ce-nmt
    args.out_dir.mkdir(parents=True, exist_ok=True)
    train = make_cipher_corpus(args.pairs, vocab_size=args.vocab_size, seed=args.seed)
    test = make_cipher_corpus(args.test_pairs, vocab_size=args.vocab_size, seed=args.seed + 1)
    write_parallel_files(train, args.out_dir / "train.src", args.out_dir / "train.tgt")
    write_parallel_files(test, args.out_dir / "test.src", args.out_dir / "test.tgt")
    print(f"wrote {len(train)} train and {len(test)} test pairs to {args.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
