"""Synthetic parallel corpora for demos and tests.

The substitution-cipher pair maps each source token one-to-one onto a target
token (same order, same length), so a small model can learn the task exactly
while the two languages share no surface forms.
"""

from __future__ import annotations

import argparse
import sys
from operator import itemgetter
from pathlib import Path

import numpy as np

from .data import ParallelCorpus, SentencePair


# Raw 32-bit outputs fetched from the bit generator at a time. Fixed, so a
# sampler holds the same few arrays whatever the corpus size.
BLOCK = 4096


class _BoundedDraws:
    """Integers in ``[0, n)`` for a few fixed ranges ``n``, drawn exactly as
    ``Generator.integers`` draws them from the same generator.

    For a range ``n`` below 2**32, ``Generator.integers`` maps one 32-bit
    output ``u`` of the bit generator to ``(u * n) >> 32`` and draws again
    while ``(u * n) mod 2**32 < (2**32 - n) mod n`` (Lemire's method); a
    one-value range draws nothing. Here the outputs come ``BLOCK`` at a time
    and each block is mapped for every range at once, so a draw is a plain
    list read. Only a block position that some range could reject, or the
    end of the block, takes the one-at-a-time path.
    """

    def __init__(self, rng: np.random.Generator, ranges: tuple[int, ...]):
        self.rng, self.ranges = rng, ranges
        self.thresholds = [(2**32 - n) % n for n in ranges]
        self._refill()

    def _refill(self) -> None:
        raw = self.rng.integers(0, 2**32, size=BLOCK, dtype=np.uint64)
        scaled = [raw * n for n in self.ranges]
        self.values = [(m >> 32).tolist() for m in scaled]
        self.leftover = [m & 0xFFFFFFFF for m in scaled]
        suspect = np.zeros(BLOCK, dtype=bool)
        for left, threshold in zip(self.leftover, self.thresholds):
            suspect |= left < threshold
        # Positions the list path must not pass, last first; BLOCK ends the block.
        self.suspects = [BLOCK] + np.flatnonzero(suspect)[::-1].tolist()
        self.pos, self.stop = 0, self.suspects.pop()

    def _one(self, r: int) -> int:
        while True:
            if self.pos == BLOCK:
                self._refill()
            p = self.pos
            self.pos = p + 1
            if p == self.stop:
                self.stop = self.suspects.pop()
                if self.leftover[r][p] < self.thresholds[r]:
                    continue   # rejected: this range draws again
            return self.values[r][p]

    def take(self, r: int, k: int) -> list[int]:
        """The next ``k`` draws in ``[0, ranges[r])``."""
        if self.ranges[r] == 1:
            return [0] * k
        start = self.pos
        if start + k <= self.stop:
            self.pos = start + k
            return self.values[r][start:self.pos]
        return [self._one(r) for _ in range(k)]


def make_cipher_corpus(n_pairs: int, vocab_size: int = 50, min_len: int = 3,
                       max_len: int = 10, seed: int = 0, cipher_seed: int = 12345) -> ParallelCorpus:
    """Random sentences over ``vocab_size`` source words, ciphered per token.

    The corpus is the one that per-pair ``Generator.integers`` calls on
    ``np.random.default_rng(seed)`` would draw: for each pair, a length from
    ``integers(min_len, max_len + 1)``, then its word ids from
    ``integers(0, vocab_size, size=length)``. A one-value range draws
    nothing from the stream, so a fixed length or a one-word vocabulary
    leaves the other draws where they were. The draws come from one fixed
    block of the stream at a time (``_BoundedDraws``), so memory does not
    grow with ``n_pairs``. The token mapping depends only on
    ``cipher_seed``, so train and test splits drawn with different ``seed``
    values share one language pair.
    """
    for name, value in (("n_pairs", n_pairs), ("seed", seed)):
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if vocab_size < 1:
        raise ValueError(f"vocab_size must be >= 1, got {vocab_size}")
    if min_len < 1:
        raise ValueError(f"min_len must be >= 1, got {min_len}")
    if min_len > max_len:
        raise ValueError(f"min_len must be <= max_len, got {min_len} > {max_len}")
    spans = (max_len - min_len + 1, vocab_size)
    if max(spans) >= 2**32:
        raise ValueError(f"vocab_size and max_len - min_len + 1 must be < 2**32, got {spans}")
    draws = _BoundedDraws(np.random.default_rng(seed), spans)
    cipher = np.random.default_rng(cipher_seed).permutation(vocab_size)
    source_words = [f"s{w:02d}" for w in range(vocab_size)]
    target_words = [f"t{c:02d}" for c in cipher.tolist()]
    pairs = []
    for _ in range(n_pairs):
        word_ids = draws.take(1, min_len + draws.take(0, 1)[0])
        lookup = itemgetter(*word_ids)
        pair = SentencePair(lookup(source_words), lookup(target_words))
        # itemgetter of one id gives a bare token, not a tuple
        pairs.append(pair if len(word_ids) > 1 else SentencePair((pair.source,), (pair.target,)))
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
    for flag, value, least in (("--pairs", args.pairs, 1), ("--test-pairs", args.test_pairs, 1),
                               ("--vocab-size", args.vocab_size, 1), ("--seed", args.seed, 0)):
        if value < least:
            print(f"error: {flag} must be >= {least}, got {value}", file=sys.stderr)
            return 2  # the input-error exit code of ce-nmt
    if args.vocab_size >= 2**32:    # the range limit of make_cipher_corpus's draws
        print(f"error: --vocab-size must be < 2**32, got {args.vocab_size}", file=sys.stderr)
        return 2
    args.out_dir.mkdir(parents=True, exist_ok=True)
    train = make_cipher_corpus(args.pairs, vocab_size=args.vocab_size, seed=args.seed)
    test = make_cipher_corpus(args.test_pairs, vocab_size=args.vocab_size, seed=args.seed + 1)
    write_parallel_files(train, args.out_dir / "train.src", args.out_dir / "train.tgt")
    write_parallel_files(test, args.out_dir / "test.src", args.out_dir / "test.tgt")
    print(f"wrote {len(train)} train and {len(test)} test pairs to {args.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
