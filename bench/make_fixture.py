"""Build the trained checkpoint that the ``ce`` and ``translate`` workloads start from.

    python3 bench/make_fixture.py           # (re)write bench/fixture/
    python3 bench/make_fixture.py --check   # rebuild elsewhere, compare bytes

Trains the acceptance toy's pretrain stage (cipher pair, seed 100, 2000
pairs, batch 64, lr 1e-3, warmup 200) for 400 float64 steps with
``training.train_translation`` and saves the checkpoint with the encoder
and decoder vocabularies beside it. The build refuses a model that scores
below BLEU 95 on 200 held-out pairs. Training it inside the benchmark's
set-up would cost about 45 s a run; 200 steps reach only about BLEU 70.
The build is deterministic, so a rerun reproduces every file byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

import config as C

FILES = (C.FIXTURE_CKPT.name, C.FIXTURE_VOCAB_SRC.name, C.FIXTURE_VOCAB_TGT.name)


def build(out_dir: Path) -> float:
    """Train, check BLEU and write the fixture files into ``out_dir``; returns BLEU."""
    C.import_package()
    from ce_nmt import evaluation as E
    from ce_nmt import model as M
    from ce_nmt import training as TR
    from ce_nmt.data import build_vocab
    from ce_nmt.synthetic import make_cipher_corpus

    train = make_cipher_corpus(C.FIXTURE_TRAIN_PAIRS, seed=C.FIXTURE_SEED, **C.CIPHER)
    heldout = make_cipher_corpus(C.FIXTURE_HELDOUT_PAIRS, seed=C.FIXTURE_HELDOUT_SEED,
                                 **C.CIPHER)
    vocab_src = build_vocab([p.source for p in train] + [p.target for p in train])
    vocab_tgt = build_vocab([p.target for p in train])
    cfg = M.ModelConfig(src_vocab=len(vocab_src), tgt_vocab=len(vocab_tgt), **C.MODEL)
    ckpt = TR.train_translation(cfg, train, vocab_src, vocab_tgt, seed=C.FIXTURE_SEED,
                                steps=C.FIXTURE_STEPS, batch_size=C.BATCH, lr=C.LR,
                                warmup=C.PRETRAIN_WARMUP)
    out_dir.mkdir(parents=True, exist_ok=True)
    TR.save_checkpoint(ckpt, out_dir / C.FIXTURE_CKPT.name)
    vocab_src.save(out_dir / C.FIXTURE_VOCAB_SRC.name)
    vocab_tgt.save(out_dir / C.FIXTURE_VOCAB_TGT.name)

    # Score the checkpoint as the workloads will see it: reloaded from disk.
    saved = TR.load_checkpoint(out_dir / C.FIXTURE_CKPT.name)
    hyps = E.translate_corpus(saved, heldout, vocab_src, vocab_tgt, batch_size=C.BATCH)
    score = E.bleu(hyps, [list(p.target) for p in heldout])
    if score < C.FIXTURE_BLEU_FLOOR:
        raise SystemExit(f"fixture BLEU {score:.2f} is below the floor {C.FIXTURE_BLEU_FLOOR}")
    return score


def digests(directory: Path) -> dict[str, str]:
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in FILES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="rebuild in a temporary directory and compare with bench/fixture/")
    args = parser.parse_args(argv)
    C.limit_threads()
    if not args.check:
        score = build(C.FIXTURE_DIR)
        print(f"fixture BLEU {score:.2f}")
        for name, digest in digests(C.FIXTURE_DIR).items():
            print(f"{digest}  {name}")
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        score = build(Path(tmp))
        fresh = digests(Path(tmp))
    committed = digests(C.FIXTURE_DIR)
    print(f"fixture BLEU {score:.2f}")
    same = True
    for name in FILES:
        match = fresh[name] == committed[name]
        same &= match
        print(f"{'same' if match else 'DIFFERENT'}  {name}  {fresh[name]}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
