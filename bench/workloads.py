"""The three workloads: what each runs, why it was chosen, and what it should move.

Each workload calls the package's real stage functions and takes its unit
timestamps from the stages' own hooks, so an untraced run wraps nothing:

  pretrain   ``training.train_translation``; a unit is one step of 64 pairs,
             stamped by the ``metrics=`` sink that the stage calls once a step.
  ce         ``training.context_enhance``; a unit is one CE batch of 64 pairs,
             stamped by the ``monitor=`` whose ``observe`` runs once a batch.
  translate  ``evaluation.translate_corpus`` once per 64-sentence chunk, then
             ``bleu``, ``corpus_probe_embeddings`` and the centroid protocol
             (``run_protocol``), as ``ce-nmt eval`` runs them; a unit is one chunk.

A run repeats one fixed *round* of its workload until the time is up. Every
round starts from a fresh set-up with the run's seed, so every round must
produce the same float64 losses and decoded ids; ``Round.digest`` is their
sha256.

Each workload's docstring holds its rows of the layer-to-end-to-end
interaction table: the layer metrics that should move its end-to-end
figures, and those predicted to leave them unchanged.
"""

from __future__ import annotations

import hashlib
import struct
import time
from dataclasses import dataclass, field

import numpy as np

import config as C


def float_digest(values) -> str:
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()


@dataclass
class Round:
    marks: list[float]                 # round start, then one stamp after each unit
    end: float                         # after the round's last call
    items: int                         # sentence pairs or sentences processed
    digest: str                        # sha256 of the float64 losses or decoded ids
    losses: list[float] = field(default_factory=list)
    output: object = None              # what the final checks look at

    @property
    def units(self) -> int:
        return len(self.marks) - 1


class LossSink:
    """A ``metrics=`` sink: a stamp and a record at every ``write``."""

    def __init__(self, marks: list[float] | None = None):
        self.marks = marks
        self.records: list[tuple] = []

    def write(self, stage, step_or_epoch, loss, invariance=None, redundancy=None, lam=None):
        if self.marks is not None:
            self.marks.append(time.perf_counter())
        self.records.append((loss, invariance, redundancy))


class Workload:
    name = ""
    why = ""

    def __init__(self, pkg):
        self.pkg = pkg

    def setup(self, seed: int):
        raise NotImplementedError

    def run_round(self, state) -> Round:
        raise NotImplementedError

    def quality(self, last: Round) -> dict:
        """Figures and checks on the last round's output (untimed)."""
        raise NotImplementedError

    def _fixture(self):
        TR, D = self.pkg.training, self.pkg.data
        return (TR.load_checkpoint(C.FIXTURE_CKPT),
                D.Vocabulary.load(C.FIXTURE_VOCAB_SRC),
                D.Vocabulary.load(C.FIXTURE_VOCAB_TGT))

    def _corpus(self, seed: int, pairs: int):
        return self.pkg.synthetic.make_cipher_corpus(
            pairs, seed=C.CORPUS_SEED_OFFSET + seed, **C.CIPHER)


class Pretrain(Workload):
    """``train_translation`` for 40 steps from a seeded init; a unit is one step.

    Should move step_ms_p50 and items_per_s here:
      numerics.Tensor.backward                about 58% of a step
      model.decode, model.decode.positions    about 21%
      model.encode                            about 14%
      numerics.Tensor.calls, numerics.reshape/transpose/add
                                              257 tensors and 118 reshapes a step
      training.AdamOptimizer.step             about 5%
      data.batch_iter, data.pad_frac          the PAD share scales all model work
    Predicted no change: losses.barlow_twins_loss, model.pool, model.project,
    training.CollapseMonitor.observe, evaluation.*, training.load_checkpoint.
    """

    name = "pretrain"
    why = ("The step pretrain and finetune share; the only workload that runs decoder "
           "forward, the vocab-wide log-softmax and the full encoder+decoder backward.")
    PAIRS = 2000          # the acceptance toy's training-set size
    STEPS = 40            # steps a round, each from a fresh seeded init

    def setup(self, seed: int):
        D, M, TR = self.pkg.data, self.pkg.model, self.pkg.training
        corpus = self._corpus(seed, self.PAIRS)
        vocab_src = D.build_vocab([p.source for p in corpus] + [p.target for p in corpus])
        vocab_tgt = D.build_vocab([p.target for p in corpus])
        cfg = M.ModelConfig(src_vocab=len(vocab_src), tgt_vocab=len(vocab_tgt), **C.MODEL)
        TR.train_translation(cfg, corpus, vocab_src, vocab_tgt, seed=seed, steps=0)
        return dict(seed=seed, corpus=corpus, vocab_src=vocab_src, vocab_tgt=vocab_tgt,
                    cfg=cfg)

    def run_round(self, s) -> Round:
        marks = [time.perf_counter()]
        sink = LossSink(marks)
        ckpt = self.pkg.training.train_translation(
            s["cfg"], s["corpus"], s["vocab_src"], s["vocab_tgt"], seed=s["seed"],
            steps=self.STEPS, batch_size=C.BATCH, lr=C.LR, warmup=C.PRETRAIN_WARMUP,
            metrics=sink)
        end = time.perf_counter()
        losses = [r[0] for r in sink.records]
        return Round(marks, end, C.BATCH * len(losses), float_digest(losses), losses, ckpt)

    def quality(self, last: Round) -> dict:
        losses = last.losses
        return {
            "figures": {"final_loss": (losses[-1], "nat", f"step {len(losses)} of a round")},
            "checks": {
                "losses_finite": bool(np.isfinite(losses).all()),
                "loss_decreases": losses[-1] < losses[0],
            },
            "checkpoint": last.output,
        }


class ContextEnhance(Workload):
    """``context_enhance`` from the fixture, 16 batches; a unit is one CE batch.

    Should move step_ms_p50 and items_per_s here:
      numerics.Tensor.backward                about 57% of a batch
      model.encode                            about 35%: two encodes a batch
      numerics.Tensor.calls, numerics.reshape/transpose/add
      training.AdamOptimizer.step             about 3%
      losses.barlow_twins_loss, model.project, model.pool,
      training.CollapseMonitor.observe        under 1.5% together, which caps
                                              any gain claimed from them
      data.batch_iter, data.pad_frac          the PAD share scales all model work
    Should move setup_s: training.load_checkpoint, training.checkpoint_bytes.
    Predicted no change: model.decode (the decoder never runs), evaluation.*.
    """

    name = "ce"
    why = ("Runs the encoder twice a batch plus pooling, projection, batch norm, the d x d "
           "correlation and the collapse monitor; the decoder never runs.")
    PAIRS = 512           # 8 batches an epoch
    EPOCHS = 2            # 16 batches a round: the fixture's CE run stays clear of the
                          # collapse monitor's abort, which fires after about 35 batches

    def setup(self, seed: int):
        ckpt, vocab_src, vocab_tgt = self._fixture()
        return dict(seed=seed, start=ckpt, corpus=self._corpus(seed, self.PAIRS),
                    vocab_src=vocab_src, vocab_tgt=vocab_tgt)

    def run_round(self, s) -> Round:
        TR = self.pkg.training
        marks = [time.perf_counter()]

        class StampingMonitor(TR.CollapseMonitor):
            def observe(self, embeddings):
                report = super().observe(embeddings)
                marks.append(time.perf_counter())
                return report

        sink = LossSink()
        ce_cfg = TR.CEConfig(lam=C.CE_LAMBDA, epochs=self.EPOCHS, batch_size=C.BATCH,
                             pooling=C.MODEL["pooling"], proj_dim=C.MODEL["proj_dim"])
        ckpt = TR.context_enhance(s["start"], s["corpus"], s["vocab_src"], ce_cfg, s["seed"],
                                  lr=C.LR, warmup=C.CE_WARMUP, metrics=sink,
                                  monitor=StampingMonitor())
        end = time.perf_counter()
        flat = [v for record in sink.records for v in record]
        items = C.BATCH * (len(marks) - 1)
        return Round(marks, end, items, float_digest(flat), flat, ckpt)

    def quality(self, last: Round) -> dict:
        totals = last.losses[0::3]
        return {
            "figures": {"final_loss": (totals[-1], "nat",
                                       f"mean Barlow total of epoch {len(totals)}")},
            "checks": {"losses_finite": bool(np.isfinite(last.losses).all())},
            "checkpoint": last.output,
        }


class Translate(Workload):
    """The ``ce-nmt eval`` path on the fixture; a unit is one 64-sentence batch.

    Should move items_per_s and step_ms_p50 here:
      model.decode, model.decode.positions, evaluation.decode_useful_frac
                                              no-grad and KV caching act here only
      numerics.Tensor.calls, numerics.reshape/transpose/add
      evaluation.bleu, evaluation.corpus_probe_embeddings,
      evaluation.run_protocol                 the phase after decoding
      data.batch_iter, data.pad_frac          the PAD share scales all model work
    Should move setup_s: training.load_checkpoint, training.checkpoint_bytes.
    Should move peak_rss_mb: no-grad lowers it, a KV cache raises it.
    Predicted no change: numerics.Tensor.backward and
    training.AdamOptimizer.step (neither runs); model.encode stays small
    (1 call against up to 11 decode calls a batch).
    """

    name = "translate"
    why = ("Forward only: greedy decoding re-runs the decoder on the whole prefix per token, "
           "so no-grad and KV caching act here and nowhere else.")
    SENTENCES = 640       # 10 decode batches a round
    BLEU_FLOOR = 90.0     # the fixture scores about 99 on held-out pairs

    def setup(self, seed: int):
        ckpt, vocab_src, vocab_tgt = self._fixture()
        corpus = self._corpus(seed, self.SENTENCES)
        chunks = [self.pkg.data.ParallelCorpus(corpus.pairs[i:i + C.BATCH])
                  for i in range(0, len(corpus), C.BATCH)]
        return dict(seed=seed, ckpt=ckpt, corpus=corpus, chunks=chunks,
                    refs=[list(p.target) for p in corpus],
                    vocab_src=vocab_src, vocab_tgt=vocab_tgt)

    def run_round(self, s) -> Round:
        E = self.pkg.evaluation
        marks = [time.perf_counter()]
        hyps: list[list[str]] = []
        for chunk in s["chunks"]:
            hyps.extend(E.translate_corpus(s["ckpt"], chunk, s["vocab_src"], s["vocab_tgt"],
                                           batch_size=C.BATCH))
            marks.append(time.perf_counter())
        score = E.bleu(hyps, s["refs"])
        emb, labels = E.corpus_probe_embeddings(s["ckpt"], s["corpus"], s["vocab_src"])
        protocol = E.run_centroid_protocol(emb, labels, seed=s["seed"])
        end = time.perf_counter()
        eos = self.pkg.data.EOS
        ids = [i for row in hyps for i in [s["vocab_tgt"].id(t) for t in row] + [eos]]
        digest = hashlib.sha256(np.asarray(ids, dtype="<i8").tobytes()).hexdigest()
        return Round(marks, end, len(s["corpus"]), digest,
                     output=dict(bleu=score, protocol=protocol.summary(), ckpt=s["ckpt"]))

    def quality(self, last: Round) -> dict:
        score = last.output["bleu"]
        p = last.output["protocol"]
        return {
            "figures": {"bleu": (score, "BLEU", f"{last.items} sentences")},
            "checks": {
                "bleu_floor": score >= self.BLEU_FLOOR,
                "probe_accuracies_valid": all(0.0 <= p[k] <= 1.0 for k in ("a1", "a2", "a3")),
            },
            "checkpoint": last.output["ckpt"],
        }


WORKLOADS = {w.name: w for w in (Pretrain, ContextEnhance, Translate)}
