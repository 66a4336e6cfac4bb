"""Three-stage training pipeline with checkpointing and collapse monitoring.

Stages:
  1. translation pre-training of encoder + decoder on cross-entropy,
  2. context enhancement: the shared encoder encodes both sides of each
     parallel batch; pooled embeddings are projected, batch-normalized, and
     pulled together by the Barlow Twins loss (decoder untouched),
  3. translation fine-tuning from the enhanced encoder, with the pooling /
     projection / batch-norm stack bypassed entirely.

Every stage trains through one loop, ``_steps``: epoch e shuffles the corpus
with ``seed + 1000 + e``, and each step drops the previous step's graph once
its source-side encode has run. A stage returns a ``Checkpoint`` without
gradients: it copies the parameter groups it trains and carries the start's
other groups as they are, so the checkpoint it starts from is left as it was.

Determinism contract: for a fixed seed and config, every stage produces a
bit-identical metrics log at 64-bit precision. Timing is therefore only
recorded (``wall_ms``) in float32 runs; 64-bit runs log ``wall_ms: null``.

Seed layout (documented, fixed): parameter init uses ``seed``, dropout
draws from ``seed + 7919``, and the loop shuffles as above. ``run_pipeline``
runs every chain of stages, one stage or all three, and gives stage i of a
run ``seed + i``: the full chain trains with ``seed``, ``seed + 1``,
``seed + 2``, and a single stage with ``seed``. A skipped pretrain keeps its
slot, so CE still gets ``seed + 1``. A fresh CE start (``fresh_ce_start``)
is drawn with the run's ``seed``.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import time
from dataclasses import asdict, dataclass, fields, replace
from itertools import chain, count, islice
from pathlib import Path

import numpy as np

from . import model as M
from .data import ParallelCorpus, Vocabulary, batch_iter
from .errors import CollapseError, ConfigError, DivergenceError, NumericError
from .losses import barlow_twins_loss, translation_loss
from .model import ModelConfig, ParamGroup
from .numerics import Tensor

CHECKPOINT_MAGIC = b"CENMT\x00"
CHECKPOINT_VERSION = 1
STAGES = ("pretrain", "ce", "finetune")

# Abort context enhancement only on a sustained collapse signal: healthy runs
# show isolated sub-threshold effective-rank batches (anisotropic but sound
# geometry), while a genuinely collapsed stream flags every observation.
COLLAPSE_PATIENCE = 3
COLLAPSE_MIN_RANK = 2.0
COLLAPSE_REL_STD = 1e-3

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.98
ADAM_EPS = 1e-9
CLIP_NORM = 1.0


# -- optimizer ----------------------------------------------------------------


class AdamOptimizer:
    """Adaptive moments with linear warmup and inverse-sqrt decay.

    rate(t) = lr * min(t / warmup, sqrt(warmup / t)); the peak rate ``lr``
    is reached exactly at ``t = warmup``. Gradients are clipped to the global
    norm ``CLIP_NORM`` before each update.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3, warmup: int = 4000):
        M.check_bounds("warmup", warmup)
        M.check_bounds("lr", lr)
        self.params = dict(params)
        self.lr = lr
        self.warmup = warmup
        self.step_count = 0
        self.m = {k: np.zeros_like(t.values) for k, t in self.params.items()}
        self.v = {k: np.zeros_like(t.values) for k, t in self.params.items()}

    def rate(self, step: int) -> float:
        return self.lr * min(step / self.warmup, math.sqrt(self.warmup / step))

    def step(self) -> None:
        self.step_count += 1
        grads = {}
        sq_sum = 0.0
        for k, t in self.params.items():
            g = t.grad
            if g is None:
                g = np.zeros_like(t.values)
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient for parameter {k}")
            grads[k] = g
            sq_sum += float((g.astype(np.float64, copy=False) ** 2).sum())
        norm = math.sqrt(sq_sum)
        scale = CLIP_NORM / norm if norm > CLIP_NORM else 1.0
        rate = self.rate(self.step_count)
        bc1 = 1.0 - ADAM_BETA1 ** self.step_count
        bc2 = 1.0 - ADAM_BETA2 ** self.step_count
        for k, t in self.params.items():
            # The moments are the optimizer's own and are updated in place;
            # ``t.grad`` may be another parameter's gradient too, and is only read.
            # Every operation keeps the order and rounding of
            #   m = beta1 * m + (1 - beta1) * g
            #   v = beta2 * v + (1 - beta2) * g * g
            #   values -= rate * (m / bc1) / (sqrt(v / bc2) + eps)
            g = grads[k] if scale == 1.0 else grads[k] * scale
            m, v = self.m[k], self.v[k]
            scratch = np.multiply(g, 1.0 - ADAM_BETA1)
            m *= ADAM_BETA1
            m += scratch
            np.multiply(g, 1.0 - ADAM_BETA2, out=scratch)
            scratch *= g
            v *= ADAM_BETA2
            v += scratch
            np.divide(v, bc2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += ADAM_EPS
            update = np.divide(m, bc1)
            update *= rate
            update /= scratch
            t.values -= update

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None


# -- metrics ------------------------------------------------------------------


class MetricsLog:
    """JSON-lines metrics sink with a fixed field order.

    ``wall_ms`` is milliseconds since the previous record when timing is
    enabled, else null; invariance/redundancy/lambda are null outside CE.
    """

    def __init__(self, path, record_time: bool = False):
        self.path = Path(path)
        self.record_time = record_time
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.touch()      # appended to, never truncated: chained stages keep every record
        self._last = time.monotonic()

    def write(self, stage: str, step_or_epoch: int, loss: float,
              invariance: float | None = None, redundancy: float | None = None,
              lam: float | None = None) -> None:
        now = time.monotonic()
        wall = int((now - self._last) * 1000) if self.record_time else None
        self._last = now
        record = {
            "stage": stage,
            "step_or_epoch": step_or_epoch,
            "loss": loss,
            "invariance_term": invariance,
            "redundancy_term": redundancy,
            "lambda": lam,
            "wall_ms": wall,
        }
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")


# -- collapse monitoring ------------------------------------------------------


@dataclass
class CollapseReport:
    status: str                      # "insufficient data" | "ok" | "collapsed"
    observations: int = 0
    initial_std: float | None = None
    latest_std: float | None = None
    effective_rank: float | None = None
    reason: str | None = None

    def __str__(self) -> str:
        return (f"{self.status} (obs={self.observations}, std {self.initial_std} -> "
                f"{self.latest_std}, erank={self.effective_rank}, {self.reason})")


def effective_rank(embeddings: np.ndarray) -> float:
    """Participation ratio of the covariance spectrum, (sum l)^2 / sum l^2."""
    H = np.asarray(embeddings, dtype=np.float64)
    H = H - H.mean(axis=0, keepdims=True)
    m = H.shape[0]
    gram = H.T @ H / m
    tr = np.trace(gram)
    tr_sq = float((gram * gram).sum())
    if tr_sq <= 0.0:
        return 0.0
    return float(tr * tr / tr_sq)


class CollapseMonitor:
    """Tracks sentence-embedding spread across batches and flags collapse.

    Collapse is flagged (from the second observation onward) when the mean
    per-dimension standard deviation falls below ``COLLAPSE_REL_STD`` times
    its initial value, or the effective rank falls below ``COLLAPSE_MIN_RANK``.
    """

    def __init__(self):
        self.observations = 0
        self.initial_std: float | None = None

    def observe(self, embeddings: np.ndarray) -> CollapseReport:
        """Record one batch of embeddings and report on it."""
        emb = np.asarray(embeddings, dtype=np.float64)
        self.observations += 1
        std, rank = float(emb.std(axis=0).mean()), effective_rank(emb)
        if self.initial_std is None:
            self.initial_std = std
        report = CollapseReport("insufficient data", self.observations, self.initial_std,
                                std, rank)
        if self.observations < 2:
            return report
        if rank < COLLAPSE_MIN_RANK:
            report.status = "collapsed"
            report.reason = f"effective rank {rank:.3f} < {COLLAPSE_MIN_RANK}"
        elif std < COLLAPSE_REL_STD * self.initial_std:
            report.status = "collapsed"
            report.reason = (f"mean per-dim std {std:.3e} below "
                             f"{COLLAPSE_REL_STD} x initial {self.initial_std:.3e}")
        else:
            report.status = "ok"
        return report


# -- checkpoints ----------------------------------------------------------------


@dataclass
class Checkpoint:
    config: ModelConfig
    stage: str
    seed: int
    step: int
    encoder: ParamGroup
    decoder: ParamGroup | None = None
    projection: ParamGroup | None = None

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ConfigError(f"stage must be one of {STAGES}, got {self.stage!r}")
        if self.stage == "ce" and self.projection is None:
            raise ConfigError("a ce checkpoint requires projection parameters")
        if self.stage in ("pretrain", "finetune") and self.decoder is None:
            raise ConfigError(f"a {self.stage} checkpoint requires decoder parameters")


_F32_MAX = float(np.finfo(np.float32).max)


def _record_head(name: str, shape: tuple[int, ...]) -> bytes:
    """The head of a tensor record, which its float32 payload follows: a
    uint32 name length, the UTF-8 name, a uint32 rank and uint32 dims."""
    encoded = name.encode("utf-8")
    return struct.pack(f"<I{len(encoded)}sI{len(shape)}I", len(encoded), encoded, len(shape), *shape)


def checkpoint_bytes(ckpt: Checkpoint) -> bytes:
    """Serialize: magic, version, JSON header, then named float32 tensors."""
    groups = [(g, getattr(ckpt, g)) for g in M.GROUPS if getattr(ckpt, g) is not None]
    header = {
        "config": asdict(ckpt.config),
        "stage": ckpt.stage,
        "seed": ckpt.seed,
        "step": ckpt.step,
        "groups": [g for g, _ in groups],
        "optimizer": None,        # always null; kept so format v1 bytes stay stable
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    buf.write(struct.pack("<I", len(header_bytes)))
    buf.write(header_bytes)
    for group_name, group in groups:
        for name, tensor in group.items():
            buf.write(_record_head(f"{group_name}.{name}", tensor.shape))
            # Clamp into float32 range so even diverged diagnostic
            # checkpoints stay finite and loadable.
            clamped = np.clip(tensor.values, -_F32_MAX, _F32_MAX)
            buf.write(np.ascontiguousarray(clamped, dtype="<f4").tobytes())
    return buf.getvalue()


def save_checkpoint(ckpt: Checkpoint, path) -> Path:
    """Write ``ckpt`` atomically: the bytes go to a temporary file in the
    target directory, which then replaces ``path``. A failed write leaves any
    earlier file at ``path`` as it was and removes the temporary file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = checkpoint_bytes(ckpt)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


class _Reader:
    """Reads a checkpoint blob; a short read is a malformed file."""

    def __init__(self, raw: bytes, source):
        self.raw, self.pos, self.source = raw, 0, source

    def take(self, n: int) -> bytes:
        if n > len(self.raw) - self.pos:
            raise ConfigError(f"{self.source}: checkpoint is truncated")
        out = self.raw[self.pos:self.pos + n]
        self.pos += n
        return out

    def uint(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def _read_header(reader: _Reader) -> tuple[ModelConfig, str, int, int, list[str]]:
    try:
        header = json.loads(reader.take(reader.uint()).decode("utf-8"))
        cfg = ModelConfig(**header["config"])
        stage, seed, step, groups = (header[k] for k in ("stage", "seed", "step", "groups"))
    except (UnicodeDecodeError, ValueError, KeyError, TypeError, ConfigError) as exc:
        raise ConfigError(f"{reader.source}: malformed checkpoint header: {exc}") from exc
    ints = [seed, step] + [getattr(cfg, f.name) for f in fields(cfg) if f.type in ("int", int)]
    if not all(type(x) is int for x in ints):
        raise ConfigError(f"{reader.source}: checkpoint sizes, seed and step must be integers")
    if not isinstance(groups, list) or "encoder" not in groups \
            or groups != [g for g in M.GROUPS if g in groups]:
        raise ConfigError(f"{reader.source}: malformed checkpoint groups {groups!r}")
    return cfg, stage, seed, step, groups


def load_checkpoint(path, dtype=np.float64) -> Checkpoint:
    return parse_checkpoint(Path(path).read_bytes(), dtype, source=path)


def parse_checkpoint(raw: bytes, dtype=np.float64, source="checkpoint") -> Checkpoint:
    """Inverse of ``checkpoint_bytes``; any malformed input raises ``ConfigError``.

    Every group must hold exactly the tensors that ``model.param_layout``
    gives for the stored config, with their shapes, in order, and finite.
    ``source`` names the input in error messages.
    """
    reader = _Reader(raw, source)
    if reader.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise ConfigError(f"{source} is not a checkpoint file")
    version = reader.uint()
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"{source}: unsupported checkpoint version {version}")
    cfg, stage, seed, step, group_names = _read_header(reader)
    groups = dict.fromkeys(M.GROUPS)
    for group_name in group_names:
        tensors = {}
        for name, shape, _ in M.param_layout(cfg, group_name):
            full = f"{group_name}.{name}"
            head = _record_head(full, shape)
            if reader.take(len(head)) != head:
                raise ConfigError(f"{source}: expected tensor {full} of shape {shape}")
            count = math.prod(shape)
            values = np.frombuffer(reader.take(4 * count), dtype="<f4").reshape(shape)
            try:
                tensors[name] = Tensor(values.astype(dtype), requires_grad=True)
            except NumericError as exc:
                raise ConfigError(f"{source}: tensor {full}: {exc}") from exc
        groups[group_name] = ParamGroup(tensors)
    if reader.pos != len(reader.raw):
        raise ConfigError(f"{source}: unexpected bytes after the last tensor")
    return Checkpoint(config=cfg, stage=stage, seed=seed, step=step, **groups)


def _flatten(groups: dict[str, ParamGroup | None]) -> dict[str, Tensor]:
    flat: dict[str, Tensor] = {}
    for g_name, group in groups.items():
        if group is None:
            continue
        for name, tensor in group.items():
            flat[f"{g_name}.{name}"] = tensor
    return flat


# -- configs ---------------------------------------------------------------------


@dataclass(frozen=True)
class CEConfig:
    lam: float = 5e-3
    epochs: int = 50
    batch_size: int = 64
    pooling: str = "mean"
    proj_dim: int = 32

    def __post_init__(self):
        for f in fields(self):
            M.check_bounds(f.name, getattr(self, f.name))
        if self.batch_size < 2:
            raise ConfigError(f"CE batch size must be >= 2, got {self.batch_size}")


# -- stage loops -------------------------------------------------------------------


def _epoch(ckpt: Checkpoint, corpus: ParallelCorpus, vocab_src: Vocabulary,
           vocab_tgt: Vocabulary, batch_size: int, epoch: int):
    """The batches of epoch ``epoch`` of the stage that trains ``ckpt``."""
    return batch_iter(corpus, vocab_src, vocab_tgt, batch_size, max_len=ckpt.config.max_len,
                      shuffle=True, seed=ckpt.seed + 1000 + epoch)


def _steps(optimizer: AdamOptimizer, ckpt: Checkpoint, batches, loss_of, out_dir,
           rng: np.random.Generator | None):
    """The one training loop: an Adam step for each ``(at, batch)``, then
    ``(at, record)`` yielded. ``loss_of(latent, batch)`` gives the step's loss
    and a record of plain numbers and arrays (a Tensor kept by the caller would
    hold the step's graph through the next one). A non-finite value saves
    ``ckpt`` as ``diverged-<at>.ckpt``. Run to its end, it leaves no gradients."""
    for at, batch in batches:
        try:
            latent = M.encode(batch.source_ids, batch.source_mask, ckpt.encoder, ckpt.config, rng=rng)
            # The previous step's graph goes only now, so its arrays lie
            # below live ones and the rest of the step and backward reuse
            # them. Dropped at the end of a step instead, they would go back
            # to the system and be faulted in again at the next step.
            loss = None
            loss, record = loss_of(latent, batch)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        except NumericError as exc:
            path = None
            if out_dir:
                path = save_checkpoint(replace(ckpt, step=at), Path(out_dir) / f"diverged-{at}.ckpt")
            unit = "epoch" if ckpt.stage == "ce" else "step"
            raise DivergenceError(f"{ckpt.stage} diverged at {unit} {at}: {exc}",
                                  checkpoint_path=path) from exc
        yield at, record
    optimizer.zero_grad()


def _translate_steps(ckpt: Checkpoint, corpus: ParallelCorpus, vocab_src: Vocabulary,
                     vocab_tgt: Vocabulary, batch_size: int, lr: float, warmup: int,
                     metrics: MetricsLog | None, out_dir) -> None:
    """Train ``ckpt``'s encoder and decoder in place for ``ckpt.step`` translation steps."""
    if ckpt.step == 0:
        return
    if len(corpus) == 0:
        raise ConfigError("cannot train on an empty corpus")
    optimizer = AdamOptimizer(_flatten({"encoder": ckpt.encoder, "decoder": ckpt.decoder}),
                              lr=lr, warmup=warmup)
    rng = np.random.default_rng(ckpt.seed + 7919) if ckpt.config.dropout > 0 else None

    def loss_of(latent, batch):
        logits = M.decode(latent, batch.target_ids[:, :-1], batch.target_mask[:, :-1],
                          ckpt.decoder, ckpt.config, rng=rng)
        loss = translation_loss(logits, batch.target_ids[:, 1:], batch.target_mask[:, 1:])
        return loss, loss.item()

    epochs = chain.from_iterable(_epoch(ckpt, corpus, vocab_src, vocab_tgt, batch_size, epoch)
                                 for epoch in count())
    batches = enumerate(islice(epochs, ckpt.step))
    for at, loss in _steps(optimizer, ckpt, batches, loss_of, out_dir, rng):
        if metrics is not None:
            metrics.write(ckpt.stage, at + 1, loss)


def train_translation(cfg: ModelConfig, corpus: ParallelCorpus, vocab_src: Vocabulary,
                      vocab_tgt: Vocabulary, seed: int, steps: int, *,
                      batch_size: int = 32, lr: float = 1e-3, warmup: int = 4000,
                      dtype=np.float64, metrics: MetricsLog | None = None,
                      out_dir=None, embed_table: np.ndarray | None = None) -> Checkpoint:
    """Stage 1: train encoder + decoder on translation cross-entropy.

    With ``steps=0`` the returned parameters equal the seeded initialization.
    ``embed_table`` (src_vocab x emb_dim) overrides the encoder embedding init.
    The returned parameters hold no gradients.
    """
    rng = np.random.default_rng(seed)
    enc = M.init_params(cfg, "encoder", rng, dtype, embed_table)
    dec = M.init_params(cfg, "decoder", rng, dtype)
    ckpt = Checkpoint(cfg, "pretrain", seed, steps, enc, decoder=dec)
    _translate_steps(ckpt, corpus, vocab_src, vocab_tgt, batch_size, lr, warmup, metrics, out_dir)
    return ckpt


def fresh_ce_start(cfg: ModelConfig, seed: int, dtype=np.float64,
                   embed_table: np.ndarray | None = None) -> Checkpoint:
    """A stage-2 starting point without pre-training: a seeded fresh encoder
    (embeddings optionally from ``embed_table``) and projection."""
    rng = np.random.default_rng(seed)
    enc = M.init_params(cfg, "encoder", rng, dtype, embed_table)
    proj = M.init_params(cfg, "projection", rng, dtype)
    return Checkpoint(cfg, "ce", seed, 0, enc, projection=proj)


def context_enhance(start: Checkpoint, corpus: ParallelCorpus, vocab_enc: Vocabulary,
                    ce_cfg: CEConfig, seed: int, *, lr: float = 1e-3, warmup: int = 100,
                    metrics: MetricsLog | None = None, out_dir=None,
                    monitor: CollapseMonitor | None = None) -> Checkpoint:
    """Stage 2: align pooled parallel-sentence embeddings with Barlow Twins.

    Both sides of every pair pass through the one shared encoder (ids under
    the encoder vocabulary), then pooling, projection, batch norm, and the
    loss. Only encoder and projection parameters are updated; any decoder in
    ``start`` is carried into the result as the same object, untouched.
    Batch norm needs statistics, so a corpus under 2 pairs is rejected and a
    batch under 2 rows is skipped.
    ``metrics`` gets one record per epoch with the mean loss terms.

    The stage aborts with ``CollapseError`` once the monitor reports collapse
    for ``COLLAPSE_PATIENCE`` consecutive batches, and with ``DivergenceError``
    on non-finite values (after saving ``diverged-<epoch>.ckpt`` to
    ``out_dir``). The returned parameters hold no gradients, and ``start``
    is left as it was.
    """
    if start.encoder is None:
        raise ConfigError("context enhancement requires encoder parameters")
    if len(corpus) < 2:
        raise ConfigError(f"context enhancement needs at least 2 pairs, got {len(corpus)}")
    cfg = replace(start.config, proj_dim=ce_cfg.proj_dim, pooling=ce_cfg.pooling)
    enc = start.encoder.copy()
    proj = M.init_params(cfg, "projection", np.random.default_rng(seed), enc["embed"].dtype)
    ckpt = Checkpoint(cfg, "ce", seed, ce_cfg.epochs, enc, decoder=start.decoder, projection=proj)
    optimizer = AdamOptimizer(_flatten({"encoder": enc, "projection": proj}), lr=lr, warmup=warmup)
    monitor = monitor or CollapseMonitor()
    epoch_terms = []        # (total, invariance, redundancy) of this epoch's batches

    def batches():
        for epoch in range(ce_cfg.epochs):
            for batch in _epoch(ckpt, corpus, vocab_enc, vocab_enc, ce_cfg.batch_size, epoch):
                if batch.size >= 2:
                    yield epoch, batch
            # The loop asks for the next batch only after the stage has seen
            # this epoch's last record, so the epoch's record is complete.
            if metrics is not None:
                metrics.write("ce", epoch, *np.mean(epoch_terms, axis=0).tolist(), ce_cfg.lam)
            epoch_terms.clear()

    def loss_of(lat_s, batch):
        lat_t = M.encode(batch.target_ids, batch.target_mask, enc, cfg)
        sig_s = M.pool(lat_s, ce_cfg.pooling)
        sig_t = M.pool(lat_t, ce_cfg.pooling)
        z_s = M.project(sig_s, proj)
        z_t = M.project(sig_t, proj)
        breakdown = barlow_twins_loss(z_s, z_t, lam=ce_cfg.lam)
        terms = (breakdown.total, breakdown.invariance_term, breakdown.redundancy_term)
        return breakdown.loss, (terms, sig_s.values, sig_t.values)

    collapsed_streak = 0
    for epoch, (terms, sig_s, sig_t) in _steps(optimizer, ckpt, batches(), loss_of, out_dir, None):
        epoch_terms.append(terms)
        report = monitor.observe(np.vstack([sig_s, sig_t]))
        collapsed_streak = collapsed_streak + 1 if report.status == "collapsed" else 0
        if collapsed_streak >= COLLAPSE_PATIENCE:
            if out_dir:
                save_checkpoint(replace(ckpt, step=epoch), Path(out_dir) / f"collapsed-{epoch}.ckpt")
            raise CollapseError(report)
    return ckpt


def finetune_translation(ce_ckpt: Checkpoint, corpus: ParallelCorpus, vocab_src: Vocabulary,
                         vocab_tgt: Vocabulary, steps: int, seed: int, *,
                         batch_size: int = 32, lr: float = 1e-3, warmup: int = 4000,
                         reuse_decoder: bool = False, metrics: MetricsLog | None = None,
                         out_dir=None) -> Checkpoint:
    """Stage 3: joint translation training from the enhanced encoder.

    The decoder starts fresh by default; ``reuse_decoder`` picks up the
    decoder carried inside the CE checkpoint instead, as a copy. Pooling,
    projection and batch norm never execute on this path; the projection is
    carried into the result as the same object, untouched. The returned
    parameters hold no gradients, and ``ce_ckpt`` is left as it was.
    """
    if ce_ckpt.stage != "ce":
        raise ConfigError(f"fine-tuning requires a ce checkpoint, got stage {ce_ckpt.stage!r}")
    cfg = ce_ckpt.config
    enc = ce_ckpt.encoder.copy()
    if reuse_decoder:
        if ce_ckpt.decoder is None:
            raise ConfigError("reuse_decoder requested but the ce checkpoint has no decoder")
        dec = ce_ckpt.decoder.copy()
    else:
        dec = M.init_params(cfg, "decoder", np.random.default_rng(seed), enc["embed"].dtype)
    ckpt = Checkpoint(cfg, "finetune", seed, steps, enc, decoder=dec, projection=ce_ckpt.projection)
    _translate_steps(ckpt, corpus, vocab_src, vocab_tgt, batch_size, lr, warmup, metrics, out_dir)
    return ckpt


# -- pipeline -------------------------------------------------------------------------


@dataclass
class PipelineResult:
    checkpoints: dict[str, Checkpoint]
    paths: dict[str, Path]


def run_pipeline(cfg: ModelConfig, ce_cfg: CEConfig | None, corpus: ParallelCorpus,
                 vocab_src: Vocabulary, vocab_tgt: Vocabulary, seed: int, out_dir, *,
                 stages: tuple[str, ...] = STAGES, start: Checkpoint | None = None,
                 steps: int = 1000, finetune_steps: int = -1,
                 batch_size: int = 32, lr: float = 1e-3, warmup: int = 400,
                 skip_pretrain: bool = False, reuse_decoder: bool = False,
                 embed_table: np.ndarray | None = None,
                 dtype=np.float64) -> PipelineResult:
    """Run ``stages``, consecutive entries of ``STAGES``, saving each stage's
    ``<stage>-<step>.ckpt`` and one metrics log, ``metrics.jsonl``, in ``out_dir``.

    CE and fine-tuning start from the previous stage's checkpoint, or from
    ``start`` when they run first. Pretrain, and CE with neither, start from a
    fresh encoder drawn with ``seed`` (``embed_table`` seeds its embeddings);
    fine-tuning needs a ce checkpoint. Stage i of the run trains with
    ``seed + i``. ``skip_pretrain`` keeps pretrain's seed slot but trains
    nothing in it. ``ce_cfg`` is read only when CE runs, and ``finetune_steps``
    -1 fine-tunes for ``steps``. Stage errors propagate after earlier
    checkpoints are safely on disk. Timing is on for float32 runs and off for
    float64 runs (the reproducibility mode).
    """
    n = len(STAGES)
    if tuple(stages) not in [STAGES[i:j] for i in range(n) for j in range(i + 1, n + 1)]:
        raise ConfigError(f"stages must be consecutive entries of {STAGES}, got {stages!r}")
    out_dir = Path(out_dir)
    metrics = MetricsLog(out_dir / "metrics.jsonl",
                         record_time=np.dtype(dtype) == np.float32)
    result = PipelineResult({}, {})
    ckpt = start
    for stage_seed, stage in enumerate(stages, start=seed):
        if stage == "pretrain":
            if skip_pretrain:
                continue
            ckpt = train_translation(cfg, corpus, vocab_src, vocab_tgt, stage_seed, steps,
                                     batch_size=batch_size, lr=lr, warmup=warmup, dtype=dtype,
                                     metrics=metrics, out_dir=out_dir, embed_table=embed_table)
        elif stage == "ce":
            if ckpt is None:
                ckpt = fresh_ce_start(cfg, seed, dtype, embed_table)
            ckpt = context_enhance(ckpt, corpus, vocab_src, ce_cfg, stage_seed, lr=lr,
                                   warmup=max(1, warmup // 4), metrics=metrics, out_dir=out_dir)
        else:
            if ckpt is None:
                raise ConfigError("fine-tuning needs a ce checkpoint to start from")
            ckpt = finetune_translation(ckpt, corpus, vocab_src, vocab_tgt,
                                        steps if finetune_steps < 0 else finetune_steps,
                                        stage_seed, batch_size=batch_size, lr=lr, warmup=warmup,
                                        reuse_decoder=reuse_decoder, metrics=metrics,
                                        out_dir=out_dir)
        result.checkpoints[stage] = ckpt
        result.paths[stage] = save_checkpoint(ckpt, out_dir / f"{stage}-{ckpt.step}.ckpt")
    return result
