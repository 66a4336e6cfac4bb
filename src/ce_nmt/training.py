"""Three-stage training pipeline with checkpointing and collapse monitoring.

Stages:
  1. translation pre-training of encoder + decoder on cross-entropy,
  2. context enhancement: the shared encoder encodes both sides of each
     parallel batch; pooled embeddings are projected, batch-normalized, and
     pulled together by the Barlow Twins loss (decoder untouched),
  3. translation fine-tuning from the enhanced encoder, with the pooling /
     projection / batch-norm stack bypassed entirely.

Each stage returns a ``Checkpoint`` of fresh parameters without gradients:
it never writes into the checkpoint it starts from, and a training loop
holds at most the last step's graph, which it drops once the next step's
first encode has run.

Determinism contract: for a fixed seed and config, every stage produces a
bit-identical metrics log at 64-bit precision. Timing is therefore only
recorded (``wall_ms``) in float32 runs; 64-bit runs log ``wall_ms: null``.

Seed layout (documented, fixed): parameter init uses ``seed``, epoch e of a
stage shuffles with ``seed + 1000 + e``, dropout draws from ``seed + 7919``.
``run_pipeline`` runs every chain of stages, one stage or all three, and
gives stage i of a run ``seed + i``: the full chain trains with ``seed``,
``seed + 1``, ``seed + 2``, and a single stage with ``seed``. A skipped
pretrain keeps its slot, so CE still gets ``seed + 1``. A fresh CE start
(``fresh_ce_start``) is drawn with the run's ``seed``.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import time
from dataclasses import dataclass, fields, replace
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
        if warmup < 1:
            raise ConfigError(f"warmup must be >= 1, got {warmup}")
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
        self.path.write_text("")
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
        self.latest_std: float | None = None
        self.latest_rank: float | None = None

    def observe(self, embeddings: np.ndarray) -> CollapseReport:
        emb = np.asarray(embeddings, dtype=np.float64)
        self.observations += 1
        self.latest_std = float(emb.std(axis=0).mean())
        self.latest_rank = effective_rank(emb)
        if self.initial_std is None:
            self.initial_std = self.latest_std
        return self.report()

    def report(self) -> CollapseReport:
        base = CollapseReport(
            status="insufficient data",
            observations=self.observations,
            initial_std=self.initial_std,
            latest_std=self.latest_std,
            effective_rank=self.latest_rank,
        )
        if self.observations < 2:
            return base
        if self.latest_rank < COLLAPSE_MIN_RANK:
            base.status = "collapsed"
            base.reason = f"effective rank {self.latest_rank:.3f} < {COLLAPSE_MIN_RANK}"
        elif self.latest_std < COLLAPSE_REL_STD * self.initial_std:
            base.status = "collapsed"
            base.reason = (f"mean per-dim std {self.latest_std:.3e} below "
                           f"{COLLAPSE_REL_STD} x initial {self.initial_std:.3e}")
        else:
            base.status = "ok"
        return base


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


def _write_array(buf: io.BytesIO, name: str, values: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    buf.write(struct.pack("<I", len(encoded)))
    buf.write(encoded)
    buf.write(struct.pack("<I", values.ndim))
    for dim in values.shape:
        buf.write(struct.pack("<I", dim))
    # Clamp into float32 range so even diverged diagnostic checkpoints stay
    # finite and loadable.
    clamped = np.clip(values, -_F32_MAX, _F32_MAX)
    buf.write(np.ascontiguousarray(clamped, dtype="<f4").tobytes())


def checkpoint_bytes(ckpt: Checkpoint) -> bytes:
    """Serialize: magic, version, JSON header, then named float32 tensors."""
    groups = [("encoder", ckpt.encoder)]
    if ckpt.decoder is not None:
        groups.append(("decoder", ckpt.decoder))
    if ckpt.projection is not None:
        groups.append(("projection", ckpt.projection))
    header = {
        "config": ckpt.config.to_dict(),
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
            _write_array(buf, f"{group_name}.{name}", tensor.values)
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
        cfg = ModelConfig.from_dict(header["config"])
        stage, seed, step, groups = (header[k] for k in ("stage", "seed", "step", "groups"))
    except (UnicodeDecodeError, ValueError, KeyError, TypeError) as exc:
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
    groups = {}
    for group_name in group_names:
        tensors = {}
        for name, shape, _ in M.param_layout(cfg, group_name):
            full = f"{group_name}.{name}"
            if reader.take(reader.uint()) != full.encode("utf-8") or reader.uint() != len(shape) \
                    or tuple(reader.uint() for _ in shape) != shape:
                raise ConfigError(f"{source}: expected tensor {full} of shape {shape}")
            count = math.prod(shape)
            values = np.frombuffer(reader.take(4 * count), dtype="<f4").reshape(shape)
            try:
                tensors[name] = Tensor(values.astype(dtype), requires_grad=True)
            except NumericError as exc:
                raise ConfigError(f"{source}: tensor {full}: {exc}") from exc
        groups[group_name] = tensors
    if reader.pos != len(reader.raw):
        raise ConfigError(f"{source}: unexpected bytes after the last tensor")
    return Checkpoint(
        config=cfg, stage=stage, seed=seed, step=step,
        encoder=ParamGroup(groups["encoder"]),
        decoder=ParamGroup(groups["decoder"]) if "decoder" in groups else None,
        projection=ParamGroup(groups["projection"]) if "projection" in groups else None,
    )


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
        # lam = 0 is permitted as a diagnostic edge (redundancy term inert).
        if self.lam < 0:
            raise ConfigError(f"lambda must be positive, got {self.lam}")
        if not 1 <= self.epochs <= 1000:
            raise ConfigError(f"epochs must be in [1, 1000], got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"CE batch size must be >= 2, got {self.batch_size}")
        if self.pooling not in M.POOLING_KINDS:
            raise ConfigError(f"pooling must be one of {M.POOLING_KINDS}")
        if self.proj_dim < 1:
            raise ConfigError(f"proj_dim must be >= 1, got {self.proj_dim}")


# -- stage loops -------------------------------------------------------------------


def _diverged(message: str, diag: Checkpoint, out_dir: Path | None,
              name: str) -> DivergenceError:
    """The error a stage raises on non-finite values, after saving ``diag``
    as ``out_dir / name`` when there is an ``out_dir``."""
    path = save_checkpoint(diag, out_dir / name) if out_dir is not None else None
    return DivergenceError(message, checkpoint_path=path)


def _translation_steps(cfg: ModelConfig, corpus: ParallelCorpus, vocab_src: Vocabulary,
                       vocab_tgt: Vocabulary, enc: ParamGroup, dec: ParamGroup,
                       seed: int, steps: int, batch_size: int, lr: float, warmup: int,
                       stage: str, metrics: MetricsLog | None,
                       out_dir: Path | None) -> int:
    if len(corpus) == 0:
        raise ConfigError("cannot train on an empty corpus")
    optimizer = AdamOptimizer(_flatten({"encoder": enc, "decoder": dec}), lr=lr, warmup=warmup)
    dropout_rng = np.random.default_rng(seed + 7919) if cfg.dropout > 0 else None
    step = 0
    epoch = 0
    while step < steps:
        for batch in batch_iter(corpus, vocab_src, vocab_tgt, batch_size,
                                max_len=cfg.max_len, shuffle=True, seed=seed + 1000 + epoch):
            if step >= steps:
                break
            try:
                latent = M.encode(batch.source_ids, batch.source_mask, enc, cfg, rng=dropout_rng)
                # The previous step's graph goes only now, so its arrays lie
                # below live ones and the decoder and backward reuse them.
                # Dropped at the end of a step instead, they would go back to
                # the system and be faulted in again at the next step.
                logits = loss = None
                logits = M.decode(latent, batch.target_ids[:, :-1], batch.target_mask[:, :-1],
                                  dec, cfg, rng=dropout_rng)
                loss = translation_loss(logits, batch.target_ids[:, 1:], batch.target_mask[:, 1:])
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
            except NumericError as exc:
                raise _diverged(f"{stage} diverged at step {step}: {exc}",
                                Checkpoint(cfg, stage, seed, step, enc, decoder=dec),
                                out_dir, f"diverged-{step}.ckpt") from exc
            step += 1
            if metrics is not None:
                metrics.write(stage, step, loss.item())
        epoch += 1
    optimizer.zero_grad()
    return step


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
    enc = M.init_encoder_params(cfg, rng, dtype=dtype, embed_table=embed_table)
    dec = M.init_decoder_params(cfg, rng, dtype=dtype)
    step = 0
    if steps > 0:
        step = _translation_steps(cfg, corpus, vocab_src, vocab_tgt, enc, dec, seed,
                                  steps, batch_size, lr, warmup, "pretrain", metrics,
                                  Path(out_dir) if out_dir else None)
    return Checkpoint(cfg, "pretrain", seed, step, enc, decoder=dec)


def fresh_ce_start(cfg: ModelConfig, seed: int, dtype=np.float64,
                   embed_table: np.ndarray | None = None) -> Checkpoint:
    """A stage-2 starting point without pre-training: a seeded fresh encoder
    (embeddings optionally from ``embed_table``) and projection."""
    rng = np.random.default_rng(seed)
    enc = M.init_encoder_params(cfg, rng, dtype=dtype, embed_table=embed_table)
    return Checkpoint(cfg, "ce", seed, 0, enc,
                      projection=M.init_projection_params(cfg, rng, dtype=dtype))


def context_enhance(start: Checkpoint, corpus: ParallelCorpus, vocab_enc: Vocabulary,
                    ce_cfg: CEConfig, seed: int, *, lr: float = 1e-3, warmup: int = 100,
                    metrics: MetricsLog | None = None, out_dir=None,
                    monitor: CollapseMonitor | None = None) -> Checkpoint:
    """Stage 2: align pooled parallel-sentence embeddings with Barlow Twins.

    Both sides of every pair pass through the one shared encoder (ids under
    the encoder vocabulary), then pooling, projection, batch norm, and the
    loss. Only encoder and projection parameters are updated; any decoder in
    ``start`` is carried through untouched. Batches smaller than 2 rows are
    skipped (batch norm needs statistics). ``metrics`` gets one record per
    epoch with the mean loss terms.

    The stage aborts with ``CollapseError`` once the monitor reports collapse
    for ``COLLAPSE_PATIENCE`` consecutive batches, and with ``DivergenceError``
    on non-finite values (after saving ``diverged-<epoch>.ckpt`` to
    ``out_dir``). The returned parameters hold no gradients, and ``start``
    is left as it was.
    """
    if start.encoder is None:
        raise ConfigError("context enhancement requires encoder parameters")
    cfg = replace(start.config, proj_dim=ce_cfg.proj_dim, pooling=ce_cfg.pooling)
    enc = start.encoder.copy()
    dec = start.decoder.copy() if start.decoder is not None else None
    proj = M.init_projection_params(cfg, np.random.default_rng(seed),
                                    dtype=enc["embed"].dtype)
    optimizer = AdamOptimizer(_flatten({"encoder": enc, "projection": proj}),
                              lr=lr, warmup=warmup)
    monitor = monitor or CollapseMonitor()
    out_dir = Path(out_dir) if out_dir else None
    collapsed_streak = 0

    for epoch in range(ce_cfg.epochs):
        totals = np.zeros(3)
        batches = 0
        for batch in batch_iter(corpus, vocab_enc, vocab_enc, ce_cfg.batch_size,
                                max_len=cfg.max_len, shuffle=True, seed=seed + 1000 + epoch):
            if batch.size < 2:
                continue
            try:
                lat_s = M.encode(batch.source_ids, batch.source_mask, enc, cfg)
                # As in ``_translation_steps``: release the previous batch's
                # graph once the new one's first encode holds its memory.
                lat_t = sig_s = sig_t = z_s = z_t = breakdown = None
                lat_t = M.encode(batch.target_ids, batch.target_mask, enc, cfg)
                sig_s = M.pool(lat_s, ce_cfg.pooling)
                sig_t = M.pool(lat_t, ce_cfg.pooling)
                z_s = M.project(sig_s, proj)
                z_t = M.project(sig_t, proj)
                breakdown = barlow_twins_loss(z_s, z_t, lam=ce_cfg.lam)
                optimizer.zero_grad()
                breakdown.loss.backward()
                optimizer.step()
            except NumericError as exc:
                raise _diverged(f"ce diverged in epoch {epoch}: {exc}",
                                Checkpoint(cfg, "ce", seed, epoch, enc, decoder=dec,
                                           projection=proj),
                                out_dir, f"diverged-{epoch}.ckpt") from exc
            totals += (breakdown.total, breakdown.invariance_term, breakdown.redundancy_term)
            batches += 1
            report = monitor.observe(np.vstack([sig_s.values, sig_t.values]))
            collapsed_streak = collapsed_streak + 1 if report.status == "collapsed" else 0
            if collapsed_streak >= COLLAPSE_PATIENCE:
                if out_dir is not None:
                    diag = Checkpoint(cfg, "ce", seed, epoch, enc, decoder=dec, projection=proj)
                    save_checkpoint(diag, out_dir / f"collapsed-{epoch}.ckpt")
                raise CollapseError(report)
        if batches == 0:
            raise ConfigError("context enhancement saw no usable batch (all smaller than 2)")
        mean_total, mean_inv, mean_red = (totals / batches).tolist()
        if metrics is not None:
            metrics.write("ce", epoch, mean_total, mean_inv, mean_red, ce_cfg.lam)
    optimizer.zero_grad()
    return Checkpoint(cfg, "ce", seed, ce_cfg.epochs, enc, decoder=dec, projection=proj)


def finetune_translation(ce_ckpt: Checkpoint, corpus: ParallelCorpus, vocab_src: Vocabulary,
                         vocab_tgt: Vocabulary, steps: int, seed: int, *,
                         batch_size: int = 32, lr: float = 1e-3, warmup: int = 4000,
                         reuse_decoder: bool = False, metrics: MetricsLog | None = None,
                         out_dir=None) -> Checkpoint:
    """Stage 3: joint translation training from the enhanced encoder.

    The decoder starts fresh by default; ``reuse_decoder`` picks up the
    decoder carried inside the CE checkpoint instead. Pooling, projection and
    batch norm never execute on this path; the projection parameters are
    retained in the result untouched. The returned parameters hold no
    gradients, and ``ce_ckpt`` is left as it was.
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
        dec = M.init_decoder_params(cfg, np.random.default_rng(seed), dtype=enc["embed"].dtype)
    step = 0
    if steps > 0:
        step = _translation_steps(cfg, corpus, vocab_src, vocab_tgt, enc, dec, seed,
                                  steps, batch_size, lr, warmup, "finetune", metrics,
                                  Path(out_dir) if out_dir else None)
    proj = ce_ckpt.projection.copy() if ce_ckpt.projection is not None else None
    return Checkpoint(cfg, "finetune", seed, step, enc, decoder=dec, projection=proj)


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
