"""Command-line entry point.

The subcommands are the entries of ``COMMANDS``. Every run-config key can
be set in a flat ``key = value`` config file (# comments allowed) and
overridden by the flag of the same name; unknown keys are rejected.

Exit codes: 0 ok, 2 usage or input error, 3 collapse abort, 4 divergence.
Logging level comes from CE_NMT_LOG (quiet, info, debug) and goes to stderr.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import evaluation as E
from . import training as TR
from .data import ParallelCorpus, Vocabulary, build_vocab, load_parallel_corpus, \
    load_pretrained_embeddings, read_utf8_lines
from .errors import CENMTError, CollapseError, ConfigError, CorpusFormatError, DivergenceError
from .model import BOUNDS, ModelConfig, check_bounds, describe_bounds

log = logging.getLogger("ce_nmt")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COLLAPSE = 3
EXIT_DIVERGENCE = 4

# the encoder's and the decoder's vocabulary, written next to each checkpoint
VOCAB_FILES = ("vocab.src.txt", "vocab.tgt.txt")


def _opt(default, help: str, key: str | None = None, choices: tuple[str, ...] | None = None):
    """A run-config field: its default, its ``--help`` text, its config-file
    key (the attribute name unless given) and its allowed values."""
    return field(default=default, metadata={"help": help, "key": key, "choices": choices})


@dataclass
class RunConfig:
    """The one table of run options: ``--<key>`` flags and config-file keys
    are both generated from these fields."""

    source: str | None = _opt(None, "source-side corpus file")
    target: str | None = _opt(None, "target-side corpus file")
    embeddings: str | None = _opt(None, "pre-trained embedding file for the encoder")
    checkpoint: str | None = _opt(None, "input checkpoint path")
    baseline_checkpoint: str | None = _opt(None, "pre-enhancement checkpoint for classify mode")
    mode: str | None = _opt(None, "eval mode",
                            choices=("bleu", "classify", "centroid", "diagnostics"))
    out: str = _opt("run", "output directory")
    seed: int = _opt(0, "global random seed")
    depth: int = _opt(2, "encoder/decoder layers")
    dim: int = _opt(64, "model width")
    heads: int = _opt(4, "attention heads")
    ff_dim: int = _opt(0, "feed-forward width (0 = 4*dim)")
    emb_dim: int = _opt(64, "token embedding width")
    proj_dim: int = _opt(32, "projection output width")
    pooling: str = _opt("mean", "sentence pooling kind")
    dropout: float = _opt(0.0, "dropout rate")
    max_len: int = _opt(32, "max encoded sentence length")
    min_freq: int = _opt(1, "vocabulary frequency cutoff")
    max_vocab: int = _opt(50_000, "vocabulary size cap")
    batch_size: int = _opt(64, "training batch size")
    steps: int = _opt(1000, "translation training steps")
    finetune_steps: int = _opt(-1, "fine-tuning steps (-1 = same as steps)")
    lr: float = _opt(1e-3, "peak learning rate")
    warmup: int = _opt(400, "linear warmup steps")
    # "lambda" is a Python keyword
    lam: float = _opt(5e-3, "redundancy term weight", key="lambda")
    epochs: int = _opt(50, "context-enhancement epochs")
    skip_pretrain: bool = _opt(False, "start enhancement from a fresh encoder")
    reuse_decoder: bool = _opt(False, "fine-tune with the carried decoder instead of a fresh one")
    # numpy's own name of the dtype, passed on as it is
    precision: str = _opt("float64", "numeric precision (float64 is the reproducibility mode)",
                          choices=("float32", "float64"))


# config-file key -> field, in declaration order
_FIELDS = {f.metadata["key"] or f.name: f for f in dataclasses.fields(RunConfig)}

_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}

def _convert(f: dataclasses.Field, text: str):
    """Parse a flag or config-file value for field ``f``: the type of its
    default (str when that is None), booleans by word, its choices and its
    rule in ``model.BOUNDS``. Raises ValueError on bad input."""
    kind = str if f.default is None else type(f.default)
    if kind is bool:
        if text.lower() not in _TRUE | _FALSE:
            raise ValueError(f"expected a boolean, got {text!r}")
        return text.lower() in _TRUE
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"invalid {kind.__name__} value: {text!r}") from None
    choices = f.metadata["choices"]
    if choices and value not in choices:
        raise ValueError(f"invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})")
    if f.name in BOUNDS:
        try:
            check_bounds(f.name, value)
        except ConfigError as exc:
            # argparse and the config-file error name the option already
            raise ValueError(str(exc).removeprefix(f"{f.name} ")) from None
    return value


def parse_config_file(path) -> dict[str, object]:
    """Flat ``key = value`` lines with # comments; unknown keys rejected."""
    try:
        lines = read_utf8_lines(path)
    except CorpusFormatError as exc:
        raise ConfigError(f"{path}:{exc.line}: not valid UTF-8") from exc
    values: dict[str, object] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[_FIELDS[key].name] = _convert(_FIELDS[key], value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _flag_type(f: dataclasses.Field):
    def convert(text: str):
        try:
            return _convert(f, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="key = value config file")
    for key, f in _FIELDS.items():
        flag, help_text = f"--{key.replace('_', '-')}", f.metadata["help"]
        if isinstance(f.default, bool):
            common.add_argument(flag, dest=f.name, default=None, action="store_const",
                                const=True, help=help_text)
            continue
        if f.default is not None:
            bounds = f", {describe_bounds(f.name)}" if f.name in BOUNDS else ""
            help_text += f" (default {f.default}{bounds})"
        common.add_argument(flag, dest=f.name, default=None, type=_flag_type(f),
                            choices=f.metadata["choices"], help=help_text)

    parser = argparse.ArgumentParser(
        prog="ce-nmt",
        description="Context-enhanced NMT: prepare data, train, enhance, fine-tune, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values: dict[str, object] = {}
    if args.config is not None:
        values.update(parse_config_file(args.config))
    for f in _FIELDS.values():
        cli_value = getattr(args, f.name, None)
        if cli_value is not None:
            values[f.name] = cli_value
    return RunConfig(**values)


def _require(cfg: RunConfig, *attrs: str) -> None:
    missing = [a for a in attrs if getattr(cfg, a) in (None, "")]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join('--' + m.replace('_', '-') for m in missing)}")


def _load_corpus(cfg: RunConfig) -> ParallelCorpus:
    _require(cfg, "source", "target")
    for path in (cfg.source, cfg.target):
        if not Path(path).exists():
            raise ConfigError(f"corpus file not found: {path}")
    return load_parallel_corpus(cfg.source, cfg.target)


def _build_vocabs(cfg: RunConfig, corpus: ParallelCorpus) -> tuple[Vocabulary, Vocabulary]:
    """Encoder vocabulary covers both sides: the shared encoder must embed
    either language during enhancement. Decoder vocabulary is target-only."""
    joint = [p.source for p in corpus] + [p.target for p in corpus]
    vocab_src = build_vocab(joint, min_freq=cfg.min_freq, max_size=cfg.max_vocab)
    vocab_tgt = build_vocab([p.target for p in corpus], min_freq=cfg.min_freq,
                            max_size=cfg.max_vocab)
    return vocab_src, vocab_tgt


def _from_run(cls, cfg: RunConfig, **given):
    """``cls(**given)``, its other fields taken from ``cfg``'s fields of the same name."""
    return cls(**given, **{f.name: getattr(cfg, f.name) for f in dataclasses.fields(cls)
                           if f.name not in given})


def _embed_table(cfg: RunConfig, vocab_src: Vocabulary) -> np.ndarray | None:
    if not cfg.embeddings:
        return None
    table, report = load_pretrained_embeddings(cfg.embeddings, vocab_src, cfg.emb_dim,
                                               seed=cfg.seed)
    log.info("loaded embeddings: %d hits, %d misses (coverage %.1f%%)",
             report.hits, report.misses, 100 * report.coverage)
    return table


def _load_checkpoint_arg(cfg: RunConfig, attr: str = "checkpoint") -> TR.Checkpoint:
    _require(cfg, attr)
    path = Path(getattr(cfg, attr))
    if not path.exists():
        raise ConfigError(f"checkpoint not found: {path}")
    return TR.load_checkpoint(path, dtype=cfg.precision)


def _check_vocab_size(vocab_path, vocab: Vocabulary, size: int, ckpt_path) -> None:
    """Token ids index the checkpoint's embedding rows, so the sizes must agree."""
    if len(vocab) != size:
        raise ConfigError(f"{vocab_path} holds {len(vocab)} tokens, but the checkpoint "
                          f"{ckpt_path} was built for {size}")


def _open_run(cfg: RunConfig, from_checkpoint: bool):
    """(corpus, checkpoint or None, vocab_src, vocab_tgt): the corpus, then
    ``--checkpoint`` and the vocabularies next to it or new ones."""
    corpus = _load_corpus(cfg)
    ckpt = None
    if from_checkpoint:
        ckpt = _load_checkpoint_arg(cfg)
        folder = Path(cfg.checkpoint).parent
        src, tgt = (folder / name for name in VOCAB_FILES)
        if not src.exists() or not tgt.exists():
            raise ConfigError(f"vocabulary files not found next to checkpoint in {folder}")
        vocab_src, vocab_tgt = Vocabulary.load(src), Vocabulary.load(tgt)
        _check_vocab_size(src, vocab_src, ckpt.config.src_vocab, cfg.checkpoint)
        _check_vocab_size(tgt, vocab_tgt, ckpt.config.tgt_vocab, cfg.checkpoint)
    else:
        vocab_src, vocab_tgt = _build_vocabs(cfg, corpus)
    return corpus, ckpt, vocab_src, vocab_tgt


def _save_vocabs(cfg: RunConfig, vocab_src: Vocabulary, vocab_tgt: Vocabulary) -> Path:
    """Create ``--out`` and write both vocabularies into it."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    for vocab, name in zip((vocab_src, vocab_tgt), VOCAB_FILES):
        vocab.save(out / name)
    return out


# -- commands -----------------------------------------------------------------------


def cmd_prepare(cfg: RunConfig) -> int:
    corpus, _, vocab_src, vocab_tgt = _open_run(cfg, from_checkpoint=False)
    out = _save_vocabs(cfg, vocab_src, vocab_tgt)
    stats = {"pair_count": len(corpus), "encoder_vocab": len(vocab_src),
             "decoder_vocab": len(vocab_tgt)}
    for side in ("source", "target"):
        counts = collections.Counter(len(getattr(pair, side)) for pair in corpus)
        stats[f"{side}_length_histogram"] = {str(k): counts[k] for k in sorted(counts)}
    (out / "corpus_stats.json").write_text(json.dumps(stats, indent=2) + "\n")
    print(json.dumps(stats))
    return EXIT_OK


def cmd_stages(cfg: RunConfig, stages: tuple[str, ...]) -> int:
    """Run ``stages`` through ``training.run_pipeline``. A run that begins with
    fine-tuning starts from ``--checkpoint``, and so does one that begins with
    CE when it is given; ``--skip-pretrain`` acts only on the whole chain.
    Every option is checked before ``--out`` is written."""
    if stages[0] == "pretrain" and cfg.checkpoint:
        raise ConfigError("--checkpoint is not read by a run that begins with pretraining "
                          "(train, pipeline): it trains a fresh model")
    from_checkpoint = stages[0] == "finetune" or (stages[0] == "ce" and bool(cfg.checkpoint))
    corpus, start, vocab_src, vocab_tgt = _open_run(cfg, from_checkpoint)
    model_cfg = start.config if start is not None else \
        _from_run(ModelConfig, cfg, src_vocab=len(vocab_src), tgt_vocab=len(vocab_tgt))
    ce_cfg = _from_run(TR.CEConfig, cfg) if "ce" in stages else None
    embed_table = _embed_table(cfg, vocab_src) if start is None else None
    out = _save_vocabs(cfg, vocab_src, vocab_tgt)
    result = TR.run_pipeline(
        model_cfg, ce_cfg, corpus, vocab_src, vocab_tgt, cfg.seed, out,
        stages=stages, start=start, steps=cfg.steps, finetune_steps=cfg.finetune_steps,
        batch_size=cfg.batch_size, lr=cfg.lr, warmup=cfg.warmup,
        skip_pretrain=cfg.skip_pretrain and stages == TR.STAGES,
        reuse_decoder=cfg.reuse_decoder, embed_table=embed_table, dtype=cfg.precision,
    )
    for stage, path in result.paths.items():
        print(f"{stage}: {path}")
    return EXIT_OK


def cmd_eval(cfg: RunConfig) -> int:
    """Run ``--mode``. Diagnostics writes CSV files; every other mode writes
    its record as ``<mode>.json`` into ``--out`` and prints it, bleu as
    ``BLEU <score>``."""
    _require(cfg, "mode")
    corpus, ckpt, vocab_src, vocab_tgt = _open_run(cfg, from_checkpoint=True)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)

    if cfg.mode == "diagnostics":
        files = E.export_diagnostics(ckpt, corpus, vocab_src, out, vocab_tgt=vocab_tgt,
                                     batch_size=min(cfg.batch_size, 8))
        print(f"wrote {len(files)} diagnostic files to {out}")
        return EXIT_OK

    if cfg.mode == "bleu":
        hyps = E.translate_corpus(ckpt, corpus, vocab_src, vocab_tgt,
                                  batch_size=cfg.batch_size)
        payload = {"bleu": E.bleu(hyps, [list(p.target) for p in corpus])}
    elif cfg.mode == "classify":
        baseline_ckpt = _load_checkpoint_arg(cfg, "baseline_checkpoint")
        _check_vocab_size(Path(cfg.checkpoint).parent / VOCAB_FILES[0], vocab_src,
                          baseline_ckpt.config.src_vocab, cfg.baseline_checkpoint)
        baseline, labels = E.corpus_probe_embeddings(baseline_ckpt, corpus, vocab_src,
                                                     batch_size=cfg.batch_size)
        enhanced, _ = E.corpus_probe_embeddings(ckpt, corpus, vocab_src,
                                                batch_size=cfg.batch_size)
        payload = E.run_protocol(baseline, enhanced, labels, seed=cfg.seed).summary()
    else:
        sent_emb, sent_labels = E.corpus_probe_embeddings(ckpt, corpus, vocab_src,
                                                          batch_size=cfg.batch_size)
        payload = {"sentence": E.run_centroid_protocol(sent_emb, sent_labels,
                                                       seed=cfg.seed).summary()}
        try:
            word_emb, word_labels = E.word_probe_embeddings(ckpt, corpus, vocab_src)
            payload["word"] = E.run_centroid_protocol(word_emb, word_labels,
                                                      seed=cfg.seed).summary()
        except CENMTError as exc:
            payload["word"] = {"error": str(exc)}
    record = json.dumps(payload)
    (out / f"{cfg.mode}.json").write_text(record + "\n")
    print(f"BLEU {payload['bleu']:.2f}" if cfg.mode == "bleu" else record)
    return EXIT_OK


# The one table of subcommands, in ``--help`` order: name -> (help line,
# what runs it). A stage command runs consecutive stages of ``training.STAGES``.
COMMANDS = {
    "prepare": ("build vocabularies and corpus stats", cmd_prepare),
    "train": ("stage 1: translation pre-training", partial(cmd_stages, stages=TR.STAGES[:1])),
    "ce": ("stage 2: context enhancement", partial(cmd_stages, stages=TR.STAGES[1:2])),
    "finetune": ("stage 3: translation fine-tuning", partial(cmd_stages, stages=TR.STAGES[2:])),
    "pipeline": ("all three stages", partial(cmd_stages, stages=TR.STAGES)),
    "eval": ("bleu / classify / centroid / diagnostics", cmd_eval),
}


def _configure_logging() -> None:
    level_name = os.environ.get("CE_NMT_LOG", "info").lower()
    levels = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        print(f"warning: unknown CE_NMT_LOG value {level_name!r}; using info", file=sys.stderr)
        level_name = "info"
    logging.basicConfig(level=levels[level_name], stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = resolve_config(args)
        return COMMANDS[args.command][1](cfg)
    except CollapseError as exc:
        log.error("collapse: %s", exc)
        return EXIT_COLLAPSE
    except DivergenceError as exc:
        log.error("divergence: %s", exc)
        return EXIT_DIVERGENCE
    except (CENMTError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
