import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ce_nmt import cli
from ce_nmt import model as M
from ce_nmt import training as TR
from ce_nmt.data import build_vocab, load_parallel_corpus
from ce_nmt.errors import ConfigError
from ce_nmt.model import ModelConfig
from ce_nmt.synthetic import make_cipher_corpus, write_parallel_files


@pytest.fixture
def toy_files(tmp_path):
    # vocab_size >= 12 so the word-level probe sees >= 10 tokens per language
    corpus = make_cipher_corpus(30, vocab_size=12, min_len=2, max_len=4, seed=0)
    src, tgt = tmp_path / "train.src", tmp_path / "train.tgt"
    write_parallel_files(corpus, src, tgt)
    return tmp_path, str(src), str(tgt)


# dim >= 16: narrower untrained encoders pool to embeddings whose effective
# rank sits near the collapse monitor's threshold of 2.
SMALL_MODEL = ["--depth", "1", "--dim", "16", "--heads", "2", "--ff-dim", "32",
               "--emb-dim", "16", "--proj-dim", "4", "--max-len", "8",
               "--batch-size", "8", "--warmup", "2"]


# -- prepare -----------------------------------------------------------------

def test_prepare_writes_stats_and_vocabs(toy_files, capsys):
    tmp, src, tgt = toy_files
    code = cli.main(["prepare", "--source", src, "--target", tgt, "--out", str(tmp / "out")])
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["pair_count"] == 30
    assert (tmp / "out" / "vocab.src.txt").exists()
    assert (tmp / "out" / "vocab.tgt.txt").exists()
    saved = json.loads((tmp / "out" / "corpus_stats.json").read_text())
    assert saved["pair_count"] == 30


def test_prepare_three_line_files(tmp_path, capsys):
    (tmp_path / "a.src").write_text("a b\nc d\ne f\n")
    (tmp_path / "b.tgt").write_text("x y\nz w\nu v\n")
    code = cli.main(["prepare", "--source", str(tmp_path / "a.src"),
                     "--target", str(tmp_path / "b.tgt"), "--out", str(tmp_path / "o")])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["pair_count"] == 3


def test_prepare_line_count_mismatch_exits_2(tmp_path):
    (tmp_path / "a.src").write_text("x\ny\nz\n")
    (tmp_path / "b.tgt").write_text("u\nv\nw\nq\n")
    code = cli.main(["prepare", "--source", str(tmp_path / "a.src"),
                     "--target", str(tmp_path / "b.tgt"), "--out", str(tmp_path / "o")])
    assert code == 2


def test_prepare_empty_corpus_exits_2(tmp_path, capsys):
    (tmp_path / "a.src").write_text("")
    (tmp_path / "b.tgt").write_text("")
    code = cli.main(["prepare", "--source", str(tmp_path / "a.src"),
                     "--target", str(tmp_path / "b.tgt"), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "empty corpus" in capsys.readouterr().err


def test_prepare_missing_file_exits_2(tmp_path):
    code = cli.main(["prepare", "--source", str(tmp_path / "none.src"),
                     "--target", str(tmp_path / "none.tgt"), "--out", str(tmp_path / "o")])
    assert code == 2


# -- train / ce / finetune ----------------------------------------------------------

def test_cmd_ce_writes_one_metrics_line_per_epoch(toy_files):
    tmp, src, tgt = toy_files
    out = tmp / "ce_out"
    code = cli.main(["ce", "--source", src, "--target", tgt, "--out", str(out),
                     "--lambda", "0.005", "--epochs", "5", "--seed", "1",
                     *SMALL_MODEL])
    assert code == 0
    lines = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
    assert len(lines) == 5
    assert all(l["stage"] == "ce" for l in lines)
    assert all(l["lambda"] == 0.005 for l in lines)


def test_cmd_ce_fresh_start_matches_library(toy_files):
    # Without --checkpoint, `ce` starts as run_pipeline(skip_pretrain=True)
    # does: from fresh_ce_start drawn with `seed`. CE itself is the run's
    # stage 0 and trains with `seed`; the pipeline's CE is stage 1 and
    # trains with `seed + 1`.
    tmp, src, tgt = toy_files
    out = tmp / "ce_fresh"
    assert cli.main(["ce", "--source", src, "--target", tgt, "--out", str(out),
                     "--epochs", "2", "--seed", "7", *SMALL_MODEL]) == 0
    corpus = load_parallel_corpus(src, tgt)
    vs = build_vocab([p.source for p in corpus] + [p.target for p in corpus])
    vt = build_vocab([p.target for p in corpus])
    cfg = ModelConfig(src_vocab=len(vs), tgt_vocab=len(vt), depth=1, dim=16, heads=2,
                      ff_dim=32, proj_dim=4, pooling="mean", emb_dim=16, max_len=8)
    ce_cfg = TR.CEConfig(lam=5e-3, epochs=2, batch_size=8, pooling="mean", proj_dim=4)
    ckpt = TR.context_enhance(TR.fresh_ce_start(cfg, 7), corpus, vs, ce_cfg, 7,
                              lr=1e-3, warmup=1)
    assert (out / "ce-2.ckpt").read_bytes() == TR.checkpoint_bytes(ckpt)


def test_cmd_finetune_missing_checkpoint_exits_2(toy_files):
    tmp, src, tgt = toy_files
    code = cli.main(["finetune", "--source", src, "--target", tgt,
                     "--checkpoint", str(tmp / "nope.ckpt"), "--out", str(tmp / "o")])
    assert code == 2


@pytest.mark.parametrize("command", ["train", "pipeline"])
def test_checkpoint_given_to_a_fresh_start_exits_2(toy_files, capsys, command):
    tmp, src, tgt = toy_files
    code = cli.main([command, "--source", src, "--target", tgt, *SMALL_MODEL,
                     "--steps", "1", "--epochs", "1", "--checkpoint", str(tmp / "nope.ckpt"),
                     "--out", str(tmp / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --checkpoint is not read by")
    assert not (tmp / "o").exists()


def test_cmd_ce_divergence_exits_4_with_checkpoint(toy_files):
    tmp, src, tgt = toy_files
    out = tmp / "ce_div"
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["ce", "--source", src, "--target", tgt, "--out", str(out),
                         "--epochs", "2", "--seed", "1", *SMALL_MODEL, "--lr", "1e200"])
    assert code == 4
    assert TR.load_checkpoint(next(out.glob("diverged-*.ckpt"))).stage == "ce"


def test_train_then_ce_then_finetune_chain(toy_files):
    tmp, src, tgt = toy_files
    out = tmp / "chain"
    assert cli.main(["train", "--source", src, "--target", tgt, "--out", str(out),
                     "--steps", "3", "--seed", "3", *SMALL_MODEL]) == 0
    pre = next(out.glob("pretrain-*.ckpt"))
    assert cli.main(["ce", "--source", src, "--target", tgt, "--out", str(out),
                     "--checkpoint", str(pre), "--epochs", "2", "--seed", "3",
                     *SMALL_MODEL]) == 0
    ce = next(out.glob("ce-*.ckpt"))
    assert cli.main(["finetune", "--source", src, "--target", tgt, "--out", str(out),
                     "--checkpoint", str(ce), "--finetune-steps", "2", "--seed", "3",
                     *SMALL_MODEL]) == 0
    assert next(out.glob("finetune-*.ckpt"))
    # Each stage appends to the one metrics log; none truncates it.
    records = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    assert [(r["stage"], r["step_or_epoch"]) for r in records] == \
        [("pretrain", 1), ("pretrain", 2), ("pretrain", 3), ("ce", 0), ("ce", 1),
         ("finetune", 1), ("finetune", 2)]


def test_float32_chain_with_stage_seeds_gives_pipeline_checkpoints(toy_files):
    # One stage runner: `train`, `ce` and `finetune` given the seeds the
    # pipeline gives its stages write the pipeline's checkpoint bytes. At
    # float32 nothing is lost between stages; float64 runs are stored as
    # float32, so there the chain still differs (ROADMAP item 6).
    tmp, src, tgt = toy_files
    common = ["--source", src, "--target", tgt, "--precision", "float32", *SMALL_MODEL]
    run = [("train", "pretrain-6.ckpt", ["--steps", "6"]),
           ("ce", "ce-2.ckpt", ["--epochs", "2"]),
           ("finetune", "finetune-4.ckpt", ["--finetune-steps", "4"])]
    assert cli.main(["pipeline", "--out", str(tmp / "pipe"), "--steps", "6", "--epochs", "2",
                     "--finetune-steps", "4", "--seed", "3", *common]) == 0
    start = []
    for seed, (command, name, args) in enumerate(run, start=3):
        out = tmp / command
        assert cli.main([command, "--out", str(out), "--seed", str(seed), *start, *args,
                         *common]) == 0
        assert (out / name).read_bytes() == (tmp / "pipe" / name).read_bytes(), command
        start = ["--checkpoint", str(out / name)]


# -- pipeline ---------------------------------------------------------------------------

def test_pipeline_skip_pretrain_emits_two_checkpoints(toy_files):
    tmp, src, tgt = toy_files
    out = tmp / "pipe"
    code = cli.main(["pipeline", "--source", src, "--target", tgt, "--out", str(out),
                     "--skip-pretrain", "--steps", "3", "--epochs", "2", "--seed", "4",
                     *SMALL_MODEL])
    assert code == 0
    assert len(list(out.glob("*.ckpt"))) == 2


def _write_embeddings(tmp) -> Path:
    # cover every toy token ("s00".."s11" / "t00".."t11") with a 16-dim file
    rows = [f"s{i:02d}" for i in range(12)] + [f"t{i:02d}" for i in range(12)]
    lines = [f"{len(rows)} 16"]
    for r, tok in enumerate(rows):
        vec = " ".join(str((r * 16 + j) % 7 - 3) for j in range(16))
        lines.append(f"{tok} {vec}")
    emb = tmp / "emb.txt"
    emb.write_text("\n".join(lines) + "\n")
    return emb


def test_pipeline_skip_pretrain_with_embedding_file(toy_files):
    tmp, src, tgt = toy_files
    emb = _write_embeddings(tmp)
    out = tmp / "pipe_emb"
    code = cli.main(["pipeline", "--source", src, "--target", tgt, "--out", str(out),
                     "--skip-pretrain", "--embeddings", str(emb), "--steps", "3",
                     "--epochs", "2", "--seed", "4", *SMALL_MODEL])
    assert code == 0
    assert len(list(out.glob("*.ckpt"))) == 2


def test_embedding_file_with_a_repeated_token_exits_2(toy_files, capsys):
    tmp, src, tgt = toy_files
    emb = tmp / "emb.txt"
    emb.write_text("2 16\n" + "".join(f"s00 {' '.join([str(r)] * 16)}\n" for r in (1, 2)))
    code = cli.main(["pipeline", "--source", src, "--target", tgt, "--out", str(tmp / "dup"),
                     "--skip-pretrain", "--embeddings", str(emb), "--steps", "3",
                     "--epochs", "2", *SMALL_MODEL])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 3: token 's00' repeats the row of line 2" in err and "Traceback" not in err
    assert not list((tmp / "dup").glob("*.ckpt"))


def test_pipeline_metrics_rerun_byte_identical(toy_files):
    tmp, src, tgt = toy_files
    blobs = []
    for run in range(2):
        out = tmp / f"rep{run}"
        code = cli.main(["pipeline", "--source", src, "--target", tgt, "--out", str(out),
                         "--steps", "3", "--finetune-steps", "2", "--epochs", "2",
                         "--seed", "5", *SMALL_MODEL])
        assert code == 0
        blobs.append((out / "metrics.jsonl").read_bytes())
    assert blobs[0] == blobs[1]


# sha256 of fixed-seed pipeline outputs, taken before the tape ops were fused
# (linear, multi-head attention, one-pass layer norm). Any change to the
# rounding of a forward or backward op in any stage changes them. They were
# taken with OpenBLAS (64-bit, Haswell kernels); another BLAS build may round
# matrix products differently. The float32 ce and finetune entries were
# retaken once the float32 context-enhancement stage ran in float32 from the
# mean pool to the loss (it had been promoted to float64 there).
PINNED_PIPELINE_SHA256 = {
    "float64": {
        "metrics.jsonl": "a090a7fbf43fc8e4dfbc9021f9b59e9be2a3650f93d406032c1a2a8fdb63ae47",
        "pretrain-40.ckpt": "bb927a8af438a353750d434e3ca293dc648e19c7c605bc953331d27e16934323",
        "ce-3.ckpt": "df809dc8337b05d3cba5fb47664f10199268ee8a8320142a07e49cc0c9946b3b",
        "finetune-30.ckpt": "f43506fd22c9bfad3eb1b3e6e205ce00e610c41d20f1eb4f2029ba1a58c3f26a",
    },
    "float32": {
        "pretrain-40.ckpt": "b8bc1c64ee345a78659658b42652b70660a44736d0c983847ecff19161e59592",
        "ce-3.ckpt": "c5c8fa1e4f5a5b36c8e5a6399eff28585d11f5989692cd2ccec046b13c72276b",
        "finetune-30.ckpt": "ed5e3b4f3dc01f3504c478f74d049915823207e275b3226d6bfe07397c430231",
    },
}


@pytest.mark.parametrize("precision", sorted(PINNED_PIPELINE_SHA256))
def test_pipeline_outputs_match_pinned_sha256(tmp_path, precision):
    # The corpus of `python -m ce_nmt.synthetic DIR --pairs 300 --seed 7`.
    corpus = make_cipher_corpus(300, vocab_size=50, seed=7)
    src, tgt = tmp_path / "train.src", tmp_path / "train.tgt"
    write_parallel_files(corpus, src, tgt)
    out = tmp_path / "run"
    code = cli.main(["pipeline", "--source", str(src), "--target", str(tgt), "--out", str(out),
                     "--depth", "1", "--dim", "32", "--heads", "2", "--ff-dim", "64",
                     "--emb-dim", "32", "--proj-dim", "8", "--max-len", "10",
                     "--batch-size", "32", "--warmup", "10", "--steps", "40",
                     "--finetune-steps", "30", "--epochs", "3", "--seed", "7",
                     "--precision", precision])
    assert code == 0
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in PINNED_PIPELINE_SHA256[precision]}
    assert got == PINNED_PIPELINE_SHA256[precision]


# The stage commands, each with its own --out under one run directory:
# (case, arguments besides the corpus, --out, --seed, --precision and the
# model). {run} is the run directory and {emb} the embedding file.
STAGE_RUNS = [
    ("train", ["train", "--steps", "6"]),
    ("train_emb", ["train", "--steps", "6", "--embeddings", "{emb}"]),
    ("train_skip", ["train", "--steps", "6", "--skip-pretrain"]),   # ignored: still trains
    ("ce_fresh", ["ce", "--epochs", "2"]),
    ("ce_from_train", ["ce", "--epochs", "2", "--checkpoint", "{run}/train/pretrain-6.ckpt"]),
    ("finetune", ["finetune", "--steps", "4", "--checkpoint", "{run}/ce_from_train/ce-2.ckpt"]),
    ("finetune_reuse", ["finetune", "--finetune-steps", "3", "--reuse-decoder",
                        "--checkpoint", "{run}/ce_from_train/ce-2.ckpt"]),
    ("pipeline_skip", ["pipeline", "--skip-pretrain", "--steps", "4", "--finetune-steps", "3",
                       "--epochs", "2"]),
    ("pipeline_skip_emb", ["pipeline", "--skip-pretrain", "--embeddings", "{emb}",
                           "--steps", "4", "--finetune-steps", "3", "--epochs", "2"]),
]

# Every case directory holds these two vocabularies and the files pinned below.
STAGE_VOCAB_SHA256 = {
    "vocab.src.txt": "4e0dce7b8c3b0abb1a250734c17cdd8ef7362fd6762ecf7bed08dcb877f2a0c0",
    "vocab.tgt.txt": "3d6ae8fa7eeeb4fe228c8276c0deb41e788c4515eb6b25fd15ea3b3317eaac0d",
}

# sha256 of the files each stage command writes, taken before `train`, `ce`,
# `finetune` and `pipeline` became one command over `run_pipeline`, with the
# BLAS build of the pipeline pins above. The float32 metrics log carries wall
# times, so at float32 only the checkpoints are pinned.
PINNED_STAGE_SHA256 = {
    "float64": {
        "train": {
            "metrics.jsonl": "f42baf7f309a8ccf28f66897fff67f30e6578716a66633756d2925ac0aff8df8",
            "pretrain-6.ckpt": "7ed0a670088efd24b13229dc8cfa5c7d621de7f54430163ade32de1edc6986c8",
        },
        "train_emb": {
            "metrics.jsonl": "22e81e0c893b14885f74d5e7b122ec2d12f01861c4c196dba79374077ef2a86e",
            "pretrain-6.ckpt": "ba897d1be561f2f4eb653802afae7a5f048778288a68fa85a468a4591acecae8",
        },
        "train_skip": {
            "metrics.jsonl": "f42baf7f309a8ccf28f66897fff67f30e6578716a66633756d2925ac0aff8df8",
            "pretrain-6.ckpt": "7ed0a670088efd24b13229dc8cfa5c7d621de7f54430163ade32de1edc6986c8",
        },
        "ce_fresh": {
            "ce-2.ckpt": "7bfe322e2075286fab55dde70adaa67e29cbfea4b017bc2a9e238ac2411c0ad8",
            "metrics.jsonl": "11eed63556cbc9836c940cf3a32fee3902368f4dbe15c2e89c45420eb16eb690",
        },
        "ce_from_train": {
            "ce-2.ckpt": "3b9a962f9f73676e8147dc7b2a820af7b76dec42dcabda5f10d17d53b71b3c56",
            "metrics.jsonl": "b836a5a3ba32657a6b67b863eef6623a77256979530b9e91824b72361f7654a2",
        },
        "finetune": {
            "finetune-4.ckpt": "32f6a8c7cb0ffa4c46dd10514653e2385f9e1398c184eb7864528f914c1d7bf6",
            "metrics.jsonl": "642b5a2e7456967be4b48d4dd8b463a5b78f0f51aa1049e3130c42a13ca5114e",
        },
        "finetune_reuse": {
            "finetune-3.ckpt": "16c152673eb1c4b8819e2b687f48a9436e5bd51574a3f279d160843c1b74b227",
            "metrics.jsonl": "febbda8d9378cd9c0f88790f1d05811c5d7b196494182494f566cbb28ead265a",
        },
        "pipeline_skip": {
            "ce-2.ckpt": "3beb5dc23337b16b6df28fd85d01fba9a9f8438518f6e2245c94c2a5847d5da4",
            "finetune-3.ckpt": "349c7719897c20b182e8c3532e5178165d4f7e1eb83d3c4737a1964920dd47a5",
            "metrics.jsonl": "0cec49abb90e7612769d80744256d394f8aff0bf97e68ac6a1fc106651a26958",
        },
        "pipeline_skip_emb": {
            "ce-2.ckpt": "ab5379c919ffc7c3a3c146914b5d3469ae1b4e96a234fc53ed15fb8b22496d84",
            "finetune-3.ckpt": "8570c44ea4670f0bc4a32d7759cba0e5581864c2b744f22a28e57f56d93cce76",
            "metrics.jsonl": "37e45f227e9b3fcce6fe479dbf04f9a96e3d79a0e296ba7abf87749107372f7d",
        },
    },
    "float32": {
        "train": {
            "pretrain-6.ckpt": "936c8ef59999b15b9f22a77457a957f2706b997491d0a242cdc7496e6a9aa929",
        },
        "train_emb": {
            "pretrain-6.ckpt": "6ad181c43df47d76e9f187a63295671796ca161ff72ca07d77b8033f0dcb4eb7",
        },
        "train_skip": {
            "pretrain-6.ckpt": "936c8ef59999b15b9f22a77457a957f2706b997491d0a242cdc7496e6a9aa929",
        },
        "ce_fresh": {
            "ce-2.ckpt": "81d351a75d108bf37f1b7223f33f2027d7ae13ceeb846363fc7f398ac6ee1942",
        },
        "ce_from_train": {
            "ce-2.ckpt": "906eafac9fea47d3d7d7ec3b8c728b645753a6ee3b0e8a0acaecbf15299e2b9c",
        },
        "finetune": {
            "finetune-4.ckpt": "ff41da36c8770aefde54afc94678daedb3ed3e0db2c66649814c654dd2a1f335",
        },
        "finetune_reuse": {
            "finetune-3.ckpt": "dfdf01265c882e11015ef342b9dc9c482c4103b4313780c362e967fdfb36dd31",
        },
        "pipeline_skip": {
            "ce-2.ckpt": "86fa5ab5db538700f3db51b905c7956d40002c0003701a9815ce3ade00ebc06d",
            "finetune-3.ckpt": "230e22df57f5950c883f79b8ec58dc4591e2dc5c3b8363dd2597524ae5c83ce5",
        },
        "pipeline_skip_emb": {
            "ce-2.ckpt": "5fd6312ba23b0d965361c8cc3ba2d7ef4432b749039fbc2560e5b509e8ff7247",
            "finetune-3.ckpt": "4de4c03a700e3d9f55a7ec2e7dd119b2dc705578a9139f0af59cbcb97fe185d0",
        },
    },
}


@pytest.mark.parametrize("precision", sorted(PINNED_STAGE_SHA256))
def test_stage_command_outputs_match_pinned_sha256(toy_files, precision):
    tmp, src, tgt = toy_files
    emb, run = _write_embeddings(tmp), tmp / precision
    got = {}
    for case, args in STAGE_RUNS:
        out = run / case
        args = [a.format(run=run, emb=emb) for a in args]
        assert cli.main([*args, "--source", src, "--target", tgt, "--out", str(out),
                         "--seed", "3", "--precision", precision, *SMALL_MODEL]) == 0
        got[case] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(out.iterdir())
                     if precision == "float64" or p.name != "metrics.jsonl"}
    assert got == {case: {**STAGE_VOCAB_SHA256, **pins}
                   for case, pins in PINNED_STAGE_SHA256[precision].items()}


# -- eval -------------------------------------------------------------------------------


@pytest.fixture
def pipeline_out(toy_files):
    tmp, src, tgt = toy_files
    out = tmp / "run"
    code = cli.main(["pipeline", "--source", src, "--target", tgt, "--out", str(out),
                     "--steps", "4", "--finetune-steps", "3", "--epochs", "2",
                     "--seed", "6", *SMALL_MODEL])
    assert code == 0
    return tmp, src, tgt, out


def test_eval_bleu_prints_score(pipeline_out, capsys):
    tmp, src, tgt, out = pipeline_out
    ckpt = next(out.glob("finetune-*.ckpt"))
    code = cli.main(["eval", "--mode", "bleu", "--checkpoint", str(ckpt),
                     "--source", src, "--target", tgt, "--out", str(out / "eval")])
    assert code == 0
    printed = capsys.readouterr().out
    assert re.search(r"^BLEU \d+(\.\d+)?$", printed.strip().splitlines()[-1])


def test_eval_classify_reports_triple(pipeline_out, capsys):
    tmp, src, tgt, out = pipeline_out
    base = next(out.glob("pretrain-*.ckpt"))
    ce = next(out.glob("ce-*.ckpt"))
    code = cli.main(["eval", "--mode", "classify", "--checkpoint", str(ce),
                     "--baseline-checkpoint", str(base), "--source", src, "--target", tgt,
                     "--out", str(out / "eval"), "--seed", "6"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"variant", "a1", "a2", "a3", "n_samples", "languages"}
    assert payload["variant"] == "ce"


def test_eval_centroid_reports_sentence_and_word(pipeline_out, capsys):
    tmp, src, tgt, out = pipeline_out
    ce = next(out.glob("ce-*.ckpt"))
    code = cli.main(["eval", "--mode", "centroid", "--checkpoint", str(ce),
                     "--source", src, "--target", tgt, "--out", str(out / "eval"),
                     "--seed", "6"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sentence"]["variant"] == "centroid"
    assert "a1" in payload["sentence"] and "a1" in payload["word"]


# sha256 of the records `eval` writes from the `pipeline_out` run, taken with
# the BLAS build of the pipeline pins above. The JSON field order is part of
# the bytes.
PINNED_EVAL_SHA256 = {
    "bleu.json": "3f0b8d28135eff417507fdacb073282ae734af220b09a634ad8a13fd9e35955e",
    "classify.json": "07eb336a6b9c631130e215b08740e6406b9ba06d7a7d2c5012245f4e6c5c09d4",
    "centroid.json": "356ad6e9c3cf4f53da985605d9009a404d3830c8afe6803495b96c02b2419ad8",
}


def test_eval_probe_records_match_pinned_sha256(pipeline_out):
    tmp, src, tgt, out = pipeline_out
    base = next(out.glob("pretrain-*.ckpt"))
    ce = next(out.glob("ce-*.ckpt"))
    finetune = next(out.glob("finetune-*.ckpt"))
    for mode, ckpt, extra in (("bleu", finetune, []),
                              ("classify", ce, ["--baseline-checkpoint", str(base)]),
                              ("centroid", ce, [])):
        assert cli.main(["eval", "--mode", mode, "--checkpoint", str(ckpt), *extra, "--source", src,
                         "--target", tgt, "--out", str(out / "eval"), "--seed", "6"]) == 0
    got = {name: hashlib.sha256((out / "eval" / name).read_bytes()).hexdigest()
           for name in PINNED_EVAL_SHA256}
    assert got == PINNED_EVAL_SHA256


def test_eval_diagnostics_creates_files(pipeline_out):
    tmp, src, tgt, out = pipeline_out
    ckpt = next(out.glob("finetune-*.ckpt"))
    eval_dir = out / "diag"
    code = cli.main(["eval", "--mode", "diagnostics", "--checkpoint", str(ckpt),
                     "--source", src, "--target", tgt, "--out", str(eval_dir)])
    assert code == 0
    names = {p.name for p in eval_dir.iterdir()}
    assert "sentence_embeddings.csv" in names
    assert any(n.startswith("attention_decoder_cross") for n in names)
    assert any(n.startswith("correlation_batch") for n in names)


@pytest.mark.parametrize("side, extra", [("src", 5), ("tgt", -1)])
def test_eval_vocab_size_must_match_checkpoint(pipeline_out, capsys, side, extra):
    # A longer vocabulary gives ids past the embedding rows, a shorter one
    # silently maps ids onto other rows: both are input errors.
    tmp, src, tgt, out = pipeline_out
    ckpt = next(out.glob("finetune-*.ckpt"))
    path = out / f"vocab.{side}.txt"
    tokens = path.read_text(encoding="utf-8").splitlines()
    size = len(tokens)
    tokens = tokens + [f"extra{i}" for i in range(extra)] if extra > 0 else tokens[:extra]
    path.write_text("\n".join(tokens) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = cli.main(["eval", "--mode", "bleu", "--checkpoint", str(ckpt),
                     "--source", src, "--target", tgt, "--out", str(out / "eval")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{path} holds {size + extra} tokens" in err and f"built for {size}" in err


def test_eval_classify_baseline_vocab_size_must_match(pipeline_out, capsys):
    tmp, src, tgt, out = pipeline_out
    ce = next(out.glob("ce-*.ckpt"))
    cfg = TR.load_checkpoint(ce).config
    wider = dataclasses.replace(cfg, src_vocab=cfg.src_vocab + 2)
    rng = np.random.default_rng(0)
    base = TR.save_checkpoint(TR.Checkpoint(wider, "pretrain", 0, 0,
                                            M.init_params(wider, "encoder", rng),
                                            decoder=M.init_params(wider, "decoder", rng)),
                              tmp / "other" / "pretrain-0.ckpt")
    capsys.readouterr()
    code = cli.main(["eval", "--mode", "classify", "--checkpoint", str(ce),
                     "--baseline-checkpoint", str(base), "--source", src, "--target", tgt,
                     "--out", str(out / "eval")])
    assert code == 2
    assert f"holds {cfg.src_vocab} tokens" in capsys.readouterr().err


def test_eval_stage_mismatch_exits_2(toy_files, capsys):
    tmp, src, tgt = toy_files
    out = tmp / "ce_only"
    assert cli.main(["ce", "--source", src, "--target", tgt, "--out", str(out),
                     "--epochs", "1", "--seed", "2", *SMALL_MODEL]) == 0
    capsys.readouterr()
    ce = next(out.glob("ce-*.ckpt"))
    code = cli.main(["eval", "--mode", "bleu", "--checkpoint", str(ce),
                     "--source", src, "--target", tgt, "--out", str(out / "e")])
    assert code == 2
    assert "requires a decoder" in capsys.readouterr().err


def _run_module(*args):
    src_dir = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, CE_NMT_LOG="quiet",
               PYTHONPATH=os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_input_error_printed_once_on_stderr(toy_files):
    # A separate process: in-process, pytest's log capture would hide a
    # second copy sent through the logging module.
    tmp, src, tgt = toy_files
    missing = tmp / "missing.ckpt"
    proc = _run_module("ce_nmt.cli", "eval", "--mode", "bleu", "--checkpoint", str(missing),
                       "--source", src, "--target", tgt, "--out", str(tmp / "e"))
    assert proc.returncode == 2
    assert proc.stderr.count("checkpoint not found") == 1
    assert proc.stderr.splitlines() == [f"error: checkpoint not found: {missing}"]


# -- config file handling ---------------------------------------------------------------

def test_config_file_values_and_flag_override(toy_files):
    tmp, src, tgt = toy_files
    conf = tmp / "run.conf"
    conf.write_text(
        "# toy run\n"
        f"source = {src}\n"
        f"target = {tgt}\n"
        "epochs = 3\n"
        "lambda = 0.1\n"
        "seed = 9\n"
        "depth = 1\ndim = 16\nheads = 2\nff_dim = 32\nemb_dim = 16\nproj_dim = 4\n"
        "max_len = 8\nbatch_size = 8\nwarmup = 2\n"
    )
    out = tmp / "conf_out"
    code = cli.main(["ce", "--config", str(conf), "--out", str(out), "--epochs", "2"])
    assert code == 0
    lines = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
    assert len(lines) == 2          # flag overrides the file's epochs = 3
    assert lines[0]["lambda"] == 0.1


def test_config_file_unknown_key_rejected(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("not_a_key = 1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        cli.parse_config_file(conf)


def test_config_file_bad_bool_rejected(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("skip_pretrain = maybe\n")
    with pytest.raises(ConfigError, match="boolean"):
        cli.parse_config_file(conf)


def test_config_file_bad_encoding_names_file_and_line(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_bytes(b"seed = 3\n# caf\xe9\n")
    with pytest.raises(ConfigError, match=r"bad\.conf:2: not valid UTF-8"):
        cli.parse_config_file(conf)


def test_config_file_bad_encoding_exits_2(toy_files, capsys):
    tmp, src, tgt = toy_files
    conf = tmp / "bad.conf"
    conf.write_bytes(b"\xff\n")
    code = cli.main(["prepare", "--source", src, "--target", tgt,
                     "--config", str(conf), "--out", str(tmp / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.conf:1: not valid UTF-8" in err and "Traceback" not in err
    assert not (tmp / "o").exists()


def test_config_file_value_outside_choices_exits_2(pipeline_out, capsys):
    # a config-file value gets the same choices check as the flag
    tmp, src, tgt, out = pipeline_out
    conf = tmp / "blue.conf"
    conf.write_text("mode = blue\n")
    ckpt = next(out.glob("finetune-*.ckpt"))
    code = cli.main(["eval", "--config", str(conf), "--checkpoint", str(ckpt),
                     "--source", src, "--target", tgt, "--out", str(tmp / "blue")])
    assert code == 2
    assert "invalid choice: 'blue'" in capsys.readouterr().err
    assert not (tmp / "blue").exists()


# (command, field, value): each value lies outside the field's range.
OUT_OF_RANGE = [("train", "seed", "-1"), ("train", "steps", "-3"),
                ("finetune", "finetune_steps", "-5"), ("train", "lr", "0"),
                ("train", "lr", "-1"), ("train", "batch_size", "0"),
                ("eval", "batch_size", "0"), ("train", "min_freq", "0"),
                ("train", "max_vocab", "4"), ("train", "warmup", "0"),
                ("pipeline", "heads", "0"), ("pipeline", "heads", "-4"),
                ("pipeline", "dim", "-8"), ("pipeline", "dim", str(2**32)),
                ("pipeline", "depth", "0"), ("pipeline", "depth", "25"),
                ("pipeline", "ff_dim", "-1"), ("pipeline", "emb_dim", "0"),
                ("pipeline", "proj_dim", "0"), ("pipeline", "max_len", "2"),
                ("pipeline", "max_len", "1000000000000"),
                ("pipeline", "dropout", "1.0"), ("pipeline", "epochs", "0"),
                ("pipeline", "lambda", "-1"), ("pipeline", "pooling", "sum")]


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command,name,value", OUT_OF_RANGE)
def test_out_of_range_number_exits_2(toy_files, capsys, command, name, value, via):
    # A flag and a config-file line get the same range check, made while
    # parsing: the checkpoint that finetune and eval name does not exist.
    tmp, src, tgt = toy_files
    flag = f"--{name.replace('_', '-')}"
    args = [command, "--source", src, "--target", tgt, "--out", str(tmp / "o"),
            "--checkpoint", str(tmp / "none.ckpt"), "--mode", "bleu",
            "--depth", "1", "--dim", "16", "--heads", "2", "--emb-dim", "16"]
    if via == "flag":
        args += [flag, value]
        expected = f"argument {flag}: must be"
    else:
        conf = tmp / "range.conf"
        conf.write_text(f"{name} = {value}\n")
        args += ["--config", str(conf)]
        expected = f"range.conf:1: bad value for {name}: must be"
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and expected in err and "Traceback" not in err
    assert not (tmp / "o").exists()


# The texts a config line can carry: no '#' (a comment), no line break, no
# whitespace at either end (it is stripped), and no surrogate (the file is UTF-8).
LINE_TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                                  blacklist_characters="#\n\r")).map(str.strip)
VALUE_TEXT = st.one_of(LINE_TEXT, st.integers().map(str), st.floats().map(str),
                       st.sampled_from(["mean", "max", "bleu", "float32", "1e-3", "0x10"]))
# boolean options are flags without a value
VALUE_KEYS = [key for key, f in cli._FIELDS.items() if not isinstance(f.default, bool)]
PARSER = cli.build_parser()
REJECTED = object()


@pytest.fixture(scope="module")
def conf_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("conf")


@given(key=st.sampled_from(VALUE_KEYS), text=VALUE_TEXT)
def test_flag_and_config_line_give_the_same_value(conf_dir, key, text):
    name = cli._FIELDS[key].name
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            by_flag = getattr(PARSER.parse_args(["train", f"--{key.replace('_', '-')}={text}"]),
                              name)
    except SystemExit:
        by_flag = REJECTED
    conf = conf_dir / "value.conf"
    conf.write_text(f"{key} = {text}\n", encoding="utf-8")
    try:
        by_line = cli.parse_config_file(conf)[name]
    except ConfigError:
        by_line = REJECTED
    assert (type(by_flag), by_flag) == (type(by_line), by_line)


@pytest.mark.parametrize("command, flag, value", [
    pytest.param("pipeline", "--warmup", "0", id="--warmup"),
    pytest.param("pipeline", "--epochs", "0", id="--epochs"),
    pytest.param("pipeline", "--depth", "0", id="--depth"),
    # the model's own check on heads, dim % heads, divides by 0 and lets -4 by
    pytest.param("pipeline", "--heads", "0", id="--heads-0"),
    pytest.param("pipeline", "--heads", "-4", id="--heads-4"),
    pytest.param("pipeline", "--dim", "-8", id="--dim"),
    # ``nan < 0`` is false and ``inf > 0`` true: a range check alone lets them by.
    pytest.param("pipeline", "--lambda", "nan", id="--lambda-nan"),
    pytest.param("pipeline", "--lambda", "inf", id="--lambda-inf"),
    pytest.param("pipeline", "--lr", "inf", id="--lr-inf"),
    pytest.param("train", "--lr", "inf", id="train--lr-inf"),
])
def test_rejected_option_writes_nothing_into_out(toy_files, capsys, command, flag, value):
    # Every option is checked before the vocabularies or the metrics log go
    # into --out.
    tmp, src, tgt = toy_files
    out = tmp / "o"
    code = cli.main([command, "--source", src, "--target", tgt, "--out", str(out),
                     *SMALL_MODEL, flag, value])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "Traceback" not in err
    assert not out.exists()


def test_unknown_config_key_via_cli_exits_2(tmp_path, toy_files):
    tmp, src, tgt = toy_files
    conf = tmp / "bad.conf"
    conf.write_text("banana = 3\n")
    code = cli.main(["prepare", "--source", src, "--target", tgt,
                     "--config", str(conf), "--out", str(tmp / "o")])
    assert code == 2


def test_help_flags_match_config_keys(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["pipeline", "--help"])
    help_text = capsys.readouterr().out
    flags = set(re.findall(r"--[a-z][a-z0-9-]*", help_text))
    flags.discard("--help")
    expected = {"--config"} | {f"--{k.replace('_', '-')}" for k in cli._FIELDS}
    assert flags == expected


def test_help_gives_each_bounded_option_its_range(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["pipeline", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    for f in cli._FIELDS.values():
        if f.name in M.BOUNDS:
            assert f"(default {f.default}, {M.describe_bounds(f.name)})" in help_text
    assert "(default 4, >= 1)" in help_text


def test_help_lists_the_command_table_in_order(capsys):
    assert cli.main(["--help"]) == 0
    help_text = capsys.readouterr().out
    assert "{" + ",".join(cli.COMMANDS) + "}" in help_text
    # argparse indents each subcommand line by four spaces, nothing else
    listed = [line.split(None, 1) for line in help_text.splitlines() if line.startswith("    ")]
    assert listed == [[name, help_line] for name, (help_line, _) in cli.COMMANDS.items()]


def test_bad_flag_usage_exits_2():
    assert cli.main(["pipeline", "--no-such-flag"]) == 2


def test_unknown_env_log_level_warns(monkeypatch, capsys, toy_files):
    tmp, src, tgt = toy_files
    monkeypatch.setenv("CE_NMT_LOG", "bogus")
    code = cli.main(["prepare", "--source", src, "--target", tgt, "--out", str(tmp / "o")])
    assert code == 0
    assert "CE_NMT_LOG" in capsys.readouterr().err


# -- python -m ce_nmt.synthetic ---------------------------------------------------------

def test_synthetic_writes_a_corpus_that_prepare_reads(tmp_path, capsys):
    proc = _run_module("ce_nmt.synthetic", str(tmp_path / "c"), "--pairs", "5",
                       "--test-pairs", "1", "--vocab-size", "1")
    assert proc.returncode == 0, proc.stderr
    code = cli.main(["prepare", "--source", str(tmp_path / "c" / "train.src"),
                     "--target", str(tmp_path / "c" / "train.tgt"), "--out", str(tmp_path / "o")])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["pair_count"] == 5


@pytest.mark.parametrize("flag", ["--pairs", "--test-pairs", "--vocab-size"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_synthetic_rejects_counts_below_one(tmp_path, flag, value):
    out = tmp_path / "c"
    proc = _run_module("ce_nmt.synthetic", str(out), flag, value)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [f"error: {flag} must be >= 1, got {value}"]
    assert not out.exists()


def test_synthetic_rejects_negative_seed(tmp_path):
    out = tmp_path / "c"
    proc = _run_module("ce_nmt.synthetic", str(out), "--seed", "-1")
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: --seed must be >= 0, got -1"]
    assert not out.exists()


def test_synthetic_rejects_vocab_size_past_draw_range(tmp_path):
    out = tmp_path / "c"
    proc = _run_module("ce_nmt.synthetic", str(out), "--vocab-size", str(2**32))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: --vocab-size must be < 2**32, got 4294967296"]
    assert not out.exists()
