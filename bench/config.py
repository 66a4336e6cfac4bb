"""Shared settings of the benchmark: shapes, corpus, fixture and host.

Everything here is fixed: a later change that wants other shapes adds a
workload instead of editing these, so figures stay comparable across
commits.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FIXTURE_DIR = BENCH_DIR / "fixture"
FIXTURE_CKPT = FIXTURE_DIR / "pretrain.ckpt"
FIXTURE_VOCAB_SRC = FIXTURE_DIR / "vocab_src.txt"
FIXTURE_VOCAB_TGT = FIXTURE_DIR / "vocab_tgt.txt"

# The acceptance-toy shapes (tests/test_acceptance.py) at float64.
MODEL = dict(depth=2, dim=64, heads=4, ff_dim=256, emb_dim=64, max_len=12,
             proj_dim=32, pooling="mean")
BATCH = 64
PRECISION = "float64"
LR = 1e-3
PRETRAIN_WARMUP = 200
CE_WARMUP = 50
CE_LAMBDA = 5e-3

# The cipher language pair: 50 words a side, 3 to 10 words a sentence. The
# cipher itself depends only on CIPHER_SEED, so every corpus drawn below
# shares one language pair with the fixture.
CIPHER = dict(vocab_size=50, min_len=3, max_len=10, cipher_seed=12345)

# The fixture: the acceptance toy's pretrain run, cut at FIXTURE_STEPS.
FIXTURE_SEED = 100
FIXTURE_TRAIN_PAIRS = 2000
FIXTURE_HELDOUT_SEED = 101
FIXTURE_HELDOUT_PAIRS = 200
FIXTURE_STEPS = 400
FIXTURE_BLEU_FLOOR = 95.0

# Workload corpora are drawn with seeds offset from the benchmark seed, so
# no seed ever reproduces the fixture's own training or held-out pairs.
CORPUS_SEED_OFFSET = 1_000_003


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# One BLAS thread. On a shared host of a few cores, a second thread makes
# every small matmul wait on a core that another tenant may hold. In three
# alternating pairs of translate runs on a shared 2-core host, two threads
# were 5-20% faster, but their step_ms_p50 ranged over 17% against 5%.
BLAS_THREADS = 1


def limit_threads() -> None:
    """Pin BLAS to ``BLAS_THREADS`` threads; call before importing numpy."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_package():
    """Import ``ce_nmt`` from this checkout's ``src``; never from elsewhere.

    Raises ``ImportError`` when the checkout has no package source, so a
    benchmark copied without the program fails instead of measuring some
    installed version.
    """
    if not (SRC / "ce_nmt" / "__init__.py").is_file():
        raise ImportError(f"no ce_nmt package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ce_nmt

    if Path(ce_nmt.__file__).resolve().parent != (SRC / "ce_nmt").resolve():
        raise ImportError(f"ce_nmt imported from {ce_nmt.__file__}, not from {SRC}")
    return ce_nmt


def host_record() -> dict:
    """Cores, numpy and BLAS, thread count, Python and precision."""
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        info = deps.get("blas", {})
        blas = f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "cores": cpu_count(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "precision": PRECISION,
    }
