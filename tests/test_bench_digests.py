"""The benchmark's outputs, pinned.

Every round of a benchmark workload (``bench/workloads.py``) starts from a
fresh seeded set-up, and ``Round.digest`` is the sha256 of its float64
losses or decoded ids. These tests run one seed-1 round of each workload
and compare that digest with a pinned value, so a change that moves the
benchmark's outputs by one bit fails here, not only in a benchmark run.
The digests read the same with one BLAS thread and with the default count.

``bench/config.py`` and ``bench/workloads.py`` are loaded by path; nothing
under ``bench/`` is imported as a package or changed.
"""

import importlib.util
import sys
import types
from pathlib import Path

import pytest

from ce_nmt import data, errors, evaluation, losses, model, numerics, synthetic, training

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"

PINNED_ROUND_DIGESTS = {
    "pretrain": "5a59ee9b84a57494dbccd6be93d0d3f42f4d925c437db98c1c412f3026add038",
    "ce": "925ece660561395e542503336a9fa2ad0d9672cbfc5e5b3d88ea2d4fadcb19a8",
    "translate": "0ef178a70573daeb5c5aa5bcd1fb5d6b40866458be28b0e63aad2809249f8280",
}


def _load(name: str) -> types.ModuleType:
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module        # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_workloads():
    """``bench/workloads.py``, whose ``import config`` finds ``bench/config.py``."""
    saved = sys.modules.get("config")
    sys.modules["config"] = _load("config")
    try:
        module = _load("workloads")
    finally:
        if saved is None:
            del sys.modules["config"]
        else:
            sys.modules["config"] = saved
    return module


@pytest.mark.parametrize("workload", sorted(PINNED_ROUND_DIGESTS))
def test_bench_round_digest_pinned(bench_workloads, workload):
    pkg = types.SimpleNamespace(numerics=numerics, data=data, model=model, losses=losses,
                                training=training, evaluation=evaluation,
                                synthetic=synthetic, errors=errors)
    wl = bench_workloads.WORKLOADS[workload](pkg)
    round_ = wl.run_round(wl.setup(1))
    assert round_.digest == PINNED_ROUND_DIGESTS[workload]
