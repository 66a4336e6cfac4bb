"""The benchmark tracer's names resolve on the package.

``bench/spans.py`` skips any traced name the package no longer defines and
reports it as zero calls, so a rename would silently zero a per-layer row.
This test fails on such a name instead, unless it is listed as retired.
``bench/spans.py`` is loaded by path; nothing under ``bench/`` is imported
as a package or changed.
"""

import importlib.util
from pathlib import Path

from ce_nmt import data, evaluation, losses, model, numerics, training

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# Span names the benchmark still reports that the package no longer defines:
# the model.attention pass-through was removed, and its time now shows as
# model.encode / model.decode self time. The generic ops matmul,
# masked_softmax, reshape and transpose left the package because no run
# called them, and log_softmax became part of the fused numerics.nll, whose
# time shows as losses.translation_loss self time.
RETIRED_SPANS = {"model.attention", "numerics.matmul", "numerics.masked_softmax",
                 "numerics.log_softmax", "numerics.reshape", "numerics.transpose"}

MODULES = {"data": data, "evaluation": evaluation, "losses": losses, "model": model,
           "numerics": numerics, "training": training}


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _defined(module_name: str, path: str) -> bool:
    """Whether the tracer would find ``path`` as it looks it up: in the
    module's namespace, or for ``Class.method`` in the class's own dict."""
    owner = MODULES[module_name]
    *cls, attr = path.split(".")
    if cls:
        owner = owner.__dict__.get(cls[0])
        if owner is None:
            return False
    return attr in owner.__dict__


def test_every_traced_name_resolves_or_is_retired():
    rows = _load_spans().wrapped_functions()
    assert {module for module, _, _ in rows} <= set(MODULES)
    missing = {name for module, path, name in rows if not _defined(module, path)}
    assert missing == RETIRED_SPANS, (
        f"traced names missing from ce_nmt: {sorted(missing - RETIRED_SPANS)}; "
        f"retired names defined again: {sorted(RETIRED_SPANS - missing)}")
