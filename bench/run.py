"""Benchmark of the ce-nmt pipeline stages at float64.

    python3 bench/run.py --workload pretrain|ce|translate --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory and nothing needs installing. One process runs one
workload (see ``workloads.py``) with one BLAS thread (``config.BLAS_THREADS``).
The seed draws the workload's sentence pairs and shuffles; the program sees
only the generated inputs.

A run repeats set-up and a round of the workload until ``--seconds`` have
passed and at least 100 units are timed, then checks the outputs.
Human-readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with nothing wrapped.
``--trace 1`` alternates untraced rounds with rounds in which the public
functions of ``numerics``, ``data``, ``model``, ``losses``, ``training`` and
``evaluation`` are wrapped from outside (``spans.py``), and reports per-layer
calls and self times per unit, the tracing overhead and the trace coverage.
Spans are written to ``.bench_out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import tempfile
import time
import types
from pathlib import Path

import config as C

MIN_UNITS = 100       # so the 90th percentile has at least 10 samples beyond it
# Set-ups timed before every untraced round; setup_s is the median over the
# run. Spreading them over the run keeps one slow moment of a shared host
# from deciding the figure.
SETUPS_PER_ROUND = 5
TRACE_DIR = C.ROOT / ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark one ce-nmt workload.")
    parser.add_argument("--workload", required=True, choices=("pretrain", "ce", "translate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_package():
    C.import_package()
    from ce_nmt import data, errors, evaluation, losses, model, numerics, synthetic, training

    return types.SimpleNamespace(numerics=numerics, data=data, model=model, losses=losses,
                                 training=training, evaluation=evaluation,
                                 synthetic=synthetic, errors=errors)


# -- statistics ---------------------------------------------------------------


def unit_ms(rounds) -> list[float]:
    return [1000.0 * (b - a) for r in rounds for a, b in zip(r.marks, r.marks[1:])]


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


# -- checks ---------------------------------------------------------------------


def roundtrip(pkg, ckpt, directory: Path) -> tuple[bool, int]:
    """save -> load -> save: equal bytes, equal tensors up to the stored precision."""
    import numpy as np

    TR = pkg.training
    first = TR.save_checkpoint(ckpt, directory / "first.ckpt")
    loaded = TR.load_checkpoint(first)
    second = TR.save_checkpoint(loaded, directory / "second.ckpt")
    ok = first.read_bytes() == second.read_bytes()
    ok &= (loaded.config, loaded.stage, loaded.seed, loaded.step) == \
          (ckpt.config, ckpt.stage, ckpt.seed, ckpt.step)
    for group in ("encoder", "decoder", "projection"):
        want, got = getattr(ckpt, group), getattr(loaded, group)
        if want is None or got is None or want.tensors.keys() != got.tensors.keys():
            ok &= want is None and got is None
            continue
        for name, tensor in want.items():
            a, b = tensor.values, got[name].values
            ok &= bool(np.array_equal(a, b)
                       or np.array_equal(a.astype(np.float32).astype(a.dtype), b))
    return bool(ok), first.stat().st_size


# -- the run ------------------------------------------------------------------


class Failure(Exception):
    """A unit failed with one of the package's training errors."""


def run_one(wl, state, tracer=None):
    errors = wl.pkg.errors
    if tracer is not None:
        tracer.install()
    try:
        return wl.run_round(state)
    except (errors.DivergenceError, errors.CollapseError, errors.NumericError) as exc:
        raise Failure(f"{type(exc).__name__}: {exc}") from exc
    finally:
        if tracer is not None:
            tracer.uninstall()


def measure(wl, seed: int, seconds: float, tracer=None, traced_state=None):
    """Rounds until time and sample count suffice; with a tracer, alternate
    untraced (even) and traced (odd) rounds, the traced ones on
    ``traced_state``. Returns (untraced, traced, set-up seconds, error)."""
    plain, traced, setup_times = [], [], []
    start = time.perf_counter()
    try:
        while True:
            if tracer is not None and len(plain) > len(traced):
                traced.append(run_one(wl, traced_state, tracer))
            else:
                for _ in range(SETUPS_PER_ROUND):
                    t0 = time.perf_counter()
                    state = wl.setup(seed)
                    setup_times.append(time.perf_counter() - t0)
                plain.append(run_one(wl, state))
            enough_time = time.perf_counter() - start >= seconds
            if tracer is None:
                if enough_time and sum(r.units for r in plain) >= MIN_UNITS:
                    break
            elif enough_time and len(traced) >= 2 and len(plain) == len(traced):
                break
    except Failure as exc:
        return plain, traced, setup_times, str(exc)
    return plain, traced, setup_times, None


def end_to_end(rounds, setup_times) -> tuple[dict, list[str]]:
    steps = unit_ms(rounds)
    p50 = statistics.median(steps)
    p90, beyond = percentile(steps, 0.9)
    items = sum(r.items for r in rounds)
    # Throughput of each round, then the median over rounds: a slow moment
    # of a shared host moves one round, not the run's figure.
    per_round = [r.items / (r.end - r.marks[0]) for r in rounds]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(setup_times),
        "step_ms_p50": p50,
        "step_ms_p90": p90,
        "items_per_s": statistics.median(per_round),
        "peak_rss_mb": rss_mb,
    }
    samples = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "step_ms_p50": f"n={len(steps)} units",
        "step_ms_p90": f"n={len(steps)} units, {beyond} beyond",
        "items_per_s": f"median of {len(rounds)} rounds, {items} items",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    lines = [f"{k:<14} {v:14.6f} {END_TO_END[k]:<4} ({samples[k]})" for k, v in values.items()]
    return values, lines


def per_layer(tracer, traced, counters: dict, untraced_p50: float) -> dict[str, tuple]:
    """(value, unit) per layer metric; calls and self times are per traced unit."""
    from spans import span_names

    units = sum(r.units for r in traced)
    stats = {name: [0, 0.0] for name in span_names()}
    for r in traced:
        for name, (calls, self_s) in tracer.self_times(r.marks[0], r.end).items():
            stats[name][0] += calls
            stats[name][1] += self_s
    out: dict[str, tuple] = {}
    for name, (calls, self_s) in stats.items():
        out[f"{name}.calls"] = (calls / units, "count")
        out[f"{name}.self_ms"] = (1000.0 * self_s / units, "ms")
    # Checkpoint I/O runs in set-up and in the round-trip check, not in units:
    # report calls a run and milliseconds a call.
    everywhere = tracer.self_times()
    for name in ("training.load_checkpoint", "training.save_checkpoint"):
        calls, self_s = everywhere.get(name, (0, 0.0))
        out[f"{name}.calls"] = (float(calls), "count")
        out[f"{name}.self_ms"] = (1000.0 * self_s / calls if calls else 0.0, "ms")

    def ratio(num, den):
        return counters[num] / counters[den] if counters[den] else 0.0

    out["numerics.Tensor.calls"] = (counters["tensors"] / units, "count")
    out["data.pad_frac"] = (ratio("pad_slots", "id_slots"), "ratio")
    out["model.decode.positions"] = (counters["decode_positions"] / units, "count")
    out["evaluation.decode_useful_frac"] = (ratio("greedy_emitted", "greedy_positions"), "ratio")
    traced_p50 = statistics.median(unit_ms(traced))
    out["trace.overhead_pct"] = (100.0 * (traced_p50 - untraced_p50) / untraced_p50, "%")
    intervals = [(a, b) for r in traced for a, b in zip(r.marks, r.marks[1:])]
    covered_ms = statistics.median(1000.0 * t for t in tracer.top_level_time(intervals))
    out["trace.coverage"] = (covered_ms / untraced_p50, "ratio")
    return out


def check_outputs(wl, plain, traced, tracer) -> tuple[dict, dict, int]:
    """Checks and figures on the last round, and the round trip's checkpoint size."""
    digests = {r.digest for r in plain + traced}
    checks = {"rounds_identical": len(digests) == 1}
    if traced:
        checks["trace_leaves_outputs_unchanged"] = \
            {r.digest for r in traced} == {r.digest for r in plain}
    quality = wl.quality((plain + traced)[-1])
    checks.update(quality["checks"])
    if tracer is not None:
        tracer.install()
    try:
        with tempfile.TemporaryDirectory(dir=C.ROOT, prefix=".bench-tmp-") as tmp:
            checks["checkpoint_roundtrip"], ckpt_bytes = roundtrip(
                wl.pkg, quality["checkpoint"], Path(tmp))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return checks, quality["figures"], ckpt_bytes


def main(argv=None) -> int:
    args = parse_args(argv)
    C.limit_threads()
    try:
        pkg = load_package()
    except ImportError as exc:
        print(f"cannot import the ce_nmt package of this checkout: {exc}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    wl = workloads.WORKLOADS[args.workload](pkg)
    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"why      {wl.why}")
    print(f"host     {json.dumps(C.host_record(), sort_keys=True)}")

    tracer = traced_state = None
    if args.trace:
        tracer = Tracer(vars(pkg))
        tracer.install()
        try:
            traced_state = wl.setup(args.seed)
        finally:
            tracer.uninstall()
    before = dict(vars(tracer.counters)) if tracer else {}
    plain, traced, setup_times, error = measure(wl, args.seed, args.seconds, tracer,
                                                traced_state)
    counters = {k: v - before[k] for k, v in vars(tracer.counters).items()} if tracer else {}

    rounds = plain + traced
    attempted = sum(r.units for r in rounds)
    failed = 0
    checks: dict[str, bool] = {}
    if error is not None:
        print(f"FAILED   {error}")
        attempted += 1
        failed += 1
        checks["no_training_error"] = False
    if rounds:
        more, figures, ckpt_bytes = check_outputs(wl, plain, traced, tracer)
        checks.update(more)
        if not all(more.values()):
            failed += rounds[-1].units
        kind = "float64 losses" if rounds[-1].losses else "decoded ids"
        print(f"digest   {rounds[-1].digest}  ({kind}, {len(rounds)} rounds)")
        for name, (value, unit, note) in figures.items():
            print(f"{name:<14} {value:14.6f} {unit:<4} ({note})")
    for name, ok in checks.items():
        print(f"check    {name}: {'ok' if ok else 'FAILED'}")

    metrics: dict[str, dict] = {}
    if plain and not args.trace:
        values, lines = end_to_end(plain, setup_times)
        print(*lines, sep="\n")
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    elif plain and traced:
        layer = per_layer(tracer, traced, counters, statistics.median(unit_ms(plain)))
        layer["training.checkpoint_bytes"] = (float(ckpt_bytes), "bytes")
        for name, (value, unit) in sorted(layer.items()):
            print(f"{name:<44} {value:14.6f} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"trace-{wl.name}-seed{args.seed}.jsonl")
    correct = bool(rounds) and all(checks.values())
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
