"""Run-to-run spread of the end-to-end metrics: one run per seed, one after another.

    python3 bench/spread.py --seeds 11-20 --seconds 30 [--workloads pretrain,ce] [--out FILE]

Run from the root of a checkout. For each workload and seed it runs
``run.py --trace 0`` and reads the JSON result line, then prints for every
metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance over the median.
``--out`` writes the same figures as one JSON set, the form of the
``sets`` entries of ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import config as C

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=C.ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} failed its checks: {result}")
    return result["metrics"]


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "iqr_over_median": round((q3 - q1) / median, 4)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="11-20", help="first-last, inclusive")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--workloads", default="pretrain,ce,translate")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    out = {"seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{k} {v['value']:.4f}" for k, v in runs[-1].items()), flush=True)
        figures = {name: summary([r[name]["value"] for r in runs], metric["unit"])
                   for name, metric in runs[0].items()}
        out["workloads"][workload] = figures
        for name, f in figures.items():
            print(f"{workload:<10} {name:<12} median {f['median']:12.4f} {f['unit']:<4} "
                  f"IQR/median {f['iqr_over_median']:.4f}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
