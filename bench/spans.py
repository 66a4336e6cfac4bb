"""Outside-in tracing: spans around calls into the package's public functions.

``Tracer.install`` rebinds module and class attributes of ``ce_nmt`` to
timing wrappers and ``Tracer.uninstall`` puts the originals back; no package
source is edited. Each wrapped call records a span (name, parent, start,
end) in memory. Spans are aggregated into self times, where a span's self
time is its duration minus the durations of its direct children, and can be
written out as JSON lines when the run ends.

Names imported by value into another module (``training`` imports
``batch_iter``, ``translation_loss`` and ``barlow_twins_loss``) are rebound
in both namespaces. ``model`` and ``losses`` reach the ops as ``N.<op>``, and
the ``Tensor`` operator methods call the module-level ops, so rebinding the
``numerics`` attribute covers every call site.
"""

from __future__ import annotations

import bisect
import inspect
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute path, span name); attributes with a dot are methods.
NUMERIC_OPS = ("matmul", "masked_softmax", "log_softmax", "layer_norm", "batch_norm_train",
               "embedding_lookup", "relu", "add", "reshape", "transpose")
MODEL_FNS = ("encode", "decode", "attention", "pool", "project")


def wrapped_functions() -> list[tuple[str, str, str]]:
    """Every (module, attribute, span name) the tracer rebinds, in report order."""
    rows = [("data", "batch_iter", "data.batch_iter"),
            ("training", "batch_iter", "data.batch_iter")]
    rows += [("numerics", op, f"numerics.{op}") for op in NUMERIC_OPS]
    rows += [("numerics", "Tensor.backward", "numerics.Tensor.backward")]
    rows += [("model", fn, f"model.{fn}") for fn in MODEL_FNS]
    for fn in ("translation_loss", "barlow_twins_loss"):
        rows += [("losses", fn, f"losses.{fn}"), ("training", fn, f"losses.{fn}")]
    rows += [("training", "AdamOptimizer.step", "training.AdamOptimizer.step"),
             ("training", "CollapseMonitor.observe", "training.CollapseMonitor.observe"),
             ("training", "load_checkpoint", "training.load_checkpoint"),
             ("training", "save_checkpoint", "training.save_checkpoint")]
    rows += [("evaluation", fn, f"evaluation.{fn}")
             for fn in ("greedy_decode", "bleu", "corpus_probe_embeddings", "run_protocol")]
    return rows


def span_names() -> list[str]:
    return list(dict.fromkeys(name for _, _, name in wrapped_functions()))


class Counters:
    """Work counted at the wrapped boundaries."""

    def __init__(self):
        self.tensors = 0
        self.pad_slots = 0
        self.id_slots = 0
        self.decode_positions = 0
        self.greedy_positions = 0
        self.greedy_emitted = 0


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []          # [name, parent index, start, end]
        self.counters = Counters()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, 0.0, 0.0])
        self._stack.append(idx)
        self.spans[idx][2] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        traced.__wrapped__ = fn
        return traced

    def _wrap_batches(self, name: str, fn):
        """A span per ``next()`` on the batch generator (the final, exhausting
        call included), and the PAD share of every yielded batch."""
        tracer = self
        counters = self.counters
        pad = self.modules["data"].PAD

        def traced(*args, **kwargs):
            batches = fn(*args, **kwargs)
            while True:
                idx = tracer._open(name)
                try:
                    batch = next(batches)
                except StopIteration:
                    return
                finally:
                    tracer._close(idx)
                for ids in (batch.source_ids, batch.target_ids):
                    counters.pad_slots += int((ids == pad).sum())
                    counters.id_slots += int(ids.size)
                yield batch

        traced.__wrapped__ = fn
        return traced

    def _wrap_decode(self, name: str, fn):
        counters = self.counters
        timed = self._wrap(name, fn)

        def traced(latent, tgt_ids, *args, **kwargs):
            counters.decode_positions += int(tgt_ids.shape[0] * tgt_ids.shape[1])
            return timed(latent, tgt_ids, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _wrap_greedy(self, name: str, fn):
        """Decoder positions computed against tokens emitted, EOS included."""
        counters = self.counters
        timed = self._wrap(name, fn)
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            call = signature.bind(*args, **kwargs).arguments
            before = counters.decode_positions
            rows = timed(*args, **kwargs)
            limit = (call.get("max_len") or call["cfg"].max_len) - 1
            counters.greedy_positions += counters.decode_positions - before
            # A row shorter than the length limit stopped on an emitted EOS.
            counters.greedy_emitted += sum(len(r) + (len(r) < limit) for r in rows)
            return rows

        traced.__wrapped__ = fn
        return traced

    def _wrap_tensor_init(self, fn):
        counters = self.counters

        def counted(self, *args, **kwargs):
            counters.tensors += 1
            fn(self, *args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installing --------------------------------------------------------

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        made: dict[str, object] = {}
        for module_name, path, name in wrapped_functions():
            owner = self.modules[module_name]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            if attr not in owner.__dict__:
                continue              # gone from the package: reported as zero calls
            if name not in made:
                original = owner.__dict__[attr]
                if name == "data.batch_iter":
                    made[name] = self._wrap_batches(name, original)
                elif name == "model.decode":
                    made[name] = self._wrap_decode(name, original)
                elif name == "evaluation.greedy_decode":
                    made[name] = self._wrap_greedy(name, original)
                else:
                    made[name] = self._wrap(name, original)
            self._rebind(owner, attr, made[name])
        tensor = self.modules["numerics"].Tensor
        self._rebind(tensor, "__init__", self._wrap_tensor_init(tensor.__dict__["__init__"]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def self_times(self, start: float = float("-inf"),
                   end: float = float("inf")) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name, over spans inside [start, end]."""
        child = [0.0] * len(self.spans)
        for name, parent, s, e in self.spans:
            if parent >= 0:
                child[parent] += e - s
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, (name, _, s, e) in enumerate(self.spans):
            if s >= start and e <= end:
                out[name][0] += 1
                out[name][1] += (e - s) - child[i]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def top_level_time(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Seconds of top-level spans inside each (start, end) interval."""
        tops = sorted((s, e) for _, parent, s, e in self.spans if parent < 0)
        starts = [s for s, _ in tops]
        covered = []
        for lo, hi in intervals:
            total = 0.0
            for s, e in itertools.islice(tops, bisect.bisect_left(starts, lo), None):
                if s > hi:
                    break
                if e <= hi:
                    total += e - s
            covered.append(total)
        return covered

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, parent, s, e in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "start": s, "end": e}) + "\n")
