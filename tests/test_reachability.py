"""The reachability gate: every function of the package runs in one small sweep.

The sweep writes a synthetic corpus, then runs each command, both
precisions, both pooling kinds, dropout, a config file, the stage-by-stage
chain, a fresh CE start from an embedding file and the four eval modes, all
in-process under ``sys.setprofile``. A function that none of it reaches is
either dead or missing a sweep case, and the test names it. Counted are the
functions written with ``def``, at any depth; lambdas, comprehensions and
class bodies are not.
"""

import inspect
import os
import sys
from pathlib import Path

import ce_nmt
from ce_nmt import cli, synthetic

PACKAGE = Path(ce_nmt.__file__).resolve().parent

# ``module.qualname`` -> why no sweep reaches it
EXEMPT = {
    "numerics.grad_check": "the tests' finite-difference check; no command runs it",
    "numerics._start_worker": "runs at import and in a forked child, before any sweep",
    "numerics.Tensor.__repr__": "a debugging aid; no command prints a Tensor",
    "numerics.Tensor.requires_grad": "the ops read the node's flag; only tests read the Tensor's",
    "errors.CorpusFormatError.__init__": "runs only on a malformed input file",
    "errors.CollapseError.__init__": "runs only when a CE run collapses",
    "errors.DivergenceError.__init__": "runs only when a stage diverges",
    "training.CollapseReport.__str__": "formats the message of a CollapseError",
    "cli._opt": "builds RunConfig's fields while the module is imported",
}
MODEL = ["--depth", "1", "--dim", "8", "--heads", "2", "--emb-dim", "8", "--proj-dim", "4",
         "--max-len", "8", "--batch-size", "8", "--steps", "24", "--epochs", "1", "--warmup", "2"]


def package_functions() -> dict[tuple[str, int, str], str]:
    """Every ``def`` of the package's modules: (real file path, first line,
    qualname) -> ``module.qualname``."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if inspect.iscode(c)]
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                found[str(path), code.co_firstlineno, code.co_qualname] = \
                    f"{path.stem}.{code.co_qualname}"
    return found


def sweep(tmp: Path) -> None:
    """Run every command and mode once on a tiny model, asserting exit 0."""
    # more than one block of raw draws, so a draw also crosses a block's end
    assert synthetic.main([str(tmp / "data"), "--pairs", str(synthetic.BLOCK // 4),
                           "--test-pairs", "24", "--vocab-size", "6"]) == 0
    corpus = ["--source", str(tmp / "data" / "test.src"),
              "--target", str(tmp / "data" / "test.tgt")]
    (tmp / "run.conf").write_text("pooling = max  # the other pool\ndropout = 0.1\n"
                                  "reuse_decoder = on\n")
    words = sorted({w for side in ("src", "tgt")
                    for w in (tmp / "data" / f"test.{side}").read_text().split()})
    (tmp / "emb.txt").write_text(f"{len(words)} 8\n" + "".join(
        f"{w} {' '.join(str((i + j) % 5 / 4) for j in range(8))}\n" for i, w in enumerate(words)))

    def run(*args):
        assert cli.main([*args, *corpus, *MODEL]) == 0, args

    run("prepare", "--out", str(tmp / "prep"))
    run("pipeline", "--out", str(tmp / "p64"), "--config", str(tmp / "run.conf"))
    run("pipeline", "--out", str(tmp / "p32"), "--precision", "float32")
    run("pipeline", "--out", str(tmp / "fresh"), "--skip-pretrain",
        "--embeddings", str(tmp / "emb.txt"))
    run("train", "--out", str(tmp / "chain"))
    run("ce", "--out", str(tmp / "chain"), "--checkpoint", str(tmp / "chain" / "pretrain-24.ckpt"))
    run("finetune", "--out", str(tmp / "chain"), "--checkpoint", str(tmp / "chain" / "ce-1.ckpt"))
    # Greedy decoding narrows its batch once the shorter rows have stopped;
    # the chain's pretrained decoder already stops rows at different lengths.
    run("eval", "--mode", "bleu", "--out", str(tmp / "bleu"),
        "--checkpoint", str(tmp / "chain" / "pretrain-24.ckpt"))
    for mode in ("classify", "centroid", "diagnostics"):
        run("eval", "--mode", mode, "--out", str(tmp / mode),
            "--checkpoint", str(tmp / "p64" / "finetune-24.ckpt"),
            "--baseline-checkpoint", str(tmp / "p64" / "pretrain-24.ckpt"))


def test_every_package_function_is_reached(tmp_path):
    codes = {}

    def profile(frame, event, arg):
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        sweep(tmp_path)
    finally:
        sys.setprofile(previous)
    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_qualname)
               for c in codes.values()}
    functions = package_functions()
    unreached = sorted(f"{name} (line {key[1]})" for key, name in functions.items()
                       if key not in reached and name not in EXEMPT)
    assert not unreached, "no sweep case reaches:\n  " + "\n  ".join(unreached)
    stale = sorted(set(EXEMPT) - set(functions.values()))
    assert not stale, f"exemptions that name no function: {stale}"
