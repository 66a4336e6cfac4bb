"""Budgets on the package's settable values and statements.

Every function or method parameter with a default and every dataclass init
field is a value a caller can set, and each one adds configurations that
tests and benchmarks must cover. A value that only one caller sets belongs in
a module constant.

The statement count is the package's size in code: unlike a line count, it
does not move when comments are deleted or code is reformatted.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

MODULES = ("cli", "data", "evaluation", "losses", "model", "numerics", "synthetic", "training")
SETTABLE_VALUES_BUDGET = 161
STATEMENT_BUDGET = 1860
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ce_nmt"


def _defaulted(fn) -> list[str]:
    return [name for name, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty]


def settable_values() -> dict[str, list[str]]:
    """The counted names by owner, ``module.function`` or ``module.Class.method``
    (``module.Class`` for a dataclass's init fields); owners with none are left out."""
    found: dict[str, list[str]] = {}
    for name in MODULES:
        module = importlib.import_module(f"ce_nmt.{name}")
        for obj_name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            owner = f"{name}.{obj_name}"
            if inspect.isfunction(obj):
                found[owner] = _defaulted(obj)
            elif inspect.isclass(obj):
                is_dataclass = dataclasses.is_dataclass(obj)
                if is_dataclass:
                    found[owner] = [f.name for f in dataclasses.fields(obj) if f.init]
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)   # static and class methods
                    # a dataclass's generated __init__ repeats its fields
                    if inspect.isfunction(fn) and not (is_dataclass and attr == "__init__"):
                        found[f"{owner}.{attr}"] = _defaulted(fn)
    return {owner: params for owner, params in found.items() if params}


def test_settable_values_within_budget():
    values = settable_values()
    count = sum(map(len, values.values()))
    listing = "\n".join(f"  {owner}: {', '.join(params)}" for owner, params in values.items())
    assert count <= SETTABLE_VALUES_BUDGET, (
        f"{count} settable values, budget {SETTABLE_VALUES_BUDGET}. Make a value that one "
        "caller sets a module constant. Raise the budget only with a CHANGES.md entry that "
        f"names two non-test callers needing different values. Counted:\n{listing}")


def _is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
        and isinstance(node.value.value, str)


def statement_counts() -> dict[str, int]:
    """``ast.stmt`` nodes per module of the package, docstrings left out."""
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstrings = {id(node.body[0]) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                      and node.body and _is_docstring(node.body[0])}
        counts[path.stem] = sum(isinstance(node, ast.stmt) and id(node) not in docstrings
                                for node in ast.walk(tree))
    return counts


def test_statement_count_within_budget():
    counts = statement_counts()
    total = sum(counts.values())
    listing = "\n".join(f"  {module}: {n}" for module, n in counts.items())
    assert total <= STATEMENT_BUDGET, (
        f"{total} statements, budget {STATEMENT_BUDGET}. Raise the budget only with a "
        f"CHANGES.md line that says what the added statements do. Counted:\n{listing}")
