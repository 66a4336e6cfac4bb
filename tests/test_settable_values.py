"""A budget on the package's settable values.

Every function or method parameter with a default and every dataclass init
field is a value a caller can set, and each one adds configurations that
tests and benchmarks must cover. A value that only one caller sets belongs in
a module constant.
"""

import dataclasses
import importlib
import inspect

MODULES = ("cli", "data", "evaluation", "losses", "model", "numerics", "synthetic", "training")
SETTABLE_VALUES_BUDGET = 179


def _defaulted(fn) -> int:
    return sum(p.default is not p.empty for p in inspect.signature(fn).parameters.values())


def settable_values() -> int:
    count = 0
    for name in MODULES:
        module = importlib.import_module(f"ce_nmt.{name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                count += _defaulted(obj)
            elif inspect.isclass(obj):
                is_dataclass = dataclasses.is_dataclass(obj)
                if is_dataclass:
                    count += sum(f.init for f in dataclasses.fields(obj))
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)   # static and class methods
                    # a dataclass's generated __init__ repeats its fields
                    if inspect.isfunction(fn) and not (is_dataclass and attr == "__init__"):
                        count += _defaulted(fn)
    return count


def test_settable_values_within_budget():
    count = settable_values()
    assert count <= SETTABLE_VALUES_BUDGET, (
        f"{count} settable values, budget {SETTABLE_VALUES_BUDGET}. Make a value that one "
        "caller sets a module constant. Raise the budget only with a CHANGES.md entry that "
        "names two non-test callers needing different values.")
