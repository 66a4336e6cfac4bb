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
