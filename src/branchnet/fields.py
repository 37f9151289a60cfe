"""One type rule for config values, in JSON's terms: only a boolean fits
``bool``, an ``int`` takes an integral value and a ``float`` a real one, and
neither takes a boolean. The model, train and augment config dataclasses
check their fields by it when built, from the CLI or from a checkpoint
header; the CLI checks its data and output sections by it."""

import dataclasses
import json
import numbers
import typing

TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number",
              str: "a string", list[str]: "a list of strings"}


def fits(value, want) -> bool:
    if type(value) is want:   # the common case, decided without the ABC checks below
        return True
    if want == list[str]:
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    if want is bool or isinstance(value, bool):
        return want is bool and isinstance(value, bool)
    return isinstance(value, {int: numbers.Integral, float: numbers.Real}.get(want, want))


def mistyped(name: str, value, want) -> str:
    return f"{name} must be {TYPE_NAMES[want]}, got {json.dumps(value, default=repr)}"


def check_fields(config) -> None:
    """Raise ValueError naming the first ``bool``, ``int`` or ``float`` field
    that does not fit; store a numpy integer in an ``int`` field as ``int``."""
    hints = typing.get_type_hints(type(config))
    for f in dataclasses.fields(config):
        value, want = getattr(config, f.name), hints[f.name]
        if want in (bool, int, float) and not fits(value, want):
            raise ValueError(mistyped(f.name, value, want))
        if want is int:
            object.__setattr__(config, f.name, int(value))
