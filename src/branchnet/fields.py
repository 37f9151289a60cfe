"""One type rule and one range rule for config values. The type rule is
JSON's: only a boolean fits ``bool``, an ``int`` takes an integral value and a
``float`` a real one, and neither takes a boolean. The range rule reads the
interval that ``bounded`` declares in a field's metadata; every such interval
is finite, so NaN and ±inf lie outside all of them. Every config dataclass
(model, train, augment, data, output) checks its fields by both rules when
built, from the CLI or from a checkpoint header."""

import dataclasses
import json
import math
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


def bounded(lo, hi=math.inf, *, lo_open=False, hi_open=False, **field_args):
    """A dataclass field whose value must lie between ``lo`` and ``hi``, each
    end closed unless marked open; without ``hi`` it need only be finite."""
    bounds = (lo, hi, lo_open, hi_open or hi == math.inf)
    return dataclasses.field(metadata={"bounds": bounds}, **field_args)


def like(cls, name: str):
    """A field declared as ``cls``'s field ``name`` is, with its default and bounds."""
    (f,) = (f for f in dataclasses.fields(cls) if f.name == name)
    return dataclasses.field(default=f.default, metadata=f.metadata)


def _shown(end) -> str:   # a power of two past 2**32 reads as 2**k
    big = isinstance(end, int) and end > 2**32 and end & (end - 1) == 0
    return f"2**{end.bit_length() - 1}" if big else f"{end}"


def out_of_bounds(name: str, value, want, bounds) -> typing.Optional[str]:
    """Why ``value`` lies outside ``bounds``, or None (NaN compares False)."""
    lo, hi, lo_open, hi_open = bounds
    if (lo < value if lo_open else lo <= value) and (value < hi if hi_open else value <= hi):
        return None
    if hi == math.inf:
        finite = "finite and " if want is float else ""
        return f"{name} must be {finite}{'>' if lo_open else '>='} {_shown(lo)}, got {value}"
    return (f"{name} must be in {'(' if lo_open else '['}{_shown(lo)}, {_shown(hi)}"
            f"{')' if hi_open else ']'}, got {value}")


def check_fields(config) -> None:
    """Raise ValueError naming the first field that does not fit its type
    (any type in ``TYPE_NAMES``) or lies outside its declared bounds; store a
    numpy integer in an ``int`` field as ``int``."""
    hints = typing.get_type_hints(type(config))
    for f in dataclasses.fields(config):
        value, want = getattr(config, f.name), hints[f.name]
        if want in TYPE_NAMES and not fits(value, want):
            raise ValueError(mistyped(f.name, value, want))
        if want is int:
            value = int(value)
            object.__setattr__(config, f.name, value)
        error = "bounds" in f.metadata and out_of_bounds(f.name, value, want, f.metadata["bounds"])
        if error:
            raise ValueError(error)


class Checked:
    """Base of the config dataclasses: building one checks its fields by both rules."""

    def __post_init__(self):
        check_fields(self)
