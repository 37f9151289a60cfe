"""One type rule and one range rule for config values, and one section rule
that builds a config from a JSON object. The type rule is JSON's: only a
boolean fits ``bool``, an ``int`` takes an integral value and a ``float`` a
real one, and neither takes a boolean. The range rule reads the interval
that ``bounded`` declares; every such interval is finite, so NaN and ±inf lie
outside all of them. Both judge a list field (one or more elements) or an
array field (of a declared shape) element by element."""

import dataclasses
import functools
import json
import math
import numbers
import sys
import typing

import numpy as np

TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}
_PLURALS = {int: "integers", float: "numbers", str: "strings"}


def fits(value, want) -> bool:
    if type(value) is want:   # the common case, decided without the ABC checks below
        return True
    if want is bool or isinstance(value, bool):
        return want is bool and isinstance(value, bool)
    return isinstance(value, {int: numbers.Integral, float: numbers.Real}.get(want, want))


def mistyped(name: str, value, want, shape=None) -> str:
    """Why ``value`` does not fit ``want``, or with ``shape`` nested lists of it."""
    extents = " lists of ".join(str(n or "one or more") for n in shape or ())
    what = TYPE_NAMES[want] if shape is None else f"a list of {extents} {_PLURALS[want]}"
    return f"{name} must be {what}, got {json.dumps(value, default=repr)}"


def bounded(lo, hi=math.inf, *, lo_open=False, hi_open=False, shape=None, **field_args):
    """A field whose value, or each element of it, lies between ``lo`` and ``hi``,
    each end closed unless open or infinite; an array field declares its ``shape``."""
    bounds = (lo, hi, lo_open or lo == -math.inf, hi_open or hi == math.inf)
    return dataclasses.field(metadata={"bounds": bounds, "shape": shape}, **field_args)


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
        if lo == -math.inf:
            return f"{name} must be finite, got {value}"
        finite = "finite and " if want is float else ""
        return f"{name} must be {finite}{'>' if lo_open else '>='} {_shown(lo)}, got {value}"
    return (f"{name} must be in {'(' if lo_open else '['}{_shown(lo)}, {_shown(hi)}"
            f"{')' if hi_open else ']'}, got {value}")


def checked(name: str, value, want, bounds):
    """``value`` as a ``want`` field stores it, or ValueError naming ``name``."""
    if not fits(value, want):
        raise ValueError(mistyped(name, value, want))
    if want is int:
        value = int(value)
    elif isinstance(value, numbers.Integral) and abs(value) > sys.float_info.max:
        value = math.inf if value > 0 else -math.inf   # past float64's range: judged as inf
    error = bounds and out_of_bounds(name, value, want, bounds)
    if error:
        raise ValueError(error)
    return value


# resolving a class's annotations took most of a construction's time
_type_hints = functools.cache(typing.get_type_hints)


def check_fields(config) -> None:
    """Check each field by both rules, or raise ValueError naming the first field
    or element at fault, and store it normalized: a numpy integer as ``int``, a
    list as a tuple, an array as float64. An ``Optional`` field may be None."""
    hints = _type_hints(type(config))
    for f in dataclasses.fields(config):
        value, want = getattr(config, f.name), hints[f.name]
        if typing.get_origin(want) is typing.Union:   # Optional[X]: None, or an X
            if value is None:
                continue
            (want,) = (arg for arg in typing.get_args(want) if arg is not type(None))
        bounds = f.metadata.get("bounds")
        if want is np.ndarray or typing.get_origin(want) is tuple:
            item, shape = (float, f.metadata["shape"]) if want is np.ndarray \
                else (typing.get_args(want)[0], (None,))
            cells = np.array(value, dtype=object)   # nested lists; a str or a dict is 0-d
            if cells.ndim != len(shape) or cells.shape != tuple(   # an extent None: any but 0
                    n or max(m, 1) for n, m in zip(shape, cells.shape)):
                raise ValueError(mistyped(f.name, value, item, shape))
            items = [checked(f.name + "".join(f"[{i}]" for i in index), cells[index], item,
                              bounds) for index in np.ndindex(cells.shape)]
            value = tuple(items) if item is not float else \
                np.array(items, dtype=np.float64).reshape(shape)
        elif want in TYPE_NAMES:
            value = checked(f.name, value, want, bounds)
        else:
            continue
        object.__setattr__(config, f.name, value)


def check_keys(section: str, given: dict, allowed: set[str]) -> None:
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise ValueError(f"unknown key(s) in section '{section}': {', '.join(unknown)}")


def from_section(cls, section: str, given, every_key=False, holds=""):
    """``cls`` built from ``given``, the JSON object of config section
    ``section``, or ValueError naming the section and the keys or value at
    fault. ``given`` must name each field without a default (with
    ``every_key``, each field); ``holds`` says what the section holds."""
    if not isinstance(given, dict):
        raise ValueError(f"section '{section}' must be a JSON object, "
                         f"got {type(given).__name__}")
    fields = dataclasses.fields(cls)
    check_keys(section, given, {f.name for f in fields})
    missing = [f.name for f in fields if f.name not in given and (
        every_key or f.default is f.default_factory is dataclasses.MISSING)]
    if missing:
        raise ValueError(f"section '{section}': {holds or section} needs key(s) "
                         f"{', '.join(missing)}")
    try:
        return cls(**given)
    except ValueError as exc:
        raise ValueError(f"section '{section}': {exc}") from exc


class Checked:
    """Base of the config dataclasses: building one checks its fields by both rules."""

    def __post_init__(self):
        check_fields(self)
