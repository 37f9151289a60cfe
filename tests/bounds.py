"""Cases read from the bounds that the config dataclasses declare in their
field metadata (``fields.bounded``): for every bounded field, the values that
must be rejected (NaN, ±inf, and the value just outside each finite end) and
the closed ends that must be accepted. A case of a list or array field sets
every element to the value."""

import dataclasses
import math
import typing

import numpy as np
import pytest

from branchnet.augment import AugmentConfig, PcaBasis
from branchnet.data import Cifar10Data, SyntheticData, SyntheticSpec
from branchnet.model import BranchedNetConfig
from branchnet.training import TrainConfig

CONFIG_CLASSES = (BranchedNetConfig, TrainConfig, AugmentConfig, SyntheticSpec, SyntheticData,
                  Cifar10Data)
# every class that checks its fields: the config sections and the PCA basis they hold
CHECKED_CLASSES = CONFIG_CLASSES + (PcaBasis,)

# numeric fields whose range depends on other fields, so a cross-field rule in
# __post_init__ checks it instead of a declared interval
CROSS_FIELD_CHECKED = {"branch_after_block"}

# the fields a config needs besides the one under test
REQUIRED = {BranchedNetConfig: dict(stage_blocks=(1, 1), stage_widths=(4, 8), bottleneck=False,
                                    branch_after_block=1, num_branches=2, num_classes=3),
            PcaBasis: dict(eigenvalues=np.ones(3), eigenvectors=np.eye(3),
                           channel_means=np.zeros(3)),
            Cifar10Data: dict(dir="bins", train_files=["a.bin"], test_files=["b.bin"])}

# the config section that each class parses; SyntheticSpec is built from SyntheticData
SECTIONS = {BranchedNetConfig: "model", TrainConfig: "train", AugmentConfig: "augment",
            SyntheticData: "data", Cifar10Data: "data"}


def declared_type(cls, name):
    """The type that field ``name`` of ``cls`` declares, ``Optional`` taken off."""
    want = typing.get_type_hints(cls)[name]
    args = [a for a in typing.get_args(want) if a is not type(None)]
    return args[0] if typing.get_origin(want) is typing.Union else want


def is_numeric(want) -> bool:
    """Whether a field of type ``want`` holds numbers: a scalar, list or array."""
    return want in (int, float, tuple[int, ...], np.ndarray)


def field_shape(cls, f):
    """The extents of field ``f`` of ``cls``: () for a scalar, the declared
    shape of an array, and the length of ``REQUIRED``'s value for a list."""
    return f.metadata.get("shape") or np.shape(REQUIRED.get(cls, {}).get(f.name, 0))


def bounded_fields(cls):
    """(name, element type, (lo, hi, lo_open, hi_open), shape) of each bounded
    field of ``cls``."""
    return [(f.name, {tuple[int, ...]: int, np.ndarray: float}.get(want, want),
             f.metadata["bounds"], field_shape(cls, f))
            for f in dataclasses.fields(cls) if "bounds" in f.metadata
            for want in [declared_type(cls, f.name)]]


def _just_outside(want, end, open_end, step):
    """The value nearest ``end`` outside the interval; ``step`` is -1 below it, +1 above."""
    if open_end:
        return end
    return end + step if want is int else math.nextafter(end, step * math.inf)


def outside_values(want, bounds):
    lo, hi, lo_open, hi_open = bounds
    values = [math.nan, math.inf, -math.inf]
    values += [_just_outside(want, end, is_open, step)
               for end, is_open, step in ((lo, lo_open, -1), (hi, hi_open, +1))
               if math.isfinite(end)]
    return values


def closed_ends(bounds):
    lo, hi, lo_open, hi_open = bounds
    return [end for end, is_open in ((lo, lo_open), (hi, hi_open)) if not is_open]


def filled(value, shape):
    """Nested lists of ``shape`` holding ``value`` everywhere; ``value`` for ()."""
    for n in reversed(shape):
        value = [value] * n
    return value


def cases(classes, values):
    """pytest params (cls, name, value, label) over every bounded field of
    ``classes``: ``value`` fills the field, and ``label`` names the field, or
    for a list or array its first element, as a rejection of it begins. Ids
    read like ``TrainConfig.momentum=1``."""
    return [pytest.param(cls, name, filled(value, shape), name + "[0]" * len(shape),
                         id=f"{cls.__name__}.{name}={value!r}")
            for cls in classes for name, want, bounds, shape in bounded_fields(cls)
            for value in values(want, bounds)]


def rejected_cases(classes=CHECKED_CLASSES):
    return cases(classes, outside_values)


def accepted_cases(classes=CHECKED_CLASSES):
    return cases(classes, lambda want, bounds: closed_ends(bounds))
