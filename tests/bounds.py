"""Cases read from the bounds that the config dataclasses declare in their
field metadata (``fields.bounded``): for every bounded field, the values that
must be rejected (NaN, ±inf, and the value just outside each finite end) and
the closed ends that must be accepted."""

import dataclasses
import math
import typing

import pytest

from branchnet.augment import AugmentConfig
from branchnet.data import Cifar10Data, SyntheticData, SyntheticSpec
from branchnet.model import BranchedNetConfig
from branchnet.training import TrainConfig

CONFIG_CLASSES = (BranchedNetConfig, TrainConfig, AugmentConfig, SyntheticSpec, SyntheticData,
                  Cifar10Data)

# numeric fields whose range depends on other fields, so a cross-field rule in
# __post_init__ checks it instead of a declared interval
CROSS_FIELD_CHECKED = {"branch_after_block"}

# the fields a config needs besides the one under test
REQUIRED = {BranchedNetConfig: dict(stage_blocks=(1, 1), stage_widths=(4, 8), bottleneck=False,
                                    branch_after_block=1, num_branches=2, num_classes=3)}

# the config section that each class parses; SyntheticSpec is built from SyntheticData
SECTIONS = {BranchedNetConfig: "model", TrainConfig: "train", AugmentConfig: "augment",
            SyntheticData: "data", Cifar10Data: "data"}


def bounded_fields(cls):
    """(name, type, (lo, hi, lo_open, hi_open)) of each bounded field of ``cls``."""
    hints = typing.get_type_hints(cls)
    return [(f.name, hints[f.name], f.metadata["bounds"])
            for f in dataclasses.fields(cls) if "bounds" in f.metadata]


def _just_outside(want, end, open_end, step):
    """The value nearest ``end`` outside the interval; ``step`` is -1 below it, +1 above."""
    if open_end:
        return end
    return end + step if want is int else math.nextafter(end, step * math.inf)


def outside_values(want, bounds):
    lo, hi, lo_open, hi_open = bounds
    values = [math.nan, math.inf, -math.inf, _just_outside(want, lo, lo_open, -1)]
    if hi != math.inf:
        values.append(_just_outside(want, hi, hi_open, +1))
    return values


def closed_ends(bounds):
    lo, hi, lo_open, hi_open = bounds
    return [end for end, is_open in ((lo, lo_open), (hi, hi_open)) if not is_open]


def cases(classes, values):
    """pytest params (cls, name, value) over every bounded field of ``classes``,
    with ids like ``TrainConfig.momentum=1``."""
    return [pytest.param(cls, name, value, id=f"{cls.__name__}.{name}={value!r}")
            for cls in classes for name, want, bounds in bounded_fields(cls)
            for value in values(want, bounds)]


def rejected_cases(classes=CONFIG_CLASSES):
    return cases(classes, outside_values)


def accepted_cases(classes=CONFIG_CLASSES):
    return cases(classes, lambda want, bounds: closed_ends(bounds))
