"""The type rule, and the range rule: every numeric config field declares its
interval in its field metadata, and building the config enforces both."""

import dataclasses
import math
import re
import typing

import pytest

from branchnet.data import Cifar10Data, SyntheticSpec

from bounds import (CONFIG_CLASSES, CROSS_FIELD_CHECKED, REQUIRED, accepted_cases,
                    rejected_cases)


class TestDeclaredBounds:
    @pytest.mark.parametrize("cls, name, value", rejected_cases())
    def test_value_outside_declared_bounds_rejected(self, cls, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            cls(**{**REQUIRED.get(cls, {}), name: value})

    @pytest.mark.parametrize("cls, name, value", accepted_cases())
    def test_closed_end_accepted(self, cls, name, value):
        assert getattr(cls(**{**REQUIRED.get(cls, {}), name: value}), name) == value

    def test_every_numeric_field_declares_bounds_or_is_cross_field_checked(self):
        numeric = set()
        for cls in CONFIG_CLASSES:
            hints = typing.get_type_hints(cls)
            for f in dataclasses.fields(cls):
                if hints[f.name] in (int, float):
                    numeric.add(f.name)
                    assert ("bounds" in f.metadata) != (f.name in CROSS_FIELD_CHECKED), \
                        f"{cls.__name__}.{f.name}"
        assert CROSS_FIELD_CHECKED <= numeric


class TestSyntheticSpec:
    @pytest.mark.parametrize("field, value, message", [
        ("noise_std", math.nan, "noise_std must be finite and >= 0, got nan"),
        ("noise_std", math.inf, "noise_std must be finite and >= 0, got inf"),
        ("num_classes", 2.5, "num_classes must be an integer, got 2.5"),
        ("samples_per_class", 0, "samples_per_class must be >= 1, got 0"),
        ("image_size", 4, "image_size must be >= 8, got 4"),
    ], ids=["noise-nan", "noise-inf", "classes-fraction", "no-samples", "image-small"])
    def test_invalid_setting_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SyntheticSpec(**{field: value})


class TestStringFields:
    @pytest.mark.parametrize("field, value, message", [
        ("dir", 5, "dir must be a string, got 5"),
        ("dir", None, "dir must be a string, got null"),
        ("train_files", ["a", 1], 'train_files must be a list of strings, got ["a", 1]'),
        ("test_files", "b.bin", 'test_files must be a list of strings, got "b.bin"'),
    ], ids=["dir-int", "dir-null", "files-int-entry", "files-string"])
    def test_mistyped_value_rejected(self, field, value, message):
        given = dict(dir="bins", train_files=["a.bin"], test_files=["b.bin"])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Cifar10Data(**{**given, field: value})
