"""The type rule, and the range rule: every numeric config field declares its
interval in its field metadata, and building the config enforces both."""

import dataclasses
import math
import re
import typing

import numpy as np
import pytest

from branchnet.augment import AugmentConfig, PcaBasis
from branchnet.data import Cifar10Data, SyntheticSpec
from branchnet.model import BranchedNetConfig

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bounds import (CHECKED_CLASSES, CROSS_FIELD_CHECKED, REQUIRED, accepted_cases,
                    declared_type, is_numeric, rejected_cases)


class TestDeclaredBounds:
    @pytest.mark.parametrize("cls, name, value, label", rejected_cases())
    def test_value_outside_declared_bounds_rejected(self, cls, name, value, label):
        with pytest.raises(ValueError, match=rf"^{re.escape(label)} must be"):
            cls(**{**REQUIRED.get(cls, {}), name: value})

    @pytest.mark.parametrize("cls, name, value, label", accepted_cases())
    def test_closed_end_accepted(self, cls, name, value, label):
        assert np.array_equal(getattr(cls(**{**REQUIRED.get(cls, {}), name: value}), name),
                              value)

    def test_every_numeric_field_declares_bounds_or_is_cross_field_checked(self):
        numeric = set()
        for cls in CHECKED_CLASSES:
            for f in dataclasses.fields(cls):
                if is_numeric(declared_type(cls, f.name)):
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
        ("train_files", ["a", 1], "train_files[1] must be a string, got 1"),
        ("test_files", "b.bin", 'test_files must be a list of one or more strings, '
                                'got "b.bin"'),
    ], ids=["dir-int", "dir-null", "files-int-entry", "files-string"])
    def test_mistyped_value_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Cifar10Data(**{**REQUIRED[Cifar10Data], field: value})


# every field that holds a list or an array, and the field whose length a
# cross-field rule ties to it
LIST_FIELDS = [pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
               for cls in CHECKED_CLASSES for f in dataclasses.fields(cls)
               if declared_type(cls, f.name) in (tuple[int, ...], tuple[str, ...], np.ndarray)]
SAME_LENGTH = {"stage_blocks": "stage_widths", "stage_widths": "stage_blocks"}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=12)


class TestListAndArrayFields:
    @pytest.mark.parametrize("cls, name", LIST_FIELDS)
    @given(value=JSON_VALUES)
    @example(value=5)
    @example(value=None)
    @example(value={})
    @example(value=[1, 2, "3"])
    @example(value=[1, 2, True])
    @settings(max_examples=150, deadline=None)
    def test_any_json_value_is_stored_normalized_or_rejected_by_name(self, cls, name, value):
        given = {**REQUIRED.get(cls, {}), name: value}
        if name in SAME_LENGTH and isinstance(value, list) and value:
            given[SAME_LENGTH[name]] = [1] * len(value)
        try:
            stored = getattr(cls(**given), name)
        except ValueError as exc:
            assert re.match(rf"{name}(\[\d+\])* must ", str(exc)), str(exc)
            return
        want = declared_type(cls, name)
        if stored is None:   # an Optional field left unset
            assert value is None
        elif want is np.ndarray:
            field = {f.name: f for f in dataclasses.fields(cls)}[name]
            assert stored.dtype == np.float64 and stored.shape == field.metadata["shape"]
            assert np.all(np.isfinite(stored))
        else:
            assert type(stored) is tuple
            assert all(type(v) is typing.get_args(want)[0] for v in stored)

    @pytest.mark.parametrize("cls, name, value, message", [
        (BranchedNetConfig, "stage_blocks", 5,
         "stage_blocks must be a list of one or more integers, got 5"),
        (BranchedNetConfig, "stage_blocks", None,
         "stage_blocks must be a list of one or more integers, got null"),
        (BranchedNetConfig, "stage_widths", [4, 0], "stage_widths[1] must be >= 1, got 0"),
        (BranchedNetConfig, "stage_widths", [4.5, 8], "stage_widths[0] must be an integer, "
                                                       "got 4.5"),
        (BranchedNetConfig, "stage_blocks", [], "stage_blocks must be a list of one or more "
                                                "integers, got []"),
        (Cifar10Data, "test_files", [], "test_files must be a list of one or more strings, "
                                        "got []"),
        (AugmentConfig, "channel_means", [1, 2, "3"], 'channel_means[2] must be a number, '
                                                      'got "3"'),
        (AugmentConfig, "channel_stds", [1, 2, True], "channel_stds[2] must be a number, "
                                                      "got true"),
        (AugmentConfig, "channel_stds", [1, 2, 0], "channel_stds[2] must be finite and > 0, "
                                                   "got 0"),
        (AugmentConfig, "channel_means", {"r": 1}, 'channel_means must be a list of 3 numbers, '
                                                   'got {"r": 1}'),
        (AugmentConfig, "channel_means", [1.0, 2.0], "channel_means must be a list of 3 "
                                                     "numbers, got [1.0, 2.0]"),
        (PcaBasis, "eigenvectors", [1, 2, 3], "eigenvectors must be a list of 3 lists of 3 "
                                              "numbers, got [1, 2, 3]"),
        (PcaBasis, "eigenvectors", [[1, 0, 0], [0, 1, 0], [0, 0, math.inf]],
         "eigenvectors[2][2] must be finite, got inf"),
        (PcaBasis, "eigenvalues", [3, 2, -1], "eigenvalues[2] must be finite and >= 0, got -1"),
        (PcaBasis, "channel_means", [0, 0, 10**400], "channel_means[2] must be finite, got inf"),
    ], ids=["blocks-int", "blocks-null", "width-zero", "width-fraction", "blocks-empty",
            "files-empty", "mean-string", "std-bool", "std-zero", "mean-object", "mean-short",
            "vectors-flat", "vector-inf", "eigenvalue-negative", "pca-mean-huge"])
    def test_rejection_names_the_field_or_element(self, cls, name, value, message):
        given = {**REQUIRED.get(cls, {}), name: value}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(**given)

    def test_stored_normalized(self):
        config = AugmentConfig(channel_means=[1, 2, 3], channel_stds=np.ones(3, np.float32))
        for value in (config.channel_means, config.channel_stds):
            assert type(value) is np.ndarray and value.dtype == np.float64
        assert config.channel_means.tolist() == [1.0, 2.0, 3.0]
        files = Cifar10Data(**REQUIRED[Cifar10Data]).train_files
        assert files == ("a.bin",)
