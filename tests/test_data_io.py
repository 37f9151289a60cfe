"""Loader byte-level contracts, synthetic determinism, checkpoint integrity."""

import dataclasses
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchnet.augment import AugmentConfig, fit_pca_basis
from branchnet.data import (CheckpointError, Dataset, SyntheticSpec, class_template,
                            generate_synthetic, load_checkpoint,
                            load_cifar10_binary, read_ppm, save_checkpoint,
                            write_ppm)
from branchnet.model import BranchedNetConfig, build_branched_net
from branchnet.training import TrainConfig, train

from bounds import SECTIONS, accepted_cases, rejected_cases
from oracles import template_classify


def make_cifar_file(path, rng, records=4):
    """Synthesize a CIFAR-10-format binary file; returns the raw bytes."""
    raw = bytearray()
    for i in range(records):
        raw.append(int(rng.integers(0, 10)))
        raw.extend(rng.integers(0, 256, size=3072, dtype=np.uint8).tobytes())
    path.write_bytes(bytes(raw))
    return bytes(raw)


class TestDataset:
    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_outside_class_range_rejected(self, label):
        with pytest.raises(ValueError, match=f"label {label} is outside"):
            Dataset(images=np.zeros((2, 4, 4, 3), dtype=np.uint8),
                    labels=np.array([0, label]), num_classes=3)


class TestCifarLoader:
    def test_record_arithmetic_two_samples(self, tmp_path, rng):
        make_cifar_file(tmp_path / "batch.bin", rng, records=2)
        assert (tmp_path / "batch.bin").stat().st_size == 6146
        data = load_cifar10_binary(tmp_path, ["batch.bin"])
        assert len(data) == 2
        assert data.images.shape == (2, 32, 32, 3)

    def test_layout_red_channel_first_pixel(self, tmp_path, rng):
        raw = make_cifar_file(tmp_path / "batch.bin", rng, records=1)
        data = load_cifar10_binary(tmp_path, ["batch.bin"])
        assert data.labels[0] == raw[0]
        assert data.images[0, 0, 0, 0] == raw[1]          # R plane starts at offset 1
        assert data.images[0, 0, 0, 1] == raw[1 + 1024]   # G plane
        assert data.images[0, 0, 0, 2] == raw[1 + 2048]   # B plane

    def test_matches_byte_slicing_oracle(self, tmp_path, rng):
        raw = make_cifar_file(tmp_path / "batch.bin", rng, records=10)
        data = load_cifar10_binary(tmp_path, ["batch.bin"])
        for rec in range(10):
            base = rec * 3073
            assert data.labels[rec] == raw[base]
            for ch in range(3):
                for row in range(32):
                    for col in (0, 13, 31):
                        offset = base + 1 + ch * 1024 + row * 32 + col
                        assert data.images[rec, row, col, ch] == raw[offset]

    def test_bad_length_rejected(self, tmp_path, rng):
        make_cifar_file(tmp_path / "batch.bin", rng, records=2)
        raw = (tmp_path / "batch.bin").read_bytes()
        (tmp_path / "batch.bin").write_bytes(raw[:-1])
        with pytest.raises(ValueError, match="multiple of 3073"):
            load_cifar10_binary(tmp_path, ["batch.bin"])

    def test_label_out_of_range_rejected(self, tmp_path, rng):
        raw = bytearray(make_cifar_file(tmp_path / "batch.bin", rng, records=1))
        raw[0] = 11
        (tmp_path / "batch.bin").write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="label"):
            load_cifar10_binary(tmp_path, ["batch.bin"])

    def test_missing_files_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_cifar10_binary(tmp_path, [])


class TestSyntheticDataset:
    def test_deterministic(self):
        spec = SyntheticSpec(num_classes=4, samples_per_class=5, image_size=16,
                             noise_std=8.0)
        a = generate_synthetic(spec, seed=7)
        b = generate_synthetic(spec, seed=7)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_zero_noise_within_class_identical(self):
        spec = SyntheticSpec(num_classes=3, samples_per_class=4, image_size=16,
                             noise_std=0.0)
        data = generate_synthetic(spec, seed=1)
        for c in range(3):
            imgs = data.images[data.labels == c]
            for img in imgs[1:]:
                np.testing.assert_array_equal(img, imgs[0])

    def test_template_classifier_scores_above_95_percent(self):
        spec = SyntheticSpec(num_classes=10, samples_per_class=20, image_size=16,
                             noise_std=8.0)
        data = generate_synthetic(spec, seed=11)
        templates = [class_template(c, spec) for c in range(10)]
        preds = template_classify(data.images, templates)
        accuracy = float((preds == data.labels).mean())
        assert accuracy > 0.95

    def test_noise_changes_samples(self):
        spec = SyntheticSpec(num_classes=2, samples_per_class=3, image_size=16,
                             noise_std=8.0)
        data = generate_synthetic(spec, seed=2)
        assert not np.array_equal(data.images[0], data.images[1])

    def test_labels_in_range(self):
        spec = SyntheticSpec(num_classes=5, samples_per_class=2, image_size=12)
        data = generate_synthetic(spec, seed=0)
        assert set(np.unique(data.labels)) == set(range(5))


class TestPpm:
    def test_roundtrip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(9, 7, 3), dtype=np.uint8)
        write_ppm(tmp_path / "img.ppm", img)
        np.testing.assert_array_equal(read_ppm(tmp_path / "img.ppm"), img)

    def test_header(self, tmp_path):
        img = np.zeros((2, 3, 3), dtype=np.uint8)
        write_ppm(tmp_path / "img.ppm", img)
        raw = (tmp_path / "img.ppm").read_bytes()
        assert raw.startswith(b"P6\n3 2\n255\n")
        assert len(raw) == len(b"P6\n3 2\n255\n") + 2 * 3 * 3

    def test_non_p6_rejected(self, tmp_path):
        (tmp_path / "img.ppm").write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(ValueError, match="P6"):
            read_ppm(tmp_path / "img.ppm")

    @pytest.mark.parametrize("raw, message", [
        (b"P6\n4", "PPM header height is missing or not an integer, got b''"),
        (b"P6\n4 4\n", "PPM header maxval is missing or not an integer, got b''"),
        (b"P6\n4 x\n255\n", "PPM header height is missing or not an integer, got b'x'"),
        (b"P6\n2.5 1\n255\n" + bytes(6),
         "PPM header width is missing or not an integer, got b'2.5'"),
        (b"P6\n0 0\n255\n", "PPM width and height must be positive, got 0x0"),
        (b"P6\n-1 2\n255\n" + bytes(6), "PPM width and height must be positive, got -1x2"),
        (b"P6\n3 0\n255\n", "PPM width and height must be positive, got 3x0"),
    ], ids=["truncated", "no-maxval", "height-word", "width-fraction", "zero", "negative",
            "zero-height"])
    def test_bad_header_named_with_the_file(self, tmp_path, raw, message):
        path = tmp_path / "img.ppm"
        path.write_bytes(raw)
        with pytest.raises(ValueError) as info:
            read_ppm(path)
        assert str(info.value) == f"{path}: {message}"


def _training_setup(total_epochs, seed=13):
    cfg = BranchedNetConfig(stage_blocks=(1, 1), stage_widths=(4, 8),
                            bottleneck=False, branch_after_block=1,
                            num_branches=2, num_classes=3,
                            input_channels=3, input_height=8, input_width=8)
    data = generate_synthetic(SyntheticSpec(num_classes=3, samples_per_class=8,
                                            image_size=8, noise_std=6.0),
                              seed=55, split="train")
    train_cfg = TrainConfig(batch_size=8, total_epochs=total_epochs, base_lr=0.02,
                            seed=seed, num_classes=3)
    augment = AugmentConfig(crop_height=8, crop_width=8, enable_crop=False,
                            enable_jitter=False, enable_pca=False,
                            channel_means=np.full(3, 110.0))
    net = build_branched_net(cfg, seed=seed)
    return net, data, train_cfg, augment


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        net, data, cfg, augment = _training_setup(total_epochs=1)
        checkpoint, _ = train(net, data, cfg, augment)
        save_checkpoint(tmp_path / "model.ckpt", checkpoint)
        loaded = load_checkpoint(tmp_path / "model.ckpt")
        assert set(loaded.tensors) == set(checkpoint.tensors)
        for name, arr in checkpoint.tensors.items():
            np.testing.assert_array_equal(loaded.tensors[name], arr)
            assert loaded.tensors[name].dtype == arr.dtype
        assert loaded.model_config == checkpoint.model_config
        assert loaded.train_config == checkpoint.train_config
        assert loaded.epoch == checkpoint.epoch
        assert loaded.rng_cursor == checkpoint.rng_cursor

    def test_truncation_rejected_with_record_context(self, tmp_path):
        net, data, cfg, augment = _training_setup(total_epochs=0)
        checkpoint, _ = train(net, data, cfg, augment)
        save_checkpoint(tmp_path / "model.ckpt", checkpoint)
        raw = (tmp_path / "model.ckpt").read_bytes()
        (tmp_path / "model.ckpt").write_bytes(raw[:-1])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(tmp_path / "model.ckpt")

    def test_bad_magic_rejected(self, tmp_path):
        (tmp_path / "model.ckpt").write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(tmp_path / "model.ckpt")

    def test_save_is_deterministic_bytes(self, tmp_path):
        net, data, cfg, augment = _training_setup(total_epochs=1)
        checkpoint, _ = train(net, data, cfg, augment)
        save_checkpoint(tmp_path / "a.ckpt", checkpoint)
        save_checkpoint(tmp_path / "b.ckpt", checkpoint)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_tensor_outside_the_registry_is_not_restored(self, tmp_path):
        from branchnet.training import restore_network

        net, data, cfg, augment = _training_setup(total_epochs=0)
        checkpoint, _ = train(net, data, cfg, augment)
        junk = dataclasses.replace(checkpoint, tensors={**checkpoint.tensors,
                                                        "junk/x": np.zeros(2)})
        save_checkpoint(tmp_path / "junk.ckpt", junk)
        with pytest.raises(CheckpointError, match="'junk/x' is not in the model registry"):
            restore_network(load_checkpoint(tmp_path / "junk.ckpt"))

    def test_leftover_augment_tensor_rejected(self, tmp_path):
        net, data, cfg, augment = _training_setup(total_epochs=0)
        checkpoint, _ = train(net, data, cfg, augment)
        extra = dataclasses.replace(checkpoint, tensors={**checkpoint.tensors,
                                                         "augment/extra": np.zeros(2)})
        save_checkpoint(tmp_path / "extra.ckpt", extra)
        with pytest.raises(CheckpointError, match="augment section .*tensor 'augment/extra' "
                                                  "is present but no set header flag names it"):
            load_checkpoint(tmp_path / "extra.ckpt")

    @pytest.mark.parametrize("dtype", [np.int64, np.float16, np.bool_])
    def test_tensor_of_another_dtype_not_written(self, tmp_path, dtype):
        net, data, cfg, augment = _training_setup(total_epochs=0)
        checkpoint, _ = train(net, data, cfg, augment)
        key = "model/stem.bn.running_var"
        bad = dataclasses.replace(checkpoint, tensors={
            **checkpoint.tensors, key: checkpoint.tensors[key].astype(dtype)})
        with pytest.raises(ValueError, match=f"tensor '{key}' has dtype "
                                             f"{np.dtype(dtype)}, not float64 or float32"):
            save_checkpoint(tmp_path / "bad.ckpt", bad)
        assert list(tmp_path.iterdir()) == []

    def test_split_run_resume_equals_uninterrupted(self, tmp_path):
        from branchnet.training import restore_network

        # uninterrupted: 5 epochs
        net_a, data, cfg5, augment = _training_setup(total_epochs=5)
        ck_a, _ = train(net_a, data, cfg5, augment)

        # split: 3 epochs, checkpoint to disk, reload, resume for 2 more
        net_b, _, cfg3, _ = _training_setup(total_epochs=3)
        ck_mid, _ = train(net_b, data, cfg3, augment)
        save_checkpoint(tmp_path / "mid.ckpt", ck_mid)
        restored = load_checkpoint(tmp_path / "mid.ckpt")
        net_c, opt_state = restore_network(restored)
        cfg_resume = TrainConfig(**{**cfg5.__dict__})
        ck_b, _ = train(net_c, data, cfg_resume, restored.augment_config,
                        start_epoch=restored.epoch, optimizer_state=opt_state)

        assert set(ck_a.tensors) == set(ck_b.tensors)
        for name in ck_a.tensors:
            np.testing.assert_array_equal(ck_a.tensors[name], ck_b.tensors[name],
                                          err_msg=name)


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    net, data, cfg, augment = _training_setup(total_epochs=0)
    checkpoint, _ = train(net, data, cfg, augment)
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    save_checkpoint(path, checkpoint)
    return path.read_bytes()


@pytest.fixture(scope="module")
def flipped_path(tmp_path_factory):
    return tmp_path_factory.mktemp("flip") / "flipped.ckpt"


def _header_blob(raw):
    (length,) = struct.unpack("<I", raw[12:16])
    return raw[16:16 + length]


def _with_header(raw, blob):
    """The checkpoint with its JSON header block replaced by ``blob``."""
    rest = raw[16 + len(_header_blob(raw)):]
    return raw[:12] + struct.pack("<I", len(blob)) + blob + rest


def _edited_header(raw, edit):
    header = json.loads(_header_blob(raw))
    edit(header)
    return _with_header(raw, json.dumps(header, sort_keys=True).encode())


def _section_edit(cls, name, value):
    """A header edit setting ``name`` in the section that holds ``cls``."""
    return lambda raw: _edited_header(raw, lambda h: h[SECTIONS[cls]].update({name: value}))


# the configs a checkpoint header holds, as the Checkpoint attributes they load into
_HEADER_CONFIGS = {BranchedNetConfig: "model_config", TrainConfig: "train_config",
                   AugmentConfig: "augment_config"}


def _header_cases(cases):
    """The cases of fields that a header holds as JSON values: not the augment
    section's arrays, which it holds as tensors behind a boolean flag."""
    return [case for case in cases
            if not (case.values[0] is AugmentConfig and case.values[3] != case.values[1])]


_BOUND_CASES = _header_cases(rejected_cases(_HEADER_CONFIGS))
_BOUND_EDITS = [(_section_edit(*case.values[:3]),
                 f"{SECTIONS[case.values[0]]} section .*{re.escape(case.values[3])} must be")
                for case in _BOUND_CASES]
_BOUND_EDIT_IDS = [case.id for case in _BOUND_CASES]


class TestMalformedCheckpoint:
    """Every malformed part of a file raises CheckpointError, nothing else."""

    @pytest.mark.parametrize("make, match", [
        (lambda raw: _with_header(raw, b"\xff" + _header_blob(raw)[1:]), "JSON header"),
        (lambda raw: _with_header(raw, b'{"model": '), "JSON header"),
        (lambda raw: _with_header(raw, b"[1, 2]"), "not an object"),
        (lambda raw: _edited_header(raw, lambda h: h.pop("epoch")), "missing key 'epoch'"),
        (lambda raw: _edited_header(raw, lambda h: h.update(tensor_count="9")),
         "tensor_count is malformed"),
        (lambda raw: _edited_header(raw, lambda h: h.update(tensor_count=True)),
         "tensor_count is malformed"),
        (lambda raw: _edited_header(raw, lambda h: h.update(tensor_count=-1)),
         "tensor_count is malformed"),
        (lambda raw: _edited_header(raw, lambda h: h["model"].update(num_branches=0)),
         "model section"),
        (lambda raw: _edited_header(raw, lambda h: h["train"].update(momentum_x=1)),
         "train section"),
        (lambda raw: _edited_header(raw, lambda h: h["model"].update(stem_pool="false")),
         "model section .*stem_pool must be a boolean"),
        (lambda raw: _edited_header(raw, lambda h: h["model"].update(stem_pool=1)),
         "model section .*stem_pool must be a boolean"),
        (lambda raw: _edited_header(raw, lambda h: h["model"].update(num_branches=2.0)),
         "model section .*num_branches must be an integer"),
        (lambda raw: _edited_header(raw, lambda h: h["model"].update(stem_kernel=3.0)),
         "model section .*stem_kernel must be an integer"),
        (lambda raw: _edited_header(raw, lambda h: h["model"].update(num_classes=True)),
         "model section .*num_classes must be an integer"),
        (lambda raw: _edited_header(raw, lambda h: h["train"].update(
            seed=float(h["train"]["seed"]))), "train section .*seed must be an integer"),
        (lambda raw: _edited_header(raw, lambda h: h["train"].update(
            batch_size=float(h["train"]["batch_size"]))),
         "train section .*batch_size must be an integer"),
        (lambda raw: _edited_header(raw, lambda h: h["train"].update(base_lr=True)),
         "train section .*base_lr must be a number"),
        (lambda raw: _edited_header(raw, lambda h: h["augment"].update(enable_flip=1)),
         "augment section .*enable_flip must be a boolean"),
        (lambda raw: _edited_header(raw, lambda h: h["augment"].update(crop_width=8.0)),
         "augment section .*crop_width must be an integer"),
        (lambda raw: _edited_header(raw, lambda h: h["augment"].pop("pca_basis")),
         "augment section"),
        (lambda raw: _edited_header(raw, lambda h: h["augment"].update(channel_means=False)),
         "augment section .*tensor 'augment/channel_means' is present but no set "
         "header flag names it"),
        (lambda raw: _edited_header(raw, lambda h: h["augment"].update(channel_means=7)),
         "augment section .*flag channel_means must be a boolean, got 7"),
        (lambda raw: _edited_header(raw, lambda h: h["augment"].update(channel_means=1)),
         "augment section .*flag channel_means must be a boolean, got 1"),
        (lambda raw: _edited_header(raw, lambda h: h["augment"].update(pca_basis=True)),
         "augment section .*tensor 'augment/pca_channel_means' is missing"),
        (lambda raw: _edited_header(
            raw, lambda h: h["augment"].update(flip_probability=2.0)), "augment section"),
        (lambda raw: _edited_header(raw, lambda h: h["augment"].update(pca_sigma=math.nan)),
         "augment section .*pca_sigma must be finite and >= 0, got nan"),
        (lambda raw: _edited_header(
            raw, lambda h: h["augment"].update(jitter_strength=math.inf)),
         "augment section .*jitter_strength must be finite and >= 0, got inf"),
        (lambda raw: _edited_header(raw, lambda h: (h["train"].update(seed=2**64),
                                                    h["rng_cursor"].update(global_seed=2**64))),
         r"train section .*seed must be in \[0, 2\*\*64\)"),
        (lambda raw: _edited_header(raw, lambda h: h.update(epoch="1")), "header epoch"),
        (lambda raw: _edited_header(raw, lambda h: h.update(epoch=-1)), "header epoch"),
        (lambda raw: _edited_header(raw, lambda h: h.update(epoch=True)), "header epoch"),
        (lambda raw: _edited_header(raw, lambda h: h.update(epoch=1.0)), "header epoch"),
        (lambda raw: _edited_header(raw, lambda h: h.update(rng_cursor=[7, 1])),
         "header rng_cursor"),
        (lambda raw: _edited_header(raw, lambda h: h["rng_cursor"].pop("next_epoch")),
         "header rng_cursor"),
        (lambda raw: _edited_header(raw, lambda h: h["rng_cursor"].update(global_seed="7")),
         "header rng_cursor"),
        (lambda raw: _edited_header(raw, lambda h: h["rng_cursor"].update(next_epoch=False)),
         "header rng_cursor"),
        (lambda raw: _edited_header(raw, lambda h: h["rng_cursor"].update(next_epoch=-2)),
         "header rng_cursor"),
        (lambda raw: _edited_header(
            raw, lambda h: h["rng_cursor"].update(next_epoch=h["epoch"] + 1)),
         "header rng_cursor .* disagrees with the train seed and epoch"),
        (lambda raw: _edited_header(
            raw, lambda h: h["rng_cursor"].update(global_seed=h["train"]["seed"] + 1)),
         "header rng_cursor .* disagrees with the train seed and epoch"),
    ] + _BOUND_EDITS,
        ids=["header-not-utf8", "header-not-json", "header-not-object", "missing-key",
            "tensor-count-type", "tensor-count-bool", "tensor-count-negative",
            "model-rejected", "train-rejected",
            "stem-pool-string", "stem-pool-int", "branches-float", "stem-kernel-float",
            "classes-bool", "seed-float", "batch-size-float", "base-lr-bool", "augment-flag-int",
            "crop-width-float",
            "augment-missing-flag", "augment-flag-false-tensor-present", "augment-flag-7",
            "augment-flag-1", "augment-flag-true-tensor-missing", "augment-rejected",
            "augment-pca-nan",
            "augment-jitter-inf", "seed-2**64", "epoch-string", "epoch-negative",
            "epoch-bool", "epoch-float", "cursor-not-object", "cursor-missing-epoch",
            "cursor-seed-string", "cursor-epoch-bool", "cursor-epoch-negative",
            "cursor-epoch-ahead", "cursor-seed-other"] + _BOUND_EDIT_IDS)
    def test_header_rejected(self, tmp_path, checkpoint_bytes, make, match):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(make(checkpoint_bytes))
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("cls, name, value, label",
                             _header_cases(accepted_cases(_HEADER_CONFIGS)))
    def test_header_closed_end_accepted(self, tmp_path, checkpoint_bytes, cls, name, value,
                                        label):
        raw = _section_edit(cls, name, value)(checkpoint_bytes)
        if name == "seed":   # the cursor follows the train seed
            raw = _edited_header(raw, lambda h: h["rng_cursor"].update(global_seed=value))
        (tmp_path / "ends.ckpt").write_bytes(raw)
        config = getattr(load_checkpoint(tmp_path / "ends.ckpt"), _HEADER_CONFIGS[cls])
        assert np.array_equal(getattr(config, name), value)

    @pytest.mark.parametrize("section, key", [
        (SECTIONS[cls], f.name) for cls in _HEADER_CONFIGS for f in dataclasses.fields(cls)])
    def test_header_key_missing_rejected(self, tmp_path, checkpoint_bytes, section, key):
        # the writer names every field, so a missing key is damage, not a default
        raw = _edited_header(checkpoint_bytes, lambda h: h[section].pop(key))
        (tmp_path / "bad.ckpt").write_bytes(raw)
        with pytest.raises(CheckpointError,
                           match=f"{section} section .*{section} needs key\\(s\\) {key}\\b"):
            load_checkpoint(tmp_path / "bad.ckpt")

    def test_repeated_tensor_name_rejected(self, tmp_path, checkpoint_bytes):
        # the later record used to replace the earlier one unseen
        table = checkpoint_bytes[16 + len(_header_blob(checkpoint_bytes)):]
        # the first record: name length, name, dtype tag, rank, one extent, 3 float64s
        name = b"augment/channel_means"
        record = table[:4 + len(name) + 2 + 8 + 3 * 8]
        assert record[4:4 + len(name)] == name
        raw = _edited_header(checkpoint_bytes,
                             lambda h: h.update(tensor_count=h["tensor_count"] + 1))
        (tmp_path / "bad.ckpt").write_bytes(raw[:len(raw) - len(table)] + record + table)
        with pytest.raises(CheckpointError,
                           match="tensor 'augment/channel_means' appears twice"):
            load_checkpoint(tmp_path / "bad.ckpt")

    def test_tensor_name_not_utf8_rejected(self, tmp_path, checkpoint_bytes):
        first_name = 16 + len(_header_blob(checkpoint_bytes)) + 4
        raw = bytearray(checkpoint_bytes)
        raw[first_name] = 0xFF
        (tmp_path / "bad.ckpt").write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="tensor name"):
            load_checkpoint(tmp_path / "bad.ckpt")

    @staticmethod
    def _pca_checkpoint_bytes(tmp_path):
        net, data, cfg, augment = _training_setup(total_epochs=0)
        augment = dataclasses.replace(augment, enable_pca=True,
                                      pca_basis=fit_pca_basis(data.images))
        checkpoint, _ = train(net, data, cfg, augment)
        save_checkpoint(tmp_path / "pca.ckpt", checkpoint)
        return (tmp_path / "pca.ckpt").read_bytes()

    def test_pca_basis_of_wrong_shape_rejected(self, tmp_path):
        raw = self._pca_checkpoint_bytes(tmp_path)
        # the record's name, then its dtype tag and rank, then the (3, 3) extents
        extents = raw.index(b"augment/pca_eigenvectors") + len(b"augment/pca_eigenvectors") + 2
        assert raw[extents:extents + 16] == struct.pack("<QQ", 3, 3)
        (tmp_path / "bad.ckpt").write_bytes(
            raw[:extents] + struct.pack("<QQ", 1, 9) + raw[extents + 16:])
        with pytest.raises(CheckpointError, match="augment section"):
            load_checkpoint(tmp_path / "bad.ckpt")

    @pytest.mark.parametrize("name, rank, value, message", [
        ("augment/pca_eigenvalues", 1, math.nan, r"eigenvalues\[0\] must be finite and >= 0, "
                                                  "got nan"),
        ("augment/pca_eigenvalues", 1, -5.0, r"eigenvalues\[0\] must be finite and >= 0, "
                                             "got -5.0"),
        ("augment/pca_eigenvectors", 2, math.nan, r"eigenvectors\[0\]\[0\] must be finite, "
                                                  "got nan"),
        ("augment/pca_channel_means", 1, math.nan, r"channel_means\[0\] must be finite, got nan"),
        ("augment/channel_means", 1, math.nan, r"channel_means\[0\] must be finite, got nan"),
    ], ids=["eigenvalue-nan", "eigenvalue-negative", "eigenvector-nan", "pca-mean-nan",
            "mean-nan"])
    def test_augment_tensor_outside_its_field_bounds_rejected(self, tmp_path, name, rank,
                                                              value, message):
        # a resumed run would otherwise stop later as "training diverged"
        raw = self._pca_checkpoint_bytes(tmp_path)
        # the record's name, then its dtype tag, rank and extents, then its first float64
        first = raw.index(name.encode()) + len(name) + 2 + 8 * rank
        (tmp_path / "bad.ckpt").write_bytes(
            raw[:first] + struct.pack("<d", value) + raw[first + 8:])
        with pytest.raises(CheckpointError, match=f"augment section .*{message}"):
            load_checkpoint(tmp_path / "bad.ckpt")

    # the magic, version, header length, JSON header and first tensor records
    HEADER_REGION = 1024

    @given(bit=st.integers(0, HEADER_REGION * 8 - 1))
    @settings(max_examples=300, deadline=None)
    def test_header_bit_flip_raises_checkpoint_error_or_loads(self, checkpoint_bytes,
                                                               flipped_path, bit):
        raw = bytearray(checkpoint_bytes)
        raw[bit // 8] ^= 1 << (bit % 8)
        flipped_path.write_bytes(bytes(raw))
        try:
            load_checkpoint(flipped_path)
        except CheckpointError:
            pass
