"""Dataset ingestion (CIFAR-10 binary records, deterministic synthetic
renderer, and the experiment data sections that name them) and the
checkpoint file format (``training.Checkpoint`` is what a run's state holds;
this module only says how its bytes look).

Checkpoint format: magic ``BRNCHNET``, 4-byte little-endian version, a
length-prefixed JSON block (configs, epoch counter, RNG cursor, tensor
count), then a tensor table of records: u32 name length + UTF-8 name,
1-byte dtype tag (0=float64, 1=float32), 1-byte rank, u64 extents, raw
little-endian payload. Writes are atomic (temp file + rename); round trips
are bitwise exact.
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import tempfile
from dataclasses import dataclass, asdict, astuple, replace
from pathlib import Path
from typing import ClassVar, Sequence

import numpy as np

from .augment import KEY_LIMIT, AugmentConfig, PcaBasis
from .fields import Checked, bounded, fits, from_section, like, mistyped
from .model import BranchedNetConfig
from .training import Checkpoint, CheckpointError, TrainConfig

CIFAR_RECORD_BYTES = 3073  # 1 label byte + 3 * 1024 channel-planar pixels
CIFAR_CLASSES = 10
CHECKPOINT_MAGIC = b"BRNCHNET"
CHECKPOINT_VERSION = 1
_PPM_FIELD = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")   # whitespace, comment lines, a token

_DTYPE_TAGS = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}


@dataclass
class Dataset:
    images: np.ndarray          # (N, H, W, 3) uint8
    labels: np.ndarray          # (N,) int64
    num_classes: int
    split: str = ""
    source: str = ""

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError(
                f"images ({len(self.images)}) and labels ({len(self.labels)}) "
                "must have equal length")
        outside = (self.labels < 0) | (self.labels >= self.num_classes)
        if np.any(outside):
            raise ValueError(
                f"label {int(self.labels[outside][0])} is outside [0, {self.num_classes})")

    def __len__(self) -> int:
        return len(self.images)


# ---------------------------------------------------------------------------
# CIFAR-10 binary format

def load_cifar10_binary(directory, files: Sequence[str], split: str = "") -> Dataset:
    """Read 3073-byte records (label, then 32x32 R/G/B planes, row-major)
    from ``files`` in ``directory``, in the order given.
    """
    directory = Path(directory)
    if not files:
        raise FileNotFoundError(f"no CIFAR-10 .bin files named for {directory}")
    images = []
    labels = []
    for fname in files:
        raw = (directory / fname).read_bytes()
        if len(raw) % CIFAR_RECORD_BYTES != 0:
            raise ValueError(
                f"{fname}: length {len(raw)} is not a multiple of {CIFAR_RECORD_BYTES}")
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD_BYTES)
        file_labels = records[:, 0].astype(np.int64)
        if file_labels.size and int(file_labels.max()) >= CIFAR_CLASSES:
            raise ValueError(f"{fname}: label {int(file_labels.max())} out of range "
                             f"(must be < {CIFAR_CLASSES})")
        pixels = records[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1)
        images.append(pixels)
        labels.append(file_labels)
    return Dataset(images=np.concatenate(images), labels=np.concatenate(labels),
                   num_classes=CIFAR_CLASSES, split=split,
                   source="cifar10:" + ",".join(files))


# ---------------------------------------------------------------------------
# synthetic renderer

@dataclass(frozen=True)
class SyntheticSpec(Checked):
    num_classes: int = bounded(2, default=10)
    samples_per_class: int = bounded(1, default=50)
    image_size: int = bounded(8, default=32)
    noise_std: float = bounded(0, default=8.0)


def class_template(c: int, spec: SyntheticSpec) -> np.ndarray:
    """Noiseless class-c image: an axis-aligned colored rectangle whose
    color and position are deterministic functions of c."""
    s = spec.image_size
    img = np.full((s, s, 3), 96.0)
    angle = 2.0 * np.pi * c / spec.num_classes
    # rectangle center stays in the middle half so small crops keep it visible
    cy = s / 2.0 + 0.22 * s * np.sin(angle)
    cx = s / 2.0 + 0.22 * s * np.cos(angle)
    half = max(2, s // 6)
    y0, y1 = int(round(cy - half)), int(round(cy + half))
    x0, x1 = int(round(cx - half)), int(round(cx + half))
    phase = 2.0 * np.pi * c / spec.num_classes
    color = 127.5 + 120.0 * np.array([np.sin(phase),
                                      np.sin(phase + 2.0 * np.pi / 3.0),
                                      np.sin(phase + 4.0 * np.pi / 3.0)])
    img[max(y0, 0):min(y1, s), max(x0, 0):min(x1, s)] = color
    return img


def generate_synthetic(spec: SyntheticSpec, seed: int, split: str = "") -> Dataset:
    """Deterministic rectangles-plus-Gaussian-noise dataset; images of a
    class are identical when noise_std is 0."""
    rng = np.random.default_rng(np.random.SeedSequence((seed,) + tuple(b"synthetic")))
    templates = [class_template(c, spec) for c in range(spec.num_classes)]
    images = []
    labels = []
    for c in range(spec.num_classes):
        for _ in range(spec.samples_per_class):
            noisy = templates[c] + rng.normal(0.0, spec.noise_std, templates[c].shape)
            images.append(np.clip(noisy, 0.0, 255.0).astype(np.uint8))
            labels.append(c)
    return Dataset(images=np.stack(images), labels=np.asarray(labels, dtype=np.int64),
                   num_classes=spec.num_classes, split=split,
                   source=f"synthetic:seed={seed}")


# ---------------------------------------------------------------------------
# an experiment's data section: one of these, chosen by its "kind" key

@dataclass(frozen=True)
class SyntheticData(Checked):
    """Synthetic train and test splits of one rendering; the test split's
    seed is one above the training split's."""
    num_classes: int = like(SyntheticSpec, "num_classes")
    train_samples_per_class: int = bounded(1, default=50)
    test_samples_per_class: int = bounded(1, default=20)
    image_size: int = like(SyntheticSpec, "image_size")
    noise_std: float = like(SyntheticSpec, "noise_std")
    seed: int = bounded(0, KEY_LIMIT, hi_open=True, default=1234)

    def load(self, split: str) -> Dataset:
        spec = SyntheticSpec(self.num_classes, getattr(self, f"{split}_samples_per_class"),
                             self.image_size, self.noise_std)
        return generate_synthetic(spec, self.seed + (1 if split == "test" else 0), split=split)


@dataclass(frozen=True)
class Cifar10Data(Checked):
    """CIFAR-10 binary batches in ``dir``, each split read from its own files."""
    dir: str
    train_files: tuple[str, ...]
    test_files: tuple[str, ...]
    num_classes: ClassVar[int] = CIFAR_CLASSES

    def load(self, split: str) -> Dataset:
        return load_cifar10_binary(self.dir, getattr(self, f"{split}_files"), split=split)


# ---------------------------------------------------------------------------
# PPM (P6) image dumps

def write_ppm(path, image: np.ndarray) -> None:
    img = np.asarray(image)
    if img.dtype != np.uint8:
        img = np.clip(np.round(img), 0, 255).astype(np.uint8)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"PPM image must be (H, W, 3), got {img.shape}")
    h, w = img.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(img.tobytes())


def read_ppm(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if not raw.startswith(b"P6"):
        raise ValueError(f"{path}: not a binary PPM (P6) file")
    # header = magic, width, height, maxval as whitespace-separated tokens
    # (comment lines starting with '#' allowed), then a single whitespace byte
    values, pos = [], 2
    for name in ("width", "height", "maxval"):
        field = _PPM_FIELD.match(raw, pos)
        pos = field.end()
        if not re.fullmatch(rb"-?[0-9]+", field[1]):
            raise ValueError(f"{path}: PPM header {name} is missing or not an integer, "
                             f"got {field[1]!r}")
        values.append(int(field[1]))
    pos += 1  # the single whitespace after maxval
    w, h, maxval = values
    if w < 1 or h < 1:
        raise ValueError(f"{path}: PPM width and height must be positive, got {w}x{h}")
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")
    pixels = np.frombuffer(raw, dtype=np.uint8, count=h * w * 3, offset=pos)
    if pixels.size != h * w * 3:
        raise ValueError(f"{path}: truncated pixel data")
    return pixels.reshape(h, w, 3).copy()


# ---------------------------------------------------------------------------
# checkpoints

# each array field of AugmentConfig -> the augment/ tensors that hold it
_AUGMENT_TENSORS = {"channel_means": ("augment/channel_means",),
                    "channel_stds": ("augment/channel_stds",),
                    "pca_basis": ("augment/pca_eigenvalues", "augment/pca_eigenvectors",
                                  "augment/pca_channel_means")}


def _augment_parts(aug: AugmentConfig) -> tuple[dict, dict[str, np.ndarray]]:
    """The header section and the ``augment/`` tensors of ``aug``: each set
    array field moves to the tensor table, and the header keeps only a flag
    saying whether it is set."""
    meta, arrays = asdict(aug), {}
    for key, names in _AUGMENT_TENSORS.items():
        value = getattr(aug, key)
        meta[key] = value is not None
        if value is not None:
            arrays.update(zip(names, astuple(value) if key == "pca_basis" else (value,)))
    return meta, arrays


def _augment_from_parts(meta: dict, arrays: dict[str, np.ndarray]) -> AugmentConfig:
    """The inverse of ``_augment_parts``. The section names every field, each
    flag is a boolean, and the ``augment/`` tensors are those the set flags name."""
    # the keys and scalar values first, each array field held unset
    config = from_section(AugmentConfig, "augment", {
        **meta, **dict.fromkeys(meta.keys() & _AUGMENT_TENSORS.keys())}, every_key=True)
    for key in _AUGMENT_TENSORS:
        if not fits(meta[key], bool):
            raise ValueError(mistyped(f"flag {key}", meta[key], bool))
    named = {name for key, names in _AUGMENT_TENSORS.items() if meta[key] for name in names}
    wrong = sorted(named ^ arrays.keys())
    if wrong:
        state = "missing" if wrong[0] in named else "present but no set header flag names it"
        raise ValueError(f"tensor {wrong[0]!r} is {state}")
    pca = [arrays[name] for name in _AUGMENT_TENSORS["pca_basis"] if name in arrays]
    return replace(config, channel_means=arrays.get("augment/channel_means"),
                   channel_stds=arrays.get("augment/channel_stds"),
                   pca_basis=PcaBasis(*pca) if pca else None)


def save_checkpoint(path, checkpoint: Checkpoint) -> None:
    """Atomic write: serialize to a temp file in the target directory, then
    rename over the destination. A tensor that is not float64 or float32
    raises ``ValueError`` naming it."""
    augment, augment_arrays = _augment_parts(checkpoint.augment_config)
    tensors = {**checkpoint.tensors, **augment_arrays}
    header = {
        "model": asdict(checkpoint.model_config),
        "train": asdict(checkpoint.train_config),
        "augment": augment,
        "epoch": checkpoint.epoch,
        "rng_cursor": checkpoint.rng_cursor,
        "tensor_count": len(tensors),
    }
    blob = json.dumps(header, sort_keys=True).encode()

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            for name in sorted(tensors):
                arr = np.ascontiguousarray(tensors[name])
                if arr.dtype not in _DTYPE_TAGS:
                    raise ValueError(f"checkpoint tensor {name!r} has dtype {arr.dtype}, "
                                     "not float64 or float32")
                encoded = name.encode()
                f.write(struct.pack("<I", len(encoded)))
                f.write(encoded)
                f.write(struct.pack("<B", _DTYPE_TAGS[arr.dtype]))
                f.write(struct.pack("<B", arr.ndim))
                for extent in arr.shape:
                    f.write(struct.pack("<Q", extent))
                f.write(arr.astype(arr.dtype.newbyteorder("<")).tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, raw: bytes, context: str):
        self.raw = raw
        self.pos = 0
        self.context = context

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.raw):
            raise CheckpointError(
                f"truncated checkpoint while reading {what} "
                f"(at {self.context}, offset {self.pos})")
        out = self.raw[self.pos:self.pos + n]
        self.pos += n
        return out


def _parsed(section: str, build):
    """``build()``, re-raising its rejection of malformed input as ``CheckpointError``."""
    try:
        return build()
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise CheckpointError(f"checkpoint {section} is malformed: {exc!r}") from exc


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; any malformed part raises ``CheckpointError`` naming it."""
    raw = Path(path).read_bytes()
    rd = _Reader(raw, "header")
    magic = rd.take(len(CHECKPOINT_MAGIC), "magic")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    (version,) = struct.unpack("<I", rd.take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (blob_len,) = struct.unpack("<I", rd.take(4, "header length"))
    blob = rd.take(blob_len, "JSON header")
    header = _parsed("JSON header", lambda: json.loads(blob.decode("utf-8")))
    if not isinstance(header, dict):
        raise CheckpointError(f"JSON header is a {type(header).__name__}, not an object")
    for key in ("model", "train", "augment", "epoch", "rng_cursor", "tensor_count"):
        if key not in header:
            raise CheckpointError(f"JSON header is missing key {key!r}")
    for key in ("epoch", "tensor_count"):
        if not (fits(header[key], int) and header[key] >= 0):
            raise CheckpointError(f"header {key} is malformed: {header[key]!r} "
                                  "is not a non-negative int")

    tensors: dict[str, np.ndarray] = {}
    for _ in range(header["tensor_count"]):
        (name_len,) = struct.unpack("<I", rd.take(4, "tensor name length"))
        name = _parsed(f"tensor name at offset {rd.pos}", rd.take(name_len, "tensor name").decode)
        if name in tensors:
            raise CheckpointError(f"tensor {name!r} appears twice in the tensor table")
        rd.context = name
        (tag,) = struct.unpack("<B", rd.take(1, "dtype tag"))
        if tag not in _TAG_DTYPES:
            raise CheckpointError(f"unknown dtype tag {tag} for tensor {name!r}")
        dtype = _TAG_DTYPES[tag]
        (rank,) = struct.unpack("<B", rd.take(1, "rank"))
        shape = tuple(struct.unpack("<Q", rd.take(8, "extent"))[0] for _ in range(rank))
        nbytes = math.prod(shape) * dtype.itemsize
        payload = rd.take(nbytes, "payload")
        tensors[name] = _parsed(f"tensor {name!r}", lambda: np.frombuffer(
            payload, dtype=dtype.newbyteorder("<")).astype(dtype).reshape(shape))
    if rd.pos != len(raw):
        raise CheckpointError(f"{len(raw) - rd.pos} trailing bytes after tensor table")

    augment_arrays = {k: tensors.pop(k) for k in list(tensors) if k.startswith("augment/")}
    checkpoint = Checkpoint(
        model_config=_parsed("model section", lambda: from_section(
            BranchedNetConfig, "model", header["model"], every_key=True)),
        train_config=_parsed("train section", lambda: from_section(
            TrainConfig, "train", header["train"], every_key=True)),
        augment_config=_parsed("augment section", lambda: _augment_from_parts(
            header["augment"], augment_arrays)),
        epoch=header["epoch"],
        tensors=tensors)
    # compared as JSON text, so that false or 7.0 does not pass for 0 or 7
    cursor = header["rng_cursor"]
    if json.dumps(cursor, sort_keys=True) != json.dumps(checkpoint.rng_cursor, sort_keys=True):
        raise CheckpointError(f"header rng_cursor {cursor!r} disagrees with the train "
                              f"seed and epoch, which give {checkpoint.rng_cursor!r}")
    return checkpoint
