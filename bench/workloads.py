"""The three benchmark workloads and the closed-loop cycle each one repeats.

A cycle follows the path ``branchnet train`` and ``branchnet eval`` take
through the library: ``train`` then ``evaluate`` on a freshly built
network for the training workloads; ``restore_network`` of the set-up
checkpoint, ``evaluate``, then a short resumed ``train`` for the eval
workload. Every cycle ends with the correctness checks in ``checks.py``.
All inputs derive from the workload seed: the training set, the network
initialization and the augmentation streams use ``seed`` itself, the test
set uses ``seed + 1`` (as ``branchnet train`` does with its data seed).
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from branchnet import augment as bn_augment
from branchnet import data as bn_data
from branchnet import evaluation as bn_evaluation
from branchnet import model as bn_model
from branchnet import training as bn_training

import checks


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: bn_model.BranchedNetConfig
    dtype: type
    source_size: int            # side of the square synthetic source images
    train_count: int            # training images (a multiple of batch_size)
    test_count: int             # test images (a multiple of eval_batch_size or below it)
    augment: bn_augment.AugmentConfig
    batch_size: int
    epochs: int
    eval_batch_size: int
    primary: str                # phase the per-layer tensor/model metrics describe
    repeat_digest: bool         # every cycle must be bit-identical to the first

    @property
    def train_steps(self) -> int:
        return self.epochs * -(-self.train_count // self.batch_size)

    @property
    def eval_batches(self) -> int:
        return -(-self.test_count // self.eval_batch_size)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train_mini_f32",
        why="float32 mini net on 20x20 crops, crop+flip only: conv-bound "
            "training (about 70% conv, 2% augmentation)",
        model=bn_model.mini_config(input_size=20),
        dtype=np.float32, source_size=24, train_count=160, test_count=256,
        augment=bn_augment.AugmentConfig(crop_height=20, crop_width=20,
                                         enable_jitter=False, enable_pca=False),
        batch_size=32, epochs=2, eval_batch_size=256,
        primary="training", repeat_digest=False),
    Workload(
        name="train_ref_fullaug_f64",
        why="float64 small net with the full paper augmentation on 36x36 "
            "sources: input-heavy training, max pool, bit-reproducibility",
        model=bn_model.BranchedNetConfig(
            stage_blocks=(1, 1), stage_widths=(8, 16), bottleneck=False,
            branch_after_block=1, num_branches=3, num_classes=10,
            input_height=32, input_width=32, stem_kernel=3, stem_stride=2,
            stem_pool=True),
        dtype=np.float64, source_size=36, train_count=640, test_count=2048,
        augment=bn_augment.AugmentConfig(crop_height=32, crop_width=32),
        batch_size=64, epochs=2, eval_batch_size=256,
        primary="training", repeat_digest=True),
    Workload(
        name="eval_wide_f64",
        why="float64 forward-only inference of a restored 4-branch checkpoint "
            "at batch 256: branch-heavy, large im2col patches, no tape",
        model=bn_model.mini_config(num_branches=4, branch_after_block=2),
        dtype=np.float64, source_size=32, train_count=10, test_count=256,
        augment=bn_augment.AugmentConfig(enable_crop=False, enable_jitter=False,
                                         enable_pca=False),
        batch_size=10, epochs=2, eval_batch_size=256,
        primary="evaluation", repeat_digest=False),
)}


class NullTracer:
    """Stands in for ``tracing.Tracer`` when a cycle runs untraced."""

    def span(self, name):
        return contextlib.nullcontext()

    def steps(self, name, tail, every=1):
        return contextlib.nullcontext()

    def count(self, name, value=1):
        pass


@dataclass
class Setup:
    train_set: bn_data.Dataset
    test_set: bn_data.Dataset
    augment: bn_augment.AugmentConfig
    checkpoint: Optional[bn_data.Checkpoint] = None   # eval workload only


@dataclass
class Cycle:
    train_seconds: float
    train_samples: int
    eval_seconds: float
    eval_samples: int
    final_loss: float
    digest: str
    operations: int
    failures: list[str] = field(default_factory=list)
    train_speed: float = 0.0    # calibration kernel rate around each phase,
    eval_speed: float = 0.0     # 0 when the cycle ran uncalibrated


def _subset(ds: bn_data.Dataset, n: int, seed: int) -> bn_data.Dataset:
    keep = np.sort(np.random.default_rng(seed).permutation(len(ds))[:n])
    return bn_data.Dataset(images=ds.images[keep], labels=ds.labels[keep],
                           num_classes=ds.num_classes, split=ds.split, source=ds.source)


def _dataset(w: Workload, count: int, seed: int, split: str) -> bn_data.Dataset:
    classes = w.model.num_classes
    spec = bn_data.SyntheticSpec(num_classes=classes,
                                 samples_per_class=-(-count // classes),
                                 image_size=w.source_size)
    return _subset(bn_data.generate_synthetic(spec, seed, split=split), count, seed)


def _fit_statistics(augment: bn_augment.AugmentConfig,
                    images: np.ndarray) -> bn_augment.AugmentConfig:
    fitted = dataclasses.replace(augment)
    if fitted.enable_normalize:
        fitted.channel_means = images.astype(np.float64).reshape(-1, 3).mean(axis=0)
    if fitted.enable_pca:
        fitted.pca_basis = bn_augment.fit_pca_basis(images)
    return fitted


def train_config(w: Workload, seed: int, total_epochs: int) -> bn_training.TrainConfig:
    return bn_training.TrainConfig(batch_size=w.batch_size, total_epochs=total_epochs,
                                   seed=seed, num_classes=w.model.num_classes)


def setup(w: Workload, seed: int, workdir: Path, tracer=None) -> Setup:
    """Everything before the first timed call: data, statistics, the network
    and, for the eval workload, checkpoint save, load and restore."""
    tracer = tracer or NullTracer()
    with tracer.span("data.generate"):
        train_set = _dataset(w, w.train_count, seed, "train")
        test_set = _dataset(w, w.test_count, seed + 1, "test")
    with tracer.span("augment.fit"):
        augment = _fit_statistics(w.augment, train_set.images)
    with tracer.span("model.build"):
        net = bn_model.build_branched_net(w.model, seed=seed, dtype=w.dtype)
    st = Setup(train_set=train_set, test_set=test_set, augment=augment)
    if w.primary == "evaluation":
        # a zero-epoch train() packages the initial weights as a checkpoint;
        # forward cost does not depend on the weight values
        checkpoint, _ = bn_training.train(net, train_set, train_config(w, seed, 0), augment)
        path = workdir / "setup.ckpt"
        save_checkpoint(path, checkpoint, tracer)
        st.checkpoint = load_checkpoint(path, tracer)
        restore_network(st.checkpoint, tracer)
    return st


def save_checkpoint(path: Path, checkpoint, tracer) -> None:
    with tracer.span("data.save_checkpoint"):
        bn_data.save_checkpoint(path, checkpoint)
        tracer.count("data.checkpoint_bytes", path.stat().st_size)


def load_checkpoint(path: Path, tracer):
    with tracer.span("data.load_checkpoint"):
        return bn_data.load_checkpoint(path)


def restore_network(checkpoint, tracer):
    with tracer.span("training.restore"):
        return bn_training.restore_network(checkpoint)


def _timed_train(w, st, net, seed, start_epoch, state, tracer):
    config = train_config(w, seed, start_epoch + w.epochs)
    with tracer.span("training.train"), tracer.steps("training.step", "training.tail"):
        t0 = time.perf_counter()
        checkpoint, history = bn_training.train(
            net, st.train_set, config, st.augment,
            start_epoch=start_epoch, optimizer_state=state)
        seconds = time.perf_counter() - t0
    return checkpoint, history, seconds


def _timed_evaluate(w, st, net, tracer):
    with tracer.span("evaluation.evaluate"), \
            tracer.steps("evaluation.batch", "evaluation.tail", every=w.model.num_branches):
        t0 = time.perf_counter()
        report, probs = bn_evaluation.evaluate(
            net, st.test_set, batch_size=w.eval_batch_size,
            augment_config=st.augment, dump_probs=True)
        seconds = time.perf_counter() - t0
    return report, probs, seconds


def run_cycle(w: Workload, st: Setup, seed: int, workdir: Path, tracer=None,
              speed=None) -> Cycle:
    """One closed-loop iteration. ``speed``, if given, times the calibration
    kernel; it runs right before, between and right after the two timed
    phases. Library exceptions are recorded as failures of every operation
    in the cycle, not raised."""
    tracer = tracer or NullTracer()
    speed = speed or (lambda: 0.0)
    operations = w.train_steps + w.eval_batches
    try:
        if w.primary == "evaluation":
            net, state = restore_network(st.checkpoint, tracer)
            k0 = speed()
            report, probs, eval_s = _timed_evaluate(w, st, net, tracer)
            k1 = speed()
            checkpoint, history, train_s = _timed_train(
                w, st, net, seed, st.checkpoint.epoch, state, tracer)
            k2 = speed()
            eval_speed, train_speed = (k0 + k1) / 2, (k1 + k2) / 2
        else:
            net = bn_model.build_branched_net(w.model, seed=seed, dtype=w.dtype)
            k0 = speed()
            checkpoint, history, train_s = _timed_train(w, st, net, seed, 0, None, tracer)
            k1 = speed()
            report, probs, eval_s = _timed_evaluate(w, st, net, tracer)
            k2 = speed()
            train_speed, eval_speed = (k0 + k1) / 2, (k1 + k2) / 2
        failures = checks.losses(history, w.epochs)
        failures += checks.eval_report(report, probs, st.test_set.labels, w.dtype)
        path = workdir / "cycle.ckpt"
        save_checkpoint(path, checkpoint, tracer)
        loaded = load_checkpoint(path, tracer)
        restored_net, restored_state = restore_network(loaded, tracer)
        failures += checks.round_trip(checkpoint, loaded, net, restored_net, restored_state)
        csv = bn_training.history_csv(history, w.model.num_branches)
        digest = checks.digest(csv, path.read_bytes())
    except (ValueError, RuntimeError, OSError) as exc:
        return Cycle(0.0, 0, 0.0, 0, float("nan"), "", operations,
                     [f"{type(exc).__name__}: {exc}"])
    return Cycle(train_seconds=train_s, train_samples=w.epochs * len(st.train_set),
                 eval_seconds=eval_s, eval_samples=len(st.test_set),
                 final_loss=float(np.mean(history.epochs[-1].branch_losses)),
                 digest=digest, operations=operations, failures=failures,
                 train_speed=train_speed, eval_speed=eval_speed)
