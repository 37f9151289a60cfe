"""Label-smoothed multi-branch training: loss, SGD with momentum, schedule,
and the epoch loop.

The per-branch losses are fused by arithmetic mean, which keeps the trunk
gradient magnitude comparable to a single-branch net regardless of the
branch count. Weight decay is folded into the gradient before momentum
(v <- mu*v + g + lambda*theta; theta <- theta - lr*v); BN gamma/beta and
biases are exempt from decay.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Mapping, Optional, Sequence

import numpy as np

from .augment import KEY_LIMIT, AugmentConfig, augment_batch, epoch_shuffle
from .fields import Checked, bounded
from .model import BranchedNetConfig, BranchedNetwork, build_branched_net
from .tensor import (NonFiniteError, Tape, Tensor, residual_add, reverse_pass,
                     softmax_cross_entropy, weighted_sum)


class TrainingDivergedError(RuntimeError):
    """Non-finite loss; message carries the epoch/batch diagnostics."""


@dataclass
class TrainConfig(Checked):
    batch_size: int = bounded(1, default=128)
    total_epochs: int = bounded(0, default=95)
    base_lr: float = bounded(0, default=0.05)
    lr_decay_factor: float = bounded(0, lo_open=True, default=0.1)
    lr_decay_interval_epochs: int = bounded(1, default=30)
    weight_decay: float = bounded(0, default=0.0001)
    momentum: float = bounded(0, 1, hi_open=True, default=0.9)
    smoothing_epsilon: float = bounded(0, 1, default=0.1)
    seed: int = bounded(0, KEY_LIMIT, hi_open=True, default=0)   # hashed as a uint64
    num_classes: int = bounded(2, default=10)


class CheckpointError(RuntimeError):
    """Corrupt or incompatible checkpoint file."""


@dataclass
class Checkpoint:
    """Everything a run needs to be scored or continued: its configs, the
    number of finished epochs, and every model tensor and optimizer velocity
    under its ``model/`` or ``optimizer/`` name (see ``_state_arrays``).
    ``data.save_checkpoint`` writes it to disk."""
    model_config: BranchedNetConfig
    train_config: TrainConfig
    augment_config: AugmentConfig
    epoch: int
    tensors: dict[str, np.ndarray]

    @property
    def rng_cursor(self) -> dict:
        """Where the augmentation draws resume; they are keyed by seed and epoch."""
        return {"global_seed": self.train_config.seed, "next_epoch": self.epoch}


class OptimizerState:
    """One zero-initialized velocity buffer per parameter, matching shapes."""

    def __init__(self, params: Mapping[str, Tensor]):
        self.velocities: dict[str, np.ndarray] = {
            name: np.zeros_like(t.data) for name, t in params.items()}


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    branch_losses: tuple[float, ...]
    wall_seconds: float


@dataclass
class TrainHistory:
    epochs: list[EpochRecord] = field(default_factory=list)


# ---------------------------------------------------------------------------
# loss

def smooth_labels(y: int, num_classes: int, epsilon: float) -> np.ndarray:
    """Probability vector with 1 - eps + eps/K on the true class and eps/K
    elsewhere. The float rounding residue of the sum is folded back into
    the true class so the vector sums to exactly 1.0 (strict downstream
    validators, np.random.choice); when eps is so close to 1 that this would
    pull the true class down to eps/K, it goes into the next class instead."""
    k = num_classes
    if not 0 <= y < k:
        raise ValueError(f"class index {y} out of range [0, {k})")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0,1], got {epsilon}")
    p = np.full(k, epsilon / k, dtype=np.float64)
    p[y] += 1.0 - epsilon
    for _ in range(4):
        residue = p.sum() - 1.0
        if residue == 0.0:
            break
        p[y if p[y] - residue > epsilon / k else (y + 1) % k] -= residue
    return p


def smooth_label_matrix(labels: Sequence[int], num_classes: int,
                        epsilon: float) -> np.ndarray:
    return np.stack([smooth_labels(int(y), num_classes, epsilon) for y in labels])


def combined_branch_loss(branch_logits: Sequence[Tensor],
                         targets: np.ndarray) -> tuple[Tensor, list[Tensor]]:
    """(combined, branch_losses): the arithmetic mean of the branches'
    ``softmax_cross_entropy`` against the smoothed [N, K] target rows,
    checked once to be non-negative and to sum to 1 within 1e-9, and each
    branch's own loss.

    The trunk gradient is the mean of the branch contributions; each
    branch's own parameters see only their (1/K_b)-scaled loss gradient.
    """
    if not branch_logits:
        raise ValueError("combined_branch_loss needs at least one branch")
    shapes = {t.shape for t in branch_logits}
    if len(shapes) != 1:
        raise ValueError(f"branch logits must share one shape, got {sorted(shapes)}")
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 2:
        raise ValueError(f"targets must be 2-D [N,K], got shape {targets.shape}")
    row_sums = targets.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > 1e-9):
        worst = int(np.abs(row_sums - 1.0).argmax())
        raise ValueError(
            f"target row {worst} sums to {row_sums[worst]!r}, not 1 within 1e-9")
    nonnegative = targets >= 0  # False for NaN, and +inf breaks the sum
    if not nonnegative.all():
        row = int(np.flatnonzero(~nonnegative.all(axis=1))[0])
        raise ValueError(f"target row {row} has a negative or NaN entry: {targets[row]!r}")
    losses = [softmax_cross_entropy(logits, targets) for logits in branch_logits]
    total = losses[0]
    for loss in losses[1:]:
        total = residual_add(total, loss)
    return weighted_sum(total, 1.0 / len(losses)), losses


# ---------------------------------------------------------------------------
# optimizer and schedule

_DECAY_EXEMPT_SUFFIXES = (".bias", ".gamma", ".beta")


def is_decay_exempt(name: str) -> bool:
    return name.endswith(_DECAY_EXEMPT_SUFFIXES)


def sgd_momentum_step(params: Mapping[str, Tensor], state: OptimizerState, lr: float,
                      momentum: float, weight_decay: float) -> None:
    """v <- mu*v + g + lambda*theta; theta <- theta - lr*v (in place), where g
    is each parameter's ``grad``.

    Decay is folded into the gradient before momentum; BN gamma/beta and
    biases are exempt from decay.
    """
    for name, param in params.items():
        grad = param.grad
        if grad.shape != param.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} != parameter {name} shape {param.data.shape}")
        v = state.velocities[name]
        if v.shape != param.data.shape:
            raise ValueError(
                f"velocity shape {v.shape} != parameter {name} shape {param.data.shape}")
        effective = grad if (weight_decay == 0.0 or is_decay_exempt(name)) \
            else grad + weight_decay * param.data
        v *= momentum
        v += effective
        param.data -= lr * v


def lr_at_epoch(config: TrainConfig, epoch: int) -> float:
    """base_lr * factor^floor(epoch / interval), computed in decimal so the
    returned rates equal the configured literals exactly (0.05 -> 0.005,
    not 0.005000000000000001)."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    steps = epoch // config.lr_decay_interval_epochs
    return float(Decimal(repr(config.base_lr)) * Decimal(repr(config.lr_decay_factor)) ** steps)


# ---------------------------------------------------------------------------
# the epoch loop

def train(net: BranchedNetwork, dataset, train_config: TrainConfig,
          augment_config: AugmentConfig, *,
          start_epoch: int = 0, optimizer_state: Optional[OptimizerState] = None,
          log=None):
    """Run the epoch loop and return (Checkpoint, TrainHistory). Training
    only: score the trained ``net`` with ``evaluation.evaluate``.

    Each epoch: fresh permutation (``epoch_shuffle``), per-sample
    augmentation whose every draw is a hash of (seed, epoch, dataset index,
    technique, draw number), forward of all branches, mean branch loss,
    reverse pass, SGD step at the scheduled rate. The last incomplete batch
    is kept. ``start_epoch``/``optimizer_state`` resume a checkpointed run;
    no draw depends on an earlier one, so a resumed run is bitwise
    identical to an uninterrupted one.
    """
    if len(dataset.images) == 0:
        raise ValueError("training dataset is empty")
    if train_config.num_classes != net.config.num_classes:
        raise ValueError(
            f"train num_classes {train_config.num_classes} != model "
            f"num_classes {net.config.num_classes}")
    if not 0 <= start_epoch <= train_config.total_epochs:
        raise ValueError(f"start_epoch must be in [0, total_epochs = "
                         f"{train_config.total_epochs}], got {start_epoch}")
    params = net.params
    state = optimizer_state if optimizer_state is not None else OptimizerState(params)
    history = TrainHistory()
    n = len(dataset.images)
    kb = net.config.num_branches

    for epoch in range(start_epoch, train_config.total_epochs):
        t0 = time.perf_counter()
        lr = lr_at_epoch(train_config, epoch)
        order = epoch_shuffle(n, epoch, train_config.seed)
        loss_sums = np.zeros(kb)
        batches = 0
        for lo in range(0, n, train_config.batch_size):
            batch_idx = order[lo:lo + train_config.batch_size]
            batch = Tensor(augment_batch(dataset.images[batch_idx], augment_config,
                                         train_config.seed, epoch, batch_idx, net.dtype))
            targets = smooth_label_matrix(dataset.labels[batch_idx],
                                          train_config.num_classes,
                                          train_config.smoothing_epsilon)
            net.zero_grad()
            try:
                with Tape() as tape:
                    branch_logits = net.forward_all_branches(batch, mode="train")
                    combined, branch_losses = combined_branch_loss(branch_logits, targets)
            except NonFiniteError as exc:
                raise TrainingDivergedError(
                    f"non-finite values at epoch {epoch}, batch {batches} "
                    f"(first sample index {int(batch_idx[0])}): {exc}") from exc
            loss_value = combined.item()
            if not np.isfinite(loss_value):
                raise TrainingDivergedError(
                    f"non-finite loss {loss_value} at epoch {epoch}, "
                    f"batch {batches} (first sample index {int(batch_idx[0])})")
            reverse_pass(tape, combined)
            sgd_momentum_step(params, state, lr, train_config.momentum,
                              train_config.weight_decay)
            loss_sums += [bl.item() for bl in branch_losses]
            batches += 1
        record = EpochRecord(epoch=epoch, lr=lr, branch_losses=tuple(
            (loss_sums / max(batches, 1)).tolist()), wall_seconds=time.perf_counter() - t0)
        history.epochs.append(record)
        if log is not None:
            losses = " ".join(f"{v:.4f}" for v in record.branch_losses)
            log(f"epoch {epoch:3d}  lr {lr:g}  branch losses {losses}  "
                f"({record.wall_seconds:.1f}s)")

    checkpoint = Checkpoint(
        model_config=net.config, train_config=train_config,
        augment_config=augment_config, epoch=train_config.total_epochs,
        tensors={key: array.copy() for key, array in _state_arrays(net, state).items()})
    return checkpoint, history


def _state_arrays(net: BranchedNetwork, state: OptimizerState) -> dict[str, np.ndarray]:
    """Checkpoint name -> live array of every model tensor and optimizer velocity."""
    arrays = {f"model/{name}": t.data for name, t in net.state().items()}
    arrays.update((f"optimizer/{name}", v) for name, v in state.velocities.items())
    return arrays


def restore_network(checkpoint: Checkpoint) -> tuple[BranchedNetwork, OptimizerState]:
    """Rebuild a network and optimizer state from a checkpoint's tensors.

    The checkpoint must hold exactly one ``model/`` tensor per registry
    entry and one ``optimizer/`` velocity per parameter, and nothing else,
    each with the registry shape and the dtype of the first ``model/``
    tensor; anything missing, extra (under any name), misshapen or of
    another dtype raises ``CheckpointError`` naming the tensor.
    """
    sample = next((a for k, a in checkpoint.tensors.items() if k.startswith("model/")), None)
    dtype = sample.dtype if sample is not None else np.float64
    net = build_branched_net(checkpoint.model_config, seed=checkpoint.train_config.seed,
                             dtype=dtype)
    state = OptimizerState(net.params)
    targets = _state_arrays(net, state)
    extra = sorted(k for k in checkpoint.tensors if k not in targets)
    if extra:
        raise CheckpointError(f"checkpoint tensor {extra[0]!r} is not in the model registry")
    for key, target in targets.items():
        if key not in checkpoint.tensors:
            raise CheckpointError(f"checkpoint is missing tensor {key!r}")
        stored = checkpoint.tensors[key]
        if stored.shape != target.shape or stored.dtype != target.dtype:
            raise CheckpointError(
                f"checkpoint tensor {key!r} has shape {stored.shape} dtype {stored.dtype}, "
                f"expected shape {target.shape} dtype {target.dtype}")
        target[...] = stored
    return net, state


# ---------------------------------------------------------------------------
# history export

def history_csv(history: TrainHistory, num_branches: int) -> str:
    """Deterministic CSV: epoch, lr, per-branch mean loss. Wall time is
    deliberately not included (it would differ between otherwise identical
    runs); see timings_csv."""
    header = ["epoch", "lr"] + [f"loss_branch_{i + 1}" for i in range(num_branches)]
    lines = [",".join(header)]
    for rec in history.epochs:
        lines.append(",".join([str(rec.epoch), repr(rec.lr)]
                              + [repr(v) for v in rec.branch_losses]))
    return "\n".join(lines) + "\n"


def timings_csv(history: TrainHistory) -> str:
    lines = ["epoch,wall_seconds"] + [f"{rec.epoch},{rec.wall_seconds:.6f}"
                                      for rec in history.epochs]
    return "\n".join(lines) + "\n"
