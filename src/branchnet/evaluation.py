"""Top-k error, branch ensembling, and the per-branch/ensemble report.

The ensemble rule is the arithmetic mean of branch softmax outputs (the
minimal convex fusion: identical branches ensemble to themselves exactly).
Relative improvement = 100 * (mean branch error - ensemble error) / mean
branch error; undefined when the branch mean is zero.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .augment import AugmentConfig, augment_batch
from .model import BranchedNetwork
from .tensor import Tensor, softmax


@dataclass(frozen=True)
class EvalReport:
    branch_top1: tuple[float, ...]      # percent, one per branch
    branch_top5: tuple[float, ...]
    ensemble_top1: float
    ensemble_top5: float
    relative_improvement: Optional[float]   # None when branch mean error is 0
    sample_count: int
    config_fingerprint: str

    def render_text(self) -> str:
        rows = [(f"branch {i + 1}", t1, t5)
                for i, (t1, t5) in enumerate(zip(self.branch_top1, self.branch_top5))]
        rows.append(("ensemble", self.ensemble_top1, self.ensemble_top5))
        lines = [f"{'predictor':<12} {'top-1 err %':>12} {'top-5 err %':>12}"]
        for name, t1, t5 in rows:
            lines.append(f"{name:<12} {t1:>12.2f} {t5:>12.2f}")
        ri = ("undefined (zero branch error)" if self.relative_improvement is None
              else f"{self.relative_improvement:.2f}")
        lines.append(f"relative improvement (top-1): {ri}")
        lines.append(f"samples: {self.sample_count}   config: {self.config_fingerprint}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        header = ["predictor", "top1_error_percent", "top5_error_percent"]
        lines = [",".join(header)]
        for i, (t1, t5) in enumerate(zip(self.branch_top1, self.branch_top5)):
            lines.append(f"branch_{i + 1},{t1!r},{t5!r}")
        lines.append(f"ensemble,{self.ensemble_top1!r},{self.ensemble_top5!r}")
        ri = "" if self.relative_improvement is None else repr(self.relative_improvement)
        lines.append(f"relative_improvement_top1,{ri},")
        return "\n".join(lines) + "\n"


def top_k_error(probs: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Percent of samples whose true label is outside the k most probable
    classes; ties rank the lower class index first. Every label must be a
    class index in [0, K)."""
    probs = np.asarray(probs)
    labels = np.asarray(labels)
    if probs.ndim != 2:
        raise ValueError(f"probs must be 2-D [N,K], got shape {probs.shape}")
    n, num_classes = probs.shape
    if not 1 <= k <= num_classes:
        raise ValueError(f"k must be in [1, {num_classes}], got {k}")
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    outside = (labels < 0) | (labels >= num_classes)
    if np.any(outside):
        raise ValueError(f"label {labels[outside][0]} is outside [0, {num_classes})")
    # stable argsort of -probs keeps ascending class index among ties
    ranking = np.argsort(-probs, axis=1, kind="stable")[:, :k]
    hits = (ranking == labels[:, None]).any(axis=1)
    return 100.0 * float(np.count_nonzero(~hits)) / n


def ensemble_probs(branch_probs: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise arithmetic mean of branch probability tensors."""
    if len(branch_probs) == 0:
        raise ValueError("ensemble_probs needs at least one branch")
    stacked = np.stack([np.asarray(p) for p in branch_probs])
    if stacked.ndim != 3:
        raise ValueError("branch probability tensors must all be 2-D [N,K]")
    return stacked.mean(axis=0)


def relative_improvement(branch_errors: Sequence[float], ensemble_error: float) -> float:
    """100 * (mean(branch errors) - ensemble error) / mean(branch errors)."""
    mean_err = float(np.mean(branch_errors))
    if mean_err <= 0.0:
        raise ValueError("relative improvement is undefined for zero mean branch error")
    return 100.0 * (mean_err - ensemble_error) / mean_err


def _config_fingerprint(net: BranchedNetwork) -> str:
    blob = json.dumps(asdict(net.config), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def evaluate(net: BranchedNetwork, dataset, batch_size: int = 256, *,
             augment_config: AugmentConfig, dump_probs: bool = False):
    """Eval-mode forward over the dataset (center crop, the training
    normalization of ``augment_config``, BN running stats), per-branch
    softmax, mean-probability ensemble, top-1/top-5 errors, and relative
    improvement on top-1.

    The eval-mode forward folds each batch norm into the conv before it,
    which also adds the residual shortcut and applies relu to its output
    tile by tile; it changes no tensor of ``net``. Its logits agree with
    the unfolded Tensor-op forward to rounding (max|d| <= 1e-12 *
    max|logit| in float64, 1e-5 in float32), not bit for bit.

    With ``dump_probs`` the per-branch probability matrices are returned
    alongside the report for offline recomputation.
    """
    n = len(dataset.images)
    if n == 0:
        raise ValueError("evaluation dataset is empty")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    kb = net.config.num_branches
    k5 = min(5, net.config.num_classes)

    src_h, src_w = dataset.images.shape[1:3]
    in_h, in_w = net.config.input_height, net.config.input_width
    if src_h < in_h or src_w < in_w:
        raise ValueError(
            f"evaluation images {src_h}x{src_w} smaller than model input {in_h}x{in_w}")
    # deterministic center crop when sources are larger than the model input
    # (mirrors the training-time crop size without any randomness), then the
    # training-time normalization with every random stage off
    oy, ox = (src_h - in_h) // 2, (src_w - in_w) // 2
    center = replace(augment_config, enable_crop=False, enable_flip=False,
                     enable_jitter=False, enable_pca=False)

    branch_probs = [np.empty((n, net.config.num_classes)) for _ in range(kb)]
    for lo in range(0, n, batch_size):
        hi = min(lo + batch_size, n)
        batch = augment_batch(dataset.images[lo:hi, oy:oy + in_h, ox:ox + in_w],
                              center, dtype=net.dtype)
        logits = net.forward_all_branches(Tensor(batch), mode="eval")
        for br in range(kb):
            branch_probs[br][lo:hi] = softmax(logits[br]).data

    labels = np.asarray(dataset.labels)
    branch_top1 = tuple(top_k_error(p, labels, 1) for p in branch_probs)
    branch_top5 = tuple(top_k_error(p, labels, k5) for p in branch_probs)
    ens = ensemble_probs(branch_probs)
    ensemble_top1 = top_k_error(ens, labels, 1)
    ensemble_top5 = top_k_error(ens, labels, k5)
    mean_branch = float(np.mean(branch_top1))
    improvement = (relative_improvement(branch_top1, ensemble_top1)
                   if mean_branch > 0.0 else None)

    report = EvalReport(
        branch_top1=branch_top1, branch_top5=branch_top5,
        ensemble_top1=ensemble_top1, ensemble_top5=ensemble_top5,
        relative_improvement=improvement, sample_count=n,
        config_fingerprint=_config_fingerprint(net))
    return (report, branch_probs) if dump_probs else report
