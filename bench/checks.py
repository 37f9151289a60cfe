"""Correctness checks run on every benchmark cycle.

Each returns a list of failure messages; an empty list means the check
passed. A failure marks every operation of its cycle as failed.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def losses(history, epochs: int) -> list[str]:
    """Every epoch loss is finite and the last epoch's mean branch loss is
    below the first epoch's."""
    means = [float(np.mean(rec.branch_losses)) for rec in history.epochs]
    if len(means) != epochs:
        return [f"expected {epochs} epoch records, got {len(means)}"]
    bad = [rec.epoch for rec in history.epochs if not np.all(np.isfinite(rec.branch_losses))]
    if bad:
        return [f"non-finite branch loss in epochs {bad}"]
    if epochs >= 2 and not means[-1] < means[0]:
        return [f"loss did not fall: first epoch {means[0]!r}, last {means[-1]!r}"]
    return []


def _top_k(probs: np.ndarray, labels: np.ndarray, k: int) -> float:
    ranking = np.argsort(-probs, axis=1, kind="stable")[:, :k]
    misses = int(np.count_nonzero((ranking != labels[:, None]).all(axis=1)))
    return 100.0 * misses / len(labels)


def eval_report(report, branch_probs, labels: np.ndarray, dtype) -> list[str]:
    """The report of ``evaluate(..., dump_probs=True)`` equals a
    recomputation from the dumped probabilities: stable-argsort top-k per
    branch and for the mean of the branch probabilities. ``dtype`` is the
    network's float type, which sets how closely probability rows sum to 1."""
    failures = []
    labels = np.asarray(labels)
    num_classes = branch_probs[0].shape[1]
    k5 = min(5, num_classes)
    for br, p in enumerate(branch_probs):
        if p.shape != (len(labels), num_classes):
            return [f"branch {br + 1} probabilities have shape {p.shape}"]
        if not np.all(np.abs(p.sum(axis=1) - 1.0) < 1e3 * np.finfo(dtype).eps):
            failures.append(f"branch {br + 1} probability rows do not sum to 1")
    ens = branch_probs[0].copy()
    for p in branch_probs[1:]:
        ens += p
    ens /= len(branch_probs)
    expected = {
        "branch_top1": tuple(_top_k(p, labels, 1) for p in branch_probs),
        "branch_top5": tuple(_top_k(p, labels, k5) for p in branch_probs),
        "ensemble_top1": _top_k(ens, labels, 1),
        "ensemble_top5": _top_k(ens, labels, k5),
        "sample_count": len(labels),
    }
    for name, want in expected.items():
        got = getattr(report, name)
        if got != want:
            failures.append(f"report {name} {got!r} != recomputed {want!r}")
    mean_branch = sum(expected["branch_top1"]) / len(branch_probs)
    if mean_branch > 0.0:
        want_ri = 100.0 * (mean_branch - expected["ensemble_top1"]) / mean_branch
        got_ri = report.relative_improvement
        if got_ri is None or not math.isclose(got_ri, want_ri, rel_tol=1e-12, abs_tol=1e-12):
            failures.append(f"relative improvement {got_ri!r} != recomputed {want_ri!r}")
    elif report.relative_improvement is not None:
        failures.append("relative improvement reported for a zero branch error")
    return failures


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def round_trip(checkpoint, loaded, net, restored_net, restored_state) -> list[str]:
    """save -> load -> restore_network reproduces every tensor bit for bit."""
    failures = []
    if set(loaded.tensors) != set(checkpoint.tensors):
        failures.append("loaded checkpoint has a different tensor set")
    else:
        failures += [f"tensor {name} changed in the round trip"
                     for name, arr in checkpoint.tensors.items()
                     if not _same_array(arr, loaded.tensors[name])]
    if loaded.model_config != checkpoint.model_config:
        failures.append("model config changed in the round trip")
    for attr in ("channel_means", "channel_stds", "pca_basis"):
        a = getattr(checkpoint.augment_config, attr)
        b = getattr(loaded.augment_config, attr)
        if (a is None) != (b is None):
            failures.append(f"augment {attr} changed in the round trip")
        elif attr == "pca_basis" and a is not None:
            if not all(_same_array(getattr(a, f), getattr(b, f))
                       for f in ("eigenvalues", "eigenvectors", "channel_means")):
                failures.append("augment pca_basis changed in the round trip")
        elif a is not None and not _same_array(a, b):
            failures.append(f"augment {attr} changed in the round trip")
    restored = restored_net.state()
    for name, tensor in net.state().items():
        if name not in restored or not _same_array(tensor.data, restored[name].data):
            failures.append(f"restored network differs at {name}")
    for name, velocity in restored_state.velocities.items():
        stored = checkpoint.tensors.get(f"optimizer/{name}")
        if stored is None or not _same_array(stored, velocity):
            failures.append(f"restored optimizer velocity differs at {name}")
    return failures


def digest(history_csv: str, checkpoint_bytes: bytes) -> str:
    """sha256 of the history CSV followed by the checkpoint file bytes."""
    return hashlib.sha256(history_csv.encode() + checkpoint_bytes).hexdigest()
