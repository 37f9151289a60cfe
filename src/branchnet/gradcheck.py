"""Finite-difference verification of taped gradients.

Central differences with per-element step h = STEP_SCALE * max(1, |theta|),
compared against the analytic gradient from :func:`reverse_pass`. Relative
error is measured per element as |a - n| / max(1, |n|) and the per-tensor
maximum is reported; failures are report entries, never exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .tensor import Tape, Tensor, reverse_pass

STEP_SCALE = 1e-5   # relative central-difference step (see above)


@dataclass
class ParamCheck:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


@dataclass
class FiniteDiffReport:
    tolerance: float
    checks: list[ParamCheck] = field(default_factory=list)

    @property
    def max_rel_err(self) -> float:
        return max((c.max_rel_err for c in self.checks), default=0.0)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = [f"{'PASS' if c.passed else 'FAIL'}  {c.name}: max rel err {c.max_rel_err:.3e}"
                 for c in self.checks]
        return "\n".join(lines)


def finite_diff_check(loss_fn: Callable[[], Tensor], wrt: Sequence[Tensor],
                      names: Optional[Sequence[str]] = None,
                      tolerance: float = 1e-4) -> FiniteDiffReport:
    """Compare analytic gradients of ``loss_fn`` against central differences
    with the per-element step ``STEP_SCALE * max(1, |theta|)``.

    ``loss_fn`` must return a scalar tensor computed from the live ``wrt``
    tensors (it is re-invoked with perturbed parameter data for the numeric
    side, outside any tape).
    """
    if names is None:
        names = [f"param{i}" for i in range(len(wrt))]

    for t in wrt:
        t.grad = None
    with Tape() as tape:
        loss = loss_fn()
    reverse_pass(tape, loss)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in wrt]
    for t in wrt:
        t.grad = None

    report = FiniteDiffReport(tolerance=tolerance)
    for tensor, a_grad, name in zip(wrt, analytic, names):
        theta = tensor.data
        n_grad = np.zeros_like(theta)
        flat = theta.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            h = STEP_SCALE * max(1.0, abs(orig))
            flat[i] = orig + h
            f_plus = loss_fn().item()
            flat[i] = orig - h
            f_minus = loss_fn().item()
            flat[i] = orig
            n_grad.reshape(-1)[i] = (f_plus - f_minus) / (2.0 * h)
        denom = np.maximum(1.0, np.abs(n_grad))
        max_rel = float((np.abs(a_grad - n_grad) / denom).max()) if theta.size else 0.0
        report.checks.append(ParamCheck(name=name, max_rel_err=max_rel, tolerance=tolerance))
    return report
