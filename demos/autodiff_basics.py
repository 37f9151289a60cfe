"""The taped autodiff core: forward ops, reverse pass, gradient checking.

Run: python demos/autodiff_basics.py
"""

import numpy as np

from branchnet import (Tape, Tensor, batch_norm2d, conv2d, finite_diff_check,
                       relu, residual_add, reverse_pass, sum_all, weighted_sum)


def main():
    rng = np.random.default_rng(7)

    # gradients flow through a taped computation and accumulate across fan-out
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    with Tape() as tape:
        y = residual_add(x, x)          # uses x twice
        loss = sum_all(relu(y))
    reverse_pass(tape, loss)
    print("x:\n", x.data)
    print("d sum(relu(x + x)) / dx  (2 where x > 0):\n", x.grad)

    # a conv -> BN -> relu -> shortcut block on NHWC activations, checked
    # against central finite differences
    x = Tensor(rng.standard_normal((2, 6, 6, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 4, 3, 3)) * 0.3, requires_grad=True)
    gamma = Tensor(np.ones(4), requires_grad=True)
    beta = Tensor(np.zeros(4), requires_grad=True)
    running_mean, running_var = Tensor(np.zeros(4)), Tensor(np.ones(4))
    probe = rng.standard_normal((2, 6, 6, 4))

    def block_loss():
        out = conv2d(x, w, stride=1, pad=1)
        out = batch_norm2d(out, gamma, beta, running_mean, running_var, mode="train")
        out = relu(out)
        out = residual_add(out, x)
        return weighted_sum(out, probe)

    report = finite_diff_check(block_loss, [x, w, gamma, beta],
                               names=["input", "weight", "gamma", "beta"])
    print("\nresidual-block gradient check (analytic vs central differences):")
    print(report.summary())
    print("max relative error:", f"{report.max_rel_err:.3e}")


if __name__ == "__main__":
    main()
