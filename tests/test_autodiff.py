"""Reverse-pass semantics and finite-difference checks for every op."""

import hashlib
import os
import subprocess
import sys
import threading
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from branchnet import tensor
from branchnet.gradcheck import finite_diff_check
from branchnet.model import BranchedNetConfig, build_branched_net, mini_config
from branchnet.tensor import (ShapeError, Tape, TapeError, Tensor, batch_norm2d, conv2d,
                              global_avg_pool, linear, pool2d, relu,
                              residual_add, reverse_pass, softmax, sum_all,
                              weighted_sum)
from branchnet.training import (OptimizerState, combined_branch_loss, sgd_momentum_step,
                                smooth_label_matrix)

from layout import nhwc


class TestReversePass:
    def test_sum_gradient_is_ones(self, rng):
        x = Tensor(rng.standard_normal((3, 4, 2)), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(x)
        reverse_pass(tape, loss)
        np.testing.assert_array_equal(x.grad, np.ones((3, 4, 2)))

    def test_fanout_accumulation_doubles_gradient(self, rng):
        x = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        with Tape() as tape:
            y = residual_add(x, x)
            loss = sum_all(y)
        reverse_pass(tape, loss)
        np.testing.assert_array_equal(x.grad, np.full((2, 5), 2.0))

    def test_duplicated_path_exactly_doubles(self, rng):
        x1 = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        x2 = Tensor(x1.data.copy(), requires_grad=True)
        w = rng.standard_normal((3, 3))
        with Tape() as tape:
            single = weighted_sum(x1, w)
            double = residual_add(weighted_sum(x2, w), weighted_sum(x2, w))
            loss = residual_add(single, double)
        reverse_pass(tape, loss)
        np.testing.assert_array_equal(x2.grad, 2.0 * x1.grad)

    def test_relu_gradient_mask(self):
        x = Tensor([-1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = sum_all(relu(x))
        reverse_pass(tape, loss)
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])

    def test_relu_gradient_zero_at_kink(self):
        x = Tensor([0.0], requires_grad=True)
        with Tape() as tape:
            loss = sum_all(relu(x))
        reverse_pass(tape, loss)
        np.testing.assert_array_equal(x.grad, [0.0])

    def test_residual_add_passes_gradient_unchanged(self, rng):
        a = Tensor(rng.standard_normal(4), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        with Tape() as tape:
            loss = sum_all(residual_add(a, b))
        reverse_pass(tape, loss)
        np.testing.assert_array_equal(a.grad, np.ones(4))
        np.testing.assert_array_equal(b.grad, np.ones(4))

    def test_non_scalar_loss_rejected(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        with Tape() as tape:
            y = relu(x)
        with pytest.raises(ShapeError, match="scalar"):
            reverse_pass(tape, y)

    def test_no_tape_records_nothing(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        tape = Tape()
        _ = relu(x)  # outside any active tape
        assert len(tape) == 0

    def test_untracked_leaf_gets_no_grad(self, rng):
        x = Tensor(rng.standard_normal(3), requires_grad=True)
        c = Tensor(rng.standard_normal(3))  # requires_grad=False
        with Tape() as tape:
            loss = sum_all(residual_add(x, c))
        reverse_pass(tape, loss)
        assert c.grad is None
        np.testing.assert_array_equal(x.grad, np.ones(3))

    def test_max_pool_ties_route_to_first_rowmajor_argmax(self):
        x = Tensor(np.array([[2.0, 2.0], [2.0, 2.0]]).reshape(1, 2, 2, 1),
                   requires_grad=True)
        with Tape() as tape:
            loss = sum_all(pool2d(x, "max", window=2))
        reverse_pass(tape, loss)
        np.testing.assert_array_equal(
            x.grad, np.array([[1.0, 0.0], [0.0, 0.0]]).reshape(1, 2, 2, 1))

    def test_mini_block_matches_finite_differences(self, rng):
        x = Tensor(nhwc(rng.standard_normal((2, 3, 5, 5))), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 3, 3, 3)) * 0.4, requires_grad=True)
        gamma = Tensor(np.ones(3), requires_grad=True)
        beta = Tensor(np.zeros(3), requires_grad=True)
        rm, rv = Tensor(np.zeros(3)), Tensor(np.ones(3))
        probe = nhwc(rng.standard_normal((2, 3, 5, 5)))

        def loss_fn():
            y = conv2d(x, w, stride=1, pad=1)
            y = batch_norm2d(y, gamma, beta, rm, rv, mode="train")
            y = relu(y)
            y = residual_add(y, x)
            return weighted_sum(y, probe)

        report = finite_diff_check(loss_fn, [x, w, gamma, beta],
                                   names=["x", "w", "gamma", "beta"], tolerance=1e-4)
        assert report.passed, report.summary()


class TestLeafGradients:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_parameter_gradient_is_c_contiguous_with_its_shape(self, rng, dtype):
        # conv weight gradients come out of a (kh, kw, Cin)-ordered GEMM and
        # are stored as C-contiguous OIHW, like the weights they update
        config = BranchedNetConfig(stage_blocks=(1, 2), stage_widths=(4, 8), bottleneck=True,
                                   branch_after_block=1, num_branches=2, num_classes=5,
                                   input_height=16, input_width=16, stem_kernel=5,
                                   stem_stride=2, stem_pool=True)
        net = build_branched_net(config, seed=0, dtype=dtype)
        batch = Tensor(rng.standard_normal((3, 16, 16, 3)).astype(dtype))
        targets = smooth_label_matrix(rng.integers(0, 5, size=3), 5, 0.1)
        with Tape() as tape:
            loss, _ = combined_branch_loss(net.forward_all_branches(batch, mode="train"), targets)
        reverse_pass(tape, loss)
        for name, p in net.params.items():
            assert p.grad is not None, name
            assert p.grad.shape == p.shape and p.grad.dtype == dtype, name
            assert p.grad.flags.c_contiguous, name

    def test_conv_computes_no_gradient_for_an_input_that_needs_none(self, rng):
        # the stem conv's input is the image batch: folding its patch
        # gradients back would be work nothing reads
        x = Tensor(rng.standard_normal((2, 5, 5, 3)))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)), requires_grad=True)
        with Tape() as tape:
            y = conv2d(x, w, pad=1)
        dx, dw, _ = tape.nodes[0].backward(np.ones_like(y.data))
        assert dx is None and dw.shape == w.shape


    def test_kept_first_gradients_equal_copies_and_share_no_memory(self, monkeypatch):
        # residual_add's backward hands one array to both its inputs: the
        # leaves x1 and x2, and later a conv output and x, which fans out to
        # both; w serves two convs; a strided padded conv returns a slice of
        # its padded input gradient, global_avg_pool a read-only broadcast,
        # and the float32 leaf v takes a float64 gradient; the block input z
        # feeds a conv and a batch norm's shortcut, and the batch norm masks
        # in place, for its relu, the array that residual_add also gave to y
        def leaf_grads():
            rng = np.random.default_rng(5)
            x1, x2 = (Tensor(rng.standard_normal((2, 6, 6, 4)), requires_grad=True)
                      for _ in range(2))
            w, w2 = (Tensor(rng.standard_normal((4, 4, 3, 3)), requires_grad=True)
                     for _ in range(2))
            v = Tensor(rng.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
            b = Tensor(rng.standard_normal(3), requires_grad=True)
            gamma, beta = (Tensor(rng.standard_normal(4), requires_grad=True) for _ in range(2))
            running = (Tensor(np.zeros(4)), Tensor(np.ones(4)))
            with Tape() as tape:
                x = residual_add(x1, x2)
                y = residual_add(conv2d(x, w, pad=1), x)
                z = relu(residual_add(conv2d(y, w, pad=1), y))
                s = conv2d(z, w2, stride=2, pad=1)
                pooled = weighted_sum(pool2d(s, "max", 2, 1), rng.standard_normal((2, 2, 2, 4)))
                logits = linear(global_avg_pool(z), v, b)
                block = batch_norm2d(conv2d(z, w2, pad=1), gamma, beta, *running,
                                     shortcut=z, relu=True)
                loss = residual_add(
                    residual_add(pooled, weighted_sum(logits, rng.standard_normal((2, 3)))),
                    weighted_sum(residual_add(block, y), rng.standard_normal((2, 6, 6, 4))))
            reverse_pass(tape, loss)
            return [x1.grad, x2.grad, w.grad, w2.grad, v.grad, b.grad, gamma.grad, beta.grad]

        kept = leaf_grads()

        def copy_every_time(inputs, grads):
            for t, grad in zip(inputs, grads):
                if grad is not None and t.requires_grad:
                    if t.grad is None:
                        t.grad = grad.astype(t.data.dtype, copy=True)
                    else:
                        t.grad += grad

        monkeypatch.setattr(tensor, "_accumulate", copy_every_time)
        for got, want in zip(kept, leaf_grads()):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert kept[4].dtype == np.float32
        for a, b in combinations(kept, 2):
            assert not np.shares_memory(a, b)


def _trained_digest(seed, start=None, steps=6, batch_size=8):
    """sha256 of every tensor of a float64 mini net after ``steps`` SGD steps
    on random batches; ``start`` (a barrier) lines up concurrent runs."""
    net = build_branched_net(mini_config(input_size=16), seed=seed)
    state = OptimizerState(net.params)
    rng = np.random.default_rng(seed)
    if start is not None:
        start.wait()
    for _ in range(steps):
        batch = Tensor(rng.standard_normal((batch_size, 16, 16, 3)))
        targets = smooth_label_matrix(rng.integers(0, 10, size=batch_size), 10, 0.1)
        net.zero_grad()
        with Tape() as tape:
            loss, _ = combined_branch_loss(net.forward_all_branches(batch, mode="train"),
                                           targets)
        reverse_pass(tape, loss)
        sgd_momentum_step(net.params, state, 0.05, 0.9, 1e-4)
    digest = hashlib.sha256()
    for t in net.state().values():
        digest.update(t.data.tobytes())
    return digest.hexdigest()


def _on_threads(*fns):
    """Run each function on its own thread; their results, or the first error."""
    results = [None] * len(fns)

    def run(k):
        try:
            results[k] = fns[k]()
        except BaseException as exc:   # re-raised on the calling thread
            results[k] = exc

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(fns))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for r in results:
        if isinstance(r, BaseException):
            raise r
    return results


class TestThreadTapes:
    """Each thread records on its own open tapes."""

    def test_nets_trained_at_once_on_two_threads_give_their_own_bytes(self):
        alone = [_trained_digest(seed) for seed in (0, 1)]
        start = threading.Barrier(2, timeout=120)   # a failed partner cannot hang the test
        assert _on_threads(lambda: _trained_digest(0, start),
                           lambda: _trained_digest(1, start)) == alone

    def test_eval_on_another_thread_records_nothing_on_an_open_tape(self, rng):
        net = build_branched_net(mini_config(input_size=16), seed=3)
        batch = Tensor(rng.standard_normal((4, 16, 16, 3)))
        with Tape() as tape:
            logits = net.forward_all_branches(batch, mode="train")
            nodes = len(tape)
            # the heads' weights take gradients, so on a shared tape stack
            # the eval's linear ops would record here
            _on_threads(lambda: net.forward_all_branches(batch, mode="eval"))
            assert len(tape) == nodes
            loss, _ = combined_branch_loss(logits, smooth_label_matrix([0, 1, 2, 3], 10, 0.1))
        reverse_pass(tape, loss)
        assert all(p.grad is not None for p in net.params.values())

    def test_misnested_tapes_raise_tape_error(self):
        outer, inner = Tape(), Tape()
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(TapeError):
            outer.__exit__(None, None, None)
        # a thread cannot close a tape that another thread opened
        with pytest.raises(TapeError):
            _on_threads(lambda: inner.__exit__(None, None, None))
        inner.__exit__(None, None, None)
        outer.__exit__(None, None, None)
        with pytest.raises(TapeError):
            outer.__exit__(None, None, None)

    def test_misnested_tapes_raise_tape_error_under_optimize(self):
        code = ("from branchnet.tensor import Tape, TapeError\n"
                "outer, inner = Tape(), Tape()\n"
                "outer.__enter__(); inner.__enter__()\n"
                "try:\n"
                "    outer.__exit__(None, None, None)\n"
                "except TapeError:\n"
                "    print('TapeError', __debug__)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out == "TapeError False\n"


def _probe_loss(op, probe):
    def fn():
        return weighted_sum(op(), probe)
    return fn


class TestFiniteDiffPerOp:
    """Every differentiable op over >= 10 random shapes, rel err < 1e-4."""

    N_SHAPES = 10

    def test_conv2d(self, rng):
        for _ in range(self.N_SHAPES):
            n, cin, cout = (int(v) for v in rng.integers(1, 3, size=3))
            k = int(rng.integers(1, 4))
            h = int(rng.integers(k, k + 4))
            w = int(rng.integers(k, k + 4))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            x = Tensor(nhwc(rng.standard_normal((n, cin, h, w))), requires_grad=True)
            wt = Tensor(rng.standard_normal((cout, cin, k, k)), requires_grad=True)
            b = Tensor(rng.standard_normal(cout), requires_grad=True)
            oh = (h + 2 * pad - k) // stride + 1
            ow = (w + 2 * pad - k) // stride + 1
            probe = nhwc(rng.standard_normal((n, cout, oh, ow)))
            report = finite_diff_check(
                _probe_loss(lambda: conv2d(x, wt, b, stride=stride, pad=pad), probe),
                [x, wt, b], tolerance=1e-4)
            assert report.passed, report.summary()

    # stride-1 geometries the workload nets lack, (kh, kw, pad): a 1x1
    # kernel, no padding, a 5x5 kernel, a non-square kernel, pad >= k
    @pytest.mark.parametrize("kh, kw, pad", [(1, 1, 0), (3, 3, 0), (5, 5, 2), (2, 3, 1),
                                             (1, 1, 1), (2, 2, 3)], ids=str)
    def test_conv2d_stride1(self, rng, kh, kw, pad):
        x = Tensor(rng.standard_normal((2, 6, 7, 3)), requires_grad=True)
        wt = Tensor(rng.standard_normal((4, 3, kh, kw)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        probe = rng.standard_normal((2, 6 + 2 * pad - kh + 1, 7 + 2 * pad - kw + 1, 4))
        report = finite_diff_check(
            _probe_loss(lambda: conv2d(x, wt, b, pad=pad), probe), [x, wt, b], tolerance=1e-4)
        assert report.passed, report.summary()

    def test_linear(self, rng):
        for _ in range(self.N_SHAPES):
            n, d, k = (int(v) for v in rng.integers(1, 6, size=3))
            x = Tensor(rng.standard_normal((n, d)), requires_grad=True)
            w = Tensor(rng.standard_normal((k, d)), requires_grad=True)
            b = Tensor(rng.standard_normal(k), requires_grad=True)
            probe = rng.standard_normal((n, k))
            report = finite_diff_check(
                _probe_loss(lambda: linear(x, w, b), probe), [x, w, b], tolerance=1e-6)
            assert report.passed, report.summary()

    def test_relu_away_from_kinks(self, rng):
        for _ in range(self.N_SHAPES):
            shape = tuple(int(v) for v in rng.integers(1, 5, size=2))
            vals = rng.standard_normal(shape)
            vals = np.where(np.abs(vals) < 1e-2, np.where(vals >= 0, 0.5, -0.5), vals)
            x = Tensor(vals, requires_grad=True)
            probe = rng.standard_normal(shape)
            report = finite_diff_check(
                _probe_loss(lambda: relu(x), probe), [x], tolerance=1e-6)
            assert report.passed, report.summary()

    def test_batch_norm_train(self, rng):
        for _ in range(self.N_SHAPES):
            n = int(rng.integers(2, 4))
            c = int(rng.integers(1, 4))
            h, w = (int(v) for v in rng.integers(2, 4, size=2))
            x = Tensor(nhwc(rng.standard_normal((n, c, h, w))), requires_grad=True)
            gamma = Tensor(rng.uniform(0.5, 1.5, c), requires_grad=True)
            beta = Tensor(rng.standard_normal(c), requires_grad=True)
            rm, rv = Tensor(np.zeros(c)), Tensor(np.ones(c))
            probe = nhwc(rng.standard_normal((n, c, h, w)))
            report = finite_diff_check(
                _probe_loss(lambda: batch_norm2d(x, gamma, beta, rm, rv, mode="train"),
                            probe),
                [x, gamma, beta], tolerance=1e-4)
            assert report.passed, report.summary()

    def test_batch_norm_eval(self, rng):
        for _ in range(self.N_SHAPES):
            c = int(rng.integers(1, 4))
            x = Tensor(nhwc(rng.standard_normal((2, c, 3, 3))), requires_grad=True)
            gamma = Tensor(rng.uniform(0.5, 1.5, c), requires_grad=True)
            beta = Tensor(rng.standard_normal(c), requires_grad=True)
            rm = Tensor(rng.standard_normal(c))
            rv = Tensor(rng.uniform(0.5, 2.0, c))
            probe = nhwc(rng.standard_normal((2, c, 3, 3)))
            report = finite_diff_check(
                _probe_loss(lambda: batch_norm2d(x, gamma, beta, rm, rv, mode="eval"),
                            probe),
                [x, gamma, beta], tolerance=1e-6)
            assert report.passed, report.summary()

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_batch_norm_with_shortcut_and_relu_away_from_kinks(self, rng, mode):
        for _ in range(self.N_SHAPES):
            n = int(rng.integers(2, 4))
            c = int(rng.integers(1, 4))
            h, w = (int(v) for v in rng.integers(2, 4, size=2))
            x = Tensor(nhwc(rng.standard_normal((n, c, h, w))), requires_grad=True)
            gamma = Tensor(rng.uniform(0.5, 1.5, c), requires_grad=True)
            beta = Tensor(rng.standard_normal(c), requires_grad=True)
            rm, rv = Tensor(rng.standard_normal(c)), Tensor(rng.uniform(0.5, 2.0, c))
            # a shortcut that puts every sum relu sees at least 1e-2 from its kink
            normalized = batch_norm2d(x, gamma, beta, Tensor(rm.data.copy()),
                                      Tensor(rv.data.copy()), mode=mode).data
            total = rng.standard_normal(x.shape)
            total = np.where(np.abs(total) < 1e-2, np.where(total >= 0, 0.5, -0.5), total)
            shortcut = Tensor(total - normalized, requires_grad=True)
            probe = rng.standard_normal(x.shape)
            report = finite_diff_check(
                _probe_loss(lambda: batch_norm2d(x, gamma, beta, rm, rv, mode=mode,
                                                 shortcut=shortcut, relu=True), probe),
                [x, gamma, beta, shortcut], tolerance=1e-4 if mode == "train" else 1e-6)
            assert report.passed, report.summary()

    def test_max_pool_away_from_ties(self, rng):
        for _ in range(self.N_SHAPES):
            h = int(rng.integers(4, 7))
            window = int(rng.integers(2, 4))
            stride = window  # non-overlap keeps argmax stable under probes
            x = Tensor(nhwc(rng.permutation(h * h * 2).reshape(2, 1, h, h) * 0.37),
                       requires_grad=True)
            oh = (h - window) // stride + 1
            probe = nhwc(rng.standard_normal((2, 1, oh, oh)))
            report = finite_diff_check(
                _probe_loss(lambda: pool2d(x, "max", window, stride), probe),
                [x], tolerance=1e-4)
            assert report.passed, report.summary()

    def test_avg_pool(self, rng):
        for _ in range(self.N_SHAPES):
            h = int(rng.integers(3, 7))
            window = int(rng.integers(2, min(h, 4) + 1))
            stride = int(rng.integers(1, window + 1))
            x = Tensor(nhwc(rng.standard_normal((2, 2, h, h))), requires_grad=True)
            oh = (h - window) // stride + 1
            probe = nhwc(rng.standard_normal((2, 2, oh, oh)))
            report = finite_diff_check(
                _probe_loss(lambda: pool2d(x, "avg", window, stride), probe),
                [x], tolerance=1e-6)
            assert report.passed, report.summary()

    def test_global_avg_pool(self, rng):
        for _ in range(self.N_SHAPES):
            n, c, h, w = (int(v) for v in rng.integers(1, 5, size=4))
            x = Tensor(nhwc(rng.standard_normal((n, c, h, w))), requires_grad=True)
            probe = rng.standard_normal((n, c))
            report = finite_diff_check(
                _probe_loss(lambda: global_avg_pool(x), probe), [x], tolerance=1e-6)
            assert report.passed, report.summary()

    def test_softmax(self, rng):
        for _ in range(self.N_SHAPES):
            n, k = (int(v) for v in rng.integers(2, 6, size=2))
            x = Tensor(rng.standard_normal((n, k)), requires_grad=True)
            probe = rng.standard_normal((n, k))
            report = finite_diff_check(
                _probe_loss(lambda: softmax(x), probe), [x], tolerance=1e-4)
            assert report.passed, report.summary()

    def test_residual_add(self, rng):
        for _ in range(self.N_SHAPES):
            shape = tuple(int(v) for v in rng.integers(1, 5, size=3))
            a = Tensor(rng.standard_normal(shape), requires_grad=True)
            b = Tensor(rng.standard_normal(shape), requires_grad=True)
            probe = rng.standard_normal(shape)
            report = finite_diff_check(
                _probe_loss(lambda: residual_add(a, b), probe), [a, b], tolerance=1e-6)
            assert report.passed, report.summary()
