"""Forward-pass contracts of the tensor ops against naive loop oracles."""

import numpy as np
import pytest

from branchnet import tensor
from branchnet.tensor import (BN_EPSILON, NonFiniteError, ShapeError, Tape, Tensor,
                              batch_norm2d, conv2d, global_avg_pool, linear, pool2d, relu,
                              residual_add, softmax, softmax_cross_entropy)

from layout import nchw, nhwc
from oracles import (assert_within_rounding, batch_norm_backward_four_sums,
                     batch_norm_backward_sequential, batch_norm_sequential,
                     batchnorm_twopass, conv2d_loops, linear_loops, pool2d_loops)


class TestConv2d:
    def test_scalar_product(self):
        out = conv2d(Tensor([[[[3.0]]]]), Tensor([[[[2.0]]]]))
        assert out.data.reshape(()) == 6.0

    def test_all_ones_summation(self):
        x = Tensor(np.ones((1, 3, 3, 1)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        assert conv2d(x, w).data.reshape(()) == 9.0

    def test_matches_loop_oracle_strided_padded(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        out = conv2d(Tensor(nhwc(x)), Tensor(w), stride=2, pad=1)
        np.testing.assert_allclose(nchw(out.data), conv2d_loops(x, w, stride=2, pad=1),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
    def test_matches_loop_oracle_random_shapes(self, rng, stride, pad):
        for _ in range(4):
            n, cin, cout = rng.integers(1, 4, size=3)
            kh, kw = rng.integers(1, 4, size=2)
            h = int(rng.integers(kh, 8))
            w = int(rng.integers(kw, 8))
            x = rng.standard_normal((n, cin, h, w))
            wt = rng.standard_normal((cout, cin, kh, kw))
            b = rng.standard_normal(cout)
            got = conv2d(Tensor(nhwc(x)), Tensor(wt), Tensor(b), stride=int(stride),
                         pad=int(pad))
            want = conv2d_loops(x, wt, b, stride=int(stride), pad=int(pad))
            np.testing.assert_allclose(nchw(got.data), want, rtol=0, atol=1e-12)

    def test_output_spatial_formula(self, rng):
        x = Tensor(rng.standard_normal((1, 9, 7, 1)))
        w = Tensor(rng.standard_normal((2, 1, 3, 3)))
        out = conv2d(x, w, stride=2, pad=1)
        assert out.shape == (1, (9 + 2 - 3) // 2 + 1, (7 + 2 - 3) // 2 + 1, 2)

    def test_channel_mismatch_names_dimension(self, rng):
        x = Tensor(nhwc(rng.standard_normal((1, 2, 4, 4))))
        w = Tensor(rng.standard_normal((1, 3, 3, 3)))
        with pytest.raises(ShapeError, match="Cin"):
            conv2d(x, w)

    def test_kernel_larger_than_padded_input(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 2, 1)))
        w = Tensor(rng.standard_normal((1, 1, 5, 5)))
        with pytest.raises(ShapeError, match="kernel"):
            conv2d(x, w)

    @pytest.mark.parametrize("weight_shape", [(2, 1, 0, 3), (2, 1, 3, 0), (2, 0, 3, 3)],
                             ids=["zero-height", "zero-width", "no-input-channels"])
    def test_empty_kernel_rejected(self, weight_shape):
        x = Tensor(np.ones((2, 4, 4, weight_shape[1])))
        with pytest.raises(ShapeError, match="kernel must be at least 1x1"):
            conv2d(x, Tensor(np.ones(weight_shape)))


class TestBatchNorm:
    def _stats(self, c):
        return Tensor(np.zeros(c)), Tensor(np.ones(c))

    def test_constant_input_maps_to_zero(self):
        x = Tensor(np.full((2, 2, 2, 3), 7.0))
        rm, rv = self._stats(3)
        out = batch_norm2d(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), rm, rv, mode="train")
        assert np.all(np.abs(out.data) <= 1e-5)

    def test_normalization_contract_mean_and_variance(self, rng):
        x = Tensor(nhwc(rng.standard_normal((4, 3, 5, 5)) * 3.0 + 1.5))
        rm, rv = self._stats(3)
        out = batch_norm2d(x, Tensor(np.ones(3)), Tensor(np.full(3, 5.0)), rm, rv,
                           mode="train")
        means = out.data.mean(axis=(0, 1, 2))
        variances = out.data.var(axis=(0, 1, 2))
        v = x.data.var(axis=(0, 1, 2))
        np.testing.assert_allclose(means, 5.0, rtol=0, atol=1e-9)
        np.testing.assert_allclose(variances, v / (v + BN_EPSILON), rtol=0, atol=1e-6)

    def test_matches_two_pass_oracle(self, rng):
        x = rng.standard_normal((4, 3, 2, 2))
        gamma = rng.standard_normal(3)
        beta = rng.standard_normal(3)
        rm, rv = self._stats(3)
        out = batch_norm2d(Tensor(nhwc(x)), Tensor(gamma), Tensor(beta), rm, rv,
                           mode="train")
        np.testing.assert_allclose(nchw(out.data), batchnorm_twopass(x, gamma, beta, 1e-5),
                                   rtol=0, atol=1e-12)

    def test_running_stats_update_rule(self, rng):
        x = rng.standard_normal((4, 2, 3, 3))
        rm = Tensor(np.array([1.0, -1.0]))
        rv = Tensor(np.array([2.0, 0.5]))
        batch_mean = x.mean(axis=(0, 2, 3))
        batch_var = x.var(axis=(0, 2, 3))
        batch_norm2d(Tensor(nhwc(x)), Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv,
                     mode="train")
        np.testing.assert_allclose(rm.data, 0.9 * np.array([1.0, -1.0]) + 0.1 * batch_mean)
        np.testing.assert_allclose(rv.data, 0.9 * np.array([2.0, 0.5]) + 0.1 * batch_var)

    def test_eval_mode_uses_running_stats_only(self, rng):
        x = rng.standard_normal((2, 2, 2, 2))
        rm = Tensor(np.array([0.5, -0.5]))
        rv = Tensor(np.array([4.0, 0.25]))
        out = batch_norm2d(Tensor(nhwc(x)), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                           rm, rv, mode="eval")
        want = (x - np.array([0.5, -0.5])[None, :, None, None]) \
            / np.sqrt(np.array([4.0, 0.25]) + BN_EPSILON)[None, :, None, None]
        np.testing.assert_allclose(nchw(out.data), want, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(rm.data, [0.5, -0.5])  # unchanged

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_forward_only_equals_taped_and_unfused_expression(self, rng, mode, dtype):
        # the forward-only path scales its one buffer in place by one
        # per-channel scale and shifts it; both paths keep this expression's bits
        x = nhwc(rng.standard_normal((4, 3, 5, 5)) * 3.0 + 1.5).astype(dtype)
        gamma, beta = (rng.standard_normal(3).astype(dtype) for _ in range(2))
        mean0 = rng.standard_normal(3).astype(dtype)
        var0 = (rng.random(3) + 0.5).astype(dtype)
        outs = []
        for recorded in (False, True):
            rm, rv = Tensor(mean0.copy()), Tensor(var0.copy())
            with Tape() as tape:
                out = batch_norm2d(Tensor(x, requires_grad=recorded), Tensor(gamma),
                                   Tensor(beta), rm, rv, mode=mode)
            assert len(tape) == int(recorded)
            outs.append(out.data)
        if mode == "train":
            # statistics as one BLAS product each: ones @ [N*H*W, C] rows,
            # the variance from the centred rows
            rows = x.reshape(-1, 3)
            ones = np.ones(len(rows), dtype=dtype)
            mean = ones @ rows / len(rows)
            var = ones @ np.square(rows - mean) / len(rows)
        else:
            mean, var = mean0, var0
        inv_std = 1.0 / np.sqrt(var + 1e-5)
        want = (x - mean) * (gamma * inv_std) + beta
        for got in outs:
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype, bound", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_statistics_and_backward_sums_within_rounding_of_sequential_sums(
            self, rng, dtype, bound):
        x = (rng.standard_normal((32, 10, 10, 8)) * 3.0 + 1.5).astype(dtype)
        gamma, beta = (rng.standard_normal(8).astype(dtype) for _ in range(2))
        grad = rng.standard_normal(x.shape).astype(dtype)
        buffers = [rng.standard_normal(8).astype(dtype), (rng.random(8) + 0.5).astype(dtype)]
        rm, rv = Tensor(buffers[0].copy()), Tensor(buffers[1].copy())
        xt, gt, bt = (Tensor(a, requires_grad=True) for a in (x, gamma, beta))
        with Tape() as tape:
            out = batch_norm2d(xt, gt, bt, rm, rv, mode="train")
        (node,) = tape.nodes
        got = [out.data, rm.data, rv.data, *node.backward(grad)]
        want_out = batch_norm_sequential(x, gamma, beta, *buffers, "train",
                                         epsilon=1e-5, momentum=0.9)   # updates buffers
        want = [want_out, *buffers, *batch_norm_backward_sequential(grad, x, gamma, 1e-5)]
        for name, a, ref in zip(("out", "running_mean", "running_var", "dx", "dgamma",
                                 "dbeta"), got, want):
            assert a.dtype == ref.dtype == dtype, name
            assert np.max(np.abs(a - ref)) <= bound * np.max(np.abs(ref)), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_shortcut_and_relu_equal_residual_add_then_relu(self, rng, mode, dtype):
        x, shortcut = (rng.standard_normal((4, 5, 5, 3)).astype(dtype) for _ in range(2))
        gamma, beta = (rng.standard_normal(3).astype(dtype) for _ in range(2))
        outs = []
        for fused in (False, True):
            rm, rv = Tensor(np.zeros(3, dtype)), Tensor(np.ones(3, dtype))
            if fused:
                out = batch_norm2d(Tensor(x), Tensor(gamma), Tensor(beta), rm, rv, mode=mode,
                                   shortcut=Tensor(shortcut), relu=True)
            else:
                out = relu(residual_add(batch_norm2d(Tensor(x), Tensor(gamma), Tensor(beta),
                                                     rm, rv, mode=mode), Tensor(shortcut)))
            outs.append(out.data)
        assert outs[0].dtype == outs[1].dtype == dtype
        assert outs[0].tobytes() == outs[1].tobytes()

    def test_shortcut_of_another_shape_rejected(self):
        rm, rv = self._stats(3)
        for shape in ((2, 2, 2, 4), (2, 2, 3, 3), (24,)):
            with pytest.raises(ShapeError, match="shortcut"):
                batch_norm2d(Tensor(np.ones((2, 2, 2, 3))), Tensor(np.ones(3)),
                             Tensor(np.zeros(3)), rm, rv, shortcut=Tensor(np.ones(shape)))

    def test_single_element_train_mode_rejected(self):
        x = Tensor(np.ones((1, 1, 1, 3)))
        rm, rv = self._stats(3)
        with pytest.raises(ValueError, match="degenerate"):
            batch_norm2d(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), rm, rv, mode="train")


def _taped_batch_norm(rng, shape, dtype, mode, epilogue):
    """(node, x, out, gamma, mean, inv_std) of one taped batch_norm2d whose
    inputs all take gradients, with the shortcut and relu if ``epilogue``;
    ``mean`` and ``inv_std`` are computed as its forward computes them."""
    c = shape[-1]
    x = (rng.standard_normal(shape) * 3.0 + 1.5).astype(dtype)
    gamma, beta = (rng.standard_normal(c).astype(dtype) for _ in range(2))
    running = (rng.standard_normal(c).astype(dtype), (rng.random(c) + 0.5).astype(dtype))
    kwargs = ({"shortcut": Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True),
               "relu": True} if epilogue else {})
    with Tape() as tape:
        out = batch_norm2d(Tensor(x, requires_grad=True), Tensor(gamma, requires_grad=True),
                           Tensor(beta, requires_grad=True), *map(Tensor, running),
                           mode=mode, **kwargs)
    if mode == "train":
        rows = x.reshape(-1, c)
        ones = np.ones(len(rows), dtype=dtype)
        mean = ones @ rows / len(rows)
        var = ones @ np.square(rows - mean) / len(rows)
    else:
        mean, var = running
    (node,) = tape.nodes
    return node, x, out.data, gamma, mean, 1.0 / np.sqrt(var + BN_EPSILON)


class TestBatchNormTwoSumBackward:
    """The backward from Σg and Σg·(x - mean) against the four-sum form it
    replaced (``oracles.batch_norm_backward_four_sums``), given one forward."""

    SHAPES = [((32, 20, 20, 16), np.float32), ((32, 10, 10, 32), np.float32),
              ((32, 5, 5, 64), np.float32), ((64, 16, 16, 8), np.float64),
              ((64, 8, 8, 8), np.float64), ((10, 32, 32, 16), np.float64)]

    @pytest.mark.parametrize("epilogue", [False, True], ids=["plain", "shortcut-relu"])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("shape, dtype", SHAPES,
                             ids=[f"{'x'.join(map(str, s))}-{d.__name__}" for s, d in SHAPES])
    def test_within_rounding_of_four_sums(self, shape, dtype, mode, epilogue):
        rng = np.random.default_rng(sum(shape))
        node, x, out, gamma, mean, inv_std = _taped_batch_norm(rng, shape, dtype, mode, epilogue)
        grad = rng.standard_normal(shape).astype(dtype)
        want = batch_norm_backward_four_sums(grad, x, out, gamma, mean, inv_std, mode,
                                             epilogue)
        got = node.backward(grad.copy())   # with relu it masks the array it is given
        assert_within_rounding([("dx", got[0]), ("dgamma", got[1])],
                               [("dx", want[0]), ("dgamma", want[1])])
        # dbeta and the (masked) gradient that a shortcut takes are unchanged
        for a, ref in zip(got[2:], want[2:]):
            assert a.dtype == ref.dtype == dtype and a.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_backward_takes_two_channel_sums(self, rng, mode, monkeypatch):
        node = _taped_batch_norm(rng, (4, 5, 5, 3), np.float64, mode, True)[0]
        calls = []
        channel_sums = tensor._channel_sums
        monkeypatch.setattr(tensor, "_channel_sums",
                            lambda a: calls.append(a.shape) or channel_sums(a))
        node.backward(rng.standard_normal((4, 5, 5, 3)))
        assert calls == [(4, 5, 5, 3)] * 2

    def test_relu_mask_is_applied_in_place_to_the_gradient_given(self, rng):
        node, _, out, *_ = _taped_batch_norm(rng, (4, 5, 5, 3), np.float64, "train", True)
        grad = rng.standard_normal(out.shape)
        want = (out > 0) * grad
        shortcut_grad = node.backward(grad)[3]
        assert shortcut_grad is grad and grad.tobytes() == want.tobytes()


class TestRelu:
    def test_basic(self):
        out = relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_idempotent(self, rng):
        x = Tensor(rng.standard_normal(50))
        np.testing.assert_array_equal(relu(relu(x)).data, relu(x).data)


class TestPool2d:
    def test_max_window2(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1))
        assert pool2d(x, "max", window=2).data.reshape(()) == 4.0

    def test_avg_window2(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1))
        assert pool2d(x, "avg", window=2).data.reshape(()) == 2.5

    @pytest.mark.parametrize("kind", ["max", "avg"])
    def test_matches_loop_oracle(self, rng, kind):
        x = rng.standard_normal((1, 1, 6, 6))
        got = pool2d(Tensor(nhwc(x)), kind, window=2, stride=2)
        np.testing.assert_allclose(nchw(got.data), pool2d_loops(x, kind, 2, 2),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kind", ["max", "avg"])
    def test_matches_loop_oracle_overlapping(self, rng, kind):
        for _ in range(5):
            h, w = rng.integers(3, 8, size=2)
            window = int(rng.integers(2, min(h, w) + 1))
            stride = int(rng.integers(1, window + 1))
            x = rng.standard_normal((2, 3, h, w))
            got = pool2d(Tensor(nhwc(x)), kind, window=window, stride=stride)
            np.testing.assert_allclose(nchw(got.data), pool2d_loops(x, kind, window, stride),
                                       rtol=0, atol=1e-15)

    def test_oversized_window_rejected(self):
        with pytest.raises(ShapeError, match="window"):
            pool2d(Tensor(np.ones((1, 1, 2, 2))), "max", window=3)

    @pytest.mark.parametrize("window, stride", [(0, None), (-1, None), (0, 1)])
    def test_non_positive_window_rejected(self, window, stride):
        with pytest.raises(ValueError, match=f"pool window must be >= 1, got {window}"):
            pool2d(Tensor(np.ones((1, 2, 2, 1))), "max", window=window, stride=stride)


class TestGlobalAvgPool:
    def test_constant_map(self):
        out = global_avg_pool(Tensor(np.full((2, 4, 4, 3), 7.0)))
        np.testing.assert_array_equal(out.data, np.full((2, 3), 7.0))

    def test_small_case(self):
        out = global_avg_pool(Tensor(np.array([[1.0, 3.0], [5.0, 7.0]]).reshape(1, 2, 2, 1)))
        assert out.data.reshape(()) == 4.0

    def test_equals_full_window_avg_pool(self, rng):
        x = nhwc(rng.standard_normal((2, 4, 5, 5)))
        got = global_avg_pool(Tensor(x))
        want = pool2d(Tensor(x), "avg", window=5, stride=1)
        np.testing.assert_allclose(got.data, want.data.reshape(2, 4), rtol=0, atol=1e-15)


class TestLinear:
    def test_identity_weight(self, rng):
        x = rng.standard_normal((3, 4))
        out = linear(Tensor(x), Tensor(np.eye(4)), Tensor(np.zeros(4)))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_input_gives_bias(self, rng):
        b = rng.standard_normal(5)
        out = linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((5, 3))), Tensor(b))
        np.testing.assert_array_equal(out.data, np.broadcast_to(b, (2, 5)))

    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((2, 3))
        w = rng.standard_normal((4, 3))
        b = rng.standard_normal(4)
        got = linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(got.data, linear_loops(x, w, b), rtol=0, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="D="):
            linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))), Tensor(np.ones(4)))


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_array_equal(softmax(Tensor([[0.0, 0.0]])).data, [[0.5, 0.5]])

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((4, 7))
        a = softmax(Tensor(x)).data
        b = softmax(Tensor(x + 123.456)).data
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_large_logits_no_overflow(self):
        out = softmax(Tensor([[1000.0, 1000.0]]))
        np.testing.assert_array_equal(out.data, [[0.5, 0.5]])

    def test_rows_sum_to_one_with_magnitude_1e3(self, rng):
        x = rng.uniform(-1e3, 1e3, size=(16, 9))
        out = softmax(Tensor(x))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        assert np.all(out.data >= 0)  # extreme gaps underflow to exactly 0

    def test_rows_positive_for_moderate_logits(self, rng):
        out = softmax(Tensor(rng.uniform(-20, 20, size=(8, 6))))
        assert np.all(out.data > 0)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, rtol=0, atol=1e-9)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            softmax(Tensor([[np.inf, 0.0]]))

    def test_nonfinite_raises_typed_error(self):
        with pytest.raises(NonFiniteError):
            softmax(Tensor([[np.nan, 0.0]]))
        with pytest.raises(NonFiniteError):
            softmax_cross_entropy(Tensor([[np.inf, 0.0]]), np.array([[0.5, 0.5]]))


class TestResidualAdd:
    def test_additive_identity(self, rng):
        x = rng.standard_normal((2, 3))
        out = residual_add(Tensor(x), Tensor(np.zeros((2, 3))))
        np.testing.assert_array_equal(out.data, x)

    def test_commutative(self, rng):
        a, b = rng.standard_normal((2, 5)), rng.standard_normal((2, 5))
        np.testing.assert_array_equal(residual_add(Tensor(a), Tensor(b)).data,
                                      residual_add(Tensor(b), Tensor(a)).data)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="mismatch"):
            residual_add(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))
