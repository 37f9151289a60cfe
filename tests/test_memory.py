"""Memory behaviour of the autodiff core and of evaluation: every conv
runs in patch tiles and equals one whole-batch GEMM bit for bit, and a
taped conv keeps its input, not its patches, rebuilding them in backward;
a training step of each benchmark net stays under a stated peak; evaluation,
which folds batch norm into the convs and writes in place, stays within
rounding of the unfolded forward; strided conv and pool backwards fold
their input gradients per window tap without building a window-gradient
matrix (and equal folding that matrix bit for bit), while a stride-1 conv
takes its input gradient as a conv of the output gradient and its weight
gradient from the same patch tiles, each within rounding of the whole-batch
product; max pool allocates little beside its output, keeps no index
for backward and equals the one-hot reference byte for byte; a taped
batch norm keeps only its output, into which it adds a block's shortcut
and applies relu, and rebuilds the normalized input in backward, so a
training step equals the separate ops byte for byte with fewer nodes; and
the reverse pass consumes its tape, so nothing but leaf gradients outlives
it."""

import ast
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branchnet.model as model
from branchnet import tensor
from branchnet.augment import AugmentConfig, augment_batch
from branchnet.data import SyntheticSpec, generate_synthetic
from branchnet.evaluation import evaluate
from branchnet.model import BranchedNetConfig, build_branched_net, mini_config
from branchnet.tensor import (Tape, Tensor, batch_norm2d, conv2d, pool2d, reverse_pass,
                              softmax)
from branchnet.training import combined_branch_loss, smooth_label_matrix

from pool import run_pooled
from oracles import (assert_within_rounding, conv2d_dw_one_gemm, conv2d_dx_col2im,
                     conv2d_one_gemm, pool2d_dx_onehot, pool2d_max_first,
                     unfused_eval_forward, unfused_train_forward, whole_array_eval_forward)

MiB = 2**20

# The nets of the three benchmark workloads (bench/workloads.py):
# train_mini_f32, train_ref_fullaug_f64 and eval_wide_f64.
WORKLOAD_NETS = (
    mini_config(input_size=20),
    BranchedNetConfig(stage_blocks=(1, 1), stage_widths=(8, 16), bottleneck=False,
                      branch_after_block=1, num_branches=3, num_classes=10,
                      input_height=32, input_width=32, stem_kernel=3, stem_stride=2,
                      stem_pool=True),
    mini_config(num_branches=4, branch_after_block=2),
)


def _conv_geometries(configs=WORKLOAD_NETS):
    """(input [H, W, Cin], weight OIHW shape, stride, pad) of every conv the
    nets of ``configs`` run, recorded from one forward of each."""
    seen = set()
    original = model.conv2d

    def record(x, weight, bias=None, stride=1, pad=0, **epilogue):
        seen.add((x.shape[1:], weight.shape, stride, pad))
        return original(x, weight, bias, stride=stride, pad=pad, **epilogue)

    model.conv2d = record
    try:
        for config in configs:
            net = build_branched_net(config, seed=0)
            shape = (1, config.input_height, config.input_width, config.input_channels)
            net.forward_all_branches(Tensor(np.zeros(shape)), mode="eval")
    finally:
        model.conv2d = original
    return sorted(seen)


GEOMETRIES = _conv_geometries()

# the convs whose input gradient a training step computes: all but the stem,
# whose input is the 3-channel image batch
DX_GEOMETRIES = [g for g in GEOMETRIES if g[0][2] != 3]


def _out_hw(hwc, weight_shape, stride, pad):
    kh, kw = weight_shape[2:]
    return ((hwc[0] + 2 * pad - kh) // stride + 1, (hwc[1] + 2 * pad - kw) // stride + 1)


def _images_per_tile(hwc, weight_shape, stride, pad, dtype):
    oh, ow = _out_hw(hwc, weight_shape, stride, pad)
    cout, cin, kh, kw = weight_shape
    return tensor._images_per_tile(oh * ow * cin * kh * kw * np.dtype(dtype).itemsize)


class TestTiledConvBitIdentity:
    def test_workload_nets_cover_strided_projection_and_stem_convs(self):
        kernels = {(w[2], stride) for _, w, stride, _ in GEOMETRIES}
        assert {(3, 1), (3, 2), (1, 2)} <= kernels
        assert len(GEOMETRIES) >= 15

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
    def test_tiles_equal_one_gemm(self, geometry, dtype):
        hwc, weight_shape, stride, pad = geometry
        per_tile = _images_per_tile(hwc, weight_shape, stride, pad, dtype)
        rng = np.random.default_rng(hash(geometry) % 2**32)
        weight = Tensor(rng.standard_normal(weight_shape).astype(dtype), requires_grad=True)
        # one image; one past a full tile (a 1-image remainder for a naive
        # split); and more than two tiles with a remainder
        for n in (1, per_tile + 1, 2 * per_tile + 3):
            x = Tensor(rng.standard_normal((n,) + hwc).astype(dtype))
            want = conv2d_one_gemm(x.data, weight.data, stride=stride, pad=pad)
            with Tape() as tape:
                taped = conv2d(x, weight, stride=stride, pad=pad)
            assert len(tape) == 1
            assert taped.dtype == want.dtype == dtype
            assert np.array_equal(taped.data, want), (n, per_tile)
            assert np.array_equal(conv2d(x, weight, stride=stride, pad=pad).data, want)

    def test_tiles_with_bias_equal_one_gemm_plus_bias(self, rng):
        x = Tensor(rng.standard_normal((20, 32, 32, 16)))
        weight = Tensor(rng.standard_normal((16, 16, 3, 3)), requires_grad=True)
        bias = Tensor(rng.standard_normal(16), requires_grad=True)
        want = conv2d_one_gemm(x.data, weight.data, pad=1) + bias.data
        assert np.array_equal(conv2d(x, weight, bias, pad=1).data, want)
        with Tape():
            assert np.array_equal(conv2d(x, weight, bias, pad=1).data, want)


def _randomize_batch_norms(net, rng):
    """Move every batch norm's affine parameters and running statistics off
    their initial values (gamma = var = 1, beta = mean = 0), which fold into
    a near-identity scale and a zero bias."""
    for name, t in net.state().items():
        field = name.rsplit(".", 1)[1]
        if field in ("gamma", "running_var"):
            t.data[...] = rng.uniform(0.5, 2.0, t.shape)
        elif field in ("beta", "running_mean"):
            t.data[...] = rng.standard_normal(t.shape)


class TestFoldedEval:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("index", range(len(WORKLOAD_NETS)))
    def test_workload_nets_within_rounding_of_unfused_forward(self, index, dtype):
        config = WORKLOAD_NETS[index]
        rng = np.random.default_rng(index)
        net = build_branched_net(config, seed=index, dtype=dtype)
        _randomize_batch_norms(net, rng)
        shape = (9, config.input_height, config.input_width, config.input_channels)
        batch = rng.standard_normal(shape).astype(dtype)
        logits = net.forward_all_branches(Tensor(batch), mode="eval")
        assert_within_rounding([(br, z.data) for br, z in enumerate(logits)],
                               list(enumerate(unfused_eval_forward(net, batch))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("index", range(len(WORKLOAD_NETS)))
    def test_workload_nets_byte_equal_to_whole_array_bias_add_and_relu(self, index, dtype):
        # a batch that the net's largest convs split into three tiles, so that
        # their bias, shortcut and relu run on the tile threads when they run
        config = WORKLOAD_NETS[index]
        n = 2 * min(_images_per_tile(*g, dtype) for g in _conv_geometries([config])) + 1
        rng = np.random.default_rng(index)
        net = build_branched_net(config, seed=index, dtype=dtype)
        _randomize_batch_norms(net, rng)
        shape = (n, config.input_height, config.input_width, config.input_channels)
        batch = rng.standard_normal(shape).astype(dtype)
        logits = net.forward_all_branches(Tensor(batch), mode="eval")
        want = whole_array_eval_forward(net, batch)
        assert len(logits) == len(want) == config.num_branches
        for got, ref in zip(logits, want):
            assert got.data.dtype == ref.dtype == dtype
            assert got.data.tobytes() == ref.tobytes()

    def test_evaluate_at_batch_256_within_rounding_of_unfused_forward(self, rng):
        # eval_wide_f64's net; nine images make one evaluate batch, which
        # stage 1's 3x3 convs split into three tiles of 3 images
        config = WORKLOAD_NETS[2]
        net = build_branched_net(config, seed=3)
        _randomize_batch_norms(net, rng)
        data = generate_synthetic(SyntheticSpec(num_classes=3, samples_per_class=3),
                                  seed=4, split="test")
        augment = AugmentConfig(enable_crop=False, enable_jitter=False,
                                enable_pca=False, channel_means=np.full(3, 110.0))
        assert _images_per_tile((32, 32, 16), (16, 16, 3, 3), 1, 1, np.float64) < 9
        _, probs = evaluate(net, data, batch_size=256, augment_config=augment,
                            dump_probs=True)

        center = replace(augment, enable_flip=False)
        batch = augment_batch(data.images, center)
        reference = [softmax(Tensor(z)).data for z in unfused_eval_forward(net, batch)]
        assert_within_rounding(list(enumerate(probs)), list(enumerate(reference)))


class TestFusedTrainEpilogue:
    """Train mode ends each conv layer in one batch_norm2d node, which adds the
    block's shortcut and applies relu in its own output; a step gives the
    bytes of the separate ops (conv2d -> batch_norm2d -> residual_add -> relu)."""

    # batch sizes of TestMemoryBounds.STEP_PEAKS, and tape nodes per step
    BATCHES = (32, 64, 10)
    NODES = (48, 37, 106)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("index", range(len(WORKLOAD_NETS)))
    def test_step_byte_equal_to_separate_ops(self, index, dtype):
        config = WORKLOAD_NETS[index]
        rng = np.random.default_rng(index)
        shape = (self.BATCHES[index], config.input_height, config.input_width,
                 config.input_channels)
        batch = rng.standard_normal(shape).astype(dtype)
        targets = smooth_label_matrix(rng.integers(0, config.num_classes, size=shape[0]),
                                      config.num_classes, 0.1)

        def step(forward):
            net = build_branched_net(config, seed=index, dtype=dtype)
            _randomize_batch_norms(net, np.random.default_rng(index))
            with Tape() as tape:
                loss, _ = combined_branch_loss(forward(net, batch), targets)
            reverse_pass(tape, loss)
            return ([("loss", loss.data)] + [(name, t.grad) for name, t in net.params.items()]
                    + [(name, t.data) for name, t in net.buffers.items()])

        got = step(lambda net, b: net.forward_all_branches(Tensor(b), mode="train"))
        want = step(unfused_train_forward)
        assert [label for label, _ in got] == [label for label, _ in want]
        for (label, a), (_, ref) in zip(got, want):
            assert a.dtype == ref.dtype == dtype, label
            assert a.tobytes() == ref.tobytes(), label

    @pytest.mark.parametrize("index", range(len(WORKLOAD_NETS)))
    def test_one_batch_norm_node_per_conv_and_no_relu_node(self, index):
        config = WORKLOAD_NETS[index]
        net = build_branched_net(config, seed=index)
        shape = (2, config.input_height, config.input_width, config.input_channels)
        batch = Tensor(np.random.default_rng(index).standard_normal(shape))
        with Tape() as tape:
            combined_branch_loss(net.forward_all_branches(batch, mode="train"),
                                 smooth_label_matrix([0, 1], config.num_classes, 0.1))
        ops = Counter(node.op for node in tape.nodes)
        assert ops["batch_norm2d"] == ops["conv2d"]
        assert ops["relu"] == 0
        # residual_add sums the branch losses only
        assert ops["residual_add"] == config.num_branches - 1
        assert len(tape) == self.NODES[index]


class TestConvInputGradBitIdentity:
    """A stride-2 conv folds its input gradient per kernel tap, bit for bit
    as col2im of the patch-gradient matrix; a stride-1 conv takes it as a
    conv of the output gradient, which sums each input's taps in another
    order, so it is bounded against col2im by rounding."""

    def test_geometries_cover_strided_and_projection_convs(self):
        kernels = {(w[2], stride) for _, w, stride, _ in DX_GEOMETRIES}
        assert {(3, 1), (3, 2), (1, 2)} <= kernels
        assert len(DX_GEOMETRIES) >= 14
        assert len([g for g in DX_GEOMETRIES if g[2] == 1]) == 8

    @staticmethod
    def _dx_and_col2im(geometry, dtype):
        hwc, weight_shape, stride, pad = geometry
        rng = np.random.default_rng(hash(geometry) % 2**32)
        weight = Tensor(rng.standard_normal(weight_shape).astype(dtype), requires_grad=True)
        for n in (1, 10, 32):   # one image, and the workloads' training batches
            x = Tensor(rng.standard_normal((n,) + hwc).astype(dtype), requires_grad=True)
            with Tape() as tape:
                out = conv2d(x, weight, stride=stride, pad=pad)
            grad = rng.standard_normal(out.shape).astype(dtype)
            (node,) = tape.nodes
            dx = node.backward(grad)[0]
            want = conv2d_dx_col2im(grad, weight.data, x.shape, stride=stride, pad=pad)
            assert dx.dtype == want.dtype == dtype
            assert dx.shape == x.shape
            yield n, dx, want

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("geometry", [g for g in DX_GEOMETRIES if g[2] != 1], ids=str)
    def test_per_tap_fold_equals_col2im_of_patch_gradients(self, geometry, dtype):
        for n, dx, want in self._dx_and_col2im(geometry, dtype):
            assert dx.tobytes() == want.tobytes(), n

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("geometry", [g for g in DX_GEOMETRIES if g[2] == 1], ids=str)
    def test_stride1_conv_of_grad_within_rounding_of_col2im(self, geometry, dtype):
        for n, dx, want in self._dx_and_col2im(geometry, dtype):
            assert_within_rounding([(n, dx)], [(n, want)])

    @pytest.mark.parametrize("index", range(len(WORKLOAD_NETS)))
    def test_only_strided_convs_and_pools_fold_taps(self, index, monkeypatch):
        # one taped training step of a workload net: each conv or pool that
        # shrinks its input folds once, and no stride-1 conv folds at all
        config = WORKLOAD_NETS[index]
        net = build_branched_net(config, seed=index)
        shape = (2, config.input_height, config.input_width, config.input_channels)
        batch = Tensor(np.random.default_rng(index).standard_normal(shape))
        targets = smooth_label_matrix(np.arange(2) % config.num_classes,
                                      config.num_classes, 0.1)
        strides, fold = [], tensor._fold_taps

        def counted(tap_grad, x_shape, kh, kw, stride, pad, dtype):
            strides.append(stride)
            return fold(tap_grad, x_shape, kh, kw, stride, pad, dtype)

        monkeypatch.setattr(tensor, "_fold_taps", counted)
        with Tape() as tape:
            loss, _ = combined_branch_loss(net.forward_all_branches(batch, mode="train"),
                                           targets)
        windowed = [(node.inputs[0].shape[1] > node.output.shape[1])
                    for node in tape.nodes if node.op.startswith(("conv2d", "pool2d"))
                    and node.inputs[0].requires_grad]
        reverse_pass(tape, loss)
        assert False in windowed   # the stride-1 convs, which take no fold
        assert strides == [2] * windowed.count(True)


class TestConvWeightGrad:
    """The stem (whose input takes no gradient) and the strided convs take
    their weight gradient as one GEMM over the input's whole patch matrix;
    a stride-1 conv whose input takes a gradient sums it tile by tile from
    its output gradient's patches, within rounding of that GEMM."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
    def test_weight_grad_against_one_gemm(self, geometry, dtype):
        hwc, weight_shape, stride, pad = geometry
        rng = np.random.default_rng(hash(geometry) % 2**32)
        weight = Tensor(rng.standard_normal(weight_shape).astype(dtype), requires_grad=True)
        stem = hwc[2] == 3
        for n in (1, 10, 32):   # one image, and the workloads' training batches
            x = Tensor(rng.standard_normal((n,) + hwc).astype(dtype), requires_grad=not stem)
            with Tape() as tape:
                out = conv2d(x, weight, stride=stride, pad=pad)
            grad = rng.standard_normal(out.shape).astype(dtype)
            (node,) = tape.nodes
            dw = node.backward(grad)[1]
            want = conv2d_dw_one_gemm(x.data, grad, weight_shape, stride=stride, pad=pad)
            assert dw.dtype == want.dtype == dtype and dw.flags.c_contiguous
            if stem or stride != 1:
                assert dw.tobytes() == want.tobytes(), n
            else:
                assert_within_rounding([(n, dw)], [(n, want)])


@pytest.fixture
def tile_pool():
    """The tile threads that importing branchnet made."""
    if tensor._TILE_POOL is None:
        pytest.skip("conv tiles run inline: OpenBLAS ran one thread at import "
                    "or cannot be reached")
    return tensor._TILE_POOL


def _watch_tiles(monkeypatch):
    """(thread name, OpenBLAS thread count, padding buffer given) of every
    later ``_im2col`` call."""
    calls = []
    original = tensor._im2col

    def im2col(*args):
        calls.append((threading.current_thread().name,
                      tensor._OPENBLAS[0]() if tensor._OPENBLAS else 0,
                      len(args) == 6 and args[5] is not None))
        return original(*args)

    monkeypatch.setattr(tensor, "_im2col", im2col)
    return calls


class _NumpyCalls:
    """Stands in for numpy in ``branchnet.tensor`` and logs (name, thread
    name, ``out`` buffer given) of every call of the functions ``names``."""

    def __init__(self, names):
        self.names, self.calls = names, []

    def __getattr__(self, name):
        function = getattr(np, name)
        if name not in self.names:
            return function

        def logged(*args, **kwargs):
            self.calls.append((name, threading.current_thread().name, "out" in kwargs))
            return function(*args, **kwargs)
        return logged


def _watch_tile_work(monkeypatch):
    """(name, thread name, ``out`` given) of every later allocation, product
    and elementwise op (``np.empty``, ``matmul``, ``add`` and ``maximum``)
    in ``branchnet.tensor``."""
    numpy_calls = _NumpyCalls({"empty", "matmul", "add", "maximum"})
    monkeypatch.setattr(tensor, "np", numpy_calls)
    return numpy_calls.calls


def _tiled_conv_run_log(n):
    """What a spawned pool worker reports after a conv of ``n`` 32x32x16 images."""
    rng = np.random.default_rng(n)
    conv2d(Tensor(rng.standard_normal((n, 32, 32, 16))),
           Tensor(rng.standard_normal((16, 16, 3, 3))), pad=1)
    return tensor.conv_tile_mode(), threading.active_count(), tensor._TILE_POOL is None


IMPORT_DECISION = """
import threading
import numpy as np
import branchnet
from branchnet import tensor
from branchnet.tensor import Tensor, conv2d
print((tensor._OPENBLAS[0](), tensor.conv_tile_mode(), tensor._TILE_POOL is not None,
       threading.active_count()))
conv2d(Tensor(np.ones((4, 32, 32, 16))), Tensor(np.ones((16, 16, 3, 3))), pad=1)   # two tiles
print(sorted({thread.name.rsplit("_", 1)[0] for thread in threading.enumerate()}))
"""


def _fresh_import(blas_threads):
    """What IMPORT_DECISION prints, one literal a line, in a fresh interpreter
    started with OPENBLAS_NUM_THREADS=``blas_threads``: (OpenBLAS threads,
    tile mode, pool made, Python threads) right after ``import branchnet``,
    then the names of the Python threads after a conv of two tiles."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    out = subprocess.run([sys.executable, "-c", IMPORT_DECISION], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    return [ast.literal_eval(line) for line in out.splitlines()]


class TestPooledConvTiles:
    """A conv of two or more patch tiles runs them on two threads, with
    OpenBLAS at one thread, and gives the bytes of the same tiles run inline."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
    def test_pooled_tiles_equal_inline_tiles(self, geometry, dtype, tile_pool, monkeypatch):
        hwc, weight_shape, stride, pad = geometry
        # three tiles, so that the third waits for the first to finish
        n = 2 * _images_per_tile(hwc, weight_shape, stride, pad, dtype) + 3
        rng = np.random.default_rng(hash(geometry) % 2**32)
        x = Tensor(rng.standard_normal((n,) + hwc).astype(dtype), requires_grad=hwc[2] != 3)
        weight = Tensor(rng.standard_normal(weight_shape).astype(dtype), requires_grad=True)
        grad = rng.standard_normal((n,) + _out_hw(hwc, weight_shape, stride, pad)
                                   + weight_shape[:1]).astype(dtype)
        # an eval conv's folded batch norm bias, shortcut and relu
        bias = Tensor(rng.standard_normal(weight_shape[:1]).astype(dtype))
        shortcut = Tensor(rng.standard_normal(grad.shape).astype(dtype))

        def forward_and_grads():
            with Tape() as tape:
                out = conv2d(x, weight, stride=stride, pad=pad)
            (node,) = tape.nodes
            dx, dw, _ = node.backward(grad)
            folded = conv2d(Tensor(x.data), Tensor(weight.data), bias, stride=stride, pad=pad,
                            shortcut=shortcut, relu=True)
            return out.data, dx, dw, folded.data

        calls = _watch_tiles(monkeypatch)
        pooled = forward_and_grads()
        # the tiles' bias, shortcut and relu equal those ops on the whole output
        whole = conv2d_one_gemm(x.data, weight.data, stride=stride, pad=pad)
        whole += bias.data
        whole += shortcut.data
        assert pooled[3].tobytes() == np.maximum(whole, 0.0, out=whole).tobytes()
        assert {name.startswith("conv-tile") for name, _, _ in calls[:3]} == {True}
        monkeypatch.setattr(tensor, "_TILE_POOL", None)
        del calls[:]
        inline = forward_and_grads()
        assert {name for name, _, _ in calls} == {threading.current_thread().name}
        for got, want in zip(pooled, inline):
            if want is None:   # the stem's input takes no gradient
                assert got is None
            else:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_workers_and_caller_run_one_blas_thread(self, rng, tile_pool, monkeypatch):
        calls = _watch_tiles(monkeypatch)
        x = Tensor(rng.standard_normal((64, 32, 32, 16)))
        conv2d(x, Tensor(rng.standard_normal((16, 16, 3, 3))), pad=1)
        assert len(calls) == 22   # 3 images of 1.125 MiB patches per 4 MiB tile
        assert {name.startswith("conv-tile") for name, _, _ in calls} == {True}
        assert {count for _, count, _ in calls} == {1}
        # the calling thread allocated every tile's padded input
        assert {padded for _, _, padded in calls} == {True}
        assert tensor._OPENBLAS[0]() == 1
        assert tensor.conv_tile_mode() == "2 threads"

    def test_products_and_eval_epilogues_run_on_tile_threads(self, rng, tile_pool,
                                                             monkeypatch):
        caller = threading.current_thread().name
        x = Tensor(rng.standard_normal((9, 32, 32, 16)), requires_grad=True)   # 3 tiles of 3
        weight = Tensor(rng.standard_normal((16, 16, 3, 3)), requires_grad=True)
        with Tape() as tape:
            out = conv2d(x, weight, pad=1)
        (node,) = tape.nodes
        grad = rng.standard_normal(out.shape)
        calls = _watch_tile_work(monkeypatch)
        node.backward(grad)
        # per tile, on a tile thread: the GEMM of dx and the weight-gradient
        # product, each into a buffer given; on the calling thread: every
        # allocation (the output, and per tile its patches, padding and
        # product) and the tile-order sum of the products into dw
        assert sorted((name, out) for name, thread, out in calls
                      if thread.startswith("conv-tile")) == [("matmul", True)] * 6
        assert sorted((name, out) for name, thread, out in calls
                      if thread == caller) == [("add", True)] * 3 + [("empty", False)] * 10

        del calls[:]
        bias = Tensor(rng.standard_normal(16))
        shortcut = Tensor(rng.standard_normal(out.shape))
        conv2d(Tensor(x.data), Tensor(weight.data), bias, pad=1, shortcut=shortcut, relu=True)
        # per tile, on a tile thread: the GEMM, the bias and shortcut adds and
        # relu, each in place; on the calling thread: the output and per tile
        # its patches and padding
        assert sorted((name, out) for name, thread, out in calls
                      if thread.startswith("conv-tile")) == sorted(
            [("matmul", True), ("add", True), ("add", True), ("maximum", True)] * 3)
        assert [(name, out) for name, thread, out in calls
                if thread == caller] == [("empty", False)] * 7

    def test_shortcut_of_wrong_shape_raises_before_any_tile_is_submitted(self, rng, tile_pool,
                                                                        monkeypatch):
        calls = _watch_tiles(monkeypatch)
        submitted = []
        monkeypatch.setattr(tile_pool, "submit", lambda *args: submitted.append(args))
        x = Tensor(rng.standard_normal((9, 32, 32, 16)))
        weight = Tensor(rng.standard_normal((8, 16, 3, 3)))
        for shape in ((8, 32, 32, 8), (9, 32, 32, 16), (9, 16, 16, 8), (9 * 32 * 32 * 8,)):
            with pytest.raises(tensor.ShapeError, match="shortcut"):
                conv2d(x, weight, pad=1, shortcut=Tensor(np.zeros(shape)), relu=True)
        assert calls == [] and submitted == []

    def test_taped_conv_refuses_shortcut_and_relu(self, rng):
        # the tape would record the conv without them, so its gradients would be wrong
        x = Tensor(rng.standard_normal((2, 8, 8, 4)), requires_grad=True)
        weight = Tensor(rng.standard_normal((4, 4, 3, 3)), requires_grad=True)
        for epilogue in ({"shortcut": x}, {"relu": True}):
            with Tape() as tape, pytest.raises(ValueError, match="forward-only"):
                conv2d(x, weight, pad=1, **epilogue)
            assert len(tape) == 0

    def test_one_tile_runs_inline(self, rng, tile_pool, monkeypatch):
        calls = _watch_tiles(monkeypatch)
        conv2d(Tensor(rng.standard_normal((3, 32, 32, 16))),
               Tensor(rng.standard_normal((16, 16, 3, 3))), pad=1)
        assert calls == [(threading.current_thread().name, 1, True)]

    @pytest.mark.skipif(tensor._OPENBLAS is None, reason="OpenBLAS cannot be reached")
    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS caps its threads at the cores")
    def test_import_with_two_blas_threads_sets_one_and_makes_the_pool(self):
        # the pool starts no thread at import; a conv of two tiles starts its first
        assert _fresh_import(2) == [(1, "2 threads", True, 1), ["MainThread", "conv-tile"]]

    @pytest.mark.skipif(tensor._OPENBLAS is None, reason="OpenBLAS cannot be reached")
    def test_import_with_one_blas_thread_makes_no_pool(self):
        assert _fresh_import(1) == [(1, "inline (OpenBLAS has 1 thread)", False, 1),
                                    ["MainThread"]]

    def test_one_blas_thread_runs_every_tile_inline_and_starts_no_pool(self, rng,
                                                                       monkeypatch):
        # as import leaves a process whose OpenBLAS ran one thread, or cannot be reached
        monkeypatch.setattr(tensor, "_TILE_POOL", None)
        calls = _watch_tiles(monkeypatch)
        x = Tensor(rng.standard_normal((12, 32, 32, 16)))
        weight = Tensor(rng.standard_normal((16, 16, 3, 3)))
        for openblas, mode in (((lambda: 1, None), "inline (OpenBLAS has 1 thread)"),
                               (None, "inline (no OpenBLAS thread control)")):
            monkeypatch.setattr(tensor, "_OPENBLAS", openblas)
            del calls[:]
            conv2d(x, weight, pad=1)
            assert tensor.conv_tile_mode() == mode
            assert len(calls) == 4 and {name for name, _, _ in calls} == {
                threading.current_thread().name}
        assert tensor._TILE_POOL is None

    def test_spawned_pool_workers_stand_the_tile_pool_down(self):
        # tests/pool.py starts each worker with one OpenBLAS thread, so no
        # worker adds tile threads to the cores its siblings already fill
        for mode, threads, no_pool in run_pooled(_tiled_conv_run_log, [(12,), (13,)]):
            assert mode == "inline (OpenBLAS has 1 thread)"
            assert threads == 1 and no_pool

    def test_child_forked_after_pooled_tiles_does_not_hang(self, rng, tile_pool):
        x = rng.standard_normal((64, 32, 32, 16))
        weight = rng.standard_normal((16, 16, 3, 3))
        want = conv2d(Tensor(x), Tensor(weight), pad=1).data   # runs on the pool's threads
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)

        def child():
            send.send_bytes(conv2d(Tensor(x), Tensor(weight), pad=1).data.tobytes())

        process = context.Process(target=child)
        process.start()
        try:
            # a child that kept the parent's pool object, but none of its
            # threads, would wait forever for its first tile
            assert receive.poll(30), "the forked child's conv did not finish in 30 s"
            assert receive.recv_bytes() == want.tobytes()
        finally:
            process.kill()
            process.join()


class TestPoolInputGradBitIdentity:
    # (H, W, window, stride): the stem pool (2, 2), overlapping windows
    # (stride < window), windows that skip input rows and columns
    # (stride > window), and the 1x1 and whole-input windows
    GEOMETRIES = [(8, 8, 2, 2), (9, 7, 3, 2), (6, 6, 3, 1), (5, 5, 2, 1),
                  (7, 9, 2, 3), (4, 4, 4, 1), (6, 5, 1, 1)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["max", "avg"])
    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=str)
    def test_per_tap_fold_equals_one_hot_fold(self, geometry, kind, dtype):
        h, w, window, stride = geometry
        rng = np.random.default_rng([*geometry, int(kind == "max")])
        for ties in (False, True):
            x = rng.standard_normal((3, h, w, 4))
            if ties:   # integer values: most windows hold a tied maximum
                x = np.round(x)
            x = Tensor(x.astype(dtype), requires_grad=True)
            with Tape() as tape:
                out = pool2d(x, kind, window, stride)
            grad = rng.standard_normal(out.shape).astype(dtype)
            (node,) = tape.nodes
            dx = node.backward(grad)[0]
            want = pool2d_dx_onehot(x.data, grad, kind, window, stride)
            assert dx.dtype == want.dtype == dtype
            assert dx.tobytes() == want.tobytes(), ties


class TestMaxPoolRunningMaximum:
    """Max pool keeps a running maximum over its taps and rebuilds each tap's
    mask in backward; output and input gradient equal the one-hot reference
    byte for byte on random geometries, including tied maxima."""

    # normal values; integers (most windows tie); relu'd normal values (the
    # stem pool's input, often an all-zero window); +0.0 and -0.0 mixed with
    # +-1, so tied zero maxima differ in sign
    VALUES = {
        "normal": lambda r, shape: r.standard_normal(shape),
        "integers": lambda r, shape: r.integers(-2, 3, shape).astype(float),
        "relu": lambda r, shape: np.maximum(r.standard_normal(shape), 0.0),
        "signed-zeros": lambda r, shape: r.choice([-0.0, 0.0, -1.0, 1.0], shape,
                                                  p=[0.4, 0.4, 0.1, 0.1]),
    }

    @given(n=st.integers(1, 3), h=st.integers(1, 9), w=st.integers(1, 9),
           c=st.integers(1, 5), window=st.integers(1, 4), stride=st.integers(1, 4),
           values=st.sampled_from(sorted(VALUES)),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_output_and_input_grad_equal_one_hot_reference(self, n, h, w, c, window, stride,
                                                           values, dtype, seed):
        window = min(window, h, w)
        rng = np.random.default_rng(seed)
        x = Tensor(self.VALUES[values](rng, (n, h, w, c)).astype(dtype), requires_grad=True)
        with Tape() as tape:
            out = pool2d(x, "max", window, stride)
        want = pool2d_max_first(x.data, window, stride)
        assert out.dtype == want.dtype == dtype
        assert out.data.tobytes() == want.tobytes()
        assert np.array_equal(pool2d(Tensor(x.data), "max", window, stride).data, want)
        grad = rng.standard_normal(out.shape).astype(dtype)
        (node,) = tape.nodes
        dx = node.backward(grad)[0]
        want_dx = pool2d_dx_onehot(x.data, grad, "max", window, stride)
        assert dx.dtype == want_dx.dtype == dtype
        assert dx.tobytes() == want_dx.tobytes()


class TestBatchNormRebuildsNormalizedInput:
    @staticmethod
    def _bn_args(rng, c, dtype=np.float64):
        gamma = Tensor(rng.standard_normal(c).astype(dtype), requires_grad=True)
        beta = Tensor(rng.standard_normal(c).astype(dtype), requires_grad=True)
        running = (Tensor(rng.standard_normal(c).astype(dtype)),
                   Tensor(rng.random(c).astype(dtype) + 0.5))
        return gamma, beta, running

    @pytest.mark.parametrize("mode, epilogue", [("train", False), ("eval", False),
                                                ("train", True), ("eval", True)],
                             ids=["train", "eval", "train-shortcut-relu", "eval-shortcut-relu"])
    def test_taped_forward_keeps_one_output_sized_buffer(self, rng, mode, epilogue):
        x = Tensor(rng.standard_normal((16, 32, 32, 16)), requires_grad=True)
        gamma, beta, running = self._bn_args(rng, 16)
        kwargs = ({"shortcut": Tensor(rng.standard_normal(x.shape), requires_grad=True),
                   "relu": True} if epilogue else {})
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                out = batch_norm2d(x, gamma, beta, *running, mode=mode, **kwargs)
            live = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(tape) == 1
        # the output (2 MiB) plus per-channel arrays and the node; keeping the
        # normalized input or the sum before relu for backward as well would
        # double it
        assert live < 1.25 * out.data.nbytes

    def test_eval_gradients_are_those_of_its_own_forward(self, rng):
        x_data = rng.standard_normal((4, 5, 5, 3))
        grad = rng.standard_normal(x_data.shape)

        def gradients(update_buffers_before_backward):
            gamma, beta, running = self._bn_args(np.random.default_rng(1), 3)
            x = Tensor(x_data, requires_grad=True)
            with Tape() as tape:
                out = batch_norm2d(x, gamma, beta, *running, mode="eval")
            if update_buffers_before_backward:
                # a train-mode call updates the running buffers in place
                batch_norm2d(Tensor(x_data * 3.0 + 2.0), gamma, beta, *running)
            (node,) = tape.nodes
            return out.data, node.backward(grad)

        out, grads = gradients(False)
        updated_out, updated_grads = gradients(True)
        assert np.array_equal(out, updated_out)
        for got, want in zip(updated_grads, grads):
            assert np.array_equal(got, want)


def _traced_peak(fn):
    """Peak traced bytes above the memory live when ``fn`` starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


class TestMemoryBounds:
    def test_forward_only_conv_holds_one_patch_tile(self, rng):
        x = Tensor(rng.standard_normal((64, 32, 32, 16)))
        weight = Tensor(rng.standard_normal((16, 16, 3, 3)))
        peak, out = _traced_peak(lambda: conv2d(x, weight, pad=1))
        # the whole batch's patches would be 64 * 1024 * 144 * 8 B = 72 MiB
        assert peak <= out.data.nbytes + tensor._PATCH_TILE_BYTES + 2 * MiB

    def test_forward_only_conv_adds_its_bias_in_place(self, rng):
        # evaluation's folded convs all carry a bias; ``out + bias`` would
        # hold a second 32 MiB output
        x = Tensor(rng.standard_normal((64, 32, 32, 16)))
        weight = Tensor(rng.standard_normal((64, 16, 3, 3)))
        bias = Tensor(rng.standard_normal(64))
        peak, out = _traced_peak(lambda: conv2d(x, weight, bias, pad=1))
        assert out.data.nbytes == 32 * MiB
        assert peak <= out.data.nbytes + tensor._PATCH_TILE_BYTES + 2 * MiB

    def test_forward_only_max_pool_allocates_little_beside_its_output(self, rng):
        x = Tensor(rng.standard_normal((256, 16, 16, 8)))
        peak, out = _traced_peak(lambda: pool2d(x, "max", 2, 2))
        # the output is 1 MiB; a copy of every window (4 MiB) or an int64
        # argmax index (1 MiB) would not fit
        assert peak <= 1.25 * out.data.nbytes

    def test_taped_max_pool_keeps_no_array_but_its_output(self, rng):
        x = Tensor(rng.standard_normal((256, 16, 16, 8)), requires_grad=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                out = pool2d(x, "max", 2, 2)
            live = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(tape) == 1
        # the output and the node; an index of the window maxima for backward
        # would hold another output-sized array
        assert live < 1.25 * out.data.nbytes

    def test_taped_conv_keeps_no_patches_after_its_forward(self, rng):
        x = Tensor(rng.standard_normal((64, 32, 32, 16)), requires_grad=True)
        weight = Tensor(rng.standard_normal((16, 16, 3, 3)), requires_grad=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                out = conv2d(x, weight, pad=1)
            live = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(tape) == 1
        # the output (8 MiB) and the node; keeping the patch matrix for the
        # weight gradient would add 64 * 1024 * 144 * 8 B = 72 MiB
        assert live <= out.data.nbytes + 2 * MiB

    def test_conv_backward_builds_no_patch_gradient_matrix(self, rng):
        x = Tensor(rng.standard_normal((64, 32, 32, 16)), requires_grad=True)
        weight = Tensor(rng.standard_normal((16, 16, 3, 3)), requires_grad=True)
        with Tape() as tape:
            out = conv2d(x, weight, pad=1)
        grad = rng.standard_normal(out.shape)
        (node,) = tape.nodes
        peak, (dx, dw, _) = _traced_peak(lambda: node.backward(grad))
        assert dx.shape == x.shape and dw.shape == weight.shape
        # the bound of a backward that rebuilds the input's patch matrix
        # (64 * 1024 * 144 * 8 B = 72 MiB) from a padded copy of x for the
        # weight gradient, and frees both before a per-tap fold, which holds
        # the padded input gradient (9.5 MB) and one tap's product (8.4 MB);
        # a (N*OH*OW, 9*Cin) patch-gradient matrix, another 72 MiB, would not
        # fit (a stride-1 conv now stays far below it, see the next test)
        patches = 64 * 32 * 32 * 9 * 16 * 8
        padded_dx = 64 * 34 * 34 * 16 * 8
        tap_product = 64 * 32 * 32 * 16 * 8
        assert peak <= patches + padded_dx + tap_product + 2 * MiB

    def test_stride1_conv_backward_holds_one_patch_tile(self, rng):
        x = Tensor(rng.standard_normal((64, 32, 32, 16)), requires_grad=True)
        weight = Tensor(rng.standard_normal((16, 16, 3, 3)), requires_grad=True)
        with Tape() as tape:
            out = conv2d(x, weight, pad=1)
        grad = rng.standard_normal(out.shape)
        (node,) = tape.nodes
        peak, (dx, dw, _) = _traced_peak(lambda: node.backward(grad))
        # the input gradient (8 MiB) and one patch tile of the padded output
        # gradient, from which both gradients come; measured 15.6 MiB
        assert peak <= dx.nbytes + tensor._PATCH_TILE_BYTES + 2 * MiB

    def test_reverse_pass_peak_stays_near_memory_live_after_forward(self, rng):
        net = build_branched_net(mini_config(num_branches=3, branch_after_block=2,
                                             input_size=16), seed=1)
        batch = Tensor(rng.standard_normal((8, 16, 16, 3)))
        targets = smooth_label_matrix(rng.integers(0, 10, size=8), 10, 0.1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                loss, _ = combined_branch_loss(
                    net.forward_all_branches(batch, mode="train"), targets)
            live_after_forward = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            reverse_pass(tape, loss)
            reverse_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the slack covers one node's backward temporaries (about 1 MiB here:
        # a conv's rebuilt patch matrix and padded input); keeping every node
        # and intermediate gradient to the end of the pass costs about 20 MiB more
        assert reverse_peak <= live_after_forward + 2 * MiB


    # (workload net, dtype, batch, bound): a step holds every conv's input but
    # only one conv's patch matrix at a time, the one its backward rebuilds,
    # and one buffer per batch norm, which takes the add and relu; measured
    # peaks 19.79, 7.24 and 59.92 MiB, against 29.56, 9.87 and 90.57 MiB with
    # separate residual_add and relu nodes and 82.1, 22.4 and 254.6 MiB when
    # every taped conv kept its patch matrix to its backward
    STEP_PEAKS = [(0, np.float32, 32, 23 * MiB), (1, np.float64, 64, 8.5 * MiB),
                  (2, np.float64, 10, 69 * MiB)]

    @pytest.mark.parametrize("index, dtype, batch_size, bound", STEP_PEAKS,
                             ids=["train_mini_f32", "train_ref_fullaug_f64", "eval_wide_f64"])
    def test_training_step_peak_of_workload_net(self, index, dtype, batch_size, bound):
        config = WORKLOAD_NETS[index]
        rng = np.random.default_rng(index)
        net = build_branched_net(config, seed=index, dtype=dtype)
        shape = (batch_size, config.input_height, config.input_width, config.input_channels)
        batch = Tensor(rng.standard_normal(shape).astype(dtype))
        targets = smooth_label_matrix(rng.integers(0, config.num_classes, size=batch_size),
                                      config.num_classes, 0.1)

        def step():
            with Tape() as tape:
                loss, _ = combined_branch_loss(net.forward_all_branches(batch, mode="train"),
                                               targets)
            reverse_pass(tape, loss)

        peak, _ = _traced_peak(step)
        assert peak <= bound


class TestReversePassConsumesTape:
    def test_tape_emptied_and_only_leaves_keep_grad(self, rng):
        net = build_branched_net(mini_config(num_branches=2, input_size=8), seed=2)
        batch = Tensor(rng.standard_normal((4, 8, 8, 3)))
        targets = smooth_label_matrix(rng.integers(0, 10, size=4), 10, 0.1)
        with Tape() as tape:
            loss, _ = combined_branch_loss(net.forward_all_branches(batch, mode="train"),
                                           targets)
        outputs = [node.output for node in tape.nodes]
        reverse_pass(tape, loss)
        assert len(tape) == 0
        assert loss in outputs
        assert all(t.grad is None for t in outputs)
        assert all(p.grad is not None and p.grad.shape == p.shape
                   for p in net.params.values())
