"""Dense tensors and taped reverse-mode differentiation.

The operation set is exactly what the branched residual network needs:
conv2d, batch_norm2d, relu, pool2d, global_avg_pool, linear, softmax,
residual_add, plus a handful of scalarizing helpers (sum_all, weighted_sum,
softmax_cross_entropy) used by the loss and the gradient checker.

Gradients are recorded on an explicit :class:`Tape`: ops executed inside a
``with Tape() as tape:`` block append nodes in execution order, which is a
valid topological order, and :func:`reverse_pass` consumes it backwards,
freeing each node (its backward closure and saved intermediates) once it
has run. Outside a tape, or when no input needs a gradient, ops run
forward-only and keep no graph memory. conv2d has one forward, taped or
not: it builds its im2col patch matrix one tile of images at a time and
adds its bias to each tile's rows in place, so no conv holds a whole
batch's patches or a second output. A conv of several tiles runs two at a
time on two threads, each copying patches, running its GEMM and finishing
its rows on one OpenBLAS thread (:func:`_conv_tiles`). Importing this module
decides that once: an OpenBLAS that starts at one thread
(``OPENBLAS_NUM_THREADS=1``, or a second copy of this module imported into
the same process) keeps every tile on the calling thread. Max pool is a
running maximum over its window taps. Nodes keep inputs, not what
backward can rebuild (a conv's patch matrix, batch norm's centred input
and relu mask, max pool's tap masks). A stride-1 conv takes its input
gradient as a conv of the output gradient, and its weight gradient from the
same patch tiles, each tile's product on the thread that copied them; a
strided conv and pool2d fold their input gradients per window tap
(:func:`_fold_taps`).

Neither mode runs relu or residual_add on the network: each layer's last
op adds the residual shortcut and applies relu in its own output
(``shortcut`` and ``relu``, ``branchnet.model``), batch_norm2d in training
and, in evaluation, the conv that each batch norm is folded into.
Eval-mode batch_norm2d, relu and residual_add stay as the differentiable
references they are checked against; residual_add also sums the losses.

Activations and their gradients are NHWC ([N, H, W, C]) throughout, so no op
converts layouts; conv weights are OIHW ([Cout, Cin, kh, kw]).

Reference precision is float64; float32 is permitted for fast training runs.
Dtype follows the input arrays.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Optional

import numpy as np

DTYPE_REF = np.float64

# Patch memory in flight in one conv: two tiles of at most half of it each
# (see _conv_tiles).
_PATCH_TILE_BYTES = 8 * 2**20

# Variance floor of every batch norm, also used when one is folded into a conv.
BN_EPSILON = 1e-5
# Weight of the old running statistic in every batch norm's train-mode update.
BN_MOMENTUM = 0.9


class ShapeError(ValueError):
    """Raised when operand shapes disagree; names the offending dimension."""


class NonFiniteError(ValueError):
    """Raised when an op that needs finite inputs receives NaN or inf."""


class Tensor:
    """Dense N-dimensional float array with optional gradient.

    ``grad`` is populated by :func:`reverse_pass` and always has the same
    shape as ``data``. Only leaves (tensors no op produced) keep a
    gradient after the pass; an op output's ``grad`` is dropped once its
    node has run. ``requires_grad`` marks leaves whose gradient is wanted;
    it propagates to op outputs while a tape is active.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DTYPE_REF)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class TapeNode:
    """One recorded op; ``backward`` may overwrite the gradient it is given."""
    __slots__ = ("op", "inputs", "output", "backward")

    def __init__(self, op: str, inputs: tuple[Tensor, ...], output: Tensor,
                 backward: Callable[[np.ndarray], tuple]):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward = backward


class TapeError(RuntimeError):
    """Raised when a tape closes before a tape opened after it on its thread."""


class Tape:
    """Ordered record of differentiable ops, appended in execution order.

    Execution order is a topological order of the (acyclic) graph, so the
    reverse pass visits each node exactly once, last-created first. Ops
    record on their own thread's innermost open tape.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if _TAPE_STACK.tapes[-1:] != [self]:
            raise TapeError("tapes must close innermost first, on the thread that opened them")
        _TAPE_STACK.tapes.pop()

    def __len__(self) -> int:
        return len(self.nodes)


class _ThreadTapes(threading.local):
    def __init__(self):
        self.tapes: list[Tape] = []   # this thread's open tapes, innermost last


_TAPE_STACK = _ThreadTapes()


def _recording(inputs: tuple[Tensor, ...]) -> bool:
    return bool(_TAPE_STACK.tapes) and any(t.requires_grad for t in inputs)


def _record(op: str, inputs: tuple[Tensor, ...], output: Tensor,
            backward: Callable[[np.ndarray], tuple]) -> None:
    if _recording(inputs):
        output.requires_grad = True
        _TAPE_STACK.tapes[-1].nodes.append(TapeNode(op, inputs, output, backward))


def reverse_pass(tape: Tape, loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad leaf reachable from ``loss``.

    The pass consumes the tape: it pops each node, last-created first, so
    the node's backward closure and what it saved are freed as soon as it
    has run, and it drops each op output's ``grad`` once that node has used
    it. Afterwards ``len(tape) == 0`` and only leaves hold a gradient.
    Gradients accumulate (sum) across fan-out, in place into the first
    contribution (:func:`_accumulate`), so the one node that pops a gradient
    owns it and its backward may overwrite it. The walk order is fixed
    (reverse execution order), so reference-mode results are bit-reproducible.
    """
    if loss.data.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    nodes = tape.nodes
    while nodes:
        node = nodes.pop()
        out_grad, node.output.grad = node.output.grad, None
        if out_grad is not None:
            _accumulate(node.inputs, node.backward(out_grad))


def _accumulate(inputs: tuple[Tensor, ...], grads: tuple) -> None:
    """Sum each input gradient into its tensor's ``grad``, later ones in place into
    the first. That is kept if its backward allocated it whole, in the tensor's
    dtype, for this input alone, else copied (``residual_add``'s shared array, a
    read-only broadcast, a padded slice). (A function of its own, so no loop
    variable keeps a gradient alive into the next node's backward.)"""
    for k, (tensor, grad) in enumerate(zip(inputs, grads)):
        if grad is None or not tensor.requires_grad:
            continue
        if tensor.grad is None:
            whole = grad.flags.writeable and (grad.base is None or grad.base.nbytes == grad.nbytes)
            tensor.grad = grad.astype(tensor.data.dtype,
                                      copy=not whole or any(g is grad for g in grads[:k]))
        else:
            tensor.grad += grad


# ---------------------------------------------------------------------------
# convolution

def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int,
            padded: Optional[np.ndarray] = None) -> np.ndarray:
    """(N,H,W,C) input -> (N,OH,OW,kh,kw,C) window view.

    Flattened to (N*OH*OW, kh*kw*C) patch rows, the columns are in
    (kh, kw, C) order: in each kernel row the kw*C inputs lie next to each
    other in the NHWC input, so the copy moves kh contiguous runs per patch
    row. An OIHW weight matches it as ``weight.transpose(0, 2, 3, 1)``.
    A padded input is copied once into a buffer whose border alone is zeroed:
    ``padded`` ([N, H+2*pad, W+2*pad, C]) if given, else a new one.
    """
    n, h, w, c = x.shape
    if pad > 0:
        if padded is None:
            padded = np.empty((n, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
        padded[:, :pad] = padded[:, h + pad:] = 0
        padded[:, pad:h + pad, :pad] = padded[:, pad:h + pad, w + pad:] = 0
        padded[:, pad:h + pad, pad:w + pad] = x
        x, h, w = padded, h + 2 * pad, w + 2 * pad
    sn, sh, sw, sc = x.strides
    shape = (n, (h - kh) // stride + 1, (w - kw) // stride + 1, kh, kw, c)
    return np.lib.stride_tricks.as_strided(
        x, shape, (sn, stride * sh, stride * sw, sh, sw, sc), writeable=False)


def _fold_taps(tap_grad: Callable[[int], np.ndarray], x_shape, kh: int, kw: int,
               stride: int, pad: int, dtype) -> np.ndarray:
    """Input gradient of a window op from per-tap gradients: of pool2d, and of
    a conv unless it has stride 1, a square k x k kernel and pad < k (then
    the input gradient is a conv, :func:`conv2d`).

    ``tap_grad(t)`` is tap (i, j)'s (N,OH,OW,C) gradient, t = i*kw + j. In
    row-major tap order each is added straight into the strided slice of
    one zeroed, padded input gradient, in runs of OW*C values; overlapping
    windows sum. No (N*OH*OW, kh*kw*C) window-gradient matrix is built.
    """
    n, h, w, c = x_shape
    dx = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=dtype)
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    for i in range(kh):
        for j in range(kw):
            dx[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += tap_grad(i * kw + j)
    return dx[:, pad:pad + h, pad:pad + w]


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, pad: int = 0, shortcut: Optional[Tensor] = None,
           relu: bool = False) -> Tensor:
    """2-D cross-correlation (no kernel flip): [N,H,W,Cin] input, OIHW weight,
    [N,OH,OW,Cout] output.

    Output spatial size is floor((H + 2*pad - kh)/stride) + 1, same for W.
    The GEMM multiplies (kh, kw, Cin)-ordered patch rows (:func:`_im2col`)
    by the weight viewed as [Cout, kh, kw, Cin]; the weight itself stays
    OIHW, and so does its gradient. The GEMM runs in patch tiles
    (:func:`_conv_tiles`), which add the bias in place, taped or not, so a
    conv holds one output-sized buffer; untaped, they also add ``shortcut``
    and apply ``relu`` (evaluation's residual add and relu). The backward
    reads the input the tape holds anyway (which nothing may write in place
    before it runs; train mode never does). A stride-1 conv with a square k x k kernel and
    pad < k takes both gradients from the patch tiles of its output
    gradient, padded by k - 1 - pad: times the flipped kernel they give the
    input gradient, the stride-1 conv of the output gradient (Dumoulin &
    Visin 2016, arXiv:1603.07285), and the input rows times them sum to the
    weight gradient. Any other conv, and the stem, whose input takes no
    gradient, rebuilds its input's whole patch matrix, takes the weight
    gradient as one GEMM, frees the patches and folds the input gradient
    per kernel tap (:func:`_fold_taps`). (A float64 tap product of 3
    columns can take another BLAS kernel, but the 3-channel stem takes no
    input gradient.)
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d input must be 4-D [N,H,W,C], got {x.shape}")
    if weight.data.ndim != 4:
        raise ShapeError(f"conv2d weight must be 4-D [Cout,Cin,kh,kw], got {weight.shape}")
    n, h, w, cin = x.shape
    cout, wcin, kh, kw = weight.shape
    if wcin != cin:
        raise ShapeError(f"conv2d channel mismatch: input Cin={cin}, weight Cin={wcin}")
    if kh < 1 or kw < 1 or cin < 1:
        raise ShapeError(f"conv2d kernel must be at least 1x1 over at least one input "
                         f"channel, got {kh}x{kw} over Cin={cin}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if pad < 0:
        raise ValueError(f"pad must be >= 0, got {pad}")
    if kh > h + 2 * pad or kw > w + 2 * pad:
        raise ShapeError(
            f"kernel {kh}x{kw} exceeds padded input {h + 2 * pad}x{w + 2 * pad}")
    if bias is not None and bias.shape != (cout,):
        raise ShapeError(f"conv2d bias must have shape ({cout},), got {bias.shape}")
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if shortcut is not None and shortcut.shape != (n, oh, ow, cout):
        raise ShapeError(f"conv2d shortcut must have the output's shape {(n, oh, ow, cout)}, "
                         f"got {shortcut.shape}")
    inputs = (x, weight) if bias is None else (x, weight, bias)
    if (shortcut is not None or relu) and _recording(inputs):
        raise ValueError("conv2d's shortcut and relu are forward-only; batch_norm2d tapes them")

    w2 = weight.data.transpose(0, 2, 3, 1).reshape(cout, -1)
    out = Tensor(_conv_tiles(x.data, w2, kh, kw, stride, pad, (n, oh, ow, cout),
                             bias=None if bias is None else bias.data, relu=relu,
                             shortcut=None if shortcut is None else shortcut.data))

    def backward(grad: np.ndarray):
        g2 = grad.reshape(-1, cout)
        db = g2.sum(axis=0) if bias is not None else None
        if x.requires_grad and stride == 1 and kh == kw and pad < kh:
            # per patch tile of grad: dx rows = tile @ wt.T, and dw += x rows.T @ tile,
            # with wt the flipped kernel as [Cin, (kh, kw, Cout)], so dw's taps are flipped
            wt = weight.data[:, :, ::-1, ::-1].transpose(1, 2, 3, 0).reshape(cin, -1)
            dwt = np.zeros_like(wt, dtype=np.result_type(x.data, grad))
            dx = _conv_tiles(grad, wt, kh, kw, 1, kh - 1 - pad, x.shape,
                             weight_grad=(x.data.reshape(-1, cin), dwt))
            dw = dwt.reshape(cin, kh, kw, cout)[:, ::-1, ::-1].transpose(3, 0, 1, 2)
            return dx, np.ascontiguousarray(dw), db
        cols = _im2col(x.data, kh, kw, stride, pad).reshape(n * oh * ow, -1)
        dw = np.ascontiguousarray((g2.T @ cols).reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2))
        del cols   # free the rebuilt patches before the input gradient's fold
        dx = None
        if x.requires_grad:   # the stem conv's input, the image batch, needs none
            taps = w2.reshape(cout, kh * kw, cin)   # tap t's weight is taps[:, t]
            dx = _fold_taps(lambda t: (g2 @ taps[:, t]).reshape(n, oh, ow, cin),
                            x.shape, kh, kw, stride, pad, np.result_type(g2, w2))
        return dx, dw, db

    _record("conv2d", inputs, out, backward)
    return out


def _conv_tiles(x: np.ndarray, w2: np.ndarray, kh: int, kw: int, stride: int,
                pad: int, out_shape: tuple[int, int, int, int], bias: Optional[np.ndarray] = None,
                shortcut: Optional[np.ndarray] = None, relu: bool = False,
                weight_grad: Optional[tuple[np.ndarray, np.ndarray]] = None) -> np.ndarray:
    """Conv GEMM over tiles of whole images, taped or not.

    The batch is split into the fewest near-equal tiles whose patch
    matrices fit half of ``_PATCH_TILE_BYTES`` (at least one image per
    tile), and each tile's GEMM writes straight into its rows of the
    preallocated output. A GEMM row depends only on its own patch row as
    long as BLAS runs the same kernel. Near-equal tiles keep each tile of a
    split batch at about a quarter of the budget or more, too large for the
    small-matrix kernels that some BLAS builds (OpenBLAS on AVX-512) pick
    for tiny products and that sum in another order; a remainder tile of a
    few images would change bits. The result therefore equals one GEMM over
    the whole batch's patches bit for bit. Each tile's rows then take
    ``+ bias``, ``+ shortcut`` (of the output's shape) and relu, in that
    order and elementwise, so bit for bit as on the whole output.

    At most two tiles are in flight. A conv of two or more tiles runs them
    on the two threads of ``_TILE_POOL``, each running all of a tile's work
    on one OpenBLAS thread: the patch copy, about half of a conv, then runs
    on both cores, as the GEMM already did. Their patch, padding and product
    buffers are allocated here, on the calling thread, as a worker thread's
    allocations would grow a malloc arena of its own. Whether the pool
    exists is decided once, when this module is imported. A one-tile conv,
    and every conv of a process whose OpenBLAS ran one thread at that import
    (as ``OPENBLAS_NUM_THREADS=1`` sets, or as another copy of this module
    imported earlier leaves it) or whose thread count cannot be reached,
    runs its tiles inline, in the same loop. Workers run no taped op.

    With ``weight_grad = (a, acc)``, each tile also multiplies the transpose
    of its rows of ``a`` ([N*OH*OW, C]) by its patches into a product buffer,
    and ``acc`` ([C, kh*kw*Cin]) sums the products in tile order on the
    calling thread, so its rounding follows the tiling the shapes fix,
    whichever way the tiles run.
    """
    n, oh, ow, cout = out_shape
    _, h, w, c = x.shape
    m, k = oh * ow, w2.shape[1]
    tiles = -(-n // _images_per_tile(m * k * x.itemsize))
    out = np.empty(out_shape, dtype=np.result_type(x, w2))
    rows = out.reshape(n * m, cout)
    a, acc = weight_grad or (None, None)

    def fill(lo, hi, cols, padded, product):
        np.copyto(cols.reshape(hi - lo, oh, ow, kh, kw, c),
                  _im2col(x[lo:hi], kh, kw, stride, pad, padded))
        np.matmul(cols, w2.T, out=rows[lo * m:hi * m])
        tile = out[lo:hi]
        if bias is not None:
            np.add(tile, bias, out=tile)
        if shortcut is not None:
            np.add(tile, shortcut[lo:hi], out=tile)
        if relu:
            np.maximum(tile, 0.0, out=tile)
        if product is not None:
            np.matmul(a[lo * m:hi * m].T, cols, out=product)

    def finish(job, product):
        if job:
            job.result()
        if product is not None:
            np.add(acc, product, out=acc)

    pool = _TILE_POOL if tiles > 1 else None
    in_flight = []   # (job, product) of at most two tiles, oldest first
    try:
        for t in range(tiles):
            if len(in_flight) == 2:
                finish(*in_flight.pop(0))
            lo, hi = t * n // tiles, (t + 1) * n // tiles
            cols = np.empty(((hi - lo) * m, k), dtype=x.dtype)
            padded = (np.empty((hi - lo, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
                      if pad else None)
            product = None if a is None else np.empty(acc.shape, np.result_type(a, x))
            args = (lo, hi, cols, padded, product)
            in_flight.append((pool.submit(fill, *args) if pool else fill(*args), product))
        while in_flight:
            finish(*in_flight.pop(0))
    finally:   # a failed tile leaves no worker writing into out
        wait([job for job, _ in in_flight if job])
    return out


def _images_per_tile(image_patch_bytes: int) -> int:
    """Images in one patch tile, from one image's patch bytes: half of
    ``_PATCH_TILE_BYTES`` per tile, at least one image."""
    return max(1, _PATCH_TILE_BYTES // (2 * image_patch_bytes))


def _load_openblas():
    """(get, set) of the thread count of the OpenBLAS that numpy bundles, or
    None. The count is the whole process's: numpy's pthreads build has no
    per-thread one (``openblas_set_num_threads_local`` sets the same count)."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(path)   # the copy numpy already loaded
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


_OPENBLAS = _load_openblas()
# The tile threads, decided once, at import. If OpenBLAS starts with more than
# one thread, it is set to one for the whole process, every other GEMM
# included: after a two-thread GEMM, OpenBLAS's own second thread spins on a
# core for a while (a pooled conv then took 85 ms instead of 46). The executor
# starts no thread until its first tile. Otherwise every tile runs inline.
_TILE_POOL: Optional[ThreadPoolExecutor] = None
if _OPENBLAS is not None and _OPENBLAS[0]() > 1:
    _OPENBLAS[1](1)
    _TILE_POOL = ThreadPoolExecutor(2, thread_name_prefix="conv-tile")


def _forget_tile_threads() -> None:
    """A forked child has none of its parent's threads, so it forgets their
    pool. If the parent had one, OpenBLAS runs one thread, so the child runs
    its tiles inline and adds no threads to its parent's."""
    global _TILE_POOL
    _TILE_POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_tile_threads)


def conv_tile_mode() -> str:
    """How a conv of several patch tiles runs in this process, for run logs."""
    if _TILE_POOL is not None:
        return "2 threads"
    return "inline (OpenBLAS has 1 thread)" if _OPENBLAS else "inline (no OpenBLAS thread control)"


# ---------------------------------------------------------------------------
# batch normalization

def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor,
                 running_mean: Tensor, running_var: Tensor, mode: str = "train",
                 shortcut: Optional[Tensor] = None, relu: bool = False) -> Tensor:
    """Per-channel normalization of [N,H,W,C] over (N,H,W); population variance,
    floored by ``BN_EPSILON``.

    Train mode uses batch statistics and updates the running buffers in
    place: running <- BN_MOMENTUM*running + (1-BN_MOMENTUM)*batch. Eval mode
    normalizes with the running buffers only. The network's evaluation
    does not call eval mode: it folds the same affine map into the conv
    before it. Eval mode is the taped, gradient-checked reference that
    folding is bounded against.

    The output is ``(x - mean) * s + beta`` with ``s = gamma * inv_std``, then
    ``+ shortcut`` and relu in :func:`_conv_tiles`' order, all in one fresh
    buffer. The backward masks the gradient it owns in place by ``out > 0``
    (also the shortcut's), rebuilds ``xc = x - mean`` (in eval mode with a
    copy of the running mean) and takes two sums, Σg = dbeta and Σg·xc =
    dgamma / inv_std over m = N*H*W rows (Ioffe & Szegedy 2015, arXiv:1502.03167):
    ``dx = s·g + b·xc + c``, ``b = -s·inv_std²·Σg·xc/m``, ``c = -s·Σg/m`` (eval: ``s·g``).

    Every per-channel sum over (N, H, W), the batch statistics and the
    backward's two sums, is one BLAS product (:func:`_channel_sums`). The
    batch variance is the mean square of the centred ``x - mean`` buffer
    that the output is computed in.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if x.data.ndim != 4:
        raise ShapeError(f"batch_norm2d input must be 4-D [N,H,W,C], got {x.shape}")
    n, h, w, c = x.shape
    for name, t in (("gamma", gamma), ("beta", beta),
                    ("running_mean", running_mean), ("running_var", running_var)):
        if t.shape != (c,):
            raise ShapeError(f"batch_norm2d {name} must have shape ({c},), got {t.shape}")
    if shortcut is not None and shortcut.shape != x.shape:
        raise ShapeError(f"batch_norm2d shortcut must have shape {x.shape}, got {shortcut.shape}")

    m = n * h * w
    if mode == "train":
        if m < 2:
            raise ValueError(
                f"batch_norm2d train mode needs N*H*W >= 2, got {m} (degenerate variance)")
        mean = _channel_sums(x.data) / m
        out_data = x.data - mean
        var = _channel_sums(np.square(out_data)) / m
        running_mean.data[...] = BN_MOMENTUM * running_mean.data + (1.0 - BN_MOMENTUM) * mean
        running_var.data[...] = BN_MOMENTUM * running_var.data + (1.0 - BN_MOMENTUM) * var
    else:
        mean, var = running_mean.data.copy(), running_var.data
        out_data = x.data - mean

    inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
    s = gamma.data * inv_std
    out_data *= s
    out_data += beta.data
    if shortcut is not None:
        out_data += shortcut.data
    if relu:
        np.maximum(out_data, 0.0, out=out_data)
    out = Tensor(out_data)

    def backward(grad: np.ndarray):
        if relu:   # reverse_pass hands this node a gradient it alone holds
            np.multiply(grad, out_data > 0, out=grad)
        xc = x.data - mean
        sum_g = _channel_sums(grad)
        gxc = grad * xc
        sum_gxc = _channel_sums(gxc)
        if mode == "eval":
            return grad * s, sum_gxc * inv_std, sum_g, grad
        np.multiply(xc, -s * inv_std * inv_std * sum_gxc / m, out=gxc)   # b * xc
        gxc -= s * sum_g / m   # + c
        gxc += np.multiply(grad, s, out=xc)   # + s * g
        return gxc, sum_gxc * inv_std, sum_g, grad   # grad: the shortcut's, if there is one

    inputs = (x, gamma, beta) if shortcut is None else (x, gamma, beta, shortcut)
    _record("batch_norm2d", inputs, out, backward)
    return out


def _channel_sums(a: np.ndarray) -> np.ndarray:
    """Per-channel sums of an [N,H,W,C] array over (N, H, W), as the BLAS
    product ``ones(N*H*W) @ a.reshape(-1, C)``; several times faster than
    ``a.sum(axis=(0, 1, 2))``, whose inner loop runs over only C values.
    It adds in another order, so it agrees with that sum to rounding."""
    rows = a.reshape(-1, a.shape[-1])
    return np.ones(rows.shape[0], dtype=a.dtype) @ rows


# ---------------------------------------------------------------------------
# elementwise / pooling / linear

def relu(x: Tensor) -> Tensor:
    """Elementwise max(x, 0); gradient mask is 1 where x > 0, else 0."""
    out = Tensor(np.maximum(x.data, 0.0))

    def backward(grad: np.ndarray):
        return ((x.data > 0) * grad,)

    _record("relu", (x,), out, backward)
    return out


def pool2d(x: Tensor, kind: str, window: int, stride: Optional[int] = None) -> Tensor:
    """Per-window max or mean of [N,H,W,C] over non-padded windows.

    Max keeps a running maximum over the taps in row-major order, so the first
    of tied maxima survives, and its backward gives each window's gradient to
    the first tap equal to the output: neither pass builds an index. Avg splits
    it uniformly across the window; both fold it per tap (:func:`_fold_taps`).
    """
    if kind not in ("max", "avg"):
        raise ValueError(f"kind must be 'max' or 'avg', got {kind!r}")
    if x.data.ndim != 4:
        raise ShapeError(f"pool2d input must be 4-D [N,H,W,C], got {x.shape}")
    if window < 1:
        raise ValueError(f"pool window must be >= 1, got {window}")
    if stride is None:
        stride = window
    h, w = x.shape[1:3]
    if window > h or window > w:
        raise ShapeError(f"pool window {window} exceeds input {h}x{w}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    taps = _im2col(x.data, window, window, stride, 0)   # (N,OH,OW,window,window,C)
    if kind == "max":
        # on ties (+0.0 vs -0.0 too) np.maximum keeps its second operand, the earlier tap
        views = [taps[:, :, :, t // window, t % window] for t in range(window * window)]
        out = Tensor(views[0].copy())
        for view in views[1:]:
            np.maximum(view, out.data, out=out.data)

        def backward(grad: np.ndarray):   # tap t takes what is left of grad where it equals out
            left = grad.copy()

            def tap_grad(t):
                g = left * (views[t] == out.data)
                np.subtract(left, g, out=left)
                return g
            return (_fold_taps(tap_grad, x.shape, window, window, stride, 0, grad.dtype),)
    else:
        windows = np.moveaxis(taps, 5, 3)   # (N,OH,OW,C,window,window)
        out = Tensor(windows.reshape(windows.shape[:4] + (window * window,)).mean(axis=-1))

        def backward(grad: np.ndarray):   # every tap takes an equal share
            share = grad / (window * window)
            return (_fold_taps(lambda t: share, x.shape, window, window, stride, 0, grad.dtype),)

    _record(f"pool2d_{kind}", (x,), out, backward)
    return out


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean per channel: [N,H,W,C] -> [N,C]."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool input must be 4-D [N,H,W,C], got {x.shape}")
    n, h, w, c = x.shape
    out = Tensor(x.data.mean(axis=(1, 2)))

    def backward(grad: np.ndarray):
        return (np.broadcast_to(grad[:, None, None, :] / (h * w), x.shape),)

    _record("global_avg_pool", (x,), out, backward)
    return out


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map: [N,D] @ [K,D]^T + [K]."""
    if x.data.ndim != 2:
        raise ShapeError(f"linear input must be 2-D [N,D], got {x.shape}")
    n, d = x.shape
    k, wd = weight.shape
    if wd != d:
        raise ShapeError(f"linear dimension mismatch: input D={d}, weight D={wd}")
    if bias.shape != (k,):
        raise ShapeError(f"linear bias must have shape ({k},), got {bias.shape}")
    out = Tensor(x.data @ weight.data.T + bias.data)

    def backward(grad: np.ndarray):
        return grad @ weight.data, grad.T @ x.data, grad.sum(axis=0)

    _record("linear", (x, weight, bias), out, backward)
    return out


def softmax(logits: Tensor) -> Tensor:
    """Row softmax of [N,K] logits, computed with max subtraction."""
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax input must be 2-D [N,K], got {logits.shape}")
    if not np.all(np.isfinite(logits.data)):
        raise NonFiniteError("softmax rejects non-finite logits")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y)

    def backward(grad: np.ndarray):
        return ((grad - (grad * y).sum(axis=1, keepdims=True)) * y,)

    _record("softmax", (logits,), out, backward)
    return out


def residual_add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of identically shaped tensors (shortcut join)."""
    if a.shape != b.shape:
        raise ShapeError(f"residual_add shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)

    def backward(grad: np.ndarray):
        return grad, grad

    _record("residual_add", (a, b), out, backward)
    return out


# ---------------------------------------------------------------------------
# scalarizers and loss plumbing

def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    out = Tensor(np.asarray(x.data.sum(), dtype=x.data.dtype))

    def backward(grad: np.ndarray):
        return (np.full_like(x.data, float(grad.reshape(()))),)

    _record("sum_all", (x,), out, backward)
    return out


def weighted_sum(x: Tensor, weights: np.ndarray) -> Tensor:
    """sum(x * weights) with constant weights; scalarizer for gradient probes."""
    w = np.asarray(weights, dtype=x.data.dtype)
    if w.shape != x.shape:
        raise ShapeError(f"weighted_sum weights shape {w.shape} != input {x.shape}")
    out = Tensor(np.asarray((x.data * w).sum(), dtype=x.data.dtype))

    def backward(grad: np.ndarray):
        return (w * float(grad.reshape(())),)

    _record("weighted_sum", (x,), out, backward)
    return out


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over the batch of -sum(p * log softmax(logits)).

    ``targets`` are constant probability rows; the gradient w.r.t. the
    logits is (softmax(logits) - targets) / N, fused for stability.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy logits must be 2-D, got {logits.shape}")
    p = np.asarray(targets, dtype=logits.data.dtype)
    if p.shape != logits.shape:
        raise ShapeError(
            f"softmax_cross_entropy targets shape {p.shape} != logits {logits.shape}")
    if not np.all(np.isfinite(logits.data)):
        raise NonFiniteError("softmax_cross_entropy rejects non-finite logits")
    n = logits.shape[0]
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    log_q = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    out = Tensor(np.asarray(-(p * log_q).sum() / n, dtype=logits.data.dtype))
    q = np.exp(log_q)

    def backward(grad: np.ndarray):
        return ((q - p) / n * float(grad.reshape(())),)

    _record("softmax_cross_entropy", (logits,), out, backward)
    return out
