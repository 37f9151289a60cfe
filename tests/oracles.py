"""Independent reference implementations used to derive expected values,
and the rounding bound a result must meet against them.

Everything here is deliberately written the slow, obvious way (explicit
loop nests, two-pass statistics, cyclic Jacobi rotations) and shares no
code with the implementations under test, except the network's forwards,
which run the gradient-checked Tensor ops (the unfolded eval forward and
the unfused train forward) or a bias-free conv2d (the folded one).
"""

import numpy as np

from branchnet.tensor import (BN_EPSILON, Tensor, batch_norm2d, conv2d, global_avg_pool,
                              linear, pool2d, relu, residual_add)


def assert_within_rounding(got, want):
    """Each (label, array) of ``got`` is within rounding of ``want``'s:
    max|d| <= bound * max|ref|, 1e-12 for float64 and 1e-5 for float32."""
    assert [label for label, _ in got] == [label for label, _ in want]
    for (label, a), (_, ref) in zip(got, want):
        assert a.dtype == ref.dtype and a.shape == ref.shape, label
        bound = 1e-12 if a.dtype == np.float64 else 1e-5
        assert np.max(np.abs(a - ref)) <= bound * np.max(np.abs(ref)), label


def _layer_table_forward(net, batch, conv_bn, relu_, add):
    """Per-branch logit tensors of a ``BranchedNetwork``'s layer table, run with
    the given ``conv_bn(scope, conv, x)``, ``relu_(x)`` and ``add(out, shortcut)``."""
    def unit_forward(unit, x):
        if unit.kind == "head":
            return linear(global_avg_pool(x), net.params[f"{unit.scope}.head.weight"],
                          net.params[f"{unit.scope}.head.bias"])
        out = x
        for conv in unit.convs[:-1]:
            out = relu_(conv_bn(unit.scope, conv, out))
        out = conv_bn(unit.scope, unit.convs[-1], out)
        if unit.kind == "stem":
            out = relu_(out)
            return pool2d(out, "max", window=2, stride=2) if unit.pool else out
        shortcut = x if unit.proj is None else conv_bn(unit.scope, unit.proj, x)
        return relu_(add(out, shortcut))

    def path(branch, x):
        for unit in net.units:
            if unit.branch == branch:
                x = unit_forward(unit, x)
        return x

    trunk = path(None, Tensor(batch))
    return [path(br, trunk) for br in range(net.config.num_branches)]


def _separate_ops_forward(net, batch, mode):
    """Per-branch logit tensors through the Tensor ops, one op per step:
    conv2d -> batch_norm2d -> relu, and residual_add before a block's last
    relu, each into a fresh buffer."""
    def conv_bn(scope, conv, x):
        bn = f"{scope}.{conv.bn}"
        out = conv2d(x, net.params[f"{scope}.{conv.tag}.weight"],
                     stride=conv.stride, pad=conv.pad)
        return batch_norm2d(out, net.params[f"{bn}.gamma"], net.params[f"{bn}.beta"],
                            net.buffers[f"{bn}.running_mean"],
                            net.buffers[f"{bn}.running_var"], mode=mode)

    return _layer_table_forward(net, batch, conv_bn, relu, residual_add)


def unfused_eval_forward(net, batch):
    """Per-branch eval logits of a ``BranchedNetwork`` as its forward ran
    before batch norm was folded into the convs: every unit of the layer
    table through the separate Tensor ops, with eval-mode batch norm."""
    return [logits.data for logits in _separate_ops_forward(net, batch, "eval")]


def unfused_train_forward(net, batch):
    """Per-branch train logit tensors of a ``BranchedNetwork`` as its taped
    forward ran before batch norm took the residual add and relu: every unit
    of the layer table through the separate Tensor ops, with train-mode batch
    norm, so each op is a tape node of its own. Updates the running buffers."""
    return _separate_ops_forward(net, batch, "train")


def whole_array_eval_forward(net, batch):
    """Per-branch eval logits of a ``BranchedNetwork`` as its folded forward
    ran while the bias, the residual add and relu followed each conv over
    its whole output: each batch norm folded into a bias-free ``conv2d``
    (weight times s = gamma / sqrt(var + eps)), then ``+=`` the bias
    beta - mean * s, ``+=`` a block's shortcut (the identity, or the
    projection conv's output added into the main path's) and relu by
    ``np.maximum(..., out=)``, each in place in the conv's output."""
    def conv_bn(scope, conv, x):
        bn = f"{scope}.{conv.bn}"
        gamma, beta = net.params[f"{bn}.gamma"].data, net.params[f"{bn}.beta"].data
        mean = net.buffers[f"{bn}.running_mean"].data
        s = gamma / np.sqrt(net.buffers[f"{bn}.running_var"].data + BN_EPSILON)
        weight = net.params[f"{scope}.{conv.tag}.weight"].data * s[:, None, None, None]
        out = conv2d(x, Tensor(weight), stride=conv.stride, pad=conv.pad)
        out.data += beta - mean * s
        return out

    def relu_in_place(x):
        np.maximum(x.data, 0.0, out=x.data)
        return x

    def add_in_place(out, shortcut):
        out.data += shortcut.data
        return out

    return [logits.data for logits in
            _layer_table_forward(net, batch, conv_bn, relu_in_place, add_in_place)]


def conv2d_loops(x, w, b=None, stride=1, pad=0):
    """Six-nested-loop direct cross-correlation, NCHW."""
    n, cin, h, width = x.shape
    cout, _, kh, kw = w.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (width + 2 * pad - kw) // stride + 1
    xp = np.zeros((n, cin, h + 2 * pad, width + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + width] = x
    out = np.zeros((n, cout, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for co in range(cout):
            for oi in range(oh):
                for oj in range(ow):
                    acc = 0.0
                    for ci in range(cin):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += xp[ni, ci, oi * stride + ki, oj * stride + kj] \
                                    * w[co, ci, ki, kj]
                    out[ni, co, oi, oj] = acc + (b[co] if b is not None else 0.0)
    return out


def _patches(x, kh, kw, stride, pad):
    """(N, OH, OW, kh, kw, C) patches of an NHWC input, copied tap by tap
    from a zero-padded copy."""
    n, h, width, cin = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (width + 2 * pad - kw) // stride + 1
    xp = np.zeros((n, h + 2 * pad, width + 2 * pad, cin), dtype=x.dtype)
    xp[:, pad:pad + h, pad:pad + width] = x
    cols = np.empty((n, oh, ow, kh, kw, cin), dtype=x.dtype)
    for ki in range(kh):
        for kj in range(kw):
            cols[:, :, :, ki, kj] = xp[:, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride]
    return cols


def conv2d_one_gemm(x, w, stride=1, pad=0):
    """NHWC conv as one GEMM over the whole batch: the (N*OH*OW, kh*kw*Cin)
    patch matrix, columns in (kh, kw, C) order, times the weight viewed as
    [Cout, kh, kw, Cin]. This is the product a taped conv computed before
    every conv ran in patch tiles."""
    cout, _, kh, kw = w.shape
    cols = _patches(x, kh, kw, stride, pad)
    out = cols.reshape(-1, kh * kw * x.shape[3]) @ w.transpose(0, 2, 3, 1).reshape(cout, -1).T
    return out.reshape(cols.shape[:3] + (cout,))


def conv2d_gemm_chw(x, w, stride=1, pad=0):
    """NHWC im2col GEMM with patch columns in (C, kh, kw) order, the order of
    an OIHW weight reshaped to (Cout, -1), as one GEMM over the whole batch.

    This is the column order the conv used before its patch rows moved to
    (kh, kw, C); the two sum each output over K in different orders, so they
    agree to rounding, not bit for bit.
    """
    cout, _, kh, kw = w.shape
    cols = _patches(x, kh, kw, stride, pad).transpose(0, 1, 2, 5, 3, 4)
    out = cols.reshape(-1, kh * kw * x.shape[3]) @ w.reshape(cout, -1).T
    return out.reshape(cols.shape[:3] + (cout,))


def conv2d_dw_one_gemm(x, grad, w_shape, stride=1, pad=0):
    """NHWC conv weight gradient, OIHW, as every taped conv computed it before
    a stride-1 conv took it from its output gradient's patches: the output
    gradient's transpose times the input's whole (N*OH*OW, kh*kw*Cin) patch
    matrix, columns in (kh, kw, Cin) order, in one GEMM."""
    cout, cin, kh, kw = w_shape
    cols = _patches(x, kh, kw, stride, pad).reshape(-1, kh * kw * cin)
    dw = grad.reshape(-1, cout).T @ cols
    return np.ascontiguousarray(dw.reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2))


def conv2d_dx_col2im(grad, w, x_shape, stride=1, pad=0):
    """NHWC conv input gradient as the conv computed it before it folded one
    kernel tap at a time: the whole (N*OH*OW, kh*kw*Cin) patch-gradient
    matrix in one GEMM against the (kh, kw, Cin)-ordered weight, then
    folded onto the zero-padded input tap by tap in row-major order."""
    n, oh, ow, cout = grad.shape
    _, cin, kh, kw = w.shape
    h, width = x_shape[1:3]
    w2 = w.transpose(0, 2, 3, 1).reshape(cout, -1)
    patches = (grad.reshape(-1, cout) @ w2).reshape(n, oh, ow, kh, kw, cin)
    dx = np.zeros((n, h + 2 * pad, width + 2 * pad, cin), dtype=patches.dtype)
    for ki in range(kh):
        for kj in range(kw):
            dx[:, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride] += \
                patches[:, :, :, ki, kj]
    return dx[:, pad:pad + h, pad:pad + width]


def _pool_windows(x, window, stride, oh, ow):
    """(N,OH,OW,C,window*window) copy of every pooling window of an NHWC
    input, its taps in row-major order."""
    n, _, _, c = x.shape
    windows = np.empty((n, oh, ow, c, window * window), dtype=x.dtype)
    for ki in range(window):
        for kj in range(window):
            windows[..., ki * window + kj] = \
                x[:, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride]
    return windows


def pool2d_max_first(x, window, stride):
    """NHWC max pool as pool2d computed it before it kept a running maximum:
    each window's value at its row-major first ``argmax``, so of tied maxima
    (+0.0 and -0.0 among them) the first is the output."""
    oh = (x.shape[1] - window) // stride + 1
    ow = (x.shape[2] - window) // stride + 1
    windows = _pool_windows(x, window, stride, oh, ow)
    return np.take_along_axis(windows, windows.argmax(axis=-1)[..., None], axis=-1)[..., 0]


def pool2d_dx_onehot(x, grad, kind, window, stride):
    """NHWC pool2d input gradient as pool2d computed it before it folded one
    window tap at a time: every window's gradient row built whole as an
    (N,OH,OW,C,window*window) array (max: a one-hot of the row-major first
    maximum times ``grad``; avg: ``grad / window**2`` in every entry), then
    folded onto the input tap by tap in row-major order."""
    oh, ow = grad.shape[1:3]
    taps = window * window
    windows = _pool_windows(x, window, stride, oh, ow)
    if kind == "max":
        rows = (np.arange(taps) == windows.argmax(axis=-1)[..., None]) * grad[..., None]
    else:
        rows = np.broadcast_to(grad[..., None] / taps, windows.shape)
    dx = np.zeros(x.shape, dtype=rows.dtype)
    for ki in range(window):
        for kj in range(window):
            dx[:, ki:ki + stride * oh:stride, kj:kj + stride * ow:stride] += \
                rows[..., ki * window + kj]
    return dx


def pool2d_loops(x, kind, window, stride):
    n, c, h, w = x.shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    out = np.zeros((n, c, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for oi in range(oh):
                for oj in range(ow):
                    patch = x[ni, ci, oi * stride:oi * stride + window,
                              oj * stride:oj * stride + window]
                    out[ni, ci, oi, oj] = patch.max() if kind == "max" else patch.mean()
    return out


def linear_loops(x, w, b):
    n, d = x.shape
    k = w.shape[0]
    out = np.zeros((n, k), dtype=x.dtype)
    for ni in range(n):
        for ki in range(k):
            acc = 0.0
            for di in range(d):
                acc += x[ni, di] * w[ki, di]
            out[ni, ki] = acc + b[ki]
    return out


def batchnorm_twopass(x, gamma, beta, eps):
    """Direct two-pass per-channel mean/variance normalization (train mode)."""
    n, c, h, w = x.shape
    out = np.zeros_like(x)
    for ci in range(c):
        vals = x[:, ci, :, :].reshape(-1)
        mean = vals.sum() / vals.size
        var = ((vals - mean) ** 2).sum() / vals.size
        out[:, ci, :, :] = gamma[ci] * (x[:, ci, :, :] - mean) / np.sqrt(var + eps) + beta[ci]
    return out


def batch_norm_sequential(x, gamma, beta, running_mean, running_var, mode,
                          epsilon, momentum):
    """NHWC batch norm whose train-mode statistics are numpy's sequential
    per-channel reductions over (N, H, W), ``x.mean`` and ``x.var``, as
    batch_norm2d took them before its channel sums became one BLAS product.
    Train mode updates the running buffers in place."""
    if mode == "train":
        mean, var = x.mean(axis=(0, 1, 2)), x.var(axis=(0, 1, 2))
        running_mean[...] = momentum * running_mean + (1.0 - momentum) * mean
        running_var[...] = momentum * running_var + (1.0 - momentum) * var
    else:
        mean, var = running_mean, running_var
    return gamma * ((x - mean) / np.sqrt(var + epsilon)) + beta


def batch_norm_backward_sequential(grad, x, gamma, epsilon):
    """Train-mode NHWC batch norm gradients (dx, dgamma, dbeta) from
    sequential per-channel sums: dbeta = sum(g), dgamma = sum(g * xhat), and
    dx = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) / std."""
    axes = (0, 1, 2)
    std = np.sqrt(x.var(axis=axes) + epsilon)
    xhat = (x - x.mean(axis=axes)) / std
    dxhat = grad * gamma
    dx = (dxhat - dxhat.mean(axis=axes) - xhat * (dxhat * xhat).mean(axis=axes)) / std
    return dx, (grad * xhat).sum(axis=axes), grad.sum(axis=axes)


def batch_norm_backward_four_sums(grad, x, out, gamma, mean, inv_std, mode, relu):
    """``batch_norm2d``'s backward as it was before its two-sum form:
    (dx, dgamma, dbeta, shortcut gradient) from four BLAS channel sums and
    the normalized input rebuilt as ``(x - mean) * inv_std``. ``out`` is the
    forward's output (the relu mask), ``mean`` and ``inv_std`` its statistics."""
    def channel_sums(a):
        rows = a.reshape(-1, a.shape[-1])
        return np.ones(rows.shape[0], dtype=a.dtype) @ rows

    m = x.shape[0] * x.shape[1] * x.shape[2]
    if relu:
        grad = (out > 0) * grad
    xhat = x - mean
    xhat *= inv_std
    dbeta = channel_sums(grad)
    dgamma = channel_sums(grad * xhat)
    if mode == "eval":
        return grad * (gamma * inv_std), dgamma, dbeta, grad
    dxhat = grad * gamma
    mean_dxhat = channel_sums(dxhat) / m
    mean_dxhat_xhat = channel_sums(dxhat * xhat) / m
    # inv_std * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat), in dxhat's buffer
    dxhat -= mean_dxhat
    dxhat -= xhat * mean_dxhat_xhat
    dxhat *= inv_std
    return dxhat, dgamma, dbeta, grad


def jacobi_eig3(a, sweeps=50):
    """Cyclic Jacobi eigensolver for a symmetric 3x3.

    Returns (eigenvalues descending, eigenvectors with row i matching
    eigenvalue i).
    """
    a = np.array(a, dtype=np.float64)
    v = np.eye(3)
    for _ in range(sweeps):
        off = np.sqrt(a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2)
        if off < 1e-15:
            break
        for p in range(2):
            for q in range(p + 1, 3):
                if abs(a[p, q]) < 1e-18:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta ** 2 + 1.0)) \
                    if theta != 0 else 1.0
                c = 1.0 / np.sqrt(t ** 2 + 1.0)
                s = t * c
                rot = np.eye(3)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    eigvals = np.diag(a).copy()
    order = np.argsort(eigvals)[::-1]
    return eigvals[order], v[:, order].T


def topk_error_sorted(probs, labels, k):
    """Exhaustive per-row sort with explicit (prob desc, index asc) tie-break."""
    misses = 0
    for row, label in zip(probs, labels):
        ranked = sorted(range(len(row)), key=lambda i: (-row[i], i))
        if label not in ranked[:k]:
            misses += 1
    return 100.0 * misses / len(labels)


def template_classify(images, templates):
    """Nearest-class-template (L2) prediction for the synthetic dataset."""
    preds = []
    for img in images:
        d = [np.sum((img.astype(np.float64) - t) ** 2) for t in templates]
        preds.append(int(np.argmin(d)))
    return np.asarray(preds)


def splitmix64_chain(words):
    """Absorb each word w as h <- mix((h ^ w) + golden) from h = 0, in
    Python integers reduced mod 2**64, with splitmix64's finaliser as mix."""
    mask = 2**64 - 1
    h = 0
    for w in words:
        z = ((h ^ w) + 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        h = z ^ (z >> 31)
    return h
