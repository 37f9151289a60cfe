"""Training-time image transformations, deterministic under keyed randomness.

``augment_batch`` turns [N, H, W, 3] source images (uint8, or float in
[0, 255]) into the [N, h, w, 3] network input, already in the network's
channel-last layout.

Randomness is counter-based, in the style of Salmon et al. 2011 (*Parallel
Random Numbers: As Easy as 1, 2, 3*): draw k of a technique for the row of
dataset index i, under a run's seed in a given epoch, is the pure function
``keyed_bits(seed, epoch, i, technique, k)``, a splitmix64 chain over those
five words in uint64 arrays. No generator object holds state, so a whole
batch draws at once, a row does not depend on batch composition or order,
and a resumed run draws what an uninterrupted one draws.

Stage order is fixed: random crop -> horizontal flip -> color jitter ->
PCA color noise -> normalize; each stage has its own enable flag and is an
exact identity at its neutral setting (full-size crop, p=0, s=0, sigma=0,
zero means). Pixels stay in [0, 255] until normalization: jitter and PCA
noise clamp back into range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Optional

import numpy as np

from .fields import Checked, bounded, checked

GRAY_WEIGHTS = np.array([0.299, 0.587, 0.114])

# jitter ops, as the indices the per-image permutation draws
BRIGHTNESS, CONTRAST, SATURATION = range(3)

# the words a key hashes are uint64: seeds, epochs and sample indices lie in [0, 2**64)
KEY_LIMIT = 2**64
_KEY_BOUNDS = (0, KEY_LIMIT, False, True)   # [0, 2**64) in the layout of fields.bounded
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
# the technique word of a key, one per kind of draw, numbered from 1 in stage order
_TECHNIQUES = {"crop": 1, "flip": 2, "color_jitter": 3, "pca_noise": 4, "epoch_shuffle": 5}
# Box-Muller's log1p and cos through the C library's scalar functions: numpy's
# own kernels are chosen per CPU and can differ from each other in the last bit
_log1p = np.frompyfunc(math.log1p, 1, 1)
_cos = np.frompyfunc(math.cos, 1, 1)


def check_key(name: str, value, shape=()) -> np.ndarray:
    """``value`` as uint64 words of ``shape``, or ValueError naming ``name`` unless
    each element is an integer in [0, 2**64), by the config type and range rules
    (``fields.checked``). Of an integer array only a negative element can be out
    of range, so only the first is checked. numpy reads the list [1, 2**64 - 1]
    as float64, so any other value stays exact Python objects, each checked."""
    if np.shape(value) != shape:
        raise ValueError(f"{name} must have shape {shape}, got {np.shape(value)}")
    if isinstance(value, np.ndarray) and value.dtype.kind in "iu":
        words, suspects = value, value[value < 0][:1]
    else:
        words = suspects = np.asarray(value, dtype=object)
    for v in suspects.flat:
        checked(name, v, int, _KEY_BOUNDS)
    return words.astype(np.uint64)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's output function (Steele, Lea & Flood 2014), a bijection of uint64."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def keyed_bits(seed, epoch, index, technique: str, draws: int) -> np.ndarray:
    """uint64 draws 0..draws-1 of ``technique`` for every key: an array of
    the broadcast shape of ``seed``, ``epoch`` and ``index`` (integers in
    [0, 2**64)) plus a last axis of ``draws``. Starting from h = 0, each
    word w of (seed, epoch, index, technique tag, k) is absorbed as
    h <- mix((h ^ w) + golden), so the result is a pure function of the
    five words, and a bijection of each one with the others fixed."""
    shape = np.broadcast_shapes(np.shape(seed), np.shape(epoch), np.shape(index))
    h = np.zeros(shape + (1,), np.uint64)
    for word in (seed, epoch, index, _TECHNIQUES[technique]):
        h = _mix((h ^ np.asarray(word, np.uint64)[..., None]) + _GOLDEN)
    return _mix((h ^ np.arange(draws, dtype=np.uint64)) + _GOLDEN)


def keyed_uniforms(seed, epoch, index, technique: str, draws: int) -> np.ndarray:
    """``keyed_bits`` as float64 uniforms in [0, 1): the top 53 bits times 2**-53."""
    return (keyed_bits(seed, epoch, index, technique, draws) >> np.uint64(11)) * 2.0**-53


@dataclass(frozen=True)
class PcaBasis(Checked):
    """RGB covariance eigensystem: eigenvalues descending, rows of
    ``eigenvectors`` are the (orthonormal) principal directions."""

    eigenvalues: np.ndarray = bounded(0, shape=(3,))   # lambda1 >= lambda2 >= lambda3
    eigenvectors: np.ndarray = bounded(-math.inf, shape=(3, 3))   # row i: i-th direction
    channel_means: np.ndarray = bounded(-math.inf, shape=(3,))

    def reconstruct_covariance(self) -> np.ndarray:
        return self.eigenvectors.T @ np.diag(self.eigenvalues) @ self.eigenvectors


@dataclass
class AugmentConfig(Checked):
    crop_height: int = bounded(1, default=32)
    crop_width: int = bounded(1, default=32)
    flip_probability: float = bounded(0, 1, default=0.5)
    pca_sigma: float = bounded(0, default=0.1)
    jitter_strength: float = bounded(0, default=0.4)
    enable_crop: bool = True
    enable_flip: bool = True
    enable_jitter: bool = True
    enable_pca: bool = True
    enable_normalize: bool = True
    # means fitted from data when None; no stds: normalization subtracts the means only
    channel_means: Optional[np.ndarray] = bounded(-math.inf, shape=(3,), default=None)
    channel_stds: Optional[np.ndarray] = bounded(0, lo_open=True, shape=(3,), default=None)
    pca_basis: Optional[PcaBasis] = None         # fitted from data when None


# ---------------------------------------------------------------------------
# statistics fitted from data: the PCA color basis and the channel means

def fit_pca_basis(images: Iterable[np.ndarray]) -> PcaBasis:
    """Eigendecompose the 3x3 sample covariance of RGB values pooled over
    every pixel of every image; eigenvalues sorted descending, tiny negative
    values from roundoff clipped to zero."""
    count = 0
    s = np.zeros(3)
    ss = np.zeros((3, 3))
    for image in images:
        px = np.asarray(image, dtype=np.float64)
        if px.ndim != 3 or px.shape[2] != 3:
            raise ValueError(f"image must be (H, W, 3) RGB, got shape {px.shape}")
        px = px.reshape(-1, 3)
        count += px.shape[0]
        s += px.sum(axis=0)
        ss += px.T @ px
    if count < 2:
        raise ValueError(f"fit_pca_basis needs at least 2 pixels, got {count}")
    mean = s / count
    cov = (ss - count * np.outer(mean, mean)) / (count - 1)
    cov = (cov + cov.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    return PcaBasis(eigenvalues=eigvals, eigenvectors=eigvecs[:, order].T,
                    channel_means=mean)


def fit_augment_statistics(config: AugmentConfig, images: np.ndarray) -> AugmentConfig:
    """The config with the statistics it uses but leaves unset fitted from
    [N, H, W, 3] ``images``: the pooled channel means when normalization is
    on, the PCA basis when PCA noise is on."""
    means, basis = config.channel_means, config.pca_basis
    if config.enable_normalize and means is None:
        means = np.asarray(images, dtype=np.float64).reshape(-1, 3).mean(axis=0)
    if config.enable_pca and basis is None:
        basis = fit_pca_basis(images)
    return replace(config, channel_means=means, pca_basis=basis)


# ---------------------------------------------------------------------------
# the batch pipeline

def jitter_blend(x: np.ndarray, ops, factors) -> np.ndarray:
    """Blend each row of a float64 [N, h, w, 3] batch toward its jitter
    centers, position by position: x <- f*x + (1-f)*c with f = factors[i, k]
    and c = 0 (BRIGHTNESS), the row's mean luma (CONTRAST) or each pixel's
    luma (SATURATION) for op = ops[i, k], a channel at a time. In place on
    ``x``, which it returns clamped once at the end: pass a copy to keep it."""
    ops = np.asarray(ops)
    factors = np.asarray(factors, dtype=np.float64)
    for k in range(ops.shape[1]):
        f = factors[:, k, None, None]
        luma = x @ GRAY_WEIGHTS
        center = np.where((ops[:, k] == SATURATION)[:, None, None], luma,
                          luma.mean(axis=(1, 2), keepdims=True))
        # brightness adds -0.0, not (1-f)*0: x + -0.0 is x bitwise, even at x = -0.0
        shift = np.where((ops[:, k] == BRIGHTNESS)[:, None, None], -0.0, (1.0 - f) * center)
        x *= f[..., None]
        for c in range(3):
            x[..., c] += shift
    return np.clip(x, 0.0, 255.0, out=x)


def augment_batch(images: np.ndarray, config: AugmentConfig, seed=0, epoch=0,
                  indices=(), dtype=np.float64) -> np.ndarray:
    """Apply the enabled stages in the fixed order to [N, H, W, 3] sources
    and return the [N, h, w, 3] network input as ``dtype``.

    Row i's draws are keyed by (``seed``, ``epoch``, ``indices[i]``), each
    an integer in [0, 2**64), and each stage draws for all rows at once as
    ``keyed_uniforms`` u in [0, 1): the crop offsets
    floor(u * (H - h + 1)) and floor(u * (W - w + 1)), taken by one gather;
    the flip, u < p; the jitter order, the stable argsort of three
    uniforms, and its factors 1 - s + 2s * u; the PCA weights
    alpha = sigma * sqrt(-2 log(1 - u1)) * cos(2 pi u2) ~ N(0, sigma^2)
    (Box-Muller), which shift every pixel by sum_i alpha_i * lambda_i * p_i.
    Only the random stages read the key, so a call with all of them
    disabled may pass none. Normalization subtracts ``channel_means`` and
    divides by ``channel_stds``, each where set; with it disabled the
    output is the augmented pixels, still in [0, 255]. Jitter, PCA noise and
    normalization add one channel at a time: numpy's loops then span pixels.
    """
    images = np.asarray(images)
    if images.ndim != 4 or images.shape[3] != 3:
        raise ValueError(f"images must be [N, H, W, 3] RGB, got shape {images.shape}")
    n, src_h, src_w, _ = images.shape
    if config.enable_crop or config.enable_flip or config.enable_jitter or config.enable_pca:
        key = (check_key("seed", seed), check_key("epoch", epoch),
               check_key("index", indices, (n,)))

    # x is this call's own float64 buffer (the gather's or astype's), so stages write into it
    if config.enable_crop:
        h, w = config.crop_height, config.crop_width
        if h > src_h or w > src_w:
            raise ValueError(f"crop {h}x{w} exceeds source {src_h}x{src_w}")
        u = keyed_uniforms(*key, "crop", 2)
        oy = (u[:, 0] * (src_h - h + 1)).astype(np.intp)
        ox = (u[:, 1] * (src_w - w + 1)).astype(np.intp)
        x = images[np.arange(n)[:, None, None], (oy[:, None] + np.arange(h))[:, :, None],
                   (ox[:, None] + np.arange(w))[:, None, :]].astype(np.float64, copy=False)
    else:
        x = images.astype(np.float64)
    if config.enable_flip and config.flip_probability > 0:
        flip = keyed_uniforms(*key, "flip", 1)[:, 0] < config.flip_probability
        x[flip] = x[flip, :, ::-1]
    if config.enable_jitter and config.jitter_strength > 0:
        u = keyed_uniforms(*key, "color_jitter", 6)
        low, high = 1.0 - config.jitter_strength, 1.0 + config.jitter_strength
        x = jitter_blend(x, np.argsort(u[:, :3], axis=1, kind="stable"),
                         low + (high - low) * u[:, 3:])
    if config.enable_pca:
        basis = config.pca_basis
        if basis is None:
            raise ValueError("enable_pca requires a fitted pca_basis in the config")
        if config.pca_sigma > 0 and np.any(basis.eigenvalues):
            u = keyed_uniforms(*key, "pca_noise", 6)
            alpha = (config.pca_sigma * np.sqrt(-2.0 * _log1p(-u[:, :3]).astype(np.float64))
                     * _cos(2.0 * np.pi * u[:, 3:]).astype(np.float64))
            # three terms added in a fixed order: no BLAS kernel choice can
            # make a row's shift depend on the batch size
            a, p = alpha * basis.eigenvalues, basis.eigenvectors
            shifts = a[:, 0, None] * p[0] + a[:, 1, None] * p[1] + a[:, 2, None] * p[2]
            for c in range(3):
                x[..., c] += shifts[:, c, None, None]
            np.clip(x, 0.0, 255.0, out=x)
    if config.enable_normalize:
        for c in range(3):
            if config.channel_means is not None:
                x[..., c] -= config.channel_means[c]
            if config.channel_stds is not None:
                x[..., c] /= config.channel_stds[c]
    return x.astype(dtype, copy=False)


def epoch_shuffle(n: int, epoch: int, seed: int) -> np.ndarray:
    """Fresh permutation of 0..n-1, deterministic in (n, epoch, seed): the
    argsort of ``keyed_bits(seed, epoch, i, "epoch_shuffle", 0)`` over
    i = 0..n-1. The hash is a bijection of i, so the sort meets no ties.
    ``seed`` and ``epoch`` are integers in [0, 2**64)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    seed, epoch = check_key("seed", seed), check_key("epoch", epoch)
    return np.argsort(keyed_bits(seed, epoch, np.arange(n), "epoch_shuffle", 1)[:, 0])
