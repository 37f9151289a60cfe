"""Training-time image transformations, deterministic under keyed randomness.

``augment_batch`` turns [N, H, W, 3] source images (uint8, or float in
[0, 255]) into the [N, h, w, 3] network input, already in the network's
channel-last layout. Every random draw is keyed by (global_seed, epoch,
sample_index, technique) through the row's own ``RngStream``, so a row does
not depend on batch composition or order.

Stage order is fixed: random crop -> horizontal flip -> color jitter ->
PCA color noise -> normalize; each stage has its own enable flag and is an
exact identity at its neutral setting (full-size crop, p=0, s=0, sigma=0,
zero means). Pixels stay in [0, 255] until normalization: jitter and PCA
noise clamp back into range.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .fields import check_fields

GRAY_WEIGHTS = np.array([0.299, 0.587, 0.114])

# jitter ops, as the indices the per-image permutation draws
BRIGHTNESS, CONTRAST, SATURATION = range(3)


@dataclass(frozen=True)
class RngStream:
    """Derivation key for all augmentation randomness.

    Identical keys give identical draw sequences; distinct technique tags
    give independent streams.
    """

    global_seed: int
    epoch: int = 0
    sample_index: int = 0

    def generator(self, technique: str) -> np.random.Generator:
        entropy = (self.global_seed, self.epoch, self.sample_index) + tuple(technique.encode())
        return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class PcaBasis:
    """RGB covariance eigensystem: eigenvalues descending, rows of
    ``eigenvectors`` are the (orthonormal) principal directions."""

    eigenvalues: np.ndarray      # (3,), lambda1 >= lambda2 >= lambda3 >= 0
    eigenvectors: np.ndarray     # (3, 3), row i = i-th principal direction
    channel_means: np.ndarray    # (3,)

    def __post_init__(self):
        for name, shape in (("eigenvalues", (3,)), ("eigenvectors", (3, 3)),
                            ("channel_means", (3,))):
            got = np.shape(getattr(self, name))
            if got != shape:
                raise ValueError(f"PcaBasis {name} must have shape {shape}, got {got}")

    def reconstruct_covariance(self) -> np.ndarray:
        return self.eigenvectors.T @ np.diag(self.eigenvalues) @ self.eigenvectors


@dataclass
class AugmentConfig:
    crop_height: int = 32
    crop_width: int = 32
    flip_probability: float = 0.5
    pca_sigma: float = 0.1
    jitter_strength: float = 0.4
    enable_crop: bool = True
    enable_flip: bool = True
    enable_jitter: bool = True
    enable_pca: bool = True
    enable_normalize: bool = True
    channel_means: Optional[np.ndarray] = None   # fitted from data when None
    channel_stds: Optional[np.ndarray] = None    # mean-only normalization when None
    pca_basis: Optional[PcaBasis] = None         # fitted from data when None

    def __post_init__(self):
        check_fields(self)
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ValueError(f"flip_probability must be in [0,1], got {self.flip_probability}")
        for name in ("pca_sigma", "jitter_strength"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:   # False for NaN as well
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.crop_height < 1 or self.crop_width < 1:
            raise ValueError("crop size must be positive")
        for name in ("channel_means", "channel_stds"):
            value = getattr(self, name)
            if value is not None:
                value = np.asarray(value, dtype=np.float64)
                if value.shape != (3,):
                    raise ValueError(f"{name} must have shape (3,), got {value.shape}")
                if not np.all(np.isfinite(value)):
                    raise ValueError(f"{name} must be finite, got {value.tolist()}")
                setattr(self, name, value)
        if self.channel_stds is not None and np.any(self.channel_stds <= 0):
            raise ValueError("channel_stds must be strictly positive")


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
    """Blend each row of an [N, h, w, 3] batch toward its jitter centers,
    position by position: x <- f*x + (1-f)*c with f = factors[i, k] and c =
    0 (BRIGHTNESS), the row's mean luma (CONTRAST) or each pixel's luma
    (SATURATION) for op = ops[i, k]. Returns a new array, clamped once at
    the end."""
    x = np.array(x, dtype=np.float64)
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
        x += shift[..., None]
    return np.clip(x, 0.0, 255.0, out=x)


def augment_batch(images: np.ndarray, config: AugmentConfig,
                  streams: Sequence[RngStream], dtype=np.float64) -> np.ndarray:
    """Apply the enabled stages in the fixed order to [N, H, W, 3] sources
    and return the [N, h, w, 3] network input as ``dtype``.

    ``streams[i]`` keys every draw of row i: the crop offset, the flip, the
    jitter order and factors (U[1-s, 1+s]) and the PCA weights
    alpha ~ N(0, sigma^2), which shift every pixel by
    sum_i alpha_i * lambda_i * p_i. Only the random stages read the
    streams, so a call with all of them disabled may pass none.
    Normalization subtracts ``channel_means`` and divides by
    ``channel_stds``, each where set; with it disabled the output is the
    augmented pixels, still in [0, 255].
    """
    images = np.asarray(images)
    if images.ndim != 4 or images.shape[3] != 3:
        raise ValueError(f"images must be [N, H, W, 3] RGB, got shape {images.shape}")
    n, src_h, src_w, _ = images.shape
    if (config.enable_crop or config.enable_flip or config.enable_jitter
            or config.enable_pca) and len(streams) != n:
        raise ValueError(f"{n} images need {n} RngStreams, got {len(streams)}")

    if config.enable_crop:
        h, w = config.crop_height, config.crop_width
        if h > src_h or w > src_w:
            raise ValueError(f"crop {h}x{w} exceeds source {src_h}x{src_w}")
        x = np.empty((n, h, w, 3))
        for i, stream in enumerate(streams):
            g = stream.generator("crop")
            oy = int(g.integers(0, src_h - h + 1))
            ox = int(g.integers(0, src_w - w + 1))
            x[i] = images[i, oy:oy + h, ox:ox + w]
    else:
        x = images.astype(np.float64)
    if config.enable_flip and config.flip_probability > 0:
        flip = np.array([s.generator("flip").uniform() < config.flip_probability
                         for s in streams], dtype=bool)
        x[flip] = x[flip, :, ::-1]
    if config.enable_jitter and config.jitter_strength > 0:
        ops = np.empty((n, 3), dtype=np.int64)
        factors = np.empty((n, 3))
        low, high = 1.0 - config.jitter_strength, 1.0 + config.jitter_strength
        for i, stream in enumerate(streams):
            g = stream.generator("color_jitter")
            ops[i] = g.permutation(3)
            factors[i] = g.uniform(low, high, size=3)
        x = jitter_blend(x, ops, factors)
    if config.enable_pca:
        basis = config.pca_basis
        if basis is None:
            raise ValueError("enable_pca requires a fitted pca_basis in the config")
        if config.pca_sigma > 0 and np.any(basis.eigenvalues):
            shifts = np.empty((n, 3))
            for i, stream in enumerate(streams):
                alpha = stream.generator("pca_noise").normal(0.0, config.pca_sigma, size=3)
                shifts[i] = (alpha * basis.eigenvalues) @ basis.eigenvectors
            x += shifts[:, None, None, :]
            np.clip(x, 0.0, 255.0, out=x)
    if config.enable_normalize:
        if config.channel_means is not None:
            x -= config.channel_means
        if config.channel_stds is not None:
            x /= config.channel_stds
    return x.astype(dtype, copy=False)


def epoch_shuffle(n: int, epoch: int, seed: int) -> np.ndarray:
    """Fresh permutation of 0..n-1, deterministic in (n, epoch, seed)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    entropy = (seed, epoch) + tuple(b"epoch_shuffle")
    g = np.random.default_rng(np.random.SeedSequence(entropy))
    return g.permutation(n)
