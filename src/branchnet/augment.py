"""Training-time image transformations, deterministic under keyed randomness.

Images are (H, W, 3) RGB arrays: uint8 at ingestion, float in [0, 255]
inside the pipeline, clamped back into range after every noise stage.
Every random draw is keyed by (global_seed, epoch, sample_index, technique),
so results are independent of batch composition and order.

Pipeline stage order is fixed: random_crop -> horizontal_flip ->
color_jitter -> pca_noise -> normalize; each stage has its own enable flag
and is an exact identity at its neutral setting (full-size crop, p=0, s=0,
sigma=0, zero means). ``normalize`` emits the [h, w, 3] training tensor,
already in the network's channel-last layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .tensor import Tensor

GRAY_WEIGHTS = np.array([0.299, 0.587, 0.114])

_JITTER_OPS = ("brightness", "contrast", "saturation")


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
        if not 0.0 <= self.flip_probability <= 1.0:
            raise ValueError(f"flip_probability must be in [0,1], got {self.flip_probability}")
        if self.pca_sigma < 0 or self.jitter_strength < 0:
            raise ValueError("noise strengths must be >= 0")
        if self.crop_height < 1 or self.crop_width < 1:
            raise ValueError("crop size must be positive")
        if self.channel_means is not None:
            object.__setattr__(self, "channel_means",
                               np.asarray(self.channel_means, dtype=np.float64))
        if self.channel_stds is not None:
            stds = np.asarray(self.channel_stds, dtype=np.float64)
            if np.any(stds <= 0):
                raise ValueError("channel_stds must be strictly positive")
            object.__setattr__(self, "channel_stds", stds)


def _as_float_image(image: np.ndarray) -> np.ndarray:
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"image must be (H, W, 3) RGB, got shape {img.shape}")
    return img.astype(np.float64, copy=True)


def _clamp(img: np.ndarray) -> np.ndarray:
    return np.clip(img, 0.0, 255.0)


# ---------------------------------------------------------------------------
# PCA color noise

def fit_pca_basis(images: Iterable[np.ndarray]) -> PcaBasis:
    """Eigendecompose the 3x3 sample covariance of RGB values pooled over
    every pixel of every image; eigenvalues sorted descending, tiny negative
    values from roundoff clipped to zero."""
    count = 0
    s = np.zeros(3)
    ss = np.zeros((3, 3))
    for image in images:
        px = _as_float_image(image).reshape(-1, 3)
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


def pca_noise(image: np.ndarray, basis: PcaBasis, rng: RngStream,
              sigma: float) -> np.ndarray:
    """Add sum_i alpha_i * lambda_i * p_i to every pixel, alpha ~ N(0, sigma^2)
    drawn once per image; clamps to [0, 255]."""
    img = _as_float_image(image)
    if sigma == 0.0 or not np.any(basis.eigenvalues):
        return img
    alpha = rng.generator("pca_noise").normal(0.0, sigma, size=3)
    shift = (alpha * basis.eigenvalues) @ basis.eigenvectors
    return _clamp(img + shift)


# ---------------------------------------------------------------------------
# photometric jitter

def _gray(img: np.ndarray) -> np.ndarray:
    return img @ GRAY_WEIGHTS


def apply_brightness(img: np.ndarray, factor: float) -> np.ndarray:
    return img * factor


def apply_contrast(img: np.ndarray, factor: float) -> np.ndarray:
    mean_luma = _gray(img).mean()
    return factor * img + (1.0 - factor) * mean_luma


def apply_saturation(img: np.ndarray, factor: float) -> np.ndarray:
    return factor * img + (1.0 - factor) * _gray(img)[:, :, None]


_JITTER_FNS = {"brightness": apply_brightness,
               "contrast": apply_contrast,
               "saturation": apply_saturation}


def color_jitter(image: np.ndarray, rng: RngStream, strength: float) -> np.ndarray:
    """Brightness/contrast/saturation factors ~ U[1-s, 1+s], applied in a
    per-image random order; clamps once at the end."""
    if strength < 0:
        raise ValueError(f"strength must be >= 0, got {strength}")
    img = _as_float_image(image)
    if strength == 0.0:
        return img
    g = rng.generator("color_jitter")
    order = g.permutation(len(_JITTER_OPS))
    for op_idx in order:
        factor = g.uniform(1.0 - strength, 1.0 + strength)
        img = _JITTER_FNS[_JITTER_OPS[op_idx]](img, factor)
    return _clamp(img)


# ---------------------------------------------------------------------------
# geometric transforms

def random_crop(image: np.ndarray, out_size: tuple[int, int],
                rng: RngStream) -> np.ndarray:
    """Contiguous (h, w) subimage at an offset drawn uniformly over the
    valid positions."""
    img = _as_float_image(image)
    h, w = out_size
    src_h, src_w = img.shape[:2]
    if h > src_h or w > src_w:
        raise ValueError(f"crop {h}x{w} exceeds source {src_h}x{src_w}")
    g = rng.generator("crop")
    oy = int(g.integers(0, src_h - h + 1))
    ox = int(g.integers(0, src_w - w + 1))
    return img[oy:oy + h, ox:ox + w].copy()


def horizontal_flip(image: np.ndarray, rng: RngStream, p: float) -> np.ndarray:
    """Reverse column order with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    img = _as_float_image(image)
    if p > 0 and rng.generator("flip").uniform() < p:
        return img[:, ::-1].copy()
    return img


def flip_columns(image: np.ndarray) -> np.ndarray:
    """Unconditional column reversal (the forced-flip involution)."""
    return _as_float_image(image)[:, ::-1].copy()


# ---------------------------------------------------------------------------
# normalization and the pipeline

def normalize(image: np.ndarray, channel_means: Sequence[float],
              channel_stds: Optional[Sequence[float]] = None,
              dtype=np.float64) -> Tensor:
    """Subtract per-channel dataset means (divide by stds when given) and
    emit the [h, w, 3] training tensor. No clamping."""
    img = _as_float_image(image)
    means = np.asarray(channel_means, dtype=np.float64)
    if means.shape != (3,):
        raise ValueError(f"channel_means must have shape (3,), got {means.shape}")
    out = img - means
    if channel_stds is not None:
        stds = np.asarray(channel_stds, dtype=np.float64)
        if stds.shape != (3,):
            raise ValueError(f"channel_stds must have shape (3,), got {stds.shape}")
        if np.any(stds <= 0):
            raise ValueError("channel_stds must be strictly positive")
        out = out / stds
    return Tensor(out.astype(dtype, copy=False))


def epoch_shuffle(n: int, epoch: int, seed: int) -> np.ndarray:
    """Fresh permutation of 0..n-1, deterministic in (n, epoch, seed)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    entropy = (seed, epoch) + tuple(b"epoch_shuffle")
    g = np.random.default_rng(np.random.SeedSequence(entropy))
    return g.permutation(n)


def augment_pipeline(image: np.ndarray, config: AugmentConfig, rng: RngStream,
                     dtype=np.float64, skip_normalize: bool = False):
    """Apply enabled stages in the fixed order and emit the training tensor.

    ``skip_normalize`` stops after the pixel-space stages and returns the
    (H, W, 3) float image instead; used by the preview dump, where the
    output must still be an 8-bit-range image.
    """
    img = _as_float_image(image)
    if config.enable_crop:
        img = random_crop(img, (config.crop_height, config.crop_width), rng)
    if config.enable_flip:
        img = horizontal_flip(img, rng, config.flip_probability)
    if config.enable_jitter:
        img = color_jitter(img, rng, config.jitter_strength)
    if config.enable_pca:
        if config.pca_basis is None:
            raise ValueError("enable_pca requires a fitted pca_basis in the config")
        img = pca_noise(img, config.pca_basis, rng, config.pca_sigma)
    if skip_normalize:
        return img
    if config.enable_normalize:
        means = config.channel_means if config.channel_means is not None else np.zeros(3)
        return normalize(img, means, config.channel_stds, dtype=dtype)
    return Tensor(img.astype(dtype, copy=False))
