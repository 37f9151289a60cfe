"""Augmentation identities, distribution checks, and the PCA basis oracle."""

import functools
import hashlib
import itertools
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchnet import augment
from branchnet.augment import (BRIGHTNESS, CONTRAST, SATURATION, AugmentConfig,
                               PcaBasis, augment_batch, epoch_shuffle, fit_pca_basis,
                               jitter_blend, keyed_bits, keyed_uniforms)
from branchnet.data import SyntheticSpec, generate_synthetic
from branchnet.training import TrainConfig

from oracles import jacobi_eig3, splitmix64_chain


# the technique tags, whose words are their places here counted from 1
TECHNIQUES = ["crop", "flip", "color_jitter", "pca_noise", "epoch_shuffle"]


def key(seed=77, epoch=0, sample=0):
    """The (seed, epoch, index) key of one row."""
    return seed, epoch, sample


def random_image(rng, h=12, w=12):
    return rng.uniform(0, 255, size=(h, w, 3))


def only(stage, **fields):
    """Config with one stage enabled (normalization off unless it is the stage)."""
    flags = {f"enable_{name}": name == stage
             for name in ("crop", "flip", "jitter", "pca", "normalize")}
    return AugmentConfig(**flags, **fields)


def augment_one(img, config, k=None, dtype=np.float64):
    """``augment_batch`` on a batch of one, keyed by ``k`` = (seed, epoch, index)."""
    seed, epoch, index = key() if k is None else k
    return augment_batch(img[None], config, seed, epoch, [index], dtype)[0]


def pca_noise(img, basis, s, sigma):
    return augment_one(img, only("pca", pca_basis=basis, pca_sigma=sigma), s)


def color_jitter(img, s, strength):
    return augment_one(img, only("jitter", jitter_strength=strength), s)


def blend(img, op, factor):
    """One jitter op at a fixed factor, on a float64 copy of a batch of one."""
    return jitter_blend(img[None].astype(np.float64), [[op]], [[factor]])[0]


def random_crop(img, size, s):
    return augment_one(img, only("crop", crop_height=size[0], crop_width=size[1]), s)


def horizontal_flip(img, s, p):
    return augment_one(img, only("flip", flip_probability=p), s)


def normalize(img, means, stds=None):
    return augment_one(img, only("normalize", channel_means=means, channel_stds=stds))


class TestKeyedBits:
    def test_identical_keys_identical_draws(self):
        a = keyed_bits(1, 2, 3, "crop", 10)
        b = keyed_bits(1, 2, 3, "crop", 10)
        assert a.dtype == np.uint64 and a.shape == (10,)
        np.testing.assert_array_equal(a, b)

    def test_distinct_technique_tags_independent(self):
        a = keyed_bits(1, 2, 3, "crop", 8)
        b = keyed_bits(1, 2, 3, "flip", 8)
        assert not np.intersect1d(a, b).size

    def test_distinct_samples_differ(self):
        a = keyed_bits(1, 0, 0, "crop", 8)
        b = keyed_bits(1, 0, 1, "crop", 8)
        assert not np.intersect1d(a, b).size

    @given(words=st.lists(st.integers(0, 2**64 - 1), min_size=3, max_size=3),
           technique=st.sampled_from(TECHNIQUES), draws=st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_matches_splitmix64_chain_oracle(self, words, technique, draws):
        tag = TECHNIQUES.index(technique) + 1
        want = [splitmix64_chain([*words, tag, k]) for k in range(draws)]
        assert keyed_bits(*words, technique, draws).tolist() == want
        u = keyed_uniforms(*words, technique, draws)
        assert u.tolist() == [(b >> 11) * 2.0**-53 for b in want]
        assert np.all((0.0 <= u) & (u < 1.0))

    def test_batch_of_keys_draws_each_key_alone(self):
        seeds = np.array([0, 5, 2**64 - 1], dtype=np.uint64)
        batch = keyed_bits(seeds, 7, np.array([3, 1, 4]), "pca_noise", 6)
        assert batch.shape == (3, 6)
        for row, seed, index in zip(batch, [0, 5, 2**64 - 1], [3, 1, 4]):
            np.testing.assert_array_equal(row, keyed_bits(seed, 7, index, "pca_noise", 6))


KEY_WORDS = {"seed": 1, "epoch": 2, "indices": [3]}
OUTSIDE_UINT64 = pytest.mark.parametrize("value", [-1, 2**64, True, 1.0],
                                         ids=["negative", "2**64", "bool", "float"])


def outside_uint64(word, value):
    """The config rules' messages: the type rule's for a bool or a float, the
    range rule's for an integer."""
    if isinstance(value, (bool, float)):
        return rf"{word} must be an integer, got {re.escape(json.dumps(value))}$"
    return rf"{word} must be in \[0, 2\*\*64\), got {value}$"


class TestKeyWords:
    """``augment_batch`` takes one seed, one epoch and one index per row, and
    ``epoch_shuffle`` one seed and one epoch, each an integer in [0, 2**64)."""

    @pytest.mark.parametrize("word", ["seed", "epoch", "index"])
    @OUTSIDE_UINT64
    def test_word_outside_uint64_rejected(self, word, value):
        words = {**KEY_WORDS, **({"indices": [3, value]} if word == "index" else {word: value})}
        with pytest.raises(ValueError, match=outside_uint64(word, value)):
            augment_batch(np.zeros((len(words["indices"]), 2, 2, 3)), only("flip"), **words)

    @OUTSIDE_UINT64
    def test_seed_rejected_in_train_config_words(self, value):
        with pytest.raises(ValueError) as rejected:
            TrainConfig(seed=value)
        with pytest.raises(ValueError, match=f"^{re.escape(str(rejected.value))}$"):
            augment_batch(np.zeros((1, 2, 2, 3)), only("flip"), **{**KEY_WORDS, "seed": value})

    @pytest.mark.parametrize("indices, bad", [
        (np.array([3, -1]), -1), (np.array([3.0, 1.0]), 3.0), (np.array([True, False]), True),
        (np.array([3, 2**64], dtype=object), 2**64)], ids=["int64", "float64", "bool", "object"])
    def test_index_array_outside_uint64_rejected(self, indices, bad):
        with pytest.raises(ValueError, match=outside_uint64("index", bad)):
            augment_batch(np.zeros((2, 2, 2, 3)), only("flip"), 1, 2, indices)

    @pytest.mark.parametrize("words, message", [
        (dict(seed=[1, 2]), r"seed must have shape \(\), got \(2,\)"),
        (dict(epoch=np.array([0, 0])), r"epoch must have shape \(\), got \(2,\)"),
        (dict(indices=[3]), r"index must have shape \(2,\), got \(1,\)"),
        (dict(indices=[[3], [4]]), r"index must have shape \(2,\), got \(2, 1\)"),
    ], ids=["per-row-seeds", "per-row-epochs", "too-few-indices", "2-d-indices"])
    def test_key_of_wrong_shape_rejected(self, words, message):
        with pytest.raises(ValueError, match=message):
            augment_batch(np.zeros((2, 2, 2, 3)), only("flip"), **{**KEY_WORDS, **words})

    def test_largest_words_accepted_and_never_passed_through_float(self):
        top = 2**64 - 1
        images = np.arange(2 * 4 * 4 * 3, dtype=np.float64).reshape(2, 4, 4, 3)
        config = only("crop", crop_height=2, crop_width=2)
        # numpy reads this list as float64, where 2**64 - 1 rounds to 2**64
        out = augment_batch(images, config, top, top, [1, top])
        want = augment_batch(images, config, top, top, np.array([1, top], dtype=np.uint64))
        assert out.shape == (2, 2, 2, 3)
        np.testing.assert_array_equal(out, want)
        u = keyed_uniforms(top, top, np.array([1, top], dtype=np.uint64), "crop", 2)
        oy, ox = (u * 3).astype(int).T
        for row, image, y, x in zip(out, images, oy, ox):
            np.testing.assert_array_equal(row, image[y:y + 2, x:x + 2])
        assert sorted(epoch_shuffle(5, top, top)) == list(range(5))


class TestFitPcaBasis:
    def test_grayscale_dataset_top_eigenvector_diagonal(self, rng):
        gray = rng.uniform(0, 255, size=(10, 6, 6, 1))
        images = np.repeat(gray, 3, axis=3)
        basis = fit_pca_basis(images)
        direction = np.abs(basis.eigenvectors[0])
        np.testing.assert_allclose(direction, np.full(3, 1 / np.sqrt(3)), atol=1e-9)
        np.testing.assert_allclose(basis.eigenvalues[1:], 0.0, atol=1e-9)

    def test_single_color_dataset_all_eigenvalues_zero(self):
        images = np.full((4, 5, 5, 3), 123.0)
        basis = fit_pca_basis(images)
        np.testing.assert_allclose(basis.eigenvalues, 0.0, atol=1e-9)

    def test_eigenvectors_orthonormal(self, rng):
        basis = fit_pca_basis([random_image(rng) for _ in range(5)])
        np.testing.assert_allclose(basis.eigenvectors @ basis.eigenvectors.T,
                                   np.eye(3), atol=1e-9)

    def test_covariance_reconstruction_and_jacobi_oracle(self, rng):
        pixels = rng.uniform(0, 255, size=(100, 3))
        images = [pixels.reshape(10, 10, 3)]
        basis = fit_pca_basis(images)

        centered = pixels - pixels.mean(axis=0)
        sample_cov = centered.T @ centered / (pixels.shape[0] - 1)
        np.testing.assert_allclose(basis.reconstruct_covariance(), sample_cov,
                                   atol=1e-9)

        oracle_vals, oracle_vecs = jacobi_eig3(sample_cov)
        np.testing.assert_allclose(basis.eigenvalues, oracle_vals, atol=1e-9)
        for got, want in zip(basis.eigenvectors, oracle_vecs):
            # eigenvectors match up to sign
            assert min(np.abs(got - want).max(), np.abs(got + want).max()) < 1e-8

    def test_eigenvalues_sorted_descending(self, rng):
        basis = fit_pca_basis([random_image(rng) for _ in range(3)])
        assert basis.eigenvalues[0] >= basis.eigenvalues[1] >= basis.eigenvalues[2] >= 0

    def test_channel_means_recorded(self, rng):
        img = random_image(rng)
        basis = fit_pca_basis([img])
        np.testing.assert_allclose(basis.channel_means,
                                   img.reshape(-1, 3).mean(axis=0), atol=1e-12)


class TestPcaNoise:
    def test_sigma_zero_identity(self, rng):
        img = random_image(rng)
        basis = fit_pca_basis([img])
        np.testing.assert_array_equal(pca_noise(img, basis, key(), 0.0), img)

    def test_zero_eigenvalues_identity(self, rng):
        img = random_image(rng)
        basis = PcaBasis(eigenvalues=np.zeros(3), eigenvectors=np.eye(3),
                         channel_means=np.zeros(3))
        np.testing.assert_array_equal(pca_noise(img, basis, key(), 2.0), img)

    def test_monte_carlo_mean_shift_near_zero(self, rng):
        draws = 10_000
        sigma = 0.1
        basis = PcaBasis(eigenvalues=np.array([40.0, 10.0, 2.0]),
                         eigenvectors=np.eye(3), channel_means=np.zeros(3))
        img = np.full((2, 2, 3), 128.0)
        shifts = np.empty((draws, 3))
        for i in range(draws):
            out = pca_noise(img, basis, key(seed=5, sample=i), sigma)
            shifts[i] = (out - img).mean(axis=(0, 1))
        bound = 3.0 * sigma * basis.eigenvalues[0] / np.sqrt(draws)
        assert np.all(np.abs(shifts.mean(axis=0)) < bound)

    def test_shift_is_uniform_across_pixels(self, rng):
        img = np.clip(random_image(rng), 30.0, 225.0)
        # eigenvalues small enough that no pixel reaches the clamp
        basis = PcaBasis(eigenvalues=np.array([3.0, 2.0, 1.0]),
                         eigenvectors=np.eye(3), channel_means=np.zeros(3))
        out = pca_noise(img, basis, key(seed=9), 0.5)
        delta = (out - img).reshape(-1, 3)
        assert np.abs(delta[0]).max() > 0
        np.testing.assert_allclose(delta, np.broadcast_to(delta[0], delta.shape),
                                   atol=1e-12)

    def test_output_clamped(self):
        img = np.full((3, 3, 3), 250.0)
        basis = PcaBasis(eigenvalues=np.array([1000.0, 0.0, 0.0]),
                         eigenvectors=np.eye(3), channel_means=np.zeros(3))
        out = pca_noise(img, basis, key(seed=1), 1.0)
        assert out.min() >= 0.0 and out.max() <= 255.0


class TestColorJitter:
    def test_strength_zero_identity(self, rng):
        img = random_image(rng)
        np.testing.assert_array_equal(color_jitter(img, key(), 0.0), img)

    def test_brightness_factor_zero_black(self, rng):
        img = random_image(rng)
        np.testing.assert_array_equal(blend(img, BRIGHTNESS, 0.0), np.zeros_like(img))

    def test_saturation_factor_zero_grayscale(self, rng):
        img = random_image(rng)
        out = blend(img, SATURATION, 0.0)
        np.testing.assert_allclose(out[:, :, 0], out[:, :, 1], atol=1e-12)
        np.testing.assert_allclose(out[:, :, 1], out[:, :, 2], atol=1e-12)

    def test_contrast_factor_zero_flattens_to_mean_luma(self, rng):
        img = random_image(rng)
        luma = (img @ np.array([0.299, 0.587, 0.114])).mean()
        out = blend(img, CONTRAST, 0.0)
        np.testing.assert_allclose(out, np.full_like(img, luma), atol=1e-12)

    def test_deterministic_and_in_range(self, rng):
        img = random_image(rng)
        a = color_jitter(img, key(seed=3), 0.4)
        b = color_jitter(img, key(seed=3), 0.4)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 255.0

    def test_application_order_varies_with_sample(self):
        # factor application order permutes per image; find two samples whose
        # jitter output differs for the same image only through ordering/draws
        img = np.fromfunction(lambda i, j, c: (i * 37 + j * 11 + c * 5) % 256,
                              (8, 8, 3), dtype=np.float64)
        outs = {color_jitter(img, key(seed=1, sample=i), 0.4).tobytes()
                for i in range(6)}
        assert len(outs) > 1


class TestRandomCrop:
    def test_full_size_identity(self, rng):
        img = random_image(rng, 7, 9)
        np.testing.assert_array_equal(random_crop(img, (7, 9), key()), img)

    def test_known_offset_topleft(self, rng):
        img = random_image(rng, 4, 4)
        # the first sample whose two keyed crop uniforms both fall in [0, 1/3)
        u = keyed_uniforms(13, 0, np.arange(200), "crop", 2)
        hits = np.flatnonzero(np.all(u < 1 / 3, axis=1))
        assert hits.size, "no key landing on offset (0, 0) among 200"
        out = random_crop(img, (2, 2), key(seed=13, sample=int(hits[0])))
        np.testing.assert_array_equal(out, img[:2, :2])

    def test_offsets_uniform_over_nine_positions(self, rng):
        img = np.arange(4 * 4 * 3, dtype=np.float64).reshape(4, 4, 3)
        counts = np.zeros((3, 3))
        draws = 10_000
        for i in range(draws):
            out = random_crop(img, (2, 2), key(seed=21, sample=i))
            oy, ox = int(out[0, 0, 0]) // 12, (int(out[0, 0, 0]) % 12) // 3
            counts[oy, ox] += 1
        freqs = counts / draws
        assert np.all(np.abs(freqs - 1 / 9) <= 0.02)

    def test_oversized_crop_rejected(self, rng):
        with pytest.raises(ValueError, match="exceeds"):
            random_crop(random_image(rng, 4, 4), (5, 5), key())


class TestHorizontalFlip:
    def test_involution(self, rng):
        img = random_image(rng)
        s = key()
        np.testing.assert_array_equal(
            horizontal_flip(horizontal_flip(img, s, 1.0), s, 1.0), img)

    def test_p_zero_identity_p_one_always_flipped(self, rng):
        img = random_image(rng)
        for i in range(5):
            s = key(seed=2, sample=i)
            np.testing.assert_array_equal(horizontal_flip(img, s, 0.0), img)
            np.testing.assert_array_equal(horizontal_flip(img, s, 1.0), img[:, ::-1])

    def test_2x2_definition(self):
        img = np.array([[[1.0] * 3, [2.0] * 3], [[3.0] * 3, [4.0] * 3]])
        out = horizontal_flip(img, key(), 1.0)
        np.testing.assert_array_equal(out[:, :, 0], [[2.0, 1.0], [4.0, 3.0]])

    def test_flip_rate_close_to_half(self):
        img = np.arange(2 * 2 * 3, dtype=np.float64).reshape(2, 2, 3)
        flipped = sum(
            not np.array_equal(horizontal_flip(img, key(seed=8, sample=i), 0.5), img)
            for i in range(2000))
        assert 0.45 < flipped / 2000 < 0.55


class TestNormalize:
    def test_constant_image_maps_to_zero(self):
        img = np.full((5, 5, 3), 0.0) + np.array([10.0, 20.0, 30.0])
        out = normalize(img, [10.0, 20.0, 30.0])
        assert out.shape == (5, 5, 3)
        np.testing.assert_array_equal(out, np.zeros((5, 5, 3)))

    def test_zero_means_no_stds_identity(self, rng):
        img = random_image(rng)
        out = normalize(img, [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(out, img)

    def test_dataset_self_normalization_pools_to_zero_mean(self, rng):
        images = rng.uniform(0, 255, size=(20, 6, 6, 3))
        means = images.reshape(-1, 3).mean(axis=0)
        normalized = np.stack([normalize(img, means) for img in images])
        pooled = normalized.mean(axis=(0, 1, 2))
        np.testing.assert_allclose(pooled, 0.0, atol=1e-6)

    def test_std_division(self, rng):
        img = random_image(rng)
        out = normalize(img, [0.0, 0.0, 0.0], [2.0, 4.0, 8.0])
        np.testing.assert_allclose(out, img / [2.0, 4.0, 8.0], atol=1e-12)

    def test_nonpositive_std_rejected(self, rng):
        with pytest.raises(ValueError, match=r"^channel_stds\[1\] must be finite and > 0, "
                                             r"got 0.0$"):
            normalize(random_image(rng), [0.0] * 3, [1.0, 0.0, 1.0])

    @pytest.mark.parametrize("field", ["channel_means", "channel_stds"])
    def test_statistics_of_wrong_shape_rejected(self, field):
        with pytest.raises(ValueError, match=rf"^{field} must be a list of 3 numbers, "
                                             rf"got \[1.0, 2.0\]$"):
            AugmentConfig(**{field: [1.0, 2.0]})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["channel_means", "channel_stds"])
    def test_non_finite_statistics_rejected(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field}\[2\] must be finite.*, got {value}$"):
            AugmentConfig(**{field: [1.0, 2.0, value]})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.1],
                             ids=["nan", "inf", "-inf", "negative"])
    @pytest.mark.parametrize("field", ["pca_sigma", "jitter_strength"])
    def test_non_finite_or_negative_noise_strength_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and >= 0, got {value}"):
            AugmentConfig(**{field: value})


class TestEpochShuffle:
    @given(n=st.integers(1, 10_000), epoch=st.integers(0, 50), seed=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_bijection(self, n, epoch, seed):
        perm = epoch_shuffle(n, epoch, seed)
        assert np.array_equal(np.sort(perm), np.arange(n))

    def test_deterministic(self):
        np.testing.assert_array_equal(epoch_shuffle(1000, 3, 42),
                                      epoch_shuffle(1000, 3, 42))

    def test_consecutive_epochs_differ(self):
        assert not np.array_equal(epoch_shuffle(10_000, 0, 42),
                                  epoch_shuffle(10_000, 1, 42))

    @pytest.mark.parametrize("word", ["seed", "epoch"])
    @OUTSIDE_UINT64
    def test_key_outside_uint64_rejected(self, word, value):
        words = {"seed": 42, "epoch": 3, word: value}
        with pytest.raises(ValueError, match=outside_uint64(word, value)):
            epoch_shuffle(10, **words)


class TestPipeline:
    def _full_config(self, rng, crop=8):
        basis = fit_pca_basis([random_image(rng, 12, 12)])
        return AugmentConfig(crop_height=crop, crop_width=crop,
                             channel_means=np.array([120.0, 118.0, 122.0]),
                             pca_basis=basis)

    def test_all_disabled_except_normalize_zero_means(self, rng):
        img = random_image(rng, 10, 10)
        config = AugmentConfig(enable_crop=False, enable_flip=False,
                               enable_jitter=False, enable_pca=False,
                               channel_means=np.zeros(3))
        out = augment_one(img, config)
        np.testing.assert_array_equal(out, img)

    def test_deterministic_under_fixed_key(self, rng):
        img = random_image(rng, 12, 12)
        config = self._full_config(rng)
        a = augment_one(img, config, key(seed=4, epoch=2, sample=17))
        b = augment_one(img, config, key(seed=4, epoch=2, sample=17))
        np.testing.assert_array_equal(a, b)

    def test_output_shape_sweep_over_source_sizes(self, rng):
        config = self._full_config(rng, crop=8)
        for size in range(32, 65, 8):
            out = augment_one(random_image(rng, size, size + 3), config,
                              key(sample=size))
            assert out.shape == (8, 8, 3)

    def test_neutral_settings_are_identity(self, rng):
        img = random_image(rng, 9, 9)
        basis = fit_pca_basis([img])
        config = AugmentConfig(crop_height=9, crop_width=9, flip_probability=0.0,
                               pca_sigma=0.0, jitter_strength=0.0,
                               channel_means=np.zeros(3), pca_basis=basis)
        out = augment_one(img, config, key(seed=123))
        np.testing.assert_array_equal(out, img)

    def test_pixel_range_preserved_before_normalize(self, rng):
        config = self._full_config(rng)
        for i in range(10):
            out = augment_one(random_image(rng, 12, 12),
                              replace(config, enable_normalize=False), key(sample=i))
            assert out.min() >= 0.0 and out.max() <= 255.0

    def test_missing_pca_basis_rejected(self, rng):
        config = AugmentConfig(crop_height=8, crop_width=8, channel_means=np.zeros(3))
        with pytest.raises(ValueError, match="pca_basis"):
            augment_one(random_image(rng, 12, 12), config)


@functools.lru_cache(maxsize=None)
def synthetic_sources():
    return generate_synthetic(SyntheticSpec(num_classes=4, samples_per_class=4,
                                            image_size=12, noise_std=60.0),
                              seed=31, split="train")


class TestKeyedDraws:
    """Every draw is a hash of the row's key, so the batch changes nothing."""

    @given(indices=st.lists(st.integers(0, 15), min_size=1, max_size=8, unique=True),
           seed=st.integers(0, 2**64 - 1), epoch=st.integers(0, 2**64 - 1),
           dtype=st.sampled_from([np.float32, np.float64]),
           jitter=st.sampled_from([0.4, 2.5]), sigma=st.sampled_from([0.1, 3.0]))
    @settings(max_examples=60, deadline=None)
    def test_row_equals_row_augmented_alone(self, indices, seed, epoch, dtype, jitter, sigma):
        data = synthetic_sources()
        config = AugmentConfig(crop_height=9, crop_width=10, jitter_strength=jitter,
                               pca_sigma=sigma, channel_means=[118.0, 121.5, 109.25],
                               channel_stds=[50.0, 60.0, 70.0],
                               pca_basis=fit_pca_basis(data.images))
        batch = augment_batch(data.images[indices], config, seed, epoch, indices, dtype)
        assert batch.dtype == dtype and batch.shape == (len(indices), 9, 10, 3)
        for row, index in zip(batch, indices):
            alone = augment_batch(data.images[index][None], config, seed, epoch, [index], dtype)
            assert row.tobytes() == alone[0].tobytes()

    def test_jitter_order_uniform_over_six_permutations(self, monkeypatch):
        seen = []

        def spy(x, ops, factors):
            seen.append((ops, factors))
            return jitter_blend(x, ops, factors)

        monkeypatch.setattr(augment, "jitter_blend", spy)
        draws = 10_000
        augment_batch(np.zeros((draws, 1, 1, 3)), only("jitter", jitter_strength=0.4),
                      34, 0, np.arange(draws))
        ((ops, factors),) = seen
        perms, counts = np.unique(ops, axis=0, return_counts=True)
        assert [tuple(p) for p in perms] == list(itertools.permutations(range(3)))
        assert np.all(np.abs(counts / draws - 1 / 6) <= 0.02)
        assert factors.shape == (draws, 3)
        assert 0.6 <= factors.min() and factors.max() < 1.4

    def test_pca_weights_are_normal_with_sigma(self):
        draws, sigma = 10_000, 2.0
        # unit eigenvalues along the RGB axes: each channel's shift is one alpha_i
        basis = PcaBasis(eigenvalues=np.ones(3), eigenvectors=np.eye(3),
                         channel_means=np.zeros(3))
        out = augment_batch(np.full((draws, 1, 1, 3), 128.0),
                            only("pca", pca_basis=basis, pca_sigma=sigma),
                            35, 0, np.arange(draws))
        alpha = out.reshape(draws, 3) - 128.0
        assert np.all(np.abs(alpha.mean(axis=0)) <= 0.05 * sigma)
        assert np.all(np.abs(alpha.std(axis=0) / sigma - 1.0) <= 0.05)

    def test_pca_weights_match_scalar_box_muller_oracle(self):
        draws, sigma = 64, 1.5
        basis = PcaBasis(eigenvalues=np.ones(3), eigenvectors=np.eye(3),
                         channel_means=np.zeros(3))
        seed, epoch = 2**64 - 1, 2**64 - 2
        indices = [2**64 - 1 - 5 * i for i in range(draws)]
        out = augment_batch(np.full((draws, 1, 1, 3), 128.0),
                            only("pca", pca_basis=basis, pca_sigma=sigma),
                            seed, epoch, indices)
        keys = [(seed, epoch, index) for index in indices]
        tag = TECHNIQUES.index("pca_noise") + 1
        want = []
        for key in keys:
            u = [(splitmix64_chain([*key, tag, k]) >> 11) * 2.0**-53 for k in range(6)]
            want.append([128.0 + sigma * math.sqrt(-2.0 * math.log1p(-u[c]))
                         * math.cos(2.0 * math.pi * u[3 + c]) for c in range(3)])
        assert out.reshape(draws, 3).tolist() == want


class TestGoldenBatches:
    """sha256 of augmented batches under the keyed draws (``keyed_bits``):
    seed 11, epoch 3, one row per dataset index. The black-image case
    keeps the sign of zero that a negative brightness factor leaves on a 0
    pixel. The PCA weights pass through the C library's scalar log1p and
    cos, not numpy's per-CPU kernels."""

    MEANS = [118.0, 121.5, 109.25]
    STDS = [50.0, 60.0, 70.0]

    @pytest.mark.parametrize("source, fields, dtype, indices, digest", [
        ("synthetic", dict(crop_height=9, crop_width=10, channel_means=MEANS),
         np.float64, [5, 0, 17, 9, 22, 3],
         "2af4e5be3c5839ba1e8a71f8f06ccaebc59ef3ee36e2bd5579e79f88cb404a3b"),
        ("synthetic", dict(crop_height=8, crop_width=8, enable_jitter=False,
                           enable_pca=False, channel_means=MEANS),
         np.float32, [5, 0, 17, 9, 22, 3],
         "4b4fa13dbabee937ef702609c44caa8587fdac1812151f5e9d19ddc44d29a20a"),
        ("synthetic", dict(crop_height=10, crop_width=10, enable_pca=False,
                           jitter_strength=1.5, channel_stds=STDS),
         np.float64, [1, 2, 3, 4, 5, 6, 7, 8],
         "a32ae26daf8197e23f00cebc18511e5e7aaa57b34375f57b697768cf305d83f5"),
        ("synthetic", dict(crop_height=12, crop_width=12, channel_means=MEANS,
                           channel_stds=STDS),
         np.float32, [23, 11],
         "bc34dbd6b5b894fe9b1c7020891913529203edaf827641c2cfdcdb6660fcc1ab"),
        ("synthetic", dict(crop_height=7, crop_width=9, channel_means=MEANS),
         np.float64, [13],
         "97319d4493bceb1092b269a0d762c52c993e297e21680ee5efce62cd5c112c43"),
        ("black", dict(enable_crop=False, enable_flip=False, enable_pca=False,
                       jitter_strength=2.5),
         np.float64, [0, 1, 2, 3, 4, 5, 6, 7],
         "3bef822263257f822d2df99b477e08a8bb8a4aea8c4ae311bbfb1ffb08b9ad8d"),
    ], ids=["full-f64", "crop-flip-f32", "stds-strong-jitter-f64", "stds-means-f32",
            "single-row-f64", "black-jitter-2.5-f64"])
    def test_batch_matches_golden_digest(self, source, fields, dtype, indices, digest):
        data = generate_synthetic(SyntheticSpec(num_classes=4, samples_per_class=6,
                                                image_size=12, noise_std=60.0),
                                  seed=31, split="train")
        images = data.images if source == "synthetic" else np.zeros((8, 3, 4, 3), np.uint8)
        config = AugmentConfig(pca_basis=fit_pca_basis(data.images), **fields)
        batch = augment_batch(images[indices], config, 11, 3, indices, dtype)
        assert batch.dtype == dtype
        if source == "black":   # the case is there for the sign of zero: rows 1 and 3 keep -0.0
            assert np.signbit(batch).any()
        assert hashlib.sha256(batch.tobytes()).hexdigest() == digest
