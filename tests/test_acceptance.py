"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 7 (the desk-scale statistical check) dominates the
runtime; everything else finishes in seconds.
"""

import dataclasses
import functools
import json
import pickle
from fractions import Fraction

import numpy as np
import pytest

from branchnet.augment import AugmentConfig, PcaBasis, augment_batch, fit_pca_basis
from branchnet.cli import main
from branchnet.data import (SyntheticSpec, generate_synthetic,
                            load_checkpoint, save_checkpoint)
from branchnet.evaluation import evaluate, relative_improvement
from branchnet.gradcheck import finite_diff_check
from branchnet.model import (BranchedNetConfig, build_branched_net, mini_config,
                             network_report, paper_scale_config)
from branchnet.tensor import (Tensor, batch_norm2d, conv2d, global_avg_pool,
                              linear, pool2d, relu, residual_add, softmax,
                              weighted_sum)
from branchnet.training import (TrainConfig, lr_at_epoch, restore_network,
                                smooth_labels, train)

from layout import nchw, nhwc
from pool import run_pooled


def ok(line):
    print(f"PASS  {line}")


# -- criterion 1: gradient correctness ---------------------------------------

class TestCriterion1GradientCorrectness:
    N_SHAPES = 10
    TOL = 1e-4

    def _check(self, loss_fn, wrt):
        report = finite_diff_check(loss_fn, wrt, tolerance=self.TOL)
        assert report.passed, report.summary()
        return report.max_rel_err

    def test_every_op_and_mini_block(self, rng):
        worst = 0.0
        for i in range(self.N_SHAPES):
            n, cin, cout = (int(v) for v in rng.integers(1, 3, size=3))
            k = int(rng.integers(1, 4))
            h = int(rng.integers(k, k + 3))
            w_ = int(rng.integers(k, k + 3))
            stride = int(rng.integers(1, 3))
            pad = int(rng.integers(0, 2))
            oh = (h + 2 * pad - k) // stride + 1
            ow = (w_ + 2 * pad - k) // stride + 1

            x = Tensor(nhwc(rng.standard_normal((n, cin, h, w_))), requires_grad=True)
            wt = Tensor(rng.standard_normal((cout, cin, k, k)), requires_grad=True)
            b = Tensor(rng.standard_normal(cout), requires_grad=True)
            probe = nhwc(rng.standard_normal((n, cout, oh, ow)))
            worst = max(worst, self._check(
                lambda: weighted_sum(conv2d(x, wt, b, stride=stride, pad=pad), probe),
                [x, wt, b]))

            # linear
            d, kk = int(rng.integers(1, 6)), int(rng.integers(2, 6))
            xl = Tensor(rng.standard_normal((n, d)), requires_grad=True)
            wl = Tensor(rng.standard_normal((kk, d)), requires_grad=True)
            bl = Tensor(rng.standard_normal(kk), requires_grad=True)
            pl = rng.standard_normal((n, kk))
            worst = max(worst, self._check(
                lambda: weighted_sum(linear(xl, wl, bl), pl), [xl, wl, bl]))

            # relu probed away from kinks
            vals = rng.standard_normal((3, 4))
            vals = np.where(np.abs(vals) < 1e-2, np.where(vals >= 0, 0.5, -0.5), vals)
            xr = Tensor(vals, requires_grad=True)
            pr = rng.standard_normal((3, 4))
            worst = max(worst, self._check(
                lambda: weighted_sum(relu(xr), pr), [xr]))

            # batch norm, train and eval
            c = int(rng.integers(1, 4))
            xb = Tensor(nhwc(rng.standard_normal((2, c, 3, 3))), requires_grad=True)
            g = Tensor(rng.uniform(0.5, 1.5, c), requires_grad=True)
            bt = Tensor(rng.standard_normal(c), requires_grad=True)
            rm, rv = Tensor(rng.standard_normal(c)), Tensor(rng.uniform(0.5, 2.0, c))
            pb = nhwc(rng.standard_normal((2, c, 3, 3)))
            mode = "train" if i % 2 == 0 else "eval"
            worst = max(worst, self._check(
                lambda: weighted_sum(batch_norm2d(xb, g, bt, rm, rv, mode=mode), pb),
                [xb, g, bt]))

            # batch norm taking a block's shortcut and relu, probed away from relu's
            # kink: the shortcut puts every sum relu sees at least 1e-2 from it
            normalized = batch_norm2d(xb, g, bt, Tensor(rm.data.copy()),
                                      Tensor(rv.data.copy()), mode=mode).data
            total = rng.standard_normal(xb.shape)
            total = np.where(np.abs(total) < 1e-2, np.where(total >= 0, 0.5, -0.5), total)
            sc = Tensor(total - normalized, requires_grad=True)
            worst = max(worst, self._check(
                lambda: weighted_sum(batch_norm2d(xb, g, bt, rm, rv, mode=mode, shortcut=sc,
                                                  relu=True), pb),
                [xb, g, bt, sc]))

            # pools (max probed away from ties via a permutation input)
            hp = int(rng.integers(4, 7))
            win = int(rng.integers(2, 4))
            xm = Tensor(nhwc(rng.permutation(hp * hp).reshape(1, 1, hp, hp) * 0.31),
                        requires_grad=True)
            om = (hp - win) // win + 1
            pm = nhwc(rng.standard_normal((1, 1, om, om)))
            worst = max(worst, self._check(
                lambda: weighted_sum(pool2d(xm, "max", win, win), pm), [xm]))
            xa = Tensor(nhwc(rng.standard_normal((1, 2, hp, hp))), requires_grad=True)
            oa = (hp - win) // 1 + 1
            pa = nhwc(rng.standard_normal((1, 2, oa, oa)))
            worst = max(worst, self._check(
                lambda: weighted_sum(pool2d(xa, "avg", win, 1), pa), [xa]))

            # global average pool, softmax, residual add
            xg = Tensor(nhwc(rng.standard_normal((2, 3, 2, 4))), requires_grad=True)
            pg = rng.standard_normal((2, 3))
            worst = max(worst, self._check(
                lambda: weighted_sum(global_avg_pool(xg), pg), [xg]))
            xs = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
            ps = rng.standard_normal((3, 5))
            worst = max(worst, self._check(
                lambda: weighted_sum(softmax(xs), ps), [xs]))
            ra = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
            rb = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
            pradd = rng.standard_normal((2, 3))
            worst = max(worst, self._check(
                lambda: weighted_sum(residual_add(ra, rb), pradd), [ra, rb]))

            # composed mini residual block
            xc = Tensor(nhwc(rng.standard_normal((2, 3, 5, 5))), requires_grad=True)
            wc = Tensor(rng.standard_normal((3, 3, 3, 3)) * 0.4, requires_grad=True)
            gc = Tensor(np.ones(3), requires_grad=True)
            bc = Tensor(np.zeros(3), requires_grad=True)
            rmc, rvc = Tensor(np.zeros(3)), Tensor(np.ones(3))
            pc = nhwc(rng.standard_normal((2, 3, 5, 5)))

            def mini_block():
                y = conv2d(xc, wc, stride=1, pad=1)
                y = batch_norm2d(y, gc, bc, rmc, rvc, mode="train")
                y = relu(y)
                y = residual_add(y, xc)
                return weighted_sum(y, pc)

            worst = max(worst, self._check(mini_block, [xc, wc, gc, bc]))

        ok(f"criterion 1: gradients match central differences over "
           f"{self.N_SHAPES} shape draws per op, max rel err {worst:.2e} < 1e-4")


# -- criterion 2: label smoothing exactness -----------------------------------

class TestCriterion2LabelSmoothing:
    def test_formula_and_exact_sums(self):
        for k in (2, 10, 1000):
            for eps in (0.0, 0.1, 0.5):
                y = k // 3
                p = smooth_labels(y, k, eps)
                assert abs(p[y] - (1.0 - eps + eps / k)) <= 1e-12
                off = np.delete(p, y)
                assert np.all(np.abs(off - eps / k) <= 1e-12)
                assert float(p.sum()) == 1.0
                # the identity itself, in exact rational arithmetic
                fe, fk = Fraction(eps), Fraction(k)
                assert (1 - fe + fe / fk) + (fk - 1) * (fe / fk) == 1
        ok("criterion 2: smoothing formula to 1e-12 for K in {2,10,1000} x "
           "eps in {0,0.1,0.5}; float sums == 1.0 and the algebraic identity "
           "holds exactly")


# -- criterion 3: topology reproduction ---------------------------------------

class TestCriterion3Topology:
    def test_block_and_layer_counts(self):
        cfg = paper_scale_config()
        assert cfg.stage_blocks == (3, 24, 36, 3) and cfg.bottleneck
        assert cfg.branch_after_block == 39 and cfg.num_branches == 2
        report = network_report(cfg)
        assert report.total_blocks_materialized == 93
        assert report.conv_layers == 199
        assert report.weighted_layers == 200
        ok("criterion 3: stages [3,24,36,3] bottleneck, B=39, K_b=2 -> "
           "93 materialized blocks, 199 convs + classifier = 200 weighted layers")


# -- criterion 4: parameter economy -------------------------------------------

class TestCriterion4ParameterEconomy:
    def test_strict_inequality_and_monotonicity(self):
        cfg = paper_scale_config()
        report = network_report(cfg)
        assert report.total_params < report.equivalent_independent_ensemble_params
        ratios = [network_report(
            dataclasses.replace(cfg, branch_after_block=b)).sharing_ratio
            for b in range(0, cfg.total_blocks + 1)]
        assert ratios[0] == 1.0
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))
        ok(f"criterion 4: total {report.total_params:,} < 2x single net "
           f"{report.equivalent_independent_ensemble_params:,}; sharing ratio "
           f"non-increasing over B=0..66 (1.0 -> {ratios[-1]:.4f})")


# -- criterion 5: relative improvement values ---------------------------------

class TestCriterion5RelativeImprovement:
    def test_reference_table_values(self):
        a = relative_improvement((22.02, 22.09), 20.81)
        b = relative_improvement((21.24, 21.32), 20.31)
        assert abs(a - 5.65) <= 0.01
        assert abs(b - 4.56) <= 0.01
        ok(f"criterion 5: relative improvement (22.02,22.09 | 20.81) = {a:.4f} "
           f"~ 5.65 and (21.24,21.32 | 20.31) = {b:.4f} ~ 4.56, within 0.01")


# -- criterion 6: schedule reproduction ---------------------------------------

class TestCriterion6Schedule:
    def test_exact_rates(self):
        cfg = TrainConfig()
        got = [lr_at_epoch(cfg, e) for e in (0, 30, 60, 90)]
        assert got == [0.05, 0.005, 0.0005, 0.00005]
        ok("criterion 6: lr at epochs 0/30/60/90 = 0.05/0.005/0.0005/0.00005, "
           "exact float equality")


# -- criterion 7: desk-scale ensemble effect ----------------------------------

DESK_SCALE_NOISE = 130.0


@functools.cache
def _desk_scale_data():
    """The recipe's synthetic train and test sets and its augmentation."""
    train_set = generate_synthetic(
        SyntheticSpec(num_classes=10, samples_per_class=20, image_size=24,
                      noise_std=DESK_SCALE_NOISE), seed=1000, split="train")
    test_set = generate_synthetic(
        SyntheticSpec(num_classes=10, samples_per_class=50, image_size=24,
                      noise_std=DESK_SCALE_NOISE), seed=2000, split="test")
    means = train_set.images.astype(np.float64).reshape(-1, 3).mean(axis=0)
    augment = AugmentConfig(crop_height=20, crop_width=20, enable_crop=True,
                            enable_flip=True, enable_jitter=False,
                            enable_pca=False, channel_means=means)
    return train_set, test_set, augment


def desk_scale_report(epsilon, seed, total_epochs=20):
    """The test-set report of one float32 mini net trained by the recipe."""
    train_set, test_set, augment = _desk_scale_data()
    cfg = TrainConfig(batch_size=32, total_epochs=total_epochs, base_lr=0.05,
                      lr_decay_interval_epochs=8, weight_decay=1e-4,
                      momentum=0.9, smoothing_epsilon=epsilon, seed=seed,
                      num_classes=10)
    net = build_branched_net(mini_config(input_size=20), seed=seed, dtype=np.float32)
    train(net, train_set, cfg, augment)
    return evaluate(net, test_set, augment_config=augment)


def _mean_errors(reports):
    """(branch-mean, ensemble) top-1 error, each averaged over ``reports``."""
    return (float(np.mean([float(np.mean(r.branch_top1)) for r in reports])),
            float(np.mean([r.ensemble_top1 for r in reports])))


class TestDeskScalePool:
    def test_pooled_reports_equal_in_process_reports(self):
        jobs = [(0.1, seed, 2) for seed in (5, 6)]
        pooled = run_pooled(desk_scale_report, jobs)
        assert pickle.dumps(pooled) == pickle.dumps([desk_scale_report(*job) for job in jobs])


@pytest.mark.slow
class TestCriterion7DeskScaleEnsembleEffect:
    """Statistical trend on the synthetic dataset (no CIFAR-10 archive is
    bundled): mean ensemble error <= mean branch error, and smoothed
    training <= hard-label training on the branch mean, over 20 seeds.

    The seed count sets how often working code fails the test. Over seeds
    5-30 of this recipe under ``SeedSequence``-seeded PCG64 augmentation
    draws, the per-seed effects (mean, SD, in error points) were 0.65, 1.05
    for smoothing on the branch mean, and 0.34, 0.68 (hard) and 0.51, 0.74
    (smoothed) for the ensemble against the branch mean. By a normal
    approximation a 20-seed mean of each falls below zero with probability
    0.3%, 1.3% and 0.1%, so the test fails working code less than 2% of
    the time, against about 25% (8%, 13%, 6%) over 5 seeds.

    The paper-scale absolute error numbers are explicitly NOT targets here;
    only the qualitative trend is asserted.
    """

    SEEDS = tuple(range(5, 25))

    def test_ensemble_and_smoothing_trends(self):
        # the 40 trainings share nothing, so they run on every core at once
        reports = run_pooled(desk_scale_report, [(epsilon, seed) for epsilon in (0.0, 0.1)
                                                 for seed in self.SEEDS])
        hard_branch, hard_ens = _mean_errors(reports[:len(self.SEEDS)])
        smooth_branch, smooth_ens = _mean_errors(reports[len(self.SEEDS):])

        assert hard_ens <= hard_branch, \
            f"ensemble {hard_ens:.2f} > branch mean {hard_branch:.2f} (hard labels)"
        assert smooth_ens <= smooth_branch, \
            f"ensemble {smooth_ens:.2f} > branch mean {smooth_branch:.2f} (smoothed)"
        assert smooth_branch <= hard_branch, \
            f"smoothed branches {smooth_branch:.2f} > hard branches {hard_branch:.2f}"
        ok(f"criterion 7: over {len(self.SEEDS)} seeds, ensemble <= branch mean "
           f"({hard_ens:.2f} <= {hard_branch:.2f} hard; {smooth_ens:.2f} <= "
           f"{smooth_branch:.2f} smoothed) and smoothing helps the branches "
           f"({smooth_branch:.2f} <= {hard_branch:.2f})")


# -- criterion 8: determinism --------------------------------------------------

class TestCriterion8Determinism:
    def _config(self, tmp_path, epochs):
        return {
            "model": {"stage_blocks": [1, 1], "stage_widths": [4, 8],
                      "bottleneck": False, "branch_after_block": 1,
                      "num_branches": 2, "num_classes": 3,
                      "input_height": 8, "input_width": 8},
            "train": {"batch_size": 8, "total_epochs": epochs, "base_lr": 0.02,
                      "seed": 7},
            "augment": {"crop_height": 8, "crop_width": 8, "enable_crop": False,
                        "enable_jitter": False, "enable_pca": False},
            "data": {"kind": "synthetic", "num_classes": 3,
                     "train_samples_per_class": 8, "test_samples_per_class": 4,
                     "image_size": 8, "noise_std": 6.0, "seed": 91},
            "output": {"dir": str(tmp_path / "runs")},
        }

    def test_identical_runs_and_split_run_resume(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(self._config(tmp_path, epochs=3)))
        assert main(["train", "--config", str(path)]) == 0
        assert main(["train", "--config", str(path)]) == 0
        first, second = sorted((tmp_path / "runs").iterdir())
        assert (first / "history.csv").read_bytes() == (second / "history.csv").read_bytes()
        assert (first / "final.ckpt").read_bytes() == (second / "final.ckpt").read_bytes()

        # split run: 2 epochs, checkpoint, resume 1 more == 3 straight
        from branchnet.cli import load_experiment
        cfg = load_experiment(path, [])
        train_set = cfg.data.load("train")
        netA = build_branched_net(cfg.model, seed=cfg.train.seed)
        ckA, _ = train(netA, train_set, cfg.train, cfg.augment)

        cfg2 = dataclasses.replace(cfg.train, total_epochs=2)
        netB = build_branched_net(cfg.model, seed=cfg.train.seed)
        ckMid, _ = train(netB, train_set, cfg2, cfg.augment)
        save_checkpoint(tmp_path / "mid.ckpt", ckMid)
        restored = load_checkpoint(tmp_path / "mid.ckpt")
        netC, opt = restore_network(restored)
        ckB, _ = train(netC, train_set, cfg.train, restored.augment_config,
                       start_epoch=restored.epoch, optimizer_state=opt)
        assert set(ckA.tensors) == set(ckB.tensors)
        for name in ckA.tensors:
            np.testing.assert_array_equal(ckA.tensors[name], ckB.tensors[name],
                                          err_msg=name)
        ok("criterion 8: identical config+seed -> byte-identical history.csv "
           "and checkpoint; 2+1-epoch split run equals 3-epoch run bitwise")


# -- criterion 9: augmentation property suite ----------------------------------

class TestCriterion9AugmentationProperties:
    def test_property_suite(self, rng):
        img = rng.uniform(0, 255, size=(12, 12, 3))

        def one(image, key, **fields):
            """A batch of one, keyed by ``key`` = (seed, epoch, index), through
            the stages ``fields`` enables."""
            off = dict(enable_crop=False, enable_flip=False, enable_jitter=False,
                       enable_pca=False, enable_normalize=False)
            seed, epoch, index = key
            return augment_batch(image[None], AugmentConfig(**{**off, **fields}),
                                 seed, epoch, [index])[0]

        key = (3, 0, 0)
        flip = dict(enable_flip=True, flip_probability=1.0)
        np.testing.assert_array_equal(one(img, key, **flip), img[:, ::-1])
        np.testing.assert_array_equal(one(one(img, key, **flip), key, **flip), img)
        np.testing.assert_array_equal(
            one(img, key, enable_flip=True, flip_probability=0.0), img)
        np.testing.assert_array_equal(
            one(img, key, enable_crop=True, crop_height=12, crop_width=12), img)

        basis0 = PcaBasis(eigenvalues=np.zeros(3), eigenvectors=np.eye(3),
                          channel_means=np.zeros(3))
        np.testing.assert_array_equal(
            one(img, key, enable_pca=True, pca_basis=basis0, pca_sigma=0.0), img)
        np.testing.assert_array_equal(
            one(img, key, enable_jitter=True, jitter_strength=0.0), img)

        # crop output shape equals configured size over source sizes
        for size in (16, 24, 33):
            src = rng.uniform(0, 255, size=(size, size + 1, 3))
            out = one(src, (3, 0, size), enable_crop=True,
                      crop_height=9, crop_width=11)
            assert out.shape == (9, 11, 3)

        # crop offsets uniform over the 9-offset case within +-0.02
        base = np.arange(4 * 4 * 3, dtype=np.float64).reshape(4, 4, 3)
        counts = np.zeros(9)
        draws = 10_000
        for i in range(draws):
            out = one(base, (21, 0, i), enable_crop=True,
                      crop_height=2, crop_width=2)
            flat = int(out[0, 0, 0])
            counts[(flat // 12) * 3 + (flat % 12) // 3] += 1
        assert np.all(np.abs(counts / draws - 1 / 9) <= 0.02)

        # PCA basis orthonormal and covariance-reconstructing
        images = rng.uniform(0, 255, size=(6, 10, 10, 3))
        basis = fit_pca_basis(images)
        np.testing.assert_allclose(basis.eigenvectors @ basis.eigenvectors.T,
                                   np.eye(3), atol=1e-9)
        px = images.reshape(-1, 3)
        centered = px - px.mean(axis=0)
        sample_cov = centered.T @ centered / (px.shape[0] - 1)
        np.testing.assert_allclose(basis.reconstruct_covariance(), sample_cov,
                                   atol=1e-6)

        # post-normalization pooled channel mean -> 0
        means = px.mean(axis=0)
        pooled = np.stack([one(im, key, enable_normalize=True, channel_means=means)
                           for im in images]).mean(axis=(0, 1, 2))
        np.testing.assert_allclose(pooled, 0.0, atol=1e-6)

        ok("criterion 9: flip involution, neutral-setting identities, crop "
           "shape sweep, crop offsets uniform within 0.02, PCA basis "
           "orthonormal (1e-9) and covariance-reconstructing (1e-6), "
           "pooled normalized mean 0 within 1e-6")


# -- criterion 10: oracle equivalence ------------------------------------------

class TestCriterion10OracleEquivalence:
    def test_loop_oracles_and_trunk_gradient_decomposition(self, rng):
        from oracles import (batchnorm_twopass, conv2d_loops, linear_loops,
                             pool2d_loops)
        from branchnet.tensor import Tape, reverse_pass
        from branchnet.training import combined_branch_loss, smooth_label_matrix

        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        got = nchw(conv2d(Tensor(nhwc(x)), Tensor(w), Tensor(b), stride=2, pad=1).data)
        np.testing.assert_allclose(got, conv2d_loops(x, w, b, 2, 1), atol=1e-12)

        for kind in ("max", "avg"):
            got = nchw(pool2d(Tensor(nhwc(x)), kind, 2, 2).data)
            np.testing.assert_allclose(got, pool2d_loops(x, kind, 2, 2), atol=1e-12)

        xl = rng.standard_normal((3, 5))
        wl = rng.standard_normal((4, 5))
        bl = rng.standard_normal(4)
        np.testing.assert_allclose(linear(Tensor(xl), Tensor(wl), Tensor(bl)).data,
                                   linear_loops(xl, wl, bl), atol=1e-12)

        gamma, beta = rng.standard_normal(3), rng.standard_normal(3)
        rm, rv = Tensor(np.zeros(3)), Tensor(np.ones(3))
        got = nchw(batch_norm2d(Tensor(nhwc(x)), Tensor(gamma), Tensor(beta), rm, rv,
                                mode="train").data)
        np.testing.assert_allclose(got, batchnorm_twopass(x, gamma, beta, 1e-5),
                                   atol=1e-12)

        # combined-loss trunk gradient == average of single-branch passes
        cfg = BranchedNetConfig(stage_blocks=(1, 1), stage_widths=(4, 8),
                                bottleneck=False, branch_after_block=1,
                                num_branches=2, num_classes=3,
                                input_height=8, input_width=8)
        net = build_branched_net(cfg, seed=5)
        batch = Tensor(nhwc(rng.standard_normal((4, 3, 8, 8))))
        targets = smooth_label_matrix(rng.integers(0, 3, size=4), 3, 0.1)
        trunk_names = [n for n in net.params
                       if n.startswith(("stem.", "trunk."))]

        def run(branches):
            net.zero_grad()
            with Tape() as tape:
                trunk_out = net.forward_trunk(batch, "train")
                logits = [net.forward_branch(br, trunk_out, "train")
                          for br in branches]
                loss, _ = combined_branch_loss(logits, targets)
            reverse_pass(tape, loss)
            params = net.params
            return {n: params[n].grad.copy() for n in trunk_names}

        both, only0, only1 = run([0, 1]), run([0]), run([1])
        for name in trunk_names:
            np.testing.assert_allclose(both[name], (only0[name] + only1[name]) / 2,
                                       atol=1e-10)

        ok("criterion 10: conv/pool/linear/BN match loop oracles at 1e-12; "
           "combined-loss trunk gradient equals the mean of two single-branch "
           "backward passes at 1e-10")
