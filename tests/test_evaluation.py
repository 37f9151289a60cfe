"""Top-k error, ensembling, relative improvement, and the report."""

import numpy as np
import pytest

from branchnet.augment import AugmentConfig, epoch_shuffle
from branchnet.data import SyntheticSpec, generate_synthetic
from branchnet.evaluation import (ensemble_probs, evaluate,
                                  relative_improvement, top_k_error)
from branchnet.model import BranchedNetConfig, build_branched_net
from branchnet.training import TrainConfig, train

from oracles import topk_error_sorted


class TestTopKError:
    def test_k_equals_num_classes_is_zero(self, rng):
        probs = rng.dirichlet(np.ones(5), size=10)
        labels = rng.integers(0, 5, size=10)
        assert top_k_error(probs, labels, 5) == 0.0

    def test_perfect_one_hot_zero_for_any_k(self, rng):
        labels = rng.integers(0, 4, size=8)
        probs = np.eye(4)[labels]
        for k in range(1, 5):
            assert top_k_error(probs, labels, k) == 0.0

    def test_hand_constructed_case_against_sort_oracle(self):
        probs = np.array([
            [0.7, 0.2, 0.1],   # label 0: top-1 hit
            [0.1, 0.6, 0.3],   # label 1: top-1 hit
            [0.5, 0.4, 0.1],   # label 1: top-1 miss, top-2 hit
            [0.3, 0.3, 0.4],   # label 2: top-1 hit
        ])
        labels = np.array([0, 1, 1, 2])
        assert top_k_error(probs, labels, 1) == 25.0
        assert top_k_error(probs, labels, 2) == 0.0
        for k in (1, 2, 3):
            assert top_k_error(probs, labels, k) == topk_error_sorted(probs, labels, k)

    def test_ties_rank_lower_class_index_first(self):
        probs = np.array([[0.4, 0.4, 0.2]])
        # class 0 and 1 tie; lower index ranks first, so label 1 misses top-1
        assert top_k_error(probs, np.array([0]), 1) == 0.0
        assert top_k_error(probs, np.array([1]), 1) == 100.0

    def test_matches_sort_oracle_random(self, rng):
        probs = rng.dirichlet(np.ones(6), size=40)
        labels = rng.integers(0, 6, size=40)
        for k in range(1, 7):
            assert top_k_error(probs, labels, k) == topk_error_sorted(probs, labels, k)

    def test_non_increasing_in_k(self, rng):
        probs = rng.dirichlet(np.ones(8), size=30)
        labels = rng.integers(0, 8, size=30)
        errors = [top_k_error(probs, labels, k) for k in range(1, 9)]
        assert all(a >= b for a, b in zip(errors, errors[1:]))

    @pytest.mark.parametrize("label", [-1, 7])
    def test_label_outside_class_range_rejected(self, rng, label):
        probs = rng.dirichlet(np.ones(3), size=2)
        with pytest.raises(ValueError, match=f"label {label} is outside"):
            top_k_error(probs, np.array([0, label]), 1)

    def test_k_out_of_range_rejected(self, rng):
        probs = rng.dirichlet(np.ones(3), size=2)
        with pytest.raises(ValueError, match="k must"):
            top_k_error(probs, np.zeros(2, dtype=int), 4)


class TestEnsembleProbs:
    def test_identical_branches_identity(self, rng):
        p = rng.dirichlet(np.ones(4), size=6)
        np.testing.assert_array_equal(ensemble_probs([p, p.copy()]), p)

    def test_single_branch_identity_and_argmax(self, rng):
        p = rng.dirichlet(np.ones(4), size=6)
        out = ensemble_probs([p])
        np.testing.assert_array_equal(out, p)
        np.testing.assert_array_equal(out.argmax(axis=1), p.argmax(axis=1))

    def test_rows_remain_distributions(self, rng):
        branches = [rng.dirichlet(np.ones(5), size=12) for _ in range(3)]
        out = ensemble_probs(branches)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out >= 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ensemble_probs([])


class TestRelativeImprovement:
    def test_branched_resnet_column(self):
        assert abs(relative_improvement((22.02, 22.09), 20.81) - 5.65) <= 0.01

    def test_branched_resnet_ls_column(self):
        assert abs(relative_improvement((21.24, 21.32), 20.31) - 4.56) <= 0.01

    def test_no_improvement_is_zero(self):
        assert relative_improvement((10.0, 10.0), 10.0) == 0.0

    def test_positive_iff_ensemble_below_branch_mean(self):
        assert relative_improvement((10.0, 12.0), 10.9) > 0.0
        assert relative_improvement((10.0, 12.0), 11.1) < 0.0

    def test_zero_branch_mean_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            relative_improvement((0.0, 0.0), 0.0)


def _eval_setup(rng, num_classes=4):
    cfg = BranchedNetConfig(stage_blocks=(1, 1), stage_widths=(4, 8),
                            bottleneck=False, branch_after_block=1,
                            num_branches=2, num_classes=num_classes,
                            input_channels=3, input_height=8, input_width=8)
    net = build_branched_net(cfg, seed=31)
    data = generate_synthetic(SyntheticSpec(num_classes=num_classes,
                                            samples_per_class=6, image_size=8,
                                            noise_std=10.0), seed=5, split="test")
    augment = AugmentConfig(crop_height=8, crop_width=8,
                            channel_means=np.full(3, 110.0))
    return net, data, augment


class TestEvaluate:
    def test_identical_branch_weights_equal_errors_zero_improvement(self, rng):
        net, data, augment = _eval_setup(rng)
        params = net.params
        for name, tensor in list(params.items()):
            if name.startswith("branch0."):
                params[name.replace("branch0.", "branch1.")].data = tensor.data.copy()
        report = evaluate(net, data, batch_size=8, augment_config=augment)
        assert report.branch_top1[0] == report.branch_top1[1]
        assert report.ensemble_top1 == report.branch_top1[0]
        if report.relative_improvement is not None:
            assert abs(report.relative_improvement) < 1e-9

    def test_zero_error_reports_undefined_improvement(self, rng):
        net, data, augment = _eval_setup(rng)
        # force both branches to predict the true class of the single sample
        single = type(data)(images=data.images[:1], labels=data.labels[:1],
                            num_classes=data.num_classes, split="test")
        label = int(single.labels[0])
        for br in range(2):
            head_w = net.params[f"branch{br}.head.weight"]
            head_b = net.params[f"branch{br}.head.bias"]
            head_w.data = np.zeros_like(head_w.data)
            bias = np.zeros_like(head_b.data)
            bias[label] = 10.0
            head_b.data = bias
        report = evaluate(net, single, augment_config=augment)
        assert report.branch_top1 == (0.0, 0.0)
        assert report.ensemble_top1 == 0.0
        assert report.relative_improvement is None

    def test_report_matches_offline_recomputation_from_dumped_probs(self, rng):
        net, data, augment = _eval_setup(rng)
        report, probs = evaluate(net, data, batch_size=5, augment_config=augment,
                                 dump_probs=True)
        labels = data.labels
        for br in range(2):
            assert report.branch_top1[br] == topk_error_sorted(probs[br], labels, 1)
        mean_probs = (probs[0] + probs[1]) / 2
        assert report.ensemble_top1 == topk_error_sorted(mean_probs, labels, 1)
        k5 = min(5, data.num_classes)
        assert report.ensemble_top5 == topk_error_sorted(mean_probs, labels, k5)
        mean_branch = np.mean(report.branch_top1)
        if mean_branch > 0:
            want = 100.0 * (mean_branch - report.ensemble_top1) / mean_branch
            assert abs(report.relative_improvement - want) < 1e-12

    def test_feeds_the_network_the_rows_training_feeds_it(self, rng):
        # stds without means: evaluation must divide by them as training does
        net, data, _ = _eval_setup(rng)
        augment = AugmentConfig(enable_crop=False, enable_flip=False, enable_jitter=False,
                                enable_pca=False, enable_normalize=True,
                                channel_means=None, channel_stds=[2, 2, 2])
        fed = []
        forward = net.forward_all_branches

        def recording(batch, mode):
            fed.append(batch.data.copy())
            return forward(batch, mode=mode)

        net.forward_all_branches = recording
        n = len(data.images)
        cfg = TrainConfig(batch_size=n, total_epochs=1, base_lr=0.001, seed=3,
                          num_classes=data.num_classes)
        train(net, data, cfg, augment)
        evaluate(net, data, batch_size=n, augment_config=augment)
        train_rows, eval_rows = fed
        np.testing.assert_array_equal(train_rows, eval_rows[epoch_shuffle(n, 0, cfg.seed)])

    def test_deterministic_given_checkpointed_state(self, rng):
        net, data, augment = _eval_setup(rng)
        a = evaluate(net, data, batch_size=4, augment_config=augment)
        b = evaluate(net, data, batch_size=7, augment_config=augment)
        assert a == b  # batch partitioning must not change the report

    def test_top5_not_above_top1(self, rng):
        net, data, augment = _eval_setup(rng, num_classes=8)
        report = evaluate(net, data, augment_config=augment)
        for t1, t5 in zip(report.branch_top1, report.branch_top5):
            assert t5 <= t1
        assert report.ensemble_top5 <= report.ensemble_top1

    def test_csv_render_parses_back(self, rng):
        net, data, augment = _eval_setup(rng)
        report = evaluate(net, data, augment_config=augment)
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "predictor,top1_error_percent,top5_error_percent"
        b1 = lines[1].split(",")
        assert float(b1[1]) == report.branch_top1[0]
        ens = lines[3].split(",")
        assert float(ens[1]) == report.ensemble_top1
