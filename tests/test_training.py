"""Loss exactness, optimizer recurrences, the schedule, and the epoch loop."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from branchnet import training
from branchnet.augment import (AugmentConfig, augment_batch, fit_augment_statistics,
                               fit_pca_basis)
from branchnet.data import (CheckpointError, SyntheticSpec, generate_synthetic,
                            save_checkpoint)
from branchnet.evaluation import evaluate
from branchnet.gradcheck import finite_diff_check
from branchnet.model import BranchedNetConfig, build_branched_net, mini_config
from branchnet.tensor import Tape, Tensor, reverse_pass, softmax_cross_entropy
from branchnet.training import (OptimizerState, TrainConfig, TrainingDivergedError,
                                combined_branch_loss, history_csv, lr_at_epoch,
                                restore_network, sgd_momentum_step,
                                smooth_label_matrix, smooth_labels, train)

from layout import nhwc


class TestSmoothLabels:
    def test_epsilon_zero_is_one_hot(self):
        np.testing.assert_array_equal(smooth_labels(2, 5, 0.0), [0, 0, 1, 0, 0])

    def test_k10_eps01(self):
        p = smooth_labels(0, 10, 0.1)
        np.testing.assert_allclose(p[0], 0.91, atol=1e-12)
        np.testing.assert_allclose(p[1:], 0.01, atol=1e-12)

    @pytest.mark.parametrize("k", [2, 10, 1000])
    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5])
    def test_matches_formula_and_sums_exactly(self, k, eps):
        y = k // 2
        p = smooth_labels(y, k, eps)
        assert abs(p[y] - (1.0 - eps + eps / k)) <= 1e-12
        off = np.delete(p, y)
        assert np.all(np.abs(off - eps / k) <= 1e-12)
        assert float(p.sum()) == 1.0

    @given(k=st.integers(2, 500), eps=st.floats(0.0, 1.0), frac=st.floats(0.0, 0.999))
    @example(k=249, eps=0.9999999999999999, frac=0.0)  # fold once sank the true class
    @settings(max_examples=100, deadline=None)
    def test_simplex_point_with_true_class_argmax(self, k, eps, frac):
        y = int(frac * k)
        p = smooth_labels(y, k, eps)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-12
        if eps < 1.0:
            assert int(p.argmax()) == y

    def test_out_of_range_class_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            smooth_labels(5, 5, 0.1)


class TestSmoothedCrossEntropy:
    """The smoothed cross entropy of one branch, through ``combined_branch_loss``."""

    def test_epsilon_zero_equals_nll(self, rng):
        logits = rng.standard_normal((4, 6))
        labels = rng.integers(0, 6, size=4)
        targets = smooth_label_matrix(labels, 6, 0.0)
        loss = combined_branch_loss([Tensor(logits)], targets)[0].item()
        z = logits - logits.max(axis=1, keepdims=True)
        log_q = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        nll = -log_q[np.arange(4), labels].mean()
        assert abs(loss - nll) < 1e-12

    def test_uniform_vs_uniform_is_ln2(self):
        logits = Tensor(np.zeros((1, 2)))
        targets = np.array([[0.5, 0.5]])
        loss = combined_branch_loss([logits], targets)[0].item()
        assert abs(loss - math.log(2.0)) < 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        logits = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        targets = smooth_label_matrix(rng.integers(0, 5, size=3), 5, 0.1)
        report = finite_diff_check(lambda: combined_branch_loss([logits], targets)[0],
                                   [logits], tolerance=1e-6)
        assert report.passed, report.summary()

    def test_gradient_is_q_minus_p_over_n(self, rng):
        logits = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        targets = smooth_label_matrix(rng.integers(0, 3, size=4), 3, 0.2)
        with Tape() as tape:
            loss, _ = combined_branch_loss([logits], targets)
        reverse_pass(tape, loss)
        z = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        q = z / z.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(logits.grad, (q - targets) / 4, atol=1e-12)

    def test_non_normalized_targets_rejected(self, rng):
        logits = Tensor(rng.standard_normal((2, 3)))
        bad = np.array([[0.5, 0.5, 0.5], [0.4, 0.3, 0.3]])
        with pytest.raises(ValueError, match="sums to"):
            combined_branch_loss([logits], bad)

    @pytest.mark.parametrize("row", [[np.nan, 1.0], [2.0, -1.0]], ids=["nan", "negative"])
    def test_negative_or_nan_target_rejected(self, row):
        # neither row trips the sum rule: NaN compares False, and 2 - 1 sums to 1
        targets = np.array([[0.5, 0.5], row])
        with pytest.raises(ValueError, match="target row 1 has a negative or NaN entry"):
            combined_branch_loss([Tensor(np.zeros((2, 2)))], targets)

    def test_minimized_at_target_distribution(self, rng):
        # perturbing q away from p never decreases the loss
        p = np.array([[0.6, 0.3, 0.1]])
        base_logits = np.log(p)
        base = combined_branch_loss([Tensor(base_logits)], p)[0].item()
        for _ in range(25):
            perturbed = combined_branch_loss(
                [Tensor(base_logits + rng.standard_normal((1, 3)) * 0.5)], p)[0].item()
            assert perturbed >= base - 1e-12


class TestCombinedBranchLoss:
    def test_single_branch_reduces_to_plain_loss(self, rng):
        logits = Tensor(rng.standard_normal((3, 4)))
        targets = smooth_label_matrix([0, 1, 2], 4, 0.1)
        combined = combined_branch_loss([logits], targets)[0].item()
        single = softmax_cross_entropy(Tensor(logits.data), targets).item()
        assert combined == single

    def test_identical_branches_mean_of_equals(self, rng):
        logits = rng.standard_normal((3, 4))
        targets = smooth_label_matrix([0, 1, 2], 4, 0.1)
        combined = combined_branch_loss(
            [Tensor(logits), Tensor(logits.copy())], targets)[0].item()
        single = softmax_cross_entropy(Tensor(logits), targets).item()
        assert abs(combined - single) < 1e-15

    def test_trunk_gradient_is_mean_of_single_branch_passes(self, rng):
        # two-pass decomposition oracle: backward through the full two-branch
        # net, then through each branch alone; the trunk gradient of the
        # combined loss must equal the average of the single-branch gradients
        cfg = BranchedNetConfig(stage_blocks=(1, 1), stage_widths=(4, 8),
                                bottleneck=False, branch_after_block=1,
                                num_branches=2, num_classes=3,
                                input_channels=3, input_height=8, input_width=8)
        net = build_branched_net(cfg, seed=5)
        batch = Tensor(nhwc(rng.standard_normal((4, 3, 8, 8))))
        targets = smooth_label_matrix(rng.integers(0, 3, size=4), 3, 0.1)
        trunk_names = [n for n in net.params
                       if n.startswith(("stem.", "trunk."))]

        def run(branches):
            # running-stat updates do not affect train-mode outputs, so the
            # three passes see identical forward computations
            net.zero_grad()
            with Tape() as tape:
                trunk_out = net.forward_trunk(batch, "train")
                logits = [net.forward_branch(br, trunk_out, "train") for br in branches]
                loss, _ = combined_branch_loss(logits, targets)
            reverse_pass(tape, loss)
            params = net.params
            return {n: params[n].grad.copy() for n in trunk_names}

        both = run([0, 1])
        only0 = run([0])
        only1 = run([1])
        for name in trunk_names:
            np.testing.assert_allclose(both[name], (only0[name] + only1[name]) / 2,
                                       atol=1e-10)

    def test_empty_branch_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            combined_branch_loss([], np.zeros((1, 2)))


class TestSgdMomentumStep:
    def _step(self, params, state, lr, mu, wd):
        sgd_momentum_step(params, state, lr, mu, wd)

    def test_lr_zero_keeps_params_updates_velocity(self):
        p = {"w": Tensor(np.array([1.0]))}
        p["w"].grad = np.array([2.0])
        state = OptimizerState(p)
        self._step(p, state, lr=0.0, mu=0.5, wd=0.0)
        np.testing.assert_array_equal(p["w"].data, [1.0])
        np.testing.assert_array_equal(state.velocities["w"], [2.0])

    def test_vanilla_step(self):
        p = {"w": Tensor(np.array([3.0]))}
        p["w"].grad = np.array([0.5])
        state = OptimizerState(p)
        self._step(p, state, lr=0.1, mu=0.0, wd=0.0)
        np.testing.assert_allclose(p["w"].data, [3.0 - 0.1 * 0.5])

    def test_hand_recurrence_two_steps(self):
        # theta0=1, g=1 both steps, mu=0.9, lr=0.1:
        # v1=1, theta1=0.9; v2=1.9, theta2=0.71
        p = {"w": Tensor(np.array([1.0]))}
        state = OptimizerState(p)
        p["w"].grad = np.array([1.0])
        self._step(p, state, lr=0.1, mu=0.9, wd=0.0)
        np.testing.assert_allclose(state.velocities["w"], [1.0], atol=1e-15)
        np.testing.assert_allclose(p["w"].data, [0.9], atol=1e-15)
        p["w"].grad = np.array([1.0])
        self._step(p, state, lr=0.1, mu=0.9, wd=0.0)
        np.testing.assert_allclose(state.velocities["w"], [1.9], atol=1e-15)
        np.testing.assert_allclose(p["w"].data, [0.71], atol=1e-15)

    def test_decay_folded_into_gradient(self):
        p = {"w": Tensor(np.array([2.0]))}
        p["w"].grad = np.array([0.0])
        state = OptimizerState(p)
        self._step(p, state, lr=0.1, mu=0.0, wd=0.01)
        np.testing.assert_allclose(p["w"].data, [2.0 - 0.1 * 0.01 * 2.0])

    @pytest.mark.parametrize("name", ["stem.bn.gamma", "block.bn1.beta", "head.bias"])
    def test_decay_exempt_params_fixed_under_zero_gradient(self, name):
        p = {name: Tensor(np.array([1.5]))}
        p[name].grad = np.array([0.0])
        state = OptimizerState(p)
        self._step(p, state, lr=0.1, mu=0.9, wd=0.1)
        np.testing.assert_array_equal(p[name].data, [1.5])

    def test_weights_do_decay_under_zero_gradient(self):
        p = {"conv.weight": Tensor(np.array([1.5]))}
        p["conv.weight"].grad = np.array([0.0])
        state = OptimizerState(p)
        self._step(p, state, lr=0.1, mu=0.0, wd=0.1)
        assert p["conv.weight"].data[0] < 1.5

    def test_shape_mismatch_rejected(self):
        p = {"w": Tensor(np.ones(3))}
        p["w"].grad = np.ones(4)
        state = OptimizerState(p)
        with pytest.raises(ValueError, match="shape"):
            sgd_momentum_step(p, state, 0.1, 0.9, 0.0)


class TestLrSchedule:
    def test_table_values_exact(self):
        cfg = TrainConfig()
        assert lr_at_epoch(cfg, 0) == 0.05
        assert lr_at_epoch(cfg, 30) == 0.005
        assert lr_at_epoch(cfg, 60) == 0.0005
        assert lr_at_epoch(cfg, 90) == 0.00005

    def test_floor_boundary(self):
        cfg = TrainConfig()
        assert lr_at_epoch(cfg, 29) == 0.05
        assert lr_at_epoch(cfg, 31) == 0.005

    def test_non_increasing(self):
        cfg = TrainConfig()
        rates = [lr_at_epoch(cfg, e) for e in range(0, 120)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


def _loop_setup(epsilon=0.1, epochs=3, seed=3, noise=8.0):
    model_cfg = BranchedNetConfig(
        stage_blocks=(1, 1), stage_widths=(4, 8), bottleneck=False,
        branch_after_block=1, num_branches=2, num_classes=4,
        input_channels=3, input_height=8, input_width=8)
    data = generate_synthetic(
        SyntheticSpec(num_classes=4, samples_per_class=12, image_size=8,
                      noise_std=noise), seed=99, split="train")
    train_cfg = TrainConfig(batch_size=16, total_epochs=epochs, base_lr=0.02,
                            weight_decay=1e-4, smoothing_epsilon=epsilon,
                            seed=seed, num_classes=4)
    augment = AugmentConfig(crop_height=8, crop_width=8, enable_crop=False,
                            enable_flip=True, enable_jitter=False,
                            enable_pca=False,
                            channel_means=np.full(3, 110.0))
    net = build_branched_net(model_cfg, seed=seed)
    return net, data, train_cfg, augment


class TestTrainLoop:
    def test_zero_epochs_checkpoint_equals_initialization(self):
        net, data, cfg, augment = _loop_setup(epochs=0)
        before = {n: t.data.copy() for n, t in net.params.items()}
        checkpoint, history = train(net, data, cfg, augment)
        assert history.epochs == []
        for name, arr in before.items():
            np.testing.assert_array_equal(checkpoint.tensors[f"model/{name}"], arr)

    @pytest.mark.parametrize("start_epoch", [2, -1])
    def test_start_epoch_outside_the_run_rejected(self, start_epoch):
        # start 2 of 1 used to run nothing and label epoch-2 weights epoch 1
        net, data, cfg, augment = _loop_setup(epochs=1)
        with pytest.raises(ValueError, match=r"start_epoch must be in \[0, total_epochs = 1\], "
                                             f"got {start_epoch}"):
            train(net, data, cfg, augment, start_epoch=start_epoch)

    def test_start_at_the_last_epoch_runs_nothing(self):
        net, data, cfg, augment = _loop_setup(epochs=1)
        checkpoint, history = train(net, data, cfg, augment, start_epoch=1)
        assert history.epochs == [] and checkpoint.epoch == 1

    def test_loss_decreases_on_separable_data(self):
        net, data, cfg, augment = _loop_setup(epochs=10, noise=2.0)
        _, history = train(net, data, cfg, augment)
        first = np.mean(history.epochs[0].branch_losses)
        last = np.mean(history.epochs[-1].branch_losses)
        assert last < first

    def test_bitwise_determinism_across_runs(self):
        net1, data, cfg, augment = _loop_setup(epochs=2)
        ck1, h1 = train(net1, data, cfg, augment)
        net2, data2, cfg2, augment2 = _loop_setup(epochs=2)
        ck2, h2 = train(net2, data2, cfg2, augment2)
        assert history_csv(h1, 2) == history_csv(h2, 2)
        assert set(ck1.tensors) == set(ck2.tensors)
        for name in ck1.tensors:
            np.testing.assert_array_equal(ck1.tensors[name], ck2.tensors[name])

    def test_augmented_row_independent_of_batch_composition_and_order(self):
        data = generate_synthetic(
            SyntheticSpec(num_classes=4, samples_per_class=4, image_size=12,
                          noise_std=8.0), seed=5, split="train")
        augment = AugmentConfig(crop_height=8, crop_width=8,
                                channel_means=np.full(3, 110.0),
                                pca_basis=fit_pca_basis(data.images))

        def rows(indices):
            return augment_batch(data.images[indices], augment, 9, 2, indices, np.float64)

        batch = rows([3, 7, 11, 15])
        reversed_batch = rows([15, 11, 7, 3])
        other_batch = rows([0, 7, 1])
        assert batch.shape == (4, 8, 8, 3)
        np.testing.assert_array_equal(batch[1], reversed_batch[2])
        np.testing.assert_array_equal(batch[1], other_batch[1])
        np.testing.assert_array_equal(batch[::-1], reversed_batch)
        assert not np.array_equal(batch[0], batch[1])

    def test_seed_outside_uint64_rejected(self):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\), "
                                             r"got 18446744073709551616"):
            TrainConfig(seed=2**64)
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            TrainConfig(seed=-1)

    def test_largest_seed_trains_deterministically(self):
        net, data, cfg, augment = _loop_setup(epochs=1, seed=2**64 - 1)
        _, history = train(net, data, cfg, augment)
        net2, data2, cfg2, augment2 = _loop_setup(epochs=1, seed=2**64 - 1)
        _, history2 = train(net2, data2, cfg2, augment2)
        assert history_csv(history, 2) == history_csv(history2, 2)
        assert np.all(np.isfinite(history.epochs[0].branch_losses))

    def test_history_one_record_per_epoch_with_schedule(self):
        net, data, cfg, augment = _loop_setup(epochs=3)
        _, history = train(net, data, cfg, augment)
        assert [r.epoch for r in history.epochs] == [0, 1, 2]
        assert all(r.lr == lr_at_epoch(cfg, r.epoch) for r in history.epochs)
        assert all(len(r.branch_losses) == 2 for r in history.epochs)

    def test_mismatched_num_classes_rejected(self):
        net, data, cfg, augment = _loop_setup()
        cfg.num_classes = 7
        with pytest.raises(ValueError, match="num_classes"):
            train(net, data, cfg, augment)

    def test_loss_decreases_on_200_separable_samples(self):
        model_cfg = BranchedNetConfig(
            stage_blocks=(1, 1), stage_widths=(4, 8), bottleneck=False,
            branch_after_block=1, num_branches=2, num_classes=4,
            input_channels=3, input_height=8, input_width=8)
        data = generate_synthetic(
            SyntheticSpec(num_classes=4, samples_per_class=50, image_size=8,
                          noise_std=2.0), seed=42, split="train")
        assert len(data) == 200
        cfg = TrainConfig(batch_size=32, total_epochs=10, base_lr=0.02,
                          smoothing_epsilon=0.1, seed=1, num_classes=4)
        augment = AugmentConfig(crop_height=8, crop_width=8, enable_crop=False,
                                enable_jitter=False, enable_pca=False,
                                channel_means=np.full(3, 110.0))
        net = build_branched_net(model_cfg, seed=1)
        _, history = train(net, data, cfg, augment)
        assert np.mean(history.epochs[-1].branch_losses) \
            < np.mean(history.epochs[0].branch_losses)

    def test_non_finite_forward_aborts_with_diagnostics(self):
        net, data, cfg, augment = _loop_setup(epochs=1)
        bias = net.params["branch0.head.bias"]
        bias.data[0] = np.nan  # what real divergence looks like mid-run
        with pytest.raises(TrainingDivergedError, match="epoch 0"):
            train(net, data, cfg, augment)

    def test_other_value_error_mentioning_non_finite_is_not_divergence(self, monkeypatch):
        # divergence is recognised by exception type, not by message text
        net, data, cfg, augment = _loop_setup(epochs=1)

        def bad_targets(*args, **kwargs):
            raise ValueError("non-finite entries in the smoothed target rows")

        monkeypatch.setattr(training, "combined_branch_loss", bad_targets)
        with pytest.raises(ValueError, match="target rows") as info:
            train(net, data, cfg, augment)
        assert not isinstance(info.value, TrainingDivergedError)


class TestRestoreNetwork:
    @pytest.fixture(scope="class")
    def checkpoint(self):
        net, data, cfg, augment = _loop_setup(epochs=1)
        checkpoint, _ = train(net, data, cfg, augment)
        return checkpoint

    @staticmethod
    def with_tensors(checkpoint, tensors):
        return dataclasses.replace(checkpoint, tensors=tensors)

    def test_round_trip_restores_every_tensor(self, checkpoint):
        net, state = restore_network(checkpoint)
        for name, t in net.state().items():
            np.testing.assert_array_equal(t.data, checkpoint.tensors[f"model/{name}"])
        for name, v in state.velocities.items():
            np.testing.assert_array_equal(v, checkpoint.tensors[f"optimizer/{name}"])

    @pytest.mark.parametrize("key", ["optimizer/trunk.block01.conv1.weight",
                                     "model/branch1.head.bias",
                                     "model/stem.bn.running_var"])
    def test_missing_tensor_rejected(self, checkpoint, key):
        tensors = {k: v for k, v in checkpoint.tensors.items() if k != key}
        with pytest.raises(CheckpointError, match=f"missing tensor '{key}'"):
            restore_network(self.with_tensors(checkpoint, tensors))

    @pytest.mark.parametrize("key", ["model/branch2.head.bias",
                                     "optimizer/trunk.block01.conv3.weight",
                                     "junk/x", "augment/channel_means", "stem.conv.weight"])
    def test_tensor_not_in_registry_rejected(self, checkpoint, key):
        tensors = {**checkpoint.tensors, key: np.zeros(4)}
        with pytest.raises(CheckpointError, match=f"'{key}' is not in the model registry"):
            restore_network(self.with_tensors(checkpoint, tensors))

    @pytest.mark.parametrize("key", ["model/branch0.head.weight",
                                     "optimizer/branch0.head.weight"])
    def test_shape_mismatch_rejected(self, checkpoint, key):
        tensors = {**checkpoint.tensors, key: checkpoint.tensors[key][:, :-1]}
        with pytest.raises(CheckpointError, match=f"'{key}' has shape"):
            restore_network(self.with_tensors(checkpoint, tensors))

    @pytest.mark.parametrize("key", ["model/trunk.block01.conv1.weight",
                                     "optimizer/branch1.head.bias"])
    def test_dtype_mismatch_rejected(self, checkpoint, key):
        tensors = {**checkpoint.tensors, key: checkpoint.tensors[key].astype(np.float32)}
        with pytest.raises(CheckpointError, match=f"'{key}' has shape .* dtype float32"):
            restore_network(self.with_tensors(checkpoint, tensors))

    def test_float32_net_and_its_restore_report_float32(self):
        net, data, cfg, augment = _loop_setup(epochs=1)
        net32 = build_branched_net(net.config, seed=cfg.seed, dtype=np.float32)
        checkpoint, _ = train(net32, data, cfg, augment)
        restored, state = restore_network(checkpoint)
        assert net32.dtype == restored.dtype == np.float32
        assert {t.dtype for t in restored.state().values()} == {np.dtype(np.float32)}
        assert {v.dtype for v in state.velocities.values()} == {np.dtype(np.float32)}


class TestHistoryCsv:
    def test_columns_and_roundtrip(self):
        net, data, cfg, augment = _loop_setup(epochs=2)
        _, history = train(net, data, cfg, augment)
        text = history_csv(history, 2)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,lr,loss_branch_1,loss_branch_2"
        row = lines[1].split(",")
        assert float(row[1]) == history.epochs[0].lr
        assert float(row[2]) == history.epochs[0].branch_losses[0]


class TestTrainingAfterEvaluate:
    """Evaluation folds batch norm into the convs and writes relu and the
    residual adds in place, but only into buffers it made itself, so
    training right after it ends in the same bytes. This is the eval
    benchmark's cycle: restore a checkpoint, evaluate, train on."""

    # sha256 of history.csv then final.ckpt under the keyed flip and shuffle
    # draws, recorded once the evaluate-first run equalled the train-only one
    DIGEST = "9d8ab0619144a834760fc36a6b03aa90902853acc4e8c7d7112af37407e7115f"

    @staticmethod
    def _history_and_checkpoint(tmp_path, evaluate_first: bool) -> str:
        config = mini_config(num_branches=4, branch_after_block=2)
        train_set = generate_synthetic(SyntheticSpec(samples_per_class=1), seed=5,
                                       split="train")
        test_set = generate_synthetic(SyntheticSpec(samples_per_class=2), seed=6,
                                      split="test")
        augment = fit_augment_statistics(
            AugmentConfig(enable_crop=False, enable_jitter=False, enable_pca=False),
            train_set.images)
        start, _ = train(build_branched_net(config, seed=5), train_set,
                         TrainConfig(batch_size=10, total_epochs=0, seed=5), augment)
        net, state = restore_network(start)
        if evaluate_first:
            evaluate(net, test_set, augment_config=augment)
        checkpoint, history = train(net, train_set,
                                    TrainConfig(batch_size=10, total_epochs=2, seed=5),
                                    augment, optimizer_state=state)
        path = tmp_path / f"final-{evaluate_first}.ckpt"
        save_checkpoint(path, checkpoint)
        h = hashlib.sha256(history_csv(history, config.num_branches).encode())
        h.update(path.read_bytes())
        return h.hexdigest()

    def test_history_and_checkpoint_bytes_unchanged(self, tmp_path):
        digest = self._history_and_checkpoint(tmp_path, evaluate_first=True)
        assert digest == self._history_and_checkpoint(tmp_path, evaluate_first=False)
        assert digest == self.DIGEST
