"""Structure report (blocks, layers, parameters), builder determinism and
forward plumbing."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest

from branchnet import model
from branchnet.model import (BranchedNetConfig, build_branched_net, mini_config,
                             network_report, paper_scale_config)
from branchnet.tensor import Tape, Tensor

from layout import nhwc
from oracles import (assert_within_rounding, batch_norm_sequential, conv2d_gemm_chw,
                     unfused_eval_forward)


def tiny_config(**overrides):
    base = dict(stage_blocks=(1, 1), stage_widths=(8, 16), bottleneck=False,
                branch_after_block=1, num_branches=2, num_classes=10,
                input_channels=3, input_height=8, input_width=8)
    base.update(overrides)
    return BranchedNetConfig(**base)


class TestBlockCounts:
    def test_paper_scale_materializes_93(self):
        report = network_report(paper_scale_config())
        assert report.shared_blocks == 39
        assert report.per_branch_blocks == 27
        assert report.total_blocks_materialized == 93

    def test_no_sharing_boundary(self):
        cfg = dataclasses.replace(paper_scale_config(), branch_after_block=0)
        assert network_report(cfg).total_blocks_materialized == 132

    def test_full_sharing_boundary(self):
        cfg = dataclasses.replace(paper_scale_config(), branch_after_block=66)
        report = network_report(cfg)
        assert report.total_blocks_materialized == 66
        assert report.per_branch_blocks == 0

    def test_materialized_formula_over_grid(self):
        for b in range(0, 7):
            for kb in (1, 2, 3):
                cfg = mini_config(branch_after_block=b, num_branches=kb)
                report = network_report(cfg)
                assert report.total_blocks_materialized == b + kb * (6 - b)

    def test_branch_point_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="branch_after_block"):
            mini_config(branch_after_block=7)

    @pytest.mark.parametrize("field, values, message", [
        ("stage_widths", (4.5, 8), "stage_widths[0] must be an integer, got 4.5"),
        ("stage_widths", (4, 8.0), "stage_widths[1] must be an integer, got 8.0"),
        ("stage_blocks", (1, 1.5), "stage_blocks[1] must be an integer, got 1.5"),
        ("stage_blocks", (True, 1), "stage_blocks[0] must be an integer, got true"),
        ("stage_widths", ("4", 8), 'stage_widths[0] must be an integer, got "4"'),
    ], ids=["width-fraction", "width-float", "blocks-fraction", "blocks-bool", "width-str"])
    def test_non_integer_stage_entry_rejected(self, field, values, message):
        # int() used to truncate these: a 4.5 width built a width-4 net
        stages = {"stage_blocks": (1, 1), "stage_widths": (4, 8), field: values}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BranchedNetConfig(**stages, bottleneck=False, branch_after_block=1,
                              num_branches=2, num_classes=3)

    def test_numpy_integer_stage_entries_accepted(self):
        cfg = BranchedNetConfig(stage_blocks=np.array([1, 1]), stage_widths=(np.int64(4), 8),
                                bottleneck=False, branch_after_block=1,
                                num_branches=np.int64(2), num_classes=3)
        assert cfg.stage_widths == (4, 8) and type(cfg.stage_widths[0]) is int
        assert cfg.num_branches == 2 and type(cfg.num_branches) is int


class TestDepth:
    def test_paper_scale_199_convs_200_weighted(self):
        report = network_report(paper_scale_config())
        assert report.conv_layers == 199
        assert report.weighted_layers == 200

    def test_mini(self):
        report = network_report(mini_config())
        assert report.conv_layers == 1 + 2 * 6
        assert report.weighted_layers == 14


def state_digest(net) -> str:
    """sha256 over the name, dtype, shape and bytes of every state tensor, in order."""
    h = hashlib.sha256()
    for name, t in net.state().items():
        a = np.ascontiguousarray(t.data)
        h.update(f"{name}|{a.dtype.str}|{a.shape}\n".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def seed0_mini_forward():
    """(label, array) of the seed-0 mini net's forward pass on a fixed input,
    computed from the NCHW form of that input before activations became
    NHWC: the logits in eval then train mode, then the BN running buffers
    the train pass updated, per dtype."""
    x = nhwc(np.random.default_rng(0).standard_normal((2, 3, 32, 32)))
    for dtype in (np.float64, np.float32):
        net = build_branched_net(mini_config(), seed=0, dtype=dtype)
        batch = Tensor(x.astype(dtype))
        for mode in ("eval", "train"):
            for br, logits in enumerate(net.forward_all_branches(batch, mode=mode)):
                yield f"{mode}|{br}", logits.data
        for name, t in net.buffers.items():
            yield name, t.data


BOTTLENECK_POOL = BranchedNetConfig(
    stage_blocks=(1, 2), stage_widths=(4, 8), bottleneck=True,
    branch_after_block=1, num_branches=2, num_classes=5,
    input_height=16, input_width=16, stem_kernel=5, stem_stride=2, stem_pool=True)


class TestBuilder:
    # pins the seed-0 state that existing checkpoints were built from; any
    # change to names, order, dtypes or seed-stream draws shows here
    @pytest.mark.parametrize("config, dtype, digest", [
        (mini_config(), np.float64,
         "76eddedb6755c416d19bc4d22fe393ef8047559a0d2d5d9b88c82b75b9dcb9e8"),
        (mini_config(), np.float32,
         "6ea65b5db5b68a4bd0c669151dff2aae49dd5b8e1397323fa7422a6989611a22"),
        (BOTTLENECK_POOL, np.float64,
         "21d037350d0852edb3c9654b795040057d1365084bfba60f153076f37c63db10"),
    ])
    def test_same_seed_state_matches_golden_digest(self, config, dtype, digest):
        assert state_digest(build_branched_net(config, seed=0, dtype=dtype)) == digest

    # pins the seed-0 mini forward pass (seed0_mini_forward); re-recorded when
    # conv patch columns moved from (C, kh, kw) to (kh, kw, C) order, which
    # sums each conv output over K in another order, when batch norm's
    # channel sums became one BLAS product, which adds the train-mode
    # statistics in another order, and when eval mode folded batch norm
    # into the convs, which moves only the eval logits (each checked
    # against the old computation by the next three tests)
    def test_forward_matches_golden_digest(self):
        h = hashlib.sha256()
        for label, a in seed0_mini_forward():
            h.update(f"{label}|{a.dtype.str}|{a.shape}\n".encode())
            h.update(a.tobytes())
        assert h.hexdigest() == \
            "e96e6a32e84878405b7d06b6a222d7af46a25d6acaf12d5a5bc9829e8b9c1723"

    def test_forward_within_rounding_of_chw_column_order(self, monkeypatch):
        got = list(seed0_mini_forward())

        # bias: eval's folded BN; shortcut and relu: eval's residual add and relu
        def conv_chw(x, weight, bias=None, stride=1, pad=0, shortcut=None, relu=False):
            out = conv2d_gemm_chw(x.data, weight.data, stride=stride, pad=pad)
            out = out if bias is None else out + bias.data
            out = out if shortcut is None else out + shortcut.data
            return Tensor(np.maximum(out, 0.0) if relu else out)

        monkeypatch.setattr(model, "conv2d", conv_chw)
        assert_within_rounding(got, list(seed0_mini_forward()))

    def test_forward_within_rounding_of_sequential_batch_norm_sums(self, monkeypatch):
        got = list(seed0_mini_forward())

        # shortcut and relu: train mode's residual add and relu
        def bn_sequential(x, gamma, beta, running_mean, running_var, mode,
                          shortcut=None, relu=False):
            out = batch_norm_sequential(x.data, gamma.data, beta.data, running_mean.data,
                                        running_var.data, mode, epsilon=1e-5, momentum=0.9)
            out = out if shortcut is None else out + shortcut.data
            return Tensor(np.maximum(out, 0.0) if relu else out)

        monkeypatch.setattr(model, "batch_norm2d", bn_sequential)
        assert_within_rounding(got, list(seed0_mini_forward()))

    def test_forward_within_rounding_of_unfused_eval(self, monkeypatch):
        got = list(seed0_mini_forward())
        folded = model.BranchedNetwork.forward_all_branches

        def unfused(net, batch, mode="eval"):
            if mode != "eval":
                return folded(net, batch, mode)
            return [Tensor(z) for z in unfused_eval_forward(net, batch.data)]

        monkeypatch.setattr(model.BranchedNetwork, "forward_all_branches", unfused)
        want = list(seed0_mini_forward())
        assert_within_rounding(got, want)
        # folding moves the eval logits only: train logits and buffers keep their bits
        moved = {label for (label, a), (_, ref) in zip(got, want)
                 if a.tobytes() != ref.tobytes()}
        assert moved and all(label.startswith("eval|") for label in moved)

    def test_same_seed_bitwise_identical(self):
        a = build_branched_net(tiny_config(), seed=11)
        b = build_branched_net(tiny_config(), seed=11)
        pa, pb = a.params, b.params
        assert list(pa) == list(pb)
        for name in pa:
            np.testing.assert_array_equal(pa[name].data, pb[name].data)

    def test_branches_differ_under_one_seed(self):
        net = build_branched_net(tiny_config(), seed=11)
        params = net.params
        w0 = params["branch0.block02.conv1.weight"].data
        w1 = params["branch1.block02.conv1.weight"].data
        assert w0.shape == w1.shape
        assert not np.array_equal(w0, w1)

    def test_registry_matches_hand_enumerated_layer_list(self):
        # stages [1,1], widths [8,16], B=1, Kb=2: hand enumeration of every
        # parameter in build order
        expected = [
            ("stem.conv.weight", (8, 3, 3, 3)),
            ("stem.bn.gamma", (8,)), ("stem.bn.beta", (8,)),
            ("trunk.block01.conv1.weight", (8, 8, 3, 3)),
            ("trunk.block01.bn1.gamma", (8,)), ("trunk.block01.bn1.beta", (8,)),
            ("trunk.block01.conv2.weight", (8, 8, 3, 3)),
            ("trunk.block01.bn2.gamma", (8,)), ("trunk.block01.bn2.beta", (8,)),
        ]
        for br in range(2):
            expected += [
                (f"branch{br}.block02.conv1.weight", (16, 8, 3, 3)),
                (f"branch{br}.block02.bn1.gamma", (16,)),
                (f"branch{br}.block02.bn1.beta", (16,)),
                (f"branch{br}.block02.conv2.weight", (16, 16, 3, 3)),
                (f"branch{br}.block02.bn2.gamma", (16,)),
                (f"branch{br}.block02.bn2.beta", (16,)),
                (f"branch{br}.block02.proj.weight", (16, 8, 1, 1)),
                (f"branch{br}.block02.proj_bn.gamma", (16,)),
                (f"branch{br}.block02.proj_bn.beta", (16,)),
                (f"branch{br}.head.weight", (10, 16)),
                (f"branch{br}.head.bias", (10,)),
            ]
        net = build_branched_net(tiny_config(), seed=3)
        got = [(name, t.shape) for name, t in net.params.items()]
        assert got == expected

    def test_bn_init_and_zero_bias(self):
        net = build_branched_net(tiny_config(), seed=5)
        params = net.params
        np.testing.assert_array_equal(params["stem.bn.gamma"].data, np.ones(8))
        np.testing.assert_array_equal(params["stem.bn.beta"].data, np.zeros(8))
        np.testing.assert_array_equal(params["branch0.head.bias"].data, np.zeros(10))

    def test_b_zero_replicates_stem_per_branch(self):
        net = build_branched_net(tiny_config(branch_after_block=0), seed=5)
        params = net.params
        assert "stem.conv.weight" not in params
        assert "branch0.stem.conv.weight" in params
        assert "branch1.stem.conv.weight" in params

    def test_projection_exactly_where_shape_changes(self):
        cfg = mini_config()  # stages (2,2,2), B=4: projections at blocks 3 and 5
        net = build_branched_net(cfg, seed=1)
        got = sorted(name for name in net.params if name.endswith(".proj.weight"))
        assert got == ["branch0.block05.proj.weight", "branch1.block05.proj.weight",
                       "trunk.block03.proj.weight"]


class TestForward:
    def test_copying_branch_weights_equalizes_logits(self, rng):
        net = build_branched_net(tiny_config(), seed=9)
        params = net.params
        for name, tensor in params.items():
            if name.startswith("branch0."):
                params[name.replace("branch0.", "branch1.")].data = tensor.data.copy()
        for name, buf in net.buffers.items():
            if name.startswith("branch0."):
                net.buffers[name.replace("branch0.", "branch1.")].data = buf.data.copy()
        batch = Tensor(nhwc(rng.standard_normal((3, 3, 8, 8))))
        logits = net.forward_all_branches(batch, mode="eval")
        np.testing.assert_allclose(logits[0].data, logits[1].data, rtol=0, atol=1e-12)

    def test_single_branch_equals_sequential_stack(self, rng):
        # with one branch, moving the branch point only renames layers: the
        # same weights give bitwise-equal logits at every B
        def path_name(name):
            return name.removeprefix("trunk.").removeprefix("branch0.")

        reference = build_branched_net(tiny_config(branch_after_block=0, num_branches=1),
                                       seed=4)
        weights = {path_name(n): t.data for n, t in reference.state().items()}
        batch = Tensor(nhwc(rng.standard_normal((2, 3, 8, 8))))
        want = reference.forward_all_branches(batch, mode="eval")[0].data
        for b in (0, 1, 2):
            net = build_branched_net(tiny_config(branch_after_block=b, num_branches=1),
                                     seed=4 + b)
            assert {path_name(n) for n in net.state()} == set(weights)
            for name, t in net.state().items():
                t.data = weights[path_name(name)].copy()
            got = net.forward_all_branches(batch, mode="eval")[0].data
            np.testing.assert_array_equal(got, want, err_msg=f"B={b}")

    @pytest.mark.parametrize("kb", [1, 3])
    def test_trunk_evaluated_once_regardless_of_branch_count(self, rng, monkeypatch, kb):
        calls = []
        real_conv2d = model.conv2d

        def counting_conv2d(*args, **kwargs):
            calls.append(1)
            return real_conv2d(*args, **kwargs)

        monkeypatch.setattr(model, "conv2d", counting_conv2d)
        net = build_branched_net(tiny_config(num_branches=kb), seed=2)
        net.forward_all_branches(Tensor(nhwc(rng.standard_normal((2, 3, 8, 8)))), mode="eval")
        # stem + two trunk convs once; two convs + projection per branch
        assert len(calls) == 3 + 3 * kb

    def test_eval_writes_into_no_input_trunk_output_or_state(self, rng):
        # eval mode runs relu and residual adds in place, into conv outputs it
        # has just made; the stem reads the caller's batch, and every branch's
        # first block (here with an identity shortcut) the shared trunk output
        net = build_branched_net(mini_config(num_branches=4, branch_after_block=1,
                                             input_size=16), seed=6)
        batch = Tensor(rng.standard_normal((3, 16, 16, 3)))
        before = batch.data.tobytes(), state_digest(net)
        trunk_out = net.forward_trunk(batch, "eval")
        trunk_bytes = trunk_out.data.tobytes()
        logits = [net.forward_branch(br, trunk_out, "eval").data for br in range(4)]
        assert trunk_out.data.tobytes() == trunk_bytes
        assert (batch.data.tobytes(), state_digest(net)) == before
        for got, want in zip(logits, net.forward_all_branches(batch, mode="eval")):
            assert got.tobytes() == want.data.tobytes()

    def test_eval_records_no_conv_or_batch_norm(self, rng):
        net = build_branched_net(tiny_config(), seed=2)
        with Tape() as tape:
            net.forward_all_branches(Tensor(nhwc(rng.standard_normal((2, 3, 8, 8)))))
        # only the heads' linear layers, whose parameters need a gradient
        assert [node.op for node in tape.nodes] == ["linear", "linear"]

    def test_shape_mismatch_rejected(self, rng):
        net = build_branched_net(tiny_config(), seed=2)
        with pytest.raises(ValueError, match="input"):
            net.forward_all_branches(Tensor(nhwc(rng.standard_normal((2, 3, 9, 9)))))


class TestParameterCounts:
    def test_b_zero_ratio_exactly_one(self):
        report = network_report(mini_config(branch_after_block=0))
        assert report.sharing_ratio == 1.0

    def test_hand_counted_mini_variant(self):
        # stages [1,1], widths [8,16], basic, classes 10, B=1, Kb=2
        report = network_report(tiny_config())
        stem = 8 * 3 * 3 * 3 + 8 + 8
        block1 = (8 * 8 * 3 * 3 + 8 + 8) * 2
        block2 = (16 * 8 * 3 * 3 + 16 + 16) + (16 * 16 * 3 * 3 + 16 + 16) \
            + (16 * 8 * 1 * 1 + 16 + 16)
        head = 10 * 16 + 10
        assert report.stem_params == stem
        assert report.shared_params == block1
        assert report.per_branch_params == (block2, block2)
        assert report.head_params == (head, head)
        assert report.total_params == stem + block1 + 2 * (block2 + head)
        single = stem + block1 + block2 + head
        assert report.equivalent_independent_ensemble_params == 2 * single
        assert report.sharing_ratio == report.total_params / (2 * single)

    def test_report_totals_are_consistent(self):
        report = network_report(paper_scale_config())
        assert report.total_params == report.stem_params + report.shared_params \
            + sum(report.per_branch_params) + sum(report.head_params)

    def test_paper_scale_strictly_cheaper_than_independent_pair(self):
        report = network_report(paper_scale_config())
        assert report.total_params < report.equivalent_independent_ensemble_params
        assert report.sharing_ratio < 1.0

    def test_sharing_ratio_non_increasing_in_branch_point(self):
        cfg = paper_scale_config()
        ratios = [network_report(
            dataclasses.replace(cfg, branch_after_block=b)).sharing_ratio
            for b in range(0, cfg.total_blocks + 1)]
        assert ratios[0] == 1.0
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    @pytest.mark.parametrize("bottleneck", [False, True], ids=["basic", "bottleneck"])
    @pytest.mark.parametrize("b", [0, 1, 2])
    @pytest.mark.parametrize("kb", [1, 2, 3])
    def test_total_equals_built_parameter_sizes(self, bottleneck, b, kb):
        cfg = tiny_config(bottleneck=bottleneck, branch_after_block=b, num_branches=kb)
        net = build_branched_net(cfg, seed=0)
        assert network_report(cfg).total_params == sum(t.size for t in net.params.values())

    @pytest.mark.parametrize("cfg", [
        tiny_config(bottleneck=bottleneck, branch_after_block=b, num_branches=kb)
        for bottleneck in (False, True) for b in (0, 1, 2) for kb in (1, 2, 3)
    ] + [dataclasses.replace(paper_scale_config(), branch_after_block=b, num_branches=kb)
         for b in (0, 1, 39, 65, 66) for kb in (1, 2, 3)])
    def test_ensemble_is_k_single_branch_nets(self, cfg):
        single = dataclasses.replace(cfg, branch_after_block=cfg.total_blocks, num_branches=1)
        assert network_report(cfg).equivalent_independent_ensemble_params \
            == cfg.num_branches * network_report(single).total_params
