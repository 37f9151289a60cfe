"""End-to-end command coverage: train, eval, inspect, compare, augment-preview."""

import hashlib
import json

import numpy as np
import pytest

from branchnet import tensor
from branchnet.cli import main
from branchnet.data import read_ppm, write_ppm

from bounds import SECTIONS, rejected_cases


def _bound_overrides():
    """A ``--set`` outside each declared bound, and the start of its message,
    which names the section and the config key that was set."""
    for case in rejected_cases(SECTIONS):
        cls, name, value, label = case.values
        yield pytest.param(f"{SECTIONS[cls]}.{name}={json.dumps(value)}",
                           f"section '{SECTIONS[cls]}': {label} must be",
                           id=f"{SECTIONS[cls]}.{name}={value!r}")


def experiment_dict(out_dir, epochs=1):
    return {
        "model": {
            "stage_blocks": [1, 1], "stage_widths": [4, 8], "bottleneck": False,
            "branch_after_block": 1, "num_branches": 2, "num_classes": 3,
            "input_channels": 3, "input_height": 8, "input_width": 8,
        },
        "train": {
            "batch_size": 8, "total_epochs": epochs, "base_lr": 0.02,
            "weight_decay": 0.0001, "momentum": 0.9, "smoothing_epsilon": 0.1,
            "seed": 7,
        },
        "augment": {
            "crop_height": 8, "crop_width": 8, "enable_crop": False,
            "enable_flip": True, "enable_jitter": False, "enable_pca": False,
        },
        "data": {
            "kind": "synthetic", "num_classes": 3, "train_samples_per_class": 8,
            "test_samples_per_class": 4, "image_size": 8, "noise_std": 6.0,
            "seed": 91,
        },
        "output": {"dir": str(out_dir)},
    }


def cifar10_experiment_dict(tmp_path, epochs=1):
    """The experiment above on 32x32 inputs, reading a 6-image training batch
    and a 4-image test batch of random CIFAR-10 records written under ``tmp_path``."""
    rng = np.random.default_rng(5)
    bins = tmp_path / "bins"
    bins.mkdir()
    for name, count in (("data_batch_1.bin", 6), ("test_batch.bin", 4)):
        records = rng.integers(0, 256, size=(count, 3073), dtype=np.uint8)
        records[:, 0] = rng.integers(0, 10, size=count)
        (bins / name).write_bytes(records.tobytes())
    cfg = experiment_dict(tmp_path / "runs", epochs)
    cfg["model"].update(num_classes=10, input_height=32, input_width=32)
    cfg["augment"].update(crop_height=32, crop_width=32)
    cfg["data"] = {"kind": "cifar10", "dir": str(bins),
                   "train_files": ["data_batch_1.bin"], "test_files": ["test_batch.bin"]}
    return cfg


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(experiment_dict(tmp_path / "runs")))
    return path


def run_dirs(tmp_path):
    return sorted((tmp_path / "runs").iterdir())


class TestTrainCommand:
    def test_one_epoch_run_produces_outputs(self, tmp_path, config_file, capsys):
        assert main(["train", "--config", str(config_file)]) == 0
        (run_dir,) = run_dirs(tmp_path)
        history = (run_dir / "history.csv").read_text().strip().split("\n")
        assert history[0] == "epoch,lr,loss_branch_1,loss_branch_2"
        assert len(history) == 2  # header + 1 epoch
        assert (run_dir / "final.ckpt").is_file()
        assert (run_dir / "report.csv").is_file()
        assert "relative improvement" in capsys.readouterr().out

    def test_set_override_epochs(self, tmp_path, config_file):
        assert main(["train", "--config", str(config_file),
                     "--set", "train.total_epochs=2"]) == 0
        (run_dir,) = run_dirs(tmp_path)
        history = (run_dir / "history.csv").read_text().strip().split("\n")
        assert len(history) == 3

    def test_missing_config_nonzero_no_outputs(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2
        assert not (tmp_path / "runs").exists()
        assert "not found" in capsys.readouterr().err

    def test_unknown_key_rejected_before_any_output(self, tmp_path, config_file, capsys):
        raw = json.loads(config_file.read_text())
        raw["train"]["learning_rate"] = 0.1  # typo for base_lr
        config_file.write_text(json.dumps(raw))
        assert main(["train", "--config", str(config_file)]) == 2
        assert "learning_rate" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_identical_runs_identical_history_bytes(self, tmp_path, config_file):
        assert main(["train", "--config", str(config_file)]) == 0
        assert main(["train", "--config", str(config_file)]) == 0
        first, second = run_dirs(tmp_path)
        assert (first / "history.csv").read_bytes() == (second / "history.csv").read_bytes()
        assert (first / "final.ckpt").read_bytes() == (second / "final.ckpt").read_bytes()

    def test_fast_precision_runs(self, tmp_path, config_file):
        assert main(["train", "--config", str(config_file),
                     "--precision", "fast"]) == 0
        (run_dir,) = run_dirs(tmp_path)
        assert (run_dir / "final.ckpt").is_file()

    def test_diverged_training_exits_nonzero(self, tmp_path, config_file,
                                             monkeypatch, capsys):
        from branchnet import cli
        from branchnet.training import TrainingDivergedError

        def boom(*args, **kwargs):
            raise TrainingDivergedError("non-finite loss at epoch 0, batch 1")

        monkeypatch.setattr(cli, "train", boom)
        assert main(["train", "--config", str(config_file)]) == 1
        assert "non-finite" in capsys.readouterr().err


class TestEvalCommand:
    def test_eval_after_train_matches_train_report(self, tmp_path, config_file, capsys):
        assert main(["train", "--config", str(config_file)]) == 0
        (run_dir,) = run_dirs(tmp_path)
        train_report = (run_dir / "report.csv").read_text()
        capsys.readouterr()
        assert main(["eval", "--config", str(config_file),
                     "--checkpoint", str(run_dir / "final.ckpt")]) == 0
        assert (run_dir / "eval_report.csv").read_text() == train_report
        assert "ensemble" in capsys.readouterr().out

    def test_no_probability_files_without_dump_probs(self, tmp_path, config_file):
        assert main(["train", "--config", str(config_file)]) == 0
        (run_dir,) = run_dirs(tmp_path)
        assert main(["eval", "--config", str(config_file),
                     "--checkpoint", str(run_dir / "final.ckpt"),
                     "--out", str(tmp_path / "eval")]) == 0
        assert sorted(p.name for p in (tmp_path / "eval").iterdir()) == ["eval_report.csv"]

    def test_dump_probs_supports_offline_recomputation(self, tmp_path, config_file,
                                                       capsys):
        assert main(["train", "--config", str(config_file)]) == 0
        (run_dir,) = run_dirs(tmp_path)
        capsys.readouterr()
        assert main(["eval", "--config", str(config_file),
                     "--checkpoint", str(run_dir / "final.ckpt"),
                     "--dump-probs", "--out", str(tmp_path / "dump")]) == 0
        report = (tmp_path / "dump" / "eval_report.csv").read_text()
        probs = []
        for br in (1, 2):
            lines = (tmp_path / "dump" / f"probs_branch_{br}.csv") \
                .read_text().strip().split("\n")
            probs.append(np.array([[float(v) for v in row.split(",")]
                                   for row in lines[1:]]))
        # recompute the ensemble top-1 error offline from the dumped matrices
        from oracles import topk_error_sorted
        from branchnet.cli import load_experiment
        test_set = load_experiment(config_file, []).data.load("test")
        ens = (probs[0] + probs[1]) / 2
        recomputed = topk_error_sorted(ens, test_set.labels, 1)
        reported = float(report.strip().split("\n")[3].split(",")[1])
        assert recomputed == reported

    def test_eval_builds_only_the_test_split(self, tmp_path, config_file, monkeypatch):
        from branchnet import data
        assert main(["train", "--config", str(config_file)]) == 0
        (run_dir,) = run_dirs(tmp_path)
        splits = []
        generate = data.generate_synthetic

        def recording(spec, seed, split=""):
            splits.append(split)
            return generate(spec, seed, split=split)

        monkeypatch.setattr(data, "generate_synthetic", recording)
        assert main(["eval", "--config", str(config_file),
                     "--checkpoint", str(run_dir / "final.ckpt")]) == 0
        assert splits == ["test"]

    def test_architecture_mismatch_names_field(self, tmp_path, config_file, capsys):
        assert main(["train", "--config", str(config_file)]) == 0
        (run_dir,) = run_dirs(tmp_path)
        assert main(["eval", "--config", str(config_file),
                     "--set", "model.num_classes=4",
                     "--set", "data.num_classes=4",
                     "--checkpoint", str(run_dir / "final.ckpt")]) == 2
        assert "num_classes" in capsys.readouterr().err


def paper_config_file(tmp_path):
    """The experiment above with the paper preset as its model section."""
    cfg = experiment_dict(tmp_path / "runs")
    cfg["model"] = {
        "stage_blocks": [3, 24, 36, 3], "stage_widths": [64, 128, 256, 512],
        "bottleneck": True, "branch_after_block": 39, "num_branches": 2,
        "num_classes": 1000, "input_channels": 3, "input_height": 224,
        "input_width": 224, "stem_kernel": 7, "stem_stride": 2,
        "stem_pool": True,
    }
    cfg["train"]["num_classes"] = cfg["data"]["num_classes"] = 1000
    path = tmp_path / "paper.json"
    path.write_text(json.dumps(cfg))
    return path


class TestInspectCommand:
    def test_paper_scale_topology(self, tmp_path, capsys):
        path = paper_config_file(tmp_path)
        assert main(["inspect", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "materialized 93" in out
        assert "weighted layers: 200" in out
        assert "conv layers (single path): 199" in out

    def test_b_zero_ratio_one(self, tmp_path, config_file, capsys):
        assert main(["inspect", "--config", str(config_file),
                     "--set", "model.branch_after_block=0"]) == 0
        assert "sharing ratio: 1.000000" in capsys.readouterr().out

    def test_counts_equal_module_level_api(self, tmp_path, config_file, capsys):
        from branchnet.cli import load_experiment
        from branchnet.model import network_report
        assert main(["inspect", "--config", str(config_file)]) == 0
        out = capsys.readouterr().out
        cfg = load_experiment(config_file, [])
        report = network_report(cfg.model)
        assert f"total parameters: {report.total_params:,}" in out


class TestCompareCommand:
    def test_endpoints_and_monotonic_ratio(self, tmp_path, config_file, capsys):
        assert main(["compare", "--config", str(config_file)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "branch_after_block,total_params,sharing_ratio,materialized_blocks"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 3  # B in {0, 1, 2} for a 2-block net
        ratios = [float(r[2]) for r in rows]
        assert ratios[0] == 1.0
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == min(ratios)

    def test_explicit_sweep_consistent_with_inspect(self, tmp_path, config_file, capsys):
        assert main(["compare", "--config", str(config_file),
                     "--branch-points", "1"]) == 0
        compare_out = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert main(["inspect", "--config", str(config_file)]) == 0
        inspect_out = capsys.readouterr().out
        assert f"total parameters: {int(compare_out[1]):,}" in inspect_out
        assert f"materialized {compare_out[3]}" in inspect_out

    def test_non_integer_branch_point_is_a_config_error(self, config_file, capsys):
        assert main(["compare", "--config", str(config_file),
                     "--branch-points", "1,x"]) == 2
        err = capsys.readouterr().err
        assert "--branch-points" in err and "'x'" in err

    def test_out_writes_csv(self, tmp_path, config_file, capsys):
        assert main(["compare", "--config", str(config_file),
                     "--out", str(tmp_path / "sweep")]) == 0
        text = (tmp_path / "sweep" / "compare.csv").read_text()
        assert text == capsys.readouterr().out


_B0_K3 = ["--set", "model.branch_after_block=0", "--set", "model.num_branches=3"]
_SWEEP = ["--branch-points", "0,1,13,39,65,66"]


class TestStructureOutput:
    """The full stdout of ``inspect`` and ``compare`` on the paper preset and
    on a B = 0, K = 3 variant, pinned so that a change to the structure
    accounting cannot move a count or a digit unseen."""

    @pytest.mark.parametrize("args, expected", [
        (["inspect"], """\
stages: [3, 24, 36, 3] x widths [64, 128, 256, 512]  (bottleneck blocks)
branch point: after block 39 of 66; branches: 2
blocks: shared 39, per-branch 27, materialized 93
conv layers (single path): 199; weighted layers: 200
parameters: stem 9,536, shared 20,838,144, per-branch ['41,777,152', '41,777,152'], \
heads ['2,049,000', '2,049,000']
total parameters: 108,499,984
equivalent independent ensemble: 129,347,664
sharing ratio: 0.838824
"""),
        (["compare"] + _SWEEP, """\
branch_after_block,total_params,sharing_ratio,materialized_blocks
0,129347664,1.0,132
1,129263120,0.9993463817019532,131
13,126222352,0.9758378937558547,119
39,108499984,0.8388244568529665,93
65,71185424,0.5503417827476188,67
66,66722832,0.5158410282539003,66
"""),
        (["inspect"] + _B0_K3, """\
stages: [3, 24, 36, 3] x widths [64, 128, 256, 512]  (bottleneck blocks)
branch point: after block 0 of 66; branches: 3
blocks: shared 0, per-branch 66, materialized 198
conv layers (single path): 199; weighted layers: 200
parameters: stem 0, shared 0, per-branch ['62,624,832', '62,624,832', '62,624,832'], \
heads ['2,049,000', '2,049,000', '2,049,000']
total parameters: 194,021,496
equivalent independent ensemble: 194,021,496
sharing ratio: 1.000000
"""),
        (["compare"] + _SWEEP + _B0_K3, """\
branch_after_block,total_params,sharing_ratio,materialized_blocks
0,194021496,1.0,198
1,193852408,0.9991285089359377,196
13,187770872,0.9677838583411397,172
39,152326136,0.7850992758039552,120
65,77697016,0.4004557103301585,68
66,68771832,0.3544547043385337,66
"""),
    ], ids=["inspect-paper", "compare-paper", "inspect-b0-k3", "compare-b0-k3"])
    def test_stdout_is_pinned(self, tmp_path, capsys, args, expected):
        path = paper_config_file(tmp_path)
        assert main(args[:1] + ["--config", str(path)] + args[1:]) == 0
        assert capsys.readouterr().out == expected


class TestAugmentPreviewCommand:
    @pytest.fixture
    def source_image(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(12, 12, 3), dtype=np.uint8)
        path = tmp_path / "input.ppm"
        write_ppm(path, img)
        return path, img

    def test_count_zero_no_files(self, tmp_path, config_file, source_image):
        path, _ = source_image
        out = tmp_path / "preview"
        assert main(["augment-preview", "--config", str(config_file),
                     "--image", str(path), "--count", "0", "--out", str(out)]) == 0
        assert not out.exists()

    def test_all_stages_disabled_identity(self, tmp_path, config_file, source_image):
        path, img = source_image
        out = tmp_path / "preview"
        assert main(["augment-preview", "--config", str(config_file),
                     "--image", str(path), "--count", "2", "--out", str(out),
                     "--set", "augment.enable_flip=false"]) == 0
        for i in range(2):
            np.testing.assert_array_equal(read_ppm(out / f"augment{i:03d}.ppm"), img)

    def test_same_seed_identical_bytes(self, tmp_path, config_file, source_image):
        path, _ = source_image
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        args = ["augment-preview", "--config", str(config_file), "--image", str(path),
                "--count", "3", "--set", "augment.enable_pca=true",
                "--set", "augment.enable_jitter=true"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        for i in range(3):
            name = f"augment{i:03d}.ppm"
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_negative_count_is_a_config_error(self, tmp_path, config_file, source_image,
                                              capsys):
        path, _ = source_image
        out = tmp_path / "preview"
        assert main(["augment-preview", "--config", str(config_file),
                     "--image", str(path), "--count", "-1", "--out", str(out)]) == 2
        assert "--count must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_input_nonzero(self, tmp_path, config_file):
        assert main(["augment-preview", "--config", str(config_file),
                     "--image", str(tmp_path / "missing.ppm"), "--count", "1"]) == 1


class TestFlagScope:
    """Each command offers only the flags it reads."""

    @pytest.mark.parametrize("args", [
        ["inspect", "--precision", "fast"],
        ["inspect", "--out", "ignored"],
        ["compare", "--precision", "fast"],
        ["eval", "--checkpoint", "final.ckpt", "--precision", "fast"],
        ["augment-preview", "--image", "input.ppm", "--precision", "fast"],
    ], ids=["inspect-precision", "inspect-out", "compare-precision", "eval-precision",
            "preview-precision"])
    def test_unread_flag_exits_2(self, config_file, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main(args[:1] + ["--config", str(config_file)] + args[1:])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestConfigStrictness:
    def test_unknown_top_level_section(self, tmp_path):
        cfg = experiment_dict(tmp_path / "runs")
        cfg["modle"] = cfg.pop("model")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["inspect", "--config", str(path)]) == 2

    def test_out_of_range_value(self, tmp_path, config_file, capsys):
        assert main(["inspect", "--config", str(config_file),
                     "--set", "train.smoothing_epsilon=1.5"]) == 2
        assert "smoothing_epsilon" in capsys.readouterr().err

    def test_train_model_class_mismatch(self, tmp_path, config_file, capsys):
        assert main(["inspect", "--config", str(config_file),
                     "--set", "train.num_classes=9"]) == 2
        assert "num_classes" in capsys.readouterr().err

    @pytest.mark.parametrize("section, value", [
        ("model", [1, 2]), ("train", 5), ("augment", [1]), ("data", 5), ("output", "x"),
    ], ids=["model", "train", "augment", "data", "output"])
    def test_section_not_an_object(self, tmp_path, capsys, section, value):
        cfg = experiment_dict(tmp_path / "runs")
        cfg[section] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["inspect", "--config", str(path)]) == 2
        assert f"section '{section}' must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "train.=3", ".batch_size=3", ".=3", "train.batch_size.x=3", "a.b.c=1", "train=3",
        "train.batch_size"],
        ids=["empty-key", "empty-section", "empty-both", "nested", "nested-new", "no-key",
             "no-value"])
    def test_set_path_must_be_one_section_and_one_key(self, tmp_path, config_file, capsys,
                                                      override):
        assert main(["train", "--config", str(config_file), "--set", override]) == 2
        assert f"--set expects section.key=value, got {override!r}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_set_into_a_section_that_is_not_an_object(self, tmp_path, capsys):
        cfg = experiment_dict(tmp_path / "runs")
        cfg["output"] = 5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert main(["inspect", "--config", str(path), "--set", "output.dir=x"]) == 2
        assert "section 'output' must be a JSON object, got int" in capsys.readouterr().err

    @pytest.mark.parametrize("override, message", [
        ("model.bottleneck=False", 'bottleneck must be a boolean, got "False"'),
        ("data.seed=x", 'seed must be an integer, got "x"'),
        ("train.base_lr=fast", 'base_lr must be a number, got "fast"'),
        ("train.momentum=high", 'momentum must be a number, got "high"'),
        ("output.dir=5", "dir must be a string, got 5"),
    ], ids=["bool-string", "int-string", "float-string", "float-word", "path-int"])
    def test_value_of_wrong_json_type_rejected_before_any_output(
            self, tmp_path, config_file, capsys, override, message):
        assert main(["train", "--config", str(config_file), "--set", override]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("override, message", [
        ("model.stage_widths=[4.5,8]", "section 'model': stage_widths[0] must be an integer, "
                                       "got 4.5"),
        ("augment.channel_stds=[1,2,null]", "section 'augment': channel_stds[2] must be a "
                                            "number, got null"),
        ("augment.channel_means=[1e999,0,0]", "section 'augment': channel_means[0] must be "
                                              "finite, got inf"),
        ("augment.channel_means=[1,2,\"3\"]", "section 'augment': channel_means[2] must be a "
                                              "number, got \"3\""),
        ("augment.channel_stds=[1,2,true]", "section 'augment': channel_stds[2] must be a "
                                            "number, got true"),
        ("model.stage_blocks=5", "section 'model': stage_blocks must be a list of one or "
                                 "more integers, got 5"),
        ("model.stage_blocks=null", "section 'model': stage_blocks must be a list of one or "
                                    "more integers, got null"),
        ('augment.channel_means={"r":1}', "section 'augment': channel_means must be a list of "
                                          "3 numbers, got {\"r\": 1}"),
        ("model.stage_widths=[4,0]", "section 'model': stage_widths[1] must be >= 1, got 0"),
    ], ids=["width-fraction", "std-null", "mean-inf", "mean-string", "std-bool", "blocks-int",
            "blocks-null", "mean-object", "width-zero"])
    def test_non_integral_or_non_finite_value_rejected_before_any_output(
            self, tmp_path, config_file, capsys, override, message):
        assert main(["train", "--config", str(config_file), "--set", override]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("override, message", [
        ("train.base_lr=NaN", "base_lr must be finite and >= 0, got nan"),
        ("train.base_lr=-0.02", "base_lr must be finite and >= 0, got -0.02"),
        ("train.weight_decay=Infinity", "weight_decay must be finite and >= 0, got inf"),
        ("train.weight_decay=-1e-4", "weight_decay must be finite and >= 0, got -0.0001"),
        ("train.momentum=-2", "momentum must be in [0, 1), got -2"),
        ("train.momentum=1", "momentum must be in [0, 1), got 1"),
        ("train.momentum=NaN", "momentum must be in [0, 1), got nan"),
        ("train.lr_decay_factor=0", "lr_decay_factor must be finite and > 0, got 0"),
        ("train.lr_decay_factor=Infinity", "lr_decay_factor must be finite and > 0, got inf"),
    ], ids=["lr-nan", "lr-negative", "decay-inf", "decay-negative", "momentum-negative",
            "momentum-one", "momentum-nan", "factor-zero", "factor-inf"])
    def test_invalid_optimizer_setting_rejected_before_any_output(
            self, tmp_path, config_file, capsys, override, message):
        assert main(["train", "--config", str(config_file), "--set", override]) == 2
        assert f"section 'train': {message}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("override, message", [
        ("augment.jitter_strength=NaN", "jitter_strength must be finite and >= 0, got nan"),
        ("augment.pca_sigma=Infinity", "pca_sigma must be finite and >= 0, got inf"),
    ], ids=["jitter-nan", "pca-inf"])
    def test_non_finite_noise_strength_rejected_before_any_output(
            self, tmp_path, config_file, capsys, override, message):
        assert main(["train", "--config", str(config_file), "--set", override]) == 2
        assert f"section 'augment': {message}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("override, message", [
        ("train.seed=18446744073709551616",
         "section 'train': seed must be in [0, 2**64), got 18446744073709551616"),
        ("data.seed=-1", "section 'data': seed must be in [0, 2**64), got -1"),
        ("data.seed=18446744073709551616",
         "section 'data': seed must be in [0, 2**64), got 18446744073709551616"),
    ], ids=["train-2**64", "data-negative", "data-2**64"])
    def test_seed_outside_uint64_rejected_before_any_output(self, tmp_path, config_file,
                                                            capsys, override, message):
        assert main(["train", "--config", str(config_file), "--set", override]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("override, message", _bound_overrides())
    def test_value_outside_declared_bounds_rejected_before_any_output(
            self, tmp_path, config_file, capsys, override, message):
        assert main(["train", "--config", str(config_file), "--set", override]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("override", [
        "data.noise_std=NaN", "data.image_size=4", "data.test_samples_per_class=0"])
    def test_data_section_checked_by_a_command_that_reads_no_data(self, config_file, capsys,
                                                                  override):
        assert main(["inspect", "--config", str(config_file), "--set", override]) == 2
        assert "section 'data': " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval", "inspect"])
    @pytest.mark.parametrize("classes", [2, 4])
    def test_data_class_count_must_match_model_before_any_output(
            self, tmp_path, config_file, capsys, command, classes):
        args = [command, "--config", str(config_file), "--set", f"data.num_classes={classes}"]
        if command == "eval":
            assert main(["train", "--config", str(config_file)]) == 0
            (run_dir,) = run_dirs(tmp_path)
            args += ["--checkpoint", str(run_dir / "final.ckpt")]
        assert main(args) == 2
        assert f"data.num_classes ({classes}) != model.num_classes (3)" \
            in capsys.readouterr().err
        if command == "eval":
            assert not (run_dir / "eval_report.csv").exists()
        else:
            assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("experiment, section, key, message", [
        (lambda tmp_path: experiment_dict(tmp_path / "runs"), "model", "bottleneck",
         "section 'model': model needs key(s) bottleneck"),
        (cifar10_experiment_dict, "data", "dir", "section 'data': cifar10 data needs key(s) dir"),
    ], ids=["model-bottleneck", "cifar10-dir"])
    def test_missing_key_named(self, tmp_path, capsys, experiment, section, key, message):
        cfg = experiment(tmp_path)
        del cfg[section][key]
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(cfg))
        assert main(["inspect", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_malformed_json_line_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"model": {,}}')
        assert main(["inspect", "--config", str(path)]) == 2
        assert "broken.json:1" in capsys.readouterr().err


class TestOutputBytes:
    """sha256 of the byte-stable outputs of a 2-epoch ``branchnet train``, pinned so
    that a change to config parsing or data loading cannot move a byte unseen."""

    @pytest.mark.parametrize("experiment, digests", [
        (lambda tmp_path: experiment_dict(tmp_path / "runs", epochs=2), {
            "history.csv": "4aef3f325d24b7bac0d830138883d7083d2a73e2a2d341c6c4c8b13fa8721f06",
            "final.ckpt": "b413b986a4fca2d386240ce1e6f2c2c23a2e5ac9c8cd6cdef8c9f86783e00170",
            "report.csv": "f6892c67f0d574cf096dbacb887ae58c037516a1dd2a658af6e59e52ae35fb2d"}),
        (lambda tmp_path: cifar10_experiment_dict(tmp_path, epochs=2), {
            "history.csv": "04a98d19500f30e4d55f8e6cda22781b90de148da6abf23769451495e0f87759",
            "final.ckpt": "1e1965916e8dc7827a708f0c048d5ae87e48997e8c3462f52c903a630790ec01",
            "report.csv": "ce2a7fda5ca9c7bd99d17df78ddf266181e5cacc69fe10d2f19cd8dbebb7b8a9"}),
    ], ids=["synthetic", "cifar10"])
    def test_train_outputs_match_golden_digests(self, tmp_path, experiment, digests):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(experiment(tmp_path)))
        assert main(["train", "--config", str(path)]) == 0
        (run_dir,) = run_dirs(tmp_path)
        assert {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
                for name in digests} == digests


class TestConvTileRunLog:
    """``train`` and ``eval`` each print one line saying how conv tiles run;
    the byte-stable outputs stay as ``TestOutputBytes`` pins them."""

    MODES = {"2 threads", "inline (OpenBLAS has 1 thread)",
             "inline (no OpenBLAS thread control)"}

    @staticmethod
    def _tile_lines(out):
        return [line for line in out.splitlines() if line.startswith("conv tiles: ")]

    def test_train_and_eval_print_the_mode(self, tmp_path, config_file, capsys):
        assert main(["train", "--config", str(config_file)]) == 0
        train_lines = self._tile_lines(capsys.readouterr().out)
        (run_dir,) = run_dirs(tmp_path)
        assert main(["eval", "--config", str(config_file),
                     "--checkpoint", str(run_dir / "final.ckpt")]) == 0
        eval_lines = self._tile_lines(capsys.readouterr().out)
        assert train_lines == eval_lines == [f"conv tiles: {tensor.conv_tile_mode()}"]
        assert tensor.conv_tile_mode() in self.MODES

    @pytest.mark.parametrize("threads, mode", [
        (1, "inline (OpenBLAS has 1 thread)"), (0, "inline (no OpenBLAS thread control)")])
    def test_inline_modes_name_their_cause(self, config_file, capsys, monkeypatch,
                                           threads, mode):
        monkeypatch.setattr(tensor, "_TILE_POOL", None)
        monkeypatch.setattr(tensor, "_blas_threads", lambda: threads)
        assert main(["train", "--config", str(config_file)]) == 0
        assert self._tile_lines(capsys.readouterr().out) == [f"conv tiles: {mode}"]


class TestCifar10Data:
    @pytest.mark.parametrize("missing", ["train_files", "test_files"])
    def test_each_split_needs_its_own_file_list(self, tmp_path, capsys, missing):
        # without a list, the loader would read every .bin in the directory,
        # test batch included, for that split
        cfg = cifar10_experiment_dict(tmp_path)
        path = tmp_path / "cifar.json"
        path.write_text(json.dumps({**cfg, "data": {
            k: v for k, v in cfg["data"].items() if k != missing}}))
        assert main(["train", "--config", str(path)]) == 2
        assert f"cifar10 data needs key(s) {missing}" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(path)]) == 0
        (run_dir,) = run_dirs(tmp_path)
        assert "samples: 4 " in (run_dir / "report.txt").read_text()
