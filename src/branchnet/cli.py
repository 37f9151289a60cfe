"""Command-line entry point: train / eval / inspect / compare / augment-preview.

Experiment files are strict JSON (unknown keys rejected) with sections
``model``, ``train``, ``augment``, ``data``, ``output``; any leaf can be
overridden with repeatable ``--set section.key=value`` flags. Outputs land
in a per-run directory named by config hash + timestamp under the output
root, so runs never silently overwrite each other.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from . import data as data_io
from .augment import AugmentConfig, augment_batch, fit_augment_statistics
from .evaluation import evaluate
from .fields import Checked, check_keys, from_section
from .model import BranchedNetConfig, build_branched_net, network_report
from .tensor import conv_tile_mode
from .training import TrainConfig, history_csv, restore_network, timings_csv, train


class ConfigError(ValueError):
    pass


_SECTIONS = ("model", "train", "augment", "data", "output")


@dataclasses.dataclass(frozen=True)
class OutputConfig(Checked):
    dir: str = "runs"   # the root that each run's directory is made under


_DATA_KINDS = {"synthetic": data_io.SyntheticData, "cifar10": data_io.Cifar10Data}


@dataclasses.dataclass
class ExperimentConfig:
    model: BranchedNetConfig
    train: TrainConfig
    augment: AugmentConfig
    data: data_io.SyntheticData | data_io.Cifar10Data
    output: OutputConfig
    raw: dict

    def fingerprint(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def parse_experiment(raw: dict) -> ExperimentConfig:
    """``raw`` built section by section (``fields.from_section``), or ConfigError."""
    try:
        if not isinstance(raw, dict):
            raise ValueError("experiment config must be a JSON object")
        check_keys("<top level>", raw, set(_SECTIONS))
        for section in ("model", "train", "data"):
            if section not in raw:
                raise ValueError(f"missing required section '{section}'")
        for section, given in raw.items():
            if not isinstance(given, dict):
                raise ValueError(f"section '{section}' must be a JSON object, "
                                 f"got {type(given).__name__}")

        model = from_section(BranchedNetConfig, "model", raw["model"])
        train_cfg = from_section(TrainConfig, "train",
                                 {"num_classes": model.num_classes, **raw["train"]})
        augment = from_section(AugmentConfig, "augment", {
            "crop_height": model.input_height, "crop_width": model.input_width,
            **raw.get("augment", {})})
        if augment.pca_basis is not None:
            raise ValueError("augment.pca_basis is fitted from data, not configured")

        data_section = dict(raw["data"])
        kind = data_section.pop("kind", None)
        if kind not in _DATA_KINDS:
            raise ValueError(
                f"section 'data': kind must be one of {sorted(_DATA_KINDS)}, got {kind!r}")
        data = from_section(_DATA_KINDS[kind], "data", data_section, holds=f"{kind} data")

        for section, classes in (("train", train_cfg.num_classes),
                                 ("data", data.num_classes)):
            if classes != model.num_classes:
                raise ValueError(f"{section}.num_classes ({classes}) != "
                                 f"model.num_classes ({model.num_classes})")

        output = from_section(OutputConfig, "output", raw.get("output", {}))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(model=model, train=train_cfg, augment=augment,
                            data=data, output=output, raw=raw)


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply --set section.key=value pairs (values parsed as JSON when
    possible, else kept as strings) before strict validation. The path must
    be exactly one non-empty section and one non-empty key."""
    out = json.loads(json.dumps(raw))  # deep copy
    for item in overrides:
        dotted, eq, text = item.partition("=")
        section, _, key = dotted.partition(".")
        if not (eq and section and key) or "." in key:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = out.setdefault(section, {})
        if isinstance(node, dict):   # parse_experiment rejects any other section value
            node[key] = value
    return out


def load_experiment(path, overrides: list[str]) -> ExperimentConfig:
    cfg_path = Path(path)
    if not cfg_path.is_file():
        raise ConfigError(f"config file not found: {cfg_path}")
    try:
        raw = json.loads(cfg_path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{cfg_path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_experiment(apply_overrides(raw, overrides))


# ---------------------------------------------------------------------------
# data and run-dir helpers

def _validate_shapes(cfg: ExperimentConfig, train_set: data_io.Dataset) -> None:
    (h, w), crop = train_set.images.shape[1:3], cfg.augment.enable_crop
    ch, cw, mh, mw = (cfg.augment.crop_height, cfg.augment.crop_width,
                      cfg.model.input_height, cfg.model.input_width)
    if crop and (ch, cw) != (mh, mw):
        raise ConfigError(f"augment crop {ch}x{cw} != model input {mh}x{mw}")
    if crop and (ch > h or cw > w):
        raise ConfigError(f"crop {ch}x{cw} exceeds source images {h}x{w}")
    if not crop and (h, w) != (mh, mw):
        raise ConfigError(f"source images {h}x{w} != model input {mh}x{mw} (and crop is disabled)")


def make_run_dir(root, fingerprint: str) -> Path:
    base = Path(root) / f"{fingerprint}-{time.strftime('%Y%m%d-%H%M%S')}"
    candidate, counter = base, 2
    while True:   # mkdir claims the name, so two runs in one second never share it
        try:
            candidate.mkdir(parents=True)
            return candidate
        except FileExistsError:
            candidate, counter = base.with_name(f"{base.name}-{counter}"), counter + 1


# ---------------------------------------------------------------------------
# commands

def cmd_train(args) -> int:
    cfg = load_experiment(args.config, args.set)
    train_set, test_set = cfg.data.load("train"), cfg.data.load("test")
    _validate_shapes(cfg, train_set)
    augment = fit_augment_statistics(cfg.augment, train_set.images)
    net = build_branched_net(cfg.model, seed=cfg.train.seed,
                             dtype=np.float64 if args.precision == "ref" else np.float32)

    run_dir = make_run_dir(args.out or cfg.output.dir, cfg.fingerprint())
    print(f"run directory: {run_dir}")
    print(f"conv tiles: {conv_tile_mode()}")
    checkpoint, history = train(net, train_set, cfg.train, augment, log=print)
    (run_dir / "history.csv").write_text(history_csv(history, cfg.model.num_branches))
    (run_dir / "timings.csv").write_text(timings_csv(history))
    data_io.save_checkpoint(run_dir / "final.ckpt", checkpoint)
    if len(test_set):
        report = evaluate(net, test_set, augment_config=augment)
        (run_dir / "report.csv").write_text(report.to_csv())
        (run_dir / "report.txt").write_text(report.render_text() + "\n")
        print(report.render_text())
    return 0


def cmd_eval(args) -> int:
    checkpoint = data_io.load_checkpoint(args.checkpoint)
    cfg = load_experiment(args.config, args.set)
    for key, got in dataclasses.asdict(cfg.model).items():
        want = getattr(checkpoint.model_config, key)
        if got != want:
            raise ConfigError(f"config model.{key}={got!r} does not match checkpoint ({want!r})")
    net, _ = restore_network(checkpoint)
    test_set = cfg.data.load("test")
    print(f"conv tiles: {conv_tile_mode()}")
    out_dir = Path(args.out) if args.out else Path(args.checkpoint).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    report, branch_probs = evaluate(net, test_set, augment_config=checkpoint.augment_config,
                                    dump_probs=True)
    if args.dump_probs:
        for br, probs in enumerate(branch_probs):
            header = ",".join(f"class_{k}" for k in range(probs.shape[1]))
            rows = [",".join(repr(float(v)) for v in row) for row in probs]
            (out_dir / f"probs_branch_{br + 1}.csv").write_text(
                header + "\n" + "\n".join(rows) + "\n")
    print(report.render_text())
    (out_dir / "eval_report.csv").write_text(report.to_csv())
    return 0


def cmd_inspect(args) -> int:
    cfg = load_experiment(args.config, args.set)
    report = network_report(cfg.model)
    print(f"stages: {list(cfg.model.stage_blocks)} x widths {list(cfg.model.stage_widths)}"
          f"  ({'bottleneck' if cfg.model.bottleneck else 'basic'} blocks)")
    print(f"branch point: after block {cfg.model.branch_after_block}"
          f" of {cfg.model.total_blocks}; branches: {cfg.model.num_branches}")
    print(f"blocks: shared {report.shared_blocks}, per-branch {report.per_branch_blocks},"
          f" materialized {report.total_blocks_materialized}")
    print(f"conv layers (single path): {report.conv_layers};"
          f" weighted layers: {report.weighted_layers}")
    print(f"parameters: stem {report.stem_params:,}, shared {report.shared_params:,},"
          f" per-branch {[f'{v:,}' for v in report.per_branch_params]},"
          f" heads {[f'{v:,}' for v in report.head_params]}")
    print(f"total parameters: {report.total_params:,}")
    print(f"equivalent independent ensemble: "
          f"{report.equivalent_independent_ensemble_params:,}")
    print(f"sharing ratio: {report.sharing_ratio:.6f}")
    return 0


def cmd_compare(args) -> int:
    cfg = load_experiment(args.config, args.set)
    total = cfg.model.total_blocks
    if args.branch_points:
        try:
            points = sorted({int(tok) for tok in args.branch_points.split(",")})
        except ValueError as exc:   # int() names the bad token
            raise ConfigError(f"--branch-points: {exc}") from None
    else:
        points = list(range(total + 1))
    bad = [b for b in points if not 0 <= b <= total]
    if bad:
        raise ConfigError(f"branch points out of range [0, {total}]: {bad}")
    lines = ["branch_after_block,total_params,sharing_ratio,materialized_blocks"]
    for b in points:
        report = network_report(dataclasses.replace(cfg.model, branch_after_block=b))
        lines.append(f"{b},{report.total_params},{report.sharing_ratio!r},"
                     f"{report.total_blocks_materialized}")
    csv_text = "\n".join(lines) + "\n"
    print(csv_text, end="")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "compare.csv").write_text(csv_text)
    return 0


def cmd_augment_preview(args) -> int:
    cfg = load_experiment(args.config, args.set)
    if args.count < 0:
        raise ConfigError(f"--count must be >= 0, got {args.count}")
    image = data_io.read_ppm(args.image)
    # dump pre-normalization pixels: PPM is 8-bit, normalized tensors are not
    augment = fit_augment_statistics(
        dataclasses.replace(cfg.augment, enable_normalize=False), image[None])
    out_dir = Path(args.out or "preview")
    if args.count > 0:
        out_dir.mkdir(parents=True, exist_ok=True)
        data_io.write_ppm(out_dir / "original.ppm", image)
    previews = augment_batch(np.broadcast_to(image, (args.count,) + image.shape),
                             augment, cfg.train.seed, 0, np.arange(args.count))
    for i, preview in enumerate(previews):
        data_io.write_ppm(out_dir / f"augment{i:03d}.ppm", preview)
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def _add_common(parser: argparse.ArgumentParser, out: bool = True) -> None:
    parser.add_argument("--config", required=True, help="experiment JSON file")
    parser.add_argument("--set", action="append", default=[], metavar="K=V",
                        help="override a config value, e.g. train.total_epochs=1")
    if out:
        parser.add_argument("--out", default=None, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchnet",
        description="Branched residual networks: shared trunk, independent "
                    "branches, label-smoothed training.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run the training loop")
    _add_common(p)
    p.add_argument("--precision", choices=("ref", "fast"), default="ref",
                   help="ref = float64 (bit-reproducible), fast = float32")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True, help="checkpoint file")
    p.add_argument("--dump-probs", action="store_true",
                   help="also write per-branch probability matrices as CSV")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("inspect", help="print topology and parameter report")
    _add_common(p, out=False)
    p.set_defaults(fn=cmd_inspect)

    p = sub.add_parser("compare", help="sweep branch points, print CSV")
    _add_common(p)
    p.add_argument("--branch-points", default=None,
                   help="comma-separated block indices (default: all)")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("augment-preview", help="dump augmented PPM variants")
    _add_common(p)
    p.add_argument("--image", required=True, help="input PPM (P6) image")
    p.add_argument("--count", type=int, default=8, help="number of variants")
    p.set_defaults(fn=cmd_augment_preview)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
