"""Branched residual network: shared trunk, independent upper branches.

A network is a stem (conv+BN+relu, optionally a max pool), a sequence of
residual blocks, and per-branch classifier heads (global average pool +
linear). Blocks 1..B are shared; blocks B+1..total plus the head are
replicated per branch with independent parameters.

Branch-point convention: the stem belongs to the shared prefix whenever
B >= 1. B == 0 means nothing is shared at all (each branch materializes
its own stem), so the B=0 network is exactly an ensemble of independent
nets and its parameter sharing ratio is 1.0.

Layer bookkeeping: the conv-layer count follows the depth-naming convention
(stem conv + main-path convs of one root-to-head path); projection shortcut
convs carry parameters but do not count toward depth. Weighted layers add
the classifier. The default big preset reports 199 convs / 200 weighted.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import Checked, bounded
from .tensor import (BN_EPSILON, Tensor, batch_norm2d, conv2d, global_avg_pool,
                     linear, pool2d)

BOTTLENECK_EXPANSION = 4


@dataclass(frozen=True)
class BranchedNetConfig(Checked):
    """Declarative topology: stages, widths, branch point, branch count."""

    stage_blocks: tuple[int, ...] = bounded(1)
    stage_widths: tuple[int, ...] = bounded(1)
    bottleneck: bool
    branch_after_block: int   # in [0, total_blocks], checked below
    num_branches: int = bounded(1)
    num_classes: int = bounded(2)
    input_channels: int = bounded(1, default=3)
    input_height: int = bounded(1, default=32)
    input_width: int = bounded(1, default=32)
    stem_kernel: int = bounded(1, default=3)
    stem_stride: int = bounded(1, default=1)
    stem_pool: bool = False

    def __post_init__(self):
        super().__post_init__()   # each stage list holds one or more entries
        if len(self.stage_blocks) != len(self.stage_widths):
            raise ValueError(
                f"stage_blocks ({len(self.stage_blocks)}) and stage_widths "
                f"({len(self.stage_widths)}) must have the same length")
        if not 0 <= self.branch_after_block <= self.total_blocks:
            raise ValueError(
                f"branch_after_block must be in [0, {self.total_blocks}], "
                f"got {self.branch_after_block}")

    @property
    def total_blocks(self) -> int:
        return sum(self.stage_blocks)


def mini_config(num_branches: int = 2, branch_after_block: int = 4,
                input_size: int = 32) -> BranchedNetConfig:
    """Desk-scale default: stages [2,2,2], widths [16,32,64], basic blocks,
    10 classes of RGB input."""
    return BranchedNetConfig(
        stage_blocks=(2, 2, 2), stage_widths=(16, 32, 64), bottleneck=False,
        branch_after_block=branch_after_block, num_branches=num_branches,
        num_classes=10, input_height=input_size, input_width=input_size)


def paper_scale_config() -> BranchedNetConfig:
    """Big preset: 66 bottleneck blocks in stages [3,24,36,3], branch after 39,
    1000 classes."""
    return BranchedNetConfig(
        stage_blocks=(3, 24, 36, 3), stage_widths=(64, 128, 256, 512),
        bottleneck=True, branch_after_block=39, num_branches=2,
        num_classes=1000, input_height=224, input_width=224,
        stem_kernel=7, stem_stride=2, stem_pool=True)


# ---------------------------------------------------------------------------
# the layer table: one source for building, counting and running the net

@dataclass(frozen=True)
class ConvSpec:
    """One conv + BN pair: registry tags, weight shape and geometry."""

    tag: str            # weight name within the unit, e.g. "conv1" or "proj"
    bn: str             # name of its batch norm, e.g. "bn1" or "proj_bn"
    cout: int
    cin: int
    k: int
    stride: int
    pad: int


@dataclass(frozen=True)
class Unit:
    """One entry of the layer table: a stem, a residual block or a head.
    ``branch`` is None for the shared stem and trunk, else the branch index.

    A block computes F(x) + shortcut(x), post-activation style: basic is
    3x3 conv -> BN -> relu -> 3x3 conv -> BN; bottleneck is 1x1 -> 3x3
    (carries the stride) -> 1x1 with 4x expansion. The shortcut is the
    identity unless channels or stride change, in which case ``proj``
    (1x1 conv + BN) is used.
    """

    kind: str                           # "stem", "block" or "head"
    scope: str                          # registry prefix, e.g. "trunk.block03"
    branch: Optional[int]
    convs: tuple[ConvSpec, ...] = ()    # main path, in forward order
    proj: Optional[ConvSpec] = None
    pool: bool = False                  # 2x2 max pool after the stem
    head_shape: tuple[int, int] = (0, 0)  # (classes, features)


def layer_table(config: BranchedNetConfig) -> list[Unit]:
    """Every unit of the network, in registry and seed-stream draw order:
    the shared stem and trunk blocks, then per branch its own stem (B = 0
    only), its blocks and its head."""
    plans = []  # (1-based index, main-path convs, projection) per base block
    channels = config.stage_widths[0]  # into the next block; at the end, the head
    for stage, (count, width) in enumerate(zip(config.stage_blocks, config.stage_widths)):
        out_ch = width * BOTTLENECK_EXPANSION if config.bottleneck else width
        for i in range(count):
            s = 2 if (i == 0 and stage > 0) else 1
            if config.bottleneck:
                shapes = ((width, channels, 1, 1), (width, width, 3, s), (out_ch, width, 1, 1))
            else:
                shapes = ((width, channels, 3, s), (out_ch, width, 3, 1))
            convs = tuple(ConvSpec(f"conv{j}", f"bn{j}", cout, cin, k, stride, k // 2)
                          for j, (cout, cin, k, stride) in enumerate(shapes, 1))
            proj = (ConvSpec("proj", "proj_bn", out_ch, channels, 1, s, 0)
                    if (s != 1 or channels != out_ch) else None)
            plans.append((len(plans) + 1, convs, proj))
            channels = out_ch

    k = config.stem_kernel
    stem_conv = ConvSpec("conv", "bn", config.stage_widths[0], config.input_channels,
                         k, config.stem_stride, k // 2)

    def stem(scope: str, br: Optional[int]) -> Unit:
        return Unit("stem", scope, br, (stem_conv,), pool=config.stem_pool)

    def blocks(scope: str, br: Optional[int], plans) -> list[Unit]:
        return [Unit("block", f"{scope}.block{index:02d}", br, convs, proj)
                for index, convs, proj in plans]

    b = config.branch_after_block
    units = []
    if b >= 1:
        units += [stem("stem", None)] + blocks("trunk", None, plans[:b])
    for br in range(config.num_branches):
        scope = f"branch{br}"
        if b == 0:
            units.append(stem(f"{scope}.stem", br))
        units += blocks(scope, br, plans[b:])
        units.append(Unit("head", scope, br, head_shape=(config.num_classes, channels)))
    return units


_BN_TENSORS = {"gamma": 1.0, "beta": 0.0, "running_mean": 0.0, "running_var": 1.0}
_BUFFER_SUFFIXES = (".running_mean", ".running_var")


def _unit_tensors(unit: Unit) -> list[tuple[str, tuple[int, ...], Optional[float]]]:
    """(name, shape, fill) for every tensor of a unit, in registry order.
    ``fill`` is None for a He-initialized weight, else the constant value;
    names ending in ``_BUFFER_SUFFIXES`` are buffers, the rest parameters.
    """
    if unit.kind == "head":
        classes, features = unit.head_shape
        return [(f"{unit.scope}.head.weight", (classes, features), None),
                (f"{unit.scope}.head.bias", (classes,), 0.0)]
    tensors = []
    for conv in unit.convs + ((unit.proj,) if unit.proj is not None else ()):
        tensors.append((f"{unit.scope}.{conv.tag}.weight",
                        (conv.cout, conv.cin, conv.k, conv.k), None))
        tensors += [(f"{unit.scope}.{conv.bn}.{field}", (conv.cout,), fill)
                    for field, fill in _BN_TENSORS.items()]
    return tensors


def _unit_param_count(unit: Unit) -> int:
    return sum(math.prod(shape) for name, shape, _ in _unit_tensors(unit)
               if not name.endswith(_BUFFER_SUFFIXES))


# ---------------------------------------------------------------------------
# parameterized network

@dataclass(eq=False, repr=False)
class BranchedNetwork:
    """Instantiated parameters plus the forward plumbing.

    ``params`` and ``buffers`` map stable dotted names to tensors in layer
    table order; trunk parameters appear exactly once, branch parameters
    under branch-scoped names. All branches share one architecture with
    independent values. ``dtype`` is the dtype every tensor was built with.
    Build with ``build_branched_net``.
    """

    config: BranchedNetConfig
    units: list[Unit]
    params: dict[str, Tensor]
    buffers: dict[str, Tensor]
    dtype: np.dtype

    def state(self) -> dict[str, Tensor]:
        return {**self.params, **self.buffers}

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    # -- forward -----------------------------------------------------------

    def _conv_bn(self, scope: str, conv: ConvSpec, x: Tensor, mode: str,
                 shortcut: Optional[Tensor] = None, act: bool = False) -> Tensor:
        """Conv then batch norm, then ``+ shortcut`` if given and relu if
        ``act``, in the last op's own output: ``batch_norm2d``'s in train
        mode. In eval mode the batch norm is a fixed per-channel affine map,
        folded into the conv from the live tensors on every call: output
        channel o's weight is scaled by s[o] = gamma[o] / sqrt(var[o] + eps)
        and its bias is beta[o] - mean[o] * s[o]. Nothing is cached, so
        training cannot leave the fold stale. The conv adds that bias and the
        shortcut and applies relu to its own output's tiles (``conv2d``)."""
        weight = self.params[f"{scope}.{conv.tag}.weight"]
        bn = f"{scope}.{conv.bn}"
        gamma, beta = self.params[f"{bn}.gamma"], self.params[f"{bn}.beta"]
        mean, var = self.buffers[f"{bn}.running_mean"], self.buffers[f"{bn}.running_var"]
        if mode == "eval":
            s = gamma.data / np.sqrt(var.data + BN_EPSILON)
            return conv2d(x, Tensor(weight.data * s[:, None, None, None]),
                          Tensor(beta.data - mean.data * s), stride=conv.stride, pad=conv.pad,
                          shortcut=shortcut, relu=act)
        return batch_norm2d(conv2d(x, weight, stride=conv.stride, pad=conv.pad),
                            gamma, beta, mean, var, mode=mode, shortcut=shortcut, relu=act)

    def _run_unit(self, unit: Unit, x: Tensor, mode: str) -> Tensor:
        if unit.kind == "head":
            return linear(global_avg_pool(x), self.params[f"{unit.scope}.head.weight"],
                          self.params[f"{unit.scope}.head.bias"])
        out = x
        for conv in unit.convs[:-1]:
            out = self._conv_bn(unit.scope, conv, out, mode, act=True)
        if unit.kind == "stem":
            out = self._conv_bn(unit.scope, unit.convs[-1], out, mode, act=True)
            return pool2d(out, "max", window=2, stride=2) if unit.pool else out
        if unit.proj is None:
            return self._conv_bn(unit.scope, unit.convs[-1], out, mode, x, act=True)
        # the projection conv, run last, takes the block's add and relu, with
        # the main path's output as its shortcut (a + b is bitwise b + a)
        out = self._conv_bn(unit.scope, unit.convs[-1], out, mode)
        return self._conv_bn(unit.scope, unit.proj, x, mode, out, act=True)

    def _run_path(self, branch: Optional[int], x: Tensor, mode: str) -> Tensor:
        for unit in self.units:
            if unit.branch == branch:
                x = self._run_unit(unit, x, mode)
        return x

    def forward_trunk(self, batch: Tensor, mode: str) -> Tensor:
        return self._run_path(None, batch, mode)

    def forward_branch(self, br: int, trunk_out: Tensor, mode: str) -> Tensor:
        return self._run_path(br, trunk_out, mode)

    def forward_all_branches(self, batch: Tensor, mode: str = "eval") -> list[Tensor]:
        """Evaluate the trunk once and every branch on the shared trunk output.

        Train mode runs the differentiable ops and updates the batch norm
        running buffers. Eval mode is inference, not differentiable: each
        batch norm is folded into its conv (``_conv_bn``), which also adds the
        residual shortcut and applies relu to its tiles' rows in place."""
        cfg = self.config
        want = (cfg.input_height, cfg.input_width, cfg.input_channels)
        if batch.shape[1:] != want:
            raise ValueError(f"batch shape {batch.shape} does not match configured "
                             f"input [N, H, W, C] = [N, {', '.join(map(str, want))}]")
        trunk_out = self.forward_trunk(batch, mode)
        return [self.forward_branch(br, trunk_out, mode)
                for br in range(cfg.num_branches)]


def build_branched_net(config: BranchedNetConfig, seed: int,
                       dtype=np.float64) -> BranchedNetwork:
    """He-initialized network; each branch drawn from an independent
    sub-stream of the seed, so same-seed builds are bitwise identical and
    branches are decorrelated by construction."""
    streams = [np.random.default_rng(s)
               for s in np.random.SeedSequence(seed).spawn(1 + config.num_branches)]
    units = layer_table(config)
    params: dict[str, Tensor] = {}
    buffers: dict[str, Tensor] = {}
    for unit in units:
        rng = streams[0 if unit.branch is None else 1 + unit.branch]
        for name, shape, fill in _unit_tensors(unit):
            if fill is None:
                std = np.sqrt(2.0 / math.prod(shape[1:]))
                data = (rng.standard_normal(shape) * std).astype(dtype)
            else:
                data = np.full(shape, fill, dtype=dtype)
            is_buffer = name.endswith(_BUFFER_SUFFIXES)
            (buffers if is_buffer else params)[name] = Tensor(data, requires_grad=not is_buffer)
    return BranchedNetwork(config, units, params, buffers, np.dtype(dtype))


# ---------------------------------------------------------------------------
# structure accounting

@dataclass(frozen=True)
class NetworkReport:
    """A config's blocks, depth and learnable parameters, per registry scope."""

    shared_blocks: int
    per_branch_blocks: int
    total_blocks_materialized: int
    conv_layers: int
    weighted_layers: int
    stem_params: int
    shared_params: int
    per_branch_params: tuple[int, ...]
    head_params: tuple[int, ...]
    total_params: int
    equivalent_independent_ensemble_params: int
    sharing_ratio: float


def network_report(config: BranchedNetConfig) -> NetworkReport:
    """Exact structure counts from one walk of the layer table's shapes
    (nothing is allocated, so paper scale is cheap).

    Depth and ``equivalent_independent_ensemble_params`` both follow one
    root-to-head path (the shared units and branch 0's): depth counts its
    main-path convs, and the ensemble is num_branches copies of its
    parameters. ``sharing_ratio`` = total over that ensemble, 1.0 exactly
    when nothing is shared (B = 0).
    """
    units = Counter()   # (branch, kind) -> units
    params = Counter()  # (branch, kind) -> learnable parameters
    convs = path_params = 0
    for unit in layer_table(config):
        n = _unit_param_count(unit)
        units[unit.branch, unit.kind] += 1
        params[unit.branch, unit.kind] += n
        if unit.branch in (None, 0):
            convs += len(unit.convs)
            path_params += n
    kb = config.num_branches
    total = sum(params.values())
    equivalent = kb * path_params
    return NetworkReport(
        shared_blocks=units[None, "block"],
        per_branch_blocks=units[0, "block"],
        total_blocks_materialized=sum(n for (_, kind), n in units.items() if kind == "block"),
        conv_layers=convs,
        weighted_layers=convs + 1,
        stem_params=params[None, "stem"],
        shared_params=params[None, "block"],
        per_branch_params=tuple(params[br, "stem"] + params[br, "block"] for br in range(kb)),
        head_params=tuple(params[br, "head"] for br in range(kb)),
        total_params=total,
        equivalent_independent_ensemble_params=equivalent,
        sharing_ratio=total / equivalent)
