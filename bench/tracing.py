"""In-memory span tracer, the hooks that attach it to branchnet from
outside, and the per-layer metrics computed from the spans.

Hooks rebind public names in the namespace of the module that calls them
(``branchnet.model.conv2d``, ``branchnet.training.reverse_pass``, ...) and
restore the originals on exit; the library itself is not modified. Backward
time is taken by wrapping each recorded ``TapeNode.backward`` just before
the reverse pass. A name that no longer exists is skipped, and every
metric that depends on it is reported as absent.

A span is ``[name, start, end, parent, step]``. Spans are kept in memory
and written out at the end of the run. Self time is a span's duration
minus the durations of its children (one thread, so children never
overlap).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

TRAIN_ROOT = "training.train"
EVAL_ROOT = "evaluation.evaluate"
PRIMARY_ROOT = {"training": TRAIN_ROOT, "evaluation": EVAL_ROOT}
STEP = {TRAIN_ROOT: "training.step", EVAL_ROOT: "evaluation.batch"}

TAPE_OPS = ("conv2d", "batch_norm2d", "relu", "pool2d_max", "residual_add",
            "global_avg_pool", "linear", "softmax_cross_entropy")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.step = 0
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.missing: set[str] = set()
        self._step_name = None
        self._step_every = 1
        self._ticks = 0

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.step])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        if self.stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    @contextmanager
    def steps(self, name: str, tail: str, every: int = 1):
        """Split the enclosed call into step spans. ``tick(name)`` ends the
        current step after ``every`` calls; the span still open when the
        call returns is renamed ``tail``."""
        self._step_name, self._step_every, self._ticks = name, every, 0
        self.open(name)
        try:
            yield
        finally:
            index = self.stack[-1]
            self.spans[index][0] = tail
            self.close(index)
            self._step_name = None

    def tick(self, name: str) -> None:
        if self._step_name != name:
            return
        self._ticks += 1
        if self._ticks == self._step_every:
            self._ticks = 0
            self.close(self.stack[-1])
            self.step += 1
            self.open(name)

    def count(self, name: str, value: float = 1) -> None:
        root = self.spans[self.stack[0]][0] if self.stack else ""
        self.counters[(root, name)] += value

    def dump(self, path) -> None:
        """Write every span as gzipped JSON: a name table and rows of
        [name index, start s, end s, parent, step]."""
        names: dict[str, int] = {}
        rows = [[names.setdefault(n, len(names)), s, e, p, k]
                for n, s, e, p, k in self.spans]
        with gzip.open(path, "wt") as f:
            json.dump({"names": list(names), "spans": rows}, f)


# ---------------------------------------------------------------------------
# hooks

def _conv_cost(out, weight) -> tuple[int, int]:
    """Forward GEMM flop and im2col patch-matrix bytes of one conv, from
    shapes (weights are [Cout, Cin, kh, kw])."""
    cout = weight.shape[0]
    k = weight.data.size // cout
    rows = out.data.size // cout
    return 2 * rows * cout * k, rows * k * out.data.itemsize


class Hooks:
    """Context manager that installs the tracing wrappers and removes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _rebind(self, owner_path: str, attr: str, span_name: str, make) -> None:
        module_name, _, class_name = owner_path.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            owner = None
        if owner is not None and class_name:
            owner = getattr(owner, class_name, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.tracer.missing.add(span_name)
            return
        setattr(owner, attr, functools.wraps(original)(make(original)))
        self._saved.append((owner, attr, original))

    def _timed(self, name: str, after=None):
        tracer = self.tracer

        def make(original):
            def wrapper(*args, **kwargs):
                index = tracer.open(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.close(index)
                    if after is not None:
                        after()
            return wrapper
        return make

    def _conv(self, original):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            index = tracer.open("tensor.conv2d.fwd")
            try:
                out = original(*args, **kwargs)
            finally:
                tracer.close(index)
            flop, patch = _conv_cost(out, args[1] if len(args) > 1 else kwargs["weight"])
            tracer.count("tensor.conv2d.flop", flop)
            tracer.count("tensor.conv2d.patch_bytes", patch)
            return out
        return wrapper

    def _pool(self, original):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            kind = args[1] if len(args) > 1 else kwargs.get("kind")
            index = tracer.open(f"tensor.pool2d_{kind}.fwd")
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(index)
        return wrapper

    def _timed_backward(self, node):
        tracer = self.tracer
        original = node.backward
        name = f"tensor.{node.op}.bwd"
        flop = 2 * _conv_cost(node.output, node.inputs[1])[0] if node.op == "conv2d" else 0

        def backward(grad):
            index = tracer.open(name)
            try:
                return original(grad)
            finally:
                tracer.close(index)
                if flop:
                    tracer.count("tensor.conv2d.flop", flop)
        return backward

    def _reverse_pass(self, original):
        tracer = self.tracer

        def wrapper(tape, loss):
            nodes = getattr(tape, "nodes", None)
            if nodes is None:
                tracer.missing.add("tensor.backward")
            else:
                tracer.count("tensor.tape_nodes", len(nodes))
                for node in nodes:
                    node.backward = self._timed_backward(node)
            index = tracer.open("tensor.reverse_pass")
            try:
                return original(tape, loss)
            finally:
                tracer.close(index)
        return wrapper

    def __enter__(self) -> "Hooks":
        t = self.tracer
        for op in ("batch_norm2d", "relu", "residual_add", "global_avg_pool", "linear"):
            self._rebind("branchnet.model", op, f"tensor.{op}.fwd", self._timed(f"tensor.{op}.fwd"))
        self._rebind("branchnet.model", "conv2d", "tensor.conv2d.fwd", self._conv)
        self._rebind("branchnet.model", "pool2d", "tensor.pool2d_max.fwd", self._pool)
        for op in ("softmax_cross_entropy", "residual_add"):
            self._rebind("branchnet.training", op, f"tensor.{op}.fwd",
                         self._timed(f"tensor.{op}.fwd"))
        self._rebind("branchnet.training", "reverse_pass", "tensor.reverse_pass",
                     self._reverse_pass)
        self._rebind("branchnet.evaluation", "softmax", "tensor.softmax.fwd",
                     self._timed("tensor.softmax.fwd", lambda: t.tick("evaluation.batch")))

        self._rebind("branchnet.training", "augment_pipeline", "augment.pipeline",
                     self._timed("augment.pipeline"))
        for fn, name in (("random_crop", "crop"), ("horizontal_flip", "flip"),
                         ("color_jitter", "jitter"), ("pca_noise", "pca"),
                         ("normalize", "normalize")):
            self._rebind("branchnet.augment", fn, f"augment.{name}", self._timed(f"augment.{name}"))
        self._rebind("branchnet.augment:RngStream", "generator", "augment.rng",
                     self._timed("augment.rng"))

        for method, name in (("forward_all_branches", "model.forward"),
                             ("forward_trunk", "model.trunk"),
                             ("forward_branch", "model.branch")):
            self._rebind("branchnet.model:BranchedNetwork", method, name, self._timed(name))

        for fn, name in (("smooth_label_matrix", "training.label"),
                         ("combined_branch_loss", "training.loss"),
                         ("epoch_shuffle", "training.shuffle")):
            self._rebind("branchnet.training", fn, name, self._timed(name))
        self._rebind("branchnet.training", "sgd_momentum_step", "training.sgd",
                     self._timed("training.sgd", lambda: t.tick("training.step")))

        for fn, name in (("normalize", "evaluation.normalize"),
                         ("top_k_error", "evaluation.top_k"),
                         ("ensemble_probs", "evaluation.ensemble")):
            self._rebind("branchnet.evaluation", fn, name, self._timed(name))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics

class _Aggregate:
    """Span totals keyed by (root span name, span name)."""

    def __init__(self, tracer: Tracer):
        spans = tracer.spans
        n = len(spans)
        children = [0.0] * n
        roots = [0] * n
        for i, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                children[parent] += end - start
                roots[i] = roots[parent]
            else:
                roots[i] = i
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_total = defaultdict(float)
        self.durations = defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(spans):
            key = (spans[roots[i]][0], name)
            self.count[key] += 1
            self.total[key] += end - start
            self.self_total[key] += end - start - children[i]
            if name in STEP.values():
                self.durations[key].append(end - start)
        self.counters = tracer.counters

    def per(self, root: str, name: str, denominator: float, totals=None) -> float:
        totals = self.total if totals is None else totals
        return 1e3 * totals[(root, name)] / denominator if denominator else 0.0

    def mean(self, root: str, name: str) -> float:
        """Milliseconds per span."""
        return self.per(root, name, self.count[(root, name)])

    def mean_root(self, name: str) -> float:
        return self.mean(name, name)


def per_layer_metrics(tracer: Tracer, primary: str, num_branches: int):
    """Return ({metric: (value, unit)}, [absent metric names]) for the
    traced cycles. Tensor and model metrics describe the workload's primary
    phase, per training step or per eval batch."""
    a = _Aggregate(tracer)
    P = PRIMARY_ROOT[primary]
    steps = a.count[(P, STEP[P])]
    train_steps = a.count[(TRAIN_ROOT, STEP[TRAIN_ROOT])]
    eval_batches = a.count[(EVAL_ROOT, STEP[EVAL_ROOT])]
    images = a.count[(TRAIN_ROOT, "augment.pipeline")]
    eval_images = a.count[(EVAL_ROOT, "evaluation.normalize")]

    def counter(root, name):
        return a.counters.get((root, name), 0.0)

    def pct(key, q):
        values = a.durations[key]
        return 1e3 * float(np.percentile(values, q)) if values else 0.0

    conv_seconds = a.total[(P, "tensor.conv2d.fwd")] + a.total[(P, "tensor.conv2d.bwd")]
    saves = a.count[("data.save_checkpoint", "data.save_checkpoint")]
    bwd = "tensor.backward"
    rows = []
    for op in TAPE_OPS:
        fwd_hook = "tensor.pool2d_max.fwd" if op == "pool2d_max" else f"tensor.{op}.fwd"
        rows.append((f"tensor.{op}.fwd_ms", "ms", (fwd_hook,),
                     a.per(P, f"tensor.{op}.fwd", steps)))
        rows.append((f"tensor.{op}.bwd_ms", "ms", ("tensor.reverse_pass", bwd),
                     a.per(P, f"tensor.{op}.bwd", steps)))
    rows += [
        ("tensor.softmax.fwd_ms", "ms", ("tensor.softmax.fwd",),
         a.per(P, "tensor.softmax.fwd", steps)),
        ("tensor.reverse_pass_ms", "ms", ("tensor.reverse_pass",),
         a.per(P, "tensor.reverse_pass", steps)),
        ("tensor.reverse_pass_self_ms", "ms", ("tensor.reverse_pass", bwd),
         a.per(P, "tensor.reverse_pass", steps, a.self_total)),
        ("tensor.tape_nodes", "count", ("tensor.reverse_pass", bwd),
         counter(P, "tensor.tape_nodes") / steps if steps else 0.0),
        ("tensor.conv2d.gflop", "GFLOP", ("tensor.conv2d.fwd", "tensor.reverse_pass", bwd),
         counter(P, "tensor.conv2d.flop") / steps / 1e9 if steps else 0.0),
        ("tensor.conv2d.gflop_per_s", "GFLOP/s", ("tensor.conv2d.fwd", "tensor.reverse_pass", bwd),
         counter(P, "tensor.conv2d.flop") / conv_seconds / 1e9 if conv_seconds else 0.0),
        ("tensor.conv2d.patch_mb", "MiB", ("tensor.conv2d.fwd",),
         counter(P, "tensor.conv2d.patch_bytes") / steps / 2**20 if steps else 0.0),

        ("augment.ms_per_image", "ms", ("augment.pipeline",),
         a.per(TRAIN_ROOT, "augment.pipeline", images)),
    ]
    for stage in ("crop", "flip", "jitter", "pca", "normalize"):
        rows.append((f"augment.{stage}_ms", "ms", (f"augment.{stage}", "augment.pipeline"),
                     a.per(TRAIN_ROOT, f"augment.{stage}", images)))
    rows += [
        ("augment.rng_generators_per_image", "count", ("augment.rng", "augment.pipeline"),
         a.count[(TRAIN_ROOT, "augment.rng")] / images if images else 0.0),
        ("augment.rng_ms_per_image", "ms", ("augment.rng", "augment.pipeline"),
         a.per(TRAIN_ROOT, "augment.rng", images)),
        ("augment.fit_ms", "ms", (), a.mean_root("augment.fit")),

        ("model.trunk_ms", "ms", ("model.trunk",), a.per(P, "model.trunk", steps)),
        ("model.branch_ms", "ms", ("model.branch",),
         a.per(P, "model.branch", steps * num_branches)),
        ("model.trunk_calls_per_step", "count", ("model.trunk",),
         a.count[(P, "model.trunk")] / steps if steps else 0.0),
        ("model.build_ms", "ms", (), a.mean_root("model.build")),

        ("training.step_ms_p50", "ms", ("training.sgd",), pct((TRAIN_ROOT, "training.step"), 50)),
        ("training.step_ms_p90", "ms", ("training.sgd",), pct((TRAIN_ROOT, "training.step"), 90)),
        ("training.batch_assembly_ms", "ms", ("training.sgd",),
         a.per(TRAIN_ROOT, "training.step", train_steps, a.self_total)),
    ]
    for fn in ("label", "loss", "sgd", "shuffle"):
        rows.append((f"training.{fn}_ms", "ms", (f"training.{fn}", "training.sgd"),
                     a.per(TRAIN_ROOT, f"training.{fn}", train_steps)))
    rows += [
        ("evaluation.batch_ms_p50", "ms", ("tensor.softmax.fwd",),
         pct((EVAL_ROOT, "evaluation.batch"), 50)),
        ("evaluation.batch_ms_p90", "ms", ("tensor.softmax.fwd",),
         pct((EVAL_ROOT, "evaluation.batch"), 90)),
        ("evaluation.forward_ms", "ms", ("model.forward", "tensor.softmax.fwd"),
         a.per(EVAL_ROOT, "model.forward", eval_batches)),
        ("evaluation.normalize_ms_per_image", "ms", ("evaluation.normalize",),
         a.per(EVAL_ROOT, "evaluation.normalize", eval_images)),
        ("evaluation.report_ms", "ms", ("tensor.softmax.fwd",),
         a.mean(EVAL_ROOT, "evaluation.tail")),

        ("data.generate_ms", "ms", (), a.mean_root("data.generate")),
        ("data.save_checkpoint_ms", "ms", (), a.mean_root("data.save_checkpoint")),
        ("data.load_checkpoint_ms", "ms", (), a.mean_root("data.load_checkpoint")),
        ("data.checkpoint_mb", "MiB", (),
         counter("data.save_checkpoint", "data.checkpoint_bytes") / saves / 2**20
         if saves else 0.0),
        ("training.restore_ms", "ms", (), a.mean_root("training.restore")),
    ]
    metrics = {name: (value, unit) for name, unit, _, value in rows}
    absent = sorted(name for name, _, deps, _ in rows if tracer.missing.intersection(deps))
    return metrics, absent


EXACT_COUNTS = ("tensor.tape_nodes", "tensor.conv2d.gflop", "tensor.conv2d.patch_mb",
                "augment.rng_generators_per_image", "model.trunk_calls_per_step",
                "data.checkpoint_mb")
