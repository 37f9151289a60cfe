"""The benchmark's workloads still run on the library: ``bench/workloads.py``
calls ``branchnet`` by module and function name, and ``bench/tracing.py``
rebinds library names to time them, so a rename in ``src/`` that breaks
either fails here, one set-up and one cycle per workload."""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

# hooks whose names the library no longer has: their per-layer metrics read
# as absent until the benchmark is brought up to date
STALE_HOOKS = {"augment.crop", "augment.flip", "augment.jitter", "augment.normalize",
               "augment.pca", "augment.pipeline", "augment.rng", "evaluation.normalize",
               "tensor.relu.fwd", "tensor.residual_add.fwd"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_cycle_runs_without_failures(tmp_path, name):
    w = workloads.WORKLOADS[name]
    st = workloads.setup(w, 1, tmp_path)
    cycle = workloads.run_cycle(w, st, 1, tmp_path)
    assert cycle.failures == []
    assert math.isfinite(cycle.final_loss)
    assert cycle.train_samples == w.epochs * w.train_count
    assert cycle.eval_samples == w.test_count


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_per_layer_hooks_find_their_library_names(tmp_path, name):
    w = workloads.WORKLOADS[name]
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer):
        st = workloads.setup(w, 1, tmp_path, tracer)
        cycle = workloads.run_cycle(w, st, 1, tmp_path, tracer)
    assert cycle.failures == []
    assert tracer.missing == STALE_HOOKS
    spans = {span[0] for span in tracer.spans}
    assert {"tensor.batch_norm2d.fwd", "training.loss", "training.sgd"} <= spans
