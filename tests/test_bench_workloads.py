"""The benchmark's workloads still run on the library: ``bench/workloads.py``
calls ``branchnet`` by module and function name, so a rename in ``src/``
that breaks it fails here, one set-up and one cycle per workload."""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_cycle_runs_without_failures(tmp_path, name):
    w = workloads.WORKLOADS[name]
    st = workloads.setup(w, 1, tmp_path)
    cycle = workloads.run_cycle(w, st, 1, tmp_path)
    assert cycle.failures == []
    assert math.isfinite(cycle.final_loss)
    assert cycle.train_samples == w.epochs * w.train_count
    assert cycle.eval_samples == w.test_count
