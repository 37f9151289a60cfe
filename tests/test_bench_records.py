"""Consistency of the committed benchmark records (``BENCH_*.json`` at the
repository root): every summary figure recomputes from the record's own
per-run values, every name it uses is declared in ``BENCHMARK.json``, and
the metric a record claims moved the better way."""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
MIN_PAIRS = 10
MIN_CLAIM_WIN_SHARE = 0.8   # at least 8 of 10 paired runs
HELD_OUT_SEED = 7919


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def _declared() -> tuple[set, dict]:
    bench = _load(ROOT / "BENCHMARK.json")
    return ({w["name"] for w in bench["workloads"]},
            {m["name"]: m["better"] for m in bench["end_to_end"]})


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def test_records_exist():
    assert RECORDS, "no BENCH_*.json at the repository root"


@pytest.fixture(params=RECORDS, ids=lambda p: p.name)
def record(request) -> dict:
    return _load(request.param)


def test_names_are_declared_in_benchmark(record):
    workloads, metrics = _declared()
    assert record["workload"] in workloads
    assert record["claimed_metric"] in metrics
    assert f"--workload {record['workload']} " in record["command"]
    for name, summary in record["summary"].items():
        assert name in metrics
        assert summary["better"] == metrics[name]
    assert set(record["held_out"]) <= set(metrics)


def test_runs_cover_the_seeds_and_the_held_out_seed(record):
    paired = [r for r in record["runs"] if not r["held_out"]]
    held = [r for r in record["runs"] if r["held_out"]]
    assert len(paired) >= MIN_PAIRS
    assert [r["seed"] for r in paired] == record["seeds"]
    assert record["held_out_seed"] == HELD_OUT_SEED
    assert [r["seed"] for r in held] == [HELD_OUT_SEED]
    assert HELD_OUT_SEED not in record["seeds"]
    for run in record["runs"]:
        assert run["first"] in ("parent", "change")
        for side in ("parent", "change"):
            assert run[side]["correct"] is True
            assert 0 <= run[side]["failed"] <= run[side]["attempted"]


def test_summary_recomputes_from_runs(record):
    paired = [r for r in record["runs"] if not r["held_out"]]
    for name, summary in record["summary"].items():
        for side in ("parent", "change"):
            values = [r[side][name] for r in paired]
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            stats = summary[side]
            assert stats["n"] == len(values) >= MIN_PAIRS
            assert _close(stats["median"], statistics.median(values)), (name, side)
            assert _close(stats["median"], median), (name, side)
            assert _close(stats["q1"], q1) and _close(stats["q3"], q3), (name, side)
            assert _close(stats["iqr"], q3 - q1), (name, side)
        sign = 1 if summary["better"] == "higher" else -1
        deltas = [sign * (r["change"][name] - r["parent"][name]) for r in paired]
        assert summary["change_wins"] == sum(d > 0 for d in deltas), name
        assert summary["change_losses"] == sum(d < 0 for d in deltas), name
        assert summary["ties"] == sum(d == 0 for d in deltas), name
        ratio = summary["change"]["median"] / summary["parent"]["median"] - 1
        assert _close(summary["change_vs_parent_median"], ratio), name


def test_held_out_block_matches_its_run(record):
    (held,) = [r for r in record["runs"] if r["held_out"]]
    for name, sides in record["held_out"].items():
        for side in ("parent", "change"):
            assert sides[side] == held[side][name], (name, side)


def test_claimed_metric_moved_the_better_way(record):
    summary = record["summary"][record["claimed_metric"]]
    sign = 1 if summary["better"] == "higher" else -1
    assert sign * (summary["change"]["median"] - summary["parent"]["median"]) > 0
    assert summary["change_wins"] >= MIN_CLAIM_WIN_SHARE * summary["change"]["n"]
