#!/usr/bin/env python3
"""branchnet benchmark: one closed-loop training/eval workload per run.

Run from the root of a branchnet checkout:

    python3 bench/run.py --workload train_mini_f32 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
their timings are scaled to a reference machine speed (calibration.py).
``--trace 1`` runs half of ``--seconds`` untraced and half traced, and
reports the per-layer metrics and the tracing overhead. ``--counts`` runs
one traced cycle and prints only the per-layer counts that repeat exactly.
The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
(environment, per-cycle values, failures) is written to
``bench-results/``, together with the raw spans of a traced run.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibration
import environment

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench-results"
SETUP_REPEATS = 5
MIN_CYCLES = 3   # the first is a warm-up, left out of the timing medians

E2E_UNITS = {
    "train_samples_per_s": "samples/s",
    "eval_samples_per_s": "samples/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "final_train_loss": "nats",
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="length of the timed phase (default 30)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--counts", action="store_true",
                   help="one traced cycle; print only the exact per-layer counts")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def _startup_seconds() -> float:
    """Wall time of a fresh interpreter that imports branchnet."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import branchnet"], env=env, check=True,
                   timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_loop(workloads, w, st, seed, workdir, seconds, tracer=None, min_cycles=MIN_CYCLES,
              speed=None):
    """Repeat cycles; stop before one that would end past the deadline."""
    cycles, durations = [], []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        cycles.append(workloads.run_cycle(w, st, seed, workdir, tracer, speed))
        now = time.perf_counter()
        durations.append(now - t0)
        if len(cycles) >= min_cycles and now + statistics.median(durations) > deadline:
            return cycles


def _require_same(cycles, reference, what: str) -> None:
    for c in cycles:
        if c.digest and (c.digest, c.final_loss) != (reference.digest, reference.final_loss):
            c.failures.append(f"{what}: loss {c.final_loss!r} digest {c.digest[:16]} "
                              f"!= {reference.final_loss!r} {reference.digest[:16]}")


def _completed(cycles):
    return [c for c in cycles if c.train_seconds > 0 and c.eval_seconds > 0]


def _rates(cycles, phase: str) -> list[float]:
    """Samples per second of the given phase, one value per cycle."""
    if phase == "training":
        return [c.train_samples / c.train_seconds for c in cycles]
    return [c.eval_samples / c.eval_seconds for c in cycles]


def _scaled_rates(cycles, phase: str) -> list[float]:
    """``_rates`` at the reference machine speed (see calibration.py)."""
    speeds = [c.train_speed if phase == "training" else c.eval_speed for c in cycles]
    return [calibration.scale_rate(r, k) for r, k in zip(_rates(cycles, phase), speeds)]


def run_untraced(workloads, w, seed, workdir, seconds):
    kernel = calibration.Calibrator()
    kernel.speed()   # warm-up: first-call costs of the kernel's NumPy paths
    kernel.rates.clear()
    raw_setups, setups = [], []
    for _ in range(SETUP_REPEATS):
        k0 = kernel.speed()
        startup = _startup_seconds()
        t0 = time.perf_counter()
        st = workloads.setup(w, seed, workdir)
        total = startup + time.perf_counter() - t0
        raw_setups.append(total)
        setups.append(calibration.scale_seconds(total, (k0 + kernel.speed()) / 2))
    cycles = _run_loop(workloads, w, st, seed, workdir, seconds, speed=kernel.speed)
    if w.repeat_digest and cycles[0].digest:
        _require_same(cycles[1:], cycles[0], "repeat differs from the first cycle")
    timed = _completed(cycles[1:])
    if not timed:
        return cycles, None, {}
    samples = {
        "train_samples_per_s": _scaled_rates(timed, "training"),
        "eval_samples_per_s": _scaled_rates(timed, "evaluation"),
        "setup_s": setups,
        "peak_rss_mb": [_peak_rss_mb()],
        "final_train_loss": [c.final_loss for c in timed],
    }
    metrics = {k: (statistics.median(v), E2E_UNITS[k]) for k, v in samples.items()}
    raw = {"train_samples_per_s": _rates(timed, "training"),
           "eval_samples_per_s": _rates(timed, "evaluation"),
           "setup_s": raw_setups}
    return cycles, metrics, {"samples": samples, "raw_samples": raw,
                             "kernel_rates": kernel.rates,
                             "reference_rate": calibration.REFERENCE_RATE}


def run_traced(workloads, tracing, w, seed, workdir, seconds, spans_path):
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer):
        st = workloads.setup(w, seed, workdir, tracer)
    untraced = _run_loop(workloads, w, st, seed, workdir, seconds / 2, min_cycles=1)
    with tracing.Hooks(tracer):
        traced = _run_loop(workloads, w, st, seed, workdir, seconds / 2, tracer, min_cycles=1)
    cycles = untraced + traced
    if cycles[0].digest:
        reference = cycles[0]
        _require_same(traced, reference, "traced cycle differs from the untraced one")
        if w.repeat_digest:
            _require_same(untraced[1:], reference, "repeat differs from the first cycle")
    metrics, absent = tracing.per_layer_metrics(tracer, w.primary, w.model.num_branches)
    calls = metrics["model.trunk_calls_per_step"][0]
    if "model.trunk_calls_per_step" not in absent and calls != 1:
        for c in traced:
            c.failures.append(f"trunk evaluated {calls} times per step, expected 1")
    plain = _rates(_completed(untraced[1:] or untraced), w.primary)
    instrumented = _rates(_completed(traced), w.primary)
    if not plain or not instrumented:
        return cycles, None, {}
    plain_sps, traced_sps = statistics.median(plain), statistics.median(instrumented)
    metrics["trace.untraced_samples_per_s"] = (plain_sps, "samples/s")
    metrics["trace.traced_samples_per_s"] = (traced_sps, "samples/s")
    metrics["trace.overhead_pct"] = (100.0 * (plain_sps - traced_sps) / plain_sps, "%")
    tracer.dump(spans_path)
    return cycles, metrics, {"absent": absent, "spans": str(spans_path.relative_to(ROOT))}


def run_counts(workloads, tracing, w, seed, workdir):
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer):
        st = workloads.setup(w, seed, workdir, tracer)
        cycles = [workloads.run_cycle(w, st, seed, workdir, tracer)]
    metrics, absent = tracing.per_layer_metrics(tracer, w.primary, w.model.num_branches)
    counts = {k: metrics[k] for k in tracing.EXACT_COUNTS}
    return cycles, counts, {"absent": [k for k in absent if k in counts]}


def main(argv=None) -> int:
    args = _parse(argv)
    blas_threads = environment.limit_blas_threads()
    if not (SRC / "branchnet" / "__init__.py").is_file():
        print(f"error: no branchnet sources under {SRC}; run from a branchnet checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    import branchnet
    if Path(branchnet.__file__).resolve().parent != (SRC / "branchnet").resolve():
        print(f"error: imported branchnet from {branchnet.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    mode = "counts" if args.counts else f"trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-{mode}"
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="work-") as tmp:
        workdir = Path(tmp)
        if args.counts:
            cycles, metrics, detail = run_counts(workloads, tracing, w, args.seed, workdir)
        elif args.trace:
            cycles, metrics, detail = run_traced(workloads, tracing, w, args.seed, workdir,
                                                 args.seconds, RESULTS / f"{stem}.spans.json.gz")
        else:
            cycles, metrics, detail = run_untraced(workloads, w, args.seed, workdir,
                                                   args.seconds)

    failures = [f for c in cycles for f in c.failures]
    for f in failures[:20]:
        print(f"FAILED: {f}", file=sys.stderr)
    if metrics is None:
        print("error: no cycle completed, nothing measured", file=sys.stderr)
        return 1
    attempted = sum(c.operations for c in cycles)
    failed = sum(c.operations for c in cycles if c.failures)
    env = environment.capture(ROOT, blas_threads)
    absent = set(detail.get("absent", ()))
    samples = detail.get("samples", {})

    print(f"workload {w.name}  seed {args.seed}  mode {mode}  "
          f"cycles {len(cycles)}  operations {attempted}  failed {failed}")
    for name, (value, unit) in metrics.items():
        line = f"  {name:<40} {value:>14.6g} {unit}"
        if len(samples.get(name, ())) > 1:
            q1, _, q3 = statistics.quantiles(samples[name], n=4)
            line += f"  (median of {len(samples[name])}, quartiles {q1:.6g} .. {q3:.6g})"
        print(line + ("  ABSENT" if name in absent else ""))
    for name, values in detail.get("raw_samples", {}).items():
        print(f"  raw {name:<36} {statistics.median(values):>14.6g} {E2E_UNITS[name]}"
              "  (before calibration)")
    if detail.get("kernel_rates"):
        print(f"  calibration kernel {statistics.median(detail['kernel_rates']):.6g} it/s "
              f"(reference {calibration.REFERENCE_RATE:g})")
    print("env " + json.dumps(env, sort_keys=True))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(result, workload=w.name, why=w.why, seed=args.seed, mode=mode,
                  seconds=args.seconds, env=env, detail=detail,
                  cycles=[dataclasses.asdict(c) for c in cycles])
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
