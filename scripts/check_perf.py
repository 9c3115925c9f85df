#!/usr/bin/env python3
"""Gate perf reports produced by the `repro` harness.

Usage: check_perf.py <baseline BENCH_query.json> <fresh BENCH_query.json>...
       check_perf.py median <out BENCH_query.json> <run BENCH_query.json>...
       check_perf.py serve <BENCH_serve.json>
       check_perf.py build <BENCH_build.json>

Hotpath mode (a baseline and one or more fresh files): one run's numbers
swing more between back-to-back runs on a shared host than the gate's
tolerance, so the fresh runs are reduced to their per-metric median before
anything is compared (CI passes three). The committed baseline is recorded
the same way: `median` mode writes the per-metric median of several runs
as one report. Raw nanosecond numbers are machine-dependent, so every
`*_ns` metric is then normalized by the report's own
`sorted_vec_predecessor_ns` — a fixed baseline implementation (binary
search over an uncompressed sorted vec) measured in the same process,
which cancels out CPU-speed differences between the committing machine and
the CI runner. A baseline speaks for one SIMD dispatch level only
(`results/BENCH_query.json` for the machine's best level,
`results/BENCH_query_scalar.json` for `GRAFITE_SIMD=scalar`), so the gate
exits with a message naming both levels when the baseline's `simd_level`
differs from the fresh median's. Otherwise it fails when:

  * any normalized query metric regresses by more than REGRESSION_TOLERANCE
    against the committed baseline, or
  * the run used SIMD dispatch (`simd_active`) but fewer than
    KERNEL_SPEEDUP_MIN_KERNELS of the vectorized kernels beat their
    forced-scalar twins by KERNEL_SPEEDUP_FLOOR (an in-run ratio, so it is
    machine-independent).

`kernel_*` metrics are excluded from the normalized baseline diff: kernel
rows depend on which dispatch level the runner supports (a scalar-forced CI
leg would trivially "regress" them). They are still carried in the report
for trend reading.

Serve mode (`serve` + one file): checks a `repro serve` report against the
serving cold-start acceptance floors — the measured manifest must be at
least STORE_BYTES_FLOOR, and the lazy `open_mapped` scan must be at least
MAPPED_SPEEDUP_FLOOR times faster than the eager whole-file open. Both are
in-run ratios/sizes, so no baseline file is needed.

Build mode (`build` + one file): checks a `repro scale` report against the
parallel-construction acceptance floors. Determinism is unconditional:
`bpk_drift` must be exactly 0 and `bytes_identical` must be 1 — a parallel
build that produces different bytes is a correctness bug, not a perf
miss. Two scaling floors apply only when the recording machine had at
least two cores (`config.cores`): BUILD_SPEEDUP_FLOOR on the in-run
8-thread-vs-serial store build throughput ratio, and FILTER_SPEEDUP_FLOOR
on the same ratio for one filter's hash->sort->encode pipeline. A one-core
machine physically cannot speed the build up, so its report records
throughput and determinism but cannot attest to scaling — CI's fresh
multi-core run enforces the floors there.
"""

import json
import sys

# A normalized metric may grow by at most 25% before the gate fails.
REGRESSION_TOLERANCE = 1.25

# When the fresh run dispatched SIMD kernels, at least this many of them
# must beat their forced-scalar twins by this factor. The committed
# measurements are well above the floor; 1.2x matches the acceptance
# criterion while leaving room for runner noise.
KERNEL_SPEEDUP_FLOOR = 1.2
KERNEL_SPEEDUP_MIN_KERNELS = 2

NORMALIZER = "sorted_vec_predecessor_ns"

# Metric prefix excluded from the normalized baseline diff (see the module
# docstring).
UNGATED_PREFIX = "kernel_"

# Serve-mode floors: the measured manifest must be >= 100 MB (so the
# cold-start comparison is about a store that actually hurts to read
# eagerly), and the O(shards) mapped scan must beat the eager whole-file
# open by >= 10x. The committed measurement is orders of magnitude above
# the floor; 10x leaves room for page-cache luck on small CI disks.
STORE_BYTES_FLOOR = 100_000_000
MAPPED_SPEEDUP_FLOOR = 10.0

# Build-mode floor: the 8-thread store build must be >= 1.5x the serial
# one (the paper's §6.6 reports 1.5-2.0x from 2-8 sort threads alone, and
# the shard fan-out multiplies that), enforced only on >= 2-core machines.
BUILD_SPEEDUP_FLOOR = 1.5

# Build-mode floor for a single filter: the 8-thread Grafite build must be
# >= 1.2x its serial twin on >= 2-core machines. Grafite codes sit far below
# 2^64, so a sort that partitions on the top byte leaves one worker with
# all of them and the parallel build runs slower than the serial one; this
# floor catches that.
FILTER_SPEEDUP_FLOOR = 1.2


def metrics_of(path, schema):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        sys.exit(f"{path}: cannot read metrics file: {e.strerror or e}")
    except json.JSONDecodeError as e:
        sys.exit(f"{path}: not valid JSON: {e}")
    if not isinstance(doc, dict) or doc.get("schema") != schema:
        found = doc.get("schema") if isinstance(doc, dict) else type(doc).__name__
        sys.exit(f"{path}: unexpected schema {found!r} (wanted {schema!r})")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        sys.exit(f"{path}: 'metrics' object missing from the report")
    return metrics


def check_serve(path):
    metrics = metrics_of(path, "grafite-serve-v1")
    failures = []
    store_bytes = metrics.get("store_bytes", 0)
    speedup = metrics.get("mapped_speedup", 0.0)
    print(f"  store_bytes: {store_bytes} (floor {STORE_BYTES_FLOOR})")
    if not isinstance(store_bytes, (int, float)) or store_bytes < STORE_BYTES_FLOOR:
        failures.append(
            f"store_bytes {store_bytes} below the {STORE_BYTES_FLOOR} floor")
    print(f"  mapped_speedup: {speedup:.0f}x (floor {MAPPED_SPEEDUP_FLOOR}x)")
    if not isinstance(speedup, (int, float)) or speedup < MAPPED_SPEEDUP_FLOOR:
        failures.append(
            f"mapped_speedup {speedup}x below the {MAPPED_SPEEDUP_FLOOR}x floor")
    if failures:
        print("\nserve perf gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        sys.exit(1)
    print("serve perf gate passed")


def check_build(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"{path}: cannot read report: {e}")
    metrics = metrics_of(path, "grafite-build-v1")
    config = doc.get("config") if isinstance(doc, dict) else None
    cores = config.get("cores", 0) if isinstance(config, dict) else 0
    failures = []

    identical = metrics.get("bytes_identical")
    print(f"  bytes_identical: {identical} (must be 1)")
    if identical != 1:
        failures.append(
            f"bytes_identical is {identical!r}: a parallel build produced "
            "different bytes than the serial build")
    drift = metrics.get("bpk_drift")
    print(f"  bpk_drift: {drift} (must be 0)")
    if not isinstance(drift, (int, float)) or drift != 0:
        failures.append(f"bpk_drift is {drift!r}, must be exactly 0")

    for key, floor in (("speedup_at_8_threads", BUILD_SPEEDUP_FLOOR),
                       ("filter_speedup_at_8_threads", FILTER_SPEEDUP_FLOOR)):
        speedup = metrics.get(key, 0.0)
        if not isinstance(speedup, (int, float)):
            failures.append(f"{key} is {speedup!r}, not a number")
            continue
        if isinstance(cores, (int, float)) and cores >= 2:
            print(f"  {key}: {speedup:.2f}x (floor {floor}x, {cores} cores)")
            if speedup < floor:
                failures.append(
                    f"{key} {speedup}x below the {floor}x floor on a "
                    f"{cores}-core machine")
        else:
            print(f"  {key}: {speedup:.2f}x recorded on {cores} core(s); "
                  "floor waived (determinism still gated)")

    if failures:
        print("\nbuild perf gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        sys.exit(1)
    print("build perf gate passed")


def median_metrics(runs):
    """Per-metric median over several runs' metrics. Non-numeric values
    (the dispatch level's name) come from the first run; a metric missing
    from some run takes the median of the runs that have it."""
    merged = {}
    for key, first in runs[0].items():
        values = sorted(
            run[key] for run in runs
            if isinstance(run.get(key), (int, float)))
        if not isinstance(first, (int, float)) or not values:
            merged[key] = first
            continue
        mid = len(values) // 2
        merged[key] = (values[mid] if len(values) % 2
                       else (values[mid - 1] + values[mid]) / 2)
    return merged


def write_median(out, paths):
    runs = [metrics_of(path, "grafite-hotpath-v1") for path in paths]
    with open(paths[0]) as f:
        doc = json.load(f)
    doc["metrics"] = median_metrics(runs)
    doc["runs"] = len(runs)
    with open(out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote the per-metric median of {len(runs)} run(s) to {out}")


def normalized(metrics):
    scale = metrics.get(NORMALIZER)
    if not isinstance(scale, (int, float)):
        sys.exit(f"normalizer metric {NORMALIZER!r} missing from the run")
    if scale <= 0:
        sys.exit(f"normalizer {NORMALIZER} must be positive, got {scale}")
    return {
        key: value / scale
        for key, value in metrics.items()
        if key.endswith("_ns") and key != NORMALIZER
        and not key.startswith(UNGATED_PREFIX)
    }


def check_kernel_speedups(fresh, failures):
    """In-run SIMD-vs-scalar floor, active only when the run dispatched
    a vector level (a scalar-forced or scalar-only run has nothing to
    prove here)."""
    if not fresh.get("simd_active"):
        level = fresh.get("simd_level", "unknown")
        print(f"  simd dispatch inactive (level {level!r}); kernel floor skipped")
        return
    speedups = {
        key[len("kernel_speedup_"):]: value
        for key, value in fresh.items()
        if key.startswith("kernel_speedup_") and isinstance(value, (int, float))
    }
    passing = sorted(k for k, v in speedups.items() if v >= KERNEL_SPEEDUP_FLOOR)
    for name, value in sorted(speedups.items()):
        marker = "ok" if value >= KERNEL_SPEEDUP_FLOOR else "--"
        print(f"  [{marker}] kernel {name}: {value:.2f}x vs scalar")
    if len(passing) < KERNEL_SPEEDUP_MIN_KERNELS:
        failures.append(
            f"only {len(passing)} kernel(s) reached the {KERNEL_SPEEDUP_FLOOR}x "
            f"SIMD speedup floor (need {KERNEL_SPEEDUP_MIN_KERNELS}); "
            f"speedups: {speedups}")


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "serve":
        check_serve(sys.argv[2])
        return
    if len(sys.argv) == 3 and sys.argv[1] == "build":
        check_build(sys.argv[2])
        return
    if len(sys.argv) >= 4 and sys.argv[1] == "median":
        write_median(sys.argv[2], sys.argv[3:])
        return
    if len(sys.argv) < 3:
        sys.exit(__doc__.strip())
    baseline = metrics_of(sys.argv[1], "grafite-hotpath-v1")
    fresh = median_metrics(
        [metrics_of(path, "grafite-hotpath-v1") for path in sys.argv[2:]])
    print(f"  fresh: per-metric median of {len(sys.argv) - 2} run(s)")
    base_level, fresh_level = baseline.get("simd_level"), fresh.get("simd_level")
    if base_level != fresh_level:
        sys.exit(f"{sys.argv[1]} was recorded at SIMD level {base_level!r} but the "
                 f"fresh runs dispatched {fresh_level!r}: gate them against a "
                 "baseline recorded at the same level")
    base_norm = normalized(baseline)
    fresh_norm = normalized(fresh)

    failures = []
    for key, base_value in sorted(base_norm.items()):
        if key not in fresh_norm:
            failures.append(f"{key}: missing from the fresh run")
            continue
        ratio = fresh_norm[key] / base_value
        marker = "FAIL" if ratio > REGRESSION_TOLERANCE else "ok"
        print(f"  [{marker}] {key}: normalized {base_value:.3f} -> "
              f"{fresh_norm[key]:.3f} ({ratio:.2f}x)")
        if ratio > REGRESSION_TOLERANCE:
            failures.append(
                f"{key}: normalized regression {ratio:.2f}x exceeds "
                f"{REGRESSION_TOLERANCE}x")

    check_kernel_speedups(fresh, failures)

    if failures:
        print("\nperf smoke FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        sys.exit(1)
    print("perf smoke passed")


if __name__ == "__main__":
    main()
