"""Benchmark entry point.

    python3 perfbench/run.py --workload {train,serve-single,serve-batch} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Human-readable tables and a provenance
record go to stdout first; the last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run.  A failed correctness check counts as a failed operation and
makes the exit code 1; a run that cannot start (no program source, a
server that never becomes ready) exits 2 without printing a result.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import BenchmarkError, emit, print_table, provenance, source_root  # noqa: E402

WORKLOADS = ("train", "serve-single", "serve-batch")
END_TO_END = (
    "train_s",
    "train_test_accuracy",
    "single_p50_ms",
    "single_tail_ms",
    "batch_rows_per_s",
    "batch_p50_ms",
    "batch_tail_ms",
    "setup_s",
    "peak_rss_mb",
)


def per_layer_units() -> dict:
    import serving
    import train

    return {
        **train.TRAIN_LAYER_UNITS,
        **serving.SERVE_LAYER_UNITS,
        **train.KERNEL_RATE_UNITS,
        "trace.overhead_ratio": "ratio",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    # Turn SIGTERM into SystemExit so every ``finally`` runs and no server
    # outlives an interrupted run.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        source_root()
        if args.workload == "train":
            import train

            result = train.run(args.seed, args.seconds, trace)
        else:
            import serving

            result = serving.run(args.workload, args.seed, args.seconds, trace)
    except BenchmarkError as error:
        print(f"benchmark cannot run: {error}", file=sys.stderr)
        return 2
    except Exception:  # noqa: BLE001 - any crash is a failed run, not a result
        traceback.print_exc()
        return 2

    metrics = result["metrics"]
    names = per_layer_units() if trace else END_TO_END
    if trace and args.workload == "train":
        # ``train`` starts no server: its serving layers did no work.
        import serving

        for name, unit in serving.SERVE_LAYER_UNITS.items():
            metrics[name] = {"value": 0.0, "unit": unit}
    missing = [name for name in names if name not in metrics]
    if missing:
        print(f"benchmark bug: metrics {missing} not measured", file=sys.stderr)
        return 2
    metrics = {name: metrics[name] for name in names}
    checks = result["checks"]
    failed_checks = sorted(name for name, ok in checks.items() if not ok)
    failed = result.get("failed_operations", 0) + len(failed_checks)

    record = provenance(args.workload, args.seed, trace)
    record["checks"] = checks
    record.update(result.get("details", {}))
    print("provenance " + json.dumps(record, default=float))
    print_table(
        f"{args.workload} ({'per-layer, traced' if trace else 'end-to-end'})",
        [(name, value["value"], value["unit"]) for name, value in metrics.items()],
    )
    if failed_checks:
        print(f"FAILED checks: {', '.join(failed_checks)}")
    emit(failed == 0, max(1, result["attempted"]), failed, metrics)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
