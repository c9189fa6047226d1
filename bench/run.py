"""The driftless benchmark.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and README.md): oracle-battery, spin-switch,
closed-form-cli.  One client runs the items of a workload one after the
other (closed loop, single thread, BLAS pinned to one thread) in whole
rounds until S seconds have passed; the first round always completes.

--trace 0 prints the end-to-end metrics.  --trace 1 runs round 0 untraced
and then traced, prints the per-layer metrics and writes the spans to
.bench_out/trace-<workload>-<seed>.npz.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  The
exit code is 0 only if every item passed its checks; it is 2 when the
program cannot be imported.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# workloads, metric names and units are declared once, in BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 9
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
# err_ratio_max is reported as at least this: a check passed by six orders of
# magnitude is at rounding level (closed-form-cli reads about 8e-10), where a
# reordering of float arithmetic would read as an accuracy change
ERR_RATIO_FLOOR = 1e-6


@dataclass
class Record:
    kind: str
    seconds: float
    outcome: object
    round: int


def tail(samples) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least
    TAIL_BEYOND samples above it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_rounds(workload, seed, out_dir, seconds=None, rounds=None, tracer=None):
    """Run whole rounds until ``seconds`` have passed, or exactly ``rounds``."""
    from workloads import Outcome
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    records = []
    r = 0
    start = time.perf_counter()
    with span("harness.run"):
        while r < rounds if rounds is not None else (r == 0 or time.perf_counter() - start < seconds):
            with span("harness.inputs"):
                items = workload.round(seed, r, out_dir)
            for item in items:
                if tracer is not None:
                    tracer.item_id = len(records)
                error = None
                with span("harness.item"):
                    t0 = time.perf_counter()
                    try:
                        out = item.run()
                    except Exception as exc:  # an item that raises is a failed item
                        error = exc
                    seconds_item = time.perf_counter() - t0
                with span("harness.check"):
                    if error is not None:
                        outcome = Outcome([f"raised {error!r}"])
                    else:
                        try:
                            outcome = item.check(out)
                        except Exception as exc:  # unreadable output fails the item
                            outcome = Outcome([f"check raised {exc!r}"])
                records.append(Record(item.kind, seconds_item, outcome, r))
            r += 1
    return records, r


def setup_seconds(workload: str, env: dict) -> float:
    """Median set-up time over fresh interpreters, after one unmeasured start
    that fills the bytecode cache."""
    times = []
    for k in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), workload],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        if k:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def calibration_seconds() -> float:
    """Median of three runs of a fixed pure-Python loop, to compare machines."""
    def once():
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(1_000_000):
            acc += math.sqrt(i) * 0.5
        return time.perf_counter() - t0
    return statistics.median(once() for _ in range(3))


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "driftless").glob("*.py"))


def summarize(records):
    secs = [r.seconds for r in records]
    tail_value, tail_pct = tail(secs)
    return {
        "items_per_s": len(secs) / sum(secs),
        "item_s_p50": statistics.median(secs),
        "item_s_tail": tail_value,
        # over round 0 only, which every run completes: a function of the seed
        "err_ratio_max": max(ERR_RATIO_FLOOR, *(r.outcome.err_ratio for r in records if r.round == 0)),
    }, tail_pct


def report_failures(records) -> None:
    for i, r in enumerate(records):
        if not r.outcome.ok:
            print(f"FAILED item {i} ({r.kind}): {'; '.join(r.outcome.failures)}")


def report_kinds(records) -> None:
    kinds = {}
    for r in records:
        kinds.setdefault(r.kind, []).append(r.seconds)
    for kind, secs in sorted(kinds.items()):
        print(f"  {kind:<22} n={len(secs):<4} median {statistics.median(secs):.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, str(BENCH))
    try:
        import tracer as tracing
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    out_root = ROOT / ".bench_out"
    out_dir = out_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    os.environ[workloads.cli.OUT_DIR_ENV] = str(out_dir)
    try:
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
        # metadata for comparing machines, not a metric; bench/spread.py reads it
        print(f"calibration_s {calibration_seconds():.6f}  (seconds, fixed 1e6-step Python loop, median of 3)")
        setup = None if args.trace else setup_seconds(args.workload, dict(os.environ))
        # The traced run covers round 0 only, untraced and then traced, so
        # that its counts are a function of the seed and repeat exactly.
        budget = {"rounds": 1} if args.trace else {"seconds": args.seconds}
        records, rounds = run_rounds(workload, args.seed, str(out_dir), **budget)
        summary, tail_pct = summarize(records)
        all_records = list(records)
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                traced, _ = run_rounds(workload, args.seed, str(out_dir), rounds=1, tracer=tracer)
            all_records += traced
            traced_summary, _ = summarize(traced)
            metrics = tracing.layer_metrics(tracer)
            metrics.update(tracing.harness_metrics(tracer))
            metrics["cli.unexpected_exits"] = sum(r.outcome.exit_mismatch for r in traced)
            metrics["trace.overhead_frac"] = 1.0 - traced_summary["items_per_s"] / summary["items_per_s"]
            trace_path = out_root / f"trace-{args.workload}-{args.seed}.npz"
            tracer.save(str(trace_path))
            print(f"spans written to {trace_path} ({len(tracer.start)} spans)")
            declared = SPEC["per_layer"]
        else:
            metrics = dict(summary)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["setup_s"] = setup
            metrics["src_lines"] = src_lines()
            declared = SPEC["end_to_end"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = sum(not r.outcome.ok for r in all_records)
    report_failures(all_records)
    print(f"rounds {rounds}  items {len(records)} per pass")
    report_kinds(records)
    # per-item times, which bench/spread.py pools over the runs of a set
    print("item_seconds " + json.dumps([r.seconds for r in records]))
    worst = max((r for r in records if r.round == 0), key=lambda r: r.outcome.err_ratio)
    print(f"worst error ratio {worst.outcome.err_ratio:.4g}: {worst.kind}, {worst.outcome.worst}")
    print(f"failed_frac {failed / len(all_records):.6g}  ({failed} of {len(all_records)} items)")
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        note = ""
        if name == "item_s_tail":
            note = f"  (p{tail_pct:.1f} of {len(records)} items, {TAIL_BEYOND} beyond)"
        print(f"{name:<28} {value:.6g} {units[name]}{note}")
    result = {
        "correct": failed == 0,
        "attempted": len(all_records),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
