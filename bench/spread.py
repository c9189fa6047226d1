"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage:
    python3 bench/spread.py [--seeds 1-10] [--out FILE]

It runs two sets, one after the other.  A set runs ``run.py`` once per
workload and seed, one run at a time, with the run length of BENCHMARK.json.
For each metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread (Q3 - Q1) / median; it also
prints the tail of the item times pooled over the set's runs, by the rule of
``run.tail``, and the ``calibration_s`` of each run.  Then the second set's
medians are compared with the first set's: ``worse_by`` is the relative
change in the metric's bad direction, to be set against its bound.
``--out`` also writes everything as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
from run import tail  # noqa: E402


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int) -> tuple[dict, float, list[float]]:
    """(result, calibration_s, item seconds) of one untraced run."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    lines = done.stdout.strip().splitlines()
    field = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines[:-1] if " " in line}
    calibration = float(field["calibration_s"].split()[0])
    return json.loads(lines[-1]), calibration, json.loads(field["item_seconds"])


def run_set(seed_list: list[int], bounds: dict) -> dict:
    summary = {}
    for w in SPEC["workloads"]:
        workload = w["name"]
        values: dict[str, list[float]] = {}
        units, calibration, pooled = {}, [], []
        started = time.perf_counter()
        for seed in seed_list:
            result, cal, item_seconds = run_once(workload, seed)
            calibration.append(cal)
            pooled += item_seconds
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"{workload}: {len(seed_list)} runs in {time.perf_counter() - started:.0f} s")
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "unit": units[name], "values": vals}
            steady = "ok" if spread < bounds[name] / 3 else "above a third of the bound"
            print(f"  {name:<28} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f}  bound {bounds[name]:g}  {steady}")
        value, pct = tail(pooled)
        print(f"  pooled item_s_tail           {value:.6g} s  (p{pct:.2f} of {len(pooled)} items)")
        print(f"  calibration_s                {min(calibration):.4f}-{max(calibration):.4f} s")
        rows["pooled_item_s_tail"] = {"value": value, "percentile": pct, "samples": len(pooled), "unit": "s"}
        rows["calibration_s"] = {"values": calibration, "unit": "s"}
        summary[workload] = rows
    return summary


def median_change(first: dict, later: dict) -> dict:
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    out = {}
    for workload, rows in later.items():
        out[workload] = {}
        for name in better:
            a, b = first[workload][name]["median"], rows[name]["median"]
            worse_by = (b - a) / a if better[name] == "lower" else (a - b) / a
            out[workload][name] = worse_by
            verdict = "ok" if worse_by <= bounds[name] else "WORSE than the bound"
            print(f"  {workload:<16} {name:<16} worse_by {worse_by:+.4f}  bound {bounds[name]:g}  {verdict}")
    return out


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10", type=seeds)
    parser.add_argument("--out")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    sets = []
    for k in (1, 2):
        print(f"set {k}")
        sets.append(run_set(args.seeds, bounds))
    print("set 2 against set 1")
    change = median_change(*sets)
    if args.out:
        Path(args.out).write_text(json.dumps({"sets": sets, "median_change": change}, indent=2) + "\n")


if __name__ == "__main__":
    main()
