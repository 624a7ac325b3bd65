#!/usr/bin/env python3
"""Run the benchmark over many seeds and record medians, spreads and counts.

    python3 perfbench/baseline.py --out perfbench/baseline.json
    python3 perfbench/baseline.py --compare perfbench/baseline.json

This runs `run.py --trace 0` for seeds 0-9 on every workload, each run
measuring BENCHMARK.json's run_seconds. Seeds and workloads are
interleaved (seed 0 on every workload, then seed 1, ...), so that a host
that drifts during the record slows every workload alike instead of
showing up as spread across seeds. For every end-to-end metric it
reports the median, the quartiles (as `statistics.quantiles(values,
n=4)` gives them) and their distance as a share of the median, next to
the metric's bound in BENCHMARK.json; a spread of a third of the bound
or more is marked SPREAD. It then makes two traced runs of seed 0 per
workload and checks that their deterministic counts repeat exactly.
With `--compare`, each median is also checked against the median of an
earlier record, within its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Per-layer metrics that count work or outcomes; they must repeat exactly
# between traced runs of one seed.
DETERMINISTIC = [
    "runner.evaluate_calls",
    "swarm.evals",
    "modal.eigvals_calls",
    "modal.shapes_calls",
    "fem.stiffness_calls",
    "runner.evaluator_builds",
    "runner.bytes_written",
    "records.rows",
    "swarm.iterations",
    "swarm.failed_evals",
    "swarm.repeat_eval_ratio",
    "swarm.pbest_improve_ratio",
]


SEEDS = list(range(10))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark process; returns its report line as a dict."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} failed:\n{done.stderr}")
    report = next(json.loads(line[7:]) for line in lines if line.startswith("report "))
    final = json.loads(lines[-1])
    if not final["correct"] or final["failed"]:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} incorrect: {report['failures']}")
    return report


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--compare", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}

    untraced = {name: [] for name in workloads}
    for seed in SEEDS:
        for name in workloads:
            untraced[name].append(run(name, seed, seconds, 0))
            print(f"seed {seed} {name}: done", flush=True)

    record = {"seconds": seconds, "seeds": SEEDS, "order": "interleaved", "workloads": {}}
    ok = True
    for name in workloads:
        reports = untraced[name]
        record["env"] = reports[0]["env"]
        result = {"end_to_end": {}, "run_tail_samples": [r["run_tail_samples"] for r in reports],
                  "run_tail_percentile": [r["run_tail_percentile"] for r in reports]}
        print(f"[{name}] {len(SEEDS)} seeds, {seconds} s each")
        for metric, spec_m in bounds.items():
            summary = summarize([r["metrics"][metric]["value"] for r in reports])
            summary["unit"] = spec_m["unit"]
            summary["bound"] = spec_m["bound"]
            steady = summary["spread"] < spec_m["bound"] / 3
            verdict = "steady" if steady else "SPREAD"
            if metric in earlier.get(name, {}).get("end_to_end", {}):
                before = earlier[name]["end_to_end"][metric]["median"]
                change = (summary["median"] - before) / before
                worse = change if spec_m["better"] == "lower" else -change
                summary["change_vs_compare"] = change
                verdict += f", {change:+.2%} vs earlier" + (" WORSE" if worse > spec_m["bound"] else "")
                ok = ok and worse <= spec_m["bound"]
            ok = ok and steady
            print(f"  {metric:<12} median {summary['median']:.6g} {spec_m['unit']:<4} "
                  f"spread {summary['spread']:.2%} (bound {spec_m['bound']:.0%}) {verdict}")
            result["end_to_end"][metric] = summary
        # The wall figures the ref metrics derive from, for the record only:
        # their spread shows how much the host wandered.
        result["raw"] = {}
        for metric, first in reports[0]["raw"].items():
            summary = summarize([r["raw"][metric]["value"] for r in reports])
            summary["unit"] = first["unit"]
            result["raw"][metric] = summary
            print(f"  raw {metric:<12} median {summary['median']:.6g} {first['unit']:<4} "
                  f"spread {summary['spread']:.2%}")

        first, second = run(name, SEEDS[0], seconds, 1), run(name, SEEDS[0], seconds, 1)
        counts = {m: first["metrics"][m]["value"] for m in DETERMINISTIC}
        repeat = counts == {m: second["metrics"][m]["value"] for m in DETERMINISTIC}
        ok = ok and repeat
        result["counts"] = counts
        result["counts_repeat"] = repeat
        result["per_layer"] = {m: v["value"] for m, v in first["metrics"].items()}
        for key in ("self_sum_error", "missing_layers", "span_problems",
                    "trace_overhead_pairs", "trace_overhead_iqr_s"):
            result[key] = first[key]
        print(f"  counts repeat across two traced runs: {repeat}; tracing overhead "
              f"{first['metrics']['trace.overhead_s']['value']:.4g} s per phase, median of "
              f"{first['trace_overhead_pairs']} pairs, quartile spread {first['trace_overhead_iqr_s']}")
        record["workloads"][name] = result

    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print("all steady" if ok else "NOT all steady / repeating / within bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
