#!/usr/bin/env python3
"""femselect benchmark: closed-loop CLI workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload {preset_run,seed_sweep,short_runs_shapes,all}
                             --seed N --seconds S --trace {0,1}

Load model: a closed loop with one client. Each operation is one
`femselect.cli.main([...])` call in this process and starts after the
previous one returns. BLAS is pinned to one thread. Every swarm seed is
derived from `--seed`; the program only receives the generated command
lines and config files. Artifacts go to a scratch directory under
`.perfbench-out/` in the checkout and are deleted once checked.

Workloads, and why each was chosen:

* preset_run: one 500-iteration `preset --simulation 3` run (adaptive
  inertia, AIC), the latency a CLI user waits for. Fitness evaluation,
  and in it the eigenvalue solve, dominates.
* seed_sweep: `preset --simulation 1` (no inertia, AIC) over consecutive
  seeds, the paper's model-selection experiment, and the workload that
  batching across seeds would serve. Its share of repeated evaluations
  is the same as preset_run's (swarm.repeat_eval_ratio 0.111 on both),
  so neither workload isolates an evaluation cache.
* short_runs_shapes: `run --config` with a 2-iteration budget and
  `emit_mode_shapes: true`. Set-up (building the evaluator), the
  eigenvector solve with its residual check, config loading and artifact
  writes carry a large share here and little elsewhere.

Operations run in phases: a phase is the workload's unit of work (one
preset run, a 2-seed sweep, a batch of 10 short runs). Phases repeat
on fresh seeds while the next one should end within `--seconds`; outputs
are checked between phases, outside the timed region. One short warm-up
run comes first.

End-to-end metrics (`--trace 0`): setup_s (fresh interpreter: import,
first ModelEvaluator, first evaluate; the median of several, half taken
before the timed phases and half after), run_p50_ref and run_tail_ref
(operation latency at the median and at the highest percentile with at
least ten samples beyond it), evals_per_ref (swarm fitness evaluations
per unit of operation time), peak_rss_mb. Failed operations count
against `attempted`; an operation fails if it raises, exits nonzero, or
fails the output check.

Latencies are given in `ref`, the time of one pass of a fixed kernel
that does not use femselect (see reference.py), run in the gaps between
operations for a fifth of the operation time: each operation's latency
is divided by the mean pass time in the gaps just before and after it.
On a shared 2-vCPU host, over 30-s runs a few minutes apart, the raw
wall figures of one workload spread by 10-18% of their median (quartile
distance) and these ratios by 2-5%. The report line also gives the raw wall
figures in seconds (wall_s, run_s_p50, run_s_tail, evals_per_s) and the
reference pass time, ref_s.

Per-layer metrics (`--trace 1`): spans recorded by wrappers installed
from outside `src/` (see tracing.py). Each traced phase is paired with
an untraced phase on the same operations, in alternating order, and the
median difference is the tracing overhead; the report gives the number
of pairs and the quartile spread of the differences beside it. A traced
run is incorrect if a layer target is missing or its spans do not nest
(see `tracing.span_problems`). All spans are written to
`.perfbench-out/spans-<workload>-seed<seed>.csv.gz`.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. `--workload all` runs every
workload in this one process and prefixes each metric with its
workload; peak_rss_mb is then the high-water mark of the process so far.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

PRESET_ITERATIONS = 500
SHORT_ITERATIONS = 2
OBJECTIVE = {1: "AIC", 2: "SSE", 3: "AIC", 4: "SSE"}
SETUP_SAMPLES = 12
TAIL_BEYOND = 10
# Reference time run after each operation, as a share of its latency.
REF_SHARE = 0.2

SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import numpy as np
import femselect
from femselect.runner import ModelEvaluator
evaluator = ModelEvaluator()
evaluator.evaluate(femselect.model_catalog()[0], np.full(5, 7.2e10), "AIC")
print(time.perf_counter() - t0)
"""


@dataclass(frozen=True)
class Op:
    """One CLI call and what its artifacts must show."""

    argv: list[str]
    out: Path
    seed: int
    kind: str
    n_iterations: int
    shapes: bool


def preset_op(simulation: int):
    def make(seed: int, out: Path) -> Op:
        argv = ["preset", "--simulation", str(simulation), "--seed", str(seed), "--out", str(out)]
        return Op(argv, out, seed, OBJECTIVE[simulation], PRESET_ITERATIONS, False)

    return make


def short_run_op(seed: int, out: Path) -> Op:
    preset = 1 + seed % 4
    config = out.with_suffix(".json")
    config.write_text(json.dumps({
        "preset": preset,
        "seed": seed,
        "output_dir": str(out),
        "emit_mode_shapes": True,
        "swarm": {"n_iterations": SHORT_ITERATIONS},
    }))
    return Op(["run", "--config", str(config)], out, seed, OBJECTIVE[preset], SHORT_ITERATIONS, True)


# name -> (operations per phase, operation factory)
WORKLOADS = {
    "preset_run": (1, preset_op(3)),
    "seed_sweep": (2, preset_op(1)),
    "short_runs_shapes": (10, short_run_op),
}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile that leaves
    at least TAIL_BEYOND samples above it, but never below the median: a
    run of fewer than 2 * TAIL_BEYOND + 1 operations reports its median."""
    ordered = sorted(latencies)
    k = max(len(ordered) - TAIL_BEYOND - 1, len(ordered) // 2)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def rounds(seconds: float):
    """Yield 0, 1, ... while the next round, if it takes the median time
    of the rounds so far, should end within `seconds`. The first round
    always runs."""
    begin = time.perf_counter()
    durations: list[float] = []
    while not durations or time.perf_counter() - begin + median(durations) <= seconds:
        start = time.perf_counter()
        yield len(durations)
        durations.append(time.perf_counter() - start)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(cfg: dict) -> dict:
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return {"name": dep.get("name"), "version": dep.get("version")}

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "workload_seed": seed,
    }


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; a
    checkout exported without history reports 'unknown'."""
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def setup_samples(count: int) -> list[float]:
    """Set-up times of `count` fresh interpreters. Run after the warm-up,
    which has already compiled the package's bytecode."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


class Bench:
    """One workload's measurement loop, checks and metrics."""

    def __init__(self, name: str, seed: int, work: Path, cli, checker):
        self.phase_ops, self.make_op = WORKLOADS[name]
        self.base_seed = random.Random(f"{name}:{seed}").randrange(1, 1_000_000)
        self.work = work
        self.cli = cli
        self.checker = checker
        self.n_models = len(checker.models)
        self.attempted = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []
        # Mean reference pass time in the gap before each operation, and
        # in the gap after the last one of each phase.
        self.gaps: list[list[float]] = []
        self.evals = 0

    def ops(self, first: int, count: int) -> list[Op]:
        return [self.make_op(self.base_seed + k, self.work / f"op{k}") for k in range(first, first + count)]

    def run_phase(self, ops: list[Op], tracer=None, reference=None) -> tuple[float, int]:
        """Run the operations back to back; return the phase wall time
        and the bytes the checked operations wrote. With a reference,
        time it before, between and after the operations; the phase wall
        time then counts the operations only."""
        outcomes = []
        phase = tracer.phase() if tracer is not None else contextlib.nullcontext()
        gaps = []
        ref_time = 0.0
        t0 = time.perf_counter()
        with phase:
            for op in ops:
                if reference is not None:
                    before = time.perf_counter()
                    previous = self.latencies[-1] if self.latencies else 0.0
                    gaps.append(reference.unit_seconds(REF_SHARE * previous))
                    ref_time += time.perf_counter() - before
                start = time.perf_counter()
                captured = io.StringIO()
                try:
                    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                        outcome = self.cli.main(op.argv)
                except SystemExit as exc:
                    outcome = exc.code
                except Exception:
                    outcome = traceback.format_exc()
                self.latencies.append(time.perf_counter() - start)
                outcomes.append((outcome, captured.getvalue()))
            if reference is not None:
                before = time.perf_counter()
                gaps.append(reference.unit_seconds(REF_SHARE * self.latencies[-1]))
                ref_time += time.perf_counter() - before
                self.gaps.append(gaps)
        wall = time.perf_counter() - t0 - ref_time
        written = 0
        for op, (outcome, output) in zip(ops, outcomes):
            self.attempted += 1
            problems = self.check(op, outcome, output)
            if problems:
                self.failures.append(f"{op.argv}: {'; '.join(problems)}")
            else:
                self.evals += self.n_models * (op.n_iterations + 1)
                written += sum(f.stat().st_size for f in op.out.iterdir())
            shutil.rmtree(op.out, ignore_errors=True)
        return wall, written

    def check(self, op: Op, outcome, output: str) -> list[str]:
        if outcome != 0:
            return [f"exit {outcome!r}: {output.strip()[-500:]}"]
        try:
            return self.checker.check(op.out, op.seed, op.kind, op.n_iterations, op.shapes)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable artifacts: {exc!r}"]

    def warm_up(self, reference=None) -> None:
        """One short run, checked and counted as attempted but left out of
        the timings: it loads every lazily imported module on the path."""
        self.run_phase([short_run_op(self.base_seed - 1, self.work / "warmup")], reference=reference)
        self.latencies.clear()
        self.gaps.clear()
        self.evals = 0

    def relative_latencies(self) -> list[float]:
        """Each operation's latency over the mean reference pass time in
        the gaps on either side of it."""
        units = [(g[i] + g[i + 1]) / 2 for g in self.gaps for i in range(len(g) - 1)]
        return [latency / unit for latency, unit in zip(self.latencies, units, strict=True)]

    def measure(self, seconds: float, reference) -> tuple[dict, dict]:
        """End-to-end metrics, and the raw wall figures they derive from."""
        self.warm_up(reference)
        # Set-up samples on both sides of the timed phases, so that their
        # median spans the run's whole window rather than a few seconds.
        setup = setup_samples(SETUP_SAMPLES // 2)
        walls = []
        for i in rounds(seconds):
            walls.append(self.run_phase(self.ops(i * self.phase_ops, self.phase_ops),
                                        reference=reference)[0])
        setup += setup_samples(SETUP_SAMPLES - len(setup))
        relative = self.relative_latencies()
        value, self.tail_percentile, self.tail_samples = tail(relative)
        metrics = {
            "setup_s": (median(setup), "s"),
            "run_p50_ref": (median(relative), "ref"),
            "run_tail_ref": (value, "ref"),
            "evals_per_ref": (self.evals / sum(relative), "1/ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        raw = {
            "wall_s": (median(walls), "s"),
            "run_s_p50": (median(self.latencies), "s"),
            "run_s_tail": (tail(self.latencies)[0], "s"),
            "evals_per_s": (self.evals / sum(walls), "1/s"),
            "ref_s": (median(u for g in self.gaps for u in g), "s"),
        }
        return metrics, raw

    def measure_traced(self, seconds: float, tracer) -> dict[str, tuple[float, str]]:
        from tracing import layer_metrics, self_sum_error, span_problems

        self.warm_up()
        traced, untraced = [], []
        for i in rounds(seconds):
            ops = self.ops(i * self.phase_ops, self.phase_ops)
            for with_trace in (True, False) if i % 2 == 0 else (False, True):
                wall, written = self.run_phase(ops, tracer if with_trace else None)
                if with_trace:
                    traced.append(wall)
                    tracer.phase_counters[-1]["bytes_written"] += written
                else:
                    untraced.append(wall)
        self.self_sum_error = self_sum_error(tracer, traced)
        self.span_problems = span_problems(tracer)
        metrics = layer_metrics(tracer, traced)
        differences = [t - u for t, u in zip(traced, untraced)]
        overhead = median(differences)
        self.overhead_pairs = len(differences)
        if len(differences) > 1:
            q1, _, q3 = quantiles(differences, n=4)
            self.overhead_iqr = q3 - q1
        else:
            self.overhead_iqr = None
        metrics["trace.wall_s"] = (median(traced), "s")
        metrics["trace.untraced_wall_s"] = (median(untraced), "s")
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_share"] = (overhead / median(untraced), "ratio")
        return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, cli, checker) -> dict:
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(name, seed, work, cli, checker)
    raw = {}
    reference = None
    try:
        if trace:
            from tracing import Tracer, layer_targets
            import femselect.runner
            import femselect.swarm

            tracer = Tracer(layer_targets(cli, femselect.runner, femselect.swarm))
            metrics = bench.measure_traced(seconds, tracer)
            tracer.write(OUT / f"spans-{name}-seed{seed}.csv.gz")
        else:
            from reference import Reference

            reference = Reference()
            metrics, raw = bench.measure(seconds, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {
        "workload": name,
        "trace": int(trace),
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "error_rate": len(bench.failures) / bench.attempted,
        "failures": bench.failures[:10],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    correct = not bench.failures
    if reference is not None:
        report["raw"] = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
        report["reference_passes"] = reference.passes
        report["reference_mismatches"] = reference.mismatches
        correct = correct and not reference.mismatches
    if trace:
        report["self_sum_error"] = bench.self_sum_error
        report["missing_layers"] = tracer.missing
        report["span_problems"] = bench.span_problems
        report["trace_overhead_pairs"] = bench.overhead_pairs
        report["trace_overhead_iqr_s"] = bench.overhead_iqr
        # A bookkeeping identity (see tracing.self_sum_error), kept as a
        # guard on the span arithmetic.
        correct = correct and not bench.span_problems and bench.self_sum_error < 1e-3
    else:
        report["run_tail_percentile"] = bench.tail_percentile
        report["run_tail_samples"] = bench.tail_samples
    report["correct"] = correct
    return report


def print_report(report: dict) -> None:
    print(f"[{report['workload']}] trace={report['trace']} "
          f"attempted={report['attempted']} failed={report['failed']} "
          f"error_rate={report['error_rate']:.6g} correct={report['correct']}")
    for key, metric in report["metrics"].items():
        print(f"  {key:<28} {metric['value']:>16.6g} {metric['unit']}")
    for key, metric in report.get("raw", {}).items():
        print(f"  raw {key:<24} {metric['value']:>16.6g} {metric['unit']}")
    if report.get("reference_mismatches"):
        print(f"  FAILED reference kernel gave another result in "
              f"{report['reference_mismatches']} of {report['reference_passes']} passes")
    if "trace_overhead_pairs" in report:
        iqr = report["trace_overhead_iqr_s"]
        print(f"  trace.overhead_s is the median of {report['trace_overhead_pairs']} pairs, "
              f"quartile spread {'n/a' if iqr is None else f'{iqr:.4g} s'}")
    if "run_tail_percentile" in report:
        print(f"  run_tail_ref and raw run_s_tail are p{report['run_tail_percentile']:.4g} "
              f"of {report['run_tail_samples']} samples")
    for failure in report["failures"] + report.get("span_problems", []):
        print(f"  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="femselect benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "femselect" / "__init__.py").is_file():
        print(f"femselect sources not found under {SRC}", file=sys.stderr)
        return 2
    # Tiny 78x78 solves lose to BLAS thread overhead; pin before numpy loads.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import femselect.cli
    from checks import OutputChecker

    env = environment(args.seed)
    print("env " + json.dumps(env))
    checker = OutputChecker()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace), femselect.cli, checker)
        report["env"] = env
        print_report(report)
        print("report " + json.dumps(report))
        reports.append(report)

    def key(report: dict, metric: str) -> str:
        return metric if len(reports) == 1 else f"{report['workload']}.{metric}"

    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {key(r, m): v for r in reports for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
