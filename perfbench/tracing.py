"""Span tracing of the femselect layers, installed from outside the package.

Each traced callable is replaced, at the name its caller resolves, by a
wrapper that records a span (name, parent span, start, end) into flat
in-memory arrays. Nothing under ``src/`` changes: `Tracer.installed`
patches module and class attributes and restores the originals on exit.

A few wrappers also count facts at the boundary where they happen:
evaluations that repeat a point already evaluated in the same run, and
evaluations that strictly improved their particle's personal best.
"""

from __future__ import annotations

import contextlib
import gzip
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# Span name of the harness's own root span around one phase.
ROOT = "harness"


def layer_targets(cli, runner, swarm) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every traced callable.

    Names are patched where the caller looks them up: the CLI resolves
    its helpers in `femselect.cli`, the runner in `femselect.runner`, and
    the runner reaches the swarm through the `femselect.swarm` module.
    """
    evaluator = runner.ModelEvaluator
    return [
        (cli, "main", "cli"),
        (cli, "load_config", "runner.load_config"),
        (cli, "preset_config", "runner.load_config"),
        (cli, "run_experiment", "runner.run"),
        (evaluator, "__init__", "runner.evaluator_build"),
        (evaluator, "evaluate", "runner.evaluate"),
        (evaluator, "stiffness", "fem.stiffness"),
        (runner, "beam_element_matrices", "fem.setup"),
        (runner, "transform_to_global", "fem.setup"),
        (runner, "assemble", "fem.setup"),
        (runner, "element_modulus_vector", "beam_structure.expand"),
        (runner, "generalized_eigenvalues", "modal.eigvals"),
        (runner, "solve_generalized_eigen", "modal.shapes"),
        (runner, "residuals", "objective.residuals"),
        (runner, "aic", "objective"),
        (runner, "sse", "objective"),
        (runner, "render_convergence_csv", "runner.render"),
        (runner, "render_result_json", "runner.render"),
        (runner, "_write_mode_shapes", "runner.mode_shapes"),
        (swarm, "run", "swarm"),
    ]


def _lookup(owner, attr):
    if isinstance(owner, type):
        return owner.__dict__.get(attr)
    return getattr(owner, attr, None)


class Tracer:
    """In-memory span store plus per-phase boundary counters."""

    def __init__(self, targets: list[tuple[object, str, str]]):
        self.targets = targets
        self.missing = sorted(
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _ in targets
            if _lookup(owner, attr) is None
        )
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        # One Counter per traced phase, and the index of its root span.
        self.phase_counters: list[Counter] = []
        self.phase_roots: list[int] = []
        self._seen: set = set()
        self._best: dict[int, float] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, span_name: str):
        name_id = self._name_id(span_name)

        def traced(*args, **kwargs):
            i = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    def _wrap_evaluate(self, fn, span_name: str):
        span = self._wrap(fn, span_name)

        def evaluate(evaluator, model, position, objective_kind):
            counters = self.phase_counters[-1]
            key = (model.model_id, objective_kind, np.asarray(position)[: model.d].tobytes())
            if key in self._seen:
                counters["repeat_evals"] += 1
            self._seen.add(key)
            score = span(evaluator, model, position, objective_kind)
            # A strict improvement on the running minimum of a particle's
            # scores is exactly the swarm's personal-best update rule.
            best = self._best.get(model.model_id)
            if best is not None and score.value < best:
                counters["pbest_improvements"] += 1
            if best is None or score.value < best:
                self._best[model.model_id] = score.value
            return score

        return evaluate

    def _wrap_swarm_run(self, fn, span_name: str):
        span = self._wrap(fn, span_name)

        def run(config, fitness, *args, **kwargs):
            counters = self.phase_counters[-1]

            def requested(*f_args, **f_kwargs):
                counters["swarm_evals"] += 1
                return fitness(*f_args, **f_kwargs)

            self._seen = set()
            self._best = {}
            record = span(config, requested, *args, **kwargs)
            counters["iterations"] += config.n_iterations
            counters["rows"] += len(record.rows)
            counters["failed_evals"] += len(record.failures)
            return record

        return run

    @contextlib.contextmanager
    def installed(self):
        """Patch every present target with its wrapper; restore on exit."""
        special = {"runner.evaluate": self._wrap_evaluate, "swarm": self._wrap_swarm_run}
        originals = []
        try:
            for owner, attr, span_name in self.targets:
                fn = _lookup(owner, attr)
                if fn is None:
                    continue
                wrap = special.get(span_name, self._wrap)
                setattr(owner, attr, wrap(fn, span_name))
                originals.append((owner, attr, fn))
            yield
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)

    @contextlib.contextmanager
    def phase(self):
        """One traced phase: a root span with the wrappers installed
        inside it, and a fresh set of boundary counters."""
        self.phase_counters.append(Counter())
        root = self._open(self._name_id(ROOT))
        self.phase_roots.append(root)
        try:
            with self.installed():
                yield self.phase_counters[-1]
        finally:
            self._close(root)

    def phase_totals(self) -> list[tuple[dict[str, float], dict[str, int]]]:
        """Per phase: self seconds and call count by span name. A span's
        self time is its duration minus the durations of its children."""
        start = np.array(self.start)
        dur = np.array(self.end) - start
        parent = np.array(self.parent)
        name = np.array(self.name)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        bounds = self.phase_roots + [len(start)]
        totals = []
        for lo, hi in zip(bounds, bounds[1:]):
            seconds = np.bincount(name[lo:hi], weights=self_time[lo:hi], minlength=len(self.names))
            calls = np.bincount(name[lo:hi], minlength=len(self.names))
            totals.append((
                {n: float(s) for n, s in zip(self.names, seconds)},
                {n: int(c) for n, c in zip(self.names, calls)},
            ))
        return totals

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV, times in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        lines = ["span,parent,name,start_s,end_s"]
        for i, (n, p, s, e) in enumerate(zip(self.name, self.parent, self.start, self.end)):
            lines.append(f"{i},{p},{self.names[n]},{s - t0:.9f},{e - t0:.9f}")
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("\n".join(lines) + "\n")


# Bytes one stiffness build reads: it sums 12 unit-modulus 78x78 float64
# element stiffnesses. Computed from the call count, not measured.
K_BYTES_PER_BUILD = 12 * 78 * 78 * 8


def layer_metrics(tracer: Tracer, walls: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, keyed by metric name.

    Counts are those of the first traced phase, whose operations the
    workload seed fixes, so they repeat exactly between runs of one seed.
    Seconds are self time, averaged per phase over all traced phases.
    Shares divide a layer's total self time by the total traced wall time.
    """
    totals = tracer.phase_totals()
    calls = totals[0][1]
    counters = tracer.phase_counters[0]
    n_phases = len(totals)
    wall_total = sum(walls)

    def self_s(*names: str) -> float:
        return sum(seconds.get(n, 0.0) for seconds, _ in totals for n in names) / n_phases

    def count(name: str) -> int:
        return calls.get(name, 0)

    evals = count("runner.evaluate")

    def per_eval(key: str) -> float:
        return counters[key] / evals if evals else 0.0

    return {
        "modal.eigvals_calls": (count("modal.eigvals"), "count"),
        "modal.eigvals_s": (self_s("modal.eigvals"), "s"),
        "modal.eigvals_share": (self_s("modal.eigvals") * n_phases / wall_total, "ratio"),
        "modal.shapes_calls": (count("modal.shapes"), "count"),
        "modal.shapes_s": (self_s("modal.shapes"), "s"),
        "fem.setup_s": (self_s("fem.setup"), "s"),
        "fem.stiffness_calls": (count("fem.stiffness"), "count"),
        "fem.stiffness_s": (self_s("fem.stiffness"), "s"),
        "fem.k_bytes_computed": (count("fem.stiffness") * K_BYTES_PER_BUILD, "B"),
        "beam_structure.expand_calls": (count("beam_structure.expand"), "count"),
        "beam_structure.expand_s": (self_s("beam_structure.expand"), "s"),
        "objective.calls": (count("objective"), "count"),
        "objective.s": (self_s("objective", "objective.residuals"), "s"),
        "runner.evaluate_calls": (evals, "count"),
        "runner.evaluate_self_s": (self_s("runner.evaluate"), "s"),
        "swarm.iterations": (counters["iterations"], "count"),
        "swarm.evals": (counters["swarm_evals"], "count"),
        "swarm.self_s": (self_s("swarm"), "s"),
        "swarm.failed_evals": (counters["failed_evals"], "count"),
        "swarm.repeat_eval_ratio": (per_eval("repeat_evals"), "ratio"),
        "swarm.pbest_improve_ratio": (per_eval("pbest_improvements"), "ratio"),
        "records.rows": (counters["rows"], "count"),
        "runner.load_config_s": (self_s("runner.load_config"), "s"),
        "runner.evaluator_builds": (count("runner.evaluator_build"), "count"),
        "runner.evaluator_build_s": (self_s("runner.evaluator_build"), "s"),
        "runner.render_s": (self_s("runner.render"), "s"),
        "runner.mode_shapes_s": (self_s("runner.mode_shapes"), "s"),
        "runner.run_self_s": (self_s("runner.run"), "s"),
        "runner.bytes_written": (counters["bytes_written"], "B"),
        "cli.calls": (count("cli"), "count"),
        "cli.self_s": (self_s("cli"), "s"),
        "harness.self_s": (self_s(ROOT), "s"),
    }


def self_sum_error(tracer: Tracer, walls: list[float]) -> float:
    """Relative gap between the summed self times of every span and the
    traced wall time measured by the harness around each phase.

    This is a bookkeeping identity: self times telescope to the root
    span, so it only compares the root span with the harness's clock
    around it. `span_problems` holds the checks that can catch a layer
    that is missing or counted twice."""
    total_self = sum(sum(seconds.values()) for seconds, _ in tracer.phase_totals())
    return abs(total_self - sum(walls)) / sum(walls)


def span_problems(tracer: Tracer) -> list[str]:
    """What makes the per-layer figures untrustworthy: a target that was
    not found (its layer would read 0), a span that does not lie inside
    its parent (negative self time), or a span directly inside a span of
    the same layer (one callable wrapped twice counts its calls twice)."""
    problems = [f"layer target not found: {name}" for name in tracer.missing]
    start, end = np.array(tracer.start), np.array(tracer.end)
    parent, name = np.array(tracer.parent), np.array(tracer.name)
    nested = parent >= 0
    outside = nested.copy()
    outside[nested] = (start[nested] < start[parent[nested]]) | (end[nested] > end[parent[nested]])
    if outside.any() or (end < start).any():
        problems.append(f"{int(outside.sum())} spans outside their parent")
    twice = nested.copy()
    twice[nested] = name[nested] == name[parent[nested]]
    for n in sorted(set(name[twice].tolist())):
        problems.append(f"layer {tracer.names[n]} nested in itself")
    return problems
