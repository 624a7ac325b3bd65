"""Output checks that do not trust the program's fast path.

Every operation's artifacts are checked against a reference built here:
the winner is re-scored through a fresh `fem.assemble` (the element loop,
not the evaluator's precomputed unit-stiffness stack), the modal solve
with its rigid-body check, `select_modes` and the objective. Mode shapes
are checked by their residual against that independently assembled pair.

Artifacts are not compared byte for byte with another commit's: a valid
roundoff-level change can move the swarm's trajectory.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from femselect import fem, modal, objective
from femselect.beam_structure import (
    build_h_beam_geometry,
    h_beam_section,
    measured_data,
    model_catalog,
    nominal_material,
)

# The reference path differs from the program's in summation order only
# (element loop against a tensordot of unit stiffnesses). Over 40 runs of
# all four presets that moved a score by at most 1.5e-10 relative and left
# a printed mode shape a residual of at most 1.7e-10; a defect moves
# either far more.
SCORE_RTOL = 1e-8
SHAPE_RTOL = 1e-8
ORTHO_ATOL = 1e-8


class OutputChecker:
    """Reference structure and model catalog shared by all checks."""

    def __init__(self) -> None:
        self.geometry = build_h_beam_geometry()
        self.material = nominal_material()
        self.section = h_beam_section()
        self.measured = measured_data()
        self.models = {m.model_id: m for m in model_catalog()}

    def system(self, model_id: int, position) -> fem.GlobalSystem:
        moduli = np.empty(len(self.geometry.elements))
        for j, group in enumerate(self.models[model_id].groups):
            moduli[[e - 1 for e in group]] = position[j]
        return fem.assemble(self.geometry, moduli, self.material, self.section)

    def score(self, model_id: int, position, kind: str) -> float:
        result = modal.natural_frequencies(self.system(model_id, position))
        r = objective.residuals(self.measured, modal.select_modes(result, self.measured))
        d = self.models[model_id].d
        return (objective.aic(r, d) if kind == "AIC" else objective.sse(r, d)).value

    def check(self, out: Path, seed: int, kind: str, n_iterations: int, shapes: bool) -> list[str]:
        """Problems found in one run's artifacts; empty when all hold."""
        result = json.loads((out / "result.json").read_text())
        problems = []
        if result["seed"] != seed:
            problems.append(f"seed {result['seed']} != {seed}")
        swarm = result["config"]["swarm"]
        if (swarm["n_iterations"], swarm["objective_kind"]) != (n_iterations, kind):
            problems.append("config echo does not match the requested run")

        ranking = result["ranking"]
        if sorted(e["model_id"] for e in ranking) != sorted(self.models):
            problems.append("ranking does not list every model once")
        keys = [(_finite_or_inf(e["fitness"]), e["d"], e["model_id"]) for e in ranking]
        if keys != sorted(keys):
            problems.append("ranking is not sorted best first")
        winner = ranking[0]
        reference = self.score(winner["model_id"], winner["position"], kind)
        if not math.isclose(winner["fitness"], reference, rel_tol=SCORE_RTOL):
            problems.append(f"winner fitness {winner['fitness']!r} != reference {reference!r}")

        trace = np.loadtxt(out / "convergence.csv", delimiter=",", skiprows=1, ndmin=2)
        if trace.shape[0] != n_iterations:
            problems.append(f"{trace.shape[0]} convergence rows, expected {n_iterations}")
        else:
            if not np.array_equal(trace[:, 0], np.arange(1, n_iterations + 1)):
                problems.append("convergence iterations are not 1..N")
            gbest = trace[:, 3]
            if np.any(np.diff(gbest) > 0):
                problems.append("global best increased")
            if gbest[-1] != winner["fitness"] or trace[-1, 2] != winner["model_id"]:
                problems.append("final global best differs from the ranking winner")
            positions = trace[:, 12:]
            if np.any(positions < swarm["m_min"]) or np.any(positions > swarm["m_max"]):
                problems.append("a position left [m_min, m_max]")

        if shapes:
            problems.extend(self._check_shapes(out / "mode_shapes.csv", winner))
        return problems

    def _check_shapes(self, path: Path, winner: dict) -> list[str]:
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        system = self.system(winner["model_id"], winner["position"])
        k, m = system.k_global, system.m_global
        frequencies, phi = table[:, 1], table[:, 2:].T
        reference = modal.natural_frequencies(system).frequencies_hz[: len(frequencies)]
        problems = []
        if table.shape != (13, 2 + k.shape[0]):
            problems.append(f"mode_shapes.csv has shape {table.shape}")
        lam = (2.0 * np.pi * frequencies) ** 2
        k_phi = k @ phi
        n_rigid = modal.rigid_body_count(lam)
        k_norm = np.linalg.norm(k, 2)
        for i in range(len(frequencies)):
            if i < n_rigid:
                ratio = np.linalg.norm(k_phi[:, i]) / (k_norm * np.linalg.norm(phi[:, i]))
            else:
                ratio = np.linalg.norm(k_phi[:, i] - lam[i] * (m @ phi[:, i])) / np.linalg.norm(k_phi[:, i])
                if not math.isclose(frequencies[i], reference[i], rel_tol=SCORE_RTOL):
                    problems.append(f"mode {i + 1} frequency differs from the reference")
            if ratio > SHAPE_RTOL:
                problems.append(f"mode {i + 1} residual {ratio:.2e} > {SHAPE_RTOL:.0e}")
        if np.max(np.abs(phi.T @ m @ phi - np.eye(phi.shape[1]))) > ORTHO_ATOL:
            problems.append("mode shapes are not M-orthonormal")
        return problems


def _finite_or_inf(value) -> float:
    return math.inf if value is None or math.isnan(value) else value
