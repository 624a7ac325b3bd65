"""A fixed reference kernel that gauges the host's speed at the moment.

On a shared host the same computation runs slower or faster for seconds
to minutes at a time, whatever the program does: the 5-s medians of a
fixed loop of 78x78 eigenvalue solves on a 2-vCPU host ranged from 23 to
33 ms over two minutes. Wall times measured minutes apart then differ by
more than a useful bound. The benchmark therefore runs
this kernel in the gaps between operations and reports each operation's
latency in units of the kernel's time around it (unit `ref`). A change to
femselect moves that ratio; a slower or faster host moves both sides
alike.

The kernel uses numpy and scipy only, never femselect, so no change to
the program can move it. One pass has the shape of the program's
fitness evaluation: a stiffness summed from 12 fixed 78x78 element
matrices, a generalized eigenvalue solve against a fixed mass matrix,
and a pure-Python bookkeeping step like the swarm's per-particle update.
Its result is compared with the first pass's on every pass.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

N_DOF = 78
N_ELEMENTS = 12
SOLVES_PER_PASS = 4


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(91022)
        basis = rng.standard_normal((N_ELEMENTS, N_DOF, N_DOF))
        self.stack = np.einsum("eij,ekj->eik", basis, basis) / N_DOF
        b = rng.standard_normal((N_DOF, N_DOF))
        self.mass = b @ b.T / N_DOF + np.eye(N_DOF)
        self.weights = [rng.uniform(0.5, 1.5, N_ELEMENTS) for _ in range(SOLVES_PER_PASS)]
        self.expected = self._pass()
        self.passes = 0
        self.mismatches = 0

    def _pass(self) -> float:
        best = float("inf")
        best_at = -1
        velocity = [0.0] * N_ELEMENTS
        for i, w in enumerate(self.weights):
            k = np.tensordot(w, self.stack, axes=1)
            eig = scipy.linalg.eigh(k, self.mass, eigvals_only=True)
            fitness = float(np.sum(np.sqrt(eig[:5])))
            if fitness < best:
                best, best_at = fitness, i
            position = w.tolist()
            for j in range(N_ELEMENTS):
                velocity[j] = 0.7 * velocity[j] + 0.3 * (position[j] - 1.0)
                position[j] = min(max(position[j] + velocity[j], 0.5), 1.5)
        return best + best_at + sum(velocity)

    def unit_seconds(self, target: float) -> float:
        """Run passes until they have taken at least `target` seconds (at
        least one pass); return the mean time of one pass."""
        count = 0
        start = time.perf_counter()
        while True:
            value = self._pass()
            count += 1
            self.mismatches += value != self.expected
            elapsed = time.perf_counter() - start
            if elapsed >= target:
                self.passes += count
                return elapsed / count
