"""Fitness functions scoring a candidate model against the measured data.

Both objectives are minimized. AIC adds twice the parameter count to the
log residual variance, so every extra parameter must buy a residual
variance reduction of exp(2/n) to break even; SSE measures fit alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .beam_structure import MeasuredData

ObjectiveKind = Literal["AIC", "SSE"]

SIGMA_SQ_FLOOR = 1e-12  # Hz^2, guards log(0) on a perfect fit


@dataclass(frozen=True)
class ObjectiveValue:
    """A scored fitness: its kind, `value` (dimensionless for AIC, Hz^2
    for SSE), the mean squared residual `sigma_squared` and the residual
    count n. Scoring a (P, n) stack of residual vectors gives `value` and
    `sigma_squared` as (P,) arrays."""

    kind: ObjectiveKind
    value: float | np.ndarray
    sigma_squared: float | np.ndarray
    n: int


def residuals(measured: MeasuredData, fem: np.ndarray) -> np.ndarray:
    """Elementwise measured minus computed frequencies, in Hz; `fem` may
    be one frequency vector or a (P, n) stack of them."""
    fem = np.asarray(fem, dtype=float)
    if fem.shape[-1:] != measured.frequencies_hz.shape:
        raise ValueError(
            f"frequency vector length mismatch: measured {measured.frequencies_hz.shape}, "
            f"fem {fem.shape}"
        )
    return measured.frequencies_hz - fem


def _scalar(x: np.ndarray) -> float | np.ndarray:
    """A 0-d result as a Python float, a stack as it is."""
    return float(x) if np.ndim(x) == 0 else x


def sse(residual_vector: np.ndarray, d: object = None) -> ObjectiveValue:
    """Half the squared residual sum of one residual vector or a (P, n)
    stack; blind to model complexity. `d` is ignored (`perfbench/checks.py`
    passes one)."""
    r = np.asarray(residual_vector, dtype=float)
    n = r.shape[-1]
    total = np.add.reduce(r * r, axis=-1)
    return ObjectiveValue(
        kind="SSE",
        value=_scalar(total / 2.0),
        sigma_squared=_scalar(total / n),
        n=n,
    )


_VARIANCE_TERM_GRID = 2.0**44


def aic(residual_vector: np.ndarray, d: int | np.ndarray) -> ObjectiveValue:
    """n ln(sigma^2) + 2d with the floored residual variance."""
    r = np.asarray(residual_vector, dtype=float)
    d_arr = np.asarray(d)
    # Two reductions, whose initial values pass an empty d.
    smallest = np.minimum.reduce(d_arr, None, initial=1)
    if smallest < 1 or np.maximum.reduce(d_arr, None, initial=5) > 5:
        raise ValueError("d must lie in 1..5")
    n = r.shape[-1]
    sigma_squared = np.add.reduce(r * r, axis=-1) / n
    floored = np.maximum(sigma_squared, SIGMA_SQ_FLOOR)
    # math.log, not np.log: numpy's SIMD log differs from libm's in the
    # last bit for some inputs, which would move scores, and with them
    # every artifact, away from those of the one-vector formula.
    log = np.array(list(map(math.log, floored.ravel().tolist()))).reshape(floored.shape)
    variance_term = n * log
    # Snapping the variance term to a 2^-44 grid keeps the sum with the
    # integer penalty exactly representable (for |AIC| < 2^8), so scores
    # for the same residuals at consecutive d always differ by exactly 2.
    # (np.round to 0 decimals is np.rint.)
    variance_term = np.rint(variance_term * _VARIANCE_TERM_GRID) / _VARIANCE_TERM_GRID
    value = variance_term + 2.0 * d_arr
    return ObjectiveValue(
        kind="AIC",
        value=_scalar(value),
        sigma_squared=_scalar(sigma_squared),
        n=n,
    )
