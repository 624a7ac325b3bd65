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

MODE_COUNT = 5
SIGMA_SQ_FLOOR = 1e-12  # Hz^2, guards log(0) on a perfect fit


@dataclass(frozen=True)
class ObjectiveValue:
    """A scored fitness. `value` is dimensionless for AIC, Hz^2 for SSE;
    `sigma_squared` is the mean squared residual either way. Scoring a
    (P, n) stack of residual vectors gives one ObjectiveValue whose
    `value`, `sigma_squared` and `d` are (P,) arrays."""

    kind: ObjectiveKind
    value: float | np.ndarray
    sigma_squared: float | np.ndarray
    d: int | np.ndarray | None
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


def sse(residual_vector: np.ndarray, d: int | np.ndarray | None = None) -> ObjectiveValue:
    """Half the squared residual sum; blind to model complexity."""
    r = np.asarray(residual_vector, dtype=float)
    n = r.shape[-1]
    total = np.sum(r**2, axis=-1)
    return ObjectiveValue(
        kind="SSE",
        value=_scalar(total / 2.0),
        sigma_squared=_scalar(total / n),
        d=d,
        n=n,
    )


_VARIANCE_TERM_GRID = 2.0**44


def aic(residual_vector: np.ndarray, d: int | np.ndarray) -> ObjectiveValue:
    """n ln(sigma^2) + 2d with the floored residual variance."""
    r = np.asarray(residual_vector, dtype=float)
    d_arr = np.asarray(d)
    if np.any((d_arr < 1) | (d_arr > 5)):
        raise ValueError("d must lie in 1..5")
    n = r.shape[-1]
    sigma_squared = np.sum(r**2, axis=-1) / n
    floored = np.maximum(sigma_squared, SIGMA_SQ_FLOOR)
    # math.log, not np.log: numpy's SIMD log differs from libm's in the
    # last bit for some inputs, which would move scores, and with them
    # every artifact, away from those of the one-vector formula.
    log = np.array([math.log(v) for v in np.ravel(floored)]).reshape(floored.shape)
    variance_term = n * log
    # Snapping the variance term to a 2^-44 grid keeps the sum with the
    # integer penalty exactly representable (for |AIC| < 2^8), so scores
    # for the same residuals at consecutive d always differ by exactly 2.
    variance_term = np.round(variance_term * _VARIANCE_TERM_GRID) / _VARIANCE_TERM_GRID
    value = variance_term + 2.0 * d_arr
    return ObjectiveValue(
        kind="AIC",
        value=_scalar(value),
        sigma_squared=_scalar(sigma_squared),
        d=d,
        n=n,
    )
