import os
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from femselect.beam_structure import (
    BeamElement,
    BeamGeometry,
    _member_frame,
    build_h_beam_geometry,
    h_beam_section,
    measured_data,
    model_catalog,
    nominal_material,
)
from femselect.runner import ModelEvaluator


def rigid_body_basis(positions: np.ndarray) -> list[np.ndarray]:
    """Six rigid displacement fields for nodes at `positions` (n, 3):
    three unit translations and three unit rotations about the origin."""
    n = positions.shape[0]
    modes = []
    for axis in range(3):
        phi = np.zeros((n, 6))
        phi[:, axis] = 1.0
        modes.append(phi.ravel())
    for axis in range(3):
        theta = np.zeros(3)
        theta[axis] = 1.0
        phi = np.zeros((n, 6))
        phi[:, :3] = np.cross(theta, positions)
        phi[:, 3:] = theta
        modes.append(phi.ravel())
    return modes


def straight_beam_geometry(length: float = 1.2, n_elements: int = 12) -> BeamGeometry:
    """A free-free straight beam along global x, for analytical checks."""
    nodes = np.zeros((n_elements + 1, 3))
    nodes[:, 0] = np.linspace(0.0, length, n_elements + 1)
    elements = tuple(
        BeamElement(i + 1, i, i + 1, _member_frame(nodes[i], nodes[i + 1]))
        for i in range(n_elements)
    )
    return BeamGeometry(nodes=nodes, elements=elements, joints=(0, n_elements))

# The nominal m1 objective (all moduli 7.2e10) from a 40-digit solve of
# the two planar blocks of the float64 (K, M) pair, K from `fem.assemble`;
# see tests/test_modal.py::TestMpmathReference, which re-derives them.
NOMINAL_SSE = 290.1974117634453
NOMINAL_SIGMA_SQUARED = 116.07896470537813
NOMINAL_AIC = 25.771353448667107

settings.register_profile(
    "default",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "quick",
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance verdict lines after the run, capture or not."""
    module = sys.modules.get("test_acceptance")
    verdicts = getattr(module, "_VERDICTS", None)
    if verdicts:
        terminalreporter.section("acceptance verdicts")
        for line in verdicts:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def geometry():
    return build_h_beam_geometry()


@pytest.fixture(scope="session")
def section():
    return h_beam_section()


@pytest.fixture(scope="session")
def material():
    return nominal_material()


@pytest.fixture(scope="session")
def measured():
    return measured_data()


@pytest.fixture(scope="session")
def catalog():
    return model_catalog()


@pytest.fixture(scope="session")
def evaluator():
    return ModelEvaluator()


@pytest.fixture(scope="session")
def nominal_moduli():
    return np.full(12, 7.2e10)
