"""Finite element stiffness model selection with a particle swarm.

A free-free H-shaped beam is searched over eight competing stiffness
parameterizations; each candidate is scored by how well its predicted
natural frequencies match five measured ones, with an optional penalty
for parameter count.
"""

from .beam_structure import (
    BeamElement,
    BeamGeometry,
    CrossSection,
    Material,
    MeasuredData,
    ModelSpec,
    build_h_beam_geometry,
    element_modulus_vector,
    h_beam_section,
    measured_data,
    model_catalog,
    nominal_material,
)
from .fem import (
    ElementMatrices,
    GlobalSystem,
    assemble,
    beam_element_matrices,
    transform_to_global,
)
from .modal import (
    ConvergenceError,
    DecompositionError,
    EigenSolveError,
    ModalResult,
    StructureError,
    natural_frequencies,
    select_modes,
    solve_generalized_eigen,
)
from .objective import ObjectiveValue, aic, residuals, sse
from .runner import (
    ExperimentConfig,
    ModelEvaluator,
    describe,
    evaluate_model,
    load_config,
    preset_config,
    run_experiment,
)
from .swarm import (
    EvaluationFailure,
    RankingEntry,
    RngStream,
    RunRecord,
    SwarmConfig,
    SwarmState,
)

__version__ = "0.1.0"

__all__ = [
    "BeamElement",
    "BeamGeometry",
    "ConvergenceError",
    "CrossSection",
    "DecompositionError",
    "EigenSolveError",
    "ElementMatrices",
    "EvaluationFailure",
    "ExperimentConfig",
    "GlobalSystem",
    "Material",
    "MeasuredData",
    "ModalResult",
    "ModelEvaluator",
    "ModelSpec",
    "ObjectiveValue",
    "RankingEntry",
    "RngStream",
    "RunRecord",
    "StructureError",
    "SwarmConfig",
    "SwarmState",
    "aic",
    "assemble",
    "beam_element_matrices",
    "build_h_beam_geometry",
    "describe",
    "element_modulus_vector",
    "evaluate_model",
    "h_beam_section",
    "load_config",
    "measured_data",
    "model_catalog",
    "natural_frequencies",
    "nominal_material",
    "preset_config",
    "residuals",
    "run_experiment",
    "select_modes",
    "solve_generalized_eigen",
    "sse",
    "transform_to_global",
]
