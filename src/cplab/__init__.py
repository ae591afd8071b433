"""Numerical laboratory for matrix Painlevé systems and their reductions."""

from .phase import (
    MatrixPhasePoint,
    SystemKind,
    SystemSpec,
    level_set_target,
    moment_map,
    symplectic_pairing,
)
from .reduction import (
    Diagonalizer,
    ReducedPoint,
    Slice,
    dual_of,
    embed,
    normalized_diagonalizer,
    reduce,
)

__all__ = [
    "Diagonalizer",
    "MatrixPhasePoint",
    "ReducedPoint",
    "Slice",
    "SystemKind",
    "SystemSpec",
    "dual_of",
    "embed",
    "level_set_target",
    "moment_map",
    "normalized_diagonalizer",
    "reduce",
    "symplectic_pairing",
]

__version__ = "0.1.0"
