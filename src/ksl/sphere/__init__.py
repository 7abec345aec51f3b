"""Numerical verification on the model manifold (the unit 2-sphere)."""

from .field import SphereField, coordinate_z
from .grid import AREA, QuadratureGrid, make_grid
from .ops import (
    IneqReport,
    avg_square,
    box_op,
    grad_energy,
    measure_lambda1,
    perturbation_tcoeff,
    random_band_limited,
    random_positive_field,
    sobolev_check,
)
from .pde import SolveReport, newton_solve, quotient, quotient_gradient

__all__ = [
    "AREA",
    "IneqReport",
    "QuadratureGrid",
    "SolveReport",
    "SphereField",
    "avg_square",
    "box_op",
    "coordinate_z",
    "grad_energy",
    "make_grid",
    "measure_lambda1",
    "newton_solve",
    "perturbation_tcoeff",
    "quotient",
    "quotient_gradient",
    "random_band_limited",
    "random_positive_field",
    "sobolev_check",
]
