"""Verification and exploration toolkit for Kahler Sobolev inequalities.

Four layers:

- :mod:`ksl.constants` evaluates every closed-form constant, the best k included.
- :mod:`ksl.algebra` replays the coefficient derivations over exact rationals.
- :mod:`ksl.sphere` tests the inequalities and the semilinear PDE spectrally
  on the unit two-sphere.
- :mod:`ksl.cli` ties the above into deterministic JSON/CSV reports.

The heavy numeric subpackages import numpy, so they are not pulled in at
package import time; use ``import ksl.sphere`` explicitly.
"""

from .constants import (
    ConstantsReport,
    Dimensions,
    KInterval,
    constants_report,
    cs_bm,
    cs_general,
    epsilon_max,
    f_of_k,
    k_interval,
    k_lower_bound_eps0,
    lambda1_coefficient,
    spectral_lambda_bound,
    optimize_k,
    riemannian_constants,
    base_threshold,
    x_bounds,
)
from .errors import DomainError

__all__ = [
    "ConstantsReport",
    "Dimensions",
    "DomainError",
    "KInterval",
    "constants_report",
    "cs_bm",
    "cs_general",
    "epsilon_max",
    "f_of_k",
    "k_interval",
    "k_lower_bound_eps0",
    "lambda1_coefficient",
    "spectral_lambda_bound",
    "optimize_k",
    "riemannian_constants",
    "base_threshold",
    "x_bounds",
]

__version__ = "0.1.0"
