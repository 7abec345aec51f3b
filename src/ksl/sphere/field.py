"""Scalar fields on the sphere, held as their harmonic coefficients."""

from __future__ import annotations

import math

import numpy as np

from ..errors import DomainError
from .grid import QuadratureGrid


class SphereField:
    """A band-limited field: its harmonic coefficients on one grid.

    The coefficients are the field. Its values on the base grid are a cache,
    synthesized from the coefficients on first use; `from_values` analyses
    its array when it is called, so a field built from values that are not
    band-limited is their projection onto the basis, and its `values` are
    that projection's.

    The layout of the array is the grid's: the field reads its slots only
    through grid members, so the basis test, the constant field and the mean
    are `in_basis`, `constant_coeffs` and `coeffs_mean` there.

    `from_coeffs` and `from_values` take caller arrays: they check the shape
    (and, for coefficients, the grid's basis test) and keep no array of the
    caller's, so a field never shares memory with its input;
    `copy()` goes through `from_coeffs` too. Fields the library builds itself
    (a random draw, `+ - *`, negation, `constant`, `box_op` and the solver's
    results) call the constructor, which stores the array it is handed with
    neither check nor copy. Each of those arrays is new, has the grid's
    shape, and is zero outside the basis because its operands are.
    """

    def __init__(self, grid: QuadratureGrid, coeffs: np.ndarray):
        self.grid = grid
        self.coeffs = coeffs
        self._values: np.ndarray | None = None

    @classmethod
    def from_coeffs(cls, grid: QuadratureGrid, coeffs: np.ndarray) -> "SphereField":
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != grid.coeff_shape():
            raise DomainError(
                f"coefficient array must have shape {grid.coeff_shape()}, got {coeffs.shape}"
            )
        if not grid.in_basis(coeffs):
            raise DomainError("coefficient array is nonzero at m > l or in the sin part at m = 0")
        return cls(grid, coeffs.copy())

    @classmethod
    def from_values(cls, grid: QuadratureGrid, values: np.ndarray) -> "SphereField":
        values = np.asarray(values, dtype=float)
        expected = (grid.base.ntheta, grid.base.nphi)
        if values.shape != expected:
            raise DomainError(f"value array must have shape {expected}, got {values.shape}")
        return cls(grid, grid.analysis(values))

    @classmethod
    def constant(cls, grid: QuadratureGrid, value: float) -> "SphereField":
        return cls(grid, grid.constant_coeffs(value))

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = self.grid.synthesis(self.coeffs)
        return self._values

    def values_over(self) -> np.ndarray:
        """Values on the oversampled grid (never cached; callers are transient)."""
        return self.grid.synthesis(self.coeffs, self.grid.over)

    # arithmetic; fields must share one grid object so tables match

    def _check_same_grid(self, other: "SphereField"):
        if other.grid is not self.grid:
            raise DomainError("fields live on different grids")

    def __add__(self, other: "SphereField") -> "SphereField":
        self._check_same_grid(other)
        return SphereField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SphereField") -> "SphereField":
        self._check_same_grid(other)
        return SphereField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SphereField":
        scalar = float(scalar)
        # 0 * inf would set the slots outside the basis to NaN
        if not math.isfinite(scalar):
            raise DomainError(f"scalar factor must be finite, got {scalar}")
        return SphereField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SphereField":
        return SphereField(self.grid, -self.coeffs)

    def mean(self) -> float:
        return self.grid.coeffs_mean(self.coeffs)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def copy(self) -> "SphereField":
        return SphereField.from_coeffs(self.grid, self.coeffs)


def coordinate_z(grid: QuadratureGrid) -> SphereField:
    """The height function z = cos(theta), the first eigenfunction's axis mode."""
    vals = np.broadcast_to(grid.base.mu[:, None], (grid.base.ntheta, grid.base.nphi))
    return SphereField.from_values(grid, np.array(vals))
