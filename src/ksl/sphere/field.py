"""Scalar fields on the sphere with synchronized dual representations."""

from __future__ import annotations

import numpy as np

from ..errors import DomainError
from .grid import AREA, QuadratureGrid


class SphereField:
    """A band-limited field holding harmonic coefficients and grid values.

    Whichever representation was set last is current; the other is computed
    on demand and cached. Construction always goes through one of the
    classmethods so exactly one representation is marked current.
    """

    def __init__(self, grid: QuadratureGrid):
        self.grid = grid
        self._coeffs: np.ndarray | None = None
        self._values: np.ndarray | None = None

    @classmethod
    def from_coeffs(cls, grid: QuadratureGrid, coeffs: np.ndarray) -> "SphereField":
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != grid.coeff_shape():
            raise DomainError(
                f"coefficient array must have shape {grid.coeff_shape()}, got {coeffs.shape}"
            )
        # slots that hold no basis function: m > l, and the sin part at m = 0
        if np.any(np.triu(coeffs, 1)) or np.any(coeffs[1, :, 0]):
            raise DomainError("coefficient array is nonzero at m > l or in the sin part at m = 0")
        f = cls(grid)
        f._coeffs = coeffs.copy()
        return f

    @classmethod
    def from_values(cls, grid: QuadratureGrid, values: np.ndarray) -> "SphereField":
        values = np.asarray(values, dtype=float)
        expected = (grid.base.ntheta, grid.base.nphi)
        if values.shape != expected:
            raise DomainError(f"value array must have shape {expected}, got {values.shape}")
        f = cls(grid)
        f._values = values.copy()
        return f

    @classmethod
    def constant(cls, grid: QuadratureGrid, value: float) -> "SphereField":
        coeffs = np.zeros(grid.coeff_shape())
        coeffs[0, 0, 0] = value * np.sqrt(AREA)
        return cls.from_coeffs(grid, coeffs)

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            self._coeffs = self.grid.analysis(self._values)
        return self._coeffs

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = self.grid.synthesis(self._coeffs)
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
        return SphereField.from_coeffs(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SphereField") -> "SphereField":
        self._check_same_grid(other)
        return SphereField.from_coeffs(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SphereField":
        return SphereField.from_coeffs(self.grid, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SphereField":
        return SphereField.from_coeffs(self.grid, -self.coeffs)

    def mean(self) -> float:
        return float(self.coeffs[0, 0, 0]) / np.sqrt(AREA)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def copy(self) -> "SphereField":
        return SphereField.from_coeffs(self.grid, self.coeffs)


def coordinate_z(grid: QuadratureGrid) -> SphereField:
    """The height function z = cos(theta), the first eigenfunction's axis mode."""
    vals = np.broadcast_to(grid.base.mu[:, None], (grid.base.ntheta, grid.base.nphi))
    return SphereField.from_values(grid, np.array(vals))
