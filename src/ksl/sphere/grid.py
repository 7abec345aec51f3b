"""Quadrature and spherical-harmonic transforms on the unit 2-sphere.

The model manifold is CP^1 with the Fubini-Study metric, realized as the unit
round sphere: the complex Laplacian is half the real one, the holomorphic
gradient carries half the squared length of the real gradient, and the first
nonzero eigenvalue of the negative complex Laplacian is exactly 1. Everything
downstream reduces to classical spherical analysis.

Discretization: Gauss-Legendre nodes in mu = cos(theta) (L+1 of them, exact
for polynomial degree up to 2L+1) times an equispaced azimuthal grid (2(L+1)
points, exact for Fourier modes up to 2L+1). Products of two band-limited
fields are therefore integrated exactly; bare powers u^q are not polynomial
and go through an oversampled copy of the same construction.

Basis: real orthonormal spherical harmonics with no Condon-Shortley phase,
normalized so the sphere integral of Y^2 is 1 (Y_00 = 1/sqrt(4 pi)). The
associated Legendre part N_lm is orthonormal on [-1, 1] and is generated by
the standard stable three-term recurrence; theta-derivatives come from the
degree-lowering relation, safe at the interior Gauss nodes where sin(theta)
never vanishes.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError

TWO_PI = 2.0 * np.pi
AREA = 4.0 * np.pi
# ceiling on the Legendre tables and area weights of both subgrids
MAX_TABLE_BYTES = 512 * 2**20


def legendre_tables(L: int, mu: np.ndarray) -> tuple[list, list]:
    """Orthonormal associated Legendre values and theta-derivatives.

    Returns (plm, dplm), lists indexed by order m; plm[m] has shape
    (L+1-m, len(mu)) with row i holding N_{m+i, m}(mu), where
    int_{-1}^{1} N_lm^2 dmu = 1 and no Condon-Shortley phase is applied.
    dplm[m] holds d/dtheta of the same rows.
    """
    mu = np.asarray(mu, dtype=float)
    s = np.sqrt(1.0 - mu * mu)
    if np.any(s == 0.0):
        raise DomainError("Legendre tables need interior nodes (sin theta > 0)")
    plm: list[np.ndarray] = []
    dplm: list[np.ndarray] = []
    diag = np.full(mu.shape, np.sqrt(0.5))
    for m in range(L + 1):
        rows = np.zeros((L + 1 - m, mu.size))
        rows[0] = diag
        if L - m >= 1:
            rows[1] = np.sqrt(2.0 * m + 3.0) * mu * diag
        for l in range(m + 2, L + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            rows[l - m] = a * (mu * rows[l - m - 1] - b * rows[l - m - 2])
        drows = np.zeros_like(rows)
        for l in range(m, L + 1):
            acc = l * mu * rows[l - m]
            if l > m:
                e = np.sqrt((2.0 * l + 1.0) * (l * l - m * m) / (2.0 * l - 1.0))
                acc = acc - e * rows[l - m - 1]
            drows[l - m] = acc / s
        plm.append(rows)
        dplm.append(drows)
        if m < L:
            diag = np.sqrt((2.0 * m + 3.0) / (2.0 * m + 2.0)) * s * diag
    return plm, dplm


class _SubGrid:
    """One node set with its transform tables; base and oversampled share L."""

    __slots__ = ("ntheta", "nphi", "mu", "wmu", "sintheta", "phi", "area_weights", "plm", "dplm")

    def __init__(self, L: int, ntheta: int, nphi: int):
        mu, wmu = np.polynomial.legendre.leggauss(ntheta)
        self.ntheta = ntheta
        self.nphi = nphi
        self.mu = mu
        self.wmu = wmu
        self.sintheta = np.sqrt(1.0 - mu * mu)
        self.phi = TWO_PI * np.arange(nphi) / nphi
        self.area_weights = np.broadcast_to(
            (wmu * (TWO_PI / nphi))[:, None], (ntheta, nphi)
        ).copy()
        self.plm, self.dplm = legendre_tables(L, mu)


class QuadratureGrid:
    """Transform plans at band limit L; immutable after construction."""

    def __init__(self, L: int, oversample: int = 2):
        if not isinstance(L, int) or L < 2:
            raise DomainError(f"band limit must be an integer >= 2, got {L}")
        if not isinstance(oversample, int) or oversample < 1:
            raise DomainError(f"oversampling factor must be a positive integer, got {oversample}")
        # float64 plm + dplm (ntheta * (L+1)(L+2)) and area weights (ntheta * nphi)
        # on the base and the lazily built oversampled subgrid
        nbytes = sum(
            8 * (k * (L + 1)) * ((L + 1) * (L + 2) + 2 * k * (L + 1))
            for k in (1, oversample)
        )
        if nbytes > MAX_TABLE_BYTES:
            raise DomainError(
                f"band limit L = {L} at oversample {oversample} needs {nbytes} bytes of "
                f"quadrature tables, above the limit of {MAX_TABLE_BYTES} bytes"
            )
        self.L = L
        self.oversample = oversample
        self.base = _SubGrid(L, L + 1, 2 * (L + 1))
        self._over: _SubGrid | None = None
        ls = np.arange(L + 1, dtype=float)
        # -box eigenvalues l(l+1)/2, so lambda_1 = 1 on the first mode
        self.minus_box_eigs = ls * (ls + 1.0) / 2.0
        self.grad_eigs = ls * (ls + 1.0)

    @property
    def over(self) -> _SubGrid:
        if self._over is None:
            self._over = _SubGrid(
                self.L,
                self.oversample * (self.L + 1),
                self.oversample * 2 * (self.L + 1),
            )
        return self._over

    def coeff_shape(self) -> tuple[int, int, int]:
        return (2, self.L + 1, self.L + 1)

    # transforms -----------------------------------------------------------

    def analysis(self, values: np.ndarray, sub: _SubGrid | None = None) -> np.ndarray:
        sub = sub or self.base
        L = self.L
        F = np.fft.rfft(np.asarray(values, dtype=float), axis=1)
        coeffs = np.zeros(self.coeff_shape())
        g0 = F[:, 0].real / sub.nphi
        coeffs[0, :, 0] = np.sqrt(TWO_PI) * (sub.plm[0] @ (sub.wmu * g0))
        for m in range(1, L + 1):
            gc = 2.0 * F[:, m].real / sub.nphi
            gs = -2.0 * F[:, m].imag / sub.nphi
            coeffs[0, m:, m] = np.sqrt(np.pi) * (sub.plm[m] @ (sub.wmu * gc))
            coeffs[1, m:, m] = np.sqrt(np.pi) * (sub.plm[m] @ (sub.wmu * gs))
        return coeffs

    def synthesis(self, coeffs: np.ndarray, sub: _SubGrid | None = None) -> np.ndarray:
        sub = sub or self.base
        L = self.L
        Fm = np.zeros((sub.ntheta, sub.nphi // 2 + 1), dtype=complex)
        Fm[:, 0] = (sub.plm[0].T @ coeffs[0, :, 0]) / np.sqrt(TWO_PI) * sub.nphi
        for m in range(1, L + 1):
            gc = (sub.plm[m].T @ coeffs[0, m:, m]) / np.sqrt(np.pi)
            gs = (sub.plm[m].T @ coeffs[1, m:, m]) / np.sqrt(np.pi)
            Fm[:, m] = (gc - 1j * gs) * (sub.nphi / 2.0)
        return np.fft.irfft(Fm, n=sub.nphi, axis=1)

    def synth_gradient(
        self, coeffs: np.ndarray, sub: _SubGrid | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pointwise (d/dtheta, (1/sin theta) d/dphi) of the synthesized field."""
        sub = sub or self.base
        L = self.L
        Ft = np.zeros((sub.ntheta, sub.nphi // 2 + 1), dtype=complex)
        Fp = np.zeros_like(Ft)
        Ft[:, 0] = (sub.dplm[0].T @ coeffs[0, :, 0]) / np.sqrt(TWO_PI) * sub.nphi
        for m in range(1, L + 1):
            gc = (sub.plm[m].T @ coeffs[0, m:, m]) / np.sqrt(np.pi)
            gs = (sub.plm[m].T @ coeffs[1, m:, m]) / np.sqrt(np.pi)
            dc = (sub.dplm[m].T @ coeffs[0, m:, m]) / np.sqrt(np.pi)
            ds = (sub.dplm[m].T @ coeffs[1, m:, m]) / np.sqrt(np.pi)
            Ft[:, m] = (dc - 1j * ds) * (sub.nphi / 2.0)
            # d/dphi swaps the trig pair: cos-profile m*gs, sin-profile -m*gc
            Fp[:, m] = (m * gs + 1j * m * gc) * (sub.nphi / 2.0)
        dtheta = np.fft.irfft(Ft, n=sub.nphi, axis=1)
        dphi = np.fft.irfft(Fp, n=sub.nphi, axis=1)
        return dtheta, dphi / sub.sintheta[:, None]

    # quadrature -----------------------------------------------------------

    def integrate(self, values: np.ndarray, sub: _SubGrid | None = None) -> float:
        sub = sub or self.base
        return float(np.sum(sub.area_weights * values))

    def average(self, values: np.ndarray, sub: _SubGrid | None = None) -> float:
        return self.integrate(values, sub) / AREA


def make_grid(L: int, oversample: int = 2) -> QuadratureGrid:
    return QuadratureGrid(L, oversample)
