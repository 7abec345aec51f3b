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

Transforms: each subgrid keeps one padded, m-major table P[m, t, l] =
N_lm(mu_t), zero for l < m. The theta sum of every order is then one batched
matmul against the coefficients viewed as (m, l, cos/sin), as in SHTns
(Schaeffer, G^3 14 (2013) 751). The phi sum is one real matrix product
against a table of the basis's trig factors: it needs only the L+1 lowest
frequencies of at most 4(L+1) points, and up to L = 128 that GEMM is cheaper
than a real FFT and its complex-array glue (about even at L = 200). The
gradient takes its theta-derivative from the same Legendre table through the
degree-lowering relation, so no derivative table is stored.
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError

TWO_PI = 2.0 * np.pi
AREA = 4.0 * np.pi
# ceiling on the arrays stored by a grid and both of its subgrids
MAX_TABLE_BYTES = 512 * 2**20
# the oversampled subgrid has this many times the base nodes in each direction
OVERSAMPLE = 2


def _lowering_factors(L: int) -> np.ndarray:
    """e[m, l] of the degree-lowering relation, zero for l <= m.

    d/dtheta N_lm = (l mu N_lm - e_lm N_{l-1,m}) / sin(theta) with
    e_lm = sqrt((2l+1)(l^2-m^2)/(2l-1)).
    """
    l = np.arange(L + 1.0)[None, :]
    m = np.arange(L + 1.0)[:, None]
    return np.sqrt(np.maximum((2.0 * l + 1.0) * (l * l - m * m), 0.0) / np.abs(2.0 * l - 1.0))


def _legendre_orders(L: int, mu: np.ndarray):
    """The Legendre recurrence, one order at a time.

    Yields, for m = 0..L, an array of shape (L+1-m, len(mu)) whose row i holds
    N_{m+i, m}(mu), with int_{-1}^{1} N_lm^2 dmu = 1 and no Condon-Shortley
    phase.
    """
    mu = np.asarray(mu, dtype=float)
    s = np.sqrt(1.0 - mu * mu)
    if np.any(s == 0.0):
        raise DomainError("Legendre tables need interior nodes (sin theta > 0)")
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
        yield rows
        if m < L:
            diag = np.sqrt((2.0 * m + 3.0) / (2.0 * m + 2.0)) * s * diag


def table_bytes(L: int) -> int:
    """Bytes of every array a grid stores, its oversampled subgrid built.

    Per subgrid of ntheta x nphi nodes, with n = L+1: the Legendre table
    (ntheta n^2), the trig table (2n nphi), mu, wmu, sin(theta) and the row
    weights (4 ntheta) and phi (nphi); the area weights are a view of the row
    weights. Both subgrids share one table of lowering factors (n^2), and the
    grid adds its two eigenvalue rows (2n).
    """
    n = L + 1
    words = n * n + 2 * n
    for k in (1, OVERSAMPLE):
        ntheta, nphi = k * n, 2 * k * n
        words += ntheta * n * n + 2 * n * nphi + 4 * ntheta + nphi
    return 8 * words


class _SubGrid:
    """One node set with its transform tables; base and oversampled share L.

    `P[m, t, l]` is N_lm(mu_t), zero for l < m: one padded, m-major table, so
    the theta-sum of every order is one batched matmul. Profiles are arrays
    (m, t, cos/sin) of the theta-dependence each order carries.

    `to_grid[(m, cos/sin), j]` is trig(m phi_j) / sqrt(norm_m), the basis's
    azimuthal factor (norm_m = 2 pi at m = 0, pi above; the sin row of m = 0
    is zero). Synthesis multiplies profiles by it and analysis by its
    transpose, so the phi sum is one real GEMM each way. An FFT would compute
    all nphi/2 + 1 frequencies to keep L+1, and for these small arrays its
    call and complex-array overhead cost more than the product.
    """

    __slots__ = (
        "ntheta", "nphi", "mu", "wmu", "sintheta", "phi", "row_weights", "area_weights",
        "P", "lower", "to_grid",
    )

    def __init__(self, L: int, ntheta: int, nphi: int, lower: np.ndarray):
        mu, wmu = np.polynomial.legendre.leggauss(ntheta)
        self.ntheta = ntheta
        self.nphi = nphi
        self.mu = mu
        self.wmu = wmu
        self.sintheta = np.sqrt(1.0 - mu * mu)
        self.phi = TWO_PI * np.arange(nphi) / nphi
        # the quadrature weight of every node in row t, and its grid view
        self.row_weights = (wmu * (TWO_PI / nphi))[:, None]
        self.area_weights = np.broadcast_to(self.row_weights, (ntheta, nphi))
        # one order at a time, so no full set of per-order lists is ever held
        self.P = np.zeros((L + 1, ntheta, L + 1))
        for m, rows in enumerate(_legendre_orders(L, mu)):
            self.P[m, :, m:] = rows.T
        # the lowering factors depend on L alone: one table serves both subgrids
        self.lower = lower
        # m phi_j reduced mod 2 pi in integers, so high orders lose no digits;
        # sin(0) = 0 leaves the sin row of m = 0 zero
        m = np.arange(L + 1)
        angle = TWO_PI * (np.outer(m, np.arange(nphi)) % nphi) / nphi
        norm = np.full((L + 1, 1), 1.0 / np.sqrt(np.pi))
        norm[0] = 1.0 / np.sqrt(TWO_PI)
        self.to_grid = np.stack((np.cos(angle) * norm, np.sin(angle) * norm), axis=1).reshape(
            2 * (L + 1), nphi
        )

    def fourier_columns(self, values: np.ndarray) -> np.ndarray:
        """Quadrature-weighted profiles (m, t, cos/sin) of grid values (t, phi)."""
        cols = (np.asarray(values, dtype=float) @ self.to_grid.T) * self.row_weights
        return cols.reshape(self.ntheta, -1, 2).transpose(1, 0, 2)

    def fourier_sum(self, profiles: np.ndarray) -> np.ndarray:
        """Grid values (t, phi) of sum_m profile_m(t) trig(m phi)."""
        return profiles.transpose(1, 0, 2).reshape(self.ntheta, -1) @ self.to_grid

    def legendre_sums(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Theta profiles of coefficient columns x[m, l, k], each (m, t, k).

        Returns (sum_l x N_lm(mu_t), sum_l x dN_lm/dtheta(mu_t)) from one
        matmul over three stacked column sets: x, l x, and e_lm x moved down
        one degree, so that the derivative is (mu A - B) / sin(theta).
        """
        nm, nl, k = x.shape
        cols = np.zeros((nm, nl, 3 * k))
        cols[..., :k] = x
        cols[..., k : 2 * k] = np.arange(nl, dtype=float)[:, None] * x
        cols[:, :-1, 2 * k :] = self.lower[:, 1:, None] * x[:, 1:]
        sums = self.P @ cols
        dtheta = self.mu[:, None] * sums[..., k : 2 * k]
        dtheta -= sums[..., 2 * k :]
        dtheta /= self.sintheta[:, None]
        return sums[..., :k], dtheta


class QuadratureGrid:
    """Transform plans at band limit L; immutable after construction."""

    def __init__(self, L: int):
        if not isinstance(L, int) or L < 2:
            raise DomainError(f"band limit must be an integer >= 2, got {L}")
        nbytes = table_bytes(L)
        if nbytes > MAX_TABLE_BYTES:
            raise DomainError(
                f"band limit L = {L} needs {nbytes} bytes of quadrature tables, "
                f"above the limit of {MAX_TABLE_BYTES} bytes"
            )
        self.L = L
        self.base = _SubGrid(L, L + 1, 2 * (L + 1), _lowering_factors(L))
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
                OVERSAMPLE * (self.L + 1),
                OVERSAMPLE * 2 * (self.L + 1),
                self.base.lower,
            )
        return self._over

    def coeff_shape(self) -> tuple[int, int, int]:
        return (2, self.L + 1, self.L + 1)

    # transforms -----------------------------------------------------------
    # Coefficients are c[s, l, m] (s = 0 cos, 1 sin); the Legendre matmul
    # works on the m-major view c.transpose(2, 1, 0) of shape (m, l, cos/sin).
    # Each transform is one batched Legendre matmul and its trig-table
    # products; none calls another.

    def analysis(self, values: np.ndarray, sub: _SubGrid | None = None) -> np.ndarray:
        sub = sub or self.base
        return (sub.P.transpose(0, 2, 1) @ sub.fourier_columns(values)).transpose(2, 1, 0)

    def synthesis(self, coeffs: np.ndarray, sub: _SubGrid | None = None) -> np.ndarray:
        sub = sub or self.base
        return sub.fourier_sum(sub.P @ coeffs.transpose(2, 1, 0))

    def synth_gradient(
        self, coeffs: np.ndarray, sub: _SubGrid | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pointwise (d/dtheta, (1/sin theta) d/dphi) of the synthesized field."""
        sub = sub or self.base
        g, dg = sub.legendre_sums(coeffs.transpose(2, 1, 0))
        # d/dphi swaps the trig pair: cos-profile m*gs, sin-profile -m*gc
        ms = np.arange(self.L + 1.0)[:, None, None]
        gphi = ms * np.stack((g[..., 1], -g[..., 0]), axis=2)
        return sub.fourier_sum(dg), sub.fourier_sum(gphi) / sub.sintheta[:, None]

    # quadrature -----------------------------------------------------------

    def integrate(self, values: np.ndarray, sub: _SubGrid | None = None) -> float:
        sub = sub or self.base
        return float(np.sum(sub.area_weights * values))

    def average(self, values: np.ndarray, sub: _SubGrid | None = None) -> float:
        return self.integrate(values, sub) / AREA


def make_grid(L: int) -> QuadratureGrid:
    return QuadratureGrid(L)
