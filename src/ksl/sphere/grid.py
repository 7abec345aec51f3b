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

Transforms: each subgrid keeps one padded table P[m, l, t] = N_lm(mu_t),
zero for l < m, with theta innermost. The theta sum of every order is then
one batched matmul of the coefficients' (m, cos/sin, l) rows against it, as
in SHTns (Schaeffer, G^3 14 (2013) 751), and yields (m, cos/sin, theta)
profiles that are already a (2(L+1), ntheta) matrix. The phi sum is one real
matrix product of that matrix's transpose with a table of the basis's trig
factors; BLAS applies the transpose, so no operand is copied. It needs only
the L+1 lowest frequencies of at most 4(L+1) points, and up to L = 128 that
GEMM is cheaper than a real FFT and its complex-array glue (about even at
L = 200). Every elementwise step runs along theta, never along the cos/sin
pair. The gradient takes its theta-derivative from the same Legendre table
through the degree-lowering relation, so no derivative table is stored.
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


def _legendre_table(L: int, mu: np.ndarray) -> np.ndarray:
    """P[m, l, t] = N_lm(mu_t), zero for l < m, by the three-term recurrence.

    int_{-1}^{1} N_lm^2 dmu = 1, with no Condon-Shortley phase. The diagonal
    N_mm and first off-diagonal N_{m+1,m} come from the product over m; every
    higher degree l is then one step for all orders m <= l-2 at once,
    N_lm = a_lm (mu N_{l-1,m} - b_lm N_{l-2,m}). Each entry sees the same IEEE
    operations, in the same order, as the recurrence run one order at a time.
    """
    mu = np.asarray(mu, dtype=float)
    s = np.sqrt(1.0 - mu * mu)
    if np.any(s == 0.0):
        raise DomainError("Legendre tables need interior nodes (sin theta > 0)")
    P = np.zeros((L + 1, L + 1, mu.size))
    diag = np.full(mu.shape, np.sqrt(0.5))
    for m in range(L + 1):
        P[m, m] = diag
        if m < L:
            P[m, m + 1] = np.sqrt(2.0 * m + 3.0) * mu * diag
            diag = np.sqrt((2.0 * m + 3.0) / (2.0 * m + 2.0)) * s * diag
    for l in range(2, L + 1):
        m = np.arange(l - 1.0)
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
        P[: l - 1, l] = a[:, None] * (mu * P[: l - 1, l - 1] - b[:, None] * P[: l - 1, l - 2])
    return P


def table_bytes(L: int) -> int:
    """Bytes of every array a grid stores, both of its subgrids included.

    Per subgrid of ntheta x nphi nodes, with n = L+1: the Legendre table
    (ntheta n^2), the trig table (2n nphi), mu, wmu, sin(theta) and the row
    weights (4 ntheta) and phi (nphi); no full-grid weight array is stored.
    Both subgrids share one table of lowering factors (n^2), and the grid
    adds its -box eigenvalue of each degree (n) and its table of draw slots
    (n^2 integers of 8 bytes).
    """
    n = L + 1
    words = 2 * n * n + n
    for k in (1, OVERSAMPLE):
        ntheta, nphi = k * n, 2 * k * n
        words += ntheta * n * n + 2 * n * nphi + 4 * ntheta + nphi
    return 8 * words


def _draw_slots(L: int) -> np.ndarray:
    """Flat index into c[s, l, m] of every coefficient, in draw order.

    For each degree l: cos m = 0..l, then sin m = 1..l, so degree l's 2l+1
    slots start at position l^2 and the first (l+1)^2 slots hold exactly
    the degrees <= l.
    """
    n = L + 1
    l = np.repeat(np.arange(n), 2 * np.arange(n) + 1)
    k = np.arange(n * n) - l * l
    is_sin = k > l
    return (is_sin * n + l) * n + np.where(is_sin, k - l, k)


class _SubGrid:
    """One node set with its transform tables; base and oversampled share L.

    `P[m, l, t]` is N_lm(mu_t), zero for l < m: one padded table with theta
    innermost, so the theta-sum of every order is one batched matmul whose
    rows run over the ntheta nodes. Profiles are arrays (m, cos/sin, t) of
    the theta-dependence each order carries; their (m, cos/sin) rows are the
    rows of the trig table.

    `to_grid[(m, cos/sin), j]` is trig(m phi_j) / sqrt(norm_m), the basis's
    azimuthal factor (norm_m = 2 pi at m = 0, pi above; the sin row of m = 0
    is zero). Synthesis multiplies the transposed profiles by it and analysis
    multiplies it by the transposed values, so the phi sum is one real GEMM
    each way and BLAS applies the transposes. An FFT would compute all
    nphi/2 + 1 frequencies to keep L+1, and for these small arrays its call
    and complex-array overhead cost more than the product.

    `row_weights[t]` is the quadrature weight of each node in row t, which
    all nodes of a row share; an integral weights the row sums by it, so no
    full-grid weight array is stored.
    """

    __slots__ = (
        "ntheta", "nphi", "mu", "wmu", "sintheta", "phi", "row_weights", "P", "lower", "to_grid",
    )

    def __init__(self, L: int, ntheta: int, nphi: int, lower: np.ndarray):
        mu, wmu = np.polynomial.legendre.leggauss(ntheta)
        self.ntheta = ntheta
        self.nphi = nphi
        self.mu = mu
        self.wmu = wmu
        self.sintheta = np.sqrt(1.0 - mu * mu)
        self.phi = TWO_PI * np.arange(nphi) / nphi
        # the quadrature weight of every node in row t
        self.row_weights = wmu * (TWO_PI / nphi)
        self.P = _legendre_table(L, mu)
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

    def legendre_sums(self, x: np.ndarray, lead: np.ndarray) -> np.ndarray:
        """Theta profiles of coefficient rows x[m, k, l], as an (m, k, 2, t) view.

        [..., 0, :] is sum_l x dN_lm/dtheta(mu_t) and [..., 1, :] is
        sum_l lead N_lm(mu_t). One matmul over three stacked row sets: l x,
        lead, and e_lm x moved down one degree, so that the derivative is
        (mu A - B) / sin(theta), formed in place on rows of length ntheta.
        The (m, k) rows of the view merge without a copy, so it reshapes to
        an (m k, 2 ntheta) matrix.
        """
        nm, k, nl = x.shape
        rows = np.empty((nm, k, 3, nl))
        np.multiply(x, np.arange(nl, dtype=float), out=rows[:, :, 0])
        rows[:, :, 1] = lead
        np.multiply(x[..., 1:], self.lower[:, None, 1:], out=rows[:, :, 2, :-1])
        rows[:, :, 2, -1] = 0.0
        sums = (rows.reshape(nm, 3 * k, nl) @ self.P).reshape(nm, k, 3, self.ntheta)
        dtheta = sums[:, :, 0]
        dtheta *= self.mu
        dtheta -= sums[:, :, 2]
        dtheta /= self.sintheta
        return sums[:, :, :2]


class QuadratureGrid:
    """Transform plans at band limit L; immutable after construction.

    Its subgrids are `base` and `over`, the oversampled copy on which bare
    powers u^q are integrated. Besides their transform tables it holds
    `minus_box_diag`, the -box eigenvalue of each degree in the shape
    (1, L+1, 1) that broadcasts over a coefficient array, and `draw_slots`,
    the flat coefficient slot of each Gaussian draw of `random_band_limited`
    in its degree-major order. It is the one module that knows the
    coefficient layout c[s, l, m] (s = 0 cos, 1 sin); other modules read it
    through these two and the methods under "coefficient layout".
    """

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
        n = L + 1
        self.base = _SubGrid(L, n, 2 * n, _lowering_factors(L))
        self.over = _SubGrid(L, OVERSAMPLE * n, OVERSAMPLE * 2 * n, self.base.lower)
        ls = np.arange(n, dtype=float)[None, :, None]
        # -box eigenvalues l(l+1)/2, so lambda_1 = 1 on the first mode
        self.minus_box_diag = ls * (ls + 1.0) / 2.0
        self.draw_slots = _draw_slots(L)

    # coefficient layout ---------------------------------------------------

    def coeff_shape(self) -> tuple[int, int, int]:
        return (2, self.L + 1, self.L + 1)

    def degree_square_sums(self, coeffs: np.ndarray) -> np.ndarray:
        """sum over s, m of coeffs[s, l, m]^2, one entry per degree l."""
        return np.einsum("slm,slm->l", coeffs, coeffs)

    def constant_coeffs(self, value: float) -> np.ndarray:
        """Coefficients of the constant field `value`: value sqrt(4 pi) on Y_00."""
        coeffs = np.zeros(self.coeff_shape())
        coeffs[0, 0, 0] = value * np.sqrt(AREA)
        return coeffs

    def coeffs_mean(self, coeffs: np.ndarray) -> float:
        """Sphere average of the field with these coefficients, read off Y_00."""
        return float(coeffs[0, 0, 0]) / np.sqrt(AREA)

    # transforms -----------------------------------------------------------
    # Coefficients are c[s, l, m] (s = 0 cos, 1 sin); the Legendre matmul
    # works on their (m, cos/sin, l) rows and yields (m, cos/sin, t)
    # profiles, theta innermost, whose (2(L+1), ntheta) reshape is free.
    # Each transform is one batched Legendre matmul and one trig-table GEMM;
    # none calls another.

    def analysis(self, values: np.ndarray, sub: _SubGrid | None = None) -> np.ndarray:
        sub = sub or self.base
        profiles = sub.to_grid @ np.asarray(values, dtype=float).T
        profiles *= sub.row_weights
        coeffs = profiles.reshape(self.L + 1, 2, sub.ntheta) @ sub.P.transpose(0, 2, 1)
        return coeffs.transpose(1, 2, 0)

    def synthesis(self, coeffs: np.ndarray, sub: _SubGrid | None = None) -> np.ndarray:
        sub = sub or self.base
        # BLAS cannot take the strided (m, cos/sin, l) view; copying the
        # small coefficient array once is cheaper than numpy's fallback loop
        profiles = np.ascontiguousarray(coeffs.transpose(2, 0, 1)) @ sub.P
        return profiles.reshape(-1, sub.ntheta).T @ sub.to_grid

    def synth_gradient(self, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pointwise (d/dtheta, (1/sin theta) d/dphi) of the field on the base grid."""
        sub = self.base
        n, nt = self.L + 1, sub.ntheta
        x = np.ascontiguousarray(coeffs.transpose(2, 0, 1))
        # d/dphi swaps the trig pair: cos-profile m*gs, sin-profile -m*gc
        ms = np.arange(n, dtype=float)[:, None]
        lead = np.empty_like(x)
        np.multiply(x[:, 1], ms, out=lead[:, 0])
        np.multiply(x[:, 0], -ms, out=lead[:, 1])
        profiles = sub.legendre_sums(x, lead)
        profiles[:, :, 1] /= sub.sintheta
        # both components' (m, cos/sin) rows feed one GEMM
        grad = profiles.reshape(2 * n, 2 * nt).T @ sub.to_grid
        return grad[:nt], grad[nt:]

    # quadrature -----------------------------------------------------------

    def integrate(self, values: np.ndarray, sub: _SubGrid | None = None) -> float:
        """Sphere integral of grid values: each row's sum, weighted by its node weight."""
        sub = sub or self.base
        return float(sub.row_weights @ np.sum(values, axis=1))

    def average(self, values: np.ndarray, sub: _SubGrid | None = None) -> float:
        return self.integrate(values, sub) / AREA


def make_grid(L: int) -> QuadratureGrid:
    return QuadratureGrid(L)
