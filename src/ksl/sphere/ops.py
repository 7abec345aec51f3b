"""Differential and integral operations, inequality checks, eigenvalue measurement."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..constants import Dimensions
from ..errors import DomainError
from .field import SphereField
from .grid import AREA, TWO_PI, QuadratureGrid


def box_op(f: SphereField) -> SphereField:
    """The complex Laplacian: each coefficient of degree l is scaled by
    -l(l+1)/2, the negated `minus_box_diag` of the field's grid."""
    grid = f.grid
    return SphereField(grid, f.coeffs * -grid.minus_box_diag)


def avg_square(f: SphereField) -> float:
    """Average of f^2 via Parseval; exact for band-limited fields."""
    c = f.coeffs
    return float(np.einsum("slm,slm->", c, c)) / AREA


def grad_energy(f: SphereField, method: str = "spectral") -> float:
    """Average of |grad f|^2 over the sphere.

    The spectral path weights the grid's per-degree square sums of the
    coefficients by l(l+1), twice the -box eigenvalue of each degree
    (scaling by 2 is exact); the quadrature path squares the
    pointwise gradient synthesized on the grid. The two agree
    to transform accuracy and the tests hold them together. Both reduce
    row by row (per degree, per theta row) without a temporary of the
    coefficients' or the grid's size.
    """
    grid = f.grid
    if method == "spectral":
        sums = grid.degree_square_sums(f.coeffs)
        return float(2.0 * (sums @ grid.minus_box_diag.ravel())) / AREA
    if method == "quadrature":
        # each component's squares summed along its theta rows
        rows = sum(np.einsum("tj,tj->t", g, g) for g in grid.synth_gradient(f.coeffs))
        return float(grid.base.row_weights @ rows) / AREA
    raise DomainError(f"unknown gradient method {method!r}")


@dataclass(frozen=True)
class IneqReport:
    lhs: float
    rhs: float
    margin: float
    constant: float
    q: float
    trial: str


def _check_constant(C: float) -> None:
    # NaN fails both comparisons, so it is rejected too
    if not 0.0 < C < math.inf:
        raise DomainError(f"constant must be positive and finite, got {C}")


def power_average(grid: QuadratureGrid, vals: np.ndarray, q: float) -> float:
    """Average of |v|^(q+1) over values on the oversampled grid.

    The powers are formed in one buffer as |v|^(q-1) v v. At q = 2 the
    power is skipped, since numpy's in-place power 1 still copies the
    buffer; for the exponents 2 and 0.5 it takes a plain product, so q = 3
    and 1.5 cost no pow call either. An overflow anywhere, in the powers or
    in their sum, leaves a non-finite average, which is a DomainError; no
    warning is raised.
    """
    with np.errstate(over="ignore"):
        powers = np.abs(vals)
        if q - 1.0 != 1.0:
            powers **= q - 1.0
        powers *= vals
        powers *= vals
        avg = grid.average(powers, grid.over)
    if not math.isfinite(avg):
        raise DomainError(f"average of |u|^(q+1) is not finite (q = {q})")
    return avg


def sobolev_check(phi: SphereField, q: float, C: float, trial: str = "") -> IneqReport:
    """Compare (avg |phi|^{q+1})^{2/(q+1)} against avg phi^2 + C avg |grad phi|^2."""
    Dimensions(1, q)  # the sphere is CP^1: the exponent rule on q
    _check_constant(C)
    if not np.any(phi.coeffs):
        raise DomainError("trial function is identically zero")
    avg_pow = power_average(phi.grid, phi.values_over(), q)
    lhs = avg_pow ** (2.0 / (q + 1.0))
    rhs = avg_square(phi) + C * grad_energy(phi)
    return IneqReport(
        lhs=lhs, rhs=rhs, margin=rhs - lhs, constant=float(C), q=float(q), trial=trial
    )


def _psi_curve(grid: QuadratureGrid, f_over: np.ndarray, q: float, t: float) -> float:
    """(avg |1 + t f|^(q+1))^(2/(q+1)) from f's values on the oversampled grid."""
    return power_average(grid, 1.0 + t * f_over, q) ** (2.0 / (q + 1.0))


def perturbation_tcoeff(f: SphereField, q: float, C: float) -> tuple[float, float]:
    """Second-order coefficients of both inequality sides along 1 + t*f.

    Requires f to be a first eigenfunction (-box f = f) with zero mean. The
    left side's t^2 coefficient is q * avg f^2; the right side's is
    (2 C lambda_1 + 1) * avg f^2 with lambda_1 measured from f itself. A
    five-point second-difference fit of the left side must reproduce the
    analytic value to 1e-6 relative or the computation refuses to report.
    """
    Dimensions(1, q)  # the sphere is CP^1: the exponent rule on q
    _check_constant(C)
    sup = f.sup_norm()
    eig_defect = (box_op(f) + f).sup_norm()
    if eig_defect > 1e-8 * max(1.0, sup):
        raise DomainError(
            f"not a first eigenfunction: |box f + f| = {eig_defect:.3e} exceeds 1e-8"
        )
    if abs(f.mean()) > 1e-10 * max(1.0, sup):
        raise DomainError(f"eigenfunction must have zero mean, got {f.mean():.3e}")
    af2 = avg_square(f)
    lhs_t2 = q * af2
    lam1 = 0.5 * grad_energy(f) / af2
    rhs_t2 = (2.0 * C * lam1 + 1.0) * af2

    h = 1e-3
    grid, f_over = f.grid, f.values_over()
    stencil = (
        -_psi_curve(grid, f_over, q, 2 * h)
        + 16.0 * _psi_curve(grid, f_over, q, h)
        - 30.0 * _psi_curve(grid, f_over, q, 0.0)
        + 16.0 * _psi_curve(grid, f_over, q, -h)
        - _psi_curve(grid, f_over, q, -2 * h)
    ) / (12.0 * h * h)
    fitted = stencil / 2.0
    if abs(fitted - lhs_t2) > 1e-6 * abs(lhs_t2):
        raise ArithmeticError(
            f"second-difference fit {fitted!r} disagrees with analytic {lhs_t2!r}"
        )
    return lhs_t2, rhs_t2


def _energy_blocks(grid: QuadratureGrid):
    """Yield (m, K, M) for each block of the holomorphic energy on mean-zero fields.

    Stiffness K and mass M are assembled over the harmonic basis by pointwise
    quadrature on the base grid (not by the spectral shortcut l(l+1)/2, so
    their eigenvalues are an actual measurement of the discretization): the
    zonal block (m = 0, l = 1..L), then a cos block and a sin block for each
    order m = 1..L, 2L+1 blocks of size at most L. The exact eigenvalues of
    an order-m block are l(l+1)/2 for l = max(m, 1)..L.

    The blocks are exact, not an approximation: the equispaced azimuthal rule
    with nphi = 2(L+1) points sums cos(m phi)cos(m' phi), cos(m phi)sin(m' phi)
    and sin(m phi)sin(m' phi) to zero for m != m' whenever m + m' <= 2L < nphi,
    and the cos/sin pair of one order to zero as well, so every matrix entry
    between two blocks vanishes up to round-off. Each block entry is still the
    tensor-product quadrature sum, factored into a Gauss-Legendre sum in theta
    and a sum over the sampled cos(m phi) / sin(m phi) values in phi.

    The rows N_lm(mu_t) are read from the grid's Legendre table P[m, l, t],
    and dN_lm/dtheta is formed from the same table by the degree-lowering
    relation ((l N_lm) mu - e_lm N_{l-1,m}) / sin(theta), where N_{m-1,m}
    is the table's zero padding and e_mm = 0.
    """
    sub = grid.base
    dphi = TWO_PI / sub.nphi
    inv_sin = 1.0 / sub.sintheta
    ls = np.arange(grid.L + 1.0)[:, None]
    for m in range(grid.L + 1):
        # Y_lm = N_lm(cos theta) trig(m phi) / sqrt(norm); m = 0 drops Y_00
        lo = max(m, 1)
        rows = sub.P[m, lo:]
        lowered = sub.lower[m, lo:, None] * sub.P[m, lo - 1 : -1]
        drows = (ls[lo:] * rows * sub.mu - lowered) / sub.sintheta
        norm = TWO_PI if m == 0 else np.pi
        P = (rows * sub.wmu) @ rows.T
        D = (drows * sub.wmu) @ drows.T
        Q = m * m * ((rows * inv_sin * sub.wmu) @ (rows * inv_sin).T)
        cos_m = np.cos(m * sub.phi)
        sin_m = np.sin(m * sub.phi)
        # d/dphi sends the cos part to sin and back, so the phi factors swap
        parts = [(cos_m, sin_m)] if m == 0 else [(cos_m, sin_m), (sin_m, cos_m)]
        for trig, dtrig in parts:
            t = dphi * (trig @ trig) / norm
            dt = dphi * (dtrig @ dtrig) / norm
            yield m, 0.5 * (t * D + dt * Q), t * P


def measure_lambda1(grid: QuadratureGrid) -> float:
    """Smallest Rayleigh quotient of the holomorphic energy on mean-zero fields.

    Each block of :func:`_energy_blocks` is the generalized symmetric problem
    K x = lambda M x with M positive definite. The Cholesky factor M = C C^T
    reduces it to the standard symmetric problem of C^-1 K C^-T, which has
    the same eigenvalues; the smallest over all blocks is returned. M is the
    quadrature-assembled mass matrix, not the identity, so the measurement
    still sees the discretization on both sides.
    """
    lam = np.inf
    for _, K, M in _energy_blocks(grid):
        # one explicit inverse of the small triangular factor is cheaper
        # here than two triangular solves through the general solver
        Ci = np.linalg.inv(np.linalg.cholesky(M))
        lam = min(lam, float(np.linalg.eigvalsh(Ci @ K @ Ci.T)[0]))
    return lam


def random_band_limited(
    grid: QuadratureGrid, seed: int, lmax: int | None = None, decay: float = 2.0
) -> SphereField:
    """Gaussian coefficient draw with power-law decay; reproducible by seed."""
    rng = np.random.default_rng(seed)
    lmax = grid.L if lmax is None else min(lmax, grid.L)
    # Python's float power, which np.power does not match bit for bit
    amp = [1.0 / (1.0 + l) ** decay for l in range(lmax + 1)]
    # the grid's draw slots run degree by degree, 2l+1 for degree l, so the
    # n degrees drawn fill the first n^2 of them
    n = len(amp)
    draws = rng.standard_normal(n * n)
    draws *= np.repeat(amp, 2 * np.arange(n) + 1)
    coeffs = np.zeros(grid.coeff_shape())
    np.put(coeffs, grid.draw_slots[: n * n], draws)
    return SphereField(grid, coeffs)


def random_positive_field(
    grid: QuadratureGrid, seed: int, lmax: int | None = None, floor: float = 0.5
) -> SphereField:
    """Band-limited draw shifted to stay positive on the oversampled grid."""
    f = random_band_limited(grid, seed, lmax=lmax)
    low = float(np.min(f.values_over()))
    return f + SphereField.constant(grid, floor - min(low, 0.0))
