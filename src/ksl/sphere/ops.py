"""Differential and integral operations, inequality checks, eigenvalue measurement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DomainError
from .field import SphereField
from .grid import AREA, TWO_PI, QuadratureGrid


def box_op(f: SphereField) -> SphereField:
    """The complex Laplacian: coefficient (l, m) is scaled by -l(l+1)/2."""
    grid = f.grid
    return SphereField.from_coeffs(grid, f.coeffs * (-grid.minus_box_eigs)[None, :, None])


def avg_square(f: SphereField) -> float:
    """Average of f^2 via Parseval; exact for band-limited fields."""
    return float(np.sum(f.coeffs**2)) / AREA


def grad_energy(f: SphereField, method: str = "spectral") -> float:
    """Average of |grad f|^2 over the sphere.

    The spectral path sums l(l+1) |f_lm|^2; the quadrature path squares the
    pointwise gradient synthesized on the grid. The two agree
    to transform accuracy and the tests hold them together.
    """
    grid = f.grid
    if method == "spectral":
        return float(np.sum(f.coeffs**2 * grid.grad_eigs[None, :, None])) / AREA
    if method == "quadrature":
        dtheta, dphi_scaled = grid.synth_gradient(f.coeffs)
        return grid.average(dtheta**2 + dphi_scaled**2)
    raise DomainError(f"unknown gradient method {method!r}")


def holo_energy(f: SphereField) -> float:
    """Average of the holomorphic gradient energy, half the real one."""
    return 0.5 * grad_energy(f)


@dataclass(frozen=True)
class IneqReport:
    lhs: float
    rhs: float
    margin: float
    constant: float
    q: float
    trial: str


def sobolev_check(phi: SphereField, q: float, C: float, trial: str = "") -> IneqReport:
    """Compare (avg |phi|^{q+1})^{2/(q+1)} against avg phi^2 + C avg |grad phi|^2."""
    if q <= 1:
        raise DomainError(f"exponent must exceed 1, got q = {q}")
    if C <= 0:
        raise DomainError(f"constant must be positive, got {C}")
    if float(np.max(np.abs(phi.coeffs))) == 0.0:
        raise DomainError("trial function is identically zero")
    vals = phi.values_over()
    powers = np.abs(vals) ** (q + 1.0)
    if not np.all(np.isfinite(powers)):
        raise DomainError("power evaluation produced a non-finite value")
    avg_pow = phi.grid.average(powers, phi.grid.over)
    lhs = avg_pow ** (2.0 / (q + 1.0))
    rhs = avg_square(phi) + C * grad_energy(phi)
    return IneqReport(
        lhs=lhs, rhs=rhs, margin=rhs - lhs, constant=float(C), q=float(q), trial=trial
    )


def _psi_curve(f: SphereField, q: float, t: float) -> float:
    vals = 1.0 + t * f.values_over()
    powers = np.abs(vals) ** (q + 1.0)
    avg = f.grid.average(powers, f.grid.over)
    return avg ** (2.0 / (q + 1.0))


def perturbation_tcoeff(f: SphereField, q: float, C: float) -> tuple[float, float]:
    """Second-order coefficients of both inequality sides along 1 + t*f.

    Requires f to be a first eigenfunction (-box f = f) with zero mean. The
    left side's t^2 coefficient is q * avg f^2; the right side's is
    (2 C lambda_1 + 1) * avg f^2 with lambda_1 measured from f itself. A
    five-point second-difference fit of the left side must reproduce the
    analytic value to 1e-6 relative or the computation refuses to report.
    """
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
    lam1 = holo_energy(f) / af2
    rhs_t2 = (2.0 * C * lam1 + 1.0) * af2

    h = 1e-3
    stencil = (
        -_psi_curve(f, q, 2 * h)
        + 16.0 * _psi_curve(f, q, h)
        - 30.0 * _psi_curve(f, q, 0.0)
        + 16.0 * _psi_curve(f, q, -h)
        - _psi_curve(f, q, -2 * h)
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
    """
    sub = grid.base
    dphi = TWO_PI / sub.nphi
    inv_sin = 1.0 / sub.sintheta
    # unit coefficient columns give the padded tables N_lm and dN_lm/dtheta
    eye = np.broadcast_to(np.eye(grid.L + 1), (grid.L + 1,) * 3)
    values, dtheta = sub.legendre_sums(eye)
    for m in range(grid.L + 1):
        # Y_lm = N_lm(cos theta) trig(m phi) / sqrt(norm); m = 0 drops Y_00
        rows = values[m, :, max(m, 1) :].T
        drows = dtheta[m, :, max(m, 1) :].T
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
    # draw order: for each l, cos m = 0..l, then sin m = 1..l; degree l's
    # 2l+1 draws start at position l^2
    ls = np.arange(lmax + 1)
    l_idx = np.repeat(ls, 2 * ls + 1)
    k = np.arange(l_idx.size) - l_idx**2
    is_sin = k > l_idx
    # Python's float power, which np.power does not match bit for bit
    amp = np.array([1.0 / (1.0 + l) ** decay for l in range(lmax + 1)])
    coeffs = np.zeros(grid.coeff_shape())
    coeffs[is_sin.astype(int), l_idx, np.where(is_sin, k - l_idx, k)] = (
        rng.standard_normal(l_idx.size) * amp[l_idx]
    )
    return SphereField.from_coeffs(grid, coeffs)


def random_positive_field(
    grid: QuadratureGrid, seed: int, lmax: int | None = None, floor: float = 0.5
) -> SphereField:
    """Band-limited draw shifted to stay positive on the oversampled grid."""
    f = random_band_limited(grid, seed, lmax=lmax)
    low = float(np.min(f.values_over()))
    return f + SphereField.constant(grid, floor - min(low, 0.0))
