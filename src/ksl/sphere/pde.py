"""Sobolev quotient, its gradient, and a Newton solver for the model equation.

The equation is -box u + lambda u = u^q for positive u on the unit sphere.
Below the spectral threshold the only positive solution is the constant
lambda^(1/(q-1)); the solver exists to confirm that numerically from many
starting points. Integrals here are raw sphere integrals, not averages: the
quotient is implemented exactly as displayed, and its critical values carry
the resulting volume factors (the constant field scores
lambda * Vol^((q-1)/(q+1))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from ..constants import Dimensions
from ..errors import DomainError
from .field import SphereField
from .grid import AREA, QuadratureGrid
from .ops import avg_square, grad_energy, power_average


def _require_positive(u: SphereField, who: str) -> np.ndarray:
    vals = u.values_over()
    if np.min(vals) <= 0.0:
        raise DomainError(f"{who} requires a pointwise positive field")
    return vals


def _check_parameters(lam: float, q: float) -> None:
    if not (np.isfinite(lam) and lam > 0):
        raise DomainError(f"spectral parameter must be positive and finite, got {lam}")
    Dimensions(1, q)  # the sphere is CP^1: the exponent rule on q


def _quotient_parts(
    u: SphereField, lam: float, q: float, who: str
) -> tuple[np.ndarray, float, float]:
    """u on the oversampled grid, the quotient's numerator and int |u|^(q+1)."""
    _check_parameters(lam, q)
    vals = _require_positive(u, who)
    num = 0.5 * AREA * grad_energy(u) + lam * AREA * avg_square(u)
    return vals, num, AREA * power_average(u.grid, vals, q)


def quotient(u: SphereField, lam: float, q: float) -> float:
    """(int |del u|^2 + lambda int u^2) / (int |u|^{q+1})^{2/(q+1)}."""
    _, num, int_pow = _quotient_parts(u, lam, q, "quotient")
    return num / int_pow ** (2.0 / (q + 1.0))


def quotient_gradient(u: SphereField, lam: float, q: float) -> SphereField:
    """L^2(dA) gradient of the quotient: the scaled Euler-Lagrange residual.

    The pairing of this field against a direction (as a raw sphere integral)
    equals the derivative of quotient along that direction.
    """
    grid = u.grid
    vals, num, int_pow = _quotient_parts(u, lam, q, "quotient_gradient")
    den = int_pow ** (2.0 / (q + 1.0))
    uq = grid.analysis(vals**q, grid.over)
    resid = u.coeffs * (grid.minus_box_diag + lam) - (num / int_pow) * uq
    return SphereField(grid, (2.0 / den) * resid)


class NewtonStep(NamedTuple):
    """One accepted Newton step: the residual it started from and its cost."""

    residual_norm: float
    inner_iterations: int
    scale: float


@dataclass(frozen=True)
class SolveReport:
    converged: bool
    iterations: int
    residual_sup: float
    is_constant: bool
    constant_value: float | None
    message: str
    field: SphereField | None
    trace: tuple[NewtonStep, ...] = ()


def _residual(
    grid: QuadratureGrid, coeffs: np.ndarray, vals_over: np.ndarray, diag: np.ndarray, q: float
) -> tuple[np.ndarray, float]:
    """Coefficients of (-box + lambda) u - u^q and their 2-norm.

    diag holds -box + lambda per degree. Where the float range overflows,
    the norm is not finite; no warning is raised.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        res = coeffs * diag - grid.analysis(vals_over**q, grid.over)
        flat = res.ravel()
        return res, math.sqrt(flat @ flat)


def _sup(grid: QuadratureGrid, coeffs: np.ndarray) -> float:
    """Sup over the base grid of the field with these coefficients."""
    return float(np.abs(grid.synthesis(coeffs)).max())


_EPS = float(np.finfo(float).eps)


# the most Arnoldi steps, and so Jacobian products, of one linear solve
_GMRES_STEPS = 100


def gmres(A, b: np.ndarray, *, rtol: float):
    """GMRES for A x = b from x0 = 0, one cycle (Saad & Schultz, SISC 7 (1986) 856).

    A real operator needs only `.matvec`, called exactly once per inner
    iteration. The Arnoldi basis is built by modified Gram-Schmidt, and
    Givens rotations keep the least-squares residual of the Hessenberg
    problem. The cycle ends when that residual falls to rtol |b|, after
    min(100, b.size) iterations, or at a breakdown (the new product lies in
    the span of the basis, to round-off). It then forms x = V y and
    r = b - (A V) y from the stored basis and products, with no further
    product, and convergence is decided on this true residual:
    |r| <= rtol |b|. There is no restart: a system one cycle cannot solve is
    a failure. Returns (x, info, iterations): info is 0 on convergence and
    1 otherwise; iterations is the number of products. b = 0 returns zeros
    without a product.
    """
    bnorm = math.sqrt(b @ b)
    x = np.zeros(b.shape)
    if bnorm == 0.0:
        return x, 0, 0
    tol = rtol * bnorm
    r = np.array(b, dtype=float)
    basis = [r / bnorm]
    products: list[np.ndarray] = []
    columns: list[list[float]] = []  # the triangular factor, by column
    rotations: list[tuple[float, float]] = []
    g = [bnorm]  # the rotated right-hand side bnorm e_1
    for _ in range(min(_GMRES_STEPS, b.size)):
        product = A.matvec(basis[-1])
        products.append(product)
        w = product.copy()
        h = []
        for v in basis:
            h.append(float(v @ w))
            w -= h[-1] * v
        h_next = math.sqrt(w @ w)
        for i, (c, s) in enumerate(rotations):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
        d = float(np.hypot(h[-1], h_next))
        c, s = (h[-1] / d, h_next / d) if d > 0.0 else (1.0, 0.0)
        rotations.append((c, s))
        h[-1] = d
        columns.append(h)
        g.append(-s * g[-1])
        g[-2] *= c
        if abs(g[-1]) <= tol or h_next <= _EPS * math.sqrt(product @ product):
            break
        basis.append(w / h_next)
    # back substitution; a zero pivot (A singular on the Krylov space)
    # leaves its component at zero
    y = g[:-1]
    for k in reversed(range(len(y))):
        y[k] -= sum(columns[j][k] * y[j] for j in range(k + 1, len(y)))
        y[k] = y[k] / columns[k][k] if columns[k][k] != 0.0 else 0.0
    for yk, v, product in zip(y, basis, products):
        x += yk * v
        r -= yk * product
    return x, 0 if math.sqrt(r @ r) <= tol else 1, len(products)


# Eisenstat-Walker choice 2 forcing terms (SISC 17 (1996) 16); eta_0 and
# the cap are both _EW_ETA_MAX, as in Kelley's nsoli
_EW_GAMMA = 0.9
_EW_ALPHA = 2.0
_EW_ETA_MAX = 0.9
# Armijo constant of the residual-decrease test
_ARMIJO = 1e-4
_MAX_HALVINGS = 30
# the stopping rule: the residual's sup on the base grid below _TOL within
# at most _MAX_ITERS accepted steps
_TOL = 1e-10
_MAX_ITERS = 40
# a shifted entry of the preconditioner within this fraction of
# diag + |mean| of zero is zero up to round-off
_ZERO_SHIFT = 4.0 * _EPS


def _frozen_mean_step(
    grid: QuadratureGrid, diag: np.ndarray, jac_weight: np.ndarray, res: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """M's diagonal, z = M^-1 F and a bound on |F - J z|, from one residual F.

    M is the Jacobian -box + lambda - A diag(jac_weight) S with its multiplier
    frozen at its mean: -box + lambda - mean, diagonal in harmonic space (S is
    synthesis onto the oversampled grid, A analysis from it). A degree whose
    entry of M is zero up to round-off keeps its entry of -box + lambda (see
    newton_solve); G is the set of those degrees. So
    J - M = -A diag(jac_weight - mean) S - mean P_G, with P_G the projection
    onto G. The oversampled grid integrates every product of two band-limited
    fields exactly, so in its weighted L^2 norm S is an isometry and A a
    contraction, and |F - J z| = |(M - J) z| <= spread |z| + |mean| |z_G|,
    where spread is the largest |jac_weight - mean| over the grid. That is
    the returned bound; spread costs two reductions of jac_weight, and the
    bound no Jacobian product.
    """
    mean = grid.average(jac_weight, grid.over)
    spread = max(jac_weight.max() - mean, mean - jac_weight.min())
    shifted = diag - mean
    guarded = np.abs(shifted) <= _ZERO_SHIFT * (diag + abs(mean))
    shifted = np.where(guarded, diag, shifted)
    z = res / shifted
    z_sq = grid.degree_square_sums(z)  # |z|^2 by degree
    bound = spread * math.sqrt(z_sq.sum()) + abs(mean) * math.sqrt(z_sq @ guarded.ravel())
    return shifted, z, bound


def newton_solve(
    lam: float,
    q: float,
    u0: SphereField,
) -> SolveReport:
    """Inexact Newton iteration on -box u + lambda u - u^q in harmonic space.

    The Jacobian action w -> (-box + lambda) w - q u^{q-1} w is applied
    spectrally (the multiplication runs through the oversampled grid). Each
    linear step J d = -F is solved by GMRES right-preconditioned with M, the
    Jacobian with its multiplier frozen at its mean: M = -box + lambda -
    mean(q u^{q-1}), diagonal in harmonic space. GMRES solves (J M^-1) y = -F
    and the step is d = M^-1 y, so its residual is the true Newton residual
    |F + J d| (Knoll & Keyes, J. Comput. Phys. 193 (2004) 357). At a constant
    u the multiplier is constant, so M = J exactly. At the constant solution
    lambda^(1/(q-1)) both are -box + lambda - q lambda, invertible unless
    (q - 1) lambda is an eigenvalue l(l+1)/2, so always below the threshold;
    near it M's own step -M^-1 F meets the forcing term at any L. A degree
    whose entry of M is zero up to round-off, within 4 eps (-box + lambda +
    |mean|) of zero, keeps its entry of -box + lambda instead; at a constant
    start on such a resonance the mean's summation can leave that entry an
    ulp off zero, and dividing by it would wreck the preconditioner.
    Before each linear solve the step skips GMRES when it can: with
    z = M^-1 F, spread the largest |q u^{q-1} - mean| on the oversampled
    grid and G the degrees whose entry of M was replaced, |F - J z| is at
    most spread |z| + |mean| |z_G|, and where that bound is at most eta |F|
    the step is -z, taken with no Jacobian product (see _frozen_mean_step).
    Each step is solved only to the Eisenstat-Walker (choice 2) relative
    residual eta_k = 0.9 (|F_k| / |F_{k-1}|)^2, where |F| is the
    coefficient 2-norm of the residual; eta_0 = 0.9, and eta_k
    is kept at least 0.9 eta_{k-1}^2 while that exceeds 0.1, at least
    0.5 _TOL / |F_k|, and at most 0.9. That is the schedule of Kelley's
    nsoli (Solving Nonlinear Equations with Newton's Method, SIAM 2003).
    The cap decides how often the skip bound is met: the safeguard carries
    0.9 eta_{k-1}^2 into the next step, so after a first step that cuts |F|
    many times over, eta_1 is 0.73 under this cap where a cap of 0.5 would
    give 0.225, and M's step, which misses the tighter term, would pay for
    GMRES that the convergence theory does not ask for. A step is accepted
    at scale s when the field stays positive and |F| drops by the factor
    1 - 1e-4 s; otherwise s is halved, at most 30 times. Iteration stops
    when the sup of the residual on the base grid falls below _TOL = 1e-10,
    and gives up after _MAX_ITERS = 40 accepted steps. That grid
    integrates the residual's square exactly, so the sup is at least
    |F| / sqrt(4 pi), and the residual is synthesized only once
    |F| <= 2 _TOL sqrt(4 pi); an exit that reports the sup without converging
    synthesizes it then. The linear solves the bound does not settle use
    this module's `gmres`, one cycle of at most 100 inner iterations: one
    product with J M^-1 per inner iteration and none besides, since the true
    residual of the cycle is formed from the stored products, so a step's
    inner_iterations is also its count of Jacobian products, and 0 means M's
    step met eta. One solve therefore costs at most _MAX_ITERS x (100
    products + 31 trial steps). Running out of halvings or iterations, or a
    linear solve the cycle does not meet ("linear solver stalled"), yields a
    non-converged report, not an exception; a start field whose residual
    overflows the float range (such as u0^q at a large q) raises
    DomainError; a trial step whose residual overflows is halved like any
    other. The report's trace holds one NewtonStep per accepted step.
    """
    _check_parameters(lam, q)
    grid = u0.grid
    vals = _require_positive(u0, "newton_solve")

    shape = grid.coeff_shape()
    size = int(np.prod(shape))
    diag = grid.minus_box_diag + lam
    coeffs = u0.coeffs.copy()
    res, rnorm = _residual(grid, coeffs, vals, diag, q)
    if not np.isfinite(rnorm):
        raise DomainError(
            f"residual of the start field overflows the float range (lambda = {lam}, q = {q})"
        )
    trace: list[NewtonStep] = []

    def finish(converged: bool, rsup: float | None, message: str) -> SolveReport:
        if rsup is None:
            rsup = _sup(grid, res)
        # the solver's own copy or candidate, which nothing else holds
        u = SphereField(grid, coeffs)
        avg = u.mean()
        is_const = float(np.max(np.abs(u.values - avg))) < 10.0 * _TOL
        return SolveReport(
            converged=converged,
            iterations=len(trace),
            residual_sup=rsup,
            is_constant=is_const,
            constant_value=avg if is_const else None,
            message=message,
            field=u,
            trace=tuple(trace),
        )

    def matvec(y_flat: np.ndarray) -> np.ndarray:
        # the current step's preconditioner and multiplier, read at call time
        w = y_flat.reshape(shape) / shifted
        wvals = grid.synthesis(w, grid.over)
        return (w * diag - grid.analysis(jac_weight * wvals, grid.over)).ravel()

    # gmres reads only .matvec; shape and dtype are there for
    # bench/tracing.py, which rebuilds the operator around a counting matvec
    op = SimpleNamespace(matvec=matvec, shape=(size, size), dtype=np.dtype(float))

    # sup |F| >= |F| / sqrt(4 pi) on the base grid, so above this norm the
    # sup exceeds _TOL for certain and its synthesis is skipped
    decisive = 2.0 * _TOL * math.sqrt(AREA)
    eta = _EW_ETA_MAX
    for it in range(_MAX_ITERS + 1):
        rsup = None
        if rnorm <= decisive:
            rsup = _sup(grid, res)
            if rsup < _TOL:
                return finish(True, rsup, "converged")
        if it == _MAX_ITERS:
            return finish(False, rsup, "max iterations exceeded")

        if trace:
            prev = trace[-1].residual_norm
            safeguard = _EW_GAMMA * eta**_EW_ALPHA
            eta = _EW_GAMMA * (rnorm / prev) ** _EW_ALPHA
            if safeguard > 0.1:
                eta = max(eta, safeguard)
            # no point solving the last step far below the outer tolerance
            eta = min(_EW_ETA_MAX, max(eta, 0.5 * _TOL / rnorm))

        jac_weight = q * vals ** (q - 1.0)
        shifted, z, bound = _frozen_mean_step(grid, diag, jac_weight, res)
        if bound <= eta * rnorm:
            # M's own step meets the forcing term: no Jacobian product
            step, inner = -z, 0
        else:
            y, info, inner = gmres(op, -res.ravel(), rtol=eta)
            if info != 0:
                return finish(False, rsup, f"linear solver stalled (info = {info})")
            step = y.reshape(shape) / shifted

        scale = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            candidate = coeffs + scale * step
            cand_vals = grid.synthesis(candidate, grid.over)
            positive = cand_vals.min() > 0.0
            if positive:
                # an overflowing trial has an infinite norm and is rejected
                cand_res, cand_norm = _residual(grid, candidate, cand_vals, diag, q)
                if cand_norm <= (1.0 - _ARMIJO * scale) * rnorm:
                    break
            scale *= 0.5
        else:
            if not positive:
                return finish(False, rsup, f"positivity lost after {_MAX_HALVINGS} step halvings")
            return finish(False, rsup, f"residual not reduced after {_MAX_HALVINGS} step halvings")
        trace.append(NewtonStep(rnorm, inner, scale))
        coeffs, vals, res, rnorm = candidate, cand_vals, cand_res, cand_norm

    raise AssertionError("unreachable")
