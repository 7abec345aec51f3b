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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from ..errors import DomainError
from .field import SphereField
from .grid import AREA, QuadratureGrid
from .ops import avg_square, grad_energy


def _require_positive(u: SphereField, who: str) -> np.ndarray:
    vals = u.values_over()
    if np.min(vals) <= 0.0:
        raise DomainError(f"{who} requires a pointwise positive field")
    return vals


def _power_avg(u: SphereField, p: float, vals_over: np.ndarray | None = None) -> float:
    vals = u.values_over() if vals_over is None else vals_over
    return u.grid.average(np.abs(vals) ** p, u.grid.over)


def _check_parameters(lam: float, q: float) -> None:
    if not (np.isfinite(lam) and lam > 0):
        raise DomainError(f"spectral parameter must be positive and finite, got {lam}")
    if not np.isfinite(q):
        raise DomainError(f"exponent must be finite, got q = {q}")


def quotient(u: SphereField, lam: float, q: float) -> float:
    """(int |del u|^2 + lambda int u^2) / (int |u|^{q+1})^{2/(q+1)}."""
    _check_parameters(lam, q)
    vals = _require_positive(u, "quotient")
    num = 0.5 * AREA * grad_energy(u) + lam * AREA * avg_square(u)
    den = (AREA * _power_avg(u, q + 1.0, vals)) ** (2.0 / (q + 1.0))
    return num / den


def quotient_gradient(u: SphereField, lam: float, q: float) -> SphereField:
    """L^2(dA) gradient of the quotient: the scaled Euler-Lagrange residual.

    The pairing of this field against a direction (as a raw sphere integral)
    equals the derivative of quotient along that direction.
    """
    _check_parameters(lam, q)
    grid = u.grid
    vals = _require_positive(u, "quotient_gradient")
    int_pow = AREA * _power_avg(u, q + 1.0, vals)
    num = 0.5 * AREA * grad_energy(u) + lam * AREA * avg_square(u)
    den = int_pow ** (2.0 / (q + 1.0))
    c = num / int_pow
    uq = grid.analysis(vals**q, grid.over)
    resid = u.coeffs * (grid.minus_box_eigs[None, :, None] + lam) - c * uq
    return SphereField.from_coeffs(grid, (2.0 / den) * resid)


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


def _residual_coeffs(
    grid: QuadratureGrid, coeffs: np.ndarray, vals_over: np.ndarray, diag: np.ndarray, q: float
) -> np.ndarray:
    """Coefficients of (-box + lambda) u - u^q; diag holds -box + lambda per degree."""
    return coeffs * diag - grid.analysis(vals_over**q, grid.over)


# Eisenstat-Walker choice 2 forcing terms (SISC 17 (1996) 16)
_EW_GAMMA = 0.9
_EW_ALPHA = 2.0
_EW_ETA_MAX = 0.5
# Armijo constant of the residual-decrease test
_ARMIJO = 1e-4
_MAX_HALVINGS = 30


def newton_solve(
    lam: float,
    q: float,
    u0: SphereField,
    tol: float = 1e-10,
    max_iters: int = 40,
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
    near it one inner iteration per step suffices at any L. A degree whose
    entry of M is exactly zero keeps its entry of -box + lambda instead.
    Each step is solved only to the Eisenstat-Walker (choice 2) relative
    residual eta_k = 0.9 (|F_k| / |F_{k-1}|)^2, where |F| is the
    coefficient 2-norm of the residual; eta_0 = 0.5, and eta_k
    is kept at least 0.9 eta_{k-1}^2 while that exceeds 0.1, at least
    0.5 tol / |F_k|, and at most 0.5. A step is accepted at scale s when
    the field stays positive and |F| drops by the factor 1 - 1e-4 s;
    otherwise s is halved, at most 30 times. Iteration stops when the sup of
    the residual on the grid falls below tol. Running out of halvings or
    iterations, or a GMRES failure, yields a non-converged report, not an
    exception. The report's trace holds one NewtonStep per accepted step.
    """
    _check_parameters(lam, q)
    if not q > 1:
        raise DomainError(f"exponent must exceed 1, got q = {q}")
    grid = u0.grid
    _require_positive(u0, "newton_solve")

    shape = grid.coeff_shape()
    size = int(np.prod(shape))
    diag = grid.minus_box_eigs[None, :, None] + lam
    coeffs = u0.coeffs.copy()
    vals = grid.synthesis(coeffs, grid.over)
    res = _residual_coeffs(grid, coeffs, vals, diag, q)
    rnorm = float(np.linalg.norm(res))
    trace: list[NewtonStep] = []

    def finish(converged: bool, rsup: float, message: str) -> SolveReport:
        u = SphereField.from_coeffs(grid, coeffs)
        avg = u.mean()
        is_const = float(np.max(np.abs(u.values - avg))) < 10.0 * tol
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

    eta = _EW_ETA_MAX
    for it in range(max_iters + 1):
        rsup = float(np.max(np.abs(grid.synthesis(res))))
        if rsup < tol:
            return finish(True, rsup, "converged")
        if it == max_iters:
            return finish(False, rsup, "max iterations exceeded")

        if trace:
            prev = trace[-1].residual_norm
            safeguard = _EW_GAMMA * eta**_EW_ALPHA
            eta = _EW_GAMMA * (rnorm / prev) ** _EW_ALPHA
            if safeguard > 0.1:
                eta = max(eta, safeguard)
            # no point solving the last step far below the outer tolerance
            eta = min(_EW_ETA_MAX, max(eta, 0.5 * tol / rnorm))

        jac_weight = q * vals ** (q - 1.0)
        # the Jacobian with its multiplier frozen at its mean; a degree whose
        # shifted entry is exactly zero keeps its unshifted one
        shifted = diag - grid.average(jac_weight, grid.over)
        shifted = np.where(shifted == 0.0, diag, shifted)

        def matvec(y_flat: np.ndarray) -> np.ndarray:
            w = y_flat.reshape(shape) / shifted
            wvals = grid.synthesis(w, grid.over)
            return (w * diag - grid.analysis(jac_weight * wvals, grid.over)).ravel()

        inner_norms: list[float] = []
        op = LinearOperator((size, size), matvec=matvec)
        y, info = gmres(
            op,
            -res.ravel(),
            rtol=eta,
            atol=0.0,
            restart=100,
            maxiter=500,
            callback=inner_norms.append,
            callback_type="pr_norm",
        )
        if info != 0:
            return finish(False, rsup, f"linear solver stalled (info = {info})")
        step = y.reshape(shape) / shifted

        scale = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            candidate = coeffs + scale * step
            cand_vals = grid.synthesis(candidate, grid.over)
            positive = float(np.min(cand_vals)) > 0.0
            if positive:
                cand_res = _residual_coeffs(grid, candidate, cand_vals, diag, q)
                cand_norm = float(np.linalg.norm(cand_res))
                if cand_norm <= (1.0 - _ARMIJO * scale) * rnorm:
                    break
            scale *= 0.5
        else:
            if not positive:
                return finish(False, rsup, f"positivity lost after {_MAX_HALVINGS} step halvings")
            return finish(False, rsup, f"residual not reduced after {_MAX_HALVINGS} step halvings")
        trace.append(NewtonStep(rnorm, len(inner_norms), scale))
        coeffs, vals, res, rnorm = candidate, cand_vals, cand_res, cand_norm

    raise AssertionError("unreachable")
