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


def gmres(A, b: np.ndarray, *, rtol: float, restart: int, maxiter: int):
    """Restarted GMRES for A x = b from x0 = 0 (Saad & Schultz, SISC 7 (1986) 856).

    A real operator needs only `.matvec`, called exactly once per inner
    iteration. The Arnoldi basis is built by modified Gram-Schmidt, and
    Givens rotations keep the least-squares residual of the Hessenberg
    problem. A cycle ends when that residual falls to rtol |b|, after
    `restart` iterations, or at a breakdown (the new product lies in the
    span of the basis, to round-off). The cycle then sets x += V y and
    r -= (A V) y from the stored basis and products, with no further product,
    and convergence is decided on this true residual: |r| <= rtol |b|.
    Returns (x, info, iterations): info is 0 on convergence, and otherwise
    `maxiter`, the number of cycles allowed, also when a breakdown stops the
    iteration early; iterations counts the inner iterations of all cycles,
    which is also the number of products. b = 0 returns zeros without a
    product.
    """
    bnorm = math.sqrt(b @ b)
    x = np.zeros(b.shape)
    if bnorm == 0.0:
        return x, 0, 0
    tol = rtol * bnorm
    r = np.array(b, dtype=float)
    rnorm = bnorm
    iterations = 0
    for _ in range(maxiter):
        basis = [r / rnorm]
        products: list[np.ndarray] = []
        columns: list[list[float]] = []  # the triangular factor, by column
        rotations: list[tuple[float, float]] = []
        g = [rnorm]  # the rotated right-hand side rnorm e_1
        for _ in range(min(restart, b.size)):
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
            iterations += 1
            breakdown = h_next <= _EPS * math.sqrt(product @ product)
            if abs(g[-1]) <= tol or breakdown:
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
        rnorm = math.sqrt(r @ r)
        if rnorm <= tol:
            return x, 0, iterations
        if breakdown:
            break
    return x, maxiter, iterations


# Eisenstat-Walker choice 2 forcing terms (SISC 17 (1996) 16)
_EW_GAMMA = 0.9
_EW_ALPHA = 2.0
_EW_ETA_MAX = 0.5
# Armijo constant of the residual-decrease test
_ARMIJO = 1e-4
_MAX_HALVINGS = 30
# a shifted entry of the preconditioner within this fraction of
# diag + |mean| of zero is zero up to round-off
_ZERO_SHIFT = 4.0 * _EPS


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
    entry of M is zero up to round-off, within 4 eps (-box + lambda +
    |mean|) of zero, keeps its entry of -box + lambda instead; at a constant
    start on such a resonance the mean's summation can leave that entry an
    ulp off zero, and dividing by it would wreck the preconditioner.
    Each step is solved only to the Eisenstat-Walker (choice 2) relative
    residual eta_k = 0.9 (|F_k| / |F_{k-1}|)^2, where |F| is the
    coefficient 2-norm of the residual; eta_0 = 0.5, and eta_k
    is kept at least 0.9 eta_{k-1}^2 while that exceeds 0.1, at least
    0.5 tol / |F_k|, and at most 0.5. A step is accepted at scale s when
    the field stays positive and |F| drops by the factor 1 - 1e-4 s;
    otherwise s is halved, at most 30 times. Iteration stops when the sup of
    the residual on the base grid falls below tol. That grid integrates the
    residual's square exactly, so the sup is at least |F| / sqrt(4 pi), and
    the residual is synthesized only once |F| <= 2 tol sqrt(4 pi); an exit
    that reports the sup without converging synthesizes it then. The linear
    solves use this module's `gmres` (restart 100, at most 500 cycles): one
    product with J M^-1 per inner iteration and none besides, since the true
    residual of a cycle is formed from the stored products, so a step's
    inner_iterations is also its count of Jacobian products. Running out of
    halvings or iterations, or a GMRES failure, yields a non-converged
    report, not an exception; a tol that is not positive and finite, a
    max_iters that is not an int >= 0, or a start field whose residual
    overflows the float range (such as u0^q at a large q), raises DomainError;
    a trial step whose residual overflows is halved like any other. The report's
    trace holds one NewtonStep per accepted step.
    """
    _check_parameters(lam, q)
    if not q > 1:
        raise DomainError(f"exponent must exceed 1, got q = {q}")
    if not (np.isfinite(tol) and tol > 0):
        raise DomainError(f"tolerance must be positive and finite, got tol = {tol}")
    if not (isinstance(max_iters, int) and max_iters >= 0):
        raise DomainError(f"max_iters must be an int >= 0, got {max_iters!r}")
    grid = u0.grid
    vals = _require_positive(u0, "newton_solve")

    shape = grid.coeff_shape()
    size = int(np.prod(shape))
    diag = grid.minus_box_eigs[None, :, None] + lam
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

    def matvec(y_flat: np.ndarray) -> np.ndarray:
        # the current step's preconditioner and multiplier, read at call time
        w = y_flat.reshape(shape) / shifted
        wvals = grid.synthesis(w, grid.over)
        return (w * diag - grid.analysis(jac_weight * wvals, grid.over)).ravel()

    # gmres reads only .matvec; shape and dtype are there for
    # bench/tracing.py, which rebuilds the operator around a counting matvec
    op = SimpleNamespace(matvec=matvec, shape=(size, size), dtype=np.dtype(float))

    # sup |F| >= |F| / sqrt(4 pi) on the base grid, so above this norm the
    # sup exceeds tol for certain and its synthesis is skipped
    decisive = 2.0 * tol * math.sqrt(AREA)
    eta = _EW_ETA_MAX
    for it in range(max_iters + 1):
        rsup = None
        if rnorm <= decisive:
            rsup = _sup(grid, res)
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
        # shifted entry is zero up to round-off keeps its unshifted one
        mean = grid.average(jac_weight, grid.over)
        shifted = diag - mean
        shifted = np.where(np.abs(shifted) <= _ZERO_SHIFT * (diag + abs(mean)), diag, shifted)

        y, info, inner = gmres(op, -res.ravel(), rtol=eta, restart=100, maxiter=500)
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
