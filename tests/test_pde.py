"""Sobolev quotient functional and Newton solver tests."""

import math

import numpy as np
import pytest

from ksl.errors import DomainError
from ksl.sphere import (
    AREA,
    SphereField,
    coordinate_z,
    make_grid,
    newton_solve,
    pde,
    quotient,
    quotient_gradient,
    random_band_limited,
    random_positive_field,
)


@pytest.fixture(scope="module")
def grid16():
    return make_grid(16)


@pytest.fixture(scope="module")
def grid8():
    return make_grid(8)


def tilted(grid, amplitude=0.1):
    return SphereField.constant(grid, 1.0) + amplitude * coordinate_z(grid)


def residual_sup(u, lam, q):
    """Sup over the base grid of -box u + lambda u - u^q, recomputed from u."""
    grid = u.grid
    lhs = u.coeffs * (grid.minus_box_eigs[None, :, None] + lam)
    res = lhs - grid.analysis(u.values_over() ** q, grid.over)
    return float(np.max(np.abs(grid.synthesis(res))))


class TestQuotient:
    def test_constant_value(self, grid16):
        for lam, q in ((1.0, 2.0), (0.7, 3.0)):
            val = quotient(SphereField.constant(grid16, 1.0), lam, q)
            assert val == pytest.approx(lam * AREA ** ((q - 1.0) / (q + 1.0)), rel=1e-13)

    def test_scaling_invariance(self, grid16):
        # homogeneity degree 0: numerator and denominator both scale as c^2
        u = tilted(grid16)
        base = quotient(u, 1.0, 2.0)
        assert quotient(2.0 * u, 1.0, 2.0) == pytest.approx(base, rel=1e-12)
        assert quotient(0.3 * u, 1.0, 2.5) == pytest.approx(
            quotient(u, 1.0, 2.5), rel=1e-12
        )

    def test_resolution_refinement(self, grid8, grid16):
        coarse = quotient(tilted(grid8), 1.0, 2.0)
        fine = quotient(tilted(grid16), 1.0, 2.0)
        assert abs(coarse - fine) < 1e-8

    def test_rejects_nonpositive_field(self, grid16):
        u = SphereField.constant(grid16, 0.5) + coordinate_z(grid16)
        with pytest.raises(DomainError):
            quotient(u, 1.0, 2.0)

    def test_rejects_nonpositive_lambda(self, grid16):
        u = SphereField.constant(grid16, 1.0)
        with pytest.raises(DomainError):
            quotient(u, 0.0, 2.0)
        for lam, q in ((np.nan, 2.0), (np.inf, 2.0), (-np.inf, 2.0), (1.0, np.nan), (1.0, np.inf)):
            with pytest.raises(DomainError):
                quotient(u, lam, q)
            with pytest.raises(DomainError):
                quotient_gradient(u, lam, q)


class TestQuotientGradient:
    def test_constant_is_critical(self, grid16):
        g = quotient_gradient(SphereField.constant(grid16, 1.0), 1.0, 2.0)
        assert g.sup_norm() < 1e-10

    def test_matches_finite_differences(self, grid16):
        h = 1e-5
        rng_seeds = (3, 4, 5, 6, 7)
        for base_seed in (20, 21, 22):
            u = random_positive_field(grid16, seed=base_seed, floor=1.0)
            grad = quotient_gradient(u, 1.0, 2.0)
            for seed in rng_seeds:
                v = random_band_limited(grid16, seed=seed)
                fd = (
                    quotient(u + h * v, 1.0, 2.0) - quotient(u - h * v, 1.0, 2.0)
                ) / (2 * h)
                pairing = grid16.integrate(grad.values * v.values)
                assert fd == pytest.approx(pairing, rel=1e-6)

    def test_constant_direction(self, grid16):
        u = tilted(grid16)
        grad = quotient_gradient(u, 1.0, 2.0)
        one = SphereField.constant(grid16, 1.0)
        h = 1e-5
        fd = (quotient(u + h * one, 1.0, 2.0) - quotient(u - h * one, 1.0, 2.0)) / (
            2 * h
        )
        assert grid16.integrate(grad.values * one.values) == pytest.approx(fd, rel=1e-6)


class TestNewtonSolve:
    def test_tilted_start_reaches_constant(self, grid16):
        u0 = SphereField.constant(grid16, 0.4) + 0.1 * coordinate_z(grid16)
        rep = newton_solve(0.4, 2.0, u0, tol=1e-10)
        assert rep.converged
        assert rep.is_constant
        assert rep.constant_value == pytest.approx(0.4, abs=1e-8)

    def test_exact_start_zero_iterations(self, grid16):
        rep = newton_solve(0.9, 2.0, SphereField.constant(grid16, 0.9), tol=1e-10)
        assert rep.converged
        assert rep.iterations == 0
        assert rep.residual_sup < 1e-12

    def test_twenty_seed_corpus_below_threshold(self, grid16):
        # below the threshold 1/(2*0.5) = 1 every run must land on the constant
        lam, q = 0.9, 2.0
        expected = lam ** (1.0 / (q - 1.0))
        for seed in range(20):
            u0 = random_positive_field(grid16, seed=seed, floor=0.5)
            rep = newton_solve(lam, q, u0, tol=1e-10)
            assert rep.converged, f"seed {seed}: {rep.message}"
            assert rep.is_constant, f"seed {seed} non-constant"
            assert rep.constant_value == pytest.approx(expected, abs=1e-8)

    def test_noninteger_exponent(self, grid16):
        lam, q = 0.5, 2.5
        u0 = random_positive_field(grid16, seed=100, floor=0.4)
        rep = newton_solve(lam, q, u0, tol=1e-10)
        assert rep.converged and rep.is_constant
        assert rep.constant_value == pytest.approx(lam ** (1.0 / (q - 1.0)), abs=1e-8)

    def test_max_iters_report_not_crash(self, grid16):
        u0 = SphereField.constant(grid16, 0.4) + 0.1 * coordinate_z(grid16)
        rep = newton_solve(0.4, 2.0, u0, tol=1e-14, max_iters=1)
        assert not rep.converged
        assert "max iterations" in rep.message

    def test_rejects_nonpositive_start(self, grid16):
        u0 = SphereField.constant(grid16, 0.1) + coordinate_z(grid16)
        with pytest.raises(DomainError):
            newton_solve(0.9, 2.0, u0)

    @pytest.mark.parametrize(
        "settings",
        [
            {"tol": np.nan},
            {"tol": np.inf},
            {"tol": 0.0},
            {"tol": -1.0},
            {"max_iters": -1},
            {"max_iters": 2.0},
        ],
    )
    def test_rejects_bad_solver_settings(self, grid16, settings):
        with pytest.raises(DomainError):
            newton_solve(0.4, 2.0, tilted(grid16), **settings)

    def test_stalled_linear_solver_is_reported(self, grid16, monkeypatch):
        monkeypatch.setattr(pde, "gmres", lambda op, rhs, **_: (np.zeros_like(rhs), 7, 1))
        rep = newton_solve(0.4, 2.0, tilted(grid16))
        assert not rep.converged
        assert rep.message == "linear solver stalled (info = 7)"
        assert rep.residual_sup == residual_sup(tilted(grid16), 0.4, 2.0)

    @pytest.mark.parametrize("max_iters", [0, 1, 2])
    def test_stopped_solve_reports_the_residual_sup(self, grid16, max_iters):
        # the solver skips the sup while the residual norm rules convergence
        # out; an exit that reports it still synthesizes it
        rep = newton_solve(0.9, 2.0, random_positive_field(grid16, seed=22), max_iters=max_iters)
        assert not rep.converged and rep.iterations == max_iters
        assert rep.residual_sup == residual_sup(rep.field, 0.9, 2.0)

    def test_residual_synthesized_only_where_its_norm_allows_convergence(self, monkeypatch):
        # the base grid integrates a residual's square exactly, so its sup is
        # at least |F| / sqrt(4 pi), and a step whose norm exceeds
        # 2 tol sqrt(4 pi) cannot have converged
        grid = make_grid(16)
        u0 = random_positive_field(grid, seed=22)
        synthesis = grid.synthesis
        base_calls = 0

        def counted(coeffs, sub=None):
            nonlocal base_calls
            base_calls += sub is None or sub is grid.base
            return synthesis(coeffs, sub)

        monkeypatch.setattr(grid, "synthesis", counted)
        tol = 1e-10
        rep = newton_solve(0.9, 2.0, u0, tol=tol)
        assert rep.converged
        decisive = sum(step.residual_norm <= 2.0 * tol * math.sqrt(AREA) for step in rep.trace)
        assert decisive < rep.iterations
        # the decisive steps, the converged check and the report's field values
        assert base_calls == decisive + 2

    def test_overflowing_start_is_a_domain_error(self, grid16):
        # u0^q passes the float range at q ~ 1e4 for this start (ksl pde-solve
        # --q 9991); the suite turns the overflow warning into an error
        with pytest.raises(DomainError, match="overflows the float range"):
            newton_solve(0.5, 9991.0, random_positive_field(grid16, 0))

    def test_overflowing_trial_step_is_halved(self):
        # a start from which a Newton trial step overflows u^q: that trial is
        # rejected like any other, and the solve ends in a report
        u0 = random_positive_field(make_grid(4), 10)
        rep = newton_solve(7.314258775682137e-06, 3985.12037059673, u0)
        assert np.isfinite(rep.residual_sup)

    def test_rejects_bad_parameters(self, grid16):
        u0 = SphereField.constant(grid16, 1.0)
        with pytest.raises(DomainError):
            newton_solve(-1.0, 2.0, u0)
        with pytest.raises(DomainError):
            newton_solve(0.9, 1.0, u0)
        for lam, q in ((np.nan, 2.0), (np.inf, 2.0), (0.9, np.nan), (0.9, np.inf), (0.9, -np.inf)):
            with pytest.raises(DomainError):
                newton_solve(lam, q, u0)

    @pytest.mark.parametrize(
        "L, lam, seed",
        [
            (16, 0.5, 34),
            (16, 0.5, 60),
            (16, 0.5, 108),
            (16, 0.5, 83),
            (16, 0.9, 58),
            (16, 0.4, 56),
            (32, 0.9, 0),
        ],
    )
    def test_hard_starts_reach_constant(self, L, lam, seed):
        # Newton with exact unpreconditioned linear solves and positivity-only
        # step control fails on the L=16 starts and needs 27 steps at L=32;
        # GMRES left-preconditioned by the mean-frozen Jacobian loses starts
        # of the scan below, so these also guard the right preconditioning
        u0 = random_positive_field(make_grid(L), seed)
        rep = newton_solve(lam, 2.0, u0)
        assert rep.converged, rep.message
        assert rep.is_constant
        assert abs(rep.constant_value - lam) < 1e-8

    @staticmethod
    def check_trace(rep):
        assert rep.converged
        assert len(rep.trace) == rep.iterations > 0
        norms = [step.residual_norm for step in rep.trace]
        assert all(b < a for a, b in zip(norms, norms[1:]))
        assert all(step.inner_iterations >= 1 for step in rep.trace)
        assert all(0.0 < step.scale <= 1.0 for step in rep.trace)

    def test_trace_records_each_accepted_step(self, grid16):
        # every step from this start is taken at full scale
        u0 = random_positive_field(grid16, seed=6)
        self.check_trace(newton_solve(0.4, 2.0, u0))
        exact = newton_solve(0.9, 2.0, SphereField.constant(grid16, 0.9))
        assert exact.trace == ()

    def test_trace_records_halved_steps(self, grid16):
        # from this start a full step raises the residual norm at some iterate
        rep = newton_solve(0.9, 2.0, random_positive_field(grid16, seed=22))
        self.check_trace(rep)
        assert any(step.scale < 1.0 for step in rep.trace)

    def test_inner_iterations_independent_of_band_limit(self, grid8):
        # the same start functions on a 16x finer coefficient space: the
        # right preconditioner is diagonal in harmonic space, so the Krylov
        # work per Newton step stays flat, where unpreconditioned GMRES grows
        # like L^2
        def worst_inner(grid):
            worst = 0
            for seed in range(4):
                u0 = random_positive_field(grid, seed, lmax=8)
                rep = newton_solve(0.4 if seed % 2 == 0 else 0.9, 2.0, u0)
                assert rep.converged, rep.message
                worst = max(worst, max(step.inner_iterations for step in rep.trace))
            return worst

        assert worst_inner(make_grid(32)) <= worst_inner(grid8)

    @pytest.mark.parametrize("lam, c", [(0.9, 0.95), (0.5, 0.75)])
    def test_constant_start_on_a_zero_shifted_entry(self, grid16, lam, c):
        # mean(q u^{q-1}) = 2c = 1 + lam is the l = 1 entry of -box + lambda,
        # so the mean-frozen Jacobian has an exact zero there; that degree
        # keeps its unshifted entry instead of dividing by zero
        rep = newton_solve(lam, 2.0, SphereField.constant(grid16, c))
        assert rep.converged, rep.message
        assert rep.constant_value == pytest.approx(lam, abs=1e-8)
        assert all(step.inner_iterations == 1 for step in rep.trace)

    @pytest.mark.parametrize("L", [8, 16, 24, 32])
    @pytest.mark.parametrize("c", [0.625, 0.75, 1.125, 1.5, 1.75, 2.0])
    def test_constant_start_on_a_round_off_zero_shifted_entry(self, L, c):
        # as above, 2c = 1 + lam, but the mean of q u^{q-1} summed in floating
        # point can leave the l = 1 shifted entry an ulp or so off zero; that
        # entry still counts as zero, so the preconditioner stays exact
        lam = 2.0 * c - 1.0
        rep = newton_solve(lam, 2.0, SphereField.constant(make_grid(L), c))
        assert rep.converged, rep.message
        assert rep.constant_value == pytest.approx(lam, abs=1e-8)
        assert all(step.inner_iterations == 1 for step in rep.trace)

    @pytest.mark.parametrize("L", [8, 16, 32])
    @pytest.mark.parametrize("lam", [0.4, 0.9])
    def test_near_constant_start_one_inner_iteration(self, L, lam):
        # GMRES is right-preconditioned by the Jacobian with its multiplier
        # frozen at its mean: exact at the constant solution, so near it each
        # Newton step is one Krylov iteration at any band limit
        grid = make_grid(L)
        u0 = SphereField.constant(grid, lam) + 1e-3 * coordinate_z(grid)
        rep = newton_solve(lam, 2.0, u0)
        assert rep.converged and rep.iterations > 0, rep.message
        assert [step.inner_iterations for step in rep.trace] == [1] * rep.iterations


class Dense:
    """A matrix as an operator that counts its products."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.products = 0

    def matvec(self, x):
        self.products += 1
        return self.matrix @ x


def run_gmres(matrix, b, restart, rtol=1e-10, maxiter=500):
    op = Dense(matrix)
    x, info, iterations = pde.gmres(op, b, rtol=rtol, restart=restart, maxiter=maxiter)
    return x, info, op.products, iterations


class TestGmres:
    @pytest.mark.parametrize("seed", range(5))
    def test_restarted_nonsymmetric_systems(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        matrix = 3.0 * np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)
        assert not np.allclose(matrix, matrix.T)
        b = rng.standard_normal(n)
        x, info, products, iterations = run_gmres(matrix, b, restart=3)
        assert info == 0
        assert products > 3  # several cycles ran
        assert products == iterations
        assert np.linalg.norm(b - matrix @ x) <= 1e-10 * np.linalg.norm(b)
        assert np.allclose(x, np.linalg.solve(matrix, b), rtol=0.0, atol=1e-8)

    def test_cyclic_shift_stagnates(self):
        # the Krylov space of e_1 reaches the solution e_n only at step n, so
        # every cycle shorter than n leaves x = 0 and the residual at |b|
        n, restart, maxiter = 8, 4, 3
        shift = np.roll(np.eye(n), 1, axis=0)
        b = np.eye(n)[0]
        x, info, products, iterations = run_gmres(shift, b, restart=restart, maxiter=maxiter)
        assert info != 0
        assert products == iterations == restart * maxiter
        assert np.linalg.norm(b - shift @ x) == pytest.approx(1.0)
        # with a cycle of length n it is one cycle, solved exactly
        x, info, products, _ = run_gmres(shift, b, restart=n)
        assert info == 0 and products == n
        assert np.allclose(x, np.eye(n)[-1])

    def test_singular_operator_breaks_down(self):
        # A e_1 = 0: the first product is already in the span, the pivot is
        # zero and the cycle stops without a division by it
        matrix = np.diag([0.0, 1.0, 2.0])
        x, info, products, iterations = run_gmres(matrix, np.eye(3)[0], restart=3)
        assert info != 0
        assert products == iterations == 1
        assert np.array_equal(x, np.zeros(3))

    def test_zero_right_hand_side(self):
        x, info, products, iterations = run_gmres(np.eye(5), np.zeros(5), restart=3)
        assert info == 0
        assert products == iterations == 0
        assert np.array_equal(x, np.zeros(5))


@pytest.mark.parametrize(
    "q, lam, starts",
    [(2.0, 0.4, 110), (2.0, 0.5, 110), (2.0, 0.9, 110), (2.5, 0.5, 20), (3.0, 0.7, 20)],
)
def test_start_scan_reaches_constant(grid16, q, lam, starts):
    # below the threshold the constant lambda^(1/(q-1)) is the only positive
    # solution, so every start must land on it
    expected = lam ** (1.0 / (q - 1.0))
    missed = []
    for seed in range(starts):
        rep = newton_solve(lam, q, random_positive_field(grid16, seed))
        if not (rep.converged and rep.is_constant and abs(rep.constant_value - expected) < 1e-8):
            missed.append((seed, rep.message, rep.constant_value))
    assert missed == []
