"""Grid, transform, operator, and inequality tests on the unit sphere.

Oracles: scipy.special.lpmv for the Legendre tables (with the Condon-Shortley
phase stripped), closed-form moments of low-degree fields, dual-path
agreement between spectral and quadrature evaluations, and per-order loop
transforms fed by `legendre_tables` (defined here, on the value recurrence
run one order at a time, which is also the bit-for-bit oracle of the
package's degree-batched table) for the batched kernel. The package itself never calls
scipy.special; only this test module does, as an oracle.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from ksl.errors import DomainError
from ksl.sphere import (
    AREA,
    SphereField,
    avg_square,
    box_op,
    coordinate_z,
    grad_energy,
    make_grid,
    measure_lambda1,
    perturbation_tcoeff,
    random_band_limited,
    sobolev_check,
)
from ksl.sphere.grid import MAX_TABLE_BYTES, _legendre_table, table_bytes
from ksl.sphere.ops import _energy_blocks, power_average


def _legendre_orders(L: int, mu: np.ndarray):
    """The Legendre recurrence, one order at a time.

    Yields, for m = 0..L, an array of shape (L+1-m, len(mu)) whose row i holds
    N_{m+i, m}(mu), with int_{-1}^{1} N_lm^2 dmu = 1 and no Condon-Shortley
    phase.
    """
    mu = np.asarray(mu, dtype=float)
    s = np.sqrt(1.0 - mu * mu)
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


def legendre_tables(L: int, mu: np.ndarray) -> tuple[list, list]:
    """Orthonormal associated Legendre values and theta-derivatives.

    Returns (plm, dplm), lists indexed by order m; plm[m] has shape
    (L+1-m, len(mu)) with row i holding N_{m+i, m}(mu). dplm[m] holds
    d/dtheta of the same rows, one row at a time from the degree-lowering
    relation: the oracle for the batched transforms and gradient.
    """
    mu = np.asarray(mu, dtype=float)
    s = np.sqrt(1.0 - mu * mu)
    plm = list(_legendre_orders(L, mu))
    dplm = []
    for m, rows in enumerate(plm):
        drows = np.zeros_like(rows)
        for l in range(m, L + 1):
            acc = l * mu * rows[l - m]
            if l > m:
                e = np.sqrt((2.0 * l + 1.0) * (l * l - m * m) / (2.0 * l - 1.0))
                acc = acc - e * rows[l - m - 1]
            drows[l - m] = acc / s
        dplm.append(drows)
    return plm, dplm


def sphere_average(f: SphereField) -> float:
    """Quadrature average (1/Vol) int f dA on the analysis grid."""
    return f.grid.average(f.values)


@pytest.fixture(scope="module")
def grid16():
    return make_grid(16)


@pytest.fixture(scope="module")
def grid8():
    return make_grid(8)


class TestLegendreTables:
    @pytest.mark.parametrize("L", [2, 3, 16, 64])
    def test_table_is_the_per_order_recurrence_bit_for_bit(self, L):
        grid = make_grid(L)
        for sub in (grid.base, grid.over):
            oracle = np.zeros_like(sub.P)
            for m, rows in enumerate(_legendre_orders(L, sub.mu)):
                oracle[m, m:] = rows
            assert np.array_equal(sub.P, oracle)

    def test_table_needs_interior_nodes(self):
        with pytest.raises(DomainError, match="interior nodes"):
            _legendre_table(4, np.array([-0.5, 1.0]))

    def test_against_scipy(self, grid16):
        # scipy's lpmv carries the Condon-Shortley (-1)^m; ours does not
        mu = grid16.base.mu
        plm, _ = legendre_tables(10, mu)
        for m in range(11):
            for l in range(m, 11):
                norm = math.sqrt(
                    (2 * l + 1)
                    / 2.0
                    * math.factorial(l - m)
                    / math.factorial(l + m)
                )
                oracle = (-1.0) ** m * norm * scipy.special.lpmv(m, l, mu)
                np.testing.assert_allclose(
                    plm[m][l - m], oracle, atol=1e-12, err_msg=f"(l,m)=({l},{m})"
                )

    def test_orthonormal_rows(self, grid16):
        plm, _ = legendre_tables(16, grid16.base.mu)
        w = grid16.base.wmu
        for m in (0, 1, 5):
            gram = plm[m] @ (w[:, None] * plm[m].T)
            np.testing.assert_allclose(gram, np.eye(gram.shape[0]), atol=1e-12)

    def test_theta_derivative_against_finite_difference(self, grid16):
        mu = grid16.base.mu
        theta = np.arccos(mu)
        h = 1e-6
        plm_p, _ = legendre_tables(8, np.cos(theta + h))
        plm_m, _ = legendre_tables(8, np.cos(theta - h))
        _, dplm = legendre_tables(8, mu)
        for m in (0, 2):
            fd = (plm_p[m] - plm_m[m]) / (2 * h)
            np.testing.assert_allclose(dplm[m], fd, atol=1e-6)


def loop_analysis(grid, values, sub):
    """Per-order reference for `QuadratureGrid.analysis`."""
    plm, _ = legendre_tables(grid.L, sub.mu)
    F = np.fft.rfft(np.asarray(values, dtype=float), axis=1)
    coeffs = np.zeros(grid.coeff_shape())
    g0 = F[:, 0].real / sub.nphi
    coeffs[0, :, 0] = np.sqrt(2.0 * np.pi) * (plm[0] @ (sub.wmu * g0))
    for m in range(1, grid.L + 1):
        gc = 2.0 * F[:, m].real / sub.nphi
        gs = -2.0 * F[:, m].imag / sub.nphi
        coeffs[0, m:, m] = np.sqrt(np.pi) * (plm[m] @ (sub.wmu * gc))
        coeffs[1, m:, m] = np.sqrt(np.pi) * (plm[m] @ (sub.wmu * gs))
    return coeffs


def loop_synthesis(grid, coeffs, sub):
    """Per-order reference for `QuadratureGrid.synthesis`."""
    plm, _ = legendre_tables(grid.L, sub.mu)
    Fm = np.zeros((sub.ntheta, sub.nphi // 2 + 1), dtype=complex)
    Fm[:, 0] = (plm[0].T @ coeffs[0, :, 0]) / np.sqrt(2.0 * np.pi) * sub.nphi
    for m in range(1, grid.L + 1):
        gc = (plm[m].T @ coeffs[0, m:, m]) / np.sqrt(np.pi)
        gs = (plm[m].T @ coeffs[1, m:, m]) / np.sqrt(np.pi)
        Fm[:, m] = (gc - 1j * gs) * (sub.nphi / 2.0)
    return np.fft.irfft(Fm, n=sub.nphi, axis=1)


def loop_synth_gradient(grid, coeffs):
    """Per-order reference for `QuadratureGrid.synth_gradient`, from `dplm`."""
    sub = grid.base
    plm, dplm = legendre_tables(grid.L, sub.mu)
    Ft = np.zeros((sub.ntheta, sub.nphi // 2 + 1), dtype=complex)
    Fp = np.zeros_like(Ft)
    Ft[:, 0] = (dplm[0].T @ coeffs[0, :, 0]) / np.sqrt(2.0 * np.pi) * sub.nphi
    for m in range(1, grid.L + 1):
        gc = (plm[m].T @ coeffs[0, m:, m]) / np.sqrt(np.pi)
        gs = (plm[m].T @ coeffs[1, m:, m]) / np.sqrt(np.pi)
        dc = (dplm[m].T @ coeffs[0, m:, m]) / np.sqrt(np.pi)
        ds = (dplm[m].T @ coeffs[1, m:, m]) / np.sqrt(np.pi)
        Ft[:, m] = (dc - 1j * ds) * (sub.nphi / 2.0)
        Fp[:, m] = (m * gs + 1j * m * gc) * (sub.nphi / 2.0)
    dtheta = np.fft.irfft(Ft, n=sub.nphi, axis=1)
    dphi = np.fft.irfft(Fp, n=sub.nphi, axis=1)
    return dtheta, dphi / sub.sintheta[:, None]


class TestBatchedKernel:
    """The one-matmul transforms against the per-order loops."""

    @pytest.fixture(scope="class", params=[2, 3, 16, 64])
    def grid(self, request):
        return make_grid(request.param)

    @pytest.mark.parametrize("subgrid", ["base", "over"])
    def test_transforms_match_loops(self, grid, subgrid):
        sub = getattr(grid, subgrid)
        coeffs = random_band_limited(grid, seed=grid.L).coeffs
        np.testing.assert_allclose(
            grid.synthesis(coeffs, sub), loop_synthesis(grid, coeffs, sub), rtol=0, atol=1e-13
        )
        values = np.random.default_rng(grid.L).standard_normal((sub.ntheta, sub.nphi))
        np.testing.assert_allclose(
            grid.analysis(values, sub), loop_analysis(grid, values, sub), rtol=0, atol=1e-13
        )

    @pytest.mark.parametrize("subgrid", ["base", "over"])
    def test_transforms_accept_any_memory_layout(self, grid, subgrid):
        # the kernel's speed depends on operand layout; its results must not
        sub = getattr(grid, subgrid)
        rng = np.random.default_rng(grid.L)
        coeffs = grid.analysis(rng.standard_normal((sub.ntheta, sub.nphi)), sub)
        assert not (coeffs.flags.c_contiguous or coeffs.flags.f_contiguous)
        c_ordered = np.ascontiguousarray(coeffs)
        want = grid.synthesis(c_ordered, sub)
        for layout in (np.asfortranarray(coeffs), coeffs):
            np.testing.assert_allclose(grid.synthesis(layout, sub), want, rtol=0, atol=1e-13)
        # read-only with a zero stride, along theta and along phi
        for shape in ((1, sub.nphi), (sub.ntheta, 1)):
            values = np.broadcast_to(rng.standard_normal(shape), (sub.ntheta, sub.nphi))
            assert not values.flags.writeable and 0 in values.strides
            np.testing.assert_allclose(
                grid.analysis(values, sub),
                grid.analysis(np.array(values), sub),
                rtol=0,
                atol=1e-13,
            )

    def test_gradient_matches_loop_in_any_layout(self, grid):
        # the gradient is synthesized on the base grid only
        coeffs = random_band_limited(grid, seed=grid.L).coeffs
        for got, want in zip(grid.synth_gradient(coeffs), loop_synth_gradient(grid, coeffs)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        rng = np.random.default_rng(grid.L)
        coeffs = grid.analysis(rng.standard_normal((grid.base.ntheta, grid.base.nphi)))
        want = grid.synth_gradient(np.ascontiguousarray(coeffs))
        for layout in (np.asfortranarray(coeffs), coeffs):
            for got, ref in zip(grid.synth_gradient(layout), want):
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("subgrid", ["base", "over"])
    def test_trig_table_discrete_orthogonality(self, grid, subgrid):
        # equispaced phi nodes are exact for every product of two orders <= L
        sub = getattr(grid, subgrid)
        gram = sub.to_grid @ (sub.to_grid.T * (2.0 * np.pi / sub.nphi))
        want = np.eye(2 * (grid.L + 1))
        want[1, 1] = 0.0  # the sin slot of m = 0 holds no basis function
        np.testing.assert_array_equal(sub.to_grid[1], 0.0)
        np.testing.assert_allclose(gram, want, rtol=0, atol=1e-14)


class TestGridInvariants:
    def test_rejects_small_band_limit(self):
        with pytest.raises(DomainError):
            make_grid(1)

    @pytest.mark.parametrize("L", [280, 100_000])
    def test_rejects_tables_above_memory_ceiling(self, L):
        # the check runs before any table is allocated
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=f"limit of {MAX_TABLE_BYTES} bytes"):
                make_grid(L)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("L", [8, 16])
    def test_table_bytes_count_every_stored_array(self, L):
        grid = make_grid(L)
        arrays = list(vars(grid).values())
        for sub in (grid.base, grid.over):
            arrays += [getattr(sub, name) for name in sub.__slots__]
        # count the memory each array holds once: a view adds no bytes to the
        # buffer it shows
        buffers = {}
        for a in arrays:
            if isinstance(a, np.ndarray):
                while a.base is not None:
                    a = a.base
                buffers[id(a)] = a.nbytes
        assert table_bytes(L) == sum(buffers.values())

    @pytest.mark.parametrize("L", [2, 8, 64])
    def test_draw_slots_cover_the_basis_once_by_degree(self, L):
        grid = make_grid(L)
        slots = grid.draw_slots
        assert slots.shape == ((L + 1) ** 2,)
        # no slot twice, each a basis slot: m <= l, and no sin part at m = 0
        assert np.unique(slots).size == slots.size
        s, l, m = np.unravel_index(slots, grid.coeff_shape())
        assert np.all(m <= l)
        assert not np.any((s == 1) & (m == 0))
        # degree k has 2k+1 basis slots, so the first (k+1)^2 draws, all of
        # degree <= k, are exactly the degrees <= k
        for k in range(L + 1):
            assert np.all(l[: (k + 1) ** 2] <= k)

    @pytest.mark.parametrize("L", [2, 8])
    def test_layout_members_match_a_slot_loop(self, L):
        # the grid is the one owner of c[s, l, m]: each member it offers for
        # the layout is checked slot by slot against the draw slots' (s, l, m)
        grid = make_grid(L)
        shape = grid.coeff_shape()
        slots = list(zip(*(a.tolist() for a in np.unravel_index(grid.draw_slots, shape))))
        eigs = np.broadcast_to(grid.minus_box_diag, shape)
        for s, l, m in slots:
            assert eigs[s, l, m] == l * (l + 1) / 2
        # small integers square and sum exactly in any order
        coeffs = np.zeros(shape)
        sums = [0.0] * (L + 1)
        rng = np.random.default_rng(L)
        for s, l, m in slots:
            coeffs[s, l, m] = float(rng.integers(-9, 10))
            sums[l] += coeffs[s, l, m] ** 2
        assert grid.degree_square_sums(coeffs).tolist() == sums
        for slot in np.ndindex(*shape):
            if slot not in slots:
                s, l, m = slot
                assert m > l or (s == 1 and m == 0)
        const = grid.constant_coeffs(-0.7)
        for s, l, m in slots:
            assert const[s, l, m] == (-0.7 * math.sqrt(AREA) if l == 0 else 0.0)
        assert np.count_nonzero(const) == 1
        [(s0, l0, m0)] = [slot for slot in slots if slot[1] == 0]
        assert grid.coeffs_mean(coeffs) == coeffs[s0, l0, m0] / math.sqrt(AREA)
        assert grid.coeffs_mean(const) == pytest.approx(-0.7, rel=1e-15)
        assert grid.coeffs_mean(coeffs) == pytest.approx(
            grid.average(grid.synthesis(coeffs)), abs=1e-12
        )

    def test_subgrids_share_lowering_factors(self, grid8):
        assert grid8.over.lower is grid8.base.lower

    def test_ceiling_band_limit(self):
        assert table_bytes(279) <= MAX_TABLE_BYTES < table_bytes(280)

    def test_weights_sum_to_area(self, grid8):
        ones = np.ones((grid8.base.ntheta, grid8.base.nphi))
        assert abs(grid8.integrate(ones) - AREA) < 1e-13

    @pytest.mark.parametrize("L", [2, 3, 16, 64])
    @pytest.mark.parametrize("layout", ["C", "F", "broadcast"])
    def test_integrate_is_the_weighted_double_sum(self, L, layout):
        grid = make_grid(L)
        rng = np.random.default_rng(L)
        for sub in (grid.base, grid.over):
            shape = (sub.ntheta, sub.nphi)
            if layout == "broadcast":
                values = np.broadcast_to(rng.uniform(-1.0, 2.0, (sub.ntheta, 1)), shape)
            else:
                values = np.asarray(rng.uniform(-1.0, 2.0, shape), order=layout)
            terms = [w * v for w, row in zip(sub.row_weights, values) for v in row]
            scale = math.fsum(abs(t) for t in terms)
            assert abs(grid.integrate(values, sub) - math.fsum(terms)) <= 1e-14 * scale

    @pytest.mark.parametrize("L", [2, 3, 16, 64])
    def test_sup_bounds_the_coefficient_norm(self, L):
        # the base grid integrates f^2 exactly, so 4 pi max f^2 >= |c|^2;
        # newton_solve skips the sup of a residual whose norm decides it
        grid = make_grid(L)
        fields = [SphereField.constant(grid, -0.7)]
        for seed in range(6):
            fields += [random_band_limited(grid, seed, decay=decay) for decay in (0.0, 2.0)]
        for f in fields:
            sup = float(np.max(np.abs(grid.synthesis(f.coeffs))))
            norm = math.sqrt(float(np.sum(f.coeffs**2)))
            assert sup >= norm / math.sqrt(AREA) * (1.0 - 1e-12)

    def test_average_of_constant(self, grid8):
        assert sphere_average(SphereField.constant(grid8, 1.0)) == pytest.approx(
            1.0, abs=1e-13
        )

    def test_average_z_squared(self, grid8):
        z = coordinate_z(grid8)
        zsq = SphereField.from_values(grid8, z.values**2)
        assert abs(sphere_average(zsq) - 1.0 / 3.0) < 1e-12

    def test_polynomial_exactness_to_double_band(self, grid8):
        # quadrature must null every harmonic up to l = 2L except the constant
        L = grid8.L
        plm, _ = legendre_tables(2 * L, grid8.base.mu)
        phi = grid8.base.phi
        rng = np.random.default_rng(0)
        for _ in range(20):
            l = int(rng.integers(1, 2 * L + 1))
            m = int(rng.integers(0, min(l, L) + 1))
            prof = plm[m][l - m]
            trig = np.cos(m * phi) if rng.integers(2) else np.sin(m * phi)
            if m == 0:
                trig = np.ones_like(phi)
            vals = np.outer(prof, trig)
            assert abs(grid8.integrate(vals)) < 1e-12

    def test_roundtrip_band_limited(self, grid16):
        f = random_band_limited(grid16, seed=5)
        rt = grid16.synthesis(grid16.analysis(f.values))
        assert np.max(np.abs(rt - f.values)) < 1e-10

    def test_harmonic_mean_matches_quadrature(self, grid16):
        f = random_band_limited(grid16, seed=6)
        assert abs(f.mean() - sphere_average(f)) < 1e-12

    def test_oversampled_grid_consistency(self, grid8):
        f = random_band_limited(grid8, seed=9)
        # averaging f^2 on base and oversampled grids must agree exactly
        base = grid8.average(f.values**2)
        over = grid8.average(f.values_over() ** 2, grid8.over)
        assert abs(base - over) < 1e-13


class TestBoxOperator:
    def test_first_mode_eigenvalue_one(self, grid16):
        z = coordinate_z(grid16)
        defect = (box_op(z) + z).sup_norm()
        assert defect < 1e-11

    def test_constant_killed(self, grid16):
        assert box_op(SphereField.constant(grid16, 3.0)).sup_norm() < 1e-14

    def test_second_mode_eigenvalue_three(self, grid16):
        coeffs = np.zeros(grid16.coeff_shape())
        coeffs[0, 2, 1] = 1.0
        f = SphereField(grid16, coeffs)
        defect = (box_op(f) + 3.0 * f).sup_norm()
        assert defect < 1e-12

    def test_self_adjointness(self, grid16):
        f = random_band_limited(grid16, seed=10)
        g = random_band_limited(grid16, seed=11)
        lhs = grid16.integrate(box_op(f).values * g.values)
        rhs = grid16.integrate(f.values * box_op(g).values)
        assert abs(lhs - rhs) < 1e-10

    def test_energy_identity(self, grid16):
        # int |del f|^2 = -int f box f
        f = random_band_limited(grid16, seed=12)
        lhs = 0.5 * AREA * grad_energy(f)
        rhs = -grid16.integrate(f.values * box_op(f).values)
        assert abs(lhs - rhs) < 1e-10


class TestGradEnergy:
    def test_first_mode_value(self, grid16):
        z = coordinate_z(grid16)
        assert abs(grad_energy(z) - 2.0 / 3.0) < 1e-10

    def test_constant_zero(self, grid16):
        assert grad_energy(SphereField.constant(grid16, 2.0)) == 0.0

    def test_dual_paths_agree(self, grid16):
        for seed in (1, 2, 3):
            f = random_band_limited(grid16, seed=seed)
            spec = grad_energy(f, "spectral")
            quad = grad_energy(f, "quadrature")
            assert abs(spec - quad) < 1e-9

    def test_unknown_method_rejected(self, grid16):
        with pytest.raises(DomainError):
            grad_energy(coordinate_z(grid16), method="magic")


def dense_lambda1_matrices(L):
    """Stiffness and mass over the whole mean-zero basis, one dense pair.

    Columns run over the (m, cos/sin) blocks: block 0 is zonal, 2m-1 and 2m
    are the cos and sin parts of order m. Returns (K, M, block) with block[j]
    the block of column j.
    """
    ntheta, nphi = L + 1, 2 * (L + 1)
    mu, wmu = np.polynomial.legendre.leggauss(ntheta)
    plm, dplm = legendre_tables(L, mu)
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    inv_sin = 1.0 / np.sqrt(1.0 - mu * mu)
    ones = np.ones(nphi) / np.sqrt(2.0 * np.pi)
    cols, block = [], []
    for m in range(L + 1):
        if m == 0:
            for p, dp in zip(plm[0][1:], dplm[0][1:]):
                cols.append((np.outer(p, ones), np.outer(dp, ones), np.zeros((ntheta, nphi))))
                block.append(0)
            continue
        c, s = np.cos(m * phi) / np.sqrt(np.pi), np.sin(m * phi) / np.sqrt(np.pi)
        for p, dp in zip(plm[m], dplm[m]):
            cols.append((np.outer(p, c), np.outer(dp, c), np.outer(p * inv_sin, -m * s)))
            block.append(2 * m - 1)
            cols.append((np.outer(p, s), np.outer(dp, s), np.outer(p * inv_sin, m * c)))
            block.append(2 * m)
    V, Gt, Gp = (np.stack([col[i].ravel() for col in cols], axis=1) for i in range(3))
    w = np.outer(wmu, np.full(nphi, 2.0 * np.pi / nphi)).ravel()[:, None]
    M = V.T @ (w * V)
    K = 0.5 * (Gt.T @ (w * Gt) + Gp.T @ (w * Gp))
    return K, M, np.array(block)


class TestLambda1:
    def test_measured_value_is_one(self, grid16):
        assert abs(measure_lambda1(grid16) - 1.0) < 1e-8

    @pytest.mark.parametrize("L", [4, 8, 12])
    def test_blocks_match_dense_oracle(self, L):
        K, M, _ = dense_lambda1_matrices(L)
        dense = scipy.linalg.eigh(K, M, eigvals_only=True)[0]
        assert abs(measure_lambda1(make_grid(L)) - dense) < 1e-12

    @pytest.mark.parametrize("L", [4, 8, 12])
    def test_entries_between_blocks_vanish(self, L):
        K, M, block = dense_lambda1_matrices(L)
        between = block[:, None] != block[None, :]
        for A in (K, M):
            assert np.max(np.abs(A[between])) < 1e-12 * np.max(np.diag(A))

    def test_large_band_limit(self):
        assert abs(measure_lambda1(make_grid(64)) - 1.0) < 1e-8

    # 64 is the band limit CI's sphere-verify runs at
    @pytest.mark.parametrize("L", [2, 3, 8, 16, 64])
    def test_every_block_spectrum_is_exact(self, L):
        # measure_lambda1 sees only the minimum, which comes from m = 1; the
        # whole spectrum of each block must be l(l+1)/2, l = max(m, 1)..L,
        # down to the one-row blocks of m = L
        blocks = list(_energy_blocks(make_grid(L)))
        assert len(blocks) == 2 * L + 1
        for m, K, M in blocks:
            ls = np.arange(max(m, 1), L + 1)
            expected = ls * (ls + 1) / 2.0
            eig = scipy.linalg.eigh(K, M, eigvals_only=True)
            assert np.max(np.abs(eig - expected) / expected) < 1e-10, f"order {m}"


class TestSobolevCheck:
    def test_constant_saturates(self, grid16):
        rep = sobolev_check(SphereField.constant(grid16, 3.0), 2.0, 0.5)
        assert rep.lhs == pytest.approx(9.0, abs=1e-10)
        assert rep.margin == pytest.approx(0.0, abs=1e-10)

    def test_one_plus_z_reference(self, grid16):
        phi = SphereField.constant(grid16, 1.0) + coordinate_z(grid16)
        rep = sobolev_check(phi, 2.0, 0.5, trial="1+z")
        assert rep.lhs == pytest.approx(2.0 ** (2.0 / 3.0), abs=1e-9)
        assert rep.rhs == pytest.approx(5.0 / 3.0, abs=1e-9)
        assert rep.margin == pytest.approx(5.0 / 3.0 - 2.0 ** (2.0 / 3.0), abs=1e-9)

    def test_corpus_margin_nonnegative(self, grid16):
        # conjectured constant at n = 1 is (q-1)/2 = 0.5 for q = 2
        for seed in range(100):
            phi = random_band_limited(grid16, seed=seed)
            rep = sobolev_check(phi, 2.0, 0.5, trial=f"seed{seed}")
            assert rep.margin >= -1e-9, f"seed {seed}: margin {rep.margin}"

    def test_rejects_zero_field(self, grid16):
        with pytest.raises(DomainError):
            sobolev_check(SphereField.constant(grid16, 0.0), 2.0, 0.5)

    def test_rejects_bad_exponent(self, grid16):
        with pytest.raises(DomainError):
            sobolev_check(coordinate_z(grid16), 1.0, 0.5)

    @pytest.mark.parametrize("q", [math.nan, math.inf])
    def test_rejects_non_finite_exponent(self, grid16, q):
        # the zero field would fail too, but only after the exponent check
        with pytest.raises(DomainError, match="exponent"):
            sobolev_check(SphereField.constant(grid16, 0.0), q, 0.5)

    @pytest.mark.parametrize("C", [math.nan, math.inf, -math.inf, 0.0])
    def test_rejects_constant_not_positive_and_finite(self, grid16, C):
        # a NaN margin or an infinite one would pass every field
        with pytest.raises(DomainError, match="constant"):
            sobolev_check(SphereField.constant(grid16, 0.0), 2.0, C)

    @pytest.mark.parametrize("value", [5e102, 1e200])
    def test_overflowing_power_average_is_a_domain_error(self, grid8, value):
        # at 5e102 every |u|^3 is finite but their sum is not; at 1e200 the
        # powers overflow. The suite turns an overflow warning into an error.
        with pytest.raises(DomainError, match="not finite"):
            sobolev_check(SphereField.constant(grid8, value), 2.0, 0.5)

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0, 2.4])
    def test_power_average_matches_the_direct_power(self, grid16, q):
        # the product fast paths (q = 1.5, 2, 3) and the general pow agree
        # with |u|^(q+1) to round-off
        vals = random_band_limited(grid16, 5).values_over()
        direct = grid16.average(np.abs(vals) ** (q + 1.0), grid16.over)
        assert power_average(grid16, vals, q) == pytest.approx(direct, rel=1e-14)


class TestPerturbation:
    def test_equality_at_conjectured_constant(self, grid16):
        lhs_t2, rhs_t2 = perturbation_tcoeff(coordinate_z(grid16), 2.0, 0.5)
        assert lhs_t2 == pytest.approx(2.0 / 3.0, abs=1e-8)
        assert rhs_t2 == pytest.approx(2.0 / 3.0, abs=1e-8)

    def test_slack_above_conjectured_constant(self, grid16):
        lhs_t2, rhs_t2 = perturbation_tcoeff(coordinate_z(grid16), 2.0, 0.75)
        assert rhs_t2 == pytest.approx(5.0 / 6.0, abs=1e-8)
        assert rhs_t2 > lhs_t2

    def test_small_exponent_limit(self, grid16):
        z = coordinate_z(grid16)
        lhs_t2, _ = perturbation_tcoeff(z, 1.0 + 1e-9, 0.5)
        assert lhs_t2 == pytest.approx(avg_square(z), abs=1e-8)

    def test_ordering_whenever_constant_large_enough(self, grid16):
        z = coordinate_z(grid16)
        for C in (0.5, 0.6, 1.3, 7.0):
            for q in (1.5, 2.0, 3.0):
                if C >= (q - 1.0) / 2.0:  # lambda_1 = 1 here
                    lhs_t2, rhs_t2 = perturbation_tcoeff(z, q, C)
                    assert lhs_t2 <= rhs_t2 + 1e-10

    def test_rejects_non_eigenfunction(self, grid16):
        coeffs = np.zeros(grid16.coeff_shape())
        coeffs[0, 2, 0] = 1.0
        f = SphereField(grid16, coeffs)
        with pytest.raises(DomainError):
            perturbation_tcoeff(f, 2.0, 0.5)

    def test_rejects_nonzero_mean(self, grid16):
        f = coordinate_z(grid16) + SphereField.constant(grid16, 0.5)
        with pytest.raises(DomainError):
            perturbation_tcoeff(f, 2.0, 0.5)

    @pytest.mark.parametrize("C", [math.nan, math.inf, 0.0])
    def test_rejects_constant_not_positive_and_finite(self, grid16, C):
        # checked before the eigenfunction test that this field would fail
        f = coordinate_z(grid16) + SphereField.constant(grid16, 0.5)
        with pytest.raises(DomainError, match="constant"):
            perturbation_tcoeff(f, 2.0, C)

    @pytest.mark.parametrize("q", [math.nan, math.inf, 1.0, 0.5, -1.0])
    def test_rejects_exponent_outside_one_to_infinity(self, grid16, q):
        # the bound sobolev_check applies; q = 1 + 1e-9 stays accepted
        with pytest.raises(DomainError, match="exponent"):
            perturbation_tcoeff(coordinate_z(grid16), q, 0.5)

    def test_synthesizes_f_on_the_oversampled_grid_once(self, monkeypatch):
        grid = make_grid(16)
        synthesis = grid.synthesis
        over_calls = 0

        def counted(coeffs, sub=None):
            nonlocal over_calls
            over_calls += sub is grid.over
            return synthesis(coeffs, sub)

        monkeypatch.setattr(grid, "synthesis", counted)
        perturbation_tcoeff(coordinate_z(grid), 2.0, 0.5)
        assert over_calls == 1


def loop_random_coeffs(grid, seed, lmax=None, decay=2.0):
    """Per-degree reference for the draw order of `random_band_limited`."""
    rng = np.random.default_rng(seed)
    lmax = grid.L if lmax is None else min(lmax, grid.L)
    coeffs = np.zeros(grid.coeff_shape())
    for l in range(lmax + 1):
        amp = 1.0 / (1.0 + l) ** decay
        coeffs[0, l, : l + 1] = amp * rng.standard_normal(l + 1)
        if l >= 1:
            coeffs[1, l, 1 : l + 1] = amp * rng.standard_normal(l)
    return coeffs


class TestFieldBasics:
    def test_from_values_shape_checked(self, grid8):
        with pytest.raises(DomainError):
            SphereField.from_values(grid8, np.ones((3, 3)))

    def test_field_from_values_is_one_field(self, grid8):
        # cos((L+1) phi) is the alternating sign on the phi nodes, which no
        # order m <= L sees: the field of 2 + cos((L+1) phi) is the constant 2,
        # and its values and sup are that field's, not the input's
        L = grid8.L
        phi = grid8.base.phi
        raw = np.broadcast_to(2.0 + np.cos((L + 1) * phi), (grid8.base.ntheta, grid8.base.nphi))
        f = SphereField.from_values(grid8, raw)
        np.testing.assert_array_equal(f.values, grid8.synthesis(f.coeffs))
        # a constant's sup squared is its mean square; the input's sup is 3
        assert f.sup_norm() ** 2 == pytest.approx(avg_square(f), rel=1e-12)

    @pytest.mark.parametrize("L", [16, 64])
    @pytest.mark.parametrize("lmax", [None, 8])
    def test_random_band_limited_matches_loop(self, L, lmax):
        grid = make_grid(L)
        for seed in (0, 3, 12345, 2**31 - 5):
            f = random_band_limited(grid, seed, lmax=lmax)
            assert np.array_equal(f.coeffs, loop_random_coeffs(grid, seed, lmax=lmax))

    def test_mixed_grids_rejected(self, grid8, grid16):
        with pytest.raises(DomainError):
            _ = SphereField.constant(grid8, 1.0) + SphereField.constant(grid16, 1.0)

    def test_arithmetic(self, grid8):
        z = coordinate_z(grid8)
        g = 2.0 * z + (-1.0) * z
        assert np.max(np.abs(g.values - z.values)) < 1e-13

    def test_results_share_no_memory_with_operands(self, grid8):
        f, g = random_band_limited(grid8, 1), random_band_limited(grid8, 2)
        results = {
            "add": f + g,
            "mul": f * 1.0,
            "rmul": 2.0 * f,
            "box_op": box_op(f),
        }
        for name, result in results.items():
            for operand in (f, g):
                assert not np.shares_memory(result.coeffs, operand.coeffs), name

    @pytest.mark.parametrize("scalar", [math.nan, math.inf, -math.inf])
    def test_non_finite_scalar_factor_rejected(self, grid8, scalar):
        with pytest.raises(DomainError, match="finite"):
            _ = scalar * coordinate_z(grid8)
