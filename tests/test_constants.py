"""Closed-form constants against frozen oracle values and cross-derivations.

Oracle values were computed once with mpmath at 40+ digits (independent
scripts, not the package code) and are frozen here as literals. The
bit-exact tables below were computed once by the package's earlier 50-digit
mpmath implementation.
"""

import inspect
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksl import (
    Dimensions,
    DomainError,
    constants_report,
    cs_bm,
    cs_general,
    epsilon_max,
    f_of_k,
    k_interval,
    k_lower_bound_eps0,
    lambda1_coefficient,
    optimize_k,
    riemannian_constants,
    base_threshold,
)
from ksl import constants

# Frozen oracles (mpmath, 40 digits, rounded to double).
CS_22 = 0.5669872981077807
K_LO_22 = 0.2679491924311227  # 2 - sqrt(3)
K_HI_22 = 3.732050807568877  # 2 + sqrt(3)
THRESHOLD_22 = 0.8818539703952119  # 1/(2*CS_22)
EPS_MAX_22 = 1.3944487245360107

# float.hex of (cs_bm, k_lo, k_hi, base_threshold, epsilon_max) at inputs
# where the nested radicals cancel: n = 4 at the float boundary exponent
# 1.6666666666666667 (just above 5/3) and its two float neighbours, q just
# above 1, and n = 1000.
CLOSED_FORMS_HEX = {
    (4, 1.6666666666666665): (
        "0x1.2aaaaa823083ep-1", "0x1.ffffff5e17650p-1", "0x1.00000050f44d9p+0",
        "0x1.b6db6df255729p-1", "0x1.d41d41d41d41ep-53",
    ),
    (4, 1.6666666666666667): (
        "0x1.2aaaaaaaaaaabp-1", "0x1.fffffffffffffp-1", "0x1.fffffffffffffp-1",
        "0x1.b6db6db6db6dbp-1", "0x0.0p+0",
    ),
    (4, 1.666666666666667): (
        "0x1.2aaaaaaaaaaacp-1", "0x1.ffffffffffffdp-1", "0x1.ffffffffffffdp-1",
        "0x1.b6db6db6db6d9p-1", "0x0.0p+0",
    ),
    (4, 1 + 1e-15): (
        "0x1.76091b66f0ddap-51", "0x1.cd1a836e6dc9dp-3", "0x1.1c41d68f373bdp+2",
        "0x1.5e6d33192c277p+49", "0x1.aaaaaaaaaaa94p+0",
    ),
    (1000, 1 + 1e-15): (
        "0x1.32297992d1175p-50", "0x1.d42fc683835ddp-1", "0x1.17f4ecd2be70ap+0",
        "0x1.ac1cfb05803b8p+48", "0x1.06ab3751058cbp-8",
    ),
    (1000, 1.001): (
        "0x1.fbf87fe81bf70p-11", "0x1.e09c632203a2cp-1", "0x1.10b836793e3f2p+0",
        "0x1.0207d7582214ep+9", "0x1.069a7059772ebp-9",
    ),
}

# float.hex of optimize_k's (k_star, threshold) at (n, q, lambda1)
OPTIMIZE_K_HEX = {
    (2, 2.0, 1.0): ("0x1.126145e9ecd56p-2", "0x1.c3825d1563ef9p-1"),
    (2, 2.0, 1 + 1e-12): ("0x1.126145e9ecd56p-2", "0x1.c3825d1563ef9p-1"),
    (2, 2.0, 4.0): ("0x1.bb67ae8584caap-1", "0x1.b40ef7104bd21p+0"),
    (4, 1.5, 1.0): ("0x1.09fb192cc209ap-1", "0x1.7072298e75576p+0"),
    (4, 1.5, 1 + 1e-12): ("0x1.09fb192cc209ap-1", "0x1.7072298e75576p+0"),
    (4, 1.5, 4.0): ("0x1.bb67ae8584caap-1", "0x1.d9008ff63fc78p+0"),
    (4, 1.6666666666666667, 1.0): ("0x1.fffffffffffffp-1", "0x1.b6db6db6db6dbp-1"),
    (4, 1.6666666666666667, 1 + 1e-12): ("0x1.fffffffffffffp-1", "0x1.b6db6db6db6dbp-1"),
    (4, 1.6666666666666667, 4.0): ("0x1.fffffffffffffp-1", "0x1.b6db6db6db6d9p-1"),
}


def dims(n, q):
    return Dimensions(n=n, q=q)


class TestBitExact:
    @pytest.mark.parametrize(("n", "q"), list(CLOSED_FORMS_HEX))
    def test_closed_forms(self, n, q):
        d = dims(n, q)
        iv = k_interval(d)
        got = (cs_bm(d), iv.k_lo, iv.k_hi, base_threshold(d), epsilon_max(d))
        assert tuple(v.hex() for v in got) == CLOSED_FORMS_HEX[(n, q)]

    def test_n1_at_huge_q(self):
        # (q - 1)/2 = 2^52 + 1/2 exactly, which rounds to even
        assert cs_bm(dims(1, 2.0**53 + 2)).hex() == "0x1.0000000000000p+52"

    @pytest.mark.parametrize(("n", "q", "lam1"), list(OPTIMIZE_K_HEX))
    def test_optimize_k(self, n, q, lam1):
        got = optimize_k(dims(n, q), lam1)
        assert tuple(v.hex() for v in got) == OPTIMIZE_K_HEX[(n, q, lam1)]


class TestDimensions:
    def test_m_is_twice_n(self):
        assert dims(3, 1.2).m == 6

    def test_rejects_q_below_one(self):
        with pytest.raises(DomainError):
            dims(2, 1.0)
        with pytest.raises(DomainError):
            dims(2, 0.5)
        # n = 1 has no upper exponent bound, so only the finiteness test stops these
        with pytest.raises(DomainError, match="finite and exceed 1"):
            dims(1, math.inf)
        with pytest.raises(DomainError, match="finite and exceed 1"):
            dims(1, math.nan)

    def test_rejects_supercritical_q(self):
        with pytest.raises(DomainError):
            dims(2, 3.001)
        with pytest.raises(DomainError):
            dims(3, 2.1)

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            dims(0, 2.0)
        # a bool is an int, and True == 1
        with pytest.raises(DomainError, match="integer >= 1"):
            dims(True, 2.0)

    def test_boundary_flag(self):
        assert dims(2, 3.0).boundary
        assert dims(3, 2.0).boundary
        assert not dims(2, 2.0).boundary
        assert not dims(1, 7.0).boundary

    def test_boundary_window_shrinks_with_the_domain(self):
        # at n = 10^13 the domain 1 < q <= 1 + 2e-13 is far narrower than
        # 1e-12 q_max: q - 1 at 4.5 domain widths is out, half a width is in
        n = 10**13
        with pytest.raises(DomainError, match="exponent must satisfy"):
            dims(n, 1.0000000000009)
        assert not dims(n, 1.0000000000001).boundary
        assert dims(n, (n + 1) / (n - 1)).boundary

    def test_n1_has_no_upper_bound(self):
        assert dims(1, 100.0).q == 100.0


class TestCsBm:
    def test_oracle_n2_q2(self):
        assert cs_bm(dims(2, 2.0)) == pytest.approx(CS_22, abs=1e-15)

    def test_equals_one_minus_quarter_sqrt3(self):
        assert cs_bm(dims(2, 2.0)) == pytest.approx(1 - math.sqrt(3) / 4, abs=1e-15)

    def test_n1_collapses_to_half_q_minus_1(self):
        for q in (1.1, 1.5, 2.0, 3.0, 5.0):
            assert cs_bm(dims(1, q)) == pytest.approx((q - 1) / 2, abs=1e-12)

    def test_vanishes_as_q_to_1(self):
        assert cs_bm(dims(3, 1.0 + 1e-9)) == pytest.approx(0.0, abs=1e-8)

    def test_boundary_exponent_accepted(self):
        # radicand vanishes; value (q-1)(2n+q+2)/(2qn) = 2*9/12 at n=2,q=3
        assert cs_bm(dims(2, 3.0)) == pytest.approx(1.5, abs=1e-12)


class TestRiemannian:
    def test_m4_q2(self):
        raw, bridged = riemannian_constants(dims(2, 2.0))
        assert raw == pytest.approx(0.25, abs=1e-15)
        assert bridged == pytest.approx(0.75, abs=1e-15)

    def test_m2_q3(self):
        raw, bridged = riemannian_constants(dims(1, 3.0))
        assert raw == pytest.approx(1.0, abs=1e-15)
        assert bridged == pytest.approx((3 - 1) * (2 - 1) / 2, abs=1e-15)

    def test_raw_vanishes_as_q_to_1(self):
        raw, _ = riemannian_constants(dims(4, 1.0 + 1e-12))
        assert raw == pytest.approx(0.0, abs=1e-12)

    def test_rejects_q_beyond_m_range(self):
        # with m = 2n, (m+2)/(m-2) is the (n+1)/(n-1) that Dimensions enforces,
        # so the bound is checked there and the boundary itself is accepted
        with pytest.raises(DomainError, match=r"q <= \(n\+1\)/\(n-1\) = 3.0"):
            dims(2, 3.5)
        assert riemannian_constants(dims(2, 3.0)) == (0.5, 1.5)


class TestKInterval:
    def test_oracle_n2_q2(self):
        iv = k_interval(dims(2, 2.0))
        assert iv.k_lo == pytest.approx(K_LO_22, abs=1e-15)
        assert iv.k_hi == pytest.approx(K_HI_22, abs=1e-14)

    def test_degenerate_at_boundary(self):
        iv = k_interval(dims(2, 3.0))
        assert iv.k_lo == pytest.approx(1.0, abs=1e-12)
        assert iv.k_hi == pytest.approx(1.0, abs=1e-12)

    def test_product_one(self):
        for n, q in [(2, 2.0), (3, 1.5), (4, 1.2), (6, 1.1)]:
            iv = k_interval(dims(n, q))
            assert iv.k_lo * iv.k_hi == pytest.approx(1.0, abs=1e-12)

    def test_endpoints_are_quadratic_roots(self):
        # independent derivation: roots of k^2 + (2 - 4(n+1)/((n-1)q))k + 1
        for n, q in [(2, 2.0), (3, 1.5), (5, 1.3)]:
            iv = k_interval(dims(n, q))
            b = 2 - 4 * (n + 1) / ((n - 1) * q)
            for k in (iv.k_lo, iv.k_hi):
                assert k * k + b * k + 1 == pytest.approx(0.0, abs=1e-12)

    def test_n1_domain_error_message(self):
        with pytest.raises(DomainError, match="interval unbounded at n = 1; use limit semantics"):
            k_interval(dims(1, 2.0))


class TestLambda1Coefficient:
    def test_vanishes_at_lower_endpoint(self):
        assert lambda1_coefficient(dims(2, 2.0), K_LO_22) == pytest.approx(0.0, abs=1e-10)

    def test_vanishes_at_upper_endpoint(self):
        assert lambda1_coefficient(dims(2, 2.0), K_HI_22) == pytest.approx(0.0, abs=1e-10)

    def test_hand_value_k1(self):
        # 1 - (2+1)(2+1)*2/((16+8+2)*1) = 1 - 18/26 = 4/13
        assert lambda1_coefficient(dims(2, 2.0), 1.0) == pytest.approx(4 / 13, abs=1e-14)

    def test_negative_outside_interval(self):
        assert lambda1_coefficient(dims(2, 2.0), 10.0) < 0
        assert lambda1_coefficient(dims(2, 2.0), 0.01) < 0

    def test_rejects_nonpositive_k(self):
        with pytest.raises(DomainError):
            lambda1_coefficient(dims(2, 2.0), 0.0)


class TestFOfK:
    def test_hand_value(self):
        # (1/(q-1)) * (4/13 * 1 + 2*2*3/26) = 4/13 + 6/13 = 10/13
        assert f_of_k(dims(2, 2.0), 1.0, 1.0) == pytest.approx(10 / 13, abs=1e-14)

    def test_at_lower_endpoint_equals_threshold(self):
        assert f_of_k(dims(2, 2.0), K_LO_22, 1.0) == pytest.approx(THRESHOLD_22, abs=1e-10)

    def test_reciprocal_relation(self):
        for k, lam1 in [(0.5, 1.0), (1.0, 2.0), (2.0, 5.0), (3.0, 1.3)]:
            f = f_of_k(dims(2, 2.0), k, lam1)
            c = cs_general(dims(2, 2.0), k, lam1)
            assert f * 2 * c == pytest.approx(1.0, abs=1e-12)

    def test_rejects_k_outside_interval(self):
        with pytest.raises(DomainError):
            f_of_k(dims(2, 2.0), 5.0, 1.0)

    def test_rejects_k_just_above_the_interval(self):
        k_hi = k_interval(dims(2, 2.0)).k_hi
        assert f_of_k(dims(2, 2.0), k_hi, 1.0) > 0.0
        with pytest.raises(DomainError, match="outside feasible interval"):
            f_of_k(dims(2, 2.0), k_hi * (1 + 1e-10), 1.0)

    @pytest.mark.parametrize("lam1", [0.5, 1 - 1e-9])
    def test_rejects_lambda1_below_one(self, lam1):
        with pytest.raises(DomainError, match="lambda1 must be finite and >= 1"):
            f_of_k(dims(2, 2.0), 1.0, lam1)


class TestCsGeneral:
    def test_independent_of_lambda1_at_k_lo(self):
        vals = [cs_general(dims(2, 2.0), K_LO_22, lam1) for lam1 in (1.0, 2.0, 5.0)]
        assert max(vals) - min(vals) < 1e-10
        for v in vals:
            assert v == pytest.approx(CS_22, abs=1e-10)

    def test_hand_value_k1(self):
        # 1/C = 2*(4/13 + 6/13) = 20/13
        assert cs_general(dims(2, 2.0), 1.0, 1.0) == pytest.approx(13 / 20, abs=1e-14)

    def test_n1_domain_error(self):
        with pytest.raises(DomainError):
            cs_general(dims(1, 2.0), 1.0, 1.0)


def brute_force_threshold(n, q, lam1, npts=1_000_000):
    """Independent float-grid oracle for optimize_k."""
    import numpy as np

    iv = k_interval(dims(n, q))
    ks = np.linspace(iv.k_lo, iv.k_hi, npts)
    coef = 1 - (n + (n - 1) * ks) * (ks * n + n - 1) * q / ((4 * n**2 + 4 * n + q) * ks)
    f = (coef * lam1 + q * n * (ks * n + n - 1) / ((4 * n**2 + 4 * n + q) * ks)) / (q - 1)
    i = int(np.argmax(f))
    return float(ks[i]), float(f[i])


class TestOptimizeK:
    def test_n2_q2_lam1(self):
        k_star, threshold = optimize_k(dims(2, 2.0), 1.0)
        assert k_star == pytest.approx(2 - math.sqrt(3), abs=1e-6)
        # with lambda1 = 1 the objective is (12-2k)/13, strictly decreasing
        assert threshold == pytest.approx(THRESHOLD_22, abs=1e-12)
        _, grid_threshold = brute_force_threshold(2, 2.0, 1.0)
        assert threshold == pytest.approx(grid_threshold, abs=1e-8)

    def test_against_grid_oracle_lam2(self):
        cases = [(2, 2.0, 2.0)] + [
            (n, q, lam1)
            for n, q in [(2, 2.0), (3, 1.5), (5, 1.3)]
            for lam1 in (1 + 1e-6, 10.0, 1e4)
        ]
        for n, q, lam1 in cases:
            k_star, threshold = optimize_k(dims(n, q), lam1)
            grid_k, grid_threshold = brute_force_threshold(n, q, lam1)
            assert threshold == pytest.approx(grid_threshold, abs=1e-6)
            assert threshold >= grid_threshold - 1e-12 * max(1.0, lam1)
            assert k_star == pytest.approx(grid_k, abs=1e-4)

    def test_tie_resolves_to_k_lo(self):
        # at lambda1 = 1 + 1e-12 the stationary point lies below k_lo; at the
        # second lambda1 it lies ~1e-7 above k_lo, where F gains only ~1e-14
        d = dims(2, 2.0)
        k_lo = k_interval(d).k_lo
        for lam1 in (1 + 1e-12, 1 / (1 - k_lo**2 * (1 + 1e-6))):
            k_star, threshold = optimize_k(d, lam1)
            assert k_star == k_lo
            assert threshold == f_of_k(d, k_lo, lam1)

    def test_clipped_point_is_evaluated_once(self, monkeypatch):
        # at lambda1 = 1 the stationary point sqrt(1 - 1/lambda1) = 0 clips
        # to k_lo, where F is the value already computed there
        calls = []
        f_of_k_exact = constants._f_of_k

        def counted(*args):
            calls.append(args)
            return f_of_k_exact(*args)

        d = dims(2, 2.0)
        monkeypatch.setattr(constants, "_f_of_k", counted)
        k_star, threshold = optimize_k(d, 1.0)
        assert len(calls) == 1
        k_lo = k_interval(d).k_lo
        assert (k_star, threshold) == (k_lo, f_of_k(d, k_lo, 1.0))

    def test_degenerate_interval(self):
        k_star, _ = optimize_k(dims(2, 3.0), 1.0)
        assert k_star == pytest.approx(1.0, abs=1e-12)

    def test_never_below_k_lo_value(self):
        for n, q, lam1 in [(2, 2.0, 1.0), (3, 1.5, 2.0), (4, 1.3, 5.0), (2, 1.7, 1.0)]:
            iv = k_interval(dims(n, q))
            _, threshold = optimize_k(dims(n, q), lam1)
            assert threshold >= f_of_k(dims(n, q), iv.k_lo, lam1) - 1e-10

    def test_n1_domain_error(self):
        with pytest.raises(DomainError):
            optimize_k(dims(1, 2.0), 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_rejected(bad):
    d = dims(2, 2.0)
    calls = [
        lambda: optimize_k(d, bad),
        lambda: f_of_k(d, bad, 1.0),
        lambda: f_of_k(d, 1.0, bad),
        lambda: cs_general(d, bad, 1.0),
        lambda: cs_general(d, 1.0, bad),
        lambda: lambda1_coefficient(d, bad),
    ]
    for call in calls:
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("lam1", [0.5, 1 - 1e-9])
def test_lambda1_below_one_rejected(lam1):
    d = dims(2, 2.0)
    calls = [
        lambda: optimize_k(d, lam1),
        lambda: f_of_k(d, 1.0, lam1),
        lambda: cs_general(d, 1.0, lam1),
    ]
    for call in calls:
        with pytest.raises(DomainError, match="lambda1 must be finite and >= 1"):
            call()


def _public_probes():
    """One or more calls of every public function of ksl.constants."""
    d, d3 = dims(2, 2.0), dims(3, 1.5)
    return [
        (cs_bm, (d,)),
        (cs_bm, (dims(1, 2.0),)),
        (riemannian_constants, (d,)),
        (k_interval, (d,)),
        (lambda1_coefficient, (d, 1.0)),
        (f_of_k, (d, 1.0, 2.0)),
        (cs_general, (d, 1.0, 2.0)),
        (optimize_k, (d, 1.0)),
        (optimize_k, (d3, 4.0)),
        (epsilon_max, (d,)),
        (k_lower_bound_eps0, (d,)),
        (base_threshold, (d3,)),
        (constants_report, (d3,)),
    ]


def test_constants_and_report_run_with_mpmath_blocked(tmp_path):
    probes = _public_probes()
    public = {
        name
        for name, f in inspect.getmembers(constants, inspect.isfunction)
        if f.__module__ == constants.__name__ and not name.startswith("_")
    }
    assert {f.__name__ for f, _ in probes} == public
    calls = [[f.__name__, args[0].n, args[0].q, *args[1:]] for f, args in probes]
    expected = [repr(f(*args)) for f, args in probes]
    # a None entry in sys.modules makes every mpmath import fail
    script = (
        "import json, sys\n"
        "sys.modules['mpmath'] = None\n"
        "import ksl.cli\n"
        "from ksl import constants\n"
        "for name, n, q, *rest in json.loads(sys.argv[1]):\n"
        "    f = getattr(constants, name)\n"
        "    print(repr(f(constants.Dimensions(n, q), *rest)))\n"
        "code = ksl.cli.run(['all', '--L', '2', '--out', sys.argv[2]])\n"
        "print(code, file=sys.stderr)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(calls), str(tmp_path / "out")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "0", proc.stderr
    assert proc.stdout.splitlines()[: len(expected)] == expected


class TestEpsilonMax:
    def test_oracle_n2_q2(self):
        assert epsilon_max(dims(2, 2.0)) == pytest.approx(EPS_MAX_22, abs=1e-14)

    def test_zero_at_boundary(self):
        assert epsilon_max(dims(2, 3.0)) == 0.0

    def test_limit_near_q1(self):
        v = epsilon_max(dims(2, 1.0001))
        assert 5.99 < v < 6.0

    def test_n1_domain_error(self):
        with pytest.raises(DomainError):
            epsilon_max(dims(1, 2.0))


class TestKLowerBoundEps0:
    def test_oracle_n2_q2(self):
        assert k_lower_bound_eps0(dims(2, 2.0)) == pytest.approx(2 - math.sqrt(3), abs=1e-14)

    def test_boundary_value_one(self):
        assert k_lower_bound_eps0(dims(2, 3.0)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_interval_lower_endpoint(self):
        for n, q in [(2, 2.0), (3, 1.5), (4, 1.2), (5, 1.4), (6, 1.15)]:
            assert k_lower_bound_eps0(dims(n, q)) == pytest.approx(
                k_interval(dims(n, q)).k_lo, abs=1e-12
            )

    def test_n1_domain_error(self):
        with pytest.raises(DomainError):
            k_lower_bound_eps0(dims(1, 2.0))


class TestBaseThreshold:
    def test_oracle_n2_q2(self):
        assert base_threshold(dims(2, 2.0)) == pytest.approx(THRESHOLD_22, abs=1e-14)

    def test_boundary_third(self):
        assert base_threshold(dims(2, 3.0)) == pytest.approx(1 / 3, abs=1e-12)
        assert cs_bm(dims(2, 3.0)) == pytest.approx(1.5, abs=1e-12)

    def test_grid_agreement_with_cs_bm(self):
        count = 0
        for n in range(2, 7):
            qmax = (n + 1) / (n - 1)
            for i in range(1, 21):
                q = 1 + (qmax - 1) * i / 21
                t = base_threshold(dims(n, q))
                assert t == pytest.approx(1 / (2 * cs_bm(dims(n, q))), abs=1e-10)
                count += 1
        assert count == 100


class TestConstantsReport:
    def test_fields_n2_q2(self):
        rep = constants_report(dims(2, 2.0))
        assert rep.c_s == pytest.approx(CS_22, abs=1e-14)
        assert rep.c_riem_bridged == pytest.approx(0.75, abs=1e-15)
        assert rep.c_conj == pytest.approx(0.5, abs=1e-15)
        assert rep.lambda1_lower == pytest.approx(1 / (2 * CS_22), abs=1e-12)

    def test_ordering_sweep(self):
        # c_conj <= c_s <= c_riem_bridged, strict for n >= 2; lambda1_lower <= 1
        total = 0
        for n in range(2, 7):
            qmax = (n + 1) / (n - 1)
            for i in range(1, 41):
                q = 1 + (qmax - 1) * i / 41.5
                rep = constants_report(dims(n, q))
                assert rep.c_conj < rep.c_s < rep.c_riem_bridged
                assert rep.lambda1_lower <= 1 + 1e-12
                total += 1
        assert total == 200

    def test_equality_at_n1(self):
        rep = constants_report(dims(1, 2.0))
        assert rep.c_s == pytest.approx(rep.c_conj, abs=1e-12)


@st.composite
def admissible_dims(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    frac = draw(st.fractions(Fraction(1, 100), Fraction(99, 100)))
    q = 1 + float(frac) * ((n + 1) / (n - 1) - 1)
    return dims(n, q)


@given(admissible_dims())
@settings(max_examples=60, deadline=None)
def test_property_endpoint_product_and_cross_derivation(d):
    iv = k_interval(d)
    assert iv.k_lo * iv.k_hi == pytest.approx(1.0, abs=1e-12)
    assert 0 < iv.k_lo <= iv.k_hi
    assert k_lower_bound_eps0(d) == pytest.approx(iv.k_lo, abs=1e-12)
    assert base_threshold(d) == pytest.approx(1 / (2 * cs_bm(d)), abs=1e-10)


@given(admissible_dims(), st.floats(min_value=1.0, max_value=6.0))
@settings(max_examples=40, deadline=None)
def test_property_threshold_at_least_k_lo_value(d, lam1):
    iv = k_interval(d)
    _, threshold = optimize_k(d, lam1)
    assert threshold >= f_of_k(d, iv.k_lo, lam1) - 1e-10
