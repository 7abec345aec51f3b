"""Ring laws and equality semantics for the exact algebra engine."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksl.algebra.ring import (
    ONE,
    Poly,
    RadExpr,
    RationalFunction,
    VARS,
    ZERO,
    rad_equal,
    rescale_radicand,
    rf,
    rf_at_radexpr,
    rf_equal,
    v,
)
from ksl.errors import DomainError


def _small_fraction():
    return st.fractions(
        min_value=Fraction(-6), max_value=Fraction(6), max_denominator=5
    )


@st.composite
def polys(draw, max_terms=4, max_power=3):
    nterms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(nterms):
        exp = [0] * len(VARS)
        # keep exponent vectors sparse so products stay small
        for idx in draw(st.lists(st.integers(0, len(VARS) - 1), max_size=2)):
            exp[idx] += draw(st.integers(1, max_power))
        terms[tuple(exp)] = draw(_small_fraction())
    return Poly(terms)


@st.composite
def points(draw):
    return {name: draw(_small_fraction()) for name in VARS}


class TestPoly:
    @given(polys(), polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_laws(self, p1, p2, p3):
        assert (p1 + p2) + p3 == p1 + (p2 + p3)
        assert p1 + p2 == p2 + p1
        assert p1 * p2 == p2 * p1
        assert (p1 * p2) * p3 == p1 * (p2 * p3)
        assert p1 * (p2 + p3) == p1 * p2 + p1 * p3
        assert p1 + ZERO == p1
        assert p1 * ONE == p1
        assert (p1 - p1).is_zero

    @given(polys(), polys(), points())
    @settings(max_examples=60, deadline=None)
    def test_evaluation_is_homomorphism(self, p1, p2, pt):
        assert (p1 + p2).evaluate(pt) == p1.evaluate(pt) + p2.evaluate(pt)
        assert (p1 * p2).evaluate(pt) == p1.evaluate(pt) * p2.evaluate(pt)

    @given(polys(), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_power_matches_repeated_product(self, p, e):
        expected = ONE
        for _ in range(e):
            expected = expected * p
        assert p**e == expected

    def test_coeffs_in_reassembles(self):
        k = Poly.var("k")
        n = Poly.var("n")
        p = k**2 * n + 3 * k - n + 2
        parts = p.coeffs_in("k")
        rebuilt = ZERO
        for power, coef in parts.items():
            rebuilt = rebuilt + coef * k**power
        assert rebuilt == p

    def test_shift_down_requires_divisibility(self):
        g = Poly.var("gamma")
        p = g**2 + g
        assert p.shift_down("gamma", 1) == g + 1
        with pytest.raises(ValueError):
            (g + 1).shift_down("gamma", 1)

    def test_repr_is_deterministic(self):
        p = Poly.var("a") * 2 - Poly.var("beta") + 1
        assert repr(p) == repr(Poly.var("a") * 2 - Poly.var("beta") + 1)


class TestRationalFunction:
    def test_zero_denominator_rejected(self):
        with pytest.raises(DomainError):
            RationalFunction(ONE, ZERO)

    def test_equality_by_cross_multiplication(self):
        beta = v("beta")
        lhs = (beta + 1) ** 2 / beta
        rhs = (beta**2 + 2 * beta + 1) / beta
        assert rf_equal(lhs, rhs)

    def test_cancellation_without_gcd(self):
        g = v("gamma")
        assert rf_equal(g / g, rf(1))

    def test_distinct_denominators_not_equal(self):
        q = v("q")
        assert not rf_equal((q - 1) / v("beta"), (q - 1) / v("gamma"))

    @given(points())
    @settings(max_examples=40, deadline=None)
    def test_arithmetic_matches_fractions(self, pt):
        a = (v("a") + 1) / (v("beta") ** 2 + 1)
        b = (v("q") - v("n")) / (v("k") ** 2 + 2)
        expr = a * b - a / (b + 3) + b**2
        av = (pt["a"] + 1) / (pt["beta"] ** 2 + 1)
        bv = (pt["q"] - pt["n"]) / (pt["k"] ** 2 + 2)
        if bv + 3 == 0:
            # a pole of a / (b + 3): evaluation must refuse, not invent a value
            with pytest.raises(ZeroDivisionError):
                expr.evaluate(pt)
            return
        assert expr.evaluate(pt) == av * bv - av / (bv + 3) + bv**2

    def test_negative_power(self):
        beta = v("beta")
        assert rf_equal(beta**-2, 1 / beta**2)

    def test_substitute(self):
        expr = v("a") ** 2 + v("b")
        out = expr.substitute("a", v("x") * v("y"))
        assert rf_equal(out, v("x") ** 2 * v("y") ** 2 + v("b"))

    def test_limit_var_zero_cancels_shared_pole(self):
        g = v("gamma")
        expr = (2 * g + g**2 * v("q")) / g
        assert rf_equal(expr.limit_var_zero("gamma"), rf(2))

    def test_limit_var_zero_detects_genuine_pole(self):
        with pytest.raises(DomainError):
            (1 / v("gamma")).limit_var_zero("gamma")

    def test_evaluate_raises_on_vanishing_denominator(self):
        pt = {name: Fraction(0) for name in VARS}
        with pytest.raises(ZeroDivisionError):
            (1 / v("beta")).evaluate(pt)


class TestRadExpr:
    RAD = Poly.var("q") ** 2 + 1

    def test_square_collapses_radical(self):
        e = RadExpr(rf(0), rf(1), self.RAD)  # sqrt(rad) itself
        sq = e * e
        assert rf_equal(sq.base, RationalFunction(self.RAD))
        assert sq.coef.is_zero

    def test_mixed_radicands_rejected(self):
        other = Poly.var("q") ** 2 + 2
        with pytest.raises(ValueError):
            RadExpr(rf(1), rf(1), self.RAD) + RadExpr(rf(1), rf(1), other)

    def test_rad_equal_componentwise(self):
        e1 = RadExpr(v("n"), rf(1, 2), self.RAD)
        e2 = RadExpr(v("n"), Fraction(1, 2), self.RAD)
        assert rad_equal(e1, e2)
        assert not rad_equal(e1, RadExpr(v("n"), rf(-1, 2), self.RAD))

    def test_rf_at_radexpr_on_quadratic_root(self):
        # k^2 - 2nk + (n^2 - rad) has roots n +- sqrt(rad)
        n = v("n")
        quad = v("k") ** 2 - 2 * n * v("k") + n**2 - RationalFunction(self.RAD)
        root = RadExpr(n, rf(1), self.RAD)
        num, den = rf_at_radexpr(quad, "k", root)
        assert num.is_zero
        assert rad_equal(den, RadExpr(rf(1), rf(0), self.RAD))
        num, _ = rf_at_radexpr(quad, "k", RadExpr(n + 1, rf(1), self.RAD))
        assert not num.is_zero

    def test_rf_at_radexpr_zero_norm_denominator_rejected(self):
        # 1/(k^2 - 2nk + n^2 - rad): the denominator vanishes at k = n + sqrt(rad)
        n = v("n")
        quad = v("k") ** 2 - 2 * n * v("k") + n**2 - RationalFunction(self.RAD)
        root = RadExpr(n, rf(1), self.RAD)
        with pytest.raises(DomainError, match="zero norm"):
            rf_at_radexpr(rf(1) / quad, "k", root)
        num, den = rf_at_radexpr(rf(1) / (quad + 1), "k", root)
        assert rad_equal(num, den)

    def test_rescale_radicand(self):
        small = Poly.var("q") ** 2 + 1
        big = Poly.var("n") ** 2 * small
        e = RadExpr(rf(5), rf(2), big)
        out = rescale_radicand(e, small, v("n"))
        assert out.rad == small
        assert rf_equal(out.coef, 2 * v("n"))
        with pytest.raises(DomainError):
            rescale_radicand(e, small, v("n") + 1)

    def test_numeric_consistency(self):
        import math

        pt = {name: Fraction(1) for name in VARS}
        pt["q"] = Fraction(3)
        pt["n"] = Fraction(2)
        e = RadExpr(v("n"), rf(1, 2), self.RAD)
        val = float(e.base.evaluate(pt)) + float(e.coef.evaluate(pt)) * math.sqrt(
            float(self.RAD.evaluate(pt))
        )
        assert val == pytest.approx(2 + 0.5 * math.sqrt(10), rel=1e-15)
