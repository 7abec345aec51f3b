"""Ring laws and equality semantics for the exact algebra engine."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksl.algebra.ring import (
    MAX_EXP,
    ONE,
    Poly,
    RadExpr,
    RationalFunction,
    VARS,
    ZERO,
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
def term_dicts(draw, max_terms=4, max_power=3):
    nterms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(nterms):
        exp = [0] * len(VARS)
        # keep exponent vectors sparse so products stay small
        for idx in draw(st.lists(st.integers(0, len(VARS) - 1), max_size=2)):
            exp[idx] += draw(st.integers(1, max_power))
        terms[tuple(exp)] = draw(_small_fraction())
    return terms


def polys(max_terms=4, max_power=3):
    return term_dicts(max_terms, max_power).map(Poly)


@st.composite
def points(draw):
    return {name: draw(_small_fraction()) for name in VARS}


class TuplePoly:
    """Reference polynomial: exponent tuple -> nonzero Fraction.

    This is the layout the packed Poly replaced, kept as an oracle for it.
    """

    def __init__(self, terms):
        self.terms = {exp: Fraction(c) for exp, c in terms.items() if c != 0}

    def __add__(self, other):
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            out[exp] = out.get(exp, Fraction(0)) + coef
        return TuplePoly(out)

    def __neg__(self):
        return TuplePoly({exp: -coef for exp, coef in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = out.get(exp, Fraction(0)) + c1 * c2
        return TuplePoly(out)

    def __pow__(self, power):
        result = TuplePoly({(0,) * len(VARS): 1})
        for _ in range(power):
            result = result * self
        return result

    def min_degree_in(self, name):
        i = VARS.index(name)
        return min((exp[i] for exp in self.terms), default=0)

    def shift_down(self, name, amount):
        i = VARS.index(name)
        out = {}
        for exp, coef in self.terms.items():
            if exp[i] < amount:
                raise ValueError(f"monomial not divisible by {name}^{amount}")
            out[exp[:i] + (exp[i] - amount,) + exp[i + 1 :]] = coef
        return TuplePoly(out)

    def coeffs_in(self, name):
        i = VARS.index(name)
        parts = {}
        for exp, coef in self.terms.items():
            parts.setdefault(exp[i], {})[exp[:i] + (0,) + exp[i + 1 :]] = coef
        return {p: TuplePoly(t) for p, t in parts.items()}

    def set_var_zero(self, name):
        i = VARS.index(name)
        return TuplePoly({exp: c for exp, c in self.terms.items() if exp[i] == 0})

    def evaluate(self, point):
        total = Fraction(0)
        for exp, coef in self.terms.items():
            term = coef
            for name, e in zip(VARS, exp):
                term *= point[name] ** e
            total += term
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        chunks = []
        for exp in sorted(self.terms, reverse=True):
            coef = self.terms[exp]
            factors = [f"{name}^{e}" if e > 1 else name for name, e in zip(VARS, exp) if e]
            body = "*".join(factors)
            if not body:
                chunks.append(str(coef))
            elif coef == 1:
                chunks.append(body)
            elif coef == -1:
                chunks.append(f"-{body}")
            else:
                chunks.append(f"{coef}*{body}")
        return " + ".join(chunks).replace("+ -", "- ")


def assert_same(packed, oracle):
    assert repr(packed) == repr(oracle)
    assert packed == Poly(oracle.terms)


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

    @given(st.lists(term_dicts(), min_size=1, max_size=4), points())
    @settings(max_examples=60, deadline=None)
    def test_value_pair_is_the_value(self, dicts, pt):
        # zero and constant Polys always, then random multivariate ones, all
        # sharing one set of power tables as the sampler's Polys do
        dicts = [{}, {(0,) * len(VARS): Fraction(-3, 7)}, *dicts]
        tables = {}
        for terms in dicts:
            num, den = Poly(terms).value_pair(pt, tables)
            assert den > 0
            assert Fraction(num, den) == TuplePoly(terms).evaluate(pt)
            assert Fraction(num, den) == Poly(terms).evaluate(pt)

    @given(polys(), st.one_of(st.integers(-5, 5), _small_fraction(), st.booleans()))
    @settings(max_examples=40, deadline=None)
    def test_scaled_is_the_product_with_a_constant(self, p, c):
        assert p.scaled(c) == p * Poly.const(c)
        assert p * c == p.scaled(c)

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


class TestPackedAgainstOracle:
    @given(
        term_dicts(),
        term_dicts(),
        points(),
        st.integers(0, 4),
        st.sampled_from(VARS),
        st.integers(0, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_operations_match_oracle(self, t1, t2, pt, power, name, amount):
        p1, p2 = Poly(t1), Poly(t2)
        o1, o2 = TuplePoly(t1), TuplePoly(t2)
        assert_same(p1, o1)
        for packed, oracle in [
            (p1, o1),
            (p1 + p2, o1 + o2),
            (p1 - p2, o1 - o2),
            (p1 * p2, o1 * o2),
            (p1**power, o1**power),
            (p1.set_var_zero(name), o1.set_var_zero(name)),
        ]:
            assert_same(packed, oracle)
            assert packed.evaluate(pt) == oracle.evaluate(pt)
        assert p1.min_degree_in(name) == o1.min_degree_in(name)
        parts, expected_parts = p1.coeffs_in(name), o1.coeffs_in(name)
        assert parts.keys() == expected_parts.keys()
        for p in parts:
            assert_same(parts[p], expected_parts[p])
        # shift_down divides exactly or refuses, as the oracle does
        try:
            expected = o1.shift_down(name, amount)
        except ValueError:
            with pytest.raises(ValueError):
                p1.shift_down(name, amount)
        else:
            assert_same(p1.shift_down(name, amount), expected)
        raised = p1 * Poly.var(name) ** amount
        assert_same(raised.shift_down(name, amount), o1)

    def test_canonical_form(self):
        x = Poly.var("x")
        half_x = x * Fraction(1, 2)
        assert half_x * 2 == x and hash(half_x * 2) == hash(x)
        third, half = Poly.const(Fraction(3, 6)), Poly.const(Fraction(1, 2))
        assert third == half and hash(third) == hash(half)
        # common factors of the numerators cancel against the denominator
        p = x * Fraction(2, 4) + Poly.var("y") * Fraction(6, 12)
        assert p.den == 2 and sorted(p.terms.values()) == [1, 1]
        assert (p * 4).den == 1 and sorted((p * 4).terms.values()) == [2, 2]
        assert p - p == Poly() and (p - p).den == 1


class TestExponentCeiling:
    def test_documented_ceiling(self):
        assert MAX_EXP == 127

    @pytest.mark.parametrize("name", ["gamma", "k", "y"])
    def test_power_at_ceiling(self, name):
        p = Poly.var(name) ** MAX_EXP
        exp = [0] * len(VARS)
        exp[VARS.index(name)] = MAX_EXP
        assert p == Poly({tuple(exp): 1})
        assert p.min_degree_in(name) == MAX_EXP
        assert repr(p) == f"{name}^{MAX_EXP}"
        assert p.shift_down(name, MAX_EXP) == ONE

    @pytest.mark.parametrize("name", ["gamma", "k", "y"])
    def test_past_ceiling_raises(self, name):
        # an exponent never carries into the next variable's field
        with pytest.raises(ValueError):
            Poly.var(name) ** (MAX_EXP + 1)
        with pytest.raises(ValueError):
            (Poly.var(name) ** 100 + 1) * (Poly.var(name) ** 28 - 1)
        with pytest.raises(ValueError):
            Poly.var(name) ** MAX_EXP * Poly.var(name) ** MAX_EXP

    @pytest.mark.parametrize("e", [-1, MAX_EXP + 1, 2 * MAX_EXP + 2])
    @pytest.mark.parametrize("name", ["gamma", "k", "y"])
    def test_constructor_exponent_outside_range(self, name, e):
        exp = [0] * len(VARS)
        exp[VARS.index(name)] = e
        with pytest.raises(ValueError):
            Poly({tuple(exp): 1})

    def test_mixed_product_below_ceiling(self):
        k, n = Poly.var("k"), Poly.var("n")
        p = (k**100 * n**5) * (k**27 * n**3)
        assert repr(p) == "k^127*n^8"


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


class TestDenominatorFastPaths:
    """A sum over an equal denominator keeps it; a unit factor is returned as is."""

    def test_equal_denominator_sum_keeps_that_denominator(self):
        den = Poly.var("beta") ** 2 + 1
        x = v("a") / rf(den)
        y = v("q") / rf(Poly.var("beta") ** 2 + 1)  # equal, built apart
        for total in (x + y, x - y, y + x, y - x, -x + y):
            assert total.den == den
        assert (x + y).den is x.den
        assert (x + y).num == Poly.var("a") + Poly.var("q")
        # a constant has denominator ONE, and ONE * den is den itself
        assert (1 + x).den is x.den and (1 - x).den is x.den

    @given(polys())
    @settings(max_examples=40, deadline=None)
    def test_unit_factor_returns_the_other_operand(self, p):
        assert p * ONE == p and ONE * p == p
        assert p * ONE is p and p * Poly.const(1) is p
        assert ONE * p is p or p == ONE

    @given(points())
    @settings(max_examples=40, deadline=None)
    def test_shared_and_mixed_sums_match_fractions(self, pt):
        den = v("beta") ** 2 + 1
        a = (v("a") + 1) / den
        c = (v("q") - v("n")) / den
        b = (v("q") - v("n")) / (v("k") ** 2 + 2)
        expr = (a + c) * b - (a - c) / (b + 3) + (2 - c) + (b + c) - (1 + a)
        dv = pt["beta"] ** 2 + 1
        av, cv = (pt["a"] + 1) / dv, (pt["q"] - pt["n"]) / dv
        bv = (pt["q"] - pt["n"]) / (pt["k"] ** 2 + 2)
        if bv + 3 == 0:
            with pytest.raises(ZeroDivisionError):
                expr.evaluate(pt)
            return
        expected = (av + cv) * bv - (av - cv) / (bv + 3) + (2 - cv) + (bv + cv) - (1 + av)
        assert expr.evaluate(pt) == expected
        assert (a + c).evaluate(pt) == av + cv

    def test_limit_cancels_shared_pole_of_a_shared_denominator_sum(self):
        g = v("gamma")
        expr = (2 * g) / g + (g**2 * v("q")) / g
        assert expr.den == Poly.var("gamma")
        assert rf_equal(expr.limit_var_zero("gamma"), rf(2))

    def test_limit_detects_genuine_pole_of_a_shared_denominator_sum(self):
        g = v("gamma")
        expr = (1 + g) / g - g / g
        assert expr.den == Poly.var("gamma")
        with pytest.raises(DomainError):
            expr.limit_var_zero("gamma")


class TestScalarOperands:
    """An int or Fraction operand scales a Poly directly, never wrapped, and
    yields the numerator and denominator Polys that rf(c) in its place would."""

    OPERANDS = [
        (v("a") + 2) / (v("beta") ** 2 + 1),
        v("a") * v("q") - Fraction(3, 2),
        1 / v("n"),
        rf(1),
        rf(0),
    ]

    @pytest.mark.parametrize(
        "c", [3, -2, Fraction(-3, 4), Fraction(5, 3), 1, 0, True, False], ids=repr
    )
    @pytest.mark.parametrize("x", OPERANDS, ids=repr)
    def test_structure_matches_the_wrapped_constant(self, x, c):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for scalar_first in (False, True):
                args, wrapped = ((c, x), (rf(c), x)) if scalar_first else ((x, c), (x, rf(c)))
                try:
                    expected = op(*wrapped)
                except DomainError:
                    with pytest.raises(DomainError):
                        op(*args)
                    continue
                got = op(*args)
                assert isinstance(got, RationalFunction)
                assert (got.num, got.den) == (expected.num, expected.den), (op, scalar_first)

    def test_division_by_a_zero_scalar_is_refused(self):
        with pytest.raises(DomainError):
            v("a") / 0
        with pytest.raises(DomainError):
            2 / rf(0)


class TestRadExpr:
    RAD = Poly.var("q") ** 2 + 1

    @staticmethod
    def minimal_poly(root: RadExpr) -> RationalFunction:
        t = v("k")
        return t * t - 2 * root.base * t + root.base**2 - root.coef**2 * RationalFunction(root.rad)

    @given(polys(), polys(), polys(), polys(), polys(), polys())
    @settings(max_examples=40, deadline=None)
    def test_rf_at_radexpr_returns_remainder(self, p, a, b, base, coef, rad):
        # P*m + (a*t + b) leaves a*t + b, with a, b and the root free of t = k
        a, b, base, coef, rad = (x.set_var_zero("k") for x in (a, b, base, coef, rad))
        root = RadExpr(base, coef, rad)
        rem = rf(a) * v("k") + rf(b)
        num, den = rf_at_radexpr(rf(p) * self.minimal_poly(root) + rem, "k", root)
        assert rf_equal(num, rem)
        assert rf_equal(den, rf(1))

    def test_rf_at_radexpr_on_quadratic_root(self):
        # k^2 - 2nk + (n^2 - rad) has roots n +- sqrt(rad)
        n = v("n")
        quad = v("k") ** 2 - 2 * n * v("k") + n**2 - RationalFunction(self.RAD)
        root = RadExpr(n, rf(1), self.RAD)
        num, den = rf_at_radexpr(quad, "k", root)
        assert num.is_zero
        assert rf_equal(den, rf(1))
        # n + 1 + sqrt(rad) is not a root of quad
        num, _ = rf_at_radexpr(quad, "k", RadExpr(n + 1, rf(1), self.RAD))
        assert not num.is_zero

    def test_rf_at_radexpr_zero_numerator(self):
        num, den = rf_at_radexpr(rf(0) / v("k"), "k", RadExpr(v("n"), rf(1), self.RAD))
        assert num.is_zero
        assert rf_equal(den, v("k"))

    def test_rf_at_radexpr_zero_norm_denominator_rejected(self):
        # 1/(k^2 - 2nk + n^2 - rad): the denominator vanishes at k = n + sqrt(rad)
        n = v("n")
        quad = v("k") ** 2 - 2 * n * v("k") + n**2 - RationalFunction(self.RAD)
        root = RadExpr(n, rf(1), self.RAD)
        with pytest.raises(DomainError, match="zero norm"):
            rf_at_radexpr(rf(1) / quad, "k", root)
        num, den = rf_at_radexpr(rf(1) / (quad + 1), "k", root)
        assert rf_equal(num, rf(1))
        assert rf_equal(den, rf(1))

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
