"""Derivation-chain verifiers.

Each ``verify_*`` function replays one derivation of the coefficient algebra
from the axioms in :mod:`ksl.algebra.terms`, compares the outcome against the
independently transcribed target coefficients with exact rational-function
equality, and packages the outcome as a :class:`PassReport`. Steps are
recorded on one `_Derivation` per verifier, and the sampling rule holds by
construction: every rational-function identity it records is also evaluated
at three random rational points where every sampled side is defined, with
exact equality, not a tolerance. An identity is decided by Poly equality of
the cross products (of the numerators alone over a shared denominator). At
each point every distinct Poly is evaluated once, in integers, to a numerator
over a positive denominator, and the two sides are compared by integer
cross-multiplication; a vanishing denominator rejects the point exactly where
a Fraction division would. A pair whose two sides are equal Polys is read
only for its denominator, since its comparison cannot fail. Root steps and
recorded facts (sample values, positivity, the elimination cross-check) are
not sampled. Nothing here rounds: the radical-gap lemma, too, is proved
exactly at each rational triple it is given.

A verifier's inputs are module constants, built once at import: the
transcribed target displays, the parameter choices (the a- and b-choices and
the ratio substitution a = x*y) and the chains' fixed surds. A verifier body
holds only the derivation steps, and every replace, identity, root, limit,
substitution and sample of them runs on each call.

Square-root identities are root checks: a quadratic surd k = base +
coef*sqrt(r) is a root of its monic quadratic m(k), and an expression
vanishes there when its numerator's remainder modulo m is zero. A second
surd over the same radical, such as the constant C, becomes a rational
function of k through sqrt(r) = (k - base)/coef. Where a radicand is
rescaled (r2 = f^2 * r1) the squared relation is verified exactly and the
positivity of f at admissible sample points is recorded as a step. Cleared
positive factors in the inequality equivalences are recorded in the step
notes, because dividing by them is where the inequality direction comes from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter

from ..errors import DomainError
from .ring import (
    Poly,
    RadExpr,
    RationalFunction,
    VARS,
    rf,
    rf_at_radexpr,
    v,
)
from .terms import (
    ANTICROSS,
    ANTICROSS_IDENTITY,
    ANTIHESS2,
    BOXSQ,
    CAUCHY_SCHWARZ_DEFECT,
    EQ_IN_BOXSQ,
    EQ_IN_GRADBOX,
    FormalExpr,
    GRAD4,
    GRADBOX,
    K_EQ,
    K_PLAIN,
    MIXHESS2,
    MIXCROSS,
    MIXCROSS_IDENTITY,
    PURE_HESSIAN_UPPER_BOUND,
    TRACEFREE,
    ibp,
)


@dataclass
class StepCheck:
    name: str
    ok: bool
    residual: str = "0"
    note: str = ""


@dataclass
class PassReport:
    name: str
    passed: bool
    steps: list[StepCheck] = field(default_factory=list)
    instantiations: list[dict] = field(default_factory=list)


# shorthand generators
_g = v("gamma")
_a = v("a")
_b = v("b")
_be = v("beta")
_k = v("k")
_ep = v("eps")
_lam = v("lam")
_q = v("q")
_n = v("n")
_l1 = v("lam1")
_x = v("x")
_y = v("y")

def _random_point(rng: random.Random) -> dict[str, Fraction]:
    return {
        name: Fraction(rng.randint(-12, 12), rng.randint(1, 7)) for name in VARS
    }


class _PolyValues(dict):
    """Poly -> its value at one point as (numerator, positive denominator).

    Keys are compared by structure (through the hash each Poly caches), so
    a numerator or denominator shared by several sides costs one evaluation,
    and the power tables of each (variable, top degree) are built once for
    every Poly evaluated here.
    """

    def __init__(self, pt: dict[str, Fraction]) -> None:
        super().__init__()
        self.pt = pt
        self.tables: dict = {}

    def __missing__(self, poly: Poly) -> tuple[int, int]:
        value = self[poly] = poly.value_pair(self.pt, self.tables)
        return value


def _holds_at(pairs: list[tuple[RationalFunction, RationalFunction]], at: _PolyValues) -> bool:
    """Exact agreement of every pair at the point of `at`, in integers.

    lhs = (n1/s1) / (d1/t1) and rhs = (n2/s2) / (d2/t2) agree when
    n1 t1 s2 d2 == n2 t2 s1 d1. Pairs are taken in order and the first
    disagreement ends the test. A vanishing lhs denominator, then rhs, raises
    ZeroDivisionError, where the Fraction division would, so that
    `_instantiate` resamples the point. A pair whose two sides are equal
    Polys agrees wherever it is defined, so only its denominator is read.
    """
    for lhs, rhs in pairs:
        d1, t1 = at[lhs.den]
        if not d1:
            raise ZeroDivisionError("lhs denominator vanishes at the point")
        if lhs.num == rhs.num and lhs.den == rhs.den:
            continue
        n1, s1 = at[lhs.num]
        n2, s2 = at[rhs.num]
        d2, t2 = at[rhs.den]
        if not d2:
            raise ZeroDivisionError("rhs denominator vanishes at the point")
        if n1 * t1 * s2 * d2 != n2 * t2 * s1 * d1:
            return False
    return True


def _point(**values) -> dict[str, Fraction]:
    """A worked point: each named variable at its given value, every other at 1."""
    return {name: Fraction(values.get(name, 1)) for name in VARS}


def _record(pt: dict, agree: bool) -> dict:
    return {"point": {name: str(val) for name, val in pt.items()}, "agree": agree}


def _instantiate(
    pairs: list[tuple[RationalFunction, RationalFunction]],
    seed: int,
) -> list[dict]:
    """Evaluate each lhs/rhs pair at three random rational points where
    every sampled side is defined.

    A point where a side's denominator vanishes is resampled. Agreement is
    exact, and the pairs read one set of values per point; a pair with two
    equal sides reads its denominator alone, which keeps that resample rule.
    """
    rng = random.Random(seed)
    records: list[dict] = []
    attempts = 0
    while len(records) < 3:
        attempts += 1
        if attempts > 10_000:
            raise RuntimeError("could not find denominator-avoiding points")
        pt = _random_point(rng)
        try:
            agree = _holds_at(pairs, _PolyValues(pt))
        except ZeroDivisionError:
            continue
        records.append(_record(pt, agree))
    return records


class _Derivation:
    """The steps of one derivation, recorded as they are checked.

    An `identity` (or each term of an `expr`) is an exact rational-function
    comparison, decided by equality of the cross products lhs.num*rhs.den and
    rhs.num*lhs.den (of the numerators over a shared denominator); their
    difference is built only as a failing step's residual. It keeps its two
    sides as a sample pair, so every identity step is also instantiated by
    `finish`. A `root` step, decided modulo a surd's quadratic, and a `fact`
    (a sample value, a positivity check or a cross-check) are recorded only.

    A verifier runs its steps inside ``with _Derivation(name) as d:``. A
    DomainError raised there (a limit that does not exist, a denominator
    that vanishes at a radical point) ends the derivation with one failing
    step, `domain_error`, whose residual is the message; the steps recorded
    before it keep their verdicts and `finish` still samples their
    identities, so a wrong display fails its own report and no other.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.steps: list[StepCheck] = []
        self.pairs: list[tuple[RationalFunction, RationalFunction]] = []

    def __enter__(self) -> "_Derivation":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if isinstance(exc, DomainError):
            self.fact("domain_error", False, str(exc))
            return True
        return False

    def identity(
        self, name: str, lhs: RationalFunction, rhs: RationalFunction, note: str = ""
    ) -> None:
        # over one shared denominator the numerators alone decide; the
        # difference is built only for a failing step's residual
        if lhs.den == rhs.den:
            left, right = lhs.num, rhs.num
        else:
            left, right = lhs.num * rhs.den, rhs.num * lhs.den
        ok = left == right
        self.fact(name, ok, "0" if ok else repr(left - right), note)
        self.pairs.append((lhs, rhs))

    def expr(self, prefix: str, derived: FormalExpr, expected: FormalExpr, note: str = "") -> None:
        terms = derived.terms() | expected.terms()
        for term in sorted(terms, key=attrgetter("label")):
            self.identity(
                f"{prefix}[{term.label}]",
                derived.coefficient(term),
                expected.coefficient(term),
                note,
            )

    def root(
        self, name: str, expr: RationalFunction, var: str, point: RadExpr, note: str = ""
    ) -> None:
        num, _ = rf_at_radexpr(expr, var, point)
        ok = num.is_zero
        self.fact(name, ok, "0" if ok else repr(num), note)

    def fact(self, name: str, ok: bool, residual: str, note: str = "") -> None:
        """A recorded verdict; `residual` is reported only when it fails."""
        self.steps.append(StepCheck(name, ok, "0" if ok else residual, note))

    def holds_at(self, pt: dict[str, Fraction]) -> bool:
        """Whether every recorded identity holds at one worked point."""
        return _holds_at(self.pairs, _PolyValues(pt))

    def finish(
        self,
        seed: int | None,
        worked: tuple[tuple[dict, bool], ...] = (),
    ) -> PassReport:
        """The report: every identity sampled at three seeded points, then
        one record per worked (point, agree) pair.

        With no identity recorded nothing is sampled and `seed` may be None;
        otherwise None would seed from the OS and make the points differ from
        run to run, so it raises ValueError.
        """
        if self.pairs and seed is None:
            raise ValueError(f"{self.name}: sampled identities need an explicit seed")
        insts = _instantiate(self.pairs, seed) if self.pairs else []
        insts += [_record(pt, agree) for pt, agree in worked]
        passed = all(s.ok for s in self.steps) and all(r["agree"] for r in insts)
        return PassReport(name=self.name, passed=passed, steps=self.steps, instantiations=insts)


def _two_c_at(endpoint: RadExpr, factor: RationalFunction | int = 1) -> RationalFunction:
    """2C as a rational function of k, exact at k = endpoint.

    The endpoint is base + coef*sqrt(factor^2 * r) with r the radicand of C,
    so there sqrt(r) = (k - base)/(factor*coef).
    """
    sqrt_r = (_k - endpoint.base) / (factor * endpoint.coef)
    return _two_c.base + _two_c.coef * sqrt_r


# ---------------------------------------------------------------------------
# transcribed target displays and parameter choices (independent of the
# derivation code paths), each built once here from the variables and
# numbers alone; a display only constructs, and every replace, substitute,
# limit, root or sample on it runs inside a verifier's derivation

# the equation substituted into one box factor of the gradient-box integral
_sub1 = FormalExpr({K_EQ: 1 / _be, K_PLAIN: -_lam / _be, GRAD4: _be + 1})

# the same inside the squared box, after parts and the first identity
_sub2 = FormalExpr(
    {
        K_EQ: (_be * _q - _g) / _be,
        K_PLAIN: _lam * (_g - _be) / _be,
        GRAD4: (_be + 1) ** 2,
    }
)

# the squared-box identity once the box factor is integrated by parts
_boxsq_after_parts = FormalExpr(
    {
        K_EQ: (_be * _q - _be - _g - 1) / _be,
        K_PLAIN: _lam * (_g + 1) / _be,
        GRADBOX: _be + 1,
    }
)

# the pure-Hessian completion bound once the equation is used; its weights on
# GRAD4, K_EQ, K_PLAIN and MIXHESS2 are the paper's A1, B1, C1 and D1
_completion_quadruple = FormalExpr(
    {
        GRAD4: _g * (_g - 1)
        - 2 * _a * (_g - 1)
        + _a**2
        + (3 * _g - 4 * _a) * (_be + 1)
        + (2 - 2 * _a / _g) * (_be + 1) ** 2,
        K_EQ: (3 * _g - 4 * _a) / _be + (2 - 2 * _a / _g) * ((_be * _q - _g) / _be),
        K_PLAIN: (4 * _a - 3 * _g) * _lam / _be
        + (2 - 2 * _a / _g) * _lam * (_g - _be) / _be
        - 1,
        MIXHESS2: 2 * _a / _g - 1,
    }
)

# bound on the completed pure Hessian square before the equation is used
_pure_completion_intermediate = FormalExpr(
    {
        GRAD4: _g * (_g - 1) - 2 * _a * (_g - 1) + _a**2,
        GRADBOX: 3 * _g - 4 * _a,
        BOXSQ: 2 - 2 * _a / _g,
        MIXHESS2: 2 * _a / _g - 1,
        K_PLAIN: rf(-1),
    }
)

# the mixed-Hessian completion bound once the equation is used; its weights on
# GRAD4, K_EQ, K_PLAIN and MIXHESS2 are the paper's A2, B2, C2 and D2
_mixed_quadruple = FormalExpr(
    {
        GRAD4: _b**2 * (1 - 1 / _n)
        + (_be + 1) ** 2 * (2 * _b / _g - 1 / _n)
        + 2 * (_be + 1) * _b * (1 - 1 / _n),
        K_EQ: (2 * _b / _g - 1 / _n) * (_q - _g / _be) + (2 * _b / _be) * (1 - 1 / _n),
        K_PLAIN: _lam
        * ((2 * _b / _g - 1 / _n) * ((_g - _be) / _be) - (2 * _b / _be) * (1 - 1 / _n)),
        MIXHESS2: 1 - 2 * _b / _g,
    }
)

# the trace inequality on the b-shifted mixed Hessian before the equation is used
_mixed_intermediate = FormalExpr(
    {
        MIXHESS2: 1 - 2 * _b / _g,
        GRAD4: _b**2 * (1 - 1 / _n),
        BOXSQ: 2 * _b / _g - 1 / _n,
        GRADBOX: 2 * _b * (1 - 1 / _n),
    }
)

# weights (Ak, Bk, Ck) of the base chain's k-inequality Ak k^2 + Bk k + Ck
# at slack eps
_k_inequality = (
    _n * (_n - 1) * _q,
    _q * (2 * _n**2 + _n * (_n - 1) * _ep - 2 * _n) - 4 * _n**2 - 4 * _n,
    _q * _ep * (_n - 1) ** 2 + _q * _n * (_n - 1),
)

# the radicand of the closed-form constant C; twice C over it; the monic
# k-quadratic and its roots, the feasible interval's conjugate endpoints
_rad_small = (Poly.var("n") + 1) * (Poly.var("n") + 1 - (Poly.var("n") - 1) * Poly.var("q"))
_two_c = RadExpr((_q - 1) * (2 * _n + _q + 2) / (_q * _n), -2 * (_q - 1) / (_q * _n), _rad_small)
_kq = _k**2 + (2 - 4 * (_n + 1) / ((_n - 1) * _q)) * _k + 1
_lo_end = RadExpr(2 * (_n + 1) / (_q * (_n - 1)) - 1, -2 / (_q * (_n - 1)), _rad_small)
_hi_end = RadExpr(_lo_end.base, -_lo_end.coef, _rad_small)

# the base chain's slack ceiling, a root of the k-discriminant as a quadratic in
# eps; the big radicand n^2 * _rad_small and the k lower bound over it
_eps_max = RadExpr(
    (4 * _n * (_n + 1) - 2 * _q * (_n - 1)) / (_n * (_n - 1) * _q),
    -2 * (_n - 1) / (_n * (_n - 1) * _q),
    Poly.var("q") ** 2 + 4 * Poly.var("q") * Poly.var("n") * (Poly.var("n") + 1),
)
_rad_big = (Poly.var("n") ** 2 + Poly.var("n")) ** 2 - (
    Poly.var("n") ** 2 - Poly.var("n")
) * Poly.var("q") * (Poly.var("n") ** 2 + Poly.var("n"))
_k_lo_big = RadExpr(
    (2 * _n**2 + 2 * _n - _q * (_n**2 - _n)) / (_n * (_n - 1) * _q),
    -2 / (_n * (_n - 1) * _q),
    _rad_big,
)

# the refined chain's objective F(k) = weight * lam1 + rest, as (weight, rest),
# over A_q = 4n^2 + 4n + q
_a_q = 4 * _n**2 + 4 * _n + _q
_objective = (
    (1 - (_n + (_n - 1) * _k) * (_k * _n + _n - 1) * _q / (_a_q * _k)) / (_q - 1),
    _q * _n * (_k * _n + _n - 1) / ((_q - 1) * _a_q * _k),
)

# gradient-box integral expressed through the other three basis terms
_solved_gradbox = FormalExpr(
    {
        BOXSQ: 1 / (_be * _q - _g),
        K_PLAIN: -_lam * (_q - 1) / (_be * _q - _g),
        GRAD4: (_be * _q - _be - _g - 1) * (_be + 1) / (_be * _q - _g),
    }
)

# displayed weights on GRAD4, BOXSQ, K_PLAIN and MIXHESS2 after the
# gradient-box elimination (gamma form), through the weight S the elimination
# spreads over the other three terms
_s_refined = 3 * _g - 4 * _a + 2 * _b * _k * (1 - 1 / _n)
_refined_quadruple = FormalExpr(
    {
        GRAD4: _g * (_g - 1)
        - 2 * _a * (_g - 1)
        + _a**2
        + _b**2 * _k * (1 - 1 / _n)
        + _s_refined * (_be * _q - _be - _g - 1) * (_be + 1) / (_be * _q - _g),
        BOXSQ: 2 - 2 * _a / _g + _k * (2 * _b / _g - 1 / _n) + _s_refined / (_be * _q - _g),
        K_PLAIN: -(_lam * (_q - 1) * _s_refined / (_be * _q - _g) + 1),
        MIXHESS2: 2 * _a / _g - 1 + _k * (1 - 2 * _b / _g),
    }
)

# identity (3) as transcribed: the mixed cross term through the squared box,
# the gradient-box integral and the mixed Hessian
_mixcross_transcribed = FormalExpr({BOXSQ: 1 / _g, GRADBOX: rf(1), MIXHESS2: -1 / _g})

# |pure Hessian + a grad pair/v|^2 expanded; the two conjugate cross terms are
# real and equal, hence the single 2a weight; at a = 0 the pure Hessian alone
_antihol_expansion = FormalExpr({ANTIHESS2: rf(1), ANTICROSS: 2 * _a, GRAD4: _a**2})
_antihol_bare = FormalExpr({ANTIHESS2: rf(1)})

# the midpoint choice gamma = 2a, and the term (2 - 2a/gamma)(q-1) lam - 1 that
# C1 differs from by -lam * B1
_midpoint_gamma = 2 * _a
_midpoint_plain_shift = (2 - 2 * _a / _g) * (_q - 1) * _lam - 1

# the mixed quadruple's quartic weight at b = 0
_mixed_quartic_at_b_zero = -((_be + 1) ** 2) / _n

# the first identity rearranged for the equation-exponent energy; the
# squared-box identity with that energy eliminated; the gradient-box and the
# squared-box integral alone
_keq_solved = FormalExpr({GRADBOX: _be, K_PLAIN: _lam, GRAD4: -_be * (_be + 1)})
_eliminated = FormalExpr(
    {
        GRADBOX: _be * _q - _g,
        K_PLAIN: _lam * (_q - 1),
        GRAD4: -(_be * _q - _be - _g - 1) * (_be + 1),
    }
)
_gradbox_alone = FormalExpr({GRADBOX: rf(1)})
_boxsq_alone = FormalExpr({BOXSQ: rf(1)})

# the base chain's combined display (step i): the weights on GRAD4, K_EQ and
# K_PLAIN/lam that the trace part (1/n of the mixed-Hessian weight) carries,
# and the rest of the plain-energy weight over lam
_trace_weights = ((_be + 1) ** 2, _q - _g / _be, _g / _be - 1)
_combined_plain_rest = (
    (4 * _a - 3 * _g) / _be
    + (2 - 2 * _a / _g) * (_g / _be - 1)
    + _k * (2 * _b / _g - 1 / _n) * (_g / _be - 1)
    - (2 * _b * _k / _be) * (1 - 1 / _n)
)

# the base chain: the b-choice pinning the trace-free weight at -eps, and the
# factor theta it leaves on the trace part
_base_b_choice = ((_g * _ep / 2 + _a - _g / 2) / _k) + _g / 2
_theta = 1 + ((_n - 1) / _n) * (_k + _ep)
# weights on GRAD4, K_EQ and K_PLAIN after the b-choice (step ii) and at
# gamma = 0 (step iii)
_base_step2_weights = (
    _g * (_g - 1)
    - 2 * _a * (_g - 1)
    + _a**2
    + (3 * _g - 4 * _a) * (_be + 1)
    + (_be + 1) ** 2 * _theta
    + _base_b_choice**2 * _k * (1 - 1 / _n)
    + 2 * _base_b_choice * _k * (_be + 1) * (1 - 1 / _n),
    (3 * _g - 4 * _a) / _be
    + (_q - _g / _be) * _theta
    + (2 * _base_b_choice * _k / _be) * (1 - 1 / _n),
    (
        (4 * _a - 3 * _g) / _be
        + (_g / _be - 1) * _theta
        - (2 * _base_b_choice * _k / _be) * (1 - 1 / _n)
    )
    * _lam
    - 1,
)
_base_step3_weights = (
    2 * _a
    + _a**2
    + (_a**2 / _k) * ((_n - 1) / _n)
    - 2 * _a * (_be + 1) * ((_n + 1) / _n)
    + _theta * (_be + 1) ** 2,
    -(2 * _a / _be) * ((_n + 1) / _n) + _q * _theta,
    ((2 * _a / _be) * ((_n + 1) / _n) - _theta) * _lam - 1,
)
# the a-choice killing the mixed-energy weight; the quadratic in beta the
# quartic weight is theta times, its leading weight and its discriminant
_base_a_choice = _q * _theta * _n * _be / (2 * (_n + 1))
_lead_beta = _q**2 * _theta * ((_n * _k + _n - 1) * _n) / (4 * _k * (_n + 1) ** 2) - _q + 1
_quad_beta = _be**2 * _lead_beta + _be * (2 - _q / (_n + 1)) + 1
_disc_beta = (2 - _q / (_n + 1)) ** 2 - 4 * _lead_beta
# the k-discriminant at zero slack, and its leading weight in eps
_delta0 = (4 * _n**2 + 4 * _n) ** 2 - 16 * (_n**2 + _n) * _q * (_n**2 - _n)
_eps_lead = (_q * _n * (_n - 1)) ** 2
# twice C as the base threshold reads it: (k(n-1)/n + 1)(q-1)
_two_c_base = (_k * ((_n - 1) / _n) + 1) * (_q - 1)

# the refined chain: the b-choice zeroing the Hessian weight, and the box
# weight it leaves (step ii)
_refined_b_choice = (_g / 2) * (1 - 1 / _k) + _a / _k
_refined_box_weight = 1 + (_n - 1) * _k / _n + (
    3 * _g - 4 * _a + 2 * _refined_b_choice * _k * (1 - 1 / _n)
) / (_be * _q - _g)
# weights on GRAD4, BOXSQ and K_PLAIN at gamma = 0 (step iii)
_refined_step3_weights = (
    2 * _a
    + _a**2
    + (_a**2 / _k) * ((_n - 1) / _n)
    - 2 * _a * ((_n + 1) / _n) * (_be * _q - _be - 1) * (_be + 1) / (_be * _q),
    1 + (_n - 1) * _k / _n - (2 * _a / (_be * _q)) * ((_n + 1) / _n),
    (_lam * (_q - 1) / (_be * _q)) * (2 * _a * (_n + 1) / _n) - 1,
)
# the ratio substitution a = x*y (with beta = y); the quadratic in y that the
# quartic weight is x times: its weights on y^2, y and 1, and the quadratic
# itself (step iv)
_a_as_xy = _x * _y
_y_weights = (
    _x + _x * ((_n - 1) / (_k * _n)) - 2 * ((_n + 1) / _n) + 2 * ((_n + 1) / (_q * _n)),
    2 + 2 * ((_n + 1) / (_q * _n)) - 2 * ((_q - 1) / _q) * ((_n + 1) / _n),
    2 * ((_n + 1) / (_q * _n)),
)
_y_quadratic = _y**2 * _y_weights[0] + _y * _y_weights[1] + _y_weights[2]
# the upper and lower bounds on x and the positive factors their conditions
# are cleared of (steps v, vi); the factor of the gap between them (step vii)
_x_upper = _a_q * _k / (2 * (_n + 1) * (_k * _n + _n - 1))
_x_upper_factor = 8 * (_n + 1) * (_n * _k + _n - 1) / (_q * _k * _n**2)
_x_lower = (_k * _n + _n - _k) * _q / (2 * (_n + 1))
_x_lower_factor = 2 * (_n + 1) / (_q * _n)
_gap_factor = _q * _n * (_n - 1) / (2 * (_n + 1) * (_k * _n + _n - 1))
# the threshold on lam at a given x, and the factor the spectral bound is
# cleared of (step viii)
_threshold = _l1 / (_q - 1) + (1 - _l1 * (1 + (_n - 1) * _k / _n)) * _q * _n / (
    2 * (_q - 1) * (_n + 1) * _x
)
_threshold_factor = 2 * _x * (_n + 1) * (_q - 1) / (_q * _n)
# the objective as alpha + beta*k + gamma/k: its three weights, beta and gamma
# through one positive factor, and the split itself (step x)
_split_factor = _q * _n * (_n - 1) / ((_q - 1) * _a_q)
_objective_split_weights = (
    (_l1 * (_a_q - _q * (2 * _n**2 - 2 * _n + 1)) + _q * _n**2) / ((_q - 1) * _a_q),
    -_l1 * _split_factor,
    (1 - _l1) * _split_factor,
)
_objective_split = (
    _objective_split_weights[0]
    + _objective_split_weights[1] * _k
    + _objective_split_weights[2] / _k
)


# ---------------------------------------------------------------------------
# verifiers


def verify_substitution_identities(idx: int) -> PassReport:
    """The three substitution identities for the transformed equation.

    (1) expands the box factor inside the gradient-box integral; (2) does the
    same inside the squared box and then integrates by parts; (3) is the
    mixed-Hessian contraction identity, which enters as a trusted axiom and
    is cross-checked through the elimination derivation.
    """
    # an int other than a bool: True == 1 and 2.0 == 2 would pass `in`
    if isinstance(idx, bool) or not isinstance(idx, int) or idx not in (1, 2, 3):
        raise DomainError(f"idx must be the int 1, 2 or 3, got {idx!r}")
    elim = verify_grad_box_elimination() if idx == 3 else None
    return _substitution_identities(idx, elim)


def _substitution_identities(idx: int, elim: PassReport | None) -> PassReport:
    """Identity idx, one of 1, 2, 3; (3) records `elim.passed` as its
    elimination cross-check."""
    with _Derivation(f"substitution_identities_{idx}") as d:
        if idx == 1:
            d.expr("expand_box_in_gradient_energy", EQ_IN_GRADBOX, _sub1)
        elif idx == 2:
            raw = ibp(EQ_IN_BOXSQ)
            d.expr("after_parts_integration", raw, _boxsq_after_parts)
            final = raw.replace(GRADBOX, _sub1)
            d.expr("after_first_identity", final, _sub2)
            lam_zero = _sub2.coefficient(K_PLAIN).substitute("lam", rf(0))
            d.identity("plain_energy_weight_vanishes_without_lam", lam_zero, rf(0))
        else:
            d.expr(
                "trusted_axiom_transcription",
                MIXCROSS_IDENTITY,
                _mixcross_transcribed,
                "axiom, not derived; proof needs geometry outside this engine",
            )
            # cross-check: the two independent routes to the solved gradient-box
            # form (direct elimination vs solving identities (1)+(2)) agree
            d.fact(
                "cross_check_via_elimination",
                elim.passed,
                "see elimination report",
                "consistency of the calculus built on this axiom",
            )

    return d.finish(seed=100 + idx)


def verify_antihol_completion_bound() -> PassReport:
    """Completion of the square on the pure-type Hessian (parameter a)."""
    with _Derivation("antihol_completion_bound") as d:
        e1 = _antihol_expansion.replace(ANTICROSS, ANTICROSS_IDENTITY)
        e2 = e1.replace(ANTIHESS2, PURE_HESSIAN_UPPER_BOUND)
        d.identity(
            "upper_bound_applied_with_positive_weight",
            e1.coefficient(ANTIHESS2),
            rf(1),
            "bound usable because the pure-Hessian weight is +1",
        )
        e3 = e2.replace(MIXCROSS, MIXCROSS_IDENTITY)
        d.expr("pre_equation_form", e3, _pure_completion_intermediate)

        e4 = e3.replace(GRADBOX, _sub1).replace(BOXSQ, _sub2)
        d.expr("final_coefficients", e4, _completion_quadruple)

        # parameter-off cross-check: a = 0 must reproduce the bare combination
        bare = (
            _antihol_bare.replace(ANTIHESS2, PURE_HESSIAN_UPPER_BOUND)
            .replace(MIXCROSS, MIXCROSS_IDENTITY)
            .replace(GRADBOX, _sub1)
            .replace(BOXSQ, _sub2)
        )
        for term in (GRAD4, K_EQ, K_PLAIN, MIXHESS2):
            d.identity(
                f"parameter_off[{term!r}]",
                e4.coefficient(term).substitute("a", rf(0)),
                bare.coefficient(term),
            )

    return d.finish(seed=23)


def verify_midpoint_obstruction() -> PassReport:
    """At the midpoint choice gamma = 2a the mixed-energy weight becomes q.

    This is the obstruction to reaching the conjectured constant with the
    pure-Hessian completion alone: a positive weight can never be pushed
    nonpositive. Also checks the identity that chains the two nonpositivity
    conditions together.
    """
    with _Derivation("midpoint_obstruction") as d:
        quad = _completion_quadruple
        mixed_energy = quad.coefficient(K_EQ)
        d.identity(
            "mixed_energy_weight_at_midpoint",
            mixed_energy.substitute("gamma", _midpoint_gamma),
            _q,
        )
        d.identity(
            "hessian_weight_at_midpoint",
            quad.coefficient(MIXHESS2).substitute("gamma", _midpoint_gamma),
            rf(0),
        )
        # C1 - [(2 - 2a/gamma)(q-1) lam - 1] = -lam * B1, which is how the B- and
        # C-conditions combine into the displayed constraint on lam
        combined = quad.coefficient(K_PLAIN) - _midpoint_plain_shift
        d.identity("condition_combination_identity", combined, -_lam * mixed_energy)

    # the worked example a = 3, beta = 1, q = 2, where the midpoint form is q = 2
    pt = _point(a=3, gamma=6, beta=1, q=2)
    return d.finish(seed=31, worked=((pt, d.holds_at(pt)),))


def verify_mixed_completion_bound() -> PassReport:
    """Completion of the square on the mixed Hessian via the trace inequality."""
    with _Derivation("mixed_completion_bound") as d:
        e1 = CAUCHY_SCHWARZ_DEFECT.replace(MIXCROSS, MIXCROSS_IDENTITY)
        d.expr("pre_equation_form", e1, _mixed_intermediate)

        e2 = e1.replace(GRADBOX, _sub1).replace(BOXSQ, _sub2)
        quad = _mixed_quadruple
        d.expr("final_coefficients", e2, quad)

        d.identity(
            "parameter_off_quartic",
            quad.coefficient(GRAD4).substitute("b", rf(0)),
            _mixed_quartic_at_b_zero,
        )
        d.identity(
            "parameter_off_hessian", quad.coefficient(MIXHESS2).substitute("b", rf(0)), rf(1)
        )

    return d.finish(seed=47)


def _combined_base_quadruple(pre: FormalExpr) -> FormalExpr:
    """The k-weighted combination `pre` of the two completion quadruples with
    the trace split applied (display form): weights on GRAD4, K_EQ, K_PLAIN
    and TRACEFREE."""
    Dc = pre.coefficient(MIXHESS2)
    on_grad4, on_keq, on_plain = _trace_weights
    A = pre.coefficient(GRAD4) + (Dc / _n) * on_grad4
    B = pre.coefficient(K_EQ) + (Dc / _n) * on_keq
    C = (_combined_plain_rest + on_plain * (Dc / _n)) * _lam - 1
    return FormalExpr({GRAD4: A, K_EQ: B, K_PLAIN: C, TRACEFREE: Dc})


def verify_base_chain() -> PassReport:
    """The zero-slack parameter chain, from the combined bound to the threshold.

    Eight steps: (i) combine the two completion bounds and split off the
    trace-free Hessian part; (ii) the b-choice pins the trace-free weight at
    -eps; (iii) weights at gamma = 0; (iv) the a-choice kills the mixed
    energy weight; (v) the quartic weight factors into a quadratic in beta;
    (vi) its discriminant condition is the displayed k-inequality; (vii) the
    k-discriminant at eps = 0 and the slack ceiling; (viii) the k lower bound
    is a root and the resulting threshold equals the closed-form constant.
    """
    with _Derivation("base_chain") as d:
        # (i) combine, split the mixed-Hessian weight into trace-free + trace
        pre = _completion_quadruple + _mixed_quadruple.scale(_k)
        split = pre.replace(MIXHESS2, FormalExpr({TRACEFREE: rf(1), BOXSQ: 1 / _n})).replace(
            BOXSQ, _sub2
        )
        expected = _combined_base_quadruple(pre)
        d.expr("step1_combined", split, expected)

        # (ii) the b-choice forces the trace-free weight to -eps
        A_b, B_b, C_b, D_b = (
            expected.coefficient(term).substitute("b", _base_b_choice)
            for term in (GRAD4, K_EQ, K_PLAIN, TRACEFREE)
        )
        d.identity("step2_tracefree_weight", D_b, -_ep)
        A_ii, B_ii, C_ii = _base_step2_weights
        d.identity("step2_quartic_weight", A_b, A_ii)
        d.identity("step2_mixed_energy_weight", B_b, B_ii)
        d.identity("step2_plain_energy_weight", C_b, C_ii)

        # (iii) weights at gamma = 0 (continuity in gamma; the pole cancels)
        A0 = A_b.limit_var_zero("gamma")
        B0 = B_b.limit_var_zero("gamma")
        A0_disp, B0_disp, C0_disp = _base_step3_weights
        d.identity("step3_quartic_weight_at_zero", A0, A0_disp)
        d.identity("step3_mixed_energy_weight_at_zero", B0, B0_disp)
        d.identity("step3_plain_energy_weight_at_zero", C_b.limit_var_zero("gamma"), C0_disp)

        # (iv) the a-choice kills the mixed energy weight
        d.identity("step4_mixed_energy_killed", B0.substitute("a", _base_a_choice), rf(0))

        # (v) quartic weight = theta * (quadratic in beta); theta > 0 is the
        # cleared factor (positive whenever k, eps >= 0)
        d.identity(
            "step5_quartic_factors",
            A0.substitute("a", _base_a_choice),
            _theta * _quad_beta,
            note="cleared factor: 1 + ((n-1)/n)(k+eps), positive for k > 0, eps >= 0",
        )

        # (vi) discriminant of the beta-quadratic vs the displayed k-inequality;
        # cleared factor q/(k(n+1)^2), positive on the admissible region
        Ak, Bk, Ck = _k_inequality
        L = Ak * _k**2 + Bk * _k + Ck
        d.identity(
            "step6_discriminant_is_k_inequality",
            _disc_beta * _k * (_n + 1) ** 2,
            -_q * L,
            note=(
                "cleared factor: q/(k(n+1)^2); side condition recorded: the "
                "k-quadratic's leading weight n(n-1)q is positive for n >= 2"
            ),
        )

        # (vii) k-discriminant of the inequality at eps = 0, and the eps ceiling
        delta = Bk**2 - 4 * Ak * Ck
        d.identity("step7_discriminant_at_zero_slack", delta.substitute("eps", rf(0)), _delta0)
        val22 = _delta0.evaluate(_point(n=2, q=2))
        d.fact(
            "step7_sample_value", val22 == 192, str(val22), "24^2 - 16*6*2*2 = 192 at n = 2, q = 2"
        )
        # the slack ceiling is an exact root of the eps-quadratic delta(eps)
        d.root(
            "step7_slack_ceiling_is_root",
            delta,
            "eps",
            _eps_max,
            "delta(eps) is an upward parabola in eps; feasibility is eps <= ceiling",
        )
        d.identity(
            "step7_eps_parabola_opens_up",
            rf(delta.num.coeffs_in("eps").get(2, Poly()), delta.den),
            _eps_lead,
            note="leading eps-weight is a square, positive on the admissible region",
        )

        # (viii) the k lower bound is a root of the zero-slack inequality, and
        # the threshold it induces equals the closed-form constant's threshold
        d.root("step8_lower_bound_is_root", L.substitute("eps", rf(0)), "k", _k_lo_big)
        d.identity(
            "step8_radicand_rescaling",
            rf(_rad_big),
            _n**2 * rf(_rad_small),
            "big radicand = n^2 * small radicand; factor n > 0",
        )
        # sqrt(f^2 r) = |f| sqrt(r), so the rescaling keeps the sign of the radical
        # term only where the factor is positive
        samples = [(n, 1 + Fraction(j, 2 * (n - 1))) for n in (2, 3, 4, 7) for j in (1, 2, 3, 4)]
        factor_ok = all(_n.evaluate(_point(n=n, q=q)) > 0 for n, q in samples)
        d.fact(
            "step8_rescaling_factor_positive",
            factor_ok,
            "nonpositive at a sample point",
            "factor n > 0 at 16 admissible points: n in {2, 3, 4, 7}, "
            "q = 1 + j/(2(n-1)) for j = 1..4, the last on the boundary",
        )
        # with sqrt(big radicand) = n*sqrt(small radicand), 2C is a function of k
        d.root(
            "step8_threshold_identity",
            _two_c_base - _two_c_at(_k_lo_big, _n),
            "k",
            _k_lo_big,
            "reciprocals agree iff these agree; 2C written in k through "
            "sqrt(small radicand) = (k - base)/(n*coef), remainder modulo the "
            "lower bound's quadratic",
        )

    return d.finish(seed=53)


def verify_radical_gap_monotone(
    alpha: Fraction, beta_c: Fraction, gamma_c: Fraction
) -> PassReport:
    """psi(t) = alpha*t - sqrt(R(t)) increases on (0, t_max), proved at one rational triple.

    R(t) = alpha^2 t^2 - beta_c t + gamma_c has disc = beta_c^2 - 4 alpha^2
    gamma_c > 0, and t_max = (beta_c - sqrt(disc))/(2 alpha^2). Two steps,
    both exact: t_max is a root of R, decided modulo its quadratic; and
    beta_c - 2 alpha^2 t_max = sqrt(disc), read off t_max's base and
    coefficient, so t_max is the smaller root. Both roots are positive (their
    sum beta_c/alpha^2 and product gamma_c/alpha^2 are), so R > 0 on
    (0, t_max), where beta_c - 2 alpha^2 t > sqrt(disc) > 0 and
    psi'(t) = alpha + (beta_c - 2 alpha^2 t)/(2 sqrt(R(t))) > alpha > 0.
    An input other than an int or a Fraction (a bool, a float, a string),
    nonpositive inputs and disc <= 0 raise DomainError.
    """
    for value in (alpha, beta_c, gamma_c):
        # a bool is an int, and a float would be proved at its binary value
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise DomainError(f"alpha, beta_c, gamma_c must be ints or Fractions, got {value!r}")
    alpha, beta_c, gamma_c = Fraction(alpha), Fraction(beta_c), Fraction(gamma_c)
    if alpha <= 0 or beta_c <= 0 or gamma_c <= 0:
        raise DomainError("alpha, beta_c, gamma_c must all be positive")
    a2 = alpha * alpha
    disc = beta_c * beta_c - 4 * a2 * gamma_c
    if disc <= 0:
        raise DomainError(
            "constraint beta_c^2 > 4*alpha^2*gamma_c violated: "
            f"{beta_c}^2 <= 4*{alpha}^2*{gamma_c}"
        )
    t_max = RadExpr(beta_c / (2 * a2), -1 / (2 * a2), Poly.const(disc))
    with _Derivation("radical_gap_monotone") as d:
        d.root("t_max_is_root_of_radicand", a2 * _x**2 - beta_c * _x + gamma_c, "x", t_max)
        # beta_c - 2 alpha^2 t_max = offset + slope*sqrt(disc)
        offset = beta_c - 2 * a2 * t_max.base
        slope = -2 * a2 * t_max.coef
        d.fact(
            "t_max_is_smaller_root",
            offset.is_zero and (slope - 1).is_zero,
            f"({offset!r}) + ({slope!r})*sqrt({disc})",
            "beta_c - 2 alpha^2 t_max = sqrt(disc) > 0: t_max is the smaller root, "
            "and psi' > alpha on (0, t_max)",
        )
    point = {"alpha": alpha, "beta_c": beta_c, "gamma_c": gamma_c}
    return d.finish(seed=None, worked=((point, all(s.ok for s in d.steps)),))


def verify_grad_box_elimination() -> PassReport:
    """Eliminating the gradient-box integral from the squared-box identity."""
    with _Derivation("grad_box_elimination") as d:
        raw = ibp(EQ_IN_BOXSQ)
        d.expr("boxsq_after_parts", raw, _boxsq_after_parts)

        # the rearranged first identity substituted back returns GRADBOX
        back = _sub1.replace(K_EQ, _keq_solved)
        d.expr("rearrangement_consistency", back, _gradbox_alone)

        eliminated = raw.replace(K_EQ, _keq_solved)
        d.expr("after_elimination", eliminated, _eliminated)

        # solve for the gradient-box integral and compare the displayed form
        solved = _solved_gradbox
        # plugging the solved form into the eliminated identity must return BOXSQ
        roundtrip = _eliminated.replace(GRADBOX, solved)
        d.expr("solve_roundtrip", roundtrip, _boxsq_alone)

        # alternate derivation: solve the two substitution identities directly
        alt = _sub2.replace(K_EQ, _keq_solved)
        d.expr("alternate_derivation", alt, _eliminated)

        d.identity(
            "plain_energy_weight_vanishes_without_lam",
            solved.coefficient(K_PLAIN).substitute("lam", rf(0)),
            rf(0),
        )

    # worked instantiation from the contract: gamma=1, beta=2, q=3, lam=1/5
    pt = _point(gamma=1, beta=2, q=3, lam=Fraction(1, 5))
    return d.finish(seed=61, worked=((pt, d.holds_at(pt)),))


def verify_refined_chain() -> PassReport:
    """The spectral-parameter chain, from the combined bound to the objective.

    Twelve steps: (i) combine the two completion bounds and eliminate the
    gradient-box integral; (ii) the b-choice zeroes the Hessian weight;
    (iii) weights at gamma = 0; (iv) the ratio substitution turns the quartic
    weight into a quadratic in y times x; (v) its discriminant condition is
    the upper bound on x; (vi) the mixed-energy condition is the lower bound
    on x; (vii) compatibility of the two bounds is the displayed k-quadratic,
    whose roots are the feasibility interval endpoints; (viii) the spectral
    bound rearranges to the threshold inequality; (ix) at the upper x-bound
    the threshold is the stated objective; (x) the objective is
    alpha + beta*k + gamma/k; (xi) it is stationary at k^2 = 1 - 1/lam1;
    (xii) gamma is (1 - lam1) times a positive factor, so the objective is
    concave and its maximizer on the interval is that point clipped to it.
    """
    with _Derivation("refined_chain") as d:
        # (i) combine and eliminate
        pure = _pure_completion_intermediate
        mixed = _mixed_intermediate
        combined = pure + mixed.scale(_k)
        e1 = combined.replace(GRADBOX, _solved_gradbox)
        expected = _refined_quadruple
        d.expr("step1_combined", e1, expected)

        # (ii) zero the Hessian weight
        A_b, B_b, C_b, D_b = (
            expected.coefficient(term).substitute("b", _refined_b_choice)
            for term in (GRAD4, BOXSQ, K_PLAIN, MIXHESS2)
        )
        d.identity("step2_hessian_weight", D_b, rf(0))
        d.identity("step2_box_weight_simplifies", B_b, _refined_box_weight)

        # (iii) weights at gamma = 0
        A0 = A_b.limit_var_zero("gamma")
        B0 = B_b.limit_var_zero("gamma")
        C0 = C_b.limit_var_zero("gamma")
        A0_disp, B0_disp, C0_disp = _refined_step3_weights
        d.identity("step3_quartic_weight_at_zero", A0, A0_disp)
        d.identity("step3_box_weight_at_zero", B0, B0_disp)
        d.identity("step3_plain_energy_weight_at_zero", C0, C0_disp)

        # (iv) ratio substitution a = x*y, beta = y; cleared factor x
        d.identity(
            "step4_quartic_is_x_times_quadratic",
            A0.substitute("a", _a_as_xy).substitute("beta", _y),
            _x * _y_quadratic,
            note="cleared factor: x = a/beta, nonzero by construction",
        )

        # (v) discriminant of the y-quadratic against the x upper bound;
        # cleared factor 8(n+1)(nk+n-1)/(q k n^2) > 0
        y2, y1, y0 = _y_weights
        d.identity(
            "step5_discriminant_linear_in_x",
            y1**2 - 4 * y2 * y0,
            _x_upper_factor * (_x_upper - _x),
            note="cleared factor: 8(n+1)(nk+n-1)/(q k n^2), positive for k > 0",
        )

        # (vi) the mixed-energy condition is the x lower bound
        B0_x = B0.substitute("a", _a_as_xy).substitute("beta", _y)
        d.identity(
            "step6_box_weight_linear_in_x",
            B0_x,
            _x_lower_factor * (_x_lower - _x),
            note="cleared factor: 2(n+1)/(qn), positive",
        )

        # (vii) compatibility of the bounds is the k-quadratic; its roots are the
        # feasibility interval endpoints
        d.identity(
            "step7_gap_is_k_quadratic",
            _x_upper - _x_lower,
            -_gap_factor * _kq,
            note="cleared factor: qn(n-1)/(2(n+1)(kn+n-1)), positive for n >= 2, k > 0",
        )
        for label, endpoint in (("lower", _lo_end), ("upper", _hi_end)):
            d.root(f"step7_{label}_endpoint_is_root", _kq, "k", endpoint)
        # conjugate endpoints: the product is base^2 - coef^2 * radicand
        d.identity(
            "step7_endpoint_product_one",
            _lo_end.base * _lo_end.base - _lo_end.coef * _lo_end.coef * rf(_lo_end.rad),
            rf(1),
            "constant term of the monic k-quadratic",
        )

        # (viii) the spectral bound rearranges to the threshold inequality
        C0_x = C0.substitute("a", _a_as_xy).substitute("beta", _y)
        d.identity(
            "step8_threshold_rearrangement",
            C0_x + _l1 * B0_x,
            _threshold_factor * (_lam - _threshold),
            note="cleared factor: 2x(n+1)(q-1)/(qn), positive for x > 0, q > 1",
        )

        # (ix) the threshold at the upper x-bound is the stated objective
        F_weight, F_rest = _objective
        F_disp = F_weight * _l1 + F_rest
        d.identity("step9_objective_recovered", _threshold.substitute("x", _x_upper), F_disp)
        val = F_disp.evaluate(_point(n=2, q=2, k=1, lam1=1))
        d.fact(
            "step9_sample_value",
            val == Fraction(10, 13),
            str(val),
            "objective at n=2, q=2, k=1, spectral parameter 1",
        )

        # (x) F = alpha + beta*k + gamma/k; (xi) F' = beta - gamma/k^2 vanishes at
        # k^2 = gamma/beta = 1 - 1/lam1; (xii) gamma, read off F as lim k*F at
        # k = 0, is (1 - lam1) times a positive factor, so F'' = 2 gamma/k^3 <= 0
        _, f_beta, f_gamma = _objective_split_weights
        d.identity("step10_objective_split", F_disp, _objective_split)
        d.identity(
            "step11_stationary_point",
            f_beta * (1 - 1 / _l1),
            f_gamma,
            "F' = beta - gamma/k^2 vanishes at k^2 = 1 - 1/lam1",
        )
        d.identity(
            "step12_curvature_sign",
            (F_disp * _k).limit_var_zero("k"),
            f_gamma,
            "cleared factor: qn(n-1)/((q-1)(4n^2+4n+q)), positive for n >= 2, q > 1; "
            "so F'' = 2 gamma/k^3 <= 0 on k > 0 for lam1 >= 1",
        )

    return d.finish(seed=71)


def verify_chain_consistency() -> PassReport:
    """The two chains meet: same k-interval, same threshold, exactly.

    The zero-slack k-inequality of the base chain equals n(n-1)q times the
    monic k-quadratic of the refined chain, and the refined objective at the
    interval's lower endpoint equals the base chain's threshold (equivalently
    half the reciprocal of the closed-form constant), with the spectral
    weight vanishing at both endpoints.
    """
    with _Derivation("chain_consistency") as d:
        Ak, Bk, Ck = _k_inequality
        L0 = (Ak * _k**2 + Bk * _k + Ck).substitute("eps", rf(0))
        d.identity(
            "same_k_quadratic",
            L0,
            _n * (_n - 1) * _q * _kq,
            note="cleared factor: n(n-1)q, positive for n >= 2, q > 0",
        )

        F_weight, F_rest = _objective
        for label, endpoint in (("lower", _lo_end), ("upper", _hi_end)):
            d.root(f"spectral_weight_vanishes_at_{label}_endpoint", F_weight, "k", endpoint)

        # threshold agreement: objective at the lower endpoint vs 1/(2*C) with C
        # the closed-form constant, as F * 2C - 1 vanishing there
        d.root(
            "threshold_agreement",
            F_rest * _two_c_at(_lo_end) - 1,
            "k",
            _lo_end,
            "exact, as a remainder modulo the lower endpoint's quadratic",
        )

    return d.finish(seed=83)


def run_all() -> list[PassReport]:
    """Every exact verifier, plus the radical-gap lemma at two triples.

    The elimination report is computed once and also serves as identity (3)'s
    cross-check. A DomainError inside a derivation fails that report alone
    (see `_Derivation`), so the list always holds twelve reports.
    """
    elim = verify_grad_box_elimination()
    reports = [
        verify_substitution_identities(1),
        verify_substitution_identities(2),
        _substitution_identities(3, elim),
        verify_antihol_completion_bound(),
        verify_midpoint_obstruction(),
        verify_mixed_completion_bound(),
        verify_base_chain(),
        elim,
        verify_refined_chain(),
        verify_chain_consistency(),
        verify_radical_gap_monotone(Fraction(1), Fraction(3), Fraction(1)),
        verify_radical_gap_monotone(Fraction(1), Fraction(21, 10), Fraction(11, 10)),
    ]
    return reports
