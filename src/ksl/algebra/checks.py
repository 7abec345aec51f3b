"""Derivation-chain verifiers.

Each ``verify_*`` function replays one derivation of the coefficient algebra
from the axioms in :mod:`ksl.algebra.terms`, compares the outcome against the
independently transcribed target coefficients with exact rational-function
equality, and packages the outcome as a :class:`PassReport`. Steps are
recorded on one `_Derivation` per verifier, and the sampling rule holds by
construction: every rational-function identity it records is also evaluated
at three random rational points that avoid all excluded denominators, with
exact equality, not a tolerance. At each point every distinct Poly is
evaluated once, in integers, to a numerator over a positive denominator, and
the two sides are compared by integer cross-multiplication; a vanishing
denominator rejects the point exactly where a Fraction division would. Root
steps and recorded facts (sample values, positivity, the elimination
cross-check) are not sampled.

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

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

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
    ANTIHESS2,
    BOXSQ,
    FormalExpr,
    GRAD4,
    GRADBOX,
    K_EQ,
    K_PLAIN,
    MIXHESS2,
    MIXCROSS,
    TRACEFREE,
    anticross_identity,
    cauchy_schwarz_defect,
    eq_in_boxsq,
    eq_in_gradbox,
    ibp,
    mixcross_identity,
    pure_hessian_upper_bound,
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


@dataclass(frozen=True)
class CoefficientSet:
    """The recurring quadruple multiplying the four basis integrals."""

    A: RationalFunction
    B: RationalFunction
    C: RationalFunction
    D: RationalFunction


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

# the radicand of the closed-form constant C; twice C over it; the monic
# k-quadratic and its roots, the feasible interval's conjugate endpoints
_rad_small = (Poly.var("n") + 1) * (Poly.var("n") + 1 - (Poly.var("n") - 1) * Poly.var("q"))
_two_c = RadExpr((_q - 1) * (2 * _n + _q + 2) / (_q * _n), -2 * (_q - 1) / (_q * _n), _rad_small)
_kq = _k**2 + (2 - 4 * (_n + 1) / ((_n - 1) * _q)) * _k + 1
_lo_end = RadExpr(2 * (_n + 1) / (_q * (_n - 1)) - 1, -2 / (_q * (_n - 1)), _rad_small)
_hi_end = RadExpr(_lo_end.base, -_lo_end.coef, _rad_small)

# denominators excluded from every instantiation, per the localization the
# whole calculus lives in
_EXCLUDED = [
    Poly.var("beta"),
    Poly.var("gamma"),
    Poly.var("beta") * Poly.var("q") - Poly.var("gamma"),
    Poly.var("k"),
    Poly.var("n"),
]


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
    `_instantiate` resamples the point.
    """
    for lhs, rhs in pairs:
        n1, s1 = at[lhs.num]
        d1, t1 = at[lhs.den]
        if not d1:
            raise ZeroDivisionError("lhs denominator vanishes at the point")
        n2, s2 = at[rhs.num]
        d2, t2 = at[rhs.den]
        if not d2:
            raise ZeroDivisionError("rhs denominator vanishes at the point")
        if n1 * t1 * s2 * d2 != n2 * t2 * s1 * d1:
            return False
    return True


def _record(pt: dict, agree: bool) -> dict:
    return {"point": {name: str(val) for name, val in pt.items()}, "agree": agree}


def _instantiate(
    pairs: list[tuple[RationalFunction, RationalFunction]],
    seed: int,
    count: int = 3,
    extra_avoid: tuple[Poly, ...] = (),
) -> list[dict]:
    """Evaluate each lhs/rhs pair at `count` random rational points.

    Points where any excluded or involved denominator vanishes are resampled.
    Agreement is exact; the exclusions and the pairs read one set of values
    per point.
    """
    rng = random.Random(seed)
    records: list[dict] = []
    attempts = 0
    while len(records) < count:
        attempts += 1
        if attempts > 10_000:
            raise RuntimeError("could not find denominator-avoiding points")
        pt = _random_point(rng)
        at = _PolyValues(pt)
        if any(not at[p][0] for p in _EXCLUDED):
            continue
        if any(not at[p][0] for p in extra_avoid):
            continue
        try:
            agree = _holds_at(pairs, at)
        except ZeroDivisionError:
            continue
        records.append(_record(pt, agree))
    return records


class _Derivation:
    """The steps of one derivation, recorded as they are checked.

    An `identity` (or each term of an `expr`) is an exact rational-function
    comparison and keeps its two sides as a sample pair, so every identity
    step is also instantiated by `finish`. A `root` step, decided modulo a
    surd's quadratic, and a `fact` (a sample value, a positivity check or a
    cross-check) are recorded only.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.steps: list[StepCheck] = []
        self.pairs: list[tuple[RationalFunction, RationalFunction]] = []

    def identity(
        self, name: str, lhs: RationalFunction, rhs: RationalFunction, note: str = ""
    ) -> None:
        # over one shared denominator the numerators alone decide
        if lhs.den == rhs.den:
            cross = lhs.num - rhs.num
        else:
            cross = lhs.num * rhs.den - rhs.num * lhs.den
        self.fact(name, cross.is_zero, repr(cross), note)
        self.pairs.append((lhs, rhs))

    def expr(self, prefix: str, derived: FormalExpr, expected: FormalExpr, note: str = "") -> None:
        for term in sorted(derived.terms() | expected.terms(), key=repr):
            self.identity(
                f"{prefix}[{term!r}]", derived.coefficient(term), expected.coefficient(term), note
            )

    def root(
        self, name: str, expr: RationalFunction, var: str, point: RadExpr, note: str = ""
    ) -> None:
        num, _ = rf_at_radexpr(expr, var, point)
        self.fact(name, num.is_zero, repr(num), note)

    def fact(self, name: str, ok: bool, residual: str, note: str = "") -> None:
        """A recorded verdict; `residual` is reported only when it fails."""
        self.steps.append(StepCheck(name, ok, "0" if ok else residual, note))

    def holds_at(self, pt: dict[str, Fraction]) -> bool:
        """Whether every recorded identity holds at one worked point."""
        return _holds_at(self.pairs, _PolyValues(pt))

    def finish(
        self,
        seed: int | None,
        extra_avoid: tuple[Poly, ...] = (),
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
        insts = _instantiate(self.pairs, seed, extra_avoid=extra_avoid) if self.pairs else []
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
# transcribed target displays (independent of the derivation code paths)


def display_sub1() -> FormalExpr:
    return FormalExpr({K_EQ: 1 / _be, K_PLAIN: -_lam / _be, GRAD4: _be + 1})


def display_sub2() -> FormalExpr:
    return FormalExpr(
        {
            K_EQ: (_be * _q - _g) / _be,
            K_PLAIN: _lam * (_g - _be) / _be,
            GRAD4: (_be + 1) ** 2,
        }
    )


def display_completion_quadruple() -> CoefficientSet:
    A1 = _g * (_g - 1) - 2 * _a * (_g - 1) + _a**2 + (3 * _g - 4 * _a) * (_be + 1) + (
        2 - 2 * _a / _g
    ) * (_be + 1) ** 2
    B1 = (3 * _g - 4 * _a) / _be + (2 - 2 * _a / _g) * ((_be * _q - _g) / _be)
    C1 = (4 * _a - 3 * _g) * _lam / _be + (2 - 2 * _a / _g) * _lam * (_g - _be) / _be - 1
    D1 = 2 * _a / _g - 1
    return CoefficientSet(A1, B1, C1, D1)


def display_pure_completion_intermediate() -> FormalExpr:
    # bound on the completed pure Hessian square before the equation is used
    return FormalExpr(
        {
            GRAD4: _g * (_g - 1) - 2 * _a * (_g - 1) + _a**2,
            GRADBOX: 3 * _g - 4 * _a,
            BOXSQ: 2 - 2 * _a / _g,
            MIXHESS2: 2 * _a / _g - 1,
            K_PLAIN: rf(-1),
        }
    )


def display_mixed_quadruple() -> CoefficientSet:
    A2 = (
        _b**2 * (1 - 1 / _n)
        + (_be + 1) ** 2 * (2 * _b / _g - 1 / _n)
        + 2 * (_be + 1) * _b * (1 - 1 / _n)
    )
    B2 = (2 * _b / _g - 1 / _n) * (_q - _g / _be) + (2 * _b / _be) * (1 - 1 / _n)
    C2 = _lam * ((2 * _b / _g - 1 / _n) * ((_g - _be) / _be) - (2 * _b / _be) * (1 - 1 / _n))
    D2 = 1 - 2 * _b / _g
    return CoefficientSet(A2, B2, C2, D2)


def display_mixed_intermediate() -> FormalExpr:
    return FormalExpr(
        {
            MIXHESS2: 1 - 2 * _b / _g,
            GRAD4: _b**2 * (1 - 1 / _n),
            BOXSQ: 2 * _b / _g - 1 / _n,
            GRADBOX: 2 * _b * (1 - 1 / _n),
        }
    )


def display_solved_gradbox() -> FormalExpr:
    # gradient-box integral expressed through the other three basis terms
    den = _be * _q - _g
    return FormalExpr(
        {
            BOXSQ: 1 / den,
            K_PLAIN: -_lam * (_q - 1) / den,
            GRAD4: (_be * _q - _be - _g - 1) * (_be + 1) / den,
        }
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
    elim = verify_grad_box_elimination() if idx == 3 else None
    return _substitution_identities(idx, elim)


def _substitution_identities(idx: int, elim: PassReport | None) -> PassReport:
    """Identity idx; (3) records `elim.passed` as its elimination cross-check."""
    d = _Derivation(f"substitution_identities_{idx}")

    if idx == 1:
        d.expr("expand_box_in_gradient_energy", eq_in_gradbox(), display_sub1())
    elif idx == 2:
        raw = ibp(eq_in_boxsq())
        intermediate = FormalExpr(
            {
                K_EQ: (_be * _q - _be - _g - 1) / _be,
                K_PLAIN: _lam * (_g + 1) / _be,
                GRADBOX: _be + 1,
            }
        )
        d.expr("after_parts_integration", raw, intermediate)
        final = raw.replace(GRADBOX, display_sub1())
        d.expr("after_first_identity", final, display_sub2())
        lam_zero = display_sub2().coefficient(K_PLAIN).substitute("lam", rf(0))
        d.identity("plain_energy_weight_vanishes_without_lam", lam_zero, rf(0))
    elif idx == 3:
        expected = FormalExpr({BOXSQ: 1 / _g, GRADBOX: rf(1), MIXHESS2: -1 / _g})
        d.expr(
            "trusted_axiom_transcription",
            mixcross_identity(),
            expected,
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
    else:
        raise DomainError(f"idx must be 1, 2 or 3, got {idx}")

    return d.finish(seed=100 + idx)


def verify_antihol_completion_bound() -> PassReport:
    """Completion of the square on the pure-type Hessian (parameter a)."""
    d = _Derivation("antihol_completion_bound")

    # |pure Hessian + a grad pair/v|^2 expanded; the two conjugate cross
    # terms are real and equal, hence the single 2a weight
    expansion = FormalExpr({ANTIHESS2: rf(1), ANTICROSS: 2 * _a, GRAD4: _a**2})
    e1 = expansion.replace(ANTICROSS, anticross_identity())
    e2 = e1.replace(ANTIHESS2, pure_hessian_upper_bound())
    d.identity(
        "upper_bound_applied_with_positive_weight",
        e1.coefficient(ANTIHESS2),
        rf(1),
        "bound usable because the pure-Hessian weight is +1",
    )
    e3 = e2.replace(MIXCROSS, mixcross_identity())
    d.expr("pre_equation_form", e3, display_pure_completion_intermediate())

    e4 = e3.replace(GRADBOX, display_sub1()).replace(BOXSQ, display_sub2())
    quad = display_completion_quadruple()
    expected = FormalExpr(
        {GRAD4: quad.A, K_EQ: quad.B, K_PLAIN: quad.C, MIXHESS2: quad.D}
    )
    d.expr("final_coefficients", e4, expected)

    # parameter-off cross-check: a = 0 must reproduce the bare combination
    bare = (
        FormalExpr({ANTIHESS2: rf(1)})
        .replace(ANTIHESS2, pure_hessian_upper_bound())
        .replace(MIXCROSS, mixcross_identity())
        .replace(GRADBOX, display_sub1())
        .replace(BOXSQ, display_sub2())
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
    d = _Derivation("midpoint_obstruction")
    quad = display_completion_quadruple()
    d.identity("mixed_energy_weight_at_midpoint", quad.B.substitute("gamma", 2 * _a), _q)
    d.identity("hessian_weight_at_midpoint", quad.D.substitute("gamma", 2 * _a), rf(0))
    # C1 - [(2 - 2a/gamma)(q-1) lam - 1] = -lam * B1, which is how the B- and
    # C-conditions combine into the displayed constraint on lam
    combined = quad.C - ((2 - 2 * _a / _g) * (_q - 1) * _lam - 1)
    d.identity("condition_combination_identity", combined, -_lam * quad.B)

    # the worked example a = 3, beta = 1, q = 2, where the midpoint form is q = 2
    pt = {name: Fraction(1) for name in VARS}
    pt.update({"a": Fraction(3), "gamma": Fraction(6), "beta": Fraction(1), "q": Fraction(2)})
    return d.finish(seed=31, worked=((pt, d.holds_at(pt)),))


def verify_mixed_completion_bound() -> PassReport:
    """Completion of the square on the mixed Hessian via the trace inequality."""
    d = _Derivation("mixed_completion_bound")
    e1 = cauchy_schwarz_defect().replace(MIXCROSS, mixcross_identity())
    d.expr("pre_equation_form", e1, display_mixed_intermediate())

    e2 = e1.replace(GRADBOX, display_sub1()).replace(BOXSQ, display_sub2())
    quad = display_mixed_quadruple()
    expected = FormalExpr(
        {GRAD4: quad.A, K_EQ: quad.B, K_PLAIN: quad.C, MIXHESS2: quad.D}
    )
    d.expr("final_coefficients", e2, expected)

    d.identity("parameter_off_quartic", quad.A.substitute("b", rf(0)), -((_be + 1) ** 2) / _n)
    d.identity("parameter_off_hessian", quad.D.substitute("b", rf(0)), rf(1))

    return d.finish(seed=47)


def _combined_base_quadruple(q1: CoefficientSet, q2: CoefficientSet) -> CoefficientSet:
    """The k-weighted combination of the completion quadruple q1 and the mixed
    quadruple q2, with the trace split applied (display form)."""
    Dc = q1.D + _k * q2.D
    A = q1.A + _k * q2.A + (Dc / _n) * (_be + 1) ** 2
    B = q1.B + _k * q2.B + (Dc / _n) * (_q - _g / _be)
    C = (
        (4 * _a - 3 * _g) / _be
        + (2 - 2 * _a / _g) * (_g / _be - 1)
        + _k * (2 * _b / _g - 1 / _n) * (_g / _be - 1)
        - (2 * _b * _k / _be) * (1 - 1 / _n)
        + (_g / _be - 1) * (Dc / _n)
    ) * _lam - 1
    return CoefficientSet(A, B, C, Dc)


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
    d = _Derivation("base_chain")

    # (i) combine, split the mixed-Hessian weight into trace-free + trace
    q1 = display_completion_quadruple()
    q2 = display_mixed_quadruple()
    pre = FormalExpr(
        {
            GRAD4: q1.A + _k * q2.A,
            K_EQ: q1.B + _k * q2.B,
            K_PLAIN: q1.C + _k * q2.C,
            MIXHESS2: q1.D + _k * q2.D,
        }
    )
    Dc = pre.coefficient(MIXHESS2)
    split = FormalExpr(
        {
            GRAD4: pre.coefficient(GRAD4),
            K_EQ: pre.coefficient(K_EQ),
            K_PLAIN: pre.coefficient(K_PLAIN),
            TRACEFREE: Dc,
            BOXSQ: Dc / _n,
        }
    ).replace(BOXSQ, display_sub2())
    comb = _combined_base_quadruple(q1, q2)
    expected = FormalExpr(
        {GRAD4: comb.A, K_EQ: comb.B, K_PLAIN: comb.C, TRACEFREE: comb.D}
    )
    d.expr("step1_combined", split, expected)

    # (ii) the b-choice forces the trace-free weight to -eps
    b_choice = ((_g * _ep / 2 + _a - _g / 2) / _k) + _g / 2
    A_b = comb.A.substitute("b", b_choice)
    B_b = comb.B.substitute("b", b_choice)
    C_b = comb.C.substitute("b", b_choice)
    d.identity("step2_tracefree_weight", comb.D.substitute("b", b_choice), -_ep)
    theta = 1 + ((_n - 1) / _n) * (_k + _ep)
    A_ii = (
        _g * (_g - 1)
        - 2 * _a * (_g - 1)
        + _a**2
        + (3 * _g - 4 * _a) * (_be + 1)
        + (_be + 1) ** 2 * theta
        + b_choice**2 * _k * (1 - 1 / _n)
        + 2 * b_choice * _k * (_be + 1) * (1 - 1 / _n)
    )
    B_ii = (3 * _g - 4 * _a) / _be + (_q - _g / _be) * theta + (
        2 * b_choice * _k / _be
    ) * (1 - 1 / _n)
    C_ii = (
        (4 * _a - 3 * _g) / _be
        + (_g / _be - 1) * theta
        - (2 * b_choice * _k / _be) * (1 - 1 / _n)
    ) * _lam - 1
    d.identity("step2_quartic_weight", A_b, A_ii)
    d.identity("step2_mixed_energy_weight", B_b, B_ii)
    d.identity("step2_plain_energy_weight", C_b, C_ii)

    # (iii) weights at gamma = 0 (continuity in gamma; the pole cancels)
    A0 = A_b.limit_var_zero("gamma")
    B0 = B_b.limit_var_zero("gamma")
    A0_disp = (
        2 * _a
        + _a**2
        + (_a**2 / _k) * ((_n - 1) / _n)
        - 2 * _a * (_be + 1) * ((_n + 1) / _n)
        + theta * (_be + 1) ** 2
    )
    B0_disp = -(2 * _a / _be) * ((_n + 1) / _n) + _q * theta
    C0_disp = ((2 * _a / _be) * ((_n + 1) / _n) - theta) * _lam - 1
    d.identity("step3_quartic_weight_at_zero", A0, A0_disp)
    d.identity("step3_mixed_energy_weight_at_zero", B0, B0_disp)
    d.identity("step3_plain_energy_weight_at_zero", C_b.limit_var_zero("gamma"), C0_disp)

    # (iv) the a-choice kills the mixed energy weight
    a_choice = _q * theta * _n * _be / (2 * (_n + 1))
    d.identity("step4_mixed_energy_killed", B0.substitute("a", a_choice), rf(0))

    # (v) quartic weight = theta * (quadratic in beta); theta > 0 is the
    # cleared factor (positive whenever k, eps >= 0)
    lead_beta = _q**2 * theta * ((_n * _k + _n - 1) * _n) / (4 * _k * (_n + 1) ** 2) - _q + 1
    quad_beta = _be**2 * lead_beta + _be * (2 - _q / (_n + 1)) + 1
    d.identity(
        "step5_quartic_factors",
        A0.substitute("a", a_choice),
        theta * quad_beta,
        note="cleared factor: 1 + ((n-1)/n)(k+eps), positive for k > 0, eps >= 0",
    )

    # (vi) discriminant of the beta-quadratic vs the displayed k-inequality;
    # cleared factor q/(k(n+1)^2), positive on the admissible region
    disc_beta = (2 - _q / (_n + 1)) ** 2 - 4 * lead_beta
    Ak = _n * (_n - 1) * _q
    Bk = _q * (2 * _n**2 + _n * (_n - 1) * _ep - 2 * _n) - 4 * _n**2 - 4 * _n
    Ck = _q * _ep * (_n - 1) ** 2 + _q * _n * (_n - 1)
    L = Ak * _k**2 + Bk * _k + Ck
    d.identity(
        "step6_discriminant_is_k_inequality",
        disc_beta * _k * (_n + 1) ** 2,
        -_q * L,
        note=(
            "cleared factor: q/(k(n+1)^2); side condition recorded: the "
            "k-quadratic's leading weight n(n-1)q is positive for n >= 2"
        ),
    )

    # (vii) k-discriminant of the inequality at eps = 0, and the eps ceiling
    delta = Bk**2 - 4 * Ak * Ck
    delta0_disp = (4 * _n**2 + 4 * _n) ** 2 - 16 * (_n**2 + _n) * _q * (_n**2 - _n)
    d.identity("step7_discriminant_at_zero_slack", delta.substitute("eps", rf(0)), delta0_disp)
    pt22 = {name: Fraction(1) for name in VARS}
    pt22.update({"n": Fraction(2), "q": Fraction(2)})
    val22 = delta0_disp.evaluate(pt22)
    d.fact("step7_sample_value", val22 == 192, str(val22), "24^2 - 16*6*2*2 = 192 at n = 2, q = 2")
    # the slack ceiling is an exact root of the eps-quadratic delta(eps)
    rad_eps = Poly.var("q") ** 2 + 4 * Poly.var("q") * Poly.var("n") * (
        Poly.var("n") + 1
    )
    eps_max = RadExpr(
        (4 * _n * (_n + 1) - 2 * _q * (_n - 1)) / (_n * (_n - 1) * _q),
        -2 * (_n - 1) / (_n * (_n - 1) * _q),
        rad_eps,
    )
    d.root(
        "step7_slack_ceiling_is_root",
        delta,
        "eps",
        eps_max,
        "delta(eps) is an upward parabola in eps; feasibility is eps <= ceiling",
    )
    d.identity(
        "step7_eps_parabola_opens_up",
        rf(delta.num.coeffs_in("eps").get(2, Poly()), delta.den),
        (_q * _n * (_n - 1)) ** 2,
        note="leading eps-weight is a square, positive on the admissible region",
    )

    # (viii) the k lower bound is a root of the zero-slack inequality, and
    # the threshold it induces equals the closed-form constant's threshold
    rad2 = (Poly.var("n") ** 2 + Poly.var("n")) ** 2 - (
        Poly.var("n") ** 2 - Poly.var("n")
    ) * Poly.var("q") * (Poly.var("n") ** 2 + Poly.var("n"))
    k_lo_big = RadExpr(
        (2 * _n**2 + 2 * _n - _q * (_n**2 - _n)) / (_n * (_n - 1) * _q),
        -2 / (_n * (_n - 1) * _q),
        rad2,
    )
    d.root("step8_lower_bound_is_root", L.substitute("eps", rf(0)), "k", k_lo_big)
    d.identity(
        "step8_radicand_rescaling",
        rf(rad2),
        _n**2 * rf(_rad_small),
        "big radicand = n^2 * small radicand; factor n > 0",
    )
    # sqrt(f^2 r) = |f| sqrt(r), so the rescaling keeps the sign of the radical
    # term only where the factor is positive
    samples = [(n, 1 + Fraction(j, 2 * (n - 1))) for n in (2, 3, 4, 7) for j in (1, 2, 3, 4)]
    base_pt = dict.fromkeys(VARS, Fraction(1))
    factor_ok = all(_n.evaluate({**base_pt, "n": Fraction(n), "q": q}) > 0 for n, q in samples)
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
        (_k * ((_n - 1) / _n) + 1) * (_q - 1) - _two_c_at(k_lo_big, _n),
        "k",
        k_lo_big,
        "reciprocals agree iff these agree; 2C written in k through "
        "sqrt(small radicand) = (k - base)/(n*coef), remainder modulo the "
        "lower bound's quadratic",
    )

    return d.finish(seed=53, extra_avoid=(Poly.var("n") + 1,))


def verify_radical_gap_monotone(
    alpha: Fraction, beta_c: Fraction, gamma_c: Fraction
) -> PassReport:
    """Numeric monotonicity check for psi(t) = alpha*t - sqrt(alpha^2 t^2 - beta_c t + gamma_c).

    Samples 1000 points of psi on (0, t_max) with
    t_max = (beta_c - sqrt(beta_c^2 - 4 alpha^2 gamma_c))/(2 alpha^2), asserts
    strict increase between consecutive samples, and checks the closed-form
    derivative is positive at each sample. This is the one sampling-based
    verifier; everything else in this module is exact.
    """
    alpha = Fraction(alpha)
    beta_c = Fraction(beta_c)
    gamma_c = Fraction(gamma_c)
    if alpha <= 0 or beta_c <= 0 or gamma_c <= 0:
        raise DomainError("alpha, beta_c, gamma_c must all be positive")
    disc = beta_c * beta_c - 4 * alpha * alpha * gamma_c
    if disc <= 0:
        raise DomainError(
            "constraint beta_c^2 > 4*alpha^2*gamma_c violated: "
            f"{beta_c}^2 <= 4*{alpha}^2*{gamma_c}"
        )
    af, bf, gf = float(alpha), float(beta_c), float(gamma_c)
    # the exact discriminant: its float twin can round below 0 when disc is tiny
    t_max = (bf - math.sqrt(float(disc))) / (2 * af * af)

    npts = 1000
    ts = [t_max * i / (npts + 1) for i in range(1, npts + 1)]
    # one square root per sample serves psi(t) = af t - root and
    # psi'(t) = af - (2 af^2 t - bf) / (2 root)
    roots = [math.sqrt(af * af * t * t - bf * t + gf) for t in ts]
    values = [af * t - root for t, root in zip(ts, roots)]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    derivative_pos = all(af - (2 * af * af * t - bf) / (2 * root) > 0 for t, root in zip(ts, roots))
    d = _Derivation("radical_gap_monotone")
    d.fact("strictly_increasing_between_samples", increasing, "a sample does not increase")
    d.fact("closed_form_derivative_positive", derivative_pos, "nonpositive at a sample")
    point = {"alpha": alpha, "beta_c": beta_c, "gamma_c": gamma_c}
    return d.finish(seed=None, worked=((point, increasing and derivative_pos),))


def verify_grad_box_elimination() -> PassReport:
    """Eliminating the gradient-box integral from the squared-box identity."""
    d = _Derivation("grad_box_elimination")

    raw = ibp(eq_in_boxsq())
    disp6 = FormalExpr(
        {
            K_EQ: (_be * _q - _be - _g - 1) / _be,
            K_PLAIN: _lam * (_g + 1) / _be,
            GRADBOX: _be + 1,
        }
    )
    d.expr("boxsq_after_parts", raw, disp6)

    # rearranged first identity: the equation-exponent energy through the rest
    keq_solved = FormalExpr(
        {GRADBOX: _be, K_PLAIN: _lam, GRAD4: -_be * (_be + 1)}
    )
    back = display_sub1().replace(K_EQ, keq_solved)
    d.expr("rearrangement_consistency", back, FormalExpr({GRADBOX: rf(1)}))

    eliminated = raw.replace(K_EQ, keq_solved)
    elim_disp = FormalExpr(
        {
            GRADBOX: _be * _q - _g,
            K_PLAIN: _lam * (_q - 1),
            GRAD4: -(_be * _q - _be - _g - 1) * (_be + 1),
        }
    )
    d.expr("after_elimination", eliminated, elim_disp)

    # solve for the gradient-box integral and compare the displayed form
    solved = display_solved_gradbox()
    # plugging the solved form into the eliminated identity must return BOXSQ
    roundtrip = elim_disp.replace(GRADBOX, solved)
    d.expr("solve_roundtrip", roundtrip, FormalExpr({BOXSQ: rf(1)}))

    # alternate derivation: solve the two substitution identities directly
    alt = display_sub2().replace(K_EQ, keq_solved)
    d.expr("alternate_derivation", alt, elim_disp)

    d.identity(
        "plain_energy_weight_vanishes_without_lam",
        solved.coefficient(K_PLAIN).substitute("lam", rf(0)),
        rf(0),
    )

    # worked instantiation from the contract: gamma=1, beta=2, q=3, lam=1/5
    pt = {name: Fraction(1) for name in VARS}
    pt.update(
        {"gamma": Fraction(1), "beta": Fraction(2), "q": Fraction(3), "lam": Fraction(1, 5)}
    )
    return d.finish(seed=61, worked=((pt, d.holds_at(pt)),))


def _refined_quadruple() -> tuple[RationalFunction, ...]:
    """Displayed weights after the gradient-box elimination (gamma form)."""
    S = 3 * _g - 4 * _a + 2 * _b * _k * (1 - 1 / _n)
    den = _be * _q - _g
    A = (
        _g * (_g - 1)
        - 2 * _a * (_g - 1)
        + _a**2
        + _b**2 * _k * (1 - 1 / _n)
        + S * (_be * _q - _be - _g - 1) * (_be + 1) / den
    )
    B = 2 - 2 * _a / _g + _k * (2 * _b / _g - 1 / _n) + S / den
    C = -(_lam * (_q - 1) * S / den + 1)
    D = 2 * _a / _g - 1 + _k * (1 - 2 * _b / _g)
    return A, B, C, D


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
    d = _Derivation("refined_chain")

    # (i) combine and eliminate
    pure = display_pure_completion_intermediate()
    mixed = display_mixed_intermediate()
    combined = pure + mixed.scale(_k)
    e1 = combined.replace(GRADBOX, display_solved_gradbox())
    A, B, C, D = _refined_quadruple()
    expected = FormalExpr({GRAD4: A, BOXSQ: B, K_PLAIN: C, MIXHESS2: D})
    d.expr("step1_combined", e1, expected)

    # (ii) zero the Hessian weight
    b_choice = (_g / 2) * (1 - 1 / _k) + _a / _k
    d.identity("step2_hessian_weight", D.substitute("b", b_choice), rf(0))
    A_b = A.substitute("b", b_choice)
    B_b = B.substitute("b", b_choice)
    C_b = C.substitute("b", b_choice)
    S_b = (3 * _g - 4 * _a + 2 * b_choice * _k * (1 - 1 / _n))
    den = _be * _q - _g
    d.identity("step2_box_weight_simplifies", B_b, 1 + (_n - 1) * _k / _n + S_b / den)

    # (iii) weights at gamma = 0
    A0 = A_b.limit_var_zero("gamma")
    B0 = B_b.limit_var_zero("gamma")
    C0 = C_b.limit_var_zero("gamma")
    A0_disp = (
        2 * _a
        + _a**2
        + (_a**2 / _k) * ((_n - 1) / _n)
        - 2 * _a * ((_n + 1) / _n) * (_be * _q - _be - 1) * (_be + 1) / (_be * _q)
    )
    B0_disp = 1 + (_n - 1) * _k / _n - (2 * _a / (_be * _q)) * ((_n + 1) / _n)
    C0_disp = (_lam * (_q - 1) / (_be * _q)) * (2 * _a * (_n + 1) / _n) - 1
    d.identity("step3_quartic_weight_at_zero", A0, A0_disp)
    d.identity("step3_box_weight_at_zero", B0, B0_disp)
    d.identity("step3_plain_energy_weight_at_zero", C0, C0_disp)

    # (iv) ratio substitution a = x*y, beta = y; cleared factor x
    y2 = _x + _x * ((_n - 1) / (_k * _n)) - 2 * ((_n + 1) / _n) + 2 * ((_n + 1) / (_q * _n))
    y1 = 2 + 2 * ((_n + 1) / (_q * _n)) - 2 * ((_q - 1) / _q) * ((_n + 1) / _n)
    y0 = 2 * ((_n + 1) / (_q * _n))
    d.identity(
        "step4_quartic_is_x_times_quadratic",
        A0.substitute("a", _x * _y).substitute("beta", _y),
        _x * (_y**2 * y2 + _y * y1 + y0),
        note="cleared factor: x = a/beta, nonzero by construction",
    )

    # (v) discriminant of the y-quadratic against the x upper bound;
    # cleared factor 8(n+1)(nk+n-1)/(q k n^2) > 0
    x_hi = (4 * _n**2 + 4 * _n + _q) * _k / (2 * (_n + 1) * (_k * _n + _n - 1))
    c_hi = 8 * (_n + 1) * (_n * _k + _n - 1) / (_q * _k * _n**2)
    d.identity(
        "step5_discriminant_linear_in_x",
        y1**2 - 4 * y2 * y0,
        c_hi * (x_hi - _x),
        note="cleared factor: 8(n+1)(nk+n-1)/(q k n^2), positive for k > 0",
    )

    # (vi) the mixed-energy condition is the x lower bound
    B0_x = B0.substitute("a", _x * _y).substitute("beta", _y)
    x_lo = (_k * _n + _n - _k) * _q / (2 * (_n + 1))
    c_lo = 2 * (_n + 1) / (_q * _n)
    d.identity(
        "step6_box_weight_linear_in_x",
        B0_x,
        c_lo * (x_lo - _x),
        note="cleared factor: 2(n+1)/(qn), positive",
    )

    # (vii) compatibility of the bounds is the k-quadratic; its roots are the
    # feasibility interval endpoints
    gap_factor = _q * _n * (_n - 1) / (2 * (_n + 1) * (_k * _n + _n - 1))
    d.identity(
        "step7_gap_is_k_quadratic",
        x_hi - x_lo,
        -gap_factor * _kq,
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
    C0_x = C0.substitute("a", _x * _y).substitute("beta", _y)
    rhs_thr = _l1 / (_q - 1) + (1 - _l1 * (1 + (_n - 1) * _k / _n)) * _q * _n / (
        2 * (_q - 1) * (_n + 1) * _x
    )
    c_combo = 2 * _x * (_n + 1) * (_q - 1) / (_q * _n)
    d.identity(
        "step8_threshold_rearrangement",
        C0_x + _l1 * B0_x,
        c_combo * (_lam - rhs_thr),
        note="cleared factor: 2x(n+1)(q-1)/(qn), positive for x > 0, q > 1",
    )

    # (ix) the threshold at the upper x-bound is the stated objective
    F_disp = (
        (1 - (_n + (_n - 1) * _k) * (_k * _n + _n - 1) * _q / ((4 * _n**2 + 4 * _n + _q) * _k))
        * _l1
        + _q * _n * (_k * _n + _n - 1) / ((4 * _n**2 + 4 * _n + _q) * _k)
    ) / (_q - 1)
    d.identity("step9_objective_recovered", rhs_thr.substitute("x", x_hi), F_disp)
    pt = {name: Fraction(1) for name in VARS}
    pt.update({"n": Fraction(2), "q": Fraction(2), "k": Fraction(1), "lam1": Fraction(1)})
    val = F_disp.evaluate(pt)
    d.fact(
        "step9_sample_value",
        val == Fraction(10, 13),
        str(val),
        "objective at n=2, q=2, k=1, spectral parameter 1",
    )

    # (x) F = alpha + beta*k + gamma/k; (xi) F' = beta - gamma/k^2 vanishes at
    # k^2 = gamma/beta = 1 - 1/lam1; (xii) gamma, read off F as lim k*F at
    # k = 0, is (1 - lam1) times a positive factor, so F'' = 2 gamma/k^3 <= 0
    A_q = 4 * _n**2 + 4 * _n + _q
    pos_factor = _q * _n * (_n - 1) / ((_q - 1) * A_q)
    f_alpha = (_l1 * (A_q - _q * (2 * _n**2 - 2 * _n + 1)) + _q * _n**2) / ((_q - 1) * A_q)
    f_beta, f_gamma = -_l1 * pos_factor, (1 - _l1) * pos_factor
    d.identity("step10_objective_split", F_disp, f_alpha + f_beta * _k + f_gamma / _k)
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

    return d.finish(
        seed=71,
        extra_avoid=(
            Poly.var("n") + 1,
            Poly.var("n") - 1,
            Poly.var("k") * Poly.var("n") + Poly.var("n") - 1,
            Poly.var("x"),
            Poly.var("q") - 1,
        ),
    )


def verify_chain_consistency() -> PassReport:
    """The two chains meet: same k-interval, same threshold, exactly.

    The zero-slack k-inequality of the base chain equals n(n-1)q times the
    monic k-quadratic of the refined chain, and the refined objective at the
    interval's lower endpoint equals the base chain's threshold (equivalently
    half the reciprocal of the closed-form constant), with the spectral
    weight vanishing at both endpoints.
    """
    d = _Derivation("chain_consistency")

    L0 = (
        _n * (_n - 1) * _q * _k**2
        + _k * (_q * (2 * _n**2 - 2 * _n) - 4 * _n**2 - 4 * _n)
        + _q * _n * (_n - 1)
    )
    d.identity(
        "same_k_quadratic",
        L0,
        _n * (_n - 1) * _q * _kq,
        note="cleared factor: n(n-1)q, positive for n >= 2, q > 0",
    )

    F_lin = (
        1 - (_n + (_n - 1) * _k) * (_k * _n + _n - 1) * _q / ((4 * _n**2 + 4 * _n + _q) * _k)
    ) / (_q - 1)
    F_const = _q * _n * (_k * _n + _n - 1) / ((_q - 1) * (4 * _n**2 + 4 * _n + _q) * _k)
    for label, endpoint in (("lower", _lo_end), ("upper", _hi_end)):
        d.root(f"spectral_weight_vanishes_at_{label}_endpoint", F_lin, "k", endpoint)

    # threshold agreement: objective at the lower endpoint vs 1/(2*C) with C
    # the closed-form constant, as F * 2C - 1 vanishing there
    d.root(
        "threshold_agreement",
        F_const * _two_c_at(_lo_end) - 1,
        "k",
        _lo_end,
        "exact, as a remainder modulo the lower endpoint's quadratic",
    )

    return d.finish(seed=83, extra_avoid=(Poly.var("n") - 1, Poly.var("q") - 1))


def run_all() -> list[PassReport]:
    """Every exact verifier, plus the two in-range monotonicity examples.

    The elimination report is computed once and also serves as identity (3)'s
    cross-check.
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
