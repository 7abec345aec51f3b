"""End-to-end checks of the derivation-chain verifiers.

Every verifier must pass with exact residuals and at least three rational
instantiation points. A few targeted identities are re-derived here by hand
so a silent change to either the displays or the engine shows up twice.
"""

import hashlib
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksl.algebra import (
    run_all,
    verify_antihol_completion_bound,
    verify_base_chain,
    verify_chain_consistency,
    verify_grad_box_elimination,
    verify_midpoint_obstruction,
    verify_mixed_completion_bound,
    verify_radical_gap_monotone,
    verify_refined_chain,
    verify_substitution_identities,
)
from ksl.algebra import checks
from ksl.algebra.checks import _completion_quadruple, _Derivation, _mixed_quadruple
from ksl.algebra.ring import VARS, Poly, RadExpr, rf, rf_at_radexpr, rf_equal, v
from ksl.algebra.terms import (
    ANTIHESS2,
    GRAD4,
    GRADBOX,
    K_EQ,
    K_PLAIN,
    MIXCROSS,
    MIXHESS2,
    FormalExpr,
)
from ksl.cli import run
from ksl.errors import DomainError

ALL_EXACT = [
    lambda: verify_substitution_identities(1),
    lambda: verify_substitution_identities(2),
    lambda: verify_substitution_identities(3),
    verify_antihol_completion_bound,
    verify_midpoint_obstruction,
    verify_mixed_completion_bound,
    verify_base_chain,
    verify_grad_box_elimination,
    verify_refined_chain,
    verify_chain_consistency,
]


class TestVerifiersPass:
    @pytest.mark.parametrize("factory", ALL_EXACT, ids=lambda f: getattr(f, "__name__", "sub"))
    def test_passes(self, factory):
        report = factory()
        failed = [s.name for s in report.steps if not s.ok]
        assert report.passed, f"failed steps: {failed}"

    @pytest.mark.parametrize("factory", ALL_EXACT, ids=lambda f: getattr(f, "__name__", "sub"))
    def test_has_three_instantiations(self, factory):
        report = factory()
        assert len(report.instantiations) >= 3
        assert all(rec["agree"] for rec in report.instantiations)

    def test_every_step_records_zero_residual(self):
        for report in run_all():
            for step in report.steps:
                assert step.ok, f"{report.name}:{step.name} residual {step.residual}"

    def test_full_suite_under_budget(self):
        start = time.monotonic()
        reports = run_all()
        elapsed = time.monotonic() - start
        assert all(r.passed for r in reports)
        assert elapsed < 30.0

    def test_elimination_runs_once_per_run_all(self, monkeypatch):
        calls = []

        def counted():
            calls.append(1)
            return verify_grad_box_elimination()

        monkeypatch.setattr(checks, "verify_grad_box_elimination", counted)
        reports = run_all()
        assert len(calls) == 1
        by_name = {r.name: r for r in reports}
        cross = by_name["substitution_identities_3"].steps[-1]
        assert cross.name == "cross_check_via_elimination"
        assert cross.ok == by_name["grad_box_elimination"].passed
        # called on its own, identity (3) still runs its own cross-check
        verify_substitution_identities(3)
        assert len(calls) == 2


class TestDerivationRecorder:
    def test_false_identity_fails_and_disagrees_everywhere(self):
        d = _Derivation("false")
        d.identity("off_by_one", v("n"), v("n") + 1)
        report = d.finish(seed=5)
        [step] = report.steps
        assert not step.ok and step.residual == "-1"
        assert len(report.instantiations) == 3
        assert not any(rec["agree"] for rec in report.instantiations)
        assert not report.passed

    def test_true_identity_passes_and_agrees_everywhere(self):
        d = _Derivation("true")
        d.identity("square", (v("n") + 1) ** 2, v("n") ** 2 + 2 * v("n") + 1)
        report = d.finish(seed=5)
        assert [s.ok for s in report.steps] == [True]
        assert len(report.instantiations) == 3
        assert all(rec["agree"] for rec in report.instantiations)
        assert report.passed

    def test_sampled_identities_need_a_seed(self):
        d = _Derivation("unseeded")
        d.identity("doubling", 2 * v("n"), v("n") + v("n"))
        with pytest.raises(ValueError, match="seed"):
            d.finish(seed=None)

    def test_facts_alone_need_no_seed(self):
        d = _Derivation("facts_only")
        d.fact("recorded", True, "never shown")
        report = d.finish(seed=None)
        assert report.passed and report.instantiations == []

    def test_worked_point_records_its_verdict(self):
        d = _Derivation("worked")
        d.identity("doubling", 2 * v("n"), v("n") + v("n"))
        pt = dict.fromkeys(VARS, Fraction(2))
        report = d.finish(seed=5, worked=((pt, d.holds_at(pt)),))
        assert len(report.instantiations) == 4
        assert report.instantiations[-1] == {
            "point": dict.fromkeys(VARS, "2"),
            "agree": True,
        }


class TestSampling:
    """Each distinct Poly is evaluated once per point; verdicts and points unchanged."""

    def test_vanishing_denominator_raises_through_the_cache(self):
        den = v("q") - 1
        pt = dict.fromkeys(VARS, Fraction(1))
        # den is first evaluated as a numerator (0 == 0 agrees), then met
        # again as a denominator from the cache: that must still refuse, and
        # so must a pair whose two sides are equal, which reads only its
        # denominator
        with pytest.raises(ZeroDivisionError):
            checks._holds_at([(den, 2 * den / 2), (1 / den, 1 / den)], checks._PolyValues(pt))

    @pytest.mark.parametrize(
        "side", ["lhs", "rhs"], ids=["lhs_only", "rhs_only"]
    )
    def test_vanishing_denominator_raises_on_one_side(self, side):
        # the other side's denominator, q + 1, is 2 at the point
        pt = dict.fromkeys(VARS, Fraction(1))
        vanishing, regular = v("a") / (v("q") - 1), v("a") / (v("q") + 1)
        pair = (vanishing, regular) if side == "lhs" else (regular, vanishing)
        with pytest.raises(ZeroDivisionError, match=side):
            checks._holds_at([pair], checks._PolyValues(pt))

    def test_first_disagreement_ends_the_test(self):
        # as the Fraction comparison did: a later vanishing denominator is
        # never reached once an earlier pair disagrees
        pt = dict.fromkeys(VARS, Fraction(1))
        pairs = [(v("n"), v("n") + 1), (1 / (v("q") - 1), rf(0))]
        assert checks._holds_at(pairs, checks._PolyValues(pt)) is False

    def test_instantiate_resamples_where_a_denominator_vanishes(self):
        seed = 2
        first = checks._random_point(random.Random(seed))
        den = v("q") - rf(first["q"])
        pairs = [(v("a") / den, v("a") / den)]
        records = checks._instantiate(pairs, seed)
        assert len(records) == 3 and all(rec["agree"] for rec in records)
        assert all(rec["point"]["q"] != str(first["q"]) for rec in records)

    def test_instantiate_samples_where_both_sides_are_defined(self):
        # beta = 0 at this seed's first point; both sides are defined there,
        # so it is the first sample: only a vanishing denominator rejects one
        seed = 19
        first = checks._random_point(random.Random(seed))
        assert first["beta"] == 0
        pairs = [(v("beta") * v("a"), v("a") * v("beta"))]
        records = checks._instantiate(pairs, seed)
        assert records[0] == checks._record(first, True)
        assert len(records) == 3 and all(rec["agree"] for rec in records)

    def test_false_identity_over_a_shared_denominator_disagrees(self):
        den = v("n") ** 2 + 1
        d = _Derivation("false_shared")
        d.identity("off_by_one_over_den", v("n") / den, (v("n") + 1) / den)
        report = d.finish(seed=5)
        [step] = report.steps
        assert not step.ok and step.residual == "-1"
        assert len(report.instantiations) == 3
        assert not any(rec["agree"] for rec in report.instantiations)
        assert not report.passed

    def test_false_identity_over_two_denominators_reports_the_cross_difference(self):
        lhs, rhs = v("n") / (v("q") + 1), (v("n") + 1) / (v("q") - 1)
        d = _Derivation("false_cross")
        d.identity("off_over_two_dens", lhs, rhs)
        [step] = d.finish(seed=5).steps
        assert not step.ok
        assert step.residual == repr(lhs.num * rhs.den - rhs.num * lhs.den)

    def test_tautology_before_a_false_pair_still_disagrees(self):
        # a pair with two equal sides reads only its denominator; the false
        # pair after it must still decide every point
        same = v("n") / (v("q") + 1)
        d = _Derivation("tautology_then_false")
        d.identity("tautology", same, same)
        d.identity("off_by_one", v("n"), v("n") + 1)
        report = d.finish(seed=5)
        assert [s.ok for s in report.steps] == [True, False]
        assert len(report.instantiations) == 3
        assert not any(rec["agree"] for rec in report.instantiations)
        assert not report.passed


class TestClearedQuadratic:
    """Each RadExpr clears its quadratic once; rf_at_radexpr reads it."""

    RAD = Poly.var("q") ** 2 + 1

    def test_unshared_denominators_raise_on_every_call(self):
        root = RadExpr(v("n"), rf(1, 2), self.RAD)
        quad = v("k") ** 2 - 2 * v("n") * v("k") + v("n") ** 2 - rf(self.RAD) / 4
        for _ in range(3):
            with pytest.raises(DomainError, match="share one denominator"):
                rf_at_radexpr(quad, "k", root)

    @pytest.mark.parametrize("endpoint", ["_lo_end", "_hi_end", "_k_lo_big"])
    def test_reused_root_gives_the_remainders_of_a_fresh_one(self, endpoint):
        root = getattr(checks, endpoint)
        exprs = [checks._kq, checks._objective[0], checks._objective[1] / (v("k") + 1)]
        reused = [rf_at_radexpr(e, "k", root) for e in exprs + exprs]
        fresh = [
            rf_at_radexpr(e, "k", RadExpr(root.base, root.coef, root.rad)) for e in exprs
        ]
        as_polys = [(num.num, num.den, den.num, den.den) for num, den in reused]
        assert as_polys == [(num.num, num.den, den.num, den.den) for num, den in fresh * 2]


# what run_all() reports: names, verdicts, step and instantiation counts, and
# the SHA-256 of every sampled point with its verdict; a change to the ring's
# representation or to the sampling must leave all of them as they are
RUN_ALL_PIN = [
    ("substitution_identities_1", True, 3, 3),
    ("substitution_identities_2", True, 7, 3),
    ("substitution_identities_3", True, 4, 3),
    ("antihol_completion_bound", True, 14, 3),
    ("midpoint_obstruction", True, 3, 4),
    ("mixed_completion_bound", True, 10, 3),
    ("base_chain", True, 22, 3),
    ("grad_box_elimination", True, 12, 4),
    ("refined_chain", True, 22, 3),
    ("chain_consistency", True, 4, 3),
    ("radical_gap_monotone", True, 2, 1),
    ("radical_gap_monotone", True, 2, 1),
]
INSTANTIATIONS_SHA256 = "a0c727d67a2e98a23964db606dad09d73351d7045d1b6a6a9bd7e1ccf7bcf64e"


def test_run_all_is_pinned():
    reports = run_all()
    assert [
        (r.name, r.passed, len(r.steps), len(r.instantiations)) for r in reports
    ] == RUN_ALL_PIN
    # every step passes, so every residual is the literal "0"
    assert [s.residual for r in reports for s in r.steps] == ["0"] * 105
    points = json.dumps([r.instantiations for r in reports], sort_keys=True)
    assert hashlib.sha256(points.encode()).hexdigest() == INSTANTIATIONS_SHA256


def test_sampled_polys_do_not_swell(monkeypatch):
    # every Poly that run_all evaluates at a sample point, by term count:
    # substitution and surd remainders keep one power of one denominator,
    # where Horner in RationalFunction arithmetic sampled 4,626 terms, and a
    # pair with two equal sides reads only its denominator, where sampling
    # both sides read 3,535
    terms = 0
    missing = checks._PolyValues.__missing__

    def counting(self, poly):
        nonlocal terms
        terms += len(poly.terms)
        return missing(self, poly)

    monkeypatch.setattr(checks._PolyValues, "__missing__", counting)
    run_all()
    assert terms <= 2900


def test_displays_are_not_rebuilt_per_run(monkeypatch):
    # Poly products in one run_all: the transcribed displays and parameter
    # choices are built once at import, so a run multiplies only for its
    # derivation steps (773; 1,339 when the chains rebuilt their displays)
    products = 0
    mul = Poly.__mul__

    def counting(self, other):
        nonlocal products
        products += 1
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    run_all()
    assert products <= 800


def test_upper_bound_step_reports_its_residual(monkeypatch):
    """A pure-Hessian weight other than +1 fails with a nonzero residual."""
    moved = checks.ANTICROSS_IDENTITY + FormalExpr({ANTIHESS2: rf(1)})
    monkeypatch.setattr(checks, "ANTICROSS_IDENTITY", moved)
    report = verify_antihol_completion_bound()
    [step] = [s for s in report.steps if s.name == "upper_bound_applied_with_positive_weight"]
    assert not step.ok
    assert step.residual != "0"
    assert not report.passed


_gamma = v("gamma")
_ANTIHOL = {"antihol_completion_bound"}
_SUB3 = "substitution_identities_3"


class TestAxiomMutations:
    """One coefficient of one axiom changed: exactly the reports that replay
    that axiom fail. The later chains start from transcribed displays, not
    from the axioms, so they keep passing."""

    @pytest.mark.parametrize(
        "axiom, term, weight, failing",
        [
            # the Ricci bound's weights on K(gamma+1), GRAD4, GRADBOX and MIXCROSS
            ("PURE_HESSIAN_UPPER_BOUND", K_PLAIN, rf(Fraction(-1, 2)), _ANTIHOL),
            ("PURE_HESSIAN_UPPER_BOUND", GRAD4, _gamma**2, _ANTIHOL),
            ("PURE_HESSIAN_UPPER_BOUND", GRADBOX, _gamma, _ANTIHOL),
            ("PURE_HESSIAN_UPPER_BOUND", MIXCROSS, _gamma + 1, _ANTIHOL),
            # one weight doubled in each of the other axioms
            ("EQ_IN_GRADBOX", GRAD4, 2 * (v("beta") + 1), {"substitution_identities_1"}),
            (
                "EQ_IN_BOXSQ",
                GRADBOX,
                2 * (v("beta") + 1),
                {"substitution_identities_2", _SUB3, "grad_box_elimination"},
            ),
            ("ANTICROSS_IDENTITY", GRAD4, -2 * (_gamma - 1), _ANTIHOL),
            ("MIXCROSS_IDENTITY", GRADBOX, rf(2), {_SUB3, *_ANTIHOL, "mixed_completion_bound"}),
            ("CAUCHY_SCHWARZ_DEFECT", MIXCROSS, 4 * v("b"), {"mixed_completion_bound"}),
        ],
        ids=[
            "ricci_plain_energy", "ricci_quartic", "ricci_grad_box", "ricci_mixcross",
            "eq_in_gradbox", "eq_in_boxsq", "anticross", "mixcross", "cauchy_schwarz",
        ],
    )
    def test_failing_reports(self, monkeypatch, axiom, term, weight, failing):
        original = getattr(checks, axiom)
        assert not rf_equal(original.coefficient(term), weight)
        monkeypatch.setattr(checks, axiom, FormalExpr({**original.coeffs, term: weight}))
        assert {r.name for r in run_all() if not r.passed} == failing


class TestSharedConstantsAreReadOnly:
    """The axioms and displays are module constants shared by every verifier,
    so a write into one would change every later report."""

    def test_formal_expr_coeffs(self):
        with pytest.raises(TypeError):
            checks.EQ_IN_GRADBOX.coeffs[GRAD4] = rf(7)
        assert all(r.passed for r in run_all())

    def test_poly_terms(self):
        poly = checks.EQ_IN_GRADBOX.coefficient(GRAD4).num
        before = dict(poly.terms)
        # the constant monomial packs to 0
        assert 0 in before
        with pytest.raises(TypeError):
            poly.terms[0] = 7
        # CPython refuses a key wider than an index with IndexError instead
        for monomial in before:
            with pytest.raises((TypeError, IndexError)):
                poly.terms[monomial] = 7
        assert dict(poly.terms) == before


# SHA-256 of the `algebra-verify` payload, canonical JSON; fixed when the
# verifiers were moved onto one recorder, and moved only in the radical-gap
# rows when that lemma became an exact proof, so any change to a step name,
# residual, note, count or verdict shows up here
ALGEBRA_PAYLOAD_SHA256 = "b38c652fe826b0a6abfd4e9420e2032e876bca1c3d75b64400b78a52a172575d"


def test_algebra_payload_is_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("KSL_OUT", raising=False)
    assert run(["algebra-verify", "--out", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == ALGEBRA_PAYLOAD_SHA256


class TestTargetedIdentities:
    def test_midpoint_value_is_q(self):
        quad = _completion_quadruple
        assert rf_equal(quad.coefficient(K_EQ).substitute("gamma", 2 * v("a")), v("q"))

    def test_midpoint_kills_hessian_weight(self):
        quad = _completion_quadruple
        assert rf_equal(quad.coefficient(MIXHESS2).substitute("gamma", 2 * v("a")), rf(0))

    def test_parameter_off_mixed_quadruple(self):
        quad = _mixed_quadruple
        n = v("n")
        beta = v("beta")
        assert rf_equal(quad.coefficient(GRAD4).substitute("b", rf(0)), -((beta + 1) ** 2) / n)
        assert rf_equal(quad.coefficient(MIXHESS2).substitute("b", rf(0)), rf(1))

    def test_lam_zero_drops_plain_energy_weights(self):
        quad1 = _completion_quadruple
        quad2 = _mixed_quadruple
        # with lam = 0 the plain-energy weights reduce to the lam-free parts
        c1 = quad1.coefficient(K_PLAIN).substitute("lam", rf(0))
        assert rf_equal(c1, rf(-1))
        c2 = quad2.coefficient(K_PLAIN).substitute("lam", rf(0))
        assert rf_equal(c2, rf(0))

    def test_feasibility_quadratic_at_reference_point(self):
        # k^2 - 4k + 1 at n = 2, q = 2; roots 2 +- sqrt(3)
        kq = v("k") ** 2 + (2 - 4 * (v("n") + 1) / ((v("n") - 1) * v("q"))) * v("k") + 1
        pt = {name: Fraction(1) for name in VARS}
        pt.update({"n": Fraction(2), "q": Fraction(2)})
        coefs = [kq.substitute("k", rf(c)).evaluate(pt) for c in (0, 1, 2)]
        # interpolate: p(k) = c2 k^2 + c1 k + c0
        c0 = coefs[0]
        c2 = (coefs[2] - 2 * coefs[1] + coefs[0]) / 2
        c1 = coefs[1] - c0 - c2
        assert (c2, c1, c0) == (1, -4, 1)

    def test_objective_reference_value(self):
        report = verify_refined_chain()
        sample = [s for s in report.steps if s.name == "step9_sample_value"]
        assert len(sample) == 1 and sample[0].ok

    def test_discriminant_reference_value(self):
        report = verify_base_chain()
        sample = [s for s in report.steps if s.name == "step7_sample_value"]
        assert len(sample) == 1 and sample[0].ok

    def test_threshold_identity_present_and_exact(self):
        report = verify_base_chain()
        thr = [s for s in report.steps if s.name == "step8_threshold_identity"]
        assert len(thr) == 1 and thr[0].ok

    def test_chain_consistency_threshold_agreement(self):
        report = verify_chain_consistency()
        agree = [s for s in report.steps if s.name == "threshold_agreement"]
        assert len(agree) == 1 and agree[0].ok


class TestPerturbedEndpoint:
    """A lower endpoint with its radical weight scaled by 1001/1000 is no root."""

    @pytest.fixture(autouse=True)
    def perturb(self, monkeypatch):
        end = checks._lo_end
        moved = RadExpr(end.base, end.coef * Fraction(1001, 1000), end.rad)
        monkeypatch.setattr(checks, "_lo_end", moved)

    @pytest.mark.parametrize(
        "verifier, step",
        [
            (verify_refined_chain, "step7_lower_endpoint_is_root"),
            (verify_chain_consistency, "spectral_weight_vanishes_at_lower_endpoint"),
            (verify_chain_consistency, "threshold_agreement"),
        ],
        ids=["endpoint_is_root", "spectral_weight", "threshold_agreement"],
    )
    def test_step_fails(self, verifier, step):
        report = verifier()
        [check] = [s for s in report.steps if s.name == step]
        assert not check.ok
        assert check.residual != "0"
        assert not report.passed


def _scaled(value, factor):
    return value.scale(factor) if isinstance(value, FormalExpr) else value * factor


class TestPerturbedDisplay:
    """A display built once at import, scaled by 1001/1000, is read at call
    time: exactly the steps that compare against it fail."""

    @pytest.mark.parametrize(
        "verifier, name, index, failing",
        [
            (
                lambda: verify_substitution_identities(3),
                "_mixcross_transcribed",
                None,
                [
                    "trusted_axiom_transcription[BOXSQ]",
                    "trusted_axiom_transcription[GRADBOX]",
                    "trusted_axiom_transcription[MIXHESS2]",
                ],
            ),
            (
                verify_antihol_completion_bound,
                "_antihol_bare",
                None,
                [f"parameter_off[{t!r}]" for t in (GRAD4, K_EQ, K_PLAIN, MIXHESS2)],
            ),
            (
                verify_midpoint_obstruction,
                "_midpoint_plain_shift",
                None,
                ["condition_combination_identity"],
            ),
            (
                verify_mixed_completion_bound,
                "_mixed_quartic_at_b_zero",
                None,
                ["parameter_off_quartic"],
            ),
            (verify_base_chain, "_base_step2_weights", 0, ["step2_quartic_weight"]),
            (verify_grad_box_elimination, "_boxsq_alone", None, ["solve_roundtrip[BOXSQ]"]),
            (
                verify_refined_chain,
                "_x_upper",
                None,
                [
                    "step5_discriminant_linear_in_x",
                    "step7_gap_is_k_quadratic",
                    "step9_objective_recovered",
                ],
            ),
        ],
        ids=["sub3", "antihol", "midpoint", "mixed", "base", "elimination", "refined"],
    )
    def test_only_its_steps_fail(self, monkeypatch, verifier, name, index, failing):
        value = getattr(checks, name)
        factor = Fraction(1001, 1000)
        if index is None:
            moved = _scaled(value, factor)
        else:
            moved = tuple(_scaled(w, factor) if i == index else w for i, w in enumerate(value))
        monkeypatch.setattr(checks, name, moved)
        report = verifier()
        failed = [s for s in report.steps if not s.ok]
        assert [s.name for s in failed] == failing
        assert all(s.residual != "0" for s in failed)
        assert not report.passed


class TestFailClosed:
    """A display with its K_EQ and K_PLAIN weights swapped makes the base
    chain's gamma = 0 limit raise; that fails the base chain's own report."""

    @pytest.fixture
    def swapped(self, monkeypatch):
        quad = _completion_quadruple
        swap = {K_EQ: K_PLAIN, K_PLAIN: K_EQ}
        moved = FormalExpr({swap.get(t, t): quad.coefficient(t) for t in quad.terms()})
        monkeypatch.setattr(checks, "_completion_quadruple", moved)

    def test_run_all_keeps_every_report(self, swapped):
        reports = run_all()
        assert len(reports) == 12
        [base] = [r for r in reports if r.name == "base_chain"]
        assert not base.passed
        *before, last = base.steps
        assert last.name == "domain_error" and not last.ok
        assert last.residual == "limit at gamma = 0 does not exist"
        # the eight steps recorded before the error keep their verdicts, and
        # their identities, two of them false, are still sampled
        assert len(before) == 8
        assert [s.name for s in before if not s.ok] == [
            "step1_combined[K(gamma + 1)]",
            "step2_mixed_energy_weight",
        ]
        assert len(base.instantiations) == 3
        assert not any(rec["agree"] for rec in base.instantiations)
        verdicts = {r.name: r.passed for r in reports}
        assert not verdicts["antihol_completion_bound"]
        assert not verdicts["midpoint_obstruction"]
        assert verdicts["refined_chain"] and verdicts["chain_consistency"]

    def test_algebra_verify_reports_every_row(self, swapped, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("KSL_OUT", raising=False)
        assert run(["algebra-verify", "--out", str(tmp_path)]) == 1
        payload = json.loads(capsys.readouterr().out)["payload"]
        assert not any(key.startswith("algebra-verify.") for key in payload)
        assert payload["algebra.base_chain.status"] == "fail"
        assert payload["algebra.base_chain.domain_error.status"] == "fail"
        assert payload["algebra.chain_consistency.status"] == "pass"
        assert sum(key.count(".") == 2 and key.endswith(".status") for key in payload) == 12


def _assert_proved(alpha, beta_c, gamma_c):
    assert beta_c**2 > 4 * alpha**2 * gamma_c
    report = verify_radical_gap_monotone(alpha, beta_c, gamma_c)
    assert report.passed
    assert [s.ok for s in report.steps] == [True, True]
    [record] = report.instantiations
    assert record == {
        "point": {"alpha": str(alpha), "beta_c": str(beta_c), "gamma_c": str(gamma_c)},
        "agree": True,
    }


class TestMonotonicityVerifier:
    def test_reference_triple_passes(self):
        _assert_proved(Fraction(1), Fraction(3), Fraction(1))

    def test_tight_triple_passes(self):
        _assert_proved(Fraction(1), Fraction(21, 10), Fraction(11, 10))

    @pytest.mark.parametrize(
        "alpha, beta_c, gamma_c",
        [
            (Fraction(1, 10**10), Fraction(1), Fraction(1)),
            (Fraction(1), Fraction(10**200), Fraction(1)),
        ],
        ids=["small_root_cancels", "discriminant_overflows"],
    )
    def test_representable_extremes_pass(self, alpha, beta_c, gamma_c):
        # the docstring's t_max = (beta_c - sqrt(disc))/(2 alpha^2) cancels to
        # 0 in floats at the first triple; disc overflows the floats at the second
        _assert_proved(alpha, beta_c, gamma_c)

    def test_degenerate_triple_rejected(self):
        with pytest.raises(DomainError):
            verify_radical_gap_monotone(Fraction(1), Fraction(2), Fraction(2))

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(DomainError):
            verify_radical_gap_monotone(Fraction(0), Fraction(3), Fraction(1))

    def test_discriminant_rounding_to_negative_in_floats(self):
        # beta_c^2 - 4 alpha^2 gamma_c = 4e-20 + 1e-40 > 0 exactly, but the
        # same expression in floats rounds below 0
        alpha, beta_c, gamma_c = Fraction(1, 10), Fraction(2 * 10**20 + 1, 10**20), Fraction(100)
        af, bf, gf = float(alpha), float(beta_c), float(gamma_c)
        assert bf * bf - 4 * af * af * gf < 0
        report = verify_radical_gap_monotone(alpha, beta_c, gamma_c)
        assert report.passed
        assert [s.name for s in report.steps] == [
            "t_max_is_root_of_radicand",
            "t_max_is_smaller_root",
        ]

    @pytest.mark.parametrize(
        "alpha, beta_c, gamma_c",
        [
            (True, 3, 1),
            (1, True, Fraction(1, 4)),
            (0.1, 3, 1),
            (Fraction(1), 3.0, Fraction(1)),
            ("1", "3", "1"),
            (1, 3, "1/2"),
        ],
        ids=["bool_alpha", "bool_beta", "float_alpha", "float_beta", "str_triple", "str_gamma"],
    )
    def test_non_rational_inputs_rejected(self, alpha, beta_c, gamma_c):
        # Fraction() would take each as 1, its binary value or its parsed value
        with pytest.raises(DomainError, match="must be ints or Fractions"):
            verify_radical_gap_monotone(alpha, beta_c, gamma_c)


def _near_zero_discriminant(alpha: Fraction, gamma_c: Fraction, digits: int) -> Fraction:
    # beta_c just above 2 alpha sqrt(gamma_c): disc / beta_c^2 about 10^-digits
    target = 4 * alpha**2 * gamma_c * (1 + Fraction(1, 10**digits))
    return Fraction(math.isqrt(target.numerator * 10**80 // target.denominator) + 1, 10**40)


# positive rationals from 10^-200 to 10^206, and shares in (0, 1) down to 10^-40
_positive = st.builds(
    lambda m, e: m * Fraction(10) ** e, st.integers(1, 10**6), st.integers(-200, 200)
)
_share = st.integers(1, 40).flatmap(
    lambda d: st.integers(1, 10**d - 1).map(lambda m: Fraction(m, 10**d))
)


class TestRadicalGapProof:
    """The lemma is proved exactly at every admissible rational triple."""

    @pytest.mark.parametrize(
        "alpha, beta_c, gamma_c",
        [
            (Fraction(1), Fraction(3), Fraction(1)),
            (Fraction(1), Fraction(21, 10), Fraction(11, 10)),
            # t_max = (beta_c - sqrt(disc))/(2 alpha^2) cancels to 0 in floats
            (Fraction(1, 10**10), Fraction(1), Fraction(1)),
            # disc overflows the floats
            (Fraction(1), Fraction(10**200), Fraction(1)),
            (Fraction(1, 10), Fraction(2 * 10**20 + 1, 10**20), Fraction(100)),
            (Fraction(1), _near_zero_discriminant(Fraction(1), Fraction(1), 30), Fraction(1)),
            (Fraction(5), _near_zero_discriminant(Fraction(5), Fraction(1, 9), 14), Fraction(1, 9)),
            # alpha^2, beta_c or t_max outside the positive normal floats
            (Fraction(1, 10**200), Fraction(3), Fraction(1)),
            (Fraction(10**200), Fraction(10**401), Fraction(1)),
            (Fraction(1), Fraction(10**400), Fraction(1)),
            (Fraction(1, 10**160), Fraction(1, 10**160), Fraction(1, 10**170)),
            # disc = 10^-40 exactly
            (Fraction(1), Fraction(2), 1 - Fraction(1, 4 * 10**40)),
            (Fraction(1, 3), Fraction(7, 5), (Fraction(49, 25) - Fraction(1, 10**40)) * Fraction(9, 4)),
            # plain ints are rationals too
            (1, 3, 1),
        ],
        ids=[
            "reference", "tight", "small_root_cancels", "discriminant_overflows",
            "discriminant_rounds_negative", "near_zero_discriminant", "near_zero_scaled",
            "alpha_sq_underflows", "beta_overflows", "beta_overflows_alpha_1",
            "alpha_sq_subnormal", "disc_1e-40", "disc_1e-40_scaled", "int_triple",
        ],
    )
    def test_triple_passes(self, alpha, beta_c, gamma_c):
        _assert_proved(alpha, beta_c, gamma_c)

    @given(_positive, _positive, _share)
    @settings(max_examples=60, deadline=None)
    def test_every_admissible_triple_passes(self, alpha, beta_c, share):
        # gamma_c = (1 - share) beta_c^2 / (4 alpha^2), so disc = share * beta_c^2 > 0
        gamma_c = (1 - share) * beta_c**2 / (4 * alpha**2)
        assert beta_c**2 - 4 * alpha**2 * gamma_c == share * beta_c**2
        assert verify_radical_gap_monotone(alpha, beta_c, gamma_c).passed

    def test_conjugate_root_fails_the_smaller_root_step(self, monkeypatch):
        # t_max with +sqrt(disc) is still a root of the radicand, but the larger one
        monkeypatch.setattr(checks, "RadExpr", lambda base, coef, rad: RadExpr(base, -coef, rad))
        report = verify_radical_gap_monotone(Fraction(1), Fraction(3), Fraction(1))
        assert [(s.name, s.ok) for s in report.steps] == [
            ("t_max_is_root_of_radicand", True),
            ("t_max_is_smaller_root", False),
        ]
        assert report.steps[1].residual == "(0) + (-1)*sqrt(5)"
        assert not report.passed and not report.instantiations[0]["agree"]

    def test_wrong_radicand_fails_the_root_step(self, monkeypatch):
        # sqrt(beta_c^2 - 2 alpha^2 gamma_c) = sqrt(7) in place of sqrt(5)
        monkeypatch.setattr(
            checks, "RadExpr", lambda base, coef, rad: RadExpr(base, coef, rad + 2)
        )
        report = verify_radical_gap_monotone(Fraction(1), Fraction(3), Fraction(1))
        assert [(s.name, s.ok) for s in report.steps] == [
            ("t_max_is_root_of_radicand", False),
            ("t_max_is_smaller_root", True),
        ]
        assert not report.passed


class TestBadIndex:
    def test_substitution_identities_rejects_bad_idx(self):
        # all but 4 equal a valid index, so `idx in (1, 2, 3)` alone lets them through
        for idx in (4, True, 1.0, 2.0, 3.0, Fraction(2)):
            with pytest.raises(DomainError, match="the int 1, 2 or 3"):
                verify_substitution_identities(idx)
