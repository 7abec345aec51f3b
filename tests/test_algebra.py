"""End-to-end checks of the derivation-chain verifiers.

Every verifier must pass with exact residuals and at least three rational
instantiation points. A few targeted identities are re-derived here by hand
so a silent change to either the displays or the engine shows up twice.
"""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

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
from ksl.algebra.checks import (
    _Derivation,
    display_completion_quadruple,
    display_mixed_quadruple,
)
from ksl.algebra.ring import VARS, RadExpr, rf, rf_equal, v
from ksl.algebra.terms import ANTIHESS2, FormalExpr
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
        # again as a denominator from the cache: that must still refuse
        with pytest.raises(ZeroDivisionError):
            checks._holds_at([(den, den), (1 / den, 1 / den)], checks._PolyValues(pt))

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
        seed = 2  # its first point avoids every excluded denominator
        first = checks._random_point(random.Random(seed))
        assert not any(p.evaluate(first) == 0 for p in checks._EXCLUDED)
        den = v("q") - rf(first["q"])
        pairs = [(v("a") / den, v("a") / den)]
        records = checks._instantiate(pairs, seed)
        assert len(records) == 3 and all(rec["agree"] for rec in records)
        assert all(rec["point"]["q"] != str(first["q"]) for rec in records)

    def test_false_identity_over_a_shared_denominator_disagrees(self):
        den = v("n") ** 2 + 1
        d = _Derivation("false_shared")
        d.identity("off_by_one_over_den", v("n") / den, (v("n") + 1) / den)
        report = d.finish(seed=5)
        [step] = report.steps
        assert not step.ok and step.residual != "0"
        assert len(report.instantiations) == 3
        assert not any(rec["agree"] for rec in report.instantiations)
        assert not report.passed


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


def test_upper_bound_step_reports_its_residual(monkeypatch):
    """A pure-Hessian weight other than +1 fails with a nonzero residual."""
    original = checks.anticross_identity
    monkeypatch.setattr(
        checks,
        "anticross_identity",
        lambda: original() + FormalExpr({ANTIHESS2: rf(1)}),
    )
    report = verify_antihol_completion_bound()
    [step] = [s for s in report.steps if s.name == "upper_bound_applied_with_positive_weight"]
    assert not step.ok
    assert step.residual != "0"
    assert not report.passed


# SHA-256 of the `algebra-verify` payload, canonical JSON; fixed when the
# verifiers were moved onto one recorder, so any change to a step name,
# residual, note, count or verdict shows up here
ALGEBRA_PAYLOAD_SHA256 = "88dd746982cb8611c7d5552c9de12cfedbc08bca9ce4dc9efd59f1cd37526ffa"


def test_algebra_payload_is_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("KSL_OUT", raising=False)
    assert run(["algebra-verify", "--out", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)["payload"]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == ALGEBRA_PAYLOAD_SHA256


class TestTargetedIdentities:
    def test_midpoint_value_is_q(self):
        quad = display_completion_quadruple()
        assert rf_equal(quad.B.substitute("gamma", 2 * v("a")), v("q"))

    def test_midpoint_kills_hessian_weight(self):
        quad = display_completion_quadruple()
        assert rf_equal(quad.D.substitute("gamma", 2 * v("a")), rf(0))

    def test_parameter_off_mixed_quadruple(self):
        quad = display_mixed_quadruple()
        n = v("n")
        beta = v("beta")
        assert rf_equal(quad.A.substitute("b", rf(0)), -((beta + 1) ** 2) / n)
        assert rf_equal(quad.D.substitute("b", rf(0)), rf(1))

    def test_lam_zero_drops_plain_energy_weights(self):
        quad1 = display_completion_quadruple()
        quad2 = display_mixed_quadruple()
        # with lam = 0 the plain-energy weights reduce to the lam-free parts
        c1 = quad1.C.substitute("lam", rf(0))
        assert rf_equal(c1, rf(-1))
        c2 = quad2.C.substitute("lam", rf(0))
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


class TestMonotonicityVerifier:
    def test_reference_triple_passes(self):
        report = verify_radical_gap_monotone(Fraction(1), Fraction(3), Fraction(1))
        assert report.passed

    def test_tight_triple_passes(self):
        report = verify_radical_gap_monotone(
            Fraction(1), Fraction(21, 10), Fraction(11, 10)
        )
        assert report.passed

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
            "strictly_increasing_between_samples",
            "closed_form_derivative_positive",
        ]


class TestBadIndex:
    def test_substitution_identities_rejects_bad_idx(self):
        with pytest.raises(DomainError):
            verify_substitution_identities(4)
