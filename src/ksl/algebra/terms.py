"""Formal integral calculus on a positive function over a closed Kahler manifold.

A :class:`FormalTerm` names one integral of a positive smooth function v with a
weight exponent. Seven atoms carry the ambient weight gamma implicitly:

- GRAD4      quartic gradient integral, weight gamma-2
- GRADBOX    gradient energy against the complex Laplacian, weight gamma-1
- BOXSQ      squared complex Laplacian, weight gamma
- MIXHESS2   squared mixed-type Hessian, weight gamma
- ANTIHESS2  squared pure-type (anti-holomorphic) Hessian, weight gamma
- MIXCROSS   mixed Hessian contracted with the gradient pair, weight gamma-1
- ANTICROSS  pure Hessian contracted with the gradient pair, weight gamma-1

Two parametric families close the calculus under the substitution axioms:
K(p) is the gradient energy with weight p-1, and J(p) is the complex
Laplacian integrated against weight p. In this notation the two recurring
specializations are K(gamma+1) (plain gradient energy) and
K(beta+gamma-beta*q+1) (the exponent produced by the equation substitution).

The axioms encode, for v solving the transformed equation
box v = (1/beta) v^(beta+1-beta*q) - (lam/beta) v + (beta+1) |dv|^2 / v:

- eq_in_gradbox / eq_in_boxsq: substitute the equation for one box factor.
- ibp: J(p) -> -p K(p), integration by parts on the complex Laplacian.
- pure_hessian_upper_bound: the curvature-driven bound on ANTIHESS2
  (uses the Ricci lower bound; trusted, not derived here).
- anticross_identity: integration by parts moving the pure Hessian onto
  the gradient pair.
- mixcross_identity: the analogous identity for the mixed Hessian.
- cauchy_schwarz_defect: the trace inequality |hess|^2 >= (tr hess)^2 / n
  applied to the b-shifted mixed Hessian; nonnegative by construction.

Axioms are inputs: the verifiers build derivations on top of them and never
attempt to re-prove them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ring import ZERO_RF, Poly, RationalFunction, _coerce_rf, rf, v


@dataclass(frozen=True)
class FormalTerm:
    kind: str  # "atom", "K", or "J"
    name: str = ""  # atom name for kind == "atom"
    exponent: Poly | None = None  # weight parameter for K/J

    def __repr__(self) -> str:
        if self.kind == "atom":
            return self.name
        return f"{self.kind}({self.exponent!r})"


GRAD4 = FormalTerm("atom", "GRAD4")
GRADBOX = FormalTerm("atom", "GRADBOX")
BOXSQ = FormalTerm("atom", "BOXSQ")
MIXHESS2 = FormalTerm("atom", "MIXHESS2")
ANTIHESS2 = FormalTerm("atom", "ANTIHESS2")
MIXCROSS = FormalTerm("atom", "MIXCROSS")
ANTICROSS = FormalTerm("atom", "ANTICROSS")
# trace-free part of the squared mixed Hessian: MIXHESS2 - BOXSQ/n
TRACEFREE = FormalTerm("atom", "TRACEFREE")


def K(exponent: Poly) -> FormalTerm:
    return FormalTerm("K", exponent=exponent)


def J(exponent: Poly) -> FormalTerm:
    return FormalTerm("J", exponent=exponent)


_gamma = Poly.var("gamma")
_beta = Poly.var("beta")
_q = Poly.var("q")

# the two K-exponents every chain lives on
EXP_PLAIN = _gamma + 1  # plain gradient energy K(gamma+1)
EXP_EQ = _beta + _gamma - _beta * _q + 1  # from the equation's power term

K_PLAIN = K(EXP_PLAIN)
K_EQ = K(EXP_EQ)


class FormalExpr:
    """Finite linear combination of FormalTerms with rational-function weights."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[FormalTerm, RationalFunction] | None = None):
        cleaned = {}
        if coeffs:
            for term, c in coeffs.items():
                c = _coerce_rf(c)
                if not c.is_zero:
                    cleaned[term] = c
        object.__setattr__(self, "coeffs", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("FormalExpr is immutable")

    @staticmethod
    def single(term: FormalTerm, coeff=1) -> "FormalExpr":
        return FormalExpr({term: _coerce_rf(coeff)})

    def coefficient(self, term: FormalTerm) -> RationalFunction:
        return self.coeffs.get(term, ZERO_RF)

    def terms(self):
        return set(self.coeffs)

    def __add__(self, other: "FormalExpr") -> "FormalExpr":
        out = dict(self.coeffs)
        for term, c in other.coeffs.items():
            out[term] = out[term] + c if term in out else c
        return FormalExpr(out)

    def __sub__(self, other: "FormalExpr") -> "FormalExpr":
        return self + other.scale(-1)

    def scale(self, factor) -> "FormalExpr":
        """Every coefficient times factor: a RationalFunction, Poly, int or Fraction."""
        return FormalExpr({term: c * factor for term, c in self.coeffs.items()})

    def replace(self, term: FormalTerm, expansion: "FormalExpr") -> "FormalExpr":
        """Substitute term := expansion, leaving other terms alone."""
        if term not in self.coeffs:
            return self
        c = self.coeffs[term]
        rest = FormalExpr({t: w for t, w in self.coeffs.items() if t != term})
        return rest + expansion.scale(c)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = [f"({c!r})*{term!r}" for term, c in sorted(
            self.coeffs.items(), key=lambda kv: repr(kv[0])
        )]
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# axioms


def eq_in_gradbox() -> FormalExpr:
    """GRADBOX after substituting the equation for its box factor."""
    beta = v("beta")
    lam = v("lam")
    return FormalExpr(
        {
            K_EQ: 1 / beta,
            K_PLAIN: -lam / beta,
            GRAD4: beta + 1,
        }
    )


def eq_in_boxsq() -> FormalExpr:
    """BOXSQ after substituting the equation for one of the two box factors."""
    beta = v("beta")
    lam = v("lam")
    return FormalExpr(
        {
            J(_beta + _gamma + 1 - _beta * _q): 1 / beta,
            J(_gamma + 1): -lam / beta,
            GRADBOX: beta + 1,
        }
    )


def ibp(expr: FormalExpr) -> FormalExpr:
    """Integrate every J(p) by parts: J(p) -> -p*K(p)."""
    out: dict[FormalTerm, RationalFunction] = {}
    for term, c in expr.coeffs.items():
        if term.kind == "J":
            kterm = K(term.exponent)
            add = c * rf(-term.exponent)
            out[kterm] = out[kterm] + add if kterm in out else add
        else:
            out[term] = out[term] + c if term in out else c
    return FormalExpr(out)


def pure_hessian_upper_bound() -> FormalExpr:
    """Upper bound for ANTIHESS2 from the Ricci lower bound (trusted).

    ANTIHESS2 <= gamma(gamma-1) GRAD4 + gamma MIXCROSS + 2 gamma GRADBOX
                 + BOXSQ - K(gamma+1).
    """
    gamma = v("gamma")
    return FormalExpr(
        {
            GRAD4: gamma * (gamma - 1),
            MIXCROSS: gamma,
            GRADBOX: 2 * gamma,
            BOXSQ: rf(1),
            K_PLAIN: rf(-1),
        }
    )


def anticross_identity() -> FormalExpr:
    """ANTICROSS = -MIXCROSS - (gamma-1) GRAD4 - GRADBOX (integration by parts)."""
    gamma = v("gamma")
    return FormalExpr(
        {
            MIXCROSS: rf(-1),
            GRAD4: -(gamma - 1),
            GRADBOX: rf(-1),
        }
    )


def mixcross_identity() -> FormalExpr:
    """MIXCROSS = (1/gamma) BOXSQ + GRADBOX - (1/gamma) MIXHESS2."""
    gamma = v("gamma")
    return FormalExpr(
        {
            BOXSQ: 1 / gamma,
            GRADBOX: rf(1),
            MIXHESS2: -1 / gamma,
        }
    )


def cauchy_schwarz_defect() -> FormalExpr:
    """Expansion of the b-shifted trace inequality; the expression is >= 0.

    MIXHESS2 + b^2 (1 - 1/n) GRAD4 + 2b MIXCROSS - (1/n) BOXSQ
    - (2b/n) GRADBOX >= 0.
    """
    b = v("b")
    n = v("n")
    return FormalExpr(
        {
            MIXHESS2: rf(1),
            GRAD4: b * b * (1 - 1 / n),
            MIXCROSS: 2 * b,
            BOXSQ: -1 / n,
            GRADBOX: -2 * b / n,
        }
    )
