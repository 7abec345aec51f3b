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
box v = (1/beta) v^(beta+1-beta*q) - (lam/beta) v + (beta+1) |dv|^2 / v.
Each is a module constant, built once at import:

- EQ_IN_GRADBOX / EQ_IN_BOXSQ: substitute the equation for one box factor.
- PURE_HESSIAN_UPPER_BOUND: the curvature-driven bound on ANTIHESS2
  (uses the Ricci lower bound; trusted, not derived here).
- ANTICROSS_IDENTITY: integration by parts moving the pure Hessian onto
  the gradient pair.
- MIXCROSS_IDENTITY: the analogous identity for the mixed Hessian.
- CAUCHY_SCHWARZ_DEFECT: the trace inequality |hess|^2 >= (tr hess)^2 / n
  applied to the b-shifted mixed Hessian; nonnegative by construction.

The calculus's one operation is the function ibp: J(p) -> -p K(p),
integration by parts on the complex Laplacian.

Axioms are inputs: the verifiers build derivations on top of them and never
attempt to re-prove them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from .ring import ZERO_RF, Poly, RationalFunction, _coerce_rf, rf, v


@dataclass(frozen=True)
class FormalTerm:
    """One integral: an atom, or a member of the K or J family.

    Equality and hashing read ``name`` and ``exponent`` alone. ``label``, the
    ``repr`` that steps are sorted and named by, is built once here.
    """

    name: str  # an atom's name, or the family "K" or "J"
    exponent: Poly | None = None  # weight parameter of a K/J term; None for an atom
    label: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        label = self.name if self.exponent is None else f"{self.name}({self.exponent!r})"
        object.__setattr__(self, "label", label)

    def __repr__(self) -> str:
        return self.label


GRAD4 = FormalTerm("GRAD4")
GRADBOX = FormalTerm("GRADBOX")
BOXSQ = FormalTerm("BOXSQ")
MIXHESS2 = FormalTerm("MIXHESS2")
ANTIHESS2 = FormalTerm("ANTIHESS2")
MIXCROSS = FormalTerm("MIXCROSS")
ANTICROSS = FormalTerm("ANTICROSS")
# trace-free part of the squared mixed Hessian: MIXHESS2 - BOXSQ/n
TRACEFREE = FormalTerm("TRACEFREE")


def K(exponent: Poly) -> FormalTerm:
    return FormalTerm("K", exponent)


def J(exponent: Poly) -> FormalTerm:
    return FormalTerm("J", exponent)


_gamma = Poly.var("gamma")
_beta = Poly.var("beta")
_q = Poly.var("q")

# the two K-exponents every chain lives on
EXP_PLAIN = _gamma + 1  # plain gradient energy K(gamma+1)
EXP_EQ = _beta + _gamma - _beta * _q + 1  # from the equation's power term

K_PLAIN = K(EXP_PLAIN)
K_EQ = K(EXP_EQ)


class FormalExpr:
    """Finite linear combination of FormalTerms with rational-function weights.

    ``coeffs`` is a read-only map, so a shared constant cannot be changed in
    place.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[FormalTerm, RationalFunction] | None = None):
        cleaned = {}
        if coeffs:
            for term, c in coeffs.items():
                c = _coerce_rf(c)
                if not c.is_zero:
                    cleaned[term] = c
        object.__setattr__(self, "coeffs", MappingProxyType(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError("FormalExpr is immutable")

    def coefficient(self, term: FormalTerm) -> RationalFunction:
        return self.coeffs.get(term, ZERO_RF)

    def terms(self):
        return set(self.coeffs)

    def __add__(self, other: "FormalExpr") -> "FormalExpr":
        out = dict(self.coeffs)
        for term, c in other.coeffs.items():
            out[term] = out[term] + c if term in out else c
        return FormalExpr(out)

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
            self.coeffs.items(), key=lambda kv: kv[0].label
        )]
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# axioms

_g = v("gamma")
_be = v("beta")
_lam = v("lam")
_b = v("b")
_n = v("n")

# GRADBOX after substituting the equation for its box factor
EQ_IN_GRADBOX = FormalExpr({K_EQ: 1 / _be, K_PLAIN: -_lam / _be, GRAD4: _be + 1})

# BOXSQ after substituting the equation for one of the two box factors
EQ_IN_BOXSQ = FormalExpr(
    {
        J(_beta + _gamma + 1 - _beta * _q): 1 / _be,
        J(_gamma + 1): -_lam / _be,
        GRADBOX: _be + 1,
    }
)

# upper bound for ANTIHESS2 from the Ricci lower bound (trusted):
# ANTIHESS2 <= gamma(gamma-1) GRAD4 + gamma MIXCROSS + 2 gamma GRADBOX
#              + BOXSQ - K(gamma+1)
PURE_HESSIAN_UPPER_BOUND = FormalExpr(
    {
        GRAD4: _g * (_g - 1),
        MIXCROSS: _g,
        GRADBOX: 2 * _g,
        BOXSQ: rf(1),
        K_PLAIN: rf(-1),
    }
)

# ANTICROSS = -MIXCROSS - (gamma-1) GRAD4 - GRADBOX (integration by parts)
ANTICROSS_IDENTITY = FormalExpr({MIXCROSS: rf(-1), GRAD4: -(_g - 1), GRADBOX: rf(-1)})

# MIXCROSS = (1/gamma) BOXSQ + GRADBOX - (1/gamma) MIXHESS2
MIXCROSS_IDENTITY = FormalExpr({BOXSQ: 1 / _g, GRADBOX: rf(1), MIXHESS2: -1 / _g})

# expansion of the b-shifted trace inequality; the expression is >= 0:
# MIXHESS2 + b^2 (1 - 1/n) GRAD4 + 2b MIXCROSS - (1/n) BOXSQ - (2b/n) GRADBOX >= 0
CAUCHY_SCHWARZ_DEFECT = FormalExpr(
    {
        MIXHESS2: rf(1),
        GRAD4: _b * _b * (1 - 1 / _n),
        MIXCROSS: 2 * _b,
        BOXSQ: -1 / _n,
        GRADBOX: -2 * _b / _n,
    }
)


def ibp(expr: FormalExpr) -> FormalExpr:
    """Integrate every J(p) by parts: J(p) -> -p*K(p)."""
    for term in [t for t in expr.coeffs if t.name == "J"]:
        expr = expr.replace(term, FormalExpr({K(term.exponent): rf(-term.exponent)}))
    return expr
