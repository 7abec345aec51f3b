"""Sparse multivariate polynomials and rational functions over exact rationals.

The verification engine needs only ring arithmetic, substitution, limits at
zero of single variables, and equality testing. No GCDs, no factorization:
rational functions are kept unnormalized and compared by cross-multiplication,
which is exact and needs nothing beyond polynomial arithmetic.

Square roots never enter the ring. Identities that involve one radical are
handled by :class:`RadExpr`, a pair (base, coef) representing
``base + coef*sqrt(rad)`` with a shared polynomial radicand; equality of two
such expressions reduces to component-wise rational-function equality.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import DomainError

# Indeterminates, in exponent-vector order. The first nine drive the
# derivation chains; lam1, x, y enter in the late rewriting steps where the
# threshold is expressed through the spectral parameter and the ratio
# substitution a = x*y, beta = y.
VARS = ("gamma", "a", "b", "beta", "k", "eps", "lam", "q", "n", "lam1", "x", "y")
NVARS = len(VARS)
_VAR_INDEX = {name: i for i, name in enumerate(VARS)}
_ZERO_EXP = (0,) * NVARS


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class Poly:
    """Immutable sparse polynomial: exponent tuple -> nonzero Fraction."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict | None = None):
        cleaned = {}
        if terms:
            for exp, coef in terms.items():
                coef = _as_fraction(coef)
                if coef != 0:
                    cleaned[exp] = coef
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # constructors

    @staticmethod
    def const(value) -> "Poly":
        return Poly({_ZERO_EXP: _as_fraction(value)})

    @staticmethod
    def var(name: str) -> "Poly":
        exp = [0] * NVARS
        exp[_VAR_INDEX[name]] = 1
        return Poly({tuple(exp): Fraction(1)})

    # predicates

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(exp == _ZERO_EXP for exp in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("not a constant polynomial")
        return self.terms.get(_ZERO_EXP, Fraction(0))

    # ring arithmetic

    def __add__(self, other) -> "Poly":
        other = _coerce_poly(other)
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            out[exp] = out.get(exp, Fraction(0)) + coef
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({exp: -coef for exp, coef in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-_coerce_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _coerce_poly(other) + (-self)

    def __mul__(self, other) -> "Poly":
        other = _coerce_poly(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = out.get(exp, Fraction(0)) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Poly":
        if power < 0:
            raise ValueError("negative power on Poly; use RationalFunction")
        result = Poly.const(1)
        base = self
        while power:
            if power & 1:
                result = result * base
            base = base * base
            power >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(frozenset(self.terms.items())))
        return self._hash

    # structure queries

    def min_degree_in(self, name: str) -> int:
        if self.is_zero:
            return 0
        i = _VAR_INDEX[name]
        return min(exp[i] for exp in self.terms)

    def max_degree_in(self, name: str) -> int:
        if self.is_zero:
            return 0
        i = _VAR_INDEX[name]
        return max(exp[i] for exp in self.terms)

    def shift_down(self, name: str, amount: int) -> "Poly":
        """Divide by name**amount; every monomial must carry at least that power."""
        if amount == 0:
            return self
        i = _VAR_INDEX[name]
        out = {}
        for exp, coef in self.terms.items():
            if exp[i] < amount:
                raise ValueError(f"monomial not divisible by {name}^{amount}")
            new = list(exp)
            new[i] -= amount
            out[tuple(new)] = coef
        return Poly(out)

    def coeffs_in(self, name: str) -> dict[int, "Poly"]:
        """Univariate view: power of name -> polynomial in the rest."""
        i = _VAR_INDEX[name]
        parts: dict[int, dict] = {}
        for exp, coef in self.terms.items():
            new = list(exp)
            p = new[i]
            new[i] = 0
            parts.setdefault(p, {})[tuple(new)] = coef
        return {p: Poly(t) for p, t in parts.items()}

    def set_var_zero(self, name: str) -> "Poly":
        i = _VAR_INDEX[name]
        return Poly({exp: coef for exp, coef in self.terms.items() if exp[i] == 0})

    def evaluate(self, point: dict[str, Fraction]) -> Fraction:
        vals = [_as_fraction(point[name]) for name in VARS]
        total = Fraction(0)
        for exp, coef in self.terms.items():
            term = coef
            for v, e in zip(vals, exp):
                if e:
                    term *= v**e
            total += term
        return total

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        chunks = []
        for exp in sorted(self.terms, reverse=True):
            coef = self.terms[exp]
            factors = [
                f"{name}^{e}" if e > 1 else name for name, e in zip(VARS, exp) if e
            ]
            body = "*".join(factors)
            if not body:
                chunks.append(str(coef))
            elif coef == 1:
                chunks.append(body)
            elif coef == -1:
                chunks.append(f"-{body}")
            else:
                chunks.append(f"{coef}*{body}")
        out = " + ".join(chunks)
        return out.replace("+ -", "- ")


def _coerce_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Poly")


ZERO = Poly()
ONE = Poly.const(1)


class RationalFunction:
    """Quotient of two Polys, denominator nonzero; never normalized."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _coerce_poly(num)
        den = ONE if den is None else _coerce_poly(den)
        if den.is_zero:
            raise DomainError("zero denominator in rational function")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        return self + (-_coerce_rf(other))

    def __rsub__(self, other) -> "RationalFunction":
        return _coerce_rf(other) + (-self)

    def __mul__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        other = _coerce_rf(other)
        if other.num.is_zero:
            raise DomainError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        return _coerce_rf(other) / self

    def __pow__(self, power: int) -> "RationalFunction":
        if power < 0:
            return (ONE_RF / self) ** (-power)
        return RationalFunction(self.num**power, self.den**power)

    def substitute(self, name: str, value) -> "RationalFunction":
        value = _coerce_rf(value)
        return _poly_substitute(self.num, name, value) / _poly_substitute(
            self.den, name, value
        )

    def limit_var_zero(self, name: str) -> "RationalFunction":
        """Limit as name -> 0, via clearing the shared minimal power.

        Mirrors a continuity argument: the quotient is rewritten so the
        denominator no longer vanishes, then evaluated. Raises DomainError if
        the limit does not exist as a rational function.
        """
        if self.num.is_zero:
            return RationalFunction(ZERO)
        g = min(self.num.min_degree_in(name), self.den.min_degree_in(name))
        num = self.num.shift_down(name, g).set_var_zero(name)
        den = self.den.shift_down(name, g).set_var_zero(name)
        if den.is_zero:
            raise DomainError(f"limit at {name} = 0 does not exist")
        return RationalFunction(num, den)

    def evaluate(self, point: dict[str, Fraction]) -> Fraction:
        den = self.den.evaluate(point)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.evaluate(point) / den

    def __repr__(self) -> str:
        if self.den == ONE:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


def _coerce_rf(value) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (Poly, int, Fraction)):
        return RationalFunction(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to RationalFunction")


ONE_RF = RationalFunction(ONE)
ZERO_RF = RationalFunction(ZERO)


def _poly_substitute(poly: Poly, name: str, value: RationalFunction) -> RationalFunction:
    parts = poly.coeffs_in(name)
    if not parts:
        return ZERO_RF
    top = max(parts)
    result = ZERO_RF
    for power in range(top, -1, -1):
        result = result * value
        if power in parts:
            result = result + RationalFunction(parts[power])
    return result


def rf(num, den=None) -> RationalFunction:
    return RationalFunction(num, den)


def v(name: str) -> RationalFunction:
    return RationalFunction(Poly.var(name))


def rf_equal(e1: RationalFunction, e2: RationalFunction) -> bool:
    """Exact equality by cross-multiplication; no tolerance anywhere."""
    e1 = _coerce_rf(e1)
    e2 = _coerce_rf(e2)
    return (e1.num * e2.den - e2.num * e1.den).is_zero


class RadExpr:
    """base + coef*sqrt(rad) with a shared polynomial radicand.

    Closed under ring operations because sqrt(rad)**2 collapses back to rad.
    Equality of two RadExprs over the same radicand is tested component-wise.
    That is sufficient for equality of the values, whatever the radicand; if
    sqrt(rad) were rational over the function field (a perfect-square
    radicand), equal values could still differ component-wise, so such a
    radicand could only cause a spurious failure, never a false pass.
    """

    __slots__ = ("base", "coef", "rad")

    def __init__(self, base, coef, rad: Poly):
        object.__setattr__(self, "base", _coerce_rf(base))
        object.__setattr__(self, "coef", _coerce_rf(coef))
        object.__setattr__(self, "rad", _coerce_poly(rad))

    def __setattr__(self, name, value):
        raise AttributeError("RadExpr is immutable")

    def _check_same_rad(self, other: "RadExpr"):
        if self.rad != other.rad:
            raise ValueError("mixed radicands in RadExpr arithmetic")

    def __add__(self, other) -> "RadExpr":
        other = self._coerce(other)
        self._check_same_rad(other)
        return RadExpr(self.base + other.base, self.coef + other.coef, self.rad)

    __radd__ = __add__

    def __neg__(self) -> "RadExpr":
        return RadExpr(-self.base, -self.coef, self.rad)

    def __sub__(self, other) -> "RadExpr":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "RadExpr":
        other = self._coerce(other)
        self._check_same_rad(other)
        radrf = RationalFunction(self.rad)
        return RadExpr(
            self.base * other.base + self.coef * other.coef * radrf,
            self.base * other.coef + self.coef * other.base,
            self.rad,
        )

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return self.base.is_zero and self.coef.is_zero

    def _coerce(self, value) -> "RadExpr":
        if isinstance(value, RadExpr):
            return value
        return RadExpr(_coerce_rf(value), ZERO_RF, self.rad)

    def __repr__(self) -> str:
        return f"({self.base!r}) + ({self.coef!r})*sqrt({self.rad!r})"


def rad_equal(e1: RadExpr, e2: RadExpr) -> bool:
    if e1.rad != e2.rad:
        return False
    return rf_equal(e1.base, e2.base) and rf_equal(e1.coef, e2.coef)


def poly_at_radexpr(poly: Poly, name: str, value: RadExpr) -> RadExpr:
    """Horner evaluation of poly with `name` replaced by a RadExpr."""
    parts = poly.coeffs_in(name)
    zero = RadExpr(ZERO_RF, ZERO_RF, value.rad)
    if not parts:
        return zero
    result = zero
    for power in range(max(parts), -1, -1):
        result = result * value
        if power in parts:
            result = result + RadExpr(RationalFunction(parts[power]), ZERO_RF, value.rad)
    return result


def rf_at_radexpr(
    expr: RationalFunction, name: str, value: RadExpr
) -> tuple[RadExpr, RadExpr]:
    """expr at `name` = value as the pair (num, den); nothing is divided out.

    Raises DomainError when den's norm p^2 - s^2 r vanishes, the one case in
    which den could be zero.
    """
    num = poly_at_radexpr(expr.num, name, value)
    den = poly_at_radexpr(expr.den, name, value)
    if (den.base * den.base - den.coef * den.coef * RationalFunction(den.rad)).is_zero:
        raise DomainError("denominator has zero norm at the radical point")
    return num, den


def rescale_radicand(expr: RadExpr, new_rad: Poly, factor: RationalFunction) -> RadExpr:
    """Rewrite base + coef*sqrt(rad) over sqrt(new_rad) using rad = factor^2 * new_rad.

    The caller is responsible for the sign convention factor >= 0 on the
    admissible region; this function verifies the squared relation exactly
    and raises if it fails.
    """
    radrf = RationalFunction(expr.rad)
    if not rf_equal(radrf, factor * factor * RationalFunction(new_rad)):
        raise DomainError("radicand rescaling identity does not hold")
    return RadExpr(expr.base, expr.coef * factor, new_rad)
