"""Sparse multivariate polynomials and rational functions over exact rationals.

The verification engine needs only ring arithmetic, substitution, limits at
zero of single variables, and equality testing. No GCDs, no factorization:
rational functions are kept unnormalized and compared by cross-multiplication,
which is exact and needs nothing beyond polynomial arithmetic. Two cheap
structural rules keep redundant denominator factors out: a sum of two
rational functions over equal denominator Polys keeps that denominator, and
a product with the unit polynomial returns the other factor. An int or
Fraction operand of a rational function is never wrapped as a constant Poly:
it scales the numerator or denominator Poly directly, with the same result
the wrapped constant would give. Results whose denominator is an existing
one, or a product of nonzero ones, skip the zero-denominator test.

A :class:`Poly` packs each monomial into one int, with an 8-bit field per
variable of ``VARS`` and the first variable in the most significant field.
A product of two monomials is then one integer addition, and integer order is
the lexicographic order of the exponent tuples. An exponent may be 0 to
``MAX_EXP`` (127); the top bit of each field is a guard bit, which a product
sets when an exponent passes that ceiling. Every product checks the guard bits
once and raises ``ValueError``, so an exponent never carries into the next
variable. Coefficients are integers over one positive common denominator per
polynomial, reduced to lowest terms at construction, so ``==`` and ``hash``
compare structure. A Poly's value at a rational point is computed in integers,
as a numerator over a positive denominator (:meth:`Poly.value_pair`).

Square roots never enter the ring. A :class:`RadExpr` only names a quadratic
surd ``base + coef*sqrt(rad)``; "expr vanishes there" is decided by
:func:`rf_at_radexpr` as a remainder modulo the surd's monic quadratic, that
is, by arithmetic in Q(params)[t]/(m(t)).

The two operations that run Horner's rule over a coefficient list do it in
Poly, fraction-free, and keep one power of one denominator (Knuth, TAOCP
Vol. 2, section 4.6.1). :meth:`RationalFunction.substitute` of a/b evaluates
numerator and denominator as homogenised forms sum c_i a^i b^(d-i) and keeps
b only to the difference of their degrees; :func:`rf_at_radexpr` takes a
pseudo-remainder over a power of D modulo the quadratic cleared to
D t^2 - T t + N, which each :class:`RadExpr` builds once.
Horner in RationalFunction arithmetic would multiply the denominators and
cross-multiply a sum at every step.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from types import MappingProxyType

from ..errors import DomainError

# Indeterminates, in exponent-vector order. The first nine drive the
# derivation chains; lam1, x, y enter in the late rewriting steps where the
# threshold is expressed through the spectral parameter and the ratio
# substitution a = x*y, beta = y.
VARS = ("gamma", "a", "b", "beta", "k", "eps", "lam", "q", "n", "lam1", "x", "y")

# packed monomials: VARS[i] owns bits [8*(11-i), 8*(11-i) + 8); the top bit of
# each field is its guard
_BITS = 8
_MASK = (1 << _BITS) - 1
MAX_EXP = _MASK >> 1
_SHIFTS = tuple(_BITS * (len(VARS) - 1 - i) for i in range(len(VARS)))
_SHIFT = dict(zip(VARS, _SHIFTS))
_GUARDS = sum((MAX_EXP + 1) << s for s in _SHIFTS)


# the operand types that scale a Poly instead of being wrapped as one
_SCALARS = (int, Fraction)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _pack(exp) -> int:
    if len(exp) != len(VARS):
        raise ValueError(f"exponent vector needs {len(VARS)} entries, got {len(exp)}")
    packed = 0
    for e, s in zip(exp, _SHIFTS):
        if not 0 <= e <= MAX_EXP:
            raise ValueError(f"exponent {e} outside 0..{MAX_EXP}")
        packed |= e << s
    return packed


def _unpack(mono: int) -> tuple[int, ...]:
    return tuple((mono >> s) & _MASK for s in _SHIFTS)


class Poly:
    """Immutable sparse polynomial over Q: packed monomial -> int, over ``den``.

    ``terms`` is a read-only map from each packed monomial (see the module
    docstring) to a nonzero integer numerator, and ``den`` is the positive
    common denominator, so the coefficient of a monomial is ``terms[m] / den``.
    The gcd of ``den`` and every numerator is 1, and the zero polynomial has
    ``den == 1``. The constructor takes exponent tuples (one entry per
    variable of ``VARS``, each in 0..``MAX_EXP``) mapped to ints or Fractions;
    an exponent outside that range, from the constructor or from a product,
    raises ``ValueError``.
    """

    __slots__ = ("terms", "den", "_hash", "_tops")

    def __init__(self, terms: dict | None = None):
        coefs = {_pack(exp): _as_fraction(c) for exp, c in (terms or {}).items()}
        den = lcm(*(c.denominator for c in coefs.values())) if coefs else 1
        self._init(
            {m: c.numerator * (den // c.denominator) for m, c in coefs.items()}, den
        )

    def _init(self, num: dict[int, int], den: int) -> None:
        """Store num/den (den > 0) in lowest terms, dropping zero numerators."""
        if 0 in num.values():
            num = {m: c for m, c in num.items() if c}
        if not num:
            den = 1
        elif den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {m: c // g for m, c in num.items()}
                den //= g
        object.__setattr__(self, "terms", MappingProxyType(num))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_tops", None)

    @classmethod
    def _make(cls, num: dict[int, int], den: int) -> "Poly":
        p = object.__new__(cls)
        p._init(num, den)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # constructors

    @staticmethod
    def const(value) -> "Poly":
        value = _as_fraction(value)
        return Poly._make({0: value.numerator}, value.denominator)

    @staticmethod
    def var(name: str) -> "Poly":
        return Poly._make({1 << _SHIFT[name]: 1}, 1)

    # predicates

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # ring arithmetic

    def __add__(self, other) -> "Poly":
        other = _coerce_poly(other)
        d1, d2 = self.den, other.den
        g = gcd(d1, d2)
        s1, s2 = d2 // g, d1 // g
        out = {m: c * s1 for m, c in self.terms.items()} if s1 != 1 else dict(self.terms)
        get = out.get
        for m, c in other.terms.items():
            out[m] = get(m, 0) + c * s2
        return Poly._make(out, d1 * s1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._make({m: -c for m, c in self.terms.items()}, self.den)

    def __sub__(self, other) -> "Poly":
        return self + (-_coerce_poly(other))

    def scaled(self, c) -> "Poly":
        """self * c for an int or Fraction c, as the product with Poly.const(c)."""
        num, den = (c, 1) if isinstance(c, int) else (c.numerator, c.denominator)
        if num == 1 and den == 1:
            return self
        return Poly._make({m: t * num for m, t in self.terms.items()}, self.den * den)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if isinstance(other, _SCALARS):
                return self.scaled(other)
            other = _coerce_poly(other)
        # Polys are immutable, so a unit factor can hand back the other one
        if other.den == 1 and other.terms == _UNIT:
            return self
        if self.den == 1 and self.terms == _UNIT:
            return other
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        if not small:
            return ZERO
        pairs = iter(small.items())
        m2, c2 = next(pairs)
        out = {m1 + m2: c1 * c2 for m1, c1 in big.items()}
        get = out.get
        for m2, c2 in pairs:
            for m1, c1 in big.items():
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
        # factors keep their guard bits clear, so a field sum is at most
        # 2*MAX_EXP and sets its own guard bit, never the next field's bits
        if reduce(or_, out) & _GUARDS:
            raise ValueError(f"exponent above {MAX_EXP} in a product")
        return Poly._make(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "Poly":
        if power < 0:
            raise ValueError("negative power on Poly; use RationalFunction")
        result = ONE
        base = self
        while power:
            if power & 1:
                result = result * base
            power >>= 1
            if power:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.den, frozenset(self.terms.items()))))
        return self._hash

    # structure queries

    def min_degree_in(self, name: str) -> int:
        if self.is_zero:
            return 0
        s = _SHIFT[name]
        return min((m >> s) & _MASK for m in self.terms)

    def shift_down(self, name: str, amount: int) -> "Poly":
        """Divide by name**amount; every monomial must carry at least that power."""
        if amount == 0 or not self.terms:
            return self
        if not 0 < amount <= self.min_degree_in(name):
            raise ValueError(f"monomial not divisible by {name}^{amount}")
        step = amount << _SHIFT[name]
        return Poly._make({m - step: c for m, c in self.terms.items()}, self.den)

    def coeffs_in(self, name: str) -> dict[int, "Poly"]:
        """Univariate view: power of name -> polynomial in the rest."""
        s = _SHIFT[name]
        parts: dict[int, dict] = {}
        for m, c in self.terms.items():
            p = (m >> s) & _MASK
            parts.setdefault(p, {})[m - (p << s)] = c
        return {p: Poly._make(t, self.den) for p, t in parts.items()}

    def set_var_zero(self, name: str) -> "Poly":
        field = _MASK << _SHIFT[name]
        return Poly._make({m: c for m, c in self.terms.items() if not m & field}, self.den)

    def _top_degrees(self) -> tuple[tuple[str, int, int], ...]:
        """(name, shift, top degree) of each variable that occurs; computed once."""
        if self._tops is None:
            present = reduce(or_, self.terms, 0)
            tops = tuple(
                (name, s, max((m >> s) & _MASK for m in self.terms))
                for name, s in _SHIFT.items()
                if (present >> s) & _MASK
            )
            object.__setattr__(self, "_tops", tops)
        return self._tops

    def value_pair(self, point: dict, tables: dict | None = None) -> tuple[int, int]:
        """Value at point as integers (numerator, positive denominator).

        Only the variables that occur are read. A variable of top degree t at
        the value a/b contributes the table a**e * b**(t-e), e = 0..t, so every
        term shares the denominator den * prod b**t. `tables` holds those
        tables by (name, t) with b**t for one point: pass the same dict for
        every Poly evaluated there and each table is built once.
        """
        if not self.terms:
            return 0, 1
        if tables is None:
            tables = {}
        used = []
        scale = self.den
        for name, s, top in self._top_degrees():
            entry = tables.get((name, top))
            if entry is None:
                value = _as_fraction(point[name])
                a, b = value.numerator, value.denominator
                entry = tables[name, top] = (
                    [a**e * b ** (top - e) for e in range(top + 1)],
                    b**top,
                )
            used.append((s, entry[0]))
            scale *= entry[1]
        total = 0
        for m, c in self.terms.items():
            for s, table in used:
                c *= table[(m >> s) & _MASK]
            total += c
        return total, scale

    def evaluate(self, point: dict[str, Fraction]) -> Fraction:
        """Value at point, the quotient of :meth:`value_pair`."""
        return Fraction(*self.value_pair(point))

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        chunks = []
        # packed order is the exponent tuples' lexicographic order
        for m in sorted(self.terms, reverse=True):
            coef = Fraction(self.terms[m], self.den)
            factors = [
                f"{name}^{e}" if e > 1 else name for name, e in zip(VARS, _unpack(m)) if e
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
_UNIT = ONE.terms


class RationalFunction:
    """Quotient of two Polys, denominator nonzero; never normalized.

    No common factor is ever cancelled, but a sum over equal denominator
    Polys keeps that denominator instead of squaring it. An int or Fraction
    operand scales a Poly through :meth:`Poly.scaled`, and gives the same
    numerator and denominator that wrapping it as ``rf(c)`` would.
    """

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
        if isinstance(other, _SCALARS):
            return _rf(self.num + self.den.scaled(other), self.den)
        other = _coerce_rf(other)
        if self.den == other.den:
            return _rf(self.num + other.num, self.den)
        return _rf(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFunction":
        return _rf(-self.num, self.den)

    def __sub__(self, other) -> "RationalFunction":
        if isinstance(other, _SCALARS):
            return _rf(self.num + self.den.scaled(-other), self.den)
        return self + (-_coerce_rf(other))

    def __rsub__(self, other) -> "RationalFunction":
        if isinstance(other, _SCALARS):
            return _rf(self.den.scaled(other) - self.num, self.den)
        return _coerce_rf(other) + (-self)

    def __mul__(self, other) -> "RationalFunction":
        if isinstance(other, _SCALARS):
            return _rf(self.num.scaled(other), self.den)
        other = _coerce_rf(other)
        return _rf(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RationalFunction":
        if isinstance(other, _SCALARS):
            if not other:
                raise DomainError("division by zero rational function")
            return _rf(self.num, self.den.scaled(other))
        other = _coerce_rf(other)
        if other.num.is_zero:
            raise DomainError("division by zero rational function")
        return _rf(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "RationalFunction":
        if isinstance(other, _SCALARS):
            if self.num.is_zero:
                raise DomainError("division by zero rational function")
            return _rf(self.den.scaled(other), self.num)
        return _coerce_rf(other) / self

    def __pow__(self, power: int) -> "RationalFunction":
        if power < 0:
            return (ONE_RF / self) ** (-power)
        return _rf(self.num**power, self.den**power)

    def substitute(self, name: str, value) -> "RationalFunction":
        """self with `name` replaced by value = a/b, fraction-free.

        num and den are polynomials of degrees dn and dm in `name`; each is
        evaluated at a/b as its homogenisation H(a, b) = sum c_i a^i b^(d-i)
        over b^d, by Horner in Poly, and the quotient keeps only b^|dn - dm|.
        Raises DomainError when the substituted denominator H_den(a, b) is
        the zero polynomial.
        """
        value = _coerce_rf(value)
        a, b = value.num, value.den
        num_parts, den_parts = self.num.coeffs_in(name), self.den.coeffs_in(name)
        dn, dm = max(num_parts, default=0), max(den_parts, default=0)
        b_pow = [ONE]
        for _ in range(max(dn, dm)):
            b_pow.append(b_pow[-1] * b)
        num = _homogenised(num_parts, dn, a, b_pow)
        den = _homogenised(den_parts, dm, a, b_pow)
        if den.is_zero:
            raise DomainError("division by zero rational function")
        if dn > dm:
            den = den * b_pow[dn - dm]
        else:
            num = num * b_pow[dm - dn]
        return _rf(num, den)

    def limit_var_zero(self, name: str) -> "RationalFunction":
        """Limit as name -> 0, via clearing the shared minimal power.

        Mirrors a continuity argument: the quotient is rewritten so the
        denominator no longer vanishes, then evaluated. Raises DomainError if
        the limit does not exist as a rational function.
        """
        if self.num.is_zero:
            return ZERO_RF
        g = min(self.num.min_degree_in(name), self.den.min_degree_in(name))
        num = self.num.shift_down(name, g).set_var_zero(name)
        den = self.den.shift_down(name, g).set_var_zero(name)
        if den.is_zero:
            raise DomainError(f"limit at {name} = 0 does not exist")
        return _rf(num, den)

    def evaluate(self, point: dict[str, Fraction]) -> Fraction:
        tables: dict = {}
        num, num_den = self.num.value_pair(point, tables)
        den, den_den = self.den.value_pair(point, tables)
        if not den:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return Fraction(num * den_den, num_den * den)

    def __repr__(self) -> str:
        if self.den == ONE:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


def _rf(num: Poly, den: Poly) -> RationalFunction:
    """num/den for a den known to be nonzero: an existing denominator or a
    product of them. Skips the coercion and the zero test of the constructor."""
    out = object.__new__(RationalFunction)
    object.__setattr__(out, "num", num)
    object.__setattr__(out, "den", den)
    return out


def _coerce_rf(value) -> RationalFunction:
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, Poly):
        return _rf(value, ONE)
    if isinstance(value, _SCALARS):
        return _rf(Poly.const(value), ONE)
    raise TypeError(f"cannot coerce {type(value).__name__} to RationalFunction")


ONE_RF = _rf(ONE, ONE)
ZERO_RF = _rf(ZERO, ONE)


def _homogenised(parts: dict[int, Poly], top: int, a: Poly, b_pow: list[Poly]) -> Poly:
    """sum c_i a^i b^(top-i) over the coefficients c_i = parts[i], by Horner in a."""
    out = parts.get(top, ZERO)
    for power in range(top - 1, -1, -1):
        out = out * a
        if power in parts:
            out = out + parts[power] * b_pow[top - power]
    return out


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
    """The number base + coef*sqrt(rad): a record with no arithmetic.

    It is one root of the monic quadratic
    m(t) = t^2 - 2*base*t + (base^2 - coef^2*rad), whose other root is the
    conjugate base - coef*sqrt(rad). :func:`rf_at_radexpr` works modulo m.
    When base and coef share one denominator Poly e, the quadratic cleared
    to D t^2 - T t + N (D = e^2, T = 2*base*D, N = norm*D) is built here,
    once; otherwise `cleared` is None.
    """

    __slots__ = ("base", "coef", "rad", "cleared")

    def __init__(self, base, coef, rad: Poly):
        base, coef, rad = _coerce_rf(base), _coerce_rf(coef), _coerce_poly(rad)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "rad", rad)
        bn, e, cn = base.num, base.den, coef.num
        cleared = None
        if coef.den == e:
            cleared = (e * e, (bn * e).scaled(2), bn * bn - cn * cn * rad)
        object.__setattr__(self, "cleared", cleared)

    def __setattr__(self, name, value):
        raise AttributeError("RadExpr is immutable")

    def __repr__(self) -> str:
        return f"({self.base!r}) + ({self.coef!r})*sqrt({self.rad!r})"


def rf_at_radexpr(
    expr: RationalFunction, name: str, root: RadExpr
) -> tuple[RationalFunction, RationalFunction]:
    """expr.num and expr.den modulo the root's quadratic, each as a*t + b in t = `name`.

    The quadratic is t^2 - trace*t + norm with trace = 2*base and
    norm = base^2 - coef^2*rad; base, coef and rad must not involve `name`,
    and base and coef must share one denominator Poly e, as every radical
    point of the verifiers does; otherwise DomainError is raised, since
    clearing two denominators multiplies them into every power of D. Trace
    and norm are then cleared to the one denominator D = e^2 (the root's
    `cleared` triple, built with it), and each Poly p of
    degree d in t is reduced modulo D t^2 - T t + N by pseudo-division in
    Poly: D^j p = Q (D t^2 - T t + N) + A t + B with j = max(d - 1, 0), one
    power of one denominator, and the remainder is returned as (A t + B)/D^j.
    A zero numerator remainder means expr vanishes at both conjugate roots.
    The converse fails only when coef^2*rad is a square, where m factors and
    a root of one factor can leave a nonzero remainder: a spurious failure,
    never a false pass. Raises DomainError when the denominator remainder has
    zero norm, A^2 N + A B T + B^2 D = 0, the one case in which it could
    vanish at the root.
    """
    if root.cleared is None:
        raise DomainError("base and coef of the radical point must share one denominator")
    D, T, N = root.cleared
    d_pow = [ONE]
    t = Poly.var(name)
    a, b, j = _pseudo_remainder(expr.den, name, D, T, N, d_pow)
    if (a * a * N + a * b * T + b * b * D).is_zero:
        raise DomainError("denominator has zero norm at the radical point")
    den = _rf(a * t + b, d_pow[j])
    a, b, j = _pseudo_remainder(expr.num, name, D, T, N, d_pow)
    return _rf(a * t + b, d_pow[j]), den


def _pseudo_remainder(
    poly: Poly, name: str, D: Poly, T: Poly, N: Poly, d_pow: list[Poly]
) -> tuple[Poly, Poly, int]:
    """(A, B, j) with D^j poly = A t + B modulo D t^2 - T t + N, t = `name`.

    `d_pow` holds the powers D^0, D^1, ... built so far; it is extended here
    as far as this poly needs.
    """
    parts = poly.coeffs_in(name)
    top = max(parts, default=0)
    if top == 0:
        return ZERO, parts.get(0, ZERO), 0
    while len(d_pow) < top:
        d_pow.append(d_pow[-1] * D)
    # Horner: D*((a t + b) t) + D^e c with D t^2 -> T t - N
    a, b = parts[top], parts.get(top - 1, ZERO)
    for e, power in enumerate(range(top - 2, -1, -1), 1):
        a, b = a * T + D * b, parts.get(power, ZERO) * d_pow[e] - a * N
    return a, b, top - 1
