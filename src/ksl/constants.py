"""Closed-form constants for the Kahler Sobolev inequality family.

Everything here is a pure function of a :class:`Dimensions` record (complex
dimension ``n``, exponent ``q``) plus the occasional free parameter ``k``
or ``lambda1``. Each closed form is a rational function of those inputs and
at most one square root, and a float input is an exact dyadic rational. So
the arithmetic runs in exact fractions, around one square root taken to 60
digits with an integer square root, and is rounded to a Python float once,
on the way out; the nested radicals lose digits near the degenerate exponent
in float arithmetic. No precision state is kept or read.

Conventions. ``n`` is the complex dimension, ``m = 2n`` the real one. The
admissible exponent range is ``1 < q <= (n+1)/(n-1)`` for ``n >= 2`` (the
equality case is a degenerate boundary that keeps every radicand at exactly
zero) and ``q > 1`` unrestricted for ``n = 1``. ``lambda1`` is a spectral
lower-bound parameter, at least 1 in this normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

# Boundary detection tolerance for q against (n+1)/(n-1), relative to the
# width (n+1)/(n-1) - 1 = 2/(n-1) of the exponent domain, so that the window
# shrinks with the domain at a large n.
_BOUNDARY_RTOL = 1e-12


@dataclass(frozen=True)
class Dimensions:
    """Complex dimension and exponent, validated at construction."""

    n: int
    q: float

    def __post_init__(self) -> None:
        # a bool is an int, and True would pass as n = 1
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise DomainError(f"complex dimension must be an integer >= 1, got n = {self.n}")
        # NaN fails both comparisons, so it is rejected too
        if not 1 < self.q < math.inf:
            raise DomainError(f"exponent must be finite and exceed 1, got q = {self.q}")
        if self.n >= 2:
            qmax = (self.n + 1) / (self.n - 1)
            if self.q > qmax + _BOUNDARY_RTOL * (qmax - 1):
                raise DomainError(
                    f"exponent must satisfy q <= (n+1)/(n-1) = {qmax} for n = {self.n}, "
                    f"got q = {self.q}"
                )

    @property
    def m(self) -> int:
        """Real dimension."""
        return 2 * self.n

    @property
    def boundary(self) -> bool:
        """True when q sits at the degenerate endpoint (n+1)/(n-1)."""
        if self.n == 1:
            return False
        qmax = (self.n + 1) / (self.n - 1)
        return abs(self.q - qmax) <= _BOUNDARY_RTOL * (qmax - 1)


@dataclass(frozen=True)
class KInterval:
    """Closed feasible range for the interpolation weight k."""

    k_lo: float
    k_hi: float


@dataclass(frozen=True)
class ConstantsReport:
    """Summary record of the headline constants at one (n, q)."""

    c_s: float
    c_riem_bridged: float
    c_conj: float
    lambda1_lower: float


def _require_n2(dims: Dimensions, op: str) -> None:
    if dims.n < 2:
        raise DomainError(f"{op} requires n >= 2")


def _sqrt(x: Fraction) -> Fraction:
    """Square root of x >= 0 to 60 digits; exact when x is a rational square."""
    num, den = x.numerator, x.denominator
    return Fraction(math.isqrt(num * den * 10**120), den * 10**60)


def _boundary_zero(dims: Dimensions, value: Fraction) -> Fraction:
    # A float q at the critical exponent can sit half an ulp above the real
    # boundary; Dimensions accepts that window, so a small negative value
    # there is quantization noise, not a sign.
    if value < 0 and dims.boundary:
        return Fraction(0)
    return value


def _sqrt_radicand(dims: Dimensions, value: Fraction) -> Fraction:
    """Square root of a radicand that is nonnegative exactly for q <= (n+1)/(n-1)."""
    rad = _boundary_zero(dims, value)
    if rad < 0:
        raise DomainError(
            f"radicand negative: requires q <= (n+1)/(n-1), got n = {dims.n}, q = {dims.q}"
        )
    return _sqrt(rad)


def _require_lambda1(lambda1: float) -> None:
    if not 1 <= lambda1 < math.inf:
        raise DomainError(f"lambda1 must be finite and >= 1, got {lambda1}")


def cs_bm(dims: Dimensions) -> float:
    """Sharp-form Sobolev constant for the unit-normalized Ricci bound.

    Evaluates (q-1)(2n+q+2-2*sqrt((n+1)(n+1-(n-1)q)))/(2qn). At n = 1 the
    radicand is the perfect square (n+1)^2 and the value collapses to
    (q-1)/2 exactly.
    """
    n, q = dims.n, Fraction(dims.q)
    root = _sqrt_radicand(dims, (n + 1) * (n + 1 - (n - 1) * q))
    val = (q - 1) * (2 * n + q + 2 - 2 * root) / (2 * q * n)
    return float(val)


def riemannian_constants(dims: Dimensions) -> tuple[float, float]:
    """Riemannian comparison constants (raw, bridged) in real dimension m = 2n.

    raw = (q-1)/m holds under the Ric >= (m-1)g normalization; rescaling the
    metric by (m-1) converts that hypothesis to Ric >= g and multiplies the
    gradient-term constant by (m-1), giving bridged = (q-1)(m-1)/m. Their
    exponent bound q <= (m+2)/(m-2) is the (n+1)/(n-1) of Dimensions.
    """
    m = dims.m
    q = Fraction(dims.q)
    raw = (q - 1) / m
    bridged = (q - 1) * (m - 1) / m
    return float(raw), float(bridged)


def _k_endpoints(dims: Dimensions):
    # Endpoints s -+ s*sqrt(1-(n-1)q/(n+1)) - 1 with s = 2(n+1)/(q(n-1)).
    if dims.n == 1:
        raise DomainError("interval unbounded at n = 1; use limit semantics")
    n, q = dims.n, Fraction(dims.q)
    s = 2 * (n + 1) / (q * (n - 1))
    root = _sqrt_radicand(dims, 1 - (n - 1) * q / (n + 1))
    return s - s * root - 1, s + s * root - 1


def k_interval(dims: Dimensions) -> KInterval:
    """Feasible closed interval for k; endpoints multiply to exactly 1.

    The endpoints are the two roots of k^2 + (2 - 4(n+1)/((n-1)q))k + 1,
    which is why their product is 1. Degenerates to a single point at the
    boundary exponent.
    """
    lo, hi = _k_endpoints(dims)
    return KInterval(float(lo), float(hi))


def lambda1_coefficient(dims: Dimensions, k: float) -> float:
    """Weight multiplying lambda1 in the generalized threshold.

    1 - (n+(n-1)k)(kn+n-1)q / ((4n^2+4n+q)k). Nonnegative exactly on the
    feasible k interval, zero at both endpoints.
    """
    if not 0 < k < math.inf:
        raise DomainError(f"k must be positive and finite, got k = {k}")
    return float(_lambda1_coefficient(dims, Fraction(k)))


def _lambda1_coefficient(dims: Dimensions, kk):
    n, q = dims.n, Fraction(dims.q)
    return 1 - (n + (n - 1) * kk) * (kk * n + n - 1) * q / ((4 * n**2 + 4 * n + q) * kk)


def _f_of_k(dims: Dimensions, kk, lam1):
    n, q = dims.n, Fraction(dims.q)
    coef = _lambda1_coefficient(dims, kk)
    return (coef * lam1 + q * n * (kk * n + n - 1) / ((4 * n**2 + 4 * n + q) * kk)) / (q - 1)


def _require_k_feasible(dims: Dimensions, k: float) -> None:
    # the one feasibility test, the CLI's included: room for the float
    # endpoints' rounding, no more
    iv = k_interval(dims)
    tol = 1e-12 * max(1.0, iv.k_hi)
    if not (iv.k_lo - tol <= k <= iv.k_hi + tol):
        raise DomainError(
            f"k = {k} outside feasible interval [{iv.k_lo}, {iv.k_hi}] for "
            f"n = {dims.n}, q = {dims.q}"
        )


def f_of_k(dims: Dimensions, k: float, lambda1: float) -> float:
    """Threshold objective F(k); reciprocal of twice the generalized constant."""
    _require_lambda1(lambda1)
    _require_k_feasible(dims, k)
    return float(_f_of_k(dims, Fraction(k), Fraction(lambda1)))


def cs_general(dims: Dimensions, k: float, lambda1: float) -> float:
    """Generalized Sobolev constant 1/(2 F(k)).

    At k equal to the lower interval endpoint the lambda1 weight vanishes and
    the value reduces to cs_bm regardless of lambda1.
    """
    _require_lambda1(lambda1)
    _require_k_feasible(dims, k)
    return float(1 / (2 * _f_of_k(dims, Fraction(k), Fraction(lambda1))))


def optimize_k(dims: Dimensions, lambda1: float) -> tuple[float, float]:
    """Maximize F(k) over the feasible interval, in closed form.

    F(k) = alpha + beta*k + gamma/k with beta < 0 and gamma proportional to
    (1 - lambda1) <= 0 (proved exactly by ``verify_refined_chain``), so F is
    concave on k > 0 and stationary at k^2 = 1 - 1/lambda1. Its maximizer over
    [k_lo, k_hi] is therefore k* = clip(sqrt(1 - 1/lambda1), k_lo, k_hi).
    Ties within 1e-9 of the maximum resolve to k_lo.
    Returns (k_star, lambda_threshold) with lambda_threshold = F(k_star).
    """
    # the endpoints first, so that n = 1 is the error reported there
    lo, hi = _k_endpoints(dims)
    _require_lambda1(lambda1)
    lam1 = Fraction(lambda1)
    k_c = min(max(_sqrt(1 - 1 / lam1), lo), hi)
    f_lo = _f_of_k(dims, lo, lam1)
    if k_c == lo:
        # clipped to the lower end, always so at lambda1 = 1
        return float(lo), float(f_lo)
    f_c = _f_of_k(dims, k_c, lam1)
    if f_lo >= f_c - Fraction(1, 10**9):
        return float(lo), float(f_lo)
    return float(k_c), float(f_c)


def epsilon_max(dims: Dimensions) -> float:
    """Largest slack parameter keeping the quadratic discriminant nonnegative.

    (4n(n+1) - 2q(n-1) - 2(n-1)*sqrt(q^2+4qn(n+1))) / (n(n-1)q); zero at the
    boundary exponent where the radicand is a perfect square.
    """
    _require_n2(dims, "epsilon_max")
    n, q = dims.n, Fraction(dims.q)
    num = 4 * n * (n + 1) - 2 * q * (n - 1) - 2 * (n - 1) * _sqrt(q**2 + 4 * q * n * (n + 1))
    val = _boundary_zero(dims, num) / (n * (n - 1) * q)
    return float(val)


def k_lower_bound_eps0(dims: Dimensions) -> float:
    """Lower k bound at zero slack; agrees with k_interval(...).k_lo.

    (2n^2+2n - q(n^2-n) - 2*sqrt((n^2+n)^2 - (n^2-n)q(n^2+n))) / (n(n-1)q).
    The radicand is n^2 times the one in cs_bm, so the two derivations of the
    bound coincide identically.
    """
    _require_n2(dims, "k_lower_bound_eps0")
    return float(_k_lower_bound_eps0(dims))


def _k_lower_bound_eps0(dims: Dimensions):
    n, q = dims.n, Fraction(dims.q)
    root = _sqrt_radicand(dims, (n**2 + n) ** 2 - (n**2 - n) * q * (n**2 + n))
    return (2 * n**2 + 2 * n - q * (n**2 - n) - 2 * root) / (n * (n - 1) * q)


def base_threshold(dims: Dimensions) -> float:
    """Rigidity threshold from the zero-slack chain: 1/((q-1)(1+((n-1)/n)k_lo)).

    Identical to 1/(2 cs_bm) although the two closed forms look nothing
    alike; the acceptance tests pin that agreement.
    """
    _require_n2(dims, "base_threshold")
    q = Fraction(dims.q)
    val = 1 / ((q - 1) * (1 + Fraction(dims.n - 1, dims.n) * _k_lower_bound_eps0(dims)))
    return float(val)


def constants_report(dims: Dimensions) -> ConstantsReport:
    """Headline constants at one (n, q): sharp, bridged Riemannian, conjectured."""
    c_s = cs_bm(dims)
    _, bridged = riemannian_constants(dims)
    q = Fraction(dims.q)
    c_conj = float((q - 1) / 2)
    lam_lower = float((q - 1) / (2 * Fraction(c_s)))
    return ConstantsReport(
        c_s=c_s,
        c_riem_bridged=bridged,
        c_conj=c_conj,
        lambda1_lower=lam_lower,
    )
