"""Exact arithmetic over Q(alpha^(1/4)) plus a compensated floating-point mirror.

Every LP value, step size, and fitness difference in this package is an
element of the real field Q(beta) with beta = alpha^(1/4).  Depending on
alpha the extension degree is 4, 2 or 1:

* alpha a perfect fourth power  -> beta is an integer, values are rationals;
* alpha a perfect square only   -> beta = sqrt(isqrt(alpha)), degree 2;
* otherwise                     -> beta = alpha^(1/4), degree 4.

A value is a vector of rational coefficients over the power basis
{1, beta, ..., beta^(dim-1)}, and beta^dim is an integer ("radicand").  The
engines and the oracle compute on such coefficient tuples directly;
RadicalValue only tags one with its alpha, for input and the dump format,
because a bare tuple cannot tell alpha = 4 from alpha = 9.  Signs are
decided exactly with integer arithmetic only (no precision parameter to
tune), which keeps the accept/reject decisions of the search heuristics free
of rounding artifacts.

Step sizes are never materialized eagerly: they are carried as the integer
quarter-exponent q with sigma = alpha^(q/4), clamped to [0, q_max].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]

#: Absolute tolerance of the float backend.  Sign queries whose float
#: estimate lands within TAU of zero are escalated to the exact backend.
TAU = 2.0 ** -20


def _iroot4(x: int) -> int:
    """floor(x ** (1/4)) for x >= 0."""
    return isqrt(isqrt(x))


@dataclass(frozen=True)
class Alpha:
    """A step-size rate alpha >= 2 with its canonical basis data.

    ``radicand`` is the integer beta^basis_dim, i.e. alpha itself for
    degree 4, isqrt(alpha) for degree 2 and alpha^(1/4) for degree 1.
    """

    alpha: int
    basis_dim: int
    radicand: int

    def __repr__(self) -> str:
        return f"Alpha({self.alpha}, dim={self.basis_dim})"


@lru_cache(maxsize=None)
def canonicalize_alpha(alpha: int) -> Alpha:
    """Classify alpha by the degree of alpha^(1/4) over the rationals."""
    if not isinstance(alpha, int) or alpha < 2:
        raise ValueError(f"alpha must be an integer >= 2, got {alpha!r}")
    r4 = _iroot4(alpha)
    if r4 ** 4 == alpha:
        return Alpha(alpha, 1, r4)
    r2 = isqrt(alpha)
    if r2 * r2 == alpha:
        return Alpha(alpha, 2, r2)
    return Alpha(alpha, 4, alpha)


def _as_alpha(alpha: Union[int, Alpha]) -> Alpha:
    return alpha if isinstance(alpha, Alpha) else canonicalize_alpha(alpha)


# ---------------------------------------------------------------------------
# exact sign of  c0 + c1*beta + c2*beta^2 + c3*beta^3
#
# Degree 2 uses the classic quadratic trick: the sign of a + b*sqrt(r) with
# a, b of opposite signs equals sign(a) * sign(a^2 - b^2*r).  Degree 4 is
# split as A + beta*B with A, B in Q(sqrt(alpha)) and recurses on the same
# trick (beta^2 = sqrt(alpha) exactly), so every decision is a finite
# integer computation.
# ---------------------------------------------------------------------------


def _sign_rat(x: Rational) -> int:
    return (x > 0) - (x < 0)


def _sign_quadratic(a: Rational, b: Rational, r: int) -> int:
    """Sign of a + b*sqrt(r), where r > 0 is not a perfect square."""
    sa = _sign_rat(a)
    sb = _sign_rat(b)
    if sb == 0:
        return sa
    if sa == 0 or sa == sb:
        return sb if sa == 0 else sa
    # opposite signs: |a| vs |b|*sqrt(r) decided by squaring (exact since
    # sqrt(r) is irrational, so the difference cannot be zero)
    return sa * _sign_rat(a * a - b * b * r)


def _sign_quartic(c0: Rational, c1: Rational, c2: Rational, c3: Rational,
                  alpha: int) -> int:
    """Sign of c0 + c1*beta + c2*beta^2 + c3*beta^3 with beta = alpha^(1/4),
    where alpha is not a perfect square."""
    # value = A + beta*B,  A = c0 + c2*sqrt(alpha),  B = c1 + c3*sqrt(alpha)
    s_a = _sign_quadratic(c0, c2, alpha)
    s_b = _sign_quadratic(c1, c3, alpha)
    if s_b == 0:
        return s_a
    if s_a == 0 or s_a == s_b:
        return s_b if s_a == 0 else s_a
    # opposite signs: compare A^2 against beta^2 * B^2 inside Q(sqrt(alpha)).
    #   A^2            = (c0^2 + c2^2*alpha) + (2*c0*c2) * sqrt(alpha)
    #   beta^2 * B^2   = (2*c1*c3*alpha) + (c1^2 + c3^2*alpha) * sqrt(alpha)
    d0 = c0 * c0 + c2 * c2 * alpha - 2 * c1 * c3 * alpha
    d1 = 2 * c0 * c2 - c1 * c1 - c3 * c3 * alpha
    return s_a * _sign_quadratic(d0, d1, alpha)


def sign_of_coeffs(coeffs: Sequence[Rational], alpha: Alpha) -> int:
    """Exact sign of sum(coeffs[k] * beta^k).  Coefficients may be int or
    Fraction; only ring operations on them are performed."""
    dim = alpha.basis_dim
    if dim == 1:
        return _sign_rat(coeffs[0])
    if dim == 2:
        return _sign_quadratic(coeffs[0], coeffs[1], alpha.radicand)
    return _sign_quartic(coeffs[0], coeffs[1], coeffs[2], coeffs[3],
                         alpha.alpha)


# ---------------------------------------------------------------------------
# RadicalValue
# ---------------------------------------------------------------------------


class RadicalValue:
    """An element of Q(alpha^(1/4)) in canonical coordinates, tagged with
    its alpha.  Immutable; it has a sign but no arithmetic."""

    __slots__ = ("alpha", "coeffs")

    def __init__(self, alpha: Union[int, Alpha],
                 coeffs: Iterable[Rational]) -> None:
        a = _as_alpha(alpha)
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) != a.basis_dim:
            raise ValueError(
                f"expected {a.basis_dim} coefficients for alpha={a.alpha}, "
                f"got {len(cs)}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("RadicalValue is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, alpha: Union[int, Alpha]) -> "RadicalValue":
        a = _as_alpha(alpha)
        return cls(a, (0,) * a.basis_dim)

    @classmethod
    def from_rational(cls, alpha: Union[int, Alpha],
                      value: Rational) -> "RadicalValue":
        a = _as_alpha(alpha)
        return cls(a, (Fraction(value),) + (Fraction(0),) * (a.basis_dim - 1))

    # -- queries ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def sign(self) -> int:
        if self.is_zero():
            return 0
        return sign_of_coeffs(self.coeffs, self.alpha)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, RadicalValue):
            return NotImplemented
        return self.alpha == other.alpha and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.alpha, self.coeffs))

    def __repr__(self) -> str:
        return f"RadicalValue(alpha={self.alpha.alpha}, {list(self.coeffs)})"


# ---------------------------------------------------------------------------
# step exponents: sigma = alpha^(q/4), q an integer in [0, q_max]
# ---------------------------------------------------------------------------

StepExponent = int  # quarter-steps; kept as a plain int in hot paths


def ceil_log(alpha: int, w: int) -> int:
    """Smallest t >= 0 with alpha^t >= w (w >= 1)."""
    if alpha < 2 or w < 1:
        raise ValueError(f"need alpha >= 2 and w >= 1, got {alpha}, {w}")
    t, p = 0, 1
    while p < w:
        p *= alpha
        t += 1
    return t


def q_max_for(alpha: Union[int, Alpha], w_max: int) -> int:
    """Upper bound of the quarter-exponent: 4 * (ceil(log_alpha w_max) + 1),
    so that 1 <= sigma <= alpha^(ceil(log_alpha w_max) + 1)."""
    a = _as_alpha(alpha)
    return 4 * (ceil_log(a.alpha, w_max) + 1)


def step_coeffs(q: StepExponent, alpha: Alpha) -> tuple:
    """Integer coefficient vector of alpha^(q/4), a single basis monomial."""
    if q < 0:
        raise ValueError(f"step exponent {q} is negative")
    d, k = divmod(q, alpha.basis_dim)
    out = [0] * alpha.basis_dim
    out[k] = alpha.radicand ** d
    return tuple(out)


# ---------------------------------------------------------------------------
# interval oracle
#
# Independent of the algebraic sign rules above: evaluates the value with
# integer endpoints at a given number of fractional bits.  Used by the test
# suite to cross-check sign_of_coeffs, and usable as a refinement loop.
# ---------------------------------------------------------------------------


def _floor_root(x: int, deg: int) -> int:
    if deg == 1:
        return x
    if deg == 2:
        return isqrt(x)
    return _iroot4(x)


def interval_sign(a: RadicalValue, bits: int = 256) -> int:
    """Sign by interval arithmetic with `bits` fractional bits of beta.

    Returns 0 when the enclosing interval straddles zero (the value may be
    zero or just smaller than the resolution); otherwise the exact sign.
    """
    dim = a.alpha.basis_dim
    if dim == 1:
        return _sign_rat(a.coeffs[0])
    den = lcm(*(c.denominator for c in a.coeffs))
    ints = [int(c * den) for c in a.coeffs]
    # beta * 2^bits is in [b_lo, b_lo + 1)
    b_lo = _floor_root(a.alpha.radicand << (dim * bits), dim)
    b_hi = b_lo + 1
    lo_sum = 0
    hi_sum = 0
    top = (dim - 1) * bits
    for k, n in enumerate(ints):
        shift = top - k * bits
        plo, phi = b_lo ** k, b_hi ** k
        if n >= 0:
            lo_sum += n * plo << shift
            hi_sum += n * phi << shift
        else:
            lo_sum += n * phi << shift
            hi_sum += n * plo << shift
    if lo_sum > 0:
        return 1
    if hi_sum < 0:
        return -1
    return 0


# ---------------------------------------------------------------------------
# float backend
#
# Mirrors the exact operations in double-double precision (~106 bits), so
# that for inputs with exactly representable coefficients the absolute
# evaluation error stays far below TAU.  Sign queries landing within TAU of
# zero are escalated to the exact backend (default) or resolved as 0.
# ---------------------------------------------------------------------------

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(x: float, y: float):
    s = x + y
    bb = s - x
    return s, (x - (s - bb)) + (y - bb)


def _two_prod(x: float, y: float):
    p = x * y
    cx = _SPLITTER * x
    xh = cx - (cx - x)
    xl = x - xh
    cy = _SPLITTER * y
    yh = cy - (cy - y)
    yl = y - yh
    return p, ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def _dd_add(a, b):
    s, e = _two_sum(a[0], b[0])
    e += a[1] + b[1]
    s, e = _two_sum(s, e)
    return s, e


def _dd_mul_float(a, x: float):
    p, e = _two_prod(a[0], x)
    e += a[1] * x
    p, e = _two_sum(p, e)
    return p, e


@lru_cache(maxsize=None)
def _beta_powers_dd(alpha: Alpha):
    """(beta^0, ..., beta^(dim-1)) as double-double pairs."""
    dim = alpha.basis_dim
    if dim == 1:
        return ((1.0, 0.0),)
    bits = 80
    b_int = _floor_root(alpha.radicand << (dim * bits), dim)
    fr = Fraction(b_int, 1 << bits)
    hi = float(fr)
    lo = float(fr - Fraction(hi))
    powers = [(1.0, 0.0), (hi, lo)]
    for k in range(2, dim):
        frk = fr ** k
        h = float(frk)
        powers.append((h, float(frk - Fraction(h))))
    return tuple(powers)


def float_value(a: RadicalValue) -> float:
    """Correctly-rounded-coefficient double-double evaluation of a."""
    acc = (0.0, 0.0)
    for c, bp in zip(a.coeffs, _beta_powers_dd(a.alpha)):
        if c == 0:
            continue
        acc = _dd_add(acc, _dd_mul_float(bp, float(c)))
    return acc[0] + acc[1]


def float_sign(a: RadicalValue, tau: float = TAU,
               escalate: bool = True) -> int:
    """Sign via the float backend.  Estimates within tau of zero are
    escalated to the exact backend when `escalate`, else resolved as 0."""
    v = float_value(a)
    if v > tau:
        return 1
    if v < -tau:
        return -1
    return a.sign() if escalate else 0
