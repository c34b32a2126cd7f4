"""Exact signs over Q(alpha^(1/4)) plus one fixed-point evaluator.

Every LP value, step size, and fitness difference in this package is an
element of the real field Q(beta) with beta = alpha^(1/4).  Depending on
alpha the extension degree is 4, 2 or 1:

* alpha a perfect fourth power  -> beta is an integer, values are rationals;
* alpha a perfect square only   -> beta = sqrt(isqrt(alpha)), degree 2;
* otherwise                     -> beta = alpha^(1/4), degree 4.

A value is a vector of rational coefficients over the power basis
{1, beta, ..., beta^(dim-1)}, and beta^dim is an integer ("radicand").  A
rational value may also stay a plain int or Fraction.  A row carries no
alpha of its own (it cannot tell alpha = 4 from alpha = 9), so every
function that reads one takes the Alpha as an argument.  Signs are decided
exactly with integer arithmetic only (no precision parameter to tune), which
keeps the accept/reject decisions of the search heuristics free of rounding
artifacts.

Step sizes are never materialized eagerly: they are carried as the integer
quarter-exponent q with sigma = alpha^(q/4), clamped to [0, q_max].

No float decides a sign: the search engines (``heuristics``) take this
module's exact sign for every load test, and use a float only to pick where
an exact walk starts.  The one approximation here is a fixed-point bracket
of a value between integers, from floor(beta * 2^bits); it backs the
interval sign the tests check the exact signs against, and the float that
``solve --log`` and ``dualvc verify`` print for sum(Y).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import inf, isqrt, lcm
from typing import Sequence, Union

Rational = Union[int, Fraction]


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
def canonicalize_alpha(alpha: Union[int, Alpha]) -> Alpha:
    """Classify alpha by the degree of alpha^(1/4) over the rationals; an
    Alpha is returned unchanged."""
    if isinstance(alpha, Alpha):
        return alpha
    if not isinstance(alpha, int) or alpha < 2:
        raise ValueError(f"alpha must be an integer >= 2, got {alpha!r}")
    r4 = _iroot4(alpha)
    if r4 ** 4 == alpha:
        return Alpha(alpha, 1, r4)
    r2 = isqrt(alpha)
    if r2 * r2 == alpha:
        return Alpha(alpha, 2, r2)
    return Alpha(alpha, 4, alpha)


# ---------------------------------------------------------------------------
# exact sign of  c0 + c1*beta + c2*beta^2 + c3*beta^3
#
# Degree 2 uses the classic quadratic trick: the sign of a + b*sqrt(r) with
# a, b of opposite signs equals sign(a) * sign(a^2 - b^2*r).  Degree 4 is
# split as A + beta*B with A, B in Q(sqrt(alpha)) and recurses on the same
# trick (beta^2 = sqrt(alpha) exactly), so every decision is a finite
# integer computation.
# ---------------------------------------------------------------------------


def _sign_quadratic(a: Rational, b: Rational, r: int) -> int:
    """Sign of a + b*sqrt(r), where r > 0 is not a perfect square."""
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa
    if sa == 0:
        return sb
    # opposite signs: |a| vs |b|*sqrt(r) decided by squaring (exact since
    # sqrt(r) is irrational, so the difference cannot be zero)
    d = a * a - b * b * r
    return sa * ((d > 0) - (d < 0))


def _sign_quartic(c0: Rational, c1: Rational, c2: Rational, c3: Rational,
                  alpha: int) -> int:
    """Sign of c0 + c1*beta + c2*beta^2 + c3*beta^3 with beta = alpha^(1/4),
    where alpha is not a perfect square."""
    # value = A + beta*B,  A = c0 + c2*sqrt(alpha),  B = c1 + c3*sqrt(alpha)
    s_a = _sign_quadratic(c0, c2, alpha)
    s_b = _sign_quadratic(c1, c3, alpha)
    if s_b == 0 or s_a == s_b:
        return s_a
    if s_a == 0:
        return s_b
    # opposite signs: compare A^2 against beta^2 * B^2 inside Q(sqrt(alpha)).
    #   A^2            = (c0^2 + c2^2*alpha) + (2*c0*c2) * sqrt(alpha)
    #   beta^2 * B^2   = (2*c1*c3*alpha) + (c1^2 + c3^2*alpha) * sqrt(alpha)
    d0 = c0 * c0 + c2 * c2 * alpha - 2 * c1 * c3 * alpha
    d1 = 2 * c0 * c2 - c1 * c1 - c3 * c3 * alpha
    return s_a * _sign_quadratic(d0, d1, alpha)


def _integral(coeffs: Sequence[Rational]) -> list[int]:
    """The coefficients times the lcm of their denominators: a positive
    factor, so the sign is kept and the arithmetic stays on ints."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs]


def sign_of_coeffs(coeffs: Sequence[Rational], alpha: Alpha) -> int:
    """Exact sign of sum(coeffs[k] * beta^k).  Coefficients may be int or
    Fraction; only ring operations on them are performed.  At degrees 2
    and 4 a row holding any Fraction is first scaled to ints once, which
    is several times faster than ``fractions`` arithmetic."""
    dim = alpha.basis_dim
    c0 = coeffs[0]
    if dim == 1:
        return (c0 > 0) - (c0 < 0)
    c1 = coeffs[1]
    if dim == 2:
        if type(c0) is not int or type(c1) is not int:
            c0, c1 = _integral((c0, c1))
        return _sign_quadratic(c0, c1, alpha.radicand)
    c2, c3 = coeffs[2], coeffs[3]
    if not (type(c0) is type(c1) is type(c2) is type(c3) is int):
        c0, c1, c2, c3 = _integral((c0, c1, c2, c3))
    return _sign_quartic(c0, c1, c2, c3, alpha.alpha)


# ---------------------------------------------------------------------------
# step exponents: sigma = alpha^(q/4), q an integer in [0, q_max]
# ---------------------------------------------------------------------------


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
    a = canonicalize_alpha(alpha)
    return 4 * (ceil_log(a.alpha, w_max) + 1)


def step_coeffs(q: int, alpha: Alpha) -> tuple:
    """Integer coefficient vector of alpha^(q/4), a single basis monomial."""
    if q < 0:
        raise ValueError(f"step exponent {q} is negative")
    d, k = divmod(q, alpha.basis_dim)
    out = [0] * alpha.basis_dim
    out[k] = alpha.radicand ** d
    return tuple(out)


# ---------------------------------------------------------------------------
# fixed-point evaluation
#
# Independent of the algebraic sign rules above: brackets the value between
# integers at a given number of fractional bits of beta.
# ---------------------------------------------------------------------------


def _floor_root(x: int, deg: int) -> int:
    if deg == 1:
        return x
    if deg == 2:
        return isqrt(x)
    return _iroot4(x)


@lru_cache(maxsize=None)
def _beta_power_bounds(alpha: Alpha, bits: int) -> tuple:
    """Per basis power k, integers bounding beta^k * 2^((dim - 1) * bits)
    from below and above, from the root b = floor(beta * 2^bits)."""
    dim = alpha.basis_dim
    b = _floor_root(alpha.radicand << (dim * bits), dim)
    top = (dim - 1) * bits
    return tuple((b ** k << (top - k * bits), (b + 1) ** k << (top - k * bits))
                 for k in range(dim))


def _bracket(coeffs: Sequence[Rational], alpha: Alpha,
             bits: int) -> tuple[int, int, int]:
    """Integers (lo, hi, scale) with lo <= value * scale <= hi, where value
    is sum(coeffs[k] * beta^k) and beta is known to `bits` fractional
    bits.  Rational values (degree 1, or zero irrational coefficients)
    give lo == hi."""
    den = lcm(*(c.denominator for c in coeffs))
    lo = hi = 0
    for c, (plo, phi) in zip(coeffs, _beta_power_bounds(alpha, bits),
                             strict=True):
        n = c.numerator * (den // c.denominator)
        if n >= 0:
            lo += n * plo
            hi += n * phi
        else:
            lo += n * phi
            hi += n * plo
    return lo, hi, den << ((alpha.basis_dim - 1) * bits)


def interval_sign(coeffs: Sequence[Rational], alpha: Alpha) -> int:
    """Sign by fixed-point evaluation with 256 fractional bits of beta.

    Returns 0 when the enclosing interval straddles zero (the value may be
    zero or just smaller than the resolution); otherwise the exact sign.
    """
    lo, hi, _scale = _bracket(coeffs, alpha, 256)
    return (lo > 0) - (hi < 0)


def float_value(coeffs: Sequence[Rational], alpha: Alpha) -> float:
    """sum(coeffs[k] * beta^k) as a float: the midpoint of an 80-bit
    bracket, rounded once.  Values beyond the float range give +-inf."""
    lo, hi, scale = _bracket(coeffs, alpha, 80)
    try:
        return (lo + hi) / (2 * scale)
    except OverflowError:
        return inf if lo + hi > 0 else -inf
