"""Arithmetic over Q(alpha^(1/4)): canonical form, signs, steps, floats."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualvc.numeric import (Alpha, _bracket, canonicalize_alpha, ceil_log,
                            float_value, interval_sign, q_max_for,
                            sign_of_coeffs, step_coeffs)
from near_ties import near_zero


# -- canonical alpha ---------------------------------------------------------

def test_alpha_canonical_forms():
    # generic alpha: the full quartic basis
    a2 = canonicalize_alpha(2)
    assert (a2.basis_dim, a2.radicand) == (4, 2)
    a3 = canonicalize_alpha(3)
    assert (a3.basis_dim, a3.radicand) == (4, 3)
    # perfect square: alpha**(1/4) = sqrt(isqrt), quadratic basis
    a9 = canonicalize_alpha(9)
    assert (a9.basis_dim, a9.radicand) == (2, 3)
    # perfect fourth power: alpha**(1/4) is an integer, rational basis
    a16 = canonicalize_alpha(16)
    assert (a16.basis_dim, a16.radicand) == (1, 2)
    a81 = canonicalize_alpha(81)
    assert (a81.basis_dim, a81.radicand) == (1, 3)


def test_alpha_validation():
    for bad in (1, 0, -2):
        with pytest.raises(ValueError):
            canonicalize_alpha(bad)


def test_alpha_idempotent_and_hashable():
    a = canonicalize_alpha(2)
    assert canonicalize_alpha(2) == a
    assert len({canonicalize_alpha(2), canonicalize_alpha(2)}) == 1


def test_alpha_argument_returned_unchanged():
    a = canonicalize_alpha(9)
    assert canonicalize_alpha(a) is a
    made = Alpha(3, 4, 3)
    assert canonicalize_alpha(made) == made == canonicalize_alpha(3)


# -- exact signs -------------------------------------------------------------

def test_sign_fourth_root_of_two_bisection_constant():
    # floor(2**(3/4) * 10**10) computed independently by integer arithmetic:
    # 16817928305**4 < 2**3 * 10**40 < 16817928306**4.
    lo, hi = 16817928305, 16817928306
    assert lo ** 4 < 8 * 10 ** 40 < hi ** 4
    a2 = canonicalize_alpha(2)
    # sign(lo/10**10 - beta**3) must be negative, hi positive
    assert sign_of_coeffs(
        (Fraction(lo, 10 ** 10), 0, 0, -1), a2) == -1
    assert sign_of_coeffs(
        (Fraction(hi, 10 ** 10), 0, 0, -1), a2) == 1


def test_sign_quadratic_basis():
    a9 = canonicalize_alpha(9)  # beta = sqrt(3)
    assert sign_of_coeffs((Fraction(17, 10), -1), a9) == -1  # 1.7 < sqrt(3)
    assert sign_of_coeffs((Fraction(18, 10), -1), a9) == 1   # 1.8 > sqrt(3)
    assert sign_of_coeffs((0, 0), a9) == 0


def test_sign_zero_and_rational():
    a2 = canonicalize_alpha(2)
    assert sign_of_coeffs((0, 0, 0, 0), a2) == 0
    assert sign_of_coeffs((Fraction(-1, 7), 0, 0, 0), a2) == -1
    assert sign_of_coeffs((3, 0, 0, 0), a2) == 1


@pytest.mark.parametrize("alpha", [2, 9])
def test_fraction_row_signs_as_its_integer_scaled_row(alpha):
    """At degrees 4 and 2 a row holding Fractions has the sign of the same
    row times the lcm of its denominators, an int row: on random rows that
    mix ints and Fractions, and on Pell near-ties far below float
    resolution divided by a common denominator, whose sign is known."""
    a = canonicalize_alpha(alpha)
    dim = a.basis_dim
    rng = random.Random(alpha)
    cases = []
    for n in (3, 12, 24):
        tie = near_zero(alpha, dim, n)
        for sign in (1, -1):
            d = rng.randint(2, 10 ** 6)
            cases.append(([Fraction(sign * c, d) for c in tie], sign))
    for _ in range(300):
        row = [Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 1000))
               if rng.random() < 0.7 else rng.randint(-10 ** 6, 10 ** 6)
               for _ in range(dim)]
        cases.append((row, interval_sign(row, a)))
    for row, expected in cases:
        den = math.lcm(*(Fraction(c).denominator for c in row))
        scaled = [int(c * den) for c in row]
        assert sign_of_coeffs(row, a) == sign_of_coeffs(scaled, a)
        if expected:  # interval_sign reads 0 where it cannot tell
            assert sign_of_coeffs(row, a) == expected
    assert sum(1 for _row, expected in cases if expected) >= 250


small_fractions = st.fractions(
    min_value=-50, max_value=50, max_denominator=16)


@st.composite
def coeff_rows(draw, alphas=(2, 3, 5, 9, 16)):
    """A coefficient row and the alpha it is a row over."""
    alpha = canonicalize_alpha(draw(st.sampled_from(alphas)))
    coeffs = tuple(draw(small_fractions) for _ in range(alpha.basis_dim))
    return coeffs, alpha


@settings(max_examples=300, deadline=None)
@given(coeff_rows())
def test_sign_matches_interval_oracle(value):
    coeffs, alpha = value
    assert sign_of_coeffs(coeffs, alpha) == interval_sign(coeffs, alpha)


@settings(max_examples=200, deadline=None)
@given(coeff_rows())
def test_bracket_encloses_value(value):
    # lo <= value * scale <= hi, decided exactly; 8 bits keeps it coarse
    coeffs, alpha = value
    for bits in (8, 80):
        lo, hi, scale = _bracket(coeffs, alpha, bits)
        scaled = [c * scale for c in coeffs]
        for bound, side in ((lo, 1), (hi, -1)):
            diff = (scaled[0] - bound,) + tuple(scaled[1:])
            assert side * sign_of_coeffs(diff, alpha) >= 0


# -- step exponents ----------------------------------------------------------

def test_ceil_log_examples():
    assert ceil_log(2, 1) == 0
    assert ceil_log(2, 2) == 1
    assert ceil_log(2, 3) == 2
    assert ceil_log(2, 256) == 8
    assert ceil_log(2, 257) == 9
    assert ceil_log(3, 9) == 2
    assert ceil_log(3, 10) == 3
    for alpha, w in ((1, 2), (0, 2), (2, 0)):     # would loop forever
        with pytest.raises(ValueError):
            ceil_log(alpha, w)


def test_q_max_for():
    # cap exponent is 4 * (ceil(log_alpha w) + 1) quarter-steps
    assert q_max_for(2, 256) == 4 * 9
    assert q_max_for(2, 1) == 4
    assert q_max_for(16, 16) == 8


@pytest.mark.parametrize("alpha", [2, 3, 9, 16])
def test_step_coeffs_quarter_identities(alpha):
    a = canonicalize_alpha(alpha)
    q_cap = q_max_for(a, alpha ** 6)
    for q in range(q_cap + 1):
        sv = step_coeffs(q, a)
        # a single basis monomial with a positive integer coefficient
        assert all(isinstance(c, int) for c in sv)
        assert sum(c != 0 for c in sv) == 1 and max(sv) > 0
        if q >= 4:
            assert sv == tuple(alpha * c for c in step_coeffs(q - 4, a))


def test_step_coeffs_integer_grid():
    a2 = canonicalize_alpha(2)
    assert step_coeffs(0, a2) == (1, 0, 0, 0)
    assert step_coeffs(8, a2) == (4, 0, 0, 0)
    # off-grid exponents are pure beta powers
    assert step_coeffs(5, a2) == (0, 2, 0, 0)
    assert step_coeffs(6, canonicalize_alpha(9)) == (27, 0)
    assert step_coeffs(3, canonicalize_alpha(16)) == (8,)


def test_step_coeffs_rejects_out_of_range():
    a2 = canonicalize_alpha(2)
    with pytest.raises(ValueError):
        step_coeffs(-1, a2)


# -- float values ------------------------------------------------------------

def test_float_value_rational_is_exact():
    a2 = canonicalize_alpha(2)
    for k in (0, 1, 7, 255, 2 ** 40):
        assert float_value((k, 0, 0, 0), a2) == float(k)


def test_float_value_known_irrational():
    a2 = canonicalize_alpha(2)
    assert float_value((0, 1, 0, 0), a2) == pytest.approx(2 ** 0.25,
                                                          rel=1e-15)


def test_float_value_beyond_float_range_is_infinite():
    a2 = canonicalize_alpha(2)
    assert float_value((2 ** 1000, 0, 0, 0), a2) == 2.0 ** 1000
    assert float_value((2 ** 1030, 0, 0, 0), a2) == math.inf
    assert float_value((0, -2 ** 1030, 0, 0), a2) == -math.inf
    assert float_value((Fraction(2 ** 1100, 3),), canonicalize_alpha(16)) \
        == math.inf


# -- misc --------------------------------------------------------------------

def test_interval_sign_narrow_gap():
    # 665857/470832 is a convergent of sqrt(2): the difference is ~1e-12 and
    # must still be resolved exactly.
    a9 = canonicalize_alpha(4)  # beta = sqrt(2)
    assert a9.basis_dim == 2
    v = (Fraction(665857, 470832), -1)
    assert sign_of_coeffs(v, a9) == interval_sign(v, a9) == 1


def test_random_sign_stress_mixed_magnitudes():
    rng = random.Random(7)
    a2 = canonicalize_alpha(2)
    for _ in range(500):
        coeffs = tuple(Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                rng.randint(1, 1000)) for _ in range(4))
        sign = sign_of_coeffs(coeffs, a2)
        assert sign == interval_sign(coeffs, a2)
        fv = float_value(coeffs, a2)
        if abs(fv) >= 2.0 ** -20:
            assert (fv > 0) - (fv < 0) == sign


def test_float_value_beta_powers():
    for alpha in (2, 3, 9, 16):
        a = canonicalize_alpha(alpha)
        root = alpha ** 0.25
        for k in range(a.basis_dim):
            coeffs = tuple(1 if i == k else 0 for i in range(a.basis_dim))
            got = float_value(coeffs, a)
            assert math.isclose(got, root ** k, rel_tol=1e-13)
