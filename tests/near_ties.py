"""Values of Q(alpha^(1/4)) just above zero, from Pell units: shared by the
tests that hold the engines' load tests to the exact sign on gaps far below
float resolution."""

#: Per alpha: R with sqrt(R) a basis element, its coordinate, and the
#: fundamental solution of p^2 - R*q^2 = 1.
PELL = {2: (2, 2, (3, 2)), 9: (3, 1, (2, 1))}


def near_zero(alpha, dim, n):
    """p - q*sqrt(R) = 1 / (p + q*sqrt(R)) > 0 for the n-th Pell solution,
    as a coefficient row: a value far below float resolution relative to
    its coefficients once n is large."""
    r, k, (p0, q0) = PELL[alpha]
    p, q = p0, q0
    for _ in range(n):
        p, q = p * p0 + r * q * q0, p * q0 + q * p0
    row = [0] * dim
    row[0], row[k] = p, -q
    return row
