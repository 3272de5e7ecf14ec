"""Small dense linear algebra on plain Python lists.

The NDF integrator factors its Newton matrix I - c J with lu_factor and
solves each Newton correction with lu_solve (integrators._integrate_ndf),
on lists, since numpy's per-call overhead would dominate at dimension 5.
The drag-matrix inverse columns in the dynamics hot loop come from an
unrolled block elimination instead (dynamics._raw_fields); lu_det serves the
test suite's determinant reference. Partial (row) pivoting keeps the solve
stable for any nonsingular matrix.
"""
from __future__ import annotations


class SingularMatrixError(ArithmeticError):
    """Zero pivot encountered: the matrix is singular to working precision."""


def lu_factor(a: list[list[float]]) -> tuple[list[int], float]:
    """LU-factorize a (n x n, list of row lists) in place with partial pivoting.

    On return a holds L (unit diagonal, below) and U (on and above). Returns
    (row_permutation, parity) where row_permutation[i] is the original index
    of the row now in position i and parity is the permutation sign.
    """
    n = len(a)
    perm = list(range(n))
    parity = 1.0
    for k in range(n):
        p = k
        big = abs(a[k][k])
        for r in range(k + 1, n):
            t = abs(a[r][k])
            if t > big:
                big, p = t, r
        if big == 0.0:
            raise SingularMatrixError(f"zero pivot in column {k}")
        if p != k:
            a[k], a[p] = a[p], a[k]
            perm[k], perm[p] = perm[p], perm[k]
            parity = -parity
        inv = 1.0 / a[k][k]
        ak = a[k]
        for r in range(k + 1, n):
            ar = a[r]
            lam = ar[k] * inv
            ar[k] = lam
            if lam != 0.0:
                for c in range(k + 1, n):
                    ar[c] -= lam * ak[c]
    return perm, parity


def lu_det(a: list[list[float]], parity: float) -> float:
    """Determinant from the factored matrix."""
    d = parity
    for k in range(len(a)):
        d *= a[k][k]
    return d


def lu_solve(a: list[list[float]], perm: list[int], b: list[float]) -> list[float]:
    """Solve A x = b given lu_factor output. b is indexed pre-permutation."""
    n = len(a)
    if n == 3:  # the closed loop's Newton system, in the loops' operation order
        (a0, a1, a2), (p0, p1, p2) = a, perm
        x0 = b[p0]
        x1 = b[p1] - a1[0] * x0
        x2 = (b[p2] - a2[0] * x0 - a2[1] * x1) / a2[2]
        x1 = (x1 - a1[2] * x2) / a1[1]
        return [(x0 - a0[1] * x1 - a0[2] * x2) / a0[0], x1, x2]
    x = [b[perm[r]] for r in range(n)]
    for r in range(1, n):
        ar = a[r]
        s = x[r]
        for c in range(r):
            s -= ar[c] * x[c]
        x[r] = s
    for r in range(n - 1, -1, -1):
        ar = a[r]
        s = x[r]
        for c in range(r + 1, n):
            s -= ar[c] * x[c]
        x[r] = s / ar[r]
    return x

