"""Prime-field symbol arithmetic and exact linear algebra.

Field elements are plain Python ints reduced mod q (no lazy reduction, no
log tables: exactness over speed at desk scale); a run of symbols (a file,
a subfile, a coded segment) is a plain tuple of them, reduced by whoever
builds it.  The default modulus used
by the caching scheme is 257; q = 2 is fully supported so privacy audits can
enumerate every library realization.

Gaussian elimination carries explicit status reporting and never returns a
silently wrong answer on singular or inconsistent systems; every solver runs
one rows -> ``rref`` -> consistency body.  Two take many right-hand sides in
one elimination: ``determined_unknowns`` extracts the exact values of chosen
unknowns from a system that is underdetermined overall (a cache-aided decoder
needs only the requested file's subfiles), and ``solve_any`` returns one
particular solution, or None, per right-hand-side column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in small:
        return True
    if any(n % p == 0 for p in small):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field of integers mod q, q prime (checked at construction)."""

    q: int

    def __post_init__(self):
        if not is_prime(self.q):
            raise ValueError(f"modulus {self.q} is not prime")

    def reduce(self, a: int) -> int:
        return a % self.q

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q

    def neg(self, a: int) -> int:
        return (-a) % self.q

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of 0 in a prime field")
        return pow(a, self.q - 2, self.q)


class InconsistentSystemError(ValueError):
    """The linear system has no solution."""


def rref(field: PrimeField, rows: list[list[int]], n_coef: int) -> list[int]:
    """Reduced row echelon form in place over the first ``n_coef`` columns.

    Columns beyond ``n_coef`` ride along as right-hand sides.  Returns the
    list of pivot columns; after the call, row i holds pivot i.
    """
    q = field.q
    pivots: list[int] = []
    rank = 0
    for col in range(n_coef):
        pivot_row = None
        for i in range(rank, len(rows)):
            if rows[i][col] % q:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        head = rows[rank][col] % q
        if head != 1:
            s = field.inv(head)
            rows[rank] = [(x * s) % q for x in rows[rank]]
        prow = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % q:
                f = rows[i][col] % q
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], prow)]
        pivots.append(col)
        rank += 1
    return pivots


def _as_rows(field: PrimeField, matrix: Sequence[Sequence[int]], rhs_rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    if len(matrix) != len(rhs_rows):
        raise ValueError("matrix and right-hand side row counts differ")
    q = field.q
    n_coef = len(matrix[0]) if matrix else 0
    rows = []
    for coef, rhs in zip(matrix, rhs_rows):
        if len(coef) != n_coef:
            raise ValueError("ragged matrix")
        rows.append([x % q for x in coef] + [x % q for x in rhs])
    return rows, n_coef


def _eliminate(field: PrimeField, matrix: Sequence[Sequence[int]], rhs_rows: Sequence[Sequence[int]]):
    """The body every solver shares: rows, then ``rref``, then consistency.

    Returns the reduced rows, the coefficient count, the pivot columns and,
    per right-hand-side column b_j, whether A x = b_j has a solution.
    """
    rows, n_coef = _as_rows(field, matrix, rhs_rows)
    pivots = rref(field, rows, n_coef)
    n_rhs = len(rows[0]) - n_coef if rows else 0
    consistent = [not any(row[n_coef + j] for row in rows[len(pivots):]) for j in range(n_rhs)]
    return rows, n_coef, pivots, consistent


def gaussian_solve(field: PrimeField, matrix: Sequence[Sequence[int]], rhs: Iterable[int]):
    """Solve A x = b over the field.

    Returns ("unique", x) when A has full column rank on a consistent system,
    ("underdetermined", None) or ("inconsistent", None) otherwise.
    """
    rows, n_coef, pivots, consistent = _eliminate(field, matrix, [[x] for x in rhs])
    if not all(consistent):
        return ("inconsistent", None)
    if len(pivots) < n_coef:
        return ("underdetermined", None)
    # full column rank: row i holds the pivot of column i
    return ("unique", tuple(rows[i][n_coef] for i in range(n_coef)))


def solve_any(field: PrimeField, matrix: Sequence[Sequence[int]],
              rhs_rows: Sequence[Sequence[int]]) -> list[tuple[int, ...] | None]:
    """One particular solution of A x = b_j (free unknowns set to 0) for every
    right-hand-side column b_j of ``rhs_rows``, or None for a column whose
    system is inconsistent.  A single elimination serves all columns; with no
    rows there are no columns and the result is empty."""
    rows, n_coef, pivots, consistent = _eliminate(field, matrix, rhs_rows)
    solutions: list[tuple[int, ...] | None] = []
    for j, ok in enumerate(consistent):
        if not ok:
            solutions.append(None)
            continue
        x = [0] * n_coef
        for i, col in enumerate(pivots):
            x[col] = rows[i][n_coef + j]
        solutions.append(tuple(x))
    return solutions


def determined_unknowns(
    field: PrimeField,
    matrix: Sequence[Sequence[int]],
    rhs_rows: Sequence[Sequence[int]],
    wanted: Iterable[int],
) -> dict[int, tuple[int, ...]]:
    """Exact values of the ``wanted`` unknowns, for every RHS column at once.

    An unknown is determined when it takes the same value in every solution
    of the (possibly underdetermined) system: its column is a pivot whose row
    has zero entries in all free columns.  Unknowns that are not determined
    are simply absent from the result.  Raises InconsistentSystemError when
    the system has no solution at all.
    """
    rows, n_coef, pivots, consistent = _eliminate(field, matrix, rhs_rows)
    if not all(consistent):
        raise InconsistentSystemError("no solution")
    pivot_row = {col: i for i, col in enumerate(pivots)}
    free = [c for c in range(n_coef) if c not in pivot_row]
    out: dict[int, tuple[int, ...]] = {}
    for j in wanted:
        i = pivot_row.get(j)
        if i is None:
            continue
        if any(rows[i][f] for f in free):
            continue
        out[j] = tuple(rows[i][n_coef:])
    return out
