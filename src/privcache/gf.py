"""Prime-field symbol arithmetic and exact linear algebra.

Field elements are plain Python ints reduced mod q (no lazy reduction, no
log tables: exactness over speed at desk scale); a run of symbols (a file,
a subfile, a coded segment) is a plain tuple of them, reduced by whoever
builds it.  The default modulus used
by the caching scheme is 257; q = 2 is fully supported so privacy audits can
enumerate every library realization.

Gaussian elimination carries explicit status reporting and never returns a
silently wrong answer on singular or inconsistent systems.  Sparse rows
are the one system format: a row is a dict from column to nonzero value,
with right-hand side j at column n_coef + j.  Both solvers end in the
sparse Gauss-Jordan kernel ``rref`` and read consistency off the rows past
the rank, which hold right-hand-side entries only; both take many
right-hand sides in one elimination: ``determined_unknowns`` extracts the
exact values of chosen unknowns from a system that is underdetermined
overall (a cache-aided decoder needs only the requested file's subfiles),
and ``solve_any`` returns one particular solution, or None, per
right-hand-side column.  ``determined_unknowns`` is a query on a
``SparseSystem``, built once with its column index and holder counts and
never mutated: each query names the columns it knows, with their values,
and the columns it wants.  It first peels the system, as structured
Gaussian elimination does (LaMacchia and Odlyzko, CRYPTO 1990): a free
column held by one row is dropped with that row, on the shared counts
before any value is computed, then the kept rows get values and singleton
rows are solved by substitution, so only the residue reaches ``rref``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n in _MR_BASES:
        return True
    if any(n % p == 0 for p in _MR_BASES):
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

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of 0 in a prime field")
        return pow(a, self.q - 2, self.q)


class InconsistentSystemError(ValueError):
    """The linear system has no solution."""


Row = dict[int, int]  # column -> nonzero value in [1, q); right-hand side j at column n_coef + j


def rref(field: PrimeField, rows: list[Row], n_coef: int) -> list[int]:
    """Sparse Gauss-Jordan to reduced row echelon form, in place, over the
    first ``n_coef`` columns.

    Columns from ``n_coef`` on ride along as right-hand sides.  Returns the
    list of pivot columns; after the call, row i holds pivot i and the rows
    past the rank hold right-hand-side entries only.  The columns some row
    holds are taken in order (fill-in only spreads columns already held) and
    each pivot touches only the rows that hold its column; among
    those, the row with the fewest nonzeros is the pivot, to limit fill-in.
    The reduced form is unique, so the choice never shows in the result.
    """
    q = field.q
    holders: dict[int, set[int]] = {}  # coefficient column -> rows holding it
    for i, row in enumerate(rows):
        for c in row:
            if c < n_coef:
                holders.setdefault(c, set()).add(i)
    is_pivot = [False] * len(rows)
    pivots: list[int] = []
    pivot_rows: list[int] = []
    for col in sorted(holders):
        held = holders[col]
        free_rows = [i for i in held if not is_pivot[i]]
        if not free_rows:
            continue
        p = min(free_rows, key=lambda i: len(rows[i]))
        prow = rows[p]
        head = prow[col]
        if head != 1:
            s = field.inv(head)
            for c in prow:
                prow[c] = prow[c] * s % q
        others = [(c, v) for c, v in prow.items() if c != col]
        for i in held:
            if i == p:
                continue
            row = rows[i]
            f = row.pop(col)
            for c, v in others:
                if c in row:
                    x = (row[c] - f * v) % q
                    if x:
                        row[c] = x
                    else:
                        del row[c]
                        if c < n_coef:
                            holders[c].discard(i)
                else:
                    row[c] = -f * v % q
                    if c < n_coef:
                        holders[c].add(i)
        is_pivot[p] = True
        pivots.append(col)
        pivot_rows.append(p)
    rows[:] = [rows[p] for p in pivot_rows] + [row for i, row in enumerate(rows) if not is_pivot[i]]
    return pivots


def solve_any(field: PrimeField, rows: list[Row], n_coef: int, n_rhs: int) -> list[tuple[int, ...] | None]:
    """One particular solution of A x = b_j (free unknowns set to 0) for every
    right-hand-side column b_j, or None for a column whose system is
    inconsistent.  ``rows`` are sparse rows of [A | B] and are reduced in
    place; a single elimination serves all ``n_rhs`` columns.  A x = b_j is
    consistent iff no row past the rank holds column n_coef + j."""
    pivots = rref(field, rows, n_coef)
    held = {c for row in rows[len(pivots):] for c in row}
    solutions: list[tuple[int, ...] | None] = []
    for j in range(n_rhs):
        if n_coef + j in held:
            solutions.append(None)
            continue
        x = [0] * n_coef
        for i, col in enumerate(pivots):
            x[col] = rows[i].get(n_coef + j, 0)
        solutions.append(tuple(x))
    return solutions


class SparseSystem:
    """A sparse system [A | B] built once and queried by ``determined_unknowns``
    under many sets of known columns.

    ``rows`` are sparse rows of [A | B] and are never mutated.  ``cols[i]``
    lists the coefficient columns of row i, ``holders[c]`` the rows holding
    column c and ``counts[c]`` their number; both are lists indexed by column.
    """

    def __init__(self, field: PrimeField, rows: Iterable[Row], n_coef: int, n_rhs: int):
        self.field, self.n_coef, self.n_rhs = field, n_coef, n_rhs
        self.rows = tuple(rows)
        self.cols = tuple(tuple(c for c in row if c < n_coef) for row in self.rows)
        self.holders: list[list[int]] = [[] for _ in range(n_coef)]
        for i, cols in enumerate(self.cols):
            for c in cols:
                self.holders[c].append(i)
        self.counts = [len(held) for held in self.holders]


def determined_unknowns(
    system: SparseSystem,
    known: Mapping[int, Sequence[int]],
    wanted: Iterable[int],
) -> dict[int, tuple[int, ...]]:
    """Exact values of the ``wanted`` unknowns, for every RHS column at once.

    ``known`` maps a coefficient column to its values, one per right-hand
    side; those columns move to the right-hand side and every other column is
    an unknown.  A column both known and wanted is a ValueError.  The system
    is left as it was.  An unknown is determined when it takes the same value
    in every solution of the (possibly underdetermined) system.  Unknowns that
    are not determined are simply absent from the result.  Raises
    InconsistentSystemError when the system has no solution at all.

    Two reductions run before any elimination, each preserving consistency
    and the determinacy of every wanted unknown:

    (a) A singleton row, one unknown column c, fixes x_c.  Its value is
        substituted into the right-hand side of every other row holding c; a
        row left with no unknown column must have a zero right-hand side.
    (b) A column that is not wanted and is held by exactly one row can satisfy
        that row whatever the other unknowns are, so the solutions of the rest
        of the system are exactly the projections of the whole system's
        solutions: the row and its column are dropped.

    (a) changes no column's holder count but its own, and (b) changes no
    remaining row's width, so neither makes work for the other and they
    commute.  So (b) runs first, on a copy of the system's holder counts and
    before any value is computed; values are built only for the rows it
    keeps, known columns moved to the right-hand side, and (a) runs on those.
    The residue, possibly empty, goes through ``rref``: it is consistent iff
    every row past the rank is empty, and an unknown is determined when its
    column is a pivot whose reduced row holds no coefficient column but its
    own.
    """
    field, n_coef, n_rhs = system.field, system.n_coef, system.n_rhs
    q = field.q
    wanted = list(wanted)
    clash = sorted(c for c in wanted if c in known)
    if clash:
        raise ValueError(f"columns both known and wanted: {clash}")
    rows, cols, holders = system.rows, system.cols, system.holders
    live = [True] * len(rows)

    pinned = [False] * n_coef  # wanted or known: never a free column
    for c in (*wanted, *known):
        pinned[c] = True
    count = system.counts.copy()  # (b): column -> live rows holding it
    frees = [c for c, n in enumerate(count) if n == 1 and not pinned[c]]
    while frees:
        c = frees.pop()
        if count[c] != 1:
            continue
        for i in holders[c]:
            if live[i]:
                break
        live[i] = False
        for c in cols[i]:
            count[c] -= 1
            if count[c] == 1 and not pinned[c]:
                frees.append(c)

    values: list[Row | None] = [None] * len(rows)  # kept row -> its entries, known columns moved
    width = [0] * len(rows)  # unknown columns per kept row
    singles = []
    for i, row in enumerate(rows):
        if not live[i]:
            continue
        val = dict(row)
        n = len(cols[i])
        for c in cols[i]:
            x = known.get(c)
            if x is None:
                continue
            f = val.pop(c)
            n -= 1
            for j, y in enumerate(x):
                k = n_coef + j
                z = (val.get(k, 0) - f * y) % q
                if z:
                    val[k] = z
                elif k in val:
                    del val[k]
        if n == 0:
            if val:
                raise InconsistentSystemError("no solution")
            live[i] = False
            continue
        values[i] = val
        width[i] = n
        if n == 1:
            singles.append(i)

    fixed: dict[int, Row] = {}  # (a): unknown -> its values, as right-hand-side entries
    while singles:
        i = singles.pop()
        if not live[i]:
            continue
        live[i] = False
        row = values[i]
        for c in cols[i]:
            if c in row:
                break
        s = field.inv(row.pop(c))
        value = {k: x * s % q for k, x in row.items()}
        fixed[c] = value
        for k in holders[c]:
            if not live[k]:
                continue
            other = values[k]
            f = other.pop(c)
            for col, x in value.items():
                y = (other.get(col, 0) - f * x) % q
                if y:
                    other[col] = y
                else:
                    del other[col]
            width[k] -= 1
            if width[k] == 1:
                singles.append(k)
            elif width[k] == 0:
                if other:
                    raise InconsistentSystemError("no solution")
                live[k] = False

    residue = [values[i] for i in range(len(rows)) if live[i]]
    pivots = rref(field, residue, n_coef)
    if any(residue[len(pivots):]):
        raise InconsistentSystemError("no solution")
    pivot_row = {col: i for i, col in enumerate(pivots)}
    rhs = range(n_coef, n_coef + n_rhs)
    out: dict[int, tuple[int, ...]] = {}
    for j in wanted:
        if j in fixed:
            row = fixed[j]
        else:
            i = pivot_row.get(j)
            if i is None:
                continue
            row = residue[i]
            if any(c < n_coef and c != j for c in row):
                continue
        out[j] = tuple([row.get(k, 0) for k in rhs])
    return out
