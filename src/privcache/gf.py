"""Prime-field symbol arithmetic and exact linear algebra.

Field elements are plain Python ints reduced mod q (no lazy reduction, no
log tables: exactness over speed at desk scale); a run of symbols (a file,
a subfile, a coded segment) is a plain tuple of them, reduced by whoever
builds it.  The default modulus used
by the caching scheme is 257; q = 2 is fully supported so privacy audits can
enumerate every library realization.

Gaussian elimination carries explicit status reporting and never returns a
silently wrong answer on singular or inconsistent systems.  Elimination
works on dict rows: a row is a dict from column to nonzero value, with
right-hand side j at column n_coef + j.  Both solvers end in the sparse
Gauss-Jordan kernel ``rref`` and read consistency off the rows past the
rank, which hold right-hand-side entries only; both take many right-hand
sides in one elimination: ``determined_unknowns`` extracts the exact values
of chosen unknowns from a system that is underdetermined overall (a
cache-aided decoder needs only the requested file's subfiles), and
``solve_any`` returns one particular solution, or None, per
right-hand-side column.  ``determined_unknowns`` is a query on a
``SparseSystem``, built once and never mutated.  It stores each row split:
a tuple of coefficient columns, a tuple of their values and a tuple of the
right-hand sides, zeros included; next to them, its column index, holder
counts and once-held columns.  Each query names the columns it knows, with
their values, and the columns it wants.  It first peels the system, as
structured Gaussian elimination does (LaMacchia and Odlyzko, CRYPTO 1990):
a free column held by one row is dropped with that row, on a copy of the
counts before any value is computed, then only the kept rows get a working
copy and singleton rows are solved by substitution, so only the residue
reaches ``rref``, as dict rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Mapping, Sequence

# Miller-Rabin witnesses: the first 13 primes decide primality exactly for
# every n below psi_13 = 3317044064679887385961981 (the least strong
# pseudoprime to all of them; Sorenson and Webster, Math. Comp. 2017).  The
# first 12 are not enough: psi_12 = 318665857834031151167461 passes them all.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact for n < ``_MR_BOUND``; raises ValueError at or above it, where
    no fixed witness set is proven."""
    if n >= _MR_BOUND:
        raise ValueError(f"modulus {n} is not below {_MR_BOUND}, the bound up to which primality is decided exactly")
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
    """The field of integers mod q, q a prime below ``_MR_BOUND`` (checked at
    construction by ``is_prime``)."""

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
    those, the row with the fewest nonzeros is the pivot, to limit fill-in,
    the first such row on a tie.  The reduced form is unique, so the choice
    never shows in the result.  A pivot of -1 is scaled by -1, with no field
    inverse.
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
        p, size = -1, 0
        for i in held:
            if not is_pivot[i] and (p < 0 or len(rows[i]) < size):
                p, size = i, len(rows[i])
        if p < 0:
            continue
        prow = rows[p]
        head = prow[col]
        if head != 1:
            s = q - 1 if head == q - 1 else field.inv(head)
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


SplitRow = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]  # columns, their values, right-hand sides


class SparseSystem:
    """A sparse system [A | B] built once and queried by ``determined_unknowns``
    under many sets of known columns.

    Each row comes split: ``cols[i]`` lists its distinct coefficient
    columns, ``coefs[i]`` their values in [1, q), in the same order, and
    ``rhs[i]`` its ``n_rhs`` right-hand sides, zeros included.  None of them
    is ever mutated.  ``holders[c]`` lists the rows holding column c and
    ``counts[c]`` their number, both indexed by column, and ``once`` the
    columns exactly one row holds, in column order.
    """

    def __init__(self, field: PrimeField, rows: Iterable[SplitRow], n_coef: int, n_rhs: int):
        self.field, self.n_coef, self.n_rhs = field, n_coef, n_rhs
        self.cols, self.coefs, self.rhs = tuple(zip(*rows)) or ((), (), ())
        self.holders: list[list[int]] = [[] for _ in range(n_coef)]
        for i, cols in enumerate(self.cols):
            for c in cols:
                self.holders[c].append(i)
        self.counts = list(map(len, self.holders))
        self.once = [c for c, n in enumerate(self.counts) if n == 1]


def determined_unknowns(
    system: SparseSystem,
    known: Mapping[int, Sequence[int]],
    wanted: Iterable[int],
) -> dict[int, tuple[int, ...]]:
    """Exact values of the ``wanted`` unknowns, for every RHS column at once.

    ``known`` maps a coefficient column to its values, one per right-hand
    side; those columns move to the right-hand side and every other column is
    an unknown.  A column outside [0, n_coef), a known value that is not
    n_rhs long, or a column both known and wanted is a ValueError naming the
    columns.  The system is left as it was.  An unknown is determined when it
    takes the same value in every solution of the (possibly underdetermined)
    system.  Unknowns that are not determined are simply absent from the
    result.  Raises InconsistentSystemError when the system has no solution
    at all.

    Two reductions run before any elimination, each preserving consistency
    and the determinacy of every wanted unknown:

    (a) A singleton row, one unknown column c, fixes x_c.  Its value is
        substituted into the right-hand side of every other row holding c; a
        row left with no unknown column stays, right-hand sides only, for the
        consistency check on the residue.
    (b) A column that is not wanted and is held by exactly one row can satisfy
        that row whatever the other unknowns are, so the solutions of the rest
        of the system are exactly the projections of the whole system's
        solutions: the row and its column are dropped.

    (a) changes no column's holder count but its own, and (b) changes no
    remaining row's width, so neither makes work for the other and they
    commute.  So (b) runs first, from the system's once-held columns on a
    copy of its holder counts, before any value is computed.  Only the rows
    it keeps get a working copy, their unknown coefficients as a dict and
    their right-hand sides as a list with the known columns moved in, and
    (a) runs on those, from the rows that are singletons once the known
    columns are moved; a +-1 coefficient is solved for without a field
    inverse.  Every value it fixes is forced, so the fixed values and the
    residue do not depend on the order it pops rows in.  The residue,
    possibly empty, goes through ``rref`` as dict rows.  The system is
    consistent iff every row past the rank is empty, and this is the one
    place an inconsistency is reported.  An unknown is determined when its
    column is a pivot whose reduced row holds no coefficient column but its
    own.
    """
    field, n_coef, n_rhs = system.field, system.n_coef, system.n_rhs
    q = field.q
    wanted = list(wanted)
    named = [*known, *wanted]
    if named and not (0 <= min(named) and max(named) < n_coef):
        raise ValueError(f"columns outside [0, {n_coef}): {sorted({c for c in named if not 0 <= c < n_coef})}")
    misshapen = sorted(c for c, x in known.items() if len(x) != n_rhs)
    if misshapen:
        raise ValueError(f"known columns whose values are not {n_rhs} long: {misshapen}")
    clash = sorted(known.keys() & wanted)
    if clash:
        raise ValueError(f"columns both known and wanted: {clash}")
    cols, coefs, rhs, holders = system.cols, system.coefs, system.rhs, system.holders
    m = len(cols)
    live = [True] * m

    count = system.counts.copy()  # (b): column -> live rows holding it
    for c in named:
        count[c] += 2  # wanted or known: never a free column, its count never falls to 1
    frees = [c for c in system.once if count[c] == 1]
    while frees:
        c = frees.pop()
        if count[c] != 1:
            continue
        for i in holders[c]:
            if live[i]:
                break
        live[i] = False
        for c in cols[i]:
            n = count[c] - 1
            count[c] = n
            if n == 1:
                frees.append(c)

    unknowns: list[Row | None] = [None] * m  # kept row -> its unknown columns' coefficients
    values: list[list[int] | None] = [None] * m  # kept row -> its right-hand sides, known columns moved in
    for i in compress(range(m), live):
        unknowns[i] = dict(zip(cols[i], coefs[i]))
        values[i] = list(rhs[i])
    for c, x in known.items():
        for i in holders[c]:
            if live[i]:
                a = unknowns[i].pop(c)
                b = values[i]
                for j, y in enumerate(x):
                    b[j] = (b[j] - a * y) % q
    singles = [i for i in compress(range(m), live) if len(unknowns[i]) == 1]

    fixed: dict[int, list[int]] = {}  # (a): unknown -> its values, one per right-hand side
    while singles:
        i = singles.pop()
        if len(unknowns[i]) != 1:
            continue  # its unknown was fixed by another row since: it stays live, for the residue check
        live[i] = False
        (c, a), = unknowns[i].items()
        value = values[i]
        if a == q - 1:
            value = [-x % q for x in value]
        elif a != 1:
            s = field.inv(a)
            value = [x * s % q for x in value]
        fixed[c] = value
        for k in holders[c]:
            if not live[k]:
                continue
            other, b = unknowns[k], values[k]
            f = other.pop(c)
            for j, x in enumerate(value):
                b[j] = (b[j] - f * x) % q
            if len(other) == 1:
                singles.append(k)

    residue = []
    for i in compress(range(m), live):
        row = unknowns[i]
        for j, x in enumerate(values[i]):
            if x:
                row[n_coef + j] = x
        residue.append(row)
    pivots = rref(field, residue, n_coef)
    if any(residue[len(pivots):]):
        raise InconsistentSystemError("no solution")
    pivot_row = {col: i for i, col in enumerate(pivots)}
    rhs_cols = range(n_coef, n_coef + n_rhs)
    out: dict[int, tuple[int, ...]] = {}
    for j in wanted:
        if j in fixed:
            out[j] = tuple(fixed[j])
            continue
        i = pivot_row.get(j)
        if i is None:
            continue
        row = residue[i]
        if any(c < n_coef and c != j for c in row):
            continue
        out[j] = tuple([row.get(k, 0) for k in rhs_cols])
    return out
