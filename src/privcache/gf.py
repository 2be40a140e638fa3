"""Prime-field symbol arithmetic and exact linear algebra.

Field elements are plain Python ints reduced mod q (no lazy reduction, no
log tables: exactness over speed at desk scale); a run of symbols (a file,
a subfile, a coded segment) is a plain tuple of them, reduced by whoever
builds it.  The default modulus used
by the caching scheme is 257; q = 2 is fully supported so privacy audits can
enumerate every library realization.

Gaussian elimination carries explicit status reporting and never returns a
silently wrong answer on singular or inconsistent systems.  A row has one
format everywhere, from the stored system through ``rref``: a pair of a
dict from each coefficient column to its value in [1, q), so no column is
named twice, and the row's right-hand sides, zeros included.  Both solvers
end in the sparse Gauss-Jordan kernel ``rref`` and read consistency off the
rows past the rank, which hold right-hand sides only; both take many
right-hand sides in one elimination: ``determined_unknowns`` extracts the
exact values of chosen unknowns from a system that is underdetermined
overall (a cache-aided decoder needs only the requested file's subfiles),
and ``solve_any`` returns one particular solution, or None, per right-hand
side.  ``determined_unknowns`` is a query on a ``SparseSystem``, built once
and never mutated: its rows, and next to them its column index, holder
counts and once-held columns.  Each query names the columns it knows, with
their values, and the columns it wants.  It first peels the system, as
structured Gaussian elimination does (LaMacchia and Odlyzko, CRYPTO 1990):
a free column held by one row is dropped with that row, on a copy of the
counts before any value is computed, then only the kept rows are copied,
as ``(dict(row), list(rhs))``, and singleton rows are solved by
substitution, so only the residue reaches ``rref``.
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


Row = tuple[dict[int, int], list[int]]  # coefficient column -> value in [1, q); the right-hand sides


def rref(field: PrimeField, rows: list[Row]) -> list[int]:
    """Sparse Gauss-Jordan to reduced row echelon form, in place.

    Each row's right-hand sides ride along.  Returns the list of pivot
    columns; after the call, row i holds pivot i and the rows past the rank
    hold no coefficient column, so right-hand side j is consistent iff their
    entries j are all 0.  The columns some row holds are taken in order
    (fill-in only spreads columns already held) and each pivot touches only
    the rows that hold its column; among those, a row with the fewest
    coefficient columns is the pivot, to limit fill-in.  Which of several
    such rows is taken is left to the holder set's iteration order.  The
    choice never shows in the pivot rows' coefficients, their consistent
    right-hand sides or the consistency verdict, which the reduced form
    fixes; only an inconsistent right-hand side can differ.  A pivot of -1
    is scaled by -1, with no field inverse.
    """
    q = field.q
    holders: dict[int, set[int]] = {}  # column -> rows holding it
    for i, (row, _) in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(i)
    is_pivot = [False] * len(rows)
    pivots: list[int] = []
    pivot_rows: list[int] = []
    for col in sorted(holders):
        held = holders[col]
        p, size = -1, 0
        for i in held:
            if not is_pivot[i] and (p < 0 or len(rows[i][0]) < size):
                p, size = i, len(rows[i][0])
        if p < 0:
            continue
        prow, prhs = rows[p]
        head = prow[col]
        if head != 1:
            s = q - 1 if head == q - 1 else field.inv(head)
            for c in prow:
                prow[c] = prow[c] * s % q
            prhs[:] = [x * s % q for x in prhs]
        others = [(c, v) for c, v in prow.items() if c != col]
        others_rhs = [(j, y) for j, y in enumerate(prhs) if y]
        for i in held:
            if i == p:
                continue
            row, rhs = rows[i]
            f = row.pop(col)
            for c, v in others:
                if c in row:
                    x = (row[c] - f * v) % q
                    if x:
                        row[c] = x
                    else:
                        del row[c]
                        holders[c].discard(i)
                else:
                    row[c] = -f * v % q
                    holders[c].add(i)
            for j, y in others_rhs:
                rhs[j] = (rhs[j] - f * y) % q
        is_pivot[p] = True
        pivots.append(col)
        pivot_rows.append(p)
    rows[:] = [rows[p] for p in pivot_rows] + [row for i, row in enumerate(rows) if not is_pivot[i]]
    return pivots


def solve_any(field: PrimeField, rows: list[Row], n_coef: int, n_rhs: int) -> list[tuple[int, ...] | None]:
    """One particular solution of A x = b_j (free unknowns set to 0) for every
    right-hand side b_j, or None for one whose system is inconsistent.
    ``rows`` are the rows of A over columns [0, n_coef), each with its
    ``n_rhs`` right-hand sides, and are reduced in place; a single
    elimination serves all of them.  A x = b_j is consistent iff every row
    past the rank has b_j entry 0."""
    pivots = rref(field, rows)
    solutions: list[tuple[int, ...] | None] = []
    for j in range(n_rhs):
        x = [0] * n_coef
        for col, (_, rhs) in zip(pivots, rows):
            x[col] = rhs[j]
        solutions.append(None if any(rhs[j] for _, rhs in rows[len(pivots):]) else tuple(x))
    return solutions


class SparseSystem:
    """A sparse system [A | B] built once and queried by ``determined_unknowns``
    under many sets of known columns.

    ``rows[i]`` is a pair: a dict from each coefficient column of row i to
    its value in [1, q), and its ``n_rhs`` right-hand sides, zeros included.
    No row is ever mutated.  ``holders[c]`` lists the rows holding column c
    and ``counts[c]`` their number, both indexed by column, and ``once`` the
    columns exactly one row holds, in column order.
    """

    def __init__(self, field: PrimeField, rows: Iterable[tuple[Mapping[int, int], Sequence[int]]],
                 n_coef: int, n_rhs: int):
        self.field, self.n_coef, self.n_rhs = field, n_coef, n_rhs
        self.rows = tuple(rows)
        self.holders: list[list[int]] = [[] for _ in range(n_coef)]
        for i, (row, _) in enumerate(self.rows):
            for c in row:
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
    it keeps get a working copy, ``(dict(row), list(rhs))``, with the known
    columns moved to its right-hand sides, and (a) runs on those, from the
    rows that are singletons once the known columns are moved; a +-1
    coefficient is solved for without a field inverse.  Every value it fixes
    is forced, so the fixed values and the residue do not depend on the
    order it pops rows in.  The residue, possibly empty, goes through
    ``rref`` as those same pairs.  The system is consistent iff every
    right-hand side of every row past the rank is 0, and this is the one
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
    rows, holders = system.rows, system.holders
    m = len(rows)
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
        for c in rows[i][0]:
            n = count[c] - 1
            count[c] = n
            if n == 1:
                frees.append(c)

    # kept row -> its working copy, known columns moved in
    work: dict[int, Row] = {i: (dict(row), list(rhs))
                            for i, (row, rhs) in zip(compress(range(m), live), compress(rows, live))}
    for c, x in known.items():
        for i in holders[c]:
            if live[i]:
                row, b = work[i]
                a = row.pop(c)
                for j, y in enumerate(x):
                    b[j] = (b[j] - a * y) % q
    singles = [i for i in compress(range(m), live) if len(work[i][0]) == 1]

    fixed: dict[int, list[int]] = {}  # (a): unknown -> its values, one per right-hand side
    while singles:
        i = singles.pop()
        row, value = work[i]
        if len(row) != 1:
            continue  # its unknown was fixed by another row since: it stays live, for the residue check
        live[i] = False
        (c, a), = row.items()
        if a == q - 1:
            value = [-x % q for x in value]
        elif a != 1:
            s = field.inv(a)
            value = [x * s % q for x in value]
        fixed[c] = value
        for k in holders[c]:
            if not live[k]:
                continue
            other, b = work[k]
            f = other.pop(c)
            for j, x in enumerate(value):
                b[j] = (b[j] - f * x) % q
            if len(other) == 1:
                singles.append(k)

    residue = [work[i] for i in compress(range(m), live)]
    pivots = rref(field, residue)
    if any(any(rhs) for _, rhs in residue[len(pivots):]):
        raise InconsistentSystemError("no solution")
    pivot_row = {col: i for i, col in enumerate(pivots)}
    out: dict[int, tuple[int, ...]] = {}
    for j in wanted:
        if j in fixed:
            out[j] = tuple(fixed[j])
            continue
        i = pivot_row.get(j)
        if i is None:
            continue
        row, rhs = residue[i]
        if len(row) == 1:  # no coefficient column but its own
            out[j] = tuple(rhs)
    return out
