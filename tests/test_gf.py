"""Prime-field arithmetic and exact linear solving tests."""

import itertools
import math
import random

import pytest

from privcache import gf
from privcache.gf import (
    InconsistentSystemError,
    PrimeField,
    SparseSystem,
    determined_unknowns,
    is_prime,
    rref,
    solve_any,
)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(257)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(257 * 263)


PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441, a strong pseudoprime to the bases 2..37
PSI_13 = 3317044064679887385961981  # the least strong pseudoprime to the bases 2..41


def test_is_prime_agrees_with_trial_division():
    limit = 10 ** 5
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051, PSI_12])
def test_is_prime_rejects_strong_pseudoprimes(n):
    # each is a strong pseudoprime to every prime base below 11, 37 and 41 respectively
    assert not is_prime(n)


def test_field_refuses_the_pseudoprime_to_twelve_bases():
    assert PSI_12 == 399165290221 * 798330580441
    with pytest.raises(ValueError, match=f"^modulus {PSI_12} is not prime$"):
        PrimeField(PSI_12)


@pytest.mark.parametrize("q", [PSI_13, 2 ** 89 - 1])  # 2^89 - 1 is prime
def test_field_refuses_moduli_past_the_proven_witness_bound(q):
    with pytest.raises(ValueError, match=f"^modulus {q} is not below {PSI_13}, "):
        PrimeField(q)


def test_field_requires_prime_modulus():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_basic_ops_mod5():
    f = PrimeField(5)
    assert f.inv(2) == 3  # 2*3 = 6 = 1 mod 5
    assert 2 * f.inv(2) % 5 == 1


def test_inverse_of_zero_raises():
    for q in (2, 5, 257):
        with pytest.raises(ZeroDivisionError):
            PrimeField(q).inv(0)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_field_axioms_exhaustive(q):
    f = PrimeField(q)
    for a in range(1, q):
        assert a * f.inv(a) % q == 1


def test_solve_identity():
    f = PrimeField(5)
    system = _system(f, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1], [2], [3]])
    assert determined_unknowns(system, {}, range(3)) == {0: (1,), 1: (2,), 2: (3,)}


def test_solve_2x2_hand_checked():
    # x + y = 0, x + 2y = 1 over GF(5): y = 1, x = -1 = 4
    f = PrimeField(5)
    assert determined_unknowns(_system(f, [[1, 1], [1, 2]], [[0], [1]]), {}, range(2)) == {0: (4,), 1: (1,)}


def test_solve_inconsistent():
    f = PrimeField(5)
    with pytest.raises(InconsistentSystemError):
        determined_unknowns(_system(f, [[1, 1], [2, 2]], [[0], [1]]), {}, range(2))


def test_solve_underdetermined():
    # x + y = 0 twice over: consistent, and neither unknown is determined
    f = PrimeField(5)
    assert determined_unknowns(_system(f, [[1, 1], [2, 2]], [[0], [0]]), {}, range(2)) == {}


def _sparse(f, matrix, rhs_rows=None):
    """Dense A and B as the solvers' arguments: the sparse rows of [A | B],
    every entry reduced and zeros dropped, n_coef and n_rhs."""
    if rhs_rows is None:
        rhs_rows = [()] * len(matrix)
    rows = [{c: x % f.q for c, x in enumerate([*coef, *rhs]) if x % f.q} for coef, rhs in zip(matrix, rhs_rows)]
    return rows, len(matrix[0]) if matrix else 0, len(rhs_rows[0]) if rhs_rows else 0


def _split(f, matrix, rhs_rows=None):
    """Dense A and B as ``SparseSystem``'s split rows: per row its nonzero
    coefficient columns, their reduced values and its reduced right-hand
    sides, zeros included; then n_coef and n_rhs."""
    if rhs_rows is None:
        rhs_rows = [()] * len(matrix)
    rows = [(tuple(c for c, x in enumerate(coef) if x % f.q), tuple(x % f.q for x in coef if x % f.q),
             tuple(x % f.q for x in rhs)) for coef, rhs in zip(matrix, rhs_rows)]
    return rows, len(matrix[0]) if matrix else 0, len(rhs_rows[0]) if rhs_rows else 0


def _system(f, matrix, rhs_rows=None):
    """Dense A and B as a ``SparseSystem`` for ``determined_unknowns``."""
    return SparseSystem(f, *_split(f, matrix, rhs_rows))


def _random_invertible(f, n, rng):
    while True:
        a = [[rng.randrange(f.q) for _ in range(n)] for _ in range(n)]
        rows, n_coef, _ = _sparse(f, a)
        if len(rref(f, rows, n_coef)) == n:
            return a


@pytest.mark.parametrize("q", [2, 5, 257])
def test_solve_round_trip_random_full_rank(q):
    f = PrimeField(q)
    rng = random.Random(q * 1000 + 7)
    for n in range(1, 9):
        a = _random_invertible(f, n, rng)
        x = [rng.randrange(q) for _ in range(n)]
        b = [sum(a[i][j] * x[j] for j in range(n)) % q for i in range(n)]
        got = determined_unknowns(_system(f, a, [[v] for v in b]), {}, range(n))
        assert got == {j: (x[j],) for j in range(n)}


def test_determined_unknowns_partial_system():
    # x0 + x1 = 3 and x1 + x2 = 4 pin nothing; adding x1 = 1 pins all three
    f = PrimeField(7)
    partial = determined_unknowns(_system(f, [[1, 1, 0], [0, 1, 1]], [[3], [4]]), {}, [0, 1, 2])
    assert partial == {}
    full = determined_unknowns(_system(f, [[1, 1, 0], [0, 1, 1], [0, 1, 0]], [[3], [4], [1]]), {},
                               [0, 1, 2])
    assert full == {0: (2,), 1: (1,), 2: (3,)}


def test_determined_unknowns_multiple_rhs():
    f = PrimeField(5)
    out = determined_unknowns(_system(f, [[1, 1], [1, 2]], [[0, 1], [1, 2]]), {}, [0, 1])
    # first RHS: x=(4,1); second: x=(0,1)
    assert out == {0: (4, 0), 1: (1, 1)}


def test_determined_unknowns_inconsistent_raises():
    f = PrimeField(5)
    with pytest.raises(InconsistentSystemError):
        determined_unknowns(_system(f, [[1, 1], [2, 2]], [[0], [1]]), {}, [0])


def test_solve_any_multi_rhs_brute_force_gf3():
    """One elimination, many right-hand sides: every returned column solves
    A x = b_j, and None comes back exactly when enumerating GF(3)^n finds no
    solution.  Columns mix images A x (consistent) with random vectors."""
    f = PrimeField(3)
    rng = random.Random(3)
    outcomes = set()
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 3)
        a = [[rng.randrange(-1, 3) for _ in range(n)] for _ in range(m)]

        def image(x):
            return [sum(a[i][j] * x[j] for j in range(n)) % 3 for i in range(m)]

        cols = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                cols.append(image([rng.randrange(3) for _ in range(n)]))
            else:
                cols.append([rng.randrange(3) for _ in range(m)])
        got = solve_any(f, *_sparse(f, a, [[col[i] for col in cols] for i in range(m)]))
        assert len(got) == len(cols)
        images = [image(x) for x in itertools.product(range(3), repeat=n)]
        for col, x in zip(cols, got):
            solvable = col in images
            assert (x is not None) == solvable
            if x is not None:
                assert image(x) == col
            outcomes.add(solvable)
    assert outcomes == {True, False}


def test_rref_pivot_is_the_first_of_the_narrowest_rows():
    """Rows 1 and 2 tie as the narrowest holders of column 0, so row 1 is the
    pivot, which shows in what is left past the rank."""
    f = PrimeField(5)
    rows = [{0: 1, 1: 1, 2: 1}, {0: 1, 1: 2}, {0: 1, 1: 3}]
    assert rref(f, rows, 1) == [0]
    assert rows == [{0: 1, 1: 2}, {1: 4, 2: 1}, {1: 1}]


def _dense_rref(q, rows, n_coef):
    """Reference: the dense Gauss-Jordan that the sparse kernel replaced, in
    place over dense rows of [A | B]; returns the pivot columns."""
    pivots = []
    rank = 0
    for col in range(n_coef):
        pivot_row = next((i for i in range(rank, len(rows)) if rows[i][col] % q), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        s = pow(rows[rank][col], q - 2, q)
        rows[rank] = [(x * s) % q for x in rows[rank]]
        prow = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % q:
                f = rows[i][col] % q
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], prow)]
        pivots.append(col)
        rank += 1
    return pivots


def _random_system(q, rng):
    """A sparse-ish random [A | B]: tall, wide or square; some rows are
    combinations of others or all zero; RHS columns are images A x, random
    vectors or all zero."""
    m, n = rng.choice([(rng.randint(4, 12), rng.randint(1, 4)),   # tall
                       (rng.randint(1, 4), rng.randint(4, 12)),   # wide
                       (k := rng.randint(1, 9), k)])              # square
    density = rng.choice([0.15, 0.4, 1.0])
    a = [[rng.randrange(1, q) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]
    for i in range(m):
        kind = rng.random()
        if kind < 0.15:
            a[i] = [0] * n
        elif kind < 0.35 and i >= 2:
            s, t = rng.randrange(q), rng.randrange(q)
            a[i] = [(s * x + t * y) % q for x, y in zip(a[rng.randrange(i)], a[rng.randrange(i)])]
    cols = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.random()
        if kind < 0.4:
            x = [rng.randrange(q) for _ in range(n)]
            cols.append([sum(r * v for r, v in zip(row, x)) % q for row in a])
        elif kind < 0.8:
            cols.append([rng.randrange(q) for _ in range(m)])
        else:
            cols.append([0] * m)
    return a, [[col[i] for col in cols] for i in range(m)]


@pytest.mark.parametrize("q", [2, 5, 257])
def test_sparse_rref_matches_dense_reference(q):
    """The sparse kernel against the dense reference on seeded random systems:
    the same pivots, the same reduced pivot rows and the same per-column
    consistency; ``solve_any`` and ``determined_unknowns`` agree with answers
    read off the dense form; no stored entry is ever 0."""
    f = PrimeField(q)
    rng = random.Random(6000 + q)
    seen = set()
    for _ in range(400):
        a, b = _random_system(q, rng)
        rows, n_coef, n_rhs = _sparse(f, a, b)
        pivots = rref(f, rows, n_coef)
        dense = [[x % q for x in ra] + [x % q for x in rb] for ra, rb in zip(a, b)]
        assert pivots == _dense_rref(q, dense, n_coef)
        rank = len(pivots)
        assert all(0 < x < q for row in rows for x in row.values())
        assert all(c >= n_coef for row in rows[rank:] for c in row)
        consistent = [not any(row[n_coef + j] for row in dense[rank:]) for j in range(n_rhs)]
        assert consistent == [not any(n_coef + j in row for row in rows[rank:]) for j in range(n_rhs)]
        # rows past the rank may be added to a pivot row, so its entries are
        # unique only on coefficient columns and consistent RHS columns
        unique = list(range(n_coef)) + [n_coef + j for j, ok in enumerate(consistent) if ok]
        for sparse_row, dense_row in zip(rows[:rank], dense):
            assert {c: sparse_row[c] for c in unique if c in sparse_row} == \
                   {c: dense_row[c] for c in unique if dense_row[c]}

        def particular(j):
            x = [0] * n_coef
            for col, row in zip(pivots, dense):
                x[col] = row[n_coef + j]
            return tuple(x)

        expected_any = [particular(j) if ok else None for j, ok in enumerate(consistent)]
        assert solve_any(f, *_sparse(f, a, b)) == expected_any
        free = set(range(n_coef)) - set(pivots)
        if all(consistent):
            expected = {col: tuple(row[n_coef:]) for col, row in zip(pivots, dense)
                        if not any(row[c] for c in free)}
            assert determined_unknowns(_system(f, a, b), {}, range(n_coef)) == expected
        else:
            with pytest.raises(InconsistentSystemError):
                determined_unknowns(_system(f, a, b), {}, range(n_coef))
        seen.add((rank < min(len(a), n_coef), all(consistent), n_rhs > 1))
    assert seen >= {(d, c, True) for d in (False, True) for c in (False, True)}


def _random_sparse_system(q, rng, n_rhs):
    """Rows of at most three coefficients, many of them singletons, over at
    most 12 unknowns; each RHS column is an image A x or a random vector."""
    n, m = rng.randint(1, 12), rng.randint(0, 16)
    a = [[0] * n for _ in range(m)]
    for row in a:
        for c in rng.sample(range(n), min(n, rng.choice([0, 1, 1, 2, 2, 3]))):
            row[c] = rng.randrange(1, q)
    cols = []
    for _ in range(n_rhs):
        if rng.random() < 0.6:
            x = [rng.randrange(q) for _ in range(n)]
            cols.append([sum(r * v for r, v in zip(row, x)) % q for row in a])
        else:
            cols.append([rng.randrange(q) for _ in range(m)])
    return a, [[col[i] for col in cols] for i in range(m)]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_determined_unknowns_peeling_matches_dense_reference(q):
    """``determined_unknowns`` on a proper random subset of the unknowns, so
    both peeling steps run, against answers read off the dense reduced form:
    an unknown is determined iff its pivot row holds no free column."""
    f = PrimeField(q)
    rng = random.Random(7000 + q)
    seen = set()
    for _ in range(600):
        a, b = _random_sparse_system(q, rng, rng.choice([1, 1, 2, 3]))
        system = _system(f, a, b)
        n_coef, n_rhs = system.n_coef, system.n_rhs
        wanted = [c for c in range(n_coef) if rng.random() < 0.5]
        dense = [[x % q for x in ra] + [x % q for x in rb] for ra, rb in zip(a, b)]
        pivots = _dense_rref(q, dense, n_coef)
        consistent = not any(x for row in dense[len(pivots):] for x in row[n_coef:])
        held = [sum(1 for row in a if row[c]) for c in range(n_coef)]
        seen.add((consistent, n_rhs > 1,
                  any(sum(1 for x in row if x) == 1 for row in a),
                  any(held[c] == 1 for c in range(n_coef) if c not in wanted)))
        if not consistent:
            with pytest.raises(InconsistentSystemError):
                determined_unknowns(system, {}, wanted)
            continue
        free = set(range(n_coef)) - set(pivots)
        expected = {col: tuple(row[n_coef:]) for col, row in zip(pivots, dense)
                    if col in wanted and not any(row[c] for c in free)}
        assert determined_unknowns(system, {}, wanted) == expected
    assert seen >= {(c, m, True, True) for c in (False, True) for m in (False, True)}


def _dense_determined(q, a, b, wanted):
    """The wanted unknowns that the dense reduced form of [A | B] determines,
    or None when the system is inconsistent."""
    n_coef = len(a[0]) if a else 0
    dense = [[x % q for x in ra] + [x % q for x in rb] for ra, rb in zip(a, b)]
    pivots = _dense_rref(q, dense, n_coef)
    if any(x for row in dense[len(pivots):] for x in row[n_coef:]):
        return None
    free = set(range(n_coef)) - set(pivots)
    return {col: tuple(row[n_coef:]) for col, row in zip(pivots, dense)
            if col in wanted and not any(row[c] for c in free)}


def _substituted(q, a, b, known):
    """[A | B] with the ``known`` columns zeroed and moved, with their
    values, to the right-hand side by hand."""
    a_out = [[0 if c in known else x for c, x in enumerate(row)] for row in a]
    b_out = [[(y - sum(row[c] * v[j] for c, v in known.items())) % q for j, y in enumerate(rb)]
             for row, rb in zip(a, b)]
    return a_out, b_out


@pytest.mark.parametrize("q", [2, 3, 5])
def test_determined_unknowns_known_columns_match_dense_reference(q):
    """Known columns against the dense reference on the system with those
    columns substituted by hand.  Their values are a solution's or random, so
    both consistent and inconsistent queries occur.  Two queries with
    different known sets alternate on one system: each gives the same answer
    twice, and the system's split rows and index are unchanged afterwards."""
    f = PrimeField(q)
    rng = random.Random(8000 + q)
    seen = set()
    for _ in range(300):
        a, b = _random_sparse_system(q, rng, rng.choice([1, 2, 3]))
        split, n_coef, n_rhs = _split(f, a, b)
        system = SparseSystem(f, split, n_coef, n_rhs)

        def stored():
            return (list(zip(system.cols, system.coefs, system.rhs)),
                    [list(held) for held in system.holders], list(system.counts), list(system.once))

        before = stored()
        assert before[0] == split
        solution = solve_any(f, *_sparse(f, a, b))
        queries = []
        for _ in range(2):
            known_cols = [c for c in range(n_coef) if rng.random() < 0.4]
            if None not in solution and rng.random() < 0.5:
                known = {c: tuple(x[c] for x in solution) for c in known_cols}
            else:
                known = {c: tuple(rng.randrange(q) for _ in range(n_rhs)) for c in known_cols}
            wanted = [c for c in range(n_coef) if c not in known and rng.random() < 0.6]
            expected = _dense_determined(q, *_substituted(q, a, b, known), wanted)
            # (a) fires on a row whose one unknown column is wanted, (b) on
            # an unwanted unknown column that one row holds
            support = [[c for c, x in enumerate(row) if x and c not in known] for row in a]
            held = [sum(c in cols for cols in support) for c in range(n_coef)]
            seen.add((expected is not None, n_rhs > 1,
                      any(len(cols) == 1 and cols[0] in wanted for cols in support),
                      any(held[c] == 1 for c in range(n_coef) if c not in known and c not in wanted),
                      any(row[c] for row in a for c in known)))
            queries.append((known, wanted, expected))

        def answer(known, wanted):
            try:
                return determined_unknowns(system, known, wanted)
            except InconsistentSystemError:
                return None

        for known, wanted, expected in queries + queries:
            assert answer(known, wanted) == expected
        assert stored() == before
    assert seen >= {(c, m, True, True, True) for c in (False, True) for m in (False, True)}


def test_known_and_wanted_column_is_rejected():
    f = PrimeField(5)
    with pytest.raises(ValueError, match="both known and wanted"):
        determined_unknowns(_system(f, [[1, 1]], [[3]]), {1: (2,)}, [0, 1])


@pytest.mark.parametrize("known,wanted,message", [
    ({-1: (4,)}, [0], r"columns outside \[0, 2\): \[-1\]"),
    ({2: (4,)}, [0], r"columns outside \[0, 2\): \[2\]"),
    ({}, [0, 5, -3], r"columns outside \[0, 2\): \[-3, 5\]"),
    ({1: ()}, [0], r"known columns whose values are not 1 long: \[1\]"),
    ({1: (2, 3)}, [0], r"known columns whose values are not 1 long: \[1\]"),
])
def test_malformed_query_is_rejected(known, wanted, message):
    """x0 + x1 = 3, x1 = 2 over GF(5): a column outside the system or a known
    value of the wrong length is a ValueError naming the columns, not a
    query that pins another column or reads as inconsistent."""
    f = PrimeField(5)
    system = _system(f, [[1, 1], [0, 1]], [[3], [2]])
    with pytest.raises(ValueError, match=message):
        determined_unknowns(system, known, wanted)
    assert determined_unknowns(system, {1: (2,)}, [0]) == {0: (1,)}
    assert determined_unknowns(system, {}, [0, 1]) == {0: (1,), 1: (2,)}


def test_inconsistency_found_by_substitution():
    # x0 = 1 and 2 x0 = 3 over GF(5): each row alone is solvable; substitution
    # leaves one of them no unknown and a nonzero right-hand side, which the
    # residue check after rref reports
    f = PrimeField(5)
    with pytest.raises(InconsistentSystemError):
        determined_unknowns(_system(f, [[1], [2]], [[1], [3]]), {}, [0])
    assert determined_unknowns(_system(f, [[1], [2]], [[1], [2]]), {}, [0]) == {0: (1,)}


def test_one_row_free_column_drops_its_row():
    # x0 + x1 = 3 with only x0 wanted: x1 absorbs the row, x0 stays free
    f = PrimeField(5)
    assert determined_unknowns(_system(f, [[1, 1]], [[3]]), {}, [0]) == {}
    # a second free row on x0 leaves x0 free as well
    assert determined_unknowns(_system(f, [[1, 1, 0], [1, 0, 1]], [[3], [4]]), {}, [0]) == {}


def test_singleton_chain(monkeypatch):
    # x0 = 1, x0 + x1 = 3, x1 + 2 x2 = 0, x2 + x3 = 4 over GF(5): each
    # substitution leaves the next row a singleton, so nothing is eliminated
    f = PrimeField(5)
    sizes = []
    real_rref = gf.rref

    def sizing_rref(field, rows, n_coef):
        sizes.append(len(rows))
        return real_rref(field, rows, n_coef)

    monkeypatch.setattr(gf, "rref", sizing_rref)
    a = [[0, 0, 1, 1], [0, 1, 2, 0], [1, 1, 0, 0], [1, 0, 0, 0]]
    b = [[4, 1], [0, 0], [3, 0], [1, 0]]
    assert determined_unknowns(_system(f, a, b), {}, [0, 1, 2, 3]) == \
        {0: (1, 0), 1: (2, 0), 2: (4, 0), 3: (0, 1)}
    assert sizes == [0]
