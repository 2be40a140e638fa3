"""Fixtures and oracles the tests share; the program itself never needs them."""

from typing import Iterable

from privcache.exact import binomial
from privcache.gf import PrimeField
from privcache.ucc import Library, UccParams, user_positions


def ramp_library(field: PrimeField, n_files: int, file_len: int) -> Library:
    """Deterministic library; symbols are pairwise distinct when q > n_files * file_len."""
    q = field.q
    return Library(field, tuple(tuple((n * file_len + i + 1) % q for i in range(file_len)) for n in range(n_files)))


def cache_slice_for(params: UccParams, u: int, library: Library, files: Iterable[int]) -> dict[int, dict[int, int]]:
    """The symbols of the given files that user u stores, straight from the library."""
    pos = user_positions(params, u)
    return {n: {i: library.rows[n][i] for i in pos} for n in set(files)}


def subset_rank(ground: Iterable, subset: Iterable) -> int:
    """Lexicographic rank of ``subset`` among the |subset|-subsets of ``ground``,
    from the combinatorial number system rather than by enumeration."""
    base = sorted(ground)
    pos = {v: i for i, v in enumerate(base)}
    try:
        idx = sorted(pos[v] for v in subset)
    except KeyError as exc:
        raise ValueError(f"subset element {exc.args[0]!r} not in ground set") from None
    if len(set(idx)) != len(idx):
        raise ValueError("subset has repeated elements")
    n, k = len(base), len(idx)
    rank = 0
    prev = -1
    for i, c in enumerate(idx):
        for v in range(prev + 1, c):
            rank += binomial(n - v - 1, k - i - 1)
        prev = c
    return rank
