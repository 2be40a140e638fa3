"""Single-demand coded caching with uncoded placement and restricted demands.

This is the engine underneath the private scheme: N files, K_v users, each
requesting one file, where demand vectors are restricted to split into equal
blocks that are each a permutation of one common file subset.  Placement is
the classic subset-indexed layout (each file splits into C(K_v, r) subfiles
labeled by r-subsets of users; user u stores every subfile whose label
contains u): ``place`` gives, for a set of users, per file {label rank:
subfile}, and a decoder takes a user's cache in that shape.  Delivery is the
leader-based scheme of Yu, Maddah-Ali and Avestimehr: one coded segment per
(r+1)-subset of users that intersects the leader set, each segment the field
sum of the subfiles "wanted by u, labeled by the rest of the subset".
Because block 0 of a restricted demand names every distinct requested file
exactly once, the leader set is fixed to the first block's positions.

Two decoders are provided.  Each takes a user, a broadcast and that user's
stored cache, reads the instance off ``broadcast.params``, and returns the
requested file as its cached and solved subfiles concatenated in rank order:

* ``decode_linear`` is the reference decoder.  Every subfile of the
  requested files is a column and every transmitted segment a linear
  equation; that sparse system is built once per broadcast, straight from
  the segment table (a row is its segment's columns, their +-1
  coefficients and the segment's own symbols as right-hand sides), and
  shared by every user's decode.  A decode is one query on it
  (``gf.determined_unknowns``): the user's cached subfiles are known
  columns, the uncached subfiles of its requested file the wanted ones, and
  unwanted one-row columns and then singleton rows are peeled before the
  rest is eliminated.  Correctness is
  the contract; nothing scheme-specific is assumed.
* ``decode_structural`` is the closed-form path.  It rebuilds every
  omitted (all-non-leader) segment Y_B once per broadcast, shared by every
  user's decode, from the leader-substitution identity

      Y_B = sum over nonempty V of (-1)^(|V|+1) * sigma_V * Y_sorted(A_V),

  where V ranges over the subsets of B holding at most one user per file,
  A_V is B with each v in V replaced in place by the leader l(v) of v's file
  (a transmitted subset), and sigma_V is the sign of the permutation sorting
  A_V under the signed convention and 1 under the plain one.  Proof: Y_A is
  the Koszul contraction of e_a0 ^ ... ^ e_ar under the map user -> demanded
  file; every e_v - e_l(v) lies in that map's kernel, so the contraction of
  the wedge over v in B of (e_v - e_l(v)) is zero, and expanding the wedge
  gives the identity (a V with two users of one file contributes
  e_l ^ e_l = 0).  With one or two groups B holds distinct files and the
  identity is the plain telescoping one; over GF(2) the signs vanish.  Then
  user u reads each uncached subfile W[d_u][S] off the single segment of
  S + {u}, whose other terms are labeled by sets containing u and so are
  cached.  It never eliminates and is cross-checked against the reference
  decoder in the test suite.

This module alone decides what a decode reads and whether its inputs are
usable.  Both decoders share one boundary, ``_decode``, which cuts and
checks each input once before either solver reads it.  The stored cache
may hold more than the user's subfiles (a real user of the private scheme
stores several virtual users'); the boundary cuts from it the user's slice,
every subfile the user caches of every requested file, each of which must
be packet_size symbols long, and the solvers read that slice only.  The
broadcast must hold exactly the transmitted segments, packet_size symbols
each (``Broadcast._malformed``, found once per broadcast); every reader of
the segments, the rate and ``trace_record`` as well as the decoders, passes
the one gate ``Broadcast._checked``.  Either fault is a DecodeError with
one message whichever reader meets it, and past the boundary the solvers
index their inputs directly.

A ``Broadcast`` is the whole message: its field, the demand (a plain tuple,
carried in the clear and checked against the params whenever a broadcast is
built) and one tuple of reduced symbols per coded segment.  The coefficient
convention is not stored; ``Broadcast.signed``, the one place it is decided,
derives it from the params and the field.

Which subfile each user of a subset contributes, and with which sign,
depends on the demand and the convention only, so a broadcast holds one
segment table: every (r+1)-subset, transmitted or omitted, in rank order,
with its (file, label rank, +-1) terms.  ``encode`` sums its transmitted
entries; both decoders and ``trace_record`` read it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .gf import InconsistentSystemError, PrimeField, SparseSystem, determined_unknowns


class DecodeError(RuntimeError):
    """The decoder could not pin down the requested file (bad inputs)."""


@dataclass(frozen=True)
class UccParams:
    """Dimensions of one restricted-demand instance.

    n_users is the total user count, block_len the demand block length (one
    block per user group; the number of groups is n_users // block_len), and
    r the placement parameter: each file splits into C(n_users, r) subfiles
    of packet_size symbols, so file_len = C(n_users, r) * packet_size.

    User subsets (subfile labels, and the (r+1)-subsets of the segment
    table) are enumerated by ``itertools.combinations`` over a ``range``,
    which is lexicographic order, so a label's position in that order (its
    rank, which subfile indices and trace files use) is reproducible across
    runs.
    """

    n_files: int
    n_users: int
    block_len: int
    r: int
    packet_size: int = 1

    def __post_init__(self):
        if self.n_files < 1:
            raise ValueError("need at least one file")
        if self.n_users < 1:
            raise ValueError("need at least one user")
        if not 1 <= self.block_len <= self.n_files:
            raise ValueError("block length must lie in [1, n_files]")
        if self.n_users % self.block_len:
            raise ValueError("n_users must be a multiple of block_len")
        if not 0 <= self.r <= self.n_users:
            raise ValueError(f"r={self.r} outside [0, {self.n_users}]")
        if self.packet_size < 1:
            raise ValueError("packet_size must be positive")

    @property
    def subfile_count(self) -> int:
        return math.comb(self.n_users, self.r)

    @property
    def file_len(self) -> int:
        return self.subfile_count * self.packet_size

    @property
    def leaders(self) -> tuple[int, ...]:
        return tuple(range(self.block_len))

    @property
    def n_groups(self) -> int:
        return self.n_users // self.block_len

    @cached_property
    def _labels(self) -> tuple[tuple[int, ...], ...]:
        """Subfile labels in rank (lexicographic) order."""
        return tuple(itertools.combinations(range(self.n_users), self.r))

    @cached_property
    def _rank_of(self) -> dict[tuple[int, ...], int]:
        """Subfile label -> rank."""
        return {lab: t for t, lab in enumerate(self._labels)}

    @cached_property
    def user_ranks(self) -> tuple[tuple[int, ...], ...]:
        """Per user, the ranks of the labels containing it (its cached subfiles)."""
        ranks: list[list[int]] = [[] for _ in range(self.n_users)]
        for t, lab in enumerate(self._labels):
            for v in lab:
                ranks[v].append(t)
        return tuple(tuple(x) for x in ranks)


@dataclass(frozen=True)
class Library:
    """N files of file_len symbols each, over one prime field."""

    field: PrimeField
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("empty library")
        width = len(self.rows[0])
        q = self.field.q
        for row in self.rows:
            if len(row) != width:
                raise ValueError("ragged library")
            if any(not (0 <= s < q) for s in row):
                raise ValueError("library symbol outside [0, q)")

    @property
    def n_files(self) -> int:
        return len(self.rows)

    @property
    def file_len(self) -> int:
        return len(self.rows[0])

    @classmethod
    def random(cls, field: PrimeField, n_files: int, file_len: int, rng: random.Random) -> "Library":
        return cls(field, tuple(tuple(rng.randrange(field.q) for _ in range(file_len)) for _ in range(n_files)))


CacheSlice = Mapping[int, Mapping[int, tuple[int, ...]]]  # file -> {label rank -> subfile}


def _check_library(params: UccParams, library: Library) -> None:
    if library.n_files != params.n_files or library.file_len != params.file_len:
        raise ValueError("library dimensions do not match params")


def place(params: UccParams, library: Library, users: Iterable[int]) -> dict[int, dict[int, tuple[int, ...]]]:
    """Uncoded placement for a set of users: per file, every subfile whose
    label contains one of them, {label rank: its packet_size symbols}, copied
    verbatim from a library of the params' shape."""
    _check_library(params, library)
    p = params.packet_size
    ranks = sorted({t for u in users for t in params.user_ranks[u]})
    return {n: {t: row[t * p:(t + 1) * p] for t in ranks} for n, row in enumerate(library.rows)}


# ---------------------------------------------------------------------------
# Restricted demands
# ---------------------------------------------------------------------------


def is_restricted(entries: Iterable[int], block_len: int) -> bool:
    """True iff the vector splits into blocks of block_len entries, each a
    permutation of one common block_len-subset of files."""
    vec = tuple(entries)
    if block_len < 1 or not vec or len(vec) % block_len:
        raise ValueError(f"demand length {len(vec)} is not a positive multiple of block {block_len}")
    base = set(vec[:block_len])
    if len(base) != block_len:
        return False
    for i in range(0, len(vec), block_len):
        if set(vec[i:i + block_len]) != base:
            return False
    return True


# ---------------------------------------------------------------------------
# Delivery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Broadcast:
    """One delivery: coded segments keyed by their (r+1)-subset, each a tuple
    of packet_size symbols reduced into [0, q), plus the demand vector
    carried in the clear (its size is not counted in the rate), checked
    against the params however the broadcast is built."""

    params: UccParams
    field: PrimeField
    demand: tuple[int, ...]
    segments: dict[tuple[int, ...], tuple[int, ...]]

    def __post_init__(self):
        params, demand = self.params, self.demand
        if len(demand) != params.n_users:
            raise ValueError(f"demand length {len(demand)} != n_users {params.n_users}")
        if any(not 0 <= d < params.n_files for d in demand):
            raise ValueError("demand entry outside file range")
        if not is_restricted(demand, params.block_len):
            raise ValueError(f"{demand} is not a restricted demand for block length {params.block_len}")

    @property
    def signed(self) -> bool:
        """The coefficient convention: False means every subfile enters its
        segment with coefficient +1; True means the subfile of the i-th
        smallest user in the subset enters with (-1)^i.

        With one or two user groups every omitted subset B holds distinct
        files, where the plain identity holds (every untransmitted segment
        is an alternating sum of transmitted ones), and over GF(2) signs are
        invisible.  With three or more groups over an odd-characteristic
        field B can repeat a file and the plain identity can fail: the plain
        convention lost files in the r = 2 cases tried, though not in the
        r = 1 ones.  The alternating convention, whose identity holds for
        every B, is used there.
        """
        return self.params.n_groups >= 3 and self.field.q != 2

    @property
    def segment_count(self) -> int:
        return len(self._checked())

    @property
    def symbol_count(self) -> int:
        return sum(len(v) for v in self._checked().values())

    def _checked(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """``segments``, or the ``_malformed`` fault as a DecodeError: the one
        gate every reader of the segments passes, so the rate, the trace and
        both decoders refuse the same broadcasts with the same message."""
        if self._malformed:
            raise DecodeError(self._malformed)
        return self.segments

    @cached_property
    def _terms(self) -> dict[tuple[int, ...], list[tuple[int, int, int]]]:
        """The segment table of the module docstring: (r+1)-subset -> terms,
        built from the params, demand and convention, never the library."""
        params, demand, signed = self.params, self.demand, self.signed
        return {sub: _segment_terms(params, demand, sub, signed)
                for sub in itertools.combinations(range(params.n_users), params.r + 1)}

    @cached_property
    def _file_offset(self) -> dict[int, int]:
        """Requested file -> first unknown column of its subfiles: the linear
        decoder's unknown for subfile t of file n is column offset[n] + t."""
        count = self.params.subfile_count
        return {n: i * count for i, n in enumerate(sorted(set(self.demand[:self.params.block_len])))}

    @cached_property
    def _all_segments(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Every (r+1)-subset's segment: the transmitted ones plus the omitted
        ones rebuilt from them, shared by every structural decode."""
        return {**self._checked(), **_reconstructed_segments(self)}

    @cached_property
    def _system(self) -> SparseSystem:
        """The linear decoder's system, shared by every linear decode: one row
        per transmitted segment, in rank order, read off the segment table
        over every subfile of the requested files.  A row's columns are its
        terms' offset[n] + t, its coefficients their c mod q and its
        right-hand sides the segment's own symbols.  The segments have passed
        ``_checked``, so the transmitted subsets are exactly their keys."""
        q = self.field.q
        offset = self._file_offset
        segments = self._checked()
        rows = []
        for sub, terms in self._terms.items():
            seg = segments.get(sub)
            if seg is None:
                continue  # omitted: not an equation
            # the terms of one segment name distinct subfiles
            rows.append((tuple([offset[n] + t for n, t, _ in terms]), tuple([c % q for _, _, c in terms]), seg))
        return SparseSystem(self.field, rows, len(offset) * self.params.subfile_count, self.params.packet_size)

    @cached_property
    def _malformed(self) -> str | None:
        """The first fault of the segments, or None: found once per broadcast
        and raised by ``_checked`` before anything reads a segment.  In rank
        order over the segment table, a transmitted subset (one holding a
        leader) with no segment, a segment not packet_size symbols long, or
        an omitted subset with a segment; then a key that names no
        (r+1)-subset of the users."""
        segments, block_len, packet = self.segments, self.params.block_len, self.params.packet_size
        for sub in self._terms:
            seg = segments.get(sub)
            if seg is None:
                if sub[0] < block_len:  # subsets are sorted, so sub[0] < block_len iff a leader is present
                    return f"the segment of users {list(sub)} is missing from the broadcast"
            elif sub[0] >= block_len:
                return f"the segment of users {list(sub)} is not transmitted"
            elif len(seg) != packet:
                return f"the segment of users {list(sub)} holds {len(seg)} symbols, not {packet}"
        stray = next((sub for sub in segments if sub not in self._terms), None)
        return None if stray is None else f"the broadcast key {stray!r} names no {self.params.r + 1}-subset of the users"

    def trace_record(self) -> dict:
        par = self.params
        segments = self._checked()
        return {
            "params": {
                "n_files": par.n_files,
                "n_users": par.n_users,
                "block_len": par.block_len,
                "r": par.r,
                "packet_size": par.packet_size,
                "file_len": par.file_len,
            },
            "demand": list(self.demand),
            "leaders": list(par.leaders),
            "signed": self.signed,
            "segments": [
                {
                    "users": list(sub),
                    "rank": rank,
                    "symbols": list(segments[sub]),
                }
                for rank, sub in enumerate(self._terms)
                if sub in segments
            ],
        }


def _segment_terms(params: UccParams, demand: tuple[int, ...], sub: tuple[int, ...],
                   signed: bool) -> list[tuple[int, int, int]]:
    """The (file, label rank, +-1) terms of the segment of user subset ``sub``:
    the i-th user v in it contributes the subfile of its demanded file
    labeled by the rest of the subset, with coefficient (-1)^i if ``signed``
    and +1 otherwise."""
    rank_of = params._rank_of
    return [(demand[v], rank_of[sub[:i] + sub[i + 1:]], -1 if signed and i % 2 else 1)
            for i, v in enumerate(sub)]


def encode(params: UccParams, demand: tuple[int, ...], library: Library) -> Broadcast:
    """Broadcast for a restricted demand: one segment per (r+1)-subset that
    intersects the leader set, each the field sum over its users u of the
    subfile of demand[u] labeled by the remaining users, with the
    coefficients ``Broadcast.signed`` picks."""
    segments: dict[tuple[int, ...], tuple[int, ...]] = {}
    broadcast = Broadcast(params=params, field=library.field, demand=demand, segments=segments)
    _check_library(params, library)
    q = library.field.q
    packet = params.packet_size
    for sub, terms in broadcast._terms.items():
        if sub[0] >= params.block_len:
            continue  # subsets are sorted, so sub[0] < block_len iff a leader is present
        acc = [0] * packet
        for n, t, c in terms:
            base = t * packet
            row = library.rows[n]
            for p in range(packet):
                acc[p] = (acc[p] + c * row[base + p]) % q
        segments[sub] = tuple(acc)
    return broadcast


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def _decode(u: int, broadcast: Broadcast, cache: CacheSlice, solve) -> tuple[int, ...]:
    """The decode boundary both decoders share: the user-range check, then
    each input cut and checked once before ``solve`` reads it, and the file
    as the cached and solved subfiles in rank order.  ``cache`` is u's
    stored cache, any superset of its subfiles; the boundary cuts from it
    the subfile of every rank u caches of every requested file, each of
    which must be packet_size symbols long, and nothing past the boundary
    reads anything else of it.  Then ``Broadcast._checked`` raises the
    broadcast's fault.  Both faults are DecodeError.  ``solve`` gets the
    cut and u's cached and uncached label ranks and returns the uncached
    subfiles {label rank: values}; the r = n_users shortcut (nothing
    uncached) skips it."""
    params = broadcast.params
    if not 0 <= u < params.n_users:
        raise ValueError(f"user {u} out of range")
    cached = params.user_ranks[u]
    packet = params.packet_size
    cut = {n: {t: cache.get(n, {}).get(t, ()) for t in cached} for n in broadcast._file_offset}
    for n, t in itertools.product(cut, cached):
        if len(cut[n][t]) != packet:
            raise DecodeError(f"cache slice holds no {packet}-symbol subfile {t} of file {n}")
    broadcast._checked()
    uncached = sorted(set(range(params.subfile_count)).difference(cached))
    solved = solve(u, broadcast, cut, cached, uncached) if uncached else {}
    stored = cut[broadcast.demand[u]]
    return tuple(itertools.chain.from_iterable(
        solved[t] if t in solved else stored[t] for t in range(params.subfile_count)))


def _solve_linear(u: int, broadcast: Broadcast, cache_slice: CacheSlice,
                  cached: tuple[int, ...], uncached: list[int]) -> dict[int, tuple[int, ...]]:
    offset = broadcast._file_offset
    system = broadcast._system
    known = {first + t: cache_slice[n][t] for n, first in offset.items() for t in cached}
    base = offset[broadcast.demand[u]]
    wanted = [base + t for t in uncached]
    # no encode-built broadcast reaches either raise; they stay for determined_unknowns' results on hand-built input
    try:
        solved = determined_unknowns(system, known, wanted)
    except InconsistentSystemError as exc:
        raise DecodeError(f"inconsistent broadcast: {exc}") from None
    if len(solved) < len(wanted):
        raise DecodeError(f"user {u}: {len(wanted) - len(solved)} subfiles undetermined")
    return {t: solved[base + t] for t in uncached}


def decode_linear(u: int, broadcast: Broadcast, cache: CacheSlice) -> tuple[int, ...]:
    """Reference decoder: exact elimination over the transmitted segments.

    The broadcast's sparse system, built on its first linear decode, holds
    one row per transmitted segment over every subfile of the requested files
    (subfile t of file n at column offset[n] + t), each split into the
    segment's columns, coefficients and symbols.  u's decode is one
    ``determined_unknowns`` query on it: the subfiles u caches are known
    columns, read from its cache slice and moved to the right-hand side, and
    the uncached subfiles of its requested file are wanted.  All packet
    positions are solved together; the query peels what dropping free
    columns and substitution can settle and eliminates the residue.
    """
    return _decode(u, broadcast, cache, _solve_linear)


def _odd_permutation(seq: list[int]) -> bool:
    """True iff sorting ``seq`` (distinct entries) takes an odd number of swaps."""
    return sum(x > y for x, y in itertools.combinations(seq, 2)) % 2 == 1


def _reconstructed_segments(broadcast: Broadcast) -> dict[tuple[int, ...], tuple[int, ...]]:
    """Every omitted segment Y_B (a subset B with no leader), summed from
    transmitted ones by the leader-substitution identity of the module
    docstring: V runs over the position sets of B, A_V is ``a_v`` and
    sigma_V is read off ``_odd_permutation``.  Every A_V is a transmitted
    subset, so its segment is in the checked segments."""
    params = broadcast.params
    segments = broadcast._checked()
    demand = broadcast.demand
    leader_of = {demand[i]: i for i in range(params.block_len)}  # block 0 names each file once
    q = broadcast.field.q
    packet = params.packet_size
    signed = broadcast.signed
    size_b = params.r + 1
    out = {}
    for sub in itertools.combinations(range(params.block_len, params.n_users), size_b):
        lead = [leader_of[demand[v]] for v in sub]
        acc = [0] * packet
        for size in range(1, size_b + 1):
            for v_pos in itertools.combinations(range(size_b), size):
                if len({lead[i] for i in v_pos}) < size:
                    continue  # two users of one file: the term vanishes
                a_v = list(sub)
                for i in v_pos:
                    a_v[i] = lead[i]
                c = 1 if size % 2 else -1
                if signed and _odd_permutation(a_v):
                    c = -c
                seg = segments[tuple(sorted(a_v))]
                for p in range(packet):
                    acc[p] = (acc[p] + c * seg[p]) % q
        out[sub] = tuple(acc)
    return out


def _solve_structural(u: int, broadcast: Broadcast, cache_slice: CacheSlice,
                      cached: tuple[int, ...], uncached: list[int]) -> dict[int, tuple[int, ...]]:
    q = broadcast.field.q
    segments = broadcast._all_segments
    labels = broadcast.params._labels
    solved = {}
    for t in uncached:
        sub = tuple(sorted(labels[t] + (u,)))
        acc = list(segments[sub])
        for n, t_v, c in broadcast._terms[sub]:
            if t_v == t:
                c_u = c  # u's own term, W[d_u][S]
                continue
            for p, x in enumerate(cache_slice[n][t_v]):  # every other label contains u
                acc[p] = (acc[p] - c * x) % q
        solved[t] = tuple((c_u * a) % q for a in acc)  # c_u is +-1, its own inverse
    return solved


def decode_structural(u: int, broadcast: Broadcast, cache: CacheSlice) -> tuple[int, ...]:
    """Closed-form decoder: no elimination, one segment per uncached subfile.

    For an uncached label S, every term of the segment of S + {u} other than
    W[d_u][S] is labeled by a set containing u, so u has it cached:
    W[d_u][S] = c_u * (Y[S + {u}] - its cached terms), c_u = +-1, the terms
    read off the segment table.  The segments are the transmitted ones plus
    the omitted ones, rebuilt once per broadcast and shared by every decode.
    """
    return _decode(u, broadcast, cache, _solve_structural)


def decode(u: int, broadcast: Broadcast, cache: CacheSlice, method: str = "linear") -> tuple[int, ...]:
    """Decode user u's requested file from the broadcast and u's stored
    cache; method is "linear" (reference) or "structural"."""
    if method == "linear":
        return decode_linear(u, broadcast, cache)
    if method == "structural":
        return decode_structural(u, broadcast, cache)
    raise ValueError(f"unknown decode method {method!r}")
