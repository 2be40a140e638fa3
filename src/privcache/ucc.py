"""Single-demand coded caching with uncoded placement and restricted demands.

This is the engine underneath the private scheme: N files, K_v users, each
requesting one file, where demand vectors are restricted to split into equal
blocks that are each a permutation of one common file subset.  Placement is
the classic subset-indexed layout (each file splits into C(K_v, r) subfiles
labeled by r-subsets of users; user u stores every subfile whose label
contains u) and delivery is the leader-based scheme of Yu, Maddah-Ali and
Avestimehr: one coded segment per (r+1)-subset of users that intersects the
leader set, each segment the field sum of the subfiles "wanted by u, labeled
by the rest of the subset".  Because block 0 of a restricted demand names
every distinct requested file exactly once, the leader set is fixed to the
first block's positions.

Two decoders are provided:

* ``decode_linear`` is the reference decoder.  It treats every uncached
  subfile of the requested files as an unknown, every transmitted segment as
  a linear equation, and reads the requested file out of the exact solution.
  Correctness is the contract; nothing scheme-specific is assumed.
* ``decode_structural`` is the optimized path: it reconstructs untransmitted
  all-non-leader segments once per broadcast, shared by every user's decode
  (with one or two user groups, the closed-form leader-substitution
  identity; with three or more, a single elimination over the
  data-independent formal system with every omitted segment as a
  right-hand-side column), and then peels segment equations with a single
  unknown subfile.  It never eliminates over the symbol data and is
  cross-checked against the reference decoder in the test suite.

A ``Broadcast`` is the whole message: its field, the demand carried in the
clear and one tuple of reduced symbols per coded segment.  The coefficient
convention is not stored; ``use_signed_segments`` derives it from the
params and the field.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .exact import binomial, subset_rank, subsets_of_size
from .gf import InconsistentSystemError, PrimeField, determined_unknowns, solve_any


class DecodeError(RuntimeError):
    """The decoder could not pin down the requested file (bad inputs)."""


@dataclass(frozen=True)
class UccParams:
    """Dimensions of one restricted-demand instance.

    n_users is the total user count, block_len the demand block length (one
    block per user group; the number of groups is n_users // block_len), and
    r the placement parameter: each file splits into C(n_users, r) subfiles
    of packet_size symbols, so file_len = C(n_users, r) * packet_size.
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
        return binomial(self.n_users, self.r)

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
    def _rank_of(self) -> dict[tuple[int, ...], int]:
        """Subfile label -> rank, in rank (lexicographic) order."""
        return {lab: t for t, lab in enumerate(subsets_of_size(range(self.n_users), self.r))}

    @cached_property
    def _user_ranks(self) -> tuple[tuple[int, ...], ...]:
        """Per user, the ranks of the labels containing it (its cached subfiles)."""
        ranks: list[list[int]] = [[] for _ in range(self.n_users)]
        for lab, t in self._rank_of.items():
            for v in lab:
                ranks[v].append(t)
        return tuple(tuple(x) for x in ranks)

    @classmethod
    def for_file_len(cls, n_files: int, n_users: int, block_len: int, r: int, file_len: int) -> "UccParams":
        """Build params from a total file length, which must be a multiple of C(n_users, r)."""
        blocks = binomial(n_users, r)
        if file_len <= 0 or file_len % blocks:
            raise ValueError(f"file length {file_len} is not a positive multiple of C({n_users},{r})={blocks}")
        return cls(n_files, n_users, block_len, r, file_len // blocks)


def subfile_labels(params: UccParams) -> list[tuple[int, ...]]:
    """All r-subsets of users in lexicographic order; list index equals rank."""
    return list(params._rank_of)


def user_label_ranks(params: UccParams, u: int) -> list[int]:
    """Ranks of the subfile labels stored by user u (those containing u)."""
    return list(params._user_ranks[u])


def user_positions(params: UccParams, u: int) -> list[int]:
    """Symbol indices (within any one file) stored by user u."""
    p = params.packet_size
    return [t * p + i for t in params._user_ranks[u] for i in range(p)]


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

    @classmethod
    def ramp(cls, field: PrimeField, n_files: int, file_len: int) -> "Library":
        """Deterministic library; symbols are pairwise distinct when q > n_files * file_len."""
        q = field.q
        return cls(field, tuple(tuple((n * file_len + i + 1) % q for i in range(file_len)) for n in range(n_files)))


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


@dataclass(frozen=True)
class RestrictedDemand:
    """A validated restricted demand vector."""

    entries: tuple[int, ...]
    block_len: int

    def __post_init__(self):
        if not is_restricted(self.entries, self.block_len):
            raise ValueError(f"{self.entries} is not a restricted demand for block length {self.block_len}")

    @property
    def file_set(self) -> frozenset[int]:
        return frozenset(self.entries[:self.block_len])

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        b = self.block_len
        return tuple(self.entries[i:i + b] for i in range(0, len(self.entries), b))


# ---------------------------------------------------------------------------
# Delivery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Broadcast:
    """One delivery: coded segments keyed by their (r+1)-subset, each a tuple
    of packet_size symbols reduced into [0, q), plus the demand vector
    carried in the clear (its size is not counted in the rate)."""

    params: UccParams
    field: PrimeField
    demand: RestrictedDemand
    segments: dict[tuple[int, ...], tuple[int, ...]]

    @property
    def signed(self) -> bool:
        """The coefficient convention: False means every subfile enters its
        segment with coefficient +1; True means the subfile of the i-th
        smallest user in the subset enters with (-1)^i."""
        return use_signed_segments(self.params, self.field)

    @property
    def segment_count(self) -> int:
        return len(self.segments)

    @property
    def symbol_count(self) -> int:
        return sum(len(v) for v in self.segments.values())

    @cached_property
    def _transmitted_terms(self) -> list[tuple[tuple[int, ...], list[tuple[int, int, int]]]]:
        """(subset, terms) of every transmitted segment, in subset order:
        built on first use and shared by every decode (a broadcast is not
        modified after encode)."""
        signed = self.signed
        return [(sub, _segment_terms(self.params, self.demand.entries, sub, signed)) for sub in sorted(self.segments)]

    @cached_property
    def _equations(self) -> list[tuple[list[tuple[int, int, int]], list[int]]]:
        """(terms, values) of every transmitted segment, then of every
        reconstructed untransmitted one, shared like ``_transmitted_terms``."""
        signed = self.signed
        eqs = [(terms, list(self.segments[sub])) for sub, terms in self._transmitted_terms]
        eqs.extend((_segment_terms(self.params, self.demand.entries, sub, signed), vals)
                   for sub, vals in _reconstructed_segments(self))
        return eqs

    def trace_record(self) -> dict:
        par = self.params
        return {
            "params": {
                "n_files": par.n_files,
                "n_users": par.n_users,
                "block_len": par.block_len,
                "r": par.r,
                "packet_size": par.packet_size,
                "file_len": par.file_len,
            },
            "demand": list(self.demand.entries),
            "leaders": list(par.leaders),
            "signed": self.signed,
            "segments": [
                {
                    "users": list(sub),
                    "rank": subset_rank(range(par.n_users), sub),
                    "symbols": list(vec),
                }
                for sub, vec in sorted(self.segments.items())
            ],
        }


def _validate_demand(params: UccParams, demand: RestrictedDemand):
    if demand.block_len != params.block_len:
        raise ValueError("demand block length does not match params")
    if len(demand.entries) != params.n_users:
        raise ValueError(f"demand length {len(demand.entries)} != n_users {params.n_users}")
    if any(not 0 <= d < params.n_files for d in demand.entries):
        raise ValueError("demand entry outside file range")


def segment_signs(signed: bool, size: int) -> list[int]:
    """Per-position coefficients of one segment: all +1, or alternating."""
    if not signed:
        return [1] * size
    return [1 if i % 2 == 0 else -1 for i in range(size)]


def _segment_terms(params: UccParams, demand: tuple[int, ...], sub: tuple[int, ...],
                   signed: bool) -> list[tuple[int, int, int]]:
    """The (file, label rank, +-1) terms of the segment of user subset ``sub``:
    each user v in it contributes the subfile of its demanded file labeled by
    the rest of the subset."""
    rank_of = params._rank_of
    coeffs = segment_signs(signed, len(sub))
    return [(demand[v], rank_of[sub[:i] + sub[i + 1:]], coeffs[i]) for i, v in enumerate(sub)]


def use_signed_segments(params: UccParams, field: PrimeField) -> bool:
    """Coefficient convention for this instance.

    With one or two user groups the plain +1 convention is lossless (every
    untransmitted segment is an alternating sum of transmitted ones), and over
    GF(2) signs are invisible.  With three or more groups over an odd-
    characteristic field the +1 convention provably loses information for
    demand vectors that repeat a file across non-leader blocks, so the
    alternating convention is used there.
    """
    return params.n_groups >= 3 and field.q != 2


def encode(params: UccParams, demand: RestrictedDemand, library: Library) -> Broadcast:
    """Broadcast for a restricted demand: one segment per (r+1)-subset that
    intersects the leader set, each the field sum over its users u of the
    subfile of demand[u] labeled by the remaining users, with the
    coefficients use_signed_segments picks."""
    _validate_demand(params, demand)
    if library.n_files != params.n_files or library.file_len != params.file_len:
        raise ValueError("library dimensions do not match params")
    signed = use_signed_segments(params, library.field)
    q = library.field.q
    packet = params.packet_size
    segments: dict[tuple[int, ...], tuple[int, ...]] = {}
    for sub in subsets_of_size(range(params.n_users), params.r + 1):
        if sub[0] >= params.block_len:
            continue  # subsets are sorted, so sub[0] < block_len iff a leader is present
        acc = [0] * packet
        for n, t, c in _segment_terms(params, demand.entries, sub, signed):
            base = t * packet
            row = library.rows[n]
            for p in range(packet):
                acc[p] = (acc[p] + c * row[base + p]) % q
        segments[sub] = tuple(acc)
    expected = binomial(params.n_users, params.r + 1) - binomial(params.n_users - params.block_len, params.r + 1)
    if len(segments) != expected:
        raise RuntimeError(f"segment count {len(segments)} != {expected}")
    return Broadcast(params=params, field=library.field, demand=demand, segments=segments)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

CacheSlice = Mapping[int, Mapping[int, int]]  # file -> {symbol index -> symbol}


def cache_slice_for(params: UccParams, u: int, library: Library, files: Iterable[int]) -> dict[int, dict[int, int]]:
    """The symbols of the given files that user u stores, straight from the library."""
    pos = user_positions(params, u)
    return {n: {i: library.rows[n][i] for i in pos} for n in set(files)}


def _assemble(params: UccParams, u: int, stored: Mapping[int, int],
              solved: dict[int, tuple[int, ...]]) -> tuple[int, ...]:
    """User u's requested file: its cached symbols from ``stored`` (u's cache
    slice of that file), every other subfile from ``solved`` {label rank: values}."""
    p = params.packet_size
    out = [0] * params.file_len
    for i in user_positions(params, u):
        out[i] = stored[i]
    for t, vals in solved.items():
        out[t * p:(t + 1) * p] = vals
    return tuple(out)


def _decode(params: UccParams, u: int, broadcast: Broadcast, cache_slice: CacheSlice, solve) -> tuple[int, ...]:
    """What both decoders share: the user-range check, the r = n_users
    shortcut (nothing uncached) and a missing cache symbol reported as
    DecodeError.  ``solve`` returns the uncached subfiles {label rank: values}."""
    if not 0 <= u < params.n_users:
        raise ValueError(f"user {u} out of range")
    cached = set(params._user_ranks[u])
    uncached = [t for t in range(params.subfile_count) if t not in cached]
    try:
        solved = solve(params, u, broadcast, cache_slice, uncached) if uncached else {}
        return _assemble(params, u, cache_slice[broadcast.demand.entries[u]], solved)
    except KeyError as exc:
        raise DecodeError(f"cache slice is missing symbols: {exc}") from None


def _solve_linear(params: UccParams, u: int, broadcast: Broadcast, cache_slice: CacheSlice,
                  uncached: list[int]) -> dict[int, tuple[int, ...]]:
    q = broadcast.field.q
    packet = params.packet_size
    var = {key: j for j, key in enumerate(itertools.product(sorted(broadcast.demand.file_set), uncached))}

    n_coef = len(var)
    rows: list[dict[int, int]] = []
    for sub, terms in broadcast._transmitted_terms:
        row: dict[int, int] = {}
        rhs = list(broadcast.segments[sub])
        for n, t, c in terms:
            j = var.get((n, t))
            if j is None:  # cached by u: move it to the right-hand side
                stored = cache_slice[n]
                base = t * packet
                for p in range(packet):
                    rhs[p] = (rhs[p] - c * stored[base + p]) % q
            else:  # the terms of one segment name distinct subfiles
                row[j] = c % q
        row.update((n_coef + p, x) for p, x in enumerate(rhs) if x)
        rows.append(row)

    target = broadcast.demand.entries[u]
    wanted = [var[(target, t)] for t in uncached]
    try:
        solved = determined_unknowns(broadcast.field, rows, n_coef, packet, wanted)
    except InconsistentSystemError as exc:
        raise DecodeError(f"inconsistent broadcast: {exc}") from None
    if len(solved) < len(wanted):
        raise DecodeError(f"user {u}: {len(wanted) - len(solved)} subfiles undetermined")
    return {t: solved[var[(target, t)]] for t in uncached}


def decode_linear(params: UccParams, u: int, broadcast: Broadcast, cache_slice: CacheSlice) -> tuple[int, ...]:
    """Reference decoder: exact elimination over the transmitted segments.

    Unknowns are the subfiles of the demanded files not cached by u; cached
    subfiles move to the right-hand side.  The system is built sparse, one
    row per segment holding its at most r+1 uncached terms and its nonzero
    right-hand sides; all packet positions share the coefficients and are
    solved together in one elimination.
    """
    return _decode(params, u, broadcast, cache_slice, _solve_linear)


def _eliminated_combinations(broadcast: Broadcast) -> list[tuple[tuple[int, ...], list[tuple[int, tuple[int, ...]]]]]:
    """Reconstruction with three or more user groups: one elimination over
    the formal system on the (file, subfile-label) basis, in the broadcast's
    own coefficients, with a column per transmitted segment and a
    right-hand-side column per untransmitted one.  The combinations depend
    only on the demand pattern, never on library data or any cache; an
    omitted segment outside the transmitted span is left to peeling."""
    params = broadcast.params
    demand = broadcast.demand.entries
    omitted = list(subsets_of_size(range(params.block_len, params.n_users), params.r + 1))
    if not omitted:
        return []
    files = sorted(broadcast.demand.file_set)
    basis = {key: i for i, key in enumerate(itertools.product(files, range(params.subfile_count)))}

    transmitted = broadcast._transmitted_terms
    signed = broadcast.signed
    columns = [terms for _, terms in transmitted] + [_segment_terms(params, demand, sub, signed) for sub in omitted]
    q = broadcast.field.q
    rows: list[dict[int, int]] = [{} for _ in basis]
    for j, terms in enumerate(columns):
        for n, t, c in terms:
            rows[basis[(n, t)]][j] = c % q
    combos = solve_any(broadcast.field, rows, len(transmitted), len(omitted))
    return [(sub, [(x, s) for x, (s, _) in zip(combo, transmitted) if x])
            for sub, combo in zip(omitted, combos) if combo is not None]


def _plain_combinations(broadcast: Broadcast) -> list[tuple[tuple[int, ...], list[tuple[int, tuple[int, ...]]]]]:
    """Reconstruction with one or two user groups via the alternating
    identity, for every untransmitted subset whose demands are distinct
    (with a single non-leader block, that is every one).

    For such a subset B, replacing any nonempty V of its users by the leaders
    of their files gives a transmitted segment, and the signed sum over all V
    telescopes to the missing segment: pairing (V, u in B\\V) with
    (V + {u}, leader of u's file) cancels every subfile term.  The identity is
    specific to the +1 coefficient convention.
    """
    params = broadcast.params
    demand = broadcast.demand.entries
    leader_of = {demand[i]: i for i in range(params.block_len)}  # block 0 names each file once
    out = []
    for sub in subsets_of_size(range(params.block_len, params.n_users), params.r + 1):
        if len({demand[v] for v in sub}) < len(sub):
            continue  # repeated file: identity unavailable, leave to peeling
        combo = []
        for size in range(1, len(sub) + 1):
            for v_set in itertools.combinations(sub, size):
                repl = sorted((set(sub) - set(v_set)) | {leader_of[demand[v]] for v in v_set})
                combo.append((1 if size % 2 else -1, tuple(repl)))
        out.append((sub, combo))
    return out


def _reconstructed_segments(broadcast: Broadcast) -> list[tuple[tuple[int, ...], list[int]]]:
    """Untransmitted segments (no leader in the subset) that are exact
    combinations of transmitted ones, with their values.  The telescoping
    identity needs distinct files in the subset, which only one non-leader
    block guarantees, so three or more groups eliminate, GF(2) included."""
    q = broadcast.field.q
    packet = broadcast.params.packet_size
    route = _eliminated_combinations if broadcast.params.n_groups >= 3 else _plain_combinations
    out = []
    for sub, combo in route(broadcast):
        vals = [0] * packet
        for x, s in combo:
            seg = broadcast.segments[s]
            for p in range(packet):
                vals[p] = (vals[p] + x * seg[p]) % q
        out.append((sub, vals))
    return out


def _solve_peeling(params: UccParams, u: int, broadcast: Broadcast, cache_slice: CacheSlice,
                   uncached: list[int]) -> dict[int, tuple[int, ...]]:
    q = broadcast.field.q
    packet = params.packet_size
    known = {(n, t): tuple(cache_slice[n][t * packet + p] for p in range(packet))
             for n in broadcast.demand.file_set for t in params._user_ranks[u]}

    pending = broadcast._equations
    progress = True
    while progress:
        progress = False
        remaining = []
        for terms, vals in pending:
            missing = [t for t in terms if (t[0], t[1]) not in known]
            if not missing:
                continue
            if len(missing) == 1:
                n_m, t_m, c_m = missing[0]
                acc = list(vals)
                for n_t, t_t, c_t in terms:
                    if (n_t, t_t) != (n_m, t_m):
                        kv = known[(n_t, t_t)]
                        for p in range(packet):
                            acc[p] = (acc[p] - c_t * kv[p]) % q
                # c_m is +-1, hence its own inverse
                known[(n_m, t_m)] = tuple((c_m * a) % q for a in acc)
                progress = True
            else:
                remaining.append((terms, vals))
        pending = remaining

    target = broadcast.demand.entries[u]
    missing = [t for t in uncached if (target, t) not in known]
    if missing:
        raise DecodeError(f"user {u}: peeling left {len(missing)} subfiles unknown")
    return {t: known[(target, t)] for t in uncached}


def decode_structural(params: UccParams, u: int, broadcast: Broadcast, cache_slice: CacheSlice) -> tuple[int, ...]:
    """Peeling decoder: no elimination over symbol data, only segment identities.

    Seeds the known set with u's cached subfiles of the demanded files, then
    repeatedly resolves any segment equation with exactly one unknown
    subfile.  The equations are the transmitted segments plus the
    reconstructed all-non-leader ones; reconstruction runs once per
    broadcast and is shared by every user's decode (with three or more user
    groups, one elimination over the data-independent formal system).
    """
    return _decode(params, u, broadcast, cache_slice, _solve_peeling)


def decode(params: UccParams, u: int, broadcast: Broadcast, cache_slice: CacheSlice, method: str = "linear") -> tuple[int, ...]:
    """Decode user u's requested file; method is "linear" (reference) or "structural"."""
    if method == "linear":
        return decode_linear(params, u, broadcast, cache_slice)
    if method == "structural":
        return decode_structural(params, u, broadcast, cache_slice)
    raise ValueError(f"unknown decode method {method!r}")
