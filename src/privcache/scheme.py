"""Demand-private coded caching with multiple demands per user.

K real users each request L distinct files out of N.  The construction runs
the restricted-demand single-request scheme of :mod:`privcache.ucc` over
K * n_active virtual users, where n_active = min(N, K*L), and hides the
demand pattern behind four pieces of randomness:

* a uniform secret permutation of the file labels (only the server knows it;
  caches and broadcast are expressed in relabeled coordinates),
* per user, a secret uniform choice of L distinct virtual slots out of its
  n_active dedicated ones (handed to the user at placement time),
* a uniform "cover set" of n_active file labels containing every requested
  file, drawn at delivery time,
* per user, a uniform arrangement of the cover set into the user's demand
  block, pinned so that slot S[k][l] carries demand d[k][l].

The file relabeling enters in one place: ``relabeled_library`` files real
file n under broadcast label relabeling[n], and ``relabeled_demand`` names
the expanded demand's files the same way; placement, delivery and decoding
work in broadcast labels only.  The broadcast is the single-request
scheme's message, a ``ucc.Broadcast``, for the masked (relabeled) expanded
demand vector, which rides along in the clear as its ``demand``.  The
private layer only maps users to virtual users: ``place_caches``, the one
placement call, validates one slot tuple per user and fills each user's
cache with the engine's placement for its L virtual users (whole subfiles,
per label {label rank: subfile}), and ``decode_user`` decodes requested
file l by cutting the virtual user of its secret slot out of that cache and
running the engine decoder for it, on the broadcast, which carries the
instance, and that slice only.  ``deliver`` is the one delivery call.

One sampler and one enumerator describe the same stages: ``sampler``
validates a demand matrix once and returns a function that draws, from seed
streams, one label-free (slot tuples, cover set, expanded demand)
realization plus its relabeling, and ``realizations`` enumerates every such
realization, equally likely, for the exact audits, which count the
relabeling in.  Both take the same ``slots`` pin mapping, checked by
``checked_slots``, and a stage the ``Variant`` switches off takes the first
element of its support.  All randomness flows from one seed through named
substreams (labels are hashed into independent generators), so any run is
replayable.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from . import ucc
from .gf import PrimeField
from .ucc import Broadcast, Library, UccParams

Demands = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SchemeParams:
    """Problem dimensions plus the placement knob r and field/packet choices."""

    n_files: int
    n_users: int
    demands_per_user: int
    r: int
    q: int = 257
    packet_size: int = 1

    def __post_init__(self):
        if self.n_files < 1 or self.n_users < 1:
            raise ValueError("need at least one file and one user")
        if not 1 <= self.demands_per_user <= self.n_files:
            raise ValueError("demands per user must lie in [1, n_files]")
        self.ucc  # the engine's params check r and packet_size
        PrimeField(self.q)  # raises on a composite modulus

    @property
    def n_active(self) -> int:
        """Distinct file labels involved in one delivery round: min(N, K*L)."""
        return min(self.n_files, self.n_users * self.demands_per_user)

    @property
    def n_virtual(self) -> int:
        return self.n_users * self.n_active

    @property
    def field(self) -> PrimeField:
        return PrimeField(self.q)

    @cached_property
    def ucc(self) -> UccParams:
        return UccParams(
            n_files=self.n_files,
            n_users=self.n_virtual,
            block_len=self.n_active,
            r=self.r,
            packet_size=self.packet_size,
        )

    @property
    def file_len(self) -> int:
        return self.ucc.file_len


@dataclass(frozen=True)
class Variant:
    """Which randomization stages are active.  The genuine scheme enables all
    four; switching stages off produces the derandomized baselines used by the
    privacy audits (a fully stripped variant is the plain non-private scheme)."""

    relabel_files: bool = True
    random_slots: bool = True
    random_cover: bool = True
    random_fill: bool = True


FULL = Variant()
NO_RELABEL = Variant(relabel_files=False)
PLAIN_BASELINE = Variant(False, False, False, False)


class SeedStreams:
    """Named, independent RNG substreams derived from one 64-bit seed."""

    def __init__(self, seed: int, prefix: str = ""):
        self.seed = seed
        self.prefix = prefix

    def rng(self, label: str) -> random.Random:
        digest = hashlib.sha256(f"{self.seed}/{self.prefix}{label}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))


# ---------------------------------------------------------------------------
# Demand matrices
# ---------------------------------------------------------------------------


def validate_demands(params: SchemeParams, rows: Iterable[Iterable[int]]) -> Demands:
    """Normalize and validate a demand matrix: K rows of L pairwise-distinct files."""
    mat = tuple(tuple(row) for row in rows)
    if len(mat) != params.n_users:
        raise ValueError(f"expected {params.n_users} demand rows, got {len(mat)}")
    for k, row in enumerate(mat):
        if len(row) != params.demands_per_user:
            raise ValueError(f"row {k} has {len(row)} entries, expected {params.demands_per_user}")
        if any(not 0 <= d < params.n_files for d in row):
            raise ValueError(f"row {k} has an out-of-range file index")
        if len(set(row)) != len(row):
            raise ValueError(f"row {k} repeats a file")
    return mat


def all_demand_matrices(params: SchemeParams) -> Iterator[Demands]:
    rows = list(itertools.permutations(range(params.n_files), params.demands_per_user))
    return itertools.product(rows, repeat=params.n_users)


def sample_demands(params: SchemeParams, rng: random.Random) -> Demands:
    return tuple(
        tuple(rng.sample(range(params.n_files), params.demands_per_user))
        for _ in range(params.n_users)
    )


def requested_files(demands: Demands) -> tuple[int, ...]:
    return tuple(sorted({d for row in demands for d in row}))


def feasible_cover_sets(params: SchemeParams, demands: Demands) -> list[tuple[int, ...]]:
    """All n_active-subsets of the file labels containing every requested file,
    in lexicographic order.

    Each cover is the requested files plus one (n_active - |requested|)-subset
    of the other files, so only those subsets are enumerated.  Taking them in
    lexicographic order keeps the covers in lexicographic order: two equal-size
    sets compare at the smallest element of their symmetric difference, which
    the shared requested files do not change."""
    need = requested_files(demands)
    rest = [f for f in range(params.n_files) if f not in need]
    return [tuple(sorted(need + extra)) for extra in itertools.combinations(rest, params.n_active - len(need))]


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------


def slot_support(params: SchemeParams) -> list[tuple[int, ...]]:
    """Every admissible slot tuple: ordered L-arrangements of [n_active)."""
    return list(itertools.permutations(range(params.n_active), params.demands_per_user))


def checked_slots(params: SchemeParams, slots: Mapping[int, Sequence[int]] | None) -> dict[int, tuple[int, ...]]:
    """The slot tuples a user -> slot tuple mapping assigns, each checked
    directly to be L distinct slots in [0, n_active): one of ``slot_support``,
    which is not built.  The one slot-tuple check."""
    slot_set, length = set(range(params.n_active)), params.demands_per_user
    out = {}
    for k, sel in (slots or {}).items():
        if not 0 <= k < params.n_users:
            raise ValueError(f"user {k} out of range [0, {params.n_users})")
        out[k] = sel = tuple(sel)
        if len(sel) != length or len(slot_set.intersection(sel)) != length:
            raise ValueError(f"slot tuple {sel} of user {k} is not "
                             f"{length} distinct slots in [0, {params.n_active})")
    return out


@dataclass
class UserCache:
    """What user k physically holds: its secret slot tuple and, per broadcast
    file label, the stored subfiles of that (relabeled) file, {label rank:
    subfile}."""

    user: int
    selector: tuple[int, ...]
    subfiles: dict[int, dict[int, tuple[int, ...]]]

    @property
    def symbol_count(self) -> int:
        return sum(len(sub) for stored in self.subfiles.values() for sub in stored.values())


def _virtual_user(n_active: int, k: int, slot_value: int) -> int:
    return k * n_active + slot_value


def place_caches(params: SchemeParams, library: Library,
                 slots: Sequence[tuple[int, ...]]) -> list[UserCache]:
    """Every user's cache from the library in broadcast labels and one
    validated slot tuple per user: for each label, the union of the subfiles
    the user's L chosen virtual users would store.  Placement is uncoded:
    stored subfiles are verbatim library slices."""
    if len(slots) != params.n_users:
        raise ValueError("need one slot tuple per user")
    checked = checked_slots(params, dict(enumerate(slots)))
    if library.n_files != params.n_files or library.file_len != params.file_len:
        raise ValueError("library dimensions do not match params")
    return [UserCache(k, sel, ucc.place(params.ucc, library, [_virtual_user(params.n_active, k, s) for s in sel]))
            for k, sel in checked.items()]


# ---------------------------------------------------------------------------
# Delivery
# ---------------------------------------------------------------------------


def _pinned_block(params: SchemeParams, cover_set: Sequence[int], row: Sequence[int],
                  selector: Sequence[int]) -> tuple[list[int], list[int]]:
    """A user's block with its demands pinned at its slots (-1 marks a free
    position) and the remaining cover-set files, ascending."""
    block = [-1] * params.n_active
    for s, d in zip(selector, row):
        block[s] = d
    return block, sorted(set(cover_set) - set(row))


def _fill(block: Sequence[int], values: Iterable[int]) -> tuple[int, ...]:
    it = iter(values)
    return tuple(v if v >= 0 else next(it) for v in block)


def block_support(params: SchemeParams, cover_set: Sequence[int], row: Sequence[int], selector: Sequence[int]) -> list[tuple[int, ...]]:
    """Every admissible demand block for one user: arrangements of the cover
    set with the user's demands pinned at its slots.  Size (n_active - L)!."""
    block, rest_values = _pinned_block(params, cover_set, row, selector)
    return [_fill(block, perm) for perm in itertools.permutations(rest_values)]


def sampler(params: SchemeParams, demands: Demands, variant: Variant = FULL,
            slots: Mapping[int, Sequence[int]] | None = None):
    """The scheme's randomness for one demand matrix, as a function ``draw``
    of the seed streams: the demand matrix and pins are validated and the
    cover sets derived once, for callers that draw many realizations.  Each
    ``draw(streams)`` returns (relabeling, slot tuples, cover set, expanded
    demand): one of the realizations ``realizations`` yields, plus the
    relabeling.

    Each stage reads its own substream: "relabel", "slots" (one sample per
    user, in user order), "cover" (uniform over the feasible cover sets in
    lexicographic order) and "block:k" (a shuffle of user k's free cover-set
    files).  A user that ``slots`` pins still draws its slot tuple, which
    the pin then replaces, so the other users' draws do not move."""
    demands = validate_demands(params, demands)
    pinned = checked_slots(params, slots)
    covers = feasible_cover_sets(params, demands)
    first_slots = tuple(range(params.demands_per_user))  # slot_support(params)[0]

    def draw(streams: SeedStreams):
        if variant.relabel_files:
            relabeling = tuple(streams.rng("relabel").sample(range(params.n_files), params.n_files))
        else:
            relabeling = tuple(range(params.n_files))
        if variant.random_slots:
            rng = streams.rng("slots")
            drawn = [tuple(rng.sample(range(params.n_active), params.demands_per_user)) for _ in range(params.n_users)]
        else:
            drawn = [first_slots] * params.n_users
        sel = tuple(pinned.get(k, s) for k, s in enumerate(drawn))
        cover = covers[streams.rng("cover").randrange(len(covers))] if variant.random_cover else covers[0]
        blocks = []
        for k in range(params.n_users):
            block, free = _pinned_block(params, cover, demands[k], sel[k])
            if variant.random_fill:
                streams.rng(f"block:{k}").shuffle(free)
            blocks.append(_fill(block, free))
        return relabeling, sel, cover, tuple(v for block in blocks for v in block)

    return draw


def realizations(params: SchemeParams, demands: Demands, variant: Variant = FULL,
                 slots: Mapping[int, Sequence[int]] | None = None,
                 ) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...]]]:
    """Every label-free realization of the scheme's randomness for one demand
    matrix, as (slot tuples, cover set, expanded demand).

    Loops slot tuples -> cover set -> block fills over the stages ``variant``
    leaves random (a stage switched off contributes its deterministic draw).
    ``slots`` pins the slot tuple of each user it names.  Each stage is
    uniform and its support size does not depend on earlier draws, so every
    yielded realization is equally likely.  The relabeling, uniform and
    independent of these stages, is not enumerated."""
    demands = validate_demands(params, demands)
    pinned = checked_slots(params, slots)
    support = slot_support(params)
    free = support if variant.random_slots else support[:1]
    slot_opts = [[pinned[k]] if k in pinned else free for k in range(params.n_users)]
    covers = feasible_cover_sets(params, demands)
    if not variant.random_cover:
        covers = covers[:1]
    for sel in itertools.product(*slot_opts):
        for cover in covers:
            block_opts = [
                block_support(params, cover, demands[k], sel[k]) if variant.random_fill
                else [_fill(*_pinned_block(params, cover, demands[k], sel[k]))]
                for k in range(params.n_users)
            ]
            for blocks in itertools.product(*block_opts):
                yield sel, cover, tuple(v for block in blocks for v in block)


def relabeled_library(library: Library, relabeling: Sequence[int]) -> Library:
    """The library in broadcast labels: real file n filed under label
    relabeling[n].  The one place where files change labels."""
    if sorted(relabeling) != list(range(library.n_files)):
        raise ValueError("relabeling is not a permutation of the file labels")
    rows: list[tuple[int, ...]] = [()] * library.n_files
    for n, row in enumerate(library.rows):
        rows[relabeling[n]] = row
    return Library(library.field, tuple(rows))


def relabeled_demand(expanded: Sequence[int], relabeling: Sequence[int]) -> tuple[int, ...]:
    """The expanded demand in broadcast labels (the masked demand): file n
    requested as label relabeling[n], as ``relabeled_library`` files it."""
    return tuple(relabeling[v] for v in expanded)


def deliver(params: SchemeParams, library: Library, masked: tuple[int, ...]) -> Broadcast:
    """The broadcast: the single-request scheme's message over the library in
    broadcast labels under the masked expanded demand.  That demand is
    always restricted (every block is an arrangement of the relabeled cover
    set) and goes over the link in the clear as ``broadcast.demand``,
    excluded from the rate.  Nothing else of the demand matrix or the
    placement enters the message."""
    return ucc.encode(params.ucc, masked, library)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


def decode_user(slot: int, broadcast: Broadcast, cache: UserCache,
                method: str = "linear") -> tuple[int, ...]:
    """Recover the cache owner's slot-th requested file from the broadcast
    and that cache only.  The user reads the instance and the masked demand
    off the broadcast, cuts out the subfiles its chosen virtual user would
    hold for the active labels, and runs the single-request decoder for that
    virtual user on them."""
    if not 0 <= slot < len(cache.selector):
        raise ValueError(f"slot {slot} out of range")
    n_active = broadcast.params.block_len
    u = _virtual_user(n_active, cache.user, cache.selector[slot])
    ranks = broadcast.params.user_ranks[u]
    try:
        cache_slice = {label: {t: cache.subfiles[label][t] for t in ranks}
                       for label in set(broadcast.demand[:n_active])}
    except KeyError as exc:
        raise ucc.DecodeError(f"cache is missing label/subfile {exc}") from None
    return ucc.decode(u, broadcast, cache_slice, method=method)


# ---------------------------------------------------------------------------
# End-to-end simulation
# ---------------------------------------------------------------------------


@dataclass
class DecodeVerdict:
    user: int
    slot: int
    file_index: int
    ok: bool


@dataclass
class SimulationTrace:
    """Everything one seeded run produced, replayable and JSON-serializable."""

    seed: int
    params: SchemeParams
    demands: Demands
    relabeling: tuple[int, ...]
    slots: tuple[tuple[int, ...], ...]
    cover_set: tuple[int, ...]
    expanded: tuple[int, ...]
    broadcast: Broadcast
    memory: Fraction
    rate: Fraction
    verdicts: list[DecodeVerdict]

    @property
    def correct_all(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def to_json_dict(self) -> dict:
        par = self.params
        return {
            "seed": self.seed,
            "params": {
                "n_files": par.n_files,
                "n_users": par.n_users,
                "demands_per_user": par.demands_per_user,
                "r": par.r,
                "q": par.q,
                "packet_size": par.packet_size,
                "n_active": par.n_active,
                "n_virtual": par.n_virtual,
                "file_len": par.file_len,
            },
            "demands": [list(row) for row in self.demands],
            "relabeling": list(self.relabeling),
            "slots": [list(s) for s in self.slots],
            "cover_set": list(self.cover_set),
            "expanded_demand": list(self.expanded),
            "masked_demand": list(self.broadcast.demand),
            "memory": [self.memory.numerator, self.memory.denominator],
            "rate": [self.rate.numerator, self.rate.denominator],
            "segment_count": self.broadcast.segment_count,
            "broadcast": self.broadcast.trace_record(),
            "decodes": [
                {"user": v.user, "slot": v.slot, "file": v.file_index, "ok": v.ok}
                for v in self.verdicts
            ],
            "correct_all": self.correct_all,
        }

    def summary_row(self) -> dict:
        par = self.params
        return {
            "N": par.n_files,
            "K": par.n_users,
            "L": par.demands_per_user,
            "r": par.r,
            "M_num": self.memory.numerator,
            "M_den": self.memory.denominator,
            "R_num": self.rate.numerator,
            "R_den": self.rate.denominator,
            "correct_all": self.correct_all,
        }


def run_simulation(params: SchemeParams, seed: int, demands: Demands | None = None,
                   decoder: str = "linear", variant: Variant = FULL) -> SimulationTrace:
    """One full placement + delivery + decode-everything run from a single
    seed: the library comes from the "library" substream."""
    streams = SeedStreams(seed)
    if demands is None:
        demands = sample_demands(params, streams.rng("demands"))
    else:
        demands = validate_demands(params, demands)
    library = Library.random(params.field, params.n_files, params.file_len, streams.rng("library"))
    relabeling, slots, cover, expanded = sampler(params, demands, variant)(streams)
    relabeled = relabeled_library(library, relabeling)
    caches = place_caches(params, relabeled, slots)
    broadcast = deliver(params, relabeled, relabeled_demand(expanded, relabeling))
    verdicts = []
    for k in range(params.n_users):
        for l in range(params.demands_per_user):
            want = library.rows[demands[k][l]]
            try:
                got = decode_user(l, broadcast, caches[k], method=decoder)
                ok = got == tuple(want)
            except ucc.DecodeError:
                ok = False
            verdicts.append(DecodeVerdict(k, l, demands[k][l], ok))
    memory = Fraction(max(c.symbol_count for c in caches), params.file_len)
    return SimulationTrace(
        seed=seed,
        params=params,
        demands=demands,
        relabeling=relabeling,
        slots=slots,
        cover_set=cover,
        expanded=expanded,
        broadcast=broadcast,
        memory=memory,
        rate=Fraction(broadcast.symbol_count, params.file_len),
        verdicts=verdicts,
    )
