"""Single-demand engine tests: placement layout, restricted demands, encoding
counts, the hand-checked decode identity, and exhaustive decoder equivalence."""

import copy
import functools
import inspect
import itertools
import math
import random
import textwrap
import types

import pytest

from helpers import cache_slice_for, ramp_library, segment_terms, subset_rank
from privcache import scheme, ucc
from privcache.gf import PrimeField, solve_any
from privcache.scheme import SchemeParams, SeedStreams, UserCache
from privcache.ucc import (
    Broadcast,
    DecodeError,
    Library,
    UccParams,
    decode,
    decode_linear,
    decode_structural,
    encode,
    is_restricted,
    _reconstructed_segments,
)

F257 = PrimeField(257)


def all_restricted_demands(params):
    """Every restricted demand vector for the given params."""
    for base in itertools.combinations(range(params.n_files), params.block_len):
        for blocks in itertools.product(itertools.permutations(base), repeat=params.n_groups):
            yield tuple(v for b in blocks for v in b)


# ---------------------------------------------------------------------------
# params and placement
# ---------------------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        UccParams(n_files=5, n_users=8, block_len=4, r=9)
    with pytest.raises(ValueError):
        UccParams(n_files=5, n_users=7, block_len=4, r=1)
    with pytest.raises(ValueError):
        UccParams(n_files=3, n_users=8, block_len=4, r=1)
    with pytest.raises(ValueError, match="^need at least one file$"):
        UccParams(n_files=0, n_users=2, block_len=1, r=1)
    with pytest.raises(ValueError, match="^need at least one user$"):
        UccParams(n_files=2, n_users=0, block_len=1, r=0)


@pytest.mark.parametrize("n_users", range(1, 8))
def test_shape_tables_match_the_subset_by_subset_oracles(n_users, monkeypatch):
    """For every block length dividing n_users, every r and both
    conventions, a broadcast's segment table, read off the shape's faces,
    equals the terms built one subset at a time; every plan entry (t, sub,
    i) of user u has sub = S + {u} sorted for the label S of rank t and u at
    position i; and the plan's ranks are the labels without u, ascending."""
    rng = random.Random(n_users)
    for r in range(n_users + 1):
        labels = list(itertools.combinations(range(n_users), r))
        for block_len in (b for b in range(1, n_users + 1) if n_users % b == 0):
            params = UccParams(n_files=block_len + 1, n_users=n_users, block_len=block_len, r=r)
            files = rng.sample(range(params.n_files), block_len)
            demand = tuple(v for _ in range(params.n_groups) for v in rng.sample(files, block_len))
            for signed in (False, True):
                monkeypatch.setattr(Broadcast, "signed", property(lambda self, signed=signed: signed))
                terms = Broadcast(params, F257, demand, {})._terms
                assert list(terms) == list(itertools.combinations(range(n_users), r + 1))
                assert terms == {sub: segment_terms(params, demand, sub, signed) for sub in terms}
        tables = ucc._shape_tables(n_users, r)
        assert tables.labels == tuple(labels)
        for u, plan in enumerate(tables.plans):
            for t, sub, i in plan:
                assert sub == tuple(sorted(labels[t] + (u,)))
                assert sub[i] == u
            assert [t for t, _, _ in plan] == [t for t, lab in enumerate(labels) if u not in lab]
            assert [t for t, lab in enumerate(labels) if u in lab] == list(tables.user_ranks[u])


@pytest.mark.parametrize("rows, message", [((), "empty library"), (((1, 2), (3,)), "ragged library"),
                                           (((1, 257),), r"library symbol outside \[0, q\)"),
                                           (((-1, 0),), r"library symbol outside \[0, q\)")],
                         ids=["empty", "ragged", "symbol-q", "symbol-negative"])
def test_library_rejects_malformed_rows(rows, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Library(F257, rows)


def test_labels_are_the_r_subsets_in_lexicographic_order():
    """Labels are ranked in lexicographic order, which the combinatorial
    number system confirms label by label, and a segment table over
    (r+1)-subsets of fewer than r+1 users is empty."""
    assert ucc._shape_tables(4, 1).labels == ((0,), (1,), (2,), (3,))
    labels = ucc._shape_tables(8, 2).labels
    assert len(labels) == 28
    assert [subset_rank(range(8), lab) for lab in labels] == list(range(28))
    full = UccParams(n_files=3, n_users=4, block_len=2, r=4)
    assert ucc._shape_tables(4, 4).labels == ((0, 1, 2, 3),)
    assert Broadcast(full, F257, (0, 1, 1, 0), {})._terms == {}


@pytest.mark.parametrize("packet", [1, 3])
def test_place_holds_the_subfiles_labeled_by_its_users(packet):
    """For one user and for several, at every r: per file, ``place`` holds
    exactly the ranks whose label contains one of the users, each subfile
    the library's packet_size symbols at that rank.  One user stores
    C(n_users - 1, r - 1) subfiles of each file: none at r = 0, the whole
    file at r = n_users."""
    for r in range(7):
        params = UccParams(n_files=3, n_users=6, block_len=3, r=r, packet_size=packet)
        lib = ramp_library(F257, 3, params.file_len)
        labels = list(itertools.combinations(range(6), r))
        for users in [(0,), (4,), (1, 3), (0, 2, 5)]:
            placed = ucc.place(params, lib, users)
            assert sorted(placed) == [0, 1, 2]
            for n, stored in placed.items():
                assert sorted(stored) == [t for t, lab in enumerate(labels) if set(lab) & set(users)]
                for t, sub in stored.items():
                    assert sub == lib.rows[n][t * packet:(t + 1) * packet]
                if len(users) == 1:
                    assert len(stored) == (math.comb(5, r - 1) if r else 0)
                if r == 6:
                    assert tuple(itertools.chain.from_iterable(stored.values())) == lib.rows[n]


def test_placement_storage_count():
    for r in range(0, 9):
        params = UccParams(n_files=5, n_users=8, block_len=4, r=r)
        lib = ramp_library(F257, 5, params.file_len)
        for u in (0, 3, 7):
            for stored in ucc.place(params, lib, [u]).values():
                count = math.comb(7, r - 1) if r else 0  # one user stores C(7, r - 1) subfiles, none at r = 0
                assert len(stored) == count
                assert sum(len(sub) for sub in stored.values()) == count * params.packet_size


def test_placement_extremes():
    empty = UccParams(n_files=5, n_users=8, block_len=4, r=0)
    lib = ramp_library(F257, 5, empty.file_len)
    assert all(stored == {} for stored in ucc.place(empty, lib, [0]).values())
    full = UccParams(n_files=5, n_users=8, block_len=4, r=8)
    lib = ramp_library(F257, 5, full.file_len)
    for n, stored in ucc.place(full, lib, [5]).items():
        assert sorted(stored) == list(range(math.comb(8, 8)))
        assert tuple(itertools.chain.from_iterable(stored.values())) == lib.rows[n]


def test_uncoded_placement_symbols_are_verbatim():
    params = UccParams(n_files=3, n_users=4, block_len=2, r=2)
    lib = ramp_library(F257, 3, params.file_len)
    placed = ucc.place(params, lib, [1])
    for n, stored in placed.items():
        for t, sub in stored.items():
            assert sub == lib.rows[n][t:t + 1]


# ---------------------------------------------------------------------------
# restricted demands
# ---------------------------------------------------------------------------


def test_is_restricted_examples():
    assert is_restricted((1, 2, 3, 4, 2, 3, 4, 1), 4)
    assert not is_restricted((1, 2, 3, 4, 1, 2, 3, 0), 4)
    assert not is_restricted((1, 1, 3, 4, 2, 3, 4, 1), 4)


def test_is_restricted_wrong_length():
    with pytest.raises(ValueError):
        is_restricted((0, 1, 2), 2)
    with pytest.raises(ValueError):
        is_restricted((), 1)


def test_encode_names_the_unrestricted_demand_it_rejects():
    params = UccParams(n_files=3, n_users=4, block_len=2, r=1)
    lib = ramp_library(F257, 3, params.file_len)
    with pytest.raises(ValueError, match=r"^\(0, 1, 0, 2\) is not a restricted demand for block length 2$"):
        encode(params, (0, 1, 0, 2), lib)
    bc = encode(params, (0, 1, 1, 0), lib)
    assert bc.demand == (0, 1, 1, 0)
    assert set(bc._file_offset) == {0, 1}


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def test_encode_small_instance_segment_count():
    params = UccParams(n_files=5, n_users=8, block_len=4, r=1)
    lib = ramp_library(F257, 5, params.file_len)
    demand = (0, 2, 1, 3, 1, 0, 3, 2)
    bc = encode(params, demand, lib)
    assert bc.segment_count == 22
    assert all(len(seg) == params.packet_size for seg in bc.segments.values())


def test_encode_r0_sends_whole_requested_files():
    params = UccParams(n_files=5, n_users=8, block_len=4, r=0)
    lib = ramp_library(F257, 5, params.file_len)
    demand = (0, 2, 1, 3, 1, 0, 3, 2)
    bc = encode(params, demand, lib)
    assert bc.segment_count == 4  # leader singletons only
    for sub, seg in bc.segments.items():
        assert len(sub) == 1 and sub[0] in params.leaders
        assert seg == lib.rows[demand[sub[0]]]


def test_encode_r_equals_n_users_sends_nothing():
    params = UccParams(n_files=5, n_users=8, block_len=4, r=8)
    lib = ramp_library(F257, 5, params.file_len)
    demand = (0, 2, 1, 3, 1, 0, 3, 2)
    assert encode(params, demand, lib).segment_count == 0


def test_encode_rejects_non_restricted_demand():
    params = UccParams(n_files=5, n_users=8, block_len=4, r=1)
    lib = ramp_library(F257, 5, params.file_len)
    with pytest.raises(ValueError, match="not a restricted demand for block length 4"):
        encode(params, (0, 1, 0, 1, 0, 1, 0, 1), lib)  # restricted for block length 2 only


@pytest.mark.parametrize("demand,message", [
    ((0, 1, 0, 1, 0, 1, 0, 1), r"^\(0, 1, 0, 1, 0, 1, 0, 1\) is not a restricted demand for block length 4$"),
    ((0, 2, 1, 3), "^demand length 4 != n_users 8$"),
    ((0, 2, 1, 5, 1, 0, 5, 2), "^demand entry outside file range$"),
], ids=["unrestricted", "short", "out-of-range"])
def test_broadcast_built_directly_checks_its_demand(demand, message):
    """A receiver rebuilding a broadcast off the wire gets the checks
    ``encode`` gets: the demand is checked against the broadcast's params."""
    params = UccParams(n_files=5, n_users=8, block_len=4, r=1)
    with pytest.raises(ValueError, match=message):
        Broadcast(params, F257, demand, {})


def test_segment_count_identity_sweep():
    for n_users, block_len in ((4, 2), (6, 2), (6, 3), (8, 4)):
        for r in range(n_users + 1):
            params = UccParams(n_files=block_len + 1, n_users=n_users, block_len=block_len, r=r)
            lib = ramp_library(F257, params.n_files, params.file_len)
            demand = next(all_restricted_demands(params))
            bc = encode(params, demand, lib)
            assert bc.segment_count == math.comb(n_users, r + 1) - math.comb(n_users - block_len, r + 1)


def test_trace_record_round_trip_fields():
    params = UccParams(n_files=3, n_users=4, block_len=2, r=1)
    lib = ramp_library(F257, 3, params.file_len)
    demand = (0, 1, 1, 0)
    rec = encode(params, demand, lib).trace_record()
    assert rec["demand"] == [0, 1, 1, 0]
    assert rec["leaders"] == [0, 1]
    ranks = [s["rank"] for s in rec["segments"]]
    assert ranks == sorted(ranks)
    assert len(rec["segments"]) == 5


@pytest.mark.parametrize("n_users,block_len,r", [(4, 2, 1), (6, 2, 2), (6, 3, 0), (8, 4, 3), (4, 2, 4)])
def test_trace_record_ranks_are_subset_ranks(n_users, block_len, r):
    params = UccParams(n_files=block_len + 1, n_users=n_users, block_len=block_len, r=r)
    lib = ramp_library(F257, params.n_files, params.file_len)
    bc = encode(params, next(all_restricted_demands(params)), lib)
    rec = bc.trace_record()
    assert [tuple(s["users"]) for s in rec["segments"]] == sorted(bc.segments)
    for seg in rec["segments"]:
        assert seg["rank"] == subset_rank(range(n_users), seg["users"])
        assert tuple(seg["symbols"]) == bc.segments[tuple(seg["users"])]


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def test_walkthrough_decode_identity():
    """Hand-checked chain for user 2 with r=1: the cached subfile {2} comes for
    free and every other subfile of its file satisfies
    W[d2][{i}] = Y[{2,i}] - W[d_i][{2}]."""
    params = UccParams(n_files=5, n_users=8, block_len=4, r=1)
    lib = ramp_library(F257, 5, params.file_len)
    demand = (0, 2, 1, 3, 1, 0, 3, 2)
    bc = encode(params, demand, lib)
    d2 = demand[2]
    assert d2 == 1
    for i in range(8):
        if i == 2:
            continue
        pair = tuple(sorted((2, i)))
        y = bc.segments[pair][0]
        recovered = (y - lib.rows[demand[i]][2]) % 257
        assert recovered == lib.rows[d2][i]


def test_decode_full_cache_needs_no_broadcast():
    params = UccParams(n_files=3, n_users=4, block_len=2, r=4)
    lib = ramp_library(F257, 3, params.file_len)
    demand = (0, 1, 1, 0)
    bc = encode(params, demand, lib)
    for u in range(4):
        cs = cache_slice_for(params, u, lib, demand)
        assert decode_linear(u, bc, cs) == lib.rows[demand[u]]
        assert decode_structural(u, bc, cs) == lib.rows[demand[u]]


@pytest.mark.parametrize("n_files,r", [(3, 0), (3, 1), (3, 2), (2, 1), (2, 3)])
def test_decode_exhaustive_two_groups(n_files, r):
    """Every user decodes every restricted demand from its own slice, and
    from a cache holding every user's subfiles, which the decoders cut."""
    params = UccParams(n_files=n_files, n_users=4, block_len=2, r=r)
    lib = ramp_library(F257, n_files, params.file_len)
    everything = ucc.place(params, lib, range(params.n_users))
    for demand in all_restricted_demands(params):
        bc = encode(params, demand, lib)
        for u in range(params.n_users):
            cs = cache_slice_for(params, u, lib, demand)
            want = lib.rows[demand[u]]
            assert decode_linear(u, bc, cs) == want
            assert decode_structural(u, bc, cs) == want
            assert decode_linear(u, bc, everything) == want
            assert decode_structural(u, bc, everything) == want


@pytest.mark.parametrize("n_files,r", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_decode_exhaustive_three_groups(n_files, r):
    # three user groups create repeated files across non-leader blocks, which
    # the signed identity rebuilds without any elimination
    params = UccParams(n_files=n_files, n_users=6, block_len=2, r=r)
    lib = ramp_library(F257, n_files, params.file_len)
    for demand in all_restricted_demands(params):
        bc = encode(params, demand, lib)
        for u in range(params.n_users):
            cs = cache_slice_for(params, u, lib, demand)
            want = lib.rows[demand[u]]
            assert decode_linear(u, bc, cs) == want
            assert decode_structural(u, bc, cs) == want


def test_decode_exhaustive_kv4_r2_random_library():
    params = UccParams(n_files=3, n_users=4, block_len=2, r=2)
    import random

    lib = Library.random(F257, 3, params.file_len, random.Random(99))
    for demand in all_restricted_demands(params):
        bc = encode(params, demand, lib)
        for u in range(4):
            cs = cache_slice_for(params, u, lib, demand)
            assert decode(u, bc, cs) == lib.rows[demand[u]]


# (n_files, n_users, block_len, r, q, packet_size): GF(2), GF(3), GF(5),
# GF(257); two to four user groups; repeated files across non-leader blocks
# from three groups on; packets of one and two symbols
RECONSTRUCTION_CASES = [
    (3, 4, 2, 1, 257, 1),
    (3, 6, 3, 2, 257, 2),
    (2, 6, 2, 1, 3, 2),
    (2, 6, 2, 2, 2, 1),
    (3, 6, 2, 2, 257, 1),
    (3, 9, 3, 2, 5, 1),
    (2, 8, 2, 2, 3, 1),
    (2, 8, 2, 3, 257, 2),
    (2, 8, 2, 1, 2, 2),
]


def _reconstruction_instances():
    """(broadcast, library) pairs over RECONSTRUCTION_CASES: a random library,
    and every restricted demand, or every 9th when there are more than 64."""
    rng = random.Random(11)
    for n_files, n_users, block_len, r, q, packet in RECONSTRUCTION_CASES:
        params = UccParams(n_files, n_users, block_len, r, packet)
        field = PrimeField(q)
        demands = list(all_restricted_demands(params))
        lib = Library.random(field, n_files, params.file_len, rng)
        for demand in demands[::9] if len(demands) > 64 else demands:
            yield encode(params, demand, lib), lib


def _direct_segment(bc, lib, sub):
    """A segment's value summed straight from the library."""
    params, q = bc.params, bc.field.q
    rank_of = {lab: t for t, lab in enumerate(itertools.combinations(range(params.n_users), params.r))}
    vals = [0] * params.packet_size
    for i, u in enumerate(sub):
        c = -1 if bc.signed and i % 2 else 1
        base = rank_of[tuple(v for v in sub if v != u)] * params.packet_size
        row = lib.rows[bc.demand[u]]
        for p in range(params.packet_size):
            vals[p] = (vals[p] + c * row[base + p]) % q
    return tuple(vals)


def _eliminated_segments(bc):
    """Oracle: each omitted segment as a combination of transmitted ones, from
    one elimination over the formal system on the (file, subfile label)
    basis, in the broadcast's own coefficients; None where the segment lies
    outside the transmitted span."""
    params, q = bc.params, bc.field.q
    coeffs = [-1 if bc.signed and i % 2 else 1 for i in range(params.r + 1)]
    rank_of = {lab: t for t, lab in enumerate(itertools.combinations(range(params.n_users), params.r))}
    transmitted = sorted(bc.segments)
    omitted = list(itertools.combinations(range(params.block_len, params.n_users), params.r + 1))
    basis = {key: i for i, key in enumerate(itertools.product(sorted(set(bc.demand)), range(params.subfile_count)))}
    rows = [({}, [0] * len(omitted)) for _ in basis]  # a transmitted segment's coefficient, an omitted one's rhs
    for part, subsets in enumerate((transmitted, omitted)):
        for j, sub in enumerate(subsets):
            for c, u in zip(coeffs, sub):
                rows[basis[(bc.demand[u], rank_of[tuple(v for v in sub if v != u)])]][part][j] = c % q
    out = {}
    for sub, combo in zip(omitted, solve_any(bc.field, rows, len(transmitted), len(omitted))):
        if combo is None:
            out[sub] = None
            continue
        vals = [0] * params.packet_size
        for x, s in zip(combo, transmitted):
            for p in range(params.packet_size):
                vals[p] = (vals[p] + x * bc.segments[s][p]) % q
        out[sub] = tuple(vals)
    return out


def test_reconstructed_segments_match_direct_sums():
    """Every segment omitted from the broadcast (no leader in its subset) is
    rebuilt by the leader-substitution identity, for every group count and
    both coefficient conventions, and equals both oracles: the direct
    library sum and the combination one formal elimination finds."""
    groups, signed = set(), set()
    for bc, lib in _reconstruction_instances():
        params = bc.params
        omitted = list(itertools.combinations(range(params.block_len, params.n_users), params.r + 1))
        recon = _reconstructed_segments(bc)
        assert sorted(recon) == omitted
        eliminated = _eliminated_segments(bc)
        for sub in omitted:
            assert recon[sub] == _direct_segment(bc, lib, sub) == eliminated[sub]
        assert bc._all_segments == {**bc.segments, **recon}
        groups.add(params.n_groups)
        signed.add(bc.signed)
    assert groups == {2, 3, 4} and signed == {False, True}


# (b, groups, largest r, q): block 0 of b files, signed from three groups on
# over GF(257), plain below, and signless over GF(2)
CERTIFICATE_CASES = [
    (1, 4, 2, 257), (1, 6, 3, 257), (2, 3, 3, 257), (2, 4, 3, 257), (2, 5, 3, 257), (3, 3, 2, 257),
    (2, 2, 3, 257), (3, 2, 2, 257),
    (2, 4, 3, 2), (3, 3, 2, 2),
]

# K_v <= 9 shapes for the local certificate's oracle: three groups or more,
# where B can repeat a file, and two, where it cannot
SMALL_CERTIFICATE_CASES = [(1, 4, 2, 257), (2, 3, 3, 257), (3, 3, 2, 257), (2, 2, 3, 257)]


def _certificate_instances(cases=CERTIFICATE_CASES):
    """(broadcast, expected) pairs over ``cases``, each r up to the
    largest: every restricted demand whose block 0 is (0, ..., b - 1), over
    n_files = b files, with the unit-vector library.  Its packet_size is
    n_files * C(K_v, r), and subfile t of file n holds a 1 at n * C(K_v, r) + t
    and 0 elsewhere, so every segment, transmitted or omitted, is its own
    coefficient vector.  ``expected`` maps each omitted subset to that
    vector, read off the segment table."""
    for b, groups, r_max, q in cases:
        field = PrimeField(q)
        for r in range(r_max + 1):
            count = math.comb(b * groups, r)
            width = b * count
            params = UccParams(n_files=b, n_users=b * groups, block_len=b, r=r, packet_size=width)
            lib = Library(field, tuple(tuple(int(j % width == n * count + j // width) for j in range(width * count))
                                       for n in range(b)))
            for tail in itertools.product(itertools.permutations(range(b)), repeat=groups - 1):
                bc = encode(params, tuple(range(b)) + tuple(itertools.chain.from_iterable(tail)), lib)
                expected = {}
                for sub in itertools.combinations(range(b, params.n_users), r + 1):
                    vec = [0] * width
                    for n, t, c in bc._terms[sub]:
                        vec[n * count + t] = c % q
                    expected[sub] = tuple(vec)
                yield bc, expected


def _certificate_failures(rebuild) -> int:
    """The certificate instances whose omitted segments ``rebuild`` gets
    wrong, or reads a segment the broadcast does not hold for."""
    failures = 0
    for bc, expected in _certificate_instances():
        try:
            failures += rebuild(bc) != expected
        except KeyError:
            failures += 1
    return failures


def test_reconstruction_identity_integer_certificate():
    """The leader-substitution rebuild, certified in integers for every
    library over every prime field on the CERTIFICATE_CASES shapes.  The
    rebuild is linear in the segments, so on the unit-vector library it
    returns its own coefficients on the (file, subfile) basis.  Each
    rebuilt coordinate is a sum of at most 2^(r+1) - 1 terms, each -1, 0 or
    1, so at most 15 in size for r <= 3, and the true one is -1, 0 or 1, so
    equality mod 257 is equality in integers.  That holds mod every odd
    prime, whose convention is the one GF(257) gets; GF(2), where the
    convention is plain, is checked on its own.  Relabeling files, and adding files no user
    requests, changes neither side, so block 0 = (0, ..., b - 1) over b files
    covers every restricted demand of these shapes."""
    count = 0
    for bc, expected in _certificate_instances():
        assert _reconstructed_segments(bc) == expected
        count += len(expected)
    assert count == 6585


class _Formal(dict):
    """An integer combination of (file, label) subfiles standing in for one
    segment symbol, so that ``_reconstructed_segments`` runs in the
    integers: the rebuild asks a symbol only for c * x, a - x and x % q, and
    here % q keeps every integer."""

    def __rmul__(self, c):
        return _Formal({key: c * v for key, v in self.items()})

    def __sub__(self, other):
        out = _Formal(self)
        for key, v in other.items():
            x = out.get(key, 0) - v
            if x:
                out[key] = x
            else:
                del out[key]
        return out

    def __rsub__(self, zero):  # the rebuild's accumulator starts at the int 0
        return _Formal() - self

    def __mod__(self, q):
        return self


def _local_patterns(r):
    """Every local pattern of an omitted (r+1)-subset B: the files of B's
    users in user order, numbered by their leaders' order, which is every
    surjection of B's r + 1 positions onto range(b) for some b."""
    for files in itertools.product(range(r + 1), repeat=r + 1):
        if set(files) == set(range(max(files) + 1)):
            yield files


def _local_error(rebuild, pattern, signed):
    """Y_B minus its rebuild, in the integers, on ``pattern``'s local
    broadcast: users 0..b-1 lead files 0..b-1 and users b..b+r are B, so B is
    its one omitted subset.  A rebuild that reads a segment the broadcast
    does not hold gives None."""
    b, r = max(pattern) + 1, len(pattern) - 1
    demand = tuple(range(b)) + pattern

    def segment(sub):
        return _Formal({(demand[v], sub[:i] + sub[i + 1:]): -1 if signed and i % 2 else 1
                        for i, v in enumerate(sub)})

    segments = {sub: (segment(sub),) for sub in itertools.combinations(range(b + r + 1), r + 1) if sub[0] < b}
    bc = types.SimpleNamespace(
        params=types.SimpleNamespace(block_len=b, n_users=b + r + 1, r=r, packet_size=1),
        demand=demand, signed=signed, field=types.SimpleNamespace(q=None), _checked=lambda: segments)
    try:
        (rebuilt,), = rebuild(bc).values()
    except KeyError:
        return None
    return segment(tuple(range(b, b + r + 1))) - rebuilt


def _local_failures(rebuild, r_max):
    """The checks of the local certificate that ``rebuild`` fails over every
    local pattern with r <= r_max, as (pattern, convention) pairs: the
    signed identity must hold in the integers; the plain one must hold
    exactly where B's files are distinct, and mod 2 everywhere, since GF(2)
    uses it."""
    failures = []
    for r in range(r_max + 1):
        for pattern in _local_patterns(r):
            if _local_error(rebuild, pattern, True) != {}:
                failures.append((pattern, "signed"))
            error = _local_error(rebuild, pattern, False)
            if (error == {}) != (len(set(pattern)) == len(pattern)):
                failures.append((pattern, "plain"))
            if error is None or any(v % 2 for v in error.values()):
                failures.append((pattern, "plain mod 2"))
    return failures


def test_reconstruction_identity_local_certificate():
    """The rebuild of one omitted segment Y_B reads only B, the leaders of
    B's files and the order of those users, every leader before every other
    user.  Up to relabeling that is a local pattern, and there are
    Fubini(r + 1) of them, so one pass over them, run in the integers,
    covers every N, K_v, demand, library and prime field at that r.  For
    r <= 4: the signed identity holds on every pattern; the plain one
    holds exactly where B's files are distinct, which is always the case
    with one or two groups, where odd q uses it; and the plain one holds
    mod 2 on every pattern, which covers GF(2).  So
    ``_reconstructed_segments`` is exact wherever ``Broadcast.signed`` sends
    it."""
    assert [sum(1 for _ in _local_patterns(r)) for r in range(5)] == [1, 3, 13, 75, 541]
    assert _local_failures(_reconstructed_segments, 4) == []


def test_local_certificate_agrees_with_the_whole_demand_one(monkeypatch):
    """The local certificate's verdicts against the whole-demand one as an
    oracle: with each convention forced on the small-K_v certificate shapes,
    an omitted segment is rebuilt right exactly when its local pattern's
    identity holds.  Both verdicts occur, so the reduction to local patterns
    is checked on failures as well as on successes."""
    verdicts = {}
    seen = set()
    for signed in (False, True):
        monkeypatch.setattr(Broadcast, "signed", property(lambda self, signed=signed: signed))
        for bc, expected in _certificate_instances(SMALL_CERTIFICATE_CASES):
            block_len = bc.params.block_len
            leader_of = {bc.demand[i]: i for i in range(block_len)}
            rebuilt = _reconstructed_segments(bc)
            for sub, vec in expected.items():
                order = sorted({leader_of[bc.demand[v]] for v in sub})
                pattern = tuple(order.index(leader_of[bc.demand[v]]) for v in sub)
                holds = rebuilt[sub] == vec
                if (pattern, signed) not in verdicts:
                    verdicts[pattern, signed] = _local_error(_reconstructed_segments, pattern, signed) == {}
                assert holds == verdicts[pattern, signed]
                seen.add(holds)
    assert seen == {False, True}


@pytest.mark.parametrize("anchor, mutant", [
    ("flip = signed and", "flip = False and"),  # sigma dropped
    ("if lead not in taken:", "if True:"),  # V may repeat a file
], ids=["sigma-dropped", "repeated-leader"])
def test_reconstruction_sign_rule_mutants_fail(anchor, mutant, monkeypatch):
    """Each sign-rule mutant of the identity, built from the real source,
    breaks the comparison with the direct library sums and fails both
    integer certificates."""
    source = textwrap.dedent(inspect.getsource(ucc._reconstructed_segments))
    assert source.count(anchor) == 1
    namespace = dict(vars(ucc))
    exec(source.replace(anchor, mutant), namespace)
    rebuild = namespace["_reconstructed_segments"]
    monkeypatch.setattr(ucc, "_reconstructed_segments", rebuild)
    caught = 0
    for bc, lib in _reconstruction_instances():
        try:
            recon = ucc._reconstructed_segments(bc)
        except (DecodeError, KeyError):
            caught += 1
            continue
        caught += any(vals != _direct_segment(bc, lib, sub) for sub, vals in recon.items())
    assert caught > 0
    assert _certificate_failures(rebuild) > 0
    assert _local_failures(rebuild, 3)


def test_decode_missing_cache_symbols_raises():
    params = UccParams(n_files=3, n_users=4, block_len=2, r=1)
    lib = ramp_library(F257, 3, params.file_len)
    demand = (0, 1, 1, 0)
    bc = encode(params, demand, lib)
    with pytest.raises(DecodeError):
        decode_linear(0, bc, {0: {}, 1: {}})
    with pytest.raises(DecodeError):
        decode_structural(0, bc, {0: {}, 1: {}})
    # a subfile one symbol short or one too long is missing symbols too
    cs = cache_slice_for(params, 0, lib, demand)
    for n, stored in cs.items():
        for t in stored:
            for bad in ((), stored[t] + (1,)):
                cut = {**cs, n: {**stored, t: bad}}
                with pytest.raises(DecodeError):
                    decode_linear(0, bc, cut)
                with pytest.raises(DecodeError):
                    decode_structural(0, bc, cut)
    # through scheme.decode_user, which hands the engine the whole stored
    # cache: a requested label missing, or a cached subfile cut short, is
    # the engine's message with either decoder
    sp = SchemeParams(5, 2, 2, r=1)
    relabeling, slots, _, expanded = scheme.sampler(sp, ((2, 1), (4, 3)))(SeedStreams(3))
    relabeled = scheme.relabeled_library(ramp_library(sp.field, 5, sp.file_len), relabeling)
    cache = scheme.place_caches(sp, relabeled, slots)[0]
    bc = scheme.deliver(sp, relabeled, scheme.relabeled_demand(expanded, relabeling))
    u, n = cache.selector[0], bc.demand[0]  # slot 0's virtual user caches only rank u at r = 1
    without = {label: stored for label, stored in cache.subfiles.items() if label != n}
    short = {**cache.subfiles, n: {**cache.subfiles[n], u: ()}}
    for subfiles, method in itertools.product((without, short), ("linear", "structural")):
        with pytest.raises(DecodeError) as err:
            scheme.decode_user(0, bc, UserCache(0, cache.selector, subfiles), method)
        assert str(err.value) == f"cache slice holds no 1-symbol subfile {u} of file {n}"


@pytest.mark.parametrize("n_users,r", [(4, 1), (6, 1), (6, 2)])
def test_missing_segment_is_named(n_users, r):
    """A broadcast with a transmitted segment removed fails every user's
    decode, with either decoder, with one DecodeError naming the missing
    subset, whether or not that user's decode would read it."""
    params = UccParams(n_files=2, n_users=n_users, block_len=2, r=r)
    lib = ramp_library(F257, 2, params.file_len)
    demand = next(all_restricted_demands(params))
    full = encode(params, demand, lib)
    for gone in full.segments:
        bc = Broadcast(params, F257, demand, {s: v for s, v in full.segments.items() if s != gone})
        for decoder, u in itertools.product((decode_linear, decode_structural), range(n_users)):
            with pytest.raises(DecodeError) as err:
                decoder(u, bc, cache_slice_for(params, u, lib, demand))
            assert str(err.value) == f"the segment of users {list(gone)} is missing from the broadcast"


@pytest.mark.parametrize("decoder", [decode_linear, decode_structural], ids=["linear", "structural"])
@pytest.mark.parametrize("fault", ["3", "1", "range", "omitted", "stray", "slice"])
def test_decoder_names_a_misshapen_segment(fault, decoder):
    """A broadcast built directly with a segment one symbol too long or one
    too short ("3", "1"), with a symbol outside [0, q), which the two
    decoders would read differently ("range"), with a segment for the
    omitted subset, or with a key that names no 2-subset, and a cache slice
    missing one cached subfile, are each a DecodeError naming the fault,
    not a wrong file, an IndexError or a bare KeyError, for every user and
    whichever decoder reads them.  The broadcast faults are the same DecodeError when the
    rate (``segment_count``, ``symbol_count``) or ``trace_record`` reads the
    segments."""
    params = UccParams(n_files=3, n_users=4, block_len=2, r=1, packet_size=2)
    lib = ramp_library(F257, 3, params.file_len)
    demand = (0, 1, 1, 0)
    segments = dict(encode(params, demand, lib).segments)
    faults = {
        "3": ({(0, 1): segments[(0, 1)] + (5,)}, "the segment of users [0, 1] holds 3 symbols, not 2"),
        "1": ({(0, 1): segments[(0, 1)][:1]}, "the segment of users [0, 1] holds 1 symbols, not 2"),
        "range": ({(0, 2): (segments[(0, 2)][0] + 257, segments[(0, 2)][1])},
                  "the segment of users [0, 2] holds a symbol outside [0, 257)"),
        "omitted": ({(2, 3): (0, 0)}, "the segment of users [2, 3] is not transmitted"),
        "stray": ({(9, 9, 9): (0, 0)}, "the broadcast key (9, 9, 9) names no 2-subset of the users"),
    }
    edit, message = faults.get(fault, ({}, None))
    bc = Broadcast(params, F257, demand, {**segments, **edit})
    if message:  # every reader of the segments refuses them with the decoders' message
        for read in (lambda: bc.segment_count, lambda: bc.symbol_count, bc.trace_record):
            with pytest.raises(DecodeError) as err:
                read()
            assert str(err.value) == message
    for u in range(params.n_users):
        cs = cache_slice_for(params, u, lib, demand)
        if fault == "slice":
            t = max(cs[1])
            del cs[1][t]
            message = f"cache slice holds no 2-symbol subfile {t} of file 1"
        with pytest.raises(DecodeError) as err:
            decoder(u, bc, cs)
        assert str(err.value) == message


@pytest.mark.parametrize("n_files,n_users,r,q,packet", [
    (2, 6, 1, 2, 2), (2, 6, 2, 3, 1), (3, 6, 2, 3, 2), (2, 8, 2, 3, 1), (2, 8, 3, 2, 1), (2, 8, 2, 5, 2),
])
def test_decoders_agree_on_small_fields(n_files, n_users, r, q, packet):
    # three and four user groups over GF(2), GF(3) and GF(5), where the
    # identity's signs vanish (q = 2) or differ from the plain convention
    params = UccParams(n_files, n_users, 2, r, packet)
    field = PrimeField(q)
    lib = Library.random(field, n_files, params.file_len, random.Random(q * 100 + n_users))
    for demand in all_restricted_demands(params):
        bc = encode(params, demand, lib)
        for u in range(n_users):
            cs = cache_slice_for(params, u, lib, demand)
            want = lib.rows[demand[u]]
            assert decode_linear(u, bc, cs) == want
            assert decode_structural(u, bc, cs) == want


def test_encode_stores_the_term_table(monkeypatch):
    """A broadcast holds one segment table, every (r+1)-subset in rank order
    with its terms, built from the params, demand and convention alone:
    ``encode`` builds it once and sums the transmitted entries from it, a
    broadcast built directly gets the same table, and neither decoder
    rebuilds a segment's terms afterwards."""
    params = UccParams(n_files=3, n_users=6, block_len=2, r=2)
    lib = ramp_library(F257, 3, params.file_len)
    demand = (0, 1, 1, 0, 0, 1)
    bc = encode(params, demand, lib)
    direct = Broadcast(params, F257, demand, dict(bc.segments))
    assert direct._terms == bc._terms
    assert list(bc._terms) == list(itertools.combinations(range(params.n_users), params.r + 1))
    assert len(bc._terms) == math.comb(params.n_users, params.r + 1)

    def no_terms(self):
        raise AssertionError("segment table rebuilt")

    rebuilt = functools.cached_property(no_terms)
    rebuilt.__set_name__(Broadcast, "_terms")
    monkeypatch.setattr(Broadcast, "_terms", rebuilt)
    for u in range(params.n_users):
        cs = cache_slice_for(params, u, lib, demand)
        assert decode_linear(u, bc, cs) == lib.rows[demand[u]]
        assert decode_structural(u, bc, cs) == lib.rows[demand[u]]


@pytest.mark.parametrize("packet", [1, 3])
@pytest.mark.parametrize("q", [2, 257])
@pytest.mark.parametrize("shape", [(6, 2, 3, 2), (4, 3, 1, 2)])
def test_linear_system_is_the_segment_table(shape, q, packet):
    """The linear decoder's system holds one row per transmitted segment, in
    rank order, and none for an omitted one.  Its i-th user v adds the column
    of demand[v]'s subfile labeled by the rest of the subset (subfile t of
    the j-th smallest requested file at column j * C(K_v, r) + t), with
    coefficient (-1)^i mod q when signed and 1 otherwise; the right-hand
    sides are the segment's symbols.  The holder index agrees with the rows."""
    params = SchemeParams(*shape, q=q, packet_size=packet).ucc
    field = PrimeField(q)
    rng = random.Random(q * 10 + packet)
    base = rng.sample(range(params.n_files), params.block_len)
    demand = tuple(v for _ in range(params.n_groups) for v in rng.sample(base, params.block_len))
    bc = encode(params, demand, Library.random(field, params.n_files, params.file_len, rng))
    assert bc.signed == (params.n_groups >= 3 and q != 2)
    count = params.subfile_count
    column = {n: j * count for j, n in enumerate(sorted(base))}
    system = bc._system
    assert (system.n_coef, system.n_rhs) == (len(base) * count, packet)
    subsets = list(itertools.combinations(range(params.n_users), params.r + 1))
    sent = [sub for sub in subsets if sub[0] < params.block_len]
    assert len(sent) < len(subsets) and list(bc.segments) == sent
    assert len(system.rows) == len(sent)
    for sub, (row, rhs) in zip(sent, system.rows):
        rest = [sub[:i] + sub[i + 1:] for i in range(len(sub))]
        cols = [column[demand[v]] + subset_rank(range(params.n_users), lab) for v, lab in zip(sub, rest)]
        assert list(row.items()) == [(c, (-1) ** i % q if bc.signed else 1) for i, c in enumerate(cols)]
        assert rhs == bc.segments[sub]
    held = [[i for i, (row, _) in enumerate(system.rows) if c in row] for c in range(system.n_coef)]
    assert system.holders == held
    assert system.counts == [len(h) for h in held]
    assert system.once == [c for c, h in enumerate(held) if len(h) == 1]


@pytest.mark.parametrize("shape", [(6, 2, 3, 2), (4, 3, 1, 2)])
def test_linear_decodes_leave_the_system_rows_unchanged(shape):
    """Every linear decode of a broadcast queries its one stored system, whose
    rows hold dicts: after each user's decode, right, ``system.rows`` still
    equals a deep copy taken before the first query."""
    params = SchemeParams(*shape, packet_size=2).ucc
    rng = random.Random(sum(shape))
    base = rng.sample(range(params.n_files), params.block_len)
    demand = tuple(v for _ in range(params.n_groups) for v in rng.sample(base, params.block_len))
    lib = Library.random(F257, params.n_files, params.file_len, rng)
    bc = encode(params, demand, lib)
    before = copy.deepcopy(bc._system.rows)
    for u in range(params.n_users):
        assert decode_linear(u, bc, ucc.place(params, lib, [u])) == lib.rows[demand[u]]
    assert bc._system.rows == before


@pytest.mark.parametrize("decoder", ["linear", "structural"])
@pytest.mark.parametrize("u", [-1, 4])
def test_decode_refuses_a_user_out_of_range(u, decoder):
    params = UccParams(n_files=3, n_users=4, block_len=2, r=1)
    lib = ramp_library(F257, 3, params.file_len)
    bc = encode(params, (0, 1, 1, 0), lib)
    with pytest.raises(ValueError, match=f"^user {u} out of range$"):
        decode(u, bc, ucc.place(params, lib, range(4)), method=decoder)


@pytest.mark.parametrize("u", [-1, 4])
def test_place_refuses_a_user_out_of_range(u):
    """Past both ends of [0, K_v): -1 is not read as user 3, and 4 is the
    decoders' ValueError, not an IndexError."""
    params = UccParams(n_files=3, n_users=4, block_len=2, r=1)
    lib = ramp_library(F257, 3, params.file_len)
    with pytest.raises(ValueError, match=f"^user {u} out of range$"):
        ucc.place(params, lib, [0, u])


def test_decode_unknown_method():
    params = UccParams(n_files=3, n_users=4, block_len=2, r=1)
    lib = ramp_library(F257, 3, params.file_len)
    demand = (0, 1, 1, 0)
    bc = encode(params, demand, lib)
    cs = cache_slice_for(params, 0, lib, demand)
    with pytest.raises(ValueError):
        decode(0, bc, cs, method="magic")
