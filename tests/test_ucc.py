"""Single-demand engine tests: placement layout, restricted demands, encoding
counts, the hand-checked decode identity, and exhaustive decoder equivalence."""

import inspect
import itertools
import math
import random
import textwrap

import pytest

from helpers import cache_slice_for, ramp_library, subset_rank
from privcache import ucc
from privcache.gf import PrimeField, solve_any
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


def test_labels_are_the_r_subsets_in_lexicographic_order():
    """Labels are ranked in lexicographic order, which the combinatorial
    number system confirms label by label, and a segment table over
    (r+1)-subsets of fewer than r+1 users is empty."""
    assert UccParams(n_files=2, n_users=4, block_len=1, r=1)._labels == ((0,), (1,), (2,), (3,))
    params = UccParams(n_files=5, n_users=8, block_len=4, r=2)
    assert len(params._labels) == 28
    assert [subset_rank(range(8), lab) for lab in params._labels] == list(range(28))
    full = UccParams(n_files=3, n_users=4, block_len=2, r=4)
    assert full._labels == ((0, 1, 2, 3),)
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
    params = UccParams(n_files=n_files, n_users=4, block_len=2, r=r)
    lib = ramp_library(F257, n_files, params.file_len)
    for demand in all_restricted_demands(params):
        bc = encode(params, demand, lib)
        for u in range(params.n_users):
            cs = cache_slice_for(params, u, lib, demand)
            want = lib.rows[demand[u]]
            assert decode_linear(u, bc, cs) == want
            assert decode_structural(u, bc, cs) == want


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
    rows = [{} for _ in basis]
    for j, sub in enumerate(transmitted + omitted):
        for c, u in zip(coeffs, sub):
            rows[basis[(bc.demand[u], rank_of[tuple(v for v in sub if v != u)])]][j] = c % q
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


@pytest.mark.parametrize("anchor", [
    "if signed and _odd_permutation(a_v):",  # sigma dropped
    "if len({lead[i] for i in v_pos}) < size:",  # V may repeat a file
])
def test_reconstruction_sign_rule_mutants_fail(anchor, monkeypatch):
    """Each sign-rule mutant of the identity, built from the real source,
    breaks the comparison with the direct library sums."""
    source = textwrap.dedent(inspect.getsource(ucc._reconstructed_segments))
    assert anchor in source
    namespace = dict(vars(ucc))
    exec(source.replace(anchor, "if False:"), namespace)
    monkeypatch.setattr(ucc, "_reconstructed_segments", namespace["_reconstructed_segments"])
    caught = 0
    for bc, lib in _reconstruction_instances():
        try:
            recon = ucc._reconstructed_segments(bc)
        except DecodeError:
            caught += 1
            continue
        caught += any(vals != _direct_segment(bc, lib, sub) for sub, vals in recon.items())
    assert caught > 0


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


@pytest.mark.parametrize("n_users,r", [(4, 1), (6, 1), (6, 2)])
def test_missing_segment_is_named(n_users, r):
    """A broadcast with a transmitted segment removed fails the structural
    decode with DecodeError naming the missing subset, whether the segment is
    read directly or while rebuilding an omitted one."""
    params = UccParams(n_files=2, n_users=n_users, block_len=2, r=r)
    lib = ramp_library(F257, 2, params.file_len)
    demand = next(all_restricted_demands(params))
    full = encode(params, demand, lib)
    for gone in full.segments:
        bc = Broadcast(params, F257, demand, {s: v for s, v in full.segments.items() if s != gone})
        failed = set()
        for u in range(n_users):
            cs = cache_slice_for(params, u, lib, demand)
            try:
                assert decode_structural(u, bc, cs) == lib.rows[demand[u]]
            except DecodeError as exc:
                assert str(exc) == f"the segment of users {list(gone)} is missing from the broadcast"
                failed.add(u)
        assert failed >= set(gone)  # each user in the subset reads it for the label of the others


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

    def no_terms(*args):
        raise AssertionError("segment terms rebuilt")

    monkeypatch.setattr(ucc, "_segment_terms", no_terms)
    for u in range(params.n_users):
        cs = cache_slice_for(params, u, lib, demand)
        assert decode_linear(u, bc, cs) == lib.rows[demand[u]]
        assert decode_structural(u, bc, cs) == lib.rows[demand[u]]


def test_decode_unknown_method():
    params = UccParams(n_files=3, n_users=4, block_len=2, r=1)
    lib = ramp_library(F257, 3, params.file_len)
    demand = (0, 1, 1, 0)
    bc = encode(params, demand, lib)
    cs = cache_slice_for(params, 0, lib, demand)
    with pytest.raises(ValueError):
        decode(0, bc, cs, method="magic")
