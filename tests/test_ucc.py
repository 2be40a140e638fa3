"""Single-demand engine tests: placement layout, restricted demands, encoding
counts, the hand-checked decode identity, and exhaustive decoder equivalence."""

import itertools

import pytest

from privcache.exact import binomial, subsets_of_size
from privcache.gf import PrimeField
from privcache.ucc import (
    DecodeError,
    Library,
    RestrictedDemand,
    UccParams,
    cache_slice_for,
    decode,
    decode_linear,
    decode_structural,
    encode,
    is_restricted,
    subfile_labels,
    user_label_ranks,
    user_positions,
    _reconstructed_segments,
)

F257 = PrimeField(257)


def all_restricted_demands(params):
    """Every restricted demand vector for the given params."""
    for base in itertools.combinations(range(params.n_files), params.block_len):
        for blocks in itertools.product(itertools.permutations(base), repeat=params.n_groups):
            yield RestrictedDemand(tuple(v for b in blocks for v in b), params.block_len)


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
    with pytest.raises(ValueError):
        UccParams.for_file_len(5, 8, 4, 1, file_len=9)
    assert UccParams.for_file_len(5, 8, 4, 1, file_len=16).packet_size == 2


def test_placement_single_subset_layout():
    # r=1 over 8 users: user 0 stores exactly the subfile labeled {0} of each file
    params = UccParams(n_files=5, n_users=8, block_len=4, r=1)
    assert user_label_ranks(params, 0) == [0]
    assert user_positions(params, 0) == [0]
    params2 = UccParams(n_files=5, n_users=8, block_len=4, r=1, packet_size=3)
    assert user_positions(params2, 2) == [6, 7, 8]


def test_placement_storage_count():
    for r in range(0, 9):
        params = UccParams(n_files=5, n_users=8, block_len=4, r=r)
        for u in (0, 3, 7):
            assert len(user_positions(params, u)) == binomial(7, r - 1) * params.packet_size


def test_placement_extremes():
    empty = UccParams(n_files=5, n_users=8, block_len=4, r=0)
    assert user_positions(empty, 0) == []
    full = UccParams(n_files=5, n_users=8, block_len=4, r=8)
    assert user_positions(full, 5) == list(range(full.file_len))


def test_uncoded_placement_symbols_are_verbatim():
    params = UccParams(n_files=3, n_users=4, block_len=2, r=2)
    lib = Library.ramp(F257, 3, params.file_len)
    cs = cache_slice_for(params, 1, lib, files=[0, 2])
    for n, stored in cs.items():
        for i, sym in stored.items():
            assert sym == lib.rows[n][i]


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


def test_restricted_demand_type_rejects_invalid():
    with pytest.raises(ValueError):
        RestrictedDemand((0, 1, 0, 2), 2)
    d = RestrictedDemand((0, 1, 1, 0), 2)
    assert d.file_set == frozenset({0, 1})
    assert d.blocks == ((0, 1), (1, 0))


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def test_encode_small_instance_segment_count():
    params = UccParams(n_files=5, n_users=8, block_len=4, r=1)
    lib = Library.ramp(F257, 5, params.file_len)
    demand = RestrictedDemand((0, 2, 1, 3, 1, 0, 3, 2), 4)
    bc = encode(params, demand, lib)
    assert bc.segment_count == 22
    assert all(len(seg) == params.packet_size for seg in bc.segments.values())


def test_encode_r0_sends_whole_requested_files():
    params = UccParams(n_files=5, n_users=8, block_len=4, r=0)
    lib = Library.ramp(F257, 5, params.file_len)
    demand = RestrictedDemand((0, 2, 1, 3, 1, 0, 3, 2), 4)
    bc = encode(params, demand, lib)
    assert bc.segment_count == 4  # leader singletons only
    for sub, seg in bc.segments.items():
        assert len(sub) == 1 and sub[0] in params.leaders
        assert seg == lib.rows[demand.entries[sub[0]]]


def test_encode_r_equals_n_users_sends_nothing():
    params = UccParams(n_files=5, n_users=8, block_len=4, r=8)
    lib = Library.ramp(F257, 5, params.file_len)
    demand = RestrictedDemand((0, 2, 1, 3, 1, 0, 3, 2), 4)
    assert encode(params, demand, lib).segment_count == 0


def test_encode_rejects_non_restricted_demand():
    params = UccParams(n_files=5, n_users=8, block_len=4, r=1)
    lib = Library.ramp(F257, 5, params.file_len)
    with pytest.raises(ValueError):
        encode(params, RestrictedDemand((0, 1, 0, 1), 2), lib)  # block_len mismatch


def test_segment_count_identity_sweep():
    for n_users, block_len in ((4, 2), (6, 2), (6, 3), (8, 4)):
        for r in range(n_users + 1):
            params = UccParams(n_files=block_len + 1, n_users=n_users, block_len=block_len, r=r)
            lib = Library.ramp(F257, params.n_files, params.file_len)
            demand = next(all_restricted_demands(params))
            bc = encode(params, demand, lib)
            assert bc.segment_count == binomial(n_users, r + 1) - binomial(n_users - block_len, r + 1)


def test_trace_record_round_trip_fields():
    params = UccParams(n_files=3, n_users=4, block_len=2, r=1)
    lib = Library.ramp(F257, 3, params.file_len)
    demand = RestrictedDemand((0, 1, 1, 0), 2)
    rec = encode(params, demand, lib).trace_record()
    assert rec["demand"] == [0, 1, 1, 0]
    assert rec["leaders"] == [0, 1]
    ranks = [s["rank"] for s in rec["segments"]]
    assert ranks == sorted(ranks)
    assert len(rec["segments"]) == 5


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def test_walkthrough_decode_identity():
    """Hand-checked chain for user 2 with r=1: the cached subfile {2} comes for
    free and every other subfile of its file satisfies
    W[d2][{i}] = Y[{2,i}] - W[d_i][{2}]."""
    params = UccParams(n_files=5, n_users=8, block_len=4, r=1)
    lib = Library.ramp(F257, 5, params.file_len)
    demand = RestrictedDemand((0, 2, 1, 3, 1, 0, 3, 2), 4)
    bc = encode(params, demand, lib)
    d2 = demand.entries[2]
    assert d2 == 1
    for i in range(8):
        if i == 2:
            continue
        pair = tuple(sorted((2, i)))
        y = bc.segments[pair][0]
        recovered = (y - lib.rows[demand.entries[i]][2]) % 257
        assert recovered == lib.rows[d2][i]


def test_decode_full_cache_needs_no_broadcast():
    params = UccParams(n_files=3, n_users=4, block_len=2, r=4)
    lib = Library.ramp(F257, 3, params.file_len)
    demand = RestrictedDemand((0, 1, 1, 0), 2)
    bc = encode(params, demand, lib)
    for u in range(4):
        cs = cache_slice_for(params, u, lib, demand.file_set)
        assert decode_linear(params, u, bc, cs) == lib.rows[demand.entries[u]]
        assert decode_structural(params, u, bc, cs) == lib.rows[demand.entries[u]]


@pytest.mark.parametrize("n_files,r", [(3, 0), (3, 1), (3, 2), (2, 1), (2, 3)])
def test_decode_exhaustive_two_groups(n_files, r):
    params = UccParams(n_files=n_files, n_users=4, block_len=2, r=r)
    lib = Library.ramp(F257, n_files, params.file_len)
    for demand in all_restricted_demands(params):
        bc = encode(params, demand, lib)
        for u in range(params.n_users):
            cs = cache_slice_for(params, u, lib, demand.file_set)
            want = lib.rows[demand.entries[u]]
            assert decode_linear(params, u, bc, cs) == want
            assert decode_structural(params, u, bc, cs) == want


@pytest.mark.parametrize("n_files,r", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_decode_exhaustive_three_groups(n_files, r):
    # three user groups create repeated files across non-leader blocks, the
    # case the alternating identity cannot cover; peeling must finish the job
    params = UccParams(n_files=n_files, n_users=6, block_len=2, r=r)
    lib = Library.ramp(F257, n_files, params.file_len)
    for demand in all_restricted_demands(params):
        bc = encode(params, demand, lib)
        for u in range(params.n_users):
            cs = cache_slice_for(params, u, lib, demand.file_set)
            want = lib.rows[demand.entries[u]]
            assert decode_linear(params, u, bc, cs) == want
            assert decode_structural(params, u, bc, cs) == want


def test_decode_exhaustive_kv4_r2_random_library():
    params = UccParams(n_files=3, n_users=4, block_len=2, r=2)
    import random

    lib = Library.random(F257, 3, params.file_len, random.Random(99))
    for demand in all_restricted_demands(params):
        bc = encode(params, demand, lib)
        for u in range(4):
            cs = cache_slice_for(params, u, lib, demand.file_set)
            assert decode(params, u, bc, cs) == lib.rows[demand.entries[u]]


def test_reconstructed_segments_match_direct_sums():
    """Segments omitted from the broadcast (no leader in the subset) must be
    recoverable: compare both reconstruction routes (leader-substitution
    identity with two groups, formal elimination with three or more) against
    the segment value computed straight from the library."""
    from privcache.ucc import segment_signs

    checked = 0
    for n_users, block_len, n_files, r in ((4, 2, 3, 1), (6, 2, 3, 1), (6, 2, 2, 2), (6, 3, 4, 2), (8, 4, 5, 1)):
        params = UccParams(n_files=n_files, n_users=n_users, block_len=block_len, r=r)
        lib = Library.ramp(F257, n_files, params.file_len)
        labels = subfile_labels(params)
        rank_of = {lab: t for t, lab in enumerate(labels)}
        for demand in itertools.islice(all_restricted_demands(params), 12):
            bc = encode(params, demand, lib)
            coeffs = segment_signs(bc.signed, r + 1)
            recon = _reconstructed_segments(bc)
            for sub, vals in recon:
                truth = [0] * params.packet_size
                for c, u in zip(coeffs, sub):
                    base = rank_of[tuple(v for v in sub if v != u)] * params.packet_size
                    row = lib.rows[demand.entries[u]]
                    for p in range(params.packet_size):
                        truth[p] = (truth[p] + c * row[base + p]) % 257
                assert vals == truth
                checked += 1
            if bc.signed:
                # signed mode must recover every omitted segment
                omitted = [s for s in subsets_of_size(range(block_len, n_users), r + 1)]
                assert len(recon) == len(omitted)
    assert checked > 0


def test_decode_missing_cache_symbols_raises():
    params = UccParams(n_files=3, n_users=4, block_len=2, r=1)
    lib = Library.ramp(F257, 3, params.file_len)
    demand = RestrictedDemand((0, 1, 1, 0), 2)
    bc = encode(params, demand, lib)
    with pytest.raises(DecodeError):
        decode_linear(params, 0, bc, {0: {}, 1: {}})
    with pytest.raises(DecodeError):
        decode_structural(params, 0, bc, {0: {}, 1: {}})


def test_decode_unknown_method():
    params = UccParams(n_files=3, n_users=4, block_len=2, r=1)
    lib = Library.ramp(F257, 3, params.file_len)
    demand = RestrictedDemand((0, 1, 1, 0), 2)
    bc = encode(params, demand, lib)
    cs = cache_slice_for(params, 0, lib, demand.file_set)
    with pytest.raises(ValueError):
        decode(params, 0, bc, cs, method="magic")
