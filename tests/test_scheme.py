"""Private multi-demand scheme tests: cover sets, placement layout, delivery
randomness, decoding, measured memory/rate, and trace replay."""

import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    all_demand_matrices,
    cover_weight,
    flat_realizations,
    ramp_library,
    sampler_law,
    scan_cover_sets,
    uniform_sampler_law,
)
from privcache import audit, cli, gf, scheme, ucc
from privcache.scheme import (
    FULL,
    NO_RELABEL,
    PLAIN_BASELINE,
    SchemeParams,
    SeedStreams,
    block_support,
    Variant,
    decode_user,
    deliver,
    feasible_cover_sets,
    place_caches,
    relabeled_demand,
    relabeled_library,
    run_simulation,
    sampler,
    slot_support,
    validate_demands,
)
from privcache.ucc import is_restricted


P522 = SchemeParams(5, 2, 2, r=1)
P321 = SchemeParams(3, 2, 1, r=1)
P221 = SchemeParams(2, 2, 1, r=1)
VARIANTS = (FULL, NO_RELABEL, Variant(random_fill=False), Variant(random_cover=False), PLAIN_BASELINE)


def test_params_derived_quantities():
    assert P522.n_active == 4
    assert P522.n_virtual == 8
    assert P522.file_len == 8
    assert SchemeParams(3, 2, 1, r=1).n_active == 2
    assert SchemeParams(2, 2, 1, r=4).n_virtual == 4


def test_params_validation():
    with pytest.raises(ValueError, match=r"^r=16 outside \[0, 8\]$"):
        SchemeParams(5, 2, 2, r=16)  # K * n_active = 8 caps r
    with pytest.raises(ValueError, match=r"^r=-1 outside \[0, 8\]$"):
        SchemeParams(5, 2, 2, r=-1)
    with pytest.raises(ValueError, match="^packet_size must be positive$"):
        SchemeParams(5, 2, 2, r=1, packet_size=0)
    with pytest.raises(ValueError, match="^modulus 6 is not prime$"):
        SchemeParams(5, 2, 2, r=1, q=6)
    with pytest.raises(ValueError, match=r"^r=16 outside \[0, 8\]$"):
        SchemeParams(5, 2, 2, r=16, q=6)  # the range check comes before the prime check
    with pytest.raises(ValueError):
        SchemeParams(5, 2, 6, r=1)  # L > N


def test_validate_demands():
    assert validate_demands(P522, [[0, 1], [0, 2]]) == ((0, 1), (0, 2))
    with pytest.raises(ValueError):
        validate_demands(P522, [[0, 0], [0, 1]])
    with pytest.raises(ValueError):
        validate_demands(P522, [[0, 5], [0, 1]])
    with pytest.raises(ValueError):
        validate_demands(P522, [[0, 1]])
    with pytest.raises(ValueError, match="^row 1 has 1 entries, expected 2$"):
        validate_demands(P522, [[0, 1], [3]])


def test_feasible_cover_sets_families():
    assert feasible_cover_sets(P522, ((0, 1), (0, 1))) == [
        (0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4)]
    assert feasible_cover_sets(P522, ((0, 1), (0, 2))) == [(0, 1, 2, 3), (0, 1, 2, 4)]
    assert feasible_cover_sets(P522, ((0, 1), (2, 3))) == [(0, 1, 2, 3)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_feasible_cover_sets_match_subset_scan(data):
    n = data.draw(st.integers(1, 11))
    k = data.draw(st.integers(1, 4))
    big_l = data.draw(st.integers(1, n))
    params = SchemeParams(n, k, big_l, r=0)
    demands = tuple(tuple(data.draw(st.permutations(range(n)))[:big_l]) for _ in range(k))
    need = {f for row in demands for f in row}
    assert feasible_cover_sets(params, demands) == scan_cover_sets(n, params.n_active, need)


def test_feasible_cover_sets_build_only_the_covers(monkeypatch):
    # N = 24, K = 1, L = 12: one cover, among C(24, 12) = 2,704,156 12-subsets
    built = Counter()
    combinations = itertools.combinations

    def counting(iterable, r):
        for cand in combinations(iterable, r):
            built["candidates"] += 1
            yield cand

    monkeypatch.setattr(scheme.itertools, "combinations", counting)
    params = SchemeParams(24, 1, 12, r=0)
    demands = (tuple(range(0, 24, 2)),)
    assert feasible_cover_sets(params, demands) == [tuple(range(0, 24, 2))]
    assert built["candidates"] == 1


def test_feasible_cover_sets_degenerate_full_round():
    # n_active == N: the cover set is forced to the whole label set
    p = SchemeParams(2, 2, 1, r=1)
    assert feasible_cover_sets(p, ((0,), (1,))) == [(0, 1)]
    assert feasible_cover_sets(p, ((0,), (0,))) == [(0, 1)]


def test_placement_slots_hold_chosen_subfiles():
    lib = ramp_library(P522.field, 5, P522.file_len)
    relabeling = (2, 0, 4, 1, 3)
    caches = place_caches(P522, relabeled_library(lib, relabeling), ((0, 2), (1, 3)))
    # r=1: virtual user u stores subfile {u} (rank u), one symbol; user 0 chose slots 0, 2
    assert sorted(caches[0].subfiles[relabeling[3]]) == [0, 2]
    # user 1 embeds at virtual users 4+1, 4+3 -> subfiles {5} and {7}
    assert sorted(caches[1].subfiles[relabeling[0]]) == [5, 7]
    for n in range(5):
        for t, sub in caches[0].subfiles[relabeling[n]].items():
            assert sub == (lib.rows[n][t],)


def cache_memory(params, k, selector):
    """User k's normalized cache size as ``run_simulation`` reports the
    memory: the symbols ``place_caches`` stores for it over file_len."""
    lib = ramp_library(params.field, params.n_files, params.file_len)
    cache = place_caches(params, lib, [selector] * params.n_users)[k]
    return Fraction(cache.symbol_count, params.file_len)


def test_cache_size_examples():
    assert [cache_memory(P522, k, sel) for k, sel in enumerate(((0, 2), (1, 3)))] == [Fraction(5, 4)] * 2
    for r, memory in ((1, Fraction(5, 4)), (0, 0), (8, 5)):
        p = SchemeParams(5, 2, 2, r=r)
        assert {cache_memory(p, 0, sel) for sel in slot_support(p)} == {memory}


def test_cache_size_matches_formula_for_every_slot_choice():
    for r in range(0, 9):
        p = SchemeParams(5, 2, 2, r=r)
        kv = p.n_virtual
        formula = Fraction((math.comb(kv, r) - math.comb(kv - 2, r)) * 5, math.comb(kv, r))
        for sel in slot_support(p):
            for k in range(p.n_users):
                assert cache_memory(p, k, sel) == formula


def test_placement_refuses_a_slot_outside_the_users_own():
    """Placement refuses a slot outside the user's own, a missing slot
    tuple, and a library of the wrong shape, in the private layer and in
    the engine alike."""
    # slot 3 of user 0 would be virtual user 3, user 1's second slot
    p = SchemeParams(3, 2, 1, r=1)
    lib = ramp_library(p.field, p.n_files, p.file_len)
    with pytest.raises(ValueError, match=r"slot tuple \(3,\) of user 0 is not 1 distinct slots in \[0, 2\)"):
        place_caches(p, lib, [(3,), (0,)])
    with pytest.raises(ValueError, match="need one slot tuple per user"):
        place_caches(p, lib, [(0,)])
    for files, length in ((p.n_files + 1, p.file_len), (p.n_files, p.file_len + 1)):
        wrong = ramp_library(p.field, files, length)
        with pytest.raises(ValueError, match="library dimensions do not match params"):
            place_caches(p, wrong, [(0,), (1,)])
        with pytest.raises(ValueError, match="library dimensions do not match params"):
            ucc.place(p.ucc, wrong, [0])


def test_block_support_size_and_pinning():
    covers = feasible_cover_sets(P522, ((0, 1), (0, 2)))
    for cover in covers:
        sup = block_support(P522, cover, (0, 2), (1, 3))
        assert len(sup) == 2  # (n_active - L)! = 2! = 2
        for block in sup:
            assert block[1] == 0 and block[3] == 2
            assert sorted(block) == list(cover)


def test_block_support_size_for_every_cover_row_selector():
    import math

    p = SchemeParams(4, 2, 2, r=1)  # n_active 4, every cover is {0,1,2,3}
    expected = math.factorial(p.n_active - p.demands_per_user)
    for row in itertools.permutations(range(4), 2):
        for sel in slot_support(p):
            sup = block_support(p, (0, 1, 2, 3), row, sel)
            assert len(sup) == len(set(sup)) == expected
            for block in sup:
                assert all(block[s] == d for s, d in zip(sel, row))


def test_frozen_fill_takes_the_first_block_support_arrangement():
    """With the fill stage off, every block table that ``block_tables``
    yields holds one block, and every block of a realization it yields or
    ``sampler`` draws is the first arrangement ``block_support`` lists."""
    frozen = Variant(random_fill=False)
    cases = ((P522, (((0, 1), (0, 2)), ((1, 0), (2, 3)), ((3, 4), (3, 4)))),
             (SchemeParams(4, 2, 2, r=1), (((0, 1), (2, 3)), ((1, 0), (0, 1)))))
    for p, mats in cases:
        for demands in mats:
            draw = sampler(p, demands, frozen)
            drawn = [draw(SeedStreams(seed))[1:] for seed in range(20)]
            assert all(len(table) == 1 for *_, tables in scheme.block_tables(p, demands, frozen) for table in tables)
            for sel, cover, expanded in itertools.chain(flat_realizations(p, demands, frozen), drawn):
                for k, row in enumerate(demands):
                    block = expanded[k * p.n_active:(k + 1) * p.n_active]
                    assert block == block_support(p, cover, row, sel[k])[0]


def test_block_fully_pinned_when_demands_fill_the_block():
    # L = n_active: no free positions, exactly one admissible arrangement
    p = SchemeParams(2, 1, 2, r=1)
    assert p.n_active == 2
    sup = block_support(p, (0, 1), (1, 0), (0, 1))
    assert sup == [(1, 0)]
    tr = run_simulation(p, seed=4)
    assert tr.correct_all


def test_hand_worked_realization_is_in_support():
    # demands [0,1;0,2], slots S0=(0,2), S1=(1,3), cover {0,1,2,3}:
    # expanded (0,2,1,3, 1,0,3,2) satisfies every pinning constraint
    demands = ((0, 1), (0, 2))
    cover = (0, 1, 2, 3)
    b0, b1 = (0, 2, 1, 3), (1, 0, 3, 2)
    assert b0 in block_support(P522, cover, demands[0], (0, 2))
    assert b1 in block_support(P522, cover, demands[1], (1, 3))
    assert b0[0] == 0 and b0[2] == 1  # d_{0,l} at slots (0, 2)
    assert b1[1] == 0 and b1[3] == 2  # d_{1,l} at slots (1, 3)


def test_masked_demand_applies_relabeling():
    relabeling, _, cover, expanded = sampler(P522, ((0, 1), (0, 2)))(SeedStreams(3))
    assert relabeled_demand(expanded, relabeling) == tuple(relabeling[v] for v in expanded)
    assert set(expanded[:4]) == set(cover)


def test_delivery_sweep_masked_demand_restricted_and_rate():
    lib = ramp_library(P522.field, 5, 8)
    for seed in range(1000):
        streams = SeedStreams(seed)
        demands = scheme.sample_demands(P522, streams.rng("demands"))
        relabeling, _, _, expanded = sampler(P522, demands)(streams)
        broadcast = deliver(P522, relabeled_library(lib, relabeling), relabeled_demand(expanded, relabeling))
        assert is_restricted(broadcast.demand, 4)
        assert broadcast.segment_count == 22
        for seg in broadcast.segments.values():
            assert type(seg) is tuple and len(seg) == P522.packet_size
            assert all(type(s) is int and 0 <= s < P522.q for s in seg)
        assert Fraction(broadcast.symbol_count, P522.file_len) == Fraction(11, 4)


def test_relabeled_encode_identity():
    """Encoding the relabeled library under the masked demand must equal
    encoding the original library under the raw expanded demand."""
    lib = ramp_library(P522.field, 5, 8)
    streams = SeedStreams(17)
    demands = ((0, 1), (0, 2))
    relabeling, _, _, expanded = sampler(P522, demands)(streams)
    broadcast = deliver(P522, relabeled_library(lib, relabeling), relabeled_demand(expanded, relabeling))
    direct = ucc.encode(P522.ucc, expanded, lib)
    assert broadcast.segments == direct.segments


def test_relabeled_library_rejects_a_relabeling_that_is_not_a_permutation():
    lib = ramp_library(P522.field, 5, 8)
    relabeled = relabeled_library(lib, (2, 0, 4, 1, 3))
    assert [relabeled.rows[label] for label in (2, 0, 4, 1, 3)] == list(lib.rows)
    for relabeling in ((0, 0, 1, 2, 3), (0, 1, 2, 3), (1, 2, 3, 4, 5)):
        with pytest.raises(ValueError, match="not a permutation"):
            relabeled_library(lib, relabeling)


@pytest.mark.parametrize("r", [0, 1, 2, 8])
def test_decode_all_users_all_slots(r):
    p = SchemeParams(5, 2, 2, r=r)
    for seed in (0, 1, 2):
        tr = run_simulation(p, seed)
        assert tr.correct_all
        tr2 = run_simulation(p, seed, decoder="structural")
        assert tr2.correct_all


@pytest.mark.parametrize("slot", [-1, 2])
def test_decode_user_refuses_a_slot_out_of_range(slot):
    library = ramp_library(P522.field, P522.n_files, P522.file_len)
    caches = place_caches(P522, library, [(0, 1), (2, 3)])
    broadcast = deliver(P522, library, (0, 1, 2, 3, 0, 1, 2, 3))
    with pytest.raises(ValueError, match=f"^slot {slot} out of range$"):
        decode_user(slot, broadcast, caches[0])


def test_decode_uses_only_broadcast_and_cache():
    """Rebuild the broadcast from its serialized trace record and decode with
    it: proves decoding needs nothing beyond (broadcast, own cache)."""
    lib = ramp_library(P522.field, 5, 8)
    streams = SeedStreams(5)
    demands = ((3, 1), (4, 0))
    relabeling, slots, _, expanded = sampler(P522, demands)(streams)
    relabeled = relabeled_library(lib, relabeling)
    caches = place_caches(P522, relabeled, slots)
    broadcast = deliver(P522, relabeled, relabeled_demand(expanded, relabeling))
    rec = broadcast.trace_record()
    rebuilt = ucc.Broadcast(
        params=P522.ucc,
        field=P522.field,
        demand=tuple(rec["demand"]),
        segments={tuple(s["users"]): tuple(s["symbols"]) for s in rec["segments"]},
    )
    assert rebuilt.signed == rec["signed"]
    for k in range(2):
        for l in range(2):
            assert decode_user(l, rebuilt, caches[k]) == lib.rows[demands[k][l]]


@pytest.mark.parametrize("decoder,builds", [("linear", 1), ("structural", 0)])
def test_linear_system_built_once_per_broadcast(monkeypatch, decoder, builds):
    """At (6,2,3,2) the broadcast's six linear decodes query one system; the
    structural decoder never builds it."""
    counts = Counter()
    real_init, real_query = gf.SparseSystem.__init__, ucc.determined_unknowns

    def counting_init(self, *args):
        counts["builds"] += 1
        real_init(self, *args)

    def counting_query(*args):
        counts["queries"] += 1
        return real_query(*args)

    monkeypatch.setattr(gf.SparseSystem, "__init__", counting_init)
    monkeypatch.setattr(ucc, "determined_unknowns", counting_query)
    assert run_simulation(SchemeParams(6, 2, 3, r=2), 0, decoder=decoder).correct_all
    assert counts == Counter(builds=builds, queries=6 * builds)


# Per query of the (6,2,3,2) seed-0 linear run, in decode order: the number
# of rows handed to gf.rref and the sha256 of their repr as sorted items,
# recorded at a known-good revision.
RREF_RESIDUES = [
    (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (40, "ef92279ed2750c91cc164bdcb09db200d8ce883c6532f6423968da6067519e19"),
    (40, "b51fb0401f8588a221ac0957c2b12ed0b639df5cc7cb0d61cd2549fe76a16f02"),
    (40, "dda4ea737c7485949d0e7e21ee01b3f7f915619cb58642b7b618f3d19cd11071"),
]


def test_linear_queries_hand_rref_the_recorded_residues(monkeypatch):
    """The rows each linear query leaves to elimination after peeling and
    substitution, equal and in the same order as recorded: this pins how
    much the peel settles, whatever the working row form."""
    residues = []
    real_rref = gf.rref

    def recording_rref(field, rows, n_coef):
        assert n_coef == 396
        listed = [sorted(row.items()) for row in rows]
        residues.append((len(rows), hashlib.sha256(repr(listed).encode()).hexdigest()))
        return real_rref(field, rows, n_coef)

    monkeypatch.setattr(gf, "rref", recording_rref)
    assert run_simulation(SchemeParams(6, 2, 3, r=2), 0, decoder="linear").correct_all
    assert residues == RREF_RESIDUES


def test_three_user_groups_end_to_end():
    p = SchemeParams(3, 3, 1, r=2)
    for seed in range(6):
        tr = run_simulation(p, seed)
        assert tr.correct_all
        assert run_simulation(p, seed, decoder="structural").correct_all


def test_simulation_trace_deterministic_and_replayable():
    a = run_simulation(P522, 42).to_json_dict()
    b = run_simulation(P522, 42).to_json_dict()
    c = run_simulation(P522, 43).to_json_dict()
    assert a == b
    assert a != c
    assert a["memory"] == [5, 4] and a["rate"] == [11, 4]
    assert a["segment_count"] == 22
    assert a["correct_all"] is True


def test_summary_row_fields():
    row = run_simulation(P522, 1).summary_row()
    assert row == {"N": 5, "K": 2, "L": 2, "r": 1, "M_num": 5, "M_den": 4,
                   "R_num": 11, "R_den": 4, "correct_all": True}


def test_measured_memory_and_rate_match_formula_across_r():
    for n, k, big_l in ((3, 2, 1), (2, 2, 1), (4, 2, 2)):
        p0 = SchemeParams(n, k, big_l, r=0)
        kv = p0.n_virtual
        for r in range(kv + 1):
            p = SchemeParams(n, k, big_l, r=r)
            tr = run_simulation(p, seed=r)
            m = Fraction((math.comb(kv, r) - math.comb(kv - big_l, r)) * n, math.comb(kv, r))
            rate = Fraction(math.comb(kv, r + 1) - math.comb(kv - p.n_active, r + 1), math.comb(kv, r))
            assert tr.memory == m
            assert tr.rate == rate
            assert tr.correct_all


def test_plain_baseline_variant_reveals_expanded_demand():
    tr = run_simulation(P522, 9, variant=PLAIN_BASELINE)
    assert tr.relabeling == (0, 1, 2, 3, 4)
    assert tr.slots == ((0, 1), (0, 1))
    assert tr.broadcast.demand == tr.expanded
    assert tr.correct_all  # derandomized, but still a correct caching scheme


def test_signed_reconstruction_solves_once_per_delivery(monkeypatch):
    """Omitted segments are reconstructed once per broadcast and shared by all
    K*L decodes, for every group count and both coefficient conventions
    (plain over GF(2) and with two groups, signed otherwise); structural
    decoding makes no ``gf.rref`` call, and its trace equals the linear one."""
    real_rref, real_rebuild = gf.rref, ucc._reconstructed_segments
    rref_calls, rebuilds = [], []

    def counting_rref(*args):
        rref_calls.append(1)
        return real_rref(*args)

    def counting_rebuild(*args):
        rebuilds.append(1)
        return real_rebuild(*args)

    monkeypatch.setattr(gf, "rref", counting_rref)
    monkeypatch.setattr(ucc, "_reconstructed_segments", counting_rebuild)
    cases = (
        (SchemeParams(4, 3, 1, r=2), True),
        (SchemeParams(6, 2, 3, r=2), False),
        (SchemeParams(3, 3, 1, r=1, q=2), False),
        (SchemeParams(3, 3, 1, r=2, q=2), False),
        (SchemeParams(4, 3, 1, r=3, q=2), False),
        (SchemeParams(2, 4, 1, r=2, q=2), False),
        (SchemeParams(2, 4, 1, r=1, q=3), True),
    )
    for params, signed in cases:
        for seed in range(3):
            rref_calls.clear()
            rebuilds.clear()
            structural = run_simulation(params, seed, decoder="structural")
            assert rref_calls == [] and len(rebuilds) == 1
            assert structural.broadcast.signed == signed
            assert structural.correct_all
            linear = run_simulation(params, seed)
            assert rref_calls  # the counter sees the reference decoder's eliminations
            assert structural.to_json_dict() == linear.to_json_dict()


def test_linear_decoder_eliminates_only_the_residue(monkeypatch):
    """At N6 K2 L3 r2 the linear decoder's systems have 200 equations, but
    peeling singleton rows and one-row free columns leaves at most 40 of them
    for ``gf.rref`` (none for a leader user)."""
    real_rref = gf.rref
    sizes = []

    def sizing_rref(field, rows, n_coef):
        sizes.append(len(rows))
        return real_rref(field, rows, n_coef)

    monkeypatch.setattr(gf, "rref", sizing_rref)
    for seed in range(5):
        assert run_simulation(SchemeParams(6, 2, 3, r=2), seed).correct_all
    assert len(sizes) == 5 * 6 and max(sizes) <= 40 and 0 in sizes


def _nested_realizations(params, demands, variant):
    """Independent oracle: (slots, cover, expanded) of every label-free
    realization, from plain nested loops over each stage's support."""
    n, big_l, a = params.n_files, params.demands_per_user, params.n_active
    slot_opts = list(itertools.permutations(range(a), big_l)) if variant.random_slots else [tuple(range(big_l))]
    requested = {d for row in demands for d in row}
    covers = [c for c in itertools.combinations(range(n), a) if requested <= set(c)]
    if not variant.random_cover:
        covers = covers[:1]
    for slots in itertools.product(slot_opts, repeat=params.n_users):
        for cover in covers:
            per_user = []
            for row, sel in zip(demands, slots):
                rest = sorted(set(cover) - set(row))
                free = [i for i in range(a) if i not in sel]
                blocks = []
                for arrangement in (itertools.permutations(rest) if variant.random_fill else [rest]):
                    block = [None] * a
                    for i, d in zip(sel, row):
                        block[i] = d
                    for i, v in zip(free, arrangement):
                        block[i] = v
                    blocks.append(block)
                per_user.append(blocks)
            for combo in itertools.product(*per_user):
                yield slots, cover, tuple(v for block in combo for v in block)


def test_realizations_match_nested_loops():
    for p in (P321, P221):
        for demands in all_demand_matrices(p):
            for variant in VARIANTS:
                assert Counter(flat_realizations(p, demands, variant)) == \
                       Counter(_nested_realizations(p, demands, variant))


def test_pinned_realizations_are_the_unpinned_ones_with_that_slot_tuple():
    for demands in all_demand_matrices(P321):
        for variant in VARIANTS[:4]:
            unpinned = list(flat_realizations(P321, demands, variant))
            for observer in range(P321.n_users):
                for sel in slot_support(P321):
                    pinned = flat_realizations(P321, demands, variant, {observer: sel})
                    assert Counter(pinned) == Counter(x for x in unpinned if x[0][observer] == sel)
    # the enumerator takes checked pins; the audits check them
    for observer, sel in ((0, (2,)), (2, (0,))):
        with pytest.raises(ValueError):
            audit.masked_demand_law(P321, ((0,), (1,)), observer, sel)
        with pytest.raises(ValueError):
            audit.verify_law_invariance(P321, [((0,), (1,))], observer, sel)


@pytest.mark.parametrize("params,mats", [
    (P321, list(all_demand_matrices(P321))),
    (P522, [((0, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 1), (2, 3))]),
], ids=["P321", "P522"])
def test_sampled_realizations_are_enumerated_realizations(params, mats):
    """Every draw of ``sampler`` is one of the realizations
    ``block_tables`` yields, and its relabeling is a permutation."""
    for demands in mats:
        for variant in VARIANTS:
            support = set(flat_realizations(params, demands, variant))
            for seed in range(10):
                relabeling, sel, cover, expanded = sampler(params, demands, variant)(SeedStreams(seed))
                assert (sel, cover, expanded) in support
                assert sorted(relabeling) == list(range(params.n_files))
                if not variant.relabel_files:
                    assert relabeling == tuple(range(params.n_files))


ALL_VARIANTS = tuple(Variant(*bits) for bits in itertools.product((True, False), repeat=4))


@pytest.mark.parametrize("params,mats,variants", [
    (P321, [((0,), (0,)), ((0,), (1,))], ALL_VARIANTS),
    (SchemeParams(4, 2, 1, r=1), [((0,), (0,)), ((0,), (1,))], ALL_VARIANTS),
    (SchemeParams(3, 2, 2, r=1), [((0, 1), (0, 1)), ((0, 1), (1, 2))], ALL_VARIANTS),
    # the two largest laws (up to 15,552 branches) run the variants that
    # keep the cover stage, which the three instances above run off
    (SchemeParams(4, 3, 1, r=1), [((0,), (0,), (0,)), ((0,), (1,), (2,))],
     [v for v in ALL_VARIANTS if v.random_cover]),
    (SchemeParams(4, 2, 2, r=1), [((0, 1), (0, 1)), ((0, 1), (2, 3))],
     [v for v in ALL_VARIANTS if v.random_cover]),
], ids=["P321", "P421", "P322", "P431", "P422"])
def test_sampler_law_is_the_law_the_audits_enumerate(params, mats, variants, monkeypatch):
    """Exactly, with no sampling: the law of ``sampler``, enumerated over
    every branch of its integer draws, is the uniform relabeling times the
    uniform law on the realizations of ``block_tables``, the enumerator the
    exact audits walk.  Where N > n_active, one matrix has several cover
    sets.  The draws neither check the matrix nor derive its cover sets
    again."""
    def unexpected(*args):
        raise AssertionError("derived per draw")

    for demands in mats:
        for variant in variants:
            draw = sampler(params, demands, variant)
            with monkeypatch.context() as patched:
                patched.setattr(scheme, "validate_demands", unexpected)
                patched.setattr(scheme, "feasible_cover_sets", unexpected)
                law = sampler_law(draw)
            assert law == uniform_sampler_law(params, demands, variant)


def _with_substream(draw, label, wrap):
    """``draw`` with its substream ``label`` replaced by ``wrap`` of it."""
    def mutated(streams):
        def rng(name):
            gen = streams.rng(name)
            return wrap(gen) if name == label else gen
        return draw(SimpleNamespace(rng=rng))
    return mutated


def _first_cover_twice(gen):
    return SimpleNamespace(randrange=lambda n: max(gen.randrange(n + 1) - 1, 0))


def _no_shuffle(gen):
    return SimpleNamespace(shuffle=lambda files: None)


def _redraw_when_file_0_goes_first(gen):
    def sample(population, k):
        relabeling = gen.sample(population, k)
        return relabeling if relabeling[0] else gen.sample(population, k)
    return SimpleNamespace(sample=sample)


@pytest.mark.parametrize("params,demands,label,wrap", [
    # three cover sets; with one, as at ((0,), (1,)), this mutant draws the same law
    (SchemeParams(4, 2, 1, r=1), ((0,), (0,)), "cover", _first_cover_twice),
    (SchemeParams(4, 2, 2, r=1), ((0, 1), (0, 1)), "block:1", _no_shuffle),
    (SchemeParams(4, 2, 1, r=1), ((0,), (1,)), "relabel", _redraw_when_file_0_goes_first),
], ids=["biased-cover", "frozen-fill-user-1", "non-uniform-relabeling"])
def test_sampler_law_catches_mutated_stages(params, demands, label, wrap):
    draw = _with_substream(sampler(params, demands), label, wrap)
    assert sampler_law(draw) != uniform_sampler_law(params, demands, FULL)


def test_sampler_law_fails_loudly():
    """A float or bit draw, a rejection loop, a substream asked for twice,
    and a draw whose branches change between passes all raise."""
    widening, narrowing = itertools.count(2), itertools.count(0)

    def fewer_draws_each_pass(streams):
        rng = streams.rng("x")
        return tuple(rng.randrange(2) for _ in range(2 - next(narrowing)))

    for draw, message in [
        (lambda streams: streams.rng("x").random(), "Random.random reached"),
        (lambda streams: streams.rng("x").getrandbits(3), "Random.getrandbits reached"),
        (lambda streams: streams.rng("x").sample(range(30), 2), "more than 256 integer draws"),
        (lambda streams: (streams.rng("x"), streams.rng("x")), "substream 'x' asked for twice"),
        (lambda streams: streams.rng("x").randrange(next(widening)), "draw 0 has 3 branches, 2 on an earlier pass"),
        (fewer_draws_each_pass, "the draw took 1 of 2 prescribed branches"),
    ]:
        with pytest.raises(AssertionError, match=message):
            sampler_law(draw)
    assert sampler_law(lambda streams: tuple(streams.rng("x").sample(range(3), 2))) == \
           {perm: Fraction(1, 6) for perm in itertools.permutations(range(3), 2)}


@pytest.mark.parametrize("params", [P321, P522, SchemeParams(4, 2, 3, r=1)], ids=["P321", "P522", "P423"])
def test_checked_slots_accepts_exactly_the_slot_support(params):
    """The direct slot-tuple check agrees with membership in ``slot_support``
    on every tuple of length 0..L+1 over [-1, n_active]: wrong lengths,
    repeats and out-of-range or negative slots are all rejected, with one
    message."""
    support = set(slot_support(params))
    message = (rf"slot tuple .* of user 1 is not {params.demands_per_user} distinct slots "
               rf"in \[0, {params.n_active}\)$")
    values = range(-1, params.n_active + 1)
    for length in range(params.demands_per_user + 2):
        for sel in itertools.product(values, repeat=length):
            if sel in support:
                assert scheme.checked_slots(params, {1: list(sel)}) == {1: sel}
            else:
                with pytest.raises(ValueError, match=message):
                    scheme.checked_slots(params, {1: sel})


@pytest.mark.parametrize("user", [-1, 2])
def test_checked_slots_refuses_a_user_out_of_range(user):
    with pytest.raises(ValueError, match=rf"^user {user} out of range \[0, 2\)$"):
        scheme.checked_slots(P522, {0: (0, 1), user: (0, 1)})


def test_slot_checks_and_budgets_never_build_the_slot_support(monkeypatch, capsys):
    """Checking and drawing slot tuples, placing caches and the
    budget checks of both exact audits run without ``slot_support``, whose
    P(n_active, L) tuples run to 1.3e7 at N18 K3 L6; the budget paths exit 3
    at that size."""
    def no_support(params):
        raise AssertionError("slot_support built")

    monkeypatch.setattr(scheme, "slot_support", no_support)
    assert scheme.checked_slots(P522, {0: (3, 1)}) == {0: (3, 1)}
    assert all(len(set(sel)) == 2 for sel in sampler(P522, ((0, 1), (0, 2)))(SeedStreams(0))[1])
    frozen = sampler(P522, ((0, 1), (0, 2)), Variant(random_slots=False))(SeedStreams(0))[1]
    assert frozen == ((0, 1), (0, 1))
    lib = ramp_library(gf.PrimeField(P522.q), P522.n_files, P522.file_len)
    assert len(place_caches(P522, lib, [(0, 1), (3, 2)])) == 2
    big = ("--N", "18", "--K", "3", "--L", "6")
    for argv in (("audit", "--mode", "ptilde", *big), ("audit", "--mode", "mi", *big, "--F", "1", "--r", "0")):
        assert cli.main(list(argv)) == 3
        assert "enumeration atoms exceed the budget of 10000000" in capsys.readouterr().err
    assert cli.main(["simulate", *big, "--r", "0"]) == 0


def test_realization_count_equals_law_budget_prediction():
    """Predicted equals visited: the atoms ``audit._walk`` plans, which the
    budgets charge, are exactly how many label-free realizations the walk
    enumerates, and the cover weight times walked is how many every cover
    set yields."""
    cases = [(P321, m) for m in all_demand_matrices(P321)]
    cases += [(P522, m) for m in (((0, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 1), (2, 3)))]
    for p, demands in cases:
        for variant in VARIANTS:
            for pinned, slots in ((1, {0: slot_support(p)[-1]}), (0, None)):
                walked_variant, walked = audit._walk(p, demands, variant, pinned)
                assert sum(1 for _ in flat_realizations(p, demands, walked_variant, slots)) == walked
                assert sum(1 for _ in flat_realizations(p, demands, variant, slots)) == \
                       cover_weight(p, demands, variant) * walked
