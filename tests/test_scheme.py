"""Private multi-demand scheme tests: cover sets, placement layout, delivery
randomness, decoding, measured memory/rate, and trace replay."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ramp_library, scan_cover_sets
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
    realizations,
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
    # slot 3 of user 0 would be virtual user 3, user 1's second slot
    p = SchemeParams(3, 2, 1, r=1)
    lib = ramp_library(p.field, p.n_files, p.file_len)
    with pytest.raises(ValueError, match=r"slot tuple \(3,\) of user 0 is not 1 distinct slots in \[0, 2\)"):
        place_caches(p, lib, [(3,), (0,)])
    with pytest.raises(ValueError, match="need one slot tuple per user"):
        place_caches(p, lib, [(0,)])


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
    """With the fill stage off, every block that ``realizations`` yields or
    ``sampler`` draws is the first arrangement ``block_support`` lists."""
    frozen = Variant(random_fill=False)
    cases = ((P522, (((0, 1), (0, 2)), ((1, 0), (2, 3)), ((3, 4), (3, 4)))),
             (SchemeParams(4, 2, 2, r=1), (((0, 1), (2, 3)), ((1, 0), (0, 1)))))
    for p, mats in cases:
        for demands in mats:
            draw = sampler(p, demands, frozen)
            drawn = [draw(SeedStreams(seed))[1:] for seed in range(20)]
            for sel, cover, expanded in itertools.chain(realizations(p, demands, frozen), drawn):
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
        for demands in scheme.all_demand_matrices(p):
            for variant in VARIANTS:
                assert Counter(realizations(p, demands, variant)) == \
                       Counter(_nested_realizations(p, demands, variant))


def test_pinned_realizations_are_the_unpinned_ones_with_that_slot_tuple():
    for demands in scheme.all_demand_matrices(P321):
        for variant in VARIANTS[:4]:
            unpinned = list(realizations(P321, demands, variant))
            for observer in range(P321.n_users):
                for sel in slot_support(P321):
                    pinned = realizations(P321, demands, variant, {observer: sel})
                    assert Counter(pinned) == Counter(x for x in unpinned if x[0][observer] == sel)
    with pytest.raises(ValueError):
        next(realizations(P321, ((0,), (1,)), FULL, {0: (2,)}))
    with pytest.raises(ValueError):
        next(realizations(P321, ((0,), (1,)), FULL, {2: (0,)}))


@pytest.mark.parametrize("params,mats", [
    (P321, list(scheme.all_demand_matrices(P321))),
    (P522, [((0, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 1), (2, 3))]),
], ids=["P321", "P522"])
def test_sampled_realizations_are_enumerated_realizations(params, mats):
    """Every draw of ``sampler`` is one of the realizations
    ``realizations`` yields, with or without a pin, and its relabeling is a
    permutation.  A pin replaces the pinned user's drawn slot tuple only: the
    relabeling, the cover set and every other user's slot tuple stay put."""
    pin = {0: slot_support(params)[-1]}
    for demands in mats:
        for variant in VARIANTS:
            for slots in (None, pin):
                support = set(realizations(params, demands, variant, slots))
                for seed in range(10):
                    relabeling, sel, cover, expanded = sampler(params, demands, variant, slots)(SeedStreams(seed))
                    assert (sel, cover, expanded) in support
                    assert sorted(relabeling) == list(range(params.n_files))
                    if not variant.relabel_files:
                        assert relabeling == tuple(range(params.n_files))
            for seed in range(10):
                free = sampler(params, demands, variant)(SeedStreams(seed))
                pinned = sampler(params, demands, variant, pin)(SeedStreams(seed))
                assert pinned[1] == (pin[0],) + free[1][1:]
                assert (pinned[0], pinned[2]) == (free[0], free[2])
    with pytest.raises(ValueError):
        sampler(P321, ((0,), (1,)), FULL, {0: (2,)})
    with pytest.raises(ValueError):
        sampler(P321, ((0,), (1,)), FULL, {2: (0,)})


def test_sampler_relabeling_uniform_smoke():
    """Chi-square of the relabeling stage's draws over all 24 orderings of
    four files, one seed per draw."""
    draw = sampler(SchemeParams(4, 1, 1, r=0), ((0,),))
    draws = 2400
    counts = Counter(draw(SeedStreams(seed))[0] for seed in range(draws))
    assert len(counts) == 24
    expected = draws / 24
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert stat < audit.chi_square_quantile(23)


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


def test_slot_checks_and_budgets_never_build_the_slot_support(monkeypatch, capsys):
    """Checking, pinning and drawing slot tuples, placing caches and the
    budget checks of both exact audits run without ``slot_support``, whose
    P(n_active, L) tuples run to 1.3e7 at N18 K3 L6; the budget paths exit 3
    at that size."""
    def no_support(params):
        raise AssertionError("slot_support built")

    monkeypatch.setattr(scheme, "slot_support", no_support)
    assert scheme.checked_slots(P522, {0: (3, 1)}) == {0: (3, 1)}
    for variant in (FULL, Variant(random_slots=False)):
        assert sampler(P522, ((0, 1), (0, 2)), variant, {1: (2, 0)})(SeedStreams(0))[1][1] == (2, 0)
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
    """Predicted equals visited: the atom count the law's budget check
    charges is exactly how many label-free realizations are enumerated;
    ``masked_demand_law`` charges it times the number of relabelings."""
    cases = [(P321, m) for m in scheme.all_demand_matrices(P321)]
    cases += [(P522, m) for m in (((0, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 1), (2, 3)))]
    for p, demands in cases:
        for variant in VARIANTS:
            pinned = realizations(p, demands, variant, {0: slot_support(p)[-1]})
            atoms, relabelings = audit._law_atoms(p, demands, variant)
            assert relabelings == (math.factorial(p.n_files) if variant.relabel_files else 1)
            assert sum(1 for _ in pinned) == atoms
            unpinned = realizations(p, demands, variant)
            assert sum(1 for _ in unpinned) == audit._law_atoms(p, demands, variant, pinned=0)[0]
