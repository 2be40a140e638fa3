"""Privacy audit tests: exact laws, invariance, mutation detection, exact
mutual information against a library-enumerating oracle, and
enumeration-path consistency."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from helpers import all_demand_matrices, cover_weight, flat_realizations, restricted_vectors, walked_view_counts
from privcache import audit, scheme
from privcache.audit import (
    BudgetExceededError,
    closed_form_mass,
    exact_mutual_information,
    masked_demand_law,
    restricted_vector_count,
    verify_law_invariance,
)
from privcache.scheme import FULL, NO_RELABEL, PLAIN_BASELINE, SchemeParams, Variant
from privcache.ucc import Library

P321 = SchemeParams(3, 2, 1, r=1)
P522 = SchemeParams(5, 2, 2, r=1)
MI_INSTANCE = SchemeParams(2, 2, 1, r=1, q=2, packet_size=1)  # file_len 4


def test_closed_form_mass_values():
    assert closed_form_mass(P522) == Fraction(1, 2880)
    assert closed_form_mass(P321) == Fraction(1, 12)
    assert closed_form_mass(MI_INSTANCE) == Fraction(1, 4)


def test_restricted_vector_counts():
    assert restricted_vector_count(P522) == 2880
    assert restricted_vector_count(P321) == 12
    vecs = list(restricted_vectors(P321))
    assert len(vecs) == len(set(vecs)) == 12
    # closed-form mass sums to one over the support
    assert closed_form_mass(P321) * 12 == 1


def test_law_uniform_for_every_demand_observer_selector():
    support = restricted_vector_count(P321)
    mass = closed_form_mass(P321)
    for demands in all_demand_matrices(P321):
        for observer in (0, 1):
            for selector in scheme.slot_support(P321):
                law = masked_demand_law(P321, demands, observer, selector)
                assert len(law) == support
                assert set(law.values()) == {mass}


def test_law_uniform_on_five_file_instance():
    law = masked_demand_law(P522, ((0, 1), (2, 3)), 0, (0, 2))
    assert len(law) == 2880
    assert set(law.values()) == {Fraction(1, 2880)}


def _stagewise_law(params, demands, observer, selector, variant):
    """Independent oracle: the masked-demand law built stage by stage with
    Fraction weights, each stage uniform over its own support."""
    n, k_users, big_l, a = params.n_files, params.n_users, params.demands_per_user, params.n_active
    relabs = list(itertools.permutations(range(n))) if variant.relabel_files else [tuple(range(n))]
    slot_opts = list(itertools.permutations(range(a), big_l)) if variant.random_slots else [tuple(range(big_l))]
    requested = {d for row in demands for d in row}
    covers = [c for c in itertools.combinations(range(n), a) if requested <= set(c)]
    if not variant.random_cover:
        covers = covers[:1]
    per_user_slots = [[tuple(selector)] if k == observer else slot_opts for k in range(k_users)]
    law = {}
    for relab in relabs:
        w_relab = Fraction(1, len(relabs))
        for slots in itertools.product(*per_user_slots):
            w_slots = w_relab * Fraction(1, len(slot_opts)) ** (k_users - 1)
            for cover in covers:
                w_cover = w_slots / len(covers)
                per_user = []
                for row, sel in zip(demands, slots):
                    rest = sorted(set(cover) - set(row))
                    free = [i for i in range(a) if i not in sel]
                    fills = list(itertools.permutations(rest)) if variant.random_fill else [tuple(rest)]
                    blocks = []
                    for fill in fills:
                        block = [None] * a
                        for i, d in zip(sel, row):
                            block[i] = d
                        for i, v in zip(free, fill):
                            block[i] = v
                        blocks.append((block, Fraction(1, len(fills))))
                    per_user.append(blocks)
                for combo in itertools.product(*per_user):
                    w = w_cover * math.prod((wb for _, wb in combo), start=Fraction(1))
                    masked = tuple(relab[v] for block, _ in combo for v in block)
                    law[masked] = law.get(masked, Fraction(0)) + w
    return law


ORACLE_VARIANTS = (FULL, NO_RELABEL, Variant(random_fill=False), Variant(random_cover=False), PLAIN_BASELINE)


def test_law_equals_stagewise_oracle_on_three_file_instance():
    for variant in ORACLE_VARIANTS:
        for demands in all_demand_matrices(P321):
            for observer in (0, 1):
                for selector in scheme.slot_support(P321):
                    assert masked_demand_law(P321, demands, observer, selector, variant) == \
                           _stagewise_law(P321, demands, observer, selector, variant)


def test_law_equals_stagewise_oracle_on_criterion_4_families():
    for variant in ORACLE_VARIANTS:
        for demands in (((0, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 1), (2, 3))):
            assert masked_demand_law(P522, demands, 0, (0, 2), variant) == \
                   _stagewise_law(P522, demands, 0, (0, 2), variant)


def _relabeling_loop_law(params, demands, observer, selector, variant):
    """Brute-force reference: the law counted over every label-free
    realization under each of the N! relabelings, one atom at a time."""
    n = params.n_files
    relabs = list(itertools.permutations(range(n))) if variant.relabel_files else [tuple(range(n))]
    expanded = [e for _, _, e in flat_realizations(params, demands, variant, {observer: selector})]
    counts = Counter(tuple(relab[v] for v in e) for relab in relabs for e in expanded)
    total = sum(counts.values())
    return {key: Fraction(c, total) for key, c in counts.items()}


QUOTIENT_VARIANTS = (FULL, Variant(random_fill=False), Variant(random_cover=False), Variant(random_slots=False))


def _quotient_cases():
    for demands in all_demand_matrices(P321):
        for observer, selector in itertools.product((0, 1), scheme.slot_support(P321)):
            yield P321, demands, observer, selector
    for demands in (((0, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 1), (2, 3))):
        yield P522, demands, 0, (0, 2)
    p331 = SchemeParams(3, 3, 1, r=1)
    for demands in all_demand_matrices(p331):
        yield p331, demands, 1, (2,)
    p431 = SchemeParams(4, 3, 1, r=1)
    for demands in (((0,), (0,), (0,)), ((0,), (1,), (1,)), ((0,), (1,), (2,)), ((3,), (1,), (3,))):
        for observer in range(3):
            yield p431, demands, observer, (1,)
    p311 = SchemeParams(3, 1, 1, r=1)  # one-entry expanded demands
    for demands in all_demand_matrices(p311):
        yield p311, demands, 0, (0,)


@pytest.mark.parametrize("variant", QUOTIENT_VARIANTS, ids=("full", "frozen-fill", "frozen-cover", "frozen-slots"))
def test_relabeling_quotient_equals_relabeling_loop(variant):
    for params, demands, observer, selector in _quotient_cases():
        assert masked_demand_law(params, demands, observer, selector, variant) == \
               _relabeling_loop_law(params, demands, observer, selector, variant)


def _counting_atoms(monkeypatch) -> list:
    """Patch ``scheme.block_tables`` to log the atoms each yielded product
    holds; returns the log, whose sum is the atoms walked."""
    real = scheme.block_tables
    drawn = []

    def counting(*args):
        for item in real(*args):
            drawn.append(math.prod(map(len, item[2])))
            yield item
    monkeypatch.setattr(scheme, "block_tables", counting)
    return drawn


def test_law_skips_the_relabeling_loop(monkeypatch):
    drawn = _counting_atoms(monkeypatch)
    law = masked_demand_law(P522, ((0, 1), (2, 3)), 0, (0, 2))
    assert set(law.values()) == {closed_form_mass(P522)}
    # 12 slot tuples x 1 cover set x 2 x 2 fills; the 120 relabelings are not walked
    assert sum(drawn) == 48
    assert audit._walk(P522, ((0, 1), (2, 3)), FULL, 1) == (Variant(random_cover=False), 48)
    # but they are charged, since the law lists every member: 48 walked atoms x 5!
    assert masked_demand_law(P522, ((0, 1), (2, 3)), 0, (0, 2), budget=5760) == law
    with pytest.raises(BudgetExceededError, match="5760 enumeration atoms exceed the budget of 5759"):
        masked_demand_law(P522, ((0, 1), (2, 3)), 0, (0, 2), budget=5759)
    # three cover sets, one walked: the same 48 x 5! is charged, not 3 x 48 x 5!
    assert set(masked_demand_law(P522, ((0, 1), (0, 1)), 0, (0, 2), budget=5760).values()) == \
           {closed_form_mass(P522)}
    with pytest.raises(BudgetExceededError, match="5760 enumeration atoms exceed the budget of 5759"):
        masked_demand_law(P522, ((0, 1), (0, 1)), 0, (0, 2), budget=5759)


WALK_VARIANTS = (FULL, NO_RELABEL, PLAIN_BASELINE, Variant(random_fill=False), Variant(random_cover=False),
                 Variant(random_slots=False))


@pytest.mark.parametrize("pinned", (True, False), ids=("pinned", "unpinned"))
@pytest.mark.parametrize("variant", WALK_VARIANTS,
                         ids=("full", "no-relabel", "plain", "frozen-fill", "frozen-cover", "frozen-slots"))
def test_view_counts_equal_the_walk_of_every_cover(variant, pinned):
    """The counts of one cover set times the cover count are the counts of
    every cover set, key for key and in first-occurrence order (which fixes
    the MI witness)."""
    for params, demands, observer, selector in _quotient_cases():
        slots = {observer: selector} if pinned else None
        weight = cover_weight(params, demands, variant)
        plan = audit._walk(params, demands, variant, len(slots or ()))
        counts = audit._view_counts(params, demands, observer, plan, slots)
        assert [(key, c * weight) for key, c in counts.items()] == \
               list(walked_view_counts(params, demands, observer, variant, slots).items())


FAMILY_522 = (((0, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 1), (2, 3)))


@pytest.mark.parametrize("variant,walked,atoms", [
    (FULL, [48, 48, 48], [144, 96, 48]),        # 3, 2 and 1 cover sets, one walked
    (NO_RELABEL, [144, 96, 48], [144, 96, 48]),  # a class is a vector: every cover walked
    (Variant(random_fill=False), [36, 24, 12], [36, 24, 12]),  # ascending fills: every cover walked
], ids=("full", "no-relabel", "frozen-fill"))
def test_law_walks_one_cover_set_per_matrix(monkeypatch, variant, walked, atoms):
    drawn = _counting_atoms(monkeypatch)
    visits = []
    for demands in FAMILY_522:
        drawn.clear()
        masked_demand_law(P522, demands, 0, (0, 2), variant)
        visits.append(sum(drawn))
    assert visits == walked
    assert [audit._walk(P522, d, variant, 1)[1] for d in FAMILY_522] == walked
    assert [audit._view_counts(P522, d, 0, audit._walk(P522, d, variant, 1), {0: (0, 2)}).total()
            for d in FAMILY_522] == walked
    # the law still has every cover's atoms: cover weight x walked
    assert [cover_weight(P522, d, variant) * n for d, n in zip(FAMILY_522, walked)] == atoms
    assert [walked_view_counts(P522, d, 0, variant, {0: (0, 2)}).total() for d in FAMILY_522] == atoms


def _counting_walks(monkeypatch) -> list:
    """Patch ``scheme.block_tables`` to log each call; returns the log."""
    real = scheme.block_tables
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(scheme, "block_tables", counting)
    return calls


def test_invariance_charges_the_family_once_before_any_walk(monkeypatch):
    calls = _counting_walks(monkeypatch)
    # every cover walked: 144 + 96 + 48 atoms, though no one law exceeds 200
    with pytest.raises(BudgetExceededError, match="288 enumeration atoms exceed the budget of 200"):
        verify_law_invariance(P522, FAMILY_522, 0, (0, 2), NO_RELABEL, budget=200)
    assert calls == []
    rep = verify_law_invariance(P522, FAMILY_522, 0, (0, 2), NO_RELABEL, budget=288)
    assert len(calls) == 3 and not rep.identical


def test_invariance_charges_the_atoms_walked_not_the_law(monkeypatch):
    # one cover set of three walked: 48 atoms charged, though the law has 144
    calls = _counting_walks(monkeypatch)
    rep = verify_law_invariance(P522, [FAMILY_522[0]], 0, (0, 2), budget=48)
    assert rep.uniform and rep.identical and rep.max_discrepancy == 0
    assert len(calls) == 1
    with pytest.raises(BudgetExceededError, match="48 enumeration atoms exceed the budget of 47"):
        verify_law_invariance(P522, [FAMILY_522[0]], 0, (0, 2), budget=47)
    assert len(calls) == 1


def test_law_raises_when_unrelabeled_atoms_go_missing(monkeypatch):
    # the last of the 12 slot-tuple products, 2 x 2 atoms, goes missing
    real = scheme.block_tables
    monkeypatch.setattr(scheme, "block_tables", lambda *args: itertools.islice(real(*args), 11))
    with pytest.raises(RuntimeError, match="enumerated 44 atoms, predicted 48"):
        masked_demand_law(P522, ((0, 1), (2, 3)), 0, (0, 2))


def test_invariance_single_matrix_trivial():
    rep = verify_law_invariance(P321, [((0,), (1,))], 0, (0,))
    assert rep.identical and rep.max_discrepancy == 0


def test_invariance_refuses_an_empty_family():
    with pytest.raises(ValueError, match="^empty demand list$"):
        verify_law_invariance(P321, [], 0, (0,))


def test_invariance_requires_shared_observer_row():
    with pytest.raises(ValueError):
        verify_law_invariance(P321, [((0,), (1,)), ((1,), (1,))], 0, (0,))


def test_invariance_across_other_rows():
    family = [((0,), (0,)), ((0,), (1,)), ((0,), (2,))]
    rep = verify_law_invariance(P321, family, 0, (1,))
    assert rep.identical and rep.uniform and rep.max_discrepancy == 0


def _key_by_key_verdict(params, laws):
    """Reference verdict on full laws, vector by vector: (uniform, identical,
    max discrepancy).  Uniform: every law has the closed-form support size
    and mass; identical: every law equals the first; the discrepancy is the
    largest gap on one vector between a law holding it and the uniform mass,
    or between the first law and another."""
    mass, support = closed_form_mass(params), restricted_vector_count(params)
    to_uniform = max(abs(p - mass) for law in laws for p in law.values())
    base = laws[0]
    between = max((abs(base.get(key, 0) - law.get(key, 0)) for law in laws[1:] for key in base.keys() | law.keys()),
                  default=Fraction(0))
    uniform = to_uniform == 0 and all(len(law) == support for law in laws)
    return uniform, between == 0, max(to_uniform, between)


VERDICT_VARIANTS = (FULL, NO_RELABEL, PLAIN_BASELINE, Variant(random_fill=False), Variant(random_cover=False),
                    Variant(random_slots=False))


def _verdict_cases():
    # every P321 matrix, in the family of the matrices sharing its observer row
    for observer, selector in itertools.product((0, 1), scheme.slot_support(P321)):
        rows = {}
        for demands in all_demand_matrices(P321):
            rows.setdefault(demands[observer], []).append(demands)
        for family in rows.values():
            yield P321, family, observer, selector
    yield P522, [((0, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 1), (2, 3))], 0, (0, 2)
    yield SchemeParams(4, 2, 2, r=1), [((0, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 1), (2, 3))], 0, (1, 0)


@pytest.mark.parametrize("variant", VERDICT_VARIANTS,
                         ids=("full", "no-relabel", "plain", "frozen-fill", "frozen-cover", "frozen-slots"))
def test_class_verdict_equals_key_by_key_verdict(variant):
    for params, family, observer, selector in _verdict_cases():
        rep = verify_law_invariance(params, family, observer, selector, variant)
        laws = [masked_demand_law(params, m, observer, selector, variant) for m in family]
        assert (rep.uniform, rep.identical, rep.max_discrepancy) == _key_by_key_verdict(params, laws)


def test_mutation_no_relabel_detected():
    family = [((0, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 1), (2, 3))]
    rep = verify_law_invariance(P522, family, 0, (0, 2), variant=NO_RELABEL)
    assert not rep.identical
    assert rep.max_discrepancy > 0
    law = masked_demand_law(P522, family[0], 0, (0, 2), variant=NO_RELABEL)
    assert set(law.values()) != {closed_form_mass(P522)}


def test_mutation_frozen_fill_detected():
    # frozen within-block arrangement shrinks the support even with relabeling on
    frozen = Variant(random_fill=False)
    law = masked_demand_law(P522, ((0, 1), (0, 1)), 0, (0, 2), variant=frozen)
    assert len(law) < 2880


def test_plain_baseline_law_concentrates():
    law = masked_demand_law(P321, ((0,), (1,)), 0, (0,), variant=PLAIN_BASELINE)
    assert len(law) == 1  # fully derandomized: a single deterministic vector


def test_law_budget_enforced():
    with pytest.raises(BudgetExceededError):
        masked_demand_law(P522, ((0, 1), (0, 1)), 0, (0, 2), budget=100)


def test_exact_mi_zero_on_enumerable_instance():
    rep = exact_mutual_information(MI_INSTANCE, 0)
    assert rep.conditional_laws_equal
    assert isinstance(rep.value, Fraction) and rep.value == 0


def test_exact_mi_other_observer_and_prior():
    rep = exact_mutual_information(MI_INSTANCE, 1)
    assert rep.observer == 1
    assert rep.conditional_laws_equal and rep.value == 0


def test_exact_mi_baseline_leaks():
    # the plain baseline reveals the other row: I = H(d_1) = 1 bit
    rep = exact_mutual_information(MI_INSTANCE, 0, variant=PLAIN_BASELINE)
    assert not rep.conditional_laws_equal
    assert not isinstance(rep.value, Fraction)
    assert abs(rep.value - 1.0) < 1e-12
    assert rep.witness is not None


@pytest.mark.parametrize("params,observer,variant,value,witness", [
    # relabeling and fills on, slots frozen: the quotient path, leaking
    (SchemeParams(4, 3, 1, r=1, q=2), 0, Variant(random_slots=False), 2.139097655573916,
     (((0,), (0,), (0,)), ((0,), (0,), (1,)), (((0,), (0, 1, 2, 0, 1, 2, 0, 1, 2)), (0,)))),
    # observer 2: its peers are not contiguous in the enumeration order of demand matrices
    (SchemeParams(4, 3, 1, r=1, q=2), 2, Variant(random_slots=False), 2.139097655573916,
     (((0,), (0,), (0,)), ((0,), (1,), (0,)), (((0,), (0, 1, 2, 0, 1, 2, 0, 1, 2)), (0,)))),
    # frozen fills: every cover set walked
    (SchemeParams(3, 3, 1, r=1, q=2), 2, Variant(random_fill=False), 1.224394445405986,
     (((0,), (0,), (0,)), ((0,), (1,), (0,)), (((0,), (0, 1, 2, 1, 2, 0, 0, 1, 2)), (0,)))),
], ids=("431-observer0-frozen-slots", "431-observer2-frozen-slots", "331-observer2-frozen-fill"))
def test_exact_mi_leak_through_the_cover_quotient(params, observer, variant, value, witness):
    rep = exact_mutual_information(params, observer, variant=variant, budget=10 ** 8)
    assert not rep.conditional_laws_equal
    assert rep.value == value
    assert rep.witness == witness


def test_exact_mi_derives_per_matrix_state_once(monkeypatch):
    """Cover sets are derived once per demand matrix, and no cache is placed
    and no broadcast encoded: the tag counts alone give the value."""
    counts = {"feasible_cover_sets": 0, "place_caches": 0, "deliver": 0}

    def counting(name):
        real = getattr(scheme, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(scheme, name, counting(name))
    rep = exact_mutual_information(MI_INSTANCE, 0)
    assert rep.value == 0
    assert counts == {"feasible_cover_sets": 4, "place_caches": 0, "deliver": 0}  # one per demand matrix


def test_exact_mi_raises_when_label_free_atoms_go_missing(monkeypatch):
    # each demand matrix of MI_INSTANCE has 2 x 2 slot tuples, one cover set
    # and one fill per user: four one-atom products
    real = scheme.block_tables
    monkeypatch.setattr(scheme, "block_tables", lambda *args: itertools.islice(real(*args), 3))
    with pytest.raises(RuntimeError, match="enumerated 3 atoms, predicted 4"):
        exact_mutual_information(MI_INSTANCE, 0)


def test_exact_mi_budget_error_names_cardinality():
    big = SchemeParams(6, 4, 1, r=1, q=257)
    with pytest.raises(BudgetExceededError) as err:
        exact_mutual_information(big, 0)
    assert "exceed" in str(err.value)


def _relabeled_views(params, demands, observer, variant):
    """Atom counts of (observer slot tuple, masked demand) over every
    label-free realization under every relabeling, one atom at a time."""
    n = params.n_files
    relabs = list(itertools.permutations(range(n))) if variant.relabel_files else [tuple(range(n))]
    return Counter((sel[observer], scheme.relabeled_demand(e, relab))
                   for sel, _, e in flat_realizations(params, demands, variant) for relab in relabs)


def _library_mi(params, observer, variant):
    """Brute-force oracle: the exact MI with every library enumerated and the
    observer's cache contents and the broadcast segments in the outcome.
    Returns (conditional laws equal, value), the value Fraction(0) when the
    laws are equal and a float in base-q units otherwise."""
    mats = list(all_demand_matrices(params))
    q, n, f = params.q, params.n_files, params.file_len
    views = [_relabeled_views(params, m, observer, variant) for m in mats]
    counts = [Counter() for _ in mats]
    for flat in itertools.product(range(q), repeat=n * f):
        library = Library(params.field, tuple(flat[i * f:(i + 1) * f] for i in range(n)))
        caches, broadcasts = {}, {}
        for m, view, law in zip(mats, views, counts):
            for (sel, masked), c in view.items():
                if sel not in caches:
                    cache = scheme.place_caches(params, library, [sel] * params.n_users)[observer]
                    caches[sel] = (sel, tuple(tuple(sorted(cache.subfiles[label].items()))
                                              for label in range(n)))
                if masked not in broadcasts:
                    broadcast = scheme.deliver(params, library, masked)
                    broadcasts[masked] = (masked, tuple(sorted(broadcast.segments.items())))
                law[broadcasts[masked], caches[sel], m[observer]] += c
    laws = {m: {k: Fraction(c, sum(law.values())) for k, c in law.items()} for m, law in zip(mats, counts)}
    equal = all(laws[m] == laws[o] for m in mats for o in mats if m[observer] == o[observer])
    joint = Counter()
    for m in mats:
        others = tuple(r for i, r in enumerate(m) if i != observer)
        for outcome, p in laws[m].items():
            joint[others, outcome] += p / len(mats)
    marg_t, marg_o = Counter(), Counter()
    for (t, o), p in joint.items():
        marg_t[t] += p
        marg_o[o] += p
    if equal:
        assert all(p == marg_t[t] * marg_o[o] for (t, o), p in joint.items())
        return True, Fraction(0)
    return False, sum(float(p) * math.log(float(p / (marg_t[t] * marg_o[o])), q) for (t, o), p in joint.items())


MI_ORACLE_VARIANTS = ORACLE_VARIANTS + (Variant(random_slots=False),)


@pytest.mark.parametrize("params", (MI_INSTANCE, SchemeParams(3, 2, 1, r=0, q=2, packet_size=2)),
                         ids=("221-q2-F4-r1", "321-q2-F2-r0"))
def test_exact_mi_equals_library_enumeration(params):
    for observer, variant in itertools.product(range(params.n_users), MI_ORACLE_VARIANTS):
        rep = exact_mutual_information(params, observer, variant=variant)
        equal, value = _library_mi(params, observer, variant)
        assert rep.conditional_laws_equal == equal
        if equal:
            assert isinstance(rep.value, Fraction) and rep.value == value == 0
            assert rep.witness is None
        else:
            assert value > 0 and rep.value == pytest.approx(value, rel=1e-12)
            m, other, (tag, row) = rep.witness
            assert m[observer] == other[observer] == row and m != other
            # the witness names a concrete masked vector on which the two laws differ
            laws = [_relabeled_views(params, d, observer, variant) for d in (m, other)]
            assert len({Fraction(law[tag], law.total()) for law in laws}) == 2


@pytest.mark.parametrize("q", (2, 257))
def test_exact_mi_plain_baseline_is_log_q_3(q):
    # the plain baseline's masked demand reveals the other user's one file of three
    rep = exact_mutual_information(SchemeParams(3, 2, 1, r=1, q=q, packet_size=1), 0, variant=PLAIN_BASELINE)
    assert rep.value == pytest.approx(math.log(3) / math.log(q), rel=1e-15)


def test_exact_mi_budget_skips_the_libraries():
    # 257^12 libraries and 6 relabelings are not charged: 9 matrices x 4 slot pairs, one of
    # each matrix's 1 or 2 cover sets walked
    p = SchemeParams(3, 2, 1, r=1, q=257, packet_size=1)
    assert audit._joint_atom_count(p, FULL)[0] == 36
    assert exact_mutual_information(p, 0, budget=36).value == 0
    with pytest.raises(BudgetExceededError, match="36 enumeration atoms exceed the budget of 35"):
        exact_mutual_information(p, 0, budget=35)


ALL_VARIANTS = [Variant(*flags) for flags in itertools.product((True, False), repeat=4)]


@pytest.mark.parametrize("triple,walk", [
    ((3, 2, 1), True), ((4, 2, 1), True), ((4, 2, 2), False), ((5, 2, 2), False),
    ((4, 3, 1), True), ((5, 3, 1), False), ((6, 2, 2), False), ((3, 1, 3), True),
], ids=lambda v: "".join(map(str, v)) if isinstance(v, tuple) else ("realizations" if v else "closed-form"))
def test_mi_charge_is_the_sum_of_the_walks(triple, walk):
    """The closed-form MI charge is the sum of every demand matrix's planned
    walk, for all 16 variants; on the smaller triples each plan is how many
    realizations ``scheme.block_tables`` yields."""
    params = SchemeParams(*triple, r=0)
    mats = list(all_demand_matrices(params))
    for variant in ALL_VARIANTS:
        plans = [audit._walk(params, m, variant, 0) for m in mats]
        assert audit._joint_atom_count(params, variant)[0] == sum(walked for _, walked in plans)
        if walk:
            assert [sum(1 for _ in flat_realizations(params, m, walked_variant))
                    for m, (walked_variant, _) in zip(mats, plans)] == [walked for _, walked in plans]


STAGE_ABLATION = {  # (N, K, L) -> the private variants, bits (relabel, slots, cover, fills)
    (3, 2, 1): {"1111", "1110", "1101", "1100"},
    (4, 2, 1): {"1111", "1110", "1101", "1100"},
    (3, 2, 2): {"1111", "1110", "1101", "1100", "0111", "0110", "0101", "0100"},
    (4, 3, 1): {"1111", "1101"},
    (4, 2, 2): {"1111", "1101", "0111", "0101"},
    (5, 3, 1): {"1111", "1101"},
}


@pytest.mark.parametrize("triple", STAGE_ABLATION, ids=lambda t: "".join(map(str, t)))
def test_stage_ablation_table(triple):
    """The exact-MI verdict of every ``Variant`` at observer 0, r = 0, q = 2,
    F = 1: which randomization stages privacy needs.  Frozen slots always
    leak; relabeling may be off only at (3, 2, 2) and (4, 2, 2), the
    instances here with N <= KL."""
    params = SchemeParams(*triple, r=0, q=2, packet_size=1)
    private = {"".join(str(int(b)) for b in (v.relabel_files, v.random_slots, v.random_cover, v.random_fill))
               for v in ALL_VARIANTS if exact_mutual_information(params, 0, variant=v).conditional_laws_equal}
    assert private == STAGE_ABLATION[triple]


PRODUCT_WALK_FAMILY = (((0, 1), (0, 1)), ((0, 1), (1, 0)), ((0, 1), (0, 2)), ((1, 0), (2, 0)), ((0, 1), (2, 3)),
                       ((3, 2), (1, 0)))


@pytest.mark.parametrize("triple", [(3, 2, 1), (4, 2, 2), (4, 3, 1), (5, 2, 2), (3, 3, 1)],
                         ids=lambda t: "".join(map(str, t)))
def test_product_walk_equals_the_atom_by_atom_walk(triple):
    """Brute-force oracle for the product walk: ``_view_counts`` gives the
    counts of ``walked_view_counts``, which walks the realizations one atom
    at a time, rebuilds every user's blocks per slot assignment and
    renumbers whole vectors, key for key and in first-occurrence order; on
    all 16 variants, pinned and unpinned, for the first and the last user."""
    params = SchemeParams(*triple, r=1)
    mats = PRODUCT_WALK_FAMILY if triple[2] == 2 else list(all_demand_matrices(params))
    pin = scheme.slot_support(params)[-1]
    for demands, variant in itertools.product(mats, ALL_VARIANTS):
        for observer in (0, params.n_users - 1):
            for slots in (None, {observer: pin}):
                plan = audit._walk(params, demands, variant, len(slots or ()))
                assert list(audit._view_counts(params, demands, observer, plan, slots).items()) == \
                       list(walked_view_counts(params, demands, observer, plan[0], slots).items())


def masked_marginal_via_joint(params, demands, observer, selector, variant=FULL, budget=10 ** 7):
    """Marginal law of the masked demand taken from the joint enumeration of
    every user's slot tuple, conditioned on the observer's.  Must reproduce
    masked_demand_law, which pins that slot tuple instead, exactly; a
    consistency oracle for the two enumeration paths."""
    demands = scheme.validate_demands(params, demands)
    audit._check_observer(params, observer)
    selector = scheme.checked_slots(params, {observer: selector})[observer]
    relabelings = math.factorial(params.n_files) if variant.relabel_files else 1
    audit._check_budget(audit._walk(params, demands, variant, 0)[1] * relabelings, budget,
                        "joint slot-tuple enumeration")
    counts = audit._view_counts(params, demands, observer, audit._walk(params, demands, variant, 0))
    # each class spread over every relabeling of its first vector; the
    # observer's slot tuple holds the atoms of the pinned walk
    atoms = audit._walk(params, demands, variant, 1)[1]
    n = params.n_files
    relabs = list(itertools.permutations(range(n))) if variant.relabel_files else [tuple(range(n))]
    law = Counter()
    for (sel, cls), c in counts.items():
        if sel == selector:
            for relab in relabs:
                law[scheme.relabeled_demand(cls, relab)] += Fraction(c, atoms * len(relabs))
    return dict(law)


def test_joint_marginal_reproduces_direct_law():
    for params in (MI_INSTANCE, P321):
        for demands in all_demand_matrices(params):
            for observer, selector in itertools.product(range(2), scheme.slot_support(params)):
                for variant in ORACLE_VARIANTS[:4]:
                    direct = masked_demand_law(params, demands, observer, selector, variant)
                    via_joint = masked_marginal_via_joint(params, demands, observer, selector, variant)
                    assert direct == via_joint
    for observer in (5, -1):  # past the last user, and a negative index
        with pytest.raises(ValueError):
            masked_marginal_via_joint(P321, ((0,), (1,)), observer, (0,))
    for selector in ((5,), (0, 1)):  # the shared slot-tuple check, not a missing-atoms RuntimeError
        with pytest.raises(ValueError, match="slot tuple"):
            masked_marginal_via_joint(P321, ((0,), (1,)), 0, selector)
