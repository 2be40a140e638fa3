"""Privacy audit tests: exact laws, invariance, mutation detection, exact
mutual information against a library-enumerating oracle, enumeration-path
consistency, and the chi-square check."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from privcache import audit, scheme
from privcache.audit import (
    BudgetExceededError,
    chi_square_quantile,
    closed_form_mass,
    empirical_law_check,
    exact_mutual_information,
    masked_demand_law,
    restricted_vector_count,
    restricted_vectors,
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
    for demands in scheme.all_demand_matrices(P321):
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
        for demands in scheme.all_demand_matrices(P321):
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
    expanded = [e for _, _, e in scheme.realizations(params, demands, variant, {observer: selector})]
    counts = Counter(tuple(relab[v] for v in e) for relab in relabs for e in expanded)
    total = sum(counts.values())
    return {key: Fraction(c, total) for key, c in counts.items()}


QUOTIENT_VARIANTS = (FULL, Variant(random_fill=False), Variant(random_cover=False), Variant(random_slots=False))


def _quotient_cases():
    for demands in scheme.all_demand_matrices(P321):
        for observer, selector in itertools.product((0, 1), scheme.slot_support(P321)):
            yield P321, demands, observer, selector
    for demands in (((0, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 1), (2, 3))):
        yield P522, demands, 0, (0, 2)
    p331 = SchemeParams(3, 3, 1, r=1)
    for demands in scheme.all_demand_matrices(p331):
        yield p331, demands, 1, (2,)
    p431 = SchemeParams(4, 3, 1, r=1)
    for demands in (((0,), (0,), (0,)), ((0,), (1,), (1,)), ((0,), (1,), (2,)), ((3,), (1,), (3,))):
        for observer in range(3):
            yield p431, demands, observer, (1,)
    p311 = SchemeParams(3, 1, 1, r=1)  # one-entry expanded demands
    for demands in scheme.all_demand_matrices(p311):
        yield p311, demands, 0, (0,)


@pytest.mark.parametrize("variant", QUOTIENT_VARIANTS, ids=("full", "frozen-fill", "frozen-cover", "frozen-slots"))
def test_relabeling_quotient_equals_relabeling_loop(variant):
    for params, demands, observer, selector in _quotient_cases():
        assert masked_demand_law(params, demands, observer, selector, variant) == \
               _relabeling_loop_law(params, demands, observer, selector, variant)


def test_law_skips_the_relabeling_loop(monkeypatch):
    real = scheme.realizations
    drawn = []

    def counting(*args):
        for item in real(*args):
            drawn.append(item)
            yield item
    monkeypatch.setattr(scheme, "realizations", counting)
    law = masked_demand_law(P522, ((0, 1), (2, 3)), 0, (0, 2))
    assert set(law.values()) == {closed_form_mass(P522)}
    # 12 slot tuples x 1 cover set x 2 x 2 fills; the 120 relabelings are not walked
    assert len(drawn) == 48
    assert audit._law_atoms(P522, ((0, 1), (2, 3)), FULL) == (48, 120)


def test_law_raises_when_unrelabeled_atoms_go_missing(monkeypatch):
    real = scheme.realizations
    monkeypatch.setattr(scheme, "realizations", lambda *args: itertools.islice(real(*args), 47))
    with pytest.raises(RuntimeError, match="enumerated 47 atoms, predicted 48"):
        masked_demand_law(P522, ((0, 1), (2, 3)), 0, (0, 2))


def test_invariance_single_matrix_trivial():
    rep = verify_law_invariance(P321, [((0,), (1,))], 0, (0,))
    assert rep.identical and rep.max_discrepancy == 0


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
        for demands in scheme.all_demand_matrices(P321):
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
    # and one fill per user
    real = scheme.realizations
    monkeypatch.setattr(scheme, "realizations", lambda *args: itertools.islice(real(*args), 3))
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
                   for sel, _, e in scheme.realizations(params, demands, variant) for relab in relabs)


def _library_mi(params, observer, variant):
    """Brute-force oracle: the exact MI with every library enumerated and the
    observer's cache contents and the broadcast segments in the outcome.
    Returns (conditional laws equal, value), the value Fraction(0) when the
    laws are equal and a float in base-q units otherwise."""
    mats = list(scheme.all_demand_matrices(params))
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
    # 257^12 libraries and 6 relabelings are not charged: 9 matrices x 4 slot pairs x 2 covers
    p = SchemeParams(3, 2, 1, r=1, q=257, packet_size=1)
    assert audit._joint_atom_count(p, FULL)[0] == 72
    assert exact_mutual_information(p, 0, budget=72).value == 0
    with pytest.raises(BudgetExceededError, match="72 enumeration atoms exceed the budget of 71"):
        exact_mutual_information(p, 0, budget=71)


def masked_marginal_via_joint(params, demands, observer, selector, variant=FULL, budget=10 ** 7):
    """Marginal law of the masked demand taken from the joint enumeration of
    every user's slot tuple, conditioned on the observer's.  Must reproduce
    masked_demand_law, which pins that slot tuple instead, exactly; a
    consistency oracle for the two enumeration paths."""
    demands = scheme.validate_demands(params, demands)
    audit._check_observer(params, observer)
    selector = scheme.checked_slots(params, {observer: selector})[observer]
    audit._check_budget(math.prod(audit._law_atoms(params, demands, variant, pinned=0)), budget,
                        "joint slot-tuple enumeration")
    counts = audit._view_counts(params, demands, observer, variant)
    # each class spread over every relabeling of its first vector
    atoms = audit._law_atoms(params, demands, variant)[0]
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
        for demands in scheme.all_demand_matrices(params):
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


def test_chi_square_quantile_values():
    # Wilson-Hilferty at 0.999 vs reference values (scipy.stats.chi2.ppf)
    assert abs(chi_square_quantile(23) - 49.7282) < 0.3
    assert abs(chi_square_quantile(11) - 31.2641) < 0.3
    assert abs(chi_square_quantile(2879) - 3119.2021) < 1.0
    with pytest.raises(ValueError):
        chi_square_quantile(0)


def test_empirical_check_passes_for_real_scheme():
    rep = empirical_law_check(P321, ((0,), (1,)), 0, (0,), runs=2000, seed=7)
    assert rep.support_size == 12
    assert rep.outside_support == 0
    assert rep.passed


def test_empirical_check_run_floor():
    with pytest.raises(ValueError):
        empirical_law_check(P321, ((0,), (1,)), 0, (0,), runs=0, seed=1)
    with pytest.raises(ValueError):
        empirical_law_check(P321, ((0,), (1,)), 0, (0,), runs=119, seed=1)


def test_empirical_run_floor_is_checked_before_the_support_is_built(monkeypatch):
    # 373,248,000 support vectors at (6, 3, 2): the floor comes from the closed form
    def unexpected(params):
        raise AssertionError("support enumerated before the run floor was checked")

    monkeypatch.setattr(audit, "restricted_vectors", unexpected)
    with pytest.raises(ValueError, match="need at least 3732480000 runs for 373248000 support points, got 10"):
        empirical_law_check(SchemeParams(6, 3, 2, r=1), ((0, 1), (2, 3), (4, 5)), 0, (0, 1), runs=10, seed=1)


def test_empirical_check_derives_the_demand_matrix_once(monkeypatch):
    """The cover sets, slot pins and demand checks are fixed per demand
    matrix: one derivation per check however many runs it draws (the check
    validates the demands once more itself, before the run floor)."""
    calls = {name: 0 for name in ("feasible_cover_sets", "checked_slots", "validate_demands")}

    def counting(name):
        real = getattr(scheme, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    reference = empirical_law_check(P321, ((0,), (2,)), 1, (1,), runs=2000, seed=5)
    for name in calls:
        monkeypatch.setattr(scheme, name, counting(name))
    rep = empirical_law_check(P321, ((0,), (2,)), 1, (1,), runs=2000, seed=5)
    assert calls == {"feasible_cover_sets": 1, "checked_slots": 1, "validate_demands": 2}
    assert rep == reference


def test_empirical_check_detects_skipped_relabeling():
    rep = empirical_law_check(P321, ((0,), (1,)), 0, (0,), runs=2000, seed=7, variant=NO_RELABEL)
    assert not rep.passed


def test_empirical_check_five_file_instance():
    rep = empirical_law_check(P522, ((0, 1), (0, 2)), 0, (0, 2), runs=100_000, seed=3)
    assert rep.support_size == 2880
    assert rep.dof == 2879
    assert rep.passed
