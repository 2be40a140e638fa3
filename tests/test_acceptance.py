"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its measured runtime.  Run `pytest tests/test_acceptance.py -v -s`.

Criteria, in order:
1. worked-example reproduction: (N,K,L,r) = (5,2,2,1) gives M = 5/4 and
   R = 11/4 exactly, with 22 segments of length file_len/8, in under 1 s;
2. achievable family: endpoints (0,4) and (5,0), monotonicity in r, and 100
   seeded runs at each audited r reproducing the formula exactly, under 30 s;
3. exhaustive correctness: (3,2,1) with r in {0,1,2} and (2,2,1) with r in
   {0..4}; every demand matrix and every realization of the placement and
   delivery randomness decodes every requested file exactly, under 5 min;
4. masked-demand law: at (5,2,2) with observer slots (0,2), the law is
   uniform with mass exactly 1/2880 for each of the three demand families
   and identical across them, under 2 min;
5. end-to-end privacy: at (N,K,L,q,F,r) = (2,2,1,2,4,1) the exact mutual
   information is rational zero, and the derandomized baseline leaks,
   under 10 min;
6. converse and gap: for every (N,K,L) with N <= 8, K <= 4, L <= N, each
   converse line on the lambda grid (step 1/8) and the corner envelope lie
   weakly below the achievable envelope at 101 memory points, and the gap
   certificate never exceeds 6, all in exact arithmetic, under 5 min;
7. decoder equivalence: the structural decoder output equals the reference
   linear-solve decoder output on every decode of criterion 3.
"""

import itertools
import time
from fractions import Fraction

import pytest

from helpers import all_demand_matrices, ramp_library
from privcache import audit, tradeoff
from privcache.scheme import (
    PLAIN_BASELINE,
    SchemeParams,
    block_support,
    decode_user,
    deliver,
    feasible_cover_sets,
    place_caches,
    relabeled_library,
    run_simulation,
    slot_support,
)


def _report(criterion: int, detail: str, elapsed: float, limit: float):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail}; {elapsed:.2f}s < {limit:.0f}s)")
    assert elapsed < limit, f"criterion {criterion} exceeded its runtime budget"


# ---------------------------------------------------------------------------
# Criterion 1: worked example
# ---------------------------------------------------------------------------


def test_criterion_1_worked_example():
    start = time.perf_counter()
    params = SchemeParams(5, 2, 2, r=1)
    trace = run_simulation(params, seed=7)
    assert trace.memory == Fraction(5, 4)
    assert trace.rate == Fraction(11, 4)
    assert trace.broadcast.segment_count == 22
    seg_len = params.file_len // 8
    assert all(len(v) == seg_len for v in trace.broadcast.segments.values())
    assert trace.correct_all
    _report(1, "M=5/4, R=11/4, 22 segments of length F/8", time.perf_counter() - start, 1.0)


# ---------------------------------------------------------------------------
# Criterion 2: achievable family, measured == formula over seeded runs
# ---------------------------------------------------------------------------


def test_criterion_2_achievable_family():
    start = time.perf_counter()
    pts = tradeoff.achievable_points(5, 2, 2)
    assert (pts[0].m, pts[0].rate) == (0, 4)
    assert (pts[-1].m, pts[-1].rate) == (5, 0)
    for a, b in zip(pts, pts[1:]):
        assert a.m <= b.m and a.rate >= b.rate

    # K * min(N, K*L) = 8 bounds the placement parameter: r = 16 must be
    # rejected, and r = 8 is the audited top of range
    with pytest.raises(ValueError):
        SchemeParams(5, 2, 2, r=16)

    by_r = {p.provenance: p for p in pts}
    runs = 0
    for r in (0, 1, 2, 8):
        params = SchemeParams(5, 2, 2, r=r)
        ref = by_r[f"achievable r={r}"]
        for seed in range(100):
            trace = run_simulation(params, seed=seed, decoder="structural")
            assert trace.memory == ref.m
            assert trace.rate == ref.rate
            assert trace.correct_all
            runs += 1
    _report(2, f"{runs} seeded runs match the (M,R) formula exactly", time.perf_counter() - start, 30.0)


# ---------------------------------------------------------------------------
# Criteria 3 and 7: exhaustive correctness and decoder equivalence
# ---------------------------------------------------------------------------


def _exhaustive_instances():
    return [SchemeParams(3, 2, 1, r=r) for r in (0, 1, 2)] + \
           [SchemeParams(2, 2, 1, r=r) for r in range(5)]


def _run_exhaustive(params):
    lib = ramp_library(params.field, params.n_files, params.file_len)
    decodes = 0
    wrong = 0
    mismatches = 0
    mats = list(all_demand_matrices(params))
    for relab in itertools.permutations(range(params.n_files)):
        relabeled = relabeled_library(lib, relab)
        for slots in itertools.product(slot_support(params), repeat=params.n_users):
            caches = place_caches(params, relabeled, slots)
            for demands in mats:
                for cover in feasible_cover_sets(params, demands):
                    fills = [block_support(params, cover, demands[k], slots[k])
                             for k in range(params.n_users)]
                    for blocks in itertools.product(*fills):
                        expanded = tuple(v for b in blocks for v in b)
                        masked = tuple(relab[v] for v in expanded)
                        broadcast = deliver(params, relabeled, masked)
                        for k in range(params.n_users):
                            for l in range(params.demands_per_user):
                                want = lib.rows[demands[k][l]]
                                got = decode_user(l, broadcast, caches[k], "linear")
                                alt = decode_user(l, broadcast, caches[k], "structural")
                                decodes += 1
                                wrong += got != want
                                mismatches += got != alt
    return decodes, wrong, mismatches


@pytest.fixture(scope="module")
def exhaustive_results():
    start = time.perf_counter()
    per_instance = {}
    for params in _exhaustive_instances():
        key = (params.n_files, params.n_users, params.demands_per_user, params.r)
        per_instance[key] = _run_exhaustive(params)
    return per_instance, time.perf_counter() - start


def test_criterion_3_exhaustive_correctness(exhaustive_results):
    per_instance, elapsed = exhaustive_results
    decodes = sum(v[0] for v in per_instance.values())
    wrong = sum(v[1] for v in per_instance.values())
    assert wrong == 0, f"{wrong} incorrect decodes"
    assert decodes > 0
    _report(3, f"{decodes} decodes across {len(per_instance)} instances, all exact", elapsed, 300.0)


def test_criterion_7_decoder_equivalence(exhaustive_results):
    per_instance, elapsed = exhaustive_results
    decodes = sum(v[0] for v in per_instance.values())
    mismatches = sum(v[2] for v in per_instance.values())
    assert mismatches == 0, f"{mismatches} structural/linear mismatches"
    _report(7, f"structural == linear on all {decodes} decodes", elapsed, 300.0)


# ---------------------------------------------------------------------------
# Criterion 4: exact masked-demand law
# ---------------------------------------------------------------------------


def test_criterion_4_masked_demand_law():
    start = time.perf_counter()
    params = SchemeParams(5, 2, 2, r=1)
    families = [((0, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 1), (2, 3))]
    selector = (0, 2)
    mass = audit.closed_form_mass(params)
    assert mass == Fraction(1, 2880)
    laws = []
    for demands in families:
        law = audit.masked_demand_law(params, demands, observer=0, selector=selector)
        assert len(law) == 2880
        assert set(law.values()) == {mass}
        laws.append(law)
    assert laws[0] == laws[1] == laws[2]
    report = audit.verify_law_invariance(params, families, 0, selector)
    assert report.identical and report.max_discrepancy == 0
    _report(4, "uniform law 1/2880 on 2880 vectors, identical across families",
            time.perf_counter() - start, 120.0)


# ---------------------------------------------------------------------------
# Criterion 5: end-to-end privacy by exact mutual information
# ---------------------------------------------------------------------------


def test_criterion_5_exact_mutual_information():
    start = time.perf_counter()
    params = SchemeParams(2, 2, 1, r=1, q=2, packet_size=1)
    assert params.file_len == 4
    real = audit.exact_mutual_information(params, observer=0)
    assert real.conditional_laws_equal
    assert isinstance(real.value, Fraction) and real.value == 0
    baseline = audit.exact_mutual_information(params, observer=0, variant=PLAIN_BASELINE)
    assert not baseline.conditional_laws_equal
    assert float(baseline.value) > 0
    _report(5, f"scheme MI = 0 exactly; derandomized baseline MI = {float(baseline.value):.3f}",
            time.perf_counter() - start, 600.0)


# ---------------------------------------------------------------------------
# Criterion 6: converse dominance and factor-6 gap, full sweep
# ---------------------------------------------------------------------------


def test_criterion_6_converse_and_gap():
    start = time.perf_counter()
    worst = Fraction(0)
    combos = 0
    for n in range(1, 9):
        for k in range(1, 5):
            for big_l in range(1, n + 1):
                dom = tradeoff.verify_envelope_dominance(n, k, big_l, grid_size=101,
                                                         lambda_step=Fraction(1, 8))
                assert dom.ok, f"dominance violated at ({n},{k},{big_l}): {dom.violations[:3]}"
                cert = tradeoff.gap_certificate(n, k, big_l)  # raises above 6
                assert cert.max_ratio <= 6
                worst = max(worst, cert.max_ratio)
                combos += 1
    assert combos == 144
    _report(6, f"144 parameter triples; worst gap ratio {worst} = {float(worst):.4f} <= 6",
            time.perf_counter() - start, 300.0)
