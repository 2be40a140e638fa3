"""Tradeoff tests: achievable points/envelope against a brute-force chord
oracle, converse lines with an inline minimal-t recheck, corner points,
dominance, mutation detection, and gap certificates."""

import math
from fractions import Fraction

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from helpers import (assert_segment_forms, comb_achievable_points, cross_hull, fraction_converse_line,
                     full_scan_dominance, per_candidate_gap, perm_achievable_pairs)
from privcache import exact, tradeoff
from privcache.exact import Envelope, lower_convex_envelope
from privcache.scheme import SchemeParams
from privcache.scheme import run_simulation
from privcache.tradeoff import (
    DominanceReport,
    OptimalityGapError,
    achievable_envelope,
    achievable_points,
    converse_corner_envelope,
    converse_line,
    converse_terms,
    corner_points,
    gap_certificate,
    lambda_grid,
    max_converse_s,
    sweep_triples,
    verify_envelope_dominance,
)


LAMBDA_STEPS = (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 7), Fraction(1, 8))


def chord_oracle(points, m):
    """Brute-force lower-envelope value: the least value at m over all points
    and all chords between point pairs that straddle m."""
    m = Fraction(m)
    best = None
    for (x, y) in points:
        if x == m and (best is None or y < best):
            best = y
    for (x0, y0) in points:
        for (x1, y1) in points:
            if x0 < m < x1:
                v = y0 + (y1 - y0) * (m - x0) / (x1 - x0)
                if best is None or v < best:
                    best = v
    return best


def test_achievable_points_worked_example():
    pts = achievable_points(5, 2, 2)
    assert (pts[1].m, pts[1].rate) == (Fraction(5, 4), Fraction(11, 4))
    assert pts[1].provenance == "achievable r=1"
    assert (pts[0].m, pts[0].rate) == (0, 4)
    assert (pts[-1].m, pts[-1].rate) == (5, 0)
    assert len(pts) == 9


def test_achievable_points_match_binomial_reference():
    for n in range(1, 13):
        for k in range(1, 7):
            for big_l in range(1, n + 1):
                assert achievable_points(n, k, big_l) == comb_achievable_points(n, k, big_l)
    # K * n_active = 4096: binomials of up to 1,232 digits
    assert achievable_points(128, 32, 17) == comb_achievable_points(128, 32, 17)


def test_achievable_points_compute_a_constant_number_of_binomials(monkeypatch):
    real = math.comb
    calls = []

    def counting(n, k):
        calls.append((n, k))
        return real(n, k)

    monkeypatch.setattr(math, "comb", counting)
    assert len(achievable_points(128, 32, 17)) == 32 * 128 + 1
    assert len(calls) <= 5  # from scratch that is five per r: 20,485


def test_achievable_points_monotone():
    for n, k, big_l in ((5, 2, 2), (8, 4, 3), (2, 2, 1), (6, 1, 1)):
        pts = achievable_points(n, k, big_l)
        for a, b in zip(pts, pts[1:]):
            assert a.m <= b.m
            assert a.rate >= b.rate


def test_achievable_envelope_endpoints_and_oracle():
    env = achievable_envelope(5, 2, 2)
    assert env.value_at(0) == 4
    assert env.value_at(5) == 0
    with pytest.raises(ValueError):
        env.value_at(6)
    with pytest.raises(ValueError):
        env.value_at(Fraction(-1, 2))
    pts = [(p.m, p.rate) for p in achievable_points(5, 2, 2)]
    assert env.value_at(Fraction(5, 4)) <= Fraction(11, 4)
    for j in range(21):
        m = Fraction(5 * j, 20)
        assert env.value_at(m) == chord_oracle(pts, m)


def test_achievable_envelope_oracle_sweep():
    for n, k, big_l in ((2, 2, 1), (3, 2, 1), (4, 3, 2), (7, 2, 3)):
        env = achievable_envelope(n, k, big_l)
        pts = [(p.m, p.rate) for p in achievable_points(n, k, big_l)]
        for m in [Fraction(j * n, 40) for j in range(41)]:
            assert env.value_at(m) == chord_oracle(pts, m)


def fraction_point_sets(dims):
    """The Fraction points each envelope is the hull of: every achievable
    point, and every corner point plus the zero-memory point."""
    n_act, big_l = tradeoff.active_files(*dims), dims[2]
    corners = [(p.m, p.rate) for p in corner_points(*dims)] + [(Fraction(0), Fraction(big_l * (n_act // big_l)))]
    return [(p.m, p.rate) for p in achievable_points(*dims)], corners


LARGE_TRIPLES = ((16, 8, 4), (64, 16, 8), (128, 32, 17), (256, 64, 3))


@pytest.mark.parametrize("triples", [sweep_triples((1, 8), (1, 4)), *([dims] for dims in LARGE_TRIPLES)],
                         ids=["certify-144", *("-".join(map(str, dims)) for dims in LARGE_TRIPLES)])
def test_integer_envelopes_equal_the_fraction_hulls(triples):
    for dims in triples:
        ach_pts, low_pts = fraction_point_sets(dims)
        for env, pts in ((achievable_envelope(*dims), ach_pts), (converse_corner_envelope(*dims), low_pts)):
            assert env == lower_convex_envelope(pts)
            assert env.breakpoints == cross_hull(pts)


@pytest.mark.parametrize("triples", [sweep_triples((1, 8), (1, 4)), [(64, 16, 8)], [(128, 32, 17)]],
                         ids=["certify-144", "64-16-8", "128-32-17"])
def test_running_falling_factorials_equal_the_perm_form(triples):
    for dims in triples:
        assert list(tradeoff._achievable_pairs(*dims)) == list(perm_achievable_pairs(*dims))


def test_point_forms_are_reduced():
    for dims in sweep_triples((1, 8), (1, 4)) + list(LARGE_TRIPLES[:2]):
        for *_, m_num, m_den, r_num, r_den in [*tradeoff._achievable_pairs(*dims), *tradeoff._corner_terms(*dims)]:
            assert m_den > 0 and r_den > 0 and math.gcd(m_num, m_den) == 1 and math.gcd(r_num, r_den) == 1


def test_corner_points_match_the_fraction_formula():
    # corner (s, t) is ((N - L(t-1)) / s, L((s-1)/2 + t(t-1)/(2s)))
    for n, k, big_l in sweep_triples((1, 12), (1, 6)):
        expected = [(Fraction(n - big_l * (t - 1), s), big_l * (Fraction(s - 1, 2) + Fraction(t * (t - 1), 2 * s)))
                    for s in range(1, max_converse_s(n, k, big_l) + 1) for t in range(1, s + 1)]
        assert [(p.m, p.rate) for p in corner_points(n, k, big_l)] == expected


@pytest.mark.parametrize("dims", [(8, 4, 2), (16, 8, 4)])
def test_achievable_envelope_builds_fractions_only_on_read(monkeypatch, dims):
    # the hull keeps its breakpoints as integers: no Fraction is built until
    # a caller reads ``breakpoints``, and then two per kept breakpoint
    points = len(achievable_points(*dims))
    real, built = Fraction, []

    def counting(*args):
        built.append(args)
        return real(*args)

    for module in (tradeoff, exact):
        monkeypatch.setattr(module, "Fraction", counting)
    achievable_envelope.cache_clear()
    try:
        env = achievable_envelope(*dims)
    finally:
        achievable_envelope.cache_clear()
    assert built == []
    assert len(env.xs) < points
    assert len(env.breakpoints) == len(env.xs) and len(built) == 2 * len(env.xs)


def test_lambda_grid_is_built_once_per_step():
    # the grid depends on the step alone and is immutable, so a sweep shares one
    grid = lambda_grid(Fraction(1, 8))
    assert type(grid) is tuple and lambda_grid(Fraction(2, 16)) is grid


def fraction_terms(t, a, b, e):
    """(t, intercept, slope) of the converse line with terms (t, a, b, e)."""
    return t, Fraction(a, e), Fraction(b, e)


def test_converse_line_s1_lambda1():
    for n, k, big_l in ((5, 2, 2), (7, 3, 2), (4, 4, 1)):
        assert fraction_terms(*converse_line(n, k, big_l, 1, 1)) == (1, big_l, Fraction(-big_l, n))


def test_converse_line_s1_lambda0_is_trivial():
    assert converse_line(5, 2, 2, 1, 0) == (1, 0, 0, 1)


def test_converse_line_range_checks():
    assert max_converse_s(5, 2, 2) == 2
    with pytest.raises(ValueError):
        converse_line(5, 2, 2, 3, Fraction(1, 2))
    with pytest.raises(ValueError):
        converse_line(5, 2, 2, 0, 0)
    with pytest.raises(ValueError):
        converse_line(5, 2, 2, 1, Fraction(9, 8))


def test_converse_line_matches_fraction_formula():
    # K = N leaves s_max = N // L, every s the line family can take
    lams = sorted({lam for step in LAMBDA_STEPS for lam in lambda_grid(step)})
    checked = 0
    for n in range(1, 11):
        for big_l in range(1, n + 1):
            for s in range(1, max_converse_s(n, n, big_l) + 1):
                for lam in lams:
                    expected = fraction_converse_line(n, big_l, s, lam)
                    assert fraction_terms(*converse_line(n, n, big_l, s, lam)) == expected
                    checked += 1
    assert checked == len(lams) * sum(n // big_l for n in range(1, 11) for big_l in range(1, n + 1))


def test_converse_terms_match_fraction_formula_in_order():
    for dims, step in (((8, 4, 2), Fraction(1, 3)), ((7, 2, 1), Fraction(2, 7)), ((1, 1, 1), Fraction(1))):
        terms = list(converse_terms(*dims, step))
        assert [(s, lam) for s, lam, *_ in terms] == [
            (s, lam) for s in range(1, max_converse_s(*dims) + 1) for lam in lambda_grid(step)]
        for s, lam, *form in terms:
            assert fraction_terms(*form) == fraction_converse_line(dims[0], dims[2], s, lam)


def test_converse_terms_t_equals_min_feasible_t():
    # one upward scan of t per s gives the minimal t of every lambda
    checked = 0
    for n in range(1, 11):
        for big_l in range(1, n + 1):
            for step in LAMBDA_STEPS:
                for s, lam, t, *_ in converse_terms(n, n, big_l, step):
                    scanned = tradeoff._line_form(n, big_l, s, lam)[0]
                    assert t == scanned == fraction_converse_line(n, big_l, s, lam)[0]
                    checked += 1
    per_s = sum(len(lambda_grid(step)) for step in LAMBDA_STEPS)
    assert checked == per_s * sum(n // big_l for n in range(1, 11) for big_l in range(1, n + 1))


def test_min_feasible_t_is_minimal_and_t_equals_s_feasible():
    for n in range(1, 9):
        for k in range(1, 5):
            for big_l in range(1, n + 1):
                for s in range(1, max_converse_s(n, k, big_l) + 1):
                    for lam in lambda_grid(Fraction(1, 4)):
                        def feasible(tt):
                            lhs = big_l * (s * (s - 1) - tt * (tt - 1) + 2 * lam * s)
                            return lhs <= 2 * (n - (tt - 1) * big_l) * tt

                        scanned = tradeoff._line_form(n, big_l, s, lam)[0]
                        for t in (scanned, fraction_converse_line(n, big_l, s, lam)[0]):
                            assert 1 <= t <= s
                            assert feasible(t)
                            assert all(not feasible(tt) for tt in range(1, t))
                        assert feasible(s)


def test_corner_points_values():
    pts = {p.provenance: (p.m, p.rate) for p in corner_points(5, 2, 2)}
    assert pts["corner s=1,t=1"] == (5, 0)
    assert pts["corner s=2,t=1"] == (Fraction(5, 2), 1)  # ((5-0)/2, 2*(1/2 + 0))
    assert pts["corner s=2,t=2"] == (Fraction(3, 2), 2)  # ((5-2)/2, 2*(1/2 + 2/4))


def test_corner_envelope_zero_memory_value():
    for n, k, big_l in ((5, 2, 2), (8, 4, 3), (3, 2, 2)):
        env = converse_corner_envelope(n, k, big_l)
        n_act = min(n, k * big_l)
        assert env.value_at(0) == big_l * (n_act // big_l)


def test_dominance_worked_example():
    rep = verify_envelope_dominance(5, 2, 2)
    assert rep.ok and not rep.violations


def test_dominance_small_instance_full_range():
    rep = verify_envelope_dominance(2, 2, 1)
    assert rep.ok


def per_point_dominance(n, k, big_l, grid_size=101, lambda_step=Fraction(1, 8)):
    """Reference dominance check: both envelopes re-evaluated for every
    (line, M) pair, with the (s, lambda) loops written out."""
    ach = tradeoff.achievable_envelope(n, k, big_l)
    low = tradeoff.converse_corner_envelope(n, k, big_l)
    grid = [Fraction(j * n, grid_size - 1) for j in range(grid_size)]
    violations = [(m, low.value_at(m), ach.value_at(m), "corner-envelope")
                  for m in grid if low.value_at(m) > ach.value_at(m)]
    above = []
    n_lines = 0
    for s in range(1, max_converse_s(n, k, big_l) + 1):
        for lam in lambda_grid(lambda_step):
            _, a, b, e = converse_line(n, k, big_l, s, lam)
            n_lines += 1
            first = None
            for m in grid:
                v = (a + b * m) / e
                if v > ach.value_at(m):
                    violations.append((m, v, ach.value_at(m), f"line s={s},lam={lam}"))
                if first is None and v > low.value_at(m):
                    first = m
            if first is not None:
                above.append((s, lam, first))
    return DominanceReport(len(grid) * (1 + n_lines), violations, above)


def test_dominance_mutation_detected(monkeypatch):
    # halving one achievable rate and lowering the corner envelope by a
    # quarter exercises every branch: corner violations, line violations and
    # lines rising above the corner envelope
    pts = [(p.m, p.rate) for p in achievable_points(5, 2, 2)]
    broken_upper = lower_convex_envelope((m, r / 2 if r == 4 else r) for m, r in pts)
    lowered = lower_convex_envelope((m, r * Fraction(3, 4)) for m, r in converse_corner_envelope(5, 2, 2).breakpoints)
    monkeypatch.setattr(tradeoff, "achievable_envelope", lambda *dims: broken_upper)
    monkeypatch.setattr(tradeoff, "converse_corner_envelope", lambda *dims: lowered)
    rep = verify_envelope_dominance(5, 2, 2)
    assert not rep.ok
    assert any(tag == "corner-envelope" for *_, tag in rep.violations)
    assert any(tag.startswith("line s=") for *_, tag in rep.violations)
    assert rep.lines_above_corner_envelope
    assert rep == per_point_dominance(5, 2, 2)


@pytest.mark.parametrize("dims, grid_size, lambda_step", [
    ((5, 2, 2), 101, Fraction(1, 8)),
    ((8, 4, 3), 41, Fraction(1, 3)),
    ((3, 3, 1), 11, Fraction(1, 2)),
])
def test_dominance_matches_per_point_reference(dims, grid_size, lambda_step):
    assert verify_envelope_dominance(*dims, grid_size, lambda_step) == per_point_dominance(*dims, grid_size, lambda_step)


def test_dominance_matches_full_scan_on_every_triple():
    for dims in sweep_triples((1, 8), (1, 4)):
        assert verify_envelope_dominance(*dims) == full_scan_dominance(*dims)


def test_segment_forms_of_both_envelopes_on_every_triple():
    triples = sweep_triples((1, 8), (1, 4))
    assert len(triples) == 144
    for dims in triples:
        for env in (achievable_envelope(*dims), converse_corner_envelope(*dims)):
            assert_segment_forms(env)


def pieces_without_grid_points(env, n_files, grid_size):
    """How many segments of ``env`` hold no point of the grid: a segment
    holds the grid points after the previous segment's last one up to the
    last point at or before its right end."""
    g = grid_size - 1
    empty, start = 0, 0
    for x1, _ in env.breakpoints[1:]:
        last = min(g, math.floor(x1 * g / n_files))
        if last < start:
            empty += 1
        start = max(start, last + 1)
    return empty


@pytest.mark.parametrize("grid_size", [2, 3, 5, 11])
def test_dominance_with_pieces_holding_no_grid_point(monkeypatch, grid_size):
    # the achievable envelope of (8, 4, 2) has more segments than a coarse
    # grid has intervals; scaled by 3/4 it falls below the corner envelope
    # and the lines
    env = achievable_envelope(8, 4, 2)
    assert pieces_without_grid_points(env, 8, grid_size) > 0
    for ach in (env, lower_convex_envelope((m, r * Fraction(3, 4)) for m, r in env.breakpoints)):
        monkeypatch.setattr(tradeoff, "achievable_envelope", lambda *_, ach=ach: ach)
        kernel = verify_envelope_dominance(8, 4, 2, grid_size)
        assert kernel == full_scan_dominance(8, 4, 2, grid_size) == per_point_dominance(8, 4, 2, grid_size)
        assert kernel.ok == (ach is env)


def test_dominance_makes_no_per_point_evaluations(monkeypatch):
    calls = []
    value_at = Envelope.value_at

    def counting(self, x):
        calls.append(x)
        return value_at(self, x)

    monkeypatch.setattr(Envelope, "value_at", counting)
    rep = verify_envelope_dominance(5, 2, 2)
    assert calls == []
    assert rep.checked_points == 101 * (1 + 9 * max_converse_s(5, 2, 2)) == 1919


@st.composite
def dominance_cases(draw):
    """A triple, a grid and a lambda step, and both envelopes, each either
    the real one or re-hulled from its rates scaled by factors in [1/2, 3/2]
    (enough to produce violations and lines above the corner envelope)."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, 4))
    big_l = draw(st.integers(1, n))
    factor = st.fractions(Fraction(1, 2), Fraction(3, 2), max_denominator=12)
    ach = achievable_envelope(n, k, big_l)
    if draw(st.booleans()):
        ach = lower_convex_envelope((p.m, p.rate * draw(factor)) for p in achievable_points(n, k, big_l))
    low = converse_corner_envelope(n, k, big_l)
    if draw(st.booleans()):
        low = lower_convex_envelope((m, r * draw(factor)) for m, r in low.breakpoints)
    return (n, k, big_l), draw(st.integers(2, 101)), draw(st.sampled_from(LAMBDA_STEPS)), ach, low


def dominance_pair(case):
    """The kernel's report and the per-point reference's on ``case``, after
    checking that the full-scan reference gives the kernel's report."""
    dims, grid_size, lambda_step, ach, low = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tradeoff, "achievable_envelope", lambda *_: ach)
        patch.setattr(tradeoff, "converse_corner_envelope", lambda *_: low)
        kernel = verify_envelope_dominance(*dims, grid_size, lambda_step)
        assert kernel == full_scan_dominance(*dims, grid_size, lambda_step)
        return kernel, per_point_dominance(*dims, grid_size, lambda_step)


@settings(max_examples=150, deadline=None)
@given(dominance_cases())
def test_dominance_kernel_matches_per_point_oracle(case):
    kernel, reference = dominance_pair(case)
    assert kernel == reference


@pytest.mark.parametrize("dims, grid_size, lambda_step", [
    ((5, 2, 2), 101, Fraction(1, 8)),
    ((8, 4, 3), 41, Fraction(1, 3)),
    ((3, 3, 1), 11, Fraction(1, 2)),
])
def test_dominance_builds_no_converse_line(monkeypatch, dims, grid_size, lambda_step):
    # the check reads the lines from one ``converse_terms`` pass, never line by line
    expected = verify_envelope_dominance(*dims, grid_size, lambda_step)

    def forbidden(*args, **kwargs):
        raise AssertionError("the dominance check called converse_line")

    monkeypatch.setattr(tradeoff, "converse_line", forbidden)
    assert verify_envelope_dominance(*dims, grid_size, lambda_step) == expected


@pytest.mark.parametrize("branch", ["violations", "lines_above_corner_envelope"])
def test_dominance_cases_reach_every_branch(branch):
    # the oracle test above is only as strong as its cases: perturbed
    # envelopes must reach both kinds of report entry
    case = find(dominance_cases(), lambda c: getattr(dominance_pair(c)[0], branch),
                settings=settings(max_examples=2000, database=None))
    kernel, reference = dominance_pair(case)
    assert getattr(kernel, branch) and kernel == reference


@pytest.mark.parametrize("short_end", ["left", "right"])
def test_dominance_rejects_envelope_short_of_the_grid(monkeypatch, short_end):
    env = converse_corner_envelope(5, 2, 2)
    cut = slice(1, None) if short_end == "left" else slice(None, -1)
    short = lower_convex_envelope(env.breakpoints[cut])
    assert short.breakpoints == env.breakpoints[cut]
    monkeypatch.setattr(tradeoff, "converse_corner_envelope", lambda *dims: short)
    with pytest.raises(ValueError, match="outside envelope domain") as kernel:
        verify_envelope_dominance(5, 2, 2)
    with pytest.raises(ValueError) as reference:
        per_point_dominance(5, 2, 2)
    assert str(kernel.value) == str(reference.value)


def test_dominance_walks_envelopes_wider_than_the_grid(monkeypatch):
    # breakpoints beyond [0, N] on both sides leave pieces that hold no grid
    # point, the last one after a piece that already reaches the grid's end
    for name in ("converse_corner_envelope", "achievable_envelope"):
        env = getattr(tradeoff, name)(5, 2, 2)
        (x0, y0), (x1, y1) = env.breakpoints[0], env.breakpoints[-1]
        first, *_, last = (Fraction(b, e) for _, b, e in env.segment_forms)
        wide = lower_convex_envelope(((x0 - 1, y0 - first + 1), *env.breakpoints, (x1 + 1, y1 + last + 1)))
        assert wide.breakpoints[1:-1] == env.breakpoints
        monkeypatch.setattr(tradeoff, name, lambda *dims, wide=wide: wide)
        for grid_size in (2, 11, 101):
            kernel = verify_envelope_dominance(5, 2, 2, grid_size)
            assert kernel == per_point_dominance(5, 2, 2, grid_size) == full_scan_dominance(5, 2, 2, grid_size)


@pytest.mark.parametrize("lambda_step", [Fraction(1, 8), Fraction(1, 64)])
def test_every_converse_line_meets_its_corner_under_the_corner_envelope(lambda_step):
    # a line is linear and the envelope piecewise linear over [0, N], so a line
    # at or below it at every breakpoint is at or below it everywhere
    triples = sweep_triples((1, 8), (1, 4))
    assert len(triples) == 144
    for n, k, big_l in triples:
        bps = converse_corner_envelope(n, k, big_l).breakpoints
        assert (bps[0][0], bps[-1][0]) == (0, n)
        for s, lam, t, a, b, e in converse_terms(n, k, big_l, lambda_step):
            corner = Fraction(n - big_l * (t - 1), s)
            assert (a + b * corner) / e == Fraction(big_l * (s * (s - 1) + t * (t - 1)), 2 * s), (n, k, big_l, s, lam)
            assert all((a + b * m) / e <= r for m, r in bps), (n, k, big_l, s, lam)


def test_converse_lies_at_or_below_l_rounds_of_yma():
    """The converse is checked as a lower bound against a non-private scheme:
    L rounds of the leader-based delivery of Yu, Maddah-Ali & Avestimehr
    ("The exact rate-memory tradeoff for caching with uncoded prefetching",
    IEEE T-IT 2018) over one uncoded placement serve any L demands per user
    at rate L * R_YMA, with R_YMA(tN/K) = (C(K, t+1) - C(K - min(N, K), t+1))
    / C(K, t) at t in [0, K] and its lower convex envelope between.  Both
    envelopes are piecewise linear on [0, N], so the corner envelope lies
    at or below L * R_YMA everywhere iff it does at every merged breakpoint,
    compared here in integers, over all 1,088 triples with N <= 16, K <= 8
    and L <= N."""
    triples = sweep_triples((1, 16), (1, 8))
    assert len(triples) == 1088
    for n, k, big_l in triples:
        low = converse_corner_envelope(n, k, big_l)
        yma = Envelope([(t * n, k, big_l * (math.comb(k, t + 1) - math.comb(k - min(n, k), t + 1)), math.comb(k, t))
                        for t in range(k + 1)])
        assert (low.domain, yma.domain) == ((0, n), (0, n))
        for x in {Fraction(x, env.x_den) for env in (low, yma) for x in env.xs}:
            lo_num, lo_den = low.value_terms(x.numerator, x.denominator)
            up_num, up_den = yma.value_terms(x.numerator, x.denominator)
            assert lo_num * up_den <= up_num * lo_den, (n, k, big_l, x)


def test_converse_terms_order_and_count():
    terms = list(converse_terms(5, 2, 2, Fraction(1, 2)))
    assert [(s, lam) for s, lam, *_ in terms] == [
        (s, lam) for s in (1, 2) for lam in (0, Fraction(1, 2), 1)]
    assert tuple(terms[4][2:]) == converse_line(5, 2, 2, 2, Fraction(1, 2))


def gap_outcome(certify, dims):
    """``certify(*dims)``, or the type and message of the gap error it raises."""
    try:
        return certify(*dims)
    except OptimalityGapError as exc:
        return type(exc), str(exc)


def test_gap_certificate_matches_per_candidate_reference_on_every_triple():
    for dims in sweep_triples((1, 8), (1, 4)):
        assert gap_certificate(*dims) == per_candidate_gap(*dims)


@settings(max_examples=150, deadline=None)
@given(dominance_cases())
def test_gap_certificate_matches_per_candidate_reference_on_perturbed_envelopes(case):
    dims, _, _, ach, low = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tradeoff, "achievable_envelope", lambda *_: ach)
        patch.setattr(tradeoff, "converse_corner_envelope", lambda *_: low)
        assert gap_outcome(gap_certificate, dims) == gap_outcome(per_candidate_gap, dims)


@pytest.mark.parametrize("scale, message", [(Fraction(1, 10), "exceeds 6"), (Fraction(0), "lower envelope vanished")])
def test_gap_certificate_errors_match_per_candidate_reference(monkeypatch, scale, message):
    # a lower envelope scaled far down breaks the factor-6 bound; scaled to zero it vanishes
    low = converse_corner_envelope(8, 4, 2)
    monkeypatch.setattr(tradeoff, "converse_corner_envelope",
                        lambda *_: lower_convex_envelope((m, r * scale) for m, r in low.breakpoints))
    kernel = gap_outcome(gap_certificate, (8, 4, 2))
    assert kernel == gap_outcome(per_candidate_gap, (8, 4, 2))
    assert kernel[0] is OptimalityGapError and message in kernel[1]


def test_gap_certificate_raises_when_both_envelopes_vanish(monkeypatch):
    # a real corner envelope is positive at every audited M, so a zero there is an error
    for name in ("achievable_envelope", "converse_corner_envelope"):
        env = getattr(tradeoff, name)(8, 4, 2)
        zero = lower_convex_envelope((m, 0 * r) for m, r in env.breakpoints)
        monkeypatch.setattr(tradeoff, name, lambda *_, zero=zero: zero)
    kernel = gap_outcome(gap_certificate, (8, 4, 2))
    assert kernel == gap_outcome(per_candidate_gap, (8, 4, 2))
    assert kernel == (OptimalityGapError, "lower envelope vanished at M=0 with achievable rate 0")


def test_gap_certificate_worked_example():
    cert = gap_certificate(5, 2, 2)
    assert cert.max_ratio <= tradeoff.GAP_FACTOR
    assert 1 <= cert.max_ratio <= 6


def test_gap_zero_memory_ratio_one_when_files_dominate():
    # N >= K*L: achievable(0) = K*L equals the lower envelope endpoint
    cert = gap_certificate(8, 2, 2)
    ach = achievable_envelope(8, 2, 2)
    low = converse_corner_envelope(8, 2, 2)
    assert ach.value_at(0) == 4 and low.value_at(0) == 4


def test_gap_zero_memory_ratio_at_most_two_when_users_dominate():
    for n, k, big_l in ((3, 2, 2), (2, 4, 1), (5, 4, 2)):
        ach = achievable_envelope(n, k, big_l)
        low = converse_corner_envelope(n, k, big_l)
        assert ach.value_at(0) <= 2 * low.value_at(0)


def test_gap_degenerate_single_user():
    cert = gap_certificate(2, 1, 1)
    assert cert.max_ratio <= tradeoff.GAP_FACTOR
    assert cert.max_ratio >= 1


def test_measured_scheme_points_match_achievable_curve():
    pts = {p.provenance: p for p in achievable_points(5, 2, 2)}
    for r in (0, 1, 2, 8):
        tr = run_simulation(SchemeParams(5, 2, 2, r=r), seed=100 + r, decoder="structural")
        ref = pts[f"achievable r={r}"]
        assert tr.memory == ref.m
        assert tr.rate == ref.rate
