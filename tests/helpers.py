"""Fixtures and oracles the tests share; the program itself never needs them."""

import itertools
import math
from fractions import Fraction
from operator import gt
from typing import Iterable

from privcache import tradeoff
from privcache.exact import Envelope
from privcache.gf import PrimeField
from privcache.tradeoff import DominanceReport, GapCertificate, OptimalityGapError, TradeoffPoint
from privcache.ucc import Library, UccParams


def ramp_library(field: PrimeField, n_files: int, file_len: int) -> Library:
    """Deterministic library; symbols are pairwise distinct when q > n_files * file_len."""
    q = field.q
    return Library(field, tuple(tuple((n * file_len + i + 1) % q for i in range(file_len)) for n in range(n_files)))


def cache_slice_for(params: UccParams, u: int, library: Library,
                    files: Iterable[int]) -> dict[int, dict[int, tuple[int, ...]]]:
    """The subfiles of the given files that user u stores, {label rank:
    subfile}, sliced straight from the library at the ranks of the labels
    holding u."""
    p = params.packet_size
    ranks = [t for t, lab in enumerate(itertools.combinations(range(params.n_users), params.r)) if u in lab]
    return {n: {t: library.rows[n][t * p:(t + 1) * p] for t in ranks} for n in set(files)}


def subset_rank(ground: Iterable, subset: Iterable) -> int:
    """Lexicographic rank of ``subset`` among the |subset|-subsets of ``ground``,
    from the combinatorial number system rather than by enumeration."""
    base = sorted(ground)
    pos = {v: i for i, v in enumerate(base)}
    try:
        idx = sorted(pos[v] for v in subset)
    except KeyError as exc:
        raise ValueError(f"subset element {exc.args[0]!r} not in ground set") from None
    if len(set(idx)) != len(idx):
        raise ValueError("subset has repeated elements")
    n, k = len(base), len(idx)
    rank = 0
    prev = -1
    for i, c in enumerate(idx):
        for v in range(prev + 1, c):
            rank += math.comb(n - v - 1, k - i - 1)
        prev = c
    return rank


def scan_cover_sets(n_files: int, n_active: int, requested: Iterable[int]) -> list[tuple[int, ...]]:
    """Every n_active-subset of [n_files) holding the requested files, by
    scanning all C(n_files, n_active) subsets in lexicographic order."""
    need = set(requested)
    return [cand for cand in itertools.combinations(range(n_files), n_active) if need.issubset(cand)]


# ---------------------------------------------------------------------------
# References for the tradeoff kernel: the achievable points from binomials,
# the dominance check by a full scan of each line, and the converse line, the
# hull and the gap certificate as direct rational formulas
# ---------------------------------------------------------------------------


def comb_achievable_points(n_files: int, n_users: int, demands_per_user: int) -> list[TradeoffPoint]:
    """``tradeoff.achievable_points`` with its five binomials per r computed
    from scratch by ``math.comb``."""
    n_act = tradeoff.active_files(n_files, n_users, demands_per_user)
    kv = n_users * n_act
    out = []
    for r in range(kv + 1):
        denom = math.comb(kv, r)
        m = Fraction((math.comb(kv, r) - math.comb(kv - demands_per_user, r)) * n_files, denom)
        rate = Fraction(math.comb(kv, r + 1) - math.comb(kv - n_act, r + 1), denom)
        out.append(TradeoffPoint(m, rate, f"achievable r={r}"))
    return out


def full_scan_dominance(n_files: int, n_users: int, demands_per_user: int,
                        grid_size: int = 101, lambda_step: Fraction = Fraction(1, 8)) -> DominanceReport:
    """``tradeoff.verify_envelope_dominance`` with every line compared to both
    envelopes at every grid point: the same integer numerators, no bisection."""
    g = grid_size - 1
    ach = tradeoff._envelope_pieces(tradeoff.achievable_envelope(n_files, n_users, demands_per_user), n_files, g)
    low = tradeoff._envelope_pieces(tradeoff.converse_corner_envelope(n_files, n_users, demands_per_user), n_files, g)
    lines = list(tradeoff.converse_terms(n_files, n_users, demands_per_user, lambda_step))
    forms = [tradeoff._grid_form(a, b, e, n_files, g) for *_, a, b, e in lines]
    denom = math.lcm(*(e for *_, e in ach + low + forms))
    ach_at = tradeoff._envelope_numerators(ach, denom)
    low_at = tradeoff._envelope_numerators(low, denom)

    def report(j, value, upper, tag):
        return Fraction(j * n_files, g), Fraction(value, denom), Fraction(upper, denom), tag

    violations = [report(j, lo, up, "corner-envelope") for j, (lo, up) in enumerate(zip(low_at, ach_at)) if lo > up]
    above = []
    for (s, lam, *_), (a, b, e) in zip(lines, forms):
        scale = denom // e
        line_at = tradeoff._numerators(a * scale, b * scale, 0, g + 1)
        if any(map(gt, line_at, ach_at)):
            tag = f"line s={s},lam={lam}"
            violations += [report(j, v, up, tag) for j, (v, up) in enumerate(zip(line_at, ach_at)) if v > up]
        first = next(itertools.compress(itertools.count(), map(gt, line_at, low_at)), None)
        if first is not None:
            above.append((s, lam, Fraction(first * n_files, g)))
    return DominanceReport((g + 1) * (1 + len(lines)), violations, above)


def fraction_converse_line(n_files: int, demands_per_user: int, s: int, lam) -> tuple[int, Fraction, Fraction]:
    """(t, intercept, slope) of the (s, lam) converse line in Fractions: the
    first t in [1, s] with L*(s(s-1) - t(t-1) + 2*lam*s) <= 2*(N - (t-1)L)*t,
    intercept (s - 1 + lam) * L and slope
    -L(2*lam*s + s(s-1) - t(t-1)) / (2(N - L(t-1)))."""
    big_l, lam = demands_per_user, Fraction(lam)
    t = next(t for t in range(1, s + 1)
             if big_l * (s * (s - 1) - t * (t - 1) + 2 * lam * s) <= 2 * (n_files - (t - 1) * big_l) * t)
    slope = -Fraction(big_l) * (2 * lam * s + s * (s - 1) - t * (t - 1)) / (2 * (n_files - big_l * (t - 1)))
    return t, (s - 1 + lam) * big_l, slope


def assert_segment_forms(env: Envelope):
    """Every segment form (a, b, e) of ``env`` has e > 0 and gcd 1, and
    (a + b*x) / e equals y at both breakpoints of its segment."""
    bps = env.breakpoints
    assert len(env.segment_forms) == len(bps) - 1
    for (a, b, e), ends in zip(env.segment_forms, zip(bps, bps[1:])):
        assert e > 0 and math.gcd(a, b, e) == 1
        for x, y in ends:
            assert (a + b * x) / e == y


def _cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def cross_hull(points: Iterable[tuple]) -> tuple[tuple[Fraction, Fraction], ...]:
    """Lower convex hull breakpoints by the monotone chain with Fraction cross
    products: the smallest y at each x, and collinear middles dropped."""
    best: dict[Fraction, Fraction] = {}
    for x, y in points:
        x, y = Fraction(x), Fraction(y)
        best[x] = min(y, best.get(x, y))
    hull: list[tuple[Fraction, Fraction]] = []
    for p in sorted(best.items()):
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return tuple(hull)


def chord_value_at(env: Envelope, x) -> Fraction:
    """``env`` at x by interpolating the chord between the breakpoints around x."""
    x = Fraction(x)
    bps = env.breakpoints
    lo, hi = bps[0][0], bps[-1][0]
    if x < lo or x > hi:
        raise ValueError(f"x={x} outside envelope domain [{lo}, {hi}]")
    i = max(i for i, (x0, _) in enumerate(bps) if x0 <= x)
    if i == len(bps) - 1:
        return bps[-1][1]
    (x0, y0), (x1, y1) = bps[i], bps[i + 1]
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def per_candidate_gap(n_files: int, n_users: int, demands_per_user: int) -> GapCertificate:
    """``tradeoff.gap_certificate`` with both envelopes evaluated per
    candidate memory by ``chord_value_at`` and the ratios as Fractions."""
    ach = tradeoff.achievable_envelope(n_files, n_users, demands_per_user)
    low = tradeoff.converse_corner_envelope(n_files, n_users, demands_per_user)
    candidates = [(Fraction(0), "endpoint M=0")] + [
        (p.m, p.provenance) for p in tradeoff.corner_points(n_files, n_users, demands_per_user)
        if p.provenance != "corner s=1,t=1"]
    best, witness = Fraction(0), candidates[0]
    for m, prov in candidates:
        a, b = chord_value_at(ach, m), chord_value_at(low, m)
        if b == 0:
            if a != 0:
                raise OptimalityGapError(f"lower envelope vanished at M={m} with achievable rate {a}")
            ratio = Fraction(1)
        else:
            ratio = a / b
        if ratio > best:
            best, witness = ratio, (m, prov)
    if best > tradeoff.GAP_FACTOR:
        raise OptimalityGapError(
            f"gap {best} exceeds {tradeoff.GAP_FACTOR} at M={witness[0]} ({witness[1]}) "
            f"for (N,K,L)=({n_files},{n_users},{demands_per_user})")
    return GapCertificate(best, *witness)
