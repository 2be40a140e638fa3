"""Exact memory-rate tradeoff computations and the optimality-gap certificate.

Achievable side: the scheme's (M, R) pairs for every placement knob r, and
their lower convex envelope (memory sharing).  Converse side: a family of
linear bounds indexed by (s, lambda) with a minimal auxiliary index t, and
the corner-point envelope they generate, built from the points
((N - L(t-1))/s, L((s-1)/2 + t(t-1)/(2s))) together with (0, L*floor(n_active/L)).

Points, envelopes and lines are exact rationals, and the ``gap`` op is
decided in integers; Fractions are built only where a result holds one.
The achievable points are one closed form in falling factorials per r, and
both they and the corner points are made as reduced integer pairs
(``_achievable_pairs``, ``_corner_terms``); ``Envelope``, the one hull,
runs on those integers and keeps them, over one least denominator per axis,
as the envelope's breakpoints.
``achievable_points``, ``corner_points`` and ``Envelope.breakpoints`` give
the same values as Fractions for the ``tradeoff`` CSV.
Every line the op compares has one integer form, R = (a + b * M) / e with
e > 0 and gcd(a, b, e) = 1: an envelope segment's form is
``Envelope.segment_forms``, and a converse line's comes from
``_line_form``, the one search for the minimal t, which ``converse_line``
runs from t = 1 and ``converse_terms``, the one (s, lambda) enumerator,
runs upward once per s; a line is held only as its terms (t, a, b, e).
The grid check scales each form to the memory grid
M_j = j * N / g as (a*g + b*N * j) / (e*g), drops the envelope segments
that hold no grid point, and puts the rest over one positive common
denominator, so a comparison of two curves is a comparison of integer
numerators.  A line is compared with a convex envelope at the one grid
point where it rises highest above it, found by bisection.  The corner
points are built once per triple and shared by the corner envelope and the
certificate.  The certificate reads each audited memory as an integer pair,
evaluates both envelopes there as integer pairs (``Envelope.value_terms``)
and compares the ratios by cross-multiplying; it confirms that the
achievable envelope is within a factor of 6 of the corner-point lower
envelope at every audited memory point.  A returned ``GapCertificate`` holds the largest ratio and the
memory and provenance of its witness; a ratio above the factor raises
``OptimalityGapError`` instead.

The instance rules have one owner each, read here and defined elsewhere:
``scheme.validate_dims`` checks (N, K, L) and ``scheme.active_files`` gives
n_active, and an envelope short of the memory grid raises
``Envelope.value_terms``' own domain error.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import sub
from typing import Iterator

from .exact import Envelope
from .scheme import active_files, validate_dims

GAP_FACTOR = 6


class OptimalityGapError(RuntimeError):
    """The certified gap bound failed; indicates an implementation bug."""


@dataclass(frozen=True)
class TradeoffPoint:
    m: Fraction
    rate: Fraction
    provenance: str


def _achievable_pairs(n_files: int, n_users: int, demands_per_user: int) -> Iterator[tuple[int, int, int, int]]:
    """The scheme's exact (M, R) for r = 0, 1, ..., KV, KV = K * n_active, as
    reduced integer terms (M_num, M_den, R_num, R_den):
    M = N (C(KV, r) - C(KV - L, r)) / C(KV, r) and
    R = (C(KV, r + 1) - C(KV - n_active, r + 1)) / C(KV, r).

    With (x)_m the falling factorial, C(KV - m, r) / C(KV, r) = (KV - r)_m / (KV)_m,
    so M = N ((KV)_L - (KV - r)_L) / (KV)_L and
    R = (KV - r) ((KV)_a - (KV - r - 1)_a) / ((r + 1) (KV)_a), a = n_active;
    at r = KV the factor KV - r is 0 and KV - r - 1 is clamped to 0.  Each
    pair is reduced by one gcd: the hull's cross products then multiply
    reduced numbers, which at large K are far shorter than the forms over
    (KV)_L and (r + 1) (KV)_a.

    With x = KV - r, both falling factorials follow x down by one exact
    division each: (x - 1)_L = (x)_L (x - L) / x and
    (x - 2)_a = (x - 1)_a (x - 1 - a) / (x - 1).  Neither moves past x = 0,
    nor past the clamp at x - 1 = 0."""
    validate_dims(n_files, n_users, demands_per_user)
    n_act = active_files(n_files, n_users, demands_per_user)
    kv = n_users * n_act
    top_l, top_a = math.perm(kv, demands_per_user), math.perm(kv, n_act)
    fall_l, fall_a = top_l, math.perm(max(kv - 1, 0), n_act)  # (x)_L and (max(x - 1, 0))_a at x = KV
    for r in range(kv + 1):
        x = kv - r
        m_num = n_files * (top_l - fall_l)
        r_num, r_den = x * (top_a - fall_a), (r + 1) * top_a
        g, h = math.gcd(m_num, top_l), math.gcd(r_num, r_den)
        yield m_num // g, top_l // g, r_num // h, r_den // h
        if x > 0:
            fall_l = fall_l * (x - demands_per_user) // x
        if x > 1:
            fall_a = fall_a * (x - 1 - n_act) // (x - 1)


def achievable_points(n_files: int, n_users: int, demands_per_user: int) -> list[TradeoffPoint]:
    """The scheme's exact (M, R) pair for every r in [0, K * n_active]."""
    return [TradeoffPoint(Fraction(m_num, m_den), Fraction(r_num, r_den), f"achievable r={r}")
            for r, (m_num, m_den, r_num, r_den) in enumerate(_achievable_pairs(n_files, n_users, demands_per_user))]


# The envelope and corner builders keep their last result: the dominance
# check and the gap certificate of one (N, K, L) triple share one build of
# each (``Envelope`` is frozen and the corners are a tuple, so sharing is safe).
@lru_cache(maxsize=1)
def achievable_envelope(n_files: int, n_users: int, demands_per_user: int) -> Envelope:
    return Envelope(list(_achievable_pairs(n_files, n_users, demands_per_user)))


# ---------------------------------------------------------------------------
# Converse bounds
# ---------------------------------------------------------------------------


def max_converse_s(n_files: int, n_users: int, demands_per_user: int) -> int:
    return min(n_files // demands_per_user, n_users)


# The grid depends on the step alone, so a sweep builds its Fractions once.
@lru_cache(maxsize=1)
def lambda_grid(step: Fraction = Fraction(1, 8)) -> tuple[Fraction, ...]:
    step = Fraction(step)
    if not 0 < step <= 1:
        raise ValueError("lambda step must lie in (0, 1]")
    # the multiples k * step below 1, then 1
    p, q = step.numerator, step.denominator
    return (*(Fraction(k * p, q) for k in range(-(-q // p))), Fraction(1))


def _line_form(n_files: int, big_l: int, s: int, lam: Fraction, t: int = 1) -> tuple[int, int, int, int]:
    """(t, a, b, e) of the (s, lam) converse line R = (a + b*M) / e, e > 0
    and gcd(a, b, e) = 1: its intercept is L(s - 1 + lam) and its slope
    -L(2*lam*s + s(s-1) - t(t-1)) / (2(N - L(t-1))), where t is the first
    index from the given one up that satisfies the feasibility inequality
    L*(s(s-1) - t(t-1) + 2*lam*s) <= 2*(N - (t-1)L)*t, decided times q for
    lam = p/q; t = s always satisfies it (for s <= N // L and lam <= 1).
    The one t-scan."""
    p, q = lam.numerator, lam.denominator
    while t < s and big_l * (q * (s * (s - 1) - t * (t - 1)) + 2 * p * s) > 2 * q * (n_files - (t - 1) * big_l) * t:
        t += 1
    run = 2 * (n_files - big_l * (t - 1))
    a, b, e = big_l * ((s - 1) * q + p) * run, -big_l * (2 * p * s + q * (s * (s - 1) - t * (t - 1))), q * run
    k = math.gcd(a, b, e)
    return t, a // k, b // k, e // k


def converse_terms(n_files: int, n_users: int, demands_per_user: int,
                   lambda_step: Fraction) -> Iterator[tuple[int, Fraction, int, int, int, int]]:
    """(s, lam, t, a, b, e) of every converse line (see ``_line_form``):
    s in [1, s_max] and, for each s, lam on ``lambda_grid(lambda_step)``, in
    that order.  The one (s, lambda) enumerator.

    The inequality's left side grows with lam, so t is feasible iff lam is
    at most some lam_t: the minimal t never decreases along the increasing
    lambda grid, and each lam's scan starts at the previous lam's t."""
    lams = lambda_grid(lambda_step)
    for s in range(1, max_converse_s(n_files, n_users, demands_per_user) + 1):
        t = 1
        for lam in lams:
            t, a, b, e = _line_form(n_files, demands_per_user, s, lam, t)
            yield s, lam, t, a, b, e


def converse_line(n_files: int, n_users: int, demands_per_user: int, s: int, lam) -> tuple[int, int, int, int]:
    """(t, a, b, e) of the (s, lam) converse line (see ``_line_form``), with
    s and lam range-checked."""
    validate_dims(n_files, n_users, demands_per_user)
    lam = Fraction(lam)
    s_max = max_converse_s(n_files, n_users, demands_per_user)
    if not 1 <= s <= s_max:
        raise ValueError(f"s={s} outside [1, {s_max}]")
    if not 0 <= lam <= 1:
        raise ValueError(f"lambda={lam} outside [0, 1]")
    return _line_form(n_files, demands_per_user, s, lam)


@lru_cache(maxsize=1)
def _corner_terms(n_files: int, n_users: int, demands_per_user: int) -> tuple[tuple[int, ...], ...]:
    """(s, t, M_num, M_den, R_num, R_den) of every anchor point of the
    converse envelope, s in [1, s_max] and t in [1, s]: the corner
    ((N - L(t-1)) / s, L(s(s-1) + t(t-1)) / (2s)), each coordinate reduced."""
    validate_dims(n_files, n_users, demands_per_user)
    big_l = demands_per_user
    out = []
    for s in range(1, max_converse_s(n_files, n_users, demands_per_user) + 1):
        for t in range(1, s + 1):
            m_num, r_num = n_files - big_l * (t - 1), big_l * (s * (s - 1) + t * (t - 1))
            g, h = math.gcd(m_num, s), math.gcd(r_num, 2 * s)
            out.append((s, t, m_num // g, s // g, r_num // h, 2 * s // h))
    return tuple(out)


def corner_points(n_files: int, n_users: int, demands_per_user: int) -> tuple[TradeoffPoint, ...]:
    """Anchor points of the converse envelope over s in [1, s_max], t in [1, s]."""
    return tuple(TradeoffPoint(Fraction(m_num, m_den), Fraction(r_num, r_den), f"corner s={s},t={t}")
                 for s, t, m_num, m_den, r_num, r_den in _corner_terms(n_files, n_users, demands_per_user))


@lru_cache(maxsize=1)
def converse_corner_envelope(n_files: int, n_users: int, demands_per_user: int) -> Envelope:
    """Lower convex envelope of the corner points plus the zero-memory point
    (0, L * floor(n_active / L)); a certified lower bound on the optimal rate."""
    n_act = active_files(n_files, n_users, demands_per_user)
    pts = [terms for _, _, *terms in _corner_terms(n_files, n_users, demands_per_user)]
    pts.append((0, 1, demands_per_user * (n_act // demands_per_user), 1))
    return Envelope(pts)


# ---------------------------------------------------------------------------
# Dominance and gap certificates
# ---------------------------------------------------------------------------


@dataclass
class DominanceReport:
    checked_points: int
    violations: list[tuple]
    lines_above_corner_envelope: list[tuple]

    @property
    def ok(self) -> bool:
        return not self.violations


def _numerators(a: int, b: int, start: int, stop: int):
    """a + b * j for j in [start, stop)."""
    return range(a + b * start, a + b * stop, b) if b else [a] * (stop - start)


def _grid_form(a: int, b: int, e: int, n_files: int, g: int) -> tuple[int, int, int]:
    """The line (a + b*M) / e on the grid M = j * N / g: (a*g + b*N * j) / (e*g),
    reduced by one gcd."""
    a, b, e = a * g, b * n_files, e * g
    k = math.gcd(a, b, e)
    return a // k, b // k, e // k


def _envelope_pieces(env: Envelope, n_files: int, g: int) -> list[tuple[int, int, int, int]]:
    """(last grid index, a, b, e) per segment of ``env`` that holds a grid
    point, in order: the segment holds the grid points after the previous
    piece's last index up to its own, where the envelope equals
    (a + b * j) / e, its segment form scaled to the grid.  A segment that
    holds no grid point is left out, so its denominator never reaches the
    common one.  A domain that does not cover [0, n_files] raises
    ``Envelope.value_terms``' own ValueError at the first grid point outside
    it."""
    d, xs = env.x_den, env.xs
    if xs[0] > 0 or xs[-1] < n_files * d:
        j = 0 if xs[0] > 0 else max(0, xs[-1] * g // (d * n_files) + 1)
        env.value_terms(j * n_files, g)  # x = j * N / g lies outside the domain, so this raises
    pieces = []
    start = 0
    for x1, form in zip(xs[1:], env.segment_forms):
        last = min(g, x1 * g // (d * n_files))
        if last >= start:
            pieces.append((last, *_grid_form(*form, n_files, g)))
            start = last + 1
    return pieces


def _envelope_numerators(pieces: list[tuple[int, int, int, int]], denom: int) -> list[int]:
    """The envelope's numerators over ``denom`` at every grid point, walking
    its pieces once."""
    out: list[int] = []
    for last, a, b, e in pieces:
        scale = denom // e
        out.extend(_numerators(a * scale, b * scale, len(out), last + 1))
    return out


def verify_envelope_dominance(n_files: int, n_users: int, demands_per_user: int,
                              grid_size: int = 101, lambda_step: Fraction = Fraction(1, 8)) -> DominanceReport:
    """Exact sandwich check on a memory grid: the corner envelope and every
    (s, lambda)-line must lie weakly below the achievable envelope.

    Each line's form and the form of each envelope segment that holds a grid
    point are scaled to the grid once and put over one common denominator,
    so every comparison is between integers.  The envelopes are walked piece
    by piece into their numerators at every grid point, and into the steps
    between neighbouring points.

    A line steps by a constant B along the grid, and a convex envelope (which
    ``Envelope`` enforces) by nondecreasing steps, so the line's excess over
    the envelope rises while the envelope steps by less than B and falls
    after.  Its largest value is at the grid point where the envelope's step
    first reaches B, an end of one of the envelope's pieces found by
    bisection; the line lies under the envelope at every grid point iff it
    does there.  Only a line that rises above the achievable envelope is
    scanned point by point, to list each violation.  On the real envelopes
    no line rises above the corner envelope: each line passes through its
    corner (s, t) and lies at or below the envelope at every breakpoint (so
    on all of [0, N]) for every triple with N <= 16 and K <= 8, at lambda
    steps 1/8 and 1/64.  The branch that lists such a line reports perturbed
    envelopes; the line's excess increases up to its largest value, so the
    first such M, which is reported, is found by bisection too.  Fractions
    are built only for what the report holds.
    """
    if grid_size < 2:
        raise ValueError("grid needs at least two points")
    g = grid_size - 1
    ach = _envelope_pieces(achievable_envelope(n_files, n_users, demands_per_user), n_files, g)
    low = _envelope_pieces(converse_corner_envelope(n_files, n_users, demands_per_user), n_files, g)
    lines = list(converse_terms(n_files, n_users, demands_per_user, lambda_step))
    forms = [_grid_form(a, b, e, n_files, g) for *_, a, b, e in lines]
    denom = math.lcm(*(e for *_, e in ach + low + forms))
    ach_at = _envelope_numerators(ach, denom)
    low_at = _envelope_numerators(low, denom)
    ach_steps = list(map(sub, ach_at[1:], ach_at))
    low_steps = list(map(sub, low_at[1:], low_at))

    def report(j, value, upper, tag):
        return Fraction(j * n_files, g), Fraction(value, denom), Fraction(upper, denom), tag

    violations = [report(j, lo, up, "corner-envelope") for j, (lo, up) in enumerate(zip(low_at, ach_at)) if lo > up]
    above = []
    for (s, lam, *_), (a, b, e) in zip(lines, forms):
        scale = denom // e
        a, b = a * scale, b * scale
        peak = bisect_left(ach_steps, b)
        if a + b * peak > ach_at[peak]:
            tag = f"line s={s},lam={lam}"
            violations += [report(j, v, up, tag) for j, (v, up) in enumerate(zip(_numerators(a, b, 0, g + 1), ach_at))
                           if v > up]
        peak = bisect_left(low_steps, b)
        if a + b * peak > low_at[peak]:
            first = bisect_left(range(peak), True, key=lambda j: a + b * j > low_at[j])
            above.append((s, lam, Fraction(first * n_files, g)))
    return DominanceReport((g + 1) * (1 + len(lines)), violations, above)


@dataclass
class GapCertificate:
    max_ratio: Fraction
    witness_m: Fraction
    witness_provenance: str


def gap_certificate(n_files: int, n_users: int, demands_per_user: int) -> GapCertificate:
    """Max of achievable_envelope(M) / corner_envelope(M) over the audited
    points: M = 0 and every corner point but the first, (s, t) = (1, 1) at
    M = N, where both curves vanish.

    Raises OptimalityGapError if any ratio exceeds the factor-6 bound or the
    corner envelope is 0 at an audited M, which a correct one never is.
    Every audited M is below N: it is 0, or a corner with s >= 2, so
    M = (N - L(t-1))/s <= N/2.  The corner envelope is positive on [0, N):
    its only zero-rate point is corner (1, 1), the one at M = N, and its
    M = 0 point has rate L * floor(n_active/L) >= L, since n_active >= L.
    """
    ach = achievable_envelope(n_files, n_users, demands_per_user)
    low = converse_corner_envelope(n_files, n_users, demands_per_user)
    corners = _corner_terms(n_files, n_users, demands_per_user)
    # memory i is M = 0 for i = 0, else corner i's; each an integer pair
    memories = [(0, 1)] + [(m_num, m_den) for _, _, m_num, m_den, _, _ in corners[1:]]
    # ratios are integer pairs (num, den), den > 0, compared by cross-multiplying
    best_num, best_den = 0, 1
    witness = 0
    for i, (m_num, m_den) in enumerate(memories):
        a_num, a_den = ach.value_terms(m_num, m_den)
        b_num, b_den = low.value_terms(m_num, m_den)
        if b_num == 0:
            raise OptimalityGapError(f"lower envelope vanished at M={Fraction(m_num, m_den)} "
                                     f"with achievable rate {Fraction(a_num, a_den)}")
        num, den = a_num * b_den, a_den * b_num  # a_den > 0 and b_num > 0
        if num * best_den > best_num * den:
            best_num, best_den = num, den
            witness = i
    best = Fraction(best_num, best_den)
    m = Fraction(*memories[witness])
    prov = "corner s={},t={}".format(*corners[witness][:2]) if witness else "endpoint M=0"
    if best_num > GAP_FACTOR * best_den:
        raise OptimalityGapError(
            f"gap {best} exceeds {GAP_FACTOR} at M={m} ({prov}) "
            f"for (N,K,L)=({n_files},{n_users},{demands_per_user})"
        )
    return GapCertificate(max_ratio=best, witness_m=m, witness_provenance=prov)


def sweep_triples(n_range: tuple[int, int], k_range: tuple[int, int],
                  l_range: tuple[int, int] | None = None) -> list[tuple[int, int, int]]:
    """Every (N, K, L) with N and K in their inclusive ranges and L in
    ``l_range`` (default [1, N]) capped at N, in lexicographic order."""
    l_lo, l_hi = l_range or (1, n_range[1])
    return [(n, k, l) for n in range(n_range[0], n_range[1] + 1) for k in range(k_range[0], k_range[1] + 1)
            for l in range(l_lo, min(l_hi, n) + 1)]
