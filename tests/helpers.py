"""Fixtures and oracles the tests share; the program itself never needs them."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from operator import gt
from typing import Iterable, Iterator

from privcache import audit, scheme, tradeoff
from privcache.exact import Envelope
from privcache.gf import PrimeField
from privcache.scheme import Demands, SchemeParams, Variant
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


def segment_terms(params: UccParams, demand: tuple[int, ...], sub: tuple[int, ...],
                  signed: bool) -> list[tuple[int, int, int]]:
    """The (file, label rank, +-1) terms of the segment of user subset ``sub``,
    one subset at a time: the i-th user v in it contributes the subfile of
    its demanded file labeled by the rest of the subset, ranked by the
    combinatorial number system, with coefficient (-1)^i if ``signed`` and
    +1 otherwise."""
    return [(demand[v], subset_rank(range(params.n_users), sub[:i] + sub[i + 1:]), -1 if signed and i % 2 else 1)
            for i, v in enumerate(sub)]


def all_demand_matrices(params: SchemeParams) -> Iterator[Demands]:
    """Every demand matrix, rows of distinct files in lexicographic order:
    the order ``audit.exact_mutual_information`` meets them in, row by
    observer row."""
    rows = list(itertools.permutations(range(params.n_files), params.demands_per_user))
    return itertools.product(rows, repeat=params.n_users)


def cover_weight(params: SchemeParams, demands: Demands, variant: Variant) -> int:
    """How many cover sets each one ``audit._walk`` walks stands for: the
    cover count of ``variant`` over that of the variant walked, 1 where
    every cover set is walked."""
    need = len(scheme.requested_files(demands))
    walked = audit._walk(params, demands, variant, 0)[0]
    return audit._stage_sizes(params, variant, need)[2] // audit._stage_sizes(params, walked, need)[2]


def flat_realizations(params: SchemeParams, demands: Demands, variant: Variant,
                      slots: dict[int, tuple[int, ...]] | None = None) -> Iterator[tuple]:
    """The realizations ``scheme.block_tables`` enumerates, one at a time:
    (slot tuples, cover set, expanded demand), one block from each user's
    table in ``itertools.product`` order, concatenated."""
    for sel, cover, tables in scheme.block_tables(params, demands, variant, slots):
        for blocks in itertools.product(*tables):
            yield sel, cover, tuple(v for block in blocks for v in block)


def atom_realizations(params: SchemeParams, demands: Demands, variant: Variant,
                      slots: dict[int, tuple[int, ...]] | None = None) -> Iterator[tuple]:
    """Independent of ``scheme.block_tables``: every label-free realization
    as (slot tuples, cover set, expanded demand), atom by atom, from loops
    slot tuples -> cover set -> block fills that rebuild every user's blocks
    for each slot assignment (a frozen fill takes the first arrangement
    ``block_support`` lists)."""
    pinned = slots or {}
    support = scheme.slot_support(params)
    free = support if variant.random_slots else support[:1]
    slot_opts = [[pinned[k]] if k in pinned else free for k in range(params.n_users)]
    covers = scheme.feasible_cover_sets(params, demands)
    if not variant.random_cover:
        covers = covers[:1]
    for sel in itertools.product(*slot_opts):
        for cover in covers:
            block_opts = [scheme.block_support(params, cover, demands[k], sel[k]) for k in range(params.n_users)]
            if not variant.random_fill:
                block_opts = [blocks[:1] for blocks in block_opts]
            for blocks in itertools.product(*block_opts):
                yield sel, cover, tuple(v for block in blocks for v in block)


def label_pattern(vector: tuple[int, ...]) -> tuple[int, ...]:
    """The vector with its labels renumbered 0, 1, ... in order of first
    occurrence, the whole vector at once."""
    first: dict[int, int] = {}
    return tuple(first.setdefault(v, len(first)) for v in vector)


def walked_view_counts(params: SchemeParams, demands: Demands, observer: int, variant: Variant,
                       slots: dict[int, tuple[int, ...]] | None = None) -> Counter:
    """``audit._view_counts`` atom by atom and without its cover quotient:
    (observer slot tuple, class of the masked demand) counted over every
    realization ``atom_realizations`` yields under ``variant``, every cover
    set walked.  With relabeling on a class is the ``label_pattern`` of the
    whole vector; with it off, the vector."""
    classify = label_pattern if variant.relabel_files else tuple
    return Counter((sel[observer], classify(expanded))
                   for sel, _, expanded in atom_realizations(params, demands, variant, slots))


def scan_cover_sets(n_files: int, n_active: int, requested: Iterable[int]) -> list[tuple[int, ...]]:
    """Every n_active-subset of [n_files) holding the requested files, by
    scanning all C(n_files, n_active) subsets in lexicographic order."""
    need = set(requested)
    return [cand for cand in itertools.combinations(range(n_files), n_active) if need.issubset(cand)]


def restricted_vectors(params: SchemeParams) -> Iterator[tuple[int, ...]]:
    """All restricted demand vectors: pick the common n_active-subset, then an
    arrangement of it per user block.  Count: C(N, n_active) * (n_active!)^K,
    ``audit.restricted_vector_count``."""
    for base in itertools.combinations(range(params.n_files), params.n_active):
        for blocks in itertools.product(itertools.permutations(base), repeat=params.n_users):
            yield tuple(v for block in blocks for v in block)


# ---------------------------------------------------------------------------
# The exact law of ``scheme.sampler``, by enumerating every branch of its
# integer draws, and the law the exact audits assume it draws
# ---------------------------------------------------------------------------


# Random.sample rejects repeats for populations above 21, where a prescribed
# 0 would repeat forever; the sampler makes far fewer draws at any size the
# enumeration can reach
_MAX_DRAWS = 256


class _BranchRandom(random.Random):
    """A ``random.Random`` whose integer draws take prescribed branches.

    ``sample``, ``randrange`` and ``shuffle`` reach the generator only
    through ``_randbelow(n)`` (CPython 3.10 to 3.13).  Here the depth-th call
    answers from ``path``, a list of [choice, n] entries, and past its end
    appends [0, n].  ``random`` and ``getrandbits``, the other two ways to
    draw, raise, so a draw that bypasses ``_randbelow`` cannot go unseen."""

    def __init__(self, path: list[list[int]]):
        super().__init__(0)
        self.path, self.depth = path, 0

    def _randbelow(self, n: int) -> int:
        if self.depth == len(self.path):
            if self.depth == _MAX_DRAWS:
                raise AssertionError(f"more than {_MAX_DRAWS} integer draws in one pass")
            self.path.append([0, n])
        choice, branches = self.path[self.depth]
        if branches != n:
            raise AssertionError(f"draw {self.depth} has {n} branches, {branches} on an earlier pass")
        self.depth += 1
        return choice

    def random(self):
        raise AssertionError("Random.random reached: only _randbelow draws are enumerated")

    def getrandbits(self, k):
        raise AssertionError("Random.getrandbits reached: only _randbelow draws are enumerated")


class _BranchStreams:
    """Stub seed streams: every label gets the one ``_BranchRandom``, and a
    label asked for twice in one pass raises, since real substreams with
    one label repeat their draws rather than being independent."""

    def __init__(self, gen: _BranchRandom):
        self.gen, self.labels = gen, set()

    def rng(self, label: str) -> _BranchRandom:
        if label in self.labels:
            raise AssertionError(f"substream {label!r} asked for twice in one draw")
        self.labels.add(label)
        return self.gen


def sampler_law(draw) -> dict[tuple, Fraction]:
    """The exact law of ``draw(streams)``, a function of seed streams such as
    ``scheme.sampler`` returns: {outcome: probability}.

    Depth first over every branch of every integer draw: each pass hands
    ``draw`` stub streams that follow the current path, weighs its outcome
    Π 1/n over the branches taken, and advances the path like an odometer.
    That is the law of ``draw`` when each ``_randbelow(n)`` is uniform on
    [0, n) and substreams with distinct labels are independent.  A pass
    that ends before the path it was handed, more than ``_MAX_DRAWS`` draws
    in one pass, and a total weight other than exactly 1 raise."""
    law: dict[tuple, Fraction] = {}
    path: list[list[int]] = []
    gen = _BranchRandom(path)
    while True:
        gen.depth = 0
        outcome = draw(_BranchStreams(gen))
        if gen.depth != len(path):
            raise AssertionError(f"the draw took {gen.depth} of {len(path)} prescribed branches")
        law[outcome] = law.get(outcome, 0) + Fraction(1, math.prod(n for _, n in path))
        while path and path[-1][0] + 1 == path[-1][1]:
            path.pop()
        if not path:
            break
        path[-1][0] += 1
    total = sum(law.values())
    if total != 1:
        raise AssertionError(f"total weight {total}, not 1")
    return law


def uniform_sampler_law(params: SchemeParams, demands: Demands, variant: Variant) -> dict[tuple, Fraction]:
    """The law the exact audits assume ``scheme.sampler`` draws: (relabeling,
    slot tuples, cover set, expanded demand), the relabeling uniform over
    the N! permutations (the identity with relabeling off) and independent
    of a realization uniform over those ``scheme.block_tables`` yields."""
    n = params.n_files
    relabelings = list(itertools.permutations(range(n))) if variant.relabel_files else [tuple(range(n))]
    atoms = Counter(flat_realizations(params, demands, variant))
    den = len(relabelings) * atoms.total()
    return {(relabeling, *atom): Fraction(c, den) for relabeling in relabelings for atom, c in atoms.items()}


# ---------------------------------------------------------------------------
# References for the tradeoff kernel: the achievable points from binomials,
# the dominance check by a full scan of each line, and the converse line, the
# hull and the gap certificate as direct rational formulas
# ---------------------------------------------------------------------------


def perm_achievable_pairs(n_files: int, n_users: int, demands_per_user: int) -> Iterator[tuple[int, int, int, int]]:
    """``tradeoff._achievable_pairs`` with both falling factorials of each r
    computed from scratch by ``math.perm``."""
    n_act = tradeoff.active_files(n_files, n_users, demands_per_user)
    kv = n_users * n_act
    top_l, top_a = math.perm(kv, demands_per_user), math.perm(kv, n_act)
    for r in range(kv + 1):
        m_num = n_files * (top_l - math.perm(kv - r, demands_per_user))
        r_num, r_den = (kv - r) * (top_a - math.perm(max(kv - r - 1, 0), n_act)), (r + 1) * top_a
        g, h = math.gcd(m_num, top_l), math.gcd(r_num, r_den)
        yield m_num // g, top_l // g, r_num // h, r_den // h


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
            raise OptimalityGapError(f"lower envelope vanished at M={m} with achievable rate {a}")
        ratio = a / b
        if ratio > best:
            best, witness = ratio, (m, prov)
    if best > tradeoff.GAP_FACTOR:
        raise OptimalityGapError(
            f"gap {best} exceeds {tradeoff.GAP_FACTOR} at M={witness[0]} ({witness[1]}) "
            f"for (N,K,L)=({n_files},{n_users},{demands_per_user})")
    return GapCertificate(best, *witness)
