"""Exact integer/rational arithmetic and combinatorial primitives.

Nothing in this module touches floating point.  Rationals are
``fractions.Fraction`` (arbitrary precision, always in lowest terms),
binomials come from ``math.comb``, and the convex-envelope construction is
carried out with exact cross products, so every downstream rate/memory
comparison can assert equality instead of a tolerance.

Subset enumeration is pinned to lexicographic order over the sorted ground
set, so a subset's position in that order (its rank, which subfile indices
and trace files use) is reproducible across runs.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

Rational = Fraction


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention C(n, k) = 0 for k < 0 or k > n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def falling_factorial(n: int, k: int) -> int:
    """n * (n-1) * ... * (n-k+1), the number of ordered k-arrangements of [n]."""
    if k < 0 or k > n:
        return 0
    return math.perm(n, k)


# ---------------------------------------------------------------------------
# Subsets: lexicographic enumeration
# ---------------------------------------------------------------------------


def subsets_of_size(ground: Iterable, k: int) -> Iterator[tuple]:
    """All k-subsets of ``ground`` in lexicographic order over the sorted ground set.

    k outside [0, len(ground)] yields an empty iterator.
    """
    base = sorted(ground)
    if k < 0 or k > len(base):
        return iter(())
    return itertools.combinations(base, k)


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------


def sample_permutation(ground: Sequence, rng: random.Random) -> tuple:
    """Uniform random permutation of ``ground`` drawn from ``rng``."""
    seq = list(ground)
    return tuple(rng.sample(seq, len(seq)))


# ---------------------------------------------------------------------------
# Lower convex envelope
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Envelope:
    """Piecewise-linear convex function given by its breakpoints.

    Breakpoints are (x, y) pairs with strictly increasing x; evaluation
    between breakpoints is exact linear interpolation.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        bps = self.breakpoints
        if not bps:
            raise ValueError("envelope needs at least one breakpoint")
        for (x0, _), (x1, _) in zip(bps, bps[1:]):
            if x1 <= x0:
                raise ValueError("breakpoint x-coordinates must strictly increase")
        slopes = self.slopes()
        for s0, s1 in zip(slopes, slopes[1:]):
            if s1 < s0:
                raise ValueError("breakpoints are not convex")

    def slopes(self) -> list[Fraction]:
        return [
            (y1 - y0) / (x1 - x0)
            for (x0, y0), (x1, y1) in zip(self.breakpoints, self.breakpoints[1:])
        ]

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return (self.breakpoints[0][0], self.breakpoints[-1][0])

    def value_at(self, x) -> Fraction:
        """Exact value of the envelope at x; x must lie within the domain."""
        x = Fraction(x)
        bps = self.breakpoints
        lo, hi = self.domain
        if x < lo or x > hi:
            raise ValueError(f"x={x} outside envelope domain [{lo}, {hi}]")
        xs = [p[0] for p in bps]
        i = bisect_right(xs, x) - 1
        if i == len(bps) - 1:
            return bps[-1][1]
        (x0, y0), (x1, y1) = bps[i], bps[i + 1]
        return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def _cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def lower_convex_envelope(points: Iterable[tuple]) -> Envelope:
    """Lower convex envelope of a finite point set, as an Envelope.

    Ties at equal x keep the smaller y; points on a common chord are dropped
    so the breakpoint list is canonical (endpoints only).
    """
    best: dict[Fraction, Fraction] = {}
    for x, y in points:
        x, y = Fraction(x), Fraction(y)
        if x not in best or y < best[x]:
            best[x] = y
    if not best:
        raise ValueError("need at least one point")
    hull: list[tuple[Fraction, Fraction]] = []
    for p in sorted(best.items()):
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return Envelope(tuple(hull))
