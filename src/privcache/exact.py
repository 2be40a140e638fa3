"""Exact integer/rational arithmetic and combinatorial primitives.

Nothing in this module touches floating point.  Rationals are
``fractions.Fraction`` (arbitrary precision, always in lowest terms),
binomials come from ``math.comb``, and the convex-envelope construction
decides each hull turn by the sign of an integer 3x3 determinant on
homogeneous points, so every downstream rate/memory comparison can assert
equality instead of a tolerance.  An envelope computes its x list and its
segment slopes once and evaluates in integers (``value_terms``) with the
stored slope.

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
from functools import cached_property
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
    between breakpoints is exact linear interpolation.  The x list and the
    segment slopes are computed once, on first use, and shared by every
    reader.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if not self.breakpoints:
            raise ValueError("envelope needs at least one breakpoint")
        xs = self._xs
        if any(x1 <= x0 for x0, x1 in zip(xs, xs[1:])):
            raise ValueError("breakpoint x-coordinates must strictly increase")
        slopes = self._slopes
        if any(s1 < s0 for s0, s1 in zip(slopes, slopes[1:])):
            raise ValueError("breakpoints are not convex")

    @cached_property
    def _xs(self) -> tuple[Fraction, ...]:
        return tuple(x for x, _ in self.breakpoints)

    @cached_property
    def _slopes(self) -> tuple[Fraction, ...]:
        bps = self.breakpoints
        return tuple((y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(bps, bps[1:]))

    def slopes(self) -> tuple[Fraction, ...]:
        """The slope of each segment, left to right."""
        return self._slopes

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return (self._xs[0], self._xs[-1])

    def value_terms(self, x) -> tuple[int, int]:
        """The envelope at x as an unreduced integer pair (n, d), d > 0, with
        n / d the exact value; x is a Fraction or an int within the domain.
        The segment's stored slope carries the interpolation."""
        xs = self._xs
        if x < xs[0] or x > xs[-1]:
            raise ValueError(f"x={x} outside envelope domain [{xs[0]}, {xs[-1]}]")
        i = bisect_right(xs, x) - 1
        x0, y0 = self.breakpoints[i]
        if i == len(self._slopes):
            return y0.numerator, y0.denominator
        slope = self._slopes[i]
        # y0 + slope * (x - x0), over y0.den * slope.den * x.den * x0.den
        run = x.denominator * x0.denominator
        rise = slope.numerator * (x.numerator * x0.denominator - x0.numerator * x.denominator)
        return (y0.numerator * slope.denominator * run + rise * y0.denominator,
                y0.denominator * slope.denominator * run)

    def value_at(self, x) -> Fraction:
        """Exact value of the envelope at x; x must lie within the domain."""
        return Fraction(*self.value_terms(Fraction(x)))


def _orientation(o: tuple[int, int, int], a: tuple[int, int, int], b: tuple[int, int, int]) -> int:
    """det[o; a; b] of three homogeneous points (X, Y, W), W > 0: W_o W_a W_b
    times the cross product (a - o) x (b - o) of the points (X/W, Y/W), so
    its sign is the turn o -> a -> b (positive: counter-clockwise)."""
    (ox, oy, ow), (ax, ay, aw), (bx, by, bw) = o, a, b
    return ox * (ay * bw - aw * by) - oy * (ax * bw - aw * bx) + ow * (ax * by - ay * bx)


def lower_convex_envelope(points: Iterable[tuple]) -> Envelope:
    """Lower convex envelope of a finite point set, as an Envelope.

    Ties at equal x keep the smaller y; points on a common chord are dropped
    so the breakpoint list is canonical (endpoints only).  Each turn of the
    monotone-chain scan is decided in integers, on the homogeneous point
    (x.num * y.den, y.num * x.den, x.den * y.den).
    """
    best: dict[Fraction, Fraction] = {}
    for x, y in points:
        x, y = Fraction(x), Fraction(y)
        if x not in best or y < best[x]:
            best[x] = y
    if not best:
        raise ValueError("need at least one point")
    hull: list[tuple[Fraction, Fraction]] = []
    homogeneous: list[tuple[int, int, int]] = []
    for p in sorted(best.items()):
        x, y = p
        h = (x.numerator * y.denominator, y.numerator * x.denominator, x.denominator * y.denominator)
        while len(hull) >= 2 and _orientation(homogeneous[-2], homogeneous[-1], h) <= 0:
            hull.pop()
            homogeneous.pop()
        hull.append(p)
        homogeneous.append(h)
    return Envelope(tuple(hull))
