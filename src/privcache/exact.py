"""Exact lower convex envelopes over rationals.

Nothing in this module touches floating point.  Rationals are
``fractions.Fraction`` (arbitrary precision, always in lowest terms), and
the convex-envelope construction decides each hull turn by the sign of an integer cross product on the points
put over common denominators, so every downstream rate/memory comparison
can assert equality instead of a tolerance.  An envelope computes its x list
and its segments' line forms once: on each segment the envelope is
(a + b*x) / e with integers e > 0 and gcd(a, b, e) = 1, so its value at
x = p/q is (a*q + b*p) / (e*q); it checks convexity and evaluates
(``value_terms``) on these integers.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable


# ---------------------------------------------------------------------------
# Lower convex envelope
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Envelope:
    """Piecewise-linear convex function given by its breakpoints.

    Breakpoints are (x, y) pairs with strictly increasing x; evaluation
    between breakpoints is exact linear interpolation.  The x list and the
    segment forms are computed once, on first use, and shared by every
    reader; convexity is checked on the integer slopes b/e.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if not self.breakpoints:
            raise ValueError("envelope needs at least one breakpoint")
        xs = self._xs
        if any(x0 >= x1 for x0, x1 in zip(xs, xs[1:])):
            raise ValueError("breakpoint x-coordinates must strictly increase")
        forms = self.segment_forms
        if any(b1 * e0 < b0 * e1 for (_, b0, e0), (_, b1, e1) in zip(forms, forms[1:])):
            raise ValueError("breakpoints are not convex")

    @cached_property
    def _xs(self) -> tuple[Fraction, ...]:
        return tuple(x for x, _ in self.breakpoints)

    @cached_property
    def segment_forms(self) -> tuple[tuple[int, int, int], ...]:
        """Each segment, left to right, as (a, b, e) with the envelope equal
        to (a + b*x) / e on it, e > 0 and gcd(a, b, e) = 1: the chord
        ((x1 - x0) y = (y0 x1 - y1 x0) + (y1 - y0) x) times the product of
        its ends' denominators, then reduced."""
        forms = []
        bps = self.breakpoints
        for (x0, y0), (x1, y1) in zip(bps, bps[1:]):
            x0n, x0d, x1n, x1d = x0.numerator, x0.denominator, x1.numerator, x1.denominator
            y0n, y0d, y1n, y1d = y0.numerator, y0.denominator, y1.numerator, y1.denominator
            a = y0n * x1n * x0d * y1d - y1n * x0n * x1d * y0d
            b = (y1n * y0d - y0n * y1d) * x0d * x1d
            e = (x1n * x0d - x0n * x1d) * y0d * y1d
            k = math.gcd(a, b, e)
            forms.append((a // k, b // k, e // k))
        return tuple(forms)

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return (self._xs[0], self._xs[-1])

    def value_terms(self, x) -> tuple[int, int]:
        """The envelope at x as an unreduced integer pair (n, d), d > 0, with
        n / d the exact value; x is a Fraction or an int within the domain.
        At x = p/q the segment (a, b, e) holding x gives (a*q + b*p, e*q)."""
        xs = self._xs
        if x < xs[0] or x > xs[-1]:
            raise ValueError(f"x={x} outside envelope domain [{xs[0]}, {xs[-1]}]")
        forms = self.segment_forms
        if not forms:
            y = self.breakpoints[0][1]
            return y.numerator, y.denominator
        a, b, e = forms[min(bisect_right(xs, x) - 1, len(forms) - 1)]
        return a * x.denominator + b * x.numerator, e * x.denominator

    def value_at(self, x) -> Fraction:
        """Exact value of the envelope at x; x must lie within the domain."""
        return Fraction(*self.value_terms(Fraction(x)))


def lower_convex_envelope(points: Iterable[tuple]) -> Envelope:
    """Lower convex envelope of a finite point set, as an Envelope.

    Ties at equal x keep the smaller y; points on a common chord are dropped
    so the breakpoint list is canonical (endpoints only).  The scan runs on
    integers: every x is put over the common denominator of all x, and every
    y over that of all y, which scales each cross product by one positive
    factor and so keeps the sign of every turn.  The integer pairs are
    sorted, and a point whose x equals the previous one is skipped: the sort
    put the smaller y first.
    """
    pts = [(x if type(x) is Fraction else Fraction(x), y if type(y) is Fraction else Fraction(y)) for x, y in points]
    if not pts:
        raise ValueError("need at least one point")
    x_den = math.lcm(*[x.denominator for x, _ in pts])
    y_den = math.lcm(*[y.denominator for _, y in pts])
    scaled = sorted((x.numerator * (x_den // x.denominator), y.numerator * (y_den // y.denominator), i)
                    for i, (x, y) in enumerate(pts))
    hull: list[tuple[int, int, int]] = []
    for p in scaled:
        if hull and p[0] == hull[-1][0]:
            continue
        px, py, _ = p
        while len(hull) >= 2:
            (ox, oy, _), (ax, ay, _) = hull[-2], hull[-1]
            if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0:
                break
            hull.pop()
        hull.append(p)
    return Envelope(tuple(pts[i] for *_, i in hull))
