"""Exact lower convex envelopes over rationals.

Nothing in this module touches floating point.  Rationals are
``fractions.Fraction`` (arbitrary precision, always in lowest terms) where
a result holds them, and integer terms everywhere else.  The hull
(``lower_convex_envelope_terms``) takes each point as integer terms
(x_num, x_den, y_num, y_den), decides each turn by the sign of an integer
cross product on the points put over common denominators, and builds
Fractions only for the breakpoints it keeps, so every downstream
rate/memory comparison can assert equality instead of a tolerance;
``lower_convex_envelope`` is its adapter for points given as numbers.  An
envelope computes its x list (as integers over one denominator) and its
segments' line forms once: on each segment the envelope is (a + b*x) / e
with integers e > 0 and gcd(a, b, e) = 1, so its value at x = p/q is
(a*q + b*p) / (e*q); it checks the x order and convexity and evaluates
(``value_terms``, at x given as an integer pair) on these integers.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence


# ---------------------------------------------------------------------------
# Lower convex envelope
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Envelope:
    """Piecewise-linear convex function given by its breakpoints.

    Breakpoints are (x, y) pairs with strictly increasing x; evaluation
    between breakpoints is exact linear interpolation.  The x list (as
    integers over one denominator) and the segment forms are computed once,
    on first use, and shared by every reader; the x order is checked on the
    integers and convexity on the integer slopes b/e.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if not self.breakpoints:
            raise ValueError("envelope needs at least one breakpoint")
        _, xs = self.x_terms
        if any(x0 >= x1 for x0, x1 in zip(xs, xs[1:])):
            raise ValueError("breakpoint x-coordinates must strictly increase")
        forms = self.segment_forms
        if any(b1 * e0 < b0 * e1 for (_, b0, e0), (_, b1, e1) in zip(forms, forms[1:])):
            raise ValueError("breakpoints are not convex")

    @cached_property
    def x_terms(self) -> tuple[int, tuple[int, ...]]:
        """(d, xs): the least common denominator d of the breakpoints' x, and
        each x times d, left to right."""
        d = math.lcm(*[x.denominator for x, _ in self.breakpoints])
        return d, tuple(x.numerator * (d // x.denominator) for x, _ in self.breakpoints)

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
        return (self.breakpoints[0][0], self.breakpoints[-1][0])

    def value_terms(self, x_num: int, x_den: int) -> tuple[int, int]:
        """The envelope at x = x_num / x_den, x_den > 0, as an unreduced
        integer pair (n, d), d > 0, with n / d the exact value; x must lie
        within the domain.  At x = p/q the segment (a, b, e) holding x gives
        (a*q + b*p, e*q); x is placed among the breakpoints in integers."""
        d, xs = self.x_terms
        at = x_num * d
        if at < xs[0] * x_den or at > xs[-1] * x_den:
            lo, hi = self.domain
            raise ValueError(f"x={Fraction(x_num, x_den)} outside envelope domain [{lo}, {hi}]")
        forms = self.segment_forms
        if not forms:
            y = self.breakpoints[0][1]
            return y.numerator, y.denominator
        # breakpoint i is at or left of x iff xs[i] <= at / x_den, iff xs[i] <= at // x_den
        a, b, e = forms[min(bisect_right(xs, at // x_den) - 1, len(forms) - 1)]
        return a * x_den + b * x_num, e * x_den

    def value_at(self, x) -> Fraction:
        """Exact value of the envelope at x; x must lie within the domain."""
        x = Fraction(x)
        return Fraction(*self.value_terms(x.numerator, x.denominator))


def lower_convex_envelope(points: Iterable[tuple]) -> Envelope:
    """Lower convex envelope of a finite point set, as an Envelope: each
    coordinate (an int, a Fraction, or anything ``Fraction`` takes) goes to
    ``lower_convex_envelope_terms`` as its numerator and denominator."""
    terms = []
    for x, y in points:
        x = x if type(x) is Fraction else Fraction(x)
        y = y if type(y) is Fraction else Fraction(y)
        terms.append((x.numerator, x.denominator, y.numerator, y.denominator))
    return lower_convex_envelope_terms(terms)


def lower_convex_envelope_terms(points: Sequence[tuple[int, int, int, int]]) -> Envelope:
    """Lower convex envelope of the points (x_num / x_den, y_num / y_den),
    given as integer terms (x_num, x_den, y_num, y_den) with both
    denominators positive.  The one hull.

    Ties at equal x keep the smaller y; points on a common chord are dropped
    so the breakpoint list is canonical (endpoints only).  The scan runs on
    integers: every x is put over the common denominator of all x, and every
    y over that of all y, which scales each cross product by one positive
    factor and so keeps the sign of every turn.  The integer pairs are
    sorted, and a point whose x equals the previous one is skipped: the sort
    put the smaller y first.  Fractions are built only for the breakpoints
    the hull keeps.
    """
    if not points:
        raise ValueError("need at least one point")
    x_den = math.lcm(*[xd for _, xd, _, _ in points])
    y_den = math.lcm(*[yd for _, _, _, yd in points])
    scaled = sorted((xn * (x_den // xd), yn * (y_den // yd), i) for i, (xn, xd, yn, yd) in enumerate(points))
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
    kept = (points[i] for *_, i in hull)
    return Envelope(tuple((Fraction(xn, xd), Fraction(yn, yd)) for xn, xd, yn, yd in kept))
