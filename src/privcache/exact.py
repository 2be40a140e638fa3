"""Exact lower convex envelopes over rationals.

Nothing in this module touches floating point.  ``Envelope(points)`` is the
one hull: it takes each point as integer terms (x_num, x_den, y_num, y_den),
decides each turn by the sign of an integer cross product on the points put
over common denominators, and holds the kept breakpoints as integers over
one least denominator per axis, (x_den, xs, y_den, ys), so every envelope is
canonical and every downstream rate/memory comparison can assert equality
instead of a tolerance.  ``fractions.Fraction`` is built only on read
(``breakpoints``, ``domain``, ``value_at``), and ``lower_convex_envelope`` is
the adapter for points given as numbers.  An envelope computes its
segments' line forms once: on each segment the envelope is (a + b*x) / e
with integers e > 0 and gcd(a, b, e) = 1, so its value at x = p/q is
(a*q + b*p) / (e*q); it evaluates (``value_terms``, at x given as an integer
pair) on these integers.
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


@dataclass(frozen=True, init=False)
class Envelope:
    """Lower convex envelope of the points (x_num / x_den, y_num / y_den),
    given as integer terms (x_num, x_den, y_num, y_den) with both
    denominators positive: a piecewise-linear convex function given by its
    breakpoints.

    Breakpoint i is (xs[i] / x_den, ys[i] / y_den); evaluation between
    breakpoints is exact linear interpolation.  The hull is Andrew's
    monotone chain run on integers: every x is put over the common
    denominator of all x, and every y over that of all y, which scales each
    cross product by one positive factor and so keeps the sign of every
    turn.  The integer pairs are sorted, and a point whose x equals the
    previous one is skipped: the sort put the smaller y first.  A point on
    the chord of its neighbours is dropped, so x strictly increases and the
    slopes strictly increase.  The kept integers are divided, per axis, by
    their gcd with that denominator, which leaves the least denominator that
    holds every kept breakpoint: the form is canonical, so two envelopes
    compare (and hash) equal iff their breakpoints do.  The segment forms
    are computed once, on first use, and shared by every reader.
    """

    x_den: int
    xs: tuple[int, ...]
    y_den: int
    ys: tuple[int, ...]

    def __init__(self, points: Sequence[tuple[int, int, int, int]]):
        if not points:
            raise ValueError("need at least one point")
        x_dens, y_dens = [xd for _, xd, _, _ in points], [yd for _, _, _, yd in points]
        if min(x_dens) < 1 or min(y_dens) < 1:
            raise ValueError("point denominators must be positive")
        x_den, y_den = math.lcm(*x_dens), math.lcm(*y_dens)
        hull: list[tuple[int, int]] = []
        for p in sorted((xn * (x_den // xd), yn * (y_den // yd)) for xn, xd, yn, yd in points):
            if hull and p[0] == hull[-1][0]:
                continue
            px, py = p
            while len(hull) >= 2:
                (ox, oy), (ax, ay) = hull[-2], hull[-1]
                if (ax - ox) * (py - oy) - (ay - oy) * (px - ox) > 0:
                    break
                hull.pop()
            hull.append(p)
        xs, ys = zip(*hull)
        gx, gy = math.gcd(x_den, *xs), math.gcd(y_den, *ys)
        object.__setattr__(self, "x_den", x_den // gx)
        object.__setattr__(self, "xs", tuple(x // gx for x in xs))
        object.__setattr__(self, "y_den", y_den // gy)
        object.__setattr__(self, "ys", tuple(y // gy for y in ys))

    @cached_property
    def segment_forms(self) -> tuple[tuple[int, int, int], ...]:
        """Each segment, left to right, as (a, b, e) with the envelope equal
        to (a + b*x) / e on it, e > 0 and gcd(a, b, e) = 1: the chord
        between (x0, y0) and (x1, y1) on the scaled integers,
        (x1 - x0) * y_den * y = (y0*x1 - y1*x0) + (y1 - y0) * x_den * x,
        then reduced."""
        forms = []
        xs, ys = self.xs, self.ys
        for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
            a, b, e = y0 * x1 - y1 * x0, (y1 - y0) * self.x_den, (x1 - x0) * self.y_den
            k = math.gcd(a, b, e)
            forms.append((a // k, b // k, e // k))
        return tuple(forms)

    @cached_property
    def breakpoints(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The breakpoints as (x, y) Fractions, left to right."""
        return tuple((Fraction(x, self.x_den), Fraction(y, self.y_den)) for x, y in zip(self.xs, self.ys))

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return (Fraction(self.xs[0], self.x_den), Fraction(self.xs[-1], self.x_den))

    def value_terms(self, x_num: int, x_den: int) -> tuple[int, int]:
        """The envelope at x = x_num / x_den, x_den > 0, as an unreduced
        integer pair (n, d), d > 0, with n / d the exact value; x must lie
        within the domain.  At x = p/q the segment (a, b, e) holding x gives
        (a*q + b*p, e*q); x is placed among the breakpoints in integers,
        which the sign of x_den would flip, so x_den < 1 is refused."""
        if x_den < 1:
            raise ValueError(f"x denominator {x_den} is not positive")
        xs = self.xs
        at = x_num * self.x_den
        if at < xs[0] * x_den or at > xs[-1] * x_den:
            lo, hi = self.domain
            raise ValueError(f"x={Fraction(x_num, x_den)} outside envelope domain [{lo}, {hi}]")
        forms = self.segment_forms
        if not forms:
            return self.ys[0], self.y_den
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
    ``Envelope`` as its numerator and denominator."""
    terms = []
    for x, y in points:
        x = x if type(x) is Fraction else Fraction(x)
        y = y if type(y) is Fraction else Fraction(y)
        terms.append((x.numerator, x.denominator, y.numerator, y.denominator))
    return Envelope(terms)
