"""Exact arithmetic, subset ranking and convex envelope tests."""

import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import assert_segment_forms, chord_value_at, cross_hull, subset_rank
from privcache.exact import Envelope, lower_convex_envelope


def test_rank_of_first_subset_is_zero():
    assert subset_rank(range(8), (0, 1)) == 0


def test_rank_matches_enumeration_order():
    for n in range(0, 9):
        for k in range(0, n + 1):
            for i, sub in enumerate(itertools.combinations(range(n), k)):
                assert subset_rank(range(n), sub) == i


def test_rank_rejects_bad_subsets():
    with pytest.raises(ValueError):
        subset_rank(range(4), (0, 9))


def test_envelope_two_points():
    env = lower_convex_envelope([(0, 2), (1, 0)])
    assert env.breakpoints == ((Fraction(0), Fraction(2)), (Fraction(1), Fraction(0)))
    assert env.value_at(Fraction(1, 2)) == 1


def test_envelope_drops_point_above_chord():
    # chord between (0,2) and (1,0) passes through (1/2, 1) < 3/2
    env = lower_convex_envelope([(0, 2), (Fraction(1, 2), Fraction(3, 2)), (1, 0)])
    assert env.breakpoints == ((Fraction(0), Fraction(2)), (Fraction(1), Fraction(0)))


def test_envelope_single_point():
    env = lower_convex_envelope([(3, 4)])
    assert env.breakpoints == ((Fraction(3), Fraction(4)),)
    assert env.value_at(3) == 4
    with pytest.raises(ValueError):
        env.value_at(2)


def test_envelope_collinear_keeps_endpoints_only():
    env = lower_convex_envelope([(0, 2), (1, 1), (2, 0)])
    assert env.breakpoints == ((Fraction(0), Fraction(2)), (Fraction(2), Fraction(0)))
    assert env.value_at(1) == 1


def test_envelope_equal_m_keeps_smaller_r():
    env = lower_convex_envelope([(0, 2), (0, 5), (1, 0)])
    assert env.breakpoints[0] == (Fraction(0), Fraction(2))


def test_envelope_empty_input():
    with pytest.raises(ValueError):
        lower_convex_envelope([])


_points = st.lists(
    st.tuples(
        st.fractions(min_value=-5, max_value=5, max_denominator=8),
        st.fractions(min_value=-5, max_value=5, max_denominator=8),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(_points)
def test_envelope_below_all_points_and_convex(points):
    env = lower_convex_envelope(points)
    for x, y in points:
        assert env.value_at(x) <= y
    slopes = [Fraction(b, e) for _, b, e in env.segment_forms]
    assert all(s0 <= s1 for s0, s1 in zip(slopes, slopes[1:]))
    assert set(env.breakpoints) <= {(Fraction(x), Fraction(y)) for x, y in points}


_coord = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def hull_inputs(draw):
    """Rational points, some sharing an x, some on one line, in any order."""
    points = draw(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=10))
    xs = [x for x, _ in points]
    points += [(draw(st.sampled_from(xs)), draw(_coord)) for _ in range(draw(st.integers(0, 4)))]
    if draw(st.booleans()):
        x0, y0, dy = draw(_coord), draw(_coord), draw(_coord)
        dx = draw(st.fractions(min_value=Fraction(1, 6), max_value=2, max_denominator=6))
        points += [(x0 + i * dx, y0 + i * dy) for i in range(draw(st.integers(2, 5)))]
    return draw(st.permutations(points))


@settings(max_examples=300, deadline=None)
@given(hull_inputs())
def test_envelope_matches_cross_product_hull(points):
    env = lower_convex_envelope(points)
    assert env.breakpoints == cross_hull(points)
    for x, _ in points:
        assert env.value_at(x) == chord_value_at(env, x)


@settings(max_examples=200, deadline=None)
@given(hull_inputs(), st.integers(1, 4))
def test_terms_hull_equals_the_fraction_adapter(points, k):
    # unreduced terms (every numerator and denominator times k) give the same envelope
    points = [(Fraction(x), Fraction(y)) for x, y in points]
    env = Envelope([(x.numerator * k, x.denominator * k, y.numerator * k, y.denominator * k) for x, y in points])
    assert env == lower_convex_envelope(points)
    d, xs = env.x_den, env.xs
    assert d > 0 and [Fraction(x, d) for x in xs] == [x for x, _ in env.breakpoints]
    assert math.gcd(d, *xs) == 1 and env.y_den > 0 and math.gcd(env.y_den, *env.ys) == 1
    for x, _ in points:
        n, e = env.value_terms(x.numerator * k, x.denominator * k)
        assert e > 0 and Fraction(n, e) == env.value_at(x) == chord_value_at(env, x)


def test_equal_breakpoints_give_equal_envelopes():
    # the dropped points (1/2, 3/2) and (1/3, 5) and the unreduced terms widen
    # the common denominators the hull starts from, not the envelope's
    plain = lower_convex_envelope([(0, 2), (1, 0)])
    wider = Envelope([(0, 6, 4, 2), (1, 2, 3, 2), (1, 3, 5, 1), (3, 3, 0, 7)])
    assert wider.breakpoints == plain.breakpoints
    assert wider == plain and hash(wider) == hash(plain)
    assert (wider.x_den, wider.xs, wider.y_den, wider.ys) == (1, (0, 1), 1, (2, 0))


def test_every_envelope_is_built_canonical():
    # breakpoints (0, 2), (1, 0) given over x denominator 2 keep the least one, 1;
    # x values 0, 1, 2 over y values 0, 0 are a chord, so its middle goes
    halves = Envelope([(0, 2, 2, 1), (2, 2, 0, 1)])
    assert (halves.x_den, halves.xs, halves.y_den, halves.ys) == (1, (0, 1), 1, (2, 0))
    plain = Envelope([(0, 1, 2, 1), (1, 1, 0, 1)])
    assert halves == plain and hash(halves) == hash(plain)
    flat = Envelope([(0, 1, 0, 1), (1, 1, 0, 1), (2, 1, 0, 1)])
    assert (flat.x_den, flat.xs, flat.y_den, flat.ys) == (1, (0, 2), 1, (0, 0))
    assert len(flat.breakpoints) == len(flat.xs) == len(flat.ys) == 2
    assert flat == Envelope([(2, 1, 0, 3), (0, 5, 0, 1)])
    for point in ((0, 0, 1, 1), (0, 1, 1, 0), (0, -1, 1, 1), (0, 1, 1, -2)):
        with pytest.raises(ValueError, match="^point denominators must be positive$"):
            Envelope([(1, 1, 0, 1), point])



def test_value_terms_outside_the_domain_names_x():
    env = lower_convex_envelope([(0, 2), (Fraction(3, 2), 0)])
    for p, q in ((-1, 2), (4, 2), (3, 1), (-2, 4)):
        with pytest.raises(ValueError, match=re.escape(f"x={Fraction(p, q)} outside envelope domain [0, 3/2]")):
            env.value_terms(p, q)
    # the segment is (6 - 4x) / 3; at x = p/q the pair is (6q - 4p, 3q), unreduced
    assert env.value_terms(6, 4) == (0, 12) and env.value_terms(0, 3) == (18, 9)


@pytest.mark.parametrize("x_num, x_den", [(-1, -1), (-3, -2), (1, 0), (0, 0)])
def test_value_terms_refuses_a_denominator_below_one(x_num, x_den):
    # -1/-1 and -3/-2 lie inside the domain [0, 2]; the pair is refused, not misplaced
    env = lower_convex_envelope([(0, 2), (2, 0)])
    with pytest.raises(ValueError, match=f"^x denominator {x_den} is not positive$"):
        env.value_terms(x_num, x_den)


def test_terms_hull_rejects_no_points():
    with pytest.raises(ValueError, match="^need at least one point$"):
        Envelope([])


@settings(max_examples=300, deadline=None)
@given(st.one_of(_points, hull_inputs()))
def test_segment_forms_reduced_and_through_breakpoints(points):
    assert_segment_forms(lower_convex_envelope(points))


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(1, 10**6), st.integers(-10**6, 10**6), st.integers(1, 10**6))
def test_fraction_addition_cross_multiplication(a, b, c, d):
    assert Fraction(a, b) + Fraction(c, d) == Fraction(a * d + c * b, b * d)
