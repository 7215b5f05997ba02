"""The merge sweep behind the 1-D boolean operations, checked against the
quadratic code it replaced (``interval_oracle``) and against a return to
quadratic growth."""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import interval_oracle as oracle
from semilin import intervals as iv
from semilin.intervals import EMPTY, FULL, Interval, IntervalUnion
from semilin.rat import NEG_INF, POS_INF

BINARY = ["intersect", "union", "difference", "symmdiff"]

# few distinct endpoints, so the operands' parts often share one
ends = st.sampled_from([Fraction(n, 2) for n in range(-3, 4)])


@st.composite
def parts(draw):
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return Interval.point(draw(ends))
    if kind == 1:
        return Interval(NEG_INF, draw(ends), False, draw(st.booleans()))
    if kind == 2:
        return Interval(draw(ends), POS_INF, draw(st.booleans()), False)
    a, b = draw(ends), draw(ends)
    if a == b:
        return Interval.point(a)
    return Interval(min(a, b), max(a, b), draw(st.booleans()),
                    draw(st.booleans()))


unions = st.one_of(st.just(EMPTY), st.just(FULL),
                   st.lists(parts(), max_size=5).map(oracle.normalize))


def assert_same_as_oracle(x, y):
    for name in BINARY:
        got = getattr(iv, name)(x, y)
        assert got.parts == getattr(oracle, name)(x, y).parts, (name, x, y)
    assert iv.complement(x).parts == oracle.complement(x).parts, x


@settings(max_examples=500)
@given(unions, unions)
def test_boolean_ops_match_quadratic_oracle(x, y):
    assert_same_as_oracle(x, y)


def test_single_parts_with_shared_ends_match_oracle():
    """Every pair of one-part sets on the ends 0, 1, 2: points, bounded
    intervals and rays with each open/closed combination, EMPTY, FULL."""
    vals = [Fraction(0), Fraction(1), Fraction(2)]
    pieces = [Interval.point(v) for v in vals]
    for a, b in itertools.combinations(vals, 2):
        for lo_closed, hi_closed in itertools.product([False, True], repeat=2):
            pieces.append(Interval(a, b, lo_closed, hi_closed))
    for v in vals:
        for closed in (False, True):
            pieces.append(Interval(NEG_INF, v, False, closed))
            pieces.append(Interval(v, POS_INF, closed, False))
    sets = [EMPTY, FULL] + [IntervalUnion((p,)) for p in pieces]
    for x, y in itertools.product(sets, repeat=2):
        assert_same_as_oracle(x, y)


@given(st.lists(parts(), max_size=8))
def test_normalize_of_raw_parts_matches_oracle(raw):
    expected = oracle.normalize(raw).parts
    assert iv.normalize(raw).parts == expected
    assert iv.normalize(reversed(raw)).parts == expected


@settings(max_examples=300)
@given(unions, st.sampled_from([Fraction(n, d) for n in (-3, -1, 1, 2)
                                for d in (1, 3)]), ends)
def test_affine_image_matches_normalizing_oracle(x, q, a):
    """affine_op returns the image parts in order without re-normalizing;
    the oracle normalizes them."""
    assert iv.affine_op(x, q, a).parts == oracle.affine_op(x, q, a).parts


@given(unions)
def test_contains_matches_linear_scan(x):
    probes = {Fraction(-5), Fraction(5)}
    for p in x.parts:
        for e in (p.lo, p.hi):
            if isinstance(e, Fraction):
                probes.update((e, e - Fraction(1, 4), e + Fraction(1, 4)))
    for t in probes:
        assert x.contains(t) == any(p.contains(t) for p in x.parts), (x, t)


def test_comparisons_grow_linearly():
    """Each operation makes at most 30 endpoint comparisons per input part
    on two interleaved unions of 800 parts (the quadratic intersect made
    about a thousand)."""
    seen = []

    class Counted(Fraction):
        __hash__ = Fraction.__hash__

        def __lt__(self, other):
            seen.append(1)
            return Fraction.__lt__(self, other)

        def __gt__(self, other):
            seen.append(1)
            return Fraction.__gt__(self, other)

        def __le__(self, other):
            seen.append(1)
            return Fraction.__le__(self, other)

        def __ge__(self, other):
            seen.append(1)
            return Fraction.__ge__(self, other)

        def __eq__(self, other):
            seen.append(1)
            return Fraction.__eq__(self, other)

    n = 800

    def union_from(offset):
        return IntervalUnion(tuple(
            Interval(Counted(4 * k + offset), Counted(4 * k + offset + 2),
                     k % 2 == 0, k % 3 == 0) for k in range(n)))

    x, y = union_from(0), union_from(1)
    for name in BINARY:
        seen.clear()
        result = getattr(iv, name)(x, y)
        assert result.parts, name
        assert len(seen) <= 30 * 2 * n, (name, len(seen))
    seen.clear()
    iv.complement(x)
    assert len(seen) <= 30 * n, ("complement", len(seen))
