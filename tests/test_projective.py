"""Projective points, the spherical metric, and coordinate normalization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berklip.errors import ParseError
from berklip.projective import INF_POINT, ProjPoint, _vord, spherical_ord
from berklip.ratmap import mobius_apply
from berklip.sampling import DetRng, random_rational
from berklip.valued import Ord
from corpus import random_unimodular
from oracles import HomogCoords, ref_vord, unit_normalize

pts = st.fractions(min_value=-50, max_value=50, max_denominator=30)


def test_point_refuses_float_and_bool():
    """``ProjPoint.of`` refuses a float or a bool with the ``ParseError``
    of the other rational entry points, instead of reading 0.1 at its
    binary value (which made ``from_factored`` build a map with D = 2^55)
    or True as the point 1; ints, ``Fraction``s and "num/den" strings are
    kept."""
    for bad in (0.1, 2.0, True, False):
        with pytest.raises(ParseError, match=r"^a point must be rational, not (float|bool)$"):
            ProjPoint.of(bad)
    assert ProjPoint.of(1) == ProjPoint.of(Fraction(1)) == ProjPoint(Fraction(1))
    assert ProjPoint.of("-1/3") == ProjPoint(Fraction(-1, 3))
    half = Fraction(1, 2)
    assert ProjPoint.of(half).z is half


def test_ord_refuses_float_and_bool():
    """``Ord.of`` refuses a float or a bool with the ``ParseError`` of the
    other rational entry points, so an ``Ord`` compared with a float, or
    added to or scaled by one, raises instead of comparing or computing
    in binary floating point; ints and ``Fraction``s are kept."""
    for bad in (0.5, 2.0, True, False):
        with pytest.raises(ParseError, match=r"^a valuation must be rational, not (float|bool)$"):
            Ord.of(bad)
        with pytest.raises(ParseError):
            Ord.of(0) <= bad
        with pytest.raises(ParseError):
            Ord.of(1) + bad
        with pytest.raises(ParseError, match=r"^a factor must be rational"):
            Ord.of(1) * bad
    assert type(Ord.of(3).v) is int and Ord.of(3) == Ord.of(Fraction(3)) == 3
    half = Fraction(1, 2)
    assert Ord.of(half).v is half
    assert Ord.of(half) <= half < Ord.of(1)


def test_spherical_examples():
    assert spherical_ord(3, ProjPoint.of(0), INF_POINT) == Ord.of(0)
    x, y = ProjPoint.of(Fraction(1, 3)), ProjPoint.of(Fraction(-1, 3))
    assert spherical_ord(3, x, y) == Ord.of(1)
    assert spherical_ord(3, ProjPoint.of(3), ProjPoint.of(0)) == Ord.of(1)
    assert spherical_ord(3, x, x).is_inf
    assert spherical_ord(3, INF_POINT, INF_POINT).is_inf
    # one point far outside the unit disc
    assert spherical_ord(3, ProjPoint.of(Fraction(1, 9)), INF_POINT) == Ord.of(2)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 97]),
    u=st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4),
    k=st.integers(-40, 40),
)
def test_vord_is_the_reference_valuation_as_an_int(p, u, k):
    """_vord(x) is ord_p x as an int (None for 0), equal to the oracle's
    Fraction valuation, on rationals carrying p^k."""
    x = u * Fraction(p) ** k
    v = _vord(x, p)
    assert v == ref_vord(x, p)
    assert v is None if x == 0 else type(v) is int


@given(pts, pts)
@settings(max_examples=150, deadline=None)
def test_spherical_symmetric_nonnegative(a, b):
    p = 3
    x, y = ProjPoint.of(a), ProjPoint.of(b)
    s = spherical_ord(p, x, y)
    assert s == spherical_ord(p, y, x)
    assert s >= Ord.of(0)


@given(pts, pts, pts)
@settings(max_examples=150, deadline=None)
def test_spherical_ultrametric(a, b, c):
    p = 5
    x, y, z = ProjPoint.of(a), ProjPoint.of(b), ProjPoint.of(c)
    # dist(x,z) <= max(dist(x,y), dist(y,z)) <=> ord >= min of ords
    assert spherical_ord(p, x, z) >= min(
        spherical_ord(p, x, y), spherical_ord(p, y, z)
    )


def test_spherical_unimodular_invariance():
    p = 3
    rng = DetRng(99)
    mats = [random_unimodular(rng) for _ in range(20)]
    for _ in range(500):
        x = ProjPoint.of(random_rational(rng, p))
        y = ProjPoint.of(random_rational(rng, p))
        s = spherical_ord(p, x, y)
        mat = mats[rng.randint(0, 19)]
        assert spherical_ord(p, mobius_apply(mat, x), mobius_apply(mat, y)) == s


def test_unit_normalize_examples():
    p = 3
    h = unit_normalize(p, HomogCoords(Fraction(1, 3), Fraction(1)))
    assert (h.x, h.y) == (Fraction(1), Fraction(3))
    h = unit_normalize(p, HomogCoords(Fraction(9), Fraction(3)))
    assert (h.x, h.y) == (Fraction(3), Fraction(1))
    h = unit_normalize(p, HomogCoords(Fraction(0), Fraction(5)))
    assert (h.x, h.y) == (Fraction(0), Fraction(5))
    with pytest.raises(ParseError):
        HomogCoords(Fraction(0), Fraction(0))


def test_projpoint_parse_round_trip():
    for s in ["inf", "3/4", "-7", "0"]:
        assert str(ProjPoint.parse(s)) == s
