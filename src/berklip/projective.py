"""Points of the rational projective line and the chordal metric.

A point is a homogeneous pair x = (x0, x1), x0/x1 the point, (1, 0) (or
any (k, 0), k != 0) infinity.  The chordal (spherical) metric is

    ||x, y|| = |x0 y1 - x1 y0| / (max(|x0|, |x1|) * max(|y0|, |y1|)),

independent of the scaling of either pair (Baker and Rumely, *Potential
Theory and Dynamics on the Berkovich Projective Line*; Rumely and
Winburn, arXiv:1512.01136).  It is carried in log form:
``spherical_ord(p, x, y)`` returns the exponent t with ||x, y|| =
p^(-t), so t = +infinity exactly when x = y.  On integer pairs the
ultrametric max is the absolute value of the gcd, so every distance is
one valuation, taken by the one distance kernel, ``_sph_pair_ord``, of
the cross product over the product of the two gcds (``_cross_ord`` takes
that product from a caller that keeps each pair's gcd); ``Ord`` wraps its
result only at the public boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .valued import ORD_INF, Ord, int_val, format_fraction, parse_fraction

__all__ = ["ProjPoint", "INF_POINT", "spherical_ord"]


class ProjPoint(NamedTuple):
    """A point of P1(QQ): a finite rational z, or the point at infinity."""

    z: Fraction | None  # None encodes infinity

    @staticmethod
    def of(value) -> "ProjPoint":
        return ProjPoint(Fraction(value))

    @property
    def is_inf(self) -> bool:
        return self.z is None

    @staticmethod
    def parse(s: str) -> "ProjPoint":
        if isinstance(s, str) and s.strip() in ("inf", "Inf", "INF", "oo"):
            return INF_POINT
        return ProjPoint(parse_fraction(s))

    def __str__(self) -> str:
        return "inf" if self.z is None else format_fraction(self.z)

    def __repr__(self) -> str:
        return f"ProjPoint({self})"


INF_POINT = ProjPoint(None)


def _vord(x: Fraction, p: int) -> int | None:
    """Plain valuation as an int, None for 0 (internal fast form)."""
    n = x.numerator
    if not n:
        return None
    return int_val(n, p) - int_val(x.denominator, p)


def _sph_pair_ord(p: int, un: int, ud: int, vn: int, vd: int) -> int | None:
    """The chordal distance kernel on homogeneous integer pairs (num, den),
    (k, 0) for infinity: ord((un vd - vn ud) / (gcd(un, ud) gcd(vn, vd))),
    None for equal points.  The pairs need not be reduced.

    * For integers a, b not both 0, max(|a|, |b|) = |gcd(a, b)| in the
      p-adic absolute value: ord gcd(a, b) = min(ord a, ord b).  So the
      quotient has the absolute value of the chordal metric.
    * The division is exact: gcd(un, ud) gcd(vn, vd) divides both un vd
      and vn ud, hence their difference.
    * The result is >= 0: it is min(ord un, ord ud) + min(ord vn, ord vd)
      subtracted from ord(un vd - vn ud), which is at least
      min(ord un + ord vd, ord vn + ord ud), itself at least that sum.
    * (0, 0) is not a point, and no caller passes it: every source pair
      has a denominator >= 1 (in the inverted chart, a numerator >= 1),
      and the forms F and G of a map are coprime, so they never vanish
      together at such a pair.

    The valuation is ``_cross_ord``'s, which takes the gcd product c as
    given, so a caller holding the gcd of each pair pays it once.
    """
    return _cross_ord(p, un, ud, vn, vd, gcd(un, ud) * gcd(vn, vd))


def _cross_ord(p: int, un: int, ud: int, vn: int, vd: int, c: int) -> int | None:
    """ord((un vd - vn ud) / c), None when the numerator is 0, for c the
    product gcd(un, ud) gcd(vn, vd): the chordal distance of
    ``_sph_pair_ord``, whose docstring proves it."""
    num = un * vd - vn * ud
    if not num:
        return None
    return int_val(num // c, p)


def _num_den(x: ProjPoint) -> tuple[int, int]:
    """(num, den) of a point, (1, 0) for infinity."""
    return (1, 0) if x.z is None else (x.z.numerator, x.z.denominator)


def spherical_ord(p: int, x: ProjPoint, y: ProjPoint) -> Ord:
    """log-form chordal distance: dist(x, y) = p^(-result), always >= 0,
    +infinity iff the points coincide (see ``_sph_pair_ord``)."""
    s = _sph_pair_ord(p, *_num_den(x), *_num_den(y))
    return ORD_INF if s is None else Ord.of(s)
