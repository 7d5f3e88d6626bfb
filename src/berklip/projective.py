"""Points of the rational projective line and the spherical metric.

The spherical metric is carried in log form: ``spherical_ord(p, x, y)``
returns the exponent t with dist(x, y) = p^(-t), so t = +infinity exactly
when x = y.  Valuations of rationals are integers, and the one distance
kernel, ``_sph_pair_ord``, runs on integer numerators and denominators;
``Ord`` wraps its result only at the public boundary.
"""

from __future__ import annotations

from fractions import Fraction
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
    """The spherical distance kernel on projective integer pairs (num, den),
    a zero denominator encoding infinity; None means equal points.

    Case split: |x - y| when both points sit in the closed unit disc,
    |1/x - 1/y| when both sit outside, and 1 otherwise; for two finite
    points this is |x - y| / (max(1, |x|) * max(1, |y|)).  The result is
    never negative (spherical distances are at most 1): for two finite
    points, v(un vd - vn ud) >= min(v un, v ud) + min(v vn, v vd), which
    is exactly what is subtracted; the infinity branch returns 0 or
    -v > 0.  The pairs need not be reduced.
    """
    if ud == 0 and vd == 0:
        return None
    if ud == 0 or vd == 0:
        n, d = (vn, vd) if ud == 0 else (un, ud)
        if n == 0:
            return 0
        v = int_val(n, p) - int_val(d, p)
        return -v if v < 0 else 0
    num = un * vd - vn * ud
    if num == 0:
        return None
    oud = int_val(ud, p)
    ovd = int_val(vd, p)
    s = int_val(num, p) - oud - ovd
    if un != 0:
        vx = int_val(un, p) - oud
        if vx < 0:
            s -= vx
    if vn != 0:
        vy = int_val(vn, p) - ovd
        if vy < 0:
            s -= vy
    return s


def _num_den(x: ProjPoint) -> tuple[int, int]:
    """(num, den) of a point, (1, 0) for infinity."""
    return (1, 0) if x.z is None else (x.z.numerator, x.z.denominator)


def spherical_ord(p: int, x: ProjPoint, y: ProjPoint) -> Ord:
    """log-form spherical distance: dist(x, y) = p^(-result), always >= 0,
    +infinity iff the points coincide (see ``_sph_pair_ord``)."""
    s = _sph_pair_ord(p, *_num_den(x), *_num_den(y))
    return ORD_INF if s is None else Ord.of(s)
