"""Points of the rational projective line and the spherical metric.

The spherical metric is carried in log form: ``spherical_ord(p, x, y)``
returns the exponent t with dist(x, y) = p^(-t), so t = +infinity exactly
when x = y.  This keeps every metric quantity an exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError
from .valued import ORD_INF, Ord, int_val, format_fraction, parse_fraction

__all__ = ["ProjPoint", "INF_POINT", "HomogCoords", "spherical_ord", "unit_normalize"]


@dataclass(frozen=True, slots=True)
class ProjPoint:
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


def _vord(x: Fraction, p: int) -> Fraction | None:
    """Plain valuation as a Fraction, None for 0 (internal fast form)."""
    if x == 0:
        return None
    return Fraction(int_val(abs(x.numerator), p) - int_val(x.denominator, p))


def spherical_ord(p: int, x: ProjPoint, y: ProjPoint) -> Ord:
    """log-form spherical distance: dist(x, y) = p^(-result).

    Case split: |x - y| when both points sit in the closed unit disc,
    |1/x - 1/y| when both sit outside, and 1 otherwise; for two finite
    points this is |x - y| / (max(1, |x|) * max(1, |y|)).  Always >= 0,
    +infinity iff the points coincide.
    """
    if x == y:
        return ORD_INF
    if x.is_inf or y.is_inf:
        z = y.z if x.is_inf else x.z
        vz = _vord(z, p)
        if vz is None or vz >= 0:
            return Ord.of(0)  # one inside the unit disc, one at infinity
        return Ord.of(-vz)
    vd = _vord(x.z - y.z, p)
    if vd is None:
        return ORD_INF
    vx = _vord(x.z, p)
    vy = _vord(y.z, p)
    s = vd
    if vx is not None and vx < 0:
        s -= vx
    if vy is not None and vy < 0:
        s -= vy
    return Ord.of(s)


@dataclass(frozen=True, slots=True)
class HomogCoords:
    """Nonzero homogeneous coordinates (X : Y) with rational entries."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        if self.x == 0 and self.y == 0:
            raise ParseError("homogeneous coordinates cannot both vanish")


def unit_normalize(p: int, h: HomogCoords) -> HomogCoords:
    """Scale by p^(-m), m the minimum coordinate valuation, so min ord = 0.

    Deterministic representative: only the p-power is removed, any unit
    content is kept.
    """
    vx = _vord(h.x, p)
    vy = _vord(h.y, p)
    m = min(v for v in (vx, vy) if v is not None)
    f = Fraction(p) ** int(-m)
    return HomogCoords(h.x * f, h.y * f)
