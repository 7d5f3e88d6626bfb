"""Berkovich points of types I and II over QQ, their metrics, and the
action of a rational map on discs.

A type II point is a disc D(a, r) with rational center a and radius
r = p^(-t), t rational; it is stored as (center, radius_ord=t).  Distinct
(center, t) pairs can name the same point, so identity is the predicate
:func:`berk_equal`, never record equality.

The pushforward of a disc point reads the image off the Taylor shift to
its center: at a radius r, let j be the first index where the shifted
denominator's term |g_j| r^j is largest.  Then the image is the disc
about the same-index ratio w = f_j/g_j whose radius exponent is
s(f - w g) - s(g), s the seminorm exponent at the point (proof in
``push_forward``).  A pole as center and an image outside the unit disc
need no case of their own.  The shift is read one final coefficient at
a time and cut at the first index no later term can undercut, so most
pushforwards never finish it.  The result is validated against a
brute-force sampling oracle, an independent candidate-scan reference
and the whole-shift record in the test suite; see tests/oracles.py.

The radial profile reads the same theorem on a whole interval of radii:
on each piece of the denominator's envelope one index j is dominant, so
the one ratio f_j/g_j centers the image all along the piece
(``radial_profile`` in ``lipschitz``).

Every seminorm is read from the integer numerators of a shift to a
center u/v of the map's integer pair (F, G), kept on the map since its
construction: each valuation is ord_p of an integer plus a multiple of
ord_p v.  Both readers take the shift in index order through
``_Passes``, the pushforward only as far as it must and the radial
profile whole.  Both only compare seminorms of one shift with each
other, so the offset shared by all its coefficients is never needed.
A center is carried as the unreduced ratio qf[j]/qg[j], with the ords
of its numerator and denominator, which the shift already holds: the
seminorms of f - w g read from (wn, wd) do not change when both are
scaled by a common factor, so a center is reduced only when its image
disc is built.

Line j of f - w g, less ord wd, is the ord of wd*qf[j] - wn*qg[j] less
ord wd: its two terms have ords ord qf[j] and ord qg[j] + delta, with
delta = ord wn - ord wd.  Where these differ the line is the smaller one
exactly, since ord(X - Y) = min(ord X, ord Y) whenever ord X != ord Y
(the ultrametric inequality is an equality then); only where they tie is
the numerator subtracted and valued.  ``_diff_ord`` is the one statement
of this tie rule, and it serves the pushforward's scan and the
profile's lines.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import DegenerateMapError
from .polynomials import taylor_shift
from .projective import INF_POINT, ProjPoint, _vord
from .valued import ORD_INF, Ord, PPowerSum, format_fraction, int_val, ppow_normalize

__all__ = [
    "BerkPoint",
    "gauss_point",
    "berk_equal",
    "diam_gauss",
    "join_gauss",
    "d_metric",
    "iota",
    "push_forward",
]


class BerkPoint(NamedTuple):
    """A classical point of P1(QQ) or a disc point zeta_{a, p^(-t)}."""

    pt: ProjPoint | None  # set for type I
    center: Fraction | None  # set for type II
    radius_ord: Fraction | None  # t with r = p^(-t), set for type II

    @staticmethod
    def classical(pt: ProjPoint) -> "BerkPoint":
        return BerkPoint(pt, None, None)

    @staticmethod
    def disc(center, radius_ord) -> "BerkPoint":
        return BerkPoint(None, Fraction(center), Fraction(radius_ord))

    @property
    def is_classical(self) -> bool:
        return self.pt is not None

    def __str__(self) -> str:
        if self.is_classical:
            return str(self.pt)
        return f"zeta({format_fraction(self.center)}, t={format_fraction(self.radius_ord)})"

    def __repr__(self) -> str:
        return f"BerkPoint({self})"


def gauss_point() -> BerkPoint:
    """The point of the closed unit disc, zeta_{0,1}."""
    return BerkPoint.disc(0, 0)


def berk_equal(p: int, x: BerkPoint, y: BerkPoint) -> bool:
    """Identity of points: equal radius exponent and center distance within."""
    if x.is_classical != y.is_classical:
        return False
    if x.is_classical:
        return x.pt == y.pt
    if x.radius_ord != y.radius_ord:
        return False
    v = _vord(x.center - y.center, p)
    return v is None or v >= x.radius_ord


# ---------------------------------------------------------------------------
# diameters and the tree metrics
# ---------------------------------------------------------------------------


def _diam_gauss_frac(p: int, center: Fraction, t: Fraction) -> Fraction:
    """Exponent s with diam_G = p^(-s) for a disc point: r / max(1,|a|,r)^2."""
    va = _vord(center, p)
    m = min(0, t) if va is None else min(0, va, t)
    return t - 2 * m


def diam_gauss(p: int, x: BerkPoint) -> Ord:
    """Diameter relative to the Gauss point in log form; s = 0 iff x is the
    Gauss point, +infinity iff x is classical."""
    if x.is_classical:
        return ORD_INF
    return Ord.of(_diam_gauss_frac(p, x.center, x.radius_ord))


def _in_unit_region(p: int, x: BerkPoint) -> bool:
    """Whether x lies in the closed unit Berkovich disc (incl. the Gauss
    point); the complement is the direction of infinity."""
    if x.is_classical:
        if x.pt.is_inf:
            return False
        v = _vord(x.pt.z, p)
        return v is None or v >= 0
    if x.radius_ord < 0:
        return False
    v = _vord(x.center, p)
    return v is None or v >= 0


def iota(p: int, x: BerkPoint) -> BerkPoint:
    """Inversion z -> 1/z on points: zeta_{a,r} -> zeta_{0,1/r} when
    |a| <= r, else zeta_{1/a, r/|a|^2}."""
    if x.is_classical:
        if x.pt.is_inf:
            return BerkPoint.classical(ProjPoint.of(0))
        if x.pt.z == 0:
            return BerkPoint.classical(INF_POINT)
        return BerkPoint.classical(ProjPoint.of(1 / x.pt.z))
    a, t = x.center, x.radius_ord
    va = _vord(a, p)
    if va is None or va >= t:
        return BerkPoint.disc(Fraction(0), -t)
    return BerkPoint.disc(1 / a, t - 2 * va)


def _position(x: BerkPoint) -> tuple[Fraction, Fraction | None]:
    """(center, radius_ord) with None radius for classical finite points."""
    if x.is_classical:
        return x.pt.z, None
    return x.center, x.radius_ord


def join_gauss(p: int, x: BerkPoint, y: BerkPoint) -> BerkPoint:
    """First common point of the paths from x and from y to the Gauss point."""
    if berk_equal(p, x, y):
        return x
    in_x = _in_unit_region(p, x)
    in_y = _in_unit_region(p, y)
    if in_x != in_y:
        return gauss_point()
    if not in_x:
        return iota(p, join_gauss(p, iota(p, x), iota(p, y)))
    ax, tx = _position(x)
    ay, ty = _position(y)
    cands = [t for t in (tx, ty) if t is not None]
    vd = _vord(ax - ay, p)
    if vd is not None:
        cands.append(vd)
    s = min(cands)
    return BerkPoint.disc(ax, s)


def d_metric(p: int, x: BerkPoint, y: BerkPoint) -> PPowerSum:
    """Path-distance metric 2*diam_G(join) - diam_G(x) - diam_G(y), exact.

    Supported domain: pairs whose finite diam_G exponents (of x, y and
    their join toward the Gauss point) differ by integers, for instance
    any two points of integer radius exponent.  Only then is the distance
    a sum of p-powers with positive coefficients: 1 - 3^(-1/2), the
    distance from zeta_{0, 3^(-1/2)} to the Gauss point, is not.  Other
    pairs raise ValueError.
    """
    j = join_gauss(p, x, y)
    sj = diam_gauss(p, j)
    terms = []
    if not sj.is_inf:
        terms.append((Fraction(2), -sj.frac))
    for s in (diam_gauss(p, x), diam_gauss(p, y)):
        if not s.is_inf:
            if (s.frac - sj.frac).denominator != 1:
                raise ValueError(
                    "d_metric: the diameter exponents of the points and their "
                    "join differ by a non-integer, so the distance is no "
                    "p-power sum with positive coefficients"
                )
            terms.append((Fraction(-1), -s.frac))
    return ppow_normalize(p, terms)


# ---------------------------------------------------------------------------
# the integer shift kernel, seminorms and the pushforward
# ---------------------------------------------------------------------------


def _scaled(c: list[int], v: int) -> list[int]:
    """c with coefficient j times v^(d-j), d = len(c) - 1: coefficient j of
    its shift by an integer u is the integer numerator q[j] of coefficient
    j of c(z + u/v), which is q[j] * v^(j-d)."""
    if v == 1:
        return c
    scaled, vpow = [], 1
    for x in reversed(c):
        scaled.append(x * vpow)
        vpow *= v
    return scaled[::-1]


class _Passes:
    """The integer numerators of c(z + u/v) and their ords, read on demand:
    ``at(i)`` runs the passes of ``taylor_shift`` up to i once and
    returns (q[i], ord q[i]), None for 0.

    With c the map's F or G over its denominator D, coefficient i of
    f(z + u/v) has ord ord q[i] + i*ord v - (d*ord v + ord D).  Readers
    compare seminorms of one shift only, so the bracket cancels."""

    def __init__(self, p: int, c: list[int], u: int, v: int):
        self.p, self.passes = p, taylor_shift(_scaled(c, v), u)
        self.read: list[tuple[int, int | None]] = []

    def at(self, i: int) -> tuple[int, int | None]:
        read = self.read
        while len(read) <= i:
            x = next(self.passes)
            read.append((x, int_val(x, self.p) if x else None))
        return read[i]


def _diff_ord(p: int, c, x: int, ox: int | None, y: int, oy: int | None) -> int | None:
    """The tie rule: line j of f - w*g less j*ord v and ord wd, for the
    shifted numerators x = qf[j], y = qg[j] with ords ox, oy and a center
    record c = (wn, wd, ord wn, ord wd) of w = wn/wd, wn = 0 as
    (0, 1, None, 0).  It is ord(wd*x - wn*y) - ord wd, None when that
    numerator is 0: min(ox, oy + delta), delta = ord wn - ord wd, where
    the two differ, and the numerator is subtracted and valued only where
    they tie (see the module docstring)."""
    if oy is None or c[2] is None:
        return ox
    oy += c[2] - c[3]
    if ox is None or oy < ox:
        return oy
    if ox < oy:
        return ox
    n = c[1] * x - c[0] * y
    return int_val(n, p) - c[3] if n else None


def _ratio_record(x: int, ox: int | None, y: int, oy: int) -> tuple[tuple, int]:
    """The center record (wn, wd, ord wn, ord wd) of w = x/y for shifted
    numerators x = qf[j], y = qg[j] != 0 with ords ox, oy, the zero record
    (0, 1, None, 0) when x = 0, and min(0, ord w), 0 for the zero record.
    The pair is kept unreduced and its sign as it is: ``_diff_ord`` reads
    w through wd*qf - wn*qg less ord wd, unchanged by a common factor."""
    if ox is None:
        return (0, 1, None, 0), 0
    return (x, y, ox, oy), min(0, ox - oy)


def push_forward(rmap, x: BerkPoint) -> BerkPoint:
    """Image of a disc point x = zeta_{a,r} under a RationalMap: the disc
    about w = f_j/g_j with radius exponent s(f - w g) - s(g), where f, g
    are the map's numerator and denominator shifted to a, s(h) is the
    seminorm exponent of h at x (|h|_x = p^(-s(h))), and j is the first
    index whose term |g_j| r^j is |g|_x.

    Proof.  phi(x) is a type II point zeta_{c,R} with c in C_p, and for
    every w, |T - w| at zeta_{c,R} is max(|w - c|, R) (Baker-Rumely,
    *Potential Theory and Dynamics on the Berkovich Projective Line*, AMS
    2010), so |f - w g|_x = |g|_x |phi - w|_x = |g|_x max(|w - c|, R).
    Take j with |g_j| r^j = |g|_x.  Coefficient j of f - c g is
    f_j - c g_j, and the Gauss seminorm is the largest term, so
    |f_j - c g_j| r^j <= |f - c g|_x = R |g|_x = R |g_j| r^j.  Dividing
    by |g_j| r^j, |w - c| <= R for w = f_j/g_j, so zeta_{w,R} = phi(x)
    and |f - w g|_x = R |g|_x.

    The argument needs no bound on |phi|_x, so no chart is needed, and
    it needs g_j != 0, not g(a) != 0, so a pole as center needs no
    recentering.  Both seminorms are read from the integer numerators
    qf, qg of the shift to a = u/v (``_scaled``), as td times their
    exponents less the common offset of the shift, which cancels in the
    difference: with t = tn/td and k = td*ord v + tn, term i of g is
    td*ord qg[i] + i*k and line i of f - w g is td*o + i*k, o the
    ``_diff_ord`` of the pair at i.

    The shift is read in index order and cut.  ``taylor_shift`` makes
    coefficient i final after pass i, so both scans read (qf[i], qg[i])
    in index order and stop once no later index can change their answer;
    stopping after index J costs about J*d steps, where the whole shift
    costs d^2/2.  Each numerator is an integer, so its ord is >= 0 and
    term l of g is >= l*k.  Line l of f - w g is
    >= min(0, delta)*td + l*k, delta = ord wn - ord wd (0 for the zero
    record): without a tie o = min(ord qf[l], ord qg[l] + delta) >=
    min(0, delta), and on a tie o >= ord qf[l] >= 0, since
    wd*qf[l] - wn*qg[l] has ord >= ord wd + ord qf[l] there.  So with
    B = 0 for g and B = min(0, delta)*td for f - w g, every term from
    index i on is >= B + i*k when k >= 0.  The g scan stops before index
    i once i*k >= the least term so far: no later term is strictly
    smaller, so the first minimising index j is final.  The f - w g scan
    stops once B + i*k >= the least line so far, which is then the least
    of all.  When k < 0, each term l < i read is >= B + l*k > B + i*k, so
    the least so far is above B + i*k and neither scan stops: every index
    is read, with no case of its own.
    """
    if x.is_classical:
        raise ValueError("push_forward expects a type II point")
    f, g = rmap.F, rmap.G
    if not any(f) or not any(g):
        raise DegenerateMapError("degenerate map")
    p, t, a = rmap.p, x.radius_ord, x.center
    tn, td = t.numerator, t.denominator
    u, v = a.numerator, a.denominator
    k = int_val(v, p) * td + tn
    f_at, g_at = _Passes(p, f, u, v).at, _Passes(p, g, u, v).at
    sg = j = None
    for i in range(len(g)):
        if sg is not None and i * k >= sg:
            break
        o = g_at(i)[1]
        if o is not None and (sg is None or o * td + i * k < sg):
            sg, j = o * td + i * k, i
    c, low = _ratio_record(*f_at(j), *g_at(j))
    low *= td
    s = None
    for i in range(len(f)):
        if s is not None and low + i * k >= s:
            break
        o = _diff_ord(p, c, *f_at(i), *g_at(i))
        if o is not None and (s is None or o * td + i * k < s):
            s = o * td + i * k
    if s is None:
        raise DegenerateMapError("degenerate map")
    return BerkPoint.disc(Fraction(c[0], c[1]), Fraction(s - sg, td))
