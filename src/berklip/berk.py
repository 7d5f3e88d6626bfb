"""Berkovich points of types I and II over QQ, their metrics, and the
action of a rational map on discs.

A type II point is a disc D(a, r) with rational center a and radius
r = p^(-t), t rational; it is stored as (center, radius_ord=t).  Distinct
(center, t) pairs can name the same point, so identity is the predicate
:func:`berk_equal`, never record equality.

The pushforward of a disc point computes the image point phi(zeta_{a,r})
through Taylor-shift seminorms: the image diameter is the minimum over
candidate centers w of the seminorm of (phi - w), the candidates being the
same-index ratios of shifted numerator/denominator coefficients plus 0.
Images larger than the unit disc are routed through the inversion chart.
The candidate-set construction is validated against a brute-force sampling
oracle in the test suite; see tests/oracles.py.

The scan over the candidates is pruned without changing its result.  In
the chart used, |f|_x <= |g|_x, so a ratio w with |w| > 1 gives
|f - w g|_x = |w| |g|_x > |f|_x = |f - 0 g|_x and can never win against
the candidate 0: such ratios are not built.  The seminorm of f - w g at x
is a minimum over lines and only a strictly larger value replaces the
best one, so a candidate is abandoned at its first line that is no larger
than the best so far.  The lines are read from two tables, those of f and
of g at the radius, built once per pushforward (see ``_push``).

Every seminorm is read from one integer kernel, :class:`Shift`: the shift
to a center u/v runs on the map's integer pair (F, G), kept on the map
since its construction, and each valuation is ord_p of an integer plus a
multiple of ord_p v.  The pushforward and the radial profiles only
compare seminorms of one shift with each other, so the offset shared by
all its coefficients is never needed.  The candidate centers are the
unreduced ratios qf[j]/qg[j], each carried with the ords of its numerator
and denominator, which the shift already holds: the seminorms of f - w g
read from (wn, wd) do not change when both are scaled by a common factor,
so only the winning center is reduced, when the image disc is built.

Line j of f - w g, less ord wd, is the ord of wd*qf[j] - wn*qg[j] less
ord wd: its two terms have ords ord qf[j] and ord qg[j] + delta, with
delta = ord wn - ord wd.  Where these differ the line is the smaller one
exactly, since ord(X - Y) = min(ord X, ord Y) whenever ord X != ord Y
(the ultrametric inequality is an equality then); only where they tie is
the numerator subtracted and valued (``Shift._tie_ord``).  So a candidate
costs no valuation of its own, and one integer product only on a tie.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DegenerateMapError, InternalInvariantError
from .polynomials import hom_eval, taylor_shift, trim
from .projective import INF_POINT, ProjPoint, _vord
from .valued import ORD_INF, Ord, PPowerSum, _ords, format_fraction, int_val, ppow_normalize

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


def _shift_ints(c: list[int], u: int, v: int) -> list[int]:
    """Integer numerators q of c(z + u/v): coefficient j of the shift is
    q[j] * v^(j-d), d = len(c) - 1."""
    if v != 1:
        scaled, vpow = [], 1
        for x in reversed(c):
            scaled.append(x * vpow)
            vpow *= v
        c = scaled[::-1]
    return taylor_shift(c, u)


def _lines(ords, ov: int) -> list[tuple[int, int]]:
    """Seminorm lines (j, ord q[j] + j*ov) of the nonzero numerators q[j]
    with the given ords: the line t -> ord(coefficient j) + j*t, up to the
    offset -d*ov."""
    return [(j, o + j * ov) for j, o in enumerate(ords) if o is not None]


class Shift(NamedTuple):
    """A map's pair (f, g) Taylor-shifted to a center u/v, kept as integers.

    With (F, G) the map's integer pair over its denominator D, coefficient
    j of f(z + u/v) is qf[j] * v^(j-d) / D, of ord
    ord qf[j] + j*ord v - (d*ord v + ord D); likewise for g.  Every reader
    compares seminorms of the same shift, so the common offset in brackets
    cancels and is never computed: neither D nor a normalization matters.
    """

    p: int
    ov: int  # ord_p v
    qf: list[int]
    qg: list[int]
    of: list[int | None]  # ord_p qf[j], None for 0
    og: list[int | None]

    @staticmethod
    def at(p: int, f: list[int], g: list[int], a: Fraction) -> "Shift":
        u, v = a.numerator, a.denominator
        qf, qg = _shift_ints(f, u, v), _shift_ints(g, u, v)
        return Shift(p, int_val(v, p), qf, qg, _ords(p, qf), _ords(p, qg))

    def swapped(self) -> "Shift":
        return Shift(self.p, self.ov, self.qg, self.qf, self.og, self.of)

    def f_lines(self) -> list[tuple[int, int]]:
        return _lines(self.of, self.ov)

    def g_lines(self) -> list[tuple[int, int]]:
        return _lines(self.og, self.ov)

    def _tie_ord(self, c, j: int) -> int | None:
        """The tie rule: ord_p of the numerator wd*qf[j] - wn*qg[j] less
        ord wd, None when it is 0, for a candidate record c whose two terms
        have the same ord at j (see the module docstring)."""
        wn, wd, _, owd = c
        x = wd * self.qf[j] - wn * self.qg[j]
        return int_val(x, self.p) - owd if x else None

    def diff_lines(self, c) -> list[tuple[int, int]]:
        """Seminorm lines (j, o) of f - w*g on the offset of f and g less
        ord wd, for a candidate record c = (wn, wd, ord wn, ord wd) of
        w = wn/wd (see ``candidates``); empty when f = w*g.  Line j is
        min(ord qf[j], ord qg[j] + delta) + j*ord v, delta = ord wn - ord
        wd, where the two differ, and ``_tie_ord`` where they tie."""
        ov = self.ov
        own, owd = c[2], c[3]
        delta = None if own is None else own - owd
        out = []
        for j, (x, y) in enumerate(zip(self.of, self.og)):
            if y is not None and delta is not None:
                y += delta
                if x is None or y < x:
                    x = y
                elif x == y:
                    x = self._tie_ord(c, j)
            if x is not None:
                out.append((j, x + j * ov))
        return out

    def candidates(self) -> list[tuple[int, int, int | None, int]]:
        """Candidate image centers in the closed unit disc, as records
        (wn, wd, ord wn, ord wd) of unreduced pairs with wd > 0: the
        same-index coefficient ratios qf[j]/qg[j] (= f_j/g_j) of ord >= 0
        in index order with the ords ``of[j]``, ``og[j]`` the shift holds,
        a zero ratio as (0, 1, None, 0), then (0, 1, None, 0) unless
        present.  Exact duplicates are dropped, but one ratio may appear in
        two unreduced forms.

        No gcd is needed.  The lines of f - w g are read through the
        numerators wd*qf[j] - wn*qg[j] less ord wd, unchanged when
        (wn, wd) is scaled by a common factor, so both forms of a ratio
        give the same lines.  A repeated ratio can then never strictly
        beat the best so far, which is at least its first form's
        seminorm, and adds nothing to a max of envelopes.

        A ratio with ord qf[j] < ord qg[j], that is |w| > 1, is left out,
        which needs no big-integer work: wherever |f|_x <= |g|_x, as in
        the chart the pushforward and the radial profile read it in, such
        a w has |f - w g|_x = |w| |g|_x > |f|_x, so the candidate 0 is
        strictly better and w is never a maximizer (see ``push_forward``).
        """
        zero = (0, 1, None, 0)
        out = {}
        for x, y, ox, oy in zip(self.qf, self.qg, self.of, self.og):
            if oy is None or (ox is not None and ox < oy):
                continue
            out.setdefault(zero if ox is None else (x, y, ox, oy) if y > 0 else (-x, -y, ox, oy))
        out.setdefault(zero)
        return list(out)


def _recenter(p: int, den: list[int], a: Fraction, t: Fraction) -> Fraction:
    """Replace the center by an equivalent one that is not a root of den.

    Candidates a + j * p^ceil(t) stay within the equality class of the
    point; den has at most deg(den) roots so a valid j exists.
    """
    if hom_eval(den, a.numerator, a.denominator) != 0:
        return a
    step = Fraction(p) ** math.ceil(t)
    for j in range(1, len(trim(den)) + 2):
        cand = a + j * step
        if hom_eval(den, cand.numerator, cand.denominator) != 0:
            return cand
    raise InternalInvariantError("recentering exhausted candidate offsets")


def push_forward(rmap, x: BerkPoint) -> BerkPoint:
    """Image of a disc point under a RationalMap.

    At the point x, in the chart where |f|_x <= |g|_x (else the image is
    computed for 1/phi and inverted back), the image is the disc D(w*,
    p^(-s*)), s* the largest seminorm exponent s(f - w g) - s(g) over the
    candidate centers w, the first maximizer in candidate order.  Two
    shortcuts leave that record unchanged:

    * candidates of ord w < 0 are never built: for them s(f - w g) =
      ord w + s(g) < s(g) <= s(f) = s(f - 0 g), and 0 is always a candidate;
    * s(f - w g) at x is a minimum over lines, and only a strictly larger
      value replaces the best so far, so a candidate is dropped as soon as
      one of its lines is <= the best value.  The best starts just below
      s(f), the value of the candidate 0, which no smaller value can beat.
      The lines whose terms have different ords are read first, from the
      line tables, and a tied line whose lower bound is no smaller than
      the minimum so far is not subtracted (see ``_push``).
    """
    if x.is_classical:
        raise ValueError("push_forward expects a type II point")
    f, g = rmap.F, rmap.G
    if not any(f) or not any(g):
        raise DegenerateMapError("degenerate map")
    return _push(rmap.p, f, g, x.center, x.radius_ord, 0)


def _push(p: int, f: tuple[int, ...], g: tuple[int, ...], a: Fraction, t: Fraction, depth: int,
          sh: Shift | None = None) -> BerkPoint:
    """``sh``, when given, is the swapped shift at ``a`` of the chart-swap
    recursion; it is kept unless recentering moves the center.  The
    winning candidate is reduced here, by ``Fraction``, and no other.

    With k = ord v * td + tn at t = tn/td, the line tables A_j = ord qf[j]
    * td + j*k and B_j = ord qg[j] * td + j*k are td times the lines of f
    and g at t up to the shift's offset, built once: s(f) = min A and
    s(g) = min B.  A candidate record (wn, wd, ord wn, ord wd) with
    delta = (ord wn - ord wd) * td reads line j of f - w g, less ord wd,
    as min(A_j, B_j + delta) wherever A_j != B_j + delta: the two terms
    wd*qf[j] and wn*qg[j] have different ords there, and the ord of their
    difference is the smaller one.  Only on a tie is the numerator
    wd*qf[j] - wn*qg[j] valued (``Shift._tie_ord``).  The candidate 0 is
    s(f) itself."""
    moved = _recenter(p, g, a, t)
    if sh is None or moved != a:
        sh = Shift.at(p, f, g, moved)
    tn, td = t.numerator, t.denominator
    k = sh.ov * td + tn
    fa = [None if o is None else o * td + j * k for j, o in enumerate(sh.of)]
    gb = [None if o is None else o * td + j * k for j, o in enumerate(sh.og)]
    sf = min(x for x in fa if x is not None)
    sg = min(y for y in gb if y is not None)
    if sf < sg:
        # image exceeds the unit disc: compute 1/phi and invert back
        if depth > 0:
            raise InternalInvariantError("chart swap did not stabilize")
        return iota(p, _push(p, g, f, moved, t, depth + 1, sh.swapped()))
    rows = [(j, x, y) for j, (x, y) in enumerate(zip(fa, gb)) if x is not None or y is not None]
    # s(f) = s(f - 0 g) is a candidate's value, so one below it never wins
    best = sf - 1
    best_w = None
    for c in sh.candidates():
        wn, wd, own, owd = c
        if own is None:
            if sf > best:
                best, best_w = sf, (wn, wd)
            continue
        delta = (own - owd) * td
        low = None
        tied = []
        for j, x, y in rows:
            if y is not None:
                y += delta
                if x is None or y < x:
                    x = y
                elif x == y:
                    tied.append((j, x))
                    continue
            if x <= best:
                break
            if low is None or x < low:
                low = x
        else:
            for j, x in tied:
                if low is not None and x >= low:
                    continue  # the line is x or more
                o = sh._tie_ord(c, j)
                if o is None:
                    continue
                x = o * td + j * k
                if x <= best:
                    break
                if low is None or x < low:
                    low = x
            else:
                if low is None:
                    raise DegenerateMapError("degenerate map")
                best, best_w = low, (wn, wd)
    return BerkPoint.disc(Fraction(*best_w), Fraction(best - sg, td))
