"""Exact piecewise-linear functions of one rational variable.

Seminorms of shifted polynomials along a radial path are lower envelopes of
lines t -> ord(c_i) + i*t, and every quantity derived from them (image
diameters, chart-swap indicators, diameter profiles) stays piecewise linear
with rational breakpoints.  This module provides that calculus: envelopes
of line families, pointwise min/max/sum of two functions, sign partitions,
and exact equality sets of two functions (by one merge walk over their
pieces, without forming the difference) with the intersection of such
interval lists.  The envelope takes integer lines (integer slopes i,
integer intercepts: valuations of integer numerators), builds its hull and
clips it to the domain in integers; the functions it returns, and all
arithmetic on them, are Fraction-exact.

Domains are intervals [lo, hi] where either end may be None (unbounded).
A function is stored as contiguous pieces (start, slope, intercept); piece
i is in force from its start up to the next piece's start (through hi for
the last piece).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = ["PWLinear", "lower_envelope", "intersect_intervals"]

_Bound = Fraction | None


@dataclass(frozen=True, slots=True)
class PWLinear:
    """Continuous piecewise-linear function on [lo, hi]."""

    lo: _Bound
    hi: _Bound
    pieces: tuple[tuple[_Bound, Fraction, Fraction], ...]  # (start, slope, icept)

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("PWLinear needs at least one piece")

    # -- basic queries -----------------------------------------------------

    def __call__(self, t) -> Fraction:
        t = Fraction(t)
        k, c = self._line_at(t)
        return k * t + c

    def _line_at(self, t: Fraction) -> tuple[Fraction, Fraction]:
        chosen = self.pieces[0]
        for piece in self.pieces[1:]:
            if piece[0] is not None and piece[0] <= t:
                chosen = piece
            else:
                break
        return chosen[1], chosen[2]

    def spans(self) -> list[tuple[_Bound, _Bound, Fraction, Fraction]]:
        """Pieces as (start, end, slope, intercept) with explicit ends."""
        out = []
        for i, (start, k, c) in enumerate(self.pieces):
            end = self.pieces[i + 1][0] if i + 1 < len(self.pieces) else self.hi
            out.append((start, end, k, c))
        return out

    def _sample_point(self, start: _Bound, end: _Bound) -> Fraction:
        if start is None and end is None:
            return Fraction(0)
        if start is None:
            return end - 1
        if end is None:
            return start + 1
        return (start + end) / 2

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def line(k, c, lo: _Bound, hi: _Bound) -> "PWLinear":
        return PWLinear(lo, hi, ((lo, Fraction(k), Fraction(c)),))

    @staticmethod
    def const(c, lo: _Bound, hi: _Bound) -> "PWLinear":
        return PWLinear.line(0, c, lo, hi)

    def simplified(self) -> "PWLinear":
        merged = [self.pieces[0]]
        for start, k, c in self.pieces[1:]:
            if merged[-1][1] == k and merged[-1][2] == c:
                continue
            merged.append((start, k, c))
        return PWLinear(self.lo, self.hi, tuple(merged))

    # -- arithmetic ---------------------------------------------------------

    def _aligned(self, other: "PWLinear"):
        if self.lo != other.lo or self.hi != other.hi:
            raise ValueError("domain mismatch")
        starts: list[_Bound] = []
        for f in (self, other):
            for start, _, _ in f.pieces:
                if start is not None and start not in starts:
                    starts.append(start)
        starts.sort()
        if self.lo is not None and self.lo in starts:
            starts.remove(self.lo)
        cuts: list[_Bound] = [self.lo] + starts
        out = []
        for i, s in enumerate(cuts):
            e = cuts[i + 1] if i + 1 < len(cuts) else self.hi
            t = self._sample_point(s, e)
            k1, c1 = self._line_at(t)
            k2, c2 = other._line_at(t)
            out.append((s, e, k1, c1, k2, c2))
        return out

    def _binary(self, other: "PWLinear", mode: str) -> "PWLinear":
        pieces: list[tuple[_Bound, Fraction, Fraction]] = []
        for s, e, k1, c1, k2, c2 in self._aligned(other):
            if mode == "add":
                pieces.append((s, k1 + k2, c1 + c2))
                continue
            if mode == "sub":
                pieces.append((s, k1 - k2, c1 - c2))
                continue
            # min / max may need one interior split where the lines cross
            segs: list[tuple[_Bound, Fraction, Fraction, Fraction, Fraction]]
            if k1 == k2:
                segs = [(s, k1, c1, k2, c2)]
            else:
                t_cross = (c2 - c1) / (k1 - k2)
                inside = (s is None or s < t_cross) and (e is None or t_cross < e)
                if inside:
                    segs = [(s, k1, c1, k2, c2), (t_cross, k1, c1, k2, c2)]
                else:
                    segs = [(s, k1, c1, k2, c2)]
            for j, (s2, a1, b1, a2, b2) in enumerate(segs):
                e2 = segs[j + 1][0] if j + 1 < len(segs) else e
                t = self._sample_point(s2, e2)
                v1, v2 = a1 * t + b1, a2 * t + b2
                take_first = v1 <= v2 if mode == "min" else v1 >= v2
                pieces.append((s2, a1, b1) if take_first else (s2, a2, b2))
        return PWLinear(self.lo, self.hi, tuple(pieces)).simplified()

    def __add__(self, other: "PWLinear") -> "PWLinear":
        return self._binary(other, "add")

    def __sub__(self, other: "PWLinear") -> "PWLinear":
        return self._binary(other, "sub")

    def min_with(self, other: "PWLinear") -> "PWLinear":
        return self._binary(other, "min")

    def max_with(self, other: "PWLinear") -> "PWLinear":
        return self._binary(other, "max")

    # -- root structure ------------------------------------------------------

    def equal_set(self, other: "PWLinear") -> list[tuple[_Bound, _Bound]]:
        """Closed maximal intervals (possibly degenerate) of the domain
        where the function equals ``other``, in ascending order.

        One merge walk over both piece lists: on each stretch between
        consecutive breakpoints of either function both are single lines,
        which agree on the whole stretch, at one point, or nowhere.  An
        unbounded interval of agreement is reported with a None end.
        """
        if self.lo != other.lo or self.hi != other.hi:
            raise ValueError("domain mismatch")
        a, b = self.pieces, other.pieces
        i = j = 0
        start = self.lo
        raw: list[tuple[_Bound, _Bound]] = []
        while True:
            # the pieces in force on [start, end]: the last ones starting
            # at or before start, as in _line_at
            if start is not None:
                while i + 1 < len(a) and a[i + 1][0] <= start:
                    i += 1
                while j + 1 < len(b) and b[j + 1][0] <= start:
                    j += 1
            end_a = a[i + 1][0] if i + 1 < len(a) else self.hi
            end_b = b[j + 1][0] if j + 1 < len(b) else self.hi
            end = end_a if end_b is None or (end_a is not None and end_a <= end_b) else end_b
            _, k1, c1 = a[i]
            _, k2, c2 = b[j]
            if k1 == k2:
                if c1 == c2:
                    raw.append((start, end))
            else:
                root = (c2 - c1) / (k1 - k2)
                if (start is None or start <= root) and (end is None or root <= end):
                    raw.append((root, root))
            if i + 1 == len(a) and j + 1 == len(b):
                break
            start = end
        # raw is ascending, one entry per stretch; join the touching ones
        merged: list[list[_Bound]] = []
        for s, e in raw:
            if merged:
                pe = merged[-1][1]
                if pe is None or s is None or s <= pe:
                    if pe is not None and (e is None or e > pe):
                        merged[-1][1] = e
                    continue
            merged.append([s, e])
        return [(s, e) for s, e in merged]

    def negative_regions(self) -> list[tuple[_Bound, _Bound]]:
        """Maximal open-ish subintervals where the function is < 0.

        Returned as closed interval data (a, b); the function is strictly
        negative on the interior and <= 0 at finite, in-domain endpoints.
        """
        cuts: list[_Bound] = [self.lo]
        for start, end, k, c in self.spans():
            if start is not None and start != self.lo and start not in cuts:
                cuts.append(start)
            if k != 0:
                root = -c / k
                inside = (start is None or start < root) and (end is None or root < end)
                if inside:
                    cuts.append(root)
        uniq = cuts  # built in ascending span order
        regions: list[tuple[_Bound, _Bound]] = []
        for i, s in enumerate(uniq):
            e = uniq[i + 1] if i + 1 < len(uniq) else self.hi
            if s is not None and e is not None and s == e:
                continue
            t = self._sample_point(s, e)
            if self(t) < 0:
                if regions and regions[-1][1] == s:
                    regions[-1] = (regions[-1][0], e)
                else:
                    regions.append((s, e))
        return regions


def lower_envelope(lines, lo: _Bound, hi: _Bound) -> PWLinear:
    """Pointwise minimum of a finite family of integer lines (slope,
    intercept), restricted to [lo, hi].

    The hull and its clipping to [lo, hi] run in integers; only the pieces
    in force on [lo, hi] are emitted, as Fractions, so that crossings of
    later sums and differences stay exact.
    """
    best: dict[int, int] = {}
    for k, c in lines:
        if k not in best or c < best[k]:
            best[k] = c
    if not best:
        raise ValueError("empty line family")
    hull: list[tuple[int, int]] = []
    for k, c in sorted(best.items(), reverse=True):  # slopes descending
        while len(hull) >= 2:
            k1, c1 = hull[-2]
            k2, c2 = hull[-1]
            # middle line never minimal if new line overtakes l1 no later
            # than l2 did: (c-c1)/(k1-k) <= (c2-c1)/(k1-k2)
            if (c - c1) * (k1 - k2) <= (c2 - c1) * (k1 - k):
                hull.pop()
            else:
                break
        hull.append((k, c))
    # hull[i] is in force from the crossing with hull[i-1] to the crossing
    # with hull[i+1], (c' - c)/(k - k') with k > k'; clip in integers to
    # the lines in force on [lo, hi], taking the later line at a crossing
    # that equals lo (as _line_at does)
    i = 0
    if lo is not None:
        ln, ld = lo.numerator, lo.denominator
        while i + 1 < len(hull):
            (k1, c1), (k2, c2) = hull[i], hull[i + 1]
            if (c2 - c1) * ld > ln * (k1 - k2):
                break
            i += 1
    pieces: list[tuple[_Bound, Fraction, Fraction]] = [
        (lo, Fraction(hull[i][0]), Fraction(hull[i][1]))
    ]
    if hi is not None:
        hn, hd = hi.numerator, hi.denominator
    for (k1, c1), (k2, c2) in zip(hull[i:], hull[i + 1 :]):
        if hi is not None and (c2 - c1) * hd >= hn * (k1 - k2):
            break
        pieces.append((Fraction(c2 - c1, k1 - k2), Fraction(k2), Fraction(c2)))
    return PWLinear(lo, hi, tuple(pieces))


def intersect_intervals(xs, ys) -> list[tuple[_Bound, _Bound]]:
    """Intersection of two ascending lists of disjoint closed intervals
    (a, b), a None end meaning unbounded; the result is of the same form."""
    out: list[tuple[_Bound, _Bound]] = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        (a1, b1), (a2, b2) = xs[i], ys[j]
        a = a1 if a2 is None or (a1 is not None and a1 >= a2) else a2
        x_first = b1 is not None and (b2 is None or b1 <= b2)
        b = b1 if x_first else b2
        if a is None or b is None or a <= b:
            out.append((a, b))
        if x_first:
            i += 1
        else:
            j += 1
    return out
