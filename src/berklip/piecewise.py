"""Exact piecewise-linear functions of one rational variable.

Seminorms of shifted polynomials along a radial path are lower envelopes of
lines t -> ord(c_i) + i*t, and every quantity derived from them (image
diameters, chart-swap indicators, diameter profiles) stays piecewise linear
with rational breakpoints.  This module provides that calculus: envelopes
of line families, pointwise min/max/sum of two functions, sign partitions
and exact zero sets.  The envelope takes integer lines (integer slopes i,
integer intercepts: valuations of integer numerators) and builds its hull
in integers; the functions it returns, and all arithmetic on them, are
Fraction-exact.

Domains are intervals [lo, hi] where either end may be None (unbounded).
A function is stored as contiguous pieces (start, slope, intercept); piece
i is in force from its start up to the next piece's start (through hi for
the last piece).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = ["PWLinear", "lower_envelope"]

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

    def restrict(self, lo: _Bound, hi: _Bound) -> "PWLinear":
        """Restrict the domain; the new interval must lie inside the old."""
        pieces = []
        for start, end, k, c in self.spans():
            s = start
            if lo is not None and (s is None or s < lo):
                s = lo
            e = end
            if hi is not None and (e is None or e > hi):
                e = hi
            if s is not None and e is not None and s >= e:
                continue
            pieces.append((s, k, c))
        if not pieces:
            # interval collapsed onto a single point
            at = lo if lo is not None else hi
            k, c = self._line_at(at)
            pieces = [(lo, k, c)]
        return PWLinear(lo, hi, tuple(pieces)).simplified()

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

    def __neg__(self) -> "PWLinear":
        return PWLinear(self.lo, self.hi, tuple((s, -k, -c) for s, k, c in self.pieces))

    def min_with(self, other: "PWLinear") -> "PWLinear":
        return self._binary(other, "min")

    def max_with(self, other: "PWLinear") -> "PWLinear":
        return self._binary(other, "max")

    # -- root structure ------------------------------------------------------

    def zero_set(self) -> list[tuple[_Bound, _Bound]]:
        """Closed intervals (possibly degenerate) where the function is 0.

        An unbounded interval of zeros is reported with a None end.
        """
        raw: list[tuple[_Bound, _Bound]] = []
        for start, end, k, c in self.spans():
            if k == 0:
                if c == 0:
                    raw.append((start, end))
                continue
            root = -c / k
            lo_ok = start is None or start <= root
            hi_ok = end is None or root <= end
            if lo_ok and hi_ok:
                raw.append((root, root))
        # raw is already ordered: spans are ascending, one entry per span
        merged: list[list[_Bound]] = []
        for a, b in raw:
            if merged:
                pa, pb = merged[-1]
                touches = pb is None or a is None or a <= pb
                if touches:
                    if pb is not None and (b is None or b > pb):
                        merged[-1][1] = b
                    continue
            merged.append([a, b])
        return [(a, b) for a, b in merged]

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

    The hull test runs in integers; only the emitted pieces are Fractions,
    so that crossings of later sums and differences stay exact.
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
    pieces: list[tuple[_Bound, Fraction, Fraction]] = [
        (None, Fraction(hull[0][0]), Fraction(hull[0][1]))
    ]
    for (k1, c1), (k2, c2) in zip(hull, hull[1:]):
        pieces.append((Fraction(c2 - c1, k1 - k2), Fraction(k2), Fraction(c2)))
    full = PWLinear(None, None, tuple(pieces))
    return full.restrict(lo, hi)
