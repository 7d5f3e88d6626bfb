"""Exact piecewise-linear functions of one rational variable.

Seminorms of shifted polynomials along a radial path are lower envelopes of
lines t -> ord(c_i) + i*t, and every quantity derived from them (image
radii, diameter profiles) stays piecewise linear with rational
breakpoints.  This module provides that calculus: envelopes of line
families, and the pointwise max of two functions on one domain, read by
one merge walk over the two piece lists that visits each stretch between
consecutive breakpoints of either function with the two lines in force on
it.  The envelope takes integer lines (integer slopes i, integer
intercepts: valuations of integer numerators), builds its hull and clips
it to the domain in integers.  Every function here is made of integer
lines with rational breakpoints: a max of integer lines is again an
integer line, and the only Fractions are breakpoints, the crossings
Fraction(c2 - c1, k1 - k2) of two lines and the domain ends.

Domains are intervals [lo, hi] where either end may be None (unbounded).
A function is stored as contiguous pieces (start, slope, intercept); piece
i is in force from its start up to the next piece's start (through hi for
the last piece).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

__all__ = ["PWLinear", "lower_envelope"]

_Bound = Fraction | None


class _PWLinearFields(NamedTuple):
    lo: _Bound
    hi: _Bound
    pieces: tuple[tuple[_Bound, int, int], ...]  # (start, slope, icept)


class PWLinear(_PWLinearFields):
    """Continuous piecewise-linear function on [lo, hi]."""

    __slots__ = ()

    def __new__(cls, lo: _Bound, hi: _Bound, pieces: tuple[tuple[_Bound, int, int], ...]):
        if not pieces:
            raise ValueError("PWLinear needs at least one piece")
        return tuple.__new__(cls, (lo, hi, pieces))

    def spans(self) -> list[tuple[_Bound, _Bound, int, int]]:
        """Pieces as (start, end, slope, intercept) with explicit ends."""
        out = []
        for i, (start, k, c) in enumerate(self.pieces):
            end = self.pieces[i + 1][0] if i + 1 < len(self.pieces) else self.hi
            out.append((start, end, k, c))
        return out

    def simplified(self) -> "PWLinear":
        merged = [self.pieces[0]]
        for start, k, c in self.pieces[1:]:
            if merged[-1][1] == k and merged[-1][2] == c:
                continue
            merged.append((start, k, c))
        return PWLinear(self.lo, self.hi, tuple(merged))

    # -- two functions on one domain -----------------------------------------

    def _stretches(self, other: "PWLinear"):
        """One merge walk over both piece lists: yields (start, end, k1, c1,
        k2, c2) for each stretch between consecutive breakpoints of either
        function, ascending, with the lines of self and other in force on
        it (at a breakpoint, the piece starting there).  The stretches have
        positive length unless the domain is one point."""
        if self.lo != other.lo or self.hi != other.hi:
            raise ValueError("domain mismatch")
        a, b = self.pieces, other.pieces
        i = j = 0
        start = self.lo
        while True:
            if start is not None:
                while i + 1 < len(a) and a[i + 1][0] <= start:
                    i += 1
                while j + 1 < len(b) and b[j + 1][0] <= start:
                    j += 1
            end_a = a[i + 1][0] if i + 1 < len(a) else self.hi
            end_b = b[j + 1][0] if j + 1 < len(b) else self.hi
            end = end_a if end_b is None or (end_a is not None and end_a <= end_b) else end_b
            yield start, end, a[i][1], a[i][2], b[j][1], b[j][2]
            if i + 1 == len(a) and j + 1 == len(b):
                return
            start = end

    def max_with(self, other: "PWLinear") -> "PWLinear":
        """Pointwise maximum; where the two lines tie, self's is kept.

        Two lines that cross inside a stretch split it at the crossing:
        the flatter line is the larger before it, the steeper one after.
        """
        pieces: list[tuple[_Bound, int, int]] = []
        for s, e, k1, c1, k2, c2 in self._stretches(other):
            if k1 == k2:
                pieces.append((s, k1, c1) if c1 >= c2 else (s, k2, c2))
                continue
            root = Fraction(c2 - c1, k1 - k2)
            steep, flat = ((k1, c1), (k2, c2)) if k1 > k2 else ((k2, c2), (k1, c1))
            if (s is None or s < root) and (e is None or root < e):
                pieces += [(s, *flat), (root, *steep)]
            elif root == s == e:
                pieces.append((s, k1, c1))
            elif s is not None and root <= s:
                pieces.append((s, *steep))
            else:
                pieces.append((s, *flat))
        return PWLinear(self.lo, self.hi, tuple(pieces)).simplified()


def lower_envelope(lines, lo: _Bound, hi: _Bound) -> PWLinear:
    """Pointwise minimum of a finite family of integer lines (slope,
    intercept), restricted to [lo, hi].

    The hull and its clipping to [lo, hi] run in integers; only the pieces
    in force on [lo, hi] are emitted, with their integer lines and the
    crossings between them as Fraction breakpoints.
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
    # that equals lo (as the merge walk does)
    i = 0
    if lo is not None:
        ln, ld = lo.numerator, lo.denominator
        while i + 1 < len(hull):
            (k1, c1), (k2, c2) = hull[i], hull[i + 1]
            if (c2 - c1) * ld > ln * (k1 - k2):
                break
            i += 1
    pieces: list[tuple[_Bound, int, int]] = [(lo, *hull[i])]
    if hi is not None:
        hn, hd = hi.numerator, hi.denominator
    for (k1, c1), (k2, c2) in zip(hull[i:], hull[i + 1 :]):
        if hi is not None and (c2 - c1) * hd >= hn * (k1 - k2):
            break
        pieces.append((Fraction(c2 - c1, k1 - k2), k2, c2))
    return PWLinear(lo, hi, tuple(pieces))
