"""Envelopes, PWLinear arithmetic, equality sets and the Gauss fiber
against the sampled-alignment references of tests/oracles.py."""

from fractions import Fraction

from berklip import invariants
from berklip.berk import Shift
from berklip.invariants import _gauss_fiber_zero_set, gpr, hull
from berklip.piecewise import intersect_intervals, lower_envelope
from berklip.projective import INF_POINT, ProjPoint
from berklip.ratmap import _int_coeff_pair, from_factored
from berklip.sampling import DetRng
from corpus import random_factored_map, random_ladder_map
from oracles import (
    choice,
    ref_gauss_fiber_zero_set,
    ref_lower_envelope,
    ref_max,
    ref_negative_regions,
    ref_sub,
    ref_zero_set,
)


def _family(rng: DetRng):
    return [(rng.randint(0, 9), rng.randint(-12, 12)) for _ in range(rng.randint(1, 7))]


def _breaks(lines):
    return [s for s, _, _ in ref_lower_envelope(lines, None, None).pieces[1:]]


def _domain(rng: DetRng, special):
    """(lo, hi, kind): ends drawn from None, the special points and other
    rationals; one draw in five collapses the domain onto one point."""

    def pick():
        r = rng.randint(0, 3)
        if r == 0:
            return None
        if r == 1 and special:
            return choice(rng, special)
        return Fraction(rng.randint(-30, 30), rng.randint(1, 4))

    lo, hi = pick(), pick()
    if rng.randint(0, 4) == 0:
        while lo is None:
            lo = pick()
        hi = lo
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return lo, hi


def test_lower_envelope_matches_reference():
    rng = DetRng(6061)
    seen = {"open end": 0, "point at break": 0, "point off break": 0, "end at break": 0}
    for _ in range(4000):
        lines = _family(rng)
        breaks = _breaks(lines)
        lo, hi = _domain(rng, breaks)
        got = lower_envelope(lines, lo, hi)
        assert got == ref_lower_envelope(lines, lo, hi), (lines, lo, hi)
        seen["open end"] += lo is None or hi is None
        if lo is not None and lo == hi:
            seen["point at break" if lo in breaks else "point off break"] += 1
        elif lo in breaks or hi in breaks:
            seen["end at break"] += 1
    assert min(seen.values()) >= 100, seen


def _partner(rng: DetRng, lines):
    """A second family: the same lines, a parallel shift, a subset or
    superset (agreement on intervals), or an unrelated family."""
    r = rng.randint(0, 4)
    if r == 0:
        return list(lines)
    if r == 1:
        shift = rng.randint(1, 3)
        return [(k, c + shift) for k, c in lines]
    if r == 2:
        return lines[: rng.randint(1, len(lines))] + [(rng.randint(0, 9), 12)]
    if r == 3:
        return lines + _family(rng)
    return _family(rng)


def _special(a, b):
    """Breakpoints of both envelopes and the ends of their equality set:
    domain ends worth drawing."""
    f, g = ref_lower_envelope(a, None, None), ref_lower_envelope(b, None, None)
    full = ref_zero_set(ref_sub(f, g))
    return _breaks(a) + _breaks(b) + [x for iv in full for x in iv if x is not None]


def _touching(rng: DetRng):
    """Two families whose envelopes touch at one point x0 and are apart on
    both sides of it: a kink of the first envelope at x0, and a line of
    intermediate slope through it."""
    x0, y0 = rng.randint(-5, 5), rng.randint(-12, 12)
    k2 = rng.randint(0, 6)
    k1 = k2 + rng.randint(2, 3)
    k = rng.randint(k2 + 1, k1 - 1)
    return [(k1, y0 - k1 * x0), (k2, y0 - k2 * x0)], [(k, y0 - k * x0)]


def test_sub_max_and_below_set_match_reference():
    """The merge walk's difference, maximum and below-set against sampled
    alignment, on families that agree everywhere, on intervals, or nowhere,
    over domains with None ends, collapsed onto one point, and with ends at
    breakpoints and crossings."""
    rng = DetRng(6066)
    seen = {"open end": 0, "point": 0, "end at special": 0, "split by max": 0,
            "below somewhere": 0, "joined below": 0, "random pair": 0}
    for _ in range(4200):
        if rng.randint(0, 3) == 0:
            a, b = _touching(rng)
        else:
            a = _family(rng)
            b = _partner(rng, a)
            seen["random pair"] += 1
        special = _special(a, b)
        lo, hi = _domain(rng, special)
        f, g = lower_envelope(a, lo, hi), lower_envelope(b, lo, hi)
        diff = ref_sub(f, g)
        assert f - g == diff, (a, b, lo, hi)
        assert g - f == ref_sub(g, f)
        got = f.max_with(g)
        assert got == ref_max(f, g), (a, b, lo, hi)
        assert g.max_with(f) == ref_max(g, f)
        below = f.below_set(g)
        assert below == ref_negative_regions(diff), (a, b, lo, hi)
        assert g.below_set(f) == ref_negative_regions(ref_sub(g, f))
        seen["open end"] += lo is None or hi is None
        seen["point"] += lo is not None and lo == hi
        seen["end at special"] += lo != hi and (lo in special or hi in special)
        seen["split by max"] += any(
            x not in [y for y, _, _ in f.pieces + g.pieces] for x, _, _ in got.pieces
        )
        seen["below somewhere"] += bool(below)
        seen["joined below"] += any(
            s is not None and e is not None and any(s < x < e for x, y in f.equal_set(g) if x == y)
            for s, e in below
        )
    assert seen["random pair"] >= 3000 and min(seen.values()) >= 50, seen


def test_equal_set_matches_zero_set_of_difference():
    rng = DetRng(6062)
    seen = {"whole domain": 0, "root at an end": 0, "several": 0, "empty": 0}
    for _ in range(3000):
        a = _family(rng)
        b = _partner(rng, a)
        # ends at breakpoints and at crossings of the two envelopes
        lo, hi = _domain(rng, _special(a, b))
        f, g = lower_envelope(a, lo, hi), lower_envelope(b, lo, hi)
        want = ref_zero_set(ref_sub(f, g))
        assert f.equal_set(g) == want, (a, b, lo, hi)
        assert g.equal_set(f) == want
        seen["whole domain"] += want == [(lo, hi)]
        seen["root at an end"] += any(x == y and x in (lo, hi) for x, y in want)
        seen["several"] += len(want) >= 2
        seen["empty"] += not want
    assert min(seen.values()) >= 50, seen


def _int_lines(h) -> bool:
    """Every piece of h has an int slope and intercept and a Fraction or
    None start."""
    return all(
        type(k) is int and type(c) is int and (s is None or type(s) is Fraction)
        for s, k, c in h.pieces
    )


def test_no_float_in_pieces_or_interval_ends():
    """Envelopes, differences and maxima are integer lines with Fraction
    breakpoints, and equality and below sets have Fraction or None ends:
    a crossing is Fraction(c2 - c1, k1 - k2), never an int division,
    which would be a float."""
    rng = DetRng(6068)
    seen = {"envelope break": 0, "max split": 0, "equal root": 0, "below end": 0}
    for _ in range(3000):
        if rng.randint(0, 3) == 0:
            a, b = _touching(rng)
        else:
            a = _family(rng)
            b = _partner(rng, a)
        lo, hi = _domain(rng, _special(a, b))
        f, g = lower_envelope(a, lo, hi), lower_envelope(b, lo, hi)
        for h in (f, g, f - g, g - f, f.max_with(g), g.max_with(f)):
            assert _int_lines(h), (a, b, lo, hi, h)
        sets = (f.equal_set(g), f.below_set(g), g.below_set(f))
        for ivs in sets:
            assert all(x is None or type(x) is Fraction for iv in ivs for x in iv), ivs
        starts = {x for x, _, _ in f.pieces + g.pieces}
        seen["envelope break"] += len(f.pieces) > 1
        seen["max split"] += any(x not in starts for x, _, _ in f.max_with(g).pieces)
        seen["equal root"] += any(x == y and x not in (lo, hi) for x, y in sets[0])
        ends = {x for ivs in sets[1:] for iv in ivs for x in iv}
        seen["below end"] += any(x not in starts and x not in (lo, hi) for x in ends)
    assert min(seen.values()) >= 100, seen


def test_intersect_intervals_pointwise():
    rng = DetRng(6063)

    def intervals():
        cuts = sorted({rng.randint(-20, 20) for _ in range(rng.randint(0, 8))})
        out = []
        while len(cuts) >= 2 and len(out) < 3:
            a, b = cuts.pop(0), cuts.pop(0)
            if rng.randint(0, 3) == 0:
                b = a  # a single point
            out.append((Fraction(a), Fraction(b)))
        if out and rng.randint(0, 2) == 0:
            out[0] = (None, out[0][1])
        if out and rng.randint(0, 2) == 0:
            out[-1] = (out[-1][0], None)
        return out

    def member(x, ivs):
        return any((a is None or a <= x) and (b is None or x <= b) for a, b in ivs)

    for _ in range(500):
        xs, ys = intervals(), intervals()
        got = intersect_intervals(xs, ys)
        for x in [Fraction(k, 2) for k in range(-50, 51)]:
            assert member(x, got) == (member(x, xs) and member(x, ys))
        flat = [t for iv in got for t in iv]
        assert all(a is None or b is None or a <= b for a, b in got)
        assert [t for t in flat if t is not None] == sorted(t for t in flat if t is not None)


def _edges_and_shifts(m):
    ff = m.factored
    tree = hull(m.p, [q for q, _ in ff.zeros] + [q for q, _ in ff.poles])
    f, g = _int_coeff_pair(m)
    for edge in tree.edges:
        yield Shift.at(m.p, f, g, edge.center), edge.t_range()


def test_gauss_fiber_matches_reference_on_every_hull_edge():
    rng = DetRng(6064)
    maps = [random_factored_map(rng, [3, 5, 7][k % 3], dmax=5) for k in range(120)]
    maps += [random_ladder_map(rng, 3, d) for d in (5, 10, 10, 20)]
    edges = hits = 0
    for m in maps:
        for sh, (lo, hi) in _edges_and_shifts(m):
            got = _gauss_fiber_zero_set(sh, lo, hi)
            assert got == ref_gauss_fiber_zero_set(sh, lo, hi)
            edges += 1
            hits += bool(got)
    assert edges >= 1000 and hits >= 100, (edges, hits)


def test_gpr_unchanged_with_reference_fiber(monkeypatch):
    """gpr with the interval scan of edges of slope 0 replaced by the
    reference zero set, which must have run.  Random maps have few edges
    of slope 0 on which ord phi vanishes, so (z - p^k)(z - 1)/z is added:
    its edge from D(0, p^-k) up to the Gauss point has a zero and a pole
    below and ord phi = 0 on it, and its fiber there is the two ends."""
    rng = DetRng(6065)
    maps = [random_factored_map(rng, [2, 3, 5, 7][k % 4], dmax=6) for k in range(30)]
    maps += [
        from_factored(p, 1, [(ProjPoint.of(p**k), 1), (ProjPoint.of(1), 1)],
                      [(ProjPoint.of(0), 1), (INF_POINT, 1)])
        for p in (2, 3, 5, 7) for k in (1, 2, 3)
    ]
    got = [gpr(m) for m in maps]
    calls = {"interval": 0}

    def ref_interval(sh, lo, hi):
        calls["interval"] += 1
        return ref_gauss_fiber_zero_set(sh, lo, hi)

    monkeypatch.setattr(invariants, "_gauss_fiber_zero_set", ref_interval)
    assert got == [gpr(m) for m in maps]
    assert calls["interval"] >= 10, calls
