"""Envelopes and PWLinear arithmetic against the sampled-alignment
references of tests/oracles.py, and gpr's per-edge Gauss fiber against
the reference fiber on the Taylor shift at the edge center."""

from fractions import Fraction

from berklip.invariants import hull
from berklip.piecewise import lower_envelope
from berklip.projective import INF_POINT, ProjPoint
from berklip.ratmap import from_factored
from berklip.sampling import DetRng
from corpus import random_factored_map, random_ladder_map
from oracles import (
    Shift,
    choice,
    fiber_by_edge,
    ref_gauss_fiber_zero_set,
    ref_lower_envelope,
    ref_max,
    ref_sub,
    ref_zero_set,
    t_range,
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


def test_max_matches_reference():
    """The merge walk's maximum against sampled alignment, on families that
    agree everywhere, on intervals, or nowhere, over domains with None
    ends, collapsed onto one point, and with ends at breakpoints and
    crossings."""
    rng = DetRng(6066)
    seen = {"open end": 0, "point": 0, "end at special": 0, "split by max": 0,
            "random pair": 0}
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
        got = f.max_with(g)
        assert got == ref_max(f, g), (a, b, lo, hi)
        assert g.max_with(f) == ref_max(g, f)
        seen["open end"] += lo is None or hi is None
        seen["point"] += lo is not None and lo == hi
        seen["end at special"] += lo != hi and (lo in special or hi in special)
        seen["split by max"] += any(
            x not in [y for y, _, _ in f.pieces + g.pieces] for x, _, _ in got.pieces
        )
    assert seen["random pair"] >= 3000 and min(seen.values()) >= 50, seen


def _int_lines(h) -> bool:
    """Every piece of h has an int slope and intercept and a Fraction or
    None start."""
    return all(
        type(k) is int and type(c) is int and (s is None or type(s) is Fraction)
        for s, k, c in h.pieces
    )


def test_no_float_in_pieces_or_interval_ends():
    """Envelopes and maxima are integer lines with Fraction or None
    breakpoints: a crossing is Fraction(c2 - c1, k1 - k2), never an int
    division, which would be a float."""
    rng = DetRng(6068)
    seen = {"envelope break": 0, "max split": 0}
    for _ in range(3000):
        if rng.randint(0, 3) == 0:
            a, b = _touching(rng)
        else:
            a = _family(rng)
            b = _partner(rng, a)
        lo, hi = _domain(rng, _special(a, b))
        f, g = lower_envelope(a, lo, hi), lower_envelope(b, lo, hi)
        for h in (f, g, f.max_with(g), g.max_with(f)):
            assert _int_lines(h), (a, b, lo, hi, h)
        starts = {x for x, _, _ in f.pieces + g.pieces}
        seen["envelope break"] += len(f.pieces) > 1
        seen["max split"] += any(x not in starts for x, _, _ in f.max_with(g).pieces)
    assert min(seen.values()) >= 100, seen


def _fiber_maps(rng: DetRng):
    """Random maps of degree <= 5 and ladder-type maps, then maps whose
    flat screened edges keep both ends, one end or none:
    (z - p^k)(z - 1)/z, whose edge from D(0, p^-k) up to the Gauss point
    has ord phi = 0 and a sloped edge at each end, and at p = 3
    z(z-3)(z-1)(z-4)/((z-9)(z-12)(z-10)(z-13)), whose flat edge
    D(0, 3^-2) -> D(0, 3^-1) keeps only its lower end and whose flat edge
    from D(0, 3^-1) up to the Gauss point keeps neither."""
    maps = [random_factored_map(rng, [3, 5, 7][k % 3], dmax=5) for k in range(120)]
    maps += [random_ladder_map(rng, 3, d) for d in (5, 10, 10, 20)]
    maps += [
        from_factored(p, 1, [(ProjPoint.of(p**k), 1), (ProjPoint.of(1), 1)],
                      [(ProjPoint.of(0), 1), (INF_POINT, 1)])
        for p in (2, 3, 5, 7) for k in (1, 2, 3)
    ]
    maps.append(from_factored(3, 1, [(ProjPoint.of(z), 1) for z in (0, 3, 1, 4)],
                              [(ProjPoint.of(z), 1) for z in (9, 12, 10, 13)]))
    return maps


def test_gauss_fiber_matches_reference_on_every_hull_edge():
    """On every edge of the zero/pole hull, gpr's fiber points, as
    degenerate intervals, are the reference fiber of the whole edge on
    the shift at the edge center: one point on a screened sloped edge,
    the ends that touch a sloped edge on a flat screened one, and nothing
    elsewhere.  Every outcome of a flat screened edge occurs."""
    edges = hits = 0
    flat = {"both ends": 0, "one end": 0, "none": 0}
    for m in _fiber_maps(DetRng(6064)):
        p, ff = m.p, m.factored
        tree = hull(p, [q for q, _ in ff.zeros] + [q for q, _ in ff.poles])
        f, g = m.F, m.G
        for edge, (k, s, ts) in zip(tree.edges, fiber_by_edge(m)):
            want = ref_gauss_fiber_zero_set(Shift.at(p, f, g, edge.center), *t_range(edge))
            assert [(t, t) for t in ts] == want, (m, edge)
            edges += 1
            hits += bool(ts)
            if (k, s) == (0, 0):
                flat[("none", "one end", "both ends")[len(ts)]] += 1
    assert edges >= 1000 and hits >= 100, (edges, hits)
    assert min(flat.values()) >= 1, flat
