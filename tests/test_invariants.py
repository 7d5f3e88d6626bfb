"""Hulls, root-pole number, Gauss preimage radius, invariant bundles."""

import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from berklip import invariants
from berklip.berk import (
    BerkPoint,
    berk_equal,
    diam_gauss,
    gauss_point,
    push_forward,
)
from berklip.errors import FactoredFormRequiredError, InternalInvariantError
from berklip.invariants import (
    bundle,
    gpr,
    hull,
    rp_ord,
)
from berklip.piecewise import lower_envelope
from berklip.polynomials import hom_eval, taylor_shift
from berklip.projective import INF_POINT, ProjPoint
from berklip.ratmap import _zero_pole_ords, from_coeffs, from_factored, gir_minors
from berklip.sampling import DetRng, random_rational
from berklip.valued import Ord
from corpus import acceptance_corpus, random_factored_map, random_ladder_map, random_mobius
from oracles import (
    Shift,
    dehomogenized,
    fiber_by_edge,
    ref_candidate,
    ref_gauss_fiber_zero_set,
    ref_gpr_found_by_scan,
    ref_gpr_scan,
    ref_hull,
    ref_rp_ord,
    ref_sub,
    ref_zero_set,
    t_range,
)


def pt(x):
    return ProjPoint.of(Fraction(x))


def sq_minus_inv_p2(p):
    """z^2 - 1/p^2 with zeros +-1/p and a double pole at infinity."""
    return from_factored(
        p, 1,
        [(pt(Fraction(1, p)), 1), (pt(Fraction(-1, p)), 1)],
        [(INF_POINT, 2)],
    )


def test_rp_examples():
    assert rp_ord(sq_minus_inv_p2(3)) == Ord.of(1)
    zd = from_factored(3, 1, [(pt(0), 3)], [(INF_POINT, 3)])
    assert rp_ord(zd) == Ord.of(0)
    # zeros at 0, poles on the sphere |z| = S: RP = S
    p = 5
    m = from_factored(p, 25, [(pt(0), 3)], [(pt(5), 1), (pt(10), 1), (pt(15), 1)])
    assert rp_ord(m) == Ord.of(1)


def test_rp_matches_reference():
    """rp_ord, one valuation per zero/pole pair, equals the largest Fraction
    spherical ord over the pairs: on the acceptance corpus, on seeded
    ladder-type maps, and with infinity as a zero and as a pole, a zero at
    0, and zeros and poles of negative ord."""
    maps = acceptance_corpus()
    rng = DetRng(1717)
    maps += [random_ladder_map(rng, p, d) for p in (2, 3, 5, 7) for d in (1, 2, 5, 12)]
    for p in (2, 3, 5):
        q = Fraction(1, p)
        for zeros, poles in (
            ([(pt(0), 2)], [(INF_POINT, 1), (pt(q), 1)]),
            ([(INF_POINT, 2)], [(pt(0), 1), (pt(q**3), 1)]),
            ([(INF_POINT, 1), (pt(1 + p), 1)], [(pt(q**2), 1), (pt(-(q**2)), 1)]),
            ([(pt(q), 1), (pt(2 * q**2), 1)], [(pt(q + 1), 1), (pt(3 * q**2 + q), 1)]),
            ([(pt(0), 1), (pt(p**3), 1)], [(pt(p**2), 1), (pt(q**4), 1)]),
        ):
            maps.append(from_factored(p, Fraction(p, 7), zeros, poles))
    for m in maps:
        assert rp_ord(m) == Ord.of(ref_rp_ord(m)), m


def test_rp_from_the_tree_matches_pair_kernel_and_reference():
    """rp read off the tree's row loop, its zero/pole and infinity
    entries, equals the largest exponent of the product formula's pair
    kernel and ``ref_rp_ord``, in ``bundle`` and in ``rp_ord``: on corpus
    seeds 0-3, ladder seeds 0-2, the acceptance corpus, and maps with
    multiplicities at p = 2, infinity a zero and a pole in some."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import benchgen

    maps = [m for seed in range(4) for m in benchgen.corpus_maps(seed, 405)]
    maps += [m for seed in range(3) for _, pairs in benchgen.ladder_steps(seed) for m, _ in pairs]
    maps += acceptance_corpus()
    rng = DetRng(3131)
    maps += [random_factored_map(rng, 2, dmax=6, multiplicities=True) for _ in range(60)]
    seen = {"inf_zero": 0, "inf_pole": 0, "multiple": 0}
    for m in maps:
        ff = m.factored
        want = max(s for _, s in _zero_pole_ords(m.p, ff))
        assert want == ref_rp_ord(m), m
        invariants._last = None
        assert bundle(m).rp == rp_ord(m) == Ord.of(want), m
        seen["inf_zero"] += m.p == 2 and any(q.is_inf for q, _ in ff.zeros)
        seen["inf_pole"] += m.p == 2 and any(q.is_inf for q, _ in ff.poles)
        seen["multiple"] += m.p == 2 and any(k > 1 for _, k in ff.zeros + ff.poles)
    assert min(seen.values()) >= 5, seen


def test_hull_star_example():
    p = 3
    tree = hull(p, [pt(0), pt(1), INF_POINT])
    assert len(tree.edges) == 3
    for e in tree.edges:
        if not e.upper.is_classical:
            assert berk_equal(p, e.upper, gauss_point())
    uppers = [e.upper for e in tree.edges]
    assert sum(1 for u in uppers if not u.is_classical) >= 2


def test_hull_asymmetric_example():
    p = 3
    tree = hull(p, [pt(Fraction(1, 3)), pt(Fraction(-1, 3)), INF_POINT])
    join = BerkPoint.disc(0, -1)
    assert len(tree.edges) == 3
    for e in tree.edges:
        if e.lower.is_classical and not e.lower.pt.is_inf:
            assert berk_equal(p, e.upper, join)
    inf_edges = [e for e in tree.edges if e.upper.is_classical and e.upper.pt.is_inf]
    assert len(inf_edges) == 1
    assert berk_equal(p, inf_edges[0].lower, join)


def test_hull_two_points():
    p = 3
    tree = hull(p, [pt(0), INF_POINT])
    assert len(tree.edges) == 1
    with pytest.raises(ValueError):
        hull(p, [pt(0)])


def test_hull_on_a_given_tree_checks_its_points():
    """Records on the zero/pole tree that ``bundle`` builds equal those
    ``hull`` builds alone; a tree of other points, of the same points in
    another order, or with infinity added or dropped is refused."""
    for m in acceptance_corpus():
        p, ff = m.p, m.factored
        if ff is None:
            continue
        pts = [q for q, _ in ff.zeros + ff.poles]
        tree = invariants._tree(p, ff.zeros, ff.poles)
        assert hull(p, pts, tree) == hull(p, pts), m
    p = 3
    pts = [pt(0), pt(1), pt(3), INF_POINT]
    others = (pts[:3] + [pt(9), INF_POINT], pts[1::-1] + pts[2:], pts[:3], [pts[3]] + pts[:2])
    for other in others:
        tree = invariants._tree(p, [(q, 1) for q in other], ())
        with pytest.raises(ValueError):
            hull(p, pts, tree)
    with pytest.raises(ValueError):
        hull(p, pts[:3], invariants._tree(p, [(q, 1) for q in pts], ()))


def test_hull_matches_reference():
    """The keyed join dedupe gives the reference's tree, vertex and edge
    order included, on scattered and clustered sets with and without
    infinity."""
    rng = DetRng(808)
    for k in range(40):
        p = [2, 3, 5, 7][k % 4]
        n = 60 if k < 8 else rng.randint(2, 60)
        pts = [INF_POINT] if k % 3 == 0 else []
        base = random_rational(rng, p)
        while len(pts) < n:
            if k % 2:  # clustered: many points share each disc
                z = base + Fraction(p) ** rng.randint(0, 6) * rng.randint(0, 50)
            else:
                z = random_rational(rng, p)
            if pt(z) not in pts:
                pts.append(pt(z))
        assert hull(p, pts) == ref_hull(p, pts), k
    # a deep chain: every point in the residue class of 1 (mod p), at
    # several depths; one finite point with infinity; duplicated inputs;
    # infinity listed first
    for p in (2, 3, 5):
        chain = [pt(1 + p**j * u) for j in range(1, 7) for u in (1, -1, p + 1)]
        extra = [pt(1), pt(Fraction(1, p)), pt(p), pt(-p)]
        cases = [
            chain,
            chain + [INF_POINT],
            [pt(Fraction(2, p)), INF_POINT],
            [INF_POINT, pt(Fraction(2, p))],
            chain[:5] + chain[:3] + [INF_POINT, INF_POINT] + extra + extra[::-1],
            [INF_POINT] + extra + chain[::2],
        ]
        for pts in cases:
            assert hull(p, pts) == ref_hull(p, pts), (p, pts)
    # clusters that merge at one level into a vertex with three or more
    # children; discs of one level in disjoint branches, whose order is
    # by lowest index and not by when a link first reaches them; a deep
    # cluster whose lowest index comes late in the input
    for p in (3, 5, 7):
        star = [pt(r + p * u) for u in (0, 1, p) for r in range(p)]
        twins = [pt(2), pt(1), pt(2 + p), pt(1 + p), pt(2 + p * p), pt(1 + p * p)]
        deep = [pt(1 + p**6 * u) for u in (1, 2, p + 1)] + [pt(1 + p**4), pt(1)]
        spread = [pt(Fraction(u, p)) for u in range(1, 7) if u % p]
        for pts in (
            star,
            star + [pt(Fraction(1, p)), INF_POINT],
            twins,
            twins[::-1] + [INF_POINT],
            spread + deep,
            [INF_POINT] + spread + twins + deep[::-1],
        ):
            assert hull(p, pts) == ref_hull(p, pts), (p, pts)
        children = [e.upper for e in hull(p, star).edges]
        assert max(children.count(v) for v in children) >= 3


def test_hull_makes_no_berk_equal_call(count_calls):
    """Vertices are deduplicated by key and parents read from the ord
    matrix, without comparing points."""
    calls = count_calls(berk_equal)
    rng = DetRng(909)
    for k in range(6):
        p = [2, 3, 5][k % 3]
        pts = [INF_POINT] if k % 2 else []
        while len(pts) < 20:
            z = pt(random_rational(rng, p))
            if z not in pts:
                pts.append(z)
        tree = hull(p, pts)
        assert len(tree.edges) == len(tree.vertices) - 1
    assert calls == []


def test_gpr_worked_example():
    for p in (3, 5, 7):
        m = sq_minus_inv_p2(p)
        res = gpr(m)
        assert res.ord == Ord.of(3)
        assert berk_equal(p, res.argmin, BerkPoint.disc(Fraction(1, p), 1)) or berk_equal(
            p, res.argmin, BerkPoint.disc(Fraction(-1, p), 1)
        )
        # the full fiber has the two points named by the analysis
        assert len(res.preimages) == 2


def test_gpr_mobius_and_power():
    p = 3
    mob = from_factored(p, Fraction(1, 9), [(pt(0), 1)], [(INF_POINT, 1)])  # z/9
    res = gpr(mob)
    assert res.ord == Ord.of(2)
    assert berk_equal(p, res.argmin, BerkPoint.disc(0, 2))
    zd = from_factored(p, 1, [(pt(0), 4)], [(INF_POINT, 4)])
    res = gpr(zd)
    assert res.ord == Ord.of(0)
    assert berk_equal(p, res.argmin, gauss_point())


def test_gpr_requires_factored_form():
    p = 3
    m = from_coeffs(p, [1, 1, 1], [1, 0, 0])  # irrational zeros
    with pytest.raises(FactoredFormRequiredError):
        gpr(m)


def test_gpr_argmin_always_verifies():
    rng = DetRng(2718)
    for _ in range(40):
        p = [3, 5, 7][rng.randint(0, 2)]
        m = random_factored_map(rng, p, dmax=4)
        res = gpr(m)
        assert berk_equal(p, push_forward(m, res.argmin), gauss_point())


def test_gpr_verifies_each_distinct_preimage_once(count_calls):
    """z^2 / (z - 1) has good reduction: its only Gauss preimage is the
    Gauss point, an end of all three edges of the hull of 0, 1, inf.
    The scan finds it on each edge, and push_forward re-verifies it once."""
    calls = count_calls(push_forward)
    for p in (2, 3, 5):
        m = from_factored(p, 1, [(pt(0), 2)], [(pt(1), 1), (INF_POINT, 1)])
        tree = hull(p, [pt(0), pt(1), INF_POINT])
        ends = [(e.lower, e.upper) for e in tree.edges]
        assert all(any(berk_equal(p, x, gauss_point()) for x in pair) for pair in ends)
        assert len(ends) == 3
        calls.clear()
        res = gpr(m)
        assert len(calls) == len(res.preimages) == 1
        assert berk_equal(p, res.argmin, gauss_point())
    rng = DetRng(1618)
    for _ in range(20):
        m = random_factored_map(rng, [3, 5, 7][rng.randint(0, 2)], dmax=5)
        calls.clear()
        res = gpr(m)
        assert len(calls) == len(res.preimages)


def _screen_maps(seed: int):
    """Seeded factored maps for the edge screen: degree-1 maps, maps of
    degree <= 6 with multiplicities (infinity a zero or a pole in about a
    quarter of them), and ladder-type maps of degree 10."""
    rng = DetRng(seed)
    for k in range(30):
        yield random_mobius(rng, [2, 3, 5, 7][k % 4])
    for k in range(120):
        yield random_factored_map(rng, [2, 3, 5, 7][k % 4], dmax=6, multiplicities=True)
    for p in (2, 3, 5):
        yield random_ladder_map(rng, p, 10)


def _zero_pole_hull(m):
    ff = m.factored
    return hull(m.p, [q for q, _ in ff.zeros] + [q for q, _ in ff.poles])


def _w0_equal_set(sh, lo, hi):
    """The equality set of env(f) and env(g) on [lo, hi]: the first
    (w = 0) condition of ``ref_gauss_fiber_zero_set``."""
    w0 = sh.diff_lines(ref_candidate(sh.p, 0, 1))
    return ref_zero_set(ref_sub(lower_envelope(w0, lo, hi),
                                lower_envelope(sh.g_lines(), lo, hi)))


def _line_has_zero(k, s, lo, hi):
    """Whether K + s*t vanishes somewhere on [lo, hi] (None: unbounded),
    by the line's values at finite ends and its sign toward open ones."""
    if s == 0:
        return k == 0
    a = -s if lo is None else k + s * lo
    b = s if hi is None else k + s * hi
    return min(a, b) <= 0 <= max(a, b)


def test_screened_gpr_equals_unscreened_scan():
    """The screen changes no field of the result: gpr on the zero/pole
    hull equals the reference scan of every edge of the same hull,
    preimages in order, on the acceptance corpus, the screen maps and
    seeded ladder-type maps of degree 10 and 20."""
    rng = DetRng(2024)
    ladder = [random_ladder_map(rng, p, d) for d in (10, 20) for p in (3, 5)]
    maps = acceptance_corpus() + list(_screen_maps(31)) + ladder
    for m in maps:
        ff = m.factored
        assert gpr(m) == ref_gpr_scan(m, [q for q, _ in ff.zeros + ff.poles]), m


def test_gpr_preimage_key_matches_berk_equal_dedupe(count_calls):
    """Keying each preimage by where it lies on the hull (a vertex by
    identity, an edge's inside by (edge index, t)) finds the points, in
    the order, that a ``berk_equal`` scan of ``found`` does, with one
    pushforward per distinct point: on the acceptance corpus, maps with
    multiplicities and ladder-type maps of degree 10, 20 and 30 at p = 3."""
    rng = DetRng(2603)
    maps = acceptance_corpus()
    maps += [random_factored_map(rng, p, dmax=6, multiplicities=True) for p in (2, 3, 5, 7) * 3]
    maps += [random_ladder_map(rng, 3, d) for d, count in ((10, 3), (20, 4), (30, 3))
             for _ in range(count)]
    calls = count_calls(push_forward)
    for m in maps:
        calls.clear()
        res = gpr(m)
        assert res == ref_gpr_found_by_scan(m), m
        assert len(calls) == len(res.preimages), m


def test_screen_agrees_with_w0_equality_set():
    """Edge by edge, the line K + s*t of the screen is ord phi = env(f) -
    env(g) on the edge (checked at its ends and inside), and it has a zero
    on the edge exactly when the w = 0 equality set is nonempty.  gpr's
    own decision agrees: a sloped edge has a fiber point exactly when the
    line has a zero, and a flat edge has one only then."""
    seen = {"deg1": 0, "inf_zero": 0, "inf_pole": 0, "kept": 0, "skipped": 0}
    for m in _screen_maps(32):
        p, ff = m.p, m.factored
        seen["deg1"] += m.d == 1
        seen["inf_zero"] += any(q.is_inf for q, _ in ff.zeros)
        seen["inf_pole"] += any(q.is_inf for q, _ in ff.poles)
        fi, gi = m.F, m.G
        edges = _zero_pole_hull(m).edges
        for e, (k, s, ts) in zip(edges, fiber_by_edge(m)):
            lo, hi = t_range(e)
            sh = Shift.at(p, fi, gi, e.center)
            inverted = Shift(p, sh.ov, sh.qg, sh.qf, sh.og, sh.of)
            a = lo if lo is not None else (hi if hi is not None else 0) - 3
            b = hi if hi is not None else a + 5
            for t in (a, (a + b) / 2, b):
                semi_f = min(o + j * t for j, o in inverted.g_lines())
                semi_g = min(o + j * t for j, o in sh.g_lines())
                assert k + s * t == semi_f - semi_g, (m, e, t)
            kept = _line_has_zero(k, s, lo, hi)
            assert kept == bool(_w0_equal_set(sh, lo, hi)), (m, e)
            assert bool(ts) == kept if s else kept or not ts, (m, e, ts)
            seen["kept" if kept else "skipped"] += 1
    assert all(n >= 20 for n in seen.values()), seen


def test_point_decision_matches_reference_fiber():
    """gpr's decision on a screened edge of nonzero slope s, the one point
    t0 = -K/s taken without a test, is the reference fiber of the whole
    edge read on the shift at the edge center: exactly [(t0, t0)].  Edges
    whose center is a pole of the map are among them.  Maps: the
    acceptance corpus, 120 maps with multiplicities, and ladder-type maps
    of degree 10 and 20."""
    rng = DetRng(5150)
    maps = acceptance_corpus()
    maps += [random_factored_map(rng, [2, 3, 5, 7][k % 4], dmax=6, multiplicities=True)
             for k in range(120)]
    maps += [random_ladder_map(rng, p, d) for d in (10, 20) for p in (3, 5)]
    seen = {"sloped": 0, "pole_center": 0}
    for m in maps:
        p, ff = m.p, m.factored
        fi, gi = m.F, m.G
        edges = _zero_pole_hull(m).edges
        for e, (k, s, ts) in zip(edges, fiber_by_edge(m)):
            lo, hi = t_range(e)
            if s and _line_has_zero(k, s, lo, hi):
                t0 = Fraction(-k, s)
                assert ts == [t0], (m, e)
                sh = Shift.at(p, fi, gi, e.center)
                assert ref_gauss_fiber_zero_set(sh, lo, hi) == [(t0, t0)], (m, e)
                seen["sloped"] += 1
                c = e.center
                seen["pole_center"] += hom_eval(gi, c.numerator, c.denominator) == 0
    assert seen["pole_center"] >= 50 and seen["sloped"] >= 100, seen


def test_screen_counts_shifts_and_reverifications(count_calls):
    """gpr builds no shift for any edge, sloped or flat, and re-verifies
    each distinct preimage once, each pushforward starting one shift of F
    and one of G: every started Taylor shift (``taylor_shift``) is one of
    the two of a pushforward.  The totals are pinned, so a screen that
    passes every edge, or a shift built for an edge, fails here."""
    pushes = count_calls(push_forward)
    started = count_calls(taylor_shift)
    totals = {"started": 0, "pushes": 0, "unscreened": 0}
    rng = DetRng(4711)
    maps = [random_factored_map(rng, p, dmax=6, multiplicities=True) for p in (3, 5, 7) * 4]
    maps += [random_ladder_map(rng, 3, 10), random_ladder_map(rng, 5, 10)]
    for m in maps:
        edges = _zero_pole_hull(m).edges
        pushes.clear()
        started.clear()
        res = gpr(m)
        assert len(pushes) == len(res.preimages)
        assert len(started) == 2 * len(pushes), m
        totals["started"] += len(started)
        totals["pushes"] += len(pushes)
        totals["unscreened"] += len({e.center for e in edges})
    assert totals == {"started": 90, "pushes": 45, "unscreened": 92}, totals


def test_bundle_examples():
    p = 3
    b = bundle(sq_minus_inv_p2(p))
    assert (b.gir, b.rp, b.gpr, b.res) == (Ord.of(4), Ord.of(1), Ord.of(3), Ord.of(8))
    assert b.b0_lower == Ord.of(1)
    ident = from_factored(p, 1, [(pt(0), 1)], [(INF_POINT, 1)])
    b = bundle(ident)
    assert (b.gir, b.rp, b.gpr, b.res, b.b0_lower) == (
        Ord.of(0), Ord.of(0), Ord.of(0), Ord.of(0), Ord.of(0),
    )
    mob = from_factored(p, Fraction(1, 9), [(pt(0), 1)], [(INF_POINT, 1)])
    b = bundle(mob)
    assert (b.gir, b.gpr, b.res) == (Ord.of(2), Ord.of(2), Ord.of(2))
    assert b.rp == Ord.of(0) and b.b0_lower == Ord.of(0)


def test_bundle_chain_on_corpus():
    rng = DetRng(1414)
    for _ in range(60):
        p = [3, 5, 7][rng.randint(0, 2)]
        m = random_factored_map(rng, p, dmax=5)
        b = bundle(m)  # raises on any chain violation
        # value form: |Res| <= GPR <= RP <= 1, RP >= |Res|
        assert b.res >= b.gpr >= b.rp >= Ord.of(0)
        assert b.gir * b.d <= b.res * 1  # GIR^d >= |Res|
        assert b.gir <= b.res * Fraction(1, b.d)


def test_bundle_memo_keeps_the_last_map_only(count_calls):
    """The same map object gets back the identical bundle; an equal map
    built again is computed, and so is a map asked for again after
    another one (a, b, a computes three times).  Degree 1, degree 2 and a
    map with only coefficients."""
    girs = count_calls(gir_minors)
    gprs = count_calls(gpr)
    for build in (
        lambda: from_factored(5, Fraction(1, 25), [(pt(0), 1)], [(INF_POINT, 1)]),
        lambda: sq_minus_inv_p2(3),
        lambda: from_coeffs(3, [1, 1, 1], [1, 0, 0]),
    ):
        m = build()
        girs.clear()
        gprs.clear()
        first = bundle(m)
        assert bundle(m) is first and bundle(m) is first
        assert len(girs) == 1 and len(gprs) == (m.factored is not None)
        again = build()
        assert again == m and again is not m
        rebuilt = bundle(again)
        assert rebuilt == first and rebuilt is not first and len(girs) == 2
        other = sq_minus_inv_p2(7)
        girs.clear()
        bundle(m)
        bundle(other)
        assert bundle(m) == first and len(girs) == 3


def test_bundle_memo_never_keeps_a_failure(monkeypatch):
    """A bundle that raises is not kept: the next call on the same map
    computes it again, and succeeds."""
    m = sq_minus_inv_p2(5)
    expected = bundle(sq_minus_inv_p2(5))
    calls = []

    def fails_once(x):
        calls.append(x)
        if len(calls) == 1:
            raise InternalInvariantError("fails once")
        return gir_minors(x)

    monkeypatch.setattr(invariants, "gir_minors", fails_once)
    with pytest.raises(InternalInvariantError, match="fails once"):
        bundle(m)
    b = bundle(m)
    assert b == expected and len(calls) == 2
    assert bundle(m) is b and len(calls) == 2


def test_bundle_memo_across_threads():
    """Threads asking for different maps at once each get their own map's
    bundle, never another's: the kept entry is read once per call.  A
    short switch interval makes the threads interleave inside ``bundle``;
    a memo whose map and bundle are two globals, read one after the
    other, fails here."""
    maps = [sq_minus_inv_p2(3), sq_minus_inv_p2(5)]
    expected = [bundle(m) for m in maps]
    wrong = []

    def work(shift):
        for k in range(600):
            i = (k + shift) % 2
            for _ in range(3):
                if bundle(maps[i]) != expected[i]:
                    wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(j,)) for j in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_gpr_strictness_witness():
    # GPR < RP strictly for the square-minus-inverse-square family
    b = bundle(sq_minus_inv_p2(3))
    assert b.gpr > b.rp


def test_bundle_note_for_coefficient_only_maps():
    from berklip.ratmap import from_coeffs

    b = bundle(from_coeffs(3, [1, 1, 1], [1, 0, 0]))
    assert b.rp is None and b.gpr is None
    assert "factorization" in b.note


def test_full_pipeline_with_multiplicities():
    """Repeated zeros and poles flow through every invariant exactly."""
    from berklip.ratmap import resultant_ord, resultant_ord_product

    rng = DetRng(97531)
    seen_multiple = 0
    for _ in range(40):
        p = [3, 5, 7][rng.randint(0, 2)]
        m = random_factored_map(rng, p, dmax=5, multiplicities=True)
        if any(mult > 1 for _, mult in m.factored.zeros + m.factored.poles):
            seen_multiple += 1
        assert resultant_ord(m) == resultant_ord_product(m)
        b = bundle(m)
        assert berk_equal(p, push_forward(m, gpr(m).argmin), gauss_point())
        assert b.res >= b.gpr >= b.rp >= Ord.of(0)
    assert seen_multiple >= 10


def test_hull_scan_completeness_spot_check():
    """A dense grid of 10^3 disc points on the hull never maps to the
    Gauss point with smaller diameter than the reported minimum.

    A point can map to the Gauss point only if the seminorm of the map
    there is exactly 1, so the grid applies that exact test first and
    verifies the rare hits with the full pushforward.
    """
    from oracles import ref_semi, ref_taylor_shift

    rng = DetRng(5252)
    for _ in range(50):
        p = [3, 5][rng.randint(0, 1)]
        m = random_factored_map(rng, p, dmax=3)
        res = gpr(m)
        ff = m.factored
        points = [q for q, _ in ff.zeros] + [q for q, _ in ff.poles]
        tree = hull(p, points)
        f, g = dehomogenized(m)
        grid = 0
        per_edge = max(4, 1000 // len(tree.edges))
        for edge in tree.edges:
            lo, hi = t_range(edge)
            lo = lo if lo is not None else Fraction(-6)
            hi = hi if hi is not None else Fraction(6)
            if lo > hi:
                continue
            fs = ref_taylor_shift(f, edge.center)
            gs = ref_taylor_shift(g, edge.center)
            for k in range(per_edge + 1):
                t = lo + (hi - lo) * Fraction(k, per_edge)
                grid += 1
                if ref_semi(p, fs, t) != ref_semi(p, gs, t):
                    continue  # seminorm of the map is not 1: not a preimage
                x = BerkPoint.disc(edge.center, t)
                if berk_equal(p, push_forward(m, x), gauss_point()):
                    assert diam_gauss(p, x) <= res.ord
        assert grid >= 1000
