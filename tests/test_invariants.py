"""Hulls, root-pole number, Gauss preimage radius, invariant bundles."""

from fractions import Fraction

import pytest

from berklip.berk import BerkPoint, berk_equal, diam_gauss, gauss_point, push_forward
from berklip.errors import FactoredFormRequiredError
from berklip.invariants import bundle, gpr, hull, rp_ord
from berklip.projective import INF_POINT, ProjPoint
from berklip.ratmap import from_coeffs, from_factored
from berklip.sampling import DetRng, random_rational
from berklip.valued import Ord
from corpus import random_factored_map
from oracles import dehomogenized, ref_hull


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
            lo, hi = edge.t_range()
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
