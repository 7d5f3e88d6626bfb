"""Lipschitz constants, bound formulas, radial profiles, sampling."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berklip import invariants
from berklip.berk import BerkPoint, diam_gauss, push_forward
from berklip.errors import DegenerateMapError, FactoredFormRequiredError, ParseError
from berklip.invariants import bundle, gpr, hull, rp_ord
from berklip.lipschitz import (
    _cross_ord,
    _pair_pool,
    _sph_pair_ord,
    bound_report,
    gpr_witness,
    invariant_bound,
    invariant_bound_terms,
    lip_classical,
    mobius_exact,
    radial_profile,
    resultant_bounds,
    sample_ratios,
    segment_lip,
)
from berklip.piecewise import PWLinear, lower_envelope
from berklip.polynomials import hom_eval, taylor_shift
from berklip.projective import INF_POINT, ProjPoint, spherical_ord
from berklip.ratmap import (
    eval_proj,
    from_coeffs,
    from_factored,
    gir_minors,
)
from berklip.sampling import DetRng, random_rational
from berklip.valued import Ord, ppow_compare, ppow_term
from corpus import acceptance_corpus, random_factored_map, random_ladder_map, random_mobius
from oracles import (
    Shift,
    choice,
    ref_gpr_witness,
    ref_radial_profile,
    ref_sample_ratios,
    ref_spherical_ord,
    value_ord_at,
    with_multiplicity,
)


def pt(x):
    return ProjPoint.of(Fraction(x))


def sq_minus_inv_p2(p):
    return from_factored(
        p, 1,
        [(pt(Fraction(1, p)), 1), (pt(Fraction(-1, p)), 1)],
        [(INF_POINT, 2)],
    )


def example1_map(p, d, k, beta_scale, c):
    """C z^k / prod (z - beta_i) with d poles on the sphere |z| = |beta_scale|."""
    poles = [(pt(beta_scale * (i + 1)), 1) for i in range(d)]
    return from_factored(p, c, [(pt(0), k)], poles)


def test_lip_classical_examples():
    p = 3
    assert lip_classical(bundle(sq_minus_inv_p2(p))) == ppow_term(p, 1, 3)  # 27
    zd = from_factored(p, 1, [(pt(0), 2)], [(INF_POINT, 2)])
    assert lip_classical(bundle(zd)) == ppow_term(p, 1, 0)
    mob = from_factored(p, Fraction(1, 9), [(pt(0), 1)], [(INF_POINT, 1)])
    assert lip_classical(bundle(mob)) == ppow_term(p, 1, 2)


def test_resultant_bounds_examples():
    p = 3
    cl, bk = resultant_bounds(sq_minus_inv_p2(p))
    assert cl == ppow_term(p, 1, 8)
    assert bk == ppow_term(p, 1, 16)  # 3^16 beats 2 * 3^8
    zd = from_coeffs(p, [0, 0, 1], [1, 0, 0])
    cl, bk = resultant_bounds(zd)
    assert cl == ppow_term(p, 1, 0)
    assert bk == ppow_term(p, 2, 0)  # good reduction: max(d, 1) = d
    mob = from_coeffs(p, [0, 1], [9, 0])
    cl, bk = resultant_bounds(mob)
    assert cl == bk == ppow_term(p, 1, 2)


def test_invariant_bound_examples():
    p = 3
    m = sq_minus_inv_p2(p)
    b = invariant_bound(bundle(m), rp_ord(m).frac)
    assert b == ppow_term(p, 1, 6)  # max(3^6, 2*3^3) = 729
    with pytest.raises(ValueError):
        invariant_bound(bundle(m), -1)
    mob = from_coeffs(p, [0, 1], [9, 0])
    assert invariant_bound(bundle(mob), 0) == ppow_term(p, 1, 2)  # 1/GIR


def test_radial_profile_examples():
    p = 3
    zd = from_coeffs(p, [0, 0, 1], [1, 0, 0])
    pr = radial_profile(zd, 0, 0)
    assert [(s.t_hi, s.t_lo, s.coeff_ord, s.k) for s in pr.segments] == [
        (Fraction(0), None, Fraction(0), 2)
    ]
    m = sq_minus_inv_p2(p)
    pr = radial_profile(m, Fraction(1, p), 0)
    # diam of image is 3r on r <= 1/3 (slope 1, unit coefficient p^1)
    tail = pr.segments[-1]
    assert (tail.t_hi, tail.t_lo, tail.coeff_ord, tail.k) == (Fraction(1), None, Fraction(-1), 1)
    assert value_ord_at(pr, 2) == Fraction(1)  # diam(image) = p^-1 at r = p^-2


def _degree_64_map():
    """The degree-64 map with zeros 1..64 and poles -k/2 at p = 3."""
    return from_factored(3, 1, [(pt(k), 1) for k in range(1, 65)],
                         [(pt(Fraction(-k, 2)), 1) for k in range(1, 65)])


def test_radial_profile_reads_one_envelope_per_piece_of_env_g(count_calls, monkeypatch):
    """On the degree-64 map, at the center 0 and at a 100-digit center,
    radial_profile takes one envelope of env(g) and one of f - w g and
    one max per piece of env(g), and equals the chart-and-candidates
    reference."""
    m = _degree_64_map()
    envelopes = count_calls(lower_envelope)
    maxes = []
    max_with = PWLinear.max_with

    def counted(*args):
        maxes.append(args)
        return max_with(*args)

    monkeypatch.setattr(PWLinear, "max_with", counted)
    for center in (Fraction(0), Fraction(int("7" * 99 + "6"))):
        sh = Shift.at(m.p, m.F, m.G, center)
        pieces = len(lower_envelope(sh.g_lines(), Fraction(0), None).pieces)
        envelopes.clear()
        maxes.clear()
        got = radial_profile(m, center, 0)
        assert pieces > 1, center
        assert (len(envelopes), len(maxes)) == (pieces + 1, pieces), (center, pieces)
        assert got == ref_radial_profile(m, center, 0), center


def test_radial_profile_starts_two_shifts(count_calls):
    """A profile starts one Taylor shift of F and one of G, both to the
    center, on the degree-64 map and on the acceptance corpus."""
    started = count_calls(taylor_shift)
    maps = [_degree_64_map()] + acceptance_corpus()
    for m in maps:
        for center in (Fraction(0), Fraction(int("7" * 99 + "6"), 5)):
            started.clear()
            radial_profile(m, center, Fraction(3, 2))
            assert [a for _, a in started] == [center.numerator] * 2, (m, center)


def test_radial_profile_matches_pointwise_pushforward():
    rng = DetRng(8888)
    for _ in range(25):
        p = [3, 5][rng.randint(0, 1)]
        m = random_factored_map(rng, p, dmax=4)
        center = random_rational(rng, p)
        pr = radial_profile(m, center, 0)
        for _ in range(8):
            t = Fraction(rng.randint(0, 24), rng.randint(1, 4))
            img = push_forward(m, BerkPoint.disc(center, t))
            assert diam_gauss(p, img) == Ord.of(value_ord_at(pr, t))


def test_radial_profile_matches_argmax_and_fold_reference():
    """radial_profile (per piece of env(g), the envelope of the one ratio
    of its slope, folded by the diameter formula, with no chart) equals
    the reference that splits the ray into chart regions, finds a
    maximizing center among all candidates on each piece and folds the
    piece at it, on factored maps of degree <= 6 and ladder maps of
    degree 5, 10 and 15, with ray centers at random rationals and near
    zeros and poles; hundreds of the rays reach the reference's
    inversion chart."""
    rng = DetRng(8890)
    maps = [random_factored_map(rng, [2, 3, 5, 7][k % 4], dmax=6) for k in range(170)]
    maps += [random_ladder_map(rng, [2, 3, 5, 7][k % 4], d) for k, d in enumerate((5, 10, 15) * 2)]
    triples = swapped = 0
    for m in maps:
        points = [q.z for q, _ in m.factored.zeros + m.factored.poles if not q.is_inf]
        for _ in range(9):
            p = m.p
            center = random_rational(rng, p)
            if rng.randint(0, 1):
                center = choice(rng, points) + center * Fraction(p) ** rng.randint(0, 4)
            t_min = Fraction(rng.randint(0, 8), rng.randint(1, 3))
            events: set = set()
            want = ref_radial_profile(m, center, t_min, events)
            assert radial_profile(m, center, t_min) == want, (m, center, t_min)
            triples += 1
            swapped += "swap" in events
    assert triples >= 1500 and swapped >= 400, (triples, swapped)


def test_profile_monotone_exponents_in_pole_free_regime():
    """With no finite poles and image inside the unit disc, the slopes of
    the diameter profile never decrease toward the center."""
    rng = DetRng(909)
    checked = 0
    while checked < 15:
        p = [3, 5][rng.randint(0, 1)]
        d = rng.randint(1, 4)
        zeros = []
        pool = set()
        while len(zeros) < d:
            z = random_rational(rng, p)
            if z not in pool and abs_ord_nonneg(p, z):
                pool.add(z)
                zeros.append((pt(z), 1))
        try:
            m = from_factored(p, 1, zeros, [(INF_POINT, d)])
        except Exception:
            continue
        pr = radial_profile(m, 0, 0)
        ks = [s.k for s in pr.segments]
        if any(k < 0 for k in ks):
            continue  # image exits the unit disc; not the pole-free regime
        # segments are ordered by increasing t, i.e. decreasing radius, so
        # the exponents must be non-increasing here (non-decreasing in r)
        assert ks == sorted(ks, reverse=True)
        checked += 1


def abs_ord_nonneg(p, z):
    from berklip.projective import _vord

    v = _vord(Fraction(z), p)
    return v is None or v >= 0


def test_example1_profile_and_segment_lip():
    # d = 3, k in {1, 2}, S = p^-1, |C| = p^2 at p = 5
    p = 5
    for k in (1, 2):
        m = example1_map(p, 3, k, 5, Fraction(1, 25))
        assert gir_minors(m) == Ord.of(2)  # GIR = 1/|C| = p^-2
        pr = radial_profile(m, 0, 1)  # scan [0, S]
        # diameter profile is |C| r^k / S^d while below 1: slope k piece;
        # r1 = (S^d / |C|)^(1/k) has exponent (d * t_S - ord C)/k = 5/k
        t1 = Fraction(3 * 1 - (-2), k)
        assert value_ord_at(pr, t1) == 0
        assert value_ord_at(pr, t1 + 1) == k  # slope k below r1
        lip = segment_lip(pr)
        # k / r1 = k * p^(t1)
        assert lip == ppow_term(p, k, t1)


def test_example1_sharpness_k1_first_term():
    p = 5
    m = example1_map(p, 3, 1, 5, Fraction(1, 25))
    first, second = invariant_bound_terms(bundle(m), 1)  # B0 = S = p^-1
    pr = radial_profile(m, 0, 1)
    lip = segment_lip(pr)
    assert ppow_compare(p, lip, first) == 0  # attains 1/(GIR * B0^d)
    assert ppow_compare(p, lip, invariant_bound(bundle(m), 1)) <= 0


def test_example2_approaches_second_term():
    # C z^d / prod_{i<d} (z - beta_i): segment lip differs from the second
    # bound term by exactly B0^(1/d)
    p = 5
    d = 3
    poles = [(pt(5), 1), (pt(10), 1)]
    m = from_factored(p, Fraction(1, 25), [(pt(0), d)], poles)
    assert gir_minors(m) == Ord.of(2)
    pr = radial_profile(m, 0, 1)
    lip = segment_lip(pr)
    t1 = Fraction(2 * 1 + 2, d)  # (S^(d-1)/|C|)^(1/d)
    assert lip == ppow_term(p, d, t1)
    _, second = invariant_bound_terms(bundle(m), 1)
    # second / lip = p^(1/d) = B0^(-1/d) ... i.e. lip * B0^(-1/d) = second
    from berklip.valued import ppow_mul

    assert ppow_compare(p, ppow_mul(p, lip, ppow_term(p, 1, Fraction(1, d))), second) == 0


def test_segment_lip_constant_segment_is_zero():
    from berklip.lipschitz import ProfileSegment, RadialProfile

    pr = RadialProfile(3, Fraction(0), Fraction(0), (ProfileSegment(Fraction(0), None, Fraction(2), 0),))
    assert segment_lip(pr).is_zero


def test_mobius_exact_examples():
    p = 3
    m = from_coeffs(p, [0, 1], [9, 0])
    assert mobius_exact(m, bundle(m)) == ppow_term(p, 1, 2)
    m = from_coeffs(p, [2, 1], [1, 0])
    assert mobius_exact(m, bundle(m)) == ppow_term(p, 1, 0)  # z + 2
    m = from_coeffs(p, [0, 0, 1], [1, 0, 0])
    with pytest.raises(ValueError):
        mobius_exact(m, bundle(m))
    rng = DetRng(42)
    for _ in range(40):
        m = random_mobius(rng, [3, 5, 7][rng.randint(0, 2)])
        mobius_exact(m, bundle(m))  # internal five-way agreement assertion


def test_sample_ratios_examples():
    p = 3
    ident = from_coeffs(p, [0, 1], [1, 0])
    s, pair = sample_ratios(ident, 200, 7)
    assert s == ppow_term(p, 1, 0)
    m = sq_minus_inv_p2(p)
    s, pair = sample_ratios(m, 4000, 11)
    assert ppow_compare(p, s, ppow_term(p, 1, 3)) <= 0
    zd = from_factored(p, 1, [(pt(0), 3)], [(INF_POINT, 3)])
    s, _ = sample_ratios(zd, 500, 3)
    assert ppow_compare(p, s, ppow_term(p, 1, 0)) <= 0


def _random_coeff_map(rng, p, dmax):
    """A coefficient-only map of degree <= dmax, some coefficients zero."""
    while True:
        d = rng.randint(1, dmax)
        f = [random_rational(rng, p) if rng.randint(0, 3) else 0 for _ in range(d + 1)]
        g = [random_rational(rng, p) if rng.randint(0, 3) else 0 for _ in range(d + 1)]
        try:
            return from_coeffs(p, f, g)
        except DegenerateMapError:
            continue


def test_sample_ratios_matches_unpruned_reference():
    """The skip of pairs that cannot win keeps the maximum and the witness
    of the unpruned loop, on factored and coefficient-only maps."""
    rng = DetRng(4321)
    for k in range(16):
        p = [2, 3, 5, 7][k % 4]
        if k % 8 >= 4:
            m = _random_coeff_map(rng, p, 8)
        else:
            m = random_factored_map(rng, p, dmax=8)
        for n in (1, 7, 1000):
            seed = rng.randint(0, 10**6)
            assert sample_ratios(m, n, seed) == ref_sample_ratios(m, n, seed), (k, n)
    # deep in a large pool many pairs tie at the maximum
    for p, dmax in ((3, 3), (7, 8)):
        m = random_factored_map(rng, p, dmax=dmax)
        assert sample_ratios(m, 10_000, 1) == ref_sample_ratios(m, 10_000, 1), p


@st.composite
def _int_point(draw, p):
    """A nonzero integer pair (num, den); den = 0 encodes infinity."""
    part = st.builds(lambda u, k: u * p**k, st.integers(-40, 40), st.integers(0, 12))
    return draw(st.tuples(part, part).filter(lambda nd: nd != (0, 0)))


def _proj(nd):
    n, d = nd
    return INF_POINT if d == 0 else ProjPoint.of(Fraction(n, d))


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(data=st.data())
def test_sph_pair_ord_is_nonnegative(data):
    """Spherical distances are at most 1: the exponent is None (equal
    points) or a nonnegative int, and it is the Fraction reference's on
    the reduced points."""
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    (un, ud), (vn, vd) = data.draw(_int_point(p)), data.draw(_int_point(p))
    s = _sph_pair_ord(p, un, ud, vn, vd)
    assert s is None or (type(s) is int and s >= 0)
    ref = ref_spherical_ord(p, _proj((un, ud)), _proj((vn, vd)))
    assert s == ref


@st.composite
def _scale(draw, p):
    """A nonzero integer of either sign with a p-power and a part prime to p."""
    unit = draw(st.integers(1, 60).filter(lambda u: u % p))
    return draw(st.sampled_from([1, -1])) * unit * p ** draw(st.integers(0, 6))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_sph_pair_ord_is_scale_free(data):
    """The kernel reads homogeneous pairs: scaling either pair by its own
    nonzero factor (p-powers, factors prime to p, signs) leaves the
    distance unchanged, and (k, 0) is infinity for every k != 0."""
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    (un, ud), (vn, vd) = data.draw(_int_point(p)), data.draw(_int_point(p))
    a, b = data.draw(_scale(p)), data.draw(_scale(p))
    s = _sph_pair_ord(p, un, ud, vn, vd)
    assert _sph_pair_ord(p, a * un, a * ud, b * vn, b * vd) == s
    assert _sph_pair_ord(p, b * vn, b * vd, a * un, a * ud) == s
    k = data.draw(st.integers(2, 10**6)) * data.draw(st.sampled_from([1, -1]))
    k *= p ** data.draw(st.integers(0, 4))
    at_inf = _sph_pair_ord(p, k, 0, vn, vd)
    assert at_inf == _sph_pair_ord(p, 1, 0, vn, vd)
    assert at_inf == ref_spherical_ord(p, INF_POINT, _proj((vn, vd)))


def _pool_ratios(m, n, seed):
    """(s, e) for each pair of the pool in pool order: its source distance
    exponent and ratio exponent (None where the images coincide), in
    Fractions by ``eval_proj`` and ``ref_spherical_ord``."""
    p = m.p
    points, pairs = _pair_pool(p, n, seed)
    out = []
    for _, _, a, b in sorted(pairs, key=lambda r: r[1]):
        x, y = (ProjPoint.of(Fraction(*points[i])) for i in (a, b))
        s = ref_spherical_ord(p, x, y)
        s_img = ref_spherical_ord(p, eval_proj(m, x), eval_proj(m, y))
        out.append((s, None if s_img is None else s - s_img))
    return out


def _stop_rule_model(ratios):
    """The pool indices of the pairs the stop rule evaluates, in the order
    it visits them (descending s, ties in pool order), from the pool's
    ``_pool_ratios``: those with s above the final maximum M, and those
    with s = M at or before the witness W, the first pair in pool order
    with e = M."""
    big = max(e for _, e in ratios if e is not None)
    first = next(k for k, (_, e) in enumerate(ratios) if e == big)
    order = sorted(range(len(ratios)), key=lambda k: (-ratios[k][0], k))
    return [k for k in order if ratios[k][0] > big or (ratios[k][0] == big and k <= first)]


def test_sample_ratios_skips_pairs_that_cannot_win(count_calls):
    """A pair is evaluated only if its source exponent is above the final
    maximum, or equal to it and no later in pool order than the witness:
    for z^2 the maximum is 0, and the pool's pairs at distance 1 (about two
    thirds) are never reached."""
    p, n, seed = 3, 1000, 5
    m = from_factored(p, 1, [(pt(0), 2)], [(INF_POINT, 2)])
    expected = len(_stop_rule_model(_pool_ratios(m, n, seed)))
    _pair_pool(p, n, seed)  # built before counting
    calls = count_calls(_cross_ord)
    got = sample_ratios(m, n, seed, lip_ord=Fraction(0))
    assert got == ref_sample_ratios(m, n, seed)
    assert len(calls) == expected < n // 2


class _TopReads(tuple):
    """A form that counts the reads of its top coefficient: the sampler's
    Horner loop reads it once per point it evaluates."""

    reads = 0

    def __getitem__(self, i):
        if i == len(self) - 1:
            self.reads += 1
        return tuple.__getitem__(self, i)


def test_sample_ratios_evaluates_each_point_once(count_calls):
    """Per map, the sampler evaluates each distinct pool point at most once
    and reaches exactly the pairs of the stop rule's model, in its visiting
    order, so never one whose source exponent is below the final maximum.
    The pool lists each point once, with every pair's source exponent, by
    descending source exponent and ties in pool order."""
    rng = DetRng(808)
    maps = acceptance_corpus()[:12]
    maps += [_random_coeff_map(rng, p, 6) for p in (2, 3, 5, 7)]
    maps.append(from_factored(3, 1, [(pt(0), 2)], [(INF_POINT, 2)]))
    calls = count_calls(_cross_ord)
    for k, m in enumerate(maps):
        p, n, seed = m.p, (200, 1000)[k % 2], k
        ratios = _pool_ratios(m, n, seed)
        model = _stop_rule_model(ratios)
        points, pairs = _pair_pool(p, n, seed)
        assert len(set(points)) == len(points)
        assert [(-s, i) for s, i, _, _ in pairs] == sorted((-s, i) for s, i, _, _ in pairs)
        assert all(s == ratios[i][0] for s, i, _, _ in pairs)
        ends = {i: (a, b) for _, i, a, b in pairs}
        images = [(hom_eval(m.F, *xy), hom_eval(m.G, *xy)) for xy in points]
        images = [(fx, gx, gcd(fx, gx)) for fx, gx in images]
        lip = bundle(m).gpr.frac if m.factored is not None else None
        expected = []
        for i in model:
            (fa, ga, ca), (fb, gb, cb) = images[ends[i][0]], images[ends[i][1]]
            expected.append((p, fa, ga, fb, gb, ca * cb))
        top = _TopReads(m.F)
        calls.clear()
        got = sample_ratios(m._replace(F=top), n, seed, lip_ord=lip)
        assert got == ref_sample_ratios(m, n, seed), k
        assert calls == expected, k
        assert top.reads == len({j for i in model for j in ends[i]}), k


def test_sample_ratios_tie_goes_to_the_first_pair_in_pool_order():
    """For z^2 at p = 3 the pool of 12 pairs at seed 5 has its first pair
    at the maximum 0 with source exponent 0, and a later pair with a
    larger source exponent, visited earlier, that reaches the same
    maximum: the witness is still the first pair in pool order."""
    p, n, seed = 3, 12, 5
    m = from_factored(p, 1, [(pt(0), 2)], [(INF_POINT, 2)])
    ratios = _pool_ratios(m, n, seed)
    big = max(e for _, e in ratios if e is not None)
    first = next(k for k, (_, e) in enumerate(ratios) if e == big)
    assert any(
        e == big and s > ratios[first][0] for s, e in ratios[first + 1:]
    ), "the pool no longer holds a later tie at a larger source exponent"
    got = sample_ratios(m, n, seed)
    assert got == ref_sample_ratios(m, n, seed)
    points, pairs = _pair_pool(p, n, seed)
    a, b = next((a, b) for _, i, a, b in pairs if i == first)
    assert got[1] == tuple(ProjPoint.of(Fraction(*points[j])) for j in (a, b))


def test_gpr_witness_examples():
    p = 3
    m = sq_minus_inv_p2(p)
    w, note = gpr_witness(m, bundle(m))
    assert note is None
    x, y = w
    assert spherical_ord(p, x, y) == Ord.of(3)
    assert spherical_ord(p, eval_proj(m, x), eval_proj(m, y)) == Ord.of(0)
    mob = from_factored(p, Fraction(1, 9), [(pt(0), 1)], [(INF_POINT, 1)])
    w, note = gpr_witness(mob, bundle(mob))
    assert w == (pt(0), pt(9))
    ident = from_factored(p, 1, [(pt(0), 1)], [(INF_POINT, 1)])
    w, _ = gpr_witness(ident, bundle(ident))
    assert w == (pt(0), pt(1))


def test_gpr_witness_matches_fraction_reference():
    """The integer witness search returns what the Fraction search of
    ``ref_gpr_witness`` returns, pair or note, on the acceptance corpus
    and on maps at p = 2 and p = 101: both charts, the infinity candidate
    of the inverted chart, a fractional radius, no witness, and the cap
    of 97 directions."""
    rng = DetRng(97)
    maps = acceptance_corpus()
    maps += [random_factored_map(rng, p, dmax=5) for p in (2, 101) for _ in range(40)]
    seen = {"inverted": 0, "infinity": 0, "none": 0, "capped": 0}
    for m in maps:
        got = gpr_witness(m, bundle(m))
        assert got == ref_gpr_witness(m), m
        q = gpr(m).argmin
        # outside the closed unit disc exactly when diam_G differs from r
        seen["inverted"] += diam_gauss(m.p, q) != Ord.of(q.radius_ord)
        seen["infinity"] += got[0] is not None and INF_POINT in got[0]
        seen["none"] += got[0] is None
        seen["capped"] += m.p > 97 and got[0] is not None
    assert all(n >= 5 for n in seen.values()), seen


def test_growth_bound_along_profiles():
    """For a map with a zero at 0 and no poles inside |z| < B = RP, the
    image diameter at radius B obeys diam <= B^(n-m) / GIR."""
    from oracles import diam_infty
    from berklip.errors import DegenerateMapError

    rng = DetRng(777)
    checked = 0
    while checked < 20:
        p = [3, 5, 7][rng.randint(0, 2)]
        d = rng.randint(2, 5)
        zeros = [(pt(0), 1)]
        taken = {Fraction(0)}
        for _ in range(rng.randint(0, d - 1)):
            z = random_rational(rng, p)
            if z not in taken:
                taken.add(z)
                zeros.append((pt(z), 1))
        poles = []
        for _ in range(rng.randint(1, d)):
            z = random_rational(rng, p)
            if z not in taken:
                taken.add(z)
                poles.append((pt(z), 1))
        if not poles:
            poles = [(INF_POINT, 1)]
        try:
            m = from_factored(p, random_rational(rng, p), zeros, poles)
        except DegenerateMapError:
            continue
        ff = m.factored
        zeros_pts = with_multiplicity(ff.zeros)
        b_ord = rp_ord(m).frac
        x = BerkPoint.disc(0, b_ord)
        img = push_forward(m, x)
        f_b = diam_infty(img)
        n = sum(1 for z in zeros_pts if not z.is_inf and in_open_disc(p, z.z, b_ord))
        mm = sum(
            1
            for q in with_multiplicity(ff.poles)
            if not q.is_inf and pole_in_annulus(p, q.z, b_ord)
        )
        gir = gir_minors(m).frac
        # value form f(B) <= B^(n-m) / GIR, i.e. ord >= (n-m) b_ord - gir
        assert f_b >= Ord.of((n - mm) * b_ord - gir)
        checked += 1


def in_open_disc(p, z, b_ord):
    from berklip.projective import _vord

    v = _vord(Fraction(z), p)
    return v is None or v > b_ord


def pole_in_annulus(p, z, b_ord):
    from berklip.projective import _vord

    v = _vord(Fraction(z), p)
    return v is not None and 0 < v <= b_ord


def test_bound_report_computes_gpr_once(count_calls):
    """One report reads gpr from one bundle: the witness search, the
    degree-1 cross-check and the sampler's bound do not recompute it."""
    calls = count_calls(gpr)
    mob = from_coeffs(5, [Fraction(1, 25), 3], [2, 5])
    cubic = from_factored(5, 1, [(pt(0), 2), (pt(5), 1)], [(pt(1), 2), (INF_POINT, 1)])
    for m, d in ((mob, 1), (sq_minus_inv_p2(3), 2), (cubic, 3)):
        calls.clear()
        rep = bound_report(m, n=50)
        assert len(calls) == 1
        assert rep.d == d and (rep.mobius_exact is not None) == (d == 1)
        assert rep.sampled_max_ratio is not None


def test_bound_report_assembly():
    p = 3
    m = sq_minus_inv_p2(p)
    rep = bound_report(m, n=500, seed=5, b0_ord=Fraction(1))
    assert rep.lip_classical == ppow_term(p, 1, 3)
    assert rep.resultant_bound_classical == ppow_term(p, 1, 8)
    assert rep.invariant_bound_rp == ppow_term(p, 1, 6)
    assert rep.invariant_bound_rp_coarse == ppow_term(p, 2, 6)  # d/(GIR*RP^d)
    assert rep.invariant_bound_user_b0 == ppow_term(p, 1, 6)
    assert rep.mobius_exact is None
    assert rep.sampled_max_ratio is not None
    assert ppow_compare(p, rep.sampled_max_ratio, rep.lip_classical) <= 0
    assert ppow_compare(p, rep.lip_classical, rep.resultant_bound_classical) <= 0
    assert rep.gpr_witness is not None


def _memo_maps():
    """Seeded maps for the memo tests: the acceptance corpus (degrees 1 to
    5), degree-1 maps, and maps with only coefficients, rebuilt from the
    coefficients of corpus maps of degree >= 2."""
    rng = DetRng(1512)
    maps = acceptance_corpus()
    maps += [random_mobius(rng, p) for p in (3, 5, 7) * 4]
    maps += [from_coeffs(m.p, list(m.f), list(m.g)) for m in maps[:60] if m.d >= 2]
    return maps


def test_corpus_operation_memo_computes_each_invariant_once(count_calls):
    """One operation of the corpus benchmark (bundle, then a bound report
    with 1000 samples, then the profile and its segment constant) builds
    the hull of the zeros and poles once per factored map, and calls gpr,
    rp and the Gauss-image minors once: gpr and rp read that one hull,
    and the report reads the bundle its caller just built.  A map with
    only coefficients computes the minors once and nothing of the
    zero/pole layer."""
    kernels = (gpr, hull, rp_ord, gir_minors)
    counts = {f.__name__: count_calls(f) for f in kernels}
    seen = {"deg1": 0, "coeffs_only": 0, "factored": 0}
    for m in _memo_maps():
        for calls in counts.values():
            calls.clear()
        b = bundle(m)
        rep = bound_report(m, n=1000, seed=0)
        segment_lip(radial_profile(m, 0, 0))
        factored = int(m.factored is not None)
        got = {name: len(calls) for name, calls in counts.items()}
        want = {"gpr": factored, "hull": factored, "rp_ord": factored, "gir_minors": 1}
        assert got == want, m
        assert rep.lip_classical == (ppow_term(m.p, 1, b.gpr.frac) if factored else None)
        seen["deg1"] += m.d == 1
        seen["coeffs_only"] += not factored
        seen["factored"] += factored
    assert seen["deg1"] >= 20 and seen["coeffs_only"] >= 20 and seen["factored"] >= 200, seen


def test_bound_report_memo_cold_equals_warm(count_calls, monkeypatch):
    """Every field of a report is the same whether the bundle is computed
    inside it (cold) or kept from the caller's ``bundle`` call (warm, no
    gpr run), on the acceptance corpus with a user ball radius."""
    calls = count_calls(gpr)
    for m in acceptance_corpus():
        monkeypatch.setattr(invariants, "_last", None)
        calls.clear()
        cold = bound_report(m, n=300, seed=4, b0_ord=Fraction(1, 2))
        assert len(calls) == 1
        monkeypatch.setattr(invariants, "_last", None)
        bundle(m)
        calls.clear()
        warm = bound_report(m, n=300, seed=4, b0_ord=Fraction(1, 2))
        assert calls == []
        assert warm._asdict() == cold._asdict(), m


def test_bound_report_reads_one_bundle(count_calls):
    """A report calls ``bundle`` once, degree 1 included, and hands that
    bundle on: the bounds, the witness search, the degree-1 cross-check and
    the sampler, called on their own with it, never call ``bundle``."""
    calls = count_calls(bundle)
    for m in _memo_maps():
        calls.clear()
        bound_report(m, n=300, seed=4, b0_ord=Fraction(1, 2))
        assert len(calls) == 1, m
        b = bundle(m)
        calls.clear()
        invariant_bound(b, Fraction(1, 2))
        invariant_bound_terms(b, Fraction(1, 2))
        sample_ratios(m, 300, 4, None if b.gpr is None else b.gpr.frac)
        if b.gpr is not None:
            lip_classical(b)
            gpr_witness(m, b)
            if m.d == 1:
                mobius_exact(m, b)
        assert calls == [], m


def test_bound_report_refuses_a_bad_ball_radius_first(count_calls):
    """A float, a bool or a negative ``b0_ord`` is refused before the
    report builds the zero/pole hull or runs gpr."""
    m = sq_minus_inv_p2(3)
    kernels = [count_calls(f) for f in (hull, gpr)]
    for bad, error in ((0.1, ParseError), (True, ParseError), (-1, ValueError),
                       (Fraction(-1, 2), ValueError)):
        with pytest.raises(error):
            bound_report(m, n=50, b0_ord=bad)
        assert kernels == [[], []], bad


def test_gpr_readers_memo_require_the_factored_form():
    """The Lipschitz readers of gpr take the bundle but still reject a map
    with only coefficients, whose bundle carries no gpr."""
    m = from_coeffs(3, [1, 1, 1], [1, 0, 0])
    b = bundle(m)
    for call in (lambda: lip_classical(b), lambda: gpr_witness(m, b)):
        with pytest.raises(FactoredFormRequiredError):
            call()


@pytest.mark.parametrize("call", [
    lambda m, x: invariant_bound(bundle(m), x),
    lambda m, x: invariant_bound_terms(bundle(m), x),
    lambda m, x: bound_report(m, b0_ord=x),
    lambda m, x: radial_profile(m, x, 0),
    lambda m, x: radial_profile(m, 0, x),
], ids=["invariant_bound", "invariant_bound_terms", "bound_report", "radial_profile_center",
        "radial_profile_t_min"])
def test_rational_arguments_refuse_float_and_bool(call):
    """b0_ord, a profile's center and its t_min are refused as a float or a
    bool instead of read at their binary value (0.1 as
    3602879701896397/36028797018963968) or as 1; ints, ``Fraction``s and
    "num/den" strings are kept."""
    m = from_factored(3, 1, [(ProjPoint.of(0), 2)], [(ProjPoint.of(1), 1), (INF_POINT, 1)])
    for bad in (0.1, True, False):
        with pytest.raises(ParseError, match="must be rational"):
            call(m, bad)
    assert call(m, "1/2") == call(m, Fraction(1, 2))
    assert call(m, 1) == call(m, Fraction(1))
