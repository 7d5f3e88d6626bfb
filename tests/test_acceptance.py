"""Acceptance suite: one test per criterion, every tolerance exact.

The shared corpus of 200 seeded factored maps of degree <= 5 backs the
cross-checks; smaller dedicated corpora cover the degree-1 collapse and
the pushforward oracle gate.  Each test prints a PASS line (visible with
pytest -s) after its assertions.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from berklip.berk import (
    BerkPoint,
    berk_equal,
    d_metric,
    diam_gauss,
    gauss_point,
    iota,
    push_forward,
)
from berklip.invariants import bundle, gpr
from berklip.lipschitz import (
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
from berklip.projective import spherical_ord
from berklip.ratmap import (
    eval_proj,
    gir_minors,
    post_compose,
    pre_compose,
    resultant_ord,
    resultant_ord_product,
)
from berklip.sampling import DetRng, random_rational
from berklip.valued import Ord, ppow_compare, ppow_max, ppow_mul, ppow_term
from corpus import (
    ACCEPTANCE_SEED,
    acceptance_corpus,
    random_factored_map,
    random_mobius,
    random_unimodular,
)
from oracles import minimality_refuted, oracle_push_forward, ref_gpr_scan, ref_res_ord

CORPUS_SEED = ACCEPTANCE_SEED
PRIMES = (3, 5, 7)
FIXTURES = Path(__file__).parent.parent / "fixtures"


def load_fixture(name):
    from berklip.serialize import parse_map_data

    return parse_map_data(json.loads((FIXTURES / name).read_text()))


@pytest.fixture(scope="module")
def corpus():
    return acceptance_corpus()


@pytest.fixture(scope="module")
def corpus_bundles(corpus):
    return [bundle(m) for m in corpus]


def _passed(n, label):
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_criterion_1_worked_example():
    for p in PRIMES:
        m = load_fixture(f"square_shift_p{p}.json")
        b = bundle(m)
        assert b.gpr == Ord.of(3), f"GPR must be p^-3 at p={p}"
        assert b.rp == Ord.of(1), f"RP must be p^-1 at p={p}"
        assert lip_classical(b) == ppow_term(p, 1, 3)
    _passed(1, "z^2 - 1/p^2 invariants for p in {3,5,7}")


def test_criterion_2_mobius_exactness():
    rng = DetRng(CORPUS_SEED + 1)
    for _ in range(200):
        p = PRIMES[rng.randint(0, 2)]
        m = random_mobius(rng, p)
        exact = mobius_exact(m, bundle(m))  # internally cross-asserts five computations
        g = gpr(m)
        assert exact == ppow_term(p, 1, gir_minors(m).frac)
        assert exact == ppow_term(p, 1, g.ord.frac)
        assert exact == ppow_term(p, 1, resultant_ord(m).frac)
        assert exact == ppow_term(p, 1, resultant_ord_product(m).frac)
        sampled, _ = sample_ratios(m, 1000, seed=CORPUS_SEED, lip_ord=g.ord.frac)
        assert ppow_compare(p, sampled, exact) <= 0
        w, note = gpr_witness(m, bundle(m))
        assert w is not None, f"witness must exist for the degree-1 corpus: {note}"
        x, y = w
        ratio_ord = spherical_ord(p, x, y).frac - spherical_ord(
            p, eval_proj(m, x), eval_proj(m, y)
        ).frac
        attained = ppow_max(p, sampled, ppow_term(p, 1, ratio_ord))
        assert ppow_compare(p, attained, exact) == 0
    _passed(2, "degree-1 collapse of all five constants on 200 maps")


def test_criterion_3_resultant_cross_check(corpus):
    for m in corpus:
        assert resultant_ord(m) == resultant_ord_product(m)
    _passed(3, "Sylvester = product formula on 200 factored maps")


def test_criterion_4_gir_cross_check(corpus):
    for m in corpus:
        assert gir_minors(m) == diam_gauss(m.p, push_forward(m, gauss_point()))
    _passed(4, "coefficient minors = Gauss-point image diameter")


def test_criterion_5_inequality_chain(corpus, corpus_bundles):
    for m, b in zip(corpus, corpus_bundles):
        assert b.res >= b.gpr, "|Res| <= GPR violated"
        assert b.gpr >= b.rp, "GPR <= RP violated"
        assert b.rp >= Ord.of(0), "RP <= 1 violated"
        assert b.gir <= b.res * Fraction(1, m.d), "GIR >= |Res|^(1/d) violated"
    _passed(5, "|Res| <= GPR <= RP <= 1 and GIR >= |Res|^(1/d)")


def test_criterion_6_classical_lipschitz(corpus, corpus_bundles):
    rng = DetRng(CORPUS_SEED + 6)
    witnessed = 0
    for m, b in zip(corpus, corpus_bundles):
        p = m.p
        lip_ord = b.gpr.frac
        sampled, _ = sample_ratios(m, 10_000, seed=CORPUS_SEED, lip_ord=lip_ord)
        assert ppow_compare(p, sampled, ppow_term(p, 1, lip_ord)) <= 0
        w, _ = gpr_witness(m, b)
        if w is not None:
            x, y = w
            ratio_ord = spherical_ord(p, x, y).frac - spherical_ord(
                p, eval_proj(m, x), eval_proj(m, y)
            ).frac
            assert ratio_ord == lip_ord, "witness must attain 1/GPR exactly"
            attained = ppow_max(p, sampled, ppow_term(p, 1, ratio_ord))
            assert ppow_compare(p, attained, ppow_term(p, 1, lip_ord)) == 0
            witnessed += 1
    assert witnessed >= 100, "witness search should succeed on most of the corpus"
    _passed(6, f"10^4 ratios within 1/GPR on 200 maps; {witnessed} attained")


def test_criterion_7_sharpness_family():
    p = 5
    d = 3
    s_ord = Fraction(1)  # S = p^-1
    for k in (1, 2):
        m = load_fixture(f"sharp_family_d3_k{k}_p5.json")
        pr = radial_profile(m, 0, s_ord)
        lip = segment_lip(pr)
        # k / (GIR^(1/k) * B0^(d/k)) with GIR = p^-2, B0 = p^-1
        t1 = (d * s_ord + 2) / k
        assert lip == ppow_term(p, k, t1)
        full = invariant_bound(bundle(m), s_ord)
        assert ppow_compare(p, lip, full) <= 0
        first, second = invariant_bound_terms(bundle(m), s_ord)
        if k == 1:
            assert ppow_compare(p, lip, first) == 0, "first term attained at k=1"
        if k == d - 1:
            # within a factor (d-1)/d of the second bound term
            scaled = ppow_term(p, Fraction(d - 1, d) * 1, 0)
            from berklip.valued import ppow_mul

            lhs = ppow_mul(p, scaled, second)
            assert ppow_compare(p, lip, lhs) >= 0
    _passed(7, "sharpness family: exact segment constants vs bound terms")


def test_criterion_8_unimodular_invariance(corpus):
    rng = DetRng(CORPUS_SEED + 8)
    mats = [random_unimodular(rng) for _ in range(20)]
    for m in corpus[:50]:
        b_g = gir_minors(m)
        b_r = resultant_ord(m)
        b_p = gpr(m).ord
        hull_pts = [q for q, _ in m.factored.zeros] + [q for q, _ in m.factored.poles]
        for mat in mats:
            pre = pre_compose(m, mat)
            assert gir_minors(pre) == b_g
            assert resultant_ord(pre) == b_r == ref_res_ord(pre)
            assert gpr(pre).ord == b_p
            post = post_compose(mat, m)
            assert gir_minors(post) == b_g
            assert resultant_ord(post) == b_r == ref_res_ord(post)
            assert ref_gpr_scan(post, hull_pts).ord == b_p
    _passed(8, "gir/gpr/res invariant under 20 unimodular matrices x 50 maps")


def test_criterion_9_pushforward_oracle_gate():
    rng = DetRng(CORPUS_SEED + 9)
    decisive = 0
    tried = 0
    while decisive < 100:
        tried += 1
        assert tried < 1000, "oracle corpus failed to produce decisive instances"
        p = PRIMES[rng.randint(0, 2)]
        m = random_factored_map(rng, p, dmax=4)
        x = BerkPoint.disc(random_rational(rng, p), rng.randint(-3, 3))
        seed = rng.randint(0, 2**32)
        assert not minimality_refuted(m, x, seed), (
            "candidate-center minimality refuted; release blocker"
        )
        got, ok = oracle_push_forward(m, x, seed)
        if not ok:
            continue
        assert berk_equal(p, got, push_forward(m, x)), (
            "brute-force oracle disagrees with push_forward; release blocker"
        )
        decisive += 1
    _passed(9, f"oracle agreement on 100 decisive instances ({tried} drawn)")


def test_criterion_10_bounds_dominate(corpus, corpus_bundles):
    rng = DetRng(CORPUS_SEED + 10)
    for m, b in zip(corpus[:50], corpus_bundles[:50]):
        p = m.p
        _, res_berk = resultant_bounds(m)
        inv_rp = invariant_bound(b, b.rp.frac)
        sampled, _ = sample_ratios(m, 500, seed=CORPUS_SEED, lip_ord=b.gpr.frac)
        assert ppow_compare(p, sampled, ppow_term(p, 1, b.gpr.frac)) <= 0
        assert ppow_compare(p, ppow_term(p, 1, b.gpr.frac), res_berk) <= 0
        for _ in range(50):
            # integral centers keep the ray inside the unit disc, where the
            # profile parameter agrees with the path-metric diameter
            center = Fraction(rng.randint(0, 20))
            t_min = Fraction(rng.randint(0, 4))
            pr = radial_profile(m, center, t_min)
            seg = segment_lip(pr)
            assert ppow_compare(p, seg, res_berk) <= 0, "resultant bound violated"
            assert ppow_compare(p, seg, inv_rp) <= 0, "invariant bound violated"
    _passed(10, "bounds dominate sampled ratios and 50 segment constants per map")


def _disc_pair(rng: DetRng, p: int):
    """Two integer-radius disc points: centers with p in the numerator or
    the denominator, the second often near the first, and a third of the
    points moved outside the unit disc by the inversion."""
    x = BerkPoint.disc(random_rational(rng, p), rng.randint(-2, 4))
    if rng.randint(0, 1):
        near = x.center + random_rational(rng, p) * Fraction(p) ** rng.randint(0, 3)
        y = BerkPoint.disc(near, x.radius_ord + rng.randint(-1, 2))
    else:
        y = BerkPoint.disc(random_rational(rng, p), rng.randint(-2, 4))
    return tuple(iota(p, z) if rng.randint(0, 2) == 0 else z for z in (x, y))


def test_criterion_11_berkovich_bounds_on_disc_pairs(corpus, corpus_bundles):
    """d(phi x, phi y) <= B * d(x, y) in the exact path metric, for the
    resultant bound and the invariant bound at B0 = RP, on pairs of type II
    points."""
    rng = DetRng(CORPUS_SEED + 11)
    pairs = 0
    for m, b in zip(corpus[:60], corpus_bundles[:60]):
        p = m.p
        _, res_berk = resultant_bounds(m)
        inv_rp = invariant_bound(b, b.rp.frac)
        for _ in range(20):
            x, y = _disc_pair(rng, p)
            dist = d_metric(p, x, y)
            image = d_metric(p, push_forward(m, x), push_forward(m, y))
            for bound in (res_berk, inv_rp):
                assert ppow_compare(p, image, ppow_mul(p, bound, dist)) <= 0, (m, x, y)
            pairs += 1
    _passed(11, f"both Berkovich bounds hold on {pairs} disc pairs")
