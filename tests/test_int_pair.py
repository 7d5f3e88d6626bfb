"""The canonical integer pair each map carries, and the two kernels that
read it without extra big-integer work: the minors decided by the ords of
their products, and the unreduced pushforward candidates.

The maps are the benchmark's seeded corpus (seeds 0-7) and ladder (seeds
0-5, maps and their post-composed twins), generated by ``perfbench/
benchgen.py``, and the acceptance corpus."""

import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd
from pathlib import Path

from berklip import ratmap
from berklip.berk import BerkPoint, berk_equal, diam_gauss, push_forward
from berklip.errors import DegenerateMapError
from berklip.lipschitz import radial_profile
from berklip.ratmap import from_coeffs, gir_minors, post_compose, pre_compose
from berklip.sampling import DetRng
from berklip.valued import int_val
from corpus import acceptance_corpus, random_ladder_map
from oracles import (
    Shift,
    ref_expand,
    ref_gir_minors,
    ref_normalized,
    ref_pre_compose,
    ref_push_forward,
    ref_radial_profile,
    ref_vord,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import benchgen  # noqa: E402

MATRIX = benchgen.LADDER_MATRIX


@lru_cache(maxsize=1)
def _corpus_maps():
    return [m for seed in range(8) for m in benchgen.corpus_maps(seed, 405)]


@lru_cache(maxsize=1)
def _ladder_pairs():
    return [pair for seed in range(6) for _, pairs in benchgen.ladder_steps(seed) for pair in pairs]


def _assert_pair(m, f, g):
    """(F, G, D) is the canonical pair of the normalized Fractions (f, g):
    Fraction(F_i, D) = f_i, D > 0 least and prime to p, and every
    coefficient ord that of its numerator."""
    p, D = m.p, m.D
    assert len(m.F) == len(m.G) == m.d + 1, m
    assert D > 0 and D % p != 0 and gcd(D, *m.F, *m.G) == 1, m
    assert tuple(Fraction(x, D) for x in m.F) == tuple(f), m
    assert tuple(Fraction(x, D) for x in m.G) == tuple(g), m
    for x, c in zip(m.F + m.G, tuple(f) + tuple(g)):
        assert (int_val(x, p) if x else None) == ref_vord(c, p), m
    assert min(ref_vord(c, p) for c in tuple(f) + tuple(g) if c) == 0, m


def _check_constructors(m, compose_ref: bool):
    """All four constructors on one factored map, each against a Fraction
    reference: the expansion of its zero/pole data, a rescaled coefficient
    pair, the post-composite and (when ``compose_ref``) the Fraction
    substitution of the pre-composite."""
    p = m.p
    f, g = ref_expand(m.factored, m.d)
    _assert_pair(m, *ref_normalized(p, f, g))
    scale = Fraction(2 * p**2, 5)
    raw = ([c * scale for c in f], [c / 7 for c in g])
    _assert_pair(from_coeffs(p, *raw), *ref_normalized(p, *raw))
    (a, b), (c, d) = MATRIX
    post = post_compose(MATRIX, m)
    _assert_pair(post, *ref_normalized(
        p, [a * x + b * y for x, y in zip(m.f, m.g)], [c * x + d * y for x, y in zip(m.f, m.g)]
    ))
    if compose_ref:
        pre = pre_compose(m, MATRIX)
        ref = ref_pre_compose(m, MATRIX)
        assert pre == ref, m
        _assert_pair(pre, ref.f, ref.g)


def test_pair_is_canonical_on_corpus_and_acceptance_maps():
    for m in _corpus_maps() + acceptance_corpus():
        _check_constructors(m, compose_ref=True)


def test_pair_is_canonical_on_ladder_maps():
    """The Fraction substitution costs about 0.2 s per map at d = 30, so
    the pre-composite is checked against it at d = 10 only; at d = 20
    and 30 its pair is checked for being canonical and its resultant and
    minors for the invariance under the unimodular matrix."""
    for m, twin in _ladder_pairs():
        _check_constructors(m, compose_ref=m.d <= 10)
        assert twin == post_compose(MATRIX, m)
        pre = pre_compose(m, MATRIX)
        _assert_pair(pre, pre.f, pre.g)
        assert (pre.res_ord, gir_minors(pre)) == (m.res_ord, gir_minors(m))


def test_pre_compose_matches_fraction_substitution():
    """Matrices with denominators, p in them, a zero entry and a swap, on
    small maps with infinity among the zeros and poles."""
    mats = [
        ((Fraction(1, 3), Fraction(2)), (Fraction(5, 7), Fraction(-1, 9))),
        ((0, 1), (1, 0)),
        ((3, 0), (0, Fraction(1, 3))),
        ((2, Fraction(-5, 6)), (0, 1)),
    ]
    for m in acceptance_corpus()[:40]:
        for mat in mats:
            assert pre_compose(m, mat) == ref_pre_compose(m, mat), (m, mat)


def test_gir_minors_match_brute_force():
    maps = _corpus_maps() + [x for pair in _ladder_pairs() for x in pair]
    for m in maps:
        assert gir_minors(m).frac == ref_gir_minors(m), m


def test_gir_minors_match_brute_force_at_degree_64():
    """The pivot scan at the largest degree the CLI admits: seeded
    ladder-type maps and their post-composed twins, whose products mostly
    tie, at p in {2, 3, 5, 7}."""
    rng = DetRng(6464)
    for p in (2, 3, 5, 7):
        m = random_ladder_map(rng, p, 64)
        for x in (m, post_compose(MATRIX, m)):
            assert gir_minors(x).frac == ref_gir_minors(x), x


def test_gir_minors_with_zero_coefficients_and_tied_minors():
    """``from_coeffs`` pairs G = u F + p^k H, each coefficient drawn from
    0, units and p-powers: every product F_i G_j ties with F_j G_i at the
    same ord, zeros are common, and the minors p^k (F_i H_j - F_j H_i)
    cancel further.  Also a pair whose first nonzero F coefficient is
    not the least-ord one, so that a pivot there misses the least minor."""
    rng = DetRng(1213)
    seen = 0
    for _ in range(300):
        p = (2, 3, 5, 7)[rng.randint(0, 3)]
        d = rng.randint(2, 8)
        draw = [0, 0, 1, -1, 2, p, -p, p * p, 1 + p, Fraction(1, p)]
        f = [draw[rng.randint(0, len(draw) - 1)] for _ in range(d + 1)]
        h = [draw[rng.randint(0, len(draw) - 1)] for _ in range(d + 1)]
        u, k = rng.randint(1, 4), rng.randint(0, 3)
        g = [u * x + p**k * y for x, y in zip(f, h)]
        try:
            m = from_coeffs(p, f, g)
        except DegenerateMapError:
            continue
        seen += 1
        assert gir_minors(m).frac == ref_gir_minors(m), (p, f, g)
    assert seen >= 150, seen
    m = from_coeffs(3, [3, 1, 0], [3, 2, 1])  # minors 3, 3, 1
    assert gir_minors(m).frac == ref_gir_minors(m) == 0


def test_gir_minors_takes_at_most_2d_plus_1_valuations(monkeypatch):
    """d + 1 valuations for F's coefficients and at most d for the
    minors in the pivot's column, on corpus seed 0, the ladder seed 0
    maps and twins, and degree-64 maps."""
    calls = []
    real = ratmap.int_val
    monkeypatch.setattr(ratmap, "int_val", lambda x, p: calls.append(x) or real(x, p))
    rng = DetRng(64)
    maps = _corpus_maps()[:405] + [x for pair in _ladder_pairs()[:10] for x in pair]
    maps += [random_ladder_map(rng, 3, 64)]
    for m in maps:
        calls.clear()
        gir_minors(m)
        assert len(calls) <= 2 * m.d + 1, m


def test_gir_minors_on_tied_minors():
    """Maps whose least minor ord hides behind tied products: every product
    has ord 0, so each minor's bound is 0, and the minors cancel to ord 1
    and more (3 = 4 - 1) or vanish (1*4 - 2*2)."""
    cases = [
        (3, [1, 1], [1, 4], 1),  # (1 + z) / (1 + 4z): the one minor is 3
        (3, [1, 2, 1], [2, 4, 5], 1),  # minors 0, 3, 6
        (5, [1, 1, 1], [1, 6, 26], 1),  # minors 5, 25, 20
        (3, [1, 1, 0], [1, 10, 18], 2),  # minors 9, 18, 18; infinity a zero
    ]
    for p, f, g, want in cases:
        m = from_coeffs(p, f, g)
        assert ref_gir_minors(m) == want, (p, f, g)
        assert gir_minors(m).frac == want, (p, f, g)


def _twice_map():
    """f = 1 + z + 2z^2, g = 3 + 2z + 4z^2 at p = 3: at the center 0 the
    same-index ratios at indices 1 and 2 are 1/2 as (1, 2) and as (2, 4)."""
    return from_coeffs(3, [1, 1, 2], [3, 2, 4])


def test_one_ratio_in_two_unreduced_forms():
    m = _twice_map()
    sh = Shift.at(m.p, m.F, m.G, Fraction(0))
    assert sh.diff_lines((1, 2, 0, 0)) == sh.diff_lines((2, 4, 0, 0))
    radii = [Fraction(k, 2) for k in range(-6, 9)]
    for t in radii:
        x = BerkPoint.disc(0, t)
        got, want = push_forward(m, x), ref_push_forward(m, x)
        assert berk_equal(m.p, got, want), t
        assert diam_gauss(m.p, got) == diam_gauss(m.p, want), t
    for t in radii[6:]:
        assert radial_profile(m, 0, t) == ref_radial_profile(m, 0, t), t
