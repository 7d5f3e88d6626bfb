"""Berkovich points: diameters, joins, metrics, seminorms, pushforward."""

import math
from fractions import Fraction

import pytest

from berklip.berk import (
    BerkPoint,
    berk_equal,
    d_metric,
    diam_gauss,
    gauss_point,
    iota,
    join_gauss,
    push_forward,
)
from berklip.projective import INF_POINT, ProjPoint, spherical_ord
from berklip.ratmap import from_coeffs, from_factored
from berklip.sampling import DetRng, random_rational
from berklip.valued import Ord, ppow_normalize
from corpus import random_unimodular
from oracles import diam_infty, mobius_from_matrix, oracle_push_forward, ppow_add, rho, seminorm


def cls(x):
    return BerkPoint.classical(ProjPoint.of(x))


INF = BerkPoint.classical(INF_POINT)


def test_directions_at_a_disc_point():
    from oracles import Direction, direction_key, same_direction

    p = 3
    q = BerkPoint.disc(0, 1)  # the disc of radius 1/3 about 0
    inward0 = Direction(q, ProjPoint.of(Fraction(9)))
    inward0b = Direction(q, ProjPoint.of(Fraction(0)))
    inward1 = Direction(q, ProjPoint.of(Fraction(3)))
    outward = Direction(q, ProjPoint.of(Fraction(1)))
    out_inf = Direction(q, INF_POINT)
    assert same_direction(p, inward0, inward0b)
    assert not same_direction(p, inward0, inward1)
    assert same_direction(p, outward, out_inf)
    assert direction_key(p, q, ProjPoint.of(Fraction(33))) == 2  # 33 = 3 * 11
    with pytest.raises(ValueError):
        Direction(cls(1), ProjPoint.of(Fraction(0)))
    # fractional radius exponents admit a single rational inward direction
    qf = BerkPoint.disc(0, Fraction(3, 2))
    assert direction_key(p, qf, ProjPoint.of(Fraction(9))) == 0
    assert direction_key(p, qf, ProjPoint.of(Fraction(1))) is None


def test_point_equality_predicate():
    p = 3
    assert berk_equal(p, BerkPoint.disc(0, 1), BerkPoint.disc(3, 1))
    assert not berk_equal(p, BerkPoint.disc(0, 1), BerkPoint.disc(1, 1))
    assert not berk_equal(p, BerkPoint.disc(0, 1), BerkPoint.disc(0, 2))
    assert berk_equal(p, cls(Fraction(1, 2)), cls(Fraction(1, 2)))
    assert not berk_equal(p, cls(0), gauss_point())


def test_diam_infty_examples():
    assert diam_infty(cls(7)).is_inf
    assert diam_infty(BerkPoint.disc(0, -1)) == Ord.of(-1)
    assert diam_infty(gauss_point()) == Ord.of(0)
    with pytest.raises(ValueError):
        diam_infty(INF)


def test_diam_gauss_examples():
    p = 3
    assert diam_gauss(p, gauss_point()) == Ord.of(0)
    assert diam_gauss(p, BerkPoint.disc(Fraction(1, 3), 1)) == Ord.of(3)
    assert diam_gauss(p, BerkPoint.disc(0, -1)) == Ord.of(1)
    assert diam_gauss(p, cls(5)).is_inf


def test_join_examples():
    p = 3
    assert berk_equal(p, join_gauss(p, cls(0), INF), gauss_point())
    j = join_gauss(p, cls(Fraction(1, 3)), cls(Fraction(-1, 3)))
    # disc-containment oracle: both points lie in D(0, 3) and in no
    # smaller common disc, since ord(1/3 + 1/3) = -1 = ord(1/3 - 0)
    assert berk_equal(p, j, BerkPoint.disc(0, -1))
    x = BerkPoint.disc(7, 2)
    assert berk_equal(p, join_gauss(p, x, x), x)


def test_join_diam_equals_spherical():
    p = 5
    rng = DetRng(4)
    for _ in range(300):
        a = ProjPoint.of(random_rational(rng, p))
        b = ProjPoint.of(random_rational(rng, p))
        j = join_gauss(p, BerkPoint.classical(a), BerkPoint.classical(b))
        assert diam_gauss(p, j) == spherical_ord(p, a, b)


def test_d_metric_examples():
    p = 3
    d = d_metric(p, cls(0), INF)
    assert d == ppow_normalize(p, [(2, 0)])
    d = d_metric(p, gauss_point(), BerkPoint.disc(0, 1))
    assert d == ppow_normalize(p, [(2, -1)])  # 1 - 1/3 = 2/3
    assert d_metric(p, BerkPoint.disc(2, 5), BerkPoint.disc(2, 5)).is_zero
    # 1 - 3^(-1/2) is no p-power sum with positive coefficients
    with pytest.raises(ValueError, match="non-integer"):
        d_metric(p, BerkPoint.disc(0, Fraction(1, 2)), gauss_point())
    with pytest.raises(ValueError, match="non-integer"):
        d_metric(p, cls(0), BerkPoint.disc(1, Fraction(1, 3)))
    # exponents differing by integers are fine: 3^(-1/2) - 3^(-3/2)
    d = d_metric(p, BerkPoint.disc(0, Fraction(1, 2)), BerkPoint.disc(0, Fraction(3, 2)))
    assert d == ppow_normalize(p, [(2, Fraction(-3, 2))])


def test_d_metric_axioms_and_path_additivity():
    from berklip.valued import ppow_compare

    p = 3
    rng = DetRng(12)
    for _ in range(200):
        x = BerkPoint.disc(random_rational(rng, p), rng.randint(-3, 4))
        y = BerkPoint.disc(random_rational(rng, p), rng.randint(-3, 4))
        z = BerkPoint.disc(random_rational(rng, p), rng.randint(-3, 4))
        dxy = d_metric(p, x, y)
        assert dxy == d_metric(p, y, x)
        assert dxy.is_zero == berk_equal(p, x, y)
        # triangle inequality
        rhs = ppow_add(p, d_metric(p, x, z), d_metric(p, z, y))
        assert ppow_compare(p, dxy, rhs) <= 0
        # additivity along the path [x, y] through a point between them
        q = join_gauss(p, x, y)
        split = ppow_add(p, d_metric(p, x, q), d_metric(p, q, y))
        assert ppow_compare(p, dxy, split) == 0


def test_rho_examples():
    p = 3
    assert rho(p, gauss_point(), BerkPoint.disc(0, 2)) == 2
    x = BerkPoint.disc(5, -1)
    assert rho(p, x, x) == 0
    assert rho(p, BerkPoint.disc(Fraction(1, 3), 1), BerkPoint.disc(Fraction(-1, 3), 1)) == 4
    with pytest.raises(ValueError):
        rho(p, cls(1), gauss_point())


def test_diam_gauss_matches_path_distance():
    p = 3
    rng = DetRng(31)
    g = gauss_point()
    for _ in range(500):
        x = BerkPoint.disc(random_rational(rng, p), Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
        assert diam_gauss(p, x) == Ord.of(rho(p, g, x))


def _taylor_by_derivatives(coeffs, a):
    """Independent Taylor shift: c_i = f^(i)(a) / i!."""
    out = []
    work = list(coeffs)
    i = 0
    while work:
        val = sum(c * a**k for k, c in enumerate(work))
        out.append(val / math.factorial(i))
        work = [c * (k + 1) for k, c in enumerate(work[1:])]
        i += 1
    return out


def test_seminorm_examples():
    p = 3
    # |z| at the Gauss point
    assert seminorm(p, [0, 1], gauss_point()) == Ord.of(0)
    # |z - a| at zeta_{a, r}
    assert seminorm(p, [Fraction(-5), 1], BerkPoint.disc(5, Fraction(7, 2))) == Ord.of(Fraction(7, 2))
    # z^2 - 1/9 at zeta_{1/3, 1/3}: Taylor-shift oracle via derivatives
    coeffs = [Fraction(-1, 9), Fraction(0), Fraction(1)]
    a = Fraction(1, 3)
    shifted = _taylor_by_derivatives(coeffs, a)
    assert shifted == [Fraction(0), Fraction(2, 3), Fraction(1)]
    assert seminorm(p, coeffs, BerkPoint.disc(a, 1)) == Ord.of(0)
    with pytest.raises(ValueError):
        seminorm(p, [0, 0], gauss_point())


def test_iota_examples():
    p = 3
    assert berk_equal(p, iota(p, BerkPoint.disc(0, -1)), BerkPoint.disc(0, 1))
    assert berk_equal(p, iota(p, gauss_point()), gauss_point())
    y = iota(p, BerkPoint.disc(Fraction(1, 3), 1))
    assert berk_equal(p, y, BerkPoint.disc(3, 3))
    assert iota(p, cls(0)).pt.is_inf
    assert iota(p, INF).pt == ProjPoint.of(0)


def test_push_forward_examples():
    p = 3
    inv = from_coeffs(p, [1, 0], [0, 1])  # 1/z
    img = push_forward(inv, BerkPoint.disc(0, -1))
    assert berk_equal(p, img, BerkPoint.disc(0, 1))
    sq = from_coeffs(p, [0, 0, 1], [1, 0, 0])  # z^2
    for t in (-2, 0, 1, Fraction(3, 2)):
        img = push_forward(sq, BerkPoint.disc(0, t))
        assert berk_equal(p, img, BerkPoint.disc(0, 2 * Fraction(t)))
    m = from_factored(
        p, 1,
        [(ProjPoint.of(Fraction(1, 3)), 1), (ProjPoint.of(Fraction(-1, 3)), 1)],
        [(INF_POINT, 2)],
    )
    img = push_forward(m, BerkPoint.disc(Fraction(1, 3), 1))
    assert berk_equal(p, img, gauss_point())


def test_push_forward_pole_centered_input():
    p = 3
    inv = from_coeffs(p, [1, 0], [0, 1])
    # the center 0 is the pole of 1/z: g(0) = 0, and g's dominant
    # coefficient at the radius gives the image center
    img = push_forward(inv, BerkPoint.disc(0, 2))
    assert berk_equal(p, img, BerkPoint.disc(0, -2))


def test_push_forward_matches_oracle_smoke():
    from corpus import random_factored_map

    rng = DetRng(5150)
    checked = 0
    tried = 0
    while checked < 12 and tried < 200:
        tried += 1
        p = [3, 5, 7][rng.randint(0, 2)]
        m = random_factored_map(rng, p, dmax=3)
        x = BerkPoint.disc(random_rational(rng, p), rng.randint(-2, 2))
        got, decisive = oracle_push_forward(m, x, seed=rng.randint(0, 10**6))
        if not decisive:
            continue
        assert berk_equal(p, got, push_forward(m, x))
        checked += 1
    assert checked == 12


def test_invariance_under_unimodular_maps():
    p = 3
    rng = DetRng(808)
    for _ in range(60):
        mat = random_unimodular(rng)
        gamma = mobius_from_matrix(p, mat)
        x = BerkPoint.disc(random_rational(rng, p), rng.randint(-3, 3))
        y = BerkPoint.disc(random_rational(rng, p), rng.randint(-3, 3))
        gx, gy = push_forward(gamma, x), push_forward(gamma, y)
        assert diam_gauss(p, gx) == diam_gauss(p, x)
        from berklip.valued import ppow_compare

        assert ppow_compare(p, d_metric(p, gx, gy), d_metric(p, x, y)) == 0
