"""Rational map construction, normalization, resultants, minors."""

from fractions import Fraction
from itertools import cycle
from pathlib import Path
from time import process_time

import pytest

from berklip import polynomials
from berklip.berk import diam_gauss, gauss_point, push_forward
from berklip.errors import DegenerateMapError, InternalInvariantError, ParseError
from berklip.invariants import rp_ord
from berklip.projective import INF_POINT, ProjPoint
from berklip.ratmap import (
    MAX_DEGREE,
    eval_proj,
    from_coeffs,
    from_factored,
    gir_minors,
    mobius_apply,
    normalize,
    post_compose,
    pre_compose,
    resultant_ord,
    resultant_ord_product,
    RationalMap,
)
from berklip.sampling import DetRng, random_rational
from berklip.valued import Ord
from berklip.serialize import parse_map_data
from corpus import (
    acceptance_corpus,
    random_factored_map,
    random_ladder_map,
    random_mobius,
    random_unimodular,
)
from oracles import (
    mobius_from_matrix,
    mul,
    ord_p,
    ref_det,
    ref_expand,
    ref_normalized,
    ref_res_ord,
    ref_resultant_ord_product,
    ref_sylvester_rows,
)


def pt(x):
    return ProjPoint.of(Fraction(x))


def test_from_factored_examples():
    p = 3
    m = from_factored(p, 1, [(pt(1), 1), (pt(-1), 1)], [(INF_POINT, 2)])
    assert m.f == (Fraction(-1), Fraction(0), Fraction(1))
    assert m.g == (Fraction(1), Fraction(0), Fraction(0))
    m = from_factored(p, 1, [(pt(Fraction(1, 3)), 1), (pt(Fraction(-1, 3)), 1)], [(INF_POINT, 2)])
    assert m.f == (Fraction(-1), Fraction(0), Fraction(9))
    assert m.g == (Fraction(9), Fraction(0), Fraction(0))
    m = from_factored(p, 1, [(pt(0), 1)], [(INF_POINT, 1)])
    assert (m.f, m.g) == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    with pytest.raises(DegenerateMapError):
        from_factored(p, 1, [(pt(2), 1)], [(pt(2), 1)])
    # inconsistent multiplicity balance puts infinity on both sides
    with pytest.raises(DegenerateMapError):
        from_factored(p, 1, [(INF_POINT, 2), (pt(1), 1)], [(pt(0), 1)])


@pytest.mark.parametrize("mult", [1.5, "2", True, Fraction(3, 2)])
@pytest.mark.parametrize("side", ["zeros", "poles"])
def test_from_factored_rejects_non_integer_multiplicities(mult, side):
    """A multiplicity must be an int: it is never rounded or parsed, as
    the map file parser already requires."""
    good = [(pt(2), 1)]
    bad = [(pt(1), mult)]
    zeros, poles = (bad, good) if side == "zeros" else (good, bad)
    with pytest.raises(DegenerateMapError, match="integers"):
        from_factored(3, 1, zeros, poles)


def test_implied_infinity_padding():
    p = 5
    # C z^3 / (z - 5)(z - 10): pole at infinity implied with multiplicity 1
    m = from_factored(p, 1, [(pt(0), 3)], [(pt(5), 1), (pt(10), 1)])
    assert m.d == 3
    poles = {str(q): mult for q, mult in m.factored.poles}
    assert poles == {"5": 1, "10": 1, "inf": 1}


def test_normalize_examples():
    """Rescaling both forms by p^(-low) moves ord Res by -2d*low."""
    p = 3
    # f = X^2, g = Y^2 / 9, stored as (F, G) / D with D = 9: Res = 9^-2;
    # after scaling by 9, Res = 9^2
    m = RationalMap(p, 2, (0, 0, 9), (1, 0, 0), 9, -4)
    n = normalize(m)
    assert n.f == (Fraction(0), Fraction(0), Fraction(9))
    assert n.g == (Fraction(1), Fraction(0), Fraction(0))
    assert n.res_ord == 4 == polynomials.sylvester_det_ord(p, list(n.f), list(n.g), 2)
    assert normalize(n) == n
    m = RationalMap(p, 1, (0, 3), (3, 0), 1, 2)
    n = normalize(m)
    assert n.f == (Fraction(0), Fraction(1)) and n.g == (Fraction(1), Fraction(0))
    assert n.res_ord == 0


def test_constructors_return_normalized_maps():
    """Every constructor normalizes once, so normalize hands the same
    object back and no reader needs to normalize again."""
    from berklip.serialize import parse_map_data

    rng = DetRng(2719)
    maps = []
    for i in range(40):
        p = [2, 3, 5, 7][i % 4]
        m = random_factored_map(rng, p, dmax=5)
        scale = Fraction(p) ** rng.randint(-3, 3)
        mat = random_unimodular(rng)
        maps += [
            m,
            from_coeffs(p, [c * scale for c in m.f], [c * scale for c in m.g]),
            pre_compose(m, mat),
            post_compose(mat, m),
        ]
    maps.append(from_coeffs(3, [Fraction(1, 9), 0], [0, 3]))  # degree 1
    maps.append(mobius_from_matrix(5, ((25, 5), (0, 1))))
    maps.append(parse_map_data({"p": 3, "coeffs": {"F": ["1/9", "0", "0"], "G": ["0", "0", "27"]}}))
    factored = {"C": "1/27", "zeros": [["1/3", 2]], "poles": [["9", 1]]}
    maps.append(parse_map_data({"p": 3, "factored": factored}))
    for m in maps:
        assert normalize(m) is m, m


def _raw_low(p, f, g):
    """min ord_p over a raw pair's nonzero coefficients."""
    return min(ord_p(p, c).frac for c in list(f) + list(g) if c)


def _assert_stored_resultant(m, expected):
    assert isinstance(m.res_ord, int)
    assert m.res_ord == polynomials.sylvester_det_ord(m.p, list(m.f), list(m.g), m.d), m
    assert m.res_ord == expected, m
    assert resultant_ord(m) == Ord.of(m.res_ord)


def test_stored_resultant_matches_kernel_and_product():
    """Every constructor keeps ord_p Res of the pair it stores: a fresh
    elimination on that pair and the product formula agree with it.  The
    raw pairs carry p-power content of both signs, so normalization moves
    the kernel's value by -2d*low for low of both signs."""
    from berklip.serialize import parse_map_data

    rng = DetRng(4242)
    lows = set()
    for i in range(48):
        p = [2, 3, 5, 7][i % 4]
        m = random_factored_map(rng, p, dmax=6)
        res = resultant_ord_product(m).frac
        _assert_stored_resultant(m, res)
        # from_factored: the leading constant carries p^a
        a = rng.randint(-4, 4)
        c = m.factored.c * Fraction(p) ** a
        scaled = from_factored(p, c, m.factored.zeros, m.factored.poles)
        _assert_stored_resultant(scaled, resultant_ord_product(scaled).frac)
        # from_coeffs: f times p^a, g times p^b, so Res moves by d(a + b)
        # before normalizing by p^-low
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        f = [x * Fraction(p) ** a for x in m.f]
        g = [x * Fraction(p) ** b for x in m.g]
        low = _raw_low(p, f, g)
        lows.add(low)
        _assert_stored_resultant(from_coeffs(p, f, g), res + m.d * (a + b) - 2 * m.d * low)
        # pre- and post-composition with p^s times a unimodular matrix:
        # the raw pair has content p^(ds) and p^s, normalization takes it out
        s = rng.randint(-3, 3)
        mat = tuple(tuple(x * Fraction(p) ** s for x in row) for row in random_unimodular(rng))
        pre = pre_compose(m, mat)
        _assert_stored_resultant(pre, resultant_ord_product(pre).frac)
        assert pre.res_ord == res
        _assert_stored_resultant(post_compose(mat, m), res)
        lows.update({m.d * s, s})
        # the map file forms, coefficients and zero/pole data
        desc = [str(x * Fraction(p) ** a) for x in reversed(m.f)]
        gdesc = [str(x * Fraction(p) ** a) for x in reversed(m.g)]
        parsed = parse_map_data({"p": p, "coeffs": {"F": desc, "G": gdesc}})
        _assert_stored_resultant(parsed, res)
        block = {
            "C": str(c),
            "zeros": [[str(q), k] for q, k in m.factored.zeros],
            "poles": [[str(q), k] for q, k in m.factored.poles],
        }
        parsed = parse_map_data({"p": p, "factored": block})
        _assert_stored_resultant(parsed, scaled.res_ord)
    for i in range(24):
        p = [2, 3, 5, 7][i % 4]
        k = rng.randint(-3, 3)
        mob = random_mobius(rng, p)
        mat = ((mob.f[1] * Fraction(p) ** k, mob.f[0]), (mob.g[1], mob.g[0] * Fraction(p) ** k))
        try:
            built = mobius_from_matrix(p, mat)
        except DegenerateMapError:
            continue
        _assert_stored_resultant(built, resultant_ord_product(built).frac)
        det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        low = _raw_low(p, [mat[0][1], mat[0][0]], [mat[1][1], mat[1][0]])
        assert built.res_ord == ord_p(p, det).frac - 2 * low
        lows.add(low)
    assert min(lows) < 0 < max(lows)


def test_compositions_carry_the_resultant():
    """``pre_compose`` and ``post_compose`` take res from the identities
    Res(F o M, G o M) = det(M)^(d^2) Res(F, G) and Res(aF + bG, cF + eG) =
    det(M)^d Res(F, G), with no elimination; an independent determinant
    of the stored pair agrees with the carried value.  The matrices are
    p^s times a unimodular one, s in [-3, 3], so the cleared integer
    matrix has ord det 2 max(s, 0), plus matrices of any determinant.  At
    low degree the oracle is the 2d x 2d Bareiss determinant, at d = 10,
    20, 30 the Bezout kernel on the stored pair."""
    rng = DetRng(3030)
    small = [
        from_factored(3, Fraction(2, 27), [(INF_POINT, 2), (pt(Fraction(1, 3)), 1)],
                      [(pt(-6), 2), (pt(Fraction(5, 9)), 1)]),
        from_factored(5, Fraction(-25, 3), [(pt(-2), 3)],
                      [(INF_POINT, 1), (pt(Fraction(-7, 25)), 2)]),
        from_factored(7, 1, [(INF_POINT, 1)], [(pt(7), 1)]),
        from_factored(2, 4, [(pt(Fraction(1, 2)), 1)], [(INF_POINT, 1)]),
    ]
    for i in range(24):
        p = (2, 3, 5, 7)[i % 4]
        small += [random_mobius(rng, p), random_factored_map(rng, p, dmax=5)]
    large = [random_ladder_map(DetRng(100 * d + p), p, d) for d in (10, 20, 30) for p in (2, 3, 5, 7)]
    assert any(m.d == 1 for m in small)
    assert any(q.is_inf for m in small for q, _ in m.factored.zeros)
    assert any(q.is_inf for m in small for q, _ in m.factored.poles)

    exponents = cycle(range(-3, 4))

    def matrices(m, count):
        for _ in range(count):
            s = next(exponents)
            yield tuple(tuple(x * Fraction(m.p) ** s for x in row) for row in random_unimodular(rng))
            mob = random_mobius(rng, m.p)
            yield ((mob.f[1], mob.f[0]), (mob.g[1], mob.g[0]))

    def bezout(m):
        return polynomials.sylvester_det_ord(m.p, list(m.f), list(m.g), m.d)

    moved = 0
    for maps, oracle, count in ((small, ref_res_ord, 7), (large, bezout, 2)):
        for m in maps:
            for mat in matrices(m, count):
                pre, post = pre_compose(m, mat), post_compose(mat, m)
                assert pre.res_ord == oracle(pre) == resultant_ord_product(pre).frac, (m, mat)
                assert post.res_ord == oracle(post), (m, mat)
                moved += post.res_ord != m.res_ord
    assert moved > 0


def test_one_elimination_per_map(count_calls, capsys):
    """The Sylvester elimination runs once per map built from coefficients
    or from zeros and poles, never for a composition, which carries its
    operand's value, and never in the readers of a built map."""
    from berklip import cli, invariants, lipschitz

    calls = count_calls(polynomials.sylvester_det_ord)
    rng = DetRng(77)
    m = random_factored_map(rng, 3, dmax=4)
    mat = random_unimodular(rng)
    big = random_ladder_map(DetRng(64), 3, 64)
    cases = [
        (1, lambda: random_factored_map(DetRng(5), 5, dmax=5)),
        (1, lambda: from_coeffs(3, [Fraction(1, 9), 0, 2], [0, 3, 0])),
        (1, lambda: mobius_from_matrix(5, ((25, 5), (0, 1)))),
        (0, lambda: pre_compose(m, mat)),
        (0, lambda: post_compose(mat, m)),
        (0, lambda: post_compose(mat, big)),
    ]
    for expected, build in cases:
        calls.clear()
        build()
        assert len(calls) == expected
    for d in (1, 3, 5):
        m = random_factored_map(DetRng(d), 3, dmax=d)
        calls.clear()
        invariants.bundle(m)
        lipschitz.bound_report(m, n=1000, seed=1)
        lipschitz.segment_lip(lipschitz.radial_profile(m, 0, 0))
        assert calls == []
    calls.clear()
    fixture = Path(__file__).parent.parent / "fixtures" / "square_shift_p3.json"
    assert cli.main(["verify", "--input", str(fixture)]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def _sylvester_det_by_minors(f_desc, g_desc, d):
    """Direct 2d x 2d determinant by Laplace expansion (oracle)."""
    size = 2 * d
    rows = []
    for i in range(d):
        row = [Fraction(0)] * size
        for j, c in enumerate(f_desc):
            row[i + j] = c
        rows.append(row)
    for i in range(d):
        row = [Fraction(0)] * size
        for j, c in enumerate(g_desc):
            row[i + j] = c
        rows.append(row)

    def det(mat):
        n = len(mat)
        if n == 1:
            return mat[0][0]
        total = Fraction(0)
        for j in range(n):
            if mat[0][j] == 0:
                continue
            minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
            sign = -1 if j % 2 else 1
            total += sign * mat[0][j] * det(minor)
        return total

    return det(rows)


def test_resultant_examples():
    p = 3
    mob = from_coeffs(p, [0, 1], [9, 0])  # z / 9 -> matrix [1 0; 0 9]
    assert resultant_ord(mob) == Ord.of(2)
    mono = from_coeffs(p, [0, 0, 0, 1], [1, 0, 0, 0])
    assert resultant_ord(mono) == Ord.of(0)
    m = from_factored(p, 1, [(pt(Fraction(1, 3)), 1), (pt(Fraction(-1, 3)), 1)], [(INF_POINT, 2)])
    # descending rows: F = 9 X^2 - Y^2, G = 9 Y^2
    det = _sylvester_det_by_minors([Fraction(9), 0, Fraction(-1)], [0, 0, Fraction(9)], 2)
    assert abs(det) == Fraction(3) ** 8
    assert resultant_ord(m) == Ord.of(8)


def test_resultant_product_examples():
    p = 3
    m = from_factored(p, 1, [(pt(Fraction(1, 3)), 1), (pt(Fraction(-1, 3)), 1)], [(INF_POINT, 2)])
    assert resultant_ord_product(m) == Ord.of(8)
    ident = from_factored(p, 1, [(pt(0), 1)], [(INF_POINT, 1)])
    assert resultant_ord_product(ident) == Ord.of(0)
    mob = from_factored(p, Fraction(1, 9), [(pt(0), 1)], [(INF_POINT, 1)])  # z/9
    assert resultant_ord_product(mob) == Ord.of(2)
    assert resultant_ord(mob) == Ord.of(2)


def test_shared_zero_and_pole_is_an_internal_error():
    """No constructor makes a factored form with a point both a zero and a
    pole (``from_factored`` rejects one), so on a record built by hand
    the zero/pole pair kernel raises in both of its readers."""
    p = 3
    m = from_factored(p, 1, [(pt(1), 1), (pt(2), 1)], [(pt(0), 1), (INF_POINT, 1)])
    with pytest.raises(DegenerateMapError):
        from_factored(p, 1, [(pt(1), 1), (pt(2), 1)], [(pt(1), 1), (INF_POINT, 1)])
    bad = m._replace(factored=m.factored._replace(poles=((pt(1), 1), (INF_POINT, 1))))
    for reader in (rp_ord, resultant_ord_product):
        with pytest.raises(InternalInvariantError, match="a zero is also a pole"):
            reader(bad)


def test_gir_examples():
    p = 3
    mob = from_coeffs(p, [0, 1], [9, 0])
    assert gir_minors(mob) == Ord.of(2)
    mono = from_coeffs(p, [0, 0, 1], [1, 0, 0])
    assert gir_minors(mono) == Ord.of(0)
    m = from_factored(p, 1, [(pt(Fraction(1, 3)), 1), (pt(Fraction(-1, 3)), 1)], [(INF_POINT, 2)])
    assert gir_minors(m) == Ord.of(4)
    # cross-check against the direct image of the Gauss point
    assert diam_gauss(p, push_forward(m, gauss_point())) == Ord.of(4)


def _poly_from_roots(lead, roots):
    out = [Fraction(lead)]
    for r in roots:
        out = mul(out, [-Fraction(r), Fraction(1)])
    return out


def test_degenerate_rejected():
    p = 3
    with pytest.raises(DegenerateMapError):
        from_coeffs(p, [0, 1], [0, 2])  # both vanish at 0 after gcd
    with pytest.raises(DegenerateMapError):
        from_coeffs(p, [1, 1], [2, 2])
    with pytest.raises(DegenerateMapError, match="^degenerate map$"):
        from_coeffs(p, [0, 0], [1, 0])  # zero numerator
    with pytest.raises(DegenerateMapError, match="^degenerate map$"):
        from_coeffs(p, [0, 0], [0, 0])  # the kernel rejects it before normalize looks for a unit
    with pytest.raises(DegenerateMapError, match="^degree zero$"):
        from_coeffs(p, [5], [1])
    with pytest.raises(DegenerateMapError, match="^singular matrix$"):
        mobius_from_matrix(p, ((1, 2), (3, 6)))
    # degree 6 and 7: a shared finite root with p in some coefficients,
    # then a shared root at infinity (both forms of actual degree < d)
    shared = Fraction(2, 9)
    f = _poly_from_roots(Fraction(1, 3), [shared, 1, -1, 3, Fraction(1, 5), 7])
    g = _poly_from_roots(9, [shared, 2, -2, Fraction(4, 3), 5, 0])
    at_inf_f = _poly_from_roots(1, [1, 2, 3, 4, 5]) + [Fraction(0), Fraction(0)]
    at_inf_g = _poly_from_roots(Fraction(1, 27), [6, 7, 8, 9, 10, 11]) + [Fraction(0)]
    for f, g in ((f, g), (at_inf_f, at_inf_g)):
        d = len(f) - 1
        assert d >= 6
        assert polynomials.sylvester_det_ord(p, f, g, d) is None
        with pytest.raises(DegenerateMapError, match="^degenerate map$"):
            from_coeffs(p, f, g)


def test_eval_proj():
    p = 3
    m = from_coeffs(p, [-1, 0, 9], [9, 0, 0])  # (9z^2 - 1)/9
    assert eval_proj(m, pt(0)) == pt(Fraction(-1, 9))
    assert eval_proj(m, INF_POINT).is_inf
    inv = from_coeffs(p, [1, 0], [0, 1])
    assert eval_proj(inv, pt(0)).is_inf
    assert eval_proj(inv, INF_POINT) == pt(0)


def test_resultant_equals_product_on_corpus():
    rng = DetRng(321)
    for _ in range(60):
        p = [3, 5, 7][rng.randint(0, 2)]
        m = random_factored_map(rng, p, dmax=5)
        assert resultant_ord(m) == resultant_ord_product(m)
    # p = 2 as well, degrees up to 8, repeated zeros and poles
    for i in range(80):
        p = [2, 3, 5, 7][i % 4]
        m = random_factored_map(rng, p, dmax=8, multiplicities=True)
        assert resultant_ord(m) == resultant_ord_product(m)


def test_sylvester_kernel_on_unnormalized_pairs():
    """The kernel on pairs as construction sees them, before normalizing:
    p in denominators, and a different p-power content on each form.
    Scaling f by p^a and g by p^b moves ord Res by d * (a + b)."""
    rng = DetRng(2718)
    for i in range(96):
        p = [2, 3, 5, 7][i % 4]
        m = random_factored_map(rng, p, dmax=8)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        f = [c * Fraction(p) ** a for c in m.f]
        g = [c * Fraction(p) ** b for c in m.g]
        got = polynomials.sylvester_det_ord(p, f, g, m.d)
        assert got == resultant_ord_product(m).frac + m.d * (a + b)
        if m.d <= 3:
            det = _sylvester_det_by_minors(f[::-1], g[::-1], m.d)
            assert got == ord_p(p, det).frac


def test_sylvester_kernel_doubles_precision(monkeypatch):
    """A zero and a pole p^-60 apart make the last pivot's valuation
    exceed the starting precision, which must then be raised."""
    precs = []
    inner = polynomials._pivot_ord_sum

    def recording(rows, p, prec):
        precs.append(prec)
        return inner(rows, p, prec)

    monkeypatch.setattr(polynomials, "_pivot_ord_sum", recording)
    for p in (2, 3, 7):
        a = Fraction(1, p)
        zeros = [(pt(a), 1), (pt(5), 1)]
        poles = [(pt(a + Fraction(p) ** 60), 1), (pt(Fraction(2, 3 * p)), 1)]
        precs.clear()
        m = from_factored(p, Fraction(p, 4), zeros, poles)  # runs the kernel
        res = resultant_ord(m)
        assert res == resultant_ord_product(m)
        assert res.frac >= 60
        assert len(precs) > 1 and precs[-1] > 60


LARGE_P = 2**61 - 1


def test_large_prime_builds_in_milliseconds():
    """At p = 2^61 - 1 the elimination starts at a modulus of a few
    hundred bits, not max(16, 2d) digits of p: a degree-64 map builds in
    well under 2 s CPU, with the resultant of the product formula."""
    zeros = [(pt(k), 1) for k in range(1, 65)]
    poles = [(pt(Fraction(-k, 2)), 1) for k in range(1, 65)]
    start = process_time()
    m = from_factored(LARGE_P, 1, zeros, poles)
    assert process_time() - start < 2.0
    assert m.d == 64
    assert resultant_ord(m) == resultant_ord_product(m)


def test_large_prime_doubles_precision(monkeypatch):
    """A zero and a pole p^-3 apart at p = 2^61 - 1 need more than the
    one digit a degree-2 elimination starts with there."""
    precs = []
    inner = polynomials._pivot_ord_sum

    def recording(rows, p, prec):
        precs.append(prec)
        return inner(rows, p, prec)

    monkeypatch.setattr(polynomials, "_pivot_ord_sum", recording)
    p = LARGE_P
    zeros = [(pt(Fraction(1, p)), 1), (pt(5), 1)]
    poles = [(pt(Fraction(1, p) + Fraction(p) ** 3), 1), (pt(Fraction(2, 3 * p)), 1)]
    m = from_factored(p, Fraction(p, 4), zeros, poles)
    res = resultant_ord(m)
    assert res == resultant_ord_product(m)
    assert res.frac >= 3
    assert precs[0] < 3 and precs[-1] > 3


def test_resultant_degree_40_and_twin():
    """A degree-40 factored map and its unimodular post-composite."""
    p = 3
    rng = DetRng(40)
    pool: list = []
    while len(pool) < 80:
        q = pt(random_rational(rng, p))
        if q not in pool:
            pool.append(q)
    m = from_factored(p, random_rational(rng, p), [(q, 1) for q in pool[:40]],
                      [(q, 1) for q in pool[40:]])
    res = resultant_ord(m)
    assert res == resultant_ord_product(m)
    twin = post_compose(((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1))), m)
    assert resultant_ord(twin) == res


def _int_poly(lead, roots, d):
    """Ascending integer coefficients of lead * prod(b z - a) over the
    roots (a, b), padded with zeros to length d+1."""
    out = [lead]
    for a, b in roots:
        out = [b * x - a * y for x, y in zip([0] + out, out + [0])]
    return out + [0] * (d + 1 - len(out))


def test_bezout_determinant_is_signed_sylvester():
    """det Bez_d(F, G) = (-1)^(d(d-1)/2) Res_(d,d)(F, G) exactly, at formal
    degree d: with a leading coefficient dropped on either side or both
    (infinity a zero or a pole, or a shared root at infinity), and with a
    shared finite root, where both determinants are 0."""
    rng = DetRng(1729)
    zero = nonzero = 0
    for i in range(320):
        d = 1 + i % 8
        case = i // 8 % 5
        if case == 4:  # a shared finite root a/b
            a, b = rng.randint(-9, 9), rng.randint(1, 9)
            f = _int_poly(rng.randint(1, 9), [(a, b)] + [
                (rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(d - 1)], d)
            g = _int_poly(-rng.randint(1, 9), [(a, b)] + [
                (rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(rng.randint(0, d - 1))], d)
        else:
            f = [rng.randint(-9, 9) * 3 ** rng.randint(0, 2) for _ in range(d + 1)]
            g = [rng.randint(-9, 9) * 3 ** rng.randint(0, 2) for _ in range(d + 1)]
            if case in (1, 3):
                f[d] = 0
            if case in (2, 3):
                g[d] = 0
        bez = ref_det(polynomials._bezout_rows(f, g))
        syl = ref_det(ref_sylvester_rows(f, g))
        assert bez == (-1) ** (d * (d - 1) // 2) * syl, (f, g)
        if case >= 3:
            assert syl == 0, (f, g)
        zero += syl == 0
        nonzero += syl != 0
    assert zero >= 128 and nonzero >= 150


def test_kernel_matches_product_formula_on_ladder_maps():
    """The Bezout kernel against the product formula on ladder-type maps
    (d distinct finite zeros and d distinct finite poles) of degree up to
    40, above the sizes of the corpus tests, at every small p."""
    for d in (10, 20, 30, 40):
        for p in (2, 3, 5, 7):
            m = random_ladder_map(DetRng(100 * d + p), p, d)
            res = polynomials.sylvester_det_ord(p, list(m.f), list(m.g), d)
            assert res == m.res_ord == resultant_ord_product(m).frac, (d, p)


def test_resultant_at_the_degree_cap():
    """A factored map of the largest degree a map file may have."""
    m = random_ladder_map(DetRng(MAX_DEGREE), 3, MAX_DEGREE)
    assert m.d == MAX_DEGREE
    assert m.res_ord == resultant_ord_product(m).frac


def test_constructors_refuse_a_degree_above_the_cap():
    """``from_factored`` and ``from_coeffs`` refuse a degree, or one
    multiplicity, above ``MAX_DEGREE`` with the map file parser's own
    ``ParseError`` message, before any work: a multiplicity of 10^6 is
    never multiplied out factor by factor."""
    big = 10**6
    cases = [
        (lambda: from_factored(3, 1, [(ProjPoint.of(1), big)], [(INF_POINT, big)]),
         {"p": 3, "factored": {"C": "1", "zeros": [["1", big]], "poles": [["inf", big]]}}),
        (lambda: from_factored(3, 1, [(ProjPoint.of(k), 1) for k in range(MAX_DEGREE + 1)],
                               [(INF_POINT, 1)]),
         {"p": 3, "factored": {"C": "1", "zeros": [[str(k), 1] for k in range(MAX_DEGREE + 1)],
                               "poles": [["inf", 1]]}}),
        (lambda: from_coeffs(3, [1] + [0] * MAX_DEGREE + [1], [0] * (MAX_DEGREE + 1) + [1]),
         {"p": 3, "coeffs": {"F": ["1"] + ["0"] * MAX_DEGREE + ["1"],
                             "G": ["1"] + ["0"] * (MAX_DEGREE + 1)}}),
    ]
    for build, data in cases:
        start = process_time()
        with pytest.raises(ParseError, match=rf"^degree \d+ exceeds the supported maximum {MAX_DEGREE}$") as got:
            build()
        assert process_time() - start < 0.5
        with pytest.raises(ParseError) as parsed:
            parse_map_data(data)
        assert str(got.value) == str(parsed.value)


def _factored_maps():
    """The acceptance corpus, ladder-type maps, maps with multiplicities,
    and maps with infinity as a zero and as a pole, p in the denominators
    and negative roots."""
    rng = DetRng(4242)
    maps = acceptance_corpus()
    maps += [random_ladder_map(DetRng(d), p, d) for d in (5, 10, 20) for p in (2, 3, 5)]
    maps += [random_factored_map(rng, (2, 3, 5, 7)[i % 4], dmax=6, multiplicities=True)
             for i in range(40)]
    maps += [
        from_factored(3, Fraction(2, 27), [(INF_POINT, 2), (pt(Fraction(1, 3)), 1)],
                      [(pt(-6), 2), (pt(Fraction(5, 9)), 1)]),
        from_factored(5, Fraction(-25, 3), [(pt(-2), 3)],
                      [(INF_POINT, 1), (pt(Fraction(-7, 25)), 2)]),
        from_factored(2, 4, [(pt(0), 1), (pt(Fraction(-3, 8)), 2)], [(pt(Fraction(1, 2)), 1)]),
        from_factored(7, Fraction(1, 49), [(pt(Fraction(-1, 7)), 2)], [(pt(49), 1)]),
        from_factored(3, Fraction(-4, 9), [(pt(Fraction(-5, 27)), 2), (pt(Fraction(1, 3)), 1)],
                      [(pt(Fraction(-2, 9)), 1)]),
        from_factored(5, Fraction(3, 7), [(pt(Fraction(-1, 5)), 1)],
                      [(pt(Fraction(-3, 125)), 2), (pt(-10), 1)]),
    ]
    assert any(pt.is_inf for m in maps for pt, _ in m.factored.zeros)
    assert any(pt.is_inf for m in maps for pt, _ in m.factored.poles)
    return maps


def test_resultant_product_matches_spherical_reference():
    """One valuation per zero/pole pair, weighted by multiplicities, gives
    the sum of spherical distances over all pairs."""
    for m in _factored_maps():
        assert resultant_ord_product(m).frac == ref_resultant_ord_product(m), m


def test_integer_expansion_matches_fraction_reference():
    """``from_factored`` expands in integers and gives the pair of the
    ``Fraction`` expansion, normalized, coefficient for coefficient."""
    for m in _factored_maps():
        f, g = ref_expand(m.factored, m.d)
        assert (m.f, m.g) == ref_normalized(m.p, f, g), m
        assert all(type(c) is Fraction for c in m.f + m.g), m


def test_gir_equals_pushforward_on_corpus():
    rng = DetRng(654)
    for _ in range(60):
        p = [3, 5, 7][rng.randint(0, 2)]
        m = random_factored_map(rng, p, dmax=5)
        assert gir_minors(m) == diam_gauss(p, push_forward(m, gauss_point()))


def test_composition_preserves_coefficients_semantics():
    p = 3
    rng = DetRng(11)
    for _ in range(40):
        m = random_factored_map(rng, p, dmax=3)
        mat = random_unimodular(rng)
        pre = pre_compose(m, mat)
        post = post_compose(mat, m)
        for _ in range(5):
            from berklip.sampling import random_rational

            z = ProjPoint.of(random_rational(rng, p))
            assert eval_proj(pre, z) == eval_proj(m, mobius_apply(mat, z))
            assert eval_proj(post, z) == mobius_apply(mat, eval_proj(m, z))


def test_pre_compose_transports_factored_form():
    p = 3
    rng = DetRng(22)
    from berklip.ratmap import mobius_apply

    for _ in range(20):
        m = random_factored_map(rng, p, dmax=4)
        mat = random_unimodular(rng)
        pre = pre_compose(m, mat)
        assert pre.factored is not None
        # zeros of the composition are preimages of the original zeros
        for q, _ in pre.factored.zeros:
            assert eval_proj(m, mobius_apply(mat, q)) == ProjPoint.of(0)
        assert resultant_ord(pre) == resultant_ord_product(pre)


def test_constructors_refuse_a_bad_prime_and_float_or_bool_values():
    """``from_coeffs`` and ``from_factored`` check p as the map-file parser
    does, with its messages, and refuse a float or bool coefficient or
    constant instead of expanding its binary value."""
    psi_12 = 318665857834031151167461
    for p, why in ((4, "4 is not prime"), (15, "15 is not prime"), (1, "1 is not prime"),
                   (psi_12, f"{psi_12} is not prime"), (3.0, "p must be an integer"),
                   (2**89 - 1, "exceeds the deterministic test bound")):
        for build in (lambda: from_coeffs(p, [1, 0], [0, 1]),
                      lambda: from_factored(p, 1, [(INF_POINT, 1)], [(ProjPoint.of(0), 1)])):
            with pytest.raises(ParseError, match=why):
                build()
    for f in ([0.1, 1], [True, 1], [1, False]):
        with pytest.raises(ParseError, match="must be rational"):
            from_coeffs(3, f, [1, 0])
    for c in (0.5, True):
        with pytest.raises(ParseError, match="must be rational"):
            from_factored(3, c, [(ProjPoint.of(0), 1)], [(INF_POINT, 1)])
    assert from_coeffs(3, ["1/3", 1], [Fraction(1), 0]) == from_coeffs(3, [Fraction(1, 3), 1], [1, 0])


@pytest.mark.parametrize("build", [
    lambda m, x: pre_compose(m, ((x, 1), (0, 1))),
    lambda m, x: post_compose(((1, 0), (x, 1)), m),
    lambda m, x: mobius_apply(((1, x), (0, 1)), ProjPoint.of(0)),
], ids=["pre_compose", "post_compose", "mobius_apply"])
def test_matrix_entry_points_refuse_float_and_bool(build):
    """A Möbius matrix entry is refused as a float or a bool, as a map's
    coefficients are, instead of being expanded to its binary value or
    read as 1; ints, ``Fraction``s and "num/den" strings are kept."""
    m = from_coeffs(3, [1, 2, 1], [0, 1, 3])
    for bad in (0.1, True, False):
        with pytest.raises(ParseError, match="must be rational"):
            build(m, bad)
    assert build(m, "1/3") == build(m, Fraction(1, 3))
    assert build(m, 2) == build(m, Fraction(2))
