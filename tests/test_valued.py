"""Valuation arithmetic, p-power sums, and exact comparison."""

import json
import operator
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from pathlib import Path
from time import process_time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berklip import valued
from berklip.berk import BerkPoint, gauss_point
from berklip.errors import ParseError, ResourceLimitError
from berklip.invariants import InvariantBundle
from berklip.lipschitz import invariant_bound_terms
from berklip.projective import ProjPoint
from berklip.sampling import DetRng
from berklip.valued import (
    ORD_INF,
    Ord,
    is_prime,
    ppow_compare,
    ppow_decimal,
    ppow_normalize,
    ppow_term,
    ppow_mul,
    int_val,
)
from oracles import (
    ord_p,
    ppow_add,
    ref_compare_by_bisection,
    ref_ppow_decimal_enclosure,
    ref_ppow_normalize,
)

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=1000
)


def _int_val_naive(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 97, 2**31 - 1]),
    k=st.integers(0, 500),
    u=st.integers(-(10**40), 10**40).filter(lambda u: u != 0),
)
def test_int_val_matches_naive_loop(p, k, u):
    n = p**k * u
    assert int_val(n, p) == _int_val_naive(n, p) >= k
    assert int_val(-n, p) == int_val(n, p)  # exact on either sign: no abs()


@pytest.mark.parametrize("p", [2, 3, 5, 7, 97, 2**31 - 1])
def test_int_val_at_the_word_boundary(p):
    """Valuations around the word exponent k and its multiples, where the
    one-remainder rule hands over to the squaring strip: a word power off by
    one shows here."""
    k, pk = valued._word_power(p)
    cofactors = [1, pk + 1, p - 1, p + 1, pk - 1, pk * pk + 1, 10**60 + 7]
    for v in sorted({0, 1, k - 1, k, k + 1, 2 * k - 1, 2 * k, 2 * k + 1, 5000}):
        # at v = 5000 the naive loop is the slow side: two cofactors there
        for u in cofactors if v < 5000 else cofactors[:2]:
            if u % p == 0:
                u += 1
            n = p**v * u
            assert _int_val_naive(n, p) == v
            assert int_val(n, p) == int_val(-n, p) == v, (p, v, u)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2**31 - 1])
def test_int_val_of_zero_raises(p):
    """0 has no finite valuation: the kernel raises instead of stripping
    powers of p from 0 without end."""
    with pytest.raises(ValueError):
        int_val(0, p)


@pytest.mark.parametrize("bits", [15, 30])
def test_word_power_fits_one_digit(bits):
    for p in (2, 3, 5, 7, 97, 181, 32749, 32771, 2**31 - 1, 2**61 - 1):
        k, pk = valued._word_power(p, bits)
        assert pk == p**k and k >= 1
        if p < 2**bits:
            assert p**k < 2**bits <= p ** (k + 1), (p, bits, k)
        else:
            assert k == 1, (p, bits, k)
    assert valued._word_power(3, 30) == (18, 3**18)
    assert valued._word_power(5, 30) == (12, 5**12)
    assert valued._word_power(7, 30) == (10, 7**10)
    assert valued._word_power(2, 15) == (14, 2**14)


def test_int_val_is_one_call(count_calls):
    """The kernel never calls itself through the module name, which the
    benchmark's call counter rebinds: one valuation is one counted call."""
    calls = count_calls(int_val)
    for p in (2, 3, 2**31 - 1):
        calls.clear()
        assert valued.int_val(-(p**5000) * (p + 1), p) == 5000
        assert len(calls) == 1, p


def test_is_prime_examples():
    assert is_prime(2)
    assert is_prime(97)
    assert not is_prime(1)
    assert not is_prime(15)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)
    # psi_12 = 399165290221 * 798330580441 passes the witnesses 2..37
    assert not is_prime(318665857834031151167461)


def test_ord_p_examples():
    assert ord_p(3, Fraction(9, 2)) == Ord.of(2)
    assert ord_p(3, 0).is_inf
    assert ord_p(7, 0).is_inf
    assert ord_p(5, Fraction(50, 7)) == Ord.of(2)


def test_ord_arithmetic_and_order():
    assert Ord.of(1) + Ord.of(2) == Ord.of(3)
    assert (ORD_INF + Ord.of(5)).is_inf
    assert Ord.of(3) * Fraction(1, 2) == Ord.of(Fraction(3, 2))
    assert Ord.of(-1) < Ord.of(0) < ORD_INF
    assert max(Ord.of(2), ORD_INF).is_inf
    assert str(Ord.of(Fraction(3, 2))) == "3/2"
    assert str(ORD_INF) == "inf"


# each constructor that takes a rational, with the fields it stores it in;
# at p = 3 the inputs below are p-units, so ppow_term keeps them whole
_CONSTRUCTORS = {
    "Ord.of": lambda x: [Ord.of(x).v],
    "ppow_term coefficient": lambda x: [ppow_term(3, x, 0).terms[0][0]],
    "ppow_term exponent": lambda x: [ppow_term(3, 1, x).terms[0][1]],
    "BerkPoint.disc": lambda x: list(BerkPoint.disc(x, x)[1:]),
    "ProjPoint.of": lambda x: [ProjPoint.of(x).z],
}


@pytest.mark.parametrize("name", sorted(_CONSTRUCTORS))
def test_constructors_store_exact_fractions(name):
    """A constructor stores an int as that int and keeps a ``Fraction`` it
    is given as that same object; a bool is never stored as a bool.  The
    entry points ``Ord.of`` and ``ProjPoint.of`` refuse a bool as they
    refuse a float, and the internal constructors store it as a
    ``Fraction``.  No field is ever a float."""
    build = _CONSTRUCTORS[name]
    for x in (2, True, Fraction(2, 5)):
        if x is True and name in ("Ord.of", "ProjPoint.of"):
            with pytest.raises(ParseError, match="must be rational"):
                build(x)
            continue
        fields = build(x)
        want = Fraction if type(x) is bool else type(x)
        assert all(type(f) is want and f == x for f in fields), (x, fields)
    with pytest.raises((ParseError, TypeError), match="rational"):
        build(0.5)
    x = Fraction(2, 5)
    assert all(f is x for f in build(x))
    for coef in (-1, Fraction(-2, 5)):
        with pytest.raises(ValueError):
            ppow_term(3, coef, 0)
    assert gauss_point() == BerkPoint.disc(0, 0)
    assert gauss_point() is gauss_point()


_ORDS = [ORD_INF, Ord.of(-1), Ord.of(0), Ord.of(Fraction(3, 2))]
_OPERANDS = _ORDS + [0, 2, Fraction(3, 2)]


def _order_key(x):
    """A reference key of the order: (1, 0) for infinity, above (0, v) for
    every rational v."""
    v = x.v if isinstance(x, Ord) else Fraction(x)
    return (1, 0) if v is None else (0, v)


@pytest.mark.parametrize(
    "op",
    [operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne],
    ids=lambda op: op.__name__,
)
def test_ord_order_matches_reference_key(op):
    """Every comparison of an ``Ord`` with an ``Ord``, an int or a
    ``Fraction``, in both orders, agrees with the reference key that puts
    infinity above every rational."""
    for a in _ORDS:
        for b in _OPERANDS:
            assert op(a, b) is op(_order_key(a), _order_key(b)), (a, b)
            assert op(b, a) is op(_order_key(b), _order_key(a)), (b, a)


def test_ord_max_min_and_sort_over_a_mixed_list():
    mixed = [Ord.of(0), 2, ORD_INF, Fraction(3, 2), Ord.of(-1), Ord.of(2), 0]
    assert max(mixed) is ORD_INF
    assert min(mixed) is mixed[4]
    assert max(mixed[:2] + mixed[3:]) is mixed[1]  # ties 2 and Ord.of(2): the first
    assert [id(x) for x in sorted(mixed)] == [id(x) for x in sorted(mixed, key=_order_key)]


@given(rationals, rationals)
@settings(max_examples=150, deadline=None)
def test_ord_ultrametric(x, y):
    p = 3
    lhs = ord_p(p, x + y)
    a, b = ord_p(p, x), ord_p(p, y)
    assert lhs >= min(a, b)
    if a != b:
        assert lhs == min(a, b)


@given(rationals, rationals)
@settings(max_examples=150, deadline=None)
def test_ord_multiplicative(x, y):
    p = 5
    if x == 0 or y == 0:
        assert ord_p(p, x * y).is_inf
    else:
        assert ord_p(p, x * y) == ord_p(p, x) + ord_p(p, y)


def test_normalize_examples():
    s = ppow_normalize(3, [(1, Fraction(1, 2)), (1, Fraction(1, 2))])
    assert s.terms == ((Fraction(2), Fraction(1, 2)),)
    s = ppow_normalize(3, [(3, 0)])
    assert s.terms == ((Fraction(1), Fraction(1)),)
    s = ppow_normalize(3, [(1, 0), (-1, 0)])
    assert s.is_zero
    with pytest.raises(ValueError):
        ppow_normalize(3, [(1, 0), (-2, 0)])


def test_normalize_borrows_across_integer_exponents():
    # 1 - 1/3 = 2 * 3^-1
    s = ppow_normalize(3, [(1, 0), (-1, -1)])
    assert s.terms == ((Fraction(2), Fraction(-1)),)


def _normal_form_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return str(e)


def test_normalize_matches_summing_reference():
    """The one-term fast path against the former summation on seeded raw
    term lists: 1-4 terms, integer and rational exponents drawn so that
    classes mix and repeat, coefficients with p in the numerator or the
    denominator, negatives (a negative total raises ValueError) and
    cancellation of a class to zero."""
    rng = DetRng(4131)
    seen = {"one": 0, "multi": 0, "cancel": 0, "negative": 0, "empty": 0}
    for i in range(3000):
        p = [2, 3, 5, 7][i % 4]
        terms = []
        for _ in range(rng.randint(1, 4)):
            num = rng.randint(-6, 24) * p ** rng.randint(0, 3)
            coef = Fraction(num, rng.randint(1, 6) * p ** rng.randint(0, 3))
            exp = Fraction(rng.randint(-9, 9), [1, 1, 2, 3][rng.randint(0, 3)])
            terms.append((coef, exp))
        if rng.randint(0, 4) == 0:
            coef, exp = terms[0]
            terms.append((-coef, exp))  # the class of terms[0] cancels
            seen["cancel"] += 1
        want = _normal_form_or_error(ref_ppow_normalize, p, terms)
        got = _normal_form_or_error(ppow_normalize, p, terms)
        assert got == want, (p, terms)
        assert repr(got) == repr(want)
        if isinstance(want, str):
            seen["negative"] += 1
        elif want.is_zero:
            seen["empty"] += 1
        else:
            for coef, exp in terms:
                assert _normal_form_or_error(ppow_term, p, coef, exp) == _normal_form_or_error(
                    ref_ppow_normalize, p, [(coef, exp)]
                ), (p, coef, exp)
            seen["one" if len(terms) == 1 else "multi"] += 1
    assert all(n >= 100 for n in seen.values()), seen


@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=0, max_value=50, max_denominator=20),
            st.fractions(min_value=-4, max_value=4, max_denominator=6),
        ),
        max_size=6,
    )
)
@settings(max_examples=100, deadline=None)
def test_normalize_idempotent(terms):
    s = ppow_normalize(5, terms)
    again = ppow_normalize(5, s.terms)
    assert again == s


def _decimal_value(p, s, digits=30):
    ctx = getcontext().copy()
    ctx.prec = digits
    total = Decimal(0)
    for c, e in s.terms:
        base = ctx.power(Decimal(p), ctx.divide(Decimal(e.numerator), Decimal(e.denominator)))
        total += ctx.divide(Decimal(c.numerator), Decimal(c.denominator)) * base
    return total


def _round_decimal(x: Decimal, digits: int) -> str:
    ctx = getcontext().copy()
    ctx.prec = digits
    return str(ctx.plus(x))


def test_compare_examples():
    p = 3
    one = ppow_term(p, 1, 0)
    inv = ppow_term(p, 1, -1)
    assert ppow_compare(p, one, inv) == 1
    # 2*3^-1 vs 3^-1/2, decided independently by a 10-digit decimal oracle
    a = ppow_term(p, 2, -1)
    b = ppow_term(p, 1, Fraction(-1, 2))
    assert _decimal_value(p, a, 12) > _decimal_value(p, b, 12)
    assert ppow_compare(p, a, b) == 1
    assert ppow_compare(p, ppow_normalize(p, [(1, Fraction(1, 2))] * 2), ppow_term(p, 2, Fraction(1, 2))) == 0


def test_compare_matches_decimal_oracle_on_random_sums():
    p = 3
    rng = DetRng(20240517)
    sums = []
    for _ in range(1000):
        terms = []
        for _ in range(rng.randint(1, 4)):
            c = Fraction(rng.randint(1, 40), rng.randint(1, 9))
            e = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
            terms.append((c, e))
        sums.append(ppow_normalize(p, terms))
    decimals = [_decimal_value(p, s, 50) for s in sums]
    pairs = 0
    with localcontext() as ctx:
        ctx.prec = 50
        for i in range(len(sums)):
            for j in range(i + 1, min(i + 6, len(sums))):
                cmp_exact = ppow_compare(p, sums[i], sums[j])
                da, db = decimals[i], decimals[j]
                if abs(da - db) > Decimal("1e-30"):
                    cmp_dec = -1 if da < db else 1
                    assert cmp_exact == cmp_dec
                pairs += 1
    assert pairs >= 4900
    # total-order spot check: antisymmetry and transitivity on triples
    for i in range(0, 997, 97):
        a, b, c = sums[i], sums[i + 1], sums[i + 2]
        assert ppow_compare(p, a, b) == -ppow_compare(p, b, a)
        if ppow_compare(p, a, b) <= 0 and ppow_compare(p, b, c) <= 0:
            assert ppow_compare(p, a, c) <= 0


def _root_convergents(p: int, k: int):
    """Continued-fraction convergents c of p^(1/k) that agree with it to
    20 to 45 significant digits, each with the sign of c - p^(1/k), read
    from an 80-digit root."""
    with localcontext() as ctx:
        ctx.prec = 80
        root = Decimal(p) ** (Decimal(1) / k)
        x = Fraction(root)
        h0, h1, k0, k1 = 0, 1, 1, 0
        while True:
            a = x.numerator // x.denominator
            h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
            gap = (Decimal(h1) / Decimal(k1) - root) / root
            if abs(gap) < Decimal("1e-45"):
                return
            if abs(gap) < Decimal("1e-20"):
                yield Fraction(h1, k1), 1 if gap > 0 else -1
            x = 1 / (x - a)


def _check_against_bisection(p, a, b):
    assert ppow_compare(p, a, b) == ref_compare_by_bisection(p, a, b), (p, a, b)
    assert ppow_compare(p, b, a) == -ppow_compare(p, a, b)


def test_one_term_compare_matches_bisection():
    """ppow_compare against the bisected enclosure of p^(1/m) (oracles) on
    three families: one-term pairs, where small exponent gaps reach the
    integer or the Decimal comparison and large ones the gap test; seeded
    sums of 1-3 terms with exponent denominators up to 12; and near-ties,
    a continued-fraction convergent c of p^(1/2) or p^(1/3) against that
    root, agreeing with it to at least 20 digits."""
    rng = DetRng(9001)
    pairs = 0
    for i in range(3200):
        p = [2, 3, 5, 7][i % 4]
        terms = []
        for _ in range(2):
            c = Fraction(rng.randint(1, 60), rng.randint(1, 12))
            span = [3, 12, 40][rng.randint(0, 2)]
            terms.append(ppow_term(p, c, Fraction(rng.randint(-span, span), rng.randint(1, 6))))
        a, b = terms
        if a == b:
            continue
        _check_against_bisection(p, a, b)
        pairs += 1
    assert pairs >= 3000

    sums = 0
    for i in range(300):
        p = [2, 3, 5, 7][i % 4]
        a, b = (
            ppow_normalize(p, [
                (Fraction(rng.randint(1, 60), rng.randint(1, 12)),
                 Fraction(rng.randint(-24, 24), rng.randint(1, 12)))
                for _ in range(rng.randint(1, 3))
            ])
            for _ in range(2)
        )
        if a == b:
            continue
        _check_against_bisection(p, a, b)
        sums += len(a.terms) + len(b.terms) > 2
    assert sums >= 150

    ties = 0
    for p in (2, 3, 5, 7):
        for k in (2, 3):
            root = ppow_term(p, 1, Fraction(1, k))
            for c, sign in _root_convergents(p, k):
                assert ppow_compare(p, ppow_term(p, c, 0), root) == sign, (p, k, c)
                _check_against_bisection(p, ppow_term(p, c, 0), root)
                ties += 1
    assert ties >= 40


@pytest.mark.parametrize(
    "p, d, gir, b0, expected",
    [
        (3, 64, -5, Fraction(191, 3), 1),
        (2**61 - 1, 64, -5, 32, 1),
        (3, 2, 0, Fraction(1, 100003), -1),
        (3, 64, 5, Fraction(1, 100003), 1),
    ],
)
def test_invariant_bound_terms_compare_fast(p, d, gir, b0, expected):
    """The two branches of the invariant bound at large d * B0, at a huge
    prime, and at huge exponent denominators: each took seconds to
    bisect, and compares in well under a second.  The last case (m =
    6,400,192) took 24.5 s when two one-term sums were compared through
    (n d)^m p^k.  The first branch p^(gir + d B0) beats d p^(gir/d + B0)
    exactly when (d - 1)(gir/d + B0) > log_p d.  The larger one renders
    in well under a second too (the bisection rendering took 38.5 s on
    the first case and 17.8 s on the third)."""
    b = InvariantBundle(p, d, Ord.of(gir), None, None, None, None)  # only p, d, gir read
    first, second = invariant_bound_terms(b, b0)
    start = process_time()
    got = ppow_compare(p, first, second)
    assert process_time() - start < 0.5
    assert got == expected
    bound = first if got > 0 else second
    start = process_time()
    text = ppow_decimal(p, bound)
    assert process_time() - start < 0.5
    assert text == _round_decimal(_decimal_value(p, bound, 50), 12)


def test_enclosure_cap_raises(monkeypatch):
    """Reaching the working-precision cap is a resource limit: the compare
    and the rendering raise an error that names it, and never guess."""
    p = 3
    a, b = ppow_term(p, 1, Fraction(1, 2)), ppow_term(p, 2, Fraction(1, 3))
    monkeypatch.setattr(valued, "_MAX_DECIMAL_PREC", 10)
    for call in (lambda: ppow_compare(p, a, b), lambda: ppow_decimal(p, a)):
        with pytest.raises(ResourceLimitError, match="_MAX_DECIMAL_PREC = 10 digits"):
            call()


def test_compare_is_total_order():
    p = 5
    a = ppow_term(p, 2, Fraction(1, 2))
    b = ppow_term(p, 4, Fraction(1, 3))
    c = ppow_add(p, a, b)
    assert ppow_compare(p, c, a) == 1
    assert ppow_compare(p, c, b) == 1
    assert ppow_compare(p, a, a) == 0


def test_mul_and_add():
    p = 3
    a = ppow_term(p, 2, -1)
    b = ppow_term(p, 1, 1)
    prod = ppow_mul(p, a, b)
    assert prod == ppow_term(p, 2, 0)
    tot = ppow_add(p, ppow_term(p, 1, 0), ppow_term(p, 1, -1))
    # 1 + 1/3 = 4/3
    assert tot.terms == ((Fraction(4), Fraction(-1)),)


def test_decimal_rendering():
    p = 3
    assert ppow_decimal(p, ppow_term(p, 1, 3)) == "27"
    assert ppow_decimal(p, ppow_normalize(p, [])) == "0"
    val = ppow_decimal(p, ppow_term(p, 1, Fraction(-1, 2)))
    # 3^(-1/2) = 0.57735026918962576...
    assert val.startswith("0.5773502691")


def test_decimal_rendering_matches_bisection_reference():
    """ppow_decimal against the former bisection rendering (oracles): on
    every sum whose bisected enclosure rounds alike at both ends, the two
    strings agree byte for byte.  Where the enclosure straddles a rounding
    boundary, a 50-digit value from Decimal.power decides instead."""
    rng = DetRng(4242)
    agreed = 0
    for i in range(400):
        p = [2, 3, 5, 7, 11, 13][i % 6]
        digits = 12 if i % 3 else 6
        terms = []
        for _ in range(rng.randint(1, 3)):
            c = Fraction(rng.randint(1, 50), rng.randint(1, 9))
            terms.append((c, Fraction(rng.randint(-20, 20), rng.randint(1, 6))))
        s = ppow_normalize(p, terms)
        got = ppow_decimal(p, s, digits)
        lo, hi, ref = ref_ppow_decimal_enclosure(p, s, digits)
        ctx = getcontext().copy()
        ctx.prec = digits
        ends = [str(ctx.divide(Decimal(x.numerator), Decimal(x.denominator))) for x in (lo, hi)]
        if ends[0] == ends[1]:
            assert got == ref, (p, s, digits)
            agreed += 1
        else:
            assert got == _round_decimal(_decimal_value(p, s, 50), digits), (p, s, digits)
    assert agreed >= 360


def test_integer_exponent_rendering_matches_fraction_value():
    """A sum with integer exponents renders, from its integer numerator
    and denominator, exactly as the rounding of its ``Fraction`` value
    did, byte for byte: negative and large exponents, several terms, and
    coefficients with a power of p in the denominator included."""
    rng = DetRng(3501)
    for i in range(600):
        p = [2, 3, 5, 7, 11][i % 5]
        digits = 12 if i % 4 else 6
        terms = [
            (Fraction(rng.randint(1, 400), rng.randint(1, 30)), rng.randint(-70, 70))
            for _ in range(rng.randint(1, 4))
        ]
        s = ppow_normalize(p, terms)
        assert all(e.denominator == 1 for _, e in s.terms)
        assert ppow_decimal(p, s, digits) == ref_ppow_decimal_enclosure(p, s, digits)[2], (p, s)


@pytest.mark.parametrize(
    "fixture, b0, expected",
    [
        ("square_shift_p3", Fraction(1, 1009), "81.1765798942"),
        ("square_shift_p3", Fraction(4031, 63), "9.22271772254E+62"),
        ("square_shift_p3", Fraction(1, 100003), "81.0017797181"),
        ("mobius_generic_p5", Fraction(1, 1009), "1.00159635499"),
        ("mobius_generic_p5", Fraction(4031, 63), "5.28427627510E+44"),
        ("mobius_generic_p5", Fraction(1, 100003), "1.00001609403"),
    ],
)
def test_invariant_bound_renders_fast(fixture, b0, expected):
    """The user-B0 invariant bound of ``bounds --input <fixture> --b0-ord
    B0`` at large exponent denominators: the bisection rendering took
    4.9 s (1/1009), 20.4 s (4031/63) and over two minutes (1/100003) on
    square_shift_p3.  The expected strings are its output where it
    finished; each is also the rounding of a 50-digit Decimal.power
    value."""
    from berklip.invariants import bundle
    from berklip.lipschitz import invariant_bound
    from berklip.serialize import parse_map_data

    path = Path(__file__).parent.parent / "fixtures" / f"{fixture}.json"
    m = parse_map_data(json.loads(path.read_text()))
    bound = invariant_bound(bundle(m), b0)
    start = process_time()
    got = ppow_decimal(m.p, bound)
    assert process_time() - start < 0.5
    assert got == expected == _round_decimal(_decimal_value(m.p, bound, 50), 12)
