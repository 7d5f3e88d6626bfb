"""Exact arithmetic relative to a fixed prime p.

Everything downstream works in the log domain: a positive quantity q is
carried as the exponent t with q = p^(-t), so products become sums and the
ultrametric becomes a min.  Two kinds of values appear:

* ``Ord`` -- a single valuation exponent t in QQ, or +infinity (the
  valuation of 0).  Encodes absolute values |x| = p^(-ord(x)) and radii
  r = p^(-t).
* ``PPowerSum`` -- a finite formal sum of positive p-power terms
  sum_i c_i * p^(e_i) with c_i a positive p-unit rational and the e_i
  rational, pairwise inequivalent mod ZZ.  This is the currency for metric
  values (which are differences of p-powers) and Lipschitz bounds (which
  carry integer factors like d * p^t).

Normal forms are canonical: powers of p with exponents in distinct classes
mod ZZ are linearly independent over QQ (x^m - p is Eisenstein), so value
equality is syntactic equality of normal forms.  Strict comparison of
unequal values is exact: by the exponent gap of two one-term sums where
that decides, in integers when every exponent is an integer, and
otherwise by the correctly rounded ``Decimal`` enclosure that also
renders sums, at doubling precision until the two enclosures are
disjoint.  That terminates, because unequal normal forms differ by a
nonzero element of Q(p^(1/m)) (m the lcm of the exponent denominators)
and the enclosure width goes to 0 as the precision grows.  The precision
cap is a resource limit: reaching it raises ``ResourceLimitError``, and
never yields a guess.

The value types are ``NamedTuple`` records: immutable, with C-level
equality and hashing, and nothing costly to build when the module loads.
"""

from __future__ import annotations

import re
import sys
from decimal import MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from math import floor, lcm
from typing import NamedTuple

from .errors import ParseError, ResourceLimitError

__all__ = [
    "Ord",
    "ORD_INF",
    "is_prime",
    "int_val",
    "PPowerSum",
    "PPOW_ZERO",
    "ppow_normalize",
    "ppow_term",
    "ppow_mul",
    "ppow_compare",
    "ppow_max",
    "ppow_decimal",
    "parse_fraction",
    "parse_int",
    "format_fraction",
]


# ---------------------------------------------------------------------------
# primality
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Miller-Rabin with the first 13 primes as witnesses is deterministic below
# psi_13 = 3317044064679887385961981; the first 12 (up to 37) only below
# psi_12 = 318665857834031151167461, itself a strong pseudoprime to them
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86 (2017))
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test for the prime of a map file."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    if n >= _MR_DETERMINISTIC_BOUND:
        raise ValueError(f"prime candidate {_clip(str(n))} exceeds the deterministic test bound")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------------


# bits in one CPython digit: a remainder by an int below 2^_DIGIT_BITS is
# one pass of single-digit divisions in C
_DIGIT_BITS = sys.int_info.bits_per_digit
# p -> (k, p^k), the word exponent of p and its power (see _word_power)
_WORDS: dict[int, tuple[int, int]] = {}


def _word_power(p: int, bits: int = _DIGIT_BITS) -> tuple[int, int]:
    """(k, p^k) for the largest k >= 1 with p^k < 2^bits, so that p^k is one
    digit of ``bits`` bits; k = 1 when p itself is not below 2^bits."""
    k, pk = 1, p
    while pk * p < 1 << bits:
        pk *= p
        k += 1
    return k, pk


def int_val(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer of either sign.

    With k the word exponent of p and P = p^k (see :func:`_word_power`),
    one remainder r = n mod P, in [0, P) for either sign of n, decides
    every valuation below k: floor division gives n = qP + r with
    v(qP) >= k, so if r != 0 then v(n) < k, and v(r) = v(n - qP) = v(n)
    (the ultrametric inequality is an equality when the valuations
    differ).  The factors p of r are then divided out of a word-sized int.
    If r = 0, :func:`_val_by_squaring` strips the powers of P from n / P,
    and one more word remainder of what is left gives the rest.  Cost: one
    digit-sized remainder of n for v < k, and O(log v) big divisions
    beyond.  For p of a digit or more, k = 1 and P = p.  Raises
    ``ValueError`` for n = 0, checked only once r = 0.
    """
    try:
        k, pk = _WORDS[p]
    except KeyError:
        k, pk = _WORDS[p] = _word_power(p)
    r = n % pk
    v = 0
    if not r:
        if not n:
            raise ValueError("the valuation of 0 is infinite")
        w, n = _val_by_squaring(n // pk, pk)
        v = k * (w + 1)
        r = n % pk
    while not r % p:
        r //= p
        v += 1
    return v


def _ords(p: int, q) -> list[int | None]:
    """ord_p of each integer, None for 0."""
    return [int_val(x, p) if x else None for x in q]


def _val_by_squaring(n: int, b: int) -> tuple[int, int]:
    """(w, n / b^w) for a nonzero n, with b^w the largest power of b that
    divides n: divides by b, b^2, b^4, ... while they divide, then strips
    the rest (below the first power that failed) with the same powers,
    largest first."""
    w = 0
    pows = [b]  # pows[j] = b^(2^j)
    while n % pows[-1] == 0:
        n //= pows[-1]
        w += 1 << (len(pows) - 1)
        pows.append(pows[-1] * pows[-1])
    for j in range(len(pows) - 2, -1, -1):
        if n % pows[j] == 0:
            n //= pows[j]
            w += 1 << j
    return w, n


class Ord(NamedTuple):
    """A valuation exponent t in QQ, or +infinity; |x| = p^(-t).

    Total order with +infinity as the maximum.  Addition and integer
    scaling follow valuation arithmetic (infinity is absorbing).
    """

    v: Fraction | None  # None encodes +infinity

    @staticmethod
    def of(value) -> "Ord":
        return Ord(Fraction(value))

    @property
    def is_inf(self) -> bool:
        return self.v is None

    @property
    def frac(self) -> Fraction:
        if self.v is None:
            raise ValueError("infinite Ord has no finite value")
        return self.v

    def __add__(self, other) -> "Ord":
        o = other if isinstance(other, Ord) else Ord.of(other)
        if self.v is None or o.v is None:
            return ORD_INF
        return Ord(self.v + o.v)

    def __mul__(self, k) -> "Ord":
        k = Fraction(k)
        if self.v is None:
            if k <= 0:
                raise ValueError("cannot scale infinite Ord by a nonpositive factor")
            return ORD_INF
        return Ord(self.v * k)

    def _key(self, other):
        o = other if isinstance(other, Ord) else Ord.of(other)
        return self.v, o.v

    def __lt__(self, other) -> bool:
        a, b = self._key(other)
        if a is None:
            return False
        if b is None:
            return True
        return a < b

    def __le__(self, other) -> bool:
        return self == other or self < other

    def __gt__(self, other) -> bool:
        o = other if isinstance(other, Ord) else Ord.of(other)
        return o < self

    def __ge__(self, other) -> bool:
        return self == other or self > other

    def __eq__(self, other) -> bool:
        if isinstance(other, Ord):
            return self.v == other.v
        if isinstance(other, (int, Fraction)):
            return self.v == Fraction(other)
        return NotImplemented

    def __ne__(self, other) -> bool:
        # tuple's own != would compare Ord(3) and 3 as unequal tuples
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(self.v)

    def __str__(self) -> str:
        return "inf" if self.v is None else format_fraction(self.v)

    def __repr__(self) -> str:
        return f"Ord({self})"


ORD_INF = Ord(None)


# ---------------------------------------------------------------------------
# rational string forms ("num/den", denominator omitted when 1)
# ---------------------------------------------------------------------------


# the one accepted rational form: an integer, or "num/den"; no decimal
# point and no exponent, so that a short string cannot stand for 10^(10^9)
_RATIONAL = re.compile(r"\s*[+-]?\d+(/\d+)?\s*", re.ASCII)
_DIGITS = re.compile(r"\d+", re.ASCII)
# an integer: a JSON number of a map file, or an integer option
_INTEGER = re.compile(r"\s*[+-]?\d+\s*", re.ASCII)
# the most digits an integer, a numerator or a denominator may have:
# CPython's default cap on converting a string to an int, checked here, so
# that every Python gives the same answer
_MAX_DIGITS = 4300


# characters that a terminal or ``str.splitlines`` may take as a line break
# or a control sequence
_CONTROL = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029]")


def _clip(text: str) -> str:
    """Echoed input, cut to its first 40 characters, with each control
    character escaped as ``repr`` writes it, so a message stays one line."""
    text = text if len(text) <= 40 else text[:40] + "..."
    return _CONTROL.sub(lambda c: repr(c[0])[1:-1], text)


def parse_fraction(s: str) -> Fraction:
    if not isinstance(s, str):
        raise ParseError(f"bad rational {_clip(repr(s))}: expected a string such as \"-3/4\"")
    if not _RATIONAL.fullmatch(s):
        raise ParseError(f"bad rational {_clip(repr(s))}: expected an integer or \"num/den\"")
    if max(map(len, _DIGITS.findall(s))) > _MAX_DIGITS:
        raise ResourceLimitError(
            f"a rational's numerator or denominator has more than {_MAX_DIGITS} digits"
        )
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad rational {_clip(repr(s))}: {_clip(str(e))}") from None


def parse_int(s: str) -> int:
    """A decimal integer of at most ``_MAX_DIGITS`` digits, the cap checked
    before conversion as for rationals."""
    if not _INTEGER.fullmatch(s):
        raise ParseError(f"invalid int value: {_clip(repr(s))}")
    if len(_DIGITS.search(s)[0]) > _MAX_DIGITS:
        raise ResourceLimitError(f"an integer has more than {_MAX_DIGITS} digits")
    return int(s)


def format_fraction(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# symbolic sums of p-powers
# ---------------------------------------------------------------------------


class PPowerSum(NamedTuple):
    """Normal-form finite sum of positive p-power terms.

    ``terms`` is a tuple of (coefficient, exponent) pairs meaning
    sum c * p^e, with every coefficient a positive p-unit rational,
    exponents pairwise inequivalent mod ZZ, sorted descending.  The empty
    sum is the value 0.  Build through :func:`ppow_normalize`.
    """

    terms: tuple[tuple[Fraction, Fraction], ...]

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"{format_fraction(c)}*p^{format_fraction(e)}" for c, e in self.terms
        )

    def __repr__(self) -> str:
        return f"PPowerSum({self})"


PPOW_ZERO = PPowerSum(())


def ppow_normalize(p: int, terms) -> PPowerSum:
    """Merge raw (coefficient, exponent) terms into normal form.

    Terms whose exponents differ by integers are commensurable and are
    summed exactly; cancellation to zero drops the class, while a negative
    net value is rejected (all quantities in scope are non-negative).
    Residual p-valuation of a coefficient is folded into the exponent so
    every surviving coefficient is a p-unit.  A class with one term (the
    common case) is not summed.
    """
    groups: dict[Fraction, list[tuple[Fraction, Fraction]]] = {}
    for coef, exp in terms:
        coef, exp = Fraction(coef), Fraction(exp)
        if coef == 0:
            continue
        cls = exp - floor(exp)
        groups.setdefault(cls, []).append((coef, exp))
    out = []
    for cls, items in groups.items():
        if len(items) == 1:
            (total, base), = items
        else:
            base = min(e for _, e in items)
            total = Fraction(0)
            for coef, exp in items:
                total += coef * Fraction(p) ** int(exp - base)
            if total == 0:
                continue
        out.append(_unit_term(p, total, base))
    out.sort(key=lambda t: t[1], reverse=True)
    return PPowerSum(tuple(out))


def _unit_term(p: int, total: Fraction, base: Fraction) -> tuple[Fraction, Fraction]:
    """The term total * p^base as (p-unit, exponent) for a nonzero total:
    the p-part of its numerator or of its denominator (they are coprime)
    is divided out as an int power and moved into the exponent."""
    if total < 0:
        raise ValueError("non-positive term")
    num, den = total.numerator, total.denominator
    v = int_val(num, p)
    if v:
        return Fraction(num // p**v, den), base + v
    v = int_val(den, p)
    if v:
        return Fraction(num, den // p**v), base - v
    return total, base


def ppow_term(p: int, coef, exp) -> PPowerSum:
    """The one-term sum coef * p^exp in normal form, as
    ``ppow_normalize(p, [(coef, exp)])``."""
    coef = Fraction(coef)
    if coef == 0:
        return PPOW_ZERO
    return PPowerSum((_unit_term(p, coef, Fraction(exp)),))


def ppow_mul(p: int, a: PPowerSum, b: PPowerSum) -> PPowerSum:
    raw = [(ca * cb, ea + eb) for ca, ea in a.terms for cb, eb in b.terms]
    return ppow_normalize(p, raw)


def ppow_compare(p: int, a: PPowerSum, b: PPowerSum) -> int:
    """Exact comparison of values: -1, 0 or +1.

    Equal values have identical normal forms.  A strict difference is
    decided by the exponent gap of two one-term sums (:func:`_gap_sign`),
    in integers when every exponent is one, else by the enclosures that
    :func:`ppow_decimal` rounds, widened until disjoint.  That terminates:
    unequal normal forms differ by a nonzero element of Q(p^(1/m)), m the
    lcm of the exponent denominators, and the enclosure width goes to 0 as
    the precision grows.  ``_MAX_DECIMAL_PREC`` is a resource limit that
    raises ``ResourceLimitError``, never a guess.
    """
    if a.terms == b.terms:
        return 0
    if len(a.terms) == 1 == len(b.terms):
        sign = _gap_sign(p, a.terms[0], b.terms[0])
        if sign:
            return sign
    terms = a.terms + b.terms
    if all(e.denominator == 1 for _, e in terms):
        # both sides times den * p^(-base) are integers
        base = min(e.numerator for _, e in terms)
        den = lcm(*[c.denominator for c, _ in terms])
        va, vb = (
            sum(c.numerator * (den // c.denominator) * p ** (e.numerator - base)
                for c, e in s.terms)
            for s in (a, b)
        )
        return -1 if va < vb else 1

    def disjoint(enc_a, enc_b):
        return -1 if enc_a[1] < enc_b[0] else 1 if enc_b[1] < enc_a[0] else None

    # 4 digits separate almost every pair at once, at half the cost of 12
    return _widen(p, (a, b), 4, disjoint)


def _gap_sign(p: int, a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]) -> int:
    """Sign of c_a p^(e_a) - c_b p^(e_b), positive rationals c_a and c_b,
    when the exponent gap alone decides it; else 0.

    |log2(c_a / c_b)| is below the total bit length L of the four
    numerators and denominators, and log2 p >= bitlen(p) - 1, so the gap
    decides once |e_b - e_a| (bitlen(p) - 1) > L.
    """
    (ca, ea), (cb, eb) = a, b
    bits = (ca.numerator.bit_length() + ca.denominator.bit_length()
            + cb.numerator.bit_length() + cb.denominator.bit_length())
    # e_b - e_a = gap / (den e_a * den e_b), kept in integers
    gap = eb.numerator * ea.denominator - ea.numerator * eb.denominator
    if abs(gap) * (p.bit_length() - 1) > bits * ea.denominator * eb.denominator:
        return -1 if gap > 0 else 1
    return 0


def ppow_max(p: int, *sums: PPowerSum) -> PPowerSum:
    best = sums[0]
    for s in sums[1:]:
        if ppow_compare(p, s, best) > 0:
            best = s
    return best


# working-precision cap, in digits, of the enclosures behind ppow_compare
# and ppow_decimal: a resource limit, reached only by values that agree to
# thousands of digits or lie that close to a rounding boundary
_MAX_DECIMAL_PREC = 20_000


def ppow_decimal(p: int, s: PPowerSum, digits: int = 12) -> str:
    """Decimal rendering to ``digits`` significant figures, rounded half
    to even (display only).

    A sum with integer exponents is a rational and is rounded once.  Any
    other sum is irrational (the normal form is unique), so it lies on no
    rounding boundary, and its enclosure is widened until both ends round
    alike.
    """
    if s.is_zero:
        return "0"
    out = Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN)
    if all(e.denominator == 1 for _, e in s.terms):
        val = sum(c * Fraction(p) ** int(e) for c, e in s.terms)
        return str(out.divide(Decimal(val.numerator), Decimal(val.denominator)))

    def rounded_alike(enc):
        low, high = (str(out.plus(x)) for x in enc)
        return low if low == high else None

    return _widen(p, (s,), digits, rounded_alike)


def _widen(p: int, sums, digits: int, settle):
    """``settle(*enclosures)`` of the sums at the first working precision
    where it is not None.

    Each term c * p^e is enclosed through the correctly rounded
    ``Decimal.ln`` and ``Decimal.exp``, each widened by one unit in the
    last place.  |e ln p| < |e| * bitlen(p), so the precision starts at
    ``digits`` plus 8 plus the digits of that bound, which keeps the error
    of e ln p (a relative error after exp) below the last digit; it then
    doubles.  The digits carried grow with the logarithm of the exponents,
    and not at all with their denominators.
    """
    scale = max(int(abs(e) * p.bit_length()) for s in sums for _, e in s.terms)
    prec = digits + 8 + len(str(scale))
    while prec <= _MAX_DECIMAL_PREC:
        got = settle(*_decimal_enclosures(p, sums, prec))
        if got is not None:
            return got
        prec *= 2
    raise ResourceLimitError(
        f"p-power sum enclosure reached the working-precision cap "
        f"_MAX_DECIMAL_PREC = {_MAX_DECIMAL_PREC} digits"
    )


def _decimal_enclosures(p: int, sums, prec: int) -> list[tuple[Decimal, Decimal]]:
    """Decimals lo <= s <= hi for each sum s, from ``prec``-digit
    arithmetic rounded toward the side each bound needs."""
    near = Context(prec=prec, Emax=MAX_EMAX, Emin=MIN_EMIN)
    down = Context(prec=prec, rounding=ROUND_FLOOR, Emax=MAX_EMAX, Emin=MIN_EMIN)
    up = Context(prec=prec, rounding=ROUND_CEILING, Emax=MAX_EMAX, Emin=MIN_EMIN)
    ln_p = near.ln(Decimal(p))
    ln_lo, ln_hi = near.next_minus(ln_p), near.next_plus(ln_p)
    out = []
    for s in sums:
        lo = hi = Decimal(0)
        for c, e in s.terms:
            a, b = Decimal(e.numerator), Decimal(e.denominator)
            l_lo, l_hi = (ln_lo, ln_hi) if e > 0 else (ln_hi, ln_lo)
            y_lo = down.divide(down.multiply(a, l_lo), b)
            y_hi = up.divide(up.multiply(a, l_hi), b)
            x_lo = near.next_minus(near.exp(y_lo))
            x_hi = near.next_plus(near.exp(y_hi))
            n, d = Decimal(c.numerator), Decimal(c.denominator)
            lo = down.add(lo, down.divide(down.multiply(n, x_lo), d))
            hi = up.add(hi, up.divide(up.multiply(n, x_hi), d))
        out.append((lo, hi))
    return out
