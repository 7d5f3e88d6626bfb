"""Dense univariate polynomial kernels.

Coefficient lists are ascending: c[i] is the coefficient of z^i.  The
kernels work on integers: ``hom_eval`` evaluates a form,
``taylor_shift`` shifts a map's integer pair one final coefficient at a
time (``berk._Passes`` reads it, for the pushforward only until no later
coefficient can change its answer, for the radial profile whole), and
the resultant valuation eliminates over Z/p^N on the d x d Bezout matrix
of the two forms, whose determinant is the resultant up to sign.  It
runs once per map built from coefficients or from zeros and poles, where
it is the coprimality test (two forms share a root in P1 exactly when
that determinant vanishes) and its value is kept as the map's ``res``; a
composition with a Möbius map carries that value by an identity (see
``ratmap.pre_compose`` and ``ratmap.post_compose``) and runs none.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterator

from .valued import int_val

Poly = list  # ascending coefficients, Fraction or int


def trim(c: Poly) -> Poly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def hom_eval(c: list[int], u: int, v: int) -> int:
    """v^d * c(u/v), d = len(c) - 1, by Horner's rule in integers; (1, 0)
    gives the leading coefficient, the value at infinity."""
    acc, vpow = 0, 1
    for x in reversed(c):
        acc = acc * u + x * vpow
        vpow *= v
    return acc


def taylor_shift(c: Poly, a) -> Iterator:
    """Coefficients of f(z + a) in index order, by iterated synthetic
    division: pass i adds a times each coefficient above i to the one
    below it, from the top down to i, and no later pass touches index i,
    so coefficient i is final after pass i and is yielded then.  Reading
    the first J coefficients costs J passes, about J*len(c) steps, where
    the whole shift costs len(c)^2 / 2.  Integer coefficients and an
    integer a stay integers."""
    out = list(c)
    if not a:
        yield from out
        return
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += a * out[j + 1]
        yield out[i]
    yield from out[n - 1 :]


def _integral_form(p: int, c: Poly) -> tuple[list[int], int] | None:
    """Integer coefficients proportional to ``c`` with no common factor p,
    and ord_p of the ratio ``c`` / those integers; None for a zero form."""
    den = lcm(*[x.denominator for x in c])
    ints = [x.numerator * (den // x.denominator) for x in c]
    content = gcd(*ints)
    if content == 0:
        return None
    k = int_val(content, p)
    if k:
        pk = p**k
        ints = [x // pk for x in ints]
    return ints, k - int_val(den, p)


def _precision_cap(p: int, rows: list[list[int]]) -> int:
    """An N with p^N above Hadamard's bound on |det| of the integer matrix
    ``rows``, so a nonzero determinant has ord_p below N.

    |det|^2 <= prod ||row||^2 < 2^bits with bits the sum of the bit
    lengths of the squared row norms, and log2 p is bounded below by
    (bitlen(p^16) - 1) / 16, all in integers.
    """
    bits = sum(sum(x * x for x in row).bit_length() for row in rows)
    return -(-bits * 16 // (2 * ((p**16).bit_length() - 1)))


def _bezout_rows(fi: list[int], gi: list[int]) -> list[list[int]]:
    """The d x d Bezout matrix of two ascending coefficient lists of
    length d+1: B[0][j] = c(j+1, 0) and B[i][j] = c(j+1, i) + B[i-1][j+1]
    (B[i-1][d] = 0), with c(a, b) = F_a G_b - F_b G_a.

    These are the coefficients of (F(x)G(y) - F(y)G(x)) / (x - y) =
    sum B[i][j] x^i y^j: the numerator is the sum over a > b of c(a, b)
    (x^a y^b - x^b y^a), and (x^a y^b - x^b y^a) / (x - y) is the sum of
    x^(b+k) y^(a-1-k) for 0 <= k < a - b.  Unrolled, the recurrence sums
    c(j+1+k, i-k) over every k with both indices in range; the terms with
    j+1+k <= i-k cancel in pairs (k and i-j-1-k), since c(a, b) = -c(b, a)
    and c(a, a) = 0.
    """
    d = len(fi) - 1
    rows = [[fi[j + 1] * gi[0] - fi[0] * gi[j + 1] for j in range(d)]]
    for i in range(1, d):
        prev, fii, gii = rows[-1], fi[i], gi[i]
        rows.append(
            [fi[j + 1] * gii - fii * gi[j + 1] + prev[j + 1] for j in range(d - 1)]
            + [fi[d] * gii - fii * gi[d]]
        )
    return rows


def _unit_position(m: list[list[int]], p: int) -> tuple[int, int] | None:
    for r, row in enumerate(m):
        for c, x in enumerate(row):
            if x % p:
                return r, c
    return None


def _pivot_ord_sum(rows: list[list[int]], p: int, prec: int) -> int | None:
    """ord_p det of an integer matrix by elimination over Z/p^prec.

    Each step pivots on a unit of the remaining block.  When it has none,
    its p-content g is divided out first, adding ord g for every remaining
    row and leaving the block known mod p^prec / g.  Every step is
    unimodular over Z_p, and an entry known mod p^N minus a multiple of a
    pivot row is still known mod p^N, so the sum is exact.  Returns None
    when a remaining block vanishes mod the working modulus, which means
    ord_p det >= prec.
    """
    q = p**prec
    m = [[x % q for x in row] for row in rows]
    total = 0
    while m:
        pivot = _unit_position(m, p)
        if pivot is None:
            g = gcd(q, *[gcd(*row) for row in m])
            if g == q:
                return None
            total += int_val(g, p) * len(m)
            q //= g
            m = [[x // g for x in row] for row in m]
            continue
        r, c = pivot
        prow = m.pop(r)
        inv = pow(prow.pop(c), -1, q)
        prow = [x * inv % q for x in prow]
        for i, row in enumerate(m):
            t = row.pop(c)
            if t:
                m[i] = [(x - t * y) % q for x, y in zip(row, prow)]
    return total


def sylvester_det_ord(p: int, f: Poly, g: Poly, d: int) -> int | None:
    """ord_p of the resultant Res_(d,d) of degree-d forms, the 2d x 2d
    Sylvester determinant, taken from the d x d Bezout matrix.

    ``f`` and ``g`` are ascending dehomogenized coefficient lists padded to
    length d+1 (index i holds the X^i Y^(d-i) coefficient).  Each is
    scaled to coprime integers, which rescales the resultant by a known
    p-power tracked in the result.  For two forms of formal degree d,
    det Bez_d(F, G) = (-1)^(d(d-1)/2) Res_(d,d)(F, G) (Gelfand, Kapranov
    and Zelevinsky, *Discriminants, Resultants and Multidimensional
    Determinants*, ch. 12).  Both sides are polynomials in the 2d+2
    coefficients, so the identity holds at every specialization, a zero
    leading coefficient (infinity a zero or a pole) included, and the
    two determinants have the same valuation.  The rest is exact p-adic
    elimination on the Bezout rows, starting at a small precision and
    doubling it while a remaining block vanishes.  Returns None for a
    vanishing resultant, which happens exactly when the forms share a
    root in P1, infinity included; that is decided once the precision
    reaches Hadamard's bound on the Bezout rows (``_precision_cap``).
    """
    fc = list(f) + [0] * (d + 1 - len(f))
    gc = list(g) + [0] * (d + 1 - len(g))
    fa, ga = _integral_form(p, fc), _integral_form(p, gc)
    if fa is None or ga is None:
        return None
    (fi, kf), (gi, kg) = fa, ga
    rows = _bezout_rows(fi, gi)
    # max(16, 2d) digits of p suffice for most maps; p^prec is capped at
    # 4 bits per digit, so a large p starts at a modulus of the same size
    # as a small one, and every p < 16 (at most 4 bits) keeps all digits
    digits = max(16, 2 * d)
    prec, cap = max(1, min(digits, 4 * digits // p.bit_length())), None
    while (total := _pivot_ord_sum(rows, p, prec)) is None:
        if cap is None:
            cap = _precision_cap(p, rows)
        if prec >= cap:
            return None
        prec = min(2 * prec, cap)
    return total + d * (kf + kg)
