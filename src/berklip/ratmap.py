"""Rational maps on P1(QQ) as homogeneous coefficient pairs.

A degree-d map is a coprime pair (f, g) of degree-d forms; coefficients
are stored ascending, list index i holding the X^i Y^(d-i) coefficient,
so the dehomogenized numerator is f(z) = sum f[i] z^i.  Maps are kept in
normalized form, p-integral with at least one p-unit coefficient, as one
integer pair: f = F / D and g = G / D with D the least common
denominator, prime to p, so each coefficient ord is its numerator's.
Every reader takes the integers; ``f`` and ``g`` are views.  Each map
carries ord_p of its resultant.  A map built from coefficients or from
zeros and poles takes it from one p-adic elimination on the Bezout
matrix, which is also the coprimality test; a composition with a Möbius
map carries its operand's value by the identities in ``pre_compose`` and
``post_compose`` and runs no elimination.  ``resultant_ord`` only reads
it.  An optional factored form (leading constant, zeros, poles over
P1(QQ) with multiplicity) unlocks the zero/pole-based invariants; it is
derived automatically for degree 1, where both points are always
rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, NamedTuple

from .errors import DegenerateMapError, FactoredFormRequiredError, InternalInvariantError, ParseError
from .polynomials import hom_eval, trim
from .projective import INF_POINT, ProjPoint, _num_den
from .valued import Ord, _clip, _frac, _ords, int_val, is_prime
from . import polynomials as poly

__all__ = [
    "FactoredForm",
    "RationalMap",
    "from_factored",
    "from_coeffs",
    "normalize",
    "resultant_ord",
    "resultant_ord_product",
    "gir_minors",
    "eval_proj",
    "pre_compose",
    "post_compose",
]


class FactoredForm(NamedTuple):
    """Projectively complete zero/pole data: C * prod(z - a) / prod(z - b).

    ``zeros`` and ``poles`` list (point, multiplicity) pairs whose
    multiplicities each sum to the degree; the point at infinity may
    appear on one side only.
    """

    c: Fraction
    zeros: tuple[tuple[ProjPoint, int], ...]
    poles: tuple[tuple[ProjPoint, int], ...]


class RationalMap(NamedTuple):
    """A normalized map.  Instances come from the constructors of this
    module (``from_coeffs``, ``from_factored``, ``pre_compose`` and
    ``post_compose``), each of which builds the integer pair and
    normalizes once, so no reader does either again.  ``res_ord`` is
    ord_p of the resultant of (f, g), and of (F, G) since ord_p D = 0:
    ``from_coeffs`` and ``from_factored`` take it from the one resultant
    elimination (on the d x d Bezout matrix), and the two compositions
    from their operand's by an identity, with no elimination."""

    p: int
    d: int
    F: tuple[int, ...]  # ascending, length d+1
    G: tuple[int, ...]
    D: int
    res_ord: int
    factored: FactoredForm | None = None

    @property
    def f(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.D) for x in self.F)

    @property
    def g(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.D) for x in self.G)

    def require_factored(self) -> FactoredForm:
        if self.factored is None:
            raise FactoredFormRequiredError("factored form required")
        return self.factored


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _cleared(xs: list[Fraction]) -> tuple[int, list[int]]:
    """(D, D * xs), D the least common denominator of the rationals xs."""
    D = lcm(*[x.denominator for x in xs])
    return D, [x.numerator * (D // x.denominator) for x in xs]


def _times_linear(h: list[int], y: int, x: int) -> list[int]:
    """A form of degree k, ascending, times the linear form xX + yY."""
    return [y * u + x * v for u, v in zip(h + [0], [0] + h)]


def _eliminated_res(p: int, d: int, F: list[int], G: list[int]) -> int:
    """ord_p Res(F, G) of a raw integer pair of degree-d forms, from the
    resultant elimination, which runs here once per map built from
    coefficients or from zeros and poles.  It is also the coprimality
    test: it rejects a pair whose forms share a root in P1, infinity
    included (exactly the pairs whose determinant vanishes, an all-zero
    form among them).  A pair of degree zero is rejected first."""
    if d < 1:
        raise DegenerateMapError("degree zero")
    res = poly.sylvester_det_ord(p, F, G, d)
    if res is None:
        raise DegenerateMapError("degenerate map")
    return res


def _build(p: int, d: int, F: list[int], G: list[int], D: int, res: int, factored=None) -> RationalMap:
    """The normalized map of the coprime raw pair (F / D, G / D), D > 0,
    given res = ord_p Res(F, G) of its integer numerators.

    The caller computes res: ``from_coeffs`` and ``from_factored`` by
    ``_eliminated_res``, the compositions by their identities.  Res is
    homogeneous of degree d in each form, so Res(F / D, G / D) =
    D^(-2d) Res(F, G) and the map keeps res - 2d ord D.  Dividing D and
    every numerator by their common factor then makes D least; it leaves
    the quotients F / D and G / D, so this value, unchanged.  A degree-1
    map without zero/pole data gets the data of its coefficients.
    """
    res -= 2 * d * int_val(D, p)
    if factored is None and d == 1:
        factored = _mobius_factored(F, G)
    c = gcd(D, *F, *G)
    if c > 1:
        F, G, D = [x // c for x in F], [x // c for x in G], D // c
    return normalize(RationalMap(p, d, tuple(F), tuple(G), D, res, factored))


def normalize(m: RationalMap) -> RationalMap:
    """Rescale both forms by a p-power so min coefficient ord is 0.

    With D least, at most one of k = min ord (F, G) and e = ord D is
    positive; the factor p^(e - k) divides F, G by p^k and D by p^e, and D
    stays least.  Scaling both forms by c scales their 2d x 2d Sylvester
    determinant by c^(2d), so ``res_ord`` moves by -2d(k - e).
    """
    p = m.p
    k = min(int_val(x, p) for x in m.F + m.G if x)
    e = int_val(m.D, p)
    if k == e == 0:
        return m
    pk = p**k
    F, G = (tuple(x // pk for x in h) for h in (m.F, m.G))
    return RationalMap(p, m.d, F, G, m.D // p**e, m.res_ord - 2 * m.d * (k - e), m.factored)


def _mobius_factored(F, G) -> FactoredForm:
    """Zero/pole data of a degree-1 map, always rational; unchanged by a
    common rescaling of (F, G)."""
    (a0, a1), (b0, b1) = F, G
    zero = ProjPoint.of(Fraction(-a0, a1)) if a1 else INF_POINT
    pole = ProjPoint.of(Fraction(-b0, b1)) if b1 else INF_POINT
    c = Fraction(a1, b1) if a1 and b1 else Fraction(a1, b0) if a1 else Fraction(a0, b1)
    return FactoredForm(c, ((zero, 1),), ((pole, 1),))


def _check_prime(p) -> None:
    """Raise ``ParseError`` unless p is an int that ``is_prime`` accepts."""
    if not isinstance(p, int):
        raise ParseError("p must be an integer")
    try:
        prime = is_prime(p)
    except ValueError as e:
        raise ParseError(str(e)) from None
    if not prime:
        raise ParseError(f"{_clip(str(p))} is not prime")


def _rational(x, what: str = "a coefficient or constant") -> Fraction:
    """x as a ``Fraction``; a float or a bool is refused, never expanded:
    the check at each public entry point that takes a rational."""
    if isinstance(x, (float, bool)):
        raise ParseError(f"{what} must be rational, not {type(x).__name__}")
    return _frac(x)


def from_coeffs(p: int, f_coeffs, g_coeffs) -> RationalMap:
    """A map over a prime p from two ascending coefficient lists of length d+1."""
    _check_prime(p)
    f = [_rational(c) for c in f_coeffs]
    g = [_rational(c) for c in g_coeffs]
    if len(f) != len(g):
        raise DegenerateMapError("coefficient lists must have equal length")
    D, ints = _cleared(f + g)
    d, F, G = len(f) - 1, ints[: len(f)], ints[len(f):]
    return _build(p, d, F, G, D, _eliminated_res(p, d, F, G))


def from_factored(p: int, c, zeros, poles) -> RationalMap:
    """Expand zero/pole data into a normalized homogeneous pair.

    ``zeros`` and ``poles`` are (ProjPoint, multiplicity) pairs, each
    multiplicity an ``int`` of at least 1 (a bool, float, string or
    ``Fraction`` is rejected, never rounded); a missing balance of
    multiplicity is assigned to infinity.  A point shared
    between the two lists is rejected.  Each side is expanded in integers:
    with every finite root a/b in lowest terms, prod(z - a/b) =
    prod(b z - a) / prod b, so with c = n / q the pair is (n B_p P_z,
    q B_z P_p) over q B_z B_p, P the integer products and B their scales.
    p must be prime (``_check_prime``), and c is refused as a float.
    """
    _check_prime(p)
    c = _rational(c)
    if c == 0:
        raise DegenerateMapError("degenerate map")

    def _merge(items):
        fin: dict[Fraction, int] = {}
        inf_mult = 0
        for pt, mult in items:
            if type(mult) is not int:
                raise DegenerateMapError("multiplicities must be integers")
            if mult < 1:
                raise DegenerateMapError("multiplicities must be positive")
            if pt.is_inf:
                inf_mult += mult
            else:
                fin[pt.z] = fin.get(pt.z, 0) + mult
        return fin, inf_mult

    zf, z_inf = _merge(zeros)
    pf, p_inf = _merge(poles)
    if set(zf) & set(pf):
        raise DegenerateMapError("degenerate map")
    n_total = sum(zf.values()) + z_inf
    m_total = sum(pf.values()) + p_inf
    d = max(n_total, m_total)
    if n_total < d:
        z_inf += d - n_total
    if m_total < d:
        p_inf += d - m_total
    if z_inf > 0 and p_inf > 0:
        raise DegenerateMapError("degenerate map")

    def _expand(fin: dict) -> tuple[list[int], int]:
        out, den = [1], 1
        for root, mult in fin.items():
            a, b = root.numerator, root.denominator
            den *= b**mult
            for _ in range(mult):
                out = _times_linear(out, -a, b)
        return out + [0] * (d + 1 - len(out)), den

    (pz, bz), (pp, bp) = _expand(zf), _expand(pf)
    F = [c.numerator * bp * x for x in pz]
    G = [c.denominator * bz * x for x in pp]
    D = c.denominator * bz * bp

    def _pairs(fin: dict, inf_mult: int):
        out = [(ProjPoint.of(z), m) for z, m in fin.items()]
        if inf_mult:
            out.append((INF_POINT, inf_mult))
        return tuple(out)

    ff = FactoredForm(c, _pairs(zf, z_inf), _pairs(pf, p_inf))
    return _build(p, d, F, G, D, _eliminated_res(p, d, F, G), ff)


# ---------------------------------------------------------------------------
# invariants computable from coefficients
# ---------------------------------------------------------------------------


def resultant_ord(m: RationalMap) -> Ord:
    """ord_p of the resultant of the normalized pair, as its constructor
    computed it."""
    return Ord.of(m.res_ord)


def _zero_pole_ords(p: int, ff: FactoredForm) -> Iterator[tuple[int, int]]:
    """(j*k, s) for each zero/pole pair, j and k their multiplicities and
    s the exponent of their spherical distance: the product formula's
    kernel (rp reads them off the zero/pole tree).  With each point read
    as its coprime pair (num, den), (1, 0) for infinity, both gcds of
    ``projective._sph_pair_ord`` are 1 and s = ord(u_n v_d - v_n u_d).
    """
    poles = [(*_num_den(beta), k) for beta, k in ff.poles]
    for alpha, j in ff.zeros:
        un, ud = _num_den(alpha)
        for vn, vd, k in poles:
            det = un * vd - vn * ud
            if not det:
                raise InternalInvariantError("a zero is also a pole")
            yield j * k, int_val(det, p)


def resultant_ord_product(m: RationalMap) -> Ord:
    """Resultant valuation from the factorization: d*(ord C0 + ord C1) plus
    the sum of spherical distances over all zero/pole pairs, each counted
    with the product of its multiplicities (``_zero_pole_ords``).

    C0 and C1 are the contents of the two forms, of ord that of F and G
    since ord D = 0.
    """
    ff = m.require_factored()
    p = m.p
    total = m.d * sum(min(o for o in _ords(p, form) if o is not None) for form in (m.F, m.G))
    return Ord.of(total + sum(jk * s for jk, s in _zero_pole_ords(p, ff)))


def gir_minors(m: RationalMap) -> Ord:
    """Gauss image radius from 2x2 coefficient minors: the image of the
    Gauss point has diameter max_{i != j} |f_i g_j - f_j g_i|, the least
    ord of the minors m(j, l) = F_j G_l - F_l G_j, the second determinantal
    divisor of the 2 x (d + 1) matrix (F; G).  The minors of (F, G) have
    the same ords, as ord D = 0.

    Pivot scan: with i the index of F's least-ord nonzero coefficient, the
    least ord is that of the d minors m(i, j) in column i, so d + 1
    valuations find i and at most d more decide them.  Proof: expanding
    the 3 x 3 determinant with rows (F; F; G) along its first row,
    F_i m(j, l) = F_j m(i, l) - F_l m(i, j).  As ord F_j and ord F_l are
    at least ord F_i, ord m(j, l) >= min(ord m(i, l), ord m(i, j)), a zero
    minor counting as ord infinity.  When every minor in column i is 0 so
    is every other, and F and G are proportional.
    """
    p, F, G = m.p, m.F, m.G
    i = min((int_val(x, p), j) for j, x in enumerate(F) if x)[1]
    fi, gi = F[i], G[i]
    ords = [int_val(det, p) for fj, gj in zip(F, G) if (det := fi * gj - fj * gi)]
    if not ords:
        raise DegenerateMapError("degenerate map")
    return Ord.of(min(ords))


def eval_proj(m: RationalMap, pt: ProjPoint) -> ProjPoint:
    """Evaluate the map at a classical point (exact, infinity-aware)."""
    u, v = (1, 0) if pt.is_inf else (pt.z.numerator, pt.z.denominator)
    den = hom_eval(m.G, u, v)
    return ProjPoint.of(Fraction(hom_eval(m.F, u, v), den)) if den else INF_POINT


# ---------------------------------------------------------------------------
# composition with linear fractional transformations
# ---------------------------------------------------------------------------

Matrix2 = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]


def _mat(entries) -> Matrix2:
    (a, b), (c, d) = entries
    w = "a matrix entry"
    mat = ((_rational(a, w), _rational(b, w)), (_rational(c, w), _rational(d, w)))
    if mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0] == 0:
        raise DegenerateMapError("singular matrix")
    return mat


def mobius_apply(entries, pt: ProjPoint) -> ProjPoint:
    """Action of a matrix on a classical point: z -> (az+b)/(cz+d)."""
    ((a, b), (c, d)) = _mat(entries)
    if pt.is_inf:
        return ProjPoint.of(a / c) if c != 0 else INF_POINT
    num = a * pt.z + b
    den = c * pt.z + d
    if den == 0:
        return INF_POINT
    return ProjPoint.of(num / den)


def pre_compose(m: RationalMap, entries) -> RationalMap:
    """The map z -> phi(gamma(z)); zero/pole data transports by gamma^(-1).

    With lam gamma = ((a, b), (c, e)) integral, the forms become
    sum F_i T^i B^(d-i), T = aX + bY and B = cX + eY, over D lam^d: by
    Horner's rule in T, with the powers of B shared by both forms.

    The resultant needs no elimination: for M = ((a, b), (c, e)),
    Res(F o M, G o M) = (ae - bc)^(d^2) Res(F, G).  Over an algebraic
    closure both forms split into linear forms, F = prod_i L_i and
    G = prod_j L'_j, a zero leading coefficient giving the factor Y, and
    Res(F, G) = +-prod_(i,j) det(L_i, L'_j), the 2x2 determinant of the
    two coefficient rows (Cox, Little and O'Shea, *Using Algebraic
    Geometry*, ch. 3).  L o M has the coefficient row of L times M, so
    each of the d^2 determinants gains the factor det M = ae - bc, and
    the sign does not change ord_p.  As det M != 0 (``_mat`` rejects a
    singular matrix), the composite's resultant vanishes exactly when
    Res(F, G) does, and Res(F, G) != 0 because m is a map: the pair
    stays coprime.  With ord_p Res(F, G) = m.res_ord + 2d ord m.D, the
    raw pair has ord_p Res = d^2 ord(ae - bc) + m.res_ord + 2d ord m.D,
    and ``_build`` takes off 2d ord(D lam^d) for its denominator.
    """
    lam, (a, b, c, e) = _cleared([x for row in _mat(entries) for x in row])
    n = m.d
    bpow = [[1]]
    for _ in range(n):
        bpow.append(_times_linear(bpow[-1], e, c))

    def subst(coeffs):
        acc = [coeffs[n]]
        for i in range(n - 1, -1, -1):
            acc = _times_linear(acc, b, a)
            if coeffs[i]:
                acc = [u + coeffs[i] * v for u, v in zip(acc, bpow[n - i])]
        return acc

    F2, G2 = subst(m.F), subst(m.G)
    ff = None
    if m.factored is not None:
        # gamma is invertible, so F2 and G2 are nonzero like F and G; its
        # adjugate, a multiple of the inverse, transports the points
        inv = ((e, -b), (-c, a))
        zeros, poles = (
            tuple((mobius_apply(inv, pt), k) for pt, k in side)
            for side in (m.factored.zeros, m.factored.poles)
        )
        ff = FactoredForm(Fraction(trim(F2)[-1], trim(G2)[-1]), zeros, poles)
    res = n * n * int_val(a * e - b * c, m.p) + m.res_ord + 2 * n * int_val(m.D, m.p)
    return _build(m.p, n, F2, G2, m.D * lam**n, res, ff)


def post_compose(entries, m: RationalMap) -> RationalMap:
    """The map z -> gamma(phi(z)); zeros and poles move off QQ in general,
    so no factored form is attached.

    With lam gamma = ((a, b), (c, e)) integral, the pair is (aF + bG,
    cF + eG) over D lam, and its resultant needs no elimination:
    Res(aF + bG, cF + eG) = (ae - bc)^d Res(F, G).  Each Sylvester row
    of aF + bG is a times the matching row of F plus b times that of G,
    and likewise for cF + eG, so the new Sylvester matrix is the block
    matrix ((a I, b I), (c I, e I)) times the old, I of size d.  Its
    blocks commute, so its determinant is det((ae - bc) I) = (ae - bc)^d
    (Gelfand, Kapranov and Zelevinsky, ch. 12).  As ae - bc != 0
    (``_mat`` rejects a singular matrix) and Res(F, G) != 0, the pair
    stays coprime.  With ord_p Res(F, G) = m.res_ord + 2d ord m.D, the
    raw pair has ord_p Res = d ord(ae - bc) + m.res_ord + 2d ord m.D, and
    ``_build`` takes off 2d ord(D lam) for its denominator.
    """
    lam, (a, b, c, e) = _cleared([x for row in _mat(entries) for x in row])
    F2 = [a * x + b * y for x, y in zip(m.F, m.G)]
    G2 = [c * x + e * y for x, y in zip(m.F, m.G)]
    res = m.d * int_val(a * e - b * c, m.p) + m.res_ord + 2 * m.d * int_val(m.D, m.p)
    return _build(m.p, m.d, F2, G2, m.D * lam, res)
