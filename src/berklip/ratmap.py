"""Rational maps on P1(QQ) as homogeneous coefficient pairs.

A degree-d map is a coprime pair (F, G) of degree-d forms; coefficients
are stored ascending, list index i holding the X^i Y^(d-i) coefficient,
so the dehomogenized numerator is f(z) = sum f[i] z^i.  Maps are kept in
normalized form: integral coefficients with at least one p-unit among
them.  Each map carries ord_p of its resultant, taken from the one
p-adic elimination on the Bezout matrix its constructor runs, which is
also the coprimality test; ``resultant_ord`` only reads it.  An optional
factored form (leading constant, zeros, poles over P1(QQ) with
multiplicity) unlocks the zero/pole-based invariants; it is derived
automatically for degree 1, where both points are always rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .errors import DegenerateMapError, FactoredFormRequiredError
from .polynomials import mul, trim
from .projective import INF_POINT, ProjPoint, _num_den, _vord
from .valued import Ord, int_val
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
    ``post_compose``), each of which runs the resultant elimination (on
    the d x d Bezout matrix) once and normalizes once, so no reader does
    either again.  ``res_ord`` is ord_p of the resultant of the stored
    pair (f, g)."""

    p: int
    d: int
    f: tuple[Fraction, ...]  # ascending, length d+1
    g: tuple[Fraction, ...]
    res_ord: int
    factored: FactoredForm | None = None

    def require_factored(self) -> FactoredForm:
        if self.factored is None:
            raise FactoredFormRequiredError("factored form required")
        return self.factored


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _build(
    p: int, d: int, f: list, g: list, factored: FactoredForm | None = None
) -> RationalMap:
    """The normalized map of a raw pair, with its resultant valuation.

    The resultant elimination runs once, on the raw pair: it rejects a
    pair whose forms share a root in P1, infinity included (exactly the
    pairs whose determinant vanishes, an all-zero form among them), and
    its value is kept.  A degree-1 map without zero/pole data gets the
    data of its coefficients.
    """
    if d < 1:
        raise DegenerateMapError("degree zero")
    res = poly.sylvester_det_ord(p, f, g, d)
    if res is None:
        raise DegenerateMapError("degenerate map")
    if factored is None and d == 1:
        factored = _mobius_factored(f, g)
    return normalize(RationalMap(p, d, tuple(f), tuple(g), res, factored))


def _int_coeff_pair(m: RationalMap) -> tuple[list[int], list[int]]:
    """Clear denominators of (f, g) by one common factor, preserving the map."""
    scale_by = lcm(*[c.denominator for c in m.f + m.g])
    fi = [c.numerator * (scale_by // c.denominator) for c in m.f]
    gi = [c.numerator * (scale_by // c.denominator) for c in m.g]
    return fi, gi


def _scaled(coeffs, factor: Fraction):
    return tuple(c * factor for c in coeffs)


def normalize(m: RationalMap) -> RationalMap:
    """Rescale both forms by a p-power so min coefficient ord is 0.

    Scaling both forms by c scales their 2d x 2d Sylvester determinant by
    c^(2d), so the factor p^(-low) moves ``res_ord`` by -2d*low.
    """
    ords = [_vord(c, m.p) for c in m.f + m.g]
    low = min(v for v in ords if v is not None)
    if low == 0:
        return m
    factor = Fraction(m.p) ** -low
    return RationalMap(
        m.p, m.d, _scaled(m.f, factor), _scaled(m.g, factor),
        m.res_ord - 2 * m.d * low, m.factored,
    )


def _mobius_factored(f, g) -> FactoredForm:
    """Zero/pole data of a degree-1 map, always rational; unchanged by a
    common rescaling of (f, g)."""
    a1, a0 = f[1], f[0]
    b1, b0 = g[1], g[0]
    zero = ProjPoint.of(-a0 / a1) if a1 != 0 else INF_POINT
    pole = ProjPoint.of(-b0 / b1) if b1 != 0 else INF_POINT
    if a1 != 0 and b1 != 0:
        c = a1 / b1
    elif a1 != 0:
        c = a1 / b0
    else:
        c = a0 / b1
    return FactoredForm(c, ((zero, 1),), ((pole, 1),))


def from_coeffs(p: int, f_coeffs, g_coeffs) -> RationalMap:
    """Build a map from ascending coefficient lists of equal length d+1."""
    f = [Fraction(c) for c in f_coeffs]
    g = [Fraction(c) for c in g_coeffs]
    if len(f) != len(g):
        raise DegenerateMapError("coefficient lists must have equal length")
    return _build(p, len(f) - 1, f, g)


def from_factored(p: int, c, zeros, poles) -> RationalMap:
    """Expand zero/pole data into a normalized homogeneous pair.

    ``zeros`` and ``poles`` are (ProjPoint, multiplicity) pairs; a missing
    balance of multiplicity is assigned to infinity.  A point shared
    between the two lists is rejected.  Each side is expanded in integers:
    with every finite root a/b in lowest terms, lead * prod(z - a/b) =
    (lead / prod b) * prod(b z - a), and the ``Fraction``s are built once,
    from the integer product and that scale.
    """
    c = Fraction(c)
    if c == 0:
        raise DegenerateMapError("degenerate map")

    def _merge(items):
        fin: dict[Fraction, int] = {}
        inf_mult = 0
        for pt, mult in items:
            mult = int(mult)
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

    def _expand(fin: dict, lead: Fraction) -> list:
        out, den = [1], 1
        for root, mult in fin.items():
            a, b = root.numerator, root.denominator
            den *= b**mult
            for _ in range(mult):
                out = [b * x - a * y for x, y in zip([0] + out, out + [0])]
        scale = lead / den
        return [scale * x for x in out + [0] * (d + 1 - len(out))]

    f = _expand(zf, c)
    g = _expand(pf, Fraction(1))

    def _pairs(fin: dict, inf_mult: int):
        out = [(ProjPoint.of(z), m) for z, m in fin.items()]
        if inf_mult:
            out.append((INF_POINT, inf_mult))
        return tuple(out)

    return _build(p, d, f, g, FactoredForm(c, _pairs(zf, z_inf), _pairs(pf, p_inf)))


# ---------------------------------------------------------------------------
# invariants computable from coefficients
# ---------------------------------------------------------------------------


def resultant_ord(m: RationalMap) -> Ord:
    """ord_p of the resultant of the normalized pair, as its constructor
    computed it."""
    return Ord.of(m.res_ord)


def _content_ord(p: int, coeffs) -> int:
    vs = [_vord(c, p) for c in coeffs]
    return min(v for v in vs if v is not None)


def resultant_ord_product(m: RationalMap) -> Ord:
    """Resultant valuation from the factorization: d*(ord C0 + ord C1) plus
    the sum of spherical distances over all zero/pole pairs, each counted
    with the product of its multiplicities.

    Each point is read as its pair (num, den) of coprime integers, (1, 0)
    for infinity, so min(ord num, ord den) = 0 and the spherical distance
    of a pair is ord(u_n v_d - v_n u_d) (the proof is at
    ``invariants.rp_ord``): one valuation per distinct pair.
    """
    ff = m.require_factored()
    p = m.p
    total = m.d * (_content_ord(p, m.f) + _content_ord(p, m.g))
    poles = [(*_num_den(beta), k) for beta, k in ff.poles]
    for alpha, j in ff.zeros:
        un, ud = _num_den(alpha)
        for vn, vd, k in poles:
            det = un * vd - vn * ud
            if not det:
                raise DegenerateMapError("a zero is also a pole")
            total += j * k * int_val(det, p)
    return Ord.of(total)


def gir_minors(m: RationalMap) -> Ord:
    """Gauss image radius from 2x2 coefficient minors: the image of the
    Gauss point has diameter max_{i != j} |f_i g_j - f_j g_i|.

    The minors are formed on the integer pair (F, G) = D (f, g), so each
    is D^2 times the map's: ord(f_i g_j - f_j g_i) = ord(F_i G_j - F_j G_i)
    - 2 ord D, and ord D = ord F_k - ord f_k for any f_k != 0.
    """
    p = m.p
    f, g = _int_coeff_pair(m)
    best = None
    n = m.d + 1
    for i in range(n):
        fi, gi = f[i], g[i]
        for j in range(i + 1, n):
            det = fi * g[j] - f[j] * gi
            if det:
                v = int_val(det, p)
                if best is None or v < best:
                    best = v
    if best is None:
        raise DegenerateMapError("degenerate map")
    k = next(i for i, c in enumerate(m.f) if c)
    return Ord.of(best - 2 * (int_val(f[k], p) - _vord(m.f[k], p)))


def eval_proj(m: RationalMap, pt: ProjPoint) -> ProjPoint:
    """Evaluate the map at a classical point (exact, infinity-aware)."""
    if pt.is_inf:
        num, den = m.f[m.d], m.g[m.d]
    else:
        num = poly.eval_at(list(m.f), pt.z)
        den = poly.eval_at(list(m.g), pt.z)
    if den == 0:
        return INF_POINT
    return ProjPoint.of(num / den)


# ---------------------------------------------------------------------------
# composition with linear fractional transformations
# ---------------------------------------------------------------------------

Matrix2 = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]


def _mat(entries) -> Matrix2:
    (a, b), (c, d) = entries
    mat = ((Fraction(a), Fraction(b)), (Fraction(c), Fraction(d)))
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


def _mat_inverse(entries) -> Matrix2:
    ((a, b), (c, d)) = _mat(entries)
    return ((d, -b), (-c, a))


def pre_compose(m: RationalMap, entries) -> RationalMap:
    """The map z -> phi(gamma(z)); zero/pole data transports by gamma^(-1)."""
    mat = _mat(entries)
    ((a, b), (c, d)) = mat
    # substitute (X, Y) -> (aX + bY, cX + dY) in each degree-d form
    top = [Fraction(b), Fraction(a)]  # ascending linear form aX + bY
    bot = [Fraction(d), Fraction(c)]

    def subst(coeffs):
        out = [Fraction(0)] * (m.d + 1)
        for i, coef in enumerate(coeffs):
            if coef == 0:
                continue
            term = [Fraction(1)]
            for _ in range(i):
                term = mul(term, top)
            for _ in range(m.d - i):
                term = mul(term, bot)
            for j, t in enumerate(term):
                out[j] += coef * t
        return out

    f2 = subst(m.f)
    g2 = subst(m.g)
    ff = None
    if m.factored is not None:
        # gamma is invertible, so f2 and g2 are nonzero like f and g
        inv = _mat_inverse(mat)
        zeros = tuple(
            (mobius_apply(inv, pt), mult) for pt, mult in m.factored.zeros
        )
        poles = tuple(
            (mobius_apply(inv, pt), mult) for pt, mult in m.factored.poles
        )
        ff = FactoredForm(trim(f2)[-1] / trim(g2)[-1], zeros, poles)
    return _build(m.p, m.d, f2, g2, ff)


def post_compose(entries, m: RationalMap) -> RationalMap:
    """The map z -> gamma(phi(z)); zeros and poles move off QQ in general,
    so no factored form is attached."""
    ((a, b), (c, d)) = _mat(entries)
    f2 = [a * fi + b * gi for fi, gi in zip(m.f, m.g)]
    g2 = [c * fi + d * gi for fi, gi in zip(m.f, m.g)]
    return _build(m.p, m.d, f2, g2)

