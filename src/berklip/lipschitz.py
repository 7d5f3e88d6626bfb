"""Lipschitz constants and bounds for rational maps.

The exact classical Lipschitz constant is 1/GPR.  Two families of upper
bounds for the Berkovich Lipschitz constant are computed exactly as
p-power sums: the resultant bounds 1/|Res| and max(d/|Res|, 1/|Res|^d),
and the invariant bound max(1/(GIR * B^d), d/(GIR^(1/d) * B)) for a ball
radius B supplied either as the computable lower bound RP or by the
caller.  Degree-1 maps collapse: all quantities agree and are checked
against each other.

Radial profiles track diam_G of the image along a ray [center, zeta] as
an exact piecewise power of the radius: on each piece of env(g) the one
ratio f_j/g_j of its slope j centers the image, so the exponent is one
envelope env(f - w g) - env(g) folded by the diameter formula, with no
chart (see ``radial_profile``).  Its lines are read from the
pushforward's shift reader, ``berk._Passes``, once for F and once for G.
The segment Lipschitz constant is the maximal slope sup |k| C r^(k-1),
attained at a piece endpoint.
A deterministic sampler of classical pairs provides empirical ratio
maxima and equality witnesses.  Its pool, shared by every map with the
same prime, sample count and seed, lists the distinct sampled points once
and the pairs by descending source exponent; the map is evaluated at most
once per distinct point, the first time a pair needs it.  An image
distance is at most 1, so a pair's ratio exponent is at most its source
exponent: the scan stops at the first pair whose source exponent is below
the running maximum, or equal to it and later in pool order than the
current witness, since no pair from there on can be the first in pool
order to reach the maximum (proof in ``sample_ratios``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .berk import _diff_ord, _Passes, _ratio_record, iota
from .errors import FactoredFormRequiredError, InternalInvariantError
from .invariants import InvariantBundle, bundle, gpr  # noqa: F401 (gpr re-exported; read via bundle)
from .piecewise import PWLinear, lower_envelope
from .polynomials import hom_eval
from .projective import INF_POINT, ProjPoint, _cross_ord, _sph_pair_ord, _vord
from .ratmap import RationalMap, resultant_ord, resultant_ord_product
from .sampling import DetRng, random_point_ints
from .valued import (
    Ord,
    PPowerSum,
    PPOW_ZERO,
    _quotient,
    _rational,
    int_val,
    ppow_compare,
    ppow_max,
    ppow_term,
)

__all__ = [
    "ProfileSegment",
    "RadialProfile",
    "BoundReport",
    "lip_classical",
    "resultant_bounds",
    "invariant_bound",
    "invariant_bound_terms",
    "radial_profile",
    "segment_lip",
    "mobius_exact",
    "sample_ratios",
    "gpr_witness",
    "bound_report",
]


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------


def _gpr(b: InvariantBundle) -> Ord:
    """The bundle's gpr; a map given by its coefficients only has none."""
    if b.gpr is None:
        raise FactoredFormRequiredError("factored form required")
    return b.gpr


def lip_classical(b: InvariantBundle) -> PPowerSum:
    """Exact classical Lipschitz constant 1/GPR as a one-term sum."""
    return ppow_term(b.p, 1, _gpr(b).frac)


def resultant_bounds(m: RationalMap) -> tuple[PPowerSum, PPowerSum]:
    """(classical bound 1/|Res|, Berkovich bound max(d/|Res|, 1/|Res|^d))."""
    p, d, r = m.p, m.d, resultant_ord(m).frac
    classical = ppow_term(p, 1, r)
    berk = ppow_max(p, ppow_term(p, d, r), ppow_term(p, 1, d * r))
    return classical, berk


def _ball_ord(b0_ord) -> int | Fraction:
    """A ball-radius exponent, refused as a float or a bool and when
    negative (a radius above 1)."""
    b0 = _rational(b0_ord, "b0_ord")
    if b0 < 0:
        raise ValueError("B0 > 1 impossible")
    return b0


def invariant_bound_terms(b: InvariantBundle, b0_ord) -> tuple[PPowerSum, PPowerSum]:
    """Both branches of max(1/(GIR * B^d), d/(GIR^(1/d) * B)) for B = p^(-b0_ord)."""
    b0 = _ball_ord(b0_ord)
    p, d, g = b.p, b.d, b.gir.frac
    first = ppow_term(p, 1, g + d * b0)
    second = ppow_term(p, d, _quotient(g.numerator, g.denominator * d) + b0)
    return first, second


def invariant_bound(b: InvariantBundle, b0_ord) -> PPowerSum:
    """The two-term Berkovich bound with ball radius p^(-b0_ord)."""
    return ppow_max(b.p, *invariant_bound_terms(b, b0_ord))


def mobius_exact(m: RationalMap, b: InvariantBundle) -> PPowerSum:
    """Exact Lipschitz constant of a degree-1 map, with ``b`` its bundle.

    Computed as max coefficient norm over |determinant| and cross-checked
    against 1/GIR, 1/GPR and both resultant computations, which must all
    agree exactly in degree 1.
    """
    if m.d != 1:
        raise ValueError("mobius_exact requires degree 1")
    (a0, a1), (b0, b1) = m.F, m.G
    # on the integer pair: the denominator D is prime to p
    det = a1 * b0 - a0 * b1
    ords = [_vord(c, m.p) for c in (a1, a0, b1, b0)]
    min_ord = min(v for v in ords if v is not None)
    direct = _vord(det, m.p) - min_ord
    values = {
        "1/|Res| (sylvester)": b.res.frac,
        "1/|Res| (product)": resultant_ord_product(m).frac,
        "1/GIR": b.gir.frac,
        "1/GPR": _gpr(b).frac,
        "max-entry/det": direct,
    }
    if len(set(values.values())) != 1:
        raise InternalInvariantError(f"degree-1 constants disagree: {values}")
    return ppow_term(m.p, 1, direct)


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------


class ProfileSegment(NamedTuple):
    """One monomial piece: image diameter p^(-coeff_ord) * r^k for radii
    r = p^(-t), t in [t_hi, t_lo] (t_lo None when the piece runs to the
    classical center, r -> 0)."""

    t_hi: int | Fraction
    t_lo: int | Fraction | None
    coeff_ord: int
    k: int


class RadialProfile(NamedTuple):
    p: int
    center: int | Fraction
    t_min: int | Fraction
    segments: tuple[ProfileSegment, ...]


def radial_profile(m: RationalMap, center, t_min) -> RadialProfile:
    """Exact diam_G-of-image profile along the ray from p^(-t_min) down to
    the classical center.

    Piecewise p^(-c) * r^k with integer |k| <= degree, read in one pass
    over the pieces of env(g) on [t_min, oo), with no chart.  On a piece
    [s, e] of slope j, with w = f_j/g_j (``_ratio_record``),
    E = env(f - w g) - line j of env(g) and mu = min(0, ord w), the
    exponent is max(E - 2 mu, -E), because:

    * |g_j| r^j = |g|_x at every point x of the closed piece, so by the
      theorem of ``push_forward`` (which holds for any such j, not only
      the first) the image of x is the disc point zeta_{w, R} with
      R = p^(-E(t)); a piece's ends need no tie rule;
    * the diam_G exponent of zeta_{w, R} is
      E - 2 min(0, ord w, E) = max(E - 2 mu, -E) (``_diam_gauss_frac``),
      with mu = 0 for w = 0;
    * E is a lower envelope of integer lines less an integer line, and mu
      is an integer, so the profile is made of integer lines, as
      ``PWLinear`` requires.

    The lines come from one ``_Passes`` of F and one of G at the center,
    read at every index, up to the offset common to the shift: line j of
    g is ord qg[j] + j*ord v, and line i of f - w g is ``_diff_ord`` of
    the pair at i plus i*ord v.
    """
    p = m.p
    center = _rational(center, "center")
    t_min = _rational(t_min, "t_min")
    if t_min < 0:
        raise ValueError("t_min must be >= 0 (radii at most 1)")
    u, v = center.numerator, center.denominator
    ov = int_val(v, p)
    f_at, g_at = _Passes(p, m.F, u, v).at, _Passes(p, m.G, u, v).at
    qf = [f_at(i) for i in range(m.d + 1)]  # (qf[i], ord qf[i])
    qg = [g_at(i) for i in range(m.d + 1)]
    g_lines = [(j, o + j * ov) for j, (_, o) in enumerate(qg) if o is not None]
    pieces = []
    for s, e, j, gj in lower_envelope(g_lines, t_min, None).spans():
        c, mu = _ratio_record(*qf[j], *qg[j])
        lines = []
        for i, (x, y) in enumerate(zip(qf, qg)):
            o = _diff_ord(p, c, *x, *y)
            if o is not None:
                lines.append((i, o + i * ov))
        if not lines:
            raise InternalInvariantError("map degenerated to a constant")
        env = lower_envelope(lines, s, e).pieces
        up = tuple((a, k - j, o - gj - 2 * mu) for a, k, o in env)
        down = tuple((a, j - k, gj - o) for a, k, o in env)
        pieces += PWLinear(s, e, up).max_with(PWLinear(s, e, down)).pieces
    profile = PWLinear(t_min, None, tuple(pieces)).simplified()
    segments = tuple(ProfileSegment(s, e, c, k) for s, e, k, c in profile.spans())
    return RadialProfile(p, center, t_min, segments)


def segment_lip(profile: RadialProfile) -> PPowerSum:
    """Lipschitz constant of the map restricted to the profiled ray.

    Each monomial piece C r^k contributes sup |k| C r^(k-1), attained at
    the large-radius end for k >= 1 and the small-radius end for k <= -1.
    """
    p = profile.p
    cands = []
    for seg in profile.segments:
        if seg.k == 0:
            continue
        if seg.k >= 1:
            t_ref = seg.t_hi
        else:
            if seg.t_lo is None:
                raise InternalInvariantError("image diameter must shrink at the center")
            t_ref = seg.t_lo
        exponent = -seg.coeff_ord - (seg.k - 1) * t_ref
        cands.append(ppow_term(p, abs(seg.k), exponent))
    if not cands:
        return PPOW_ZERO
    return ppow_max(p, *cands)


# ---------------------------------------------------------------------------
# sampling and witnesses
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _pair_pool(p: int, n: int, seed: int):
    """n sampled pairs of distinct points, reusable across maps for a fixed
    p, n and seed.

    Returns (points, pairs).  ``points`` lists the distinct sampled points
    as reduced (num, den) pairs, in order of first draw.  ``pairs`` holds
    one record (s, k, a, b) per pair: its source distance exponent s, its
    index k in draw order (the pool order), and the indices a, b of its two
    points in ``points``.  The records are sorted by descending s, ties in
    pool order.
    """
    rng = DetRng(seed)
    slot: dict[tuple[int, int], int] = {}
    pairs = []
    while len(pairs) < n:
        xn, xd = random_point_ints(rng, p)
        yn, yd = random_point_ints(rng, p)
        s = _sph_pair_ord(p, xn, xd, yn, yd)
        if s is None:
            continue
        ends = []
        for num, den in ((xn, xd), (yn, yd)):
            g = gcd(num, den)
            ends.append(slot.setdefault((num // g, den // g), len(slot)))
        pairs.append((s, len(pairs), *ends))
    pairs.sort(key=lambda r: -r[0])  # stable: ties stay in pool order
    return tuple(slot), tuple(pairs)


def sample_ratios(m: RationalMap, n: int, seed: int, lip_ord=None):
    """Max of dist(phi x, phi y)/dist(x, y) over n sampled distinct pairs.

    Returns (max ratio as a one-term sum, maximizing pair of points: the
    first in pool order to reach the maximum), that is the result of the
    loop that evaluates every pair in pool order and moves the maximum only
    on a strict increase.  The loop runs on integer pairs.  The forms F and
    G are evaluated at most once per distinct pool point, by one fused
    Horner loop the first time a pair needs the point, and kept in the
    point's slot for this map with their gcd, so each image distance is
    one ``_cross_ord`` on the two slots.  The chordal distance reads
    homogeneous pairs, so the pool's reduced points give the distances
    of the drawn ones.  The witness is kept as its pool record and built
    once, at the end.  Given the exact Lipschitz exponent ``lip_ord``
    (1/GPR's, read from the map's bundle by the caller), the maximum is
    asserted to stay within it; None checks nothing.

    The pairs are visited by descending source exponent s, ties in pool
    order (see ``_pair_pool``).  With e = s - s_img the ratio exponent of
    a pair and m the running maximum, the visit stops at the first pair
    with s < m, or with s = m and a pool index above the current
    witness's; a pair that ties m with a lower pool index becomes the
    witness.  Proof that the result is the pool-order loop's, with M its
    maximum and W its witness, the first pair in pool order with e = M:

    * an image distance is at most 1, so s_img >= 0 and e <= s; m is a
      max over pairs visited, so m <= M at every step;
    * the visit never stops at a pair X before W.  A stop with s_X < m
      needs s_X < M, and every pair from X on, W among them, has s < M,
      while s_W >= e_W = M.  A stop with s_X = m needs s_X <= M <= s_W,
      and W comes after X, so s_W <= s_X: then s_W = m = M, W lies after
      X in pool order (one level, ascending pool index), and the current
      witness, a pair with e = M below X in pool order, would lie before
      W, against W being the first;
    * once W is evaluated the maximum is M and the witness W (a tie with
      the current witness moves it to W, the lower pool index), and
      neither moves again: that needs e > M, or e = M below W in pool
      order.

    A stop with s = m evaluates the same pairs as skipping that one pair
    and going on would: the pairs left at its level have pool indices
    above the witness's too, and every later level has s < m.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = m.p
    fi, gi = m.F, m.G
    points, pairs = _pair_pool(p, n, seed)
    span = range(m.d, -1, -1)
    vals = [None] * len(points)  # (F, G, gcd(F, G)) at each point, once needed
    max_e = best = None
    for s_src, k, a, b in pairs:
        if max_e is not None and (s_src < max_e or s_src == max_e and k > best[0]):
            break
        for j in (a, b):
            if vals[j] is None:
                # F and G at (num, den): Horner in num with den powers
                xn, xd = points[j]
                fx = gx = 0
                xpow = 1
                for i in span:
                    fx = fx * xn + fi[i] * xpow
                    gx = gx * xn + gi[i] * xpow
                    xpow *= xd
                vals[j] = fx, gx, gcd(fx, gx)
        (fa, ga, ca), (fb, gb, cb) = vals[a], vals[b]
        s_img = _cross_ord(p, fa, ga, fb, gb, ca * cb)
        if s_img is None:
            continue
        e = s_src - s_img
        if max_e is None or e > max_e or (e == max_e and k < best[0]):
            max_e = e
            best = k, a, b
    if max_e is None:
        return PPOW_ZERO, None
    if lip_ord is not None and max_e > lip_ord:
        raise InternalInvariantError("sampled ratio exceeded the exact Lipschitz bound")
    (xn, xd), (yn, yd) = points[best[1]], points[best[2]]
    pair = (ProjPoint.of(_quotient(xn, xd)), ProjPoint.of(_quotient(yn, yd)))
    return ppow_term(p, 1, max_e), pair


def _proj_point(num: int, den: int) -> ProjPoint:
    return INF_POINT if den == 0 else ProjPoint.of(_quotient(num, den))


def gpr_witness(m: RationalMap, b: InvariantBundle):
    """Search for classical points x, y at spherical distance GPR whose
    images are at distance 1, certifying that 1/GPR is attained.

    GPR and its argmin are read from ``b``, the map's bundle.  Returns
    (pair, None) on success or (None, diagnostic).  Candidates sit in
    distinct residue directions at the minimizing preimage point; over QQ
    only p residue directions exist, so failure is a reportable outcome
    rather than an error.  Each candidate's image is evaluated once, as
    the integer pair of the homogeneous forms at its (num, den), and both
    distances are read by ``_sph_pair_ord``; pairs are tried in index
    order and the first hit is returned.
    """
    q, target = b.gpr_argmin, _gpr(b).frac
    p = m.p
    a, t = q.center, q.radius_ord
    va = _vord(a, p)
    inverted = not (t >= 0 and (va is None or va >= 0))
    if inverted:
        qi = iota(p, q)
        a, t = qi.center, qi.radius_ord
    if t.denominator != 1:
        return None, "witness requires an integer radius exponent"
    # the candidates a + u p^t, t >= 0 in the unit chart, as (num, den)
    # pairs; inverted, (den, num), with den 0 for infinity
    an, ad = a.numerator, a.denominator
    step = p ** int(t) * ad
    fi, gi = m.F, m.G
    cands = []
    for u in range(min(p, 97)):
        xn, xd = an + u * step, ad
        if inverted:
            xn, xd = xd, xn
        cands.append((xn, xd, hom_eval(fi, xn, xd), hom_eval(gi, xn, xd)))
    for i, (xn, xd, fx, gx) in enumerate(cands):
        for yn, yd, fy, gy in cands[i + 1:]:
            if _sph_pair_ord(p, xn, xd, yn, yd) != target:
                continue
            if _sph_pair_ord(p, fx, gx, fy, gy) == 0:
                return (_proj_point(xn, xd), _proj_point(yn, yd)), None
    return None, f"no witness among {min(p, 97)} residue directions"


# ---------------------------------------------------------------------------
# the combined report
# ---------------------------------------------------------------------------


class BoundReport(NamedTuple):
    p: int
    d: int
    lip_classical: PPowerSum | None
    resultant_bound_classical: PPowerSum
    resultant_bound_berk: PPowerSum
    invariant_bound_rp: PPowerSum | None
    invariant_bound_rp_coarse: PPowerSum | None
    invariant_bound_user_b0: PPowerSum | None
    mobius_exact: PPowerSum | None
    sampled_max_ratio: PPowerSum | None
    sample_witness: tuple[ProjPoint, ProjPoint] | None
    gpr_witness: tuple[ProjPoint, ProjPoint] | None
    gpr_witness_note: str | None


def bound_report(
    m: RationalMap, n: int = 0, seed: int = 0, b0_ord=None
) -> BoundReport:
    """Assemble every computable bound for one map.

    A bad ``b0_ord`` is refused before any work.  The report then reads
    the map's invariant bundle once, through ``bundle`` (which asserts the
    invariant chain, and returns the bundle its caller just built when it
    bundled the same map object), and hands it to each bound, to the
    witness search, to the degree-1 cross-check and, as 1/GPR, to the
    sampler.  Fields depending on the factored form are None when it is
    absent; the orderings sampled <= exact classical <= resultant bound
    are asserted.
    """
    b0 = None if b0_ord is None else _ball_ord(b0_ord)
    p, d = m.p, m.d
    b = bundle(m)
    res_cl, res_bk = resultant_bounds(m)
    lip = inv_rp = coarse = witness = note = lip_ord = None
    if m.factored is not None:
        lip_ord = b.gpr.frac
        lip = lip_classical(b)
        rp = b.rp.frac
        inv_rp = invariant_bound(b, rp)
        coarse = ppow_term(p, d, b.gir.frac + d * rp)
        witness, note = gpr_witness(m, b)
        if ppow_compare(p, lip, res_cl) > 0:
            raise InternalInvariantError("exact constant exceeded resultant bound")
    inv_b0 = invariant_bound(b, b0) if b0 is not None else None
    mob = mobius_exact(m, b) if d == 1 else None
    sampled, pair = sample_ratios(m, n, seed, lip_ord=lip_ord) if n > 0 else (None, None)
    return BoundReport(
        p,
        d,
        lip,
        res_cl,
        res_bk,
        inv_rp,
        coarse,
        inv_b0,
        mob,
        sampled,
        pair,
        witness,
        note,
    )
