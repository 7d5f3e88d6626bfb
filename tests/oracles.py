"""Independent references for the exact pushforward, the gpr scan, the
ratio sampler, the hull, PWLinear arithmetic and the radial profile.

The first part is a brute-force oracle; the next section is the
whole-shift record ``Shift`` that the fiber and profile references and
``ref_push_forward_full`` read, then a Fraction reference for the
integer shift kernel (see there); the next holds
unoptimized forms of the sampler, the zero/pole tree and the hull, with
the hull's records (``TreeEdge``, ``FiniteTree``) and their builder on
the program's arrays (``hull_records``), and the last ones
PWLinear arithmetic by sampled alignment with the envelopes, the Gauss
fiber with the unscreened gpr scan on it, and the radial profile.  The
last section keeps the helpers that only the tests use (directions, rho,
the diameter seen from infinity, homogeneous coordinates, ppow_add, the
record accessors ``is_disc``, ``value_ord_at``, ``dehomogenized``,
``with_multiplicity`` and ``choice``, and ``ord_p``, ``seminorm`` on the
integer shift kernel, ``mobius_from_matrix`` and
``berk_point_from_json``), the bisection
compare and rendering that the ``Decimal`` enclosure of ``ppow_compare``
and ``ppow_decimal`` replaced, and ``ppow_normalize`` as it was before
its one-term classes skipped the summation.

Valuations here are the Fraction ``ref_vord`` and ``ref_spherical_ord``
(and rp, ``ref_rp_ord``, and the product formula for the resultant,
``ref_resultant_ord_product``, on the latter), independent of the
program's integer kernels.  Next to them sit the ``Fraction`` expansion
of a factored form (``ref_expand``) and the Sylvester matrix with an
exact determinant (``ref_sylvester_rows``, ``ref_det``, and the
resultant valuation read off them, ``ref_res_ord``), against which the
integer expansion, the Bezout kernel and the resultant that a
composition carries are checked.  The brute-force
reconstruction uses only classical evaluation, exact valuations and disc
joins; it never touches Taylor shifts, seminorm envelopes, or the
candidate-center minimization it is meant to check.

Soundness facts (both one-sided):

* A residue direction of the source disc containing no pole has its whole
  image inside the image disc, so the smallest disc L containing the
  sampled images of all pole-free directions satisfies L <= phi(x) in the
  containment order toward infinity.
* Applying the same construction to 1/phi (whose poles are phi's zeros)
  bounds iota(phi(x)) from below, i.e. phi(x) lies on the path from
  iota(L') toward 0.

When the two reconstructions meet (L equals iota(L') as points) and the
paths from that point toward 0 and toward infinity are disjoint (its disc
contains 0), the image point is pinned exactly: the oracle is decisive.
Instances where the rational samples collapse into too few residue
directions (the residue field is finite) stay indecisive and the corpus
redraws; a decisive disagreement is a genuine refutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, getcontext
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from berklip.berk import (
    BerkPoint,
    _diff_ord,
    _scaled,
    berk_equal,
    diam_gauss,
    gauss_point,
    iota,
    push_forward,
)
from berklip.errors import DegenerateMapError, InternalInvariantError, ParseError
from berklip.invariants import GprResult, Hull, _gauss_fiber, hull
from berklip.piecewise import PWLinear
from berklip.polynomials import taylor_shift
from berklip.projective import INF_POINT, ProjPoint, _vord, spherical_ord
from berklip.ratmap import (
    FactoredForm,
    RationalMap,
    _mat,
    eval_proj,
    from_coeffs,
    mobius_apply,
)
from berklip.sampling import DetRng
from berklip.valued import (
    ORD_INF,
    PPOW_ZERO,
    Ord,
    PPowerSum,
    _ords,
    int_val,
    parse_fraction,
    ppow_normalize,
    ppow_term,
)

SAMPLES = 200


def ref_vord(x, p: int) -> Fraction | None:
    """ord_p of a rational as a Fraction, None for 0, by dividing out p
    one factor at a time."""
    x = Fraction(x)
    if x == 0:
        return None
    v, n, d = 0, x.numerator, x.denominator
    while n % p == 0:
        n, v = n // p, v + 1
    while d % p == 0:
        d, v = d // p, v - 1
    return Fraction(v)


def ref_spherical_ord(p: int, x: ProjPoint, y: ProjPoint) -> Fraction | None:
    """Spherical distance exponent by the case split on Fractions: |x - y|
    inside the closed unit disc, |1/x - 1/y| outside it, 1 across; None
    for equal points."""
    if x == y:
        return None
    if x.is_inf or y.is_inf:
        z = y.z if x.is_inf else x.z
        if z == 0 or ref_vord(z, p) >= 0:
            return Fraction(0)
        return -ref_vord(z, p)
    s = ref_vord(x.z - y.z, p)
    for z in (x.z, y.z):
        if z != 0:
            s -= min(Fraction(0), ref_vord(z, p))
    return s


def ref_rp_ord(m: RationalMap) -> Fraction:
    """rp as the largest ``ref_spherical_ord`` over every zero/pole pair."""
    ff = m.require_factored()
    return max(
        ref_spherical_ord(m.p, alpha, beta) for alpha, _ in ff.zeros for beta, _ in ff.poles
    )


def ref_resultant_ord_product(m: RationalMap) -> Fraction:
    """The product formula, d (ord C0 + ord C1) plus ``ref_spherical_ord``
    summed over every zero/pole pair, repeated by multiplicity."""
    ff = m.require_factored()
    total = m.d * sum(min(ref_vord(c, m.p) for c in form if c) for form in (m.f, m.g))
    for alpha in with_multiplicity(ff.zeros):
        for beta in with_multiplicity(ff.poles):
            total += ref_spherical_ord(m.p, alpha, beta)
    return total


def ref_expand(ff, d: int) -> tuple[list[Fraction], list[Fraction]]:
    """The raw pair of a factored form, multiplied out in ``Fraction``s one
    linear factor (z - root) at a time: C times the finite zeros' product
    and 1 times the finite poles', each padded to length d+1."""

    def expand(points, lead):
        out = [Fraction(lead)]
        for pt, mult in points:
            if not pt.is_inf:
                for _ in range(mult):
                    out = mul(out, [-pt.z, Fraction(1)])
        return out + [Fraction(0)] * (d + 1 - len(out))

    return expand(ff.zeros, ff.c), expand(ff.poles, 1)


def mul(a, b) -> list[Fraction]:
    """The product of two ascending coefficient lists, in ``Fraction``s."""
    if not any(a) or not any(b):
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def ref_normalized(p: int, f, g) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The pair (f, g) in ``Fraction``s, scaled by the p-power that makes
    its least coefficient ord 0."""
    low = min(ref_vord(c, p) for c in list(f) + list(g) if c)
    scale = Fraction(p) ** -low
    return tuple(Fraction(c) * scale for c in f), tuple(Fraction(c) * scale for c in g)


def ref_gir_minors(m: RationalMap) -> Fraction:
    """min ord_p of the 2x2 minors f_i g_j - f_j g_i over every i < j,
    each one multiplied out in ``Fraction``s."""
    f, g = m.f, m.g
    return min(
        ref_vord(f[i] * g[j] - f[j] * g[i], m.p)
        for i in range(m.d + 1)
        for j in range(i + 1, m.d + 1)
        if f[i] * g[j] != f[j] * g[i]
    )


def ref_pre_compose(m: RationalMap, entries) -> RationalMap:
    """``pre_compose`` by substitution in ``Fraction``s: (X, Y) -> (aX + bY,
    cX + dY) in each form, one power of each linear form at a time, the
    result built by ``from_coeffs`` with the zero/pole data transported by
    gamma^(-1)."""
    ((a, b), (c, d)) = _mat(entries)
    top = [b, a]  # ascending linear form aX + bY
    bot = [d, c]

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

    f2, g2 = subst(m.f), subst(m.g)
    built = from_coeffs(m.p, f2, g2)
    if m.factored is None:
        return built
    inv = ((d, -b), (-c, a))
    ff = FactoredForm(
        [x for x in f2 if x][-1] / [x for x in g2 if x][-1],
        tuple((mobius_apply(inv, pt), k) for pt, k in m.factored.zeros),
        tuple((mobius_apply(inv, pt), k) for pt, k in m.factored.poles),
    )
    return built._replace(factored=ff)


def ref_sylvester_rows(f: list[int], g: list[int]) -> list[list[int]]:
    """The 2d x 2d Sylvester matrix of two ascending coefficient lists of
    length d+1: d shifted rows of f's descending coefficients, then g's."""
    d = len(f) - 1
    return [[0] * i + c[::-1] + [0] * (d - 1 - i) for c in (f, g) for i in range(d)]


def ref_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination with row swaps; every division is exact."""
    m = [list(row) for row in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        r = next((i for i in range(k, n) if m[i][k]), None)
        if r is None:
            return 0
        if r != k:
            m[k], m[r], sign = m[r], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def ref_res_ord(m: RationalMap) -> Fraction:
    """ord_p Res(f, g) from the 2d x 2d Sylvester determinant of the
    stored integer pair (``ref_sylvester_rows``, ``ref_det``), less
    2d ord D: independent of the Bezout kernel and of the identities by
    which a composition carries the resultant."""
    det = ref_det(ref_sylvester_rows(list(m.F), list(m.G)))
    return ref_vord(det, m.p) - 2 * m.d * ref_vord(m.D, m.p)


def _point_directions(points, a: Fraction, t: int, p: int) -> set[int]:
    """Residue classes at zeta_{a, p^-t} containing one of the points."""
    dirs: set[int] = set()
    for pt in points:
        if pt.is_inf:
            continue
        v = ref_vord(pt.z - a, p)
        if v is None or v > t:
            dirs.add(0)
        elif v == t:
            off = (pt.z - a) / Fraction(p) ** t
            num = off.numerator % p
            den = off.denominator % p
            dirs.add(num * pow(den, -1, p) % p)
    return dirs


def _join_top(values, p: int) -> BerkPoint | None:
    """Smallest disc containing the given rationals, as a type II point."""
    b = values[0]
    s = None
    for w in values[1:]:
        v = ref_vord(w - b, p)
        if v is not None and (s is None or v < s):
            s = v
    if s is None:
        return None
    return BerkPoint.disc(b, s)


def _unit_fraction(rng: DetRng, p: int, height: int = 9) -> Fraction:
    """Nonzero rational of bounded height with numerator and denominator
    prime to p: the unit part of a ``random_rational``, for the samplers of
    the two pushforward gates below."""
    while True:
        n = rng.randint(1, height)
        d = rng.randint(1, height)
        if n % p != 0 and d % p != 0:
            sign = -1 if rng.randint(0, 1) else 1
            return Fraction(sign * n, d)


def oracle_push_forward(m: RationalMap, x: BerkPoint, seed: int = 0):
    """(point, decisive): brute-force image of a disc point.

    Decisive means the two one-sided reconstructions met and pinned the
    point; only then is the value a certified independent answer.
    """
    p = m.p
    a = x.center
    t = int(x.radius_ord)
    ff = m.factored
    if ff is None:
        return None, False
    rng = DetRng(seed)
    pole_dirs = _point_directions([pt for pt, _ in ff.poles], a, t, p)
    zero_dirs = _point_directions([pt for pt, _ in ff.zeros], a, t, p)
    per_dir = max(4, SAMPLES // p)
    images: dict[int, list[ProjPoint]] = {c: [] for c in range(p)}
    for c in range(p):
        for _ in range(per_dir):
            u = _unit_fraction(rng, p)
            e = rng.randint(1, 4)
            z = a + c * Fraction(p) ** t + u * Fraction(p) ** (t + e)
            images[c].append(eval_proj(m, ProjPoint.of(z)))

    def reconstruct(bad_dirs: set[int], invert: bool) -> BerkPoint | None:
        vals: list[Fraction] = []
        for c in range(p):
            if c in bad_dirs:
                continue
            for w in images[c]:
                if invert:
                    if w.is_inf:
                        vals.append(Fraction(0))
                    elif w.z == 0:
                        return None  # direction misclassified; abstain
                    else:
                        vals.append(1 / w.z)
                else:
                    if w.is_inf:
                        return None
                    vals.append(w.z)
        if len(vals) < 2:
            return None
        return _join_top(vals, p)

    low = reconstruct(pole_dirs, invert=False)
    low_inv = reconstruct(zero_dirs, invert=True)
    if low is None or low_inv is None:
        return low, False
    upper = iota(p, low_inv)
    if upper.is_classical or not berk_equal(p, low, upper):
        return low, False
    # pinned only when the paths toward 0 and infinity leave the meeting
    # point in different directions, i.e. its disc contains 0
    v_center = ref_vord(low.center, p)
    decisive = v_center is None or v_center >= low.radius_ord
    return low, decisive


def minimality_refuted(m: RationalMap, x: BerkPoint, seed: int = 0) -> bool:
    """Second, unfiltered gate on the candidate-center minimization.

    Sampled images of pole-free directions are points of the true image
    disc, so the exact seminorm distance |phi - w|_x for such a w can
    never be smaller than the image diameter.  If it drops below the
    diameter computed by push_forward, the finite candidate set missed the
    true minimum.  Returns True on refutation.
    """
    from berklip.berk import push_forward

    p = m.p
    a = x.center
    t = int(x.radius_ord)
    got = push_forward(m, x)
    f, g = dehomogenized(m)
    fs = ref_taylor_shift(f, a)
    gs = ref_taylor_shift(g, a)
    sg = ref_semi(p, gs, Fraction(t))
    s_hat = ref_semi(p, _minus(fs, gs, got.center), Fraction(t)) - sg  # |phi - b_hat|_x
    pole_dirs = _point_directions([pt for pt, _ in m.factored.poles], a, t, p)
    rng = DetRng(seed)
    for c in range(p):
        if c in pole_dirs:
            continue
        for _ in range(15):
            u = _unit_fraction(rng, p)
            e = rng.randint(1, 4)
            z = a + c * Fraction(p) ** t + u * Fraction(p) ** (t + e)
            w = eval_proj(m, ProjPoint.of(z))
            if w.is_inf:
                continue
            s_w = ref_semi(p, _minus(fs, gs, w.z), Fraction(t)) - sg
            if s_w > s_hat:
                return True
    return False


# ---------------------------------------------------------------------------
# the whole-shift record
# ---------------------------------------------------------------------------


def _lines(ords, ov: int) -> list[tuple[int, int]]:
    """Seminorm lines (j, ord q[j] + j*ov) of the nonzero numerators q[j]
    with the given ords: the line t -> ord(coefficient j) + j*t, up to the
    offset -d*ov."""
    return [(j, o + j * ov) for j, o in enumerate(ords) if o is not None]


class Shift(NamedTuple):
    """A map's pair (f, g) Taylor-shifted whole to a center u/v, kept as
    integers: every pass of ``taylor_shift`` drained into a list, where
    the program reads the shift lazily through ``berk._Passes``.

    With (F, G) the map's integer pair over its denominator D, coefficient
    j of f(z + u/v) is qf[j] * v^(j-d) / D, of ord
    ord qf[j] + j*ord v - (d*ord v + ord D); likewise for g.  Every reader
    compares seminorms of the same shift, so the common offset in brackets
    cancels and is never computed.
    """

    p: int
    ov: int  # ord_p v
    qf: list[int]
    qg: list[int]
    of: list[int | None]  # ord_p qf[j], None for 0
    og: list[int | None]

    @staticmethod
    def at(p: int, f: list[int], g: list[int], a: Fraction) -> "Shift":
        u, v = a.numerator, a.denominator
        qf = list(taylor_shift(_scaled(f, v), u))
        qg = list(taylor_shift(_scaled(g, v), u))
        return Shift(p, int_val(v, p), qf, qg, _ords(p, qf), _ords(p, qg))

    def g_lines(self) -> list[tuple[int, int]]:
        return _lines(self.og, self.ov)

    def diff_lines(self, c) -> list[tuple[int, int]]:
        """Seminorm lines (j, o) of f - w*g on the offset of f and g less
        ord wd, for a center record c = (wn, wd, ord wn, ord wd) of
        w = wn/wd, wn = 0 as (0, 1, None, 0); empty when f = w*g.  Line j
        is ``berk._diff_ord`` of the pair at j plus j*ord v."""
        out = []
        for j, pair in enumerate(zip(self.qf, self.of, self.qg, self.og)):
            o = _diff_ord(self.p, c, *pair)
            if o is not None:
                out.append((j, o + j * self.ov))
        return out


# ---------------------------------------------------------------------------
# Fraction reference for the integer shift kernel
# ---------------------------------------------------------------------------
#
# The shift, seminorm and pushforward below are the kernel's algorithm on
# Fraction coefficients, with every offset kept: coefficient i of f(z + a)
# and its valuation are computed directly.  The Gauss preimage radius is
# found by brute force over line crossings instead of by envelopes.


def ref_taylor_shift(c, a) -> list[Fraction]:
    """Coefficients of c(z + a) over QQ, by iterated synthetic division."""
    out = [Fraction(x) for x in c]
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] += a * out[j + 1]
    return out


def ref_semi(p: int, coeffs, t) -> Fraction:
    """min_i (ord c_i + i*t) over the nonzero coefficients."""
    vals = [ref_vord(c, p) + i * t for i, c in enumerate(coeffs) if c != 0]
    if not vals:
        raise ValueError("seminorm of the zero polynomial")
    return min(vals)


def _minus(fs, gs, w) -> list[Fraction]:
    return [x - w * y for x, y in zip(fs, gs)]


def _ref_eval(c, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def ref_push_forward(m: RationalMap, x: BerkPoint, events: set | None = None) -> BerkPoint:
    """Image of a disc point by shifted Fraction coefficients, found by an
    algorithm independent of ``push_forward``'s dominant-coefficient
    rule: the center is moved off a pole, the image is computed in the
    inversion chart when |phi|_x > 1, and every same-index ratio plus 0
    is tried as the center, keeping the first with the largest radius
    exponent.  Its record may differ from ``push_forward``'s for the
    same point; compare with ``berk_equal``.

    ``events`` gains "recenter" when the center is a pole and "swap" when
    the image is computed in the inversion chart.
    """
    f, g = dehomogenized(m)
    return _ref_push(m.p, f, g, x.center, x.radius_ord, set() if events is None else events)


def _ref_push(p, f, g, a, t, events) -> BerkPoint:
    if _ref_eval(g, a) == 0:
        events.add("recenter")
        step = Fraction(p) ** math.ceil(t)
        j = 1
        while _ref_eval(g, a + j * step) == 0:
            j += 1
        a = a + j * step
    fs, gs = ref_taylor_shift(f, a), ref_taylor_shift(g, a)
    sg = ref_semi(p, gs, t)
    if ref_semi(p, fs, t) < sg:
        assert "swap" not in events, "chart swap did not stabilize"
        events.add("swap")
        return iota(p, _ref_push(p, g, f, a, t, events))
    cands: list[Fraction] = []
    for x, y in zip(fs, gs):
        if y != 0 and x / y not in cands:
            cands.append(x / y)
    if 0 not in cands:
        cands.append(Fraction(0))
    best = None
    for w in cands:
        s = ref_semi(p, _minus(fs, gs, w), t) - sg
        if best is None or s > best[0]:
            best = (s, w)
    return BerkPoint.disc(best[1], best[0])


def ref_push_forward_full(m: RationalMap, x: BerkPoint) -> BerkPoint:
    """The pushforward read off whole shifts, as before the cut scans: one
    ``Shift.at`` at the center, the first index of least g-term, then the
    least of all of ``diff_lines``.  ``push_forward`` returns this exact
    record, the center's ``Fraction`` and the radius alike."""
    if x.is_classical:
        raise ValueError("push_forward expects a type II point")
    f, g = m.F, m.G
    if not any(f) or not any(g):
        raise DegenerateMapError("degenerate map")
    t = x.radius_ord
    tn, td = t.numerator, t.denominator
    sh = Shift.at(m.p, f, g, x.center)
    k = sh.ov * td + tn
    sg, j = min((o * td + i * k, i) for i, o in enumerate(sh.og) if o is not None)
    c = (0, 1, None, 0) if sh.of[j] is None else (sh.qf[j], sh.qg[j], sh.of[j], sh.og[j])
    lines = sh.diff_lines(c)
    if not lines:
        raise DegenerateMapError("degenerate map")
    s = min(o * td + i * tn for i, o in lines)
    return BerkPoint.disc(Fraction(c[0], c[1]), Fraction(s - sg, td))


def _ref_diam_gauss(p: int, a: Fraction, t: Fraction) -> Fraction:
    """Exponent of diam_G at zeta_{a, p^-t}: t - 2 min(0, ord a, t)."""
    low = min(Fraction(0), t)
    if a != 0:
        low = min(low, ref_vord(a, p))
    return t - 2 * low


def ref_gpr_ord(m: RationalMap, edges) -> Fraction:
    """Largest diam_G exponent among disc points on the given hull edges
    that map to the Gauss point, by brute force.

    An end of a solution interval on an edge is an end of the edge or a
    point where a line of f - w*g meets a line of g, w a residue in 0..p-1
    (the image is the Gauss point iff |phi - w| = 1 for every such w).
    Every such point is tested: first that exact condition, then the
    reference pushforward.
    """
    p = m.p
    f, g = dehomogenized(m)
    best = None
    for edge in edges:
        lo, hi = t_range(edge)
        fs, gs = ref_taylor_shift(f, edge.center), ref_taylor_shift(g, edge.center)
        g_lines = [(i, ref_vord(c, p)) for i, c in enumerate(gs) if c != 0]
        w_lines = [
            [(i, ref_vord(c, p)) for i, c in enumerate(_minus(fs, gs, w)) if c != 0]
            for w in range(p)
        ]
        ts = {t for t in (lo, hi) if t is not None}
        for lines in w_lines:
            for i, c in lines:
                for j, e in g_lines:
                    if i != j:
                        t = (e - c) / (i - j)
                        if (lo is None or t >= lo) and (hi is None or t <= hi):
                            ts.add(t)
        for t in sorted(ts):
            sg = min(e + j * t for j, e in g_lines)
            if any(min(c + i * t for i, c in lines) != sg for lines in w_lines):
                continue
            x = BerkPoint.disc(edge.center, t)
            if berk_equal(p, ref_push_forward(m, x), gauss_point()):
                s = _ref_diam_gauss(p, edge.center, t)
                if best is None or s > best:
                    best = s
    return best


# ---------------------------------------------------------------------------
# unoptimized sampler and hull
# ---------------------------------------------------------------------------


def ref_sample_ratios(m: RationalMap, n: int, seed: int):
    """The sampler's (max ratio, witness pair) by the unpruned loop.

    Every pooled pair is evaluated in pool order (the pool's records
    sorted back by their pool index), with Fraction points, ``eval_proj``
    and ``ref_spherical_ord`` in place of the sampler's integer Horner
    evaluation and ``_cross_ord``; the pool's source exponents are not
    read.  The witness is the first pair in pool order to reach the
    maximum.
    """
    from berklip.lipschitz import _pair_pool

    p = m.p
    points, pairs = _pair_pool(p, n, seed)
    best = None
    for _, _, a, b in sorted(pairs, key=lambda r: r[1]):
        x, y = (ProjPoint.of(Fraction(*points[i])) for i in (a, b))
        s_img = ref_spherical_ord(p, eval_proj(m, x), eval_proj(m, y))
        if s_img is None:
            continue
        e = ref_spherical_ord(p, x, y) - s_img
        if best is None or e > best[0]:
            best = (e, (x, y))
    if best is None:
        return PPOW_ZERO, None
    return ppow_term(p, 1, best[0]), best[1]


def ref_gpr_witness(m: RationalMap):
    """``gpr_witness`` in Fractions: the same candidates in the same pair
    order, each pair's distance by ``spherical_ord`` and its images by
    ``eval_proj``, evaluated again for every pair at distance GPR."""
    from berklip.invariants import gpr

    result = gpr(m)
    q, target = result.argmin, result.ord
    a, t = q.center, q.radius_ord
    va = _vord(a, m.p)
    inverted = not (t >= 0 and (va is None or va >= 0))
    if inverted:
        qi = iota(m.p, q)
        a, t = qi.center, qi.radius_ord
    if t.denominator != 1:
        return None, "witness requires an integer radius exponent"
    step = Fraction(m.p) ** int(t)
    pts = []
    for u in range(min(m.p, 97)):
        z = a + u * step
        if inverted:
            pts.append(INF_POINT if z == 0 else ProjPoint.of(1 / z))
        else:
            pts.append(ProjPoint.of(z))
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if spherical_ord(m.p, pts[i], pts[j]) != target:
                continue
            ix, iy = eval_proj(m, pts[i]), eval_proj(m, pts[j])
            if spherical_ord(m.p, ix, iy) == Ord.of(0):
                return (pts[i], pts[j]), None
    return None, f"no witness among {min(m.p, 97)} residue directions"


def ref_tree(p: int, zeros, poles):
    """The arrays of ``invariants.hull`` by an independent construction,
    the single-linkage row loop, which values every pair: the hull of >= 2
    distinct classical points, given as (ProjPoint, multiplicity) pairs,
    ``zeros`` counted + and ``poles`` -.  The finite inputs z_0, ...,
    z_(n-1) keep input order, zeros first.

    The tree is the single-linkage dendrogram of the finite inputs under
    the ultrametric ord(z_i - z_j) (Gower and Ross, Appl. Stat. 1969),
    built from n - 1 links.  Each z_i, i >= 1, links to z_j, j_i the
    lowest j < i attaining s_i = max_(j < i) ord(z_i - z_j), the ords in
    integers, ord(a/b - a'/b') = ord(a b' - a' b) - ord b - ord b', each
    denominator's ord taken once.  The links are merged by descending s
    with a union-find whose root is the lowest index, and each cluster
    that the links of one level s touch becomes the disc D(z_root, s),
    the parent of the previous top vertices of the clusters it merged,
    with t = s, center = root and below the sum of theirs.

    Proof that these are the hull's discs.  At a threshold sigma, the
    classes {k : ord(z_i - z_k) >= sigma} are the inputs in the discs
    D(z_i, sigma).  In a class, every member i other than its lowest
    index e has s_i >= ord(z_i - z_e) >= sigma, and z_(j_i) lies in
    D(z_i, s_i), inside the class; so i links to an earlier member of its
    class, and following the links from any member reaches e.  A link of
    level >= sigma joins two points of one class.  So the links with s >=
    sigma connect exactly the classes at sigma.  A class at s is a hull
    vertex iff it is not also a class at s + 1 (levels are ints), that is
    iff a link of level exactly s lies in it, and it is then the disc
    D(z_e, s) with e its lowest index, the union-find root.  Its children
    are the classes at s + 1 inside it, the top vertices of the clusters
    merged at s.

    The top cluster holds every finite input: its parent is infinity
    when infinity is an input, and otherwise it is the root.  The levels
    come in descending order and each level's clusters in ascending root
    order, so the vertices need no sort.  rp is the largest entry of a
    pole's row against the zeros, or an entry at infinity.
    """
    finite = [(q.z, k) for q, k in zeros if not q.is_inf]
    nz = len(finite)
    finite += [(q.z, -k) for q, k in poles if not q.is_inf]
    n = len(finite)
    inf_zero, inf_pole = nz < len(zeros), n - nz < len(poles)
    points = [z for z, _ in finite]
    nums = [z.numerator for z in points]
    dens = [z.denominator for z in points]
    if len(set(zip(nums, dens))) < n or inf_zero and inf_pole:
        raise InternalInvariantError("a zero is also a pole")
    od = [int_val(b, p) for b in dens]
    # rp's entries at infinity: (1, 0) against a/b is ord b
    near = od[nz:] if inf_zero else od[:nz] if inf_pole else []
    shifted = any(od)
    links = []
    for i in range(1, n):
        a, b = nums[i], dens[i]
        raw = [int_val(a * dens[j] - nums[j] * b, p) for j in range(i)]
        if i >= nz > 0:  # a pole: its entries against the zeros, j < nz
            near.append(max(raw[:nz]))
        row = [x - o for x, o in zip(raw, od)] if shifted else raw
        s = max(row)
        links.append((s - od[i], i, row.index(s)))
    links.sort(reverse=True)
    rp = max(near, default=None)

    up: list[int | None] = [None] * n
    t: list[int | None] = [None] * n
    center: list[int | None] = list(range(n))
    below = [k for _, k in finite]
    root = list(range(n))  # union-find over input indices
    top = list(range(n))  # a cluster's top vertex, at its root

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for s, level in groupby(links, key=itemgetter(0)):
        merged = set()  # roots, before this level, of the clusters it touches
        for _, i, j in level:
            ri, rj = find(i), find(j)
            merged.update((ri, rj))
            root[max(ri, rj)] = min(ri, rj)
        children: dict[int, list[int]] = {}
        for r in sorted(merged):  # a new root is its cluster's least old one
            children.setdefault(find(r), []).append(top[r])
        for r, kids in children.items():
            v = top[r] = len(up)
            up.append(None)
            t.append(s)
            center.append(r)
            below.append(sum(below[c] for c in kids))
            for c in kids:
                up[c] = v
    if inf_zero or inf_pole:
        up[top[0]] = len(up)
        up.append(None)
        t.append(None)
        center.append(None)
        below.append(below[top[0]])
    if up.index(None) != len(up) - 1:
        raise InternalInvariantError("hull is not a single tree")
    return Hull(points, up, t, center, below, rp)


class TreeEdge(NamedTuple):
    """A radial edge {zeta_{center, t}} from its small-radius end
    ``lower`` (possibly classical) to ``upper`` (possibly infinity); the
    center is a classical witness below the edge."""

    lower: BerkPoint
    upper: BerkPoint
    center: Fraction


class FiniteTree(NamedTuple):
    vertices: tuple[BerkPoint, ...]
    edges: tuple[TreeEdge, ...]


def hull_records(p: int, points) -> FiniteTree:
    """The hull of the distinct classical ``points`` (repeats dropped)
    as records built on the arrays of ``invariants.hull``: its vertices
    in its order (the finite inputs in input order, the discs by
    descending radius exponent, ties by lowest index, then infinity), and
    one radial edge per vertex below the top, in that order, with the
    lower vertex's classical center as witness."""
    h = hull(p, [(q, 0) for q in dict.fromkeys(points)], ())
    z = h.points
    vertices = [BerkPoint.classical(ProjPoint(x)) for x in z]
    vertices += [BerkPoint.disc(z[c], s) for c, s in zip(h.center, h.t) if s is not None]
    if len(vertices) < len(h.up):  # infinity is an input
        vertices.append(BerkPoint.classical(INF_POINT))
    edges = tuple(TreeEdge(w, vertices[u], z[c]) for w, u, c in zip(vertices, h.edges, h.center))
    return FiniteTree(tuple(vertices), edges)


def ref_hull(p: int, points):
    """The hull with every pairwise join compared against every vertex
    through ``berk_equal`` (O(n^3)), and each vertex's parent searched
    among all vertices."""
    pts: list[ProjPoint] = []
    for q in points:
        if q not in pts:
            pts.append(q)
    vertices = [BerkPoint.classical(q) for q in pts]
    finite = [q for q in pts if not q.is_inf]
    for i in range(len(finite)):
        for j in range(i + 1, len(finite)):
            join = BerkPoint.disc(finite[i].z, ref_vord(finite[i].z - finite[j].z, p))
            if not any(berk_equal(p, join, w) for w in vertices):
                vertices.append(join)

    def below(x: BerkPoint, y: BerkPoint) -> bool:
        if y.is_classical:
            return y.pt.is_inf or berk_equal(p, x, y)
        if x.is_classical:
            if x.pt.is_inf:
                return False
            v = ref_vord(x.pt.z - y.center, p)
        else:
            if x.radius_ord < y.radius_ord:
                return False
            v = ref_vord(x.center - y.center, p)
        return v is None or v >= y.radius_ord

    def sort_key(w: BerkPoint):
        if w.is_classical:
            return (0 if w.pt.is_inf else 2, Fraction(0))
        return (1, w.radius_ord)

    ordered = sorted(vertices, key=sort_key, reverse=True)
    edges = []
    for v in ordered:
        if v.is_classical and v.pt.is_inf:
            continue
        parent = None
        for u in ordered:
            if u is v or not below(v, u) or berk_equal(p, v, u):
                continue
            if parent is None or below(u, parent):
                parent = u
        if parent is not None:
            edges.append(TreeEdge(v, parent, v.pt.z if v.is_classical else v.center))
    return FiniteTree(tuple(ordered), tuple(edges))


# ---------------------------------------------------------------------------
# envelopes and the Gauss fiber by PWLinear arithmetic
# ---------------------------------------------------------------------------


def ref_lower_envelope(lines, lo, hi):
    """The lower envelope of integer lines as the full hull on the whole
    line, then restricted to [lo, hi] span by span (an interval collapsed
    onto one point takes the line in force there, the later one at a
    breakpoint)."""
    best: dict[int, int] = {}
    for k, c in lines:
        best[k] = min(c, best.get(k, c))
    hull: list[tuple[Fraction, Fraction]] = []
    for k, c in sorted(best.items(), reverse=True):
        k, c = Fraction(k), Fraction(c)
        # drop lines that the new one undercuts before they become minimal
        while len(hull) >= 2:
            (k1, c1), (k2, c2) = hull[-2], hull[-1]
            if (c - c1) / (k1 - k) <= (c2 - c1) / (k1 - k2):
                hull.pop()
            else:
                break
        hull.append((k, c))
    starts = [None] + [(c2 - c1) / (k1 - k2) for (k1, c1), (k2, c2) in zip(hull, hull[1:])]
    ends = starts[1:] + [None]
    pieces = []
    for start, end, (k, c) in zip(starts, ends, hull):
        s = lo if lo is not None and (start is None or start < lo) else start
        e = hi if hi is not None and (end is None or end > hi) else end
        if s is not None and e is not None and s >= e:
            continue
        pieces.append((s, k, c))
    if not pieces:
        at = lo if lo is not None else hi
        k, c = hull[max(i for i, s in enumerate(starts) if s is None or s <= at)]
        pieces = [(lo, k, c)]
    return PWLinear(lo, hi, tuple(pieces)).simplified()


def ref_zero_set(f):
    """Maximal closed intervals where a PWLinear vanishes, span by span: a
    zero span whole, a root of a sloped span when it lies in the closed
    span; touching intervals are then joined."""
    raw = []
    for start, end, k, c in f.spans():
        if k == 0:
            if c == 0:
                raw.append((start, end))
        else:
            root = Fraction(-c, k)
            if (start is None or start <= root) and (end is None or root <= end):
                raw.append((root, root))
    merged: list[list] = []
    for a, b in raw:
        if merged and (merged[-1][1] is None or a is None or a <= merged[-1][1]):
            if merged[-1][1] is not None and (b is None or b > merged[-1][1]):
                merged[-1][1] = b
            continue
        merged.append([a, b])
    return [(a, b) for a, b in merged]


def ref_candidate(p: int, wn: int, wd: int) -> tuple[int, int, int | None, int]:
    """The center record (wn, wd, ord wn, ord wd) of the integer pair
    (wn, wd), wd > 0, with the ords found by ``ref_vord``, None for
    wn = 0."""
    own = ref_vord(wn, p)
    return wn, wd, None if own is None else int(own), int(ref_vord(wd, p))


def ref_unit_residue_lifts(sh) -> list[int]:
    """0, then the integer lifts of the residues mod p of the unit ratios
    f_j / g_j (= qf[j] / qg[j]) of a shift's coefficients."""
    p = sh.p
    lifts = [0]
    for x, y, k, kg in zip(sh.qf, sh.qg, sh.of, sh.og):
        if k is None or k != kg:
            continue
        pk = p**k
        lift = x // pk * pow(y // pk, -1, p) % p
        if lift not in lifts:
            lifts.append(lift)
    return lifts


def ref_gauss_fiber_zero_set(sh, lo, hi):
    """The Gauss fiber on an edge as one zero set of max_w |e_w|, where
    e_w = env(f - w g) - env(g) over the residue candidates w, built by
    the reference subtraction and max.

    A point maps to the Gauss point iff ord(phi - w) = 0 for w = 0 and for
    every unit-residue lift w: a sub-unit image diameter forces
    cancellation against one of them."""
    sg = ref_lower_envelope(sh.g_lines(), lo, hi)
    total = None
    for w in ref_unit_residue_lifts(sh):
        env = ref_lower_envelope(sh.diff_lines(ref_candidate(sh.p, w, 1)), lo, hi)
        abs_e = ref_max(ref_sub(env, sg), ref_sub(sg, env))
        total = abs_e if total is None else ref_max(total, abs_e)
    return ref_zero_set(total)


def ref_gpr_scan(m: RationalMap, points):
    """gpr by the unscreened scan of every edge of the hull of ``points``,
    which must contain the Gauss fiber: each edge's fiber is the reference
    zero set on the shift at its center, the ends of each interval are
    recorded, lower t first, and every distinct point is re-verified
    through the pushforward, as ``gpr`` records its points."""
    p = m.p
    f, g = m.F, m.G
    best = None
    found = []
    for edge in hull_records(p, points).edges:
        center = edge.center
        for a, b in ref_gauss_fiber_zero_set(Shift.at(p, f, g, center), *t_range(edge)):
            assert a is not None and b is not None, "unbounded Gauss-fiber interval"
            for t in dict.fromkeys((a, b)):
                pt = BerkPoint.disc(center, t)
                if not any(berk_equal(p, pt, q) for q in found):
                    assert berk_equal(p, push_forward(m, pt), gauss_point()), (m, pt)
                    found.append(pt)
                s = diam_gauss(p, pt).frac
                if best is None or s > best[0]:
                    best = (s, pt)
    assert best is not None, "no Gauss preimage on the hull"
    return GprResult(Ord.of(best[0]), best[1], tuple(found))


def t_range(edge) -> tuple:
    """(t_lo, t_hi) of a hull edge as an interval in t = radius ord: the
    upper vertex's exponent (None when the edge runs to infinity) and the
    lower vertex's (None for a classical lower end)."""
    lo = None if edge.upper.is_classical else edge.upper.radius_ord
    hi = None if edge.lower.is_classical else edge.lower.radius_ord
    return lo, hi


def fiber_by_edge(m: RationalMap) -> list:
    """gpr's (K, s, fiber t's) for each edge of the hull of the map's
    zeros then poles, in ``hull``'s edge order: the lines and fibers that
    ``invariants._gauss_fiber`` reads on its arrays."""
    ff = m.require_factored()
    lines = _gauss_fiber(hull(m.p, ff.zeros, ff.poles), _vord(ff.c, m.p))
    return [(k, s, [t for t, _ in fiber]) for k, s, fiber in lines]


def ref_gpr_found_by_scan(m: RationalMap) -> GprResult:
    """gpr on the same hull edges and fiber points, with each new point
    compared against every point found so far by ``berk_equal`` (the
    dedupe before the key of where a point lies on the hull) and the
    diameters by ``diam_gauss``.  No point is re-verified here."""
    p = m.p
    ff = m.require_factored()
    edges = hull_records(p, [pt for pt, _ in ff.zeros] + [pt for pt, _ in ff.poles]).edges
    best = None
    found = []
    for edge, (_, _, ts) in zip(edges, fiber_by_edge(m)):
        for t in ts:
            pt = BerkPoint.disc(edge.center, t)
            if not any(berk_equal(p, pt, q) for q in found):
                found.append(pt)
            s = diam_gauss(p, pt).frac
            if best is None or s > best[0]:
                best = (s, pt)
    return GprResult(Ord.of(best[0]), best[1], tuple(found))


# ---------------------------------------------------------------------------
# PWLinear arithmetic by sampled alignment, and the radial profile on it
# ---------------------------------------------------------------------------
#
# Two functions are aligned on the union of their breakpoints, and the
# line of each in force on a stretch is looked up by a linear scan at a
# sample point inside it; a min or max splits a stretch where its two
# lines cross and keeps the line that is smaller or larger at a sample
# point of each part.


def _ref_line_at(f, t):
    """(slope, intercept) of the piece of f in force at t, the later piece
    at a breakpoint."""
    chosen = f.pieces[0]
    for piece in f.pieces[1:]:
        if piece[0] is not None and piece[0] <= t:
            chosen = piece
        else:
            break
    return chosen[1], chosen[2]


def _ref_value(f, t):
    k, c = _ref_line_at(f, t)
    return k * t + c


def _ref_sample_point(start, end):
    if start is None and end is None:
        return Fraction(0)
    if start is None:
        return end - 1
    if end is None:
        return start + 1
    return (start + end) / 2


def _ref_binary(f, g, mode):
    if f.lo != g.lo or f.hi != g.hi:
        raise ValueError("domain mismatch")
    starts = sorted({s for h in (f, g) for s, _, _ in h.pieces if s is not None and s != f.lo})
    cuts = [f.lo] + starts
    pieces = []
    for i, s in enumerate(cuts):
        e = cuts[i + 1] if i + 1 < len(cuts) else f.hi
        t = _ref_sample_point(s, e)
        (k1, c1), (k2, c2) = _ref_line_at(f, t), _ref_line_at(g, t)
        if mode == "sub":
            pieces.append((s, k1 - k2, c1 - c2))
            continue
        segs = [s]
        if k1 != k2:
            cross = Fraction(c2 - c1, k1 - k2)
            if (s is None or s < cross) and (e is None or cross < e):
                segs.append(cross)
        for j, s2 in enumerate(segs):
            t = _ref_sample_point(s2, segs[j + 1] if j + 1 < len(segs) else e)
            v1, v2 = k1 * t + c1, k2 * t + c2
            take_first = v1 <= v2 if mode == "min" else v1 >= v2
            pieces.append((s2, k1, c1) if take_first else (s2, k2, c2))
    return PWLinear(f.lo, f.hi, tuple(pieces)).simplified()


def ref_sub(f, g):
    return _ref_binary(f, g, "sub")


def ref_max(f, g):
    """Pointwise maximum, f's line kept where the two tie."""
    return _ref_binary(f, g, "max")


def ref_negative_regions(f):
    """Maximal closed intervals, of positive length, on whose interiors f
    is < 0: f is sampled between consecutive cuts (breakpoints and roots
    inside a span) and negative stretches that touch are joined."""
    cuts = [f.lo]
    for start, end, k, c in f.spans():
        if start is not None and start != f.lo and start not in cuts:
            cuts.append(start)
        if k != 0:
            root = Fraction(-c, k)
            if (start is None or start < root) and (end is None or root < end):
                cuts.append(root)
    regions = []
    for i, s in enumerate(cuts):
        e = cuts[i + 1] if i + 1 < len(cuts) else f.hi
        if s is not None and e is not None and s == e:
            continue
        if _ref_value(f, _ref_sample_point(s, e)) < 0:
            if regions and regions[-1][1] == s:
                regions[-1] = (regions[-1][0], e)
            else:
                regions.append((s, e))
    return regions


def _ref_image_diam_pieces(p, sh, lo, hi):
    """Per piece of max_w e_w, e_w = env(f - w g) - env(g): find a
    maximizing candidate w* at a sample point and fold the piece at
    min(0, ord w*), the diam_G exponent of a disc D(w*, p^-s).  The
    candidates are every same-index ratio qf[j]/qg[j] and 0, including
    those of negative ord."""
    sg = ref_lower_envelope(sh.g_lines(), lo, hi)
    cands = list(dict.fromkeys(Fraction(x, y) for x, y in zip(sh.qf, sh.qg) if y))
    if 0 not in cands:
        cands.append(Fraction(0))
    tagged = []
    for w in cands:
        lines = sh.diff_lines(ref_candidate(p, w.numerator, w.denominator))
        if not lines:
            raise InternalInvariantError("map degenerated to a constant")
        tagged.append((w, ref_sub(ref_lower_envelope(lines, lo, hi), sg)))
    big = tagged[0][1]
    for _, env in tagged[1:]:
        big = ref_max(big, env)
    pieces = []
    for start, end, k, c in big.spans():
        t_star = _ref_sample_point(start, end)
        w_star = next(w for w, env in tagged if _ref_value(env, t_star) == k * t_star + c)
        vb = ref_vord(w_star, p)
        piece = PWLinear(start, end, ((start, k, c),))
        floor = min(Fraction(0), vb) if vb is not None else Fraction(0)
        fold = _ref_binary(piece, PWLinear(start, end, ((start, Fraction(0), floor),)), "min")
        pieces.extend(ref_sub(ref_sub(piece, fold), fold).pieces)
    return pieces


def ref_radial_profile(m: RationalMap, center, t_min, events: set | None = None):
    """The radial profile by reference arithmetic: chart regions from the
    negative regions of env(f) - env(g), and per region the argmax-and-fold
    pieces over every candidate center.  The inversion chart is the shift
    with f and g swapped, built here, and env(f) is read as its env(g).
    ``events`` gains "swap" when a region uses the inversion chart."""
    from berklip.lipschitz import ProfileSegment, RadialProfile

    p = m.p
    center, t_min = Fraction(center), Fraction(t_min)
    f, g = m.F, m.G
    sh = Shift.at(p, f, g, center)
    inverted = Shift(p, sh.ov, sh.qg, sh.qf, sh.og, sh.of)
    sf = ref_lower_envelope(inverted.g_lines(), t_min, None)
    sigma = ref_sub(sf, ref_lower_envelope(sh.g_lines(), t_min, None))
    regions = []
    cursor = t_min
    for a, b in ref_negative_regions(sigma):
        if a > cursor:
            regions.append((cursor, a, False))
        regions.append((a, b, True))
        cursor = b
    if cursor is not None:
        regions.append((cursor, None, False))
    pieces = []
    for a, b, swapped in regions:
        if swapped and events is not None:
            events.add("swap")
        pieces.extend(_ref_image_diam_pieces(p, inverted if swapped else sh, a, b))
    profile = PWLinear(t_min, None, tuple(pieces)).simplified()
    segments = tuple(ProfileSegment(s, e, c, int(k)) for s, e, k, c in profile.spans())
    return RadialProfile(p, center, t_min, segments)


# ---------------------------------------------------------------------------
# test-only helpers, and the bisection compare and rendering of p-power sums
# ---------------------------------------------------------------------------


def with_multiplicity(pairs) -> list[ProjPoint]:
    """The points of a ``FactoredForm`` side, each repeated by its
    multiplicity."""
    return [pt for pt, m in pairs for _ in range(m)]


def is_disc(x: BerkPoint) -> bool:
    return x.pt is None


def value_ord_at(profile, t) -> Fraction:
    """Exponent s with image diameter p^(-s) at radius exponent t on a
    ``RadialProfile``."""
    t = Fraction(t)
    seg = profile.segments[0]
    for s in profile.segments[1:]:
        if s.t_hi <= t:
            seg = s
        else:
            break
    return seg.coeff_ord + seg.k * t


def dehomogenized(m: RationalMap) -> tuple[list, list]:
    return list(m.f), list(m.g)


def ord_p(p: int, x) -> Ord:
    """Exact p-adic valuation of a rational; ord_p(0) = +infinity."""
    x = Fraction(x)
    if x == 0:
        return ORD_INF
    return Ord.of(int_val(x.numerator, p) - int_val(x.denominator, p))


def seminorm(p: int, coeffs, x: BerkPoint) -> Ord:
    """Seminorm exponent of a polynomial at a disc point, read from the
    program's integer shift kernel.

    The coefficients (ascending, over QQ) are cleared to integers by their
    common denominator D and Taylor-shifted to the center u/v, and the
    Gauss-norm formula applies with the offset -d*ord v - ord D put back:
    the result s satisfies |poly|_x = p^(-s).
    """
    if x.is_classical:
        raise ValueError("seminorm expects a type II point")
    cs = [Fraction(c) for c in coeffs]
    den = math.lcm(*[c.denominator for c in cs])
    ints = [c.numerator * (den // c.denominator) for c in cs]
    u, v = x.center.numerator, x.center.denominator
    ov = int_val(v, p)
    lines = _lines(_ords(p, taylor_shift(_scaled(ints, v), u)), ov)
    offset = (len(ints) - 1) * ov + int_val(den, p)
    if not lines:
        raise ValueError("seminorm of the zero polynomial")
    tn, td = x.radius_ord.numerator, x.radius_ord.denominator
    return Ord.of(Fraction(min(o * td + j * tn for j, o in lines) - offset * td, td))


def mobius_from_matrix(p: int, entries) -> RationalMap:
    ((a, b), (c, d)) = _mat(entries)
    return from_coeffs(p, [b, a], [d, c])


def berk_point_from_json(data: dict) -> BerkPoint:
    try:
        if data["type"] == "I":
            return BerkPoint.classical(ProjPoint.parse(data["pt"]))
        if data["type"] == "II":
            return BerkPoint.disc(
                parse_fraction(data["center"]), parse_fraction(data["radius_ord"])
            )
    except (KeyError, TypeError) as e:
        raise ParseError(f"bad point object: {e}") from None
    raise ParseError(f"unknown point type {data.get('type')!r}")


def choice(rng: DetRng, seq):
    return seq[rng.next_u64() % len(seq)]


@dataclass(frozen=True, slots=True)
class Direction:
    """A tangent direction at a disc point, witnessed by a classical
    representative: the component of the complement of ``at`` containing
    the representative.  Only finitely many witnesses are ever
    materialized; equality of directions is :func:`same_direction`."""

    at: BerkPoint
    representative: ProjPoint

    def __post_init__(self):
        if not is_disc(self.at):
            raise ValueError("directions are attached to type II points")


def direction_key(p: int, at: BerkPoint, rep: ProjPoint):
    """Identify the direction at a disc point containing a classical rep.

    Returns None for the outward direction (representatives outside the
    disc, including infinity) and otherwise the integer residue lift of
    (rep - center)/p^t, which labels the inward sub-disc.
    """
    if not is_disc(at):
        raise ValueError("directions are attached to type II points")
    t = at.radius_ord
    if rep.is_inf:
        return None
    v = _vord(rep.z - at.center, p)
    if v is not None and v < t:
        return None
    if v is None or v > t:
        return 0
    off = (rep.z - at.center) / Fraction(p) ** t
    num = off.numerator % p
    den = off.denominator % p
    return num * pow(den, -1, p) % p


def same_direction(p: int, a: Direction, b: Direction) -> bool:
    if not berk_equal(p, a.at, b.at):
        return False
    return direction_key(p, a.at, a.representative) == direction_key(
        p, b.at, b.representative
    )


def diam_infty(x: BerkPoint) -> Ord:
    """Radius exponent of the disc seen from infinity; classical points
    are radius-0 (exponent +infinity)."""
    if x.is_classical:
        if x.pt.is_inf:
            raise ValueError("diam_infty undefined at infinity")
        return ORD_INF
    return Ord.of(x.radius_ord)


def rho(p: int, x: BerkPoint, y: BerkPoint) -> Fraction:
    """Logarithmic path distance between two disc points.

    Measured through the join toward infinity: the radius exponent is
    monotone along each half of the path, so the length is
    t_x + t_y - 2 * min(t_x, t_y, ord(a_x - a_y)).
    """
    if x.is_classical or y.is_classical:
        raise ValueError("rho infinite at classical points")
    cands = [x.radius_ord, y.radius_ord]
    vd = _vord(x.center - y.center, p)
    if vd is not None:
        cands.append(vd)
    m = min(cands)
    return x.radius_ord + y.radius_ord - 2 * m


@dataclass(frozen=True, slots=True)
class HomogCoords:
    """Nonzero homogeneous coordinates (X : Y) with rational entries."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        if self.x == 0 and self.y == 0:
            raise ParseError("homogeneous coordinates cannot both vanish")


def unit_normalize(p: int, h: HomogCoords) -> HomogCoords:
    """Scale by p^(-m), m the minimum coordinate valuation, so min ord = 0.

    Deterministic representative: only the p-power is removed, any unit
    content is kept.
    """
    vx = _vord(h.x, p)
    vy = _vord(h.y, p)
    m = min(v for v in (vx, vy) if v is not None)
    f = Fraction(p) ** -m
    return HomogCoords(h.x * f, h.y * f)


def ref_ppow_normalize(p: int, terms) -> PPowerSum:
    """The former ``ppow_normalize``: every class summed as Fractions, its
    p-valuation divided out by a ``Fraction`` power, one-term classes
    included."""
    groups: dict[Fraction, list[tuple[Fraction, Fraction]]] = {}
    for coef, exp in terms:
        coef, exp = Fraction(coef), Fraction(exp)
        if coef == 0:
            continue
        cls = exp - math.floor(exp)
        groups.setdefault(cls, []).append((coef, exp))
    out = []
    for cls, items in groups.items():
        base = min(e for _, e in items)
        total = Fraction(0)
        for coef, exp in items:
            total += coef * Fraction(p) ** int(exp - base)
        if total == 0:
            continue
        if total < 0:
            raise ValueError("non-positive term")
        v = int(ref_vord(total, p))
        unit = total / Fraction(p) ** v
        out.append((unit, base + v))
    out.sort(key=lambda t: t[1], reverse=True)
    return PPowerSum(tuple(out))


def ppow_add(p: int, *sums: PPowerSum) -> PPowerSum:
    raw = [term for s in sums for term in s.terms]
    return ppow_normalize(p, raw)


def _sum_bounds(terms, lo: Fraction, hi: Fraction):
    """Interval bounds of sum c * X^k for X in [lo, hi], all c > 0."""
    lo_val = Fraction(0)
    hi_val = Fraction(0)
    for c, k in terms:
        if k >= 0:
            lo_val += c * lo**k
            hi_val += c * hi**k
        else:
            lo_val += c * hi**k
            hi_val += c * lo**k
    return lo_val, hi_val


def _root_terms(s: PPowerSum, m: int):
    return [(c, int(e * m)) for c, e in s.terms]


def ref_compare_by_bisection(p: int, a: PPowerSum, b: PPowerSum) -> int:
    """The former strict ``ppow_compare`` of unequal values: with m the lcm
    of the exponent denominators, both sides are polynomials in X = p^(1/m)
    with positive coefficients, and a bisected dyadic enclosure of X is
    refined until their enclosures are disjoint.  Its cost grows with m."""
    m = math.lcm(*[e.denominator for _, e in a.terms + b.terms], 1)
    ta, tb = _root_terms(a, m), _root_terms(b, m)
    lo, hi = Fraction(1), Fraction(p)
    for _ in range(256):
        for _ in range(8):
            mid = (lo + hi) / 2
            if mid**m <= p:
                lo = mid
            else:
                hi = mid
        a_lo, a_hi = _sum_bounds(ta, lo, hi)
        b_lo, b_hi = _sum_bounds(tb, lo, hi)
        if a_hi < b_lo:
            return -1
        if b_hi < a_lo:
            return 1
    raise ArithmeticError("enclosure refinement failed to separate unequal values")


def ref_ppow_decimal_enclosure(p: int, s: PPowerSum, digits: int = 12):
    """The former ``ppow_decimal``: bisect an enclosure of X = p^(1/m)
    until the enclosure [lo, hi] of the value is narrower than
    lo / 10^(digits + 4), then round its midpoint.  Returns (lo, hi,
    rendering); its cost grows with m and the exponents."""
    if s.is_zero:
        return Fraction(0), Fraction(0), "0"
    m = math.lcm(*[e.denominator for _, e in s.terms], 1)
    if m == 1:
        val = sum(c * Fraction(p) ** int(e) for c, e in s.terms)
        lo_val = hi_val = val
    else:
        terms = _root_terms(s, m)
        lo, hi = Fraction(1), Fraction(p)
        lo_val, hi_val = _sum_bounds(terms, lo, hi)
        while hi_val - lo_val > lo_val / 10 ** (digits + 4):
            mid = (lo + hi) / 2
            if mid**m <= p:
                lo = mid
            else:
                hi = mid
            lo_val, hi_val = _sum_bounds(terms, lo, hi)
    mid_val = (lo_val + hi_val) / 2
    return lo_val, hi_val, _round_fraction(mid_val, digits)


def _round_fraction(x: Fraction, digits: int) -> str:
    ctx = getcontext().copy()
    ctx.prec = digits
    return str(ctx.divide(Decimal(x.numerator), Decimal(x.denominator)))
