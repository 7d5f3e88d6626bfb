"""Tree-geometric invariants of a rational map.

* rp_ord    -- smallest spherical distance between a zero and a pole.
* hull      -- the convex hull (Steiner tree) of finitely many classical
               points inside the Berkovich line.
* gpr       -- the Gauss preimage radius: the minimum diameter among the
               preimages of the Gauss point, found by an exact edge scan
               of the zero/pole hull.
* bundle    -- all invariants of one map, with the inequality chain
               |Res| <= GPR <= RP <= 1 and GIR >= |Res|^(1/d) asserted.

The preimages of the Gauss point lie on the hull of the zeros and poles:
off the hull all zeros and poles sit in a single direction, while a point
mapping onto the Gauss point must separate a zero-direction from a
pole-direction.  On a hull edge with center a, a disc point zeta_{a, t}
maps to the Gauss point iff the seminorm of phi - w is exactly 1 for w = 0
and for every unit residue candidate w; both conditions are piecewise
linear in t, so the solution set is computed exactly and each distinct
solution is re-verified through the pushforward.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .berk import (
    BerkPoint,
    Shift,
    berk_equal,
    gauss_point,
    push_forward,
    _diam_gauss_frac,
)
from .errors import InternalInvariantError
from .piecewise import PWLinear, lower_envelope
from .projective import ProjPoint, _vord, spherical_ord
from .ratmap import RationalMap, _int_coeff_pair, gir_minors, normalize, resultant_ord
from .valued import Ord

__all__ = [
    "TreeEdge",
    "FiniteTree",
    "InvariantBundle",
    "rp_ord",
    "hull",
    "gpr",
    "bundle",
]


# ---------------------------------------------------------------------------
# root-pole number
# ---------------------------------------------------------------------------


def rp_ord(m: RationalMap) -> Ord:
    """Largest exponent t with p^(-t) the minimal zero-pole spherical
    distance."""
    ff = m.require_factored()
    best: Ord | None = None
    for alpha, _ in ff.zeros:
        for beta, _ in ff.poles:
            s = spherical_ord(m.p, alpha, beta)
            if best is None or s > best:
                best = s
    if best is None or best.is_inf:
        raise InternalInvariantError("zero/pole lists cannot be empty or meet")
    return best


# ---------------------------------------------------------------------------
# convex hulls of classical points
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TreeEdge:
    """A radial edge {zeta_{center, t}} between two tree vertices.

    ``lower`` is the small-radius end (larger t, possibly a classical
    point), ``upper`` the large-radius end (smaller t, possibly the point
    at infinity).  The center is a classical witness below the edge, so
    every edge point is zeta_{center, t}.
    """

    lower: BerkPoint
    upper: BerkPoint
    center: Fraction

    def t_range(self) -> tuple[Fraction | None, Fraction | None]:
        """(t_lo, t_hi) of the edge as an interval in t = radius ord.

        t_lo is the upper vertex's exponent (None when the edge runs to
        infinity), t_hi the lower vertex's (None for a classical lower
        end, where t -> +infinity).
        """
        lo = None if self.upper.is_classical else self.upper.radius_ord
        hi = None if self.lower.is_classical else self.lower.radius_ord
        return lo, hi


@dataclass(frozen=True, slots=True)
class FiniteTree:
    vertices: tuple[BerkPoint, ...]
    edges: tuple[TreeEdge, ...]


def _below(p: int, x: BerkPoint, y: BerkPoint) -> bool:
    """Whether x lies weakly below y in the order toward infinity
    (the disc of x is contained in the disc of y)."""
    if y.is_classical:
        return y.pt.is_inf or berk_equal(p, x, y)
    if x.is_classical:
        if x.pt.is_inf:
            return False
        v = _vord(x.pt.z - y.center, p)
        return v is None or v >= y.radius_ord
    if x.radius_ord < y.radius_ord:
        return False
    v = _vord(x.center - y.center, p)
    return v is None or v >= y.radius_ord


def hull(p: int, points) -> FiniteTree:
    """Convex hull in the Berkovich line of >= 2 distinct classical points.

    Vertices are the inputs plus all pairwise joins; each edge is radial
    with the lower vertex's classical center as witness.

    The join of finite inputs z_i, z_j (i < j) is the disc D(z_i, s),
    s = ord(z_i - z_j).  Joins are deduplicated by a key, not by comparing
    each with every vertex: from the matrix of pairwise ords, computed
    once, D(z_i, s) is keyed by s and the lowest index k of an input in it
    (the lowest k with ord(z_i - z_k) >= s).  The first pair to produce a
    disc has i = k, so a join is new exactly when no input before z_i lies
    in it (s exceeds every ord(z_i - z_k), k < i) and s is new for this i.
    Each disc keeps the center and the position of its first appearance.
    """
    pts: list[ProjPoint] = []
    for q in points:
        if q not in pts:
            pts.append(q)
    if len(pts) < 2:
        raise ValueError("hull needs at least 2 distinct points")

    vertices: list[BerkPoint] = [BerkPoint.classical(q) for q in pts]
    finite = [q.z for q in pts if not q.is_inf]
    n = len(finite)
    ords = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            ords[i][j] = ords[j][i] = _vord(finite[i] - finite[j], p)
    for i, row in enumerate(ords):
        earlier = max(row[:i], default=None)
        radii = set()
        for s in row[i + 1 :]:
            if (earlier is None or s > earlier) and s not in radii:
                radii.add(s)
                vertices.append(BerkPoint.disc(finite[i], s))

    def sort_key(w: BerkPoint):
        if w.is_classical:
            return (2, Fraction(0)) if not w.pt.is_inf else (0, Fraction(0))
        return (1, w.radius_ord)

    # deepest first: classical finite points, then discs by descending t
    ordered = sorted(vertices, key=sort_key, reverse=True)
    edges: list[TreeEdge] = []
    for v in ordered:
        if v.is_classical and v.pt.is_inf:
            continue
        parent = None
        for u in ordered:
            if u is v or not _below(p, v, u) or berk_equal(p, v, u):
                continue
            if parent is None or _below(p, u, parent):
                parent = u
        if parent is None:
            continue  # the root vertex
        center = v.pt.z if v.is_classical else v.center
        edges.append(TreeEdge(v, parent, center))
    roots = len(vertices) - len(edges)
    if roots != 1:
        raise InternalInvariantError("hull is not a single tree")
    return FiniteTree(tuple(ordered), tuple(edges))


# ---------------------------------------------------------------------------
# the Gauss preimage radius
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class GprResult:
    ord: Ord
    argmin: BerkPoint
    preimages: tuple[BerkPoint, ...]


def _gauss_fiber_zero_set(sh: Shift, lo, hi):
    """Solution intervals of phi(zeta_{center, t}) = Gauss point on [lo, hi],
    given f and g Taylor-shifted to the center.

    The point maps to the Gauss point iff ord|phi - w| = 0 for w = 0 and
    for every unit-residue candidate w (a sub-unit image diameter forces
    cancellation against one of them), so the zero set of
    max_w |ord(phi - w)| is exactly the fiber restricted to the edge.
    """
    sg = lower_envelope(sh.g_lines(), lo, hi)
    total: PWLinear | None = None
    for w in sh.unit_residue_lifts():
        lines = sh.diff_lines(w)
        if not lines:
            raise InternalInvariantError("map degenerated to a constant")
        e = lower_envelope(lines, lo, hi) - sg
        abs_e = e.max_with(-e)
        total = abs_e if total is None else total.max_with(abs_e)
    return total.zero_set()


def gpr(m: RationalMap, hull_points=None) -> GprResult:
    """Minimal Gauss-point preimage diameter and a witness point.

    The search space is the hull of the zeros and poles (or of the given
    override points, which must contain the fiber).  f and g are cleared
    to integers once and shifted once per distinct edge center, and every
    distinct solution found by the piecewise scan is re-verified once
    through push_forward.
    """
    p = m.p
    if hull_points is None:
        ff = m.require_factored()
        hull_points = [pt for pt, _ in ff.zeros] + [pt for pt, _ in ff.poles]
    tree = hull(p, hull_points)
    f, g = _int_coeff_pair(m)
    shifts: dict[Fraction, Shift] = {}
    best: tuple[Fraction, BerkPoint] | None = None
    found: list[BerkPoint] = []
    for edge in tree.edges:
        center = edge.center
        if center not in shifts:
            shifts[center] = Shift.at(p, f, g, center)
        lo, hi = edge.t_range()
        for a, b in _gauss_fiber_zero_set(shifts[center], lo, hi):
            if a is None or b is None:
                raise InternalInvariantError("unbounded Gauss-fiber interval")
            for t in {a, b}:
                pt = BerkPoint.disc(center, t)
                if not any(berk_equal(p, pt, q) for q in found):
                    if not berk_equal(p, push_forward(m, pt), gauss_point()):
                        raise InternalInvariantError(
                            "edge scan produced a non-preimage; candidate set bug"
                        )
                    found.append(pt)
                s = _diam_gauss_frac(p, center, t)
                if best is None or s > best[0]:
                    best = (s, pt)
    if best is None:
        raise InternalInvariantError("internal: preimage must lie on hull")
    return GprResult(Ord.of(best[0]), best[1], tuple(found))


# ---------------------------------------------------------------------------
# the combined bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class InvariantBundle:
    p: int
    d: int
    gir: Ord
    res: Ord
    rp: Ord | None
    gpr: Ord | None
    gpr_argmin: BerkPoint | None
    b0_lower: Ord | None  # = rp, a computable lower bound for the
    # ball-mapping radius (whose exact value is out of reach)
    note: str | None = None  # why zero/pole invariants are absent


def bundle(m: RationalMap) -> InvariantBundle:
    """All invariants of one map; asserts the inequality chain before
    returning."""
    m = normalize(m)
    gir = gir_minors(m)
    res = resultant_ord(m)
    rp = gp = argmin = note = None
    if m.factored is not None:
        rp = rp_ord(m)
        result = gpr(m)
        gp, argmin = result.ord, result.argmin
        # value form: |Res| <= GPR <= RP <= 1
        if not (res >= gp and gp >= rp and rp >= Ord.of(0)):
            raise InternalInvariantError("invariant chain violated")
    else:
        note = (
            "rp/gpr need the zero/pole factorization; the map's roots are "
            "not rational and are never approximated"
        )
    if gir > res * Fraction(1, m.d):
        raise InternalInvariantError("GIR >= |Res|^(1/d) violated")
    return InvariantBundle(m.p, m.d, gir, res, rp, gp, argmin, rp, note)
