"""Tree-geometric invariants of a rational map.

* rp_ord    -- smallest spherical distance between a zero and a pole,
               one valuation per zero/pole pair.
* hull      -- the convex hull (Steiner tree) of finitely many classical
               points inside the Berkovich line: the single-linkage tree
               of their pairwise ords, merged from one link per point to
               its nearest earlier point.
* gpr       -- the Gauss preimage radius: the minimum diameter among the
               preimages of the Gauss point, found by an exact edge scan
               of the zero/pole hull.
* bundle    -- all invariants of one map, with the inequality chain
               |Res| <= GPR <= RP <= 1 and GIR >= |Res|^(1/d) asserted;
               the last map's bundle is kept for a repeat call.

The preimages of the Gauss point lie on the hull of the zeros and poles:
off the hull all zeros and poles sit in a single direction, while a point
mapping onto the Gauss point must separate a zero-direction from a
pole-direction.  Each distinct preimage, told apart from the others by
where it lies on the hull (a vertex, or a point inside one edge), is
re-verified once through the pushforward, and its identity with the Gauss
point decided by ``berk_equal``.

Most hull edges cannot meet the fiber, and the factored form says which.
On a hull edge ord phi(zeta_{a, t}) is the line K + s*t, s = zeros -
poles below the edge's lower vertex (proof in ``gpr``; the lines are
computed in ints by ``_ord_phi_lines``).  A Gauss preimage has ord phi =
0, so an edge on which K + s*t has no zero holds none.  An edge that
passes is decided by its slope alone, with no Taylor shift: when s != 0
its fiber is its one point t0 = -K/s, and when s = 0 it is those of its
two ends that touch an edge of nonzero slope.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from .berk import (
    BerkPoint,
    berk_equal,
    gauss_point,
    push_forward,
    _diam_gauss_frac,
)
from .errors import InternalInvariantError
from .projective import INF_POINT, ProjPoint, _vord
from .ratmap import FactoredForm, RationalMap, _zero_pole_ords, gir_minors, resultant_ord
from .valued import Ord, int_val

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
    distance: the largest distance exponent ``ratmap._zero_pole_ords``
    gives, one valuation per zero/pole pair."""
    best = max((s for _, s in _zero_pole_ords(m.p, m.require_factored())), default=None)
    if best is None:
        raise InternalInvariantError("zero/pole lists cannot be empty")
    return Ord.of(best)


# ---------------------------------------------------------------------------
# convex hulls of classical points
# ---------------------------------------------------------------------------


class TreeEdge(NamedTuple):
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


class FiniteTree(NamedTuple):
    vertices: tuple[BerkPoint, ...]
    edges: tuple[TreeEdge, ...]


def hull(p: int, points) -> FiniteTree:
    """Convex hull in the Berkovich line of >= 2 distinct classical points.

    Vertices are the inputs plus all pairwise joins; each edge is radial
    with the lower vertex's classical center as witness.

    The tree is the single-linkage dendrogram of the finite inputs z_0,
    ..., z_(n-1) under ord(z_i - z_j), an ultrametric (Gower and Ross,
    Minimum spanning trees and single linkage cluster analysis, Appl.
    Stat. 1969), built from n - 1 links.  Each z_i, i >= 1, links to z_j,
    j_i the lowest j < i attaining s_i = max_(j < i) ord(z_i - z_j); the
    ords are computed in integers, ord(a/d - a'/d') = ord(a d' - a' d) -
    ord d - ord d', with the ord of each denominator taken once.  The
    links are merged by descending s with a union-find whose root is the
    lowest index, and each cluster that the links of one level s touch
    becomes the vertex D(z_root, s), the parent of the previous top
    vertices of the clusters it merged.

    Proof that these are the hull's discs.  At a threshold sigma, the
    classes {k : ord(z_i - z_k) >= sigma} are the inputs in the discs
    D(z_i, sigma).  In a class, every member i other than its lowest
    index e has s_i >= ord(z_i - z_e) >= sigma, and z_(j_i) lies in
    D(z_i, s_i), inside the class; so i links to an earlier member of its
    class, and following the links from any member reaches e.  A link of
    level >= sigma joins two points of one class.  So the links with s >=
    sigma connect exactly the classes at sigma.  A class at s is a hull
    vertex iff it is not also a class at s + 1 (levels are ints), that is
    iff a link of level exactly s lies in it, and it is then the disc D(z_e, s)
    with e its lowest index, the union-find root.  Its children are the
    classes at s + 1 inside it, the top vertices of the clusters merged
    at s.

    The top cluster holds every finite input: its parent is infinity
    when infinity is an input, and otherwise it is the root.  Vertices
    are ordered deepest first: finite inputs in input order, discs by
    descending radius exponent, ties by lowest index, then infinity; the
    levels come in descending order and each level's clusters in
    ascending root order, so the vertices need no sort.  Edges follow that
    order.
    """
    pts: list[ProjPoint] = list(dict.fromkeys(points))
    if len(pts) < 2:
        raise ValueError("hull needs at least 2 distinct points")

    finite = [q.z for q in pts if not q.is_inf]
    n = len(finite)
    nums = [z.numerator for z in finite]
    dens = [z.denominator for z in finite]
    od = [int_val(d, p) for d in dens]
    links = []
    for i in range(1, n):
        a, d, o = nums[i], dens[i], od[i]
        row = [int_val(a * dens[j] - nums[j] * d, p) - o - od[j] for j in range(i)]
        s = max(row)
        links.append((s, i, row.index(s)))
    links.sort(reverse=True)

    # the finite inputs first, then each disc as it is made
    vertices = [BerkPoint.classical(q) for q in pts if not q.is_inf]
    up: list[int | None] = [None] * n  # parent vertex of each vertex
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
        for r, below in children.items():
            top[r] = len(vertices)
            vertices.append(BerkPoint.disc(finite[r], s))
            up.append(None)
            for c in below:
                up[c] = top[r]
    if n < len(pts):  # infinity is an input
        up[top[0]] = len(vertices)
        vertices.append(BerkPoint.classical(INF_POINT))
        up.append(None)
    edges = tuple(
        TreeEdge(w, vertices[u], w.pt.z if w.is_classical else w.center)
        for w, u in zip(vertices, up)
        if u is not None
    )
    if len(vertices) - len(edges) != 1:
        raise InternalInvariantError("hull is not a single tree")
    return FiniteTree(tuple(vertices), edges)


# ---------------------------------------------------------------------------
# the Gauss preimage radius
# ---------------------------------------------------------------------------


class GprResult(NamedTuple):
    ord: Ord
    argmin: BerkPoint
    preimages: tuple[BerkPoint, ...]


def _ord_phi_lines(p: int, ff: FactoredForm, edges) -> list[tuple[int, int]]:
    """(K, s) for each edge of the zero/pole hull, in edge order, with
    ord phi(zeta_{center, t}) = K + s*t on the edge.

    s is the signed multiplicity of the inputs below the lower vertex,
    summed bottom-up (the edges come deepest first), and K comes from one
    top-down walk of the vertex values: an edge up to infinity has K =
    ord C, the root disc (when infinity is no input) has ord C, and
    F(lower) = F(upper) + s * (t_hi - t_lo).  No shift and no valuation
    beyond ord C is needed, and everything is an int: the hull's radius
    exponents are ords of differences of its inputs.  Vertices are keyed
    by identity, since ``hull`` builds each once and every edge at it
    refers to that object.
    """
    mult: dict[tuple[int, int], int] = {}  # keyed without hashing a Fraction
    for sign, side in ((1, ff.zeros), (-1, ff.poles)):
        for pt, k in side:
            if not pt.is_inf:
                key = pt.z.numerator, pt.z.denominator
                mult[key] = mult.get(key, 0) + sign * k
    below: dict[int, int] = {}
    slopes = []
    for e in edges:
        # a classical lower vertex is a finite input and a leaf
        if e.lower.is_classical:
            s = mult[e.center.numerator, e.center.denominator]
        else:
            s = below[id(e.lower)]
        below[id(e.upper)] = below.get(id(e.upper), 0) + s
        slopes.append(s)
    oc = _vord(ff.c, p)
    # the last vertex, above every other; as a disc it has ord phi = ord C
    value = {id(edges[-1].upper): oc}
    lines = []
    for e, s in zip(reversed(edges), reversed(slopes)):
        if e.upper.is_classical:  # infinity: every finite input is below
            k = oc
        else:
            t = e.upper.radius_ord.numerator
            k = value[id(e.upper)] - s * t
        if not e.lower.is_classical:
            value[id(e.lower)] = k + s * e.lower.radius_ord.numerator
        lines.append((k, s))
    lines.reverse()
    return lines


def _has_zero(k: int, s: int, lo, hi) -> bool:
    """Whether K + s*t vanishes somewhere on [lo, hi] (None: unbounded)."""
    if s == 0:
        return k == 0
    # the signs of the line at the two ends (times their positive
    # denominators); at an open end, those of -s and s
    a = -s if lo is None else k * lo.denominator + s * lo.numerator
    b = s if hi is None else k * hi.denominator + s * hi.numerator
    return a <= 0 <= b or b <= 0 <= a


def _fiber_points(p: int, ff: FactoredForm, edges) -> list[list[Fraction]]:
    """For each edge of the zero/pole hull, in edge order, the t of its
    Gauss preimages zeta_{center, t}, upper end first (proof in ``gpr``).

    A screened edge of slope s != 0 gives its one point t0 = -K/s, and a
    flat screened edge (s = 0, K = 0) those of its two ends that touch an
    edge of nonzero slope, screened or not.  Vertices are keyed by
    identity, as in ``_ord_phi_lines``.
    """
    lines = _ord_phi_lines(p, ff, edges)
    sloped = {id(v) for e, (_, s) in zip(edges, lines) if s for v in (e.upper, e.lower)}
    out = []
    for e, (k, s) in zip(edges, lines):
        if not _has_zero(k, s, *e.t_range()):
            out.append([])
        elif s:
            out.append([Fraction(-k, s)])
        else:
            out.append([v.radius_ord for v in (e.upper, e.lower) if id(v) in sloped])
    return out


def gpr(m: RationalMap) -> GprResult:
    """Minimal Gauss-point preimage diameter and a witness point.

    The search space is the hull of the zeros and poles.  Each edge's
    preimages are read from the factored form by ``_fiber_points``, with
    no Taylor shift, and every distinct one is re-verified once through
    push_forward.

    The edges are screened first by the slope rule: ord phi(zeta_{a, t})
    = K + s*t on an edge, s = (zeros - poles below the edge's lower
    vertex, with multiplicity), and a Gauss preimage has ord phi = 0, so
    an edge on which K + s*t has no zero holds none.  Proof: with phi = C
    prod (z - alpha)^(m) / prod (z - beta)^(n) over the finite zeros and
    poles, ord phi(zeta_{a, t}) = ord C + sum m min(ord(a - alpha), t) -
    sum n min(ord(a - beta), t).  Each input lies below the lower vertex
    (ord(a - alpha) >= t_hi, its term is t on the edge) or leaves the path
    at or above the upper vertex (ord(a - alpha) <= t_lo, its term is
    constant on the edge); infinity is never below.  The function is
    continuous along the tree, and at the root disc, which contains every
    finite input, it is ord C + t_root * (finite zeros - finite poles) =
    ord C: the root is a disc only when infinity is neither a zero nor a
    pole, and then both sides have d finite points.

    A passing edge with s != 0 meets the fiber exactly at t0 = -K/s.  A
    preimage has ord phi = K + s*t = 0, and the line vanishes only at t0,
    which lies on the edge since it passed.  Conversely let zeta =
    zeta_{a, t0}, so |phi|_zeta = 1.  If phi(zeta) were not the Gauss
    point, it would be a disc D(w*, r) with r < 1 and max(|w*|, r) = 1,
    so w* is a unit.  Then |phi| = |w*| = 1 on the open set
    phi^-1(D^-(w*, 1)), which contains zeta and so a piece of the edge
    around t0, and K + s*t would vanish on an interval, against s != 0.

    A passing edge with s = 0 has K = 0, so ord phi = 0 along it.  Its
    preimages are exactly those of its two ends that touch an edge of
    nonzero slope, by the reduction of phi at a type II point (Baker-
    Rumely, Potential Theory and Dynamics on the Berkovich Projective
    Line, AMS 2010):

    * Interior points.  The directions off a hull edge hold no zero and no
      pole, so at zeta_{a, t} inside the edge the reduction of phi is
      c u^s.  With s = 0 it is constant, so no interior point of a flat
      edge is a preimage.  The same fact gives t0 on a sloped edge.
    * Vertices.  At a vertex v with |phi|_v = 1 the reduction is c prod_d
      (u - u_d)^(n_d), n_d the zeros minus poles, with multiplicity, in
      direction d, and phi(v) is the Gauss point iff it is not constant.
      The directions that hold inputs are exactly the hull edges at v.
      For a child edge n_d is that edge's slope s; for the parent
      direction it is minus the parent edge's slope, because the counts
      sum to 0, and at the root disc it is 0.  So phi(v) is the Gauss
      point iff some edge at v has s != 0.
    * Flat edges have finite ends.  A leaf edge has slope the leaf's
      multiplicity, and an edge up to infinity slope +- the multiplicity
      at infinity, so a flat edge never ends at a leaf or at infinity:
      both ends are discs, and t is finite.
    * No intervals.  phi is finite-to-one, so the fiber is finite.

    Every record names the point by the edge center, so ``found``, the
    argmin and their order are those of the scan of every edge's whole
    fiber.

    A preimage is recorded once, by a key of where it lies on the hull:
    at an end of its edge (t equal to an end of ``t_range``) by the
    identity of that vertex, inside the edge by (edge index, t).  Two
    records name one point exactly when their keys agree.  The hull is a
    tree: ``hull`` builds each vertex once, and every edge at a vertex
    refers to that object; the open edges are disjoint from each other and
    from the vertices; and on one edge t names one point.  So no two
    distinct points share a key and no point has two keys: the set of keys
    decides what a ``berk_equal`` scan of ``found`` would, without its
    cost quadratic in the preimages.
    """
    p = m.p
    ff = m.require_factored()
    edges = hull(p, [pt for pt, _ in ff.zeros] + [pt for pt, _ in ff.poles]).edges
    best: tuple[Fraction, BerkPoint] | None = None
    found: list[BerkPoint] = []
    seen = set()  # the keys of the points in found
    for i, (edge, ts) in enumerate(zip(edges, _fiber_points(p, ff, edges))):
        center = edge.center
        lo, hi = edge.t_range()
        for t in ts:
            pt = BerkPoint.disc(center, t)
            key = id(edge.upper) if t == lo else id(edge.lower) if t == hi else (i, t)
            if key not in seen:
                if not berk_equal(p, push_forward(m, pt), gauss_point()):
                    raise InternalInvariantError(
                        "edge scan produced a non-preimage; candidate set bug"
                    )
                seen.add(key)
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


class InvariantBundle(NamedTuple):
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


_last = None  # (map, its bundle) for the last map ``bundle`` built


def bundle(m: RationalMap) -> InvariantBundle:
    """All invariants of one map; asserts the inequality chain before
    returning.

    The last map's bundle is kept, keyed by object identity: a call with
    that same object returns it, so a bound report on a map its caller
    just bundled computes nothing twice.  Exact, since a ``RationalMap``
    is immutable and its bundle a pure function of it, checked when built.
    One entry, not a cache: any other object (an equal map built again
    too) is computed and replaces it, and a bundle that raises is never
    kept.  It is read once, so a concurrent caller can only miss.
    """
    global _last
    last = _last
    if last is not None and last[0] is m:
        return last[1]
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
    _last = last = (m, InvariantBundle(m.p, m.d, gir, res, rp, gp, argmin, rp, note))
    return last[1]
