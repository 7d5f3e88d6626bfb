"""Tree-geometric invariants of a rational map.

* hull      -- the convex hull (Steiner tree) in the Berkovich line of a
               map's zeros and poles, as integer arrays.
* rp_ord    -- smallest spherical distance between a zero and a pole.
* gpr       -- the Gauss preimage radius, the least diameter of a Gauss
               point preimage, by an exact edge scan of the hull.
* bundle    -- all invariants of one map, with the inequality chain
               |Res| <= GPR <= RP <= 1 and GIR >= |Res|^(1/d) asserted;
               the last map's bundle is kept for a repeat call.

One kernel, ``hull``, turns the zeros and poles into the tree of their
pairwise ords: per vertex its parent, radius exponent, center's input
index and the signed multiplicity below it.  It is built top-down by
pivot scans: each cluster of inputs is valued once against its lowest
index, and splits by those ords and their leading p-adic digits, so
each pair is valued at most once, and a tree of height h takes at most
n*h valuations (proof in ``hull``).  rp is read at each disc from its
radius and the ords of the denominators below it, or at infinity (proof
in ``rp_ord``).  ``bundle`` builds the hull once per map, and ``rp_ord``
and ``gpr`` read that one object.

The preimages of the Gauss point lie on the hull of the zeros and poles:
off it all of them sit in one direction, while a preimage separates a
zero-direction from a pole-direction.  On a hull edge ord phi is a line
K + s*t, s = zeros - poles below the edge, so each edge is decided by
its slope alone, with no Taylor shift, and each distinct preimage, told
apart by where it lies on the hull, is re-verified once through the
pushforward (proofs in ``gpr``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .berk import BerkPoint, _diam_gauss_frac, berk_equal, gauss_point, push_forward
from .errors import InternalInvariantError
from .projective import _vord
from .ratmap import RationalMap, gir_minors, resultant_ord
from .valued import Ord, _quotient, int_val

__all__ = [
    "Hull",
    "InvariantBundle",
    "rp_ord",
    "hull",
    "gpr",
    "bundle",
]


# ---------------------------------------------------------------------------
# the hull of the zeros and poles
# ---------------------------------------------------------------------------


class Hull(NamedTuple):
    """The arrays of ``hull``, one entry per vertex: the finite inputs,
    then the discs, deepest first, then infinity when it is an input.  A
    vertex comes before its parent, and its edge runs from it to up[v]."""

    points: list[int | Fraction]  # the finite inputs, zeros first
    up: list[int | None]  # parent vertex, None at the top
    t: list[int | None]  # radius exponent of a disc, None at a classical vertex
    center: list[int | None]  # input index of the center, None at infinity
    below: list[int]  # signed multiplicity at or under v: the slope of its edge
    rp: int | None  # largest zero/pole distance exponent; None with no pair

    @property
    def edges(self) -> list[int | None]:
        """The upper end of each edge, one per vertex below the top (the
        last vertex), in vertex order."""
        return self.up[:-1]


def hull(p: int, zeros, poles) -> Hull:
    """The convex hull in the Berkovich line of >= 2 distinct classical
    points, given as (ProjPoint, multiplicity) pairs, ``zeros`` counted +
    and ``poles`` -: the inputs and all their pairwise joins.  The finite
    inputs z_0, ..., z_(n-1) keep input order, zeros first.  Fewer than 2
    inputs, or a point listed twice among the zeros or among the poles, is
    a ValueError.

    The tree is built top-down, one cluster of finite inputs at a time,
    each cluster scanned from its pivot c, its lowest input index.  Every
    z_j of the cluster takes one valuation e_j = ord(z_j - z_c), in
    integers ord(a b' - a' b) - ord b - ord b' for z_j = a/b and z_c =
    a'/b', each denominator's ord taken once.  With s = min e_j the
    cluster is the disc D(z_c, s), a vertex with t = s and center c.  Its
    children are the classes of its members at s + 1: those with e_j > s
    stay with the pivot, and the others split by the leading p-adic digit
    of (z_j - z_c)/p^s.  That unit is (a b' - a' b)/p^k times the
    inverse units of b and b', k its ord, so the digit is read mod p from
    the pair's integer already valued and the unit part of b, inverted
    mod p once per input; the unit part of b' is common to the cluster,
    and multiplying every digit by it changes none of the classes.  Each
    child of two or more members is a cluster in turn, and one member is a
    leaf.

    Proof that these are the hull's discs.  The finite inputs in a disc
    D(z_c, sigma) are the class {j : ord(z_j - z_c) >= sigma}, and a class
    is a hull vertex iff it is not also a class at sigma + 1 (levels are
    ints).  Every member of the cluster lies in D(z_c, s) and some e_j = s,
    so it is not one class at s + 1: it is the vertex D(z_c, s), and the
    cluster of all finite inputs is the top disc.  Two members j, l are in
    one class at s + 1 iff ord(z_j - z_l) > s.  If e_j > s that holds for l
    exactly when e_l > s, by the ultrametric inequality.  If e_j = e_l = s,
    write z_j - z_c = p^s u_j with u_j a unit: z_j - z_l = p^s (u_j - u_l),
    of ord > s iff u_j = u_l mod p.  So the children are exactly the
    classes, and each is a disc below, or a single input.

    Each pair is valued at most once: a pair is valued only in a cluster
    that holds both, against the pivot, one of them; the child that keeps
    the pivot keeps its ords (its lowest index is still c), the pivot stays
    the pivot of every cluster below that holds it, and the other children
    take new pivots.  So each depth of the tree costs at most n - 1
    valuations: n(n - 1)/2 on a caterpillar, and far fewer on a bushy
    tree.

    The vertices are the finite inputs, then the discs by descending t,
    ties by ascending center (the order of the single-linkage merge by
    descending level, the reference construction in ``tests/oracles.py``),
    then infinity when it is an input, the parent of the top vertex.  A
    child's t exceeds its parent's, so each vertex comes before its
    parent, and ``below`` and rp are summed up the tree in vertex order.
    rp: see ``rp_ord``.
    """
    finite = [(q.z, k) for q, k in zeros if not q.is_inf]
    nz = len(finite)
    finite += [(q.z, -k) for q, k in poles if not q.is_inf]
    n = len(finite)
    inf_zero, inf_pole = len(zeros) - nz, len(poles) - n + nz
    if n + inf_zero + inf_pole < 2:
        raise ValueError("hull needs at least 2 distinct points")
    nums = [z.numerator for z, _ in finite]
    dens = [z.denominator for z, _ in finite]
    keys = list(zip(nums, dens))
    zs, ps = set(keys[:nz]), set(keys[nz:])
    if len(zs) < nz or len(ps) < n - nz or inf_zero > 1 or inf_pole > 1:
        raise ValueError("a point is repeated among the zeros or among the poles")
    if zs & ps or inf_zero and inf_pole:
        raise InternalInvariantError("a zero is also a pole")
    od = [int_val(b, p) for b in dens]
    inv = [pow(b // p**o, -1, p) for b, o in zip(dens, od)]

    discs = []  # (t, center, parent disc) in the order found
    leaf_up: list[int | None] = [None] * n  # an input's parent disc
    work = [(list(range(n)), None, None)] if n > 1 else []
    while work:  # (members, pivot first; their (e, integer) or None; parent)
        members, vals, par = work.pop()
        c = members[0]
        if vals is None:
            a, b, oc = nums[c], dens[c], od[c]
            vals = []
            for j in members[1:]:
                x = nums[j] * b - a * dens[j]
                vals.append((int_val(x, p) - od[j] - oc, x))
        s = min(e for e, _ in vals)
        k = len(discs)
        discs.append((s, c, par))
        keep, kept, split = [c], [], {}
        for j, (e, x) in zip(members[1:], vals):
            if e > s:
                keep.append(j)
                kept.append((e, x))
            else:
                digit = x // p ** (s + od[j] + od[c]) * inv[j] % p
                split.setdefault(digit, []).append(j)
        if not split:
            raise InternalInvariantError("a disc of the hull does not split")
        for kids, kv in [(keep, kept), *((g, None) for g in split.values())]:
            if len(kids) == 1:
                leaf_up[kids[0]] = k
            else:
                work.append((kids, kv, k))
    order = sorted(range(len(discs)), key=lambda k: (-discs[k][0], discs[k][1]))
    vertex = {k: n + r for r, k in enumerate(order)}
    up = [vertex.get(k) for k in leaf_up] + [vertex.get(discs[k][2]) for k in order]
    t: list[int | None] = [None] * n + [discs[k][0] for k in order]
    center: list[int | None] = list(range(n)) + [discs[k][1] for k in order]
    if inf_zero or inf_pole:
        up[-1] = len(up)
        up.append(None)
        t.append(None)
        center.append(None)

    below = [k for _, k in finite] + [0] * (len(up) - n)
    # the largest ord b of a finite zero, and of a finite pole, at or under
    # each vertex, and rp, an ord of an integer: -1 where there is none
    zb = od[:nz] + [-1] * (len(up) - nz)
    pb = [-1] * nz + od[nz:] + [-1] * (len(up) - n)
    rp = -1
    for v in range(len(up) - 1):
        u = up[v]
        below[u] += below[v]
        if t[u] is not None:  # pair v with the children of u before it
            if zb[u] >= 0 <= pb[v]:
                rp = max(rp, t[u] + zb[u] + pb[v])
            if zb[v] >= 0 <= pb[u]:
                rp = max(rp, t[u] + zb[v] + pb[u])
        zb[u] = max(zb[u], zb[v])
        pb[u] = max(pb[u], pb[v])
    # the entries at infinity: (1, 0) against a/b is ord b
    rp = max(rp, pb[-1] if inf_zero else zb[-1] if inf_pole else -1)
    return Hull([z for z, _ in finite], up, t, center, below, rp if rp >= 0 else None)


# ---------------------------------------------------------------------------
# root-pole number
# ---------------------------------------------------------------------------


def rp_ord(m: RationalMap, tree: Hull | None = None) -> Ord:
    """Largest exponent t with p^(-t) the minimal zero-pole spherical
    distance: the ``rp`` of the zero/pole hull (built here unless given).

    Proof.  With each point read as its coprime pair (num, den), (1, 0)
    for infinity, both gcds of ``projective._sph_pair_ord`` are 1, so a
    zero and a pole are at exponent ord(u_n v_d - v_n u_d).  For a finite
    zero a/b and pole a'/b' that is ord(a b' - a' b) = ord(a/b - a'/b') +
    ord b + ord b'.  The two lie under distinct children of their join,
    the disc vertex of the tree where their paths meet, so ord(a/b - a'/b')
    is its t: the pair's exponent is t + ord b + ord b'.  The largest over
    the pairs joined at a disc is t plus the largest ord b of a zero under
    one child and ord b' of a pole under another.  ``hull`` reads it as
    it sums up the tree in vertex order, keeping for each vertex the
    largest ord b of the zeros and of the poles under it, and pairing each
    child with the children of the same disc before it.  For infinity and
    a/b the exponent is ord(a * 0 - 1 * b) = ord b: the largest ord b of a
    finite pole when infinity is a zero, of a finite zero when it is a
    pole, read at the top.  Each pair has one join, or infinity on one
    side, so rp is the maximum of these.
    """
    ff = m.require_factored()
    return Ord.of((tree or hull(m.p, ff.zeros, ff.poles)).rp)


# ---------------------------------------------------------------------------
# the Gauss preimage radius
# ---------------------------------------------------------------------------


class GprResult(NamedTuple):
    ord: Ord
    argmin: BerkPoint
    preimages: tuple[BerkPoint, ...]


def _gauss_fiber(tree: Hull, oc: int) -> list[tuple[int, int, tuple]]:
    """(K, s, fiber) for each edge of the tree, in edge order: ord
    phi(zeta_{center, t}) = K + s*t on the edge, oc = ord C, and fiber the
    (t, key) of its Gauss preimages, upper end first, keyed by the vertex
    at an end and by (edge, t) inside (proof in ``gpr``).  s is the edge's
    ``below``; K comes top-down from ord C at infinity and at the root.
    """
    up, ts, below = tree.up, tree.t, tree.below
    top = len(up) - 1
    sloped = {w for v in range(top) if below[v] for w in (v, up[v])}
    value = [oc] * (top + 1)  # ord phi at each disc, ord C at the top
    out = []
    for v in range(top - 1, -1, -1):
        u, s = up[v], below[v]
        lo, hi = ts[u], ts[v]  # None at infinity and at a leaf
        k = oc if lo is None else value[u] - s * lo
        if hi is not None:
            value[v] = k + s * hi
        fiber = ()
        if s:
            # the line's signs at the two ends, -s and s at an open end
            a = -s if lo is None else k + s * lo
            b = s if hi is None else k + s * hi
            if a <= 0 <= b or b <= 0 <= a:
                t0 = _quotient(-k, s)
                fiber = ((t0, u if a == 0 else v if b == 0 else (v, t0)),)
        elif k == 0:
            fiber = tuple((ts[w], w) for w in (u, v) if w in sloped)
        out.append((k, s, fiber))
    out.reverse()
    return out


def gpr(m: RationalMap, tree: Hull | None = None) -> GprResult:
    """Minimal Gauss-point preimage diameter and a witness point.

    The search space is the hull of the zeros and poles, the arrays of
    ``hull`` (built here unless given).  Each edge's preimages are read
    from them by ``_gauss_fiber``, with no Taylor shift, and every
    distinct one is re-verified once through push_forward.

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
    pole, and then both sides have d finite points.  So s is the edge's
    ``below``, and K is read top-down: at a disc v, ord phi = K_v + s_v t_v,
    and a child edge w has K_w = that - s_w t_v, at the parent's t.  All
    are ints: the radius exponents are ords of differences of inputs.

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
    at an end of its edge by that vertex's index, inside the edge by
    (edge, t).  Two records name one point exactly when their keys agree.
    The hull is a tree: each vertex has one index, shared by every edge
    at it; the open edges are disjoint from each other and from the
    vertices; and on one edge t names one point.  So no two distinct
    points share a key and no point has two keys: the set of keys decides
    what a ``berk_equal`` scan of ``found`` would, without its cost
    quadratic in the preimages.

    One point is built per key, when the key is new, and only then are its
    pushforward and its diam_G exponent read (the center's ord taken once
    per edge, ``_diam_gauss_frac``).  A repeated key names a point already
    weighed, and diam_G is a function of the point, not of the center
    that names it, so the repeat ties that earlier record and cannot be
    the first point to reach the maximum: the argmin, the first record to
    reach it, is the full scan's.
    """
    p = m.p
    ff = m.require_factored()
    tree = tree or hull(p, ff.zeros, ff.poles)
    points, center = tree.points, tree.center
    best: tuple[int | Fraction, BerkPoint] | None = None
    found: dict = {}  # key -> the record of the preimage with that key
    for v, (_, _, fiber) in enumerate(_gauss_fiber(tree, _vord(ff.c, p))):
        if not fiber:
            continue
        a = points[center[v]]
        va = _vord(a, p)
        for t, key in fiber:
            if key in found:
                continue
            pt = BerkPoint.disc(a, t)
            if not berk_equal(p, push_forward(m, pt), gauss_point()):
                raise InternalInvariantError("edge scan produced a non-preimage")
            found[key] = pt
            s = _diam_gauss_frac(va, t)
            if best is None or s > best[0]:
                best = (s, pt)
    if best is None:
        raise InternalInvariantError("internal: preimage must lie on hull")
    return GprResult(Ord.of(best[0]), best[1], tuple(found.values()))


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
    note: str | None = None  # why zero/pole invariants are absent


_last = None  # (map, its bundle) for the last map ``bundle`` built


def bundle(m: RationalMap) -> InvariantBundle:
    """All invariants of one map; asserts the inequality chain first.

    The Lipschitz layer takes the bundle as an argument, and only its
    entry point ``bound_report`` and the CLI commands call this.  The last
    map's bundle is kept, keyed by object identity, for the two callers
    that still ask for one map's bundle twice: a caller that bundles a map
    and then asks ``bound_report`` for its report (the benchmark harness's
    corpus operation), and the checks of ``verify``, each of which calls
    ``bundle``.  A call with that same object returns it.  Exact, since a
    ``RationalMap`` is immutable and its bundle a pure function of it,
    checked when built.  One entry, not a cache: any other object (an
    equal map built again too) is computed and replaces it, and a bundle
    that raises is never kept.  It is read once, so a concurrent caller
    can only miss.  The hull of the zeros and poles is built once, by one
    ``hull`` call, and ``rp_ord`` and ``gpr`` read that one object.
    """
    global _last
    last = _last
    if last is not None and last[0] is m:
        return last[1]
    gir = gir_minors(m)
    res = resultant_ord(m)
    rp = gp = argmin = note = None
    if m.factored is not None:
        ff = m.factored
        tree = hull(m.p, ff.zeros, ff.poles)
        rp = rp_ord(m, tree)
        result = gpr(m, tree)
        gp, argmin = result.ord, result.argmin
        # value form: |Res| <= GPR <= RP <= 1
        if not (res >= gp and gp >= rp and rp >= Ord.of(0)):
            raise InternalInvariantError("invariant chain violated")
    else:
        note = (
            "rp/gpr need the zero/pole factorization; the map's roots are "
            "not rational and are never approximated"
        )
    if gir > res * _quotient(1, m.d):
        raise InternalInvariantError("GIR >= |Res|^(1/d) violated")
    _last = last = (m, InvariantBundle(m.p, m.d, gir, res, rp, gp, argmin, note))
    return last[1]
