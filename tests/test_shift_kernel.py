"""The integer shift kernel against the Fraction reference in oracles.py.

push_forward, seminorm, gpr and radial_profile read every valuation from
integer Taylor-shift numerators with the common offset dropped; the
reference shifts the Fraction coefficients themselves and keeps every
offset.  Maps are random with p in {2, 3, 5, 7} and d <= 8; centers
carry p in the numerator and in the denominator, include the poles
(where the reference recenters) and points whose image leaves the unit
disc (where the reference swaps charts); radii are negative, zero,
positive and fractional.  Distinct records can name one point, so
pushforwards are compared with the reference as points
(``_same_point``); with the whole-shift pushforward of
``ref_push_forward_full``, which the cut scans must reproduce, they are
compared as records.
"""

import sys
from fractions import Fraction
from pathlib import Path

from berklip import berk
from berklip.berk import BerkPoint, berk_equal, diam_gauss, push_forward
from berklip.errors import DegenerateMapError
from berklip.invariants import gpr, hull
from berklip.lipschitz import radial_profile
from berklip.projective import ProjPoint
from berklip.sampling import DetRng, random_rational
from berklip.valued import int_val
from corpus import acceptance_corpus, random_factored_map, random_ladder_map
from oracles import (
    Shift,
    dehomogenized,
    ref_gpr_ord,
    ref_push_forward,
    ref_push_forward_full,
    ref_semi,
    ref_taylor_shift,
    ref_vord,
    seminorm,
    value_ord_at,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import benchgen  # noqa: E402

PRIMES = (2, 3, 5, 7)
RADII = (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1), Fraction(3, 2),
         Fraction(-2, 3), Fraction(7, 3), Fraction(4))


def _maps(seed: int, count: int, dmax: int = 8, ladder=()):
    """``count`` random maps of degree <= dmax, then one ladder-type map of
    each degree in ``ladder`` (d distinct zeros and d distinct poles)."""
    rng = DetRng(seed)
    for k in range(count):
        p = PRIMES[k % len(PRIMES)]
        yield rng, random_factored_map(rng, p, dmax=dmax, multiplicities=True)
    for k, d in enumerate(ladder):
        yield rng, random_ladder_map(rng, PRIMES[k % len(PRIMES)], d)


def _centers(rng: DetRng, m, per_side: int | None = None):
    """Zeros, poles (the first ``per_side`` of each when given) and random
    rationals u * p^e with e in [-3, 3]."""
    ff = m.factored
    out = [pt.z for side in (ff.zeros, ff.poles) for pt, _ in side[:per_side] if not pt.is_inf]
    out += [random_rational(rng, m.p, max_exp=3) for _ in range(3)]
    out.append(Fraction(0))
    return out


def _same_point(p: int, x: BerkPoint, y: BerkPoint) -> bool:
    return berk_equal(p, x, y) and diam_gauss(p, x) == diam_gauss(p, y)


def test_push_forward_and_seminorm_match_reference():
    events: set = set()
    seen = {"recenter": 0, "swap": 0, "p_in_den": 0, "p_in_num": 0}
    points = 0
    for rng, m in _maps(4242, 48, ladder=(10, 20, 10)):
        p = m.p
        f, g = dehomogenized(m)
        # the Fraction reference is slow at d = 10 and 20: three zeros and
        # three poles of each ladder map
        for a in _centers(rng, m, per_side=3 if m.d >= 10 else None):
            seen["p_in_den"] += a.denominator % p == 0
            seen["p_in_num"] += a != 0 and a.numerator % p == 0
            fs, gs = ref_taylor_shift(f, a), ref_taylor_shift(g, a)
            for t in RADII:
                x = BerkPoint.disc(a, t)
                events.clear()
                want = ref_push_forward(m, x, events)
                assert _same_point(p, push_forward(m, x), want), (m, x)
                for e in events:
                    seen[e] += 1
                points += 1
                assert seminorm(p, f, x).frac == ref_semi(p, fs, t)
                assert seminorm(p, g, x).frac == ref_semi(p, gs, t)
    assert points > 2000
    assert all(n >= 20 for n in seen.values()), seen


def test_push_forward_center_is_the_dominant_ratio(monkeypatch):
    """The image center is the ratio f_j/g_j of the shifted Fraction
    coefficients at the first index j whose term ord g_j + j*t is least,
    the point is the reference's, and each call starts one shift of F
    and one of G, both to the center.  Pole centers, images outside the
    unit disc (where the reference swaps charts), p in numerators and
    denominators, and ties of g's least term between indices of
    different ratios (where only the first index gives the center) are
    all reached."""
    started = []
    shift = berk.taylor_shift

    def counted_shift(c, a):
        started.append((list(c), a))
        return shift(c, a)

    monkeypatch.setattr(berk, "taylor_shift", counted_shift)
    seen = {"pole": 0, "outside": 0, "p_in_den": 0, "p_in_num": 0, "tie": 0}
    events: set = set()
    for rng, m in _maps(6262, 40):
        p, d = m.p, m.d
        f, g = dehomogenized(m)
        for a in _centers(rng, m):
            u, v = a.numerator, a.denominator
            scaled = [[x * v ** (d - j) for j, x in enumerate(form)] for form in (m.F, m.G)]
            fs, gs = ref_taylor_shift(f, a), ref_taylor_shift(g, a)
            for t in RADII:
                terms = [(ref_vord(y, p) + j * t, j) for j, y in enumerate(gs) if y != 0]
                least = min(terms)[0]
                first, *rest = [j for o, j in terms if o == least]
                x = BerkPoint.disc(a, t)
                started.clear()
                got = push_forward(m, x)
                assert started == [(scaled[0], u), (scaled[1], u)], (m, x)
                assert got.center == fs[first] / gs[first], (m, x)
                events.clear()
                assert _same_point(p, got, ref_push_forward(m, x, events)), (m, x)
                seen["pole"] += gs[0] == 0
                seen["outside"] += "swap" in events
                seen["p_in_den"] += a.denominator % p == 0
                seen["p_in_num"] += a != 0 and a.numerator % p == 0
                seen["tie"] += any(fs[j] / gs[j] != got.center for j in rest)
    assert all(n >= 20 for n in seen.values()), seen


def test_ratio_records_carry_the_ords_of_their_pairs():
    """The center record of every same-index ratio qf[j]/qg[j] of a shift
    carries the ords ``int_val`` gives for its pair, the zero record for
    qf[j] = 0, and min(0, ord w) of the ratio; the centers include the
    poles, and the ratios carry p in numerators and denominators and lie
    inside and outside the unit disc."""
    seen = {"zero": 0, "p_in_wn": 0, "p_in_wd": 0, "outside": 0}
    for rng, m in _maps(5151, 32):
        p = m.p
        for a in _centers(rng, m):
            sh = Shift.at(p, m.F, m.G, a)
            for x, y, ox, oy in zip(sh.qf, sh.qg, sh.of, sh.og):
                if y == 0:
                    continue
                (wn, wd, own, owd), low = berk._ratio_record(x, ox, y, oy)
                if x == 0:
                    assert ((wn, wd, own, owd), low) == ((0, 1, None, 0), 0), (m, a)
                    seen["zero"] += 1
                    continue
                assert (wn, wd) == (x, y), (m, a)
                assert own == int_val(wn, p) and owd == int_val(wd, p), (m, a, wn, wd)
                assert low == min(0, ref_vord(Fraction(wn, wd), p)), (m, a, wn, wd)
                seen["p_in_wn"] += own > 0
                seen["p_in_wd"] += owd > 0
                seen["outside"] += low < 0
    assert all(n >= 20 for n in seen.values()), seen


def test_gpr_matches_brute_force_reference():
    """gpr against the brute force; at every preimage and every disc vertex
    of the hull the pushforward is the reference's point, with pole
    centers and chart swaps of the reference both reached."""
    seen = {"recenter": 0, "swap": 0}
    events: set = set()
    for _, m in _maps(777, 32):
        p, ff = m.p, m.factored
        tree = hull(p, [pt for pt, _ in ff.zeros + ff.poles])
        result = gpr(m)
        assert result.ord.frac == ref_gpr_ord(m, tree.edges)
        assert diam_gauss(p, result.argmin) == result.ord
        discs = [v for v in tree.vertices if not v.is_classical]
        for q in list(result.preimages) + discs:
            events.clear()
            want = ref_push_forward(m, q, events)
            assert _same_point(p, push_forward(m, q), want), (m, q)
            for e in events:
                seen[e] += 1
    assert all(n >= 20 for n in seen.values()), seen


def test_radial_profile_matches_reference_images():
    for rng, m in _maps(9191, 24):
        a = _centers(rng, m)[rng.randint(0, 3)]
        t_min = Fraction(rng.randint(0, 4), rng.randint(1, 3))
        profile = radial_profile(m, a, t_min)
        for step in (0, Fraction(1, 2), 1, Fraction(7, 3), 5):
            t = t_min + step
            img = ref_push_forward(m, BerkPoint.disc(a, t))
            assert value_ord_at(profile, t) == diam_gauss(m.p, img).frac, (m, a, t)


def _outcome(push, m, x):
    """The record ``push`` returns, or the type and text of what it raises."""
    try:
        return push(m, x)
    except (ValueError, DegenerateMapError) as e:
        return type(e).__name__, str(e)


def _read_counter(monkeypatch):
    """Replaces the pushforward's ``taylor_shift`` with one that counts
    the coefficients it finalises; returns the list of per-shift counts,
    one entry per started shift, in the order they start."""
    passes, counts = berk.taylor_shift, []

    def counted(c, a):
        counts.append(0)
        at = len(counts) - 1

        def read():
            for x in passes(c, a):
                counts[at] += 1
                yield x

        return read()

    monkeypatch.setattr(berk, "taylor_shift", counted)
    return counts


def test_push_forward_record_is_the_full_shift_record_at_random_points(monkeypatch):
    """The cut scans return the record of the whole-shift pushforward
    (``ref_push_forward_full``), center ``Fraction`` and radius alike, or
    raise what it raises, a classical point included.  The points reach
    k < 0 and k = 0 (k = td*ord v + tn), pole centers, centers w with
    |w| > 1, ties of g's least term, and cut scans: a g scan that stops
    before the last index, and an f - w g scan that stops early with
    |w| > 1, where its bound is min(0, ord w)*td + i*k.  When k < 0 both
    shifts are read whole."""
    counts = _read_counter(monkeypatch)
    seen = {"k_neg": 0, "k_zero": 0, "pole": 0, "w_outside": 0, "tie": 0,
            "g_cut": 0, "fwg_cut_w_outside": 0}
    points = 0
    for rng, m in _maps(8383, 48, ladder=(10, 20, 10)):
        p, n = m.p, m.d + 1
        for a in _centers(rng, m, per_side=4 if m.d >= 10 else None):
            sh = Shift.at(p, m.F, m.G, a)
            x = BerkPoint.classical(ProjPoint.of(a))
            assert _outcome(push_forward, m, x) == _outcome(ref_push_forward_full, m, x)
            for t in RADII + (Fraction(-3), Fraction(7)):
                x = BerkPoint.disc(a, t)
                counts.clear()
                got = _outcome(push_forward, m, x)
                assert got == _outcome(ref_push_forward_full, m, x), (m, x)
                points += 1
                k = sh.ov * t.denominator + t.numerator
                terms = [o * t.denominator + i * k for i, o in enumerate(sh.og) if o is not None]
                w_outside = got.center != 0 and ref_vord(got.center, p) < 0
                seen["k_neg"] += k < 0
                seen["k_zero"] += k == 0
                seen["pole"] += sh.qg[0] == 0
                seen["w_outside"] += w_outside
                seen["tie"] += terms.count(min(terms)) > 1
                if k < 0:
                    assert counts == [n, n], (m, x)
                seen["g_cut"] += counts[1] < n
                seen["fwg_cut_w_outside"] += w_outside and counts[0] < n
    assert points > 2000
    assert all(c >= 20 for c in seen.values()), seen


def test_push_forward_record_is_the_full_shift_record_at_gpr_preimages():
    """Every Gauss preimage of the benchmark's corpus seeds 0-3 and ladder
    seeds 0-2, of the acceptance corpus and of three seeded ladder-type
    maps of degree 40 and of 64 pushes forward to the whole-shift record."""
    maps = [m for seed in range(4) for m in benchgen.corpus_maps(seed, 405)]
    maps += [m for seed in range(3) for _, pairs in benchgen.ladder_steps(seed) for m, _ in pairs]
    maps += acceptance_corpus()
    rng = DetRng(17)
    maps += [benchgen.ladder_map(rng, d) for d in (40, 64) for _ in range(3)]
    preimages = 0
    for m in maps:
        for q in gpr(m).preimages:
            assert push_forward(m, q) == ref_push_forward_full(m, q), (m, q)
            preimages += 1
    assert preimages > 5000, preimages


def test_push_forward_finalises_under_half_of_full_shifts(monkeypatch):
    """On the benchmark's seed-0 ladder, the re-verifying pushforwards of
    ``gpr`` finalise fewer than half the coefficients that whole shifts
    of F and G would, so a return to full scans fails here.  The count is
    pinned."""
    counts = _read_counter(monkeypatch)
    full = 0
    for _, pairs in benchgen.ladder_steps(0):
        for m, _ in pairs:
            before = len(counts)
            gpr(m)
            full += (len(counts) - before) * (m.d + 1)
    assert 2 * sum(counts) < full, (sum(counts), full)
    assert (sum(counts), full) == (1720, 7660)
