"""Seeded random corpora shared by the test modules."""

from __future__ import annotations

from fractions import Fraction

from berklip.errors import DegenerateMapError
from berklip.projective import INF_POINT, ProjPoint
from berklip.ratmap import RationalMap, from_coeffs, from_factored
from berklip.sampling import DetRng, random_rational


def random_factored_map(
    rng: DetRng, p: int, dmax: int = 5, multiplicities: bool = False
) -> RationalMap:
    """A random map with rational zeros and poles, degree <= dmax."""
    while True:
        d = rng.randint(1, dmax)
        n_zeros = rng.randint(1, d)
        n_poles = rng.randint(1, d)
        if rng.randint(0, 1):
            n_zeros = d
        else:
            n_poles = d
        pool: list[ProjPoint] = []
        if rng.randint(0, 3) == 0:
            pool.append(INF_POINT)
        while len(pool) < n_zeros + n_poles:
            pt = ProjPoint.of(random_rational(rng, p))
            if pt not in pool:
                pool.append(pt)

        def split(points):
            if not multiplicities or len(points) <= 1 or rng.randint(0, 1):
                return [(pt, 1) for pt in points]
            # collapse onto fewer support points with higher multiplicity
            support = points[: max(1, len(points) // 2)]
            out = {pt: 1 for pt in support}
            for _ in range(len(points) - len(support)):
                out[support[rng.randint(0, len(support) - 1)]] += 1
            return list(out.items())

        zeros = split(pool[:n_zeros])
        poles = split(pool[n_zeros : n_zeros + n_poles])
        c = random_rational(rng, p)
        try:
            return from_factored(p, c, zeros, poles)
        except DegenerateMapError:
            continue


def random_mobius(rng: DetRng, p: int) -> RationalMap:
    """A random degree-1 map from small integral coefficients times p-powers."""
    while True:
        a, b, c, d = (random_rational(rng, p, max_exp=2, height=5) for _ in range(4))
        if a * d - b * c == 0:
            continue
        try:
            return from_coeffs(p, [b, a], [d, c])
        except DegenerateMapError:
            continue


def random_unimodular(rng: DetRng, size: int = 3):
    """Integer matrix with determinant +-1 (a p-adic unit for every p),
    as a product of elementary shears and swaps."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(rng.randint(2, size + 2)):
        k = rng.randint(-3, 3)
        which = rng.randint(0, 2)
        if which == 0:
            # left shear
            a, b = a + k * c, b + k * d
        elif which == 1:
            c, d = c + k * a, d + k * b
        else:
            a, b, c, d = c, d, a, b
    return ((Fraction(a), Fraction(b)), (Fraction(c), Fraction(d)))


def random_ladder_map(rng: DetRng, p: int, d: int) -> RationalMap:
    """A degree-d map with d distinct finite zeros and d distinct finite
    poles, as on the benchmark's degree ladder."""
    pool: list[ProjPoint] = []
    while len(pool) < 2 * d:
        pt = ProjPoint.of(random_rational(rng, p))
        if pt not in pool:
            pool.append(pt)
    c = random_rational(rng, p)
    return from_factored(p, c, [(pt, 1) for pt in pool[:d]], [(pt, 1) for pt in pool[d:]])


ACCEPTANCE_SEED = 20151203


def acceptance_corpus() -> list[RationalMap]:
    """The acceptance suite's 200 seeded factored maps of degree <= 5 over
    p in {3, 5, 7}."""
    rng = DetRng(ACCEPTANCE_SEED)
    return [random_factored_map(rng, (3, 5, 7)[rng.randint(0, 2)], dmax=5) for _ in range(200)]
