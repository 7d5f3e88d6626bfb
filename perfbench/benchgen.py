"""Seeded inputs for the benchmark workloads.

Built only on berklip's public sampling and map constructors, so an edit
to the test suite cannot change what the benchmark measures.  The same
seed always yields the same maps.  Constructors are looked up on the
ratmap module at each call so that a traced run sees them.
"""

from __future__ import annotations

from fractions import Fraction

from berklip import ratmap
from berklip.errors import DegenerateMapError
from berklip.projective import INF_POINT, ProjPoint
from berklip.sampling import DetRng, random_rational

CORPUS_PRIMES = (3, 5, 7)
CORPUS_DMAX = 5
LADDER_P = 3
# degree -> maps per ladder step; one seeded map's cost varies by about
# 10 % at d = 20 and d = 30, so a step averages several.  A d = 30 map and
# its twin take about 4.5 s to build and 3.5 s to analyse.  Six d = 20
# maps in place of four left that step's spread over ten seeds at 0.09.
LADDER_STEPS = {10: 3, 20: 4, 30: 3}
# det = 1, a unit for every p, so res and gir are unchanged by it
LADDER_MATRIX = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))


def factored_map(rng: DetRng, p: int, d: int):
    """A map of degree d with rational zeros and poles.

    Same distribution as the acceptance corpus for a given degree: one
    side carries the full degree, the other may leave the balance at
    infinity, and infinity is sometimes an explicit zero or pole.
    """
    while True:
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
        zeros = [(pt, 1) for pt in pool[:n_zeros]]
        poles = [(pt, 1) for pt in pool[n_zeros:]]
        c = random_rational(rng, p)
        try:
            return ratmap.from_factored(p, c, zeros, poles)
        except DegenerateMapError:
            continue


def corpus_maps(seed: int, count: int) -> list:
    """``count`` factored maps of degree <= 5 over p in {3, 5, 7}.

    The acceptance corpus draws p and the degree at random.  Here they
    are stratified: map i has degree 1 + i % 5 and prime
    CORPUS_PRIMES[i // 5 % 3], so every seed holds the same mix of
    (p, degree) cells, the same in expectation as the acceptance corpus.
    A map of degree 5 costs about five times one of degree 1; with the
    cells drawn at random, 400-map passes differed by up to 9 % from seed
    to seed, two thirds of it from the mix of cells.  Everything else
    about a map is drawn from the seed.
    """
    rng = DetRng(seed)
    return [
        factored_map(rng, CORPUS_PRIMES[i // CORPUS_DMAX % len(CORPUS_PRIMES)], 1 + i % CORPUS_DMAX)
        for i in range(count)
    ]


def ladder_map(rng: DetRng, d: int):
    """A degree-d map at p = 3 with d distinct finite zeros and d distinct
    finite poles."""
    pool: list[ProjPoint] = []
    while len(pool) < 2 * d:
        pt = ProjPoint.of(random_rational(rng, LADDER_P))
        if pt not in pool:
            pool.append(pt)
    c = random_rational(rng, LADDER_P)
    return ratmap.from_factored(
        LADDER_P, c, [(pt, 1) for pt in pool[:d]], [(pt, 1) for pt in pool[d:]]
    )


def ladder_steps(seed: int) -> list[tuple[int, list]]:
    """(d, [(factored map, its post-composed twin), ...]) per ladder step."""
    rng = DetRng(seed)
    steps = []
    for d, count in LADDER_STEPS.items():
        maps = [ladder_map(rng, d) for _ in range(count)]
        steps.append((d, [(m, ratmap.post_compose(LADDER_MATRIX, m)) for m in maps]))
    return steps
