"""Deterministic random generation for samplers and corpora.

A splitmix64 stream keeps every sampled rational reproducible across
platforms from an integer seed.  Sampled points mix the valuation strata
|z| < 1, |z| = 1 and |z| > 1 so that both charts of the spherical metric
are exercised.
"""

from __future__ import annotations

from fractions import Fraction

_MASK = (1 << 64) - 1

__all__ = ["DetRng", "random_unit_fraction", "random_rational", "random_point_ints"]


class DetRng:
    """splitmix64 pseudo-random stream; pure integer arithmetic."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (modulo bias irrelevant here)."""
        return lo + self.next_u64() % (hi - lo + 1)


def random_unit_fraction(rng: DetRng, p: int, height: int = 9) -> Fraction:
    """Nonzero rational of bounded height with numerator and denominator
    prime to p."""
    while True:
        n = rng.randint(1, height)
        d = rng.randint(1, height)
        if n % p != 0 and d % p != 0:
            sign = -1 if rng.randint(0, 1) else 1
            return Fraction(sign * n, d)


def random_rational(rng: DetRng, p: int, max_exp: int = 2, height: int = 9) -> Fraction:
    """u * p^e with u a p-unit and e in [-max_exp, max_exp]."""
    u = random_unit_fraction(rng, p, height)
    e = rng.randint(-max_exp, max_exp)
    return u * Fraction(p) ** e


def random_point_ints(
    rng: DetRng, p: int, max_exp: int = 2, height: int = 9
) -> tuple[int, int]:
    """A sampled rational as a raw (numerator, denominator) integer pair.

    Used by the high-volume ratio sampler, which works on unreduced
    integer pairs to stay fast.
    """
    while True:
        n = rng.randint(1, height)
        d = rng.randint(1, height)
        if n % p != 0 and d % p != 0:
            break
    sign = -1 if rng.randint(0, 1) else 1
    e = rng.randint(-max_exp, max_exp)
    if e >= 0:
        return sign * n * p**e, d
    return sign * n, d * p**-e
