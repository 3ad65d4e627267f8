"""Seeded choice of the moduli the benchmark feeds to the CLI.

Every modulus role has a band and a class predicate on the factorization
of q - 1.  A seed picks, for each role, one prime uniformly from all primes
of the band that satisfy the class.  The same seed always gives the same
moduli; the program under test only ever sees the resulting `--q` values.

This module uses only numpy and the standard library, so the choice does
not depend on the code being measured.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

ROUGH_FACTOR = 1000  # q - 1 has a prime factor above this: numpy's Bluestein FFT path
SMOOTH_BOUND = 13  # every prime factor of q - 1 is at most this: a fast mixed-radix FFT


@dataclass(frozen=True)
class Role:
    """One modulus slot of a workload: a band [lo, hi] and a class on q - 1."""

    name: str
    lo: int
    hi: int
    klass: str  # "rough", "smooth" or "any"


ROLES = {
    "A": Role("A", 950_000, 1_100_000, "rough"),
    "B": Role("B", 950_000, 1_100_000, "smooth"),
    "C": Role("C", 95_000, 110_000, "any"),
    "D": Role("D", 950_000, 1_100_000, "any"),
    "E": Role("E", 290_000, 310_000, "rough"),
    "F": Role("F", 95_000, 110_000, "any"),
}

_LIMIT = max(role.hi for role in ROLES.values())


@lru_cache(maxsize=None)
def _smallest_factor_table(limit: int) -> np.ndarray:
    """spf[n] = smallest prime factor of n, for 2 <= n <= limit."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    unset = spf == 0
    spf[unset] = np.arange(limit + 1)[unset]
    return spf


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of 1 <= n <= the largest band end, as (p, e) pairs."""
    if not 1 <= n <= _LIMIT:
        raise ValueError(f"factorize covers 1..{_LIMIT}, got {n}")
    spf = _smallest_factor_table(_LIMIT)
    factors: list[tuple[int, int]] = []
    while n > 1:
        p = int(spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        factors.append((p, e))
    return factors


def largest_factor(n: int) -> int:
    return max((p for p, _ in factorize(n)), default=1)


@lru_cache(maxsize=None)
def largest_factors(limit: int) -> np.ndarray:
    """Array whose entry n - 1 is the largest prime factor of n (1 for n = 1), n <= limit."""
    if not 1 <= limit <= _LIMIT:
        raise ValueError(f"largest_factors covers 1..{_LIMIT}, got {limit}")
    spf = _smallest_factor_table(_LIMIT)
    rest = np.arange(1, limit + 1)
    lpf = np.ones(limit, dtype=np.int64)
    while (live := rest > 1).any():
        p = spf[rest[live]]
        lpf[live] = np.maximum(lpf[live], p)
        rest[live] //= p
    return lpf


CLASSES: dict[str, Callable[[int], bool]] = {
    "rough": lambda q: largest_factor(q - 1) > ROUGH_FACTOR,
    "smooth": lambda q: largest_factor(q - 1) <= SMOOTH_BOUND,
    "any": lambda q: True,
}


@lru_cache(maxsize=None)
def candidates(role_name: str) -> tuple[int, ...]:
    """Every prime of the role's band whose q - 1 satisfies its class, ascending."""
    role = ROLES[role_name]
    spf = _smallest_factor_table(_LIMIT)
    band = np.arange(role.lo, role.hi + 1)
    primes = band[spf[band] == band].tolist()
    keep = CLASSES[role.klass]
    return tuple(q for q in primes if keep(q))


def draw(seed: int, role_name: str) -> int:
    """The prime the seed picks for a role; independent across roles."""
    rng = random.Random(f"lextremes-bench:{seed}:{role_name}")
    return rng.choice(candidates(role_name))


def describe(q: int) -> dict:
    """Record of a chosen modulus: q, the factorization of q - 1 and its class."""
    factors = factorize(q - 1)
    return {
        "q": q,
        "q_minus_1": " * ".join(f"{p}^{e}" if e > 1 else str(p) for p, e in factors),
        "largest_factor": largest_factor(q - 1),
        "classes": [name for name, keep in CLASSES.items() if name != "any" and keep(q)],
    }
