"""Multiplicative number theory primitives.

Primes, factorization, Euler's phi, the von Mangoldt function, and
smooth-number enumeration by a vectorised closure over the primes, whose
cost and memory follow the output size rather than the limit.  Moduli
throughout the package are restricted to q < 2**31 so every modular
product fits comfortably in 64 bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MODULUS_LIMIT = 2**31


@dataclass(frozen=True)
class PrimeTable:
    """All primes <= limit, ascending."""

    limit: int
    primes: np.ndarray

    def __post_init__(self):
        self.primes.setflags(write=False)

    def __len__(self) -> int:
        return int(self.primes.size)


@dataclass(frozen=True)
class Factorization:
    """n = prod p**e with primes strictly increasing and e >= 1."""

    n: int
    factors: tuple[tuple[int, int], ...]


def sieve_primes(limit: int) -> PrimeTable:
    """Eratosthenes sieve; limit 0 or 1 yields an empty table."""
    if limit < 0:
        raise ValueError(f"sieve limit must be >= 0, got {limit}")
    if limit < 2:
        return PrimeTable(limit, np.empty(0, dtype=np.int64))
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return PrimeTable(limit, np.flatnonzero(mask).astype(np.int64))


def is_prime(n: int) -> bool:
    """Trial division; adequate for n < 2**31."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def factorize(n: int) -> Factorization:
    """Trial-division factorization; n = 1 gives an empty factor list."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    m = n
    factors = []
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    d = 5
    while d * d <= m:
        for p in (d, d + 2):
            if m % p == 0:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                factors.append((p, e))
        d += 6
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def euler_phi(q: int) -> int:
    if q < 1:
        raise ValueError(f"euler_phi requires q >= 1, got {q}")
    phi = q
    for p, _ in factorize(q).factors:
        phi -= phi // p
    return phi


def mangoldt(n: int) -> float:
    """log p if n is a prime power p**k, else 0. mangoldt(1) = 0."""
    if n < 1:
        raise ValueError(f"mangoldt requires n >= 1, got {n}")
    fac = factorize(n).factors
    if len(fac) == 1:
        return math.log(fac[0][0])
    return 0.0


def _residue_sums(q: int, ns: np.ndarray, values: np.ndarray) -> np.ndarray:
    """t[r] = sum of values[i] over the indices with ns[i] = r (mod q).

    Residue class 0 is dropped: every character mod q vanishes on multiples
    of q, so those terms enter no character sum.
    """
    t = np.zeros(q)
    np.add.at(t, ns % q, values)
    t[0] = 0.0
    return t


def _smooth_closure(primes: np.ndarray, weights: np.ndarray, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """All n <= limit built from `primes` (ascending), with the completely
    multiplicative weights w_n = prod w_p**e, as ascending int64 ns and ws.

    Primes p <= isqrt(limit) extend the set power by power; every larger
    prime multiplies the sorted prefix n <= limit // p once, since such an
    n is below sqrt(limit) < p.  Each w_n is the product of its prime
    weights taken in ascending prime order, so it does not depend on how
    the set was built.  Cost and memory follow the output size: retired
    parts and loop temporaries are dropped before the final sort, so the
    peak is about 32 bytes per output entry.
    """
    if limit >= 2**63:
        raise ValueError(f"limit must be < 2**63, got {limit}")
    primes = np.asarray(primes, dtype=np.int64)
    root = math.isqrt(limit)
    small = int(np.searchsorted(primes, root, side="right"))
    done, ns, ws = [], np.ones(1, dtype=np.int64), np.ones(1)
    for p, w in zip(primes[:small].tolist(), weights[:small].tolist()):
        keep = ns <= limit // p  # the rest exceed limit // p' for every later p' too
        done.append((ns[~keep], ws[~keep]))
        ns, ws = _prime_powers(ns[keep], ws[keep], p, w, limit // p)
    # n <= root never exceeds limit // p for p <= root, so the cofactors of
    # the large primes are all still in ns
    head = np.flatnonzero(ns <= root)
    head = head[np.argsort(ns[head])]
    counts = np.searchsorted(ns[head], limit // primes[small:], side="right")
    cofactor = head[np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)]
    done += [(ns, ws), (ns[cofactor] * np.repeat(primes[small:], counts),
                        ws[cofactor] * np.repeat(weights[small:], counts))]
    del ns, ws, head, cofactor
    ns, ws = (np.concatenate(a) for a in zip(*done))
    del done
    order = np.argsort(ns)
    ns = ns[order]  # one gather at a time, so the unsorted ns is freed first
    return ns, ws[order]


def _prime_powers(ns: np.ndarray, ws: np.ndarray, p: int, w: float, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """ns, ns*p, ns*p**2, ... (each factor applied to the entries <= cap), with weights."""
    parts = [(ns, ws)]
    while parts[-1][0].size:
        part_ns, part_ws = parts[-1]
        keep = part_ns <= cap
        parts.append((part_ns[keep] * p, part_ws[keep] * w))
    return tuple(np.concatenate(a) for a in zip(*parts))


def smooth_numbers(bound: int, limit: int) -> list[int]:
    """All n <= limit whose prime factors are all <= bound, ascending.

    Built by `_smooth_closure`, so a large limit with a small bound stays
    cheap (the output size governs the cost and the memory).
    """
    if bound < 1 or limit < 1:
        raise ValueError("smooth_numbers requires bound >= 1 and limit >= 1")
    primes = sieve_primes(min(bound, limit)).primes
    return _smooth_closure(primes, np.ones(primes.size), limit)[0].tolist()


def primitive_root(q: int) -> int:
    """Smallest generator g >= 2 of (Z/qZ)* for an odd prime q."""
    if q == 2 or not is_prime(q):
        raise ValueError(f"primitive_root requires an odd prime, got {q}")
    exponents = [(q - 1) // r for r, _ in factorize(q - 1).factors]
    for g in range(2, q):
        if all(pow(g, e, q) != 1 for e in exponents):
            return g
    raise AssertionError(f"no primitive root found for {q}")  # unreachable for prime q
