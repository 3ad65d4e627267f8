"""Multiplicative number theory primitives.

Primes, factorization, the von Mangoldt function, and
smooth-number enumeration by a vectorised closure over the primes, whose
cost and memory follow the output size rather than the limit.
`check_modulus` is the package's one definition of a valid modulus: an
odd prime q < 2**31, so every modular product fits comfortably in 64 bits.
"""

from __future__ import annotations

import math

import numpy as np

MODULUS_LIMIT = 2**31
_SUM_BLOCK = 1 << 13  # entries per np.frexp block of `_exact_sum`
_SUM_FLUSH = 1 << 25  # entries binned at most before a fold keeps each bucket below 2**53


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as a read-only int64 array (empty for
    limit 0 or 1), by the sieve of Eratosthenes."""
    if limit < 0:
        raise ValueError(f"sieve limit must be >= 0, got {limit}")
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    primes = np.flatnonzero(mask).astype(np.int64)
    primes.setflags(write=False)
    return primes


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """n = prod p**e as ((p, e), ...) with p strictly increasing and e >= 1,
    by trial division by 2 and the odd numbers; n = 1 gives ()."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    m = n
    factors = []
    p = 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


def is_prime(n: int) -> bool:
    """Trial division, as n's factorization being n itself; adequate below 2**31 (`check_modulus`)."""
    return n >= 2 and factorize(n) == ((n, 1),)


def check_modulus(q: int, least: int = 3) -> None:
    """Raise ValueError unless q is an odd prime with least <= q < 2**31.
    The bound is tested first, so an oversized q costs no trial division."""
    if not least <= q < MODULUS_LIMIT:
        raise ValueError(f"modulus q = {q} must lie in [{least}, 2**31)")
    if q % 2 == 0 or not is_prime(q):
        raise ValueError(f"modulus q = {q} is not an odd prime")


def mangoldt(n: int) -> float:
    """log p if n is a prime power p**k, else 0. mangoldt(1) = 0."""
    if n < 1:
        raise ValueError(f"mangoldt requires n >= 1, got {n}")
    fac = factorize(n)
    if len(fac) == 1:
        return math.log(fac[0][0])
    return 0.0


def _residue_sums(q: int, ns: np.ndarray, values: np.ndarray, size: int = 0) -> np.ndarray:
    """t[r] = sum of values[i] over the indices with ns[i] = r (mod q).

    Residue class 0 is dropped: every character mod q vanishes on multiples
    of q, so those terms enter no character sum.  The table ends one zero
    entry past the largest residue in use, capped at q entries, so its size
    follows ns, not q, unless `size` asks for more (q for a group DFT).
    """
    r = ns % q
    t = np.zeros(max(size, min(int(r.max(initial=0)) + 2, q)))
    np.add.at(t, r, values)
    t[0] = 0.0
    return t


def _exact_sum(x: np.ndarray) -> float | complex:
    """The correctly rounded sum of a float64 array (of each part, if complex).

    Equals math.fsum bit for bit, and is exact where fsum overflows midway
    ([1e308, 1e308, -1e308] gives 1e308): np.bincount adds the 27- and 26-bit
    integer parts of each entry (np.frexp) by exponent in float64 buckets that
    stay below 2**53, and int true division rounds their Python int total once.
    Raises OverflowError past the float range and ValueError on inf or nan.
    """
    if np.iscomplexobj(x):
        return complex(_exact_sum(x.real), _exact_sum(x.imag))
    total, step = 0, _SUM_FLUSH // _SUM_BLOCK * _SUM_BLOCK
    for head in range(0, len(x), step):
        buckets = np.zeros(2124)  # k counts 2**(k - 1126): lo of e >= -1073 at e + 1073, hi 26 up
        for start in range(head, min(head + step, len(x)), _SUM_BLOCK):
            m, e = np.frexp(x[start : start + _SUM_BLOCK])
            e += 1073
            m *= 2.0**27
            hi = np.floor(m)
            buckets[:-26] += np.bincount(e, (m - hi) * 2.0**26, 2098)  # lo
            buckets[26:] += np.bincount(e, hi, 2098)
        if not np.isfinite(buckets).all():  # an inf or nan entry leaves lo = nan
            raise ValueError("exact sum of a non-finite entry")
        total += sum(int(buckets[k]) << int(k) for k in np.flatnonzero(buckets))
    return total / (1 << 1126)


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


def smooth_numbers(bound: int, limit: int) -> np.ndarray:
    """All n <= limit whose prime factors are all <= bound, as an ascending int64 array.

    Built by `_smooth_closure`, so a large limit with a small bound stays
    cheap (the output size governs the cost and the memory).
    """
    if bound < 1 or limit < 1:
        raise ValueError("smooth_numbers requires bound >= 1 and limit >= 1")
    primes = sieve_primes(min(bound, limit))
    return _smooth_closure(primes, np.ones(primes.size), limit)[0]


def primitive_root(q: int) -> int:
    """Smallest generator g >= 2 of (Z/qZ)* for a modulus q (`check_modulus`)."""
    check_modulus(q)
    exponents = [(q - 1) // r for r, _ in factorize(q - 1)]
    for g in range(2, q):
        if all(pow(g, e, q) != 1 for e in exponents):
            return g
    raise AssertionError(f"no primitive root found for {q}")  # unreachable for prime q
