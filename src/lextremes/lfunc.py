"""Evaluation of Dirichlet L-functions L(sigma, chi) on (1/2, 1].

One certified finite formula serves as ground truth at every sigma:

    L(sigma, chi) = q**(-sigma) * sum_{a=1}^{q-1} chi(a) * K(sigma, a/q),
    K(sigma, x) = zeta(sigma, x) - 1/(sigma - 1),   K(1, x) = -psi(x),

for non-principal chi: the character values sum to zero, so the constant
1/(sigma - 1) drops out, and at sigma = 1 it is the pole of the Hurwitz
zeta.  K is one Euler-Maclaurin kernel, accurate to well below 1e-12, and
batch evaluation over the whole character group is a single group DFT on
the vector of its values.

Truncated Euler products, prime sums and the log-approximation census
live here as well; they quantify how well short prime data tracks the
true L-values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import numth
from .chargroup import CharacterGroup, _blocks, _half_spectrum, _power_block, _term_sums

# absolute error bound of K(1, a/q) = -psi(a/q), the sigma = 1 counterpart of
# hurwitz_zeta_error: Euler-Maclaurin truncation (below 1.2e-19) plus the
# rounding of terms of order one
DIGAMMA_ERR = 1e-13


def as_sigma(sigma) -> float:
    """Coerce sigma to a validated float in (1/2, 1]."""
    value = float(sigma)
    if not 0.5 < value <= 1.0:
        raise ValueError(f"sigma must lie in (1/2, 1], got {value}")
    return value


@dataclass(frozen=True)
class LValue:
    """A computed L(sigma, chi) with an error estimate.

    `err_estimate` is `_error_bound`'s: at sigma < 1 the Euler-Maclaurin
    truncation only, at sigma = 1 a flat DIGAMMA_ERR, and in neither case
    the rounding, which ROADMAP item 8 measured at up to 3.0e3 times the
    estimate at sigma = 0.51 and 0.75.
    """

    chi_index: int
    sigma: float
    value: complex
    err_estimate: float

    def __post_init__(self):
        if self.err_estimate < 0:
            raise ValueError("err_estimate must be >= 0")


@dataclass(frozen=True)
class LValueBatch:
    """L(sigma, chi_j) for every non-principal chi_j of one group.

    half[j - 1] is L(sigma, chi_j) for j = 1..h = (q-1)/2 (read-only); the rest
    is L(sigma, chi_{q-1-j}) = conj L(sigma, chi_j).  `err_estimate` is
    `_error_bound`'s, the same for every entry: it counts the kernel's
    truncation (at sigma = 1 a flat DIGAMMA_ERR) and not the rounding of
    the kernel or the transform, so it does not bound the error below
    sigma = 1 (observed 1.6e3-3.0e3 times it at sigma = 0.51 and 0.75,
    q = 211 and 1009; ROADMAP item 8).
    """

    sigma: float
    half: np.ndarray
    err_estimate: float

    def half_abs(self) -> np.ndarray:
        """|L(sigma, chi_j)| for j = 1..h by np.hypot: abs(complex) bit for bit."""
        out = np.empty(self.half.size)
        _blocks(lambda a, b: np.hypot(self.half.real[a:b], self.half.imag[a:b], out=out[a:b]), out.size)
        return out


# ----------------------------------------------------------------------
# special-function kernel

# Euler-Maclaurin parameters of the kernel, fixed for every sigma: an
# explicit head of M terms and Bernoulli corrections B_2..B_2J.  With M = 12
# and J = 8 the first omitted term is below 1.2e-19 on (1/2, 1] (bound as in
# Johansson, "Rigorous high-precision computation of the Hurwitz zeta
# function and its derivatives", Numer. Algorithms 2015).
_EM_HEAD = 12
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)  # B_2..B_16
_BERNOULLI_NEXT = 43867 / 798  # B_18, the first omitted one


def _zeta_kernel(sigma: float, x: np.ndarray) -> np.ndarray:
    """K(sigma, x) = zeta(sigma, x) - 1/(sigma - 1) for x > 0, sigma > 0.

    By Euler-Maclaurin with M = 12 and B_2..B_16: with z = x + M,

        K = sum_{k<M} (k + x)**(-sigma) - expm1((1 - sigma) ln z) / (1 - sigma)
            + z**(-sigma) * (1/2 + P(1/z**2) / z),

    P(w) = sum_j c_j w**(j-1), c_j = B_2j / (2j)! * sigma (sigma + 1) ... (sigma + 2j - 2).
    The regularised tail is (z**(1-sigma) - 1)/(sigma - 1), which becomes
    -ln z at sigma = 1, so there K(1, x) = -psi(x), with no pole.

    The remainder (corrections minus tail) is formed first, by Horner in
    1/z**2 (each step divides twice by z), and the head terms are then
    added to it one at a time, k = 0 first, in the order numpy uses to
    reduce axis 0 of the matrix whose rows are the remainder and the M
    terms, so it equals that sum bit for bit.  Started from the remainder,
    the running sum stays below the tail in size, where a head summed first
    would climb above it and then cancel against it next to x = 1.  Three
    arrays of len(x) are alive at the peak, at every sigma.
    `hurwitz_zeta_error` bounds the truncation.
    """
    x = np.asarray(x, dtype=float)
    coeffs = []
    rising = sigma
    for j, b2j in enumerate(_BERNOULLI, 1):
        coeffs.append(b2j / math.factorial(2 * j) * rising)
        rising *= (sigma + 2 * j - 1) * (sigma + 2 * j)
    z = np.add(x, _EM_HEAD)
    total = np.log(z)
    if sigma != 1.0:
        total *= 1 - sigma
        np.expm1(total, out=total)
        total /= 1 - sigma
    term = np.divide(coeffs[-1], z)
    for c in reversed(coeffs[:-1]):
        term /= z
        term += c
        term /= z
    term += 0.5
    term *= np.power(z, -sigma, out=z)
    np.subtract(term, total, out=total)
    for k in range(_EM_HEAD):
        np.add(x, k, out=term)
        total += np.power(term, -sigma, out=term)
    return total


def _kernel_at(name: str, sigma: float, x: float) -> float:
    """K(sigma, x) at one x, refused where its head term x**(-sigma) is not a finite float."""
    with np.errstate(over="ignore"):
        value = float(_zeta_kernel(sigma, np.array([x]))[0])
    if not math.isfinite(value):
        raise ValueError(f"{name} requires x**(-{sigma}) to be a finite float, got x = {x}")
    return value


def digamma(x: float) -> float:
    """psi(x) = -K(1, x) for x > 0 with 1/x a finite float (x >= 1/DBL_MAX, about
    5.6e-309), to absolute error <= 1e-12 * max(1, |psi(x)|)."""
    if x <= 0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    return -_kernel_at("digamma", 1.0, x)


def hurwitz_zeta(sigma: float, x: float) -> float:
    """zeta(sigma, x) = K(sigma, x) + 1/(sigma - 1) for sigma > 1/2, sigma != 1,
    0 < x <= 1 with x**(-sigma) a finite float (x >= DBL_MAX**(-1/sigma))."""
    if not sigma > 0.5:
        raise ValueError(f"hurwitz_zeta requires sigma > 1/2, got {sigma}")
    if sigma == 1.0:
        raise ValueError("hurwitz_zeta has a pole at sigma = 1")
    if not 0 < x <= 1:
        raise ValueError(f"hurwitz_zeta requires 0 < x <= 1, got {x}")
    return _kernel_at("hurwitz_zeta", sigma, x) + 1 / (sigma - 1)


def hurwitz_zeta_error(sigma: float) -> float:
    """Truncation bound of the kernel K, and so of hurwitz_zeta, uniform over
    x in (0, 1], sigma > 0.

    Magnitude of the first omitted Euler-Maclaurin correction (the B_2J+2
    term, J = len(_BERNOULLI)) at the smallest shifted argument M + x >= M:
    |B_2J+2| / (2J+2)! * sigma (sigma + 1) ... (sigma + 2J) * M**(-sigma-2J-1).
    The derivatives of (t + x)**(-sigma) keep one sign, so the remainder is
    no larger than this term.  Float rounding is not included.
    """
    order = 2 * len(_BERNOULLI) + 2
    rising = 1.0
    for i in range(order - 1):
        rising *= sigma + i
    return abs(_BERNOULLI_NEXT) / math.factorial(order) * rising * _EM_HEAD ** (-sigma - order + 1)


# ----------------------------------------------------------------------
# L-values


def _residue_values(group: CharacterGroup, s: float, out: np.ndarray | None = None) -> np.ndarray:
    """zeta(s, a/q) - q**(s-1)/(s-1) at a = g**k for k = 0..q-2 (power
    order), -psi(a/q) - log q at s = 1, into `out` (a new array if None).

    That is K(s, a/q) - c, c = (1 - q**(s-1))/(1 - s) or log q: K has a mean
    near c (2.2 at s = 0.55, 9.8 at s = 1 for q = 10007), which drops out of
    non-principal L-values but which a group DFT would round into each.

    At s = 1 entries k and k + h (h = (q-1)/2) hold a pair a, q - a, since
    g**h = -1.  The kernel runs only on the upper member u = max(a, q - a),
    u/q in (1/2, 1); the lower one comes from K(1, x) = K(1, 1 - x) +
    pi cot(pi x) (DLMF 5.5.4, K = -psi) as the value at u/q plus
    pi / tan((q - u) * (pi/q)), which errs by about eps (log q + 1/x).  The
    other direction would subtract pi cot(pi x) from K(1, x), both near 1/x,
    and lose about q * eps.  The kernel runs by blocks of entries (of pairs at
    s = 1) into the output, so the peak is the output's 8 bytes per residue
    beside each thread's block work arrays.
    """
    q = group.q
    out = np.empty(q - 1) if out is None else out
    if s != 1.0:
        shift = math.expm1((s - 1) * math.log(q)) / (1 - s)  # minus c
        _blocks(lambda a, b: np.add(_zeta_kernel(s, _power_block(group, a, b) / q), shift, out=out[a:b]), q - 1)
        return out
    h = (q - 1) // 2

    def pairs(i, j):  # entries k and k + h for k in [i, j)
        a = _power_block(group, i, j)
        upper = np.maximum(a, q - a)
        at_upper = _zeta_kernel(1.0, upper / q)
        at_upper -= math.log(q)
        at_lower = np.tan((q - upper) * (math.pi / q))
        del upper
        np.divide(math.pi, at_lower, out=at_lower)
        at_lower += at_upper
        first = a > h  # g**k is the upper member of its pair
        out[i:j] = at_lower
        np.copyto(out[i:j], at_upper, where=first)
        out[h + i : h + j] = at_upper
        np.copyto(out[h + i : h + j], at_lower, where=first)

    _blocks(pairs, h)
    return out


@functools.lru_cache(maxsize=1)
def _residue_kernel(group: CharacterGroup, s: float) -> np.ndarray:
    """`_residue_values(group, s)`, read-only and kept for the last (group, s)
    only: single-character calls there share it, and the cache holds one
    length-(q-1) array and its group."""
    kernel = _residue_values(group, s)
    kernel.setflags(write=False)
    return kernel


def _error_bound(q: int, s: float) -> float:
    """The error estimate of an L-value mod q at sigma = s: q - 1 kernel
    errors, scaled by q**(-s).  A kernel error is hurwitz_zeta_error(s), the
    B_18 truncation term, at s < 1 and the flat DIGAMMA_ERR at s = 1; the
    rounding of the kernel and of the sum or transform is not counted, and
    below s = 1 it is the larger part (ROADMAP item 8)."""
    if s == 1.0:
        return (q - 1) / q * DIGAMMA_ERR
    return (q - 1) * q ** (-s) * hurwitz_zeta_error(s)


def l_value(chi: tuple[CharacterGroup, int], sigma) -> LValue:
    """L(sigma, chi_j) = q**(-sigma) * sum_a chi_j(a) * K(sigma, a/q).

    `chi` is the pair (group, j) that `CharacterGroup.character(j)` returns.
    The q - 1 products chi_j(g**k) * K(sigma, g**k/q) are formed along the
    cached power-order kernel (`power_values`, no dlog) and added exactly
    rounded by `numth._exact_sum`, so their order does not matter.  For the
    principal character (sigma < 1 only) the q - 1 constants
    q**(sigma-1)/(sigma-1) that the residue kernel leaves out are added back.
    """
    s = as_sigma(sigma)
    group, j = chi
    q = group.q
    if s == 1.0 and j == 0:
        raise ValueError("L(1, chi) has a pole at the principal character")
    total = numth._exact_sum(group.power_values(j) * _residue_kernel(group, s))
    if j == 0:
        total += (q - 1) * q ** (s - 1) / (s - 1)
    return LValue(j, s, total / q**s, _error_bound(q, s))


def l_value_batch(group: CharacterGroup, sigma) -> LValueBatch:
    """L(sigma, chi) for every non-principal chi, via one half-spectrum group
    DFT of the residue kernel in power order.

    Agrees with per-character `l_value` to well below 1e-9; the DFT kernel
    and the fixed power ordering make the reduction deterministic.
    """
    s = as_sigma(sigma)
    q = group.q
    spectrum = np.empty((q + 1) // 2, dtype=complex)  # the transform's buffer; the kernel is not cached
    _residue_values(group, s, spectrum.view(float)[: q - 1])
    _half_spectrum(group, spectrum)
    # divided as floats, like l_value's sum: complex / real would multiply by 1 / q**s
    np.divide(spectrum.view(float), q**s, out=spectrum.view(float))
    half = spectrum[1:]
    half.setflags(write=False)
    return LValueBatch(s, half, _error_bound(q, s))


def euler_product_truncated(chi: tuple[CharacterGroup, int], sigma, x: float) -> complex:
    """prod_{p <= x} (1 - chi(p) * p**(-sigma))**(-1) for chi = (group, j)."""
    s = as_sigma(sigma)
    if x < 2:
        raise ValueError(f"euler_product_truncated requires x >= 2, got {x}")
    group, j = chi
    primes = numth.sieve_primes(int(x))
    product = 1 + 0j
    for p, value in zip(primes.tolist(), group.character_values(j, primes).tolist()):
        product /= 1 - value * p ** (-s)
    return product


def dirichlet_poly(chi: tuple[CharacterGroup, int], sigma, x: float) -> complex:
    """sum over prime powers n = p**k <= x of Lambda(n) chi(n) / (n**sigma log n).

    Since Lambda(p**k)/log(p**k) = 1/k the term is chi(p**k) / (k p**(k sigma)).
    """
    s = as_sigma(sigma)
    if x < 2:
        raise ValueError(f"dirichlet_poly requires x >= 2, got {x}")
    group, j = chi
    powers = []  # (p**k, k), ascending in p, then in k
    for p in numth.sieve_primes(int(x)).tolist():
        pk, k = p, 1
        while pk <= x:
            powers.append((pk, k))
            pk *= p
            k += 1
    values = group.character_values(j, np.array([pk for pk, _ in powers])).tolist()
    return numth._exact_sum(np.array([v / (k * pk**s) for v, (pk, k) in zip(values, powers)]))


def prime_sum(chi: tuple[CharacterGroup, int], sigma, x: float) -> complex:
    """sum_{p <= x} chi(p) * p**(-sigma) for chi = (group, j); empty sum (x < 2) is 0."""
    s = as_sigma(sigma)
    if x < 0:
        raise ValueError(f"prime_sum requires x >= 0, got {x}")
    group, j = chi
    primes = numth.sieve_primes(int(x))
    terms = [v * p ** (-s) for p, v in zip(primes.tolist(), group.character_values(j, primes).tolist())]
    return numth._exact_sum(np.array(terms, dtype=complex))


@dataclass(frozen=True)
class ApproxErrorCensus:
    """Characters whose log |L| strays from the short prime sum by more than tol."""

    sigma: float
    x: float
    tol: float
    indices: tuple[int, ...]
    max_deviation: float
    mean_deviation: float


def approx_error_census(group: CharacterGroup, sigma, x: float, tol: float, labs: np.ndarray) -> ApproxErrorCensus:
    """Empirical census of | log|L(sigma, chi)| - Re sum_{p<=x} chi(p) p^-sigma | > tol,
    given labs[j - 1] = |L(sigma, chi_j)| for j = 1..h = (q-1)/2 (`LValueBatch.half_abs()`);
    each j found stands for its conjugate pair {j, q-1-j} in `indices`.  The principal
    character is always excluded; the deviation statistics cover every non-principal character.
    """
    return _approx_error_census(group, sigma, x, tol, labs)


def _approx_error_census(group, sigma, x, tol, labs, k: int = 0, sums=0.0) -> ApproxErrorCensus:
    """`approx_error_census` given sums[j] = Re sum over the first k primes <= x for j = 0..h
    (the half-weight certificate's series): only the primes past the k-th are transformed."""
    s = as_sigma(sigma)
    if tol < 0:
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    if x < 2:
        raise ValueError(f"census requires x >= 2, got {x}")
    q = group.q
    if labs.shape != ((q - 1) // 2,):
        raise ValueError(f"census requires labs of shape ({(q - 1) // 2},), got {labs.shape}")
    primes = numth.sieve_primes(int(x))
    if primes.size > k:
        sums = sums + _term_sums(group, primes[k:], primes[k:].astype(float) ** (-s)).real
    deviations = np.abs(np.log(labs) - sums[1:])
    bad = np.flatnonzero(deviations > tol) + 1
    return ApproxErrorCensus(
        sigma=s,
        x=float(x),
        tol=float(tol),
        indices=tuple(np.union1d(bad, q - 1 - bad).tolist()),
        max_deviation=float(deviations.max()),
        mean_deviation=float((2 * deviations.sum() - deviations[-1]) / (q - 2)),  # j < h stand for pairs
    )
