"""Evaluation of Dirichlet L-functions L(sigma, chi) on (1/2, 1].

Two certified finite formulas serve as ground truth:

    sigma = 1:  L(1, chi) = -(1/q) * sum_{a=1}^{q-1} chi(a) * psi(a/q)
                (non-principal chi only; the pole cancels because the
                character values sum to zero),
    sigma < 1:  L(sigma, chi) = q**(-sigma) * sum_a chi(a) * zeta(sigma, a/q)

with psi the digamma function and zeta(s, x) the Hurwitz zeta, both
implemented here to absolute error well below 1e-12.  Batch evaluation
over the whole character group is a single group DFT on the vector of
digamma / Hurwitz values.

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
from .chargroup import CharacterGroup, dft_over_group

_L_METHODS = ("digamma", "hurwitz")

# absolute error bound for the digamma evaluation below (asymptotic-series
# remainder ~2e-20 at the lift threshold plus float rounding)
DIGAMMA_ERR = 1e-13


def as_sigma(sigma) -> float:
    """Coerce sigma to a validated float in (1/2, 1]."""
    value = float(sigma)
    if not 0.5 < value <= 1.0:
        raise ValueError(f"sigma must lie in (1/2, 1], got {value}")
    return value


@dataclass(frozen=True)
class LValue:
    """A computed L(sigma, chi) with method tag and error estimate."""

    chi_index: int
    sigma: float
    value: complex
    method: str
    err_estimate: float

    def __post_init__(self):
        if self.method not in _L_METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.err_estimate < 0:
            raise ValueError("err_estimate must be >= 0")
        if self.method == "digamma" and self.sigma != 1.0:
            raise ValueError("digamma backend is specific to sigma = 1")


@dataclass(frozen=True)
class LValueBatch:
    """L(sigma, chi_j) for every non-principal chi_j of one group.

    values[j - 1] is L(sigma, chi_j) for j = 1..q-2 (a read-only complex
    array); `err_estimate` bounds the error of every entry.
    """

    sigma: float
    values: np.ndarray
    method: str
    err_estimate: float

    def abs_values(self) -> np.ndarray:
        """|L(sigma, chi_j)| for j = 1..q-2.

        np.hypot on the parts equals Python's abs(complex) bit for bit;
        np.abs on complex input can differ from it in the last ulp.  The
        batch holds L(sigma, conj chi) = conj L(sigma, chi) exactly, up to
        the signs of zero parts, so hypot runs on j = 1..(q-1)/2 and the
        rest is its mirror.
        """
        h = (self.values.size + 1) // 2
        lower = self.values[:h]
        out = np.empty(self.values.size)
        np.hypot(lower.real, lower.imag, out=out[:h])
        out[h:] = out[: h - 1][::-1]
        return out


# ----------------------------------------------------------------------
# special-function backends


def _digamma_vec(x: np.ndarray) -> np.ndarray:
    """psi(x) for x > 0: recurrence lift to >= 16, then asymptotic series.

    The lift adds 1/(x + k) for k < steps = ceil(16 - x) through one
    scratch array; steps below min(steps) are added unmasked (on the a/q
    grid, where steps = 16 throughout, that is every step) and the rest
    with a masked add.  The asymptotic series then runs in place, in the
    operation order of ln z - 0.5/z - w*(1/12 - w*(1/120 - ...)) - acc,
    so at most four arrays of len(x) are alive at once.
    """
    x = np.asarray(x, dtype=float)
    lift = 16.0
    steps = np.subtract(lift, x)
    np.ceil(steps, out=steps)
    np.maximum(steps, 0.0, out=steps)
    acc = np.zeros_like(x)
    if steps.size:
        tmp = np.empty_like(x)
        unmasked = int(steps.min())
        for k in range(int(steps.max())):
            np.add(x, k, out=tmp)
            np.divide(1.0, tmp, out=tmp)
            if k < unmasked:
                acc += tmp
            else:
                np.add(acc, tmp, out=acc, where=k < steps)
        del tmp
    z = np.add(x, steps, out=steps)
    del steps
    w = np.multiply(z, z)
    np.divide(1.0, w, out=w)
    # psi(z) ~ ln z - 1/(2z) - sum B_{2n} / (2n z^{2n}), through B_14, by Horner in w
    series = np.divide(w, 12)
    for c in (691 / 32760, 1 / 132, 1 / 240, 1 / 252, 1 / 120, 1 / 12):
        np.subtract(c, series, out=series)
        series *= w
    out = np.log(z, out=w)
    out -= np.divide(0.5, z, out=z)
    out -= series
    out -= acc
    return out


def digamma(x: float) -> float:
    """psi(x) to absolute error <= 1e-12 for x > 0."""
    if x <= 0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    return float(_digamma_vec(np.array([x]))[0])


# Euler-Maclaurin parameters of the Hurwitz kernel, fixed for every sigma:
# an explicit head of M terms and Bernoulli corrections B_2..B_2J.  With
# M = 12 and J = 8 the first omitted term is below 1.2e-19 on (1/2, 1]
# (bound as in Johansson, "Rigorous high-precision computation of the
# Hurwitz zeta function and its derivatives", Numer. Algorithms 2015).
_EM_HEAD = 12
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)  # B_2..B_16
_BERNOULLI_NEXT = 43867 / 798  # B_18, the first omitted one


def _em_remainder(sigma: float, z: np.ndarray) -> np.ndarray:
    """Tail, half-term and Bernoulli corrections of zeta(sigma, x) at z = x + M.

    With zs = z**(-sigma) these are z * zs / (sigma - 1), zs / 2 and
    zs / z * sum_j c_j z**(2 - 2j).  They are formed as one bracket,

        zs * (z + (sigma - 1) * (1/2 + P(1/z**2) / z)) / (sigma - 1),

    with P run by Horner in 1/z**2 (each step divides twice by z, so no
    1/z**2 array is held) and the factor sigma - 1 folded into its
    coefficients; the only power is zs.  `z` is overwritten with zs; one
    further array is allocated and returned.
    """
    scaled = []  # (sigma - 1) * c_j, c_j = B_2j / (2j)! * sigma (sigma + 1) ... (sigma + 2j - 2)
    rising = sigma
    for j, b2j in enumerate(_BERNOULLI, 1):
        scaled.append((sigma - 1) * (b2j / math.factorial(2 * j) * rising))
        rising *= (sigma + 2 * j - 1) * (sigma + 2 * j)
    acc = np.divide(scaled[-1], z)
    for c in reversed(scaled[:-1]):
        acc /= z
        acc += c
        acc /= z
    acc += 0.5 * (sigma - 1)
    acc += z
    acc *= np.power(z, -sigma, out=z)
    acc /= sigma - 1
    return acc


def _hurwitz_vec(sigma: float, x: np.ndarray) -> np.ndarray:
    """Hurwitz zeta(sigma, x) by Euler-Maclaurin with M = 12, B_2..B_16.

    The head sum_{k<M} (k + x)**(-sigma) is accumulated term by term into
    one array, in the order numpy uses to reduce axis 0 of the M x len(x)
    matrix of terms, so it equals that sum bit for bit.  `_em_remainder`
    adds the rest from the single power (x + M)**(-sigma): M + 1 powers
    per call, and three arrays of len(x) at the peak, at every sigma.
    `hurwitz_zeta_error` bounds the truncation.
    """
    x = np.asarray(x, dtype=float)
    head = x ** (-sigma)
    term = np.empty_like(head)
    for k in range(1, _EM_HEAD):
        np.add(x, k, out=term)
        head += np.power(term, -sigma, out=term)
    total = _em_remainder(sigma, np.add(x, _EM_HEAD, out=term))
    total += head
    return total


def hurwitz_zeta(sigma: float, x: float) -> float:
    """zeta(sigma, x) for sigma > 1/2, sigma != 1, 0 < x <= 1."""
    if sigma <= 0.5:
        raise ValueError(f"hurwitz_zeta requires sigma > 1/2, got {sigma}")
    if sigma == 1.0:
        raise ValueError("hurwitz_zeta has a pole at sigma = 1")
    if not 0 < x <= 1:
        raise ValueError(f"hurwitz_zeta requires 0 < x <= 1, got {x}")
    return float(_hurwitz_vec(sigma, np.array([x]))[0])


def hurwitz_zeta_error(sigma: float) -> float:
    """Truncation bound of hurwitz_zeta, uniform over x in (0, 1], sigma > 0.

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


def _fsum_complex(values: np.ndarray) -> complex:
    """Exactly rounded sum of a 1-d complex array.

    A memoryview hands fsum plain Python floats, which it adds faster than
    numpy scalars, without the list of floats that `.tolist()` would hold.
    """
    return complex(math.fsum(memoryview(values.real)), math.fsum(memoryview(values.imag)))


def _residue_values(q: int, s: float) -> np.ndarray:
    """psi(a/q) at s = 1, zeta(s, a/q) at s < 1, for a = 1..q-1.

    At s = 1 the series runs only on the upper half a = h+1..q-1
    (h = (q-1)/2, a/q in (1/2, 1)); the lower half comes from the
    reflection psi(x) = psi(1 - x) - pi cot(pi x) (DLMF 5.5.4) as
    psi((q-a)/q) - pi / tan(a * (pi/q)).  For small x both terms are
    negative, so nothing cancels.  The opposite direction would cancel
    -1/x against 1/x and lose about q * eps.  The output is allocated after
    the series returns, so the peak is about 20 bytes per residue instead
    of the 40 of a full-length series.
    """
    if s != 1.0:
        return _hurwitz_vec(s, np.arange(1, q) / q)
    h = (q - 1) // 2
    upper = _digamma_vec(np.arange(h + 1, q) / q)
    out = np.empty(q - 1)
    out[h:] = upper
    pi_cot = np.tan(np.arange(1, h + 1) * (math.pi / q))
    np.divide(math.pi, pi_cot, out=pi_cot)
    np.subtract(upper[::-1], pi_cot, out=out[:h])
    return out


@functools.lru_cache(maxsize=1)
def _residue_kernel(q: int, s: float) -> np.ndarray:
    """`_residue_values(q, s)`, read-only and kept for the last (q, s) only.

    Single-character calls at one (q, s) share it; one cached entry keeps
    the held memory at a single length-(q-1) array.
    """
    kernel = _residue_values(q, s)
    kernel.setflags(write=False)
    return kernel


def _method_and_error(q: int, s: float) -> tuple[str, float]:
    """The method tag and the error bound of an L-value mod q at sigma = s:
    q - 1 digamma or Hurwitz evaluations, scaled by 1/q or q**(-s)."""
    if s == 1.0:
        return "digamma", (q - 1) / q * DIGAMMA_ERR
    return "hurwitz", (q - 1) * q ** (-s) * hurwitz_zeta_error(s)


def l_value(chi: tuple[CharacterGroup, int], sigma) -> LValue:
    """L(sigma, chi_j) by the digamma (sigma = 1) or Hurwitz (sigma < 1) formula.

    `chi` is the pair (group, j) that `CharacterGroup.character(j)` returns.
    The q - 1 products chi_j(a) * kernel(a) are added by exact (fsum)
    summation.  Calls at the same (q, sigma) share one cached residue kernel.
    """
    s = as_sigma(sigma)
    group, j = chi
    q = group.q
    if s == 1.0 and j == 0:
        raise ValueError("L(1, chi) has a pole at the principal character")
    weighted = group.character_values(j, np.arange(1, q)) * _residue_kernel(q, s)
    value = -_fsum_complex(weighted) / q if s == 1.0 else q ** (-s) * _fsum_complex(weighted)
    return LValue(j, s, value, *_method_and_error(q, s))


def l_value_batch(group: CharacterGroup, sigma) -> LValueBatch:
    """L(sigma, chi) for every non-principal chi, via one group DFT.

    Agrees with per-character `l_value` to well below 1e-9; the DFT kernel
    and the fixed residue ordering make the reduction deterministic, and
    conjugate characters get exactly conjugate values.
    """
    s = as_sigma(sigma)
    q = group.q
    # uncached: a scan holds no q-length kernel after its batch returns
    values = dft_over_group(group, _residue_values(q, s))
    # scaled in place, by the same operations in the same order as -dft/q and q**-s * dft
    if s == 1.0:
        np.negative(values, out=values)
        values /= q
    else:
        values *= q ** (-s)
    values = values[1 : q - 1]
    values.setflags(write=False)
    return LValueBatch(s, values, *_method_and_error(q, s))


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
    return _fsum_complex(np.array([v / (k * pk**s) for v, (pk, k) in zip(values, powers)]))


def prime_sum(chi: tuple[CharacterGroup, int], sigma, x: float) -> complex:
    """sum_{p <= x} chi(p) * p**(-sigma) for chi = (group, j); empty sum (x < 2) is 0."""
    s = as_sigma(sigma)
    if x < 0:
        raise ValueError(f"prime_sum requires x >= 0, got {x}")
    group, j = chi
    primes = numth.sieve_primes(int(x))
    terms = [v * p ** (-s) for p, v in zip(primes.tolist(), group.character_values(j, primes).tolist())]
    return _fsum_complex(np.array(terms)) if terms else 0j


@dataclass(frozen=True)
class ApproxErrorCensus:
    """Characters whose log |L| strays from the short prime sum by more than tol."""

    sigma: float
    x: float
    tol: float
    indices: tuple[int, ...]
    max_deviation: float
    mean_deviation: float


def approx_error_census(group: CharacterGroup, sigma, x: float, tol: float) -> ApproxErrorCensus:
    """Empirical census of | log|L(sigma, chi)| - Re sum_{p<=x} chi(p) p^-sigma | > tol.

    The principal character is always excluded.  Deviation statistics cover
    all non-principal characters, not only the offenders.
    """
    s = as_sigma(sigma)
    return _census_from_abs(group, s, x, tol, l_value_batch(group, s).abs_values())


def _census_from_abs(group: CharacterGroup, s: float, x: float, tol: float, labs: np.ndarray) -> ApproxErrorCensus:
    """The census of `approx_error_census`, given |L(s, chi_j)| for j = 1..q-2."""
    if tol < 0:
        raise ValueError(f"tolerance must be >= 0, got {tol}")
    if x < 2:
        raise ValueError(f"census requires x >= 2, got {x}")
    q = group.q
    primes = numth.sieve_primes(int(x))
    weights = primes.astype(float) ** (-s)
    prime_sums = dft_over_group(group, numth._residue_sums(q, primes, weights)[1:])
    deviations = np.abs(np.log(labs) - prime_sums[1 : q - 1].real)
    bad = tuple((np.flatnonzero(deviations > tol) + 1).tolist())
    return ApproxErrorCensus(
        sigma=s,
        x=float(x),
        tol=float(tol),
        indices=bad,
        max_deviation=float(deviations.max()),
        mean_deviation=float(deviations.mean()),
    )
