"""Completely multiplicative resonator weights and their closed-form products.

Two weight schemes are used:

    linear (cutoff X):  w_p = 1 - p/X for p <= X, else 0
    half   (cutoff Y):  w_p = 1/2     for p <= Y, else 0

extended to all n >= 1 completely multiplicatively (w_1 = 1).  The resonator
attached to a character is R(chi) = prod_{p <= cutoff} (1 - w_p chi(p))**(-1);
because all coefficients are nonnegative its series truncations carry exact,
positive tails, which is what makes finite certificates possible downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numth

KIND_LINEAR = "linear"
KIND_HALF = "half"


@dataclass(frozen=True)
class WeightScheme:
    kind: str
    cutoff: float

    def __post_init__(self):
        if self.kind not in (KIND_LINEAR, KIND_HALF):
            raise ValueError(f"unknown weight scheme kind {self.kind!r}")
        if self.cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")


def linear_scheme(x: float) -> WeightScheme:
    """Weights w_p = 1 - p/x on p <= x."""
    return WeightScheme(KIND_LINEAR, float(x))


def half_scheme(y: float) -> WeightScheme:
    """Weights w_p = 1/2 on p <= y."""
    return WeightScheme(KIND_HALF, float(y))


def weight(scheme: WeightScheme, p: int) -> float:
    """w_p for a prime p; zero above the cutoff."""
    if not numth.is_prime(p):
        raise ValueError(f"weight is defined on primes only, got {p}")
    if p > scheme.cutoff:
        return 0.0
    if scheme.kind == KIND_LINEAR:
        return 1.0 - p / scheme.cutoff
    return 0.5


def coeff(scheme: WeightScheme, n: int) -> float:
    """The completely multiplicative extension w_n; coeff(1) = 1."""
    if n < 1:
        raise ValueError(f"coeff requires n >= 1, got {n}")
    value = 1.0
    for p, e in numth.factorize(n):
        value *= weight(scheme, p) ** e
    return value


def _scheme_primes(scheme: WeightScheme) -> tuple[list[int], list[float]]:
    primes = numth.sieve_primes(int(scheme.cutoff)).tolist()
    return primes, [weight(scheme, p) for p in primes]


def resonator_value(scheme: WeightScheme, chi) -> complex:
    """R(chi) = prod_{p <= cutoff} (1 - w_p chi(p))**(-1) for chi = (group, j).

    The cutoff must stay below the modulus so every retained prime is
    coprime to q.
    """
    group, j = chi
    if scheme.cutoff >= group.q:
        raise ValueError(
            f"scheme cutoff {scheme.cutoff} must be < modulus {group.q} "
            "to keep all resonator primes coprime to q"
        )
    product = 1 + 0j
    primes, weights = _scheme_primes(scheme)
    values = group.character_values(j, np.array(primes, dtype=np.int64)).tolist()
    for w, value in zip(weights, values):
        if w > 0:
            product /= 1 - w * value
    return product


@dataclass(frozen=True)
class ResonatorCoeffs:
    """Truncated resonator coefficients with exact tail accounting.

    `ns` and `weights` list the smooth n <= limit with w_n > 0, ascending.
    `total` is the closed-form full series sum prod (1 - w_p)**(-1); since
    all coefficients are positive, `tail` = total - partial sum is a true
    upper bound for everything that truncation discards.
    """

    scheme: WeightScheme
    limit: int
    ns: np.ndarray
    weights: np.ndarray
    total: float
    tail: float

    def __post_init__(self):
        self.ns.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def partial_sum(self) -> float:
        return self.total - self.tail

    @property
    def tail_fraction(self) -> float:
        return self.tail / self.total


def enumerate_coeffs(scheme: WeightScheme, limit: int) -> ResonatorCoeffs:
    """All (n, w_n) with w_n > 0 and n <= limit, plus exact tail."""
    if limit < 1:
        raise ValueError(f"enumerate_coeffs requires limit >= 1, got {limit}")
    primes, weights = (np.array(a) for a in _scheme_primes(scheme))
    live = weights > 0
    ns, ws = numth._smooth_closure(primes[live], weights[live], limit)
    total = 1.0
    for w in weights[live].tolist():
        total /= 1 - w
    tail = max(total - numth._exact_sum(ws), 0.0)
    return ResonatorCoeffs(scheme, limit, ns, ws, total, tail)


def log_principal_square(scheme: WeightScheme) -> float:
    """log |R(chi_0)|**2 for the linear scheme, in closed form.

    Each principal factor is (1 - w_p)**(-1) = x/p, so the log of the square
    is exactly 2 * sum_{p <= x} (log x - log p).
    """
    if scheme.kind != KIND_LINEAR:
        raise ValueError("closed form is specific to the linear scheme")
    x = scheme.cutoff
    primes, _ = _scheme_primes(scheme)
    return 2.0 * math.fsum(math.log(x) - math.log(p) for p in primes)


class ProductBreakdown(NamedTuple):
    value: float
    mertens_factor: float
    correction_factor: float


def lower_bound_product(scheme: WeightScheme) -> ProductBreakdown:
    """prod_{p <= x} (1 - w_p/p)**(-1), the full-series certificate target.

    Also returns its two-factor split: the Mertens part prod (1 - 1/p)**(-1)
    and the correction prod (p-1)/(p - w_p); the pieces multiply back to the
    product exactly.
    """
    if scheme.kind != KIND_LINEAR:
        raise ValueError("lower_bound_product is specific to the linear scheme")
    value = mertens = correction = 1.0
    primes, weights = _scheme_primes(scheme)
    for p, w in zip(primes, weights):
        value /= 1 - w / p
        mertens /= 1 - 1 / p
        correction *= (p - 1) / (p - w)
    return ProductBreakdown(value, mertens, correction)


def mertens_product(x: float) -> float:
    """prod_{p <= x} (1 - 1/p)**(-1) for x >= 2."""
    if x < 2:
        raise ValueError(f"mertens_product requires x >= 2, got {x}")
    value = 1.0
    for p in numth.sieve_primes(int(x)).tolist():
        value /= 1 - 1 / p
    return value


class SecondMoment(NamedTuple):
    value: float
    log_value: float
    log_comparator: float | None


def second_moment_product(scheme: WeightScheme) -> SecondMoment:
    """prod_{p <= cutoff} (1 - w_p**2)**(-1), the diagonal second-moment bound.

    `value` overflows to inf for large linear cutoffs, so the log is always
    reported; for the linear scheme the asymptotic comparator
    (2 - log 4) * x / log x is attached on the log scale.
    """
    _, weights = _scheme_primes(scheme)
    log_value = -math.fsum(math.log1p(-w * w) for w in weights if w > 0)
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    log_comparator = None
    if scheme.kind == KIND_LINEAR and scheme.cutoff >= 2:
        x = scheme.cutoff
        log_comparator = (2 - math.log(4)) * x / math.log(x)
    return SecondMoment(value, log_value, log_comparator)


class IntegralSplit(NamedTuple):
    total: float
    main_part: float
    tail_part: float


def _log_substituted_integral(log_x: float, lo: float, hi: float) -> float:
    """int_lo^hi e**u du / ((u + log x) * (2 - e**u)): the J(x) integrand
    after u = log(2 - t), by 8 equal panels of 32-node Gauss-Legendre."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(lo, hi, 9)
    half = 0.5 * np.diff(edges)[:, None]
    u = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes
    e = np.exp(u)
    return float(np.sum(half * weights * e / ((u + log_x) * (2 - e))))


def second_moment_integral(x: float) -> IntegralSplit:
    """J(x) = int_1^{2 - 2/x} dt / ((log(2-t) + log x) * t), split in two.

    The split point 2 - (log x)**(-2) separates the O(log2/log x) main part
    from the O((log x)**(-2)) remainder; for x just above 10 the nominal
    split can overshoot the upper limit, in which case it is clamped and the
    remainder piece is empty.  Both pieces are integrated in u = log(2 - t),
    which flattens the steep end at t -> 2, with a fixed rule of 8 equal
    panels of 32 Gauss-Legendre nodes each; the endpoints are taken in u
    directly (u = 0 at t = 1, -2 log log x at the split, log 2 - log x at
    the upper limit), so 2 - 2/x is never rounded.  Against a 40-digit
    reference over 10 <= x <= 1e12 each piece is within 3e-15 relative.
    """
    if not 10 <= x < math.inf:
        raise ValueError(f"second_moment_integral requires a finite x >= 10, got {x}")
    log_x = math.log(x)
    u_upper = math.log(2) - log_x
    u_split = max(-2 * math.log(log_x), u_upper)
    main_part = _log_substituted_integral(log_x, u_split, 0.0)
    tail_part = _log_substituted_integral(log_x, u_upper, u_split)  # 0.0 when clamped
    return IntegralSplit(main_part + tail_part, main_part, tail_part)
