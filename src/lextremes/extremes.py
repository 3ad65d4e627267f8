"""Extreme-value experiment drivers at desk scale.

Scans of |L(1, chi)| and log |L(sigma, chi)| over whole character groups,
threshold censuses, and the classical (log q)/3 upper-bound check.  The
asymptotic lower-bound claims behind these experiments hold only for
sufficiently large q, so the scans report margins against the reference
bounds instead of asserting them; margins are frozen as regression
fixtures by the test suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import numth
from .chargroup import CharacterGroup, _term_sums, build_group
from .lfunc import _approx_error_census, l_value_batch
from .resonance import EULER_GAMMA, ResonanceReport, _half_weight_certificate, _half_weight_cutoff
from .resonator import WeightScheme, _scheme_primes, linear_scheme


@dataclass(frozen=True)
class Constants:
    """Reference constants used by thresholds and reports."""

    e_gamma: float
    c: float
    c0: float
    conjectural_offset: float


def reference_constants() -> Constants:
    """e**gamma, the sigma = 1 offset constant c = 1 + log log 4, and the
    reported density constant c0 with its conjectural combination."""
    c0 = -0.395
    return Constants(
        e_gamma=math.exp(EULER_GAMMA),
        c=1 + math.log(math.log(4)),
        c0=c0,
        conjectural_offset=c0 + 1 - math.log(2),
    )


def _iterated_logs(q: int) -> tuple[float, float, float]:
    numth.check_modulus(q, least=17)  # so loglog q >= 1
    log_q = math.log(q)
    log2_q = math.log(log_q)
    return log_q, log2_q, math.log(log2_q)


def _sigma1_abs(q: int) -> tuple[tuple[float, float, float], np.ndarray]:
    """The iterated logs of q and |L(1, chi_j)| for j = 1..(q-1)/2 (conjugates tie)."""
    logs = _iterated_logs(q)  # rejects q < 17 before the group is built
    return logs, l_value_batch(build_group(q), 1.0).half_abs()


def _resonator_log_abs_all(group: CharacterGroup, scheme: WeightScheme) -> np.ndarray:
    """log |R(chi_j)| for j = 0..(q-1)/2, as one half-spectrum group DFT.

    log R(chi) = sum_p sum_{m>=1} w_p**m chi(p**m) / m is a character sum of
    the fixed terms (p**m mod q, w_p**m / m), so log |R(chi_j)| is the real
    part of the transform of their residue sums.  Each prime's series stops
    at the first m whose tail bound w_p**m / (m (1 - w_p)) is below 2**-64.
    `chargroup._term_sums` drops residue 0, so the prime q itself, where
    every character vanishes, contributes 1 to R.  Conjugate characters tie
    bit for bit.  Primes and weights come from `resonator._scheme_primes`.
    """
    q = group.q
    ns, terms = [], []
    for p, w in zip(*_scheme_primes(scheme)):
        m, w_m, p_m = 1, w, p % q  # w**m and p**m mod q
        while w_m / (m * (1 - w)) >= 2.0**-64:
            ns.append(p_m)
            terms.append(w_m / m)
            m, w_m, p_m = m + 1, w_m * w, p_m * p % q
    ns, terms = np.array(ns, dtype=np.int64), np.array(terms)  # frees the lists, about 60 bytes per term
    return _term_sums(group, ns, terms).real


def _resonant_index(group: CharacterGroup, scheme: WeightScheme, excluded: tuple[int, ...] = ()) -> int:
    """The first non-principal j outside `excluded` (closed under j <-> q-1-j)
    that maximises log |R(chi_j)|: conjugates tie, so it lies in j <= (q-1)/2."""
    log_r = _resonator_log_abs_all(group, scheme)
    log_r[[0, *(j for j in excluded if j < log_r.size)]] = -np.inf
    return int(np.argmax(log_r))


@dataclass(frozen=True)
class ScanReport:
    """Result of one extreme-value scan over the character group.

    For sigma = 1 the scanned statistic is |L| itself and
    margin = max_abs_l - bound_value; for sigma < 1 the statistic is
    log |L|, bound_value holds the reference shape
    (log q)**(1-sigma) * (loglog q)**(-sigma), and
    margin = max_log_abs_l - bound_value.
    """

    q: int
    sigma: float
    max_abs_l: float
    argmax_index: int
    bound_value: float
    margin: float
    resonant_index: int
    resonant_abs_l: float
    max_log_abs_l: float
    c_hat: float | None = None
    excluded_indices: tuple[int, ...] = ()
    quotient: ResonanceReport | None = None
    elapsed_seconds: float = 0.0


@dataclass(frozen=True)
class CensusReport:
    """Threshold census of |L(1, chi)| over a grid of offsets delta.

    counts[i] is the number of non-principal characters with |L(1, chi)|
    above e**gamma (loglog q + logloglog q - c - delta_i); larger delta
    lowers the threshold, so counts are nondecreasing along the grid.
    """

    q: int
    sigma: float
    deltas: tuple[float, ...]
    thresholds: tuple[float, ...]
    counts: tuple[int, ...]
    exponents_emp: tuple[float, ...]
    exponents_ref: tuple[float, ...]
    b_values: tuple[float, ...]
    max_abs_l: float
    constants: Constants = field(default_factory=reference_constants)
    elapsed_seconds: float = 0.0


def scan_sigma1(q: int, epsilon: float = 0.0) -> ScanReport:
    """Scan |L(1, chi)| over all non-principal chi and compare against
    e**gamma (loglog q + logloglog q - c - epsilon).

    Also identifies the character the linear resonator (prime cutoff
    log q loglog q / 1.4) singles out, and its L-value.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    start = time.perf_counter()
    log_q, log2_q, log3_q = _iterated_logs(q)
    group = build_group(q)  # after _iterated_logs, which rejects q < 17
    # the resonator's transform is freed before the L-value batch is allocated
    resonant = _resonant_index(group, linear_scheme(log_q * log2_q / 1.4))
    labs = l_value_batch(group, 1.0).half_abs()  # j <= h; argmax keeps the first of a conjugate tie
    const = reference_constants()
    bound = const.e_gamma * (log2_q + log3_q - const.c - epsilon)
    argmax = 1 + int(np.argmax(labs))
    max_abs = float(labs[argmax - 1])
    return ScanReport(
        q=q,
        sigma=1.0,
        max_abs_l=max_abs,
        argmax_index=argmax,
        bound_value=bound,
        margin=max_abs - bound,
        resonant_index=resonant,
        resonant_abs_l=float(labs[resonant - 1]),
        max_log_abs_l=math.log(max_abs),
        elapsed_seconds=time.perf_counter() - start,
    )


def threshold_census(q: int, deltas) -> CensusReport:
    """Count characters with |L(1, chi)| above the delta-lowered threshold,
    for every delta in the grid; e**delta must be a float, so delta <= 709.78
    (log of the largest float: 709.7827)."""
    deltas = tuple(float(d) for d in deltas)
    if not deltas or any(not 0 < d <= 709.78 for d in deltas):
        raise ValueError("census requires a nonempty grid of deltas in (0, 709.78], so e**delta is a float")
    start = time.perf_counter()
    (log_q, log2_q, log3_q), labs = _sigma1_abs(q)
    const = reference_constants()
    thresholds, counts, emp, ref, b_values = [], [], [], [], []
    for d in deltas:
        threshold = const.e_gamma * (log2_q + log3_q - const.c - d)
        count = 2 * int(np.sum(labs > threshold)) - int(labs[-1] > threshold)  # pairs j < h, and j = h
        thresholds.append(threshold)
        counts.append(count)
        emp.append(math.log(count) / log_q if count >= 1 else math.nan)
        ref.append(1 - math.exp(-d))
        b_values.append(math.exp(d) * math.exp(-1 / math.sqrt(log2_q)) * math.log(4))
    return CensusReport(
        q=q,
        sigma=1.0,
        deltas=deltas,
        thresholds=tuple(thresholds),
        counts=tuple(counts),
        exponents_emp=tuple(emp),
        exponents_ref=tuple(ref),
        b_values=tuple(b_values),
        max_abs_l=float(labs.max()),
        constants=const,
        elapsed_seconds=time.perf_counter() - start,
    )


def scan_sigma_strip(
    q: int,
    sigma: float,
    x_cap: float = 1e5,
    a_sigma: float | None = None,
    y_min: float = 20.0,
    census_tol: float = 1.0,
    n_limit: int = 10**4,
    k_limit: int = 10**4,
    tau_budget: float = 0.05,
) -> ScanReport:
    """Scan log |L(sigma, chi)| for sigma in (1/2, 1), excluding the
    empirical census of characters badly approximated by the short prime
    sum, and report the ratio c_hat against the reference shape
    (log q)**(1-sigma) * (loglog q)**(-sigma).

    The half-weight quotient certificate is computed first and attached;
    n_limit, k_limit and tau_budget are passed on to
    `half_weight_certificate`.  The census sums primes up to the
    certificate's cutoff x = quotient.x and reads its series transform of the
    first k_limit (four transforms when pi(x) <= k_limit), over j <= (q-1)/2.
    """
    if not 0.5 < sigma < 1.0:
        raise ValueError(f"sigma must lie strictly inside (1/2, 1), got {sigma}")
    log_q, log2_q, _ = _iterated_logs(q)
    _half_weight_cutoff(q, sigma, a_sigma, y_min)  # reject a bad cutoff before the group is built
    start = time.perf_counter()
    group = build_group(q)
    quotient, series = _half_weight_certificate(group, sigma, a_sigma, y_min, x_cap, n_limit, k_limit, tau_budget)
    labs = l_value_batch(group, sigma).half_abs()
    census = _approx_error_census(group, sigma, quotient.x, census_tol, labs, k_limit, series)
    if len(census.indices) == q - 2:
        raise ValueError(f"census at tol={census_tol} excluded every character of q={q}")
    log_abs = np.log(labs)  # j = 1..h
    log_abs[[j - 1 for j in census.indices if j <= labs.size]] = -np.inf
    argmax = 1 + int(np.argmax(log_abs))
    max_log = float(log_abs[argmax - 1])
    del series, log_abs  # so the resonator's transform does not stack on them
    target_shape = log_q ** (1 - sigma) * log2_q ** (-sigma)
    resonant = _resonant_index(group, quotient.scheme, census.indices)
    return ScanReport(
        q=q,
        sigma=sigma,
        max_abs_l=math.exp(max_log),
        argmax_index=argmax,
        bound_value=target_shape,
        margin=max_log - target_shape,
        resonant_index=resonant,
        resonant_abs_l=float(labs[resonant - 1]),
        max_log_abs_l=max_log,
        c_hat=max_log / target_shape,
        excluded_indices=census.indices,
        quotient=quotient,
        elapsed_seconds=time.perf_counter() - start,
    )


class UpperCheck(NamedTuple):
    max_abs_l: float
    bound: float
    ok: bool


def sigma1_upper_check(q: int, slack: float = 0.5) -> UpperCheck:
    """Check the classical upper bound max |L(1, chi)| <= (log q)/3 with a
    desk-scale slack factor (1 + slack); the o(1) there is unquantified, so
    violations are flagged rather than impossible."""
    max_abs = float(_sigma1_abs(q)[1].max())
    bound = math.log(q) / 3 * (1 + slack)
    return UpperCheck(max_abs, bound, max_abs <= bound)
