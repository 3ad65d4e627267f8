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
from .chargroup import CharacterGroup, build_group
from .lfunc import approx_error_census, l_value_batch
from .resonance import EULER_GAMMA, ResonanceReport, _half_weight_cutoff, half_weight_certificate
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


def _sigma1_abs(q: int) -> tuple[tuple[float, float, float], CharacterGroup, np.ndarray]:
    """The iterated logs of q, its character group and |L(1, chi_j)| for j = 1..q-2."""
    logs = _iterated_logs(q)  # rejects q < 17 before the group is built
    group = build_group(q)
    return logs, group, l_value_batch(group, 1.0).abs_values()


def _discrete_logs(group: CharacterGroup, residues: list[int]) -> list[int]:
    """ind(r) with g**ind(r) = r (mod q) for residues 1 <= r < q, from one
    pass over `power_residues`: it is a permutation of 1..q-1, so each
    r <= max(residues) appears there exactly once."""
    if not residues:
        return []
    top = max(residues)
    ks = np.flatnonzero(group.power_residues <= top)
    ind = np.empty(top + 1, dtype=np.int64)
    ind[group.power_residues[ks]] = ks
    return ind[residues].tolist()


def _resonator_abs_sq_all(group: CharacterGroup, scheme: WeightScheme) -> np.ndarray:
    """|R(chi_j)|**2 for every character index j = 0..q-2, in real arithmetic.

    Each prime contributes |1 - w chi_j(p)|**(-2), and
    |1 - w e(t)|**2 = 1 + w**2 - 2w cos(2 pi t) = (1 - w)**2 + 2w (1 - cos(2 pi t))
    with t = j ind(p) / (q-1); the second form has no cancellation near
    t = 0.  Only j = 0..h, h = (q-1)/2, is evaluated, straight into the lower
    half of the output; the rest is mirrored, |R(chi_{q-1-j})|**2 = |R(chi_j)|**2,
    so conjugate characters get bit-identical values.  The indices ind(p)
    of all the scheme's primes come from one pass over `power_residues`.
    The exponent j ind(p) mod (q-1) is formed in int64 (below 2**62 for
    q < 2**31) and folded in place to k = h - |k - h| <= h, where cos is
    read from the first h + 1 entries of the group's root table into one
    reused buffer; no j array is kept, so at most 12 bytes per residue
    are alive besides the output.  Primes and weights come from
    `resonator._scheme_primes`; the prime q itself, where every character
    vanishes, contributes 1.
    """
    q, n = group.q, group.q - 1
    h = n // 2
    pairs = [(p, w) for p, w in zip(*_scheme_primes(scheme)) if w > 0 and p != q]
    logs = _discrete_logs(group, [p % q for p, _ in pairs])
    values = np.empty(n)
    half = values[: h + 1]
    half.fill(1.0)
    cos = group._roots.real
    factor = np.empty(h + 1)
    for ind, (_, w) in zip(logs, pairs):
        k = np.arange(h + 1, dtype=np.int64)  # j, regenerated per prime: no j array outlives it
        k *= ind
        k -= k // n * n  # floor_divide by a scalar is cheaper than %
        k -= h
        np.abs(k, out=k)
        np.subtract(h, k, out=k)
        # every k lies in [0, h]; "clip" spares take's defensive copy of `out`
        np.take(cos, k, out=factor, mode="clip")
        del k
        np.subtract(1.0, factor, out=factor)
        factor *= 2 * w
        factor += (1 - w) ** 2
        half /= factor
    values[h + 1 :] = half[h - 1 : 0 : -1]
    return values


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
    (log_q, log2_q, log3_q), group, labs = _sigma1_abs(q)
    const = reference_constants()
    bound = const.e_gamma * (log2_q + log3_q - const.c - epsilon)
    argmax = 1 + int(np.argmax(labs))
    max_abs = float(labs[argmax - 1])
    r_sq = _resonator_abs_sq_all(group, linear_scheme(log_q * log2_q / 1.4))
    resonant = 1 + int(np.argmax(r_sq[1:]))
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
    for every delta in the grid."""
    deltas = tuple(float(d) for d in deltas)
    if not deltas or any(d <= 0 for d in deltas):
        raise ValueError("census requires a nonempty grid of deltas > 0")
    start = time.perf_counter()
    (log_q, log2_q, log3_q), _, labs = _sigma1_abs(q)
    const = reference_constants()
    thresholds, counts, emp, ref, b_values = [], [], [], [], []
    for d in deltas:
        threshold = const.e_gamma * (log2_q + log3_q - const.c - d)
        count = int(np.sum(labs > threshold))
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
    certificate's cutoff x = quotient.x, so both use one x.
    """
    if not 0.5 < sigma < 1.0:
        raise ValueError(f"sigma must lie strictly inside (1/2, 1), got {sigma}")
    log_q, log2_q, _ = _iterated_logs(q)
    _half_weight_cutoff(q, sigma, a_sigma, y_min)  # reject a bad cutoff before the group is built
    start = time.perf_counter()
    group = build_group(q)
    quotient = half_weight_certificate(
        group,
        sigma,
        a_sigma=a_sigma,
        y_min=y_min,
        x_cap=x_cap,
        n_limit=n_limit,
        k_limit=k_limit,
        tau_budget=tau_budget,
    )
    labs = l_value_batch(group, sigma).abs_values()
    census = approx_error_census(group, sigma, quotient.x, census_tol, labs)
    keep = np.ones(q - 1, dtype=bool)
    keep[[0, *census.indices]] = False
    eligible = np.flatnonzero(keep)
    if eligible.size == 0:
        raise ValueError(f"census at tol={census_tol} excluded every character of q={q}")
    log_abs = np.log(labs[eligible - 1])
    pick = int(np.argmax(log_abs))
    argmax = int(eligible[pick])
    max_log = float(log_abs[pick])
    target_shape = log_q ** (1 - sigma) * log2_q ** (-sigma)
    r_sq = _resonator_abs_sq_all(group, quotient.scheme)
    resonant = int(eligible[np.argmax(r_sq[eligible])])
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
    max_abs = float(_sigma1_abs(q)[2].max())
    bound = math.log(q) / 3 * (1 + slack)
    return UpperCheck(max_abs, bound, max_abs <= bound)
