"""Resonance sums over the character group, computed two independent ways.

For resonator coefficients (w_n) truncated at n <= N and series coefficients
b_k = k**(-sigma) supported on y-smooth k <= K, the two sums are

    S2 = sum_chi |R_N(chi)|**2,          R_N(chi) = sum_{n<=N} w_n chi(n),
    S1 = sum_chi L_K(sigma, chi) |R_N(chi)|**2,
                                         L_K = sum_{k<=K} b_k chi(k),

evaluated either through one group DFT per factor (character form) or by
orthogonality as lattice sums over residue classes (congruence form):

    S2 = phi(q) * sum_{m = n (mod q)} w_m w_n,
    S1 = sum_k b_k phi(q) * sum_{k m = n (mod q)} w_m w_n.

The congruence form works on residue sums V[a] (of w_n over n = a) and
W[r] (of b_k over k = r), both zero at residue 0.  With S the n <= N with
w_n > 0 and q not dividing n, k m = n exactly when k = n * m**(-1) (mod q), so

    S1 = phi(q) * sum_{a in supp V} V[a] * sum_{r in supp W} W[r] V[r a]
       = phi(q) * sum_{coprime m, n in S} w_m w_n W[n m**(-1)] G(N // max(m, n)),

where G(T) = sum_{g in S, g <= T} w_g**2: the weights are completely
multiplicative, so a pair (g m, g n) has weight w_g**2 w_m w_n and the
residue of (m, n).  The kernel takes whichever form has fewer products of
residues (< q**2 < 2**62): |supp V| * |supp W|, or the coprime pairs, a
tenth of |S|**2 at N = 10**5.  Against the sum over exact products of the
float prime weights it errs by at most gamma_{4L + 2c + n} relative (L the
most prime factors of an n in S, c = ceil(N/q), n the longest row), the
bound `tests/test_resonance.py` checks.
V and W are compact and belong to the congruence route alone.  The
character route shares only their inputs, the terms (n, w_n) and
(k, b_k): `_character_sums` hands each to `chargroup._term_sums`, which
sums it over all q residues and takes one group DFT, so a fault in either
route's tables shows as a route residual.

All terms are nonnegative, so truncation tails are exact and the quotient
|S1|/S2 certifies a computable lower bound for extreme values.  Certificates
report tau_cert, the slack actually consumed against the ideal full-series
target; they pass when that slack stays within the configured budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import numth
from .chargroup import CharacterGroup, _term_sums
from .lfunc import as_sigma
from .resonator import (
    ResonatorCoeffs,
    WeightScheme,
    _scheme_primes,
    enumerate_coeffs,
    half_scheme,
    linear_scheme,
    log_principal_square,
    lower_bound_product,
    mertens_product,
)

EULER_GAMMA = 0.5772156649015329


@dataclass(frozen=True)
class CertificateResult:
    """Outcome of a finite-truncation quotient certificate."""

    passed: bool
    margin: float
    tau_cert: float
    tau_budget: float


@dataclass(frozen=True)
class ResonanceReport:
    """Structured result of a resonance-quotient computation.

    `x` is the prime cutoff of the lower-bound target (the linear-scheme
    cutoff, or the prime-sum cutoff for the half-weight certificate), `y`
    the smoothness cutoff of the series coefficients, `n` the resonator
    truncation and `k` the series truncation.  `principal_terms` holds
    (|R_N(chi_0)|**2, |L_K(chi_0)| * |R_N(chi_0)|**2) and `l_principal` the
    signed L_K(sigma, chi_0), so the principal contribution to S1 can be
    re-formed exactly.
    """

    q: int
    sigma: float
    scheme: WeightScheme
    x: float
    y: float
    n: int
    k: int
    s1: complex
    s2: float
    ratio: float
    lower_bound: float
    tail_fraction: float
    principal_terms: tuple[float, float]
    l_principal: float
    certificate: CertificateResult
    extras: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# the two evaluation routes


def _series_support(sigma: float, y: float, k_limit: int) -> tuple[np.ndarray, np.ndarray]:
    """y-smooth k <= k_limit with b_k = k**(-sigma); ks = [1] for y < 2."""
    ks = numth.smooth_numbers(max(int(y), 1), k_limit)
    return ks, ks.astype(float) ** (-sigma)


def _tables(q: int, scheme: WeightScheme, n_limit: int, series=None) -> tuple:
    """The terms both routes read: the resonator coefficients and, given series
    = (sigma, y, k_limit), the y-smooth series terms ks, bs (else None, None)."""
    numth.check_modulus(q)
    if series is not None:
        sigma, y, k_limit = series
        s = as_sigma(sigma)
        if y < scheme.cutoff:
            raise ValueError(f"series cutoff y = {y} must be >= scheme cutoff {scheme.cutoff}")
    coeffs = enumerate_coeffs(scheme, n_limit)
    return coeffs, *((None, None) if series is None else _series_support(s, y, k_limit))


def _character_sums(group: CharacterGroup, coeffs: ResonatorCoeffs, ks=None, bs=None) -> tuple:
    """(S1, S2, Re L(chi_j) for j <= h = (q-1)/2) = (sum_chi L(chi) |R(chi)|**2, sum_chi |R(chi)|**2, ...)
    by one half-spectrum group DFT (`chargroup._term_sums`) of the resonator terms and one of the
    series terms (ks, bs).  Conjugate characters give conjugate terms, so each sum is t_0 + t_h
    + 2 sum_{0<j<h} Re t_j, exactly rounded (`numth._exact_sum`); S1 and Re L are None without series."""
    r_sq = np.abs(_term_sums(group, coeffs.ns, coeffs.weights)) ** 2
    r_sq[1:-1] *= 2  # the pairs j, q-1-j with 0 < j < h
    l_re = None if ks is None else _term_sums(group, ks, bs).real.copy()
    return None if ks is None else numth._exact_sum(l_re * r_sq), numth._exact_sum(r_sq), l_re


def _square_sum(q: int, v: np.ndarray) -> float:
    """S2 from the resonator residue sums: phi(q) * sum_a V[a]**2."""
    return (q - 1) * float(np.sum(v * v))


# index entries per cache-sized gather of whole rows
_GATHER = 1 << 15


def _weighted_sum(q: int, coeffs: ResonatorCoeffs, v: np.ndarray, w: np.ndarray) -> float:
    """S1 from the resonator terms `coeffs` (residue table v) and the series
    residue table w, in the form with fewer products (module docstring).

    Rows m of one prime support (a bitmask over the scheme primes) share the
    columns n of disjoint support.  The pairs with m = 1 or n = 1, which hold
    the diagonal mass G(N) W[1], go to the exact sum term by term; other rows
    are gathered about _GATHER entries at a time (an index past the table
    reads its zero last entry) and summed each by numpy's pairwise sum, so no
    bit depends on _GATHER; the outer sum is exact (`numth._exact_sum`).
    """
    ns, ws = coeffs.ns[coeffs.ns % q != 0], coeffs.weights[coeffs.ns % q != 0]
    primes = [p for p, wp in zip(*_scheme_primes(coeffs.scheme)) if wp > 0 and p <= coeffs.limit]
    masks, radicals = np.zeros((len(primes) // 64 + 1, ns.size), np.uint64), np.ones_like(ns)  # 64 primes a word
    for bit, p in enumerate(primes):
        masks[bit // 64, ns % p == 0] |= np.uint64(1 << bit % 64)
        radicals[ns % p == 0] *= p
    order = np.argsort(radicals, kind="stable")  # n = 1 first; each group ascending
    keys, first, counts = np.unique(radicals[order], return_index=True, return_counts=True)
    # coprime pairs = sum_d mu(d) #{n in S : d | n}**2 over the radicals d in S
    mobius = (-1) ** np.sum([keys % p == 0 for p in primes], axis=0, dtype=np.int64)
    pairs = np.sum(mobius * np.searchsorted(ns, coeffs.limit // keys, side="right") ** 2)
    outer, cols = np.flatnonzero(v), np.flatnonzero(w)
    if outer.size * cols.size < pairs:
        inner = np.empty(outer.size)
        step = max(1, _GATHER // max(1, cols.size))
        for s0 in range(0, outer.size, step):
            idx = np.multiply.outer(outer[s0 : s0 + step], cols)
            idx -= idx // q * q  # floor_divide by a scalar is cheaper than %
            gathered = np.take(v, idx, mode="clip")
            gathered *= w[cols]
            gathered.sum(axis=1, out=inner[s0 : s0 + step])
        return (q - 1) * numth._exact_sum(v[outer] * inner)
    res, g = ns % q, numth._exact_prefix_sums(ws * ws, np.searchsorted(ns, coeffs.limit // ns, side="right"))
    inv, rows = numth._inverses(res, q), order[1:]
    terms = [ws * g * np.take(w, res, mode="clip"), (ws * g)[1:] * np.take(w, inv[1:], mode="clip")]
    row_inv, row_g, sums = inv[rows], g[rows], np.empty(rows.size)
    for member, start, size in zip(order[first[1:]].tolist(), (first[1:] - 1).tolist(), counts[1:].tolist()):
        cols = np.flatnonzero(np.max(masks & masks[:, member, None], axis=0) == 0)[1:]
        step = max(1, _GATHER // max(1, cols.size))
        for s0 in range(start, start + size, step):
            s1 = min(s0 + step, start + size)
            idx = np.multiply.outer(row_inv[s0:s1], res[cols])
            idx -= idx // q * q
            gathered = np.take(w, idx, mode="clip")
            factor = np.minimum.outer(row_g[s0:s1], g[cols])  # G(N // max(m, n)): G falls as n grows
            factor *= ws[cols]
            gathered *= factor
            gathered.sum(axis=1, out=sums[s0:s1])
    return (q - 1) * numth._exact_sum(np.concatenate((*terms, ws[rows] * sums)))


def square_sum_characters(group: CharacterGroup, scheme: WeightScheme, n_limit: int) -> float:
    """S2 via one group DFT of the residue-aggregated coefficients."""
    return _character_sums(group, *_tables(group.q, scheme, n_limit))[1]


def square_sum_congruence(q: int, scheme: WeightScheme, n_limit: int) -> float:
    """S2 via orthogonality: phi(q) * sum over pairs m = n (mod q)."""
    coeffs = _tables(q, scheme, n_limit)[0]
    return _square_sum(q, numth._residue_sums(q, coeffs.ns, coeffs.weights))


def weighted_sum_characters(
    group: CharacterGroup, scheme: WeightScheme, sigma, y: float, n_limit: int, k_limit: int
) -> complex:
    """S1 via two group DFTs (series coefficients and resonator)."""
    return complex(_character_sums(group, *_tables(group.q, scheme, n_limit, (sigma, y, k_limit)))[0])


def weighted_sum_congruence(
    q: int, scheme: WeightScheme, sigma, y: float, n_limit: int, k_limit: int
) -> float:
    """S1 via orthogonality: sum_k b_k phi(q) sum_{km = n (mod q)} w_m w_n.

    The form with fewer products (module docstring), summed by pairwise row sums
    and an exactly rounded finish; terms with q | k or q | n vanish with residue 0.
    """
    return _congruence_sums(q, *_tables(q, scheme, n_limit, (sigma, y, k_limit)))[1]


def _provable_bound(q: int, coeffs: ResonatorCoeffs, v: np.ndarray, ks: np.ndarray, cs: np.ndarray) -> float:
    """Exact finite-chain lower bound sum c_k * Q(N, N//k) / Q(N, N).

    Q(N, M) = sum_{m <= N, n <= M, m = n (mod q)} w_m w_n; restricting the
    series index to multiples k*r and using complete multiplicativity gives
    S1/S2 >= sum_k c_k Q(N, N//k)/Q(N, N) with only positivity used, so the
    computed ratio must always exceed this number (up to rounding).  `v`
    holds the residue sums of `coeffs` mod q.  The terms
    (ks, cs) with k <= N are added in their given order (a sequential
    cumsum, unlike the pairwise np.sum).
    """
    prefix = np.cumsum(coeffs.weights * v[coeffs.ns % q])
    keep = ks <= coeffs.limit
    # coeffs.ns starts at 1 <= N // k, so every index below is >= 0
    q_at = prefix[np.searchsorted(coeffs.ns, coeffs.limit // ks[keep], side="right") - 1]
    bound = np.cumsum(np.append(0.0, cs[keep] * q_at))[-1]
    return float(bound / prefix[-1])


def _certify(ratio: float, target: float, tau_budget: float) -> CertificateResult:
    tau_cert = max(0.0, 1.0 - ratio / target) if target > 0 else 0.0
    margin = ratio - (1.0 - tau_budget) * target
    return CertificateResult(tau_cert <= tau_budget, margin, tau_cert, tau_budget)


def _congruence_sums(q: int, coeffs: ResonatorCoeffs, ks: np.ndarray, bs: np.ndarray) -> tuple:
    """First step of a certificate: the compact residue tables V of the
    resonator `coeffs` and W of the series terms b_k (ks, bs) mod q, S1 and
    S2 from them by the congruence route, and L_K(sigma, chi_0), the sum of
    the b_k with k prime to q.  Returns (V, S1, S2, L_K(sigma, chi_0))."""
    v = numth._residue_sums(q, coeffs.ns, coeffs.weights)
    s1 = _weighted_sum(q, coeffs, v, numth._residue_sums(q, ks, bs))
    return v, s1, _square_sum(q, v), numth._exact_sum(bs[ks % q != 0])


def _certificate_report(
    q: int, sigma: float, x: float, y: float, k_limit: int, coeffs: ResonatorCoeffs, v: np.ndarray,
    s1: float, s2: float, l_principal: float, target: float, chain: tuple, tau_budget: float,
    extras: dict,
) -> ResonanceReport:
    """Second step of a certificate: the provable bound over the terms chain =
    (ks, cs) into extras, the principal terms from L_K(sigma, chi_0) =
    l_principal, and the report of S1/S2 judged against `target`."""
    extras["provable_bound"] = _provable_bound(q, coeffs, v, *chain)
    r0 = coeffs.partial_sum
    ratio = s1 / s2
    return ResonanceReport(
        q=q,
        sigma=sigma,
        scheme=coeffs.scheme,
        x=float(x),
        y=float(y),
        n=coeffs.limit,
        k=k_limit,
        s1=complex(s1),
        s2=s2,
        ratio=ratio,
        lower_bound=target,
        tail_fraction=coeffs.tail_fraction,
        principal_terms=(r0 * r0, abs(l_principal) * r0 * r0),
        l_principal=l_principal,
        certificate=_certify(ratio, target, tau_budget),
        extras=extras,
    )


# ----------------------------------------------------------------------
# certificates


def ratio_certificate(
    q: int,
    b: float,
    n_limit: int = 10**4,
    k_limit: int = 10**4,
    y: float | None = None,
    tau_budget: float = 0.05,
) -> ResonanceReport:
    """Certify the finite-truncation quotient bound for the linear scheme.

    The prime cutoff is x = log(q) * loglog(q) / b with b > log 4 required;
    the ideal target is the full-series value prod_{p<=x} (1 - w_p/p)**(-1).
    tau_cert reports how much of that target the truncated quotient gives
    up; the certificate passes when tau_cert stays within tau_budget.

    extras carry the exact positive-tail diagnostics (resonator tail
    fraction is the `tail_fraction` field, the series-coefficient tail and
    the provable finite-chain bound are informational) plus the Mertens-form
    reference value e**gamma * log x * (1 - 1/log x).
    """
    numth.check_modulus(q)
    if b <= math.log(4):
        raise ValueError(f"b must exceed log 4 = {math.log(4):.6f}, got {b}")
    x = math.log(q) * math.log(math.log(q)) / b
    if x >= q:
        raise ValueError(f"cutoff x = {x:.3f} must be < q = {q}")
    if y is None:
        y = max(x, 1e4)
    if y < x:
        raise ValueError(f"series cutoff y = {y} must be >= x = {x:.3f}")
    scheme = linear_scheme(x)
    coeffs = enumerate_coeffs(scheme, n_limit)
    ks, bs = _series_support(1.0, y, k_limit)
    v, s1, s2, b_partial = _congruence_sums(q, coeffs, ks, bs)
    target = lower_bound_product(scheme).value

    # exact positive tails; the provable bound runs over c_k = w_k / k
    target_coeffs = coeffs if k_limit == n_limit else enumerate_coeffs(scheme, k_limit)
    a_cs = target_coeffs.weights / target_coeffs.ns
    a_partial = numth._exact_sum(a_cs)
    b_total = mertens_product(y) if y >= 2 else 1.0
    extras = {
        "a_tail_fraction": max(0.0, 1.0 - a_partial / target),
        "b_tail_fraction": max(0.0, 1.0 - b_partial / b_total),
        "mertens_reference": (
            math.exp(EULER_GAMMA) * math.log(x) * (1 - 1 / math.log(x)) if x >= 2 else None
        ),
        "b": b,
    }
    return _certificate_report(
        q=q, sigma=1.0, x=x, y=y, k_limit=k_limit, coeffs=coeffs, v=v, s1=s1, s2=s2, l_principal=b_partial,
        target=target, chain=(target_coeffs.ns, a_cs), tau_budget=tau_budget, extras=extras,
    )


def exclude_principal(report: ResonanceReport) -> ResonanceReport:
    """Remove the principal-character contribution from S1 and S2.

    S1* = S1 - L_K(sigma, chi_0) |R_N(chi_0)|**2 and S2* = S2 - |R_N(chi_0)|**2,
    with the certificate re-evaluated against the same target and budget.
    |R_N(chi_0)|**2 = principal_terms[0] and L_K(sigma, chi_0) = l_principal
    are read from the report, exactly as its certificate computed them, so
    nothing is enumerated again.  extras record log |R_N(chi_0)|**2 next to
    the closed-form untruncated value (linear scheme), the separation the
    asymptotic argument relies on.
    """
    scheme = report.scheme
    r0_sq = report.principal_terms[0]
    s1_star = report.s1 - report.l_principal * r0_sq
    s2_star = report.s2 - r0_sq
    if s2_star <= 0:
        raise ValueError(
            f"principal term |R(chi_0)|^2 = {r0_sq:.6g} exhausts S2 = {report.s2:.6g}; "
            "q is too small for this cutoff"
        )
    ratio_star = abs(s1_star) / s2_star
    extras = dict(report.extras)
    extras["log_r0_sq_truncated"] = math.log(r0_sq)
    if scheme.kind == "linear":
        extras["log_r0_sq_closed_form"] = log_principal_square(scheme)
    extras["ratio_before_exclusion"] = report.ratio
    return replace(
        report,
        s1=complex(s1_star),
        s2=s2_star,
        ratio=ratio_star,
        certificate=_certify(ratio_star, report.lower_bound, report.certificate.tau_budget),
        extras=extras,
    )


def _prime_cutoff(log_q: float, sigma: float, x_cap: float) -> float:
    """x = min((log q)**(3/(sigma-1/2)), x_cap); x_cap when the power overflows."""
    try:
        return min(log_q ** (3 / (sigma - 0.5)), x_cap)
    except OverflowError:
        return x_cap


def _a_sigma(sigma: float, a_sigma: float | None) -> float:
    """The given a_sigma, or the default exponent (2 sigma - 1)/(2 - sigma)."""
    return (2 * sigma - 1) / (2 - sigma) if a_sigma is None else a_sigma


def _half_weight_cutoff(q: int, sigma: float, a_sigma: float | None, y_min: float) -> tuple[float, float]:
    """(a_sigma, y) of the half-weight certificate, with the resonator cutoff
    y = max((a_sigma/2) log q loglog q, y_min) checked to lie in (0, q)."""
    a_sigma = _a_sigma(sigma, a_sigma)
    y = max(a_sigma / 2 * math.log(q) * math.log(math.log(q)), y_min)
    if not 0 < y < q:
        raise ValueError(f"half-weight cutoff y = {y:.3f} must lie in (0, q = {q})")
    return a_sigma, y


def half_weight_certificate(
    group: CharacterGroup,
    sigma: float,
    a_sigma: float | None = None,
    y_min: float = 20.0,
    x_cap: float = 1e5,
    n_limit: int = 10**4,
    k_limit: int = 10**4,
    tau_budget: float = 0.05,
) -> ResonanceReport:
    """Certify the half-weight quotient bound for sigma in (1/2, 1).

    The series side is the prime sum sum_{p<=x} chi(p) p**(-sigma) with
    x = min((log q)**(3/(sigma-1/2)), x_cap); the resonator uses half
    weights on p <= y, y = max((a_sigma/2) log q loglog q, y_min), and the
    target is sum_{p<=y} p**(-sigma)/2.  S1 and S2 are computed via both
    routes; the congruence values are reported and the relative agreement
    of the character route is recorded in extras.  The modulus is
    q = group.q; the group also serves the character route.
    """
    return _half_weight_certificate(group, sigma, a_sigma, y_min, x_cap, n_limit, k_limit, tau_budget)[0]


def _half_weight_certificate(group, sigma, a_sigma, y_min, x_cap, n_limit, k_limit, tau_budget) -> tuple:
    """`half_weight_certificate` and Re L(chi_j), j <= (q-1)/2, of its series (the first
    k_limit primes p <= x) from the character route, which scan-t3's census shares."""
    if not 0.5 < sigma < 1.0:
        raise ValueError(f"sigma must lie strictly inside (1/2, 1), got {sigma}")
    q = group.q
    a_sigma, y = _half_weight_cutoff(q, sigma, a_sigma, y_min)
    x = _prime_cutoff(math.log(q), sigma, x_cap)
    coeffs = enumerate_coeffs(half_scheme(y), n_limit)
    ks = numth.sieve_primes(int(x))[:k_limit]
    bs = ks.astype(float) ** (-sigma)
    v, s1, s2, l_principal = _congruence_sums(q, coeffs, ks, bs)
    s1_char, s2_char, l_re = _character_sums(group, coeffs, ks, bs)
    extras = {
        "a_sigma": a_sigma,
        "s1_route_rel_diff": abs(s1 - s1_char) / abs(s1) if s1 else 0.0,
        "s2_route_rel_diff": abs(s2 - s2_char) / s2,
    }
    y_primes = numth.sieve_primes(int(y))  # y < q, so q is not among them
    y_cs = [0.5 * p ** (-sigma) for p in y_primes.tolist()]
    held = np.isin(y_primes, ks)  # the chain may only use terms that S1 sums
    return _certificate_report(
        q=q, sigma=sigma, x=x, y=y, k_limit=k_limit, coeffs=coeffs, v=v, s1=s1, s2=s2,
        l_principal=l_principal, target=math.fsum(y_cs), chain=(y_primes[held], np.array(y_cs)[held]),
        tau_budget=tau_budget, extras=extras,
    ), l_re


class SetBudget(NamedTuple):
    count_bound: float
    resonator_bound: float


def exceptional_set_budget(q: int, sigma: float, a_sigma: float | None = None, y: float = 20.0) -> SetBudget:
    """Size budget q**(1-a) for the excluded character set and the uniform
    per-character bound |R(chi)|**2 <= 2**(2 pi(y)) for the half scheme, for
    sigma in (1/2, 1) as in `half_weight_certificate`."""
    if not 0.5 < sigma < 1.0:
        raise ValueError(f"sigma must lie strictly inside (1/2, 1), got {sigma}")
    count_bound = q ** (1 - _a_sigma(sigma, a_sigma))
    n_primes = len(numth.sieve_primes(int(y)))
    try:
        resonator_bound = float(2 ** (2 * n_primes))
    except OverflowError:
        resonator_bound = math.inf
    return SetBudget(count_bound, resonator_bound)
