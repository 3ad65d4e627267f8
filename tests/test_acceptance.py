"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Criteria 6 and 9 contain sub-claims that the pinned desk-scale parameters
do not actually satisfy (measured with two independently cross-validated
evaluation routes); those assertions are kept faithful to the stated
criteria rather than weakened, so they fail and say why.
"""

import math
import time

import pytest

from lextremes import (
    build_group,
    exclude_principal,
    half_weight_certificate,
    l_value,
    l_value_batch,
    linear_scheme,
    log_principal_square,
    mertens_product,
    ratio_certificate,
    resonator_value,
    scan_sigma1,
    scan_sigma_strip,
    sigma1_upper_check,
    square_sum_characters,
    square_sum_congruence,
    threshold_census,
    weighted_sum_characters,
    weighted_sum_congruence,
)
from lextremes.cli import main as cli_main

from conftest import series_l1_oracle

EULER_GAMMA = 0.5772156649015329


def _line(criterion: str, ok: bool, detail: str) -> str:
    message = f"[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(message)
    return message


@pytest.fixture(scope="module")
def certificates():
    reports = {}
    for q in (1009, 10007):
        report = ratio_certificate(q, 1.4, n_limit=10**4, k_limit=10**4, y=1e4)
        starred = exclude_principal(report)
        reports[q] = (report, starred)
    return reports


@pytest.fixture(scope="module")
def sigma1_scans():
    return {q: scan_sigma1(q) for q in (1009, 10007)}


@pytest.fixture(scope="module")
def strip_scans():
    return {q: scan_sigma_strip(q, 0.75) for q in (1009, 10007)}


def test_criterion_01_dual_oracle_identity(group_of):
    start = time.perf_counter()
    worst = 0.0
    for q in (7, 101, 1009):
        group = group_of(q)
        for x in (3, 10, 15):
            scheme = linear_scheme(x)
            y = max(x, 100.0)
            s2c = square_sum_characters(group, scheme, 10**4)
            s2g = square_sum_congruence(q, scheme, 10**4)
            s1c = weighted_sum_characters(group, scheme, 1.0, y, 10**4, 10**4)
            s1g = weighted_sum_congruence(q, scheme, 1.0, y, 10**4, 10**4)
            worst = max(worst, abs(s2c - s2g) / s2g, abs(s1c - s1g) / abs(s1g))
    hand = square_sum_congruence(7, linear_scheme(3), 8)
    hand_err = abs(hand - 5244 / 729)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and hand_err <= 1e-9 and elapsed < 60
    _line("1", ok, f"max rel diff {worst:.2e}, hand-value err {hand_err:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert hand_err <= 1e-9
    assert elapsed < 60


def test_criterion_02_known_l_values():
    # L(1, chi) at the real characters mod 3 (odd), 5 (even) and 7 (odd)
    start = time.perf_counter()
    closed = {
        (3, 1): math.pi / (3 * math.sqrt(3)),
        (5, 2): 2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5),
        (7, 3): math.pi / math.sqrt(7),
    }
    errs = {q: abs(l_value(build_group(q).character(j), 1.0).value - v) for (q, j), v in closed.items()}
    elapsed = time.perf_counter() - start
    ok = max(errs.values()) <= 1e-10 and elapsed < 1
    _line("2", ok, ", ".join(f"mod-{q} err {e:.2e}" for q, e in errs.items()) + f", {elapsed:.2f}s")
    assert max(errs.values()) <= 1e-10
    assert elapsed < 1


def test_criterion_03_backend_cross_check(group_of, harmonic_by_residue):
    start = time.perf_counter()
    group = group_of(101)
    h, m_aligned = harmonic_by_residue(101)
    worst = 0.0
    for j, v in enumerate(l_value_batch(group, 1.0).values, 1):
        oracle = series_l1_oracle(group, j, h, m_aligned)
        worst = max(worst, abs(complex(v) - oracle))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10
    _line("3", ok, f"worst |digamma - series oracle| = {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 10


def test_criterion_04_resonator_identity(group_of):
    worst = 0.0
    for x in (3, 10, 100, 1000):
        closed = log_principal_square(linear_scheme(x))
        chi0 = group_of(1009).character(0) if x < 1009 else group_of(10007).character(0)
        direct = math.log(abs(resonator_value(linear_scheme(x), chi0)) ** 2)
        worst = max(worst, abs(closed - direct))
    ok = worst <= 1e-12
    _line("4", ok, f"max |closed form - log |R(chi0)|^2| = {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_05_mertens_inequality():
    details = []
    ok = True
    for x in (10, 10**2, 10**3, 10**4, 10**5, 10**6):
        value = mertens_product(x)
        lower = math.exp(EULER_GAMMA) * math.log(x) * (1 - 1 / (2 * math.log(x) ** 2))
        ok &= value >= lower
        details.append(f"x={x}: {value:.4f} >= {lower:.4f}")
    assert mertens_product(10) == pytest.approx(4.375, abs=1e-12)
    _line("5", ok, "; ".join(details[:2]) + " ...")
    assert ok


@pytest.mark.parametrize("q", [1009, 10007])
def test_criterion_06_certificate(certificates, q):
    report, _ = certificates[q]
    tau = report.certificate.tau_cert
    ok = report.certificate.passed and tau <= 0.05
    _line(
        "6-certificate",
        ok,
        f"q={q}: ratio={report.ratio:.6f}, target={report.lower_bound:.6f}, tau_cert={tau:.4f} (budget 0.05)",
    )
    assert report.ratio >= (1 - 0.05) * report.lower_bound, (
        f"q={q}: measured |S1|/S2 = {report.ratio:.6f} needs slack {tau:.4f} > 0.05 "
        f"against the full-series target {report.lower_bound:.6f} at N=K=Y=1e4"
    )
    assert tau <= 0.05


@pytest.mark.parametrize("q", [1009, 10007])
def test_criterion_06_principal_exclusion_shift(certificates, q):
    report, starred = certificates[q]
    shift = abs(starred.ratio - report.ratio) / report.ratio
    ok = shift < 0.05
    _line(
        "6-exclusion",
        ok,
        f"q={q}: ratio {report.ratio:.6f} -> {starred.ratio:.6f}, shift {shift:.2%} (claim < 5%)",
    )
    assert shift < 0.05, (
        f"q={q}: removing the principal character moves the ratio by {shift:.2%}; "
        f"|R_N(chi_0)|^2 = {starred.principal_terms[0]:.1f} is not negligible at this scale"
    )


def test_criterion_06_runtime(certificates):
    start = time.perf_counter()
    ratio_certificate(1009, 1.4, n_limit=10**4, k_limit=10**4, y=1e4)
    elapsed_one = time.perf_counter() - start
    ok = elapsed_one < 150  # two moduli both fit the 5-minute budget
    _line("6-runtime", ok, f"single certificate {elapsed_one:.1f}s (budget 300s for both)")
    assert ok


def test_criterion_07_half_weight_certificate():
    start = time.perf_counter()
    report = half_weight_certificate(build_group(1009), 0.75, y_min=20.0, x_cap=1e5)
    elapsed = time.perf_counter() - start
    tau = report.certificate.tau_cert
    ok = report.certificate.passed and tau <= 0.05 and elapsed < 300
    _line(
        "7",
        ok,
        f"ratio={report.ratio:.6f} >= target {report.lower_bound:.6f}, tau_cert={tau:.4f}, {elapsed:.1f}s",
    )
    assert report.ratio >= (1 - 0.05) * report.lower_bound
    assert tau <= 0.05
    assert elapsed < 300


def test_criterion_08_census_properties(tmp_path):
    report = threshold_census(1009, [0.5, 1.0, 2.0, 3.0])
    monotone = all(a <= b for a, b in zip(report.counts, report.counts[1:]))
    ref_err = max(
        abs(ref - (1 - math.exp(-d))) for d, ref in zip(report.deltas, report.exponents_ref)
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["census", "--q", "1009", "--delta", "0.5,1,2,3", "--format", "csv"]
    assert cli_main(args + ["--output-dir", str(out1)]) == 0
    assert cli_main(args + ["--output-dir", str(out2)]) == 0
    identical = (out1 / "census_q1009.csv").read_bytes() == (out2 / "census_q1009.csv").read_bytes()
    ok = monotone and ref_err <= 1e-12 and identical
    _line(
        "8",
        ok,
        f"counts={report.counts} monotone={monotone}, ref-exponent err {ref_err:.1e}, csv identical={identical}",
    )
    assert monotone
    assert ref_err <= 1e-12
    assert identical


@pytest.mark.parametrize("q", [101, 1009, 10007])
def test_criterion_09_upper_bound(q):
    result = sigma1_upper_check(q)
    bound = 0.5 * math.log(q)
    ok = result.max_abs_l <= bound
    _line("9", ok, f"q={q}: max |L(1,chi)| = {result.max_abs_l:.6f} vs 0.5 log q = {bound:.6f}")
    assert result.max_abs_l <= bound, (
        f"q={q}: measured max |L(1, chi)| = {result.max_abs_l:.6f} exceeds "
        f"0.5 log q = {bound:.6f} (verified against the series oracle); the "
        "slack-inflated desk bound is not yet valid at this modulus"
    )


# first verified run of the deterministic pipeline; asserted stable to 1e-9
SIGMA1_MARGINS = {1009: 1.0634714145071023, 10007: 1.0901415993635952}
STRIP_MARGINS = {1009: 0.6077242248532118, 10007: 0.9992052852226359}


@pytest.mark.parametrize("q", [1009, 10007])
def test_criterion_10_scan_fixture_stability(sigma1_scans, strip_scans, q):
    margin1 = sigma1_scans[q].margin
    margin3 = strip_scans[q].margin
    err1 = abs(margin1 - SIGMA1_MARGINS[q])
    err3 = abs(margin3 - STRIP_MARGINS[q])
    ok = err1 <= 1e-9 and err3 <= 1e-9
    _line(
        "10",
        ok,
        f"q={q}: sigma=1 margin {margin1:.9f} (drift {err1:.1e}), sigma=0.75 margin {margin3:.9f} (drift {err3:.1e})",
    )
    assert err1 <= 1e-9
    assert err3 <= 1e-9
