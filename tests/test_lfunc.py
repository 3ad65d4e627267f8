import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lextremes import (
    LValue,
    approx_error_census,
    build_group,
    dft_over_group,
    digamma,
    dirichlet_poly,
    euler_product_truncated,
    hurwitz_zeta,
    l_value,
    l_value_batch,
    linear_scheme,
    mangoldt,
    prime_sum,
    resonator_value,
    sieve_primes,
)
import lextremes
from lextremes import chargroup, lfunc, numth
from lextremes.lfunc import hurwitz_zeta_error
from lextremes.resonator import mertens_product

from conftest import (
    ODD_PRIMES,
    SPLIT_Q,
    all_l_values,
    in_residue_order,
    longdouble_dft,
    series_l1_oracle,
    zeta_via_eta,
)

EULER_GAMMA = 0.5772156649015329


def matrix_zeta_kernel(sigma: float, x: np.ndarray) -> np.ndarray:
    """The Euler-Maclaurin kernel with its remainder (corrections minus
    tail, written out in the kernel's operation order) and its M = 12 head
    terms stacked as one (M + 1) x len(x) matrix reduced over axis 0: the
    oracle for the streamed head."""
    m = lfunc._EM_HEAD
    z = m + x
    tail = np.log(z)
    if sigma != 1.0:
        tail = np.expm1((1 - sigma) * tail) / (1 - sigma)
    coeffs, rising = [], sigma
    for j, b2j in enumerate(lfunc._BERNOULLI, 1):
        coeffs.append(b2j / math.factorial(2 * j) * rising)
        rising *= (sigma + 2 * j - 1) * (sigma + 2 * j)
    acc = coeffs[-1] / z
    for c in reversed(coeffs[:-1]):
        acc = (acc / z + c) / z
    remainder = (acc + 0.5) * np.power(z, -sigma) - tail
    return np.vstack([remainder, (np.arange(m)[:, None] + x[None, :]) ** (-sigma)]).sum(axis=0)


def kernel_scale(sigma: float, x):
    """The magnitudes of the kernel's head terms and tail at x, added up.

    K(sigma, x) is a sum of about M + 8 rounded operations on numbers no
    larger than this (|expm1(t)| <= |t| max(1, e**t)), so it errs by at most
    (M + 8) * eps times it, on top of the truncation bound.
    """
    m = lfunc._EM_HEAD
    z = m + x
    return sum((k + x) ** -sigma for k in range(m)) + np.log(z) * np.maximum(1.0, z ** (1 - sigma))


def traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc sees numpy allocate during fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDigamma:
    def test_at_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)

    def test_at_half_via_duplication(self):
        # psi(1) = psi(2x) at x=1/2 gives psi(1/2) = 2 psi(1) - psi(1) ... use
        # the classical closed form directly: psi(1/2) = -gamma - 2 log 2
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2 * math.log(2), abs=1e-13)
        # duplication: psi(2x) = (psi(x) + psi(x + 1/2))/2 + log 2
        for x in (0.3, 0.9, 1.7):
            lhs = digamma(2 * x)
            rhs = 0.5 * (digamma(x) + digamma(x + 0.5)) + math.log(2)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_recurrence(self):
        assert digamma(2.0) == pytest.approx(1 - EULER_GAMMA, abs=1e-13)
        for x in (0.001, 0.25, 3.7, 42.0):
            assert digamma(x + 1) == pytest.approx(digamma(x) + 1 / x, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(1e-4, 1e4))
    @example(x=1e-8)  # one ulp of psi(1e-8) ~ -1e8 is 1.5e-8: the contract is relative there
    def test_against_scipy(self, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            exact = float(mpmath.psi(0, mpmath.mpf(x)))
        assert digamma(x) == pytest.approx(exact, abs=1e-12, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            digamma(0.0)
        with pytest.raises(ValueError):
            digamma(-1.5)

    def test_rejects_x_whose_reciprocal_overflows(self):
        # 1/x is the head term; past DBL_MAX it would make psi(x) -inf
        edge = 1 / np.finfo(float).max
        assert digamma(edge * (1 + 1e-6)) == pytest.approx(-1 / (edge * (1 + 1e-6)), rel=1e-12)
        for x in (edge * (1 - 1e-6), 1e-310, 5e-324):
            with pytest.raises(ValueError, match="finite float"):
                digamma(x)


class TestHurwitzZeta:
    def test_pi_squared_over_two(self):
        assert hurwitz_zeta(2.0, 0.5) == pytest.approx(math.pi**2 / 2, abs=1e-12)

    def test_direct_series_bracket(self):
        # partial sums increase to the value; the integral tail brackets it
        m = 10**6
        partial = float(np.sum((np.arange(m) + 0.5) ** -2.0))
        value = hurwitz_zeta(2.0, 0.5)
        assert partial < value < partial + 1 / (m - 1)

    def test_zeta_three_quarters(self):
        assert hurwitz_zeta(0.75, 1.0) == pytest.approx(zeta_via_eta(0.75), abs=1e-12)

    @pytest.mark.parametrize("sigma", [0.6, 0.75, 0.9])
    def test_eta_series_oracle_at_one(self, sigma):
        assert hurwitz_zeta(sigma, 1.0) == pytest.approx(zeta_via_eta(sigma), abs=1e-10)

    def test_against_mpmath_grid(self):
        # The value is a sum of about M + 8 rounded operations whose operands
        # are bounded by the head terms and the tail z**(1-sigma)/|sigma-1|;
        # each may add eps times their total, on top of the truncation bound.
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        m = lfunc._EM_HEAD
        for sigma in (0.501, 0.51, 0.55, 0.75, 0.9, 0.99, 2.0):
            for q in (211, 300809):
                for x in (1 / q, 0.01, 0.3, 0.5, 1 - 1 / q, 1.0):
                    scale = math.fsum((k + x) ** -sigma for k in range(m)) + (m + x) ** (1 - sigma) / abs(sigma - 1)
                    budget = (m + 8) * np.finfo(float).eps * scale + hurwitz_zeta_error(sigma)
                    assert abs(float(hurwitz_zeta(sigma, x) - mpmath.zeta(sigma, x))) <= budget

    def test_error_bound_is_tiny(self):
        for sigma in np.linspace(0.5, 1.0, 51)[1:]:
            assert 0 < hurwitz_zeta_error(float(sigma)) <= 1e-18

    def test_error_bound_is_first_omitted_term(self):
        # B_18 / 18! * (sigma)_17 * M**(-sigma-17), by exact rational arithmetic at sigma = 2
        rising = math.factorial(18)  # (2)_17 = 18!
        term = Fraction(43867, 798) / math.factorial(18) * rising / Fraction(12) ** 19
        assert hurwitz_zeta_error(2.0) == pytest.approx(float(term), rel=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(q=st.sampled_from(ODD_PRIMES), sigma=st.one_of(st.just(1.0), st.floats(0.51, 0.99)))
    @example(q=19997, sigma=1 - 1e-6)
    @example(q=101, sigma=1.0)
    def test_streamed_head_equals_matrix_sum(self, q, sigma):
        x = np.arange(1, q) / q
        assert np.array_equal(lfunc._zeta_kernel(sigma, x), matrix_zeta_kernel(sigma, x))

    def test_streamed_head_memory(self):
        # z (reused for z**-sigma), the sum (which holds ln z and the tail
        # first) and the Horner buffer (reused for the head terms): three
        # arrays of len q-1 at every sigma, sigma = 1 included
        x = np.arange(1, 20011) / 20011
        for sigma in (0.51, 0.75, 1.0):
            assert traced_peak(lfunc._zeta_kernel, sigma, x) < 3.5 * x.nbytes

    def test_rejections(self):
        with pytest.raises(ValueError):
            hurwitz_zeta(1.0, 0.5)  # pole
        with pytest.raises(ValueError):
            hurwitz_zeta(0.75, 0.0)
        with pytest.raises(ValueError):
            hurwitz_zeta(0.75, 1.5)
        with pytest.raises(ValueError):
            hurwitz_zeta(0.4, 0.5)
        for sigma in (0.5, math.nan):  # nan once passed both sigma checks, and the x check took the blame
            with pytest.raises(ValueError, match="sigma > 1/2"):
                hurwitz_zeta(sigma, 0.5)
        assert math.isfinite(hurwitz_zeta(math.nextafter(0.5, 1), 0.5))

    def test_rejects_sigma_past_its_largest(self):
        # inf and 1e300 formed inf - inf at x = 0.5: a RuntimeWarning, or nan without one
        for sigma in (math.inf, 1e300, math.nextafter(1e15, math.inf)):
            with pytest.raises(ValueError, match="sigma <= 1e15"):
                hurwitz_zeta(sigma, 0.5)
        assert hurwitz_zeta(1e15, 1.0) == 1.0  # zeta(sigma, 1) = 1 + 2**-sigma + ...
        assert hurwitz_zeta(1e15, math.nextafter(1.0, 0)) == pytest.approx(math.exp(1e15 * 2**-53), rel=1e-9)

    @pytest.mark.parametrize("sigma", [math.inf, 1e300, 2e18, math.nan, -1.0, 0.0, math.nextafter(1e15, math.inf)])
    def test_error_bound_rejects_sigma_outside_its_domain(self, sigma):
        # these returned nan (the rising factorial overflowed against an underflowed power) or -0.0
        with pytest.raises(ValueError, match="sigma"):
            hurwitz_zeta_error(sigma)

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 1e15])
    def test_error_bound_finite_inside_its_domain(self, sigma):
        assert math.isfinite(hurwitz_zeta_error(sigma)) and hurwitz_zeta_error(sigma) >= 0

    @pytest.mark.parametrize("sigma", [0.99, 0.999, 2.0])
    def test_rejects_x_whose_head_term_overflows(self, sigma):
        # x**(-sigma) is the head term; the edge x = DBL_MAX**(-1/sigma) is subnormal
        # below sigma = 1, and below sigma = 0.95 no positive float reaches it
        assert math.isfinite(hurwitz_zeta(0.51, 5e-324))
        edge = np.finfo(float).max ** (-1 / sigma)
        above = hurwitz_zeta(sigma, edge * (1 + 1e-6))
        assert math.isfinite(above) and above == pytest.approx((edge * (1 + 1e-6)) ** -sigma, rel=1e-12)
        with pytest.raises(ValueError, match="finite float"):
            hurwitz_zeta(sigma, edge * (1 - 1e-6))
        if sigma < 1:  # the cases that returned inf
            with pytest.raises(ValueError, match="finite float"):
                hurwitz_zeta(sigma, 5e-324)


class TestLValue:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False), min_size=1, max_size=300))
    def test_exact_sum_same_over_python_floats(self, zs):
        # the kernel rounds exactly, as math.fsum does over the Python floats
        # of each part, so the two cannot differ in a bit
        values = np.array(zs, dtype=complex)
        assert numth._exact_sum(values) == complex(math.fsum(values.real), math.fsum(values.imag))

    def test_mod3_closed_form(self, group_of):
        result = l_value(group_of(3).character(1), 1.0)
        assert result.chi_index == 1
        assert abs(result.value - math.pi / (3 * math.sqrt(3))) < 1e-10

    def test_mod5_closed_form(self, group_of):
        # chi_2 mod 5 is the Legendre symbol (./5), an even character
        result = l_value(group_of(5).character(2), 1.0)
        assert abs(result.value - 2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)) < 1e-10

    def test_mod7_closed_form(self, group_of):
        # chi_3 mod 7 is the Legendre symbol (./7), an odd character
        result = l_value(group_of(7).character(3), 1.0)
        assert abs(result.value - math.pi / math.sqrt(7)) < 1e-10

    def test_mod7_against_series_oracle(self, group_of, harmonic_by_residue):
        # partial sums of sum (n/7)/n plus the periodic-mean tail, no digamma
        group = group_of(7)
        h, m_aligned = harmonic_by_residue(7)
        oracle = series_l1_oracle(group, 3, h, m_aligned)
        assert abs(oracle - math.pi / math.sqrt(7)) < 1e-12
        assert abs(l_value(group.character(3), 1.0).value - oracle) < 1e-10

    @pytest.mark.parametrize("q", [7, 101])
    @pytest.mark.parametrize("sigma", [0.55, 0.75, 0.99, 1 - 1e-9])
    def test_principal_against_mpmath(self, group_of, q, sigma):
        # L(sigma, chi_0) = (1 - q**-sigma) zeta(sigma): the one L-value that
        # needs the q - 1 constants q**(sigma-1)/(sigma - 1) that the centred
        # residue kernel K - c leaves out added back.  Each K(sigma, a/q) errs
        # by at most (M + 8) eps times its term magnitudes, subtracting c
        # rounds once more, and the sum is exact; the constant, its addition,
        # q**sigma and the scaling round once each.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            s = mpmath.mpf(sigma)
            exact = float((1 - mpmath.mpf(q) ** -s) * mpmath.zeta(s))
        value = l_value(group_of(q).character(0), sigma).value
        eps = np.finfo(float).eps
        centre = (1 - q ** (sigma - 1)) / (1 - sigma)
        terms = (kernel_scale(sigma, np.arange(1, q) / q) + centre).sum()
        constant = (q - 1) * q ** (sigma - 1) / (1 - sigma)
        budget = eps * ((lfunc._EM_HEAD + 9) * terms * q**-sigma + constant * q**-sigma + 3 * abs(exact))
        assert value.imag == 0
        assert abs(value.real - exact) <= budget

    def test_principal_pole_rejected(self, group_of):
        with pytest.raises(ValueError):
            l_value(group_of(7).character(0), 1.0)

    @pytest.mark.parametrize("sigma", [1.0, 0.75])
    def test_index_out_of_range_rejected(self, group_of, sigma):
        # (group, q-1) reads chi_0's roots: it would be chi_0 without its
        # principal constant at sigma < 1, and without the pole error at 1;
        # every single-character function would evaluate another character
        group = group_of(101)
        reads = [
            lambda chi: l_value(chi, sigma),
            lambda chi: euler_product_truncated(chi, sigma, 50),
            lambda chi: dirichlet_poly(chi, sigma, 50),
            lambda chi: prime_sum(chi, sigma, 50),
            lambda chi: prime_sum(chi, sigma, 1),  # the empty sum too
            lambda chi: resonator_value(linear_scheme(50), chi),
        ]
        for j in (100, -1):
            for read in reads:
                with pytest.raises(ValueError, match=r"character index must lie in \[0, 99\], got " + str(j)):
                    read((group, j))
        # a float index passed the range check, then failed deep inside numpy
        for j in (2.5, 1.0):
            for read in [*reads, lambda chi: group.character(chi[1])]:
                with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                    read((group, j))
        assert group.character(np.int64(99)) == (group, 99) and group.character(True) == (group, 1)

    def test_sigma_half_rejected(self, group_of):
        with pytest.raises(ValueError):
            l_value(group_of(7).character(1), 0.5)

    def test_err_estimate_fields(self, group_of):
        result = l_value(group_of(7).character(1), 0.75)
        assert 0 <= result.err_estimate < 1e-9

    def test_lvalue_validation(self):
        with pytest.raises(ValueError):
            LValue(1, 1.0, 1 + 0j, -1.0)


_KERNEL_CASES = [(q, sigma, j) for j in (1, 2, 50) for q in (101, 1009) for sigma in (1.0, 0.75)]

_FRESH_PROBE = """
import json, sys
from lextremes import build_group, l_value
for q, sigma, j in json.loads(sys.argv[1]):
    value = l_value(build_group(q).character(j), sigma).value
    print(value.real.hex(), value.imag.hex())
"""


class TestResidueKernel:
    def test_read_only(self, group_of):
        kernel = lfunc._residue_kernel(group_of(101), 0.75)
        assert not kernel.flags.writeable
        with pytest.raises(ValueError):
            kernel[0] = 0.0

    def test_interleaved_singles_match_fresh_process(self, group_of):
        # every call switches (q, sigma), so each one replaces the cached kernel
        got = []
        for q, sigma, j in _KERNEL_CASES:
            value = l_value(group_of(q).character(j), sigma).value
            got.append(f"{value.real.hex()} {value.imag.hex()}")
        src = os.path.dirname(os.path.dirname(lextremes.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        # the fresh process takes the cases grouped by (q, sigma), so there most calls reuse the kernel
        grouped = sorted(_KERNEL_CASES)
        out = subprocess.run(
            [sys.executable, "-c", _FRESH_PROBE, json.dumps(grouped)],
            capture_output=True, text=True, env=env, check=True, timeout=60,
        )
        fresh = dict(zip(map(tuple, grouped), out.stdout.splitlines()))
        assert got == [fresh[case] for case in _KERNEL_CASES]

    @pytest.mark.parametrize("q", [101, 10007, 300809])
    def test_reflected_half_against_mpmath(self, q):
        # The values are K - log q = -psi - log q.  a <= h comes from
        # K(1 - a/q) + pi cot(pi a/q), K = -psi; the upper half is the kernel
        # less log q.  Near x = 1 the head (about 3.1) and ln 13 = 2.6 cancel
        # to -psi(1) = 0.58, so there the kernel itself errs by up to 3.5 eps
        # (q = 101) and 5.2 eps (q = 300809), hence its wider budget; every
        # centred value, and the kernel next to x = 1/2, stays within 4 eps.
        mpmath = pytest.importorskip("mpmath")
        h = (q - 1) // 2
        group = build_group(q)
        values = in_residue_order(group, lfunc._residue_values(group, 1.0))
        kernel = lfunc._zeta_kernel(1.0, np.arange(h + 1, q) / q)
        assert np.array_equal(values[h:], kernel - math.log(q))
        eps = np.finfo(float).eps
        with mpmath.workdps(30):
            for a in (1, 2, h, h + 1, q - 2, q - 1):
                exact = -mpmath.psi(0, mpmath.mpf(a) / q) - mpmath.log(q)
                assert abs(float((mpmath.mpf(float(values[a - 1])) - exact) / exact)) <= 4 * eps, a
            for a, budget in ((h + 1, 4), (q - 2, 10), (q - 1, 10)):
                exact = -mpmath.psi(0, mpmath.mpf(a) / q)
                assert abs(float((mpmath.mpf(float(kernel[a - h - 1])) - exact) / exact)) <= budget * eps, a

    def test_reflection_the_other_way_cancels(self):
        # K(1 - x) = K(x) - pi cot(pi x) at x = 1/q adds about -q to q + gamma:
        # the result keeps about q * eps of absolute error, which is why the
        # kernel runs on the upper half and not the lower one
        mpmath = pytest.importorskip("mpmath")
        q = 10007
        x = 1 / q
        upward = float(lfunc._zeta_kernel(1.0, np.array([x]))[0]) - math.pi / math.tan(math.pi * x)
        with mpmath.workdps(30):
            exact = -mpmath.psi(0, mpmath.mpf(q - 1) / q)
            assert abs(float((mpmath.mpf(upward) - exact) / exact)) > 100 * np.finfo(float).eps

    def test_sigma1_kernel_memory(self):
        # the kernel runs on h = (q-1)/2 points (its input and three arrays of
        # h) and the output is allocated after it: about 20 B per residue,
        # where the full-length kernel takes 32
        q = 300809
        assert traced_peak(lfunc._residue_values, build_group(q), 1.0) <= 30 * (q - 1)

    def test_batch_leaves_the_cache_alone(self, group_of):
        lfunc._residue_kernel.cache_clear()
        l_value_batch(group_of(101), 1.0)
        l_value_batch(group_of(101), 0.75)
        assert lfunc._residue_kernel.cache_info().currsize == 0


class TestBatchEvaluation:
    @pytest.mark.parametrize("sigma", [1.0, 0.75])
    def test_batch_matches_single(self, group_of, sigma):
        group = group_of(101)
        values = all_l_values(l_value_batch(group, sigma))
        assert len(values) == 99
        worst = max(
            abs(complex(v) - l_value(group.character(j), sigma).value) for j, v in enumerate(values, 1)
        )
        assert worst < 1e-9

    @pytest.mark.parametrize("q", [1009, 1031])
    @pytest.mark.parametrize("sigma", [1.0, 0.75])
    def test_in_place_scaling_equals_out_of_place_forms(self, group_of, q, sigma):
        group = group_of(q)
        transformed = dft_over_group(group, in_residue_order(group, lfunc._residue_values(group, sigma)))
        expected = np.empty_like(transformed)
        expected.real = transformed.real / q**sigma
        expected.imag = transformed.imag / q**sigma
        assert np.array_equal(l_value_batch(group, sigma).half, expected[1:])

    @settings(max_examples=25, deadline=None)
    @given(q=st.sampled_from(ODD_PRIMES), sigma=st.one_of(st.just(1.0), st.floats(0.51, 0.99)))
    @example(q=101, sigma=1.0)
    @example(q=101, sigma=0.75)
    @example(q=3, sigma=1.0)
    @example(q=10007, sigma=0.75)
    def test_conjugation_symmetry(self, q, sigma):
        # L(sigma, chi_{q-1-j}) = conj L(sigma, chi_j) leaves the half j <= h,
        # and makes L(sigma, chi_h) of the one real non-principal character real
        half = l_value_batch(build_group(q), sigma).half
        assert half.shape == ((q - 1) // 2,)
        assert half[-1].imag == 0

    @settings(max_examples=25, deadline=None)
    @given(
        q=st.sampled_from(ODD_PRIMES),
        sigma=st.one_of(st.just(1.0), st.floats(0.51, 0.99)),
        picks=st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=4),
    )
    @example(q=3, sigma=1.0, picks=[0.0])
    @example(q=19997, sigma=0.51, picks=[0.0, 0.5])
    def test_batch_matches_single_within_rounding_budget(self, q, sigma, picks):
        # Both routes weight the same residue kernel K.  The group DFT obeys the
        # standard bound ||err||_2 <= eps log2(n) ||DFT K||_2 = eps log2(n) sqrt(n) ||K||_2
        # (as in the chargroup accuracy test), which bounds every entry; the exact
        # sum of the single route adds at most 2 eps ||K||_1 from rounded
        # character values and products.  Both are scaled by q**-sigma.
        group = build_group(q)
        n = q - 1
        kernel = lfunc._residue_values(group, sigma)
        eps = np.finfo(float).eps
        budget = eps * q**-sigma * (math.log2(n) * math.sqrt(n) * np.linalg.norm(kernel) + 2 * np.abs(kernel).sum())
        values = all_l_values(l_value_batch(group, sigma))
        for j in sorted({1 + int(p * (q - 2)) for p in picks}):
            assert abs(complex(values[j - 1]) - l_value(group.character(j), sigma).value) <= budget

    @pytest.mark.parametrize("q", [101, 1009])
    def test_continuity_at_sigma_one(self, group_of, q):
        # For non-principal chi, |L'(s, chi)| <= (q - 1)/(e s): partial
        # summation against A(t) = sum_{n <= t} chi(n), |A| <= (q - 1)/2, and
        # int_1^oo |d(ln t / t**s)| = 2/(e s).  So |L(sigma) - L(1)| is at most
        # (1 - sigma)(q - 1)/(e sigma) plus the rounding of the two batches.
        # Each batch's is the DFT bound of the budget test below plus the
        # kernel's own rounding, (M + 9) eps times its term magnitudes and the
        # centring constant c <= log q, both scaled by q**-s.  The DFT bound
        # takes the norm of those magnitudes, which bound |K - c|, and not of
        # the computed vector: a kernel that kept the constant 1/(sigma - 1)
        # would raise its own floor with it.
        group = group_of(q)
        n = q - 1
        eps = np.finfo(float).eps
        x = np.arange(1, q) / q

        def rounding(s):
            scale = kernel_scale(s, x) + math.log(q)
            dft = math.log2(n) * math.sqrt(n) * np.linalg.norm(scale)
            return eps * q**-s * (dft + (lfunc._EM_HEAD + 9) * scale.sum())

        at_one = all_l_values(l_value_batch(group, 1.0))
        for k in range(3, 16):
            sigma = 1 - 10.0**-k
            gap = np.abs(all_l_values(l_value_batch(group, sigma)) - at_one).max()
            bound = (1 - sigma) * n / (math.e * sigma) + rounding(sigma) + rounding(1.0)
            assert gap <= bound, (k, gap, bound)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended-precision longdouble")
    @pytest.mark.parametrize("sigma", [0.51, 0.55, 0.75])
    def test_batch_against_mpmath_longdouble_reference(self, group_of, sigma):
        # zeta(sigma, a/q) from mpmath at 30 digits, character sum in long double
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        q = 211
        zetas = np.array(
            [np.longdouble(mpmath.nstr(mpmath.zeta(sigma, mpmath.mpf(a) / q), 25)) for a in range(1, q)]
        )
        scale = np.longdouble(mpmath.nstr(mpmath.mpf(q) ** -sigma, 25))
        ref_re, ref_im = longdouble_dft(group_of(q), zetas)
        ref = (ref_re[1 : q - 1] + 1j * ref_im[1 : q - 1]) * scale
        values = all_l_values(l_value_batch(group_of(q), sigma))
        rel = np.abs(values - ref) / np.abs(ref)
        assert float(rel.max()) <= 1e-13

    @pytest.mark.parametrize("q", [101, 1009])
    def test_series_oracle_agreement(self, group_of, harmonic_by_residue, q):
        group = group_of(q)
        h, m_aligned = harmonic_by_residue(q)
        values = all_l_values(l_value_batch(group, 1.0))
        worst = 0.0
        for j, v in enumerate(values, 1):
            oracle = series_l1_oracle(group, j, h, m_aligned)
            worst = max(worst, abs(complex(v) - oracle))
        assert worst < 1e-6


def _euler_products_all(group, x: float) -> np.ndarray:
    """(1 - chi_j(p)/p)^(-1) over p <= x, vectorized over every j."""
    values = np.ones(group.q - 1, dtype=complex)
    for p in sieve_primes(int(x)).tolist():
        if p % group.q == 0:
            continue  # chi(p) = 0, unit factor
        values /= 1 - group.values_at(p) / p
    return values


class TestEulerProductTruncated:
    def test_mod5_two_factors(self, group_of):
        # (./5) at p = 2, 3 is -1, and the factor at p = 5 is 1
        chi = group_of(5).character(2)
        assert euler_product_truncated(chi, 1.0, 5) == pytest.approx(2 / 3 * 3 / 4, abs=1e-14)

    def test_principal_single_factor(self, group_of):
        chi0 = group_of(7).character(0)
        assert euler_product_truncated(chi0, 1.0, 2) == pytest.approx(2.0, abs=1e-14)

    def test_below_two_rejected(self, group_of):
        with pytest.raises(ValueError):
            euler_product_truncated(group_of(7).character(1), 1.0, 1.9)

    def test_vectorized_helper_matches_op(self, group_of):
        group = group_of(101)
        products = _euler_products_all(group, 100)
        for j in (1, 7, 50):
            expected = euler_product_truncated(group.character(j), 1.0, 100)
            assert abs(products[j] - expected) < 1e-12

    def test_truncation_max_error_decreases_over_decades(self, group_of):
        group = group_of(1009)
        l_true = all_l_values(l_value_batch(group, 1.0))
        max_errors = []
        for exponent in range(1, 6):
            products = _euler_products_all(group, 10.0**exponent)
            max_errors.append(float(np.max(np.abs(products[1 : 1008] - l_true))))
        assert all(a > b for a, b in zip(max_errors, max_errors[1:]))


class TestDirichletPolyAndPrimeSum:
    def test_mod4_only_n3_survives(self):
        # chi mod 4 lies outside CharacterGroup's prime moduli; dirichlet_poly
        # reads only group.character_values, so a literal table stands in and
        # the terms at n = 2 and n = 4 (multiples of 2 | q) drop out
        class Mod4:
            def character_values(self, j, ns):
                return np.array([(0, 1, 0, -1)[n % 4] for n in ns], dtype=complex)

        assert dirichlet_poly((Mod4(), 1), 1.0, 4) == pytest.approx(-1 / 3, abs=1e-14)

    def test_below_two_rejected(self, group_of):
        with pytest.raises(ValueError):
            dirichlet_poly(group_of(7).character(1), 1.0, 1.5)

    def test_mod3_hand_enumeration(self, group_of):
        # terms n = 2, 4, 5 (chi(3) = 0 drops out): Lambda(n)/(n log n)
        # recomputed via the Lambda oracle with chi = (1, -1) at residues 1, 2;
        # Lambda(4)/log 4 = 1/2 so the value is -1/2 + 1/8 - 1/5 = -0.575
        table = (0, 1, -1)
        expected = math.fsum(mangoldt(n) / (n * math.log(n)) * table[n % 3] for n in range(2, 6))
        assert expected == pytest.approx(-0.575, abs=1e-14)
        assert dirichlet_poly(group_of(3).character(1), 1.0, 5) == pytest.approx(expected, abs=1e-14)

    def test_prime_sum_mod3(self, group_of):
        assert prime_sum(group_of(3).character(1), 1.0, 3) == pytest.approx(-0.5, abs=1e-14)

    def test_prime_sum_empty(self, group_of):
        assert prime_sum(group_of(7).character(1), 1.0, 1) == 0j

    def test_prime_sum_principal_mod101(self, group_of):
        chi0 = group_of(101).character(0)
        expected = 1 / 2 + 1 / 3 + 1 / 5 + 1 / 7
        assert prime_sum(chi0, 1.0, 10) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("sigma", [0.6, 1.0])
    def test_prime_power_terms_are_small(self, group_of, sigma):
        # dirichlet_poly minus prime_sum is the k >= 2 prime-power block,
        # bounded by sum_{p <= sqrt(x)} sum_{k>=2, p^k<=x} p^(-k sigma)/k <= 3
        group = group_of(101)
        x = 10**4
        bound = 0.0
        for p in sieve_primes(int(math.isqrt(x))).tolist():
            pk, k = p * p, 2
            while pk <= x:
                bound += pk ** (-sigma) / k
                pk *= p
                k += 1
        assert bound <= 3.0
        for j in (1, 17, 50):
            chi = group.character(j)
            diff = dirichlet_poly(chi, sigma, x) - prime_sum(chi, sigma, x)
            assert abs(diff) <= bound + 1e-12


@pytest.mark.parametrize(
    "call,least",
    [
        (lambda group, x: euler_product_truncated(group.character(1), 1.0, x), 2.0),
        (lambda group, x: dirichlet_poly(group.character(1), 1.0, x), 2.0),
        (lambda group, x: prime_sum(group.character(1), 1.0, x), 0.0),
        (lambda group, x: mertens_product(x), 2.0),
        (lambda group, x: approx_error_census(group, 0.75, x, 1.0, np.ones(50)), 2.0),
    ],
    ids=["euler_product_truncated", "dirichlet_poly", "prime_sum", "mertens_product", "approx_error_census"],
)
def test_x_bounded_functions_require_a_finite_x_in_range(group_of, call, least):
    # nan passed `x < 2` and died in int(); inf raised an OverflowError there
    group = group_of(101)
    for x in (math.nan, math.inf, -math.inf, math.nextafter(least, -math.inf)):
        with pytest.raises(ValueError, match="finite x"):
            call(group, x)
    call(group, least)


def census_of(group, x, tol):
    return approx_error_census(group, 0.75, x, tol, l_value_batch(group, 0.75).half_abs())


class TestApproxErrorCensus:
    def test_infinite_tolerance_empty(self, group_of):
        census = census_of(group_of(101), 100, math.inf)
        assert census.indices == ()

    def test_zero_tolerance_everything(self, group_of):
        census = census_of(group_of(101), 100, 0.0)
        assert census.indices == tuple(range(1, 100))

    def test_indices_sorted_and_nonprincipal(self, group_of):
        census = census_of(group_of(101), 100, 0.2)
        assert list(census.indices) == sorted(census.indices)
        assert 0 not in census.indices

    def test_regression_q1009(self, group_of):
        # frozen from the first verified run (full pipeline fixture)
        census = census_of(group_of(1009), 1e4, 1.0)
        assert census.indices == ()
        assert census.max_deviation == pytest.approx(0.6276041154140851, abs=1e-9)
        assert census.mean_deviation == pytest.approx(0.13411755954076826, abs=1e-9)

    @pytest.mark.parametrize("q,k", [(1009, 100), (1009, 1229), (SPLIT_Q, 0)])
    def test_a_head_of_k_primes_adds_up_to_every_prime(self, group_of, q, k):
        # the census sums every prime <= x whether it transforms them all or
        # adds the rest to the first k primes' sums (k >= pi(x): none left)
        group, x = group_of(q), 1e4
        labs = l_value_batch(group, 0.75).half_abs()
        primes = sieve_primes(int(x))[:k]
        sums = chargroup._term_sums(group, primes, primes.astype(float) ** -0.75).real.copy()
        whole = approx_error_census(group, 0.75, x, 0.2, labs)
        split = lfunc._approx_error_census(group, 0.75, x, 0.2, labs, k, sums)
        assert split.indices == whole.indices and whole.indices
        assert split.max_deviation == pytest.approx(whole.max_deviation, rel=1e-12)
        assert split.mean_deviation == pytest.approx(whole.mean_deviation, rel=1e-12)

    @pytest.mark.parametrize("shape", [(1,), (98,), (100,), (99, 1)])
    def test_rejects_labs_of_the_wrong_shape(self, group_of, shape):
        # a length-1 array would broadcast against the 50 prime sums j = 1..h
        # of q = 101, and 99 is the full-length count labs had before
        with pytest.raises(ValueError, match="labs of shape"):
            approx_error_census(group_of(101), 0.75, 100, 1.0, np.ones(shape))
