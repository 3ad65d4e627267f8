import dataclasses
import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lextremes import (
    CertificateResult,
    ResonanceReport,
    build_group,
    enumerate_coeffs,
    exceptional_set_budget,
    exclude_principal,
    half_scheme,
    half_weight_certificate,
    linear_scheme,
    ratio_certificate,
    sieve_primes,
    smooth_numbers,
    square_sum_characters,
    square_sum_congruence,
    weighted_sum_characters,
    weighted_sum_congruence,
)
from lextremes import numth, resonance
from lextremes.resonator import _scheme_primes
from lextremes.cli import _json_bytes

from conftest import ODD_PRIMES, run_probe
from reference import exact_s1, exact_s1_from_weights

TOY_S2 = 5244 / 729  # hand enumeration: pairs of powers of two <= 8 mod 7
TOY_S1 = 31 / 3  # hand enumeration over 3-smooth k <= 8


class TestSquareSum:
    def test_toy_hand_value_congruence(self):
        value = square_sum_congruence(7, linear_scheme(3), 8)
        assert value == pytest.approx(TOY_S2, abs=1e-12)

    def test_toy_hand_value_characters(self, group_of):
        value = square_sum_characters(group_of(7), linear_scheme(3), 8)
        assert value == pytest.approx(TOY_S2, abs=1e-12)

    def test_trivial_resonator(self, group_of):
        assert square_sum_characters(group_of(7), linear_scheme(1.5), 1) == pytest.approx(6.0)
        assert square_sum_congruence(7, linear_scheme(1.5), 1) == pytest.approx(6.0)

    def test_monotone_in_truncation(self):
        scheme = linear_scheme(10)
        values = [square_sum_congruence(101, scheme, n) for n in (1, 10, 100, 1000, 10000)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_cutoff_above_modulus_drops_residue_zero(self, group_of):
        # with the cutoff at or above q, entries divisible by q exist; both
        # routes must drop them (chi vanishes there) and still agree
        char = square_sum_characters(group_of(5), linear_scheme(7), 100)
        cong = square_sum_congruence(5, linear_scheme(7), 100)
        assert char == pytest.approx(cong, rel=1e-12)

    def test_composite_modulus_rejected(self):
        with pytest.raises(ValueError):
            square_sum_congruence(9, linear_scheme(3), 10)


class TestWeightedSum:
    def test_toy_hand_value_both_routes(self, group_of):
        cong = weighted_sum_congruence(7, linear_scheme(3), 1.0, 3.0, 8, 8)
        char = weighted_sum_characters(group_of(7), linear_scheme(3), 1.0, 3.0, 8, 8)
        assert cong == pytest.approx(TOY_S1, abs=1e-12)
        assert char.real == pytest.approx(TOY_S1, abs=1e-12)
        assert abs(char.imag) < 1e-12

    def test_k1_reduces_to_square_sum(self, group_of):
        scheme = linear_scheme(5)
        s2 = square_sum_congruence(11, scheme, 100)
        s1 = weighted_sum_congruence(11, scheme, 1.0, 100.0, 100, 1)
        assert s1 == pytest.approx(s2, rel=1e-12)

    def test_series_cutoff_below_scheme_rejected(self, group_of):
        with pytest.raises(ValueError):
            weighted_sum_characters(group_of(101), linear_scheme(10), 1.0, 5.0, 100, 100)
        with pytest.raises(ValueError):
            weighted_sum_congruence(101, linear_scheme(10), 1.0, 5.0, 100, 100)

    def test_positivity(self):
        for q, x in ((7, 3), (101, 10)):
            assert square_sum_congruence(q, linear_scheme(x), 1000) >= 0
            assert weighted_sum_congruence(q, linear_scheme(x), 1.0, 100.0, 1000, 1000) >= 0

    @pytest.mark.parametrize("q,x", [(7, 3), (101, 10), (1009, 15)])
    def test_dual_oracle_midsize(self, group_of, q, x):
        scheme = linear_scheme(x)
        y = max(x, 100.0)
        s2_char = square_sum_characters(group_of(q), scheme, 1000)
        s2_cong = square_sum_congruence(q, scheme, 1000)
        s1_char = weighted_sum_characters(group_of(q), scheme, 1.0, y, 1000, 1000)
        s1_cong = weighted_sum_congruence(q, scheme, 1.0, y, 1000, 1000)
        assert abs(s2_char - s2_cong) <= 1e-11 * s2_cong
        assert abs(s1_char - s1_cong) <= 1e-11 * abs(s1_cong)

    def test_a_fault_in_the_compact_tables_shows_as_a_route_residual(self, group_of, monkeypatch):
        # the compact tables (size 0) are the congruence route's alone; the
        # character route sums the same terms over all q residues itself
        residue_sums = numth._residue_sums

        def faulty(q, ns, values, size=0):
            t = residue_sums(q, ns, values, size)
            if size == 0:
                t[np.flatnonzero(t)[-1]] = 0.0  # the largest residue in use
            return t

        monkeypatch.setattr(numth, "_residue_sums", faulty)
        scheme = linear_scheme(7)
        s1_char = weighted_sum_characters(group_of(1009), scheme, 1.0, 100.0, 512, 512)
        s1_cong = weighted_sum_congruence(1009, scheme, 1.0, 100.0, 512, 512)
        assert abs(s1_char - s1_cong) > 1e-9 * abs(s1_cong)
        extras = half_weight_certificate(group_of(1009), 0.75).extras
        assert max(extras["s1_route_rel_diff"], extras["s2_route_rel_diff"]) > 1e-9


def per_n_sweep(q, scheme, sigma, y, n_limit, k_limit):
    """Brute-force S1: for every resonator entry n, gather V over k * n for
    every series term k (cost #coefficients * #series terms)."""
    coeffs = enumerate_coeffs(scheme, n_limit)
    v = np.zeros(q)
    np.add.at(v, coeffs.ns % q, coeffs.weights)
    v[0] = 0.0
    ks = np.array(smooth_numbers(int(y), k_limit), dtype=np.int64)
    bs = ks.astype(float) ** (-sigma)
    total = 0.0
    for n, w in zip(coeffs.ns.tolist(), coeffs.weights.tolist()):
        idx = (ks * (n % q)) % q
        total += w * float(np.dot(bs, v[idx]))
    return (q - 1) * total


def coprime_order_s1(q, coeffs, w):
    """S1 in the coprime-pair kernel's order, pair by pair from math.gcd over
    a full residue table w: G(T) by math.fsum of the w_g**2, the terms with
    m = 1 or n = 1 one by one, each other row m as np.sum over its coprime
    n > 1 in ascending order times w_m, and one exactly rounded sum."""
    ns = [n for n in coeffs.ns.tolist() if n % q]
    ws = dict(zip(coeffs.ns.tolist(), coeffs.weights.tolist()))
    g = {n: math.fsum(ws[t] * ws[t] for t in ns if t <= coeffs.limit // n) for n in ns}
    terms = [ws[n] * g[n] * w[n % q] for n in ns] + [ws[m] * g[m] * w[pow(m, -1, q)] for m in ns[1:]]
    for m in ns[1:]:
        row = [w[n * pow(m, -1, q) % q] * (min(g[m], g[n]) * ws[n]) for n in ns[1:] if math.gcd(m, n) == 1]
        terms.append(ws[m] * float(np.sum(np.array(row, dtype=float))))
    return (q - 1) * math.fsum(terms)


@st.composite
def congruence_configs(draw):
    q = draw(st.sampled_from(ODD_PRIMES))
    x = draw(st.floats(min_value=1.0, max_value=q - 0.5))
    y = x + draw(st.floats(min_value=0.0, max_value=2000.0))
    sigma = draw(st.floats(min_value=0.55, max_value=1.0))
    n_limit = draw(st.integers(min_value=1, max_value=2000))
    k_limit = draw(st.integers(min_value=1, max_value=2000))
    return q, x, y, sigma, n_limit, k_limit


class TestCongruenceKernel:
    @settings(max_examples=40, deadline=None)
    @given(congruence_configs())
    @example((10007, 15.0, 100.0, 1.0, 2000, 3))  # N >> K: gather over supp W
    @example((10007, 15.0, 2000.0, 1.0, 3, 2000))  # K >> N: the coprime pairs
    @example((19997, 19000.0, 19500.0, 0.6, 2000, 40))
    def test_matches_character_route_and_per_n_sweep(self, config):
        q, x, y, sigma, n_limit, k_limit = config
        scheme = linear_scheme(x)
        cong = weighted_sum_congruence(q, scheme, sigma, y, n_limit, k_limit)
        char = weighted_sum_characters(build_group(q), scheme, sigma, y, n_limit, k_limit)
        sweep = per_n_sweep(q, scheme, sigma, y, n_limit, k_limit)
        assert abs(cong - char) <= 1e-11 * abs(cong)
        assert abs(cong - sweep) <= 1e-12 * abs(sweep)

    def test_residue_zero_on_both_sides(self, group_of):
        # 7 | n (7 <= x = 10) and 7 | k (7 <= y = 100): both drop out
        scheme = linear_scheme(10)
        cong = weighted_sum_congruence(7, scheme, 1.0, 100.0, 200, 200)
        char = weighted_sum_characters(group_of(7), scheme, 1.0, 100.0, 200, 200)
        sweep = per_n_sweep(7, scheme, 1.0, 100.0, 200, 200)
        assert abs(cong - char) <= 1e-11 * abs(cong)
        assert abs(cong - sweep) <= 1e-12 * abs(sweep)

    @pytest.mark.parametrize("n_limit,k_limit", [(1000, 50), (50, 1000), (1000, 5)])
    def test_gather_size_changes_no_bit(self, monkeypatch, n_limit, k_limit):
        q = 1009
        coeffs = enumerate_coeffs(linear_scheme(12), n_limit)
        ks, bs = resonance._series_support(1.0, 100.0, k_limit)
        v, w = numth._residue_sums(q, coeffs.ns, coeffs.weights, q), numth._residue_sums(q, ks, bs, q)
        outer, cols = np.flatnonzero(v), np.flatnonzero(w)
        ns = coeffs.ns.tolist()
        if sum(math.gcd(m, n) == 1 for m in ns for n in ns) <= outer.size * cols.size:
            want = coprime_order_s1(q, coeffs, w)
        else:  # V[a] times the pairwise sum of row a over supp W, then one exactly rounded sum
            rows = [w[cols] * v[cols * a % q] for a in outer]
            want = (q - 1) * math.fsum(float(v[a] * np.sum(row)) for a, row in zip(outer, rows))
        for gather in (1, 7, 1 << 10, resonance._GATHER):  # one row, a few rows, default
            monkeypatch.setattr(resonance, "_GATHER", gather)
            assert resonance._weighted_sum(q, coeffs, v, w) == want
        assert weighted_sum_congruence(q, linear_scheme(12), 1.0, 100.0, n_limit, k_limit) == want

    def test_gathers_one_w_entry_per_coprime_pair(self, monkeypatch):
        # certify's defaults at q = 10007: 733 resonator terms, so all pairs
        # would read 537,289 entries of W; the coprime ones are fewer
        q = 10007
        x = math.log(q) * math.log(math.log(q)) / 1.4
        coeffs = enumerate_coeffs(linear_scheme(x), 10**4)
        ks, bs = resonance._series_support(1.0, 1e4, 10**4)
        v, w = numth._residue_sums(q, coeffs.ns, coeffs.weights), numth._residue_sums(q, ks, bs)
        take, read = np.take, []

        def counted(a, indices, *args, **kwargs):
            if a is w:
                read.append(np.size(indices))
            return take(a, indices, *args, **kwargs)

        monkeypatch.setattr(np, "take", counted)
        resonance._weighted_sum(q, coeffs, v, w)
        ns = coeffs.ns.tolist()
        assert sum(read) == sum(math.gcd(m, n) == 1 for m in ns for n in ns) == 62437


# S1 of `ratio_certificate` by float.hex: certify's defaults at three moduli
# and the benchmark's two certify moduli at N = K = 10**5.  S1 makes no BLAS
# call: the rows are summed by numpy's pairwise sum (the same order in each
# of its SIMD loops) and the outer sum is exactly rounded (`numth._exact_sum`),
# so no BLAS kernel, thread count, SIMD level or `_GATHER` moves a bit.  The
# q = 101 and 1091527 pins were re-recorded when that order replaced one
# OpenBLAS gemv per row block; over 26 draws S1 moved closer to `exact_s1` in
# mean.  The coprime-pair kernel left all five pins unchanged.
S1_PINS = [
    (101, 10**4, "0x1.ad842d5085b2dp+8"),
    (1009, 10**4, "0x1.5c5989f1d7022p+14"),
    (10007, 10**4, "0x1.368d88681c7bfp+19"),
    (101837, 10**5, "0x1.51a1723bdc237p+24"),
    (1091527, 10**5, "0x1.f38bdb9be8a32p+28"),
]


@pytest.mark.parametrize("q,limit,pin", S1_PINS)
def test_s1_is_pinned_bit_for_bit(q, limit, pin):
    assert ratio_certificate(q, 1.4, n_limit=limit, k_limit=limit).s1.real.hex() == pin


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("coretype", [None, "Sandybridge", "Haswell"])
def test_s1_pins_hold_under_every_blas_kernel_and_thread_count(coretype, threads):
    # each setting runs in a child of its own: OpenBLAS reads them at load
    probe = "from lextremes import ratio_certificate; print(*(ratio_certificate(q, 1.4).s1.real.hex() for q in (101, 1009, 10007)))"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["OPENBLAS_NUM_THREADS"] = threads
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    assert run_probe(probe, env).split() == [pin for q, limit, pin in S1_PINS if limit == 10**4]


def test_s1_pins_hold_with_every_simd_target_above_numpy_baseline_disabled():
    # one child process runs numpy's baseline loops, as on the oldest CPU it supports
    umath = pytest.importorskip("numpy._core._multiarray_umath")  # the module path from numpy 2.0 on

    probe = (
        "from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__;"
        "from lextremes import ratio_certificate;"
        "print(*(f for f in __cpu_dispatch__ if __cpu_features__.get(f)));"
        "print(*(ratio_certificate(q, 1.4).s1.real.hex() for q in (101, 1009, 10007)))"
    )
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(umath.__cpu_dispatch__))
    enabled, pins = run_probe(probe, env).split("\n")[:2]
    assert enabled == ""  # no dispatch target above the baseline is left on
    assert pins.split() == [pin for q, limit, pin in S1_PINS if limit == 10**4]


@pytest.mark.parametrize(
    "q,x,sigma,n_limit,k_limit",
    [(101, 7.0, 1.0, 500, 500), (211, 12.0, 0.75, 500, 40), (293, 9.0, 1.0, 30, 500), (7, 5.0, 0.6, 100, 100)],
)
def test_s1_is_within_its_rounding_bound_of_the_exact_lattice_sum(q, x, sigma, n_limit, k_limit):
    coeffs = enumerate_coeffs(linear_scheme(x), n_limit)
    ks, bs = resonance._series_support(sigma, max(x, 100.0), k_limit)
    v, w = numth._residue_sums(q, coeffs.ns, coeffs.weights), numth._residue_sums(q, ks, bs)
    exact = exact_s1(q, v.tolist(), w.tolist())
    # Every term is nonnegative, so the relative error of S1 is at most
    # gamma_{n+3}, gamma_m = m u / (1 - m u), u = 2**-53, n the row length:
    # one rounding per gathered product, n - 1 in any order of a row sum of n
    # nonnegative terms, one for the outer product, one for the exactly
    # rounded finish and one for the factor phi(q) (Higham, ch. 3-4).
    n = min(np.count_nonzero(v), np.count_nonzero(w))
    u = 2.0**-53
    bound = (n + 3) * u / (1 - (n + 3) * u)
    assert abs(Fraction(resonance._weighted_sum(q, coeffs, v, w)) - exact) <= Fraction(bound) * exact


@st.composite
def prime_weight_configs(draw):
    q = draw(st.sampled_from([p for p in ODD_PRIMES if p < 2000]))
    scheme = draw(st.sampled_from([linear_scheme, half_scheme]))(draw(st.floats(1.0, min(40.0, q - 0.5))))
    y = scheme.cutoff + draw(st.floats(min_value=0.0, max_value=2000.0))
    sigma = draw(st.floats(min_value=0.55, max_value=1.0))
    return q, scheme, y, sigma, draw(st.integers(1, 3 * q)), draw(st.integers(1, 3 * q))


# The bound against S1* = phi(q) sum_{m, n} w*_m w*_n W[n m**(-1)], where w*_n
# is the exact product of the float prime weights (`exact_s1_from_weights`).
# Every term is nonnegative, so relative errors add along each term's path
# (Higham, ch. 3-4; u = 2**-53, gamma_k = k u / (1 - k u), L = floor(log2 N) >= Omega(n)).
# - w_n is a float product of Omega(n) prime weights: L - 1 roundings.
# - Coprime pairs: G(T) is the correctly rounded sum of the floats w_g * w_g
#   (2L - 1 each), so 2L.  A term W (min(G_m, G_n) w_n) adds L - 1 + 2 to it,
#   its row of at most |S| terms |S| - 1, the row factor w_m L - 1 + 1,
#   the exact finish 1 and phi(q) 1: 4L + |S| + 2 in all.  The terms with
#   m = 1 or n = 1 take fewer.
# - Gather over supp W: V[a] adds c = ceil(N/q) weights (L + c - 2), a term
#   W V adds 1, its row |supp W| - 1, the factor V[a] L + c - 1, the finish
#   and phi(q) 2: 2L + 2c + |supp W| - 1 in all.
# Both stay within gamma_{4L + 2c + n} with n = max(|S|, |supp W|).
@settings(max_examples=20, deadline=None)
@given(prime_weight_configs())
@example((1997, linear_scheme(40.0), 500.0, 1.0, 5000, 5000))  # N > q and K > q
@example((1997, linear_scheme(40.0), 500.0, 0.75, 3000, 40))  # K < N: the gather over supp W
@example((1009, linear_scheme(20.0), 100.0, 1.0, 1, 2000))  # N = 1: S = {1}
@example((1999, half_scheme(400.0), 400.0, 0.6, 600, 2000))  # 78 primes: masks beyond 64 bits
def test_s1_is_within_its_rounding_bound_of_the_prime_weight_sum(config):
    q, scheme, y, sigma, n_limit, k_limit = config
    coeffs = enumerate_coeffs(scheme, n_limit)
    ks, bs = resonance._series_support(sigma, y, k_limit)
    w = numth._residue_sums(q, ks, bs)
    exact = exact_s1_from_weights(q, *_scheme_primes(scheme), n_limit, w.tolist())
    m = 4 * (n_limit.bit_length() - 1) + 2 * -(-n_limit // q) + max(coeffs.ns.size, int(np.count_nonzero(w)))
    bound = Fraction(m, 2**53 - m)
    assert abs(Fraction(resonance._congruence_sums(q, coeffs, ks, bs)[1]) - exact) <= bound * exact


@st.composite
def compact_table_configs(draw):
    q = draw(st.sampled_from(ODD_PRIMES))
    x = draw(st.floats(min_value=1.5, max_value=min(50.0, q - 0.5)))
    y = x + draw(st.floats(min_value=0.0, max_value=2000.0))
    sigma = draw(st.floats(min_value=0.55, max_value=1.0))
    n_limit = draw(st.integers(min_value=1, max_value=3 * q))
    k_limit = draw(st.integers(min_value=1, max_value=3 * q))
    return q, x, y, sigma, n_limit, k_limit


@settings(max_examples=30, deadline=None)
@given(compact_table_configs())
@example((10007, 30.0, 1000.0, 1.0, 20000, 500))  # N > q > K
@example((10007, 30.0, 1000.0, 0.75, 500, 20000))  # K > q > N
@example((19997, 45.0, 2000.0, 1.0, 3000, 4000))  # N, K < q: both tables compact
def test_compact_tables_match_full_tables_exactly(config):
    q, x, y, sigma, n_limit, k_limit = config
    coeffs = enumerate_coeffs(linear_scheme(x), n_limit)
    ks, bs = resonance._series_support(sigma, y, k_limit)
    compact = [numth._residue_sums(q, ns, vs) for ns, vs in ((coeffs.ns, coeffs.weights), (ks, bs))]
    full = [numth._residue_sums(q, ns, vs, q) for ns, vs in ((coeffs.ns, coeffs.weights), (ks, bs))]
    for small, whole, ns in zip(compact, full, (coeffs.ns, ks)):
        assert whole.size == q
        assert small.size == min(int((ns % q).max()) + 2, q)
        assert np.array_equal(small, whole[: small.size]) and not whole[small.size :].any()
        assert small.size == q or small[-1] == 0.0
    assert resonance._weighted_sum(q, coeffs, *compact) == resonance._weighted_sum(q, coeffs, *full)
    cs = ks.astype(float) ** -0.75
    assert resonance._provable_bound(q, coeffs, compact[0], ks, cs) == resonance._provable_bound(
        q, coeffs, full[0], ks, cs
    )


class TestFiniteRelationExact:
    def test_rational_relation_q7(self):
        # phi(q) * sum_{km=n (7), k|n, m,n<=N} w_m w_n
        #   >= w_k * phi(q) * sum_{m=r (7), m,r<=N//k} w_m w_r
        # verified in exact rational arithmetic for N = 64, all k <= 8
        # coprime to 7; weights are powers of 1/3 on powers of two.
        n_limit = 64
        support = {2**i: Fraction(1, 3) ** i for i in range(7)}  # 1..64

        def w(n: int) -> Fraction:
            return support.get(n, Fraction(0))

        for k in [1, 2, 3, 4, 5, 6, 8]:
            lhs = Fraction(0)
            for m in support:
                for n in support:
                    if n % k == 0 and (k * m - n) % 7 == 0:
                        lhs += w(m) * w(n)
            rhs = Fraction(0)
            bound = n_limit // k
            for m in support:
                if m > bound:
                    continue
                for r in support:
                    if r <= bound and (m - r) % 7 == 0:
                        rhs += w(m) * w(r)
            rhs *= w(k)
            assert lhs >= rhs


def loop_provable_bound(q, coeffs, v, terms):
    """The finite-chain bound one (k, c_k) term at a time, in the given order."""
    prefix = np.cumsum(coeffs.weights * v[coeffs.ns % q])
    bound = 0.0
    for k, c in terms:
        if k <= coeffs.limit:
            i = int(np.searchsorted(coeffs.ns, coeffs.limit // k, side="right"))
            bound += c * float(prefix[i - 1])
    return bound / float(prefix[-1])


class TestProvableBound:
    @pytest.mark.parametrize("q,n_limit", [(1009, 10**4), (101837, 10**4), (10007, 1)])
    def test_equals_the_sequential_loop(self, q, n_limit):
        x = math.log(q) * math.log(math.log(q)) / 1.4
        coeffs = enumerate_coeffs(linear_scheme(x), n_limit)
        v = numth._residue_sums(q, coeffs.ns, coeffs.weights)
        target = enumerate_coeffs(linear_scheme(x), 10**5)  # terms with k > N are skipped
        primes = sieve_primes(40)
        for ks, cs in [(target.ns, target.weights / target.ns), (primes, 0.5 * primes ** -0.75)]:
            loop = loop_provable_bound(q, coeffs, v, zip(ks.tolist(), cs.tolist()))
            assert resonance._provable_bound(q, coeffs, v, ks, cs) == loop


class TestRatioCertificate:
    def test_toy_quotient_beats_target(self):
        # X = 3, Y = 3, N = K = 8: computed ratio against the full-series
        # target 1.2 with at most 5% slack
        ratio = TOY_S1 / TOY_S2
        target = 1.2
        assert ratio >= (1 - 0.05) * target
        tau_cert = max(0.0, 1 - ratio / target)
        assert tau_cert <= 0.05

    def test_b_at_or_below_log4_rejected(self):
        with pytest.raises(ValueError):
            ratio_certificate(10007, 1.0)
        with pytest.raises(ValueError):
            ratio_certificate(10007, math.log(4))

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            ratio_certificate(10, 1.4)

    @pytest.mark.parametrize("q", [2, 2**31 + 11])
    def test_both_routes_refuse_what_the_group_refuses(self, monkeypatch, q):
        # q = 2 has no odd-prime group and 2**31 + 11 is past the bound: the
        # congruence route refuses both before any residue table is allocated
        def no_tables(*args):
            raise AssertionError("a residue table was allocated")

        monkeypatch.setattr(numth, "_residue_sums", no_tables)
        scheme = linear_scheme(1.5)
        calls = (
            lambda: build_group(q),
            lambda: square_sum_congruence(q, scheme, 10),
            lambda: weighted_sum_congruence(q, scheme, 1.0, 10.0, 10, 10),
            lambda: ratio_certificate(q, 1.4),
        )
        for call in calls:
            with pytest.raises(ValueError, match="modulus"):
                call()

    def test_q1009_regression(self):
        report = ratio_certificate(1009, 1.4)
        assert report.x == pytest.approx(math.log(1009) * math.log(math.log(1009)) / 1.4, rel=1e-12)
        assert report.ratio == pytest.approx(3.038876587906695, abs=1e-9)
        assert report.s2 == pytest.approx(7336.390296443633, rel=1e-9)
        assert report.lower_bound == pytest.approx(2.464204327204856, rel=1e-12)
        assert report.certificate.passed and report.certificate.tau_cert == 0.0
        # the provable finite-chain bound can never exceed the computed ratio
        assert report.extras["provable_bound"] == pytest.approx(2.387456671, abs=1e-6)
        assert report.ratio >= report.extras["provable_bound"] - 1e-9

    def test_q10007_regression_documents_shortfall(self):
        # frozen actual values: at these truncations the quotient falls 7.1%
        # short of the full-series target (the certificate honestly fails)
        report = ratio_certificate(10007, 1.4)
        assert report.ratio == pytest.approx(2.852588318687924, abs=1e-9)
        assert report.certificate.tau_cert == pytest.approx(0.07124951146670999, abs=1e-9)
        assert not report.certificate.passed
        assert report.ratio >= report.extras["provable_bound"] - 1e-9

    def test_tail_fraction_reported(self):
        report = ratio_certificate(1009, 1.4)
        assert report.tail_fraction == pytest.approx(0.284356681290118, abs=1e-9)
        assert 0 <= report.tail_fraction < 1

    @settings(max_examples=25, deadline=None)
    @given(
        q=st.sampled_from([q for q in ODD_PRIMES if q >= 5]),
        b=st.floats(1.39, 4.0),
        n_limit=st.integers(1, 10**4),
        k_limit=st.integers(1, 10**4),
        y_over_x=st.none() | st.floats(1.0, 10**3),
    )
    @example(q=5, b=1.4, n_limit=10**4, k_limit=10**4, y_over_x=None)
    @example(q=19997, b=1.4, n_limit=10**4, k_limit=10**4, y_over_x=None)
    @example(q=10007, b=1.4, n_limit=10**4, k_limit=1, y_over_x=1.0)
    def test_ratio_beats_the_provable_bound(self, q, b, n_limit, k_limit, y_over_x):
        y = None if y_over_x is None else math.log(q) * math.log(math.log(q)) / b * y_over_x
        report = ratio_certificate(q, b, n_limit, k_limit, y)
        assert report.ratio >= report.extras["provable_bound"] * (1 - 1e-12)


class TestExcludePrincipal:
    # q = 7, x = y = 3, N = K = 8: R_N(chi_0) = 40/27 and L_K(1, chi_0) sums
    # 1/k over the 3-smooth k <= 8, as ratio_certificate records them
    TOY_R0_SQ = (40 / 27) ** 2
    TOY_L_PRINCIPAL = 1 + 1 / 2 + 1 / 3 + 1 / 4 + 1 / 6 + 1 / 8

    def _toy_report(self):
        scheme = linear_scheme(3)
        return ResonanceReport(
            q=7,
            sigma=1.0,
            scheme=scheme,
            x=3.0,
            y=3.0,
            n=8,
            k=8,
            s1=complex(TOY_S1),
            s2=TOY_S2,
            ratio=TOY_S1 / TOY_S2,
            lower_bound=1.2,
            tail_fraction=enumerate_coeffs(scheme, 8).tail_fraction,
            principal_terms=(self.TOY_R0_SQ, self.TOY_L_PRINCIPAL * self.TOY_R0_SQ),
            l_principal=self.TOY_L_PRINCIPAL,
            certificate=CertificateResult(True, 0.0, 0.0, 0.05),
        )

    def test_toy_values(self):
        report = self._toy_report()
        star = exclude_principal(report)
        r0_sq = (40 / 27) ** 2
        assert star.principal_terms[0] == pytest.approx(r0_sq, abs=1e-12)
        assert star.s2 == pytest.approx(TOY_S2 - r0_sq, abs=1e-12)
        l_principal = 1 + 1 / 2 + 1 / 3 + 1 / 4 + 1 / 6 + 1 / 8
        assert star.s1.real == pytest.approx(TOY_S1 - l_principal * r0_sq, abs=1e-12)

    @pytest.mark.parametrize("q", [1009, 10007])
    def test_reads_the_recorded_principal_terms(self, q, monkeypatch):
        # the certificate's own r0**2 and L_K(chi_0), not a second enumeration
        report = ratio_certificate(q, 1.4)
        coeffs = enumerate_coeffs(report.scheme, report.n)
        ks, bs = resonance._series_support(1.0, report.y, report.k)
        assert report.principal_terms[0] == coeffs.partial_sum**2
        assert report.l_principal == math.fsum(bs[ks % q != 0].tolist())

        def refuse(*args):
            raise AssertionError("exclude_principal enumerated again")

        monkeypatch.setattr(resonance, "enumerate_coeffs", refuse)
        monkeypatch.setattr(resonance, "_series_support", refuse)
        star = exclude_principal(report)
        assert star.s2 == report.s2 - report.principal_terms[0]
        assert star.s1 == report.s1 - report.l_principal * report.principal_terms[0]

    def test_series_support_below_two_is_one(self):
        # no prime is <= y < 2, so the series is the single term k = 1
        ks, bs = resonance._series_support(1.0, 0.6, 10)
        assert ks.tolist() == [1] and bs.tolist() == [1.0]

    def test_trivial_resonator_subtracts_one(self):
        report = ratio_certificate(7, 1.4)  # x < 2, so R = 1 identically
        star = exclude_principal(report)
        assert star.s2 == pytest.approx(report.s2 - 1.0, rel=1e-12)

    def test_degenerate_scale_error(self):
        from dataclasses import replace

        report = replace(self._toy_report(), s2=2.0)  # below |R(chi_0)|^2 = 2.195
        with pytest.raises(ValueError):
            exclude_principal(report)

    def test_q10007_shift_regression(self):
        report = ratio_certificate(10007, 1.4)
        star = exclude_principal(report)
        shift = (star.ratio - report.ratio) / report.ratio
        assert shift == pytest.approx(-0.08813578867938553, abs=1e-9)
        # scale sanity: the surviving mass still dominates the principal term
        assert math.log(star.s2) > math.log(star.principal_terms[0])


class TestHalfWeightCertificate:
    def test_q1009_passes(self, group_of):
        report = half_weight_certificate(group_of(1009), 0.75)
        assert report.scheme.kind == "half"
        assert report.y == 20.0
        assert report.lower_bound == pytest.approx(1.0528421617488057, rel=1e-12)
        assert report.ratio == pytest.approx(3.6094259394471764, abs=1e-9)
        assert report.certificate.passed and report.certificate.tau_cert == 0.0
        assert report.extras["s1_route_rel_diff"] < 1e-9
        assert report.extras["s2_route_rel_diff"] < 1e-9

    def test_single_prime_target(self, group_of):
        # y_min low enough that only p = 2 is below the formula cutoff
        report = half_weight_certificate(group_of(1009), 0.75, y_min=2.5)
        assert report.lower_bound == pytest.approx(1 / (2 * 2**0.75), abs=1e-12)

    def test_sigma_range_rejected(self, group_of):
        for sigma in (0.5, 1.0, 1.2):
            with pytest.raises(ValueError):
                half_weight_certificate(group_of(1009), sigma)

    def test_cutoff_above_modulus_rejected(self, group_of):
        with pytest.raises(ValueError):
            half_weight_certificate(group_of(23), 0.75, y_min=30.0)

    @settings(max_examples=25, deadline=None)
    @given(
        q=st.sampled_from([q for q in ODD_PRIMES if q >= 23]),
        sigma=st.floats(0.51, 0.95),
        n_limit=st.integers(1, 10**4),
        k_limit=st.integers(1, 10**4),
        x_cap=st.floats(2.0, 1e5),
        y_min=st.floats(2.0, 20.0),
    )
    @example(q=23, sigma=0.51, n_limit=10**4, k_limit=10**4, x_cap=1e5, y_min=20.0)
    @example(q=19997, sigma=0.95, n_limit=10**4, k_limit=10**4, x_cap=1e5, y_min=20.0)
    # the series stops short of the chain primes p <= y = 20
    @example(q=10007, sigma=0.75, n_limit=10**4, k_limit=1, x_cap=1e5, y_min=20.0)
    @example(q=10007, sigma=0.75, n_limit=10**4, k_limit=3, x_cap=1e5, y_min=20.0)
    @example(q=10007, sigma=0.75, n_limit=10**4, k_limit=10**4, x_cap=10.0, y_min=20.0)
    def test_ratio_beats_the_provable_bound_and_routes_agree(self, q, sigma, n_limit, k_limit, x_cap, y_min):
        report = half_weight_certificate(build_group(q), sigma, None, y_min, x_cap, n_limit, k_limit)
        assert report.ratio >= report.extras["provable_bound"] * (1 - 1e-12)
        assert report.extras["s1_route_rel_diff"] <= 1e-9
        assert report.extras["s2_route_rel_diff"] <= 1e-9


class TestPrimeCutoff:
    def test_bit_identical_to_the_inline_expression(self):
        overflowed = 0
        for q in (17, 101, 1009, 10007, 100003, 1000003, 2147483647):
            log_q = math.log(q)
            for sigma in (0.501, 0.51, 0.52, 0.55, 0.6, 0.75, 0.9, 0.99):
                for x_cap in (20.0, 1e5, 1e12, math.inf):
                    try:
                        old = min(log_q ** (3 / (sigma - 0.5)), x_cap)
                    except OverflowError:
                        overflowed += 1
                        assert resonance._prime_cutoff(log_q, sigma, x_cap) == x_cap
                        continue
                    assert resonance._prime_cutoff(log_q, sigma, x_cap).hex() == old.hex()
        assert overflowed > 0


class TestExceptionalSetBudget:
    def test_default_exponent(self):
        budget = exceptional_set_budget(1009, 0.75)
        assert budget.count_bound == pytest.approx(1009**0.6, rel=1e-12)

    def test_resonator_bound_values(self):
        assert exceptional_set_budget(1009, 0.75, y=10).resonator_bound == 256.0
        assert exceptional_set_budget(1009, 0.75, y=2).resonator_bound == 4.0

    def test_sigma_domain(self):
        # sigma = 2 divided by zero, 0.3 gave a count bound above q, and nan gave nan
        for sigma in (0.5, 1.0, 0.3, 2.0, math.nan):
            with pytest.raises(ValueError, match=r"sigma must lie strictly inside \(1/2, 1\)"):
                exceptional_set_budget(101, sigma)
        for sigma in (math.nextafter(0.5, 1), math.nextafter(1.0, 0)):
            assert 1 <= exceptional_set_budget(101, sigma).count_bound <= 101


class TestReportSerialization:
    def test_json_round_trip(self):
        report = ratio_certificate(1009, 1.4)
        parsed = json.loads(_json_bytes(dataclasses.asdict(report)))
        assert parsed["q"] == 1009
        assert parsed["s1"][0] == pytest.approx(report.s1.real, abs=1e-12)
        assert parsed["s2"] == pytest.approx(report.s2, abs=1e-12)
        assert parsed["ratio"] == pytest.approx(report.ratio, abs=1e-12)
        assert parsed["lower_bound"] == pytest.approx(report.lower_bound, abs=1e-12)
        assert parsed["tail_fraction"] == pytest.approx(report.tail_fraction, abs=1e-12)
        assert parsed["certificate"]["passed"] is True
        assert set(parsed) >= {
            "q", "sigma", "scheme", "x", "y", "n", "k", "s1", "s2",
            "ratio", "lower_bound", "tail_fraction", "principal_terms", "certificate",
        }
