"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the code paths they check: the eta-series
accelerator for zeta values, mean-corrected partial sums for L(1, chi),
and sieve-based tables for phi / greatest prime factors.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from lextremes import build_group, sieve_primes

ODD_PRIMES = sieve_primes(2 * 10**4)[1:].tolist()  # every odd prime below 2 * 10**4
SPLIT_Q = 1031  # (q-1)/2 = 5*103 and 103**2 > 515: the Good-Thomas split


@pytest.fixture(scope="session")
def group_of():
    """Session-cached character groups (building q=10007 twice is wasteful)."""
    cache = {}

    def get(q: int):
        if q not in cache:
            cache[q] = build_group(q)
        return cache[q]

    return get


def zeta_via_eta(s: float, terms: int = 60) -> float:
    """zeta(s) = eta(s) / (1 - 2**(1-s)) via accelerated alternating series.

    Chebyshev-polynomial acceleration of eta(s) = sum (-1)**k (k+1)**(-s);
    the error decays like (3 + sqrt(8))**(-terms), far below 1e-15 here.
    """
    n = terms
    d = (3 + math.sqrt(8.0)) ** n
    d = (d + 1 / d) / 2
    b, c, acc = -1.0, -d, 0.0
    for k in range(n):
        c = b - c
        acc += c * (k + 1) ** (-s)
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1))
    return (acc / d) / (1 - 2 ** (1 - s))


@pytest.fixture(scope="session")
def harmonic_by_residue():
    """H[a] = sum_{n <= M, n = a (mod q)} 1/n for the series oracle, cached."""
    cache = {}

    def get(q: int, m_terms: int = 10**6):
        m_aligned = q * (m_terms // q)
        key = (q, m_aligned)
        if key not in cache:
            n = np.arange(1, m_aligned + 1)
            h = np.zeros(q)
            np.add.at(h, n % q, 1.0 / n)
            cache[key] = (h, m_aligned)
        return cache[key]

    return get


def series_l1_oracle(group, j: int, h_by_residue: np.ndarray, m_aligned: int) -> complex:
    """L(1, chi_j) by partial sums plus the first-order periodic-mean tail.

    With M a multiple of q the character partial sums vanish at M, and the
    tail integral equals mu/M + O(q**2 / M**2) where mu = -(1/q) sum a chi(a).
    Independent of the digamma machinery.
    """
    chi = group.character_values(j, np.arange(1, group.q))
    partial = complex(np.sum(chi * h_by_residue[1:]))
    mu = -complex(np.sum(np.arange(1, group.q) * chi)) / group.q
    return partial + mu / m_aligned


def in_residue_order(group, x) -> np.ndarray:
    """A vector given in power order, x[k] at a = g**k, as the vector over
    the residues a = 1..q-1 that `dft_over_group` takes."""
    out = np.empty(group.q - 1)
    out[group.power_residues - 1] = x
    return out


def longdouble_dft(group, f) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of sum_a f(a) chi_j(a) for real f, summed
    naively in np.longdouble with twiddles exp(2 pi i m/(q-1)) evaluated in
    np.longdouble."""
    n = group.q - 1
    pi = 4 * np.arctan(np.longdouble(1))
    angles = 2 * pi * np.arange(n, dtype=np.longdouble) / n
    cos_t, sin_t = np.cos(angles), np.sin(angles)
    f = np.asarray(f, dtype=np.longdouble)
    idx = (np.arange(n)[:, None] * group.dlog[1:][None, :]) % n
    return (cos_t[idx] * f).sum(axis=1), (sin_t[idx] * f).sum(axis=1)


def gpf_table(limit: int) -> np.ndarray:
    """Greatest-prime-factor sieve; gpf[1] = 0."""
    gpf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, limit + 1):
        if gpf[p] == 0:
            gpf[p::p] = p
    return gpf
