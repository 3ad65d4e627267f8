"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the code paths they check: the eta-series
accelerator for zeta values, mean-corrected partial sums for L(1, chi),
and sieve-based tables for phi / greatest prime factors.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import lextremes
from lextremes import build_group, chargroup, lfunc, numth, sieve_primes

ODD_PRIMES = sieve_primes(2 * 10**4)[1:].tolist()  # every odd prime below 2 * 10**4
SPLIT_Q = 1031  # (q-1)/2 = 5*103 and 103**2 > 515: the Good-Thomas split
TESTS = os.path.dirname(os.path.abspath(__file__))


def run_probe(probe: str, env: dict | None = None, timeout: float = 120) -> str:
    """The stdout of `python -c probe` in a child process that imports the
    package from its source tree; `env` replaces the child's environment
    (default: this one's) before PYTHONPATH is set."""
    src = os.path.dirname(os.path.dirname(lextremes.__file__))
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    argv = [sys.executable, "-c", probe]
    return subprocess.run(argv, capture_output=True, text=True, env=env, check=True, timeout=timeout).stdout


def same_bits(a, b) -> bool:
    """Equal bit for bit, signs of zero included."""
    bits = (np.ascontiguousarray(x).view(np.uint64) for x in (a, b))
    return a.shape == b.shape and np.array_equal(*bits)


def half_spectrum(group, x) -> np.ndarray:
    """`chargroup._half_spectrum` of the real vector x in power order, copied
    into the (h + 1)-complex buffer that the transform runs in."""
    buffer = np.empty((group.q + 1) // 2, dtype=complex)
    buffer.view(float)[: group.q - 1] = x
    return chargroup._half_spectrum(group, buffer)


# the (W, block size) pairs and the moduli of the block-invariance checks;
# blocks of 7 entries run up to SPLIT_Q and of 1024 up to 10007 only, where
# they cost tier-1 a few hundred ms (blocks of 7 at q = 10007 take 2.7 s)
BLOCK_SETTINGS = [(w, b) for w in (1, 2, 3) for b in (7, 1024, chargroup._BLOCK)]
BLOCK_QS = (3, 5, 7, 11, 13, 101, 1009, SPLIT_Q, 10007, 97021, 98017)
_LARGEST_Q_AT = {7: SPLIT_Q, 1024: 10007}


def blocked_stages(q: int, threads: int, block: int) -> list[np.ndarray]:
    """The output of every blocked and threaded stage at q, for sigma = 1,
    0.75 and 0.55, with W = threads and chargroup._BLOCK = block: the
    streamed powers g**k and twiddles w**k for k < q-1, the root table, the
    residue kernel, the L-values and their moduli, and the half spectrum of
    a random vector."""
    saved = chargroup._thread_count, chargroup._BLOCK
    chargroup._thread_count, chargroup._BLOCK = (lambda: threads), block
    try:
        group = build_group(q)
        powers, twiddles = np.empty(q - 1, dtype=np.int64), np.empty(q - 1, dtype=complex)
        chargroup._blocks(lambda a, b: np.copyto(powers[a:b], chargroup._power_block(group, a, b)), q - 1)
        chargroup._blocks(lambda a, b: chargroup._twiddles(q, a, b, out=twiddles[a:b]), q - 1)
        stages = [powers, twiddles, group._roots]
        stages.append(half_spectrum(group, np.random.default_rng(q).standard_normal(q - 1)))
        for sigma in (1.0, 0.75, 0.55):
            batch = lfunc.l_value_batch(group, sigma)
            stages += [lfunc._residue_values(group, sigma), batch.half, batch.half_abs()]
        return stages
    finally:
        chargroup._thread_count, chargroup._BLOCK = saved


def whole_tables(q: int) -> list[np.ndarray]:
    """The first two stages of `blocked_stages` from whole tables: g**k mod q
    by `chargroup._powers` and w**k = exp(2 pi i k/(q-1)) by one np.exp."""
    return [chargroup._powers(numth.primitive_root(q), q, q - 1), np.exp(2j * np.pi * np.arange(q - 1) / (q - 1))]


def blocks_that_change_bits(settings) -> list[tuple[int, int, int]]:
    """(q, W, block) wherever a stage of `blocked_stages` at q in BLOCK_QS,
    under one (W, block) of `settings`, differs from the W = 1, one-block
    result in any bit; (q, 1, q) where that result's powers or twiddles
    differ from `whole_tables`."""
    changed = []
    for q in BLOCK_QS:
        want = blocked_stages(q, 1, q)
        if not all(map(same_bits, want[:2], whole_tables(q))):
            changed.append((q, 1, q))
        for threads, block in settings:
            if q <= _LARGEST_Q_AT.get(block, q) and not all(map(same_bits, blocked_stages(q, threads, block), want)):
                changed.append((q, threads, block))
    return changed


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
