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
    """Equal bit for bit, signs of zero included; a long double by value and
    sign, as the padding of its storage holds no bits of it."""
    if a.dtype in (np.longdouble, np.clongdouble):
        pairs = [(part(a), part(b)) for part in (np.real, np.imag)]
        same = (np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y)) for x, y in pairs)
        return a.dtype == b.dtype and a.shape == b.shape and all(same)
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
    streamed powers g**k, the group's twiddle tables T_lo and T_hi, the
    streamed twiddles w**k for k < q-1, the root table, the residue kernel,
    the L-values and their moduli, and the half spectrum of a random vector."""
    saved = chargroup._thread_count, chargroup._BLOCK
    chargroup._thread_count, chargroup._BLOCK = (lambda: threads), block
    try:
        group = build_group(q)
        powers, twiddles = np.empty(q - 1, dtype=np.int64), np.empty(q - 1, dtype=complex)
        chargroup._blocks(lambda a, b: np.copyto(powers[a:b], chargroup._power_block(group, a, b)), q - 1)
        chargroup._blocks(lambda a, b: chargroup._twiddles(group, a, b, out=twiddles[a:b]), q - 1)
        stages = [powers, group._roots_lo, group._roots_hi, twiddles, group._roots]
        stages.append(half_spectrum(group, np.random.default_rng(q).standard_normal(q - 1)))
        for sigma in (1.0, 0.75, 0.55):
            batch = lfunc.l_value_batch(group, sigma)
            stages += [lfunc._residue_values(group, sigma), batch.half, batch.half_abs()]
        return stages
    finally:
        chargroup._thread_count, chargroup._BLOCK = saved


def whole_tables(q: int) -> list[np.ndarray]:
    """The first four stages of `blocked_stages` from whole tables: g**k mod q
    by `chargroup._powers`; T_lo = w**l for l < L and T_hi = w**(mL) for
    mL < q-1, w = exp(2 pi i/(q-1)) and L the least power of 2 with
    L**2 >= q-1, long-double cos and sin of np.longdouble angles as
    `longdouble_dft` forms them; and w**k = T_lo[k mod L] * T_hi[k div L] for
    k < q-1 by one gather of each table and one whole-array long-double
    product, rounded once to complex."""
    n, span = q - 1, 1
    while span * span < n:
        span *= 2
    pi = 4 * np.arctan(np.longdouble(1))
    angles = (2 * pi * k / n for k in (np.arange(span), np.arange(0, n, span)))
    lo, hi = (np.cos(a) + 1j * np.sin(a) for a in angles)
    k = np.arange(n)
    return [chargroup._powers(numth.primitive_root(q), q, n), lo, hi, (lo[k % span] * hi[k // span]).astype(complex)]


# the moduli of the twiddle pins: one to three runs of T_lo, and the split modulus
TWIDDLE_QS = (5, 7, 11, 13, SPLIT_Q)


def twiddles_off_their_pins() -> list[int]:
    """The q of TWIDDLE_QS where a group's twiddle tables differ in any bit
    from `whole_tables`, where a table entry errs by more than 2**-60 from
    40-digit mpmath or a twiddle w**k (k < q-1) by more than half an ulp plus
    2**-60, or where `chargroup._twiddles` over [a, b) for every a, with
    b = a + 1, a + L + 1 and q - 1, differs from the whole-array product."""
    import mpmath

    off = []
    for q in TWIDDLE_QS:
        group, (_, lo, hi, want) = build_group(q), whole_tables(q)
        span, n = lo.size, q - 1
        tables = [group._roots_lo, group._roots_hi]
        ok = all(map(same_bits, tables, (lo, hi)))
        for roots, step, ulps in ((lo, 1, 0), (hi, span, 0), (want, 1, 1)):
            for k, root in enumerate(roots):
                with mpmath.workdps(40):
                    exact = mpmath.expjpi(mpmath.mpf(2 * k * step) / n)
                for got, part in ((root.real, exact.real), (root.imag, exact.imag)):
                    err = abs(got - np.longdouble(mpmath.nstr(part, 30)))  # 30 digits, rounded once to long double
                    ok &= err <= ulps * np.spacing(abs(float(got))) / 2 + 2.0**-60
        for a in range(n):
            for b in {a + 1, min(a + span + 1, n), n}:
                ok &= same_bits(chargroup._twiddles(group, a, b, np.empty(b - a, dtype=complex)), want[a:b])
        if not ok:
            off.append(q)
    return off


def blocks_that_change_bits(settings) -> list[tuple[int, int, int]]:
    """(q, W, block) wherever a stage of `blocked_stages` at q in BLOCK_QS,
    under one (W, block) of `settings`, differs from the W = 1, one-block
    result in any bit; (q, 1, q) where that result's powers, twiddle tables
    or twiddles differ from `whole_tables`."""
    changed = []
    for q in BLOCK_QS:
        want = blocked_stages(q, 1, q)
        if not all(map(same_bits, want[:4], whole_tables(q))):
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
    out[chargroup._powers(group.g, group.q, group.q - 1) - 1] = x
    return out


def full_spectrum(group, f) -> np.ndarray:
    """sum_a f(a) chi_j(a) for every j = 0..q-2 from `dft_over_group`'s half
    spectra: a complex f by its real and imaginary parts, and each j > h by
    out[j] = conj out[q-1-j] of a real part."""
    if np.iscomplexobj(f):
        return full_spectrum(group, f.real) + 1j * full_spectrum(group, f.imag)
    half = lextremes.dft_over_group(group, f)
    return np.concatenate([half, np.conj(half[1:-1][::-1])])


def all_l_values(batch) -> np.ndarray:
    """L(sigma, chi_j) for every j = 1..q-2 from the batch's half j <= h, by
    L(sigma, chi_{q-1-j}) = conj L(sigma, chi_j)."""
    return np.concatenate([batch.half, np.conj(batch.half[:-1][::-1])])


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
