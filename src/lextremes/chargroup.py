"""The group of Dirichlet characters modulo an odd prime q.

Characters are indexed by an exponent j against a fixed primitive root g:

    chi_j(g**k) = exp(2*pi*i * j*k / (q-1)),   chi_j(n) = 0 when q | n.

A single character is the plain pair (group, j).  A discrete-log table
gives O(1) evaluation (one gather for a whole array of arguments), and a
sum of the whole group against any residue-indexed vector is one
length-(q-1) DFT.  `_term_sums` is the package's one character sum of
terms (n, a_n): it adds them into their residues and takes that DFT.
Every vector the package transforms is real and q-1 is even, so
`dft_over_group` runs it as one half-length complex FFT of length
h = (q-1)/2 and fills the conjugate half by symmetry; a complex vector
takes two such transforms, one of its real part and one of its imaginary
part.  When the largest prime p of h has p**2 > h (numpy would
take its chirp/Bluestein path) and h != p, that FFT is split by the
Good-Thomas prime-factor map into batched FFTs of the coprime lengths p
and h/p, which needs no twiddles; otherwise it is one numpy call.

A group is built with 12 bytes per residue: int32 `power_residues`
(q < 2**31, as `numth.check_modulus` requires) and the lower half of the
complex root table, which is all that the whole-group paths read.  The
int32 `dlog` and the full root table, whose upper half is the exact
conjugate mirror of its lower half, are built on the first single-character
evaluation; the full table then replaces the half one, so a group never
holds more than 24 bytes per residue.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import numth


def _powers(g: int, q: int, count: int) -> np.ndarray:
    """g**k mod q for k = 0..count-1 as an int64 array, by doubling: entries
    m..2m-1 are entries 0..m-1 times g**m mod q.  Both factors are below
    q < 2**31, so each product stays below 2**62 and is exact in int64."""
    powers = np.ones(count, dtype=np.int64)
    m = 1
    while m < count:
        block = powers[m : 2 * m]
        np.multiply(powers[: block.size], pow(g, m, q), out=block)
        block -= block // q * q  # floor_divide by a scalar is cheaper than %
        m *= 2
    return powers


class CharacterGroup:
    """Full character group mod an odd prime q, with O(1) evaluation tables.

    Attributes:
        q: the prime modulus
        g: the smallest primitive root mod q
        phi: group order q - 1
        power_residues: int32 array of length q-1; entry k is g**k mod q
        dlog: int32 array of length q, built on first access;
              dlog[a] = k with g**k = a (mod q), dlog[0] = -1 (sentinel for q | n)

    Both tables fit int32 because q < 2**31; every product of a character
    index with a table entry is formed in int64.  The private root table
    `_roots[k] = exp(2 pi i k/(q-1))` is evaluated for k < h = (q-1)/2 and
    holds exactly -1 at k = h.  A new group keeps only these h + 1 entries,
    and the group DFT reads its twiddles from the first h.  `character_values`
    and `values_at` replace it by the full-length table, whose upper half is
    the exact mirror `_roots[q-1-k] = conj(_roots[k])`; reading the half table
    through folded indices made `character_values` twice as slow at q = 98017.
    """

    def __init__(self, q: int, g: int):
        self.q = q
        self.g = g
        self.phi = q - 1
        self.power_residues = _powers(g, q, q - 1).astype(np.int32)
        self.power_residues.setflags(write=False)
        # one shared root-of-unity table fixes the rounding profile everywhere
        h = (q - 1) // 2
        roots = np.empty(h + 1, dtype=complex)
        roots[:h] = np.exp(2j * math.pi * np.arange(h) / (q - 1))
        roots[h] = -1.0
        roots.setflags(write=False)
        self._roots = roots

    @functools.cached_property
    def dlog(self) -> np.ndarray:
        dlog = np.full(self.q, -1, dtype=np.int32)
        dlog[self.power_residues] = np.arange(self.q - 1, dtype=np.int32)
        dlog.setflags(write=False)
        return dlog

    def _full_roots(self) -> np.ndarray:
        """The root table over every k < q-1, mirrored from the lower half on
        first use; it replaces the half table, so the group holds one of them."""
        if self._roots.size < self.q - 1:
            h = (self.q - 1) // 2
            roots = np.empty(self.q - 1, dtype=complex)
            roots[: h + 1] = self._roots
            np.conjugate(roots[h - 1 : 0 : -1], out=roots[h + 1 :])
            roots.setflags(write=False)
            self._roots = roots
        return self._roots

    def character(self, index: int) -> tuple[CharacterGroup, int]:
        """chi_index as the pair (group, index) that single-character functions take."""
        if not 0 <= index <= self.q - 2:
            raise ValueError(f"character index must lie in [0, {self.q - 2}], got {index}")
        return self, index

    def character_values(self, index: int, ns: np.ndarray) -> np.ndarray:
        """chi_index(n) for every n of the int array `ns` (zeros where q | n)."""
        ns = np.asarray(ns)
        logs = self.dlog[ns - ns // self.q * self.q]  # the sentinel -1 where q | n
        exponents = np.multiply(logs, index, dtype=np.int64)
        exponents -= exponents // (self.q - 1) * (self.q - 1)  # floor_divide by a scalar is cheaper than %
        values = self._full_roots()[exponents]
        values[logs < 0] = 0
        return values

    def values_at(self, n: int) -> np.ndarray:
        """chi_j(n) for every character index j at once (zeros when q | n)."""
        r = n % self.q
        if r == 0:
            return np.zeros(self.q - 1, dtype=complex)
        exponents = np.arange(self.q - 1, dtype=np.int64) * int(self.dlog[r])
        exponents -= exponents // (self.q - 1) * (self.q - 1)
        return self._full_roots()[exponents]

    def __repr__(self) -> str:
        return f"CharacterGroup(q={self.q}, g={self.g})"


def build_group(q: int) -> CharacterGroup:
    """Construct the character group mod q (`numth.check_modulus`),
    verifying that k -> g**k mod q is a bijection onto 1..q-1."""
    numth.check_modulus(q)
    group = CharacterGroup(q, numth.primitive_root(q))
    seen = np.zeros(q, dtype=bool)  # 1 byte per residue, freed on return
    seen[group.power_residues] = True
    if not seen[1:].all():
        raise AssertionError(f"the powers of g={group.g} mod q={q} are not a bijection")
    return group


def orthogonality_sum(group: CharacterGroup, m: int, n: int) -> float:
    """Sum of chi(m) * conj(chi(n)) over all chi, by direct summation.

    Equals phi(q) when m = n (mod q) and 0 otherwise.  The q - 1 products
    come from the evaluation tables and are added by `numth._exact_sum`, so
    the sum is exactly rounded and independent of `dft_over_group`: it stays
    the obviously-correct oracle for the DFT-based paths.
    """
    q = group.q
    if math.gcd(m * n, q) != 1:
        raise ValueError(f"orthogonality_sum requires gcd(mn, q) = 1, got m={m}, n={n}, q={q}")
    return numth._exact_sum((group.values_at(m) * np.conj(group.values_at(n))).real)


def dft_over_group(group: CharacterGroup, f: np.ndarray) -> np.ndarray:
    """out[j] = sum_{a=1}^{q-1} f(a) * chi_j(a) for every character index j.

    `f` is one vector of the values at residues 1..q-1 (entry i is the
    value at a=i+1).  Reindexing along powers of g turns the character sum
    into a length-n DFT with positive sign convention, n = q-1.

    Real input is packed as z[m] = x[2m] + i*x[2m+1] for the reordered
    vector x and transformed by one unscaled length-n/2 FFT Z.  The even
    and odd half-spectra E[j] = (Z[j] + conj Z[-j])/2 and
    O[j] = -i(Z[j] - conj Z[-j])/2 give out[j] = E[j] + w**j O[j] for
    j < n/2 (w = exp(2 pi i/n), read from the group's root table) and
    out[n/2] = E[0] - O[0]; the upper half is out[n-j] = conj(out[j]), so
    L(sigma, conj chi) = conj L(sigma, chi) holds exactly.  conj Z[-j] is
    read from the reversed view of Z into the still unused upper half of
    out, E is formed in out[:n/2] and O in Z's own buffer, so the output and
    Z are the only arrays alive at the peak (48 bytes per n/2).  Complex
    input is transformed as out = dft(f.real) + i*dft(f.imag).

    Z is one numpy FFT unless h = n/2 has a prime factor p with p**2 > h
    and h != p, where numpy would run Bluestein.  Then, with r = h/p
    (coprime to p), z is gathered through the Ruritanian map
    z2[a, b] = z[(r*a + p*b) mod h] into a (p, r) array, both axes are
    transformed in place by batched numpy FFTs, and Z[k] is read back
    through the CRT map k -> (k mod p, k mod r).  No twiddles are needed.
    At q = 985709 (h = 2*83*2969) one call takes about 0.10 s against
    0.20 s through numpy's length-h Bluestein (medians of 45 calls each on
    2 shared vCPUs, numpy 2.4), and Bluestein's buffers are never built.
    """
    f = np.asarray(f)
    if f.shape != (group.q - 1,):
        raise ValueError(f"expected {group.q - 1} residue values, got shape {f.shape}")
    if np.iscomplexobj(f):
        return _real_group_dft(group, f.real) + 1j * _real_group_dft(group, f.imag)
    return _real_group_dft(group, f)


def _term_sums(group: CharacterGroup, ns: np.ndarray, values: np.ndarray) -> np.ndarray:
    """out[j] = sum_i values[i] * chi_j(ns[i]) for every character index j, as
    one `dft_over_group` of the terms' residue sums (residue 0 dropped)."""
    return dft_over_group(group, numth._residue_sums(group.q, ns, values, group.q)[1:])


def _real_group_dft(group: CharacterGroup, f: np.ndarray) -> np.ndarray:
    """The half-length kernel of `dft_over_group` for a real vector f."""
    n = group.q - 1
    h = n // 2
    positions = group.power_residues - 1  # entries 2m and 2m+1 are packed into z[m]
    split = _good_thomas_split(h)
    if split:
        p, r = split
        # Ruritanian map (r*a + p*b) mod h; every entry is below 2h
        ruritanian = r * np.arange(p)[:, None] + p * np.arange(r)
        np.subtract(ruritanian, h, out=ruritanian, where=ruritanian >= h)
        # each pair moved as one int64: numpy gathers 8-byte items about 5x
        # faster than (h, 2) rows (4 against 23 ms at q = 985709)
        positions = positions.view(np.int64)[ruritanian].view(np.int32)
        del ruritanian
    # x[2m] + i*x[2m+1] is complex128's memory layout: one gather packs z
    z = np.asarray(f[positions], dtype=float).view(complex)
    del positions
    if split:
        # unscaled 2-D transform in place; entry (k mod p, k mod r) is Z[k]
        np.fft.ifft(z, axis=-1, norm="forward", out=z)
        np.fft.ifft(z, axis=-2, norm="forward", out=z)
        crt = np.tile(np.arange(p) * r, r)
        crt += np.tile(np.arange(r), p)  # (k mod p) * r + k mod r
        spec = z.ravel()[crt]
        del crt
    else:
        spec = np.fft.ifft(z, norm="forward")  # unscaled: sum_m z[m] exp(2 pi i jm/h)
    del z
    # conj Z[-j mod h] goes into the upper half of out, which is free until the mirror
    out = np.empty(n, dtype=complex)
    mirror = out[h:]
    mirror[0] = spec[0].conjugate()
    np.conjugate(spec[:0:-1], out=mirror[1:])
    even = np.add(spec, mirror, out=out[:h])
    even *= 0.5
    odd = np.subtract(spec, mirror, out=spec)
    odd *= -0.5j
    out[h] = even[0] - odd[0]
    odd *= group._roots[:h]
    even += odd
    np.conjugate(out[h - 1 : 0 : -1], out=out[h + 1 :])
    return out


def _good_thomas_split(h: int) -> tuple[int, int] | None:
    """(p, h/p) for the largest prime p of h when numpy would run a length-h
    FFT through Bluestein (p**2 > h) and h is not p itself; None otherwise.

    p**2 > h means p divides h exactly once, so p and h/p are coprime.
    """
    if h < 2:
        return None
    p = numth.factorize(h)[-1][0]
    if p * p <= h or p == h:
        return None
    return p, h // p
