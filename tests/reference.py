"""Test-only references computed from the definitions in exact arithmetic.

Nothing here imports `lextremes`: the references take plain numbers and
arrays, so a fault in the package cannot enter them.
"""

from __future__ import annotations

from fractions import Fraction


def _scaled(table) -> tuple[list[int], int]:
    """Integers t[i] and an exponent e with t[i] / 2**e exactly table[i]."""
    ratios = [float(x).as_integer_ratio() for x in table]
    e = max(d for _, d in ratios).bit_length() - 1
    return [n << (e - d.bit_length() + 1) for n, d in ratios], e


def _lattice_sum(q: int, v_int, w_int) -> int:
    """sum_{a, c} v[a] v[c] w[c * a**(-1) mod q] over integer residue tables,
    as sum_a v[a] sum_r w[r] v[r * a mod q] (c = r a) when supp w is smaller."""
    v = {a: x for a, x in enumerate(v_int) if x and a % q}
    w = {r: x for r, x in enumerate(w_int) if x and r % q}
    total = 0
    for a, va in v.items():
        if len(w) < len(v):
            total += va * sum(wr * v.get(r * a % q, 0) for r, wr in w.items())
        else:
            a_inv = pow(a, -1, q)
            total += va * sum(vc * w.get(c * a_inv % q, 0) for c, vc in v.items())
    return total


def exact_s1(q: int, v, w) -> Fraction:
    """S1 = phi(q) * sum_{a, c} V[a] V[c] W[c * a**(-1) mod q], exactly.

    `v` and `w` are residue tables (entry i holds the sum over the terms
    congruent to i mod q) of any length up to q; entries past the end are
    zero.  Every float is an integer over a power of two, so the lattice is
    summed in integers and divided once.
    """
    v_int, ev = _scaled(v)
    w_int, ew = _scaled(w)
    return Fraction((q - 1) * _lattice_sum(q, v_int, w_int), 1 << (2 * ev + ew))


def exact_s1_from_weights(q: int, primes, weights, n_limit: int, w) -> Fraction:
    """S1 = phi(q) * sum_{m, n} w_m w_n W[n * m**(-1) mod q], exactly, over the
    n <= n_limit built from the primes with a positive weight, where w_n is
    the exact product of the float prime weights (w_1 = 1).

    Unlike `exact_s1`, no composite weight is rounded: the resonator side is
    enumerated here from its prime weights.  `w` is the series residue table
    (as in `exact_s1`); the terms with q | n drop out with residue 0.
    """
    terms = [(1, 1, 0)]  # n and w_n = num / 2**e
    for p, wp in zip(primes, weights):
        if wp > 0:
            a, d = float(wp).as_integer_ratio()
            grown = []
            for n, num, e in terms:
                while n * p <= n_limit:
                    n, num, e = n * p, num * a, e + d.bit_length() - 1
                    grown.append((n, num, e))
            terms += grown
    top = max(e for _, _, e in terms)
    v_int = [0] * q
    for n, num, e in terms:
        v_int[n % q] += num << (top - e)
    w_int, ew = _scaled(w)
    return Fraction((q - 1) * _lattice_sum(q, v_int, w_int), 1 << (2 * top + ew))


def exact_float_sum(xs) -> float:
    """The sum of the floats xs as a Fraction, rounded once to the nearest
    float (ties to even) by float(); OverflowError past the float range.

    The Fraction is built as one integer over a power of two (`_scaled`),
    which is the exact sum and far quicker than adding Fractions one by one.
    """
    if len(xs) == 0:
        return 0.0
    ints, e = _scaled(xs)
    return float(Fraction(sum(ints), 1 << e))
