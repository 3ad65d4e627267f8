"""Numerical laboratory for extreme values of Dirichlet L-functions mod a prime.

Resonator constructions over whole character groups, dual-route resonance
sums with finite-truncation certificates, and desk-scale extreme-value
scans of |L(sigma, chi)| for sigma in (1/2, 1].
"""

from .chargroup import CharacterGroup, build_group, dft_over_group, orthogonality_sum
from .extremes import (
    CensusReport,
    Constants,
    ScanReport,
    UpperCheck,
    reference_constants,
    scan_sigma1,
    scan_sigma_strip,
    sigma1_upper_check,
    threshold_census,
)
from .lfunc import (
    ApproxErrorCensus,
    LValue,
    LValueBatch,
    approx_error_census,
    digamma,
    dirichlet_poly,
    euler_product_truncated,
    hurwitz_zeta,
    l_value,
    l_value_batch,
    prime_sum,
)
from .numth import (
    factorize,
    is_prime,
    mangoldt,
    primitive_root,
    sieve_primes,
    smooth_numbers,
)
from .resonance import (
    CertificateResult,
    ResonanceReport,
    SetBudget,
    exceptional_set_budget,
    exclude_principal,
    half_weight_certificate,
    ratio_certificate,
    square_sum_characters,
    square_sum_congruence,
    weighted_sum_characters,
    weighted_sum_congruence,
)
from .resonator import (
    IntegralSplit,
    ProductBreakdown,
    ResonatorCoeffs,
    SecondMoment,
    WeightScheme,
    coeff,
    enumerate_coeffs,
    half_scheme,
    linear_scheme,
    log_principal_square,
    lower_bound_product,
    mertens_product,
    resonator_value,
    second_moment_integral,
    second_moment_product,
    weight,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
