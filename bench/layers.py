"""Per-layer metrics computed from the spans of one traced pass.

A layer is a module of `lextremes`.  Every `*_s` metric is self time in
seconds, summed over the pass: a span's duration minus the durations of
its traced children, so the module self times add up to
`trace.compute_s`.  Counts are calls summed over the pass.  Byte, cell and
pair counts are computed from call arguments, not measured.  A function
that no longer exists reads 0 and is listed by `absent_names`.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from moduli import largest_factors
from spans import self_times

MODULES = ("cli", "extremes", "resonance", "resonator", "lfunc", "chargroup", "numth")

SELF_TIME = {
    "chargroup.build_s": "chargroup.build_group",
    "chargroup.dft_s": "chargroup.dft_over_group",
    "chargroup.orthogonality_s": "chargroup.orthogonality_sum",
    "lfunc.batch_s": "lfunc.l_value_batch",
    "lfunc.census_s": "lfunc.approx_error_census",
    "lfunc.single_s": "lfunc.l_value",
    "numth.sieve_s": "numth.sieve_primes",
    "numth.smooth_s": "numth.smooth_numbers",
    "resonator.enumerate_s": "resonator.enumerate_coeffs",
    "resonance.s1_congruence_s": "resonance.weighted_sum_congruence",
    "resonance.s2_congruence_s": "resonance.square_sum_congruence",
    "resonance.exclude_principal_s": "resonance.exclude_principal",
    "resonance.certificate_self_s": "resonance.ratio_certificate",
    "resonance.half_weight_s": "resonance.half_weight_certificate",
    "resonance.s1_character_s": "resonance.weighted_sum_characters",
    "resonance.s2_character_s": "resonance.square_sum_characters",
}

CALLS = {
    "chargroup.build_calls": "chargroup.build_group",
    "chargroup.dft_calls": "chargroup.dft_over_group",
    "lfunc.batch_calls": "lfunc.l_value_batch",
    "numth.smooth_calls": "numth.smooth_numbers",
    "resonator.enumerate_calls": "resonator.enumerate_coeffs",
}

PER_LAYER = {
    **{f"{module}.self_s": "s" for module in MODULES},
    "trace.compute_s": "s",
    "trace.overhead_s": "s",
    "lextremes.import_s": "s",
    "resonator.import_s": "s",
    **{metric: "s" for metric in SELF_TIME},
    **{metric: "count" for metric in CALLS},
    "chargroup.builds_per_q": "ratio",
    "chargroup.dft_bytes": "bytes",
    "chargroup.dft_per_call_s.q1": "s",
    "chargroup.dft_per_call_s.q2": "s",
    "lfunc.batches_per_q_sigma": "ratio",
    "lfunc.batch_peak_mb": "MB",
    "lfunc.hurwitz_cells": "count",
    "resonance.s1_pairs": "count",
}


def _hurwitz_terms(sigma: float) -> int:
    """Explicit Euler-Maclaurin terms of the Hurwitz head: max(30, ceil(10/(sigma-1/2)))."""
    return max(30, math.ceil(10 / (sigma - 0.5)))


def _smooth_count(limit: int, bound: float, strict: bool = False) -> int:
    """#{n <= limit : every prime factor of n is <= bound (< bound if strict)}."""
    lpf = largest_factors(limit)
    return int(np.count_nonzero(lpf < bound if strict else lpf <= bound))


def layer_metrics(invocations: list[dict], malloc_spans: list[dict], untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass.

    `invocations` holds, per CLI process of the pass in order, its
    `q_list`, `spans`, `imports` (module -> cumulative import seconds) and
    `wall_s`; `malloc_spans` are the spans of the tracemalloc pass.
    """
    by_name = defaultdict(list)
    module_self = defaultdict(float)
    for inv in invocations:
        for span, own in zip(inv["spans"], self_times(inv["spans"])):
            by_name[span["name"]].append((span["args"], own))
            module_self[span["name"].split(".")[0]] += own

    m: dict[str, float] = {f"{module}.self_s": module_self[module] for module in MODULES}
    m["trace.compute_s"] = sum(
        s["end"] - s["start"] for inv in invocations for s in inv["spans"] if s["parent"] is None
    )
    m["trace.overhead_s"] = sum(inv["wall_s"] for inv in invocations) - untraced_wall_s
    for metric, module in (("lextremes.import_s", "lextremes"), ("resonator.import_s", "lextremes.resonator")):
        m[metric] = sum(inv["imports"].get(module, 0.0) for inv in invocations)
    for metric, name in SELF_TIME.items():
        m[metric] = sum(own for _, own in by_name[name])
    for metric, name in CALLS.items():
        m[metric] = len(by_name[name])

    # denominators count per process: every invocation starts with no state
    q_total = sum(len(set(inv["q_list"])) for inv in invocations)
    m["chargroup.builds_per_q"] = m["chargroup.build_calls"] / q_total
    q_sigma_total = sum(
        len({(s["args"].get("group"), s["args"].get("sigma")) for s in inv["spans"] if s["name"] == "lfunc.l_value_batch"})
        for inv in invocations
    )
    m["lfunc.batches_per_q_sigma"] = m["lfunc.batch_calls"] / q_sigma_total if q_sigma_total else 0.0

    dfts = by_name["chargroup.dft_over_group"]
    m["chargroup.dft_bytes"] = sum(32 * (args["group"] - 1) for args, _ in dfts)
    q_order = invocations[0]["q_list"]
    for slot in (1, 2):
        times = [own for args, own in dfts if len(q_order) >= slot and args["group"] == q_order[slot - 1]]
        m[f"chargroup.dft_per_call_s.q{slot}"] = sum(times) / len(times) if times else 0.0

    peaks = [s["peak_bytes"] for s in malloc_spans if s["name"] == "lfunc.l_value_batch"]
    m["lfunc.batch_peak_mb"] = max(peaks, default=0) / 2**20
    m["lfunc.hurwitz_cells"] = max(
        (
            _hurwitz_terms(args["sigma"]) * (args["group"] - 1)
            for args, _ in by_name["lfunc.l_value_batch"]
            if args["sigma"] < 1.0
        ),
        default=0,
    )
    m["resonance.s1_pairs"] = sum(
        _smooth_count(args["n_limit"], args["scheme"], strict=True) * _smooth_count(args["k_limit"], int(args["y"]))
        for args, _ in by_name["resonance.weighted_sum_congruence"]
    )
    return m


def absent_names(wrapped) -> list[str]:
    """Function names the layer table reads that the program no longer defines."""
    return sorted((set(SELF_TIME.values()) | set(CALLS.values())) - set(wrapped))
