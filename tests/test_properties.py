"""Property-based checks of the coherent-state closed forms over random groups and labels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohchaos.algebra import HEISENBERG, group_relation_coeffs, overlap, overlap_exponent, spin

GROUPS = st.one_of(st.just(HEISENBERG), st.integers(1, 20).map(lambda two_j: spin(two_j / 2)))
LABELS = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
BOUNDED = settings(max_examples=50, deadline=None)
ULPS = 4 * np.finfo(float).eps


def rounding_bound(group, ov_sq: float) -> float:
    """Relative difference allowed between exp(-overlap_exponent) and |overlap|^2.

    The spin base 1 - |z1-z2|^2 / ((1+|z1|^2)(1+|z2|^2)) is rounded to a few
    ulp absolutely, and the power 2j turns that into a relative error of
    about 2j ulp / base: large only next to antipodal labels.
    """
    if not group.is_spin:
        return 1e-12
    base = ov_sq ** (1.0 / (2.0 * group.j))
    return 1e-12 + 2.0 * group.j * 1e-14 / base


@BOUNDED
@given(GROUPS, LABELS, LABELS)
def test_overlap_exponent_is_minus_log_overlap_sq(group, z1, z2):
    ov_sq = abs(overlap(group, z1, z2)) ** 2
    if ov_sq > 1e-200:
        e = overlap_exponent(group, z1, z2)
        assert math.exp(-e) == pytest.approx(ov_sq, rel=rounding_bound(group, ov_sq))


@BOUNDED
@given(GROUPS, st.lists(LABELS, min_size=1, max_size=8))
def test_relation_rows_array_call_matches_scalar_calls(group, zs):
    g, k = group_relation_coeffs(group, np.array(zs))
    assert g.shape == (3, 3, len(zs)) and k.shape == (3, len(zs))
    # numpy's SIMD loops on an array and its loop for a single value may round
    # a complex product one ulp apart, so equal means equal to a few ulp
    for n, z in enumerate(zs):
        g1, k1 = group_relation_coeffs(group, z)
        np.testing.assert_allclose(g[..., n], g1, rtol=ULPS, atol=ULPS)
        np.testing.assert_allclose(k[..., n], k1, rtol=ULPS, atol=ULPS)
