"""Property-based checks of the coherent-state closed forms over random groups and labels."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohchaos.algebra import HEISENBERG, group_relation_coeffs, overlap, overlap_exponent, spin
from cohchaos.dynamics import _rhs
from cohchaos.model import BilinearHamiltonian
from reference import rhs as numpy_rhs

SPINS = st.integers(1, 20).map(lambda two_j: spin(two_j / 2))
GROUPS = st.one_of(st.just(HEISENBERG), SPINS)
LABELS = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)
BOUNDED = settings(max_examples=50, deadline=None)
EPS = np.finfo(float).eps
ULPS = 4 * EPS
# |z2 - z1| (or the distance from the antipode) drawn log-uniform in [1e-8, 1]
OFFSETS = st.tuples(st.floats(-8.0, 0.0), st.floats(0.0, 2.0 * math.pi)).map(
    lambda p: 10.0 ** p[0] * cmath.exp(1j * p[1])
)


def rounding_bound(group, ov_sq: float) -> float:
    """Relative difference allowed between exp(-overlap_exponent) and |overlap|^2.

    Both sides round the spin base |<z1|z2>|^(1/j) by a few ulp absolutely,
    and the power 2j turns that into a relative error of about 2j ulp / base:
    large only next to antipodal labels. The bound allows 64 ulp.
    """
    if not group.is_spin:
        return 1e-12
    base = ov_sq ** (1.0 / (2.0 * group.j))
    return 2.0 * group.j * 64 * EPS / base


def exponent_50_digits(group, z1: complex, z2: complex) -> mpmath.mpf:
    """-2j log(1 - |z1-z2|^2 / ((1+|z1|^2)(1+|z2|^2))) at 50 digits from the exact doubles."""
    with mpmath.workdps(50):
        a, b = mpmath.mpc(z1), mpmath.mpc(z2)
        q = abs(a - b) ** 2 / ((1 + abs(a) ** 2) * (1 + abs(b) ** 2))
        return -2 * mpmath.mpf(group.j) * mpmath.log(1 - q)


@BOUNDED
@given(GROUPS, LABELS, LABELS)
def test_overlap_exponent_is_minus_log_overlap_sq(group, z1, z2):
    ov_sq = abs(overlap(group, z1, z2)) ** 2
    if ov_sq > 1e-200:
        e = overlap_exponent(group, z1, z2)
        assert math.exp(-e) == pytest.approx(ov_sq, rel=rounding_bound(group, ov_sq))


@BOUNDED
@given(SPINS, LABELS, OFFSETS)
def test_spin_exponent_of_neighbouring_labels_matches_50_digits(group, z1, dz):
    z2 = z1 + dz
    if z2 == z1:
        return
    exact = exponent_50_digits(group, z1, z2)
    assert float(abs(overlap_exponent(group, z1, z2) - exact) / exact) <= 16 * EPS


@BOUNDED
@given(SPINS, LABELS.filter(lambda z: abs(z) >= 1e-3), OFFSETS)
def test_spin_exponent_next_to_antipodal_labels_matches_50_digits(group, z1, dz):
    anti = -1.0 / z1.conjugate()
    z2 = anti + abs(anti) * dz
    exact = exponent_50_digits(group, z1, z2)
    d = overlap_exponent(group, z1, z2)
    assert math.isfinite(d)
    # 1 + conj(z1) z2 cancels here, but is summed from error-free products, so
    # only the final roundings remain (1.5 eps was the worst of 20 000 pairs)
    assert float(abs(d - exact) / exact) <= 4 * EPS


@pytest.mark.parametrize("two_j", [1, 9, 20])
def test_exponent_per_squared_step_reaches_the_fubini_study_metric(two_j):
    # d_field / |dx|^2 = 1 and d_spin / |dy|^2 -> 2j / (1+|y|^2)^2, the metric
    # of the coherent-state manifold; the spin correction is O(|dy| |y|)
    group = spin(two_j / 2)
    for z in (0.0, 0.3 - 0.8j, 2.0 + 1.5j):
        metric = 2.0 * group.j / (1.0 + abs(z) ** 2) ** 2
        for step in (1e-2, 1e-4, 1e-6, 1e-8):
            w = z + step * cmath.exp(0.7j)
            dz2 = abs(w - z) ** 2  # the step the rounded w realizes
            assert overlap_exponent(HEISENBERG, z, w) / dz2 == pytest.approx(1.0, rel=4 * EPS)
            ratio = overlap_exponent(group, z, w) / dz2
            assert ratio / metric == pytest.approx(1.0, rel=4.0 * step * (1.0 + abs(z)) + 1e-13)


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


# A coefficient is exactly 0 or of size [0.1, 2]: the scalar and numpy sums
# round in a different order, and a coefficient far below the others would
# leave only that reordering in a phase rate whose terms cancel.
SIZES = st.one_of(st.just(0.0), st.floats(0.1, 2.0))
PHASES = st.floats(0.0, 2.0 * math.pi)
COEFFS = st.tuples(SIZES, PHASES).map(lambda p: p[0] * cmath.exp(1j * p[1]))
REALS = st.tuples(SIZES, st.sampled_from([-1.0, 1.0])).map(lambda p: p[0] * p[1])
FLOW_LABELS = st.one_of(
    st.just(0j),
    st.tuples(st.floats(-3.0, 3.0), PHASES).map(lambda p: 10.0 ** p[0] * cmath.exp(1j * p[1])),
)
# oscillator-spin, spin-spin and spin-oscillator; the oscillator on the right
# is a legal model of the flow even though the exact oracle never builds it
GROUP_PAIRS = st.one_of(
    st.tuples(st.just(HEISENBERG), SPINS), st.tuples(SPINS, SPINS), st.tuples(SPINS, st.just(HEISENBERG))
)


@st.composite
def bilinear_models(draw):
    """A hermitian BilinearHamiltonian with every alpha, beta and gamma entry free."""
    group_a, group_b = draw(GROUP_PAIRS)
    dag = (0, 2, 1)
    gamma = np.zeros((3, 3), dtype=complex)
    gamma[0, 0] = draw(REALS)
    for i, k in ((0, 1), (1, 0), (1, 1), (1, 2)):  # each with its conjugate partner
        gamma[i, k] = draw(COEFFS)
        gamma[dag[i], dag[k]] = np.conj(gamma[i, k])
    drive_a, drive_b = draw(COEFFS), draw(COEFFS)
    return BilinearHamiltonian(
        group_a=group_a,
        group_b=group_b,
        alpha=np.array([draw(REALS), drive_a, np.conj(drive_a)]),
        beta=np.array([draw(REALS), drive_b, np.conj(drive_b)]),
        gamma=gamma,
    )


@settings(max_examples=200, deadline=None)
@given(bilinear_models(), FLOW_LABELS, FLOW_LABELS, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
def test_scalar_rhs_equals_the_numpy_reference(h, x, y, eta_x, eta_y):
    v = np.array([x.real, x.imag, y.real, y.imag, eta_x, eta_y, 0.0, 0.0, 0.0])
    got, want = _rhs(0.0, v, h), numpy_rhs(0.0, v, h)
    assert type(got) is np.ndarray and got.dtype == float and got.shape == (9,)
    # relative to the largest component: a phase rate is a difference of
    # terms of up to that size (the oscillator's c_0 |x|^2 cancels in deta_x)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
