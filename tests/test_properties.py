"""Property-based checks of the coherent-state closed forms and the exact evolution over random models and labels."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohchaos.algebra import HEISENBERG, group_relation_coeffs, overlap, overlap_exponent, spin
from cohchaos.dynamics import IntegratorConfig, ProductState, _rhs, integrate
from cohchaos.model import BilinearHamiltonian, MaserParams, maser_hamiltonian
from cohchaos.oracle import (
    ExactEvolver,
    HilbertConfig,
    build_hamiltonian_matrix,
    exact_overlap_pair,
    product_coherent_vector,
)
from reference import maser_matrix_reference, rhs as numpy_rhs, rhs_term_magnitudes

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
    """Relative error allowed in |overlap|^2, and absolute error in its phase.

    The spin base |<z1|z2>|^(1/j) is rounded by a few ulp absolutely, and
    the power 2j turns that into a relative error of about 2j ulp / base:
    large only next to antipodal labels. The phase 2j arg(1 + conj(z1) z2)
    errs by about 2j ulp / sqrt(base), which this also bounds. The bound
    allows 64 ulp.
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


def overlap_50_digits(group, z1: complex, z2: complex) -> mpmath.mpc:
    """<z1|z2> from the closed forms of docs/conventions.md at 50 digits, from the exact doubles."""
    with mpmath.workdps(50):
        a, b = mpmath.mpc(z1), mpmath.mpc(z2)
        if not group.is_spin:
            return mpmath.exp(-abs(a) ** 2 / 2 - abs(b) ** 2 / 2 + mpmath.conj(a) * b)
        two_j = round(2 * group.j)
        return (1 + mpmath.conj(a) * b) ** two_j / ((1 + abs(a) ** 2) * (1 + abs(b) ** 2)) ** (mpmath.mpf(two_j) / 2)


@BOUNDED
@given(GROUPS, LABELS, LABELS)
def test_overlap_matches_50_digit_closed_forms(group, z1, z2):
    exact = overlap_50_digits(group, z1, z2)
    ov = overlap(group, z1, z2)
    ov_sq = abs(ov) ** 2
    if ov_sq > 1e-200:
        bound = rounding_bound(group, ov_sq)
        with mpmath.workdps(50):
            assert float(abs(ov_sq / abs(exact) ** 2 - 1)) <= bound
            assert float(abs(mpmath.arg(ov / exact))) <= bound


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


@pytest.mark.parametrize("offset", [1e-8, 1e-6, 1e-4])
def test_spin_phase_next_to_antipodal_labels_matches_50_digits(offset):
    # 1 + conj(z1) z2 cancels to about offset; the phase 2j arg of it keeps
    # every digit only if the sum is formed before it is rounded
    group = spin(4.5)
    z1 = 0.7 + 0.4j
    z2 = -(1.0 / z1.conjugate()) * (1.0 + offset * cmath.exp(0.3j))
    ov = overlap(group, z1, z2)
    exact = overlap_50_digits(group, z1, z2)
    d = overlap_exponent(group, z1, z2)
    with mpmath.workdps(50):
        assert float(abs(mpmath.arg(ov / exact))) <= 2 * (2 * group.j * EPS)
        # the exponent errs by 4 eps relative, so the modulus by 2 eps d
        assert float(abs(abs(ov) / abs(exact) - 1)) <= 2 * EPS * d


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


def _only_gamma_plus_zero(c: complex) -> BilinearHamiltonian:
    gamma = np.zeros((3, 3), dtype=complex)
    gamma[1, 0], gamma[2, 0] = c, np.conj(c)
    zero = np.zeros(3, dtype=complex)
    return BilinearHamiltonian(group_a=HEISENBERG, group_b=spin(0.5), alpha=zero, beta=zero, gamma=gamma)


@settings(max_examples=200, deadline=None)
@given(bilinear_models(), FLOW_LABELS, FLOW_LABELS, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0))
# every nonzero component cancels: b_0 = 2 Re(c conj x) is 4.8e-4 from terms
# of size 1, and the two forms differ by 3.0e-17 in dy and the phase rates
@example(
    _only_gamma_plus_zero(-0.56553241 + 0.82472607j), 0.8244523539144292 + 0.565931370507906j, 1 + 0j, 0.0, 0.0
)
def test_scalar_rhs_equals_the_numpy_reference(h, x, y, eta_x, eta_y):
    v = np.array([x.real, x.imag, y.real, y.imag, eta_x, eta_y, 0.0, 0.0, 0.0])
    got, want = _rhs(0.0, v, h), numpy_rhs(0.0, v, h)
    assert type(got) is np.ndarray and got.dtype == float and got.shape == (9,)
    # componentwise forward error: each component is bounded by eps times
    # the size of the terms it sums, which is |want| where nothing cancels
    # (1.8 eps was the worst of 3000 draws)
    assert np.all(np.abs(got - want) <= 16 * EPS * rhs_term_magnitudes(v, h))


# n_max >= 25 keeps a field label of modulus <= 0.5 inside the truncation policy
SMALL_FIELD_LABELS = st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False)


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(*[st.floats(-2.0, 2.0)] * 4), st.integers(1, 20), st.integers(25, 30),
    st.tuples(SMALL_FIELD_LABELS, LABELS, SMALL_FIELD_LABELS, LABELS), st.floats(0.0, 20.0),
)
def test_exact_evolution_conserves_norm_and_pair_overlap(couplings, two_j, n_max, labels, t_final):
    epsilon, omega, g, g_prime = couplings
    p = MaserParams(epsilon=epsilon, omega=omega, g=g, g_prime=g_prime, j=two_j / 2)
    cfg = HilbertConfig(n_max=n_max, j=p.j)
    xa, ya, xb, yb = labels
    a0, b0 = product_coherent_vector(xa, ya, cfg), product_coherent_vector(xb, yb, cfg)
    ov0 = abs(exact_overlap_pair(a0, b0))
    evolver = ExactEvolver(build_hamiltonian_matrix(maser_hamiltonian(p), cfg))
    # unitary on the truncated basis, whatever leaks to its edge (the worst of
    # 500 draws moved the norm by 8.7e-15 and |<a|b>| by 1.1e-14)
    for a, b in evolver.evolve_grid([a0, b0], np.linspace(0.0, t_final, 6)):
        assert abs(a.norm - 1.0) <= 1e-12 and abs(b.norm - 1.0) <= 1e-12
        assert abs(abs(exact_overlap_pair(a, b)) - ov0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.tuples(*[st.floats(-2.0, 2.0)] * 4), st.integers(1, 20), st.integers(1, 20))
def test_hamiltonian_is_hermitian_and_equals_the_maser_reference(couplings, two_j, n_max):
    epsilon, omega, g, g_prime = couplings
    p = MaserParams(epsilon=epsilon, omega=omega, g=g, g_prime=g_prime, j=two_j / 2)
    cfg = HilbertConfig(n_max=n_max, j=p.j)
    h = build_hamiltonian_matrix(maser_hamiltonian(p), cfg)
    ref = maser_matrix_reference(p, cfg)
    # both differences were exactly 0 over 300 draws; allow rounding of the largest entry
    bound = 2 * EPS * abs(ref).max()
    assert abs(h - h.getH()).max() <= bound
    assert h.nnz == ref.nnz and abs(h - ref).max() <= bound


@settings(max_examples=15, deadline=None)
@given(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), st.integers(1, 20), SMALL_FIELD_LABELS, LABELS)
def test_mean_field_is_exact_at_zero_coupling(frequencies, two_j, x, y):
    # without coupling a product coherent state stays one: the exact state is
    # the mean-field labels' product vector times exp(i eta_total) (the worst
    # amplitude error of 300 draws was 6.0e-10, from the flow's tolerances)
    epsilon, omega = frequencies
    h = maser_hamiltonian(MaserParams(epsilon=epsilon, omega=omega, g=0.0, g_prime=0.0, j=two_j / 2))
    cfg = HilbertConfig(n_max=25, j=two_j / 2)
    traj = integrate(h, ProductState(x=x, y=y), 10.0, IntegratorConfig(sample_dt=1.0))
    psi0 = product_coherent_vector(x, y, cfg)
    evolved = ExactEvolver(build_hamiltonian_matrix(h, cfg)).evolve_grid([psi0], traj.times)
    for i, (psi,) in enumerate(evolved):
        s = traj.state_at(i)
        mean_field = product_coherent_vector(s.x, s.y, cfg).amplitudes * cmath.exp(1j * s.eta_total)
        assert np.abs(psi.amplitudes - mean_field).max() <= 1e-8
