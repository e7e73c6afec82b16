"""Property-based checks of the coherent-state closed forms and the exact evolution over random models and labels."""

import cmath
import math
import re
from contextlib import nullcontext
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from cohchaos import oracle
from cohchaos.algebra import (
    HEISENBERG,
    TruncationError,
    expectations,
    group_relation_coeffs,
    overlap,
    overlap_exponent,
    spin,
)
from cohchaos.dynamics import (
    IntegrationError,
    IntegratorConfig,
    ProductState,
    _STEP,
    _flow_rhs,
    _pack,
    _solve,
    _tangent_rhs,
    integrate,
    label_distances,
    trajectory_energy,
)
from cohchaos.experiments import _TOP_FOCK_BOUND, ExperimentConfig, _exact_runs, _Run
from cohchaos.model import BilinearHamiltonian, MaserParams, classical_energy, maser_hamiltonian, mean_field_coeffs
from cohchaos.oracle import (
    ExactEvolver,
    HilbertConfig,
    OracleState,
    build_hamiltonian_matrix,
    exact_overlap_pair,
    product_coherent_vector,
)
from reference import (
    composed_rhs,
    csr_step,
    csr_stepped_chunks,
    diagonal_step,
    evolve_grid,
    evolved_chunks,
    expectation_magnitudes,
    expectations as numpy_expectations,
    interaction_energy as numpy_interaction_energy,
    kron_hamiltonian_matrix,
    maser_matrix_reference,
    mean_field_coeff_magnitudes,
    mean_field_coeffs as numpy_mean_field_coeffs,
    rhs as numpy_rhs,
    rhs_term_magnitudes,
    vector_top_fock_population,
)

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
def bilinear_models(draw, group_pairs=GROUP_PAIRS):
    """A hermitian BilinearHamiltonian with every alpha, beta and gamma entry free."""
    group_a, group_b = draw(group_pairs)
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
    got, want = _flow_rhs(h)(0.0, v.tolist()), numpy_rhs(0.0, v, h)
    assert len(got) == 9 and all(type(c) is float for c in got)
    # componentwise forward error: each component is bounded by eps times
    # the size of the terms it sums, which is |want| where nothing cancels
    # (2.5 eps was the worst of 3000 draws)
    assert np.all(np.abs(np.array(got) - want) <= 16 * EPS * rhs_term_magnitudes(v, h))


# a tangent component per label part, as _tangent_rhs's complex step carries it
TANGENTS = st.one_of(st.none(), st.tuples(*[st.floats(-1.0, 1.0)] * 4))


@settings(max_examples=200, deadline=None)
@given(bilinear_models(st.tuples(GROUPS, GROUPS)), FLOW_LABELS, FLOW_LABELS, TANGENTS)
def test_fused_flow_rhs_equals_the_composition_bit_for_bit(h, x, y, u):
    # _flow_rhs's general body composes algebra.expectations,
    # model.mean_field_coeffs and _degree_rates, which must keep the bits of
    # the reference's composition, on real label parts and on complex-step
    # ones alike (a maser model's fused body is held to the same bits)
    parts = [x.real, x.imag, y.real, y.imag]
    if u is not None:
        parts = [complex(p, _STEP * c) for p, c in zip(parts, u, strict=True)]
    assert _flow_rhs(h)(0.0, parts) == composed_rhs(h, parts)


# each coupling exactly 0 (of either sign) or of size [0.1, 2] and either sign
MASER_PARAMS = st.builds(
    MaserParams, epsilon=REALS, omega=REALS, g=REALS, g_prime=REALS, j=st.integers(1, 20).map(lambda two_j: two_j / 2)
)


@settings(max_examples=200, deadline=None)
@given(MASER_PARAMS, FLOW_LABELS, FLOW_LABELS, TANGENTS)
def test_maser_flow_rhs_equals_the_composition_bit_for_bit(p, x, y, u):
    # the maser's body drops the terms whose coefficient is 0 and keeps the
    # others in place, so every rate keeps the general composition's bits
    h = maser_hamiltonian(p)
    parts = [x.real, x.imag, y.real, y.imag]
    if u is not None:
        parts = [complex(part, _STEP * c) for part, c in zip(parts, u, strict=True)]
    rhs = _flow_rhs(h)
    assert rhs.__name__ == "maser_rhs"
    assert rhs(0.0, parts) == composed_rhs(h, parts)


@settings(max_examples=200, deadline=None)
@given(bilinear_models(st.tuples(GROUPS, GROUPS)), FLOW_LABELS, FLOW_LABELS)
def test_reduced_mean_field_coeffs_equal_the_numpy_reference(h, x, y):
    # the independent half (a_0, a_+), (b_0, b_+) against all three numpy
    # components, on every pairing of oscillator and spin
    ev_a, ev_b = expectations(h.group_a, x.real, x.imag), expectations(h.group_b, y.real, y.imag)
    got_a, got_b, _ = mean_field_coeffs(h, ev_a, ev_b)
    want_a, want_b = numpy_mean_field_coeffs(h, numpy_expectations(h.group_a, x), numpy_expectations(h.group_b, y))
    assert [type(c) for c in (*ev_a, *ev_b, *got_a, *got_b)] == [float] * 12
    for got, want, size in zip((got_a, got_b), (want_a, want_b), mean_field_coeff_magnitudes(h, x, y), strict=True):
        bound = 16 * EPS * size
        assert abs(got[0] - want[0]) <= bound[0] and abs(complex(got[1], got[2]) - want[1]) <= bound[1]
        # the MINUS component the reduced form drops is the conjugate of PLUS
        assert abs(want[2] - np.conj(want[1])) <= bound[1]


@settings(max_examples=200, deadline=None)
@given(bilinear_models(st.tuples(GROUPS, GROUPS)), FLOW_LABELS, FLOW_LABELS)
def test_coupling_energy_equals_the_numpy_reference(h, x, y):
    ev_a, ev_b = numpy_expectations(h.group_a, x), numpy_expectations(h.group_b, y)
    got = mean_field_coeffs(h, expectations(h.group_a, x.real, x.imag), expectations(h.group_b, y.real, y.imag))[2]
    # forward error of a sum of nine products: eps times the size of its
    # terms, each expectation's own terms included (a spin's <J_z> cancels at
    # |z| = 1, where the library's |z|^2 and the reference's round apart);
    # 2.1 eps was the worst of 3000 draws
    size_a, size_b = expectation_magnitudes(h.group_a, abs(x)), expectation_magnitudes(h.group_b, abs(y))
    terms = size_a @ np.abs(h.gamma) @ size_b
    coupling = numpy_interaction_energy(h, ev_a, ev_b)
    assert abs(got - coupling) <= 16 * EPS * terms
    # the whole classical energy, with the alpha and beta terms (1.6 eps was
    # the worst of 3000 draws)
    want = (h.alpha @ ev_a + h.beta @ ev_b).real + coupling
    sizes = np.abs(h.alpha) @ size_a + np.abs(h.beta) @ size_b + terms
    assert abs(classical_energy(h, x, y) - want) <= 16 * EPS * sizes


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
    for a, b in evolve_grid(evolver, [a0, b0], np.linspace(0.0, t_final, 6)):
        assert abs(np.linalg.norm(a.amplitudes) - 1.0) <= 1e-12 and abs(np.linalg.norm(b.amplitudes) - 1.0) <= 1e-12
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


# the oracle builds only an oscillator (x) spin model
@settings(max_examples=100, deadline=None)
@given(bilinear_models(st.tuples(st.just(HEISENBERG), SPINS)), st.integers(1, 12))
def test_band_assembly_equals_the_kronecker_sum_bit_for_bit(h, n_max):
    cfg = HilbertConfig(n_max=n_max, j=h.group_b.j)
    got, want = build_hamiltonian_matrix(h, cfg), kron_hamiltonian_matrix(h, cfg)
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


@settings(max_examples=60, deadline=None)
@given(bilinear_models(st.tuples(st.just(HEISENBERG), SPINS)), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_diagonal_chebyshev_steps_equal_the_csr_steps_bit_for_bit(h, n_max, seed):
    # complex drives and couplings: the step's diagonals have real and
    # imaginary parts, which a fused complex multiply would round differently
    cfg = HilbertConfig(n_max=n_max, j=h.group_b.j)
    h_matrix = build_hamiltonian_matrix(h, cfg)
    ev = ExactEvolver(h_matrix)
    gen = np.random.default_rng(seed)
    u, prev = (gen.normal(size=(cfg.dim, 1)) + 1j * gen.normal(size=(cfg.dim, 1)) for _ in range(2))
    assert np.array_equal(diagonal_step(ev, u, prev), csr_step(ev, h_matrix) @ u + prev)
    # a run of the pair over three chunks, against one stepped by the CSR product
    raw = gen.normal(size=(2, cfg.dim)) + 1j * gen.normal(size=(2, cfg.dim))
    pair = [OracleState(v / np.linalg.norm(v), cfg) for v in raw]
    times = [0.0, 0.4, 1.1, 1.5, 2.0, 3.0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_GRID_CHUNK", 2 * 2 * cfg.dim * 3 // 2)
        got, want = evolved_chunks(ev, pair, times), csr_stepped_chunks(h_matrix, pair, times)
    assert len(got) == len(want) == 3
    assert all(np.array_equal(a, b) for chunks in zip(got, want) for a, b in zip(*chunks))


# Chebyshev arguments R tau from the vanishing to orders in the thousands
CHEBYSHEV_ARGUMENTS = st.lists(st.one_of(st.floats(-5000.0, 5000.0), st.floats(-1e-8, 1e-8)), min_size=2, max_size=8)


@settings(max_examples=20, deadline=None)
@given(CHEBYSHEV_ARGUMENTS)
@example([234.1 * k for k in range(1, 21)])  # overflowed above 3000 when each column began at the largest's order
def test_chebyshev_coefficients_of_mixed_arguments_equal_each_alone(xs):
    weights, orders = oracle._chebyshev_coefficients(np.array(xs))
    for m, xm in enumerate(xs):
        alone, (order,) = oracle._chebyshev_coefficients(np.array([xm]))
        # the columns differ only in how the normalising sum groups its terms
        assert orders[m] == order
        assert np.abs(weights[:order, m] - alone[:, 0]).max() <= ULPS


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
    evolved = evolve_grid(ExactEvolver(build_hamiltonian_matrix(h, cfg)), [psi0], traj.times)
    for i, (psi,) in enumerate(evolved):
        s = traj.state_at(i)
        mean_field = product_coherent_vector(s.x, s.y, cfg).amplitudes * cmath.exp(1j * s.eta_total)
        assert np.abs(psi.amplitudes - mean_field).max() <= 1e-8


@settings(max_examples=10, deadline=None)
@given(
    st.tuples(*[st.floats(-2.0, 2.0)] * 4), st.integers(1, 20),
    st.tuples(*[st.floats(-6.0, 6.0)] * 2), st.tuples(*[st.floats(-3.0, 3.0)] * 2),
)
def test_energy_drift_scales_with_the_tolerance(couplings, two_j, x_parts, y_parts):
    # VODE Adams at abs_tol = rel_tol / 100: over ten sets of 300 draws to
    # t = 5 (hypothesis seeds 1-10) the drift relative to max(1, |E0|) was at
    # most 2.6e4 rel_tol at 1e-10 and 4.1e4 rel_tol at 1e-12, both in one
    # set; the bound allows 1e5 rel_tol at both
    epsilon, omega, g, g_prime = couplings
    h = maser_hamiltonian(MaserParams(epsilon=epsilon, omega=omega, g=g, g_prime=g_prime, j=two_j / 2))
    s = ProductState(x=complex(*x_parts), y=complex(*y_parts))
    for rel_tol in (1e-10, 1e-12):
        try:
            traj = integrate(h, s, 5.0, IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol / 100))
        except IntegrationError:
            # a spin label that reaches the chart's pole, as in the test below
            reject()
        energy = trajectory_energy(h, traj)
        assert np.abs(energy - energy[0]).max() <= 1e5 * rel_tol * max(1.0, abs(energy[0]))


def test_drift_draw_that_reaches_the_spin_pole_fails_with_its_time():
    # the drift property's draw (0, 0, 0, 1), j = 1/2, x = 0, y = i: the
    # counter-rotating drive turns the spin to its north pole, where the label
    # y runs to infinity and VODE stops at both tolerances
    h = maser_hamiltonian(MaserParams(epsilon=0.0, omega=0.0, g=0.0, g_prime=1.0, j=0.5))
    for rel_tol in (1e-10, 1e-12):
        cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=rel_tol / 100)
        with pytest.raises(IntegrationError, match=r"integration failed at t = 1\.311"):
            integrate(h, ProductState(x=0j, y=1j), 5.0, cfg)


def tangent_identity_gap(
    h: BilinearHamiltonian, s: ProductState, u0: np.ndarray, t_final: float = 5.0
) -> tuple[np.ndarray, np.ndarray]:
    """Per sample, |(d_field + d_spin) / delta0^2 / |tangent|_G^2 - 1| and the separation delta0 e^rho.

    The partner starts delta0 = 1e-6 along u0, a unit vector in the scaled
    coordinates (x / sqrt(4j), y); the tangent carried from u0 by
    _tangent_rhs is e^rho (sqrt(4j) u_x, u_y) in the labels, and G is the
    overlap metric, 1 for the field and 2j / (1 + |y|^2)^2 for the spin.
    """
    delta0, two_j = 1e-6, 2.0 * h.group_b.j
    root = math.sqrt(2.0 * two_j)
    partner = ProductState(x=s.x + delta0 * root * complex(u0[0], u0[1]), y=s.y + delta0 * complex(u0[2], u0[3]))
    t1, t2 = integrate(h, s, t_final), integrate(h, partner, t_final)
    v, _ = _solve(_tangent_rhs(h), np.concatenate([_pack(s), u0, [0.0]]), t1.times, IntegratorConfig())
    d_field, d_spin = label_distances(t1, t2, h.group_a, h.group_b)
    metric = two_j / (1.0 + np.abs(t1.y) ** 2) ** 2
    tangent = np.exp(2.0 * v[13]) * (root**2 * (v[9] ** 2 + v[10] ** 2) + metric * (v[11] ** 2 + v[12] ** 2))
    return np.abs((d_field + d_spin) / delta0**2 / tangent - 1.0), delta0 * np.exp(v[13])


DIRECTIONS = st.tuples(*[st.floats(-1.0, 1.0)] * 4).map(np.array).filter(lambda u: np.linalg.norm(u) >= 0.1)


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(*[st.floats(-2.0, 2.0)] * 4), st.integers(1, 20),
    st.tuples(*[st.floats(-6.0, 6.0)] * 2), st.tuples(*[st.floats(-3.0, 3.0)] * 2), DIRECTIONS,
)
def test_overlap_distance_of_neighbouring_trajectories_is_the_tangent_norm(couplings, two_j, x_parts, y_parts, u0):
    # the paper's identity: the pair verbs' overlap distance of two
    # trajectories delta0 apart, over delta0^2, is the squared norm of the
    # lyapunov verb's tangent in the overlap metric, to first order in their
    # separation delta0 e^rho. Over 3600 draws to t = 5 (hypothesis seeds
    # 1-12, 300 each) the worst gap was 2.3e-3 where the separation stayed
    # within 1e-3 (the median draw's worst 7e-6), and 0.62 times the
    # separation beyond that, where it reached 26
    epsilon, omega, g, g_prime = couplings
    h = maser_hamiltonian(MaserParams(epsilon=epsilon, omega=omega, g=g, g_prime=g_prime, j=two_j / 2))
    try:
        gap, separation = tangent_identity_gap(
            h, ProductState(x=complex(*x_parts), y=complex(*y_parts)), u0 / np.linalg.norm(u0)
        )
    except IntegrationError:
        reject()  # a spin label that reaches the chart's pole
    assert np.all(gap <= 1e-2 + 2.0 * separation)


# |x| <= 0.2 keeps the initial Poisson tail beyond n_max >= 4 under 1e-9
TINY_FIELD_LABELS = st.complex_numbers(max_magnitude=0.2, allow_nan=False, allow_infinity=False)


@settings(max_examples=30, deadline=None)
@given(
    st.tuples(*[st.floats(-2.0, 2.0)] * 4), st.integers(1, 20), st.integers(4, 20),
    st.tuples(TINY_FIELD_LABELS, LABELS, TINY_FIELD_LABELS, LABELS), st.floats(0.5, 20.0), st.integers(1, 1000),
)
# random draws pass the bound in their first chunk of times; this one passes
# it at t = 9.59, in the fifth chunk of 122 times, after four are yielded
@example((1.3, -0.4, -0.08, -0.22), 20, 16, (-0.05 + 0.04j, -1.5 + 0.3j, 0.14j, 1.7 - 1.9j), 16.5, 900)
def test_exact_runs_stop_at_the_first_time_past_the_top_fock_bound(couplings, two_j, n_max, labels, t_final, steps):
    epsilon, omega, g, g_prime = couplings
    p = MaserParams(epsilon=epsilon, omega=omega, g=g, g_prime=g_prime, j=two_j / 2)
    h, hcfg = maser_hamiltonian(p), HilbertConfig(n_max=n_max, j=p.j)
    states = [ProductState(x=labels[0], y=labels[1]), ProductState(x=labels[2], y=labels[3])]
    times = np.linspace(0.0, t_final, steps + 1)
    # the unguarded evolution of the same vectors, each one's top level summed by the reference
    psi0 = [product_coherent_vector(s.x, s.y, hcfg) for s in states]
    evolver = ExactEvolver(build_hamiltonian_matrix(h, hcfg))
    ref = np.array([[vector_top_fock_population(v.amplitudes, hcfg) for v in row] for row in evolve_grid(evolver, psi0, times)])
    # two roundings of one population may fall on either side of the bound
    assume(not np.any(np.abs(ref - _TOP_FOCK_BOUND) <= 1e-9 * _TOP_FOCK_BOUND))
    run = _Run(ExperimentConfig(model=p, states=tuple(states)), h, states, Path(), {}, states, hcfg)
    yielded = []
    with pytest.raises(TruncationError) if (ref > _TOP_FOCK_BOUND).any() else nullcontext() as raised:
        for chunk, evolved in _exact_runs(run, times):
            yielded.extend(chunk.tolist())
            for state in evolved:
                for amps in state.amplitudes:
                    assert vector_top_fock_population(amps, hcfg) <= _TOP_FOCK_BOUND
    assert yielded == times[:len(yielded)].tolist()
    if raised is None:
        assert len(yielded) == len(times)
        assert run.manifest["hilbert"]["top_fock_population"] == pytest.approx(ref.max(), rel=1e-2)
        return
    m, i = np.argwhere(ref > _TOP_FOCK_BOUND)[0]
    assert m >= len(yielded)
    found = re.search(r"of state (\d+) at t = (\S+) exceeds .* at n_max = (\d+)", str(raised.value))
    assert found.groups() == (str(i), f"{times[m]:.12g}", str(n_max))
