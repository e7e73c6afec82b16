"""Hamiltonian coefficient bundles and their coherent expectation values."""

import numpy as np
import pytest

from cohchaos.algebra import HEISENBERG, Gen, expectations, spin
from cohchaos.model import (
    BilinearHamiltonian,
    HermiticityError,
    MaserParams,
    classical_energy,
    maser_hamiltonian,
    mean_field_coeffs,
)
from reference import expectations as numpy_expectations


def decoupled(j=1.0, epsilon=1.0, omega=1.0):
    return maser_hamiltonian(MaserParams(epsilon=epsilon, omega=omega, g=0.0, g_prime=0.0, j=j))


def test_maser_params_validation():
    with pytest.raises(ValueError):
        MaserParams(j=0.3)
    with pytest.raises(ValueError):
        MaserParams(epsilon=float("nan"))
    p = MaserParams()
    assert (p.epsilon, p.omega, p.g, p.g_prime, p.j) == (1.0, 1.0, 0.5, 0.2, 4.5)


def test_maser_gamma_layout():
    p = MaserParams(g=0.3, g_prime=0.1, j=2.0)
    h = maser_hamiltonian(p)
    root = np.sqrt(2.0)
    assert h.gamma[Gen.PLUS, Gen.MINUS] == pytest.approx(0.3 / root)
    assert h.gamma[Gen.MINUS, Gen.PLUS] == pytest.approx(0.3 / root)
    assert h.gamma[Gen.PLUS, Gen.PLUS] == pytest.approx(0.1 / root)
    assert h.gamma[Gen.MINUS, Gen.MINUS] == pytest.approx(0.1 / root)
    assert h.gamma[Gen.ZERO, Gen.ZERO] == 0.0
    assert h.alpha[Gen.ZERO] == p.omega and h.beta[Gen.ZERO] == p.epsilon
    assert h.group_a == HEISENBERG and h.group_b == spin(2.0)


def test_hermiticity_rejection():
    ok = dict(
        group_a=HEISENBERG,
        group_b=spin(1.0),
        alpha=np.array([1.0, 0.2 + 0.1j, 0.2 - 0.1j]),
        beta=np.array([0.5, 0.0, 0.0]),
        gamma=np.zeros((3, 3), dtype=complex),
    )
    BilinearHamiltonian(**ok)

    bad = dict(ok, alpha=np.array([1.0 + 0.5j, 0.0, 0.0]))
    with pytest.raises(HermiticityError):
        BilinearHamiltonian(**bad)

    bad = dict(ok, alpha=np.array([1.0, 0.2 + 0.1j, 0.3]))
    with pytest.raises(HermiticityError):
        BilinearHamiltonian(**bad)

    gamma = np.zeros((3, 3), dtype=complex)
    gamma[Gen.PLUS, Gen.MINUS] = 0.4
    with pytest.raises(HermiticityError):
        BilinearHamiltonian(**dict(ok, gamma=gamma))
    gamma[Gen.MINUS, Gen.PLUS] = 0.4
    BilinearHamiltonian(**dict(ok, gamma=gamma))


def test_shape_and_finite_validation():
    with pytest.raises(ValueError):
        BilinearHamiltonian(
            group_a=HEISENBERG,
            group_b=spin(1.0),
            alpha=np.zeros(2),
            beta=np.zeros(3),
            gamma=np.zeros((3, 3)),
        )
    with pytest.raises(ValueError):
        BilinearHamiltonian(
            group_a=HEISENBERG,
            group_b=spin(1.0),
            alpha=np.zeros(3),
            beta=np.zeros(3),
            gamma=np.full((3, 3), np.nan),
        )


def test_coefficients_are_frozen():
    h = decoupled()
    with pytest.raises(ValueError):
        h.alpha[0] = 2.0


def test_construction_copies_the_callers_complex_arrays():
    alpha = np.array([1.0, 0.2 + 0.1j, 0.2 - 0.1j])
    beta = np.array([0.5, 0.0, 0.0], dtype=complex)
    gamma = np.zeros((3, 3), dtype=complex)
    h = BilinearHamiltonian(group_a=HEISENBERG, group_b=spin(1.0), alpha=alpha, beta=beta, gamma=gamma)
    for arr in (alpha, beta, gamma):
        assert arr.flags.writeable
    for stored in (h.alpha, h.beta, h.gamma):
        assert not stored.flags.writeable
    # a later write in the caller reaches neither the arrays nor the scalars the flow reads
    alpha[0] = 7.0
    gamma[1, 1] = 3.0
    assert h.alpha[0] == 1.0 and h.gamma[1, 1] == 0.0
    assert h.scalars[0] == 1.0 and h.scalars[11] == 0.0


def test_scalars_hold_the_independent_entries_as_real_floats():
    alpha = np.array([1.5, 0.2 + 0.1j, 0.2 - 0.1j])
    beta = np.array([-0.5, 0.3 - 0.7j, 0.3 + 0.7j])
    gamma = np.zeros((3, 3), dtype=complex)
    gamma[0, 0] = 0.25
    for (i, k), c in zip(((0, 1), (1, 0), (1, 1), (1, 2)), (1 + 2j, 3 + 4j, 5 + 6j, 7 + 8j)):
        gamma[i, k], gamma[(0, 2, 1)[i], (0, 2, 1)[k]] = c, np.conj(c)
    h = BilinearHamiltonian(group_a=HEISENBERG, group_b=spin(1.0), alpha=alpha, beta=beta, gamma=gamma)
    # each zero entry once, each PLUS entry as (real, imaginary)
    assert h.scalars == (1.5, 0.2, 0.1, -0.5, 0.3, -0.7, 0.25, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
    assert all(type(c) is float for c in h.scalars)


def test_a_model_within_the_tolerance_is_stored_as_its_scalars_describe():
    dag = (0, 2, 1)
    alpha = np.array([1.5, 0.2 + 0.1j, 0.2 - 0.1j])
    beta = np.array([-0.5, 0.3 - 0.7j, 0.3 + 0.7j])
    gamma = np.zeros((3, 3), dtype=complex)
    gamma[0, 0] = 0.25
    for (i, k), c in zip(((0, 1), (1, 0), (1, 1), (1, 2)), (1 + 2j, 3 + 4j, 5 + 6j, 7 + 8j)):
        gamma[i, k], gamma[dag[i], dag[k]] = c, np.conj(c)
    exact = BilinearHamiltonian(group_a=HEISENBERG, group_b=spin(1.0), alpha=alpha, beta=beta, gamma=gamma)
    # an exactly hermitian model keeps its bits
    for stored, given in zip((exact.alpha, exact.beta, exact.gamma), (alpha, beta, gamma)):
        assert stored.tobytes() == given.tobytes()
    # each zero entry and each dependent one off by 7e-12, inside the tolerance
    # of 1.1e-11: the arrays are stored as the model that scalars describe
    off = 5e-12 + 5e-12j
    alpha[0] += 5e-12j
    beta[0] += 5e-12j
    alpha[2] += off
    beta[2] -= off
    gamma[0, 0] -= 5e-12j
    for i, k in ((0, 2), (2, 0), (2, 2), (2, 1)):
        gamma[i, k] += off
    near = BilinearHamiltonian(group_a=HEISENBERG, group_b=spin(1.0), alpha=alpha, beta=beta, gamma=gamma)
    assert near.scalars == exact.scalars
    for stored, want in zip((near.alpha, near.beta, near.gamma), (exact.alpha, exact.beta, exact.gamma)):
        assert stored.tobytes() == want.tobytes()


def test_mean_field_coeffs_decoupled():
    h = decoupled(epsilon=0.7, omega=1.3)
    a, b, coupling = mean_field_coeffs(h, expectations(h.group_a, 0.4, 0.2), expectations(h.group_b, 0.0, -0.1))
    assert a == (1.3, 0.0, 0.0) and b == (0.7, 0.0, 0.0)
    assert coupling == 0.0


def test_mean_field_coeffs_manual():
    p = MaserParams(epsilon=1.0, omega=1.0, g=0.4, g_prime=0.15, j=2.0)
    h = maser_hamiltonian(p)
    x, y = 0.8 - 0.3j, 0.2 + 0.5j
    eva = expectations(h.group_a, x.real, x.imag)
    evb = expectations(h.group_b, y.real, y.imag)
    a, b, coupling = mean_field_coeffs(h, eva, evb)
    # the three-component contraction, with the numpy expectations of the reference
    eva_full, evb_full = numpy_expectations(h.group_a, x), numpy_expectations(h.group_b, y)
    a_full = h.alpha + h.gamma @ evb_full
    b_full = h.beta + h.gamma.T @ eva_full
    assert np.allclose((a[0], complex(a[1], a[2])), a_full[:2], atol=1e-14)
    assert np.allclose((b[0], complex(b[1], b[2])), b_full[:2], atol=1e-14)
    assert coupling == pytest.approx((eva_full @ h.gamma @ evb_full).real, abs=1e-14)
    # every returned entry is a real float, and the hermitian structure the
    # reduced form relies on survives the full contraction
    assert [type(c) for c in (*a, *b, coupling)] == [float] * 7
    assert abs(a_full[Gen.ZERO].imag) < 1e-14 and abs(b_full[Gen.ZERO].imag) < 1e-14
    assert abs(a_full[Gen.MINUS] - np.conj(a_full[Gen.PLUS])) < 1e-14
    assert abs(b_full[Gen.MINUS] - np.conj(b_full[Gen.PLUS])) < 1e-14


def test_classical_energy_reference_points():
    p = MaserParams(epsilon=1.0, omega=1.0, g=0.5, g_prime=0.2, j=4.5)
    h = maser_hamiltonian(p)
    # both labels at the origin: only the spin ground energy -epsilon*j
    assert classical_energy(h, 0.0, 0.0) == pytest.approx(-4.5, abs=1e-14)
    # decoupled closed form
    h0 = decoupled(j=1.5, epsilon=0.8, omega=1.2)
    x, y = 1.1 + 0.4j, 0.6 - 0.2j
    expected = 1.2 * abs(x) ** 2 - 0.8 * 1.5 * (1 - abs(y) ** 2) / (1 + abs(y) ** 2)
    assert classical_energy(h0, x, y) == pytest.approx(expected, abs=1e-12)


def test_classical_energy_linearity_in_couplings():
    x, y = 0.9 - 0.2j, 0.3 + 0.4j
    j = 2.5

    def energy(g, gp):
        h = maser_hamiltonian(MaserParams(g=g, g_prime=gp, j=j))
        return classical_energy(h, x, y)

    e00, e10, e01, e11 = energy(0, 0), energy(0.4, 0), energy(0, 0.3), energy(0.4, 0.3)
    assert e11 - e00 == pytest.approx((e10 - e00) + (e01 - e00), abs=1e-12)


def test_corotating_phase_invariance():
    # with g' = 0 a joint phase rotation of both labels is a symmetry
    h = maser_hamiltonian(MaserParams(g=0.5, g_prime=0.0, j=1.5))
    x, y = 1.2 + 0.1j, 0.4 - 0.3j
    e0 = classical_energy(h, x, y)
    for theta in (0.3, 1.1, 2.9):
        rot = np.exp(1j * theta)
        assert classical_energy(h, rot * x, rot * y) == pytest.approx(e0, abs=1e-12)
    # the counter-rotating term breaks it
    hc = maser_hamiltonian(MaserParams(g=0.5, g_prime=0.2, j=1.5))
    e1 = classical_energy(hc, x, y)
    assert abs(classical_energy(hc, np.exp(0.7j) * x, np.exp(0.7j) * y) - e1) > 1e-3


def test_interaction_energy_decomposition():
    p = MaserParams(epsilon=0.9, omega=1.1, g=0.5, g_prime=0.2, j=4.5)
    h = maser_hamiltonian(p)
    x, y = 1.4 - 0.6j, 0.5 + 0.2j
    one_body = classical_energy(maser_hamiltonian(MaserParams(p.epsilon, p.omega, 0.0, 0.0, p.j)), x, y)
    eva, evb = expectations(h.group_a, x.real, x.imag), expectations(h.group_b, y.real, y.imag)
    coupling = mean_field_coeffs(h, eva, evb)[2]
    assert classical_energy(h, x, y) == pytest.approx(one_body + coupling, abs=1e-12)
    h0 = maser_hamiltonian(MaserParams(j=2.0, g=0.0, g_prime=0.0))
    assert mean_field_coeffs(h0, eva, expectations(h0.group_b, y.real, y.imag))[2] == 0.0
