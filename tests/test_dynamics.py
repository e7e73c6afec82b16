"""Mean-field flow: label velocities, action phases, conservation laws."""

import math

import numpy as np
import pytest

from cohchaos import dynamics
from cohchaos.algebra import HEISENBERG, Gen, expectations, generator_matrices, spin
from cohchaos.dynamics import (
    IntegrationError,
    IntegratorConfig,
    ProductState,
    ScaledState,
    _pack,
    _rhs,
    action_rate,
    integrate,
    label_distances,
    lyapunov_series,
    mf_overlap,
    scale_to_classical,
    trajectory_energy,
)
from cohchaos.model import BilinearHamiltonian, HermiticityError, MaserParams, maser_hamiltonian, mean_field_coeffs
from reference import displaced_basis_vector, from_classical

DECOUPLED = maser_hamiltonian(MaserParams(epsilon=1.0, omega=1.0, g=0.0, g_prime=0.0, j=1.5))


def label_velocities(h, s):
    """(dx, dy) from the first four components of the flow's RHS."""
    v = _rhs(0.0, _pack(s), h)
    return complex(v[0], v[1]), complex(v[2], v[3])


def test_label_rhs_decoupled():
    s = ProductState(x=0.8 - 0.3j, y=0.25 + 0.1j)
    dx, dy = label_velocities(DECOUPLED, s)
    assert dx == pytest.approx(-1j * s.x, abs=1e-14)
    assert dy == pytest.approx(-1j * s.y, abs=1e-14)


def test_label_rhs_coupled_spin_nonlinearity():
    h = maser_hamiltonian(MaserParams(g=0.4, g_prime=0.1, j=2.0))
    s = ProductState(x=1.0 + 0.5j, y=0.3 - 0.2j)
    _, b = mean_field_coeffs(h, expectations(h.group_a, s.x), expectations(h.group_b, s.y))
    _, dy = label_velocities(h, s)
    b0, bp = b[Gen.ZERO], b[Gen.PLUS]
    manual = -1j * bp - 1j * b0 * s.y + 1j * np.conj(bp) * s.y * s.y
    assert dy == pytest.approx(manual, abs=1e-14)


def test_action_rate_stationary_fiducial():
    coeffs = np.array([1.3, 0.0, 0.0], dtype=complex)
    eta, s1 = action_rate(HEISENBERG, 0.0, 0.0, coeffs)
    assert eta == 0.0
    assert s1 == pytest.approx(-1.3, abs=1e-15)
    # spin fiducial |j,-j> has energy -j*b0, so the phase rate is +j*b0
    eta_s, s1_s = action_rate(spin(2.0), 0.0, 0.0, coeffs)
    assert eta_s == pytest.approx(2.0 * 1.3, abs=1e-14)
    assert s1_s == pytest.approx(eta_s * (2.0 - 1.0) / 2.0, abs=1e-14)


def fd_rate(group, z, dz, coeffs, fiducial, delta=1e-5, dim=40):
    """Numerically differentiated matrix element <k|D^+(i d/dt - h)D|k>."""
    trunc = None if group.is_spin else dim
    mats = generator_matrices(group, truncation=trunc)
    h = coeffs[0] * mats[0] + coeffs[1] * mats[1] + coeffs[2] * mats[2]

    def vec(tau):
        return displaced_basis_vector(group, z + tau * dz, fiducial, truncation=trunc).vector

    v0 = vec(0.0)
    vdot = (vec(delta) - vec(-delta)) / (2.0 * delta)
    return float((1j * np.vdot(v0, vdot)).real - np.vdot(v0, h @ v0).real)


@pytest.mark.parametrize(
    "group,z,dz,coeffs",
    [
        (HEISENBERG, 1.0 + 0.0j, -1.0j, (1.0, 0.0, 0.0)),
        (HEISENBERG, 0.6 - 0.4j, 0.2 + 0.3j, (0.9, 0.2 + 0.1j, 0.2 - 0.1j)),
        (spin(2.0), 0.3 - 0.2j, 0.1 + 0.05j, (0.7, 0.25 - 0.15j, 0.25 + 0.15j)),
        (spin(4.5), -0.5 + 0.1j, -0.15j, (1.1, 0.1j, -0.1j)),
    ],
)
def test_action_rate_matches_finite_difference(group, z, dz, coeffs):
    coeffs = np.array(coeffs, dtype=complex)
    eta, s1 = action_rate(group, z, dz, coeffs)
    assert abs(eta - fd_rate(group, z, dz, coeffs, 0)) < 1e-8
    assert abs(s1 - fd_rate(group, z, dz, coeffs, 1)) < 1e-8


def test_action_rate_circular_orbit_is_constant():
    # |z| = 1 orbit under the bare number operator: geometric and energy
    # terms cancel for the fiducial and leave -omega for the first level
    omega = 1.0
    coeffs = np.array([omega, 0.0, 0.0], dtype=complex)
    for t in (0.0, 0.7, 2.1):
        z = np.exp(-1j * omega * t)
        eta, s1 = action_rate(HEISENBERG, z, -1j * omega * z, coeffs)
        assert eta == pytest.approx(0.0, abs=1e-14)
        assert s1 == pytest.approx(-omega, abs=1e-14)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(abs_tol=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(sample_dt=-0.1)


def test_integrate_validation():
    with pytest.raises(ValueError):
        integrate(DECOUPLED, ProductState(x=0.1, y=0.1), 0.0)


def test_decoupled_period_return():
    s = ProductState(x=1.2 - 0.4j, y=0.5 + 0.3j)
    traj = integrate(DECOUPLED, s, 2.0 * math.pi, IntegratorConfig(sample_dt=0.1))
    assert abs(traj.x[-1] - s.x) < 1e-8
    assert abs(traj.y[-1] - s.y) < 1e-8
    assert traj.s0[0] == 0.0 and traj.s1[0] == 0.0
    assert np.all(np.diff(traj.times) > 0)


def test_decoupled_rotation_closed_form():
    s = ProductState(x=0.9 + 0.2j, y=-0.3 + 0.6j)
    traj = integrate(DECOUPLED, s, 3.0, IntegratorConfig(sample_dt=0.25))
    expect_x = s.x * np.exp(-1j * traj.times)
    expect_y = s.y * np.exp(-1j * traj.times)
    assert np.abs(traj.x - expect_x).max() < 1e-9
    assert np.abs(traj.y - expect_y).max() < 1e-9


def test_tolerance_tightening_convergence(fig1_h, fig1_states):
    coarse = integrate(fig1_h, fig1_states[0], 5.0, IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8))
    tight = integrate(fig1_h, fig1_states[0], 5.0, IntegratorConfig(rel_tol=1e-7, abs_tol=1e-9))
    diff = abs(coarse.x[-1] - tight.x[-1]) + abs(coarse.y[-1] - tight.y[-1])
    assert diff < 10.0 * 1e-6 * max(1.0, abs(coarse.x[-1]))


def test_energy_conservation_short(fig1_h, fig1_states):
    traj = integrate(fig1_h, fig1_states[0], 5.0, IntegratorConfig())
    energy = trajectory_energy(fig1_h, traj)
    assert np.max(np.abs(energy - energy[0])) < 1e-8 * max(1.0, abs(energy[0]))


def test_bloch_vector_stays_on_sphere(fig1_h, fig1_states):
    g = fig1_h.group_b
    traj = integrate(fig1_h, fig1_states[0], 5.0, IntegratorConfig(sample_dt=0.5))
    for y in traj.y:
        jz = expectations(g, y)[Gen.ZERO].real
        jp = expectations(g, y)[Gen.PLUS]
        length = math.sqrt(jp.real**2 + jp.imag**2 + jz * jz)
        assert abs(length - g.j) < 1e-10


def test_state_at_carries_physical_phase(fig1_h, fig1_states):
    traj = integrate(fig1_h, fig1_states[0], 2.0, IntegratorConfig(sample_dt=0.5))
    for i in range(len(traj.times)):
        assert traj.state_at(i).eta_total == pytest.approx(traj.s0[i], abs=1e-12)


def test_mf_overlap_reference_cases():
    g_a, g_b = HEISENBERG, spin(1.5)
    s = ProductState(x=0.4 + 0.1j, y=0.2 - 0.3j, eta_x=0.7, eta_y=-0.2)
    assert mf_overlap(s, s, g_a, g_b) == pytest.approx(1.0 + 0.0j, abs=1e-14)
    delta = 0.3 - 0.2j
    shifted = ProductState(x=s.x + delta, y=s.y, eta_x=s.eta_x, eta_y=s.eta_y)
    assert abs(mf_overlap(s, shifted, g_a, g_b)) == pytest.approx(
        math.exp(-abs(delta) ** 2 / 2.0), abs=1e-12
    )
    rephased = ProductState(x=s.x, y=s.y, eta_x=s.eta_x + 0.5, eta_y=s.eta_y)
    ov = mf_overlap(s, rephased, g_a, g_b)
    assert np.angle(ov) == pytest.approx(0.5, abs=1e-12)


def test_fig1_pairs_start_close(fig1_states, fig1_h):
    for a, b in ((fig1_states[0], fig1_states[1]), (fig1_states[2], fig1_states[3])):
        m2 = abs(mf_overlap(a, b, fig1_h.group_a, fig1_h.group_b)) ** 2
        assert 0.9 < m2 < 1.0


@pytest.mark.parametrize(
    "g_a, g_b",
    [(HEISENBERG, spin(2.5)), (spin(1.5), spin(4.5)), (spin(3.5), HEISENBERG)],
    ids=["field-spin", "spin-spin", "spin-field"],
)
def test_label_distances_match_overlap(rng, g_a, g_b):
    for _ in range(20):
        vals = rng.uniform(-1, 1, 8)
        s1 = ProductState(x=complex(vals[0], vals[1]), y=complex(vals[2], vals[3]))
        s2 = ProductState(x=complex(vals[4], vals[5]), y=complex(vals[6], vals[7]))
        d_f, d_s = label_distances(s1, s2, g_a, g_b)
        m2 = abs(mf_overlap(s1, s2, g_a, g_b)) ** 2
        assert m2 == pytest.approx(math.exp(-(d_f + d_s)), rel=1e-10)


def test_scaling_round_trip():
    s = ProductState(x=5.7263433, y=-0.24253563, eta_x=0.3, eta_y=0.1)
    scaled = scale_to_classical(s, 4.5)
    assert scaled.z_field == pytest.approx(5.7263433 / math.sqrt(18.0), abs=1e-12)
    assert abs(scaled.z_field - 1.3497) < 2e-4
    back = from_classical(scaled, 4.5, eta_x=s.eta_x, eta_y=s.eta_y)
    assert back == s
    unit = scale_to_classical(ProductState(x=1.5 + 1j, y=0.2), 0.25)
    assert unit.z_field == 1.5 + 1j


def test_scaled_flow_independent_of_magnitude():
    # with the couplings normalized by sqrt(j) the scaled-label flow does
    # not depend on j at all; doubling j twice must reproduce the same
    # scaled trajectory in real time
    scaled0 = ScaledState(z_field=0.45 + 0.15j, z_spin=0.35 - 0.2j)
    icfg = IntegratorConfig(sample_dt=0.25)
    curves = []
    for j in (4.5, 18.0):
        p = MaserParams(epsilon=1.0, omega=1.0, g=0.5 / math.sqrt(2), g_prime=0.2 / math.sqrt(2), j=j)
        s0 = from_classical(scaled0, j)
        traj = integrate(maser_hamiltonian(p), s0, 4.0, icfg)
        root = math.sqrt(4.0 * j)
        curves.append(np.stack([traj.x / root, traj.y]))
    assert np.abs(curves[0] - curves[1]).max() < 1e-8


def test_lyapunov_decoupled_is_zero():
    est = lyapunov_series(
        DECOUPLED,
        ProductState(x=1.0 + 0.3j, y=0.4 - 0.1j),
        delta0=1e-6,
        t_total=50.0,
        renorm_interval=1.0,
    ).running[-1]
    assert abs(est) < 1e-4


def test_lyapunov_argument_validation():
    with pytest.raises(ValueError):
        lyapunov_series(DECOUPLED, ProductState(x=0.1, y=0.1), delta0=0.0, t_total=10.0)
    with pytest.raises(ValueError):
        lyapunov_series(DECOUPLED, ProductState(x=0.1, y=0.1), t_total=1.0, renorm_interval=2.0)
    # rounding 2.6 windows would run to t = 3, past the requested horizon
    with pytest.raises(ValueError, match="whole number"):
        lyapunov_series(DECOUPLED, ProductState(x=0.1, y=0.1), t_total=2.6, renorm_interval=1.0)
    # 0.3 / 0.1 is 2.9999999999999996 in floating point: three windows
    series = lyapunov_series(DECOUPLED, ProductState(x=0.1, y=0.1), t_total=0.3, renorm_interval=0.1)
    assert len(series.window_ends) == 3
    assert series.window_ends[-1] == pytest.approx(0.3, abs=1e-15)


def test_label_leaving_the_valid_range_raises_integration_error():
    # a field driven at amplitude 1e5 passes |x| = 1e6 near t = 10; the
    # flow is regular, so only the check on the sampled labels can catch it
    driven = BilinearHamiltonian(
        group_a=HEISENBERG,
        group_b=spin(0.5),
        alpha=np.array([0.0, 1e5, 1e5]),
        beta=np.zeros(3),
        gamma=np.zeros((3, 3)),
    )
    with pytest.raises(IntegrationError, match=r"at t = 10\.05"):
        integrate(driven, ProductState(x=0.0, y=0.0), 20.0)


@pytest.mark.parametrize("t_fail", [-1.0, 1.0], ids=["first-call", "after-t-1"])
def test_model_guard_raised_inside_the_integrator_is_raised_after_it(fig1_h, fig1_states, monkeypatch, t_fail):
    # VODE loses an exception raised in its callback; integrate must raise
    # the guard's own error, with VODE stopped soon after the guard fired
    evals = 0
    at_failure = []
    now = 0.0
    message = "mean-field zero component acquired an imaginary part"
    vode = dynamics.ode

    def counting_ode(f):
        def counted(t, v):
            nonlocal evals
            evals += 1
            return f(t, v)

        return vode(counted)

    def timed_rhs(t, v, h):
        nonlocal now
        now = t
        return _rhs(t, v, h)

    def failing_coeffs(h, ev_a, ev_b):
        if now > t_fail:
            at_failure.append(evals)
            raise HermiticityError(message)
        return mean_field_coeffs(h, ev_a, ev_b)

    monkeypatch.setattr(dynamics, "ode", counting_ode)
    monkeypatch.setattr(dynamics, "_rhs", timed_rhs)
    monkeypatch.setattr(dynamics, "mean_field_coeffs", failing_coeffs)
    with pytest.raises(HermiticityError, match=f"^{message}$"):
        integrate(fig1_h, fig1_states[0], 5.0)
    assert len(at_failure) == 1
    assert evals - at_failure[0] <= 1000  # about 100 measured
    monkeypatch.undo()
    traj = integrate(fig1_h, fig1_states[0], 2.0)
    assert np.all(np.isfinite(traj.x)) and np.all(np.isfinite(traj.y))


def test_one_long_sample_interval(fig1_h, fig1_states):
    # one sample interval of 100 takes about 10 000 steps
    traj = integrate(fig1_h, fig1_states[0], 100.0, IntegratorConfig(sample_dt=100.0))
    assert traj.times.tolist() == [0.0, 100.0]
    energy = trajectory_energy(fig1_h, traj)
    assert abs(energy[1] - energy[0]) < 1e-8 * abs(energy[0])


def test_integrator_failure_raises_integration_error_with_the_time():
    # a spin-1/2 rotated about J_x from the south pole: y = -i tan(t) has a
    # pole at t = pi/2, which no step sequence can pass
    rotated = BilinearHamiltonian(
        group_a=HEISENBERG,
        group_b=spin(0.5),
        alpha=np.zeros(3),
        beta=np.array([0.0, 1.0, 1.0]),
        gamma=np.zeros((3, 3)),
    )
    with pytest.raises(IntegrationError, match=r"integration failed at t = 1\.5708"):
        integrate(rotated, ProductState(x=0.0, y=0.0), 3.0)


def test_lyapunov_rhs_evals_count_both_states(fig1_h, fig1_states, monkeypatch):
    calls = 0

    def counted(h, ev_a, ev_b):
        nonlocal calls
        calls += 1
        return mean_field_coeffs(h, ev_a, ev_b)

    monkeypatch.setattr(dynamics, "mean_field_coeffs", counted)
    series = lyapunov_series(fig1_h, fig1_states[0], t_total=2.0)
    assert series.rhs_evals == calls > 0


def test_energy_drift_at_default_tolerances_strong_coupling(rng):
    # criterion 06's bound, on random states of a strongly coupled model
    h = maser_hamiltonian(MaserParams(epsilon=1.0, omega=1.0, g=1.0, g_prime=1.0, j=4.5))
    for _ in range(3):
        x, y = (complex(*rng.normal(0.0, scale, 2)) for scale in (2.0, 1.0))
        energy = trajectory_energy(h, integrate(h, ProductState(x=x, y=y), 30.0))
        assert np.max(np.abs(energy - energy[0])) < 1e-8 * max(1.0, abs(energy[0]))


def test_product_state_validation():
    with pytest.raises(ValueError):
        ProductState(x=complex("nan"), y=0.0)
    with pytest.raises(ValueError):
        ProductState(x=0.0, y=0.0, eta_x=float("inf"))

