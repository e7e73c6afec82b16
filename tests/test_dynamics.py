"""Mean-field flow: label velocities, action phases, conservation laws."""

import math

import numpy as np
import pytest

from cohchaos import dynamics
from cohchaos.algebra import HEISENBERG, expectations, overlap_exponent, spin
from cohchaos.dynamics import (
    IntegrationError,
    IntegratorConfig,
    ProductState,
    _flow_rhs,
    _pack,
    _tangent_rhs,
    integrate,
    label_distances,
    lyapunov_series,
    mf_overlap,
    trajectory_energy,
)
from cohchaos.model import BilinearHamiltonian, MaserParams, maser_hamiltonian, mean_field_coeffs
from reference import (
    ScaledState,
    composed_rhs,
    degree_rates,
    displaced_basis_vector,
    from_classical,
    generator_matrices,
    scale_to_classical,
)
from reference import rhs as numpy_rhs

DECOUPLED = maser_hamiltonian(MaserParams(epsilon=1.0, omega=1.0, g=0.0, g_prime=0.0, j=1.5))


def label_velocities(h, s):
    """(dx, dy) from the first four components of the flow's RHS."""
    v = _flow_rhs(h)(0.0, _pack(s).tolist())
    return complex(v[0], v[1]), complex(v[2], v[3])


def test_label_rhs_decoupled():
    s = ProductState(x=0.8 - 0.3j, y=0.25 + 0.1j)
    dx, dy = label_velocities(DECOUPLED, s)
    assert dx == pytest.approx(-1j * s.x, abs=1e-14)
    assert dy == pytest.approx(-1j * s.y, abs=1e-14)


def test_label_rhs_coupled_spin_nonlinearity():
    h = maser_hamiltonian(MaserParams(g=0.4, g_prime=0.1, j=2.0))
    s = ProductState(x=1.0 + 0.5j, y=0.3 - 0.2j)
    ev_a, ev_b = expectations(h.group_a, s.x.real, s.x.imag), expectations(h.group_b, s.y.real, s.y.imag)
    _, (b0, bp_re, bp_im), _ = mean_field_coeffs(h, ev_a, ev_b)
    _, dy = label_velocities(h, s)
    bp = complex(bp_re, bp_im)
    manual = -1j * bp - 1j * b0 * s.y + 1j * np.conj(bp) * s.y * s.y
    assert dy == pytest.approx(manual, abs=1e-14)


def test_tangent_rhs_carries_the_flow_and_its_jacobian(fig1_h, fig1_states):
    # the first nine rates are _flow_rhs's, bit for bit; J u matches a central
    # difference of the numpy reference RHS (2.3e-11 apart at this label)
    s = fig1_states[0]
    u = np.array([0.3, -0.5, 0.6, 0.2]) / math.sqrt(0.74)
    rates = _tangent_rhs(fig1_h)(0.0, [*_pack(s).tolist(), *u.tolist(), 0.7])
    assert rates[:9] == _flow_rhs(fig1_h)(0.0, _pack(s).tolist())
    root = math.sqrt(18.0)  # sqrt(4j) at j = 9/2
    scale = np.array([root, root, 1.0, 1.0])
    step = np.zeros(9)
    step[:4] = 1e-5 * scale * u
    ju = (numpy_rhs(0.0, _pack(s) + step, fig1_h) - numpy_rhs(0.0, _pack(s) - step, fig1_h))[:4] / (2e-5 * scale)
    stretch = float(u @ ju)
    np.testing.assert_allclose(rates[9:13], ju - stretch * u, rtol=0.0, atol=1e-9)
    assert rates[13] == pytest.approx(stretch, abs=1e-9)


# BilinearHamiltonian.scalars by name, and the 11 of them that are 0 on every maser model
SCALAR_NAMES = (
    "a0", "apr", "api", "b0", "bpr", "bpi", "g00", "g0pr", "g0pi", "gp0r", "gp0i", "gppr", "gppi", "gpmr", "gpmi"
)
MASER_ZEROS = ("apr", "api", "bpr", "bpi", "g00", "g0pr", "g0pi", "gp0r", "gp0i", "gppi", "gpmi")


def model_from_scalars(group_a, group_b, scalars) -> BilinearHamiltonian:
    """The hermitian model whose BilinearHamiltonian.scalars are the 15 floats given."""
    a0, apr, api, b0, bpr, bpi, g00, g0pr, g0pi, gp0r, gp0i, gppr, gppi, gpmr, gpmi = scalars
    dag = (0, 2, 1)
    gamma = np.zeros((3, 3), dtype=complex)
    gamma[0, 0] = g00
    for (i, k), re, im in (((0, 1), g0pr, g0pi), ((1, 0), gp0r, gp0i), ((1, 1), gppr, gppi), ((1, 2), gpmr, gpmi)):
        gamma[i, k] = c = complex(re, im)
        gamma[dag[i], dag[k]] = np.conj(c)
    drive_a, drive_b = complex(apr, api), complex(bpr, bpi)
    h = BilinearHamiltonian(
        group_a=group_a,
        group_b=group_b,
        alpha=np.array([a0, drive_a, np.conj(drive_a)]),
        beta=np.array([b0, drive_b, np.conj(drive_b)]),
        gamma=gamma,
    )
    assert h.scalars == tuple(scalars)
    return h


def _one_entry_set(name: str) -> BilinearHamiltonian:
    scalars = list(maser_hamiltonian(MaserParams()).scalars)
    scalars[SCALAR_NAMES.index(name)] = 0.3
    return model_from_scalars(HEISENBERG, spin(4.5), scalars)


@pytest.mark.parametrize(
    "h, body",
    [
        (maser_hamiltonian(MaserParams()), "maser_rhs"),
        (maser_hamiltonian(MaserParams(epsilon=0.0, omega=-2.0, g=0.0, g_prime=0.0, j=0.5)), "maser_rhs"),
        *((_one_entry_set(name), "rhs") for name in MASER_ZEROS),
        (model_from_scalars(spin(4.5), HEISENBERG, maser_hamiltonian(MaserParams()).scalars), "rhs"),
        (model_from_scalars(spin(1.5), spin(4.5), maser_hamiltonian(MaserParams()).scalars), "rhs"),
        (model_from_scalars(HEISENBERG, HEISENBERG, maser_hamiltonian(MaserParams()).scalars), "rhs"),
    ],
    ids=["maser", "maser-uncoupled", *(f"{name}-set" for name in MASER_ZEROS), "spin-oscillator", "spin-spin",
         "oscillator-oscillator"],
)
def test_flow_rhs_trims_only_an_oscillator_spin_model_with_the_maser_zeros(h, body):
    # the trimmed body is chosen from the model alone, when the field comes
    # first and every entry the maser leaves 0 is exactly 0; either body gives
    # the composition's bits, on real and complex-step label parts
    rhs = _flow_rhs(h)
    assert rhs.__name__ == body
    for parts in ([1.0, 0.5, 0.3, -0.2], [complex(-0.7, 1e-100), complex(2.5, -3e-100), complex(0.9, 2e-100), 1.4]):
        assert rhs(0.0, parts) == composed_rhs(h, parts)


def test_a_general_model_calls_mean_field_coeffs_once_per_evaluation(monkeypatch):
    # the general body composes the one definition; the maser's fused body calls none
    calls = []

    def counted(*args):
        calls.append(args)
        return mean_field_coeffs(*args)

    monkeypatch.setattr(dynamics, "mean_field_coeffs", counted)
    maser = maser_hamiltonian(MaserParams())
    driven = model_from_scalars(HEISENBERG, spin(4.5), (maser.scalars[0], 0.3, -0.2, *maser.scalars[3:]))
    s = ProductState(x=0.8 - 0.3j, y=0.4 + 0.2j)
    traj = integrate(driven, s, 2.0)
    assert traj.rhs_evals > 0 and len(calls) == traj.rhs_evals
    calls.clear()
    assert integrate(maser, s, 2.0).rhs_evals > 0 and calls == []


def test_whole_runs_of_the_maser_body_equal_those_of_the_composition(monkeypatch, fig1_h, fig1_states):
    # fig1's model runs the fused maser body; patched, both runs compose the one definitions
    def runs():
        traj = integrate(fig1_h, fig1_states[0], 5.0)
        series = lyapunov_series(fig1_h, fig1_states[0], t_total=10.0)
        return (traj.rhs_evals, series.rhs_evals, *(a.tobytes() for a in (*vars(traj).values(), *series) if hasattr(a, "tobytes")))

    assert _flow_rhs(fig1_h).__name__ == "maser_rhs"
    fused = runs()
    monkeypatch.setattr(dynamics, "_flow_rhs", lambda h: lambda t, v: composed_rhs(h, v))
    assert runs() == fused
    assert len(fused) == 2 + 7 + 2


def test_action_rate_stationary_fiducial():
    coeffs = (1.3, 0.0, 0.0)
    dzr, dzi, eta, s1 = degree_rates(HEISENBERG, 0.0, 0.0, coeffs)
    assert dzr == dzi == 0.0 and eta == 0.0
    assert s1 == pytest.approx(-1.3, abs=1e-15)
    # spin fiducial |j,-j> has energy -j*b0, so the phase rate is +j*b0
    dzr_s, dzi_s, eta_s, s1_s = degree_rates(spin(2.0), 0.0, 0.0, coeffs)
    assert dzr_s == dzi_s == 0.0
    assert eta_s == pytest.approx(2.0 * 1.3, abs=1e-14)
    assert s1_s == pytest.approx(eta_s * (2.0 - 1.0) / 2.0, abs=1e-14)


def fd_rate(group, z, dz, coeffs, fiducial, delta=1e-5, dim=40):
    """Numerically differentiated matrix element <k|D^+(i d/dt - h)D|k>."""
    trunc = None if group.is_spin else dim
    mats = generator_matrices(group, truncation=trunc)
    c0, cp_re, cp_im = coeffs
    cp = complex(cp_re, cp_im)
    h = c0 * mats[0] + cp * mats[1] + cp.conjugate() * mats[2]

    def vec(tau):
        return displaced_basis_vector(group, z + tau * dz, fiducial, truncation=trunc).vector

    v0 = vec(0.0)
    vdot = (vec(delta) - vec(-delta)) / (2.0 * delta)
    return float((1j * np.vdot(v0, vdot)).real - np.vdot(v0, h @ v0).real)


def drive_for_velocity(group, z, dz, c0):
    """One-body coefficients (c_0, Re c_+, Im c_+) under which the flow moves z with velocity dz."""
    if not group.is_spin:
        cp = 1j * dz - c0 * z  # dz = -i (c_0 z + c_+)
    else:
        # dz = -i c_+ - i c_0 z + i conj(c_+) z^2, solved together with its conjugate (|z| != 1)
        r = dz + 1j * c0 * z
        cp = (r - z * z * r.conjugate()) / (1j * (abs(z) ** 4 - 1.0))
    return c0, cp.real, cp.imag


@pytest.mark.parametrize(
    "group,z,dz,coeffs",
    [
        (HEISENBERG, 1.0 + 0.0j, -1.0j, (1.0,)),
        (HEISENBERG, 0.6 - 0.4j, 0.2 + 0.3j, (0.9,)),
        (spin(2.0), 0.3 - 0.2j, 0.1 + 0.05j, (0.7,)),
        (spin(4.5), -0.5 + 0.1j, -0.15j, (1.1,)),
    ],
)
def test_action_rate_matches_finite_difference(group, z, dz, coeffs):
    # coeffs holds c_0; the drive c_+ is solved for so that the flow's velocity at z is dz
    coeffs = drive_for_velocity(group, z, dz, *coeffs)
    dzr, dzi, eta, s1 = degree_rates(group, z.real, z.imag, coeffs)
    assert abs(complex(dzr, dzi) - dz) < 1e-15
    assert abs(eta - fd_rate(group, z, dz, coeffs, 0)) < 1e-8
    assert abs(s1 - fd_rate(group, z, dz, coeffs, 1)) < 1e-8


def test_action_rate_circular_orbit_is_constant():
    # |z| = 1 orbit under the bare number operator: geometric and energy
    # terms cancel for the fiducial and leave -omega for the first level
    omega = 1.0
    coeffs = (omega, 0.0, 0.0)
    for t in (0.0, 0.7, 2.1):
        z = complex(np.exp(-1j * omega * t))
        dzr, dzi, eta, s1 = degree_rates(HEISENBERG, z.real, z.imag, coeffs)
        assert complex(dzr, dzi) == pytest.approx(-1j * omega * z, abs=1e-15)
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
        jz, jp_re, jp_im = expectations(g, y.real, y.imag)
        length = math.sqrt(jp_re**2 + jp_im**2 + jz * jz)
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
        d_f, d_s = overlap_exponent(g_a, s1.x, s2.x), overlap_exponent(g_b, s1.y, s2.y)
        m2 = abs(mf_overlap(s1, s2, g_a, g_b)) ** 2
        assert m2 == pytest.approx(math.exp(-(d_f + d_s)), rel=1e-10)


SPIN_SPIN = BilinearHamiltonian(
    group_a=spin(1.5),
    group_b=spin(4.5),
    alpha=np.array([1.0, 0.3 + 0.1j, 0.3 - 0.1j]),
    beta=np.array([0.7, 0.0, 0.0]),
    gamma=np.array([[0.0, 0.0, 0.0], [0.0, 0.1, 0.2], [0.0, 0.2, 0.1]]),
)


@pytest.mark.parametrize(
    "h", [maser_hamiltonian(MaserParams(g=0.4, g_prime=0.3, j=2.5)), SPIN_SPIN, None],
    ids=["field-spin", "spin-spin", "fig1-chaotic"],
)
def test_label_distances_of_two_trajectories_equal_the_per_sample_calls(h, request):
    if h is None:
        # the preset's chaotic pair to t = 25
        h, pairs = request.getfixturevalue("fig1_h"), [request.getfixturevalue("chaotic_trajectories")]
    else:
        s = ProductState(x=0.8 - 0.3j, y=0.4 + 0.2j)
        icfg = IntegratorConfig(sample_dt=0.1)
        t1 = integrate(h, s, 3.0, icfg)
        # a neighbouring partner and one next to the antipode: both branches of the spin exponent
        partners = (ProductState(x=s.x + 1e-3, y=s.y - 1e-3j), ProductState(x=-s.x, y=-1.1 / s.y.conjugate()))
        pairs = [(t1, integrate(h, partner, 3.0, icfg)) for partner in partners]
    for t1, t2 in pairs:
        d_field, d_spin = label_distances(t1, t2, h.group_a, h.group_b)
        states = [(t1.state_at(i), t2.state_at(i)) for i in range(len(t1.times))]
        per_sample = [(overlap_exponent(h.group_a, a.x, b.x), overlap_exponent(h.group_b, a.y, b.y)) for a, b in states]
        assert d_field.tolist() == [d for d, _ in per_sample]
        assert d_spin.tolist() == [d for _, d in per_sample]
        # the modulus the pair verbs print is that of the phased overlap
        for d_f, d_s, (a, b) in zip(d_field, d_spin, states, strict=True):
            modulus = abs(mf_overlap(a, b, h.group_a, h.group_b))
            assert math.exp(-0.5 * (d_f + d_s)) == pytest.approx(modulus, rel=1e-14, abs=0.0)


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
    est = lyapunov_series(DECOUPLED, ProductState(x=1.0 + 0.3j, y=0.4 - 0.1j), t_total=50.0, window=1.0).running[-1]
    assert abs(est) < 1e-4


def test_lyapunov_tangent_passes_near_a_spin_pole():
    # the spin label passes |y| = 117 near t = 2, where u . J u reaches
    # -6e3: without _tangent_rhs's division by |u|^2, VODE fails at t = 2.45.
    # The two-trajectory estimate it replaced (delta0 = 1e-6, renormalized
    # every window) gave these running exponents; the tangent's agree to
    # 8e-6, inside perfbench's 1e-4 between the two estimators
    h = maser_hamiltonian(
        MaserParams(
            epsilon=0.7205579900046, omega=0.6107772977897246, g=-1.4332839994754614, g_prime=-1.7665592865701867, j=5.0
        )
    )
    s = ProductState(x=-1.2593504655493986 + 4.196679196470479j, y=0.8921737011998414 + 1.748126928297859j)
    two_trajectory = [4.498814, 2.224217, 3.175881, 3.648282, 1.420003, 1.279363, 1.793008, 2.402602, 1.277138, 1.22307]
    series = lyapunov_series(h, s, t_total=5.0, window=0.5)
    np.testing.assert_allclose(series.running, two_trajectory, rtol=0.0, atol=1e-4)


def test_lyapunov_argument_validation():
    with pytest.raises(ValueError):
        lyapunov_series(DECOUPLED, ProductState(x=0.1, y=0.1), t_total=1.0, window=2.0)
    # rounding 2.6 windows would run to t = 3, past the requested horizon
    with pytest.raises(ValueError, match="whole number"):
        lyapunov_series(DECOUPLED, ProductState(x=0.1, y=0.1), t_total=2.6, window=1.0)
    # a window count past the cap fails before any array is built
    with pytest.raises(ValueError, match="more than 1000000 windows"):
        lyapunov_series(DECOUPLED, ProductState(x=0.1, y=0.1), t_total=1.0, window=1e-300)
    # 0.3 / 0.1 is 2.9999999999999996 in floating point: three windows
    series = lyapunov_series(DECOUPLED, ProductState(x=0.1, y=0.1), t_total=0.3, window=0.1)
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


def counted_callbacks(monkeypatch, raise_at: int = 0, exc: BaseException | None = None) -> list[int]:
    """Count, in the returned calls[0], the calls of the callback that dynamics.ode receives.

    With raise_at, call number raise_at raises exc before the callback
    runs, as a signal handler does at the callback's first bytecode.
    """
    calls = [0]
    vode = dynamics.ode

    def wrapping_ode(f):
        def wrapped(t, v):
            calls[0] += 1
            if calls[0] == raise_at:
                raise exc
            return f(t, v)

        return vode(wrapped)

    monkeypatch.setattr(dynamics, "ode", wrapping_ode)
    return calls


def counted_flow_calls(monkeypatch) -> list[int]:
    """Count, in the returned calls[0], the calls of every right-hand side that dynamics._flow_rhs binds."""
    calls = [0]
    flow_rhs = dynamics._flow_rhs

    def counting_flow_rhs(h):
        rhs = flow_rhs(h)

        def counted(t, v):
            calls[0] += 1
            return rhs(t, v)

        return counted

    monkeypatch.setattr(dynamics, "_flow_rhs", counting_flow_rhs)
    return calls


@pytest.mark.parametrize("t_fail", [-1.0, 1.0], ids=["first-call", "after-t-1"])
def test_model_guard_raised_inside_the_integrator_is_raised_after_it(fig1_h, fig1_states, monkeypatch, t_fail):
    # VODE loses an exception raised in its callback (an interrupt, or an
    # OverflowError from |z|^2); integrate must raise the flow's own error,
    # with VODE stopped soon after it was raised
    at_failure = []
    message = "math range error in the model call"
    evals = counted_callbacks(monkeypatch)
    flow_rhs = dynamics._flow_rhs

    def failing_flow_rhs(h):
        rhs = flow_rhs(h)

        def failing(t, v):
            if t > t_fail:
                at_failure.append(evals[0])
                raise OverflowError(message)
            return rhs(t, v)

        return failing

    monkeypatch.setattr(dynamics, "_flow_rhs", failing_flow_rhs)
    with pytest.raises(OverflowError, match=f"^{message}$"):
        integrate(fig1_h, fig1_states[0], 5.0)
    assert len(at_failure) == 1
    assert evals[0] - at_failure[0] <= 1000  # about 100 measured
    monkeypatch.undo()
    traj = integrate(fig1_h, fig1_states[0], 2.0)
    assert np.all(np.isfinite(traj.x)) and np.all(np.isfinite(traj.y))


class SignalRaised(BaseException):
    """What a signal handler may raise: neither an Exception nor an interrupt."""


@pytest.mark.parametrize("exc_type", [SignalRaised, KeyboardInterrupt])
def test_an_exception_at_the_callback_entry_is_raised_as_itself(fig1_h, fig1_states, monkeypatch, exc_type):
    # raised before the callback's guard, the exception stays set inside C
    # VODE, and the next callback's v.tolist() raises a SystemError from it
    exc = exc_type("raised at the callback's entry")
    counted_callbacks(monkeypatch, raise_at=100, exc=exc)
    with pytest.raises(exc_type) as raised:
        integrate(fig1_h, fig1_states[0], 5.0)
    assert raised.value is exc


@pytest.mark.parametrize("lost", [True, False], ids=["lost-in-vode", "other"])
def test_an_exception_vode_returns_with_is_raised_as_itself(fig1_states, monkeypatch, lost):
    # should VODE return with a lost exception still set, ode.integrate
    # raises a ValueError from the SystemError from it; another ValueError
    # of ode.integrate is raised unchanged
    exc = KeyboardInterrupt("lost inside VODE")
    vode = dynamics.ode

    def wrapping_ode(f):
        solver = vode(f)

        def failing_integrate(t):
            try:
                raise SystemError("returned a result with an exception set") from (exc if lost else None)
            except SystemError as system_error:
                raise ValueError("Function to integrate must not return a tuple.") from system_error

        solver.integrate = failing_integrate
        return solver

    monkeypatch.setattr(dynamics, "ode", wrapping_ode)
    with pytest.raises(BaseException) as raised:
        integrate(DECOUPLED, fig1_states[0], 1.0)
    if lost:
        assert raised.value is exc
    else:
        assert type(raised.value) is ValueError


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


def test_lyapunov_rhs_evals_count_the_model_calls(fig1_h, fig1_states, monkeypatch):
    # one call of the bound flow per evaluation, through the tangent's complex step
    callbacks, flow_calls = counted_callbacks(monkeypatch), counted_flow_calls(monkeypatch)
    series = lyapunov_series(fig1_h, fig1_states[0], t_total=2.0)
    assert series.rhs_evals == callbacks[0] == flow_calls[0] > 0


def test_integrate_rhs_evals_count_the_model_calls(fig1_h, fig1_states, monkeypatch):
    # every VODE callback is one evaluation, and one call of the bound flow
    callbacks, flow_calls = counted_callbacks(monkeypatch), counted_flow_calls(monkeypatch)
    traj = integrate(fig1_h, fig1_states[0], 2.0)
    assert traj.rhs_evals == callbacks[0] == flow_calls[0] > 0


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


def test_a_final_time_below_the_snap_tolerance_keeps_the_first_sample():
    # the grid [0] once had its only point snapped to t_final, so a run wrote
    # one row at t_final holding the initial labels
    assert dynamics._sample_grid(1e-13, 0.05).tolist() == [0.0, 1e-13]
    assert dynamics._sample_grid(1e-300, 0.05).tolist() == [0.0, 1e-300]
    s = ProductState(x=0.8 - 0.3j, y=0.25 + 0.1j)
    traj = integrate(DECOUPLED, s, 1e-13)
    assert traj.times.tolist() == [0.0, 1e-13]
    assert traj.x[0] == s.x and traj.y[0] == s.y and traj.x[1] != s.x


def test_integrate_caps_the_sample_count():
    with pytest.raises(ValueError, match="more than 1000000 samples"):
        integrate(DECOUPLED, ProductState(x=0.1, y=0.1), 25.0, IntegratorConfig(sample_dt=1e-300))
