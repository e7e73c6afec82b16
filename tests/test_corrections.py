"""Tests for the first-order correction kernel and second-order entropy."""

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from cohchaos.algebra import CohChaosError
from cohchaos.corrections import CorrectionKernel, build_kernel, entropy_series
from cohchaos.dynamics import IntegratorConfig, ProductState, Trajectory, integrate
from cohchaos.experiments import ExperimentConfig, _Run, save_kernel_csv
from cohchaos.model import MaserParams, maser_hamiltonian
from cohchaos.oracle import exact_overlap_pair, product_coherent_vector
from reference import doorway_vector, evolve_grid, linear_entropy_2nd


@pytest.fixture(scope="module")
def maser_setup():
    p = MaserParams(j=4.5)
    h = maser_hamiltonian(p)
    s = ProductState(x=complex(0.9, 0.3), y=complex(0.35, -0.2))
    traj = integrate(h, s, 3.0, IntegratorConfig(sample_dt=0.05))
    return p, h, traj


@pytest.fixture(scope="module")
def maser_kernel(maser_setup):
    _, h, traj = maser_setup
    return build_kernel(traj, h)


def synthetic_trajectory(y0: complex, n: int = 41,
                         t_final: float = 1.0, s0=None, s1=None) -> Trajectory:
    """Frozen-label trajectory for testing the kernel formula in isolation.

    Its knots are at multiples of t_final / (n - 1): 0.025 by default.
    """
    ts = np.linspace(0.0, t_final, n)
    zeros = np.zeros(n)
    return Trajectory(
        times=ts,
        x=np.full(n, 0.2 + 0.1j, dtype=complex),
        y=np.full(n, y0, dtype=complex),
        eta_x=zeros.copy(),
        eta_y=zeros.copy(),
        s0=zeros.copy() if s0 is None else np.asarray(s0, dtype=float),
        s1=zeros.copy() if s1 is None else np.asarray(s1, dtype=float),
        rhs_evals=0,
    )


def maser_kernel_closed_form(traj: Trajectory, p: MaserParams) -> np.ndarray:
    """Reference kernel for the oscillator-spin coupling, on the trajectory knots.

    For gamma with cross entries g/sqrt(j) and anomalous entries
    g'/sqrt(j) the double sum collapses to
    sqrt(2) (g' - g y^2) / (1 + |y|^2) * e^{i (S0 - S1)}.
    """
    y = traj.y
    phase = np.exp(1j * (traj.s0 - traj.s1))
    return np.sqrt(2.0) * (p.g_prime - p.g * y * y) / (1.0 + np.abs(y) ** 2) * phase


def knot(traj: Trajectory, t: float) -> int:
    """Index of the knot at time t."""
    i = int(np.argmin(np.abs(traj.times - t)))
    assert traj.times[i] == pytest.approx(t, abs=1e-12)
    return i


def constant_kernel(c0: complex, t_final: float = 2.0, n: int = 41) -> CorrectionKernel:
    ts = np.linspace(0.0, t_final, n)
    c = np.full(n, c0, dtype=complex)
    return CorrectionKernel(times=ts, c=c, cum=cumulative_trapezoid(c, ts, initial=0.0))


def test_zero_coupling_kernel_vanishes():
    p = MaserParams(g=0.0, g_prime=0.0, j=1.5)
    h = maser_hamiltonian(p)
    traj = integrate(h, ProductState(x=1.0 + 0.5j, y=0.3 - 0.2j), 2.0)
    k = build_kernel(traj, h)
    assert np.max(np.abs(k.c)) < 1e-14
    assert np.max(np.abs(k.cum)) < 1e-14


def test_general_and_maser_kernels_agree(maser_setup, maser_kernel):
    p, _, traj = maser_setup
    assert np.abs(maser_kernel.c - maser_kernel_closed_form(traj, p)).max() < 1e-10


def test_kernel_modulus_at_spin_origin():
    # y = 0 leaves only the counter-rotating term: |c| = sqrt(2) g'
    p = MaserParams(g=0.4, g_prime=0.15, j=2.5)
    traj = synthetic_trajectory(0.0)
    kernel = build_kernel(traj, maser_hamiltonian(p))
    assert abs(kernel.c[knot(traj, 0.5)]) == pytest.approx(np.sqrt(2.0) * 0.15, abs=1e-12)


def test_kernel_zero_on_balance_circle():
    # y^2 = g'/g kills the doorway amplitude identically
    p = MaserParams(g=0.4, g_prime=0.1, j=2.5)
    y0 = np.sqrt(0.1 / 0.4)
    traj = synthetic_trajectory(complex(y0, 0.0))
    kernel = build_kernel(traj, maser_hamiltonian(p))
    for t in (0.0, 0.3, 0.9):
        assert abs(kernel.c[knot(traj, t)]) < 1e-14


def test_kernel_modulus_ignores_action_phase():
    h = maser_hamiltonian(MaserParams(g=0.4, g_prime=0.15, j=2.5))
    ts = np.linspace(0.0, 1.0, 41)
    plain = synthetic_trajectory(0.3 + 0.1j)
    phased = synthetic_trajectory(0.3 + 0.1j, s0=1.7 * ts, s1=0.4 * ts ** 2)
    c_plain, c_phased = build_kernel(plain, h).c, build_kernel(phased, h).c
    for t in (0.2, 0.65, 1.0):
        i = knot(plain, t)
        assert abs(c_plain[i]) == pytest.approx(abs(c_phased[i]), abs=1e-12)
        expected_rot = np.exp(1j * (1.7 * t - 0.4 * t ** 2))
        assert c_phased[i] == pytest.approx(c_plain[i] * expected_rot, abs=1e-12)


def test_first_order_state_initially_unexcited(maser_kernel):
    # the doorway amplitude -i C(t) starts at zero
    assert maser_kernel.times[0] == 0.0
    assert -1j * maser_kernel.cum[0] == 0.0


def test_first_order_amplitude_short_time_slope(maser_kernel):
    # |C(dt)| ~ |c(0)| dt for small dt, here the first knot
    dt = float(maser_kernel.times[1])
    slope = abs(-1j * maser_kernel.cum[1]) / dt
    assert slope == pytest.approx(abs(maser_kernel.c[0]), rel=5e-2)


def test_entropy_zero_kernel():
    k = constant_kernel(0.0)
    assert linear_entropy_2nd(k, 1.5) == 0.0
    assert np.max(entropy_series(k)) == 0.0


def test_entropy_constant_kernel_closed_form():
    c0 = 0.3 - 0.4j
    k = constant_kernel(c0)
    for t in (0.0, 0.5, 1.0, 2.0, 0.513):
        assert linear_entropy_2nd(k, t) == pytest.approx(2 * abs(c0) ** 2 * t ** 2, abs=1e-12)
    series = entropy_series(k)
    assert series == pytest.approx(2 * abs(c0) ** 2 * k.times ** 2, abs=1e-12)


def test_entropy_matches_series_on_grid(maser_kernel):
    series = entropy_series(maser_kernel)
    for i in (5, 20, 45, 60):
        t = float(maser_kernel.times[i])
        nested = linear_entropy_2nd(maser_kernel, t)
        assert nested == pytest.approx(series[i], abs=1e-8)


def test_entropy_quadratic_short_time_law(maser_kernel):
    # delta2(t)/t^2 -> 2|c(0)|^2; Richardson-extrapolate the h and h/2 values
    target = 2 * abs(maser_kernel.c[0]) ** 2
    h = 0.1
    r1 = linear_entropy_2nd(maser_kernel, h) / h ** 2
    r2 = linear_entropy_2nd(maser_kernel, h / 2) / (h / 2) ** 2
    extrapolated = 2 * r2 - r1
    assert extrapolated == pytest.approx(target, rel=2e-2)


def test_entropy_range_check(maser_kernel):
    with pytest.raises(ValueError):
        linear_entropy_2nd(maser_kernel, -0.5)
    with pytest.raises(ValueError):
        linear_entropy_2nd(maser_kernel, 99.0)


def test_entropy_rejects_inconsistent_running_integral():
    k = constant_kernel(0.3 - 0.4j)
    bad = CorrectionKernel(times=k.times, c=k.c, cum=k.cum + 0.05)
    with pytest.raises(CohChaosError, match="inconsistent"):
        linear_entropy_2nd(bad, 1.0)


def test_kernel_csv_schema(tmp_path, maser_setup, maser_kernel):
    p, h, traj = maser_setup
    run = _Run(ExperimentConfig(model=p, states=(traj.state_at(0),)), h, [], tmp_path, {"outputs": []})
    save_kernel_csv(run, maser_kernel, entropy_series(maser_kernel))
    assert run.manifest["outputs"] == ["kernel.csv"]
    lines = (tmp_path / "kernel.csv").read_text().strip().splitlines()
    assert lines[0] == "t,re_c,im_c,abs_C,delta2"
    assert len(lines) == len(maser_kernel.times) + 1
    row = lines[11].split(",")
    assert float(row[0]) == pytest.approx(float(maser_kernel.times[10]), rel=1e-10)
    assert float(row[3]) == pytest.approx(abs(maser_kernel.cum[10]), rel=1e-9, abs=1e-12)
    assert float(row[4]) == pytest.approx(2 * abs(maser_kernel.cum[10]) ** 2, rel=1e-9, abs=1e-12)


def test_doorway_amplitude_matches_exact_projection(fig1_h, fig1_states, fig1_hilbert,
                                                    fig1_evolver):
    """First-order doorway amplitude vs projection of the exact state.

    Projecting the numerically evolved state onto the co-moving doorway
    vector (with the elementary-excitation phase removed) reproduces
    -i C(t) while the correction is still perturbative.
    """
    state = fig1_states[0]
    traj = integrate(fig1_h, state, 0.5, IntegratorConfig(sample_dt=0.05))
    kernel = build_kernel(traj, fig1_h)

    psi0 = product_coherent_vector(state.x, state.y, fig1_hilbert)
    idx = [2, 6, 10]
    for i, (psi_t,) in zip(idx, evolve_grid(fig1_evolver, [psi0], traj.times[idx]), strict=True):
        moving = traj.state_at(i)
        door = doorway_vector(ProductState(x=moving.x, y=moving.y), fig1_hilbert)
        amp_exact = exact_overlap_pair(door, psi_t) * np.exp(-1j * traj.s1[i])
        doorway = -1j * kernel.cum[i]
        assert abs(amp_exact - doorway) <= 0.1 * abs(doorway)
