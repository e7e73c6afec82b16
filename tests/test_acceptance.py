"""Acceptance gate: ten numbered checks, one printed verdict line each.

Every test certifies one shipping criterion at its stated tolerance and
prints a single PASS/FAIL line (visible with `pytest -s`, or in the
captured output on failure). Expected magnitudes quoted in comments were
frozen from independent scratch calculations before these tests existed.
"""

import math

import numpy as np
import scipy.sparse as sp

from cohchaos.algebra import HEISENBERG, Gen, group_relation_coeffs, spin
from cohchaos.corrections import build_kernel, entropy_series
from cohchaos.dynamics import (
    IntegratorConfig,
    ProductState,
    integrate,
    lyapunov_series,
    mf_overlap,
    trajectory_energy,
)
from cohchaos.model import MaserParams, maser_hamiltonian
from cohchaos.oracle import (
    ExactEvolver,
    HilbertConfig,
    OracleState,
    build_hamiltonian_matrix,
    exact_overlap_pair,
    field_annihilation_expectation,
    hilbert_for_labels,
    product_coherent_vector,
    reduced_linear_entropy,
)
from reference import (
    ScaledState,
    displacement_matrix,
    evolve_grid,
    from_classical,
    generator_matrices,
    linear_entropy_2nd,
    operator_expectation,
    overlap_modulus_sq,
)

ROOT2 = math.sqrt(2.0)


def report(num: int, text: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: criterion {num:2d} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_overlap_reference_values(rng):
    ok = True
    for g in (HEISENBERG, spin(0.5), spin(4.5)):
        for z in (0.0, 0.3 - 0.8j, 2.0 + 1.0j):
            ok &= overlap_modulus_sq(g, z, z) == 1.0
    ok &= abs(overlap_modulus_sq(HEISENBERG, 0.0, 1.0) - math.exp(-1.0)) <= 1e-12
    unit_shifted = 0.4 - 0.3j + complex(0.6, 0.8)
    ok &= abs(overlap_modulus_sq(HEISENBERG, 0.4 - 0.3j, unit_shifted) - math.exp(-1.0)) <= 1e-12
    ok &= abs(overlap_modulus_sq(spin(0.5), 0.0, 1.0) - 0.5) <= 1e-12

    for _ in range(1000):
        z1 = complex(*rng.uniform(-2.0, 2.0, 2))
        z2 = complex(*rng.uniform(-2.0, 2.0, 2))
        jj = float(rng.choice([0.5, 1.0, 2.5]))
        for g in (HEISENBERG, spin(jj)):
            fwd = overlap_modulus_sq(g, z1, z2)
            rev = overlap_modulus_sq(g, z2, z1)
            ok &= abs(fwd - rev) <= 1e-12 and 0.0 <= fwd <= 1.0 + 1e-12
        direction = z2 / abs(z2) if abs(z2) > 0 else 1.0
        t1, t2 = sorted(rng.uniform(0.05, 3.0, 2))
        if t2 > t1 + 1e-6:
            near = overlap_modulus_sq(HEISENBERG, z1, z1 + t1 * direction)
            far = overlap_modulus_sq(HEISENBERG, z1, z1 + t2 * direction)
            ok &= near > far
    report(1, "overlap values exact / e^-1 / 0.5 to 1e-12; symmetry and "
              "distance monotonicity over 1000 samples", ok)


def test_criterion_02_displacement_relation_identity(rng):
    worst = 0.0
    for group in (HEISENBERG, spin(0.5), spin(1.0), spin(1.5)):
        trunc = None if group.is_spin else 80
        mats = generator_matrices(group, truncation=trunc)
        dim = mats[0].shape[0]
        keep = dim if group.is_spin else dim // 2
        eye = np.eye(dim)
        for _ in range(20):
            z = complex(*rng.uniform(-1.0, 1.0, 2))
            z /= max(1.0, abs(z))  # oscillator truncation policy wants |z| <= 1
            d = displacement_matrix(group, z, truncation=trunc)
            g, k = group_relation_coeffs(group, z)
            for index in (Gen.ZERO, Gen.PLUS, Gen.MINUS):
                lhs = mats[index] @ d
                rhs = d @ (sum(c * m for c, m in zip(g[index], mats)) + k[index] * eye)
                worst = max(worst, float(np.linalg.norm((lhs - rhs)[:keep, :keep], 2)))
    report(2, f"displacement relation residual {worst:.1e} <= 1e-8 for both groups, "
              "3 indices, 20 labels each", worst <= 1e-8)


def test_criterion_03_oracle_unitarity_and_overlap_conservation(fig1_evolver, fig1_pair_vectors):
    a0, b0 = fig1_pair_vectors
    ov0 = abs(exact_overlap_pair(a0, b0))
    norm_drift = 0.0
    ov_drift = 0.0
    for at, bt in evolve_grid(fig1_evolver, [a0, b0], np.linspace(0.0, 10.0, 21)):
        norm_drift = max(norm_drift, abs(np.linalg.norm(at.amplitudes) - 1.0), abs(np.linalg.norm(bt.amplitudes) - 1.0))
        ov_drift = max(ov_drift, abs(abs(exact_overlap_pair(at, bt)) - ov0))
    report(3, f"norm drift {norm_drift:.1e} <= 1e-10 and |overlap| drift "
              f"{ov_drift:.1e} <= 1e-8 over [0, 10]",
           norm_drift <= 1e-10 and ov_drift <= 1e-8)


def test_criterion_04_vacuum_rabi_law():
    # resonant co-rotating-only spin-1/2: one field quantum swaps with the
    # excitation at angular rate sqrt(2) g, so P_e(t) = cos^2(sqrt(2) g t)
    p = MaserParams(epsilon=1.0, omega=1.0, g=0.25, g_prime=0.0, j=0.5)
    cfg = HilbertConfig(n_max=30, j=0.5)
    evolver = ExactEvolver(build_hamiltonian_matrix(maser_hamiltonian(p), cfg))
    amps = np.zeros(cfg.dim, dtype=complex)
    amps[1] = 1.0  # |n=0> x |m=+1/2>
    psi0 = OracleState(amplitudes=amps, config=cfg)
    rate = ROOT2 * p.g
    worst = 0.0
    times = np.linspace(0.0, 2.0 * math.pi / rate, 181)  # two full periods
    for t, (psi,) in zip(times, evolve_grid(evolver, [psi0], times), strict=True):
        p_e = float(np.sum(np.abs(psi.amplitudes.reshape(-1, 2)[:, 1]) ** 2))
        worst = max(worst, abs(p_e - math.cos(rate * t) ** 2))
    report(4, f"vacuum Rabi law deviation {worst:.1e} <= 1e-6 over two periods",
           worst <= 1e-6)


def test_criterion_05_decoupled_mean_field_is_exact():
    p = MaserParams(g=0.0, g_prime=0.0, j=4.5)
    h = maser_hamiltonian(p)
    sa = ProductState(x=1.3 - 0.4j, y=0.3 + 0.5j)
    sb = ProductState(x=1.1 - 0.1j, y=0.45 + 0.35j)
    cfg = HilbertConfig(n_max=40, j=4.5)
    evolver = ExactEvolver(build_hamiltonian_matrix(h, cfg))
    va = product_coherent_vector(sa.x, sa.y, cfg)
    vb = product_coherent_vector(sb.x, sb.y, cfg)
    ta = integrate(h, sa, 10.0)
    tb = integrate(h, sb, 10.0)
    worst_ov = 0.0
    worst_ent = 0.0
    samples = range(0, len(ta.times), 10)
    for i, (ea, eb) in zip(samples, evolve_grid(evolver, [va, vb], ta.times[::10]), strict=True):
        diff = exact_overlap_pair(ea, eb) - mf_overlap(
            ta.state_at(i), tb.state_at(i), h.group_a, h.group_b
        )
        worst_ov = max(worst_ov, abs(diff))
        worst_ent = max(worst_ent, reduced_linear_entropy(ea))
    report(5, f"decoupled overlap error {worst_ov:.1e} <= 1e-8 and oracle entropy "
              f"{worst_ent:.1e} <= 1e-10 over [0, 10]",
           worst_ov <= 1e-8 and worst_ent <= 1e-10)


def test_criterion_06_energy_conservation(fig1_h, fig1_states):
    traj = integrate(fig1_h, fig1_states[0], 50.0)
    energy = trajectory_energy(fig1_h, traj)
    rel = float(np.max(np.abs(energy - energy[0])) / abs(energy[0]))
    report(6, f"classical energy drift {rel:.1e} <= 1e-8 relative over [0, 50]",
           rel <= 1e-8)


def test_criterion_07_large_j_convergence():
    scaled0 = ScaledState(z_field=0.45 + 0.15j, z_spin=0.35 - 0.2j)
    devs = []
    for jj in (4.5, 9.0, 18.0):
        p = MaserParams(epsilon=1.0, omega=1.0, g=0.5 / ROOT2, g_prime=0.2 / ROOT2, j=jj)
        h = maser_hamiltonian(p)
        s0 = from_classical(scaled0, jj)
        traj = integrate(h, s0, 2.5)
        cfg = hilbert_for_labels([s0.x], jj)
        evolver = ExactEvolver(build_hamiltonian_matrix(maser_hamiltonian(p), cfg))
        psi0 = product_coherent_vector(s0.x, s0.y, cfg)
        jz_d, _, jm_d = generator_matrices(spin(jj))
        eye_f = sp.identity(cfg.n_max + 1, format="csr")
        jm_full = sp.kron(eye_f, sp.csr_matrix(jm_d), format="csr")
        jz_full = sp.kron(eye_f, sp.csr_matrix(jz_d), format="csr")
        root = math.sqrt(4.0 * jj)
        dev = 0.0
        samples = range(0, len(traj.times), 5)
        for i, (psi,) in zip(samples, evolve_grid(evolver, [psi0], traj.times[::5]), strict=True):
            x_scaled = traj.x[i] / root
            x_oracle = field_annihilation_expectation(psi) / root
            jz_v = operator_expectation(psi, jz_full).real
            y_oracle = operator_expectation(psi, jm_full) / (jj - jz_v)
            dev = max(dev, abs(x_scaled - x_oracle), abs(traj.y[i] - y_oracle))
        devs.append(dev)
    ok = devs[0] > devs[1] > devs[2]
    report(7, "scaled deviation from the exact expectations decreases with J: "
              + " > ".join(f"{d:.4f}" for d in devs), ok)


def test_criterion_08_entanglement_short_time_law(fig1_h, fig1_states, fig1_hilbert,
                                                  fig1_evolver):
    traj = integrate(fig1_h, fig1_states[0], 0.5)
    kernel = build_kernel(traj, fig1_h)
    ok = linear_entropy_2nd(kernel, 0.0) == 0.0
    worst_identity = 0.0
    for i in (2, 4, 6, 8, 10):  # t = 0.1 .. 0.5
        t = float(kernel.times[i])
        nested = linear_entropy_2nd(kernel, t, tol=1e-8)
        direct = 2.0 * abs(kernel.cum[i]) ** 2
        worst_identity = max(worst_identity, abs(nested - direct))
    ok &= worst_identity <= 1e-8

    psi0 = product_coherent_vector(fig1_states[0].x, fig1_states[0].y, fig1_hilbert)
    series = entropy_series(kernel)
    worst_rel = 0.0
    samples = [2, 4, 6, 8, 10]
    for i, (psi,) in zip(samples, evolve_grid(fig1_evolver, [psi0], traj.times[samples]), strict=True):
        exact = reduced_linear_entropy(psi)
        worst_rel = max(worst_rel, abs(series[i] - exact) / exact)
    ok &= worst_rel <= 0.20
    report(8, f"delta(0) = 0, identity gap {worst_identity:.1e} <= 1e-8, oracle "
              f"mismatch {worst_rel:.1%} <= 20% for t <= 0.5", ok)


def _pair_modulus(traj_a, traj_b, h):
    return np.array([
        abs(mf_overlap(traj_a.state_at(i), traj_b.state_at(i), h.group_a, h.group_b))
        for i in range(len(traj_a.times))
    ])


def test_criterion_09_chaotic_regular_separation(fig1_h, fig1_states, chaotic_trajectories):
    chaotic_sq = _pair_modulus(*chaotic_trajectories, fig1_h) ** 2
    regular_a = integrate(fig1_h, fig1_states[2], 25.0)
    regular_b = integrate(fig1_h, fig1_states[3], 25.0)
    regular_sq = _pair_modulus(regular_a, regular_b, fig1_h) ** 2
    lam_chaotic = lyapunov_series(fig1_h, fig1_states[0]).running[-1]
    lam_regular = lyapunov_series(fig1_h, fig1_states[2]).running[-1]
    ok = (chaotic_sq.min() < 0.2 and regular_sq.min() > 0.6
          and lam_chaotic > 5.0 * lam_regular)
    report(9, f"chaotic overlap^2 min {chaotic_sq.min():.3f} < 0.2, regular min "
              f"{regular_sq.min():.3f} > 0.6, exponents {lam_chaotic:.3f} > 5 x "
              f"{lam_regular:.3f}", ok)


def test_criterion_10_conserved_exact_overlap_vs_mf_decay(fig1_h, fig1_evolver,
                                                          fig1_pair_vectors,
                                                          chaotic_trajectories):
    a0, b0 = fig1_pair_vectors
    ov0 = abs(exact_overlap_pair(a0, b0))
    drift = 0.0
    for at, bt in evolve_grid(fig1_evolver, [a0, b0], np.linspace(0.0, 25.0, 26)):
        drift = max(drift, abs(abs(exact_overlap_pair(at, bt)) - ov0))
    modulus = _pair_modulus(*chaotic_trajectories, fig1_h)
    decrease = float(modulus[0] - modulus.min())
    report(10, f"exact pair overlap drift {drift:.1e} <= 1e-8 while the mean-field "
               f"modulus drops by {decrease:.2f} > 0.5",
           drift <= 1e-8 and decrease > 0.5)
