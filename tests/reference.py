"""Literal reference implementations the tests check the library against.

Nothing here is imported by the library. Each object is either an earlier
form of a library closed form kept verbatim (the numpy mean-field
right-hand side, and the per-degree label velocity and phase rates that
the scalar right-hand side composed before it was fused) or a
construction that only the tests need (dense
generator matrices, single-degree coherent vectors with their norm
deficit, matrix exponentials, excited fiducials, the exact evolution one
time at a time or stepped by the CSR form of its Chebyshev step, the
classical-limit scaling and its inverse, nested quadrature, a scanned
energy-shell crossing).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple
from unittest import mock

import numpy as np
import scipy.sparse as sp
from scipy.integrate import cumulative_trapezoid, trapezoid
from scipy.linalg import expm
from scipy.optimize import brentq, minimize_scalar

from cohchaos import algebra, model, oracle
from cohchaos.algebra import HEISENBERG, CohChaosError, Gen, GroupKind, TruncationError, spin
from cohchaos.corrections import CorrectionKernel
from cohchaos.dynamics import ProductState
from cohchaos.model import BilinearHamiltonian, HermiticityError, MaserParams, classical_energy
from cohchaos.oracle import ExactEvolver, HilbertConfig, OracleState


# ---------------------------------------------------------------------------
# The mean-field right-hand side in numpy arithmetic, as the library wrote it
# before its scalar form.


def expectations(group: GroupKind, z: complex) -> np.ndarray:
    z = complex(z)
    if not group.is_spin:
        return np.array([abs(z) ** 2, np.conj(z), z], dtype=complex)
    j = group.j
    den = 1.0 + abs(z) ** 2
    return np.array(
        [-j * (1.0 - abs(z) ** 2) / den, 2.0 * j * np.conj(z) / den, 2.0 * j * z / den], dtype=complex
    )


def mean_field_coeffs(h: BilinearHamiltonian, ev_a: np.ndarray, ev_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = h.alpha + h.gamma @ ev_b
    b = h.beta + h.gamma.T @ ev_a
    for vec in (a, b):
        if abs(vec[Gen.ZERO].imag) > 1e-10 * max(1.0, abs(vec[Gen.ZERO])):
            raise HermiticityError("mean-field zero component acquired an imaginary part")
        vec[Gen.ZERO] = vec[Gen.ZERO].real
    return a, b


def interaction_energy(h: BilinearHamiltonian, ev_a: np.ndarray, ev_b: np.ndarray) -> float:
    return _real(ev_a @ h.gamma @ ev_b, "interaction energy")


def _real(e: complex, what: str) -> float:
    if abs(e.imag) > 1e-12 * max(1.0, abs(e)):
        raise HermiticityError(f"{what} has imaginary residue {e.imag:.3e}; hermiticity bug")
    return float(e.real)


def _one_label_rhs(group: GroupKind, z: complex, coeffs: np.ndarray) -> complex:
    c0 = coeffs[Gen.ZERO]
    cp = coeffs[Gen.PLUS]
    if not group.is_spin:
        return -1j * (c0 * z + cp)
    return -1j * cp - 1j * c0 * z + 1j * np.conj(cp) * z * z


def action_rate(group: GroupKind, z: complex, dz: complex, coeffs: np.ndarray) -> tuple[float, float]:
    c0, cp, cm = coeffs[Gen.ZERO], coeffs[Gen.PLUS], coeffs[Gen.MINUS]
    geom = -(dz * np.conj(z)).imag
    if not group.is_spin:
        energy = (c0 * abs(z) ** 2 + cp * np.conj(z) + cm * z).real
        eta_rate = geom - energy
        return float(eta_rate), float(eta_rate - c0.real)
    j = group.j
    den = 1.0 + abs(z) ** 2
    eta_rate = (2.0 * j * geom + j * (c0 * (1.0 - abs(z) ** 2) - 2.0 * cp * np.conj(z) - 2.0 * cm * z).real) / den
    return float(eta_rate), float(eta_rate * (j - 1.0) / j)


def rhs(t: float, v: np.ndarray, h: BilinearHamiltonian) -> np.ndarray:
    x = complex(v[0], v[1])
    y = complex(v[2], v[3])
    ev_a = expectations(h.group_a, x)
    ev_b = expectations(h.group_b, y)
    a, b = mean_field_coeffs(h, ev_a, ev_b)
    dx = _one_label_rhs(h.group_a, x, a)
    dy = _one_label_rhs(h.group_b, y, b)
    deta_x, ds1_x = action_rate(h.group_a, x, dx, a)
    deta_y, ds1_y = action_rate(h.group_b, y, dy, b)
    dphi = interaction_energy(h, ev_a, ev_b)
    return np.array([dx.real, dx.imag, dy.real, dy.imag, deta_x, deta_y, ds1_x, ds1_y, dphi])


def degree_rates(
    group: GroupKind, zr: float, zi: float, coeffs: tuple[float, float, float]
) -> tuple[float, float, float, float]:
    """Label velocity (Re dz, Im dz) and the rates (deta, ds1) of the fiducial and first-excited phases.

    coeffs are the independent one-body coefficients (c_0, Re c_+, Im c_+)
    acting on the degree at z = zr + i zi, c_- = conj(c_+); see the
    cohchaos.dynamics docstring for the forms, here taken on real and
    imaginary parts, deta in its reduced form.  The scalar flow composed
    algebra.expectations, model.mean_field_coeffs and this once per degree
    before dynamics._flow_rhs fused them in the same operation order.
    """
    c0, cpr, cpi = coeffs
    drive = cpr * zr + cpi * zi  # Re(c_+ conj(z))
    if not group.is_spin:
        # dz = -i (c_0 z + c_+)
        eta_rate = -drive
        return c0 * zi + cpi, -(c0 * zr + cpr), eta_rate, eta_rate - c0
    j = group.j
    # dz = i (conj(c_+) z^2 - c_+ - c_0 z), with z^2 = wr + i wi
    wr = zr * zr - zi * zi
    wi = 2.0 * zr * zi
    dzr = cpi + c0 * zi - (cpr * wi - cpi * wr)
    dzi = (cpr * wr + cpi * wi) - cpr - c0 * zr
    eta_rate = j * (c0 - 2.0 * drive)
    return dzr, dzi, eta_rate, eta_rate * (j - 1.0) / j


def composed_rhs(h: BilinearHamiltonian, v) -> tuple[float, ...]:
    """The nine flow rates as algebra.expectations, then model.mean_field_coeffs, then degree_rates per degree."""
    xr, xi, yr, yi = v[:4]
    ev_a, ev_b = algebra.expectations(h.group_a, xr, xi), algebra.expectations(h.group_b, yr, yi)
    a, b, dphi = model.mean_field_coeffs(h, ev_a, ev_b)
    dxr, dxi, deta_x, ds1_x = degree_rates(h.group_a, xr, xi, a)
    dyr, dyi, deta_y, ds1_y = degree_rates(h.group_b, yr, yi, b)
    return dxr, dxi, dyr, dyi, deta_x, deta_y, ds1_x, ds1_y, dphi


def rhs_term_magnitudes(v: np.ndarray, h: BilinearHamiltonian) -> np.ndarray:
    """rhs with every input replaced by its magnitude and every difference by a sum.

    Component by component, this is the size of the terms that rhs sums
    (a complex component bounds both its parts), so a small multiple of eps
    times it bounds the rounding error of any evaluation order: the
    componentwise forward-error bound. Where no component cancels it equals
    |rhs|.
    """
    x = abs(complex(v[0], v[1]))
    y = abs(complex(v[2], v[3]))
    a, b = mean_field_coeff_magnitudes(h, x, y)
    ev_a = expectation_magnitudes(h.group_a, x)
    ev_b = expectation_magnitudes(h.group_b, y)
    dx = _one_label_magnitude(h.group_a, x, a)
    dy = _one_label_magnitude(h.group_b, y, b)
    deta_x, ds1_x = _action_rate_magnitudes(h.group_a, x, dx, a)
    deta_y, ds1_y = _action_rate_magnitudes(h.group_b, y, dy, b)
    dphi = ev_a @ np.abs(h.gamma) @ ev_b
    return np.array([dx, dx, dy, dy, deta_x, deta_y, ds1_x, ds1_y, dphi])


def mean_field_coeff_magnitudes(h: BilinearHamiltonian, x: complex, y: complex) -> tuple[np.ndarray, np.ndarray]:
    """Sizes of the terms each of mean_field_coeffs' a_i and b_j sums, at labels x and y.

    The expectations are replaced by the sizes of their own terms, so a
    small multiple of eps times these bounds the rounding error of any
    evaluation order of the coefficients.
    """
    ev_a = expectation_magnitudes(h.group_a, abs(x))
    ev_b = expectation_magnitudes(h.group_b, abs(y))
    gamma = np.abs(h.gamma)
    return np.abs(h.alpha) + gamma @ ev_b, np.abs(h.beta) + gamma.T @ ev_a


def expectation_magnitudes(group: GroupKind, r: float) -> np.ndarray:
    """Sizes of the terms each of expectations' three components sums, at |z| = r."""
    if not group.is_spin:
        return np.array([r * r, r, r])
    # the terms of -j (1 - r^2) / (1 + r^2) add up to j
    den = 1.0 + r * r
    return group.j * np.array([1.0, 2.0 * r / den, 2.0 * r / den])


def _one_label_magnitude(group: GroupKind, r: float, coeffs: np.ndarray) -> float:
    c0, cp, _ = coeffs
    if not group.is_spin:
        return c0 * r + cp
    return cp + c0 * r + cp * r * r


def _action_rate_magnitudes(group: GroupKind, r: float, dz: float, coeffs: np.ndarray) -> tuple[float, float]:
    c0, cp, cm = coeffs
    geom = dz * r
    if not group.is_spin:
        eta_rate = geom + c0 * r * r + cp * r + cm * r
        return eta_rate, eta_rate + c0
    j = group.j
    eta_rate = (2.0 * j * geom + j * (c0 * (1.0 + r * r) + 2.0 * cp * r + 2.0 * cm * r)) / (1.0 + r * r)
    return eta_rate, eta_rate * abs(j - 1.0) / j


# ---------------------------------------------------------------------------
# The generators as dense matrices, filled from the bands the library keeps.


def generator_matrices(group: GroupKind, truncation: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (A_0, A_+, A_-) for one degree, ordered (ZERO, PLUS, MINUS), each filled from its band.

    Oscillator: (n, a^dag, a) on the lowest `truncation` Fock states.
    Spin: (J_z, J_+, J_-) in the basis |j,-j+k>, k = 0 .. 2j.
    """
    return tuple(
        np.diag(values[max(0, -offset):len(values) - max(0, offset)], offset)
        for offset, values in algebra._generator_bands(group, truncation)
    )


# ---------------------------------------------------------------------------
# Coherent states beyond the fiducial, and the exact-state helpers built on
# them.


def overlap_modulus_sq(group: GroupKind, z1: complex, z2: complex) -> float:
    """Squared modulus of the coherent overlap, exp(-overlap_exponent)."""
    return math.exp(-algebra.overlap_exponent(group, complex(z1), complex(z2)))


def displacement_matrix(group: GroupKind, z: complex, truncation: int | None = None) -> np.ndarray:
    """Matrix of D(z), exact for spins, truncated for the oscillator."""
    _, ap, am = generator_matrices(group, truncation)
    xi = complex(z)
    if group.is_spin:
        r = abs(xi)
        # xi = z * atan(r)/r with the smooth r -> 0 limit
        xi = xi * (1.0 - r * r / 3.0) if r < 1e-8 else xi * math.atan(r) / r
    return expm(xi * ap - np.conj(xi) * am)


class DisplacedVector(NamedTuple):
    """Truncated-basis representation of D(z)|fiducial> plus its norm deficit."""

    vector: np.ndarray
    norm_deficit: float


def displaced_basis_vector(
    group: GroupKind,
    z: complex,
    fiducial_index: int = 0,
    truncation: int | None = None,
    deficit_tol: float = 1e-10,
) -> DisplacedVector:
    """Truncated-basis vector D(z)|fiducial_index> with its norm deficit.

    Index 0 is the coherent vector the oracle's product vectors are built
    from. The oscillator's index 1 is the closed form
    (a^dag - conj(z)) D(z)|0>; any other index is a column of
    displacement_matrix. Spin vectors are exact (deficit 0); an oscillator
    vector is returned unnormalized, so its norm shortfall reports the
    truncation loss, and a deficit above deficit_tol raises TruncationError.
    """
    z = algebra._check_label(z)
    if fiducial_index < 0:
        raise ValueError("fiducial index must be nonnegative")
    if group.is_spin:
        if fiducial_index >= group.dim:
            raise ValueError(f"fiducial index {fiducial_index} outside spin dimension {group.dim}")
        if fiducial_index == 0:
            vec = algebra._spin_coherent_amplitudes(group.j, z, group.dim)
        else:
            vec = displacement_matrix(group, z)[:, fiducial_index].copy()
        return DisplacedVector(vector=vec, norm_deficit=0.0)
    if truncation is None or truncation < 1:
        raise ValueError("oscillator vectors need a positive truncation")
    dim = int(truncation)
    if fiducial_index >= dim:
        raise ValueError(f"fiducial index {fiducial_index} outside truncation {dim}")
    if fiducial_index == 0:
        vec = algebra._field_coherent_amplitudes(z, dim)
    elif fiducial_index == 1:
        coh = algebra._field_coherent_amplitudes(z, dim)
        vec = np.zeros(dim, dtype=complex)
        vec[1:] = np.sqrt(np.arange(1, dim)) * coh[:-1]
        vec -= np.conj(z) * coh
    else:
        vec = displacement_matrix(group, z, truncation=dim)[:, fiducial_index].copy()
    deficit = max(0.0, 1.0 - float(np.vdot(vec, vec).real))
    if deficit > deficit_tol:
        raise TruncationError(
            f"norm deficit {deficit:.3e} exceeds {deficit_tol:.1e}; "
            f"raise the truncation (currently {dim}) for |z| = {abs(z):.3f}"
        )
    return DisplacedVector(vector=vec, norm_deficit=deficit)


def doorway_vector(s: ProductState, cfg: HilbertConfig) -> OracleState:
    """Product of first-excited displaced states D(x)|1> (x) D(y)|j,-j+1>."""
    field = displaced_basis_vector(HEISENBERG, s.x, 1, truncation=cfg.n_max + 1, deficit_tol=1e-8)
    spin_part = displaced_basis_vector(spin(cfg.j), s.y, 1)
    amps = np.kron(field.vector, spin_part.vector)
    amps = amps / np.linalg.norm(amps)
    return OracleState(amplitudes=amps, config=cfg, truncation_deficit=field.norm_deficit)


def maser_matrix_reference(p: MaserParams, cfg: HilbertConfig) -> sp.csr_matrix:
    """The maser Hamiltonian written out with ladder operators, as a reference."""
    num, ad, a = (sp.csr_matrix(m) for m in generator_matrices(HEISENBERG, cfg.n_max + 1))
    jz, jp, jm = (sp.csr_matrix(m) for m in generator_matrices(spin(cfg.j)))
    eye_f = sp.identity(cfg.n_max + 1, dtype=complex, format="csr")
    eye_s = sp.identity(cfg.spin_dim, dtype=complex, format="csr")
    root_j = math.sqrt(p.j)
    h = (
        p.omega * sp.kron(num, eye_s)
        + p.epsilon * sp.kron(eye_f, jz)
        + (p.g / root_j) * (sp.kron(ad, jm) + sp.kron(a, jp))
        + (p.g_prime / root_j) * (sp.kron(ad, jp) + sp.kron(a, jm))
    ).tocsr()
    h.eliminate_zeros()
    return h


def kron_hamiltonian_matrix(h: BilinearHamiltonian, cfg: HilbertConfig) -> sp.csr_matrix:
    """H as a sum of Kronecker products, one per nonzero coefficient: what the band assembly must equal bit for bit."""
    a_ops = [sp.csr_matrix(m) for m in generator_matrices(HEISENBERG, cfg.n_max + 1)]
    b_ops = [sp.csr_matrix(m) for m in generator_matrices(h.group_b)]
    eye_a = sp.identity(cfg.n_max + 1, dtype=complex, format="csr")
    eye_b = sp.identity(cfg.spin_dim, dtype=complex, format="csr")
    terms = [(h.alpha[i], a, eye_b) for i, a in enumerate(a_ops)]
    terms += [(h.beta[k], eye_a, b) for k, b in enumerate(b_ops)]
    terms += [(h.gamma[i, k], a, b) for i, a in enumerate(a_ops) for k, b in enumerate(b_ops)]
    mat = sp.csr_matrix((cfg.dim, cfg.dim), dtype=complex)
    for coeff, a, b in terms:
        if coeff != 0:
            mat = mat + coeff * sp.kron(a, b, format="csr")
    mat.eliminate_zeros()
    return mat


def operator_expectation(state: OracleState, op: sp.spmatrix) -> complex:
    return complex(np.vdot(state.amplitudes, op @ state.amplitudes))


def evolve_grid(evolver: ExactEvolver, states: Sequence[OracleState], times: Iterable[float]) -> Iterator[tuple[OracleState, ...]]:
    """Yield, for each of times in order, the states evolved from t = 0 to it.

    The states, times and errors are those of evolver.evolve_chunks; the
    yielded states are copies that later times leave alone.
    """
    states = tuple(states)
    for _, amplitudes in evolver.evolve_chunks(states, times):
        for row in amplitudes.copy():
            yield tuple(OracleState(amps, st.config, st.truncation_deficit) for amps, st in zip(row, states))


def csr_step(evolver: ExactEvolver, h: sp.spmatrix) -> sp.csr_matrix:
    """The Chebyshev step -2i h_s of an evolver of h in the CSR form the propagator once took."""
    identity = sp.identity(h.shape[0], dtype=complex, format="csr")
    return (h.tocsr().astype(complex) - evolver._centre * identity) / evolver._half_width * -2j


def diagonal_step(evolver: ExactEvolver, u: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """-2i h_s u + prev for a (dim, 1) u, from the evolver's diagonals as a Chebyshev order takes it."""
    terms = np.zeros((len(evolver._diagonals),) + u.shape, dtype=complex)
    factors = oracle._diagonal_factors(evolver._diagonals, u, terms)
    return oracle._diagonal_product(factors, terms, np.empty_like(u)) + prev


def evolved_chunks(evolver: ExactEvolver, states: Sequence[OracleState], times: Iterable[float]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Copies of the (times, amplitudes) chunks that evolver.evolve_chunks yields."""
    return [(chunk.copy(), amplitudes.copy()) for chunk, amplitudes in evolver.evolve_chunks(states, times)]


def csr_stepped_chunks(h: sp.spmatrix, states: Sequence[OracleState], times: Iterable[float]) -> list[tuple[np.ndarray, np.ndarray]]:
    """evolved_chunks of a new evolver of h whose every order takes the CSR product of csr_step."""
    evolver = ExactEvolver(h)
    step = csr_step(evolver, h)

    # each vector stands in for its own factors, which the CSR product multiplies
    def product(u, terms, out):
        np.copyto(out, step @ u)
        return out

    with mock.patch.object(oracle, "_diagonal_factors", lambda diagonals, u, terms: u), \
            mock.patch.object(oracle, "_diagonal_product", product):
        return evolved_chunks(evolver, states, times)


# ---------------------------------------------------------------------------
# The exact-basis observables of one vector, as the library wrote them before
# they took stacks of vectors.


def vector_field_annihilation(amps: np.ndarray, cfg: HilbertConfig) -> complex:
    m = amps.reshape(cfg.n_max + 1, cfg.spin_dim)
    ns = np.arange(1, cfg.n_max + 1)
    return complex(np.sum(np.sqrt(ns)[:, None] * np.conj(m[:-1, :]) * m[1:, :]))


def vector_overlap(a: np.ndarray, b: np.ndarray) -> complex:
    return complex(np.vdot(a, b))


def vector_top_fock_population(amps: np.ndarray, cfg: HilbertConfig) -> float:
    top = amps[-cfg.spin_dim:]
    return float(np.vdot(top, top).real)


def vector_linear_entropy(amps: np.ndarray, cfg: HilbertConfig) -> float:
    m = amps.reshape(cfg.n_max + 1, cfg.spin_dim)
    return float(1.0 - np.sum(np.abs(m @ m.conj().T) ** 2))


class ScaledState(NamedTuple):
    """Classical-limit coordinates: oscillator label over sqrt(4j), spin label as is."""

    z_field: complex
    z_spin: complex


def scale_to_classical(s: ProductState, j: float) -> ScaledState:
    """Map labels to the classical-limit coordinates (x/sqrt(4j), y), those of dynamics.lyapunov_series."""
    root = math.sqrt(4.0 * j)
    return ScaledState(z_field=s.x / root, z_spin=s.y)


def from_classical(scaled: ScaledState, j: float, eta_x: float = 0.0, eta_y: float = 0.0) -> ProductState:
    """Inverse of scale_to_classical; recovers the bare labels exactly."""
    root = math.sqrt(4.0 * j)
    return ProductState(x=scaled.z_field * root, y=scaled.z_spin, eta_x=eta_x, eta_y=eta_y)


# ---------------------------------------------------------------------------
# The second-order linear entropy as the nested double integral, which the
# library's 2|C|^2 closes in one line.


def _refine(base: np.ndarray, level: int) -> np.ndarray:
    """Split every interval of base into 2**level equal parts, keeping knots."""
    if level == 0:
        return base
    steps = 1 << level
    parts = [base[:1]]
    for a, b in zip(base[:-1], base[1:]):
        parts.append(np.linspace(a, b, steps + 1)[1:])
    return np.concatenate(parts)


def linear_entropy_2nd(kernel: CorrectionKernel, t: float, tol: float = 1e-8) -> float:
    """Second-order linear entropy 4 Re int_0^t dt1 int_0^t1 dt2 conj(c(t1)) c(t2).

    The double integral is evaluated by nested trapezoid quadrature on the
    piecewise-linear kernel interpolant, halving the step (knots kept so
    grid values stay exact) until successive values agree within tol. Two
    consistency checks guard the result: the stored running integral must
    match the refined one at the last kernel knot, and the nested value
    must reproduce the closed identity 2|C(t)|^2. Violation of either
    raises instead of returning a bad entropy.
    """
    t0, t1 = float(kernel.times[0]), float(kernel.times[-1])
    if not t0 - 1e-12 <= t <= t1 + 1e-12:
        raise ValueError(f"time {t} outside kernel range [{t0}, {t1}]")
    if t <= t0:
        return 0.0
    k_last = int(np.searchsorted(kernel.times, t * (1.0 + 1e-15) + 1e-15)) - 1
    base = kernel.times[: k_last + 1]
    if t > base[-1]:
        base = np.append(base, t)
    nested = prev = None
    cums = np.zeros(1, dtype=complex)
    steps = 1
    for level in range(11):
        steps = 1 << level
        grid = _refine(base, level)
        cs = np.interp(grid, kernel.times, kernel.c.real) + 1j * np.interp(
            grid, kernel.times, kernel.c.imag
        )
        cums = cumulative_trapezoid(cs, grid, initial=0.0)
        nested = 4.0 * float(trapezoid(np.real(np.conj(cs) * cums), grid))
        if prev is not None and abs(nested - prev) <= 0.25 * tol:
            break
        prev = nested
    else:
        raise CohChaosError(
            f"nested entropy quadrature did not converge to {tol} at t = {t}"
        )
    stored = complex(kernel.cum[k_last])
    refined_at_knot = complex(cums[k_last * steps])
    if abs(refined_at_knot - stored) > tol * max(1.0, abs(stored)):
        raise CohChaosError(
            f"running integral {stored!r} inconsistent with kernel samples "
            f"({refined_at_knot!r} at t = {float(kernel.times[k_last])})"
        )
    direct = 2.0 * abs(complex(cums[-1])) ** 2
    if abs(nested - direct) > tol * max(1.0, direct):
        raise CohChaosError(
            f"double-integral identity failed at t = {t}: nested {nested!r} vs 2|C|^2 {direct!r}"
        )
    return nested


# ---------------------------------------------------------------------------
# The energy-shell crossing by brute force, for the closed-form projection.


class ShellScan(NamedTuple):
    """The crossing closest to zero (None if there is none) and the attained energy range."""

    shift: float | None
    low: float
    high: float


def shell_scan(
    s: ProductState, h: BilinearHamiltonian, target: float, step: complex, span: float = 8.0, samples: int = 1601
) -> ShellScan:
    """Scan E(x + step u, y) - target over u in [-span, span] for its crossings.

    Each grid cell whose ends differ in sign gets a brentq root. A pair of
    crossings inside one cell shows no sign change, so each sampled local
    extremum is refined with a bounded minimisation, and when the refined
    extremum lies across zero from its neighbours both crossings beside it
    are solved for too. The range covers the grid and the refined extrema.
    Assumes nothing about the form of the energy.
    """

    def gap(u: float) -> float:
        return classical_energy(h, s.x + step * u, s.y) - target

    us = np.linspace(-span, span, samples)
    gs = np.array([gap(u) for u in us])
    roots = [float(u) for u, g in zip(us, gs) if g == 0.0]
    extremes = []
    for i in range(samples - 1):
        if gs[i] * gs[i + 1] < 0.0:
            roots.append(brentq(gap, us[i], us[i + 1], xtol=1e-15))
        if i and (gs[i] - gs[i - 1]) * (gs[i + 1] - gs[i]) < 0.0:
            sign = 1.0 if gs[i] < gs[i - 1] else -1.0  # a minimum, else a maximum
            u = minimize_scalar(
                lambda v: sign * gap(v), bounds=(us[i - 1], us[i + 1]), method="bounded", options={"xatol": 1e-14}
            ).x
            extremes.append(gap(u))
            if extremes[-1] * gs[i - 1] < 0.0 and extremes[-1] * gs[i + 1] < 0.0:
                roots += [brentq(gap, us[i - 1], u, xtol=1e-15), brentq(gap, u, us[i + 1], xtol=1e-15)]
    values = np.concatenate([gs, extremes])
    shift = min(roots, key=abs) if roots else None
    return ShellScan(shift, float(values.min()) + target, float(values.max()) + target)
