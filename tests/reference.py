"""Literal reference implementations the tests check the library against.

Nothing here is imported by the library. Each object is either an earlier
form of a library closed form kept verbatim (the numpy mean-field
right-hand side) or a construction that only the tests need (single-degree
coherent vectors with their norm deficit, matrix exponentials, excited
fiducials, nested quadrature).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.integrate import cumulative_trapezoid, trapezoid
from scipy.linalg import expm

from cohchaos import algebra
from cohchaos.algebra import HEISENBERG, CohChaosError, Gen, GroupKind, TruncationError, spin
from cohchaos.corrections import CorrectionKernel
from cohchaos.dynamics import ProductState, ScaledState
from cohchaos.model import BilinearHamiltonian, HermiticityError, MaserParams
from cohchaos.oracle import HilbertConfig, OracleState


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
    ev_a = _expectation_magnitudes(h.group_a, x)
    ev_b = _expectation_magnitudes(h.group_b, y)
    alpha, beta, gamma = np.abs(h.alpha), np.abs(h.beta), np.abs(h.gamma)
    a = alpha + gamma @ ev_b
    b = beta + gamma.T @ ev_a
    dx = _one_label_magnitude(h.group_a, x, a)
    dy = _one_label_magnitude(h.group_b, y, b)
    deta_x, ds1_x = _action_rate_magnitudes(h.group_a, x, dx, a)
    deta_y, ds1_y = _action_rate_magnitudes(h.group_b, y, dy, b)
    dphi = ev_a @ gamma @ ev_b
    return np.array([dx, dx, dy, dy, deta_x, deta_y, ds1_x, ds1_y, dphi])


def _expectation_magnitudes(group: GroupKind, r: float) -> np.ndarray:
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
# Coherent states beyond the fiducial, and the exact-state helpers built on
# them.


def overlap_modulus_sq(group: GroupKind, z1: complex, z2: complex) -> float:
    """Squared modulus of the coherent overlap, exp(-overlap_exponent)."""
    return math.exp(-algebra.overlap_exponent(group, complex(z1), complex(z2)))


def displacement_matrix(group: GroupKind, z: complex, truncation: int | None = None) -> np.ndarray:
    """Matrix of D(z), exact for spins, truncated for the oscillator."""
    _, ap, am = algebra.generator_matrices(group, truncation)
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
    num, ad, a = (sp.csr_matrix(m) for m in algebra.generator_matrices(HEISENBERG, cfg.n_max + 1))
    jz, jp, jm = (sp.csr_matrix(m) for m in algebra.generator_matrices(spin(cfg.j)))
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


def operator_expectation(state: OracleState, op: sp.spmatrix) -> complex:
    return complex(np.vdot(state.amplitudes, op @ state.amplitudes))


def from_classical(scaled: ScaledState, j: float, eta_x: float = 0.0, eta_y: float = 0.0) -> ProductState:
    """Inverse of dynamics.scale_to_classical; recovers the bare labels exactly."""
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
