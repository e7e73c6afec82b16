"""Self-consistent mean-field flow of product coherent states.

The mean-field ansatz keeps the joint state a product of coherent states
with complex labels (x, y) and accumulated phases.  The labels obey

    oscillator: dx/dt = -i (a_0 x + a_+)
    spin:       dy/dt = -i b_+ - i b_0 y + i conj(b_+) y^2

with the self-consistent coefficients of model.mean_field_coeffs.  Each
degree also accumulates two action-like phases: the fiducial phase rate
(eta) that makes exp(i eta) D(z)|0> solve the one-body Schroedinger
equation, and the first-excited rate (s1) doing the same for D(z)|1>.
Their closed forms are

    oscillator: deta = -Im(dz conj(z)) - (a_0 |z|^2 + a_+ conj(z) + a_- z)
                ds1  = deta - a_0
    spin:       deta = [-2j Im(dz conj(z))
                        + j (b_0 (1-|z|^2) - 2 b_+ conj(z) - 2 b_- z)] / (1+|z|^2)
                ds1  = deta (j-1)/j

both validated against numerically differentiated matrix elements in the
tests.

Labels are validated where they enter and leave the flow, not in the RHS:
ProductState requires them finite with |z| <= 1e6, and integrate raises
IntegrationError at the first sample time where a label breaks that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.integrate import solve_ivp

from .algebra import _LABEL_BOUND, Gen, GroupKind, CohChaosError, _check_label, expectations, overlap, overlap_exponent
from .model import (
    BilinearHamiltonian,
    classical_energy,
    interaction_energy,
    mean_field_coeffs,
)


class IntegrationError(CohChaosError):
    """The integrator failed before the requested time, or a label left its valid range."""


@dataclass(frozen=True)
class ProductState:
    """Labels and accumulated phases of one product coherent state."""

    x: complex
    y: complex
    eta_x: float = 0.0
    eta_y: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _check_label(self.x))
        object.__setattr__(self, "y", _check_label(self.y))
        for name in ("eta_x", "eta_y"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def eta_total(self) -> float:
        return self.eta_x + self.eta_y


@dataclass(frozen=True)
class IntegratorConfig:
    """Adaptive Runge-Kutta settings; dense_output_dt fixes the sample grid."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    dense_output_dt: float = 0.05

    def __post_init__(self) -> None:
        for name, bound in (("rel_tol", 1e-2), ("abs_tol", 1e-2)):
            v = getattr(self, name)
            if not 0.0 < v <= bound:
                raise ValueError(f"{name} must lie in (0, {bound}]")
        if not self.dense_output_dt > 0.0:
            raise ValueError("dense_output_dt must be positive")


@dataclass
class Trajectory:
    """Sampled mean-field history: labels, phases and running actions.

    eta_x and eta_y are the single-factor phases under the decoupled
    one-body Hamiltonians.  s0 and s1 are the physical phases of the
    zero- and one-excitation components of the evolving state: the factor
    phases plus the coupling-energy counterterm, both zero at the first
    sample.  Their difference s0 - s1 is counterterm-free.
    """

    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    eta_x: np.ndarray
    eta_y: np.ndarray
    s0: np.ndarray
    s1: np.ndarray

    def state_at(self, i: int) -> ProductState:
        """Sampled state with the coupling counterterm folded into eta_x.

        This makes eta_total the physical phase of the evolving product
        state (s0 up to the initial offsets), so phased overlaps of two
        sampled trajectories carry the right relative phase.
        """
        phi = self.s0[i] - (self.eta_x[i] - self.eta_x[0]) - (self.eta_y[i] - self.eta_y[0])
        return ProductState(
            x=self.x[i], y=self.y[i], eta_x=self.eta_x[i] + phi, eta_y=self.eta_y[i]
        )


def _one_label_rhs(group: GroupKind, z: complex, coeffs: np.ndarray) -> complex:
    c0 = coeffs[Gen.ZERO]
    cp = coeffs[Gen.PLUS]
    if not group.is_spin:
        return -1j * (c0 * z + cp)
    return -1j * cp - 1j * c0 * z + 1j * np.conj(cp) * z * z


def action_rate(group: GroupKind, z: complex, dz: complex, coeffs: np.ndarray) -> tuple[float, float]:
    """Rates (deta, ds1) of the fiducial and first-excited phases.

    coeffs are the one-body coefficients (c_0, c_+, c_-) acting on this
    degree.  Both rates are real; see the module docstring for the forms.
    """
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


def _pack(s: ProductState) -> np.ndarray:
    return np.array([s.x.real, s.x.imag, s.y.real, s.y.imag, s.eta_x, s.eta_y, 0.0, 0.0, 0.0])


def _rhs(t: float, v: np.ndarray, h: BilinearHamiltonian) -> np.ndarray:
    x = complex(v[0], v[1])
    y = complex(v[2], v[3])
    ev_a = expectations(h.group_a, x)
    ev_b = expectations(h.group_b, y)
    a, b = mean_field_coeffs(h, ev_a, ev_b)
    dx = _one_label_rhs(h.group_a, x, a)
    dy = _one_label_rhs(h.group_b, y, b)
    deta_x, ds1_x = action_rate(h.group_a, x, dx, a)
    deta_y, ds1_y = action_rate(h.group_b, y, dy, b)
    # the factorized one-body Hamiltonians each count the coupling energy
    # once, so the physical phases carry it back as a counterterm
    dphi = interaction_energy(h, ev_a, ev_b)
    return np.array([dx.real, dx.imag, dy.real, dy.imag, deta_x, deta_y, ds1_x, ds1_y, dphi])


def _sample_grid(t_final: float, dt: float) -> np.ndarray:
    n = int(math.floor(t_final / dt + 1e-9))
    times = dt * np.arange(n + 1)
    if times[-1] < t_final - 1e-12 * max(1.0, t_final):
        times = np.append(times, t_final)
    else:
        times[-1] = t_final
    return times


def integrate(
    h: BilinearHamiltonian,
    s0: ProductState,
    t_final: float,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> Trajectory:
    """Integrate the mean-field flow from s0 to t_final on the dense grid.

    Uses an adaptive high-order embedded Runge-Kutta pair. A failed step (a
    label running into the coordinate singularity, typically) or a sampled
    label out of range raises IntegrationError with the time.
    """
    if not t_final > 0.0:
        raise ValueError("t_final must be positive")
    times = _sample_grid(t_final, cfg.dense_output_dt)
    sol = solve_ivp(
        _rhs,
        (0.0, t_final),
        _pack(s0),
        method="DOP853",
        t_eval=times,
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        args=(h,),
    )
    if not sol.success:
        reached = sol.t[-1] if sol.t.size else 0.0
        raise IntegrationError(f"integration failed at t = {reached:.6g}: {sol.message}")
    v = sol.y
    x = v[0] + 1j * v[1]
    y = v[2] + 1j * v[3]
    bad = ~((np.abs(x) <= _LABEL_BOUND) & (np.abs(y) <= _LABEL_BOUND))  # NaN compares false
    if bad.any():
        t_bad = sol.t[np.argmax(bad)]
        raise IntegrationError(f"label non-finite or beyond |z| = {_LABEL_BOUND:.0e} at t = {t_bad:.6g}")
    eta_x = v[4]
    eta_y = v[5]
    phi = v[8]
    return Trajectory(
        times=sol.t,
        x=x,
        y=y,
        eta_x=eta_x,
        eta_y=eta_y,
        s0=(eta_x - eta_x[0]) + (eta_y - eta_y[0]) + phi,
        s1=v[6] + v[7] + phi,
    )


def trajectory_energy(h: BilinearHamiltonian, traj: Trajectory) -> np.ndarray:
    """Classical energy along a trajectory, one value per sample."""
    return np.array([classical_energy(h, traj.x[i], traj.y[i]) for i in range(len(traj.times))])


def mf_overlap(s1: ProductState, s2: ProductState, group_a: GroupKind, group_b: GroupKind) -> complex:
    """Overlap <s1|s2> of two phased product coherent states.

    Equals exp(i (eta2 - eta1)) <x1|x2> <y1|y2>; the modulus is the product
    of the two single-degree overlap moduli.
    """
    phase = np.exp(1j * (s2.eta_total - s1.eta_total))
    return complex(phase * overlap(group_a, s1.x, s2.x) * overlap(group_b, s1.y, s2.y))


def label_distances(s1: ProductState, s2: ProductState, group_a: GroupKind, group_b: GroupKind) -> tuple[float, float]:
    """Distance exponents (d_field, d_spin) of the first and second degree.

    Each is algebra.overlap_exponent of that degree's labels, so the pair
    overlap modulus squared is exp(-(d_field + d_spin)).
    """
    return overlap_exponent(group_a, s1.x, s2.x), overlap_exponent(group_b, s1.y, s2.y)


class ScaledState(NamedTuple):
    """Classical-limit coordinates: oscillator label over sqrt(4j), spin label as is."""

    z_field: complex
    z_spin: complex


def scale_to_classical(s: ProductState, j: float) -> ScaledState:
    """Map labels to the classical-limit coordinates (x/sqrt(4j), y)."""
    root = math.sqrt(4.0 * j)
    return ScaledState(z_field=s.x / root, z_spin=s.y)


def from_classical(scaled: ScaledState, j: float, eta_x: float = 0.0, eta_y: float = 0.0) -> ProductState:
    """Inverse of scale_to_classical; recovers the bare labels exactly."""
    root = math.sqrt(4.0 * j)
    return ProductState(x=scaled.z_field * root, y=scaled.z_spin, eta_x=eta_x, eta_y=eta_y)


def window_count(t_total: float, window: float) -> int:
    """Number of windows of length window in t_total, which must be a whole number."""
    q = t_total / window
    if abs(q - round(q)) > 1e-9 * q:
        raise ValueError(f"t_total {t_total} is not a whole number of windows of length {window}")
    return round(q)


class LyapunovSeries(NamedTuple):
    """Renormalization-window ends and the running exponent estimate."""

    window_ends: np.ndarray
    running: np.ndarray


def lyapunov_series(
    h: BilinearHamiltonian,
    s0: ProductState,
    delta0: float = 1e-6,
    t_total: float = 300.0,
    renorm_interval: float = 1.0,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> LyapunovSeries:
    """Two-trajectory largest-Lyapunov estimate in scaled classical coordinates.

    A partner trajectory offset by delta0 along the scaled real field
    direction is integrated alongside the reference; after every window the
    log stretch of the scaled separation is accumulated and the partner is
    pulled back to distance delta0 along the current separation direction.
    t_total must be a whole number of windows.
    """
    if not (delta0 > 0.0 and t_total > 0.0 and 0.0 < renorm_interval <= t_total):
        raise ValueError("need delta0 > 0, t_total > 0, 0 < renorm_interval <= t_total")
    j = h.group_b.j if h.group_b.is_spin else (h.group_a.j if h.group_a.is_spin else 0.25)
    root = math.sqrt(4.0 * j)
    window_cfg = replace(cfg, dense_output_dt=renorm_interval)
    n_windows = window_count(t_total, renorm_interval)
    ref = ProductState(x=s0.x, y=s0.y)
    pert = ProductState(x=s0.x + delta0 * root, y=s0.y)
    log_sum = 0.0
    ends = np.empty(n_windows)
    running = np.empty(n_windows)
    for w in range(n_windows):
        tr = integrate(h, ref, renorm_interval, window_cfg)
        tp = integrate(h, pert, renorm_interval, window_cfg)
        ref = tr.state_at(-1)
        p_end = tp.state_at(-1)
        end, start = scale_to_classical(p_end, j), scale_to_classical(ref, j)
        # (re, im) of the field and of the spin separation, as one real 4-vector
        sep = np.array([end.z_field - start.z_field, end.z_spin - start.z_spin]).view(float)
        dist = float(np.linalg.norm(sep))
        if dist == 0.0:
            raise IntegrationError("perturbed trajectory collapsed onto the reference")
        log_sum += math.log(dist / delta0)
        ends[w] = (w + 1) * renorm_interval
        running[w] = log_sum / ends[w]
        sep *= delta0 / dist
        pert = ProductState(
            x=ref.x + complex(sep[0], sep[1]) * root,
            y=ref.y + complex(sep[2], sep[3]),
        )
    return LyapunovSeries(window_ends=ends, running=running)

