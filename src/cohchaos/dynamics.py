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

The right-hand side is written in Python complex scalars: the
expectations, the mean-field coefficients (from the flat coefficient tuple
BilinearHamiltonian.scalars), the label velocities, the phase rates and
the coupling counterterm are all plain numbers, and the 9-vector handed
back to the integrator is the only array it builds.  It stays general over
the bilinear class: either degree may be an oscillator or a spin, and every
alpha, beta and gamma entry enters.  It keeps two guards: the mean-field
zero components must stay real, and so must the coupling energy.

Labels are validated where they enter and leave the flow, not in the RHS:
ProductState requires them finite with |z| <= 1e6, and integrate raises
IntegrationError at the first sample time where a label breaks that.

The integrator is the variable-order Adams method of VODE (Brown, Byrne &
Hindmarsh, SIAM J. Sci. Stat. Comput. 10, 1038, 1989) as scipy's
integrate.ode ships it, with functional iteration and no Jacobian: the
flow is not stiff, and VODE's stepping loop runs in compiled code, where
scipy's Runge-Kutta loop costs more than the RHS itself.  The RHS must
not raise inside VODE: scipy's C VODE loses an exception raised in its
callback, keeps stepping, and a SystemError later surfaces as an
unrelated ValueError.  The model guards (HermiticityError) do run inside
the RHS, so _solve catches the first exception, returns NaNs until VODE
stops, and raises that exception again once VODE has returned.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# solve_ivp is not called here; it stays importable from this module only
# because perfbench/trace.py wraps dynamics.solve_ivp as a trace target
from scipy.integrate import ode, solve_ivp  # noqa: F401

from .algebra import _LABEL_BOUND, GroupKind, CohChaosError, _check_label, expectations, overlap, overlap_exponent
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
    """Local error tolerances of the Adams integrator, and the sample spacing.

    rel_tol and abs_tol bound VODE's local error estimate per step, relative
    to each component and absolute; sample_dt fixes the grid on which
    integrate reports the trajectory.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    sample_dt: float = 0.05

    def __post_init__(self) -> None:
        for name, bound in (("rel_tol", 1e-2), ("abs_tol", 1e-2)):
            v = getattr(self, name)
            if not 0.0 < v <= bound:
                raise ValueError(f"{name} must lie in (0, {bound}]")
        if not self.sample_dt > 0.0:
            raise ValueError("sample_dt must be positive")


@dataclass
class Trajectory:
    """Sampled mean-field history: labels, phases and running actions.

    eta_x and eta_y are the single-factor phases under the decoupled
    one-body Hamiltonians.  s0 and s1 are the physical phases of the
    zero- and one-excitation components of the evolving state: the factor
    phases plus the coupling-energy counterterm, both zero at the first
    sample.  Their difference s0 - s1 is counterterm-free.  rhs_evals is
    the number of right-hand-side evaluations the integrator spent.
    """

    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    eta_x: np.ndarray
    eta_y: np.ndarray
    s0: np.ndarray
    s1: np.ndarray
    rhs_evals: int

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


def _one_label_rhs(group: GroupKind, z: complex, coeffs: tuple[complex, ...]) -> complex:
    c0, cp, _ = coeffs
    if not group.is_spin:
        return -1j * (c0 * z + cp)
    return -1j * cp - 1j * c0 * z + 1j * cp.conjugate() * z * z


def action_rate(group: GroupKind, z: complex, dz: complex, coeffs: tuple[complex, ...]) -> tuple[float, float]:
    """Rates (deta, ds1) of the fiducial and first-excited phases.

    coeffs are the one-body coefficients (c_0, c_+, c_-) acting on this
    degree.  Both rates are real; see the module docstring for the forms.
    """
    c0, cp, cm = coeffs
    zc = z.conjugate()
    r2 = abs(z) ** 2
    geom = -(dz * zc).imag
    if not group.is_spin:
        eta_rate = geom - (c0 * r2 + cp * zc + cm * z).real
        return eta_rate, eta_rate - c0.real
    j = group.j
    eta_rate = (2.0 * j * geom + j * (c0 * (1.0 - r2) - 2.0 * cp * zc - 2.0 * cm * z).real) / (1.0 + r2)
    return eta_rate, eta_rate * (j - 1.0) / j


def _pack(s: ProductState) -> np.ndarray:
    return np.array([s.x.real, s.x.imag, s.y.real, s.y.imag, s.eta_x, s.eta_y, 0.0, 0.0, 0.0])


def _rhs(t: float, v: np.ndarray, h: BilinearHamiltonian) -> np.ndarray:
    # Python scalars throughout: the returned vector is the only array built
    xr, xi, yr, yi = v.tolist()[:4]
    x = complex(xr, xi)
    y = complex(yr, yi)
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


def _pair_rhs(t: float, v: np.ndarray, h: BilinearHamiltonian) -> np.ndarray:
    # two independent states stacked, so that one step-size and order
    # sequence serves both and their errors largely cancel in the difference
    return np.concatenate((_rhs(t, v[:9], h), _rhs(t, v[9:], h)))


# A step below _MIN_STEP ends VODE's call; this is what stops it within
# about a hundred evaluations once the guarded RHS returns NaNs.  Without
# it VODE accepts NaN steps until _MAX_STEPS, which bounds the steps of
# one sample interval: the fig1 states take 50 to 110 per unit time at
# the default tolerances.
_MIN_STEP = 1e-12
_MAX_STEPS = 10**6


def _solve(rhs, v0: np.ndarray, times: np.ndarray, cfg: IntegratorConfig, h: BilinearHamiltonian):
    """Integrate dv/dt = rhs(t, v, h) from v0 at times[0]; return (samples, evaluations).

    samples[:, i] is the state at times[i].  VODE's Adams method runs once
    per sample time and ends before this returns, so no two VODE instances
    ever interleave (older scipy builds of VODE are not re-entrant).  The
    first exception the RHS raises is raised again, unchanged, after VODE's
    call returns; a VODE failure raises IntegrationError with the time.
    """
    caught: list[BaseException] = []
    evals = 0
    nan = np.full(len(v0), np.nan)

    def guarded(t: float, v: np.ndarray) -> np.ndarray:
        nonlocal evals
        evals += 1
        if not caught:
            # every exception, interrupts included: VODE would lose it
            try:
                return rhs(t, v, h)
            except BaseException as exc:
                caught.append(exc)
        return nan

    solver = ode(guarded).set_integrator(
        "vode", method="adams", rtol=cfg.rel_tol, atol=cfg.abs_tol, nsteps=_MAX_STEPS, min_step=_MIN_STEP
    )
    solver.set_initial_value(v0, times[0])
    out = np.empty((len(v0), len(times)))
    out[:, 0] = v0
    # a failed call warns before it returns; the failure is raised instead
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        for i in range(1, len(times)):
            out[:, i] = solver.integrate(times[i])
            if caught:
                raise caught[0]
            if not solver.successful():
                reason = warned[-1].message if warned else f"VODE return code {solver.get_return_code()}"
                raise IntegrationError(f"integration failed at t = {solver.t:.6g}: {reason}")
    return out, evals


def _check_labels(times: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    """Raise IntegrationError at the first sample time where a label is non-finite or out of range."""
    bad = ~((np.abs(x) <= _LABEL_BOUND) & (np.abs(y) <= _LABEL_BOUND))  # NaN compares false
    if bad.any():
        t_bad = times[np.argmax(bad)]
        raise IntegrationError(f"label non-finite or beyond |z| = {_LABEL_BOUND:.0e} at t = {t_bad:.6g}")


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
    """Integrate the mean-field flow from s0 to t_final on the sample grid.

    Uses VODE's variable-order Adams method (see the module docstring). A
    failed step (a label running into the coordinate singularity,
    typically) or a sampled label out of range raises IntegrationError
    with the time; an exception from the model guards in the RHS is raised
    as it is.
    """
    if not t_final > 0.0:
        raise ValueError("t_final must be positive")
    times = _sample_grid(t_final, cfg.sample_dt)
    v, rhs_evals = _solve(_rhs, _pack(s0), times, cfg, h)
    x = v[0] + 1j * v[1]
    y = v[2] + 1j * v[3]
    _check_labels(times, x, y)
    eta_x = v[4]
    eta_y = v[5]
    phi = v[8]
    return Trajectory(
        times=times,
        x=x,
        y=y,
        eta_x=eta_x,
        eta_y=eta_y,
        s0=(eta_x - eta_x[0]) + (eta_y - eta_y[0]) + phi,
        s1=v[6] + v[7] + phi,
        rhs_evals=rhs_evals,
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


def window_count(t_total: float, window: float) -> int:
    """Number of windows of length window in t_total, which must be a whole number."""
    q = t_total / window
    if abs(q - round(q)) > 1e-9 * q:
        raise ValueError(f"t_total {t_total} is not a whole number of windows of length {window}")
    return round(q)


class LyapunovSeries(NamedTuple):
    """Renormalization-window ends, the running exponent estimate, and the
    right-hand-side evaluations of both trajectories over all windows."""

    window_ends: np.ndarray
    running: np.ndarray
    rhs_evals: int


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
    direction is integrated alongside the reference, both as one stacked
    system so that they share every step; after every window the log
    stretch of the scaled separation is accumulated and the partner is
    pulled back to distance delta0 along the current separation direction.
    t_total must be a whole number of windows.
    """
    if not (delta0 > 0.0 and t_total > 0.0 and 0.0 < renorm_interval <= t_total):
        raise ValueError("need delta0 > 0, t_total > 0, 0 < renorm_interval <= t_total")
    j = h.group_b.j if h.group_b.is_spin else (h.group_a.j if h.group_a.is_spin else 0.25)
    root = math.sqrt(4.0 * j)
    n_windows = window_count(t_total, renorm_interval)
    ref = ProductState(x=s0.x, y=s0.y)
    pert = ProductState(x=s0.x + delta0 * root, y=s0.y)
    log_sum = 0.0
    rhs_evals = 0
    ends = np.empty(n_windows)
    running = np.empty(n_windows)
    for w in range(n_windows):
        times = renorm_interval * np.array([w, w + 1.0])
        v, evals = _solve(_pair_rhs, np.concatenate((_pack(ref), _pack(pert))), times, cfg, h)
        rhs_evals += 2 * evals  # one evaluation per state, as mean_field_coeffs counts them
        x = v[[0, 9], 1] + 1j * v[[1, 10], 1]
        y = v[[2, 11], 1] + 1j * v[[3, 12], 1]
        _check_labels(np.repeat(times[1], 2), x, y)
        ref = ProductState(x=x[0], y=y[0])
        p_end = ProductState(x=x[1], y=y[1])
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
    return LyapunovSeries(window_ends=ends, running=running, rhs_evals=rhs_evals)

