"""Self-consistent mean-field flow of product coherent states.

The mean-field ansatz keeps the joint state a product of coherent states
with complex labels (x, y) and accumulated phases.  The labels obey

    oscillator: dx/dt = -i (a_0 x + a_+)
    spin:       dy/dt = -i b_+ - i b_0 y + i conj(b_+) y^2

with the self-consistent coefficients of model.mean_field_coeffs: a_0 and
b_0 real, a_- = conj(a_+) and b_- = conj(b_+) on a hermitian model.  Each
degree also accumulates two action-like phases: the fiducial phase rate
(eta) that makes exp(i eta) D(z)|0> solve the one-body Schroedinger
equation, and the first-excited rate (s1) doing the same for D(z)|1>.
Their closed forms are

    oscillator: deta = -Im(dz conj(z)) - a_0 |z|^2 - 2 Re(a_+ conj(z))
                     = -Re(a_+ conj(z))
                ds1  = deta - a_0
    spin:       deta = [-2j Im(dz conj(z))
                        + j (b_0 (1-|z|^2) - 4 Re(b_+ conj(z)))] / (1+|z|^2)
                     = j (b_0 - 2 Re(b_+ conj(z)))
                ds1  = deta (j-1)/j

both validated against numerically differentiated matrix elements in the
tests.  The first form of deta is the geometric phase less the energy;
with dz the flow's own velocity the |z|^2 terms cancel exactly and it
reduces to the second, which the right-hand side computes.

The right-hand side is written in Python real floats, on the independent
half of the mean field only, and builds no complex object: each label
enters as its real and imaginary parts, |z|^2 as zr*zr + zi*zi, and each
complex product above is taken on real and imaginary parts.  For the
bilinear class (either degree may be an oscillator or a spin, and every
independent alpha, beta and gamma entry enters) _flow_rhs composes the
one definitions: algebra.expectations of each degree,
model.mean_field_coeffs for both degrees' coefficients (c_0, Re c_+,
Im c_+) and the coupling counterterm, then _degree_rates of each degree
for its label velocity's two parts and phase rates.  It returns a tuple of
nine floats, which VODE converts itself, and builds no array.  Only the
maser's body is fused: a model whose field comes first, whose spin comes
second and whose only nonzero scalars are alpha_0, beta_0, Re gamma_++
and Re gamma_+- (every maser_hamiltonian model) gets _maser_rhs, one
Python call per evaluation, which writes the composition out in one body
with each term of a zero coefficient deleted and every other term kept
in its place.  For finite operands it returns the composition's bits,
apart from the sign of an exactly zero rate.

_flow_rhs is the one definition of the flow: _tangent_rhs evaluates the
function it binds once at label parts a complex step off the real ones,
whose imaginary parts then carry the Jacobian-vector product.

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
unrelated ValueError.  The RHS checks nothing itself, but an interrupt
(KeyboardInterrupt) or an arithmetic error (an OverflowError from |z|^2)
can still arise in it, so _solve catches the first exception, returns
NaNs until VODE stops, and raises that exception again once VODE has
returned.  An exception raised before the guard, by a signal handler at
the callback's first bytecode, is lost inside VODE and surfaces later as
a SystemError from it; _solve raises the exception itself.
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
from .model import BilinearHamiltonian, classical_energy, mean_field_coeffs


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


def _pack(s: ProductState) -> np.ndarray:
    return np.array([s.x.real, s.x.imag, s.y.real, s.y.imag, s.eta_x, s.eta_y, 0.0, 0.0, 0.0])


def _degree_rates(
    group: GroupKind, zr: float, zi: float, coeffs: tuple[float, float, float]
) -> tuple[float, float, float, float]:
    """Label velocity (Re dz, Im dz) and phase rates (deta, ds1) of one degree at z = zr + i zi.

    coeffs are its (c_0, Re c_+, Im c_+) from model.mean_field_coeffs; the
    forms are the module docstring's on real and imaginary parts.
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


def _flow_rhs(h: BilinearHamiltonian):
    """The flow's right-hand side rhs(t, v) of model h: nine rates at the state v, a tuple of Python floats.

    rhs composes algebra.expectations, model.mean_field_coeffs and
    _degree_rates, with the model and its groups bound here once.  Only
    + - * / act on the label parts, so _tangent_rhs may pass them complex.
    An oscillator-spin model whose 11 entries other than a0, b0, gppr and
    gpmr are exactly 0 gets _maser_rhs's fused body instead, which gives
    the composition's bits for finite operands.
    """
    a0, apr, api, b0, bpr, bpi, g00, g0pr, g0pi, gp0r, gp0i, gppr, gppi, gpmr, gpmi = h.scalars
    group_a, group_b = h.group_a, h.group_b
    if not group_a.is_spin and group_b.is_spin and not any((apr, api, bpr, bpi, g00, g0pr, g0pi, gp0r, gp0i, gppi, gpmi)):
        return _maser_rhs(a0, b0, gppr, gpmr, group_b.j)

    def rhs(t: float, v: list[float]) -> tuple[float, ...]:
        xr, xi, yr, yi = v[:4]
        a, b, dphi = mean_field_coeffs(h, expectations(group_a, xr, xi), expectations(group_b, yr, yi))
        dxr, dxi, deta_x, ds1_x = _degree_rates(group_a, xr, xi, a)
        dyr, dyi, deta_y, ds1_y = _degree_rates(group_b, yr, yi, b)
        return dxr, dxi, dyr, dyi, deta_x, deta_y, ds1_x, ds1_y, dphi

    return rhs


def _maser_rhs(a0: float, b0: float, gppr: float, gpmr: float, jb: float):
    """_flow_rhs's fused body for an oscillator then a spin whose only nonzero scalars are a0, b0, gppr and gpmr.

    It writes out algebra.expectations, model.mean_field_coeffs and
    _degree_rates in their operation order, with each term whose bound
    coefficient is 0 deleted and every other term kept in its place, so
    that spr is gppr * ear + gpmr * ear, not (gppr + gpmr) * ear.  For
    finite operands a + 0 * x and a - 0 * x equal a, apart from the sign
    of an exactly zero result, so every rate keeps the composition's bits,
    and this body must keep them if those definitions change.  An infinite
    intermediate (an overflowed |x|^2, which this body does not compute)
    can make the composition's rates NaN through 0 * inf where these stay
    finite.
    """

    def maser_rhs(t: float, v: list[float]) -> tuple[float, ...]:
        xr, xi, yr, yi = v[:4]
        ear, eai = xr, -xi
        ry = yr * yr + yi * yi
        den = 1.0 + ry
        inv = 1.0 / den
        eb0, ebr, ebi = -jb * (1.0 - ry) / den, 2.0 * jb * yr * inv, -2.0 * jb * yi * inv
        # s_0 is 0 and the field's c_0 is a0, so the spin's coefficients are (b0, spr, spi)
        spr = gppr * ear + gpmr * ear
        spi = gppr * eai - gpmr * eai
        cpr = gppr * ebr + gpmr * ebr
        cpi = gppr * ebi - gpmr * ebi
        dphi = 2.0 * (spr * ebr - spi * ebi)
        drive = cpr * xr + cpi * xi
        dxr, dxi = a0 * xi + cpi, -(a0 * xr + cpr)
        deta_x = -drive
        ds1_x = deta_x - a0
        drive = spr * yr + spi * yi
        wr = yr * yr - yi * yi
        wi = 2.0 * yr * yi
        dyr = spi + b0 * yi - (spr * wi - spi * wr)
        dyi = (spr * wr + spi * wi) - spr - b0 * yr
        deta_y = jb * (b0 - 2.0 * drive)
        ds1_y = deta_y * (jb - 1.0) / jb
        return dxr, dxi, dyr, dyi, deta_x, deta_y, ds1_x, ds1_y, dphi

    return maser_rhs


# The complex step: its square (1e-200) is lost against every real part
# the flow sums, while _STEP times a unit tangent's component stays normal.
_STEP = 1e-100


def _tangent_rhs(h: BilinearHamiltonian):
    """Rates of the flow of h, its unit tangent u in (x / sqrt(4j), y) and rho = log |tangent|: 9 + 4 + 1 floats.

    The returned tangent(t, v) evaluates _flow_rhs(h) once, at the labels
    plus i _STEP (sqrt(4j) u_x, u_y): the rates are its real parts and J u,
    over the step, its imaginary parts, exact to rounding (Squire & Trapp,
    SIAM Rev. 40, 110, 1998).  With r = u . J u / |u|^2, du/dt = J u - r u
    holds |u| fixed and drho/dt = r.  The division keeps |u| = 1 neutral:
    without it, a contraction (u . J u reaches -6e3 where a spin label
    passes |y| = 100) drives |u| away from 1 and VODE fails.
    """
    rhs = _flow_rhs(h)
    g = h.group_b if h.group_b.is_spin else h.group_a  # j = 1/4 if neither degree is a spin
    sx = _STEP * (math.sqrt(4.0 * g.j) if g.is_spin else 1.0)

    def tangent(t: float, v: list[float]) -> tuple[float, ...]:
        xr, xi, yr, yi, *_, ur, ui, wr, wi, _ = v
        f = rhs(t, [complex(xr, sx * ur), complex(xi, sx * ui), complex(yr, _STEP * wr), complex(yi, _STEP * wi)])
        jur, jui, jwr, jwi = f[0].imag / sx, f[1].imag / sx, f[2].imag / _STEP, f[3].imag / _STEP
        rate = (ur * jur + ui * jui + wr * jwr + wi * jwi) / (ur * ur + ui * ui + wr * wr + wi * wi)
        return (*(c.real for c in f), jur - rate * ur, jui - rate * ui, jwr - rate * wr, jwi - rate * wi, rate)

    return tangent


# A step below _MIN_STEP ends VODE's call; this is what stops it within
# about a hundred evaluations once the guarded RHS returns NaNs.  Without
# it VODE accepts NaN steps until _MAX_STEPS, which bounds the steps of
# one sample interval: the fig1 states take 50 to 110 per unit time at
# the default tolerances.
_MIN_STEP = 1e-12
_MAX_STEPS = 10**6
# The most samples, or Lyapunov windows, one run may ask for (fig1 takes 501 and 300).
_MAX_COUNT = 10**6


def _lost(exc: BaseException) -> BaseException:
    """The exception that C VODE lost in a callback, if exc is how it surfaced; otherwise exc.

    An exception raised in the callback before its guard (a signal
    handler runs at its first bytecode) stays set inside VODE.  The next C
    call that returns a result, the next callback's v.tolist() or VODE's
    own return, raises a SystemError from it, and ode.integrate wraps a
    SystemError of VODE's return in a ValueError.
    """
    system_error = exc.__cause__ if isinstance(exc, ValueError) else exc
    if isinstance(system_error, SystemError) and system_error.__cause__ is not None:
        return system_error.__cause__
    return exc


def _solve(rhs, v0: np.ndarray, times: np.ndarray, cfg: IntegratorConfig):
    """Integrate dv/dt = rhs(t, v) from v0 at times[0]; return (samples, evaluations).

    rhs gets v as a list of Python floats, converted from VODE's array once
    per evaluation.  samples[:, i] is the state at times[i].  VODE's Adams
    method runs once per sample time and ends before this returns, so no two
    VODE instances ever interleave (older scipy builds of VODE are not
    re-entrant).  The first exception the RHS raises, or that VODE lost
    at the callback's entry (see _lost), is raised again, unchanged, after
    VODE's call returns; a VODE failure raises IntegrationError with the
    time.
    """
    caught: list[BaseException] = []
    evals = 0
    nan = np.full(len(v0), np.nan)

    def guarded(t: float, v: np.ndarray) -> tuple[float, ...] | np.ndarray:
        nonlocal evals
        evals += 1
        if not caught:
            # every exception, interrupts included: VODE would lose it
            try:
                return rhs(t, v.tolist())
            except BaseException as exc:
                caught.append(_lost(exc))
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
            try:
                out[:, i] = solver.integrate(times[i])
            except (SystemError, ValueError) as exc:
                lost = _lost(exc)
                if lost is exc:
                    raise
                caught.append(lost)
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


def capped_count(span: float, step: float, what: str) -> float:
    """span / step, or a ValueError naming what if it exceeds _MAX_COUNT, before an array that long is built."""
    if not span / step <= _MAX_COUNT:
        raise ValueError(f"{span:g} / {step:g} asks for more than {_MAX_COUNT} {what}")
    return span / step


def _sample_grid(t_final: float, dt: float) -> np.ndarray:
    n = int(math.floor(capped_count(t_final, dt, "samples") + 1e-9))
    times = dt * np.arange(n + 1)
    # a last grid point within rounding of t_final is snapped to it, unless it is t = 0
    if n == 0 or times[-1] < t_final - 1e-12 * max(1.0, t_final):
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
    with the time; an exception raised in the RHS is raised as it is.
    """
    if not t_final > 0.0:
        raise ValueError("t_final must be positive")
    times = _sample_grid(t_final, cfg.sample_dt)
    v, rhs_evals = _solve(_flow_rhs(h), _pack(s0), times, cfg)
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


def label_distances(t1: Trajectory, t2: Trajectory, group_a: GroupKind, group_b: GroupKind) -> tuple[np.ndarray, np.ndarray]:
    """Distance exponents (d_field, d_spin) of two trajectories on one sample grid, one value per sample.

    Each is algebra.overlap_exponent of that degree's labels at the sample,
    so the pair overlap modulus squared is exp(-(d_field + d_spin)).
    """
    # the scalar form per sample: numpy's log1p and abs round some inputs an ulp apart from it
    return tuple(
        np.array([overlap_exponent(g, a, b) for a, b in zip(z1.tolist(), z2.tolist(), strict=True)])
        for g, z1, z2 in ((group_a, t1.x, t2.x), (group_b, t1.y, t2.y))
    )


def window_count(t_total: float, window: float) -> int:
    """Number of windows of length window in t_total, which must be a whole number."""
    q = capped_count(t_total, window, "windows")
    if abs(q - round(q)) > 1e-9 * q:
        raise ValueError(f"t_total {t_total} is not a whole number of windows of length {window}")
    return round(q)


class LyapunovSeries(NamedTuple):
    """Window ends, the running exponent estimate at each, and the
    right-hand-side evaluations of the one integration."""

    window_ends: np.ndarray
    running: np.ndarray
    rhs_evals: int


def lyapunov_series(
    h: BilinearHamiltonian,
    s0: ProductState,
    t_total: float = 300.0,
    window: float = 1.0,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> LyapunovSeries:
    """Largest-Lyapunov estimate in the scaled classical coordinates (x / sqrt(4j), y).

    One VODE call carries the unit tangent from the scaled real field
    direction with the flow from s0 (_tangent_rhs; Benettin et al.,
    Meccanica 15, 9, 1980); the running exponent at window end t is rho(t)
    / t.  t_total must be a whole number of windows.  A label out of range
    at a window end raises IntegrationError with the time.
    """
    if not (t_total > 0.0 and 0.0 < window <= t_total):
        raise ValueError("need t_total > 0, 0 < window <= t_total")
    times = window * np.arange(window_count(t_total, window) + 1.0)
    v0 = np.concatenate([_pack(s0), [1.0, 0.0, 0.0, 0.0, 0.0]])
    v, rhs_evals = _solve(_tangent_rhs(h), v0, times, cfg)
    _check_labels(times, v[0] + 1j * v[1], v[2] + 1j * v[3])
    return LyapunovSeries(window_ends=times[1:], running=v[13, 1:] / times[1:], rhs_evals=rhs_evals)
