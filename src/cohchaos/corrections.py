"""First-order corrections on top of a mean-field trajectory.

The leading deviation from the product-coherent ansatz is carried by a
single doorway state: one excitation above the moving fiducial on each
factor. Its amplitude is the time integral of a kernel c(t) built from
the coupling matrix and the trajectory, and the short-time linear entropy
of either subsystem is 2|C(t)|^2 with C the cumulative integral.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import cumulative_trapezoid, trapezoid

from .algebra import CohChaosError, Gen, group_relation_coeffs, raising_matrix_element
from .dynamics import Trajectory
from .model import BilinearHamiltonian


@dataclass(frozen=True)
class CorrectionKernel:
    """Sampled kernel c(t) and its running integral C(t) on a trajectory grid.

    To first order the state at knot i is |mean field> - i cum[i] |doorway>,
    each component carrying its own action phase.
    """

    times: np.ndarray
    c: np.ndarray
    cum: np.ndarray


def build_kernel(traj: Trajectory, h: BilinearHamiltonian) -> CorrectionKernel:
    """Evaluate c(t) on every trajectory sample and integrate it.

    c(t) = sigma * e^{i (S0 - S1)} * sum_ij gamma_ij gA_i+(x) gB_j+(y)
    where sigma collects the fiducial raising matrix elements of the two
    factors and g_+ are the raising components of the relation rows.
    """
    ga = group_relation_coeffs(h.group_a, traj.x)[0][:, Gen.PLUS]
    gb = group_relation_coeffs(h.group_b, traj.y)[0][:, Gen.PLUS]
    quad = np.einsum("ij,in,jn->n", h.gamma, ga, gb)
    sigma = raising_matrix_element(h.group_a) * raising_matrix_element(h.group_b)
    c = sigma * np.exp(1j * (traj.s0 - traj.s1)) * quad
    cum = cumulative_trapezoid(c, traj.times, initial=0.0)
    return CorrectionKernel(times=traj.times, c=c, cum=cum)


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


def entropy_series(kernel: CorrectionKernel) -> np.ndarray:
    """2 |C|^2 on the full sample grid."""
    return 2.0 * np.abs(kernel.cum) ** 2


def save_kernel_csv(kernel: CorrectionKernel, path) -> None:
    """Write the kernel and entropy series as t, re_c, im_c, abs_C, delta2."""
    delta2 = entropy_series(kernel)
    path = Path(path)
    # ext4 forces a truncated-then-rewritten file out to disk on close; a new file is not
    path.unlink(missing_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "re_c", "im_c", "abs_C", "delta2"])
        for i in range(len(kernel.times)):
            writer.writerow(
                [
                    f"{v:.12g}"
                    for v in (
                        kernel.times[i],
                        kernel.c[i].real,
                        kernel.c[i].imag,
                        abs(kernel.cum[i]),
                        delta2[i],
                    )
                ]
            )
