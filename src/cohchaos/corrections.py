"""First-order corrections on top of a mean-field trajectory.

The leading deviation from the product-coherent ansatz is carried by a
single doorway state: one excitation above the moving fiducial on each
factor. Its amplitude is the time integral of a kernel c(t) built from
the coupling matrix and the trajectory, and the short-time linear entropy
of either subsystem is 2|C(t)|^2 with C the cumulative integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .algebra import Gen, group_relation_coeffs, raising_matrix_element
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


def entropy_series(kernel: CorrectionKernel) -> np.ndarray:
    """2 |C|^2 on the full sample grid."""
    return 2.0 * np.abs(kernel.cum) ** 2

