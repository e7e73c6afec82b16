"""Coherent-state kinematics for a single oscillator or spin degree of freedom.

This module fixes the displacement conventions and provides the closed forms
the rest of the library is built on: overlaps between coherent states,
generator expectation values, and the rows expressing a displaced generator
as a combination of generators plus a scalar.  Every closed form here is
cross-checked in the tests against literal truncated-basis matrix algebra.

Conventions (see docs/conventions.md, version CONVENTIONS_VERSION):

* Oscillator ("heisenberg"): generators (a^dag a, a^dag, a), fiducial |0>,
  displacement D(z) = exp(z a^dag - z* a).  The fiducial overlap <0|z> is
  real positive, exp(-|z|^2 / 2).
* Spin ("spin", magnitude j): generators (J_z, J_+, J_-), fiducial |j,-j>,
  displacement D(z) = exp[(atan|z|/|z|) (z J_+ - z* J_-)].  In the basis
  |j,-j+k> this state is (1+|z|^2)^(-j) sum_k sqrt(C(2j,k)) z^k |j,-j+k>,
  so <j,-j|z> is real positive and |z| -> infinity approaches |j,+j>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln

CONVENTIONS_VERSION = "1.0"

_LABEL_BOUND = 1e6  # labels far beyond any physical regime indicate a bug


class CohChaosError(Exception):
    """Base class for errors raised by this package."""


class TruncationError(CohChaosError):
    """A truncated basis is too small for the requested state."""


class Gen(IntEnum):
    """Generator index: number-like generator, then raising, then lowering."""

    ZERO = 0
    PLUS = 1
    MINUS = 2


@dataclass(frozen=True)
class GroupKind:
    """Which coherent-state family a degree of freedom lives in.

    kind is "heisenberg" for the oscillator or "spin" for su(2); j is the
    spin magnitude (half-integer, positive) and must be None for the
    oscillator.
    """

    kind: str
    j: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("heisenberg", "spin"):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind == "heisenberg":
            if self.j is not None:
                raise ValueError("heisenberg degree carries no spin magnitude")
        else:
            if self.j is None:
                raise ValueError("spin degree needs a magnitude j")
            two_j = 2.0 * self.j
            if self.j <= 0 or abs(two_j - round(two_j)) > 1e-12:
                raise ValueError(f"spin magnitude must be positive half-integer, got {self.j}")

    @property
    def is_spin(self) -> bool:
        return self.kind == "spin"

    @property
    def dim(self) -> int:
        """Hilbert-space dimension of a spin degree (2j+1); spins only."""
        if not self.is_spin:
            raise ValueError("oscillator degree has no finite dimension")
        return round(2.0 * self.j) + 1


HEISENBERG = GroupKind("heisenberg")


def spin(j: float) -> GroupKind:
    return GroupKind("spin", float(j))


@dataclass(frozen=True)
class GroupRelationRow:
    """Row of the displaced-generator relation A_i D(z) = D(z) (sum_k g_ik A_k + k_i).

    g is ordered (ZERO, PLUS, MINUS).  For the spin family the scalar part
    k_i vanishes identically; for the oscillator it carries the label shift.
    """

    g: tuple[complex, complex, complex]
    k: complex


class DisplacedVector(NamedTuple):
    """Truncated-basis representation of D(z)|fiducial_index> plus its norm deficit."""

    vector: np.ndarray
    norm_deficit: float


def _check_label(z: complex) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"coherent label must be finite, got {z!r}")
    if abs(z) > _LABEL_BOUND:
        raise ValueError(f"coherent label magnitude {abs(z):.3e} exceeds sanity bound")
    return z


def overlap(group: GroupKind, z1: complex, z2: complex) -> complex:
    """Complex overlap <z1|z2> of two normalized coherent states.

    Oscillator: exp(-|z1|^2/2 - |z2|^2/2 + conj(z1) z2).
    Spin: (1 + conj(z1) z2)^(2j) / [(1+|z1|^2)(1+|z2|^2)]^j, evaluated in
    log space; the exponent 2j is an integer so no branch ambiguity arises.
    """
    z1 = _check_label(z1)
    z2 = _check_label(z2)
    if z1 == z2:
        return 1.0 + 0.0j
    if not group.is_spin:
        return complex(np.exp(-0.5 * abs(z1) ** 2 - 0.5 * abs(z2) ** 2 + np.conj(z1) * z2))
    j = group.j
    w = 1.0 + np.conj(z1) * z2
    if w == 0:
        return 0.0 + 0.0j
    log_den = j * (math.log1p(abs(z1) ** 2) + math.log1p(abs(z2) ** 2))
    return complex(np.exp(2.0 * j * np.log(w) - log_den))


def overlap_modulus_sq(group: GroupKind, z1: complex, z2: complex) -> float:
    """Squared modulus of the coherent overlap, clamped to [0, 1].

    Oscillator: exp(-|z1-z2|^2).  Spin: the base
    1 - |z1-z2|^2 / [(1+|z1|^2)(1+|z2|^2)] raised to the power 2j, with the
    base clamped at zero so antipodal labels give exactly 0.
    """
    z1 = _check_label(z1)
    z2 = _check_label(z2)
    if z1 == z2:
        return 1.0
    d2 = abs(z1 - z2) ** 2
    if not group.is_spin:
        return float(np.exp(-d2))
    base = 1.0 - d2 / ((1.0 + abs(z1) ** 2) * (1.0 + abs(z2) ** 2))
    if base <= 0.0:
        return 0.0
    return float(min(1.0, base ** (2.0 * group.j)))


def expectations(group: GroupKind, z: complex) -> np.ndarray:
    """Coherent expectation values of the generators, ordered (ZERO, PLUS, MINUS).

    Oscillator: <a^dag a> = |z|^2, <a^dag> = conj(z), <a> = z.
    Spin: <J_z> = -j (1-|z|^2)/(1+|z|^2), <J_+> = 2j conj(z)/(1+|z|^2),
    <J_-> = 2j z/(1+|z|^2).  The induced Bloch vector has length j exactly.
    The label is not range-checked: the flow checks it on entry and exit.
    """
    z = complex(z)
    if not group.is_spin:
        return np.array([abs(z) ** 2, np.conj(z), z], dtype=complex)
    j = group.j
    den = 1.0 + abs(z) ** 2
    return np.array(
        [-j * (1.0 - abs(z) ** 2) / den, 2.0 * j * np.conj(z) / den, 2.0 * j * z / den], dtype=complex
    )


def group_relation_coeffs(group: GroupKind, index: Gen, z: complex) -> GroupRelationRow:
    """Coefficients of A_index D(z) = D(z) (sum_k g_k A_k + k).

    The oscillator rows follow from D^dag a D = a + z; the spin rows are the
    adjoint rotation of (J_z, J_+, J_-) by the displacement and carry no
    scalar part.
    """
    z = _check_label(z)
    index = Gen(index)
    zc = complex(np.conj(z))
    if not group.is_spin:
        if index is Gen.ZERO:
            return GroupRelationRow(g=(1.0 + 0j, z, zc), k=complex(abs(z) ** 2))
        if index is Gen.PLUS:
            return GroupRelationRow(g=(0j, 1.0 + 0j, 0j), k=zc)
        return GroupRelationRow(g=(0j, 0j, 1.0 + 0j), k=z)
    den = 1.0 + abs(z) ** 2
    if index is Gen.ZERO:
        g = ((1.0 - abs(z) ** 2) / den, z / den, zc / den)
    elif index is Gen.PLUS:
        g = (-2.0 * zc / den, 1.0 / den, -(zc * zc) / den)
    else:
        g = (-2.0 * z / den, -(z * z) / den, 1.0 / den)
    return GroupRelationRow(g=tuple(complex(v) for v in g), k=0j)


def raising_matrix_element(group: GroupKind) -> float:
    """Matrix element <1|A_+|0> between the fiducial and first excited state.

    Equals 1 for the oscillator and sqrt(2j) for a spin; the product of
    these factors over both degrees normalizes the first-order correction
    kernel.
    """
    if not group.is_spin:
        return 1.0
    return math.sqrt(2.0 * group.j)


# ---------------------------------------------------------------------------
# Truncated-basis matrix representations.  These are the slow, literal
# objects the closed forms above are validated against, and the oracle's
# building blocks.


def boson_operators(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (a, a^dag, n) on the lowest `dim` Fock states."""
    if dim < 1:
        raise ValueError("need at least one Fock state")
    a = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a, a.conj().T, np.diag(np.arange(dim, dtype=float)).astype(complex)


def spin_matrices(j: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (J_z, J_+, J_-) in the basis |j,-j+k>, k = 0 .. 2j."""
    g = spin(j)
    dim = g.dim
    k = np.arange(dim)
    jz = np.diag(-g.j + k).astype(complex)
    jp = np.zeros((dim, dim), dtype=complex)
    jp[k[:-1] + 1, k[:-1]] = np.sqrt((2.0 * g.j - k[:-1]) * (k[:-1] + 1.0))
    return jz, jp, jp.conj().T


def generator_matrices(group: GroupKind, truncation: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Matrices (A_0, A_+, A_-) for one degree, truncated for the oscillator."""
    if group.is_spin:
        return spin_matrices(group.j)
    if truncation is None:
        raise ValueError("oscillator matrices need an explicit truncation")
    a, ad, n = boson_operators(truncation)
    return n, ad, a


def displacement_matrix(group: GroupKind, z: complex, truncation: int | None = None) -> np.ndarray:
    """Matrix of D(z), exact for spins, truncated for the oscillator."""
    z = _check_label(z)
    if group.is_spin:
        jz, jp, jm = spin_matrices(group.j)
        r = abs(z)
        # xi = z * atan(r)/r with the smooth r -> 0 limit
        if r < 1e-8:
            xi = z * (1.0 - r * r / 3.0)
        else:
            xi = z * math.atan(r) / r
        return expm(xi * jp - np.conj(xi) * jm)
    _, ad, _ = boson_operators(int(truncation))
    a = ad.conj().T
    return expm(z * ad - np.conj(z) * a)


def _field_coherent_amplitudes(z: complex, dim: int) -> np.ndarray:
    """Amplitudes of D(z)|0> on |0..dim-1>, computed in log space."""
    n = np.arange(dim)
    r = abs(z)
    if r == 0.0:
        out = np.zeros(dim, dtype=complex)
        out[0] = 1.0
        return out
    logmag = -0.5 * r * r + n * math.log(r) - 0.5 * gammaln(n + 1.0)
    phase = n * math.atan2(z.imag, z.real)
    return np.exp(logmag + 1j * phase)


def _spin_coherent_amplitudes(j: float, z: complex, dim: int) -> np.ndarray:
    """Amplitudes of D(z)|j,-j> on |j,-j+k>: (1+|z|^2)^(-j) sqrt(C(2j,k)) z^k."""
    k = np.arange(dim)
    two_j = round(2.0 * j)
    log_binom = gammaln(two_j + 1.0) - gammaln(k + 1.0) - gammaln(two_j - k + 1.0)
    r = abs(z)
    if r == 0.0:
        out = np.zeros(dim, dtype=complex)
        out[0] = 1.0
        return out
    logmag = -j * math.log1p(r * r) + 0.5 * log_binom + k * math.log(r)
    phase = k * math.atan2(z.imag, z.real)
    return np.exp(logmag + 1j * phase)


def displaced_basis_vector(
    group: GroupKind,
    z: complex,
    fiducial_index: int = 0,
    truncation: int | None = None,
    deficit_tol: float = 1e-10,
) -> DisplacedVector:
    """Truncated-basis vector D(z)|fiducial_index> with its norm deficit.

    Spin vectors are exact (deficit 0).  Oscillator vectors for fiducial
    index 0 and 1 use closed forms; higher fiducials fall back to the
    truncated matrix exponential.  The vector is returned unnormalized, so
    its norm shortfall reports the truncation loss; a deficit above
    `deficit_tol` raises TruncationError.
    """
    z = _check_label(z)
    if fiducial_index < 0:
        raise ValueError("fiducial index must be nonnegative")
    if group.is_spin:
        dim = group.dim
        if fiducial_index >= dim:
            raise ValueError(f"fiducial index {fiducial_index} outside spin dimension {dim}")
        if fiducial_index == 0:
            vec = _spin_coherent_amplitudes(group.j, z, dim)
        else:
            vec = displacement_matrix(group, z)[:, fiducial_index].copy()
        return DisplacedVector(vector=vec, norm_deficit=0.0)

    if truncation is None or truncation < 1:
        raise ValueError("oscillator vectors need a positive truncation")
    dim = int(truncation)
    if fiducial_index >= dim:
        raise ValueError(f"fiducial index {fiducial_index} outside truncation {dim}")
    if fiducial_index == 0:
        vec = _field_coherent_amplitudes(z, dim)
    elif fiducial_index == 1:
        # D(z)|1> = (a^dag - conj(z)) D(z)|0>
        coh = _field_coherent_amplitudes(z, dim)
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
