"""Coherent-state kinematics for a single oscillator or spin degree of freedom.

This module fixes the displacement conventions and is the one home of the
closed forms the rest of the library is built on: overlaps between coherent
states and their distance exponent, generator expectation values, the rows
expressing a displaced generator as a combination of generators plus a
scalar, and the generators' bands in a truncated basis.  Every closed form
here is cross-checked in the tests against literal truncated-basis matrix
algebra.

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

import cmath
import math
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np
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
    # a stored flag, not a property: expectations and overlap_exponent read it on every call
    is_spin: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "is_spin", self.kind == "spin")
        if self.kind not in ("heisenberg", "spin"):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.kind == "heisenberg":
            if self.j is not None:
                raise ValueError("heisenberg degree carries no spin magnitude")
        else:
            if self.j is None:
                raise ValueError("spin degree needs a magnitude j")
            two_j = 2.0 * self.j
            # round() raises OverflowError on an infinite 2j; a 2j that rounds to 0 has no states
            if not math.isfinite(two_j) or round(two_j) < 1 or abs(two_j - round(two_j)) > 1e-12:
                raise ValueError(f"spin magnitude must be positive half-integer, got {self.j}")

    @property
    def dim(self) -> int:
        """Hilbert-space dimension of a spin degree (2j+1); spins only."""
        if not self.is_spin:
            raise ValueError("oscillator degree has no finite dimension")
        return round(2.0 * self.j) + 1


HEISENBERG = GroupKind("heisenberg")


def spin(j: float) -> GroupKind:
    return GroupKind("spin", float(j))


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
    Spin: (1 + conj(z1) z2)^(2j) / [(1+|z1|^2)(1+|z2|^2)]^j.
    The modulus is exp(-overlap_exponent / 2); only the phase is formed
    here: Im(conj(z1) z2) for the oscillator, 2j arg(1 + conj(z1) z2) for
    a spin (2j is an integer, so no branch ambiguity arises).
    """
    z1 = _check_label(z1)
    z2 = _check_label(z2)
    if group.is_spin:
        w = _one_plus_conj_product(z1, z2)
        # math.atan2, not cmath.phase, which raises when the angle underflows
        phase = 2.0 * group.j * math.atan2(w.imag, w.real)
    else:
        phase = (z1.conjugate() * z2).imag
    return cmath.exp(complex(-0.5 * overlap_exponent(group, z1, z2), phase))


def overlap_exponent(group: GroupKind, z1: complex, z2: complex) -> float:
    """Distance exponent -log |<z1|z2>|^2 of two coherent labels on one degree.

    Oscillator: |z1-z2|^2.  Spin: -2j log(1 - q) with
    q = |z1-z2|^2 / [(1+|z1|^2)(1+|z2|^2)], taken as -2j log1p(-q) while
    q <= 1/2, so neighbouring labels keep their digits, and as -2j log of
    the base |1 + conj(z1) z2|^2 / [(1+|z1|^2)(1+|z2|^2)] beyond, so
    labels next to antipodal keep theirs.  There 1 + conj(z1) z2 cancels,
    so it is summed from error-free products and rounded once.  Exactly
    antipodal labels give inf.
    """
    d2 = abs(z1 - z2) ** 2
    if not group.is_spin:
        return d2
    norms = (1.0 + abs(z1) ** 2) * (1.0 + abs(z2) ** 2)
    q = d2 / norms
    if q <= 0.5:
        return -2.0 * group.j * math.log1p(-q)
    w = _one_plus_conj_product(z1, z2)
    base = (w.real * w.real + w.imag * w.imag) / norms
    return math.inf if base == 0.0 else -2.0 * group.j * math.log(base)


def _one_plus_conj_product(z1: complex, z2: complex) -> complex:
    """1 + conj(z1) z2, each part summed from error-free products and rounded once.

    Next to antipodal labels the sum cancels; this keeps its relative
    accuracy, which the spin overlap's modulus and phase both need.
    """
    a, b, c, d = z1.real, z1.imag, z2.real, z2.imag
    re = math.fsum((1.0, *_two_product(a, c), *_two_product(b, d)))
    im = math.fsum((*_two_product(a, d), *_two_product(-b, c)))
    return complex(re, im)


def _two_product(a: float, b: float) -> tuple[float, float]:
    """Dekker's error-free product: a*b rounded, and its exact rounding error.

    Exact while no partial product overflows or underflows, which holds for
    labels within _LABEL_BOUND (up to underflow of terms far below 1).
    """
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _split(a: float) -> tuple[float, float]:
    # Veltkamp's split into two halves of 26 significant bits each
    t = 134217729.0 * a  # 2^27 + 1
    hi = t - (t - a)
    return hi, a - hi


def expectations(group: GroupKind, zr: float, zi: float) -> tuple[float, float, float]:
    """The independent coherent expectation values (<A_0>, Re <A_+>, Im <A_+>) at z = zr + i zi.

    Oscillator: <a^dag a> = |z|^2, <a^dag> = conj(z), <a> = z.
    Spin: <J_z> = -j (1-|z|^2)/(1+|z|^2), <J_+> = 2j conj(z)/(1+|z|^2),
    <J_-> = 2j z/(1+|z|^2).  The induced Bloch vector has length j exactly.
    The generators are hermitian conjugate pairs (A_0 hermitian, A_- the
    adjoint of A_+), so <A_0> is real and <A_-> = conj(<A_+>) is not
    returned.  Real Python floats, with |z|^2 taken as zr*zr + zi*zi: the
    flow's right-hand side (dynamics._flow_rhs) computes these in its own
    body in the same operation order, and must keep the bits of this form.
    The label is not range-checked: the flow checks it on entry and exit.
    """
    r2 = zr * zr + zi * zi
    if not group.is_spin:
        return r2, zr, -zi
    j = group.j
    den = 1.0 + r2
    # <J_+> scales by 1/den: the rounding that the recorded reference
    # outputs of the fig1 labels were made with
    inv = 1.0 / den
    return -j * (1.0 - r2) / den, 2.0 * j * zr * inv, -2.0 * j * zi * inv


def group_relation_coeffs(group: GroupKind, z) -> tuple[np.ndarray, np.ndarray]:
    """Rows of A_i D(z) = D(z) (sum_k g_ik A_k + k_i) for a label or an array of labels.

    Returns (g, k) with g[i, k] and k[i] shaped like z, both indices ordered
    (ZERO, PLUS, MINUS).  The oscillator rows follow from D^dag a D = a + z;
    the spin rows are the adjoint rotation of (J_z, J_+, J_-) by the
    displacement and carry no scalar part.
    """
    z = np.asarray(z, dtype=complex)
    zc = np.conj(z)
    one = np.ones_like(z)
    zero = np.zeros_like(z)
    if not group.is_spin:
        g = [[one, z, zc], [zero, one, zero], [zero, zero, one]]
        return np.array(g), np.array([np.abs(z) ** 2, zc, z])
    den = 1.0 + np.abs(z) ** 2
    g = [
        [(1.0 - np.abs(z) ** 2) / den, z / den, zc / den],
        [-2.0 * zc / den, one / den, -(zc * zc) / den],
        [-2.0 * z / den, -(z * z) / den, one / den],
    ]
    return np.array(g), np.array([zero, zero, zero])


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
# Truncated-basis representations: the generators' bands and the coherent
# vectors the oracle is built from, against which the tests also check the
# closed forms above.


def _generator_bands(group: GroupKind, truncation: int | None = None) -> tuple[tuple[int, np.ndarray], ...]:
    """(offset, values) of each of (A_0, A_+, A_-): A[n, n + offset] = values[n], 0 where n + offset leaves the basis.

    Each generator fills one diagonal: A_0 the main one, the raising A_+
    the one below it (offset -1) and the lowering A_- the one above (+1).
    A spin has 2j + 1 basis states |j,-j+k>; an oscillator keeps the
    lowest `truncation` Fock states.
    """
    if group.is_spin:
        k = np.arange(group.dim)
        zero = -group.j + k
        # <k+1|J_+|k>; J_- is its adjoint
        plus = np.sqrt((2.0 * group.j - k[:-1]) * (k[:-1] + 1.0)).astype(complex)
        minus = plus.conj()
    else:
        if truncation is None:
            raise ValueError("oscillator matrices need an explicit truncation")
        if truncation < 1:
            raise ValueError("need at least one Fock state")
        zero = np.arange(truncation, dtype=float)
        # <n|a|n+1>; a^dag is its adjoint
        minus = np.sqrt(np.arange(1, truncation)).astype(complex)
        plus = minus.conj()
    zeros = np.zeros(1, dtype=complex)
    return (0, zero.astype(complex)), (-1, np.concatenate([zeros, plus])), (1, np.concatenate([minus, zeros]))


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
