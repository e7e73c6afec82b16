"""Exact truncated-basis evolution of bilinear oscillator-spin models.

This is the ground truth the mean-field machinery is checked against. It
covers every BilinearHamiltonian of an oscillator and a spin, the same
object the mean-field flow integrates: states live on the product basis
|n> (x) |j,-j+k> with the spin index fastest, the Hamiltonian is assembled
sparsely from the generator matrices, and evolution uses a dense
eigendecomposition of its decoupled blocks below a dimension threshold and
a Chebyshev expansion of exp(-i H dt) above it (Tal-Ezer and Kosloff, J.
Chem. Phys. 81, 3967 (1984)): H is scaled once into [-1, 1] by its
Gershgorin interval, and each step sums Bessel-weighted Chebyshev
polynomials of the scaled sparse matrix, truncated where the neglected
coefficients add up to machine epsilon. Both paths evolve all states of a
run together and check their norms as they go.
"""

from __future__ import annotations

import cmath
import math
import warnings
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
# Unused here: the benchmark's trace wraps oracle.expm_multiply, as it does
# dynamics.solve_ivp, and needs the name to exist.
from scipy.sparse.linalg import expm_multiply  # noqa: F401
from scipy.special import gammainc, jv

from .algebra import (
    HEISENBERG,
    CohChaosError,
    TruncationError,
    _check_label,
    _field_coherent_amplitudes,
    _spin_coherent_amplitudes,
    generator_matrices,
    spin,
)
from .model import BilinearHamiltonian

# Largest dimension ExactEvolver diagonalizes; above it, Chebyshev steps
# (the "Krylov path": polynomials of the sparse matrix acting on the states).
_DENSE_LIMIT = 3000
# Largest product-space dimension a HilbertConfig accepts.
_DIMENSION_CAP = 20000
# Complex entries in one dense-path chunk of evolved states, summed over
# all states (1 MiB); a chunk this small keeps the grid from adding to the
# peak memory.
_GRID_CHUNK = 1 << 16
# Truncation of the Chebyshev series: the neglected tail of its coefficients.
_EPS = float(np.finfo(float).eps)
# Most Chebyshev orders one step may take (a sparse product each); a longer
# step raises instead of allocating a coefficient table without bound.
_MAX_CHEBYSHEV_ORDERS = 100_000
# (-i)^k for k mod 4, exact.
_MINUS_I_POWERS = np.array([1.0, -1.0j, -1.0, 1.0j])


class DimensionError(CohChaosError):
    """Requested Hilbert space exceeds the dimension cap."""


@dataclass(frozen=True)
class HilbertConfig:
    """Truncated product space: Fock states 0..n_max and a spin of magnitude j."""

    n_max: int
    j: float

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")
        if self.dim > _DIMENSION_CAP:  # dim reads spin(j), which rejects a bad j
            raise DimensionError(
                f"dimension {self.dim} exceeds cap {_DIMENSION_CAP} "
                f"(n_max = {self.n_max}, j = {self.j})"
            )

    @property
    def spin_dim(self) -> int:
        return spin(self.j).dim

    @property
    def dim(self) -> int:
        return (self.n_max + 1) * self.spin_dim


def recommended_n_max(x: complex) -> int:
    """Truncation policy |x|^2 + 8|x| + 20 for a coherent field label x."""
    r = abs(x)
    return int(math.ceil(r * r + 8.0 * r + 20.0))


def hilbert_for_labels(labels, j: float, n_max: int | None = None) -> HilbertConfig:
    """Config sized for the given field labels; raises a requested n_max with a warning if low."""
    need = max(recommended_n_max(x) for x in labels)
    if n_max is None:
        n_max = need
    elif n_max < need:
        warnings.warn(f"n_max raised from {n_max} to {need} to fit the field labels", stacklevel=2)
        n_max = need
    return HilbertConfig(n_max=n_max, j=j)


@dataclass(frozen=True)
class OracleState:
    """Normalized amplitude vector on a HilbertConfig basis."""

    amplitudes: np.ndarray
    config: HilbertConfig
    truncation_deficit: float = 0.0

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.config.dim,):
            raise ValueError(f"amplitudes shape {amps.shape} does not match dimension {self.config.dim}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def build_hamiltonian_matrix(h: BilinearHamiltonian, cfg: HilbertConfig) -> sp.csr_matrix:
    """Sparse matrix of a bilinear model on the product basis (spin index fastest).

    H = sum_i alpha_i A_i (x) 1 + sum_j beta_j 1 (x) B_j + sum_ij gamma_ij A_i (x) B_j,
    with A the oscillator generators truncated to Fock states 0..n_max and B
    the generators of the spin cfg.j.
    """
    if h.group_a != HEISENBERG or h.group_b != spin(cfg.j):
        raise ValueError(
            f"the basis needs an oscillator and a spin {cfg.j}, got {h.group_a} and {h.group_b}"
        )
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
    # Terms that cancel, such as omega n + epsilon m = 0 on the diagonal,
    # leave explicit zeros that would cost every matvec and merge decoupled
    # blocks.
    mat.eliminate_zeros()
    residual = abs(mat - mat.getH()).max()
    scale = max(1.0, abs(mat).max())
    if residual > 1e-12 * scale:
        raise CohChaosError(f"assembled Hamiltonian has hermiticity residual {residual:.3e}")
    return mat


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for complex a, without promoting a real b to complex."""
    if np.iscomplexobj(b):
        return a @ b
    out = np.empty(a.shape[:-1] + b.shape[-1:], dtype=complex)
    out.real = np.ascontiguousarray(a.real) @ b
    out.imag = np.ascontiguousarray(a.imag) @ b
    return out


def _block_eigensystems(h: sp.csr_matrix) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Eigendecompose the decoupled blocks of a Hermitian matrix.

    The blocks are the connected components of the sparsity graph, so they
    are exact by construction (the parity (-1)^(n+k) splits the fig1 model
    in two; with g' = 0 every excitation manifold is its own block). Each
    block gives one (index, evals, evecs) triple, where index lists its
    basis positions. A matrix with no imaginary entries is diagonalized in
    real arithmetic.
    """
    # Imported here: csgraph adds about 1 MiB at import that only this path needs.
    from scipy.sparse.csgraph import connected_components

    if not np.any(h.data.imag):
        h = h.real
    n_blocks, labels = connected_components(abs(h), directed=False)
    systems = []
    for b in range(n_blocks):
        index = np.flatnonzero(labels == b)
        evals, evecs = np.linalg.eigh(h[index][:, index].toarray())
        systems.append((index, evals, evecs))
    return systems


class ExactEvolver:
    """Reusable propagator for one Hamiltonian matrix.

    Up to _DENSE_LIMIT dimensions the decoupled blocks of the matrix are
    diagonalized once, and a whole time grid is then evolved with one phase
    table and two matrix products per block, shared by every state. Above
    it a Chebyshev expansion of exp(-i H dt) acts on all states at once,
    once per step between consecutive times.
    """

    def __init__(self, h_matrix: sp.spmatrix):
        h = h_matrix.tocsr()
        self._dim = h.shape[0]
        if self._dim <= _DENSE_LIMIT:
            self._blocks = _block_eigensystems(h)
            return
        self._blocks = None
        # H = centre + half_width * h_scaled, the spectrum of h_scaled in [-1, 1]
        self._centre, self._half_width = _gershgorin_interval(h)
        identity = sp.identity(self._dim, dtype=complex, format="csr")
        self._h_scaled = (h.astype(complex) - self._centre * identity) / self._half_width

    def _dense_grid(self, amplitudes: np.ndarray, times: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        # C = psi V^* per block, one row per state, then psi(t) = (exp(-i E t) C) V^T
        # for a chunk of times at once, one phase table shared by all states
        n_states = amplitudes.shape[0]
        coeffs = [amplitudes[:, index] @ evecs.conj() for index, _, evecs in self._blocks]
        rows = max(1, _GRID_CHUNK // (self._dim * n_states))
        for first in range(0, times.size, rows):
            chunk = times[first:first + rows]
            out = np.empty((chunk.size, n_states, self._dim), dtype=complex)
            for (index, evals, evecs), c in zip(self._blocks, coeffs):
                phases = np.exp(-1j * np.outer(chunk, evals))[:, None, :] * c
                block = _matmul(phases.reshape(-1, index.size), evecs.T)
                out[:, :, index] = block.reshape(chunk.size, n_states, index.size)
            yield chunk, out

    def _chebyshev_grid(self, amplitudes: np.ndarray, times: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        t_prev, psi = 0.0, np.ascontiguousarray(amplitudes.T)
        for t in times:
            if t != t_prev:
                psi = self._chebyshev_step(psi, float(t - t_prev))
                t_prev = t
            yield np.array([t]), psi.T[None]

    def _chebyshev_step(self, psi: np.ndarray, dt: float) -> np.ndarray:
        """exp(-i H dt) psi for a (dim, states) block, by the Chebyshev series."""
        coeffs = _chebyshev_coefficients(self._half_width * dt)
        h = self._h_scaled
        prev, cur = psi, h @ psi
        out = coeffs[0] * prev + coeffs[1] * cur
        for c in coeffs[2:]:
            # T_{k+1} = 2 h T_k - T_{k-1}
            nxt = h @ cur
            nxt *= 2.0
            nxt -= prev
            prev, cur = cur, nxt
            out += c * cur
        out *= cmath.exp(-1j * self._centre * dt)
        return out

    def evolve_grid(self, states: Sequence[OracleState], times: Iterable[float]) -> Iterator[tuple[OracleState, ...]]:
        """Yield, for each of times in order, the states evolved from t = 0 to it.

        There must be at least one state, each of the matrix's dimension
        (else ValueError). Each yielded state must keep unit norm to 1e-9;
        the first time at which one does not raises CohChaosError.
        """
        states = tuple(states)
        if not states:
            raise ValueError("evolve_grid needs at least one state")
        for st in states:
            if st.config.dim != self._dim:
                raise ValueError(f"state dimension {st.config.dim} does not match the matrix dimension {self._dim}")
        times = np.asarray(times, dtype=float).reshape(-1)
        amplitudes = np.stack([st.amplitudes for st in states])
        grid = self._chebyshev_grid if self._blocks is None else self._dense_grid
        for chunk, out in grid(amplitudes, times):
            drift = np.abs(np.linalg.norm(out, axis=-1) - 1.0).max(axis=1)
            bad = np.flatnonzero(~(drift <= 1e-9))  # a NaN drift fails too
            if bad.size:
                raise CohChaosError(f"evolution norm drift {drift[bad[0]]:.3e} at t = {float(chunk[bad[0]])}")
            for row in out:
                yield tuple(
                    OracleState(amplitudes=amps, config=st.config, truncation_deficit=st.truncation_deficit)
                    for amps, st in zip(row, states)
                )

    def evolve(self, state: OracleState, t: float) -> OracleState:
        return next(self.evolve_grid([state], [t]))[0]


def _gershgorin_interval(h: sp.csr_matrix) -> tuple[float, float]:
    """Centre and half-width of the Gershgorin interval [a, b] of a Hermitian matrix.

    a = min_i (Re H_ii - r_i) and b = max_i (Re H_ii + r_i), with r_i the
    sum of |H_ij| over j != i; it contains the whole spectrum. A multiple
    of the identity gets half-width 1, so the scaling stays defined.
    """
    diag = h.diagonal().real
    radii = np.asarray(abs(h).sum(axis=1)).reshape(-1) - np.abs(h.diagonal())
    low, high = float(np.min(diag - radii)), float(np.max(diag + radii))
    return 0.5 * (low + high), 0.5 * (high - low) or 1.0


def _chebyshev_coefficients(x: float) -> np.ndarray:
    """Coefficients (2 - delta_k0) (-i)^k J_k(x) of exp(-i x cos(theta)) = sum_k c_k cos(k theta).

    Truncated at the first order K whose tail 2 sum_{k>=K} |J_k(x)| is at
    most machine epsilon. The orders searched reach |x| + 10 |x|^(1/3) + 40,
    well past the turning point |x| beyond which J_k decays faster than
    exponentially. A step whose search range exceeds _MAX_CHEBYSHEV_ORDERS,
    or whose tail stays above epsilon in it, raises CohChaosError.
    """
    if not math.isfinite(x):
        raise CohChaosError(f"Chebyshev step R dt = {x!r} is not finite")
    size = int(abs(x) + 10.0 * abs(x) ** (1.0 / 3.0)) + 41
    if size > _MAX_CHEBYSHEV_ORDERS:
        raise CohChaosError(
            f"Chebyshev step R dt = {x!r} needs more than {_MAX_CHEBYSHEV_ORDERS} orders; add intermediate times"
        )
    orders = np.arange(size)
    bessel = jv(orders, x)
    tail = 2.0 * np.cumsum(np.abs(bessel[::-1]))[::-1]
    within = np.flatnonzero(tail <= _EPS)
    if within.size == 0:
        raise CohChaosError(f"Chebyshev series for R dt = {x!r} does not converge within {size} orders")
    keep = max(int(within[0]), 2)
    coeffs = 2.0 * _MINUS_I_POWERS[orders[:keep] % 4] * bessel[:keep]
    coeffs[0] *= 0.5
    return coeffs


def _field_truncation_deficit(x: complex, n_max: int) -> float:
    # Poisson tail mass beyond n_max for mean |x|^2
    return float(gammainc(n_max + 1.0, abs(x) ** 2))


def product_coherent_vector(x: complex, y: complex, cfg: HilbertConfig) -> OracleState:
    """Normalized product coherent state D(x)|0> (x) D(y)|j,-j> on the basis.

    Both labels are range-checked first. The field truncation loss, the
    Poisson tail beyond n_max, must stay below 1e-8; it is recorded on the
    returned state after renormalization.
    """
    x, y = _check_label(x), _check_label(y)
    deficit = _field_truncation_deficit(x, cfg.n_max)
    if deficit > 1e-8:
        raise TruncationError(
            f"field truncation deficit {deficit:.3e} at n_max = {cfg.n_max} for |x| = {abs(x):.3f}; "
            f"policy recommends n_max >= {recommended_n_max(x)}"
        )
    field = _field_coherent_amplitudes(x, cfg.n_max + 1)
    spin_part = _spin_coherent_amplitudes(cfg.j, y, cfg.spin_dim)
    amps = np.kron(field, spin_part)
    amps = amps / np.linalg.norm(amps)
    return OracleState(amplitudes=amps, config=cfg, truncation_deficit=deficit)


def reduced_linear_entropy(state: OracleState) -> float:
    """Linear entropy 1 - Tr(rho^2) of the field's reduced density matrix.

    The spin's reduction is computed too and its purity must agree to 1e-10
    (a pure joint state has the same Schmidt spectrum on both sides).
    """
    m = state.amplitudes.reshape(state.config.n_max + 1, state.config.spin_dim)
    rho_f = m @ m.conj().T
    rho_s = m.T @ m.conj()
    purity_f = float(np.sum(np.abs(rho_f) ** 2))
    purity_s = float(np.sum(np.abs(rho_s) ** 2))
    if abs(purity_f - purity_s) > 1e-10:
        raise CohChaosError(f"reduced purities disagree: {purity_f!r} vs {purity_s!r}")
    return float(1.0 - purity_f)


def exact_overlap_pair(s1: OracleState, s2: OracleState) -> complex:
    """Inner product <s1|s2>; both states must share a basis configuration."""
    if s1.config != s2.config:
        raise ValueError("overlap requires matching Hilbert configurations")
    return complex(np.vdot(s1.amplitudes, s2.amplitudes))


def field_annihilation_expectation(state: OracleState) -> complex:
    """Expectation <a> of the field lowering operator."""
    m = state.amplitudes.reshape(state.config.n_max + 1, state.config.spin_dim)
    ns = np.arange(1, state.config.n_max + 1)
    # <a> = sum_n sqrt(n) conj(psi[n-1,k]) psi[n,k]
    return complex(np.sum(np.sqrt(ns)[:, None] * np.conj(m[:-1, :]) * m[1:, :]))


def top_fock_population(state: OracleState) -> float:
    """Population of the highest kept Fock level n = n_max: the truncation edge."""
    top = state.amplitudes[-state.config.spin_dim:]
    return float(np.vdot(top, top).real)
