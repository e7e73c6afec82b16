"""Exact truncated-basis evolution of bilinear oscillator-spin models.

This is the ground truth the mean-field machinery is checked against. It
covers every BilinearHamiltonian of an oscillator and a spin, the same
object the mean-field flow integrates: states live on the product basis
|n> (x) |j,-j+k> with the spin index fastest, the Hamiltonian is assembled
sparsely from the generator matrices, and evolution uses a dense
eigendecomposition of its decoupled blocks below a dimension threshold and
sparse Krylov exponential action (scipy's expm_multiply) above it.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply
from scipy.special import gammainc

from .algebra import (
    HEISENBERG,
    CohChaosError,
    TruncationError,
    displaced_basis_vector,
    generator_matrices,
    spin,
)
from .dynamics import ProductState
from .model import BilinearHamiltonian

_DENSE_LIMIT = 3000
# Largest product-space dimension a HilbertConfig accepts.
_DIMENSION_CAP = 20000
# Complex entries in one dense-path chunk of evolved states (1 MiB); a
# chunk this small keeps the grid from adding to the peak memory.
_GRID_CHUNK = 1 << 16


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

    Up to dense_limit dimensions the decoupled blocks of the matrix are
    diagonalized once, and a whole time grid is then evolved with one phase
    matrix and two matrix products per block. Above it the sparse matrix
    exponential acts on the state once per step between consecutive times.
    """

    def __init__(self, h_matrix: sp.spmatrix, dense_limit: int = _DENSE_LIMIT):
        self._h = h_matrix.tocsr()
        self._dim = self._h.shape[0]
        self._blocks = _block_eigensystems(self._h) if self._dim <= dense_limit else None

    def _dense_grid(self, amplitudes: np.ndarray, times: np.ndarray) -> Iterator[tuple[float, np.ndarray]]:
        # c = V^H psi per block, then psi(t) = V (exp(-i E t) c) for a chunk of times at once
        coeffs = [evecs.conj().T @ amplitudes[index] for index, _, evecs in self._blocks]
        rows = max(1, _GRID_CHUNK // self._dim)
        for first in range(0, times.size, rows):
            chunk = times[first:first + rows]
            out = np.empty((chunk.size, self._dim), dtype=complex)
            for (index, evals, evecs), c in zip(self._blocks, coeffs):
                out[:, index] = _matmul(np.exp(-1j * np.outer(chunk, evals)) * c, evecs.T)
            yield from zip(chunk, out)

    def _krylov_grid(self, amplitudes: np.ndarray, times: np.ndarray) -> Iterator[tuple[float, np.ndarray]]:
        t_prev, psi = 0.0, amplitudes
        for t in times:
            if t != t_prev:
                psi = expm_multiply(-1j * (t - t_prev) * self._h, psi)
                t_prev = t
            yield t, psi

    def evolve_grid(self, state: OracleState, times: Iterable[float]) -> Iterator[OracleState]:
        """Yield the state evolved from t = 0 to each of times, in order.

        Each yielded state must keep unit norm to 1e-9; the first time that
        does not raises CohChaosError.
        """
        times = np.asarray(times, dtype=float).reshape(-1)
        grid = self._krylov_grid if self._blocks is None else self._dense_grid
        for t, out in grid(state.amplitudes, times):
            drift = abs(float(np.linalg.norm(out)) - 1.0)
            if drift > 1e-9:
                raise CohChaosError(f"evolution norm drift {drift:.3e} at t = {float(t)}")
            yield OracleState(amplitudes=out, config=state.config, truncation_deficit=state.truncation_deficit)

    def evolve(self, state: OracleState, t: float) -> OracleState:
        return next(self.evolve_grid(state, [t]))


def _field_truncation_deficit(x: complex, n_max: int) -> float:
    # Poisson tail mass beyond n_max for mean |x|^2
    return float(gammainc(n_max + 1.0, abs(x) ** 2))


def product_coherent_vector(x: complex, y: complex, cfg: HilbertConfig) -> OracleState:
    """Normalized product coherent state D(x)|0> (x) D(y)|j,-j> on the basis.

    The field truncation loss must stay below 1e-8; it is recorded on the
    returned state after renormalization.
    """
    deficit = _field_truncation_deficit(x, cfg.n_max)
    if deficit > 1e-8:
        raise TruncationError(
            f"field truncation deficit {deficit:.3e} at n_max = {cfg.n_max} for |x| = {abs(x):.3f}; "
            f"policy recommends n_max >= {recommended_n_max(x)}"
        )
    field = displaced_basis_vector(HEISENBERG, x, 0, truncation=cfg.n_max + 1, deficit_tol=1e-8).vector
    spin_part = displaced_basis_vector(spin(cfg.j), y, 0).vector
    amps = np.kron(field, spin_part)
    amps = amps / np.linalg.norm(amps)
    return OracleState(amplitudes=amps, config=cfg, truncation_deficit=deficit)


def doorway_vector(s: ProductState, cfg: HilbertConfig) -> OracleState:
    """Product of first-excited displaced states D(x)|1> (x) D(y)|j,-j+1>."""
    field = displaced_basis_vector(HEISENBERG, s.x, 1, truncation=cfg.n_max + 1, deficit_tol=1e-8)
    spin_part = displaced_basis_vector(spin(cfg.j), s.y, 1)
    amps = np.kron(field.vector, spin_part.vector)
    amps = amps / np.linalg.norm(amps)
    return OracleState(amplitudes=amps, config=cfg, truncation_deficit=field.norm_deficit)


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


def operator_expectation(state: OracleState, op: sp.spmatrix) -> complex:
    return complex(np.vdot(state.amplitudes, op @ state.amplitudes))

