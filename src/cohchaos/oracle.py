"""Exact truncated-basis evolution of bilinear oscillator-spin models.

This is the ground truth the mean-field machinery is checked against. It
covers every BilinearHamiltonian of an oscillator and a spin, the same
object the mean-field flow integrates: states live on the product basis
|n> (x) |j,-j+k> with the spin index fastest, the Hamiltonian is assembled
sparsely from the generator matrices, and evolution is a Chebyshev
expansion of exp(-i H t) at every dimension (Tal-Ezer and Kosloff, J.
Chem. Phys. 81, 3967 (1984)): H is scaled once into [-1, 1] by its
Gershgorin interval, and each chunk of consecutive sample times is
expanded about the previous chunk's last time. The vectors T_k(H_s) psi of
one recurrence are shared by every time of the chunk; only their Bessel
weights, from Miller's backward recurrence, depend on the time. The series
is truncated where the neglected coefficients of every time add up to
machine epsilon. All states of a run evolve together, and their norms are
checked as they go.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
# Unused here: the benchmark's trace wraps oracle.expm_multiply, as it does
# dynamics.solve_ivp, and needs the name to exist.
from scipy.sparse.linalg import expm_multiply  # noqa: F401
from scipy.special import gammainc, gammaln

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

# Largest product-space dimension a HilbertConfig accepts.
_DIMENSION_CAP = 20000
# Complex entries in one chunk of evolved states, summed over all states
# (1 MiB); a chunk this small keeps the grid from adding to the peak memory.
# Half goes to the states of consecutive times, half to a block of as many
# T_k vectors.
_GRID_CHUNK = 1 << 16
# Truncation of the Chebyshev series: the neglected tail of its coefficients.
_EPS = float(np.finfo(float).eps)
# Most Chebyshev orders one chunk may take (a sparse product each); a longer
# chunk raises instead of allocating a coefficient table without bound.
_MAX_CHEBYSHEV_ORDERS = 100_000
# Bessel arguments below this are taken as 0 (J_0 = 1, the rest 0): above it
# every multiplier 2k/x of Miller's recurrence up to the order cap is finite,
# and below it J_1(x) = x/2 is under 1e-303.
_SMALLEST_ARGUMENT = 2.0 * _MAX_CHEBYSHEV_ORDERS / float(np.finfo(float).max)
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
    # leave explicit zeros that would cost every matvec and widen the
    # Gershgorin interval.
    mat.eliminate_zeros()
    residual = abs(mat - mat.getH()).max()
    scale = max(1.0, abs(mat).max())
    if residual > 1e-12 * scale:
        raise CohChaosError(f"assembled Hamiltonian has hermiticity residual {residual:.3e}")
    return mat


class ExactEvolver:
    """Reusable propagator for one Hamiltonian matrix.

    A Chebyshev expansion of exp(-i H t) acts on all states at once, one
    series per chunk of consecutive times, expanded about the last time of
    the chunk before. spectral_interval is the Gershgorin interval the
    matrix is scaled by; chebyshev_orders counts the sparse products taken
    so far.
    """

    def __init__(self, h_matrix: sp.spmatrix):
        h = h_matrix.tocsr()
        self._dim = h.shape[0]
        self.spectral_interval = low, high = _gershgorin_interval(h)
        self.chebyshev_orders = 0
        # H = centre + half_width * h_scaled, the spectrum of h_scaled in [-1, 1];
        # a multiple of the identity gets half-width 1, so the scaling stays defined
        self._centre, self._half_width = 0.5 * (low + high), 0.5 * (high - low) or 1.0
        identity = sp.identity(self._dim, dtype=complex, format="csr")
        self._h_scaled = (h.astype(complex) - self._centre * identity) / self._half_width

    def _chebyshev_grid(self, amplitudes: np.ndarray, times: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        # one series per chunk of times, expanded about the last time of the
        # chunk before; the chunk's states and its block of T_k vectors take
        # half of _GRID_CHUNK each
        n_states = amplitudes.shape[0]
        rows = max(1, _GRID_CHUNK // (2 * self._dim * n_states))
        t0, psi = 0.0, np.ascontiguousarray(amplitudes.T)
        for first in range(0, times.size, rows):
            chunk = times[first:first + rows]
            out = self._chebyshev_chunk(psi, chunk - t0, rows)
            t0, psi = chunk[-1], out[-1]
            yield chunk, out.transpose(0, 2, 1)

    def _chebyshev_chunk(self, psi: np.ndarray, tau: np.ndarray, rows: int) -> np.ndarray:
        """exp(-i H tau_m) psi for a (dim, states) psi and each tau_m, shaped (times, dim, states).

        All times share one recurrence: psi(tau) = exp(-i centre tau)
        sum_k c_k(R tau) (-i)^k T_k(h) psi. Its vectors, times (-i)^k, go
        through a block of `rows` of them, and each full block is added into
        every time's state by one real matrix product with the weights.
        """
        weights = _chebyshev_coefficients(self._half_width * tau)
        h = self._h_scaled
        block = np.empty((rows, psi.size), dtype=complex)
        out = np.zeros((tau.size, psi.size), dtype=complex)
        flat = out.view(float)
        prev, cur = None, psi
        for k in range(len(weights)):
            if k == 1:
                prev, cur = cur, h @ cur
            elif k > 1:
                # T_{k+1} = 2 h T_k - T_{k-1}
                nxt = h @ cur
                nxt *= 2.0
                nxt -= prev
                prev, cur = cur, nxt
            np.multiply(cur.reshape(-1), _MINUS_I_POWERS[k % 4], out=block[k % rows])
            if k % rows == rows - 1 or k == len(weights) - 1:
                n = k % rows + 1
                flat += weights[k + 1 - n:k + 1].T @ block[:n].view(float)
        self.chebyshev_orders += len(weights) - 1
        out *= np.exp(-1j * self._centre * tau)[:, None]
        return out.reshape((tau.size,) + psi.shape)

    def evolve_grid(self, states: Sequence[OracleState], times: Iterable[float]) -> Iterator[tuple[OracleState, ...]]:
        """Yield, for each of times in order, the states evolved from t = 0 to it.

        There must be at least one state, each of the matrix's dimension
        (else ValueError). Each yielded state must keep unit norm to 1e-9;
        the first time at which one does not raises CohChaosError, after
        the times before it are yielded. A time that is not finite raises
        CohChaosError before its chunk of times is evaluated.
        """
        states = tuple(states)
        if not states:
            raise ValueError("evolve_grid needs at least one state")
        for st in states:
            if st.config.dim != self._dim:
                raise ValueError(f"state dimension {st.config.dim} does not match the matrix dimension {self._dim}")
        times = np.asarray(times, dtype=float).reshape(-1)
        amplitudes = np.stack([st.amplitudes for st in states])
        for chunk, out in self._chebyshev_grid(amplitudes, times):
            drift = np.abs(np.linalg.norm(out, axis=-1) - 1.0).max(axis=1)
            bad = np.flatnonzero(~(drift <= 1e-9))  # a NaN drift fails too
            for row in out[:bad[0] if bad.size else len(out)]:
                yield tuple(
                    OracleState(amplitudes=amps, config=st.config, truncation_deficit=st.truncation_deficit)
                    for amps, st in zip(row, states)
                )
            if bad.size:
                raise CohChaosError(f"evolution norm drift {drift[bad[0]]:.3e} at t = {float(chunk[bad[0]])}")

    def evolve(self, state: OracleState, t: float) -> OracleState:
        return next(self.evolve_grid([state], [t]))[0]


def _gershgorin_interval(h: sp.csr_matrix) -> tuple[float, float]:
    """Gershgorin interval [a, b] of a Hermitian matrix, which contains its whole spectrum.

    a = min_i (Re H_ii - r_i) and b = max_i (Re H_ii + r_i), with r_i the
    sum of |H_ij| over j != i.
    """
    diag = h.diagonal().real
    radii = np.asarray(abs(h).sum(axis=1)).reshape(-1) - np.abs(h.diagonal())
    return float(np.min(diag - radii)), float(np.max(diag + radii))


def _chebyshev_coefficients(x: np.ndarray) -> np.ndarray:
    """Weights (2 - delta_k0) J_k(x_m) of exp(-i x_m cos(theta)) = sum_k (-i)^k c_km cos(k theta).

    One column per argument x_m, truncated at the first order K at which
    the tail 2 sum_{k>=K} |J_k(x_m)| of every column is at most machine
    epsilon. The orders searched reach max|x| + 10 max|x|^(1/3) + 40, well
    past the turning point beyond which J_k decays faster than
    exponentially. A non-finite argument, a search range beyond
    _MAX_CHEBYSHEV_ORDERS (checked before any Bessel value is formed), or a
    tail that stays above epsilon in it raises CohChaosError.
    """
    if not np.isfinite(x).all():
        raise CohChaosError(f"Chebyshev argument R tau = {x[~np.isfinite(x)][0]!r} is not finite")
    largest = float(np.abs(x).max())
    size = int(largest + 10.0 * largest ** (1.0 / 3.0)) + 41
    if size > _MAX_CHEBYSHEV_ORDERS:
        raise CohChaosError(
            f"Chebyshev step R tau = {largest!r} needs more than {_MAX_CHEBYSHEV_ORDERS} orders; add intermediate times"
        )
    bessel = _bessel_table(x, size)
    tail = 2.0 * np.cumsum(np.abs(bessel[::-1]), axis=0)[::-1]
    within = np.flatnonzero((tail <= _EPS).all(axis=1))
    if within.size == 0:
        raise CohChaosError(f"Chebyshev series for R tau = {largest!r} does not converge within {size} orders")
    weights = 2.0 * bessel[:int(within[0])]
    weights[0] *= 0.5
    return weights


def _bessel_table(x: np.ndarray, size: int) -> np.ndarray:
    """J_k(x_m) for the orders k < size, one column per argument, by Miller's algorithm.

    The backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1} starts from 1 at
    the first order n (at most size) whose bound |J_n(x)| <= (|x|/2)^n / n!
    is below eps^2: what it neglects is below eps^2, and for small x the
    values it passes through stay finite. Each column is then normalised by
    the Neumann sum J_0 + 2 sum_k J_2k = 1; it costs O(size), not the O(k)
    per value of a direct evaluation. A negative argument uses
    J_k(-x) = (-1)^k J_k(x); one below _SMALLEST_ARGUMENT gives J_0 = 1.
    """
    zero = np.abs(x) < _SMALLEST_ARGUMENT
    a = np.where(zero, 1.0, np.abs(x))
    orders = np.arange(1, size + 1)
    bound = orders[:, None] * np.log(0.5 * a) - gammaln(orders + 1.0)[:, None]
    below = bound <= 2.0 * math.log(_EPS)
    start = np.where(below.any(axis=0), below.argmax(axis=0) + 1, size)
    table = np.zeros((size + 2, a.size))
    table[start, np.arange(a.size)] = 1.0
    ratio = orders[:, None] * (2.0 / a)
    for k in range(size, 0, -1):
        table[k - 1] += ratio[k - 1] * table[k] - table[k + 1]
    table = table[:size] / (table[0] + 2.0 * table[2::2].sum(axis=0))
    table[1::2, x < 0] *= -1.0
    table[:, zero] = 0.0
    table[0, zero] = 1.0
    return table


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
