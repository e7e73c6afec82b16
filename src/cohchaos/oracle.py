"""Exact truncated-basis evolution of bilinear oscillator-spin models.

This is the ground truth the mean-field machinery is checked against. It
covers every BilinearHamiltonian of an oscillator and a spin, the same
object the mean-field flow integrates: states live on the product basis
|n> (x) |j,-j+k> with the spin index fastest, the Hamiltonian is assembled
band by band from the generators' bands, and evolution is a Chebyshev
expansion of exp(-i H t) at every dimension (Tal-Ezer and Kosloff, J.
Chem. Phys. 81, 3967 (1984)): H is scaled once into [-1, 1] by its
Gershgorin interval, and each chunk of consecutive sample times is
expanded about the previous chunk's last time. The vectors (-i)^k T_k(H_s)
psi of one recurrence are shared by every time of the chunk; only their
Bessel weights, from Miller's backward recurrence begun at each time's own
order, depend on the time.
Each order multiplies by the scaled H through its few diagonals (at most
nine for a bilinear model, five for the maser), as contiguous numpy
products summed in the order of a CSR row, so that it agrees bit for bit
with a CSR product. Each time's series stops at its own first
order whose neglected coefficients add up to machine epsilon, and the
recurrence runs to the largest of these. All states of a run evolve
together, chunk by chunk, and their norms are checked as they go; the
observables take a state or a stack of them.
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
    _generator_bands,
    _spin_coherent_amplitudes,
    spin,
)
from .model import BilinearHamiltonian

# Largest product-space dimension a HilbertConfig accepts.
_DIMENSION_CAP = 20000
# Complex entries in one chunk's buffers, summed over all states (2 MiB): two
# thirds hold the states of consecutive times, one third a block of half as
# many T_k vectors; the weight products' buffer adds an eighth of the states'
# bytes. Each time's weights reach only the blocks of its own series, so a
# longer chunk adds little product work per time, and it spreads the ~40
# orders every series takes to converge over more times.
_GRID_CHUNK = 1 << 17
# Truncation of the Chebyshev series: the neglected tail of its coefficients.
_EPS = float(np.finfo(float).eps)
# Most Chebyshev orders one chunk may take (a product with H each); a longer
# chunk raises instead of allocating a coefficient table without bound.
_MAX_CHEBYSHEV_ORDERS = 100_000
# Bessel arguments below this are taken as 0 (J_0 = 1, the rest 0): above it
# every multiplier 2k/x of Miller's recurrence up to the order cap is finite,
# and below it J_1(x) = x/2 is under 1e-303.
_SMALLEST_ARGUMENT = 2.0 * _MAX_CHEBYSHEV_ORDERS / float(np.finfo(float).max)


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
    """Normalized amplitude vector on a HilbertConfig basis, or a stack of them along leading axes."""

    amplitudes: np.ndarray
    config: HilbertConfig
    truncation_deficit: float = 0.0

    def __post_init__(self) -> None:
        # a read-only view: no copy, and the caller's own array stays writable
        amps = np.asarray(self.amplitudes, dtype=complex).view()
        if amps.shape[-1:] != (self.config.dim,):
            raise ValueError(f"amplitudes shape {amps.shape} does not match dimension {self.config.dim}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def _matrices(self) -> np.ndarray:
        # amplitudes as (..., Fock level, spin index) matrices
        return self.amplitudes.reshape(self.amplitudes.shape[:-1] + (self.config.n_max + 1, self.config.spin_dim))


def build_hamiltonian_matrix(h: BilinearHamiltonian, cfg: HilbertConfig) -> sp.csr_matrix:
    """Sparse matrix of a bilinear model on the product basis (spin index fastest).

    H = sum_i alpha_i A_i (x) 1 + sum_j beta_j 1 (x) B_j + sum_ij gamma_ij A_i (x) B_j,
    with A the oscillator generators truncated to Fock states 0..n_max and B
    the generators of the spin cfg.j. Each generator, like the identity,
    fills one band of its factor (offset 0, +1 or -1), so a term fills one
    band of the product basis, (field offset, spin offset), with
    coeff * outer(a, b) of the factors' bands a and b. Each band sums its
    terms in the order above (alpha, beta, then gamma row-major), the order
    in which a sum of Kronecker products adds them, and the CSR matrix is
    built once from the bands' nonzero entries. H must be Hermitian to
    1e-12 of its largest entry, max|H - H^dag| taken band by band, else
    CohChaosError.
    """
    if h.group_a != HEISENBERG or h.group_b != spin(cfg.j):
        raise ValueError(
            f"the basis needs an oscillator and a spin {cfg.j}, got {h.group_a} and {h.group_b}"
        )
    n_f, n_s = cfg.n_max + 1, cfg.spin_dim
    a_ops, b_ops = _generator_bands(HEISENBERG, n_f), _generator_bands(h.group_b)
    eye_a, eye_b = (0, np.ones(n_f, dtype=complex)), (0, np.ones(n_s, dtype=complex))
    terms = [(h.alpha[i], a, eye_b) for i, a in enumerate(a_ops)]
    terms += [(h.beta[k], eye_a, b) for k, b in enumerate(b_ops)]
    terms += [(h.gamma[i, k], a, b) for i, a in enumerate(a_ops) for k, b in enumerate(b_ops)]
    bands: dict[tuple[int, int], np.ndarray] = {}
    for coeff, (da, a), (db, b) in terms:
        if coeff != 0:
            band = bands.setdefault((da, db), np.zeros((n_f, n_s), dtype=complex))
            band += coeff * np.outer(a, b)
    # H - H^dag band by band: band (da, db) at (n, k) faces the conjugate of
    # band (-da, -db) at (n + da, k + db), and both are 0 past the basis edges
    residual, scale = 0.0, 1.0
    for (da, db), band in bands.items():
        mirror = np.zeros((n_f + 2, n_s + 2), dtype=complex)
        mirror[1:-1, 1:-1] = bands.get((-da, -db), 0.0)
        facing = mirror[1 + da:1 + da + n_f, 1 + db:1 + db + n_s]
        residual = max(residual, float(np.abs(band - facing.conj()).max()))
        scale = max(scale, float(np.abs(band).max()))
    if residual > 1e-12 * scale:
        raise CohChaosError(f"assembled Hamiltonian has hermiticity residual {residual:.3e}")
    # a band's columns are its rows shifted by da * n_s + db, so that the bands
    # sorted by (da, db) keep each row's entries in column order (|db| < n_s)
    offsets = sorted(bands)
    values = np.empty((cfg.dim, len(offsets)), dtype=complex)  # [row, band]
    for m, key in enumerate(offsets):
        values[:, m] = bands[key].reshape(-1)
    shifts = np.array([da * n_s + db for da, db in offsets], dtype=int)
    # Terms that cancel, such as omega n + epsilon m = 0 on the diagonal,
    # leave exact zeros that would cost every matvec and widen the
    # Gershgorin interval; so do the bands' entries past the basis edges.
    keep = values != 0
    columns = (np.arange(cfg.dim)[:, None] + shifts)[keep]
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sp.csr_matrix((values[keep], columns, indptr), shape=(cfg.dim, cfg.dim))


class ExactEvolver:
    """Reusable propagator for one Hamiltonian matrix.

    A Chebyshev expansion of exp(-i H t) acts on all states at once, one
    series per chunk of consecutive times, expanded about the last time of
    the chunk before. Each order of a series takes one product with the
    scaled matrix, stored as its diagonals, which are read from the CSR
    form (no DIA copy): a pass over the states per diagonal, which suits
    the few diagonals of build_hamiltonian_matrix's matrices, while a
    matrix with many (a random sparse one) stores up to dim entries for
    each and steps slowly. spectral_interval is the Gershgorin
    interval the matrix is scaled by; chebyshev_orders counts the products
    taken so far.
    """

    def __init__(self, h_matrix: sp.spmatrix):
        h = h_matrix.tocsr()
        self._dim = h.shape[0]
        self.spectral_interval = low, high = _gershgorin_interval(h)
        self.chebyshev_orders = 0
        # H = centre + half_width * h_s, the spectrum of h_s in [-1, 1]; a
        # multiple of the identity has half-width 0, and a subnormal half-width
        # an infinite reciprocal: both get half-width 1, so the scaling stays finite
        half_width = 0.5 * (high - low)
        if half_width == 0.0 or math.isinf(1.0 / half_width):
            half_width = 1.0
        self._centre, self._half_width = 0.5 * (low + high), half_width
        # -2i h_s, which takes U_k = (-i)^k T_k(h_s) psi to U_{k+1} - U_{k-1},
        # kept as H's few diagonals, in ascending offset d: those H stores an
        # entry on, and the main one even where it stores none. h.diagonal(d)
        # holds H[r, r + d] for the rows [start, stop) that d reaches; each
        # entry goes through the steps of the sparse form
        # (H - centre I) / half_width * -2j, whose division multiplies by the
        # reciprocal, so it keeps its bits. Each diagonal keeps its entries as
        # a column, the real part and the imaginary part apart. numpy may fuse
        # the multiply and add of a complex product, where a CSR product
        # rounds each real product; by a real or an imaginary factor both
        # round alike, and the two parts' products add up to the CSR term. A
        # part (or a diagonal) that is 0 throughout is left out, as the sparse
        # form stores nothing for it.
        rows = np.repeat(np.arange(self._dim), np.diff(h.indptr))
        diagonals = []
        for d in np.union1d(h.indices - rows, [0]).tolist():
            reach = np.asarray(h.diagonal(d), dtype=complex)[:, None]
            if d == 0:
                reach -= self._centre
            reach *= 1.0 / self._half_width
            reach *= -2j
            parts = []
            if reach.real.any():
                parts.append(reach.real + 0j)
            if reach.imag.any():
                parts.append(1j * reach.imag)
            if parts:
                diagonals.append((max(0, -d), self._dim - max(0, d), d, tuple(parts)))
        self._diagonals = tuple(diagonals)

    def _chebyshev_chunk(self, psi: np.ndarray, tau: np.ndarray, out: np.ndarray, block_size: int) -> np.ndarray:
        """exp(-i H tau_m) psi for a (dim, states) psi and each tau_m, written to out and shaped (times, dim, states).

        All times share one recurrence: psi(tau) = exp(-i centre tau)
        sum_k c_k(R tau) U_k with U_k = (-i)^k T_k(h_s) psi, run to the
        largest of the times' orders. Its vectors fill a block of block_size
        (at least 2) of them, and each full block is added into the rows of out
        (one per time) whose series reach it, by real matrix products over
        a quarter of those rows at a time. psi may be a view of out: it is
        read before out is first written.
        """
        weights, orders = _chebyshev_coefficients(self._half_width * tau)
        block = np.empty((block_size, psi.size), dtype=complex)
        flat = out.view(float)
        group = -(-tau.size // 4)
        partial = np.empty((group, flat.shape[1]))
        # U_k fills slot k % block_size. Each diagonal's parts hold each entry
        # once per state, contiguously, so that their products run over
        # contiguous rows; each slot has its own views of the rows the
        # diagonals read. -2i h_s U_k goes to a buffer of its own, since
        # U_{k+1} may take the slot of U_{k-1}.
        slots = [block[i].reshape(psi.shape) for i in range(block_size)]
        diagonals = [
            (start, stop, d, tuple(np.ascontiguousarray(np.broadcast_to(part, (stop - start,) + psi.shape[1:])) for part in parts))
            for start, stop, d, parts in self._diagonals
        ]
        terms = np.zeros((len(diagonals),) + psi.shape, dtype=complex)
        factors = [_diagonal_factors(diagonals, slot, terms) for slot in slots]
        product = np.empty(psi.shape, dtype=complex)
        prev = cur = None
        for k in range(len(weights)):
            nxt = slots[k % block_size]
            if k == 0:
                nxt[...] = psi
            else:
                _diagonal_product(factors[(k - 1) % block_size], terms, product)
                if k == 1:
                    np.multiply(product, 0.5, out=nxt)
                else:
                    np.add(product, prev, out=nxt)
            prev, cur = cur, nxt
            if k % block_size != block_size - 1 and k != len(weights) - 1:
                continue
            first = k - k % block_size
            vectors = block[:k + 1 - first].view(float)
            if first == 0:
                # every series reaches the first block, which overwrites out
                np.matmul(weights[:k + 1].T, vectors, out=flat)
                continue
            # the times whose series reach this block lie in [lo, hi), and any
            # other time between them has zero weights here
            reach = np.flatnonzero(orders > first)
            lo, hi = reach[0], reach[-1] + 1
            for r in range(lo, hi, group):
                part = partial[:min(group, hi - r)]
                np.matmul(weights[first:k + 1, r:r + len(part)].T, vectors, out=part)
                flat[r:r + len(part)] += part
        self.chebyshev_orders += len(weights) - 1
        out *= np.exp(-1j * self._centre * tau)[:, None]
        return out.reshape((tau.size,) + psi.shape)

    def evolve_chunks(self, states: Sequence[OracleState], times: Iterable[float]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield, per chunk of the times in order, (times, amplitudes[times, states, dim]) evolved from t = 0.

        There must be at least one state, each of the matrix's dimension
        (else ValueError). Each evolved state must keep unit norm to 1e-9;
        the first time at which one does not raises CohChaosError, after
        the times before it are yielded. A time that is not finite raises
        CohChaosError before its chunk of times is evaluated. The amplitudes
        are a view of a buffer that the next chunk overwrites: copy what
        must outlive the step.
        """
        states = tuple(states)
        if not states:
            raise ValueError("the evolution needs at least one state")
        for st in states:
            if st.config.dim != self._dim:
                raise ValueError(f"state dimension {st.config.dim} does not match the matrix dimension {self._dim}")
        times = np.asarray(times, dtype=float).reshape(-1)
        # times per chunk and T_k vectors per block, two to one, within _GRID_CHUNK
        size = self._dim * len(states)
        per_chunk = max(1, 2 * (_GRID_CHUNK // size) // 3)
        out = np.empty((min(per_chunk, times.size), size), dtype=complex)
        t0, psi = 0.0, np.stack([st.amplitudes for st in states], axis=1)
        for first in range(0, times.size, per_chunk):
            chunk = times[first:first + per_chunk]
            evolved = self._chebyshev_chunk(psi, chunk - t0, out[:chunk.size], max(2, per_chunk // 2))
            t0, psi = chunk[-1], evolved[-1]
            # squares summed over the basis for each state's real and imaginary
            # parts, without a chunk-sized temporary
            parts = evolved.view(float)
            squares = np.einsum("tdc,tdc->tc", parts, parts).reshape(chunk.size, len(states), 2)
            drift = np.abs(np.sqrt(squares.sum(axis=-1)) - 1.0).max(axis=1)
            amplitudes = evolved.transpose(0, 2, 1)
            bad = np.flatnonzero(~(drift <= 1e-9))  # a NaN drift fails too
            if not bad.size:
                yield chunk, amplitudes
                continue
            if bad[0]:
                yield chunk[:bad[0]], amplitudes[:bad[0]]
            raise CohChaosError(f"evolution norm drift {drift[bad[0]]:.3e} at t = {float(chunk[bad[0]])}")

    def evolve(self, state: OracleState, t: float) -> OracleState:
        """state evolved from t = 0 to t; the errors are those of evolve_chunks."""
        ((_, amplitudes),) = self.evolve_chunks([state], [t])
        return OracleState(amplitudes[0, 0], state.config, state.truncation_deficit)


def _diagonal_factors(diagonals, u: np.ndarray, terms: np.ndarray) -> list:
    """What _diagonal_product multiplies for a banded matrix times u: per diagonal, its parts, u's rows and its terms' rows.

    diagonals lists (start, stop, d, parts) in ascending offset d; the
    diagonal's term in row r, for start <= r < stop, is the sum over its
    parts of part[r - start] * u[r + d]. Each diagonal's terms fill its own
    entry of terms, whose other rows must be 0. The factors are views, so
    they serve every vector that u's buffer holds.
    """
    return [(parts, u[start + d:stop + d], term[start:stop]) for (start, stop, d, parts), term in zip(diagonals, terms)]


def _diagonal_product(factors, terms: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The banded matrix times u of _diagonal_factors, written to out: each row adds its terms to 0 in ascending offset.

    A CSR row adds its entries in the same order, so for a finite u the two
    products agree bit for bit.
    """
    for parts, source, rows in factors:
        np.multiply(parts[0], source, out=rows)
        for part in parts[1:]:
            rows += part * source
    return np.add.reduce(terms, axis=0, out=out, initial=0.0)


def _gershgorin_interval(h: sp.csr_matrix) -> tuple[float, float]:
    """Gershgorin interval [a, b] of a Hermitian matrix, which contains its whole spectrum.

    a = min_i (Re H_ii - r_i) and b = max_i (Re H_ii + r_i), with r_i the
    sum of |H_ij| over j != i.
    """
    diag = h.diagonal().real
    radii = np.asarray(abs(h).sum(axis=1)).reshape(-1) - np.abs(h.diagonal())
    return float(np.min(diag - radii)), float(np.max(diag + radii))


def _chebyshev_coefficients(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights (2 - delta_k0) J_k(x_m) of exp(-i x_m cos(theta)) = sum_k (-i)^k c_km cos(k theta), and each column's order.

    Column m, for the argument x_m, is truncated at its own order K_m: the
    first at which the tail 2 sum_{k>=K_m} |J_k(x_m)| is at most machine
    epsilon. Its weights from K_m on are 0, and the table has max_m K_m
    rows. The orders searched reach max|x| + 10 max|x|^(1/3) + 40, well
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
    # the tails only shrink with k, so each column's first order within epsilon starts its zeros
    within = 2.0 * np.cumsum(np.abs(bessel[::-1]), axis=0)[::-1] <= _EPS
    if not within.any(axis=0).all():
        raise CohChaosError(f"Chebyshev series for R tau = {largest!r} does not converge within {size} orders")
    orders = within.argmax(axis=0)
    weights = 2.0 * bessel[:orders.max()]
    weights[0] *= 0.5
    weights[np.arange(len(weights))[:, None] >= orders] = 0.0
    return weights, orders


def _bessel_table(x: np.ndarray, size: int) -> np.ndarray:
    """J_k(x_m) for the orders k < size, one column per argument, by Miller's algorithm.

    The backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1} starts from 1 at
    the first order n (at most size) whose bound |J_n(x)| <= (|x|/2)^n / n!
    is below eps^2, or at the column's own search range
    |x| + 10|x|^(1/3) + 41 if that is lower: what it neglects is below
    eps^2, or far enough past the turning point, and the values it passes
    through stay finite. (A column begun at a larger argument's range grows
    past the float range on its way down.) Each column is then normalised by
    the Neumann sum J_0 + 2 sum_k J_2k = 1; it costs O(size), not the O(k)
    per value of a direct evaluation. The table is column-major, so that
    numpy adds this sum, and any other along a column, pairwise, which
    keeps the identity to a few eps; row by row it can be 10 eps off. A
    negative argument uses J_k(-x) = (-1)^k J_k(x); one below
    _SMALLEST_ARGUMENT gives J_0 = 1.
    """
    zero = np.abs(x) < _SMALLEST_ARGUMENT
    a = np.where(zero, 1.0, np.abs(x))
    orders = np.arange(1, size + 1)
    bound = orders[:, None] * np.log(0.5 * a) - gammaln(orders + 1.0)[:, None]
    below = bound <= 2.0 * math.log(_EPS)
    own_range = (a + 10.0 * a ** (1.0 / 3.0)).astype(int) + 41
    start = np.minimum(np.where(below.any(axis=0), below.argmax(axis=0) + 1, size), own_range)
    table = np.zeros((size + 2, a.size))
    table[start, np.arange(a.size)] = 1.0
    # one row per order, each updated in place through one buffer
    rows, ratios, tmp = list(table), list(orders[:, None] * (2.0 / a)), np.empty(a.size)
    for k in range(size, 0, -1):
        np.multiply(ratios[k - 1], rows[k], out=tmp)
        tmp -= rows[k + 1]
        rows[k - 1] += tmp
    table = table[:size].T.copy()  # rows are columns from here on
    table /= (table[:, 0] + 2.0 * table[:, 2::2].sum(axis=1))[:, None]
    table[x < 0, 1::2] *= -1.0
    table[zero] = 0.0
    table[zero, 0] = 1.0
    return table.T


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


def reduced_linear_entropy(state: OracleState, times: Sequence[float] | None = None) -> float | np.ndarray:
    """Linear entropy 1 - Tr(rho^2) of the field's reduced density matrix, for each vector of a state.

    With V a vector's (Fock level, spin index) matrix, the purity
    Tr(rho^2) = ||V V^dag||_F^2 equals ||V^dag V||_F^2, so it is taken as
    P = ||G||_F^2 of the Gram matrix G of the smaller side (V^dag V or
    V V^dag, of dimension d_min), formed for the whole stack in one product.
    Each P must be finite and within its physical bounds
    tr(G)^2 / d_min <= P <= tr(G)^2, to 1e-10 relative; the first vector
    outside them raises CohChaosError, naming its time if times (one per
    entry of the first axis of a stack) are given. Returns a float, or an
    array over the stack.
    """
    m = state._matrices()
    v = m.reshape((-1,) + m.shape[-2:])
    if v.shape[-1] > v.shape[-2]:
        # ||V V^dag||_F = ||conj(V) V^T||_F, the Gram matrix of U = V^T
        v = v.swapaxes(-1, -2)
    # With V = X + iY, G = V^dag V = (X^T X + Y^T Y) + i (X^T Y - Y^T X), read
    # from the real Gram matrix of V's float view, columns x_1 y_1 x_2 ...:
    # no conjugated copy of the stack. Contiguous, so that a vector and its
    # row of a stack take one BLAS path.
    w = np.ascontiguousarray(v).view(float)
    d_min = v.shape[-1]
    # a non-finite entry may overflow or make a NaN here: the bounds below report it
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.matmul(w.swapaxes(-1, -2), w)
        real = r[..., 0::2, 0::2] + r[..., 1::2, 1::2]
        imag = r[..., 0::2, 1::2] - r[..., 1::2, 0::2]
        purity = np.sum(real ** 2 + imag ** 2, axis=(-2, -1))
    trace = np.trace(real, axis1=-2, axis2=-1)
    within = (purity >= (1.0 - 1e-10) * trace ** 2 / d_min) & (purity <= (1.0 + 1e-10) * trace ** 2)
    bad = np.flatnonzero(~(within & np.isfinite(purity)))  # a NaN purity fails too
    if bad.size:
        i = bad[0]
        where = "" if times is None else f" at t = {float(times[np.unravel_index(i, m.shape[:-2])[0]])}"
        raise CohChaosError(
            f"reduced purity {float(purity[i])!r}{where} outside [tr^2/{d_min}, tr^2] with tr = {float(trace[i])!r}"
        )
    return (1.0 - purity).reshape(m.shape[:-2])[()]


def exact_overlap_pair(s1: OracleState, s2: OracleState) -> complex | np.ndarray:
    """Inner product <s1|s2> of each pair of vectors; both states must share a basis configuration."""
    if s1.config != s2.config:
        raise ValueError("overlap requires matching Hilbert configurations")
    # a contiguous product, so that numpy sums it pairwise
    terms = np.conjugate(s1.amplitudes, order="C")
    terms *= s2.amplitudes
    return terms.sum(axis=-1)[()]


def field_annihilation_expectation(state: OracleState) -> complex | np.ndarray:
    """Expectation <a> of the field lowering operator, for each vector of a state."""
    m = state._matrices()
    # <a> = sum_n sqrt(n) conj(psi[n-1,k]) psi[n,k], summed pairwise
    terms = np.conjugate(m[..., :-1, :], order="C")
    terms *= np.sqrt(np.arange(1, state.config.n_max + 1))[:, None]
    terms *= m[..., 1:, :]
    return terms.sum(axis=(-2, -1))[()]


def top_fock_population(state: OracleState) -> float | np.ndarray:
    """Population of the highest kept Fock level n = n_max, the truncation edge, for each vector of a state."""
    top = state._matrices()[..., -1, :]
    return np.sum(top.real ** 2 + top.imag ** 2, axis=-1)[()]
