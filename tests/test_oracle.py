"""Exact truncated-basis reference: assembly, evolution, reductions."""

import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as hs
from scipy.sparse.csgraph import connected_components

from cohchaos.algebra import CohChaosError, Gen, TruncationError, overlap
from cohchaos.algebra import HEISENBERG, spin as spin_group
from cohchaos.dynamics import ProductState, integrate
from cohchaos import oracle
from cohchaos.model import BilinearHamiltonian, MaserParams, maser_hamiltonian
from cohchaos.oracle import (
    DimensionError,
    ExactEvolver,
    HilbertConfig,
    OracleState,
    build_hamiltonian_matrix,
    exact_overlap_pair,
    field_annihilation_expectation,
    hilbert_for_labels,
    product_coherent_vector,
    recommended_n_max,
    reduced_linear_entropy,
    top_fock_population,
)
from reference import (
    csr_step,
    csr_stepped_chunks,
    diagonal_step,
    doorway_vector,
    evolve_grid,
    evolved_chunks,
    generator_matrices,
    kron_hamiltonian_matrix,
    maser_matrix_reference,
    operator_expectation,
    vector_field_annihilation,
    vector_linear_entropy,
    vector_overlap,
    vector_top_fock_population,
)

SMALL = HilbertConfig(n_max=8, j=0.5)


def small_model(g_prime=0.1):
    return maser_hamiltonian(MaserParams(epsilon=1.0, omega=1.0, g=0.3, g_prime=g_prime, j=0.5))


def test_hilbert_config_validation():
    cfg = HilbertConfig(n_max=120, j=4.5)
    assert cfg.spin_dim == 10
    assert cfg.dim == 121 * 10
    with pytest.raises(ValueError):
        HilbertConfig(n_max=0, j=0.5)
    with pytest.raises(ValueError):
        HilbertConfig(n_max=5, j=0.4)
    with pytest.raises(DimensionError):
        HilbertConfig(n_max=30000, j=0.5)


def test_truncation_policy():
    assert recommended_n_max(0.0) == 20
    assert recommended_n_max(2.0) == 40
    cfg = hilbert_for_labels([1.0 + 1.0j, 0.5], j=1.5)
    assert cfg.n_max == recommended_n_max(1.0 + 1.0j)
    # a low n_max is raised without a warning; run_experiment records the raise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = hilbert_for_labels([2.0], j=0.5, n_max=10)
    assert cfg.n_max == recommended_n_max(2.0)
    # an explicitly generous n_max is kept as is
    assert hilbert_for_labels([1.0], j=0.5, n_max=90).n_max == 90


def test_oracle_state_shape_guard():
    with pytest.raises(ValueError):
        OracleState(amplitudes=np.zeros(3, dtype=complex), config=SMALL)
    st = OracleState(amplitudes=np.eye(SMALL.dim, dtype=complex)[0], config=SMALL)
    assert np.linalg.norm(st.amplitudes) == 1.0
    with pytest.raises(ValueError):
        st.amplitudes[0] = 2.0


def test_oracle_state_freezes_a_view_of_the_callers_array():
    amps = np.eye(SMALL.dim, dtype=complex)[0]
    st = OracleState(amplitudes=amps, config=SMALL)
    # no copy is made, yet the caller's own array stays writable
    assert np.shares_memory(st.amplitudes, amps)
    assert amps.flags.writeable and not st.amplitudes.flags.writeable
    amps[1] = 0.5


def test_hamiltonian_matches_entrywise_assembly(fig1_cfg, fig1_hilbert, fig1_h_matrix):
    """Independent slow construction from explicit ladder matrix elements."""
    p = fig1_cfg.model
    n_max, sdim, j = fig1_hilbert.n_max, fig1_hilbert.spin_dim, p.j
    g, gp = p.g / math.sqrt(j), p.g_prime / math.sqrt(j)
    expected = np.zeros((fig1_hilbert.dim, fig1_hilbert.dim), dtype=complex)
    for n in range(n_max + 1):
        for k in range(sdim):
            col = n * sdim + k
            m = k - j
            expected[col, col] = p.omega * n + p.epsilon * m
            c_plus = math.sqrt(j * (j + 1) - m * (m + 1)) if k + 1 < sdim else 0.0
            c_minus = math.sqrt(j * (j + 1) - m * (m - 1)) if k >= 1 else 0.0
            if n + 1 <= n_max and k >= 1:
                expected[(n + 1) * sdim + (k - 1), col] += g * math.sqrt(n + 1) * c_minus
            if n >= 1 and k + 1 < sdim:
                expected[(n - 1) * sdim + (k + 1), col] += g * math.sqrt(n) * c_plus
            if n + 1 <= n_max and k + 1 < sdim:
                expected[(n + 1) * sdim + (k + 1), col] += gp * math.sqrt(n + 1) * c_plus
            if n >= 1 and k >= 1:
                expected[(n - 1) * sdim + (k - 1), col] += gp * math.sqrt(n) * c_minus
    assert np.abs(fig1_h_matrix.toarray() - expected).max() < 1e-12


@pytest.mark.parametrize("g_prime", [0.2 / math.sqrt(2.0), 0.0], ids=["fig1", "g_prime_0"])
def test_hamiltonian_equals_maser_reference(fig1_cfg, fig1_hilbert, g_prime):
    p = replace(fig1_cfg.model, g_prime=g_prime)
    h = build_hamiltonian_matrix(maser_hamiltonian(p), fig1_hilbert)
    ref = maser_matrix_reference(p, fig1_hilbert)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(h, part), getattr(ref, part))


def test_hamiltonian_rejects_mismatched_groups():
    with pytest.raises(ValueError, match="spin 1.5"):
        build_hamiltonian_matrix(small_model(), HilbertConfig(n_max=8, j=1.5))
    swapped = BilinearHamiltonian(
        group_a=spin_group(0.5), group_b=spin_group(0.5),
        alpha=np.zeros(3), beta=np.zeros(3), gamma=np.zeros((3, 3)),
    )
    with pytest.raises(ValueError, match="oscillator"):
        build_hamiltonian_matrix(swapped, SMALL)


def test_hamiltonian_with_an_unmatched_coupling_fails_its_hermiticity_check():
    # construction checks the coefficients, so one is changed after it: the
    # partner of gamma[PLUS, PLUS] is off by 1e-3, then gone with its band
    for partner in (np.conj(small_model().gamma[Gen.PLUS, Gen.PLUS]) + 1e-3, 0.0):
        h = small_model()
        gamma = h.gamma.copy()
        gamma[Gen.MINUS, Gen.MINUS] = partner
        object.__setattr__(h, "gamma", gamma)
        ref = kron_hamiltonian_matrix(h, SMALL)
        residual = abs(ref - ref.getH()).max()
        assert residual > 1e-12
        with pytest.raises(CohChaosError, match=f"hermiticity residual {residual:.3e}$"):
            build_hamiltonian_matrix(h, SMALL)


def test_hamiltonian_of_a_model_within_the_construction_tolerance_is_hermitian():
    # gamma_-- is 9e-13 off conj(gamma_++), which construction accepts; the
    # assembly reads the stored arrays, which are now those of the scalars'
    # model, and no longer fails with a residual of 3.8e-11
    gamma = np.zeros((3, 3), dtype=complex)
    gamma[Gen.PLUS, Gen.PLUS], gamma[Gen.MINUS, Gen.MINUS] = 0.05, 0.05 + 9e-13
    h = BilinearHamiltonian(group_a=HEISENBERG, group_b=spin_group(4.5), alpha=np.zeros(3), beta=np.zeros(3), gamma=gamma)
    mat = build_hamiltonian_matrix(h, HilbertConfig(n_max=70, j=4.5))
    assert abs(mat - mat.getH()).max() == 0.0


def test_driven_field_follows_mean_field():
    # a linear drive f a^dag + conj(f) a and no coupling: the field stays
    # coherent, so the exact <a>(t) is the mean-field label x(t)
    f = 0.3 - 0.2j
    h = BilinearHamiltonian(
        group_a=HEISENBERG, group_b=spin_group(1.5),
        alpha=np.array([1.0, f, np.conj(f)]), beta=np.array([0.7, 0.0, 0.0]), gamma=np.zeros((3, 3)),
    )
    s = ProductState(x=0.5 + 0.1j, y=0.2 - 0.3j)
    cfg = HilbertConfig(n_max=40, j=1.5)
    traj = integrate(h, s, 5.0)
    grid = evolve_grid(ExactEvolver(build_hamiltonian_matrix(h, cfg)), [product_coherent_vector(s.x, s.y, cfg)], traj.times)
    field = np.array([field_annihilation_expectation(psi) for (psi,) in grid])
    assert np.abs(field - traj.x).max() < 1e-8


def test_hamiltonian_is_hermitian():
    h = build_hamiltonian_matrix(small_model(), SMALL)
    assert abs(h - h.getH()).max() < 1e-14


def test_hamiltonian_stores_no_explicit_zeros(fig1_h_matrix):
    # co-rotating only, spin 1/2: the counter-rotating terms vanish, and the
    # excitation manifolds {|n, down>, |n-1, up>} decouple
    cfg = HilbertConfig(n_max=30, j=0.5)
    p = MaserParams(epsilon=1.0, omega=1.0, g=0.25, g_prime=0.0, j=0.5)
    h = build_hamiltonian_matrix(maser_hamiltonian(p), cfg)
    assert np.all(h.data != 0)
    assert connected_components(abs(h), directed=False)[0] == cfg.n_max + 2
    # with both couplings on, only the parity (-1)^(n+k) is conserved
    assert np.all(fig1_h_matrix.data != 0)
    assert connected_components(abs(fig1_h_matrix), directed=False)[0] == 2


def test_eigenvector_acquires_pure_phase():
    h = build_hamiltonian_matrix(small_model(), SMALL)
    evals, evecs = np.linalg.eigh(h.toarray())
    v = evecs[:, 3].astype(complex)
    st = OracleState(amplitudes=v, config=SMALL)
    ev = ExactEvolver(h)
    for t in (0.5, 2.0):
        out = ev.evolve(st, t)
        assert np.abs(out.amplitudes - np.exp(-1j * evals[3] * t) * v).max() < 1e-10


@pytest.mark.parametrize("g_prime", [0.1, 0.0])
def test_dense_and_sparse_paths_agree(g_prime):
    """The sparse Chebyshev evolution against the dense matrix exponential.

    At g' = 0 every excitation manifold is a decoupled block of H.
    """
    h = build_hamiltonian_matrix(small_model(g_prime), SMALL)
    st = product_coherent_vector(0.5 + 0.2j, 0.3 - 0.1j, SMALL)
    expected = sla.expm(-1j * 0.7 * h.toarray()) @ st.amplitudes
    assert np.abs(ExactEvolver(h).evolve(st, 0.7).amplitudes - expected).max() < 1e-10


def test_dense_path_on_complex_interleaved_blocks(rng):
    # three decoupled complex Hermitian blocks of sizes 5, 3 and 2 whose
    # basis positions interleave, as the parity blocks of the model do
    cfg = HilbertConfig(n_max=4, j=0.5)
    labels = rng.permutation(np.repeat([0, 1, 2], [5, 3, 2]))
    a = rng.normal(size=(cfg.dim, cfg.dim)) + 1j * rng.normal(size=(cfg.dim, cfg.dim))
    a = (a + a.conj().T) * (labels[:, None] == labels[None, :])
    psi = rng.normal(size=cfg.dim) + 1j * rng.normal(size=cfg.dim)
    st = OracleState(amplitudes=psi / np.linalg.norm(psi), config=cfg)
    ev = ExactEvolver(sp.csr_matrix(a))
    for t, (out,) in zip((0.3, 1.7), evolve_grid(ev, [st], (0.3, 1.7))):
        assert np.abs(out.amplitudes - sla.expm(-1j * t * a) @ st.amplitudes).max() < 1e-10


# "dense" packs all times into one series; "krylov" takes one series per
# time, from the state of the time before, as a Krylov propagator steps
@pytest.mark.parametrize(
    "grid_chunk, chunk_sizes", [(32 * SMALL.dim, [10]), (2 * SMALL.dim, [1] * 10)], ids=["dense", "krylov"]
)
def test_evolve_grid_matches_per_time_evolve(grid_chunk, chunk_sizes, monkeypatch):
    monkeypatch.setattr(oracle, "_GRID_CHUNK", grid_chunk)
    ev = ExactEvolver(build_hamiltonian_matrix(small_model(), SMALL))
    st = product_coherent_vector(0.5 + 0.2j, 0.3 - 0.1j, SMALL)
    # a repeated time, and a short last step as on a t_final = 0.73, dt = 0.1 grid
    times = [0.0, 0.1, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.73]
    assert [len(chunk) for chunk, _ in ev.evolve_chunks([st], times)] == chunk_sizes
    grid = list(evolve_grid(ev, [st], times))
    assert len(grid) == len(times)
    for t, (out,) in zip(times, grid):
        assert out.config == st.config
        assert np.abs(out.amplitudes - ev.evolve(st, t).amplitudes).max() < 1e-12


# chunks of four times for the pair and eight for a single state ("dense"),
# or of one and two ("krylov"): the two runs chunk the grid differently
@pytest.mark.parametrize("grid_chunk", [12 * SMALL.dim, 4 * SMALL.dim], ids=["dense", "krylov"])
def test_states_evolved_together_equal_each_alone(grid_chunk, monkeypatch):
    monkeypatch.setattr(oracle, "_GRID_CHUNK", grid_chunk)
    ev = ExactEvolver(build_hamiltonian_matrix(small_model(), SMALL))
    pair = [
        product_coherent_vector(0.5 + 0.2j, 0.3 - 0.1j, SMALL),
        product_coherent_vector(-0.3 + 0.2j, 0.1 - 0.4j, SMALL),
    ]
    times = [0.0, 0.1, 0.7, 2.5, 2.5, 3.0, 4.0]
    together = list(evolve_grid(ev, pair, times))
    assert len(together) == len(times)
    for i, st in enumerate(pair):
        for both, (alone,) in zip(together, evolve_grid(ev, [st], times), strict=True):
            assert len(both) == 2 and both[i].config == st.config
            assert np.abs(both[i].amplitudes - alone.amplitudes).max() < 1e-12


def test_chebyshev_orders_count_the_sparse_products(monkeypatch):
    applications = []

    def counting(*args):
        applications.append(1)
        return product(*args)

    # chunks of two times each, and a second grid on the same evolver
    product = oracle._diagonal_product
    monkeypatch.setattr(oracle, "_diagonal_product", counting)
    monkeypatch.setattr(oracle, "_GRID_CHUNK", 4 * SMALL.dim)
    ev = ExactEvolver(build_hamiltonian_matrix(small_model(), SMALL))
    st = product_coherent_vector(0.5 + 0.2j, 0.3 - 0.1j, SMALL)
    list(evolve_grid(ev, [st], [0.0, 0.5, 1.0, 3.0, 3.5]))
    list(evolve_grid(ev, [st], [2.0]))
    assert ev.chebyshev_orders == len(applications) > 0


def assert_steps_equal_the_csr_steps(h, states, times, rng):
    """The diagonal step, and a run of evolve_chunks, equal the CSR-stepped ones bit for bit."""
    ev = ExactEvolver(h)
    u, prev = (rng.normal(size=(h.shape[0], 1)) + 1j * rng.normal(size=(h.shape[0], 1)) for _ in range(2))
    assert np.array_equal(diagonal_step(ev, u, prev), csr_step(ev, h) @ u + prev)
    got, want = evolved_chunks(ev, states, times), csr_stepped_chunks(h, states, times)
    assert len(got) == len(want) > 0
    assert all(np.array_equal(a, b) for chunks in zip(got, want) for a, b in zip(*chunks))


def _driven_half_spin_model() -> BilinearHamiltonian:
    # a spin drive fills band (0, +1) and a coupling band (+1, -1): at j = 1/2
    # both lie at offset 1, so one diagonal holds the two
    gamma = np.zeros((3, 3), dtype=complex)
    gamma[1, 2], gamma[2, 1] = 0.4 + 0.3j, 0.4 - 0.3j
    gamma[1, 1], gamma[2, 2] = 0.2 - 0.5j, 0.2 + 0.5j
    return BilinearHamiltonian(
        group_a=HEISENBERG, group_b=spin_group(0.5),
        alpha=np.array([1.0, 0.3 - 0.2j, 0.3 + 0.2j]), beta=np.array([0.7, 0.25 + 0.1j, 0.25 - 0.1j]), gamma=gamma,
    )


@pytest.mark.parametrize("grid_chunk", [12, 4], ids=["dense", "krylov"])
@pytest.mark.parametrize(
    "h_model, n_max",
    [
        (_driven_half_spin_model(), 6),
        # no term at all: H has no diagonals, and the step is 0
        (maser_hamiltonian(MaserParams(epsilon=0.0, omega=0.0, g=0.0, g_prime=0.0, j=1.5)), 5),
        # couplings only: H stores no main diagonal
        (maser_hamiltonian(MaserParams(epsilon=0.0, omega=0.0, g=0.3, g_prime=0.2, j=1.5)), 7),
        # one coupling: H's last columns are empty, so its DIA data is narrower than H
        (maser_hamiltonian(MaserParams(epsilon=0.0, omega=0.0, g=1.0, g_prime=0.0, j=0.5)), 4),
        (small_model(), 8),
    ],
    ids=["shared-offset", "zero", "no-main-diagonal", "narrow-dia", "maser"],
)
def test_diagonal_steps_equal_the_csr_steps(h_model, n_max, grid_chunk, rng, monkeypatch):
    cfg = HilbertConfig(n_max=n_max, j=h_model.group_b.j)
    h = build_hamiltonian_matrix(h_model, cfg)
    if n_max == 4:
        assert h.todia().data.shape[1] < cfg.dim
    if not h.nnz:
        assert ExactEvolver(h)._diagonals == ()
    # chunks of 8 or 2 times for one state, 4 or 1 for the pair; "krylov"
    # runs blocks of two vectors, where U_{k+1} takes the slot of U_{k-1}
    monkeypatch.setattr(oracle, "_GRID_CHUNK", grid_chunk * cfg.dim)
    raw = rng.normal(size=(2, cfg.dim)) + 1j * rng.normal(size=(2, cfg.dim))
    pair = [OracleState(v / np.linalg.norm(v), cfg) for v in raw]
    times = [0.0, 0.1, 0.7, 2.5, 2.5, 3.0, 4.0]
    assert_steps_equal_the_csr_steps(h, pair[:1], times, rng)
    assert_steps_equal_the_csr_steps(h, pair, times, rng)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_subnormal_half_width_scales_like_a_zero_one():
    # the Gershgorin half-width is 6.3e-313, whose reciprocal overflows
    h_model = maser_hamiltonian(MaserParams(epsilon=0.0, omega=0.0, g=0.0, g_prime=2.2250738585e-313, j=0.5))
    cfg = HilbertConfig(n_max=4, j=0.5)
    h = build_hamiltonian_matrix(h_model, cfg)
    ev = ExactEvolver(h)
    low, high = ev.spectral_interval
    assert 0.0 < high - low < 1e-300 and ev._half_width == 1.0
    assert all(np.isfinite(part).all() for *_, parts in ev._diagonals for part in parts)
    st = OracleState(np.eye(cfg.dim, dtype=complex)[3], cfg)
    times = [0.5, 2.0]
    for t, (out,) in zip(times, evolve_grid(ev, [st], times), strict=True):
        assert np.abs(out.amplitudes - sla.expm(-1j * t * h.toarray()) @ st.amplitudes).max() < 1e-12


def test_chebyshev_steps_match_expm():
    h = build_hamiltonian_matrix(small_model(), SMALL)
    st = product_coherent_vector(0.5 + 0.2j, 0.3 - 0.1j, SMALL)
    ev = ExactEvolver(h)

    def exact(t):
        return sla.expm(-1j * t * h.toarray()) @ st.amplitudes

    # one long step: R dt is about 120, a series of 177 terms
    assert np.abs(ev.evolve(st, 25.0).amplitudes - exact(25.0)).max() < 1e-10
    # steps back in time, a repeated time and negative times
    times = [0.3, 1.2, 0.5, -0.8, -0.8, 4.0]
    for t, (out,) in zip(times, evolve_grid(ev, [st], times), strict=True):
        assert np.abs(out.amplitudes - exact(t)).max() < 1e-10


def test_chebyshev_path_on_a_complex_driven_model():
    # a field drive and a complex co-rotating coupling: H is complex Hermitian
    f, c = 0.3 - 0.2j, 0.2 + 0.15j
    gamma = np.zeros((3, 3), dtype=complex)
    gamma[1, 2], gamma[2, 1] = c, np.conj(c)
    h_model = BilinearHamiltonian(
        group_a=HEISENBERG, group_b=spin_group(1.5),
        alpha=np.array([1.0, f, np.conj(f)]), beta=np.array([0.7, 0.0, 0.0]), gamma=gamma,
    )
    cfg = HilbertConfig(n_max=30, j=1.5)
    h = build_hamiltonian_matrix(h_model, cfg)
    assert np.any(h.data.imag)
    st = product_coherent_vector(0.5 + 0.1j, 0.2 - 0.3j, cfg)
    times = [0.4, 1.0, 3.0]
    for t, (out,) in zip(times, evolve_grid(ExactEvolver(h), [st], times), strict=True):
        assert np.abs(out.amplitudes - sla.expm(-1j * t * h.toarray()) @ st.amplitudes).max() < 1e-10


@settings(max_examples=40, deadline=None)
@given(
    hs.integers(1, 4), hs.integers(1, 3), hs.integers(0, 2**32 - 1),
    hs.lists(hs.floats(-30.0, 30.0), min_size=1, max_size=5), hs.floats(-1e-150, 1e-150),
    hs.sampled_from([1, 2, 4, 32]),
)
def test_chebyshev_step_matches_expm_on_random_hermitian_matrices(n_max, two_j, seed, drawn, tiny, per_chunk):
    cfg = HilbertConfig(n_max=n_max, j=two_j / 2)
    gen = np.random.default_rng(seed)
    a = gen.normal(size=(cfg.dim, cfg.dim)) + 1j * gen.normal(size=(cfg.dim, cfg.dim))
    a = 0.5 * (a + a.conj().T)
    psi = gen.normal(size=cfg.dim) + 1j * gen.normal(size=cfg.dim)
    state = OracleState(amplitudes=psi / np.linalg.norm(psi), config=cfg)
    # a first step far below any rounding of 1, then unsorted times (negative
    # ones too) and a repeat, over chunks of per_chunk times each (the worst
    # of 300 draws was 1.7e-14 off expm)
    times = [tiny, *drawn, drawn[0]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_GRID_CHUNK", cfg.dim * -(-3 * per_chunk // 2))
        grid = list(evolve_grid(ExactEvolver(sp.csr_matrix(a)), [state], times))
    for t, (out,) in zip(times, grid, strict=True):
        assert np.abs(out.amplitudes - sla.expm(-1j * t * a) @ state.amplitudes).max() < 1e-12


@settings(max_examples=40, deadline=None)
@given(
    hs.integers(1, 4), hs.integers(1, 3), hs.integers(1, 4), hs.booleans(), hs.integers(0, 2**32 - 1),
    hs.lists(hs.floats(-30.0, 30.0), min_size=1, max_size=4),
)
def test_dense_path_matches_expm_on_random_hermitian_blocks(n_max, two_j, n_blocks, complex_entries, seed, times):
    cfg = HilbertConfig(n_max=n_max, j=two_j / 2)
    gen = np.random.default_rng(seed)
    # dense decoupled blocks, real or complex, whose basis positions
    # interleave at random, as the parity blocks of the model do
    labels = gen.integers(0, n_blocks, size=cfg.dim)
    a = gen.normal(size=(cfg.dim, cfg.dim))
    if complex_entries:
        a = a + 1j * gen.normal(size=(cfg.dim, cfg.dim))
    a = 0.5 * (a + a.conj().T) * (labels[:, None] == labels[None, :])
    psi = gen.normal(size=cfg.dim) + 1j * gen.normal(size=cfg.dim)
    state = OracleState(amplitudes=psi / np.linalg.norm(psi), config=cfg)
    ev = ExactEvolver(sp.csr_matrix(a))
    for t, (out,) in zip(times, evolve_grid(ev, [state], times), strict=True):
        assert np.abs(out.amplitudes - sla.expm(-1j * t * a) @ state.amplitudes).max() < 1e-10


def miller_size(x: float) -> int:
    """The order range _chebyshev_coefficients searches for an argument x."""
    return int(abs(x) + 10.0 * abs(x) ** (1.0 / 3.0)) + 41


@pytest.mark.parametrize("x", [1e-300, 3.3e-153, 1e-8, 0.5, 4.3, 87.0, 2168.0, 1e4])
def test_bessel_table_matches_mpmath(x):
    eps = np.finfo(float).eps
    size = miller_size(x)
    table = oracle._bessel_table(np.array([x, -x, 0.0]), size)
    assert np.isfinite(table).all()
    # below x = 1 the leading orders are good to a few eps relative, the
    # rest (under eps) absolutely to eps^2; above it every order to 32 eps
    for k in sorted({0, 1, 2, 7, size // 3, int(x), size - 1} & set(range(size))):
        ref = float(mpmath.besselj(k, x, maxprec=30000))
        scale = 1.0 if x > 1.0 else max(abs(ref), eps)
        assert abs(table[k, 0] - ref) <= 32 * eps * scale, k
    # J_k(-x) = (-1)^k J_k(x), and J_k(0) is 1 at k = 0 only
    assert np.array_equal(table[:, 1], table[:, 0] * (-1.0) ** np.arange(size))
    assert table[0, 2] == 1.0 and not table[1:, 2].any()


def test_bessel_table_keeps_the_neumann_identity():
    # J_0 + 2 sum_k J_2k = 1; scipy's jv is off by 3.2e-14 at x = 2168
    x = np.concatenate([np.geomspace(1e-300, 1e4, 60), -np.geomspace(1e-8, 3e3, 7)])
    table = oracle._bessel_table(x, miller_size(1e4))
    assert np.abs(table[0] + 2.0 * table[2::2].sum(axis=0) - 1.0).max() <= 4 * np.finfo(float).eps


def test_each_time_series_stops_at_its_own_order():
    eps = np.finfo(float).eps
    # unsorted, repeated, negative and zero arguments R tau
    x = np.array([30.0, -3.5, 0.0, 30.0, 1e-8, -12.0])
    weights, orders = oracle._chebyshev_coefficients(x)
    # the chunk's recurrence runs to the largest of its times' orders
    assert len(weights) == orders.max() == orders[0]
    for m, xm in enumerate(x):
        order = int(orders[m])
        bessel = [float(mpmath.besselj(k, xm)) for k in range(order + 40)]
        tails = [2.0 * math.fsum(abs(b) for b in bessel[k:]) for k in (order - 1, order)]
        # the first order whose dropped tail is within machine epsilon
        assert tails[1] <= eps < tails[0], m
        kept = (2.0 - (np.arange(order) == 0)) * bessel[:order]
        assert np.abs(weights[:order, m] - kept).max() <= 4 * eps
        assert not weights[order:, m].any()
    # at tau = 0 the series is psi itself
    assert orders[2] == 1


def test_chunk_takes_the_largest_order_of_its_times():
    ev = ExactEvolver(build_hamiltonian_matrix(small_model(), SMALL))
    st = product_coherent_vector(0.5 + 0.2j, 0.3 - 0.1j, SMALL)
    # one chunk of unsorted times, its longest step from t = 0 at index 2
    times = np.array([0.4, -0.2, 1.3, 0.4, 0.0])
    assert [len(chunk) for chunk, _ in ev.evolve_chunks([st], times)] == [5]
    _, orders = oracle._chebyshev_coefficients(ev._half_width * times)
    assert ev.chebyshev_orders == orders.max() - 1 == orders[2] - 1
    assert len(set(orders)) == 4


def test_stacked_observables_equal_the_per_vector_forms(rng):
    # the purity takes the Gram matrix of the smaller side: the spin's, then the field's
    for cfg in (HilbertConfig(n_max=12, j=1.5), HilbertConfig(n_max=3, j=6.5)):
        # (times, dim, states) transposed, as evolve_chunks yields a chunk
        raw = rng.normal(size=(5, cfg.dim, 3)) + 1j * rng.normal(size=(5, cfg.dim, 3))
        amps = (raw / np.linalg.norm(raw, axis=1, keepdims=True)).transpose(0, 2, 1)
        stack, swapped = OracleState(amps, cfg), OracleState(amps[:, ::-1], cfg)
        field = field_annihilation_expectation(stack)
        overlaps = exact_overlap_pair(stack, swapped)
        top = top_fock_population(stack)
        entropy = reduced_linear_entropy(stack)
        assert field.shape == overlaps.shape == top.shape == entropy.shape == (5, 3)
        for idx in np.ndindex(5, 3):
            v = amps[idx]
            assert abs(field[idx] - vector_field_annihilation(v, cfg)) <= 1e-13
            assert abs(overlaps[idx] - vector_overlap(v, amps[idx[0], 2 - idx[1]])) <= 1e-13
            assert abs(top[idx] - vector_top_fock_population(v, cfg)) <= 1e-13
            assert abs(entropy[idx] - vector_linear_entropy(v, cfg)) <= 1e-13
        # one vector gives one number
        single = OracleState(amps[2, 1], cfg)
        assert np.ndim(field_annihilation_expectation(single)) == np.ndim(reduced_linear_entropy(single)) == 0
        assert reduced_linear_entropy(single) == entropy[2, 1]


def test_purity_disagreement_names_the_first_bad_time():
    cfg = HilbertConfig(n_max=3, j=0.5)
    amps = np.tile(np.eye(cfg.dim, dtype=complex)[3], (4, 1))
    amps[3, 1] = amps[2, 5] = np.nan
    with pytest.raises(CohChaosError, match=r"reduced purity nan at t = 0\.7 outside \[tr\^2/2, tr\^2\] with tr = nan$"):
        reduced_linear_entropy(OracleState(amps, cfg), [0.1, 0.4, 0.7, 0.9])
    with pytest.raises(CohChaosError, match=r"reduced purity nan outside \[tr\^2/2, tr\^2\]"):
        reduced_linear_entropy(OracleState(amps[3], cfg))
    assert reduced_linear_entropy(OracleState(amps[:2], cfg), [0.1, 0.4]) == pytest.approx([0.0, 0.0], abs=1e-12)
    # an infinite amplitude fails the bounds too, and one whose square
    # overflows gives an infinite purity, which only the finiteness check stops
    for value, purity in ((np.inf, "nan"), (1e200, "inf")):
        rows = np.tile(np.eye(cfg.dim, dtype=complex)[3], (4, 1))
        rows[1, 6] = value
        with pytest.raises(CohChaosError, match=rf"reduced purity {purity} at t = 0\.4 outside .* with tr = inf$"):
            reduced_linear_entropy(OracleState(rows, cfg), [0.1, 0.4, 0.7, 0.9])


def test_evolve_grid_rejects_a_state_of_another_dimension():
    ev = ExactEvolver(build_hamiltonian_matrix(small_model(), SMALL))
    good = product_coherent_vector(0.5, 0.3, SMALL)
    other = product_coherent_vector(0.5, 0.3, HilbertConfig(n_max=9, j=0.5))
    with pytest.raises(ValueError, match="dimension 20 does not match the matrix dimension 18"):
        next(evolve_grid(ev, [good, other], [0.1]))
    with pytest.raises(ValueError, match="at least one state"):
        next(evolve_grid(ev, [], [0.1]))


def test_evolver_rejects_norm_drift():
    h = build_hamiltonian_matrix(small_model(), SMALL)
    st = OracleState(amplitudes=0.5 * np.eye(SMALL.dim, dtype=complex)[0], config=SMALL)
    with pytest.raises(CohChaosError, match="norm drift"):
        ExactEvolver(h).evolve(st, 0.1)
    with pytest.raises(CohChaosError, match=r"norm drift .* at t = 0\.1$"):
        list(evolve_grid(ExactEvolver(h), [st], [0.1, 0.2]))
    # a weak decay loses norm as exp(-1e-8 t): within 1e-9 up to t = 0.1 only
    lossy = h - 1e-8j * sp.identity(SMALL.dim, format="csr")
    good = product_coherent_vector(0.5 + 0.2j, 0.3 - 0.1j, SMALL)
    grid = evolve_grid(ExactEvolver(lossy), [good], [0.0, 0.05, 0.2, 0.3])
    assert [np.linalg.norm(next(grid)[0].amplitudes) for _ in range(2)] == pytest.approx([1.0, 1.0], abs=1e-9)
    with pytest.raises(CohChaosError, match=r"norm drift .* at t = 0\.2$"):
        next(grid)
    # inside one chunk of unsorted times the first bad time in their order is
    # named, after the times before it are yielded
    chunks = ExactEvolver(lossy).evolve_chunks([good], [0.05, 0.0, 0.3, 0.02])
    assert list(next(chunks)[0]) == [0.05, 0.0]
    with pytest.raises(CohChaosError, match=r"norm drift .* at t = 0\.3$"):
        next(chunks)
    # a step too long for one series raises before it evaluates the series
    with pytest.raises(CohChaosError, match="needs more than 100000 orders"):
        ExactEvolver(h).evolve(good, 1e9)
    # a time that is not a number fails, never yields NaNs
    with pytest.raises(CohChaosError, match="not finite"):
        next(evolve_grid(ExactEvolver(h), [good], [math.nan]))


def test_energy_expectation_drift(fig1_h_matrix, fig1_evolver, fig1_pair_vectors):
    psi = fig1_pair_vectors[0]
    e0 = operator_expectation(psi, fig1_h_matrix).real
    for (out,) in evolve_grid(fig1_evolver, [psi], np.linspace(0.0, 10.0, 11)):
        et = operator_expectation(out, fig1_h_matrix).real
        assert abs(et - e0) <= 1e-9 * max(1.0, abs(e0))


def test_product_vector_expectations():
    cfg = HilbertConfig(n_max=60, j=1.5)
    x, y = 1.4 - 0.7j, 0.4 + 0.3j
    st = product_coherent_vector(x, y, cfg)
    assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12
    assert abs(field_annihilation_expectation(st) - x) < 1e-8
    jz = sp.kron(sp.identity(cfg.n_max + 1, format="csr"), sp.csr_matrix(generator_matrices(spin_group(1.5))[0]))
    from cohchaos.algebra import Gen, expectations

    assert abs(operator_expectation(st, jz.tocsr()) - expectations(spin_group(1.5), y.real, y.imag)[Gen.ZERO]) < 1e-10
    num = sp.kron(
        sp.diags(np.arange(cfg.n_max + 1, dtype=float)), sp.identity(cfg.spin_dim, format="csr")
    )
    assert abs(operator_expectation(st, num.tocsr()) - abs(x) ** 2) < 1e-8


def test_product_vector_truncation_error():
    with pytest.raises(TruncationError, match="policy recommends"):
        product_coherent_vector(5.0, 0.0, HilbertConfig(n_max=10, j=0.5))


@pytest.mark.parametrize("bad", [complex("inf"), complex("nan"), 2e6, 2e6j])
@pytest.mark.parametrize("degree", ["field", "spin"])
def test_product_vector_rejects_out_of_range_labels(bad, degree):
    # checked before the truncation deficit, whose error text would size
    # n_max for the label (overflowing at inf)
    x, y = (bad, 0.0) if degree == "field" else (0.0, bad)
    with pytest.raises(ValueError, match="coherent label"):
        product_coherent_vector(x, y, SMALL)


def test_doorway_vector_properties():
    cfg = HilbertConfig(n_max=40, j=4.5)
    s = ProductState(x=0.9 + 0.4j, y=-0.3 + 0.2j)
    d = doorway_vector(s, cfg)
    base = product_coherent_vector(s.x, s.y, cfg)
    assert abs(np.linalg.norm(d.amplitudes) - 1.0) < 1e-8
    assert abs(exact_overlap_pair(d, base)) < 1e-8
    # at the origin the doorway is the bare one-excitation basis state
    d0 = doorway_vector(ProductState(x=0.0, y=0.0), cfg)
    target = np.zeros(cfg.dim, dtype=complex)
    target[1 * cfg.spin_dim + 1] = 1.0
    assert np.abs(d0.amplitudes - target).max() < 1e-12


def test_reduced_entropy_reference_values():
    cfg2 = HilbertConfig(n_max=1, j=0.5)
    bell = np.zeros(cfg2.dim, dtype=complex)
    bell[0 * cfg2.spin_dim + 1] = 1.0 / math.sqrt(2.0)
    bell[1 * cfg2.spin_dim + 0] = 1.0 / math.sqrt(2.0)
    st = OracleState(amplitudes=bell, config=cfg2)
    assert reduced_linear_entropy(st) == pytest.approx(0.5, abs=1e-12)
    product = product_coherent_vector(0.7, 0.2j, HilbertConfig(n_max=40, j=1.0))
    assert reduced_linear_entropy(product) < 1e-12


def test_overlap_pair_matches_closed_form():
    cfg = HilbertConfig(n_max=50, j=2.5)
    x1, y1 = 0.9 + 0.3j, 0.2 - 0.4j
    x2, y2 = 1.1 - 0.1j, 0.35 + 0.1j
    a = product_coherent_vector(x1, y1, cfg)
    b = product_coherent_vector(x2, y2, cfg)
    closed = overlap(HEISENBERG, x1, x2) * overlap(spin_group(2.5), y1, y2)
    assert abs(exact_overlap_pair(a, b) - closed) < 1e-8
    with pytest.raises(ValueError):
        exact_overlap_pair(a, product_coherent_vector(x1, y1, HilbertConfig(n_max=51, j=2.5)))

