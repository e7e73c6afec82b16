"""Shared fixtures. The expensive ones (exact evolver on the demonstration
parameter set) are session-scoped so the acceptance tests amortize a single
eigendecomposition."""

import numpy as np
import pytest

from cohchaos.dynamics import IntegratorConfig, integrate
from cohchaos.experiments import config_from_dict, project_with_fallback
from cohchaos.model import maser_hamiltonian
from cohchaos.oracle import (
    ExactEvolver,
    HilbertConfig,
    build_hamiltonian_matrix,
    product_coherent_vector,
)


@pytest.fixture(scope="session")
def fig1_cfg():
    return config_from_dict({"preset": "fig1"})


@pytest.fixture(scope="session")
def fig1_h(fig1_cfg):
    return maser_hamiltonian(fig1_cfg.model)


@pytest.fixture(scope="session")
def fig1_states(fig1_cfg, fig1_h):
    """The four preset states projected onto the E = 8.5 shell."""
    return tuple(
        project_with_fallback(s, fig1_h, fig1_cfg.energy_target)[0] for s in fig1_cfg.states
    )


@pytest.fixture(scope="session")
def fig1_hilbert():
    return HilbertConfig(n_max=120, j=4.5)


@pytest.fixture(scope="session")
def fig1_h_matrix(fig1_h, fig1_hilbert):
    return build_hamiltonian_matrix(fig1_h, fig1_hilbert)


@pytest.fixture(scope="session")
def fig1_evolver(fig1_h_matrix):
    return ExactEvolver(fig1_h_matrix)


@pytest.fixture(scope="session")
def fig1_pair_vectors(fig1_states, fig1_hilbert):
    """Exact-basis vectors of the projected chaotic pair."""
    return tuple(
        product_coherent_vector(s.x, s.y, fig1_hilbert) for s in fig1_states[:2]
    )


@pytest.fixture(scope="session")
def chaotic_trajectories(fig1_h, fig1_states):
    """Chaotic-pair mean-field runs over the full demonstration window."""
    icfg = IntegratorConfig()
    return tuple(integrate(fig1_h, s, 25.0, icfg) for s in fig1_states[:2])


@pytest.fixture()
def rng():
    return np.random.default_rng(20250817)
