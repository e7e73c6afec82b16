"""Closed-form kinematics against literal truncated-basis linear algebra."""

import math

import numpy as np
import pytest

from cohchaos.algebra import (
    HEISENBERG,
    Gen,
    GroupKind,
    TruncationError,
    expectations,
    group_relation_coeffs,
    overlap,
    raising_matrix_element,
    spin,
)
from reference import displaced_basis_vector, displacement_matrix, generator_matrices, overlap_modulus_sq

DIM = 40


def field_vec(z, dim=DIM):
    return displaced_basis_vector(HEISENBERG, z, truncation=dim).vector


def test_group_kind_validation():
    with pytest.raises(ValueError):
        GroupKind("heisenberg", j=1.0)
    with pytest.raises(ValueError):
        GroupKind("spin")
    with pytest.raises(ValueError):
        spin(0.3)
    with pytest.raises(ValueError):
        spin(-1.0)
    # 2j within 1e-12 of 0 is no spin, though it lies within 1e-12 of an integer
    for tiny in (1e-300, 1e-17, 5e-13, 0.0, -1e-17):
        with pytest.raises(ValueError):
            spin(tiny)
    with pytest.raises(ValueError):
        GroupKind("other")
    assert spin(4.5).dim == 10
    assert spin(0.5 - 1e-13).dim == 2
    with pytest.raises(ValueError):
        HEISENBERG.dim


def test_overlap_equal_labels_exact():
    assert overlap(HEISENBERG, 0.3 + 0.2j, 0.3 + 0.2j) == 1.0 + 0.0j
    assert overlap(spin(2.5), -0.4j, -0.4j) == 1.0 + 0.0j
    assert overlap_modulus_sq(HEISENBERG, 1.1 - 0.7j, 1.1 - 0.7j) == 1.0


def test_overlap_reference_values():
    # unit separation of oscillator labels
    assert abs(overlap_modulus_sq(HEISENBERG, 0.0, 1.0) - math.exp(-1.0)) < 1e-12
    assert abs(abs(overlap(HEISENBERG, 0.0, 1.0)) - math.exp(-0.5)) < 1e-12
    # spin one-half with labels 0 and 1: base 1 - 1/2 to the power 2j = 1
    assert abs(overlap_modulus_sq(spin(0.5), 0.0, 1.0) - 0.5) < 1e-12


def test_overlap_antipodal_spin_labels():
    # exactly representable antipodal pair
    assert overlap(spin(1.5), 1.0, -1.0) == 0.0
    assert overlap_modulus_sq(spin(1.5), 1.0, -1.0) == 0.0
    # generic pair: -1/conj(z) rounds, leaving only a residual of order eps^(2j)
    z = 0.7 + 0.4j
    anti = -1.0 / np.conj(z)
    assert abs(overlap(spin(1.5), z, anti)) < 1e-45
    assert overlap_modulus_sq(spin(1.5), z, anti) < 1e-45


def test_overlap_against_matrix_representation(rng):
    for _ in range(10):
        z1 = complex(*rng.uniform(-1, 1, 2))
        z2 = complex(*rng.uniform(-1, 1, 2))
        v1, v2 = field_vec(z1), field_vec(z2)
        assert abs(np.vdot(v1, v2) - overlap(HEISENBERG, z1, z2)) < 1e-10
        for j in (0.5, 1.0, 4.5):
            g = spin(j)
            w1 = displaced_basis_vector(g, z1).vector
            w2 = displaced_basis_vector(g, z2).vector
            assert abs(np.vdot(w1, w2) - overlap(g, z1, z2)) < 1e-12


def test_overlap_symmetry_and_modulus(rng):
    for group in (HEISENBERG, spin(1.5)):
        for _ in range(50):
            z1 = complex(*rng.uniform(-2, 2, 2))
            z2 = complex(*rng.uniform(-2, 2, 2))
            ov = overlap(group, z1, z2)
            assert abs(ov - np.conj(overlap(group, z2, z1))) < 1e-12
            assert abs(abs(ov) ** 2 - overlap_modulus_sq(group, z1, z2)) < 1e-12


def test_overlap_monotone_in_separation(rng):
    for group in (HEISENBERG, spin(2.0)):
        for _ in range(50):
            z1 = complex(*rng.uniform(-1, 1, 2))
            direction = np.exp(2j * np.pi * rng.uniform())
            r1, r2 = sorted(rng.uniform(0.0, 2.0, 2))
            m1 = overlap_modulus_sq(group, z1, z1 + r1 * direction)
            m2 = overlap_modulus_sq(group, z1, z1 + r2 * direction)
            assert m2 <= m1 + 1e-12


def full_expectations(group, z):
    """(<A_0>, <A_+>, <A_->) from the independent parts, <A_-> = conj(<A_+>)."""
    e0, epr, epi = expectations(group, z.real, z.imag)
    return e0, complex(epr, epi), complex(epr, -epi)


def test_expectation_against_matrix(rng):
    n_op, ad, a = generator_matrices(HEISENBERG, truncation=DIM)
    for _ in range(5):
        z = complex(*rng.uniform(-1, 1, 2))
        v = field_vec(z)
        for idx, op in ((Gen.ZERO, n_op), (Gen.PLUS, ad), (Gen.MINUS, a)):
            assert abs(np.vdot(v, op @ v) - full_expectations(HEISENBERG, z)[idx]) < 1e-10
        g = spin(1.5)
        jz, jp, jm = generator_matrices(g)
        w = displaced_basis_vector(g, z).vector
        for idx, op in ((Gen.ZERO, jz), (Gen.PLUS, jp), (Gen.MINUS, jm)):
            assert abs(np.vdot(w, op @ w) - full_expectations(g, z)[idx]) < 1e-12
        # every returned entry is a real float
        for group in (HEISENBERG, g):
            assert [type(c) for c in expectations(group, z.real, z.imag)] == [float] * 3


def test_spin_bloch_vector_length(rng):
    g = spin(3.5)
    for _ in range(20):
        z = complex(*rng.uniform(-3, 3, 2))
        jz, jp_re, jp_im = expectations(g, z.real, z.imag)
        jx, jy = jp_re, -jp_im  # J_+ = J_x + i J_y
        length = math.sqrt(jx * jx + jy * jy + jz * jz)
        assert abs(length - g.j) < 1e-12


def relation_residual(group, index, z, dim=80, keep=40):
    """Max deviation of A_i D(z) - D(z)(sum_k g_k A_k + k) on the kept block."""
    trunc = None if group.is_spin else dim
    mats = generator_matrices(group, truncation=trunc)
    d = displacement_matrix(group, z, truncation=trunc)
    g, k = group_relation_coeffs(group, z)
    lhs = mats[index] @ d
    rhs = d @ (sum(c * m for c, m in zip(g[index], mats)) + k[index] * np.eye(d.shape[0]))
    if group.is_spin:
        return float(np.abs(lhs - rhs).max())
    return float(np.abs((lhs - rhs)[:keep, :keep]).max())


def test_group_relation_rows(rng):
    for group in (HEISENBERG, spin(1.0), spin(4.5)):
        for _ in range(5):
            z = complex(*rng.uniform(-0.7, 0.7, 2))
            for index in (Gen.ZERO, Gen.PLUS, Gen.MINUS):
                assert relation_residual(group, index, z) < 1e-10


def test_relation_scalar_parts():
    z = 0.4 - 0.9j
    g, k = group_relation_coeffs(HEISENBERG, z)
    assert tuple(g[Gen.ZERO]) == (1.0 + 0j, z, np.conj(z)) and abs(k[Gen.ZERO] - abs(z) ** 2) < 1e-15
    assert k[Gen.PLUS] == np.conj(z)
    assert k[Gen.MINUS] == z
    assert np.all(group_relation_coeffs(spin(2.0), z)[1] == 0j)


def test_raising_matrix_element():
    assert raising_matrix_element(HEISENBERG) == 1.0
    for j in (0.5, 1.0, 4.5):
        g = spin(j)
        _, jp, _ = generator_matrices(g)
        assert abs(raising_matrix_element(g) - jp[1, 0].real) < 1e-12
        assert abs(raising_matrix_element(g) - math.sqrt(2 * j)) < 1e-15


def test_displaced_first_fiducial_matches_matrix(rng):
    for _ in range(5):
        z = complex(*rng.uniform(-0.8, 0.8, 2))
        v = displaced_basis_vector(HEISENBERG, z, 1, truncation=DIM).vector
        col = displacement_matrix(HEISENBERG, z, truncation=DIM)[:, 1]
        assert np.abs(v - col).max() < 1e-10
        g = spin(2.5)
        w = displaced_basis_vector(g, z, 1).vector
        wcol = displacement_matrix(g, z)[:, 1]
        assert np.abs(w - wcol).max() < 1e-12


def test_displaced_vector_errors():
    # the first four cases check the test-side vectors of tests/reference.py
    with pytest.raises(TruncationError):
        displaced_basis_vector(HEISENBERG, 5.0, truncation=8)
    with pytest.raises(ValueError):
        displaced_basis_vector(HEISENBERG, 0.1, fiducial_index=-1, truncation=8)
    with pytest.raises(ValueError):
        displaced_basis_vector(HEISENBERG, 0.1, truncation=None)
    with pytest.raises(ValueError):
        displaced_basis_vector(spin(0.5), 0.1, fiducial_index=2)
    with pytest.raises(ValueError):
        overlap(HEISENBERG, complex("inf"), 0.0)


def test_boson_operator_commutator():
    n, ad, a = generator_matrices(HEISENBERG, truncation=12)
    comm = a @ ad - ad @ a
    # truncation corrupts only the top corner
    assert np.abs(comm[:11, :11] - np.eye(12)[:11, :11]).max() < 1e-12
    assert np.abs(n - ad @ a).max() < 1e-12


def test_spin_matrix_commutators():
    jz, jp, jm = generator_matrices(spin(1.5))
    assert np.abs(jz @ jp - jp @ jz - jp).max() < 1e-12
    assert np.abs(jp @ jm - jm @ jp - 2 * jz).max() < 1e-12
    assert np.abs(jp - jm.conj().T).max() == 0.0
