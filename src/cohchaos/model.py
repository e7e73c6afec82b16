"""Bilinear oscillator-spin Hamiltonians and their mean-field reduction.

The class of models treated here couples two degrees of freedom through
terms linear in each algebra,

    H = sum_i alpha_i A_i + sum_j beta_j B_j + sum_ij gamma_ij A_i B_j,

with i, j running over (ZERO, PLUS, MINUS).  Self-consistent mean-field
coefficients replace the partner operators by coherent expectation values,
which is exactly the factorized limit of the Heisenberg equations of motion
for product coherent states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Gen, GroupKind, HEISENBERG, CohChaosError, expectations, spin

# dagger permutation of the generator ordering (ZERO, PLUS, MINUS)
_DAG = (0, 2, 1)


class HermiticityError(CohChaosError):
    """Coefficient arrays violate the hermiticity constraints."""


@dataclass(frozen=True)
class BilinearHamiltonian:
    """Immutable coefficient bundle for one oscillator-spin (or general) model.

    alpha and beta are the linear coefficients of the two sides, gamma[i, j]
    couples A_i to B_j.  Construction rejects any violation of hermiticity:
    alpha_0, beta_0 real, alpha_- = conj(alpha_+) (same for beta), and
    gamma[dag(i), dag(j)] = conj(gamma[i, j]) where dag swaps PLUS and MINUS.
    The arrays serve the exact oracle and classical_energy.  The mean-field
    right-hand side reads `scalars` instead: alpha, beta and gamma
    (row-major) as one flat tuple of Python complex numbers, built once here.
    """

    group_a: GroupKind
    group_b: GroupKind
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    scalars: tuple[complex, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arrays = {}
        for name, shape in (("alpha", (3,)), ("beta", (3,)), ("gamma", (3, 3))):
            arr = arrays[name] = np.asarray(getattr(self, name), dtype=complex)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr.view(float))):
                raise ValueError(f"{name} must be finite")
        alpha, beta, gamma = arrays.values()
        tol = 1e-12 * max(1.0, *(float(np.abs(arr).max()) for arr in arrays.values()))
        problems = []
        for name, vec in (("alpha", alpha), ("beta", beta)):
            if abs(vec[Gen.ZERO].imag) > tol:
                problems.append(f"{name}[ZERO] must be real")
            if abs(vec[Gen.MINUS] - np.conj(vec[Gen.PLUS])) > tol:
                problems.append(f"{name}[MINUS] must equal conj({name}[PLUS])")
        for i in range(3):
            for jj in range(3):
                if abs(gamma[_DAG[i], _DAG[jj]] - np.conj(gamma[i, jj])) > tol:
                    problems.append(f"gamma[{_DAG[i]},{_DAG[jj]}] must equal conj(gamma[{i},{jj}])")
        if problems:
            raise HermiticityError("; ".join(sorted(set(problems))))
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "scalars", tuple(np.concatenate([alpha, beta, gamma.ravel()]).tolist()))


@dataclass(frozen=True)
class MaserParams:
    """Parameters of the driven spin-oscillator model.

    epsilon is the spin splitting, omega the oscillator frequency, g the
    co-rotating and g_prime the counter-rotating coupling, j the spin
    magnitude.  Couplings enter the Hamiltonian divided by sqrt(j).
    """

    epsilon: float = 1.0
    omega: float = 1.0
    g: float = 0.5
    g_prime: float = 0.2
    j: float = 4.5

    def __post_init__(self) -> None:
        for name in ("epsilon", "omega", "g", "g_prime", "j"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite")
        spin(self.j)  # validates half-integer positivity


def maser_hamiltonian(p: MaserParams) -> BilinearHamiltonian:
    """Oscillator-spin model omega a^dag a + epsilon J_z plus sqrt(j)-normalized couplings.

    The co-rotating part g (a^dag J_- + a J_+)/sqrt(j) conserves excitation
    number; the counter-rotating part g' (a^dag J_+ + a J_-)/sqrt(j) breaks
    it and is what opens the door to classical chaos.
    """
    root_j = np.sqrt(p.j)
    gamma = np.zeros((3, 3), dtype=complex)
    gamma[Gen.PLUS, Gen.MINUS] = p.g / root_j
    gamma[Gen.MINUS, Gen.PLUS] = p.g / root_j
    gamma[Gen.PLUS, Gen.PLUS] = p.g_prime / root_j
    gamma[Gen.MINUS, Gen.MINUS] = p.g_prime / root_j
    return BilinearHamiltonian(
        group_a=HEISENBERG,
        group_b=spin(p.j),
        alpha=np.array([p.omega, 0.0, 0.0], dtype=complex),
        beta=np.array([p.epsilon, 0.0, 0.0], dtype=complex),
        gamma=gamma,
    )


def mean_field_coeffs(
    h: BilinearHamiltonian, ev_a: tuple[complex, ...], ev_b: tuple[complex, ...]
) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """Coefficients a_i = alpha_i + sum_j gamma_ij <B_j> and the mirrored b_j.

    ev_a and ev_b are the two sides' algebra.expectations.  The zero
    components stay real and the raising/lowering components stay
    conjugate because the partner expectations are themselves conjugate
    pairs on a hermitian model.  Python complex arithmetic on h.scalars,
    with the 3x3 sums written out: numpy's set-up cost on 3-vectors would
    be most of the flow's right-hand side.
    """
    a0, ap, am, b0, bp, bm, g00, g0p, g0m, gp0, gpp, gpm, gm0, gmp, gmm = h.scalars
    ea0, eap, eam = ev_a
    eb0, ebp, ebm = ev_b
    c0 = a0 + g00 * eb0 + g0p * ebp + g0m * ebm
    d0 = b0 + g00 * ea0 + gp0 * eap + gm0 * eam
    # hermiticity of h guarantees these analytically; guard against drift
    # beyond 1e-10 max(1, |c|), testing the cheap half of the bound first
    for z in (c0, d0):
        if abs(z.imag) > 1e-10 and abs(z.imag) > 1e-10 * abs(z):
            raise HermiticityError("mean-field zero component acquired an imaginary part")
    return (
        (c0.real, ap + gp0 * eb0 + gpp * ebp + gpm * ebm, am + gm0 * eb0 + gmp * ebp + gmm * ebm),
        (d0.real, bp + g0p * ea0 + gpp * eap + gmp * eam, bm + g0m * ea0 + gpm * eap + gmm * eam),
    )


def classical_energy(h: BilinearHamiltonian, x: complex, y: complex) -> float:
    """Energy of the product coherent state with labels (x, y).

    E = sum_i alpha_i <A_i> + sum_j beta_j <B_j> + sum_ij gamma_ij <A_i><B_j>.
    The imaginary residue is asserted tiny (hermiticity) and discarded.
    Python complex arithmetic on h.scalars, like the flow's right-hand side.
    """
    ev_a = expectations(h.group_a, x)
    ev_b = expectations(h.group_b, y)
    a0, ap, am, b0, bp, bm = h.scalars[:6]
    ea0, eap, eam = ev_a
    eb0, ebp, ebm = ev_b
    e = a0 * ea0 + ap * eap + am * eam + b0 * eb0 + bp * ebp + bm * ebm
    return _real(e, "energy") + interaction_energy(h, ev_a, ev_b)


def interaction_energy(h: BilinearHamiltonian, ev_a: tuple[complex, ...], ev_b: tuple[complex, ...]) -> float:
    """Coherent expectation of the coupling term alone, sum_ij gamma_ij <A_i><B_j>.

    This is the c-number the decoupled single-factor Hamiltonians count
    twice; the exact-state phase carries it back as a counterterm.
    """
    _, _, _, _, _, _, g00, g0p, g0m, gp0, gpp, gpm, gm0, gmp, gmm = h.scalars
    ea0, eap, eam = ev_a
    eb0, ebp, ebm = ev_b
    e = (
        (ea0 * g00 + eap * gp0 + eam * gm0) * eb0
        + (ea0 * g0p + eap * gpp + eam * gmp) * ebp
        + (ea0 * g0m + eap * gpm + eam * gmm) * ebm
    )
    return _real(e, "interaction energy")


def _real(e: complex, what: str) -> float:
    # the bound is 1e-12 max(1, |e|), its cheap half tested first
    if abs(e.imag) > 1e-12 and abs(e.imag) > 1e-12 * abs(e):
        raise HermiticityError(f"{what} has imaginary residue {e.imag:.3e}; hermiticity bug")
    return float(e.real)
