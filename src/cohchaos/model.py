"""Bilinear oscillator-spin Hamiltonians and their mean-field reduction.

The class of models treated here couples two degrees of freedom through
terms linear in each algebra,

    H = sum_i alpha_i A_i + sum_j beta_j B_j + sum_ij gamma_ij A_i B_j,

with i, j running over (ZERO, PLUS, MINUS).  Self-consistent mean-field
coefficients replace the partner operators by coherent expectation values,
which is exactly the factorized limit of the Heisenberg equations of motion
for product coherent states.  Hermiticity, checked once at construction,
makes every zero component real and every MINUS component the conjugate of
its PLUS partner, so the reduction computes only the independent half.
"""

from __future__ import annotations

import math
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
    gamma[dag(i), dag(j)] = conj(gamma[i, j]) where dag swaps PLUS and MINUS,
    to 1e-12 of the largest entry.  The arrays are read-only copies of the
    arguments with each zero entry made real and each dependent entry the
    conjugate of its partner, and serve the oracle and the correction
    kernel.  The flow, mean_field_coeffs and classical_energy read
    `scalars` instead, the model the arrays then describe: the nine
    independent entries
    (alpha_0, alpha_+, beta_0, beta_+, gamma_00, gamma_0+, gamma_+0,
    gamma_++, gamma_+-) as 15 Python floats, built once here: each zero
    entry as one real float, each PLUS entry as its real part followed by
    its imaginary part.  Hermiticity fixes every other entry as the
    conjugate of one of these.
    """

    group_a: GroupKind
    group_b: GroupKind
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    scalars: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        arrays = {}
        for name, shape in (("alpha", (3,)), ("beta", (3,)), ("gamma", (3, 3))):
            # a copy, so that the caller's array stays writable and scalars stays in step
            arr = arrays[name] = np.array(getattr(self, name), dtype=complex)
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
        zero, plus, minus = Gen
        # within tol, the arrays the oracle reads are made the model of scalars
        fixes = [(vec, zero, vec[zero].real) for vec in (alpha, beta)]
        fixes += [(vec, minus, np.conj(vec[plus])) for vec in (alpha, beta)] + [(gamma, (zero, zero), gamma[zero, zero].real)]
        fixes += [(gamma, (_DAG[i], _DAG[k]), np.conj(gamma[i, k])) for i, k in ((zero, plus), (plus, zero), (plus, plus), (plus, minus))]
        for arr, index, value in fixes:
            if arr[index] != value:  # an entry already equal keeps its bits, a signed zero its sign
                arr[index] = value
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(
            self,
            "scalars",
            (
                float(alpha[zero].real), *_parts(alpha[plus]), float(beta[zero].real), *_parts(beta[plus]),
                float(gamma[zero, zero].real), *_parts(gamma[zero, plus]), *_parts(gamma[plus, zero]),
                *_parts(gamma[plus, plus]), *_parts(gamma[plus, minus]),
            ),
        )


def _parts(c: complex) -> tuple[float, float]:
    return float(c.real), float(c.imag)


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
    # a Python float, so that a coupling that overflows gives inf without a warning
    root_j = math.sqrt(p.j)
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
    h: BilinearHamiltonian, ev_a: tuple[float, float, float], ev_b: tuple[float, float, float]
) -> tuple[tuple[float, float, float], tuple[float, float, float], float]:
    """Independent mean-field coefficients (a_0, Re a_+, Im a_+), (b_0, Re b_+, Im b_+) and the coupling energy.

    a_i = alpha_i + sum_j gamma_ij <B_j> and b_j = beta_j + sum_i gamma_ij <A_i>,
    with ev_a and ev_b the two sides' algebra.expectations
    (<A_0>, Re <A_+>, Im <A_+>).  On a hermitian model the partner
    expectations are conjugate pairs, so the zero components are real and
    a_- = conj(a_+), b_- = conj(b_+):

        a_0 = alpha_0 + gamma_00 <B_0> + 2 Re(gamma_0+ <B_+>)
        a_+ = alpha_+ + gamma_+0 <B_0> + gamma_++ <B_+> + gamma_+- conj(<B_+>)
        b_0 = beta_0 + s_0,  b_+ = beta_+ + s_+,  with the partner sums
        s_0 = gamma_00 <A_0> + 2 Re(gamma_+0 <A_+>)
        s_+ = gamma_0+ <A_0> + gamma_++ <A_+> + conj(gamma_+- <A_+>)

    (gamma_-+ = conj(gamma_+-)).  The coupling energy, the c-number the
    decoupled single-factor Hamiltonians count twice, is
    E_c = sum_ij gamma_ij <A_i><B_j> = s_0 <B_0> + 2 Re(s_+ <B_+>).  Every
    complex product above is taken on its real and imaginary parts, in
    Python floats on h.scalars, the sums written out.  The flow's general
    right-hand side (dynamics._flow_rhs) and classical_energy call this
    one; the maser's fused body (dynamics._maser_rhs) writes these sums out
    in the same operation order and must keep the bits of this form.
    """
    a0, apr, api, b0, bpr, bpi, g00, g0pr, g0pi, gp0r, gp0i, gppr, gppi, gpmr, gpmi = h.scalars
    ea0, ear, eai = ev_a
    eb0, ebr, ebi = ev_b
    s0 = g00 * ea0 + 2.0 * (gp0r * ear - gp0i * eai)
    spr = g0pr * ea0 + (gppr * ear - gppi * eai) + (gpmr * ear - gpmi * eai)
    spi = g0pi * ea0 + (gppr * eai + gppi * ear) - (gpmr * eai + gpmi * ear)
    return (
        (
            a0 + g00 * eb0 + 2.0 * (g0pr * ebr - g0pi * ebi),
            apr + gp0r * eb0 + (gppr * ebr - gppi * ebi) + (gpmr * ebr + gpmi * ebi),
            api + gp0i * eb0 + (gppr * ebi + gppi * ebr) + (gpmi * ebr - gpmr * ebi),
        ),
        (b0 + s0, bpr + spr, bpi + spi),
        s0 * eb0 + 2.0 * (spr * ebr - spi * ebi),
    )


def classical_energy(h: BilinearHamiltonian, x: complex, y: complex) -> float:
    """Energy of the product coherent state with labels (x, y).

    E = sum_i alpha_i <A_i> + sum_j beta_j <B_j> + sum_ij gamma_ij <A_i><B_j>
      = alpha_0 <A_0> + beta_0 <B_0> + 2 Re(alpha_+ <A_+> + beta_+ <B_+>) + E_c,
    E_c being mean_field_coeffs' coupling energy; real by construction.
    Python float arithmetic on the labels' parts and h.scalars:
    Re(c <A_+>) = Re c Re <A_+> - Im c Im <A_+>.
    """
    x, y = complex(x), complex(y)
    ev_a = expectations(h.group_a, x.real, x.imag)
    ev_b = expectations(h.group_b, y.real, y.imag)
    a0, apr, api, b0, bpr, bpi = h.scalars[:6]
    ea0, ear, eai = ev_a
    eb0, ebr, ebi = ev_b
    one_body = a0 * ea0 + b0 * eb0 + 2.0 * ((apr * ear - api * eai) + (bpr * ebr - bpi * ebi))
    return one_body + mean_field_coeffs(h, ev_a, ev_b)[2]
