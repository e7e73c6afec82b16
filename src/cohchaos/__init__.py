"""Coherent-state mean-field dynamics of bilinear oscillator-spin models.

Labels evolve on the product of the oscillator plane and the spin
stereographic plane; on top of the resulting classical flow the package
carries phases, first-order doorway corrections, pair-overlap and
Lyapunov diagnostics, and an exact truncated-basis reference evolution.

The top level exports what the README example uses; everything else is
imported from its submodule (algebra, model, dynamics, corrections,
oracle, experiments).
"""

from .algebra import CONVENTIONS_VERSION, CohChaosError
from .corrections import build_kernel, entropy_series
from .dynamics import ProductState, integrate, mf_overlap
from .model import MaserParams, maser_hamiltonian

__version__ = "0.1.0"

__all__ = [
    "build_kernel",
    "CohChaosError",
    "CONVENTIONS_VERSION",
    "entropy_series",
    "integrate",
    "maser_hamiltonian",
    "MaserParams",
    "mf_overlap",
    "ProductState",
    "__version__",
]
