"""Numerics for rank-one spiked Hermitian matrix models: equilibrium
measures, spike phase transitions, limiting edge laws, exact finite-size
gap probabilities, and Monte Carlo verification."""

from .potential import Potential, SpikeConfig, eynard_potential
from .equilibrium import EquilibriumData, solve_support
from .transition import critical_a
from .limitlaws import LimitLaw, f0, f1, predict_law

__all__ = [
    "EquilibriumData",
    "LimitLaw",
    "Potential",
    "SpikeConfig",
    "critical_a",
    "eynard_potential",
    "f0",
    "f1",
    "predict_law",
    "solve_support",
]

__version__ = "0.1.0"
