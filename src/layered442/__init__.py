"""Simulation and certification toolkit for a layered three-photon state.

The package rebuilds the full experimental pipeline of a (4, 4, 2)
entangled photonic state: circuit-level generation with post-selection,
Poissonian measurement statistics, dimensionality witnessing against the
3/4 class bound, and layered quantum-key-distribution rate analysis.

Each public name is imported from the one module that defines it
(``from layered442.witness import certify_dimensionality``); the package
itself holds only ``__version__``.
"""

__version__ = "0.1.0"
