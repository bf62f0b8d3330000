"""Numerical laboratory for a disordered copolymer model on renewal paths.

The model lives on a discrete renewal process whose inter-arrival law
K(n) = L(n)/n has a slowly varying numerator, with IID charges attached to
the excursions below a solvent interface.  The package computes quenched,
restricted and annealed partition functions exactly (log-domain dynamic
programming plus a brute-force oracle), estimates the free energy by seeded
Monte Carlo, and evaluates the change-of-measure, second-moment and
coarse-graining constructions together with their closed-form bounds
(among them the rare-stretch lower bound).

Names are imported from their modules; the package holds only __version__.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
