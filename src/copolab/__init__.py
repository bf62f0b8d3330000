"""Numerical laboratory for a disordered copolymer model on renewal paths.

The model lives on a discrete renewal process whose inter-arrival law
K(n) = L(n)/n has a slowly varying numerator, with IID charges attached to
the excursions below a solvent interface.  The package computes quenched,
restricted and annealed partition functions exactly (log-domain dynamic
programming plus a brute-force oracle), estimates the free energy by seeded
Monte Carlo, and evaluates the change-of-measure, second-moment and
coarse-graining constructions together with their closed-form bounds
(among them the rare-stretch lower bound).
"""

__version__ = "0.1.0"

from . import bounds, estimators
from .disorder import (
    BINARY,
    GAUSSIAN,
    DisorderLaw,
    RateFunctionEval,
    log_mgf,
    log_mgf_prime,
    q1,
    q2,
    rate_function,
)
from .kernel import (
    FamilyKind,
    RenewalKernel,
    SlowlyVaryingFamily,
    build_kernel,
    check_eta_kernel,
    defect_Kk,
    defect_check_eta,
    renewal_mass,
)
from .partition import (
    Trimmed,
    brute_force_log_Z,
    charge_prefix,
    log_Z,
    log_Z_restricted,
    log_annealed_Z,
)

__all__ = [name for name in dir() if not name.startswith("_")]
