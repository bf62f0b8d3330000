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
    LawKind,
    RateFunctionEval,
    log_mgf,
    log_mgf_prime,
    q1,
    q2,
    rate_function,
    sample,
)
from .kernel import (
    FamilyKind,
    RenewalKernel,
    SlowlyVaryingFamily,
    TiltedKernel,
    TiltTransform,
    build_kernel,
    check_eta_kernel,
    defect_Kk,
    defect_check_eta,
    independent_jumps_law,
    penalized_kernel,
    renewal_mass,
)
from .partition import (
    QuenchedInstance,
    Trimmed,
    brute_force_log_Z,
    log_Z,
    log_Z_restricted,
    log_annealed_Z,
    make_instance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
