"""Inter-arrival laws K(n) = L(n)/n with slowly varying L, and their tilts.

Three families of slowly varying numerators are built in (sub-logarithmic,
logarithmic, super-logarithmic decay).  The asymptotic forms are undefined or
negative near the origin, so L is frozen at its value at a family-specific
point x_min; this touches only finitely many masses and leaves every tail
ratio unchanged.  The running tail integral of L(y)/y has an exact
antiderivative for the frozen-plus-asymptotic form in all three families
(an upper incomplete gamma in the super-logarithmic case), which is what
``SlowlyVaryingFamily.tail`` evaluates; quadrature is kept as an independent
oracle in the test suite.

The constant c_L is treated as a shape parameter: a single multiplicative
normalization is applied so the masses plus the analytic tail estimate sum
to one.  All statements about the model depend on L only through asymptotic
ratios, which the constant preserves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "FamilyKind",
    "SlowlyVaryingFamily",
    "RenewalKernel",
    "TiltTransform",
    "TiltedKernel",
    "build_kernel",
    "renewal_mass",
    "check_eta_kernel",
    "penalized_kernel",
    "independent_jumps_law",
    "defect_Kk",
    "defect_check_eta",
]

_EXP_GUARD = 700.0  # largest exponent allowed anywhere near an exp()


class FamilyKind(str, Enum):
    SUB_LOGARITHMIC = "sub-logarithmic"
    LOGARITHMIC = "logarithmic"
    SUPER_LOGARITHMIC = "super-logarithmic"


@dataclass(frozen=True)
class SlowlyVaryingFamily:
    """One of the three slowly varying numerator families.

    kind      decay of L at infinity
    upsilon   tail exponent, strictly greater than 1
    c_L       overall scale (shape parameter only, see module docstring)
    """

    kind: FamilyKind
    upsilon: float
    c_L: float = 1.0

    def __post_init__(self):
        if not self.upsilon > 1.0:
            raise ValueError(f"upsilon must be > 1, got {self.upsilon}")
        if not self.c_L > 0.0:
            raise ValueError(f"c_L must be > 0, got {self.c_L}")

    @property
    def x_min(self) -> float:
        """Freeze point: L(x) = L(x_min) for x < x_min."""
        if self.kind is FamilyKind.SUB_LOGARITHMIC:
            return math.exp(math.e)
        return math.exp(2.0)

    def evaluate(self, x):
        """L(x), elementwise; frozen below x_min."""
        x = np.asarray(x, dtype=float)
        return self.evaluate_log(np.log(np.maximum(x, self.x_min)))

    def evaluate_log(self, log_x):
        """L at the point whose natural log is log_x (x_min already applied)."""
        lx = np.maximum(np.asarray(log_x, dtype=float), math.log(self.x_min))
        u = self.upsilon
        if self.kind is FamilyKind.SUB_LOGARITHMIC:
            out = self.c_L / (lx * np.log(lx) ** u)
        elif self.kind is FamilyKind.LOGARITHMIC:
            out = self.c_L / lx**u
        else:
            out = self.c_L * np.exp(-(lx ** (1.0 / u)))
        return out if out.ndim else float(out)

    def tail(self, x: float) -> float:
        """Integral of L(y)/y from x to infinity, exact for the frozen form."""
        if x <= 0:
            raise ValueError(f"tail integral needs x > 0, got {x}")
        if x < self.x_min:
            head = float(self.evaluate(self.x_min)) * math.log(self.x_min / x)
            return head + self._tail_asymptotic(math.log(self.x_min))
        return self._tail_asymptotic(math.log(x))

    def _tail_asymptotic(self, lx: float) -> float:
        u = self.upsilon
        if self.kind is FamilyKind.SUB_LOGARITHMIC:
            return self.c_L / ((u - 1.0) * math.log(lx) ** (u - 1.0))
        if self.kind is FamilyKind.LOGARITHMIC:
            return self.c_L / ((u - 1.0) * lx ** (u - 1.0))
        from scipy.special import gamma, gammaincc  # only this family needs them

        s = lx ** (1.0 / u)
        return self.c_L * u * gamma(u) * float(gammaincc(u, s))


@dataclass(frozen=True)
class RenewalKernel:
    """Normalized inter-arrival law on 1..support_cap with analytic tail mass.

    masses[n] = K(n) for 1 <= n <= support_cap (index 0 unused, zero), and
    masses.sum() + tail_mass == 1 up to float rounding.  ``normalization`` is
    the constant c with K(n) = c * L(n) / n on the whole support.
    """

    family: SlowlyVaryingFamily
    support_cap: int
    masses: np.ndarray
    tail_mass: float
    normalization: float

    def mass(self, n: int) -> float:
        """K(n) for n in the support 1..support_cap."""
        if not 1 <= n <= self.support_cap:
            raise ValueError(f"n={n} outside kernel support 1..{self.support_cap}")
        return float(self.masses[n])

    @cached_property
    def log_masses(self) -> np.ndarray:
        out = np.full(self.support_cap + 1, -np.inf)
        out[1:] = np.log(self.masses[1:])
        return out


def build_kernel(family: SlowlyVaryingFamily, n_max: int) -> RenewalKernel:
    """Build the normalized kernel with support 1..n_max.

    The mass beyond the support is estimated by the exact tail integral with
    an Euler-Maclaurin half-term correction, and a single constant rescales
    everything so the total is one.
    """
    if n_max < 1000:
        raise ValueError(f"n_max must be >= 1000, got {n_max}")
    n = np.arange(0, n_max + 1, dtype=float)
    raw = np.zeros(n_max + 1)
    raw[1:] = family.evaluate(n[1:]) / n[1:]
    if not np.all(np.isfinite(raw[1:])) or np.any(raw[1:] <= 0.0):
        raise ValueError("family evaluation is non-positive or non-finite on the support")
    # sum_{n > N} L(n)/n ~ tail(N) - L(N)/(2N)
    tail_raw = family.tail(float(n_max)) - 0.5 * raw[n_max]
    total = math.fsum(raw[1:].tolist()) + tail_raw
    norm = 1.0 / total
    return RenewalKernel(
        family=family,
        support_cap=n_max,
        masses=raw * norm,
        tail_mass=tail_raw * norm,
        normalization=norm,
    )


class TiltTransform(str, Enum):
    CHECK_ETA = "check_eta"
    PENALIZED_KK = "penalized_kk"
    HAT_INDEPENDENT_JUMPS = "hat_independent_jumps"


@dataclass(frozen=True)
class TiltedKernel:
    """A transformed inter-arrival law, possibly defective.

    For CHECK_ETA and PENALIZED_KK, ``masses`` holds the transformed law on
    the base support and ``defect`` is one minus its stored-mass sum (the
    dedicated defect operations additionally account for the analytic tail).
    For HAT_INDEPENDENT_JUMPS the two proper conditional laws are stored in
    ``long_masses`` (lengths M..M^2) and ``short_masses`` (lengths 1..k),
    each summing to one, and ``defect`` is zero by construction.
    """

    base: RenewalKernel
    transform: TiltTransform
    params: tuple
    masses: np.ndarray | None
    defect: float
    long_masses: np.ndarray | None = None
    short_masses: np.ndarray | None = None


def check_eta_kernel(kernel: RenewalKernel, h: float, eta: float = 0.1) -> TiltedKernel:
    """Reward/penalty tilt with crossover at 1/(eta^2 h).

    K(l) * (1/2 + 1/2 exp(h*l)) up to the crossover, then
    K(l) * (1/2 + 1/2 exp(-eta*h*l)) beyond it.
    """
    if h < 0 or not 0 < eta < 1:
        raise ValueError("need h >= 0 and eta in (0, 1)")
    if 1.0 / (eta * eta) > _EXP_GUARD:
        raise OverflowError(f"1/eta^2 = {1.0 / (eta * eta):.1f} exceeds the exponent guard")
    n = np.arange(0, kernel.support_cap + 1, dtype=float)
    if h == 0:
        factor = np.ones_like(n)
    else:
        crossover = 1.0 / (eta * eta * h)
        sign = np.where(n <= crossover, 1.0, -eta)
        factor = 0.5 + 0.5 * np.exp(h * n * sign)
    masses = kernel.masses * factor
    return TiltedKernel(
        base=kernel,
        transform=TiltTransform.CHECK_ETA,
        params=(h, eta),
        masses=masses,
        defect=1.0 - math.fsum(masses[1:].tolist()),
    )


def penalized_kernel(kernel: RenewalKernel, h: float, k: int) -> TiltedKernel:
    """Reward up to length k, penalty beyond: K(l)*(1/2 + 1/2 e^{+-h l})."""
    if h < 0 or k < 1:
        raise ValueError("need h >= 0 and k >= 1")
    if h * k > _EXP_GUARD:
        raise OverflowError(f"h*k = {h * k:.1f} exceeds the exponent guard")
    n = np.arange(0, kernel.support_cap + 1, dtype=float)
    sign = np.where(n <= k, 1.0, -1.0)
    factor = 0.5 + 0.5 * np.exp(h * n * sign)
    masses = kernel.masses * factor
    return TiltedKernel(
        base=kernel,
        transform=TiltTransform.PENALIZED_KK,
        params=(h, k),
        masses=masses,
        defect=1.0 - math.fsum(masses[1:].tolist()),
    )


def independent_jumps_law(kernel: RenewalKernel, h: float, big_m: int, k: int) -> TiltedKernel:
    """Two proper conditional jump laws: long in [M, M^2], short in [1, k].

    Long jumps are distributed as K restricted to [M, M^2]; short jumps as
    e^{h n} K(n) restricted to [1, k].  Each coordinate is normalized to one.
    """
    if big_m < 2 or k < 1:
        raise ValueError("need M >= 2 and k >= 1")
    if big_m * big_m > kernel.support_cap:
        raise ValueError("M^2 exceeds the kernel support")
    if h * k > _EXP_GUARD:
        raise OverflowError(f"h*k = {h * k:.1f} exceeds the exponent guard")
    long_raw = kernel.masses[big_m : big_m * big_m + 1].copy()
    short_n = np.arange(1, k + 1, dtype=float)
    short_raw = kernel.masses[1 : k + 1] * np.exp(h * short_n)
    return TiltedKernel(
        base=kernel,
        transform=TiltTransform.HAT_INDEPENDENT_JUMPS,
        params=(h, big_m, k),
        masses=None,
        defect=0.0,
        long_masses=long_raw / long_raw.sum(),
        short_masses=short_raw / short_raw.sum(),
    )


def renewal_mass(ker: RenewalKernel | TiltedKernel, n_max: int) -> np.ndarray:
    """Renewal mass function u(0..n_max): u(0)=1, u(n)=sum_j mass(j) u(n-j).

    Plain O(n_max^2) convolution.  Works for proper and defective laws; for
    a supercritical tilt the values grow geometrically and the computation
    is refused once they leave the float range.
    """
    if isinstance(ker, TiltedKernel):
        if ker.masses is None:
            raise TypeError("independent-jumps law has no single renewal mass function")
        masses, cap = ker.masses, ker.base.support_cap
    else:
        masses, cap = ker.masses, ker.support_cap
    if n_max > cap:
        raise ValueError(f"n_max={n_max} exceeds the kernel support {cap}")
    u = np.zeros(n_max + 1)
    u[0] = 1.0
    for n in range(1, n_max + 1):
        u[n] = np.dot(masses[1 : n + 1], u[n - 1 :: -1])
        if not math.isfinite(u[n]):
            raise OverflowError(f"renewal mass left the float range at n={n}")
    return u


def defect_Kk(kernel: RenewalKernel, h: float, k: int) -> float:
    """Signed mass excess 2*(sum of the reward/penalty tilt - 1).

    Equals sum_{l<=k} K(l)(e^{hl}-1) - sum_{l>k} K(l)(1-e^{-hl}); negative
    exactly when the tilt is a sub-probability.  Summed in compensated
    arithmetic with the analytic tail folded into the penalty term.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > kernel.support_cap:
        raise ValueError(f"k={k} exceeds the kernel support {kernel.support_cap}")
    if h == 0.0:
        return 0.0
    if h < 0:
        raise ValueError("h must be >= 0")
    if h * k > _EXP_GUARD:
        raise OverflowError(f"h*k = {h * k:.1f} exceeds the exponent guard")
    cap = kernel.support_cap
    n = np.arange(0, cap + 1, dtype=float)
    reward = kernel.masses[1 : k + 1] * np.expm1(h * n[1 : k + 1])
    penalty = kernel.masses[k + 1 :] * (-np.expm1(-h * n[k + 1 :]))
    tail_term = kernel.tail_mass * (-math.expm1(-h * (cap + 1)))
    return math.fsum(reward.tolist()) - math.fsum(penalty.tolist()) - tail_term


def defect_check_eta(kernel: RenewalKernel, h: float, eta: float = 0.1) -> float:
    """Defect 1 - sum of the crossover tilt, with the analytic tail included.

    The crossover 1/(eta^2 h) must lie inside the kernel support so the
    reward branch is summed in full.
    """
    if h == 0.0:
        return 0.0
    if h < 0 or not 0 < eta < 1:
        raise ValueError("need h >= 0 and eta in (0, 1)")
    if 1.0 / (eta * eta) > _EXP_GUARD:
        raise OverflowError(f"1/eta^2 = {1.0 / (eta * eta):.1f} exceeds the exponent guard")
    crossover = int(1.0 / (eta * eta * h))
    cap = kernel.support_cap
    if crossover > cap:
        raise ValueError(
            f"crossover 1/(eta^2 h) = {crossover} exceeds the kernel support {cap}; "
            "rebuild the kernel with a larger support"
        )
    n = np.arange(0, cap + 1, dtype=float)
    t = crossover
    reward = kernel.masses[1 : t + 1] * np.expm1(h * n[1 : t + 1])
    penalty = kernel.masses[t + 1 :] * (-np.expm1(-eta * h * n[t + 1 :]))
    tail_term = kernel.tail_mass * (-math.expm1(-eta * h * (cap + 1)))
    excess = math.fsum(reward.tolist()) - math.fsum(penalty.tolist()) - tail_term
    return -0.5 * excess
