"""Inter-arrival laws K(n) = L(n)/n with slowly varying L, and their tilts.

A law is a plain mass array.  ``RenewalKernel.masses`` and the crossover
tilt that ``check_eta_kernel`` returns (possibly defective) are indexed by
length with index 0 unused.  ``renewal_mass`` takes either and solves its
renewal equation in one loop over blocks that double up to _MASS_BLOCK sites.

Three families of slowly varying numerators are built in (sub-logarithmic,
logarithmic, super-logarithmic decay).  The asymptotic forms are undefined or
negative near the origin, so L is frozen at its value at a family-specific
point x_min; this touches only finitely many masses and leaves every tail
ratio unchanged.  The running tail integral of L(y)/y has an exact
antiderivative for the frozen-plus-asymptotic form in all three families,
which is what ``SlowlyVaryingFamily.tail`` evaluates; quadrature is kept as
an independent oracle in the test suite.  In the super-logarithmic case it
is u Gamma(u, (log x)^(1/u)), an upper incomplete gamma evaluated in house
(``_upper_gamma``: the power series below s = u + 1, a Lentz continued
fraction above, with numpy and ``math`` only), and a family whose tail
leaves the float range, upsilon past about 170, is refused.  The
logarithmic and sub-logarithmic families are refused where the power of
log x in L or in its tail overflows (upsilon past about 370 and 1080 on a
support of 1000 sites), before numpy warns.

The constant c_L is treated as a shape parameter: a single multiplicative
normalization is applied so the masses plus the analytic tail estimate sum
to one.  All statements about the model depend on L only through asymptotic
ratios, which the constant preserves.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

__all__ = [
    "FamilyKind",
    "SlowlyVaryingFamily",
    "RenewalKernel",
    "build_kernel",
    "renewal_mass",
    "check_eta_kernel",
    "defect_Kk",
    "defect_check_eta",
]

_EXP_GUARD = 700.0  # largest exponent allowed anywhere near an exp()
_MASS_BLOCK = 512  # widest block of the blocked renewal-mass solve
_GAMMA_STEPS = 1000  # bound on the series terms and fraction steps of _upper_gamma
_GAMMA_EPS = 2.0**-53  # unit roundoff: the stopping test of both
_GAMMA_TINY = 1e-300  # Lentz's stand-in for a zero denominator
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


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
        """L at the point whose natural log is log_x (x_min already applied).

        A family whose denominator leaves the float range there (the
        logarithmic one at upsilon past about 370 on a support of 10^3 sites,
        the sub-logarithmic one past about 1080) is refused with ValueError
        before numpy warns.
        """
        lx = np.maximum(np.asarray(log_x, dtype=float), math.log(self.x_min))
        u = self.upsilon
        try:
            with np.errstate(over="raise"):
                if self.kind is FamilyKind.SUB_LOGARITHMIC:
                    out = self.c_L / (lx * np.log(lx) ** u)
                elif self.kind is FamilyKind.LOGARITHMIC:
                    out = self.c_L / lx**u
                else:
                    out = self.c_L * np.exp(-(lx ** (1.0 / u)))
        except FloatingPointError:
            raise ValueError(
                f"the {self.kind.value} family at upsilon={u} leaves the float range "
                f"at log x = {float(lx.max()):.6g}"
            ) from None
        return out if out.ndim else float(out)

    def tail(self, x: float) -> float:
        """Integral of L(y)/y from x to infinity, exact for the frozen form.

        A family whose tail integral leaves the float range (the
        super-logarithmic one at upsilon past about 170) is refused with
        ValueError, and so is a logarithmic or sub-logarithmic one whose tail
        underflows (its power of log x overflows, upsilon past about 370 at
        x = 10^3).
        """
        if x <= 0:
            raise ValueError(f"tail integral needs x > 0, got {x}")
        try:
            value = self._tail_asymptotic(math.log(max(x, self.x_min)))
        except OverflowError:  # the power in the denominator: the tail is below the float range
            value = 0.0
        if x < self.x_min:
            value += float(self.evaluate(self.x_min)) * math.log(self.x_min / x)
        if not 0.0 < value < math.inf:
            raise ValueError(
                f"the {self.kind.value} tail integral at upsilon={self.upsilon} is {value}, "
                "outside the float range"
            )
        return value

    def _tail_asymptotic(self, lx: float) -> float:
        u = self.upsilon
        if self.kind is FamilyKind.SUB_LOGARITHMIC:
            return self.c_L / ((u - 1.0) * math.log(lx) ** (u - 1.0))
        if self.kind is FamilyKind.LOGARITHMIC:
            return self.c_L / ((u - 1.0) * lx ** (u - 1.0))
        # y = e^{t^u} turns the integral into u * Gamma(u, lx^(1/u))
        return self.c_L * u * _upper_gamma(u, lx ** (1.0 / u))


def _upper_gamma(a: float, x: float) -> float:
    """Upper incomplete gamma Gamma(a, x) for a > 0, x > 0; inf past the float range.

    Below x = a + 1 it is Gamma(a) minus the lower integral x^a e^(-x) S,
    S = sum_n x^n / (a (a + 1) ... (a + n)) (DLMF 8.7.1); from there on it
    is x^a e^(-x) times the continued fraction of DLMF 8.9.2, run by the
    modified Lentz method.  Both stop once a step changes the value by less
    than a unit roundoff, within _GAMMA_STEPS steps.  The power x^a e^(-x)
    and Gamma(a) are handled in log space, so no intermediate overflows:
    Gamma(a) is ``math.gamma`` where that is a float and ``lgamma`` past it,
    and the power is a product of two floats where both are, accurate to
    ulps rather than to |log| ulps.
    """
    log_power = a * math.log(x) - x
    if x < a + 1.0:
        term = total = 1.0 / a
        for n in range(1, _GAMMA_STEPS):
            term *= x / (a + n)
            total += term
            if term < total * _GAMMA_EPS:
                break
        else:
            raise ValueError(f"incomplete gamma series at a={a}, x={x} did not converge")
        log_lower = log_power + math.log(total)
        try:
            return math.gamma(a) - math.exp(log_lower)
        except OverflowError:  # Gamma(a) is past the float range; Gamma(a, x) may not be
            log_gamma = math.lgamma(a)
            return _exp_or_inf(log_gamma + math.log1p(-math.exp(log_lower - log_gamma)))
    # modified Lentz on 1/(x+1-a-) 1(1-a)/(x+3-a-) 2(2-a)/(x+5-a-) ...
    b = x + 1.0 - a
    c, d = 1.0 / _GAMMA_TINY, 1.0 / b
    fraction = d
    for n in range(1, _GAMMA_STEPS):
        an = -n * (n - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > _GAMMA_TINY else _GAMMA_TINY)
        c = b + an / c
        c = c if abs(c) > _GAMMA_TINY else _GAMMA_TINY
        step = c * d
        fraction *= step
        if abs(step - 1.0) < _GAMMA_EPS:
            break
    else:
        raise ValueError(f"incomplete gamma fraction at a={a}, x={x} did not converge")
    if max(x, a * math.log(x)) < _EXP_GUARD:
        return x**a * math.exp(-x) * fraction
    return _exp_or_inf(log_power + math.log(fraction))


def _exp_or_inf(t: float) -> float:
    """e^t, or inf where that passes the float range."""
    return math.exp(t) if t <= _LOG_FLOAT_MAX else math.inf


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

    @cached_property
    def log_masses(self) -> np.ndarray:
        out = np.full(self.support_cap + 1, -np.inf)
        out[1:] = np.log(self.masses[1:])
        return out


def build_kernel(family: SlowlyVaryingFamily, n_max: int) -> RenewalKernel:
    """Build the normalized kernel with support 1..n_max.

    The mass beyond the support is estimated by the exact tail integral with
    an Euler-Maclaurin half-term correction, and a single constant rescales
    everything so the total is one.  A family whose tail integral or
    normalization leaves the float range is refused with ValueError.
    """
    if n_max < 1000:
        raise ValueError(f"n_max must be >= 1000, got {n_max}")
    n = np.arange(0, n_max + 1, dtype=float)
    raw = np.zeros(n_max + 1)
    raw[1:] = family.evaluate(n[1:]) / n[1:]
    if not np.all(np.isfinite(raw[1:])) or np.any(raw[1:] <= 0.0):
        raise ValueError("family evaluation is non-positive or non-finite on the support")
    # sum_{n > N} L(n)/n ~ tail(N) - L(N)/(2N)
    tail_raw = family.tail(float(n_max)) - 0.5 * float(raw[n_max])
    total = math.fsum(raw[1:].tolist()) + tail_raw
    norm = 1.0 / total
    if not 0.0 < norm < math.inf:
        raise ValueError(
            f"the {family.kind.value} kernel normalization at upsilon={family.upsilon} is "
            f"{norm}, outside the float range"
        )
    return RenewalKernel(
        family=family,
        support_cap=n_max,
        masses=raw * norm,
        tail_mass=tail_raw * norm,
        normalization=norm,
    )


def check_eta_kernel(kernel: RenewalKernel, h: float, eta: float = 0.1) -> np.ndarray:
    """Masses of the reward/penalty tilt with crossover at 1/(eta^2 h).

    K(l) * (1/2 + 1/2 exp(h*l)) up to the crossover, then
    K(l) * (1/2 + 1/2 exp(-eta*h*l)) beyond it, on the kernel support with
    index 0 unused, like ``RenewalKernel.masses``.  The law may be
    defective; ``defect_check_eta`` gives its defect with the analytic tail.
    """
    _check_eta(h, eta)
    n = np.arange(0, kernel.support_cap + 1, dtype=float)
    if h == 0:
        factor = np.ones_like(n)
    else:
        crossover = 1.0 / (eta * eta * h)
        sign = np.where(n <= crossover, 1.0, -eta)
        factor = 0.5 + 0.5 * np.exp(h * n * sign)
    return kernel.masses * factor


def renewal_mass(masses: np.ndarray, n_max: int) -> np.ndarray:
    """Renewal mass function u(0..n_max): u(0)=1, u(n)=sum_j mass(j) u(n-j).

    ``masses`` is a law on 1..len(masses) - 1 with index 0 unused:
    ``RenewalKernel.masses`` or a tilt of it such as ``check_eta_kernel``
    returns.

    A blocked lower-triangular Toeplitz solve of (I - T) u = e_0, with
    T[n, j] = mass(n - j) for j < n, in one loop over blocks [t0, t1),
    t1 = t0 + min(t0, _MASS_BLOCK): widths double from 1 to _MASS_BLOCK.
    A block's pull from the sites below t0 is one correlation of the masses
    with u.  Its diagonal part I - L is the same system on t1 - t0 <= t0
    sites, so its inverse is the lower-triangular Toeplitz matrix of the
    solved u(0..t1-t0-1), and the block is one convolution of that prefix
    with the pull.  Every term is nonnegative, so the rounding error is
    componentwise relative: the values agree with the per-site recursion to
    a few ulps.  Works for proper and defective laws; for a supercritical
    tilt the values grow geometrically and the solve is refused at the first
    site whose value leaves the float range, the site the recursion reports.
    """
    cap = len(masses) - 1
    if n_max < 0:
        raise ValueError(f"n_max={n_max} is negative")
    if n_max > cap:
        raise ValueError(f"n_max={n_max} exceeds the kernel support {cap}")
    u = np.zeros(n_max + 1)
    u[0] = 1.0
    # flipped[i] = K(n_max - i), so that each pull is one correlation
    flipped = masses[n_max:0:-1].copy()
    t0 = 1
    with np.errstate(over="ignore"):
        while t0 <= n_max:
            t1 = min(t0 + min(t0, _MASS_BLOCK), n_max + 1)
            # pulled[r] = sum_{j < t0} K(t0 + r - j) u(j)
            pulled = np.correlate(flipped[n_max - t1 + 1 : n_max], u[:t0], "valid")[::-1]
            # row r reads pulled[:r + 1] only: solve up to the first entry that
            # overflowed, past which every value is infinite and its product
            # with a zero of u NaN (np.convolve refuses an empty operand)
            width = _finite_count(pulled)
            if width:
                u[t0 : t0 + width] = np.convolve(u[:width], pulled[:width])[:width]
                width = _finite_count(u[t0 : t0 + width])
            if t0 + width < t1:
                raise OverflowError(f"renewal mass left the float range at n={t0 + width}")
            t0 = t1
    return u


def _finite_count(values: np.ndarray) -> int:
    """Number of leading finite entries of ``values``."""
    finite = np.isfinite(values)
    return len(values) if finite.all() else int(finite.argmin())


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
    return _tilt_excess(kernel, h, k, h)


def defect_check_eta(kernel: RenewalKernel, h: float, eta: float = 0.1) -> float:
    """Defect 1 - sum of the crossover tilt, with the analytic tail included.

    The crossover 1/(eta^2 h) must lie inside the kernel support so the
    reward branch is summed in full.
    """
    _check_eta(h, eta)
    if h == 0.0:
        return 0.0
    crossover = int(1.0 / (eta * eta * h))
    cap = kernel.support_cap
    if crossover > cap:
        raise ValueError(
            f"crossover 1/(eta^2 h) = {crossover} exceeds the kernel support {cap}; "
            "rebuild the kernel with a larger support"
        )
    return -0.5 * _tilt_excess(kernel, h, crossover, eta * h)


def _check_eta(h: float, eta: float) -> None:
    """Argument and exponent-guard checks shared by the crossover-tilt functions."""
    if h < 0 or not 0 < eta < 1:
        raise ValueError("need h >= 0 and eta in (0, 1)")
    if 1.0 / (eta * eta) > _EXP_GUARD:
        raise OverflowError(f"1/eta^2 = {1.0 / (eta * eta):.1f} exceeds the exponent guard")


def _tilt_excess(kernel: RenewalKernel, h: float, crossover: int, rate: float) -> float:
    """Mass excess of a reward/penalty tilt, twice its (sum - 1).

    sum_{l<=crossover} K(l)(e^{hl}-1) - sum_{l>crossover} K(l)(1-e^{-rate l}),
    the analytic tail mass beyond the support taking the penalty at
    support_cap + 1; each side is summed in compensated arithmetic.
    """
    cap = kernel.support_cap
    n = np.arange(0, cap + 1, dtype=float)
    reward = kernel.masses[1 : crossover + 1] * np.expm1(h * n[1 : crossover + 1])
    penalty = kernel.masses[crossover + 1 :] * (-np.expm1(-rate * n[crossover + 1 :]))
    tail_term = kernel.tail_mass * (-math.expm1(-rate * (cap + 1)))
    return math.fsum(reward.tolist()) - math.fsum(penalty.tolist()) - tail_term
