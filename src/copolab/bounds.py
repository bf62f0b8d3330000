"""Closed-form bound formulas and cross-family comparison tables.

Every bound is returned as a log-value, since the exponents routinely
reach -100 and below.  Default constants follow the family-specific
admissibility thresholds with a 0.1 margin.  With the site charge
beta omega - lambda(beta) + h the critical point is h_c = 0; for a
symmetric law the mirror critical point is 2 lambda(beta), past which
F(h) = h - lambda(beta).  The closed forms describe h -> 0 from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .disorder import DisorderLaw, q1, q2
from .kernel import FamilyKind, SlowlyVaryingFamily

__all__ = [
    "MhValue",
    "SharperBounds",
    "BoundReport",
    "log_upper_general",
    "sharper_bounds",
    "rss_threshold",
    "log_rss_bound",
    "psi",
    "m_h",
    "bound_table",
]

_LOG_COUNT_GUARD = 700.0


def log_upper_general(
    family: SlowlyVaryingFamily, law: DisorderLaw, beta: float, h: float, b: float = 0.9
) -> float:
    """Log of the general change-of-measure upper bound.

    -b * q1(beta) * (1/h) * log(tail(1/h) / L(1/h)); the log-ratio can be
    negative when h is too large for the family, in which case the "bound"
    exceeds one and callers are expected to flag it.
    """
    if not 0.0 < b < 1.0:
        raise ValueError(f"b must lie in (0, 1), got {b}")
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    x = 1.0 / h
    numerator = family.evaluate(x)
    if numerator == 0.0:
        raise ValueError(f"L(1/h) underflows to 0 at h={h} and c_L={family.c_L}")
    return -b * q1(law, beta) * x * math.log(family.tail(x) / numerator)


@dataclass(frozen=True)
class SharperBounds:
    """Family-sharp bracket in log form."""

    log_lower: float
    log_upper: float


def sharper_bounds(
    family: SlowlyVaryingFamily,
    law: DisorderLaw,
    beta: float,
    h: float,
    delta: float = 0.05,
) -> SharperBounds:
    """Family-specific two-sided bounds with default constants.

    Sub-logarithmic: lower uses q2 with c- = upsilon + 1.1, upper uses q1
    with c+ = upsilon - 0.1.  Logarithmic: both use q1 with c- = 5/2 +
    upsilon + 0.1 and c+ = upsilon - 1.1.  Super-logarithmic: symmetric
    envelope exp(-(1 +/- delta) (q1/h)^(upsilon/(upsilon-1))), delta
    standing in for the vanishing correction; q1 = 0 gives its limit, 0.
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    u = family.upsilon
    q1v = q1(law, beta)
    log_inv_h = math.log(1.0 / h)

    if family.kind is FamilyKind.SUPER_LOGARITHMIC:
        expo = (q1v / h) ** (u / (u - 1.0))
        return SharperBounds(
            log_lower=-(1.0 + delta) * expo,
            log_upper=-(1.0 - delta) * expo,
        )

    if log_inv_h <= 1.0:
        raise ValueError(f"h={h} too large: log(1/h) must exceed 1 for this family")
    loglog = math.log(log_inv_h)

    if family.kind is FamilyKind.SUB_LOGARITHMIC:
        c_minus, c_plus = u + 1.1, u - 0.1
        return SharperBounds(
            log_lower=-c_minus * q2(law, beta) * loglog / h,
            log_upper=-c_plus * q1v * loglog / h,
        )

    c_minus, c_plus = 2.5 + u + 0.1, u - 1.0 - 0.1
    if c_plus <= 0:
        raise ValueError(f"upsilon={u} leaves no admissible upper constant")
    return SharperBounds(
        log_lower=-c_minus * q1v * log_inv_h / h,
        log_upper=-c_plus * q1v * log_inv_h / h,
    )


def rss_threshold(family: SlowlyVaryingFamily) -> float:
    """Smallest admissible constant for the rare-stretch lower bound."""
    if family.kind is FamilyKind.SUB_LOGARITHMIC:
        return 3.5
    if family.kind is FamilyKind.LOGARITHMIC:
        return 2.5 + family.upsilon
    return 1.0


def log_rss_bound(
    family: SlowlyVaryingFamily, law: DisorderLaw, beta: float, h: float, b: float = None
) -> float:
    """Log of the rare-stretch lower bound.

    Sub-logarithmic and logarithmic families: -b * q1 * log(1/h) / h.
    Super-logarithmic: -b * h^(-upsilon/(upsilon-1)) * q1^(upsilon/(upsilon-1)),
    the exponent the block construction actually delivers.
    """
    thresh = rss_threshold(family)
    if b is None:
        b = thresh + 0.1
    if b <= thresh:
        raise ValueError(
            f"b={b} not admissible for the {family.kind.value} family: need b > {thresh}"
        )
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    q1v = q1(law, beta)
    u = family.upsilon
    if family.kind is FamilyKind.SUPER_LOGARITHMIC:
        p = u / (u - 1.0)
        return -b * h**-p * q1v**p
    return -b * q1v * math.log(1.0 / h) / h


def psi(family: SlowlyVaryingFamily, u_arg: float, eps: float) -> float:
    """Scale companion of the targeted-penalization window size."""
    if u_arg <= 1.0:
        raise ValueError(f"psi needs an argument > 1, got {u_arg}")
    ups = family.upsilon
    if family.kind is FamilyKind.SUB_LOGARITHMIC:
        base = ups * math.log(math.log(u_arg))
    elif family.kind is FamilyKind.LOGARITHMIC:
        base = (ups - 1.0) * math.log(u_arg)
    else:
        base = u_arg ** (1.0 / (ups - 1.0))
    return (1.0 - eps) * base


@dataclass(frozen=True)
class MhValue:
    """Window size used by the targeted penalization; count is None on overflow."""

    log_value: float
    count: int | None


def m_h(family: SlowlyVaryingFamily, h: float, eps: float) -> MhValue:
    """Three-case coarse-graining window size, rounded down.

    Sub-logarithmic: exp((1-eps) * upsilon * log log(1/h) / h); logarithmic:
    exp((1-eps) * (upsilon-1) * log(1/h) / h); super-logarithmic:
    exp((1-eps) * h^(-upsilon/(upsilon-1))); that is, log M_h = psi(1/h)/h.
    Returned in log form with the integer count attached whenever it fits in
    the float range.
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if family.kind is not FamilyKind.SUPER_LOGARITHMIC and math.log(1.0 / h) <= 1.0:
        raise ValueError(f"h={h} too large: log(1/h) must exceed 1 for this family")
    log_m = psi(family, 1.0 / h, eps) / h
    if log_m > _LOG_COUNT_GUARD:
        return MhValue(log_value=log_m, count=None)
    return MhValue(log_value=log_m, count=int(math.floor(math.exp(log_m))))


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bound formulas for one (family, beta, h) point, in log form."""

    family: str
    upsilon: float
    c_L: float
    beta: float
    h: float
    log_upper_general: float
    log_upper_sharper: float
    log_lower_rss: float
    log_lower_sublog: float | None
    flags: str


def bound_table(
    family: SlowlyVaryingFamily,
    law: DisorderLaw,
    beta: float,
    h_grid,
) -> list[BoundReport]:
    """All bounds over a descending h grid, each at its default constants.

    Ordering violations are flagged.
    """
    h_grid = [float(h) for h in h_grid]
    if not h_grid:
        raise ValueError("h grid must be nonempty")
    if any(b >= a for a, b in zip(h_grid, h_grid[1:])):
        raise ValueError("h grid must be strictly descending")

    rows = []
    for h in h_grid:
        flags = []
        lug = log_upper_general(family, law, beta, h)
        if lug > 0:
            flags.append("upper_general_exceeds_one")
        sb = sharper_bounds(family, law, beta, h)
        lrss = log_rss_bound(family, law, beta, h)
        log_lower_sublog = sb.log_lower if family.kind is FamilyKind.SUB_LOGARITHMIC else None
        if lrss > lug:
            flags.append("rss_above_upper_general")
        rows.append(
            BoundReport(
                family=family.kind.value,
                upsilon=family.upsilon,
                c_L=family.c_L,
                beta=beta,
                h=h,
                log_upper_general=lug,
                log_upper_sharper=sb.log_upper,
                log_lower_rss=lrss,
                log_lower_sublog=log_lower_sublog,
                flags=";".join(flags),
            )
        )
    return rows
