"""Free-energy estimation and numerical verification engines.

Every loop over quenched disorder replicas goes through ``replica_log_z``:
replica i draws its charges from ``spawn_rng(seed, i)``, once for a whole
grid of fields, and all rows are evaluated together by the batched,
blocked quenched DP of ``partition``, so the seed, the replica index and
the field alone fix each value, bit for bit, whatever the replica count,
the grid or the evaluation order.  The trimmed second-moment check does
the same for the restricted ensemble: replica i draws from
``spawn_rng(seed, i)`` and the batched trimmed engine of ``partition``
evaluates the replicas one fixed-width group at a time.
The verification engines evaluate the change-of-measure, trimmed
second-moment and coarse-graining constructions at desk scale and return
plain-dict reports: every value is recorded, and quantities that the
asymptotic theory only guarantees for sufficiently small h are reported
with measured thresholds, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import bounds as bounds_mod
from .disorder import (
    DisorderLaw,
    LawKind,
    _draw,
    log_mgf_prime,
    q1,
    q2,
    rate_function,
    spawn_rng,
)
from .kernel import (
    RenewalKernel,
    check_eta_kernel,
    defect_Kk,
    independent_jumps_law,
    renewal_mass,
)
from .partition import (
    Trimmed,
    _log_z_replicas,
    _trimmed_log_z_replicas,
    make_instance,
)

__all__ = [
    "FreeEnergyEstimate",
    "TrimmedPlan",
    "PenalizationPlan",
    "DEFAULT_C4",
    "DEFAULT_C5",
    "replica_log_z",
    "sweep_free_energy",
    "estimate_free_energy",
    "tilted_block_success",
    "trimmed_plan",
    "trimmed_moment_check",
    "penalization_plan",
    "penalization_check",
    "coarse_graining_check",
]

# Empirical sub-additivity correction constants of the upper bracket, fitted
# over beta <= 2, |h| <= 1 at desk scale; the test
# test_default_constants_cover_exact_surpluses checks them against exact
# annealed surpluses.
DEFAULT_C4 = 2.0
DEFAULT_C5 = 4.0
_Z_SCORE = 1.96  # standard errors below the mean in the lower bracket

_PATH_PAIRS = 32  # replica pairs per vectorized draw of the overlap sampler
_COARSE_ETA = 0.1  # crossover parameter of the tilt in coarse_graining_check
_COARSE_N_BUDGET = 20_000  # largest window e^(c3/h) that check evaluates
_COARSE_M_CAP = 50_000  # cap on its far end M_h


@dataclass(frozen=True)
class FreeEnergyEstimate:
    """Monte Carlo free-energy estimate with a sub-additive upper bracket."""

    n: int
    replicas: int
    mean_log_z_per_site: float
    stderr: float
    upper_bracket: float
    lower_bracket: float
    c4: float
    c5: float

    def to_dict(self) -> dict:
        return asdict(self)


def replica_log_z(
    kernel: RenewalKernel,
    law: DisorderLaw,
    beta: float,
    h,
    n: int,
    seed: int,
    replicas: int,
) -> np.ndarray:
    """Quenched log Z over n sites for replicas 0..replicas-1.

    ``h`` is one field or a 1-D grid of fields; the result has shape
    np.shape(h) + (replicas,).  Replica i draws its disorder once, from
    ``spawn_rng(seed, i)``, and takes it to every field; all rows go
    through one batched, blocked DP that agrees with the row-loop ``log_Z``
    to rounding.  A value depends on (seed, i, h) only, never on the
    replica count or the grid.
    """
    fields = np.asarray(h, dtype=float)
    omegas = [_draw(law, n, spawn_rng(seed, i)) for i in range(replicas)]
    # charges past the float range turn non-finite, and their rows NaN
    with np.errstate(over="ignore"):
        prefixes = [
            make_instance(law, beta, field, omega=omega).charge_prefix
            for field in fields.reshape(-1).tolist()
            for omega in omegas
        ]
    values = _log_z_replicas(np.array(prefixes).reshape(-1, n + 1), kernel)
    return values.reshape(fields.shape + (replicas,))


def sweep_free_energy(
    kernel: RenewalKernel,
    law: DisorderLaw,
    beta: float,
    h_values,
    n: int,
    replicas: int,
    seed: int,
) -> list[FreeEnergyEstimate]:
    """Replica average of log Z / n with brackets, at every h of ``h_values``.

    One ``replica_log_z`` call over the grid: replica i has the same
    disorder at every h, and an estimate equals the one-field estimate at
    its h bit for bit.  The upper bracket is the sub-additive envelope
    (mean*n + c4*log n + c5)/n evaluated at the simulated size, with
    c4 = DEFAULT_C4 and c5 = DEFAULT_C5; the lower bracket subtracts
    _Z_SCORE standard errors from the mean.
    """
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    if n > kernel.support_cap:
        raise ValueError(f"kernel support {kernel.support_cap} < n = {n}")

    estimates = []
    for values in replica_log_z(kernel, law, beta, list(h_values), n, seed, replicas):
        per_site = values / n
        mean = float(per_site.mean())
        stderr = float(per_site.std(ddof=1) / math.sqrt(replicas))
        estimates.append(
            FreeEnergyEstimate(
                n=n,
                replicas=replicas,
                mean_log_z_per_site=mean,
                stderr=stderr,
                upper_bracket=(mean * n + DEFAULT_C4 * math.log(n) + DEFAULT_C5) / n,
                lower_bracket=mean - _Z_SCORE * stderr,
                c4=DEFAULT_C4,
                c5=DEFAULT_C5,
            )
        )
    return estimates


def estimate_free_energy(
    kernel: RenewalKernel,
    law: DisorderLaw,
    beta: float,
    h: float,
    n: int,
    replicas: int,
    seed: int,
) -> FreeEnergyEstimate:
    """``sweep_free_energy`` at the single field h."""
    return sweep_free_energy(kernel, law, beta, [h], n, replicas, seed)[0]


def tilted_block_success(law: DisorderLaw, beta: float, threshold_rate: float, ell: int) -> float:
    """Probability, under the beta-tilt, that a block mean reaches threshold_rate."""
    from scipy.special import betainc, ndtr  # kept off the import path of the CLI

    if law.kind is LawKind.STANDARD_GAUSSIAN:
        return float(ndtr((beta - threshold_rate) * math.sqrt(ell)))
    p_plus = 1.0 / (1.0 + math.exp(-2.0 * beta))
    threshold = math.ceil(ell * (1.0 + threshold_rate) / 2.0)
    if threshold > ell:
        return 0.0
    # P(Bin(ell, p) >= t) = I_p(t, ell - t + 1)
    return float(betainc(threshold, ell - threshold + 1, p_plus))


@dataclass(frozen=True)
class TrimmedPlan:
    """Parameter schedule of the alternating long/short ensemble.

    k, M, N, m follow the coupled schedule k = floor(c1 loglog(1/h)/h),
    M = floor(e^{c2 k}), N = floor(M^2 (log M)^3), m = floor(N/(M^2 log M)),
    subject to c1 > upsilon + 1 and c2 > q2(beta).
    """

    k: int
    M: int
    N: int
    m: int
    c1: float
    c2: float
    beta: float
    h: float

    def to_dict(self) -> dict:
        return asdict(self)


def trimmed_plan(
    upsilon: float, law: DisorderLaw, beta: float, h: float, c1: float, c2: float
) -> TrimmedPlan:
    if not c1 > upsilon + 1.0:
        raise ValueError(f"c1={c1} violates c1 > upsilon + 1 = {upsilon + 1.0}")
    q2v = q2(law, beta)
    if not c2 > q2v:
        raise ValueError(f"c2={c2} violates c2 > q2(beta) = {q2v}")
    log_inv_h = math.log(1.0 / h)
    if log_inv_h <= 1.0:
        raise ValueError(f"h={h} too large: log(1/h) must exceed 1")
    k = int(c1 * math.log(log_inv_h) / h)
    if k < 1:
        raise ValueError(f"schedule gives k={k} < 1 at h={h}; increase c1 or decrease h")
    if c2 * k > 300.0:
        raise ValueError(
            f"schedule explodes at h={h}: the window size would be exp({c2 * k:.0f}); "
            "use a larger (scaled) h"
        )
    big_m = int(math.exp(c2 * k))
    if big_m <= 2 * k:
        raise ValueError(f"schedule gives M={big_m} <= 2k={2 * k}; increase c2")
    log_m = math.log(big_m)
    n_sites = int(big_m * big_m * log_m**3)
    m_reps = int(n_sites / (big_m * big_m * log_m))
    return TrimmedPlan(k=k, M=big_m, N=n_sites, m=m_reps, c1=c1, c2=c2, beta=beta, h=h)


def _first_moment_product_log(kernel, plan) -> float:
    # product bound: (1/2 sum_long K)^m (1/2 sum_short e^{hn} K)^m K(N)/3
    long_sum = float(kernel.masses[plan.M : plan.M * plan.M + 1].sum())
    short_n = np.arange(1, plan.k + 1, dtype=float)
    short_sum = float((kernel.masses[1 : plan.k + 1] * np.exp(plan.h * short_n)).sum())
    return (
        plan.m * (math.log(0.5 * long_sum) + math.log(0.5 * short_sum))
        + math.log(kernel.masses[plan.N] / 3.0)
    )


def _independent_jump_backward(kernel, plan):
    """Backward weight arrays of the pinned alternating ensemble.

    Jump weights come from the independent-jumps law (each coordinate a
    proper conditional; per-stage normalization drops out of conditionals).
    Stage g in 1..2m consumes gap g; B[g][x] is the weight of completing the
    path from position x after g gaps, including the closing jump to N.
    Each stage is rescaled to a unit maximum.
    """
    big_m, k, m, n_sites, h = plan.M, plan.k, plan.m, plan.N, plan.h
    jumps = independent_jumps_law(kernel, h, big_m, k)
    long_w = jumps.long_masses
    short_w = jumps.short_masses
    reach = m * (big_m * big_m + k)
    size = reach + 1

    pad = big_m * big_m + 1
    final = np.zeros(size + pad)
    x = np.arange(size)
    gaps = n_sites - x
    valid = (gaps >= 1) & (gaps <= kernel.support_cap)
    final[:size][valid] = kernel.masses[gaps[valid]]

    stages = [None] * (2 * m + 1)
    stages[2 * m] = final
    log_offset = 0.0
    for g in range(2 * m, 0, -1):
        w = long_w if g % 2 == 1 else short_w
        start = big_m if g % 2 == 1 else 1
        nxt = np.zeros(size + pad)
        # nxt[x] = sum_j w[j] cur[x + start + j], one correlation per stage
        nxt[:size] = np.correlate(stages[g][start : start + size + len(w) - 1], w, mode="valid")
        top = nxt.max()
        if top <= 0.0:
            raise ValueError("trimmed ensemble is empty for this plan")
        nxt /= top
        log_offset += math.log(top)
        stages[g - 1] = nxt
    return stages, long_w, short_w, log_offset, size


def _sample_short_intervals(stages, long_w, short_w, plan, draws):
    """Short intervals of paths drawn under the tilted ensemble law.

    draws[p, g - 1] is the uniform variate of path p at stage g; returns the
    (paths, m, 2) array of [start, end) of each path's short excursions.
    Every path takes the same per-row sum, cumsum and count as a 1-D
    searchsorted, so it draws what one path at a time would.
    """
    big_m, m = plan.M, plan.m
    paths = draws.shape[0]
    x = np.zeros(paths, dtype=np.int64)
    shorts = np.empty((paths, m, 2), dtype=np.int64)
    for g in range(1, 2 * m + 1):
        if g % 2 == 1:
            w, start = long_w, big_m
        else:
            w, start = short_w, 1
        windows = np.lib.stride_tricks.sliding_window_view(stages[g], len(w))
        probs = windows[x + start] * w
        cdf = np.cumsum(probs, axis=1)
        draw = draws[:, g - 1] * probs.sum(axis=1)
        j = np.minimum(np.count_nonzero(cdf <= draw[:, None], axis=1), len(w) - 1)
        ell = start + j
        if g % 2 == 0:
            shorts[:, g // 2 - 1, 0] = x
            shorts[:, g // 2 - 1, 1] = x + ell
        x += ell
    return shorts


def _interval_overlap(first, second):
    """Sites covered by both lists of [start, end) intervals, (..., m, 2) each."""
    first, second = np.asarray(first), np.asarray(second)
    lo = np.maximum(first[..., :, None, 0], second[..., None, :, 0])
    hi = np.minimum(first[..., :, None, 1], second[..., None, :, 1])
    return np.maximum(hi - lo, 0).sum(axis=(-2, -1))


def trimmed_moment_check(
    kernel: RenewalKernel,
    law: DisorderLaw,
    beta: float,
    h: float,
    plan: TrimmedPlan,
    replicas: int,
    seed: int = 0,
) -> dict:
    """Second-moment diagnostics for the trimmed ensemble.

    (a) exact disorder-averaged restricted partition function against the
    product lower bound; (b) two independent Monte Carlo estimators of the
    normalized second moment -- replica averages of (Z/EZ)^2 versus the
    overlap expectation under the tilted independent-jump path law -- which
    the identity says must agree; (c) the induction bound envelope.  The
    exact mean in (a) is the batched trimmed engine on the zero-disorder
    charges (h per site); the replicas of (b) go through the same engine,
    drawn one group at a time, and the overlap paths are drawn in groups
    of _PATH_PAIRS replica pairs from one stream.
    """
    if plan.N > kernel.support_cap:
        raise ValueError(
            f"plan needs support {plan.N}, kernel has {kernel.support_cap}"
        )
    if not 100 <= replicas < 1_000_000:
        raise ValueError("replicas must lie in [100, 1e6)")  # keeps seed streams disjoint
    q2v = q2(law, beta)
    if math.isinf(q2v):
        raise ValueError("q2 is infinite: the second-moment identity degenerates")

    constraint = Trimmed(M=plan.M, k=plan.k, m=plan.m)
    span = min(plan.m * (plan.M * plan.M + plan.k), plan.N - 1)
    # the disorder mean is the engine on the single zero-disorder charge row
    mean_prefix = make_instance(law, 0.0, h, omega=np.zeros(span)).charge_prefix
    exact_log_mean = float(_trimmed_log_z_replicas([mean_prefix], kernel, constraint, plan.N)[0])
    product_log = _first_moment_product_log(kernel, plan)

    # (b) left side: disorder replicas of (Z restricted / exact mean)^2;
    # replica i draws from spawn_rng(seed, i), one engine group at a time
    prefixes = (
        make_instance(law, beta, h, omega=_draw(law, span, spawn_rng(seed, i))).charge_prefix
        for i in range(replicas)
    )
    log_zt = _trimmed_log_z_replicas(prefixes, kernel, constraint, plan.N)
    lhs_vals = np.exp(2.0 * (log_zt - exact_log_mean))
    lhs_mean = float(lhs_vals.mean())
    lhs_sigma = float(lhs_vals.std(ddof=1) / math.sqrt(replicas))

    # (b) right side: overlap expectation under the tilted path law; pair i
    # takes the next 2 x 2m uniforms of one stream, first path then second
    stages, long_w, short_w, _, _ = _independent_jump_backward(kernel, plan)
    rng = spawn_rng(seed, 1_000_000)
    rhs_vals = np.empty(replicas)
    for i0 in range(0, replicas, _PATH_PAIRS):
        pairs = min(_PATH_PAIRS, replicas - i0)
        draws = rng.random((pairs, 2, 2 * plan.m)).reshape(2 * pairs, 2 * plan.m)
        shorts = _sample_short_intervals(stages, long_w, short_w, plan, draws)
        overlap = _interval_overlap(shorts[0::2], shorts[1::2])
        # math.exp, as one pair at a time took it, keeps the values bit-identical
        rhs_vals[i0 : i0 + pairs] = [math.exp(q2v * v) for v in overlap.tolist()]
    rhs_mean = float(rhs_vals.mean())
    rhs_sigma = float(rhs_vals.std(ddof=1) / math.sqrt(replicas))

    three_sigma = 3.0 * (lhs_sigma + rhs_sigma)

    # (c) induction envelope (1 + e^{k q2} C k log k log M / M)^m
    c_sup = kernel.normalization * float(kernel.family.evaluate(kernel.family.x_min))
    c_const = 4.0 * c_sup / (kernel.family.c_L * math.log(2.0))
    growth = (
        math.exp(plan.k * q2v)
        * c_const
        * plan.k
        * math.log(max(plan.k, 2))
        * math.log(plan.M)
        / plan.M
    )
    log_induction = plan.m * math.log1p(growth)

    return {
        "plan": plan.to_dict(),
        "replicas": replicas,
        "seed": seed,
        "exact_log_mean_restricted": exact_log_mean,
        "product_lower_bound_log": product_log,
        "first_moment_ok": bool(exact_log_mean >= product_log),
        "identity_lhs_mean": lhs_mean,
        "identity_lhs_sigma": lhs_sigma,
        "identity_rhs_mean": rhs_mean,
        "identity_rhs_sigma": rhs_sigma,
        "identity_abs_diff": abs(lhs_mean - rhs_mean),
        "identity_three_sigma": three_sigma,
        "identity_ok": bool(abs(lhs_mean - rhs_mean) <= three_sigma),
        "induction_bound_log": log_induction,
        "induction_envelope_holds": bool(lhs_mean <= math.exp(min(log_induction, 700.0))),
        "q2": q2v,
    }


@dataclass(frozen=True)
class PenalizationPlan:
    """Global change-of-measure schedule at one (beta, h)."""

    b: float
    k: int
    phi: float
    event_threshold: float
    beta: float
    h: float

    def to_dict(self) -> dict:
        return asdict(self)


def penalization_plan(
    kernel: RenewalKernel, law: DisorderLaw, beta: float, h: float, b: float = 0.9
) -> PenalizationPlan:
    """Window k = phi(h)/h with phi = b * log of the tail-to-numerator ratio."""
    if not 0.0 < b < 1.0:
        raise ValueError(f"b must lie in (0, 1), got {b}")
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    family = kernel.family
    ratio = family.tail(1.0 / h) / float(family.evaluate(1.0 / h))
    phi = b * math.log(ratio)
    if phi <= 0:
        raise ValueError(
            f"phi(h) = {phi:.4g} is nonpositive at h={h}: the tail ratio has not "
            "separated yet for this family; decrease h"
        )
    k = int(phi / h)
    if k < 1:
        raise ValueError(f"window k = {k} < 1 at h={h}")
    return PenalizationPlan(
        b=b, k=k, phi=phi, event_threshold=b * log_mgf_prime(law, beta), beta=beta, h=h
    )


def penalization_check(
    kernel: RenewalKernel, law: DisorderLaw, beta: float, h: float, plan: PenalizationPlan
) -> dict:
    """Consistency report for the global change of measure.

    Records the Chernoff cost rate and per-site penalty budget, the exact
    tilted success probability of the threshold event on a k-window, the
    signed mass excess of the reward/penalty tilt at the scheduled window,
    the sufficient-condition value whose validity implies that excess is
    nonpositive, and the final bound in two renderings: the rate form
    (large-deviation rate at the b-shifted mean times the window cost) and
    the closed form (shared code path with the bounds module, so the two
    serializations agree bit for bit).  The rate form is never sharper.
    """
    lam_prime = log_mgf_prime(law, beta)
    rate = rate_function(law, plan.b * lam_prime).sigma
    family = kernel.family

    defect_expression = defect_Kk(kernel, h, plan.k)
    linf_lhs = (
        math.exp(plan.phi)
        * plan.phi
        * 4.0
        * float(family.evaluate(plan.k))
        / family.tail(plan.k)
    )

    log_closed = bounds_mod.log_upper_general(family, law, beta, h, plan.b)
    log_rate_form = -rate * plan.phi / h

    return {
        "plan": plan.to_dict(),
        "chernoff_rate": rate,
        "penalty_budget_per_site_log": -rate * plan.k,
        "tilted_success_probability": tilted_block_success(
            law, beta, plan.event_threshold, plan.k
        ),
        "defect_expression": defect_expression,
        "linf_lhs": linf_lhs,
        "linf_holds": bool(linf_lhs <= 1.0),
        "defect_nonpositive": bool(defect_expression <= 0.0),
        "log_bound_rate_form": log_rate_form,
        "log_bound_closed_form": log_closed,
        "rate_form_dominates": bool(log_rate_form >= log_closed),
        "rate_at_full_mean": q1(law, beta),
    }


def coarse_graining_check(
    kernel: RenewalKernel,
    law: DisorderLaw,
    beta: float,
    h: float,
    c3: float,
    replicas: int = 200,
    seed: int = 0,
    green_n_max: int = 10_000,
) -> dict:
    """Coarse-graining diagnostics built on the crossover-tilted renewal.

    Evaluates the near/far split of the window sum with exact tilted renewal
    masses, the corresponding analytic integral in substituted form, the
    fractional-moment spot check against e^3 times the tilted renewal mass,
    and the empirical constant of the Green-function bound together with its
    stability under doubling the range.  Everything is recorded; nothing is
    assumed to be in the asymptotic regime.  The tilt's crossover parameter
    is eta = _COARSE_ETA and M_h is capped at _COARSE_M_CAP.  A window beyond
    _COARSE_N_BUDGET, or a crossover tilt whose renewal mass leaves the float
    range (supercritical at this h and eta), gives {"feasible": False, ...}
    with a note.
    """
    q1v = q1(law, beta)
    if not c3 < q1v:
        raise ValueError(f"c3={c3} must be below q1(beta)={q1v}")
    log_n = c3 / h
    if log_n > math.log(_COARSE_N_BUDGET):
        return {
            "feasible": False,
            "required_log_n": log_n,
            "n_budget": _COARSE_N_BUDGET,
            "note": "window size e^(c3/h) exceeds the configured budget at this h",
        }
    n_win = int(math.exp(log_n))
    theta = 1.0 - h / c3

    mh = bounds_mod.m_h(kernel.family, h / c3, eps=0.05)
    m_eff = _COARSE_M_CAP if mh.count is None else min(mh.count, _COARSE_M_CAP)
    m_eff = min(m_eff, kernel.support_cap)
    truncated = mh.count is None or mh.count > m_eff

    tilted = check_eta_kernel(kernel, h, _COARSE_ETA)
    need = max(n_win, green_n_max)
    try:
        u = renewal_mass(tilted, need)
    except OverflowError as exc:
        return {
            "feasible": False,
            "n_window": n_win,
            "eta": _COARSE_ETA,
            "note": f"crossover tilt is supercritical at this h: {exc}",
        }

    # near/far split: sum_{n in [N, M]} K(n-j)^theta u(j) over j < N/2 and
    # j in [N/2, N); inner sums collapse to cumulative sums over K^theta
    pow_k = np.zeros(m_eff + 1)
    pow_k[1:] = kernel.masses[1 : m_eff + 1] ** theta
    csum = np.cumsum(pow_k)

    def window_sum(j: int) -> float:
        lo, hi = n_win - j, m_eff - j
        if hi < 1:
            return 0.0
        lo = max(lo, 1)
        return float(csum[hi] - csum[lo - 1])

    half = n_win // 2
    a_term = math.fsum(float(u[j]) * window_sum(j) for j in range(0, half))
    b_term = math.fsum(float(u[j]) * window_sum(j) for j in range(half, n_win))

    # substituted analytic integral for the near term
    def integrand(y: float) -> float:
        val = float(kernel.family.evaluate_log((c3 / h) * y))
        return val ** (1.0 - h / c3) * math.exp(y)

    psi_val = bounds_mod.psi(kernel.family, c3 / h, eps=0.05)
    tail_at_inv_h = kernel.family.tail(1.0 / h)
    if psi_val > 1.0:
        from scipy.integrate import quad  # only this check integrates

        integral, _ = quad(integrand, 1.0, psi_val, limit=200)
        a_analytic = (21.0 / tail_at_inv_h) * 2.0 * (c3 / h) * integral
    else:
        a_analytic = 0.0

    # fractional-moment spot check on a j-grid
    spot = []
    for j in sorted({max(n_win // 4, 2), max(half, 2), max(3 * n_win // 4, 2), n_win}):
        log_z = replica_log_z(kernel, law, beta, h, j, seed + j, replicas)
        # math.exp per value keeps spot values bit-stable; np.exp may round
        # the last bit differently
        vals = np.array([math.exp(theta * v) for v in log_z.tolist()])
        mean = float(vals.mean())
        sem = float(vals.std(ddof=1) / math.sqrt(replicas))
        benchmark = math.exp(3.0) * float(u[j])
        spot.append(
            {
                "j": j,
                "fractional_moment": mean,
                "stderr": sem,
                "benchmark": benchmark,
                "ratio": mean / benchmark,
                "within_e3": bool(mean <= benchmark + 3.0 * sem),
            }
        )

    # empirical Green constant and its stability under doubling the range
    ratios = u[1 : green_n_max + 1] * tail_at_inv_h**2 / kernel.masses[1 : green_n_max + 1]
    c_half = float(ratios[: green_n_max // 2].max())
    c_full = float(ratios.max())

    rho_proxy = math.exp(3.0) * (a_term + b_term)
    return {
        "feasible": True,
        "n_window": n_win,
        "theta": theta,
        "m_target_log": mh.log_value,
        "m_effective": m_eff,
        "m_truncated": bool(truncated),
        "a_term": a_term,
        "b_term": b_term,
        "a_term_analytic_integral": a_analytic,
        "rho_proxy": rho_proxy,
        "rho_within_one": bool(rho_proxy <= 1.0),
        "split_small": bool(a_term + b_term <= math.exp(-3.0)),
        "fractional_moment_spot": spot,
        "green_constant_half_range": c_half,
        "green_constant_full_range": c_full,
        "green_relative_change": abs(c_full - c_half) / c_half if c_half > 0 else math.inf,
        "eta": _COARSE_ETA,
        "c3": c3,
    }
