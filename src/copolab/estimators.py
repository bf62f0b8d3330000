"""Free-energy estimation and numerical verification engines.

Every quenched disorder replica comes from one source, ``_replica_prefixes``:
replica i draws its charges once, from stream i of ``replica_rngs(seed,
...)`` (the PCG64 stream of ``SeedSequence(seed, spawn_key=(i,))``), for
every field.  ``replica_log_z`` and the trimmed second-moment check hand
its blocks, 2-D and replica-major, to one call of their engine, one
engine pass of rows at a time.
The verification engines evaluate the change-of-measure, trimmed
second-moment and coarse-graining constructions at desk scale and return
plain-dict reports: every value is recorded, and quantities that the
asymptotic theory only guarantees for sufficiently small h are reported
with measured thresholds, never assumed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import bounds as bounds_mod
from .disorder import (
    GAUSSIAN,
    DisorderLaw,
    _draw,
    log_mgf,
    log_mgf_prime,
    q1,
    q2,
    rate_function,
    replica_rngs,
    spawn_rng,
)
from .kernel import (
    FamilyKind,
    RenewalKernel,
    check_eta_kernel,
    defect_Kk,
    renewal_mass,
)
from .partition import (
    _TRIMMED_PASS_BYTES,
    Trimmed,
    _charge_rows,
    _log_z_replicas,
    _pass_rows,
    _quenched_pass,
    _trimmed_log_z_replicas,
    _trimmed_pass,
    _trimmed_size,
    _trimmed_stages,
    _workspace,
    charge_prefix,
)

__all__ = [
    "FreeEnergyEstimate",
    "PenalizationPlan",
    "DEFAULT_C4",
    "DEFAULT_C5",
    "replica_log_z",
    "sweep_free_energy",
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

_COARSE_ETA = 0.1  # crossover parameter of the tilt in coarse_graining_check
_COARSE_N_BUDGET = 20_000  # largest window e^(c3/h) that check evaluates
_COARSE_M_CAP = 50_000  # cap on its far end M_h
_QUAD_NODES = 64  # Gauss-Legendre nodes per panel of its near-term integral
_QUAD_PANELS = 4  # equal panels between consecutive break points of that integral
_PLAN_SITE_BUDGET = 100_000  # largest N a trimmed plan may ask for


@dataclass(frozen=True)
class FreeEnergyEstimate:
    """Monte Carlo free-energy estimate with a sub-additive upper bracket."""

    n: int
    replicas: int
    mean_log_z_per_site: float
    excess_per_site: float  # the mean less max(0, h - lambda), which is F(h) outside (0, 2 lambda)
    stderr: float
    upper_bracket: float
    lower_bracket: float
    c4: float
    c5: float


def _replica_prefixes(law, beta, h, n, seed, replicas, rows=None):
    """Charge-prefix rows of replicas 0..replicas-1 over n sites, ``rows`` replicas at a time.

    The one seeded source of replica rows: replica i draws once, from stream
    i of ``replica_rngs(seed, ...)``, and the draw is copied to every field
    of ``h``, one field (a one-entry grid) or a 1-D grid of F fields.  A
    block is replica-major, (rows F, n + 1), replica i's F rows consecutive,
    fewer replicas in the last; ``rows=None`` gives one block, an empty one
    for no replicas or no field.  All blocks are one buffer, each
    overwritten by the next, and each block's charges are one ``_draw``
    call.  A row equals charge_prefix(law, beta, field, _draw(law, n,
    [spawn_rng(seed, i)])[0]) bit for bit.
    """
    fields = np.reshape(np.asarray(h, dtype=float), (-1, 1))
    rows = rows or max(replicas, 1)
    buffer = np.empty((min(rows, replicas), len(fields), n + 1))
    streams = replica_rngs(seed, range(replicas))
    for i0 in range(0, max(replicas, 1), rows):
        block = buffer[: min(rows, replicas - i0)]
        # one draw per replica into its first field's row, copied to its other fields
        if block.size:
            _draw(law, n, itertools.islice(streams, len(block)), out=block[:, 0, 1:])
            block[:, 1:] = block[:, :1]
        yield _charge_rows(law, beta, fields, block).reshape(-1, n + 1)


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

    ``h`` is one field or a 1-D grid; the result has shape np.shape(h) +
    (replicas,).  The rows of ``_replica_prefixes`` go through one call of
    the batched, blocked DP, which agrees with the row-loop ``log_Z`` to
    rounding, in blocks of at most one engine pass: every field of as many
    replicas as fill ``_quenched_pass(n)`` rows, at least one, so only one
    pass of charge rows is held at a time.  A value depends on (seed, i, h)
    only: a field of a grid equals its one-field value bit for bit,
    whatever the replica count.
    """
    if n < 1:
        raise ValueError("need at least one site")
    fields = math.prod(np.shape(h))
    rows = max(1, _quenched_pass(n)[2] // max(fields, 1))
    # charges past the float range turn non-finite (beta omega - lambda may
    # be inf - inf), and their rows NaN
    with np.errstate(over="ignore", invalid="ignore"):
        values = _log_z_replicas(_replica_prefixes(law, beta, h, n, seed, replicas, rows), kernel)
    # the values come replica after replica, each replica field after field
    return values.reshape(replicas, fields).T.reshape(np.shape(h) + (replicas,))


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
    disorder at every h, and each estimate equals the one-field estimate at
    its h bit for bit.  excess_per_site is the mean less max(0, h -
    lambda(beta)).  The upper bracket is the sub-additive
    envelope (mean*n + c4*log n + c5)/n evaluated at the simulated size,
    with c4 = DEFAULT_C4 and c5 = DEFAULT_C5; the lower bracket subtracts
    _Z_SCORE standard errors from the mean.
    """
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    if n > kernel.support_cap:
        raise ValueError(f"kernel support {kernel.support_cap} < n = {n}")

    h_values = list(h_values)
    lam = log_mgf(law, beta)
    estimates = []
    for h, values in zip(h_values, replica_log_z(kernel, law, beta, h_values, n, seed, replicas)):
        # values near the float's limit sum past it; the estimate is then not finite
        with np.errstate(over="ignore", invalid="ignore"):
            per_site = values / n
            mean = float(per_site.mean())
            stderr = float(per_site.std(ddof=1) / math.sqrt(replicas))
        estimates.append(
            FreeEnergyEstimate(
                n=n,
                replicas=replicas,
                mean_log_z_per_site=mean,
                excess_per_site=mean - max(0.0, h - lam),
                stderr=stderr,
                upper_bracket=(mean * n + DEFAULT_C4 * math.log(n) + DEFAULT_C5) / n,
                lower_bracket=mean - _Z_SCORE * stderr,
                c4=DEFAULT_C4,
                c5=DEFAULT_C5,
            )
        )
    return estimates


def tilted_block_success(law: DisorderLaw, beta: float, threshold_rate: float, ell: int) -> float:
    """Probability, under the beta-tilt, that a block mean reaches threshold_rate.

    Gaussian: the normal tail erfc(-z / sqrt 2) / 2 at z = (beta - rate)
    sqrt(ell).  +/-1 law: the binomial upper tail P(Bin(ell, p) >= t), p =
    1 / (1 + e^(-2 beta)), as the sum of its terms over the sum of all
    ell + 1 terms, each term taken as its ratio to the largest one (from its
    neighbour by the factor (ell - k) p / ((k + 1) (1 - p))), so no
    binomial coefficient or power of p is formed and nothing overflows.
    """
    if law is GAUSSIAN:
        return 0.5 * math.erfc(-(beta - threshold_rate) * math.sqrt(0.5 * ell))
    p_plus = 1.0 / (1.0 + math.exp(-2.0 * beta))
    threshold = math.ceil(ell * (1.0 + threshold_rate) / 2.0)
    if threshold > ell:
        return 0.0
    q_minus = 1.0 - p_plus
    mode = min(int((ell + 1) * p_plus), ell)
    terms = np.ones(ell + 1)
    k = np.arange(mode, ell, dtype=float)
    terms[mode + 1 :] = np.cumprod((ell - k) * p_plus / ((k + 1.0) * q_minus))
    k = np.arange(mode, 0, -1, dtype=float)
    terms[:mode] = np.cumprod(k * q_minus / ((ell - k + 1.0) * p_plus))[::-1]
    return math.fsum(terms[max(threshold, 0) :].tolist()) / math.fsum(terms.tolist())


def trimmed_plan(
    upsilon: float, law: DisorderLaw, beta: float, h: float, c1: float, c2: float
) -> Trimmed:
    """Parameter schedule of the alternating long/short ensemble.

    k, M, N, m follow the coupled schedule k = floor(c1 loglog(1/h)/h),
    M = floor(e^{c2 k}), N = floor(M^2 (log M)^3), m = floor(N/(M^2 log M)),
    subject to c1 > upsilon + 1, c2 > q2(beta) and N <= _PLAN_SITE_BUDGET.
    """
    if not c1 > upsilon + 1.0:
        raise ValueError(f"c1={c1} violates c1 > upsilon + 1 = {upsilon + 1.0}")
    q2v = q2(law, beta)
    if not c2 > q2v:
        raise ValueError(f"c2={c2} violates c2 > q2(beta) = {q2v}")
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    log_inv_h = math.log(1.0 / h)
    if log_inv_h <= 1.0:
        raise ValueError(f"h={h} too large: log(1/h) must exceed 1")
    k = int(c1 * math.log(log_inv_h) / h)
    if k < 1:
        raise ValueError(f"schedule gives k={k} < 1 at h={h}; increase c1 or decrease h")
    # N <= e^{2 c2 k} (c2 k)^3, checked in log space before any exp
    log_sites = 2.0 * c2 * k + 3.0 * math.log(c2 * k)
    if log_sites > math.log(_PLAN_SITE_BUDGET):
        raise ValueError(
            f"plan at h={h} needs up to e^{log_sites:.4g} sites, over the budget of "
            f"{_PLAN_SITE_BUDGET}; use a larger h or smaller c1, c2"
        )
    big_m = int(math.exp(c2 * k))
    if big_m <= 2 * k:
        raise ValueError(f"schedule gives M={big_m} <= 2k={2 * k}; increase c2")
    log_m = math.log(big_m)
    n = int(big_m * big_m * log_m**3)
    return Trimmed(M=big_m, k=k, m=int(n / (big_m * big_m * log_m)), N=n)


def _sample_short_intervals(steps, draws, row):
    """Short intervals of paths drawn under the tilted ensemble law.

    ``steps[g - 1]`` is (windows, w, start) of stage g: the sliding windows
    of the backward weights B[g] over the stage's jump weights w, whose
    first gap is ``start``.  draws[p, g - 1] is the uniform variate of path
    p at stage g; returns the (paths, m, 2) array of [start, end) of each
    path's short excursions.  Every path takes the same per-row sum, cumsum
    and count as a 1-D searchsorted, so it draws what one path at a time
    would.  Its weight and cumsum rows, ``row`` per path, are the thread's
    ``_workspace``.
    """
    paths = draws.shape[0]
    ws = _workspace(paths, {}, row)
    x = np.zeros(paths, dtype=np.int64)
    shorts = np.empty((paths, len(steps) // 2, 2), dtype=np.int64)
    for g, (windows, w, start) in enumerate(steps, start=1):
        probs, cdf = (ws[name][:, : len(w)] for name in ("probs", "cdf"))
        np.multiply(windows[x + start], w, out=probs)
        np.cumsum(probs, axis=1, out=cdf)
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
    plan: Trimmed,
    replicas: int,
    seed: int = 0,
) -> dict:
    """Second-moment diagnostics for the trimmed ensemble.

    (a) exact disorder-averaged restricted partition function against the
    product lower bound; (b) two independent Monte Carlo estimators of the
    normalized second moment -- replica averages of (Z/EZ)^2 versus the
    overlap expectation under the tilted independent-jump path law -- which
    the identity says must agree; (c) the induction bound envelope.  The
    exact mean in (a) is the row oracle's stage loop, ``_trimmed_stages``,
    on the zero-disorder row S_m = h m, run after the replicas; its stage
    arrays are the path sampler's backward weights, and the product bound
    comes from the sums of the long and short jump weights.  The replicas
    of (b) go through the batched trimmed engine in one call, one engine pass
    of ``_replica_prefixes`` rows at a time, and the overlap paths are drawn
    from one stream, spawn_rng(seed, 1_000_000), for half as many replica
    pairs at a time as ``_pass_rows`` fits paths, with their sampler rows,
    in the engine's workspace.  Neither the pass nor the pair chunk moves a
    value.
    The plan fixes only the ensemble; every part takes beta and h from the
    arguments, and the report records them next to the plan.
    """
    if not 100 <= replicas < 1_000_000:
        raise ValueError("replicas must lie in [100, 1e6)")  # keeps seed streams disjoint
    q2v = q2(law, beta)

    span = _trimmed_size(kernel, plan) - 1
    if span < 0:
        raise ValueError("trimmed ensemble is empty for this plan")
    # the short stages weigh up to e^{hk}: refuse before any replica is drawn
    if h * plan.k > 700.0:
        raise OverflowError(f"h*k = {h * plan.k:.1f} exceeds the exponent guard")

    # (b) left side: disorder replicas of (Z restricted / exact mean)^2; the
    # mean's stage loop runs after the passes, so its stage arrays sit
    # beside the thread's workspace only
    blocks = _replica_prefixes(law, beta, h, span, seed, replicas, _trimmed_pass(plan, span + 1)[2])
    log_zt = _trimmed_log_z_replicas(blocks, kernel, plan)
    stages, exact_log_mean = _trimmed_stages(charge_prefix(law, 0.0, h, np.zeros(span)), kernel, plan)
    if exact_log_mean == -math.inf:
        raise ValueError("trimmed ensemble is empty for this plan")
    # the jump weights: K(l)/2 for a long excursion, K(l) e^{hl}/2 for a short
    # one, whose charge factor averages to e^{hl}
    long_w = 0.5 * kernel.masses[plan.M : plan.M * plan.M + 1]
    short_w = 0.5 * kernel.masses[1 : plan.k + 1] * np.exp(h * np.arange(1, plan.k + 1))
    # product bound: (sum of long weights * sum of short weights)^m K(N)/3
    pair_log = math.log(long_w.sum()) + math.log(short_w.sum())
    product_log = plan.m * pair_log + math.log(kernel.masses[plan.N] / 3.0)
    lhs_vals = np.exp(2.0 * (log_zt - exact_log_mean))
    lhs_mean = float(lhs_vals.mean())
    lhs_sigma = float(lhs_vals.std(ddof=1) / math.sqrt(replicas))

    # (b) right side: overlap expectation under the tilted path law; pair i
    # takes the next 2 x 2m uniforms of one stream, first path then second,
    # drawn for half as many pairs at a time as _pass_rows gives paths, each
    # path with its weight and cumsum rows, beside B
    steps = [(np.lib.stride_tricks.sliding_window_view(stages[g], len(w)), w, start)
             for g, (w, start) in enumerate([(long_w, plan.M), (short_w, 1)] * plan.m, start=1)]
    row = {"probs": (len(long_w),), "cdf": (len(long_w),)}
    chunk = _pass_rows({"backward": (len(stages), len(stages[0]))}, row, _TRIMMED_PASS_BYTES) // 2
    rng = spawn_rng(seed, 1_000_000)
    rhs_vals = np.empty(replicas)
    for i0 in range(0, replicas, chunk):
        pairs = min(chunk, replicas - i0)
        draws = rng.random((pairs, 2, 2 * plan.m)).reshape(2 * pairs, 2 * plan.m)
        shorts = _sample_short_intervals(steps, draws, row)
        overlap = _interval_overlap(shorts[0::2], shorts[1::2])
        # math.exp, as one pair at a time took it, keeps the values bit-identical
        rhs_vals[i0 : i0 + pairs] = [math.exp(q2v * v) for v in overlap.tolist()]
    rhs_mean = float(rhs_vals.mean())
    rhs_sigma = float(rhs_vals.std(ddof=1) / math.sqrt(replicas))

    three_sigma = 3.0 * (lhs_sigma + rhs_sigma)
    # a rounding floor: the engine's log Z and the exact log mean each meet
    # their oracles to 1e-10 of max(1, |value|), so a squared ratio
    # e^{2(log Z - log mean)} may move by 4e-10 max(1, |log mean|) of itself.
    # At beta = 0 both sides are exact (sigma 0) and differ by rounding only
    rounding = 4e-10 * max(1.0, abs(exact_log_mean)) * max(lhs_mean, rhs_mean)

    # (c) induction envelope (1 + e^{k q2} C k log k log M / M)^m, C = 4 c_sup /
    # (c_L log 2) with c_sup = c L(x_min), the largest c L(n) = n K(n)
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
        "plan": asdict(plan),
        "beta": beta,
        "h": h,
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
        "identity_ok": bool(abs(lhs_mean - rhs_mean) <= three_sigma + rounding),
        "induction_bound_log": log_induction,
        "induction_envelope_holds": bool(lhs_mean <= math.exp(min(log_induction, 700.0))),
        "q2": q2v,
    }


@dataclass(frozen=True)
class PenalizationPlan:
    """Global change-of-measure schedule at one h; it depends on the kernel alone."""

    b: float
    k: int
    phi: float


def penalization_plan(kernel: RenewalKernel, h: float, b: float = 0.9) -> PenalizationPlan:
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
    return PenalizationPlan(b=b, k=k, phi=phi)


def penalization_check(
    kernel: RenewalKernel, law: DisorderLaw, beta: float, h: float, plan: PenalizationPlan
) -> dict:
    """Consistency report for the global change of measure.

    Records the event threshold b lambda'(beta), its Chernoff cost rate, the
    exact tilted success probability of that event on a k-window, the
    signed mass excess of the reward/penalty tilt at the scheduled window,
    the sufficient-condition value whose validity implies that excess is
    nonpositive, and the final bound in two renderings: the rate form
    (large-deviation rate at the b-shifted mean times the window cost) and
    the closed form (shared code path with the bounds module, so the two
    serializations agree bit for bit).  The rate form is never sharper.
    """
    threshold = plan.b * log_mgf_prime(law, beta)
    rate = rate_function(law, threshold).sigma
    family = kernel.family

    defect_expression = defect_Kk(kernel, h, plan.k)
    # the sufficient condition e^phi phi 4 L(k) / tail(k) <= 1
    linf_lhs = math.exp(plan.phi) * plan.phi * 4.0 * float(family.evaluate(plan.k)) / family.tail(plan.k)

    log_closed = bounds_mod.log_upper_general(family, law, beta, h, plan.b)
    log_rate_form = -rate * plan.phi / h

    return {
        "plan": asdict(plan),
        "event_threshold": threshold,
        "chernoff_rate": rate,
        "tilted_success_probability": tilted_block_success(law, beta, threshold, plan.k),
        "defect_expression": defect_expression,
        "linf_lhs": linf_lhs,
        "linf_holds": bool(linf_lhs <= 1.0),
        "defect_nonpositive": bool(defect_expression <= 0.0),
        "log_bound_rate_form": log_rate_form,
        "log_bound_closed_form": log_closed,
        "rate_form_dominates": bool(log_rate_form >= log_closed),
    }


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the _QUAD_NODES-point Gauss-Legendre rule on [-1, 1], read-only.

    Golub-Welsch nodes, each refined by one Newton step on P_n through the
    three-term recurrence, and weights 2/((1 - x^2) P_n'(x)^2) there; the
    eigenvectors' own weights hold only about 1e-12 relative.
    """
    n = _QUAD_NODES
    k = np.arange(1.0, n)
    nodes = np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))

    def legendre(x):
        # P_n(x) and P_n'(x): (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1}
        low, high = np.ones_like(x), x
        for j in range(1, n):
            low, high = high, ((2 * j + 1) * x * high - j * low) / (j + 1)
        return high, n * (x * high - low) / (x * x - 1.0)

    value, slope = legendre(nodes)
    nodes = nodes - value / slope
    weights = 2.0 / ((1.0 - nodes**2) * legendre(nodes)[1] ** 2)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _near_term_integral(family, log_n: float, theta: float, psi_val: float) -> float:
    """Integral of L(e^(log_n y))^theta e^y over y in [1, psi_val], by a fixed rule.

    L is frozen below log x_min, so the integrand has a kink at y =
    log(x_min) / log_n; the range is split there when the kink lies inside,
    and each piece is cut into _QUAD_PANELS equal panels of _QUAD_NODES
    Gauss-Legendre nodes.  An integral past the float range raises
    OverflowError.
    """
    kink = math.log(family.x_min) / log_n
    edges = [1.0, kink, psi_val] if 1.0 < kink < psi_val else [1.0, psi_val]
    nodes, weights = _legendre_rule()
    cuts = np.concatenate(
        [np.linspace(lo, hi, _QUAD_PANELS + 1)[:-1] for lo, hi in zip(edges, edges[1:])]
        + [edges[-1:]]
    )
    half = 0.5 * np.diff(cuts)[:, None]
    y = cuts[:-1, None] + half * (1.0 + nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = family.evaluate_log(log_n * y) ** theta * np.exp(y) * (half * weights)
    integral = math.fsum(terms.ravel().tolist())
    if not math.isfinite(integral):
        raise OverflowError(f"the near-term integral up to psi={psi_val:.4g} passes the float range")
    return integral


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
    masses, the corresponding analytic integral in substituted form,
    (21 / tail(1/h)) 2 (c3/h) times the integral of L(e^{(c3/h) y})^theta e^y
    over y in [1, psi(c3/h)] (0 where psi <= 1), the fractional-moment spot
    check against e^3 times the tilted renewal mass, and the empirical
    constant of the Green-function bound together with its stability under
    doubling the range.  Everything is recorded; nothing is assumed to be in
    the asymptotic regime.  The tilt's crossover parameter
    is eta = _COARSE_ETA and M_h is capped at _COARSE_M_CAP.  A window beyond
    _COARSE_N_BUDGET, or a crossover tilt whose renewal mass leaves the float
    range (supercritical at this h and eta), gives {"feasible": False, ...}
    with a note.  Fewer than 2 replicas (the spot standard errors need two),
    a green_n_max below 2 (the half range of the Green constant needs a site),
    a negative seed, c3 >= q1(beta), h >= c3, or outside the
    super-logarithmic family log(c3/h) <= 1 (the window size M_h of h/c3
    needs it), or a c_L so small that the Green constant underflows to 0
    raise ValueError; one so large that it overflows raises OverflowError.
    """
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    if replicas < 2:
        raise ValueError(f"need at least 2 replicas, got {replicas}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if green_n_max < 2:
        raise ValueError(f"green_n_max must be at least 2, got {green_n_max}")
    q1v = q1(law, beta)
    if not c3 < q1v:
        raise ValueError(f"c3={c3} must be below q1(beta)={q1v}")
    # bounds.m_h(h/c3) below needs h/c3 < 1 and, outside the
    # super-logarithmic family, its own log(1/(h/c3)) > 1
    kind = kernel.family.kind
    log_family = kind is not FamilyKind.SUPER_LOGARITHMIC
    if not h < c3 or (log_family and math.log(1.0 / (h / c3)) <= 1.0):
        need = "log(c3/h) > 1" if log_family else "h < c3"
        raise ValueError(f"h={h} too large for the {kind.value} family with c3={c3}: need {need}")
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
    psi_val = bounds_mod.psi(kernel.family, c3 / h, eps=0.05)
    tail_at_inv_h = kernel.family.tail(1.0 / h)
    if psi_val > 1.0:
        integral = _near_term_integral(kernel.family, c3 / h, theta, psi_val)
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

    # empirical Green constant, the largest u(n) tail(1/h)^2 / K(n) over
    # 1 <= n <= green_n_max // 2 and over 1 <= n <= green_n_max
    try:
        with np.errstate(over="raise"):
            ratios = u[1 : green_n_max + 1] * tail_at_inv_h**2 / kernel.masses[1 : green_n_max + 1]
    except (OverflowError, FloatingPointError):
        raise OverflowError(f"the Green constant overflows at c_L={kernel.family.c_L}") from None
    c_half = float(ratios[: green_n_max // 2].max())
    if c_half == 0.0:  # u(n) tail(1/h)^2 underflowed to 0 at every n
        raise ValueError(f"the Green constant underflows to 0 at c_L={kernel.family.c_L}")
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
        "green_relative_change": abs(c_full - c_half) / c_half,
        "eta": _COARSE_ETA,
        "c3": c3,
    }
