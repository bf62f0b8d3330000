"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured values before asserting.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from copolab import estimators as est
from copolab.bounds import bound_table
from copolab.disorder import BINARY, GAUSSIAN, q1, q2, rate_function
from copolab.kernel import (
    build_kernel,
    check_eta_kernel,
    defect_Kk,
    defect_check_eta,
    renewal_mass,
)
from copolab.partition import brute_force_log_Z, log_Z, log_annealed_Z, make_instance

H_GRID = [0.1 * 2.0**-j for j in range(7)]
ETA_SCAN = (0.1, 0.3, 0.5, 0.7, 0.9)
# largest gap, in units of the target, allowed between the defect of
# defect_check_eta and its continuum evaluation; the trapezoid end terms do
# not resolve the kink of L at x_min, which costs about 0.002 at h = 0.1,
# eta = 0.9, where the crossover int(1/(eta^2 h)) = 12 lies next to it
CONTINUUM_TOL = 0.01


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def _euler_maclaurin_sum(family, weight, a, b):
    """sum_{l=a}^{b} L(l) weight(l) / l to the first Euler-Maclaurin (trapezoid) term.

    The integral is taken by quadrature in y = ln l, split at the freeze point
    x_min where L has a kink.
    """

    def f(x):
        return float(family.evaluate(x)) * weight(x) / x

    lo, hi, kink = math.log(a), math.log(b), math.log(family.x_min)
    integral, _ = quad(
        lambda y: float(family.evaluate(math.exp(y))) * weight(math.exp(y)),
        lo,
        hi,
        points=[kink] if lo < kink < hi else None,
        limit=200,
    )
    return integral + 0.5 * (f(a) + f(b))


def _continuum_defect_ratio(kernel, h, eta):
    """Crossover-tilt defect over its target tail(1/h)/6, from the continuum form.

    An evaluation of the construction that shares no summation with
    ``defect_check_eta``, only the family's L and tail and the kernel's
    normalization: with K(l) = c L(l)/l, c = kernel.normalization and
    t = int(1/(eta^2 h)),

        defect = (c/2) [P - R],
        R = sum_{l <= t} L(l)/l (e^{hl} - 1),
        P = sum_{l > t} L(l)/l (1 - e^{-eta h l})
          = tail(t+1) + L(t+1)/(2(t+1)) - sum_{l > t} L(l)/l e^{-eta h l},

    each sum by ``_euler_maclaurin_sum``, the damped one cut at
    l = t + 1 + 50/(eta h), where its weight has fallen by another e^{-50}.  For large 1/eta^2 the reward sum is
    L(t) Ein(1/eta^2) ~ L(t) eta^2 e^{1/eta^2}, which is why the threshold
    h0(eta) is doubly exponentially small in 1/eta^2.
    """
    family = kernel.family
    t = int(1.0 / (eta * eta * h))
    reward = _euler_maclaurin_sum(family, lambda x: math.expm1(h * x), 1, t)
    damped = _euler_maclaurin_sum(
        family, lambda x: math.exp(-eta * h * x), t + 1, t + 1 + 50.0 / (eta * h)
    )
    penalty = family.tail(t + 1) + 0.5 * float(family.evaluate(t + 1)) / (t + 1) - damped
    defect = 0.5 * kernel.normalization * (penalty - reward)
    return defect / (family.tail(1 / h) / 6.0)


def _crossover_scan(big_kernels, ratio):
    """ratio(kernel, h, eta) per (family, eta), on H_GRID."""
    return {
        (name, eta): [ratio(kernel, h, eta) for h in H_GRID]
        for name, kernel in big_kernels.items()
        for eta in ETA_SCAN
    }


def _measured_defect_ratio(kernel, h, eta):
    """Crossover-tilt defect over its target tail(1/h)/6, from ``defect_check_eta``."""
    return defect_check_eta(kernel, h, eta) / (kernel.family.tail(1 / h) / 6.0)


def _first_passing_h(ratios):
    """Largest grid h at which the defect target holds, None if it holds nowhere."""
    return next((h for h, r in zip(H_GRID, ratios) if r >= 1.0), None)


def _green_constants(kernel, h, eta):
    """Empirical C(5000), C(10000) with u(n) <= C K(n) / tail(1/h)^2 for the crossover tilt."""
    u = renewal_mass(check_eta_kernel(kernel, h, eta), 10_000)
    tail_sq = kernel.family.tail(1 / h) ** 2
    ratios = u[1:] * tail_sq / kernel.masses[1 : 10_001]
    return float(ratios[:5_000].max()), float(ratios.max())


def test_criterion_1_oracle_equivalence(log_kernel_small):
    start = time.time()
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for i in range(200):
        law = GAUSSIAN if i % 2 == 0 else BINARY
        beta = float(rng.uniform(0.0, 2.0))
        h = float(rng.uniform(-1.0, 1.0))
        n = int(rng.integers(1, 15))
        inst = make_instance(law, beta, h, n=n, seed=int(rng.integers(0, 2**63)))
        exact = log_Z(inst, log_kernel_small)
        brute = brute_force_log_Z(inst, log_kernel_small)
        worst = max(worst, abs(exact - brute) / max(1.0, abs(exact)))
    elapsed = time.time() - start
    ok = worst <= 1e-10 and elapsed < 60.0
    _report(1, ok, f"worst rel err {worst:.3e} over 200 tuples in {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 60.0


def test_criterion_2_annealed_limits(log_kernel_4000):
    start = time.time()
    n = 4000
    localized = log_annealed_Z(log_kernel_4000, n, 0.5) / n
    lo, hi = 0.5 - 20 * math.log(n) / n, 0.5
    ok_loc = lo <= localized <= hi
    delocalized = log_annealed_Z(log_kernel_4000, n, -0.2)
    floor = 2 * math.log(log_kernel_4000.mass(n) / 2) / n
    ok_del = floor <= delocalized / n <= 0.0
    elapsed = time.time() - start
    ok = ok_loc and ok_del and elapsed < 30.0
    _report(
        2,
        ok,
        f"h=0.5 per-site {localized:.6f} in [{lo:.6f}, {hi}]; "
        f"h=-0.2 per-site {delocalized / n:.6f} in [{floor:.6f}, 0]; {elapsed:.1f}s",
    )
    assert ok_loc and ok_del
    assert elapsed < 30.0


def test_criterion_3_closed_form_cumulants():
    worst = 0.0
    for beta in np.linspace(0.04, 2.0, 50):
        worst = max(worst, abs(q1(GAUSSIAN, float(beta)) - beta**2 / 2))
        worst = max(worst, abs(q2(GAUSSIAN, float(beta)) - beta**2))
    for x in np.linspace(0.0, 3.0, 50):
        worst = max(worst, abs(rate_function(GAUSSIAN, float(x)).sigma - x**2 / 2))
    for x in np.linspace(0.0, 0.98, 50):
        closed = ((1 + x) / 2) * math.log(1 + x) + ((1 - x) / 2) * math.log(1 - x) if x > 0 else 0.0
        worst = max(worst, abs(rate_function(BINARY, float(x)).sigma - closed))
    ok = worst <= 1e-8
    _report(3, ok, f"worst deviation {worst:.3e} on 50-point grids")
    assert worst <= 1e-8


def test_criterion_4_second_moment_identity(families):
    start = time.time()
    plan = est.trimmed_plan(2.0, GAUSSIAN, beta=0.5, h=0.3, c1=3.3, c2=1.5)
    assert plan.M <= 200 and plan.m <= 20
    kernel = build_kernel(families["sub"], plan.N)
    report = est.trimmed_moment_check(
        kernel, GAUSSIAN, 0.5, 0.3, plan, replicas=10_000, seed=20260810
    )
    elapsed = time.time() - start
    ok = report["identity_ok"] and elapsed < 600.0
    _report(
        4,
        ok,
        f"lhs {report['identity_lhs_mean']:.5f}+-{report['identity_lhs_sigma']:.5f} "
        f"rhs {report['identity_rhs_mean']:.5f}+-{report['identity_rhs_sigma']:.5f} "
        f"diff {report['identity_abs_diff']:.5f} <= {report['identity_three_sigma']:.5f}; "
        f"{elapsed:.0f}s",
    )
    assert report["identity_ok"]
    assert elapsed < 600.0


def test_criterion_5_defect_signs(big_kernels):
    start = time.time()
    all_ok = True
    details = []
    for name, kernel in big_kernels.items():
        fam = kernel.family
        signs = []
        for h in H_GRID:
            phi = 0.9 * math.log(fam.tail(1 / h) / float(fam.evaluate(1 / h)))
            k = int(phi / h)
            signs.append(defect_Kk(kernel, h, k) <= 0.0)
        first_fail = next((H_GRID[i] for i, s in enumerate(signs) if not s), None)
        three_smallest = all(signs[-3:])
        all_ok = all_ok and three_smallest
        details.append(f"{name}: first failing h {first_fail}")
    elapsed = time.time() - start
    ok = all_ok and elapsed < 60.0
    _report(5, ok, "; ".join(details) + f"; {elapsed:.1f}s")
    assert all_ok
    assert elapsed < 60.0


def test_criterion_6_crossover_tilt_defect(big_kernels):
    # lemma: the crossover tilt has defect >= tail(1/h)/6 below a threshold
    # h0(eta) that is doubly exponentially small in 1/eta^2. The reward
    # branch weights K(l) by (1 + e^{hl})/2 up to l = 1/(eta^2 h), i.e. up to
    # exp(1/eta^2); at eta = 0.1 that is exp(100) ~ 2.7e43 and h0 is far
    # below double precision. The threshold is derived independently by the
    # continuum evaluation of the same construction (_continuum_defect_ratio),
    # which puts h0 on the grid only at eta = 0.9 (about 2.1e-3 sub, 7.5e-3
    # log, 1.6e-2 super; at eta = 0.7 it is at most 4e-4). Asserted on the
    # eta scan: (a) the passing grid points form a tail of the grid, (b) the
    # first passing h does not increase as eta decreases, (c) at every scan
    # point, eta = 0.1 included, the defect agrees with its continuum value
    # within CONTINUUM_TOL targets and the first passing h is the predicted
    # one, and (d) the prediction reaches the target for every family
    start = time.time()
    measured = _crossover_scan(big_kernels, _measured_defect_ratio)
    predicted = _crossover_scan(big_kernels, _continuum_defect_ratio)
    tails_ok = ordered_ok = agree_ok = reached_ok = True
    worst_gap = 0.0
    details = []
    for name in big_kernels:
        first_h, first_pred = {}, {}
        for eta in ETA_SCAN:
            ratios, preds = measured[name, eta], predicted[name, eta]
            first_h[eta], first_pred[eta] = _first_passing_h(ratios), _first_passing_h(preds)
            if first_h[eta] is not None:
                i = H_GRID.index(first_h[eta])
                tails_ok = tails_ok and all(r >= 1.0 for r in ratios[i:])
            gaps = [abs(r - p) / max(1.0, abs(p)) for r, p in zip(ratios, preds)]
            worst_gap = max(worst_gap, *gaps)
            agree_ok = agree_ok and max(gaps) <= CONTINUUM_TOL and first_h[eta] == first_pred[eta]
        # no pass on the grid means the threshold lies below it
        thresholds = [first_h[eta] or 0.0 for eta in ETA_SCAN]
        ordered_ok = ordered_ok and all(a <= b for a, b in zip(thresholds, thresholds[1:]))
        reached_ok = reached_ok and any(first_pred.values())
        by_eta = ", ".join(
            f"eta {eta}: {first_h[eta]} (predicted {first_pred[eta]})" for eta in ETA_SCAN
        )
        best_01 = max(measured[name, ETA_SCAN[0]])
        details.append(f"{name}: first passing h {by_eta}; eta 0.1 best ratio {best_01:.2e}")
    elapsed = time.time() - start
    ok = tails_ok and ordered_ok and agree_ok and reached_ok and elapsed < 60.0
    _report(
        6, ok, "; ".join(details) + f"; worst continuum gap {worst_gap:.1e}; {elapsed:.1f}s"
    )
    assert tails_ok, "defect target holds at some grid h but fails at a smaller one"
    assert ordered_ok, "first passing h increases as eta decreases"
    assert agree_ok, "defect_check_eta departs from the continuum evaluation of the tilt"
    assert reached_ok, "the continuum places no family's threshold on the scan"
    assert elapsed < 60.0


def test_criterion_7_convexity_monotonicity(log_kernel_small):
    rng = np.random.default_rng(77)
    grid = np.linspace(-0.5, 0.5, 11)
    worst_first, worst_second = math.inf, math.inf
    for _ in range(50):
        n = int(rng.integers(30, 70))
        beta = float(rng.uniform(0.0, 2.0))
        omega = rng.standard_normal(n)
        vals = np.array(
            [
                log_Z(make_instance(GAUSSIAN, beta, float(h), omega=omega), log_kernel_small)
                for h in grid
            ]
        )
        worst_first = min(worst_first, float(np.diff(vals).min()))
        worst_second = min(worst_second, float(np.diff(vals, 2).min()))
    ok = worst_first >= 0.0 and worst_second >= -1e-8
    _report(7, ok, f"min first diff {worst_first:.3e}, min second diff {worst_second:.3e}")
    assert worst_first >= 0.0
    assert worst_second >= -1e-8


def test_criterion_8_bound_ordering(families):
    grid = [0.2 * 2.0**-j for j in range(7)]
    details = []
    all_ok = True
    for name, fam in families.items():
        rows = bound_table(fam, GAUSSIAN, 1.0, grid)
        ordered = ["rss_above_upper_general" not in r.flags for r in rows]
        # h* = largest grid point from which ordering holds all the way down
        h_star = None
        for i in range(len(grid)):
            if all(ordered[i:]):
                h_star = grid[i]
                break
        ok = h_star is not None and h_star > grid[-1]
        all_ok = all_ok and ok
        details.append(f"{name}: h* = {h_star}")
    _report(8, all_ok, "; ".join(details))
    assert all_ok


def test_criterion_9_green_function_stability(big_kernels):
    # the Green-function bound u(n) <= C K(n) / tail(1/h)^2 is what the defect
    # lemma of criterion 6 feeds. At every scan point where the continuum
    # evaluation puts the defect d at or above tail(1/h)/6, the renewal
    # asymptotics of a defective law, u(n) ~ Ktilde(n) / d^2, give
    # C <= 36 max_l Ktilde(l)/K(l) = 18 (1 + e^{1/eta^2}); asserted there: C
    # stays within that constant and settles between n = 5000 and n = 10000.
    # (log, h = 0.05, eta = 0.1) lies outside the lemma's hypothesis (its tilt
    # is supercritical, see criterion 6), so its constant grows geometrically
    # and is reported, not asserted
    predicted = _crossover_scan(big_kernels, _continuum_defect_ratio)
    points = {name: [] for name in big_kernels}
    for (name, eta), preds in predicted.items():
        for h, pred in zip(H_GRID, preds):
            if pred >= 1.0:
                c_half, c_full = _green_constants(big_kernels[name], h, eta)
                bound = 18.0 * (1.0 + math.exp(1.0 / eta**2))
                points[name].append((abs(c_full - c_half) / c_half, c_full / bound))
    covered = all(points.values())
    worst_change = max((c for ps in points.values() for c, _ in ps), default=math.inf)
    worst_share = max((s for ps in points.values() for _, s in ps), default=math.inf)
    out_half, out_full = _green_constants(big_kernels["log"], 0.05, 0.1)
    ok = covered and worst_change < 0.10 and worst_share <= 1.0
    counts = ", ".join(f"{name} {len(ps)}" for name, ps in points.items())
    _report(
        9,
        ok,
        f"points where the defect target holds: {counts}; worst change {worst_change:.3e}; "
        f"largest C(10000) / (18 (1 + e^(1/eta^2))) {worst_share:.3g}; "
        f"outside the hypothesis (log, h=0.05, eta=0.1): "
        f"C(5000) = {out_half:.3e}, C(10000) = {out_full:.3e}",
    )
    assert covered, "some family has no scan point where the defect target holds"
    assert worst_share <= 1.0, "empirical Green constant exceeds the lemma's constant"
    assert worst_change < 0.10, "empirical Green constant does not settle where the lemma holds"


def test_criterion_10_estimate_thread_determinism(tmp_path):
    # seed and replica index fix every replica, so a fixed seed must give the
    # same bytes on every run, whether the values come from flags or --config,
    # and the batched DP must give every replica the same bits whatever the
    # number of replicas evaluated with it
    from copolab.cli import main
    from copolab.kernel import FamilyKind, SlowlyVaryingFamily

    values = {"beta": "1.0", "h": "0.4", "n": "250", "replicas": "16", "seed": "314"}
    flags = [token for key, val in values.items() for token in ("--" + key, val)]
    cfg = tmp_path / "det.cfg"
    cfg.write_text("".join(f"{key} = {val}\n" for key, val in values.items()))
    runs = [["estimate", *flags]] * 3 + [["--config", str(cfg), "estimate"]]
    outputs = []
    for i, argv in enumerate(runs):
        out = tmp_path / f"det{i}.csv"
        assert main([*argv, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    same_bytes = all(o == outputs[0] for o in outputs)

    # the kernel and law the estimate command builds for these flags
    kernel = build_kernel(SlowlyVaryingFamily(FamilyKind.LOGARITHMIC, 2.0, 1.0), 1000)
    full = est.replica_log_z(kernel, GAUSSIAN, 1.0, 0.4, 250, 314, replicas=16)
    batch_free = all(
        np.array_equal(full[:k], est.replica_log_z(kernel, GAUSSIAN, 1.0, 0.4, 250, 314, replicas=k))
        for k in (1, 5, 9)
    )
    ok = same_bytes and batch_free
    _report(
        10,
        ok,
        f"{len(outputs[0])} bytes identical over 3 flag runs and 1 --config run: {same_bytes}; "
        f"replicas=16 prefixes bit-equal to replicas=1, 5, 9: {batch_free}",
    )
    assert ok
