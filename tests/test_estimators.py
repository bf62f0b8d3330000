import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from copolab import estimators as est
from copolab.bounds import log_upper_general
from copolab.disorder import BINARY, GAUSSIAN, _draw, q1, q2, rate_function, spawn_rng
from copolab.kernel import build_kernel
from copolab.partition import (
    _BLOCK,
    _FILL_ROWS,
    _FILL_VARIATION,
    QuenchedInstance,
    _log_z_replicas,
    brute_force_log_Z,
    log_Z,
    log_annealed_Z,
    make_instance,
)


@pytest.fixture(scope="module")
def moment_kernel(families):
    # shared by the trimmed-plan checks; support covers the small desk plan
    return build_kernel(families["sub"], 11_000)


def test_estimate_localized_regime(log_kernel_small):
    # deep in the localized phase the single-below-excursion bound h - lambda
    # must be cleared by the replica mean
    got = est.estimate_free_energy(
        log_kernel_small, GAUSSIAN, beta=1.0, h=2.0, n=2000, replicas=64, seed=42
    )
    assert got.mean_log_z_per_site >= 2.0 - 0.5 - 0.05
    assert got.lower_bracket <= got.mean_log_z_per_site <= got.upper_bracket + 1.96 * got.stderr


def test_estimate_delocalized_window(log_kernel_small):
    n = 2000
    got = est.estimate_free_energy(
        log_kernel_small, GAUSSIAN, beta=1.0, h=-0.5, n=n, replicas=32, seed=7
    )
    floor = 2.0 * math.log(log_kernel_small.mass(n) / 2.0) / n
    assert floor <= got.mean_log_z_per_site <= 0.0


def test_estimate_beta_zero_matches_annealed(log_kernel_small):
    n, h = 500, 0.3
    got = est.estimate_free_energy(
        log_kernel_small, GAUSSIAN, beta=0.0, h=h, n=n, replicas=4, seed=1
    )
    assert got.mean_log_z_per_site == pytest.approx(
        log_annealed_Z(log_kernel_small, n, h) / n, rel=1e-12
    )
    assert got.stderr == pytest.approx(0.0, abs=1e-13)


def test_replica_values_do_not_depend_on_replica_count(log_kernel_small):
    # bit-equal whatever the batch width, which the GEMMs of the batched DP
    # must not leak into a replica's value
    many = est.replica_log_z(log_kernel_small, BINARY, 0.8, 0.4, 300, 5, replicas=100)
    for count in (1, 2, 3, 5, 8, 17):
        few = est.replica_log_z(log_kernel_small, BINARY, 0.8, 0.4, 300, 5, replicas=count)
        np.testing.assert_array_equal(many[:count], few)


def _assert_matches_row_loop(kernel, law, beta, h, n, seed, replicas):
    got = est.replica_log_z(kernel, law, beta, h, n, seed, replicas)
    ref = np.array([
        log_Z(make_instance(law, beta, h, omega=_draw(law, n, spawn_rng(seed, i))), kernel)
        for i in range(replicas)
    ])
    np.testing.assert_array_less(np.abs(got - ref), 1e-10 * np.maximum(1.0, np.abs(ref)))
    return ref


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 4 * _BLOCK),
    beta=st.floats(0.0, 2.0),
    h=st.floats(-50.0, 50.0),
    law=st.sampled_from([GAUSSIAN, BINARY]),
    seed=st.integers(0, 2**32 - 1),
    replicas=st.integers(1, 3),
)
def test_replica_log_z_matches_row_loop(log_kernel_small, n, beta, h, law, seed, replicas):
    _assert_matches_row_loop(log_kernel_small, law, beta, h, n, seed, replicas)


@pytest.mark.parametrize("law", [GAUSSIAN, BINARY], ids=["gaussian", "binary"])
@pytest.mark.parametrize("beta,h", [(2.0, 1.0), (1.0, 2.0), (1.0, -5.0)])
def test_replica_log_z_matches_row_loop_over_wide_log_range(log_kernel_small, law, beta, h):
    # (2, 1) drives the charges to |S| ~ 1e3 with log Z of order one, (1, 2)
    # takes log Z itself into the thousands, and h = -5 is strongly
    # delocalized: log Z ~ -11 while b(j) = Z(j) e^{-S_j} spans e^{1e4}
    n = 2000
    ref = _assert_matches_row_loop(log_kernel_small, law, beta, h, n, 3, 3)
    prefix = make_instance(law, beta, h, omega=_draw(law, n, spawn_rng(3, 0))).charge_prefix
    assert max(np.abs(prefix).max(), np.abs(ref).max()) > 500.0


@pytest.mark.parametrize("n", [15, 16, 17, 47, 48, 49])
@pytest.mark.parametrize("law", [GAUSSIAN, BINARY], ids=["gaussian", "binary"])
def test_replica_log_z_matches_row_loop_at_sub_block_edges(log_kernel_small, law, n):
    # N + 1 rows end just before, on and just after a diagonal sub-block edge
    assert _FILL_ROWS == 16
    _assert_matches_row_loop(log_kernel_small, law, 1.2, 0.3, n, 4, 3)


def test_engine_mixes_steep_and_linear_replicas(log_kernel_small):
    # steep blocks (charge variation above _FILL_VARIATION: rows 1 and 3 in
    # their three full blocks, the last row in its second block only) fill
    # in log space next to blocks filled in the linear domain; each row is
    # its own single-row value bit for bit
    n = 3 * _BLOCK + 20
    rows = []
    for i, (beta, h) in enumerate([(1.0, 0.3), (2.0, 8.0), (0.5, -0.2), (1.0, -9.0), (1.5, 1.0)]):
        rows.append(make_instance(GAUSSIAN, beta, h, omega=_draw(GAUSSIAN, n, spawn_rng(6, i))).charge_prefix)
    jump = make_instance(BINARY, 0.8, 0.1, omega=_draw(BINARY, n, spawn_rng(6, 9))).charge_prefix
    jump[_BLOCK + 10 :] += 300.0  # one step of 300 inside the second block only
    rows.append(jump)
    prefix = np.array(rows)
    variation = np.array([
        [np.abs(np.diff(row[j0 : j0 + _BLOCK])).sum() for j0 in range(0, n + 1, _BLOCK)] for row in prefix
    ])
    steep = variation > _FILL_VARIATION
    assert steep[[1, 3], :3].all() and not steep[[0, 2, 4]].any()
    assert steep[-1].tolist() == [False, True, False, False]
    batch = _log_z_replicas(prefix, log_kernel_small)
    for i, row in enumerate(prefix):
        assert _log_z_replicas(row[None], log_kernel_small)[0] == batch[i]
        exact = log_Z(
            QuenchedInstance(omega=np.zeros(n), beta=0.0, h=0.0, lambda_beta=0.0, charge_prefix=row),
            log_kernel_small,
        )
        assert abs(batch[i] - exact) <= 1e-10 * max(1.0, abs(exact))


@pytest.mark.parametrize("h", [0.4, -0.4])
def test_log_annealed_z_matches_row_loop_at_4000(log_kernel_4000, h):
    # the engine on the zero-disorder charge row against the row-loop log_Z
    n = 4000
    exact = log_Z(make_instance(GAUSSIAN, 0.0, h, omega=np.zeros(n)), log_kernel_4000)
    got = log_annealed_Z(log_kernel_4000, n, h)
    assert abs(got - exact) <= 1e-10 * max(1.0, abs(exact))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 4 * _BLOCK),
    beta=st.floats(0.0, 2.0),
    h0=st.floats(-1.0, 1.0),
    step=st.floats(0.01, 0.5),
    law=st.sampled_from([GAUSSIAN, BINARY]),
    seed=st.integers(0, 2**32 - 1),
    replicas=st.integers(1, 3),
)
def test_replica_log_z_monotone_and_convex_in_h(log_kernel_small, n, beta, h0, step, law, seed, replicas):
    # h enters every path weight linearly, so for fixed disorder log Z is
    # non-decreasing and convex in h (tolerances of the row-loop test)
    grid = h0 + step * np.arange(6)
    values = est.replica_log_z(log_kernel_small, law, beta, grid, n, seed, replicas)
    assert values.shape == (len(grid), replicas)
    assert np.diff(values, axis=0).min() >= 0.0
    assert np.diff(values, 2, axis=0).min() >= -1e-8


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 4 * _BLOCK),
    h=st.floats(-50.0, 50.0),
    law=st.sampled_from([GAUSSIAN, BINARY]),
    seed=st.integers(0, 2**32 - 1),
    replicas=st.integers(1, 3),
)
def test_replica_log_z_at_beta_zero_is_annealed(log_kernel_small, n, h, law, seed, replicas):
    # at beta = 0 every charge is h whatever the disorder, so each replica
    # is the annealed value
    exact = log_annealed_Z(log_kernel_small, n, h)
    got = est.replica_log_z(log_kernel_small, law, 0.0, h, n, seed, replicas)
    assert got.shape == (replicas,)
    assert np.abs(got - exact).max() <= 1e-10 * max(1.0, abs(exact))


def test_engine_edge_cases_emit_no_warnings(log_kernel_small):
    # the log-space fallback (|h| = 50) and non-finite charges (NaN rows)
    # run without numpy RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h in (50.0, -50.0):
            assert np.isfinite(est.replica_log_z(log_kernel_small, GAUSSIAN, 1.0, h, 300, 2, 3)).all()
        overflow = est.replica_log_z(log_kernel_small, GAUSSIAN, 1.0, [1e308, 0.1], 100, 2, 2)
        assert np.isnan(overflow[0]).all() and np.isfinite(overflow[1]).all()
        assert math.isnan(log_annealed_Z(log_kernel_small, 100, 1e308))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 12),
    beta=st.floats(0.0, 2.0),
    h=st.floats(-50.0, 50.0),
    law=st.sampled_from([GAUSSIAN, BINARY]),
    seed=st.integers(0, 2**32 - 1),
    replicas=st.integers(1, 3),
)
def test_replica_log_z_matches_enumeration(log_kernel_small, n, beta, h, law, seed, replicas):
    got = est.replica_log_z(log_kernel_small, law, beta, h, n, seed, replicas)
    for i, value in enumerate(got):
        omega = _draw(law, n, spawn_rng(seed, i))
        exact = brute_force_log_Z(make_instance(law, beta, h, omega=omega), log_kernel_small)
        assert abs(value - exact) <= 1e-10 * max(1.0, abs(exact))


def test_default_constants_cover_exact_surpluses(log_kernel_small):
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(40, 900))
        m = int(rng.integers(40, 900))
        h = float(rng.uniform(-1.0, 1.0))
        d = (
            log_annealed_Z(log_kernel_small, n + m, h)
            - log_annealed_Z(log_kernel_small, n, h)
            - log_annealed_Z(log_kernel_small, m, h)
        )
        assert d <= est.DEFAULT_C4 * math.log(n * m / (n + m)) + est.DEFAULT_C5


def test_tilted_block_success_binary_enumeration_oracle():
    from itertools import product

    beta, rate, ell = 0.7, 0.5, 8
    p_plus = math.exp(beta) / (2 * math.cosh(beta))
    total = 0.0
    for signs in product((-1, 1), repeat=ell):
        if sum(signs) >= rate * ell:
            ups = sum(1 for s in signs if s > 0)
            total += p_plus**ups * (1 - p_plus) ** (ell - ups)
    got = est.tilted_block_success(BINARY, beta, rate, ell)
    assert got == pytest.approx(total, rel=1e-12)


def test_trimmed_plan_schedule_and_constraints():
    plan = est.trimmed_plan(2.0, GAUSSIAN, beta=0.5, h=0.3, c1=3.3, c2=1.5)
    assert (plan.k, plan.M, plan.m) == (2, 20, 8)
    assert plan.N == int(plan.M**2 * math.log(plan.M) ** 3)
    assert plan.m == int(plan.N / (plan.M**2 * math.log(plan.M)))
    with pytest.raises(ValueError, match="c1"):
        est.trimmed_plan(2.0, GAUSSIAN, beta=0.5, h=0.3, c1=2.9, c2=1.5)
    with pytest.raises(ValueError, match="c2"):
        est.trimmed_plan(2.0, GAUSSIAN, beta=2.0, h=0.3, c1=3.3, c2=1.0)


def _enumerate_trimmed_paths(kernel, plan, h):
    """All (weight, short-interval list) pairs of the alternating ensemble."""
    from itertools import product as iproduct

    lengths = []
    for _ in range(plan.m):
        lengths.append(range(plan.M, plan.M * plan.M + 1))
        lengths.append(range(1, plan.k + 1))
    paths = []
    for gaps in iproduct(*lengths):
        pos, weight, shorts = 0, 1.0, []
        for g, ell in enumerate(gaps, start=1):
            weight *= kernel.mass(ell)
            if g % 2 == 0:
                weight *= math.exp(h * ell)
                shorts.append((pos, pos + ell))
            pos += ell
        final = plan.N - pos
        if final < 1:
            continue
        weight *= kernel.mass(final)
        paths.append((weight, shorts))
    return paths


@pytest.mark.parametrize("law", [GAUSSIAN, BINARY], ids=["gaussian", "binary"])
def test_trimmed_identity_against_exhaustive_enumeration(log_kernel_small, law):
    # tiny plan: enumerate every path pair, integrate the disorder per site
    # (factor e^{q2} on doubly-covered sites), and pin both estimators
    from copolab.partition import Trimmed, _trimmed_log_z_replicas

    plan = est.TrimmedPlan(k=2, M=3, N=40, m=2, c1=3.3, c2=1.5, beta=0.7, h=0.25)
    h, q2v = plan.h, q2(law, plan.beta)
    paths = _enumerate_trimmed_paths(log_kernel_small, plan, h)
    total = math.fsum(w for w, _ in paths)

    # restricted mean: enumeration vs the convolution DP (sign factors 2^-5)
    mean_prefix = make_instance(law, 0.0, h, omega=np.zeros(plan.N)).charge_prefix
    exact_mean = _trimmed_log_z_replicas(
        [mean_prefix], log_kernel_small, Trimmed(M=3, k=2, m=2), plan.N
    )[0]
    assert exact_mean == pytest.approx(math.log(total) + 5 * math.log(0.5), rel=1e-12)

    ratio_exact = (
        math.fsum(
            w1 * w2 * math.exp(q2v * est._interval_overlap(s1, s2))
            for w1, s1 in paths
            for w2, s2 in paths
        )
        / total**2
    )
    report = est.trimmed_moment_check(
        log_kernel_small, law, plan.beta, h, plan, replicas=4000, seed=31
    )
    assert report["identity_lhs_mean"] == pytest.approx(
        ratio_exact, abs=4 * report["identity_lhs_sigma"]
    )
    assert report["identity_rhs_mean"] == pytest.approx(
        ratio_exact, abs=4 * report["identity_rhs_sigma"]
    )


def test_trimmed_moment_identity_small_replicas(moment_kernel):
    plan = est.trimmed_plan(2.0, GAUSSIAN, beta=0.5, h=0.3, c1=3.3, c2=1.5)
    report = est.trimmed_moment_check(
        moment_kernel, GAUSSIAN, 0.5, 0.3, plan, replicas=2500, seed=8
    )
    assert report["first_moment_ok"]
    assert report["exact_log_mean_restricted"] > report["product_lower_bound_log"]
    assert report["identity_ok"]


def test_trimmed_moment_beta_zero_ratio_is_one(moment_kernel):
    plan = est.trimmed_plan(2.0, GAUSSIAN, beta=0.0, h=0.3, c1=3.3, c2=1.5)
    report = est.trimmed_moment_check(
        moment_kernel, GAUSSIAN, 0.0, 0.3, plan, replicas=200, seed=2
    )
    assert report["identity_rhs_mean"] == 1.0
    assert report["identity_rhs_sigma"] == 0.0
    assert report["identity_lhs_mean"] == pytest.approx(1.0, abs=1e-9)


def _scalar_short_intervals(stages, long_w, short_w, plan, rng):
    # reference: one path at a time, one scalar draw per stage
    big_m, m = plan.M, plan.m
    x = 0
    shorts = []
    for g in range(1, 2 * m + 1):
        w, start = (long_w, big_m) if g % 2 == 1 else (short_w, 1)
        probs = w * stages[g][x + start : x + start + len(w)]
        total = probs.sum()
        cdf = np.cumsum(probs)
        draw = rng.random() * total
        j = min(int(np.searchsorted(cdf, draw, side="right")), len(w) - 1)
        ell = start + j
        if g % 2 == 0:
            shorts.append((x, x + ell))
        x += ell
    return shorts


def _scalar_overlap(first, second):
    total = 0
    for a1, b1 in first:
        for a2, b2 in second:
            if a2 >= b1:
                break
            lo, hi = max(a1, a2), min(b1, b2)
            if hi > lo:
                total += hi - lo
    return total


@pytest.mark.parametrize(
    "law,beta,c1,c2,replicas",
    [(GAUSSIAN, 0.5, 3.3, 1.0, 100), (BINARY, 0.8, 3.3, 1.2, 150), (GAUSSIAN, 0.3, 5.0, 1.0, 133)],
)
def test_trimmed_rhs_matches_scalar_sampler_bit_for_bit(big_kernels, law, beta, c1, c2, replicas):
    # the vectorized sampler draws the same paths from the same stream as
    # sampling one path at a time, so the RHS mean and sigma are unchanged
    kernel, seed = big_kernels["log"], 17
    plan = est.trimmed_plan(2.0, law, beta, 0.3, c1, c2)
    stages, long_w, short_w, _, _ = est._independent_jump_backward(kernel, plan)
    rng = spawn_rng(seed, 1_000_000)
    q2v = q2(law, beta)
    vals = np.empty(replicas)
    for i in range(replicas):
        first = _scalar_short_intervals(stages, long_w, short_w, plan, rng)
        second = _scalar_short_intervals(stages, long_w, short_w, plan, rng)
        vals[i] = math.exp(q2v * _scalar_overlap(first, second))
    report = est.trimmed_moment_check(kernel, law, beta, 0.3, plan, replicas=replicas, seed=seed)
    assert report["identity_rhs_mean"] == float(vals.mean())
    assert report["identity_rhs_sigma"] == float(vals.std(ddof=1) / math.sqrt(replicas))


def test_trimmed_moment_check_working_set_does_not_grow_with_replicas(big_kernels):
    # replicas are drawn and evaluated one engine group at a time, so the
    # traced peak at the largest benchmark plan (M = 24) is flat in R
    import tracemalloc

    plan = est.trimmed_plan(2.0, GAUSSIAN, 0.5, 0.3, 3.3, 1.6)
    assert plan.M == 24
    peaks = []
    for replicas in (100, 400):
        tracemalloc.start()
        try:
            est.trimmed_moment_check(big_kernels["log"], GAUSSIAN, 0.5, 0.3, plan, replicas, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 256 * 1024
    assert max(peaks) < 4 * 1024 * 1024


def test_penalization_plan_and_final_bound_paths(big_kernels):
    kernel = big_kernels["log"]
    law, beta, h = GAUSSIAN, 1.0, 0.0125
    plan = est.penalization_plan(kernel, law, beta, h, b=0.9)
    assert plan.k == int(plan.phi / h)
    assert plan.event_threshold == pytest.approx(0.9 * 1.0)
    report = est.penalization_check(kernel, law, beta, h, plan)
    # closed form must be the bounds-module value, same code path
    assert report["log_bound_closed_form"] == log_upper_general(
        kernel.family, law, beta, h, 0.9
    )
    # rate form carries the rate at the b-shifted mean; never sharper
    expected_rate_form = -rate_function(law, 0.9 * 1.0).sigma * plan.phi / h
    assert report["log_bound_rate_form"] == pytest.approx(expected_rate_form, rel=1e-12)
    assert report["rate_form_dominates"]


def test_penalization_defect_sign_consistency(big_kernels):
    # wherever the sufficient condition holds, the mass excess is nonpositive
    for kernel in big_kernels.values():
        for j in range(7):
            h = 0.1 * 2.0**-j
            plan = est.penalization_plan(kernel, GAUSSIAN, 1.0, h)
            report = est.penalization_check(kernel, GAUSSIAN, 1.0, h, plan)
            if report["linf_holds"]:
                assert report["defect_nonpositive"]


def test_penalization_rate_continuity_toward_full_tilt(big_kernels):
    # as b -> 1 the Chernoff rate approaches q1
    kernel = big_kernels["log"]
    law, beta, h = GAUSSIAN, 1.2, 0.0125
    rates = []
    for b in (0.9, 0.99, 0.999):
        plan = est.penalization_plan(kernel, law, beta, h, b=b)
        rates.append(est.penalization_check(kernel, law, beta, h, plan)["chernoff_rate"])
    target = q1(law, beta)
    gaps = [abs(r - target) for r in rates]
    assert gaps[2] < gaps[1] < gaps[0]
    # the gap closes like 2(1-b) q1
    assert gaps[2] < 5e-3 * target


def test_penalization_tilted_success_grows_with_window(big_kernels):
    kernel = big_kernels["log"]
    probs = []
    for h in (0.1, 0.0125, 0.0015625):
        plan = est.penalization_plan(kernel, GAUSSIAN, 1.0, h)
        probs.append(
            est.penalization_check(kernel, GAUSSIAN, 1.0, h, plan)[
                "tilted_success_probability"
            ]
        )
    assert probs[0] < probs[1] < probs[2]
    assert probs[2] > 0.99


def test_coarse_graining_report_fields(big_kernels):
    kernel = big_kernels["log"]
    c3 = 0.45
    h = c3 / math.log(800.0)
    report = est.coarse_graining_check(
        kernel, GAUSSIAN, 1.0, h, c3, replicas=60, seed=4, green_n_max=4000
    )
    assert report["feasible"]
    assert report["n_window"] == 799 or report["n_window"] == 800
    assert 0.0 < report["theta"] < 1.0
    assert math.isfinite(report["a_term"]) and math.isfinite(report["b_term"])
    assert math.isfinite(report["a_term_analytic_integral"])
    assert report["green_constant_full_range"] >= report["green_constant_half_range"]
    assert len(report["fractional_moment_spot"]) >= 3


def test_coarse_graining_infeasible_report(big_kernels):
    kernel = big_kernels["log"]
    report = est.coarse_graining_check(kernel, GAUSSIAN, 1.0, h=0.01, c3=0.45)
    assert report["feasible"] is False
    assert report["required_log_n"] == pytest.approx(45.0)


def test_coarse_graining_supercritical_tilt_is_infeasible(big_kernels):
    c3 = 0.9 * q1(GAUSSIAN, 1.0)
    with np.errstate(over="ignore"):
        report = est.coarse_graining_check(big_kernels["log"], GAUSSIAN, 1.0, h=0.08, c3=c3)
    assert report["feasible"] is False
    assert "renewal mass left the float range" in report["note"]


def test_coarse_graining_rejects_c3_above_rate(big_kernels):
    with pytest.raises(ValueError, match="c3"):
        est.coarse_graining_check(big_kernels["log"], GAUSSIAN, 1.0, h=0.05, c3=0.6)


def test_verifier_reports_are_deterministic(moment_kernel):
    import json

    plan = est.trimmed_plan(2.0, GAUSSIAN, beta=0.5, h=0.3, c1=3.3, c2=1.5)
    reports = [
        est.trimmed_moment_check(moment_kernel, GAUSSIAN, 0.5, 0.3, plan, replicas=150, seed=6)
        for _ in range(2)
    ]
    assert json.dumps(reports[0], sort_keys=True) == json.dumps(reports[1], sort_keys=True)
