import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from copolab.disorder import BINARY, GAUSSIAN, _draw, log_mgf, replica_rngs, spawn_rng
from copolab.estimators import replica_log_z, trimmed_plan
from copolab.kernel import renewal_mass
from copolab import partition
from copolab.partition import (
    _BLOCK,
    _GEMM_REPLICAS,
    Trimmed,
    _log_z_replicas,
    _toeplitz_view,
    _trimmed_log_z_replicas,
    _trimmed_pass,
    _trimmed_size,
    brute_force_log_Z,
    charge_prefix,
    log_Z,
    log_Z_restricted,
    log_annealed_Z,
)


def _trimmed_log_mean(kernel, plan, h):
    # the disorder mean: the engine on the zero-disorder charges h per site
    prefix = charge_prefix(GAUSSIAN, 0.0, h, np.zeros(plan.N))
    return float(_trimmed_log_z_replicas(prefix[None], kernel, plan)[0])


def test_toeplitz_view_is_a_read_only_view_of_its_taps(log_kernel_small):
    # V[r, c] = taps[r - c + width - 1], as sliding_window_view reads it;
    # the engines build it over kernel.masses, which it must not let them write
    taps = log_kernel_small.masses[1:]
    for width in (1, 2, 64, len(taps)):
        view = _toeplitz_view(taps, width)
        np.testing.assert_array_equal(view, np.lib.stride_tricks.sliding_window_view(taps, width)[:, ::-1])
        assert np.shares_memory(view, taps)
        assert not view.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            view[0, 0] = 0.0


def test_log_z_single_site(log_kernel_small):
    prefix = charge_prefix(GAUSSIAN, 1.0, 0.2, _draw(GAUSSIAN, 1, [np.random.default_rng(4)])[0])
    expected = math.log(log_kernel_small.masses[1]) + math.log(
        0.5 * (1.0 + math.exp(prefix[1]))
    )
    assert log_Z(prefix, log_kernel_small) == pytest.approx(expected, rel=1e-14)


def test_log_z_free_disorder_reduces_to_renewal_mass(log_kernel_small):
    # beta = 0, h = 0 wipes every weight, leaving the renewal probability
    u = renewal_mass(log_kernel_small.masses, 40)
    for seed in (1, 2):
        prefix = charge_prefix(GAUSSIAN, 0.0, 0.0, _draw(GAUSSIAN, 40, [np.random.default_rng(seed)])[0])
        assert log_Z(prefix, log_kernel_small) == pytest.approx(
            math.log(u[40]), rel=1e-12
        )


def test_brute_force_two_site_expansion(log_kernel_small):
    s = charge_prefix(BINARY, 0.7, -0.1, _draw(BINARY, 2, [np.random.default_rng(9)])[0])
    k1, k2 = log_kernel_small.masses[1], log_kernel_small.masses[2]
    direct = k2 * 0.5 * (1 + math.exp(s[2])) + k1**2 * 0.25 * (1 + math.exp(s[1])) * (
        1 + math.exp(s[2] - s[1])
    )
    assert brute_force_log_Z(s, log_kernel_small) == pytest.approx(
        math.log(direct), rel=1e-14
    )


def test_brute_force_refuses_large_n(log_kernel_small):
    prefix = charge_prefix(GAUSSIAN, 1.0, 0.0, _draw(GAUSSIAN, 21, [np.random.default_rng(0)])[0])
    with pytest.raises(ValueError):
        brute_force_log_Z(prefix, log_kernel_small)
    # N = 11 is within the enumeration limit but past a support of 10
    short = dataclasses.replace(log_kernel_small, support_cap=10, masses=log_kernel_small.masses[:11])
    with pytest.raises(ValueError, match="kernel support 10 < N = 11"):
        brute_force_log_Z(prefix[:12], short)


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda kernel: _trimmed_size(kernel, Trimmed(1, 2, 3, 100)), "need M >= 2"),
        (lambda kernel: _trimmed_size(kernel, Trimmed(50, 1, 1, 100)), "plan exceeds the kernel support"),
        (lambda kernel: log_annealed_Z(kernel, 0, 0.1), "need n >= 1"),
        (lambda kernel: log_annealed_Z(kernel, kernel.support_cap + 1, 0.1), "kernel support"),
    ],
    ids=["trimmed-M", "trimmed-support", "annealed-n", "annealed-support"],
)
def test_partition_refuses_plans_and_sizes_outside_its_domain(log_kernel_small, call, match):
    with pytest.raises(ValueError, match=match):
        call(log_kernel_small)


def test_dp_matches_brute_force_pinned_instance(log_kernel_small):
    prefix = charge_prefix(GAUSSIAN, 1.0, 0.3, _draw(GAUSSIAN, 12, [np.random.default_rng(7)])[0])
    exact = log_Z(prefix, log_kernel_small)
    brute = brute_force_log_Z(prefix, log_kernel_small)
    assert abs(exact - brute) <= 1e-10 * max(1.0, abs(exact))


def test_brute_force_free_disorder_is_renewal_mass(log_kernel_small):
    u = renewal_mass(log_kernel_small.masses, 3)
    prefix = charge_prefix(BINARY, 0.0, 0.0, _draw(BINARY, 3, [np.random.default_rng(1)])[0])
    assert brute_force_log_Z(prefix, log_kernel_small) == pytest.approx(
        math.log(u[3]), rel=1e-14
    )


def test_dp_matches_brute_force_random_instances(log_kernel_small):
    rng = np.random.default_rng(20260810)
    for i in range(60):
        law = GAUSSIAN if i % 2 == 0 else BINARY
        beta = float(rng.uniform(0.0, 2.0))
        h = float(rng.uniform(-1.0, 1.0))
        n = int(rng.integers(1, 15))
        omega = _draw(law, n, [np.random.default_rng(int(rng.integers(0, 2**63)))])[0]
        prefix = charge_prefix(law, beta, h, omega)
        exact = log_Z(prefix, log_kernel_small)
        brute = brute_force_log_Z(prefix, log_kernel_small)
        assert abs(exact - brute) <= 1e-10 * max(1.0, abs(exact))


def test_floor_bound_single_excursion(log_kernel_small):
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        omega = _draw(GAUSSIAN, n, [np.random.default_rng(int(rng.integers(0, 2**32)))])[0]
        floor = math.log(log_kernel_small.masses[n]) - math.log(2.0)
        assert log_Z(charge_prefix(GAUSSIAN, 1.5, -0.6, omega), log_kernel_small) >= floor


def test_charge_prefix_increments():
    omega = _draw(GAUSSIAN, 200, [np.random.default_rng(8)])[0]
    prefix = charge_prefix(GAUSSIAN, 1.2, 0.3, omega)
    inc = np.diff(prefix)
    expected = 1.2 * omega - log_mgf(GAUSSIAN, 1.2) + 0.3
    np.testing.assert_allclose(inc, expected, atol=1e-12)
    assert prefix[0] == 0.0


def test_convexity_and_monotonicity_in_h(log_kernel_small):
    rng = np.random.default_rng(44)
    grid = np.linspace(-0.5, 0.5, 11)
    for _ in range(10):
        n = 40
        beta = float(rng.uniform(0.0, 2.0))
        omega = rng.standard_normal(n)
        vals = []
        for h in grid:
            vals.append(log_Z(charge_prefix(GAUSSIAN, beta, float(h), omega), log_kernel_small))
        vals = np.array(vals)
        assert np.diff(vals).min() >= 0.0
        assert np.diff(vals, 2).min() >= -1e-8


def test_beta_zero_reduces_to_annealed(log_kernel_small):
    for h in (-0.4, 0.0, 0.7):
        exact = log_annealed_Z(log_kernel_small, 35, h)
        for seed in (5, 6):
            prefix = charge_prefix(BINARY, 0.0, h, _draw(BINARY, 35, [np.random.default_rng(seed)])[0])
            assert log_Z(prefix, log_kernel_small) == pytest.approx(exact, rel=1e-12)


def test_annealed_h_zero_is_renewal_mass(log_kernel_small):
    u = renewal_mass(log_kernel_small.masses, 120)
    assert log_annealed_Z(log_kernel_small, 120, 0.0) == pytest.approx(
        math.log(u[120]), rel=1e-12
    )


def test_annealed_brute_force_oracle(log_kernel_small):
    # enumerate every renewal subset for a small system
    n, h = 9, 0.37
    total = 0.0
    for mask in range(1 << (n - 1)):
        pts = [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        w, prev = 1.0, 0
        for p in pts:
            w *= log_kernel_small.masses[p - prev] * 0.5 * (1 + math.exp(h * (p - prev)))
            prev = p
        total += w
    assert log_annealed_Z(log_kernel_small, n, h) == pytest.approx(
        math.log(total), rel=1e-12
    )


def test_annealed_localized_window(log_kernel_4000):
    value = log_annealed_Z(log_kernel_4000, 4000, 0.5) / 4000
    assert 0.5 - 20 * math.log(4000) / 4000 <= value <= 0.5


def test_annealed_delocalized_window(log_kernel_4000):
    value = log_annealed_Z(log_kernel_4000, 4000, -0.2)
    floor = math.log(log_kernel_4000.masses[4000] / 2)
    assert floor <= value <= 0.0
    assert 2 * floor / 4000 <= value / 4000 <= 0.0


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129])
def test_annealed_matches_row_loop_at_mass_block_edges(log_kernel_small, n):
    # the tilted renewal mass against the row loop on zero-disorder charges,
    # at the edges of the 64-site blocks of the mass solve, for both signs of h
    for h in (-40.0, -5.0, -0.3, 0.3, 5.0, 40.0):
        exact = log_Z(charge_prefix(GAUSSIAN, 0.0, h, np.zeros(n)), log_kernel_small)
        got = log_annealed_Z(log_kernel_small, n, h)
        assert abs(got - exact) <= 1e-10 * max(1.0, abs(exact))


def test_annealed_at_huge_negative_h_is_the_halved_law(log_kernel_small):
    # e^{hl} underflows to 0 for every l >= 1, leaving the law K/2
    expected = math.log(renewal_mass(log_kernel_small.masses / 2, 100)[100])
    assert log_annealed_Z(log_kernel_small, 100, -1e308) == expected


def test_annealed_grid_equals_one_field_calls(log_kernel_small):
    grid = np.array([[0.7, -0.2], [0.0, 5.0], [-40.0, 1e308]])
    got = log_annealed_Z(log_kernel_small, 150, grid)
    assert got.shape == grid.shape
    want = [log_annealed_Z(log_kernel_small, 150, h) for h in grid.ravel().tolist()]
    np.testing.assert_array_equal(got.ravel(), want)


def test_restricted_below_unrestricted(log_kernel_small):
    rng = np.random.default_rng(10)
    for _ in range(10):
        omega = _draw(GAUSSIAN, 60, [np.random.default_rng(int(rng.integers(0, 2**32)))])[0]
        prefix = charge_prefix(GAUSSIAN, 1.0, 0.4, omega)
        free = log_Z(prefix, log_kernel_small)
        trim = log_Z_restricted(prefix, log_kernel_small, Trimmed(M=3, k=2, m=2, N=60))
        assert trim <= free + 1e-12


def test_trimmed_hand_checkable_small_plan(log_kernel_small):
    # m=1, k=1: direct sum over tau_1 in [M, M^2], tau_2 = tau_1 + 1
    big_m, n = 3, 60
    s = charge_prefix(GAUSSIAN, 0.9, 0.25, _draw(GAUSSIAN, n, [np.random.default_rng(21)])[0])
    total = 0.0
    for tau1 in range(big_m, big_m * big_m + 1):
        w = log_kernel_small.masses[tau1] * 0.5
        w *= log_kernel_small.masses[1] * 0.5 * math.exp(s[tau1 + 1] - s[tau1])
        w *= log_kernel_small.masses[n - tau1 - 1] * 0.5
        total += w
    got = log_Z_restricted(s, log_kernel_small, Trimmed(M=big_m, k=1, m=1, N=n))
    assert got == pytest.approx(math.log(total), rel=1e-10)


def test_trimmed_infeasible_returns_neg_inf(log_kernel_small):
    prefix = charge_prefix(GAUSSIAN, 1.0, 0.0, _draw(GAUSSIAN, 10, [np.random.default_rng(2)])[0])
    got = log_Z_restricted(prefix, log_kernel_small, Trimmed(M=6, k=1, m=2, N=10))
    assert got == -math.inf


def test_trimmed_engine_gives_neg_inf_on_an_empty_plan(log_kernel_small):
    # N = 10 lies below the shortest path, m(M + 1) + 1 = 15 sites, so the
    # plan reads no site: every row gives -inf, as in the row loop, and so
    # does a row holding a non-finite charge
    plan = Trimmed(M=6, k=1, m=2, N=10)
    prefix = _trimmed_prefixes(GAUSSIAN, 1.0, 0.0, plan.N, 2, 6)
    prefix[1, 4], prefix[2, 7:], prefix[4, -1] = np.nan, np.inf, -np.inf
    assert np.all(np.isneginf(_trimmed_log_z_replicas(prefix, log_kernel_small, plan)))
    assert all(log_Z_restricted(row, log_kernel_small, plan) == -math.inf for row in prefix)


def test_trimmed_log_mean_matches_brute(log_kernel_small):
    # disorder-free restricted mean against direct enumeration (m=1, k=2)
    big_m, k, n, h = 3, 2, 50, 0.3
    total = 0.0
    for tau1 in range(big_m, big_m * big_m + 1):
        for gap in range(1, k + 1):
            if tau1 + gap >= n:
                continue
            w = log_kernel_small.masses[tau1] * 0.5
            w *= log_kernel_small.masses[gap] * 0.5 * math.exp(h * gap)
            w *= log_kernel_small.masses[n - tau1 - gap] * 0.5
            total += w
    got = _trimmed_log_mean(log_kernel_small, Trimmed(M=big_m, k=k, m=1, N=n), h)
    assert got == pytest.approx(math.log(total), rel=1e-10)


def test_trimmed_mean_is_disorder_average(log_kernel_small):
    # MC average of the quenched restricted value converges to the exact mean
    plan, beta, h = Trimmed(M=4, k=2, m=2, N=80), 0.6, 0.2
    exact = _trimmed_log_mean(log_kernel_small, plan, h)
    vals = []
    for i in range(4000):
        rng = spawn_rng(99, i)
        omega = rng.standard_normal(plan.N)
        prefix = charge_prefix(GAUSSIAN, beta, h, omega)
        vals.append(math.exp(log_Z_restricted(prefix, log_kernel_small, plan)))
    mean = float(np.mean(vals))
    sem = float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
    assert abs(mean - math.exp(exact)) <= 4 * sem


def _fractional_moment(kernel, theta, beta, h, n, seed, replicas):
    # mean and standard error of Z^theta over Gaussian replicas
    vals = np.exp(theta * replica_log_z(kernel, GAUSSIAN, beta, h, n, seed, replicas))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(replicas))


def test_fractional_moment_theta_one_matches_annealed(log_kernel_small):
    # weak disorder and a short system keep the first-moment estimator
    # well conditioned; at large beta the mean is dominated by rare draws
    n, beta, h = 15, 0.3, 0.2
    exact = math.exp(log_annealed_Z(log_kernel_small, n, h))
    mean, stderr = _fractional_moment(log_kernel_small, 1.0, beta, h, n, 7, 4000)
    assert abs(mean - exact) <= 4 * stderr


def test_fractional_moment_theta_zero_is_one(log_kernel_small):
    mean, stderr = _fractional_moment(log_kernel_small, 0.0, 1.0, 0.5, 20, 8, 200)
    assert mean == 1.0 and stderr == 0.0


def test_fractional_moment_jensen_direction(log_kernel_small):
    # E[Z^theta] <= (E Z)^theta for theta < 1, against the exact mean
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(15, 35))
        beta = float(rng.uniform(0.2, 1.5))
        h = float(rng.uniform(-0.5, 0.5))
        theta = float(rng.uniform(0.2, 0.9))
        annealed = log_annealed_Z(log_kernel_small, n, h)
        mean, stderr = _fractional_moment(log_kernel_small, theta, beta, h, n, 23, 400)
        assert mean <= math.exp(theta * annealed) + 3 * stderr


def test_superadditivity_of_mean_log_z(log_kernel_small):
    beta, h, reps = 1.0, 0.2, 48

    def mean_log(n):
        vals = [
            log_Z(
                charge_prefix(GAUSSIAN, beta, h, spawn_rng(31 + n, i).standard_normal(n)),
                log_kernel_small,
            )
            for i in range(reps)
        ]
        return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(reps))

    m_nm, s_nm = mean_log(160)
    m_n, s_n = mean_log(80)
    m_m, s_m = mean_log(80)
    assert m_nm >= m_n + m_m - 3 * (s_nm + s_n + s_m)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(2, 4 * _BLOCK),
    cut=st.floats(0.0, 1.0),
    beta=st.floats(0.0, 6.0),
    h=st.floats(-2.0, 2.0),
    law=st.sampled_from([GAUSSIAN, BINARY]),
    seed=st.integers(0, 2**32 - 1),
    replicas=st.integers(1, 3),
)
def test_engine_keeps_the_exact_identities(log_kernel_small, n, cut, beta, h, law, seed, replicas):
    # identities exact for every charge row, N and kernel, each read off the
    # engine alone; beta up to 6 makes steep rows, filled in the log domain.
    # Sign flip: an excursion's factor (1 + e^{-dS})/2 is e^{-dS} (1 + e^{dS})/2,
    # so log Z(S) - log Z(-S) = S_N.  Reversal: the excursions read backwards,
    # S^rev_m = S_N - S_{N-m}, carry the same charges, so Z(S^rev) = Z(S).
    # Superadditivity: the paths with a renewal at m weigh Z_m(S) Z_{N-m}(theta_m S),
    # with (theta_m S)_j = S_{m+j} - S_m
    prefix = _trimmed_prefixes(law, beta, h, n, seed, replicas)
    _assert_engine_identities(prefix, log_kernel_small, 1 + int(cut * (n - 2)))


@pytest.mark.parametrize("law", [GAUSSIAN, BINARY], ids=["gaussian", "binary"])
def test_engine_keeps_the_exact_identities_at_20000(big_kernels, monkeypatch, law):
    # the identities where the row loop costs seconds per replica: 4 rows at
    # N = 20 000, their flips and reversals in one pass under the default
    # budget and one group per pass under a one-group budget
    n = 20_000
    prefix = _trimmed_prefixes(law, 1.0, 0.1, n, 20, 4)
    for budget in (partition._PASS_BYTES, 1):
        monkeypatch.setattr(partition, "_PASS_BYTES", budget)
        _assert_engine_identities(prefix, big_kernels["log"], 7_001)


def _assert_engine_identities(prefix, kernel, m):
    # sign flip, reversal and superadditivity at the renewal point m of the
    # charge rows ``prefix``, each read off the engine alone
    last = prefix[:, -1]
    rows = np.concatenate([prefix, -prefix, last[:, None] - prefix[:, ::-1]])
    z, flipped, reversed_ = _log_z_replicas(rows, kernel).reshape(3, len(prefix))
    scale = np.maximum(1.0, np.abs(z))
    assert np.all(np.abs(z - flipped - last) <= 1e-12 * np.maximum(1.0, np.abs(last) + np.abs(z)))
    assert np.all(np.abs(z - reversed_) <= 1e-12 * scale)
    head = _log_z_replicas(prefix[:, : m + 1], kernel)
    tail = _log_z_replicas(prefix[:, m:] - prefix[:, m : m + 1], kernel)
    assert np.all(z >= head + tail - 1e-12 * scale)


@pytest.mark.parametrize("law", [GAUSSIAN, BINARY], ids=["gaussian", "binary"])
@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("h", [0.1, 0.4, -0.3, "2lambda"])
def test_mirror_field_negates_the_charge_rows(log_kernel_small, law, beta, h):
    # for a symmetric law the sites of (-omega, 2 lambda - h) are those of
    # (omega, h) negated, so the flip identity gives log Z(omega, h) -
    # log Z(-omega, 2 lambda - h) = S_N: a check of the lambda convention of
    # the whole charge pipeline, which the engine-level flip test takes as given
    lam = log_mgf(law, beta)
    h = 2.0 * lam if h == "2lambda" else h
    mirror, eps = 2.0 * lam - h, np.finfo(float).eps
    for n in (1, 63, 64, 65, 500, 2000):
        omega = _draw(law, n, replica_rngs(37, range(4)))
        s, s_mirror = charge_prefix(law, beta, h, omega), charge_prefix(law, beta, mirror, -omega)
        # rounding: at most 8u (beta |omega| + lambda + |h| + |2 lambda - h|) in a
        # site's two terms, three operations each plus the mirror field's own, and
        # u |S_j| in each partial sum of either cumsum, doubled here (eps = 2u)
        site = beta * np.abs(omega) + lam + abs(h) + abs(mirror)
        partial = np.abs(s[:, 1:]) + np.abs(s_mirror[:, 1:])
        bound = eps * np.cumsum(partial + 4.0 * site, axis=1)
        assert np.all(np.abs(s_mirror[:, 1:] + s[:, 1:]) <= bound)
        z, z_mirror = _log_z_replicas(np.concatenate([s, s_mirror]), log_kernel_small).reshape(2, 4)
        last = s[:, -1]
        assert np.all(np.abs(z - z_mirror - last) <= 1e-12 * np.maximum(1.0, np.abs(last) + np.abs(z)))


def _trimmed_prefixes(law, beta, h, n, seed, rows):
    return np.array([
        charge_prefix(law, beta, h, _draw(law, n, [spawn_rng(seed, i)])[0]) for i in range(rows)
    ])


def _assert_trimmed_values_match(got, ref):
    np.testing.assert_array_equal(np.isneginf(got), np.isneginf(ref))
    finite = np.isfinite(ref)
    assert np.all(np.abs(got[finite] - ref[finite]) <= 1e-10 * np.maximum(1.0, np.abs(ref[finite])))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    big_m=st.integers(2, 6),
    k=st.integers(1, 3),
    m=st.integers(1, 4),
    where=st.sampled_from(["infeasible", "clipped", "free"]),
    fraction=st.floats(0.0, 1.0),
    beta=st.floats(0.0, 2.0),
    h=st.floats(-2.0, 2.0),
    law=st.sampled_from([GAUSSIAN, BINARY]),
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 10),
)
def test_trimmed_engine_matches_row_loop(
    log_kernel_small, big_m, k, m, where, fraction, beta, h, law, seed, rows
):
    # N below the shortest path (-inf on both sides), inside the reach clip
    # reach = N - 1, or past the farthest position m(M^2 + k)
    shortest, farthest = m * (big_m + 1) + 1, m * (big_m * big_m + k)
    low, high = {
        "infeasible": (1, shortest - 1),
        "clipped": (shortest, farthest),
        "free": (farthest + 1, farthest + 40),
    }[where]
    n = low + int(fraction * (high - low))
    plan = Trimmed(M=big_m, k=k, m=m, N=n)
    prefix = _trimmed_prefixes(law, beta, h, n, seed, rows)
    got = _trimmed_log_z_replicas(prefix, log_kernel_small, plan)
    ref = np.array([log_Z_restricted(row, log_kernel_small, plan) for row in prefix])
    _assert_trimmed_values_match(got, ref)
    if where == "infeasible":
        assert np.all(np.isneginf(ref))


@pytest.mark.parametrize("law", [GAUSSIAN, BINARY], ids=["gaussian", "binary"])
def test_trimmed_engine_matches_row_loop_on_benchmark_plans(big_kernels, law):
    # every (c1, c2) x beta plan of the moments_check benchmark, 8 replicas
    # drawn as trimmed_moment_check draws them
    kernel = big_kernels["log"]
    for c1, c2 in ((3.3, 1.0), (3.3, 1.2), (3.3, 1.4), (3.3, 1.6), (5.0, 1.0)):
        for beta in (0.3, 0.5, 0.8):
            plan = trimmed_plan(2.0, law, beta, 0.3, c1, c2)
            span = min(plan.m * (plan.M * plan.M + plan.k), plan.N - 1)
            prefix = _trimmed_prefixes(law, beta, 0.3, span, 11, 8)
            got = _trimmed_log_z_replicas(prefix, kernel, plan)
            ref = np.array([log_Z_restricted(row, kernel, plan) for row in prefix])
            assert np.all(np.isfinite(ref))
            _assert_trimmed_values_match(got, ref)


def test_engine_gemm_operands_start_on_a_cache_line(log_kernel_small, big_kernels, monkeypatch):
    # every 2-D right-hand GEMM operand of 4 096 elements or more, the
    # quenched push columns and the trimmed Toeplitz rows at the M = 16 and
    # M = 24 benchmark plans, starts on a 64-byte line: off a line the long
    # stage runs slower, so its speed would follow the allocator
    matmul, offsets = np.matmul, []

    def spy(a, b, **kwargs):
        if np.ndim(b) == 2 and np.size(b) >= 4096:
            offsets[-1].append(b.ctypes.data % 64)
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(partition.np, "matmul", spy)
    for n in (200, 2000):
        offsets.append([])
        _log_z_replicas(_trimmed_prefixes(GAUSSIAN, 1.0, 0.3, n, 7, 8), log_kernel_small)
    for c2, big_m in ((1.4, 16), (1.6, 24)):
        plan = trimmed_plan(2.0, GAUSSIAN, 0.5, 0.3, 3.3, c2)
        assert plan.M == big_m
        offsets.append([])
        _trimmed_log_z_replicas(_trimmed_prefixes(GAUSSIAN, 0.5, 0.3, plan.N, 8, 8), big_kernels["log"], plan)
    assert all(offsets) and {offset for call in offsets for offset in call} == {0}


def test_trimmed_engine_values_do_not_depend_on_replica_count(log_kernel_small):
    # bit-equal whatever the number of rows and their neighbours: every
    # GEMM takes a zero-padded group of the same width, and R = 1..9, 17
    # and 100 leave the last group of the one pass part-filled or fill it
    plan = Trimmed(M=7, k=2, m=3, N=180)
    prefix = _trimmed_prefixes(BINARY, 0.8, 0.3, plan.N, 5, 26 * _GEMM_REPLICAS)
    full = _trimmed_log_z_replicas(prefix, log_kernel_small, plan)
    assert _trimmed_pass(plan, _trimmed_size(log_kernel_small, plan))[2] >= len(prefix)
    for count in (*range(1, 10), 17, 100):
        few = _trimmed_log_z_replicas(prefix[:count], log_kernel_small, plan)
        np.testing.assert_array_equal(full[:count], few)


@pytest.mark.parametrize("family", ["sub", "log", "super"])
def test_trimmed_engine_matches_row_loop_at_chunk_edges_of_the_support(big_kernels, family):
    # a long-stage chunk at t0 reads the sources t0 - M^2 .. t0 + 31 - M,
    # zeros wherever they leave the support [s_lo, s_hi] of the previous
    # stage.  At the last stage of (9, 3, 4, N) the chunk at 199 (167 with
    # 64-target chunks) ends one site past s_hi = N - 1 (N = 221), on it
    # (222) and one site inside it (223); at N = 4300 a window starts on
    # s_lo (M = 64, M(M - 1) a multiple of 32 and 64) or two sites before it
    # (M = 63)
    kernel = big_kernels[family]
    plans = [Trimmed(9, 3, 4, n) for n in (221, 222, 223)]
    plans += [Trimmed(64, 1, 3, 4300), Trimmed(63, 1, 3, 4300)]
    for law in (GAUSSIAN, BINARY):
        for plan in plans:
            prefix = _trimmed_prefixes(law, 0.9, 0.2, plan.N, 4, 2)
            got = _trimmed_log_z_replicas(prefix, kernel, plan)
            ref = np.array([log_Z_restricted(row, kernel, plan) for row in prefix])
            assert np.isfinite(ref).all()
            _assert_trimmed_values_match(got, ref)


@pytest.mark.parametrize("charge", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_oracle_and_engine_agree_on_a_non_finite_charge(log_kernel_small, charge):
    # a non-finite omega at site 5 of an N = 50 row: oracle and engine both
    # give NaN for a row holding a non-finite charge, without a warning; a
    # clean row beside it keeps its oracle value
    omega = _draw(GAUSSIAN, 50, [spawn_rng(3, 0)])[0]
    clean = charge_prefix(GAUSSIAN, 1.0, 0.1, omega)
    omega[4] = charge
    dirty = charge_prefix(GAUSSIAN, 1.0, 0.1, omega)
    got = _log_z_replicas(np.array([dirty, clean]), log_kernel_small)
    ref = log_Z(dirty, log_kernel_small)
    assert math.isnan(ref) and math.isnan(got[0])
    assert got[1] == pytest.approx(log_Z(clean, log_kernel_small), rel=1e-10)


def test_trimmed_engine_rescales_out_of_band_rows_on_their_own(log_kernel_small):
    # both laws at beta 6 and 8 and h = +-3 in one batch: the Gaussian rows
    # fall below 2^-64 within three pairs and, at m = 40, below 2^-1000, the
    # +1/-1 rows at h = 3 climb past 2^64; the last row, whose every charge
    # step is -1000, has no path.  Every row matches the row loop, the dead
    # one gives -inf, and each equals its single-row call bit for bit: a row
    # is divided by its own maximum only, and only once it leaves the band
    rows = [
        charge_prefix(law, beta, h, _draw(law, 900, [spawn_rng(seed, 0)])[0])
        for law in (GAUSSIAN, BINARY) for beta in (6.0, 8.0) for h in (3.0, -3.0) for seed in (1, 2)
    ]
    rows = np.array([*rows, -1000.0 * np.arange(901)])
    refs = []
    for plan in (Trimmed(4, 6, 40, 900), Trimmed(5, 3, 8, 300), Trimmed(6, 3, 6, 300)):
        got = _trimmed_log_z_replicas(rows, log_kernel_small, plan)
        ref = np.array([log_Z_restricted(row, log_kernel_small, plan) for row in rows])
        _assert_trimmed_values_match(got, ref)
        assert np.isfinite(ref[:-1]).all() and np.isneginf(ref[-1])
        singles = [_trimmed_log_z_replicas(row[None], log_kernel_small, plan)[0] for row in rows]
        np.testing.assert_array_equal(got, singles)
        refs.append(ref[:-1])
    # the m = 40 plan took rows past 2^64 and below 2^-1000
    assert refs[0].min() < -1000 * math.log(2) < 64 * math.log(2) < refs[0].max()


@pytest.mark.parametrize("law", [GAUSSIAN, BINARY], ids=["gaussian", "binary"])
def test_trimmed_float_range_rule(log_kernel_small, law):
    # the engine and the oracle under one rule.  Plan (4, 2, 3, 120): short
    # stages leave from [4, 16], [9, 34] and [14, 52].  A charge step of +800
    # at site 10 is read in the first pair, at site 45 only in the last, so at
    # h = -800, whose short stages all die to 0, that row dies first and then
    # meets e^800 = inf (0 x inf): NaN wherever the step is read.  At site 1 no
    # short stage spans it, so the row keeps its value, -inf at h = -800
    plan = Trimmed(M=4, k=2, m=3, N=120)
    omega = _draw(law, plan.N, [spawn_rng(5, 0)])[0]
    rows = []
    for h in (0.3, -800.0):
        for site in (None, 1, 10, 45):
            row = charge_prefix(law, 1.0, h, omega)
            if site is not None:
                row[site:] += 800.0 - (row[site] - row[site - 1])
            rows.append(row)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _trimmed_log_z_replicas(np.array(rows), log_kernel_small, plan)
    ref = np.array([log_Z_restricted(row, log_kernel_small, plan) for row in rows])
    kinds = [np.isfinite(ref), np.isnan(ref), np.isneginf(ref)]
    assert [kind.tolist() for kind in kinds] == [
        [True, True, False, False] + [False] * 4,
        [False, False, True, True] * 2,
        [False] * 4 + [True, True, False, False],
    ]
    np.testing.assert_array_equal(np.isnan(got), kinds[1])
    _assert_trimmed_values_match(got, ref)


@pytest.mark.parametrize("case", ["nan-read", "nan-past-size", "short-prefix", "no-site", "past-support"])
def test_input_and_float_range_paths(log_kernel_small, case):
    # a NaN charge that the plan (5, 2, 2, 200), positions 0..54, reads gives
    # NaN; one at size + 3 leaves the clean row's value in the oracle and the
    # engine.  Both refuse a prefix shorter than the plan, and the quenched
    # engine refuses N = 0 and N past the support with log_Z's messages
    kernel, plan = log_kernel_small, Trimmed(5, 2, 2, 200)
    size = _trimmed_size(kernel, plan)
    row = charge_prefix(GAUSSIAN, 1.0, 0.3, _draw(GAUSSIAN, plan.N, [spawn_rng(9, 0)])[0])
    restricted = (log_Z_restricted, lambda prefix, *rest: _trimmed_log_z_replicas(prefix[None], *rest)[0])
    if case.startswith("nan"):
        dirty = row.copy()
        dirty[size - 5 if case == "nan-read" else size + 3] = math.nan
        got = [run(dirty, kernel, plan) for run in restricted]
        if case == "nan-read":
            assert all(math.isnan(value) for value in got)
        else:
            assert got == [run(row, kernel, plan) for run in restricted]
            assert got[1] == pytest.approx(got[0], rel=1e-10)
    elif case == "short-prefix":
        for run in restricted:
            with pytest.raises(ValueError, match="charge prefix too short for the plan"):
                run(row[: size - 1], kernel, plan)
    else:
        n = 0 if case == "no-site" else kernel.support_cap + 1
        bad = charge_prefix(GAUSSIAN, 1.0, 0.3, _draw(GAUSSIAN, n, [spawn_rng(9, 1)])[0])
        with pytest.raises(ValueError) as refused:
            log_Z(bad, kernel)
        with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
            _log_z_replicas(bad[None], kernel)


@pytest.mark.parametrize("law", [GAUSSIAN, BINARY], ids=["gaussian", "binary"])
def test_trimmed_chunk_width_moves_no_value(big_kernels, monkeypatch, law):
    # the chunk width decides only which zero products enter each sum of
    # the long stage: 16, 32 and 64 targets per GEMM give the same values
    kernel = big_kernels["log"]
    for c2, big_m in ((1.0, 7), (1.2, 11), (1.4, 16), (1.6, 24)):
        plan = trimmed_plan(2.0, law, 0.5, 0.3, 3.3, c2)
        assert plan.M == big_m
        span = min(plan.m * (plan.M * plan.M + plan.k), plan.N - 1)
        prefix = _trimmed_prefixes(law, 0.5, 0.3, span, 12, 23)
        values = []
        for chunk in (16, 32, 64):
            monkeypatch.setattr(partition, "_TRIMMED_CHUNK", chunk)
            values.append(_trimmed_log_z_replicas(prefix, kernel, plan))
        assert np.isfinite(values[0]).all()
        np.testing.assert_array_equal(values[0], values[1])
        np.testing.assert_array_equal(values[0], values[2])


def _gemm_forms(rng):
    """Every GEMM form of the two engines, with their operand layouts.

    Yields (name, operands, bases, axes, out_axis): operands(*bases) are the
    views the engines pass to np.matmul, taken of contiguous base arrays;
    axes[i] is the axis of bases[i] that holds the rows of a group (the 8
    rows of 4 replicas and 2 channels in the quenched push and fill, the 4
    replicas in the trimmed engine) or the rows of a batched solve, and
    out_axis the axis of the product that holds them.
    """
    block, fill, groups = partition._BLOCK, partition._FILL_ROWS, 2
    group = 2 * _GEMM_REPLICAS
    # the quenched push: column slices of one contiguous (64, N + 1 - 64) array
    push = rng.random((block, 2 * partition._CHUNK))
    stacked = rng.random((groups, group, block))
    for t0 in (0, partition._CHUNK):
        for t in (*range(1, 320), *range(320, partition._CHUNK, 97), partition._CHUNK):
            yield f"push t0={t0} t={t}", lambda a, b=push[:, t0 : t0 + t]: (a, b), (stacked,), (1,), 1
    # the fill: column slices of a block's rows against (r0, 8) operands
    for r0 in range(fill, block, fill):
        earlier = np.ascontiguousarray(rng.random((fill, r0)).T)
        scaled = rng.random((groups, group, block))
        yield f"fill r0={r0}", lambda a, r0=r0, b=earlier: (a[:, :, :r0], b), (scaled,), (1,), 1
    # the fill's batched (rows, 8, 8) doubling and (rows, 8, 8) @ (rows, 8, 1) solve
    for rows in (1, 5, 8, 13, 100):
        a, p = rng.random((rows, block // fill, fill, fill)) * 0.1, rng.random((rows, block))
        yield f"doubling rows={rows}", lambda a: (a, a), (a,), (0,), 0
        for q in (0, 3, 7):
            def solve(a, p, q=q):
                return a[:, q], p[:, q * fill : (q + 1) * fill, None]

            yield f"solve rows={rows} q={q}", solve, (a, p), (0, 0), 0
    # the trimmed long stage: (4, W) @ (W, chunk) on the stacked windows of
    # a stage's chunks of targets, at the chunk widths 16, 32 and 64 that
    # the chunk-width test runs
    f3 = rng.random((groups, _GEMM_REPLICAS, 800))
    toeplitz = rng.random((700, 64))
    for chunk in (16, 32, 64):
        operand = np.ascontiguousarray(toeplitz[:, :chunk])
        for big_m in range(2, 25):
            w = chunk + big_m * (big_m - 1)

            def windows(a, w=w, chunk=chunk, operand=operand):
                row, col = a.strides[1:]
                shape, strides = (groups, 2, _GEMM_REPLICAS, w), (a.strides[0], chunk * col, row, col)
                return np.lib.stride_tricks.as_strided(a, shape=shape, strides=strides), operand[:w]

            yield f"trimmed windows chunk={chunk} W={w}", windows, (f3,), (1,), 2
    # the trimmed closing (4, size) @ (size,)
    rows = rng.random((groups, _GEMM_REPLICAS, 20000))
    for size in (*range(1, 300), *range(300, 20000, 997)):
        closing = rng.random(size)
        yield f"closing size={size}", lambda a, b=closing: (a[:, :, 7 : 7 + b.size], b), (rows,), (1,), 1


def test_every_gemm_form_rounds_a_row_the_same_at_every_slot():
    # a row's value must not depend on its slot in its group: for every
    # product the engines issue, permuting the rows permutes the output bit
    # for bit.  OpenBLAS breaks this for a push through a transposed (64, t)
    # operand at widths t >= 193 that are not multiples of 8; the forms named
    # here fail if a BLAS build brings such a rule back
    rng = np.random.default_rng(20)
    failed = []
    for name, operands, bases, axes, out_axis in _gemm_forms(rng):
        want = np.matmul(*operands(*bases))
        count = bases[0].shape[axes[0]]
        for perm in (np.roll(np.arange(count), 3), rng.permutation(count)):
            moved = [np.take(base, perm, axis=axis) for base, axis in zip(bases, axes)]
            if not np.array_equal(np.matmul(*operands(*moved)), np.take(want, perm, axis=out_axis)):
                failed.append(name)
                break
    assert not failed, f"slot-dependent rounding in {failed}"
