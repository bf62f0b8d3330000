import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from copolab.disorder import BINARY, GAUSSIAN, _draw, spawn_rng
from copolab.estimators import replica_log_z, trimmed_plan
from copolab.kernel import renewal_mass
from copolab.partition import (
    Trimmed,
    _trimmed_core,
    _trimmed_log_z_replicas,
    brute_force_log_Z,
    log_Z,
    log_Z_restricted,
    log_annealed_Z,
    make_instance,
)


def _trimmed_log_mean(kernel, plan, n, h):
    # the disorder mean: the engine on the zero-disorder charges h per site
    prefix = make_instance(GAUSSIAN, 0.0, h, omega=np.zeros(n)).charge_prefix
    return float(_trimmed_log_z_replicas([prefix], kernel, plan, n)[0])


def test_log_z_single_site(log_kernel_small):
    inst = make_instance(GAUSSIAN, 1.0, 0.2, n=1, seed=4)
    expected = math.log(log_kernel_small.mass(1)) + math.log(
        0.5 * (1.0 + math.exp(inst.charge_prefix[1]))
    )
    assert log_Z(inst, log_kernel_small) == pytest.approx(expected, rel=1e-14)


def test_log_z_free_disorder_reduces_to_renewal_mass(log_kernel_small):
    # beta = 0, h = 0 wipes every weight, leaving the renewal probability
    u = renewal_mass(log_kernel_small, 40)
    for seed in (1, 2):
        inst = make_instance(GAUSSIAN, 0.0, 0.0, n=40, seed=seed)
        assert log_Z(inst, log_kernel_small) == pytest.approx(
            math.log(u[40]), rel=1e-12
        )


def test_brute_force_two_site_expansion(log_kernel_small):
    inst = make_instance(BINARY, 0.7, -0.1, n=2, seed=9)
    s = inst.charge_prefix
    k1, k2 = log_kernel_small.mass(1), log_kernel_small.mass(2)
    direct = k2 * 0.5 * (1 + math.exp(s[2])) + k1**2 * 0.25 * (1 + math.exp(s[1])) * (
        1 + math.exp(s[2] - s[1])
    )
    assert brute_force_log_Z(inst, log_kernel_small) == pytest.approx(
        math.log(direct), rel=1e-14
    )


def test_brute_force_refuses_large_n(log_kernel_small):
    inst = make_instance(GAUSSIAN, 1.0, 0.0, n=21, seed=0)
    with pytest.raises(ValueError):
        brute_force_log_Z(inst, log_kernel_small)


def test_dp_matches_brute_force_pinned_instance(log_kernel_small):
    inst = make_instance(GAUSSIAN, 1.0, 0.3, n=12, seed=7)
    exact = log_Z(inst, log_kernel_small)
    brute = brute_force_log_Z(inst, log_kernel_small)
    assert abs(exact - brute) <= 1e-10 * max(1.0, abs(exact))


def test_brute_force_free_disorder_is_renewal_mass(log_kernel_small):
    u = renewal_mass(log_kernel_small, 3)
    inst = make_instance(BINARY, 0.0, 0.0, n=3, seed=1)
    assert brute_force_log_Z(inst, log_kernel_small) == pytest.approx(
        math.log(u[3]), rel=1e-14
    )


def test_dp_matches_brute_force_random_instances(log_kernel_small):
    rng = np.random.default_rng(20260810)
    for i in range(60):
        law = GAUSSIAN if i % 2 == 0 else BINARY
        beta = float(rng.uniform(0.0, 2.0))
        h = float(rng.uniform(-1.0, 1.0))
        n = int(rng.integers(1, 15))
        inst = make_instance(law, beta, h, n=n, seed=int(rng.integers(0, 2**63)))
        exact = log_Z(inst, log_kernel_small)
        brute = brute_force_log_Z(inst, log_kernel_small)
        assert abs(exact - brute) <= 1e-10 * max(1.0, abs(exact))


def test_floor_bound_single_excursion(log_kernel_small):
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        inst = make_instance(GAUSSIAN, 1.5, -0.6, n=n, seed=int(rng.integers(0, 2**32)))
        floor = math.log(log_kernel_small.mass(n)) - math.log(2.0)
        assert log_Z(inst, log_kernel_small) >= floor


def test_charge_prefix_increments():
    inst = make_instance(GAUSSIAN, 1.2, 0.3, n=200, seed=8)
    inc = np.diff(inst.charge_prefix)
    expected = 1.2 * inst.omega - inst.lambda_beta + 0.3
    np.testing.assert_allclose(inc, expected, atol=1e-12)
    assert inst.charge_prefix[0] == 0.0


def test_convexity_and_monotonicity_in_h(log_kernel_small):
    rng = np.random.default_rng(44)
    grid = np.linspace(-0.5, 0.5, 11)
    for _ in range(10):
        n = 40
        beta = float(rng.uniform(0.0, 2.0))
        omega = rng.standard_normal(n)
        vals = []
        for h in grid:
            inst = make_instance(GAUSSIAN, beta, float(h), omega=omega)
            vals.append(log_Z(inst, log_kernel_small))
        vals = np.array(vals)
        assert np.diff(vals).min() >= 0.0
        assert np.diff(vals, 2).min() >= -1e-8


def test_beta_zero_reduces_to_annealed(log_kernel_small):
    for h in (-0.4, 0.0, 0.7):
        exact = log_annealed_Z(log_kernel_small, 35, h)
        for seed in (5, 6):
            inst = make_instance(BINARY, 0.0, h, n=35, seed=seed)
            assert log_Z(inst, log_kernel_small) == pytest.approx(exact, rel=1e-12)


def test_annealed_h_zero_is_renewal_mass(log_kernel_small):
    u = renewal_mass(log_kernel_small, 120)
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
            w *= log_kernel_small.mass(p - prev) * 0.5 * (1 + math.exp(h * (p - prev)))
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
    floor = math.log(log_kernel_4000.mass(4000) / 2)
    assert floor <= value <= 0.0
    assert 2 * floor / 4000 <= value / 4000 <= 0.0


def test_restricted_below_unrestricted(log_kernel_small):
    rng = np.random.default_rng(10)
    for _ in range(10):
        inst = make_instance(GAUSSIAN, 1.0, 0.4, n=60, seed=int(rng.integers(0, 2**32)))
        free = log_Z(inst, log_kernel_small)
        trim = log_Z_restricted(inst, log_kernel_small, Trimmed(M=3, k=2, m=2))
        assert trim <= free + 1e-12


def test_trimmed_hand_checkable_small_plan(log_kernel_small):
    # m=1, k=1: direct sum over tau_1 in [M, M^2], tau_2 = tau_1 + 1
    big_m, n = 3, 60
    inst = make_instance(GAUSSIAN, 0.9, 0.25, n=n, seed=21)
    s = inst.charge_prefix
    total = 0.0
    for tau1 in range(big_m, big_m * big_m + 1):
        w = log_kernel_small.mass(tau1) * 0.5
        w *= log_kernel_small.mass(1) * 0.5 * math.exp(s[tau1 + 1] - s[tau1])
        w *= log_kernel_small.mass(n - tau1 - 1) * 0.5
        total += w
    got = log_Z_restricted(inst, log_kernel_small, Trimmed(M=big_m, k=1, m=1))
    assert got == pytest.approx(math.log(total), rel=1e-10)


def test_trimmed_infeasible_returns_neg_inf(log_kernel_small):
    inst = make_instance(GAUSSIAN, 1.0, 0.0, n=10, seed=2)
    got = log_Z_restricted(inst, log_kernel_small, Trimmed(M=6, k=1, m=2))
    assert got == -math.inf


def test_trimmed_log_mean_matches_brute(log_kernel_small):
    # disorder-free restricted mean against direct enumeration (m=1, k=2)
    big_m, k, n, h = 3, 2, 50, 0.3
    total = 0.0
    for tau1 in range(big_m, big_m * big_m + 1):
        for gap in range(1, k + 1):
            if tau1 + gap >= n:
                continue
            w = log_kernel_small.mass(tau1) * 0.5
            w *= log_kernel_small.mass(gap) * 0.5 * math.exp(h * gap)
            w *= log_kernel_small.mass(n - tau1 - gap) * 0.5
            total += w
    got = _trimmed_log_mean(log_kernel_small, Trimmed(M=big_m, k=k, m=1), n, h)
    assert got == pytest.approx(math.log(total), rel=1e-10)


def test_trimmed_mean_is_disorder_average(log_kernel_small):
    # MC average of the quenched restricted value converges to the exact mean
    plan, n, beta, h = Trimmed(M=4, k=2, m=2), 80, 0.6, 0.2
    exact = _trimmed_log_mean(log_kernel_small, plan, n, h)
    vals = []
    for i in range(4000):
        rng = spawn_rng(99, i)
        omega = rng.standard_normal(n)
        inst = make_instance(GAUSSIAN, beta, h, omega=omega)
        vals.append(math.exp(log_Z_restricted(inst, log_kernel_small, plan)))
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
                make_instance(GAUSSIAN, beta, h, omega=spawn_rng(31 + n, i).standard_normal(n)),
                log_kernel_small,
            )
            for i in range(reps)
        ]
        return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(reps))

    m_nm, s_nm = mean_log(160)
    m_n, s_n = mean_log(80)
    m_m, s_m = mean_log(80)
    assert m_nm >= m_n + m_m - 3 * (s_nm + s_n + s_m)


def _trimmed_prefixes(law, beta, h, n, seed, rows):
    return np.array([
        make_instance(law, beta, h, omega=_draw(law, n, spawn_rng(seed, i))).charge_prefix
        for i in range(rows)
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
    plan = Trimmed(M=big_m, k=k, m=m)
    instances = [
        make_instance(law, beta, h, omega=_draw(law, n, spawn_rng(seed, i))) for i in range(rows)
    ]
    got = _trimmed_log_z_replicas(
        np.array([inst.charge_prefix for inst in instances]), log_kernel_small, plan, n
    )
    ref = np.array([log_Z_restricted(inst, log_kernel_small, plan) for inst in instances])
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
            tp = trimmed_plan(2.0, law, beta, 0.3, c1, c2)
            span = min(tp.m * (tp.M * tp.M + tp.k), tp.N - 1)
            prefix = _trimmed_prefixes(law, beta, 0.3, span, 11, 8)
            plan = Trimmed(M=tp.M, k=tp.k, m=tp.m)
            got = _trimmed_log_z_replicas(prefix, kernel, plan, tp.N)
            ref = np.array([_trimmed_core(kernel, plan, tp.N, row) for row in prefix])
            assert np.all(np.isfinite(ref))
            _assert_trimmed_values_match(got, ref)


def test_trimmed_engine_values_do_not_depend_on_replica_count(log_kernel_small):
    # bit-equal whatever the number of rows and their neighbours: every
    # GEMM takes a zero-padded group of the same width
    plan, n = Trimmed(M=7, k=2, m=3), 180
    prefix = _trimmed_prefixes(BINARY, 0.8, 0.3, n, 5, 100)
    many = _trimmed_log_z_replicas(prefix, log_kernel_small, plan, n)
    for count in (1, 2, 7, 8, 9, 17):
        few = _trimmed_log_z_replicas(prefix[:count], log_kernel_small, plan, n)
        np.testing.assert_array_equal(many[:count], few)
