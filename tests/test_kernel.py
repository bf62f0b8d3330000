import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import copolab
import copolab.bounds
import copolab.disorder
import copolab.estimators
import copolab.partition
from copolab.kernel import (
    FamilyKind,
    SlowlyVaryingFamily,
    _upper_gamma,
    build_kernel,
    check_eta_kernel,
    defect_Kk,
    defect_check_eta,
    renewal_mass,
)


def quadrature_window(family, x, upper):
    """Independent oracle: integrate L(e^u) du over the finite window."""
    val, _ = quad(lambda u: family.evaluate_log(u), math.log(x), math.log(upper), limit=400)
    return val


def test_tail_logarithmic_closed_form(families):
    fam = families["log"]
    for x in [10.0, 1e3, 1e6, 1e12]:
        expected = fam.c_L / ((fam.upsilon - 1) * math.log(x) ** (fam.upsilon - 1))
        assert fam.tail(x) == pytest.approx(expected, rel=1e-12)


def test_tail_window_differences_match_quadrature(families):
    # tail(x) - tail(X) must equal the integral of L(y)/y over [x, X];
    # together with the vanishing check below this pins the tail function
    for fam in families.values():
        for x in [3.0, 50.0, 1e4, 1e8]:
            upper = 100.0 * x
            oracle = quadrature_window(fam, x, upper)
            window = fam.tail(x) - fam.tail(upper)
            assert window == pytest.approx(oracle, rel=1e-8)


def test_tail_decreases_toward_zero(families):
    # decay speed is family specific (the sub-logarithmic tail shrinks like
    # 1/log log x), so only positivity and strict decrease are asserted far out
    for fam in families.values():
        far, farther = fam.tail(1e100), fam.tail(1e280)
        assert 0.0 < farther < far


def test_tail_derivative_is_minus_density(families):
    # d/dx tail(x) = -L(x)/x, checked by central differences
    for fam in families.values():
        for x in [30.0, 1e3, 1e6]:
            step = x * 1e-6
            numeric = (fam.tail(x + step) - fam.tail(x - step)) / (2 * step)
            expected = -float(fam.evaluate(x)) / x
            assert numeric == pytest.approx(expected, rel=1e-6)


def test_tail_super_logarithmic_asymptotic_leading_order(families):
    # the exact tail approaches c_L*ups*(log x)^(1-1/ups)*exp(-(log x)^(1/ups))
    fam = families["super"]
    u = fam.upsilon
    for x in [1e12, 1e40]:
        lx = math.log(x)
        leading = fam.c_L * u * lx ** (1.0 - 1.0 / u) * math.exp(-(lx ** (1.0 / u)))
        ratio = fam.tail(x) / leading
        assert 0.7 <= ratio <= 1.3


def test_upper_gamma_matches_scipy_on_the_super_logarithmic_tails():
    # u Gamma(u, (log x)^(1/u)) is the super-logarithmic tail; log x runs from
    # the freeze point 2 to 40 (supports and 1/h up to 2e17), u over (1, 170]
    from scipy.special import gamma, gammaincc

    ups = np.concatenate([np.linspace(1.001, 8.0, 36), np.linspace(8.0, 170.0, 28)])
    lx = np.linspace(2.0, 40.0, 39)
    s = lx[None, :] ** (1.0 / ups[:, None])
    ref = gamma(ups[:, None]) * gammaincc(ups[:, None], s)
    got = np.array([[_upper_gamma(u, x) for x in row] for u, row in zip(ups, s)])
    assert np.abs(got / ref - 1.0).max() <= 2e-14


@pytest.mark.parametrize(
    "a, x, exact",
    [
        (1.0, 0.7, math.exp(-0.7)),  # series
        (1.0, 30.0, math.exp(-30.0)),  # continued fraction, power as a product
        (1.0, 705.0, math.exp(-705.0)),  # continued fraction, power in log space
        (2.0, 1.5, 2.5 * math.exp(-1.5)),
        (2.0, 60.0, 61.0 * math.exp(-60.0)),
        (0.5, 0.3, math.sqrt(math.pi) * math.erfc(math.sqrt(0.3))),
        (0.5, 9.0, math.sqrt(math.pi) * math.erfc(3.0)),
    ],
)
def test_upper_gamma_closed_forms(a, x, exact):
    # Gamma(1, x) = e^-x, Gamma(2, x) = (x + 1) e^-x, Gamma(1/2, x) = sqrt(pi) erfc(sqrt x)
    assert _upper_gamma(a, x) == pytest.approx(exact, rel=1e-15)


def test_upper_gamma_past_the_range_of_gamma_of_a():
    # Gamma(171.65) overflows a float while Gamma(171.65, 171) does not; the
    # recurrence Gamma(a + 1, x) = a Gamma(a, x) + x^a e^-x ties it to a = 170.65
    a, x = 170.65, 171.0
    value = _upper_gamma(a + 1.0, x)
    assert math.isfinite(value)
    expected = a * _upper_gamma(a, x) + math.exp(a * math.log(x) - x)
    assert value == pytest.approx(expected, rel=1e-12)
    assert _upper_gamma(172.0, 1.03) == math.inf
    assert _upper_gamma(1e4, 1.001) == math.inf


@pytest.mark.parametrize(
    "family, match",
    [
        (SlowlyVaryingFamily(FamilyKind.SUPER_LOGARITHMIC, 172.0), "tail integral"),
        (SlowlyVaryingFamily(FamilyKind.SUPER_LOGARITHMIC, 1e4), "tail integral"),
        (SlowlyVaryingFamily(FamilyKind.LOGARITHMIC, 1.5, c_L=1e308), "kernel normalization"),
    ],
    ids=["super-172", "super-1e4", "log-cl-1e308"],
)
def test_family_past_the_float_range_is_refused_by_name(family, match):
    # refused with a message naming the family and upsilon, and no numpy warning
    message = f"the {family.kind.value} {match} at upsilon={family.upsilon} is "
    if match == "tail integral":
        with pytest.raises(ValueError, match=message):
            family.tail(1000.0)
    with pytest.raises(ValueError, match=message):
        build_kernel(family, 1000)


@pytest.mark.parametrize(
    "kind, upsilon, call",
    [
        (FamilyKind.LOGARITHMIC, 400.0, "kernel"),
        (FamilyKind.SUB_LOGARITHMIC, 1100.0, "kernel"),
        (FamilyKind.LOGARITHMIC, 1100.0, "tail"),
        (FamilyKind.SUB_LOGARITHMIC, 1100.0, "tail"),
    ],
    ids=["log-400-kernel", "sub-1100-kernel", "log-1100-tail", "sub-1100-tail"],
)
def test_large_upsilon_leaving_the_float_range_is_refused_by_name(kind, upsilon, call):
    # the power of log x in L's denominator overflows on a support of 10^3
    # sites, and in the tail's denominator at x = 10^3 or 10^300: a
    # ValueError naming the family and upsilon, raised before numpy warns
    family = SlowlyVaryingFamily(kind, upsilon)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"the {kind.value} .* at upsilon={upsilon} "):
            if call == "kernel":
                build_kernel(family, 1000)
            else:
                family.tail(1e300 if kind is FamilyKind.SUB_LOGARITHMIC else 1000.0)


def test_tail_monotone_decreasing(families):
    for fam in families.values():
        xs = [5.0, 20.0, 1e3, 1e5, 1e9]
        vals = [fam.tail(x) for x in xs]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_slow_variation_ratio(families):
    # L(2x)/L(x) enters [0.9, 1.1] once x is large enough for each family
    x0 = 1e6
    for fam in families.values():
        for x in np.geomspace(x0, 1e12, 20):
            ratio = float(fam.evaluate(2 * x) / fam.evaluate(x))
            assert 0.9 <= ratio <= 1.1


def test_potter_style_bound_finite_and_stable(families):
    a = 0.1
    for fam in families.values():
        consts = []
        for npts in (40, 80):
            xs = np.geomspace(fam.x_min, 1e10, npts)
            lv = np.asarray(fam.evaluate(xs))
            ratio = lv[None, :] / lv[:, None]
            scale = np.minimum(
                (xs[:, None] / xs[None, :]) ** a, (xs[None, :] / xs[:, None]) ** a
            )
            consts.append(float((ratio * scale).max()))
        assert all(math.isfinite(c) for c in consts)
        assert abs(consts[1] - consts[0]) <= 0.2 * consts[0]


def test_build_kernel_total_mass(big_kernels):
    for kernel in big_kernels.values():
        total = math.fsum(kernel.masses[1:].tolist()) + kernel.tail_mass
        assert abs(total - 1.0) <= 1e-12


def test_build_kernel_exact_ratio_form(big_kernels):
    for kernel in big_kernels.values():
        n = np.array([1, 7, 500, 100_000])
        lhs = kernel.masses[n] * n / np.asarray(kernel.family.evaluate(n))
        np.testing.assert_allclose(lhs, kernel.normalization, rtol=1e-12)


def test_build_kernel_regular_variation_ratio(big_kernels):
    # K(n)/K(2n) -> 2; the slowly varying correction is still ~13% at any
    # representable support, so assert the bracket and the monotone approach
    for kernel in big_kernels.values():
        n = kernel.support_cap // 4
        ratio = kernel.masses[n] / kernel.masses[2 * n]
        earlier = kernel.masses[n // 4] / kernel.masses[n // 2]
        assert 2.0 < ratio < 2.4
        assert abs(ratio - 2.0) < abs(earlier - 2.0)


def test_build_kernel_doubling_support_stability(families):
    fam = families["log"]
    small = build_kernel(fam, 5000)
    large = build_kernel(fam, 10_000)
    assert abs(small.masses[1] - large.masses[1]) <= small.tail_mass


def test_build_kernel_rejects_small_support(families):
    with pytest.raises(ValueError):
        build_kernel(families["log"], 999)


def test_renewal_mass_small_cases(log_kernel_small):
    u = renewal_mass(log_kernel_small.masses, 2)
    assert u[0] == 1.0
    assert u[1] == pytest.approx(log_kernel_small.masses[1], rel=1e-15)
    assert u[2] == pytest.approx(
        log_kernel_small.masses[2] + log_kernel_small.masses[1] ** 2, rel=1e-15
    )


def test_renewal_mass_positive_and_banded(big_kernels):
    kernel = big_kernels["log"]
    u = renewal_mass(kernel.masses, 5000)
    assert np.all(u[1:] > 0)
    # u(n)*n/L(n) stays in a bounded band for large n
    n = np.arange(1000, 5001)
    band = u[n] * n / np.asarray(kernel.family.evaluate(n))
    assert band.max() / band.min() < 50.0


def _renewal_mass_row_loop(masses, n_max):
    """The per-site recursion u(n) = sum_j K(j) u(n - j), u(0) = 1: the reference."""
    u = np.zeros(n_max + 1)
    u[0] = 1.0
    with np.errstate(over="ignore"):
        for n in range(1, n_max + 1):
            u[n] = np.dot(masses[1 : n + 1], u[n - 1 :: -1])
    return u


@pytest.mark.parametrize("name", ["sub", "log", "super"])
def test_renewal_mass_matches_row_loop(big_kernels, name):
    # the blocked solve against the recursion, on both sides of block edges,
    # for the base law and a subcritical crossover tilt
    kernel = big_kernels[name]
    tilted = check_eta_kernel(kernel, 0.01, 0.9)
    assert 1.0 - math.fsum(tilted[1:]) > 0.0
    for masses in (kernel.masses, tilted):
        ref = _renewal_mass_row_loop(masses, 10_000)
        for n in (1, 63, 64, 65, 128, 2000, 10_000):
            got = renewal_mass(masses, n)
            assert got.shape == (n + 1,)
            np.testing.assert_allclose(got, ref[: n + 1], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("h", [0.08, 1.0, 20.0])
def test_renewal_mass_refuses_supercritical_tilt_at_the_row_loop_site(big_kernels, h):
    # the first site whose value leaves the float range, inside the first
    # block (h = 20) or past it, is the recursion's; no numpy warning
    tilted = check_eta_kernel(big_kernels["log"], h, 0.1)
    ref = _renewal_mass_row_loop(tilted, 10_000)
    site = int(np.isfinite(ref).argmin())
    assert site > 0
    with pytest.raises(OverflowError, match=f"left the float range at n={site}$"):
        renewal_mass(tilted, 10_000)


def test_renewal_mass_defective_geometric_bound(big_kernels):
    # total renewal visits of a defective law are at most 1/defect; the
    # subcritical crossover tilt is defective on the support
    tilted = check_eta_kernel(big_kernels["log"], 0.01, 0.9)
    defect = 1.0 - math.fsum(tilted[1:])
    assert defect > 0
    u = renewal_mass(tilted, 4000)
    assert math.fsum(u[1:].tolist()) <= 1.0 / defect


def test_check_eta_kernel_exact_formula(log_kernel_small):
    h, eta = 0.05, 0.1
    tilted = check_eta_kernel(log_kernel_small, h, eta)
    crossover = 1.0 / (eta * eta * h)
    for n in [1, 100, 1999, 2000]:
        sign = 1.0 if n <= crossover else -eta
        expected = log_kernel_small.masses[n] * (0.5 + 0.5 * math.exp(h * n * sign))
        assert tilted[n] == pytest.approx(expected, rel=1e-15)


def test_check_eta_kernel_at_zero_field_is_the_kernel(log_kernel_small):
    # at h = 0 the tilt has no crossover, and its factor is exactly 1
    np.testing.assert_array_equal(check_eta_kernel(log_kernel_small, 0.0), log_kernel_small.masses)


def test_removed_tilt_and_wrapper_api_stays_gone():
    # a tilted law is its mass array, sweep_free_energy serves one field, a
    # disorder realisation is its charge-prefix row, the trimmed mean's jump
    # weights are its stage weights, and a report record is serialized by
    # dataclasses.asdict; every export resolves
    removed = (
        "TiltedKernel", "TiltTransform", "penalized_kernel", "estimate_free_energy",
        "QuenchedInstance", "make_instance", "sample", "_trimmed_core", "_annealed_log_z",
        "TrimmedPlan", "LawKind", "independent_jumps_law", "_pair_log_weight",
        "_first_moment_product_log",
    )
    modules = (
        copolab, copolab.kernel, copolab.estimators, copolab.partition, copolab.disorder,
        copolab.bounds,
    )
    for module in modules:
        for name in removed:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert name not in getattr(module, "__all__", ())
        for name in module.__all__:
            assert hasattr(module, name), f"stale export {module.__name__}.{name}"
    records = (
        copolab.estimators.FreeEnergyEstimate, copolab.estimators.PenalizationPlan, copolab.bounds.BoundReport
    )
    assert [cls.__name__ for cls in records if hasattr(cls, "to_dict")] == []
    assert [f.name for f in dataclasses.fields(copolab.bounds.SharperBounds)] == ["log_lower", "log_upper"]


def test_defect_kk_zero_field(big_kernels):
    for kernel in big_kernels.values():
        assert defect_Kk(kernel, 0.0, 17) == 0.0


def test_defect_kk_reward_dominates_for_large_h(big_kernels):
    # fixed small window, large h: the reward side wins and the excess is positive
    kernel = big_kernels["log"]
    assert defect_Kk(kernel, 1.0, 20) > 0


def test_defect_kk_overflow_guard(big_kernels):
    with pytest.raises(OverflowError):
        defect_Kk(big_kernels["log"], 1.0, 701)


def test_defect_kk_scheduled_window_scan(big_kernels):
    # with the slowly-varying window schedule the excess is nonpositive on
    # the whole scanned grid for every family; record-style scan
    b = 0.9
    for kernel in big_kernels.values():
        fam = kernel.family
        for j in range(7):
            h = 0.1 * 2.0**-j
            phi = b * math.log(fam.tail(1 / h) / float(fam.evaluate(1 / h)))
            k = int(phi / h)
            assert k >= 1
            assert defect_Kk(kernel, h, k) <= 0.0


def test_defect_check_eta_zero_field(big_kernels):
    assert defect_check_eta(big_kernels["log"], 0.0, 0.1) == 0.0


@pytest.mark.parametrize("eta", [0.0, 1.0, 5.0])
def test_defect_check_eta_refuses_bad_eta_at_zero_field(big_kernels, eta):
    # the defect and the tilted masses take the same arguments at every h
    kernel = big_kernels["log"]
    with pytest.raises(ValueError, match="eta in"):
        check_eta_kernel(kernel, 0.0, eta)
    with pytest.raises(ValueError, match="eta in"):
        defect_check_eta(kernel, 0.0, eta)


def test_defect_check_eta_matches_stored_masses(big_kernels):
    # dedicated evaluator and the tilted mass sum agree up to the
    # analytic tail correction beyond the support
    kernel = big_kernels["log"]
    h, eta = 0.01, 0.1
    tilted = check_eta_kernel(kernel, h, eta)
    by_op = defect_check_eta(kernel, h, eta)
    tail_correction = 0.5 * kernel.tail_mass * (-math.expm1(-eta * h * (kernel.support_cap + 1)))
    defect = 1.0 - math.fsum(tilted[1:])
    assert by_op == pytest.approx(defect - tail_correction, rel=1e-9)


def test_defect_check_eta_recorded_comparison_at_millis(big_kernels):
    # the crossover tilt defect against one sixth of the tail at 1/h: the
    # inequality is an asymptotic statement and does not hold at this scale,
    # where the reward branch (up to exp(1/eta^2)) makes the tilt
    # supercritical, so the defect is negative and below the target. This
    # direction follows the tilt as transcribed in check_eta_kernel; it is to
    # be revisited with the open audit of that transcription (ROADMAP item 7)
    kernel = big_kernels["log"]
    h, eta = 1e-3, 0.1
    defect = defect_check_eta(kernel, h, eta)
    target = kernel.family.tail(1.0 / h) / 6.0
    assert math.isfinite(defect) and math.isfinite(target)
    assert target > 0
    assert defect < 0.0 < target


def test_defect_check_eta_requires_support(log_kernel_small):
    with pytest.raises(ValueError):
        defect_check_eta(log_kernel_small, 1e-3, 0.1)


def test_defect_check_eta_monotone_direction_in_eta(big_kernels):
    # a larger eta moves the crossover 1/(eta^2 h) down, shortening the
    # reward branch and strengthening the penalty, so the defect increases
    # with eta; at desk scale the values stay strongly negative and finite
    kernel = big_kernels["log"]
    h = 0.01
    vals = [defect_check_eta(kernel, h, eta) for eta in (0.08, 0.1, 0.15)]
    assert all(math.isfinite(v) for v in vals)
    assert vals[0] < vals[1] < vals[2] < 0.0
