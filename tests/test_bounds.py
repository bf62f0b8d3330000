import math

import pytest

from copolab.bounds import (
    bound_table,
    log_rss_bound,
    log_upper_general,
    m_h,
    psi,
    rss_threshold,
    sharper_bounds,
)
from copolab.disorder import BINARY, GAUSSIAN, q1
from copolab.kernel import FamilyKind, SlowlyVaryingFamily


def test_upper_general_plugin_value(families):
    # direct plug-in at (logarithmic, beta=1 Gaussian, h=0.01, b=0.9)
    fam = families["log"]
    ratio = fam.tail(100.0) / float(fam.evaluate(100.0))
    expected = -0.9 * 0.5 * 100.0 * math.log(ratio)
    assert log_upper_general(fam, GAUSSIAN, 1.0, 0.01, 0.9) == pytest.approx(
        expected, rel=1e-12
    )


def test_upper_general_b_to_zero_limit(families):
    fam = families["log"]
    assert log_upper_general(fam, GAUSSIAN, 1.0, 0.01, b=1e-9) == pytest.approx(0.0, abs=1e-6)


def test_upper_general_log_ratio_asymptotics(families):
    # log(tail/L) grows like log log x for sub-logarithmic and logarithmic
    # decay and like ((ups-1)/ups) log log x in the super-logarithmic case;
    # convergence is itself slowly varying, so assert a band plus the drift
    # toward the limit over the largest representable arguments
    for name, coeff in [("sub", 1.0), ("log", 1.0), ("super", 0.5)]:
        fam = families[name]
        measured = []
        for x in [1e60, 1e120, 1e260]:
            ratio = math.log(fam.tail(x) / float(fam.evaluate(x)))
            measured.append(ratio / math.log(math.log(x)))
        assert measured[-1] == pytest.approx(coeff, rel=0.35)
        assert abs(measured[-1] - coeff) <= abs(measured[0] - coeff) + 1e-12


def test_sharper_bounds_ordering(families):
    for name in ("sub", "log", "super"):
        fam = families[name]
        recorded = None
        for h in [0.2 * 2.0**-j for j in range(8)]:
            sb = sharper_bounds(fam, GAUSSIAN, 1.0, h)
            if sb.log_lower <= sb.log_upper:
                recorded = h if recorded is None else recorded
        assert recorded is not None and recorded >= 0.2 * 2.0**-7


def test_sharper_super_log_exponent_arithmetic(families):
    # exponent -(h/q1)^(-ups/(ups-1)): ups=2, q1=0.5, h=0.05 gives -100 at delta=0
    fam = families["super"]
    sb = sharper_bounds(fam, GAUSSIAN, 1.0, 0.05, delta=0.05)
    assert sb.log_lower == pytest.approx(-105.0, rel=1e-12)
    assert sb.log_upper == pytest.approx(-95.0, rel=1e-12)


def test_rss_threshold_rules(families):
    assert rss_threshold(families["sub"]) == 3.5
    assert rss_threshold(families["log"]) == 4.5
    assert rss_threshold(families["super"]) == 1.0


def test_rss_bound_rejects_small_b(families):
    for fam in families.values():
        with pytest.raises(ValueError) as err:
            log_rss_bound(fam, GAUSSIAN, 1.0, 0.05, b=0.5)
        assert str(rss_threshold(fam)) in str(err.value)


def test_rss_bound_monotone_in_b(families):
    for fam in families.values():
        t = rss_threshold(fam)
        a = log_rss_bound(fam, GAUSSIAN, 1.0, 0.05, b=t + 0.05)
        b = log_rss_bound(fam, GAUSSIAN, 1.0, 0.05, b=t + 0.10)
        assert b < a


def test_rss_logarithmic_exponent_form(families):
    # logarithmic family: exponent -(5/2 + ups + eps) q1 log(1/h) / h
    fam = families["log"]
    h, eps = 0.04, 0.1
    expected = -(2.5 + fam.upsilon + eps) * q1(GAUSSIAN, 1.0) * math.log(1 / h) / h
    got = log_rss_bound(fam, GAUSSIAN, 1.0, h, b=2.5 + fam.upsilon + eps)
    assert got == pytest.approx(expected, rel=1e-12)


def test_m_h_psi_consistency(families):
    # log M_{h/c3} must equal c3 * psi(c3/h) / h in all three families
    c3 = 0.45
    for fam in families.values():
        for h in (0.05, 0.02):
            lhs = m_h(fam, h / c3, eps=0.05).log_value
            rhs = (c3 / h) * psi(fam, c3 / h, eps=0.05)
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_m_h_super_log_exponent(families):
    got = m_h(families["super"], 0.1, eps=0.05)
    assert got.log_value == pytest.approx(0.95 * 0.1**-2.0, rel=1e-12)


def test_m_h_eps_to_one_collapses(families):
    for fam in families.values():
        got = m_h(fam, 0.05, eps=1 - 1e-12)
        assert got.count == 1


def test_m_h_overflow_returns_log_form(families):
    got = m_h(families["super"], 0.005, eps=0.05)
    assert got.count is None
    assert got.log_value > 700


def test_bound_table_schema_and_ranges(families):
    grid = [0.2 * 2.0**-j for j in range(7)]
    for name, fam in families.items():
        rows = bound_table(fam, GAUSSIAN, 1.0, grid)
        assert len(rows) == len(grid)
        for row in rows:
            assert row.family == fam.kind.value
            # bounds are reported in log form; flagged if above one
            if "upper_general_exceeds_one" not in row.flags:
                assert row.log_upper_general <= 0.0
            assert row.log_lower_rss <= 0.0
            if name == "sub":
                assert row.log_lower_sublog is not None
            else:
                assert row.log_lower_sublog is None


def test_bound_table_ordering_recorded(families):
    grid = [0.2 * 2.0**-j for j in range(7)]
    for fam in families.values():
        rows = bound_table(fam, GAUSSIAN, 1.0, grid)
        ordered = [r.h for r in rows if "rss_above_upper_general" not in r.flags]
        # ordering holds from a threshold strictly above the smallest point
        assert ordered and max(ordered) > grid[-1]


def test_bound_table_upper_general_decreasing(families):
    grid = [0.05 * 2.0**-j for j in range(6)]
    for fam in families.values():
        rows = bound_table(fam, GAUSSIAN, 1.0, grid)
        vals = [r.log_upper_general for r in rows]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_bound_table_flags_a_general_upper_bound_above_one():
    # logarithmic, upsilon = 4: tail(1/h)/L(1/h) < 1 at h = 0.13, so the
    # general bound's log turns positive and the row is flagged
    fam = SlowlyVaryingFamily(FamilyKind.LOGARITHMIC, 4.0)
    (row,) = bound_table(fam, GAUSSIAN, 1.0, [0.13])
    assert row.flags == "upper_general_exceeds_one"
    assert row.log_upper_general == pytest.approx(1.3346108217442803, rel=1e-12)


def test_bound_table_flags_a_rare_stretch_value_above_the_general_bound():
    # super-logarithmic, upsilon = 2, beta = 0.1: q1/h < 1 on both rows, and
    # the rare-stretch value lies above the general upper bound
    fam = SlowlyVaryingFamily(FamilyKind.SUPER_LOGARITHMIC, 2.0)
    rows = bound_table(fam, GAUSSIAN, 0.1, [0.1, 0.05])
    assert [row.flags for row in rows] == ["rss_above_upper_general"] * 2
    assert rows[0].log_lower_rss == pytest.approx(-0.00275, rel=1e-12)
    assert rows[0].log_upper_general == pytest.approx(-0.07273730610562669, rel=1e-12)
    assert all(0.0 > row.log_lower_rss > row.log_upper_general for row in rows)


def test_bound_table_rejects_bad_grid(families):
    with pytest.raises(ValueError):
        bound_table(families["log"], GAUSSIAN, 1.0, [0.1, 0.2])
    with pytest.raises(ValueError):
        bound_table(families["log"], GAUSSIAN, 1.0, [])


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda fam: log_upper_general(fam, GAUSSIAN, 1.0, 0.05, b=1.0), "b must lie in"),
        (lambda fam: sharper_bounds(fam, GAUSSIAN, 1.0, 0), "h must be positive"),
        (lambda fam: log_rss_bound(fam, GAUSSIAN, 1.0, -0.1), "h must be positive"),
        (lambda fam: psi(fam, 1.0, 0.05), "argument > 1"),
        (lambda fam: m_h(fam, 0, 0.05), "h must be positive"),
        (lambda fam: m_h(fam, 0.05, 1.0), "eps must lie in"),
        (lambda fam: m_h(fam, 0.5, 0.05), "log\\(1/h\\) must exceed 1"),
    ],
    ids=["upper-b", "sharper-h", "rss-h", "psi-argument", "m_h-h", "m_h-eps", "m_h-large-h"],
)
def test_bounds_refuse_arguments_outside_their_domain(families, call, match):
    with pytest.raises(ValueError, match=match):
        call(families["log"])


def test_formula_fidelity_recomputed_logs(families):
    # each serialized log bound agrees with a from-scratch recomputation
    fam = families["log"]
    law = BINARY
    beta, h = 0.8, 0.025
    row = bound_table(fam, law, beta, [h])[0]
    x = 1.0 / h
    expected_general = -0.9 * q1(law, beta) * x * math.log(
        fam.tail(x) / float(fam.evaluate(x))
    )
    assert row.log_upper_general == pytest.approx(expected_general, abs=1e-12)
    expected_rss = -(rss_threshold(fam) + 0.1) * q1(law, beta) * math.log(x) / h
    assert row.log_lower_rss == pytest.approx(expected_rss, abs=1e-12)


def test_general_vs_sharper_leading_order_ratio(families):
    # sub-logarithmic family: both exponents scale with loglog(1/h)/h, so
    # their ratio stabilizes; recorded on the grid tail
    fam = families["sub"]
    ratios = []
    for h in [1e-3, 1e-4, 1e-5]:
        lug = log_upper_general(fam, GAUSSIAN, 1.0, h, 0.9)
        sb = sharper_bounds(fam, GAUSSIAN, 1.0, h)
        ratios.append(lug / sb.log_upper)
    assert all(math.isfinite(r) and r > 0 for r in ratios)
    assert abs(ratios[-1] - ratios[-2]) < 0.25 * ratios[-2]
