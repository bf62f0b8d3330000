import decimal
import math
import sys

import numpy as np
import pytest

from copolab.disorder import (
    BINARY,
    GAUSSIAN,
    log_mgf,
    log_mgf_prime,
    q1,
    q2,
    _draw,
    rate_function,
    replica_rngs,
    spawn_rng,
)
from copolab.estimators import tilted_block_success


def test_log_mgf_gaussian_closed_form():
    assert log_mgf(GAUSSIAN, 0.5) == pytest.approx(0.125, abs=1e-15)


def test_log_mgf_zero_is_zero():
    for law in (GAUSSIAN, BINARY):
        assert log_mgf(law, 0.0) == 0.0


def test_log_mgf_binary_log_cosh():
    # high-precision evaluation of log cosh(1)
    expected = math.log(math.cosh(1.0))
    assert log_mgf(BINARY, 1.0) == pytest.approx(expected, abs=1e-14)


def _log_cosh_reference(beta):
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 60
        d = Decimal(beta)
        return float(((d.exp() + (-d).exp()) / 2).ln())


def test_log_mgf_binary_small_beta_keeps_full_precision():
    # below 0.25 log1p(2 sinh(b/2)^2) avoids the cancellation of
    # b + log1p(e^{-2b}) - log 2, which was 120 % off at b = 1e-8
    for beta in (1e-8, 1e-6, 1e-4, 0.01, 0.1, 0.2499999):
        exact = _log_cosh_reference(beta)
        assert abs(log_mgf(BINARY, beta) - exact) <= 1e-15 * exact
    # from 0.25 on the large-argument form stays, with its few-ulp error
    for beta in (0.25, 0.2500001, 0.3, 2.0):
        exact = _log_cosh_reference(beta)
        assert abs(log_mgf(BINARY, beta) - exact) <= 5e-15 * exact
    assert q2(BINARY, 1e-8) > 0.0
    assert q2(BINARY, 1e-8) == pytest.approx(1e-16, rel=1e-12)


def test_log_mgf_domain_error():
    with pytest.raises(ValueError):
        log_mgf(GAUSSIAN, -0.1)


def test_q1_q2_gaussian_exact():
    for beta in [0.25, 0.7, 1.3, 2.0]:
        assert q1(GAUSSIAN, beta) == pytest.approx(beta**2 / 2, rel=1e-14)
        assert q2(GAUSSIAN, beta) == pytest.approx(beta**2, rel=1e-14)


def test_q1_q2_small_beta_expansion():
    # q1 = beta^2/2 + O(beta^3), q2 = beta^2 + O(beta^3) for both laws
    for law in (GAUSSIAN, BINARY):
        for beta in [1e-2, 1e-3]:
            assert abs(q1(law, beta) - beta**2 / 2) <= 5 * beta**3
            assert abs(q2(law, beta) - beta**2) <= 5 * beta**3


def test_q1_binary_closed_form_and_numeric_derivative():
    # closed form at beta=1, cross-checked by a central difference of log_mgf
    expected = math.tanh(1.0) - math.log(math.cosh(1.0))
    assert q1(BINARY, 1.0) == pytest.approx(expected, abs=1e-14)
    step = 1e-5
    numeric = (log_mgf(BINARY, 1.0 + step) - log_mgf(BINARY, 1.0 - step)) / (2 * step)
    assert numeric == pytest.approx(log_mgf_prime(BINARY, 1.0), abs=1e-6)


def _decimal_q1_q2(law, beta):
    """q1 and q2 from their definitions at 450 digits, far past the float's cancellation."""
    with decimal.localcontext() as ctx:
        ctx.prec = 450
        ctx.Emin, ctx.Emax = decimal.MIN_EMIN, decimal.MAX_EMAX
        b = decimal.Decimal(beta)
        if law is GAUSSIAN:
            return b * b / 2, b * b

        def log_cosh(x):
            return x + (1 + (-2 * x).exp()).ln() - decimal.Decimal(2).ln()

        t = (-2 * b).exp()
        return b * (1 - t) / (1 + t) - log_cosh(b), log_cosh(2 * b) - 2 * log_cosh(b)


_Q_BETAS = [
    0.0, *np.logspace(-170, 300, 236).tolist(), 0.25, 1.0, 19.0, 19.1, 20.0, 1e3, 1e8, 1e16,
    1.34e154, 1.5e154, 1.89e154, 1.9e154,
]


@pytest.mark.parametrize("law", [GAUSSIAN, BINARY], ids=["gaussian", "binary"])
def test_q1_q2_match_a_decimal_reference_over_the_float_range(law):
    # relative 1e-12, on the scale of the smallest normal below it; inf
    # where the value is past the float range (the Gaussian q2 from 1.34e154,
    # q1 from 1.9e154)
    for beta in _Q_BETAS:
        for got, ref in zip((q1(law, beta), q2(law, beta)), _decimal_q1_q2(law, beta)):
            if ref > decimal.Decimal(sys.float_info.max):
                assert got == math.inf, beta
            else:
                scale = max(ref, decimal.Decimal(sys.float_info.min))
                assert abs(decimal.Decimal(got) - ref) <= decimal.Decimal("1e-12") * scale, beta


def test_q1_q2_keep_the_direct_forms_bit_for_bit_up_to_beta_19():
    # the artifact corpus records q1-derived values (checks.coarse's c3 and
    # h) to the last bit, so below beta = 19 q1 and q2 are the plain
    # cumulant forms
    for beta in [*np.logspace(-150, math.log10(19.0), 300).tolist(), *np.linspace(0.25, 5.0, 4751).tolist()]:
        beta = min(beta, 19.0)
        for law in (GAUSSIAN, BINARY):
            assert q1(law, beta) == beta * log_mgf_prime(law, beta) - log_mgf(law, beta)
            assert q2(law, beta) == log_mgf(law, 2.0 * beta) - 2.0 * log_mgf(law, beta)


def test_positivity_of_q1_q2():
    for law in (GAUSSIAN, BINARY):
        for beta in [0.1, 0.5, 1.5]:
            assert q1(law, beta) > 0
            assert q2(law, beta) > 0


def test_rate_function_gaussian_quadratic():
    for x in np.linspace(0.0, 3.0, 13):
        ev = rate_function(GAUSSIAN, float(x))
        assert ev.sigma == pytest.approx(x**2 / 2, abs=1e-10)


def test_rate_function_zero_case():
    for law in (GAUSSIAN, BINARY):
        ev = rate_function(law, 0.0)
        assert ev.sigma == 0.0 and ev.argmax_y == 0.0


def test_rate_function_binary_entropy_and_grid_oracle():
    x = 0.5
    closed = (1.5 / 2) * math.log(1.5) + (0.5 / 2) * math.log(0.5)
    # independent oracle: grid search of x*y - lambda(y)
    ys = np.linspace(0.0, 5.0, 2_000_001)
    grid_max = float(np.max(x * ys - np.log(np.cosh(ys))))
    assert grid_max == pytest.approx(closed, abs=1e-10)
    ev = rate_function(BINARY, x)
    assert ev.sigma == pytest.approx(closed, abs=1e-10)
    cumulants = {GAUSSIAN: 0.5 * ys * ys, BINARY: np.log(np.cosh(ys))}
    for law, lam in cumulants.items():
        for x in [0.1, 0.5, 0.9, 0.9 * math.tanh(2.0)]:
            ev = rate_function(law, x)
            assert ev.sigma == pytest.approx(float(np.max(x * ys - lam)), abs=1e-10)
            assert log_mgf_prime(law, ev.argmax_y) == pytest.approx(x, rel=1e-14)


def test_rate_function_domain_errors():
    with pytest.raises(ValueError):
        rate_function(BINARY, 1.0)
    with pytest.raises(ValueError):
        rate_function(GAUSSIAN, -0.5)
    for law in (GAUSSIAN, BINARY):
        with pytest.raises(ValueError):
            rate_function(law, math.nan)


def test_rate_function_stationarity_identity():
    for law in (GAUSSIAN, BINARY):
        for x in [0.1, 0.4, 0.8]:
            ev = rate_function(law, x)
            assert ev.sigma == pytest.approx(
                x * ev.argmax_y - log_mgf(law, ev.argmax_y), abs=1e-12
            )


def test_legendre_consistency_sigma_of_slope_is_q1():
    # rate function evaluated at the cumulant slope returns q1
    for law in (GAUSSIAN, BINARY):
        for beta in np.linspace(0.05, 2.0, 15):
            slope = log_mgf_prime(law, float(beta))
            assert rate_function(law, slope).sigma == pytest.approx(
                q1(law, float(beta)), abs=1e-8
            )


def test_log_mgf_convexity_on_grid():
    grid = np.linspace(0.0, 2.5, 60)
    for law in (GAUSSIAN, BINARY):
        vals = np.array([log_mgf(law, float(b)) for b in grid])
        second = np.diff(vals, 2)
        assert second.min() >= -1e-9


def test_numeric_derivative_matches_analytic():
    step = 1e-5
    for law in (GAUSSIAN, BINARY):
        for beta in [0.3, 1.0, 1.7]:
            numeric = (log_mgf(law, beta + step) - log_mgf(law, beta - step)) / (2 * step)
            assert numeric == pytest.approx(log_mgf_prime(law, beta), abs=1e-6)


def test_sample_determinism():
    for law in (GAUSSIAN, BINARY):
        a = _draw(law, 50, [np.random.default_rng(123)])[0]
        b = _draw(law, 50, [np.random.default_rng(123)])[0]
        np.testing.assert_array_equal(a, b)


def test_binary_draws_equal_generator_integers_on_fresh_streams():
    # the +/-1 charges are the bits that Generator.integers(0, 2) takes from
    # the raw words, low 32-bit half first, for even and odd n; a block of
    # streams draws row by row what each stream draws alone, also into a
    # strided output
    for n in (1, 2, 3, 63, 64, 65, 240, 5781):
        ref = np.stack(
            [np.random.default_rng(seed).integers(0, 2, size=n) for seed in range(40)]
        ).astype(float) * 2.0 - 1.0
        for seed in range(40):
            got = _draw(BINARY, n, [np.random.default_rng(seed)])[0]
            assert got.dtype == np.float64 and got.tobytes() == ref[seed].tobytes()
        block = _draw(BINARY, n, [np.random.default_rng(seed) for seed in range(40)])
        assert block.shape == (40, n) and block.tobytes() == ref.tobytes()
        out = np.zeros((40, n + 1))
        _draw(BINARY, n, [np.random.default_rng(seed) for seed in range(40)], out=out[:, 1:])
        assert out[:, 1:].tobytes() == ref.tobytes() and not out[:, 0].any()
    for i, rng in enumerate(replica_rngs(11, range(40))):
        ref = _numpy_stream(11, i).integers(0, 2, size=65).astype(float) * 2.0 - 1.0
        assert _draw(BINARY, 65, [rng])[0].tobytes() == ref.tobytes()


def test_sample_normalization_moments():
    for law in (GAUSSIAN, BINARY):
        draws = _draw(law, 200_000, [np.random.default_rng(7)])[0]
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 1.0) < 0.02


def test_tilted_block_means_exceed_shifted_threshold():
    # under the tilt, a block mean reaches b * lambda'(beta) with probability past 1/2
    beta, b_frac, k = 1.0, 0.9, 400
    for law in (GAUSSIAN, BINARY):
        assert tilted_block_success(law, beta, b_frac * log_mgf_prime(law, beta), k) > 0.5


# seeds of 1 to 5 uint32 words, and indices past the first 64
_STREAM_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 5, 10**30, 10**45)
_STREAM_INDICES = (*range(64), 999_999, 1_000_000)


def _numpy_stream(seed, index):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def test_replica_rngs_match_seed_sequence_streams():
    for seed in _STREAM_SEEDS:
        streams = list(replica_rngs(seed, _STREAM_INDICES))
        assert len(streams) == len(_STREAM_INDICES)
        for i, rng in zip(_STREAM_INDICES, streams):
            assert rng.bit_generator.state == _numpy_stream(seed, i).bit_generator.state
        assert spawn_rng(seed, 999_999).bit_generator.state == streams[-2].bit_generator.state


def test_replica_rngs_draw_the_seed_sequence_charges_bit_for_bit():
    for law in (GAUSSIAN, BINARY):
        for seed in _STREAM_SEEDS:
            for i, rng in zip(_STREAM_INDICES, replica_rngs(seed, _STREAM_INDICES)):
                ours, ref = _draw(law, 37, [rng])[0], _draw(law, 37, [_numpy_stream(seed, i)])[0]
                assert ours.tobytes() == ref.tobytes()


def test_replica_rngs_leave_their_index_array_unchanged():
    # a mix written in place into the index array gives wrong streams silently
    for dtype in (np.uint32, np.int64):
        index = np.array(_STREAM_INDICES, dtype=dtype)
        before = index.copy()
        streams = list(replica_rngs(2**32, index))
        np.testing.assert_array_equal(index, before)
        for i, rng in zip(_STREAM_INDICES, streams):
            assert rng.bit_generator.state == _numpy_stream(2**32, i).bit_generator.state


def test_replica_rngs_refuse_a_negative_seed_or_an_index_out_of_range():
    for seed, indices in ((-1, [0]), (-(2**40), range(3)), (3, [-1]), (3, [0, 2**32])):
        with pytest.raises(ValueError):
            replica_rngs(seed, indices)
    with pytest.raises(ValueError, match="non-negative"):
        spawn_rng(-1, 0)


def test_replica_stream_seed_words_serve_only_pcg64():
    rng = next(replica_rngs(7, [3]))
    words = rng.bit_generator.seed_seq
    assert words.generate_state(4, np.uint64).tolist() == (
        np.random.SeedSequence(7, spawn_key=(3,)).generate_state(4, np.uint64).tolist()
    )
    for n_words, dtype in ((4, np.uint32), (8, np.uint64), (2, np.uint64)):
        with pytest.raises(ValueError):
            words.generate_state(n_words, dtype)
