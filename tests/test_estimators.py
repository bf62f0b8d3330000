import json
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from copolab import estimators as est, partition
from copolab.bounds import log_upper_general
from copolab.disorder import BINARY, GAUSSIAN, _draw, log_mgf, q1, q2, rate_function, spawn_rng
from copolab.kernel import FamilyKind, SlowlyVaryingFamily, build_kernel, check_eta_kernel, renewal_mass
from copolab.partition import (
    _BLOCK,
    _CHUNK,
    _FILL_ROWS,
    _GEMM_REPLICAS,
    Trimmed,
    _fill_limit,
    _log_z_replicas,
    _quenched_pass,
    _trimmed_log_z_replicas,
    _trimmed_pass,
    _trimmed_size,
    brute_force_log_Z,
    charge_prefix,
    log_Z,
    log_annealed_Z,
)


@pytest.fixture(scope="module")
def moment_kernel(families):
    # shared by the trimmed-plan checks; support covers the small desk plan
    return build_kernel(families["sub"], 11_000)


def test_estimate_localized_regime(log_kernel_small):
    # deep in the localized phase the single-below-excursion bound h - lambda
    # must be cleared by the replica mean
    got = est.sweep_free_energy(
        log_kernel_small, GAUSSIAN, beta=1.0, h_values=[2.0], n=2000, replicas=64, seed=42
    )[0]
    assert got.mean_log_z_per_site >= 2.0 - 0.5 - 0.05
    assert got.lower_bracket <= got.mean_log_z_per_site <= got.upper_bracket + 1.96 * got.stderr


def test_estimate_delocalized_window(log_kernel_small):
    n = 2000
    got = est.sweep_free_energy(
        log_kernel_small, GAUSSIAN, beta=1.0, h_values=[-0.5], n=n, replicas=32, seed=7
    )[0]
    floor = 2.0 * math.log(log_kernel_small.masses[n] / 2.0) / n
    assert floor <= got.mean_log_z_per_site <= 0.0


def test_estimate_beta_zero_matches_annealed(log_kernel_small):
    n, h = 500, 0.3
    got = est.sweep_free_energy(
        log_kernel_small, GAUSSIAN, beta=0.0, h_values=[h], n=n, replicas=4, seed=1
    )[0]
    assert got.mean_log_z_per_site == pytest.approx(
        log_annealed_Z(log_kernel_small, n, h) / n, rel=1e-12
    )
    assert got.stderr == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("law", [GAUSSIAN, BINARY], ids=["gaussian", "binary"])
def test_excess_is_the_mean_less_the_straight_path_value(log_kernel_small, law):
    # below 0, inside (0, 2 lambda) and past 2 lambda: the excess is the
    # mean less max(0, h - lambda) bit for bit, and a field of a grid gives
    # its one-field estimate, excess included
    beta = 0.8
    lam = log_mgf(law, beta)
    grid = [2.0 * lam + 0.3, lam, 0.5 * lam, -0.2]
    estimates = est.sweep_free_energy(log_kernel_small, law, beta, grid, 200, 4, 3)
    for h, got in zip(grid, estimates):
        assert got.excess_per_site == got.mean_log_z_per_site - max(0.0, h - lam)
        assert est.sweep_free_energy(log_kernel_small, law, beta, [h], 200, 4, 3) == [got]


def test_replica_values_do_not_depend_on_replica_count(log_kernel_small):
    # bit-equal whatever the batch width, which the GEMMs of the batched DP
    # must not leak into a replica's value
    many = est.replica_log_z(log_kernel_small, BINARY, 0.8, 0.4, 300, 5, replicas=100)
    for count in (1, 2, 3, 5, 8, 17):
        few = est.replica_log_z(log_kernel_small, BINARY, 0.8, 0.4, 300, 5, replicas=count)
        np.testing.assert_array_equal(many[:count], few)


@pytest.mark.parametrize("rows", [1, 3, 8, 11, None])
@pytest.mark.parametrize("h", [0.3, [0.3], [0.4, -0.2, 1e-3], []], ids=["one-field", "one-entry", "grid", "empty"])
@pytest.mark.parametrize("law", [GAUSSIAN, BINARY], ids=["gaussian", "binary"])
def test_replica_prefixes_rows_equal_charge_prefix_rows(law, h, rows):
    # the one seeded source: blocks are 2-D and replica-major, replica i's
    # rows at every field in turn, and each row is charge_prefix of the draw
    # of stream i at its field, bit for bit, whatever the block size
    n, beta, seed, replicas = 37, 0.7, 9, 11
    fields = np.reshape(h, -1)
    blocks = [block.copy() for block in est._replica_prefixes(law, beta, h, n, seed, replicas, rows)]
    step = replicas if rows is None else rows
    assert [block.shape for block in blocks] == [
        (min(step, replicas - i0) * len(fields), n + 1) for i0 in range(0, replicas, step)
    ]
    want = np.array([
        charge_prefix(law, beta, field, _draw(law, n, [spawn_rng(seed, i)])[0])
        for i in range(replicas) for field in fields
    ])
    assert np.concatenate(blocks).tobytes() == want.tobytes()


def test_replica_prefixes_blocks_share_one_buffer():
    blocks = est._replica_prefixes(BINARY, 0.5, [0.1, 0.2], 20, 4, 10, 4)
    first = next(blocks)
    rest = list(blocks)
    assert [block.shape for block in rest] == [(8, 21), (4, 21)]
    assert all(np.shares_memory(first, block) for block in rest)


@pytest.mark.parametrize("replicas", [0, 5])
@pytest.mark.parametrize("h", [0.2, [0.2], [0.4, 0.1, -0.3]], ids=["scalar", "one", "three"])
def test_replica_log_z_shape_is_fields_by_replicas(log_kernel_small, h, replicas):
    got = est.replica_log_z(log_kernel_small, BINARY, 0.8, h, 30, 2, replicas)
    assert got.shape == np.shape(h) + (replicas,)


def _assert_matches_row_loop(kernel, law, beta, h, n, seed, replicas):
    got = est.replica_log_z(kernel, law, beta, h, n, seed, replicas)
    ref = np.array([
        log_Z(charge_prefix(law, beta, h, _draw(law, n, [spawn_rng(seed, i)])[0]), kernel)
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
    prefix = charge_prefix(law, beta, h, _draw(law, n, [spawn_rng(3, 0)])[0])
    assert max(np.abs(prefix).max(), np.abs(ref).max()) > 500.0


_LAWS = [("gaussian", GAUSSIAN), ("binary", BINARY)]
_SUB_BLOCK_EDGES = sorted({e + d for e in (_FILL_ROWS, 3 * _FILL_ROWS) for d in (-1, 0, 1)} | {15, 16, 17, 47, 48, 49})
_BLOCK_EDGES = [e + d for e in (_BLOCK, 2 * _BLOCK, 3 * _BLOCK) for d in (-1, 0, 1)]


@pytest.mark.parametrize(
    "law,n,beta",
    [pytest.param(law, n, 1.2, id=f"{name}-{n}") for name, law in _LAWS for n in _SUB_BLOCK_EDGES]
    + [
        pytest.param(law, n, beta, id=f"{name}-{n}-beta{beta}")
        for beta in (3.0, 3.5, 4.0, 6.0, 8.0, 12.0)
        for name, law in _LAWS
        for n in _SUB_BLOCK_EDGES + _BLOCK_EDGES
    ],
)
def test_replica_log_z_matches_row_loop_at_sub_block_edges(log_kernel_small, law, n, beta):
    # N + 1 rows end just before, on and just after a diagonal sub-block
    # edge, at the first and third edge and at 16 and 48, and at beta >= 3
    # also on the first three block edges: strong disorder, whose largest
    # block variations run from about 200 to 900 (±1) and from 300 to 4600
    # (Gaussian), so that blocks fill either side of the fill limit
    _assert_matches_row_loop(log_kernel_small, law, beta, 0.3, n, 4, 3)


def test_engine_mixes_steep_and_linear_replicas(log_kernel_small):
    # steep blocks (charge variation above _fill_limit: rows 1, 3 and 6
    # in their three full blocks, the last row in its second block only)
    # fill in log space next to blocks filled in the linear domain; each row
    # is its own single-row value bit for bit
    n = 3 * _BLOCK + 20
    rows = []
    for i, (beta, h) in enumerate([(1.0, 0.3), (2.0, 16.0), (0.5, -0.2), (1.0, -13.0), (1.5, 1.0)]):
        rows.append(charge_prefix(GAUSSIAN, beta, h, _draw(GAUSSIAN, n, [spawn_rng(6, i)])[0]))
    # log Z reads charge differences only: a row need not start at S_0 = 0
    rows += [rows[0] + 500.0, rows[1] - 500.0]
    jump = charge_prefix(BINARY, 0.8, 0.1, _draw(BINARY, n, [spawn_rng(6, 9)])[0])
    jump[_BLOCK + 10 :] += 800.0  # one step of 800 inside the second block only
    rows.append(jump)
    prefix = np.array(rows)
    variation = np.array([
        [np.abs(np.diff(row[j0 : j0 + _BLOCK])).sum() for j0 in range(0, n + 1, _BLOCK)] for row in prefix
    ])
    steep = variation > _fill_limit(log_kernel_small, n)
    assert steep[[1, 3, 6], :3].all() and not steep[[0, 2, 4, 5]].any()
    assert steep[-1].tolist() == [False, True, False, False]
    batch = _log_z_replicas(prefix, log_kernel_small)
    for i, row in enumerate(prefix):
        assert _log_z_replicas(row[None], log_kernel_small)[0] == batch[i]
        exact = log_Z(row, log_kernel_small)
        assert abs(batch[i] - exact) <= 1e-10 * max(1.0, abs(exact))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 71, 72, 73, 127, 128, 129, 191, 192, 193])
@pytest.mark.parametrize("law", [GAUSSIAN, BINARY], ids=["gaussian", "binary"])
def test_engine_linear_read_matches_row_loop_across_channel_scales(log_kernel_small, monkeypatch, law, n):
    # the fill reads p from the two accumulators in the linear domain.
    # Charge jumps of +900 and -900 between blocks, flat inside them, put the
    # channels' scales ref_1 + mid - ref_0 beyond +700 and -700, where one
    # channel's factor underflows; a steep row (h = 16) and a row with a
    # step of 800 inside its second block share their blocks with rows
    # filled in the linear domain.  N + 1 ends on both sides of sub-block
    # and block edges, and every row matches the row loop within 1e-10
    sites = np.arange(n + 1)
    rows = [charge_prefix(law, 1.2, 0.3, _draw(law, n, [spawn_rng(14, 0)])[0])]
    for i, jump in enumerate((900.0, -900.0), start=1):
        rows.append(charge_prefix(law, 0.8, 0.1, _draw(law, n, [spawn_rng(14, i)])[0]) + jump * (sites // _BLOCK))
    rows.append(charge_prefix(law, 2.0, 16.0, _draw(law, n, [spawn_rng(14, 3)])[0]))
    step = charge_prefix(law, 1.0, -0.2, _draw(law, n, [spawn_rng(14, 4)])[0])
    step[_BLOCK + 10 :] += 800.0
    rows.append(step)
    prefix = np.array(rows)
    gaps = []
    fill = partition._fill_linear

    def record(pushed, ref, charges, mid, steep, *rest):
        gap = ref[:, 1] + mid - ref[:, 0]
        gaps.extend(gap if steep is None else gap[~steep])
        return fill(pushed, ref, charges, mid, steep, *rest)

    monkeypatch.setattr(partition, "_fill_linear", record)
    got = _log_z_replicas(prefix, log_kernel_small)
    for value, row in zip(got, prefix):
        exact = log_Z(row, log_kernel_small)
        assert abs(value - exact) <= 1e-10 * max(1.0, abs(exact))
    if n >= _BLOCK:
        assert max(gaps) > 700.0 and min(gaps) < -700.0
        variation = np.abs(np.diff(prefix[:, :_BLOCK], axis=1)).sum(axis=1)
        limit = _fill_limit(log_kernel_small, n)
        assert variation[3] > limit and (variation[:3] <= limit).all()


@pytest.fixture(scope="module")
def limit_kernels(families):
    # the three families at upsilon = 2, and two whose masses fall steeply
    # across _BLOCK consecutive gaps, which lowers their fill limit
    kernels = {name: build_kernel(family, 1000) for name, family in families.items()}
    kernels["sub-1000"] = build_kernel(SlowlyVaryingFamily(FamilyKind.SUB_LOGARITHMIC, 1000.0), 1000)
    kernels["log-300"] = build_kernel(SlowlyVaryingFamily(FamilyKind.LOGARITHMIC, 300.0), 1000)
    return kernels


def _doubled_fill_limit(kernel, n):
    # _fill_limit with no premise on K: the range of log K over each window
    # of min(_BLOCK, n) consecutive gaps, its maxima and minima built by
    # doubling the window, and kappa the smallest of K(1), ..., K(_FILL_ROWS)
    width = min(_BLOCK, n)
    high = low = kernel.log_masses[1 : n + 1]
    span = 1
    while span < width:
        step = min(span, width - span)
        high, low = np.maximum(high[:-step], high[step:]), np.minimum(low[:-step], low[step:])
        span += step
    floor = float((high - low).max()) + math.log(4.0 / kernel.masses[1 : _FILL_ROWS + 1].min())
    return partition._FILL_VARIATION - floor


def test_fill_limit_reads_the_decreasing_kernel_as_the_doubled_window_does():
    # _fill_limit takes K to strictly decrease (L frozen below x_min and
    # non-increasing above it): every kernel of the three families over a
    # grid of upsilon, c_L and support, the ones the family refuses left
    # out, has strictly decreasing masses and log masses, and its limit
    # equals the doubled window's bit for bit at N across block and
    # sub-block edges up to the support
    sizes = (1, 2, 7, 8, 9, 63, 64, 65, 127, 128, 999, 1000, 20_000)
    built = 0
    for kind in FamilyKind:
        for upsilon in (1.01, 1.5, 2.0, 4.0, 20.0, 160.0, 300.0, 1000.0):
            for c_l in (1e-3, 1.0, 1e3):
                for support in (1000, 20_000):
                    try:
                        kernel = build_kernel(SlowlyVaryingFamily(kind, upsilon, c_l), support)
                    except ValueError:
                        continue
                    built += 1
                    assert (np.diff(kernel.masses[1:]) < 0).all()
                    assert (np.diff(kernel.log_masses[1:]) < 0).all()
                    for n in (n for n in sizes if n <= support):
                        assert _fill_limit(kernel, n) == _doubled_fill_limit(kernel, n), (kind, upsilon, c_l, n)
    assert built == 123


@pytest.mark.parametrize("name", ["sub", "log", "super", "sub-1000", "log-300"])
@pytest.mark.parametrize("law", [GAUSSIAN, BINARY], ids=["gaussian", "binary"])
def test_engine_fills_each_block_by_its_variation_at_the_limit(limit_kernels, monkeypatch, name, law):
    # rows whose second block varies by just less and just more than
    # _fill_limit: a beta = 0.5 row plus one step, a ramp or a sawtooth
    # inside that block, rising or falling, scaled so that the block's
    # variation sits 1e-3 below or above the limit.  The rows below it go
    # through the linear fill only, the rows above it through the log fill
    # in that block only, and every row matches the row loop within 1e-10
    kernel, n = limit_kernels[name], 3 * _BLOCK + 20
    limit = _fill_limit(kernel, n)
    sites = np.arange(n + 1.0)
    inside = (sites >= _BLOCK) & (sites < 2 * _BLOCK)
    shapes = [sites >= _BLOCK + 29, np.clip(sites - _BLOCK, 0, _BLOCK - 1), inside * ((sites - _BLOCK) % 8)]

    def variation(row):
        return np.abs(np.diff(row[_BLOCK : 2 * _BLOCK])).sum()

    rows, above = [], []
    for i, shape in enumerate(shapes):
        base = charge_prefix(law, 0.5, 0.1, _draw(law, n, [spawn_rng(15, i)])[0])
        for sign in (1.0, -1.0):
            for side in (-1e-3, 1e-3):
                # the variation is convex in the scale and below the target at 0
                low, high = 0.0, 1.0
                while variation(base + high * sign * shape) < limit + side:
                    high *= 2.0
                for _ in range(100):
                    scale = 0.5 * (low + high)
                    low, high = (scale, high) if variation(base + scale * sign * shape) < limit + side else (low, scale)
                rows.append(base + high * sign * shape)
                above.append(side > 0)
    prefix = np.array(rows)
    blocks, logged = [], []  # each block's steep mask, and the blocks filled in log space
    fill_linear, fill_log = partition._fill_linear, partition._fill_log

    def linear_spy(pushed, ref, charges, mid, steep, *rest):
        blocks.append([False] * len(charges) if steep is None else steep.tolist())
        return fill_linear(pushed, ref, charges, mid, steep, *rest)

    def log_spy(pushed, ref, charges, steep, *rest):
        assert steep.tolist() == blocks[-1]
        logged.append(len(blocks) - 1)
        return fill_log(pushed, ref, charges, steep, *rest)

    monkeypatch.setattr(partition, "_fill_linear", linear_spy)
    monkeypatch.setattr(partition, "_fill_log", log_spy)
    got = _log_z_replicas(prefix, kernel)
    assert blocks[1] == above and logged == [1]
    assert not any(any(block) for b, block in enumerate(blocks) if b != 1)
    for value, row in zip(got, prefix):
        exact = log_Z(row, kernel)
        assert abs(value - exact) <= 1e-10 * max(1.0, abs(exact))


def _pass_case(engine, kernel):
    # (run, rows, NaN rows, budget name, rule) of an engine: 101 charge rows,
    # with a NaN charge in row 70, run(blocks) the engine's values of them
    # and rule() its rows per pass; the trimmed rows also hold a +inf tail
    # in row 20 and one -inf charge in row 45
    if engine == "quenched":
        n = 2 * _BLOCK + 30
        # steep rows sit in the first, eleventh and last group of 4
        rows = _engine_rows(n, 101, 8, steep=(3, 41, 99), nan=(70,))
        steep = np.abs(np.diff(rows[:, :_BLOCK], axis=1)).sum(axis=1) > _fill_limit(kernel, n)
        assert np.flatnonzero(steep).tolist() == [3, 41, 99]
        return (lambda blocks: _log_z_replicas(blocks, kernel), rows, [70], "_PASS_BYTES",
                lambda: _quenched_pass(n)[2])
    plan = Trimmed(M=9, k=3, m=4, N=300)
    rows = _engine_rows(plan.N, 101, 9)
    # sites the short stages read
    rows[20, 120:] = np.inf
    rows[45, 200] = -np.inf
    rows[70, 150] = np.nan
    return (lambda blocks: _trimmed_log_z_replicas(blocks, kernel, plan), rows, [20, 45, 70],
            "_TRIMMED_PASS_BYTES", lambda: _trimmed_pass(plan, _trimmed_size(kernel, plan))[2])


@pytest.mark.parametrize("engine", ["quenched", "trimmed"])
def test_engine_passes_keep_every_row_bit_equal_to_its_single_row_call(log_kernel_small, monkeypatch, engine):
    # both engines take the same blockings of 101 rows: one array, blocks of
    # one, two and three groups, each with a ragged last block, and blocks
    # of 3, 8 and 90 rows, each wider than the one before, so that the
    # workspace of a fresh thread grows within the call; under the default
    # budget, one pass per block, and under a budget of one group per pass,
    # which cuts every block of more than one group into passes.  A row with
    # a non-finite charge gives NaN, with no numpy warning, and every value
    # equals its single-row call bit for bit
    run, rows, nan_rows, budget, rule = _pass_case(engine, log_kernel_small)
    singles = np.array([run(row[None])[0] for row in rows])
    assert np.flatnonzero(~np.isfinite(singles)).tolist() == nan_rows and np.isnan(singles[nan_rows]).all()
    sizes = (_GEMM_REPLICAS, 2 * _GEMM_REPLICAS, 3 * _GEMM_REPLICAS)
    blockings = [rows, (rows[:3], rows[3:11], rows[11:])]
    blockings += [[rows[i : i + size] for i in range(0, len(rows), size)] for size in sizes]
    assert rule() >= len(rows)
    for bytes_ in (getattr(partition, budget), 1):
        monkeypatch.setattr(partition, budget, bytes_)
        for blocks in blockings:
            np.testing.assert_array_equal(_in_fresh_thread(run, blocks), singles)
    assert rule() == _GEMM_REPLICAS
    # rows come in 2-D blocks only, also for a trimmed plan with no path
    for bad in ([rows[0]], rows[0]):
        with pytest.raises(ValueError, match="2-D"):
            run(bad)
    with pytest.raises(ValueError, match="2-D"):
        _trimmed_log_z_replicas(rows[0], log_kernel_small, Trimmed(M=3, k=1, m=3, N=10))


def test_quenched_pass_rule_floor_is_one_group():
    # the rule alone, no engine run: from N = 38 130 two groups no longer fit
    # _PASS_BYTES beside the push operand, so N = 40 000 runs one group per
    # pass; from N = 43 044 that one group and the operand pass the budget
    assert _quenched_pass(38_129)[2] == 2 * _GEMM_REPLICAS
    assert _quenched_pass(38_130)[2] == _quenched_pass(40_000)[2] == _GEMM_REPLICAS
    for n, over in ((43_043, False), (43_044, True)):
        shared, row = _pass_bytes(_quenched_pass(n))
        assert (shared + _GEMM_REPLICAS * row > partition._PASS_BYTES) is over


def test_engine_part_filled_groups_equal_full_groups(log_kernel_small):
    # a part-filled last group is padded with zero-charge rows, which are
    # evaluated and dropped: R = 1..9, 12 and 100 leave the last group
    # part-filled or fill it whole, with the steep rows 2 and 98 among them
    # from R = 3 and R = 99 on, and every row equals its value in a batch of
    # full groups bit for bit, with no numpy warning from the padding rows
    n = 2 * _BLOCK + 21
    prefix = np.array([
        charge_prefix(GAUSSIAN, 1.0, 16.0 if i in (2, 98) else 0.3, _draw(GAUSSIAN, n, [spawn_rng(13, i)])[0])
        for i in range(104)
    ])
    steep = np.abs(np.diff(prefix[:, :_BLOCK], axis=1)).sum(axis=1) > _fill_limit(log_kernel_small, n)
    assert np.flatnonzero(steep).tolist() == [2, 98]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full = _log_z_replicas(prefix, log_kernel_small)
        assert np.isfinite(full).all()
        for count in [*range(1, 10), 12, 100]:
            np.testing.assert_array_equal(_log_z_replicas(prefix[:count], log_kernel_small), full[:count])


@pytest.mark.parametrize("engine", ["quenched", "trimmed"])
def test_engines_read_rows_in_place_and_never_write_them(log_kernel_small, engine):
    # read-only charge rows: a pass of two whole groups, which the engine
    # reads in place, a part-filled last group and a pass of two groups
    # holding the NaN row 70, which go through a padded copy; each value
    # equals the writable call's bit for bit, the NaN row gives NaN, and
    # the caller's bytes are unchanged
    run, rows, _, _, _ = _pass_case(engine, log_kernel_small)
    for case, nan in ((rows[:8], []), (rows[:10], []), (rows[68:76], [2])):
        want = run(case.copy())
        frozen = case.copy()
        frozen.setflags(write=False)
        got = run(frozen)
        assert got.tobytes() == want.tobytes()
        assert np.flatnonzero(np.isnan(got)).tolist() == nan
        assert frozen.tobytes() == case.tobytes()


def _in_fresh_thread(call, *args):
    # the call's result, computed in a thread of its own, so on a workspace
    # that no earlier call has touched
    result = []
    worker = threading.Thread(target=lambda: result.append(call(*args)))
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    return result[0]


def _pass_bytes(shapes):
    # the bytes of an engine pass's shared arrays and of one row of its
    # per-row arrays, from the (shared, row, rows per pass) of its rule
    return tuple(8 * sum(math.prod(shape) for shape in part.values()) for part in shapes[:2])


def _engine_rows(n, replicas, seed, steep=(), nan=()):
    # Gaussian charge rows at beta = 1, h = 0.3, or h = 16 on the steep rows,
    # with a NaN charge in the rows of ``nan``
    prefix = np.array([
        charge_prefix(GAUSSIAN, 1.0, 16.0 if i in steep else 0.3, _draw(GAUSSIAN, n, [spawn_rng(seed, i)])[0])
        for i in range(replicas)
    ])
    prefix[list(nan), 5] = np.nan
    return prefix


def test_engine_workspace_reuse_keeps_every_call_bit_equal_to_a_fresh_thread(log_kernel_small, monkeypatch):
    # one thread, starting with no workspace, runs quenched and trimmed calls
    # that share it, growing it and then reusing it for smaller calls: a small
    # quenched call with a steep and a NaN row, trimmed calls at M = 12 and
    # M = 16 under the default budget and under a one-group budget, a wide
    # quenched pass, a call of 5 passes under a one-group budget, and the
    # wide pass again; each value equals the same call's in a fresh thread
    # bit for bit
    wide = _engine_rows(200, 100, 31)
    small = _engine_rows(70, 3, 32, steep=(0,), nan=(2,))
    steep = np.abs(np.diff(small[:, :_BLOCK], axis=1)).sum(axis=1) > _fill_limit(log_kernel_small, 70)
    assert steep.tolist() == [True, False, False]
    passes_n = 2 * _BLOCK + 5
    passes = _engine_rows(passes_n, 20, 33)
    shared, row = _pass_bytes(_quenched_pass(passes_n))
    budget = shared + _GEMM_REPLICAS * row
    m12, m16 = Trimmed(M=12, k=2, m=3, N=430), Trimmed(M=16, k=2, m=3, N=1500)
    trimmed = {plan: _engine_rows(plan.N, 20, plan.M) for plan in (m12, m16)}
    kernel, one_group = log_kernel_small, {"_TRIMMED_PASS_BYTES": 1}
    steps = [
        (_log_z_replicas, (small, kernel), {}),
        (_trimmed_log_z_replicas, (trimmed[m12], kernel, m12), {}),
        (_trimmed_log_z_replicas, (trimmed[m16], kernel, m16), one_group),
        (_log_z_replicas, (wide, kernel), {}),
        (_trimmed_log_z_replicas, (trimmed[m16], kernel, m16), {}),
        (_log_z_replicas, (passes, kernel), {"_PASS_BYTES": budget}),
        (_trimmed_log_z_replicas, (trimmed[m12], kernel, m12), one_group),
        (_log_z_replicas, (wide, kernel), {}),
    ]

    def run(engine, args, budgets):
        with monkeypatch.context() as patch:
            for name, value in budgets.items():
                patch.setattr(partition, name, value)
            if args[0] is passes:
                assert _quenched_pass(passes_n)[2] == _GEMM_REPLICAS
            if budgets is one_group:
                assert _trimmed_pass(args[2], _trimmed_size(kernel, args[2]))[2] == _GEMM_REPLICAS
            return engine(*args)

    in_turn = _in_fresh_thread(lambda: [run(*step) for step in steps])
    for step, got in zip(steps, in_turn):
        assert np.isnan(got).sum() == (step[1][0] is small)
        np.testing.assert_array_equal(got, _in_fresh_thread(run, *step))


def test_engine_threads_give_their_serial_values(log_kernel_small):
    # four threads, more than the two cores, each with a workspace of its
    # own, run different shapes in turn with a short switch interval; every
    # value equals its serial value bit for bit
    shapes = [
        _engine_rows(200, 100, 41),
        _engine_rows(70, 3, 42, steep=(0,), nan=(2,)),
        _engine_rows(2 * _BLOCK + 5, 20, 43),
        _engine_rows(1000, 9, 44, steep=(4,)),
    ]
    serial = [_log_z_replicas(prefix, log_kernel_small) for prefix in shapes]
    start = threading.Barrier(len(shapes))
    results = [[] for _ in shapes]

    def work(t):
        start.wait(timeout=60)
        for k in range(2 * len(shapes)):
            i = (t + k) % len(shapes)
            results[t].append((i, _log_z_replicas(shapes[i], log_kernel_small)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(t,)) for t in range(len(shapes))]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for runs in results:
        assert len(runs) == 2 * len(shapes)
        for i, values in runs:
            np.testing.assert_array_equal(values, serial[i])


@pytest.mark.parametrize("law", [GAUSSIAN, BINARY], ids=["gaussian", "binary"])
def test_replica_log_z_charge_rows_equal_single_rows(log_kernel_small, law):
    # the bulk charge rows of a 3-field grid give the values of rows built
    # one replica and one field at a time, as charge_prefix builds them, bit
    # for bit
    n, beta, seed, replicas, grid = 150, 0.9, 12, 11, [-0.3, 0.05, 0.6]
    got = est.replica_log_z(log_kernel_small, law, beta, grid, n, seed, replicas)
    rows = []
    for h in grid:
        for i in range(replicas):
            omega = _draw(law, n, [spawn_rng(seed, i)])[0]
            row = np.zeros(n + 1)
            row[1:] = np.cumsum(beta * omega - log_mgf(law, beta) + h)
            np.testing.assert_array_equal(charge_prefix(law, beta, h, omega), row)
            rows.append(row)
    want = _log_z_replicas(np.array(rows), log_kernel_small).reshape(len(grid), replicas)
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("law", [GAUSSIAN, BINARY], ids=["gaussian", "binary"])
def test_replica_log_z_on_an_empty_grid_or_no_replicas_is_empty(log_kernel_small, law):
    # the source draws nothing for an empty grid or no replicas
    assert est.replica_log_z(log_kernel_small, law, 1.0, [], 50, 1, 4).shape == (0, 4)
    assert est.replica_log_z(log_kernel_small, law, 1.0, 0.3, 50, 1, 0).shape == (0,)
    assert est.sweep_free_energy(log_kernel_small, law, 1.0, [], 50, 4, 1) == []


def test_replica_log_z_grid_field_equals_its_one_field_value(log_kernel_4000):
    # field 0.4 of the grid puts replica 22 at slot 45 mod 4 = 1 of its
    # group, alone at slot 22 mod 4 = 2; its value is the same bit for bit
    grid = est.replica_log_z(log_kernel_4000, GAUSSIAN, 1.5, [0.1, 0.4], 2000, 5, 23)
    alone = est.replica_log_z(log_kernel_4000, GAUSSIAN, 1.5, 0.4, 2000, 5, 23)
    np.testing.assert_array_equal(grid[1], alone)


@pytest.mark.parametrize("law", [GAUSSIAN, BINARY], ids=["gaussian", "binary"])
def test_replica_log_z_grid_fields_equal_one_field_values_at_slot_sensitive_widths(log_kernel_small, law):
    # OpenBLAS rounds a row of a product with a transposed (64, t) operand by
    # the row's slot in its group at widths t >= 193 that are not multiples
    # of 8; the push widths N + 1 - j1 of these N are such widths, and so are
    # their remainders past whole 256-target chunks.  Field 0.4 puts replica
    # i at slot i + 5 mod 4, one slot past its slot alone, and every grid
    # value is its one-field value bit for bit
    grid = [0.1, 0.4]
    for n in range(256, 575):
        if 193 <= (n - 63) % 256 and (n - 63) % 8:
            got = est.replica_log_z(log_kernel_small, law, 1.5, grid, n, 5, 5)
            alone = [est.replica_log_z(log_kernel_small, law, 1.5, h, n, 5, 5) for h in grid]
            np.testing.assert_array_equal(got, alone, err_msg=f"N = {n}")


@pytest.mark.parametrize("law", [GAUSSIAN, BINARY], ids=["gaussian", "binary"])
@pytest.mark.parametrize("n", [_BLOCK + _CHUNK, _BLOCK + _CHUNK + 150])
def test_replica_log_z_matches_row_loop_past_one_push_chunk(big_kernels, law, n):
    # the first block pushes to N + 1 - _BLOCK targets: one target past a
    # whole chunk, and 151 past it
    _assert_matches_row_loop(big_kernels["log"], law, 1.0, 0.2, n, 6, 2)


def test_replica_log_z_working_set_is_bounded_by_the_pass_budget(big_kernels):
    # at N = 8000 one pass holds every row of R = 8 and of R = 64; the
    # traced peak, less the charge rows of the source, stays within the
    # working set the pass rule counts (the push operand once per pass, each
    # row's per-row arrays), and it grows by one charge row and one row of
    # those arrays per row.  Each call runs in a fresh thread, so the peak
    # includes its whole workspace.  A first call at a tiny size runs the
    # source's and the engine's lazy imports before tracing starts, so the
    # slack measures the engine only
    import tracemalloc

    n = 8000
    shared, row = _pass_bytes(_quenched_pass(n))
    assert _quenched_pass(n)[2] >= 64
    assert shared + _quenched_pass(n)[2] * row <= partition._PASS_BYTES
    _in_fresh_thread(est.replica_log_z, big_kernels["log"], GAUSSIAN, 1.0, 0.4, 100, 2, 8)
    peaks = []
    for replicas in (8, 64):
        tracemalloc.start()
        try:
            _in_fresh_thread(est.replica_log_z, big_kernels["log"], GAUSSIAN, 1.0, 0.4, n, 2, replicas)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        rows = 8 * replicas * (n + 1)
        assert peaks[-1] - rows <= shared + replicas * row + (1 << 20)
    assert peaks[1] - peaks[0] <= 56 * (8 * (n + 1) + row) + 256 * 1024


def test_replica_log_z_holds_one_pass_of_charge_rows(log_kernel_small, monkeypatch):
    # under a budget of one group of 4 rows per pass, a 2-field grid is drawn
    # and evaluated 2 replicas at a time, so the traced peak at N = 500
    # holds no charge row per replica: from R = 8 to R = 200 it grows by less
    # than 512 bytes per replica (its values, its stream's state words),
    # where a whole fields x R x (N + 1) prefix array would add 8 kB per
    # replica.  Each traced call runs in a fresh thread, after a warm-up call
    # has done the lazy imports
    import tracemalloc

    n, grid = 500, [0.4, 0.2]
    monkeypatch.setattr(partition, "_PASS_BYTES", 1)
    assert _quenched_pass(n)[2] == _GEMM_REPLICAS
    _in_fresh_thread(est.replica_log_z, log_kernel_small, GAUSSIAN, 1.0, grid, 100, 2, 8)
    peaks = []
    for replicas in (8, 200):
        tracemalloc.start()
        try:
            _in_fresh_thread(est.replica_log_z, log_kernel_small, GAUSSIAN, 1.0, grid, n, 2, replicas)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 512 * (200 - 8)


@pytest.mark.parametrize("h", [0.4, -0.4])
def test_log_annealed_z_matches_row_loop_at_4000(log_kernel_4000, h):
    # the tilted renewal mass against the row-loop log_Z on zero-disorder charges
    n = 4000
    exact = log_Z(charge_prefix(GAUSSIAN, 0.0, h, np.zeros(n)), log_kernel_4000)
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


@pytest.mark.parametrize("law", [GAUSSIAN, BINARY], ids=["gaussian", "binary"])
@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
def test_sweep_rows_are_nondecreasing_convex_and_at_most_n_steep_in_h(log_kernel_small, law, beta):
    # d/dh log Z is the mean number of sites below the interface, in [0, N],
    # and log Z is a log-sum-exp of paths' weights, each linear in h: over a
    # 41-point sweep grid every replica's differences obey 0 <= dlog Z <=
    # N dh and d^2 log Z >= 0.  Tolerance: each value is within 1e-10
    # max(1, |log Z|) of exact, the engine's gate against the row loop, so a
    # first difference may read two such errors off, a second four
    n = 500
    grid = np.linspace(-0.6, 0.6, 41)
    values = est.replica_log_z(log_kernel_small, law, beta, grid, n, 9, 4)
    err = 1e-10 * np.maximum(1.0, np.abs(values))
    first, second = np.diff(values, axis=0), np.diff(values, 2, axis=0)
    assert np.all(first >= -(err[1:] + err[:-1]))
    assert np.all(first <= n * np.diff(grid)[:, None] + err[1:] + err[:-1])
    assert np.all(second >= -(err[2:] + 2.0 * err[1:-1] + err[:-2]))


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
        omega = _draw(law, n, [spawn_rng(seed, i)])[0]
        exact = brute_force_log_Z(charge_prefix(law, beta, h, omega), log_kernel_small)
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


@pytest.mark.parametrize("law", [GAUSSIAN, BINARY], ids=["gaussian", "binary"])
def test_tilted_block_success_matches_scipy(law):
    # the normal tail against ndtr and the binomial tail against betainc, at
    # the penalization event thresholds b lambda'(beta) and past the mean
    from scipy.special import betainc, ndtr

    worst = 0.0
    for beta in np.linspace(0.05, 5.0, 12):
        lam_prime = math.tanh(beta) if law is BINARY else beta
        for rate in (0.5 * lam_prime, 0.9 * lam_prime, 0.99 * lam_prime, min(1.05 * lam_prime, 0.999)):
            for ell in (1, 2, 7, 8, 51, 400, 1045, 3000, 20000):
                got = est.tilted_block_success(law, float(beta), rate, ell)
                if law is GAUSSIAN:
                    ref = float(ndtr((beta - rate) * math.sqrt(ell)))
                else:
                    p_plus = 1.0 / (1.0 + math.exp(-2.0 * beta))
                    t = math.ceil(ell * (1.0 + rate) / 2.0)
                    ref = float(betainc(t, ell - t + 1, p_plus)) if t <= ell else 0.0
                if ref > 1e-100:
                    worst = max(worst, abs(got - ref) / ref)
                else:
                    assert abs(got - ref) <= 1e-100
    assert worst <= 1e-13


def test_tilted_block_success_binary_at_saturated_and_flat_laws():
    # p = 1 (every charge +1) reaches any threshold; p = 1/2 at beta = 0 is a fair coin
    assert est.tilted_block_success(BINARY, 40.0, 0.9, 500) == 1.0
    assert est.tilted_block_success(BINARY, 0.0, 0.0, 4) == pytest.approx(11 / 16, rel=1e-15)
    assert est.tilted_block_success(BINARY, 0.3, 1.0, 9) == pytest.approx(
        (1.0 / (1.0 + math.exp(-0.6))) ** 9, rel=1e-14
    )
    # a mean rate past 1 needs ceil(ell (1 + rate) / 2) = 13 > ell = 10 plus signs
    assert est.tilted_block_success(BINARY, 1.0, 1.5, 10) == 0.0


def test_near_term_integral_matches_quad_on_the_coarse_grid():
    # the fixed Gauss-Legendre rule of coarse_graining_check against adaptive
    # quadrature (break point at the freeze kink), over the (family, law,
    # beta, n_win) grid the coarse checks run on, windows as small as 5 included
    from scipy.integrate import quad

    from copolab.bounds import psi

    worst, cases = 0.0, 0
    for kind in FamilyKind:
        for upsilon in (1.5, 2.0, 3.0):
            family = SlowlyVaryingFamily(kind, upsilon)
            for law in (GAUSSIAN, BINARY):
                for beta in (0.5, 1.0, 1.5):
                    c3 = 0.9 * q1(law, beta)
                    for n_win in (5, 100, 120, 150, 200, 240, 1000, 20000):
                        log_n = math.log(n_win)
                        if kind is not FamilyKind.SUPER_LOGARITHMIC and math.log(log_n) <= 1.0:
                            continue
                        psi_val = psi(family, log_n, eps=0.05)
                        if psi_val <= 1.0:
                            continue
                        theta = 1.0 - 1.0 / log_n
                        kink = math.log(family.x_min) / log_n
                        ref, _ = quad(
                            lambda y: float(family.evaluate_log(log_n * y)) ** theta * math.exp(y),
                            1.0, psi_val, limit=200, epsabs=0.0, epsrel=1e-13,
                            points=[kink] if 1.0 < kink < psi_val else None,
                        )
                        got = est._near_term_integral(family, log_n, theta, psi_val)
                        worst = max(worst, abs(got - ref) / ref)
                        cases += 1
    assert cases > 200
    assert worst <= 1e-13


def test_legendre_rule_matches_numpy_leggauss():
    # the Golub-Welsch nodes refined by one Newton step, and the weights from
    # P_n' there, against numpy's rule, which the package no longer imports
    from numpy.polynomial.legendre import leggauss

    nodes, weights = est._legendre_rule()
    want_nodes, want_weights = leggauss(est._QUAD_NODES)
    np.testing.assert_allclose(nodes, want_nodes, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(weights, want_weights, rtol=0.0, atol=1e-14)


def test_trimmed_plan_schedule_and_constraints():
    plan = est.trimmed_plan(2.0, GAUSSIAN, beta=0.5, h=0.3, c1=3.3, c2=1.5)
    assert (plan.k, plan.M, plan.m) == (2, 20, 8)
    assert plan.N == int(plan.M**2 * math.log(plan.M) ** 3)
    assert plan.m == int(plan.N / (plan.M**2 * math.log(plan.M)))
    with pytest.raises(ValueError, match="c1"):
        est.trimmed_plan(2.0, GAUSSIAN, beta=0.5, h=0.3, c1=2.9, c2=1.5)
    with pytest.raises(ValueError, match="c2"):
        est.trimmed_plan(2.0, GAUSSIAN, beta=2.0, h=0.3, c1=3.3, c2=1.0)
    # N grows like e^{2 c2 k}: h = 0.27 asks for 7.4e5 sites, h = 1e-3 for
    # more than e^{300}; both are refused before any exp
    for h in (0.27, 1e-3):
        with pytest.raises(ValueError, match="budget"):
            est.trimmed_plan(2.0, GAUSSIAN, beta=0.5, h=h, c1=3.3, c2=1.5)


def test_trimmed_moment_check_refuses_an_empty_plan_before_drawing(log_kernel_small, monkeypatch):
    # m = 3 long/short pairs need at least m (M + 1) + 1 = 13 sites, more than N = 10
    plan = partition.Trimmed(M=3, k=1, m=3, N=10)

    def no_draws(*args):
        raise AssertionError("replicas drawn for an empty plan")

    monkeypatch.setattr(est, "replica_rngs", no_draws)
    with pytest.raises(ValueError, match="empty for this plan"):
        est.trimmed_moment_check(log_kernel_small, GAUSSIAN, 0.5, 0.3, plan, replicas=100)


def test_trimmed_moment_check_refuses_an_overflowing_field_before_drawing(log_kernel_small, monkeypatch):
    # a short stage weighs up to e^{hk}: h k = 800 is refused before the engine overflows
    plan = partition.Trimmed(M=3, k=2, m=2, N=40)

    def no_draws(*args):
        raise AssertionError("replicas drawn for an overflowing field")

    monkeypatch.setattr(est, "replica_rngs", no_draws)
    with pytest.raises(OverflowError, match="exponent guard"):
        est.trimmed_moment_check(log_kernel_small, GAUSSIAN, 0.5, 400.0, plan, replicas=100)


@pytest.mark.parametrize("family", ["sub", "log", "super"])
@pytest.mark.parametrize("law", [GAUSSIAN, BINARY], ids=["gaussian", "binary"])
def test_backward_mean_equals_the_engine_on_the_zero_disorder_row(big_kernels, family, law):
    # the five moments_check plans and criterion 4's (M = 20, k = 2, m = 8):
    # the backward stage loop's mean against the trimmed engine on the
    # zero-disorder charges, h per site
    kernel, h = big_kernels[family], 0.3
    schedules = ((3.3, 1.0), (3.3, 1.2), (3.3, 1.4), (3.3, 1.6), (5.0, 1.0), (3.3, 1.5))
    plans = [est.trimmed_plan(2.0, law, 0.5, h, c1, c2) for c1, c2 in schedules]
    assert (plans[-1].M, plans[-1].k, plans[-1].m) == (20, 2, 8)
    for plan in plans:
        span = partition._trimmed_size(kernel, plan) - 1
        row = charge_prefix(law, 0.0, h, np.zeros(span))
        engine = float(partition._trimmed_log_z_replicas(row[None], kernel, plan)[0])
        mean = partition._trimmed_stages(row, kernel, plan)[1]
        assert abs(mean - engine) <= 1e-13 * max(1.0, abs(engine)), plan


def test_trimmed_moment_check_runs_the_trimmed_engine_once(log_kernel_small, monkeypatch):
    # the replicas go through the engine in one call; the mean takes none
    calls = []
    engine = partition._trimmed_log_z_replicas

    def counted(*args):
        calls.append(args)
        return engine(*args)

    monkeypatch.setattr(est, "_trimmed_log_z_replicas", counted)
    plan = est.trimmed_plan(2.0, GAUSSIAN, 0.5, 0.3, 3.3, 1.0)
    est.trimmed_moment_check(log_kernel_small, GAUSSIAN, 0.5, 0.3, plan, replicas=100, seed=3)
    assert len(calls) == 1


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
            weight *= kernel.masses[ell]
            if g % 2 == 0:
                weight *= math.exp(h * ell)
                shorts.append((pos, pos + ell))
            pos += ell
        final = plan.N - pos
        if final < 1:
            continue
        weight *= kernel.masses[final]
        paths.append((weight, shorts))
    return paths


@pytest.mark.parametrize("law", [GAUSSIAN, BINARY], ids=["gaussian", "binary"])
def test_trimmed_identity_against_exhaustive_enumeration(log_kernel_small, law):
    # tiny plan: enumerate every path pair, integrate the disorder per site
    # (factor e^{q2} on doubly-covered sites), and pin both estimators
    plan, beta, h = partition.Trimmed(M=3, k=2, m=2, N=40), 0.7, 0.25
    q2v = q2(law, beta)
    paths = _enumerate_trimmed_paths(log_kernel_small, plan, h)
    total = math.fsum(w for w, _ in paths)

    # restricted mean: enumeration vs the convolution DP (sign factors 2^-5)
    mean_prefix = charge_prefix(law, 0.0, h, np.zeros(plan.N))
    exact_mean = partition._trimmed_log_z_replicas(mean_prefix[None], log_kernel_small, plan)[0]
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
        log_kernel_small, law, beta, h, plan, replicas=4000, seed=31
    )
    assert report["identity_lhs_mean"] == pytest.approx(
        ratio_exact, abs=4 * report["identity_lhs_sigma"]
    )
    assert report["identity_rhs_mean"] == pytest.approx(
        ratio_exact, abs=4 * report["identity_rhs_sigma"]
    )
    # the report's mean comes from the sampler's backward recursion
    assert report["exact_log_mean_restricted"] == pytest.approx(
        math.log(total) + 5 * math.log(0.5), rel=1e-12
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
    span = partition._trimmed_size(kernel, plan) - 1
    stages = partition._trimmed_stages(charge_prefix(law, 0.0, 0.3, np.zeros(span)), kernel, plan)[0]
    long_w = 0.5 * kernel.masses[plan.M : plan.M * plan.M + 1]
    short_w = 0.5 * kernel.masses[1 : plan.k + 1] * np.exp(0.3 * np.arange(1, plan.k + 1))
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


@pytest.mark.parametrize("law", [GAUSSIAN, BINARY], ids=["gaussian", "binary"])
def test_trimmed_moment_check_report_does_not_depend_on_the_pass_budget(log_kernel_small, law, monkeypatch):
    # the default budget runs 130 replicas in one engine pass and one
    # sampler chunk; a budget of one byte, one group per pass and two pairs
    # per chunk, gives the same report
    plan = est.trimmed_plan(2.0, law, 0.5, 0.3, 3.3, 1.0)
    reports = []
    for budget in (partition._TRIMMED_PASS_BYTES, 1):
        monkeypatch.setattr(partition, "_TRIMMED_PASS_BYTES", budget)
        monkeypatch.setattr(est, "_TRIMMED_PASS_BYTES", budget)
        report = est.trimmed_moment_check(log_kernel_small, law, 0.5, 0.3, plan, 130, seed=4)
        reports.append(json.dumps(report))
    assert reports[0] == reports[1]


def test_trimmed_moment_check_working_set_does_not_grow_with_replicas(big_kernels):
    # replicas are drawn and evaluated one engine group at a time, so the
    # traced peak at the largest benchmark plan (M = 24) is flat in R; each
    # traced call runs in a fresh thread, so its peak counts the workspace
    # it grows, after a warm-up call has done the lazy imports
    import tracemalloc

    plan = est.trimmed_plan(2.0, GAUSSIAN, 0.5, 0.3, 3.3, 1.6)
    assert plan.M == 24
    args = (big_kernels["log"], GAUSSIAN, 0.5, 0.3, plan)
    est.trimmed_moment_check(*args, 100, seed=1)
    peaks = []
    for replicas in (100, 400):
        tracemalloc.start()
        try:
            _in_fresh_thread(est.trimmed_moment_check, *args, replicas, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 256 * 1024
    assert max(peaks) < 4 * 1024 * 1024


def test_penalization_plan_and_final_bound_paths(big_kernels):
    kernel = big_kernels["log"]
    law, beta, h = GAUSSIAN, 1.0, 0.0125
    plan = est.penalization_plan(kernel, h, b=0.9)
    assert plan.k == int(plan.phi / h)
    report = est.penalization_check(kernel, law, beta, h, plan)
    assert report["event_threshold"] == pytest.approx(0.9 * 1.0)
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
            plan = est.penalization_plan(kernel, h)
            report = est.penalization_check(kernel, GAUSSIAN, 1.0, h, plan)
            if report["linf_holds"]:
                assert report["defect_nonpositive"]


def test_penalization_rate_continuity_toward_full_tilt(big_kernels):
    # as b -> 1 the Chernoff rate approaches q1
    kernel = big_kernels["log"]
    law, beta, h = GAUSSIAN, 1.2, 0.0125
    rates = []
    for b in (0.9, 0.99, 0.999):
        plan = est.penalization_plan(kernel, h, b=b)
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
        plan = est.penalization_plan(kernel, h)
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


def test_coarse_window_terms_and_green_constants_from_their_sums(log_kernel_small):
    # a_term and b_term split sum_{n=N}^{M} sum_j K(n - j)^theta u(j) at j = N // 2, summed
    # here over (n, j) directly; M >= N, so every n - j >= 1.  The Green constants are the
    # largest u(n) tail(1/h)^2 / K(n) over n <= green_n_max // 2 and n <= green_n_max
    kernel, c3, green = log_kernel_small, 0.45, 400
    h = c3 / math.log(120.0)
    rep = est.coarse_graining_check(kernel, GAUSSIAN, 1.0, h, c3, replicas=2, seed=1, green_n_max=green)
    n_win, m_eff, theta = rep["n_window"], rep["m_effective"], rep["theta"]
    assert n_win <= m_eff <= kernel.support_cap
    u = renewal_mass(check_eta_kernel(kernel, h, rep["eta"]), green).tolist()
    masses = kernel.masses.tolist()

    def split(js):
        return math.fsum(u[j] * masses[n - j] ** theta for j in js for n in range(n_win, m_eff + 1))

    assert rep["a_term"] == pytest.approx(split(range(0, n_win // 2)), rel=1e-12)
    assert rep["b_term"] == pytest.approx(split(range(n_win // 2, n_win)), rel=1e-12)
    tail2 = kernel.family.tail(1.0 / h) ** 2
    half = max(u[n] * tail2 / masses[n] for n in range(1, green // 2 + 1))
    full = max(u[n] * tail2 / masses[n] for n in range(1, green + 1))
    assert rep["green_constant_half_range"] == pytest.approx(half, rel=1e-15)
    assert rep["green_constant_full_range"] == pytest.approx(full, rel=1e-15)


def test_coarse_analytic_integral_and_spot_benchmarks_from_their_formulas(log_kernel_small):
    # the formulas of the coarse_graining_check docstring: the near term's analytic
    # integral (21 / tail(1/h)) 2 (c3/h) int_1^psi L(e^{(c3/h) y})^theta e^y dy, and each
    # spot benchmark e^3 u(j), as is rho_proxy e^3 (a_term + b_term).  The constants 21
    # and e^3 come from the source's coarse-graining proof, whose text is not in the
    # repository (ROADMAP item 13), so these pin the documented formulas only
    from scipy.integrate import quad

    from copolab.bounds import psi

    kernel, c3 = log_kernel_small, 0.45
    h = c3 / math.log(120.0)
    rep = est.coarse_graining_check(kernel, GAUSSIAN, 1.0, h, c3, replicas=2, seed=1, green_n_max=400)
    family, log_n, theta = kernel.family, c3 / h, rep["theta"]
    psi_val = psi(family, log_n, eps=0.05)
    assert psi_val > 1.0
    integral, _ = quad(
        lambda y: float(family.evaluate_log(log_n * y)) ** theta * math.exp(y),
        1.0, psi_val, epsabs=0.0, epsrel=1e-13,
    )
    want = 21.0 / family.tail(1.0 / h) * 2.0 * log_n * integral
    assert rep["a_term_analytic_integral"] == pytest.approx(want, rel=1e-12)
    # u by the per-site recursion u(n) = sum_l mass(l) u(n - l) of the crossover tilt
    tilted = check_eta_kernel(kernel, h, rep["eta"]).tolist()
    u = [1.0]
    for n in range(1, rep["n_window"] + 1):
        u.append(math.fsum(tilted[l] * u[n - l] for l in range(1, n + 1)))
    spots = rep["fractional_moment_spot"]
    assert len(spots) == 4
    for spot in spots:
        assert spot["benchmark"] == pytest.approx(math.exp(3.0) * u[spot["j"]], rel=1e-12)
    assert rep["rho_proxy"] == pytest.approx(math.exp(3.0) * (rep["a_term"] + rep["b_term"]), rel=1e-15)


@pytest.mark.parametrize("family", ["sub", "log", "super"])
@pytest.mark.parametrize("law", [GAUSSIAN, BINARY], ids=["gaussian", "binary"])
def test_product_lower_bound_from_its_formula(big_kernels, family, law):
    # m log((1/2 sum K over [M, M^2]) (1/2 sum K(l) e^{hl} over [1, k])) + log(K(N)/3)
    kernel, h = big_kernels[family], 0.3
    plan = est.trimmed_plan(2.0, law, 0.5, h, 3.3, 1.2)
    rep = est.trimmed_moment_check(kernel, law, 0.5, h, plan, replicas=100, seed=5)
    masses = kernel.masses.tolist()
    long_sum = math.fsum(masses[l] / 2.0 for l in range(plan.M, plan.M**2 + 1))
    short_sum = math.fsum(masses[l] * math.exp(h * l) / 2.0 for l in range(1, plan.k + 1))
    want = plan.m * math.log(long_sum * short_sum) + math.log(masses[plan.N] / 3.0)
    assert abs(rep["product_lower_bound_log"] - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("name", ["sub", "log", "super"])
def test_induction_envelope_from_its_formula(families, name):
    # (1 + e^{k q2} C k log k log M / M)^m with C = 4 c_sup / (c_L log 2), c_sup the
    # largest c L(n) = n K(n) on the support (L is frozen below x_min, nonincreasing above)
    kernel, plan, beta = build_kernel(families[name], 2000), partition.Trimmed(M=6, k=2, m=2, N=60), 0.5
    rep = est.trimmed_moment_check(kernel, GAUSSIAN, beta, 0.3, plan, replicas=100, seed=2)
    c_sup = max(n * mass for n, mass in enumerate(kernel.masses.tolist()))
    c_const = 4.0 * c_sup / (kernel.family.c_L * math.log(2.0))
    growth = math.exp(plan.k * q2(GAUSSIAN, beta)) * c_const * plan.k * math.log(plan.k)
    want = plan.m * math.log(1.0 + growth * math.log(plan.M) / plan.M)
    assert rep["induction_bound_log"] == pytest.approx(want, rel=1e-12)


def test_linf_condition_from_its_formula(big_kernels):
    # e^phi phi 4 L(k) / tail(k), with L(k) = k K(k) / c read off the masses
    for kernel in big_kernels.values():
        for h in (0.1, 0.0125, 0.0015625):
            plan = est.penalization_plan(kernel, h)
            rep = est.penalization_check(kernel, GAUSSIAN, 1.0, h, plan)
            numerator = plan.k * float(kernel.masses[plan.k]) / kernel.normalization
            want = math.exp(plan.phi) * plan.phi * 4.0 * numerator / kernel.family.tail(plan.k)
            assert rep["linf_lhs"] == pytest.approx(want, rel=1e-12)


def test_coarse_analytic_integral_is_zero_where_psi_is_at_most_one(log_kernel_small):
    # c3/h = 2.8: the window is e^2.8, 16 sites, and psi(2.8) = 0.95 log 2.8
    # < 1 leaves the near term's integral over [1, psi] empty
    c3 = 0.45
    rep = est.coarse_graining_check(log_kernel_small, GAUSSIAN, 1.0, c3 / 2.8, c3, replicas=2, seed=1,
                                    green_n_max=400)
    assert rep["n_window"] == 16
    assert rep["a_term_analytic_integral"] == 0.0


def test_coarse_graining_infeasible_report(big_kernels):
    kernel = big_kernels["log"]
    report = est.coarse_graining_check(kernel, GAUSSIAN, 1.0, h=0.01, c3=0.45)
    assert report["feasible"] is False
    assert report["required_log_n"] == pytest.approx(45.0)


def test_coarse_graining_supercritical_tilt_is_infeasible(big_kernels):
    c3 = 0.9 * q1(GAUSSIAN, 1.0)
    report = est.coarse_graining_check(big_kernels["log"], GAUSSIAN, 1.0, h=0.08, c3=c3)
    assert report["feasible"] is False
    assert "renewal mass left the float range" in report["note"]


def test_coarse_graining_rejects_c3_above_rate(big_kernels):
    with pytest.raises(ValueError, match="c3"):
        est.coarse_graining_check(big_kernels["log"], GAUSSIAN, 1.0, h=0.05, c3=0.6)


@pytest.mark.parametrize("replicas", [1, 0, -3])
def test_coarse_graining_refuses_fewer_than_two_replicas(big_kernels, replicas):
    # one replica has no spot standard error (a NaN stderr with ddof=1)
    c3 = 0.45
    with pytest.raises(ValueError, match="at least 2 replicas"):
        est.coarse_graining_check(
            big_kernels["log"], GAUSSIAN, 1.0, c3 / math.log(120.0), c3, replicas=replicas
        )


@pytest.mark.parametrize("green_n_max", [1, 0, -5])
def test_coarse_graining_refuses_a_green_range_below_two(big_kernels, green_n_max):
    # the Green constant's half range green_n_max // 2 must hold a site
    c3 = 0.45
    with pytest.raises(ValueError, match="green_n_max must be at least 2"):
        est.coarse_graining_check(
            big_kernels["log"], GAUSSIAN, 1.0, c3 / math.log(120.0), c3, replicas=4,
            green_n_max=green_n_max,
        )


def test_coarse_graining_refuses_a_negative_seed(big_kernels):
    # spot j draws from seed + j, which a negative seed would make non-negative
    c3 = 0.45
    with pytest.raises(ValueError, match="non-negative"):
        est.coarse_graining_check(
            big_kernels["log"], GAUSSIAN, 1.0, c3 / math.log(120.0), c3, replicas=4, seed=-1
        )


def test_verifier_reports_are_deterministic(moment_kernel):
    import json

    plan = est.trimmed_plan(2.0, GAUSSIAN, beta=0.5, h=0.3, c1=3.3, c2=1.5)
    reports = [
        est.trimmed_moment_check(moment_kernel, GAUSSIAN, 0.5, 0.3, plan, replicas=150, seed=6)
        for _ in range(2)
    ]
    assert json.dumps(reports[0], sort_keys=True) == json.dumps(reports[1], sort_keys=True)
