"""The verification suites of ``copolab verify``.

A suite's signature declares what it reads: kernel, law, and of seed,
beta, h and replicas the ones it reads, each run flag with its default;
``copolab verify`` passes it those alone, a run flag only when given.
Each returns a dict of recorded values plus "checks", a list of {name,
kind, ok} where kind is "assert" or "scan"; scan-kind checks record
measured thresholds and never fail a run.  Payload field names are stable:
"oracle" reports worst_relative_error (row-loop and batched DP against
enumeration), worst_block_edge_relative_error (batched DP against the row
loop at block_edge_sizes, the edges of its 8-row sub-blocks and 64-site
blocks), worst_trimmed_relative_error (batched trimmed engine against its
row loop on trimmed_trials small plans), worst_two_pass_relative_error
(every row of two_pass_batch, two groups of rows and then one given to the
batched DP as two blocks, so in two passes, against the row loop),
worst_trimmed_two_pass_relative_error (the same for the trimmed engine on
trimmed_two_pass against its row loop),
worst_annealed_relative_error (annealed values at annealed_fields against
the row loop), worst_flip_relative_error, worst_reversal_relative_error and
least_superadditivity_margin (the batched DP's sign flip, reversal and
superadditivity on the identity_rows, n, replicas per law, betas, h and the
split point) and streams_checked (replica streams
of stream_seeds compared with numpy's SeedSequence(seed, spawn_key=(i,))
streams); "moments" embeds the trimmed-ensemble report
(exact_log_mean_restricted, product_lower_bound_log,
identity_{lhs,rhs}_{mean,sigma}, identity_abs_diff, identity_three_sigma,
induction_bound_log, plan {M, k, m, N}, and the beta, h, c1 and c2 of its
schedule); "penalization" lists per-h points (k, defect_expression,
linf_holds, log_bound_closed_form, log_bound_rate_form); "coarse" reports
n_window, theta, a_term, b_term, a_term_analytic_integral, rho_proxy, the
fractional_moment_spot grid and the green_constant pair, or feasible false
with a note when the window exceeds its budget or the crossover tilt is
supercritical (a scan finding, window_feasible), and the beta, h and
replicas it ran with.
"""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np

from . import estimators
from .disorder import BINARY, GAUSSIAN, q1, replica_rngs, spawn_rng
from .estimators import _replica_prefixes
from .kernel import _MASS_BLOCK, build_kernel, renewal_mass
from .partition import (
    _BLOCK,
    _FILL_ROWS,
    _GEMM_REPLICAS,
    Trimmed,
    _log_z_replicas,
    _trimmed_log_z_replicas,
    brute_force_log_Z,
    charge_prefix,
    log_Z,
    log_Z_restricted,
    log_annealed_Z,
)


def _worst_relative_error(pairs) -> float:
    """Largest |value - exact| / max(1, |exact|) over (value, exact) pairs, 0 for none."""
    worst = 0.0
    for value, exact in pairs:
        worst = max(worst, abs(value - exact) / max(1.0, abs(exact)))
    return worst


def oracle(kernel, law, seed) -> dict:
    # the row-loop log_Z and the batched replica DP against enumeration at
    # N <= 12, the batched DP against the row loop across sub-block and
    # block edges, the batched trimmed engine against its row loop on small
    # plans, both engines against their row loops over two passes of
    # groups, the blocked renewal mass and the annealed value against the
    # row loop at beta = 0 (Z_N = u(N) at h = 0),
    # and the replica streams against numpy's SeedSequence; the trials come
    # from numpy's root stream of the seed, which has no spawn key
    rng = np.random.default_rng(seed)

    def draw(law_i, n, count, source=rng):
        # the charge rows of count replicas at a random (beta, h) and replica seed
        beta_i, h_i = float(source.uniform(0.0, 2.0)), float(source.uniform(-1.0, 1.0))
        (rows,) = _replica_prefixes(law_i, beta_i, h_i, n, int(source.integers(0, 2**32)), count)
        return rows

    def batch(law_i, n, count):
        # the batched DP's value of each drawn row, with the row
        rows = draw(law_i, n, count)
        return zip(_log_z_replicas(rows, kernel).tolist(), rows)

    def two_passes(engine, exact, n, source):
        # three groups of rows of each law, given to an engine as two blocks,
        # of two groups and of one, so in two passes, as a block boundary is
        # always a pass boundary; every row, both sides of it, against exact
        group, pairs = _GEMM_REPLICAS, []
        for law_i in (GAUSSIAN, BINARY):
            rows = draw(law_i, n, 3 * group, source)
            pairs += zip(engine((rows[: 2 * group], rows[2 * group :])).tolist(), map(exact, rows))
        counts = {"replicas": 3 * group, "rows_per_pass": 2 * group, "rows_checked": 3 * group}
        return counts, _worst_relative_error(pairs)

    enumerated = []
    trials = 60
    for i in range(trials):
        n = int(rng.integers(2, 13))
        for value, row in batch(GAUSSIAN if i % 2 == 0 else BINARY, n, 2):
            brute = brute_force_log_Z(row, kernel)
            enumerated += [(log_Z(row, kernel), brute), (value, brute)]
    worst = _worst_relative_error(enumerated)
    edges = (_FILL_ROWS, 3 * _FILL_ROWS, _BLOCK)  # sub-block and block edges
    sizes = tuple(e + d for e in edges for d in (-1, 0, 1)) + (3 * _BLOCK + 5,)
    worst_blocked = _worst_relative_error(
        (value, log_Z(row, kernel))
        for n in sizes for law_i in (GAUSSIAN, BINARY) for value, row in batch(law_i, n, 3)
    )
    trimmed = []
    trimmed_trials = 12
    for i in range(trimmed_trials):
        # small feasible plans, N from the shortest path to past the reach clip
        big_m, k, m = int(rng.integers(2, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
        plan = Trimmed(big_m, k, m, int(rng.integers(m * (big_m + 1) + 1, m * (big_m**2 + k) + 3)))
        rows = draw(GAUSSIAN if i % 2 == 0 else BINARY, plan.N, 3)
        values = _trimmed_log_z_replicas(rows, kernel, plan).tolist()
        trimmed += [(v, log_Z_restricted(row, kernel, plan)) for v, row in zip(values, rows)]
    worst_trimmed = _worst_relative_error(trimmed)
    two_pass, worst_two_pass = two_passes(
        lambda blocks: _log_z_replicas(blocks, kernel), lambda row: log_Z(row, kernel),
        3 * _BLOCK + 5, rng,
    )
    two_pass["n"] = 3 * _BLOCK + 5
    # the trimmed rows come from a stream of their own, spawn key 0 of the
    # seed, so that every trial above keeps its draws
    pass_plan = Trimmed(M=12, k=2, m=3, N=430)
    trimmed_two_pass, worst_trimmed_two_pass = two_passes(
        lambda blocks: _trimmed_log_z_replicas(blocks, kernel, pass_plan),
        lambda row: log_Z_restricted(row, kernel, pass_plan), pass_plan.N, spawn_rng(seed, 0),
    )
    trimmed_two_pass["plan"] = asdict(pass_plan)
    mass_sizes = tuple(e + d for e in (_MASS_BLOCK, 2 * _MASS_BLOCK) for d in (-1, 0, 1))
    worst_mass = 0.0
    for n in mass_sizes:
        mass = float(renewal_mass(kernel.masses, n)[n])
        exact = math.exp(log_Z(charge_prefix(law, 0.0, 0.0, np.zeros(n)), kernel))
        worst_mass = max(worst_mass, abs(mass - exact) / exact)
    annealed_fields = (-5.0, -0.3, 0.3, 5.0)
    worst_annealed = _worst_relative_error(
        (value, log_Z(charge_prefix(law, 0.0, field, np.zeros(n)), kernel))
        for n in mass_sizes
        for field, value in zip(annealed_fields, log_annealed_Z(kernel, n, annealed_fields).tolist())
    )
    # sign flip, reversal and superadditivity, exact for every row, N and
    # kernel and each read off the batched DP alone, at a size where the row
    # loop costs seconds: 4 rows per law at beta = 1 and at beta = 6, whose
    # Gaussian blocks pass the fill limit and whose ±1 blocks stay below it
    identity = {"n": 4096, "replicas": 4, "betas": [1.0, 6.0], "h": 0.1, "split": 1365}
    n, split = identity["n"], identity["split"]
    wide = kernel if kernel.support_cap >= n else build_kernel(kernel.family, n)
    flip, reversal, margin = [], [], []
    for beta_i in identity["betas"]:
        for law_i in (GAUSSIAN, BINARY):
            (rows,) = _replica_prefixes(law_i, beta_i, identity["h"], n, seed, identity["replicas"])
            last = rows[:, -1]
            mirrored = np.concatenate([rows, -rows, last[:, None] - rows[:, ::-1]])
            z, flipped, reversed_ = _log_z_replicas(mirrored, wide).reshape(3, len(rows))
            head = _log_z_replicas(rows[:, : split + 1], wide)
            tail = _log_z_replicas(rows[:, split:] - rows[:, split : split + 1], wide)
            scale = np.maximum(1.0, np.abs(z))
            flip += (np.abs(z - flipped - last) / np.maximum(1.0, np.abs(last) + np.abs(z))).tolist()
            reversal += (np.abs(z - reversed_) / scale).tolist()
            margin += ((z - head - tail) / scale).tolist()
    worst_flip, worst_reversal, least_margin = max(flip), max(reversal), min(margin)
    # the bulk replica streams against numpy's SeedSequence, at seeds of 1, 2, 4
    # and 5 words when the seed is below 2**32; past 4 words the spawn key's
    # hash steps move with the seed's length
    stream_seeds = [seed, 2**32 + seed, 10**30 + seed, 10**45 + seed]
    stream_indices = [*range(64), 999_999, 1_000_000]
    streams_match = all(
        stream.bit_generator.state
        == np.random.default_rng(np.random.SeedSequence(s, spawn_key=(i,))).bit_generator.state
        for s in stream_seeds
        for i, stream in zip(stream_indices, replica_rngs(s, stream_indices))
    )
    return {
        "trials": trials,
        "worst_relative_error": worst,
        "block_edge_sizes": list(sizes),
        "worst_block_edge_relative_error": worst_blocked,
        "trimmed_trials": trimmed_trials,
        "worst_trimmed_relative_error": worst_trimmed,
        "two_pass_batch": two_pass,
        "worst_two_pass_relative_error": worst_two_pass,
        "trimmed_two_pass": trimmed_two_pass,
        "worst_trimmed_two_pass_relative_error": worst_trimmed_two_pass,
        "renewal_mass_sizes": list(mass_sizes),
        "worst_renewal_mass_relative_error": worst_mass,
        "annealed_fields": list(annealed_fields),
        "worst_annealed_relative_error": worst_annealed,
        "identity_rows": identity,
        "worst_flip_relative_error": worst_flip,
        "worst_reversal_relative_error": worst_reversal,
        "least_superadditivity_margin": least_margin,
        "stream_seeds": stream_seeds,
        "streams_checked": len(stream_seeds) * len(stream_indices),
        "checks": [
            {"name": "dp_matches_enumeration", "kind": "assert", "ok": worst <= 1e-10},
            {"name": "batched_dp_matches_row_loop", "kind": "assert",
             "ok": max(worst_blocked, worst_two_pass) <= 1e-10},
            {"name": "trimmed_engine_matches_row_loop", "kind": "assert",
             "ok": max(worst_trimmed, worst_trimmed_two_pass) <= 1e-10},
            {"name": "renewal_mass_matches_row_loop", "kind": "assert", "ok": worst_mass <= 1e-10},
            {"name": "annealed_matches_row_loop", "kind": "assert", "ok": worst_annealed <= 1e-10},
            {"name": "replica_streams_match_seed_sequence", "kind": "assert", "ok": streams_match},
            {"name": "identities_hold", "kind": "assert",
             "ok": max(worst_flip, worst_reversal, -least_margin) <= 1e-12},
        ],
    }


def moments(kernel, law, seed, beta=0.5, h=0.3, replicas=2000) -> dict:
    c1, c2 = 3.3, 1.5
    plan = estimators.trimmed_plan(kernel.family.upsilon, law, beta=beta, h=h, c1=c1, c2=c2)
    if kernel.support_cap < plan.N:
        kernel = build_kernel(kernel.family, plan.N)
    report = estimators.trimmed_moment_check(
        kernel, law, beta, h, plan, replicas=replicas, seed=seed
    )
    report["checks"] = [
        {"name": "second_moment_identity", "kind": "assert", "ok": report["identity_ok"]},
        {"name": "first_moment_product_bound", "kind": "assert", "ok": report["first_moment_ok"]},
        {"name": "induction_envelope", "kind": "scan", "ok": report["induction_envelope_holds"]},
    ]
    report.update(c1=c1, c2=c2)
    return report


def penalization(kernel, law, beta=1.0) -> dict:
    points = []
    consistent = True
    two_path = True
    for j in range(7):
        field = 0.1 * 2.0**-j
        try:
            plan = estimators.penalization_plan(kernel, field)
        except ValueError as exc:
            points.append({"h": field, "skipped": str(exc)})
            continue
        rep = estimators.penalization_check(kernel, law, beta, field, plan)
        # the closed form against -q1 phi / h, with phi from the plan's own tail ratio
        expected = -q1(law, beta) * plan.phi / field
        two_path = two_path and abs(rep["log_bound_closed_form"] - expected) <= 1e-12 * abs(expected)
        if rep["linf_holds"] and not rep["defect_nonpositive"]:
            consistent = False
        points.append(
            {
                "h": field,
                "k": plan.k,
                "defect_expression": rep["defect_expression"],
                "linf_holds": rep["linf_holds"],
                "log_bound_closed_form": rep["log_bound_closed_form"],
                "log_bound_rate_form": rep["log_bound_rate_form"],
            }
        )
    return {
        "beta": beta,
        "points": points,
        "checks": [
            {"name": "closed_form_two_paths_identical", "kind": "assert", "ok": two_path},
            {"name": "defect_sign_where_sufficient_condition_holds", "kind": "assert", "ok": consistent},
        ],
    }


def coarse(kernel, law, seed, beta=1.0, h=None, replicas=100) -> dict:
    c3 = 0.9 * q1(law, beta)
    if h is None:  # the default field depends on beta; its window int(e^(c3/h)) is 1000 sites
        h = c3 / math.log(1000.5)
    report = estimators.coarse_graining_check(
        kernel, law, beta, h, c3, replicas=replicas, seed=seed
    )
    report.update(beta=beta, h=h, replicas=replicas)
    # an infeasible window (budget exceeded or supercritical tilt) is a
    # finding about (h, eta), not a fault; it carries no values to check
    feasible = bool(report["feasible"])
    finite = not feasible or all(
        math.isfinite(report[key]) for key in ("a_term", "b_term", "green_constant_full_range")
    )
    report["checks"] = [
        {"name": "window_feasible", "kind": "scan", "ok": feasible},
        {"name": "report_values_finite", "kind": "assert", "ok": bool(finite)},
        {"name": "green_constant_stability", "kind": "scan",
         "ok": bool(report.get("green_relative_change", math.inf) < 0.10)},
        {"name": "rho_within_one_where_split_small", "kind": "scan",
         "ok": bool(report.get("rho_within_one", False) or not report.get("split_small", False))},
    ]
    return report


SUITES = {"oracle": oracle, "moments": moments, "penalization": penalization, "coarse": coarse}
