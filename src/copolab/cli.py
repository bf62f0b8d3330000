"""Command-line front end: sweeps, estimation runs, verification suites.

Every subcommand echoes in the output header the model flags and the run
flags it read, and all randomness flows through the --seed flag with
counter-split replica seeds, so a run can be reproduced byte for byte from
its own output.  The output path does not enter the header.  Exit codes:
0 success, 1 verification failure, 2 usage or configuration error, an
unwritable --out included; NaN or infinite values of --beta, --h,
--upsilon, --cl or any --h-grid entry are configuration errors, rejected
before anything is computed or written, and finite values that overflow a
DP (a non-finite value in any row of estimate, sweep or annealed) exit 2
without writing the artifact.

Every command takes the model flags --family, --upsilon, --cl, --law, --n
and --seed, and of the run flags --beta, --h, --h-grid, --replicas and
--format the ones _READS lists; "verify all" reads what any of its suites
reads.  A run flag given, on the command line or in the --config file, to
a command that does not read it exits 2 without writing anything, and so
do --h together with --h-grid, an --h-grid holding no value, and neither
of them where they are read.  --replicas defaults to 32 in estimate and
sweep; without it moments runs 2000 replicas and coarse 100, and a count
below 2, or outside [100, 20000] for moments or [2, 1000] for coarse,
exits 2.  The header records the model flags and the run flags the command
read, so it replays as flags.  A --config file's flags sit right after the
command, so a flag on the command line beats the file; its suite line is
ignored.

Verification report schema: a JSON object with keys "config" (the resolved
run configuration), "artifact_version", "suites" (one entry per suite run,
each a dict of recorded values plus "checks", a list of {name, kind, ok}
where kind is "assert" or "scan"), and "pass" (true when every assert-kind
check holds).  Scan-kind checks record measured thresholds and never fail
a run.  Suite payloads carry stable field names: "oracle" reports
worst_relative_error (row-loop and batched DP against enumeration),
worst_block_edge_relative_error (batched DP against the row loop at
block_edge_sizes, the edges of its 8-row sub-blocks and 64-site blocks),
worst_trimmed_relative_error (batched trimmed engine against its row
loop on trimmed_trials small plans), worst_two_pass_relative_error and
worst_trimmed_two_pass_relative_error (the rows either side of a pass
boundary of each engine, two_pass_batch and trimmed_two_pass, against the
row loops), worst_annealed_relative_error
(annealed values at annealed_fields against the row loop) and
streams_checked (replica streams of stream_seeds compared with numpy's
SeedSequence(seed, spawn_key=(i,)) streams); "moments" embeds the
trimmed-ensemble report (exact_log_mean_restricted, product_lower_bound_log,
identity_{lhs,rhs}_{mean,sigma}, identity_abs_diff, identity_three_sigma,
induction_bound_log, plan {M, k, m, N}, and the beta, h, c1 and c2 of its
schedule); "penalization" lists per-h points (k, defect_expression,
linf_holds, log_bound_closed_form, log_bound_rate_form); "coarse" reports n_window,
theta, a_term, b_term, a_term_analytic_integral, rho_proxy, the
fractional_moment_spot grid and the green_constant pair, or feasible false
with a note when the window exceeds its budget or the crossover tilt is
supercritical (a scan finding, window_feasible), and the beta, h and
replicas it ran with.  Tabular subcommands write CSV whose first line is a
"# ..." comment holding the same config object; floats serialize as
shortest round-trip decimals in both formats.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, bounds as bounds_mod, estimators
from .disorder import BINARY, GAUSSIAN, DisorderLaw, q1, replica_rngs, spawn_rng
from .kernel import (
    _MASS_BLOCK,
    FamilyKind,
    SlowlyVaryingFamily,
    build_kernel,
    defect_Kk,
    renewal_mass,
)
from .partition import (
    _BLOCK,
    _FILL_ROWS,
    _GEMM_REPLICAS,
    Trimmed,
    _pass_lanes,
    _trimmed_log_z_replicas,
    _trimmed_pass_rows,
    _trimmed_size,
    brute_force_log_Z,
    charge_prefix,
    log_Z,
    log_Z_restricted,
    log_annealed_Z,
)

# the run flags each command and verify suite reads
_READS = {
    "estimate": {"beta", "h", "h_grid", "replicas", "format"},
    "sweep": {"beta", "h", "h_grid", "replicas", "format"},
    "annealed": {"h", "h_grid", "format"},
    "bounds": {"beta", "h", "h_grid", "format"},
    "kernel-info": {"h", "format"},
    "oracle": set(),
    "moments": {"beta", "h", "replicas"},
    "penalization": {"beta"},
    "coarse": {"beta", "h", "replicas"},
}
_HEADER_KEYS = (
    "command", "suite", "family", "upsilon", "c_L", "law", "beta", "h", "h_grid", "n",
    "replicas", "seed", "format",
)


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.rstrip()}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copolab",
        description="Numerical laboratory for the renewal copolymer model",
    )
    parser.add_argument("--config", help="optional key=value config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_beta=False):
        # SUPPRESS keeps a pre-subcommand --config from being clobbered
        p.add_argument("--config", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        families = sorted(kind.value for kind in FamilyKind)
        p.add_argument("--family", choices=families, default="logarithmic")
        p.add_argument("--upsilon", type=float, default=2.0)
        p.add_argument(
            "--cl", dest="c_L", type=float, default=1.0, help="shape constant of the numerator"
        )
        laws = sorted(law.value for law in DisorderLaw)
        p.add_argument("--law", choices=laws, default="gaussian")
        p.add_argument("--beta", type=float, required=need_beta, default=None)
        p.add_argument("--h", type=float, default=None)
        p.add_argument("--h-grid", default=None, help="comma-separated descending h values")
        p.add_argument("--n", type=int, default=1000)
        p.add_argument("--replicas", type=int, default=None, help="default 32 in estimate, sweep")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=["csv", "json"], default=None)

    p_est = sub.add_parser("estimate", help="Monte Carlo free-energy estimate")
    add_common(p_est, need_beta=True)

    p_sweep = sub.add_parser("sweep", help="free-energy estimates over an h grid")
    add_common(p_sweep, need_beta=True)

    p_ann = sub.add_parser("annealed", help="exact disorder-averaged values")
    add_common(p_ann)

    p_b = sub.add_parser("bounds", help="closed-form bound table over an h grid")
    add_common(p_b, need_beta=True)

    p_k = sub.add_parser("kernel-info", help="kernel summary and defect diagnostics")
    add_common(p_k)

    p_v = sub.add_parser("verify", help="run a verification suite")
    add_common(p_v)
    p_v.add_argument("suite", choices=[*_SUITES, "all"])
    return parser


def _apply_config_file(argv):
    # the file's flags go right after the command, ahead of the user's own
    # flags, so argparse's last-wins rule lets a flag in any spelling it
    # accepts (--seed 12, --seed=12, --see 12) beat the file
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    path = probe.parse_known_args(argv)[0].config
    if not path:
        return argv
    probe.add_argument("rest", nargs=argparse.REMAINDER)  # the command and what follows it
    at = len(argv) - len(probe.parse_known_args(argv)[0].rest) + 1
    flags = [
        f"--{key.replace('_', '-')}={value}"
        for key, value in _read_config_file(path).items()
        if key != "suite"  # a positional: the suite comes from the command line
    ]
    return argv[:at] + flags + argv[at:]


class SystemExit2(ValueError):
    """Configuration error surfaced with exit code 2."""


def _parse(argv) -> argparse.Namespace:
    """Parse and check a command line; the namespace is the run configuration.

    On top of the flags it adds h_values (where the command reads an h
    grid), kernel_family, disorder_law, suites (verify only) and config, the
    header: every model flag and every run flag the command read.
    """
    args = _build_parser().parse_args(_apply_config_file(argv))
    label, names = args.command, [args.command]
    if args.command == "verify":
        label = f"verify {args.suite}"
        names = args.suites = list(_SUITES) if args.suite == "all" else [args.suite]
    reads = set().union(*(_READS[name] for name in names))
    for flag in ("beta", "h", "h_grid", "replicas", "format"):
        if getattr(args, flag) is not None and flag not in reads:
            raise SystemExit2(f"{label} does not read --{flag.replace('_', '-')}")
    if args.command in ("estimate", "sweep") and args.replicas is None:
        args.replicas = 32
    # 2 replicas at least; a verify suite's engine floor up to a desk-scale ceiling
    ranges = [{"moments": (100, 20_000), "coarse": (2, 1000)}.get(n, (2, math.inf)) for n in names]
    low, high = max(low for low, _ in ranges), min(high for _, high in ranges)
    if args.replicas is not None and not low <= args.replicas <= high:
        raise SystemExit2(f"{label} takes --replicas in [{low}, {high}], got {args.replicas}")
    grid = []
    if args.h_grid is not None:
        if args.h is not None:
            raise SystemExit2(f"{label} takes --h or --h-grid, not both")
        grid = [float(tok) for tok in args.h_grid.split(",") if tok.strip()]
        if not grid:
            raise SystemExit2(f"--h-grid {args.h_grid!r} holds no h value")
    named = [
        ("--beta", args.beta), ("--h", args.h), ("--upsilon", args.upsilon), ("--cl", args.c_L)
    ]
    for flag, value in named + [("--h-grid", h) for h in grid]:
        if value is not None and not math.isfinite(value):
            raise SystemExit2(f"{flag} must be finite, got {value}")
    if "h_grid" in reads:
        if not grid and args.h is None:
            raise SystemExit2("one of --h or --h-grid is required")
        args.h_values = grid or [args.h]
    args.kernel_family = SlowlyVaryingFamily(FamilyKind(args.family), args.upsilon, args.c_L)
    args.disorder_law = DisorderLaw(args.law)
    header = {key: getattr(args, key, None) for key in _HEADER_KEYS}
    args.config = {key: value for key, value in header.items() if value is not None}
    return args


def _check_rows_finite(rows) -> None:
    # finite flags can still overflow inside a DP; refuse the artifact then
    for row in rows:
        for key, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise SystemExit2(f"{key} = {value} at h = {row['h']}: the inputs overflow the DP")


def _emit(args, rows, columns, default_format="csv"):
    fmt = args.format or default_format
    header = json.dumps(
        {"artifact_version": __version__, "config": args.config}, sort_keys=True, allow_nan=False
    )
    if fmt == "csv":
        lines = ["# " + header, ",".join(columns)]
        for row in rows:
            lines.append(",".join(_cell(row.get(c)) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        payload = {"artifact_version": __version__, "config": args.config, "rows": rows}
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    _write(args, text)


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cmd_estimate(args) -> int:
    kernel = build_kernel(args.kernel_family, max(args.n, 1000))
    estimates = estimators.sweep_free_energy(
        kernel, args.disorder_law, args.beta, args.h_values, args.n, args.replicas, args.seed
    )
    rows = []
    for h, est in zip(args.h_values, estimates):
        row = {"beta": args.beta, "h": h}
        row.update(est.to_dict())
        rows.append(row)
    _check_rows_finite(rows)
    columns = [
        "beta", "h", "n", "replicas", "mean_log_z_per_site", "stderr",
        "upper_bracket", "lower_bracket", "c4", "c5",
    ]
    _emit(args, rows, columns)
    return 0


def _cmd_annealed(args) -> int:
    kernel = build_kernel(args.kernel_family, max(args.n, 1000))
    rows = []
    for h, value in zip(args.h_values, log_annealed_Z(kernel, args.n, args.h_values).tolist()):
        rows.append({"h": h, "n": args.n, "log_annealed_z": value, "per_site": value / args.n})
    _check_rows_finite(rows)
    _emit(args, rows, ["h", "n", "log_annealed_z", "per_site"])
    return 0


def _cmd_bounds(args) -> int:
    reports = bounds_mod.bound_table(
        args.kernel_family, args.disorder_law, args.beta, args.h_values
    )
    columns = [
        "family", "upsilon", "c_L", "beta", "h", "log_upper_general",
        "log_upper_sharper", "log_lower_rss", "log_lower_sublog", "flags",
    ]
    _emit(args, [rep.to_dict() for rep in reports], columns)
    return 0


def _cmd_kernel_info(args) -> int:
    family = args.kernel_family
    kernel = build_kernel(family, max(args.n, 1000))
    h = args.h if args.h is not None else 0.05
    diagnostics = {}
    try:
        plan = estimators.penalization_plan(kernel, args.disorder_law, beta=1.0, h=h)
        diagnostics["defect_expression_at_scheduled_window"] = defect_Kk(kernel, h, plan.k)
        diagnostics["scheduled_window"] = plan.k
        diagnostics["phi"] = plan.phi
    except (ValueError, OverflowError) as exc:
        diagnostics["defect_note"] = str(exc)
    info = {
        "family": family.kind.value,
        "upsilon": family.upsilon,
        "c_L": family.c_L,
        "n_max": kernel.support_cap,
        "normalization": kernel.normalization,
        "tail_mass": kernel.tail_mass,
        "mass_sum_with_tail": float(np.sum(kernel.masses)) + kernel.tail_mass,
        "defect_diagnostics": diagnostics,
    }
    _emit(args, [info], list(info), default_format="json")
    return 0


def _worst_relative_error(pairs) -> float:
    """Largest |value - exact| / max(1, |exact|) over (value, exact) pairs, 0 for none."""
    worst = 0.0
    for value, exact in pairs:
        worst = max(worst, abs(value - exact) / max(1.0, abs(exact)))
    return worst


def _suite_oracle(args, kernel) -> dict:
    # the row-loop log_Z and the batched replica DP against enumeration at
    # N <= 12, the batched DP against the row loop across sub-block and
    # block edges, the batched trimmed engine against its row loop on small
    # plans, both engines against their row loops over two passes of
    # groups, the blocked renewal mass and the annealed value against the
    # row loop at beta = 0 (Z_N = u(N) at h = 0),
    # and the replica streams against numpy's SeedSequence; the trials come
    # from numpy's root stream of the seed, which has no spawn key
    rng = np.random.default_rng(args.seed)

    def draw(law_i, n, replicas, source=rng):
        # a random (beta, h) and replica seed, with the charge rows of its replicas
        beta, h = float(source.uniform(0.0, 2.0)), float(source.uniform(-1.0, 1.0))
        seed = int(source.integers(0, 2**32))
        (rows,) = estimators._replica_prefixes(law_i, beta, h, n, seed, replicas)
        return beta, h, seed, rows

    def batch(law_i, n, replicas):
        # replica_log_z values, each with the charge row it was computed on
        beta, h, seed, rows = draw(law_i, n, replicas)
        values = estimators.replica_log_z(kernel, law_i, beta, h, n, seed, replicas)
        return zip(values.tolist(), rows)

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
        *_, rows = draw(GAUSSIAN if i % 2 == 0 else BINARY, plan.N, 3)
        values = _trimmed_log_z_replicas(rows, kernel, plan).tolist()
        trimmed += [(v, log_Z_restricted(row, kernel, plan)) for v, row in zip(values, rows)]
    worst_trimmed = _worst_relative_error(trimmed)
    # one group more than a pass holds; the rows either side of the pass
    # boundary, the first pass's last group and the second pass, go to the row loop
    two_pass_n = 3 * _BLOCK + 5
    two_pass = {"replicas": _pass_lanes(two_pass_n) + _GEMM_REPLICAS, "n": two_pass_n,
                "rows_checked": 2 * _GEMM_REPLICAS}
    boundary = [
        pair
        for law_i in (GAUSSIAN, BINARY)
        for pair in list(batch(law_i, two_pass_n, two_pass["replicas"]))[-2 * _GEMM_REPLICAS :]
    ]
    worst_two_pass = _worst_relative_error((value, log_Z(row, kernel)) for value, row in boundary)
    # the same for the trimmed engine, on rows drawn from a stream of their
    # own, spawn key 0 of the seed, so that every trial above keeps its draws
    pass_plan = Trimmed(M=12, k=2, m=3, N=430)
    trimmed_two_pass = {
        "plan": asdict(pass_plan),
        "replicas": _trimmed_pass_rows(pass_plan, _trimmed_size(kernel, pass_plan)) + _GEMM_REPLICAS,
        "rows_checked": 2 * _GEMM_REPLICAS,
    }
    pass_rng = spawn_rng(args.seed, 0)
    trimmed_boundary = []
    for law_i in (GAUSSIAN, BINARY):
        *_, rows = draw(law_i, pass_plan.N, trimmed_two_pass["replicas"], source=pass_rng)
        values = _trimmed_log_z_replicas(rows, kernel, pass_plan)[-2 * _GEMM_REPLICAS :]
        rows = rows[-2 * _GEMM_REPLICAS :]
        trimmed_boundary += [
            (value, log_Z_restricted(row, kernel, pass_plan)) for value, row in zip(values.tolist(), rows)
        ]
    worst_trimmed_two_pass = _worst_relative_error(trimmed_boundary)
    mass_sizes = tuple(e + d for e in (_MASS_BLOCK, 2 * _MASS_BLOCK) for d in (-1, 0, 1))
    worst_mass = 0.0
    for n in mass_sizes:
        mass = float(renewal_mass(kernel.masses, n)[n])
        exact = math.exp(log_Z(charge_prefix(args.disorder_law, 0.0, 0.0, np.zeros(n)), kernel))
        worst_mass = max(worst_mass, abs(mass - exact) / exact)
    annealed_fields = (-5.0, -0.3, 0.3, 5.0)
    worst_annealed = _worst_relative_error(
        (value, log_Z(charge_prefix(args.disorder_law, 0.0, h, np.zeros(n)), kernel))
        for n in mass_sizes
        for h, value in zip(annealed_fields, log_annealed_Z(kernel, n, annealed_fields).tolist())
    )
    # the bulk replica streams against numpy's SeedSequence, at seeds of 1, 2, 4
    # and 5 words when --seed is below 2**32; past 4 words the spawn key's
    # hash steps move with the seed's length
    stream_seeds = [args.seed, 2**32 + args.seed, 10**30 + args.seed, 10**45 + args.seed]
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
        ],
    }


def _suite_moments(args, kernel) -> dict:
    family, law = args.kernel_family, args.disorder_law
    beta = args.beta if args.beta is not None else 0.5
    h = args.h if args.h is not None else 0.3
    c1, c2 = 3.3, 1.5
    plan = estimators.trimmed_plan(family.upsilon, law, beta=beta, h=h, c1=c1, c2=c2)
    moment_kernel = kernel
    if kernel.support_cap < plan.N:
        moment_kernel = build_kernel(family, plan.N)
    report = estimators.trimmed_moment_check(
        moment_kernel, law, beta, h, plan, replicas=args.replicas or 2000, seed=args.seed
    )
    report["checks"] = [
        {"name": "second_moment_identity", "kind": "assert", "ok": report["identity_ok"]},
        {"name": "first_moment_product_bound", "kind": "assert", "ok": report["first_moment_ok"]},
        {"name": "induction_envelope", "kind": "scan", "ok": report["induction_envelope_holds"]},
    ]
    report.update(c1=c1, c2=c2)
    return report


def _suite_penalization(args, kernel) -> dict:
    family, law = args.kernel_family, args.disorder_law
    beta = args.beta if args.beta is not None else 1.0
    points = []
    consistent = True
    two_path = True
    for j in range(7):
        h = 0.1 * 2.0**-j
        try:
            plan = estimators.penalization_plan(kernel, law, beta, h)
        except ValueError as exc:
            points.append({"h": h, "skipped": str(exc)})
            continue
        rep = estimators.penalization_check(kernel, law, beta, h, plan)
        expected = bounds_mod.log_upper_general(family, law, beta, h, plan.b)
        same = rep["log_bound_closed_form"] == expected
        two_path = two_path and same
        if rep["linf_holds"] and not rep["defect_nonpositive"]:
            consistent = False
        points.append(
            {
                "h": h,
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


def _suite_coarse(args, kernel) -> dict:
    law = args.disorder_law
    beta = args.beta if args.beta is not None else 1.0
    c3 = 0.9 * q1(law, beta)
    h = args.h if args.h is not None else c3 / math.log(1000.0)
    replicas = args.replicas or 100
    report = estimators.coarse_graining_check(
        kernel, law, beta, h, c3, replicas=replicas, seed=args.seed
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
        {
            "name": "green_constant_stability",
            "kind": "scan",
            "ok": bool(report.get("green_relative_change", math.inf) < 0.10),
        },
        {
            "name": "rho_within_one_where_split_small",
            "kind": "scan",
            "ok": bool(report.get("rho_within_one", False) or not report.get("split_small", False)),
        },
    ]
    return report


_SUITES = {
    "oracle": _suite_oracle,
    "moments": _suite_moments,
    "penalization": _suite_penalization,
    "coarse": _suite_coarse,
}


def _cmd_verify(args) -> int:
    kernel = build_kernel(args.kernel_family, max(args.n, 20_000))
    suites = {name: _SUITES[name](args, kernel) for name in args.suites}
    ok = all(
        check["ok"] for suite in suites.values() for check in suite["checks"]
        if check["kind"] == "assert"
    )
    payload = {
        "artifact_version": __version__, "config": args.config, "suites": suites, "pass": ok
    }
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    _write(args, text)
    return 0 if ok else 1


def main(argv=None) -> int:
    commands = {
        "estimate": _cmd_estimate,
        "sweep": _cmd_estimate,
        "annealed": _cmd_annealed,
        "bounds": _cmd_bounds,
        "kernel-info": _cmd_kernel_info,
        "verify": _cmd_verify,
    }
    try:
        args = _parse(list(sys.argv[1:] if argv is None else argv))
        return commands[args.command](args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
