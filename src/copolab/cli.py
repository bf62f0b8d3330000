"""Command-line front end: sweeps, estimation runs, verification suites.

Every subcommand echoes its fully resolved scientific configuration in the
output header, and all randomness flows through the --seed flag with
counter-split replica seeds, so a run can be reproduced byte for byte from
its own output.  The output path does not enter the header.  Exit codes:
0 success, 1 verification failure, 2 usage or configuration error; NaN or
infinite values of --beta, --h, --upsilon, --cl or any --h-grid entry are
configuration errors, rejected before anything is computed or written, and
finite values that overflow a DP (a non-finite value in any row of
estimate, sweep or annealed) exit 2 without writing the artifact.

Verification report schema: a JSON object with keys "config" (the resolved
run configuration), "artifact_version", "suites" (one entry per suite run,
each a dict of recorded values plus "checks", a list of {name, kind, ok}
where kind is "assert" or "scan"), and "pass" (true when every assert-kind
check holds).  Scan-kind checks record measured thresholds and never fail
a run.  Suite payloads carry stable field names: "oracle" reports
worst_relative_error (row-loop and batched DP against enumeration),
worst_block_edge_relative_error (batched DP against the row loop at
block_edge_sizes, the edges of its 16-row sub-blocks and 64-site blocks)
and worst_trimmed_relative_error (batched trimmed engine against its row
loop on trimmed_trials small plans); "moments" embeds the
trimmed-ensemble report (exact_log_mean_restricted, product_lower_bound_log,
identity_{lhs,rhs}_{mean,sigma}, identity_abs_diff, identity_three_sigma,
induction_bound_log, plan); "penalization" lists per-h points (k, defect_expression, linf_holds,
log_bound_closed_form, log_bound_rate_form); "coarse" reports n_window,
theta, a_term, b_term, a_term_analytic_integral, rho_proxy, the
fractional_moment_spot grid and the green_constant pair, or feasible false
with a note when the window exceeds its budget or the crossover tilt is
supercritical (a scan finding, window_feasible).  Tabular
subcommands write CSV whose first line is a "# ..." comment holding the
same config object; floats serialize as shortest round-trip decimals in
both formats.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, bounds as bounds_mod, estimators
from .disorder import BINARY, GAUSSIAN, _draw, q1, spawn_rng
from .kernel import FamilyKind, SlowlyVaryingFamily, build_kernel, defect_Kk
from .partition import (
    _BLOCK,
    _FILL_ROWS,
    Trimmed,
    _annealed_log_z,
    _trimmed_log_z_replicas,
    brute_force_log_Z,
    log_Z,
    log_Z_restricted,
    make_instance,
)

_FAMILIES = {
    "sub-logarithmic": FamilyKind.SUB_LOGARITHMIC,
    "logarithmic": FamilyKind.LOGARITHMIC,
    "super-logarithmic": FamilyKind.SUPER_LOGARITHMIC,
}
_LAWS = {"gaussian": GAUSSIAN, "binary": BINARY}


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copolab",
        description="Numerical laboratory for the renewal copolymer model",
    )
    parser.add_argument("--config", help="optional key=value config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_beta=False, need_h=False):
        # SUPPRESS keeps a pre-subcommand --config from being clobbered
        p.add_argument("--config", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        p.add_argument("--family", choices=sorted(_FAMILIES), default="logarithmic")
        p.add_argument("--upsilon", type=float, default=2.0)
        p.add_argument("--cl", type=float, default=1.0, help="shape constant of the numerator")
        p.add_argument("--law", choices=sorted(_LAWS), default="gaussian")
        p.add_argument("--beta", type=float, required=need_beta, default=None)
        p.add_argument("--h", type=float, required=need_h, default=None)
        p.add_argument("--h-grid", default=None, help="comma-separated descending h values")
        p.add_argument("--n", type=int, default=1000)
        p.add_argument("--replicas", type=int, default=32)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=["csv", "json"], default=None)

    p_est = sub.add_parser("estimate", help="Monte Carlo free-energy estimate")
    add_common(p_est, need_beta=True, need_h=True)

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
    p_v.add_argument(
        "suite", choices=["oracle", "moments", "penalization", "coarse", "all"]
    )
    return parser


def _apply_config_file(parser, argv):
    # flags override file values: parse once to find --config, install file
    # values as defaults, then parse for real
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return argv
    file_values = _read_config_file(known.config)
    expanded = list(argv)
    command = next((a for a in argv if not a.startswith("-")), None)
    for key, val in file_values.items():
        flag = "--" + key.replace("_", "-")
        if flag in argv:
            continue
        if command == "verify" and key == "suite":
            continue  # positional, must come from the command line
        expanded.extend([flag, val])
    return expanded


def _family(args) -> SlowlyVaryingFamily:
    return SlowlyVaryingFamily(kind=_FAMILIES[args.family], upsilon=args.upsilon, c_L=args.cl)


def _check_finite(args) -> None:
    named = [
        ("--beta", args.beta), ("--h", args.h), ("--upsilon", args.upsilon), ("--cl", args.cl)
    ]
    if args.h_grid:
        named += [("--h-grid", float(tok)) for tok in args.h_grid.split(",") if tok.strip()]
    for flag, value in named:
        if value is not None and not math.isfinite(value):
            raise SystemExit2(f"{flag} must be finite, got {value}")


def _check_rows_finite(rows) -> None:
    # finite flags can still overflow inside a DP; refuse the artifact then
    for row in rows:
        for key, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise SystemExit2(f"{key} = {value} at h = {row['h']}: the inputs overflow the DP")


def _h_values(args) -> list[float]:
    if args.h_grid:
        return [float(tok) for tok in args.h_grid.split(",") if tok.strip()]
    if args.h is None:
        raise SystemExit2("one of --h or --h-grid is required")
    return [args.h]


class SystemExit2(Exception):
    """Configuration error surfaced with exit code 2."""


def _resolved_config(args, extra=None) -> dict:
    cfg = {
        "command": args.command,
        "family": args.family,
        "upsilon": args.upsilon,
        "c_L": args.cl,
        "law": args.law,
        "beta": args.beta,
        "h": args.h,
        "h_grid": args.h_grid,
        "n": args.n,
        "replicas": args.replicas,
        "seed": args.seed,
        "format": args.format,
    }
    if extra:
        cfg.update(extra)
    return {k: v for k, v in cfg.items() if v is not None}


def _emit(args, config, rows, columns, default_format="csv"):
    fmt = args.format or default_format
    header = json.dumps(
        {"artifact_version": __version__, "config": config}, sort_keys=True, allow_nan=False
    )
    if fmt == "csv":
        lines = ["# " + header, ",".join(columns)]
        for row in rows:
            lines.append(",".join(_cell(row.get(c)) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        payload = {"artifact_version": __version__, "config": config, "rows": rows}
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
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
    family = _family(args)
    law = _LAWS[args.law]
    kernel = build_kernel(family, max(args.n, 1000))
    h_values = _h_values(args)
    estimates = estimators.sweep_free_energy(
        kernel, law, args.beta, h_values, args.n, args.replicas, args.seed
    )
    rows = []
    for h, est in zip(h_values, estimates):
        row = {"beta": args.beta, "h": h}
        row.update(est.to_dict())
        rows.append(row)
    _check_rows_finite(rows)
    columns = [
        "beta", "h", "n", "replicas", "mean_log_z_per_site", "stderr",
        "upper_bracket", "lower_bracket", "c4", "c5",
    ]
    _emit(args, _resolved_config(args), rows, columns)
    return 0


def _cmd_annealed(args) -> int:
    family = _family(args)
    kernel = build_kernel(family, max(args.n, 1000))
    h_values = _h_values(args)
    rows = []
    for h, value in zip(h_values, _annealed_log_z(kernel, args.n, h_values).tolist()):
        rows.append({"h": h, "n": args.n, "log_annealed_z": value, "per_site": value / args.n})
    _check_rows_finite(rows)
    _emit(args, _resolved_config(args), rows, ["h", "n", "log_annealed_z", "per_site"])
    return 0


def _cmd_bounds(args) -> int:
    family = _family(args)
    law = _LAWS[args.law]
    reports = bounds_mod.bound_table(family, law, args.beta, _h_values(args))
    rows = []
    for rep in reports:
        row = rep.to_dict()
        row.pop("constants_used")
        rows.append(row)
    columns = [
        "family", "upsilon", "c_L", "beta", "h", "log_upper_general",
        "log_upper_sharper", "log_lower_rss", "log_lower_sublog", "flags",
    ]
    _emit(args, _resolved_config(args), rows, columns)
    return 0


def _cmd_kernel_info(args) -> int:
    family = _family(args)
    kernel = build_kernel(family, max(args.n, 1000))
    h = args.h if args.h is not None else 0.05
    diagnostics = {}
    try:
        plan = estimators.penalization_plan(kernel, _LAWS[args.law], beta=1.0, h=h)
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
    _emit(args, _resolved_config(args), [info], list(info), default_format="json")
    return 0


def _suite_oracle(args, family, law, kernel) -> dict:
    # the row-loop log_Z and the batched replica DP against enumeration at
    # N <= 12, the batched DP against the row loop across sub-block and
    # block edges, and the batched trimmed engine against its row loop on
    # small plans
    rng = np.random.default_rng(args.seed)

    def batch(law_i, n, replicas):
        beta = float(rng.uniform(0.0, 2.0))
        h = float(rng.uniform(-1.0, 1.0))
        seed = int(rng.integers(0, 2**32))
        values = estimators.replica_log_z(kernel, law_i, beta, h, n, seed, replicas)
        for r, value in enumerate(values.tolist()):
            yield value, make_instance(law_i, beta, h, omega=_draw(law_i, n, spawn_rng(seed, r)))

    worst = 0.0
    trials = 60
    for i in range(trials):
        n = int(rng.integers(2, 13))
        for value, inst in batch(GAUSSIAN if i % 2 == 0 else BINARY, n, 2):
            brute = brute_force_log_Z(inst, kernel)
            for exact in (log_Z(inst, kernel), value):
                worst = max(worst, abs(exact - brute) / max(1.0, abs(brute)))
    worst_blocked = 0.0
    edges = (_FILL_ROWS, 3 * _FILL_ROWS, _BLOCK)  # sub-block and block edges
    sizes = tuple(e + d for e in edges for d in (-1, 0, 1)) + (3 * _BLOCK + 5,)
    for n in sizes:
        for law_i in (GAUSSIAN, BINARY):
            for value, inst in batch(law_i, n, 3):
                exact = log_Z(inst, kernel)
                worst_blocked = max(worst_blocked, abs(value - exact) / max(1.0, abs(exact)))
    worst_trimmed = 0.0
    trimmed_trials = 12
    for i in range(trimmed_trials):
        # small feasible plans, N from the shortest path to past the reach clip
        plan = Trimmed(M=int(rng.integers(2, 7)), k=int(rng.integers(1, 4)), m=int(rng.integers(1, 5)))
        n = int(rng.integers(plan.m * (plan.M + 1) + 1, plan.m * (plan.M**2 + plan.k) + 3))
        law_i = GAUSSIAN if i % 2 == 0 else BINARY
        beta, h = float(rng.uniform(0.0, 2.0)), float(rng.uniform(-1.0, 1.0))
        seed = int(rng.integers(0, 2**32))
        instances = [
            make_instance(law_i, beta, h, omega=_draw(law_i, n, spawn_rng(seed, r))) for r in range(3)
        ]
        values = _trimmed_log_z_replicas([inst.charge_prefix for inst in instances], kernel, plan, n)
        for value, inst in zip(values.tolist(), instances):
            exact = log_Z_restricted(inst, kernel, plan)
            worst_trimmed = max(worst_trimmed, abs(value - exact) / max(1.0, abs(exact)))
    return {
        "trials": trials,
        "worst_relative_error": worst,
        "block_edge_sizes": list(sizes),
        "worst_block_edge_relative_error": worst_blocked,
        "trimmed_trials": trimmed_trials,
        "worst_trimmed_relative_error": worst_trimmed,
        "checks": [
            {"name": "dp_matches_enumeration", "kind": "assert", "ok": worst <= 1e-10},
            {"name": "batched_dp_matches_row_loop", "kind": "assert", "ok": worst_blocked <= 1e-10},
            {"name": "trimmed_engine_matches_row_loop", "kind": "assert",
             "ok": worst_trimmed <= 1e-10},
        ],
    }


def _suite_moments(args, family, law, kernel) -> dict:
    beta = args.beta if args.beta is not None else 0.5
    h = args.h if args.h is not None else 0.3
    plan = estimators.trimmed_plan(family.upsilon, law, beta=beta, h=h, c1=3.3, c2=1.5)
    moment_kernel = kernel
    if kernel.support_cap < plan.N:
        moment_kernel = build_kernel(family, plan.N)
    replicas = max(2000, min(args.replicas, 20000))
    report = estimators.trimmed_moment_check(
        moment_kernel, law, beta, h, plan, replicas=replicas, seed=args.seed
    )
    report["checks"] = [
        {"name": "second_moment_identity", "kind": "assert", "ok": report["identity_ok"]},
        {"name": "first_moment_product_bound", "kind": "assert", "ok": report["first_moment_ok"]},
        {"name": "induction_envelope", "kind": "scan", "ok": report["induction_envelope_holds"]},
    ]
    return report


def _suite_penalization(args, family, law, kernel) -> dict:
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


def _suite_coarse(args, family, law, kernel) -> dict:
    beta = args.beta if args.beta is not None else 1.0
    c3 = 0.9 * q1(law, beta)
    h = args.h if args.h is not None else c3 / math.log(1000.0)
    report = estimators.coarse_graining_check(
        kernel, law, beta, h, c3, replicas=max(100, min(args.replicas, 1000)), seed=args.seed
    )
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


def _cmd_verify(args) -> int:
    family = _family(args)
    law = _LAWS[args.law]
    support = max(args.n, 20_000)
    kernel = build_kernel(family, support)
    runners = {
        "oracle": _suite_oracle,
        "moments": _suite_moments,
        "penalization": _suite_penalization,
        "coarse": _suite_coarse,
    }
    names = list(runners) if args.suite == "all" else [args.suite]
    suites = {}
    ok = True
    for name in names:
        suites[name] = runners[name](args, family, law, kernel)
        for check in suites[name]["checks"]:
            if check["kind"] == "assert" and not check["ok"]:
                ok = False
    payload = {
        "artifact_version": __version__,
        "config": _resolved_config(args, {"suite": args.suite}),
        "suites": suites,
        "pass": ok,
    }
    text = json.dumps(payload, sort_keys=True, indent=1, default=_json_default) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def _json_default(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _apply_config_file(parser, argv)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    commands = {
        "estimate": _cmd_estimate,
        "sweep": _cmd_estimate,
        "annealed": _cmd_annealed,
        "bounds": _cmd_bounds,
        "kernel-info": _cmd_kernel_info,
        "verify": _cmd_verify,
    }
    try:
        _check_finite(args)
        return commands[args.command](args)
    except SystemExit2 as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
