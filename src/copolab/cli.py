"""Command-line front end: sweeps, estimation runs, verification suites.

Every subcommand echoes in the output header the model flags and the run
flags it read, and all randomness flows through the --seed flag with
counter-split replica seeds, so a run can be reproduced byte for byte from
its own output.  The output path does not enter the header.  Exit codes:
0 success, 1 verification failure, 2 usage or configuration error, an
unwritable --out included; NaN or infinite values of --beta, --h,
--upsilon, --cl or any --h-grid entry, a negative --beta, an --n below 1
and a --beta whose q1 is 0 for the coarse suite are configuration errors,
rejected before anything is computed or written, and finite values that
overflow a DP, a bound or a verify suite (a non-finite value in any row of
a tabular command or anywhere in a verify report) exit 2 without writing it.

Every command takes the model flags --family, --upsilon, --cl, --law, --n
and --seed, and of the run flags --beta, --h, --h-grid, --replicas and
--format the ones its row of _build_parser's command table lists, and a
verify suite those of its parameters; "verify all" reads what any of its
suites reads.
A run flag given, on the command line or in the --config file, to a
command that does not read it exits 2 without writing anything, and so do
--h together with --h-grid, an --h-grid holding no value, and neither of
them where they are read.  --replicas defaults to 32 in estimate and
sweep; without it moments runs 2000 replicas and coarse 100, and a count
below 2, or outside [100, 20000] for moments or [2, 1000] for coarse,
exits 2.  The header records the model flags and the run flags the command
read, so it replays as flags.  A --config file's flags sit right after the
command, so a flag on the command line beats the file; its suite line is
ignored.

sweep is estimate's alias, reading one field (--h) or a grid (--h-grid)
as estimate does; the header names the command as typed, so artifacts
written as sweep still say so.

A verify report is a JSON object with keys "config" (the resolved run
configuration), "artifact_version", "suites" (one report of
``copolab.checks`` per suite run) and "pass" (true when every assert-kind
check of every suite holds).  Tabular subcommands write CSV whose first
line is a "# ..." comment holding the same config object, then a row naming
one column per key of the rows, a nested dict's keys spelled outer.inner;
floats serialize as shortest round-trip decimals in both formats.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import io
import json
import math
import re
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, bounds as bounds_mod, checks, estimators
from .disorder import DisorderLaw, q1
from .kernel import FamilyKind, SlowlyVaryingFamily, build_kernel, defect_Kk
from .partition import log_annealed_Z

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

    # name, aliases, handler, the run flags it reads (verify: None, a suite
    # reads its parameters but kernel, law and seed) and help
    commands = [
        ("estimate", ["sweep"], _cmd_estimate, {"beta", "h", "h_grid", "replicas", "format"},
         "Monte Carlo free-energy estimates at --h or over --h-grid"),
        ("annealed", [], _cmd_annealed, {"h", "h_grid", "format"}, "exact disorder-averaged values"),
        ("bounds", [], _cmd_bounds, {"beta", "h", "h_grid", "format"},
         "closed-form bound table over an h grid"),
        ("kernel-info", [], _cmd_kernel_info, {"h", "format"}, "kernel summary and defect diagnostics"),
        ("verify", [], _cmd_verify, None, "run a verification suite"),
    ]
    families = sorted(kind.value for kind in FamilyKind)
    laws = sorted(law.value for law in DisorderLaw)
    for name, aliases, run, reads, text in commands:
        p = sub.add_parser(name, aliases=aliases, help=text)
        p.set_defaults(run=run, reads=reads)
        # SUPPRESS keeps a pre-subcommand --config from being clobbered
        p.add_argument("--config", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        # -1e-3 or -0.1,0.2 after a flag is its value, not an unknown option, as from Python 3.13 on
        p._negative_number_matcher = re.compile(r"-\.?\d")
        p.add_argument("--family", choices=families, default="logarithmic")
        p.add_argument("--upsilon", type=float, default=2.0)
        p.add_argument(
            "--cl", dest="c_L", type=float, default=1.0, help="shape constant of the numerator"
        )
        p.add_argument("--law", choices=laws, default="gaussian")
        p.add_argument("--beta", type=float, required="beta" in (reads or ()), default=None)
        p.add_argument("--h", type=float, default=None)
        p.add_argument("--h-grid", default=None, help="comma-separated h values, descending for bounds")
        p.add_argument("--n", type=int, default=1000)
        p.add_argument("--replicas", type=int, default=None, help="default 32 in estimate, sweep")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=["csv", "json"], default=None)
    sub.choices["verify"].add_argument("suite", choices=[*checks.SUITES, "all"])
    return parser


@functools.cache  # as _build_parser: parsing leaves both probes unchanged
def _config_probes() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    # one finds --config anywhere in the line, the other where the command starts
    path, rest = argparse.ArgumentParser(add_help=False), argparse.ArgumentParser(add_help=False)
    for probe in (path, rest):
        probe.add_argument("--config")
    rest.add_argument("rest", nargs=argparse.REMAINDER)  # the command and what follows it
    return path, rest


def _apply_config_file(argv):
    # the file's flags go right after the command, ahead of the user's own
    # flags, so argparse's last-wins rule lets a flag in any spelling it
    # accepts (--seed 12, --seed=12, --see 12) beat the file
    path_probe, rest_probe = _config_probes()
    path = path_probe.parse_known_args(argv)[0].config
    if not path:
        return argv
    at = len(argv) - len(rest_probe.parse_known_args(argv)[0].rest) + 1
    flags = [
        f"--{key.replace('_', '-')}={value}"
        for key, value in _read_config_file(path).items()
        if key != "suite"  # a positional: the suite comes from the command line
    ]
    return argv[:at] + flags + argv[at:]


def _parse(argv) -> argparse.Namespace:
    """Parse and check a command line; the namespace is the run configuration.

    On top of the flags it adds h_values (where the command reads an h
    grid), kernel_family, disorder_law, suites (verify only) and config, the
    header: every model flag and every run flag the command read.
    """
    args = _build_parser().parse_args(_apply_config_file(argv))
    label, names, reads = args.command, [args.command], args.reads
    if reads is None:  # verify
        label = f"verify {args.suite}"
        names = args.suites = list(checks.SUITES) if args.suite == "all" else [args.suite]
        params = (inspect.signature(checks.SUITES[name]).parameters for name in names)
        reads = set().union(*params) - {"kernel", "law", "seed"}
    for flag in ("beta", "h", "h_grid", "replicas", "format"):
        if getattr(args, flag) is not None and flag not in reads:
            raise ValueError(f"{label} does not read --{flag.replace('_', '-')}")
    if args.run is _cmd_estimate and args.replicas is None:
        args.replicas = 32
    # 2 replicas at least; a verify suite's engine floor up to a desk-scale ceiling
    ranges = [{"moments": (100, 20_000), "coarse": (2, 1000)}.get(n, (2, math.inf)) for n in names]
    low, high = max(low for low, _ in ranges), min(high for _, high in ranges)
    if args.replicas is not None and not low <= args.replicas <= high:
        raise ValueError(f"{label} takes --replicas in [{low}, {high}], got {args.replicas}")
    grid = []
    if args.h_grid is not None:
        if args.h is not None:
            raise ValueError(f"{label} takes --h or --h-grid, not both")
        grid = [float(tok) for tok in args.h_grid.split(",") if tok.strip()]
        if not grid:
            raise ValueError(f"--h-grid {args.h_grid!r} holds no h value")
    named = [
        ("--beta", args.beta), ("--h", args.h), ("--upsilon", args.upsilon), ("--cl", args.c_L)
    ]
    for flag, value in named + [("--h-grid", h) for h in grid]:
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if args.beta is not None and args.beta < 0:
        raise ValueError(f"--beta must be nonnegative, got {args.beta}")
    if args.n < 1:
        raise ValueError(f"--n {args.n}: need at least one site")
    if "coarse" in names and args.beta is not None and q1(DisorderLaw(args.law), args.beta) == 0:
        raise ValueError(f"{label} needs q1(--beta) above 0: q1({args.beta}) = 0 leaves no crossover window")
    if "h_grid" in reads:
        if not grid and args.h is None:
            raise ValueError("one of --h or --h-grid is required")
        args.h_values = grid or [args.h]
    args.kernel_family = SlowlyVaryingFamily(FamilyKind(args.family), args.upsilon, args.c_L)
    args.disorder_law = DisorderLaw(args.law)
    header = {key: getattr(args, key, None) for key in _HEADER_KEYS}
    args.config = {key: value for key, value in header.items() if value is not None}
    return args


def _check_rows_finite(command, rows) -> None:
    # finite flags can still overflow a DP, a bound formula or a verify suite; refuse the artifact then
    source = {"bounds": "a bound formula", "verify": "a verify suite"}.get(command, "the DP")
    for row in rows:
        for key, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                at = f" at h = {row['h']}" if "h" in row else ""
                raise ValueError(f"{key} = {value}{at}: the inputs overflow {source}")


def _emit(args, rows, default_format="csv"):
    # the CSV columns are the keys of the first row, in order, a nested
    # dict's keys spelled outer.inner; every row has them
    fmt = args.format or default_format
    flat = [_flat(row) for row in rows]
    _check_rows_finite(args.command, flat)
    header = json.dumps(
        {"artifact_version": __version__, "config": args.config}, sort_keys=True, allow_nan=False
    )
    if fmt == "csv":
        out = io.StringIO()
        out.write("# " + header + "\n")
        writer = csv.writer(out, lineterminator="\n")  # quotes a cell holding a comma
        writer.writerow(flat[0])
        writer.writerows(row.values() for row in flat)  # None as an empty cell, a float by repr
        text = out.getvalue()
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


def _flat(value, path: str = "") -> dict:
    # every leaf of nested dicts and lists by its path, outer.inner and outer[i]
    if isinstance(value, dict):
        items = [(f"{path}.{key}" if path else key, item) for key, item in value.items()]
    elif isinstance(value, list):
        items = [(f"{path}[{i}]", item) for i, item in enumerate(value)]
    else:
        return {path: value}
    return {at: leaf for key, item in items for at, leaf in _flat(item, key).items()}


def _cmd_estimate(args) -> int:
    kernel = build_kernel(args.kernel_family, max(args.n, 1000))
    estimates = estimators.sweep_free_energy(
        kernel, args.disorder_law, args.beta, args.h_values, args.n, args.replicas, args.seed
    )
    rows = []
    for h, est in zip(args.h_values, estimates):
        row = {"beta": args.beta, "h": h}
        row.update(asdict(est))
        rows.append(row)
    _emit(args, rows)
    return 0


def _cmd_annealed(args) -> int:
    kernel = build_kernel(args.kernel_family, max(args.n, 1000))
    rows = []
    for h, value in zip(args.h_values, log_annealed_Z(kernel, args.n, args.h_values).tolist()):
        rows.append({"h": h, "n": args.n, "log_annealed_z": value, "per_site": value / args.n})
    _emit(args, rows)
    return 0


def _cmd_bounds(args) -> int:
    reports = bounds_mod.bound_table(
        args.kernel_family, args.disorder_law, args.beta, args.h_values
    )
    _emit(args, [asdict(rep) for rep in reports])
    return 0


def _cmd_kernel_info(args) -> int:
    family = args.kernel_family
    kernel = build_kernel(family, max(args.n, 1000))
    h = args.h if args.h is not None else 0.05
    diagnostics = {}
    try:
        plan = estimators.penalization_plan(kernel, h)
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
    _emit(args, [info], default_format="json")
    return 0


def _cmd_verify(args) -> int:
    kernel = build_kernel(args.kernel_family, max(args.n, 20_000))
    run = {
        "kernel": kernel, "law": args.disorder_law, "seed": args.seed,
        "beta": args.beta, "h": args.h, "replicas": args.replicas,
    }
    suites = {}
    for name in args.suites:
        suite = checks.SUITES[name]
        params = inspect.signature(suite).parameters
        suites[name] = suite(**{key: run[key] for key in params if run[key] is not None})
    ok = all(
        check["ok"] for suite in suites.values() for check in suite["checks"]
        if check["kind"] == "assert"
    )
    payload = {
        "artifact_version": __version__, "config": args.config, "suites": suites, "pass": ok
    }
    _check_rows_finite(args.command, [_flat(payload)])
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    _write(args, text)
    return 0 if ok else 1


def main(argv=None) -> int:
    try:
        args = _parse(list(sys.argv[1:] if argv is None else argv))
        return args.run(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
