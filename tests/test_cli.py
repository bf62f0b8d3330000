import contextlib
import csv
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from copolab import checks
from copolab.cli import _READS, _build_parser, main
from copolab.kernel import FamilyKind, SlowlyVaryingFamily, build_kernel
from copolab.kernel import renewal_mass


def run_cli(args):
    return main(list(args))


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def read_strict_json(path):
    # NaN and Infinity are not JSON; a numpy scalar would not serialize at all
    return json.loads(path.read_text(), parse_constant=_refuse_constant)


def test_estimate_missing_beta_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["estimate", "--h", "0.5"])
    assert err.value.code == 2
    assert "beta" in capsys.readouterr().err


def test_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "nosuchsuite"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["estimate", "--beta", "1.0", "--h", "nan"],
        ["annealed", "--h", "inf"],
        ["estimate", "--beta", "nan", "--h", "0.3"],
        ["bounds", "--beta", "1.0", "--h-grid", "0.1,nan"],
        ["kernel-info", "--upsilon", "inf"],
        ["kernel-info", "--cl", "nan"],
    ],
    ids=["estimate-h-nan", "annealed-h-inf", "estimate-beta-nan", "bounds-grid-nan",
         "upsilon-inf", "cl-nan"],
)
def test_non_finite_input_exits_2_without_artifact(tmp_path, capsys, args):
    out = tmp_path / "out.csv"
    assert run_cli([*args, "--n", "100", "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["estimate", "--beta", "1.0", "--h", "1e308", "--replicas", "2"],
        ["estimate", "--beta", "1e200", "--h", "0.1", "--replicas", "2"],
        ["sweep", "--beta", "1.0", "--h-grid", "1e308,0.1", "--replicas", "2"],
        ["annealed", "--h", "1e308"],
    ],
    ids=["estimate-h-overflow", "estimate-beta-overflow", "sweep-h-overflow",
         "annealed-h-overflow"],
)
def test_overflowing_finite_input_exits_2_without_artifact(tmp_path, capsys, args):
    out = tmp_path / "out.csv"
    with np.errstate(all="ignore"):
        assert run_cli([*args, "--n", "50", "--out", str(out)]) == 2
    assert "overflow the DP" in capsys.readouterr().err
    assert not out.exists()


def _subprocess_env(**extra):
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return dict(os.environ, PYTHONPATH=pythonpath, **extra)


def test_cli_import_skips_scipy_stats_and_integrate():
    env = _subprocess_env()
    heavy = (
        "scipy.special", "scipy.stats", "scipy.integrate", "scipy.signal", "scipy.linalg",
        "scipy.optimize",
    )
    probe = (
        "import sys, copolab.cli; "
        f"print(sorted(m for m in {heavy!r} if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_every_command_runs_without_scipy():
    # each command and verify suite, for each family, in one fresh interpreter:
    # none of them may load any scipy module, nor numpy.polynomial
    runs = [
        ["estimate", "--beta", "1", "--h", "0.3", "--n", "200", "--replicas", "4"],
        ["sweep", "--beta", "1", "--h-grid", "0.3,0.1", "--n", "200", "--replicas", "4"],
        ["annealed", "--h", "0.3", "--n", "200"],
        ["bounds", "--beta", "1", "--h-grid", "0.2,0.1"],
        ["kernel-info"],
        ["verify", "all", "--replicas", "100"],
        ["verify", "penalization", "--law", "binary"],
    ]
    probe = (
        "import os, sys\n"
        "from copolab.cli import main\n"
        f"runs = {runs!r}\n"
        "codes = [main([*args, '--family', family, '--out', os.devnull])\n"
        "         for family in ('sub-logarithmic', 'logarithmic', 'super-logarithmic')\n"
        "         for args in runs]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
        "                    or m.startswith('numpy.polynomial')))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=_subprocess_env(), capture_output=True, text=True,
        check=True,
    )
    assert result.stdout.strip() == f"{[0] * 3 * len(runs)} []"


@pytest.mark.parametrize(
    "args",
    [
        ["kernel-info", "--family", "super-logarithmic", "--upsilon", "172"],
        ["bounds", "--family", "super-logarithmic", "--upsilon", "200", "--beta", "1",
         "--h-grid", "0.2,0.1", "--format", "json"],
        ["annealed", "--family", "super-logarithmic", "--upsilon", "200", "--h", "0.1"],
        ["verify", "oracle", "--family", "super-logarithmic", "--upsilon", "200"],
        ["estimate", "--family", "super-logarithmic", "--upsilon", "200", "--beta", "1",
         "--h", "0.1", "--replicas", "2"],
        ["sweep", "--family", "super-logarithmic", "--upsilon", "200", "--beta", "1",
         "--h-grid", "0.2,0.1", "--replicas", "2"],
        ["verify", "all", "--family", "super-logarithmic", "--upsilon", "200", "--replicas", "100"],
        ["kernel-info", "--family", "logarithmic", "--upsilon", "1.5", "--cl", "1e308"],
    ],
    ids=["kernel-info", "bounds", "annealed", "verify-oracle", "estimate", "sweep", "verify-all",
         "kernel-info-normalization"],
)
def test_family_past_the_float_range_exits_2_without_artifact_or_warning(tmp_path, capsys, args):
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([*args, "--n", "1000", "--out", str(out)]) == 2
    upsilon = float(args[args.index("--upsilon") + 1])
    assert f"upsilon={upsilon}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["kernel-info", "--family", "logarithmic", "--upsilon", "400"],
        ["kernel-info", "--family", "sub-logarithmic", "--upsilon", "1100"],
        ["bounds", "--family", "logarithmic", "--upsilon", "1100", "--beta", "1", "--h-grid", "0.2,0.1"],
    ],
    ids=["kernel-info-log-400", "kernel-info-sub-1100", "bounds-log-1100"],
)
def test_large_upsilon_exits_2_naming_family_and_upsilon_without_warning(capsys, args):
    # L's or the tail's power of log x leaves the float range: refused by a
    # message that names the family and upsilon, and numpy never warns
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(args) == 2
    assert caught == []
    family, upsilon = args[args.index("--family") + 1], float(args[args.index("--upsilon") + 1])
    assert f"the {family} family at upsilon={upsilon} leaves the float range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--beta", "1.0", "--h-grid", "0.4,-0.1", "--n", "2000", "--replicas", "16",
         "--seed", "5"],
        ["verify", "coarse", "--seed", "3"],
        ["verify", "moments", "--seed", "2"],
    ],
    ids=["sweep", "verify-coarse", "verify-moments"],
)
def test_artifact_bytes_do_not_depend_on_blas_threads(args):
    # a fixed seed gives the same bytes whatever the BLAS thread count
    outputs = []
    for threads in ("1", "2"):
        env = _subprocess_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        result = subprocess.run(
            [sys.executable, "-m", "copolab.cli", *args], env=env, capture_output=True, check=True
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


def test_estimate_deterministic_output(tmp_path):
    paths = [tmp_path / f"run{i}.csv" for i in range(2)]
    for p in paths:
        code = run_cli(
            [
                "estimate", "--beta", "1.0", "--h", "0.4", "--n", "200",
                "--replicas", "6", "--seed", "9", "--out", str(p),
            ]
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_estimate_beta_zero_matches_annealed_subcommand(tmp_path):
    est_path = tmp_path / "est.csv"
    ann_path = tmp_path / "ann.csv"
    run_cli(
        ["estimate", "--beta", "0", "--h", "0.3", "--n", "400",
         "--replicas", "4", "--seed", "1", "--out", str(est_path)]
    )
    run_cli(["annealed", "--h", "0.3", "--n", "400", "--out", str(ann_path)])
    # the column rows, the keys of the rows the commands emit, in order
    est_lines, ann_lines = est_path.read_text().splitlines(), ann_path.read_text().splitlines()
    assert est_lines[1] == (
        "beta,h,n,replicas,mean_log_z_per_site,excess_per_site,stderr,upper_bracket,lower_bracket,c4,c5"
    )
    assert ann_lines[1] == "h,n,log_annealed_z,per_site"
    est_row, ann_row = est_lines[2].split(","), ann_lines[2].split(",")
    mean_per_site = float(est_row[4])
    annealed_per_site = float(ann_row[3])
    assert mean_per_site == pytest.approx(annealed_per_site, rel=1e-12)


def test_annealed_h_zero_equals_renewal_mass(tmp_path):
    out = tmp_path / "ann0.csv"
    run_cli(["annealed", "--h", "0", "--n", "500", "--out", str(out)])
    value = float(out.read_text().splitlines()[2].split(",")[2])
    kernel = build_kernel(SlowlyVaryingFamily(FamilyKind.LOGARITHMIC, 2.0, 1.0), 1000)
    assert value == pytest.approx(math.log(renewal_mass(kernel.masses, 500)[500]), rel=1e-12)


def test_bounds_csv_schema(tmp_path):
    out = tmp_path / "bounds.csv"
    code = run_cli(
        ["bounds", "--beta", "1.0", "--h-grid", "0.2,0.1,0.05", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == (
        "family,upsilon,c_L,beta,h,log_upper_general,log_upper_sharper,"
        "log_lower_rss,log_lower_sublog,flags"
    )
    assert len(lines) == 5


def test_sweep_runs_over_grid(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        ["sweep", "--beta", "0.5", "--h-grid", "0.4,0.2", "--n", "150",
         "--replicas", "4", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4  # header comment, column row, two sweeps


def test_sweep_rows_equal_estimate_rows_bytewise(tmp_path):
    # one engine call over the grid; every sweep row is the estimate row at its h
    common = ["--beta", "0.9", "--n", "150", "--replicas", "5", "--seed", "11"]
    grid = ["0.4", "-0.25", "0.05"]
    sweep = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--h-grid", ",".join(grid), *common, "--out", str(sweep)]) == 0
    sweep_rows = sweep.read_text().splitlines()[2:]
    assert len(sweep_rows) == len(grid)
    for h, row in zip(grid, sweep_rows):
        single = tmp_path / f"estimate{h}.csv"
        assert run_cli(["estimate", "--h", h, *common, "--out", str(single)]) == 0
        assert single.read_text().splitlines()[2:] == [row]
    # estimate takes the grid as sweep does
    gridded = tmp_path / "estimate-grid.csv"
    assert run_cli(["estimate", "--h-grid", ",".join(grid), *common, "--out", str(gridded)]) == 0
    assert gridded.read_text().splitlines()[2:] == sweep_rows


@pytest.mark.parametrize(
    "args",
    [
        ["estimate", "--beta", "0.7", "--h", "0.2", "--n", "120", "--replicas", "4"],
        ["sweep", "--beta", "0.5", "--h-grid", "0.4,-0.2", "--n", "100", "--replicas", "3"],
        ["annealed", "--h-grid", "0.3,0.1", "--n", "300"],
        ["bounds", "--beta", "1.0", "--h-grid", "0.2,0.1,0.05"],
        ["kernel-info", "--format", "csv"],
        ["kernel-info", "--h", "5", "--format", "csv"],
    ],
    ids=["estimate", "sweep", "annealed", "bounds", "kernel-info", "kernel-info-defect-note"],
)
@pytest.mark.parametrize("family", ["sub-logarithmic", "logarithmic", "super-logarithmic"])
@pytest.mark.parametrize("law", ["gaussian", "binary"])
def test_every_csv_artifact_has_rows_as_wide_as_its_header(tmp_path, args, family, law):
    # a nested value (kernel-info's defect diagnostics) gets a column per
    # key, and a cell holding a comma is quoted, so csv.reader splits every
    # row of every command into as many fields as the column row names
    out = tmp_path / "artifact.csv"
    assert run_cli([*args, "--family", family, "--law", law, "--out", str(out)]) == 0
    comment, *lines = out.read_text().splitlines()
    assert comment.startswith("# {")
    columns, *rows = csv.reader(lines)
    assert rows and all(len(row) == len(columns) for row in rows)
    if args[0] == "kernel-info":
        assert [c for c in columns if c.startswith("defect_diagnostics.")]


def test_kernel_info_normalization_positive(tmp_path):
    out = tmp_path / "info.json"
    code = run_cli(["kernel-info", "--n", "1200", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["rows"][0]["normalization"] > 0
    assert payload["rows"][0]["mass_sum_with_tail"] == pytest.approx(1.0, abs=1e-12)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta = 1.0\nh = 0.3\nn = 150\nreplicas = 4\nseed = 11\n")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    run_cli(["--config", str(cfg), "estimate", "--out", str(out_a)])
    header_a = json.loads(out_a.read_text().splitlines()[0][2:])
    assert header_a["config"]["seed"] == 11
    # every spelling argparse accepts beats the file
    for flag in (["--seed", "12"], ["--seed=12"], ["--see", "12"]):
        run_cli(["--config", str(cfg), "estimate", *flag, "--out", str(out_b)])
        header_b = json.loads(out_b.read_text().splitlines()[0][2:])
        assert header_b["config"]["seed"] == 12


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "--beta", "1", "--replicas", "2", "--h-grid", "-0.1,0.2"],
        ["annealed", "--h-grid", "-0.2,0.1"],
        ["estimate", "--beta", "1", "--replicas", "2", "--h", "-1e-3"],
        ["annealed", "--h", "-2E-2"],
        ["sweep", "--beta", "1", "--replicas", "2", "--h-g", "-0.1,0.2"],
    ],
    ids=["sweep-grid", "annealed-grid", "estimate-h", "annealed-h", "sweep-abbreviated"],
)
def test_a_negative_value_after_its_flag_is_read_as_the_value(tmp_path, args):
    # argparse took -1e-3 or -0.1,0.2 for an unknown option and exited 2;
    # spaced, after a --config file's flags or glued with "=", the value
    # gives one artifact, byte for byte
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 60\n")
    flag, value = args[-2:]
    runs = {
        "spaced": [*args, "--n", "60"],
        "config": ["--config", str(cfg), *args],
        "glued": [*args[:-2], f"{flag}={value}", "--n", "60"],
    }
    for name, run in runs.items():
        assert run_cli([*run, "--out", str(tmp_path / name)]) == 0
    assert len({(tmp_path / name).read_bytes() for name in runs}) == 1


def test_config_file_skips_comment_and_blank_lines(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment-only line\n\nh = 0.3   # a trailing comment\n   \nn = 60\n")
    out = tmp_path / "a.csv"
    assert run_cli(["--config", str(cfg), "annealed", "--out", str(out)]) == 0
    config = json.loads(out.read_text().splitlines()[0][2:])["config"]
    assert (config["h"], config["n"]) == (0.3, 60)


def test_config_file_line_without_equals_exits_2_without_artifact(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h = 0.3\nn 60\n")
    out = tmp_path / "a.csv"
    assert run_cli(["--config", str(cfg), "annealed", "--out", str(out)]) == 2
    assert "malformed config line: n 60" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("file_suite", ["oracle", "moments"])
def test_config_file_suite_line_is_ignored(tmp_path, file_suite):
    # the suite is a positional: it comes from the command line
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 3\nsuite = {file_suite}\n")
    out = tmp_path / "report.json"
    assert run_cli(["--config", str(cfg), "verify", "oracle", "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert (config["suite"], config["seed"]) == ("oracle", 3)


def test_regenerate_from_embedded_config(tmp_path):
    first = tmp_path / "first.csv"
    run_cli(
        ["estimate", "--beta", "0.7", "--h", "0.2", "--n", "120",
         "--replicas", "5", "--seed", "21", "--out", str(first)]
    )
    config = json.loads(first.read_text().splitlines()[0][2:])["config"]
    second = tmp_path / "second.csv"
    args = ["estimate", "--out", str(second)]
    for key in ("family", "law"):
        args += ["--" + key, str(config[key])]
    args += ["--upsilon", str(config["upsilon"]), "--cl", str(config["c_L"])]
    for key in ("beta", "h", "n", "replicas", "seed"):
        args += ["--" + key, str(config[key])]
    run_cli(args)
    assert first.read_bytes() == second.read_bytes()


def test_verify_oracle_suite_passes_fast(tmp_path):
    out = tmp_path / "oracle.json"
    start = time.time()
    code = run_cli(["verify", "oracle", "--seed", "2", "--out", str(out)])
    elapsed = time.time() - start
    assert code == 0
    assert elapsed < 60.0
    payload = read_strict_json(out)
    assert payload["pass"] is True
    oracle = payload["suites"]["oracle"]
    assert oracle["worst_relative_error"] <= 1e-10
    assert oracle["worst_block_edge_relative_error"] <= 1e-10
    assert oracle["worst_two_pass_relative_error"] <= 1e-10
    assert oracle["worst_trimmed_two_pass_relative_error"] <= 1e-10
    # three groups of 4 rows in passes of two groups, whatever the pass budget
    assert oracle["two_pass_batch"] == {"replicas": 12, "n": 197, "rows_per_pass": 8, "rows_checked": 12}
    # and the same two blocks of rows, two groups of 4 and one, for the trimmed engine
    assert oracle["trimmed_two_pass"] == {
        "plan": {"M": 12, "k": 2, "m": 3, "N": 430}, "replicas": 12, "rows_per_pass": 8, "rows_checked": 12
    }
    assert oracle["worst_renewal_mass_relative_error"] <= 1e-10
    assert oracle["worst_annealed_relative_error"] <= 1e-10
    # the exact identities on 4 rows per law at N = 4096, beta = 1 and 6
    assert oracle["identity_rows"] == {"n": 4096, "replicas": 4, "betas": [1.0, 6.0], "h": 0.1, "split": 1365}
    assert max(oracle["worst_flip_relative_error"], oracle["worst_reversal_relative_error"]) <= 1e-12
    assert oracle["least_superadditivity_margin"] >= -1e-12
    assert {c["name"] for c in oracle["checks"]} == {
        "dp_matches_enumeration", "batched_dp_matches_row_loop", "trimmed_engine_matches_row_loop",
        "renewal_mass_matches_row_loop", "annealed_matches_row_loop", "identities_hold",
        "replica_streams_match_seed_sequence",
    }
    assert oracle["stream_seeds"] == [2, 2**32 + 2, 10**30 + 2, 10**45 + 2]
    assert oracle["streams_checked"] == 4 * 66


def test_verify_oracle_checks_trimmed_engine(tmp_path):
    out = tmp_path / "oracle.json"
    assert run_cli(["verify", "oracle", "--seed", "5", "--law", "binary", "--out", str(out)]) == 0
    oracle = json.loads(out.read_text())["suites"]["oracle"]
    check = next(c for c in oracle["checks"] if c["name"] == "trimmed_engine_matches_row_loop")
    assert check == {"name": "trimmed_engine_matches_row_loop", "kind": "assert", "ok": True}
    assert oracle["trimmed_trials"] >= 10
    assert 0.0 <= oracle["worst_trimmed_relative_error"] <= 1e-10


def test_verify_moments_suite_passes(tmp_path):
    out = tmp_path / "moments.json"
    code = run_cli(
        ["verify", "moments", "--seed", "2", "--replicas", "2000", "--out", str(out)]
    )
    assert code == 0
    payload = read_strict_json(out)
    assert payload["suites"]["moments"]["identity_ok"] is True


def test_verify_moments_honours_beta(tmp_path):
    out = tmp_path / "moments.json"
    code = run_cli(
        ["verify", "moments", "--beta", "0.3", "--seed", "2", "--replicas", "2000",
         "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["beta"] == 0.3
    assert payload["suites"]["moments"]["beta"] == 0.3
    assert payload["suites"]["moments"]["h"] == 0.3


def test_verify_penalization_suite_passes(tmp_path):
    out = tmp_path / "pen.json"
    code = run_cli(["verify", "penalization", "--seed", "2", "--out", str(out)])
    assert code == 0
    payload = read_strict_json(out)
    checks = {c["name"]: c for c in payload["suites"]["penalization"]["checks"]}
    assert checks["closed_form_two_paths_identical"]["ok"]
    assert checks["defect_sign_where_sufficient_condition_holds"]["ok"]


def test_verify_penalization_records_a_refused_plan_as_skipped(tmp_path):
    # at upsilon = 4 the tail ratio phi is still negative at h = 0.1 and
    # 0.05 (-0.2381 and -0.001281): the plan refuses those fields
    out = tmp_path / "pen.json"
    assert run_cli(["verify", "penalization", "--upsilon", "4", "--out", str(out)]) == 0
    payload = read_strict_json(out)
    points = payload["suites"]["penalization"]["points"]
    assert [set(point) for point in points[:2]] == [{"h", "skipped"}] * 2
    assert [point["h"] for point in points[:2]] == [0.1, 0.05]
    assert "phi(h) = -0.2381 is nonpositive" in points[0]["skipped"]
    assert "phi(h) = -0.001281 is nonpositive" in points[1]["skipped"]
    assert [point["k"] for point in points[2:]] == [7, 27, 75, 188, 441]
    assert payload["pass"]


def test_verify_moments_rebuilds_a_kernel_shorter_than_its_plan():
    # the default plan at beta = 0.5, h = 0.3 runs to N = 10 753: a kernel of
    # support 2000 is rebuilt to that support, so the report is the one a
    # kernel of support N gives
    from copolab import checks
    from copolab.disorder import GAUSSIAN

    family = SlowlyVaryingFamily(FamilyKind.LOGARITHMIC, 2.0, 1.0)
    short = checks.moments(build_kernel(family, 2000), GAUSSIAN, 0, replicas=100)
    assert short["plan"]["N"] == 10_753
    assert short == checks.moments(build_kernel(family, 10_753), GAUSSIAN, 0, replicas=100)


def test_verify_penalization_closed_form_check_fails_on_a_dropped_b(tmp_path, monkeypatch):
    # the closed form is checked against -q1 phi / h, phi from the plan's
    # own tail ratio: a bounds.log_upper_general that drops b fails it
    from copolab import bounds

    general = bounds.log_upper_general
    monkeypatch.setattr(bounds, "log_upper_general", lambda *args: general(*args) / args[-1])
    out = tmp_path / "pen.json"
    assert run_cli(["verify", "penalization", "--seed", "2", "--out", str(out)]) == 1
    checks = {c["name"]: c["ok"] for c in read_strict_json(out)["suites"]["penalization"]["checks"]}
    assert checks == {"closed_form_two_paths_identical": False, "defect_sign_where_sufficient_condition_holds": True}


def test_verify_coarse_suite_records_scans(tmp_path):
    out = tmp_path / "coarse.json"
    code = run_cli(
        ["verify", "coarse", "--seed", "2", "--replicas", "100", "--out", str(out)]
    )
    assert code == 0  # scan-type findings never fail the run
    payload = read_strict_json(out)
    kinds = {c["name"]: c["kind"] for c in payload["suites"]["coarse"]["checks"]}
    assert kinds["green_constant_stability"] == "scan"


def test_verify_moments_default_replicas_stay_out_of_the_header(tmp_path):
    # the header holds what was given; the suite records the 2000 it ran
    out = tmp_path / "moments.json"
    assert run_cli(["verify", "moments", "--seed", "2", "--out", str(out)]) == 0
    payload = read_strict_json(out)
    assert "replicas" not in payload["config"]
    assert payload["suites"]["moments"]["replicas"] == 2000


def test_verify_coarse_runs_and_records_the_replicas_given(tmp_path):
    out = tmp_path / "coarse.json"
    assert run_cli(["verify", "coarse", "--seed", "2", "--replicas", "150", "--out", str(out)]) == 0
    payload = read_strict_json(out)
    suite = payload["suites"]["coarse"]
    assert payload["config"]["replicas"] == suite["replicas"] == 150
    assert suite["beta"] == 1.0 and suite["h"] > 0.0
    assert all(spot["stderr"] > 0.0 for spot in suite["fractional_moment_spot"])


@pytest.mark.parametrize(
    "args",
    [["verify", "coarse", "--replicas", "5000"], ["verify", "coarse", "--replicas", "1001"],
     ["verify", "moments", "--replicas", "50"], ["verify", "moments", "--replicas", "20001"],
     ["verify", "all", "--replicas", "2000"]],
    ids=["coarse-5000", "coarse-1001", "moments-50", "moments-20001", "all-2000"],
)
def test_verify_replicas_outside_the_suite_range_exit_2(tmp_path, capsys, args):
    # a suite runs the count it is given or none: no silent clamp
    out = tmp_path / "report.json"
    assert run_cli([*args, "--out", str(out)]) == 2
    assert "takes --replicas in [" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_enumerates_the_rows_of_the_replica_source(monkeypatch):
    # the rows the oracle checks against enumeration are the seeded source's
    # rows, the very rows whose batched DP values they sit next to
    from copolab import checks

    sources, evaluated, enumerated = [], [], []
    source, engine, brute = checks._replica_prefixes, checks._log_z_replicas, checks.brute_force_log_Z

    def record_source(*args):
        sources.append(args)
        return source(*args)

    def record_engine(blocks, kernel):
        evaluated.append(np.vstack(blocks))
        return engine(blocks, kernel)

    def record_row(row, kernel):
        enumerated.append(row.copy())
        return brute(row, kernel)

    monkeypatch.setattr(checks, "_replica_prefixes", record_source)
    monkeypatch.setattr(checks, "_log_z_replicas", record_engine)
    monkeypatch.setattr(checks, "brute_force_log_Z", record_row)
    assert run_cli(["verify", "oracle", "--seed", "4", "--out", os.devnull]) == 0
    trials = len(enumerated) // 2
    assert trials == 60
    want = np.concatenate([row for args in sources[:trials] for row in next(source(*args))]).tobytes()
    assert np.concatenate(enumerated).tobytes() == want
    assert np.concatenate([rows.ravel() for rows in evaluated[:trials]]).tobytes() == want


def test_verify_coarse_records_supercritical_tilt_as_scan(tmp_path):
    # at eta = 0.1 the crossover tilt of the Gaussian law at h = 0.08 is
    # supercritical: its renewal mass leaves the float range
    out = tmp_path / "coarse.json"
    code = run_cli(["verify", "coarse", "--h", "0.08", "--seed", "2", "--out", str(out)])
    assert code == 0
    suite = json.loads(out.read_text())["suites"]["coarse"]
    assert suite["feasible"] is False
    assert "supercritical" in suite["note"]
    checks = {c["name"]: c for c in suite["checks"]}
    assert checks["window_feasible"] == {"name": "window_feasible", "kind": "scan", "ok": False}
    assert checks["report_values_finite"]["ok"] is True


@pytest.mark.parametrize(
    "family,h", [("super-logarithmic", "0.5"), ("logarithmic", "0.3")], ids=["super-log", "log"]
)
def test_verify_coarse_refuses_h_beyond_c3_naming_h(tmp_path, capsys, family, h):
    # c3 = 0.9 q1(1) = 0.45: the super-logarithmic window needs h < c3, the
    # logarithmic one log(c3/h) > 1
    out = tmp_path / "coarse.json"
    code = run_cli(
        ["verify", "coarse", "--family", family, "--h", h, "--seed", "2", "--out", str(out)]
    )
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err
    assert f"h={h}" in err and "c3" in err and family in err


@pytest.mark.parametrize("suite", ["moments", "coarse"])
@pytest.mark.parametrize("h", ["0", "-0.0", "-0.1"])
def test_verify_nonpositive_h_exits_2_without_artifact(tmp_path, capsys, suite, h):
    out = tmp_path / "report.json"
    assert run_cli(["verify", suite, "--h", h, "--out", str(out)]) == 2
    assert "h must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "oracle", "--beta", "1.0"],
        ["verify", "oracle", "--h", "0.3"],
        ["verify", "penalization", "--h", "0.3"],
        ["verify", "moments", "--h-grid", "0.3,0.2"],
        ["verify", "all", "--h-grid", "0.3"],
        ["verify", "penalization", "--replicas", "7"],
        ["verify", "oracle", "--format", "json"],
        ["annealed", "--beta", "1.0"],
        ["bounds", "--beta", "1.0", "--h", "0.1", "--replicas", "4"],
        ["kernel-info", "--h-grid", "0.1"],
    ],
    ids=["oracle-beta", "oracle-h", "penalization-h", "moments-h-grid", "all-h-grid",
         "penalization-replicas", "oracle-format", "annealed-beta", "bounds-replicas",
         "kernel-info-h-grid"],
)
def test_verify_refuses_a_flag_its_suite_does_not_read(tmp_path, capsys, args):
    # an ignored flag would be echoed in the report header as if it were used
    out = tmp_path / "report.json"
    assert run_cli([*args, "--out", str(out)]) == 2
    assert "does not read --" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["estimate", "--beta", "1.0", "--h", "0.3", "--h-grid", "0.2,0.1"],
        ["sweep", "--beta", "1.0", "--h-grid", ","],
        ["annealed", "--h-grid", " , "],
        ["verify", "moments", "--replicas", "0"],
        ["verify", "coarse", "--replicas", "-5"],
        ["verify", "moments", "--h", "0.27"],
        ["verify", "moments", "--h", "0.25"],
        ["verify", "moments", "--h", "0.2"],
        ["estimate", "--beta", "1.0", "--h", "0.3", "--n", "-3"],
        ["sweep", "--beta", "1.0", "--h-grid", "0.3,0.1", "--n", "-3"],
        ["estimate", "--beta", "1.0"],
    ],
    ids=["h-with-h-grid", "h-grid-comma", "h-grid-blank", "moments-replicas-0",
         "coarse-replicas-negative", "moments-h-0.27", "moments-h-0.25", "moments-h-0.2",
         "estimate-n-negative", "sweep-n-negative", "estimate-no-h"],
)
def test_ambiguous_or_empty_h_input_exits_2_without_artifact(tmp_path, capsys, args):
    # --h next to --h-grid would be dropped, an empty grid gives no rows, a
    # verify suite runs no --replicas below its floor, a moments
    # --h whose trimmed plan needs more sites than its budget would exhaust
    # memory, and a negative --n would reach numpy's allocator; a case's own
    # --n comes last and so beats the default 50
    out = tmp_path / "out.csv"
    assert run_cli([args[0], "--n", "50", *args[1:], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    if "--n" in args:
        assert "need at least one site" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["estimate", "--beta", "1.0", "--h", "0.3"],
        ["sweep", "--beta", "1.0", "--h-grid", "0.3,0.1"],
        ["verify", "moments"],
        ["verify", "coarse"],
        ["verify", "oracle"],
    ],
    ids=["estimate", "sweep", "moments", "coarse", "oracle"],
)
def test_negative_seed_exits_2_without_artifact(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert run_cli([*args, "--seed", "-1", "--n", "50", "--out", str(out)]) == 2
    assert "non-negative" in capsys.readouterr().err
    assert not out.exists()


_BETA_READERS = [
    ["estimate", "--h", "0.3"], ["sweep", "--h-grid", "0.3,0.1"], ["bounds", "--h", "0.1"],
    ["verify", "moments"], ["verify", "penalization"], ["verify", "coarse"], ["verify", "all"],
]
_N_READERS = [
    ["estimate", "--beta", "1.0", "--h", "0.3"], ["sweep", "--beta", "1.0", "--h-grid", "0.3,0.1"],
    ["annealed", "--h", "0.1"], ["bounds", "--beta", "1.0", "--h", "0.1"], ["kernel-info"],
    *(["verify", suite] for suite in ("oracle", "moments", "penalization", "coarse", "all")),
]


def _label(args):
    return "-".join(args[:2] if args[0] == "verify" else args[:1])


@pytest.mark.parametrize(
    "args,message",
    [([*a, "--beta", "-1"], "--beta must be nonnegative") for a in _BETA_READERS]
    + [([*a, "--n", n], "need at least one site") for a in _N_READERS for n in ("0", "-3")],
    ids=[f"{_label(a)}-beta-negative" for a in _BETA_READERS]
    + [f"{_label(a)}-n{n}" for a in _N_READERS for n in ("0", "-3")],
)
def test_negative_beta_or_no_site_exits_2_at_parse_without_artifact(tmp_path, capsys, args, message):
    # refused before any suite or engine runs, with the flag's own value
    out = tmp_path / "out"
    assert run_cli([*args, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_verify_moments_at_beta_zero_passes(tmp_path):
    # at beta = 0 both sides of the identity are exact, with sigma 0, and
    # differ by rounding only, which the identity's rounding floor admits
    out = tmp_path / "moments.json"
    assert run_cli(["verify", "moments", "--beta", "0", "--out", str(out)]) == 0
    payload = read_strict_json(out)
    moments = payload["suites"]["moments"]
    assert moments["identity_three_sigma"] == 0.0
    assert moments["identity_abs_diff"] <= 1e-12
    assert moments["identity_ok"] and payload["pass"] is True


@pytest.mark.parametrize("suite", ["coarse", "all"])
def test_coarse_at_beta_zero_exits_2_naming_beta(tmp_path, capsys, suite):
    # q1(0) = 0, and q1(1e-300) underflows to 0, leave no crossover window;
    # the refusal names --beta, the flag given, not the h = 0 the suite
    # would derive from it, and comes before any suite runs
    out = tmp_path / "out"
    for beta in ("0", "1e-300"):
        assert run_cli(["verify", suite, "--beta", beta, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: verify {suite} needs q1(--beta) above 0: "
            f"q1({float(beta)}) = 0 leaves no crossover window\n"
        )
        assert not out.exists()


def test_coarse_default_window_is_1000_sites_at_every_beta(monkeypatch):
    # the default h gives int(exp(c3 / h)) = 1000 whatever the last bits of
    # q1(beta); h = c3 / log(1000) gave 999 at most beta of this grid
    from copolab.disorder import BINARY, GAUSSIAN

    windows = []

    def spy(kernel, law, beta, h, c3, **kwargs):
        windows.append(int(math.exp(c3 / h)))
        return {"feasible": False}

    monkeypatch.setattr(checks.estimators, "coarse_graining_check", spy)
    kernel = build_kernel(SlowlyVaryingFamily(FamilyKind.LOGARITHMIC, 2.0), 1000)
    betas = np.linspace(0.25, 5.0, 4751).tolist()
    for law in (GAUSSIAN, BINARY):
        for beta in betas:
            checks.coarse(kernel, law, 0, beta=beta)
    assert windows == [1000] * (2 * len(betas))


@pytest.mark.xfail(strict=True, raises=IndexError, reason="ROADMAP item 1a: window_sum past its mass table")
def test_verify_coarse_window_past_its_mass_table_writes_a_report(tmp_path):
    # at upsilon = 1.0000001 the coarse check's mass table ends before its
    # crossover window starts, and window_sum indexes past it; the fix
    # reports the window as a scan finding, so verify writes its report
    out = tmp_path / "coarse.json"
    code = run_cli(["verify", "coarse", "--upsilon", "1.0000001", "--replicas", "2", "--out", str(out)])
    assert code in (0, 1)
    assert read_strict_json(out)["pass"] is (code == 0)


def _run_captured(args, capsys):
    try:
        code = run_cli(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_runs_in_one_process_match_runs_alone(capsys):
    # the parser is built once per process; a refused run must not change
    # what later runs of other commands write
    runs = [
        ["estimate", "--h", "0.5"],
        ["estimate", "--beta", "0.7", "--h", "0.2", "--n", "80", "--replicas", "3", "--seed", "5"],
        ["verify", "nosuchsuite"],
        ["kernel-info", "--h", "0.04", "--format", "csv"],
        ["annealed", "--h-grid", "0.3,0.1", "--n", "60", "--replicas", "4"],
        ["sweep", "--beta", "0.5", "--h-grid", "0.4,0.2", "--n", "70", "--replicas", "3"],
        ["bounds", "--beta", "1.0", "--h", "0.1", "--format", "json"],
    ]
    together = [_run_captured(args, capsys) for args in runs]
    alone = []
    for args in runs:
        _build_parser.cache_clear()
        alone.append(_run_captured(args, capsys))
    assert together == alone
    assert [code for code, _, _ in together] == [2, 0, 2, 0, 2, 0, 0]


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert run_cli(["annealed", "--h", "0.1", "--n", "50", "--out", str(out)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not out.parent.exists()


def _replay(path):
    """The command line that the header of the artifact at ``path`` spells."""
    text = path.read_text()
    config = json.loads(text.splitlines()[0][2:] if text.startswith("# ") else text)["config"]
    replay = [config.pop("command")]
    if "suite" in config:
        replay.append(config.pop("suite"))
    for key, value in config.items():
        replay += ["--cl" if key == "c_L" else "--" + key.replace("_", "-"), str(value)]
    return replay


@pytest.mark.parametrize(
    "args",
    [
        ["estimate", "--beta", "0.7", "--h", "0.2", "--n", "120", "--replicas", "5",
         "--seed", "21", "--family", "sub-logarithmic", "--law", "binary", "--format", "json"],
        ["sweep", "--beta", "0.5", "--h-grid", "0.4,0.2", "--n", "100", "--replicas", "3",
         "--seed", "4", "--upsilon", "2.5", "--cl", "1.5"],
        ["annealed", "--h-grid", "0.3,0.1", "--n", "300", "--family", "super-logarithmic"],
        ["bounds", "--beta", "1.0", "--h-grid", "0.2,0.1", "--law", "binary", "--format", "json"],
        ["kernel-info", "--h", "0.04", "--n", "1200", "--format", "csv"],
        ["verify", "oracle", "--seed", "3"],
        ["verify", "penalization", "--beta", "0.8", "--family", "sub-logarithmic"],
    ],
    ids=["estimate", "sweep", "annealed", "bounds", "kernel-info", "verify-oracle",
         "verify-penalization"],
)
def test_header_replays_as_flags(tmp_path, args):
    # the header holds every value the run used and nothing else
    first = tmp_path / "first"
    assert run_cli([*args, "--out", str(first)]) == 0
    second = tmp_path / "second"
    assert run_cli([*_replay(first), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["--family", "super-logarithmic", "--beta", "0"],
        ["--family", "super-logarithmic", "--beta", "1e-170"],
        ["--family", "super-logarithmic", "--beta", "0", "--law", "binary"],
    ],
    ids=["beta-0", "beta-underflows-q1", "beta-0-binary"],
)
def test_bounds_where_q1_is_zero_give_log_bounds_zero(tmp_path, args):
    # q1 = 0 leaves the super-logarithmic envelope at its limit, as the
    # other families' bounds are at beta = 0
    out = tmp_path / "bounds.json"
    assert run_cli(["bounds", "--h", "0.1", *args, "--format", "json", "--out", str(out)]) == 0
    (row,) = read_strict_json(out)["rows"]
    assert [row[key] for key in ("log_upper_general", "log_upper_sharper", "log_lower_rss")] == [0.0] * 3


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bounds_past_the_float_range_exit_2_without_artifact(tmp_path, capsys, fmt):
    # the Gaussian q1 = beta^2 / 2 is inf at beta = 1e200, and so is the bound
    out = tmp_path / "bounds"
    assert run_cli(["bounds", "--h", "0.1", "--beta", "1e200", "--format", fmt, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: log_upper_general = -inf at h = 0.1: the inputs overflow a bound formula\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("family", ["logarithmic", "sub-logarithmic"])
def test_bounds_of_the_binary_law_at_large_beta_take_q1_q2_near_log_2(tmp_path, family):
    # each bound of these families is q1 (log_lower_sublog: q2) times a
    # factor of h alone, and the +/-1 q1 and q2 tend to log 2; the direct
    # forms cancelled to 0 at beta = 1e16
    rows = {}
    for beta in ("1", "1e16"):
        out = tmp_path / f"bounds-{beta}.json"
        assert run_cli(["bounds", "--h", "0.1", "--beta", beta, "--law", "binary", "--family", family,
                        "--format", "json", "--out", str(out)]) == 0
        (rows[beta],) = read_strict_json(out)["rows"]
    q1_ratio = math.log(2.0) / (math.tanh(1.0) - math.log(math.cosh(1.0)))
    q2_ratio = math.log(2.0) / (math.log(math.cosh(2.0)) - 2.0 * math.log(math.cosh(1.0)))
    ratios = {"log_upper_general": q1_ratio, "log_upper_sharper": q1_ratio, "log_lower_rss": q1_ratio,
              "log_lower_sublog": q2_ratio}
    for key, ratio in ratios.items():
        if rows["1"][key] is not None:
            assert rows["1e16"][key] == pytest.approx(rows["1"][key] * ratio, rel=1e-13), key


# the command-line contract: the value classes of each flag, as text
_VALID = {
    "beta": ["0.3", "0.7", "1", "2.5"], "h": ["0.3", "0.1", "0.05", "-0.2"],
    "upsilon": ["1.5", "2", "2.5", "4"], "c_L": ["0.5", "1", "1.5"],
    "n": ["2", "7", "40", "150"], "replicas": ["2", "3", "7"], "seed": ["0", "7"],
}
_BOUNDARY = {
    "beta": ["19.1", "1e-8"], "h": ["0.36787944117144233", "1e-3"], "upsilon": ["1", "1.0000001"],
    "c_L": ["1e-3", "1e3"], "n": ["1", "64", "65"], "replicas": ["2"], "seed": [str(2**32), str(2**64)],
}
_FLOAT_CLASSES = {
    "zero": ["0", "-0", "0.0"],
    "tiny": ["1e-170", "5e-324", "2.2250738585072014e-308"],
    "huge": ["1e16", "1e200", "1e308", "1.7976931348623157e308"],
    "negative": ["-1", "-1e-3", "-1e200"],
    "non-finite": ["nan", "inf", "-inf"],
    "empty": [""],
    "malformed": ["abc", "0.1.2", "1,2", "0x10", "--"],
}
# never huge: a huge --n allocates its kernel before any check, and a huge
# --replicas derives one stream per replica
_COUNT_CLASSES = {"zero": ["0"], "negative": ["-1", "-40"], "empty": [""], "malformed": ["x", "1.5", "1e3"]}
_SEED_CLASSES = {
    "huge": ["123456789012345678901234567890"], "negative": ["-1"], "empty": [""], "malformed": ["seed"],
}
_GRID_CLASSES = {"empty": ["", ",", " , "], "malformed": ["0.2,,0.1", "0.2;0.1", "0.1,0.2"]}


def _one_of_classes(classes):
    return st.sampled_from(sorted(classes)).flatmap(lambda cls: st.sampled_from(classes[cls]))


def _flag_value(action, odd, valid=None):
    """A text value of the flag: valid or boundary, or with ``odd`` any class.

    ``valid`` maps a flag to the values that replace its valid and
    boundary ones.
    """
    dest = action.dest
    if action.choices:
        return st.sampled_from([*action.choices, *(["nosuch", ""] if odd else [])])
    if dest == "h_grid":
        # valid grids descend, as bounds needs; an odd one is any list of h values
        fine = st.lists(st.sampled_from(_VALID["h"] + _BOUNDARY["h"]), min_size=1, max_size=3, unique=True)
        fine = fine.map(lambda grid: ",".join(sorted(grid, key=float, reverse=True)))
        if not odd:
            return fine
        values = _one_of_classes({**_FLOAT_CLASSES, "valid": _VALID["h"]}).filter(lambda v: "," not in v)
        return st.one_of(st.lists(values, min_size=1, max_size=3).map(",".join), _one_of_classes(_GRID_CLASSES))
    if valid and dest in valid:
        classes = {"valid": valid[dest]}
    else:
        classes = {"valid": _VALID[dest], "boundary": _BOUNDARY[dest]}
    if odd:
        classes.update(
            _FLOAT_CLASSES if action.type is float else _SEED_CLASSES if dest == "seed" else _COUNT_CLASSES
        )
    return _one_of_classes(classes)


def _options(command, reads):
    """The command's flags, and of them the ones it reads: every model flag and ``reads``."""
    options = [
        action for action in _build_parser()._subparsers._group_actions[0].choices[command]._actions
        if action.option_strings and action.dest not in ("help", "config", "out")
    ]
    run_flags = set().union(*_READS.values())
    return options, [a for a in options if a.dest not in run_flags or a.dest in reads]


def _flags(draw, options, read, given, fields=(), valid=None):
    """``given``, some more flags of ``read`` but ``fields``, and in one line
    of four a stray one: a flag not read, or one of ``fields`` not given.

    Every value is valid or at a boundary but one flag's, which is drawn
    from every class, or none; ``valid`` as ``_flag_value`` takes it.
    """
    given = given + draw(st.lists(st.sampled_from([a for a in read if a not in [*given, *fields]]), unique=True))
    stray = [a for a in options if a not in read] + [a for a in fields if a not in given]
    if stray and draw(st.integers(0, 3)) == 0:
        given.append(draw(st.sampled_from(stray)))
    odd = draw(st.sampled_from([None, *given]))
    argv = []
    for action in given:
        argv += [action.option_strings[0], draw(_flag_value(action, action is odd, valid))]
    return argv


@st.composite
def _command_lines(draw):
    """A command, the flags it needs, some it reads, now and then one it does
    not or --h next to --h-grid, as ``_flags`` draws them."""
    command = draw(st.sampled_from(sorted(_READS)))
    options, read = _options(command, _READS[command])
    fields = [a for a in read if a.dest in ("h", "h_grid")]
    given = [a for a in read if a.required]
    if "h_grid" in _READS[command]:
        given.append(draw(st.sampled_from(fields)))
    return [command, *_flags(draw, options, read, given, fields)]


@st.composite
def _verify_lines(draw):
    """``verify`` and a suite, one line in twenty oracle or all (oracle takes
    about 1.5 s), and flags as ``_flags`` draws them from the suite's
    parameters and the model flags.  A suite that reads --replicas is given
    it, 100 where moments runs and a few for coarse, so every line is cheap.
    """
    cheap = draw(st.integers(0, 19)) > 0
    suite = draw(st.sampled_from(["coarse", "moments", "penalization"] if cheap else ["oracle", "all"]))
    names = list(checks.SUITES) if suite == "all" else [suite]
    reads = set().union(*(inspect.signature(checks.SUITES[name]).parameters for name in names))
    options, read = _options("verify", reads)
    given = [a for a in read if a.dest == "replicas"]
    valid = {"replicas": ["100"] if "moments" in names else _VALID["replicas"]}
    return ["verify", suite, *_flags(draw, options, read, given, valid=valid)]


def _assert_valid_and_finite(text):
    # strict JSON, or CSV under a strict JSON header with rows as wide as
    # it; every number finite; the documented empty cells are bounds'
    # log_lower_sublog (None) and its flags (no flag raised)
    if not text.startswith("# "):
        rows = json.loads(text, parse_constant=_refuse_constant)["rows"]
        for row in rows:
            assert [key for key, value in row.items() if value is None] in ([], ["log_lower_sublog"])
        return
    comment, *lines = text.splitlines()
    json.loads(comment[2:], parse_constant=_refuse_constant)
    columns, *rows = csv.reader(lines)
    assert rows and all(len(row) == len(columns) for row in rows)
    for row in rows:
        for column, cell in zip(columns, row):
            assert cell or column in ("log_lower_sublog", "flags"), column
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), f"{column} = {cell}"


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses some lines itself
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(argv=_command_lines())
@example(argv=["bounds", "--family", "super-logarithmic", "--h", "0.1", "--beta", "0"])
@example(argv=["bounds", "--family", "super-logarithmic", "--h", "0.1", "--beta", "1e-170"])
@example(argv=["bounds", "--h", "0.1", "--beta", "1e200"])
@example(argv=["bounds", "--h", "0.1", "--beta", "1e200", "--format", "json"])
@example(argv=["bounds", "--h", "0.1", "--beta", "1e16", "--law", "binary"])
@example(argv=["bounds", "--beta", "1", "--h", "0.3", "--upsilon", "1.0000001", "--cl", "5e-324"])
@example(argv=["estimate", "--beta", "1e308", "--h", "0.3", "--n", "2"])
@example(argv=["estimate", "--beta", "19.1", "--h", "1e308", "--n", "1", "--law", "binary"])
def test_command_line_contract(argv):
    # every command line exits 0 with a valid, finite artifact that replays
    # from its header byte for byte, or 2 with no artifact and one error
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        code, stdout, stderr = _run_in_process([*argv, "--out", str(first)])
        assert code in (0, 2)
        assert stdout == ""
        if code == 2:
            _assert_refused(first, stderr)
            return
        assert stderr == ""
        _assert_valid_and_finite(first.read_text())
        assert _run_in_process([*_replay(first), "--out", str(second)]) == (0, "", "")
        assert first.read_bytes() == second.read_bytes()


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(argv=_verify_lines())
@example(argv=["verify", "penalization", "--beta", "1e200"])
@example(argv=["verify", "coarse", "--beta", "1e-300", "--replicas", "2"])
@example(argv=["verify", "coarse", "--cl", "1e300", "--replicas", "2"])
@example(argv=["verify", "coarse", "--cl", "1e-200", "--replicas", "2"])
@example(argv=["verify", "coarse", "--law", "binary", "--beta", "1.3", "--replicas", "2"])
@example(argv=["verify", "moments", "--h", "1e-300", "--replicas", "100"])
@example(argv=["verify", "all", "--replicas", "100"])  # every suite runs, oracle included
def test_verify_contract(argv):
    # every verify line exits 0 or 1 with a strict JSON report whose "pass"
    # is the exit code's and which replays from its header byte for byte,
    # or 2 with no report and one error
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        try:
            code, stdout, stderr = _run_in_process([*argv, "--out", str(first)])
        except IndexError as exc:
            # the one known defect, ROADMAP item 1a: a crossover window past
            # the coarse check's mass table; pinned by the strict xfail
            # test_verify_coarse_window_past_its_mass_table_writes_a_report
            assert traceback.extract_tb(exc.__traceback__)[-1].name == "window_sum"
            return
        assert code in (0, 1, 2)
        assert stdout == ""
        if code == 2:
            _assert_refused(first, stderr)
            assert stderr.startswith("usage: ") or len(stderr) < 200, stderr
            return
        assert stderr == ""
        assert read_strict_json(first)["pass"] is (code == 0)
        assert _run_in_process([*_replay(first), "--out", str(second)]) == (code, "", "")
        assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "args,named",
    [
        (["penalization", "--beta", "1e200"], "suites.penalization.points[0].log_bound_closed_form = -inf"),
        (["coarse", "--cl", "1e300"], "the Green constant overflows at c_L=1e+300"),
        (["coarse", "--cl", "1e152"], "the Green constant overflows at c_L=1e+152"),
        (["coarse", "--cl", "1e-200"], "the Green constant underflows to 0 at c_L=1e-200"),
        (["moments", "--h", "1e-300"], "plan at h=1e-300 needs up to e^6.472e+301 sites"),
    ],
    ids=["penalization-report-inf", "coarse-green-tail-overflow", "coarse-green-ratio-overflow",
         "coarse-green-tail-underflow", "moments-plan-budget"],
)
def test_verify_refusals_name_what_the_user_gave(tmp_path, capsys, args, named):
    # one short config error line naming the report field or the flag, and no report
    out = tmp_path / "report.json"
    assert run_cli(["verify", *args, "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: ") and named in line and len(line) < 200, line
    assert not out.exists()


def _assert_refused(artifact, stderr):
    # exit 2 leaves no artifact and one config error line, or argparse's usage
    assert not artifact.exists()
    lines = stderr.splitlines()
    usage = lines[0].startswith("usage: ") and re.match(r"copolab( \S+)?: error: ", lines[-1])
    assert usage or (len(lines) == 1 and lines[0].startswith("config error: ")), stderr
