import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from copolab.cli import main
from copolab.kernel import FamilyKind, SlowlyVaryingFamily, build_kernel
from copolab.kernel import renewal_mass


def run_cli(args):
    return main(list(args))


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


def test_cli_import_skips_scipy_stats_and_integrate():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    heavy = ("scipy.special", "scipy.stats", "scipy.integrate", "scipy.signal", "scipy.linalg")
    probe = (
        "import sys, copolab.cli; "
        f"print(sorted(m for m in {heavy!r} if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


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
    est_row = est_path.read_text().splitlines()[2].split(",")
    ann_row = ann_path.read_text().splitlines()[2].split(",")
    mean_per_site = float(est_row[4])
    annealed_per_site = float(ann_row[3])
    assert mean_per_site == pytest.approx(annealed_per_site, rel=1e-12)


def test_annealed_h_zero_equals_renewal_mass(tmp_path):
    out = tmp_path / "ann0.csv"
    run_cli(["annealed", "--h", "0", "--n", "500", "--out", str(out)])
    value = float(out.read_text().splitlines()[2].split(",")[2])
    kernel = build_kernel(SlowlyVaryingFamily(FamilyKind.LOGARITHMIC, 2.0, 1.0), 1000)
    assert value == pytest.approx(math.log(renewal_mass(kernel, 500)[500]), rel=1e-12)


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
    # one engine call over the grid: every sweep row is the estimate row at
    # its h, whatever the neighbours of its replicas in the batch
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
    run_cli(
        ["--config", str(cfg), "estimate", "--seed", "12", "--out", str(out_b)]
    )
    header_a = json.loads(out_a.read_text().splitlines()[0][2:])
    header_b = json.loads(out_b.read_text().splitlines()[0][2:])
    assert header_a["config"]["seed"] == 11
    assert header_b["config"]["seed"] == 12


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
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    oracle = payload["suites"]["oracle"]
    assert oracle["worst_relative_error"] <= 1e-10
    assert oracle["worst_block_edge_relative_error"] <= 1e-10
    assert {c["name"] for c in oracle["checks"]} == {
        "dp_matches_enumeration", "batched_dp_matches_row_loop", "trimmed_engine_matches_row_loop"
    }


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
    payload = json.loads(out.read_text())
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
    assert payload["suites"]["moments"]["plan"]["beta"] == 0.3
    assert payload["suites"]["moments"]["plan"]["h"] == 0.3


def test_verify_penalization_suite_passes(tmp_path):
    out = tmp_path / "pen.json"
    code = run_cli(["verify", "penalization", "--seed", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    checks = {c["name"]: c for c in payload["suites"]["penalization"]["checks"]}
    assert checks["closed_form_two_paths_identical"]["ok"]
    assert checks["defect_sign_where_sufficient_condition_holds"]["ok"]


def test_verify_coarse_suite_records_scans(tmp_path):
    out = tmp_path / "coarse.json"
    code = run_cli(
        ["verify", "coarse", "--seed", "2", "--replicas", "100", "--out", str(out)]
    )
    assert code == 0  # scan-type findings never fail the run
    payload = json.loads(out.read_text())
    kinds = {c["name"]: c["kind"] for c in payload["suites"]["coarse"]["checks"]}
    assert kinds["green_constant_stability"] == "scan"


def test_verify_coarse_records_supercritical_tilt_as_scan(tmp_path):
    # at eta = 0.1 the crossover tilt of the Gaussian law at h = 0.08 is
    # supercritical: its renewal mass leaves the float range
    out = tmp_path / "coarse.json"
    with np.errstate(over="ignore"):
        code = run_cli(["verify", "coarse", "--h", "0.08", "--seed", "2", "--out", str(out)])
    assert code == 0
    suite = json.loads(out.read_text())["suites"]["coarse"]
    assert suite["feasible"] is False
    assert "supercritical" in suite["note"]
    checks = {c["name"]: c for c in suite["checks"]}
    assert checks["window_feasible"] == {"name": "window_feasible", "kind": "scan", "ok": False}
    assert checks["report_values_finite"]["ok"] is True
