"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench/selftest.py -q

They show that each workload runs end to end (untraced and traced), that
the inputs are a deterministic function of the seed, that a perturbed
reference value makes an op count as failed, and that the benchmark refuses
to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys

import pytest

import reference
import run
import workloads

run.import_copolab("copolab.cli")
LAB = run.load_lab()


def _bench(*args, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )
    return proc


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_runs(name, trace):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    w = workloads.WORKLOADS[name]
    cycles = w.cycle_count(0.2, paired=trace == "1")
    assert result["attempted"] == cycles * len(w.tiny_templates)
    defects = sum(1 for t in w.tiny_templates if t == ("sub-logarithmic", 100))
    assert result["failed"] == cycles * defects
    run_e2e, run_layer = run.declared_metrics()
    declared = run_layer if trace == "1" else run_e2e
    assert [m["name"] for m in declared] == list(result["metrics"])
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_in_the_seed(name):
    w = workloads.WORKLOADS[name]

    def first_cycles(seed):
        stream = w.cycles(seed)
        return [next(stream) for _ in range(3)] + [w.warmup_op(seed)]

    assert first_cycles(7) == first_cycles(7)
    assert first_cycles(7) != first_cycles(8)
    assert sorted(map(workloads.op_key, first_cycles(7)[0])) != sorted(
        map(workloads.op_key, first_cycles(7)[1])
    )


def _one_op(name, seed=workloads.DEFAULT_SEED):
    w = workloads.WORKLOADS[name]
    state = w.setup(LAB, run.WORKDIR)
    os.makedirs(run.WORKDIR, exist_ok=True)
    op = next(w.cycles(seed, tiny=True))[0]
    prepared = w.prepare(op, state)
    return w, state, op, prepared, w.run(prepared, state)


def test_perturbed_row_loop_reference_fails_the_op(monkeypatch):
    w, state, op, argv, code = _one_op("estimate_sweep")
    assert w.check(op, argv, code, None, state, {}).ok
    exact = reference.quenched_log_z
    monkeypatch.setattr(reference, "quenched_log_z", lambda p, k: exact(p, k) * (1 + 1e-9))
    monkeypatch.setattr(reference, "annealed_log_z", lambda *a: 1.0)
    verdict = w.check(op, argv, code, None, state, {})
    assert not verdict.ok and not verdict.known_defect


@pytest.mark.parametrize("name, field", [
    ("moments_check", "exact_log_mean_restricted"),
    ("moments_check", "identity_lhs_mean"),
    ("coarse_spots", "a_term"),
])
def test_perturbed_stored_reference_fails_the_op(name, field):
    w, state, op, prepared, report = _one_op(name)
    refs = run.load_refs(name)
    assert w.check(op, prepared, report, None, state, refs).ok
    section = refs["ops"][workloads.op_key(op)]
    if field == "exact_log_mean_restricted":
        section = refs["plans"][w.plan_key(op)]
    section[field] *= 1 + 1e-9
    verdict = w.check(op, prepared, report, None, state, refs)
    assert not verdict.ok and not verdict.known_defect


def test_known_defect_is_counted_not_hidden():
    w = workloads.WORKLOADS["coarse_spots"]
    assert ("sub-logarithmic", 100) in w.templates
    state = w.setup(LAB, run.WORKDIR)
    op = w.make_op(random.Random(1), ("sub-logarithmic", 100))
    prepared = w.prepare(op, state)
    with pytest.raises(IndexError) as info:
        w.run(prepared, state)
    verdict = w.check(op, prepared, None, info.value, state, {})
    assert not verdict.ok and verdict.known_defect
    other = w.check(op, prepared, None, ValueError("x"), state, {})
    assert not other.ok and not other.known_defect


def test_host_probe_scaling():
    assert run.HostProbe.at_ref_speed(1.0, run.HOST_PROBE_REF_S, run.HOST_PROBE_REF_S) == 1.0
    assert run.HostProbe.at_ref_speed(1.0, 2 * run.HOST_PROBE_REF_S, 2 * run.HOST_PROBE_REF_S) == 0.5
    probe = run.HostProbe()
    assert 0.0 < probe() < 5.0


def test_refuses_to_run_without_sources():
    bare = os.path.join(run.WORKDIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = _bench("--workload", "moments_check", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
