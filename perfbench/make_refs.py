"""Regenerate perfbench/refs.json from the program at the current commit.

    python3 perfbench/make_refs.py

Stores, for the default seed, the outputs of the first cycles of ops of
moments_check and coarse_spots (the warm-up op and the tiny self-test ops
included), and for moments_check the seed-independent values of every
(family, law, beta, c1, c2) plan in the mix.  The benchmark compares
against these values; it never recomputes them with the code under test.
"""

from __future__ import annotations

import itertools
import json
import os

import run
import workloads

CYCLES = 12


def _ops(workload):
    seed = workloads.DEFAULT_SEED
    ops = [workload.warmup_op(seed)]
    for tiny, count in ((False, CYCLES), (True, 4)):
        stream = workload.cycles(seed, tiny)
        for _ in range(count):
            ops.extend(next(stream))
    return ops


def _call(workload, state, op):
    try:
        return workload.run(workload.prepare(op, state), state), None
    except Exception as exc:  # noqa: BLE001 - the failure itself is the stored value
        return None, exc


def moments_refs(workload, state):
    plans = {}
    for family, law, beta, (c1, c2) in itertools.product(
        workloads.FAMILIES, workloads.LAWS, (0.3, 0.5, 0.8),
        sorted({t[0] for t in workload.templates}),
    ):
        op = {"family": family, "law": law, "beta": beta, "c1": c1, "c2": c2,
              "replicas": 100, "seed": 0}
        report, error = _call(workload, state, op)
        if error is not None:
            raise error
        plans[workload.plan_key(op)] = {
            "plan": {k: report["plan"][k] for k in ("k", "M", "N", "m")},
            **{f: report[f] for f in ("exact_log_mean_restricted", "product_lower_bound_log",
                                      "induction_bound_log")},
        }
    ops = {}
    for op in _ops(workload):
        report, error = _call(workload, state, op)
        if error is not None:
            raise error
        ops[workloads.op_key(op)] = {f: report[f] for f in ("identity_lhs_mean", "identity_lhs_sigma")}
    return {"plans": plans, "ops": ops}


def coarse_refs(workload, state):
    ops = {}
    for op in _ops(workload):
        report, error = _call(workload, state, op)
        if error is not None:
            ops[workloads.op_key(op)] = {"error": type(error).__name__}
            continue
        entry = {f: report[f] for f in workload.FIELDS}
        entry["spots"] = [
            {k: s[k] for k in ("j", "fractional_moment", "stderr", "benchmark")}
            for s in report["fractional_moment_spot"]
        ]
        ops[workloads.op_key(op)] = entry
    return {"ops": ops}


def main():
    run.import_copolab("copolab.estimators")
    lab = run.load_lab()
    out = {"default_seed": workloads.DEFAULT_SEED}
    for name, build in (("moments_check", moments_refs), ("coarse_spots", coarse_refs)):
        workload = workloads.WORKLOADS[name]
        out[name] = build(workload, workload.setup(lab, run.WORKDIR))
    path = os.path.join(run.HERE, "refs.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
