"""copolab benchmark runner.

    python3 perfbench/run.py --workload estimate_sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  Each workload is a closed loop with one client in this
process: the next op starts when the previous one has returned.  With
``--trace 0`` the ops run untraced and the end-to-end metrics are reported;
with ``--trace 1`` every op runs once untraced and once with spans recorded
around the program's cross-module calls, and the per-layer metrics are
reported.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, ".work")
SETUP_PROBES = 3
BASELINE_IMPORTS = "import numpy, scipy.special"
BASELINE_REF_S = 0.35  # the baseline interpreter's time on a 2-core x86 host in its fast state
HOST_PROBE_REPEATS = 3
HOST_PROBE_REF_S = 0.0075  # the probe's time on a 2-core x86 host in its fast state
LOOP_WALL_CAP_S = 120.0  # a run on a stalled host still exits within 180 s
ENTRY_MODULES = {
    "estimate_sweep": "copolab.cli",
    "moments_check": "copolab.estimators",
    "coarse_spots": "copolab.estimators",
}


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def import_copolab(entry_module):
    """Import ``entry_module`` from this checkout's src/, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC, "copolab")):
        raise BenchError(f"no copolab sources under {SRC}")
    sys.path.insert(0, SRC)
    import importlib

    module = importlib.import_module(entry_module)
    origin = os.path.realpath(sys.modules["copolab"].__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"copolab was imported from {origin}, not from {SRC}")
    return module


def probe(workload):
    """Fresh-interpreter set-up: import the entry module, build the kernels."""
    t0 = time.monotonic()
    import_copolab(ENTRY_MODULES[workload])
    t1 = time.monotonic()
    if workload != "estimate_sweep":  # the CLI builds its kernel inside each op
        import workloads

        workloads.build_kernels(load_lab())
    t2 = time.monotonic()
    print(json.dumps({"ready": t2, "import_s": t1 - t0, "kernel_s": t2 - t1}))


def baseline_interpreter():
    """Wall time of a fresh interpreter that imports numpy and scipy.special only."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", BASELINE_IMPORTS], cwd=ROOT,
                          capture_output=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise BenchError("baseline interpreter failed")
    return time.monotonic() - start


def measure_setup(workload):
    """Median over SETUP_PROBES fresh interpreters, at the reference host speed.

    Set-up is imports, not numeric work, and the host probe of the op loop
    does not track it.  Each set-up is paired with a baseline interpreter
    that imports the same libraries the program builds on, but none of the
    program: set-up is reported as (set-up / baseline) x BASELINE_REF_S.
    The order within a pair alternates, so a trend in host speed cancels.
    """
    samples = []
    raw = []
    for i in range(SETUP_PROBES):
        if i % 2:
            base = baseline_interpreter()
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe", "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        if not i % 2:
            base = baseline_interpreter()
        ready = got["ready"] - start
        raw.append((ready, base))
        scale = BASELINE_REF_S / base
        samples.append((ready * scale, got["import_s"] * scale, got["kernel_s"] * scale))
    return {
        "setup_s": statistics.median(s[0] for s in samples),
        "setup.import_s": statistics.median(s[1] for s in samples),
        "setup.kernel_s": statistics.median(s[2] for s in samples),
        "raw_setup_s": statistics.median(r[0] for r in raw),
        "baseline_p50_s": statistics.median(r[1] for r in raw),
    }


def load_lab():
    import copolab.cli
    import copolab.disorder
    import copolab.estimators
    import copolab.kernel

    return {
        "cli": copolab.cli,
        "estimators": copolab.estimators,
        "kernel": copolab.kernel,
        "disorder": copolab.disorder,
    }


def run_facts(seed):
    import platform

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **blas_facts(numpy),
        "seed": seed,
    }


def blas_facts(numpy):
    """OpenBLAS version and thread count, read from numpy's bundled library."""
    import ctypes
    import glob

    facts = {"blas": "unknown", "blas_threads": None}
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                config = getattr(lib, f"{prefix}_get_config{suffix}")
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            config.argtypes = []
            threads.restype = ctypes.c_int
            threads.argtypes = []
            return {"blas": config().decode(), "blas_threads": threads()}
    return facts


class HostProbe:
    """Host speed, read from a fixed piece of work timed between ops.

    The shared host runs at two speeds that alternate every few seconds,
    ~1.7x apart.  The probe is the benchmark's own row-loop recurrence
    (reference.quenched_log_z, N = 200) on fixed inputs: the same kind of
    work as the program's hot path, but code that no change to the program
    can touch.  ``at_ref_speed`` turns a wall time measured between two
    probes into the time it would take where the probe takes
    HOST_PROBE_REF_S.
    """

    def __init__(self):
        import numpy as np

        import reference

        rng = np.random.default_rng(0)
        prefix = reference.charge_prefix(rng.standard_normal(200), "gaussian", 1.0, 0.1)
        log_k = -1.5 * np.log(np.arange(1, 202, dtype=float))
        self.work = lambda: reference.quenched_log_z(prefix[None, :], log_k)

    def __call__(self):
        t0 = time.perf_counter()
        for _ in range(HOST_PROBE_REPEATS):
            self.work()
        return time.perf_counter() - t0

    @staticmethod
    def at_ref_speed(seconds, probe_before, probe_after):
        return seconds * 2.0 * HOST_PROBE_REF_S / (probe_before + probe_after)


class Loop:
    """Closed loop over whole cycles of ops, with per-op timing and checks."""

    def __init__(self, workload, state, refs, tracer=None):
        self.workload = workload
        self.state = state
        self.refs = refs
        self.tracer = tracer
        self.records = []  # dicts: op, seconds, ok, known_defect, reason, source
        self.counts = {}
        self.probes = []  # untraced runs: host probe before each op, and one after the last

    def call(self, op, traced):
        w = self.workload
        prepare, run, check = w.prepare, w.run, w.check
        if traced:
            prepare = self.tracer.wrap(prepare, name="bench.prepare")
            run = self.tracer.wrap(run, name=w.op_name)
            check = self.tracer.wrap(check, name="bench.check")
        try:
            prepared = prepare(op, self.state)
        except Exception as exc:  # noqa: BLE001 - a failing op must not stop the loop
            return {"seconds": 0.0, "ok": False, "known_defect": False,
                    "reason": f"prepare raised {type(exc).__name__}: {exc}"}
        result = error = None
        if traced:
            self.tracer.install(self.state["modules"])
        t0 = time.perf_counter()
        try:
            result = run(prepared, self.state)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            error = exc
        seconds = time.perf_counter() - t0
        if traced:
            self.tracer.uninstall()
        try:
            verdict = check(op, prepared, result, error, self.state, self.refs)
        except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
            from workloads import Verdict

            verdict = Verdict.fail(f"output not in the expected form: {exc!r}")
        return {"seconds": seconds, "ok": verdict.ok, "known_defect": verdict.known_defect,
                "reason": verdict.reason, "source": verdict.source, "counts": verdict.counts}

    def run(self, seed, seconds, tiny=False, paired=False):
        """A fixed number of whole cycles, about ``seconds`` of loop wall time.

        The count depends on the workload and ``seconds`` only, so a seed
        always gives the same ops, and the same ops fail.  The loop stops
        mid-cycle only once it has run LOOP_WALL_CAP_S.

        With ``paired`` every op runs untraced and traced, in alternating
        order, and only the traced copy is recorded as the op.
        """
        stream = self.workload.cycles(seed, tiny)
        host_probe = None if paired else HostProbe()
        op_time = 0.0
        self.untraced_s = self.traced_s = self.traced_wall_s = 0.0
        started = time.perf_counter()
        capped = False
        for _ in range(self.workload.cycle_count(seconds, paired)):
            if capped:
                break
            for op in next(stream):
                if paired:
                    rec = self._paired(op)
                    op_time += rec["seconds"] + rec["untraced_s"]
                else:
                    self.probes.append(host_probe())
                    rec = self.call(op, traced=False)
                    op_time += rec["seconds"]
                rec["op"] = op
                self.records.append(rec)
                for key, value in rec.get("counts", {}).items():
                    self.counts[key] = self.counts.get(key, 0) + value
                capped = time.perf_counter() - started >= LOOP_WALL_CAP_S
                if capped:
                    break
        if host_probe is not None:
            self.probes.append(host_probe())
        self.op_time_s = op_time
        self.wall_s = time.perf_counter() - started

    def _paired(self, op):
        traced_first = len(self.records) % 2 == 1
        if not traced_first:
            plain = self.call(op, traced=False)
        t0 = time.perf_counter()
        rec = self.call(op, traced=True)
        self.traced_wall_s += time.perf_counter() - t0
        if traced_first:
            plain = self.call(op, traced=False)
        rec["untraced_s"] = plain["seconds"]
        if not plain["ok"] and rec["ok"]:
            rec.update(ok=False, reason="untraced copy: " + plain["reason"])
        self.untraced_s += plain["seconds"]
        self.traced_s += rec["seconds"]
        return rec


def host_scaled(loop):
    """Each op's wall time at the reference host speed."""
    probes = loop.probes
    return [HostProbe.at_ref_speed(r["seconds"], probes[i], probes[i + 1])
            for i, r in enumerate(loop.records)]


def template_medians(loop, scaled):
    """Each completed op's scaled time, replaced by the median over its template's ops."""
    groups = {}
    for t, r in zip(scaled, loop.records):
        if r["ok"]:
            groups.setdefault(loop.workload.template_of(r["op"]), []).append(t)
    return sorted(m for ts in groups.values() for m in [statistics.median(ts)] * len(ts))


def end_to_end(loop, setup):
    times = template_medians(loop, host_scaled(loop))
    if len(times) < 2:
        reasons = "; ".join(sorted({r["reason"] for r in loop.records}))
        raise BenchError(f"fewer than two completed ops: {reasons}")
    raw = [r["seconds"] for r in loop.records if r["ok"]]
    loop.raw_wall = {
        "op_p50_s": statistics.median(raw),
        "op_p90_s": statistics.quantiles(raw, n=10)[8],
        "ops_per_s": len(raw) / loop.op_time_s,
        "host_probe_min_s": min(loop.probes),
        "host_probe_p50_s": statistics.median(loop.probes),
        "setup_s": setup["raw_setup_s"],
        "setup_baseline_p50_s": setup["baseline_p50_s"],
    }
    return {
        "setup_s": setup["setup_s"],
        "op_p50_s": statistics.median(times),
        "op_p90_s": statistics.quantiles(times, n=10)[8],
        "ops_per_s": len(times) / math.fsum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(loop, tracer, setup):
    import tracing

    ops = max(len(loop.records), 1)
    table = tracing.aggregate(tracer.spans)
    out = {"setup.import_s": setup["setup.import_s"], "setup.kernel_s": setup["setup.kernel_s"]}
    modules = {}
    for name, (calls, self_s, _) in table.items():
        out[f"{name}.calls"] = calls / ops
        out[f"{name}.self_s"] = self_s / ops
        module = name.split(".", 1)[0]
        modules[module] = modules.get(module, 0.0) + self_s
    for module, self_s in modules.items():
        out[f"{module}.self_s"] = self_s / ops
    counts = dict(tracer.counts)
    counts.update(loop.counts)
    for key, value in counts.items():
        out[key] = value / ops
    for name, work in (("partition.log_Z", "cells"), ("partition.log_annealed_Z", "cells"),
                       ("partition._trimmed_core", "stage_cells")):
        self_s = table.get(name, (0, 0.0, 0.0))[1]
        out[f"{name}.{work}_per_s"] = counts.get(f"{name}.{work}", 0) / self_s if self_s > 0 else 0.0
    op_s = table.get(loop.workload.op_name, (0, 0.0, 0.0))[2]
    for name in ("partition.log_Z", "partition._trimmed_core"):
        out[f"{name}.share"] = table.get(name, (0, 0.0, 0.0))[1] / op_s if op_s > 0 else 0.0
    spans_self = sum(v[1] for v in table.values())
    out["trace.op_s"] = op_s / ops
    out["trace.overhead_frac"] = loop.traced_s / loop.untraced_s - 1.0
    out["trace.unaccounted_frac"] = 1.0 - spans_self / loop.traced_wall_s
    return out


def counters():
    """Work counters taken from the arguments of traced calls."""

    def arg(args, kwargs, index, name):
        return kwargs[name] if name in kwargs else args[index]

    def log_z(*args, **kwargs):
        n = arg(args, kwargs, 0, "instance").n
        return {"partition.log_Z.cells": n * (n + 1) // 2}

    def log_annealed_z(*args, **kwargs):
        n = int(arg(args, kwargs, 1, "n"))
        return {"partition.log_annealed_Z.cells": n * (n + 1) // 2}

    def trimmed_core(*args, **kwargs):
        plan = arg(args, kwargs, 1, "plan")
        n_sites = int(arg(args, kwargs, 2, "n_sites"))
        big_m, k, m = plan.M, plan.k, plan.m
        size = min(m * (big_m * big_m + k), n_sites - 1) + 1
        return {"partition._trimmed_core.stage_cells": m * size * (big_m * big_m - big_m + 1 + k)}

    def draw(*args, **kwargs):
        return {"disorder._draw.sites": int(arg(args, kwargs, 1, "n"))}

    def replicas(*args, **kwargs):
        return {"estimators.replicas": int(arg(args, kwargs, 5, "replicas"))}

    return {
        "partition.log_Z": log_z,
        "partition.log_annealed_Z": log_annealed_z,
        "partition._trimmed_core": trimmed_core,
        "disorder._draw": draw,
        "estimators.estimate_free_energy": replicas,
    }


def load_refs(name):
    path = os.path.join(HERE, "refs.json")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh).get(name, {})


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def bench(args):
    e2e_spec, layer_spec = declared_metrics()
    import_copolab(ENTRY_MODULES[args.workload])
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    lab = load_lab()
    facts = run_facts(args.seed)
    setup = measure_setup(args.workload)
    os.makedirs(WORKDIR, exist_ok=True)
    state = workload.setup(lab, WORKDIR)
    state["modules"] = {name: sys.modules[f"copolab.{name}"] for name in tracing.COPOLAB_MODULES}
    refs = load_refs(workload.name)
    if args.seed != workloads.DEFAULT_SEED:
        refs = {k: v for k, v in refs.items() if k != "ops"}  # stored op values are seed-0 only

    tracer = tracing.Tracer(counters()) if args.trace else None
    loop = Loop(workload, state, refs, tracer)
    warm = loop.call(workload.warmup_op(args.seed), traced=False)
    if tracer is not None:
        tracer.spans.clear()
        tracer.counts.clear()
    loop.run(args.seed, args.seconds, tiny=args.tiny, paired=bool(args.trace))
    records = loop.records
    if os.path.exists(state.get("out", "")):
        os.remove(state["out"])

    failed = [r for r in records if not r["ok"]]
    unexpected = [r for r in failed if not r["known_defect"]]
    if args.trace:
        values = per_layer(loop, tracer, setup)
        spec = layer_spec
    else:
        values = end_to_end(loop, setup)
        spec = e2e_spec
    missing = sorted({m["name"].rsplit(".", 1)[0] for m in spec if m["name"] not in values})
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in spec}

    report = {
        "workload": workload.name,
        "facts": facts,
        "ops": len(records),
        "loop_wall_s": loop.wall_s,
        "completed": len(records) - len(failed),
        "error_rate": len(failed) / len(records),
        "failures": sorted({r["reason"] for r in failed}),
        "unexpected": sorted({r["reason"] for r in unexpected}),
        "warmup_ok": warm["ok"],
        "warmup_reason": warm["reason"],
        "reference_sources": sorted({r.get("source", "") for r in records if r["ok"]}),
        "not_observed": missing,
        "unscaled": getattr(loop, "raw_wall", None),
        "trace": bool(args.trace),
        "metrics": metrics,
    }
    print_report(report)
    write_artifacts(args, report, loop, tracer)
    result = {
        "correct": not unexpected and warm["ok"],
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def print_report(report):
    print(f"# workload {report['workload']}  trace={int(report['trace'])}")
    print("# facts " + json.dumps(report["facts"], sort_keys=True))
    print(f"# ops {report['ops']}  completed {report['completed']}  "
          f"error_rate {report['error_rate']:.4f} fraction  loop wall {report['loop_wall_s']:.1f} s")
    for reason in report["failures"]:
        print(f"#   failed: {reason}")
    if not report["warmup_ok"]:
        print(f"#   warm-up op failed: {report['warmup_reason']}")
    for reason in report["unexpected"]:
        print(f"#   UNEXPECTED: {reason}")
    print("# references: " + "; ".join(report["reference_sources"]))
    if report["not_observed"]:
        print("# not observed in this run (reported as 0): " + ", ".join(report["not_observed"]))
    if report["unscaled"]:
        print("# unscaled wall times and host probe: "
              + "  ".join(f"{k} {v:.6g}" for k, v in report["unscaled"].items()))
    for name, m in report["metrics"].items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")


def write_artifacts(args, report, loop, tracer):
    stem = os.path.join(WORKDIR, f"{args.workload}_seed{args.seed}_trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"report": report, "records": loop.records, "host_probes": loop.probes}, fh)
    if tracer is not None:
        import gzip

        with gzip.open(stem + ".spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(ENTRY_MODULES), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest op sizes, for self-tests")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.probe:
            probe(args.workload)
            return 0
        return bench(args)
    except (BenchError, ImportError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
