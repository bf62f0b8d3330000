"""The three closed-loop workloads: inputs from a seed, one op, its check.

Every workload is a fixed cycle of op templates.  A seed shuffles each
cycle and draws the continuous inputs (beta, h, charge law, family, disorder
seed) inside the ranges a template allows, so every run holds the same mix
of op sizes and only the values change.  A run is a fixed number of whole
cycles, so the ops it attempts, and the ones that fail, depend on the seed
only.  The template sizes are chosen so that the median and the 90th
percentile fall inside a group of similar ops, not between two groups, which
keeps both steady from seed to seed.

An op is one call into a user-facing entry point.  ``prepare`` builds its
arguments (untimed), ``run`` makes the call (timed), ``check`` compares the
output with the benchmark's own reference or the stored one (untimed).
"""

from __future__ import annotations

import json
import math
import os
import random
import traceback

import reference as ref

FAMILIES = ("sub-logarithmic", "logarithmic", "super-logarithmic")
LAWS = ("gaussian", "binary")
REL_TOL = 1e-10
DEFAULT_SEED = 0


def close(value, expected, scale=0.0) -> bool:
    """|value - expected| <= REL_TOL * max(|expected|, scale), both finite."""
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        return False
    return abs(value - expected) <= REL_TOL * max(abs(expected), scale)


def finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


class Verdict:
    """Outcome of one op's check."""

    def __init__(self, ok=True, reason="", known_defect=False, counts=None, source=""):
        self.ok = ok
        self.reason = reason
        self.known_defect = known_defect
        self.counts = counts or {}
        self.source = source

    @classmethod
    def fail(cls, reason, known_defect=False):
        return cls(ok=False, reason=reason, known_defect=known_defect)


def _draw_h(rng, count):
    values = [rng.choice((1.0, -1.0)) * rng.uniform(0.05, 0.5) for _ in range(count)]
    return sorted(values, reverse=True)


class Workload:
    name = ""
    op_name = ""
    templates = ()
    tiny_templates = ()
    cycle_s = 1.0  # nominal seconds per cycle: a run has round(seconds / cycle_s) cycles

    def cycle_count(self, seconds, paired=False):
        """Whole cycles in a run of about ``seconds``; a traced run runs every op twice."""
        count = max(1, round(seconds / self.cycle_s))
        return max(1, round(count / 2)) if paired else count

    def cycles(self, seed, tiny=False):
        """Endless stream of cycles of ops, deterministic in the seed."""
        rng = random.Random(f"{self.name}/{seed}")
        templates = self.tiny_templates if tiny else self.templates
        while True:
            cycle = [self.make_op(rng, t) for t in templates]
            rng.shuffle(cycle)
            yield cycle

    def warmup_op(self, seed):
        rng = random.Random(f"{self.name}/{seed}/warmup")
        return self.make_op(rng, self.tiny_templates[0])

    def make_op(self, rng, template) -> dict:
        raise NotImplementedError

    def template_of(self, op) -> tuple:
        """The op's size class: the template fields that set its cost."""
        raise NotImplementedError

    def setup(self, lab, workdir) -> dict:
        """Untimed one-off state, e.g. kernels built once."""
        return {}

    def prepare(self, op, state):
        raise NotImplementedError

    def run(self, prepared, state):
        raise NotImplementedError

    def check(self, op, prepared, result, error, state, refs) -> Verdict:
        raise NotImplementedError


def op_key(op) -> str:
    return json.dumps(op, sort_keys=True)


class EstimateSweep(Workload):
    """In-process CLI runs of estimate, sweep and annealed."""

    name = "estimate_sweep"
    op_name = "cli.main"
    cycle_s = 3.1
    # (command, N, replicas, number of h points); one op in five is annealed.
    # Sorted by cost: the median falls among the four ~0.1 s ops in the
    # middle, the p90 among the three N = 2000 estimates.
    templates = (
        ("annealed", 1000, 0, 1),
        ("estimate", 500, 8, 1),
        ("annealed", 4000, 0, 1),
        ("sweep", 500, 4, 2),
        ("estimate", 1000, 4, 1),
        ("sweep", 500, 4, 3),
        ("estimate", 1000, 4, 1),
        ("estimate", 2000, 4, 1),
        ("estimate", 2000, 4, 1),
        ("estimate", 2000, 4, 1),
    )
    tiny_templates = (
        ("estimate", 40, 3, 1),
        ("sweep", 30, 2, 2),
        ("annealed", 60, 0, 2),
    )

    def make_op(self, rng, template):
        command, n, replicas, n_h = template
        op = {
            "command": command,
            "n": n,
            "family": rng.choice(FAMILIES),
            "law": rng.choice(LAWS),
            "h": _draw_h(rng, n_h),
            "format": rng.choice(("csv", "json")),
        }
        if command != "annealed":
            op.update(beta=rng.uniform(0.5, 2.0), replicas=replicas, seed=rng.randrange(2**31))
        return op

    def template_of(self, op):
        return (op["command"], op["n"], op.get("replicas", 0), len(op["h"]))

    def setup(self, lab, workdir):
        return {"lab": lab, "out": os.path.join(workdir, "artifact"), "kernels": {}}

    def prepare(self, op, state):
        argv = [op["command"], "--family", op["family"], "--law", op["law"]]
        if op["command"] == "estimate":
            argv.append(f"--h={op['h'][0]!r}")
        else:
            argv.append("--h-grid=" + ",".join(repr(h) for h in op["h"]))
        if op["command"] != "annealed":
            argv += [f"--beta={op['beta']!r}", f"--replicas={op['replicas']}", f"--seed={op['seed']}"]
        argv += [f"--n={op['n']}", f"--format={op['format']}", f"--out={state['out']}"]
        if os.path.exists(state["out"]):
            os.remove(state["out"])
        return argv

    def run(self, argv, state):
        try:
            return state["lab"]["cli"].main(argv)
        except SystemExit as exc:  # argparse rejects bad input by exiting
            return exc.code

    def _log_k(self, family, n, state):
        support = max(n, 1000)
        key = (family, support)
        if key not in state["kernels"]:
            lab = state["lab"]
            fam = lab["kernel"].SlowlyVaryingFamily(
                kind=lab["kernel"].FamilyKind(family), upsilon=2.0, c_L=1.0
            )
            kernel = lab["kernel"].build_kernel(fam, support)
            masses = [float(x) for x in kernel.masses]
            normalized = abs(math.fsum(masses[1:]) + kernel.tail_mass - 1.0) <= 1e-12
            if not (normalized and min(masses[1:]) > 0.0):
                raise ValueError("kernel masses fail the normalization invariant")
            state["kernels"][key] = kernel.log_masses
        return state["kernels"][key]

    @staticmethod
    def _read(path, fmt):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if fmt == "json":
            payload = json.loads(text)
            return payload["config"], payload["rows"], len(text.encode())
        lines = text.splitlines()
        config = json.loads(lines[0][2:])["config"]
        columns = lines[1].split(",")
        rows = [dict(zip(columns, (float(v) for v in line.split(",")))) for line in lines[2:]]
        return config, rows, len(text.encode())

    def check(self, op, argv, result, error, state, refs):
        if error is not None:
            return Verdict.fail(f"raised {type(error).__name__}: {error}")
        if result != 0:
            return Verdict.fail(f"exit code {result}")
        try:
            config, rows, size = self._read(state["out"], op["format"])
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return Verdict.fail(f"unreadable artifact: {exc}")
        if config.get("command") != op["command"] or len(rows) != len(op["h"]):
            return Verdict.fail("artifact config or row count differs from the request")
        log_k = self._log_k(op["family"], op["n"], state)
        counts = {"cli.artifact_bytes": size}
        n = op["n"]
        if op["command"] == "annealed":
            for h, row in zip(op["h"], rows):
                expect = ref.annealed_log_z(log_k, n, h)
                if not (row["h"] == h and row["n"] == n and close(row["log_annealed_z"], expect)
                        and close(row["per_site"], expect / n)):
                    return Verdict.fail(f"annealed row at h={h} differs from the row-loop reference")
            return Verdict(counts=counts, source="row-loop reference")
        expected = ref.estimate_rows(
            log_k, op["law"], op["beta"], op["h"], n, op["replicas"], op["seed"]
        )
        for row, want in zip(rows, expected):
            if row["beta"] != op["beta"] or row["h"] != want["h"]:
                return Verdict.fail("row echoes the wrong beta or h")
            if row["n"] != n or row["replicas"] != op["replicas"]:
                return Verdict.fail("row echoes the wrong n or replica count")
            mean = want["mean_log_z_per_site"]
            ok = (
                close(row["mean_log_z_per_site"], mean)
                and close(row["stderr"], want["stderr"])
                and close(row["upper_bracket"], want["upper_bracket"], abs(mean))
                and close(row["lower_bracket"], want["lower_bracket"], abs(mean))
                and row["c4"] == want["c4"]
                and row["c5"] == want["c5"]
            )
            if not ok:
                return Verdict.fail(f"estimate row at h={want['h']} differs from the row-loop reference")
        return Verdict(counts=counts, source="row-loop reference")


def q1(law, beta):
    if law == "gaussian":
        return 0.5 * beta * beta
    return beta * math.tanh(beta) - ref.log_mgf(law, beta)


def q2(law, beta):
    return ref.log_mgf(law, 2.0 * beta) - 2.0 * ref.log_mgf(law, beta)


class _KernelsOnce(Workload):
    def setup(self, lab, workdir):
        return {"lab": lab, "kernels": build_kernels(lab)}


def build_kernels(lab, support=20_000):
    """The support-20000 kernels of the three families, built once."""
    kernel = lab["kernel"]
    return {
        name: kernel.build_kernel(
            kernel.SlowlyVaryingFamily(kind=kernel.FamilyKind(name), upsilon=2.0, c_L=1.0),
            support,
        )
        for name in FAMILIES
    }


def law_object(lab, law):
    return lab["disorder"].GAUSSIAN if law == "gaussian" else lab["disorder"].BINARY


class MomentsCheck(_KernelsOnce):
    """estimators.trimmed_moment_check over trimmed plans at h = 0.3."""

    name = "moments_check"
    op_name = "estimators.trimmed_moment_check"
    cycle_s = 3.2
    H = 0.3
    # ((c1, c2), replicas); plans give M = 7, 11, 16, 24 at c1 = 3.3 and M = 20
    # at c1 = 5.  Sorted by cost: the median falls among the ~0.11 s ops, the
    # p90 among the three M = 24 ops.
    templates = (
        ((3.3, 1.0), 100),
        ((3.3, 1.2), 100),
        ((3.3, 1.0), 400),
        ((3.3, 1.4), 100),
        ((3.3, 1.2), 250),
        ((3.3, 1.4), 120),
        ((5.0, 1.0), 100),
        ((3.3, 1.6), 100),
        ((3.3, 1.6), 100),
        ((3.3, 1.6), 100),
    )
    tiny_templates = (((3.3, 1.0), 100), ((3.3, 1.2), 100))

    def make_op(self, rng, template):
        (c1, c2), replicas = template
        return {
            "c1": c1,
            "c2": c2,
            "beta": rng.choice((0.3, 0.5, 0.8)),
            "law": rng.choice(LAWS),
            "family": rng.choice(FAMILIES),
            "replicas": replicas,
            "seed": rng.randrange(2**31),
        }

    def template_of(self, op):
        return (op["c1"], op["c2"], op["replicas"])

    def prepare(self, op, state):
        lab = state["lab"]
        law = law_object(lab, op["law"])
        plan = lab["estimators"].trimmed_plan(2.0, law, op["beta"], self.H, op["c1"], op["c2"])
        return (state["kernels"][op["family"]], law, op["beta"], self.H, plan, op["replicas"], op["seed"])

    def run(self, args, state):
        kernel, law, beta, h, plan, replicas, seed = args
        return state["lab"]["estimators"].trimmed_moment_check(
            kernel, law, beta, h, plan, replicas=replicas, seed=seed
        )

    @staticmethod
    def plan_key(op) -> str:
        return f"{op['family']}|{op['law']}|{op['beta']}|{op['c1']}|{op['c2']}"

    def check(self, op, args, report, error, state, refs):
        if error is not None:
            return Verdict.fail(f"raised {type(error).__name__}: {error}")
        fields = (
            "exact_log_mean_restricted", "product_lower_bound_log", "identity_lhs_mean",
            "identity_lhs_sigma", "identity_rhs_mean", "identity_rhs_sigma",
            "induction_bound_log", "q2",
        )
        try:
            values = {f: report[f] for f in fields}
            plan = report["plan"]
            replicas = report["replicas"]
            identity_ok = report["identity_ok"]
        except (KeyError, TypeError) as exc:
            return Verdict.fail(f"report lacks {exc}")
        if not finite(*values.values()):
            return Verdict.fail("non-finite value in the report")
        if replicas != op["replicas"]:
            return Verdict.fail("report echoes the wrong replica count")
        if not (values["identity_lhs_mean"] > 0.0 and values["identity_lhs_sigma"] >= 0.0
                and values["identity_rhs_mean"] >= 1.0 and values["identity_rhs_sigma"] >= 0.0):
            return Verdict.fail("identity means or sigmas out of range")
        if not close(values["q2"], q2(op["law"], op["beta"])):
            return Verdict.fail("q2 differs from its closed form")
        stored = refs.get("plans", {}).get(self.plan_key(op))
        if stored is None:
            return Verdict.fail("no stored plan reference for this op")
        if any(plan.get(k) != stored["plan"][k] for k in ("k", "M", "N", "m")):
            return Verdict.fail("trimmed plan differs from the stored one")
        for f in ("exact_log_mean_restricted", "product_lower_bound_log", "induction_bound_log"):
            if not close(values[f], stored[f]):
                return Verdict.fail(f"{f} differs from the stored reference")
        source = "stored plan values + invariants"
        per_op = refs.get("ops", {}).get(op_key(op))
        if per_op is not None:
            for f in ("identity_lhs_mean", "identity_lhs_sigma"):
                if not close(values[f], per_op[f]):
                    return Verdict.fail(f"{f} differs from the stored seed-{DEFAULT_SEED} reference")
            source = "stored plan values + stored op values"
        counts = {"estimators.identity_ok": int(bool(identity_ok)), "estimators.replicas": replicas}
        return Verdict(counts=counts, source=source)


class CoarseSpots(_KernelsOnce):
    """estimators.coarse_graining_check at h = c3 / log(n_win)."""

    name = "coarse_spots"
    op_name = "estimators.coarse_graining_check"
    cycle_s = 6.5
    REPLICAS = 100
    GREEN_N_MAX = 2000
    # (family, n_win).  The sub-logarithmic window count m_h falls below n_win
    # up to n_win ~ 220, where coarse_graining_check raises IndexError in
    # window_sum: a known defect, kept in the mix and counted as failed ops
    # (the first three templates).  Among the completed ops, sorted by cost,
    # the median falls among the n_win = 120 ops and the p90 among the three
    # sub-logarithmic n_win = 240 ops.
    templates = (
        ("sub-logarithmic", 100),
        ("sub-logarithmic", 150),
        ("sub-logarithmic", 200),
        ("logarithmic", 100),
        ("super-logarithmic", 100),
        ("logarithmic", 100),
        ("logarithmic", 120),
        ("super-logarithmic", 120),
        ("logarithmic", 120),
        ("super-logarithmic", 120),
        ("sub-logarithmic", 240),
        ("sub-logarithmic", 240),
        ("sub-logarithmic", 240),
    )
    tiny_templates = (("logarithmic", 100), ("sub-logarithmic", 100), ("super-logarithmic", 100))

    def make_op(self, rng, template):
        family, n_win = template
        law = rng.choice(LAWS)
        beta = rng.uniform(0.5, 1.5)
        c3 = 0.9 * q1(law, beta)
        return {
            "family": family,
            "law": law,
            "beta": beta,
            "c3": c3,
            "h": c3 / math.log(n_win),
            "n_win": n_win,
            "seed": rng.randrange(2**31),
        }

    def template_of(self, op):
        return (op["family"], op["n_win"])

    def prepare(self, op, state):
        law = law_object(state["lab"], op["law"])
        return (state["kernels"][op["family"]], law, op["beta"], op["h"], op["c3"], op["seed"])

    def run(self, args, state):
        kernel, law, beta, h, c3, seed = args
        return state["lab"]["estimators"].coarse_graining_check(
            kernel, law, beta, h, c3, replicas=self.REPLICAS, seed=seed,
            green_n_max=self.GREEN_N_MAX,
        )

    FIELDS = (
        "theta", "a_term", "b_term", "a_term_analytic_integral", "rho_proxy",
        "green_constant_half_range", "green_constant_full_range", "m_target_log",
    )

    def check(self, op, args, report, error, state, refs):
        stored = refs.get("ops", {}).get(op_key(op))
        if error is not None:
            frames = traceback.extract_tb(error.__traceback__)
            if isinstance(error, IndexError) and frames and frames[-1].name == "window_sum":
                return Verdict.fail("IndexError in window_sum (m_h.count < n_win)", known_defect=True)
            return Verdict.fail(f"raised {type(error).__name__}: {error}")
        try:
            values = {f: report[f] for f in self.FIELDS}
            spots = report["fractional_moment_spot"]
            n_window = report["n_window"]
            feasible = report["feasible"]
        except (KeyError, TypeError) as exc:
            return Verdict.fail(f"report lacks {exc}")
        if not (feasible and finite(*values.values())):
            return Verdict.fail("infeasible report or non-finite value")
        n_win = int(math.exp(op["c3"] / op["h"]))
        if n_window != n_win or not close(values["theta"], 1.0 - op["h"] / op["c3"]):
            return Verdict.fail("window size or theta differs from its definition")
        if min(values["a_term"], values["b_term"], values["green_constant_half_range"]) < 0.0:
            return Verdict.fail("negative window sum or Green constant")
        grid = sorted({max(n_win // 4, 2), max(n_win // 2, 2), max(3 * n_win // 4, 2), n_win})
        if [s.get("j") for s in spots] != grid:
            return Verdict.fail("fractional-moment spot grid differs from its definition")
        for s in spots:
            if not (finite(s["fractional_moment"], s["stderr"], s["benchmark"], s["ratio"])
                    and s["fractional_moment"] > 0.0 and s["stderr"] >= 0.0):
                return Verdict.fail(f"spot j={s['j']} out of range")
        counts = {"estimators.replicas": self.REPLICAS}
        if stored is None or "error" in stored:
            return Verdict(counts=counts, source="invariants only")
        for f in self.FIELDS:
            if not close(values[f], stored[f]):
                return Verdict.fail(f"{f} differs from the stored seed-{DEFAULT_SEED} reference")
        for s, want in zip(spots, stored["spots"]):
            if not all(close(s[k], want[k]) for k in ("fractional_moment", "stderr", "benchmark")):
                return Verdict.fail(f"spot j={s['j']} differs from the stored reference")
        return Verdict(counts=counts, source="stored op values + invariants")


WORKLOADS = {w.name: w for w in (EstimateSweep(), MomentsCheck(), CoarseSpots())}
