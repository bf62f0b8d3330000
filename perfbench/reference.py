"""The benchmark's own copy of the quantities it checks the program against.

These are written from the model's definitions, not imported from copolab:
the counter-split replica seeding, the charge prefix sums, and the row-loop
renewal recurrences for the quenched and the annealed partition function.
The quenched recurrence is batched over rows of an (instances, sites)
array, one Python-level step per target site, with the same per-cell
arithmetic as the plain row loop.  Only the kernel masses are taken as
input; callers check them separately against the normalization invariant.
"""

from __future__ import annotations

import math

import numpy as np

LOG2 = math.log(2.0)

# documented sub-additive correction constants used for the brackets
C4 = 2.0
C5 = 4.0
Z_SCORE = 1.96


def log_mgf(law: str, beta: float) -> float:
    if law == "gaussian":
        return 0.5 * beta * beta
    a = abs(beta)
    return a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0)


def replica_omega(law: str, n: int, seed: int, index: int) -> np.ndarray:
    """Charges of replica ``index``: a counter-based split of the master seed."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    if law == "gaussian":
        return rng.standard_normal(n)
    return rng.integers(0, 2, size=n).astype(float) * 2.0 - 1.0


def charge_prefix(omega: np.ndarray, law: str, beta: float, h: float) -> np.ndarray:
    prefix = np.zeros(len(omega) + 1)
    prefix[1:] = np.cumsum(beta * omega - log_mgf(law, beta) + h)
    return prefix


def quenched_log_z(prefixes: np.ndarray, log_k: np.ndarray) -> np.ndarray:
    """log Z_N for each row of ``prefixes`` (shape (rows, N+1)).

    Z(m) = sum_{j<m} Z(j) K(m-j) (1 + exp(S_m - S_j)) / 2, evaluated in the
    log domain with a per-row running maximum.
    """
    rows, n1 = prefixes.shape
    n = n1 - 1
    lz = np.empty((rows, n + 1))
    lz[:, 0] = 0.0
    for m in range(1, n + 1):
        terms = (
            lz[:, :m]
            + log_k[m:0:-1]
            + np.logaddexp(0.0, prefixes[:, m : m + 1] - prefixes[:, :m])
            - LOG2
        )
        top = terms.max(axis=1)
        lz[:, m] = top + np.log(np.exp(terms - top[:, None]).sum(axis=1))
    return lz[:, n]


def annealed_log_z(log_k: np.ndarray, n: int, h: float) -> float:
    """log E Z_N: each excursion of length l carries (1 + e^{h l}) / 2."""
    lengths = np.arange(0, n + 1, dtype=float)
    log_factor = np.logaddexp(0.0, h * lengths) - LOG2
    la = np.empty(n + 1)
    la[0] = 0.0
    for m in range(1, n + 1):
        terms = la[:m] + log_k[m:0:-1] + log_factor[m:0:-1]
        top = terms.max()
        la[m] = top + math.log(np.exp(terms - top).sum())
    return float(la[n])


def estimate_rows(log_k, law, beta, h_values, n, replicas, seed) -> list[dict]:
    """Expected estimate/sweep rows: mean log Z / n, its standard error, brackets."""
    omegas = [replica_omega(law, n, seed, i) for i in range(replicas)]
    prefixes = np.array(
        [charge_prefix(omega, law, beta, h) for h in h_values for omega in omegas]
    )
    values = quenched_log_z(prefixes, log_k).reshape(len(h_values), replicas)
    rows = []
    for h, vals in zip(h_values, values):
        per_site = vals / n
        mean = float(per_site.mean())
        stderr = float(per_site.std(ddof=1) / math.sqrt(replicas))
        rows.append(
            {
                "h": h,
                "n": n,
                "replicas": replicas,
                "mean_log_z_per_site": mean,
                "stderr": stderr,
                "upper_bracket": (mean * n + C4 * math.log(n) + C5) / n,
                "lower_bracket": mean - Z_SCORE * stderr,
                "c4": C4,
                "c5": C5,
            }
        )
    return rows
