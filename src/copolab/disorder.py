"""Charge distributions and their cumulant machinery.

Two built-in laws, both centered with unit variance: the standard Gaussian
and the symmetric +/-1 law.  Both have closed-form cumulant functions, which
makes every downstream quantity (tilted means, Legendre transforms, block
tail probabilities) exactly checkable.  The Legendre transform is still
solved numerically so that the solver itself can be validated against the
closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "LawKind",
    "DisorderLaw",
    "RateFunctionEval",
    "GAUSSIAN",
    "BINARY",
    "log_mgf",
    "log_mgf_prime",
    "q1",
    "q2",
    "rate_function",
    "spawn_rng",
]


class LawKind(str, Enum):
    STANDARD_GAUSSIAN = "gaussian"
    SYMMETRIC_BINARY = "binary"


@dataclass(frozen=True)
class DisorderLaw:
    """A centered, unit-variance charge distribution, named by its kind.

    Both built-in laws are entire: every cumulant lambda(beta) is finite.
    """

    kind: LawKind

    @property
    def mean_limit(self) -> float:
        """Supremum of attainable tilted means, lim of the cumulant slope."""
        if self.kind is LawKind.STANDARD_GAUSSIAN:
            return math.inf
        return 1.0


GAUSSIAN = DisorderLaw(LawKind.STANDARD_GAUSSIAN)
BINARY = DisorderLaw(LawKind.SYMMETRIC_BINARY)


@dataclass(frozen=True)
class RateFunctionEval:
    """Value of the convex rate function at x with its conjugate optimizer."""

    x: float
    sigma: float
    argmax_y: float


def _check_beta(beta: float) -> None:
    if beta < 0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")


def log_mgf(law: DisorderLaw, beta: float) -> float:
    """Cumulant generating function log E exp(beta * omega)."""
    _check_beta(beta)
    if law.kind is LawKind.STANDARD_GAUSSIAN:
        return 0.5 * beta * beta
    # log cosh, stable for large arguments
    a = abs(beta)
    return a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0)


def log_mgf_prime(law: DisorderLaw, beta: float) -> float:
    """Derivative of the cumulant function, i.e. the tilted mean."""
    _check_beta(beta)
    if law.kind is LawKind.STANDARD_GAUSSIAN:
        return beta
    return math.tanh(beta)


def _log_mgf_second(law: DisorderLaw, beta: float) -> float:
    if law.kind is LawKind.STANDARD_GAUSSIAN:
        return 1.0
    t = math.tanh(beta)
    return 1.0 - t * t


def q1(law: DisorderLaw, beta: float) -> float:
    """beta * lambda'(beta) - lambda(beta); positive for beta > 0."""
    if beta == 0.0:
        return 0.0
    return beta * log_mgf_prime(law, beta) - log_mgf(law, beta)


def q2(law: DisorderLaw, beta: float) -> float:
    """lambda(2 beta) - 2 lambda(beta)."""
    if beta == 0.0:
        return 0.0
    return log_mgf(law, 2.0 * beta) - 2.0 * log_mgf(law, beta)


def rate_function(law: DisorderLaw, x: float) -> RateFunctionEval:
    """Legendre transform sup_y [x*y - lambda(y)] of the cumulant function.

    The optimizer solves lambda'(y) = x, which has a unique root because
    lambda' is strictly increasing.  Solved by safeguarded Newton on the
    stationarity condition (tolerance 1e-12 on y): a step that would leave
    the current bracket bisects it instead, and a solve that has not
    converged after 200 steps raises RuntimeError.  The domain is [0, C)
    with C the supremum of tilted means.
    """
    if x < 0:
        raise ValueError(f"rate function evaluated on x >= 0 only, got {x}")
    c_sup = law.mean_limit
    if x >= c_sup:
        raise ValueError(f"x={x} is at or beyond the attainable mean range [0, {c_sup})")
    if x == 0.0:
        return RateFunctionEval(x=0.0, sigma=0.0, argmax_y=0.0)

    # bracket the root of lambda'(y) = x
    hi = 1.0
    while log_mgf_prime(law, hi) < x:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError(f"failed to bracket the conjugate optimizer for x={x}")
    lo = 0.0

    y = min(x, hi)  # exact for the Gaussian, a sane start otherwise
    converged = False
    for _ in range(200):
        g = log_mgf_prime(law, y) - x
        if g == 0.0:
            converged = True
            break
        if g > 0:
            hi = y
        else:
            lo = y
        gp = _log_mgf_second(law, y)
        step = g / gp if gp > 0 else math.inf
        y_new = y - step
        if not (lo < y_new < hi):
            y_new = 0.5 * (lo + hi)
        if abs(y_new - y) <= 1e-12 * max(1.0, abs(y_new)):
            y = y_new
            converged = True
            break
        y = y_new
    if not converged:
        raise RuntimeError(f"conjugate optimizer for x={x} did not converge in 200 steps")

    sigma = x * y - log_mgf(law, y)
    return RateFunctionEval(x=x, sigma=max(sigma, 0.0), argmax_y=y)


def spawn_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based split of a master seed; independent of draw order."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _draw(law: DisorderLaw, n: int, rng: np.random.Generator) -> np.ndarray:
    if law.kind is LawKind.STANDARD_GAUSSIAN:
        return rng.standard_normal(n)
    return rng.integers(0, 2, size=n).astype(float) * 2.0 - 1.0
