"""Exact partition functions by log-domain dynamic programming.

The quenched partition function sums, over renewal configurations ending at
N and over the two signs of every excursion, the weight K(gap) * 1/2 per
excursion times exp of the accumulated charge on excursions below the
interface.  ``log_Z`` evaluates the recursion over the last renewal point
before N row by row with a running-maximum log-sum-exp per target index, so
charges of order N*h never overflow; it is the reference oracle.  Replica
batches go through ``_log_z_replicas``, the same recursion for groups of
_GEMM_REPLICAS replicas in source blocks: inside a block a linear-domain
solve (nilpotent doubling on 16-row diagonal sub-blocks, Toeplitz GEMMs
for the earlier ones), or the row-by-row log-space fill for a replica
whose charges vary too much there, and one Toeplitz(K) GEMM on block
values scaled by their own maximum to push a finished block to every
later target.  It agrees with the row loop to rounding (1e-10 relative is
the tested gate).  A brute-force enumeration oracle over all renewal
subsets backs both for small N.  The annealed value ``log_annealed_Z`` is
the same engine on the zero-disorder charges, h per site.

The trimmed (alternating long/short) ensemble follows the same pattern:
``_trimmed_core`` is the one-instance stage loop behind
``log_Z_restricted`` and the oracle, and ``_trimmed_log_z_replicas`` runs
the stages for groups of _GEMM_REPLICAS replicas, each long stage a banded
Toeplitz GEMM.  Both engines build their push matrices from
``_toeplitz_view``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderLaw, log_mgf, sample
from .kernel import RenewalKernel

__all__ = [
    "QuenchedInstance",
    "Trimmed",
    "make_instance",
    "log_Z",
    "brute_force_log_Z",
    "log_Z_restricted",
    "log_annealed_Z",
]

_LOG2 = math.log(2.0)
_BLOCK = 64  # source block width of the replica-batched quenched DP
_CHUNK = 256  # targets per push of one block; bounds the Toeplitz copy
_GEMM_REPLICAS = 8  # replicas per GEMM in the push
_FILL_ROWS = 16  # rows per diagonal sub-block of the linear-domain block fill
_FILL_VARIATION = 256.0  # largest in-block charge variation filled in the linear domain
_TRIMMED_CHUNK = 64  # targets per long-stage GEMM of the trimmed engine


@dataclass(frozen=True)
class QuenchedInstance:
    """One disorder realization with its per-site charge prefix sums.

    charge_prefix[n] = sum_{i<=n} (beta*omega_i - lambda(beta) + h), with
    charge_prefix[0] = 0.  The difference of two prefix values is the charge
    collected by an excursion below the interface.
    """

    omega: np.ndarray
    beta: float
    h: float
    lambda_beta: float
    charge_prefix: np.ndarray

    @property
    def n(self) -> int:
        return len(self.omega)


def make_instance(
    law: DisorderLaw, beta: float, h: float, n: int = None, seed: int = None, omega=None
) -> QuenchedInstance:
    """Build an instance from a fresh sample (law, n, seed) or a given omega."""
    if omega is None:
        omega = sample(law, n, seed)
    omega = np.asarray(omega, dtype=float)
    lam = log_mgf(law, beta)
    prefix = np.zeros(len(omega) + 1)
    prefix[1:] = np.cumsum(beta * omega - lam + h)
    return QuenchedInstance(
        omega=omega, beta=beta, h=h, lambda_beta=lam, charge_prefix=prefix
    )


@dataclass(frozen=True)
class Trimmed:
    """Alternating long/short excursion ensemble.

    m repetitions of a long above-interface excursion with length in
    [M, M^2] followed by a short below-interface excursion with length in
    [1, k], then one final above excursion to N.
    """

    M: int
    k: int
    m: int


def _logsumexp(values: np.ndarray) -> float:
    m = values.max()
    if not math.isfinite(m):
        return float(m)
    return float(m + math.log(np.exp(values - m).sum()))


def log_Z(instance: QuenchedInstance, kernel: RenewalKernel) -> float:
    """Quenched log partition function, exact O(N^2) renewal decomposition."""
    n = instance.n
    if n < 1:
        raise ValueError("need at least one site")
    if n > kernel.support_cap:
        raise ValueError(f"kernel support {kernel.support_cap} < N = {n}")
    s = instance.charge_prefix
    log_k = kernel.log_masses
    lz = np.empty(n + 1)
    lz[0] = 0.0
    for m in range(1, n + 1):
        # gap lengths m-j for j = 0..m-1, i.e. log K(m), ..., log K(1)
        terms = (
            lz[:m]
            + log_k[1 : m + 1][::-1]
            + np.logaddexp(0.0, s[m] - s[:m])
            - _LOG2
        )
        lz[m] = _logsumexp(terms)
    return float(lz[n])


def _toeplitz_view(taps: np.ndarray, width: int) -> np.ndarray:
    """Strided Toeplitz view V[r, c] = taps[r - c + width - 1], no copy.

    Row r is a target and column c a source at lag r - c; V has
    len(taps) - width + 1 rows and width columns.  Both replica engines
    build their push matrices from it.
    """
    return np.lib.stride_tricks.sliding_window_view(taps, width)[:, ::-1]


def _log_z_replicas(prefix: np.ndarray, kernel: RenewalKernel) -> np.ndarray:
    """Quenched log Z_N of every row of an (R, N+1) charge-prefix array.

    Same recursion as ``log_Z``, split into two causal convolutions of
    a(j) = Z(j) and b(j) = Z(j) e^{-S_j}:
    Z(m) = 1/2 [(K*a)(m) + e^{S_m} (K*b)(m)].  Rows go through in groups of
    _GEMM_REPLICAS, zero-padded, in buffers allocated once per call.  Sources
    are cut into blocks of _BLOCK sites.  Inside a block Z solves
    (I - L) z = p, with p the part pushed from earlier blocks and
    L[u, v] = K(u - v)/2 (1 + e^{S_u - S_v}) >= 0 for v < u; ``_fill_linear``
    solves it in the linear domain and ``_fill_log``, row by row in log
    space, takes the replicas whose charges vary too much inside the block.
    A finished block, scaled per replica, is pushed to all later targets
    with Toeplitz(K) GEMMs of _CHUNK targets each and added to per-target
    linear accumulators that share one log scale per replica and channel.
    A row holding a non-finite charge gives NaN.  A replica's value depends
    neither on the other rows nor on R.
    """
    replicas, n = prefix.shape[0], prefix.shape[1] - 1
    if n < 1:
        raise ValueError("need at least one site")
    if n > kernel.support_cap:
        raise ValueError(f"kernel support {kernel.support_cap} < N = {n}")
    out = np.full(replicas, np.nan)
    rows = np.flatnonzero(np.isfinite(prefix).all(axis=1))
    # lower[u, v] = K(u - v)/2 for v < u inside a block, else 0
    taps = np.zeros(2 * _BLOCK - 1)
    taps[_BLOCK:] = 0.5 * kernel.masses[1:_BLOCK]
    lower = _toeplitz_view(taps, _BLOCK)
    diagonal = np.ascontiguousarray(lower[:_FILL_ROWS, :_FILL_ROWS])
    # earlier[q - 1][v, t] = K(r0 + t - v)/2, r0 = q _FILL_ROWS: from the block's
    # rows v < r0 to the rows r0 + t of sub-block q
    earlier = [
        np.ascontiguousarray(lower[r0 : r0 + _FILL_ROWS, :r0].T)
        for r0 in range(_FILL_ROWS, _BLOCK, _FILL_ROWS)
    ]
    # gaps[_BLOCK - u:] = log K(u)/2, ..., log K(1)/2, 0: the weights of row u
    # of a block over its sources 0..u-1 and over its own pushed part
    gaps = np.append(kernel.log_masses[_BLOCK:0:-1] - _LOG2, 0.0)
    # windows[t, u] = K(t + _BLOCK - u), from source j0 + u to target j0 + _BLOCK + t
    windows = _toeplitz_view(kernel.masses[1:], _BLOCK)
    s = np.empty((_GEMM_REPLICAS, n + 1))
    # acc[:, 0, m] e^{ref[:, 0]}, acc[:, 1, m] e^{ref[:, 1]}: sum_j K(m - j) a(j),
    # b(j) over pushed blocks.  ref is the largest block offset pushed so
    # far, so every target holds at least K(m - j0) times the value 1 of
    # that block's largest source: nothing in acc that carries weight
    # underflows, and what a rescale drops was negligible
    acc = np.empty((_GEMM_REPLICAS, 2, n + 1))
    ref = np.empty((_GEMM_REPLICAS, 2))
    # BLAS may sum in an order that follows the matrix shape, so every GEMM
    # takes one zero-padded group of _GEMM_REPLICAS replicas and never sees R
    for g0 in range(0, len(rows), _GEMM_REPLICAS):
        group = rows[g0 : g0 + _GEMM_REPLICAS]
        s[: len(group)] = prefix[group]
        s[len(group) :] = 0.0  # padding rows carry zero charges
        acc.fill(0.0)
        ref.fill(-np.inf)
        for j0 in range(0, n + 1, _BLOCK):
            j1 = min(j0 + _BLOCK, n + 1)
            charges = s[:, j0:j1]
            if j0 == 0:
                pushed = np.full((_GEMM_REPLICAS, j1), -np.inf)
                pushed[:, 0] = 0.0
            else:
                logs = np.log(acc[:, :, j0:j1]) + ref[:, :, None]
                pushed = np.logaddexp(logs[:, 0], charges + logs[:, 1]) - _LOG2
            steep = np.abs(np.diff(charges, axis=1)).sum(axis=1) > _FILL_VARIATION
            # a = scaled[:, 0] e^{offset[:, 0]}, b = scaled[:, 1] e^{offset[:, 1]}
            scaled, offset = _fill_linear(pushed, charges, steep, diagonal, earlier)
            if steep.any():
                block = _fill_log(pushed[steep], charges[steep] - charges[steep, :1], gaps)
                top = block.max(axis=2)
                scaled[steep, :, : j1 - j0] = np.exp(block - top[:, :, None])
                top[:, 1] -= charges[steep, 0]
                offset[steep] = top
            if j1 > n:
                values = np.log(scaled[:, 0, n - j0]) + offset[:, 0]
                if steep.any():
                    values[steep] = block[:, 0, n - j0]
                out[group] = values[: len(group)]
                break
            if (offset > ref).any():
                raised = np.maximum(ref, offset)
                acc[:, :, j1:] *= np.exp(ref - raised)[:, :, None]
                ref = raised
            scaled *= np.exp(offset - ref)[:, :, None]
            stacked = scaled.reshape(2 * _GEMM_REPLICAS, _BLOCK)
            for t0 in range(0, n + 1 - j1, _CHUNK):
                t1 = min(t0 + _CHUNK, n + 1 - j1)
                toeplitz = np.ascontiguousarray(windows[t0:t1])
                target = acc[:, :, j1 + t0 : j1 + t1]
                target += np.matmul(stacked, toeplitz.T).reshape(_GEMM_REPLICAS, 2, t1 - t0)
    return out


def _fill_linear(pushed, charges, steep, diagonal, earlier):
    """Solve one block's (I - L) z = p in the linear domain, all rows at once.

    ``pushed`` holds log p and ``charges`` the block's S, one row per
    replica.  Returns ``scaled`` (rows, 2, _BLOCK) and ``offset`` (rows, 2)
    with a = scaled[:, 0] e^{offset[:, 0]} and b = scaled[:, 1] e^{offset[:, 1]}.
    p is scaled by its row maximum and the charges are centred at the
    mid-range `mid` of the row, so that x = z e^{-max log p} and
    y = x e^{mid - S} are what the block holds.  Rows are solved in
    sub-blocks of _FILL_ROWS: the block's earlier rows enter through
    Toeplitz(K/2) GEMMs on the pair (x, y), as in the push,
    L[u, v] x_v = K(u-v)/2 x_v + e^{S_u - mid} K(u-v)/2 y_v, and the
    diagonal sub-block A of L, nilpotent, by
    (I - A)^{-1} = (I + A)(I + A^2)(I + A^4)(I + A^8).

    Why this is accurate to rounding: an entry (I - L)^{-1}[u, v] sums, over
    in-block renewal paths v = w_0 < ... < w_k = u, products of
    K(gap)/2 (1 + e^{dS}) <= K(gap) e^{max(dS, 0)}, so it is at most
    e^{TV} times the renewal mass u(u - v) <= 1, TV being the charge
    variation sum |S_{i+1} - S_i| over the block; the same factor bounds
    how far p, and so x, fall below their maximum.  With TV <=
    _FILL_VARIATION = 256, x and y stay within e^{+-(3 TV/2 + 30)} of 1,
    far inside the double range e^{+-708}: nothing overflows and no term
    that carries weight is subnormal.  Every term is nonnegative, so the
    error is componentwise relative (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 8).  Rows flagged ``steep`` are given flat
    charges here, which keeps them finite, and are refilled by the caller.
    """
    rows, width = pushed.shape
    top = pushed.max(axis=1)
    mid = 0.5 * (charges.max(axis=1) + charges.min(axis=1))
    # past the block's width (its last block only) p = 0 and flat charges
    # keep the padded rows finite; nothing reads them
    p = np.zeros((rows, _BLOCK))
    np.exp(pushed - top[:, None], out=p[:, :width])
    rel = np.zeros((rows, _BLOCK))
    rel[:, :width] = charges - mid[:, None]
    rel[steep] = 0.0
    up, down = np.exp(rel), np.exp(-rel)  # e^{S_u - mid}, e^{mid - S_v}
    # the diagonal sub-blocks A of every sub-block at once, and their
    # inverses sum_{k<16} A^k = (I + A^8)(I + A^4)(I + A^2)(I + A)
    subs = (rows, -(-width // _FILL_ROWS), _FILL_ROWS)
    span = subs[1] * _FILL_ROWS
    a = up[:, :span].reshape(subs)[..., :, None] * down[:, :span].reshape(subs)[..., None, :]
    a += 1.0
    a *= diagonal
    inverse = a + np.eye(_FILL_ROWS)
    for _ in range(3):
        a = np.matmul(a, a)
        inverse += np.matmul(a, inverse)
    scaled = np.zeros((rows, 2, _BLOCK))
    flat = scaled.reshape(2 * rows, _BLOCK)
    for q, r0 in enumerate(range(0, width, _FILL_ROWS)):
        r1 = r0 + _FILL_ROWS
        c = p[:, r0:r1]
        if q:
            pair = np.matmul(flat[:, :r0], earlier[q - 1]).reshape(rows, 2, _FILL_ROWS)
            c += pair[:, 0]
            c += up[:, r0:r1] * pair[:, 1]
        z = np.matmul(inverse[:, q], c[:, :, None])[:, :, 0]
        scaled[:, 0, r0:r1] = z
        np.multiply(z, down[:, r0:r1], out=scaled[:, 1, r0:r1])
    # a unit maximum per row and channel, as the caller's push assumes
    peak = scaled[:, :, :width].max(axis=2)
    scaled /= peak[:, :, None]
    offset = np.log(peak)
    offset[:, 0] += top
    offset[:, 1] += top - mid
    return scaled, offset


def _fill_log(pushed, rel, gaps) -> np.ndarray:
    """One block filled row by row in log space: the fallback of steep rows.

    ``pushed`` holds log p and ``rel`` the charges relative to the block
    start.  Returns block[:, 0, u] = log a(j0 + u) and
    block[:, 1, u] = log b(j0 + u) + S_j0; charges relative to the block
    start keep the rounding of log b small.
    """
    rows, width = pushed.shape
    block = np.empty((rows, 2, width))
    # row u holds the pushed part of Z(j0 + u) until it is filled
    block[:, 0] = pushed
    block[:, 1] = -np.inf
    block[:, 1, 0] = block[:, 0, 0]
    for u in range(1, width):
        terms = block[:, :, : u + 1] + gaps[_BLOCK - u :]
        terms[:, 1] += rel[:, u : u + 1]
        top = np.maximum.reduce(terms, axis=(1, 2))
        terms -= top[:, None, None]
        total = np.add.reduce(np.exp(terms, out=terms).reshape(rows, 2 * u + 2), axis=1)
        np.add(np.log(total, out=total), top, out=block[:, 0, u])
        np.subtract(block[:, 0, u], rel[:, u], out=block[:, 1, u])
    return block


def brute_force_log_Z(instance: QuenchedInstance, kernel: RenewalKernel) -> float:
    """Exhaustive oracle: every renewal subset containing N, both excursion signs.

    Enumerates all 2^(N-1) subsets of interior renewal points; the two signs
    of each excursion contribute the exact factor (1 + e^charge)/2.  Weights
    are accumulated with exact float summation.  Refuses N > 20.
    """
    n = instance.n
    if n > 20:
        raise ValueError(f"brute force limited to N <= 20, got {n}")
    if n > kernel.support_cap:
        raise ValueError(f"kernel support {kernel.support_cap} < N = {n}")
    s = instance.charge_prefix
    k_mass = kernel.masses
    weights = []
    for mask in range(1 << (n - 1)):
        w = 1.0
        prev = 0
        bits = mask
        pos = 1
        while bits:
            if bits & 1:
                w *= k_mass[pos - prev] * 0.5 * (1.0 + math.exp(s[pos] - s[prev]))
                prev = pos
            bits >>= 1
            pos += 1
        w *= k_mass[n - prev] * 0.5 * (1.0 + math.exp(s[n] - s[prev]))
        weights.append(w)
    return math.log(math.fsum(weights))


def log_Z_restricted(instance: QuenchedInstance, kernel: RenewalKernel, plan: Trimmed) -> float:
    """Log partition restricted to the trimmed family; -inf if it is empty.

    A forward DP over the alternating long/short structure in the linear
    domain with per-stage rescaling; only short excursions collect charges,
    so each stage's dynamic range stays small.  It runs the row loop
    ``_trimmed_core``, the oracle of the batched ``_trimmed_log_z_replicas``.
    """
    return _trimmed_core(kernel, plan, instance.n, instance.charge_prefix)


def _trimmed_size(kernel, plan, n_sites) -> int:
    """Positions 0..size-1 reachable before the closing excursion to N.

    size - 1 is the farthest end of the 2m excursions, m(M^2 + k), clipped
    to N - 1; size is 0 when even the shortest path overshoots N.
    """
    big_m, k, m = plan.M, plan.k, plan.m
    if big_m < 2 or k < 1 or m < 1:
        raise ValueError("need M >= 2, k >= 1, m >= 1")
    if big_m * big_m > kernel.support_cap or n_sites > kernel.support_cap:
        raise ValueError("plan exceeds the kernel support")
    if m * (big_m + 1) + 1 > n_sites:
        return 0
    return min(m * (big_m * big_m + k), n_sites - 1) + 1


def _closing_weights(kernel, n_sites, size) -> np.ndarray:
    """K(N - x)/2 of the final above excursion from x to N, 0 where out of range."""
    gaps = n_sites - np.arange(size)
    valid = (gaps >= 1) & (gaps <= kernel.support_cap)
    closing = np.zeros(size)
    closing[valid] = 0.5 * kernel.masses[gaps[valid]]
    return closing


def _trimmed_core(kernel, plan, n_sites, prefix) -> float:
    """Trimmed log Z of one charge prefix, one stage at a time (the oracle)."""
    size = _trimmed_size(kernel, plan, n_sites)
    if size == 0:
        return -math.inf
    if len(prefix) < size:
        raise ValueError("charge prefix too short for the plan")
    big_m, k, m = plan.M, plan.k, plan.m
    long_w = kernel.masses[big_m : big_m * big_m + 1]
    short_w = kernel.masses[1 : k + 1]
    s = prefix[:size]
    f = np.zeros(size)
    f[0] = 1.0
    offset = 0.0

    for _ in range(m):
        conv = np.convolve(f, long_w)  # conv[i] sits at position i + M
        shifted = np.zeros(size)
        upper = min(size, len(conv) + big_m)
        if upper > big_m:
            shifted[big_m:upper] = conv[: upper - big_m]
        f = shifted * 0.5
        top = f.max()
        if top <= 0.0:
            return -math.inf
        f /= top
        offset += math.log(top)

        nxt = np.zeros(size)
        for ell in range(1, k + 1):
            charge = np.exp(s[ell:] - s[: size - ell])
            nxt[ell:] += f[: size - ell] * short_w[ell - 1] * charge
        f = nxt * 0.5
        top = f.max()
        if top <= 0.0:
            return -math.inf
        f /= top
        offset += math.log(top)

    # final above excursion to N over reachable x >= 1
    total = float(np.dot(f, _closing_weights(kernel, n_sites, size)))
    if total <= 0.0:
        return -math.inf
    return math.log(total) + offset


def _trimmed_log_z_replicas(prefix, kernel, plan, n_sites) -> np.ndarray:
    """Trimmed log Z_N of every charge-prefix row of ``prefix``.

    ``prefix`` is an (R, n+1) array or any iterable of rows (a generator
    drawing them on demand keeps the working set independent of R).  Same
    stages as ``_trimmed_core``, for _GEMM_REPLICAS rows at a time, zero-
    padded, in buffers allocated once per call.  The long stage is one
    banded Toeplitz matrix T[c, r] = K(r + M^2 - c)/2 over gaps in [M, M^2],
    applied as an (8, W) @ (W, _TRIMMED_CHUNK) GEMM per chunk of targets;
    only chunks inside the support the plan gives are visited.  The short
    stage uses the k charge rows e^{S[x] - S[x-l]} K(l)/2, computed once per
    group.  Every stage is rescaled to a unit maximum per row with per-row
    log offsets; a row whose maximum is 0, or whose closing sum is 0, gives
    -inf.  A row's value depends neither on R nor on the other rows.
    """
    rows = iter(prefix)
    size = _trimmed_size(kernel, plan, n_sites)
    if size == 0:
        return np.full(sum(1 for _ in rows), -math.inf)
    big_m, k, m = plan.M, plan.k, plan.m
    lead = big_m * big_m  # zero sites left of position 0, read by the long stage
    chunk = _TRIMMED_CHUNK
    width = chunk + lead - big_m  # sources that reach one chunk of targets
    taps = np.zeros(2 * chunk + lead - big_m - 1)
    taps[chunk - 1 : chunk + lead - big_m] = 0.5 * kernel.masses[big_m : lead + 1]
    # toeplitz[c, r] = K(r + M^2 - c)/2: from source t0 - M^2 + c to target t0 + r
    toeplitz = np.ascontiguousarray(_toeplitz_view(taps, width).T)
    closing = _closing_weights(kernel, n_sites, size)
    short_w = 0.5 * kernel.masses[1 : k + 1]

    # charge[l - 1, :, x] = e^{S[x] - S[x-l]} K(l)/2 for x >= l
    charge = np.zeros((k, _GEMM_REPLICAS, size))
    # position x sits at column lead + x; the last chunk of a stage may write
    # up to chunk - 1 columns past size, which nothing reads
    f = np.empty((_GEMM_REPLICAS, lead + size + chunk))
    g = np.empty_like(f)
    log_scale = np.empty(_GEMM_REPLICAS)
    dead = np.empty(_GEMM_REPLICAS, dtype=bool)

    def rescale(values):
        top = values.max(axis=1)
        empty = top <= 0.0
        dead[:] |= empty
        top[empty] = 1.0
        values /= top[:, None]
        log_scale[:] += np.log(top)

    out = [np.empty(0)]
    while True:
        # rows are taken one at a time, so a generator never holds a group
        count = 0
        for r, row in zip(range(_GEMM_REPLICAS), rows):
            if len(row) < size:
                raise ValueError("charge prefix too short for the plan")
            for ell in range(1, k + 1):
                np.subtract(row[ell:size], row[: size - ell], out=charge[ell - 1, r, ell:])
            count += 1
        if count == 0:
            return np.concatenate(out)
        charge[:, count:] = 0.0  # padding rows carry zero charges
        for ell in range(1, k + 1):
            rows_l = charge[ell - 1, :, ell:]
            np.exp(rows_l, out=rows_l)
            rows_l *= short_w[ell - 1]
        f.fill(0.0)
        f[:, lead] = 1.0
        log_scale.fill(0.0)
        dead.fill(False)
        for stage in range(m):
            # g holds the long stage on its support [lo, hi] and is read
            # nowhere else; f is zero outside the support it is given
            lo = stage * (big_m + 1) + big_m
            hi = min(stage * (lead + k) + lead, size - 1)
            for t0 in range(lo, hi + 1, chunk):
                np.matmul(f[:, t0 : t0 + width], toeplitz, out=g[:, lead + t0 : lead + t0 + chunk])
            rescale(g[:, lead + lo : lead + hi + 1])
            f.fill(0.0)
            for ell in range(1, k + 1):
                a, b = lead + lo + ell, lead + min(hi + ell, size - 1) + 1
                f[:, a:b] += g[:, a - ell : b - ell] * charge[ell - 1, :, a - lead : b - lead]
            rescale(f[:, lead + lo + 1 : lead + min(hi + k, size - 1) + 1])
        total = f[:, lead : lead + size] @ closing
        dead |= total <= 0.0
        total[dead] = 1.0
        values = np.log(total) + log_scale
        values[dead] = -math.inf
        out.append(values[:count])


def log_annealed_Z(kernel: RenewalKernel, n: int, h: float) -> float:
    """Exact log of the disorder-averaged partition function.

    Each excursion of length l carries (1 + e^{h l})/2, the quenched weight
    of the zero-disorder charges h per site; see ``_annealed_log_z``.
    """
    return float(_annealed_log_z(kernel, n, [h])[0])


def _annealed_log_z(kernel: RenewalKernel, n: int, h_values) -> np.ndarray:
    """Annealed log Z_n at every h of ``h_values``, one engine call.

    Row i is the zero-disorder charge prefix of h_values[i] (h cumulated
    site by site) through ``_log_z_replicas``; a row whose charges leave
    the float range gives NaN.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > kernel.support_cap:
        raise ValueError(f"kernel support {kernel.support_cap} < n = {n}")
    fields = np.asarray(h_values, dtype=float)
    prefix = np.zeros((len(fields), n + 1))
    with np.errstate(over="ignore"):
        np.cumsum(np.repeat(fields[:, None], n, axis=1), axis=1, out=prefix[:, 1:])
    return _log_z_replicas(prefix, kernel)
