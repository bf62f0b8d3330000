"""Exact partition functions by log-domain dynamic programming.

A disorder realisation enters only through its charge-prefix row S, built
in place by ``_charge_rows`` for ``charge_prefix`` and for the replica
source of ``estimators``; every function here takes rows.  The quenched
partition function sums, over renewal configurations ending at N and over
the two signs of every excursion, the weight K(gap) * 1/2 per excursion
times exp of the accumulated charge on excursions below the interface.
``log_Z`` evaluates the recursion over the last renewal point before N row
by row with a running-maximum log-sum-exp per target index, so charges of
order N*h never overflow; it is the reference oracle.  Replica batches go
through ``_log_z_replicas``, the same recursion for groups of
_GEMM_REPLICAS rows, in passes and source blocks laid out in its
docstring, each block read from accumulators that hold the source Z(0) = 1
at site 0; it agrees with the row loop to rounding (1e-10 relative is the
tested gate).  A brute-force enumeration oracle over all renewal subsets
backs both for small N.  ``log_annealed_Z`` is the renewal mass of the
tilted law K(l)(1 + e^{hl})/2: an excursion's charge factor averages to
e^{hl}.

The trimmed (alternating long/short) ensemble has one row oracle,
``log_Z_restricted``, a backward stage loop (``_trimmed_stages``) whose stage
arrays on the zero-disorder row S_m = h m also give
``estimators.trimmed_moment_check`` its exact mean and its path sampler's
weights, and one batched engine, ``_trimmed_log_z_replicas``, which runs the
stages forward for groups of the same _GEMM_REPLICAS rows in passes; both
keep the float-range rule stated with the loop.  Both replica engines build
their push matrices from ``kernel._toeplitz_view`` and keep them, with their
buffers, in ``_workspace``.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderLaw, log_mgf
from .kernel import RenewalKernel, _toeplitz_view, renewal_mass

__all__ = [
    "Trimmed",
    "charge_prefix",
    "log_Z",
    "brute_force_log_Z",
    "log_Z_restricted",
    "log_annealed_Z",
]

_LOG2 = math.log(2.0)
_BLOCK = 64  # source block width of the replica-batched quenched DP
_CHUNK = 4096  # targets per push GEMM of one block; bounds its product
_GEMM_REPLICAS = 4  # replicas per GEMM group of both replica engines
_PASS_BYTES = 24 << 20  # working-set budget of one pass of the quenched engine
_FILL_ROWS = 8  # rows per diagonal sub-block of the linear-domain block fill; a power of two
# -log of the smallest normal double, 1022 log 2: the linear fill's budget for a
# block's charge variation plus the kernel's floor (``_fill_limit``)
_FILL_VARIATION = -math.log(sys.float_info.min)
_PLAN_BLOCKS = 8  # blocks whose charge steps a pass's plan measures at a time
_LINE_DOUBLES = 8  # doubles per 64-byte cache line; every workspace array of both engines starts on one
_TRIMMED_CHUNK = 32  # targets per long-stage GEMM of the trimmed engine
_TRIMMED_LOW = 2.0**-64  # the trimmed engine rescales a row whose maximum leaves [2^-64, 2^64]
_TRIMMED_PASS_BYTES = 2 << 20  # working-set budget of one trimmed pass and one sampler chunk
_EYE = np.eye(_FILL_ROWS)  # I, the first term of the fill's (I - A)^{-1}


def charge_prefix(law: DisorderLaw, beta: float, h, omega: np.ndarray) -> np.ndarray:
    """Charge prefix sums of every disorder row of ``omega`` (..., n).

    S[..., m] = sum_{i<=m} (beta*omega_i - lambda(beta) + h), S[..., 0] = 0;
    ``h`` is a field or an array of fields that broadcasts against
    ``omega``.  The difference of two prefix values is the charge collected
    by an excursion below the interface.  ``_charge_rows`` charges a copy of
    ``omega``, so a row of a batch equals the same row alone, bit for bit.
    """
    shape = np.broadcast_shapes(np.shape(h), np.shape(omega))
    prefix = np.empty(shape[:-1] + (shape[-1] + 1,))
    prefix[..., 1:] = omega
    return _charge_rows(law, beta, h, prefix)


def _charge_rows(law: DisorderLaw, beta: float, h, rows: np.ndarray) -> np.ndarray:
    """Turn rows holding omega in columns 1..n into charge prefixes S, in place.

    Each site becomes beta*omega - lambda(beta) + h, in that order, and one
    cumulative sum adds the sites of a row in order; column 0 becomes 0.
    ``h`` broadcasts against the columns 1..n.  Returns ``rows``.
    """
    rows[..., 0] = 0.0
    terms = rows[..., 1:]
    terms *= beta
    terms -= log_mgf(law, beta)
    terms += h
    np.cumsum(terms, axis=-1, out=terms)
    return rows


@dataclass(frozen=True)
class Trimmed:
    """Alternating long/short excursion ensemble.

    m repetitions of a long above-interface excursion with length in
    [M, M^2] followed by a short below-interface excursion with length in
    [1, k], then one final above excursion to the last site N.
    """

    M: int
    k: int
    m: int
    N: int


def _logsumexp(values: np.ndarray) -> float:
    m = values.max()
    if not math.isfinite(m):
        return float(m)
    return float(m + math.log(np.exp(values - m).sum()))


def log_Z(prefix: np.ndarray, kernel: RenewalKernel) -> float:
    """Quenched log Z_N of one (N+1,) charge-prefix row.

    The exact O(N^2) renewal decomposition, one target row at a time.
    """
    n = len(prefix) - 1
    if n < 1:
        raise ValueError("need at least one site")
    if n > kernel.support_cap:
        raise ValueError(f"kernel support {kernel.support_cap} < N = {n}")
    log_k = kernel.log_masses
    lz = np.empty(n + 1)
    lz[0] = 0.0
    for m in range(1, n + 1):
        # gap lengths m-j for j = 0..m-1, i.e. log K(m), ..., log K(1)
        terms = (
            lz[:m]
            + log_k[1 : m + 1][::-1]
            + np.logaddexp(0.0, prefix[m] - prefix[:m])
            - _LOG2
        )
        lz[m] = _logsumexp(terms)
    return float(lz[n])


def _quenched_pass(n: int):
    """The shape dicts a quenched pass over n sites hands ``_workspace``,
    and its rows per pass by ``_pass_rows``.

    Shared: the push operand, _BLOCK rows of N + 1 - _BLOCK doubles.  Per
    row: both accumulators, 2 (N + 1); the pass's plan, that is the
    maximum, the minimum and the variation of the row's charges in each
    block, 3 ceil((N + 1)/_BLOCK), and the charge steps of
    up to _PLAN_BLOCKS blocks at a time, _BLOCK - 1 each; in the fill of one
    block, p, the centred charges and their two exponentials, _BLOCK each,
    the diagonal sub-blocks A, the doubling powers and products of A and
    (I - A)^{-1}, _BLOCK _FILL_ROWS each, the filled block, 2 _BLOCK, and
    the earlier sub-blocks' push into one sub-block, 2 _FILL_ROWS; and its
    two rows of one push product, 2 min(_CHUNK, N + 1 - _BLOCK).  Per-row
    scalars (maxima, offsets, scales, the steep flags) and the log fill of
    steep rows are not in the workspace, nor are the charge rows, which
    the engine reads where ``_passes`` hands them over.
    """
    blocks = -(-(n + 1) // _BLOCK)
    subs = (_BLOCK // _FILL_ROWS, _FILL_ROWS, _FILL_ROWS)
    shared = {"push": (_BLOCK, max(0, n + 1 - _BLOCK))}
    row = {
        "acc": (2, n + 1),
        "mid": (blocks,), "low": (blocks,), "variation": (blocks,),
        "steps": (min(blocks, _PLAN_BLOCKS) * (_BLOCK - 1),),
        "p": (_BLOCK,), "rel": (_BLOCK,), "up": (_BLOCK,), "down": (_BLOCK,),
        "a": subs, "power": subs, "inverse": subs, "scaled": (2, _BLOCK), "pair": (2, _FILL_ROWS),
        "product": (2 * min(_CHUNK, max(0, n + 1 - _BLOCK)),),
    }
    return shared, row, _pass_rows(shared, row, _PASS_BYTES)


def _pass_rows(shared, row, budget: int) -> int:
    """Rows per pass: the one rule of both engines and the trimmed sampler.

    ``shared`` and ``row`` are the shape dicts a pass hands ``_workspace``:
    the shared arrays, counted once, and one row of each per-row array,
    counted once per row.  Returns the whole groups of _GEMM_REPLICAS rows
    whose arrays fit ``budget`` bytes beside the shared ones, at least one group;
    only the two dicts count: an engine's workspace, or the trimmed sampler's
    rows and, as ``shared``, its backward stage arrays, which no workspace
    holds.  The one-group floor can pass the budget: the quenched engine
    runs one group per pass from N = 38 130 on, from N = 43 044 that group
    and the push operand exceed _PASS_BYTES, and from N = 49 216 the
    operand alone does.
    """
    shared_bytes, row_bytes = (8 * sum(math.prod(shape) for shape in part.values()) for part in (shared, row))
    return _GEMM_REPLICAS * max(1, (budget - shared_bytes) // (_GEMM_REPLICAS * row_bytes))


def _passes(prefix, cut, evaluate) -> np.ndarray:
    """The one pass loop of both engines: the value of every charge-prefix row of ``prefix``.

    ``prefix`` is an (R, n+1) array or an iterable of 2-D blocks of such
    rows; a generator that draws each block when the engine asks for it,
    and may reuse its buffer for the next, keeps the working set independent
    of R.  ``cut(block)`` checks a block and returns the engine's (shared,
    row, rows per pass, columns read); no pass crosses a block.  Each pass
    goes to ``evaluate(rows, ws)`` as whole groups of _GEMM_REPLICAS rows,
    the columns read of each, with ``ws`` the pass's ``_workspace``: the
    block's own rows, read in place and never written, when the pass is
    whole groups of rows whose columns read are all finite; else a copy
    padded to whole groups, in which a row holding a non-finite charge and
    every padding row hold zero charges.  ``evaluate`` returns a value per
    row it was given; the values of the pass's own rows are kept, NaN for a
    row holding a non-finite charge, and the padding rows' dropped.  So an
    engine computes whole groups only, and keeps only its own arithmetic.
    """
    out = [np.empty(0)]
    for block in (prefix,) if isinstance(prefix, np.ndarray) else prefix:
        if np.ndim(block) != 2:
            raise ValueError("charge prefixes come as 2-D blocks of rows")
        shared, row, rows, columns = cut(block)
        for p0 in range(0, len(block), rows):
            part = block[p0 : p0 + rows, :columns]
            finite = np.isfinite(part).all(axis=1)
            if len(part) % _GEMM_REPLICAS or not finite.all():
                padded = np.zeros((_GEMM_REPLICAS * -(-len(part) // _GEMM_REPLICAS), columns))
                padded[: len(part)][finite] = part[finite]
                part = padded
            values = evaluate(part, _workspace(len(part), shared, row))[: len(finite)]
            values[~finite] = np.nan
            out.append(values)
    return np.concatenate(out)


# this thread's workspace of both replica engines and the trimmed sampler: see _workspace
_WORKSPACES = threading.local()


def _workspace(width: int, shared, row) -> dict[str, np.ndarray]:
    """This thread's workspace of one pass of ``width`` rows: an array per name.

    The shared arrays of ``shared`` come once, each per-row array of
    ``row`` with ``width`` rows: (width, *shape).  The arrays, float64, are
    carved in order from one buffer of their total size plus at most one
    64-byte cache line per array: each starts on a line, so where an
    operand lies never depends on where the allocator put it.  The buffer
    belongs to the calling thread and outlives the call, so an engine's
    arrays stay mapped from one call to the next instead of being mapped,
    trimmed and mapped again.  It only grows: a request for more than it
    holds replaces it, and it is freed with its thread.  Its size is that of
    the largest pass the thread has run, as ``_pass_rows`` bounds it.

    Module state is acceptable here because the workspace carries no value
    between passes: every element a pass reads, it has written earlier in
    the same pass.  A thread never runs two such calls at once, and no
    thread sees another's buffer; nothing a call returns is a view of it.
    """
    shapes = {**shared, **{name: (width, *shape) for name, shape in row.items()}}
    lines = {name: -(-math.prod(shape) // _LINE_DOUBLES) * _LINE_DOUBLES for name, shape in shapes.items()}
    total = sum(lines.values()) + _LINE_DOUBLES
    flat = getattr(_WORKSPACES, "flat", None)
    if flat is None or flat.size < total:
        _WORKSPACES.flat = flat = None  # unmap the old buffer before mapping a larger one
        flat = _WORKSPACES.flat = np.empty(total)
    arrays, used = {}, -flat.ctypes.data % 64 // 8
    for name, shape in shapes.items():
        arrays[name] = flat[used : used + math.prod(shape)].reshape(shape)
        used += lines[name]
    return arrays


def _shaped(array: np.ndarray, *shape: int) -> np.ndarray:
    """A C-contiguous array of ``shape`` at the start of a workspace array."""
    return array.reshape(-1)[: math.prod(shape)].reshape(shape)


def _log_z_replicas(prefix, kernel: RenewalKernel) -> np.ndarray:
    """Quenched log Z_N of every charge-prefix row of ``prefix``.

    ``prefix`` is an (R, N+1) array or an iterable of 2-D blocks of such
    rows, as ``_passes`` takes them.  Same recursion as ``log_Z``, split
    into two causal convolutions of a(j) = Z(j) and b(j) = Z(j) e^{-S_j}:
    Z(m) = 1/2 [(K*a)(m) + e^{S_m} (K*b)(m)].  Each block goes through
    ``_passes`` in passes of ``_quenched_pass(N)`` rows, whole groups of
    _GEMM_REPLICAS rows, every row of which is evaluated, read in place.
    Every GEMM is one group's own product, stacked over the pass's groups in
    one ``np.matmul`` call.  Sources are cut into blocks of _BLOCK sites.
    Inside a block Z solves (I - L) z = p, with p the part pushed from
    earlier blocks and L[u, v] = K(u - v)/2 (1 + e^{S_u - S_v}) >= 0 for
    v < u.  Site 0 holds the source in the accumulators, a(0) = 1 and b(0)
    = e^{-S_0} at log scales ref = (0, -S_0), so every block, the first
    included, reads p from them: ``_fill_linear`` in the linear domain and
    ``_fill_log``, in log space, the rows whose charges vary too much inside
    the block (steep rows).  Every row leaves one (filled, offset) state.
    Everything a block needs that does not depend on the pushed values is
    planned once per pass: each block's charge mid-range and steep flags
    (``_block_plan``), and the views the fill's sub-block loop takes
    (``_fill_views``).
    A finished block, scaled per replica, is pushed to all later targets
    with Toeplitz(K) GEMMs of _CHUNK targets each, column slices of one
    contiguous push operand written once per pass, and added to per-target
    linear accumulators that share one log scale per replica and channel.
    The push operand, the accumulators, the pass's plan and every per-block
    array, the fill's included, live in this thread's ``_workspace``,
    written with ``out=``: the block loop allocates only per-row scalars
    (and the log fill of steep rows).  A row holding a non-finite charge
    gives NaN (``_passes``).  A row's value depends neither on the other
    rows' values, nor on the blocks or the pass width, nor on its slot in
    its group.
    """
    def cut(block):
        n = block.shape[1] - 1
        if n < 1:
            raise ValueError("need at least one site")
        if n > kernel.support_cap:
            raise ValueError(f"kernel support {kernel.support_cap} < N = {n}")
        return (*_quenched_pass(n), n + 1)

    # lower[u, v] = K(u - v)/2 for v < u inside a block, else 0
    taps = np.zeros(2 * _BLOCK - 1)
    taps[_BLOCK:] = 0.5 * kernel.masses[1:_BLOCK]
    lower = _toeplitz_view(taps, _BLOCK)
    diagonal = np.ascontiguousarray(lower[:_FILL_ROWS, :_FILL_ROWS])
    # earlier[w, t] = K(_BLOCK - _FILL_ROWS + t - w)/2: its last r0 = q _FILL_ROWS rows,
    # K(r0 + t - v)/2, take the block's rows v < r0 to the rows r0 + t of sub-block q
    earlier = np.ascontiguousarray(lower[_BLOCK - _FILL_ROWS :, : _BLOCK - _FILL_ROWS].T)
    # gaps[_BLOCK - u:] = log K(u)/2, ..., log K(1)/2, 0: the weights of row u
    # of a block over its sources 0..u-1 and over its own pushed part
    gaps = np.append(kernel.log_masses[_BLOCK:0:-1] - _LOG2, 0.0)

    # acc[:, 0, m] e^{ref[:, 0]}, acc[:, 1, m] e^{ref[:, 1]}: sum_j K(m - j) a(j),
    # b(j) over pushed blocks, and at m = 0 the source, 1 in both at the
    # scales ref starts from, 0 and -S_0.  ref is the largest block offset
    # pushed so far, or that start, so every target holds at least K(m - j0)
    # times the value 1 of that block's largest source: nothing in acc that
    # carries weight underflows, what a rescale drops was negligible, and acc <= 1
    # BLAS may sum in an order that follows the matrix shape, so every GEMM
    # takes one group of _GEMM_REPLICAS replicas and never sees R
    def evaluate(charges, ws):
        width, size = charges.shape
        n = size - 1
        # push[u, t] = K(t + _BLOCK - u), from source j0 + u to target j0 + _BLOCK + t.
        # OpenBLAS rounds a row of a product with a transposed operand by the
        # row's slot in its group at some widths; on column slices of this
        # contiguous array it does not
        push = ws["push"]
        np.copyto(push, _toeplitz_view(kernel.masses[1:], _BLOCK)[: push.shape[1]].T)
        acc = ws["acc"]
        acc.fill(0.0)
        acc[:, :, 0] = 1.0
        ref = np.zeros((width, 2))
        ref[:, 1] -= charges[:, 0]
        mid, steep = _block_plan(charges, ws, _fill_limit(kernel, n))
        hot = steep.any(axis=0).tolist()  # the blocks that hold a steep row
        views = _fill_views(ws, earlier)
        filled = ws["scaled"]
        stacked = filled.reshape(-1, 2 * _GEMM_REPLICAS, _BLOCK)
        for b, j0 in enumerate(range(0, size, _BLOCK)):
            j1 = min(j0 + _BLOCK, size)
            sites, pushed = charges[:, j0:j1], acc[:, :, j0:j1]
            steep_rows = steep[:, b] if hot[b] else None
            # a = filled[:, 0] e^{offset[:, 0]}, b = filled[:, 1] e^{offset[:, 1]}
            offset = _fill_linear(pushed, ref, sites, mid[:, b], steep_rows, diagonal, views, ws)
            if hot[b]:
                _fill_log(pushed, ref, sites, steep_rows, offset, gaps, ws)
            if j1 > n:
                return np.log(filled[:, 0, n - j0]) + offset[:, 0]
            if (offset > ref).any():
                raised = np.maximum(ref, offset)
                acc[:, :, j1:] *= np.exp(ref - raised)[:, :, None]
                ref = raised
            filled *= np.exp(offset - ref)[:, :, None]
            for t0 in range(0, size - j1, _CHUNK):
                t1 = min(t0 + _CHUNK, size - j1)
                product = _shaped(ws["product"], len(stacked), 2 * _GEMM_REPLICAS, t1 - t0)
                np.matmul(stacked, push[:, t0:t1], out=product)
                acc[:, :, j1 + t0 : j1 + t1] += product.reshape(width, 2, t1 - t0)

    return _passes(prefix, cut, evaluate)


def _fill_limit(kernel: RenewalKernel, n: int) -> float:
    """The largest in-block charge variation the linear fill takes at N = n,
    _FILL_VARIATION less ``_fill_linear``'s kernel floor D + log(4/kappa).  L is frozen
    below x_min and non-increasing above it, so K(g) = c L(g)/g strictly decreases:
    D = max log K(g) - log K(g + min(_BLOCK, n) - 1) and kappa = K(_FILL_ROWS).
    """
    log_k, w = kernel.log_masses, min(_BLOCK, n)
    floor = float((log_k[1 : n + 2 - w] - log_k[w : n + 1]).max()) + math.log(4.0 / kernel.masses[_FILL_ROWS])
    return _FILL_VARIATION - floor


def _block_plan(charges, ws, limit):
    """The charge mid-range and the steep flag of every block of a pass.

    ``charges`` holds the pass's (rows, N + 1) charge rows, cut into blocks
    of _BLOCK sites, the last one possibly shorter.  Returns ``mid`` (rows,
    blocks), the mid-range of each block's charges, a view of ``ws``, and
    ``steep`` (rows, blocks), whether their variation sum |S_{i+1} - S_i|
    over the block exceeds ``limit``, the pass's ``_fill_limit``.  Whole
    blocks are measured _PLAN_BLOCKS at a time, as views of one reshape,
    their steps written into the workspace's ``steps``.
    """
    rows, size = charges.shape
    full = size // _BLOCK
    mid, low, variation = (ws[name] for name in ("mid", "low", "variation"))
    cuts = [(b0, min(b0 + _PLAN_BLOCKS, full), _BLOCK) for b0 in range(0, full, _PLAN_BLOCKS)]
    if size % _BLOCK:
        cuts.append((full, full + 1, size % _BLOCK))
    for b0, b1, span in cuts:
        sites = charges[:, b0 * _BLOCK : b0 * _BLOCK + (b1 - b0) * span].reshape(rows, b1 - b0, span)
        np.max(sites, axis=2, out=mid[:, b0:b1])
        np.min(sites, axis=2, out=low[:, b0:b1])
        steps = _shaped(ws["steps"], rows, b1 - b0, span - 1)
        np.subtract(sites[:, :, 1:], sites[:, :, :-1], out=steps)
        np.abs(steps, out=steps)
        np.sum(steps, axis=2, out=variation[:, b0:b1])
    mid += low
    mid *= 0.5
    return mid, variation > limit


def _fill_views(ws, earlier):
    """The workspace views that ``_fill_linear`` takes, built once per pass.

    For the pass whose workspace is ``ws``, whole groups: up and
    down cut into the diagonal sub-blocks as the outer product that builds
    A takes them, the earlier sub-blocks' push product and its two
    channels, and per sub-block q a tuple of the slices of p (also as a
    column), up, down, x (as a column and as rows) and y, the inverse of
    its diagonal sub-block, the filled block's rows before it, grouped as
    the GEMM takes them, and its Toeplitz(K/2) operand ``earlier[-r0:]``.
    """
    p, up, down, inverse, scaled, pair = (ws[name] for name in ("p", "up", "down", "inverse", "scaled", "pair"))
    flat = scaled.reshape(-1, _BLOCK)
    x, y = scaled[:, 0, :, None], scaled[:, 1]
    subs = (len(p), _BLOCK // _FILL_ROWS, _FILL_ROWS)
    views = {
        "up": up.reshape(subs)[..., :, None],
        "down": down.reshape(subs)[..., None, :],
        "products": pair.reshape(-1, 2 * _GEMM_REPLICAS, _FILL_ROWS),
        "direct": pair[:, 0],
        "coupled": pair[:, 1],
        "subs": [],
    }
    for q, r0 in enumerate(range(0, _BLOCK, _FILL_ROWS)):
        cols = slice(r0, r0 + _FILL_ROWS)
        grouped = flat[:, :r0].reshape(-1, 2 * _GEMM_REPLICAS, r0) if q else None
        views["subs"].append((
            p[:, cols], p[:, cols, None], up[:, cols], down[:, cols], x[:, cols], x[:, cols, 0],
            y[:, cols], inverse[:, q], grouped, earlier[-r0:] if q else None,
        ))
    return views


def _fill_linear(pushed, ref, charges, mid, steep, diagonal, views, ws):
    """Solve one block's (I - L) z = p in the linear domain, all rows of a pass at once.

    ``pushed`` holds the block's two accumulators (rows, 2, span) and
    ``ref`` their log scales (rows, 2), as the caller keeps them; in the
    first block they hold the source, 1 at site 0 in both channels at
    scales 0 and -S_0, and the read gives p = e_0 to rounding.
    ``charges`` holds the block's S and ``mid`` its mid-range, one row per
    replica, and ``steep`` flags the rows whose charges vary by more than
    the pass's ``_fill_limit``, or is None where no row does.
    ``diagonal`` is the diagonal sub-block of Toeplitz(K/2), ``views``
    the pass's ``_fill_views``, and ``ws`` the caller's ``_workspace``,
    which holds every array of the fill.  Writes the block into the workspace's
    ``scaled`` (rows, 2, _BLOCK) and returns ``offset`` (rows, 2), with
    a = scaled[:, 0] e^{offset[:, 0]} and b = scaled[:, 1] e^{offset[:, 1]};
    past the span of a short last block the filled rows are 0.
    The charges are centred at ``mid``, up = e^{S - mid}, and p is read
    from the accumulators in the linear domain: with bu = acc_1 up, the
    row's top = max(ref_0 + log max acc_0, ref_1 + mid + log max bu) and
    p = acc_0 e^{ref_0 - top}/2 + bu e^{ref_1 + mid - top}/2, so that the
    largest p lies in [1/2, 1], x = z e^{-top} and y = x e^{mid - S} are
    what the block holds.  Rows are solved in sub-blocks of _FILL_ROWS:
    the block's earlier rows enter through Toeplitz(K/2) GEMMs on the pair
    (x, y), as in the push, over whole groups,
    L[u, v] x_v = K(u-v)/2 x_v + e^{S_u - mid} K(u-v)/2 y_v, and the
    diagonal sub-block A of L, nilpotent, by
    (I - A)^{-1} = (I + A)(I + A^2)(I + A^4), one doubling step less than
    log2 _FILL_ROWS.

    Why this is accurate to rounding, and up to which charge variation.
    Every term of the read and of the solve is nonnegative, so the error is
    componentwise relative (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 8) while every quantity that carries weight is a normal
    double, in [2^{-1022}, 2^{1024}): a term that turns subnormal inside a
    normal sum is off by at most 2^{-1075}, within a unit of rounding of the
    sum.  Take the block's charge variation TV = sum |S_{i+1} - S_i|, its
    range R = max S - min S <= TV, so |S - mid| <= R/2, the kernel's drop
    D = max log K(g) - log K(g + min(_BLOCK, N) - 1), the most log K falls
    over gaps g, g' <= N less than _BLOCK apart (L is frozen below x_min and
    non-increasing above it, so K(g) = c L(g)/g strictly decreases), and
    kappa = K(_FILL_ROWS), the smallest K(g) with g <= _FILL_ROWS.  Ceiling: an
    entry (I - L)^{-1}[u, v] sums, over in-block renewal paths
    v = w_0 < ... < w_k = u, products of K(gap)/2 (1 + e^{dS}) <= K(gap)
    e^{max(dS, 0)}, so it is at most e^{TV} times the renewal mass u(u - v)
    <= 1, and so are the doubling powers of A and the partial sums of its
    inverse; with p <= 1, x <= _BLOCK e^{TV}.  Weighed by e^{S_v - S_u}, a
    path's factors become (e^{-dS} + 1)/2 <= e^{max(-dS, 0)}, so y_u = sum_v
    (I - L)^{-1}[u, v] e^{S_v - S_u} p_v e^{mid - S_v} is at most sum_v
    e^{fall over [v, u]} e^{max S - S_v - R/2}; max S - S_v and that fall
    are variations over disjoint steps or of opposite signs, so y <= _BLOCK
    e^{TV - R/2}.  The earlier-sub-block products are at most half the
    largest x or y, and coupled times up_q is a part of x.  Floor: p_u =
    (alpha_u + e^{S_u} beta_u)/2, alpha_u and beta_u the two channels'
    pushes to site u, whose terms, a source's value times K(gap)/2, are at
    least e^{-D} times the same source's terms at any other site w of the
    block; so x_u >= p_u >= e^{-(R + D)} p_w and y_u >= p_u e^{mid - S_u} >=
    e^{-(R/2 + D)} p_w, with the largest p_w at least 1/2.  In the first
    block p = e_0 and every later site has x_u >= K(u)/2 x_0 >=
    e^{-D} kappa/2 instead.  An earlier-sub-block product holds the term of
    the nearest earlier site, K(t + 1)/2 >= kappa/2 times its x or y (in the
    first block the term of site 0, K(u)/2 x_0, bounds it as it bounds x_u),
    and coupled times up_q that term times e^{S_u - mid} >= e^{-R/2}; so
    every quantity of the solve is at least (kappa/4) e^{-(TV + D)}.  A, its
    powers and the inverse's entries are at least the products of K(gap)/2
    alone, with no charge in them, and set no bound on TV.  So everything is
    normal while TV + D + log(4/kappa) <= 1022 log 2 = _FILL_VARIATION:
    D + log(4/kappa), the floor, is what ``_fill_limit`` takes off,
    10.3-10.7 for the three families at upsilon = 2 (limit 697.7-698.1) and
    244 for the logarithmic family at upsilon = 300.  The ceiling is then
    finite: kappa <= 1/_FILL_ROWS makes the floor at least log 32, and
    _BLOCK e^{TV} < 2^{1024} needs only TV + log 16 < 1022 log 2.
    The read keeps this.  acc <= 1 (see the caller) and up <= e^{R/2}, so
    neither term of p overflows, and a channel's factor e^{ref - top}/2 is
    at most 1/(2 max acc) or 1/(2 max bu), finite since both maxima are at
    least min K e^{-R/2}.  Where a channel's factor falls below 2^{-1022},
    its terms are off by at most 2^{-1075} times lead <= 1 or bu <= e^{R/2}:
    against p_u >= e^{-(R + D)}/2 in the first case, and in the second,
    where the b channel's share of the largest p is below 2^{-1022} e^{R/2},
    against the a channel's e^{-D}/4, below a unit of rounding.  As in a
    log-domain read, ref - top carries an absolute rounding of a few units
    of |ref|, the same for every site of the row.
    Rows flagged ``steep`` are given flat charges here, which keeps them
    finite, and are refilled by ``_fill_log``.
    """
    span = charges.shape[1]
    p, rel, up, down = (ws[name] for name in ("p", "rel", "up", "down"))
    np.subtract(charges, mid[:, None], out=rel[:, :span])
    if span < _BLOCK:
        # past the last block's span p = 0 and flat charges keep the
        # trailing rows finite; their values are zeroed below
        rel[:, span:] = 0.0
        p[:, span:] = 0.0
    if steep is not None:
        rel[steep] = 0.0
    np.exp(rel, out=up)  # e^{S_u - mid}
    np.negative(rel, out=down)
    np.exp(down, out=down)  # e^{mid - S_v}
    lead, lag = pushed[:, 0], pushed[:, 1]
    bu = np.multiply(lag, up[:, :span], out=p[:, :span])
    shift = ref[:, 1] + mid
    top = np.maximum(np.log(lead.max(axis=1)) + ref[:, 0], np.log(bu.max(axis=1)) + shift)
    bu *= (0.5 * np.exp(shift - top))[:, None]
    bu += np.multiply(lead, (0.5 * np.exp(ref[:, 0] - top))[:, None], out=rel[:, :span])
    # the diagonal sub-blocks A of every sub-block at once, and their
    # inverses sum_{k<_FILL_ROWS} A^k = (I + A)(I + A^2)...(I + A^{_FILL_ROWS/2})
    a, power, inverse = (ws[name] for name in ("a", "power", "inverse"))
    np.multiply(views["up"], views["down"], out=a)
    a += 1.0
    a *= diagonal
    np.add(a, _EYE, out=inverse)
    for _ in range(_FILL_ROWS.bit_length() - 2):
        # power = A^{2^k}; the old A's buffer takes the product with the inverse
        np.matmul(a, a, out=power)
        np.matmul(power, inverse, out=a)
        inverse += a
        a, power = power, a
    products, direct, coupled = views["products"], views["direct"], views["coupled"]
    for q, (c, column, up_q, down_q, x, x_rows, y, inverse_q, grouped, earlier) in enumerate(
        views["subs"][: -(-span // _FILL_ROWS)]
    ):
        if q:
            np.matmul(grouped, earlier, out=products)
            c += direct
            coupled *= up_q
            c += coupled
        # z goes straight into its rows of the x channel
        np.matmul(inverse_q, column, out=x)
        np.multiply(x_rows, down_q, out=y)
    # a unit maximum per row and channel, as the caller's push assumes
    filled = ws["scaled"]
    if span < _BLOCK:
        filled[:, :, span:] = 0.0
    peak = filled.max(axis=2)
    filled /= peak[:, :, None]
    offset = np.log(peak)
    offset[:, 0] += top
    offset[:, 1] += top - mid
    return offset


def _fill_log(pushed, ref, charges, steep, offset, gaps, ws) -> None:
    """Refill one block's ``steep`` rows row by row in log space: the linear fill's fallback.

    Takes ``_fill_linear``'s accumulators, log scales and charges and the
    (rows,) mask ``steep``, reads log p = log (acc_0 e^{ref_0} + acc_1
    e^{ref_1 + S})/2, -inf where no source reaches yet (in the first block
    all but the source, site 0, where it is 0), and writes the steep rows
    of the workspace's ``scaled`` and of ``offset`` as ``_fill_linear``
    writes every row.  block[:, 0, u] = log a(j0 + u) and block[:, 1, u] =
    log b(j0 + u) + S_j0: charges relative to the block start keep the
    rounding of log b small.
    """
    charges = charges[steep]
    start = charges[:, :1]
    rel = charges - start
    rows, width = rel.shape
    with np.errstate(divide="ignore"):
        block = np.log(pushed[steep])
    block += ref[steep][:, :, None]
    block[:, 1] += charges
    # row u holds log p, the pushed part of Z(j0 + u), until it is filled
    np.logaddexp(block[:, 0], block[:, 1], out=block[:, 0])
    block[:, 0] -= _LOG2
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
    top = block.max(axis=2)
    ws["scaled"][steep, :, :width] = np.exp(block - top[:, :, None])
    top[:, 1] -= start[:, 0]
    offset[steep] = top


def brute_force_log_Z(prefix: np.ndarray, kernel: RenewalKernel) -> float:
    """Exhaustive oracle: every renewal subset containing N, both excursion signs.

    Enumerates all 2^(N-1) subsets of interior renewal points; the two signs
    of each excursion contribute the exact factor (1 + e^charge)/2.  Weights
    are accumulated with exact float summation.  Refuses N > 20.
    """
    n = len(prefix) - 1
    if n > 20:
        raise ValueError(f"brute force limited to N <= 20, got {n}")
    if n > kernel.support_cap:
        raise ValueError(f"kernel support {kernel.support_cap} < N = {n}")
    k_mass = kernel.masses
    weights = []
    for mask in range(1 << (n - 1)):
        w = 1.0
        prev = 0
        bits = mask
        pos = 1
        while bits:
            if bits & 1:
                w *= k_mass[pos - prev] * 0.5 * (1.0 + math.exp(prefix[pos] - prefix[prev]))
                prev = pos
            bits >>= 1
            pos += 1
        w *= k_mass[n - prev] * 0.5 * (1.0 + math.exp(prefix[n] - prefix[prev]))
        weights.append(w)
    return math.log(math.fsum(weights))


def _trimmed_size(kernel, plan) -> int:
    """Positions 0..size-1 reachable before the closing excursion to N.

    size - 1 is the farthest end of the 2m excursions, m(M^2 + k), clipped
    to N - 1; size is 0 when even the shortest path overshoots N.
    """
    big_m, k, m, n = plan.M, plan.k, plan.m, plan.N
    if big_m < 2 or k < 1 or m < 1:
        raise ValueError("need M >= 2, k >= 1, m >= 1")
    if big_m * big_m > kernel.support_cap or n > kernel.support_cap:
        raise ValueError("plan exceeds the kernel support")
    if m * (big_m + 1) + 1 > n:
        return 0
    return min(m * (big_m * big_m + k), n - 1) + 1


def _closing_weights(kernel, plan, size) -> np.ndarray:
    """K(N - x)/2 of the final above excursion from x to N, 0 where out of range."""
    gaps = plan.N - np.arange(size)
    valid = (gaps >= 1) & (gaps <= kernel.support_cap)
    closing = np.zeros(size)
    closing[valid] = 0.5 * kernel.masses[gaps[valid]]
    return closing


def _trimmed_stages(prefix, kernel, plan):
    """Backward stages of the trimmed ensemble on one charge-prefix row, and its log Z_N.

    Stage g in 1..2m consumes gap g, long for odd g, short for even g, and
    B_g[x] weighs the completions of a path at x after g gaps, the closing
    excursion to N included: B_2m[x] = K(N - x)/2, and B_{g-1}[x] is
    sum_{d=M}^{M^2} K(d)/2 B_g[x + d] for a long gap g, or
    sum_{l<=k} K(l)/2 e^{S[x+l] - S[x]} B_g[x + l] for a short one.  B_{g-1}
    is kept on the positions a path reaches after g - 1 gaps only, so a
    short stage reads the charges the batched engine reads.  Each stage is
    divided by its maximum, and the logs of the maxima add up to log Z_N,
    B_0 holding position 0 alone.  Returns [B_0, ..., B_2m], each padded
    with M^2 + 1 zeros for the path sampler's windows, and log Z_N, -inf
    for a plan with no path.

    Float range: a row gives NaN when a charge it reads is not finite, or
    when a charge factor e^{S[x+l] - S[x]} that a short stage reads
    overflows (0 x inf, or inf/inf at the divide); otherwise a stage whose
    maximum is 0 gives -inf.  No sum overflows: a short stage is at most
    max e^{S[x+l] - S[x]}/2 of the unit maximum of the stage before.
    """
    size = _trimmed_size(kernel, plan)
    if size == 0:
        return [], -math.inf
    if len(prefix) < size:
        raise ValueError("charge prefix too short for the plan")
    s = prefix[:size]
    if not np.isfinite(s).all():
        return [], math.nan
    big_m, k, m = plan.M, plan.k, plan.m
    lead = big_m * big_m
    long_w = 0.5 * kernel.masses[big_m : lead + 1]
    stage = np.zeros(size + lead + 1)
    stage[:size] = _closing_weights(kernel, plan, size)
    stages, log_scale = [stage], 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for g in range(2 * m, 0, -1):
            # after g - 1 gaps, of which (g - 1) // 2 short, a path lies in [lo, hi]
            shorts = (g - 1) // 2
            lo, hi = (g - 1 - shorts) * big_m + shorts, min((g - 1 - shorts) * lead + shorts * k, size - 1)
            nxt = np.zeros(size + lead + 1)
            if g % 2:
                nxt[lo : hi + 1] = np.correlate(stage[lo + big_m : hi + lead + 1], long_w, mode="valid")
            else:
                for ell in range(1, k + 1):
                    b = min(hi, size - 1 - ell) + 1  # sources x <= hi with x + l <= size - 1
                    charge = np.exp(s[lo + ell : b + ell] - s[lo:b]) * (0.5 * kernel.masses[ell])
                    nxt[lo:b] += charge * stage[lo + ell : b + ell]
            top = nxt.max()
            if top > 0.0:
                nxt /= top
            log_scale += np.log(top)
            stage = nxt
            stages.append(stage)
    return stages[::-1], float(log_scale)


def log_Z_restricted(prefix, kernel: RenewalKernel, plan: Trimmed) -> float:
    """Log Z_N restricted to the trimmed family of one charge-prefix row; -inf if it is empty.

    The oracle of ``_trimmed_log_z_replicas``: ``_trimmed_stages``'s value, under its float-range rule.
    """
    return _trimmed_stages(prefix, kernel, plan)[1]


def _trimmed_pass(plan, size):
    """The shape dicts a trimmed pass over positions 0..size-1 hands
    ``_workspace``, and its rows per pass by ``_pass_rows``: shared, the
    Toeplitz operand; per row, the stage buffers f and g and the k charge
    rows.  The charge-prefix rows stay in their block."""
    big_m, chunk = plan.M, _TRIMMED_CHUNK
    stage = (big_m * big_m + size + chunk,)
    shared = {"toeplitz": (chunk + big_m * (big_m - 1), chunk)}
    row = {"f": stage, "g": stage, "charge": (plan.k, size)}
    return shared, row, _pass_rows(shared, row, _TRIMMED_PASS_BYTES)


def _trimmed_log_z_replicas(prefix, kernel, plan) -> np.ndarray:
    """Trimmed log Z_N of every charge-prefix row of ``prefix``.

    ``prefix`` is an (R, n+1) array or an iterable of 2-D blocks of such
    rows, as ``_passes`` takes them.  It runs the stages of the ensemble
    forward; the oracle, ``log_Z_restricted``, runs the same ensemble
    backward.  Each block goes through ``_passes`` in passes of
    ``_trimmed_pass`` rows, whole groups of _GEMM_REPLICAS rows, read in
    place; a pass writes the Toeplitz operand into this thread's
    ``_workspace`` and takes its stage buffers there.

    f starts as e_0, the path's start at position 0, held in its own stage
    buffer as the quenched engine's site 0 holds the source.  Every long
    stage is one banded Toeplitz matrix T[c, r] = K(r + M^2 - c)/2
    over gaps in [M, M^2], applied as (_GEMM_REPLICAS, W) @ (W, _TRIMMED_CHUNK)
    GEMMs, W = _TRIMMED_CHUNK + M(M - 1), one per group and chunk of the
    targets that the support left by the previous stage reaches, all in one
    ``np.matmul`` over strided windows of the pass: f is zeroed across its
    whole stage buffer once per pass and the short stage keeps it zero
    outside the support, so a window that reaches past the support reads
    zeros.  The chunk width only decides which of those zero products
    enter each sum (a window overhangs the band by _TRIMMED_CHUNK - 1
    columns; 32 makes W/band 1.056 at M = 24 and 1.13 at M = 16), and a
    test pins that 16, 32 and 64 give the same values.  The short stage uses
    the k charge rows e^{S[x] - S[x-l]} K(l)/2, built with one ``exp`` per
    pass: row l is row l - 1 shifted by one site times the l = 1 row.

    Rescaling: after each pair's short stage a row is divided by its
    maximum, and the log of that maximum added to its log offset, only when
    the maximum leaves [2^-64, 2^64]; when no row of the pass does, the
    divide is skipped, and otherwise the other rows are divided by 1.0,
    which is exact, so a row's value still depends on its own charges only.
    A row then enters every pair with its maximum inside that band, so
    nothing under- or overflows as long as one pair's growth or decay stays
    within 2^+-958 (2^+-1022 if every pair were rescaled to a unit maximum),
    and an entry that turns subnormal is below 2^-958 of its row's maximum.
    Float range, the rule of ``_trimmed_stages``: as in the quenched
    engine, a row holding a non-finite charge that the plan reads gives NaN
    (``_passes``), and so does a row whose charge factor e^{S[x+l] - S[x]}
    of a short stage overflows: 0 x inf where the row's stages are 0, else
    inf, which the rescale turns into NaN.  Otherwise a row whose maximum
    is 0 keeps zero stages, so it closes on 0, and a row whose closing sum
    is 0 gives -inf.  Every product keeps one group's shape, so a row's
    value depends neither on R, nor on the blocks or the pass width, nor on
    the other rows.
    """
    size = _trimmed_size(kernel, plan)
    shapes = _trimmed_pass(plan, size)

    def cut(block):
        if block.shape[1] < size:
            raise ValueError("charge prefix too short for the plan")
        return (*shapes, size)

    if size == 0:
        return _passes(prefix, cut, lambda rows, ws: np.full(len(rows), -math.inf))
    big_m, k, m = plan.M, plan.k, plan.m
    lead = big_m * big_m  # zero sites left of position 0, read by the long stage
    chunk = _TRIMMED_CHUNK
    width = chunk + lead - big_m  # sources that reach one chunk of targets
    taps = np.zeros(2 * chunk + lead - big_m - 1)
    taps[chunk - 1 : chunk + lead - big_m] = 0.5 * kernel.masses[big_m : lead + 1]
    # toeplitz[c, r] = K(r + M^2 - c)/2: from source t0 - M^2 + c to target t0 + r
    operand = _toeplitz_view(taps, width).T
    closing = _closing_weights(kernel, plan, size)
    short_w = 0.5 * kernel.masses[1 : k + 1]

    def windows(a, first, count, span):
        # a's (groups, count, _GEMM_REPLICAS, span) windows at columns
        # first + j chunk, one per group and chunk j; the ndarray constructor
        # checks that they lie inside a, and costs an eighth of as_strided
        row_step, col_step = a.strides
        return np.ndarray(
            (len(a) // _GEMM_REPLICAS, count, _GEMM_REPLICAS, span), a.dtype, a, first * col_step,
            (_GEMM_REPLICAS * row_step, chunk * col_step, row_step, col_step),
        )

    def evaluate(rows, ws):
        # position x sits at column lead + x; the last chunk of a stage may
        # read f and write g up to chunk - 1 positions past size - 1, which
        # the stage buffers hold;
        # charge[:, l - 1, x] = e^{S[x] - S[x-l]} K(l)/2 for x >= l
        toeplitz, f, g, charge = (ws[name] for name in ("toeplitz", "f", "g", "charge"))
        np.copyto(toeplitz, operand)
        # one exp per pass: e^{S[x] - S[x-l]} is row l - 1 at x - 1 times the
        # l = 1 row at x, so every row is a product of shifted l = 1 rows
        step = charge[:, 0, 1:]
        np.subtract(rows[:, 1:], rows[:, :-1], out=step)
        np.exp(step, out=step)
        for ell in range(2, k + 1):
            np.multiply(charge[:, ell - 2, ell - 1 : -1], step[:, ell - 1 :], out=charge[:, ell - 1, ell:])
        for ell in range(1, k + 1):
            charge[:, ell - 1, ell:] *= short_w[ell - 1]
        f.fill(0.0)  # the long stage reads zeros wherever the support does not reach
        f[:, lead] = 1.0  # e_0
        log_scale = np.zeros(len(rows))
        s_lo = s_hi = 0  # f is zero outside s_lo..s_hi
        for _ in range(m):
            # the long stage on its targets [lo, hi] of g, read nowhere else:
            # chunk t0 = lo + j chunk reads sources t0 - M^2 .. t0 + chunk - 1 - M,
            # the f columns t0 .. t0 + width - 1
            lo, hi = s_lo + big_m, min(s_hi + lead, size - 1)
            chunks = -(-(hi + 1 - lo) // chunk)
            np.matmul(windows(f, lo, chunks, width), toeplitz, out=windows(g, lead + lo, chunks, chunk))
            # the short stage leaves f on [lo + 1, top]: l = 1 writes it up
            # to hi + 1, and zeros cover the rest of that range and the part
            # of the old support left of it
            top = min(hi + k, size - 1)
            f[:, lead + s_lo : lead + lo + 1] = 0.0
            f[:, lead + hi + 2 : lead + top + 1] = 0.0
            for ell in range(1, k + 1):
                a, b = lead + lo + ell, lead + min(hi + ell, top) + 1
                terms = g[:, a - ell : b - ell], charge[:, ell - 1, a - lead : b - lead]
                if ell == 1:
                    np.multiply(*terms, out=f[:, a:b])
                else:
                    f[:, a:b] += np.multiply(*terms)
            # rescale a row only when its maximum leaves the band; a zero
            # maximum never does, and the row stays zero from here on
            values = f[:, lead + lo + 1 : lead + top + 1]
            peak = values.max(axis=1)
            out_of_band = (peak > 0.0) & ((peak < _TRIMMED_LOW) | (peak > 1.0 / _TRIMMED_LOW))
            if out_of_band.any():
                peak[~out_of_band] = 1.0
                values /= peak[:, None]
                log_scale += np.log(peak)
            s_lo, s_hi = lo + 1, top
        # one (_GEMM_REPLICAS, size) product per group, as for a group alone;
        # a row with no path closes on 0, whose log is -inf
        total = np.matmul(f[:, lead : lead + size].reshape(-1, _GEMM_REPLICAS, size), closing).reshape(-1)
        with np.errstate(divide="ignore"):
            return np.log(total) + log_scale

    return _passes(prefix, cut, evaluate)


def log_annealed_Z(kernel: RenewalKernel, n: int, h):
    """Exact log of the disorder-averaged partition function at every field of ``h``.

    ``h`` is one field or a grid of fields, and the result has shape
    np.shape(h).  An excursion of length l carries (1 + e^{hl})/2 on
    average, so Z is the renewal mass u(n) of the tilted law
    K(l)(1 + e^{hl})/2, one ``renewal_mass`` solve per field; for h > 0
    the factor e^{hn} comes out first, leaving K(l)(e^{-hl} + 1)/2 <= K(l),
    so the solve never overflows.  A non-finite field or value gives NaN.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > kernel.support_cap:
        raise ValueError(f"kernel support {kernel.support_cap} < n = {n}")
    fields = np.asarray(h, dtype=float)
    lengths = np.arange(n + 1.0)
    out = np.full(fields.size, np.nan)
    for i, field in enumerate(fields.ravel().tolist()):
        if math.isfinite(field):
            # e^{-1000 l} is already 0 for l >= 1: the cap only keeps |h| l finite
            decay = np.exp(-min(abs(field), 1000.0) * lengths)
            mass = renewal_mass(kernel.masses[: n + 1] * (1.0 + decay) * 0.5, n)[n]
            out[i] = max(field, 0.0) * n + math.log(mass)
    out[np.isinf(out)] = np.nan  # e^{hn} left the float range
    return out.reshape(fields.shape)[()]
