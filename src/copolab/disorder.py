"""Charge distributions and their cumulant machinery.

Two built-in laws, both centered with unit variance: the standard Gaussian
and the symmetric +/-1 law.  Both have closed-form cumulant functions, which
makes every downstream quantity (tilted means, Legendre transforms, block
tail probabilities) exactly checkable.  The Legendre transform is closed
form too; the tests check it against a grid maximum of x*y - lambda(y).

Replica streams are counter-split from a master seed: replica i of seed s
draws from the PCG64 Generator that ``SeedSequence(s, spawn_key=(i,))``
seeds, bit for bit.  ``replica_rngs`` derives the streams of many indices
in bulk: numpy mixes the seed's entropy pool once, ``SeedSequence(s).pool``;
the index word is mixed into it and the state words generated for all
indices at once in numpy uint32 arithmetic, with the hash steps in closed
form, and numpy's PCG64 seeds itself from each replica's four state words.
``spawn_rng`` is its one-index call.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DisorderLaw",
    "RateFunctionEval",
    "GAUSSIAN",
    "BINARY",
    "log_mgf",
    "log_mgf_prime",
    "q1",
    "q2",
    "rate_function",
    "replica_rngs",
    "spawn_rng",
]


class DisorderLaw(str, Enum):
    """A centered, unit-variance charge distribution.

    Both built-in laws are entire: every cumulant lambda(beta) is finite.
    """

    GAUSSIAN = "gaussian"
    BINARY = "binary"


GAUSSIAN = DisorderLaw.GAUSSIAN
BINARY = DisorderLaw.BINARY


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
    if law is GAUSSIAN:
        return 0.5 * beta * beta
    # log cosh: cosh a = 1 + 2 sinh(a/2)^2 keeps small arguments free of the
    # cancellation in a + log1p(e^{-2a}) - log 2, which stays for a >= 0.25,
    # where it is accurate and cannot overflow
    a = abs(beta)
    if a < 0.25:
        return math.log1p(2.0 * math.sinh(0.5 * a) ** 2)
    return a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0)


def log_mgf_prime(law: DisorderLaw, beta: float) -> float:
    """Derivative of the cumulant function, i.e. the tilted mean."""
    _check_beta(beta)
    if law is GAUSSIAN:
        return beta
    return math.tanh(beta)


def q1(law: DisorderLaw, beta: float) -> float:
    """beta * lambda'(beta) - lambda(beta); positive for beta > 0.

    Free of inf - inf (the Gaussian halves beta before the square) and of
    cancellation (the +/-1 law, where tanh beta rounds to 1, in t = e^(-2 beta)).
    """
    _check_beta(beta)
    if law is GAUSSIAN:
        return 0.5 * beta * beta
    if math.tanh(beta) < 1.0:
        return beta * math.tanh(beta) - log_mgf(law, beta)
    t = math.exp(-2.0 * beta)
    return math.log(2.0) - math.log1p(t) - 2.0 * beta * t / (1.0 + t)


def q2(law: DisorderLaw, beta: float) -> float:
    """lambda(2 beta) - 2 lambda(beta); free of inf - inf and of cancellation, as q1."""
    _check_beta(beta)
    if law is GAUSSIAN:
        return beta * beta
    if math.tanh(beta) < 1.0:
        return log_mgf(law, 2.0 * beta) - 2.0 * log_mgf(law, beta)
    t = math.exp(-2.0 * beta)
    return math.log(2.0) + math.log1p(t * t) - 2.0 * math.log1p(t)


def rate_function(law: DisorderLaw, x: float) -> RateFunctionEval:
    """Legendre transform sup_y [x*y - lambda(y)] of the cumulant function.

    The optimizer solves lambda'(y) = x in closed form: y = x for the
    Gaussian and y = atanh(x) for the +/-1 law.  The domain is x >= 0, and
    x < 1 for the +/-1 law, whose tilted means stay below 1.
    """
    if not x >= 0:
        raise ValueError(f"rate function evaluated on x >= 0 only, got {x}")
    if law is BINARY and not x < 1.0:
        raise ValueError(f"x={x} is at or beyond the attainable mean range [0, 1)")
    y = x if law is GAUSSIAN else math.atanh(x)
    sigma = x * y - log_mgf(law, y)
    return RateFunctionEval(x=x, sigma=max(sigma, 0.0), argmax_y=y)


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


@functools.cache
def _hash_steps(init: int, mult: int, first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(xors, multipliers) of hash steps ``first`` to ``first + count - 1``, read-only.

    A hash chain's constant after j steps is c_j = init * mult**j mod 2**32;
    step j XORs with c_j and multiplies by c_{j+1}.
    """
    consts = np.array(
        [init * pow(mult, j, 2**32) % 2**32 for j in range(first, first + count + 1)],
        dtype=np.uint32,
    )
    xors, mults = consts[:-1], consts[1:]
    xors.flags.writeable = mults.flags.writeable = False
    return xors, mults


def _stream_words(seed: int, indices: Iterable[int]) -> np.ndarray:
    """generate_state(4, uint64) of SeedSequence(seed, spawn_key=(i,)) for each index i.

    Returns a (len(indices), 4) uint64 array.  numpy mixes the seed's
    entropy pool, ``SeedSequence(seed).pool``, once.  The spawn-key word
    then enters every pool word through the hash chain's steps 4 max(4, w)
    onward, w the seed's 32-bit word count, and the eight state words are
    hashed out of the pool; both run for all indices at once, in uint32
    arithmetic on fresh arrays, so the index array itself is never written.
    hashmix(v) = ((v ^ xor) * mult) ^ shift and mix(x, y) = (L x - R y) ^
    shift, mod 2**32, with shift(v) = v >> 16.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    try:
        index = np.fromiter(map(operator.index, indices), dtype=np.uint32)
    except OverflowError:
        raise ValueError("replica indices must lie in [0, 2**32)") from None
    seed_sequence = _stream_types()[0]
    pool = seed_sequence(seed).pool
    seed_words = max(1, -(-seed.bit_length() // 32))
    xors, mults = _hash_steps(_INIT_A, _MULT_A, 4 * max(len(pool), seed_words), len(pool))
    key = (index[:, None] ^ xors) * mults
    key ^= key >> 16
    mixed = pool * np.uint32(_MIX_MULT_L) - np.uint32(_MIX_MULT_R) * key
    mixed ^= mixed >> 16
    # generate_state(4, uint64) hashes eight words, the k-th from pool word k % 4
    xors, mults = _hash_steps(_INIT_B, _MULT_B, 0, 2 * len(pool))
    state = (np.tile(mixed, 2) ^ xors) * mults
    state ^= state >> 16
    # word pairs read little-endian, as SeedSequence reads them on every host
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _stream_types():
    """numpy's SeedSequence, StateWords, PCG64 and Generator.

    StateWords is the seed sequence that hands PCG64 a stream's state
    words.  numpy.random loads with the first stream, not with copolab.
    """
    from numpy.random import PCG64, Generator, SeedSequence
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        """Four uint64 PCG64 state words; any other request is refused."""

        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds 4 uint64 state words, not {n_words} {np.dtype(dtype)}")
            return self.words

    return SeedSequence, StateWords, PCG64, Generator


def replica_rngs(seed: int, indices: Iterable[int]) -> Iterator[np.random.Generator]:
    """The streams of replicas ``indices`` of ``seed``, in order.

    Stream i is bit-identical to
    ``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))``.
    The state words of every index are derived at the call, 32 bytes per
    index, and each Generator is built when the iterator reaches it.  A
    negative seed, or an index outside [0, 2**32), raises ValueError at the
    call.
    """
    words = _stream_words(seed, indices)
    _, state_words, pcg64, generator = _stream_types()
    return (generator(pcg64(state_words(row))) for row in words)


def spawn_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based split of a master seed; independent of draw order."""
    return next(replica_rngs(seed, (index,)))


def _draw(
    law: DisorderLaw, n: int, rngs: Iterable[np.random.Generator], out: np.ndarray | None = None
) -> np.ndarray:
    """n charges of ``law`` from each Generator of ``rngs``, one row each.

    Returns a (rows, n) array, written into ``out`` when one is given (its
    rows contiguous).  Gaussian row r is ``rngs[r].standard_normal(n)``.  A
    +/-1 charge is +1 where one bit of the raw 64-bit words of the row's
    ``bit_generator`` is set: bit 31, then bit 63, of each word in turn, the
    top bits of its low and high 32-bit halves.  On a fresh PCG64 stream,
    one that has not yet handed out a 32-bit half, these are the bits of
    ``rng.integers(0, 2, size=n)``, which the charges equal bit for bit.
    The words of all rows are gathered into one buffer, and the bits are
    taken from it in one pass for the whole block.
    """
    rngs = list(rngs)
    if out is None:
        out = np.empty((len(rngs), n))
    if law is GAUSSIAN:
        for row, rng in zip(out, rngs):
            rng.standard_normal(out=row)
        return out
    # little-endian words read as int32 pairs: the low half, then the high
    # half, each with its top bit as the sign, on hosts of either byte order
    words = np.empty((len(rngs), -(-n // 2)), dtype="<u8")
    for row, rng in zip(words, rngs):
        row[:] = rng.bit_generator.random_raw(len(row))
    halves = words.view("<i4")[:, :n]
    np.invert(halves, out=halves)
    return np.copysign(1.0, halves, out=out)
