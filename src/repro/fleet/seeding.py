"""Seed many PCG64 generators at once, exactly as ``default_rng`` would.

``np.random.default_rng(seed)`` hashes the seed through
:class:`numpy.random.SeedSequence` and fills a PCG64 state from the
result.  The hash is a short fixed chain of 32-bit multiply/xor steps, but
each call pays Python and object set-up costs that outweigh it.  A launch
batch seeds hundreds of sandboxes, so :func:`pcg64_words` runs that hash
for a whole seed array in a few dozen array operations, and
:class:`SeedWords` hands one row to ``np.random.PCG64`` through NumPy's
documented :class:`~numpy.random.bit_generator.ISeedSequence` extension
point.  ``np.random.Generator(np.random.PCG64(SeedWords(row)))`` is then in
the state ``np.random.default_rng(seed)`` starts in.

The port follows ``SeedSequence`` for an integer entropy ``s`` with
``0 <= s < 2**64`` and no spawn key: the entropy is ``s``'s little-endian
uint32 words, hashed into a pool of four words (a missing word hashes as
0, so the seed's two words are zero-padded), mixed word against word, and
stretched into eight output words that pair up into four uint64s.
``tests/property/test_prop_seeding.py`` pins it to NumPy's own
``SeedSequence``.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from numpy.typing import DTypeLike, NDArray

INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16
MASK32 = 0xFFFFFFFF

#: Words in the entropy pool, and PCG64's state in uint64 words.
POOL_SIZE = 4
PCG64_WORDS = 4
#: uint32 entropy words of a seed below 2**64.
SEED_WORDS = 2


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The ``(xor, multiply)`` pair of each of ``count`` chained hash steps.

    A step xors the value with the running constant, advances the
    constant by ``mult`` and multiplies by the new one.  The chain never
    depends on the data, so it is computed once, as Python ints.
    """
    steps: list[tuple[int, int]] = []
    const = init
    for _ in range(count):
        advanced = (const * mult) & MASK32
        steps.append((const, advanced))
        const = advanced
    return steps


def _hashmix(value: int, xor: int, mult: int) -> int:
    value = ((value ^ xor) * mult) & MASK32
    return value ^ (value >> XSHIFT)


# Pool fill: one step per pool word, then one per (source, destination)
# pair of the mixing rounds, in SeedSequence's loop order.
_POOL_STEPS = _hash_constants(INIT_A, MULT_A, POOL_SIZE + POOL_SIZE * (POOL_SIZE - 1))
_FILL_STEPS = _POOL_STEPS[:POOL_SIZE]
#: The pool words past the seed's hash a zero pad word, whatever the seed.
_PAD_WORDS = [_hashmix(0, *step) for step in _FILL_STEPS[SEED_WORDS:]]
#: Per source word: the word, its destinations and their steps as
#: uint32 arrays.
_MIX_ROUNDS: list[tuple[int, list[int], NDArray[np.uint32], NDArray[np.uint32]]] = []
for _src in range(POOL_SIZE):
    _dsts = [dst for dst in range(POOL_SIZE) if dst != _src]
    _start = POOL_SIZE + _src * (POOL_SIZE - 1)
    _steps = _POOL_STEPS[_start : _start + POOL_SIZE - 1]
    _MIX_ROUNDS.append(
        (
            _src,
            _dsts,
            np.array([xor for xor, _ in _steps], dtype=np.uint32),
            np.array([mult for _, mult in _steps], dtype=np.uint32),
        )
    )
#: Output stretch: eight uint32 words cycle over the pool.
_OUT_STEPS = _hash_constants(INIT_B, MULT_B, 2 * PCG64_WORDS)
_OUT_SOURCES = [i % POOL_SIZE for i in range(2 * PCG64_WORDS)]
_OUT_XOR = np.array([xor for xor, _ in _OUT_STEPS], dtype=np.uint32)
_OUT_MULT = np.array([mult for _, mult in _OUT_STEPS], dtype=np.uint32)
_SHIFT = np.uint32(XSHIFT)
_MIX_L = np.uint32(MIX_MULT_L)
_MIX_R = np.uint32(MIX_MULT_R)


def pcg64_words(seeds: NDArray[Any]) -> NDArray[np.uint64]:
    """PCG64 seed words of each seed: an ``(n, 4)`` uint64 array.

    Row ``i`` equals
    ``np.random.SeedSequence(int(seeds[i])).generate_state(4, np.uint64)``
    for every ``0 <= seeds[i] < 2**64``.
    """
    seeds = np.asarray(seeds).astype(np.uint64)
    pool = np.empty((seeds.shape[0], POOL_SIZE), dtype=np.uint32)
    for word, (xor, mult) in enumerate(_FILL_STEPS[:SEED_WORDS]):
        value = (seeds >> np.uint64(32 * word)).astype(np.uint32)
        value ^= np.uint32(xor)
        value *= np.uint32(mult)
        value ^= value >> _SHIFT
        pool[:, word] = value
    pool[:, SEED_WORDS:] = _PAD_WORDS
    for src, dsts, xors, mults in _MIX_ROUNDS:
        # The source word is not among its destinations, so its three
        # hashes are taken at once from its value before the round.
        hashed = pool[:, src, None] ^ xors
        hashed *= mults
        hashed ^= hashed >> _SHIFT
        mixed = pool[:, dsts] * _MIX_L
        mixed -= hashed * _MIX_R
        mixed ^= mixed >> _SHIFT
        pool[:, dsts] = mixed
    out = pool[:, _OUT_SOURCES] ^ _OUT_XOR
    out *= _OUT_MULT
    out ^= out >> _SHIFT
    # Pairs of uint32s are little-endian uint64s, on any host byte order.
    words = np.ascontiguousarray(out, dtype="<u4").view("<u8")
    return words.astype(np.uint64, copy=False)


class SeedWords(ISeedSequence):
    """A seed sequence that hands PCG64 one precomputed row of words.

    ``np.random.PCG64(SeedWords(pcg64_words(seeds)[i]))`` seeds exactly as
    ``np.random.PCG64(int(seeds[i]))`` does.  It answers only PCG64's own
    request, four uint64 words.
    """

    def __init__(self, words: NDArray[np.uint64]) -> None:
        self.words = words

    def generate_state(
        self, n_words: int, dtype: DTypeLike = np.uint32
    ) -> NDArray[np.uint64]:
        if n_words != PCG64_WORDS or np.dtype(dtype) != np.uint64:
            raise ValueError(
                f"SeedWords holds {PCG64_WORDS} uint64 words, "
                f"not {n_words} of {np.dtype(dtype)}"
            )
        return self.words


def generators(seeds: NDArray[Any]) -> list[np.random.Generator]:
    """``[np.random.default_rng(int(s)) for s in seeds]``, seeded in one step."""
    # NumPy's stub types PCG64's seed as SeedSequence; the runtime takes
    # any ISeedSequence, its documented extension point.
    return [
        np.random.Generator(np.random.PCG64(SeedWords(words)))  # type: ignore[arg-type, unused-ignore]
        for words in pcg64_words(seeds)
    ]
