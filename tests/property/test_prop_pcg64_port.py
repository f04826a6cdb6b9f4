"""The NumPy port of PCG64 and its first draws equals NumPy word for word.

:class:`repro.fleet.seeding.Pcg64Streams` steps many PCG64 states as
uint64 columns, and :func:`~repro.fleet.seeding.uniform` and
:func:`~repro.fleet.seeding.standard_normal` turn its words into
``Generator.random()`` and one-word ``Generator.standard_normal()``
values.  The columnar Gen 1 probe is byte-identical to a sandbox's own
draws only if each piece matches NumPy: the step and output against
``random_raw``, the jump-ahead against ``advance``, and the draws on every
word.  A chosen word is fed to a real ``np.random.PCG64`` by setting its
state one step before a state whose output is that word, found by
inverting the step with Python ints.  The ziggurat test covers every
layer: the last one-word magnitude, the first rejection (or, in layer 0,
tail) magnitude, and random words, so it also pins the ``ki``/``wi``
tables copied into ``src/``.
"""

import math

import numpy as np
from hypothesis import example, given, strategies as st

from repro.fleet.seeding import (
    MASK64,
    MASK128,
    PCG64_MULT,
    ZIGGURAT_KI,
    ZIGGURAT_WI,
    Pcg64Streams,
    standard_normal,
    uniform,
)

seeds = st.integers(min_value=0, max_value=2**63 - 1)
words = st.integers(min_value=0, max_value=MASK64)
INVERSE_MULT = pow(PCG64_MULT, -1, 2**128)
INCREMENT = 0xDA3E39CB94B95BDB


def state_after(bit_generator: np.random.PCG64) -> int:
    return bit_generator.state["state"]["state"]


def feed(word: int) -> tuple[np.random.Generator, int]:
    """A generator whose next raw word is ``word``, and the state that
    word leaves it in."""
    rotation = 5
    high = rotation << 58 | 0x2545F491
    value = ((word << rotation) | (word >> (64 - rotation))) & MASK64
    target = high << 64 | (value ^ high)
    previous = (target - INCREMENT) * INVERSE_MULT & MASK128
    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": previous, "inc": INCREMENT},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bit_generator), target


def test_feed_sets_the_next_word():
    generator, target = feed(0x0123456789ABCDEF)
    assert int(generator.bit_generator.random_raw()) == 0x0123456789ABCDEF
    assert state_after(generator.bit_generator) == target


@given(st.lists(seeds, min_size=1, max_size=20), st.integers(1, 6))
def test_step_and_output_match_random_raw(batch, steps):
    streams = Pcg64Streams(np.array(batch, dtype=np.int64))
    drawn = np.stack([streams.next_raw() for _ in range(steps)], axis=1)
    for seed, row in zip(batch, drawn):
        raw = np.random.default_rng(seed).bit_generator.random_raw(steps)
        assert row.tolist() == raw.tolist()


@given(st.lists(st.tuples(seeds, st.integers(0, 2**15 - 1)), min_size=1, max_size=12))
@example([(0, 0), (1, 1), (2**63 - 1, 2**15 - 1), (7, 2)])
def test_advance_matches_bit_generator_advance(batch):
    streams = Pcg64Streams(np.array([seed for seed, _ in batch], dtype=np.int64))
    streams.advance(np.array([steps for _, steps in batch], dtype=np.int64))
    drawn = streams.next_raw()
    for (seed, steps), word in zip(batch, drawn.tolist()):
        bit_generator = np.random.default_rng(seed).bit_generator
        bit_generator.advance(steps)
        assert word == int(bit_generator.random_raw())


@given(st.lists(words, min_size=1, max_size=20))
@example([0, MASK64, 1 << 11, (1 << 11) - 1])
def test_uniform_matches_random(batch):
    ported = uniform(np.array(batch, dtype=np.uint64))
    for word, value in zip(batch, ported.tolist()):
        generator, _ = feed(word)
        assert generator.random() == value


def assert_normal_matches(batch: list[int]) -> int:
    """Check the port on each word; returns how many took one word."""
    values, fast = standard_normal(np.array(batch, dtype=np.uint64))
    for word, value, one_word in zip(batch, values.tolist(), fast.tolist()):
        generator, target = feed(word)
        drawn = generator.standard_normal()
        assert one_word == (state_after(generator.bit_generator) == target), hex(word)
        if one_word:
            assert value == drawn and math.copysign(1, value) == math.copysign(1, drawn)
    return int(fast.sum())


def normal_word(layer: int, sign: int, magnitude: int) -> int:
    return magnitude << 9 | sign << 8 | layer


def test_standard_normal_on_every_layer_boundary():
    batch = []
    for layer in range(256):
        bound = int(ZIGGURAT_KI[layer])
        for sign in (0, 1):
            batch.append(normal_word(layer, sign, bound))  # rejection or tail
            batch.append(normal_word(layer, sign, 2**52 - 1))
            if bound:
                batch.append(normal_word(layer, sign, bound - 1))
                batch.append(normal_word(layer, sign, 0))
    one_word = assert_normal_matches(batch)
    # Layer 1's bound is 0: no magnitude takes its one-word path.
    assert one_word == 255 * 2 * 2
    assert ZIGGURAT_KI[1] == 0 and ZIGGURAT_WI.shape == (256,)


def test_wi_table_is_numpys_layer_width():
    # Magnitude 1 returns the layer's width itself, where one word suffices
    # (every layer but layer 1, whose width the port never reads).
    layers = [layer for layer in range(256) if ZIGGURAT_KI[layer] > 1]
    values, fast = standard_normal(
        np.array([normal_word(layer, 0, 1) for layer in layers], dtype=np.uint64)
    )
    assert fast.all() and values.tolist() == ZIGGURAT_WI[layers].tolist()
    assert_normal_matches([normal_word(layer, 0, 1) for layer in layers])


@given(st.lists(words, min_size=1, max_size=64))
def test_standard_normal_matches_on_random_words(batch):
    assert_normal_matches(batch)


@given(st.integers(0, 255), st.integers(0, 1), st.integers(-3, 3))
def test_standard_normal_matches_near_each_bound(layer, sign, shift):
    magnitude = min(max(int(ZIGGURAT_KI[layer]) + shift, 0), 2**52 - 1)
    assert_normal_matches([normal_word(layer, sign, magnitude)])
