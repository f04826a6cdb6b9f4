"""The vectorized PCG64 seeding equals NumPy's ``SeedSequence`` exactly.

:func:`repro.fleet.seeding.pcg64_words` ports ``SeedSequence``'s hash to
array operations, and :class:`~repro.fleet.seeding.SeedWords` hands one
row to ``np.random.PCG64``.  Batch-booted sandboxes are byte-identical to
lazily booted ones only if both match NumPy for every seed a launch can
draw, ``[0, 2**63)``; the edges cover one- and two-word entropy.
"""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.fleet.seeding import SeedWords, generators, pcg64_words

seeds = st.integers(min_value=0, max_value=2**63 - 1)
EDGES = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]


def numpy_words(seed: int) -> np.ndarray:
    return np.random.SeedSequence(seed).generate_state(4, np.uint64)


@given(st.lists(seeds, min_size=1, max_size=40))
@example(EDGES)
@example(EDGES[::-1] + [7, 2**40 + 3])
def test_words_match_seed_sequence_row_by_row(batch):
    words = pcg64_words(np.array(batch, dtype=np.int64))
    assert words.dtype == np.uint64
    assert words.shape == (len(batch), 4)
    for seed, row in zip(batch, words):
        np.testing.assert_array_equal(row, numpy_words(seed))


def assert_same_stream(generator: np.random.Generator, seed: int) -> None:
    reference = np.random.default_rng(seed)
    assert generator.bit_generator.state == reference.bit_generator.state
    assert generator.integers(2**63, size=3).tolist() == reference.integers(
        2**63, size=3
    ).tolist()
    assert generator.normal(size=2).tolist() == reference.normal(size=2).tolist()


@given(seeds)
@example(EDGES[0])
@example(EDGES[1])
@example(EDGES[2])
@example(EDGES[3])
@example(EDGES[4])
def test_adapter_seeds_like_default_rng(seed):
    (words,) = pcg64_words(np.array([seed], dtype=np.int64))
    generator = np.random.Generator(np.random.PCG64(SeedWords(words)))
    restored = pickle.loads(pickle.dumps(generator))
    assert_same_stream(generator, seed)
    assert_same_stream(restored, seed)


@given(st.lists(seeds, max_size=10))
def test_generators_match_default_rng(batch):
    built = generators(np.array(batch, dtype=np.int64))
    assert len(built) == len(batch)
    for generator, seed in zip(built, batch):
        assert_same_stream(generator, seed)


@pytest.mark.parametrize("request_", [(4, np.uint32), (2, np.uint64), (8, np.uint64)])
def test_adapter_answers_only_pcg64s_request(request_):
    (words,) = pcg64_words(np.array([5], dtype=np.int64))
    with pytest.raises(ValueError):
        SeedWords(words).generate_state(*request_)
