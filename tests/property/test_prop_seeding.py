"""The vectorized PCG64 seeding equals NumPy's ``SeedSequence`` exactly.

:func:`repro.fleet.seeding.pcg64_words` ports ``SeedSequence``'s hash to
array operations, and :class:`~repro.fleet.seeding.Pcg64Streams` seeds
PCG64 states from its rows.  Columnar probes are byte-identical to
sandbox draws only if both match NumPy for every seed a launch can draw,
``[0, 2**63)``; the edges cover one- and two-word entropy.
"""

import numpy as np
from hypothesis import example, given, strategies as st

from repro.fleet.seeding import Pcg64Streams, pcg64_words

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


@given(st.lists(seeds, max_size=10))
@example(EDGES)
def test_generators_match_default_rng(batch):
    streams = Pcg64Streams(np.array(batch, dtype=np.int64))
    assert streams.hi.shape == (len(batch),)
    for i, seed in enumerate(batch):
        state = np.random.default_rng(seed).bit_generator.state["state"]
        assert int(streams.hi[i]) << 64 | int(streams.lo[i]) == state["state"]
        assert int(streams.inc_hi[i]) << 64 | int(streams.inc_lo[i]) == state["inc"]
