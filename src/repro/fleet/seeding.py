"""Many ``default_rng`` streams at once, as array operations.

``np.random.default_rng(seed)`` hashes the seed through
:class:`numpy.random.SeedSequence`, fills a PCG64 state from the result and
draws through that state one word at a time.  Each step is a handful of
integer operations, but a ``Generator`` costs far more to build and to call
than its draws cost to compute.  A fingerprint batch draws the first few
words of hundreds of sandbox streams, so this module computes them for a
whole seed array:

* :func:`pcg64_words` runs the ``SeedSequence`` hash;
* :class:`Pcg64Streams` holds each stream's 128-bit PCG64 state as two
  uint64 columns, steps them all at once and returns each step's XSL-RR
  output, the word ``bit_generator.random_raw()`` would return;
* :func:`uniform` and :func:`standard_normal` turn raw words into the
  values ``Generator.random()`` and ``Generator.standard_normal()`` return
  when the draw takes one word.  ``standard_normal`` is NumPy's 256-layer
  ziggurat; a word that falls outside its layer's fast region (about one
  in a hundred) makes NumPy draw more words, and is flagged so the caller
  can replay that row through a real generator.

``tests/property/test_prop_seeding.py`` and
``tests/property/test_prop_pcg64_port.py`` pin every piece to NumPy word
for word.

The seed hash follows ``SeedSequence`` for an integer entropy ``s`` with
``0 <= s < 2**64`` and no spawn key: the entropy is ``s``'s little-endian
uint32 words, hashed into a pool of four words (a missing word hashes as
0, so the seed's two words are zero-padded), mixed word against word, and
stretched into eight output words that pair up into four uint64s.
``tests/property/test_prop_seeding.py`` pins it to NumPy's own
``SeedSequence``.
"""

from __future__ import annotations

import functools
from typing import Any

import numpy as np
from numpy.typing import NDArray

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




U64 = NDArray[np.uint64]
F64 = NDArray[np.float64]

#: PCG64's 128-bit LCG multiplier.
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK64 = 2**64 - 1
MASK128 = 2**128 - 1
_MULT_HI = np.uint64(PCG64_MULT >> 64)
_MULT_LO = np.uint64(PCG64_MULT & MASK64)
_LOW32 = np.uint64(MASK32)
_U32 = np.uint64(32)


def _mul64(a: U64, b: U64 | np.uint64) -> tuple[U64, U64]:
    """Full 128-bit products ``a * b`` as ``(high, low)`` uint64 words."""
    a0, a1 = a & _LOW32, a >> _U32
    b0, b1 = b & _LOW32, b >> _U32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    low = (p00 & _LOW32) | (mid << _U32)
    high = a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    return high, low


def _mul128(
    a_hi: U64, a_lo: U64, b_hi: U64 | np.uint64, b_lo: U64 | np.uint64
) -> tuple[U64, U64]:
    """``a * b mod 2**128`` on ``(high, low)`` word pairs."""
    high, low = _mul64(a_lo, b_lo)
    high += a_hi * b_lo + a_lo * b_hi
    return high, low


def _add128(a_hi: U64, a_lo: U64, b_hi: U64, b_lo: U64) -> tuple[U64, U64]:
    """``a + b mod 2**128`` on ``(high, low)`` word pairs."""
    low = a_lo + b_lo
    return a_hi + b_hi + (low < a_lo).astype(np.uint64), low


@functools.lru_cache(maxsize=None)
def _jump(steps: int) -> tuple[int, int]:
    """``(PCG64_MULT**steps, sum(PCG64_MULT**i for i < steps))`` mod 2**128.

    ``steps`` LCG steps take a state ``s`` with increment ``c`` to
    ``mult * s + plus * c`` (Brown's jump-ahead, by squaring).
    """
    mult, plus = 1, 0
    cur_mult, cur_plus = PCG64_MULT, 1
    while steps:
        if steps & 1:
            mult = mult * cur_mult & MASK128
            plus = (plus * cur_mult + cur_plus) & MASK128
        cur_plus = (cur_mult + 1) * cur_plus & MASK128
        cur_mult = cur_mult * cur_mult & MASK128
        steps >>= 1
    return mult, plus


def _split(values: list[int]) -> tuple[U64, U64]:
    return (
        np.array([value >> 64 for value in values], dtype=np.uint64),
        np.array([value & MASK64 for value in values], dtype=np.uint64),
    )


class Pcg64Streams:
    """The PCG64 streams ``np.random.default_rng`` builds for a seed array.

    Row ``i`` starts in the state of ``np.random.default_rng(seeds[i])``.
    Each 128-bit state and increment is held as ``(high, low)`` uint64
    columns.
    """

    def __init__(self, seeds: NDArray[Any]) -> None:
        words = pcg64_words(seeds)
        # PCG64 takes the first two words as the initial state and the
        # last two as the stream selector, high word first.  Seeding sets
        # the increment to ``2 * selector + 1``, the state to 0, steps,
        # adds the initial state and steps again; a step from 0 lands on
        # the increment.
        one = np.uint64(1)
        self.inc_hi: U64 = (words[:, 2] << one) | (words[:, 3] >> np.uint64(63))
        self.inc_lo: U64 = (words[:, 3] << one) | one
        self.hi, self.lo = _add128(self.inc_hi, self.inc_lo, words[:, 0], words[:, 1])
        self._step()

    def _step(self) -> None:
        hi, lo = _mul128(self.hi, self.lo, _MULT_HI, _MULT_LO)
        self.hi, self.lo = _add128(hi, lo, self.inc_hi, self.inc_lo)

    def next_raw(self) -> U64:
        """Step every stream; each one's next ``random_raw()`` word.

        PCG64's XSL-RR output: the state's two halves xored, rotated right
        by the state's top six bits.
        """
        self._step()
        value = self.hi ^ self.lo
        rotation = self.hi >> np.uint64(58)
        left = (np.uint64(64) - rotation) & np.uint64(63)
        out: U64 = (value >> rotation) | (value << left)
        return out

    def advance(self, steps: NDArray[np.int64]) -> None:
        """Move row ``i`` ``steps[i]`` words ahead, as
        ``bit_generator.advance(steps[i])`` does."""
        distinct, inverse = np.unique(steps, return_inverse=True)
        jumps = [_jump(int(count)) for count in distinct.tolist()]
        mult_hi, mult_lo = _split([mult for mult, _ in jumps])
        plus_hi, plus_lo = _split([plus for _, plus in jumps])
        inverse = inverse.reshape(-1)
        hi, lo = _mul128(self.hi, self.lo, mult_hi[inverse], mult_lo[inverse])
        add_hi, add_lo = _mul128(self.inc_hi, self.inc_lo, plus_hi[inverse], plus_lo[inverse])
        self.hi, self.lo = _add128(hi, lo, add_hi, add_lo)


def uniform(raw: U64) -> F64:
    """``Generator.random()`` of each word: its top 53 bits over 2**53."""
    values: F64 = (raw >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
    return values


_LAYER = np.uint64(0xFF)
_MANTISSA = np.uint64(0x000FFFFFFFFFFFFF)


def standard_normal(raw: U64) -> tuple[F64, NDArray[np.bool_]]:
    """``Generator.standard_normal()`` of each word, where one word suffices.

    NumPy's ziggurat reads a word as a layer index (low 8 bits), a sign
    bit and a 52-bit magnitude.  A magnitude below the layer's
    :data:`ZIGGURAT_KI` bound returns ``magnitude * ZIGGURAT_WI[layer]``
    at once; any other word makes NumPy draw more words (a rejection test,
    or the tail beyond layer 0).  Returns the values and a mask of the
    words that took the one-word path; the values elsewhere are not
    NumPy's.
    """
    layer = (raw & _LAYER).astype(np.intp)
    rest = raw >> np.uint64(8)
    magnitude = (rest >> np.uint64(1)) & _MANTISSA
    values: F64 = magnitude.astype(np.float64) * ZIGGURAT_WI[layer]
    values = np.where((rest & np.uint64(1)).astype(bool), -values, values)
    return values, magnitude < ZIGGURAT_KI[layer]


# NumPy's ziggurat tables for the standard normal (``ki_double`` and
# ``wi_double`` in its ``ziggurat_constants.h``), read off the installed
# NumPy by feeding it chosen words; the port's property test pins them.
ZIGGURAT_KI: U64 = np.array(
    [int(word, 16) for word in """
    000EF33D8025EF6A 0000000000000000 000C08BE98FBC6A8 000DA354FABD8142 000E51F67EC1EEEA
    000EB255E9D3F77E 000EEF4B817ECAB9 000F19470AFA44AA 000F37ED61FFCB18 000F4F469561255C
    000F61A5E41BA396 000F707A755396A4 000F7CB2EC28449A 000F86F10C6357D3 000F8FA6578325DE
    000F9724C74DD0DA 000F9DA907DBF509 000FA360F581FA74 000FA86FDE5B4BF8 000FACF160D354DC
    000FB0FB6718B90F 000FB49F8D5374C6 000FB7EC2366FE77 000FBAECE9A1E50E 000FBDAB9D040BED
    000FC03060FF6C57 000FC2821037A248 000FC4A67AE25BD1 000FC6A2977AEE31 000FC87AA92896A4
    000FCA325E4BDE85 000FCBCCE902231A 000FCD4D12F839C4 000FCEB54D8FEC99 000FD007BF1DC930
    000FD1464DD6C4E6 000FD272A8E2F450 000FD38E4FF0C91E 000FD49A9990B478 000FD598B8920F53
    000FD689C08E99EC 000FD76EA9C8E832 000FD848547B08E8 000FD9178BAD2C8C 000FD9DD07A7ADD2
    000FDA9970105E8C 000FDB4D5DC02E20 000FDBF95C5BFCD0 000FDC9DEBB99A7D 000FDD3B8118729D
    000FDDD288342F90 000FDE6364369F64 000FDEEE708D514E 000FDF7401A6B42E 000FDFF46599ED40
    000FE06FE4BC24F2 000FE0E6C225A258 000FE1593C28B84C 000FE1C78CBC3F99 000FE231E9DB1CAA
    000FE29885DA1B91 000FE2FB8FB54186 000FE35B33558D4A 000FE3B799D0002A 000FE410E99EAD7F
    000FE46746D47734 000FE4BAD34C095C 000FE50BAED29524 000FE559F74EBC78 000FE5A5C8E41212
    000FE5EF3E138689 000FE6366FD91078 000FE67B75C6D578 000FE6BE661E11AA 000FE6FF55E5F4F2
    000FE73E5900A702 000FE77B823E9E39 000FE7B6E37070A2 000FE7F08D774243 000FE8289053F08C
    000FE85EFB35173A 000FE893DC840864 000FE8C741F0CEBC 000FE8F9387D4EF6 000FE929CC879B1D
    000FE95909D388EA 000FE986FB939AA2 000FE9B3AC714866 000FE9DF2694B6D5 000FEA0973ABE67C
    000FEA329CF166A4 000FEA5AAB32952C 000FEA81A6D5741A 000FEAA797DE1CF0 000FEACC85F3D920
    000FEAF07865E63C 000FEB13762FEC13 000FEB3585FE2A4A 000FEB56AE3162B4 000FEB76F4E284FA
    000FEB965FE62014 000FEBB4F4CF9D7C 000FEBD2B8F449D0 000FEBEFB16E2E3E 000FEC0BE31EBDE8
    000FEC2752B15A15 000FEC42049DAFD3 000FEC5BFD29F196 000FEC75406CEEF4 000FEC8DD2500CB4
    000FECA5B6911F12 000FECBCF0C427FE 000FECD38454FB15 000FECE97488C8B3 000FECFEC47F91B7
    000FED1377358528 000FED278F844903 000FED3B10242F4C 000FED4DFBAD586E 000FED605498C3DD
    000FED721D414FE8 000FED8357E4A982 000FED9406A42CC8 000FEDA42B85B704 000FEDB3C8746AB4
    000FEDC2DF416652 000FEDD171A46E52 000FEDDF813C8AD3 000FEDED0F909980 000FEDFA1E0FD414
    000FEE06AE124BC4 000FEE12C0D95A06 000FEE1E579006E0 000FEE29734B6524 000FEE34150AE4BC
    000FEE3E3DB89B3C 000FEE47EE2982F4 000FEE51271DB086 000FEE59E9407F41 000FEE623528B42E
    000FEE6A0B5897F1 000FEE716C3E077A 000FEE7858327B82 000FEE7ECF7B06BA 000FEE84D2484AB2
    000FEE8A60B66343 000FEE8F7ACCC851 000FEE94207E25DA 000FEE9851A829EA 000FEE9C0E13485C
    000FEE9F557273F4 000FEEA22762CCAE 000FEEA4836B42AC 000FEEA668FC2D71 000FEEA7D76ED6FA
    000FEEA8CE04FA0A 000FEEA94BE8333B 000FEEA950296410 000FEEA8D9C0075E 000FEEA7E7897654
    000FEEA678481D24 000FEEA48AA29E83 000FEEA21D22E4DA 000FEE9F2E352024 000FEE9BBC26AF2E
    000FEE97C524F2E4 000FEE93473C0A3A 000FEE8E40557516 000FEE88AE369C7A 000FEE828E7F3DFD
    000FEE7BDEA7B888 000FEE749BFF37FF 000FEE6CC3A9BD5E 000FEE64529E007E 000FEE5B45A32888
    000FEE51994E57B6 000FEE474A0006CF 000FEE3C53E12C50 000FEE30B2E02AD8 000FEE2462AD8205
    000FEE175EB83C5A 000FEE09A22A1447 000FEDFB27E349CC 000FEDEBEA76216C 000FEDDBE422047E
    000FEDCB0ECE39D3 000FEDB964042CF4 000FEDA6DCE938C9 000FED937237E98D 000FED7F1C38A836
    000FED69D2B9C02B 000FED538D06AE00 000FED3C41DEA422 000FED23E76A2FD8 000FED0A732FE644
    000FECEFDA07FE34 000FECD4100EB7B8 000FECB708956EB4 000FEC98B61230C1 000FEC790A0DA978
    000FEC57F50F31FE 000FEC356686C962 000FEC114CB4B335 000FEBEB948E6FD0 000FEBC429A0B692
    000FEB9AF5EE0CDC 000FEB6FE1C98542 000FEB42D3AD1F9E 000FEB13B00B2D4B 000FEAE2591A02E9
    000FEAAEAE992257 000FEA788D8EE326 000FEA3FCFFD73E5 000FEA044C8DD9F6 000FE9C5D62F563B
    000FE9843BA947A4 000FE93F471D4728 000FE8F6BD76C5D6 000FE8AA5DC4E8E6 000FE859E07AB1EA
    000FE804F690A940 000FE7AB488233C0 000FE74C751F6AA5 000FE6E8102AA202 000FE67DA0B6ABD8
    000FE60C9F38307E 000FE5947338F742 000FE51470977280 000FE48BD436F458 000FE3F9BFFD1E37
    000FE35D35EEB19C 000FE2B5122FE4FE 000FE20003995557 000FE13C82788314 000FE068C4EE67B0
    000FDF82B02B71AA 000FDE87C57EFEAA 000FDD7509C63BFD 000FDC46E529BF13 000FDAF8F82E0282
    000FD985E1B2BA75 000FD7E6EF48CF04 000FD613ADBD650B 000FD40149E2F012 000FD1A1A7B4C7AC
    000FCEE204761F9E 000FCBA8D85E11B2 000FC7D26ECD2D22 000FC32B2F1E22ED 000FBD6581C0B83A
    000FB606C4005434 000FAC40582A2874 000F9E971E014598 000F89FA48A41DFC 000F66C5F7F0302C
    000F1A5A4B331C4A
    """.split()],
    dtype=np.uint64,
)
ZIGGURAT_WI: F64 = np.array(
    [float(value) for value in """
    8.683627060801306e-16 4.779330175727737e-17 6.354352417405262e-17 7.454870481247696e-17
    8.3293668157931e-17 9.068060405059482e-17 9.714860076567762e-17 1.0294750314241019e-16
    1.0823430288447684e-16 1.131147019610903e-16 1.176635945702292e-16 1.2193617278714363e-16
    1.2597439914637093e-16 1.2981099886264032e-16 1.3347203736824123e-16 1.3697864842571203e-16
    1.4034823001242382e-16 1.4359529452056943e-16 1.4673208742364422e-16 1.4976904668391037e-16
    1.5271515003596198e-16 1.5557818169460764e-16 1.5836494009290885e-16 1.6108140175274928e-16
    1.6373285203969853e-16 1.6632399058420835e-16 1.6885901708676596e-16 1.713417017655966e-16
    1.737754436586486e-16 1.7616331923000996e-16 1.7850812316976727e-16 1.8081240285799152e-16
    1.830784876482675e-16 1.853085138861802e-16 1.8750444639373882e-16 1.896680970077476e-16
    1.918011406483862e-16 1.9390512930625104e-16 1.9598150426628824e-16 1.9803160683128174e-16
    2.000566877627333e-16 2.0205791562071654e-16 2.0403638415480212e-16 2.0599311887403706e-16
    2.079290829041402e-16 2.0984518222370352e-16 2.1174227035760342e-16 2.1362115259449868e-16
    2.1548258978581458e-16 2.1732730177564367e-16 2.191559705042727e-16 2.2096924282235318e-16
    2.2276773304789553e-16 2.2455202529414355e-16 2.263226755928568e-16 2.280802138345017e-16
    2.2982514554424684e-16 2.3155795351040804e-16 2.3327909928004356e-16 2.3498902453470955e-16
    2.3668815235791604e-16 2.3837688840454243e-16 2.4005562198135063e-16 2.4172472704675025e-16
    2.433845631371103e-16 2.4503547622614954e-16 2.466777995232705e-16 2.4831185421610877e-16
    2.4993795016204524e-16 2.515563865329658e-16 2.5316745241713583e-16 2.547714273816944e-16
    2.563685819989397e-16 2.579591783392867e-16 2.5954347043351707e-16 2.6112170470670194e-16
    2.6269412038597256e-16 2.6426094988411895e-16 2.658224191608307e-16 2.6737874806323633e-16
    2.689301506472616e-16 2.704768354811995e-16 2.720190059327732e-16 2.735568604408679e-16
    2.7509059277301666e-16 2.7662039226963903e-16 2.781464440759544e-16 2.79668929362423e-16
    2.8118802553450207e-16 2.827039064324479e-16 2.842167425218406e-16 2.8572670107546015e-16
    2.87233946347098e-16 2.887386397378482e-16 2.9024093995538423e-16 2.9174100316669455e-16
    2.9323898314471816e-16 2.947350314092935e-16 2.9622929736280665e-16 2.977219284209029e-16
    2.992130701386013e-16 3.007028663321331e-16 3.0219145919680615e-16 3.036789894211802e-16
    3.051655962978219e-16 3.0665141783089545e-16 3.081365908408297e-16 3.0962125106629225e-16
    3.111055332636893e-16 3.125895713043999e-16 3.140734982699446e-16 3.1555744654528006e-16
    3.1704154791040285e-16 3.1852593363044065e-16 3.2001073454440114e-16 3.214960811527447e-16
    3.2298210370394156e-16 3.244689322801698e-16 3.2595669688230784e-16 3.2744552751437067e-16
    3.2893555426753697e-16 3.3042690740391284e-16 3.3191971744017523e-16 3.3341411523123725e-16
    3.3491023205407785e-16 3.364081996918765e-16 3.37908150518595e-16 3.394102175841489e-16
    3.409145347003126e-16 3.424212365275018e-16 3.4393045866258313e-16 3.454423377278584e-16
    3.4695701146137835e-16 3.4847461880874137e-16 3.499953000165381e-16 3.5151919672760744e-16
    3.53046452078274e-16 3.5457721079774357e-16 3.5611161930983884e-16 3.5764982583726505e-16
    3.59191980508603e-16 3.6073823546823514e-16 3.6228874498941915e-16 3.6384366559073444e-16
    3.65403156156137e-16 3.669673780588701e-16 3.685364952894914e-16 3.7011067458828983e-16
    3.716900855823823e-16 3.7327490092779435e-16 3.7486529645684887e-16 3.7646145133120287e-16
    3.7806354820089604e-16 3.7967177336979443e-16 3.8128631696783774e-16 3.829073731305243e-16
    3.8453514018609596e-16 3.8616982085091493e-16 3.878116224335587e-16 3.894607570481926e-16
    3.9111744183782054e-16 3.9278189920805415e-16 3.944543570720877e-16 3.9613504910761354e-16
    3.9782421502646826e-16 3.995221008578565e-16 4.012289592460629e-16 4.029450497636328e-16
    4.04670639241075e-16 4.0640600211422504e-16 4.0815142079049387e-16 4.0990718603532664e-16
    4.1167359738030257e-16 4.134509635544236e-16 4.1523960294026883e-16 4.170398440568316e-16
    4.1885202607101123e-16 4.206764993399015e-16 4.2251362598620494e-16 4.243637805093078e-16
    4.262273504347798e-16 4.2810473700531167e-16 4.2999635591638323e-16 4.3190263810026294e-16
    4.338240305622791e-16 4.357609972736849e-16 4.3771402012585875e-16 4.3968359995105214e-16
    4.4167025761542035e-16 4.4367453519065673e-16 4.456969972112043e-16 4.477382320247534e-16
    4.49798853244555e-16 4.518795013130059e-16 4.539808451870034e-16 4.561035841567422e-16
    4.582484498109567e-16 4.604162081631153e-16 4.626076619547846e-16 4.648236531543207e-16
    4.670650656712631e-16 4.693328283093329e-16 4.716279179838351e-16 4.739513632325867e-16
    4.763042480533137e-16 4.786877161048723e-16 4.811029753147417e-16 4.835513029411525e-16
    4.860340511450812e-16 4.885526531353603e-16 4.91108629959527e-16 4.937035980240335e-16
    4.963392774403987e-16 4.990175013091822e-16 5.017402260718089e-16 5.045095430818727e-16
    5.073276915733542e-16 5.101970732341562e-16 5.131202686306784e-16 5.161000557743228e-16
    5.191394311757699e-16 5.222416338000234e-16 5.254101724177597e-16 5.286488569504945e-16
    5.3196183453384e-16 5.353536311816497e-16 5.388292001334053e-16 5.423939782201712e-16
    5.46053951907478e-16 5.498157350892814e-16 5.536866612467876e-16 5.576748932926576e-16
    5.617895553555417e-16 5.660408920082422e-16 5.704404621291389e-16 5.750013768919895e-16
    5.797385945724594e-16 5.846692893455479e-16 5.898133176477899e-16 5.951938149641444e-16
    6.008379696271908e-16 6.067780409333449e-16 6.130527208725282e-16 6.197089894581626e-16
    6.268046963301284e-16 6.344122407127506e-16 6.426239659548055e-16 6.515603317344994e-16
    6.613827885097664e-16 6.723150462505587e-16 6.846803417564259e-16 6.98971833638762e-16
    7.159994934830664e-16 7.372424301798799e-16 7.658936370805573e-16 8.113849337656484e-16
    """.split()],
    dtype=np.float64,
)
