import hashlib
import random
from collections import Counter
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ardtk.bits import BitWord
from ardtk import codec
from ardtk.codec import (
    Codeword,
    MalformedCodewordError,
    compress,
    conditional_codelength,
    codelength,
    decompress,
)


def rt(w: BitWord) -> Codeword:
    cw = compress(w)
    assert decompress(cw) == w
    return cw


# -- round trips ------------------------------------------------------------


@given(st.binary(max_size=256), st.integers(0, 7))
@settings(max_examples=200, deadline=None)
def test_round_trip_random(data, trim):
    n = max(0, 8 * len(data) - trim)
    rt(BitWord.from_bytes(data + b"\x00", n))


def test_round_trip_structured():
    rng = random.Random(7)
    words = [
        BitWord.zeros(0),
        BitWord.from_str("1"),
        BitWord.zeros(1024),
        BitWord.ones(1024),
        BitWord.from_str("01" * 2048),
        BitWord.from_str("0011" * 1024),
        BitWord.random(rng, 4096),
        BitWord.random(rng, 37),
        BitWord.random(rng, 8 * 600),
    ]
    for w in words:
        rt(w)


def _sparse_word(rng: random.Random, n: int, density: float) -> BitWord:
    v = 0
    for i in range(n):
        if rng.random() < density:
            v |= 1 << i
    return BitWord(n, v)


def _multi_block_word() -> BitWord:
    """Two full BWT blocks and a partial third."""
    return _sparse_word(random.Random(3), 2 * codec.BWT_BLOCK_BITS + 14464, 1 / 32)


def test_round_trip_multi_block_bwt():
    # forced through MODE_BWT
    w = _multi_block_word()
    assert w.n == 80000
    cw = codec._encode_with_mode(w, codec.MODE_BWT)
    assert cw is not None
    assert decompress(cw) == w


def _forced_mode_cases() -> "dict[int, BitWord]":
    rng = random.Random(5)
    return {
        codec.MODE_RAW: BitWord.random(rng, 40),
        codec.MODE_BITAC: BitWord.zeros(200),
        codec.MODE_BWT: BitWord.from_str("0011010" * 100),
        codec.MODE_LZ: BitWord.from_str("10110100" * 64),
    }


def test_every_method_round_trips():
    # force each container method through its own encode/decode pair
    for mode, w in _forced_mode_cases().items():
        cw = codec._encode_with_mode(w, mode)
        assert cw is not None
        assert decompress(cw) == w


# -- pinned output -----------------------------------------------------------


def _pinned_batch() -> "list[BitWord]":
    """Random, sparse, periodic and repeated-chunk words of 0..5000 bits."""
    rng = random.Random(20241018)
    lengths = [0, 1, 2, 7, 8, 9, 63, 64, 65, 255, 256, 257, 1023, 1024, 1025, 4096, 5000]
    lengths += [rng.randint(0, 5000) for _ in range(7)]
    words = []
    for n in lengths:
        words.append(BitWord.random(rng, n))
        words.append(_sparse_word(rng, n, 1 / 32))
        period = BitWord.random(rng, rng.randint(1, 40)).to01()
        words.append(BitWord.from_str((period * (n // len(period) + 1))[:n]))
        chunk = BitWord.random(rng, rng.randint(8, 300)).to01()
        s = "".join(
            chunk if rng.random() < 0.7 else BitWord.random(rng, len(chunk)).to01()
            for _ in range(n // len(chunk) + 1)
        )
        words.append(BitWord.from_str(s[:n]))
    return words


# sha256 over every (word, mode) encoding of _pinned_batch; any change to
# the codec's output, in any method, shows up here
PINNED_CODEC_DIGEST = "baf4fe3c95ec7627c5f38ed287c025d328cc6332171784a2f33b29388a9c7b65"


def test_codec_output_pinned():
    h = hashlib.sha256()
    for w in _pinned_batch():
        for mode in (codec.MODE_RAW, codec.MODE_BITAC, codec.MODE_BWT, codec.MODE_LZ):
            cw = codec._encode_with_mode(w, mode)
            h.update(f"{w.n}:{mode}:".encode())
            h.update(b"-" if cw is None else f"{cw.bit_length}:".encode() + cw.data)
    assert h.hexdigest() == PINNED_CODEC_DIGEST


def _bwt_block_symbols(block: bytes) -> int:
    last, _ = codec._bwt_encode(block)
    return len(codec._zle_encode(codec._mtf_encode(last)))


# sha256 over the MODE_BWT encodings of sparse words whose blocks run past
# _ZLE_FREE symbols, so the model halves its counts; computed before the
# model became a count list
PINNED_RESCALE_DIGEST = "b34d92b3ada7ed1d6a91d5bd42f770b4be8b3c47f333c404a52df58d6600d867"


def test_bwt_rescale_output_pinned():
    rng = random.Random(0)
    words = [_sparse_word(rng, codec.BWT_BLOCK_BITS, d) for d in (1 / 8, 1 / 16, 1 / 32)]
    for w in words:
        assert _bwt_block_symbols(w.to_bytes()) > codec._ZLE_FREE
    words.append(_multi_block_word())
    h = hashlib.sha256()
    for w in words:
        cw = codec._encode_with_mode(w, codec.MODE_BWT)
        h.update(f"{w.n}:".encode())
        h.update(b"-" if cw is None else f"{cw.bit_length}:".encode() + cw.data)
    assert h.hexdigest() == PINNED_RESCALE_DIGEST


def test_bwt_mtf_zle_stages():
    rng = random.Random(11)
    for trial in range(50):
        data = bytes(rng.randrange(256) for _ in range(rng.randint(1, 200)))
        last, idx = codec._bwt_encode(data)
        assert codec._bwt_decode(last, idx) == data
        mtf = codec._mtf_encode(data)
        assert bytes(codec._mtf_decode(mtf)) == data
        syms = codec._zle_encode(mtf)
        assert codec._zle_decode(syms, len(mtf)) == mtf
    # periodic input: all rotations collide
    data = b"\xaa" * 32
    last, idx = codec._bwt_encode(data)
    assert codec._bwt_decode(last, idx) == data


# -- codelength contracts ----------------------------------------------------


def test_empty_word_codelength():
    assert codelength(BitWord.zeros(0)) <= 16


def test_all_zero_kilobit_codelength():
    assert codelength(BitWord.zeros(1024)) <= 128


def test_overhead_exhaustive_12():
    for v in range(1 << 12):
        assert codelength(BitWord(12, v)) <= 12 + 64


def test_overhead_sampled_large():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(0, 4096)
        assert codelength(BitWord.random(rng, n)) <= n + 64


def test_determinism():
    rng = random.Random(17)
    w = BitWord.random(rng, 777)
    assert compress(w) == compress(w)
    codec.clear_cache()
    assert codelength(w) == codelength(w)


def test_counting_invariant_small():
    # fewer than 2^l words may compress below l bits, for every l <= 12
    lens = sorted(codelength(BitWord(12, v)) for v in range(1 << 12))
    for l in range(13):
        below = sum(1 for L in lens if L < l)
        assert below < (1 << l)


def _periodic_word(rng: random.Random, n: int) -> BitWord:
    period = BitWord.random(rng, rng.randint(1, 40)).to01()
    w = BitWord.from_str((period * (n // len(period) + 1))[:n])
    for _ in range(rng.randint(0, 8) if n else 0):
        w = w.flip(rng.randrange(n))
    return w


def _repeated_chunk_word(rng: random.Random, n: int) -> BitWord:
    base = BitWord.random(rng, 1024).to01()
    s = ""
    while len(s) < n:
        start = rng.randrange(1024 - 64)
        s += base[start : start + rng.randint(8, 1024 - start)]
    return BitWord.from_str(s[:n])


_WORD_KINDS = {
    "uniform": BitWord.random,
    "sparse": lambda rng, n: _sparse_word(rng, n, rng.choice([1 / 256, 1 / 32, 1 / 8])),
    "periodic": _periodic_word,
    "repeats": _repeated_chunk_word,
}


def _shortest_written(w: BitWord) -> Codeword:
    """The shortest codeword over every eligible method, each written in
    full with no floor, ties to the smaller tag."""
    found = []
    for mode in codec._methods(w.n):
        cw = codec._encode_with_mode(w, mode)
        if cw is not None:
            found.append((cw.bit_length, mode, cw))
    return min(found)[2]


def test_codelength_equals_compress():
    # the oracle from a cold cache on every word of up to 16 bits, then
    # compress against every codeword written in full on drawn words up to
    # 32768 bits, so that BWT both wins and is cut off by its floor
    codec.clear_cache()
    for n in range(17):
        for v in range(1 << n):
            w = BitWord(n, v)
            assert codelength(w) == compress(w).bit_length, w
    codec.clear_cache()

    @given(
        st.sampled_from(sorted(_WORD_KINDS)),
        st.one_of(st.integers(0, 1100), st.integers(0, 32768)),
        st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    @example("periodic", 32768, 1)
    @example("sparse", 20000, 2)
    @example("uniform", 4096, 3)
    @example("repeats", 8192, 4)
    def check(kind, n, seed):
        w = _WORD_KINDS[kind](random.Random(seed), n)
        cw = compress(w)
        assert cw == _shortest_written(w)
        assert codelength(w) == cw.bit_length

    check()


# -- the batch length table ---------------------------------------------------


def test_length_table_equals_compress_exhaustive():
    for n in range(1, 17):
        table = codec.length_table(n)
        assert table.dtype == np.int64 and table.shape == (1 << n,)
        for v in range(1 << n):
            assert table[v] == compress(BitWord(n, v)).bit_length, (n, v)


def test_length_table_equals_compress_drawn():
    rng = random.Random(20)
    for n in range(17, 21):
        table = codec.length_table(n)
        for _ in range(2000):
            v = rng.getrandbits(n)
            assert table[v] == compress(BitWord(n, v)).bit_length, (n, v)


@pytest.mark.parametrize("n", [0, 21, -1])
def test_length_table_domain(n):
    with pytest.raises(ValueError, match="length_table"):
        codec.length_table(n)


# -- bitac resumption ---------------------------------------------------------
#
# A bitac word longer than 64 bits resumes from a checkpoint of a recently
# coded word; every codeword must equal the one coded from a cold start.

_RESUME_LENGTHS = (63, 64, 65, 127, 128, 129, 1000, 1023, 1024)


def _near_checkpoints(n: int) -> "list[int]":
    """Bits 64k - 1, 64k and 64k + 1 of an n-bit word, for every k."""
    return sorted({p for k in range(1, n // 64 + 1)
                   for p in (64 * k - 1, 64 * k, 64 * k + 1) if p < n})


def _cold_codewords(words) -> list:
    """(bitac codeword, compress codeword) of each word, each from a
    cleared cache."""
    out = []
    for w in words:
        codec.clear_cache()
        out.append((codec._encode_with_mode(w, codec.MODE_BITAC), compress(w)))
    codec.clear_cache()
    return out


def _check_warm(words):
    cold = _cold_codewords(words)
    for w, (bitac, best) in zip(words, cold):
        assert codec._encode_with_mode(w, codec.MODE_BITAC) == bitac, w
        assert compress(w) == best, w
        assert codelength(w) == best.bit_length
        assert decompress(best) == w
        assert decompress(bitac) == w


@st.composite
def _word_streams(draw):
    """Words of one or two lengths, each a few flips from the last word of
    its length; a step with no flips codes the same word again."""
    lengths = draw(st.lists(st.sampled_from(_RESUME_LENGTHS), min_size=1,
                            max_size=2, unique=True))
    density = draw(st.sampled_from([1 / 32, 1 / 8, 1 / 2]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    last = {n: _sparse_word(rng, n, density) for n in lengths}
    words = list(last.values())
    for _ in range(draw(st.integers(1, 12))):
        n = draw(st.sampled_from(lengths))
        flips = st.one_of(st.sampled_from(_near_checkpoints(n) or [0]),
                          st.integers(0, n - 1))
        w = last[n]
        for i in draw(st.lists(flips, max_size=3)):
            w = w.flip(i)
        last[n] = w
        words.append(w)
    return words


@given(_word_streams())
@settings(max_examples=120, deadline=None)
def test_bitac_resume_matches_cold(words):
    _check_warm(words)


@pytest.mark.parametrize("n", _RESUME_LENGTHS)
def test_bitac_resume_flips_near_checkpoints(n):
    base = _sparse_word(random.Random(n), n, 1 / 8)
    words = [base]
    for i in _near_checkpoints(n) + [0, n - 1]:
        words += [base.flip(i), base]
    _check_warm(words)


def test_bitac_resume_keeps_lengths_apart():
    # the values of these words share their leading zeros across lengths
    _check_warm([BitWord(n, v) for v in (1, 5) for n in (1024, 1000, 129, 128, 65)])


def test_bitac_resume_same_word_twice():
    # compress and then codelength on one word, as a round trip does
    w = _sparse_word(random.Random(5), 1024, 1 / 16)
    codec.clear_cache()
    cw = compress(w)
    assert codelength(w) == cw.bit_length
    assert compress(w) == cw
    assert decompress(cw) == w


def test_bitac_recent_list_is_bounded_and_cleared():
    rng = random.Random(9)
    codec.clear_cache()
    compress(BitWord.random(rng, 64))
    assert codec._bitac_recent == []  # short words keep no checkpoints
    for n in (65, 1024, 1024, 500, 700, 900):
        compress(BitWord.random(rng, n))
    assert len(codec._bitac_recent) == codec._BITAC_KEEP
    for n, _, checkpoints in codec._bitac_recent:
        assert len(checkpoints) == (n - 1) // 64
    codec.clear_cache()
    assert codec._bitac_recent == []


def _renormalise_by_bits(low: int, high: int, pending: int, out):
    """The classic coder's renormalisation, one shift per loop."""
    half, quarter, mask = codec._HALF, codec._QUARTER, codec._MASK
    while True:
        if high < half:
            out.write_bits((1 << pending) - 1, pending + 1)
            pending = 0
        elif low >= half:
            out.write_bits(1 << pending, pending + 1)
            pending = 0
            low -= half
            high -= half
        elif low >= quarter and high < half + quarter:
            pending += 1
            low -= quarter
            high -= quarter
        else:
            break
        low = (low << 1) & mask
        high = ((high << 1) | 1) & mask
    return low, high, pending


@st.composite
def _coder_states(draw):
    """(low, high, pending) with low < high: a shared prefix of any length,
    then any number of underflow bits, then arbitrary tails."""
    prec = codec.CODER_PRECISION
    k = draw(st.integers(0, prec - 1))
    u = draw(st.integers(0, prec - 1 - k))
    rest = prec - k - 1 - u
    prefix = draw(st.integers(0, (1 << k) - 1))
    low_tail = draw(st.integers(0, (1 << rest) - 1))
    high_tail = draw(st.integers(0, (1 << rest) - 1))
    low = (((prefix << 1) << u | ((1 << u) - 1)) << rest) | low_tail
    high = (((prefix << 1 | 1) << u) << rest) | high_tail
    return low, high, draw(st.integers(0, 40))


@given(_coder_states())
@settings(max_examples=500, deadline=None)
def test_renormalise_matches_bit_loop(state):
    fast, slow = codec._BitWriter(), codec._BitWriter()
    assert codec._renormalise(*state, fast) == _renormalise_by_bits(*state, slow)
    assert fast.getvalue() == slow.getvalue()


def _consume_by_bits(low: int, high: int, code: int, inp):
    """The classic decoder's renormalisation, one shift and one read per
    loop."""
    half, quarter, mask = codec._HALF, codec._QUARTER, codec._MASK
    while True:
        if high < half:
            pass
        elif low >= half:
            low -= half
            high -= half
            code -= half
        elif low >= quarter and high < half + quarter:
            low -= quarter
            high -= quarter
            code -= quarter
        else:
            break
        low = (low << 1) & mask
        high = ((high << 1) | 1) & mask
        code = ((code << 1) | inp.read_bits(1)) & mask
    return low, high, code


@given(_coder_states(), st.data(), st.binary(max_size=12), st.integers(1, 1 << 16))
@settings(max_examples=500, deadline=None)
def test_consume_matches_bit_loop(state, data, stream, total):
    # consume(0, total, total) keeps the interval and only renormalises
    low, high, _ = state
    code = data.draw(st.integers(low, high))
    nbits = data.draw(st.integers(0, 8 * len(stream)))
    dec = codec._ArithmeticDecoder(codec._BitReader(stream, nbits))
    dec.low, dec.high, dec.code = low, high, code
    dec.inp.pos = 0
    dec.consume(0, total, total)
    slow = codec._BitReader(stream, nbits)
    assert (dec.low, dec.high, dec.code) == _consume_by_bits(low, high, code, slow)
    assert dec.inp.pos == slow.pos


@given(
    st.integers(0, 3000),
    st.integers(1, codec._ZLE_ALPHABET),
    st.floats(0, 3),
    st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
@example(codec._ZLE_FREE, 2, 1.0, 0)
@example(codec._ZLE_FREE + 1, 2, 1.0, 0)
def test_bwt_floor_bounds_coded_bits(count, alphabet, skew, seed):
    # zero-run symbol sequences from a Zipf-like law over a random alphabet
    rng = random.Random(seed)
    order = rng.sample(range(codec._ZLE_ALPHABET), alphabet)
    weights = [1 / (i + 1) ** skew for i in range(alphabet)]
    syms = rng.choices(order, weights, k=count)
    out = codec._BitWriter()
    codec._encode_zle(syms, out)
    floor = codec._zle_floor(Counter(syms), count)
    if count > codec._ZLE_FREE:
        assert floor == 0
    else:
        # the proof in the module docstring bounds the gap from both sides
        assert floor <= out.bit_length <= floor + 3


# -- conditional codelength ---------------------------------------------------


def test_conditional_self_is_cheap():
    rng = random.Random(19)
    x = BitWord.random(rng, 4096)
    assert conditional_codelength(x, x) <= 64


def test_conditional_upper_clamp():
    rng = random.Random(23)
    for _ in range(20):
        x = BitWord.random(rng, rng.randint(0, 512))
        y = BitWord.random(rng, rng.randint(0, 512))
        assert conditional_codelength(x, y) <= codelength(x) + 16
        assert conditional_codelength(x, y) >= 0


def test_conditional_empty_cases():
    rng = random.Random(29)
    y = BitWord.random(rng, 300)
    assert conditional_codelength(BitWord.zeros(0), y) <= 16
    x = BitWord.random(rng, 300)
    got = conditional_codelength(x, BitWord.zeros(0))
    assert abs(got - codelength(x)) <= 16


# -- structural validation -----------------------------------------------------


def test_malformed_truncated():
    w = BitWord.random(random.Random(31), 200)
    cw = compress(w)
    with pytest.raises(MalformedCodewordError):
        decompress(Codeword(cw.data[:1], 8))


def test_malformed_bad_mode_length():
    # bitac with n = 0 is never produced by compress
    bad = Codeword(bytes([0b01_000000, 0]), 16)
    with pytest.raises(MalformedCodewordError):
        decompress(bad)


def test_malformed_bad_lz_distance():
    from ardtk.codec import _BitWriter

    out = _BitWriter()
    out.write_bits(codec.MODE_LZ, 2)
    out.write_leb(64)
    out.write_leb(0)  # no literals
    out.write_leb(0)  # match length 4
    out.write_leb(5)  # distance beyond produced output
    data, nbits = out.getvalue()
    with pytest.raises(MalformedCodewordError):
        decompress(Codeword(data, nbits))


def _bwt_block_codeword(syms) -> Codeword:
    """A BWT codeword for 256 bits: one 32-byte block, index 0, whose
    zero-run symbols are syms."""
    out = codec._BitWriter()
    out.write_bits(codec.MODE_BWT, 2)
    out.write_leb(256)
    out.write_leb(0)  # BWT index
    out.write_leb(len(syms))
    codec._encode_zle(syms, out)
    return Codeword(*out.getvalue())


def test_malformed_huge_zero_run():
    # 32 RUNB digits, as many symbols as the block may hold: a zero run of
    # 2 * (2^32 - 1) bytes, rejected before it is allocated
    with pytest.raises(MalformedCodewordError, match="zero run overflows block"):
        decompress(_bwt_block_codeword([codec._ZLE_RUNB] * 32))


def test_malformed_bwt_symbol_count():
    # 33 literals in a 32-byte block: no valid block has more symbols
    # than bytes
    with pytest.raises(MalformedCodewordError, match="implausible symbol count"):
        decompress(_bwt_block_codeword([2] * 33))


def test_codeword_header_field():
    w = BitWord.random(random.Random(37), 130)
    assert compress(w).original_length == 130


def _lz_run_codeword(n: int) -> Codeword:
    """An LZ codeword for n bits: one literal byte, then one match that
    repeats it to the end."""
    out = codec._BitWriter()
    out.write_bits(codec.MODE_LZ, 2)
    out.write_leb(n)
    out.write_leb(1)
    out.write_bits(0xA5, 8)
    out.write_leb((n + 7) // 8 - 1 - 4)
    out.write_leb(1)
    return Codeword(*out.getvalue())


def test_word_length_cap():
    with pytest.raises(ValueError):
        compress(BitWord(codec.MAX_WORD_BITS + 1, 0))
    assert decompress(_lz_run_codeword(codec.MAX_WORD_BITS)).n == codec.MAX_WORD_BITS
    for n in (codec.MAX_WORD_BITS + 8, 1 << 40):
        with pytest.raises(MalformedCodewordError):
            decompress(_lz_run_codeword(n))


# -- decoder fuzz ------------------------------------------------------------


_FUZZ_BASES = [
    codec._encode_with_mode(w, mode) for mode, w in _forced_mode_cases().items()
]


@st.composite
def _mangled_codewords(draw) -> Codeword:
    kind = draw(st.sampled_from(["flip", "truncate", "random", "header"]))
    if kind == "random":
        data = draw(st.binary(min_size=1, max_size=200))
        return Codeword(data, 8 * len(data) - draw(st.integers(0, 7)))
    if kind == "header":
        # a declared length anywhere up to far past the cap, then anything
        out = codec._BitWriter()
        out.write_bits(draw(st.integers(0, 3)), 2)
        out.write_leb(draw(st.one_of(
            st.integers(0, 1 << 16),
            st.integers(codec.MAX_WORD_BITS - 64, codec.MAX_WORD_BITS + 64),
            st.integers(0, 1 << 62),
        )))
        tail = draw(st.binary(max_size=64))
        out.write_bits(int.from_bytes(tail, "big"), 8 * len(tail))
        return Codeword(*out.getvalue())
    base = draw(st.sampled_from(_FUZZ_BASES))
    if kind == "truncate":
        nbits = draw(st.integers(0, base.bit_length - 1))
        head = int.from_bytes(base.data, "big") >> (8 * len(base.data) - nbits)
        return Codeword((head << (-nbits % 8)).to_bytes((nbits + 7) // 8, "big"), nbits)
    data = bytearray(base.data)
    for pos in draw(st.lists(st.integers(0, base.bit_length - 1), min_size=1, max_size=8)):
        data[pos >> 3] ^= 0x80 >> (pos & 7)
    return Codeword(bytes(data), base.bit_length)


@given(_mangled_codewords())
@settings(max_examples=400, deadline=timedelta(seconds=5))
def test_decoder_total(cw):
    try:
        out = decompress(cw)
    except MalformedCodewordError:
        return
    assert isinstance(out, BitWord)
