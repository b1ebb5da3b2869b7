import hashlib
import random
from collections import Counter
from datetime import timedelta
from fractions import Fraction
from math import ceil, inf, lgamma, log

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ardtk.bits import BitWord
from ardtk import codec, rdsearch
from ardtk.denoise import default_denoise_levels, make_noisy_cross
from ardtk.distortion import HAMMING, DistortionSpec
from ardtk.rdsearch import distortion_rate_curve
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
        BitWord(1024, (1 << 1024) - 1),
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
# the codec's output, in any method, shows up here.  MODE_BWT is written
# in full below its 256-bit cutoff too, where compress never runs it.
PINNED_CODEC_DIGEST = "ed34aedeeafa6bec2c6f5139755f78a823228a9fc3c47c02129595c7f77f9aca"


def test_codec_output_pinned():
    h = hashlib.sha256()
    for w in _pinned_batch():
        for mode in (codec.MODE_RAW, codec.MODE_BITAC, codec.MODE_BWT, codec.MODE_LZ):
            cw = codec._encode_with_mode(w, mode)
            h.update(f"{w.n}:{mode}:".encode())
            h.update(b"-" if cw is None else f"{cw.bit_length}:".encode() + cw.data)
    assert h.hexdigest() == PINNED_CODEC_DIGEST


def _bwt_block_symbols(block: bytes) -> int:
    return len(codec._bwt_symbols(block)[0])


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


def _slice_order(block: bytes) -> "list[int]":
    """The reference block sort: the rotations of block in sorted order,
    identical rotations by index, each compared as a slice of the doubled
    block."""
    n = len(block)
    doubled = block + block
    return sorted(range(n), key=lambda i: doubled[i : i + n])


def _bwt_last(block: bytes) -> bytes:
    """The last column of block's BWT, from the reference sort."""
    return bytes(block[i - 1] for i in _slice_order(block))


def _symbols_to_last(syms, n: int) -> bytes:
    return bytes(codec._zero_run_bytes(syms, n))


def _ref_zle_decode(syms, limit: int) -> bytearray:
    """The reference zero-run stage: runs become 0 bytes, literal s the
    move-to-front index s - 1."""
    out = bytearray()
    run = 0
    place = 1

    def flush():
        if len(out) + run > limit:
            raise codec.MalformedCodewordError("zero run overflows block")
        out.extend(b"\x00" * run)

    for s in syms:
        if s in (codec._ZLE_RUNA, codec._ZLE_RUNB):
            run += place * (1 + s)
            place <<= 1
            continue
        if run:
            flush()
            run = 0
            place = 1
        if s - 1 > 255:
            raise codec.MalformedCodewordError("bad zero-run literal")
        out.append(s - 1)
    if run:
        flush()
    return out


def _ref_mtf_decode(seq) -> bytearray:
    """The reference move-to-front decoder."""
    order = bytearray(range(256))
    out = bytearray()
    for i in seq:
        b = order[i]
        out.append(b)
        if i:
            del order[i]
            order.insert(0, b)
    return out


def _ref_bwt_decode(last: bytes, idx: int) -> bytes:
    """The reference inverse BWT, with the row links built by counting."""
    n = len(last)
    if not 0 <= idx < n:
        raise codec.MalformedCodewordError("BWT index out of range")
    counts = [0] * 256
    for b in last:
        counts[b] += 1
    starts, s = [], 0
    for c in counts:
        starts.append(s)
        s += c
    nxt, seen = [0] * n, [0] * 256
    for i, b in enumerate(last):
        nxt[starts[b] + seen[b]] = i
        seen[b] += 1
    out, j = bytearray(n), idx
    for i in range(n):
        j = nxt[j]
        out[i] = last[j]
    return bytes(out)


def _decoded_or_refused(fn, *args):
    try:
        return bytes(fn(*args))
    except codec.MalformedCodewordError:
        return "refused"


@given(
    st.lists(st.one_of(st.integers(0, 1), st.integers(0, 300)), max_size=60),
    st.integers(0, 400),
)
@settings(max_examples=300, deadline=None)
@example([0] * 12, 4095)      # a run of 4095 bytes, at the limit
@example([0] * 12, 4094)      # one byte past it
@example([3, 0, 1, 257], 10)  # literal 257 after a run
@example([256, 1, 2, 2, 0], 5)
def test_zero_run_bytes_matches_the_two_stage_reference(syms, limit):
    want = _decoded_or_refused(lambda: _ref_mtf_decode(_ref_zle_decode(syms, limit)))
    assert _decoded_or_refused(codec._zero_run_bytes, syms, limit) == want


@given(st.binary(max_size=300), st.integers(-2, 302))
@settings(max_examples=200, deadline=None)
@example(b"", 0)
@example(b"\x05" * 40, 39)
def test_bwt_decode_matches_the_counting_reference(last, idx):
    got = _decoded_or_refused(codec._bwt_decode, last, idx)
    assert got == _decoded_or_refused(_ref_bwt_decode, last, idx)


def test_bwt_mtf_zle_stages():
    rng = random.Random(11)
    for trial in range(50):
        data = bytes(rng.randrange(256) for _ in range(rng.randint(1, 200)))
        syms, idx = codec._bwt_symbols(data)
        last = _symbols_to_last(syms, len(data))
        assert last == _bwt_last(data)
        assert codec._bwt_decode(last, idx) == data
    # periodic input: all rotations collide
    data = b"\xaa" * 32
    syms, idx = codec._bwt_symbols(data)
    assert codec._bwt_decode(_symbols_to_last(syms, 32), idx) == data


@st.composite
def _sort_blocks(draw) -> bytes:
    """Blocks of 1 to 4096 bytes: drawn bytes, sparse bytes, constant and
    periodic blocks, and one byte before a zero run."""
    edge = codec._BWT_DOUBLING_MIN
    n = draw(st.one_of(
        st.integers(1, 4096),
        st.sampled_from([1, 2, 127, 128, 129, edge - 1, edge, edge + 1, 4096]),
    ))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["bytes", "sparse", "constant", "periodic", "zero run"]))
    if kind == "bytes":
        return rng.randbytes(n)
    if kind == "sparse":
        return bytes(rng.randrange(256) if rng.random() < 1 / 16 else 0 for _ in range(n))
    if kind == "constant":
        return bytes([rng.randrange(256)]) * n
    if kind == "periodic":
        period = rng.randbytes(rng.randint(1, 12))
        return (period * n)[:n]
    return bytes([rng.randrange(1, 256)]) + bytes(n - 1)


@given(_sort_blocks())
@settings(max_examples=150, deadline=None)
@example(bytes(range(128)))
@example(bytes(range(255, 127, -1)))
@example(b"\xff" + bytes(127))
@example(b"\x01" + bytes(4095))
@example(b"\xaa\x55" * 2048)
def test_bwt_doubling_sort_matches_slice_sort(block):
    # the slice sort is the reference; identical rotations keep index order
    order = _slice_order(block)
    assert list(codec._bwt_order_doubling(block)) == order
    assert list(codec._bwt_order_rows(block)) == order
    syms, idx = codec._bwt_symbols(block)
    last = _symbols_to_last(syms, len(block))
    assert (last, idx) == (bytes(block[i - 1] for i in order), order.index(0))
    assert codec._bwt_decode(last, idx) == block


@given(_sort_blocks())
@settings(max_examples=100, deadline=None)
@example(bytes(300))
@example(b"\x07" * 300)
@example(b"\x07" * 600)
def test_bwt_symbols_give_back_the_last_column(block):
    syms, _ = codec._bwt_symbols(block)
    assert _symbols_to_last(syms, len(block)) == _bwt_last(block)


@given(st.binary(max_size=700))
@settings(max_examples=150, deadline=None)
@example(b"\x00")
@example(bytes(5) + b"\x03\x03\x00")
@example(b"\x00\x01\x00\x00\x00\x01")
def test_zero_run_symbols_invert(last):
    # a last column that starts with 0 opens with a zero run
    syms = codec._zero_run_symbols(last)
    assert _symbols_to_last(syms, len(last)) == last
    if last[:1] == b"\x00":
        assert syms[0] in (codec._ZLE_RUNA, codec._ZLE_RUNB)


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


def _one_segment_floor(hist: Counter, count: int) -> int:
    """The floor's closed form for a block the model codes without a
    rescale: a Polya urn from prior weight 1/32 per symbol."""
    alpha, prior = 1 / codec._ZLE_INC, codec._ZLE_ALPHABET / codec._ZLE_INC
    nats = lgamma(count + prior) - lgamma(prior) - sum(
        lgamma(k + alpha) - lgamma(alpha) for k in hist.values()
    )
    return ceil(nats / log(2) - 3) + 2


@given(
    st.integers(0, 8192),
    st.integers(1, codec._ZLE_ALPHABET),
    st.floats(0, 3),
    st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
@example(codec._ZLE_FREE - 1, 2, 1.0, 0)
@example(codec._ZLE_FREE, 2, 1.0, 0)
@example(codec._ZLE_FREE + 1, 2, 1.0, 0)
@example(codec._ZLE_FREE + 1, codec._ZLE_ALPHABET, 0.0, 1)
@example(2 * codec._ZLE_FREE + 1, 40, 1.5, 2)
@example(8192, codec._ZLE_ALPHABET, 0.0, 3)
def test_bwt_floor_bounds_coded_bits(count, alphabet, skew, seed):
    # zero-run symbol sequences from a Zipf-like law over a random alphabet
    rng = random.Random(seed)
    order = rng.sample(range(codec._ZLE_ALPHABET), alphabet)
    weights = [1 / (i + 1) ** skew for i in range(alphabet)]
    syms = rng.choices(order, weights, k=count)
    out = codec._BitWriter()
    codec._encode_zle(syms, out)
    hist = Counter(syms)
    floor = codec._zle_floor(syms, hist)
    if count <= codec._ZLE_FREE:
        assert floor == _one_segment_floor(hist, count)
    # the proof in the module docstring bounds the gap from both sides,
    # through the model's rescales too
    assert floor <= out.bit_length <= floor + 3


def test_bwt_declines_long_losers():
    # each word is one 32768-bit block of more than _ZLE_FREE symbols,
    # held to the length of the method that beats BWT on it
    for kind, rival in (("uniform", codec.MODE_RAW), ("repeats", codec.MODE_LZ)):
        w = _WORD_KINDS[kind](random.Random(0), codec.BWT_BLOCK_BITS)
        assert _bwt_block_symbols(w.to_bytes()) > codec._ZLE_FREE
        bound = codec._encode_with_mode(w, rival).bit_length
        assert codec._encode_with_mode(w, codec.MODE_BWT).bit_length >= bound
        assert not codec._encode(w, codec.MODE_BWT, codec._BitWriter(), bound), kind


@given(
    st.sampled_from(sorted(_WORD_KINDS)),
    st.integers(64, 4096),
    st.integers(0, 2**32),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_lz_bound_declines_only_losers(kind, n, seed, data):
    w = _WORD_KINDS[kind](random.Random(seed), n)
    full = codec._encode_with_mode(w, codec.MODE_LZ)
    length = full.bit_length
    for bound in (length, length + 1, data.draw(st.integers(0, length + 64))):
        out = codec._BitWriter()
        if codec._encode(w, codec.MODE_LZ, out, bound):
            assert Codeword(*out.getvalue()) == full
        else:
            assert length >= bound


# -- bounded oracle -----------------------------------------------------------


def _bitac_floor_words():
    """Every word of up to 12 bits, then drawn words, constants and the
    alternating word at lengths around the checkpoint steps and the
    bitac cutoff."""
    for n in range(1, 13):
        for v in range(1 << n):
            yield BitWord(n, v)
    rng = random.Random(14)
    for n in (13, 63, 64, 65, 255, 1000, 1023, 1024):
        yield from (BitWord.zeros(n), BitWord(n, (1 << n) - 1), BitWord.from_str(("01" * n)[:n]))
        for kind in sorted(_WORD_KINDS):
            for _ in range(6):
                yield _WORD_KINDS[kind](rng, n)


def test_bitac_floor_bounds_codeword():
    for w in _bitac_floor_words():
        floor = codec._bitac_floor(w)
        assert floor <= codec._encode_with_mode(w, codec.MODE_BITAC).bit_length <= floor + 2, w


@pytest.mark.parametrize("kind", sorted(_WORD_KINDS))
@pytest.mark.parametrize("n", [12, 64, 256, 1024, 1025, 4096, 32768])
def test_codelength_below_contract(kind, n):
    w = _WORD_KINDS[kind](random.Random(n), n)
    exact = compress(w).bit_length
    for below in (0, 1, exact - 1, exact, exact + 1, 1 << 30):
        codec.clear_cache()
        got = codelength(w, below)
        if exact < below:
            assert got == exact, below
        else:
            assert got >= below, below


@pytest.mark.parametrize("kind", sorted(_WORD_KINDS))
@pytest.mark.parametrize("n", [256, 1024, 4096])
def test_codelength_below_contract_on_a_warm_cache(kind, n):
    # exact lengths the oracle remembers answer later bounds
    w = _WORD_KINDS[kind](random.Random(n + 1), n)
    exact = compress(w).bit_length
    rng = random.Random(n)
    descending = [exact, exact - 1, exact - 9, exact // 2, 1, 0]
    drawn = [rng.randint(0, exact + 16) for _ in range(16)]
    codec.clear_cache()
    for below in descending + drawn + [exact, None]:
        got = codelength(w, below)
        if below is None or exact < below:
            assert got == exact, below
        else:
            assert got >= below, below


def test_codelength_below_zero_on_a_cold_cache():
    # a refusal under 0 says nothing and must not read as a length later
    w = BitWord.random(random.Random(47), 1024)
    exact = compress(w).bit_length
    codec.clear_cache()
    for below in (-3, -1, 0, 5, exact + 1):
        got = codelength(w, below)
        assert got == exact if exact < below else got >= below, below
    assert codelength(w) == exact


def _count_encodes(monkeypatch) -> list:
    """Route codec._encode through a wrapper that lists each call's
    (word, mode, bound, result)."""
    calls = []
    encode = codec._encode

    def counting(word, mode, out, bound=inf):
        ok = encode(word, mode, out, bound)
        calls.append((word, mode, bound, ok))
        return ok

    monkeypatch.setattr(codec, "_encode", counting)
    return calls


def test_clear_cache_forgets_exact_lengths(monkeypatch):
    w = BitWord.random(random.Random(43), 1024)
    exact = compress(w).bit_length
    calls = _count_encodes(monkeypatch)
    codec.clear_cache()
    assert codelength(w) == exact
    first = len(calls)
    # a remembered length answers exact and bounded questions alike
    assert codelength(w) == codelength(w, exact) == codelength(w, 0) == exact
    assert len(calls) == first
    codec.clear_cache()
    assert codelength(w) == exact
    assert first and len(calls) == 2 * first


def test_a_refused_question_leaves_the_store_as_it_was():
    rng = random.Random(67)
    words = [_WORD_KINDS[kind](rng, n) for n in (64, 300, 1024, 4096)
             for kind in sorted(_WORD_KINDS)]
    codec.clear_cache()
    for w in words[::2]:
        codelength(w)
    refused = 0
    for w in words[1::2]:
        exact = compress(w).bit_length
        for below in (0, exact // 2, exact - 1, exact):
            if codec._may_undercut(w, below):
                continue
            before = list(codec._oracle.items()), codec._oracle_bits
            assert codelength(w, below) == below
            assert (list(codec._oracle.items()), codec._oracle_bits) == before
            refused += 1
    assert refused >= 2 * len(words[1::2])


def test_denoising_curve_answers_match_a_cold_cache(monkeypatch):
    # over a denoising curve, the oracle answers a question about a word
    # it does not hold as a cold cache does, and one about a word it
    # holds with that word's exact length: nothing else is remembered
    n = 1024
    _, noisy = make_noisy_cross(32, Fraction(1, 10), 0)
    asked = Counter()
    oracle = rdsearch.codelength

    def recording(word, below=None):
        held = (word.n, word.value) in codec._oracle
        got = oracle(word, below)
        asked[word, below, held, got] += 1
        return got

    monkeypatch.setattr(rdsearch, "codelength", recording)
    codec.clear_cache()
    distortion_rate_curve(noisy, DistortionSpec(HAMMING, n), None, 40, 0,
                          levels=default_denoise_levels(n))
    refused_again = 0
    for (word, below, held, got), times in asked.items():
        codec.clear_cache()
        if held:
            assert got == compress(word).bit_length, (word.value, below)
        else:
            assert codelength(word, below) == got, (word.value, below)
            refused_again += times > 1 and got == below
    # the search repeats some refused questions, and each is worked out anew
    assert refused_again


# -- least lengths -------------------------------------------------------------


@given(st.one_of(_sort_blocks(), st.binary(min_size=1, max_size=700)))
@settings(max_examples=150, deadline=None)
@example(bytes(1))
@example(bytes(4095))
@example(bytes(4096))
@example(b"\x00\x01" * 64)
@example(bytes(100) + b"\x05" * 28)
def test_fewest_symbols_bounds_every_order(data):
    # the block's own order, its BWT order and a shuffle are all orders
    fewest = codec._fewest_symbols(np.frombuffer(data, np.uint8))
    shuffled = bytearray(data)
    random.Random(len(data)).shuffle(shuffled)
    for last in (data, _bwt_last(data), bytes(shuffled)):
        assert fewest <= len(codec._zero_run_symbols(last))


def test_zle_least_is_the_floor_of_one_repeated_symbol():
    # the same floats as _zle_floor, and never smaller for more symbols
    least = [codec._zle_least(m) for m in range(1, codec._ZLE_FREE + 1)]
    assert least == sorted(least) and least[0] == codec._ZLE_LEAST_ONE == 8
    for m in (1, 2, 3, 7, 100, codec._ZLE_FREE - 1, codec._ZLE_FREE):
        for s in (codec._ZLE_RUNA, codec._ZLE_RUNB, 5, codec._ZLE_ALPHABET - 1):
            syms = [s] * m
            assert codec._zle_least(m) == codec._zle_floor(syms, Counter(syms))


def _least_words():
    """Words to hold the least lengths to: zeros, ones, one repeated byte,
    few distinct bytes and each drawn kind, at lengths from LZ's cutoff
    to three BWT blocks, and two-block words whose last block is all
    zeros, so that its BWT output starts with a zero run."""
    rng = random.Random(53)
    block = codec.BWT_BLOCK_BITS
    for n in (64, 256, 264, 1000, 1024, 4096, block, block + 8, 2 * block + 4000):
        nbytes = -(-n // 8)
        yield BitWord.zeros(n)
        yield BitWord(n, (1 << n) - 1)
        yield BitWord.from_bytes(bytes([rng.randrange(256)]) * nbytes, n)
        for distinct in (2, 3, 5):
            values = rng.sample(range(256), distinct)
            yield BitWord.from_bytes(bytes(rng.choices(values, k=nbytes)), n)
        for kind in sorted(_WORD_KINDS):
            yield _WORD_KINDS[kind](rng, n)
    for tail in (8, block):
        yield _sparse_word(rng, block, 1 / 64).concat(BitWord.zeros(tail))


def test_least_words_cover_a_leading_zero_run():
    # the second block of each word whose bits past the first are zeros
    bs = codec.BWT_BLOCK_BITS // 8
    starts = [codec._bwt_symbols(w.to_bytes()[bs : 2 * bs])[0][0] for w in _least_words()
              if w.n > 8 * bs and not w.value & ((1 << (w.n - 8 * bs)) - 1)]
    assert len(starts) >= 4
    assert all(s in (codec._ZLE_RUNA, codec._ZLE_RUNB) for s in starts)


def test_least_lengths_bound_the_codewords():
    for w in _least_words():
        header = codec._header_bits(w.n)
        lz = codec._encode_with_mode(w, codec.MODE_LZ).bit_length
        assert header + codec._LZ_LEAST <= lz, w
        if w.n < codec._BWT_MIN:
            continue
        blocks = -(-w.n // codec.BWT_BLOCK_BITS)
        least = codec._bwt_least(w)
        assert header + (16 + codec._ZLE_LEAST_ONE) * blocks <= least, w
        assert least <= codec._encode_with_mode(w, codec.MODE_BWT).bit_length, w


def _word_least(w: BitWord) -> int:
    """The larger of w's LZ and BWT least lengths."""
    lz = codec._header_bits(w.n) + codec._LZ_LEAST
    return max(lz, codec._bwt_least(w)) if w.n >= codec._BWT_MIN else lz


def _cheap_least_words():
    """_least_words up to 4096 bits, and one all-zero word of three blocks."""
    yield from (w for w in _least_words() if w.n <= 4096)
    yield BitWord.zeros(2 * codec.BWT_BLOCK_BITS + 4000)


def test_codelength_below_contract_up_to_the_least_length():
    for w in _cheap_least_words():
        exact = compress(w).bit_length
        for below in range(_word_least(w) + 3):
            codec.clear_cache()
            got = codelength(w, below)
            assert got == exact if exact < below else got >= below, (w, below)


def test_no_pass_at_or_under_a_least_length(monkeypatch):
    calls = _count_encodes(monkeypatch)
    refused_without_a_pass = 0
    for w in _cheap_least_words():
        lz = codec._header_bits(w.n) + codec._LZ_LEAST
        bwt = codec._bwt_least(w) if w.n >= codec._BWT_MIN else None
        for below in range(_word_least(w) + 3):
            codec.clear_cache()
            calls.clear()
            codelength(w, below)
            modes = [mode for _, mode, _, _ in calls]
            if codec.MODE_RAW in modes:
                continue  # the exact path: compress runs every method
            assert (codec.MODE_LZ in modes) == (below > lz), (w, below)
            assert (codec.MODE_BWT in modes) == (bwt is not None and below > bwt), (w, below)
            refused_without_a_pass += not modes
    assert refused_without_a_pass


def test_oracle_store_bounds_fill_together_at_1024_bits():
    # no run of 1024-bit questions evicts sooner than the key bound alone
    assert codec._ORACLE_BITS == codec._ORACLE_SIZE * 1024
    assert codec.MAX_WORD_BITS < codec._ORACLE_BITS


def test_oracle_store_stays_under_its_bit_bound(monkeypatch):
    bound = 3 * 4096 + 500
    monkeypatch.setattr(codec, "_ORACLE_BITS", bound)
    codec.clear_cache()
    assert codec._oracle_bits == 0
    rng = random.Random(61)
    words = [_WORD_KINDS[rng.choice(sorted(_WORD_KINDS))](rng, n)
             for n in (12, 64, 300, 1024, 2048, 4096, 4096, 1100) for _ in range(3)]
    exact = {w: compress(w).bit_length for w in words}
    asked = set()
    for _ in range(150):
        w = rng.choice(words)
        below = None if rng.random() < 0.5 else max(0, exact[w] + rng.randint(-40, 40))
        got = codelength(w, below)
        if below is None or exact[w] < below:
            assert got == exact[w]
            key = (w.n, w.value)
            asked.add(key)
            # a question answered exactly is the most recent entry
            assert next(reversed(codec._oracle)) == key
        else:
            assert got >= below
        assert codec._oracle_bits == sum(n for n, _ in codec._oracle) <= bound
    assert sum(n for n, _ in asked) > bound >= codec._oracle_bits
    assert len(codec._oracle) < len(asked)
    # the store holds exact lengths only
    assert all(length == compress(BitWord(n, v)).bit_length
               for (n, v), length in codec._oracle.items())
    codec.clear_cache()
    assert codec._oracle_bits == 0 and not codec._oracle


def test_codelength_below_refuses_long_words():
    w = BitWord(codec.MAX_WORD_BITS + 1, 0)
    for below in (None, 0, 1 << 30):
        with pytest.raises(ValueError, match="exceeds MAX_WORD_BITS"):
            codelength(w, below)


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


@pytest.mark.parametrize("mode, n", [
    (codec.MODE_BITAC, 0), (codec.MODE_BITAC, 1025),
    (codec.MODE_LZ, 63), (codec.MODE_BWT, 255),
])
def test_malformed_length_outside_method_range(mode, n):
    # the method's own coder writes the payload; only the range refuses it
    cw = codec._encode_with_mode(_sparse_word(random.Random(n), n, 1 / 8), mode)
    with pytest.raises(MalformedCodewordError, match="out of range for method"):
        decompress(cw)


@pytest.mark.parametrize("mode, n", [
    (codec.MODE_BITAC, 1), (codec.MODE_BITAC, 1024),
    (codec.MODE_LZ, 64), (codec.MODE_BWT, 256),
])
def test_length_inside_method_range_round_trips(mode, n):
    w = _sparse_word(random.Random(n), n, 1 / 8)
    assert decompress(codec._encode_with_mode(w, mode)) == w


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


@pytest.mark.parametrize("data, bits", [(b"", 0), (b"\x00", 3), (b"\xff\xff", 16)])
def test_codeword_repr_never_decodes(data, bits):
    # a malformed codeword from a failing example must still print
    assert repr(Codeword(data, bits)) == f"Codeword(bits={bits})"


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
