import random

import pytest
from hypothesis import given, settings, strategies as st

from ardtk.bits import BitWord
from ardtk import codec
from ardtk.codec import (
    CodecParams,
    Codeword,
    MalformedCodewordError,
    compress,
    conditional_codelength,
    codelength,
    decompress,
)


def rt(w: BitWord, params=codec.DEFAULT_PARAMS) -> Codeword:
    cw = compress(w, params)
    assert decompress(cw, params) == w
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
        BitWord.random(rng, 8 * 600),  # multi-block sized at small block_size
    ]
    for w in words:
        rt(w)


def test_round_trip_small_block_size():
    params = CodecParams(block_size=64)
    rng = random.Random(3)
    for n in (0, 64, 65, 256, 1000):
        rt(BitWord.random(rng, n), params)
        rt(BitWord.zeros(n), params)


def test_every_method_round_trips():
    # force each container method through its own encode/decode pair
    rng = random.Random(5)
    cases = {
        codec.MODE_RAW: BitWord.random(rng, 40),
        codec.MODE_BITAC: BitWord.zeros(200),
        codec.MODE_BWT: BitWord.from_str("0011010" * 100),
        codec.MODE_LZ: BitWord.from_str("10110100" * 64),
    }
    for mode, w in cases.items():
        cw = codec._encode_with_mode(w, mode, codec.DEFAULT_PARAMS)
        assert cw is not None
        assert decompress(cw) == w


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


def test_malformed_huge_zero_run():
    # one 32-byte BWT block whose symbols are 70 RUNB digits: a zero run
    # of 2 * (2^70 - 1) bytes, far past the block and past any index size
    from ardtk.codec import _ArithmeticEncoder, _BitWriter, _FenwickModel

    syms = [codec._ZLE_RUNB] * 70
    out = _BitWriter()
    out.write_bits(codec.MODE_BWT, 2)
    out.write_leb(256)
    out.write_leb(0)  # BWT index
    out.write_leb(len(syms))
    enc = _ArithmeticEncoder(out, codec.DEFAULT_PARAMS.coder_precision)
    model = _FenwickModel(codec._ZLE_ALPHABET)
    for s in syms:
        lo, hi = model.interval(s)
        enc.encode(lo, hi, model.total)
        model.update(s)
    enc.finish()
    data, nbits = out.getvalue()
    with pytest.raises(MalformedCodewordError):
        decompress(Codeword(data, nbits))


def test_codeword_header_field():
    w = BitWord.random(random.Random(37), 130)
    assert compress(w).original_length == 130


def test_params_validated():
    with pytest.raises(ValueError):
        CodecParams(block_size=32)
    with pytest.raises(ValueError):
        CodecParams(coder_precision=8)
