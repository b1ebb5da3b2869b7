"""Lossless bit-string codec used as the description-length oracle.

Codeword layout (bit granular, MSB first):

    [2-bit method tag][LEB128 original bit length][method payload]

Methods:

    0  raw      the input bits verbatim
    1  bitac    adaptive binary arithmetic code, order-1 bit context
    2  bwt      block sort (BWT) over the packed bytes, move-to-front,
                zero-run coding, arithmetic code under an adaptive count
                list over the 257 zero-run symbols
    3  lz       greedy byte-level LZ with unbounded window

compress() tries every method eligible for the input size and keeps the
shortest encoding (ties broken by the smaller tag), and codelength(x) is
compress(x).bit_length, cached.  The methods run in the order raw,
bitac, lz, bwt.  BWT comes last because it can stop early: before coding
a block it adds a floor on the block's coded bits to the bits written so
far, and once that reaches the length it has to undercut (shorter than
raw and bitac, no longer than lz) it gives up, since it can no longer
win.  So the floor changes no codeword, only the time spent on losers.

The BWT model is a plain list of 257 counts, every one starting at 1:
each coded symbol adds 32 to its count, and once the total passes 2^16
every count is halved, rounding up.  The floor holds for blocks of at
most _ZLE_FREE (2040) zero-run symbols and is 0 above.  Below that count
the model never rescales, so it is a Polya urn (a Dirichlet mixture)
whose ideal length of the block is

    L* = sum_i log2(257 + 32 i) - sum_sym sum_{j < k_sym} log2(1 + 32 j)

with k_sym the symbol's count in the block; _zle_floor reads it off the
histogram through lgamma.  The coder's span starts at 2^32 and is above
2^30 before each symbol.  Coding a symbol of model probability p shrinks
it to at most p (1 + 2^-14) of itself, since p > 2^-16; each shift
doubles it exactly, and the final span lies in (2^30, 2^32].  So the
block takes S shifts with S > L* - 2 - 2040 log2(1 + 2^-14) > L* - 2.2,
and codes to S + 2 bits.  The floor is ceil(L* - 3) + 2, which leaves
room for float error.  The same argument bounds S above by L* + 0.2, so
the floor is never more than 3 bits below the coded length.

Bitac resumes a word from a recently coded one.  A search asks for many
words that differ from its current best in a bit or two, and the coder's
state before the first differing bit is the same for both.  That state
at bit p is the four context counts, the previous bit, low, high and
pending, plus the writer's bytes and partial byte; it depends only on n
and the first p bits, since the header (tag and LEB128 n) depends only
on n.  So a word of more than 64 bits is coded in 64-bit steps from a
checkpoint of that state taken before each step, and resumes from the
last checkpoint inside the longest prefix it shares with one of the 4
most recently used words of its length.  Every codeword is the one a
cold start writes.  What is kept is at most 4 words with 15 checkpoints
each, about 32 KB for 1024-bit words, and clear_cache empties it along
with the oracle cache.

length_table(n) gives the codelength of every n-bit word for n <= 20,
where only raw and bitac are eligible, in one numpy pass over all 2^n
words (see length_table).  That vectorised raw and bitac route is used
only by length_table; codelength does not read it, so the scalar coder
behind compress stays the single oracle, and each checks the other.

The codec is one fixed program with no settings: BWT blocks hold
BWT_BLOCK_BITS (32768) input bits, the arithmetic coder keeps a
CODER_PRECISION (32) bit state, and words longer than MAX_WORD_BITS
(2^24) are refused by compress, codelength and decompress.  So
codelength is a total deterministic function of the input word alone.
The raw method bounds codelength(x) by |x| plus a small header for
every input; the lz method makes concatenation duplicates cheap, which
is what the conditional codelength estimate relies on.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import ceil, lgamma, log, log2

import numpy as np

from .bits import BitWord

MODE_RAW = 0
MODE_BITAC = 1
MODE_BWT = 2
MODE_LZ = 3

# method eligibility cutoffs, in input bits
_BITAC_MAX = 1024
_BWT_MIN = 256
_LZ_MIN = 64
# the bitac coders never halve a context total (see method 1)
assert _BITAC_MAX + 2 < 1 << 14

_LZ_MIN_MATCH = 4

BWT_BLOCK_BITS = 32768     # input bits per BWT block
CODER_PRECISION = 32       # arithmetic coder state size in bits
MAX_WORD_BITS = 1 << 24    # longest word compress accepts or decompress yields

_MASK = (1 << CODER_PRECISION) - 1
_HALF = 1 << (CODER_PRECISION - 1)
_QUARTER = 1 << (CODER_PRECISION - 2)

# fixed self-delimiting separator used by conditional_codelength
SEPARATOR = BitWord.from_str("10100101")

# conditional_codelength(x, y) is clamped to codelength(x) + this
CONDITIONAL_CLAMP_BITS = 16


class MalformedCodewordError(ValueError):
    """Raised when a codeword fails structural validation during decode."""


class Codeword:
    """A compressed word: packed payload bytes plus exact bit length."""

    __slots__ = ("data", "bit_length")

    def __init__(self, data: bytes, bit_length: int):
        if bit_length < 0 or len(data) != (bit_length + 7) // 8:
            raise ValueError("data length inconsistent with bit length")
        self.data = bytes(data)
        self.bit_length = bit_length

    @property
    def original_length(self) -> int:
        r = _BitReader(self.data, self.bit_length)
        r.read_bits(2)
        return r.read_leb()

    def __len__(self) -> int:
        return self.bit_length

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Codeword)
            and self.bit_length == other.bit_length
            and self.data == other.data
        )

    def __hash__(self) -> int:
        return hash((self.bit_length, self.data))

    def __repr__(self) -> str:
        return f"Codeword(bits={self.bit_length}, original={self.original_length})"


# ---------------------------------------------------------------------------
# bit i/o


class _BitWriter:
    __slots__ = ("_acc", "_nbits", "_out")

    def __init__(self):
        self._acc = 0
        self._nbits = 0
        self._out = bytearray()

    def write_bits(self, value: int, count: int):
        """Append the count low bits of value (0 <= value < 2^count)."""
        acc = (self._acc << count) | value
        nbits = self._nbits + count
        if nbits >= 8:
            keep = nbits & 7
            self._out += (acc >> keep).to_bytes(nbits >> 3, "big")
            acc &= (1 << keep) - 1
            nbits = keep
        self._acc = acc
        self._nbits = nbits

    def write_leb(self, n: int):
        """LEB128: 7-bit groups, low group first, high bit = continue."""
        while True:
            group = n & 0x7F
            n >>= 7
            self.write_bits(group | (0x80 if n else 0), 8)
            if not n:
                return

    @property
    def bit_length(self) -> int:
        return 8 * len(self._out) + self._nbits

    def snapshot(self) -> tuple:
        return bytes(self._out), self._acc, self._nbits

    def restore(self, snapshot: tuple):
        out, self._acc, self._nbits = snapshot
        self._out = bytearray(out)

    def getvalue(self) -> "tuple[bytes, int]":
        nbits = self.bit_length
        out = bytes(self._out)
        if self._nbits:
            out += bytes([(self._acc << (8 - self._nbits)) & 0xFF])
        return out, nbits


class _BitReader:
    """MSB-first reader; reads past the declared end return zero bits.

    The arithmetic coder relies on the zero padding when it refills its
    state register, so overreads are tolerated and only counted.
    """

    __slots__ = ("data", "bit_length", "pos")

    def __init__(self, data: bytes, bit_length: int):
        self.data = data
        self.bit_length = bit_length
        self.pos = 0

    def read_bits(self, count: int) -> int:
        p = self.pos
        self.pos = p + count
        end = min(p + count, self.bit_length)
        if end <= p:
            return 0
        hi = (end + 7) >> 3
        chunk = int.from_bytes(self.data[p >> 3 : hi], "big")
        v = (chunk >> (8 * hi - end)) & ((1 << (end - p)) - 1)
        return v << (p + count - end)

    def read_byte(self) -> int:
        if self.pos + 8 > self.bit_length:
            raise MalformedCodewordError("truncated codeword")
        return self.read_bits(8)

    def read_leb(self) -> int:
        n = 0
        shift = 0
        while True:
            if shift > 62:
                raise MalformedCodewordError("varint too large")
            group = self.read_byte()
            n |= (group & 0x7F) << shift
            if not group & 0x80:
                return n
            shift += 7


# ---------------------------------------------------------------------------
# arithmetic coder core (integer implementation with underflow handling)
#
# An encoder's state is the interval [low, high] of CODER_PRECISION-bit
# values plus the count of pending underflow bits, whose value waits on
# the next settled bit.  The encoders keep that state in locals, narrow
# the interval once per symbol and call _renormalise when the interval
# has a settled bit ((low ^ high) < _HALF) or an underflow bit
# (low & ~high & _QUARTER) to shift out.
#
# The decoder shifts the same runs out of the same interval, and its code
# register, the CODER_PRECISION bits it has read, shifts with them.  Code
# lies in [low, high], so it shares their settled bits, and in an underflow
# run it reads 01... or 10... just as they do.  A run of k settled bits is
# code = ((code << k) & _MASK) | read_bits(k); a run of u underflow bits
# keeps code's top bit and drops the u bits below it:
# code = (code & _HALF) | ((code << u) & (_HALF - 1)) | read_bits(u).


def _renormalise(low: int, high: int, pending: int, out: _BitWriter):
    """Shift every settled and underflow bit out of [low, high]; returns
    the new (low, high, pending).

    This is the classic bit-at-a-time loop taken one run at a time.  The
    settled bits are the leading bits low and high share: they go out in
    one write, the first of them followed by the pending run of its
    opposite.  The underflow bits come next: while low reads 01... and
    high 10..., the second bit is dropped and pending grows.  An underflow
    shift leaves low below _HALF and high above it, so no settled bit can
    follow one.
    """
    k = CODER_PRECISION - (low ^ high).bit_length()
    if k:
        top = low >> (CODER_PRECISION - k)
        out.write_bits(top + (((1 << pending) - 1) << (k - 1)), k + pending)
        pending = 0
        low = (low << k) & _MASK
        high = ((high << k) & _MASK) | ((1 << k) - 1)
    u = CODER_PRECISION - 1 - ((low & ~high & (_HALF - 1)) ^ (_HALF - 1)).bit_length()
    if u:
        pending += u
        low = (low << u) & (_HALF - 1)
        high = ((high << u) & (_HALF - 1)) | _HALF | ((1 << u) - 1)
    return low, high, pending


def _finish(low: int, pending: int, out: _BitWriter):
    # classic termination: the emitted prefix pins the value inside the
    # final interval no matter what the reader pads afterwards
    pending += 1
    out.write_bits((1 << pending) - 1 if low < _QUARTER else 1 << pending, pending + 1)


class _ArithmeticDecoder:
    __slots__ = ("low", "high", "code", "inp")

    def __init__(self, inp: _BitReader):
        self.low = 0
        self.high = _MASK
        self.inp = inp
        self.code = inp.read_bits(CODER_PRECISION)

    def finish(self):
        # back to the end of the encoder's output: both sides shift alike,
        # but this side read CODER_PRECISION bits up front and the encoder's
        # _finish wrote only two
        self.inp.pos -= CODER_PRECISION - 2

    def decode_target(self, total: int) -> int:
        span = self.high - self.low + 1
        return ((self.code - self.low + 1) * total - 1) // span

    def consume(self, cum_lo: int, cum_hi: int, total: int):
        """Narrow to [cum_lo, cum_hi) of total and renormalise as
        _renormalise does, with code shifted alongside."""
        low, high = self.low, self.high
        span = high - low + 1
        high = low + span * cum_hi // total - 1
        low = low + span * cum_lo // total
        code = self.code
        k = CODER_PRECISION - (low ^ high).bit_length()
        if k:
            low = (low << k) & _MASK
            high = ((high << k) & _MASK) | ((1 << k) - 1)
            code = ((code << k) & _MASK) | self.inp.read_bits(k)
        u = CODER_PRECISION - 1 - ((low & ~high & (_HALF - 1)) ^ (_HALF - 1)).bit_length()
        if u:
            low = (low << u) & (_HALF - 1)
            high = ((high << u) & (_HALF - 1)) | _HALF | ((1 << u) - 1)
            code = (code & _HALF) | ((code << u) & (_HALF - 1)) | self.inp.read_bits(u)
        self.low, self.high, self.code = low, high, code


# ---------------------------------------------------------------------------
# method 1: adaptive binary arithmetic coding with order-1 context
#
# c[2 * prev + bit] counts bit after a prev bit.  A context total starts at
# 2 and grows by one per coded bit, so below the _BITAC_MAX cutoff it never
# reaches the 2^14 at which an adaptive binary model would have to halve it.
#
# A coded bit moves only one end of the interval, so each branch tests the
# renormalisation predicate for that end alone: low can only have risen
# into a settled 1 or an underflow bit, high only fallen into a settled 0
# or one, given that the state before the bit was renormalised ([low, high]
# straddles _HALF and does not lie inside the middle half).  This takes
# about a sixth off the bitac encode time against testing the full
# predicate after the branch.


_BITAC_STEP = 64   # input bits between two checkpoints of a long word
_BITAC_KEEP = 4    # recently used long words kept with their checkpoints
_BITAC_START = ((1, 1, 1, 1), 0, 0, _MASK, 0)

# (n, value, checkpoints) of the recently used long words, most recent
# first; checkpoints[k - 1] is (coder state, writer state) at bit 64 k
_bitac_recent: list = []


def _bitac_run(bits: str, state: tuple, out: _BitWriter) -> tuple:
    """Code bits, a string of '0' and '1', from the coder state (context
    counts, 2 * prev, low, high, pending); returns the state after them."""
    c, j, low, high, pending = state
    c = list(c)
    for bit in bits:
        c0 = c[j]
        cut = low + (high - low + 1) * c0 // (c0 + c[j + 1])
        if bit == "1":
            low = cut
            c[j + 1] += 1
            j = 2
            # low rose: a settled 1 or an underflow bit
            if low >= _QUARTER and (low >= _HALF or high < _HALF + _QUARTER):
                low, high, pending = _renormalise(low, high, pending, out)
        else:
            high = cut - 1
            c[j] = c0 + 1
            j = 0
            # high fell: a settled 0 or an underflow bit
            if high < _HALF + _QUARTER and (high < _HALF or low >= _QUARTER):
                low, high, pending = _renormalise(low, high, pending, out)
    return tuple(c), j, low, high, pending


def _encode_bitac(word: BitWord, out: _BitWriter):
    """Code word after the header that _encode wrote to out.

    A word longer than _BITAC_STEP resumes from the last checkpoint
    inside the longest prefix it shares with a recent word of its length
    (see the module docstring) and leaves its own checkpoints behind.
    """
    n = word.n
    bits = word.to01()
    if n <= _BITAC_STEP:
        state = _bitac_run(bits, _BITAC_START, out)
        _finish(state[2], state[4], out)
        return
    value = word.value
    base, k = None, 0
    for entry in _bitac_recent:
        if entry[0] == n:
            shared = min(n - (entry[1] ^ value).bit_length(), n - 1) // _BITAC_STEP
            if shared and shared >= k:
                base, k = entry, shared
    if base is None:
        checkpoints = []
        state = _BITAC_START
    else:
        _bitac_recent.remove(base)
        _bitac_recent.insert(0, base)
        checkpoints = base[2][:k]
        state, written = checkpoints[-1]
        out.restore(written)
    p = k * _BITAC_STEP
    while True:
        state = _bitac_run(bits[p : p + _BITAC_STEP], state, out)
        p += _BITAC_STEP
        if p >= n:
            break
        checkpoints.append((state, out.snapshot()))
    _finish(state[2], state[4], out)
    others = [e for e in _bitac_recent if e[:2] != (n, value)]
    _bitac_recent[:] = [(n, value, checkpoints)] + others[: _BITAC_KEEP - 1]


LENGTH_TABLE_MAX_N = 20
# below _LZ_MIN, with the LEB128 length in one byte
assert LENGTH_TABLE_MAX_N < min(_LZ_MIN, 128)


def length_table(n: int) -> np.ndarray:
    """compress(BitWord(n, v)).bit_length for every v < 2^n, as int64,
    for 1 <= n <= LENGTH_TABLE_MAX_N.

    Below _LZ_MIN only raw (10 + n bits) and bitac are eligible.  The
    bitac coder's state after p bits depends on those p bits alone, so it
    runs over the 2^p prefixes at once, each splitting into its two
    extensions at the next bit, and _renormalise's closed form counts the
    k + u bits each step shifts out.  A bitac codeword is the 10-bit header,
    those shifts and the 2 bits of _finish.  codelength does not read this
    table; it stays the one cached oracle.
    """
    if not 1 <= n <= LENGTH_TABLE_MAX_N:
        raise ValueError(f"length_table needs 1 <= n <= {LENGTH_TABLE_MAX_N}, got {n}")
    one, half, mask = np.uint64(1), np.uint64(_HALF), np.uint64(_MASK)
    # one column or entry per prefix, in value order
    c = np.ones((4, 1), np.uint8)       # c[2 * prev + bit], at most n + 1
    j = np.zeros(1, np.intp)            # 2 * prev
    low = np.zeros(1, np.uint64)
    high = np.full(1, mask)
    shifted = np.zeros(1, np.uint64)    # bits renormalisation shifted out
    for _ in range(n):
        cols = np.arange(len(j))
        c0, c1 = c[j, cols], c[j + 1, cols]
        cut = low + (high - low + one) * c0 // (c0 + c1)
        # prefix p splits into 2p (bit 0: high falls to cut - 1) and
        # 2p + 1 (bit 1: low rises to cut)
        low = np.column_stack([low, cut]).ravel()
        high = np.column_stack([cut - one, high]).ravel()
        bit = np.tile(np.array([0, 1], np.intp), len(j))
        c = np.repeat(c, 2, axis=1)
        c[np.repeat(j, 2) + bit, np.arange(len(bit))] += 1
        j = 2 * bit
        k = CODER_PRECISION - _bit_lengths(low ^ high)
        low = (low << k) & mask
        high = ((high << k) & mask) | ((one << k) - one)
        u = CODER_PRECISION - 1 - _bit_lengths((low & ~high & (half - one)) ^ (half - one))
        low = (low << u) & (half - one)
        high = ((high << u) & (half - one)) | half | ((one << u) - one)
        shifted = np.repeat(shifted, 2) + k + u
    return np.minimum(10 + n, 12 + shifted).astype(np.int64)


def _bit_lengths(x: np.ndarray) -> np.ndarray:
    """int.bit_length of each entry of a uint64 array, exact below 2^53."""
    return np.frexp(x.astype(np.float64))[1].astype(np.uint64)


def _decode_bitac(r: _BitReader, n: int) -> int:
    dec = _ArithmeticDecoder(r)
    c = [1, 1, 1, 1]
    j = 0
    value = 0
    for _ in range(n):
        c0 = c[j]
        total = c0 + c[j + 1]
        b = 1 if dec.decode_target(total) >= c0 else 0
        if b:
            dec.consume(c0, total, total)
        else:
            dec.consume(0, c0, total)
        c[j + b] += 1
        j = 2 * b
        value = (value << 1) | b
    return value


# ---------------------------------------------------------------------------
# method 2: BWT + MTF + zero-run coding + adaptive arithmetic coding

_ZLE_RUNA = 0
_ZLE_RUNB = 1
_ZLE_ALPHABET = 257  # two run digits plus literals 1..255 shifted up by one

_ZLE_INC = 32           # count added per coded symbol
_ZLE_LIMIT = 1 << 16    # total above which every count is halved


def _zle_halve(counts: list) -> "tuple[list, int]":
    """The model's rescale: every count halved, rounded up so that none
    drops below 1; returns the new counts and their total."""
    counts = [(c + 1) // 2 for c in counts]
    return counts, sum(counts)


def _bwt_encode(block: bytes) -> "tuple[bytes, int]":
    n = len(block)
    doubled = block + block
    order = sorted(range(n), key=lambda i: doubled[i : i + n])
    last = bytes(doubled[i + n - 1] for i in order)
    return last, order.index(0)


def _bwt_decode(last: bytes, idx: int) -> bytes:
    n = len(last)
    if not 0 <= idx < n:
        raise MalformedCodewordError("BWT index out of range")
    counts = [0] * 256
    for b in last:
        counts[b] += 1
    starts = [0] * 256
    s = 0
    for v in range(256):
        starts[v] = s
        s += counts[v]
    # next[i]: row following row i when reading the original string
    nxt = [0] * n
    seen = [0] * 256
    for i, b in enumerate(last):
        nxt[starts[b] + seen[b]] = i
        seen[b] += 1
    out = bytearray(n)
    j = idx
    for i in range(n):
        j = nxt[j]
        out[i] = last[j]
    return bytes(out)


def _mtf_encode(data: bytes) -> bytearray:
    order = bytearray(range(256))
    out = bytearray()
    for b in data:
        i = order.index(b)
        out.append(i)
        if i:
            del order[i]
            order.insert(0, b)
    return out


def _mtf_decode(seq) -> bytearray:
    order = bytearray(range(256))
    out = bytearray()
    for i in seq:
        b = order[i]
        out.append(b)
        if i:
            del order[i]
            order.insert(0, b)
    return out


def _zle_encode(seq) -> list:
    """Zero runs become RUNA/RUNB digits (bijective base 2), literals shift."""
    out = []
    run = 0
    for v in seq:
        if v == 0:
            run += 1
            continue
        if run:
            _zle_flush_run(out, run)
            run = 0
        out.append(v + 1)
    if run:
        _zle_flush_run(out, run)
    return out


def _zle_flush_run(out: list, run: int):
    while run > 0:
        if run & 1:
            out.append(_ZLE_RUNA)
            run = (run - 1) >> 1
        else:
            out.append(_ZLE_RUNB)
            run = (run - 2) >> 1


def _zle_decode(syms, limit: int) -> bytearray:
    """Inverse of _zle_encode; a zero run that would take the output past
    limit bytes is rejected before it is materialized."""
    out = bytearray()
    run = 0
    place = 1
    for s in syms:
        if s in (_ZLE_RUNA, _ZLE_RUNB):
            run += place * (1 + s)
            place <<= 1
            continue
        if run:
            _zle_flush_zeros(out, run, limit)
            run = 0
            place = 1
        if s - 1 > 255:
            raise MalformedCodewordError("bad zero-run literal")
        out.append(s - 1)
    if run:
        _zle_flush_zeros(out, run, limit)
    return out


def _zle_flush_zeros(out: bytearray, run: int, limit: int):
    if len(out) + run > limit:
        raise MalformedCodewordError("zero run overflows block")
    out.extend(b"\x00" * run)


def _entropy_bits(hist: Counter, count: int) -> float:
    h = 0.0
    for c in hist.values():
        p = c / count
        h -= p * log2(p)
    return h * count


# Until its first rescale, which comes after _ZLE_FREE symbols, the model
# codes symbol i of a block with total _ZLE_ALPHABET + _ZLE_INC * i
# and the j-th repeat of a symbol with count 1 + _ZLE_INC * j: it is
# a Polya urn, so a block's ideal length has a closed form in lgamma.
_ZLE_FREE = (_ZLE_LIMIT - _ZLE_ALPHABET) // _ZLE_INC + 1
_URN_ALPHA = 1 / _ZLE_INC              # prior weight per symbol
_URN_TOTAL = _ZLE_ALPHABET / _ZLE_INC  # prior weight in all


def _zle_floor(hist: Counter, count: int) -> int:
    """A lower bound on the bits _encode_zle writes for the count symbols
    of histogram hist: the ideal length less three bits, plus the two of
    the termination (see the module docstring), or 0 past _ZLE_FREE."""
    if count > _ZLE_FREE:
        return 0
    nats = lgamma(count + _URN_TOTAL) - lgamma(_URN_TOTAL) - sum(
        lgamma(k + _URN_ALPHA) - lgamma(_URN_ALPHA) for k in hist.values()
    )
    return ceil(nats / log(2) - 3) + 2


def _encode_zle(syms, out: _BitWriter):
    """Arithmetic-code a zero-run symbol sequence under the adaptive model."""
    counts = [1] * _ZLE_ALPHABET
    total = _ZLE_ALPHABET
    low, high, pending = 0, _MASK, 0
    for s in syms:
        lo = sum(counts[:s])
        span = high - low + 1
        high = low + span * (lo + counts[s]) // total - 1
        low += span * lo // total
        if (low ^ high) < _HALF or low & ~high & _QUARTER:
            low, high, pending = _renormalise(low, high, pending, out)
        counts[s] += _ZLE_INC
        total += _ZLE_INC
        if total > _ZLE_LIMIT:
            counts, total = _zle_halve(counts)
    _finish(low, pending, out)


def _encode_bwt(word: BitWord, out: _BitWriter, bound: "int | None" = None) -> bool:
    """Returns False when the entropy pre-gate predicts a hopeless encode,
    or, given bound, once the bits written plus the next block's floor
    reach bound, so that this method cannot come out shorter."""
    packed = word.to_bytes()
    bs = BWT_BLOCK_BITS // 8
    for off in range(0, len(packed), bs):
        block = packed[off : off + bs]
        last, idx = _bwt_encode(block)
        syms = _zle_encode(_mtf_encode(last))
        hist = Counter(syms)
        # incompressible blocks would only waste coder time; let raw win
        if _entropy_bits(hist, len(syms)) + 64 > 8 * len(block):
            return False
        out.write_leb(idx)
        out.write_leb(len(syms))
        if bound is not None and out.bit_length + _zle_floor(hist, len(syms)) >= bound:
            return False
        _encode_zle(syms, out)
    return True


def _decode_bwt(r: _BitReader, n: int) -> int:
    nbytes = (n + 7) // 8
    bs = BWT_BLOCK_BITS // 8
    packed = bytearray()
    remaining = nbytes
    while remaining > 0:
        blen = min(bs, remaining)
        idx = r.read_leb()
        count = r.read_leb()
        # a zero run of r bytes takes at most r digits, so no valid block
        # has more symbols than bytes
        if count > blen:
            raise MalformedCodewordError("implausible symbol count")
        dec = _ArithmeticDecoder(r)
        counts = [1] * _ZLE_ALPHABET
        total = _ZLE_ALPHABET
        syms = []
        for _ in range(count):
            target = dec.decode_target(total)
            s = 0
            lo = 0
            while lo + counts[s] <= target:
                lo += counts[s]
                s += 1
            dec.consume(lo, lo + counts[s], total)
            counts[s] += _ZLE_INC
            total += _ZLE_INC
            if total > _ZLE_LIMIT:
                counts, total = _zle_halve(counts)
            syms.append(s)
        dec.finish()
        mtf = _zle_decode(syms, blen)
        if len(mtf) != blen:
            raise MalformedCodewordError("block length mismatch")
        packed.extend(_bwt_decode(bytes(_mtf_decode(mtf)), idx))
        remaining -= blen
    return int.from_bytes(bytes(packed), "big") >> (8 * nbytes - n)


# ---------------------------------------------------------------------------
# method 3: greedy LZ over the packed bytes


def _encode_lz(word: BitWord, out: _BitWriter):
    data = word.to_bytes()
    n = len(data)
    table = {}
    pos = 0
    lit_start = 0
    tokens = []  # (lit_start, lit_end, match_len, dist)
    while pos < n:
        match_len = 0
        match_dist = 0
        if pos + _LZ_MIN_MATCH <= n:
            key = data[pos : pos + _LZ_MIN_MATCH]
            cand = table.get(key)
            if cand is not None:
                length = _LZ_MIN_MATCH
                limit = n - pos
                while length < limit and data[cand + length] == data[pos + length]:
                    length += 1
                match_len = length
                match_dist = pos - cand
        if match_len >= _LZ_MIN_MATCH:
            tokens.append((lit_start, pos, match_len, match_dist))
            end = pos + match_len
            while pos < end and pos + _LZ_MIN_MATCH <= n:
                table[data[pos : pos + _LZ_MIN_MATCH]] = pos
                pos += 1
            pos = end
            lit_start = pos
        else:
            if pos + _LZ_MIN_MATCH <= n:
                table[data[pos : pos + _LZ_MIN_MATCH]] = pos
            pos += 1
    tokens.append((lit_start, n, 0, 0))
    for lit_start, lit_end, match_len, dist in tokens:
        literals = data[lit_start:lit_end]
        out.write_leb(len(literals))
        out.write_bits(int.from_bytes(literals, "big"), 8 * len(literals))
        if match_len:
            out.write_leb(match_len - _LZ_MIN_MATCH)
            out.write_leb(dist)


def _decode_lz(r: _BitReader, n: int) -> int:
    nbytes = (n + 7) // 8
    out = bytearray()
    while len(out) < nbytes:
        litlen = r.read_leb()
        if len(out) + litlen > nbytes:
            raise MalformedCodewordError("literal run overflows output")
        if r.pos + 8 * litlen > r.bit_length:
            raise MalformedCodewordError("truncated codeword")
        out += r.read_bits(8 * litlen).to_bytes(litlen, "big")
        if len(out) >= nbytes:
            break
        match_len = r.read_leb() + _LZ_MIN_MATCH
        dist = r.read_leb()
        if dist == 0 or dist > len(out):
            raise MalformedCodewordError("bad match distance")
        if len(out) + match_len > nbytes:
            raise MalformedCodewordError("match overflows output")
        # an overlapping match (dist < match_len) repeats the last dist bytes
        out += (out[-dist:] * (match_len // dist + 1))[:match_len]
    return int.from_bytes(bytes(out), "big") >> (8 * nbytes - n)


# ---------------------------------------------------------------------------
# container


def _methods(n: int) -> "list[int]":
    """The methods eligible for an n-bit word, BWT last, so that compress
    can hold the BWT floor against the others."""
    if n > MAX_WORD_BITS:
        raise ValueError(f"word of {n} bits exceeds MAX_WORD_BITS = {MAX_WORD_BITS}")
    modes = [MODE_RAW]
    if 1 <= n <= _BITAC_MAX:
        modes.append(MODE_BITAC)
    if n >= _LZ_MIN:
        modes.append(MODE_LZ)
    if n >= _BWT_MIN:
        modes.append(MODE_BWT)
    return modes


def _encode(word: BitWord, mode: int, out: _BitWriter, bound: "int | None" = None) -> bool:
    """Write the codeword of word under mode to out; False when the method
    declines the word (see _encode_bwt)."""
    out.write_bits(mode, 2)
    out.write_leb(word.n)
    if mode == MODE_RAW:
        out.write_bits(word.value, word.n)
    elif mode == MODE_BITAC:
        _encode_bitac(word, out)
    elif mode == MODE_BWT:
        return _encode_bwt(word, out, bound)
    else:
        _encode_lz(word, out)
    return True


def _encode_with_mode(word: BitWord, mode: int):
    out = _BitWriter()
    return Codeword(*out.getvalue()) if _encode(word, mode, out) else None


def compress(word: BitWord) -> Codeword:
    found = []
    for mode in _methods(word.n):
        out = _BitWriter()
        bound = None
        if mode == MODE_BWT:
            # BWT runs last; a smaller tag wins a tie
            bound = min(bits + (m > MODE_BWT) for bits, m, _ in found)
        if _encode(word, mode, out, bound):
            found.append((out.bit_length, mode, out))
    return Codeword(*min(found)[2].getvalue())


def decompress(cw: Codeword) -> BitWord:
    r = _BitReader(cw.data, cw.bit_length)
    mode = r.read_bits(2)
    if cw.bit_length < 10:
        raise MalformedCodewordError("codeword shorter than header")
    n = r.read_leb()
    if n > MAX_WORD_BITS:
        raise MalformedCodewordError("implausible original length")
    if mode == MODE_RAW:
        if r.pos + n > cw.bit_length:
            raise MalformedCodewordError("raw payload truncated")
        value = r.read_bits(n)
    elif mode == MODE_BITAC:
        if n == 0 or n > _BITAC_MAX:
            raise MalformedCodewordError("length out of range for method")
        value = _decode_bitac(r, n)
    elif mode == MODE_BWT:
        if n < _BWT_MIN:
            raise MalformedCodewordError("length out of range for method")
        value = _decode_bwt(r, n)
    else:
        if n < _LZ_MIN:
            raise MalformedCodewordError("length out of range for method")
        value = _decode_lz(r, n)
    return BitWord(n, value)


@lru_cache(maxsize=1 << 18)
def _codelength_cached(n: int, value: int) -> int:
    return compress(BitWord(n, value)).bit_length


def codelength(word: BitWord) -> int:
    """compress(word).bit_length, cached by (n, value)."""
    return _codelength_cached(word.n, word.value)


def conditional_codelength(x: BitWord, y: BitWord) -> int:
    """Codelength of x given y, estimated by concatenation.

    Base estimate: codelength(y || sep || x) - codelength(y), floored at
    zero.  The result is additionally clamped to codelength(x) plus a
    small constant, since knowing y can never make x harder to describe
    than ignoring it.
    """
    cat = y.concat(SEPARATOR).concat(x)
    base = codelength(cat) - codelength(y)
    if base < 0:
        base = 0
    clamp = codelength(x) + CONDITIONAL_CLAMP_BITS
    return base if base < clamp else clamp


def clear_cache():
    _codelength_cached.cache_clear()
    _bitac_recent.clear()
