"""Lossless bit-string codec used as the description-length oracle.

Codeword layout (bit granular, MSB first):

    [2-bit method tag][LEB128 original bit length][method payload]

Methods, with the word lengths each is eligible for:

    0  raw    any       the input bits verbatim
    1  bitac  1..1024   adaptive binary arithmetic code, order-1 bit context
    2  bwt    256..     block sort (BWT) over the packed bytes, then one pass
                        of move-to-front and zero-run coding, arithmetic code
                        under an adaptive count list over the 257 zero-run
                        symbols
    3  lz     64..      greedy byte-level LZ with unbounded window

_methods(n) alone states those ranges: compress runs the methods it
lists, and decompress refuses any other tag.  compress() keeps the
shortest encoding (ties broken by the smaller tag), and codelength(x) is
compress(x).bit_length, remembered.  The methods run in the order raw,
bitac, lz, bwt, and each is given a bound, the length it has to
undercut: the shortest codeword so far, plus one bit when that
codeword's tag is larger, since a smaller tag wins a tie, and inf before
any.  A method refuses a word by one rule only, once a lower bound on
its own codeword reaches the bound, since it can then no longer win.
Raw never refuses, nor does bitac: it is eligible only up to 1024 bits,
and the checkpoints it leaves behind serve the next word (see below).
LZ counts the header and a byte for each literal and each token LEB it
has parsed so far; BWT adds a floor on the next block's coded bits to
the bits written so far.  So the bounds change no codeword, only the
time spent on losers, and under an inf bound every method writes its
codeword in full.

Each of LZ and BWT also has a least length, the same kind of lower
bound taken before its pass, from the word's length and bytes alone.
LZ's is the header and 16 bits, since the first byte is always a literal
behind a one-byte LEB.  BWT's is the header and, for each block, two
one-byte LEBs and the floor of the fewest zero-run symbols the block's
byte histogram allows (see _bwt_least); with one symbol per block, 24
bits per block, it costs nothing to check.  At or under its least
length a method's bounded pass would refuse, so codelength does not run
it.

codelength(x, below) answers the question a search asks, whether x
undercuts below: it returns the exact length when that is less than
below, and otherwise some value of at least below.  It takes the exact
path when raw, or the floor on bitac set out below, is shorter than
below.  Otherwise it runs only LZ and then BWT, each bounded by below
and each only when below is over its least length: a method that
refuses is no candidate, and one that completes under below sends the
word down the exact path.  When none does, the word is refused:
codelength returns below, and no bitac coder runs.

The oracle remembers, by (n, value), each word's exact length, in one
store of at most 2^18 words and 2^28 bits of words that drops the least
recently used first.  A remembered length answers every question; a
refused question is answered and not stored.  clear_cache forgets the
store.

The BWT model is a plain list of 257 counts, every one starting at 1:
each coded symbol adds 32 to its count, and once the total passes 2^16
every count is halved, rounding up.  Between two halvings the model is
a Polya urn (a Dirichlet mixture): a segment of m symbols that starts
from counts c with total T has the ideal length

    L*_seg = sum_{i < m} log2(T + 32 i) - sum_sym sum_{j < k_sym} log2(c_sym + 32 j)

with k_sym the symbol's count in the segment.  The first segment starts
from all ones and holds _ZLE_FREE (2040) symbols; each later one starts
from the halved counts and runs to the next halving.  _zle_floor
follows the model through its halvings and reads each segment's length
off its histogram through lgamma; the block's ideal length L* is their
sum, and a block of at most _ZLE_FREE symbols is a single segment.  The
coder's span starts at 2^32 and is above 2^30 before each symbol.
Coding a symbol of model probability p shrinks it to at most
p (1 + 2^-14) of itself, since p >= 2^-16; each shift doubles it
exactly, and the final span lies in (2^30, 2^32].  A block has no more
symbols than bytes, at most 4096, so it takes S shifts with
S > L* - 2 - 4096 log2(1 + 2^-14) > L* - 2.4, and codes to S + 2 bits.
The floor is ceil(L* - 3) + 2, which leaves room for float error.  The
same argument bounds S above by L* + 0.4, so the floor is never more
than 3 bits below the coded length.

The same argument gives bitac a floor in closed form.  Count the
order-1 transitions n00, n01, n10, n11 of the word, the first bit
following a virtual 0.  A context that sees a zeros and b ones under
counts that start at 1 and 1 has the ideal adaptive length
log2((a + b + 1)! / (a! b!)), and L* is the sum over the two contexts.
Before each bit the span exceeds 2^30, and a bit of probability p
shrinks it to at most p (1 + 1026 / 2^30) of itself, since a context
total is at most _BITAC_MAX + 2 and so p >= 1/1026; each shift doubles
it and the final span lies in (2^30, 2^32].  So a word of at most 1024
bits takes S shifts with S > L* - 2 - 0.0014, and the codeword has
header + S + 2 bits.  _bitac_floor returns header + ceil(L* - 2 - 1/64)
+ 2, the 1/64 for float error.  The same argument bounds S above by
L* + 0.0014, so the floor is at most 2 bits below the codeword.

A BWT block goes from its sorted rotations to zero-run symbols in one
pass over the last column, which is one numpy gather: a byte equal to
the one before it has move-to-front index 0, so it only lengthens the
zero run and costs no list search.  The floor's first segment reads each
symbol's term, lgamma(k + 1/32) - lgamma(1/32) for k repeats, from a
table built once; the terms are the floats lgamma gives, added in the
same order, so the floor is the same number.

Below _BWT_DOUBLING_MIN (1024) bytes the block sort is one stable numpy
argsort of the rotations, each a row of n bytes that compares bytewise
as a single void item; from there it sorts by numpy prefix doubling.
The rows are one overlapping view of the doubled block, row i starting
at byte i, so none is copied out, while a doubling step costs a few
numpy calls of fixed overhead.  Summed over a uniform, a sparse, a
periodic and a repeated-chunk block, the row sort is 12 times faster
than doubling at 128 bytes, 3.5 times at 512, 2.2 at 1024 and 1.6 at
1536; the two break even near 2048, and doubling is 1.7 times faster
at 4096.  The cutover stays below the break-even.  On the 128-byte
blocks of a denoising search the row sort takes about half the time of
a Python sort of slices of the doubled block.

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
with the oracle's store.

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

from collections import Counter, OrderedDict
from math import ceil, inf, lgamma, log

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

_LZ_MIN_MATCH = 4   # a match key is these bytes read as one uint32
# the least LZ payload: the first byte is always a literal behind a
# one-byte LEB
_LZ_LEAST = 16

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
        # the bit length only: a malformed codeword must print too
        return f"Codeword(bits={self.bit_length})"


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
# the interval once per symbol and renormalise when the interval has a
# settled bit ((low ^ high) < _HALF) or an underflow bit
# (low & ~high & _QUARTER) to shift out: _encode_zle calls _renormalise,
# and _bitac_run, which renormalises about once per three coded bits,
# runs the same steps inline.
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
    # the bits shifted out in this run, written to out at its end
    acc = nbits = 0
    # the coder's constants, read as locals in the loop
    prec, mask, half, quarter = CODER_PRECISION, _MASK, _HALF, _QUARTER
    hq = half + quarter
    for bit in bits:
        c0 = c[j]
        cut = low + (high - low + 1) * c0 // (c0 + c[j + 1])
        if bit == "1":
            low = cut
            c[j + 1] += 1
            j = 2
            # low rose: renormalise on a settled 1 or an underflow bit
            if low < quarter or (low < half and high >= hq):
                continue
        else:
            high = cut - 1
            c[j] = c0 + 1
            j = 0
            # high fell: renormalise on a settled 0 or an underflow bit
            if high >= hq or (high >= half and low < quarter):
                continue
        # _renormalise, with the writer's accumulator in locals
        k = prec - (low ^ high).bit_length()
        if k:
            top = low >> (prec - k)
            acc = (acc << (k + pending)) | (top + (((1 << pending) - 1) << (k - 1)))
            nbits += k + pending
            pending = 0
            low = (low << k) & mask
            high = ((high << k) & mask) | ((1 << k) - 1)
        u = prec - 1 - ((low & ~high & (half - 1)) ^ (half - 1)).bit_length()
        if u:
            pending += u
            low = (low << u) & (half - 1)
            high = ((high << u) & (half - 1)) | half | ((1 << u) - 1)
    out.write_bits(acc, nbits)
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

    Below _LZ_MIN only raw (header + n bits) and bitac are eligible.  The
    bitac coder's state after p bits depends on those p bits alone, so it
    runs over the 2^p prefixes at once, each splitting into its two
    extensions at the next bit, and _renormalise's closed form counts the
    k + u bits each step shifts out.  A bitac codeword is the header,
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
    header = _header_bits(n)
    return np.minimum(header + n, header + 2 + shifted).astype(np.int64)


def _bit_lengths(x: np.ndarray) -> np.ndarray:
    """int.bit_length of each entry of a uint64 array, exact below 2^53."""
    return np.frexp(x.astype(np.float64))[1].astype(np.uint64)


def _bitac_floor(word: BitWord) -> int:
    """A lower bound on the bitac codeword of word, at most 2 bits below
    it (see the module docstring)."""
    n, v = word.n, word.value
    prev = v >> 1  # each bit's predecessor, a virtual 0 before the first
    n11 = (v & prev).bit_count()
    n01 = v.bit_count() - n11
    n10 = prev.bit_count() - n11
    n00 = n - n01 - n10 - n11
    nats = (lgamma(n00 + n01 + 2) - lgamma(n00 + 1) - lgamma(n01 + 1)
            + lgamma(n10 + n11 + 2) - lgamma(n10 + 1) - lgamma(n11 + 1))
    return _header_bits(n) + ceil(nats / log(2) - 2 - 1 / 64) + 2


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


# blocks of at least this many bytes are sorted by _bwt_order_doubling
_BWT_DOUBLING_MIN = 1024


def _bwt_order_rows(block: bytes) -> np.ndarray:
    """The rotations of block in sorted order, identical rotations by
    index: a stable argsort of the rotations as rows of n bytes, each
    row one numpy void item, which compare bytewise as unsigned."""
    n = len(block)
    # row i is the n bytes from byte i of the doubled block: the rows
    # overlap in one buffer, so none is copied out
    rows = np.ndarray((n,), f"V{n}", block * 2, strides=(1,))
    return np.argsort(rows, kind="stable")


def _bwt_order_doubling(block: bytes) -> np.ndarray:
    """_bwt_order_rows by prefix doubling: once the ranks order the
    rotations by their first k bytes, a stable sort of rank * max(n, 256)
    + the rank k bytes on orders them by their first 2k, and identical
    rotations stay in index order."""
    n = len(block)
    rank = np.frombuffer(block, np.uint8).astype(np.int64)
    scale = max(n, 256)  # above every rank: a byte, then a rank below n
    order = np.argsort(rank, kind="stable")
    k = 1
    while k < n:
        key = rank * scale + np.roll(rank, -k)
        order = np.argsort(key, kind="stable")
        ordered = key[order]
        step = np.empty(n, np.int64)
        step[0] = 0
        np.not_equal(ordered[1:], ordered[:-1], out=step[1:])
        ranks = np.cumsum(step)
        rank[order] = ranks
        if ranks[-1] == n - 1:  # every rotation distinct
            break
        k *= 2
    return order


def _bwt_decode(last: bytes, idx: int) -> bytes:
    n = len(last)
    if not 0 <= idx < n:
        raise MalformedCodewordError("BWT index out of range")
    # nxt[i]: the row following row i when reading the original string;
    # the rows that start with byte b are, in order, those ending with it
    nxt = np.argsort(np.frombuffer(last, np.uint8), kind="stable").tolist()
    out = bytearray(n)
    j = idx
    for i in range(n):
        j = nxt[j]
        out[i] = last[j]
    return bytes(out)


def _bwt_symbols(block: bytes) -> "tuple[list, int]":
    """The zero-run symbols of block's BWT after move-to-front, and the
    BWT index, the place of rotation 0 in the order.  Rotation i ends
    with block[i - 1]."""
    if len(block) < _BWT_DOUBLING_MIN:
        order = _bwt_order_rows(block)
    else:
        order = _bwt_order_doubling(block)
    last = np.frombuffer(block, np.uint8)[order - 1].tobytes()
    return _zero_run_symbols(last), int(order.argmin())


def _zero_run_symbols(last) -> list:
    """Move-to-front and zero-run coding of the byte values in last, in
    one pass.

    A byte has move-to-front index 0 exactly when it equals the byte
    before it, or is 0 when it comes first, since the list starts 0, 1,
    ...; such a byte only extends the zero run.  A zero run becomes
    RUNA/RUNB digits (bijective base 2, low digit first) and index i the
    literal i + 1.
    """
    order = bytearray(range(256))
    syms = []
    prev = run = 0
    for b in last:
        if b == prev:
            run += 1
            continue
        while run:
            s = 1 - (run & 1)  # digit s + 1: RUNA on an odd run, RUNB on an even
            run = (run - 1 - s) >> 1
            syms.append(s)
        i = order.index(b)
        del order[i]
        order.insert(0, b)
        prev = b
        syms.append(i + 1)
    while run:
        s = 1 - (run & 1)
        run = (run - 1 - s) >> 1
        syms.append(s)
    return syms


def _zero_run_bytes(syms, limit: int) -> bytearray:
    """Inverse of _zero_run_symbols, in one pass.

    A zero run repeats the byte at the front of the move-to-front list,
    and one that would take the output past limit bytes is rejected
    before it is materialized; the literal s moves the list's byte s - 1
    to the front.
    """
    order = bytearray(range(256))
    out = bytearray()
    run = 0
    place = 1
    for s in syms:
        if s <= _ZLE_RUNB:
            run += place << s  # digit s + 1
            place <<= 1
            continue
        if run:
            if len(out) + run > limit:
                raise MalformedCodewordError("zero run overflows block")
            out += order[:1] * run
            run = 0
            place = 1
        if s > 256:
            raise MalformedCodewordError("bad zero-run literal")
        b = order[s - 1]
        del order[s - 1]
        order.insert(0, b)
        out.append(b)
    if run and len(out) + run > limit:
        raise MalformedCodewordError("zero run overflows block")
    out += order[:1] * run
    return out


# Between two rescales the model codes symbol i of the segment with total
# T + _ZLE_INC * i and the j-th repeat of a symbol with count
# c + _ZLE_INC * j, where T and c are the counts the segment starts from:
# it is a Polya urn, so a segment's ideal length has a closed form in
# lgamma.  The first segment starts from all ones and holds _ZLE_FREE
# symbols.
_ZLE_FREE = (_ZLE_LIMIT - _ZLE_ALPHABET) // _ZLE_INC + 1


# a symbol's term in _urn_nats when its count starts at 1, as at the
# model's start, for k repeats; no segment holds more than _ZLE_FREE
_URN_FROM_ONE = [
    lgamma(k + 1 / _ZLE_INC) - lgamma(1 / _ZLE_INC) for k in range(_ZLE_FREE + 1)
]


def _urn_nats(hist: Counter, count: int, total: int, counts: list) -> float:
    """The ideal length in nats of count symbols of histogram hist coded
    with no rescale between them, from the model's total and its counts."""
    prior = total / _ZLE_INC
    if total == _ZLE_ALPHABET:
        # 257 counts of at least 1 with this total: all are 1
        terms = [_URN_FROM_ONE[k] for k in hist.values()]
    else:
        terms = [
            lgamma(k + counts[s] / _ZLE_INC) - lgamma(counts[s] / _ZLE_INC)
            for s, k in hist.items()
        ]
    return lgamma(count + prior) - lgamma(prior) - sum(terms)


def _zle_floor(syms: list, hist: Counter) -> int:
    """A lower bound on the bits _encode_zle writes for syms, whose
    histogram is hist: the ideal length less three bits, plus the two of
    the termination (see the module docstring)."""
    counts, total = [1] * _ZLE_ALPHABET, _ZLE_ALPHABET
    start, nats = 0, 0.0
    while True:
        end = start + (_ZLE_LIMIT - total) // _ZLE_INC + 1
        if end >= len(syms):
            seg = hist if start == 0 else Counter(syms[start:])
            nats += _urn_nats(seg, len(syms) - start, total, counts)
            return ceil(nats / log(2) - 3) + 2
        seg = Counter(syms[start:end])
        nats += _urn_nats(seg, end - start, total, counts)
        for s, k in seg.items():
            counts[s] += _ZLE_INC * k
        counts, total = _zle_halve(counts)
        start = end


def _zle_least(m: int) -> int:
    """A lower bound on the _zle_floor of any block of at least m zero-run
    symbols, 1 <= m <= _ZLE_FREE: the floor of m copies of one symbol,
    the same floats in the same order."""
    prior = _ZLE_ALPHABET / _ZLE_INC
    nats = lgamma(m + prior) - lgamma(prior) - _URN_FROM_ONE[m]
    return ceil(nats / log(2) - 3) + 2


# the least _zle_floor of any block: one symbol
_ZLE_LEAST_ONE = _zle_least(1)


def _bwt_least(word: BitWord) -> int:
    """A lower bound on word's BWT codeword: the header and, for each
    block, two one-byte LEBs and the _zle_least of its fewest zero-run
    symbols.

    The first segment alone bounds the floor, so the symbols are
    counted up to _ZLE_FREE."""
    bs = BWT_BLOCK_BITS // 8
    data = np.frombuffer(word.to_bytes(), np.uint8)
    least = _header_bits(word.n)
    for off in range(0, len(data), bs):
        least += 16 + _zle_least(min(_fewest_symbols(data[off : off + bs]), _ZLE_FREE))
    return least


def _fewest_symbols(block: np.ndarray) -> int:
    """A lower bound on the zero-run symbols of any order of block's
    bytes: the sum over its byte values c of n_c.bit_length(), less one.

    A run of l equal bytes costs a literal and the digits of its l - 1
    repeats, l.bit_length() symbols, or l.bit_length() - 1 when it is the
    leading run of zeros, and the runs of one byte value sum to at least
    the bit length of its count.  A block that is not empty has a
    symbol."""
    counts = np.bincount(block, minlength=256)
    # frexp's exponent of a positive integer is its bit length
    return max(int(np.frexp(counts.astype(np.float64))[1].sum()) - 1, 1)


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


def _encode_bwt(word: BitWord, out: _BitWriter, bound: float) -> bool:
    """Returns False once the bits written plus the next block's floor
    reach bound, so that this method cannot come out shorter."""
    packed = word.to_bytes()
    bs = BWT_BLOCK_BITS // 8
    for off in range(0, len(packed), bs):
        block = packed[off : off + bs]
        syms, idx = _bwt_symbols(block)
        out.write_leb(idx)
        out.write_leb(len(syms))
        if out.bit_length + _zle_floor(syms, Counter(syms)) >= bound:
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
        last = _zero_run_bytes(syms, blen)
        if len(last) != blen:
            raise MalformedCodewordError("block length mismatch")
        packed.extend(_bwt_decode(last, idx))
        remaining -= blen
    return int.from_bytes(bytes(packed), "big") >> (8 * nbytes - n)


# ---------------------------------------------------------------------------
# method 3: greedy LZ over the packed bytes


def _encode_lz(word: BitWord, out: _BitWriter, bound: float) -> bool:
    """Returns False once the bits written so far and a
    byte for each literal and each token LEB parsed, the literal count of
    the open token included, reach bound, so that this method cannot come
    out shorter."""
    data = word.to_bytes()
    n = len(data)
    # keys[p]: the _LZ_MIN_MATCH bytes from p, read as one int
    keys = np.ndarray((max(n - _LZ_MIN_MATCH + 1, 0),), ">u4", data, strides=(1,)).tolist()
    nkeys = len(keys)
    table = {}
    pos = 0
    lit_start = 0
    tokens = []  # (lit_start, lit_end, match_len, dist)
    spent = out.bit_length + 8
    while pos < n:
        cand = table.get(keys[pos]) if pos < nkeys else None
        if cand is not None:
            length = _LZ_MIN_MATCH
            limit = n - pos
            while length < limit and data[cand + length] == data[pos + length]:
                length += 1
            tokens.append((lit_start, pos, length, pos - cand))
            # its three LEBs take a byte each at least
            spent += 24
            if spent >= bound:
                return False
            end = pos + length
            table.update(zip(keys[pos:end], range(pos, end)))
            pos = end
            lit_start = pos
        else:
            if pos < nkeys:
                table[keys[pos]] = pos
            pos += 1
            spent += 8
            if spent >= bound:
                return False
    tokens.append((lit_start, n, 0, 0))
    for lit_start, lit_end, match_len, dist in tokens:
        literals = data[lit_start:lit_end]
        out.write_leb(len(literals))
        out.write_bits(int.from_bytes(literals, "big"), 8 * len(literals))
        if match_len:
            out.write_leb(match_len - _LZ_MIN_MATCH)
            out.write_leb(dist)
    return True


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
    """The methods eligible for an n-bit word in the order compress runs
    them: BWT, the slowest, last, so that its floor is held against all
    the others."""
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


def _header_bits(n: int) -> int:
    """The bits of the tag and the LEB128 length of an n-bit word."""
    return 2 + 8 * max(1, -(-n.bit_length() // 7))


def _encode(word: BitWord, mode: int, out: _BitWriter, bound: float = inf) -> bool:
    """Write the codeword of word under mode to out; False when LZ or BWT
    declines the word because its codeword cannot come out under bound."""
    out.write_bits(mode, 2)
    out.write_leb(word.n)
    if mode == MODE_RAW:
        out.write_bits(word.value, word.n)
    elif mode == MODE_BITAC:
        _encode_bitac(word, out)
    elif mode == MODE_BWT:
        return _encode_bwt(word, out, bound)
    else:
        return _encode_lz(word, out, bound)
    return True


def _encode_with_mode(word: BitWord, mode: int):
    out = _BitWriter()
    return Codeword(*out.getvalue()) if _encode(word, mode, out) else None


def compress(word: BitWord) -> Codeword:
    found = []
    for mode in _methods(word.n):
        out = _BitWriter()
        # the length to undercut; a smaller tag wins a tie
        bound = min((bits + (m > mode) for bits, m, _ in found), default=inf)
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
    if mode not in _methods(n):
        raise MalformedCodewordError("length out of range for method")
    if mode == MODE_RAW:
        if r.pos + n > cw.bit_length:
            raise MalformedCodewordError("raw payload truncated")
        value = r.read_bits(n)
    elif mode == MODE_BITAC:
        value = _decode_bitac(r, n)
    elif mode == MODE_BWT:
        value = _decode_bwt(r, n)
    else:
        value = _decode_lz(r, n)
    return BitWord(n, value)


# the oracle's memory, least recently used first: (n, value) maps to the
# exact codelength.  It holds at most _ORACLE_SIZE keys and _ORACLE_BITS
# key bits (the sum of their n): 2^18 keys of 1024 bits fill both at once
_ORACLE_SIZE = 1 << 18
_ORACLE_BITS = 1 << 28
_oracle: "OrderedDict[tuple[int, int], int]" = OrderedDict()
_oracle_bits = 0


def codelength(word: BitWord, below: "int | None" = None) -> int:
    """compress(word).bit_length, remembered by (n, value).

    Given below, the exact length when it is less than below, and
    otherwise some value of at least below (see the module docstring).
    """
    key = (word.n, word.value)
    known = _oracle.get(key)
    if known is not None:
        _oracle.move_to_end(key)
        return known
    if below is not None and not _may_undercut(word, below):
        return below
    length = compress(word).bit_length
    _remember(key, length)
    return length


def _remember(key: "tuple[int, int]", length: int):
    """Store a key the oracle does not hold yet."""
    global _oracle_bits
    _oracle[key] = length
    _oracle_bits += key[0]
    # a word holds at most MAX_WORD_BITS < _ORACLE_BITS bits, so the
    # new key itself is never evicted
    while len(_oracle) > _ORACLE_SIZE or _oracle_bits > _ORACLE_BITS:
        _oracle_bits -= _oracle.popitem(last=False)[0][0]


def _may_undercut(word: BitWord, below: int) -> bool:
    """False only when compress(word).bit_length >= below: raw and the
    bitac floor reach below, and LZ and BWT decline or complete at or
    above it.

    LZ and BWT run only when below is over their least length (see the
    module docstring), since at or under it their bounded pass would
    refuse the word anyway."""
    n = word.n
    modes = _methods(n)
    header = _header_bits(n)
    if header + n < below:
        return True
    if MODE_BITAC in modes and _bitac_floor(word) < below:
        return True
    for mode in (MODE_LZ, MODE_BWT):
        if mode not in modes:
            continue
        if mode == MODE_LZ and below <= header + _LZ_LEAST:
            continue
        if mode == MODE_BWT and _bwt_least_refuses(word, below):
            continue
        out = _BitWriter()
        if _encode(word, mode, out, below) and out.bit_length < below:
            return True
    return False


def _bwt_least_refuses(word: BitWord, below: int) -> bool:
    """True when below is at or under a least length of word's BWT
    codeword.  The O(1) bound takes one zero-run symbol per block.  The
    histogram bound, _bwt_least, runs only when below is at or under the
    most it can reach, the least length of blocks with a symbol for each
    byte."""
    header = _header_bits(word.n)
    bs = BWT_BLOCK_BITS // 8
    nbytes = (word.n + 7) // 8
    offsets = range(0, nbytes, bs)
    if below <= header + (16 + _ZLE_LEAST_ONE) * len(offsets):
        return True
    most = sum(16 + _zle_least(min(bs, nbytes - off, _ZLE_FREE)) for off in offsets)
    return below <= header + most and below <= _bwt_least(word)


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
    """Forget every exact length the oracle remembers, and the bitac
    checkpoints."""
    global _oracle_bits
    _oracle.clear()
    _oracle_bits = 0
    _bitac_recent.clear()
