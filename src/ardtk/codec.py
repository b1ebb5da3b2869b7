"""Lossless bit-string codec used as the description-length oracle.

Codeword layout (bit granular, MSB first):

    [2-bit method tag][LEB128 original bit length][method payload]

Methods:

    0  raw      the input bits verbatim
    1  bitac    adaptive binary arithmetic code, order-1 bit context
    2  bwt      block sort (BWT) over the packed bytes, move-to-front,
                zero-run coding, adaptive arithmetic code (257 symbols)
    3  lz       greedy byte-level LZ with unbounded window

compress() tries every method eligible for the input size and keeps the
shortest encoding (ties broken by the smaller tag).  The codec is one
fixed program with no settings: BWT blocks hold BWT_BLOCK_BITS (32768)
input bits, the arithmetic coder keeps a CODER_PRECISION (32) bit
state, and words longer than MAX_WORD_BITS (2^24) are refused by both
compress and decompress.  So codelength is a total deterministic
function of the input word alone.  The raw method bounds codelength(x)
by |x| plus a small header for every input; the lz method makes
concatenation duplicates cheap, which is what the conditional
codelength estimate relies on.
"""
from __future__ import annotations

from functools import lru_cache
from math import log2

from .bits import BitWord

MODE_RAW = 0
MODE_BITAC = 1
MODE_BWT = 2
MODE_LZ = 3

# method eligibility cutoffs, in input bits
_BITAC_MAX = 1024
_BWT_MIN = 256
_LZ_MIN = 64

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

    def read_bit(self) -> int:
        p = self.pos
        self.pos = p + 1
        if p >= self.bit_length:
            return 0
        return (self.data[p >> 3] >> (7 - (p & 7))) & 1

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


class _ArithmeticEncoder:
    __slots__ = ("low", "high", "pending", "out")

    def __init__(self, out: _BitWriter):
        self.low = 0
        self.high = _MASK
        self.pending = 0
        self.out = out

    def encode(self, cum_lo: int, cum_hi: int, total: int):
        low, high = self.low, self.high
        span = high - low + 1
        high = low + span * cum_hi // total - 1
        low = low + span * cum_lo // total
        pending = self.pending
        out = self.out
        while True:
            # a settled bit goes out with its pending opposite bits
            if high < _HALF:
                out.write_bits((1 << pending) - 1, pending + 1)
                pending = 0
            elif low >= _HALF:
                out.write_bits(1 << pending, pending + 1)
                pending = 0
                low -= _HALF
                high -= _HALF
            elif low >= _QUARTER and high < _HALF + _QUARTER:
                pending += 1
                low -= _QUARTER
                high -= _QUARTER
            else:
                break
            low = (low << 1) & _MASK
            high = ((high << 1) | 1) & _MASK
        self.low, self.high, self.pending = low, high, pending

    def finish(self):
        # classic termination: the emitted prefix pins the value inside the
        # final interval no matter what the reader pads afterwards
        pending = self.pending + 1
        bits = (1 << pending) - 1 if self.low < _QUARTER else 1 << pending
        self.out.write_bits(bits, pending + 1)


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
        # finish() wrote only two
        self.inp.pos -= CODER_PRECISION - 2

    def decode_target(self, total: int) -> int:
        span = self.high - self.low + 1
        return ((self.code - self.low + 1) * total - 1) // span

    def consume(self, cum_lo: int, cum_hi: int, total: int):
        low, high = self.low, self.high
        span = high - low + 1
        high = low + span * cum_hi // total - 1
        low = low + span * cum_lo // total
        code = self.code
        inp = self.inp
        while True:
            if high < _HALF:
                pass
            elif low >= _HALF:
                low -= _HALF
                high -= _HALF
                code -= _HALF
            elif low >= _QUARTER and high < _HALF + _QUARTER:
                low -= _QUARTER
                high -= _QUARTER
                code -= _QUARTER
            else:
                break
            low = (low << 1) & _MASK
            high = ((high << 1) | 1) & _MASK
            code = ((code << 1) | inp.read_bit()) & _MASK
        self.low, self.high, self.code = low, high, code


_FENWICK_INC = 32           # count added per coded symbol
_FENWICK_LIMIT = 1 << 16    # total above which every count is halved


class _FenwickModel:
    """Adaptive frequency table over a fixed alphabet, Fenwick-backed."""

    __slots__ = ("size", "tree", "total")

    def __init__(self, size: int):
        self.size = size
        self._rebuild([1] * size)

    def _rebuild(self, counts):
        size = self.size
        tree = [0] * (size + 1)
        for i, c in enumerate(counts):
            j = i + 1
            while j <= size:
                tree[j] += c
                j += j & -j
        self.tree = tree
        self.total = sum(counts)

    def _prefix(self, i: int) -> int:
        # sum of counts[0:i]
        tree = self.tree
        s = 0
        while i:
            s += tree[i]
            i -= i & -i
        return s

    def interval(self, sym: int):
        lo = self._prefix(sym)
        hi = lo + self._count(sym)
        return lo, hi

    def _count(self, sym: int) -> int:
        s = self.tree[sym + 1]
        parent = sym & (sym + 1)
        i = sym
        while i != parent:
            s -= self.tree[i]
            i &= i - 1
        return s if sym else self.tree[1]

    def find(self, target: int) -> "tuple[int, int]":
        """Symbol whose cumulative interval contains target, plus cum low."""
        tree = self.tree
        idx = 0
        step = 1
        while step * 2 <= self.size:
            step *= 2
        acc = 0
        while step:
            nxt = idx + step
            if nxt <= self.size and acc + tree[nxt] <= target:
                acc += tree[nxt]
                idx = nxt
            step >>= 1
        return idx, acc

    def update(self, sym: int):
        i = sym + 1
        tree = self.tree
        size = self.size
        while i <= size:
            tree[i] += _FENWICK_INC
            i += i & -i
        self.total += _FENWICK_INC
        if self.total > _FENWICK_LIMIT:
            counts = [max(1, (self._count(s) + 1) // 2) for s in range(size)]
            self._rebuild(counts)


# ---------------------------------------------------------------------------
# method 1: adaptive binary arithmetic coding with order-1 context


def _encode_bitac(word: BitWord, out: _BitWriter):
    enc = _ArithmeticEncoder(out)
    c = [[1, 1], [1, 1]]  # counts per previous-bit context
    prev = 0
    n, value = word.n, word.value
    for i in range(n - 1, -1, -1):
        b = (value >> i) & 1
        c0, c1 = c[prev]
        total = c0 + c1
        if b:
            enc.encode(c0, total, total)
        else:
            enc.encode(0, c0, total)
        c[prev][b] += 1
        if total + 1 >= (1 << 14):
            c[prev][0] = (c[prev][0] + 1) // 2
            c[prev][1] = (c[prev][1] + 1) // 2
        prev = b
    enc.finish()


def _decode_bitac(r: _BitReader, n: int) -> int:
    dec = _ArithmeticDecoder(r)
    c = [[1, 1], [1, 1]]
    prev = 0
    value = 0
    for _ in range(n):
        c0, c1 = c[prev]
        total = c0 + c1
        b = 1 if dec.decode_target(total) >= c0 else 0
        if b:
            dec.consume(c0, total, total)
        else:
            dec.consume(0, c0, total)
        c[prev][b] += 1
        if total + 1 >= (1 << 14):
            c[prev][0] = (c[prev][0] + 1) // 2
            c[prev][1] = (c[prev][1] + 1) // 2
        prev = b
        value = (value << 1) | b
    return value


# ---------------------------------------------------------------------------
# method 2: BWT + MTF + zero-run coding + adaptive arithmetic coding

_ZLE_RUNA = 0
_ZLE_RUNB = 1
_ZLE_ALPHABET = 257  # two run digits plus literals 1..255 shifted up by one


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


def _entropy_bits(syms) -> float:
    counts = {}
    for s in syms:
        counts[s] = counts.get(s, 0) + 1
    n = len(syms)
    h = 0.0
    for c in counts.values():
        p = c / n
        h -= p * log2(p)
    return h * n


def _encode_bwt(word: BitWord, out: _BitWriter) -> bool:
    """Returns False when the entropy pre-gate predicts a hopeless encode."""
    packed = word.to_bytes()
    bs = BWT_BLOCK_BITS // 8
    for off in range(0, len(packed), bs):
        block = packed[off : off + bs]
        last, idx = _bwt_encode(block)
        syms = _zle_encode(_mtf_encode(last))
        # incompressible blocks would only waste coder time; let raw win
        if _entropy_bits(syms) + 64 > 8 * len(block):
            return False
        out.write_leb(idx)
        out.write_leb(len(syms))
        enc = _ArithmeticEncoder(out)
        model = _FenwickModel(_ZLE_ALPHABET)
        for s in syms:
            lo, hi = model.interval(s)
            enc.encode(lo, hi, model.total)
            model.update(s)
        enc.finish()
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
        if count > 16 * blen + 64:
            raise MalformedCodewordError("implausible symbol count")
        dec = _ArithmeticDecoder(r)
        model = _FenwickModel(_ZLE_ALPHABET)
        syms = []
        for _ in range(count):
            target = dec.decode_target(model.total)
            sym, lo = model.find(target)
            dec.consume(lo, lo + model._count(sym), model.total)
            model.update(sym)
            syms.append(sym)
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


def _encode_with_mode(word: BitWord, mode: int):
    out = _BitWriter()
    out.write_bits(mode, 2)
    out.write_leb(word.n)
    if mode == MODE_RAW:
        out.write_bits(word.value, word.n)
    elif mode == MODE_BITAC:
        _encode_bitac(word, out)
    elif mode == MODE_BWT:
        if not _encode_bwt(word, out):
            return None
    else:
        _encode_lz(word, out)
    return Codeword(*out.getvalue())


def compress(word: BitWord) -> Codeword:
    n = word.n
    if n > MAX_WORD_BITS:
        raise ValueError(f"word of {n} bits exceeds MAX_WORD_BITS = {MAX_WORD_BITS}")
    modes = [MODE_RAW]
    if 1 <= n <= _BITAC_MAX:
        modes.append(MODE_BITAC)
    if n >= _BWT_MIN:
        modes.append(MODE_BWT)
    if n >= _LZ_MIN:
        modes.append(MODE_LZ)
    best = None
    for mode in modes:
        cw = _encode_with_mode(word, mode)
        if cw is not None and (best is None or cw.bit_length < best.bit_length):
            best = cw
    return best


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
