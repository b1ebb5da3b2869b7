"""Fixed-length binary words and bit-level packing helpers.

A BitWord is an immutable sequence of bits x_1 ... x_n.  Internally the
bits are held as a single integer with x_1 as the most significant bit,
which makes lexicographic comparison of equal-length words the same as
integer comparison and keeps XOR / Hamming weight at C speed.
"""
from __future__ import annotations

import hashlib
from typing import Iterable


class BitWord:
    __slots__ = ("n", "value")

    def __init__(self, n: int, value: int):
        if n < 0:
            raise ValueError("bit length must be nonnegative")
        if value < 0 or value >> n:
            raise ValueError(f"value {value} does not fit in {n} bits")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *_):
        raise AttributeError("BitWord is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since __setattr__
        # blocks the default slot restore
        return BitWord, (self.n, self.value)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitWord":
        """The word x_1 ... x_n from any iterable of n integers 0 or 1.

        Bools and numpy integers count as integers; any other value
        raises ValueError, or TypeError for a non-integer equal to 0 or
        1.  Linear in n: one ASCII digit per bit, then one base-2 int().
        """
        digits = bytearray()
        for b in bits:
            if b not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            digits.append(48 + b)
        return cls(len(digits), int(digits, 2) if digits else 0)

    @classmethod
    def from_str(cls, s: str) -> "BitWord":
        s = "".join(s.split())
        if s and set(s) - {"0", "1"}:
            raise ValueError("bit string may contain only 0 and 1")
        return cls(len(s), int(s, 2) if s else 0)

    @classmethod
    def from_bytes(cls, data: bytes, n: int) -> "BitWord":
        """Unpack n bits from MSB-first packed bytes (extra pad bits ignored)."""
        nbytes = (n + 7) // 8
        if len(data) < nbytes:
            raise ValueError("not enough bytes for requested bit length")
        value = int.from_bytes(data[:nbytes], "big") >> (8 * nbytes - n)
        return cls(n, value)

    @classmethod
    def zeros(cls, n: int) -> "BitWord":
        return cls(n, 0)

    @classmethod
    def random(cls, rng, n: int) -> "BitWord":
        return cls(n, rng.getrandbits(n) if n else 0)

    # -- views ---------------------------------------------------------

    def to01(self) -> str:
        return format(self.value, f"0{self.n}b") if self.n else ""

    def to_bytes(self) -> bytes:
        """MSB-first packing; the last byte is zero-padded."""
        nbytes = (self.n + 7) // 8
        return (self.value << (8 * nbytes - self.n)).to_bytes(nbytes, "big")

    # -- operations -----------------------------------------------------

    def concat(self, other: "BitWord") -> "BitWord":
        return BitWord(self.n + other.n, (self.value << other.n) | other.value)

    def __xor__(self, other: "BitWord") -> "BitWord":
        if self.n != other.n:
            raise ValueError("XOR requires equal lengths")
        return BitWord(self.n, self.value ^ other.value)

    def weight(self) -> int:
        return self.value.bit_count()

    def flip(self, i: int) -> "BitWord":
        if not 0 <= i < self.n:
            raise IndexError("bit index out of range")
        return BitWord(self.n, self.value ^ (1 << (self.n - 1 - i)))

    def hamming(self, other: "BitWord") -> int:
        if self.n != other.n:
            raise ValueError("Hamming distance requires equal lengths")
        return (self.value ^ other.value).bit_count()

    def digest(self) -> str:
        h = hashlib.sha256(f"{self.n}:{self.value:x}".encode()).hexdigest()
        return h[:12]

    # -- protocol -------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitWord)
            and self.n == other.n
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.n, self.value))

    def __lt__(self, other: "BitWord") -> bool:
        # length-then-lexicographic; within one length this is plain
        # integer order because x_1 is the MSB
        if not isinstance(other, BitWord):
            return NotImplemented
        return (self.n, self.value) < (other.n, other.value)

    def __le__(self, other: "BitWord") -> bool:
        if not isinstance(other, BitWord):
            return NotImplemented
        return (self.n, self.value) <= (other.n, other.value)

    def __repr__(self) -> str:
        if self.n <= 64:
            return f"BitWord('{self.to01()}')"
        return f"BitWord(n={self.n}, value=0x{self.value:x})"

