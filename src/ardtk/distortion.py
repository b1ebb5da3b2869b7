"""Distortion families over fixed-length binary words.

Three families are supported:

    hamming    d(x, y) = |{i : x_i != y_i}| / n
    euclid     words read as binary fractions in [0, 1); d(x, y) = |x - y|
    list       destinations are list balls S containing x;
               d(x, S) = log2 |S|.  A list ball with a center c and an
               integer radius t is the suffix cylinder of the 2^t words
               sharing c's first n - t bits, so d(x, S) = t

One rule says which radii each family takes and what they mean:

    hamming    a radius in [0, 1/2]; a step is one bit flip
    euclid     a radius in [0, 1]; a step is 2^-n
    list       an integer radius t in 0..n; a step is t itself

A radius floors to whole steps (floor(delta n) flips, floor(delta 2^n)
grid steps, or t).  It is checked and floored once, by _steps, where it
enters; a Ball calls _steps when it is built and keeps the result as
Ball.steps, which everything after it reads.

Distances are exact rationals (fractions.Fraction).  Mismatched lengths
and non-membership give infinite distortion.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf, log2

from .bits import BitWord

HAMMING = "hamming"
EUCLID = "euclid"
LIST = "list"

_FAMILIES = (HAMMING, EUCLID, LIST)

# enumeration guard: hard cap on how many members we will materialize
MEMBER_ENUM_MAX_COUNT = 1 << 22


class SizeGuardError(ValueError):
    """Raised when a ball is too large to enumerate explicitly."""


@dataclass(frozen=True)
class DistortionSpec:
    family: str
    n: int

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1:
            raise ValueError("word length must be positive")


def _steps(spec: DistortionSpec, delta: Fraction) -> int:
    """The whole steps delta floors to under its family's rule (see the
    module docstring); ValueError when delta is out of the family's range.
    A float radius is read exactly, as the binary fraction it holds."""
    delta = Fraction(delta)
    if spec.family == HAMMING:
        if not 0 <= 2 * delta <= 1:
            raise ValueError("hamming radius must lie in [0, 1/2]")
        return int(delta * spec.n)
    if spec.family == EUCLID:
        if not 0 <= delta <= 1:
            raise ValueError("euclid radius must lie in [0, 1]")
        return int(delta * (1 << spec.n))
    if not (0 <= delta <= spec.n and delta == int(delta)):
        raise ValueError("list radius must be an integer in 0..n")
    return int(delta)


def _size(spec: DistortionSpec, steps: int) -> int:
    """Words in a ball of that many steps around an interior center."""
    if spec.family == HAMMING:
        return next(itertools.islice(_volumes(spec.n), steps, None))
    if spec.family == EUCLID:
        return min(2 * steps + 1, 1 << spec.n)
    return 1 << steps


def _shell(n: int, w: int):
    """The n-bit values of weight w, in itertools.combinations order of bits 1 << p."""
    return map(sum, itertools.combinations([1 << p for p in range(n)], w))


def _volumes(n: int):
    """Hamming-ball volumes sum_{j <= i} C(n, j) for i = 0, 1, ..., n, each
    binomial from the last by C(n, i + 1) = C(n, i) (n - i) / (i + 1)."""
    c = volume = 1
    for i in range(n + 1):
        yield volume
        c = c * (n - i) // (i + 1)
        volume += c


def distance(spec: DistortionSpec, x: BitWord, y):
    """Exact distortion between x and destination y (a word, or a list
    ball for the list family)."""
    if spec.family == LIST:
        return y.radius if isinstance(y, Ball) and y.contains(x) else inf
    if not isinstance(y, BitWord) or x.n != y.n or x.n != spec.n:
        return inf
    if spec.family == HAMMING:
        return Fraction(x.hamming(y), spec.n)
    return Fraction(abs(x.value - y.value), 1 << spec.n)


def ball_cardinality(spec: DistortionSpec, delta: Fraction) -> int:
    """Number of words in a ball of radius delta around an interior center.

    Hamming balls have center-independent cardinality; euclid balls match
    this count except when the interval clamps at 0 or 1.
    """
    return _size(spec, _steps(spec, delta))


def binary_entropy(p: float) -> float:
    """H(p) in bits; H(0) = H(1) = 0."""
    p = float(p)
    if not 0 <= p <= 1:
        raise ValueError("probability must lie in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -p * log2(p) - (1 - p) * log2(1 - p)


@dataclass(frozen=True)
class Ball:
    """A destination ball: a center and a radius, and the whole steps the
    radius floors to.

    A list ball's radius is an integer t in 0..n, and the ball is the
    suffix cylinder of the 2^t words sharing the center's first n - t
    bits.
    """

    spec: DistortionSpec
    radius: Fraction
    center: BitWord
    steps: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "steps", _steps(self.spec, self.radius))
        if self.center.n != self.spec.n:
            raise ValueError("center must match the word length")

    def value_range(self) -> "tuple[int, int]":
        """The least and greatest member values of a euclid ball, the
        interval clamped to the cube."""
        c = self.center.value
        return max(0, c - self.steps), min((1 << self.spec.n) - 1, c + self.steps)

    def cardinality(self) -> int:
        if self.spec.family == EUCLID:
            lo, hi = self.value_range()
            return hi - lo + 1
        return _size(self.spec, self.steps)

    def log_cardinality(self) -> float:
        return log2(self.cardinality())

    def contains(self, x: BitWord) -> bool:
        if x.n != self.spec.n:
            return False
        c, t = self.center.value, self.steps
        if self.spec.family == HAMMING:
            return (x.value ^ c).bit_count() <= t
        if self.spec.family == EUCLID:
            return abs(x.value - c) <= t
        return x.value >> t == c >> t

    def descriptor(self) -> BitWord:
        """Canonical description of the ball as a bit word.

        hamming: center bits followed by LEB128 of the flip-count radius.
        euclid:  center bits followed by LEB128 of the grid-step radius.
        list:    the n - t prefix bits followed by LEB128 of t (the full
                 cube: LEB128 of n alone).
        """
        if self.spec.family == LIST:
            t = self.steps
            prefix = BitWord(self.spec.n - t, self.center.value >> t)
            return prefix.concat(_leb_word(t))
        return self.center.concat(_leb_word(self.steps))

    def members(self) -> "list[BitWord]":
        """All members in lexicographic order (guarded against explosion)."""
        if self.cardinality() > MEMBER_ENUM_MAX_COUNT:
            raise SizeGuardError("ball too large to enumerate")
        n, c, r = self.spec.n, self.center.value, self.steps
        if self.spec.family == LIST:
            prefix = c >> r << r
            return [BitWord(n, prefix | s) for s in range(1 << r)]
        if self.spec.family == EUCLID:
            lo, hi = self.value_range()
            return [BitWord(n, v) for v in range(lo, hi + 1)]
        values = sorted(c ^ v for w in range(r + 1) for v in _shell(n, w))
        return [BitWord(n, v) for v in values]


def _leb_word(n: int) -> BitWord:
    groups = []
    while True:
        g = n & 0x7F
        n >>= 7
        groups.append(g | (0x80 if n else 0))
        if not n:
            break
    return BitWord.from_bytes(bytes(groups), 8 * len(groups))


def admissible_radii(spec: DistortionSpec) -> "list[Fraction]":
    """The radius grid a curve is swept over, in sweep order.

    hamming: every flip fraction i/n up to 1/2.  list: every integer
    log-cardinality 0..n.  euclid: 0, then the dyadic radii 2^-(n+1),
    2^-n, ..., 1/2 (the full i/2^n grid has 2^n points).  Curve searches
    seed each level from its index, so the order is part of the result.
    """
    n = spec.n
    if spec.family == HAMMING:
        return [Fraction(i, n) for i in range(n // 2 + 1)]
    if spec.family == EUCLID:
        return [Fraction(0)] + [Fraction(1, 1 << j) for j in range(n + 1, 0, -1)]
    return [Fraction(l) for l in range(n + 1)]


def radius_for_log_cardinality(spec: DistortionSpec, l: int) -> Fraction:
    """Smallest admissible radius whose ball has ceil(log2 size) >= l.

    For the hamming family at odd n the largest admissible radius covers
    exactly half the cube, so l = n is unreachable; the largest radius is
    returned in that case.
    """
    if l < 0 or l > spec.n:
        raise ValueError("level must lie in [0, n]")
    if spec.family == LIST:
        return Fraction(l)
    if spec.family == EUCLID:
        if l == 0:
            return Fraction(0)
        # smallest step count i with 2i + 1 > 2^(l-1)
        i = 1 if l == 1 else 1 << (l - 2)
        return Fraction(i, 1 << spec.n)
    n = spec.n
    for i, b in zip(range(n // 2 + 1), _volumes(n)):
        if (b - 1).bit_length() >= l:
            return Fraction(i, n)
    return Fraction(n // 2, n)
