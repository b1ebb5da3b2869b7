"""Distortion families over fixed-length binary words.

Three families are supported:

    hamming    d(x, y) = |{i : x_i != y_i}| / n, radius 0..1/2
    euclid     words read as binary fractions in [0, 1); d(x, y) = |x - y|
    list       destinations are list balls S containing x;
               d(x, S) = log2 |S|.  A list ball with a center c and an
               integer radius t is the suffix cylinder of the 2^t words
               sharing c's first n - t bits, so d(x, S) = t

Distances are exact rationals (fractions.Fraction).  Mismatched lengths
and non-membership give infinite distortion.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
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


def _check_radius(spec: DistortionSpec, delta: Fraction):
    if spec.family == HAMMING:
        if not 0 <= delta <= Fraction(1, 2):
            raise ValueError("hamming radius must lie in [0, 1/2]")
    elif spec.family == EUCLID:
        if not 0 <= delta <= 1:
            raise ValueError("euclid radius must lie in [0, 1]")
    else:
        if delta < 0:
            raise ValueError("list radius must be nonnegative")


def _radius_steps(spec: DistortionSpec, delta: Fraction) -> int:
    """Whole steps a radius floors to: bit flips (hamming) or grid steps
    of 2^-n (euclid)."""
    if spec.family == HAMMING:
        return int(delta * spec.n)
    return int(delta * (1 << spec.n))


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
    delta = Fraction(delta)
    _check_radius(spec, delta)
    n = spec.n
    if spec.family == HAMMING:
        return next(itertools.islice(_volumes(n), _radius_steps(spec, delta), None))
    if spec.family == EUCLID:
        return min(2 * _radius_steps(spec, delta) + 1, 1 << n)
    if delta != int(delta):
        raise ValueError("list radius must be an integer log-cardinality")
    return 1 << int(delta)


def binary_entropy(p: float) -> float:
    """H(p) in bits; H(0) = H(1) = 0."""
    p = float(p)
    if not 0 <= p <= 1:
        raise ValueError("probability must lie in [0, 1]")
    if p in (0.0, 1.0):
        return 0.0
    return -p * log2(p) - (1 - p) * log2(1 - p)


def _ball_value_range(spec: DistortionSpec, center: BitWord, delta: Fraction):
    """Clamped [lo, hi] integer grid range of a euclid ball."""
    steps = _radius_steps(spec, delta)
    lo = max(0, center.value - steps)
    hi = min((1 << spec.n) - 1, center.value + steps)
    return lo, hi


@dataclass(frozen=True)
class Ball:
    """A destination ball: a center and a radius.

    A list ball's radius is an integer t in 0..n, and the ball is the
    suffix cylinder of the 2^t words sharing the center's first n - t
    bits.
    """

    spec: DistortionSpec
    radius: Fraction
    center: BitWord

    def __post_init__(self):
        _check_radius(self.spec, self.radius)
        if self.center.n != self.spec.n:
            raise ValueError("center must match the word length")
        if self.spec.family == LIST and not (
            self.radius == int(self.radius) <= self.spec.n
        ):
            raise ValueError("cylinder radius must be an integer in 0..n")

    def cardinality(self) -> int:
        if self.spec.family == HAMMING:
            return ball_cardinality(self.spec, self.radius)
        if self.spec.family == EUCLID:
            lo, hi = _ball_value_range(self.spec, self.center, self.radius)
            return hi - lo + 1
        return 1 << int(self.radius)

    def log_cardinality(self) -> float:
        return log2(self.cardinality())

    def contains(self, x: BitWord) -> bool:
        if self.spec.family == LIST:
            t = int(self.radius)
            return x.n == self.spec.n and x.value >> t == self.center.value >> t
        return distance(self.spec, x, self.center) <= self.radius

    def descriptor(self) -> BitWord:
        """Canonical description of the ball as a bit word.

        hamming: center bits followed by LEB128 of the flip-count radius.
        euclid:  center bits followed by LEB128 of the grid-step radius.
        list:    the n - t prefix bits followed by LEB128 of t (the full
                 cube: LEB128 of n alone).
        """
        if self.spec.family == LIST:
            t = int(self.radius)
            prefix = BitWord(self.spec.n - t, self.center.value >> t)
            return prefix.concat(_leb_word(t))
        return self.center.concat(_leb_word(_radius_steps(self.spec, self.radius)))

    def members(self) -> "list[BitWord]":
        """All members in lexicographic order (guarded against explosion)."""
        if self.cardinality() > MEMBER_ENUM_MAX_COUNT:
            raise SizeGuardError("ball too large to enumerate")
        spec = self.spec
        n, c = spec.n, self.center.value
        if spec.family == LIST:
            t = int(self.radius)
            prefix = c >> t << t
            return [BitWord(n, prefix | s) for s in range(1 << t)]
        if spec.family == EUCLID:
            lo, hi = _ball_value_range(spec, self.center, self.radius)
            return [BitWord(n, v) for v in range(lo, hi + 1)]
        r = _radius_steps(spec, self.radius)
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
