"""Online set-cover marking game.

Alice streams fewer than 2^k subsets of {0,1}^n.  After each of her
moves Bob may mark some of the sets produced so far; he wins if, after
every one of his moves, each word that has appeared in at least 2^m of
Alice's sets lies in some marked set.

Bob's deterministic strategy works on dyadic blocks: at move t he looks
at the last 2^j sets, where 2^j is the largest power of two dividing t,
collects the words hitting at least 2^m/k of that block, and greedily
marks block sets until those words are covered.  The greedy pass for a
block of size 2^j needs at most ceil(2^(j-m) * k * n * ln 2) marks, and
summing blocks gives mark_bound.

The probabilistic strategy marks each incoming set independently with
probability 2^(-m) * (n+1) * ln 2 (clamped to 1).  It wins after every
move with probability > 1/2 and stays below 2^(k-m+1) * (n+1) * ln 2
marks with probability > 1/2; both are separate coin-flip facts, so a
single run may satisfy either, both, or neither.

The engine holds Alice's sets in one of two forms, picked per game from
their sizes (_form).  When the sets average at least 2^n/512 words, so
that 2^n-bit masks take no more memory than frozensets would, each set is
one Python int, bit v set iff word v is in it: a move costs 2^n/8 bytes
(8 KiB at n = GAME_MAX_N = 16) whatever the set holds, word frequencies
are tallied bit-sliced (one int per counter bit, the carry out of the top
plane marking the words that reach the threshold), and greedy cover sizes
are popcounts of mask intersections.  Sparser streams, such as the repeat
and balls adversaries at n = 16, keep frozensets of word values and a
dict of counts, whose cost follows the set sizes.  Both forms give the
same marks.  The transcript lists each set as a sorted tuple of BitWords.

Each set is read once at Python speed.  The generated adversaries and
the CLI's adversary file yield each set as its transcript tuple, its
BitWords in ascending value order; play_game keeps such a tuple as it
is after one pass over its values, so no word is hashed and no set is
sorted again.  It checks the elements of any other set with _as_words;
a set of at least 2^n/16 words is then ordered and packed into its mask
at C speed from 2^n flags, and a smaller one is sorted by sorted().
Until the form is picked a set keeps only its mask, if it holds at least
2^n/16 words, or else the tuple of its values, never more than its
transcript tuple's size.  verify_transcript takes the values of a tuple
of BitWords of length n in the same one pass and sends any other set
through _as_words.
"""
from __future__ import annotations

import heapq
import math
import operator
import random
from dataclasses import dataclass, field
from typing import Collection, Iterable, Optional, Sequence, Sized

import numpy as np

from .bits import BitWord
from .distortion import MEMBER_ENUM_MAX_COUNT

LN2 = math.log(2)

# largest word length the game plays or verifies: the frequency tally and
# a set's mask hold 2^n bits
GAME_MAX_N = 16

# bytes a frozenset of word values takes per word, about (CPython); see _form
_SET_BYTES_PER_WORD = 64


class GameOverflowError(RuntimeError):
    """Alice exceeded her 2^k - 1 move allowance."""


@dataclass(frozen=True)
class GameParams:
    n: int
    k: int
    m: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("word length n must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0 <= self.m <= self.k:
            raise ValueError("need 0 <= m <= k")

    @property
    def max_moves(self) -> int:
        return (1 << self.k) - 1

    @property
    def frequency_threshold(self) -> int:
        return 1 << self.m


@dataclass(frozen=True)
class MoveRecord:
    alice_set: "tuple[BitWord, ...]"
    marks: "tuple[int, ...]"   # 1-based move indices, in marking order
    win: bool


@dataclass
class GameTranscript:
    strategy: str
    moves: "list[MoveRecord]" = field(default_factory=list)

    @property
    def total_marks(self) -> int:
        return sum(len(m.marks) for m in self.moves)

    @property
    def won(self) -> bool:
        return all(m.win for m in self.moves)


def largest_pow2_dividing(t: int) -> int:
    if t < 1:
        raise ValueError("t must be >= 1")
    return t & -t


def per_block_mark_cap(params: GameParams, block_size: int) -> int:
    """Greedy mark allowance for one block: ceil(block/2^m * k * n * ln 2)."""
    return math.ceil(block_size * 2.0**-params.m * params.k * params.n * LN2)


def mark_bound(params: GameParams) -> int:
    """Worst-case total marks of the deterministic strategy.

    Blocks of size 2^j are processed at most 2^(k-j) times each, so the
    total is sum over j < k of 2^(k-j) * ceil(2^(j-m) * k * n * ln 2).
    """
    return sum(
        (1 << (params.k - j)) * per_block_mark_cap(params, 1 << j)
        for j in range(params.k)
    )


def probabilistic_mark_p(params: GameParams) -> float:
    return min(1.0, 2.0**-params.m * (params.n + 1) * LN2)


def probabilistic_mark_cap(params: GameParams) -> float:
    """Claim on total marks of the coin-flip strategy: p * 2^(k+1)."""
    return 2.0 ** (params.k - params.m + 1) * (params.n + 1) * LN2


def _check_size(params: GameParams):
    if params.n > GAME_MAX_N:
        raise ValueError(f"the marking game needs n <= {GAME_MAX_N}, got {params.n}")


def _as_words(alice_set, n: int) -> "dict[int, BitWord]":
    """The words of one of Alice's sets, keyed by value and checked against n.

    The first element with each value is kept; an int element becomes a
    new BitWord.
    """
    words: "dict[int, BitWord]" = {}
    for w in reversed(list(alice_set)):     # the first element is stored last
        if not isinstance(w, BitWord):
            v = int(w)
            if not 0 <= v < 1 << n:
                raise ValueError("set element out of range")
            w = BitWord(n, v)
        elif w.n != n:
            raise ValueError(f"set element has length {w.n}, expected {n}")
        words[w.value] = w
    return words


def _pack(flags: np.ndarray) -> int:
    """The mask whose bit v is flags[v], for 2^n bool flags."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _mask_positions(mask: int, n: int) -> np.ndarray:
    """The positions of the set bits of a 2^n-bit mask, ascending."""
    data = np.frombuffer(mask.to_bytes(((1 << n) + 7) // 8, "little"), np.uint8)
    return np.flatnonzero(np.unpackbits(data, bitorder="little"))


class _Masks:
    """Sets as ints of 2^n bits, bit v set iff word v is in the set."""

    empty = int                 # empty(): a new empty set
    size = int.bit_count        # size(s): how many words s holds

    @staticmethod
    def make(values: "int | Collection[int]", n: int) -> int:
        """The mask of a set given by its word values, or by its mask."""
        if isinstance(values, int):
            return values
        flags = np.zeros(1 << n, bool)
        flags[np.fromiter(values, np.intp, len(values))] = True
        return _pack(flags)

    @staticmethod
    def missed(a: int, b: int) -> int:
        return a & ~b

    @staticmethod
    def least(s: int) -> int:
        return (s & -s).bit_length() - 1

    @staticmethod
    def counter(threshold: int, n: int):
        """add(s) counts one more set for every word in s and returns the
        words whose count reaches threshold with it.

        Bit-sliced: plane i holds bit i of every word's counter.  Counters
        start at 2^b - threshold in b = ceil(log2 threshold) planes, so a
        word carries out of the top plane on the threshold-th set that
        contains it.
        """
        b = (threshold - 1).bit_length()
        start = (1 << b) - threshold
        full = (1 << (1 << n)) - 1
        planes = [full if start >> i & 1 else 0 for i in range(b)]

        def add(s: int) -> int:
            carry = s
            for i, p in enumerate(planes):
                if not carry:
                    break
                planes[i] = p ^ carry
                carry &= p
            return carry

        return add


class _Sets:
    """Sets as frozensets of word values, tallied in a dict."""

    empty = set
    size = len
    least = min                 # least(s): the least word value in s

    @staticmethod
    def make(values: "int | Collection[int]", n: int) -> "frozenset[int]":
        """As _Masks.make."""
        if isinstance(values, int):
            values = _mask_positions(values, n).tolist()
        return frozenset(values)

    @staticmethod
    def missed(a: "set[int]", b: "set[int]") -> "set[int]":
        return a - b

    @staticmethod
    def counter(threshold: int, n: int):
        """As _Masks.counter, with one dict entry per word seen."""
        counts: "dict[int, int]" = {}

        def add(s: "frozenset[int]") -> "set[int]":
            reached = set()
            for v in s:
                c = counts[v] = counts.get(v, 0) + 1
                if c == threshold:
                    reached.add(v)
            return reached

        return add


def _form(alice_sets: "Sequence[Sized]", n: int):
    """_Masks if the sets' masks take no more memory than frozensets of their
    words would, else _Sets: masks for an average of at least 2^n/512 words
    a set."""
    words = sum(map(len, alice_sets))
    if len(alice_sets) << n <= 8 * _SET_BYTES_PER_WORD * words:
        return _Masks
    return _Sets


def _word_values(alice_set, n: int) -> "list[int] | None":
    """The values of a set's elements, in its order, in one pass when each
    is a BitWord of length n (a subclass is not); else None."""
    values = [w.value for w in alice_set if type(w) is BitWord and w.n == n]
    return values if len(values) == len(alice_set) else None


def _read_set(alice_set, n: int) -> "tuple[tuple[BitWord, ...], int | tuple[int, ...]]":
    """One of Alice's sets as its transcript tuple, the words sorted by
    value, and what is kept of it until its form is built: its mask when
    the set has at least 2^n/16 words, else the sorted tuple of its values.

    A tuple whose _word_values are strictly ascending is already its
    transcript tuple: it is kept as it is, after that one pass, and
    nothing is hashed or sorted.  A large one's order is checked by numpy
    on the array that then sets its flags; a small one's in Python, which
    is cheaper on a few words.

    Any other set goes through _as_words, the one check of the elements:
    a large set's 2^n flags give its ascending values (flatnonzero, no
    sort) and its 2^n-bit mask, at most 2 bytes a word where the tuple
    holds 8, and the flags are dropped at once; a smaller set is sorted
    by sorted().
    """
    values = _word_values(alice_set, n) if type(alice_set) is tuple else None
    if values is not None:
        if 16 * len(values) < 1 << n:
            if all(map(operator.lt, values, values[1:])):
                return alice_set, tuple(values)
        else:
            positions = np.array(values, np.intp)
            if (positions[1:] > positions[:-1]).all():
                flags = np.zeros(1 << n, bool)
                flags[positions] = True
                return alice_set, _pack(flags)
    words = _as_words(alice_set, n)
    if 16 * len(words) < 1 << n:
        values = tuple(sorted(words))
        return tuple(map(words.__getitem__, values)), values
    flags = np.zeros(1 << n, bool)
    flags[np.fromiter(words, np.intp, len(words))] = True
    ordered = tuple(map(words.__getitem__, np.flatnonzero(flags).tolist()))
    return ordered, _pack(flags)


def _transcript_values(alice_set, n: int) -> "list[int]":
    """The values of a transcript's set: one pass when every element is a
    BitWord of length n, else through _as_words."""
    values = _word_values(alice_set, n)
    return list(_as_words(alice_set, n)) if values is None else values


def _greedy_marks(sets: "Sequence", params: GameParams, form) -> "tuple[int, ...]":
    """Marks for move t = len(sets), given all of Alice's sets so far."""
    t = len(sets)
    block = largest_pow2_dividing(t)
    start = t - block          # block covers global indices start+1 .. t
    # words in at least ceil(2^m / k) block sets, i.e. count * k >= 2^m
    add = form.counter(-(-params.frequency_threshold // params.k), params.n)
    target = form.empty()
    for s in sets[start:]:
        target |= add(s)
    size = form.size
    # lazy greedy on a heap of (-cover, index, marks made when scored): a
    # cover scored before the last mark can only overstate, since covers
    # shrink with target, so a top whose cover is current is the first
    # maximum; a stale top is re-scored in place
    heap = [(-size(sets[i] & target), i, 0) for i in range(start, t)]
    heapq.heapify(heap)
    marks: "list[int]" = []
    while target:
        _, i, scored = heap[0]
        if scored < len(marks):
            heapq.heapreplace(heap, (-size(sets[i] & target), i, len(marks)))
            continue
        heapq.heappop(heap)
        marks.append(i + 1)
        target -= target & sets[i]     # drop the words it covers
    return tuple(marks)


def bob_probabilistic_step(params: GameParams, rng: random.Random) -> bool:
    """Coin flip: mark the newest set with probability 2^-m (n+1) ln 2."""
    return rng.random() < probabilistic_mark_p(params)


def play_game(
    alice: "Iterable",
    params: GameParams,
    strategy: str = "det",
    seed: Optional[int] = None,
) -> GameTranscript:
    """Run one full game and return the per-move transcript.

    alice yields collections of BitWords (or raw values).  The whole
    stream is read before Bob's first move, to pick the form the sets are
    held in; his marks at move t still depend on her first t sets only.
    Each set is read once (_read_set): its transcript tuple lists the
    first element with each value, sorted, and is the set itself when
    the set is a tuple of BitWords of length n in ascending value order.
    Until its form is built the set keeps its mask if it holds at least
    2^n/16 words, else the sorted tuple of its values, and never an
    intake dict.
    Raises GameOverflowError on the 2^k-th set, and ValueError before
    drawing any set when n > GAME_MAX_N.
    """
    _check_size(params)
    if strategy not in ("det", "prob"):
        raise ValueError("strategy must be 'det' or 'prob'")
    alice_sets: "list[tuple[BitWord, ...]]" = []
    kept: "list[int | tuple[int, ...]]" = []
    for raw in alice:
        if len(alice_sets) == params.max_moves:
            raise GameOverflowError(
                f"adversary produced move {params.max_moves + 1}; "
                f"limit is {params.max_moves}"
            )
        alice_set, values = _read_set(raw, params.n)
        alice_sets.append(alice_set)
        kept.append(values)
    form = _form(alice_sets, params.n)
    rng = random.Random(seed) if strategy == "prob" else None
    tr = GameTranscript(strategy=strategy)
    sets: "list" = []
    add = form.counter(params.frequency_threshold, params.n)
    frequent, covered = form.empty(), form.empty()
    for t, (alice_set, values) in enumerate(zip(alice_sets, kept), start=1):
        sets.append(form.make(values, params.n))
        frequent |= add(sets[-1])
        if strategy == "det":
            marks = _greedy_marks(sets, params, form)
        else:
            marks = (t,) if bob_probabilistic_step(params, rng) else ()
        for p in marks:
            covered |= sets[p - 1]
        win = not form.missed(frequent, covered)
        tr.moves.append(MoveRecord(alice_set=alice_set, marks=marks, win=win))
    return tr


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    move_index: Optional[int] = None
    element: Optional[BitWord] = None
    reason: str = ""

    def __bool__(self):
        return self.ok


def verify_transcript(tr: GameTranscript, params: GameParams) -> VerifyResult:
    """Replay a transcript from scratch and check the win condition after
    every move, mark causality, recorded win flags, and the total-marks
    bound (deterministic strategy only)."""
    _check_size(params)
    if len(tr.moves) > params.max_moves:
        return VerifyResult(False, params.max_moves + 1, None, "too many moves")
    form = _form([m.alice_set for m in tr.moves], params.n)
    add = form.counter(params.frequency_threshold, params.n)
    frequent, covered = form.empty(), form.empty()
    sets: "list" = []
    for t, move in enumerate(tr.moves, start=1):
        sets.append(form.make(_transcript_values(move.alice_set, params.n), params.n))
        frequent |= add(sets[-1])
        for p in move.marks:
            if not 1 <= p <= t:
                return VerifyResult(False, t, None, f"mark {p} not yet produced")
            covered |= sets[p - 1]
        missed = form.missed(frequent, covered)
        if missed:
            return VerifyResult(
                False, t, BitWord(params.n, form.least(missed)),
                "frequent element uncovered",
            )
        if not move.win:
            return VerifyResult(False, t, None, "recorded win flag is false")
    if tr.strategy == "det" and tr.total_marks > mark_bound(params):
        return VerifyResult(
            False, len(tr.moves), None,
            f"total marks {tr.total_marks} exceed bound {mark_bound(params)}",
        )
    return VerifyResult(True)


# ---------------------------------------------------------------------------
# adversary zoo (the game itself puts no constraints on Alice; these are
# the streams used by the CLI and the fuzz campaigns).  play_game reads a
# whole stream before Bob's first move, so each generated adversary
# refuses, before its first set, a stream whose sets would hold more than
# MEMBER_ENUM_MAX_COUNT words in all.

def _check_stream_words(words: int):
    if words > MEMBER_ENUM_MAX_COUNT:
        raise ValueError(
            f"adversary stream would hold up to {words} words, "
            f"over {MEMBER_ENUM_MAX_COUNT}"
        )


def adversary_random(params: GameParams, seed: int):
    """Full-length stream of uniformly random subsets of {0,1}^n, each a
    tuple of its words in ascending value order."""
    size = 1 << params.n
    _check_stream_words(params.max_moves * size)
    rng = random.Random(seed)
    words = [BitWord(params.n, v) for v in range(size)]
    for _ in range(params.max_moves):
        # bit v of the mask selects word v
        positions = _mask_positions(rng.getrandbits(size), params.n)
        yield tuple(map(words.__getitem__, positions.tolist()))


def adversary_repeat(params: GameParams, seed: int):
    """One random singleton, as a 1-tuple, repeated for the whole game."""
    _check_stream_words(params.max_moves)
    rng = random.Random(seed)
    w = BitWord.random(rng, params.n)
    for _ in range(params.max_moves):
        yield (w,)


def adversary_balls(params: GameParams, seed: int):
    """Radius-1 Hamming balls around every center in lexicographic order,
    truncated to the move allowance, each a tuple of its words in
    ascending value order; the seed is unused, since the order is fixed."""
    moves = min(1 << params.n, params.max_moves)
    _check_stream_words(moves * (params.n + 1))
    for v in range(moves):
        center = BitWord(params.n, v)
        ball = [center] + [center.flip(i) for i in range(params.n)]
        ball.sort(key=operator.attrgetter("value"))
        yield tuple(ball)


ADVERSARIES = {
    "random": adversary_random,
    "repeat": adversary_repeat,
    "balls": adversary_balls,
}
