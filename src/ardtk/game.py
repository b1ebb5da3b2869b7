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
"""
from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .bits import BitWord

LN2 = math.log(2)


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
    params: GameParams
    strategy: str
    seed: Optional[int]
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


def _as_int_set(alice_set, n: int) -> "frozenset[int]":
    vals = set()
    for w in alice_set:
        if isinstance(w, BitWord):
            if w.n != n:
                raise ValueError(f"set element has length {w.n}, expected {n}")
            vals.add(w.value)
        else:
            v = int(w)
            if not 0 <= v < 1 << n:
                raise ValueError("set element out of range")
            vals.add(v)
    return frozenset(vals)


def _greedy_marks(sets: "Sequence[frozenset[int]]", params: GameParams) -> "tuple[int, ...]":
    """Marks for move t = len(sets), given all of Alice's sets so far."""
    t = len(sets)
    block = largest_pow2_dividing(t)
    start = t - block          # block covers global indices start+1 .. t
    occurrences: Counter = Counter()
    for s in sets[start:]:
        occurrences.update(s)
    threshold = params.frequency_threshold
    target = {x for x, c in occurrences.items() if c * params.k >= threshold}
    marks: "list[int]" = []
    while target:
        best_p, best_cover = 0, -1
        for i in range(block):
            cover = len(sets[start + i] & target)
            if cover > best_cover:
                best_p, best_cover = start + i + 1, cover
        marks.append(best_p)
        target -= sets[best_p - 1]
    return tuple(marks)


def bob_deterministic_step(history, params: GameParams) -> "tuple[int, ...]":
    """Marks for the latest move; history lists Alice's sets oldest first.

    Accepts a GameTranscript or any sequence of word collections.  Pure
    function of the history: replaying it reproduces the transcript.
    """
    if isinstance(history, GameTranscript):
        sets = [_as_int_set(m.alice_set, params.n) for m in history.moves]
    else:
        sets = [_as_int_set(s, params.n) for s in history]
    if not sets:
        raise ValueError("history must include the current move's set")
    if len(sets) > params.max_moves:
        raise GameOverflowError(f"move {len(sets)} exceeds limit {params.max_moves}")
    return _greedy_marks(sets, params)


def bob_probabilistic_step(params: GameParams, rng) -> bool:
    """Coin flip: mark the newest set with probability 2^-m (n+1) ln 2."""
    if isinstance(rng, int):
        rng = random.Random(rng)
    return rng.random() < probabilistic_mark_p(params)


def play_game(
    alice: "Iterable",
    params: GameParams,
    strategy: str = "det",
    seed: Optional[int] = None,
) -> GameTranscript:
    """Run one full game and return the per-move transcript.

    alice yields collections of BitWords (or raw values).  Raises
    GameOverflowError on the 2^k-th set.
    """
    if strategy not in ("det", "prob"):
        raise ValueError("strategy must be 'det' or 'prob'")
    rng = random.Random(seed) if strategy == "prob" else None
    tr = GameTranscript(params=params, strategy=strategy, seed=seed)
    sets: "list[frozenset[int]]" = []
    counts: Counter = Counter()
    frequent: "set[int]" = set()
    covered: "set[int]" = set()
    threshold = params.frequency_threshold
    for raw in alice:
        t = len(sets) + 1
        if t > params.max_moves:
            raise GameOverflowError(
                f"adversary produced move {t}; limit is {params.max_moves}"
            )
        s = _as_int_set(raw, params.n)
        sets.append(s)
        for x in s:
            counts[x] += 1
            if counts[x] >= threshold:
                frequent.add(x)
        if strategy == "det":
            marks = _greedy_marks(sets, params)
        else:
            marks = (t,) if bob_probabilistic_step(params, rng) else ()
        for p in marks:
            covered |= sets[p - 1]
        win = frequent <= covered
        record = MoveRecord(
            alice_set=tuple(BitWord(params.n, v) for v in sorted(s)),
            marks=marks,
            win=win,
        )
        tr.moves.append(record)
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
    if params.n > 16:
        raise ValueError("exhaustive verification needs n <= 16")
    counts: Counter = Counter()
    frequent: "set[int]" = set()
    covered: "set[int]" = set()
    sets: "list[frozenset[int]]" = []
    threshold = params.frequency_threshold
    if len(tr.moves) > params.max_moves:
        return VerifyResult(False, params.max_moves + 1, None, "too many moves")
    for t, move in enumerate(tr.moves, start=1):
        s = _as_int_set(move.alice_set, params.n)
        sets.append(s)
        for x in s:
            counts[x] += 1
            if counts[x] >= threshold:
                frequent.add(x)
        for p in move.marks:
            if not 1 <= p <= t:
                return VerifyResult(False, t, None, f"mark {p} not yet produced")
            covered |= sets[p - 1]
        missed = frequent - covered
        if missed:
            return VerifyResult(
                False, t, BitWord(params.n, min(missed)), "frequent element uncovered"
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
# the streams used by the CLI and the fuzz campaigns)

def adversary_random(params: GameParams, seed: int):
    """Full-length stream of uniformly random subsets of {0,1}^n."""
    rng = random.Random(seed)
    size = 1 << params.n
    for _ in range(params.max_moves):
        mask = rng.getrandbits(size)
        yield frozenset(
            BitWord(params.n, v) for v in range(size) if (mask >> v) & 1
        )


def adversary_repeat(params: GameParams, seed: int):
    """One random singleton repeated for the whole game."""
    rng = random.Random(seed)
    w = BitWord.random(rng, params.n)
    for _ in range(params.max_moves):
        yield frozenset([w])


def adversary_balls(params: GameParams, seed: int = 0):
    """Radius-1 Hamming balls around every center in lexicographic order,
    truncated to the move allowance."""
    _ = seed  # enumeration order is fixed
    count = 0
    for v in range(1 << params.n):
        if count >= params.max_moves:
            return
        center = BitWord(params.n, v)
        yield frozenset([center] + [center.flip(i) for i in range(params.n)])
        count += 1


ADVERSARIES = {
    "random": adversary_random,
    "repeat": adversary_repeat,
    "balls": adversary_balls,
}
