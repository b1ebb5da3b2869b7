"""Covers of Hamming balls by smaller Hamming balls.

cover_ball(spec, delta, d, seed) constructs a set of centers whose
radius-d balls jointly cover the radius-delta ball around the all-zero
word.  The construction works shell by shell: for each shell at distance
Delta the small-ball centers are drawn uniformly at a fixed offset f
from the big ball's center, where f solves d + f(1 - 2d) = Delta on the
1/n grid.  A draw is kept only if it covers a still-uncovered shell
element, a final reverse pass drops centers made redundant by later
ones, and a last pass checks that every word of the big ball is
covered (CoverError names the least word missed).  The random part is
capped at n^(c+1) * b(delta)/b(d) draws per shell, with c =
DRAW_EXPONENT = 1, and reseeded up to a fixed retry limit, after which
construction fails loudly.

cover_space covers the whole cube with radius-d balls by gluing a cover
of the ball around 0^n to its bitwise complement.

First coverer.  The draws of a shell are kept exactly when each is the
first draw, in draw order, to cover some shell word: a word an earlier
draw covers was taken by the first such draw, which found it uncovered
and was kept.  So a run of draws is resolved at once, by marking each
uncovered word with its first coverer (np.minimum.at) and keeping the
distinct marks in order; the batches, draws, retries and kept centers
are those of one draw at a time.

Coverage pairs.  Every step asks which target words (a shell, the big
ball or the cube) lie within dn = d*n of which centers.  A target numbers
its words by slots read from two tables of at most 2^16 entries, one per
half-word (_Target), so no table has 2^n entries; tables are built on
first use.  A center's words are found either by enumerating its
radius-dn ball, center ^ B(dn), and ranking those in the target into
slots, at a cost of |B(dn)|, or by scanning the words in question: the
shell words still uncovered in the shell pass, the whole target when
pruning and verifying.  The smaller of the two sizes decides; there is
no constant to tune.  The shell pass resolves its draws in runs of 1,
2, 4, ... draws, so a scan shrinks as the first runs cover the shell.
Centers go through in chunks of at most _PAIR_CHUNK candidate pairs, or
of one center when its candidates alone are more, so no temporary holds
more words than that; pruning alone keeps its pairs, 4 bytes each, for
its reverse pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from math import ceil, comb
from typing import Optional

import numpy as np

from .bits import BitWord
from .distortion import (
    HAMMING,
    MEMBER_ENUM_MAX_COUNT,
    DistortionSpec,
    SizeGuardError,
    _shell,
    _size,
    _steps,
)

ALPHA_EXPONENT = 5          # the n^5 cap used in the size bound
DRAW_EXPONENT = 1           # the c in the n^(c+1) per-shell draw budget
MAX_RETRIES = 32
# candidate (center, word) pairs per chunk: over 30 cover-game ops, each
# op's output kept until the next returns, 2^14 left a peak RSS 1.6 MB
# above 2^13 (2^16 and 2^17 more still); 2^12 was no lower than 2^13
_PAIR_CHUNK = 1 << 13


class CoverError(RuntimeError):
    """Raised when the randomized construction exhausts its retries."""


def round_to_grid_half_down(t: Fraction, n: int) -> Fraction:
    """Nearest multiple of 1/n; exact halves round toward zero."""
    i = -((1 - 2 * t * n) // 2)  # ceil(t*n - 1/2) in exact arithmetic
    return Fraction(int(i), n)


def shell_offset(d: Fraction, delta_shell: Fraction, n: int) -> Fraction:
    """Sampling distance f for covering the shell at distance delta_shell.

    Solves d + f(1 - 2d) = delta_shell and rounds to the 1/n grid.  With
    d = 0 this is the shell distance itself.
    """
    d = Fraction(d)
    delta_shell = Fraction(delta_shell)
    if not 0 <= d < Fraction(1, 2):
        raise ValueError("small radius must lie in [0, 1/2)")
    t = (delta_shell - d) / (1 - 2 * d)
    return round_to_grid_half_down(t, n)


@dataclass
class ShellRecord:
    delta_shell: Fraction
    offset: Fraction
    centers_used: int
    draw_budget: int
    draws_used: int
    retries: int


@dataclass
class CoverResult:
    spec: DistortionSpec
    delta: Fraction
    d: Fraction
    centers: "list[BitWord]"
    shells: "list[ShellRecord]"
    seed: int
    size_bound: int
    volume_lower: int
    verified: bool = True          # construction raises CoverError otherwise

    @property
    def size(self) -> int:
        return len(self.centers)


def _check_pair(
    spec: DistortionSpec, delta: Fraction, d: Fraction, seed: int
) -> "tuple[int, int]":
    """The flip counts (deltan, dn) of the big and the small radius."""
    if spec.family != HAMMING:
        raise ValueError("covering is defined for the hamming family")
    n = spec.n
    if n > 32:
        raise ValueError("construction packs words into uint32; need n <= 32")
    deltan, dn = _steps(spec, delta), _steps(spec, d)
    # the small radius must land on the grid; the big one is floored like
    # every other ball radius
    if dn != d * n:
        raise ValueError("small radius must be a multiple of 1/n")
    if dn > deltan:
        raise ValueError("need d <= delta")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    # the shells and the verification enumerate the whole big ball
    if _size(spec, deltan) > MEMBER_ENUM_MAX_COUNT:
        raise SizeGuardError(
            f"ball of radius {delta} at n = {n} holds more than "
            f"{MEMBER_ENUM_MAX_COUNT} words"
        )
    return deltan, dn


def _sample_weighted(rng: np.random.Generator, n: int, w: int, count: int) -> np.ndarray:
    """count uniform n-bit values of weight w."""
    if w == 0:
        return np.zeros(count, dtype=np.uint32)
    r = rng.random((count, n))
    idx = np.argpartition(r, w - 1, axis=1)[:, :w]
    return np.bitwise_or.reduce(
        (np.uint32(1) << idx.astype(np.uint32)), axis=1
    ).astype(np.uint32)


@cache
def _low_order(low: int) -> np.ndarray:
    """The low-bit values sorted by weight, then value (read-only, shared)."""
    x = np.arange(1 << low, dtype=np.uint32)
    order = x[np.argsort(np.bitwise_count(x), kind="stable")]
    order.flags.writeable = False
    return order


@cache
def _low_rank(low: int) -> np.ndarray:
    """Each low-bit value's place in _low_order(low) (read-only, shared)."""
    rank = np.empty(1 << low, dtype=np.int32)
    rank[_low_order(low)] = np.arange(1 << low, dtype=np.int32)
    rank.flags.writeable = False
    return rank


class _Target:
    """The words v with wlo <= |v ^ center| <= whi, each at a slot.

    u = v ^ center splits into hi = u >> L and lo, its low L = min(n, 16)
    bits.  The slots run through hi in increasing order and, for one hi,
    through the lo that make |u| admissible, by weight and then value.
    In that order a slot is the sum of two table reads, one per half:
    start[hi] + rank[lo], where rank, lo's place among all L-bit values
    by weight then value, is shared by every target, and start is this
    target's; neither has more than 2^16 entries.  vals[slot] is v.
    """

    def __init__(self, n: int, center: int, wlo: int, whi: int):
        self.low = low = min(n, 16)
        self.center = np.uint32(center)
        self.wlo, self.whi = wlo, whi
        # before[a]: the L-bit values of weight below a
        before = np.cumsum([0] + [comb(low, a) for a in range(low + 1)])
        b = np.bitwise_count(np.arange(1 << (n - low), dtype=np.uint32)).astype(np.intp)
        first = before[np.clip(wlo - b, 0, low + 1)]
        count = np.maximum(before[np.clip(whi - b + 1, 0, low + 1)] - first, 0)
        start = np.cumsum(count) - count
        self.size = int(count.sum())
        # slots are int32: a target holds at most 2^24 words
        self.start = (start - first).astype(np.int32)
        self.vals = np.empty(self.size, dtype=np.uint32)
        order = _low_order(low)
        for hi in np.flatnonzero(count):
            piece = order[first[hi] : first[hi] + count[hi]] | np.uint32(hi << low)
            self.vals[start[hi] : start[hi] + count[hi]] = piece ^ self.center

    def locate(self, u: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """(inside, slots) for words given as u = v ^ center: which are
        targets, and the slots of those that are."""
        # take() gathers about 40 % faster than fancy indexing here
        rank = _low_rank(self.low)
        if len(self.start) == 1:
            # n <= 16: u is its low half, and the targets are the words
            # ranked from -start[0] on, so a slot is in range exactly for them
            slots = rank.take(u) + self.start[0]
            inside = slots.view(np.uint32) < self.size
            return inside, slots[inside]
        w = np.bitwise_count(u)
        inside = (w >= self.wlo) & (w <= self.whi)
        u = u[inside]
        return inside, self.start.take(u >> self.low) + rank.take(u & ((1 << self.low) - 1))


def _coverage(
    centers: np.ndarray,
    target: _Target,
    dn: int,
    offsets: np.ndarray,
    live: Optional[np.ndarray] = None,
):
    """Yield (per, slots) chunk by chunk: the target slots within dn of
    each center of the chunk, center after center, and how many there are
    for each; only slots the live mask marks, if one is given.

    offsets is the radius-dn ball around 0^n.  When it holds fewer words
    than a scan would touch (the live slots, or the whole target), each
    center's ball is enumerated as center ^ offsets and its target words
    are ranked into slots; otherwise those slots are scanned.  A chunk
    holds at most _PAIR_CHUNK candidate pairs, or one center's candidates
    when they alone are more.
    """
    scan = np.flatnonzero(live) if live is not None else None
    enumerate_ = len(offsets) < (target.size if scan is None else len(scan))
    if enumerate_:
        width = len(offsets)
    else:
        vals = target.vals if scan is None else target.vals[scan]
        width = len(vals)
    step = max(1, _PAIR_CHUNK // max(width, 1))
    for lo in range(0, len(centers), step):
        chunk = centers[lo : lo + step, None]
        if enumerate_:
            u = (chunk ^ target.center) ^ offsets
            inside, slots = target.locate(u)
            per = np.count_nonzero(inside, axis=1)
            if live is not None:
                keep = live.take(slots)
                rows = np.repeat(np.arange(len(chunk)), per)[keep]
                per = np.bincount(rows, minlength=len(chunk))
                slots = slots[keep]
        else:
            hit = np.bitwise_count(chunk ^ vals) <= dn
            per = np.count_nonzero(hit, axis=1)
            slots = np.flatnonzero(hit) - np.repeat(np.arange(len(chunk)) * width, per)
            slots = (slots if scan is None else scan[slots]).astype(np.int32)
        yield per, slots


def _cover_shell(
    n: int,
    shell: _Target,
    f_w: int,
    dn: int,
    draw_budget: int,
    seed_seq,
    offsets: np.ndarray,
) -> "tuple[list[int], int, int]":
    """Centers at weight f_w covering the shell; returns (centers,
    draws_used, retries).

    A draw is kept when it is the first to cover some shell word (see
    the module docstring).  The draws go in runs of 1, 2, 4, ... draws,
    counted on across batches, so a scanning run touches only the words
    the runs before it left."""
    for attempt in range(MAX_RETRIES):
        rng = np.random.default_rng(list(seed_seq) + [attempt])
        remaining = np.ones(shell.size, dtype=bool)
        centers: "list[int]" = []
        draws = 0
        run = 1
        while remaining.any():
            if draws >= draw_budget:
                break
            batch = int(min(256, draw_budget - draws))
            cands = _sample_weighted(rng, n, f_w, batch)
            draws += batch
            pos = 0
            while pos < batch and remaining.any():
                part = cands[pos : pos + run]
                per, slots = map(
                    np.concatenate, zip(*_coverage(part, shell, dn, offsets, remaining))
                )
                rows = np.repeat(np.arange(len(part)), per)
                first = np.full(shell.size, len(part))
                np.minimum.at(first, slots, rows)
                covered = first < len(part)
                centers.extend(part[np.unique(first[covered])].tolist())
                remaining &= ~covered
                pos, run = pos + run, 2 * run
        if not remaining.any():
            return centers, draws, attempt
    raise CoverError(
        f"shell at weight {shell.wlo} not covered within "
        f"{MAX_RETRIES} retries of {draw_budget} draws"
    )


def _prune(
    target: _Target, centers: "list[int]", dn: int, offsets: np.ndarray
) -> "list[int]":
    """Drop centers, latest first, whose every target word another kept
    center also covers.

    Each center's covered slots come from _coverage and are held, chunk
    by chunk, for the reverse pass: 4 bytes per (center, covered word)
    pair.  Before the pass reaches a chunk, every center of it that now
    covers a word no other kept center covers is skipped: counts only
    fall, so it can never be dropped.  A center covering no target word
    is kept too.
    """
    chunks = list(_coverage(np.array(centers, np.uint32), target, dn, offsets))
    counts = np.zeros(target.size, dtype=np.int32)
    for _, slots in chunks:
        np.add.at(counts, slots, np.int32(1))  # a Python 1 takes a slow path
    keep = np.ones(len(centers), dtype=bool)
    end = len(centers)
    for per, slots in reversed(chunks):
        end -= len(per)
        bounds = np.concatenate(([0], np.cumsum(per)))
        shared = np.zeros(len(per), dtype=bool)
        shared[per > 0] = np.minimum.reduceat(counts.take(slots), bounds[:-1][per > 0]) >= 2
        dropped = False  # until a drop in this chunk, shared is up to date
        for i in np.flatnonzero(shared)[::-1]:
            idx = slots[bounds[i] : bounds[i + 1]]
            if not dropped or counts.take(idx).min() >= 2:
                keep[end + i] = False
                counts[idx] -= 1
                dropped = True
    return [c for c, k in zip(centers, keep) if k]


def cover_ball(
    spec: DistortionSpec, delta: Fraction, d: Fraction, seed: int
) -> CoverResult:
    delta, d = Fraction(delta), Fraction(d)
    deltan, dn = _check_pair(spec, delta, d, seed)
    n = spec.n
    b_delta, b_d = _size(spec, deltan), _size(spec, dn)
    size_bound = n**ALPHA_EXPONENT * b_delta // b_d + 1
    volume_lower = ceil(b_delta / b_d)
    shells: "list[ShellRecord]" = []
    offsets = _Target(n, 0, 0, dn).vals  # the radius-dn ball around 0^n

    if deltan == dn:
        centers = [0]
    elif dn == 0:
        # radius-0 balls cover single points: every member is a center,
        # shell by shell in _shell order
        centers = []
        for w in range(deltan + 1):
            vals = list(_shell(n, w))
            centers.extend(vals)
            shells.append(
                ShellRecord(Fraction(w, n), Fraction(w, n), len(vals), len(vals), len(vals), 0)
            )
    else:
        centers = [0]
        budget = n ** (DRAW_EXPONENT + 1) * b_delta // b_d + 1
        for w in range(dn + 1, deltan + 1):
            delta_shell = Fraction(w, n)
            f = shell_offset(d, delta_shell, n)
            f_w = int(f * n)
            got, draws, retries = _cover_shell(
                n, _Target(n, 0, w, w), f_w, dn, budget, (seed, deltan, dn, w), offsets
            )
            centers.extend(got)
            shells.append(ShellRecord(delta_shell, f, len(got), budget, draws, retries))

    centers = _prune_and_verify(_Target(n, 0, 0, deltan), centers, dn, n, offsets)
    return CoverResult(
        spec=spec,
        delta=delta,
        d=d,
        centers=[BitWord(n, v) for v in centers],
        shells=shells,
        seed=seed,
        size_bound=size_bound,
        volume_lower=volume_lower,
    )


def _prune_and_verify(
    target: _Target, centers: "list[int]", dn: int, n: int, offsets: np.ndarray
) -> "list[int]":
    """Prune the centers (distinct radius-0 centers never overlap), then
    raise CoverError naming the least uncovered target word."""
    if dn > 0:
        centers = _prune(target, centers, dn, offsets)
    bad = _first_uncovered(target, centers, dn, offsets)
    if bad is not None:
        raise CoverError(f"constructed cover misses {BitWord(n, bad)!r}")
    return centers


def _first_uncovered(
    target: _Target, centers: "list[int]", dn: int, offsets: np.ndarray
) -> Optional[int]:
    """The least target word within dn of no center, or None."""
    covered = np.zeros(target.size, dtype=bool)
    for _, slots in _coverage(np.array(centers, np.uint32), target, dn, offsets):
        covered[slots] = True
    missing = target.vals[~covered]
    return int(missing.min()) if missing.size else None


def cover_space(spec: DistortionSpec, d: Fraction, seed: int) -> CoverResult:
    """Cover {0,1}^n by radius-d balls: a ball cover around 0^n plus its
    bitwise complement (which covers the ball around 1^n)."""
    d = Fraction(d)
    n = spec.n
    half = cover_ball(spec, Fraction(1, 2), d, seed)
    mask = (1 << n) - 1
    vals: "list[int]" = []
    seen = set()
    for w in half.centers:
        for v in (w.value, w.value ^ mask):
            if v not in seen:
                seen.add(v)
                vals.append(v)
    dn = _steps(spec, d)
    b_d = _size(spec, dn)
    vals = _prune_and_verify(_Target(n, 0, 0, n), vals, dn, n, _Target(n, 0, 0, dn).vals)
    return CoverResult(
        spec=spec,
        delta=Fraction(1, 2),
        d=d,
        centers=[BitWord(n, v) for v in vals],
        shells=half.shells,
        seed=seed,
        size_bound=n**ALPHA_EXPONENT * (1 << n) // b_d + 1,
        volume_lower=ceil((1 << n) / b_d),
    )

