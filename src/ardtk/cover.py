"""Covers of Hamming balls by smaller Hamming balls.

cover_ball(spec, delta, d, seed) constructs a set of centers whose
radius-d balls jointly cover the radius-delta ball around the all-zero
word.  The construction works shell by shell: for each shell at distance
Delta the small-ball centers are drawn uniformly at a fixed offset f
from the big ball's center, where f solves d + f(1 - 2d) = Delta on the
1/n grid.  A draw is kept only if it covers a still-uncovered shell
element, and a final reverse pass drops centers made redundant by later
ones.  The random part is capped at n^(c+1) * b(delta)/b(d) draws per
shell and reseeded up to a fixed retry limit, after which construction
fails loudly.

cover_space covers the whole cube with radius-d balls by gluing a cover
of the ball around 0^n to its bitwise complement.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb
from typing import Optional

import numpy as np

from .bits import BitWord
from .distortion import (
    HAMMING,
    MEMBER_ENUM_MAX_COUNT,
    Ball,
    DistortionSpec,
    SizeGuardError,
    _radius_steps,
    _shell,
    ball_cardinality,
)

ALPHA_EXPONENT = 5          # the n^5 cap used in the size bound
DEFAULT_DRAW_EXPONENT = 1   # the c in the n^(c+1) per-shell draw budget
MAX_RETRIES = 32
VERIFY_MAX_N = 24


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
    draw_exponent: int
    size_bound: int
    volume_lower: int
    verified: Optional[bool] = None

    @property
    def size(self) -> int:
        return len(self.centers)


def _check_pair(spec: DistortionSpec, delta: Fraction, d: Fraction, seed: int):
    if spec.family != HAMMING:
        raise ValueError("covering is defined for the hamming family")
    n = spec.n
    if n > 32:
        raise ValueError("construction packs words into uint32; need n <= 32")
    if not (0 <= d <= delta <= Fraction(1, 2)):
        raise ValueError("need 0 <= d <= delta <= 1/2")
    # the small radius must land on the grid; the big one is floored like
    # every other ball radius
    if (d * n).denominator != 1:
        raise ValueError("small radius must be a multiple of 1/n")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    # the shells and the verification enumerate the whole big ball
    if ball_cardinality(spec, delta) > MEMBER_ENUM_MAX_COUNT:
        raise SizeGuardError(
            f"ball of radius {delta} at n = {n} holds more than "
            f"{MEMBER_ENUM_MAX_COUNT} words"
        )


def _sample_weighted(rng: np.random.Generator, n: int, w: int, count: int) -> np.ndarray:
    """count uniform n-bit values of weight w."""
    if w == 0:
        return np.zeros(count, dtype=np.uint32)
    r = rng.random((count, n))
    idx = np.argpartition(r, w - 1, axis=1)[:, :w]
    return np.bitwise_or.reduce(
        (np.uint32(1) << idx.astype(np.uint32)), axis=1
    ).astype(np.uint32)


def _cover_shell(
    n: int,
    shell_vals: np.ndarray,
    f_w: int,
    dn: int,
    draw_budget: int,
    seed_seq,
) -> "tuple[list[int], int, int]":
    """Centers at weight f_w covering the shell values; returns
    (centers, draws_used, retries)."""
    for attempt in range(MAX_RETRIES):
        rng = np.random.default_rng(list(seed_seq) + [attempt])
        remaining = np.ones(len(shell_vals), dtype=bool)
        centers: "list[int]" = []
        draws = 0
        while remaining.any():
            if draws >= draw_budget:
                break
            batch = int(min(256, draw_budget - draws))
            cands = _sample_weighted(rng, n, f_w, batch)
            draws += batch
            rem_vals = shell_vals[remaining]
            rem_idx = np.flatnonzero(remaining)
            for c in cands:
                if rem_vals.size == 0:
                    break
                covered = np.bitwise_count(rem_vals ^ c) <= dn
                if covered.any():
                    centers.append(int(c))
                    keep = ~covered
                    rem_vals = rem_vals[keep]
                    rem_idx = rem_idx[keep]
            remaining[:] = False
            remaining[rem_idx] = True
        if not remaining.any():
            return centers, draws, attempt
    raise CoverError(
        f"shell at weight {int(shell_vals[0]).bit_count()} not covered within "
        f"{MAX_RETRIES} retries of {draw_budget} draws"
    )


def _prune(target_vals: np.ndarray, centers: "list[int]", dn: int) -> "list[int]":
    """Drop centers (latest first) whose coverage is already doubled up."""
    counts = np.zeros(len(target_vals), dtype=np.int64)
    # per center, the indices of the targets it covers: a radius-dn ball
    # holds far fewer words than the target ball, so these stay small
    covered_by = []
    for c in centers:
        idx = np.flatnonzero(np.bitwise_count(target_vals ^ np.uint32(c)) <= dn)
        covered_by.append(idx)
        counts[idx] += 1
    keep = [True] * len(centers)
    for i in range(len(centers) - 1, -1, -1):
        idx = covered_by[i]
        if idx.size and counts[idx].min() >= 2:
            keep[i] = False
            counts[idx] -= 1
    return [c for c, k in zip(centers, keep) if k]


def cover_ball(
    spec: DistortionSpec,
    delta: Fraction,
    d: Fraction,
    seed: int,
    draw_exponent: int = DEFAULT_DRAW_EXPONENT,
) -> CoverResult:
    delta, d = Fraction(delta), Fraction(d)
    _check_pair(spec, delta, d, seed)
    n = spec.n
    dn = _radius_steps(spec, d)
    deltan = _radius_steps(spec, delta)  # fractional big radii shrink to the grid
    b_delta = ball_cardinality(spec, delta)
    b_d = ball_cardinality(spec, d)
    size_bound = n**ALPHA_EXPONENT * b_delta // b_d + 1
    volume_lower = ceil(b_delta / b_d)
    shells: "list[ShellRecord]" = []
    # the target ball's values, shell by shell
    by_weight = [np.fromiter(_shell(n, w), np.uint32, comb(n, w)) for w in range(deltan + 1)]

    if deltan == dn:
        centers = [0]
    elif dn == 0:
        # radius-0 balls cover single points: every member is a center
        centers = []
        for w, vals in enumerate(by_weight):
            centers.extend(vals.tolist())
            shells.append(
                ShellRecord(Fraction(w, n), Fraction(w, n), len(vals), len(vals), len(vals), 0)
            )
    else:
        centers = [0]
        budget = n ** (draw_exponent + 1) * b_delta // b_d + 1
        for w in range(dn + 1, deltan + 1):
            delta_shell = Fraction(w, n)
            f = shell_offset(d, delta_shell, n)
            f_w = int(f * n)
            got, draws, retries = _cover_shell(
                n, by_weight[w], f_w, dn, budget, (seed, deltan, dn, w)
            )
            centers.extend(got)
            shells.append(ShellRecord(delta_shell, f, len(got), budget, draws, retries))

    verified = None
    if n <= VERIFY_MAX_N:
        target_vals = np.sort(np.concatenate(by_weight))
        centers = _prune_and_verify(target_vals, centers, dn, n)
        verified = True
    return CoverResult(
        spec=spec,
        delta=delta,
        d=d,
        centers=[BitWord(n, v) for v in centers],
        shells=shells,
        seed=seed,
        draw_exponent=draw_exponent,
        size_bound=size_bound,
        volume_lower=volume_lower,
        verified=verified,
    )


def _prune_and_verify(
    target_vals: np.ndarray, centers: "list[int]", dn: int, n: int
) -> "list[int]":
    """Prune the centers (distinct radius-0 centers never overlap), then
    raise CoverError naming the first uncovered target."""
    if dn > 0:
        centers = _prune(target_vals, centers, dn)
    bad = _first_uncovered(target_vals, centers, dn)
    if bad is not None:
        raise CoverError(f"constructed cover misses {BitWord(n, bad)!r}")
    return centers


def _first_uncovered(target_vals: np.ndarray, centers: "list[int]", dn: int):
    """The first target value within dn of no center, or None."""
    covered = np.zeros(len(target_vals), dtype=bool)
    for c in centers:
        covered |= np.bitwise_count(target_vals ^ np.uint32(c)) <= dn
        if covered.all():
            return None
    missing = target_vals[~covered]
    return int(missing[0]) if missing.size else None


def cover_space(
    spec: DistortionSpec,
    d: Fraction,
    seed: int,
    draw_exponent: int = DEFAULT_DRAW_EXPONENT,
) -> CoverResult:
    """Cover {0,1}^n by radius-d balls: a ball cover around 0^n plus its
    bitwise complement (which covers the ball around 1^n)."""
    d = Fraction(d)
    n = spec.n
    half = cover_ball(spec, Fraction(1, 2), d, seed, draw_exponent)
    mask = (1 << n) - 1
    vals: "list[int]" = []
    seen = set()
    for w in half.centers:
        for v in (w.value, w.value ^ mask):
            if v not in seen:
                seen.add(v)
                vals.append(v)
    b_d = ball_cardinality(spec, d)
    dn = _radius_steps(spec, d)
    verified = None
    if n <= VERIFY_MAX_N:
        target_vals = np.arange(1 << n, dtype=np.uint32)
        vals = _prune_and_verify(target_vals, vals, dn, n)
        verified = True
    return CoverResult(
        spec=spec,
        delta=Fraction(1, 2),
        d=d,
        centers=[BitWord(n, v) for v in vals],
        shells=half.shells,
        seed=seed,
        draw_exponent=draw_exponent,
        size_bound=n**ALPHA_EXPONENT * (1 << n) // b_d + 1,
        volume_lower=ceil((1 << n) / b_d),
        verified=verified,
    )


def verify_cover(target: Ball, centers, d: Fraction) -> "tuple[bool, Optional[BitWord]]":
    """Exhaustively check that every target member is within d of a center.

    Returns (ok, witness); the witness is the first uncovered member in
    lexicographic order.
    """
    n = target.spec.n
    if n > VERIFY_MAX_N:
        raise ValueError(f"verification is exhaustive; need n <= {VERIFY_MAX_N}")
    dn = _radius_steps(DistortionSpec(HAMMING, n), Fraction(d))
    target_vals = np.array([m.value for m in target.members()], dtype=np.uint32)
    bad = _first_uncovered(target_vals, [c.value for c in centers], dn)
    if bad is None:
        return True, None
    return False, BitWord(n, bad)
