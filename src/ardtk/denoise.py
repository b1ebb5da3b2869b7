"""Denoising as rate selection on a distortion-rate curve.

A lossy description of a word at the right rate keeps the structure and
drops the noise.  The pipeline here makes that operational: build the
word's distortion-rate trade-off with the compressor as the cost
oracle, find the knee where the curve stops paying for extra rate, and
return the best candidate at that knee.  The rest of the module scores
how believable the result is: a residual that looks like a uniform draw
from a small ball is noise, one that does not is discarded signal.

Fit is measured two ways.  The deficiency of x in a ball compares
log2 |ball| against the bits the codec needs for x once the ball's
descriptor is free side information; near zero means x is unremarkable
in the ball.  The sufficiency gap adds the descriptor's own cost and
compares against describing x outright.  Both inherit the codec's
container overhead, so small-n values skew negative by a few bits.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .bits import BitWord
from .codec import codelength, conditional_codelength
from .distortion import HAMMING, Ball, DistortionSpec
from .rdsearch import CurveEstimate, distortion_rate_curve

# residual codelength must reach this fraction of log2 b(observed flip
# fraction) before the residual is accepted as noise-like
RESIDUAL_FLOOR_FACTOR = 0.8

MIN_CROSS_SIDE = 8
COLLINEAR_TOL = 1e-9


class DegenerateCurveError(ValueError):
    """The curve has no bend to pick a knee from."""


# ---------------------------------------------------------------------------
# fit diagnostics

@dataclass(frozen=True)
class DeficiencyEstimate:
    log_cardinality: float
    conditional_bits: int
    value: float                 # log_cardinality - conditional_bits


def deficiency_estimate(x: BitWord, ball: Ball) -> DeficiencyEstimate:
    """How atypical x is inside the ball, in bits.

    The conditioning object is the ball's canonical descriptor.  Typical
    members land near or below zero, special ones (the center of a big
    ball, say) land high.
    """
    if not ball.contains(x):
        raise ValueError("x is not a member of the ball")
    bits = conditional_codelength(x, ball.descriptor())
    log_size = ball.log_cardinality()
    return DeficiencyEstimate(
        log_cardinality=log_size,
        conditional_bits=bits,
        value=log_size - bits,
    )


def sufficiency_gap(x: BitWord, ball: Ball) -> float:
    """descriptor bits + log2 |ball| - codelength(x).

    Small gap: the two-part description (ball, index inside it) costs
    about what describing x directly costs, so the ball captures all
    the structure the codec can see.
    """
    if not ball.contains(x):
        raise ValueError("x is not a member of the ball")
    return (
        codelength(ball.descriptor())
        + ball.log_cardinality()
        - codelength(x)
    )


# ---------------------------------------------------------------------------
# knee detection

@dataclass(frozen=True)
class Knee:
    rate: float
    distortion: float
    index: int                   # position in the curve's point list
    degenerate: bool


def knee_detect(curve: CurveEstimate, anchor_rate: Optional[float] = None) -> Knee:
    """Corner of the rate/distortion trade-off.

    Both axes are scaled to the unit square, and the point farthest
    from the chord joining the first and last points wins; ties break
    toward smaller rate.  anchor_rate, when beyond the measured range,
    extends the chord to (anchor_rate, min distortion) so that curves
    whose cheap tail is short still bend; the anchor itself is never
    returned.  A curve whose points are collinear has no corner and
    comes back flagged degenerate at the smallest rate; a curve with no
    rate or distortion extent at all is an error.
    """
    pts = []
    for i, p in enumerate(curve.points):
        if p.candidate is None:
            continue
        r, d = float(p.bits), float(p.distortion)
        if math.isfinite(r):
            pts.append((r, d, i))
    pts.sort(key=lambda t: (t[0], t[1]))
    geom = [(r, d) for r, d, _ in pts]
    if anchor_rate is not None and geom and float(anchor_rate) > geom[-1][0]:
        geom.append((float(anchor_rate), min(d for _, d in geom)))
    if len(geom) < 3:
        raise ValueError("need at least 3 curve points")
    r0, d0 = geom[0]
    r1, d1 = geom[-1]
    rspan = r1 - r0
    dlo = min(d for _, d in geom)
    dspan = max(d for _, d in geom) - dlo
    if rspan <= 0 or dspan <= 0:
        raise DegenerateCurveError("curve has no extent to bend over")
    ax, ay = 0.0, (d0 - dlo) / dspan
    bx, by = 1.0, (d1 - dlo) / dspan
    chord = math.hypot(bx - ax, by - ay)
    best = None
    best_dist = -1.0
    for r, d, i in pts:
        u = (r - r0) / rspan
        v = (d - dlo) / dspan
        dist = abs((bx - ax) * (ay - v) - (ax - u) * (by - ay)) / chord
        if dist > best_dist:
            best_dist = dist
            best = (r, d, i)
    if best_dist <= COLLINEAR_TOL:
        r, d, i = pts[0]
        return Knee(rate=r, distortion=d, index=i, degenerate=True)
    r, d, i = best
    return Knee(rate=r, distortion=d, index=i, degenerate=False)


# ---------------------------------------------------------------------------
# bitmap helpers

def majority_filter(word: BitWord, width: int) -> BitWord:
    """One round of 3x3 majority vote on a row-major bitmap; cells
    outside the image do not vote and voting ties keep the pixel."""
    n = word.n
    if width < 1 or n % width:
        raise ValueError("width must divide the word length")
    height = n // width
    cur = np.unpackbits(np.frombuffer(word.to_bytes(), np.uint8), count=n)
    cur = cur.reshape(height, width)
    # the voters of each cell: the in-image cells of its 3x3 box
    total = _box_sums(np.ones_like(cur))
    ones = _box_sums(cur)
    cur = np.where(2 * ones > total, 1, np.where(2 * ones < total, 0, cur))
    return BitWord.from_bytes(np.packbits(cur.astype(np.uint8)).tobytes(), n)


def _box_sums(img: np.ndarray) -> np.ndarray:
    """The sum over each cell's 3x3 box, the cells outside img read as 0."""
    p = np.zeros((img.shape[0] + 2, img.shape[1] + 2), np.int16)
    p[1:-1, 1:-1] = img
    rows = p[:-2] + p[1:-1] + p[2:]
    return rows[:, :-2] + rows[:, 1:-1] + rows[:, 2:]


def make_noisy_cross(side: int, flip_fraction, seed: int):
    """A centered plus-shaped bitmap and a copy with random flips.

    Arm thickness is side/8 rounded up; exactly
    floor(flip_fraction * side^2) distinct positions get flipped.
    Returns (clean, noisy) as row-major words of side^2 bits.
    """
    if side < MIN_CROSS_SIDE:
        raise ValueError(f"side must be >= {MIN_CROSS_SIDE}")
    frac = Fraction(flip_fraction)
    if not 0 <= frac <= Fraction(1, 2):
        raise ValueError("flip fraction must lie in [0, 1/2]")
    thickness = -(-side // 8)
    lo = (side - thickness) // 2
    hi = lo + thickness
    bits = [
        1 if (lo <= r < hi or lo <= c < hi) else 0
        for r in range(side)
        for c in range(side)
    ]
    clean = BitWord.from_bits(bits)
    flips = int(frac * side * side)
    rng = random.Random(seed)
    noisy_bits = bits[:]
    for i in rng.sample(range(side * side), flips):
        noisy_bits[i] ^= 1
    return clean, BitWord.from_bits(noisy_bits)


def default_denoise_levels(n: int) -> "list[Fraction]":
    """21 quadratically spaced distortion levels, dense near zero where
    the knee lives, sparse toward 1/2 (repeats merged at small n)."""
    top = n // 2
    steps = sorted({round(top * (j / 20) ** 2) for j in range(21)})
    return [Fraction(i, n) for i in steps]


# ---------------------------------------------------------------------------
# the pipeline

@dataclass(frozen=True)
class DenoiseDiagnostics:
    residual_weight: int
    residual_fraction: Fraction
    residual_codelength: int
    residual_floor_bits: float   # RESIDUAL_FLOOR_FACTOR * log2 b(fraction)
    residual_typical: bool       # codelength clears the floor
    residual_deficiency: DeficiencyEstimate   # residual in the ball around 0
    model_deficiency: DeficiencyEstimate      # input in the ball around x-hat
    model_sufficiency_gap: float


@dataclass(frozen=True)
class DenoiseResult:
    denoised: BitWord
    knee: Knee
    curve: CurveEstimate
    diagnostics: DenoiseDiagnostics


def denoise(
    x: BitWord,
    spec: DistortionSpec,
    budget: int,
    seed: int,
    image_width: Optional[int] = None,
    levels: "Optional[Sequence[Fraction]]" = None,
) -> DenoiseResult:
    """Distortion-rate curve, knee, best candidate at the knee.

    image_width, when given, treats x as a row-major bitmap and adds
    majority-filtered versions of it to the search pool; that is what
    lets the search find the clean image behind heavy salt noise.
    budget is the per-level search allowance.
    """
    if spec.family != HAMMING:
        raise ValueError("denoising is wired for the bit-flip family")
    if spec.n != x.n:
        raise ValueError("word length must match the distortion spec")
    extra = []
    if image_width is not None:
        seen = {x}
        f = x
        for _ in range(3):
            # one more round on the last seed: 1, 2 and 3 rounds on x
            f = majority_filter(f, image_width)
            if f not in seen:
                extra.append(f)
                seen.add(f)
    if levels is None:
        levels = default_denoise_levels(spec.n)
    curve = distortion_rate_curve(
        x, spec, None, budget, seed, extra_seeds=extra, levels=levels
    )
    if len(curve.points) == 1:
        # already incompressible-flat: the single corner is the answer
        p = curve.points[0]
        knee = Knee(
            rate=float(p.bits), distortion=float(p.distortion),
            index=0, degenerate=True,
        )
    else:
        knee = knee_detect(curve, anchor_rate=float(spec.n))
    point = curve.points[knee.index]
    xhat = point.candidate.destination
    residual = x ^ xhat
    w = residual.weight()
    frac = Fraction(w, spec.n)
    zero_ball = Ball(spec, frac, center=BitWord.zeros(spec.n))
    floor_bits = RESIDUAL_FLOOR_FACTOR * zero_ball.log_cardinality()
    res_len = codelength(residual)
    model_ball = Ball(spec, frac, center=xhat)
    diagnostics = DenoiseDiagnostics(
        residual_weight=w,
        residual_fraction=frac,
        residual_codelength=res_len,
        residual_floor_bits=floor_bits,
        residual_typical=res_len >= floor_bits,
        residual_deficiency=deficiency_estimate(residual, zero_ball),
        model_deficiency=deficiency_estimate(x, model_ball),
        model_sufficiency_gap=sufficiency_gap(x, model_ball),
    )
    return DenoiseResult(denoised=xhat, knee=knee, curve=curve, diagnostics=diagnostics)


def curve_against_reference(
    curve: CurveEstimate, reference: BitWord
) -> "list[tuple[float, Fraction]]":
    """(rate, distance-to-reference) per curve point: the second plot of
    a denoising experiment, drawn against the held-out clean word."""
    out = []
    for p in curve.points:
        if p.candidate is None or not math.isfinite(float(p.bits)):
            continue
        y = p.candidate.destination
        out.append((float(p.bits), Fraction(y.hamming(reference), reference.n)))
    return out


def best_rate_against(curve: CurveEstimate, reference: BitWord) -> float:
    """Rate whose candidate lands closest to the reference word; ties go
    to the smaller rate."""
    pairs = curve_against_reference(curve, reference)
    if not pairs:
        raise ValueError("curve has no scored candidates")
    return min(pairs, key=lambda t: (t[1], t[0]))[0]
