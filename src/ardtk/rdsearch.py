"""Seeded search for individual rate-distortion curves.

Three views of the same question, all scored by codec codelength:

  search_min_rate      fewest bits for a destination within distortion delta
  distortion_rate_curve  least distortion reachable at or under a bit budget
  canonical_estimate   fewest bits for a ball (by its center) of log size l

When the feasible destination set is no larger than the evaluation
budget the search enumerates it outright, so small instances are exact
minima rather than estimates.  Otherwise a seeded pool (the input, the
constants, partial moves toward the constants, blockwise majority
smoothings) is refined by bit-flip hill climbing.  Best-so-far score
never increases during a run, and ties break toward the
lexicographically least destination, so a fixed seed fixes the result.
A word candidate is scored only as far as that comparison needs: the
oracle is asked whether it beats the best so far (codelength's below),
and a loser's exact length is computed only when no bound rules it
out.  Each such question still counts as one evaluation, so results,
traces and budgets are those of exact scoring.  List cylinders are
scored exactly.  Both curves sweep their levels through _levels: a word
level is one search_min_rate call, and a curve's list levels share one
table of its best cylinders, so a list curve scores each cylinder once,
in whatever order its levels come.

The word climber works on int values (x_1 the most significant bit, as
in BitWord): the seen values, the best, the pool, the neighbours and
the Hamming projection are all ints.  A BitWord is built only to ask
the oracle about a fresh value, and once for the returned Candidate,
whose distortion is computed once.  For Hamming it keeps a table of
the current best's projected single flips by flip index, cleared when
the best changes, so a revisit costs one draw, one dict lookup and one
seen test.  The random draws keep one order: the pool's picks, then per
step the neighbour's draw (a flip index; a sign, then a power of two),
random() only after a revisit, and for a hop the pool index before its
neighbour's draw.  So a fixed seed gives the result, trace, evaluation
count and oracle questions of the BitWord climber the tests keep as the
reference.

Staircase shapes: g drawn from the family of integer functions on 0..n
with g(n) = 0 and g(l-1) in {g(l), g(l)+1}; estimated curves are checked
against that family up to a slack of c * log2(n) bits.
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .bits import BitWord
from .codec import codelength
from .distortion import (
    HAMMING,
    LIST,
    Ball,
    DistortionSpec,
    _steps,
    admissible_radii,
    ball_cardinality,
    distance,
    radius_for_log_cardinality,
)

DEFAULT_SLACK_C = 8

Destination = Union[BitWord, Ball]


class MissingGridPointError(KeyError):
    """A curve transform needed a level the estimate was not computed at."""


@dataclass(frozen=True)
class Candidate:
    destination: Destination
    score: int
    distortion: Union[Fraction, float]

    def digest(self) -> str:
        w = self.destination
        if isinstance(w, Ball):
            w = w.descriptor()
        return w.digest()


@dataclass(frozen=True)
class CurvePoint:
    axis_value: Union[int, Fraction]
    bits: Union[int, float]
    distortion: Union[Fraction, float]
    candidate: Optional[Candidate] = None


@dataclass
class CurveEstimate:
    axis: str                      # "rate" | "log_cardinality" | "distortion"
    points: "list[CurvePoint]"
    budget_used: int


# ---------------------------------------------------------------------------
# word-destination search (hamming / euclid), on int values

def _project_hamming(x: int, y: int, max_flips: int) -> int:
    """Keep only the lowest max_flips bits where y differs from x, so
    d(x, .) fits."""
    diff = x ^ y
    if diff.bit_count() <= max_flips:
        return y
    # bisect for the least k whose low k bits of diff hold max_flips ones
    lo, hi = max_flips, diff.bit_length()
    while lo < hi:
        mid = (lo + hi) // 2
        if (diff & ((1 << mid) - 1)).bit_count() >= max_flips:
            hi = mid
        else:
            lo = mid + 1
    return x ^ (diff & ((1 << lo) - 1))


def _flip_mask(n: int, positions) -> int:
    """The n-bit mask with bit index i (0 = leftmost) set for each i: n
    binary digits, a 1 at each i, read as one int."""
    digits = bytearray(b"0" * n)
    for i in positions:
        digits[i] = 49  # "1"
    return int(digits, 2) if n else 0


@functools.lru_cache(maxsize=1)
def _hamming_base(x: BitWord) -> tuple:
    """The parts of x's Hamming pool that no level changes: the positions
    of x's ones and of its zeros, and the values of x's dyadic majority
    smoothings.  The last word's parts are remembered."""
    n = x.n
    bits = x.to01()
    ones = tuple(i for i, b in enumerate(bits) if b == "1")
    zeros = tuple(i for i, b in enumerate(bits) if b == "0")
    # a block of width bits (the last one shorter) turns to ones when
    # more than half of its bits are ones
    smoothed = []
    width = 2
    while width <= n:
        v = 0
        for start in range(0, n, width):
            size = min(width, n - start)
            shift = n - start - size
            block = (1 << size) - 1
            if 2 * (x.value >> shift & block).bit_count() > size:
                v |= block << shift
        smoothed.append(v)
        width *= 2
    return ones, zeros, tuple(smoothed)


def _hamming_pool(x: BitWord, max_flips: int, rng: random.Random) -> "list[int]":
    """The values of the starting pool at max_flips."""
    n, xv = x.n, x.value
    ones, zeros, smoothed = _hamming_base(x)
    pool = [xv, 0, (1 << n) - 1]
    for positions in (ones, zeros):
        take = min(len(positions), max_flips)
        head = _flip_mask(n, positions[:take])
        tail = _flip_mask(n, positions[len(positions) - take:])
        pool += [xv ^ head, xv ^ tail]
        for _ in range(4):
            pick = rng.sample(positions, take) if take else []
            pool.append(xv ^ _flip_mask(n, pick))
    pool += smoothed
    return [_project_hamming(xv, y, max_flips) for y in pool]


def _euclid_pool(x: BitWord, lo: int, hi: int, rng: random.Random) -> "list[int]":
    n = x.n
    pool = [x.value, lo, hi]
    # coarsest dyadic grid point inside the feasible interval
    for t in range(n, -1, -1):
        step = 1 << t
        v = (lo + step - 1) // step * step
        if v <= hi:
            pool.append(v)
            break
    pool += [rng.randint(lo, hi) for _ in range(4)]
    return pool


def _word_search(
    ball: Ball,
    budget: int,
    seed: int,
    extra_seeds: "Iterable[BitWord]",
    trace: Optional[list],
):
    """(best Candidate, evaluations spent) in a Hamming or Euclid ball
    around its center x, climbing on int values (see the module docstring)."""
    spec, x = ball.spec, ball.center
    n, xv = spec.n, x.value
    seen: "set[int]" = set()
    flips: "dict[int, int]" = {}  # flip index -> projected flip of the best
    best = score = None
    evals = 0

    def consider(v: int):
        nonlocal best, score, evals
        if v in seen or evals >= budget:
            # a seen value lost to a best that can only have improved
            return
        # the oracle answers exactly under the score v must stay under
        # to beat the best (ties go to the smaller value), and at or
        # above it otherwise, so only an exact score becomes the best
        s = codelength(BitWord(n, v), None if best is None else score + (v < best))
        seen.add(v)
        evals += 1
        if best is None or (s, v) < (score, best):
            best, score = v, s
            flips.clear()
            if trace is not None:
                trace.append((evals, s))

    def result():
        y = BitWord(n, best)
        return Candidate(y, score, distance(spec, x, y)), evals

    if ball.cardinality() <= budget:
        for y in ball.members():
            consider(y.value)
        return result()

    rng = random.Random(seed)
    hamming = spec.family == HAMMING
    if hamming:
        max_flips = ball.steps
        top = 1 << (n - 1)  # flip index i is the bit top >> i
        pool = _hamming_pool(x, max_flips, rng)
        pool += [_project_hamming(xv, w.value, max_flips) for w in extra_seeds]

        def neighbor(v: int) -> int:
            return _project_hamming(xv, v ^ top >> rng.randrange(n), max_flips)
    else:
        lo, hi = ball.value_range()
        pool = _euclid_pool(x, lo, hi, rng)
        # the ball's values are lo..hi
        pool += [w.value for w in extra_seeds if lo <= w.value <= hi]

        def neighbor(v: int) -> int:
            v += rng.choice((-1, 1)) * (1 << rng.randrange(n))
            return min(hi, max(lo, v))

    for v in pool:
        consider(v)
    while evals < budget:
        if hamming:
            i = rng.randrange(n)
            v = flips.get(i)
            if v is None:
                v = flips[i] = _project_hamming(xv, best ^ top >> i, max_flips)
        else:
            v = neighbor(best)
        if v not in seen:
            consider(v)
        elif rng.random() < 0.05:
            # stuck on revisits; hop to a fresh random feasible point
            v = neighbor(pool[rng.randrange(len(pool))])
            if v in seen:
                break
            consider(v)
    return result()


def _list_search(
    x: BitWord,
    spec: DistortionSpec,
    steps: int,
    budget: int,
    scored: "list[Candidate]",
    trace: Optional[list] = None,
):
    """The suffix cylinders around x of radius t = 0 .. min(steps,
    budget - 1): the 2^t words sharing x's first n - t bits.

    A cylinder is scored by the codelength of its descriptor, those
    n - t prefix bits followed by LEB128(t), so no member is built and
    the score falls by about a bit per level on an incompressible x.
    Ties go to the smaller t.  scored[t] is the best cylinder of radius
    <= t; the search extends it to the cap and returns (scored[cap],
    evaluations spent), so a table shared across levels scores each
    cylinder once.  The radius cap budget - 1 is absolute, so a curve at
    budget b is flat past radius b - 1.
    """
    cap = min(steps, budget - 1)
    evals = 0
    for t in range(len(scored), cap + 1):
        ball = Ball(spec, Fraction(t), center=x)
        cand = Candidate(ball, codelength(ball.descriptor()), Fraction(t))
        evals += 1
        if scored and scored[-1].score <= cand.score:
            cand = scored[-1]
        elif trace is not None:
            trace.append((evals, cand.score))
        scored.append(cand)
    return scored[cap], evals


def _checked_seeds(spec: DistortionSpec, budget: int, extra_seeds) -> tuple:
    """extra_seeds as a tuple; refuses a budget below 1 and other lengths."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    extra_seeds = tuple(extra_seeds)
    if any(w.n != spec.n for w in extra_seeds):
        raise ValueError("extra seeds must have the word length n")
    return extra_seeds


def search_min_rate(
    x: BitWord,
    spec: DistortionSpec,
    delta: Fraction,
    budget: int,
    seed: int,
    extra_seeds: "Iterable[BitWord]" = (),
    trace: Optional[list] = None,
) -> Candidate:
    """Best-found destination within distortion delta of x.

    budget counts distinct codelength evaluations.  x itself is always
    feasible, so the search is total.  When the whole feasible set fits
    in the budget the result is its exact minimum (ties to the
    lexicographically least destination).  List-family destinations are
    suffix-cylinder balls around x, ties going to the smaller one.

    trace, when given, receives (evaluations so far, best score) at each
    improvement and once more at the end, so its last entry holds the
    evaluations the search spent.
    """
    delta = Fraction(delta)
    extra_seeds = _checked_seeds(spec, budget, extra_seeds)
    if spec.family == LIST:
        best, evals = _list_search(x, spec, _steps(spec, delta), budget, [], trace)
    else:
        best, evals = _word_search(
            Ball(spec, delta, center=x), budget, seed, extra_seeds, trace
        )
    if trace is not None:
        trace.append((evals, best.score))
    return best


def _child_seed(seed: int, salt: int) -> int:
    return (seed * 1_000_003 + salt) & 0x7FFFFFFF


def _levels(
    x: BitWord, spec: DistortionSpec, radii, budget: int, seeds, extra_seeds=()
):
    """(best Candidate, evaluations spent) for each radius in turn, its
    search seeded by the next of seeds: the one level sweep of every
    curve.  A word level is one search_min_rate call, looked up at call
    time; list levels share one table, so each cylinder is scored once.
    The arguments are checked before the first level."""
    extra_seeds = _checked_seeds(spec, budget, extra_seeds)
    scored: "list[Candidate]" = []
    for delta, seed in zip(radii, seeds):
        if spec.family == LIST:
            yield _list_search(x, spec, _steps(spec, delta), budget, scored)
        else:
            trace: list = []
            cand = search_min_rate(x, spec, delta, budget, seed, extra_seeds, trace)
            yield cand, trace[-1][0]


def distortion_rate_curve(
    x: BitWord,
    spec: DistortionSpec,
    rate_grid: "Optional[Sequence[int]]",
    budget: int,
    seed: int,
    extra_seeds: "Iterable[BitWord]" = (),
    levels: "Optional[Sequence[Fraction]]" = None,
) -> CurveEstimate:
    """Least observed distortion at each bit budget in rate_grid.

    budget is the per-level search allowance; the candidate pool is
    shared across levels, so each rate sees every evaluation made.
    rate_grid None reports the curve's own corners instead: the distinct
    rates where the running distortion minimum improves.  levels
    restricts the searched distortion levels (default: every admissible
    radius), useful when n is large and the full sweep would be slow.
    """
    if rate_grid is not None and list(rate_grid) != sorted(rate_grid):
        raise ValueError("rate_grid must be sorted")
    if levels is None:
        levels = admissible_radii(spec)
    seeds = [_child_seed(seed, i) for i in range(len(levels))]
    pool: "dict" = {}
    used = 0
    for cand, evals in _levels(x, spec, levels, budget, seeds, extra_seeds):
        used += evals
        # a destination scores its exact codelength at every level
        pool.setdefault(cand.digest(), cand)
    found = sorted(pool.values(), key=lambda c: (c.score, c.digest()))
    points = []
    best_d = math.inf
    best_c = None
    if rate_grid is None:
        for c in found:
            if c.distortion < best_d:
                best_d, best_c = c.distortion, c
                points.append(
                    CurvePoint(
                        axis_value=c.score, bits=c.score,
                        distortion=c.distortion, candidate=c,
                    )
                )
    else:
        idx = 0
        for r in rate_grid:
            while idx < len(found) and found[idx].score <= r:
                c = found[idx]
                if c.distortion < best_d:
                    best_d, best_c = c.distortion, c
                idx += 1
            points.append(
                CurvePoint(axis_value=r, bits=r, distortion=best_d, candidate=best_c)
            )
    return CurveEstimate(axis="rate", points=points, budget_used=used)


def canonical_estimate(
    x: BitWord,
    spec: DistortionSpec,
    l_grid: "Sequence[int]",
    budget: int,
    seed: int,
) -> CurveEstimate:
    """Estimated bits needed for a radius ball of log-cardinality <= l
    containing x, scored by its center's codelength, for each l in
    l_grid.  budget is per grid level.

    A list level l is the cylinder radius l, and the sweep scores each
    cylinder once: a full grid costs min(n, budget - 1) + 1 evaluations,
    and past l = budget - 1 the list curve is flat.
    """
    radii = [radius_for_log_cardinality(spec, l) for l in l_grid]  # l in 0..n
    if list(l_grid) != sorted(l_grid):
        raise ValueError("l_grid must be sorted")
    seeds = [_child_seed(seed, l) for l in l_grid]
    points = []
    used = 0
    best_bits = math.inf
    best_cand = None
    for l, (cand, evals) in zip(l_grid, _levels(x, spec, radii, budget, seeds)):
        used += evals
        if cand.score < best_bits:
            best_bits, best_cand = cand.score, cand
        points.append(
            CurvePoint(
                axis_value=l,
                bits=best_bits,
                distortion=best_cand.distortion,
                candidate=best_cand,
            )
        )
    return CurveEstimate(axis="log_cardinality", points=points, budget_used=used)


def transform_rate_distortion(
    ghat: CurveEstimate,
    spec: DistortionSpec,
    deltas: "Optional[Sequence[Fraction]]" = None,
) -> CurveEstimate:
    """Rate-distortion view of a canonical estimate: at distortion delta
    read off ghat at level ceil(log2 of the delta-ball cardinality), for
    each delta in deltas (default: every admissible radius).  A point's
    bits are the least reading at or below its delta.
    """
    if ghat.axis != "log_cardinality":
        raise ValueError("expected a log-cardinality curve")
    table = {p.axis_value: p for p in ghat.points}
    points = []
    best = math.inf
    for d in sorted(admissible_radii(spec) if deltas is None else deltas):
        b = ball_cardinality(spec, d)
        l = (b - 1).bit_length()
        if l not in table:
            raise MissingGridPointError(l)
        entry = table[l]
        best = min(best, entry.bits)
        points.append(
            CurvePoint(axis_value=d, bits=best, distortion=d, candidate=entry.candidate)
        )
    return CurveEstimate(axis="distortion", points=points, budget_used=ghat.budget_used)


# ---------------------------------------------------------------------------
# staircase shapes

@dataclass(frozen=True)
class ShapeFn:
    values: "tuple[int, ...]"      # g(0), g(1), ..., g(n)

    def __call__(self, l: int) -> int:
        return self.values[l]


def shape_generate(n: int, k: int, seed: int) -> ShapeFn:
    """Uniformly random shape with g(0) = k: pick which k of the n unit
    steps decrement."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    rng = random.Random(seed)
    drops = set(rng.sample(range(1, n + 1), k))
    values = [0] * (n + 1)
    for l in range(n, 0, -1):
        values[l - 1] = values[l] + (1 if l in drops else 0)
    return ShapeFn(tuple(values))


def shape_validate(g, n: Optional[int] = None):
    """Check membership in the shape family; returns (ok, first bad l)."""
    values = g.values if isinstance(g, ShapeFn) else tuple(g)
    if n is not None and len(values) != n + 1:
        return False, len(values) - 1
    if not values or values[-1] != 0:
        return False, len(values) - 1
    # values[-1] is 0 and each step left adds 0 or 1, so none is negative
    for l in range(len(values) - 1, 0, -1):
        if values[l - 1] not in (values[l], values[l] + 1):
            return False, l
    return True, None


@dataclass
class ShapeBoundsReport:
    ok: bool
    violations: "list[tuple[int, int, float]]"   # (l, m, excess)
    tail_ok: bool


def shape_bounds_check(
    ghat: CurveEstimate, n: int, slack_c: int = DEFAULT_SLACK_C
) -> ShapeBoundsReport:
    """Slow-decay audit of an estimated curve: over all grid pairs l <= m
    require -s <= ghat(l) - ghat(m) <= (m - l) + s with s = c log2 n,
    plus ghat(n) <= s.  Every member of the staircase family passes at
    any c >= 0."""
    s = slack_c * math.log2(n) if n >= 2 else float(slack_c)
    pts = {p.axis_value: p.bits for p in ghat.points}
    levels = sorted(pts)
    violations = []
    for i, l in enumerate(levels):
        for m in levels[i:]:
            diff = pts[l] - pts[m]
            if diff < -s:
                violations.append((l, m, float(-s - diff)))
            elif diff > (m - l) + s:
                violations.append((l, m, float(diff - (m - l) - s)))
    tail_ok = (n not in pts) or pts[n] <= s
    return ShapeBoundsReport(
        ok=not violations and tail_ok,
        violations=violations,
        tail_ok=tail_ok,
    )
