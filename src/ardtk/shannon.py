"""Classical rate-distortion baseline.

blahut_arimoto computes R(delta) for a single-letter i.i.d. source by
alternating-minimization at a fixed slope, with the slope located by
bisection on the achieved distortion and a final tangent correction.
analytic_binary_hamming is the closed-form H(p) - H(delta) oracle the
iteration is validated against.

expected_rate_comparison puts the individual-word searcher and the
Shannon curve side by side: it samples words from the source, estimates
each word's minimal rate at every distortion on the grid, and reports
the ensemble mean against n * R(delta).  The two differ by slack terms
that are uncomputable in general; at n <= CODE_MAP_MAX_N (20) the
code-map term H(L) - H(S) is materialized exactly from the proxy
minimizer, by dilation of a key built on codec.length_table, and so is
the exact ensemble mean curve, sum_x p(x) min rate(x).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .bits import BitWord
from .codec import LENGTH_TABLE_MAX_N, codelength, length_table  # noqa: F401
# (codelength is bound here, though unused, because perfbench's tracer
# wraps the oracle under every module name that imports it)
from .distortion import (
    HAMMING,
    DistortionSpec,
    _check_radius,
    _radius_steps,
    ball_cardinality,
    binary_entropy,
)
from .rdsearch import search_min_rate

DEFAULT_DELTA1_SLACK = 24.0    # bits; documented stand-in for the
                               # uncomputable lower-side slack
BA_MAX_ITERATIONS = 20_000
CODE_MAP_MAX_N = LENGTH_TABLE_MAX_N


class BAConvergenceError(RuntimeError):
    """The alternating minimization failed to reach tolerance."""


@dataclass(frozen=True)
class SourceModel:
    pmf: "tuple[Fraction, ...]"
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("block length must be >= 1")
        if len(self.pmf) < 2:
            raise ValueError("alphabet must have at least two letters")
        total = sum(self.pmf, Fraction(0))
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if any(p < 0 for p in self.pmf):
            raise ValueError("probabilities must be nonnegative")

    @property
    def alphabet_size(self) -> int:
        return len(self.pmf)

    @classmethod
    def bernoulli(cls, p_one: Fraction, n: int) -> "SourceModel":
        p_one = Fraction(p_one)
        return cls(pmf=(1 - p_one, p_one), n=n)

    def letter_entropy(self) -> float:
        return -sum(float(p) * math.log2(float(p)) for p in self.pmf if p > 0)

    def sample_word(self, rng: random.Random) -> BitWord:
        if self.alphabet_size != 2:
            raise ValueError("word sampling is defined for binary sources")
        p1 = float(self.pmf[1])
        bits = [1 if rng.random() < p1 else 0 for _ in range(self.n)]
        return BitWord.from_bits(bits)


@dataclass(frozen=True)
class RDPoint:
    delta: float
    rate: float                      # bits per source letter
    channel: "tuple[tuple[float, ...], ...]"
    iterations: int
    gap: float


def hamming_distortion_matrix(size: int = 2) -> "list[list[float]]":
    return [[0.0 if i == j else 1.0 for j in range(size)] for i in range(size)]


def _ba_fixed_slope(p, d, slope, tol, trace=None):
    """Alternating minimization at fixed slope; returns (rate, distortion,
    channel, iterations, gap).  slope is d(rate)/d(distortion) in bits,
    nonpositive."""
    nx, nz = d.shape
    a = np.exp2(slope * d)
    q = np.full(nz, 1.0 / nz)
    iterations = 0
    gap = math.inf
    while iterations < BA_MAX_ITERATIONS:
        iterations += 1
        beta = np.maximum(a @ q, 1e-300)
        c = (p / beta) @ a
        logc = np.log2(np.maximum(c, 1e-300))
        gap = float(np.max(logc))
        if trace is not None:
            trace.append(float(p @ np.log2(beta)))
        q = q * c
        if gap <= tol:
            break
    else:
        raise BAConvergenceError(
            f"no convergence to gap {tol} within {BA_MAX_ITERATIONS} iterations"
        )
    beta = np.maximum(a @ q, 1e-300)
    channel = q[None, :] * a / beta[:, None]
    dist = float(p @ (channel * d).sum(axis=1))
    rate = float(slope * dist - p @ np.log2(beta))
    return max(rate, 0.0), dist, channel, iterations, gap


def blahut_arimoto(
    src: SourceModel,
    d: "Sequence[Sequence[float]]",
    delta,
    tol: float = 1e-6,
    trace: Optional[list] = None,
) -> RDPoint:
    """R(delta) for the single-letter source, within tol.

    The distortion constraint is met by bisecting the curve slope until
    the achieved distortion brackets delta, then correcting along the
    tangent (the curve is convex, so the tangent at a nearby point is
    exact to first order and the bisection makes the bracket tiny).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    delta = float(delta)
    p = np.array([float(v) for v in src.pmf])
    dmat = np.array(d, dtype=float)
    if dmat.shape[0] != len(p):
        raise ValueError("distortion matrix rows must match alphabet")
    d_floor = float(p @ dmat.min(axis=1))
    d_ceil = float((p @ dmat).min())
    if delta < d_floor - 1e-12:
        raise ValueError(f"distortion {delta} below achievable minimum {d_floor}")
    if delta >= d_ceil:
        z = int(np.argmin(p @ dmat))
        channel = tuple(
            tuple(1.0 if j == z else 0.0 for j in range(dmat.shape[1]))
            for _ in range(len(p))
        )
        return RDPoint(delta=delta, rate=0.0, channel=channel, iterations=0, gap=0.0)

    lo, hi = -64.0, 0.0
    inner_tol = tol / 8
    best = None
    iterations = 0
    for _ in range(60):
        slope = (lo + hi) / 2
        rate, dist, channel, its, gap = _ba_fixed_slope(p, dmat, slope, inner_tol, trace)
        iterations += its
        best = (rate, dist, channel, slope, gap)
        if abs(dist - delta) <= tol / 8:
            break
        if dist > delta:
            hi = slope
        else:
            lo = slope
    rate, dist, channel, slope, gap = best
    corrected = max(0.0, rate + slope * (delta - dist))
    return RDPoint(
        delta=delta,
        rate=corrected,
        channel=tuple(tuple(float(v) for v in row) for row in channel),
        iterations=iterations,
        gap=gap,
    )


def analytic_binary_hamming(p_one, delta) -> float:
    """Closed form for a Bernoulli(p) source under bit-flip distortion:
    H(p) - H(delta) up to delta = min(p, 1-p), zero beyond."""
    p = float(p_one)
    delta = float(delta)
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    if not 0 <= delta <= 1:
        raise ValueError("delta must lie in [0, 1]")
    edge = min(p, 1 - p)
    if delta >= edge:
        return 0.0
    return binary_entropy(p) - binary_entropy(delta)


# ---------------------------------------------------------------------------
# ensemble comparison

@dataclass
class ComparisonReport:
    n: int
    delta_grid: "tuple[Fraction, ...]"
    samples: int
    budget: int
    seed: int
    per_sample: "tuple[tuple[int, ...], ...]"   # rows: words, cols: grid
    mean_curve: "tuple[float, ...]"
    min_curve: "tuple[int, ...]"
    max_curve: "tuple[int, ...]"
    shannon_nR: "tuple[float, ...]"
    delta1_slack: float
    delta2: "Optional[tuple[float, ...]]"       # n - H(S), per grid point
    code_map_support: "Optional[tuple[int, ...]]"
    exact_mean_curve: "Optional[tuple[float, ...]]"  # sum_x p(x) min rate

    def lower_envelope(self) -> "tuple[float, ...]":
        """mean - slack, the computable stand-in for the left inequality."""
        return tuple(m - self.delta1_slack for m in self.mean_curve)

    def upper_envelope(self) -> "tuple[float, ...]":
        caps = []
        for i in range(len(self.delta_grid)):
            cap = float(self.max_curve[i])
            if self.delta2 is not None:
                cap = min(cap, self.mean_curve[i] + self.delta2[i])
            caps.append(cap)
        return tuple(caps)


def _dilate(key: np.ndarray, n: int, steps: int) -> np.ndarray:
    """steps radius-1 dilations of a key over all 2^n words: each pass
    gives every word the least of its own and its n neighbours' keys.
    Flipping bit i pairs the two halves of each 2^(i+1) block, so the
    neighbour across bit i is a view with the middle axis reversed."""
    for _ in range(steps):
        grown = key.copy()
        for i in range(n):
            np.minimum(
                grown.reshape(-1, 2, 1 << i),
                key.reshape(-1, 2, 1 << i)[:, ::-1],
                out=grown.reshape(-1, 2, 1 << i),
            )
        key = grown
    return key


def _code_map_entropy(key: np.ndarray, n: int, weights: np.ndarray):
    """H(S) and the support of S, the image measure of the destinations in
    the low n bits of a dilated key."""
    size = 1 << n
    mass = np.bincount(key & (size - 1), weights=weights, minlength=size)
    used = mass[mass > 0]
    h_s = float(-(used * np.log2(used)).sum())
    return h_s, int((mass > 0).sum())


def expected_rate_comparison(
    src: SourceModel,
    spec: DistortionSpec,
    delta_grid: "Sequence[Fraction]",
    samples: int,
    budget: int,
    seed: int,
) -> ComparisonReport:
    """Sample words, estimate each word's rate-distortion curve, and set
    the ensemble mean against n * R(delta).

    Per-sample curves are forced monotone (feasible sets nest in delta).
    No pass/fail verdict is rendered here; the report carries both sides.

    At n <= CODE_MAP_MAX_N the codelength of every word comes from one
    length_table, and the key L[y] << n | y is dilated up the sorted grid,
    level by level.  At each level key[x] >> n is x's exact minimum, the
    score search_min_rate's exhaustive branch returns, so a sampled
    level whose ball fits the budget is read off the key; the low n bits
    give the code map, and the source-weighted keys the exact mean curve.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if spec.family != HAMMING or src.alphabet_size != 2:
        raise ValueError("comparison is wired for binary words under bit flips")
    if spec.n != src.n:
        raise ValueError("source block length must match the distortion spec")
    n = src.n
    grid = tuple(sorted(Fraction(d) for d in delta_grid))
    for delta in grid:
        _check_radius(spec, delta)
    rng = random.Random(seed)
    words = [src.sample_word(rng) for _ in range(samples)]
    from_table = [
        n <= CODE_MAP_MAX_N and ball_cardinality(spec, delta) <= budget for delta in grid
    ]
    delta2 = support = exact_mean = None
    if n <= CODE_MAP_MAX_N:
        p1 = float(src.pmf[1])
        pops = np.bitwise_count(np.arange(1 << n, dtype=np.uint32)).astype(float)
        weights = (p1**pops) * ((1 - p1) ** (n - pops))
        xs = np.array([x.value for x in words], dtype=np.int64)
        # L[y] << n | y: the low n bits of a dilated key hold the
        # destination, the lexicographically first word of least codelength
        key = (length_table(n) << n) | np.arange(1 << n, dtype=np.int64)
        steps = 0
        exact, d2, sup, mean = [], [], [], []
        for delta in grid:
            r = _radius_steps(spec, delta)
            key = _dilate(key, n, r - steps)
            steps = r
            rates = key >> n
            exact.append(rates[xs].tolist())
            h_s, used = _code_map_entropy(key, n, weights)
            d2.append(n - h_s)
            sup.append(used)
            mean.append(float(weights @ rates))
        delta2, support, exact_mean = tuple(d2), tuple(sup), tuple(mean)
    rows = []
    for i, x in enumerate(words):
        row = []
        best = math.inf
        for j, delta in enumerate(grid):
            if from_table[j]:
                score = exact[j][i]
            else:
                score = search_min_rate(
                    x, spec, delta, budget, seed=(seed * 9176 + i * 131 + j) & 0x7FFFFFFF
                ).score
            best = min(best, score)
            row.append(int(best))
        rows.append(tuple(row))
    per_sample = tuple(rows)
    mean_curve = tuple(
        sum(r[j] for r in rows) / samples for j in range(len(grid))
    )
    min_curve = tuple(min(r[j] for r in rows) for j in range(len(grid)))
    max_curve = tuple(max(r[j] for r in rows) for j in range(len(grid)))
    dmat = hamming_distortion_matrix()
    nR = tuple(
        n * blahut_arimoto(src, dmat, float(delta), tol=1e-6).rate for delta in grid
    )
    return ComparisonReport(
        n=n,
        delta_grid=grid,
        samples=samples,
        budget=budget,
        seed=seed,
        per_sample=per_sample,
        mean_curve=mean_curve,
        min_curve=min_curve,
        max_curve=max_curve,
        shannon_nR=nR,
        delta1_slack=DEFAULT_DELTA1_SLACK,
        delta2=delta2,
        code_map_support=support,
        exact_mean_curve=exact_mean,
    )
