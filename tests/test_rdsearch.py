"""Curve-search tests, with exhaustive oracles at n <= 12."""
import hashlib
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ardtk import codec, distortion, rdsearch
from ardtk.bits import BitWord
from ardtk.codec import codelength
from ardtk.distortion import (
    EUCLID,
    HAMMING,
    LIST,
    Ball,
    DistortionSpec,
    admissible_radii,
    distance,
)
from ardtk.rdsearch import (
    Candidate,
    CurveEstimate,
    CurvePoint,
    MissingGridPointError,
    canonical_estimate,
    distortion_rate_curve,
    search_min_rate,
    shape_bounds_check,
    shape_generate,
    shape_validate,
    transform_rate_distortion,
)

H12 = DistortionSpec(HAMMING, 12)
FULL = 1 << 12


def brute_min_rate(x, spec, delta):
    """Independent oracle: scan the whole destination space."""
    best = None
    for v in range(1 << spec.n):
        y = BitWord(spec.n, v)
        if distance(spec, x, y) <= delta:
            key = (codelength(y), v)
            if best is None or key < best:
                best = key
    return best


class TestSearchMinRate:
    def test_zero_distortion_is_input(self):
        x = BitWord.zeros(12)
        c = search_min_rate(x, H12, Fraction(0), budget=10, seed=0)
        assert c.destination == x and c.score == codelength(x)
        assert c.distortion == 0

    def test_half_distortion_reaches_a_constant(self):
        # every word sits within 1/2 of at least one constant, so the
        # worse constant's codelength caps the score; the better one
        # caps it only when both are feasible (weight exactly n/2)
        rng = random.Random(1)
        zeros, ones = BitWord.zeros(12), BitWord(12, (1 << 12) - 1)
        loose = max(codelength(zeros), codelength(ones))
        tight = min(codelength(zeros), codelength(ones))
        for _ in range(5):
            x = BitWord.random(rng, 12)
            c = search_min_rate(x, H12, Fraction(1, 2), budget=FULL, seed=2)
            assert c.score <= loose
        balanced = BitWord.from_str("000000111111")
        c = search_min_rate(balanced, H12, Fraction(1, 2), budget=FULL, seed=2)
        assert c.score <= tight

    def test_full_budget_matches_brute_force(self):
        rng = random.Random(3)
        for _ in range(3):
            x = BitWord.random(rng, 12)
            for i in (0, 1, 3, 6):
                delta = Fraction(i, 12)
                score, value = brute_min_rate(x, H12, delta)
                c = search_min_rate(x, H12, delta, budget=FULL, seed=4)
                assert (c.score, c.destination.value) == (score, value)

    def test_euclid_full_budget_matches_brute_force(self):
        spec = DistortionSpec(EUCLID, 10)
        rng = random.Random(5)
        x = BitWord.random(rng, 10)
        for delta in (Fraction(0), Fraction(1, 64), Fraction(1, 4)):
            score, value = brute_min_rate(x, spec, delta)
            c = search_min_rate(x, spec, delta, budget=1 << 10, seed=6)
            assert (c.score, c.destination.value) == (score, value)

    def test_budgeted_search_feasible_and_traced(self):
        rng = random.Random(7)
        x = BitWord.random(rng, 12)
        trace = []
        c = search_min_rate(x, H12, Fraction(5, 12), budget=50, seed=8, trace=trace)
        assert distance(H12, x, c.destination) <= Fraction(5, 12)
        assert c.distortion == distance(H12, x, c.destination)
        scores = [s for _, s in trace]
        assert scores[-1] == c.score
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_deterministic(self):
        x = BitWord.from_str("110100101100")
        a = search_min_rate(x, H12, Fraction(1, 4), budget=64, seed=11)
        b = search_min_rate(x, H12, Fraction(1, 4), budget=64, seed=11)
        assert a == b

    def test_extra_seeds_join_the_pool(self):
        x = BitWord.from_str("101010101011")
        hint = BitWord.from_str("101010101010")
        c = search_min_rate(
            x, H12, Fraction(1, 12), budget=4, seed=0, extra_seeds=[hint]
        )
        assert c.score <= codelength(hint)

    @pytest.mark.parametrize("family", [HAMMING, EUCLID])
    def test_extra_seeds_of_another_length_are_refused(self, family):
        spec = DistortionSpec(family, 12)
        x = BitWord.from_str("101010101011")
        with pytest.raises(ValueError):
            search_min_rate(x, spec, Fraction(1, 4), budget=8, seed=0,
                            extra_seeds=[BitWord.from_str("1010101010")])

    def test_list_family_singleton_and_growth(self):
        spec = DistortionSpec(LIST, 12)
        x = BitWord.from_str("011011001010")
        c0 = search_min_rate(x, spec, Fraction(0), budget=20, seed=0)
        assert c0.destination.contains(x) and c0.destination.radius == 0
        assert c0.destination.members() == [x] and c0.distortion == 0
        c4 = search_min_rate(x, spec, Fraction(4), budget=20, seed=0)
        assert c4.score <= c0.score
        assert c4.destination.contains(x)
        assert c4.distortion == c4.destination.radius <= 4
        assert c4.distortion == distance(spec, x, c4.destination)
        assert distance(spec, x.flip(0), c4.destination) == math.inf

    def test_list_cylinders_scored_by_descriptor_at_delta_20(self):
        # the 2^20 members of the last cylinder would join to 2^25 bits;
        # its descriptor is the 12 prefix bits and one LEB128 byte
        spec = DistortionSpec(LIST, 32)
        x = BitWord(32, 0xDEADBEEF)
        t0 = time.perf_counter()
        c = search_min_rate(x, spec, Fraction(20), budget=100, seed=0)
        assert time.perf_counter() - t0 < 1.0
        scores = [
            codelength(BitWord.from_str(x.to01()[: 32 - t] + format(t, "08b")))
            for t in range(21)
        ]
        t = min(range(21), key=lambda t: (scores[t], t))
        assert c.score == scores[t]
        assert c.destination.radius == t and c.distortion == t
        assert c.destination.center == x and c.destination.contains(x)
        # a budget of 3 stops at the 2^2 cylinder
        c = search_min_rate(x, spec, Fraction(20), budget=3, seed=0)
        assert c.score == min(scores[:3]) and c.distortion <= 2

    def test_list_ties_go_to_the_smaller_cylinder(self, monkeypatch):
        spec = DistortionSpec(LIST, 8)
        monkeypatch.setattr(rdsearch, "codelength", lambda w, below=None: 7)
        c = search_min_rate(BitWord(8, 0x5A), spec, Fraction(8), budget=20, seed=0)
        assert c.destination.radius == 0 and c.score == 7

    @pytest.mark.parametrize("family", [HAMMING, EUCLID, LIST])
    def test_rejects_negative_radius(self, family):
        # and radii past the family's range: a word family's is checked
        # by the Ball the search builds, a list radius must be an integer
        # in 0..n
        above = {HAMMING: [Fraction(3, 4)], EUCLID: [Fraction(3, 2)],
                 LIST: [Fraction(9), Fraction(5, 2)]}[family]
        for delta in [Fraction(-1)] + above:
            with pytest.raises(ValueError, match="radius"):
                search_min_rate(BitWord(8, 5), DistortionSpec(family, 8),
                                delta, budget=5, seed=0)

    @pytest.mark.parametrize("family, n, delta, budget", [
        (HAMMING, 8, Fraction(1, 8), 16),     # exhaustive: 9 words
        (HAMMING, 16, Fraction(1, 4), 64),    # heuristic: 2,517 words
        (EUCLID, 8, Fraction(1, 64), 16),     # exhaustive: 9 words
        (EUCLID, 16, Fraction(1, 4), 64),     # heuristic
    ])
    def test_word_search_checks_its_radius_once(self, monkeypatch, family, n,
                                                delta, budget):
        calls = []
        steps = distortion._steps

        def counted(spec, delta):
            calls.append(delta)
            return steps(spec, delta)

        monkeypatch.setattr(distortion, "_steps", counted)
        monkeypatch.setattr(rdsearch, "_steps", counted)
        x = BitWord(n, 0b1011001110001011 & ((1 << n) - 1))
        search_min_rate(x, DistortionSpec(family, n), delta, budget, seed=0)
        assert calls == [delta]

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            search_min_rate(BitWord.zeros(4), DistortionSpec(HAMMING, 4),
                            Fraction(0), budget=0, seed=0)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_fuzz_feasibility(self, data):
        n = data.draw(st.integers(min_value=4, max_value=16))
        spec = DistortionSpec(
            data.draw(st.sampled_from([HAMMING, EUCLID])), n
        )
        x = BitWord(n, data.draw(st.integers(min_value=0, max_value=(1 << n) - 1)))
        if spec.family == HAMMING:
            delta = Fraction(data.draw(st.integers(0, n // 2)), n)
        else:
            delta = Fraction(data.draw(st.integers(0, 1 << (n - 1))), 1 << n)
        budget = data.draw(st.integers(min_value=1, max_value=100))
        c = search_min_rate(x, spec, delta, budget, seed=data.draw(st.integers(0, 99)))
        assert distance(spec, x, c.destination) <= delta
        assert c.distortion == distance(spec, x, c.destination)
        assert c.score <= codelength(x)


def _search_with_trace(x, spec, delta, budget, seed, extra):
    codec.clear_cache()
    trace = []
    c = search_min_rate(x, spec, delta, budget, seed, extra_seeds=extra, trace=trace)
    return c, trace


def _assert_same_as_exact_oracle(x, spec, delta, budget, seed, extra=()):
    """The bounded oracle gives the candidate, trace and evaluations of
    an oracle that scores every word exactly."""
    bounded = _search_with_trace(x, spec, delta, budget, seed, extra)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(rdsearch, "codelength", lambda w, below=None: codelength(w))
        exact = _search_with_trace(x, spec, delta, budget, seed, extra)
    assert bounded == exact


class TestBoundedOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_search_matches_exact_oracle(self, data):
        # n >= 64 brings in LZ, n >= 256 BWT, and n > 1024 leaves bitac out
        n = data.draw(st.sampled_from([4, 7, 8, 12, 16, 64, 300, 1100]))
        family = data.draw(st.sampled_from([HAMMING, EUCLID]))
        spec = DistortionSpec(family, n)
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        density = data.draw(st.sampled_from([1 / 16, 1 / 2]))
        x = BitWord.from_bits(int(rng.random() < density) for _ in range(n))
        if family == HAMMING:
            delta = Fraction(data.draw(st.integers(0, n // 2)), n)
        else:
            delta = Fraction(data.draw(st.integers(0, 1 << 12)), 1 << 13)
        budget = data.draw(st.integers(1, 40 if n > 64 else 100))
        extra = [BitWord.random(rng, n) for _ in range(data.draw(st.integers(0, 2)))]
        _assert_same_as_exact_oracle(x, spec, delta, budget,
                                     data.draw(st.integers(0, 99)), extra)

    @pytest.mark.parametrize("level", [5, 102])
    def test_cross_levels_match_exact_oracle(self, level):
        from ardtk.denoise import majority_filter, make_noisy_cross

        _, noisy = make_noisy_cross(32, Fraction(1, 10), 0)
        once = majority_filter(noisy, 32)
        extra = [once, majority_filter(once, 32)]
        _assert_same_as_exact_oracle(noisy, DistortionSpec(HAMMING, 1024),
                                     Fraction(level, 1024), 160, 0, extra)


class TestDistortionRateCurve:
    def test_matches_brute_force_at_full_budget(self):
        rng = random.Random(13)
        x = BitWord.random(rng, 12)
        table = {v: codelength(BitWord(12, v)) for v in range(FULL)}
        grid = list(range(0, 28, 3))
        est = distortion_rate_curve(x, H12, grid, budget=FULL, seed=14)
        for p in est.points:
            feas = [distance(H12, x, BitWord(12, v))
                    for v, bits in table.items() if bits <= p.axis_value]
            oracle = min(feas) if feas else math.inf
            assert p.distortion == oracle

    def test_zero_distortion_at_own_codelength(self):
        x = BitWord.from_str("100101111010")
        r = codelength(x)
        est = distortion_rate_curve(x, H12, [r, r + 5], budget=FULL, seed=0)
        assert est.points[0].distortion == 0

    def test_monotone_and_sorted(self):
        x = BitWord.from_str("010101100011")
        est = distortion_rate_curve(x, H12, list(range(0, 30, 2)), budget=128, seed=1)
        rates = [p.axis_value for p in est.points]
        dists = [p.distortion for p in est.points]
        assert rates == sorted(rates)
        assert all(a >= b for a, b in zip(dists, dists[1:]))

    def test_grid_must_be_sorted(self):
        with pytest.raises(ValueError):
            distortion_rate_curve(BitWord.zeros(8), DistortionSpec(HAMMING, 8),
                                  [10, 5], budget=8, seed=0)

    @pytest.mark.parametrize("family", [HAMMING, EUCLID, LIST])
    def test_default_levels_are_admissible_radii(self, family):
        spec = DistortionSpec(family, 6)
        x = BitWord.from_str("110100")
        a = distortion_rate_curve(x, spec, None, budget=16, seed=3)
        b = distortion_rate_curve(x, spec, None, budget=16, seed=3,
                                  levels=admissible_radii(spec))
        assert a == b

    def test_deterministic(self):
        x = BitWord.from_str("111000111000")
        a = distortion_rate_curve(x, H12, [10, 20], budget=64, seed=5)
        b = distortion_rate_curve(x, H12, [10, 20], budget=64, seed=5)
        assert a.points == b.points and a.budget_used == b.budget_used

    @pytest.mark.parametrize("n,levels,budget", [
        (40, range(41), 100), (40, range(41), 7), (40, [17, 3, 40, 3, 0], 100),
        (64, [60, 9, 5, 9], 12), (1, [1, 0], 1), (16, [16, 16], 3),
    ])
    def test_list_curve_scores_each_cylinder_once(self, monkeypatch, n, levels, budget):
        # the levels share one table of cylinders, in whatever order they
        # come, and each level gets the candidate of a fresh search
        spec = DistortionSpec(LIST, n)
        x = BitWord.random(random.Random(n + budget), n)
        levels = [Fraction(l) for l in levels]
        fresh = [search_min_rate(x, spec, l, budget, seed=0) for l in levels]
        swept = rdsearch._levels(x, spec, levels, budget, [0] * len(levels))
        assert [cand for cand, _ in swept] == fresh
        calls = []
        monkeypatch.setattr(rdsearch, "codelength",
                            lambda w, below=None: calls.append(w) or codelength(w))
        est = distortion_rate_curve(x, spec, None, budget, seed=0, levels=levels)
        corners = []
        for c in sorted(fresh, key=lambda c: (c.score, c.digest())):
            if not corners or c.distortion < corners[-1].distortion:
                corners.append(c)
        assert [p.candidate for p in est.points] == corners
        # one evaluation per distinct cylinder, radius 0 .. the cap
        assert est.budget_used == len(calls) == min(max(levels), budget - 1) + 1


def _project_hamming_by_flips(x, y, max_flips):
    """Reference: keep the lowest differing bits one at a time."""
    diff = x.value ^ y.value
    if diff.bit_count() <= max_flips:
        return y
    kept = 0
    for _ in range(max_flips):
        low = diff & -diff
        kept |= low
        diff ^= low
    return BitWord(x.n, x.value ^ kept)


def _hamming_pool_by_bits(x, max_flips, rng):
    """The seed pool built one bit and one flip at a time."""
    n = x.n
    pool = [x, BitWord.zeros(n), BitWord(n, (1 << n) - 1)]
    ones = [i for i in range(n) if (x.value >> (n - 1 - i)) & 1]
    zeros = [i for i in range(n) if not (x.value >> (n - 1 - i)) & 1]
    for positions in (ones, zeros):
        take = min(len(positions), max_flips)
        head = x
        for i in positions[:take]:
            head = head.flip(i)
        tail = x
        for i in positions[len(positions) - take:]:
            tail = tail.flip(i)
        pool += [head, tail]
        for _ in range(4):
            pick = rng.sample(positions, take) if take else []
            y = x
            for i in pick:
                y = y.flip(i)
            pool.append(y)
    width = 2
    while width <= n:
        v = 0
        for start in range(0, n, width):
            end = min(start + width, n)
            block = [(x.value >> (n - 1 - i)) & 1 for i in range(start, end)]
            if sum(block) * 2 > len(block):
                for i in range(start, end):
                    v |= 1 << (n - 1 - i)
        pool.append(BitWord(n, v))
        width *= 2
    return [_project_hamming_by_flips(x, y, max_flips) for y in pool]


@given(st.integers(0, 300), st.floats(0, 1), st.integers(0, 400), st.integers(0, 2**32))
@settings(max_examples=300, deadline=None)
def test_hamming_pool_matches_bitwise_build(n, density, max_flips, seed):
    rng = random.Random(seed)
    x = BitWord(n, sum(1 << i for i in range(n) if rng.random() < density))
    a, b = random.Random(seed), random.Random(seed)
    assert (rdsearch._hamming_pool(x, max_flips, a)
            == [y.value for y in _hamming_pool_by_bits(x, max_flips, b)])
    assert a.getstate() == b.getstate()


def test_hamming_pool_matches_bitwise_build_at_1024():
    rng = random.Random(3)
    for density in (0.05, 0.5, 0.9):
        x = BitWord(1024, sum(1 << i for i in range(1024) if rng.random() < density))
        # one remembered base serves every level, as in a curve
        rdsearch._hamming_base(x)
        for max_flips in (0, 1, 102, 512, 1024):
            a, b = random.Random(max_flips), random.Random(max_flips)
            assert (rdsearch._hamming_pool(x, max_flips, a)
                    == [y.value for y in _hamming_pool_by_bits(x, max_flips, b)])
            assert a.getstate() == b.getstate()


def test_remembered_hamming_base_matches_a_cold_build():
    # two of the words share a value at two lengths, so a memo keyed on
    # the value alone would hand one of them the other's base
    words = [BitWord.random(random.Random(4), 64), BitWord(40, 0b1011),
             BitWord(41, 0b1011)]
    flips = (0, 2, 9)
    want = {}
    for x in words:
        for max_flips in flips:
            rdsearch._hamming_base.cache_clear()
            rng = random.Random(max_flips)
            want[x, max_flips] = rdsearch._hamming_pool(x, max_flips, rng), rng.getstate()
    rdsearch._hamming_base.cache_clear()
    a, b, c = words
    order = (a, b, a, b, c, b, c, a)
    for x in order:
        for max_flips in flips:
            rng = random.Random(max_flips)
            got = rdsearch._hamming_pool(x, max_flips, rng), rng.getstate()
            assert got == want[x, max_flips]
    # each word's first level builds its base, and the later levels reuse it
    assert rdsearch._hamming_base.cache_info().hits == len(order) * (len(flips) - 1)


def _flip_mask_by_shifts(n, positions):
    """Reference: one shift ORed in per position."""
    mask = 0
    for i in positions:
        mask |= 1 << (n - 1 - i)
    return mask


def test_flip_mask_matches_shift_loop():
    rng = random.Random(31)
    for n in list(range(0, 17)) + [1023, 1024]:
        for k in sorted({0, 1, n // 3, n // 2, n} | set(range(0, min(n, 600) + 1, 50))):
            if k > n:
                continue
            positions = rng.sample(range(n), k)
            assert rdsearch._flip_mask(n, positions) == _flip_mask_by_shifts(n, positions)
            # a repeated position sets its bit once, as the OR does
            again = positions + positions[: k // 2]
            assert rdsearch._flip_mask(n, again) == _flip_mask_by_shifts(n, again)


def test_project_hamming_matches_flip_loop():
    rng = random.Random(17)
    cases = 0
    for n in list(range(1, 65)) + [1024]:
        for _ in range(12):
            x = BitWord(n, rng.getrandbits(n))
            y = BitWord(n, x.value ^ (rng.getrandbits(n) & rng.getrandbits(n)))
            distance = (x.value ^ y.value).bit_count()
            for max_flips in {0, rng.randint(0, distance + 2), distance - 1, distance,
                              distance + 1}:
                if max_flips < 0:
                    continue
                got = rdsearch._project_hamming(x.value, y.value, max_flips)
                assert got == _project_hamming_by_flips(x, y, max_flips).value, (n, max_flips)
                assert (got ^ x.value).bit_count() == min(max_flips, distance)
                cases += 1
    assert cases > 2000


# ---------------------------------------------------------------------------
# the BitWord climber the int-valued one replaced, kept as its reference

def _euclid_pool_words(x, lo, hi, rng):
    n = x.n
    pool = [x.value, lo, hi]
    for t in range(n, -1, -1):
        step = 1 << t
        v = (lo + step - 1) // step * step
        if v <= hi:
            pool.append(v)
            break
    pool += [rng.randint(lo, hi) for _ in range(4)]
    return [BitWord(n, v) for v in pool]


def _word_search_by_words(x, spec, delta, budget, seed, extra_seeds, trace, oracle):
    """Every value a BitWord, every best a Candidate, scored through
    oracle(word, below); returns search_min_rate's Candidate and trace."""
    n = spec.n
    seen = {}
    best = None
    evals = 0

    def below(y):
        if best is None:
            return None
        return best.score + (y.value < best.destination.value)

    def consider(y):
        nonlocal best, evals
        if y.value not in seen:
            if evals >= budget:
                return
            seen[y.value] = oracle(y, below(y))
            evals += 1
        score = seen[y.value]
        if best is None or (score, y.value) < (best.score, best.destination.value):
            best = Candidate(y, score, distance(spec, x, y))
            trace.append((evals, best.score))

    ball = Ball(spec, delta, center=x)
    if ball.cardinality() <= budget:
        for y in ball.members():
            consider(y)
        trace.append((evals, best.score))
        return best

    rng = random.Random(seed)
    if spec.family == HAMMING:
        max_flips = ball.steps
        pool = _hamming_pool_by_bits(x, max_flips, rng)

        def neighbor(y):
            return _project_hamming_by_flips(x, y.flip(rng.randrange(n)), max_flips)
    else:
        lo, hi = ball.value_range()
        pool = _euclid_pool_words(x, lo, hi, rng)

        def neighbor(y):
            v = y.value + rng.choice((-1, 1)) * (1 << rng.randrange(n))
            return BitWord(n, min(hi, max(lo, v)))

    for w in extra_seeds:
        if spec.family == HAMMING:
            pool.append(_project_hamming_by_flips(x, w, max_flips))
        elif distance(spec, x, w) <= delta:
            pool.append(w)

    for y in pool:
        consider(y)
    while evals < budget:
        before = evals
        consider(neighbor(best.destination))
        if evals == before and rng.random() < 0.05:
            consider(neighbor(pool[rng.randrange(len(pool))]))
            if evals == before:
                break
    trace.append((evals, best.score))
    return best


def _recording_oracle(questions):
    def oracle(w, below=None):
        questions.append((w.n, w.value, below))
        return codelength(w, below)
    return oracle


def _assert_matches_bitword_climber(x, spec, delta, budget, seed, extra, warm):
    """search_min_rate gives the BitWord climber's Candidate, trace (so
    its evaluations) and sequence of oracle questions, from a remembered
    Hamming base when warm and a cold one otherwise."""
    want_questions, want_trace = [], []
    codec.clear_cache()
    want = _word_search_by_words(x, spec, delta, budget, seed, extra, want_trace,
                                 _recording_oracle(want_questions))
    got_questions, got_trace = [], []
    codec.clear_cache()
    rdsearch._hamming_base.cache_clear()
    if warm:
        rdsearch._hamming_base(x)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(rdsearch, "codelength", _recording_oracle(got_questions))
        got = search_min_rate(x, spec, delta, budget, seed, extra_seeds=extra,
                              trace=got_trace)
    assert (got.destination, got.score, got.distortion) == (
        want.destination, want.score, want.distortion)
    assert type(got.distortion) is type(want.distortion)
    assert got_trace == want_trace
    assert got_questions == want_questions


def _climber_case(rng, n, family, density, draw_delta, budget, extras, warm):
    spec = DistortionSpec(family, n)
    x = BitWord.from_bits(int(rng.random() < density) for _ in range(n))
    radii = admissible_radii(spec)
    if family == EUCLID:
        radii = radii + [Fraction(rng.randrange((1 << n) + 1), 1 << n)]
    extra = []
    for _ in range(extras):
        # words near x as well as anywhere, so some fall in the ball
        mask = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
        extra.append(BitWord(n, x.value ^ mask) if rng.random() < 0.5
                     else BitWord.random(rng, n))
    return x, spec, draw_delta(radii), budget, extra, warm


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_word_search_matches_the_bitword_climber(data):
    n = data.draw(st.one_of(st.integers(1, 64), st.just(1024)), label="n")
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    x, spec, delta, budget, extra, warm = _climber_case(
        rng, n,
        data.draw(st.sampled_from([HAMMING, EUCLID]), label="family"),
        data.draw(st.sampled_from([1 / 16, 1 / 2, 15 / 16]), label="density"),
        lambda radii: data.draw(st.sampled_from(radii), label="delta"),
        data.draw(st.integers(1, 300), label="budget"),
        data.draw(st.integers(0, 3), label="extra seeds"),
        data.draw(st.booleans(), label="base"),
    )
    seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
    _assert_matches_bitword_climber(x, spec, delta, budget, seed, extra, warm)


def test_word_search_matches_the_bitword_climber_on_long_climbs():
    # the hypothesis draws favour small budgets; these cases are uniform
    # in the budget, so many bests improve mid-climb and the flip table
    # must follow them
    rng = random.Random(20)
    for _ in range(400):
        x, spec, delta, budget, extra, warm = _climber_case(
            rng, rng.choice([8, 12, 16, 24, 40, 64, 1024]),
            rng.choice([HAMMING, HAMMING, EUCLID]),
            rng.choice([1 / 16, 1 / 4, 1 / 2]),
            rng.choice, rng.randint(1, 300), rng.randint(0, 2), rng.random() < 0.5,
        )
        _assert_matches_bitword_climber(x, spec, delta, budget,
                                        rng.randrange(1 << 31), extra, warm)


# sha256 of each curve's fields at a fixed seed: the rate curve, the
# canonical estimate and its rate-distortion view; no other test pins a
# Euclid or a list curve
PINNED_CURVE_DIGESTS = {
    HAMMING: (
        "0b3e598a2250ea1b65e2b1739560efc20890313cabfdf2a3fda28d2e97c835ed",
        "1c3b68a9a05406c91930304715a1d2db246c65a09f6a612edc0821079258e09a",
        "38e08315b8423c049e93ac43d4a66ae7c466232e8e45e44bbb5b3545660544ab",
    ),
    EUCLID: (
        "019468992deed174df440fb3c9b07a975cdb4e1893a061dce273027426d4cbac",
        "62e6fbd20023830fa0684ef691b51086b379987a18966411d58cf27484545a41",
        "5ed6863786e415d3c9e157d67a0597d7d8268ecdee5899df9e34d8c55e0dc5c4",
    ),
    LIST: (
        "cc3ee1c45b41263abaec1feb16079de814cddcef1ebc7592881a3e0508901d77",
        "d8f825ef704f67e437184a3781d1298cbe9db7b497f62a10924f73c9dec19941",
        "83e866ae24d5abccc5f27bead08f995a522e16343fba58c8512f62f04504e836",
    ),
}


def _curve_digest(est):
    # 5 is the seed the pinned curves are drawn with, which the estimate
    # carried as a field when the digests were taken
    h = hashlib.sha256(repr((est.axis, est.budget_used, 5)).encode())
    for p in est.points:
        c = p.candidate
        cand = None if c is None else (c.digest(), c.score, c.distortion)
        h.update(repr((p.axis_value, p.bits, p.distortion, cand)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("family", sorted(PINNED_CURVE_DIGESTS))
def test_fixed_seed_curves_are_pinned(family):
    # the rate curve, the canonical estimate and its rate-distortion view
    # at n = 16, budget 32, seed 5, over every admissible radius
    x = BitWord.from_str("0001111100110101")
    spec = DistortionSpec(family, 16)
    codec.clear_cache()
    rate = distortion_rate_curve(x, spec, None, 32, 5)
    ghat = canonical_estimate(x, spec, list(range(17)), 32, 5)
    dist = transform_rate_distortion(ghat, spec, admissible_radii(spec))
    got = tuple(_curve_digest(e) for e in (rate, ghat, dist))
    assert got == PINNED_CURVE_DIGESTS[family]


class TestCanonicalEstimate:
    def test_endpoints(self):
        rng = random.Random(17)
        x = BitWord.random(rng, 12)
        est = canonical_estimate(x, H12, list(range(13)), budget=FULL, seed=18)
        assert est.points[0].bits == codelength(x)
        gmin = brute_min_rate(x, H12, Fraction(1, 2))[0]
        assert est.points[-1].bits == gmin
        bits = [p.bits for p in est.points]
        assert all(a >= b for a, b in zip(bits, bits[1:]))

    def test_matches_brute_force_per_level(self):
        from ardtk.distortion import radius_for_log_cardinality

        rng = random.Random(19)
        x = BitWord.random(rng, 12)
        est = canonical_estimate(x, H12, list(range(13)), budget=FULL, seed=20)
        running = math.inf
        for p in est.points:
            delta = radius_for_log_cardinality(H12, p.axis_value)
            running = min(running, brute_min_rate(x, H12, delta)[0])
            assert p.bits == running

    def test_list_curve_falls_a_bit_per_level(self):
        x = BitWord(32, 0xDEADBEEF)
        est = canonical_estimate(x, DistortionSpec(LIST, 32), list(range(33)),
                                 budget=100, seed=0)
        bits = [p.bits for p in est.points]
        assert bits[0] >= 45 and bits[32] <= 20
        assert all(0 <= a - b <= 2 for a, b in zip(bits, bits[1:]))
        assert [p.distortion for p in est.points] == list(range(33))

    def test_list_curve_of_random_word_has_the_paper_shape(self):
        # joining the 2^t members of each cylinder could not get past t = 18
        x = BitWord.random(random.Random(31), 64)
        est = canonical_estimate(x, DistortionSpec(LIST, 64), list(range(65)),
                                 budget=100, seed=0)
        assert shape_bounds_check(est, 64).ok

    def test_list_curve_spends_one_oracle_miss_per_level(self, monkeypatch):
        n = 96
        x = BitWord.random(random.Random(32), n)
        codec.clear_cache()
        misses = []
        compress = codec.compress
        monkeypatch.setattr(codec, "compress", lambda w: misses.append(w) or compress(w))
        est = canonical_estimate(x, DistortionSpec(LIST, n), list(range(n + 1)),
                                 budget=n + 1, seed=0)
        assert len(misses) == n + 1
        assert est.budget_used == n + 1

    @pytest.mark.parametrize("n,grid,budget", [
        (40, range(41), 100), (40, range(41), 7), (40, [0, 3, 3, 17, 40], 100),
        (64, [5, 9, 60], 12), (1, [0, 1], 1), (16, [16], 3),
    ])
    def test_list_curve_equals_a_search_per_level(self, n, grid, budget):
        # carrying the best across levels gives the points of a fresh
        # search_min_rate at every level
        spec = DistortionSpec(LIST, n)
        x = BitWord.random(random.Random(n + budget), n)
        est = canonical_estimate(x, spec, list(grid), budget=budget, seed=0)
        best = None
        for l, p in zip(grid, est.points):
            cand = search_min_rate(x, spec, Fraction(l), budget=budget, seed=0)
            if best is None or cand.score < best.score:
                best = cand
            assert (p.axis_value, p.bits, p.distortion, p.candidate) == (
                l, best.score, best.distortion, best)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            canonical_estimate(BitWord.zeros(8), DistortionSpec(HAMMING, 8),
                               [0, 9], budget=4, seed=0)
        with pytest.raises(ValueError):
            canonical_estimate(BitWord.zeros(8), DistortionSpec(HAMMING, 8),
                               [4, 0], budget=4, seed=0)


class TestBudgetAccounting:
    """budget_used is the number of oracle evaluations the curve spent."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]

        def counted(w, below=None):
            count[0] += 1
            return codelength(w)

        monkeypatch.setattr(rdsearch, "codelength", counted)
        return count

    def test_budget_used_equals_oracle_calls(self, calls):
        # at n = 16 and budget 64 the radius-0 and radius-1/16 levels are
        # enumerated and the wider ones are searched heuristically
        h16 = DistortionSpec(HAMMING, 16)
        x = BitWord.random(random.Random(41), 16)
        y = BitWord.random(random.Random(42), 8)
        runs = [
            lambda: distortion_rate_curve(x, h16, None, budget=64, seed=1),
            lambda: canonical_estimate(x, h16, list(range(17)), budget=64, seed=2),
            lambda: distortion_rate_curve(y, DistortionSpec(LIST, 8), None, budget=64, seed=3),
        ]
        for run in runs:
            calls[0] = 0
            est = run()
            assert est.budget_used == calls[0] > 0

    def test_trace_ends_with_evaluations_spent(self, calls):
        x = BitWord.random(random.Random(43), 16)
        trace = []
        c = search_min_rate(x, DistortionSpec(HAMMING, 16), Fraction(1, 4),
                            budget=64, seed=4, trace=trace)
        assert trace[-1] == (calls[0], c.score)


class TestTransform:
    def _synthetic(self, n, axis="log_cardinality"):
        points = [
            CurvePoint(axis_value=l, bits=100 - l, distortion=Fraction(0))
            for l in range(n + 1)
        ]
        return CurveEstimate(axis=axis, points=points, budget_used=0)

    def test_zero_delta_reads_level_zero(self):
        ghat = self._synthetic(16)
        est = transform_rate_distortion(ghat, DistortionSpec(HAMMING, 16))
        assert est.points[0].axis_value == 0 and est.points[0].bits == 100

    def test_quarter_radius_uses_level_twelve(self):
        # |B(1/4)| = 2517 at n=16, so the curve is read at level 12
        ghat = self._synthetic(16)
        est = transform_rate_distortion(ghat, DistortionSpec(HAMMING, 16))
        point = next(p for p in est.points if p.axis_value == Fraction(1, 4))
        assert point.bits == 100 - 12

    def test_monotone_in_delta(self):
        ghat = self._synthetic(12)
        est = transform_rate_distortion(ghat, DistortionSpec(HAMMING, 12))
        bits = [p.bits for p in est.points]
        assert all(a >= b for a, b in zip(bits, bits[1:]))

    def test_missing_grid_point(self):
        ghat = self._synthetic(16)
        ghat.points = [p for p in ghat.points if p.axis_value != 12]
        with pytest.raises(MissingGridPointError):
            transform_rate_distortion(ghat, DistortionSpec(HAMMING, 16))

    def test_requires_canonical_axis(self):
        with pytest.raises(ValueError):
            transform_rate_distortion(self._synthetic(8, axis="rate"),
                                      DistortionSpec(HAMMING, 8))


class TestShapes:
    def test_all_steps_down(self):
        g = shape_generate(10, 10, seed=0)
        assert g.values == tuple(10 - l for l in range(11))

    def test_flat_zero(self):
        g = shape_generate(10, 0, seed=0)
        assert g.values == (0,) * 11

    def test_generator_outputs_validate(self):
        rng = random.Random(21)
        for _ in range(50):
            n = rng.randint(1, 40)
            k = rng.randint(0, n)
            g = shape_generate(n, k, seed=rng.randint(0, 10**6))
            ok, bad = shape_validate(g, n)
            assert ok and bad is None
            assert g(0) == k and g(n) == 0

    def test_generate_bad_k(self):
        with pytest.raises(ValueError):
            shape_generate(5, 6, seed=0)

    def test_validate_rejects_big_step(self):
        ok, bad = shape_validate((4, 2, 1, 0), 3)
        assert not ok and bad == 1

    def test_validate_rejects_nonzero_tail(self):
        ok, bad = shape_validate((3, 2, 1, 1), 3)
        assert not ok and bad == 3

    def test_validate_rejects_wrong_length(self):
        ok, _ = shape_validate((1, 0), 3)
        assert not ok


class TestShapeBounds:
    def _estimate(self, bits_by_level):
        points = [
            CurvePoint(axis_value=l, bits=b, distortion=Fraction(0))
            for l, b in enumerate(bits_by_level)
        ]
        return CurveEstimate(axis="log_cardinality", points=points, budget_used=0)

    def test_perfect_staircase_has_no_violations(self):
        n = 16
        est = self._estimate([n - l for l in range(n + 1)])
        for c in (0, 1, 8):
            rep = shape_bounds_check(est, n, slack_c=c)
            assert rep.ok and rep.violations == [] and rep.tail_ok

    def test_increasing_curve_is_flagged(self):
        est = self._estimate([0, 0, 50, 0, 0])
        rep = shape_bounds_check(est, 4, slack_c=1)
        assert not rep.ok
        assert any(l < m for l, m, _ in rep.violations)

    def test_fast_drop_is_flagged(self):
        est = self._estimate([60, 1, 1, 1, 0])
        rep = shape_bounds_check(est, 4, slack_c=1)
        assert not rep.ok

    def test_fat_tail_is_flagged(self):
        n = 8
        est = self._estimate([40] * n + [40])
        rep = shape_bounds_check(est, n, slack_c=1)
        assert not rep.tail_ok and not rep.ok

    def test_estimated_curve_passes_at_default_slack(self):
        rng = random.Random(23)
        x = BitWord.random(rng, 12)
        ghat = canonical_estimate(x, H12, list(range(13)), budget=256, seed=24)
        rep = shape_bounds_check(ghat, 12, slack_c=8)
        assert rep.ok
