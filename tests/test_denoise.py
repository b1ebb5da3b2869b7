"""Denoising pipeline tests: fit diagnostics, knee rule, noisy cross."""
import hashlib
import math
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ardtk.bits import BitWord
from ardtk.codec import codelength
from ardtk.denoise import (
    DegenerateCurveError,
    DenoiseResult,
    best_rate_against,
    curve_against_reference,
    default_denoise_levels,
    deficiency_estimate,
    denoise,
    knee_detect,
    majority_filter,
    make_noisy_cross,
    sufficiency_gap,
)
from ardtk.distortion import Ball, DistortionSpec
from ardtk.rdsearch import Candidate, CurveEstimate, CurvePoint

H10 = DistortionSpec("hamming", 10)
H64 = DistortionSpec("hamming", 64)


def bit(w, i):
    """Bit i of w, index 0 the leftmost."""
    return (w.value >> (w.n - 1 - i)) & 1


def synthetic_curve(pairs):
    """CurveEstimate with the given (rate, distortion) corner points."""
    points = [
        CurvePoint(
            axis_value=r, bits=r, distortion=d,
            candidate=Candidate(BitWord.zeros(4), int(r), d),
        )
        for r, d in pairs
    ]
    return CurveEstimate(axis="rate", points=points, budget_used=0)


def uniform_ball_member(rng, center, rmax_count):
    """Uniform draw from the ball: radius by shell weight, then positions."""
    n = center.n
    weights = [comb(n, k) for k in range(rmax_count + 1)]
    k = rng.choices(range(rmax_count + 1), weights=weights)[0]
    v = center.value
    for i in rng.sample(range(n), k):
        v ^= 1 << (n - 1 - i)
    return BitWord(n, v)


class TestNoisyCross:
    def test_zero_noise_is_identity(self):
        clean, noisy = make_noisy_cross(8, 0, 3)
        assert clean == noisy

    def test_flip_count_exact(self):
        clean, noisy = make_noisy_cross(32, Fraction(1, 10), 0)
        assert clean.hamming(noisy) == 102      # floor(0.1 * 1024)
        clean, noisy = make_noisy_cross(9, Fraction(1, 4), 1)
        assert clean.hamming(noisy) == 20       # floor(81 / 4)

    def test_cross_geometry(self):
        clean, _ = make_noisy_cross(32, 0, 0)
        # thickness 4, bars centered at rows/cols 14..17
        assert clean.weight() == 2 * 32 * 4 - 16
        assert bit(clean, 0 * 32 + 14) == 1 and bit(clean, 0 * 32 + 13) == 0
        assert all(bit(clean, 14 * 32 + c) == 1 for c in range(32))
        clean10, _ = make_noisy_cross(10, 0, 0)
        assert clean10.weight() == 2 * 10 * 2 - 4

    def test_clean_cross_is_compressible(self):
        clean, _ = make_noisy_cross(32, 0, 0)
        assert codelength(clean) <= 32 * 32 // 4

    def test_deterministic(self):
        a = make_noisy_cross(16, Fraction(1, 10), 7)
        b = make_noisy_cross(16, Fraction(1, 10), 7)
        assert a == b

    def test_input_validation(self):
        with pytest.raises(ValueError, match=">= 8"):
            make_noisy_cross(7, 0, 0)
        with pytest.raises(ValueError, match="flip fraction"):
            make_noisy_cross(8, Fraction(2, 3), 0)
        with pytest.raises(ValueError, match="flip fraction"):
            make_noisy_cross(8, -1, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        side=st.integers(min_value=8, max_value=16),
        num=st.integers(min_value=0, max_value=50),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_flip_count_property(self, side, num, seed):
        frac = Fraction(num, 100)
        clean, noisy = make_noisy_cross(side, frac, seed)
        assert clean.hamming(noisy) == int(frac * side * side)


class TestMajorityFilter:
    def test_constant_images_fixed(self):
        ones = BitWord(16, (1 << 16) - 1)
        assert majority_filter(ones, 4) == ones
        zeros = BitWord.zeros(16)
        assert majority_filter(zeros, 4) == zeros

    def test_isolated_speck_removed(self):
        img = BitWord.zeros(25).flip(12)
        assert majority_filter(img, 5) == BitWord.zeros(25)

    def test_hole_in_bar_refilled(self):
        clean, _ = make_noisy_cross(16, 0, 0)
        damaged = clean.flip(8 * 16 + 8)        # interior pixel off
        filtered = majority_filter(damaged, 16)
        assert bit(filtered, 8 * 16 + 8) == 1
        assert filtered.hamming(clean) <= 4

    def test_cross_nearly_fixed(self):
        # the vote only rounds the four inner corners of the plus
        clean, _ = make_noisy_cross(32, 0, 0)
        filtered = majority_filter(clean, 32)
        assert filtered.value & clean.value == clean.value
        diff = clean ^ filtered
        added = [(i // 32, i % 32) for i in range(1024) if bit(diff, i)]
        assert added == [(13, 13), (13, 18), (18, 13), (18, 18)]

    def test_tie_keeps_pixel(self):
        # 2x2 image: every window is the full image, 2 ones vs 2 zeros
        img = BitWord.from_bits([1, 1, 0, 0])
        assert majority_filter(img, 2) == img

    @staticmethod
    def _by_cells(word, width, rounds=1):
        """Reference: the vote cell by cell over the in-image neighbours."""
        n = word.n
        height = n // width
        cur = [bit(word, i) for i in range(n)]
        for _ in range(rounds):
            nxt = cur[:]
            for r in range(height):
                for c in range(width):
                    ones = 0
                    total = 0
                    for rr in range(max(r - 1, 0), min(r + 2, height)):
                        for cc in range(max(c - 1, 0), min(c + 2, width)):
                            total += 1
                            ones += cur[rr * width + cc]
                    if 2 * ones > total:
                        nxt[r * width + c] = 1
                    elif 2 * ones < total:
                        nxt[r * width + c] = 0
            cur = nxt
        return BitWord.from_bits(cur)

    def test_matches_cell_loop_on_crosses(self):
        for seed in range(20):
            _, noisy = make_noisy_cross(32, Fraction(1, 10), seed)
            filtered = noisy
            for rounds in (1, 2, 3):
                filtered = majority_filter(filtered, 32)
                assert filtered == self._by_cells(noisy, 32, rounds)

    def test_matches_cell_loop_on_random_bitmaps(self):
        rng = random.Random(37)
        for _ in range(200):
            width, height = rng.randint(1, 9), rng.randint(0, 9)
            img = BitWord.random(rng, width * height)
            filtered = img
            for rounds in (1, 2):
                filtered = majority_filter(filtered, width)
                assert filtered == self._by_cells(img, width, rounds)

    def test_width_validation(self):
        with pytest.raises(ValueError, match="width"):
            majority_filter(BitWord.zeros(10), 4)
        with pytest.raises(ValueError, match="width"):
            majority_filter(BitWord.zeros(10), 0)


class TestKneeDetect:
    def test_l_shape_corner(self):
        curve = synthetic_curve([(10, 1.0), (20, 0.0), (100, 0.0)])
        knee = knee_detect(curve)
        assert knee.rate == 20 and knee.index == 1 and not knee.degenerate

    def test_linear_curve_flagged_degenerate(self):
        curve = synthetic_curve([(0, 1.0), (50, 0.5), (100, 0.0)])
        knee = knee_detect(curve)
        assert knee.degenerate and knee.rate == 0

    def test_flat_curve_is_error(self):
        curve = synthetic_curve([(0, 0.3), (50, 0.3), (100, 0.3)])
        with pytest.raises(DegenerateCurveError):
            knee_detect(curve)

    def test_zero_rate_span_is_error(self):
        curve = synthetic_curve([(5, 1.0), (5, 0.5), (5, 0.0)])
        with pytest.raises(DegenerateCurveError):
            knee_detect(curve)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="3"):
            knee_detect(synthetic_curve([(0, 1.0), (10, 0.0)]))

    def test_tie_breaks_to_smaller_rate(self):
        # both interior points sit 0.25 above the unit-square diagonal
        curve = synthetic_curve([(0, 1.0), (25, 0.5), (50, 0.25), (100, 0.0)])
        knee = knee_detect(curve)
        assert knee.rate == 25

    def test_anchor_extends_the_chord(self):
        short = synthetic_curve([(10, 1.0), (20, 0.0)])
        knee = knee_detect(short, anchor_rate=100)
        assert knee.rate == 20 and not knee.degenerate
        with pytest.raises(ValueError, match="3"):
            knee_detect(short, anchor_rate=20)   # anchor inside range: ignored

    def test_unscored_points_skipped(self):
        points = [
            CurvePoint(axis_value=0, bits=math.inf, distortion=math.inf,
                       candidate=None),
            CurvePoint(axis_value=10, bits=10, distortion=1.0,
                       candidate=Candidate(BitWord.zeros(4), 10, 1.0)),
            CurvePoint(axis_value=20, bits=20, distortion=0.0,
                       candidate=Candidate(BitWord.zeros(4), 20, 0.0)),
            CurvePoint(axis_value=90, bits=90, distortion=0.0,
                       candidate=Candidate(BitWord.zeros(4), 90, 0.0)),
        ]
        curve = CurveEstimate(axis="rate", points=points, budget_used=0)
        knee = knee_detect(curve)
        assert knee.rate == 20 and knee.index == 2

    def test_deterministic(self):
        curve = synthetic_curve([(3, 0.9), (17, 0.2), (40, 0.1), (80, 0.0)])
        assert knee_detect(curve) == knee_detect(curve)


class TestDeficiency:
    def test_singleton_ball_near_zero(self):
        x = BitWord.random(random.Random(4), 64)
        ball = Ball(H64, Fraction(0), center=x)
        est = deficiency_estimate(x, ball)
        assert est.log_cardinality == 0
        assert abs(est.value) <= 64

    def test_membership_required(self):
        ball = Ball(H10, Fraction(1, 10), center=BitWord.zeros(10))
        with pytest.raises(ValueError, match="member"):
            deficiency_estimate(BitWord(10, (1 << 10) - 1), ball)
        with pytest.raises(ValueError, match="member"):
            sufficiency_gap(BitWord(10, (1 << 10) - 1), ball)

    def test_center_of_big_ball_is_atypical(self):
        ball = Ball(H64, Fraction(16, 64), center=BitWord.zeros(64))
        est = deficiency_estimate(BitWord.zeros(64), ball)
        assert est.value > 10

    def test_uniform_members_look_typical(self):
        # spot check at n=64: value stays under 32 bits for >= 9/10 draws
        rng = random.Random(123)
        ball = Ball(H64, Fraction(16, 64), center=BitWord.zeros(64))
        small = sum(
            deficiency_estimate(uniform_ball_member(rng, ball.center, 16), ball).value
            <= 32
            for _ in range(10)
        )
        assert small >= 9

    def test_value_decomposition(self):
        ball = Ball(H10, Fraction(3, 10), center=BitWord(10, 37))
        m = ball.members()[17]
        est = deficiency_estimate(m, ball)
        assert est.value == pytest.approx(est.log_cardinality - est.conditional_bits)

    def test_singleton_gap_small(self):
        x = BitWord.random(random.Random(9), 64)
        ball = Ball(H64, Fraction(0), center=x)
        assert abs(sufficiency_gap(x, ball)) <= 64

    def test_gap_dominates_deficiency(self):
        # two-part cost over log-size cost never understates atypicality
        for trial in range(25):
            rng = random.Random(trial)
            n = rng.choice([10, 16, 64])
            spec = DistortionSpec("hamming", n)
            center = BitWord.random(rng, n)
            radius = Fraction(rng.randrange(0, n // 2 + 1), n)
            ball = Ball(spec, radius, center=center)
            m = uniform_ball_member(rng, center, int(radius * n))
            gap = sufficiency_gap(m, ball)
            est = deficiency_estimate(m, ball)
            assert gap + 64 >= est.value


class TestDenoise:
    def test_mini_cross_invariants(self):
        spec = DistortionSpec("hamming", 64)
        clean, noisy = make_noisy_cross(8, Fraction(1, 8), 0)
        res = denoise(noisy, spec, budget=48, seed=1, image_width=8)
        assert isinstance(res, DenoiseResult)
        assert res.diagnostics.residual_weight == noisy.hamming(res.denoised)
        point = res.curve.points[res.knee.index]
        assert res.knee.rate == float(point.bits)
        assert res.denoised == point.candidate.destination
        assert Fraction(res.diagnostics.residual_weight, 64) == point.distortion

    def test_mini_cross_deterministic(self):
        spec = DistortionSpec("hamming", 64)
        _, noisy = make_noisy_cross(8, Fraction(1, 8), 5)
        a = denoise(noisy, spec, budget=48, seed=2, image_width=8)
        b = denoise(noisy, spec, budget=48, seed=2, image_width=8)
        assert a.denoised == b.denoised and a.knee == b.knee

    def test_curve_monotone(self):
        spec = DistortionSpec("hamming", 64)
        _, noisy = make_noisy_cross(8, Fraction(1, 8), 2)
        res = denoise(noisy, spec, budget=48, seed=0, image_width=8)
        ds = [float(p.distortion) for p in res.curve.points]
        assert all(b < a for a, b in zip(ds, ds[1:]))
        rs = [float(p.bits) for p in res.curve.points]
        assert all(b > a for a, b in zip(rs, rs[1:]))

    def test_noiseless_cross_recovers_itself(self):
        spec = DistortionSpec("hamming", 1024)
        clean, _ = make_noisy_cross(32, 0, 0)
        res = denoise(clean, spec, budget=160, seed=3, image_width=32)
        # the knee sits at the input's own rate region; at most a couple
        # of pixels get traded for a cheaper description
        assert res.diagnostics.residual_weight <= 2
        assert 100 <= res.knee.rate <= 200
        assert res.diagnostics.residual_typical

    def test_noisy_cross_single_seed(self):
        spec = DistortionSpec("hamming", 1024)
        clean, noisy = make_noisy_cross(32, Fraction(1, 10), 0)
        res = denoise(noisy, spec, budget=160, seed=0, image_width=32)
        assert res.denoised.hamming(clean) / 1024 <= 0.03
        rstar = best_rate_against(res.curve, clean)
        rates = [float(p.bits) for p in res.curve.points]
        span = max(max(rates), 1024.0) - min(rates)
        assert abs(res.knee.rate - rstar) <= 0.10 * span

    # sha256 of the denoised 32x32 cross, flip 1/10, budget 160, seed s for
    # both the noise and the search; pinned before the search scored its
    # candidates through codelength's below
    PINNED_CROSS_DIGESTS = {
        0: "f08a223112e2bb1d71e895b0110cf9a39191c4b67704e6dc7fe862664389f915",
        1: "2bd652dcedff04c4bddde67f403b5ed70fb4c6e1d50654489ab8b40306b08c4f",
        2: "6804702175a1df97c0058729c06bed0aa385ccad4bd337f672b4100c55297507",
    }

    @pytest.mark.parametrize("seed", sorted(PINNED_CROSS_DIGESTS))
    def test_noisy_cross_output_pinned(self, seed):
        _, noisy = make_noisy_cross(32, Fraction(1, 10), seed)
        res = denoise(noisy, DistortionSpec("hamming", 1024), budget=160,
                      seed=seed, image_width=32)
        digest = hashlib.sha256(res.denoised.to01().encode()).hexdigest()
        assert digest == self.PINNED_CROSS_DIGESTS[seed]

    def test_constant_word_single_corner(self):
        spec = DistortionSpec("hamming", 64)
        z = BitWord.zeros(64)
        res = denoise(z, spec, budget=16, seed=0)
        assert res.denoised == z and res.knee.degenerate
        assert res.diagnostics.residual_weight == 0
        assert res.diagnostics.residual_floor_bits == 0.0

    def test_family_and_length_validation(self):
        with pytest.raises(ValueError, match="bit-flip"):
            denoise(BitWord.zeros(8), DistortionSpec("euclid", 8), 8, 0)
        with pytest.raises(ValueError, match="length"):
            denoise(BitWord.zeros(8), DistortionSpec("hamming", 9), 8, 0)
        with pytest.raises(ValueError, match="width"):
            denoise(BitWord.zeros(8), DistortionSpec("hamming", 8), 8, 0,
                    image_width=3)

    def test_default_levels(self):
        levels = default_denoise_levels(1024)
        assert levels[0] == 0 and levels[-1] == Fraction(1, 2)
        assert levels == sorted(levels)
        assert len(levels) <= 21
        nums = [int(l * 1024) for l in levels[:5]]
        assert nums == [0, 1, 5, 12, 20]


class TestReferenceCurves:
    def test_distances_and_best_rate(self):
        ref = BitWord.zeros(4)
        pairs = [(5, BitWord(4, (1 << 4) - 1)), (20, BitWord.zeros(4)),
                 (30, BitWord(4, 0b1000))]
        points = [
            CurvePoint(axis_value=r, bits=r, distortion=Fraction(0),
                       candidate=Candidate(w, r, Fraction(0)))
            for r, w in pairs
        ]
        curve = CurveEstimate(axis="rate", points=points, budget_used=0)
        table = curve_against_reference(curve, ref)
        assert table == [(5.0, Fraction(1)), (20.0, Fraction(0)),
                         (30.0, Fraction(1, 4))]
        assert best_rate_against(curve, ref) == 20.0

    def test_tie_prefers_smaller_rate(self):
        ref = BitWord.zeros(4)
        points = [
            CurvePoint(axis_value=r, bits=r, distortion=Fraction(0),
                       candidate=Candidate(BitWord.zeros(4), r, Fraction(0)))
            for r in (12, 7)
        ]
        curve = CurveEstimate(axis="rate", points=points, budget_used=0)
        assert best_rate_against(curve, ref) == 7.0

    def test_empty_curve_rejected(self):
        curve = CurveEstimate(axis="rate", points=[], budget_used=0)
        with pytest.raises(ValueError, match="candidates"):
            best_rate_against(curve, BitWord.zeros(4))
