"""Classical baseline tests: alternating minimization vs closed form."""
import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import ardtk.shannon as shannon
from ardtk.bits import BitWord
from ardtk.codec import LENGTH_TABLE_MAX_N, codelength
from ardtk.distortion import DistortionSpec, binary_entropy
from ardtk.shannon import (
    BAConvergenceError,
    ComparisonReport,
    SourceModel,
    analytic_binary_hamming,
    blahut_arimoto,
    expected_rate_comparison,
    hamming_distortion_matrix,
)

FAIR = SourceModel.bernoulli(Fraction(1, 2), n=1)
DMAT = hamming_distortion_matrix()

# frozen closed-form values, 1 - H(1/4) and H(1/4) - H(1/8)
RATE_QUARTER = 0.1887218755408672
RATE_SKEW = 0.2677136812595364


class TestSourceModel:
    def test_bernoulli_pmf_exact(self):
        src = SourceModel.bernoulli(Fraction(1, 3), n=4)
        assert src.pmf == (Fraction(2, 3), Fraction(1, 3))
        assert src.p_one == Fraction(1, 3)

    def test_negative_probability_rejected(self):
        # either letter's probability negative: p_one below 0 or above 1
        for p_one in (Fraction(-1, 2), Fraction(3, 2)):
            with pytest.raises(ValueError, match=r"p_one must lie in \[0, 1\]"):
                SourceModel.bernoulli(p_one, n=1)
        assert SourceModel.bernoulli(0, n=1).pmf == (1, 0)
        assert SourceModel.bernoulli(1, n=1).pmf == (0, 1)

    def test_block_length_positive(self):
        with pytest.raises(ValueError, match="block length"):
            SourceModel.bernoulli(Fraction(1, 2), n=0)

    def test_sample_word_deterministic(self):
        src = SourceModel.bernoulli(Fraction(1, 2), n=32)
        a = src.sample_word(random.Random(9))
        b = src.sample_word(random.Random(9))
        assert a == b and a.n == 32

    def test_sample_word_frequency(self):
        src = SourceModel.bernoulli(Fraction(1, 4), n=4000)
        w = src.sample_word(random.Random(1))
        assert 0.20 < w.weight() / 4000 < 0.30


class TestAnalytic:
    def test_frozen_values(self):
        assert analytic_binary_hamming(0.5, 0.25) == pytest.approx(
            RATE_QUARTER, abs=1e-12
        )
        assert analytic_binary_hamming(0.25, 0.125) == pytest.approx(
            RATE_SKEW, abs=1e-12
        )

    def test_zero_distortion_gives_entropy(self):
        assert analytic_binary_hamming(0.5, 0.0) == pytest.approx(1.0)
        assert analytic_binary_hamming(0.3, 0.0) == pytest.approx(
            binary_entropy(0.3)
        )

    def test_zero_beyond_edge(self):
        assert analytic_binary_hamming(0.25, 0.25) == 0.0
        assert analytic_binary_hamming(0.25, 0.4) == 0.0
        assert analytic_binary_hamming(0.5, 0.5) == 0.0

    def test_degenerate_source(self):
        assert analytic_binary_hamming(0.0, 0.1) == 0.0
        assert analytic_binary_hamming(1.0, 0.0) == 0.0

    def test_symmetry_in_p(self):
        for d in (0.05, 0.1, 0.2):
            assert analytic_binary_hamming(0.3, d) == pytest.approx(
                analytic_binary_hamming(0.7, d)
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            analytic_binary_hamming(-0.1, 0.1)
        with pytest.raises(ValueError):
            analytic_binary_hamming(0.5, 1.5)


class TestBlahutArimoto:
    def test_matches_closed_form_on_grid(self):
        for i in range(1, 10):
            d = i / 20
            pt = blahut_arimoto(FAIR, DMAT, d, tol=1e-6)
            assert pt.rate == pytest.approx(
                analytic_binary_hamming(0.5, d), abs=1e-4
            ), f"delta={d}"

    def test_frozen_quarter_point(self):
        pt = blahut_arimoto(FAIR, DMAT, 0.25, tol=1e-6)
        assert pt.rate == pytest.approx(RATE_QUARTER, abs=1e-4)

    def test_endpoints(self):
        assert blahut_arimoto(FAIR, DMAT, 0.0).rate == pytest.approx(1.0, abs=1e-4)
        top = blahut_arimoto(FAIR, DMAT, 0.5)
        assert top.rate == 0.0 and top.iterations == 0

    def test_zero_rate_channel_is_constant(self):
        pt = blahut_arimoto(FAIR, DMAT, 0.7)
        cols = set(pt.channel)
        assert len(cols) == 1 and sum(pt.channel[0]) == 1.0

    def test_skewed_source(self):
        skew = SourceModel.bernoulli(Fraction(1, 4), n=1)
        pt = blahut_arimoto(skew, DMAT, 0.125, tol=1e-6)
        assert pt.rate == pytest.approx(RATE_SKEW, abs=1e-4)
        assert blahut_arimoto(skew, DMAT, 0.25).rate == 0.0

    def test_channel_rows_are_distributions(self):
        pt = blahut_arimoto(FAIR, DMAT, 0.11, tol=1e-6)
        for row in pt.channel:
            assert sum(row) == pytest.approx(1.0, abs=1e-9)
            assert all(v >= 0 for v in row)

    def test_distortion_constraint_met(self):
        for d in (0.07, 0.2, 0.33):
            pt = blahut_arimoto(FAIR, DMAT, d, tol=1e-6)
            w = np.array(pt.channel)
            dist = float(np.array([0.5, 0.5]) @ (w * np.array(DMAT)).sum(axis=1))
            assert dist <= d + 1e-6

    def test_rate_nonincreasing_and_convex(self):
        grid = [i / 20 for i in range(0, 11)]
        rates = [blahut_arimoto(FAIR, DMAT, d, tol=1e-6).rate for d in grid]
        assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:]))
        for i in range(1, len(rates) - 1):
            assert rates[i] <= (rates[i - 1] + rates[i + 1]) / 2 + 1e-6

    def test_gap_within_inner_tolerance(self):
        pt = blahut_arimoto(FAIR, DMAT, 0.15, tol=1e-6)
        assert pt.gap <= 1e-6 / 8 + 1e-15

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError, match="tol"):
            blahut_arimoto(FAIR, DMAT, 0.2, tol=0.0)

    def test_matrix_shape_checked(self):
        bad = [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]
        with pytest.raises(ValueError, match="alphabet"):
            blahut_arimoto(FAIR, bad, 0.2)

    def test_distortion_floor_enforced(self):
        shifted = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(ValueError, match="below achievable"):
            blahut_arimoto(FAIR, shifted, 0.5)
        pt = blahut_arimoto(FAIR, shifted, 1.6)
        assert pt.rate == 0.0

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(shannon, "BA_MAX_ITERATIONS", 0)
        with pytest.raises(BAConvergenceError):
            blahut_arimoto(FAIR, DMAT, 0.25)


def brute_code_map_entropy(n, delta, p_one):
    """Independent reference for the exact-minimizer image entropy."""
    dn = int(Fraction(delta) * n)
    lengths = [codelength(BitWord(n, v)) for v in range(1 << n)]
    mass = {}
    for x in range(1 << n):
        best = None
        for y in range(1 << n):
            if (x ^ y).bit_count() <= dn:
                key = (lengths[y], y)
                if best is None or key < best:
                    best = key
        y = best[1]
        wx = (p_one ** x.bit_count()) * ((1 - p_one) ** (n - x.bit_count()))
        mass[y] = mass.get(y, 0.0) + wx
    h = -sum(w * math.log2(w) for w in mass.values() if w > 0)
    return h, len(mass)


@pytest.fixture(scope="module")
def report():
    src = SourceModel.bernoulli(Fraction(1, 2), n=8)
    spec = DistortionSpec("hamming", 8)
    grid = [Fraction(i, 8) for i in range(0, 5)]
    return expected_rate_comparison(src, spec, grid, samples=3, budget=32, seed=11)


class TestComparison:
    def test_shapes(self, report):
        k = len(report.delta_grid)
        assert k == 5 and report.samples == 3
        assert len(report.per_sample) == 3
        assert all(len(r) == k for r in report.per_sample)
        for curve in (report.mean_curve, report.min_curve, report.max_curve,
                      report.shannon_nR, report.delta2, report.code_map_support):
            assert len(curve) == k

    def test_per_sample_rows_monotone(self, report):
        for row in report.per_sample:
            assert all(b <= a for a, b in zip(row, row[1:]))

    def test_extremes_bracket_mean(self, report):
        for j in range(len(report.delta_grid)):
            assert report.min_curve[j] <= report.mean_curve[j] <= report.max_curve[j]

    def test_shannon_curve_monotone(self, report):
        nr = report.shannon_nR
        assert nr[0] == pytest.approx(8.0, abs=1e-3)
        assert all(b <= a + 1e-9 for a, b in zip(nr, nr[1:]))
        assert nr[-1] == pytest.approx(0.0, abs=1e-9)

    def test_code_map_term(self, report):
        # at delta=0 the minimizer is the identity, so no entropy is lost
        assert report.delta2[0] == pytest.approx(0.0, abs=1e-9)
        assert report.code_map_support[0] == 256
        for d2, used in zip(report.delta2, report.code_map_support):
            assert -1e-9 <= d2 <= 8 + 1e-9
            assert used >= 1

    def test_code_map_matches_brute_force(self):
        for n in range(1, 9):
            grid = [Fraction(k, n) for k in range(n // 2 + 1)]
            for p_one in (Fraction(1, 2), Fraction(1, 5), Fraction(0), Fraction(1)):
                rep = expected_rate_comparison(
                    SourceModel.bernoulli(p_one, n), DistortionSpec("hamming", n),
                    grid, samples=1, budget=1, seed=0,
                )
                for delta, d2, used_fast in zip(grid, rep.delta2, rep.code_map_support):
                    h_ref, used_ref = brute_code_map_entropy(n, delta, float(p_one))
                    assert n - d2 == pytest.approx(h_ref, abs=1e-9)
                    # the reference also counts images that receive no
                    # mass; at p in {0, 1} one word carries all of it
                    assert used_fast == (used_ref if 0 < p_one < 1 else 1)

    def test_code_map_pinned_n12(self):
        src = SourceModel.bernoulli(Fraction(1, 3), n=12)
        spec = DistortionSpec("hamming", 12)
        grid = [Fraction(i, 12) for i in range(7)]
        rep = expected_rate_comparison(src, spec, grid, samples=1, budget=8, seed=0)
        assert repr(rep.delta2) == (
            "(0.98044999134612, 3.0876893357204374, 5.63897120496923, "
            "7.818483996495461, 9.599678436885863, 10.902474936686762, "
            "11.647475135741866)"
        )
        assert rep.code_map_support == (4096, 1791, 491, 131, 41, 12, 2)

    def test_envelopes(self, report):
        lo = report.lower_envelope()
        hi = report.upper_envelope()
        for j in range(len(report.delta_grid)):
            assert lo[j] == pytest.approx(report.mean_curve[j] - 24.0)
            assert hi[j] <= report.max_curve[j] + 1e-9

    def test_deterministic(self, report):
        src = SourceModel.bernoulli(Fraction(1, 2), n=8)
        spec = DistortionSpec("hamming", 8)
        grid = [Fraction(i, 8) for i in range(0, 5)]
        again = expected_rate_comparison(
            src, spec, grid, samples=3, budget=32, seed=11
        )
        assert again.per_sample == report.per_sample
        assert again.delta2 == report.delta2

    def test_large_n_skips_code_map(self):
        n = LENGTH_TABLE_MAX_N + 1
        src = SourceModel.bernoulli(Fraction(1, 2), n=n)
        spec = DistortionSpec("hamming", n)
        rep = expected_rate_comparison(
            src, spec, [Fraction(0), Fraction(1, 2)], samples=1, budget=8, seed=2
        )
        assert rep.delta2 is None and rep.code_map_support is None
        assert rep.exact_mean_curve is None

    def test_code_map_at_cutoff(self):
        assert LENGTH_TABLE_MAX_N == 20
        src = SourceModel.bernoulli(Fraction(1, 2), n=20)
        spec = DistortionSpec("hamming", 20)
        rep = expected_rate_comparison(
            src, spec, [Fraction(0), Fraction(1, 10)], samples=1, budget=8, seed=2
        )
        assert rep.delta2[0] == pytest.approx(0.0, abs=1e-9)
        assert rep.code_map_support[0] == 1 << 20
        assert len(rep.exact_mean_curve) == 2
        assert rep.exact_mean_curve[1] <= rep.exact_mean_curve[0]

    def test_exact_mean_curve_n16(self):
        src = SourceModel.bernoulli(Fraction(1, 2), n=16)
        spec = DistortionSpec("hamming", 16)
        grid = [Fraction(k, 16) for k in range(9)]
        rep = expected_rate_comparison(src, spec, grid, samples=1, budget=8, seed=0)
        want = (25.93, 25.5, 24.19, 22.31, 20.53, 18.95, 17.51, 16.4, 16.0)
        assert rep.exact_mean_curve == pytest.approx(want, abs=0.01)

    def test_exact_mean_curve_is_weighted_minimum(self, report):
        # against the full table and popcount distances at n = 8, p = 1/2
        lengths = np.array([codelength(BitWord(8, v)) for v in range(256)])
        vals = np.arange(256)
        for delta, mean in zip(report.delta_grid, report.exact_mean_curve):
            r = int(delta * 8)
            mins = [lengths[np.bitwise_count(vals ^ x) <= r].min() for x in range(256)]
            assert mean == pytest.approx(sum(mins) / 256, abs=1e-9)

    # the full report at n = 12, grid 0..6/12, 10 samples, seed 0, pinned
    # from the scalar-oracle implementation: at budget 4096 every level is
    # read off the length table, at budget 8 levels 1..6 are searched
    @pytest.mark.parametrize("budget, digest, rows", [
        (4096, "42a5f316a81fc8bd967752b08de7f679d7b9907b5dbfb7c954e5ab2479691e46",
         ((22, 22, 21, 20, 19, 15, 15), (22, 21, 19, 15, 15, 15, 15),
          (22, 22, 20, 20, 17, 17, 15), (22, 22, 22, 21, 19, 18, 15),
          (22, 22, 21, 20, 19, 15, 15), (22, 22, 19, 19, 18, 15, 15),
          (22, 20, 18, 15, 15, 15, 15), (21, 19, 15, 15, 15, 15, 15),
          (22, 22, 22, 21, 19, 18, 15), (22, 22, 20, 19, 15, 15, 15))),
        (8, "955fe56fe8c8adf619066bf4265ec4036b3b2707dc3b45fc3d8f81539c52b65d",
         ((22, 22, 22, 20, 19, 15, 15), (22, 21, 19, 15, 15, 15, 15),
          (22, 22, 22, 21, 20, 18, 15), (22, 22, 22, 22, 21, 18, 15),
          (22, 22, 22, 21, 19, 15, 15), (22, 22, 19, 19, 18, 15, 15),
          (22, 20, 18, 15, 15, 15, 15), (21, 19, 15, 15, 15, 15, 15),
          (22, 22, 22, 22, 21, 18, 15), (22, 22, 20, 19, 15, 15, 15))),
    ])
    def test_report_pinned_n12(self, budget, digest, rows):
        src = SourceModel.bernoulli(Fraction(1, 2), n=12)
        spec = DistortionSpec("hamming", 12)
        grid = [Fraction(i, 12) for i in range(7)]
        rep = expected_rate_comparison(src, spec, grid, 10, budget, 0)
        assert rep.per_sample == rows
        fields = (
            rep.n, rep.delta_grid, rep.samples, rep.budget, rep.seed,
            rep.per_sample, rep.mean_curve, rep.min_curve, rep.max_curve,
            rep.shannon_nR, rep.delta1_slack, rep.delta2, rep.code_map_support,
        )
        assert hashlib.sha256(repr(fields).encode()).hexdigest() == digest

    def test_input_validation(self):
        src = SourceModel.bernoulli(Fraction(1, 2), n=8)
        spec = DistortionSpec("hamming", 8)
        with pytest.raises(ValueError, match="sample"):
            expected_rate_comparison(src, spec, [Fraction(0)], 0, 8, 1)
        with pytest.raises(ValueError, match="binary"):
            expected_rate_comparison(
                src, DistortionSpec("euclid", 8), [Fraction(0)], 1, 8, 1
            )
        with pytest.raises(ValueError, match="match"):
            expected_rate_comparison(
                src, DistortionSpec("hamming", 9), [Fraction(0)], 1, 8, 1
            )
        # levels read off the length table are checked as a search checks them
        with pytest.raises(ValueError, match="radius"):
            expected_rate_comparison(src, spec, [Fraction(0), Fraction(3, 4)], 1, 4096, 1)
