"""Ball-covering construction tests."""
import hashlib
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ardtk.cover as cover
from ardtk.bits import BitWord
from ardtk.cover import (
    CoverError,
    cover_ball,
    cover_space,
    shell_offset,
    verify_cover,
)
from ardtk.distortion import (
    HAMMING,
    LIST,
    Ball,
    DistortionSpec,
    SizeGuardError,
    ball_cardinality,
)


def spec(n):
    return DistortionSpec(HAMMING, n)


class TestShellOffset:
    def test_worked_example(self):
        assert shell_offset(Fraction(1, 8), Fraction(3, 8), 8) == Fraction(3, 8)

    def test_exact_half_rounds_down(self):
        # (3/10 - 1/10) / (8/10) * 10 = 2.5, so the grid point below wins
        assert shell_offset(Fraction(1, 10), Fraction(3, 10), 10) == Fraction(1, 5)

    def test_zero_small_radius_is_identity(self):
        for i in range(5):
            assert shell_offset(Fraction(0), Fraction(i, 8), 8) == Fraction(i, 8)

    def test_solves_offset_equation_on_grid(self):
        d = Fraction(1, 4)
        f = shell_offset(d, Fraction(1, 2), 8)
        assert d + f * (1 - 2 * d) == Fraction(1, 2)
        assert f == Fraction(1, 2)

    def test_monotone_in_shell_distance(self):
        d = Fraction(1, 12)
        offs = [shell_offset(d, Fraction(i, 12), 12) for i in range(2, 7)]
        assert offs == sorted(offs)

    def test_rejects_half_small_radius(self):
        with pytest.raises(ValueError):
            shell_offset(Fraction(1, 2), Fraction(1, 2), 8)


class TestCoverBall:
    def test_equal_radii_single_center(self):
        r = cover_ball(spec(12), Fraction(1, 4), Fraction(1, 4), seed=1)
        assert [w.to01() for w in r.centers] == ["0" * 12]
        assert r.verified is True

    def test_zero_small_radius_enumerates_members(self):
        s = spec(10)
        r = cover_ball(s, Fraction(3, 10), Fraction(0), seed=1)
        assert r.size == ball_cardinality(s, Fraction(3, 10))
        assert r.verified is True

    def test_verified_and_bounded(self):
        s = spec(12)
        r = cover_ball(s, Fraction(1, 2), Fraction(1, 12), seed=7)
        assert r.verified is True
        assert r.volume_lower <= r.size <= r.size_bound

    def test_all_pairs_small_n(self):
        s = spec(8)
        for dn in range(0, 5):
            for deltan in range(dn, 5):
                r = cover_ball(s, Fraction(deltan, 8), Fraction(dn, 8), seed=5)
                assert r.verified is True
                assert r.size <= r.size_bound

    def test_deterministic_in_seed(self):
        a = cover_ball(spec(10), Fraction(2, 5), Fraction(1, 10), seed=42)
        b = cover_ball(spec(10), Fraction(2, 5), Fraction(1, 10), seed=42)
        assert a.centers == b.centers
        assert [s.draws_used for s in a.shells] == [s.draws_used for s in b.shells]

    def test_irredundant_after_prune(self):
        s = spec(9)
        r = cover_ball(s, Fraction(4, 9), Fraction(1, 9), seed=3)
        target = Ball(s, Fraction(4, 9), center=BitWord.zeros(9)).members()
        for i in range(r.size):
            others = r.centers[:i] + r.centers[i + 1 :]
            ok, _ = verify_cover(
                Ball(s, Fraction(4, 9), center=BitWord.zeros(9)),
                others,
                Fraction(1, 9),
            )
            assert not ok, "every kept center must cover something private"
        assert all(any(c.hamming(m) <= 1 for c in r.centers) for m in target)

    def test_prune_keeps_pinned_centers(self):
        # 34 drawn centers, 21 of them dropped as doubly covered; the kept
        # ones and their order are pinned
        r = cover_ball(spec(8), Fraction(1, 2), Fraction(1, 4), seed=0)
        assert sum(sh.centers_used for sh in r.shells) + 1 == 34
        assert [c.value for c in r.centers] == [
            34, 33, 40, 20, 132, 96, 9, 10, 65, 3, 144, 72, 66,
        ]

    def test_shell_records_match_offsets(self):
        d = Fraction(1, 12)
        r = cover_ball(spec(12), Fraction(5, 12), d, seed=9)
        assert [s.delta_shell for s in r.shells] == [
            Fraction(i, 12) for i in range(2, 6)
        ]
        for rec in r.shells:
            assert rec.offset == shell_offset(d, rec.delta_shell, 12)
            assert rec.draws_used <= rec.draw_budget

    def test_rejects_bad_inputs(self):
        s = spec(8)
        with pytest.raises(ValueError):
            cover_ball(s, Fraction(1, 4), Fraction(1, 3), seed=1)  # off-grid d
        with pytest.raises(ValueError):
            cover_ball(s, Fraction(1, 8), Fraction(1, 4), seed=1)  # d > delta
        with pytest.raises(ValueError):
            cover_ball(s, Fraction(5, 8), Fraction(1, 8), seed=1)  # delta > 1/2
        with pytest.raises(ValueError):
            cover_ball(s, Fraction(1, 4), Fraction(1, 8), seed=-1)
        with pytest.raises(ValueError):
            cover_ball(DistortionSpec(LIST, 8), Fraction(1, 4), Fraction(1, 8), seed=1)

    def test_size_guard_fires_before_enumeration(self):
        # b(1/2) at n = 32 is about 2^31 words; a shell enumeration alone
        # would hold comb(32, 16) values
        start = time.perf_counter()
        with pytest.raises(SizeGuardError):
            cover_ball(spec(32), Fraction(1, 2), Fraction(1, 4), seed=0)
        with pytest.raises(SizeGuardError):
            cover_space(spec(32), Fraction(1, 4), seed=0)
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_pairs_verify(self, data):
        n = data.draw(st.integers(min_value=4, max_value=10))
        dn = data.draw(st.integers(min_value=0, max_value=n // 2))
        deltan = data.draw(st.integers(min_value=dn, max_value=n // 2))
        seed = data.draw(st.integers(min_value=0, max_value=2**16))
        r = cover_ball(spec(n), Fraction(deltan, n), Fraction(dn, n), seed=seed)
        assert r.verified is True
        assert r.volume_lower <= r.size <= r.size_bound

    @pytest.mark.parametrize("d, want", [
        # d = 0 takes its center order straight from the shell enumeration
        (Fraction(0), "1c1e3bc531770705c3262d2dd9f914efa205d1a85583cfe38756c3c496637d94"),
        (Fraction(1, 10), "e0b31d598764965e7c22f72e31616501cc541b6e1766eecda1dd950a1104638e"),
    ])
    def test_pinned_centers_and_shells(self, d, want):
        r = cover_ball(spec(10), Fraction(3, 10), d, seed=0)
        h = hashlib.sha256(" ".join(c.to01() for c in r.centers).encode())
        for sh in r.shells:
            h.update(repr((sh.delta_shell, sh.offset, sh.centers_used,
                           sh.draw_budget, sh.draws_used, sh.retries)).encode())
        assert h.hexdigest() == want

    def test_miss_raises_naming_first_uncovered(self, monkeypatch):
        # with no shell centers only 0^6 is left; the first target member
        # outside its radius-1 ball is 000011
        monkeypatch.setattr(cover, "_cover_shell", lambda *args: ([], 0, 0))
        with pytest.raises(CoverError, match="misses BitWord\\('000011'\\)"):
            cover_ball(spec(6), Fraction(1, 2), Fraction(1, 6), seed=0)
        half = cover.CoverResult(
            spec=spec(6), delta=Fraction(1, 2), d=Fraction(1, 6),
            centers=[BitWord.zeros(6)], shells=[], seed=0, draw_exponent=1,
            size_bound=0, volume_lower=0,
        )
        monkeypatch.setattr(cover, "cover_ball", lambda *args: half)
        with pytest.raises(CoverError, match="misses BitWord\\('000011'\\)"):
            cover_space(spec(6), Fraction(1, 6), seed=0)



class TestCoverSpace:
    def test_half_radius_needs_two(self):
        r = cover_space(spec(10), Fraction(1, 2), seed=1)
        assert sorted(w.to01() for w in r.centers) == ["0" * 10, "1" * 10]

    def test_zero_radius_is_whole_cube(self):
        r = cover_space(spec(6), Fraction(0), seed=1)
        assert r.size == 64

    def test_even_and_odd_n(self):
        for n, dn in [(9, 2), (12, 3)]:
            r = cover_space(spec(n), Fraction(dn, n), seed=4)
            assert r.verified is True
            assert r.volume_lower <= r.size <= r.size_bound

    def test_closed_under_nothing_but_still_verified(self):
        # mirroring can duplicate self-complementary center sets; the union
        # must still be an actual cover after pruning
        r = cover_space(spec(8), Fraction(1, 8), seed=2)
        assert r.verified is True
        assert len({w.value for w in r.centers}) == r.size


class TestVerifyCover:
    def test_reports_lex_first_witness(self):
        s = spec(6)
        ball = Ball(s, Fraction(1, 2), center=BitWord.zeros(6))
        ok, witness = verify_cover(ball, [BitWord.zeros(6)], Fraction(1, 6))
        assert not ok
        # everything of weight <= 1 is covered; the first miss is 000011
        assert witness == BitWord.from_str("000011")

    def test_accepts_complete_cover(self):
        s = spec(6)
        ball = Ball(s, Fraction(1, 6), center=BitWord.zeros(6))
        ok, witness = verify_cover(ball, [BitWord.zeros(6)], Fraction(1, 6))
        assert ok and witness is None

    def test_large_n_guard(self):
        s = spec(25)
        ball = Ball(s, Fraction(1, 25), center=BitWord.zeros(25))
        with pytest.raises(ValueError):
            verify_cover(ball, [BitWord.zeros(25)], Fraction(1, 25))
