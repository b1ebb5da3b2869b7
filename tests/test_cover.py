"""Ball-covering construction tests."""
import hashlib
import random
import time
from fractions import Fraction

import numpy as np
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
)
from ardtk.distortion import (
    HAMMING,
    LIST,
    Ball,
    DistortionSpec,
    SizeGuardError,
    _shell,
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
            assert not all(
                any(c.hamming(m) <= 1 for c in others) for m in target
            ), "every kept center must cover something private"
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
            centers=[BitWord.zeros(6)], shells=[], seed=0,
            size_bound=0, volume_lower=0,
        )
        monkeypatch.setattr(cover, "cover_ball", lambda *args: half)
        with pytest.raises(CoverError, match="misses BitWord\\('000011'\\)"):
            cover_space(spec(6), Fraction(1, 6), seed=0)

    @pytest.mark.parametrize("n", [25, 28, 32])
    @pytest.mark.parametrize("dn", [0, 1])
    def test_large_n_pruned_and_verified(self, n, dn):
        # past n = 24 a cover is pruned and verified like any other
        r = cover_ball(spec(n), Fraction(4, n), Fraction(dn, n), seed=0)
        assert r.verified is True
        ball = Ball(spec(n), Fraction(4, n), center=BitWord.zeros(n))
        assert first_uncovered(ball, r.centers, Fraction(dn, n)) is None
        # every kept center covers a ball word that no other center covers
        offsets = np.array([v for w in range(dn + 1) for v in _shell(n, w)], dtype=np.uint32)
        reach = np.array([c.value for c in r.centers], dtype=np.uint32)[:, None] ^ offsets
        inside = np.bitwise_count(reach) <= 4
        words, counts = np.unique(reach[inside], return_counts=True)
        private = inside & np.isin(reach, words[counts == 1])
        assert private.any(axis=1).all()


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


def first_uncovered(ball, centers, d):
    """The least member of a Hamming ball within d of no center, or None,
    found by the routine that verifies every constructed cover."""
    n, dn = ball.spec.n, int(d * ball.spec.n)
    bad = cover._first_uncovered(
        cover._Target(n, ball.center.value, 0, ball.steps),
        [c.value for c in centers], dn, cover._Target(n, 0, 0, dn).vals,
    )
    return None if bad is None else BitWord(n, bad)


class TestVerifyCover:
    """The check every constructed cover passes, on hand-made covers."""

    def test_reports_lex_first_witness(self):
        s = spec(6)
        ball = Ball(s, Fraction(1, 2), center=BitWord.zeros(6))
        # everything of weight <= 1 is covered; the first miss is 000011
        assert first_uncovered(ball, [BitWord.zeros(6)], Fraction(1, 6)) == (
            BitWord.from_str("000011")
        )

    def test_accepts_complete_cover(self):
        s = spec(6)
        ball = Ball(s, Fraction(1, 6), center=BitWord.zeros(6))
        assert first_uncovered(ball, [BitWord.zeros(6)], Fraction(1, 6)) is None


# -- scan-based references: each center tested against every target word ----

def ref_cover_shell(n, shell_vals, f_w, dn, draw_budget, seed_seq):
    for attempt in range(cover.MAX_RETRIES):
        rng = np.random.default_rng(list(seed_seq) + [attempt])
        remaining = np.ones(len(shell_vals), dtype=bool)
        centers = []
        draws = 0
        while remaining.any():
            if draws >= draw_budget:
                break
            batch = int(min(256, draw_budget - draws))
            cands = cover._sample_weighted(rng, n, f_w, batch)
            draws += batch
            rem_vals = shell_vals[remaining]
            rem_idx = np.flatnonzero(remaining)
            for c in cands:
                if rem_vals.size == 0:
                    break
                covered = np.bitwise_count(rem_vals ^ c) <= dn
                if covered.any():
                    centers.append(int(c))
                    rem_vals = rem_vals[~covered]
                    rem_idx = rem_idx[~covered]
            remaining[:] = False
            remaining[rem_idx] = True
        if not remaining.any():
            return centers, draws, attempt
    raise CoverError("shell not covered")


def ref_prune(target_vals, centers, dn):
    counts = np.zeros(len(target_vals), dtype=np.int64)
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


def ref_first_uncovered(target_vals, centers, dn):
    covered = np.zeros(len(target_vals), dtype=bool)
    for c in centers:
        covered |= np.bitwise_count(target_vals ^ np.uint32(c)) <= dn
    missing = target_vals[~covered]
    return int(missing[0]) if missing.size else None


def words(n, center, wlo, whi):
    """The target words by distortion._shell, sorted."""
    return np.array(
        sorted(center ^ v for w in range(wlo, whi + 1) for v in _shell(n, w)), dtype=np.uint32
    )


@pytest.fixture
def ways(monkeypatch):
    """Record, per _coverage call, whether it enumerated balls (True: it
    located enumerated words in the target) or scanned (False)."""
    seen, tests = [], [0]
    locate, coverage = cover._Target.locate, cover._coverage

    def counted_locate(self, u):
        tests[0] += 1
        return locate(self, u)

    def spy(*args):
        before = tests[0]
        yield from coverage(*args)
        seen.append(tests[0] > before)

    monkeypatch.setattr(cover._Target, "locate", counted_locate)
    monkeypatch.setattr(cover, "_coverage", spy)
    return seen


class TestTarget:
    @pytest.mark.parametrize("n, center, wlo, whi", [
        (1, 0, 0, 0), (1, 1, 0, 1), (5, 0b10110, 0, 2), (8, 0, 3, 3), (12, 0xABC, 0, 6),
        (16, 0xF00F, 0, 3), (16, 0, 8, 8), (17, 1 << 16, 0, 2), (18, 0x2ABCD, 4, 4),
        (20, 0xFFFFF, 0, 2), (20, 0, 0, 20),
    ])
    def test_slots_number_the_shell_words(self, n, center, wlo, whi):
        t = cover._Target(n, center, wlo, whi)
        assert np.array_equal(np.sort(t.vals), words(n, center, wlo, whi))
        u = np.arange(1 << n, dtype=np.uint32)
        inside, slots = t.locate(u)
        w = np.bitwise_count(u)
        assert np.array_equal(inside, (w >= wlo) & (w <= whi))
        assert np.array_equal(t.vals[slots], u[inside] ^ np.uint32(center))
        assert np.array_equal(t.locate(t.vals ^ np.uint32(center))[1], np.arange(t.size))


class TestCentreSide:
    """The centre-side coverage against the scan-based references."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_scan_references(self, data):
        n = data.draw(st.integers(min_value=2, max_value=14))
        deltan = data.draw(st.integers(min_value=1, max_value=n // 2))
        dn = data.draw(st.sampled_from(sorted({0, deltan, deltan - 1, deltan // 2})))
        seed = data.draw(st.integers(min_value=0, max_value=2**16))
        self.check(n, deltan, dn, seed)

    @pytest.mark.parametrize("n, deltan, dn, seed", [
        (8, 4, 1, 0), (10, 5, 4, 3), (12, 6, 0, 1), (12, 6, 6, 2), (13, 6, 2, 4), (14, 7, 3, 5),
    ])
    def test_both_ways_exercised(self, ways, n, deltan, dn, seed):
        self.check(n, deltan, dn, seed)
        if 0 < dn < deltan:
            assert set(ways) == {True, False}

    @staticmethod
    def check(n, deltan, dn, seed):
        d = Fraction(dn, n)
        offsets = cover._Target(n, 0, 0, dn).vals
        budget = n**2 * ball_cardinality(spec(n), Fraction(deltan, n)) // len(offsets) + 1
        centers = [0]
        for w in range(dn + 1, deltan + 1):
            f_w = int(cover.shell_offset(d, Fraction(w, n), n) * n)
            seeds = (seed, deltan, dn, w)
            got = cover._cover_shell(n, cover._Target(n, 0, w, w), f_w, dn, budget, seeds, offsets)
            assert got == ref_cover_shell(n, words(n, 0, w, w), f_w, dn, budget, seeds)
            centers.extend(got[0])
            # a shell as the target: smaller than a radius-dn ball, it is scanned
            shell = cover._Target(n, 0, w, w)
            assert cover._prune(shell, centers, dn, offsets) == ref_prune(
                words(n, 0, w, w), centers, dn
            )
        target = cover._Target(n, 0, 0, deltan)
        vals = words(n, 0, 0, deltan)
        pruned = cover._prune(target, centers, dn, offsets)
        assert pruned == ref_prune(vals, centers, dn)
        for cs in (pruned, pruned[:-1], pruned[1:], centers[::2]):
            assert cover._first_uncovered(target, cs, dn, offsets) == ref_first_uncovered(
                vals, cs, dn
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_witness_on_random_centres(self, ways, seed):
        rng = random.Random(seed)
        for _ in range(25):
            n = rng.randint(1, 14)
            r = rng.randint(0, n // 2)
            dn = rng.randint(0, n // 2)
            center = rng.getrandbits(n)
            cs = [rng.getrandbits(n) for _ in range(rng.randint(0, 6))]
            target = cover._Target(n, center, 0, r)
            got = cover._first_uncovered(target, cs, dn, cover._Target(n, 0, 0, dn).vals)
            assert got == ref_first_uncovered(words(n, center, 0, r), cs, dn)
        assert set(ways) == {True, False}

    @pytest.mark.parametrize("n, d, seed, want", [
        # digests of the scan-based construction
        (16, Fraction(1, 8), 0, "33ba4c548af0dca3793b1ee7d0f2b9feda590a3f6af3fbed4ef85ce9f0950ef0"),
        (16, Fraction(1, 8), 1, "5c42f4f17d2ac45f679293119a4b3ecdc0e759136ff17d1191c21edf03b46884"),
        (16, Fraction(1, 8), 2, "9676bdd1a9cc090ae7e5b5fd6c6f57e3923e584608941b1700929bfc188c0aa1"),
        (18, Fraction(1, 9), 0, "d7f249668bbf99f02aab7087c084237aac2e0469c45df2a93fa8d5a270921432"),
    ])
    def test_pinned_large_covers(self, n, d, seed, want):
        r = cover_ball(spec(n), Fraction(1, 2), d, seed=seed)
        h = hashlib.sha256(" ".join(c.to01() for c in r.centers).encode())
        for sh in r.shells:
            h.update(repr((sh.delta_shell, sh.offset, sh.centers_used,
                           sh.draw_budget, sh.draws_used, sh.retries)).encode())
        assert h.hexdigest() == want


class TestVerifyCoverInputs:
    """The same check on random balls and centers, against brute force."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        for _ in range(30):
            n = rng.randint(1, 8)
            ball = Ball(spec(n), Fraction(rng.randint(0, n // 2), n),
                        center=BitWord(n, rng.getrandbits(n)))
            d = Fraction(rng.randint(0, n // 2), n)
            cs = [BitWord(n, rng.getrandbits(n)) for _ in range(rng.randint(0, 5))]
            missed = [m for m in ball.members() if all(c.hamming(m) > d * n for c in cs)]
            assert first_uncovered(ball, cs, d) == (missed[0] if missed else None)
