"""Marking-game engine tests."""
import hashlib
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ardtk import game
from ardtk.bits import BitWord
from ardtk.game import (
    ADVERSARIES,
    GAME_MAX_N,
    GameOverflowError,
    GameParams,
    GameTranscript,
    MoveRecord,
    adversary_balls,
    adversary_random,
    adversary_repeat,
    bob_deterministic_step,
    bob_probabilistic_step,
    largest_pow2_dividing,
    mark_bound,
    per_block_mark_cap,
    play_game,
    probabilistic_mark_cap,
    probabilistic_mark_p,
    verify_transcript,
)


def words(n, *vals):
    return frozenset(BitWord(n, v) for v in vals)


def scan_first_uncovered(tr, params):
    """Reference: rescan the whole cube after every move for a word seen
    in 2^m sets but in no marked set; (move index, least such word)."""
    counts: Counter = Counter()
    covered: "set[int]" = set()
    sets = []
    for t, move in enumerate(tr.moves, start=1):
        s = frozenset(w.value for w in move.alice_set)
        sets.append(s)
        counts.update(s)
        for p in move.marks:
            covered |= sets[p - 1]
        for x in range(1 << params.n):
            if counts[x] >= params.frequency_threshold and x not in covered:
                return t, BitWord(params.n, x)
    return None


def reference_play(alice, params, strategy="det", seed=None):
    """Reference engine on frozensets of ints and a Counter tally, as the
    game was first written; returns (sorted values, marks, win) per move."""
    def as_int_set(alice_set):
        vals = set()
        for w in alice_set:
            if isinstance(w, BitWord):
                if w.n != params.n:
                    raise ValueError(f"set element has length {w.n}, expected {params.n}")
                vals.add(w.value)
            else:
                v = int(w)
                if not 0 <= v < 1 << params.n:
                    raise ValueError("set element out of range")
                vals.add(v)
        return frozenset(vals)

    def greedy(sets):
        t = len(sets)
        block = largest_pow2_dividing(t)
        start = t - block
        occurrences: Counter = Counter()
        for s in sets[start:]:
            occurrences.update(s)
        target = {
            x for x, c in occurrences.items()
            if c * params.k >= params.frequency_threshold
        }
        marks = []
        while target:
            best_p, best_cover = 0, -1
            for i in range(block):
                cover = len(sets[start + i] & target)
                if cover > best_cover:
                    best_p, best_cover = start + i + 1, cover
            marks.append(best_p)
            target -= sets[best_p - 1]
        return tuple(marks)

    rng = random.Random(seed)
    sets, out = [], []
    counts: Counter = Counter()
    covered: "set[int]" = set()
    for raw in alice:
        sets.append(as_int_set(raw))
        counts.update(sets[-1])
        t = len(sets)
        if strategy == "det":
            marks = greedy(sets)
        else:
            marks = (t,) if bob_probabilistic_step(params, rng) else ()
        for p in marks:
            covered |= sets[p - 1]
        frequent = {x for x, c in counts.items() if c >= params.frequency_threshold}
        out.append((tuple(sorted(sets[-1])), marks, frequent <= covered))
    return out


def scan_greedy_marks(sets, params, form):
    """Reference for game._greedy_marks: rescan every block set for each
    mark and take the first set of largest cover."""
    t = len(sets)
    block = largest_pow2_dividing(t)
    start = t - block
    add = form.counter(-(-params.frequency_threshold // params.k), params.n)
    target = form.empty()
    for s in sets[start:]:
        target |= add(s)
    marks = []
    while target:
        best_p, best_cover = 0, -1
        for i in range(block):
            cover = form.size(sets[start + i] & target)
            if cover > best_cover:
                best_p, best_cover = start + i + 1, cover
        marks.append(best_p)
        target -= target & sets[best_p - 1]
    return tuple(marks)


def values(move):
    return tuple(w.value for w in move.alice_set)


def mixed_forms(stream, rng):
    """Each set as ints, as a list with duplicates, or as a mixed
    int/BitWord collection, chosen at random per set."""
    for s in stream:
        form = rng.randrange(4)
        if form == 0:
            yield s
        elif form == 1:
            yield {w.value for w in s}
        elif form == 2:
            items = list(s)
            yield items + rng.choices(items, k=len(items) // 2 + 1) if items else items
        else:
            yield [w.value if rng.random() < 0.5 else w for w in s] + [
                w.value for w in s if rng.random() < 0.25
            ]


class TestHelpers:
    def test_largest_pow2(self):
        assert largest_pow2_dividing(12) == 4
        assert largest_pow2_dividing(1) == 1
        assert largest_pow2_dividing(1 << 10) == 1 << 10
        assert largest_pow2_dividing(96) == 32
        with pytest.raises(ValueError):
            largest_pow2_dividing(0)

    def test_mark_bound_smallest(self):
        assert mark_bound(GameParams(n=1, k=1, m=0)) == 2

    def test_mark_bound_hand_computed(self):
        # k=4, m=2, n=3: blocks j=0..3 give 16*3 + 8*5 + 4*9 + 2*17
        assert mark_bound(GameParams(n=3, k=4, m=2)) == 158

    def test_params_validation(self):
        with pytest.raises(ValueError):
            GameParams(n=0, k=1, m=0)
        with pytest.raises(ValueError):
            GameParams(n=1, k=0, m=0)
        with pytest.raises(ValueError):
            GameParams(n=1, k=2, m=3)

    def test_probability_clamp(self):
        # m=0 puts the raw probability above 1 for every n
        assert probabilistic_mark_p(GameParams(n=1, k=1, m=0)) == 1.0
        p = probabilistic_mark_p(GameParams(n=4, k=6, m=3))
        assert math.isclose(p, 5 * math.log(2) / 8)


class TestDeterministicStrategy:
    def test_empty_stream_wins(self):
        tr = play_game([], GameParams(n=3, k=3, m=1), "det")
        assert tr.moves == [] and tr.won and tr.total_marks == 0

    def test_disjoint_sets_never_marked(self):
        # threshold 2^m/k = 4/2 = 2 occurrences; disjoint sets give one each
        p = GameParams(n=4, k=2, m=2)
        stream = [words(4, 0, 1), words(4, 2, 3), words(4, 4, 5)]
        tr = play_game(stream, p, "det")
        assert tr.total_marks == 0 and tr.won

    def test_m0_covers_everything_seen(self):
        p = GameParams(n=4, k=4, m=0)
        tr = play_game(adversary_random(p, 3), p, "det")
        seen = set()
        covered = set()
        for t, mv in enumerate(tr.moves, 1):
            seen.update(mv.alice_set)
            for idx in mv.marks:
                covered.update(tr.moves[idx - 1].alice_set)
            assert seen <= covered, f"move {t} leaves a seen element uncovered"

    def test_repeat_singleton_covered_by_threshold_move(self):
        p = GameParams(n=4, k=4, m=2)
        tr = play_game(adversary_repeat(p, 9), p, "det")
        x = next(iter(tr.moves[0].alice_set))
        marked_by = None
        covered = set()
        for t, mv in enumerate(tr.moves, 1):
            for idx in mv.marks:
                covered.update(tr.moves[idx - 1].alice_set)
            if marked_by is None and x in covered:
                marked_by = t
        assert marked_by is not None and marked_by <= 4
        assert tr.won

    def test_ball_stream_wins_every_move(self):
        p = GameParams(n=4, k=5, m=1)
        tr = play_game(adversary_balls(p), p, "det")
        assert len(tr.moves) == 16
        assert all(mv.win for mv in tr.moves)
        assert verify_transcript(tr, p).ok

    def test_greedy_tie_prefers_least_index(self):
        p = GameParams(n=4, k=2, m=0)
        history = [words(4, 0, 1), words(4, 2, 3)]
        # move 2, block of two disjoint pairs: both cover 2 of 4 targets
        marks = bob_deterministic_step(history, p)
        assert marks == (1, 2)

    def test_step_is_pure_replay_of_engine(self):
        p = GameParams(n=5, k=5, m=1)
        tr = play_game(adversary_random(p, 17), p, "det")
        history = []
        for mv in tr.moves:
            history.append(mv.alice_set)
            assert bob_deterministic_step(history, p) == mv.marks

    def test_step_accepts_transcript(self):
        p = GameParams(n=4, k=3, m=1)
        tr = play_game(adversary_random(p, 2), p, "det")
        assert bob_deterministic_step(tr, p) == tr.moves[-1].marks

    def test_reproducible_without_seed(self):
        p = GameParams(n=4, k=6, m=2)
        a = play_game(adversary_random(p, 5), p, "det")
        b = play_game(adversary_random(p, 5), p, "det")
        assert a.moves == b.moves

    def test_per_block_and_total_bounds(self):
        rng = random.Random(0)
        for _ in range(40):
            k = rng.randint(1, 7)
            p = GameParams(n=rng.randint(1, 5), k=k, m=rng.randint(0, min(3, k)))
            tr = play_game(adversary_random(p, rng.randint(0, 999)), p, "det")
            assert tr.won
            for t, mv in enumerate(tr.moves, 1):
                cap = per_block_mark_cap(p, largest_pow2_dividing(t))
                assert len(mv.marks) <= cap
            assert tr.total_marks <= mark_bound(p)

    def test_overflow_raises(self):
        p = GameParams(n=3, k=2, m=1)
        stream = [words(3, 1)] * 4  # limit is 3 moves
        with pytest.raises(GameOverflowError):
            play_game(stream, p, "det")

    def test_transcript_reuses_caller_words(self):
        p = GameParams(n=4, k=2, m=0)
        a, b = BitWord(4, 9), BitWord(4, 2)
        tr = play_game([[a, 9, 5, b, 2, a]], p, "det")
        (move,) = tr.moves
        assert move.alice_set == (BitWord(4, 2), BitWord(4, 5), BitWord(4, 9))
        assert move.alice_set[0] is b and move.alice_set[2] is a
        # the first element with a value is kept, an int as a new BitWord
        (move,) = play_game([[9, a]], p, "det").moves
        assert move.alice_set == (a,) and move.alice_set[0] is not a

    def test_rejects_wrong_length_words(self):
        p = GameParams(n=3, k=2, m=1)
        with pytest.raises(ValueError, match="length 4, expected 3"):
            play_game([frozenset([BitWord(4, 0)])], p, "det")
        with pytest.raises(ValueError, match="out of range"):
            play_game([[1, 8]], p, "det")


@pytest.fixture(params=["masks", "sets"])
def form(request, monkeypatch):
    """Hold every game's sets in one form, whatever their sizes."""
    chosen = {"masks": game._Masks, "sets": game._Sets}[request.param]
    monkeypatch.setattr(game, "_form", lambda alice_sets, n: chosen)
    return chosen


class TestEngineForms:
    """Both set forms against the frozenset/Counter reference."""

    def test_form_follows_set_sizes(self):
        dense = GameParams(n=10, k=4, m=2)
        assert game._form(list(adversary_random(dense, 0)), 10) is game._Masks
        sparse = GameParams(n=16, k=4, m=2)
        for adversary in (adversary_repeat, adversary_balls):
            assert game._form(list(adversary(sparse, 0)), 16) is game._Sets
        # masks from an average of 2^n / 512 words a set
        assert game._form([range(2)] * 3, 10) is game._Masks
        assert game._form([range(2), range(1)], 10) is game._Sets

    def test_sparse_streams_at_n16_match_reference(self):
        for name in ("repeat", "balls"):
            for m in (0, 2, 5):
                p = GameParams(n=16, k=6, m=m)
                stream = list(ADVERSARIES[name](p, m))
                tr = play_game(stream, p, "det")
                got = [(values(mv), mv.marks, mv.win) for mv in tr.moves]
                assert got == reference_play(stream, p, "det"), (name, m)
                assert verify_transcript(tr, p).ok

    def test_lazy_greedy_matches_scan(self, form):
        games = 0
        for name, k in (("random", 5), ("repeat", 6), ("balls", 8)):
            for n in (3, 6, 9, 12):
                for seed in range(4):
                    p = GameParams(n=n, k=k, m=seed % 3)
                    sets = [form.make([w.value for w in s], n)
                            for s in ADVERSARIES[name](p, seed)]
                    for t in range(1, len(sets) + 1):
                        assert (game._greedy_marks(sets[:t], p, form)
                                == scan_greedy_marks(sets[:t], p, form)), (name, n, seed, t)
                    games += 1
        assert games == 48

    def test_verifier_and_step_agree_across_forms(self, monkeypatch):
        rng = random.Random(11)
        witnesses = 0
        for _ in range(30):
            k = rng.randint(2, 6)
            p = GameParams(n=rng.randint(1, 6), k=k, m=rng.randint(0, 2))
            tr = play_game(adversary_random(p, rng.randrange(1 << 16)), p, "det")
            cut = GameTranscript(p, "det", None, [
                MoveRecord(mv.alice_set, tuple(q for q in mv.marks if rng.random() < 0.7),
                           mv.win)
                for mv in tr.moves
            ])
            t = rng.randint(1, len(tr.moves))
            results = []
            for chosen in (game._Masks, game._Sets):
                monkeypatch.setattr(game, "_form", lambda alice_sets, n: chosen)
                step = bob_deterministic_step([mv.alice_set for mv in tr.moves[:t]], p)
                results.append((verify_transcript(cut, p), step))
            assert results[0] == results[1]
            assert results[0][1] == tr.moves[t - 1].marks
            witnesses += results[0][0].element is not None
        assert witnesses >= 10

    def test_matches_reference_engine(self, form):
        rng = random.Random(2024)
        games = 0
        for n in range(1, 9):
            for name in sorted(ADVERSARIES):
                for _ in range(5):
                    k = rng.randint(1, 8)
                    p = GameParams(n=n, k=k, m=rng.randint(0, k))
                    seed = rng.randrange(1 << 16)
                    strategy = rng.choice(["det", "prob"])
                    stream = list(ADVERSARIES[name](p, seed))
                    if rng.random() < 0.5:
                        stream = list(mixed_forms(stream, rng))
                    tr = play_game(stream, p, strategy, seed=seed)
                    got = [(values(mv), mv.marks, mv.win) for mv in tr.moves]
                    assert got == reference_play(stream, p, strategy, seed), (n, name, p)
                    games += 1
        assert games == 120

    def test_matches_reference_when_coins_lose(self, form):
        # coin probability below 1 and thresholds the stream reaches, so
        # some moves record a loss
        rng = random.Random(7)
        lost_moves = 0
        for seed in range(30):
            k = rng.randint(5, 8)
            p = GameParams(n=rng.randint(1, 6), k=k, m=rng.randint(3, k - 2))
            stream = list(mixed_forms(adversary_random(p, seed), rng))
            tr = play_game(stream, p, "prob", seed=seed)
            got = [(values(mv), mv.marks, mv.win) for mv in tr.moves]
            assert got == reference_play(stream, p, "prob", seed)
            lost_moves += sum(not mv.win for mv in tr.moves)
        assert lost_moves >= 100

    @pytest.mark.parametrize("seed, digest", [
        (0, "b23b7bddad211712007e05d5ec1cf3c5f4a3795397d3fb868d692c52f5963559"),
        (1, "9467f0106c3b5972041e9aaa9b60335f786f3bc10231c68aa2b0cc713e520dab"),
        (2, "93284aeeb3aea1ee1211d739ad0d81a262f0c7b1e100a249e89af53e251bfce9"),
    ])
    def test_pinned_marks_at_n10(self, seed, digest):
        p = GameParams(n=10, k=10, m=4)
        tr = play_game(adversary_random(p, seed), p, "det")
        marks = repr([mv.marks for mv in tr.moves]).encode()
        assert hashlib.sha256(marks).hexdigest() == digest

    def test_size_guard_draws_nothing(self):
        p = GameParams(n=GAME_MAX_N + 1, k=1, m=0)

        def untouchable():
            raise AssertionError("alice was iterated")
            yield

        with pytest.raises(ValueError, match="n <= 16"):
            play_game(untouchable(), p, "det")
        with pytest.raises(ValueError, match="n <= 16"):
            bob_deterministic_step(untouchable(), p)


class TestVerifyTranscript:
    def _sample(self):
        p = GameParams(n=4, k=4, m=1)
        return p, play_game(adversary_random(p, 11), p, "det")

    def test_accepts_honest_transcript(self):
        p, tr = self._sample()
        assert verify_transcript(tr, p).ok

    def test_detects_dropped_marks(self):
        p, tr = self._sample()
        stripped = GameTranscript(params=p, strategy="det", seed=None)
        stripped.moves = [
            MoveRecord(mv.alice_set, (), mv.win) for mv in tr.moves
        ]
        res = verify_transcript(stripped, p)
        assert not res.ok
        assert res.element is not None or "win" in res.reason

    def test_detects_forward_reference(self):
        p, tr = self._sample()
        bad = GameTranscript(params=p, strategy="det", seed=None)
        bad.moves = list(tr.moves)
        first = bad.moves[0]
        bad.moves[0] = MoveRecord(first.alice_set, (3,), first.win)
        res = verify_transcript(bad, p)
        assert not res.ok and res.move_index == 1

    def test_detects_flag_tampering(self):
        p, tr = self._sample()
        bad = GameTranscript(params=p, strategy="det", seed=None)
        bad.moves = list(tr.moves)
        last = bad.moves[-1]
        bad.moves[-1] = MoveRecord(last.alice_set, last.marks, False)
        res = verify_transcript(bad, p)
        assert not res.ok and res.reason == "recorded win flag is false"

    def test_witness_is_least_uncovered_frequent_word(self):
        rng = random.Random(5)
        misses = 0
        for seed in range(40):
            k = rng.randint(2, 5)
            p = GameParams(n=rng.randint(2, 5), k=k, m=rng.randint(0, 2))
            tr = play_game(adversary_random(p, seed), p, "det")
            dropped = GameTranscript(params=p, strategy="det", seed=None)
            dropped.moves = [
                MoveRecord(mv.alice_set, mv.marks if rng.random() < 0.5 else (), True)
                for mv in tr.moves
            ]
            res = verify_transcript(dropped, p)
            ref = scan_first_uncovered(dropped, p)
            if ref is None:
                assert res.ok
            else:
                misses += 1
                assert not res.ok
                assert (res.move_index, res.element) == ref
                assert res.reason == "frequent element uncovered"
        assert misses >= 10

    def test_large_n_guard(self):
        with pytest.raises(ValueError):
            verify_transcript(
                GameTranscript(GameParams(n=17, k=1, m=0), "det", None),
                GameParams(n=17, k=1, m=0),
            )


class TestProbabilisticStrategy:
    def test_clamped_coin_always_marks(self):
        p = GameParams(n=4, k=3, m=0)
        tr = play_game(adversary_random(p, 1), p, "prob", seed=0)
        assert all(mv.marks == (t,) for t, mv in enumerate(tr.moves, 1))

    def test_empirical_frequency(self):
        p = GameParams(n=4, k=6, m=3)
        prob = probabilistic_mark_p(p)
        rng = random.Random(123)
        trials = 100_000
        hits = sum(bob_probabilistic_step(p, rng) for _ in range(trials))
        sigma = math.sqrt(trials * prob * (1 - prob))
        assert abs(hits - trials * prob) <= 3 * sigma

    def test_seeded_coin_is_reproducible(self):
        p = GameParams(n=4, k=6, m=3)
        a = play_game(adversary_random(p, 7), p, "prob", seed=99)
        b = play_game(adversary_random(p, 7), p, "prob", seed=99)
        assert a.moves == b.moves

    def test_joint_claim_rate(self):
        # non-trivial coin (p ~ 0.433); both conditions hold for 172 of the
        # 200 seeds under this exact scheme, frozen here with margin
        p = GameParams(n=4, k=6, m=3)
        cap = probabilistic_mark_cap(p)
        both = 0
        for seed in range(200):
            tr = play_game(adversary_random(p, seed), p, "prob", seed=seed)
            both += tr.won and tr.total_marks <= cap
        assert both == 172
        assert both >= 80  # the 40% bar

    def test_mark_cap_is_twice_expectation(self):
        p = GameParams(n=4, k=6, m=3)
        assert math.isclose(
            probabilistic_mark_cap(p), 2 * probabilistic_mark_p(p) * 2**p.k
        )


def reference_adversary_random(params, seed):
    """Reference: test each bit of the mask and build a fresh word per element."""
    rng = random.Random(seed)
    size = 1 << params.n
    for _ in range(params.max_moves):
        mask = rng.getrandbits(size)
        yield frozenset(
            BitWord(params.n, v) for v in range(size) if (mask >> v) & 1
        )


class TestAdversaries:
    def test_zoo_registry(self):
        assert set(ADVERSARIES) == {"random", "repeat", "balls"}

    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_stream_matches_reference(self, n):
        p = GameParams(n=n, k=min(n + 2, 8), m=1)
        for seed in (0, 1, 7, 123):
            got = list(adversary_random(p, seed))
            want = list(reference_adversary_random(p, seed))
            assert got == want
            # transcripts list each set's words in iteration order
            assert [list(s) for s in got] == [list(s) for s in want]

    def test_random_stream_matches_reference_n10(self):
        p = GameParams(n=10, k=10, m=4)
        assert list(adversary_random(p, 0)) == list(reference_adversary_random(p, 0))

    def test_random_stream_length_and_domain(self):
        p = GameParams(n=3, k=3, m=1)
        sets = list(adversary_random(p, 0))
        assert len(sets) == 7
        assert all(w.n == 3 for s in sets for w in s)

    def test_repeat_is_constant_singleton(self):
        p = GameParams(n=4, k=3, m=1)
        sets = list(adversary_repeat(p, 5))
        assert len({s for s in sets}) == 1 and len(sets[0]) == 1

    def test_balls_are_radius_one(self):
        p = GameParams(n=4, k=6, m=1)
        sets = list(adversary_balls(p))
        assert len(sets) == 16
        for v, s in enumerate(sets):
            center = BitWord(4, v)
            assert s == frozenset([center] + [center.flip(i) for i in range(4)])

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_fuzz_det_wins_and_verifies(self, data):
        k = data.draw(st.integers(min_value=1, max_value=6))
        p = GameParams(
            n=data.draw(st.integers(min_value=1, max_value=5)),
            k=k,
            m=data.draw(st.integers(min_value=0, max_value=min(3, k))),
        )
        name = data.draw(st.sampled_from(sorted(ADVERSARIES)))
        seed = data.draw(st.integers(min_value=0, max_value=10_000))
        tr = play_game(ADVERSARIES[name](p, seed), p, "det")
        assert tr.won
        assert verify_transcript(tr, p).ok
