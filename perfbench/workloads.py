"""The four benchmark workloads.

Each workload builds its inputs from the workload seed in ``prepare``,
runs one op per call of ``op`` (ardtk entry points are looked up as
module attributes at call time, so the traced run sees them), checks an
op's output in ``check`` and turns it into bytes for the output digest in
``digest``.  ``quality`` scores the outputs of one pass over the inputs;
every quality figure is exact at a fixed seed and lower is better.

Why these four (see README.md for the full rationale):

- denoise-cross32: the north-star task; encoding 1024-bit words under
  all four codec methods is nearly all of its time, the search is
  heuristic and the decoder never runs.
- compare-n12: short words (raw and bitac only), oracle hits dominate,
  full-budget levels are exhaustive and shannon does real work; the
  control for large-word codec changes.
- codec-roundtrip: the only workload that runs the decoder and whole
  32768-bit BWT blocks, and it runs no search.
- cover-game: cover_ball's greedy pass and pruning, and the game's set
  operations; it makes no codec call, so codec and search changes predict
  no change.  cover's numpy kernel popcount_array runs here and, through
  shannon's exact code map, even more in compare-n12.
"""
from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import numpy as np

from ardtk import codec, cover, denoise, game, rdsearch, shannon
from ardtk.bits import BitWord
from ardtk.distortion import HAMMING, DistortionSpec, ball_cardinality


def _seeds(seed: int, count: int) -> "list[int]":
    rng = random.Random(seed)
    return [rng.getrandbits(31) for _ in range(count)]


def _oracle_problems(w: BitWord, cw, back: BitWord, length: int) -> "list[str]":
    """The oracle must equal the codeword length, and decoding must give
    the word back: ``codelength(w) == compress(w).bit_length`` and
    ``decompress(compress(w)) == w``."""
    problems = []
    if length != cw.bit_length:
        problems.append(f"codelength {length} != compress bit_length {cw.bit_length} (n={w.n})")
    if back != w:
        problems.append(f"decompress(compress(w)) != w (n={w.n})")
    return problems


class DenoiseCross32:
    """One op: denoise a seed-derived noisy 32x32 cross (flip 1/10,
    budget 160, image width 32)."""

    name = "denoise-cross32"
    inputs_per_run = 5
    SIDE = 32
    FLIP = Fraction(1, 10)
    BUDGET = 160
    SPEC = DistortionSpec(HAMMING, SIDE * SIDE)

    def prepare(self, seed):
        return [
            (s,) + denoise.make_noisy_cross(self.SIDE, self.FLIP, s)
            for s in _seeds(seed, self.inputs_per_run)
        ]

    def op(self, inp):
        s, _clean, noisy = inp
        return denoise.denoise(
            noisy, self.SPEC, self.BUDGET, s, image_width=self.SIDE
        )

    def check(self, inp, out):
        w = out.denoised
        if w.n != self.SPEC.n:
            return [f"denoised word has {w.n} bits"]
        codec.clear_cache()  # the oracle is checked on a cold cache
        cw = codec.compress(w)
        return _oracle_problems(w, cw, codec.decompress(cw), codec.codelength(w))

    def digest(self, out):
        return out.denoised.to01().encode()

    def quality(self, pairs):
        frac = [out.denoised.hamming(inp[1]) / self.SPEC.n for inp, out in pairs]
        return {"quality.denoise_residual_frac": sum(frac) / len(frac)}


class CompareN12:
    """One op: ``expected_rate_comparison`` at n = 12 (10 samples, budget
    4096, grid 0..6/12), then ``search_min_rate`` at budget 64 on the same
    words and levels."""

    name = "compare-n12"
    inputs_per_run = 4
    N = 12
    SAMPLES = 10
    BUDGET = 4096
    HEURISTIC_BUDGET = 64
    GRID = tuple(Fraction(i, 12) for i in range(7))
    SPEC = DistortionSpec(HAMMING, N)
    SOURCE = shannon.SourceModel.bernoulli(Fraction(1, 2), N)
    POP = np.array([v.bit_count() for v in range(1 << N)], dtype=np.int64)

    def prepare(self, seed):
        inputs = []
        for s in _seeds(seed, self.inputs_per_run):
            # the same draws expected_rate_comparison makes from its seed
            rng = random.Random(s)
            inputs.append((s, [self.SOURCE.sample_word(rng) for _ in range(self.SAMPLES)]))
        return inputs

    def op(self, inp):
        s, words = inp
        report = shannon.expected_rate_comparison(
            self.SOURCE, self.SPEC, self.GRID, self.SAMPLES, self.BUDGET, s
        )
        heuristic = tuple(
            tuple(
                rdsearch.search_min_rate(
                    x, self.SPEC, delta, self.HEURISTIC_BUDGET,
                    (s * 7919 + i * 131 + j) & 0x7FFFFFFF,
                ).score
                for j, delta in enumerate(self.GRID)
            )
            for i, x in enumerate(words)
        )
        return report, heuristic

    def exact_levels(self, words) -> "list[list[int]]":
        """Per word, the exact minimum codelength at each grid level, from
        the full n = 12 codelength table masked by popcount distance."""
        table = np.array(
            [codec.codelength(BitWord(self.N, v)) for v in range(1 << self.N)],
            dtype=np.int64,
        )
        values = np.arange(1 << self.N)
        out = []
        for x in words:
            dist = self.POP[values ^ x.value]
            out.append([int(table[dist <= int(d * self.N)].min()) for d in self.GRID])
        return out

    def check(self, inp, out):
        _s, words = inp
        report, heuristic = out
        problems = []
        exact = self.exact_levels(words)
        if len(report.per_sample) != len(words):
            return [f"{len(report.per_sample)} sample rows for {len(words)} words"]
        for i, (row, levels) in enumerate(zip(report.per_sample, exact)):
            running = [min(levels[: j + 1]) for j in range(len(levels))]
            if list(row) != running:
                problems.append(f"sample {i}: curve {list(row)} != exact {running}")
            for j, (h, e) in enumerate(zip(heuristic[i], levels)):
                exhaustive = ball_cardinality(self.SPEC, self.GRID[j]) <= self.HEURISTIC_BUDGET
                if h < e or (exhaustive and h != e):
                    problems.append(f"sample {i} level {j}: budget-64 score {h}, exact {e}")
        return problems

    def digest(self, out):
        report, heuristic = out
        return repr((
            report.per_sample, heuristic, report.mean_curve, report.shannon_nR,
            report.delta2, report.code_map_support,
        )).encode()

    def quality(self, pairs):
        words = [x for (_s, ws), _out in pairs for x in ws]
        heuristic = [row for _inp, (_report, h) in pairs for row in h]
        gaps = [
            h - e
            for h_row, e_row in zip(heuristic, self.exact_levels(words))
            for h, e in zip(h_row, e_row)
        ]
        return {"quality.search_gap_bits": sum(gaps) / len(gaps)}


class CodecRoundtrip:
    """One op: compress, decompress and codelength on a fixed batch of
    words of 12, 1024, 4096 and 32768 bits, one of each kind per size.

    The kinds are chosen so that every codec method wins somewhere and so
    every decoder runs: uniform random words (raw), sparse random words
    (bitac up to 1024 bits, BWT above), a random period with sparse flips
    (BWT) and chunks copied from one random 1024-bit base (LZ).
    """

    name = "codec-roundtrip"
    inputs_per_run = 1
    SIZES = (12, 1024, 4096, 32768)

    @staticmethod
    def uniform(rng: random.Random, n: int) -> BitWord:
        return BitWord.random(rng, n)

    @staticmethod
    def sparse(rng: random.Random, n: int) -> BitWord:
        return BitWord.from_bits(1 if rng.random() < 1 / 16 else 0 for _ in range(n))

    @staticmethod
    def periodic(rng: random.Random, n: int) -> BitWord:
        period = rng.randint(3, 40)
        pattern = [rng.getrandbits(1) for _ in range(period)]
        bits = [pattern[i % period] for i in range(n)]
        for i in rng.sample(range(n), max(1, n // 128)):
            bits[i] ^= 1
        return BitWord.from_bits(bits)

    @staticmethod
    def repeats(rng: random.Random, n: int) -> BitWord:
        base = [rng.getrandbits(1) for _ in range(1024)]
        bits: "list[int]" = []
        while len(bits) < n:
            start = rng.randrange(1024 - 64)
            bits += base[start:start + rng.randint(64, min(512, 1024 - start))]
        return BitWord.from_bits(bits[:n])

    def prepare(self, seed):
        rng = random.Random(seed)
        kinds = (self.uniform, self.sparse, self.periodic, self.repeats)
        return [[kind(rng, n) for n in self.SIZES for kind in kinds]]

    def op(self, batch):
        out = []
        for w in batch:
            cw = codec.compress(w)
            out.append((cw, codec.decompress(cw), codec.codelength(w)))
        return out

    def check(self, batch, out):
        return [p for w, result in zip(batch, out) for p in _oracle_problems(w, *result)]

    def digest(self, out):
        return b"".join(cw.data + cw.bit_length.to_bytes(8, "big") for cw, _, _ in out)

    def quality(self, pairs):
        bits = sum(cw.bit_length for _batch, out in pairs for cw, _, _ in out)
        total = sum(w.n for batch, _out in pairs for w in batch)
        return {"quality.compressed_bits_ratio": bits / total}


class CoverGame:
    """One op: ``cover_ball`` at n = 16, delta = 1/2, d = 1/8, then the
    deterministic game at n = 10, k = 10, m = 4 on a random adversary
    stream drawn in set-up, then ``verify_transcript``, as ``ardtk game``
    does."""

    name = "cover-game"
    inputs_per_run = 1
    SPEC = DistortionSpec(HAMMING, 16)
    DELTA = Fraction(1, 2)
    D = Fraction(1, 8)
    PARAMS = game.GameParams(n=10, k=10, m=4)

    def prepare(self, seed):
        cover_seed, game_seed = _seeds(seed, 2)
        alice = list(game.adversary_random(self.PARAMS, game_seed))
        return [(cover_seed, game_seed, alice)]

    def op(self, inp):
        cover_seed, game_seed, alice = inp
        result = cover.cover_ball(self.SPEC, self.DELTA, self.D, cover_seed)
        tr = game.play_game(alice, self.PARAMS, strategy="det", seed=game_seed)
        return result, tr, game.verify_transcript(tr, self.PARAMS)

    def check(self, inp, out):
        result, tr, verdict = out
        problems = []
        if result.verified is not True:
            problems.append(f"cover verified={result.verified}")
        if result.size > result.size_bound:
            problems.append(f"cover size {result.size} > bound {result.size_bound}")
        if not tr.won:
            problems.append("game lost")
        if not verdict.ok:
            problems.append(f"transcript rejected: {verdict.reason}")
        if tr.total_marks > game.mark_bound(self.PARAMS):
            problems.append(f"{tr.total_marks} marks > bound {game.mark_bound(self.PARAMS)}")
        return problems

    def digest(self, out):
        result, tr, _verdict = out
        centers = b"".join(c.value.to_bytes(4, "big") for c in result.centers)
        return centers + repr([m.marks for m in tr.moves]).encode()

    def quality(self, pairs):
        (_inp, (result, tr, _verdict)), = pairs
        return {
            "quality.cover_size_ratio": result.size / result.volume_lower,
            "quality.game_marks_ratio": tr.total_marks / game.mark_bound(self.PARAMS),
        }


WORKLOADS = {w.name: w for w in (DenoiseCross32(), CompareN12(), CodecRoundtrip(), CoverGame())}


def output_digest(workload, outputs) -> str:
    """sha256 over the digests of one pass of outputs, in input order."""
    h = hashlib.sha256()
    for out in outputs:
        h.update(hashlib.sha256(workload.digest(out)).digest())
    return h.hexdigest()
