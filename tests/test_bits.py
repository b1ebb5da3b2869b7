import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ardtk.bits import BitWord
from ardtk.game import GameParams, adversary_balls, play_game
from ardtk.rdsearch import Candidate


def test_construction_and_views():
    w = BitWord.from_str("0101")
    assert w.n == 4 and w.value == 0b0101
    assert w.to01() == "0101"
    assert len(w) == 4


def test_empty_word():
    e = BitWord.zeros(0)
    assert e.to01() == ""
    assert e.to_bytes() == b""
    assert e.concat(BitWord.from_str("1")) == BitWord.from_str("1")


def test_value_range_checked():
    with pytest.raises(ValueError):
        BitWord(3, 8)
    with pytest.raises(ValueError):
        BitWord(-1, 0)


def test_lex_order_matches_int_order_within_length():
    ws = sorted(BitWord(4, v) for v in random.Random(0).sample(range(16), 16))
    assert [w.value for w in ws] == list(range(16))
    assert BitWord.from_str("0011") < BitWord.from_str("0100")


def test_xor_weight_flip():
    a = BitWord.from_str("1100")
    b = BitWord.from_str("1010")
    assert (a ^ b) == BitWord.from_str("0110")
    assert a.weight() == 2
    assert a.flip(0) == BitWord.from_str("0100")
    assert a.hamming(b) == 2


@given(st.lists(st.integers(0, 1), max_size=200))
def test_bits_round_trip(bits):
    w = BitWord.from_bits(bits)
    assert [int(c) for c in w.to01()] == bits
    assert BitWord.from_str(w.to01()) == w


@given(st.integers(0, 500), st.integers())
def test_byte_packing_round_trip(n, seed):
    rng = random.Random(seed)
    w = BitWord.random(rng, n)
    assert BitWord.from_bytes(w.to_bytes(), n) == w


@given(st.integers(0, 100), st.integers(0, 100), st.integers())
def test_concat_parts_recoverable(na, nb, seed):
    rng = random.Random(seed)
    a, b = BitWord.random(rng, na), BitWord.random(rng, nb)
    c = a.concat(b)
    assert c.n == na + nb
    assert c.to01() == a.to01() + b.to01()


@pytest.mark.parametrize("w", [BitWord(0, 0), BitWord.from_str("1011"),
                               BitWord.random(random.Random(7), 1024)])
def test_copy_and_pickle_give_the_same_word(w):
    for got in (copy.copy(w), copy.deepcopy(w), pickle.loads(pickle.dumps(w))):
        assert got == w and type(got) is BitWord
    with pytest.raises(AttributeError, match="immutable"):
        copy.copy(w).n = 3


def test_records_holding_words_copy_and_convert():
    w = BitWord.from_str("0110")
    cand = Candidate(destination=w, score=12, distortion=Fraction(1, 4))
    assert dataclasses.asdict(cand) == {"destination": w, "score": 12,
                                        "distortion": Fraction(1, 4)}
    params = GameParams(n=4, k=3, m=1)
    tr = play_game(adversary_balls(params, 0), params)
    clone = copy.deepcopy(tr)
    assert clone == tr and clone.moves is not tr.moves
    assert pickle.loads(pickle.dumps(tr)) == tr
