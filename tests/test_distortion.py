import itertools
import math
import random
import time
from fractions import Fraction
from math import comb, inf

import pytest
from hypothesis import given, settings, strategies as st

from ardtk.bits import BitWord
from ardtk import distortion as dst
from ardtk.distortion import (
    Ball,
    DistortionSpec,
    SizeGuardError,
    admissible_radii,
    ball_cardinality,
    binary_entropy,
    distance,
    radius_for_log_cardinality,
)


def ball_members(spec, center, delta):
    return Ball(spec, Fraction(delta), center=center).members()


def all_words(n):
    return [BitWord(n, v) for v in range(1 << n)]


def full_cube(n):
    """The list ball holding every n-bit word: the t = n cylinder around 0^n."""
    return Ball(DistortionSpec(dst.LIST, n), Fraction(n), center=BitWord.zeros(n))


# -- distances ---------------------------------------------------------------


def test_hamming_distance_examples():
    spec = DistortionSpec(dst.HAMMING, 4)
    assert distance(spec, BitWord.from_str("0000"), BitWord.from_str("0101")) == Fraction(1, 2)
    assert distance(spec, BitWord.from_str("0000"), BitWord.from_str("0000")) == 0
    assert distance(spec, BitWord.from_str("0000"), BitWord.from_str("000")) == inf


def test_euclid_distance_is_fraction_of_grid():
    spec = DistortionSpec(dst.EUCLID, 3)
    a, b = BitWord.from_str("010"), BitWord.from_str("100")
    assert distance(spec, a, b) == Fraction(2, 8)


def test_list_distance():
    # a list distance is the cylinder's radius t = log2 of its size
    spec = DistortionSpec(dst.LIST, 3)
    x = BitWord.from_str("010")
    for t in range(4):
        got = distance(spec, x, Ball(spec, Fraction(t), center=x))
        assert got == t and isinstance(got, Fraction)
    assert distance(spec, x, Ball(spec, Fraction(1), center=BitWord.from_str("011"))) == 1
    assert distance(spec, x, Ball(spec, Fraction(1), center=BitWord.from_str("000"))) == inf
    assert distance(spec, x, Ball(spec, Fraction(2), center=BitWord.from_str("110"))) == inf
    assert distance(spec, x, x) == inf  # a list destination is a ball


@given(st.integers(1, 16), st.integers(), st.integers())
def test_hamming_distance_symmetric(n, s1, s2):
    spec = DistortionSpec(dst.HAMMING, n)
    x = BitWord.random(random.Random(s1), n)
    y = BitWord.random(random.Random(s2), n)
    assert distance(spec, x, y) == distance(spec, y, x)
    assert 0 <= distance(spec, x, y) <= 1


# -- ball cardinality ----------------------------------------------------------


def test_hamming_cardinality_examples():
    assert ball_cardinality(DistortionSpec(dst.HAMMING, 4), Fraction(1, 4)) == 5
    assert ball_cardinality(DistortionSpec(dst.HAMMING, 4), Fraction(1, 2)) == 11
    assert ball_cardinality(DistortionSpec(dst.HAMMING, 16), Fraction(1, 4)) == 2517


def test_hamming_cardinality_floors_fractional_radius():
    # radii between grid points behave like the floor grid point
    spec = DistortionSpec(dst.HAMMING, 8)
    assert ball_cardinality(spec, Fraction(3, 16)) == ball_cardinality(spec, Fraction(1, 8))


def test_cardinality_matches_enumeration():
    rng = random.Random(1)
    for n in (1, 2, 5, 8, 10):
        spec = DistortionSpec(dst.HAMMING, n)
        center = BitWord.random(rng, n)
        for i in range(n // 2 + 1):
            delta = Fraction(i, n)
            members = ball_members(spec, center, delta)
            assert len(members) == ball_cardinality(spec, delta)
            assert len(set(members)) == len(members)


def test_hamming_cardinality_matches_binomial_sum():
    for n in range(1, 65):
        spec = DistortionSpec(dst.HAMMING, n)
        for i in range(n // 2 + 1):
            want = sum(comb(n, j) for j in range(i + 1))
            assert ball_cardinality(spec, Fraction(i, n)) == want


def test_shell_values_in_combinations_order():
    for n in range(1, 11):
        for w in range(n + 1):
            want = [sum(1 << p for p in c) for c in itertools.combinations(range(n), w)]
            assert list(dst._shell(n, w)) == want


def test_euclid_cardinality_interior():
    spec = DistortionSpec(dst.EUCLID, 3)
    assert ball_cardinality(spec, Fraction(1, 8)) == 3
    assert ball_cardinality(spec, Fraction(1, 2)) == 8  # capped at the cube


def test_list_cardinality():
    spec = DistortionSpec(dst.LIST, 6)
    assert ball_cardinality(spec, Fraction(4)) == 16
    with pytest.raises(ValueError):
        ball_cardinality(spec, Fraction(3, 2))
    # 2^10 words would be more than the cube holds, and Ball refuses t > n
    with pytest.raises(ValueError):
        ball_cardinality(spec, Fraction(10))


@pytest.mark.parametrize("family", [dst.HAMMING, dst.EUCLID])
def test_float_radius_is_read_exactly(family):
    # the float 0.3 lies just under 3/10, so a word ball floors it as the
    # exact binary fraction it holds, everywhere the radius is read
    spec = DistortionSpec(family, 10)
    ball = Ball(spec, 0.3, center=BitWord(10, 500))
    assert ball.steps == math.floor(Fraction(0.3) * (10 if family == dst.HAMMING else 1024))
    inside = [w for w in all_words(10) if ball.contains(w)]
    assert ball.cardinality() == ball_cardinality(spec, 0.3) == len(inside)
    assert ball.members() == inside


@st.composite
def _family_radius(draw):
    """A spec at n in 1..12, a center, and a radius on a grid fine enough
    to fall between the family's steps, reaching past both ends of its
    range."""
    family = draw(st.sampled_from([dst.HAMMING, dst.EUCLID, dst.LIST]))
    n = draw(st.integers(1, 12))
    den = draw(st.sampled_from([1, 2, 3, n, 2 * n + 1, 1 << n, 3 << n]))
    top = {dst.HAMMING: den, dst.EUCLID: 2 * den, dst.LIST: (n + 2) * den}[family]
    delta = Fraction(draw(st.integers(-den, top)), den)
    center = BitWord(n, draw(st.integers(0, (1 << n) - 1)))
    return DistortionSpec(family, n), delta, center


@settings(max_examples=300, deadline=None)
@given(_family_radius())
def test_one_radius_rule_per_family(case):
    spec, delta, center = case
    n = spec.n
    legal = {
        dst.HAMMING: 0 <= delta <= Fraction(1, 2),
        dst.EUCLID: 0 <= delta <= 1,
        dst.LIST: 0 <= delta <= n and delta.denominator == 1,
    }[spec.family]
    if not legal:
        # Ball and ball_cardinality refuse exactly the same radii
        with pytest.raises(ValueError, match="radius"):
            ball_cardinality(spec, delta)
        with pytest.raises(ValueError, match="radius"):
            Ball(spec, delta, center=center)
        return
    size = ball_cardinality(spec, delta)
    ball = Ball(spec, delta, center=center)
    assert ball.steps == {
        dst.HAMMING: math.floor(delta * n),
        dst.EUCLID: math.floor(delta * 2**n),
        dst.LIST: delta,
    }[spec.family]
    members = ball.members()
    assert ball.cardinality() == len(members) == len(set(members))
    if spec.family != dst.EUCLID:
        assert size == len(members)
    if n <= 8:
        inside = [w for w in all_words(n) if ball.contains(w)]
        assert inside == members


def test_cardinality_center_independent_hamming():
    rng = random.Random(2)
    spec = DistortionSpec(dst.HAMMING, 10)
    delta = Fraction(3, 10)
    sizes = set()
    for _ in range(20):
        c = BitWord.random(rng, 10)
        sizes.add(len(Ball(spec, delta, center=c).members()))
    assert sizes == {ball_cardinality(spec, delta)}


def test_radius_validation():
    with pytest.raises(ValueError):
        ball_cardinality(DistortionSpec(dst.HAMMING, 4), Fraction(3, 4))
    with pytest.raises(ValueError):
        ball_cardinality(DistortionSpec(dst.EUCLID, 4), Fraction(-1, 4))


# -- entropy bounds -------------------------------------------------------------


def _entropy_bounds(n, delta):
    """n H(delta) - log2(n) / 2 - 1 <= log2 |B(delta)| <= n H(delta)."""
    h = n * binary_entropy(float(delta))
    return h - math.log2(n) / 2 - 1, h


def test_entropy_bounds_bracket_exact_logs():
    for n in (4, 8, 12, 16, 20):
        for i in range(n // 2 + 1):
            delta = Fraction(i, n)
            b = ball_cardinality(DistortionSpec(dst.HAMMING, n), delta)
            lo, hi = _entropy_bounds(n, delta)
            assert lo <= math.log2(b) <= hi + 1e-12


def test_entropy_bounds_degenerate_zero():
    lo, hi = _entropy_bounds(16, Fraction(0))
    assert lo <= 0 <= hi == 0


# -- members ---------------------------------------------------------------------


def test_hamming_members_example():
    got = ball_members(
        DistortionSpec(dst.HAMMING, 2), BitWord.from_str("00"), Fraction(1, 2)
    )
    assert got == [BitWord.from_str("00"), BitWord.from_str("01"), BitWord.from_str("10")]


def test_euclid_members_example():
    got = ball_members(
        DistortionSpec(dst.EUCLID, 3), BitWord.from_str("010"), Fraction(1, 8)
    )
    assert got == [BitWord.from_str("001"), BitWord.from_str("010"), BitWord.from_str("011")]


def test_members_sorted_lex():
    rng = random.Random(3)
    for _ in range(5):
        c = BitWord.random(rng, 9)
        members = ball_members(DistortionSpec(dst.HAMMING, 9), c, Fraction(2, 9))
        assert members == sorted(members)


def test_members_guard():
    big = Ball(DistortionSpec(dst.HAMMING, 40), Fraction(1, 2), center=BitWord.zeros(40))
    with pytest.raises(SizeGuardError):
        big.members()


def test_membership_and_radius_consistency():
    rng = random.Random(4)
    spec = DistortionSpec(dst.HAMMING, 10)
    c = BitWord.random(rng, 10)
    ball = Ball(spec, Fraction(2, 10), center=c)
    for m in ball.members():
        assert ball.contains(m)
        assert distance(spec, m, c) <= ball.radius


# -- whole-space witnesses --------------------------------------------------------


def test_two_hamming_balls_cover_cube():
    n = 9
    spec = DistortionSpec(dst.HAMMING, n)
    a = set(ball_members(spec, BitWord.zeros(n), Fraction(1, 2)))
    b = set(ball_members(spec, BitWord.ones(n), Fraction(1, 2)))
    assert a | b == set(all_words(n))


def test_full_cube_ball():
    cube = full_cube(8)
    assert cube.cardinality() == 256
    assert cube.log_cardinality() == 8.0
    assert cube.contains(BitWord.zeros(8))
    assert len(cube.members()) == 256


@pytest.mark.parametrize("n", [1, 8, 127, 128, 1024])
def test_full_cube_descriptor_is_leb128_of_n(n):
    cube = full_cube(n)
    assert cube.descriptor() == dst._leb_word(n)
    assert cube.center == BitWord.zeros(n) and cube.radius == n


@pytest.mark.parametrize("n", range(1, 9))
def test_cylinder_ball_matches_brute_force(n):
    rng = random.Random(n)
    words = all_words(n)
    spec = DistortionSpec(dst.LIST, n)
    for c in {0, (1 << n) - 1, *(rng.randrange(1 << n) for _ in range(4))}:
        center = BitWord(n, c)
        for t in range(n + 1):
            ball = Ball(spec, Fraction(t), center=center)
            prefix = center.to01()[: n - t]
            inside = [y for y in words if y.to01()[: n - t] == prefix]
            assert ball.cardinality() == len(inside) == 1 << t
            assert ball.log_cardinality() == t
            assert ball.members() == inside
            assert [y for y in words if ball.contains(y)] == inside
            assert not ball.contains(BitWord.zeros(n + 1))
            assert ball.descriptor() == BitWord.from_str(prefix + format(t, "08b"))


def test_cylinder_members_guard():
    ball = Ball(DistortionSpec(dst.LIST, 30), Fraction(23), center=BitWord.ones(30))
    with pytest.raises(SizeGuardError):
        ball.members()
    assert ball.cardinality() == 1 << 23


def test_list_ball_needs_a_center_and_an_integer_radius():
    spec = DistortionSpec(dst.LIST, 4)
    x = BitWord.from_str("0110")
    with pytest.raises(TypeError):
        Ball(spec, Fraction(1))
    for bad in (Fraction(1, 2), Fraction(5), Fraction(-1)):
        with pytest.raises(ValueError):
            Ball(spec, bad, center=x)
    with pytest.raises(ValueError):
        Ball(spec, Fraction(1), center=BitWord.zeros(5))


# -- admissible_radii --------------------------------------------------------


def test_admissible_radii_hamming():
    F = Fraction
    assert admissible_radii(DistortionSpec(dst.HAMMING, 5)) == [F(0), F(1, 5), F(2, 5)]
    assert admissible_radii(DistortionSpec(dst.HAMMING, 4)) == [F(0), F(1, 4), F(1, 2)]


def test_admissible_radii_euclid_sweeps_dyadic_radii_upward():
    F = Fraction
    assert admissible_radii(DistortionSpec(dst.EUCLID, 3)) == [
        F(0), F(1, 16), F(1, 8), F(1, 4), F(1, 2)
    ]
    assert admissible_radii(DistortionSpec(dst.EUCLID, 1)) == [F(0), F(1, 4), F(1, 2)]


def test_admissible_radii_list():
    assert admissible_radii(DistortionSpec(dst.LIST, 3)) == [
        Fraction(0), Fraction(1), Fraction(2), Fraction(3)
    ]


# -- radius_for_log_cardinality -----------------------------------------------------


def test_radius_for_level_hamming():
    spec = DistortionSpec(dst.HAMMING, 16)
    assert radius_for_log_cardinality(spec, 0) == 0
    # smallest radius whose ball has ceil(log2 b) >= 12: b(4/16) = 2517
    assert radius_for_log_cardinality(spec, 12) == Fraction(1, 4)
    assert radius_for_log_cardinality(spec, 16) == Fraction(1, 2)


def test_radius_for_level_is_minimal():
    for n in (6, 10, 13):
        spec = DistortionSpec(dst.HAMMING, n)
        for l in range(n + 1):
            delta = radius_for_log_cardinality(spec, l)
            b = ball_cardinality(spec, delta)
            i = int(delta * n)
            reachable = (b - 1).bit_length() >= l
            if reachable:
                if i > 0:
                    prev = ball_cardinality(spec, Fraction(i - 1, n))
                    assert (prev - 1).bit_length() < l
            else:
                # odd-n top level: clamped at the largest admissible radius
                assert i == n // 2 and n % 2 == 1 and l == n


def _radius_by_per_radius_sums(n, l):
    """Reference: re-sum the binomials for every candidate radius."""
    for i in range(n // 2 + 1):
        b = sum(comb(n, j) for j in range(i + 1))
        if (b - 1).bit_length() >= l:
            return Fraction(i, n)
    return Fraction(n // 2, n)


def test_radius_for_level_matches_per_radius_sums():
    for n in range(1, 41):
        spec = DistortionSpec(dst.HAMMING, n)
        for l in range(n + 1):
            assert radius_for_log_cardinality(spec, l) == _radius_by_per_radius_sums(n, l)


def test_radius_for_every_level_at_n1024_is_fast():
    spec = DistortionSpec(dst.HAMMING, 1024)
    t0 = time.perf_counter()
    radii = [radius_for_log_cardinality(spec, l) for l in range(1025)]
    assert time.perf_counter() - t0 < 2.0
    assert radii == sorted(radii)
    assert radii[0] == 0 and radii[-1] == Fraction(1, 2)


def test_radius_for_level_euclid():
    spec = DistortionSpec(dst.EUCLID, 6)
    for l in range(7):
        delta = radius_for_log_cardinality(spec, l)
        b = ball_cardinality(spec, delta)
        assert (b - 1).bit_length() >= l
        steps = int(delta * 64)
        if steps:
            assert (ball_cardinality(spec, Fraction(steps - 1, 64)) - 1).bit_length() < l


def test_radius_for_level_list():
    spec = DistortionSpec(dst.LIST, 12)
    assert radius_for_log_cardinality(spec, 7) == 7


# -- descriptors --------------------------------------------------------------------


def test_descriptor_is_deterministic_and_distinct():
    spec = DistortionSpec(dst.HAMMING, 10)
    b1 = Ball(spec, Fraction(2, 10), center=BitWord.from_str("1010101010"))
    b2 = Ball(spec, Fraction(3, 10), center=BitWord.from_str("1010101010"))
    b3 = Ball(spec, Fraction(2, 10), center=BitWord.from_str("1010101011"))
    assert b1.descriptor() == Ball(spec, b1.radius, center=b1.center).descriptor()
    assert b1.descriptor() != b2.descriptor()
    assert b1.descriptor() != b3.descriptor()


def test_list_ball_round_trip():
    spec = DistortionSpec(dst.LIST, 3)
    ball = Ball(spec, Fraction(1), center=BitWord.from_str("001"))
    assert ball.cardinality() == 2
    assert ball.members() == [BitWord.from_str("000"), BitWord.from_str("001")]
    assert all(distance(spec, m, ball) == ball.radius for m in ball.members())
    assert not ball.contains(BitWord.from_str("010"))
    assert ball.descriptor() == BitWord.from_str("00" + format(1, "08b"))


@given(st.integers(1, 12), st.integers(0, 6), st.integers())
@settings(max_examples=60, deadline=None)
def test_ball_members_match_distance_filter(n, i, seed):
    i = min(i, n // 2)
    spec = DistortionSpec(dst.HAMMING, n)
    c = BitWord.random(random.Random(seed), n)
    delta = Fraction(i, n)
    members = set(ball_members(spec, c, delta))
    brute = {w for w in all_words(n) if distance(spec, w, c) <= delta}
    assert members == brute
