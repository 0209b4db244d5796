"""csvtext.format_rows against Python's per-value '%.17g', byte for byte."""

import math
from fractions import Fraction

import numpy as np
import pytest

from levelcross import csvtext
from levelcross.csvtext import format_rows

Q_MIN, Q_MAX = csvtext._Q_MIN, csvtext._Q_MAX
SPECIALS = [
    0.0,
    -0.0,
    float("nan"),
    float("inf"),
    -float("inf"),
    5e-324,
    -2.2250738585072009e-308,       # largest subnormal
    2.2250738585072014e-308,        # smallest normal
    1.7976931348623157e308,
    -1.7976931348623157e308,
]


def reference(values: np.ndarray, cols: int) -> bytes:
    rows = values.size // cols
    row = ",".join(["%.17g"] * cols) + "\n"
    return ((row * rows) % tuple(values.tolist())).encode("ascii")


def assert_formats(values, cols=8):
    values = np.asarray(values, dtype=np.float64)
    values = values[: values.size - values.size % cols]
    assert format_rows(values.reshape(-1, cols)) == reference(values, cols)


def random_bits(count, seed=23):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**64, size=count, dtype=np.uint64, endpoint=False).view(np.float64)


def log_uniform(count, seed=29):
    """Values from 1e-14 to 1e19 with both signs: across both edges of the fast range."""
    rng = np.random.default_rng(seed)
    return 10 ** rng.uniform(-14, 19, size=count) * rng.choice([-1.0, 1.0], size=count)


def powers_of_ten():
    """Each power of ten from 1e-14 to 1e19, and its neighbours within three ulps."""
    out = []
    for j in range(-14, 20):
        x = float(f"1e{j}")
        below = above = x
        for _ in range(3):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            out += [below, above]
        out.append(x)
    return np.array(out + [-v for v in out])


def dyadic_ties(per_decade=4000, seed=31):
    """m / 2^(17-q) for odd m, in decade q: x 10^(16-q) = 5^(16-q) m / 2,
    an odd number of halves, so the 17th digit is an exact tie. Such
    values exist from q = -8 up."""
    rng = np.random.default_rng(seed)
    out = []
    for q in range(-8, Q_MAX + 1):
        s = 17 - q
        lo = math.ceil(Fraction(10) ** q * 2**s)
        hi = min(math.ceil(Fraction(10) ** (q + 1) * 2**s), 2**53)
        m = rng.integers(lo // 2, (hi - 1) // 2, size=per_decade, endpoint=True) * 2 + 1
        m = m[(m >= lo) & (m < hi)]
        out.append(np.ldexp(m.astype(np.float64), -s))
    return np.concatenate(out)


def test_random_bit_patterns():
    assert_formats(random_bits(100_000), cols=13)


def test_log_uniform_values_across_the_fast_range_edges():
    values = log_uniform(100_000)
    assert min((np.abs(values) < 1e-11).sum(), (np.abs(values) >= 1e16).sum()) > 5_000
    assert_formats(values, cols=9)


def test_powers_of_ten_and_their_neighbours():
    assert_formats(powers_of_ten(), cols=7)


def test_dyadic_ties_round_to_even():
    ties = dyadic_ties()
    assert ties.size > 50_000
    for x in ties[::997].tolist():  # each one an exact tie in its 17th digit
        q = math.floor(math.log10(x))
        assert (Fraction(x) * Fraction(10) ** (16 - q)) % 1 == Fraction(1, 2)
    assert_formats(ties, cols=4)
    assert_formats(-ties, cols=4)


def test_half_up_rounding_fails_on_the_ties_and_only_there(monkeypatch):
    # negative control: the tie rule is what the tie cases test
    monkeypatch.setattr(csvtext, "_round", lambda floor, rem: floor + (rem >= csvtext._HALF))
    ties = dyadic_ties(per_decade=200)
    with pytest.raises(AssertionError):
        assert_formats(ties, cols=4)
    # below 1e9 a double is a tie only as an odd multiple of 2^(q-17), which
    # at most one in 2^14 of the doubles of a decade is
    values = log_uniform(20_000)
    assert_formats(values[np.abs(values) < 1e9], cols=4)


def test_no_value_below_a_power_of_ten_rounds_up_to_it():
    # the largest double below 10^j keeps 17 digits below 10^17 units:
    # the fast path never carries to a new decade
    below = []
    for j in range(Q_MIN + 1, Q_MAX + 2):
        x = float(f"1e{j}")
        while Fraction(x) >= Fraction(10) ** j:
            x = math.nextafter(x, 0.0)
        assert Fraction(x) * Fraction(10) ** (17 - j) < 10**17 - Fraction(1, 2)
        below.append(x)
    assert_formats(below, cols=1)


def test_fast_range_bounds_are_powers_of_ten():
    for bound, j in ((csvtext._FAST_LO, Q_MIN), (csvtext._FAST_HI, Q_MAX + 1)):
        assert Fraction(math.nextafter(bound, 0.0)) < Fraction(10) ** j <= Fraction(bound)


def test_special_values_take_the_per_value_path():
    values = np.array(SPECIALS + [1.0, -0.5, 1e-11, 1e16, 9.9999999999999998e15])
    assert_formats(values, cols=len(values))
    assert_formats(values[::-1], cols=1)
    assert_formats(np.tile(SPECIALS, 3), cols=6)


def test_blocks_of_any_size_join_to_the_same_bytes():
    table = np.concatenate([log_uniform(2_600, seed=37), np.tile(SPECIALS, 26)]).reshape(-1, 13)
    whole = format_rows(table)
    assert whole == reference(table.ravel(), 13)
    for size in (1, 7, 64):
        blocks = (table[lo : lo + size] for lo in range(0, len(table), size))
        assert b"".join(format_rows(block) for block in blocks) == whole
