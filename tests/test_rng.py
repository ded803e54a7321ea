from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bilingap.errors import CapacityError, InputError
from bilingap.rng import bits, draws, shifted, signs, units

from conftest import splitmix64_reference

# Published reference outputs of the splitmix64 algorithm for seed 0.
SEED0_FIRST_THREE = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)

SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.just(1 << 70))


def test_known_answer_seed_zero():
    assert tuple(draws(0, 0, 3).tolist()) == SEED0_FIRST_THREE
    assert tuple(draws(0, 1, 2).tolist()) == SEED0_FIRST_THREE[1:]


def test_draws_are_uint64_and_empty_blocks_work():
    assert draws(7, 0, 5).dtype == np.uint64
    assert draws(7, 10, 0).shape == (0,)


@pytest.mark.parametrize("seed", [1.5, 1.0, True, "1", None, np.float64(1.0)])
def test_rejects_a_non_integer_seed(seed):
    with pytest.raises(InputError, match="seed must be an integer"):
        draws(seed, 0, 3)


@pytest.mark.parametrize(
    "start, count, message",
    [(-1, 3, "start must be >= 0"), (0, -1, "count must be >= 0"),
     (0, 2.5, "count must be an integer"), (True, 2, "start must be an integer"),
     (1.0, 2, "start must be an integer")],
)
def test_start_and_count_are_integers_from_zero(start, count, message):
    with pytest.raises(InputError, match=message):
        draws(1, start, count)


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
def test_the_top_indices_match_the_closed_form(seed):
    # output k mixes (s + (k + 1) * gamma) mod 2^64, so index 2^64 - 1 mixes s itself
    last = splitmix64_reference((seed - 0x9E3779B97F4A7C15) % 2**64, 1)  # one step lands on s
    assert draws(seed, 2**64 - 1, 1).tolist() == last
    tail = splitmix64_reference((seed - 3 * 0x9E3779B97F4A7C15) % 2**64, 3)
    assert draws(seed, 2**64 - 3, 3).tolist() == tail
    assert draws(seed, 2**64 - 2, 2).tolist() == tail[1:]
    assert draws(seed, 2**64, 0).shape == (0,)


@pytest.mark.parametrize(
    "start, count, message",
    [(2**64, 1, "count must be <= 0, got 1"), (2**64 - 1, 2, "count must be <= 1, got 2"),
     (2**64 + 1, 0, "start must be <= 18446744073709551616")],
)
def test_past_the_last_index_is_a_capacity_error(start, count, message):
    with pytest.raises(CapacityError, match=message):
        draws(1, start, count)


def test_numpy_start_and_count_are_their_int_value():
    assert draws(5, np.int64(2), np.uint8(3)).tolist() == draws(5, 2, 3).tolist()


def test_numpy_integer_seeds_are_their_int_value():
    assert draws(np.int64(-1), 0, 3).tolist() == draws(2**64 - 1, 0, 3).tolist()
    assert draws(np.uint64(2**64 - 1), 0, 3).tolist() == draws(-1, 0, 3).tolist()


def test_determinism():
    assert draws(12345, 0, 10).tolist() == draws(12345, 0, 10).tolist()


def test_seed_masked_to_64_bits():
    assert draws(1 << 70, 0, 4).tolist() == draws(0, 0, 4).tolist()
    assert draws(2**64 - 1, 0, 4).tolist() == splitmix64_reference(2**64 - 1, 4)


def test_no_overflow_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws(2**64 - 1, 10**6, 100)


def test_sign_mapping_low_bit_zero_is_plus():
    expected = [1.0 if u & 1 == 0 else -1.0 for u in SEED0_FIRST_THREE]
    assert signs(draws(0, 0, 3)).tolist() == expected
    assert bits(draws(0, 0, 3)).tolist() == [float(u & 1) for u in SEED0_FIRST_THREE]


def test_shifted_reads_bit_one():
    u = draws(99, 0, 64)
    assert bits(shifted(u)).tolist() == [float(v >> 1 & 1) for v in u.tolist()]
    assert {v & 3 for v in u.tolist()} == {0, 1, 2, 3}


def test_frozen_sign_stream_seed_42():
    assert signs(draws(42, 0, 8)).tolist() == [-1, -1, 1, 1, 1, 1, -1, 1]


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=60, deadline=None)
def test_unit_in_range(seed):
    u = draws(seed, 0, 4)
    vals = units(u)
    assert ((0.0 <= vals) & (vals < 1.0)).all()
    assert vals.tolist() == [(v >> 11) * 2.0**-53 for v in u.tolist()]


@given(SEEDS, st.integers(0, 3000), st.integers(0, 300))
@settings(max_examples=20, deadline=None)
def test_matches_stepped_reference(seed, start, count):
    assert draws(seed, start, count).tolist() == splitmix64_reference(seed, start + count)[start:]


@given(SEEDS, st.integers(0, 10**6), st.integers(0, 2000))
@settings(max_examples=40, deadline=None)
@example(0, 0, 2000)
@example(2**64 - 1, 10**6, 1)
def test_matches_scalar_reference(seed, start, count):
    # stepping the reference 10^6 times per example is slow, so start it from the
    # state after `start` steps, s + start * gamma (test_matches_stepped_reference
    # checks draws against the fully stepped reference at smaller offsets)
    offset_seed = (seed + start * 0x9E3779B97F4A7C15) % 2**64
    assert draws(seed, start, count).tolist() == splitmix64_reference(offset_seed, count)


@given(SEEDS, st.integers(0, 10**6), st.integers(0, 500), st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_blocks_concatenate(seed, start, first, second):
    joined = np.concatenate((draws(seed, start, first), draws(seed, start + first, second)))
    assert joined.tolist() == draws(seed, start, first + second).tolist()


@given(st.integers(0, 2**63), st.integers(1, 2**63))
@settings(max_examples=40, deadline=None)
def test_distinct_seeds_distinct_streams(seed, offset):
    assert draws(seed, 0, 4).tolist() != draws(seed + offset, 0, 4).tolist()
