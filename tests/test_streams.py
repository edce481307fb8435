"""Replicate-keyed Philox streams: the batch filler against the per-replicate block."""

import numpy as np
import pytest

from gridcap._streams import fill_normal_blocks, normal_block, replicate_stream


@pytest.mark.parametrize("seed", [0, 29])
@pytest.mark.parametrize("start", [0, 1, 255, 256, 2047])
@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (200, 2)])
def test_fill_equals_normal_block(seed, start, shape):
    out = fill_normal_blocks(seed, start, np.empty((3, *shape)))
    for i in range(3):
        assert np.array_equal(out[i], normal_block(seed, start + i, *shape))


def test_fill_keeps_no_state_between_calls():
    first = fill_normal_blocks(5, 10, np.empty((4, 7, 3)))
    fill_normal_blocks(6, 0, np.empty((2, 200, 2)))
    again = fill_normal_blocks(5, 10, np.empty((4, 7, 3)))
    assert np.array_equal(first, again)
    # a block that overlaps the first one repeats its shared replicates
    shifted = fill_normal_blocks(5, 12, np.empty((3, 7, 3)))
    assert np.array_equal(shifted[:2], first[2:])


def test_fill_rejects_negative_keys():
    with pytest.raises(ValueError):
        fill_normal_blocks(-1, 0, np.empty((1, 2, 2)))
    with pytest.raises(ValueError):
        fill_normal_blocks(0, -1, np.empty((1, 2, 2)))


def test_seed_beyond_64_bits_is_refused():
    # A Philox key word holds 64 bits; a wider seed is refused, not wrapped or overflowed.
    with pytest.raises(ValueError):
        replicate_stream(2**64, 0)
    with pytest.raises(ValueError):
        fill_normal_blocks(2**64, 0, np.empty((1, 2, 2)))
    assert np.array_equal(fill_normal_blocks(2**64 - 1, 3, np.empty((1, 4, 2)))[0], normal_block(2**64 - 1, 3, 4, 2))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("start", [2**63 - 2, 2**63 - 1, 2**63])
def test_fill_equals_normal_block_at_extreme_keys(seed, start):
    # the filler resets each stream from plain ints; key words at and above
    # 2**63 must reach Philox as the same unsigned 64-bit words
    out = fill_normal_blocks(seed, start, np.empty((3, 5, 2)))
    for i in range(3):
        assert np.array_equal(out[i], normal_block(seed, start + i, 5, 2))


def test_replicate_beyond_64_bits_is_refused():
    # the replicate is the second Philox key word: 2**64 and beyond are refused
    # with ValueError, for the first replicate and for the last one a fill reaches
    with pytest.raises(ValueError, match=r"replicate must lie in \[0, 2\*\*64\), got 18446744073709551616"):
        replicate_stream(0, 2**64)
    with pytest.raises(ValueError, match="got 18446744073709551616"):
        fill_normal_blocks(0, 2**64, np.empty((1, 3, 1)))
    with pytest.raises(ValueError, match="got 18446744073709551616"):
        fill_normal_blocks(0, 2**64 - 1, np.empty((2, 3, 1)))
    last = fill_normal_blocks(0, 2**64 - 1, np.empty((1, 3, 1)))
    assert np.array_equal(last[0], normal_block(0, 2**64 - 1, 3, 1))
