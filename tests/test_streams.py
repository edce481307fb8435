"""Replicate-keyed Philox streams: the steps-major filler against the per-replicate block."""

import numpy as np
import pytest

from gridcap import _streams
from gridcap._streams import STAGING_BYTES, fill_normal_columns, normal_block, replicate_stream


def _columns(seed, start, steps, dim, count):
    """A (steps, dim, count) block filled from replicates start, start + 1, ..."""
    return fill_normal_columns(seed, start, np.empty((steps, dim, count)))


def _assert_columns(x, seed, start):
    steps, dim, count = x.shape
    for r in range(count):
        assert np.array_equal(x[:, :, r], normal_block(seed, start + r, steps, dim))


@pytest.mark.parametrize("seed", [0, 29])
@pytest.mark.parametrize("start", [0, 1, 255, 256, 2047])
@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (200, 2)])
def test_fill_equals_normal_block(seed, start, shape):
    _assert_columns(_columns(seed, start, *shape, 3), seed, start)


@pytest.mark.parametrize("count", [3, 4, 8, 10], ids=["below", "equal", "two-groups", "not-a-multiple"])
def test_fill_across_staging_groups(monkeypatch, count):
    # 7 x 3 draws are 168 bytes: the staging holds groups of four replicates
    monkeypatch.setattr(_streams, "STAGING_BYTES", 4 * 7 * 3 * 8 + 7)
    _assert_columns(_columns(11, 1000, 7, 3, count), 11, 1000)


@pytest.mark.parametrize("count", [326, 327, 700], ids=["below", "equal", "not-a-multiple"])
def test_fill_across_the_module_staging_groups(count):
    # 200 x 2 draws are 3,200 bytes: one MiB stages 327 replicates at a time
    assert STAGING_BYTES // (200 * 2 * 8) == 327
    _assert_columns(_columns(3, 41, 200, 2, count), 3, 41)


def test_fill_stages_one_replicate_when_one_exceeds_the_staging():
    dim = STAGING_BYTES // 8 + 1  # one replicate's draws overflow the staging
    _assert_columns(_columns(8, 17, 1, dim, 3), 8, 17)


def test_fill_writes_only_into_the_block():
    # a (steps, dim, R) view of a wider buffer: the columns beside it keep their values
    buf = np.full((5, 2, 9), 7.0)
    fill_normal_columns(4, 60, buf[:, :, 2:6])
    assert (buf[:, :, :2] == 7.0).all() and (buf[:, :, 6:] == 7.0).all()
    _assert_columns(buf[:, :, 2:6], 4, 60)


def test_fill_keeps_no_state_between_calls():
    first = _columns(5, 10, 7, 3, 4)
    _columns(6, 0, 200, 2, 2)
    again = _columns(5, 10, 7, 3, 4)
    assert np.array_equal(first, again)
    # a block that overlaps the first one repeats its shared replicates
    shifted = _columns(5, 12, 7, 3, 3)
    assert np.array_equal(shifted[:, :, :2], first[:, :, 2:])


def test_fill_rejects_negative_keys():
    with pytest.raises(ValueError):
        _columns(-1, 0, 2, 2, 1)
    with pytest.raises(ValueError):
        _columns(0, -1, 2, 2, 1)


def test_seed_beyond_64_bits_is_refused():
    # A Philox key word holds 64 bits; a wider seed is refused, not wrapped or overflowed.
    with pytest.raises(ValueError):
        replicate_stream(2**64, 0)
    with pytest.raises(ValueError):
        _columns(2**64, 0, 2, 2, 1)
    assert np.array_equal(_columns(2**64 - 1, 3, 4, 2, 1)[:, :, 0], normal_block(2**64 - 1, 3, 4, 2))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("start", [2**63 - 2, 2**63 - 1, 2**63])
def test_fill_equals_normal_block_at_extreme_keys(seed, start):
    # the filler resets each stream from plain ints; key words at and above
    # 2**63 must reach Philox as the same unsigned 64-bit words
    _assert_columns(_columns(seed, start, 5, 2, 3), seed, start)


def test_replicate_beyond_64_bits_is_refused():
    # the replicate is the second Philox key word: 2**64 and beyond are refused
    # with ValueError, for the first replicate and for the last one a fill reaches
    with pytest.raises(ValueError, match=r"replicate must lie in \[0, 2\*\*64\), got 18446744073709551616"):
        replicate_stream(0, 2**64)
    with pytest.raises(ValueError, match="got 18446744073709551616"):
        _columns(0, 2**64, 3, 1, 1)
    with pytest.raises(ValueError, match="got 18446744073709551616"):
        _columns(0, 2**64 - 1, 3, 1, 2)
    last = _columns(0, 2**64 - 1, 3, 1, 1)
    assert np.array_equal(last[:, :, 0], normal_block(0, 2**64 - 1, 3, 1))


def test_refused_last_key_draws_nothing(monkeypatch):
    # the last replicate's key is checked before the first group is drawn
    monkeypatch.setattr(_streams, "STAGING_BYTES", 3 * 8)
    x = np.zeros((3, 1, 4))
    with pytest.raises(ValueError, match="got 18446744073709551616"):
        fill_normal_columns(0, 2**64 - 3, x)
    assert not x.any()
