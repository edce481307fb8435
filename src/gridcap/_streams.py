"""Counter-based random number streams.

Each (seed, replicate) pair owns an independent Philox stream, and draws
inside a replicate are indexed by position (step, coordinate). Because a
stream never depends on how work is scheduled, simulations are bit-identical
across runs and across worker counts.

`fill_normal_blocks` draws the blocks of consecutive replicates with one
generator whose Philox key, counter and buffer are reset per replicate,
which is several times cheaper than building a generator for each. The
generator is local to the call, so concurrent callers share no state.
"""
from __future__ import annotations

import numpy as np

__all__ = ["check_key", "replicate_stream", "normal_block", "fill_normal_blocks"]


def check_key(seed: int, replicate: int) -> None:
    """Refuse a (seed, replicate) pair that is not a Philox key: both in [0, 2**64)."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    if not 0 <= replicate < 2**64:
        raise ValueError(f"replicate must lie in [0, 2**64), got {replicate}")


def replicate_stream(seed: int, replicate: int) -> np.random.Generator:
    """Return the generator owned by (seed, replicate).

    The Philox key is the pair itself, so streams for distinct replicates are
    statistically independent without any shared sequential state.
    """
    check_key(seed, replicate)
    key = np.array([seed, replicate], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def normal_block(seed: int, replicate: int, steps: int, dim: int) -> np.ndarray:
    """Standard normal draws for one replicate, shape (steps, dim).

    Entry (k, i) is the increment for coordinate i at step k; the layout is
    fixed, so the same (seed, replicate) always yields the same block.
    """
    return replicate_stream(seed, replicate).standard_normal((steps, dim))


def fill_normal_blocks(seed: int, start: int, out: np.ndarray) -> np.ndarray:
    """Fill out[i] with normal_block(seed, start + i, steps, dim), bit for bit.

    `out` is a C-contiguous float64 array of shape (replicates, steps, dim).
    Returns `out`.
    """
    check_key(seed, start)
    check_key(seed, start + max(out.shape[0], 1) - 1)  # the last replicate's key
    bits = np.random.Philox(key=np.array([seed, start], dtype=np.uint64))
    gen = np.random.Generator(bits)
    fresh = bits.state  # a just-keyed stream: zero counter, empty buffer
    # plain ints spare the state setter a NumPy scalar per element it reads
    fresh["state"] = {name: words.tolist() for name, words in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    key = fresh["state"]["key"]
    for i in range(out.shape[0]):
        key[1] = start + i
        bits.state = fresh
        gen.standard_normal(out=out[i])
    return out
