"""Whole-array kernels shared by the byte decoders, replay and the renderer."""

import numpy as np


def byte_buffer(data: bytes) -> tuple[np.ndarray, type]:
    """``data`` as uint8 then 16 zero bytes, so reads a few bytes on stay in
    bounds, and the int type of positions in it."""
    buf = np.zeros(len(data) + 16, np.uint8)
    buf[:len(data)] = np.frombuffer(data, np.uint8)
    return buf, np.int32 if len(data) < 2 ** 31 - 32 else np.int64


def walk(step: np.ndarray, starts) -> tuple[list, list]:
    """Each start's chain of positions before its stop, and the stops, where
    ``step`` maps a position to the next, higher one and a stop to itself.
    Pointer doubling: row i of ``chain`` is i steps on from the starts, and
    ``jump`` 2^k steps on from each position."""
    chain, jump = np.array([starts], step.dtype), step
    while step.take(chain[-1]).tolist() != chain[-1].tolist():  # lists: faster than an array test
        chain = np.concatenate((chain, jump.take(chain)))
        jump = jump.take(jump)
    return [c[:c.searchsorted(c[-1])] for c in chain.T], chain[-1].tolist()


def held(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The value a field holds after each prefix of events: entry p is
    ``values[i]`` of the last event i < p that ``mask`` marks as setting the
    field, or 0 when none of the first p events did."""
    setter = np.maximum.accumulate(np.where(mask, np.arange(1, len(mask) + 1), 0))
    return np.concatenate(([0], values))[np.concatenate(([0], setter))]


def run_starts(key: np.ndarray) -> np.ndarray:
    """Whether each entry of ``key`` starts a run: the first, and each that
    differs from the one before."""
    start = np.ones(len(key), bool)
    np.not_equal(key[1:], key[:-1], out=start[1:])
    return start


def sorted_unique(x: np.ndarray) -> np.ndarray:
    """np.unique(x), by a sort, which here is many times faster than its hashing."""
    x = np.sort(x)
    return x[run_starts(x)]
