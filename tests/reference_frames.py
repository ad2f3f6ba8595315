"""The two-branch scalar frame clock that the single float64 rule replaced.

Kept as the reference the frame-clock tests compare against: an integer rate
takes exact integer arithmetic, any other rate one float division, and a MIDI
tick is Python's round() of the same quotient, one frame at a time.
"""

import math

SAMPLE_RATE = 44100


def frame_sample_index(k: int, rate_hz: float) -> int:
    """Audio sample index at which frame k is sampled: floor(k*44100/rate)."""
    if rate_hz <= 0:
        raise ValueError("rate_hz must be positive")
    if float(rate_hz).is_integer():
        return (k * SAMPLE_RATE) // int(rate_hz)
    return int(k * SAMPLE_RATE / rate_hz)


def frame_count(total_samples: int, rate_hz: float) -> int:
    """Number of frames covering total_samples: ceil(total*rate/44100)."""
    if rate_hz <= 0:
        raise ValueError("rate_hz must be positive")
    if float(rate_hz).is_integer():
        return -((-total_samples * int(rate_hz)) // SAMPLE_RATE)
    return math.ceil(total_samples * rate_hz / SAMPLE_RATE)


def frame_tick(k: int, rate_hz: float) -> int:
    """MIDI tick of frame k: the nearest sample, ties to even."""
    return round(k * SAMPLE_RATE / rate_hz)
