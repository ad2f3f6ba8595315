"""The per-frame downsampling that the vectorised one replaced.

Kept as the reference the downsampling tests compare against: it looks up
each frame's sample point in the timeline's change list by bisection, one
frame at a time, with the scalar frame clock of ``reference_frames``, and
builds the score from a list of ExpressiveFrame.
"""

from bisect import bisect_right

from nesscore.score import ExpressiveFrame, ExpressiveScore, check_rate
from reference_frames import frame_count, frame_sample_index


def _frame_at(changes, sample: int) -> ExpressiveFrame:
    i = bisect_right([s for s, _ in changes], sample) - 1
    return changes[i][1] if i >= 0 else ExpressiveFrame()


def frame_at(timeline, sample: int) -> ExpressiveFrame:
    """The frame of the last change at or before sample; silence before the first."""
    return _frame_at(timeline.changes, sample)


def downsample_by_frame(timeline, rate_hz: float) -> ExpressiveScore:
    check_rate(rate_hz)
    n = frame_count(timeline.total_samples, rate_hz)
    check_rate(rate_hz, n)
    changes = timeline.changes      # built from the arrays on each access
    frames = [_frame_at(changes, frame_sample_index(k, rate_hz)) for k in range(n)]
    return ExpressiveScore(rate_hz=float(rate_hz), frames=frames)
