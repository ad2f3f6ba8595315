"""The per-frame downsampling that the vectorised one replaced.

Kept as the reference the downsampling tests compare against: it looks up
each frame's sample point in the timeline's change list by bisection, one
frame at a time, with the scalar frame clock of ``reference_frames``, and
builds the score from a list of ExpressiveFrame.
"""

from bisect import bisect_right

from nesscore.score import SILENCE, ExpressiveFrame, ExpressiveScore, check_rate
from reference_frames import frame_count, frame_sample_index


def frame_at(timeline, sample: int) -> ExpressiveFrame:
    """The frame of the last change at or before sample; SILENCE before the first."""
    i = bisect_right([s for s, _ in timeline.changes], sample) - 1
    return timeline.changes[i][1] if i >= 0 else SILENCE


def downsample_by_frame(timeline, rate_hz: float) -> ExpressiveScore:
    check_rate(rate_hz)
    n = frame_count(timeline.total_samples, rate_hz)
    check_rate(rate_hz, n)
    frames = [frame_at(timeline, frame_sample_index(k, rate_hz)) for k in range(n)]
    return ExpressiveScore(rate_hz=float(rate_hz), frames=frames)
