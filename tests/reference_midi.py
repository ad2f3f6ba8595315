"""The per-frame MIDI import that the vectorised ``midi_to_score`` replaced.

Kept as the reference the MIDI import tests compare against: after the same
chunk walk and track parse, it steps every frame of every voice in Python,
applying each event at or before the frame's tick to the voice's (note,
velocity, timbre) state before reading that state into the frame.
"""

import numpy as np

from nesscore.midi import (
    CC_EXPRESSION,
    PPQ,
    UnmappableEvent,
    _chunks,
    _frame_ticks,
    _parse_track,
    midi_to_velocity,
)
from nesscore.score import (
    MAX_TOTAL_SAMPLES,
    SAMPLE_RATE,
    VOICE_COLUMNS,
    ExpressiveScore,
    check_rate,
    frame_count,
)


def midi_to_score_by_frame(data: bytes, rate_hz: float) -> ExpressiveScore:
    _fmt, division, tracks = _chunks(data)
    if division != PPQ:
        raise UnmappableEvent(f"division {division}; profile requires {PPQ}")
    if len(tracks) != 5:
        raise UnmappableEvent(f"expected 5 tracks (tempo + 4 voices), got {len(tracks)}")
    end_tick = 0
    voice_events = []
    for i, (chunk, offset) in enumerate(tracks):
        events, track_end = _parse_track(chunk, offset)
        end_tick = max(end_tick, track_end)
        if i == 0:
            if events:
                raise UnmappableEvent("tempo track must not carry channel events")
        else:
            voice_events.append(events)
    check_rate(rate_hz)
    if end_tick > MAX_TOTAL_SAMPLES:
        raise UnmappableEvent(f"end of track at tick {end_tick}, past the "
                              f"{MAX_TOTAL_SAMPLES} samples a stream can span")
    check_rate(rate_hz, frame_count(end_tick, rate_hz))
    n_frames = round(end_tick * rate_hz / SAMPLE_RATE)
    ticks = _frame_ticks(n_frames, rate_hz).tolist()
    columns = [[0] * n_frames for _ in range(10)]
    for fields, events in zip(VOICE_COLUMNS.values(), voice_events):
        note = vel = timbre = 0
        ei = 0
        for k in range(n_frames):
            while ei < len(events) and events[ei][0] <= ticks[k]:
                _tick, status, d1, d2 = events[ei]
                if status == 0x80:
                    note = 0
                elif status == 0x90:
                    note = d1
                    vel = midi_to_velocity(d2)
                elif d1 == CC_EXPRESSION:
                    vel = midi_to_velocity(d2)
                else:
                    timbre = d2
                ei += 1
            if note:
                # the triangle has a note column only
                for column, value in zip(fields, (note, vel, timbre)):
                    columns[column][k] = value
    return ExpressiveScore(float(rate_hz), np.array(columns, np.int16).T)
