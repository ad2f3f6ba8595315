"""The event-by-event MIDI import that the whole-array ``midi_to_score`` replaced.

Kept as the reference the MIDI import tests compare against: after the same
chunk walk, ``_parse_track`` reads each track one event at a time, and the
import steps every frame of every voice in Python, applying each event at or
before the frame's tick to the voice's (note, velocity, timbre) state before
reading that state into the frame.
"""

import numpy as np

from nesscore.midi import (
    CC_EXPRESSION,
    CC_TIMBRE,
    PPQ,
    TEMPO_USPQ,
    NotSmf,
    UnmappableEvent,
    _chunks,
    midi_to_velocity,
)
from nesscore.score import (
    MAX_TOTAL_SAMPLES,
    SAMPLE_RATE,
    VOICE_COLUMNS,
    VOICES,
    ExpressiveScore,
    check_frames,
    check_rate,
)
from reference_frames import frame_tick

# A channel event as (tick, status, data1, data2): status 0x80 (note off,
# data2 0), 0x90 (note on) or 0xB0 (controller CC_EXPRESSION or CC_TIMBRE).
_TrackEvent = tuple[int, int, int, int]

_VLQ_MAX_BYTES = 4      # the most a Standard MIDI File allows: 0x0FFFFFFF


def _parse_track(chunk: bytes, offset: int) -> tuple[list[_TrackEvent], int]:
    """Parse one MTrk body; returns (channel events, end-of-track tick)."""
    try:
        return _parse_track_body(chunk, offset)
    except IndexError:
        raise NotSmf(f"track at {offset:#x} truncated mid-event") from None


def _parse_track_body(chunk: bytes, offset: int) -> tuple[list[_TrackEvent], int]:
    events: list[_TrackEvent] = []
    pos = 0
    tick = 0
    running = None
    end_tick = None

    def read_vlq():
        nonlocal pos
        start, value = pos, 0
        for _ in range(_VLQ_MAX_BYTES):
            if pos >= len(chunk):
                raise NotSmf(f"track at {offset:#x} truncated inside a variable-length quantity")
            b = chunk[pos]
            pos += 1
            value = (value << 7) | (b & 0x7F)
            if not b & 0x80:
                return value
        raise NotSmf(f"variable-length quantity at {offset + start:#x} is longer "
                     f"than {_VLQ_MAX_BYTES} bytes")

    while pos < len(chunk):
        tick += read_vlq()
        if pos >= len(chunk):
            raise NotSmf(f"track at {offset:#x} truncated after delta")
        b = chunk[pos]
        if b >= 0x80:
            status = b
            pos += 1
        else:
            if running is None:
                raise NotSmf(f"running status with no prior status at {offset:#x}")
            status = running
        if status == 0xFF:
            meta_type = chunk[pos]
            pos += 1
            length = read_vlq()
            if pos + length > len(chunk):
                raise IndexError        # the payload runs past the chunk
            payload = chunk[pos:pos + length]
            pos += length
            if meta_type == 0x2F:
                end_tick = tick
            elif meta_type == 0x51:
                tempo = int.from_bytes(payload, "big")
                if tempo != TEMPO_USPQ:
                    raise UnmappableEvent(f"tempo {tempo} us/quarter; profile "
                                          f"requires {TEMPO_USPQ}")
            # other metas (names, markers) are ignored
            continue
        if status in (0xF0, 0xF7):
            raise UnmappableEvent("sysex events are outside the score profile")
        running = status
        kind = status & 0xF0
        start = pos
        if kind in (0x80, 0x90, 0xA0, 0xB0, 0xE0):
            d1, d2 = chunk[pos], chunk[pos + 1]
            pos += 2
        elif kind in (0xC0, 0xD0):
            d1, d2 = chunk[pos], 0
            pos += 1
        else:
            raise NotSmf(f"bad status byte {status:#04x} in track at {offset:#x}")
        if d1 >= 0x80 or d2 >= 0x80:
            at = start if d1 >= 0x80 else start + 1
            raise NotSmf(f"data byte {chunk[at]:#04x} at {offset + at:#x} is not below 0x80")
        if kind == 0x80 or (kind == 0x90 and d2 == 0):
            events.append((tick, 0x80, d1, 0))
        elif kind == 0x90:
            events.append((tick, 0x90, d1, d2))
        elif kind == 0xB0:
            if d1 not in (CC_EXPRESSION, CC_TIMBRE):
                raise UnmappableEvent(f"controller {d1} is outside the score profile")
            events.append((tick, 0xB0, d1, d2))
        else:
            raise UnmappableEvent(f"event {status:#04x} is outside the score profile")
    if end_tick is None:
        raise NotSmf(f"track at {offset:#x} missing end-of-track meta")
    return events, end_tick


def midi_to_score_by_frame(data: bytes, rate_hz: float) -> ExpressiveScore:
    fmt, division, tracks = _chunks(data)
    if fmt != 1:
        raise UnmappableEvent(f"format {fmt}; profile requires 1")
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
    check_rate(rate_hz, 1)
    if end_tick > MAX_TOTAL_SAMPLES:
        raise UnmappableEvent(f"end of track at tick {end_tick}, past the "
                              f"{MAX_TOTAL_SAMPLES} samples a stream can span")
    n_frames = round(end_tick * rate_hz / SAMPLE_RATE)
    check_rate(rate_hz, n_frames)
    ticks = [frame_tick(k, rate_hz) for k in range(n_frames)]
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
    score = ExpressiveScore(float(rate_hz), np.array(columns, np.int16).T)
    check_frames(score, lambda d: UnmappableEvent(
        f"frame {d.frame_index}, track {VOICES.index(d.voice) + 1}: {d.voice} {d.message}"))
    return score
