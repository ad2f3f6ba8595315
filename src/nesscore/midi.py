"""Standard MIDI File export/import of expressive scores.

The profile keeps one MIDI tick equal to one audio sample: 22050 ticks per
quarter at a fixed 500000 us tempo is exactly 44100 ticks per second.  Four
note tracks follow the tempo track in voice order P1, P2, TR, NO.  Velocity
maps to round(v*127/15); mid-note dynamics ride controller 11 so note
boundaries survive the round trip, and timbre rides controller 12.  Noise
notes 1-16 are written as MIDI pitches 1-16.  The writer takes each voice's
events from ``score.voice_changes``, in frame order from ``score.schedule``.
"""

import struct

import numpy as np

from .apu import _held
from .score import (
    MAX_TOTAL_SAMPLES,
    SAMPLE_RATE,
    VELOCITY_MAX,
    VOICE_COLUMNS,
    VOICES,
    ExpressiveScore,
    check_frames,
    check_rate,
    frame_count,
    frame_position,
    schedule,
    voice_changes,
)

PPQ = 22050
TEMPO_USPQ = 500000           # 120 BPM; 1 tick = 1/44100 s
CC_EXPRESSION = 11
CC_TIMBRE = 12

class NotSmf(ValueError):
    """Input is not a structurally valid Standard MIDI File."""


class UnmappableEvent(ValueError):
    """Event outside the score profile (wrong tempo, pitch bend, ...)."""


def _frame_ticks(n_frames: int, rate_hz: float) -> np.ndarray:
    """Tick of frames 0..n_frames: each frame's sample position, rounded half to even."""
    return np.rint(frame_position(np.arange(n_frames + 1), rate_hz)).astype(np.int64)


def velocity_to_midi(vel: int) -> int:
    return max(1, round(vel * 127 / VELOCITY_MAX))


def midi_to_velocity(value: int) -> int:
    return min(VELOCITY_MAX, max(1, round(value * VELOCITY_MAX / 127)))


# midi_to_velocity of every data byte value, and velocity_to_midi of every velocity
_VELOCITY_OF = np.array([midi_to_velocity(value) for value in range(128)], np.int16)
_MIDI_VELOCITY = np.array([velocity_to_midi(vel) for vel in range(VELOCITY_MAX + 1)], np.int16)


# ---------------------------------------------------------------------------
# writer

def _vlq(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def _encode_track(ticks, payloads: list[bytes], end_tick: int) -> bytes:
    """An MTrk body: each payload after its delta from the one before, then the
    end of track.  Events come frame by frame and frame ticks never decrease."""
    deltas = np.diff(ticks, prepend=0, append=end_tick).tolist()
    vlq = {delta: _vlq(delta) for delta in set(deltas)}    # a track has few distinct deltas
    return b"".join(map(bytes.__add__, map(vlq.get, deltas), [*payloads, b"\xff\x2f\x00"]))


def _voice_track(values: np.ndarray, ch: int, ticks: np.ndarray) -> bytes:
    """The MTrk body of voice ``ch``; a note sounding at the end stops at frame T."""
    changes = voice_changes(values, VOICES[ch])
    note, *dynamics = changes.now
    # (frames, status, data 1, data 2) in the order a frame sends them
    events = [(changes.release, 0x80 | ch, changes.before[0], 0)]
    if dynamics:
        vel, timbre = dynamics
        velocity = _MIDI_VELOCITY.take(vel)
        events += [(changes.onset, 0xB0 | ch, CC_TIMBRE, timbre),
                   (changes.onset, 0x90 | ch, note, velocity),
                   (changes.changed[0], 0xB0 | ch, CC_EXPRESSION, velocity),
                   (changes.changed[1], 0xB0 | ch, CC_TIMBRE, timbre)]
    else:   # a voice without velocity and timbre (the triangle) sounds at full velocity
        events.append((changes.onset, 0x90 | ch, note, _MIDI_VELOCITY[VELOCITY_MAX]))
    frame, fields = schedule(events, len(ticks))
    data = fields.T.astype(np.uint8).tobytes()
    return _encode_track(ticks[frame], [data[i:i + 3] for i in range(0, len(data), 3)],
                         int(ticks[-1]))


def score_to_midi(score: ExpressiveScore) -> bytes:
    """Serialize as an SMF type-1 file: tempo track + four voice tracks.

    Raises ValueError for a rate or length ``check_rate`` rejects, or naming
    the first frame ``validate`` rejects.
    """
    check_rate(score.rate_hz, len(score))
    check_frames(score)
    values = score.to_array()
    ticks = _frame_ticks(len(values), score.rate_hz)
    tempo = b"\xff\x51\x03" + struct.pack(">I", TEMPO_USPQ)[1:]
    chunks = [_encode_track([0], [tempo], int(ticks[-1]))]
    chunks += [_voice_track(values, voice, ticks) for voice in range(len(VOICES))]
    out = bytearray()
    out += b"MThd" + struct.pack(">IHHH", 6, 1, len(chunks), PPQ)
    for chunk in chunks:
        out += b"MTrk" + struct.pack(">I", len(chunk)) + chunk
    return bytes(out)


# ---------------------------------------------------------------------------
# reader

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


def _chunks(data: bytes):
    if len(data) < 14 or data[:4] != b"MThd":
        raise NotSmf("missing MThd header")
    header_len = struct.unpack(">I", data[4:8])[0]
    if header_len < 6 or len(data) < 8 + header_len:
        raise NotSmf("truncated MThd")
    fmt, ntrks, division = struct.unpack(">HHH", data[8:14])
    pos = 8 + header_len
    tracks = []
    while pos < len(data):
        if len(data) < pos + 8 or data[pos:pos + 4] != b"MTrk":
            raise NotSmf(f"expected MTrk chunk at {pos:#x}")
        length = struct.unpack(">I", data[pos + 4:pos + 8])[0]
        if len(data) < pos + 8 + length:
            raise NotSmf(f"truncated MTrk chunk at {pos:#x}")
        tracks.append((data[pos + 8:pos + 8 + length], pos + 8))
        pos += 8 + length
    if len(tracks) != ntrks:
        raise NotSmf(f"header declares {ntrks} tracks, found {len(tracks)}")
    return fmt, division, tracks


def midi_to_score(data: bytes, rate_hz: float) -> ExpressiveScore:
    """Inverse of score_to_midi up to frame quantization at rate_hz.

    A frame ``validate`` rejects is an UnmappableEvent naming the frame and
    its track (1-4 for P1, P2, TR, NO; track 0 holds the tempo).
    """
    _fmt, division, tracks = _chunks(data)
    if division != PPQ:
        raise UnmappableEvent(f"division {division}; profile requires {PPQ}")
    if len(tracks) != 5:
        raise UnmappableEvent(f"expected 5 tracks (tempo + 4 voices), got {len(tracks)}")

    end_tick = 0
    voice_events: list[list[_TrackEvent]] = []
    for i, (chunk, offset) in enumerate(tracks):
        events, track_end = _parse_track(chunk, offset)
        end_tick = max(end_tick, track_end)
        if i == 0:
            if events:
                raise UnmappableEvent("tempo track must not carry channel events")
        else:
            voice_events.append(events)

    # As in downsample: the frames covering the file must fit in a stream.
    check_rate(rate_hz)
    if end_tick > MAX_TOTAL_SAMPLES:   # one tick is one sample
        raise UnmappableEvent(f"end of track at tick {end_tick}, past the "
                              f"{MAX_TOTAL_SAMPLES} samples a stream can span")
    check_rate(rate_hz, frame_count(end_tick, rate_hz))
    n_frames = round(end_tick * rate_hz / SAMPLE_RATE)
    ticks = _frame_ticks(n_frames, rate_hz)[:-1]
    frames = np.zeros((n_frames, 10), np.int16)
    for voice, events in enumerate(voice_events):
        if not events:
            continue
        tick, status, d1, d2 = np.array(events, np.int64).T
        control = status == 0xB0
        note = _held(status != 0xB0, d1 * (status == 0x90))
        vel = _held((status == 0x90) | (control & (d1 == CC_EXPRESSION)), _VELOCITY_OF.take(d2))
        timbre = _held(control & (d1 == CC_TIMBRE), d2)
        # Frame k holds the state after the events at or before its tick.
        seen = np.searchsorted(tick, ticks, "right")
        sounding = note[seen] > 0
        for column, held in zip(VOICE_COLUMNS[VOICES[voice]], (note, vel, timbre)):
            frames[:, column] = held[seen] * sounding
    score = ExpressiveScore(float(rate_hz), frames)
    check_frames(score, lambda d: UnmappableEvent(
        f"frame {d.frame_index}, track {VOICES.index(d.voice) + 1}: {d.voice} {d.message}"))
    return score
