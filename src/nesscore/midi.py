"""Standard MIDI File export/import of expressive scores.

The profile keeps one MIDI tick equal to one audio sample: 22050 ticks per
quarter at a fixed 500000 us tempo is exactly 44100 ticks per second.  Four
note tracks follow the tempo track in voice order P1, P2, TR, NO.  Velocity
maps to round(v*127/15); mid-note dynamics ride controller 11 so note
boundaries survive the round trip, and timbre rides controller 12.  Noise
notes 1-16 are written as MIDI pitches 1-16.
"""

import struct

import numpy as np

from .score import (
    MAX_TOTAL_SAMPLES,
    SAMPLE_RATE,
    ExpressiveScore,
    check_rate,
    frame_count,
    frame_position,
)

PPQ = 22050
TEMPO_USPQ = 500000           # 120 BPM; 1 tick = 1/44100 s
CC_EXPRESSION = 11
CC_TIMBRE = 12
TRACK_VOICES = ("P1", "P2", "TR", "NO")

_EV_NOTE_OFF = 0
_EV_CONTROL = 1
_EV_NOTE_ON = 2
_VOICE_FIELDS = ((0, 1, 2), (3, 4, 5), (6, None, None), (7, 8, 9))  # note, vel, timbre columns


class NotSmf(ValueError):
    """Input is not a structurally valid Standard MIDI File."""


class UnmappableEvent(ValueError):
    """Event outside the score profile (wrong tempo, pitch bend, ...)."""


def _frame_ticks(n_frames: int, rate_hz: float) -> np.ndarray:
    """Tick of frames 0..n_frames: each frame's sample position, rounded half to even."""
    return np.rint(frame_position(np.arange(n_frames + 1), rate_hz)).astype(np.int64)


def velocity_to_midi(vel: int) -> int:
    return max(1, round(vel * 127 / 15))


def midi_to_velocity(value: int) -> int:
    return min(15, max(1, round(value * 15 / 127)))


# midi_to_velocity of every byte value
_VELOCITY_OF = np.array([midi_to_velocity(value) for value in range(256)], np.int16)


# ---------------------------------------------------------------------------
# writer

def _vlq(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def _encode_track(events: list[tuple[int, int, bytes]], end_tick: int) -> bytes:
    events = sorted(events, key=lambda e: (e[0], e[1]))
    data = bytearray()
    last = 0
    for tick, _prio, payload in events:
        data += _vlq(tick - last)
        data += payload
        last = tick
    data += _vlq(end_tick - last)
    data += b"\xff\x2f\x00"   # end of track
    return bytes(data)


def _voice_events(frames: list[list[int]], voice: int,
                  ticks: list[int]) -> list[tuple[int, int, bytes]]:
    fields = _VOICE_FIELDS[voice]
    ch = voice
    events: list[tuple[int, int, bytes]] = []
    note = vel = timbre = 0
    for tick, frame in zip(ticks, frames):
        n = frame[fields[0]]
        v = frame[fields[1]] if fields[1] is not None else (15 if n else 0)
        t = frame[fields[2]] if fields[2] is not None else 0
        if n != note:
            if note:
                events.append((tick, _EV_NOTE_OFF, bytes((0x80 | ch, note, 0))))
            if n:
                if fields[2] is not None:
                    events.append((tick, _EV_CONTROL, bytes((0xB0 | ch, CC_TIMBRE, t))))
                on_vel = velocity_to_midi(v) if fields[1] is not None else 127
                events.append((tick, _EV_NOTE_ON, bytes((0x90 | ch, n, on_vel))))
            note, vel, timbre = n, v, t
        elif n:
            if v != vel and fields[1] is not None:
                events.append((tick, _EV_CONTROL,
                               bytes((0xB0 | ch, CC_EXPRESSION, velocity_to_midi(v)))))
                vel = v
            if t != timbre and fields[2] is not None:
                events.append((tick, _EV_CONTROL, bytes((0xB0 | ch, CC_TIMBRE, t))))
                timbre = t
    if note:
        events.append((ticks[-1], _EV_NOTE_OFF, bytes((0x80 | ch, note, 0))))
    return events


def score_to_midi(score: ExpressiveScore) -> bytes:
    """Serialize as an SMF type-1 file: tempo track + four voice tracks.

    Raises ValueError for a rate or length ``check_rate`` rejects.
    """
    check_rate(score.rate_hz, len(score))
    frames = score.to_array().tolist()
    ticks = _frame_ticks(len(frames), score.rate_hz).tolist()
    end_tick = ticks[-1]
    tempo = [(0, _EV_CONTROL, b"\xff\x51\x03" + struct.pack(">I", TEMPO_USPQ)[1:])]
    chunks = [_encode_track(tempo, end_tick)]
    for voice in range(4):
        chunks.append(_encode_track(_voice_events(frames, voice, ticks), end_tick))
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
        if kind in (0x80, 0x90, 0xA0, 0xB0, 0xE0):
            d1, d2 = chunk[pos], chunk[pos + 1]
            pos += 2
        elif kind in (0xC0, 0xD0):
            d1, d2 = chunk[pos], None
            pos += 1
        else:
            raise NotSmf(f"bad status byte {status:#04x} in track at {offset:#x}")
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
    """Inverse of score_to_midi up to frame quantization at rate_hz."""
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
        for column, held in zip(_VOICE_FIELDS[voice], (note, vel, timbre)):
            if column is not None:
                frames[:, column] = held[seen] * sounding
    return ExpressiveScore(float(rate_hz), frames)


def _held(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The value a field holds after each prefix of a voice's events.

    Entry p is ``values[i]`` of the last event i < p that ``mask`` marks as
    setting the field, or 0 when none of the first p events did.
    """
    setter = np.maximum.accumulate(np.where(mask, np.arange(1, len(mask) + 1), 0))
    return np.concatenate(([0], values))[np.concatenate(([0], setter))]
