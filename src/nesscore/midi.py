"""Standard MIDI File export/import of expressive scores.

The profile keeps one MIDI tick equal to one audio sample: 22050 ticks per
quarter at a fixed 500000 us tempo is exactly 44100 ticks per second.  Four
note tracks follow the tempo track in voice order P1, P2, TR, NO.  Velocity
maps to round(v*127/15); mid-note dynamics ride controller 11 so note
boundaries survive the round trip, and timbre rides controller 12.  Noise
notes 1-16 are written as MIDI pitches 1-16.

The writer takes each voice's events from ``score.voice_changes``, in frame
order from ``score.schedule``, and lays out each track in one pass: every
event is its delta as a variable-length quantity (VLQ) and three payload
bytes, and one boolean mask keeps each delta's significant bytes.  A delta
past 0x0FFFFFFF, the most a 4-byte VLQ holds, starts with empty text metas
of 0x0FFFFFFF ticks each.

The reader has no loop over events either.  A table gives every byte of the
file the position of the event after it, as if an event started there: a
delta VLQ of 1-4 bytes, then a note off, note on or controller status and
two data bytes, two data bytes under running status, or a meta (0xFF, its
type, a VLQ length and the payload).  The table only sizes events; any other
event is a stop: sysex, the other channel statuses, a VLQ of 5 or more
bytes, and an event that runs past its chunk.  Pointer doubling
(``_arrays.walk``) walks every track from its first byte to its first stop
in about log2(events) rounds; ticks are one ``cumsum`` of the deltas, and
running status is a forward fill over the walked events.  One mask over the
walked events checks what each holds: a running status has a status before
it in the track, data bytes are below 0x80, a controller is 11 or 12 and a
tempo is 500000.  The first event it flags, or the stop short of its chunk's
end, is re-read on its own to raise the error an event-by-event parser
raises there.  Each voice's (note, velocity, timbre) is then filled frame
run by frame run, from the first frame at or after each event's tick, so the
reader's working memory is O(events) beside the frames it returns.
"""

import struct
from typing import NoReturn

import numpy as np

from ._arrays import byte_buffer, held, run_starts, walk
from .score import (
    MAX_TOTAL_SAMPLES,
    SAMPLE_RATE,
    VELOCITY_MAX,
    VOICE_COLUMNS,
    VOICES,
    ExpressiveScore,
    check_frames,
    check_rate,
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


def _frame_tick(k, rate_hz: float):
    """Tick of frame k (an integer array): its sample position, rounded half to even."""
    return np.rint(frame_position(k, rate_hz)).astype(np.int64)


def velocity_to_midi(vel: int) -> int:
    return max(1, round(vel * 127 / VELOCITY_MAX))


def midi_to_velocity(value: int) -> int:
    return min(VELOCITY_MAX, max(1, round(value * VELOCITY_MAX / 127)))


# midi_to_velocity of every data byte value, and velocity_to_midi of every velocity
_VELOCITY_OF = np.array([midi_to_velocity(value) for value in range(128)], np.int16)
_MIDI_VELOCITY = np.array([velocity_to_midi(vel) for vel in range(VELOCITY_MAX + 1)], np.int16)


# ---------------------------------------------------------------------------
# writer

# A VLQ's 7-bit groups, most significant first, as many as the format allows
# (4, so up to 0x0FFFFFFF); every group but the last has the high bit set.
_VLQ_MAX_BYTES, _VLQ_MAX = 4, 0x0FFFFFFF
_VLQ_SHIFTS = np.arange(21, -1, -7)
_VLQ_MORE = np.array([0x80, 0x80, 0x80, 0], np.int64)
_END_OF_TRACK = np.array([[0xFF, 0x2F, 0x00]], np.uint8)


def _encode_track(deltas: np.ndarray, payloads: np.ndarray) -> bytes:
    """An MTrk body: each 3-byte payload row after its delta as a VLQ, which
    keeps its last group and every group above it that is not 0.  Empty text
    metas carry 0x0FFFFFFF ticks each of a delta above that, before its row."""
    fill = np.maximum(deltas - 1, 0) // _VLQ_MAX
    own = np.cumsum(fill + 1) - 1      # each row's place, after its metas
    split = np.full((own[-1] + 1, 4), [_VLQ_MAX, 0xFF, 0x01, 0x00], np.int64)
    split[own, 0], split[own, 1:] = deltas - fill * _VLQ_MAX, payloads
    deltas, payloads = split[:, 0], split[:, 1:]
    groups = deltas[:, None] >> _VLQ_SHIFTS
    events = np.empty((len(deltas), 7), np.uint8)
    events[:, :4] = groups & 0x7F | _VLQ_MORE
    events[:, 4:] = payloads
    keep = np.ones(events.shape, bool)
    np.greater(groups[:, :3], 0, out=keep[:, :3])
    return events[keep].tobytes()


def _voice_track(values: np.ndarray, ch: int, rate_hz: float) -> bytes:
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
    frame, fields = schedule(events, len(values) + 1)
    ticks = _frame_tick(np.append(frame, len(values)), rate_hz)
    return _encode_track(np.diff(ticks, prepend=0),
                         np.concatenate((fields.T.astype(np.uint8), _END_OF_TRACK)))


def score_to_midi(score: ExpressiveScore) -> bytes:
    """Serialize as an SMF type-1 file: tempo track + four voice tracks.

    Raises ValueError for a rate or length ``check_rate`` rejects, or naming
    the first frame ``validate`` rejects.
    """
    check_rate(score.rate_hz, len(score))
    check_frames(score)
    values = score.to_array()
    end_tick = _frame_tick(np.array([len(values)]), score.rate_hz)
    tempo = b"\x00\xff\x51\x03" + struct.pack(">I", TEMPO_USPQ)[1:]
    chunks = [tempo + _encode_track(end_tick, _END_OF_TRACK)]
    chunks += [_voice_track(values, voice, score.rate_hz) for voice in range(len(VOICES))]
    out = bytearray()
    out += b"MThd" + struct.pack(">IHHH", 6, 1, len(chunks), PPQ)
    for chunk in chunks:
        out += b"MTrk" + struct.pack(">I", len(chunk)) + chunk
    return bytes(out)


# ---------------------------------------------------------------------------
# reader

# Bytes of an event body by its first byte: two data bytes under running
# status; a note off, note on or controller status and two data bytes.
# 0 for the rest: the meta (0xFF) is sized from its length, and every other
# status is a stop.
_BODY_BYTES = np.zeros(256, np.int8)
_BODY_BYTES[:0x80] = 2
_BODY_BYTES[0x80:0xA0] = 3
_BODY_BYTES[0xB0:0xC0] = 3
_TEMPO_BYTES = np.frombuffer(TEMPO_USPQ.to_bytes(3, "big"), np.uint8)


def _vlq_sizes(buf: np.ndarray) -> np.ndarray:
    """Bytes (1-4) of a VLQ at each position of ``buf`` but its last 3; 0
    where the first 4 bytes all have the high bit set."""
    more = buf >= 0x80
    n = len(buf) - 3
    one = more[:n]
    two = one & more[1:n + 1]
    three = two & more[2:n + 2]
    size = 1 + one.view(np.int8) + two.view(np.int8) + three.view(np.int8)
    size[three & more[3:n + 3]] = 0
    return size


def _vlq_value(buf: np.ndarray, at: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The value of the VLQ of ``size`` bytes at each position ``at``."""
    value = np.zeros(len(at), np.int64)
    for j in range(_VLQ_MAX_BYTES):
        value = np.where(j < size, value << 7 | buf.take(at + j) & 0x7F, value)
    return value


def _meta_payloads(buf: np.ndarray, sizes: np.ndarray, q: np.ndarray) -> tuple:
    """The payload start and end of the meta at each ``q``; whether its length has 1-4 bytes."""
    length_at = q + 2
    length_size = sizes.take(length_at)
    start = length_at + length_size
    return start, start + _vlq_value(buf, length_at, length_size), length_size > 0


def _steps(buf: np.ndarray, sizes: np.ndarray, limit: np.ndarray) -> np.ndarray:
    """step[p]: where the event after one that starts at p starts, by its size alone;
    p itself where an event there is a stop.  ``sizes`` are ``_vlq_sizes(buf)``, and
    ``limit[p]`` is the end of p's chunk, or p outside every chunk."""
    p = np.arange(len(limit), dtype=limit.dtype)
    size = sizes[:len(limit)]
    q = p + size                            # the status or first data byte
    first = buf.take(q)
    nxt = q + _BODY_BYTES.take(first)
    ok = (size > 0) & (nxt > q)
    m = np.flatnonzero((first == 0xFF) & (size > 0))
    _start, end, sized = _meta_payloads(buf, sizes, q.take(m))
    ok[m] = meta_ok = sized & (end <= limit.take(m))
    nxt[m] = np.where(meta_ok, end, 0)      # an end past the chunk may not fit nxt's type
    ok &= nxt <= limit
    return np.where(ok, nxt, p)


def _reject_event(chunk: bytes, offset: int, pos: int, running: int | None) -> NoReturn:
    """Raise the error of the event at ``pos`` of the MTrk body ``chunk`` at
    file offset ``offset``, under running status ``running`` (None before any
    status): one step of an event-by-event parser, at an event that step
    rejects."""
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

    truncated = NotSmf(f"track at {offset:#x} truncated mid-event")
    read_vlq()
    if pos >= len(chunk):
        raise NotSmf(f"track at {offset:#x} truncated after delta")
    status = chunk[pos]
    if status >= 0x80:
        pos += 1
    elif running is None:
        raise NotSmf(f"running status with no prior status at {offset:#x}")
    else:
        status = running
    if status == 0xFF:
        if pos >= len(chunk):
            raise truncated
        pos += 1
        length = read_vlq()
        if pos + length > len(chunk):
            raise truncated
        tempo = int.from_bytes(chunk[pos:pos + length], "big")
        raise UnmappableEvent(f"tempo {tempo} us/quarter; profile requires {TEMPO_USPQ}")
    if status in (0xF0, 0xF7):
        raise UnmappableEvent("sysex events are outside the score profile")
    kind = status & 0xF0
    if kind == 0xF0:
        raise NotSmf(f"bad status byte {status:#04x} in track at {offset:#x}")
    need = 1 if kind in (0xC0, 0xD0) else 2
    data = chunk[pos:pos + need]
    if len(data) < need:
        raise truncated
    for at, byte in enumerate(data, pos):
        if byte >= 0x80:
            raise NotSmf(f"data byte {byte:#04x} at {offset + at:#x} is not below 0x80")
    if kind == 0xB0:
        raise UnmappableEvent(f"controller {data[0]} is outside the score profile")
    raise UnmappableEvent(f"event {status:#04x} is outside the score profile")


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


def _read_tracks(data: bytes, tracks) -> tuple[tuple, list, int]:
    """The channel events of the voice tracks, track by track, as (tick,
    kind, data 1, data 2) arrays, kind 0x80 (note off, data 2 0), 0x90 (note
    on) or 0xB0 (controller); the number in each voice track; and the tick
    of the last end of track in any track."""
    buf, index = byte_buffer(data)
    limit = np.arange(len(data) + 1, dtype=index)
    for chunk, offset in tracks:
        limit[offset:offset + len(chunk)] = offset + len(chunk)
    sizes = _vlq_sizes(buf)
    step = _steps(buf, sizes, limit)
    del limit           # 4 bytes a file byte that the walk does not read
    chains, stops = walk(step, [offset for _chunk, offset in tracks])
    counts, at = [len(chain) for chain in chains], np.concatenate(chains)
    del step, chains
    begin = np.repeat(np.cumsum(counts) - counts, counts)    # the track's first event

    size = sizes.take(at)
    delta = _vlq_value(buf, at, size)
    tick = np.cumsum(delta)
    tick -= (tick - delta).take(begin)
    q = at + size
    first = buf.take(q)
    meta = first == 0xFF
    channel = ~meta
    status = channel & (first >= 0x80)
    # The status each event runs under: the last status at or before it in its track.
    running_status = held(status | (begin == np.arange(len(at))), np.where(status, first, 0))[1:]
    kind = running_status & 0xF0
    d1_at = q + (first >= 0x80)             # for a meta, its type
    d1, d2 = buf.take(d1_at), buf.take(d1_at + 1)
    end_of_track = meta & (d1 == 0x2F)
    # the rules about what a channel event holds, then a tempo is 500000
    bad = channel & ((running_status == 0) | (d1 >= 0x80) | (d2 >= 0x80)
                     | (kind == 0xB0) & (d1 != CC_EXPRESSION) & (d1 != CC_TIMBRE))
    tempo = np.flatnonzero(meta & (d1 == 0x51))
    start, end, _sized = _meta_payloads(buf, sizes, q.take(tempo))
    # its last 3 payload bytes, after only zeros; walked payloads are disjoint, in order
    right = (end - start >= 3) & (buf[end[:, None] - [3, 2, 1]] == _TEMPO_BYTES).all(1)
    long = end - start > 3
    spans = np.stack((start, end - 3), 1)[long].ravel()
    right[long] &= np.bitwise_or.reduceat(buf, spans)[::2] == 0
    bad[tempo] |= ~right

    end_tick = 0
    bounds = np.cumsum([0, *counts]).tolist()
    for t, (chunk, offset) in enumerate(tracks):
        a, b = bounds[t], bounds[t + 1]
        if bad[a:b].any():
            i = a + int(bad[a:b].argmax())
            _reject_event(chunk, offset, int(at[i]) - offset, int(running_status[i]) or None)
        if stops[t] != offset + len(chunk):
            before = int(running_status[b - 1]) if b > a else 0
            _reject_event(chunk, offset, stops[t] - offset, before or None)
        ends = np.flatnonzero(end_of_track[a:b])
        if not len(ends):
            raise NotSmf(f"track at {offset:#x} missing end-of-track meta")
        if t == 0 and channel[a:b].any():
            raise UnmappableEvent("tempo track must not carry channel events")
        end_tick = max(end_tick, int(tick[a + ends[-1]]))

    off = (kind == 0x80) | (kind == 0x90) & (d2 == 0)
    voices = np.flatnonzero(channel[bounds[1]:]) + bounds[1]
    events = tick, np.where(off, 0x80, kind), d1, np.where(off, 0, d2)
    counts = [int(np.count_nonzero(channel[a:b])) for a, b in zip(bounds[1:], bounds[2:])]
    return tuple(column.take(voices) for column in events), counts, end_tick


def _first_frames(tick: np.ndarray, rate_hz: float) -> np.ndarray:
    """The first frame k whose tick, ``_frame_tick(k)``, is at or after each tick."""
    tick = np.minimum(tick, MAX_TOTAL_SAMPLES + 1)      # after every frame
    # an estimate within one frame of the answer, which one comparison each way settles
    k = np.maximum(np.ceil((tick - 0.5) * rate_hz / SAMPLE_RATE), 0).astype(np.int64)
    k -= (k > 0) & (_frame_tick(k - 1, rate_hz) >= tick)
    k += _frame_tick(k, rate_hz) < tick
    return k


def _voice_frames(frames: np.ndarray, columns: tuple, first: np.ndarray, fields) -> None:
    """Fill a voice's ``columns`` of ``frames`` from its events, ``first``
    the first frame each reaches and ``fields`` the (mask, values) of the
    events that set each column's field: frame k holds the value each field
    was last set to by an event that reaches it, or 0 while the note is 0."""
    first = first[:first.searchsorted(len(frames))]
    if not len(first):
        return
    # the run of frames from each distinct first frame holds the state after
    # the last event that reaches it
    opens = np.flatnonzero(run_starts(first))
    starts, ends = first.take(opens), np.append(opens[1:], len(first))
    state = np.stack([held(mask[:len(first)], values[:len(first)]).take(ends)
                      for mask, values in fields], axis=1).astype(np.int16)
    state *= state[:, :1] > 0
    frames[starts[0]:, columns] = state.repeat(np.append(starts[1:], len(frames)) - starts, 0)


def midi_to_score(data: bytes, rate_hz: float) -> ExpressiveScore:
    """Inverse of score_to_midi up to frame quantization at rate_hz.

    A frame ``validate`` rejects is an UnmappableEvent naming the frame and
    its track (1-4 for P1, P2, TR, NO; track 0 holds the tempo).
    """
    fmt, division, tracks = _chunks(data)
    if fmt != 1:
        raise UnmappableEvent(f"format {fmt}; profile requires 1")
    if division != PPQ:
        raise UnmappableEvent(f"division {division}; profile requires {PPQ}")
    if len(tracks) != 5:
        raise UnmappableEvent(f"expected 5 tracks (tempo + 4 voices), got {len(tracks)}")
    (tick, kind, d1, d2), counts, end_tick = _read_tracks(data, tracks)

    # One frame, and then the frames the file is read into, must fit in a stream.
    rate = check_rate(rate_hz, 1)
    if end_tick > MAX_TOTAL_SAMPLES:   # one tick is one sample
        raise UnmappableEvent(f"end of track at tick {end_tick}, past the "
                              f"{MAX_TOTAL_SAMPLES} samples a stream can span")
    n_frames = round(end_tick * rate / SAMPLE_RATE)
    check_rate(rate, n_frames)
    frames = np.zeros((n_frames, 10), np.int16)
    first = _first_frames(tick, rate)
    control = kind == 0xB0
    fields = [(~control, d1 * (kind == 0x90)),
              ((kind == 0x90) | control & (d1 == CC_EXPRESSION), _VELOCITY_OF.take(d2)),
              (control & (d1 == CC_TIMBRE), d2)]
    edges = np.cumsum([0, *counts]).tolist()
    for columns, a, b in zip(VOICE_COLUMNS.values(), edges, edges[1:]):
        _voice_frames(frames, columns, first[a:b],
                      [(mask[a:b], values[a:b]) for mask, values in fields[:len(columns)]])
    return ExpressiveScore._adopt(rate, frames, lambda d: UnmappableEvent(
        f"frame {d.frame_index}, track {VOICES.index(d.voice) + 1}: {d.voice} {d.message}"))
