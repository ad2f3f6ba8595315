"""The per-frame score writers that the change masks and the block layout replaced.

Kept as the references the writer tests compare against: ``score_to_writes``
steps through the frames carrying the previous frame, the enable mask and
which sweep units are set up, ``score_to_midi`` collects each voice's events
per frame with a (tick, priority) key and sorts every track by it, and
``write_score_text`` formats one line per frame.
"""

import struct

import numpy as np

from nesscore import apu
from nesscore.midi import CC_EXPRESSION, CC_TIMBRE, PPQ, TEMPO_USPQ, velocity_to_midi
from nesscore.score import (
    NOISE_NOTE_MAX,
    VELOCITY_MAX,
    VOICE_COLUMNS,
    VOICES,
    ExpressiveFrame,
    ExpressiveScore,
    _format_rate,
    check_frames,
    check_rate,
    frame_sample_index,
)
from nesscore.vgm import TimedWrite, TimedWriteStream
from reference_frames import frame_tick

_LENGTH_LOAD_MAX = 1 << 3   # length table index 1 = 254, the largest entry


def score_to_writes(score: ExpressiveScore) -> TimedWriteStream:
    """Schedule the register writes that realize a score on the APU.

    Pulses run in constant-volume mode with the length halt bit set, so a
    note sustains until the enable mask drops it; $4003/$4007 are written
    only when the note changes, keeping pure velocity/timbre updates free of
    phase-reset clicks.  Triangle onsets are followed by a $4017 write whose
    immediate sequencer clock loads the linear counter within the same
    sample.  Sweep units get negate-mode setup ($4001/$4005 = 0x08) before
    first use so low notes are not force-muted by the target-overflow rule.
    Raises ValueError for a rate or length ``check_rate`` rejects, or naming
    the first frame ``validate`` rejects, and NoteOutOfRange naming the frame
    and voice of a pulse note 32, which no 11-bit timer sounds.
    """
    check_rate(score.rate_hz, len(score))
    check_frames(score)
    frames = score.frames
    writes: list[TimedWrite] = []
    # Frame k's writes land on its sample; the one past the last frame ends the stream.
    *starts, total = frame_sample_index(np.arange(len(frames) + 1), score.rate_hz).tolist()

    def emit(sample, reg, value):
        writes.append(TimedWrite(sample, reg, value))

    prev = ExpressiveFrame()
    prev_mask = None
    sweep_ready = [False, False]
    for k, (s, f) in enumerate(zip(starts, frames)):
        mask = ((f.p1_note > 0) | ((f.p2_note > 0) << 1)
                | ((f.tr_note > 0) << 2) | ((f.no_note > 0) << 3))
        if mask != prev_mask:
            emit(s, 0x4015, mask)
            prev_mask = mask

        for i, (note, vel, timbre, old) in enumerate((
            (f.p1_note, f.p1_vel, f.p1_timbre, (prev.p1_note, prev.p1_vel, prev.p1_timbre)),
            (f.p2_note, f.p2_vel, f.p2_timbre, (prev.p2_note, prev.p2_vel, prev.p2_timbre)),
        )):
            base = 0x4000 + 4 * i
            if note == 0:
                continue
            if not sweep_ready[i]:
                emit(s, base + 1, 0x08)
                sweep_ready[i] = True
            control = (timbre << 6) | 0x30 | vel
            if note != old[0]:
                try:
                    timer = apu.midi_to_timer(note, "pulse")
                except apu.NoteOutOfRange as exc:
                    raise apu.NoteOutOfRange(f"frame {k}: {VOICES[i]} {exc}") from None
                emit(s, base + 0, control)
                emit(s, base + 2, timer & 0xFF)
                emit(s, base + 3, _LENGTH_LOAD_MAX | (timer >> 8))
            elif (vel, timbre) != old[1:]:
                emit(s, base + 0, control)

        tr_onset = False
        if f.tr_note > 0 and f.tr_note != prev.tr_note:
            timer = apu.midi_to_timer(f.tr_note, "triangle")
            emit(s, 0x4008, 0xFF)
            emit(s, 0x400A, timer & 0xFF)
            emit(s, 0x400B, _LENGTH_LOAD_MAX | (timer >> 8))
            tr_onset = prev.tr_note == 0
        elif f.tr_note == 0 and prev.tr_note > 0:
            emit(s, 0x4008, 0x80)

        if f.no_note > 0:
            onset = f.no_note != prev.no_note
            if onset or f.no_vel != prev.no_vel:
                emit(s, 0x400C, 0x30 | f.no_vel)
            if onset or f.no_timbre != prev.no_timbre:
                emit(s, 0x400E, (f.no_timbre << 7) | (NOISE_NOTE_MAX - f.no_note))
            if onset:
                emit(s, 0x400F, _LENGTH_LOAD_MAX)

        if tr_onset:
            # immediate 5-step clock reloads the linear counter at this sample
            emit(s, 0x4017, 0x80)
        prev = f

    if not frames:
        emit(0, 0x4015, 0x00)
    return TimedWriteStream(writes=writes, total_samples=total)


_EV_NOTE_OFF = 0
_EV_CONTROL = 1
_EV_NOTE_ON = 2


def _vlq(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def _delta(ticks: int) -> bytes:
    """A delta as VLQs of at most 4 bytes: empty text metas carry 0x0FFFFFFF
    ticks each of a longer one."""
    out = b""
    while ticks > 0x0FFFFFFF:
        out += _vlq(0x0FFFFFFF) + b"\xff\x01\x00"
        ticks -= 0x0FFFFFFF
    return out + _vlq(ticks)


def _encode_track(events: list[tuple[int, int, bytes]], end_tick: int) -> bytes:
    events = sorted(events, key=lambda e: (e[0], e[1]))
    data = bytearray()
    last = 0
    for tick, _prio, payload in events:
        data += _delta(tick - last)
        data += payload
        last = tick
    data += _delta(end_tick - last)
    data += b"\xff\x2f\x00"   # end of track
    return bytes(data)


def _voice_events(frames: list[list[int]], ch: int,
                  ticks: list[int]) -> list[tuple[int, int, bytes]]:
    # a voice without velocity and timbre columns (the triangle) sounds at full velocity
    note_column, *dynamics = VOICE_COLUMNS[VOICES[ch]]
    events: list[tuple[int, int, bytes]] = []
    note = vel = timbre = 0
    for tick, frame in zip(ticks, frames):
        n = frame[note_column]
        v, t = ((frame[dynamics[0]], frame[dynamics[1]]) if dynamics
                else (VELOCITY_MAX if n else 0, 0))
        if n != note:
            if note:
                events.append((tick, _EV_NOTE_OFF, bytes((0x80 | ch, note, 0))))
            if n:
                if dynamics:
                    events.append((tick, _EV_CONTROL, bytes((0xB0 | ch, CC_TIMBRE, t))))
                events.append((tick, _EV_NOTE_ON, bytes((0x90 | ch, n, velocity_to_midi(v)))))
        elif n:
            if v != vel:
                events.append((tick, _EV_CONTROL,
                               bytes((0xB0 | ch, CC_EXPRESSION, velocity_to_midi(v)))))
            if t != timbre:
                events.append((tick, _EV_CONTROL, bytes((0xB0 | ch, CC_TIMBRE, t))))
        note, vel, timbre = n, v, t
    if note:
        events.append((ticks[-1], _EV_NOTE_OFF, bytes((0x80 | ch, note, 0))))
    return events


def score_to_midi(score: ExpressiveScore) -> bytes:
    """Serialize as an SMF type-1 file: tempo track + four voice tracks.

    Raises ValueError for a rate or length ``check_rate`` rejects, or naming
    the first frame ``validate`` rejects.
    """
    check_rate(score.rate_hz, len(score))
    check_frames(score)
    frames = score.to_array().tolist()
    ticks = [frame_tick(k, score.rate_hz) for k in range(len(frames) + 1)]
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


_FRAME_LINE = " ".join(["%d"] * 10)


def write_score_text(score: ExpressiveScore) -> bytes:
    """NESSCORE text of a score; ValueError for a rate or length ``check_rate``
    rejects, or naming the first frame ``validate`` rejects."""
    check_rate(score.rate_hz, len(score))
    check_frames(score)
    lines = [f"NESSCORE 1 {_format_rate(score.rate_hz)} {len(score)}"]
    lines.extend(_FRAME_LINE % tuple(row) for row in score.to_array().tolist())
    return ("\n".join(lines) + "\n").encode("utf-8")
