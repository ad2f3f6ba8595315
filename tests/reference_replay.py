"""The per-segment replay and snapshot extraction that the replay table replaced.

Kept as the reference the extraction tests compare against: it replays the
writes against the live ``ApuState``, projects the whole state onto an
ExpressiveFrame after every segment with ``snapshot`` (asking each channel
whether it sounds), and keeps the frames that differ from the one before.
The register state machine itself is the package's; the stream checks are
this module's own, made as each write is reached, so they are independent
of ``vgm.check_stream``.
"""

from typing import Iterator

from nesscore.apu import (
    _TICK_SAMPLES,
    ApuState,
    BadWriteOffset,
    PulseChannelState,
    RegisterOutOfRange,
    pitch_to_midi,
)
from nesscore.score import NOISE_NOTE_MAX, SILENCE, ExpressiveFrame
from nesscore.vgm import TimedWriteStream

# The note of each 11-bit timer period, None where it is outside the voice's range.
_PULSE_NOTES = [pitch_to_midi(t, "pulse") for t in range(0x800)]
_TRIANGLE_NOTES = [pitch_to_midi(t, "triangle") for t in range(0x800)]


def _pulse_fields(ch: PulseChannelState) -> tuple[int, int, int]:
    note = _PULSE_NOTES[ch.timer_period] if ch.sounding() else None
    return (0, 0, 0) if note is None else (note, ch.output_volume(), ch.duty)


def snapshot(state: ApuState) -> ExpressiveFrame:
    """Project the register state onto one expressive frame."""
    p1 = _pulse_fields(state.p1)
    p2 = _pulse_fields(state.p2)
    tr = state.tr
    tr_note = (_TRIANGLE_NOTES[tr.timer_period] or 0) if tr.sounding() else 0
    no = state.no
    no_fields = (0, 0, 0)
    if no.sounding():
        no_fields = (NOISE_NOTE_MAX - no.period_index, no.output_volume(), no.mode)
    return ExpressiveFrame(*p1, *p2, tr_note, *no_fields)


def _fire_tick(state: ApuState, index: int) -> None:
    if state.frame_mode == 4:
        if index % 2 == 0:
            state.half_tick()
        else:
            state.quarter_tick()
    else:
        step = (index - 1) % 5 + 1
        if step in (2, 5):
            state.half_tick()
        elif step in (1, 3):
            state.quarter_tick()


def _check_register(register: int) -> None:
    if not 0x4000 <= register <= 0x4017:
        raise RegisterOutOfRange(f"register {register:#06x} outside $4000-$4017")


def iter_segments(stream: TimedWriteStream) -> Iterator[tuple[int, int, ApuState, list]]:
    """Replay a write stream, yielding (start, end, live state, writes) spans."""
    state = ApuState()
    writes = stream.writes
    total = int(stream.total_samples)
    wi, n = 0, len(writes)
    next_write = writes[0].sample_offset if n else total
    tick_base, tick_index = 0, 1
    next_tick = int(_TICK_SAMPLES)
    cur = 0
    while cur < total:
        applied: list[tuple[int, int]] = []
        while next_write <= cur:
            if next_write < cur:
                raise BadWriteOffset(wi, next_write, f"is before sample {cur}")
            _offset, register, value = writes[wi]
            _check_register(register)
            state.write(register, value)
            applied.append((register, value))
            if register == 0x4017:
                tick_base, tick_index = cur, 1
                next_tick = cur + int(_TICK_SAMPLES)
                if value & 0x80:
                    state.half_tick()
            wi += 1
            next_write = writes[wi].sample_offset if wi < n else total
        if next_tick == cur:
            _fire_tick(state, tick_index)
            tick_index += 1
            next_tick = tick_base + int(tick_index * _TICK_SAMPLES)
        end = min(next_write, next_tick, total)
        yield cur, end, state, applied
        cur = end
    for i in range(wi, n):      # writes at the very end are never applied
        offset = writes[i].sample_offset
        if offset < cur:
            raise BadWriteOffset(i, offset, f"is before sample {cur}")
        if offset > total:
            raise BadWriteOffset(i, offset, f"is beyond the stream end at sample {total}")
        _check_register(writes[i].register)


def timeline_changes(stream: TimedWriteStream) -> list[tuple[int, ExpressiveFrame]]:
    """The (start, frame) change points ``extract_timeline`` records."""
    changes: list[tuple[int, ExpressiveFrame]] = []
    last = None
    for start, _end, state, _writes in iter_segments(stream):
        frame = snapshot(state)
        if frame != last:
            changes.append((start, frame))
            last = frame
    if not changes:
        changes.append((0, SILENCE))
    return changes
