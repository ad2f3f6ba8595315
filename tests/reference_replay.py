"""The register-state replays that the array replay and the replay table replaced.

Kept as the references the replay and extraction tests compare against.
``ApuState`` is the 2A03's register state machine: per write one
``ApuState.write``, per sequencer tick a quarter or half clock of the
envelopes, sweeps and length and linear counters.  ``replay`` is the loop
that stepped it through a stream and built one row per segment, recomputing
a channel's part of the row only after a write or clock that the
``_WRITE_DIRTY`` table and the clock methods report; ``apu.replay`` must
return the same starts and rows.  ``iter_segments`` and ``timeline_changes``
are the older per-segment replay: they project the whole state onto an
ExpressiveFrame after every segment with ``snapshot`` (asking each channel
whether it sounds) and keep the frames that differ from the one before.
Their stream checks are this module's own, made as each write is reached,
so they are independent of ``vgm.check_stream``.
"""

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from nesscore.apu import _TICK_SAMPLES, CPU_HZ, LENGTH_TABLE, ROW_FIELDS
from nesscore.score import NOISE_NOTE_MAX, ExpressiveFrame
from nesscore.vgm import BadWriteOffset, RegisterOutOfRange, TimedWriteStream, check_stream

@dataclass
class Envelope:
    start: bool = False
    divider: int = 0
    decay_level: int = 0

    def clock(self, period: int, loop: bool) -> bool:
        """One quarter-frame clock; True when it changed ``decay_level``."""
        before = self.decay_level
        if self.start:
            self.start = False
            self.decay_level = 15
            self.divider = period
        elif self.divider > 0:
            self.divider -= 1
        else:
            self.divider = period
            if self.decay_level > 0:
                self.decay_level -= 1
            elif loop:
                self.decay_level = 15
        return self.decay_level != before


@dataclass
class Sweep:
    enabled: bool = False
    period: int = 0
    negate: bool = False
    shift: int = 0
    reload: bool = False
    divider: int = 0


@dataclass
class _EnvelopeChannel:
    """The volume, envelope and length counter the pulses and the noise share."""

    length_halt: bool = False       # shared bit: halts length, loops envelope
    constant_volume: bool = False
    volume: int = 0                 # constant level, doubles as envelope period
    length_counter: int = 0
    envelope: Envelope = field(default_factory=Envelope)
    enabled: bool = False

    def output_volume(self) -> int:
        return self.volume if self.constant_volume else self.envelope.decay_level

    def clock_length(self) -> bool:
        """One half-frame length clock; True when the counter reached 0."""
        if not self.length_halt and self.length_counter > 0:
            self.length_counter -= 1
            return self.length_counter == 0
        return False


@dataclass
class PulseChannelState(_EnvelopeChannel):
    duty: int = 0
    sweep: Sweep = field(default_factory=Sweep)
    timer_period: int = 0
    ones_complement_sweep: bool = False  # pulse 1 negates with an extra -1

    def sounding(self) -> bool:
        return (self.enabled and self.length_counter > 0 and self.output_volume() > 0
                and not self.sweep_muted())

    def sweep_target(self) -> int:
        change = self.timer_period >> self.sweep.shift
        if not self.sweep.negate:
            return self.timer_period + change
        return self.timer_period - change - (1 if self.ones_complement_sweep else 0)

    def sweep_muted(self) -> bool:
        # The target comparison applies even with the sweep disabled.
        return self.timer_period < 8 or self.sweep_target() > 0x7FF

    def clock_sweep(self) -> bool:
        """One half-frame sweep clock; True when it changed ``timer_period``."""
        s = self.sweep
        before = self.timer_period
        if s.divider == 0 and s.enabled and s.shift > 0 and not self.sweep_muted():
            self.timer_period = max(self.sweep_target(), 0)
        if s.divider == 0 or s.reload:
            s.divider = s.period
            s.reload = False
        else:
            s.divider -= 1
        return self.timer_period != before


@dataclass
class TriangleChannelState:
    linear_control: bool = False    # halts length, keeps linear reload armed
    linear_reload_value: int = 0
    linear_counter: int = 0
    linear_reload: bool = False
    timer_period: int = 0
    length_counter: int = 0
    enabled: bool = False

    def sounding(self) -> bool:
        # a gated sequencer also freezes the waveform phase
        return (self.enabled and self.length_counter > 0 and self.linear_counter > 0
                and self.timer_period >= 2)

    def clock_linear(self) -> bool:
        """One quarter-frame clock; True when the counter went to or from 0."""
        was_zero = self.linear_counter == 0
        if self.linear_reload:
            self.linear_counter = self.linear_reload_value
        elif self.linear_counter > 0:
            self.linear_counter -= 1
        if not self.linear_control:
            self.linear_reload = False
        return was_zero != (self.linear_counter == 0)

    def clock_length(self) -> bool:
        """One half-frame length clock; True when the counter reached 0."""
        if not self.linear_control and self.length_counter > 0:
            self.length_counter -= 1
            return self.length_counter == 0
        return False


@dataclass
class NoiseChannelState(_EnvelopeChannel):
    mode: int = 0
    period_index: int = 0

    def sounding(self) -> bool:
        # the LFSR only advances while this holds
        return self.enabled and self.length_counter > 0 and self.output_volume() > 0


@dataclass
class ApuState:
    """Full register-derived state of the four scored channels."""

    p1: PulseChannelState = field(
        default_factory=lambda: PulseChannelState(ones_complement_sweep=True))
    p2: PulseChannelState = field(default_factory=PulseChannelState)
    tr: TriangleChannelState = field(default_factory=TriangleChannelState)
    no: NoiseChannelState = field(default_factory=NoiseChannelState)
    frame_mode: int = 4             # 4-step or 5-step sequencer

    # -- register writes ----------------------------------------------------

    def write(self, register: int, value: int) -> None:    # replay checks the register
        value &= 0xFF
        reg = register - 0x4000
        if reg in (0x00, 0x04):
            ch = self.p1 if reg == 0x00 else self.p2
            ch.duty = (value >> 6) & 3
            ch.length_halt = bool(value & 0x20)
            ch.constant_volume = bool(value & 0x10)
            ch.volume = value & 0x0F
        elif reg in (0x01, 0x05):
            ch = self.p1 if reg == 0x01 else self.p2
            ch.sweep.enabled = bool(value & 0x80)
            ch.sweep.period = (value >> 4) & 7
            ch.sweep.negate = bool(value & 0x08)
            ch.sweep.shift = value & 7
            ch.sweep.reload = True
        elif reg in (0x02, 0x06):
            ch = self.p1 if reg == 0x02 else self.p2
            ch.timer_period = (ch.timer_period & 0x700) | value
        elif reg in (0x03, 0x07):
            ch = self.p1 if reg == 0x03 else self.p2
            ch.timer_period = (ch.timer_period & 0xFF) | ((value & 7) << 8)
            if ch.enabled:
                ch.length_counter = LENGTH_TABLE[value >> 3]
            ch.envelope.start = True
            # the oscillator phase reset lives in the renderer
        elif reg == 0x08:
            self.tr.linear_control = bool(value & 0x80)
            self.tr.linear_reload_value = value & 0x7F
        elif reg == 0x0A:
            self.tr.timer_period = (self.tr.timer_period & 0x700) | value
        elif reg == 0x0B:
            self.tr.timer_period = (self.tr.timer_period & 0xFF) | ((value & 7) << 8)
            if self.tr.enabled:
                self.tr.length_counter = LENGTH_TABLE[value >> 3]
            self.tr.linear_reload = True
        elif reg == 0x0C:
            self.no.length_halt = bool(value & 0x20)
            self.no.constant_volume = bool(value & 0x10)
            self.no.volume = value & 0x0F
        elif reg == 0x0E:
            self.no.mode = (value >> 7) & 1
            self.no.period_index = value & 0x0F
        elif reg == 0x0F:
            if self.no.enabled:
                self.no.length_counter = LENGTH_TABLE[value >> 3]
            self.no.envelope.start = True
        elif reg == 0x15:
            for bit, ch in enumerate((self.p1, self.p2, self.tr, self.no)):
                ch.enabled = bool(value >> bit & 1)
                if not ch.enabled:
                    ch.length_counter = 0
        elif reg == 0x17:
            self.frame_mode = 5 if value & 0x80 else 4
        # 0x09, 0x0D, 0x10-0x14 (sampler), 0x16: no-ops

    # -- frame sequencer ticks ----------------------------------------------

    def quarter_tick(self) -> int:
        """Clock the envelopes and the linear counter.

        Returns the channels whose replay row the clock may have changed, as
        a mask: 1 pulse 1, 2 pulse 2, 4 triangle, 8 noise.  A decay step
        counts only for a channel that plays its envelope.
        """
        p1, p2, no = self.p1, self.p2, self.no
        dirty = 0
        if p1.envelope.clock(p1.volume, p1.length_halt) and not p1.constant_volume:
            dirty = 1
        if p2.envelope.clock(p2.volume, p2.length_halt) and not p2.constant_volume:
            dirty |= 2
        if no.envelope.clock(no.volume, no.length_halt) and not no.constant_volume:
            dirty |= 8
        if self.tr.clock_linear():
            dirty |= 4
        return dirty

    def half_tick(self) -> int:
        """A quarter tick, then the length counters and sweeps; returns the mask."""
        dirty = self.quarter_tick()
        # | and not `or`: both units must clock
        if self.p1.clock_length() | self.p1.clock_sweep():
            dirty |= 1
        if self.p2.clock_length() | self.p2.clock_sweep():
            dirty |= 2
        if self.tr.clock_length():
            dirty |= 4
        if self.no.clock_length():
            dirty |= 8
        return dirty


# Channels (as in ``ApuState.quarter_tick``) whose row a write to $4000 + i
# may change; $4015 touches all four.
_WRITE_DIRTY = (1,) * 4 + (2,) * 4 + (4,) * 4 + (8,) * 4 + (0,) * 5 + (15, 0, 0)


def _pulse_row(ch: PulseChannelState) -> tuple[int, int, int]:
    return ch.timer_period, ch.duty, ch.output_volume() if ch.sounding() else 0


def _triangle_row(ch: TriangleChannelState) -> tuple[int]:
    return (ch.timer_period if ch.sounding() else -1,)


def _noise_row(ch: NoiseChannelState) -> tuple[int, int, int]:
    return ch.period_index, ch.mode, ch.output_volume() if ch.sounding() else 0


def _fire_tick(state: ApuState, index: int) -> int:
    """Clock sequencer position ``index``; returns the tick's dirty mask."""
    if state.frame_mode == 4:
        return state.half_tick() if index % 2 == 0 else state.quarter_tick()
    step = (index - 1) % 5 + 1
    if step in (2, 5):
        return state.half_tick()
    if step in (1, 3):
        return state.quarter_tick()
    return 0    # step 4 of the 5-step pattern is silent


def replay(stream: TimedWriteStream) -> tuple[np.ndarray, np.ndarray]:
    """The loop ``apu.replay`` replaced: segment starts and one row per segment.

    The starts are an int64 array; segment i spans [starts[i], starts[i + 1])
    and the last one ends at ``total_samples``.  The rows are an (n, 11)
    int32 array laid out as ``ROW_FIELDS``: what each segment sounds with,
    after the writes and the sequencer tick at its start.  A $4017 write
    restarts the sequencer phase and, in 5-step mode, clocks quarter+half
    immediately.  Tick k after a restart at sample b lands on
    b + int(k * _TICK_SAMPLES).

    Raises what ``vgm.check_stream`` raises for a stream it rejects, before
    replaying anything.  A write exactly at ``total_samples`` is legal and
    has no effect.
    """
    check_stream(stream)
    state = ApuState()
    p1, p2, tr, no = state.p1, state.p2, state.tr, state.no
    writes = stream.writes
    total = int(stream.total_samples)
    wi, n = 0, len(writes)
    next_write = writes[0].sample_offset if n else total
    tick_base, tick_index = 0, 1
    next_tick = int(_TICK_SAMPLES)
    starts: list[int] = []
    rows: list[tuple] = []          # every row built, once per run of segments
    row_firsts: list[int] = []      # that hold it, and the first of those segments
    dirty, row_reset = 15, 0        # all four dirty: the first row builds every part
    cur = 0
    while cur < total:
        reset = 0
        while next_write <= cur:
            _offset, register, value = writes[wi]
            state.write(register, value)
            dirty |= _WRITE_DIRTY[register - 0x4000]
            if register == 0x4003:
                reset |= 1
            elif register == 0x4007:
                reset |= 2
            elif register == 0x4017:
                tick_base, tick_index = cur, 1
                next_tick = cur + int(_TICK_SAMPLES)
                if value & 0x80:
                    dirty |= state.half_tick()
            wi += 1
            next_write = writes[wi][0] if wi < n else total     # [0]: faster than .sample_offset
        # Segments end at every tick, so the next one is never behind cur.
        if next_tick == cur:
            dirty |= _fire_tick(state, tick_index)
            tick_index += 1
            next_tick = tick_base + int(tick_index * _TICK_SAMPLES)
        if dirty or reset != row_reset:
            if dirty & 1:
                r1 = _pulse_row(p1)
            if dirty & 2:
                r2 = _pulse_row(p2)
            if dirty & 4:
                rt = _triangle_row(tr)
            if dirty & 8:
                rn = _noise_row(no)
            row_firsts.append(len(starts))
            rows.append(r1 + r2 + rt + rn + (reset,))
            dirty, row_reset = 0, reset
        starts.append(cur)
        cur = next_write if next_write < next_tick else next_tick
        if cur > total:
            cur = total
    table = np.array(rows, np.int32).reshape(-1, len(ROW_FIELDS))
    held = np.diff(np.array(row_firsts + [len(starts)], np.int64))
    return np.array(starts, np.int64), np.repeat(table, held, axis=0)


def _notes(divisor: int, lowest: int) -> list:
    """The note of each 11-bit timer period, None where it is outside
    [lowest, 108]: round(69 + 12 * log2(f / 440)) for f = CPU_HZ / (divisor * (t + 1))."""
    notes = (round(69 + 12 * math.log2(CPU_HZ / (divisor * (t + 1)) / 440.0))
             for t in range(0x800))
    return [n if lowest <= n <= 108 else None for n in notes]


_PULSE_NOTES = _notes(16, 32)
_TRIANGLE_NOTES = _notes(32, 21)


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
        changes.append((0, ExpressiveFrame()))
    return changes
