"""Register-accurate state machine for the 2A03's four scored voices.

Tracks exactly the state that determines what a voice contributes to a
score frame: duty/volume/envelope, sweep, length and linear counters, noise
mode and period.  ``extract_timeline`` replays a timed write stream against
this state, clocking the frame sequencer at its ~240 Hz cadence, and records
the (note, velocity, timbre) snapshot wherever it changes.

No audio is produced here; waveform generation lives in ``synth``.
"""

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from .score import (
    SAMPLE_RATE,
    SILENCE,
    ExpressiveFrame,
    NOISE_NOTE_MAX,
    PULSE_NOTE_MIN,
    PULSE_NOTE_MAX,
    TRIANGLE_NOTE_MIN,
    TRIANGLE_NOTE_MAX,
)
from .vgm import NES_APU_CLOCK_HZ as CPU_HZ, TimedWriteStream

# Length counter values indexed by the 5-bit load field of $4003/$400B/$400F.
LENGTH_TABLE = (
    10, 254, 20, 2, 40, 4, 80, 6, 160, 8, 60, 10, 14, 12, 26, 14,
    12, 16, 24, 18, 48, 20, 96, 22, 192, 24, 72, 26, 16, 28, 32, 30,
)

# Frame sequencer ticks land every 7457.5 CPU cycles; expressed in samples.
_TICK_SAMPLES = 7457.5 * SAMPLE_RATE / CPU_HZ


class RegisterOutOfRange(ValueError):
    """Write addressed outside $4000-$4017."""


class BadWriteOffset(ValueError):
    """A write offset that breaks the stream's order or lies past its end."""

    def __init__(self, index: int, sample_offset: int, problem: str):
        super().__init__(f"write {index} at sample {sample_offset} {problem}")
        self.index = index
        self.sample_offset = sample_offset


class NoteOutOfRange(ValueError):
    """MIDI note not representable on the requested oscillator."""


@dataclass
class Envelope:
    start: bool = False
    divider: int = 0
    decay_level: int = 0

    def clock(self, period: int, loop: bool) -> None:
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


@dataclass
class Sweep:
    enabled: bool = False
    period: int = 0
    negate: bool = False
    shift: int = 0
    reload: bool = False
    divider: int = 0


@dataclass
class PulseChannelState:
    duty: int = 0
    length_halt: bool = False       # shared bit: halts length, loops envelope
    constant_volume: bool = False
    volume: int = 0                 # constant level, doubles as envelope period
    sweep: Sweep = field(default_factory=Sweep)
    timer_period: int = 0
    length_counter: int = 0
    envelope: Envelope = field(default_factory=Envelope)
    enabled: bool = False
    ones_complement_sweep: bool = False  # pulse 1 negates with an extra -1

    def output_volume(self) -> int:
        return self.volume if self.constant_volume else self.envelope.decay_level

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

    def clock_sweep(self) -> None:
        s = self.sweep
        if s.divider == 0 and s.enabled and s.shift > 0 and not self.sweep_muted():
            self.timer_period = max(self.sweep_target(), 0)
        if s.divider == 0 or s.reload:
            s.divider = s.period
            s.reload = False
        else:
            s.divider -= 1

    def clock_length(self) -> None:
        if not self.length_halt and self.length_counter > 0:
            self.length_counter -= 1


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

    def clock_linear(self) -> None:
        if self.linear_reload:
            self.linear_counter = self.linear_reload_value
        elif self.linear_counter > 0:
            self.linear_counter -= 1
        if not self.linear_control:
            self.linear_reload = False

    def clock_length(self) -> None:
        if not self.linear_control and self.length_counter > 0:
            self.length_counter -= 1


@dataclass
class NoiseChannelState:
    mode: int = 0
    period_index: int = 0
    length_halt: bool = False
    constant_volume: bool = False
    volume: int = 0
    length_counter: int = 0
    envelope: Envelope = field(default_factory=Envelope)
    enabled: bool = False

    def output_volume(self) -> int:
        return self.volume if self.constant_volume else self.envelope.decay_level

    def sounding(self) -> bool:
        # the LFSR only advances while this holds
        return self.enabled and self.length_counter > 0 and self.output_volume() > 0

    def clock_length(self) -> None:
        if not self.length_halt and self.length_counter > 0:
            self.length_counter -= 1


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

    def write(self, register: int, value: int) -> None:
        if not 0x4000 <= register <= 0x4017:
            raise RegisterOutOfRange(f"register {register:#06x} outside $4000-$4017")
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
            self.p1.enabled = bool(value & 0x01)
            self.p2.enabled = bool(value & 0x02)
            self.tr.enabled = bool(value & 0x04)
            self.no.enabled = bool(value & 0x08)
            if not self.p1.enabled:
                self.p1.length_counter = 0
            if not self.p2.enabled:
                self.p2.length_counter = 0
            if not self.tr.enabled:
                self.tr.length_counter = 0
            if not self.no.enabled:
                self.no.length_counter = 0
        elif reg == 0x17:
            self.frame_mode = 5 if value & 0x80 else 4
        # 0x09, 0x0D, 0x10-0x14 (sampler), 0x16: no-ops

    # -- frame sequencer ticks ----------------------------------------------

    def quarter_tick(self) -> None:
        self.p1.envelope.clock(self.p1.volume, self.p1.length_halt)
        self.p2.envelope.clock(self.p2.volume, self.p2.length_halt)
        self.no.envelope.clock(self.no.volume, self.no.length_halt)
        self.tr.clock_linear()

    def half_tick(self) -> None:
        self.quarter_tick()
        self.p1.clock_length()
        self.p1.clock_sweep()
        self.p2.clock_length()
        self.p2.clock_sweep()
        self.tr.clock_length()
        self.no.clock_length()


# ---------------------------------------------------------------------------
# pitch mapping

class _PitchTable(NamedTuple):
    lo: int
    hi: int
    notes: list     # note of each 11-bit timer period, None outside [lo, hi]
    timers: dict    # note -> the timer period midi_to_timer returns for it


def _pitch_table(divisor: int, lo: int, hi: int) -> _PitchTable:
    notes = []
    for t in range(0x800):
        freq = CPU_HZ / (divisor * (t + 1))
        note = round(69 + 12 * math.log2(freq / 440.0))
        notes.append(note if lo <= note <= hi else None)
    timers = {}
    for note in range(lo, hi + 1):
        freq = 440.0 * 2.0 ** ((note - 69) / 12)
        t0 = round(CPU_HZ / (divisor * freq) - 1)
        for t in (t0, t0 - 1, t0 + 1, t0 - 2, t0 + 2):
            if 0 <= t <= 0x7FF and notes[t] == note:
                timers[note] = t
                break
    return _PitchTable(lo, hi, notes, timers)


# Built at import, in about 2 ms.
_PITCH_TABLES = {
    "pulse": _pitch_table(16, PULSE_NOTE_MIN, PULSE_NOTE_MAX),
    "triangle": _pitch_table(32, TRIANGLE_NOTE_MIN, TRIANGLE_NOTE_MAX),
}
_PULSE_NOTES = _PITCH_TABLES["pulse"].notes
_TRIANGLE_NOTES = _PITCH_TABLES["triangle"].notes


def _table_for(kind: str) -> _PitchTable:
    try:
        return _PITCH_TABLES[kind]
    except KeyError:
        raise ValueError(f"kind must be 'pulse' or 'triangle', got {kind!r}") from None


def pitch_to_midi(timer_period: int, kind: str) -> int | None:
    """MIDI note sounded by an 11-bit timer period, or None if out of range.

    f = 1789773 / (16*(t+1)) for pulse, /(32*(t+1)) for triangle;
    note = round(69 + 12*log2(f/440)), read from a table built at import.
    Raises ValueError for a period outside 11 bits.
    """
    notes = _table_for(kind).notes
    if not 0 <= timer_period <= 0x7FF:
        raise ValueError(f"timer period {timer_period} outside [0,2047]")
    return notes[timer_period]


def midi_to_timer(note: int, kind: str) -> int:
    """Timer period whose pitch maps back to exactly this note.

    Raises NoteOutOfRange when the note is outside the voice's range or (as
    for pulse MIDI 32, whose ideal period exceeds 11 bits) has no timer value
    that round-trips.
    """
    table = _table_for(kind)
    if not table.lo <= note <= table.hi:
        raise NoteOutOfRange(f"note {note} outside [{table.lo},{table.hi}] for {kind}")
    if note not in table.timers:
        raise NoteOutOfRange(f"note {note} not representable by an 11-bit {kind} timer")
    return table.timers[note]


# ---------------------------------------------------------------------------
# snapshots

def _pulse_fields(ch: PulseChannelState) -> tuple[int, int, int]:
    note = _PULSE_NOTES[ch.timer_period] if ch.sounding() else None
    return (0, 0, 0) if note is None else (note, ch.output_volume(), ch.duty)


def snapshot(state: ApuState) -> ExpressiveFrame:
    """Project the register state onto one expressive frame.

    Silent channels (disabled, expired, muted or out of range) give the
    canonical (0, 0, 0) so the frame alphabets stay closed.
    """
    p1 = _pulse_fields(state.p1)
    p2 = _pulse_fields(state.p2)

    tr = state.tr
    tr_note = (_TRIANGLE_NOTES[tr.timer_period] or 0) if tr.sounding() else 0

    no = state.no
    no_fields = (0, 0, 0)
    if no.sounding():
        # smaller period index = faster shift clock = brighter noise
        no_fields = (NOISE_NOTE_MAX - no.period_index, no.output_volume(), no.mode)

    return ExpressiveFrame(*p1, *p2, tr_note, *no_fields)


# ---------------------------------------------------------------------------
# stream replay

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
        # step 4 of the 5-step pattern is silent


def iter_segments(stream: TimedWriteStream) -> Iterator[tuple[int, int, ApuState, list]]:
    """Replay a write stream, yielding (start, end, state, writes) spans.

    Within each span [start, end) the register state is constant; ``writes``
    lists the (register, value) pairs applied at ``start`` (the renderer
    watches them for phase resets).  A $4017 write restarts the sequencer
    phase and, in 5-step mode, clocks quarter+half immediately.  Tick k after
    a restart at sample b lands on b + int(k * _TICK_SAMPLES); each tick
    time is computed once, when the previous tick has passed.

    Raises BadWriteOffset for a write whose offset is below that of an
    earlier write, or beyond ``total_samples`` (a write exactly at the end
    is legal and has no effect).  The yielded state object is live: consume
    it before advancing.
    """
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
            state.write(register, value)
            applied.append((register, value))
            if register == 0x4017:
                tick_base, tick_index = cur, 1
                next_tick = cur + int(_TICK_SAMPLES)
                if value & 0x80:
                    state.half_tick()
            wi += 1
            next_write = writes[wi].sample_offset if wi < n else total
        # Segments end at every tick, so the next one is never behind cur.
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


@dataclass
class Timeline:
    """Change points of a 44.1 kHz frame function over [0, total); SILENCE before the first."""

    total_samples: int
    changes: list[tuple[int, ExpressiveFrame]]


def extract_timeline(stream: TimedWriteStream) -> Timeline:
    """Replay writes against a fresh APU and record snapshot change points."""
    changes: list[tuple[int, ExpressiveFrame]] = []
    last = None
    for start, _end, state, _writes in iter_segments(stream):
        frame = snapshot(state)
        if frame != last:
            changes.append((start, frame))
            last = frame
    if not changes:
        changes.append((0, SILENCE))
    return Timeline(int(stream.total_samples), changes)
