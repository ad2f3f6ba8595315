"""Register-accurate state machine for the 2A03's four scored voices.

Tracks exactly the state that determines what a voice contributes to a
score frame or to the audio: duty/volume/envelope, sweep, length and linear
counters, noise mode and period.

``replay`` runs a timed write stream against this state, clocking the frame
sequencer at its ~240 Hz cadence.  It cuts the stream into segments of
constant state and returns one integer row per segment: the parameters each
voice sounds with (see ``ROW_FIELDS``).  A channel's part of the row is
recomputed only after a write to its registers or a sequencer clock that
changed something the row reads; the clock methods report that.  Both
consumers read the same rows: ``extract_timeline`` turns them into
expressive frames with whole-array gathers and keeps the rows where the
frame changes, and ``synth.render_writes`` drives its oscillators from them.

No audio is produced here; waveform generation lives in ``synth``.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .score import (
    SAMPLE_RATE,
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

    Raises NoteOutOfRange when the note is outside the voice's range or has
    no timer value that round-trips.  Pulse MIDI 32 is the one such note: it
    is in the score alphabet (the paper's 4621 pulse states count it), but
    its ideal period exceeds 11 bits and the nearest timer, 0x7FF, sounds as
    note 33, which would break the exact round trip, so ``score_to_writes``
    refuses it, naming the frame.
    """
    table = _table_for(kind)
    if not table.lo <= note <= table.hi:
        raise NoteOutOfRange(f"note {note} outside [{table.lo},{table.hi}] for {kind}")
    if note not in table.timers:
        raise NoteOutOfRange(f"note {note} not representable by an 11-bit {kind} timer")
    return table.timers[note]


# ---------------------------------------------------------------------------
# stream replay

# A replay row: per pulse the timer period, the duty and the output volume
# (0 unless the channel sounds); the triangle's timer period (-1 unless it
# sounds); the noise period index, mode and output volume (0 unless it
# sounds); and the pulses whose phase a $4003/$4007 write reset (1 pulse 1,
# 2 pulse 2).
ROW_FIELDS = ("p1_timer", "p1_duty", "p1_volume", "p2_timer", "p2_duty", "p2_volume",
              "tr_timer", "no_period", "no_mode", "no_volume", "phase_reset")

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
    """Replay a write stream; return its segment starts and one row per segment.

    The starts are an int64 array; segment i spans [starts[i], starts[i + 1])
    and the last one ends at ``total_samples``.  The rows are an (n, 11)
    int32 array laid out as ``ROW_FIELDS``: what each segment sounds with,
    after the writes and the sequencer tick at its start.  A $4017 write
    restarts the sequencer phase and, in 5-step mode, clocks quarter+half
    immediately.  Tick k after a restart at sample b lands on
    b + int(k * _TICK_SAMPLES).

    Raises BadWriteOffset for a write whose offset is below that of an
    earlier write, or beyond ``total_samples`` (a write exactly at the end
    is legal and has no effect).
    """
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
            if next_write < cur:
                raise BadWriteOffset(wi, next_write, f"is before sample {cur}")
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
            next_write = writes[wi].sample_offset if wi < n else total
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
    for i in range(wi, n):      # writes at the very end are never applied
        offset = writes[i].sample_offset
        if offset < cur:
            raise BadWriteOffset(i, offset, f"is before sample {cur}")
        if offset > total:
            raise BadWriteOffset(i, offset, f"is beyond the stream end at sample {total}")
    table = np.array(rows, np.int32).reshape(-1, len(ROW_FIELDS))
    held = np.diff(np.array(row_firsts + [len(starts)], np.int64))
    return np.array(starts, np.int64), np.repeat(table, held, axis=0)


def iter_segments(stream: TimedWriteStream) -> Iterator[tuple[int, int, list]]:
    """(start, end, row) of each replay segment, the row a list as in ``replay``.

    The whole stream is replayed first, so a bad write offset raises here.
    """
    starts, rows = replay(stream)
    ends = starts[1:].tolist() + [int(stream.total_samples)]
    return zip(starts.tolist(), ends, rows.tolist())


# Note of each 11-bit timer period, 0 where the voice has none in range.
_PULSE_NOTE_ARRAY = np.array([note or 0 for note in _PULSE_NOTES], np.int16)
_TRIANGLE_NOTE_ARRAY = np.array([note or 0 for note in _TRIANGLE_NOTES], np.int16)


def frame_table(rows: np.ndarray) -> np.ndarray:
    """The expressive frames, shape (n, 10) int16, of n replay rows.

    A voice that does not sound, or whose pitch is out of range, gives the
    canonical (0, 0, 0) so the frame alphabets stay closed.  Noise notes run
    the other way from period indices: a faster shift clock is brighter.
    """
    frames = np.zeros((len(rows), 10), np.int16)
    for first, timer, duty, volume in ((0, 0, 1, 2), (3, 3, 4, 5)):
        note = _PULSE_NOTE_ARRAY.take(rows[:, timer])
        on = (note > 0) & (rows[:, volume] > 0)
        frames[:, first] = note * on
        frames[:, first + 1] = rows[:, volume] * on
        frames[:, first + 2] = rows[:, duty] * on
    timer = rows[:, 6]
    frames[:, 6] = _TRIANGLE_NOTE_ARRAY.take(timer) * (timer >= 0)
    on = rows[:, 9] > 0
    frames[:, 7] = (NOISE_NOTE_MAX - rows[:, 7]) * on
    frames[:, 8] = rows[:, 9]
    frames[:, 9] = rows[:, 8] * on
    return frames


@dataclass(eq=False)
class Timeline:
    """Change points of a 44.1 kHz frame function over [0, total); SILENCE before the first.

    Change i starts at sample ``starts[i]`` (int64, increasing) and holds
    frame ``frames[i]`` ((n, 10) int16, in frame-field order).
    """

    total_samples: int
    starts: np.ndarray
    frames: np.ndarray

    @property
    def changes(self) -> list[tuple[int, ExpressiveFrame]]:
        """The change points as (start, ExpressiveFrame) pairs."""
        frames = map(tuple.__new__, itertools.repeat(ExpressiveFrame), self.frames.tolist())
        return list(zip(self.starts.tolist(), frames))


def extract_timeline(stream: TimedWriteStream) -> Timeline:
    """Replay writes against a fresh APU and keep the segments that change the frame."""
    starts, rows = replay(stream)
    if not len(starts):             # an empty stream is silent from sample 0
        starts, rows = np.zeros(1, np.int64), np.zeros((1, len(ROW_FIELDS)), np.int32)
    frames = frame_table(rows)
    keep = np.concatenate(([True], np.diff(frames, axis=0).any(axis=1)))
    return Timeline(int(stream.total_samples), starts[keep], frames[keep])
