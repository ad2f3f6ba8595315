"""Register-accurate replay of the 2A03's four scored voices, and pitch tables.

``replay`` cuts a timed write stream into segments of constant state and
returns one integer row per segment: the parameters each voice sounds with
(see ``ROW_FIELDS``), as set by duty, volume and envelope, sweep, length and
linear counters, noise mode and period, with the frame sequencer clocking
at its ~240 Hz cadence.  The rows are whole-array programs over the
stream's offset, register and value columns and the sequencer clocks
(``_Program``), with no Python object per write: a register field is its
last write, looked up once per write group (the writes at one sample) and
gathered to the segments and clocks; a length or linear counter is its
last load less the clocks since, and the envelope and sweep units have
closed forms between the few events that change them; Python steps only
over those events.
Both consumers read the same rows: ``extract_timeline`` turns them into
expressive frames with whole-array gathers and keeps the rows where the
frame changes, and ``synth.render_writes`` drives its oscillators from them.

Pitch is a table lookup both ways: ``PULSE_NOTES`` and ``TRIANGLE_NOTES``
give the note of each 11-bit timer period (0 out of range), and
``midi_to_timer`` the period that sounds a note.  Replay refuses a stream
longer than ``MAX_REPLAY_SAMPLES`` with ``ReplayTooLong`` before it
allocates.  No audio is produced here; waveform generation lives in
``synth``.
"""

import itertools
from dataclasses import dataclass
from numbers import Integral
from typing import Iterator

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
from ._arrays import held, run_starts, sorted_unique
from .vgm import NES_APU_CLOCK_HZ as CPU_HZ, TimedWriteStream, check_stream

# Length counter values indexed by the 5-bit load field of $4003/$400B/$400F.
LENGTH_TABLE = (
    10, 254, 20, 2, 40, 4, 80, 6, 160, 8, 60, 10, 14, 12, 26, 14,
    12, 16, 24, 18, 48, 20, 96, 22, 192, 24, 72, 26, 16, 28, 32, 30,
)

# Frame sequencer ticks land every 7457.5 CPU cycles; expressed in samples.
_TICK_SAMPLES = 7457.5 * SAMPLE_RATE / CPU_HZ


# Replay's memory grows with a stream's length, not its size: the sequencer
# cuts a segment at every tick, total_samples / 183.9 of them plus at most
# one per $4017 write, and each tick costs about 140 bytes at peak.  Peak RSS
# of ``vgm2score`` (ru_maxrss of a subprocess, a VGM of three writes then
# waits) is 43 MB at 2^24 samples, 81 MB at 2^26 and 228 MB at 2^28, about
# 101 minutes of audio; replay takes up to that.
MAX_REPLAY_SAMPLES = 2 ** 28


class NoteOutOfRange(ValueError):
    """MIDI note not representable on the requested oscillator."""


class ReplayTooLong(ValueError):
    """A stream past the ``MAX_REPLAY_SAMPLES`` samples replay takes."""

    def __init__(self, total_samples: int):
        super().__init__(f"total_samples {total_samples} is more than the "
                         f"{MAX_REPLAY_SAMPLES} samples replay takes in one pass")


# ---------------------------------------------------------------------------
# pitch mapping

def _pitch_tables(divisor: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The note of each 11-bit timer period, 0 where it is outside [lo, hi], and
    per note 0..hi the timer period that sounds it, -1 where none does."""
    freq = CPU_HZ / (divisor * np.arange(1, 0x801))
    notes = np.rint(69 + 12 * np.log2(freq / 440.0)).astype(np.int16)
    notes *= (notes >= lo) & (notes <= hi)
    note = np.arange(hi + 1)
    t = np.rint(CPU_HZ / (divisor * (440.0 * 2.0 ** ((note - 69) / 12))) - 1).astype(np.int64)
    fits = (note >= lo) & (t <= 0x7FF)
    timers = np.where(fits & (notes[t * fits] == note), t, -1).astype(np.int16)
    notes.flags.writeable = timers.flags.writeable = False
    return notes, timers


# The pitch lookup, each table one array expression of the CPU clock.  The
# note of timer period t is rint(69 + 12 * log2(f / 440)) for f = CPU_HZ /
# (16 * (t + 1)) on a pulse and / (32 * (t + 1)) on the triangle;
# PULSE_NOTES[t] and TRIANGLE_NOTES[t] hold it, 0 where it is out of the
# voice's range.  The timer of note n is the period nearest to its frequency
# 440 * 2^((n - 69) / 12), where that period fits in 11 bits and sounds n.
# Both rounded quantities stay at least 3e-4 from a half, far beyond any
# platform's log2 or pow error, so the tables do not depend on the platform.
PULSE_NOTES, PULSE_TIMERS = _pitch_tables(16, PULSE_NOTE_MIN, PULSE_NOTE_MAX)
TRIANGLE_NOTES, TRIANGLE_TIMERS = _pitch_tables(32, TRIANGLE_NOTE_MIN, TRIANGLE_NOTE_MAX)


def midi_to_timer(note: int, kind: str) -> int:
    """Timer period whose pitch maps back to exactly this note.

    Raises NoteOutOfRange wherever ``PULSE_TIMERS`` or ``TRIANGLE_TIMERS``
    holds no period for it: a note that is not an integer, is outside the
    table or has no timer that round-trips.  Pulse MIDI 32 is the one such
    note in range: the score alphabet holds it (the paper's 4621 pulse states
    count it), but its ideal period exceeds 11 bits and the nearest timer,
    0x7FF, sounds as note 33, so ``score_to_writes`` refuses it, naming the frame.
    """
    if kind not in ("pulse", "triangle"):
        raise ValueError(f"kind must be 'pulse' or 'triangle', got {kind!r}")
    timers = PULSE_TIMERS if kind == "pulse" else TRIANGLE_TIMERS
    in_table = isinstance(note, Integral) and 0 <= note < len(timers)
    timer = int(timers[int(note)]) if in_table else -1
    if timer < 0:
        raise NoteOutOfRange(f"note {note} not representable by an 11-bit {kind} timer")
    return timer

# ---------------------------------------------------------------------------
# stream replay

# A replay row: per pulse the timer period, the duty and the output volume
# (0 unless the channel sounds); the triangle's timer period (-1 unless it
# sounds); the noise period index, mode and output volume (0 unless it
# sounds); and the pulses whose phase a $4003/$4007 write reset (1 pulse 1,
# 2 pulse 2).
ROW_FIELDS = ("p1_timer", "p1_duty", "p1_volume", "p2_timer", "p2_duty", "p2_volume",
              "tr_timer", "no_period", "no_mode", "no_volume", "phase_reset")

_LENGTHS = np.array(LENGTH_TABLE, np.int64)
# What steps 1-5 of the 5-step sequence clock: 1 quarter, 2 half (a quarter
# clock, then the length counters and sweeps), 0 nothing.
_FIVE_STEP = np.array([1, 2, 1, 0, 2], np.int64)


def _envelope(m, divider, decay, period, loop):
    """(divider, decay level) of an envelope m clocks after it held (divider,
    decay), with no start flag and the period and loop flag fixed; for ints
    or arrays alike."""
    steps = (m - divider - 1) // (period + 1) + 1       # divider reloads, each a decay step
    past = steps > 0
    steps = steps * past
    # the divider counts down to 0, then runs period..0 over and over
    divider = divider - m + past * (period - (m - divider - 1) % (period + 1) - divider + m)
    return divider, ((decay - steps) & 15) * (loop | (steps <= decay))


class _Program:
    """A stream's applied writes, sequencer clocks and segment starts, as columns.

    ``offsets`` and ``vals`` are views of the stream's offset and value
    columns, cut before the writes at ``total_samples`` (which are never
    applied); the register column is read once, to group the write indices
    by register.  Register state changes only at a write group, the writes
    at one sample: after the first g groups, the first ``group_w[g]`` writes
    have run.  Clock c runs after the first ``clock_w[c]`` writes, a count
    that never falls from clock to clock, and ``clock_keys`` holds each
    count once, ascending, with ``clock_keys[K[c]] == clock_w[c]``;
    ``half[c]`` marks a half clock.  At segment start ``starts[p]`` the state
    is the one after the first ``G[p]`` groups and the first ``C[p]`` clocks.
    So a register is looked up once per distinct write count, at ``group_w``
    or ``clock_keys`` (per-clock halt and control bits), and gathered to the
    starts with ``G`` or to the clocks with ``K``.
    """

    def __init__(self, stream: TimedWriteStream):
        total = int(stream.total_samples)
        n = int(stream.offsets.searchsorted(total))
        self.offsets, self.vals = stream.offsets[:n], stream.values[:n]
        regs = (stream.registers[:n] - 0x4000).astype(np.int8)
        # Per register: the indices of its writes, and after a 0 for "not yet
        # written" their values.
        order = np.argsort(regs, kind="stable")
        bounds = regs[order].searchsorted(np.arange(0x19))
        held = np.insert(self.vals[order], bounds[:-1], 0)
        spans = list(enumerate(zip(bounds.tolist(), bounds[1:].tolist())))
        self._writes = [order[a:b] for _r, (a, b) in spans]
        self._held = [held[a + r:b + r + 1] for r, (a, b) in spans]
        groups = np.flatnonzero(run_starts(self.offsets))   # offsets are sorted
        self.group_w = np.append(groups, n)
        group_at = self.offsets[groups]

        # Sequencer runs start at sample 0 (4-step) and at each $4017 write;
        # tick k >= 1 of a run from b lands at b + int(k * _TICK_SAMPLES),
        # before the next run starts.
        resets = self.writes_to(0x4017)
        five = self.vals[resets] >= 0x80
        bases = np.concatenate(([0], self.offsets[resets]))
        ends = np.concatenate((self.offsets[resets], [total]))
        count = ((ends - bases) / _TICK_SAMPLES).astype(np.int64) + 1
        run = np.repeat(np.arange(len(bases)), count)
        k = np.arange(1, len(run) + 1) - np.repeat(np.cumsum(count) - count, count)
        ticks = bases[run] + (k * _TICK_SAMPLES).astype(np.int64)
        keep = ticks < ends[run]
        run, k, ticks = run[keep], k[keep], ticks[keep]
        kind = np.where(np.concatenate(([False], five))[run], _FIVE_STEP[(k - 1) % 5], 2 - k % 2)
        del run, k, keep
        starts = np.concatenate(([0], group_at, ticks))
        self.starts = sorted_unique(starts) if total else ticks

        # A 5-step $4017 write clocks a half clock right after itself; a tick
        # runs after every write at its sample.  No tick shares a sample with
        # a $4017 write, whose run starts there, so the write counts of the
        # clocks in order are sorted.
        now = resets[five]
        clocked = kind > 0
        at = np.concatenate((self.offsets[now], ticks[clocked]))
        w = np.concatenate((now + 1, self.group_w[group_at.searchsorted(ticks[clocked], "right")]))
        half = np.concatenate((np.ones(len(now), bool), kind[clocked] == 2))
        order = np.argsort(at, kind="stable")
        self.clock_w, self.half = w[order], half[order]
        new = run_starts(self.clock_w)
        self.clock_keys, self.K = self.clock_w[new], np.cumsum(new) - 1
        self.G = group_at.searchsorted(self.starts, "right")
        self.C = at[order].searchsorted(self.starts, "right")

    def writes_to(self, register: int) -> np.ndarray:
        """Indices of the writes to ``register``, ascending."""
        return self._writes[register - 0x4000]

    def clock_after(self, writes: np.ndarray) -> np.ndarray:
        """The first clock to run after each of ``writes`` (indices; the
        clock count where none does)."""
        return self.clock_w.searchsorted(writes, "right")

    def held(self, register: int, w: np.ndarray) -> np.ndarray:
        """The value ``register`` holds after the first ``w`` writes (0 before any)."""
        r = register - 0x4000
        return self._held[r][self._writes[r].searchsorted(w)]

    def last_write(self, register: int, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Index (-1 for none) and value of the last write to ``register``
        among the first ``w`` writes."""
        r = register - 0x4000
        j = self._writes[r].searchsorted(w)
        return np.insert(self._writes[r], 0, -1)[j], self._held[r][j]

    def length_on(self, load: int, bit: int, control: int, halt: int) -> np.ndarray:
        """Where a length counter is above 0 at each start.  It holds its last
        load (a ``load`` write while enabled, or 0 from a $4015 write that
        clears ``bit``) less the half clocks since that ran with the ``halt``
        bit of ``control`` clear, floored at 0."""
        halted = (self.held(control, self.clock_keys) & halt > 0)[self.K]
        loads = self.writes_to(load)
        loads = loads[self.held(0x4015, loads) >> bit & 1 == 1]
        clears = self.writes_to(0x4015)
        clears = clears[self.vals[clears] >> bit & 1 == 0]
        events = np.concatenate((loads, clears))
        order = np.argsort(events)
        events = events[order]
        unhalted = np.concatenate(([0], np.cumsum(self.half & ~halted)))
        left = np.concatenate((_LENGTHS[self.vals[loads] >> 3], 0 * clears))[order]
        left += unhalted[self.clock_after(events)]
        left = np.concatenate(([0], left))[events.searchsorted(self.group_w)]
        return left[self.G] > unhalted[self.C]

    def linear_on(self) -> np.ndarray:
        """Where the triangle's linear counter is above 0 at each start.  It
        holds the reload value of the last clock that ran with the reload
        flag set, less the clocks since.  A $400B write sets the flag; a
        clock with the control bit clear clears it after running."""
        reloads = self.writes_to(0x400B)
        if not len(reloads):
            return np.zeros(len(self.starts), bool)
        # per clock: the control register, and the last $400B write before it
        control = self.held(0x4008, self.clock_keys)[self.K]
        last = (reloads.searchsorted(self.clock_keys) - 1)[self.K]
        first = self.clock_after(reloads)
        cleared = np.concatenate(([0], np.cumsum(control < 0x80)))
        flagged = np.flatnonzero((last >= 0) & (cleared[:-1] == cleared[first[last]]))
        # value - (C - 1 - clock) > 0
        end = np.concatenate(([-1], (control[flagged] & 0x7F) + flagged))
        return end[flagged.searchsorted(self.C)] >= self.C

    def decay(self, control: int, start: int, at: np.ndarray) -> np.ndarray:
        """An envelope's decay level at the starts ``at`` (indices, ascending).

        A ``start`` write sets the start flag, so the next clock sets decay
        15 and the divider to the period.  Epochs begin at those clocks and
        wherever the period or loop flag of ``control`` changes; within one,
        the state has a closed form (``_envelope``).  Python carries the
        state through the epochs in order, each from where the one before
        it left off.
        """
        restarts = self.clock_after(self.writes_to(start))
        first = sorted_unique(np.concatenate(
            ([0], restarts, self.clock_after(self.writes_to(control)))))
        first = first[first < len(self.clock_w)]
        setting = self.held(control, self.clock_w[first]) & 0x2F
        restart = np.isin(first, restarts)
        keep = restart | (setting != self.held(control, self.clock_w[first - 1]) & 0x2F)
        keep[:1] = True
        first, restart, setting = first[keep], restart[keep], setting[keep]
        # Epoch 0 stands for the state before the first clock: divider 0, decay 0.
        period, loop = np.concatenate(([0], setting & 15)), np.concatenate(([0], setting >> 5))
        base = np.concatenate(([-1], first - ~restart))     # the clock m counts from
        # Epoch e starts where epoch e - 1 leaves off at its last clock, m past its base.
        divider, level = [0], [0]
        for r, p, m, p0, l0 in zip(*(a.tolist() for a in (
                restart, period[1:], first - 1 - base[:-1], period[:-1], loop[:-1]))):
            d, lv = (p, 15) if r else _envelope(m, divider[-1], level[-1], p0, l0)
            divider.append(d)
            level.append(lv)
        divider, level = np.array(divider), np.array(level)
        last = self.C[at] - 1                               # the last clock before each start
        epoch = first.searchsorted(last, "right")
        return _envelope(last - base[epoch], divider[epoch], level[epoch],
                         period[epoch], loop[epoch])[1]

    def sweep_fires(self, base: int, ones: int) -> tuple[list, list, list]:
        """The clocks where the sweep of the pulse at ``base`` sets its timer,
        with the writes before each and the timer after it.

        The divider reloads at the first half clock after a sweep write; it
        is due there if the old period + 1 divides the half clocks since the
        last reload, and then every period + 1 half clocks.  A due clock
        with the unit enabled and a nonzero shift fires unless the timer
        mutes it.  Python steps those clocks, rebuilding the timer from the
        last fire and the timer writes since.  ``ones`` is pulse 1's extra
        -1 on negate.
        """
        halves = np.flatnonzero(self.half)
        hw = self.clock_w[halves]
        reload = sorted_unique(hw.searchsorted(self.writes_to(base + 1), "right"))
        reload = reload[reload < len(halves)]
        anchor = np.concatenate(([-1], reload))
        period = np.concatenate(([0], self.held(base + 1, hw[reload]) >> 4 & 7))
        h = np.arange(len(halves))
        r = anchor.searchsorted(h) - 1
        sweep = self.held(base + 1, hw)
        due = np.flatnonzero(((h - anchor[r]) % (period[r] + 1) == 0)
                             & (sweep >= 0x80) & (sweep & 7 > 0))
        fired, after, timers = [], [], []
        w, sweep = hw[due], sweep[due]
        columns = (halves[due], w, *self.last_write(base + 2, w), *self.last_write(base + 3, w),
                   sweep & 7, sweep & 8)
        timer, last = 0, 0      # the timer after the last fire, and the writes before it
        for c, before, lo_i, lo, hi_i, hi, shift, negate in zip(*(a.tolist() for a in columns)):
            t = ((hi & 7 if hi_i >= last else timer >> 8) << 8
                 | (lo if lo_i >= last else timer & 0xFF))
            target = t - (t >> shift) - ones if negate else t + (t >> shift)
            if t >= 8 and target <= 0x7FF:
                timer, last = max(target, 0), before
                fired.append(c)
                after.append(before)
                timers.append(timer)
        return fired, after, timers

    def pulse_timer(self, base: int, ones: int) -> tuple[np.ndarray, np.ndarray]:
        """The timer of the pulse at ``base`` at each start, and where its
        sweep unit does not mute it.

        Both change only at writes to the sweep and timer registers and at
        sweep fires, so they are computed once per such event, in order, and
        gathered: the events before a start are the writes before it and
        the fires among its clocks.
        """
        fired, after, timers = (np.array(a, np.int64) for a in self.sweep_fires(base, ones))
        parts = [self.writes_to(base + r) for r in (1, 2, 3)]
        written = np.concatenate(parts)
        # A fire runs after the writes before its clock, and fires keep their
        # order.  Kinds: 0 a fire, 1-3 a sweep, low or high timer write.
        order = np.argsort(np.concatenate((2 * written + 1, 2 * after)), kind="stable")
        kind = np.concatenate((np.repeat([1, 2, 3], [len(p) for p in parts]), 0 * fired))[order]
        value = np.concatenate((self.vals[written], timers))[order]
        low = held((kind == 0) | (kind == 2), np.where(kind, value, value & 0xFF))
        high = held((kind == 0) | (kind == 3), np.where(kind, value & 7, value >> 8))
        sweep = held(kind == 1, value)
        timer = high << 8 | low
        change = timer >> (sweep & 7)
        target = np.where(sweep & 8, timer - change - ones, timer + change)
        audible = (timer >= 8) & (target <= 0x7FF)
        k = np.sort(written).searchsorted(self.group_w)[self.G] + fired.searchsorted(self.C)
        return timer[k], audible[k]

    def volume(self, control: int, load: int, bit: int, audible=True) -> np.ndarray:
        """The output volume at each start of the pulse or noise at
        ``control``: its constant level or its envelope's, 0 where the length
        counter has run out or not ``audible``."""
        on = self.length_on(load, bit, control, 0x20) & audible
        ctl = self.held(control, self.group_w)[self.G]
        volume = ctl & 15
        reads = np.flatnonzero((ctl & 0x10 == 0) & on)
        if len(reads):
            volume[reads] = self.decay(control, load, reads)
        return volume * on

    def triangle_timer(self) -> np.ndarray:
        """The triangle's timer at each start, -1 where it does not sound."""
        timer = (self.held(0x400A, self.group_w)
                 | (self.held(0x400B, self.group_w) & 7) << 8)[self.G]
        on = self.length_on(0x400B, 2, 0x4008, 0x80)
        return np.where(on & self.linear_on() & (timer >= 2), timer, -1)


def replay(stream: TimedWriteStream) -> tuple[np.ndarray, np.ndarray]:
    """Replay a write stream; return its segment starts and one row per segment.

    The starts are an int64 array; segment i spans [starts[i], starts[i + 1])
    and the last one ends at ``total_samples``.  The rows are an (n, 11)
    int32 array, column-major because every consumer reads it by column,
    laid out as ``ROW_FIELDS``: what each segment sounds with, after
    everything that happens at its start sample, in this order: the writes
    there, in stream order, each 5-step $4017 write followed at once
    by its quarter+half clock; then the sequencer tick there, if any.  A
    $4017 write restarts the sequencer; tick k after a restart at sample b
    lands on b + int(k * _TICK_SAMPLES), and a tick that would land on or
    after the next restart never runs.

    Every column is a whole-array program over the writes and the clocks
    (see ``_Program``); Python steps the envelope epochs of a voice that
    reads its envelope, and the due sweep clocks.

    Raises what ``vgm.check_stream`` raises for a stream it rejects, and
    ReplayTooLong past ``MAX_REPLAY_SAMPLES``, before replaying anything.  A
    write exactly at ``total_samples`` is legal and has no effect.
    """
    check_stream(stream)
    if stream.total_samples > MAX_REPLAY_SAMPLES:
        raise ReplayTooLong(int(stream.total_samples))
    prog = _Program(stream)
    rows = np.zeros((len(prog.starts), len(ROW_FIELDS)), np.int32, order="F")
    for col, base, bit in ((0, 0x4000, 0), (3, 0x4004, 1)):
        rows[:, col], audible = prog.pulse_timer(base, ones=1 - bit)
        rows[:, col + 1] = (prog.held(base, prog.group_w) >> 6)[prog.G]
        rows[:, col + 2] = prog.volume(base, base + 3, bit, audible)
        rows[prog.starts.searchsorted(prog.offsets[prog.writes_to(base + 3)]), 10] |= 1 << bit
    rows[:, 6] = prog.triangle_timer()
    noise = prog.held(0x400E, prog.group_w)
    rows[:, 7] = (noise & 15)[prog.G]
    rows[:, 8] = (noise >> 7)[prog.G]
    rows[:, 9] = prog.volume(0x400C, 0x400F, 3)
    return prog.starts, rows


def iter_segments(stream: TimedWriteStream) -> Iterator[tuple[int, int, list]]:
    """(start, end, row) of each replay segment, the row a list as in ``replay``.

    The whole stream is replayed first, so a bad write offset raises here.
    Each row becomes a list only when it is reached, so a consumer holds
    one at a time.
    """
    starts, rows = replay(stream)
    ends = starts[1:].tolist() + [int(stream.total_samples)]
    return zip(starts.tolist(), ends, map(np.ndarray.tolist, rows))


def frame_table(rows: np.ndarray) -> np.ndarray:
    """The expressive frames, shape (n, 10) int16, of n replay rows.

    A voice that does not sound, or whose pitch is out of range, gives the
    canonical (0, 0, 0) so the frame alphabets stay closed.  Noise notes run
    the other way from period indices: a faster shift clock is brighter.
    """
    frames = np.zeros((len(rows), 10), np.int16)
    for first, timer, duty, volume in ((0, 0, 1, 2), (3, 3, 4, 5)):
        note = PULSE_NOTES.take(rows[:, timer])
        on = (note > 0) & (rows[:, volume] > 0)
        frames[:, first] = note * on
        frames[:, first + 1] = rows[:, volume] * on
        frames[:, first + 2] = rows[:, duty] * on
    timer = rows[:, 6]
    frames[:, 6] = TRIANGLE_NOTES.take(timer) * (timer >= 0)
    on = rows[:, 9] > 0
    frames[:, 7] = (NOISE_NOTE_MAX - rows[:, 7]) * on
    frames[:, 8] = rows[:, 9]
    frames[:, 9] = rows[:, 8] * on
    return frames


@dataclass(eq=False)
class Timeline:
    """Change points of a 44.1 kHz frame function over [0, total); silence before the first.

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
        return Timeline(0, np.zeros(1, np.int64), np.zeros((1, 10), np.int16))
    frames = frame_table(rows)
    # One comparison per column: numpy's any() over rows of 10 is slow.
    keep = np.concatenate(([True], np.any([c[1:] != c[:-1] for c in frames.T], axis=0)))
    return Timeline(int(stream.total_samples), starts[keep], frames[keep])
