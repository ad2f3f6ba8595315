"""Waveform synthesis: timed register writes -> 44.1 kHz PCM.

The renderer plays the rows of ``apu.replay`` as the APU does; extraction
reads the same rows but drops pitches outside the score's alphabet.
Every oscillator walks a cycle of states, one step every ``period`` CPU
cycles: a duty sequencer ``_ring(8)``, the triangle ``_ring(32)``, the
noise the LFSR cycles of ``_lfsr_cycle_tables``.  Its phase only changes at
a break: a new period or a pulse's phase reset, the triangle gated or
re-opened, the noise's mode switched or its volume going to or from 0.
Masks over the rows find the breaks, and one carry (``_carry``) steps once
per run between them, keeping the position in the cycle and the cycles
spent there; it reads the tables only where the oscillator (re)starts and
where its mode changes.  One cut (``_cut``) splits the segments and each
voice's runs at every ``_BLOCK`` samples, and the blocks are filled with
integer numpy ops over each run's piece, in buffers allocated once per
render.  Per block the voices' per-segment params, 0 exactly where a voice
is silent, are repeated out to the samples in one call; each voice with a
param above 0 writes its int16 levels, the first into the block's int16
mixer index and each later one added to it.  Pulses and triangle compute
theirs from the step's low bits in int16 ops; only the noise gathers, from
its LFSR's cycle tables.  Levels are scaled so that the index is the two
pulses' levels times 256 plus the triangle's times 16 plus the noise's, and
the console's nonlinear mixer is one table over that index, quantised to
16-bit PCM once, so one more gather gives the WAV's samples.
Waveforms are naive (no band-limiting), exactly how the hardware aliases.

``score_to_writes`` is the inverse path: it schedules the minimal register
writes that make an expressive score come out of ``extract_timeline``
unchanged.  Each write is a mask over frames from ``score.voice_changes``
with its register and value, put in frame order by ``score.schedule``,
whose arrays become the stream's columns.
"""

import functools
import struct
from typing import NamedTuple

import numpy as np

from . import apu
from ._arrays import run_starts, sorted_unique
from .score import (
    MAX_TOTAL_SAMPLES,
    NOISE_NOTE_MAX,
    SAMPLE_RATE,
    VOICES,
    ExpressiveScore,
    check_frames,
    check_rate,
    frame_sample_index,
    schedule,
    voice_changes,
)
from .vgm import TimedWriteStream

DUTY_SEQUENCES = (
    (0, 1, 0, 0, 0, 0, 0, 0),   # 12.5%
    (0, 1, 1, 0, 0, 0, 0, 0),   # 25%
    (0, 1, 1, 1, 1, 0, 0, 0),   # 50%
    (1, 0, 0, 1, 1, 1, 1, 1),   # 25% negated
)

TRIANGLE_SEQUENCE = tuple(range(15, -1, -1)) + tuple(range(16))

# Noise timer periods in CPU cycles, indexed by the $400E period field (NTSC).
NOISE_PERIODS = (
    4, 8, 16, 32, 64, 96, 128, 160, 202, 254, 380, 508, 762, 1016, 2034, 4068,
)

_BLOCK = 1 << 15   # samples per whole-block numpy pass; bounds the temporaries

# Each duty sequence as the bits of one mask: bit s is its level at step s.
_DUTY_MASKS = np.array([sum(v << s for s, v in enumerate(d)) for d in DUTY_SEQUENCES], np.int16)


def lfsr_step(register: int, mode: int) -> int:
    """Advance the 15-bit noise shift register one step."""
    tap = (register >> 6) if mode else (register >> 1)
    feedback = (register ^ tap) & 1
    return (register >> 1) | (feedback << 14)


def mix(p1: int, p2: int, t: int, n: int) -> float:
    """Nonlinear four-channel mix, centered so silence is exactly 0.

    The sampler term of the triangle/noise group is pinned to zero.  The
    doubled sum peaks at 1.26, so it is clamped into [-1, 1]: 718 of the 7,936
    ``_MIX`` entries are 32767, the first at pulse sum 13 with t = n = 15.
    """
    pulse = 95.88 / (8128.0 / (p1 + p2) + 100.0) if p1 + p2 else 0.0
    tnd = 159.79 / (1.0 / (t / 8227.0 + n / 12241.0) + 100.0) if t or n else 0.0
    return min(1.0, max(-1.0, 2.0 * (pulse + tnd)))


# ``mix`` of each group alone, which never reaches the clamp: by p1 + p2, by t * 16 + n.
_PULSE_MIX = np.array([mix(s, 0, 0, 0) for s in range(31)])
_TND_MIX = np.array([mix(0, 0, t, n) for t in range(16) for n in range(16)])
# Their sum, clamped as ``mix`` is, as 16-bit PCM at (p1 + p2) * 256 + t * 16 + n: one gather.
_MIX = np.rint(32767 * np.clip(np.add.outer(_PULSE_MIX, _TND_MIX), -1, 1)).astype(np.int16).ravel()

MAX_WAV_SAMPLES = (MAX_TOTAL_SAMPLES - 36) // 2     # RIFF sizes: 36 + 2n bytes fit in 32 bits


class WavTooLong(ValueError):
    """A render past the ``MAX_WAV_SAMPLES`` samples a 16-bit mono WAV holds."""

    def __init__(self, total_samples: int):
        super().__init__(f"total_samples {total_samples} is more than the "
                         f"{MAX_WAV_SAMPLES} samples a 16-bit mono WAV holds")


@functools.cache
def _lfsr_cycle_tables():
    """Cycles of ``lfsr_step`` in both modes, built once, on first render.

    Each cycle sits in consecutive slots: k steps after state s of mode m comes
    ``states[base + (pos + k) % length]``, with base, pos and length at [m, s].
    Mode 0 has a 32767-cycle, mode 1 has 352 of 93 and one of 31; 0 is fixed in both.
    Last comes the channel's int16 output at each slot: 1 where bit 0 is clear.
    """
    n = 1 << 15
    s = np.arange(n)
    base, pos, length = np.empty((3, 2, n), np.int32)
    states = np.empty(2 * n, np.int16)
    for mode in (0, 1):
        # pointer doubling on keys label << 16 | dist: after round k, label is
        # the smallest state within 2**k steps of s, and dist the steps to it
        key, jump = s << 16, lfsr_step(s, mode)
        for k in range(15):
            ahead = key[jump] + (1 << k)
            if not (ahead < key).any():
                break   # no window found a smaller state: the labels are final
            key = np.minimum(key, ahead)
            jump = jump[jump]
        label, dist = key >> 16, key & 0xFFFF
        counts = np.bincount(label, minlength=n)
        length[mode] = counts[label]
        pos[mode] = (length[mode] - dist) % length[mode]
        base[mode] = (np.cumsum(counts) - counts + mode * n)[label]
        states[base[mode] + pos[mode]] = s
    return (base, pos.astype(np.int16), length.astype(np.int16), states,
            (states & 1) ^ 1)


@functools.cache
def _ring(n: int) -> tuple:
    """Cycle tables (base, pos, length, states, as ``_lfsr_cycle_tables``) of
    a sequencer that steps s to (s + 1) % n: one mode, one n-state cycle."""
    s = np.arange(n)
    return np.zeros((1, n), int), s[None], np.full((1, n), n), s


def _cycles(sample):
    """CPU cycles elapsed before a sample index (int or array)."""
    return sample * apu.CPU_HZ // SAMPLE_RATE


@functools.cache
def _cycle_table(block: int) -> np.ndarray:
    """``_cycles`` of samples 0 .. 44100 + block - 1, as int32.  CPU_HZ is an
    integer, so sample q * 44100 + r comes q * CPU_HZ cycles after sample r."""
    return _cycles(np.arange(SAMPLE_RATE + block)).astype(np.int32)


def _cut(starts: np.ndarray, total: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``starts`` (from 0 on) cut again at every ``_BLOCK`` samples of a
    ``total``-sample stream: the pieces' first samples, the start each piece
    lies in, and block b's first piece at [b], the piece count last."""
    blocks = np.arange(0, total, _BLOCK)
    pieces = sorted_unique(np.concatenate((starts, blocks)))
    return (pieces, starts.searchsorted(pieces, "right") - 1,
            np.append(pieces.searchsorted(blocks), len(pieces)))


def _carry(cycles: list, periods: list, modes: list, restarts: list, tables: tuple,
           first: int) -> tuple[list, list, list]:
    """The offset, cycle base and cycle length of an oscillator over each of its runs.

    The oscillator walks a cycle of ``tables`` (``_ring`` or
    ``_lfsr_cycle_tables``), starting at state ``first``.  Run r starts
    ``cycles[r]`` cycles after sample 0 and steps every ``periods[r]`` cycles
    in mode ``modes[r]``; over a run of period 0 it holds, and a restart puts
    it back at ``first``.  Over run r its state is the one at ``base +
    (offset + cycles) // period % length`` of the cycle tables.  Only the
    position in the cycle and the cycles spent there carry from run to run;
    the tables are read where it (re)starts and where its mode changes.
    """
    cycle_base, cycle_pos, cycle_len, cycle_state = tables[:4]
    pos = spent = offset = period = base = 0
    mode, length = None, 1      # mode None: at ``first``, its cycle not read yet
    offsets, bases, lengths = [], [], []
    for c, p, m, r in zip(cycles, periods, modes, restarts):
        if r:
            mode, spent = None, 0
        elif period:
            pos, spent = divmod(offset + c, period)
            pos %= length
        if p and m != mode:
            state = first if mode is None else cycle_state.item(base + pos)
            base, pos = cycle_base.item(m, state), cycle_pos.item(m, state)
            length, mode = cycle_len.item(m, state), m
        offset = pos * p + spent - c
        period = p
        offsets.append(offset)
        bases.append(base)
        lengths.append(length)
    return offsets, bases, lengths


class _Voice(NamedTuple):
    """One oscillator of a stream, block by block.

    Its runs, cut again at every ``_BLOCK`` samples, are ``pieces``: (first,
    end, offset, period, length, base), with first and end counted from the
    block's first sample.  Over a piece it is at step (offset + cycles) //
    period, ``cycles`` being ``_cycle_table`` from the block's first sample
    on; a piece of period 0 is frozen at step 0.  The pieces of block b are
    ``bounds[b]`` to ``bounds[b + 1] - 1``.  A duty sequencer (``mask`` 7)
    and the triangle (``mask`` 31) compute their levels from the step's low
    bits and ``param``, in int16; the noise LFSR (``mask`` 0) gathers its
    output at slot ``base + step % length`` of the cycle tables, times
    ``param``, its volume.  Levels are scaled so that the four voices' sum to
    the index of ``_MIX``.
    """

    mask: int
    pieces: list
    bounds: list

    def levels(self, b: int, param: np.ndarray, cycles: np.ndarray, step: np.ndarray,
               short: np.ndarray, out: np.ndarray) -> None:
        """Write the int16 level at each sample of block b into ``out``, given
        the voice's int16 ``param`` at each sample; ``step`` (int32) and
        ``short`` (int16), as long, are scratch."""
        for first, end, offset, period, length, base in self.pieces[self.bounds[b]:
                                                                    self.bounds[b + 1]]:
            run = step[first:end]
            if period:
                np.add(cycles[first:end], offset, out=run)
                run //= period
                if not self.mask:
                    run -= run // length * length - base    # a scalar // is faster than %
            else:
                run.fill(0)
        if not self.mask:
            _lfsr_cycle_tables()[4].take(step, out=out, mode="clip")
            out *= param
            return
        # The rest runs in int16, on the low bits the copy keeps: a ufunc mixing
        # int16 with int32 operands runs buffered, several times slower.
        np.copyto(short, step, casting="unsafe")
        if self.mask == 7:      # bit step & 7 of the duty mask (param bits 0-7), times 256v
            short &= 7
            np.right_shift(param, short, out=short)
            short &= 1
            np.bitwise_and(param, 0xF00, out=out)
            out *= short
        else:                   # step bits 0-3, inverted where bit 4 is clear, times param
            np.right_shift(short, 4, out=out)
            out &= 1
            out -= 1
            short ^= out
            short &= 15
            np.multiply(short, param, out=out)


def _voices(starts: np.ndarray, rows: np.ndarray, total: int,
            seg: np.ndarray) -> tuple[list[_Voice], np.ndarray]:
    """P1, P2, TR and NO of replay's ``starts`` and ``rows`` over a stream of
    ``total`` samples, whose segment piece j lies in segment ``seg[j]``; and
    their params, one int16 row per voice, one column per segment piece, 0
    exactly where the voice is silent."""
    cycles = _cycles(starts)
    volume = rows[:, 9]     # noise: 0 where silent, over which the LFSR holds
    p1, p2, tr, no = (np.flatnonzero(run_starts(key) | (restart > 0)) for key, restart in (
        (rows[:, 0], rows[:, 10] & 1), (rows[:, 3], rows[:, 10] & 2), (rows[:, 6], 0),
        (np.where(volume > 0, rows[:, 7] * 2 + rows[:, 8], -1), 0)))
    gate = rows[:, 6] >= 0  # the triangle's timer is -1 where gated: its phase holds
    lfsr = _lfsr_cycle_tables()
    # mask, run starts, then period, mode and restart at them, tables, first state,
    # param.  A duty step takes 2(t + 1) cycles, a triangle step t + 1.
    spec = [(7, opens, 2 * (rows[opens, col] + 1), 0 * opens, rows[opens, 10] & bit,
             _ring(8), 0, (_DUTY_MASKS[rows[:, col + 1]] | rows[:, col + 2] << 8)
             * (rows[:, col + 2] > 0))
            for opens, col, bit in ((p1, 0, 1), (p2, 3, 2))]
    spec += [(31, tr, rows[tr, 6] + 1, 0 * tr, 0 * tr, _ring(32), 0, 16 * gate),
             (0, no, np.array(NOISE_PERIODS)[rows[no, 7]] * (volume[no] > 0),
              rows[no, 8], 0 * no, lfsr, 1, volume)]
    voices, params = [], []
    for mask, opens, periods, modes, restarts, tables, first, param in spec:
        cut, run, block_first_piece = _cut(starts[opens], total)
        carried = _carry(*(a.tolist() for a in (cycles[opens], periods, modes, restarts)),
                         tables, first)
        offsets, bases, lengths = (np.asarray(c, np.int64)[run] for c in carried)
        periods = periods[run]
        block_first = cut // _BLOCK * _BLOCK
        # Sample q * 44100 + r comes q * CPU_HZ cycles after sample r: fold
        # those into the offset, which stays below 2^27 modulo a cycle.
        offsets += block_first // SAMPLE_RATE * apu.CPU_HZ
        offsets %= lengths * np.maximum(periods, 1)
        pieces = zip(*(c.tolist() for c in (cut - block_first,
                                            np.append(cut[1:], total) - block_first,
                                            offsets, periods, lengths, bases)))
        voices.append(_Voice(mask, list(pieces), block_first_piece.tolist()))
        params.append(param)
    return voices, np.array(params, np.int16)[:, seg]


def render_writes(stream: TimedWriteStream) -> np.ndarray:
    """Render a timed write stream to mono 16-bit PCM at 44.1 kHz, one int16
    sample per stream sample.  Raises what ``apu.replay`` raises, before it
    allocates the output."""
    starts, rows = apu.replay(stream)
    total = int(stream.total_samples)
    begin, seg, bounds = _cut(starts, total)    # the segment pieces
    voices, params = _voices(starts, rows, total, seg)
    counts = np.diff(begin, append=total)
    sounding = np.logical_or.reduceat(params, bounds[:-1], axis=1)  # voice k in block b at [k, b]
    del starts, rows, begin, seg
    out = np.empty(total, np.int16)
    cycle_table = _cycle_table(_BLOCK)
    # scratch reused by every block: steps, their int16 copy, one voice's levels, the index
    scratch = [np.empty(min(_BLOCK, total), t) for t in (np.int32, np.int16, np.int16, np.int16)]
    for b, (j0, j1) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        first = b * _BLOCK
        if total - first < len(scratch[0]):  # the last block is short
            scratch = [a[:total - first] for a in scratch]
        step, short, level, index = scratch
        n = len(index)
        heard = np.flatnonzero(sounding[:, b]).tolist()
        if not heard:
            out[first:first + n] = _MIX[0]
            continue
        cycles = cycle_table[first % SAMPLE_RATE:][:n]
        param = params[:, j0:j1].repeat(counts[j0:j1], axis=1)
        # the first voice's levels start the mixer index, each later one's add to it
        voices[heard[0]].levels(b, param[heard[0]], cycles, step, short, index)
        for k in heard[1:]:
            voices[k].levels(b, param[k], cycles, step, short, level)
            index += level
        _MIX.take(index, out=out[first:first + n], mode="clip")
    return out


# ---------------------------------------------------------------------------
# score -> register writes

# The longest length-counter load: its LENGTH_TABLE index, in bits 7-3.
_LENGTH_LOAD_MAX = apu.LENGTH_TABLE.index(max(apu.LENGTH_TABLE)) << 3


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
    values = score.to_array()
    # Frame k's writes land on its sample; the one past the last frame ends the stream.
    starts = frame_sample_index(np.arange(len(values) + 1), score.rate_hz)
    p1, p2, tr, no = changes = [voice_changes(values, voice) for voice in VOICES]
    pulse_timers = [apu.PULSE_TIMERS.take(c.now[0]) for c in (p1, p2)]
    unsounded = np.argwhere((np.array([p1.onset, p2.onset]) & (np.array(pulse_timers) < 0)).T)
    if len(unsounded):
        k, i = unsounded[0].tolist()
        raise apu.NoteOutOfRange(f"frame {k}: {VOICES[i]} note {changes[i].now[0, k]} "
                                 "not representable by an 11-bit pulse timer")

    enabled = sum((c.now[0] > 0) << i for i, c in enumerate(changes))
    # (frames, register, value) in the order a frame writes them; frame 0 sets the mask
    writes = [(run_starts(enabled), 0x4015, enabled)]
    for base, c, timer in zip((0x4000, 0x4004), (p1, p2), pulse_timers):
        _note, vel, timbre = c.now
        writes += [
            (c.onset & (np.cumsum(c.onset) == 1), base + 1, 0x08),
            (c.onset | c.changed.any(axis=0), base, (timbre << 6) | 0x30 | vel),
            (c.onset, base + 2, timer & 0xFF),
            (c.onset, base + 3, _LENGTH_LOAD_MAX | (timer >> 8)),
        ]
    timer = apu.TRIANGLE_TIMERS.take(tr.now[0])
    note, vel, timbre = no.now
    writes += [
        (tr.onset, 0x4008, 0xFF),
        (tr.onset, 0x400A, timer & 0xFF),
        (tr.onset, 0x400B, _LENGTH_LOAD_MAX | (timer >> 8)),
        (tr.release & ~tr.onset, 0x4008, 0x80),
        (no.onset | no.changed[0], 0x400C, 0x30 | vel),
        (no.onset | no.changed[1], 0x400E, (timbre << 7) | (NOISE_NOTE_MAX - note)),
        (no.onset, 0x400F, _LENGTH_LOAD_MAX),
        # immediate 5-step clock reloads the linear counter at a triangle onset's sample
        (tr.onset & ~tr.release, 0x4017, 0x80),
    ]
    # Frame T, the silence after the score, writes nothing; an empty score's
    # frame 0 is that frame, and it still sets the mask.
    frame, (register, value) = schedule(writes, max(len(values), 1))
    return TimedWriteStream.from_columns(starts[frame], register, value, int(starts[-1]))


# ---------------------------------------------------------------------------
# WAV output

def wav_header(n_samples: int) -> bytes:
    """The 44-byte RIFF/WAVE header of ``n_samples`` mono 16-bit PCM samples
    at 44.1 kHz; WavTooLong past the limit."""
    if n_samples > MAX_WAV_SAMPLES:
        raise WavTooLong(n_samples)
    return struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + 2 * n_samples, b"WAVE", b"fmt ",
                       16, 1, 1, SAMPLE_RATE, 2 * SAMPLE_RATE, 2, 16, b"data", 2 * n_samples)


def write_wav(samples: np.ndarray) -> bytes:
    """Encode ``render_writes``'s int16 samples as a mono 16-bit PCM RIFF/WAVE file.
    Raises ValueError for anything but a 1-D int16 array, WavTooLong past the limit."""
    if not isinstance(samples, np.ndarray) or samples.ndim != 1 or samples.dtype != np.int16:
        raise ValueError("samples are not a 1-D int16 array, as render_writes returns")
    return b"".join((wav_header(len(samples)), np.ascontiguousarray(samples, "<i2")))
