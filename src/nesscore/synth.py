"""Waveform synthesis: timed register writes -> 44.1 kHz PCM.

The renderer reads the arrays of ``apu.replay``, the same rows extraction
derives its frames from, so a voice sounds exactly where it is scored.
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
integer numpy ops over each run's piece, table lookups and the console's
nonlinear mixer, skipping a voice silent for the whole block.  Waveforms
are naive (no band-limiting), which is exactly how the hardware aliases.

``score_to_writes`` is the inverse path: it schedules the minimal register
writes that make an expressive score come out of ``extract_timeline``
unchanged.  Each write is a mask over frames from ``score.voice_changes``
with its register and value, put in frame order by ``score.schedule``,
whose arrays become the stream's columns.
"""

import functools
import io
import wave
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import apu
from .apu import _sorted_unique
from .score import (
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
from .vgm import TimedWriteStream, check_stream

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

_BLOCK = 1 << 13   # samples per whole-block numpy pass; bounds the temporaries

# Pulse output level times 256 at (duty * 16 + volume) * 8 + step: one gather per sample.
_PULSE_WAVE = 256 * np.array([level * volume for duty in DUTY_SEQUENCES
                              for volume in range(16) for level in duty])
# Triangle level times 16 at gate * 32 + step; the gated row is silent.
_TRI_WAVE = 16 * np.array((0,) * 32 + TRIANGLE_SEQUENCE)


def lfsr_step(register: int, mode: int) -> int:
    """Advance the 15-bit noise shift register one step."""
    tap = (register >> 6) if mode else (register >> 1)
    feedback = (register ^ tap) & 1
    return (register >> 1) | (feedback << 14)


def mix(p1: int, p2: int, t: int, n: int) -> float:
    """Nonlinear four-channel mix, centered so silence is exactly 0.

    The sampler term of the triangle/noise group is pinned to zero.  The
    doubled sum can slightly exceed 1 at pathological all-max levels, so the
    result is clamped into [-1, 1].
    """
    pulse = 95.88 / (8128.0 / (p1 + p2) + 100.0) if p1 + p2 else 0.0
    tnd = 159.79 / (1.0 / (t / 8227.0 + n / 12241.0) + 100.0) if t or n else 0.0
    return min(1.0, max(-1.0, 2.0 * (pulse + tnd)))


# ``mix`` of each group alone, which never reaches the clamp: by p1 + p2, by t * 16 + n.
_PULSE_MIX = np.array([mix(s, 0, 0, 0) for s in range(31)])
_TND_MIX = np.array([mix(0, 0, t, n) for t in range(16) for n in range(16)])
# Their sum, clamped as ``mix`` is, at (p1 + p2) * 256 + t * 16 + n: one gather per sample.
_MIX = np.clip(np.add.outer(_PULSE_MIX, _TND_MIX), -1.0, 1.0).ravel()


@functools.cache
def _lfsr_cycle_tables():
    """Cycles of ``lfsr_step`` in both modes, built once, on first render.

    Each cycle sits in consecutive slots: k steps after state s of mode m comes
    ``states[base + (pos + k) % length]``, with base, pos and length at [m, s].
    Mode 0 has a 32767-cycle, mode 1 has 352 of 93 and one of 31; 0 is fixed in both.
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
            (states & 1).astype(np.int8))


@dataclass
class PcmBuffer:
    """Mono float PCM at 44.1 kHz, samples within [-1, 1]."""

    samples: np.ndarray


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


def _runs(key: np.ndarray, restart: np.ndarray | bool) -> np.ndarray:
    """Where a run starts: at segment 0, where ``key`` changes, and where ``restart`` is set."""
    start = np.ones(len(key), bool)
    np.not_equal(key[1:], key[:-1], out=start[1:])
    return start | restart


def _cut(starts: np.ndarray, total: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``starts`` (from 0 on) cut again at every ``_BLOCK`` samples of a
    ``total``-sample stream: the pieces' first samples, the start each piece
    lies in, and block b's first piece at [b], the piece count last."""
    blocks = np.arange(0, total, _BLOCK)
    pieces = _sorted_unique(np.concatenate((starts, blocks)))
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
    on; a piece of period 0 is frozen and silent.  The pieces of block b are
    ``bounds[b]`` to ``bounds[b + 1] - 1``.  A duty or triangle sequencer
    sounds ``wave[param + (step & mask)]``, ``mask`` being its steps less 1;
    the noise LFSR (``mask`` 0) sounds ``wave[base + step % length] *
    param``, ``param`` being its volume.  ``param`` is per segment piece.
    ``sounds[b]`` says whether the voice sounds in block b at all.
    """

    wave: np.ndarray
    mask: int
    pieces: list
    bounds: list
    param: np.ndarray
    sounds: list

    def levels(self, b: int, segments: slice, counts: np.ndarray,
               cycles: np.ndarray) -> np.ndarray:
        """The output level at each sample of block b, whose segment pieces
        are ``segments``, ``counts`` samples each."""
        step = np.zeros(len(cycles), np.int32)
        for first, end, offset, period, length, base in self.pieces[self.bounds[b]:
                                                                    self.bounds[b + 1]]:
            if period:
                run = step[first:end]
                np.add(cycles[first:end], offset, out=run)
                run //= period
                if not self.mask:
                    run -= run // length * length - base    # a scalar // is faster than %
        if self.mask:
            step &= self.mask
            step += self.param[segments].repeat(counts)
            return self.wave.take(step, mode="clip")
        level = self.wave.take(step, mode="clip")
        level *= self.param[segments].repeat(counts)
        return level


def _voices(starts: np.ndarray, rows: np.ndarray, total: int, seg: np.ndarray,
            bounds: np.ndarray) -> list[_Voice]:
    """P1, P2, TR and NO of replay's ``starts`` and ``rows`` over a stream of
    ``total`` samples, whose segment piece j lies in segment ``seg[j]`` and
    whose block b holds pieces ``bounds[b]`` to ``bounds[b + 1] - 1``."""
    cycles = _cycles(starts)
    volume = rows[:, 9]     # noise: 0 where silent, over which the LFSR holds
    p1, p2, tr, no = (np.flatnonzero(_runs(key, restart > 0)) for key, restart in (
        (rows[:, 0], rows[:, 10] & 1), (rows[:, 3], rows[:, 10] & 2), (rows[:, 6], 0),
        (np.where(volume > 0, rows[:, 7] * 2 + rows[:, 8], -1), 0)))
    gate = rows[:, 6] >= 0  # the triangle's timer is -1 where gated: its phase holds
    # wave, mask, run starts, then period, mode and restart at them, tables, first state,
    # param, sounding.  A duty step takes 2(t + 1) cycles, a triangle step t + 1.
    spec = [(_PULSE_WAVE, 7, opens, 2 * (rows[opens, col] + 1), 0 * opens, rows[opens, 10] & bit,
             _ring(8), 0, (rows[:, col + 1] * 16 + rows[:, col + 2]) * 8, rows[:, col + 2] > 0)
            for opens, col, bit in ((p1, 0, 1), (p2, 3, 2))]
    spec += [(_TRI_WAVE, 31, tr, rows[tr, 6] + 1, 0 * tr, 0 * tr, _ring(32), 0, 32 * gate, gate),
             (_lfsr_cycle_tables()[4] ^ 1, 0, no,
              np.array(NOISE_PERIODS)[rows[no, 7]] * (volume[no] > 0), rows[no, 8], 0 * no,
              _lfsr_cycle_tables(), 1, volume, volume > 0)]
    voices = []
    for wave, mask, opens, periods, modes, restarts, tables, first, param, sounding in spec:
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
        heard = np.concatenate(([0], np.cumsum(sounding[seg])))
        voices.append(_Voice(wave, mask, list(pieces), block_first_piece.tolist(),
                             param[seg].astype(np.int32),
                             (heard[bounds[1:]] > heard[bounds[:-1]]).tolist()))
    return voices


def render_writes(stream: TimedWriteStream) -> PcmBuffer:
    """Render a timed write stream to PCM, one sample per stream sample."""
    check_stream(stream)    # before np.empty
    total = int(stream.total_samples)
    # Allocated before replay: after it, out raised peak RSS by 0.4 MB on
    # vgm-render and 1.1 MB on score-render (seeds 5, 11, 23).
    out = np.empty(total)
    starts, rows = apu.replay(stream)
    begin, seg, bounds = _cut(starts, total)    # the segment pieces
    voices = _voices(starts, rows, total, seg, bounds)
    counts = np.diff(begin, append=total)
    del starts, rows, begin
    cycle_table = _cycle_table(_BLOCK)
    for b, (j0, j1) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        first = b * _BLOCK
        last = min(first + _BLOCK, total)
        cycles = cycle_table[first % SAMPLE_RATE:][:last - first]
        p1, p2, tr, no = (v.levels(b, slice(j0, j1), counts[j0:j1], cycles) if v.sounds[b]
                          else 0 for v in voices)
        index = p1 + p2 + tr + no
        if isinstance(index, int):
            out[first:last] = _MIX[index]
        else:
            _MIX.take(index, out=out[first:last], mode="clip")
    return PcmBuffer(samples=out)


# ---------------------------------------------------------------------------
# score -> register writes

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
    writes = [(np.diff(enabled, prepend=-1) != 0, 0x4015, enabled)]
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

def write_wav(buffer: PcmBuffer) -> bytes:
    """Encode as RIFF/WAVE, PCM signed 16-bit little-endian, mono."""
    quantized = buffer.samples * 32767.0    # one temporary, rounded and clipped in place
    np.rint(quantized, out=quantized)
    np.clip(quantized, -32767, 32767, out=quantized)
    pcm = quantized.astype("<i2").tobytes()
    bio = io.BytesIO()
    with wave.open(bio, "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(SAMPLE_RATE)
        wav.writeframes(pcm)
    return bio.getvalue()
