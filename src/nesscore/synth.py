"""Waveform synthesis: timed register writes -> 44.1 kHz PCM.

The renderer reads the replay rows of ``apu.iter_segments``, the same rows
extraction derives its frames from, so a voice sounds exactly where it is
scored.  It works in two stages.  A Python pass carries each oscillator
(duty sequencer, triangle staircase, noise LFSR) across segments in whole
CPU cycles, with the period, volume and phase resets its replay row gives,
and records one parameter row per segment; once rows cover ``_BLOCK``
samples, ``_render_block`` turns them into PCM with integer numpy ops,
table lookups and the console's nonlinear mixer.  Waveforms are
naive (no band-limiting), which is exactly how the hardware aliases.

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

import numpy as np

from . import apu
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

# Pulse output level at (duty * 16 + volume) * 8 + step: one gather per sample.
_PULSE_WAVE = np.array([level * volume for duty in DUTY_SEQUENCES
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
    sample_rate: int = SAMPLE_RATE


def _cycles(sample):
    """CPU cycles elapsed before a sample index (int or array)."""
    return sample * apu.CPU_HZ // SAMPLE_RATE


def _render_block(out: np.ndarray, first: int, rows: list, bits: np.ndarray) -> None:
    """Fill ``out`` from sample ``first`` on with the segments in ``rows``.

    A row holds the segment's end, then per voice a period, an offset and table
    parameters: ``cycles`` after ``first``, it is at step (offset + cycles) // period.
    """
    table = np.array(rows, dtype=np.int32)
    last = int(table[-1, 0])
    seg = np.repeat(table[:, 1:].T, np.diff(table[:, 0], prepend=first), axis=1)
    cycles = (_cycles(np.arange(first, last)) - _cycles(first)).astype(np.int32)
    p1, p2, tr, no = [(seg[k + 1] + cycles) // seg[k] for k in (0, 3, 6, 9)]
    pulses = _PULSE_WAVE.take(seg[2] + (p1 & 7)) + _PULSE_WAVE.take(seg[5] + (p2 & 7))
    noise = (bits.take(seg[11] + no % seg[12]) ^ 1) * seg[13]
    tnd = _TRI_WAVE.take(seg[8] + (tr & 31)) + noise
    np.add(_PULSE_MIX.take(pulses), _TND_MIX.take(tnd), out=out[first:last])


def _advance(osc: list[int], period: int, wrap: int, c0: int, c1: int) -> int:
    """Row offset of oscillator [step, spent] over cycles [c0, c1); moves it to c1."""
    offset = osc[0] * period + osc[1] - c0
    step, osc[1] = divmod(offset + c1, period)
    osc[0] = step % wrap
    return offset


def render_writes(stream: TimedWriteStream) -> PcmBuffer:
    """Render a timed write stream to PCM, one sample per stream sample."""
    check_stream(stream)    # before np.empty, not by replaying first: that raised peak RSS
    out = np.empty(int(stream.total_samples))
    # [sequence step, cycles spent in it]; noise steps through the cycle of lfsr
    pulse, tri, noise, lfsr = [[0, 0], [0, 0]], [0, 0], [0, 0], 1
    rows, first, c1 = [], 0, 0
    cycle_base, cycle_pos, cycle_len, cycle_state, cycle_bit = _lfsr_cycle_tables()
    for _start, end, segment in apu.iter_segments(stream):
        (p1_timer, p1_duty, p1_volume, p2_timer, p2_duty, p2_volume,
         tr_timer, no_period, no_mode, no_volume, phase_reset) = segment
        # cycles counted from the block's first sample keep the rows small
        c0, c1 = c1, _cycles(end) - _cycles(first)
        if phase_reset & 1:
            pulse[0] = [0, 0]
        if phase_reset & 2:
            pulse[1] = [0, 0]
        row = [end]
        for osc, timer, duty, volume in ((pulse[0], p1_timer, p1_duty, p1_volume),
                                         (pulse[1], p2_timer, p2_duty, p2_volume)):
            period = 2 * (timer + 1)    # duty steps take 2(t+1) cycles
            # a silent pulse has volume 0, whose table rows are all 0
            row += (period, _advance(osc, period, 8, c0, c1), (duty * 16 + volume) * 8)
        if tr_timer >= 0:
            period = tr_timer + 1
            row += (period, _advance(tri, period, 32, c0, c1), 32)
        else:
            row += (1, 0, 0)    # gated: phase frozen, silent row
        if no_volume:
            period = NOISE_PERIODS[no_period]
            base, length = cycle_base.item(no_mode, lfsr), cycle_len.item(no_mode, lfsr)
            noise[0] = cycle_pos.item(no_mode, lfsr)
            row += (period, _advance(noise, period, length, c0, c1), base, length, no_volume)
            lfsr = cycle_state.item(base + noise[0])
        else:
            row += (1, 0, 0, 1, 0)  # the LFSR only advances while audible
        rows.append(row)
        if end - first >= _BLOCK or end == len(out):
            _render_block(out, first, rows, cycle_bit)
            first, c1, rows = end, 0, []
    np.clip(out, -1.0, 1.0, out=out)
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
    quantized = np.clip(np.rint(buffer.samples * 32767.0), -32767, 32767)
    pcm = quantized.astype("<i2").tobytes()
    bio = io.BytesIO()
    with wave.open(bio, "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(buffer.sample_rate)
        wav.writeframes(pcm)
    return bio.getvalue()
