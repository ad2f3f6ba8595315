"""The per-segment renderer that rendering straight from the replay table replaced.

Kept as the reference ``TestRenderAgainstLoop`` compares ``synth.render_writes``
against.  A Python pass carries each oscillator (duty sequencer, triangle
staircase, noise LFSR) across every replay segment in whole CPU cycles and
records one parameter row per segment; once rows cover ``_BLOCK`` samples,
``_render_block`` turns them into PCM.  The waveform and mixer tables are
built here from synth's sequences and ``mix``; the LFSR cycle tables are
synth's.  It mixes in floats and quantises each sample at the end, by the
rule ``write_wav`` applied to float PCM (times 32767, rounded half to even,
clipped to +-32767), where synth quantises its mixer table once.
"""

import numpy as np

from nesscore import apu
from nesscore.score import SAMPLE_RATE
from nesscore.synth import (
    DUTY_SEQUENCES,
    NOISE_PERIODS,
    TRIANGLE_SEQUENCE,
    _lfsr_cycle_tables,
    mix,
)
from nesscore.vgm import TimedWriteStream

_BLOCK = 1 << 13   # samples per whole-block numpy pass

# Pulse output level at (duty * 16 + volume) * 8 + step: one gather per sample.
_PULSE_WAVE = np.array([level * volume for duty in DUTY_SEQUENCES
                        for volume in range(16) for level in duty])
# Triangle level times 16 at gate * 32 + step; the gated row is silent.
_TRI_WAVE = 16 * np.array((0,) * 32 + TRIANGLE_SEQUENCE)
# ``mix`` of each group alone, which never reaches the clamp: by p1 + p2, by t * 16 + n.
_PULSE_MIX = np.array([mix(s, 0, 0, 0) for s in range(31)])
_TND_MIX = np.array([mix(0, 0, t, n) for t in range(16) for n in range(16)])


def _cycles(sample):
    """CPU cycles elapsed before a sample index (int or array)."""
    return sample * apu.CPU_HZ // SAMPLE_RATE


def _segments(stream: TimedWriteStream):
    """(start, end, row) of each replay segment, the row a list."""
    starts, rows = apu.replay(stream)
    ends = starts[1:].tolist() + [int(stream.total_samples)]
    return zip(starts.tolist(), ends, map(np.ndarray.tolist, rows))


def _render_block(out: np.ndarray, first: int, rows: list, noise_levels: np.ndarray) -> None:
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
    noise = noise_levels.take(seg[11] + no % seg[12]) * seg[13]
    tnd = _TRI_WAVE.take(seg[8] + (tr & 31)) + noise
    np.add(_PULSE_MIX.take(pulses), _TND_MIX.take(tnd), out=out[first:last])


def _advance(osc: list[int], period: int, wrap: int, c0: int, c1: int) -> int:
    """Row offset of oscillator [step, spent] over cycles [c0, c1); moves it to c1."""
    offset = osc[0] * period + osc[1] - c0
    step, osc[1] = divmod(offset + c1, period)
    osc[0] = step % wrap
    return offset


def render_writes(stream: TimedWriteStream) -> np.ndarray:
    """Render a timed write stream to int16 PCM, one sample per stream sample."""
    segments = _segments(stream)
    out = np.empty(int(stream.total_samples))
    # [sequence step, cycles spent in it]; noise steps through the cycle of lfsr
    pulse, tri, noise, lfsr = [[0, 0], [0, 0]], [0, 0], [0, 0], 1
    rows, first, c1 = [], 0, 0
    cycle_base, cycle_pos, cycle_len, cycle_state, noise_levels = _lfsr_cycle_tables()
    for _start, end, segment in segments:
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
            _render_block(out, first, rows, noise_levels)
            first, c1, rows = end, 0, []
    np.clip(out, -1.0, 1.0, out=out)
    out *= 32767.0
    np.rint(out, out=out)
    np.clip(out, -32767, 32767, out=out)
    return out.astype(np.int16)
