"""Oscillators, mixer, write scheduling, rendering and WAV emission."""

import hashlib
import math
import random
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_score
from nesscore import apu, synth
from nesscore.score import (
    SILENCE,
    ExpressiveFrame,
    ExpressiveScore,
    downsample,
    frame_sample_index,
)
from nesscore.synth import (
    NOISE_PERIODS,
    PcmBuffer,
    lfsr_step,
    mix,
    render_writes,
    score_to_writes,
    write_wav,
)
from nesscore.vgm import (
    BadWriteOffset,
    BadWriteValue,
    OffsetOverflow,
    RegisterOutOfRange,
    TimedWrite,
    TimedWriteStream,
)

A440 = ExpressiveFrame(p1_note=69, p1_vel=15, p1_timbre=2)
TRI220 = ExpressiveFrame(tr_note=57)


def extract(stream):
    return downsample(apu.extract_timeline(stream), 24.0)


class TestScoreToWrites:
    def test_silent_score_single_enable_write(self):
        stream = score_to_writes(ExpressiveScore(24.0, [SILENCE] * 10))
        assert stream.writes == [TimedWrite(0, 0x4015, 0x00)]
        assert stream.total_samples == (10 * 44100) // 24

    def test_empty_score(self):
        stream = score_to_writes(ExpressiveScore(24.0, []))
        assert stream.total_samples == 0
        assert extract(stream).frames == []

    def test_one_note_round_trip(self):
        score = ExpressiveScore(24.0, [A440] * 12)
        assert extract(score_to_writes(score)) == score

    def test_velocity_change_does_not_retrigger(self):
        frames = [A440._replace(p1_vel=v) for v in (15, 15, 10, 10, 4, 4)]
        stream = score_to_writes(ExpressiveScore(24.0, frames))
        regs = [w.register for w in stream.writes]
        assert regs.count(0x4003) == 1
        assert regs.count(0x4000) == 3  # initial + two velocity updates

    def test_note_change_retriggers(self):
        frames = [A440, A440, A440._replace(p1_note=72)]
        stream = score_to_writes(ExpressiveScore(24.0, frames))
        assert [w.register for w in stream.writes].count(0x4003) == 2

    def test_sweep_guard_written_before_first_pulse_note(self):
        # low pulse notes need negate mode or the sweep target mutes them
        frames = [SILENCE, ExpressiveFrame(p1_note=36, p1_vel=9)]
        stream = score_to_writes(ExpressiveScore(24.0, frames))
        regs = [w.register for w in stream.writes]
        assert regs.index(0x4001) < regs.index(0x4003)
        assert extract(stream).frames == frames

    def test_unsynthesizable_note_raises(self):
        with pytest.raises(apu.NoteOutOfRange, match="^frame 0: P1 note 32 "):
            score_to_writes(ExpressiveScore(
                24.0, [ExpressiveFrame(p1_note=32, p1_vel=9)]))
        # pulse 32 is a valid state: the error names where it sits
        with pytest.raises(apu.NoteOutOfRange, match="^frame 2: P2 note 32 "):
            score_to_writes(ExpressiveScore(
                24.0, [SILENCE, A440, A440._replace(p2_note=32, p2_vel=9)]))

    def test_round_trip_all_voices(self, rng):
        for _ in range(25):
            score = random_score(rng, rng.randint(1, 30))
            assert extract(score_to_writes(score)) == score


class TestMix:
    def test_silence_is_exactly_zero(self):
        assert mix(0, 0, 0, 0) == 0.0

    def test_two_full_pulses(self):
        # 95.88/(8128/30 + 100) = 0.258483, doubled by the output gain
        assert mix(15, 15, 0, 0) == pytest.approx(2 * 0.2584831, abs=1e-6)

    def test_formula_cross_check(self):
        expected = 159.79 / (1.0 / (11 / 8227 + 6 / 12241) + 100.0)
        assert mix(0, 0, 11, 6) == pytest.approx(2 * expected, rel=1e-12)

    def test_monotone_in_each_argument(self):
        base = (4, 7, 3, 5)
        for pos in range(4):
            levels = []
            for v in range(16):
                args = list(base)
                args[pos] = v
                levels.append(mix(*args))
            assert all(x <= y for x, y in zip(levels, levels[1:]))

    def test_bounded(self):
        assert -1.0 <= mix(15, 15, 15, 15) <= 1.0


class TestLfsr:
    def test_mode0_full_period(self):
        state = 1
        for steps in range(1, 40000):
            state = lfsr_step(state, 0)
            if state == 1:
                break
        assert steps == 32767

    def test_never_zero(self):
        for mode in (0, 1):
            state = 1
            for _ in range(5000):
                state = lfsr_step(state, mode)
                assert state != 0

    def test_feedback_taps(self):
        # mode 0 taps bit 1, mode 1 taps bit 6
        assert lfsr_step(0b000000000000010, 0) == 0b100000000000001
        assert lfsr_step(0b000000001000000, 1) == 0b100000000100000


BASE, POS, LEN, STATE, BIT = synth._lfsr_cycle_tables()


def _gather(state, mode, k):
    """State k LFSR steps after ``state``, read from the cycle tables."""
    base, pos = int(BASE[mode, state]), int(POS[mode, state])
    return int(STATE[base + (pos + k) % int(LEN[mode, state])])


class TestLfsrTables:
    @pytest.mark.parametrize("mode", (0, 1))
    def test_every_state_steps_like_lfsr_step(self, mode):
        states = np.arange(1 << 15)
        slot = BASE[mode] + POS[mode]
        nxt = BASE[mode] + (POS[mode] + 1) % LEN[mode]
        assert np.array_equal(STATE[slot], states)
        assert np.array_equal(BIT[slot], states & 1)
        expected = [lfsr_step(s, mode) for s in range(1 << 15)]
        assert STATE[nxt].tolist() == expected

    def test_gathered_steps_match_repeated_steps(self, rng):
        pairs = [(rng.randrange(1 << 15), rng.randint(0, 3000), rng.randint(0, 1))
                 for _ in range(60)]
        pairs += [(1, 32767, 0), (1, 40000, 0), (0, 5, 0), (0, 5, 1)]
        for state, k, mode in pairs:
            expected = state
            for _ in range(k):
                expected = lfsr_step(expected, mode)
            assert _gather(state, mode, k) == expected, (state, k, mode)

    def test_cycle_structure(self):
        def cycle_lengths(mode):
            cycles = dict(zip(BASE[mode].tolist(), LEN[mode].tolist()))
            return sorted(Counter(cycles.values()).items())

        assert cycle_lengths(0) == [(1, 1), (32767, 1)]
        assert cycle_lengths(1) == [(1, 1), (31, 1), (93, 352)]

    def test_tables_are_compact(self):
        tables = synth._lfsr_cycle_tables()
        assert all(isinstance(t, np.ndarray) for t in tables)
        assert sum(t.nbytes for t in tables) < 1 << 20


class TestRender:
    def test_silence_renders_exact_zeros(self):
        buf = render_writes(TimedWriteStream(total_samples=4410))
        assert buf.samples.shape == (4410,)
        assert not buf.samples.any()

    def test_output_length_matches_stream(self):
        stream = score_to_writes(ExpressiveScore(24.0, [A440] * 5))
        assert len(render_writes(stream).samples) == stream.total_samples

    def test_pulse_is_two_level(self):
        stream = score_to_writes(ExpressiveScore(24.0, [A440] * 8))
        buf = render_writes(stream)
        values = set(np.round(buf.samples, 9))
        assert values == {0.0, round(mix(15, 0, 0, 0), 9)}

    def test_pulse_duty_fraction(self):
        # duty 2 is the 50% setting: roughly half the samples sit high
        stream = score_to_writes(ExpressiveScore(24.0, [A440] * 24))
        buf = render_writes(stream)
        high = (buf.samples > 0).mean()
        assert 0.45 < high < 0.55

    def test_triangle_staircase_levels(self):
        stream = score_to_writes(ExpressiveScore(24.0, [TRI220] * 24))
        buf = render_writes(stream)
        levels = {round(v, 9) for v in buf.samples}
        expected = {round(mix(0, 0, t, 0), 9) for t in range(16)}
        assert levels <= expected
        assert len(levels) > 10  # most steps visited

    def test_noise_uses_volume_gate(self):
        frames = [ExpressiveFrame(no_note=8, no_vel=9, no_timbre=0)] * 8
        buf = render_writes(score_to_writes(ExpressiveScore(24.0, frames)))
        values = set(np.round(buf.samples, 9))
        assert values == {0.0, round(mix(0, 0, 0, 9), 9)}

    def test_deterministic(self):
        frames = [ExpressiveFrame(no_note=3, no_vel=9)] * 6
        stream = score_to_writes(ExpressiveScore(24.0, frames))
        a, b = render_writes(stream), render_writes(stream)
        assert np.array_equal(a.samples, b.samples)

    def test_phase_reset_on_note_start(self):
        # identical back-to-back renders of the same note start identically
        one = render_writes(score_to_writes(ExpressiveScore(24.0, [A440] * 4)))
        two = render_writes(score_to_writes(ExpressiveScore(24.0, [A440] * 8)))
        n = len(one.samples)
        assert np.array_equal(one.samples, two.samples[:n])

    @pytest.mark.parametrize("stream, error", [
        (TimedWriteStream(total_samples=2 ** 32), OffsetOverflow),
        (TimedWriteStream([TimedWrite(44_100_001, 0x4015, 0)], total_samples=44_100_000),
         BadWriteOffset),
        (TimedWriteStream([TimedWrite(44_100_000, 0x4018, 0)], total_samples=44_100_000),
         RegisterOutOfRange),
        (TimedWriteStream([TimedWrite(44_100_000, 0x4015, 256)], total_samples=44_100_000),
         BadWriteValue),
    ], ids=["total past 32 bits", "write past the end", "register past $4017",
            "value past a byte"])
    def test_rejected_stream_allocates_nothing(self, monkeypatch, stream, error):
        def allocate(*args, **kwargs):
            raise AssertionError("the output was allocated before the stream was checked")
        monkeypatch.setattr(synth.np, "empty", allocate)
        with pytest.raises(error):
            render_writes(stream)


def estimate_fundamental(samples: np.ndarray, lo_hz=20.0, hi_hz=2000.0) -> float:
    """Autocorrelation pitch estimator with parabolic peak refinement."""
    x = samples - samples.mean()
    n = len(x)
    spectrum = np.fft.rfft(x, 2 * n)
    r = np.fft.irfft(spectrum * np.conj(spectrum))[:n]
    lo = int(44100 / hi_hz)
    hi = int(44100 / lo_hz)
    lag = lo + int(np.argmax(r[lo:hi]))
    if 0 < lag < n - 1:
        a, b, c = r[lag - 1], r[lag], r[lag + 1]
        denom = a - 2 * b + c
        if denom:
            lag = lag + 0.5 * (a - c) / denom
    return 44100.0 / lag


class TestPitch:
    def test_pulse_440(self):
        buf = render_writes(score_to_writes(ExpressiveScore(24.0, [A440] * 24)))
        target = apu.CPU_HZ / (16 * 254)  # timer-quantized 440.35 Hz
        assert estimate_fundamental(buf.samples) == pytest.approx(target, abs=1.0)

    def test_triangle_220(self):
        buf = render_writes(score_to_writes(ExpressiveScore(24.0, [TRI220] * 24)))
        target = apu.CPU_HZ / (32 * 254)
        assert estimate_fundamental(buf.samples) == pytest.approx(target, abs=1.0)


class TestWav:
    def test_empty_buffer_header_only(self):
        data = write_wav(PcmBuffer(np.zeros(0)))
        assert len(data) == 44
        assert data[:4] == b"RIFF" and data[8:12] == b"WAVE"
        assert struct.unpack("<I", data[40:44])[0] == 0

    def test_header_fields(self):
        data = write_wav(PcmBuffer(np.zeros(10)))
        channels, rate = struct.unpack("<HI", data[22:28])
        bits = struct.unpack("<H", data[34:36])[0]
        assert (channels, rate, bits) == (1, 44100, 16)

    def test_full_scale_samples(self):
        assert write_wav(PcmBuffer(np.array([1.0])))[-2:] == b"\xff\x7f"
        assert write_wav(PcmBuffer(np.array([-1.0])))[-2:] == b"\x01\x80"

    def test_quantization(self):
        data = write_wav(PcmBuffer(np.array([0.5])))
        assert struct.unpack("<h", data[-2:])[0] == round(0.5 * 32767)


class TestNoisePeriods:
    def test_table_shape(self):
        assert len(NOISE_PERIODS) == 16
        assert NOISE_PERIODS[0] == 4 and NOISE_PERIODS[15] == 4068
        assert list(NOISE_PERIODS) == sorted(NOISE_PERIODS)


def _stream(total, *writes):
    return TimedWriteStream([TimedWrite(*w) for w in writes], total_samples=total)


# Hand-built streams whose rendered PCM is pinned bit for bit.  Each one
# drives a renderer path that the score-level tests above cannot isolate.
# The digests were recorded with the earlier renderer, which rendered each
# segment on its own and stepped the noise LFSR one step at a time.
PINNED_STREAMS = {
    "noise_mode_switch": _stream(
        5000, (0, 0x4015, 0x08), (0, 0x400C, 0x3F), (0, 0x400E, 0x02),
        (0, 0x400F, 0x08), (1500, 0x400E, 0x82), (3000, 0x400E, 0x05)),
    "noise_silent_gap": _stream(
        6000, (0, 0x4015, 0x08), (0, 0x400C, 0x3F), (0, 0x400E, 0x00),
        (0, 0x400F, 0x08), (1000, 0x400C, 0x30), (2500, 0x400C, 0x3A),
        (3500, 0x4015, 0x00), (4000, 0x4015, 0x08), (4000, 0x400F, 0x08)),
    "pulse_phase_resets": _stream(
        4000, (0, 0x4015, 0x03), (0, 0x4001, 0x08), (0, 0x4005, 0x08),
        (0, 0x4000, 0xBF), (0, 0x4002, 0xFD), (0, 0x4003, 0x08),
        (0, 0x4004, 0x7A), (0, 0x4006, 0x40), (0, 0x4007, 0x09),
        (777, 0x4003, 0x08), (1333, 0x4007, 0x09), (2001, 0x4002, 0x80),
        (2500, 0x4003, 0x08), (2500, 0x4007, 0x09)),
    "pulse_sweep_muted": _stream(
        6000, (0, 0x4015, 0x03), (0, 0x4001, 0x08), (0, 0x4000, 0xBF),
        (0, 0x4002, 0x05), (0, 0x4003, 0x08), (0, 0x4005, 0x00),
        (0, 0x4004, 0x7C), (0, 0x4006, 0x00), (0, 0x4007, 0x0D),
        (1000, 0x4002, 0x07), (2000, 0x4002, 0x08), (2500, 0x4005, 0x08),
        (3500, 0x4001, 0x99), (3500, 0x4002, 0xF0), (3500, 0x4003, 0x09)),
    "triangle_gate": _stream(
        5000, (0, 0x4015, 0x04), (0, 0x4008, 0xFF), (0, 0x400A, 0x40),
        (0, 0x400B, 0x08), (300, 0x4017, 0x80), (1200, 0x4008, 0x80),
        (2600, 0x4008, 0xFF), (3600, 0x400A, 0x01), (3600, 0x400B, 0x08),
        (4200, 0x400A, 0x40), (4200, 0x400B, 0x08)),
    "envelope_decay": _stream(
        14000, (0, 0x4015, 0x0B), (0, 0x4001, 0x08), (0, 0x4005, 0x08),
        (0, 0x4000, 0x03), (0, 0x4002, 0x90), (0, 0x4003, 0x08),
        (0, 0x4004, 0x62), (0, 0x4006, 0x20), (0, 0x4007, 0x0B),
        (0, 0x400C, 0x04), (0, 0x400E, 0x08), (0, 0x400F, 0x08)),
    "spans_blocks": _stream(
        70000, (0, 0x4015, 0x0F), (0, 0x4001, 0x08), (0, 0x4005, 0x08),
        (0, 0x4000, 0x79), (0, 0x4002, 0xAB), (0, 0x4003, 0x09),
        (0, 0x4004, 0xA1), (0, 0x4006, 0x55), (0, 0x4007, 0x08),
        (0, 0x4008, 0xFF), (0, 0x400A, 0x77), (0, 0x400B, 0x08),
        (0, 0x400C, 0x37), (0, 0x400E, 0x84), (0, 0x400F, 0x08),
        (32700, 0x4002, 0x31), (33000, 0x400E, 0x03), (65500, 0x4003, 0x09)),
    "empty": _stream(0),
}

PINNED_DIGESTS = {
    "empty": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "envelope_decay": "1a8afb2f5cce7a4860040e802cdf3722ece721ca679e228b2949495a613cd947",
    "noise_mode_switch": "823c26e7cef08fca4f6d0f43d85ce67cfc4f3276303d14f1b03e3156dd802b44",
    "noise_silent_gap": "8175fccb904cd0a8fbf5ab8869a204b2ecedc22f0e963e9cf4cf5c73c5c2d338",
    "pulse_phase_resets": "3ad4fa69f9ae3c6ffbdac9e74fa0f7b070f2e93ae7f81cbdf9d131592bf773a8",
    "pulse_sweep_muted": "5e621066ff60f097188d2fa6f674ce6227d0ef937b7d7932683befa7d83b511f",
    "spans_blocks": "bb0e14949042b67b53efdd257553f92b466702b9cd41aa340d2becfceaa28352",
    "triangle_gate": "f236abbff59590f7afe45a49d08d5b5c2f480719fbdf2b080317b559860d1fa2",
}


class TestPinnedPcm:
    def test_a_stream_spans_several_blocks(self):
        assert PINNED_STREAMS["spans_blocks"].total_samples > 2 * synth._BLOCK

    @pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
    def test_digest(self, name):
        samples = render_writes(PINNED_STREAMS[name]).samples
        assert samples.dtype == np.float64
        assert len(samples) == PINNED_STREAMS[name].total_samples
        assert hashlib.sha256(samples.tobytes()).hexdigest() == PINNED_DIGESTS[name]

    @pytest.mark.parametrize("block", (1, 700))
    def test_digests_do_not_depend_on_block_size(self, monkeypatch, block):
        monkeypatch.setattr(synth, "_BLOCK", block)
        for name, stream in PINNED_STREAMS.items():
            samples = render_writes(stream).samples
            assert hashlib.sha256(samples.tobytes()).hexdigest() == PINNED_DIGESTS[name], name


def solo(stream: TimedWriteStream, voice: int) -> TimedWriteStream:
    """The stream with every voice but one (0 P1 .. 3 NO) kept off through $4015."""
    keep = 1 << voice
    return TimedWriteStream([w._replace(value=w.value & keep) if w.register == 0x4015 else w
                             for w in stream.writes], stream.total_samples)


def edge_pitch(samples: np.ndarray) -> float | None:
    """MIDI pitch, as a float, of a periodic signal from its rising edges.

    An edge is a sample above the midpoint of the signal's range after one at
    or below it; None with fewer than two edges.
    """
    above = samples > (samples.min() + samples.max()) / 2
    edges = np.flatnonzero(above[1:] & ~above[:-1])
    if len(edges) < 2:
        return None
    period = (edges[-1] - edges[0]) / (len(edges) - 1)
    return 69 + 12 * math.log2(44100 / period / 440)


class TestRenderMatchesExtraction:
    """Each voice rendered alone sounds exactly on the frames extraction scores it on."""

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 16))
    @settings(derandomize=True, max_examples=25, deadline=None)
    def test_solo_voices(self, seed, n_frames):
        stream = score_to_writes(random_score(random.Random(seed), n_frames))
        bounds = frame_sample_index(np.arange(n_frames + 1), 24.0).tolist()
        # note columns of P1, P2, TR, NO; the noise note is no pitch
        for voice, (column, pitched) in enumerate(((0, True), (3, True), (6, True), (7, False))):
            alone = solo(stream, voice)
            notes = extract(alone).to_array()[:, column].tolist()
            pcm = render_writes(alone).samples
            for k, note in enumerate(notes):
                frame = pcm[bounds[k]:bounds[k + 1]]
                assert frame.any() == (note > 0), (voice, k)
                pitch = edge_pitch(frame) if note and pitched else None
                if pitch is not None:
                    assert round(pitch) == note, (voice, k, pitch)
