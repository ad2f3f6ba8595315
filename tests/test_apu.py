"""Register semantics, sequencer units, pitch maps and timeline extraction."""

import copy
import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nesscore.apu import (
    ApuState,
    BadWriteOffset,
    CPU_HZ,
    LENGTH_TABLE,
    NoteOutOfRange,
    RegisterOutOfRange,
    extract_timeline,
    midi_to_timer,
    pitch_to_midi,
    snapshot,
)
from nesscore.score import SILENCE, validate
from nesscore.synth import render_writes
from nesscore.vgm import TimedWrite, TimedWriteStream
from nesscore import score as sc
from reference_downsample import frame_at


def formula_midi(timer: int, divisor: int) -> int:
    """Independent pitch oracle: direct evaluation of the mapping formula."""
    freq = CPU_HZ / (divisor * (timer + 1))
    return round(69 + 12 * math.log2(freq / 440.0))


def written(state: ApuState, *writes) -> ApuState:
    """A copy of state after the (register, value) writes; state is untouched."""
    out = copy.deepcopy(state)
    for register, value in writes:
        out.write(register, value)
    return out


def ticked(state: ApuState, *kinds) -> ApuState:
    """A copy of state after the "quarter"/"half" sequencer ticks."""
    out = copy.deepcopy(state)
    for kind in kinds:
        getattr(out, f"{kind}_tick")()
    return out


class TestRegisterWrites:
    def test_pulse_control_bitfields(self):
        # 0xBF = 10 1 1 1111: duty 2, halt, constant volume, level 15
        s = written(ApuState(), (0x4000, 0xBF))
        assert (s.p1.duty, s.p1.length_halt, s.p1.constant_volume, s.p1.volume) \
            == (2, True, True, 15)
        assert s.p2 == ApuState().p2

    def test_sweep_setup_sets_reload(self):
        s = written(ApuState(), (0x4001, 0xAB))  # 1 010 1 011
        sw = s.p1.sweep
        assert (sw.enabled, sw.period, sw.negate, sw.shift, sw.reload) \
            == (True, 2, True, 3, True)

    def test_timer_low_high(self):
        s = written(ApuState(), (0x4002, 0xFD), (0x4003, 0x08))
        assert s.p1.timer_period == 0xFD

    def test_length_load_requires_enable(self):
        s = written(ApuState(), (0x4003, 0x08))
        assert s.p1.length_counter == 0
        s = written(ApuState(), (0x4015, 0x01), (0x4003, 0x08))
        assert s.p1.length_counter == 254  # load field 1 -> table entry 254

    def test_length_table_is_canonical(self):
        assert len(LENGTH_TABLE) == 32
        assert LENGTH_TABLE[0] == 10 and LENGTH_TABLE[1] == 254
        assert max(LENGTH_TABLE) == 254

    def test_disable_zeroes_length(self):
        s = written(ApuState(), (0x4015, 0x0F), (0x4003, 0x08), (0x4007, 0x08),
                    (0x400B, 0x08), (0x400F, 0x08))
        assert all(c.length_counter > 0 for c in (s.p1, s.p2, s.tr, s.no))
        s = written(s, (0x4015, 0x00))
        assert all(c.length_counter == 0 for c in (s.p1, s.p2, s.tr, s.no))

    def test_envelope_start_flag(self):
        s = written(ApuState(), (0x4015, 0x01), (0x4003, 0x00))
        assert s.p1.envelope.start

    def test_triangle_linear_setup(self):
        s = written(ApuState(), (0x4008, 0xFF))
        assert s.tr.linear_control and s.tr.linear_reload_value == 127
        s = written(s, (0x400B, 0x00))
        assert s.tr.linear_reload

    def test_noise_mode_and_period(self):
        s = written(ApuState(), (0x400E, 0x84))
        assert (s.no.mode, s.no.period_index) == (1, 4)

    def test_frame_mode(self):
        s = written(ApuState(), (0x4017, 0x80))
        assert s.frame_mode == 5
        assert written(s, (0x4017, 0x00)).frame_mode == 4

    def test_sampler_registers_are_noops(self):
        base = ApuState()
        for reg in range(0x4010, 0x4015):
            assert written(base, (reg, 0xFF)) == base

    def test_register_out_of_range(self):
        with pytest.raises(RegisterOutOfRange):
            ApuState().write(0x4018, 0)


class TestFrameSequencer:
    def test_envelope_start_then_quarter(self):
        s = ApuState()
        s.p1.envelope.start = True
        s = ticked(s, "quarter")
        assert s.p1.envelope.decay_level == 15
        assert not s.p1.envelope.start

    def test_envelope_decays_and_loops(self):
        s = ApuState()
        s.p1.envelope.decay_level = 1
        s.p1.length_halt = True  # loop flag
        s = ticked(s, "quarter")
        assert s.p1.envelope.decay_level == 0
        s = ticked(s, "quarter")
        assert s.p1.envelope.decay_level == 15

    def test_envelope_monotone_without_loop(self):
        rng = random.Random(7)
        s = ApuState()
        s.p1.envelope.start = True
        s.p1.volume = 3  # envelope divider period
        s = ticked(s, "quarter")
        levels = [s.p1.envelope.decay_level]
        for _ in range(120):
            s = ticked(s, rng.choice(("quarter", "half")))
            levels.append(s.p1.envelope.decay_level)
        assert all(a >= b for a, b in zip(levels, levels[1:]))
        assert levels[-1] == 0

    def test_length_counts_down_on_half(self):
        s = ApuState()
        s.p1.length_counter = 5
        s = ticked(s, "half")
        assert s.p1.length_counter == 4

    def test_length_floor_and_halt(self):
        s = ApuState()
        assert ticked(s, "half").p1.length_counter == 0
        s.p1.length_counter = 5
        s.p1.length_halt = True
        assert ticked(s, "half").p1.length_counter == 5

    def test_quarter_does_not_clock_length(self):
        s = ApuState()
        s.p1.length_counter = 5
        assert ticked(s, "quarter").p1.length_counter == 5

    def test_linear_counter_reload_and_clear(self):
        s = ApuState()
        s.tr.linear_reload_value = 50
        s.tr.linear_reload = True
        s.tr.linear_control = False
        s = ticked(s, "quarter")
        assert s.tr.linear_counter == 50
        assert not s.tr.linear_reload  # cleared because control is off
        s = ticked(s, "quarter")
        assert s.tr.linear_counter == 49

    def test_linear_reload_persists_under_control(self):
        s = ApuState()
        s.tr.linear_reload_value = 9
        s.tr.linear_reload = True
        s.tr.linear_control = True
        for _ in range(3):
            s = ticked(s, "quarter")
            assert s.tr.linear_counter == 9 and s.tr.linear_reload

    def test_sweep_adds_change_on_fire(self):
        s = ApuState()
        s.p2.enabled = True
        s.p2.timer_period = 0x100
        s.p2.sweep.enabled = True
        s.p2.sweep.shift = 1
        s = ticked(s, "half")  # divider at 0 fires immediately
        assert s.p2.timer_period == 0x100 + 0x80

    def test_sweep_negate_asymmetry(self):
        base = ApuState()
        for ch_name, expected in (("p1", 0x100 - 0x80 - 1), ("p2", 0x100 - 0x80)):
            s = copy.deepcopy(base)
            ch = getattr(s, ch_name)
            ch.enabled = True
            ch.timer_period = 0x100
            ch.sweep.enabled = True
            ch.sweep.shift = 1
            ch.sweep.negate = True
            s = ticked(s, "half")
            assert getattr(s, ch_name).timer_period == expected

    def test_sweep_does_not_fire_when_muted(self):
        s = ApuState()
        s.p1.enabled = True
        s.p1.timer_period = 0x700  # target 0xA80 > 0x7FF -> muted
        s.p1.sweep.enabled = True
        s.p1.sweep.shift = 1
        assert ticked(s, "half").p1.timer_period == 0x700

    def test_five_step_pattern_rates(self):
        from nesscore.apu import _fire_tick

        # 4-step: a half tick every 2nd position -> 5 length clocks per 10
        s4 = ApuState()
        s4.p1.length_counter = 100
        for i in range(1, 11):
            _fire_tick(s4, i)
        assert s4.p1.length_counter == 95
        # 5-step: halves at positions 2 and 5, position 4 silent -> 4 per 10
        s5 = ApuState()
        s5.frame_mode = 5
        s5.p1.length_counter = 100
        for i in range(1, 11):
            _fire_tick(s5, i)
        assert s5.p1.length_counter == 96


def sounding_pulse(timer=253, volume=12, duty=2, negate_sweep=False):
    s = ApuState()
    s.p1.enabled = True
    s.p1.length_counter = 10
    s.p1.constant_volume = True
    s.p1.volume = volume
    s.p1.duty = duty
    s.p1.timer_period = timer
    s.p1.sweep.negate = negate_sweep
    return s


class TestSnapshot:
    def test_pulse_sounding(self):
        # 1789773/(16*254) = 440.35 Hz -> MIDI 69
        frame = snapshot(sounding_pulse())
        assert (frame.p1_note, frame.p1_vel, frame.p1_timbre) == (69, 12, 2)

    def test_zero_velocity_is_canonical_off(self):
        frame = snapshot(sounding_pulse(volume=0))
        assert (frame.p1_note, frame.p1_vel, frame.p1_timbre) == (0, 0, 0)

    def test_disabled_or_expired_is_off(self):
        s = sounding_pulse()
        s.p1.length_counter = 0
        assert snapshot(s).p1_note == 0
        s = sounding_pulse()
        s.p1.enabled = False
        assert snapshot(s).p1_note == 0

    def test_sweep_target_overflow_mutes(self):
        # default sweep (shift 0, no negate): target = 2*timer > 0x7FF
        frame = snapshot(sounding_pulse(timer=0x500))
        assert frame.p1_note == 0
        frame = snapshot(sounding_pulse(timer=0x500, negate_sweep=True))
        assert frame.p1_note > 0

    def test_tiny_timer_mutes(self):
        assert snapshot(sounding_pulse(timer=7, negate_sweep=True)).p1_note == 0

    def test_out_of_range_pitch_is_off(self):
        # timer 20 -> 5326 Hz -> MIDI 112, above the pulse ceiling
        assert snapshot(sounding_pulse(timer=20)).p1_note == 0

    def test_envelope_velocity_source(self):
        s = sounding_pulse()
        s.p1.constant_volume = False
        s.p1.envelope.decay_level = 7
        assert snapshot(s).p1_vel == 7

    def test_triangle(self):
        s = ApuState()
        s.tr.enabled = True
        s.tr.length_counter = 10
        s.tr.linear_counter = 10
        s.tr.timer_period = 253  # one octave below the pulse at the same timer
        assert snapshot(s).tr_note == 57
        s.tr.linear_counter = 0
        assert snapshot(s).tr_note == 0
        s.tr.linear_counter = 10
        s.tr.timer_period = 1
        assert snapshot(s).tr_note == 0

    def test_noise_orientation(self):
        s = ApuState()
        s.no.enabled = True
        s.no.length_counter = 10
        s.no.constant_volume = True
        s.no.volume = 9
        s.no.mode = 1
        s.no.period_index = 4
        frame = snapshot(s)
        assert (frame.no_note, frame.no_vel, frame.no_timbre) == (16 - 4, 9, 1)

    def test_reset_state_is_silent(self):
        assert snapshot(ApuState()) == SILENCE


class TestPitchMaps:
    def test_reference_points(self):
        assert pitch_to_midi(253, "pulse") == 69
        assert pitch_to_midi(253, "triangle") == 57

    def test_matches_formula_everywhere(self):
        for timer in range(0, 0x800, 13):
            for kind, divisor, lo in (("pulse", 16, 32), ("triangle", 32, 21)):
                expected = formula_midi(timer, divisor)
                got = pitch_to_midi(timer, kind)
                assert got == (expected if lo <= expected <= 108 else None)

    def test_floor_timer_maps_to_33(self):
        # 1789773/(16*2048) = 54.62 Hz = MIDI 32.88, rounding to 33: the
        # largest timer still lands inside the pulse range.
        assert formula_midi(2047, 16) == 33
        assert pitch_to_midi(2047, "pulse") == 33

    def test_timer_outside_11_bits_rejected(self):
        for timer in (-1, 0x800):
            with pytest.raises(ValueError):
                pitch_to_midi(timer, "pulse")
        with pytest.raises(ValueError):
            pitch_to_midi(253, "noise")

    def test_out_of_range_high(self):
        assert pitch_to_midi(20, "pulse") is None   # ~5.3 kHz, MIDI 112
        assert pitch_to_midi(1, "triangle") is None

    def test_inverse_reference_points(self):
        assert midi_to_timer(69, "pulse") == 253
        assert midi_to_timer(57, "triangle") == 253
        t = midi_to_timer(108, "pulse")
        assert t in (25, 26) and pitch_to_midi(t, "pulse") == 108

    def test_round_trip_all_producible_notes(self):
        for n in range(33, 109):
            assert pitch_to_midi(midi_to_timer(n, "pulse"), "pulse") == n
        for n in range(21, 109):
            assert pitch_to_midi(midi_to_timer(n, "triangle"), "triangle") == n

    def test_pulse_32_not_representable(self):
        # ideal timer ~2154 exceeds 11 bits; alphabet keeps 32, hardware cannot
        with pytest.raises(NoteOutOfRange):
            midi_to_timer(32, "pulse")

    def test_out_of_range_notes(self):
        with pytest.raises(NoteOutOfRange):
            midi_to_timer(109, "pulse")
        with pytest.raises(NoteOutOfRange):
            midi_to_timer(20, "triangle")


def p1_note_stream(total=40_000):
    # enable P1, constant volume 12, duty 2, timer 253 (A440), halt length
    writes = [TimedWrite(0, 0x4015, 0x01),
              TimedWrite(0, 0x4000, (2 << 6) | 0x30 | 12),
              TimedWrite(0, 0x4002, 0xFD),
              TimedWrite(0, 0x4003, 0x08)]
    return TimedWriteStream(writes, total_samples=total)


def _stream(total, *writes):
    return TimedWriteStream([TimedWrite(*w) for w in writes], total_samples=total)


class TestExtractTimeline:
    def test_empty_stream_is_silent(self):
        tl = extract_timeline(TimedWriteStream(total_samples=100))
        assert tl.total_samples == 100
        assert all(f == SILENCE for _s, f in tl.changes)

    def test_note_from_offset_zero(self):
        tl = extract_timeline(p1_note_stream())
        assert frame_at(tl, 0) == frame_at(tl, 39_999)
        f = frame_at(tl, 0)
        assert (f.p1_note, f.p1_vel, f.p1_timbre) == (69, 12, 2)

    def test_no_enable_write_stays_silent(self):
        writes = [TimedWrite(0, 0x4000, 0xBC), TimedWrite(0, 0x4002, 0xFD),
                  TimedWrite(0, 0x4003, 0x08)]
        tl = extract_timeline(TimedWriteStream(writes, total_samples=2000))
        assert all(f == SILENCE for s, f in tl.changes)

    def test_length_expiry_without_halt(self):
        # halt clear: length 254 runs out after 254 half ticks (~2.1 s)
        writes = [TimedWrite(0, 0x4015, 0x01),
                  TimedWrite(0, 0x4000, 0x10 | 12),  # constant volume, no halt
                  TimedWrite(0, 0x4002, 0xFD),
                  TimedWrite(0, 0x4003, 0x08)]
        tl = extract_timeline(TimedWriteStream(writes, total_samples=120_000))
        assert frame_at(tl, 0).p1_note == 69
        assert frame_at(tl, 119_999).p1_note == 0

    def test_envelope_decay_is_expressive(self):
        # envelope mode (constant_volume off), period 1: velocity decays live
        writes = [TimedWrite(0, 0x4015, 0x01),
                  TimedWrite(0, 0x4000, 0x20 | 0x01),  # halt/loop, env period 1
                  TimedWrite(0, 0x4002, 0xFD),
                  TimedWrite(0, 0x4003, 0x08)]
        tl = extract_timeline(TimedWriteStream(writes, total_samples=30_000))
        vels = [frame_at(tl, s).p1_vel for s in range(0, 30_000, 1837)]
        assert vels[0] == 0  # start flag not yet consumed at sample 0
        assert 15 in vels and vels != sorted(vels)

    def test_triangle_needs_linear_reload_tick(self):
        writes = [TimedWrite(0, 0x4015, 0x04),
                  TimedWrite(0, 0x4008, 0xFF),
                  TimedWrite(0, 0x400A, 0xFD),
                  TimedWrite(0, 0x400B, 0x08)]
        tl = extract_timeline(TimedWriteStream(writes, total_samples=2000))
        assert frame_at(tl, 0).tr_note == 0       # linear counter still zero
        assert frame_at(tl, 400).tr_note == 57    # loaded at the first tick

    def test_4017_immediate_clock_loads_linear(self):
        writes = [TimedWrite(0, 0x4015, 0x04),
                  TimedWrite(0, 0x4008, 0xFF),
                  TimedWrite(0, 0x400A, 0xFD),
                  TimedWrite(0, 0x400B, 0x08),
                  TimedWrite(0, 0x4017, 0x80)]
        tl = extract_timeline(TimedWriteStream(writes, total_samples=2000))
        assert frame_at(tl, 0).tr_note == 57

    def test_sweep_bend_is_recorded(self):
        # sweep enabled, period 1, shift 3: the timer grows ~12.5% per fire,
        # so the extracted pitch glides downward frame over frame
        writes = [TimedWrite(0, 0x4015, 0x01),
                  TimedWrite(0, 0x4000, 0x30 | 12),
                  TimedWrite(0, 0x4001, 0x93),
                  TimedWrite(0, 0x4002, 0xFD),
                  TimedWrite(0, 0x4003, 0x08)]
        tl = extract_timeline(TimedWriteStream(writes, total_samples=44100))
        notes = [frame_at(tl, s).p1_note for s in range(0, 44100, 1837)]
        assert notes[0] == 69
        sounding = [n for n in notes if n > 0]
        assert len(set(sounding)) >= 3
        assert all(a >= b for a, b in zip(sounding, sounding[1:]))

    def test_determinism(self):
        a = extract_timeline(p1_note_stream())
        b = extract_timeline(p1_note_stream())
        assert a.changes == b.changes

    def test_decreasing_offset_rejected(self):
        stream = _stream(2000, (0, 0x4015, 0x01), (700, 0x4002, 0xFD), (700, 0x4003, 0x08),
                         (699, 0x4000, 0xBF), (1500, 0x4000, 0x30))
        for replay in (extract_timeline, render_writes):
            with pytest.raises(BadWriteOffset) as exc:
                replay(stream)
            assert (exc.value.index, exc.value.sample_offset) == (3, 699)
            assert str(exc.value) == "write 3 at sample 699 is before sample 700"

    def test_decrease_after_the_last_segment_rejected(self):
        stream = _stream(1000, (1000, 0x4015, 0x01), (10, 0x4015, 0x00))
        for replay in (extract_timeline, render_writes):
            with pytest.raises(BadWriteOffset) as exc:
                replay(stream)
            assert (exc.value.index, exc.value.sample_offset) == (1, 10)

    def test_write_beyond_end_rejected(self):
        stream = _stream(1000, (0, 0x4015, 0x01), (1000, 0x4015, 0x00), (1001, 0x4015, 0x01))
        for replay in (extract_timeline, render_writes):
            with pytest.raises(BadWriteOffset) as exc:
                replay(stream)
            assert (exc.value.index, exc.value.sample_offset) == (2, 1001)
            assert "beyond the stream end at sample 1000" in str(exc.value)

    def test_write_at_end_is_legal(self):
        # VGM files end with their last writes at the final sample offset
        tail = p1_note_stream(total=5000)
        tail.writes.append(TimedWrite(5000, 0x4015, 0x00))
        assert extract_timeline(tail).changes == extract_timeline(p1_note_stream(5000)).changes
        pcm = render_writes(tail).samples
        assert pcm.any() and np.array_equal(pcm, render_writes(p1_note_stream(5000)).samples)

    def test_propagates_register_errors(self):
        bad = TimedWriteStream([TimedWrite(0, 0x3FFF, 0)], total_samples=10)
        with pytest.raises(RegisterOutOfRange):
            extract_timeline(bad)


def _random_writes(seed, n):
    """Sorted writes to every register, $4017 included, at random offsets."""
    rng = random.Random(seed)
    offset, writes = 0, [(0, 0x4015, 0x0F)]
    for _ in range(n):
        offset += rng.choice((0, 0, 1, 7, 183, 184, 735, 1500))
        writes.append((offset, 0x4000 + rng.randint(0, 0x17), rng.randint(0, 255)))
    return _stream(offset + 3000, *writes)


# Hand-built streams whose extracted change points are pinned.  Between them
# they cover both sequencer modes, $4017 resets with and without bit 7 at
# offsets off the tick grid, sweep, envelope and length-counter expiry.  The
# digests were recorded with the replay loop that recomputed each tick time
# per segment.
PINNED_STREAMS = {
    "four_step_envelopes": _stream(
        60000, (0, 0x4015, 0x0F), (0, 0x4000, 0x42), (0, 0x4002, 0xFD),
        (0, 0x4003, 0x18), (0, 0x4004, 0xA5), (0, 0x4006, 0x80), (0, 0x4007, 0x09),
        (0, 0x4008, 0x30), (0, 0x400A, 0x40), (0, 0x400B, 0x08),
        (0, 0x400C, 0x23), (0, 0x400E, 0x06), (0, 0x400F, 0x28),
        (30000, 0x4003, 0x28), (30000, 0x400B, 0x10)),
    "five_step": _stream(
        60000, (0, 0x4017, 0x80), (0, 0x4015, 0x0F), (0, 0x4000, 0x41),
        (0, 0x4002, 0x70), (0, 0x4003, 0x30), (0, 0x4004, 0x93), (0, 0x4006, 0x40),
        (0, 0x4007, 0x09), (0, 0x4008, 0x18), (0, 0x400A, 0x90), (0, 0x400B, 0x20),
        (0, 0x400C, 0x02), (0, 0x400E, 0x8A), (0, 0x400F, 0x38),
        (25000, 0x4003, 0x30), (25000, 0x400B, 0x20), (25000, 0x400F, 0x38)),
    "reset_4017_mid_stream": _stream(
        50000, (0, 0x4015, 0x0F), (0, 0x4000, 0x03), (0, 0x4002, 0xFD),
        (0, 0x4003, 0x08), (0, 0x4008, 0x0C), (0, 0x400A, 0x40), (0, 0x400B, 0x08),
        (0, 0x400C, 0x01), (0, 0x400E, 0x04), (0, 0x400F, 0x08),
        (10001, 0x4017, 0x00), (20003, 0x4017, 0x80), (20003, 0x400B, 0x08),
        (30007, 0x4017, 0x40), (40009, 0x4017, 0xC0), (40010, 0x4017, 0x80)),
    "sweep": _stream(
        44100, (0, 0x4015, 0x03), (0, 0x4000, 0xBF), (0, 0x4001, 0xB2),
        (0, 0x4002, 0x40), (0, 0x4003, 0x08), (0, 0x4004, 0x7C), (0, 0x4005, 0x89),
        (0, 0x4006, 0xFF), (0, 0x4007, 0x0B), (15000, 0x4001, 0xF9),
        (15000, 0x4002, 0x00), (15000, 0x4003, 0x0A), (30000, 0x4005, 0x00)),
    "length_expiry": _stream(
        30000, (0, 0x4015, 0x0F), (0, 0x4000, 0x1C), (0, 0x4002, 0xFD),
        (0, 0x4003, 0x18), (0, 0x4004, 0x5A), (0, 0x4006, 0x80), (0, 0x4007, 0x29),
        (0, 0x4008, 0x7F), (0, 0x400A, 0x40), (0, 0x400B, 0x38),
        (0, 0x400C, 0x1F), (0, 0x400E, 0x0C), (0, 0x400F, 0x48),
        (9000, 0x4003, 0x18), (9000, 0x4015, 0x05), (12000, 0x4007, 0x29)),
    "random_writes": _random_writes(2024, 400),
}

PINNED_DIGESTS = {
    "five_step": "ac74dd4e431fc8eac007a1125fd0d6501e7bcdb546223721b0e58146aadac426",
    "four_step_envelopes": "b8e2011b29247d2f8072e3a51cd3ba601a9511a52e266404843e3034fb285382",
    "length_expiry": "ff462873589e7846d158a8a1c4c27ccb99d3020a317c179730396189208304d5",
    "random_writes": "b66c0cf65f8db6c2a459142ef797ff2ffdebc7f16e95a1bb7cc0542a7bb38329",
    "reset_4017_mid_stream": "d36e60a4ed3b8d69623cf66e0c31bf2630442c857748de1f9c40a9a143531f3a",
    "sweep": "e4adb8cb1450e69b808f5d98b4ddb28cf3646ffd1111dbe13c554fde3d08292b",
}


def changes_digest(stream):
    tl = extract_timeline(stream)
    return hashlib.sha256(json.dumps([[s, *f] for s, f in tl.changes]).encode()).hexdigest()


class TestPinnedExtraction:
    def test_streams_are_not_trivial(self):
        for name, stream in PINNED_STREAMS.items():
            assert len(extract_timeline(stream).changes) >= 5, name

    @pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
    def test_digest(self, name):
        assert changes_digest(PINNED_STREAMS[name]) == PINNED_DIGESTS[name]


class TestStateSpaces:
    def test_counts_match_closed_forms(self):
        assert len(sc.voice_state_space("P1")) == 1 + 77 * 15 * 4 == 4621
        assert len(sc.voice_state_space("P2")) == 4621
        assert len(sc.voice_state_space("TR")) == 1 + 88 == 89
        assert len(sc.voice_state_space("NO")) == 1 + 16 * 15 * 2 == 481


@given(st.lists(st.tuples(st.integers(0, 2000), st.integers(0, 0x17),
                          st.integers(0, 255)), max_size=25))
@settings(max_examples=60, deadline=None)
def test_extraction_always_canonical(write_specs):
    """Arbitrary register writes can never produce a non-canonical frame."""
    offset = 0
    writes = []
    for delta, reg, val in write_specs:
        offset += delta
        writes.append(TimedWrite(offset, 0x4000 + reg, val))
    stream = TimedWriteStream(writes, total_samples=offset + 500)
    tl = extract_timeline(stream)
    frames = [f for _s, f in tl.changes]
    assert not validate(sc.ExpressiveScore(rate_hz=24.0, frames=frames))
