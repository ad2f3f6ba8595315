"""Register semantics, sequencer units, pitch maps and timeline extraction."""

import copy
import hashlib
import json
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nesscore.apu import (
    CPU_HZ,
    LENGTH_TABLE,
    PULSE_NOTES,
    PULSE_TIMERS,
    ROW_FIELDS,
    TRIANGLE_NOTES,
    TRIANGLE_TIMERS,
    NoteOutOfRange,
    ReplayTooLong,
    extract_timeline,
    frame_table,
    iter_segments,
    midi_to_timer,
    replay,
)
from nesscore.score import ExpressiveFrame, validate
from nesscore.synth import render_writes
from nesscore.vgm import (
    BadWriteOffset,
    BadWriteValue,
    OffsetOverflow,
    RegisterOutOfRange,
    TimedWrite,
    TimedWriteStream,
    parse_vgm,
    write_vgm,
)
from nesscore import score as sc
from conftest import mutate
from reference_downsample import frame_at
import reference_replay
from reference_replay import ApuState, _fire_tick, _noise_row, _pulse_row, _triangle_row


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
        stream = TimedWriteStream([TimedWrite(0, 0x4018, 0)], total_samples=10)
        with pytest.raises(RegisterOutOfRange) as exc:
            replay(stream)
        assert str(exc.value) == "register 0x4018 outside $4000-$4017"


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


def snapshot(state: ApuState) -> ExpressiveFrame:
    """The frame extraction derives from the replay row of this state."""
    row = (_pulse_row(state.p1) + _pulse_row(state.p2) + _triangle_row(state.tr)
           + _noise_row(state.no) + (0,))
    return ExpressiveFrame(*frame_table(np.array([row])).tolist()[0])


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
        assert snapshot(ApuState()) == ExpressiveFrame()


class TestPitchMaps:
    def test_reference_points(self):
        assert PULSE_NOTES[253] == 69
        assert TRIANGLE_NOTES[253] == 57

    def test_matches_formula_everywhere(self):
        for notes, divisor, lo in ((PULSE_NOTES, 16, 32), (TRIANGLE_NOTES, 32, 21)):
            assert len(notes) == 0x800
            for timer in range(0x800):
                expected = formula_midi(timer, divisor)
                assert notes[timer] == (expected if lo <= expected <= 108 else 0)

    def test_timers_match_formula_everywhere(self):
        # per note, the period nearest its frequency, kept where it fits in 11
        # bits and sounds the note
        for timers, divisor, lo in ((PULSE_TIMERS, 16, 32), (TRIANGLE_TIMERS, 32, 21)):
            assert len(timers) == 109
            for note in range(109):
                t = round(CPU_HZ / (divisor * 440.0 * 2.0 ** ((note - 69) / 12)) - 1)
                fits = lo <= note and 0 <= t <= 0x7FF and formula_midi(t, divisor) == note
                assert timers[note] == (t if fits else -1)
        assert PULSE_TIMERS[32] == -1 and 32 not in PULSE_NOTES    # no period sounds it

    def test_floor_timer_maps_to_33(self):
        # 1789773/(16*2048) = 54.62 Hz = MIDI 32.88, rounding to 33: the
        # largest timer still lands inside the pulse range.
        assert formula_midi(2047, 16) == 33
        assert PULSE_NOTES[2047] == 33

    def test_out_of_range_high(self):
        assert PULSE_NOTES[20] == 0   # ~5.3 kHz, MIDI 112
        assert TRIANGLE_NOTES[1] == 0

    def test_inverse_reference_points(self):
        assert midi_to_timer(69, "pulse") == 253
        assert midi_to_timer(57, "triangle") == 253
        t = midi_to_timer(108, "pulse")
        assert t in (25, 26) and PULSE_NOTES[t] == 108

    def test_round_trip_all_producible_notes(self):
        for n in range(33, 109):
            assert PULSE_NOTES[midi_to_timer(n, "pulse")] == n
        for n in range(21, 109):
            assert TRIANGLE_NOTES[midi_to_timer(n, "triangle")] == n

    def test_pulse_32_not_representable(self):
        # ideal timer ~2154 exceeds 11 bits; alphabet keeps 32, hardware cannot
        with pytest.raises(NoteOutOfRange):
            midi_to_timer(32, "pulse")

    def test_out_of_range_notes(self):
        with pytest.raises(NoteOutOfRange):
            midi_to_timer(109, "pulse")
        with pytest.raises(NoteOutOfRange):
            midi_to_timer(20, "triangle")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be 'pulse' or 'triangle', got 'noise'"):
            midi_to_timer(69, "noise")


def p1_note_stream(total=40_000):
    # enable P1, constant volume 12, duty 2, timer 253 (A440), halt length
    writes = [TimedWrite(0, 0x4015, 0x01),
              TimedWrite(0, 0x4000, (2 << 6) | 0x30 | 12),
              TimedWrite(0, 0x4002, 0xFD),
              TimedWrite(0, 0x4003, 0x08)]
    return TimedWriteStream(writes, total_samples=total)


def _stream(total, *writes):
    return TimedWriteStream([TimedWrite(*w) for w in writes], total_samples=total)


# Every reader and writer of streams, each of which applies vgm.check_stream first.
CONSUMERS = (extract_timeline, render_writes, write_vgm)


class TestExtractTimeline:
    def test_empty_stream_is_silent(self):
        tl = extract_timeline(TimedWriteStream(total_samples=100))
        assert tl.total_samples == 100
        assert all(f == ExpressiveFrame() for _s, f in tl.changes)

    def test_note_from_offset_zero(self):
        tl = extract_timeline(p1_note_stream())
        assert frame_at(tl, 0) == frame_at(tl, 39_999)
        f = frame_at(tl, 0)
        assert (f.p1_note, f.p1_vel, f.p1_timbre) == (69, 12, 2)

    def test_no_enable_write_stays_silent(self):
        writes = [TimedWrite(0, 0x4000, 0xBC), TimedWrite(0, 0x4002, 0xFD),
                  TimedWrite(0, 0x4003, 0x08)]
        tl = extract_timeline(TimedWriteStream(writes, total_samples=2000))
        assert all(f == ExpressiveFrame() for s, f in tl.changes)

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
        for consumer in CONSUMERS:
            with pytest.raises(BadWriteOffset) as exc:
                consumer(stream)
            assert (exc.value.index, exc.value.sample_offset) == (3, 699)
            assert str(exc.value) == "write 3 at sample 699 is before sample 700"

    def test_negative_offset_rejected(self):
        stream = _stream(1000, (-1, 0x4015, 0x01))
        for consumer in CONSUMERS:
            with pytest.raises(BadWriteOffset) as exc:
                consumer(stream)
            assert str(exc.value) == "write 0 at sample -1 is before sample 0"

    def test_decrease_after_the_last_segment_rejected(self):
        stream = _stream(1000, (1000, 0x4015, 0x01), (10, 0x4015, 0x00))
        for consumer in CONSUMERS:
            with pytest.raises(BadWriteOffset) as exc:
                consumer(stream)
            assert (exc.value.index, exc.value.sample_offset) == (1, 10)
            assert str(exc.value) == "write 1 at sample 10 is before sample 1000"

    def test_write_beyond_end_rejected(self):
        stream = _stream(1000, (0, 0x4015, 0x01), (1000, 0x4015, 0x00), (1001, 0x4015, 0x01))
        for consumer in CONSUMERS:
            with pytest.raises(BadWriteOffset) as exc:
                consumer(stream)
            assert (exc.value.index, exc.value.sample_offset) == (2, 1001)
            assert str(exc.value) == "write 2 at sample 1001 is beyond the stream end at sample 1000"

    def test_write_at_end_is_legal(self):
        # VGM files end with their last writes at the final sample offset
        tail = _stream(5000, *p1_note_stream(total=5000).writes, (5000, 0x4015, 0x00))
        assert extract_timeline(tail).changes == extract_timeline(p1_note_stream(5000)).changes
        pcm = render_writes(tail)
        assert pcm.any() and np.array_equal(pcm, render_writes(p1_note_stream(5000)))

    def test_propagates_register_errors(self):
        bad = TimedWriteStream([TimedWrite(0, 0x3FFF, 0)], total_samples=10)
        for consumer in CONSUMERS:
            with pytest.raises(RegisterOutOfRange) as exc:
                consumer(bad)
            assert str(exc.value) == "register 0x3fff outside $4000-$4017"

    def test_bad_register_at_the_end_rejected(self):
        # a write at total_samples is never applied, but it is still checked
        stream = _stream(1000, (0, 0x4015, 0x01), (1000, 0x4018, 0x00))
        for consumer in CONSUMERS:
            with pytest.raises(RegisterOutOfRange) as exc:
                consumer(stream)
            assert str(exc.value) == "register 0x4018 outside $4000-$4017"

    def test_first_bad_write_is_named(self):
        # a bad register before a bad offset, then the reverse
        for writes, error in ((((5, 0x4018, 0), (4, 0x4015, 0)), RegisterOutOfRange),
                              (((5, 0x4015, 0), (4, 0x4018, 0)), BadWriteOffset)):
            for consumer in CONSUMERS:
                with pytest.raises(error):
                    consumer(_stream(10, *writes))

    @pytest.mark.parametrize("value", [1.5, 2 ** 64 + 3, -1, 256])
    def test_value_outside_a_byte_rejected(self, value):
        # replay read such values through int64 columns: 1.5 as 1, 2^64 + 3 as an
        # OverflowError; write_vgm kept the low byte, which parse_vgm reads back
        stream = _stream(1000, (0, 0x4015, 0x01), (10, 0x4000, value), (20, 0x4018, 0))
        for consumer in (replay, *CONSUMERS):
            with pytest.raises(BadWriteValue) as exc:
                consumer(stream)
            assert (exc.value.index, exc.value.value) == (1, value)
            assert str(exc.value) == f"write 1 value {value!r} is not an int in [0, 255]"

    @pytest.mark.parametrize("total", [-1, 0x1_0000_0000])
    def test_total_outside_32_bits_rejected(self, total):
        for consumer in CONSUMERS:
            with pytest.raises(OffsetOverflow) as exc:
                consumer(TimedWriteStream(total_samples=total))
            assert str(exc.value) == f"total_samples {total} is outside [0, 4294967295]"

    @pytest.mark.parametrize("total", [1.5, 100.0, "100", None])
    def test_total_that_is_not_an_int_rejected(self, total):
        # replay read 1.5 as 1 sample; write_vgm and the rest raised a bare TypeError
        for consumer in (replay, *CONSUMERS):
            with pytest.raises(OffsetOverflow) as exc:
                consumer(_stream(total, (0, 0x4015, 0x01)))
            assert str(exc.value) == f"total_samples {total!r} is not an int"

    def test_total_past_the_replay_bound_rejected(self, monkeypatch):
        # the bound itself replays; one sample more is refused before any work
        monkeypatch.setattr("nesscore.apu.MAX_REPLAY_SAMPLES", 1000)
        assert replay(_stream(1000, (0, 0x4015, 0x01)))[0][-1] < 1000
        for consumer in (replay, extract_timeline, render_writes):
            with pytest.raises(ReplayTooLong) as exc:
                consumer(_stream(1001, (0, 0x4015, 0x01)))
            assert str(exc.value) == ("total_samples 1001 is more than the 1000 samples "
                                      "replay takes in one pass")


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


def outcome(extract, stream):
    """The change points of a stream, or the replay error's type and message."""
    try:
        return extract(stream)
    except (BadWriteOffset, RegisterOutOfRange) as exc:
        return type(exc), str(exc)


def table_changes(stream):
    return extract_timeline(stream).changes


def vgm_changes(stream):
    """The change points of the stream that the stream's VGM image reads back to."""
    return table_changes(parse_vgm(write_vgm(stream)))


LOADS_AND_RESETS = [0x03, 0x07, 0x0B, 0x0F, 0x15, 0x17]
REGISTERS = st.one_of(st.integers(0, 0x17), st.sampled_from(LOADS_AND_RESETS))


@st.composite
def write_streams(draw):
    """Sorted writes at offsets on and off the tick grid; $4017 in either mode at times."""
    writes = [(0, 0x4015, draw(st.sampled_from([0x0F, 0x0F, 0x05, 0x00])))]
    if draw(st.booleans()):
        writes.append((0, 0x4017, draw(st.sampled_from([0x00, 0x40, 0x80, 0xC0]))))
    offset = 0
    for _ in range(draw(st.integers(0, 60))):
        offset += draw(st.sampled_from([0, 0, 1, 7, 183, 184, 735, 1500]))
        writes.append((offset, 0x4000 + draw(REGISTERS), draw(st.integers(0, 255))))
    return _stream(offset + draw(st.integers(0, 4000)), *writes)


def _packed(stream) -> bytes:
    return b"".join(struct.pack("<HHB", o, r, v) for o, r, v in stream.writes)


def _unpacked(data: bytes, total: int) -> TimedWriteStream:
    """Writes from 5-byte records (a trailing partial record is dropped)."""
    records = struct.iter_unpack("<HHB", data[:len(data) // 5 * 5])
    return TimedWriteStream([TimedWrite(*r) for r in records], total_samples=total)


# Byte edits of a packed stream: offsets may then fall, pass the end or hit a
# register outside $4000-$4017.
RECORD_EDITS = st.tuples(
    st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 400),
    st.one_of(st.sampled_from(b"\x00\x03\x07\x15\x17\x40\x80\xc0\xff"), st.integers(0, 255)))


class TestReplayAgainstReference:
    """The replay table against the per-segment snapshots of reference_replay."""

    @given(write_streams())
    @example(_stream(0, (0, 0x0015, 15)))           # bad registers at the very end
    @example(_stream(10, (0, 0x4015, 15), (10, 0x4018, 0)))
    @settings(max_examples=150, deadline=None)
    def test_random_streams(self, stream):
        assert outcome(table_changes, stream) == outcome(reference_replay.timeline_changes, stream)

    @given(write_streams(), st.lists(RECORD_EDITS, min_size=1, max_size=6))
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_byte_mutations(self, stream, edits):
        mutated = _unpacked(mutate(_packed(stream), edits), stream.total_samples)
        assert (outcome(table_changes, mutated)
                == outcome(reference_replay.timeline_changes, mutated))

    def test_iter_segments_has_one_item_per_segment(self):
        for stream in PINNED_STREAMS.values():
            items = list(iter_segments(stream))
            assert len(items) == sum(1 for _ in reference_replay.iter_segments(stream))
            assert [end for _s, end, _r in items[:-1]] == [s for s, _e, _r in items[1:]]
            assert (items[0][0], items[-1][1]) == (0, stream.total_samples)


def replayed(replay_fn, stream):
    """A replay's starts and rows as lists, once their dtypes and shapes are checked."""
    starts, rows = replay_fn(stream)
    assert starts.dtype == np.int64 and rows.dtype == np.int32
    assert rows.shape == (len(starts), len(ROW_FIELDS))
    return starts.tolist(), rows.tolist()


def array_rows(stream):
    return replayed(replay, stream)


def loop_rows(stream):
    return replayed(reference_replay.replay, stream)


@st.composite
def dense_streams(draw):
    """Up to 200 writes, often several at one sample or a few samples apart,
    and totals far past the last write.  A Random seeded by Hypothesis
    makes them, which is many times faster than drawing each write."""
    rng = draw(st.randoms(use_true_random=True))
    writes = [(0, 0x4015, rng.choice([0x0F, 0x0F, 0x05, 0x00]))]
    offset = 0
    for _ in range(rng.randint(0, 200)):
        offset += rng.choice([0, 1, 2, 90, 183, 184, 367, 735, 2000])
        register = rng.choice([rng.randint(0, 0x17), rng.choice(LOADS_AND_RESETS)])
        writes.append((offset, 0x4000 + register, rng.randint(0, 255)))
    return _stream(offset + rng.randint(0, 20000), *writes)


class TestReplayAgainstLoop:
    """The array replay against the state-machine loop of reference_replay:
    the same starts and every row column, silent voices' timers and the
    phase resets included, or the same error."""

    @given(write_streams())
    @example(_stream(0, (0, 0x0015, 15)))
    @example(_stream(0))
    @settings(max_examples=10, deadline=None)
    def test_random_streams(self, stream):
        assert outcome(array_rows, stream) == outcome(loop_rows, stream)

    @given(write_streams(), st.lists(RECORD_EDITS, min_size=1, max_size=6))
    @settings(derandomize=True, max_examples=10, deadline=None)
    def test_byte_mutations(self, stream, edits):
        mutated = _unpacked(mutate(_packed(stream), edits), stream.total_samples)
        assert outcome(array_rows, mutated) == outcome(loop_rows, mutated)

    @given(dense_streams())
    @settings(max_examples=80, deadline=None)
    def test_dense_streams(self, stream):
        assert outcome(array_rows, stream) == outcome(loop_rows, stream)

    @pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
    def test_pinned_streams(self, name):
        assert array_rows(PINNED_STREAMS[name]) == loop_rows(PINNED_STREAMS[name])


def rows_by_start(stream):
    """{start: row as a dict of ROW_FIELDS} of the array replay, once it
    matches the loop's."""
    starts, rows = array_rows(stream)
    assert (starts, rows) == loop_rows(stream)
    return {start: dict(zip(ROW_FIELDS, row)) for start, row in zip(starts, rows)}


# Pulse 1 enabled at constant volume 15, its length counter halted, timer 253.
P1_HELD = ((0, 0x4015, 0x0F), (0, 0x4000, 0x3F), (0, 0x4002, 0xFD), (0, 0x4003, 0x08))


class TestReplayEdgeCases:
    """Orderings and limits where a closed form could drift from the loop."""

    def test_4017_reset_off_the_tick_grid(self):
        rows = rows_by_start(_stream(3000, *P1_HELD, (1000, 0x4017, 0x00)))
        # the old grid's 1102 is dropped; the new one counts from 1000
        assert 918 in rows and 1102 not in rows
        assert [s for s in rows if s > 1000][:3] == [1183, 1367, 1551]

    def test_five_step_clock_then_more_writes_at_its_sample(self):
        # envelope period 0, started at sample 0; at 400 a 5-step write clocks
        # a decay step at once, then a period change and a new start flag
        # follow at the same sample and wait for the next clock, at 583
        rows = rows_by_start(_stream(
            3000, (0, 0x4015, 0x0F), (0, 0x4000, 0x00), (0, 0x4002, 0xFD), (0, 0x4003, 0x08),
            (0, 0x4008, 0x04), (0, 0x400A, 0x40), (0, 0x400B, 0x08),
            (400, 0x4017, 0x80), (400, 0x4000, 0x05), (400, 0x4003, 0x08), (400, 0x400B, 0x08)))
        assert [rows[s]["p1_volume"] for s in (183, 367, 400, 583)] == [15, 14, 13, 15]

    def test_five_step_clock_reads_the_writes_before_it_at_its_sample(self):
        # length 2 (load field 3); at 300 the 5-step write's half clock runs
        # while the $4000 write before it halts the counter, and the one
        # after it lifts the halt: 2 stays 2 there, then 1 at 667 and 0 at 1218
        rows = rows_by_start(_stream(
            2000, (0, 0x4015, 0x01), (0, 0x4000, 0x1F), (0, 0x4002, 0xFD), (0, 0x4003, 0x18),
            (300, 0x4000, 0x3F), (300, 0x4017, 0x80), (300, 0x4000, 0x1F)))
        assert [rows[s]["p1_volume"] for s in (300, 667, 1218)] == [15, 15, 0]

    def test_length_loads_on_each_side_of_a_five_step_clock(self):
        # at 300 length 254 is loaded, clocked to 253, then replaced by 2,
        # which the half clocks at 667 and 1218 run down
        rows = rows_by_start(_stream(
            2000, (0, 0x4015, 0x01), (0, 0x4000, 0x1F), (0, 0x4002, 0xFD),
            (300, 0x4003, 0x08), (300, 0x4017, 0x80), (300, 0x4003, 0x18)))
        assert [rows[s]["p1_volume"] for s in (0, 300, 667, 1218)] == [0, 15, 15, 0]
        assert rows[300]["phase_reset"] == 1

    def test_writes_only_at_the_end_leave_only_ticks(self):
        # writes at total_samples are never applied: the sequencer cuts the
        # segments, and every voice is silent
        rows = rows_by_start(_stream(1000, (1000, 0x4015, 0x0F), (1000, 0x4000, 0x3F),
                                     (1000, 0x4003, 0x08), (1000, 0x4017, 0x80)))
        assert list(rows) == [0, 183, 367, 551, 735, 918]
        silent = dict(zip(ROW_FIELDS, (0,) * 6 + (-1,) + (0,) * 4))
        assert all(row == silent for row in rows.values())

    def test_two_4017_writes_at_one_sample(self):
        # length 2 (load field 3); two 5-step writes clock two halves at once
        rows = rows_by_start(_stream(
            2000, (0, 0x4015, 0x01), (0, 0x4000, 0x1F), (0, 0x4002, 0xFD), (0, 0x4003, 0x18),
            (300, 0x4017, 0x80), (300, 0x4017, 0x80)))
        assert rows[183]["p1_volume"] == 15 and rows[300]["p1_volume"] == 0

    def test_add_sweep_into_the_target_mute(self):
        # 0x300 -> 0x480 -> 0x6C0, whose target 0xA20 mutes it and stops the sweep
        rows = rows_by_start(_stream(
            4000, *P1_HELD[:2], (0, 0x4001, 0x81), (0, 0x4002, 0x00), (0, 0x4003, 0x03)))
        timers = [row["p1_timer"] for row in rows.values()]
        assert sorted(set(timers)) == [0x300, 0x480, 0x6C0]
        assert rows[max(rows)] == dict(rows[max(rows)], p1_timer=0x6C0, p1_volume=0)

    def test_negate_sweep_into_a_timer_below_8(self):
        # pulse 2 halves its timer 64 -> 32 -> 16 -> 8 -> 4, then mutes
        rows = rows_by_start(_stream(
            4000, (0, 0x4015, 0x02), (0, 0x4004, 0x3F), (0, 0x4005, 0x89),
            (0, 0x4006, 0x40), (0, 0x4007, 0x00)))
        assert sorted({row["p2_timer"] for row in rows.values()}) == [4, 8, 16, 32, 64]
        assert rows[max(rows)]["p2_volume"] == 0

    def test_length_reload_on_the_sample_it_expires(self):
        # length 2 runs out on the half clock at 735; a reload there comes first
        expiring = (*P1_HELD[:2], (0, 0x4000, 0x1F), (0, 0x4002, 0xFD), (0, 0x4003, 0x18))
        assert rows_by_start(_stream(1000, *expiring))[735]["p1_volume"] == 0
        rows = rows_by_start(_stream(1000, *expiring, (735, 0x4003, 0x18)))
        assert rows[735]["p1_volume"] == 15

    def test_envelope_period_change_and_loop_flip(self):
        # decay with period 3, then period 0 mid-decay, then looping, then not
        rows = rows_by_start(_stream(
            20000, (0, 0x4015, 0x0F), (0, 0x4000, 0x03), (0, 0x4002, 0xFD), (0, 0x4003, 0x08),
            (2000, 0x4000, 0x00), (4000, 0x4000, 0x20), (9000, 0x4000, 0x00)))
        levels = [row["p1_volume"] for start, row in rows.items() if start < 9000]
        assert levels.index(0) < len(levels) - 1 - levels[::-1].index(15)  # it looped
        assert rows[max(rows)]["p1_volume"] == 0

    def test_400b_write_while_the_control_bit_toggles(self):
        # reload value 3: held while control is set, counting down once it clears
        rows = rows_by_start(_stream(
            5000, (0, 0x4015, 0x04), (0, 0x4008, 0x83), (0, 0x400A, 0x40),
            (100, 0x400B, 0x08), (1000, 0x4008, 0x03), (1100, 0x400B, 0x08),
            (1200, 0x4008, 0x83), (1300, 0x4008, 0x03), (1400, 0x400B, 0x08)))
        sounding = [start for start, row in rows.items() if row["tr_timer"] >= 0]
        assert sounding[0] == 183 and max(sounding) < 5000 - 184


class TestWriteVgmAgainstReplay:
    """write_vgm rejects exactly the streams replay rejects, and its images read back."""

    @given(write_streams(), st.lists(RECORD_EDITS, max_size=6))
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_byte_mutations(self, stream, edits):
        mutated = _unpacked(mutate(_packed(stream), edits), stream.total_samples)
        assert outcome(vgm_changes, mutated) == outcome(table_changes, mutated)
